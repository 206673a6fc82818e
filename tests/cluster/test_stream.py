"""Framed record streams over real sockets: torn, corrupt, half-open.

The socket analogue of the pipe-truncation sweep: wherever a peer dies
mid-frame, the surviving side must detect a *torn* conversation, never
parse a record out of the fragment, and never hang.
"""

import socket
import threading
import time

import pytest

from repro.cluster.stream import RecordStream, StreamClosed, connect, listener
from repro.core.backends import wire
from repro.obs import events as _ev
from repro.obs.tracer import tracing


def sample_record():
    return {
        "kind": "result",
        "arm": 1,
        "value": ["a", "payload", 42],
        "dirty_pages": {3: b"\x07" * 64},
    }


def pair():
    """Two connected streams over a real localhost TCP connection."""
    server, host, port = listener()
    client_sock = socket.create_connection((host, port))
    conn, _ = server.accept()
    server.close()
    return RecordStream(client_sock, "client"), RecordStream(conn, "server")


class TestRoundTrip:
    def test_record_survives_the_wire(self):
        a, b = pair()
        try:
            assert a.send(sample_record())
            assert b.recv(timeout=2.0) == sample_record()
            assert a.sent == 1 and b.received == 1
        finally:
            a.close()
            b.close()

    def test_many_records_arrive_in_order(self):
        a, b = pair()
        try:
            for n in range(50):
                assert a.send({"n": n})
            got = [b.recv(timeout=2.0)["n"] for _ in range(50)]
            assert got == list(range(50))
        finally:
            a.close()
            b.close()

    def test_recv_timeout_returns_none(self):
        a, b = pair()
        try:
            assert b.recv(timeout=0.05) is None
        finally:
            a.close()
            b.close()

    def test_connect_helper_dials_a_listener(self):
        server, host, port = listener()
        stream = connect(host, port)
        conn, _ = server.accept()
        peer = RecordStream(conn)
        try:
            assert stream.send({"hello": True})
            assert peer.recv(timeout=2.0) == {"hello": True}
        finally:
            stream.close()
            peer.close()
            server.close()

    def test_connect_to_dead_port_raises_oserror(self):
        server, host, port = listener()
        server.close()
        with pytest.raises(OSError):
            connect(host, port, timeout=0.5)


class TestTornShipments:
    def test_clean_goodbye_is_not_torn(self):
        a, b = pair()
        a.close()
        with pytest.raises(StreamClosed) as err:
            b.recv(timeout=2.0)
        assert not err.value.torn
        b.close()

    @pytest.mark.parametrize("step", [1, 3, 7])
    def test_every_cut_offset_is_detectably_torn(self, step):
        """A peer that dies after shipping N bytes of a frame leaves a
        torn conversation at every N past zero, and no prefix ever
        parses as a record."""
        frame, _ = wire.frame_record(sample_record())
        for offset in range(1, len(frame), step):
            a, b = pair()
            raw = a._sock
            raw.sendall(frame[:offset])
            a.close()
            with pytest.raises(StreamClosed) as err:
                while True:
                    if b.recv(timeout=2.0) is not None:
                        pytest.fail(
                            f"offset {offset} parsed a record from a torn "
                            "frame"
                        )
            assert err.value.torn, f"offset {offset} not flagged torn"
            b.close()

    def test_full_frame_then_cut_yields_record_then_clean_close(self):
        frame, _ = wire.frame_record(sample_record())
        a, b = pair()
        a._sock.sendall(frame)
        a.close()
        assert b.recv(timeout=2.0) == sample_record()
        with pytest.raises(StreamClosed) as err:
            b.recv(timeout=2.0)
        assert not err.value.torn
        b.close()

    def test_corrupt_magic_poisons_the_stream(self):
        a, b = pair()
        a._sock.sendall(b"XX" + b"\x00" * 32)
        with pytest.raises(StreamClosed) as err:
            b.recv(timeout=2.0)
        assert err.value.torn
        a.close()
        b.close()

    def test_flipped_payload_byte_fails_the_checksum(self):
        frame, _ = wire.frame_record(sample_record())
        bad = bytearray(frame)
        bad[wire.FRAME.size + 4] ^= 0xFF
        a, b = pair()
        a._sock.sendall(bytes(bad))
        with pytest.raises(StreamClosed) as err:
            b.recv(timeout=2.0)
        assert err.value.torn
        a.close()
        b.close()


class TestHalfOpen:
    def test_send_after_peer_vanishes_returns_false(self):
        a, b = pair()
        b.close()
        # The first send may land in the kernel buffer; keep pushing
        # until the RST surfaces.  It must surface as False, never raise.
        for _ in range(50):
            if not a.send({"probe": True}):
                break
        else:
            pytest.fail("send never noticed the dead peer")
        a.close()

    def test_send_on_closed_stream_returns_false(self):
        a, b = pair()
        a.close()
        assert a.send({"probe": True}) is False
        b.close()

    def test_recv_on_closed_stream_raises(self):
        a, b = pair()
        a.close()
        with pytest.raises(StreamClosed):
            a.recv(timeout=0.1)
        b.close()

    def test_close_is_idempotent(self):
        a, b = pair()
        a.close()
        a.close()
        b.close()
        b.close()

    def test_half_open_send_is_witnessed_not_silent(self):
        """The silent-``False`` bug: a send into a half-open connection
        must emit a ``conn-drop`` trace naming the peer and fire the
        failure hook, so breakers and membership suspicion hear it."""
        a, b = pair()
        expected_peer = a.peer
        hook_calls = []
        a.on_send_failure = lambda stream, detail: hook_calls.append(
            (stream.peer, detail)
        )
        b.close()
        with tracing() as tracer:
            for _ in range(50):
                if not a.send({"probe": True}):
                    break
            else:
                pytest.fail("send never noticed the dead peer")
        drops = [e for e in tracer.events if e.kind == _ev.CONN_DROP]
        assert len(drops) == 1
        assert drops[0].attrs["peer"] == expected_peer
        assert drops[0].attrs["reason"] == "send-failed"
        assert drops[0].attrs["detail"]
        assert hook_calls == [(expected_peer, drops[0].attrs["detail"])]
        assert a.send_failures == 1
        a.close()

    def test_send_failure_hook_exception_does_not_break_send(self):
        a, b = pair()

        def bad_hook(stream, detail):
            raise RuntimeError("observer bug")

        a.on_send_failure = bad_hook
        b.close()
        for _ in range(50):
            if not a.send({"probe": True}):
                break
        else:
            pytest.fail("send never noticed the dead peer")
        a.close()

    def test_peer_survives_disconnection(self):
        a, b = pair()
        remembered = a.peer
        assert remembered != "<disconnected>"
        b.close()
        a.close()
        assert a.peer == remembered

    def test_concurrent_send_and_recv_do_not_interleave_frames(self):
        a, b = pair()
        errors = []

        def blast(stream, tag):
            try:
                for n in range(200):
                    if not stream.send({"tag": tag, "n": n}):
                        errors.append(f"{tag} send failed at {n}")
                        return
            except Exception as exc:  # noqa: BLE001
                errors.append(repr(exc))

        threads = [
            threading.Thread(target=blast, args=(a, "x"), daemon=True),
            threading.Thread(target=blast, args=(a, "y"), daemon=True),
        ]
        for t in threads:
            t.start()
        got = []
        for _ in range(400):
            msg = b.recv(timeout=2.0)
            assert msg is not None
            got.append(msg)
        for t in threads:
            t.join()
        assert not errors
        for tag in ("x", "y"):
            seq = [m["n"] for m in got if m["tag"] == tag]
            assert seq == list(range(200))
        a.close()
        b.close()


class TestReaderBesideWriter:
    """A session's socket has one reader and several writers: the
    reader's poll timeout must not govern a ``sendall`` in flight."""

    @pytest.mark.parametrize("raw", [False, True])
    def test_polling_reader_does_not_cut_a_large_send_short(self, raw):
        a, b = pair()
        payload = {"blob": b"\xa5" * (16 * 1024 * 1024)}
        stop = threading.Event()
        polled = []

        def poll():
            # The daemon's reader loop: short timeouts, back to back, on
            # the very socket the send below is blocked on.
            while not stop.is_set():
                try:
                    polled.append(
                        a.recv_bytes(timeout=0.01) if raw
                        else a.recv(timeout=0.01)
                    )
                except StreamClosed:
                    return

        reader = threading.Thread(target=poll, daemon=True)
        reader.start()
        sent = []
        sender = threading.Thread(
            target=lambda: sent.append(a.send(payload)), daemon=True
        )
        sender.start()
        time.sleep(0.3)  # the peer is slow to start reading
        try:
            got = b.recv(timeout=20.0)
            sender.join(timeout=20.0)
            assert not sender.is_alive()
            assert sent == [True]
            assert a.send_failures == 0
            assert got == payload
            assert set(polled) <= {None}
        finally:
            stop.set()
            a.close()
            b.close()
            reader.join(timeout=2.0)
        assert not reader.is_alive()


class TestStoppedServicesLeaveNoThread:
    """``stop()`` wakes the accept loop (``close_listener``) and joins
    it: closing a listening socket alone leaves ``accept()`` blocked and
    one thread behind per service ever stopped."""

    @staticmethod
    def assert_threads_return_to(before):
        deadline = time.monotonic() + 2.0
        while threading.active_count() > before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() == before

    def test_impairment_proxy(self):
        from repro.cluster.proxy import ImpairmentProxy

        upstream, host, port = listener()
        before = threading.active_count()
        try:
            proxy = ImpairmentProxy((host, port))
            address = proxy.start()
            assert threading.active_count() > before
            client = socket.create_connection(address, timeout=2.0)
            served, _ = upstream.accept()  # one relay, two pump threads
            proxy.stop()
            client.close()
            served.close()
            self.assert_threads_return_to(before)
        finally:
            upstream.close()

    def test_membership_server(self):
        from repro.cluster.membership import MembershipServer

        before = threading.active_count()
        server = MembershipServer()
        server.start()
        assert threading.active_count() == before + 2  # accept and sweep
        server.stop()
        self.assert_threads_return_to(before)

    def test_router_daemon(self, tmp_path):
        from repro.cluster.router_service import RouterDaemon

        before = threading.active_count()
        daemon = RouterDaemon(str(tmp_path / "router.journal"))
        daemon.start()
        assert threading.active_count() == before + 1
        daemon.stop()
        self.assert_threads_return_to(before)
