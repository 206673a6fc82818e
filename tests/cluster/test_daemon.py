"""The worker daemon's protocol surface, exercised over real sockets.

In-thread daemons: every conversation crosses a genuine localhost TCP
connection, only the process boundary is elided (the subprocess suite
covers that).
"""

import socket
import threading
import time

import pytest

from repro.cluster import daemon as daemon_module
from repro.cluster.daemon import WorkerDaemon
from repro.cluster.stream import StreamClosed, connect
from repro.core.alternative import Alternative
from repro.pages.store import PageStore
from repro.process.primitives import ProcessManager


# -- picklable demo bodies (they ship through the wire) -----------------

def put_result(ctx):
    ctx.put("result", 42)
    return 42


def slow_body(ctx):
    for _ in range(100):
        if ctx.token is not None and ctx.token.cancelled:
            return "cancelled"
        time.sleep(0.01)
    return "finished"


def failing_body(ctx):
    ctx.fail("guard says no")


def raising_body(ctx):
    raise RuntimeError("boom")


def reject_guard(ctx, value):
    return False


@pytest.fixture
def daemon():
    d = WorkerDaemon("w-test")
    d.start()
    yield d
    d.stop()


def dial(daemon):
    return connect(daemon.host, daemon.port)


def checkpoint_image(extra=None):
    """A parent world with known contents, as the executor would ship
    it: its page table by frame id plus the bytes of every frame named
    (the first ship of a session has been shown nothing)."""
    manager = ProcessManager(PageStore())
    parent = manager.create_initial(space_size=64 * 1024)
    parent.space.put("base", "shipped")
    if extra:
        for key, value in extra.items():
            parent.space.put(key, value)
    space = parent.space
    zero = space.store.zero_frame_id
    live = [(vpn, frame) for vpn, frame in space.table.items()
            if frame != zero]
    image = {
        "store": space.store.uid,
        "page_size": space.page_size,
        "space_size": space.size,
        "vpns": tuple(vpn for vpn, _ in live),
        "frames": tuple(frame for _, frame in live),
        "pages": {frame: space.table.read_page(vpn) for vpn, frame in live},
    }
    parent.space.release()
    return image


def ship_msg(alt, image, arm=0, epoch=1, ship=1, **overrides):
    msg = {
        "kind": "ship",
        "ship": ship,
        "alt": alt,
        "arm": arm,
        "epoch": epoch,
        "seed": 0,
        "name": alt.name,
        "hb_interval": 0.02,
    }
    msg.update(image)
    msg.update(overrides)
    return msg


def await_result(stream, timeout=5.0):
    """Drain heartbeats until the result record lands."""
    deadline = time.monotonic() + timeout
    beats = 0
    while time.monotonic() < deadline:
        msg = stream.recv(timeout=0.2)
        if msg is None:
            continue
        if msg["kind"] == "hb":
            beats += 1
            continue
        if msg["kind"] == "result":
            return msg, beats
    pytest.fail("no result before the timeout")


class TestControlPlane:
    def test_ping_pong(self, daemon):
        with dial(daemon) as stream:
            assert stream.send({"kind": "ping"})
            reply = stream.recv(timeout=2.0)
            assert reply == {"kind": "pong", "node": "w-test"}

    def test_vote_grants_once_and_sticks(self, daemon):
        with dial(daemon) as stream:
            stream.send({"kind": "vote", "decision": "d1",
                         "requester": "alice"})
            first = stream.recv(timeout=2.0)
            assert first["granted"] is True
            stream.send({"kind": "vote", "decision": "d1",
                         "requester": "bob"})
            second = stream.recv(timeout=2.0)
            assert second["granted"] is False  # sticky, irrevocable
            stream.send({"kind": "vote", "decision": "d1",
                         "requester": "alice"})
            again = stream.recv(timeout=2.0)
            assert again["granted"] is True  # idempotent for the holder

    def test_shutdown_record_stops_the_daemon(self):
        daemon = WorkerDaemon("w-bye")
        daemon.start()
        with dial(daemon) as stream:
            stream.send({"kind": "shutdown"})
            assert stream.recv(timeout=2.0)["kind"] == "bye"
        deadline = time.monotonic() + 2.0
        while not daemon.stopping and time.monotonic() < deadline:
            time.sleep(0.01)
        assert daemon.stopping
        assert daemon.shm_leaks_at_shutdown == ()


class TestArmExecution:
    def test_ship_runs_body_in_shipped_world(self, daemon):
        alt = Alternative("the-answer", put_result)
        with dial(daemon) as stream:
            stream.send(ship_msg(alt, checkpoint_image()))
            result, _ = await_result(stream)
        assert result["ok"] is True
        assert result["value"] == 42
        assert result["epoch"] == 1
        assert result["pages_written"] >= 1
        assert result["dirty_pages"]  # the changed state ships home

    def test_shipped_image_is_visible_to_the_body(self, daemon):
        # Bodies must pickle: module-level only.
        alt = Alternative("reader", _read_base)
        with dial(daemon) as stream:
            stream.send(ship_msg(alt, checkpoint_image()))
            result, _ = await_result(stream)
        assert result["ok"] is True
        assert result["value"] == "shipped"

    def test_heartbeats_interleave_with_a_slow_body(self, daemon):
        alt = Alternative("slow", slow_body)
        with dial(daemon) as stream:
            stream.send(ship_msg(alt, checkpoint_image()))
            # Give the body a few heartbeat periods before cancelling.
            deadline = time.monotonic() + 5.0
            beats = 0
            while beats < 3 and time.monotonic() < deadline:
                msg = stream.recv(timeout=0.2)
                if msg is not None and msg["kind"] == "hb":
                    beats += 1
            assert beats >= 3
            stream.send({"kind": "cancel", "ship": 1})
            # The body sees its token and returns long before its 1 s
            # is up -- and a cancelled ship is not answered: the home
            # stopped listening for it when it sent the cancel.
            deadline = time.monotonic() + 0.5
            while daemon._inflight and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not daemon._inflight
            while True:
                msg = stream.recv(timeout=0.2)
                if msg is None:
                    break
                assert msg["kind"] == "hb"  # one sent before the cancel
        assert daemon.arms_cancelled == 1

    def test_guard_failure_ships_ok_false(self, daemon):
        alt = Alternative("failing", failing_body)
        with dial(daemon) as stream:
            stream.send(ship_msg(alt, checkpoint_image()))
            result, _ = await_result(stream)
        assert result["ok"] is False
        assert "guard says no" in result["detail"]

    def test_acceptance_test_failure_ships_ok_false(self, daemon):
        alt = Alternative("rejected", put_result, guard=reject_guard)
        with dial(daemon) as stream:
            stream.send(ship_msg(alt, checkpoint_image()))
            result, _ = await_result(stream)
        assert result["ok"] is False
        assert "acceptance" in result["detail"]

    def test_raising_body_ships_the_exception_not_silence(self, daemon):
        alt = Alternative("boom", raising_body)
        with dial(daemon) as stream:
            stream.send(ship_msg(alt, checkpoint_image()))
            result, _ = await_result(stream)
        assert result["ok"] is False
        assert "boom" in result["detail"]

    def test_orphaned_arm_is_cancelled_when_home_vanishes(self, daemon):
        alt = Alternative("slow", slow_body)
        stream = dial(daemon)
        stream.send(ship_msg(alt, checkpoint_image()))
        assert stream.recv(timeout=2.0) is not None  # it is running
        stream.close()  # home dies; the wire is the lease
        deadline = time.monotonic() + 5.0
        while daemon._inflight and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not daemon._inflight  # the orphan self-terminated

    def test_orphan_exit_runs_the_shm_audit(self, daemon):
        """Satellite fix: the abnormal-exit path audits shm just like a
        polite shutdown does -- and after the arm's own hygiene, the
        audit must come back clean."""
        alt = Alternative("slow", slow_body)
        stream = dial(daemon)
        stream.send(ship_msg(alt, checkpoint_image()))
        assert stream.recv(timeout=2.0) is not None
        stream.close()
        deadline = time.monotonic() + 5.0
        while daemon.arms_orphaned == 0 and time.monotonic() < deadline:
            time.sleep(0.02)
        assert daemon.arms_orphaned == 1
        assert daemon.shm_leaks_after_orphan == ()

    def test_soft_crash_drops_the_connection_mid_arm(self, daemon):
        alt = Alternative("slow", slow_body)
        with dial(daemon) as stream:
            stream.send(ship_msg(alt, checkpoint_image(),
                                 crash_after=0.05))
            with pytest.raises(StreamClosed):
                while True:
                    stream.recv(timeout=0.5)


def _read_base(ctx):
    return ctx.get("base")


class TestArmToken:
    """A body's checkpoint is where its connection's reader gets in."""

    @pytest.fixture
    def pair(self):
        near, far = socket.socketpair()
        yield near, far
        near.close()
        far.close()

    def test_quiet_connection_costs_a_checkpoint_no_wait(self, pair):
        token = daemon_module._ArmToken(pair[0])
        began = time.monotonic()
        assert not any(token.cancelled for _ in range(500))
        # 500 turns for the reader would have been half a second.
        assert time.monotonic() - began < 0.25

    def test_waiting_input_gets_the_reader_one_bounded_turn(self, pair):
        token = daemon_module._ArmToken(pair[0])
        pair[1].sendall(b"x")
        began = time.monotonic()
        assert token.cancelled is False  # nobody delivered a cancel
        spent = time.monotonic() - began
        assert 0.5 * daemon_module._READER_TURN <= spent < 0.25

    def test_the_turn_ends_the_moment_the_cancel_is_delivered(
            self, pair, monkeypatch):
        monkeypatch.setattr(daemon_module, "_READER_TURN", 5.0)
        token = daemon_module._ArmToken(pair[0])
        pair[1].sendall(b"x")

        def reader():
            # Let the arm find the input waiting and step aside first: a
            # reader that drained it before the arm looked would leave
            # the arm nothing to wait for.
            time.sleep(0.2)
            pair[0].recv(1)
            token.cancel()

        thread = threading.Thread(target=reader)
        began = time.monotonic()
        thread.start()
        assert token.cancelled is True
        assert time.monotonic() - began < 2.0
        thread.join()

    def test_a_connection_closed_under_the_arm_is_not_an_error(self, pair):
        pair[0].close()
        token = daemon_module._ArmToken(pair[0])
        assert token.cancelled is False
        token.cancel()
        assert token.cancelled is True

