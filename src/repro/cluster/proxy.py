"""A frame-aware impairment proxy: ``CHAOS_SCENARIOS`` on the real wire.

TCP never loses bytes, so chaos on a real socket has to be injected by a
man in the middle.  One :class:`ImpairmentProxy` fronts one worker
daemon (one *link*, in the simulated network's vocabulary) and forwards
framed records both ways, consulting a compiled
:class:`~repro.resilience.chaos.WireImpairments` once per complete frame:

- **drop** -- the frame silently never arrives (a lost heartbeat, a lost
  winner shipment); the framing guarantees the cut is at a record
  boundary, so loss at the proxy is *message* loss, exactly the
  simulated ``transmit`` semantics;
- **duplicate** -- the frame is forwarded twice back to back (the
  receiver-side dedup/idempotence machinery earns its keep);
- **hold** (reorder) -- the frame is parked and released after the next
  frame on the same direction passes it;
- **delay** -- the forwarding thread stalls before relaying (a latency
  spike that also delays everything queued behind it, as a congested
  link would);
- **partition** -- the link goes dark for a window; every frame in both
  directions inside the window is dropped, and heals on its own.

The proxy parses only frame *boundaries* (magic + length + crc header);
payload bytes are forwarded untouched, so a corrupt or torn upstream
frame still reaches the client exactly as the worker shipped it --
impairment never masks the endpoint hardening it is there to test.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import List, Optional, Tuple

from repro.core.backends import wire
from repro.cluster import auth
from repro.cluster.stream import close_listener, listener
from repro.resilience.chaos import WireImpairments

#: Sub-frame read chunk; small enough that a partition window starting
#: mid-stream stalls quickly, large enough to not burn CPU.
_CHUNK = 65536


class _FrameSplitter:
    """Incremental splitter: raw bytes in, whole raw frames out.

    Understands all three framings that transit a cluster link -- plain
    pickled records (``Rr``), the cleartext auth challenge (``Rh``) and
    sealed authenticated envelopes (``Ra``) -- so impairment stays
    message-grained on an authenticated link too.  Unlike
    :class:`~repro.core.backends.wire.RecordReader` it never unpickles
    and never rejects: bytes that do not parse as a frame header are
    passed through as an opaque tail so endpoint corruption detection
    still sees them.
    """

    def __init__(self) -> None:
        self._buffer = b""
        self.opaque = False

    def feed(self, data: bytes) -> List[bytes]:
        self._buffer += data
        if self.opaque:
            out, self._buffer = [self._buffer], b""
            return [chunk for chunk in out if chunk]
        frames: List[bytes] = []
        while len(self._buffer) >= 2:
            magic = self._buffer[:2]
            if magic == wire.MAGIC:
                if len(self._buffer) < wire.FRAME.size:
                    break
                _m, length, _crc = wire.FRAME.unpack_from(self._buffer)
                if length > wire.MAX_RECORD:
                    return self._go_opaque(frames)
                total = wire.FRAME.size + length
            elif magic == auth.CHALLENGE_MAGIC:
                total = auth.CHALLENGE_LEN
            elif magic == auth.AUTH_MAGIC:
                if len(self._buffer) < auth.HEADER.size:
                    break
                _m, length, _n = auth.HEADER.unpack_from(self._buffer)
                if length > wire.MAX_RECORD:
                    return self._go_opaque(frames)
                total = auth.HEADER.size + auth.MAC_LEN + length
            else:
                return self._go_opaque(frames)
            if len(self._buffer) < total:
                break
            frames.append(self._buffer[:total])
            self._buffer = self._buffer[total:]
        return frames

    def _go_opaque(self, frames: List[bytes]) -> List[bytes]:
        # Not our framing: stop splitting, forward verbatim from here
        # on (the endpoint will flag the corruption).
        self.opaque = True
        frames.append(self._buffer)
        self._buffer = b""
        return frames

    @property
    def pending(self) -> bytes:
        """Bytes of an incomplete trailing frame (flushed on close)."""
        return self._buffer


class ImpairmentProxy:
    """One impaired link between the home node and one worker daemon."""

    def __init__(
        self,
        upstream: Tuple[str, int],
        impair: Optional[WireImpairments] = None,
        link: str = "",
        host: str = "127.0.0.1",
    ) -> None:
        self.upstream = upstream
        self.impair = impair
        self.link = link or f"home|{upstream[0]}:{upstream[1]}"
        self._listen_host = host
        self._listener: Optional[socket.socket] = None
        self.host = host
        self.port = 0
        self._accept: Optional[threading.Thread] = None
        self._threads: List[threading.Thread] = []
        self._conns: List[socket.socket] = []
        self._lock = threading.Lock()
        self._stopped = threading.Event()
        self.frames_forwarded = 0

    # ------------------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Bind, start accepting, and return the proxied address."""
        self._listener, self.host, self.port = listener(self._listen_host, 0)
        self._accept = threading.Thread(
            target=self._accept_loop, name=f"proxy-{self.link}", daemon=True
        )
        self._accept.start()
        self._threads.append(self._accept)
        return self.host, self.port

    def stop(self) -> None:
        """Close the listener and every live relay."""
        self._stopped.set()
        if self._listener is not None:
            close_listener(self._listener)
            self._accept.join(timeout=2.0)
        with self._lock:
            conns, self._conns = self._conns, []
        for conn in conns:
            # shutdown-then-close, for the same reason as the pump
            # teardown: a pump blocked in recv holds the description
            # open, so a bare close would leave the relay half-open.
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass

    def __enter__(self) -> "ImpairmentProxy":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopped.is_set():
            try:
                client, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            try:
                server = socket.create_connection(self.upstream, timeout=2.0)
                server.settimeout(None)
            except OSError:
                client.close()
                continue
            with self._lock:
                self._conns.extend((client, server))
            for source, sink, direction in (
                (client, server, "up"),
                (server, client, "down"),
            ):
                pump = threading.Thread(
                    target=self._pump,
                    args=(source, sink, direction),
                    name=f"proxy-{self.link}-{direction}",
                    daemon=True,
                )
                pump.start()
                self._threads.append(pump)

    def _pump(self, source: socket.socket, sink: socket.socket,
              direction: str) -> None:
        splitter = _FrameSplitter()
        held: Optional[bytes] = None
        try:
            while not self._stopped.is_set():
                try:
                    data = source.recv(_CHUNK)
                except OSError:
                    break
                if not data:
                    break
                for frame in splitter.feed(data):
                    held = self._relay(sink, frame, held)
        finally:
            # Flush a held frame and any torn tail so the endpoint sees
            # exactly what the peer managed to ship before dying.
            try:
                if held is not None:
                    sink.sendall(held)
                if splitter.pending:
                    sink.sendall(splitter.pending)
            except OSError:
                pass
            # Half-open propagation: one side died, tear down both.
            # ``shutdown`` first: ``close`` alone cannot end the TCP
            # conversation while the opposite pump is still blocked in
            # ``recv`` on the same socket -- the blocked thread pins the
            # kernel file description, no FIN ever leaves, and the
            # surviving endpoint waits on a half-open wire forever.
            # ``shutdown`` acts on the description immediately: it sends
            # the FIN *and* wakes the blocked reader.
            for sock in (source, sink):
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    sock.close()
                except OSError:
                    pass

    def _relay(self, sink: socket.socket, frame: bytes,
               held: Optional[bytes]) -> Optional[bytes]:
        """Forward one frame through the impairment plan.

        Returns the new held frame (reorder buffer of depth one).
        """
        if self.impair is None:
            self._send(sink, frame)
            return held
        decision = self.impair.decide(self.link)
        if decision.drop:
            return held
        if decision.delay > 0:
            time.sleep(decision.delay)
        if decision.hold and held is None:
            return frame  # parked; the next frame overtakes it
        self._send(sink, frame)
        if decision.duplicate:
            self._send(sink, frame)
        if held is not None:
            self._send(sink, held)  # the parked frame lands late
        return None

    def _send(self, sink: socket.socket, frame: bytes) -> None:
        try:
            sink.sendall(frame)
            self.frames_forwarded += 1
        except OSError:
            pass  # receiver gone; the pump loop will notice on recv

    def __repr__(self) -> str:
        return (
            f"ImpairmentProxy({self.link!r}, {self.host}:{self.port} -> "
            f"{self.upstream[0]}:{self.upstream[1]})"
        )
