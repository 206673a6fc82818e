"""Checksum-framed record streams over real TCP sockets.

One :class:`RecordStream` wraps one connected socket and speaks the exact
``magic | length | crc32 | pickle`` framing of
:mod:`repro.core.backends.wire` -- a cluster worker's record is
indistinguishable from a freshly forked child's, just travelling over a
socket instead of a pipe.  The hardening mirrors the pipe path:

- a peer that dies mid-frame leaves a *torn* shipment; the incremental
  :class:`~repro.core.backends.wire.RecordReader` never parses a record
  out of the fragment and the stream surfaces :class:`StreamClosed` with
  ``torn=True`` so the caller can promote the next finisher;
- corruption (a bad magic, a checksum mismatch) poisons the stream the
  same way -- one bad frame ends the conversation, it never resyncs onto
  garbage;
- sends into a half-open connection (the peer is gone but the kernel has
  not noticed) surface as a ``False`` return instead of an exception, the
  socket analogue of :func:`~repro.core.backends.wire.write_all`'s EPIPE
  contract;
- EINTR is retried by the interpreter (PEP 475); handlers installed by
  the daemons only set flags, so blocking calls resume instead of dying.
"""

from __future__ import annotations

import select
import socket
import threading
import time
from typing import Callable, Optional, Tuple

from repro.core.backends import wire
from repro.errors import ReproError
from repro.obs import events as _ev
from repro.obs.tracer import active as _active_tracer

#: recv() chunk size; frames are typically far smaller than this.
_CHUNK = 65536


class StreamClosed(ReproError):
    """The peer is gone (EOF, reset, or a poisoned frame).

    ``torn`` distinguishes a clean goodbye (the peer finished a frame and
    closed) from a mid-frame death or corruption -- the socket analogue of
    a dangling partial frame on a child's pipe.
    """

    def __init__(self, detail: str, torn: bool = False) -> None:
        super().__init__(detail)
        self.detail = detail
        self.torn = torn


class RecordStream:
    """One bidirectional framed-record conversation over a socket."""

    def __init__(self, sock: socket.socket, name: str = "") -> None:
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - e.g. a unix socketpair
            pass
        self._sock = sock
        try:
            host, port = sock.getpeername()[:2]
            self._peer = f"{host}:{port}"
        except OSError:
            self._peer = "<disconnected>"
        self._reader = wire.RecordReader()
        self._ready: list = []
        self._send_lock = threading.Lock()
        """``sendall`` can interleave partial writes across threads; one
        frame must hit the wire contiguously or the peer sees garbage."""
        self.name = name
        self.closed = False
        self.sent = 0
        self.received = 0
        self.send_failures = 0
        self.on_send_failure: Optional[Callable[["RecordStream", str], None]] = None
        """Called (once per failed send) with ``(stream, detail)`` --
        how the executor feeds half-open sends into its circuit breaker
        and the membership table's suspicion counter."""

    def fileno(self) -> int:
        return self._sock.fileno()

    @property
    def peer(self) -> str:
        """The remote endpoint, remembered from connect time so it stays
        reportable after the kernel forgets the dead connection."""
        try:
            host, port = self._sock.getpeername()[:2]
            self._peer = f"{host}:{port}"
        except OSError:
            pass
        return self._peer

    # ------------------------------------------------------------------

    def send(self, payload: dict) -> bool:
        """Frame and ship one record; ``False`` when the peer is gone.

        Any connection-level failure (EPIPE on a half-open socket, a
        reset, a send into a closed stream) means nobody will ever read
        this record -- the caller treats the peer as dead, it never
        retries the same bytes.
        """
        if self.closed:
            return False
        frame, _ = wire.frame_record(payload)
        try:
            with self._send_lock:
                self._sock.sendall(frame)
        except (BrokenPipeError, ConnectionError, OSError) as exc:
            # A half-open connection dying here used to be *silent*: the
            # caller got ``False`` and nothing else learned the peer was
            # gone.  Witness it once -- a trace event plus the failure
            # hook -- so the breaker and membership suspicion see it.
            self._note_send_failure(f"{type(exc).__name__}: {exc}")
            return False
        self.sent += 1
        return True

    def send_bytes(self, data: bytes) -> bool:
        """Ship pre-framed raw bytes; ``False`` when the peer is gone.

        The authenticated wire frames its own envelopes (the MAC must
        cover the exact bytes on the wire), so it bypasses the pickle
        framing and writes here.  Same contract as :meth:`send`: one
        call is one contiguous write under the send lock, and a failed
        write feeds the breaker/membership plumbing.
        """
        if self.closed:
            return False
        try:
            with self._send_lock:
                self._sock.sendall(data)
        except (BrokenPipeError, ConnectionError, OSError) as exc:
            self._note_send_failure(f"{type(exc).__name__}: {exc}")
            return False
        self.sent += 1
        return True

    def _note_send_failure(self, detail: str) -> None:
        self.send_failures += 1
        tracer = _active_tracer()
        if tracer.enabled:
            tracer.emit(
                _ev.CONN_DROP,
                name=self.name,
                peer=self.peer,
                reason="send-failed",
                detail=detail,
            )
        hook = self.on_send_failure
        if hook is not None:
            try:
                hook(self, detail)
            except Exception:  # pragma: no cover - observer must not kill send
                pass

    def _wait_readable(self, timeout: float) -> bool:
        """True once the socket has bytes (or EOF) to read, False when
        ``timeout`` seconds pass first.

        The wait is a ``poll`` on the descriptor, never
        ``socket.settimeout``: a socket's timeout also governs a
        ``sendall`` another thread has in flight on it, so a reader
        polling at 10 ms used to cut a large concurrent send short with
        half a frame on the wire.  The socket stays blocking for good.
        """
        poller = select.poll()
        try:
            poller.register(self._sock.fileno(), select.POLLIN)
            return bool(poller.poll(max(0.0, timeout) * 1000.0))
        except (OSError, ValueError):
            # close() raced us from another thread; same as a dead peer.
            raise StreamClosed(
                "stream closed concurrently", torn=False
            ) from None

    def recv(self, timeout: Optional[float] = None) -> Optional[dict]:
        """The next record, or ``None`` when ``timeout`` elapses first.

        Raises :class:`StreamClosed` on EOF (``torn=True`` when the peer
        died mid-frame) and on a corrupt frame (always torn: the stream
        cannot be trusted past the first bad byte).
        """
        if self._ready:
            self.received += 1
            return self._ready.pop(0)
        if self.closed:
            raise StreamClosed("stream already closed", torn=False)
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._ready:
            if deadline is not None and not self._wait_readable(
                    deadline - time.monotonic()):
                return None
            try:
                data = self._sock.recv(_CHUNK)
            except (ConnectionError, OSError) as exc:
                raise StreamClosed(
                    f"connection lost: {exc}", torn=self._reader.pending
                ) from None
            if not data:
                raise StreamClosed(
                    "peer closed the connection"
                    + (" mid-frame" if self._reader.pending else ""),
                    torn=self._reader.pending,
                )
            self._ready.extend(self._reader.feed(data))
            if self._reader.corrupt:
                raise StreamClosed(self._reader.corrupt_detail, torn=True)
        self.received += 1
        return self._ready.pop(0)

    def recv_bytes(self, timeout: Optional[float] = None) -> Optional[bytes]:
        """One chunk of raw socket bytes, never parsed or unpickled.

        Returns ``None`` when ``timeout`` elapses and ``b""`` on EOF;
        raises :class:`StreamClosed` on a connection error or a stream
        closed concurrently.  The authenticated wire reads here and
        keeps its own framing buffer: raw network bytes must never
        reach the pickling :class:`~repro.core.backends.wire.
        RecordReader` before their MAC is verified.
        """
        if self.closed:
            raise StreamClosed("stream already closed", torn=False)
        if timeout is not None and not self._wait_readable(timeout):
            return None
        try:
            return self._sock.recv(_CHUNK)
        except (ConnectionError, OSError) as exc:
            raise StreamClosed(f"connection lost: {exc}", torn=False) from None

    def close(self) -> None:
        """Close the underlying socket (idempotent)."""
        if self.closed:
            return
        self.closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - double close
            pass

    def __enter__(self) -> "RecordStream":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else f"open->{self.peer}"
        return f"RecordStream({self.name or self.peer!r}, {state})"


def connect(
    host: str, port: int, timeout: float = 2.0, name: str = ""
) -> RecordStream:
    """Dial ``host:port`` and wrap the connection in a stream.

    Raises ``OSError`` when the endpoint is unreachable; the caller's
    rotation logic treats that exactly like a dead node.
    """
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.settimeout(None)
    return RecordStream(sock, name=name or f"{host}:{port}")


def listener(host: str = "127.0.0.1", port: int = 0) -> Tuple[socket.socket, str, int]:
    """A listening socket plus the address it actually bound.

    ``port=0`` asks the kernel for an ephemeral port -- the way every
    daemon here binds, so test clusters never collide.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((host, port))
    sock.listen(64)
    bound_host, bound_port = sock.getsockname()[:2]
    return sock, bound_host, bound_port


def close_listener(sock: socket.socket) -> None:
    """Stop listening and wake whoever is blocked in ``accept()``.

    ``shutdown``, then ``close``: a thread blocked in ``accept`` pins
    the socket's description, so a bare ``close`` neither wakes it (the
    thread is leaked, one per service ever stopped) nor frees the port
    for a successor.
    """
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass
