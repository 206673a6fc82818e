"""The message router as a crash-restartable network service.

Section 3.4.2's router kept its state -- channels, world sets, known
statuses, deferred effects -- in the memory of whatever node hosts it.
:class:`RouterDaemon` makes that node a real process with a real
failure mode:

- every state transition is journaled write-ahead through a
  :class:`~repro.ipc.journal.JournalSink` -- a framed, checksummed row
  hits disk before the transition takes effect;
- a SIGKILL at any instant (including mid-append: the torn row fails
  its frame walk and is discarded) leaves a log from which the next
  incarnation rebuilds the router with
  :func:`~repro.ipc.journal.load_journal` + ``replay()``: same live
  worlds, same sequence numbers, and every side effect released before
  the crash *not* re-run;
- the rebuilt incarnation compacts the log as it replays (replayed
  transitions re-journal into a fresh file, atomically swapped over the
  old one), so recovery cost is bounded by live state, not by history.

Clients speak framed ``router-op`` records over TCP through
:class:`RouterClient`; a ``digest`` op summarizes the router's
observable state, which is how the recovery tests assert that the
survivor agrees with the ghost.
"""

from __future__ import annotations

import os
import signal
import threading
from typing import Any, Callable, Dict, Optional, Tuple

from repro.cluster.auth import dial_handshake, load_secret, serve_handshake
from repro.cluster.stream import (
    RecordStream,
    StreamClosed,
    close_listener,
    connect,
    listener,
)
from repro.errors import ReproError
from repro.ipc.journal import JournalSink, RouterJournal, load_journal
from repro.ipc.router import MessageRouter
from repro.predicates import WorldSet


def default_worldset(pid: int) -> WorldSet:
    """The factory the demo and the CLI register pids with.

    Replay must rebuild each pid's *initial* world set identically, so
    the factory has to be a pure function of the pid -- module-level and
    importable, never a closure over run state.
    """
    return WorldSet(initial_state={"pid": pid, "log": []})


class RouterDaemon:
    """One incarnation of the journaled router, serving a TCP port."""

    def __init__(
        self,
        journal_path: str,
        worldset_factory: Optional[Callable[[int], WorldSet]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        secret=None,
    ) -> None:
        self.journal_path = journal_path
        self.worldset_factory = (
            worldset_factory if worldset_factory is not None
            else default_worldset
        )
        self.host = host
        self.port = port
        self._key = load_secret(secret)
        self.member_mirror: Dict[str, Any] = {}
        """The home node's latest membership snapshot, pushed via the
        ``member-sync`` op -- so an operator (or a recovering home) can
        ask the router who the cluster believed was alive."""
        self._listener = None
        self._accept: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._signalled = False
        self._lock = threading.Lock()
        """Ops serialize: the router is single-threaded state behind a
        concurrent front door, the same discipline as the simulator."""

        self.recovered_rows = 0
        self.router = self._recover()

    # ------------------------------------------------------------------
    # recovery

    def _recover(self) -> MessageRouter:
        """Rebuild from the journal on disk (empty log = fresh start).

        The replayed incarnation journals into a ``.rebuild`` file that
        atomically replaces the old log once replay finishes -- a crash
        *during* recovery leaves the original log untouched, so recovery
        is idempotent.
        """
        old = load_journal(self.journal_path)
        self.recovered_rows = len(old.records)
        if not old.records:
            sink = JournalSink(self.journal_path)
            return MessageRouter(journal=RouterJournal(sink=sink))
        rebuild_path = self.journal_path + ".rebuild"
        if os.path.exists(rebuild_path):
            os.unlink(rebuild_path)  # a corpse from a crashed recovery
        sink = JournalSink(rebuild_path)
        fresh = RouterJournal(sink=sink)
        router = old.replay(self.worldset_factory, journal=fresh)
        # The sink's fd survives the rename: rows keep appending to the
        # same inode, now living at the canonical path.
        os.replace(rebuild_path, self.journal_path)
        return router

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> Tuple[str, int]:
        self._listener, self.host, self.port = listener(self.host, self.port)
        self._accept = threading.Thread(
            target=self._accept_loop, name="router-daemon", daemon=True
        )
        self._accept.start()
        return self.host, self.port

    def serve_forever(self) -> None:
        """Blocking serve; returns after stop(), which it calls itself
        once a stop signal has arrived."""
        if self._listener is None:
            self.start()
        while not self._stopping.wait(0.1):
            if self._signalled:
                self.stop()

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT ask :meth:`serve_forever` to stop -- by a flag
        only, never ``stop()`` from the handler (see the worker daemon's)."""

        def _stop(signum, frame):  # pragma: no cover - signal path
            self._signalled = True

        signal.signal(signal.SIGTERM, _stop)
        signal.signal(signal.SIGINT, _stop)

    def stop(self) -> None:
        if self._stopping.is_set():
            return
        self._stopping.set()
        if self._listener is not None:
            close_listener(self._listener)
            self._accept.join(timeout=2.0)
        journal = self.router.journal
        if journal is not None and journal.sink is not None:
            journal.sink.close()

    @property
    def stopping(self) -> bool:
        return self._stopping.is_set()

    # ------------------------------------------------------------------
    # the op loop

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return
            handler = threading.Thread(
                target=self._handle_conn,
                args=(RecordStream(sock, name="router"),),
                name="router-conn",
                daemon=True,
            )
            handler.start()

    def _handle_conn(self, raw: RecordStream) -> None:
        try:
            stream = serve_handshake(raw, self._key)
        except StreamClosed:
            raw.close()
            return
        try:
            while not self._stopping.is_set():
                try:
                    msg = stream.recv(timeout=0.1)
                except StreamClosed:
                    return
                if msg is None:
                    continue
                if msg.get("kind") != "router-op":
                    continue
                try:
                    with self._lock:
                        reply = self._apply(msg)
                except ReproError as exc:
                    reply = {"ok": False, "error": str(exc)}
                except Exception as exc:  # noqa: BLE001 - shipped back
                    reply = {"ok": False, "error": repr(exc)}
                reply["kind"] = "router-reply"
                stream.send(reply)
                if msg.get("op") == "shutdown":
                    self.stop()
                    return
        finally:
            stream.close()

    def _apply(self, msg: dict) -> dict:
        op = msg.get("op")
        if op == "register":
            pid = int(msg["pid"])
            self.router.register(pid, self.worldset_factory(pid))
            return {"ok": True}
        if op == "send":
            self.router.send(
                int(msg["sender"]), int(msg["dest"]),
                msg.get("data"), msg.get("predicate"),
            )
            return {"ok": True}
        if op == "deliver-all":
            return {"ok": True, "delivered": self.router.deliver_all()}
        if op == "status":
            released = self.router.report_status(
                int(msg["pid"]), bool(msg["completed"])
            )
            return {"ok": True, "released": len(released)}
        if op == "digest":
            return {"ok": True, "digest": self.digest()}
        if op == "member-sync":
            snapshot = msg.get("snapshot")
            if isinstance(snapshot, dict):
                # Versions only move forward: a delayed push from before
                # a later one must not roll the mirror back.
                held = self.member_mirror.get("version", -1)
                if int(snapshot.get("version", 0)) >= held:
                    self.member_mirror = snapshot
            return {"ok": True, "version": self.member_mirror.get("version")}
        if op == "members":
            return {"ok": True, "snapshot": dict(self.member_mirror)}
        if op == "shutdown":
            return {"ok": True}
        return {"ok": False, "error": f"unknown router op {op!r}"}

    def digest(self) -> Dict[str, Any]:
        """The router's observable state, in comparable form.

        Two incarnations that agree on this digest agree on everything
        the paper's semantics care about: which worlds are live under
        which predicates, what statuses are known, what is undelivered.
        """
        worlds = {
            pid: sorted(
                str(world.predicate) for world in ws.worlds
            )
            for pid, ws in self.router._endpoints.items()
        }
        return {
            "worlds": worlds,
            "statuses": {
                pid: self.router.known_status(pid)
                for pid in sorted(self.router._endpoints)
                if self.router.known_status(pid) is not None
            },
            "pending": self.router.total_pending,
            "splits": self.router.total_splits,
        }

    def __repr__(self) -> str:
        return (
            f"RouterDaemon({self.host}:{self.port}, "
            f"journal={self.journal_path!r}, "
            f"recovered_rows={self.recovered_rows})"
        )


class RouterClient:
    """A framed-record client for one :class:`RouterDaemon`."""

    def __init__(
        self, host: str, port: int, timeout: float = 2.0, secret=None
    ) -> None:
        self.timeout = timeout
        self._stream = dial_handshake(
            connect(host, port, timeout=timeout, name="router-cli"),
            load_secret(secret),
            timeout=timeout,
        )

    def _call(self, op: str, **fields: Any) -> dict:
        record = {"kind": "router-op", "op": op}
        record.update(fields)
        if not self._stream.send(record):
            raise ReproError(f"router unreachable for {op!r}")
        reply = self._stream.recv(timeout=self.timeout)
        if reply is None:
            raise ReproError(f"router timed out on {op!r}")
        if not reply.get("ok"):
            raise ReproError(
                f"router rejected {op!r}: {reply.get('error')}"
            )
        return reply

    def register(self, pid: int) -> None:
        self._call("register", pid=pid)

    def send(
        self, sender: int, dest: int, data: Any, predicate: Any = None
    ) -> None:
        self._call("send", sender=sender, dest=dest, data=data,
                   predicate=predicate)

    def deliver_all(self) -> int:
        return int(self._call("deliver-all")["delivered"])

    def report_status(self, pid: int, completed: bool) -> int:
        return int(
            self._call("status", pid=pid, completed=completed)["released"]
        )

    def digest(self) -> Dict[str, Any]:
        return self._call("digest")["digest"]

    def sync_members(self, snapshot: Dict[str, Any]) -> None:
        self._call("member-sync", snapshot=snapshot)

    def members(self) -> Dict[str, Any]:
        return self._call("members")["snapshot"]

    def shutdown(self) -> None:
        try:
            self._call("shutdown")
        except ReproError:
            pass  # the daemon may die before the goodbye lands

    def close(self) -> None:
        self._stream.close()

    def __enter__(self) -> "RouterClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
