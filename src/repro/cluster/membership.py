"""Self-healing cluster membership: who is alive, and how sure are we.

PR 7 wired the cluster off a *static* endpoint list: a SIGKILLed worker
could be respawned, but the home node would never learn the new port --
membership was ambient configuration.  Hayes' argument (PAPERS.md) is
that membership should be a *specified, testable component*; this module
makes it one:

- a :class:`MembershipTable` tracks, per worker: endpoint, incarnation
  epoch, health state (``joining -> healthy -> suspect -> dead``), and
  the heartbeat history a phi-accrual failure detector needs;
- a :class:`MembershipServer` on the home node accepts authenticated
  ``join``/``ping``/``leave`` gossip frames over the ordinary
  :class:`~repro.cluster.stream.RecordStream` wire (HMAC envelopes when
  a cluster secret is configured -- a tampered or unauthenticated frame
  can *never* touch the table);
- a :class:`MembershipAnnouncer` runs inside each worker daemon: it
  announces the daemon on start, gossips periodic pings, says goodbye on
  graceful stop, and -- the whole point -- *re-announces after a respawn*,
  so a brand-new or restarted daemon re-enters the
  :class:`~repro.cluster.executor.ClusterExecutor` rotation without any
  home-node restart.

Failure detection is deliberately two-channel:

- **phi accrual** over gossip inter-arrival times: with mean interval
  ``m`` and silence ``t``, ``phi = log10(e) * t / m`` (the exponential
  simplification of Hayashibara et al.).  ``phi >= suspect_phi`` turns a
  member ``suspect``; ``phi >= dead_phi`` declares it ``dead``.  The
  thresholds are *mean-interval multiples*, so a slow CI box that slows
  everything down uniformly does not fake a death;
- **direct evidence** from the data path: every failed connect, ship,
  or half-open send is fed in via :meth:`MembershipTable.observe_failure`
  and escalates suspicion faster than silence alone -- but still through
  the same suspect-before-dead ladder, never straight to ``dead`` on a
  single error.

A ``dead`` verdict is not a tombstone: a fresh ``join`` (new endpoint or
epoch) resurrects the member as ``joining``/``healthy``.  That is the
self-healing loop.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.auth import load_secret, serve_handshake
from repro.cluster.stream import (
    RecordStream,
    StreamClosed,
    close_listener,
    connect,
    listener,
)
from repro.obs import events as _ev
from repro.obs.tracer import active as _active_tracer

#: Membership lifecycle states (``dead`` is exit-able via a fresh join).
MEMBER_STATES = ("joining", "healthy", "suspect", "dead")

#: log10(e): the exponential-distribution phi simplification constant.
_PHI_FACTOR = 0.4342944819032518

#: How many gossip inter-arrival samples the detector remembers.
_WINDOW = 32


@dataclass
class MemberRecord:
    """One worker's membership row."""

    name: str
    host: str
    port: int
    epoch: int
    """The daemon's incarnation id; a re-join with a different epoch (or
    endpoint) is a *new* incarnation, not a resurrection of the old."""

    state: str = "joining"
    joined_at: float = 0.0
    last_heard: float = 0.0
    pings: int = 0
    failures: int = 0
    """Consecutive data-path failures reported against this member."""

    intervals: List[float] = field(default_factory=list)
    """Recent gossip inter-arrival gaps (the phi detector's sample)."""

    @property
    def address(self) -> Tuple[str, int]:
        return self.host, self.port

    def mean_interval(self, floor: float) -> float:
        if not self.intervals:
            return floor
        return max(sum(self.intervals) / len(self.intervals), floor)

    def phi(self, now: float, floor: float) -> float:
        """Suspicion level: how implausible is the current silence?"""
        silence = max(0.0, now - self.last_heard)
        return _PHI_FACTOR * silence / self.mean_interval(floor)

    def __repr__(self) -> str:
        return (
            f"MemberRecord({self.name!r}, {self.host}:{self.port}, "
            f"epoch={self.epoch}, {self.state})"
        )


class MembershipTable:
    """The home node's (or a mirror's) book of cluster members."""

    def __init__(
        self,
        gossip_interval: float = 0.2,
        suspect_phi: float = 1.2,
        dead_phi: float = 3.0,
        fail_suspect: int = 3,
        fail_dead: int = 6,
        clock=time.monotonic,
        owner: str = "home",
    ) -> None:
        if not 0 < suspect_phi < dead_phi:
            raise ValueError("need 0 < suspect_phi < dead_phi")
        if not 0 < fail_suspect < fail_dead:
            raise ValueError("need 0 < fail_suspect < fail_dead")
        self.gossip_interval = gossip_interval
        self.suspect_phi = suspect_phi
        self.dead_phi = dead_phi
        self.fail_suspect = fail_suspect
        self.fail_dead = fail_dead
        self.owner = owner
        self._clock = clock
        self._lock = threading.RLock()
        self._members: Dict[str, MemberRecord] = {}
        self.version = 0
        """Bumped on every mutation; mirrors compare versions."""

        self.on_change: Optional[Callable[["MembershipTable"], None]] = None
        """Called (outside the lock) after joins/leaves/deaths -- the
        mirror-push hook."""

    # ------------------------------------------------------------------
    # observations

    def observe_join(
        self, name: str, host: str, port: int, epoch: int,
        now: Optional[float] = None,
    ) -> MemberRecord:
        """An authenticated ``join`` announcement (new or re-join)."""
        at = self._clock() if now is None else now
        with self._lock:
            prior = self._members.get(name)
            rejoin = prior is not None
            record = MemberRecord(
                name=name, host=host, port=port, epoch=epoch,
                state="healthy", joined_at=at, last_heard=at,
            )
            self._members[name] = record
            self.version += 1
        tracer = _active_tracer()
        if tracer.enabled:
            tracer.emit(
                _ev.MEMBER_JOIN,
                name=name,
                peer=f"{host}:{port}",
                epoch=epoch,
                rejoin=rejoin,
                prior_state=prior.state if prior is not None else "",
            )
        self._changed()
        return record

    def observe_ping(
        self, name: str, epoch: Optional[int] = None,
        now: Optional[float] = None,
    ) -> bool:
        """A gossip heartbeat; ``False`` when the member is unknown (the
        announcer should re-join) or the epoch is stale."""
        at = self._clock() if now is None else now
        with self._lock:
            record = self._members.get(name)
            if record is None or record.state == "dead":
                return False
            if epoch is not None and epoch != record.epoch:
                return False  # a zombie incarnation's gossip: ignored
            gap = at - record.last_heard
            if gap > 0:
                record.intervals.append(gap)
                del record.intervals[:-_WINDOW]
            record.last_heard = at
            record.pings += 1
            record.failures = 0
            if record.state in ("joining", "suspect"):
                record.state = "healthy"
                self.version += 1
        return True

    def observe_leave(
        self, name: str, now: Optional[float] = None
    ) -> None:
        """A graceful goodbye: straight to ``dead``, no suspicion lap."""
        at = self._clock() if now is None else now
        self._declare_dead(name, at, reason="leave")

    def observe_failure(
        self, name: str, detail: str = "", now: Optional[float] = None
    ) -> str:
        """Data-path evidence (failed connect/ship/half-open send).

        Returns the member's state after the evidence lands.  Escalates
        ``healthy -> suspect`` after ``fail_suspect`` consecutive
        failures and ``suspect -> dead`` after ``fail_dead`` -- the
        retry-with-backoff ladder, never a one-strike death.
        """
        at = self._clock() if now is None else now
        with self._lock:
            record = self._members.get(name)
            if record is None:
                return "unknown"
            if record.state == "dead":
                return "dead"
            record.failures += 1
            failures = record.failures
            state = record.state
        if failures >= self.fail_dead:
            self._declare_dead(name, at, reason=f"failures({detail})")
            return "dead"
        if failures >= self.fail_suspect and state == "healthy":
            self._suspect(name, at, reason=f"failures({detail})")
            return "suspect"
        return state

    # ------------------------------------------------------------------
    # the sweep (phi accrual)

    def sweep(self, now: Optional[float] = None) -> List[Tuple[str, str, str]]:
        """Apply phi-accrual transitions; returns (name, old, new) rows."""
        at = self._clock() if now is None else now
        transitions: List[Tuple[str, str, str]] = []
        with self._lock:
            candidates = [
                r for r in self._members.values() if r.state != "dead"
            ]
        for record in candidates:
            phi = record.phi(at, self.gossip_interval)
            if phi >= self.dead_phi:
                if record.state != "dead":
                    old = record.state
                    self._declare_dead(
                        record.name, at, reason=f"phi={phi:.2f}"
                    )
                    transitions.append((record.name, old, "dead"))
            elif phi >= self.suspect_phi:
                if record.state == "healthy":
                    self._suspect(record.name, at, reason=f"phi={phi:.2f}")
                    transitions.append((record.name, "healthy", "suspect"))
        return transitions

    def _suspect(self, name: str, at: float, reason: str) -> None:
        with self._lock:
            record = self._members.get(name)
            if record is None or record.state in ("suspect", "dead"):
                return
            record.state = "suspect"
            self.version += 1
        tracer = _active_tracer()
        if tracer.enabled:
            tracer.emit(
                _ev.MEMBER_SUSPECT,
                name=name,
                reason=reason,
                failures=record.failures,
            )

    def _declare_dead(self, name: str, at: float, reason: str) -> None:
        with self._lock:
            record = self._members.get(name)
            if record is None or record.state == "dead":
                return
            record.state = "dead"
            self.version += 1
        tracer = _active_tracer()
        if tracer.enabled:
            tracer.emit(
                _ev.MEMBER_DEAD,
                name=name,
                peer=f"{record.host}:{record.port}",
                epoch=record.epoch,
                reason=reason,
            )
        self._changed()

    def _changed(self) -> None:
        hook = self.on_change
        if hook is not None:
            try:
                hook(self)
            except Exception:  # pragma: no cover - mirror is best-effort
                pass

    # ------------------------------------------------------------------
    # queries

    def get(self, name: str) -> Optional[MemberRecord]:
        with self._lock:
            return self._members.get(name)

    def members(self) -> List[MemberRecord]:
        with self._lock:
            return list(self._members.values())

    def alive(self) -> List[MemberRecord]:
        """Members worth shipping to, preference-ordered: healthy and
        joining first, suspects as a last resort, the dead never."""
        rank = {"healthy": 0, "joining": 1, "suspect": 2}
        with self._lock:
            rows = [r for r in self._members.values() if r.state != "dead"]
        return sorted(rows, key=lambda r: (rank[r.state], r.name))

    def snapshot(self) -> dict:
        """A picklable mirror of the table (what the router holds)."""
        with self._lock:
            return {
                "owner": self.owner,
                "version": self.version,
                "members": [
                    {
                        "name": r.name,
                        "host": r.host,
                        "port": r.port,
                        "epoch": r.epoch,
                        "state": r.state,
                        "pings": r.pings,
                    }
                    for r in self._members.values()
                ],
            }

    def load_snapshot(self, snap: dict) -> None:
        """Adopt a pushed snapshot wholesale (mirror semantics: the
        owner's view wins; a mirror never argues)."""
        if not isinstance(snap, dict):
            return
        rows = snap.get("members")
        if not isinstance(rows, list):
            return
        at = self._clock()
        with self._lock:
            self._members = {
                row["name"]: MemberRecord(
                    name=row["name"],
                    host=row["host"],
                    port=row["port"],
                    epoch=int(row["epoch"]),
                    state=row["state"],
                    joined_at=at,
                    last_heard=at,
                    pings=int(row.get("pings", 0)),
                )
                for row in rows
                if isinstance(row, dict) and row.get("state") in MEMBER_STATES
            }
            self.version = int(snap.get("version", self.version + 1))

    def __repr__(self) -> str:
        states = {}
        for record in self.members():
            states[record.state] = states.get(record.state, 0) + 1
        return f"MembershipTable(v{self.version}, {states})"


# ----------------------------------------------------------------------
# the home node's gossip listener

class MembershipServer:
    """Accepts authenticated join/ping/leave gossip on a TCP port."""

    def __init__(
        self,
        table: Optional[MembershipTable] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        secret=None,
        mirror: Optional[Tuple[str, int]] = None,
        sweep_interval: float = 0.1,
    ) -> None:
        self.table = table if table is not None else MembershipTable()
        self.host = host
        self.port = port
        self._key = load_secret(secret)
        self.mirror = mirror
        self.sweep_interval = sweep_interval
        self._listener = None
        self._stopping = threading.Event()
        self._loops: List[threading.Thread] = []
        self._threads: List[threading.Thread] = []
        self.frames_rejected = 0
        self.joins = 0
        if mirror is not None:
            self.table.on_change = self._push_mirror

    @property
    def address(self) -> Tuple[str, int]:
        return self.host, self.port

    def start(self) -> Tuple[str, int]:
        self._listener, self.host, self.port = listener(self.host, self.port)
        for target, name in (
            (self._accept_loop, "membership-accept"),
            (self._sweep_loop, "membership-sweep"),
        ):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._loops.append(thread)
        return self.host, self.port

    def stop(self) -> None:
        if self._stopping.is_set():
            return
        self._stopping.set()
        if self._listener is not None:
            close_listener(self._listener)
            # The accept and sweep loops; handlers see the flag within
            # their receive timeout.
            for thread in self._loops:
                thread.join(timeout=2.0)

    def __enter__(self) -> "MembershipServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return
            handler = threading.Thread(
                target=self._handle_conn,
                args=(RecordStream(sock, name="membership"),),
                name="membership-conn",
                daemon=True,
            )
            handler.start()
            # Reap finished handlers as we go: announcer redial churn
            # would otherwise grow this list for the life of the home
            # node.
            self._threads = [t for t in self._threads if t.is_alive()]
            self._threads.append(handler)

    def _sweep_loop(self) -> None:
        while not self._stopping.wait(self.sweep_interval):
            self.table.sweep()

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
                    # Includes auth rejections: the wrapper already
                    # emitted the auth-reject event and closed.
                    self.frames_rejected += getattr(stream, "rejects", 0)
                    return
                if msg is None:
                    continue
                self._apply(stream, msg)
        finally:
            stream.close()

    def _apply(self, stream, msg: dict) -> None:
        kind = msg.get("kind")
        if kind == "join":
            name = msg.get("node")
            host, port = msg.get("host"), msg.get("port")
            epoch = msg.get("epoch")
            if not (isinstance(name, str) and isinstance(host, str)
                    and isinstance(port, int) and isinstance(epoch, int)):
                return  # a malformed (but authentic) frame changes nothing
            self.table.observe_join(name, host, port, epoch)
            self.joins += 1
            stream.send({"kind": "join-ack", "node": name})
        elif kind == "ping":
            name = msg.get("node")
            if isinstance(name, str):
                known = self.table.observe_ping(name, msg.get("epoch"))
                if not known:
                    # The member should re-announce (e.g. the home node
                    # restarted and lost the table).
                    stream.send({"kind": "rejoin-please", "node": name})
        elif kind == "leave":
            name = msg.get("node")
            if isinstance(name, str):
                self.table.observe_leave(name)
        # unknown kinds ignored (forward compatibility)

    def _push_mirror(self, table: MembershipTable) -> None:
        """Best-effort snapshot push to the mirroring router daemon."""
        if self.mirror is None:
            return
        try:
            from repro.cluster.router_service import RouterClient

            with RouterClient(
                self.mirror[0], self.mirror[1], timeout=1.0
            ) as client:
                client.sync_members(table.snapshot())
        except Exception:  # noqa: BLE001 - the mirror is advisory
            pass

    def __repr__(self) -> str:
        return (
            f"MembershipServer({self.host}:{self.port}, "
            f"authed={self._key is not None}, {self.table!r})"
        )


# ----------------------------------------------------------------------
# the worker side: announce, gossip, re-announce

class MembershipAnnouncer:
    """One daemon's gossip thread: join on start, ping forever, leave
    on graceful stop, re-dial (and re-join) whenever the home vanishes."""

    def __init__(
        self,
        node_id: str,
        advertise: Tuple[str, int],
        join_addr: Tuple[str, int],
        epoch: int,
        secret=None,
        interval: float = 0.2,
    ) -> None:
        self.node_id = node_id
        self.advertise = advertise
        self.join_addr = join_addr
        self.epoch = epoch
        self.interval = interval
        self._key = load_secret(secret)
        self._stopping = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.joins_sent = 0
        self.pings_sent = 0

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._loop, name=f"announce-{self.node_id}", daemon=True
        )
        self._thread.start()

    def stop(self, leave: bool = True) -> None:
        """Stop gossiping; ``leave=True`` says a polite goodbye first.
        An abrupt stop (``leave=False``) models a crash: the home node
        must *detect* the death instead of being told."""
        self._stopping.set()
        if leave:
            self._send_leave()
        if self._thread is not None:
            self._thread.join(timeout=1.0)

    # ------------------------------------------------------------------

    def _dial(self):
        from repro.cluster.auth import dial_handshake

        raw = connect(
            self.join_addr[0], self.join_addr[1],
            timeout=1.0, name=f"gossip-{self.node_id}",
        )
        return dial_handshake(raw, self._key)

    def _loop(self) -> None:
        backoff = 0.05
        while not self._stopping.is_set():
            try:
                stream = self._dial()
            except Exception:  # noqa: BLE001 - redial with backoff
                if self._stopping.wait(backoff):
                    return
                backoff = min(backoff * 2, 1.0)
                continue
            backoff = 0.05
            try:
                self._converse(stream)
            finally:
                stream.close()

    def _converse(self, stream) -> None:
        host, port = self.advertise
        if not stream.send({
            "kind": "join",
            "node": self.node_id,
            "host": host,
            "port": port,
            "epoch": self.epoch,
        }):
            return
        self.joins_sent += 1
        # Await the ack (bounded); a silent home is a redial.
        try:
            ack = stream.recv(timeout=1.0)
        except StreamClosed:
            return
        if ack is None or ack.get("kind") != "join-ack":
            return
        while not self._stopping.wait(self.interval):
            if not stream.send({
                "kind": "ping",
                "node": self.node_id,
                "epoch": self.epoch,
            }):
                return  # half-open: redial and re-join
            self.pings_sent += 1
            try:
                note = stream.recv(timeout=0.001)
            except StreamClosed:
                return
            if note is not None and note.get("kind") == "rejoin-please":
                return  # drop back to the dial loop, which re-joins

    def _send_leave(self) -> None:
        try:
            stream = self._dial()
        except Exception:  # noqa: BLE001 - goodbye is best-effort
            return
        try:
            stream.send({"kind": "leave", "node": self.node_id})
        finally:
            stream.close()

    def __repr__(self) -> str:
        return (
            f"MembershipAnnouncer({self.node_id!r}, epoch={self.epoch}, "
            f"joins={self.joins_sent}, pings={self.pings_sent})"
        )
