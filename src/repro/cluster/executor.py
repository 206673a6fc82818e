"""The socket transport of the home-node ladder: race arms across daemons.

:class:`ClusterExecutor` climbs the one ladder of
:class:`~repro.net.distributed.HomeLadder` -- ship every arm, supervise
leases, verdict then epoch fence then optional majority, commit the
winner's pages, cancel the losers, degrade or raise -- on real sockets
and the wall clock.  What is particular to this transport:

- the home keeps **one authenticated session per worker endpoint**,
  dialled by the first block that needs it and kept across blocks; a
  block costs a daemon one small ``ship`` record per arm on a wire that
  already exists, not a connect and a handshake;
- the parent's state is *actually shipped* (section 4.1: "in the
  distributed case we must actually copy state for a remote child"),
  but once: the page table is walked once per block into ``(store uid,
  vpns, frame ids)`` and a ``ship`` record carries that table plus the
  bytes of only those frames the session has not been shown.  Frames
  are immutable and a store never reuses a frame id, so "this session
  has been shown ``(uid, frame id)``" holds for the session's life;
- the ladder's events are records: ``hb`` and ``result`` routed by ship
  id from the session's receiver thread, and a ``drop`` for every ship
  still waiting when a connection dies; the remote child's dirty pages
  come home inside its ``result``;
- a lapsed lease retires its session, but the stale ship stays
  registered on purpose: a healed-partition zombie's late winner must
  *arrive* so the epoch fence can reject it at commit (the observable
  form of the section 3.4 at-most-once argument);
- sibling elimination is a ``cancel`` record naming the ship;
- the majority semaphore is a
  :class:`~repro.cluster.semaphore.ClusterMajoritySemaphore` round
  across the daemons' voters, one decision id per block;
- the node rotation is live: membership members lead, per-endpoint
  circuit breakers (kept across blocks) steer picks away from corpses.

The session's three invariants (:class:`_Session`), and who closes what:

1. *Ship ids are minted by the session and never reused.*  One receiver
   thread per session routes ``hb`` / ``result`` records to the running
   block by ship id.  Dismissing a ship unregisters it, so a record for
   a dismissed ship -- a zombie's winner from a block long concluded --
   finds nobody to deliver to and is only counted (``late_records``);
   a stale incarnation of the *running* block stays registered, as
   fence bait.
2. *A session names only frames it has shipped on that same
   connection.*  The shown-set lives and dies with the connection; a
   fresh dial starts empty and ships everything it names.
3. *A lapse or an unknown frame ends the session, never resyncs it.*  A
   lease that lapses *retires* its session: no new ships, closed by the
   home when its last ship is dismissed, and the next block probes the
   endpoint with a fresh dial.  A daemon handed a frame id it lacks (the
   carrying record was lost or overtaken) closes the connection; the
   home sees every ship on it drop and answers with the respawn ladder.
   A session whose shown-set would pass the daemon's frame bound, or
   that is asked for another page size, is retired the same way.  There
   is no NAK and no reset message.

Determinism caveat, stated honestly: on a real wire the *interleaving*
is the kernel's, so unlike the simulated transport the timeline here is
measured, not derived.  What stays deterministic under a seed is every
injected decision (chaos draws are keyed by frame ordinal, crash
instants by arm) and the converged *outcome*: whichever arm commits,
the parent's bytes equal a serial replay of that arm from the same
image.  The chaos suite asserts exactly that.
"""

from __future__ import annotations

import itertools
import queue
import secrets
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.cluster import daemon as _daemon
from repro.cluster.auth import AuthError, dial_handshake, load_secret
from repro.cluster.membership import MembershipTable
from repro.cluster.semaphore import ClusterMajoritySemaphore
from repro.cluster.stream import StreamClosed, connect
from repro.core.alternative import Alternative
from repro.core.result import AltResult, OverheadBreakdown
from repro.errors import ConsensusUnavailable
from repro.net.distributed import HomeLadder, _Assignment
from repro.net.lease import RaceWarden
from repro.obs import events as _ev
from repro.obs.tracer import active as _active_tracer
from repro.pages.store import PageStore
from repro.process.primitives import ProcessManager
from repro.process.process import SimProcess
from repro.resilience.breaker import CircuitBreaker

#: Consecutive failures that open an endpoint's circuit breaker.
BREAKER_THRESHOLD = 3

#: Seconds an open breaker waits before admitting a half-open probe.
BREAKER_COOLDOWN = 0.3


@dataclass(frozen=True)
class WorkerEndpoint:
    """One dialable worker daemon (possibly behind an impairment proxy)."""

    name: str
    host: str
    port: int

    @property
    def address(self) -> Tuple[str, int]:
        return self.host, self.port

    def __str__(self) -> str:
        return f"{self.name}@{self.host}:{self.port}"


class _World(NamedTuple):
    """The parent's non-zero pages, walked once per block."""

    store: PageStore
    space_size: int
    vpns: Tuple[int, ...]
    frames: Tuple[int, ...]

    @classmethod
    def of(cls, space) -> "_World":
        return cls(space.store, space.size, *space.nonzero_frames())


class _Session:
    """One authenticated stream to one endpoint, shared by every ship
    on it (the three invariants are in the module docstring).

    The main thread ships, dismisses and retires; the receiver thread
    routes.  ``_lock`` guards what both touch: the ship registry and
    the two end-of-life flags.
    """

    def __init__(self, endpoint: WorkerEndpoint, stream,
                 page_size: int) -> None:
        self.endpoint = endpoint
        self.stream = stream
        self.page_size = page_size
        self.known: Set[Tuple[int, int]] = set()
        """``(store uid, frame id)`` of every frame shipped on this
        connection; main thread only."""
        self.retired = False
        """No new ships; closed when the last one is dismissed."""
        self.lost = False
        """The receiver saw the connection end."""
        self._ships: Dict[int, Optional[tuple]] = {}
        """ship id -> ``(assignment, events)`` while the ship may still
        be heard from, ``None`` once its one result has been routed."""
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def unseen(self, world: _World) -> List[int]:
        """The frames of ``world`` this connection has not been shown."""
        uid, known = world.store.uid, self.known
        return [
            frame for frame in dict.fromkeys(world.frames)
            if (uid, frame) not in known
        ]

    def fits(self, world: _World, unseen: List[int]) -> bool:
        """A first ship always fits: a parent larger than the bound
        gets a session to itself."""
        return self.page_size == world.store.page_size and (
            not self.known
            or len(self.known) + len(unseen) <= _daemon.SESSION_FRAME_BOUND
        )

    def ship(self, assignment: _Assignment, events, header: dict,
             world: _World, unseen: List[int]) -> bool:
        """Register the ship, then send it; ``False`` when it never left."""
        with self._lock:
            if self.lost or self.retired:
                return False
            ship = assignment.ship = next(self._ids)
            self._ships[ship] = (assignment, events)
        store, uid = world.store, world.store.uid
        pages = {}
        for frame in unseen:
            data = store.read(frame)
            pages[frame] = data if isinstance(data, bytes) else bytes(data)
        # Shown the moment it is sent: if the record is lost on the way
        # the next ship naming these frames poisons the session, which
        # is the protocol's answer, not a resend.
        self.known.update((uid, frame) for frame in unseen)
        if self.stream.send(dict(
            header,
            ship=ship,
            store=uid,
            page_size=store.page_size,
            space_size=world.space_size,
            vpns=world.vpns,
            frames=world.frames,
            pages=pages,
        )):
            return True
        with self._lock:
            self._ships.pop(ship, None)
        return False

    def route(self, msg: dict) -> bool:
        """Hand one ``hb`` / ``result`` to whoever registered its ship;
        ``False`` when nobody (any longer) did."""
        ship = msg.get("ship")
        with self._lock:
            entry = self._ships.get(ship)
            if entry is None:
                return False
            if msg["kind"] == "result":
                self._ships[ship] = None  # one result per ship
        assignment, events = entry
        events.put((msg["kind"], assignment, msg))
        return True

    def lose(self) -> List[tuple]:
        """The connection ended: the ``(assignment, events)`` of every
        ship still waiting on it."""
        with self._lock:
            self.lost = True
            return [entry for entry in self._ships.values() if entry]

    def retire(self) -> bool:
        """No new ships from now on; ``False`` if already retired."""
        with self._lock:
            if self.retired:
                return False
            self.retired = True
            idle = not self._ships
        if idle:
            self.stream.close()
        return True

    def dismiss(self, ship: int, cancel: bool) -> None:
        """End one ship: optional ``cancel`` record, then deafness."""
        if cancel:
            self.stream.send({"kind": "cancel", "ship": ship})
        with self._lock:
            self._ships.pop(ship, None)
            idle = not self._ships
        if self.retired and idle:
            self.stream.close()


class _SocketWire:
    """The wall clock: the ladder's events are the records the sessions'
    receivers route onto one queue for the running block."""

    page_transport = "socket"
    sync_latency = 0.0

    def __init__(self, executor: "ClusterExecutor", parent: SimProcess,
                 block) -> None:
        self.executor = executor
        self.block = block
        self.t0 = time.monotonic()
        self.deadline = executor.race_timeout
        self.world = _World.of(parent.space)
        self.events: "queue.Queue" = queue.Queue()
        self.semaphore = None
        if executor.use_consensus:
            # One decision per block: the voters' grants are sticky, so
            # a constant id would let only the first block of a daemon's
            # life reach a majority.  Respawned arms of this block vote
            # on the same id -- still at most one commits.  The voters
            # are the live rotation, or the static list when the
            # membership table has gone fully dark.
            self.decision = f"{executor.home_id}/{next(executor._runs)}"
            voters = [e.address for e in executor._rotation()] or [
                e.address for e in executor.endpoints
            ]
            if voters:
                self.semaphore = ClusterMajoritySemaphore(
                    voters, requester=executor.home, secret=executor._key
                )

    def now(self) -> float:
        return time.monotonic() - self.t0

    def rotation(self) -> List[WorkerEndpoint]:
        return self.executor._rotation()

    def healthy(self, endpoint: WorkerEndpoint) -> bool:
        return self.executor._breaker(endpoint).allow()

    def ship(self, assignment: _Assignment, admit) -> Tuple[bool, str]:
        """Send one ``ship`` record on the endpoint's session, dialling
        (or replacing a session that cannot take the parent) first."""
        executor, world = self.executor, self.world
        endpoint, arm = assignment.node, assignment.arm
        with executor._lock:
            session = executor._sessions.get(str(endpoint))
        if session is not None:
            unseen = session.unseen(world)
            if not session.fits(world, unseen):
                executor._retire(session)
                session = None
        if session is None:
            try:
                session = executor._dial(endpoint, world, self.block)
            except (OSError, StreamClosed, AuthError) as exc:
                executor._note_endpoint_failure(endpoint, f"dial: {exc}")
                return False, str(exc)
            unseen = session.unseen(world)
        assignment.started = self.now()
        assignment.carrier = session
        assignment.who = f"{arm.name}@{endpoint.name}"
        admit(assignment)
        if not session.ship(assignment, self.events, {
            "kind": "ship",
            "alt": arm,
            "arm": assignment.index,
            "epoch": assignment.epoch,
            "seed": executor.seed,
            "name": arm.name,
            "hb_interval": executor.warden.lease_interval,
            "crash_after": assignment.crash_after,
        }, world, unseen):
            executor._forget(session)
            session.stream.close()
            executor._note_endpoint_failure(endpoint, "ship-send-failed")
            return False, "ship-send-failed"
        executor.ships += 1
        executor.pages_shipped += len(unseen)
        executor._note_endpoint_success(endpoint)
        return True, (
            f"ship {arm.name} onto {endpoint.name} "
            f"(epoch {assignment.epoch}, ship {assignment.ship})"
        )

    def next_event(self, until: float):
        timeout = max(min(until - self.now(), 0.05), 0.001)
        try:
            kind, assignment, msg = self.events.get(timeout=timeout)
        except queue.Empty:
            return None
        tracer = _active_tracer()
        if kind == "drop" and tracer.enabled:
            tracer.emit(
                _ev.CONN_DROP,
                block=self.block,
                arm=assignment.index,
                name=assignment.name,
                epoch=assignment.epoch,
                ship=assignment.ship,
                torn=bool(getattr(msg, "torn", False)),
                detail=str(msg),
            )
        return kind, assignment, msg

    def heard(self, assignment: _Assignment) -> None:
        """Any record -- even a zombie epoch's -- proves the *endpoint*
        is alive, so the breaker and membership hear about it."""
        self.executor._note_endpoint_success(assignment.node)
        if self.executor.membership is not None:
            self.executor.membership.observe_ping(assignment.name)

    def blame(self, endpoint: WorkerEndpoint, detail: str) -> None:
        self.executor._note_endpoint_failure(endpoint, detail)

    def lapsed(self, assignment: _Assignment) -> None:
        """The ship stays registered as fence bait, but its session
        takes no new ships: the next one probes with a fresh dial."""
        self.executor._retire(assignment.carrier)

    def vote(self, assignment: _Assignment) -> bool:
        if self.semaphore is None:
            raise ConsensusUnavailable("no voting endpoints")
        return self.semaphore.try_acquire(
            self.decision, f"arm-{assignment.index}-epoch-{assignment.epoch}"
        )

    def bring_home(self, assignment: _Assignment, msg: dict) -> float:
        return 0.0  # the pages rode in the result record

    def kill_at(self, resume_at: float, slot: int) -> float:
        return self.now()

    def end(self, assignment: _Assignment, cancel: bool) -> None:
        """Optional ``cancel`` record, then nobody listens for the ship."""
        assignment.carrier.dismiss(assignment.ship, cancel)

    def overhead(self, winner: _Assignment, at: float, resume_at: float,
                 ship_home: float) -> OverheadBreakdown:
        return OverheadBreakdown(
            setup=winner.started,
            runtime=winner.duration or 0.0,
            selection=max(0.0, resume_at - at),
        )


class ClusterExecutor(HomeLadder):
    """Race an alternative block across live worker daemons."""

    backend = "cluster"

    def __init__(
        self,
        endpoints: Sequence[WorkerEndpoint],
        seed: int = 0,
        warden: Optional[RaceWarden] = None,
        use_consensus: bool = False,
        race_timeout: float = 15.0,
        connect_timeout: float = 2.0,
        membership: Optional[MembershipTable] = None,
        secret=None,
    ) -> None:
        if not endpoints and membership is None:
            raise ValueError(
                "need at least one worker endpoint or a membership table"
            )
        super().__init__()
        self.endpoints = list(endpoints)
        self.seed = seed
        self.membership = membership
        """When set, the rotation is *live*: healthy/joining members from
        the table (at their current endpoints) take precedence, so a
        daemon that died and re-joined on a fresh port is dialable the
        moment its ``join`` lands -- no executor restart, no home-node
        restart."""
        self._key = load_secret(secret)
        self.breakers: Dict[str, CircuitBreaker] = {}
        """Per-endpoint circuit breakers, persisted *across* blocks: a
        corpse discovered in block N is still skipped in block N+1 until
        its cooldown admits a half-open probe."""
        # Real schedulers jitter; default lease terms are looser than the
        # simulated warden's so a busy CI box does not fake a death.
        self.warden = warden if warden is not None else RaceWarden(
            lease_interval=0.05, lease_timeout=0.6
        )
        self.use_consensus = use_consensus
        self.race_timeout = race_timeout
        self.connect_timeout = connect_timeout
        self.manager = ProcessManager(PageStore())
        self.home = "home"
        self.home_id = f"{self.home}-{secrets.token_hex(6)}"
        """Names this executor to the daemons' voters: two home nodes
        racing on the same daemons must never share a decision id."""
        self._runs = itertools.count(1)
        self._sessions: Dict[str, _Session] = {}
        """The live session per ``str(endpoint)``: dialled by the first
        block that ships there, dropped when lost or retired."""
        self._lock = threading.Lock()
        """Guards ``_sessions`` and ``late_records``, which the
        sessions' receiver threads touch too."""
        self.dials = 0
        self.ships = 0
        self.pages_shipped = 0
        self.sessions_retired = 0
        self.late_records = 0

    def close(self) -> None:
        """Hang every session up (idempotent; a later ``run`` re-dials)."""
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
        for session in sessions:
            session.stream.close()

    def __enter__(self) -> "ClusterExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def stats(self) -> Dict[str, int]:
        """Cumulative wire counters plus the live session count."""
        with self._lock:
            return {
                "dials": self.dials,
                "ships": self.ships,
                "pages_shipped": self.pages_shipped,
                "sessions": len(self._sessions),
                "sessions_retired": self.sessions_retired,
                "late_records": self.late_records,
            }

    def run(
        self,
        alternatives: Sequence[Alternative],
        parent: Optional[SimProcess] = None,
    ) -> AltResult:
        """Execute the block, one arm per daemon (round-robin beyond)."""
        return self._race(alternatives, parent)

    def _transport(self, parent: SimProcess, block) -> _SocketWire:
        return _SocketWire(self, parent, block)

    # ------------------------------------------------------------------
    # endpoint health plumbing

    def _breaker(self, endpoint: WorkerEndpoint) -> CircuitBreaker:
        key = str(endpoint)
        breaker = self.breakers.get(key)
        if breaker is None:
            breaker = CircuitBreaker(
                name=key,
                fail_threshold=BREAKER_THRESHOLD,
                cooldown=BREAKER_COOLDOWN,
            )
            self.breakers[key] = breaker
        return breaker

    def _rotation(self) -> List[WorkerEndpoint]:
        """The dialable endpoints, freshest view first.

        Membership members (healthy/joining before suspect, never dead)
        lead at their *current* endpoints; statically configured
        endpoints the table has never heard of trail as a fallback.  The
        ladder keys its tried and dead sets by ``name@host:port``, so a
        daemon that re-joined on a fresh port stays dialable in the race
        that buried its predecessor.
        """
        if self.membership is None:
            return self.endpoints
        known = set()
        rotation: List[WorkerEndpoint] = []
        for record in self.membership.alive():
            known.add(record.name)
            rotation.append(
                WorkerEndpoint(record.name, record.host, record.port)
            )
        dead_names = {
            r.name for r in self.membership.members() if r.state == "dead"
        }
        for endpoint in self.endpoints:
            if endpoint.name not in known and endpoint.name not in dead_names:
                rotation.append(endpoint)
        return rotation

    def _note_endpoint_failure(
        self, endpoint: WorkerEndpoint, detail: str
    ) -> None:
        """Direct data-path evidence: breaker plus membership suspicion."""
        self._breaker(endpoint).record_failure(detail=detail)
        if self.membership is not None:
            self.membership.observe_failure(endpoint.name, detail=detail)

    def _note_endpoint_success(self, endpoint: WorkerEndpoint) -> None:
        self._breaker(endpoint).record_success()

    # ------------------------------------------------------------------
    # sessions

    def _dial(self, endpoint: WorkerEndpoint, world: _World,
              block) -> _Session:
        """A fresh authenticated session to ``endpoint``, receiver
        running; raises what ``connect`` / ``dial_handshake`` raise."""
        stream = connect(
            endpoint.host, endpoint.port,
            timeout=self.connect_timeout,
            name=f"{self.home}->{endpoint.name}",
        )
        stream = dial_handshake(
            stream, self._key, timeout=self.connect_timeout
        )
        # Half-open sends later in the conversation (ships, cancels)
        # feed the same health plumbing as a failed dial.
        underlying = getattr(stream, "stream", stream)
        underlying.on_send_failure = (
            lambda _s, detail, ep=endpoint:
                self._note_endpoint_failure(ep, detail)
        )
        session = _Session(endpoint, stream, world.store.page_size)
        with self._lock:
            self._sessions[str(endpoint)] = session
            self.dials += 1
        tracer = _active_tracer()
        if tracer.enabled:
            tracer.emit(
                _ev.CONN_OPEN,
                block=block,
                name=endpoint.name,
                peer=f"{endpoint.host}:{endpoint.port}",
                endpoint=str(endpoint),
            )
        # A daemon thread: nobody is obliged to call close().
        threading.Thread(
            target=self._pump,
            args=(session,),
            name=f"session-{endpoint.name}",
            daemon=True,
        ).start()
        return session

    def _forget(self, session: _Session) -> None:
        """Drop ``session`` from the table if it is still the one there."""
        key = str(session.endpoint)
        with self._lock:
            if self._sessions.get(key) is session:
                del self._sessions[key]

    def _retire(self, session: _Session) -> None:
        self._forget(session)
        if session.retire():
            self.sessions_retired += 1

    def _pump(self, session: _Session) -> None:
        """One session's receiver: route its records to the running
        block by ship id, for as long as the connection lives."""
        while True:
            try:
                msg = session.stream.recv()
            except StreamClosed as exc:
                ended = exc
                break
            if msg.get("kind") in ("hb", "result") and not session.route(msg):
                with self._lock:
                    self.late_records += 1
        waiting = session.lose()
        self._forget(session)
        session.stream.close()
        for assignment, events in waiting:
            events.put(("drop", assignment, ended))

    def __repr__(self) -> str:
        counters = ", ".join(
            f"{name}={value}" for name, value in self.stats().items()
        )
        return (
            f"ClusterExecutor(endpoints={len(self.endpoints)}, "
            f"seed={self.seed}, consensus={self.use_consensus}, {counters})"
        )
