"""The home-node ladder: one distributed race, two transports.

Sections 3.4, 4.1 and 5.1 describe one protocol.  The parent image is
shipped to each remote child; the first child whose guard holds wins an
at-most-once (optionally majority) semaphore; its dirty pages come home
(§4.1: "there is more copying to be performed during synchronization,
as the changed state is updated in the parent's storage"), and its
siblings get termination messages, "naturally asynchronous".
:class:`HomeLadder` writes that protocol once, as the steps a home node
climbs:

1. ship every arm, round-robin over the workers;
2. supervise: an ``hb`` renews a lease; a lapse or a ``drop`` expires
   it, fences that incarnation, and respawns the arm on the next healthy
   node while ``max_respawns`` lasts;
3. on each ``result``: the arm's verdict, then the epoch fence, then the
   optional majority semaphore;
4. commit the winner's dirty pages;
5. cancel the losers and settle every incarnation;
6. if nothing can commit: degrade to a serial replay at home, or raise.

One record, :class:`_Assignment`, is an incarnation's whole lease: its
epoch, deadline, renewals and lifecycle state.  The ladder keeps each
arm's epoch counter for its life, and each race keeps the incarnations
it granted and settles them once (``HomeLadder.leases`` reads the last
race's).  That record guarantees what both transports rely on: one
settle per incarnation, and a fenced epoch never commits.

The ladder consumes time-stamped events from a *transport*, and the two
transports are two interleaving strategies for that one process
(Bergstra-Middelburg's strategic interleaving, PAPERS.md):

- :class:`_SimulatedWire` (here, behind :class:`DistributedAltExecutor`)
  derives every event from :func:`~repro.net.rfork.remote_fork`, the
  :class:`~repro.sim.costs.CostModel` and the faulty
  :meth:`~repro.net.network.Network.transmit` / ``transfer``, and hands
  them over in virtual-time order.  It prices setup (checkpoint, ship,
  restore), selection (sync message, state return) and kills from the
  model, so a run is deterministic to the last float;
- the socket transport (:mod:`repro.cluster.executor`, behind
  ``ClusterExecutor``) hears the same events from worker daemons over
  TCP sessions on the wall clock.

Without a :class:`~repro.net.lease.RaceWarden` the simulated race is
unsupervised: no epochs, no deadlines, no reroute, no respawn, no
degrade -- an arm lives and dies with its round-robin node.

Every random decision is drawn from a *keyed* RNG --
``Random(f"{seed}:{purpose}:{arm}")``, the convention of the
:class:`~repro.resilience.FaultInjector` -- so a run replays
bit-identically under a seed whatever the arm order or respawn count.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.check.runtime import checkpoint as _checkpoint
from repro.consensus.majority import MajorityConsensusSemaphore
from repro.consensus.node import ConsensusNode
from repro.core.alternative import AltContext, Alternative
from repro.core.result import AltOutcome, AltResult, OverheadBreakdown
from repro.core.selection import OrderedPolicy
from repro.core.sequential import SequentialExecutor, _run_body
from repro.errors import AltBlockFailure, ConsensusUnavailable, NetworkError
from repro.net.lease import RaceWarden
from repro.net.network import Network
from repro.net.rfork import remote_fork
from repro.obs import events as _ev
from repro.obs.tracer import active as _active_tracer
from repro.process.process import SimProcess
from repro.resilience.injector import active as _active_injector, suppressed

#: Size of one heartbeat message on the wire (control traffic).
HEARTBEAT_BYTES = 64

#: The verdict the epoch fence gives a fenced incarnation's result.
_FENCED = "stale-epoch-fence"


@dataclass(eq=False)
class _Assignment:
    """One incarnation of one arm shipped to one worker: the race's only
    record of it, lease and all.

    ``state`` is ``active`` until it turns, once, ``committed`` (it
    won), ``eliminated`` (a sibling won, or the race gave up) or
    ``expired`` (its lease lapsed, or its connection or its ship
    failed); a terminal state is sticky.  An expired incarnation is
    fenced: a zombie's late result still arrives, and cannot commit.
    """

    index: int
    arm: Alternative
    node: object
    """What the transport ships to: a worker name or an endpoint."""

    name: str
    """The worker's name, for the timeline."""

    who: str = ""
    """Who the timeline says aborted: a remote pid or ``arm@worker``."""

    started: float = 0.0
    """When the body began (simulated) or the ship left home (wall)."""

    epoch: int = 0
    """The arm's incarnation epoch (0 when unsupervised)."""

    deadline: Optional[float] = None
    """When the lease lapses absent a renewal (``None`` when
    unsupervised).  The same deadline governs both sides: the warden
    declares the worker dead at it, and an orphaned worker
    self-terminates at it -- neither needs the other to agree."""

    renewals: int = 0
    state: str = "active"
    ended_at: Optional[float] = None
    heard: bool = False
    """Its result arrived (a zombie's too)."""

    crash_after: Optional[float] = None
    """The injected ``worker-crash`` instant, relative to ``started``."""

    ship: int = 0
    """The id a socket session minted for this shipment (0 simulated)."""

    carrier: object = None
    """The transport's handle: the shipping session, or the instant the
    simulated child stops (completes or crashes)."""

    duration: Optional[float] = None
    pages: int = 0
    pid: Optional[int] = None

    def renew(self, at: float, timeout: float, block=None) -> None:
        """A heartbeat of this epoch arrived at ``at``: the lease runs
        to ``at + timeout``, and a reordered old beat never shortens it."""
        _checkpoint("lease-renew", f"{self.name}:{self.index}")
        self._require_active("renew")
        self.deadline = max(self.deadline, at + timeout)
        self.renewals += 1
        tracer = _active_tracer()
        if tracer.enabled:
            tracer.emit(
                _ev.LEASE_RENEW,
                block=block,
                arm=self.index,
                name=self.name,
                epoch=self.epoch,
                at=at,
                deadline=self.deadline,
            )

    def expire(self, at: float, block=None) -> None:
        """The warden gave up on this incarnation: the grant is void."""
        self.settle("expired", at)
        tracer = _active_tracer()
        if self.deadline is not None and tracer.enabled:
            tracer.emit(
                _ev.LEASE_EXPIRE,
                block=block,
                arm=self.index,
                name=self.name,
                epoch=self.epoch,
                at=at,
                renewals=self.renewals,
            )

    def settle(self, state: str, at: float) -> None:
        """Turn terminal: ``committed``, ``eliminated`` or ``expired``."""
        self._require_active(f"turn {state}")
        self.state, self.ended_at = state, at

    def _require_active(self, verb: str) -> None:
        if self.state != "active":
            raise ValueError(
                f"lease of arm {self.index} epoch {self.epoch} is already "
                f"{self.state}; cannot {verb}"
            )


class HomeLadder:
    """The home node's race, written once; subclasses bring a transport.

    A subclass sets ``backend``, ``seed``, ``warden``, ``use_consensus``
    and ``manager`` (the home node's kernel), and implements
    ``_transport(parent, block)`` returning a per-block transport that
    answers:

    - ``now()``, ``deadline``: the block's clock and its race timeout;
    - ``rotation()``, ``healthy(node)``: where arms may go;
    - ``ship(assignment, admit)``: ``(True, timeline label)`` or
      ``(False, why)``; it calls ``admit`` (lease and crash draw) once
      the arm has somewhere to run;
    - ``next_event(until)``: the next ``(kind, assignment, msg)`` --
      ``hb``, ``result`` or ``drop`` -- no later than ``until``, or
      ``None`` with the clock at ``until``;
    - ``heard``, ``blame``, ``lapsed``: endpoint evidence and a lapse;
    - ``vote``, ``sync_latency``, ``bring_home``: the semaphore and the
      pages' trip home (which may raise :class:`NetworkError`);
    - ``kill_at``, ``end``, ``overhead``, ``page_transport``: how losers
      are told and how a commit is priced.
    """

    backend = ""

    def __init__(self) -> None:
        self._epochs: Dict[int, int] = {}
        """Each arm's last granted epoch, kept for the ladder's life: an
        arm's epoch never repeats, across races too."""
        self._book: List[_Assignment] = []

    @property
    def leases(self) -> Tuple[_Assignment, ...]:
        """The incarnations the last race granted, in grant order; they
        stay readable until the next race grants one."""
        return tuple(self._book)

    @property
    def all_settled(self) -> bool:
        """True when every incarnation of the last race is terminal."""
        return all(lease.state != "active" for lease in self._book)

    def new_parent(self, space_size: int = 64 * 1024) -> SimProcess:
        """A fresh parent world on the home node."""
        return self.manager.create_initial(space_size=space_size)

    def _race(self, alternatives: Sequence[Alternative],
              parent: Optional[SimProcess]) -> AltResult:
        if not alternatives:
            raise ValueError("an alternative block needs at least one arm")
        parent = parent if parent is not None else self.new_parent()
        tracer = _active_tracer()
        block = tracer.next_block() if tracer.enabled else None
        if tracer.enabled:
            tracer.emit(
                _ev.BLOCK_BEGIN,
                block=block,
                name=f"alt-block#{block} [{self.backend}]",
                backend=self.backend,
                arms=len(alternatives),
                supervised=self.warden is not None,
            )
        race = _Race(self, self._transport(parent, block), alternatives,
                     parent, block)
        try:
            result = race.run()
        except AltBlockFailure as exc:
            if tracer.enabled:
                tracer.emit(
                    _ev.BLOCK_END,
                    block=block,
                    outcome=type(exc).__name__,
                    elapsed_seconds=float(getattr(exc, "elapsed", 0.0) or 0.0),
                )
            raise
        if tracer.enabled:
            tracer.emit(
                _ev.BLOCK_END,
                block=block,
                outcome="won",
                winner=result.winner.name,
                elapsed_seconds=result.elapsed,
            )
        return result

    def _commit_check(self, assignment: _Assignment,
                      msg: dict) -> Tuple[bool, str]:
        """The arm's own verdict, then the epoch fence: only the arm's
        current, active incarnation, echoing its own epoch, may commit.
        An arm gets a fresh incarnation only once its last one expired,
        so an active incarnation is its arm's current one."""
        if not msg.get("ok"):
            return False, "arm-failed"
        if (assignment.state != "active"
                or msg.get("epoch") != assignment.epoch):
            return False, _FENCED
        return True, ""


class _Race:
    """One block on the ladder: the steps, and the state they share."""

    def __init__(self, ladder: HomeLadder, wire, alternatives, parent,
                 block) -> None:
        self.ladder = ladder
        self.wire = wire
        self.warden = ladder.warden
        self.alternatives = alternatives
        self.parent = parent
        self.block = block
        self.tracer = _active_tracer()
        self.timeline: List[Tuple[float, str]] = [(0.0, "block entered")]
        self.outcomes = [
            AltOutcome(index=i, name=a.name, status="untried")
            for i, a in enumerate(alternatives)
        ]
        self.granted: List[_Assignment] = []
        """Every incarnation admitted, in grant order: the race's book,
        settled once at its end."""
        self.shipped: List[_Assignment] = []
        """The granted incarnations that reached their worker."""
        self.dead: Set[str] = set()
        self.starved = False

    def live(self) -> List[_Assignment]:
        """Shipped incarnations still active and not yet heard from:
        those whose lease (or verdict) still governs the race."""
        return [a for a in self.shipped if a.state == "active" and not a.heard]

    def _lapsed_nodes(self, index: int) -> List[str]:
        """The nodes arm ``index``'s lapsed incarnations ran on: one per
        respawn it asked for."""
        return [str(a.node) for a in self.shipped
                if a.index == index and a.state == "expired"]

    def run(self) -> AltResult:
        for index, arm in enumerate(self.alternatives):
            self._ship(index, arm)
        wire = self.wire
        now = wire.now()
        live = self.live()
        while live and now < wire.deadline:
            until = min(
                [a.deadline for a in live if a.deadline is not None]
                + [wire.deadline]
            )
            event = wire.next_event(until)
            now = wire.now()
            if event is not None:
                kind, assignment, msg = event
                if kind == "hb":
                    wire.heard(assignment)
                    if (assignment.deadline is not None
                            and assignment.state == "active"
                            and msg.get("epoch") == assignment.epoch):
                        assignment.renew(now, self.warden.lease_timeout,
                                         self.block)
                elif kind == "result":
                    ship_home = self._verdict(assignment, msg, now)
                    if ship_home is not None:
                        return self._commit(assignment, msg, now, ship_home)
                else:
                    self._dropped(assignment, msg, now)
            self._sweep(now)
            live = self.live()
        return self._give_up(wire.now())

    # -- 1. ship ---------------------------------------------------------

    def _ship(self, index: int, arm: Alternative) -> Optional[_Assignment]:
        """Ship one incarnation of ``arm``, rotating past failed nodes;
        the incarnation that reached a worker, or ``None``."""
        while True:
            node = self._pick_node(index)
            if node is None:
                self.outcomes[index].status = "failed"
                self.outcomes[index].detail = "no reachable worker node"
                self.timeline.append(
                    (self.wire.now(), f"{arm.name}: no reachable worker node")
                )
                return None
            assignment = _Assignment(
                index, arm, node, getattr(node, "name", node)
            )
            shipped, text = self.wire.ship(assignment, self._admit)
            if not shipped:
                # Admitted or not, it never ran; an admitted one keeps
                # its burnt epoch in the book, expired.
                assignment.expire(self.wire.now(), self.block)
                self.dead.add(str(node))
                self.timeline.append((
                    self.wire.now(),
                    f"{arm.name}: ship to {assignment.name} failed ({text})",
                ))
                continue
            outcome = self.outcomes[index]
            outcome.started_at = assignment.started
            if assignment.pid is not None:
                outcome.pid = assignment.pid
                outcome.duration = assignment.duration
                outcome.pages_written = assignment.pages
            self.timeline.append((assignment.started, text))
            self.shipped.append(assignment)
            return assignment

    def _admit(self, assignment: _Assignment) -> None:
        """Book the incarnation; under a warden, grant it the arm's next
        epoch and a lease from ``started``, and draw its crash.  The
        transport calls this once the arm has somewhere to run."""
        self.granted.append(assignment)
        self.ladder._book = self.granted
        if self.warden is None:
            return
        epochs, index = self.ladder._epochs, assignment.index
        assignment.epoch = epochs[index] = epochs.get(index, 0) + 1
        assignment.deadline = assignment.started + self.warden.lease_timeout
        injector = _active_injector()
        rule = (
            injector.draw("worker-crash", assignment.index)
            if injector is not None else None
        )
        assignment.crash_after = None if rule is None else rule.duration

    def _pick_node(self, index: int):
        """Round-robin home, else the next untried healthy node; with
        every candidate unhealthy, probe one rather than give up.  An
        unsupervised arm only ever tries its round-robin home."""
        everyone = self.wire.rotation()
        if not everyone:
            return None
        start = index % len(everyone)
        rotation = everyone[start:] + everyone[:start]
        if self.warden is None:
            rotation = rotation[:1]
        tried = self._lapsed_nodes(index)
        candidates = [
            node for node in rotation
            if str(node) not in tried and str(node) not in self.dead
        ]
        for node in candidates:
            if self.wire.healthy(node):
                return node
        return candidates[0] if candidates else None

    # -- 2. supervise ----------------------------------------------------

    def _sweep(self, now: float) -> None:
        """Silence past a lease's deadline is death."""
        for assignment in self.live():
            if assignment.deadline is not None and now >= assignment.deadline:
                self.timeline.append((
                    now,
                    f"lease of {assignment.arm.name}@{assignment.name} "
                    f"expired (epoch {assignment.epoch})",
                ))
                assignment.expire(now, self.block)
                self.wire.lapsed(assignment)
                self._respawn(assignment, now)

    def _dropped(self, assignment: _Assignment, exc, now: float) -> None:
        """The connection under a running ship died."""
        if assignment.state != "active" or assignment.heard:
            return
        torn = "torn" if getattr(exc, "torn", False) else "closed"
        self.timeline.append(
            (now, f"connection to {assignment.name} dropped ({torn})")
        )
        assignment.expire(now, self.block)
        self.dead.add(str(assignment.node))
        self.wire.blame(assignment.node, f"conn-drop: {exc}")
        self._respawn(assignment, now)

    def _respawn(self, lapsed: _Assignment, now: float) -> None:
        """A fresh incarnation on the next node, if respawns remain."""
        index = lapsed.index
        if not self.warden.respawns_left(len(self._lapsed_nodes(index))):
            self.outcomes[index].status = "failed"
            self.outcomes[index].detail = (
                f"lease expired (epoch {lapsed.epoch}); respawns exhausted"
            )
            return
        fresh = self._ship(index, lapsed.arm)
        if fresh is not None and self.tracer.enabled:
            self.tracer.emit(
                _ev.WORKER_RESPAWN,
                block=self.block,
                arm=index,
                name=lapsed.arm.name,
                dead_worker=lapsed.name,
                dead_epoch=lapsed.epoch,
                dead_ship=lapsed.ship,
                epoch=fresh.epoch,
                at=now,
            )

    # -- 3. verdict, fence, semaphore --------------------------------------

    def _verdict(self, assignment: _Assignment, msg: dict,
                 now: float) -> Optional[float]:
        """How long the pages take to come home when ``assignment`` may
        commit; ``None`` (and the reason recorded) when it may not."""
        assignment.heard = True
        assignment.duration = float(msg.get("duration") or 0.0)
        self.wire.heard(assignment)
        ok, reason = self.ladder._commit_check(assignment, msg)
        if ok and self.ladder.use_consensus:
            ok, reason = self._vote(assignment, now)
        if ok:
            try:
                return self.wire.bring_home(assignment, msg)
            except NetworkError as exc:
                ok, reason = False, f"unreachable at winner-commit: {exc}"
        self._reject(assignment, msg, reason, now)
        return None

    def _vote(self, assignment: _Assignment, now: float) -> Tuple[bool, str]:
        try:
            granted = self.wire.vote(assignment)
        except ConsensusUnavailable as exc:
            self.timeline.append((now, f"consensus unavailable: {exc}"))
            self.starved = True
            return False, "consensus-unavailable"
        return (True, "") if granted else (False, "consensus-denied")

    def _reject(self, assignment: _Assignment, msg: dict, reason: str,
                now: float) -> None:
        name = assignment.arm.name
        outcome = self.outcomes[assignment.index]
        if reason == _FENCED:
            self.timeline.append((
                now,
                f"zombie {name}@{assignment.name} fenced at winner-commit "
                f"(epoch {assignment.epoch})",
            ))
            self._eliminated(assignment, "stale-epoch-fence",
                             epoch=assignment.epoch)
        elif reason.startswith("consensus-"):
            self.timeline.append(
                (now, f"{name} reached sync but was not granted ({reason})")
            )
        elif assignment.state == "active":
            outcome.status = "failed"
            outcome.finished_at = now
            outcome.cpu_consumed = assignment.duration
            if reason == "arm-failed":
                outcome.detail = msg.get("detail") or ""
                self.timeline.append(
                    (now, f"{assignment.who} aborts: {outcome.detail}")
                )
            else:
                # A partition cut the winner off before its pages came
                # home: the grant dies with it, the next finisher may win.
                outcome.detail = reason
                self.timeline.append((
                    now + self.wire.sync_latency,
                    f"{name} granted sync but partitioned; grant revoked",
                ))
                self._eliminated(assignment, "partitioned-at-commit")

    def _eliminated(self, assignment: _Assignment, reason: str,
                    **attrs) -> None:
        if self.tracer.enabled:
            self.tracer.emit(
                _ev.LOSER_ELIMINATE,
                block=self.block,
                arm=assignment.index,
                name=assignment.arm.name,
                reason=reason,
                ship=assignment.ship or None,
                **attrs,
            )

    # -- 4. commit, 5. cancel and settle -----------------------------------

    def _commit(self, winner: _Assignment, msg: dict, at: float,
                ship_home: float) -> AltResult:
        wire = self.wire
        granted = at + wire.sync_latency
        name = winner.arm.name
        self.timeline.append((at, f"{name} requests sync"))
        self.timeline.append((granted, "sync granted at home"))
        self._apply_pages(self.parent, msg.get("dirty_pages") or {})
        resume_at = max(granted + ship_home, wire.now())
        self.timeline.append((resume_at, "parent resumes (state shipped home)"))
        pages = int(msg.get("pages_written") or 0)
        if self.tracer.enabled:
            self.tracer.emit(
                _ev.WINNER_COMMIT,
                block=self.block,
                arm=winner.index,
                name=name,
                pages=pages,
                sim_time=at,
                epoch=winner.epoch or None,
                ship=winner.ship or None,
            )
        outcome = self.outcomes[winner.index]
        outcome.status = "won"
        outcome.value = msg.get("value")
        outcome.finished_at = at
        outcome.duration = outcome.cpu_consumed = winner.duration
        outcome.pages_written = pages
        wire.end(winner, cancel=False)

        # An arm is respawned only once its last incarnation expired, so
        # the active incarnations are each arm's latest.
        losers = sorted(
            (a for a in self.shipped
             if a is not winner and a.state == "active"),
            key=lambda a: a.index,
        )
        wasted = 0.0
        for slot, loser in enumerate(losers):
            kill_at = wire.kill_at(resume_at, slot)
            loser_outcome = self.outcomes[loser.index]
            if loser_outcome.status == "untried":
                loser_outcome.status = "eliminated"
                loser_outcome.finished_at = (
                    kill_at if loser.duration is None
                    else min(loser.started + loser.duration, kill_at)
                )
                self.timeline.append(
                    (kill_at, f"kill message to {loser.name}")
                )
                self._eliminated(loser, "sibling-won")
            loser_outcome.cpu_consumed = _consumed(loser, kill_at)
            wasted += loser_outcome.cpu_consumed
        for assignment in self.shipped:
            if assignment.state == "expired":
                # A zombie or a lapsed incarnation burned until now.
                wasted += _consumed(assignment, resume_at)
            if assignment is not winner:
                wire.end(assignment, cancel=not assignment.heard)
        self._settle(resume_at, winner)
        return AltResult(
            value=msg.get("value"),
            winner=outcome,
            outcomes=self.outcomes,
            elapsed=resume_at,
            overhead=wire.overhead(winner, at, resume_at, ship_home),
            wasted_work=wasted,
            timeline=sorted(self.timeline, key=lambda pair: pair[0]),
            page_transport=wire.page_transport,
        )

    def _settle(self, at: float, winner: Optional[_Assignment] = None) -> None:
        """Settle the book once: the winner commits, every other active
        incarnation is eliminated, an expired one stays expired."""
        for assignment in self.granted:
            if assignment.state == "active":
                assignment.settle(
                    "committed" if assignment is winner else "eliminated", at
                )

    @staticmethod
    def _apply_pages(parent: SimProcess, dirty: Dict[int, bytes]) -> None:
        """'The changed state is updated in the parent's storage.'"""
        page_size = parent.space.page_size
        for vpn in sorted(dirty):
            data = dirty[vpn]
            offset = vpn * page_size
            length = min(len(data), parent.space.size - offset)
            if length > 0:
                parent.space.write(offset, bytes(data[:length]))

    # -- 6. degrade or raise ---------------------------------------------

    def _give_up(self, now: float) -> AltResult:
        """Nothing committed: cancel what runs, settle the book, then
        replay serially at home -- or fail the block."""
        for assignment in self.shipped:
            self.wire.end(assignment, cancel=not assignment.heard)
        if self.starved:
            reason = "consensus quorum unreachable"
        elif now >= self.wire.deadline:
            reason = f"race timed out after {self.wire.deadline:.1f}s"
        elif not self.shipped:
            reason = "no worker node was reachable"
        else:
            reason = "all remote alternatives failed"
        self._settle(now)
        if self.warden is not None and self.warden.degrade_to_serial:
            return self._degrade_serial(reason, now)
        error = AltBlockFailure(reason)
        error.outcomes = self.outcomes
        error.elapsed = now
        error.timeline = sorted(self.timeline, key=lambda pair: pair[0])
        raise error

    def _degrade_serial(self, reason: str, now: float) -> AltResult:
        """Replay the block serially on the home node, after the last
        remote verdict: arms one at a time, in order, in fresh COW worlds
        of the parent, with faults suppressed -- the last resort."""
        if self.tracer.enabled:
            self.tracer.emit(_ev.DEGRADE, block=self.block, reason=reason)
        self.timeline.append(
            (now, f"degrading to serial replay at home ({reason})")
        )
        executor = SequentialExecutor(
            policy=OrderedPolicy(),
            try_all=True,
            seed=self.ladder.seed,
            manager=self.ladder.manager,
        )

        def merged(replayed):
            return sorted(
                self.timeline
                + [(now + t, f"[replay] {label}") for t, label in replayed],
                key=lambda pair: pair[0],
            )

        try:
            with suppressed():
                replay = executor.run(self.alternatives, parent=self.parent)
        except AltBlockFailure as exc:
            exc.timeline = merged(getattr(exc, "timeline", []))
            exc.elapsed = now + (getattr(exc, "elapsed", 0.0) or 0.0)
            raise
        return AltResult(
            value=replay.value,
            winner=replay.winner,
            outcomes=replay.outcomes,
            elapsed=now + replay.elapsed,
            overhead=replay.overhead,
            wasted_work=replay.wasted_work,
            timeline=merged(replay.timeline),
        )


def _consumed(assignment: _Assignment, until: float) -> float:
    """CPU an incarnation burned from its start to ``until``."""
    spent = max(0.0, until - assignment.started)
    if assignment.duration is None:
        return spent
    return min(assignment.duration, spent)


# ----------------------------------------------------------------------
# the simulated transport


class _SimulatedWire:
    """Virtual time: events from ``remote_fork``, the cost model and the
    faulty network, delivered in time order from one heap.

    Transfers leave the home node one after another; restores overlap.
    A heartbeat is sent every ``lease_interval`` while the body runs,
    through :meth:`Network.transmit`, so injected loss, duplication and
    partitions apply.  The result reaches home at the body's completion;
    a crashed worker sends nothing more, and is down for the block.
    """

    page_transport = None
    deadline = math.inf

    _SEND, _HB, _RESULT = range(3)
    """Tie order at one instant: beats leave before heartbeats land,
    and both before a result."""

    def __init__(self, executor: "DistributedAltExecutor",
                 parent: SimProcess) -> None:
        self.executor = executor
        self.network = executor.network
        self.model = executor.network.cost_model
        self.parent = parent
        self.clock = 0.0
        self.home_free = 0.0
        """When the home node's link is next free to ship."""
        self.checkpointed = False
        self.down: Dict[str, float] = {}
        self.events: list = []
        self._order = itertools.count()
        self.semaphore: Optional[MajorityConsensusSemaphore] = None
        self.sync_latency = (
            MajorityConsensusSemaphore(
                [ConsensusNode(w) for w in executor.workers]
            ).latency(self.model)
            if executor.use_consensus
            else self.model.network_latency + self.model.sync_latency
        )

    def now(self) -> float:
        return self.clock

    def rotation(self) -> List[str]:
        return self.executor.workers

    def _is_down(self, node: str) -> bool:
        return self.down.get(node, math.inf) <= self.clock

    def healthy(self, node: str) -> bool:
        return not self._is_down(node) and self.network.reachable(
            self.executor.home, node, at=self.clock
        )

    def ship(self, assignment: _Assignment, admit) -> Tuple[bool, str]:
        """Checkpoint once, ship, restore, and run the body to its
        verdict now; what the home learns of it arrives as events."""
        node, index, arm = assignment.node, assignment.index, assignment.arm
        if self._is_down(node):
            return False, f"worker {node} is down"
        try:
            forked = remote_fork(
                self.network, self.executor.home, node, self.parent,
                cost_model=self.model,
            )
        except NetworkError as exc:
            # A partition opened mid-race: contained, not a raw error.
            return False, str(exc)
        start = max(self.home_free, self.clock)
        if not self.checkpointed:
            start += forked.checkpoint_time
            self.checkpointed = True
        self.home_free = start + forked.transfer_time
        child = forked.process
        context = AltContext(
            child.space,
            rng=self.executor._rng_for("ctx", index),
            alt_index=index + 1,
            name=arm.name,
            process=child,
        )
        succeeded, value, detail = _run_body(arm, context)
        duration = (
            arm.sample_cost(self.executor._rng_for("cost", index), context)
            + arm.guard_cost
        )
        pages = child.space.pages_written
        duration += self.model.page_copy_time(pages)
        assignment.started = self.home_free + forked.restore_time
        assignment.duration, assignment.pages = duration, pages
        assignment.pid = child.pid
        assignment.who = str(child.pid)
        admit(assignment)
        alive_until = assignment.started + duration
        if assignment.crash_after is not None:
            alive_until = assignment.started + min(
                assignment.crash_after, duration
            )
            self.down[node] = alive_until
            assignment.duration = alive_until - assignment.started
        else:
            table = child.space.table
            self._push(alive_until, self._RESULT, "result", assignment, {
                "ok": succeeded,
                "value": value,
                "detail": detail,
                "epoch": assignment.epoch,
                "duration": duration,
                "pages_written": pages,
                "dirty_pages": {
                    vpn: table.read_page(vpn) for vpn in table.dirty_pages
                } if succeeded else {},
            })
        assignment.carrier = alive_until
        if assignment.deadline is not None:
            self._push(
                assignment.started + self.executor.warden.lease_interval,
                self._SEND, "beat", assignment, None,
            )
        return True, f"rfork {arm.name} onto {node}"

    def _push(self, at, order, kind, assignment, msg) -> None:
        heapq.heappush(
            self.events, (at, order, next(self._order), kind, assignment, msg)
        )

    def next_event(self, until: float):
        while self.events and self.events[0][0] <= until:
            at, _, _, kind, assignment, msg = heapq.heappop(self.events)
            self.clock = at
            if kind != "beat":
                return kind, assignment, msg
            self._beat(assignment, at)
        if until < math.inf:
            self.clock = until
        return None

    def _beat(self, assignment: _Assignment, at: float) -> None:
        """One heartbeat over the faulty wire while the body runs."""
        if assignment.state != "active" or at > assignment.carrier + 1e-12:
            return
        for delivery in self.network.transmit(
            assignment.node, self.executor.home,
            ("hb", assignment.index, assignment.epoch),
            nbytes=HEARTBEAT_BYTES, at=at,
        ):
            self._push(delivery.arrive_at, self._HB, "hb", assignment,
                       {"epoch": assignment.epoch})
        self._push(at + self.executor.warden.lease_interval, self._SEND,
                   "beat", assignment, None)

    def heard(self, assignment: _Assignment) -> None:
        pass

    def blame(self, node, detail: str) -> None:
        pass

    def lapsed(self, assignment: _Assignment) -> None:
        pass

    def vote(self, assignment: _Assignment) -> bool:
        if self.semaphore is None:
            self.semaphore = MajorityConsensusSemaphore(
                [ConsensusNode(f"sync-{w}") for w in self.executor.workers]
            )
        return self.semaphore.try_acquire("block", assignment.pid)

    def bring_home(self, assignment: _Assignment, msg: dict) -> float:
        """The dirty pages' trip home; a partition revokes the grant."""
        try:
            return self.network.transfer(
                assignment.node, self.executor.home,
                assignment.pages * self.model.page_size,
            )
        except NetworkError:
            self.semaphore = None
            raise

    def kill_at(self, resume_at: float, slot: int) -> float:
        return (resume_at + self.model.network_latency
                + slot * self.model.kill_latency)

    def end(self, assignment: _Assignment, cancel: bool) -> None:
        pass

    def overhead(self, winner: _Assignment, at: float, resume_at: float,
                 ship_home: float) -> OverheadBreakdown:
        return OverheadBreakdown(
            setup=winner.started,  # checkpoint + ship + restore
            runtime=self.model.page_copy_time(winner.pages),
            selection=self.sync_latency + ship_home,
        )


class DistributedAltExecutor(HomeLadder):
    """Race alternatives across simulated workstations."""

    backend = "distributed"

    def __init__(
        self,
        network: Network,
        home: str,
        workers: Sequence[str],
        use_consensus: bool = False,
        seed: int = 0,
        warden: Optional[RaceWarden] = None,
    ) -> None:
        if not workers:
            raise ValueError("need at least one worker node")
        super().__init__()
        self.network = network
        self.home = home
        self.workers = list(workers)
        self.use_consensus = use_consensus
        self.seed = seed
        self.warden = warden
        self.manager = network.node(home).manager  # validates early
        for worker in self.workers:
            network.node(worker)

    def run(
        self,
        alternatives: Sequence[Alternative],
        parent: Optional[SimProcess] = None,
    ) -> AltResult:
        """Execute the block with one alternative per worker node.

        Alternatives beyond the worker count round-robin onto nodes; each
        still gets its own shipped copy of the parent image.
        """
        return self._race(alternatives, parent)

    def _transport(self, parent: SimProcess, block) -> _SimulatedWire:
        return _SimulatedWire(self, parent)

    def _rng_for(self, purpose: str, index: int) -> random.Random:
        """A per-``(seed, purpose, arm)`` RNG: the draw an arm sees never
        depends on how many draws other arms (or earlier incarnations)
        consumed."""
        return random.Random(f"{self.seed}:{purpose}:{index}")
