"""Distributed execution of an alternative block across network nodes.

Section 4.1 prices the distributed case explicitly:

- *Memory copying*: 'In the distributed case we must actually copy state
  for a remote child so that it can read or write locally' -- here, the
  parent image is checkpointed once and shipped to each worker node;
- 'There is more copying to be performed during synchronization, as the
  changed state is updated in the parent's storage' -- the winner's dirty
  pages travel back over the network before the parent resumes;
- *Sibling elimination* becomes termination messages with network
  latency, naturally asynchronous.

Each alternative runs on its own node (real concurrency), and the
synchronization can be a single home-node semaphore or a majority
consensus across the workers.

With a :class:`~repro.net.lease.RaceWarden` attached the race is
*chaos-hardened*: every remote child holds a lease renewed by heartbeats
over the (possibly faulty) network, a worker whose lease lapses is
re-spawned on a healthy node under a fresh incarnation epoch, zombies
are fenced at winner-commit, a mid-race partition is converted into
loser-elimination instead of escaping as a raw
:class:`~repro.errors.NetworkError`, and when remote execution cannot
complete at all the block degrades to a serial replay on the home node
(the simulated-substrate analogue of PR 2's ``SerialBackend``
degradation).

Every random decision is drawn from a *keyed* RNG --
``Random(f"{seed}:{purpose}:{arm}")``, the same convention as the
:class:`~repro.resilience.FaultInjector` -- so distributed runs replay
bit-identically under a seed regardless of arm order or respawn count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from repro.consensus.majority import MajorityConsensusSemaphore
from repro.consensus.node import ConsensusNode
from repro.consensus.semaphore import SyncSemaphore
from repro.core.alternative import AltContext, Alternative
from repro.core.result import AltOutcome, AltResult, OverheadBreakdown
from repro.core.selection import OrderedPolicy
from repro.core.sequential import SequentialExecutor, _run_body
from repro.errors import AltBlockFailure, ConsensusUnavailable, NetworkError
from repro.net.lease import Lease, RaceWarden
from repro.net.network import Network
from repro.net.rfork import remote_fork
from repro.obs import events as _ev
from repro.obs.tracer import active as _active_tracer
from repro.process.process import SimProcess
from repro.resilience.injector import active as _active_injector, suppressed
from repro.sim.costs import CostModel

#: Size of one heartbeat message on the wire (control traffic).
HEARTBEAT_BYTES = 64


@dataclass
class _RemoteRun:
    index: int
    node: str
    process: SimProcess
    succeeded: bool
    value: object
    detail: str
    duration: float
    pages_written: int
    arrival: float
    epoch: int = 0
    lease: Optional[Lease] = None
    zombie: bool = False
    """True for an incarnation the warden already declared dead whose
    body nonetheless ran to completion on the worker: it reaches the
    selection point only to be fenced."""

    @property
    def completion(self) -> float:
        return self.arrival + self.duration


class DistributedAltExecutor:
    """Race alternatives across workstations instead of local children."""

    def __init__(
        self,
        network: Network,
        home: str,
        workers: Sequence[str],
        cost_model: Optional[CostModel] = None,
        use_consensus: bool = False,
        seed: int = 0,
        warden: Optional[RaceWarden] = None,
    ) -> None:
        if not workers:
            raise ValueError("need at least one worker node")
        self.network = network
        self.home = home
        self.workers = list(workers)
        self.cost_model = (
            cost_model if cost_model is not None else network.cost_model
        )
        self.use_consensus = use_consensus
        self.seed = seed
        self.warden = warden
        network.node(home)  # validate early
        for worker in self.workers:
            network.node(worker)

    def new_parent(self, space_size: int = 64 * 1024) -> SimProcess:
        """A fresh parent on the home node."""
        return self.network.node(self.home).manager.create_initial(
            space_size=space_size
        )

    @staticmethod
    def over_sockets(
        endpoints,
        seed: int = 0,
        warden: Optional[RaceWarden] = None,
        use_consensus: bool = False,
        **kwargs,
    ):
        """The same executor semantics over real TCP worker daemons.

        ``endpoints`` is a sequence of
        :class:`~repro.cluster.executor.WorkerEndpoint` (or
        ``(name, host, port)`` tuples) naming live
        :class:`~repro.cluster.daemon.WorkerDaemon` processes.  The
        returned :class:`~repro.cluster.executor.ClusterExecutor` keeps
        this class's contract -- parent state shipped to the remote
        child (there: once per session, by frame id, only the frames a
        daemon has not been shown), dirty-page commit, leases with epoch
        fencing, degrade-to-serial -- with the simulated wire swapped for
        sockets and the simulated clock for a wall clock.  It holds one
        connection per daemon; ``close()`` it when done.
        """
        from repro.cluster.executor import ClusterExecutor, WorkerEndpoint

        resolved = [
            endpoint if isinstance(endpoint, WorkerEndpoint)
            else WorkerEndpoint(*endpoint)
            for endpoint in endpoints
        ]
        return ClusterExecutor(
            resolved, seed=seed, warden=warden,
            use_consensus=use_consensus, **kwargs,
        )

    # ------------------------------------------------------------------
    # keyed randomness (the FaultInjector convention)

    def _rng_for(self, purpose: str, index: int) -> random.Random:
        """A per-``(seed, purpose, arm)`` RNG.

        Keyed derivation means the draw an arm sees never depends on how
        many draws other arms (or earlier incarnations) consumed -- the
        property that makes a chaos run replay bit-identically.
        """
        return random.Random(f"{self.seed}:{purpose}:{index}")

    # ------------------------------------------------------------------

    def run(
        self,
        alternatives: Sequence[Alternative],
        parent: Optional[SimProcess] = None,
    ) -> AltResult:
        """Execute the block with one alternative per worker node.

        Alternatives beyond the worker count round-robin onto nodes; each
        still gets its own shipped copy of the parent image.
        """
        if not alternatives:
            raise ValueError("an alternative block needs at least one arm")
        parent = parent if parent is not None else self.new_parent()
        tracer = _active_tracer()
        block = tracer.next_block() if tracer.enabled else None
        if tracer.enabled:
            tracer.emit(
                _ev.BLOCK_BEGIN,
                block=block,
                name=f"alt-block#{block} [distributed]",
                backend="distributed",
                arms=len(alternatives),
                supervised=self.warden is not None,
            )
        try:
            result = self._run_inner(alternatives, parent, block)
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

    def _run_inner(
        self,
        alternatives: Sequence[Alternative],
        parent: SimProcess,
        block: Optional[int],
    ) -> AltResult:
        timeline: List[Tuple[float, str]] = [(0.0, "block entered")]
        outcomes = [
            AltOutcome(index=i, name=a.name, status="untried")
            for i, a in enumerate(alternatives)
        ]
        runs, clock = self._ship_and_execute(
            alternatives, parent, outcomes, timeline, block
        )
        result = None
        if runs:
            result = self._select(parent, runs, outcomes, timeline, block)
        if result is not None:
            return result
        # Nothing committed remotely: degrade to a home-node serial
        # replay when a warden allows it, otherwise fail the block.
        reason = (
            "no worker node was reachable"
            if not runs
            else f"all {len([r for r in runs if not r.zombie])} remote "
            "alternatives failed"
        )
        if self.warden is not None and self.warden.degrade_to_serial:
            return self._degrade_serial(
                alternatives, parent, outcomes, timeline, clock, reason, block
            )
        latest = max((run.completion for run in runs), default=clock)
        for run in runs:
            if not run.zombie:
                outcomes[run.index].cpu_consumed = run.duration
        if self.warden is not None:
            # Failure settles too: no lease may outlive its race.
            self.warden.table.settle(at=latest, winner_arm=None)
        error = AltBlockFailure(reason)
        error.outcomes = outcomes
        error.elapsed = latest
        error.timeline = timeline
        raise error

    # ------------------------------------------------------------------
    # shipping + remote execution (with optional lease supervision)

    def _ship_and_execute(self, alternatives, parent, outcomes, timeline, block):
        model = self.cost_model
        warden = self.warden
        image_bytes = None
        clock = 0.0
        runs: List[_RemoteRun] = []
        dead_nodes: Set[str] = set()
        for index, arm in enumerate(alternatives):
            preferred = self.workers[index % len(self.workers)]
            tried: List[str] = []
            attempt = 0
            while True:
                if warden is None:
                    # Unsupervised: the arm lives and dies with its
                    # round-robin node (the PR-0 semantics).
                    node_name = (
                        preferred
                        if preferred not in tried
                        and self.network.reachable(self.home, preferred)
                        else None
                    )
                else:
                    node_name = self._pick_node(
                        preferred, tried, dead_nodes, clock
                    )
                if node_name is None:
                    outcomes[index].status = "failed"
                    outcomes[index].detail = (
                        f"node {preferred} unreachable"
                        if not tried
                        else "no reachable worker node"
                    )
                    timeline.append(
                        (clock,
                         f"{arm.name}: {preferred} unreachable"
                         if not tried
                         else f"{arm.name}: no reachable worker node")
                    )
                    break
                try:
                    forked = remote_fork(
                        self.network, self.home, node_name, parent,
                        cost_model=model,
                    )
                except NetworkError as exc:
                    # A partition opened mid-race: contain it here instead
                    # of letting it unwind the whole block.
                    tried.append(node_name)
                    timeline.append(
                        (clock, f"{arm.name}: ship to {node_name} failed ({exc})")
                    )
                    if warden is None:
                        outcomes[index].status = "failed"
                        outcomes[index].detail = f"node {node_name} unreachable"
                        break
                    continue
                if image_bytes is None:
                    image_bytes = forked.image_bytes
                    clock += forked.checkpoint_time  # checkpoint happens once
                # Transfers leave the home node serially; restores overlap.
                clock += forked.transfer_time
                arrival = clock + forked.restore_time
                child = forked.process
                context = AltContext(
                    child.space,
                    rng=self._rng_for("ctx", index),
                    alt_index=index + 1,
                    name=arm.name,
                    process=child,
                )
                succeeded, value, detail = _run_body(arm, context)
                duration = (
                    arm.sample_cost(self._rng_for("cost", index), context)
                    + arm.guard_cost
                )
                pages = child.space.pages_written
                duration += model.page_copy_time(pages)
                outcomes[index].pid = child.pid
                outcomes[index].duration = duration
                outcomes[index].pages_written = pages
                outcomes[index].started_at = arrival
                timeline.append((arrival, f"rfork {arm.name} onto {node_name}"))
                run = _RemoteRun(
                    index=index,
                    node=node_name,
                    process=child,
                    succeeded=succeeded,
                    value=value,
                    detail=detail,
                    duration=duration,
                    pages_written=pages,
                    arrival=arrival,
                )
                if warden is None:
                    runs.append(run)
                    break

                # -- supervised: the incarnation runs under a lease -----
                lease = warden.table.grant(
                    node_name, index, at=arrival,
                    interval=warden.lease_interval,
                    timeout=warden.lease_timeout,
                )
                run.lease = lease
                run.epoch = lease.epoch
                crash_at = self._crash_instant(index, arrival, duration)
                alive_until = crash_at if crash_at is not None else run.completion
                lapse = self._simulate_lease(
                    lease, node_name, alive_until,
                    beats_stop=crash_at is not None,
                )
                if lapse is None:
                    runs.append(run)  # lease held through completion
                    break
                # The warden declares this incarnation dead at ``lapse``;
                # the worker-side lease lapses on the same deadline, so an
                # orphan self-terminates instead of lingering.
                lease.expire(lapse)
                clock = max(clock, lapse)
                timeline.append(
                    (lapse, f"lease of {arm.name}@{node_name} expired "
                            f"(epoch {lease.epoch})")
                )
                if crash_at is not None:
                    dead_nodes.add(node_name)
                    run.succeeded = False
                    run.detail = "worker crashed mid-arm"
                elif run.succeeded:
                    # Zombie: the body finished remotely after home gave up
                    # on it.  It may still race to the selection point, but
                    # the epoch fence bars it from committing.
                    run.zombie = True
                    runs.append(run)
                tried.append(node_name)
                attempt += 1
                if not warden.respawns_left(attempt):
                    outcomes[index].status = "failed"
                    outcomes[index].detail = (
                        f"lease expired (epoch {lease.epoch}); "
                        "respawns exhausted"
                    )
                    break
                tracer = _active_tracer()
                if tracer.enabled:
                    tracer.emit(
                        _ev.WORKER_RESPAWN,
                        block=block,
                        arm=index,
                        name=arm.name,
                        dead_worker=node_name,
                        epoch=lease.epoch,
                        at=lapse,
                    )
        return runs, clock

    def _pick_node(
        self,
        preferred: str,
        tried: List[str],
        dead_nodes: Set[str],
        clock: float,
    ) -> Optional[str]:
        """The preferred node, else the next healthy reachable worker."""
        start = self.workers.index(preferred)
        rotation = self.workers[start:] + self.workers[:start]
        for name in rotation:
            if name in tried or name in dead_nodes:
                continue
            if self.network.reachable(self.home, name, at=clock):
                return name
        return None

    def _crash_instant(
        self, index: int, arrival: float, duration: float
    ) -> Optional[float]:
        """When the ``worker-crash`` fault kills this arm's node."""
        injector = _active_injector()
        if injector is None:
            return None
        rule = injector.draw("worker-crash", index)
        if rule is None:
            return None
        return arrival + min(rule.duration, duration)

    def _simulate_lease(
        self,
        lease: Lease,
        node: str,
        alive_until: float,
        beats_stop: bool,
    ) -> Optional[float]:
        """Heartbeat the lease over the faulty wire until ``alive_until``.

        Each beat is one :meth:`Network.transmit` (so injected loss,
        duplication, and partitions apply); arriving beats renew the
        lease.  Returns the instant the lease lapses, or ``None`` when it
        holds through ``alive_until`` (and beyond: the claim message is
        next).  ``beats_stop`` marks a crashed worker whose silence is
        permanent.
        """
        t = lease.granted_at + lease.interval
        while t <= alive_until + 1e-12:
            deliveries = self.network.transmit(
                node,
                self.home,
                ("hb", lease.arm, lease.epoch),
                nbytes=HEARTBEAT_BYTES,
                at=t,
            )
            for delivery in sorted(deliveries, key=lambda d: d.arrive_at):
                if delivery.arrive_at > lease.deadline:
                    return lease.deadline  # lapsed before this beat landed
                lease.renew(delivery.arrive_at)
            t += lease.interval
        if beats_stop:
            return lease.deadline  # silence is forever: certain lapse
        if lease.deadline < alive_until:
            return lease.deadline
        return None

    # ------------------------------------------------------------------
    # selection / commit (epoch-fenced)

    def _select(
        self, parent, runs, outcomes, timeline, block
    ) -> Optional[AltResult]:
        """Pick and commit a winner; ``None`` when nothing could commit."""
        model = self.cost_model
        tracer = _active_tracer()
        ordered = sorted(runs, key=lambda run: run.completion)
        semaphore = self._make_semaphore()
        sync_latency = (
            MajorityConsensusSemaphore(
                [ConsensusNode(w) for w in self.workers]
            ).latency(model)
            if self.use_consensus
            else model.network_latency + model.sync_latency
        )
        winner: Optional[_RemoteRun] = None
        state_ship = 0.0
        for run in ordered:
            name = outcomes[run.index].name
            if not run.succeeded:
                if not run.zombie:
                    outcomes[run.index].status = "failed"
                    outcomes[run.index].detail = run.detail
                    outcomes[run.index].finished_at = run.completion
                    timeline.append(
                        (run.completion,
                         f"{run.process.pid} aborts: {run.detail}")
                    )
                continue
            if not self._commit_allowed(run):
                # The incarnation-epoch fence: a zombie whose lease lapsed
                # (or that a newer incarnation superseded) must not ship
                # pages home, however fast it finished.
                timeline.append(
                    (run.completion,
                     f"zombie {name}@{run.node} fenced at winner-commit "
                     f"(epoch {run.epoch})")
                )
                if tracer.enabled:
                    tracer.emit(
                        _ev.LOSER_ELIMINATE,
                        block=block,
                        arm=run.index,
                        name=name,
                        reason="stale-epoch-fence",
                        epoch=run.epoch,
                    )
                continue
            if not self._try_sync(semaphore, run):
                continue
            dirty_bytes = run.pages_written * model.page_size
            try:
                state_ship = self.network.transfer(
                    run.node, self.home, dirty_bytes
                )
            except NetworkError as exc:
                # A mid-race partition cut the winner off before its pages
                # came home.  The commit never happened, so the grant dies
                # with the partition: re-arm the rendezvous and promote
                # the next finisher (loser-elimination, not a raw error).
                outcomes[run.index].status = "failed"
                outcomes[run.index].detail = (
                    f"unreachable at winner-commit: {exc}"
                )
                outcomes[run.index].finished_at = run.completion
                outcomes[run.index].cpu_consumed = run.duration
                timeline.append(
                    (run.completion + sync_latency,
                     f"{name} granted sync but partitioned; grant revoked")
                )
                if tracer.enabled:
                    tracer.emit(
                        _ev.LOSER_ELIMINATE,
                        block=block,
                        arm=run.index,
                        name=name,
                        reason="partitioned-at-commit",
                    )
                semaphore = self._make_semaphore()
                continue
            winner = run
            timeline.append(
                (run.completion, f"{name} requests sync")
            )
            break
        if winner is None:
            return None

        # Synchronization: the claim message travels home, then 'the
        # changed state is updated in the parent's storage'.
        resume_at = winner.completion + sync_latency + state_ship
        self._apply_remote_state(parent, winner.process)
        timeline.append(
            (winner.completion + sync_latency, "sync granted at home")
        )
        timeline.append((resume_at, "parent resumes (state shipped home)"))
        if tracer.enabled:
            tracer.emit(
                _ev.WINNER_COMMIT,
                block=block,
                arm=winner.index,
                name=outcomes[winner.index].name,
                pages=winner.pages_written,
                sim_time=winner.completion,
                epoch=winner.epoch or None,
            )

        winner_outcome = outcomes[winner.index]
        winner_outcome.status = "won"
        winner_outcome.value = winner.value
        winner_outcome.finished_at = winner.completion
        wasted = 0.0
        losers = [
            r for r in runs if r is not winner and not r.zombie
        ]
        for slot, run in enumerate(losers):
            kill_at = resume_at + model.network_latency + slot * model.kill_latency
            if outcomes[run.index].status == "untried":
                outcomes[run.index].status = "eliminated"
                outcomes[run.index].finished_at = min(run.completion, kill_at)
                timeline.append((kill_at, f"kill message to {run.node}"))
            consumed = min(run.duration, max(0.0, kill_at - run.arrival))
            outcomes[run.index].cpu_consumed = consumed
            wasted += consumed
        for run in (r for r in runs if r.zombie):
            # A zombie burned its full body before its lease fenced it.
            wasted += run.duration
        winner_outcome.cpu_consumed = winner.duration
        if self.warden is not None:
            self.warden.table.settle(at=resume_at, winner_arm=winner.index)

        overhead = OverheadBreakdown(
            setup=winner.arrival,  # checkpoint + ship + restore for winner
            runtime=model.page_copy_time(winner.pages_written),
            selection=sync_latency + state_ship,
        )
        return AltResult(
            value=winner.value,
            winner=winner_outcome,
            outcomes=outcomes,
            elapsed=resume_at,
            overhead=overhead,
            wasted_work=wasted,
            timeline=sorted(timeline, key=lambda pair: pair[0]),
        )

    def _commit_allowed(self, run: _RemoteRun) -> bool:
        """The incarnation-epoch fence checked at winner-commit."""
        if run.lease is None:
            return True
        if run.lease.terminal:
            return False
        return run.epoch == self.warden.table.current_epoch(run.index)

    # ------------------------------------------------------------------
    # degradation

    def _degrade_serial(
        self, alternatives, parent, outcomes, timeline, clock, reason, block
    ) -> AltResult:
        """Replay the block serially on the home node.

        The simulated-substrate analogue of the supervisor's
        ``SerialBackend`` degradation: arms run one at a time, in order,
        in fresh COW worlds of the home parent, with the fault injector
        suppressed (one clean chance before the block concedes).
        """
        tracer = _active_tracer()
        if tracer.enabled:
            tracer.emit(_ev.DEGRADE, block=block, reason=reason)
        timeline.append(
            (clock, f"degrading to serial replay at home ({reason})")
        )
        if self.warden is not None:
            # Remote leases settle before the replay touches the parent:
            # expired stay expired, anything still active is eliminated.
            self.warden.table.settle(at=clock, winner_arm=None)
        executor = SequentialExecutor(
            policy=OrderedPolicy(),
            try_all=True,
            seed=self.seed,
            manager=self.network.node(self.home).manager,
        )
        try:
            with suppressed():
                replay = executor.run(alternatives, parent=parent)
        except AltBlockFailure as exc:
            exc.timeline = sorted(
                timeline
                + [(clock + t, f"[replay] {label}")
                   for t, label in getattr(exc, "timeline", [])],
                key=lambda pair: pair[0],
            )
            exc.elapsed = clock + (getattr(exc, "elapsed", 0.0) or 0.0)
            raise
        merged = timeline + [
            (clock + t, f"[replay] {label}") for t, label in replay.timeline
        ]
        return AltResult(
            value=replay.value,
            winner=replay.winner,
            outcomes=replay.outcomes,
            elapsed=clock + replay.elapsed,
            overhead=replay.overhead,
            wasted_work=replay.wasted_work,
            timeline=sorted(merged, key=lambda pair: pair[0]),
        )

    # ------------------------------------------------------------------

    def _make_semaphore(self):
        if self.use_consensus:
            return MajorityConsensusSemaphore(
                [ConsensusNode(f"sync-{w}") for w in self.workers]
            )
        return SyncSemaphore("home")

    def _try_sync(self, semaphore, run: _RemoteRun) -> bool:
        try:
            return semaphore.try_acquire("block", run.process.pid)
        except ConsensusUnavailable:
            return False

    @staticmethod
    def _apply_remote_state(parent: SimProcess, winner: SimProcess) -> None:
        """Write the winner's dirty pages into the parent's storage."""
        table = winner.space.table
        page_size = winner.space.page_size
        for vpn in sorted(table.dirty_pages):
            data = table.read_page(vpn)
            offset = vpn * page_size
            length = min(len(data), parent.space.size - offset)
            if length > 0:
                parent.space.write(offset, data[:length])
