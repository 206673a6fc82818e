"""Concurrent speculative execution of an alternative block (section 3).

The semantics-preserving transformation: spawn every alternative as a COW
child of the caller (``alt_spawn``), race them under real or virtual
concurrency, select the first successfully synchronizing child
(fastest-first), absorb its state into the parent by the atomic page
pointer swap, and eliminate the losing siblings synchronously or
asynchronously.

Timing is simulated deterministically:

- *setup*: the parent issues forks serially, so alternative ``i`` starts
  at ``(i + 1) * fork_latency``;
- *runtime*: each child's CPU demand is its standalone execution time plus
  the COW copies for the pages it writes; demands contend on ``cpus``
  processors under egalitarian processor sharing (virtual concurrency);
- *selection*: the rendezvous costs ``sync_latency``; termination
  instructions for the ``k-1`` siblings are issued at ``kill_latency``
  apiece, before the parent resumes (synchronous elimination) or after it
  (asynchronous).  Losers keep consuming CPU until their kill lands, which
  is the throughput price the paper accepts.

State semantics are *not* simulated -- they are executed for real on the
paged store via :class:`~repro.process.ProcessManager`, so losers' writes
provably never reach the parent.
"""

from __future__ import annotations

import random
import time as _time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.alternative import AltContext, Alternative, GuardPlacement
from repro.core.backends import (
    ArmTask,
    BackendRace,
    CancellationToken,
    ExecutionBackend,
    SerialBackend,
)
from repro.core.result import AltOutcome, AltResult, OverheadBreakdown
from repro.core.sequential import _run_body, _trace_guard_eval
from repro.errors import (
    AltBlockFailure,
    AltTimeout,
    PageApplyError,
    ProcessStateError,
)
from repro.independence import StepPlan, default_engine
from repro.obs import events as _ev
from repro.obs.export import BlockTrace
from repro.obs.tracer import active as _active_tracer
from repro.pages.store import PageStore
from repro.process.primitives import EliminationMode, ProcessManager
from repro.process.process import SimProcess
from repro.process.scheduler import ProcessorSharing
from repro.resilience import injector as _fault_registry
from repro.resilience.supervisor import (
    ArmAutopsy,
    AttemptAutopsy,
    RaceAutopsy,
    Supervisor,
    Watchdog,
    classify_outcome,
)
from repro.sim.costs import CostModel, MODERN_COMMODITY


@dataclass
class _ChildRun:
    """Internal record of one spawned alternative's semantic execution."""

    index: int
    alternative: Alternative
    child: SimProcess
    succeeded: bool
    value: object
    detail: str
    duration: float
    pages_written: int
    arrival: float
    demand: float


class ConcurrentExecutor:
    """Race all alternatives; fastest successful one wins.

    ``elimination`` times the simulator: termination instructions cost
    ``kill_latency`` apiece before the parent resumes (synchronous) or
    after it (asynchronous).  On a real backend the mode has nothing
    left to choose: the parent resumes when the backend returns the
    race, and that is what ``AltResult.elapsed`` and
    ``OverheadBreakdown.selection`` report under either mode.  The
    backend returns once the instructions are issued and whatever only
    the race can collect (a forked child, a thread) is in; a pooled
    loser stops "at some time after" and reports to the pool.  The mode
    still decides whether the kernel model releases the losers' spaces
    inside ``alt_wait`` or in the drain right after it.
    """

    def __init__(
        self,
        cost_model: CostModel = MODERN_COMMODITY,
        cpus: Optional[int] = None,
        elimination: EliminationMode = EliminationMode.SYNCHRONOUS,
        guard_placement: GuardPlacement = GuardPlacement.IN_CHILD,
        timeout: Optional[float] = None,
        seed: int = 0,
        manager: Optional[ProcessManager] = None,
        space_size: int = 64 * 1024,
        backend: Optional[ExecutionBackend] = None,
        supervisor: Optional[Supervisor] = None,
    ) -> None:
        self.cost_model = cost_model
        self.cpus = cpus
        self.elimination = elimination
        self.guard_placement = guard_placement
        self.timeout = timeout
        self.seed = seed
        self.manager = (
            manager
            if manager is not None
            else ProcessManager(PageStore(page_size=cost_model.page_size))
        )
        self.space_size = space_size
        self.backend = backend if backend is not None else SerialBackend()
        self.supervisor = supervisor
        """Optional :class:`~repro.resilience.Supervisor` policy: watchdog
        deadlines, retries with fresh COW worlds, and degradation to a
        serial replay for races on parallel backends.  Supervised runs
        attach a :class:`~repro.resilience.RaceAutopsy` to the result (and
        to any raised error)."""
        self._last_race: Optional[BackendRace] = None
        self._trace_block: Optional[int] = None

    def new_parent(self) -> SimProcess:
        """A fresh root process whose space callers may preload."""
        return self.manager.create_initial(space_size=self.space_size)

    # ------------------------------------------------------------------

    def run(
        self,
        alternatives: Sequence[Alternative],
        parent: Optional[SimProcess] = None,
    ) -> AltResult:
        """Execute the block concurrently.

        Raises :class:`AltBlockFailure` when every alternative fails and
        :class:`AltTimeout` when no alternative succeeds inside
        ``timeout`` simulated seconds.

        When a :class:`~repro.obs.Tracer` is installed, the whole race
        lifecycle is recorded and the block's slice of the trace is
        attached as ``result.trace`` (a :class:`~repro.obs.BlockTrace`)
        on success, and as ``error.trace`` on failure; a supervised run's
        :class:`~repro.resilience.RaceAutopsy` carries the same trace.
        """
        if not alternatives:
            raise ValueError("an alternative block needs at least one arm")
        tracer = _active_tracer()
        block = tracer.next_block() if tracer.enabled else None
        self._trace_block = block
        if tracer.enabled:
            tracer.emit(
                _ev.BLOCK_BEGIN,
                block=block,
                name=f"alt-block#{block} [{self.backend.name}]",
                backend=self.backend.name,
                arms=len(alternatives),
                supervised=self.supervisor is not None,
            )
        try:
            result = self._dispatch(alternatives, parent)
        except (AltBlockFailure, AltTimeout) as exc:
            if tracer.enabled:
                tracer.emit(
                    _ev.BLOCK_END,
                    block=block,
                    outcome=type(exc).__name__,
                    elapsed_seconds=float(getattr(exc, "elapsed", 0.0) or 0.0),
                )
                trace = BlockTrace(block, tracer.block_events(block))
                exc.trace = trace
                autopsy = getattr(exc, "autopsy", None)
                if autopsy is not None:
                    autopsy.trace = trace
            raise
        if tracer.enabled:
            serial_sum = sum(
                outcome.cpu_consumed or 0.0 for outcome in result.outcomes
            )
            tracer.emit(
                _ev.BLOCK_END,
                block=block,
                outcome="won",
                winner=result.winner.name,
                elapsed_seconds=result.elapsed,
                serial_sum_seconds=serial_sum,
            )
            trace = BlockTrace(block, tracer.block_events(block))
            result.trace = trace
            if result.autopsy is not None:
                result.autopsy.trace = trace
        return result

    def _dispatch(
        self,
        alternatives: Sequence[Alternative],
        parent: Optional[SimProcess],
    ) -> AltResult:
        rng = random.Random(self.seed)
        parent = parent if parent is not None else self.new_parent()
        timeline: List[Tuple[float, str]] = [(0.0, "block entered")]
        outcomes = [
            AltOutcome(index=i, name=a.name, status="untried")
            for i, a in enumerate(alternatives)
        ]

        spawnable = self._filter_before_spawn(
            alternatives, parent, outcomes, timeline
        )
        if not spawnable:
            error = AltBlockFailure("every alternative was closed before spawn")
            error.outcomes = outcomes
            error.elapsed = 0.0
            raise error

        step_plan = self._step_plan(alternatives, spawnable)
        if self.backend.is_parallel:
            if self.supervisor is not None:
                # Supervised races retry with fresh worlds; they keep the
                # classic first-success selection.
                return self._run_supervised(
                    alternatives, spawnable, parent, outcomes, timeline
                )
            return self._run_real(
                alternatives, spawnable, parent, outcomes, timeline,
                step_plan=step_plan,
            )
        runs = self._spawn_and_execute(
            alternatives, spawnable, parent, outcomes, timeline, rng
        )
        if step_plan is not None:
            result = self._race_step(
                alternatives, runs, parent, outcomes, timeline, step_plan
            )
            if result is not None:
                return result
        return self._race(alternatives, runs, parent, outcomes, timeline)

    def _step_plan(
        self, alternatives, spawnable
    ) -> Optional[StepPlan]:
        """A maximal-step plan when every spawnable arm declares a
        disjoint write-set (and the block has no deadline -- a timed
        block must keep the winner semaphore so the deadline can cut the
        race short)."""
        if self.timeout is not None or len(spawnable) < 2:
            return None
        declared = {
            index: alternatives[index].writes for index in spawnable
        }
        page_size = getattr(
            self.manager.store, "page_size", self.cost_model.page_size
        )
        return default_engine.plan(declared, page_size)

    # ------------------------------------------------------------------
    # phase 1: pre-spawn guard filtering

    def _filter_before_spawn(self, alternatives, parent, outcomes, timeline):
        spawnable = list(range(len(alternatives)))
        if self.guard_placement is not GuardPlacement.BEFORE_SPAWN:
            return spawnable
        open_arms = []
        for index in spawnable:
            arm = alternatives[index]
            if arm.pre_guard is None:
                open_arms.append(index)
                continue
            probe = AltContext(parent.space, alt_index=index + 1, name=arm.name)
            probe.trace_block = self._trace_block
            held = bool(arm.pre_guard(probe))
            _trace_guard_eval(probe, "before-spawn", held)
            if held:
                open_arms.append(index)
            else:
                outcomes[index].status = "not_spawned"
                outcomes[index].detail = "pre-guard closed before spawn"
                timeline.append((0.0, f"{arm.name} closed (guard before spawn)"))
        return open_arms

    # ------------------------------------------------------------------
    # phase 2: spawn children and execute bodies for real

    def _build_tasks(
        self, alternatives, spawnable, children, with_tokens: bool
    ) -> Tuple[List[ArmTask], Dict[int, AltContext]]:
        """One :class:`ArmTask` per spawned arm, against its COW child."""
        skip_pre_guard = self.guard_placement is GuardPlacement.BEFORE_SPAWN
        tasks: List[ArmTask] = []
        contexts: Dict[int, AltContext] = {}
        for index, child in zip(spawnable, children):
            arm = alternatives[index]
            context = AltContext(
                child.space,
                rng=random.Random(self.seed * 1000003 + index),
                alt_index=index + 1,
                name=arm.name,
                process=child,
                token=CancellationToken() if with_tokens else None,
            )
            context.trace_block = self._trace_block
            contexts[index] = context
            if skip_pre_guard and arm.pre_guard is not None:
                # Guard already passed in the parent; do not re-run it.
                to_run = Alternative(
                    name=arm.name,
                    body=arm.body,
                    guard=arm.guard,
                    cost=arm.cost,
                    guard_cost=arm.guard_cost,
                )
            else:
                to_run = arm
            tasks.append(
                ArmTask(
                    index=index,
                    name=arm.name,
                    run=lambda a=to_run, c=context: _run_body(a, c),
                    context=context,
                    # A world pool ships the alternative by value to a
                    # parked worker; the seed lets the worker rebuild an
                    # RNG identical to this context's.
                    alternative=to_run,
                    rng_seed=self.seed * 1000003 + index,
                )
            )
        return tasks, contexts

    def _spawn_and_execute(
        self, alternatives, spawnable, parent, outcomes, timeline, rng
    ) -> List[_ChildRun]:
        children = self.manager.alt_spawn(parent, len(spawnable))
        tasks, contexts = self._build_tasks(
            alternatives, spawnable, children, with_tokens=False
        )
        tracer = _active_tracer()
        if tracer.enabled:
            for index, child in zip(spawnable, children):
                tracer.emit(
                    _ev.ARM_SPAWN,
                    block=self._trace_block,
                    arm=index,
                    name=alternatives[index].name,
                    sim_pid=child.pid,
                )
        # Bodies run through the serial backend (the deterministic replay
        # discipline); the race below is then decided by the timing model.
        race = SerialBackend().run_arms(tasks)
        runs: List[_ChildRun] = []
        fork = self.cost_model.fork_latency
        for spawn_slot, (index, child) in enumerate(zip(spawnable, children)):
            arm = alternatives[index]
            report = race.report(index)
            arrival = (spawn_slot + 1) * fork
            duration = arm.sample_cost(rng, contexts[index])
            if self.guard_placement is GuardPlacement.IN_CHILD:
                # The child evaluates its own guard as part of its run.
                duration += arm.guard_cost
            pages = child.space.pages_written
            demand = duration + self.cost_model.page_copy_time(pages)
            outcome = outcomes[index]
            outcome.pid = child.pid
            outcome.duration = duration
            outcome.pages_written = pages
            outcome.started_at = arrival
            timeline.append((arrival, f"spawn {arm.name} (pid {child.pid})"))
            runs.append(
                _ChildRun(
                    index=index,
                    alternative=arm,
                    child=child,
                    succeeded=report.succeeded,
                    value=report.value,
                    detail=report.detail,
                    duration=duration,
                    pages_written=pages,
                    arrival=arrival,
                    demand=demand,
                )
            )
        return runs

    # ------------------------------------------------------------------
    # phase 2': the real race (parallel backends)

    def _run_real(
        self, alternatives, spawnable, parent, outcomes, timeline,
        backend: Optional[ExecutionBackend] = None,
        step_plan: Optional[StepPlan] = None,
    ) -> AltResult:
        """Race the arms under genuine concurrency, fastest-first.

        The backend decides the winner at the wall clock; this method
        drives the simulated kernel to the same conclusion (``alt_sync``
        for the winner, ``fail`` for aborted arms, ``alt_wait`` with
        elimination for the cancelled losers) so the state semantics --
        losers' writes never reach the parent -- are enforced by the same
        mechanism as the deterministic path.

        ``backend`` overrides ``self.backend`` (the supervisor's degraded
        serial replay runs the same machinery on a ``SerialBackend``).
        When a supervisor with an ``arm_deadline`` is configured, a
        :class:`~repro.resilience.Watchdog` delivers the termination
        instruction to every arm still racing at the deadline and
        escalates to a forcible kill after its grace period.
        """
        backend = backend if backend is not None else self.backend
        spawn_start = _time.perf_counter()
        children = self.manager.alt_spawn(parent, len(spawnable))
        tasks, contexts = self._build_tasks(
            alternatives, spawnable, children, with_tokens=True
        )
        by_index = dict(zip(spawnable, children))
        for index, child in by_index.items():
            # The kernel's termination instruction lands on the arm's
            # cancellation token (section 3.2.1, delivered for real).
            self.manager.attach_elimination_hook(
                child.pid, contexts[index].token.cancel
            )
        spawn_done = _time.perf_counter() - spawn_start
        tracer = _active_tracer()
        for index, child in by_index.items():
            outcomes[index].pid = child.pid
            timeline.append(
                (
                    spawn_done,
                    f"spawn {alternatives[index].name} (pid {child.pid})",
                )
            )
            if tracer.enabled:
                tracer.emit(
                    _ev.ARM_SPAWN,
                    block=self._trace_block,
                    arm=index,
                    name=alternatives[index].name,
                    sim_pid=child.pid,
                    backend=backend.name,
                )

        watchdog = None
        if (
            self.supervisor is not None
            and self.supervisor.arm_deadline is not None
            and backend.is_parallel
        ):
            indexes = list(by_index)

            def _terminate(hard: bool) -> None:
                for index in indexes:
                    delivered = backend.terminate_arm(index, hard=hard)
                    if not delivered and not hard:
                        token = contexts[index].token
                        if token is not None:
                            token.cancel()

            watchdog = Watchdog(
                self.supervisor.arm_deadline,
                self.supervisor.kill_grace,
                _terminate,
                trace_block=self._trace_block,
            ).start()
        try:
            race = backend.run_arms(
                tasks,
                timeout=self.timeout,
                collect_all=step_plan is not None,
            )
        finally:
            if watchdog is not None:
                watchdog.stop()
                if watchdog.fired_soft:
                    timeline.append(
                        (
                            spawn_done + self.supervisor.arm_deadline,
                            "watchdog: arm deadline expired"
                            + (" (hard kill)" if watchdog.fired_hard else ""),
                        )
                    )
        self._last_race = race
        try:
            return self._conclude_real(
                race, by_index, parent, outcomes, timeline, spawn_done,
                step_plan=step_plan,
            )
        finally:
            for child in children:
                self.manager.detach_elimination_hook(child.pid)

    def _conclude_real(
        self,
        race: BackendRace,
        by_index: Dict[int, SimProcess],
        parent: SimProcess,
        outcomes: List[AltOutcome],
        timeline: List[Tuple[float, str]],
        spawn_done: float,
        step_plan: Optional[StepPlan] = None,
    ) -> AltResult:
        if step_plan is not None:
            result = self._conclude_step(
                race, by_index, parent, outcomes, timeline, spawn_done,
                step_plan,
            )
            if result is not None:
                return result
            # Step ineligible (a lone success, an abnormal death, a
            # failed validation): fall back to the classic first-success
            # conclusion.  Non-winner shipments would leak their slabs
            # through the classic path, so dispose them now.
            self._dispose_extra_shipments(race)
        winner_index = race.winner_index
        for when, label in race.events:
            timeline.append((spawn_done + when, label))

        # Per-arm bookkeeping, read *before* alt_wait releases loser spaces.
        wasted = 0.0
        for index, child in by_index.items():
            report = race.report(index)
            outcome = outcomes[index]
            outcome.duration = report.work_seconds
            outcome.started_at = spawn_done + report.started_at
            outcome.finished_at = spawn_done + report.finished_at
            outcome.cpu_consumed = report.work_seconds
            if report.page_transport is None and report.dirty_pages is None:
                outcome.pages_written = child.space.pages_written
            else:
                outcome.pages_written = report.pages_written
            if index != winner_index:
                wasted += report.work_seconds
            if report.succeeded:
                if index != winner_index:
                    # A serial replay runs every arm to completion; later
                    # successes lose the rendezvous like any too-late arm.
                    outcome.status = "eliminated"
                    outcome.detail = "synchronized too late; sibling already won"
                continue
            if report.cancelled and winner_index is not None:
                # Eliminated loser: alt_wait terminates it below.
                outcome.status = "eliminated"
                outcome.detail = report.detail
            else:
                self.manager.fail(child)
                outcome.status = "eliminated" if report.cancelled else "failed"
                outcome.detail = report.detail

        tracer = _active_tracer()
        if winner_index is None:
            if tracer.enabled:
                for index in by_index:
                    if outcomes[index].status == "eliminated":
                        report = race.report(index)
                        tracer.emit(
                            _ev.LOSER_ELIMINATE,
                            block=self._trace_block,
                            arm=index,
                            name=report.name,
                            latency_seconds=0.0,
                            detail=report.detail or "timeout",
                        )
            elapsed = spawn_done + race.total_seconds
            if race.timed_out:
                timeline.append((elapsed, "alt_wait TIMEOUT"))
                try:
                    self.manager.alt_wait(parent, timed_out=True)
                except (AltTimeout, AltBlockFailure):
                    pass
                error: Exception = AltTimeout(
                    f"no alternative succeeded within {self.timeout} seconds"
                )
                error.partial_reports = tuple(
                    {
                        "index": report.index,
                        "name": report.name,
                        "state": classify_outcome(
                            report.succeeded,
                            report.cancelled,
                            report.abnormal,
                            report.detail,
                            report.exit_signal,
                            winner_exists=False,
                        ),
                        "elapsed": report.work_seconds,
                    }
                    for report in race.reports
                )
            else:
                timeline.append((elapsed, "block FAILED"))
                try:
                    self.manager.alt_wait(parent)
                except AltBlockFailure:
                    pass
                error = AltBlockFailure(
                    f"all {len(by_index)} spawned alternatives failed"
                )
            error.outcomes = outcomes
            error.elapsed = elapsed
            error.timeline = timeline
            raise error

        winner_report = race.report(winner_index)
        winner_child = by_index[winner_index]
        winner_child.space.trace_block = self._trace_block
        if winner_report.shm_shipment is not None:
            # The winner's dirty pages already sit in a shared-memory
            # slab: commit is a pointer swap, no page image is copied.
            shipment = winner_report.shm_shipment
            try:
                winner_child.space.apply_shm_pages(shipment)
            except PageApplyError as exc:
                self._demote_winner(
                    race, winner_index, by_index, parent, outcomes,
                    timeline, spawn_done, exc,
                )
            finally:
                # Adopted frames hold their own slab references now; the
                # shipment's creation reference is done either way.
                shipment.slab.dispose()
        elif winner_report.dirty_pages:
            # The winner ran in another OS process: replay its page images
            # into the simulated child space before the commit swap.
            try:
                winner_child.space.apply_pages(winner_report.dirty_pages)
            except PageApplyError as exc:
                # The shipment is unusable: demote the "winner" to an
                # abnormal failure (the parent's space is untouched) and
                # let the block fail -- the supervisor may retry it.
                self._demote_winner(
                    race, winner_index, by_index, parent, outcomes,
                    timeline, spawn_done, exc,
                )
        won = self.manager.alt_sync(winner_child, guard_ok=True)
        assert won, "first successful completion must win the rendezvous"
        if tracer.enabled:
            tracer.emit(
                _ev.WINNER_COMMIT,
                block=self._trace_block,
                arm=winner_index,
                name=winner_report.name,
                pages=outcomes[winner_index].pages_written,
                work_seconds=winner_report.work_seconds,
            )
        self.manager.alt_wait(parent, elimination=self.elimination)
        if self.elimination is EliminationMode.ASYNCHRONOUS:
            self.manager.drain_eliminations(winner_child.group_id)
        if tracer.enabled:
            for index in by_index:
                if index == winner_index:
                    continue
                if outcomes[index].status == "eliminated":
                    report = race.report(index)
                    tracer.emit(
                        _ev.LOSER_ELIMINATE,
                        block=self._trace_block,
                        arm=index,
                        name=report.name,
                        latency_seconds=max(
                            0.0,
                            report.finished_at - winner_report.finished_at,
                        ),
                        detail=report.detail,
                    )

        win_time = spawn_done + race.elapsed
        # When the backend gave the race back is when the parent resumed,
        # whatever the mode: the wait is the backend's, not a choice made
        # here.
        resume_at = spawn_done + race.total_seconds
        winner_outcome = outcomes[winner_index]
        winner_outcome.status = "won"
        winner_outcome.value = winner_report.value
        winner_outcome.finished_at = win_time
        timeline.append((resume_at, "parent resumes"))
        timeline.sort(key=lambda event: event[0])
        overhead = OverheadBreakdown(
            setup=spawn_done + race.setup_seconds,
            runtime=self.cost_model.page_copy_time(
                winner_outcome.pages_written
            ),
            selection=max(0.0, resume_at - win_time),
        )
        return AltResult(
            value=winner_report.value,
            winner=winner_outcome,
            outcomes=outcomes,
            elapsed=resume_at,
            overhead=overhead,
            wasted_work=wasted,
            timeline=timeline,
            page_transport=winner_report.page_transport
            or race.page_transport,
        )

    # ------------------------------------------------------------------
    # maximal-step conclusion (shared independence engine, section 4's
    # selection-overhead optimisation: no winner semaphore, no kills)

    @staticmethod
    def _dispose_extra_shipments(race: BackendRace) -> None:
        """Drop slabs of non-winning successes before a classic fallback."""
        for report in race.reports:
            if report.index == race.winner_index:
                continue
            if report.shm_shipment is not None:
                report.shm_shipment.slab.dispose()
                report.shm_shipment = None

    def _emit_step_events(
        self, committers, actual, reports, winner_index
    ) -> None:
        tracer = _active_tracer()
        if not tracer.enabled:
            return
        tracer.emit(
            _ev.INDEP_STEP,
            block=self._trace_block,
            name="maximal-step",
            arms=list(committers),
            pages=sum(len(actual[index]) for index in committers),
        )
        for index in committers:
            tracer.emit(
                _ev.MAXIMAL_COMMIT,
                block=self._trace_block,
                arm=index,
                name=reports[index].name,
                pages=len(actual[index]),
                primary=index == winner_index,
            )

    def _conclude_step(
        self,
        race: BackendRace,
        by_index: Dict[int, SimProcess],
        parent: SimProcess,
        outcomes: List[AltOutcome],
        timeline: List[Tuple[float, str]],
        spawn_done: float,
        plan: StepPlan,
    ) -> Optional[AltResult]:
        """Commit every successful arm as one validated step.

        Returns ``None`` whenever the step is ineligible (fewer than two
        successes, an abnormal death, a rejected shipment, a failed
        disjointness validation, a refused graft); the caller then takes
        the classic first-success path on the very same race.
        """
        if race.timed_out or race.winner_index is None:
            return None
        reports = {index: race.report(index) for index in by_index}
        if any(report.abnormal for report in reports.values()):
            return None
        committers = sorted(
            index for index, report in reports.items() if report.succeeded
        )
        if len(committers) < 2:
            return None
        # Stage cross-process shipments into each committer's simulated
        # space, so the dirty sets below reflect the real writes.
        for index in committers:
            report = reports[index]
            child = by_index[index]
            try:
                if report.shm_shipment is not None:
                    shipment = report.shm_shipment
                    try:
                        child.space.apply_shm_pages(shipment)
                    finally:
                        shipment.slab.dispose()
                        report.shm_shipment = None
                elif report.dirty_pages:
                    child.space.apply_pages(report.dirty_pages)
                    report.dirty_pages = None
            except PageApplyError as exc:
                report.succeeded = False
                report.abnormal = True
                report.detail = f"step shipback rejected: {exc}"
                if race.winner_index == index:
                    rest = [
                        i for i, r in reports.items() if r.succeeded
                    ]
                    race.winner_index = (
                        min(rest, key=lambda i: reports[i].finished_at)
                        if rest
                        else None
                    )
                return None
        actual = {
            index: frozenset(
                default_engine.summarize(
                    by_index[index].space.table.dirty_pages
                )
            )
            for index in committers
        }
        problem = default_engine.validate(plan, actual)
        if problem is not None:
            timeline.append(
                (
                    spawn_done + race.total_seconds,
                    f"maximal step refused: {problem}",
                )
            )
            return None

        # Bookkeeping first: the kernel commit below releases the
        # secondaries' spaces.
        wasted = 0.0
        for index, child in by_index.items():
            report = reports[index]
            outcome = outcomes[index]
            outcome.duration = report.work_seconds
            outcome.started_at = spawn_done + report.started_at
            outcome.finished_at = spawn_done + report.finished_at
            outcome.cpu_consumed = report.work_seconds
            if report.page_transport is None:
                outcome.pages_written = child.space.pages_written
            else:
                outcome.pages_written = report.pages_written
            if index not in committers:
                wasted += report.work_seconds

        pages_map = {
            by_index[index].pid: sorted(actual[index])
            for index in committers[1:]
        }
        try:
            self.manager.alt_step_commit(
                parent, [by_index[index] for index in committers], pages_map
            )
        except PageApplyError as exc:
            timeline.append(
                (
                    spawn_done + race.total_seconds,
                    f"maximal step graft refused: {exc}",
                )
            )
            return None

        # The step is order-free: the committed block's winner is the
        # lowest-index committer on every backend and every schedule.
        winner_index = committers[0]
        race.winner_index = winner_index
        winner_report = reports[winner_index]
        for index in committers:
            outcome = outcomes[index]
            outcome.value = reports[index].value
            outcome.status = "committed" if index != winner_index else "won"
        for index, report in reports.items():
            if index in committers:
                continue
            outcomes[index].status = "failed"
            outcomes[index].detail = report.detail

        self._emit_step_events(committers, actual, reports, winner_index)
        tracer = _active_tracer()
        if tracer.enabled:
            tracer.emit(
                _ev.WINNER_COMMIT,
                block=self._trace_block,
                arm=winner_index,
                name=winner_report.name,
                pages=outcomes[winner_index].pages_written,
                work_seconds=winner_report.work_seconds,
                maximal_step=True,
            )

        win_time = spawn_done + max(
            reports[index].finished_at for index in committers
        )
        resume_at = spawn_done + race.total_seconds
        timeline.append((resume_at, "parent resumes (maximal step)"))
        timeline.sort(key=lambda event: event[0])
        overhead = OverheadBreakdown(
            setup=spawn_done + race.setup_seconds,
            runtime=self.cost_model.page_copy_time(
                outcomes[winner_index].pages_written
            ),
            selection=max(0.0, resume_at - win_time),
        )
        return AltResult(
            value=winner_report.value,
            winner=outcomes[winner_index],
            outcomes=outcomes,
            elapsed=resume_at,
            overhead=overhead,
            wasted_work=wasted,
            timeline=timeline,
            page_transport=winner_report.page_transport
            or race.page_transport,
        )

    def _race_step(
        self, alternatives, runs, parent, outcomes, timeline, plan
    ) -> Optional[AltResult]:
        """The deterministic-timing twin of :meth:`_conclude_step`.

        Every body already ran to completion (the serial discipline), so
        the step needs no collect mode: validate the successes' dirty
        sets, commit them as one step, and charge only ``sync_latency``
        as selection overhead -- no termination instructions are issued
        because the step has no losers to kill.
        """
        committers = sorted(run.index for run in runs if run.succeeded)
        if len(committers) < 2:
            return None
        by_index = {run.index: run for run in runs}
        actual = {
            index: frozenset(
                default_engine.summarize(
                    by_index[index].child.space.table.dirty_pages
                )
            )
            for index in committers
        }
        if default_engine.validate(plan, actual) is not None:
            return None
        pages_map = {
            by_index[index].child.pid: sorted(actual[index])
            for index in committers[1:]
        }
        try:
            self.manager.alt_step_commit(
                parent,
                [by_index[index].child for index in committers],
                pages_map,
            )
        except PageApplyError:
            return None

        model = self.cost_model
        cpus = self.cpus if self.cpus is not None else max(1, len(runs))
        sched = ProcessorSharing(cpus=cpus)
        for run in runs:
            sched.add(run.index, arrival=run.arrival, demand=run.demand)
        completion: Dict[int, float] = {}
        while True:
            step = sched.step_to_next_completion()
            if step is None:
                break
            when, index = step
            completion[index] = when

        winner_index = committers[0]
        winner_run = by_index[winner_index]
        wasted = 0.0
        for run in runs:
            outcome = outcomes[run.index]
            finished = completion.get(run.index, sched.now)
            outcome.cpu_consumed = sched.job(run.index).consumed
            outcome.finished_at = finished
            if run.succeeded:
                outcome.status = (
                    "won" if run.index == winner_index else "committed"
                )
                outcome.value = run.value
                timeline.append(
                    (finished, f"{run.alternative.name} synchronizes")
                )
            else:
                outcome.status = "failed"
                outcome.detail = run.detail
                wasted += sched.job(run.index).consumed
                timeline.append(
                    (finished, f"{run.alternative.name} aborts: {run.detail}")
                )

        win_time = max(completion[index] for index in committers)
        sync_done = win_time + model.sync_latency
        if self.guard_placement is GuardPlacement.AT_SYNC:
            sync_done += alternatives[winner_index].guard_cost
        resume_at = sync_done

        self._emit_step_events(
            committers,
            actual,
            {index: by_index[index].alternative for index in committers},
            winner_index,
        )
        tracer = _active_tracer()
        if tracer.enabled:
            tracer.emit(
                _ev.WINNER_COMMIT,
                block=self._trace_block,
                arm=winner_index,
                name=winner_run.alternative.name,
                pages=winner_run.pages_written,
                sim_time=win_time,
                maximal_step=True,
            )
        timeline.append((resume_at, "parent resumes (maximal step)"))
        timeline.sort(key=lambda event: event[0])
        overhead = OverheadBreakdown(
            setup=len(runs) * model.fork_latency,
            runtime=model.page_copy_time(winner_run.pages_written),
            selection=resume_at - win_time,
        )
        return AltResult(
            value=winner_run.value,
            winner=outcomes[winner_index],
            outcomes=outcomes,
            elapsed=resume_at,
            overhead=overhead,
            wasted_work=wasted,
            timeline=timeline,
        )

    # ------------------------------------------------------------------
    # phase 3: the timing race + at-most-once selection

    def _race(self, alternatives, runs, parent, outcomes, timeline) -> AltResult:
        model = self.cost_model
        cpus = self.cpus if self.cpus is not None else max(1, len(runs))
        sched = ProcessorSharing(cpus=cpus)
        by_index = {run.index: run for run in runs}
        for run in runs:
            sched.add(run.index, arrival=run.arrival, demand=run.demand)

        winner_run: Optional[_ChildRun] = None
        win_time: Optional[float] = None
        while True:
            step = sched.step_to_next_completion()
            if step is None:
                break
            time, index = step
            run = by_index[index]
            if self.timeout is not None and time > self.timeout:
                return self._timeout(parent, sched, runs, outcomes, timeline)
            if run.succeeded:
                winner_run = run
                win_time = time
                timeline.append((time, f"{run.alternative.name} synchronizes"))
                break
            self.manager.fail(run.child)
            outcomes[index].status = "failed"
            outcomes[index].detail = run.detail
            outcomes[index].finished_at = time
            timeline.append(
                (time, f"{run.alternative.name} aborts: {run.detail}")
            )

        if winner_run is None:
            for run in runs:
                outcomes[run.index].cpu_consumed = sched.job(run.index).consumed
            error = AltBlockFailure(
                f"all {len(runs)} spawned alternatives failed"
            )
            error.outcomes = outcomes
            error.elapsed = sched.now
            # The kernel-level wait also observes the failure.
            try:
                self.manager.alt_wait(parent)
            except AltBlockFailure:
                pass
            timeline.append((sched.now, "block FAILED"))
            error.timeline = timeline
            raise error

        # At-most-once synchronization through the kernel.
        assert win_time is not None
        won = self.manager.alt_sync(winner_run.child, guard_ok=True)
        assert won, "first successful completion must win the rendezvous"
        tracer = _active_tracer()
        if tracer.enabled:
            tracer.emit(
                _ev.WINNER_COMMIT,
                block=self._trace_block,
                arm=winner_run.index,
                name=winner_run.alternative.name,
                pages=winner_run.pages_written,
                sim_time=win_time,
            )

        losers = [run for run in runs if run is not winner_run
                  and not sched.job(run.index).finished]
        sync_done = win_time + model.sync_latency
        if self.guard_placement is GuardPlacement.AT_SYNC:
            # The parent re-evaluates the winner's guard at the rendezvous.
            sync_done += winner_run.alternative.guard_cost
        # Termination instructions are issued serially after the sync.
        kill_times = {
            run.index: sync_done + (slot + 1) * model.kill_latency
            for slot, run in enumerate(losers)
        }
        # Losers burn CPU until their kill lands.
        for run in losers:
            sched.advance_to(kill_times[run.index])
            sched.cancel(run.index)
            outcomes[run.index].status = "eliminated"
            outcomes[run.index].finished_at = kill_times[run.index]
            timeline.append(
                (kill_times[run.index], f"kill {run.alternative.name}")
            )
            if tracer.enabled:
                tracer.emit(
                    _ev.LOSER_ELIMINATE,
                    block=self._trace_block,
                    arm=run.index,
                    name=run.alternative.name,
                    latency_seconds=kill_times[run.index] - win_time,
                    sim_time=kill_times[run.index],
                )
        last_kill = max(kill_times.values(), default=sync_done)

        if self.elimination is EliminationMode.SYNCHRONOUS:
            resume_at = max(sync_done, last_kill)
            selection = resume_at - win_time
        else:
            resume_at = sync_done
            selection = sync_done - win_time
        self.manager.alt_wait(parent, elimination=self.elimination)
        if self.elimination is EliminationMode.ASYNCHRONOUS:
            self.manager.drain_eliminations(winner_run.child.group_id)

        winner_outcome = outcomes[winner_run.index]
        winner_outcome.status = "won"
        winner_outcome.value = winner_run.value
        winner_outcome.finished_at = win_time
        for run in runs:
            outcomes[run.index].cpu_consumed = sched.job(run.index).consumed
        timeline.append((resume_at, "parent resumes"))

        sharing_delay = win_time - winner_run.arrival - winner_run.demand
        overhead = OverheadBreakdown(
            setup=len(runs) * model.fork_latency,
            runtime=(
                model.page_copy_time(winner_run.pages_written)
                + max(0.0, sharing_delay)
            ),
            selection=selection,
        )
        return AltResult(
            value=winner_run.value,
            winner=winner_outcome,
            outcomes=outcomes,
            elapsed=resume_at,
            overhead=overhead,
            wasted_work=sched.wasted_work(winner_run.index),
            timeline=timeline,
        )

    def _timeout(self, parent, sched, runs, outcomes, timeline):
        # The scheduler may already sit past the deadline (the stepping
        # that *revealed* the timeout over-ran it); never move backwards.
        if sched.now < self.timeout:
            sched.advance_to(self.timeout)
        tracer = _active_tracer()
        for run in runs:
            job = sched.job(run.index)
            if not job.finished:
                sched.cancel(run.index)
            outcomes[run.index].cpu_consumed = sched.job(run.index).consumed
            if outcomes[run.index].status == "untried":
                outcomes[run.index].status = "eliminated"
                outcomes[run.index].detail = "timeout"
                if tracer.enabled:
                    tracer.emit(
                        _ev.LOSER_ELIMINATE,
                        block=self._trace_block,
                        arm=run.index,
                        name=run.alternative.name,
                        latency_seconds=0.0,
                        detail="timeout",
                        sim_time=self.timeout,
                    )
        timeline.append((self.timeout, "alt_wait TIMEOUT"))
        try:
            self.manager.alt_wait(parent, timed_out=True)
        except (AltTimeout, AltBlockFailure):
            pass
        error = AltTimeout(
            f"no alternative succeeded within {self.timeout} seconds"
        )
        error.partial_reports = tuple(
            {
                "index": outcome.index,
                "name": outcome.name,
                "state": outcome.status,
                "elapsed": outcome.cpu_consumed,
            }
            for outcome in outcomes
        )
        error.outcomes = outcomes
        error.elapsed = self.timeout
        error.timeline = timeline
        raise error

    # ------------------------------------------------------------------
    # supervision: retries, degradation, autopsies

    def _demote_winner(
        self, race, winner_index, by_index, parent, outcomes, timeline,
        spawn_done, exc,
    ) -> None:
        """A winner whose page shipment was rejected did not really win.

        The parent's space is untouched (``apply_pages`` validates before
        writing); every child is failed through the kernel so the block
        concludes as an :class:`AltBlockFailure` with the rejection
        recorded on the would-be winner's report.
        """
        report = race.report(winner_index)
        report.succeeded = False
        report.abnormal = True
        report.detail = f"winner shipback rejected: {exc}"
        race.winner_index = None
        outcome = outcomes[winner_index]
        outcome.status = "failed"
        outcome.detail = report.detail
        elapsed = spawn_done + race.total_seconds
        timeline.append((elapsed, f"{report.name} shipback rejected"))
        for child in by_index.values():
            try:
                self.manager.fail(child)
            except ProcessStateError:
                pass  # already failed or eliminated above
        try:
            self.manager.alt_wait(parent)
        except AltBlockFailure:
            pass
        timeline.append((elapsed, "block FAILED"))
        error = AltBlockFailure(
            f"winning alternative's page shipment was rejected: {exc}"
        )
        error.outcomes = outcomes
        error.elapsed = elapsed
        error.timeline = timeline
        raise error

    def _reset_outcomes(self, alternatives, spawnable, outcomes) -> None:
        """Fresh 'untried' outcome slots for a retry / degraded attempt."""
        for index in spawnable:
            outcomes[index] = AltOutcome(
                index=index,
                name=alternatives[index].name,
                status="untried",
            )

    def _attempt_autopsy(
        self,
        number: int,
        race: Optional[BackendRace],
        degraded: bool = False,
        backoff_before: float = 0.0,
    ) -> AttemptAutopsy:
        """Fold one backend race into an :class:`AttemptAutopsy`."""
        backend_name = "serial" if degraded else self.backend.name
        if race is None:
            return AttemptAutopsy(
                number=number,
                backend=backend_name,
                winner_index=None,
                timed_out=False,
                elapsed=0.0,
                degraded=degraded,
                backoff_before=backoff_before,
            )
        attempt = AttemptAutopsy(
            number=number,
            backend=race.backend,
            winner_index=race.winner_index,
            timed_out=race.timed_out,
            elapsed=race.total_seconds,
            degraded=degraded,
            backoff_before=backoff_before,
        )
        for report in race.reports:
            outcome = classify_outcome(
                report.succeeded,
                report.cancelled,
                report.abnormal,
                report.detail,
                report.exit_signal,
                winner_exists=race.winner_index is not None,
            )
            if outcome == "won" and report.index != race.winner_index:
                outcome = "eliminated"  # succeeded, but a sibling won first
            attempt.arms.append(
                ArmAutopsy(
                    index=report.index,
                    name=report.name,
                    outcome=outcome,
                    detail=report.detail,
                    signal=report.exit_signal,
                    elapsed=report.work_seconds,
                    abnormal=report.abnormal,
                )
            )
        return attempt

    def _finish_autopsy(self, autopsy: RaceAutopsy, started: float) -> None:
        autopsy.total_elapsed = _time.perf_counter() - started
        injector = _fault_registry.active()
        if injector is not None:
            autopsy.faults_fired = list(injector.log)

    def _run_supervised(
        self, alternatives, spawnable, parent, outcomes, timeline
    ) -> AltResult:
        """The supervised race loop: retry, degrade, always report.

        Each attempt is a full :meth:`_run_real` race against *fresh* COW
        children (a failed ``alt_wait`` restores the parent to RUNNABLE,
        so retries re-spawn from the parent's untouched world).  Abnormal
        deaths are retried with exponential backoff; when the final real
        attempt shows every arm dying abnormally, the block is replayed
        once on a :class:`SerialBackend` (with the fault injector
        suppressed when ``clean_replay``) before the FAIL arm is taken.
        A :class:`RaceAutopsy` is attached to whatever comes out --
        ``result.autopsy`` on success, ``error.autopsy`` on failure.
        """
        sup = self.supervisor
        autopsy = RaceAutopsy()
        started = _time.perf_counter()
        retries_used = 0
        backoff_before = 0.0
        attempt_number = 0
        last_error: Optional[Exception] = None

        while True:
            attempt_number += 1
            if attempt_number > 1:
                self._reset_outcomes(alternatives, spawnable, outcomes)
            self._last_race = None
            try:
                result = self._run_real(
                    alternatives, spawnable, parent, outcomes, timeline
                )
            except AltTimeout as exc:
                autopsy.attempts.append(
                    self._attempt_autopsy(
                        attempt_number, self._last_race,
                        backoff_before=backoff_before,
                    )
                )
                last_error = exc
                autopsy.outcome = "timeout"
                break  # a block-level deadline is final: no retry budget
            except AltBlockFailure as exc:
                attempt = self._attempt_autopsy(
                    attempt_number, self._last_race,
                    backoff_before=backoff_before,
                )
                autopsy.attempts.append(attempt)
                last_error = exc
                if attempt.any_retryable and retries_used < sup.max_retries:
                    retries_used += 1
                    backoff_before = sup.backoff(retries_used)
                    timeline.append(
                        (
                            _time.perf_counter() - started,
                            f"supervisor: retry {retries_used}/"
                            f"{sup.max_retries} after "
                            f"{backoff_before:.3f}s backoff",
                        )
                    )
                    tracer = _active_tracer()
                    if tracer.enabled:
                        tracer.emit(
                            _ev.BACKOFF,
                            block=self._trace_block,
                            seconds=backoff_before,
                            retry=retries_used,
                        )
                    _time.sleep(backoff_before)
                    if tracer.enabled:
                        tracer.emit(
                            _ev.RETRY,
                            block=self._trace_block,
                            retry=retries_used,
                            max_retries=sup.max_retries,
                        )
                    continue
                autopsy.outcome = "failed"
                break
            else:
                attempt = self._attempt_autopsy(
                    attempt_number, self._last_race,
                    backoff_before=backoff_before,
                )
                autopsy.attempts.append(attempt)
                autopsy.outcome = "won"
                autopsy.winner_index = attempt.winner_index
                self._finish_autopsy(autopsy, started)
                result.autopsy = autopsy
                return result

        # Graceful degradation: every real arm died abnormally, so give
        # the block one clean, ordered chance before the FAIL arm.
        if (
            sup.degrade_to_serial
            and isinstance(last_error, AltBlockFailure)
            and autopsy.attempts
            and autopsy.attempts[-1].all_abnormal
        ):
            attempt_number += 1
            self._reset_outcomes(alternatives, spawnable, outcomes)
            self._last_race = None
            timeline.append(
                (
                    _time.perf_counter() - started,
                    "supervisor: degrading to serial replay",
                )
            )
            tracer = _active_tracer()
            if tracer.enabled:
                tracer.emit(
                    _ev.DEGRADE,
                    block=self._trace_block,
                    reason="all arms died abnormally",
                    clean_replay=sup.clean_replay,
                )
            try:
                if sup.clean_replay:
                    with _fault_registry.suppressed():
                        result = self._run_real(
                            alternatives, spawnable, parent, outcomes,
                            timeline, backend=SerialBackend(),
                        )
                else:
                    result = self._run_real(
                        alternatives, spawnable, parent, outcomes,
                        timeline, backend=SerialBackend(),
                    )
            except (AltTimeout, AltBlockFailure) as exc:
                autopsy.attempts.append(
                    self._attempt_autopsy(
                        attempt_number, self._last_race, degraded=True
                    )
                )
                last_error = exc
                autopsy.outcome = (
                    "timeout" if isinstance(exc, AltTimeout) else "failed"
                )
            else:
                attempt = self._attempt_autopsy(
                    attempt_number, self._last_race, degraded=True
                )
                autopsy.attempts.append(attempt)
                autopsy.outcome = "degraded"
                autopsy.winner_index = attempt.winner_index
                self._finish_autopsy(autopsy, started)
                result.autopsy = autopsy
                return result

        self._finish_autopsy(autopsy, started)
        last_error.autopsy = autopsy
        raise last_error
