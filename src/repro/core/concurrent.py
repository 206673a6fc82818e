"""Concurrent speculative execution of an alternative block (section 3).

Every block runs one pipeline, whatever backend races it:

1. *plan* -- guards placed before the spawn close arms in the parent, and
   a block whose arms all declare disjoint write-sets gets a maximal-step
   plan (:mod:`repro.independence`);
2. *spawn* -- ``alt_spawn`` forks each open arm as a COW child of the
   caller, with a cancellation token the kernel's elimination fires;
3. *collect* -- a parallel backend's ``run_arms`` races the bodies at the
   wall clock; on the serial backend the bodies run one at a time and the
   *model race* re-times them under the section 4 cost model (below).
   Either way the result is one :class:`~repro.core.backends.BackendRace`;
4. *decide* -- the first success wins the at-most-once rendezvous
   (``alt_sync``), or a validated maximal step takes every success;
5. *commit* -- the parent adopts the winner's pages by pointer swap
   (``alt_wait``; ``alt_step_commit`` for a step);
6. *eliminate* -- the losing siblings are terminated synchronously or
   asynchronously.

Steps 4-6 read only the race, never which backend produced it: one
fastest-first conclusion and one maximal-step conclusion serve them all.

The model race times a block deterministically:

- *setup*: the parent issues forks serially, so the arm in spawn slot
  ``i`` starts at ``(i + 1) * fork_latency``;
- *runtime*: each child's CPU demand is its standalone execution time plus
  the COW copies for the pages it writes; demands contend on ``cpus``
  processors under egalitarian processor sharing (virtual concurrency);
- *selection*: the rendezvous costs ``sync_latency``; termination
  instructions for the ``k-1`` siblings are issued at ``kill_latency``
  apiece, before the parent resumes (synchronous elimination) or after it
  (asynchronous).  Losers keep consuming CPU until their kill lands, which
  is the throughput price the paper accepts.

State semantics are *not* modelled -- they are executed for real on the
paged store via :class:`~repro.process.ProcessManager`, so losers' writes
provably never reach the parent.
"""

from __future__ import annotations

import contextlib
import random
import time as _time
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


class ConcurrentExecutor:
    """Race all alternatives; fastest successful one wins.

    ``elimination`` times the model race: termination instructions cost
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
        if self.backend.is_parallel and self.supervisor is not None:
            # Supervised races retry with fresh worlds; they keep the
            # classic first-success selection.
            return self._run_supervised(
                alternatives, spawnable, parent, outcomes, timeline
            )
        return self._run_race(
            alternatives, spawnable, parent, outcomes, timeline,
            step_plan=step_plan, modelled=not self.backend.is_parallel,
        )

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
    # plan: guards placed before the spawn

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
    # spawn and collect

    def _build_tasks(self, alternatives, spawnable, children) -> List[ArmTask]:
        """One :class:`ArmTask` per spawned arm, against its COW child.

        Each arm's context carries a cancellation token, and the kernel's
        termination instruction lands on it (section 3.2.1, delivered for
        real) until the race is concluded.
        """
        skip_pre_guard = self.guard_placement is GuardPlacement.BEFORE_SPAWN
        tasks: List[ArmTask] = []
        for index, child in zip(spawnable, children):
            arm = alternatives[index]
            seed = self.seed * 1000003 + index
            context = AltContext(
                child.space,
                rng=seed,
                alt_index=index + 1,
                name=arm.name,
                process=child,
                token=CancellationToken(),
            )
            context.trace_block = self._trace_block
            self.manager.attach_elimination_hook(
                child.pid, context.token.cancel
            )
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
                    rng_seed=seed,
                )
            )
        return tasks

    def _run_race(
        self, alternatives, spawnable, parent, outcomes, timeline,
        backend: Optional[ExecutionBackend] = None,
        step_plan: Optional[StepPlan] = None,
        modelled: bool = False,
    ) -> AltResult:
        """Spawn the open arms, collect their race, and conclude it.

        ``backend`` (default ``self.backend``) collects the race at the
        wall clock -- the supervisor's degraded serial replay passes a
        ``SerialBackend``; ``modelled`` collects it through
        :meth:`_model_race` instead.  Either race is concluded by
        :meth:`_conclude`.

        When a supervisor with an ``arm_deadline`` is configured, a
        :class:`~repro.resilience.Watchdog` delivers the termination
        instruction to every arm still racing at the deadline and
        escalates to a forcible kill after its grace period.  A backend
        that raises leaves nothing behind in the kernel: every child
        fails, the parent is released, and the error propagates.
        """
        backend = backend if backend is not None else self.backend
        spawn_start = _time.perf_counter()
        children = self.manager.alt_spawn(parent, len(spawnable))
        tasks = self._build_tasks(alternatives, spawnable, children)
        # The model times its own forks; a real race starts once the
        # kernel's spawn is done.
        spawn_done = 0.0 if modelled else _time.perf_counter() - spawn_start
        tracer = _active_tracer()
        for task, child in zip(tasks, children):
            outcomes[task.index].pid = child.pid
            if not modelled:
                timeline.append(
                    (spawn_done, f"spawn {task.name} (pid {child.pid})")
                )
            if tracer.enabled:
                tracer.emit(
                    _ev.ARM_SPAWN,
                    block=self._trace_block,
                    arm=task.index,
                    name=task.name,
                    sim_pid=child.pid,
                    backend=backend.name,
                )

        watchdog = None
        if (
            self.supervisor is not None
            and self.supervisor.arm_deadline is not None
            and backend.is_parallel
        ):

            def _terminate(hard: bool) -> None:
                for task in tasks:
                    delivered = backend.terminate_arm(task.index, hard=hard)
                    if not delivered and not hard:
                        task.context.token.cancel()

            watchdog = Watchdog(
                self.supervisor.arm_deadline,
                self.supervisor.kill_grace,
                _terminate,
                trace_block=self._trace_block,
            ).start()
        collect_all = step_plan is not None
        try:
            try:
                if modelled:
                    race = self._model_race(alternatives, tasks, collect_all)
                else:
                    race = backend.run_arms(
                        tasks, timeout=self.timeout, collect_all=collect_all
                    )
            except BaseException:
                # No race to conclude: fail every child so the parent
                # can spawn again, and let the error out.
                for child in children:
                    self.manager.fail(child)
                with contextlib.suppress(AltBlockFailure):
                    self.manager.alt_wait(parent)
                raise
            finally:
                if watchdog is not None:
                    watchdog.stop()
                    if watchdog.fired_soft:
                        timeline.append(
                            (
                                spawn_done + self.supervisor.arm_deadline,
                                "watchdog: arm deadline expired"
                                + (" (hard kill)" if watchdog.fired_hard
                                   else ""),
                            )
                        )
            self._last_race = race
            return self._conclude(
                race, dict(zip(spawnable, children)), parent, outcomes,
                timeline, spawn_done, step_plan,
            )
        finally:
            for child in children:
                self.manager.detach_elimination_hook(child.pid)

    def _model_race(
        self, alternatives, tasks: List[ArmTask], collect_all: bool
    ) -> BackendRace:
        """Collect a race by the cost model (see the module docstring).

        The bodies run to completion through a :class:`SerialBackend`
        (the deterministic replay discipline, which labels each arm's
        end), then the race is re-timed under :class:`ProcessorSharing`
        in model seconds from block entry.  The first success wins;
        failures before it are plain failures; every arm still running
        is cancelled when its termination instruction lands.  The
        deadline cuts the race.  A maximal-step plan with two successes
        runs every arm to completion and resumes once the last success
        has synchronized.
        """
        race = SerialBackend().run_arms(tasks)
        model = self.cost_model
        rng = random.Random(self.seed)
        cpus = self.cpus if self.cpus is not None else max(1, len(tasks))
        sched = ProcessorSharing(cpus=cpus)
        labels: Dict[int, str] = {}
        events: List[Tuple[float, str]] = []
        for slot, (task, (_, label)) in enumerate(zip(tasks, race.events)):
            arm = alternatives[task.index]
            report = race.report(task.index)
            labels[task.index] = label
            report.started_at = (slot + 1) * model.fork_latency
            report.duration = arm.sample_cost(rng, task.context)
            if self.guard_placement is GuardPlacement.IN_CHILD:
                # The child evaluates its own guard as part of its run.
                report.duration += arm.guard_cost
            child = task.context.process
            demand = report.duration + model.page_copy_time(
                child.space.pages_written
            )
            sched.add(task.index, arrival=report.started_at, demand=demand)
            events.append(
                (report.started_at, f"spawn {task.name} (pid {child.pid})")
            )

        def synchronized(win_time: float, index: int) -> float:
            done = win_time + model.sync_latency
            if self.guard_placement is GuardPlacement.AT_SYNC:
                # The parent re-evaluates the winner's guard.
                done += alternatives[index].guard_cost
            return done

        run_all = collect_all and sum(r.succeeded for r in race.reports) > 1
        race.winner_index = None
        finished: List[int] = []
        while True:
            step = sched.step_to_next_completion()
            if step is None:
                break
            when, index = step
            if self.timeout is not None and when > self.timeout:
                race.timed_out = True
                break
            finished.append(index)
            report = race.report(index)
            report.finished_at = when
            events.append((when, labels[index]))
            if report.succeeded and race.winner_index is None:
                race.winner_index = index
                if not run_all:
                    break
        race.elapsed = race.total_seconds = sched.now
        cut = [task.index for task in tasks if task.index not in finished]
        if race.timed_out:
            race.elapsed = race.total_seconds = self.timeout
        elif run_all:
            successes = sorted(i for i in finished if race.report(i).succeeded)
            race.elapsed = race.report(race.winner_index).finished_at
            race.total_seconds = synchronized(
                max(race.report(i).finished_at for i in successes),
                successes[0],
            )
        elif race.winner_index is not None:
            winner = sched.job(race.winner_index)
            race.sharing_delay = sched.now - winner.arrival - winner.demand
            sync_done = synchronized(sched.now, race.winner_index)
            # Termination instructions go out serially after the sync;
            # losers burn CPU until theirs lands.
            kills = [
                sync_done + (slot + 1) * model.kill_latency
                for slot in range(len(cut))
            ]
            for index, when in zip(cut, kills):
                sched.advance_to(when)
                sched.cancel(index)
                race.report(index).finished_at = when
                events.append((when, f"kill {race.report(index).name}"))
            race.total_seconds = sync_done
            if self.elimination is EliminationMode.SYNCHRONOUS:
                last_kill = max(kills, default=sync_done)
                race.total_seconds = max(sync_done, last_kill)
        for index in cut:
            report = race.report(index)
            report.succeeded, report.value, report.cancelled = False, None, True
            report.detail = "timeout" if race.timed_out else ""
            if race.timed_out:
                report.finished_at = None
        for report in race.reports:
            report.work_seconds = sched.job(report.index).consumed
        race.events = events
        race.setup_seconds = len(tasks) * model.fork_latency
        return race

    # ------------------------------------------------------------------
    # decide, commit, eliminate

    def _record_arms(self, race, by_index, outcomes, spawn_done) -> None:
        """Copy each arm's timings onto its outcome.  Read *before* the
        kernel commit: it releases the losers' spaces."""
        for index, child in by_index.items():
            report = race.report(index)
            outcome = outcomes[index]
            outcome.duration = (
                report.work_seconds if report.duration is None
                else report.duration
            )
            outcome.started_at = spawn_done + report.started_at
            outcome.finished_at = (
                None if report.finished_at is None
                else spawn_done + report.finished_at
            )
            outcome.cpu_consumed = report.work_seconds
            if report.page_transport is None and report.dirty_pages is None:
                outcome.pages_written = child.space.pages_written
            else:
                outcome.pages_written = report.pages_written

    def _resume(
        self, race, outcomes, timeline, winner_index, win_time, wasted,
        spawn_done, label,
    ) -> AltResult:
        """The parent resumes: the block's result, overheads and all."""
        # When the race gave the block back is when the parent resumed,
        # whatever the mode: the wait is the race's, not a choice made
        # here.
        resume_at = spawn_done + race.total_seconds
        timeline.sort(key=lambda event: event[0])
        timeline.append((resume_at, label))
        winner = outcomes[winner_index]
        report = race.report(winner_index)
        overhead = OverheadBreakdown(
            setup=spawn_done + race.setup_seconds,
            runtime=self.cost_model.page_copy_time(winner.pages_written)
            + max(0.0, race.sharing_delay),
            selection=max(0.0, resume_at - win_time),
        )
        return AltResult(
            value=report.value,
            winner=winner,
            outcomes=outcomes,
            elapsed=resume_at,
            overhead=overhead,
            wasted_work=wasted,
            timeline=timeline,
            page_transport=report.page_transport or race.page_transport,
        )

    def _conclude(
        self,
        race: BackendRace,
        by_index: Dict[int, SimProcess],
        parent: SimProcess,
        outcomes: List[AltOutcome],
        timeline: List[Tuple[float, str]],
        spawn_done: float,
        step_plan: Optional[StepPlan] = None,
    ) -> AltResult:
        """The one fastest-first conclusion, for every race.

        Drives the kernel to the race's decision -- ``fail`` for aborted
        arms, ``alt_sync`` for the winner, ``alt_wait`` with elimination
        for the cancelled losers -- so losers' writes never reach the
        parent, on any backend.  A maximal-step plan is tried first
        (:meth:`_conclude_step`).
        """
        for when, label in race.events:
            timeline.append((spawn_done + when, label))
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
        self._record_arms(race, by_index, outcomes, spawn_done)
        for index, child in by_index.items():
            report = race.report(index)
            outcome = outcomes[index]
            if report.succeeded:
                if index != winner_index:
                    # A race that ran every arm to completion (a serial
                    # replay, a refused step): later successes lose the
                    # rendezvous like any too-late arm.
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
        winner_outcome = outcomes[winner_index]
        winner_outcome.status = "won"
        winner_outcome.value = winner_report.value
        winner_outcome.finished_at = win_time
        wasted = sum(
            race.report(index).work_seconds
            for index in by_index
            if index != winner_index
        )
        return self._resume(
            race, outcomes, timeline, winner_index, win_time, wasted,
            spawn_done, "parent resumes",
        )

    @staticmethod
    def _dispose_extra_shipments(race: BackendRace) -> None:
        """Drop slabs of non-winning successes before a classic fallback."""
        for report in race.reports:
            if report.index == race.winner_index:
                continue
            if report.shm_shipment is not None:
                report.shm_shipment.slab.dispose()
                report.shm_shipment = None

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
        """The one maximal-step conclusion: commit every successful arm
        as one validated step (the independence engine's section 4
        selection-overhead optimisation: no winner semaphore, no kills).

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

        self._record_arms(race, by_index, outcomes, spawn_done)
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
        wasted = 0.0
        for index, report in reports.items():
            outcome = outcomes[index]
            if index in committers:
                outcome.value = report.value
                outcome.status = "won" if index == winner_index else "committed"
            else:
                outcome.status = "failed"
                outcome.detail = report.detail
                wasted += report.work_seconds

        tracer = _active_tracer()
        if tracer.enabled:
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
            tracer.emit(
                _ev.WINNER_COMMIT,
                block=self._trace_block,
                arm=winner_index,
                name=reports[winner_index].name,
                pages=outcomes[winner_index].pages_written,
                work_seconds=reports[winner_index].work_seconds,
                maximal_step=True,
            )

        win_time = spawn_done + max(
            reports[index].finished_at for index in committers
        )
        return self._resume(
            race, outcomes, timeline, winner_index, win_time, wasted,
            spawn_done, "parent resumes (maximal step)",
        )

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

        Each attempt is a full :meth:`_run_race` race against *fresh* COW
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
                result = self._run_race(
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
            replay = (
                _fault_registry.suppressed()
                if sup.clean_replay
                else contextlib.nullcontext()
            )
            try:
                with replay:
                    result = self._run_race(
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
