"""Supervised races: watchdog, retries, degradation, autopsies."""

import os
import time

import pytest

from repro.core.alternative import Alternative
from repro.core.backends import ProcessBackend, ThreadBackend
from repro.core.concurrent import ConcurrentExecutor
from repro.errors import AltBlockFailure, AltTimeout
from repro.resilience import (
    FaultInjector,
    Supervisor,
    Watchdog,
    injected,
)

pytestmark = [
    pytest.mark.slow,
    pytest.mark.subprocess,
    pytest.mark.skipif(not hasattr(os, "fork"), reason="requires os.fork"),
]


def assert_no_arm_left(pool):
    """Every lease of ``pool`` is settled: none in flight, no one-shot
    left in its ledger."""
    assert pool.stats()["inflight"] == 0
    assert not any(w.one_shot for w in pool._ledger.workers.values())


def quick_supervisor(**overrides):
    defaults = dict(max_retries=1, backoff_base=0.01, backoff_cap=0.05)
    defaults.update(overrides)
    return Supervisor(**defaults)


def block(n=2):
    return [
        Alternative(f"arm{i}", body=lambda ctx, i=i: f"v{i}")
        for i in range(n)
    ]


class _PooledScratchBody:
    """A picklable writing body, so the arm can lease a pooled worker."""

    def __init__(self, index):
        self.index = index

    def __call__(self, ctx):
        ctx.put(f"scratch-{self.index}", list(range(50)))
        return f"v{self.index}"


class TestSupervisorPolicy:
    def test_backoff_is_capped_exponential(self):
        sup = Supervisor(
            backoff_base=0.1, backoff_factor=2.0, backoff_cap=0.3, jitter=0.0
        )
        assert sup.backoff(1) == pytest.approx(0.1)
        assert sup.backoff(2) == pytest.approx(0.2)
        assert sup.backoff(3) == pytest.approx(0.3)  # capped
        assert sup.backoff(4) == pytest.approx(0.3)

    def test_backoff_jitter_is_seeded(self):
        first = [Supervisor(seed=5).backoff(k) for k in (1, 2, 3)]
        second = [Supervisor(seed=5).backoff(k) for k in (1, 2, 3)]
        assert first == second
        base = Supervisor(seed=5, jitter=0.0)
        for k, delay in enumerate(first, start=1):
            centre = base.backoff(k)
            assert centre * 0.5 <= delay <= centre * 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            Supervisor(arm_deadline=0.0)
        with pytest.raises(ValueError):
            Supervisor(max_retries=-1)
        with pytest.raises(ValueError):
            Supervisor(jitter=2.0)


class TestWatchdog:
    def test_fires_soft_then_hard(self):
        calls = []
        dog = Watchdog(0.05, 0.05, lambda hard: calls.append(hard)).start()
        time.sleep(0.25)
        dog.stop()
        assert calls == [False, True]
        assert dog.fired_soft and dog.fired_hard

    def test_stop_cancels_pending_firings(self):
        calls = []
        dog = Watchdog(5.0, 1.0, lambda hard: calls.append(hard)).start()
        dog.stop()
        assert calls == []
        assert not dog.fired_soft


class TestSupervisedRaces:
    def test_clean_race_attaches_autopsy(self):
        executor = ConcurrentExecutor(
            backend=ProcessBackend(kill_grace=0.5),
            supervisor=quick_supervisor(),
        )
        result = executor.run(block())
        autopsy = result.autopsy
        assert autopsy.outcome == "won"
        assert autopsy.total_retries == 0
        assert not autopsy.degraded
        assert len(autopsy.attempts) == 1
        assert autopsy.attempts[0].winner_index == result.winner.index

    def test_abnormal_death_is_retried_in_a_fresh_world(self, fault_seed):
        """First attempt: both arms die.  The retry re-spawns fresh COW
        children (the exhausted fault rules no longer fire) and wins."""
        injector = FaultInjector(seed=fault_seed).arm_sigkill(times=1)
        executor = ConcurrentExecutor(
            backend=ProcessBackend(kill_grace=0.5),
            supervisor=quick_supervisor(),
        )
        with injected(injector):
            result = executor.run(block())
        autopsy = result.autopsy
        assert autopsy.outcome == "won"
        assert autopsy.total_retries == 1
        assert autopsy.attempts[0].all_abnormal
        assert autopsy.attempts[1].backoff_before > 0.0
        assert autopsy.attempts[1].winner_index is not None
        assert autopsy.faults_fired  # the injector's log is carried over

    def test_semantic_failure_is_never_retried(self):
        arms = [
            Alternative("refuses", body=lambda ctx: ctx.fail("nope")),
            Alternative("also", body=lambda ctx: ctx.fail("nope")),
        ]
        executor = ConcurrentExecutor(
            backend=ProcessBackend(kill_grace=0.5),
            supervisor=quick_supervisor(max_retries=3),
        )
        with pytest.raises(AltBlockFailure) as info:
            executor.run(arms)
        autopsy = info.value.autopsy
        assert autopsy.outcome == "failed"
        assert autopsy.total_retries == 0  # guard failures are not retryable
        assert not autopsy.degraded
        assert all(
            arm.outcome == "failed" for arm in autopsy.attempts[0].arms
        )

    def test_degrades_to_serial_replay_when_every_arm_dies(self, fault_seed):
        injector = FaultInjector(seed=fault_seed).arm_sigkill(times=None)
        executor = ConcurrentExecutor(
            backend=ProcessBackend(kill_grace=0.5),
            supervisor=quick_supervisor(),
        )
        with injected(injector):
            result = executor.run(block())
        autopsy = result.autopsy
        assert result.value == "v0"
        assert autopsy.outcome == "degraded"
        assert autopsy.degraded
        assert autopsy.attempts[-1].degraded
        assert autopsy.attempts[-1].backend == "serial"
        # clean_replay suppressed the injector during the replay: the
        # replay arms ran normally.
        assert autopsy.attempts[-1].winner_index is not None

    def test_dirty_replay_keeps_faults_armed(self, fault_seed):
        injector = FaultInjector(seed=fault_seed).arm_sigkill(times=None)
        executor = ConcurrentExecutor(
            backend=ProcessBackend(kill_grace=0.5),
            supervisor=quick_supervisor(clean_replay=False),
        )
        with injected(injector), pytest.raises(AltBlockFailure) as info:
            executor.run(block())
        autopsy = info.value.autopsy
        assert autopsy.outcome == "failed"
        assert autopsy.attempts[-1].degraded  # replay ran, and also died

    def test_watchdog_bounds_a_wedged_race(self):
        """Arms that would run for 30s are terminated at the deadline."""
        arms = [
            Alternative("slow0", body=lambda ctx: ctx.sleep(30.0) or "s0"),
            Alternative("slow1", body=lambda ctx: ctx.sleep(30.0) or "s1"),
        ]
        executor = ConcurrentExecutor(
            backend=ThreadBackend(join_grace=0.5),
            supervisor=quick_supervisor(
                arm_deadline=0.3, kill_grace=0.3, max_retries=0,
                degrade_to_serial=False,
            ),
        )
        started = time.perf_counter()
        with pytest.raises(AltBlockFailure) as info:
            executor.run(arms)
        assert time.perf_counter() - started < 10.0
        autopsy = info.value.autopsy
        assert autopsy.attempts[0].winner_index is None

    def test_timeout_is_final_and_carries_partial_reports(self):
        arms = [
            Alternative("sleeper", body=lambda ctx: ctx.sleep(30.0) or "s"),
        ]
        executor = ConcurrentExecutor(
            backend=ThreadBackend(join_grace=0.2),
            timeout=0.3,
            supervisor=quick_supervisor(max_retries=3),
        )
        with pytest.raises(AltTimeout) as info:
            executor.run(arms)
        autopsy = info.value.autopsy
        assert autopsy.outcome == "timeout"
        assert len(autopsy.attempts) == 1  # a block deadline is not retried
        assert info.value.partial_reports
        assert info.value.partial_reports[0]["name"] == "sleeper"


class TestAcceptanceKillEveryArm:
    """ISSUE acceptance: a 4-arm block on ProcessBackend with every arm
    killed or corrupted still returns a complete autopsy, leaves the
    parent's space byte-identical, and leaks no child process."""

    def hostile_injector(self, fault_seed):
        return (
            FaultInjector(seed=fault_seed)
            .arm_sigkill(arms=[0, 1], times=None)
            .record_corrupt(arms=[2], times=None)
            .pipe_truncate(arms=[3], times=None)
        )

    def writing_block(self):
        def make(i):
            def body(ctx, i=i):
                ctx.put(f"scratch-{i}", list(range(50)))
                return f"v{i}"
            return Alternative(f"arm{i}", body=body)
        return [make(i) for i in range(4)]

    def run_case(self, fault_seed, **supervisor_overrides):
        from repro.process.pool import fork_pool

        executor = ConcurrentExecutor(
            backend=ProcessBackend(kill_grace=0.3),
            supervisor=quick_supervisor(**supervisor_overrides),
        )
        parent = executor.new_parent()
        parent.space.put("precious", "untouched")
        snapshot = parent.space.read(0, parent.space.size)
        outcome = None
        error = None
        with injected(self.hostile_injector(fault_seed)):
            try:
                outcome = executor.run(self.writing_block(), parent=parent)
            except AltBlockFailure as exc:
                error = exc
        assert_no_arm_left(fork_pool())
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        return outcome, error, parent, snapshot

    def test_fail_arm_with_complete_autopsy(self, fault_seed):
        outcome, error, parent, snapshot = self.run_case(
            fault_seed, degrade_to_serial=False
        )
        assert outcome is None and error is not None
        autopsy = error.autopsy
        assert autopsy.outcome == "failed"
        assert autopsy.total_retries == 1
        for attempt in autopsy.attempts:
            assert len(attempt.arms) == 4
            assert attempt.all_abnormal
            for arm in attempt.arms:
                assert arm.outcome in ("killed", "corrupt", "hung", "crashed")
        assert len(autopsy.arm_history(0)) == len(autopsy.attempts)
        assert autopsy.faults_fired
        # The parent's world never saw any of the dead arms' writes.
        assert parent.space.read(0, parent.space.size) == snapshot
        assert parent.space.get("precious") == "untouched"

    def test_degraded_replay_rescues_the_block(self, fault_seed):
        outcome, error, parent, snapshot = self.run_case(
            fault_seed, degrade_to_serial=True
        )
        assert error is None and outcome is not None
        assert outcome.value == "v0"
        autopsy = outcome.autopsy
        assert autopsy.outcome == "degraded"
        assert autopsy.attempts[-1].degraded
        # The degraded winner's writes (and only those) were committed.
        assert parent.space.get("scratch-0") == list(range(50))
        assert parent.space.get("scratch-1") is None
        assert parent.space.get("precious") == "untouched"

    def test_pooled_storm_leaves_no_children_and_no_shm_segments(
        self, fault_seed
    ):
        """The same SIGKILL/corrupt/truncate storm, through the world pool.

        The hostile arms ride pre-warmed pooled workers (picklable bodies,
        unlike :meth:`writing_block`'s closures) over the shared-memory
        slab fabric; after the storm and the pool's shutdown there must be
        no surviving child process and not one orphaned ``/dev/shm``
        segment beyond what was pinned before the test.
        """
        from repro.pages.shm import orphaned_segments
        from repro.process.pool import WorldPool

        before = set(orphaned_segments())
        pool = WorldPool(size=4)
        arms = [
            Alternative(f"arm{i}", body=_PooledScratchBody(i))
            for i in range(4)
        ]
        executor = ConcurrentExecutor(
            backend=ProcessBackend(kill_grace=0.3, pool=pool),
            supervisor=quick_supervisor(degrade_to_serial=False),
        )
        parent = executor.new_parent()
        parent.space.put("precious", "untouched")
        snapshot = parent.space.read(0, parent.space.size)
        try:
            with injected(self.hostile_injector(fault_seed)):
                with pytest.raises(AltBlockFailure) as info:
                    executor.run(arms, parent=parent)
            assert pool.drain(timeout=30.0)
            assert_no_arm_left(pool)
        finally:
            pool.shutdown()
        autopsy = info.value.autopsy
        assert autopsy.outcome == "failed"
        for attempt in autopsy.attempts:
            assert attempt.all_abnormal
        # Every storm casualty was a pooled worker or a clean fork: the
        # parent's world is untouched and nothing leaked.
        assert parent.space.read(0, parent.space.size) == snapshot
        assert parent.space.get("precious") == "untouched"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        parent.space.release()
        assert set(orphaned_segments()) == before
