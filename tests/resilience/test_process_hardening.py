"""ProcessBackend hardening: framing, truncation, promotion, reaping."""

import os
import pickle
import signal
import time

import pytest

from repro.core.alternative import Alternative
from repro.core.backends import ProcessBackend
from repro.core.backends.base import ArmTask
from repro.core.backends.wire import (
    FRAME as _FRAME,
    MAGIC as _MAGIC,
    RecordReader as _RecordReader,
    frame_record as _frame_record,
)
from repro.core.concurrent import ConcurrentExecutor
from repro.errors import AltBlockFailure
from repro.obs import events as ev
from repro.obs.tracer import Tracer, tracing
from repro.pages.shm import shm_available
from repro.process.pool import WorldPool, fork_pool
from repro.resilience import FaultInjector, injected

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


def assert_no_unreaped_children():
    """Every forked arm must be reaped by the time a race returns."""
    assert_no_arm_left(fork_pool())
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def block(n=2, delay=0.05):
    """``n`` arms; arm 0 finishes first, later arms are slower."""
    def make(i):
        return Alternative(
            f"arm{i}", body=lambda ctx, i=i: ctx.sleep(i * delay) or f"v{i}"
        )
    return [make(i) for i in range(n)]


class TestRecordReader:
    def test_roundtrip(self):
        frame, code = _frame_record({"index": 0, "ok": True, "value": 7})
        assert code == 0
        reader = _RecordReader()
        (record,) = reader.feed(frame)
        assert record["value"] == 7
        assert not reader.pending and not reader.corrupt

    def test_split_delivery(self):
        frame, _ = _frame_record({"index": 1, "ok": False, "detail": "x"})
        reader = _RecordReader()
        assert reader.feed(frame[:5]) == []
        assert reader.pending
        (record,) = reader.feed(frame[5:])
        assert record["detail"] == "x"

    def test_checksum_mismatch_detected(self):
        frame, _ = _frame_record({"index": 0, "ok": True, "value": 1})
        tampered = frame[:-1] + bytes([frame[-1] ^ 0xFF])
        reader = _RecordReader()
        assert reader.feed(tampered) == []
        assert reader.corrupt
        assert "checksum" in reader.corrupt_detail

    def test_bad_magic_detected(self):
        frame, _ = _frame_record({"index": 0, "ok": True, "value": 1})
        reader = _RecordReader()
        assert reader.feed(b"XX" + frame[2:]) == []
        assert reader.corrupt
        assert "header" in reader.corrupt_detail

    def test_truncation_leaves_pending(self):
        frame, _ = _frame_record({"index": 0, "ok": True, "value": 1})
        reader = _RecordReader()
        assert reader.feed(frame[: _FRAME.size + 3]) == []
        assert reader.pending and not reader.corrupt

    def test_unpicklable_value_becomes_named_failure(self):
        frame, code = _frame_record(
            {"index": 0, "ok": True, "value": lambda: None}
        )
        assert code == 81
        (record,) = _RecordReader().feed(frame)
        assert record["ok"] is False
        assert record["abnormal"] is True
        assert "not picklable" in record["detail"]


class TestWinnerPromotion:
    def test_corrupt_record_never_wins(self, fault_seed):
        """The fastest arm's record is corrupted on the wire; the next
        intact finisher is promoted to winner."""
        injector = FaultInjector(seed=fault_seed).record_corrupt(arms=[0])
        executor = ConcurrentExecutor(backend=ProcessBackend(kill_grace=0.5))
        with injected(injector):
            result = executor.run(block())
        assert result.value == "v1"
        report = executor._last_race.report(0)
        assert report.abnormal
        assert "corrupt" in report.detail
        assert_no_unreaped_children()

    def test_winner_death_during_shipback_promotes_next(self, fault_seed):
        """A child dying mid-shipback (truncated frame) never becomes the
        winner; its sibling is promoted."""
        injector = FaultInjector(seed=fault_seed).pipe_truncate(arms=[0])
        executor = ConcurrentExecutor(backend=ProcessBackend(kill_grace=0.5))
        with injected(injector):
            result = executor.run(block())
        assert result.value == "v1"
        report = executor._last_race.report(0)
        assert report.abnormal
        assert "truncated" in report.detail
        assert_no_unreaped_children()

    def test_every_record_corrupt_fails_the_block(self, fault_seed):
        injector = FaultInjector(seed=fault_seed).record_corrupt(times=None)
        executor = ConcurrentExecutor(backend=ProcessBackend(kill_grace=0.5))
        with injected(injector), pytest.raises(AltBlockFailure):
            executor.run(block())
        assert_no_unreaped_children()

    def test_unpicklable_winner_value_demotes_the_arm(self):
        arms = [
            Alternative("bad", body=lambda ctx: (lambda: None)),
            Alternative("good", body=lambda ctx: ctx.sleep(0.05) or "good"),
        ]
        executor = ConcurrentExecutor(backend=ProcessBackend(kill_grace=0.5))
        result = executor.run(arms)
        assert result.value == "good"
        assert "not picklable" in result.outcome("bad").detail
        assert_no_unreaped_children()


class TestReaping:
    def test_reclaim_abandoned_reaps_an_unfinished_one_shot(self):
        """A race that dies between ``lease`` and ``finish`` leaves its
        one-shot running; the reclaim sweep kills and reaps it."""
        pool = fork_pool()
        task = ArmTask(
            index=0, name="sleeper",
            run=lambda: (time.sleep(60), (True, None, ""))[1],
        )
        lease = pool.lease(task, time.perf_counter())
        assert lease.one_shot and pool.inflight == 1
        assert pool.reclaim_abandoned(older_than=0.0) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(lease.pid, os.WNOHANG)
        assert_no_arm_left(pool)
        # A late finish from the dead race's cleanup is a no-op.
        assert pool.finish({0: lease}, clean=set()) == {}
        assert_no_unreaped_children()

    def test_race_leaves_no_children_behind(self, fault_seed):
        injector = (
            FaultInjector(seed=fault_seed)
            .arm_sigkill(arms=[1])
            .arm_hang(arms=[2], duration=30.0)
        )
        executor = ConcurrentExecutor(backend=ProcessBackend(kill_grace=0.3))
        with injected(injector):
            result = executor.run(block(n=3))
        assert result.value == "v0"
        assert_no_unreaped_children()


class _Arm:
    """Picklable arm body (so a pool leases it): sleep, write, return."""

    def __init__(self, seconds, value):
        self.seconds = seconds
        self.value = value

    def __call__(self, ctx):
        ctx.sleep(self.seconds)
        ctx.put("who", self.value)
        return self.value


KILLED = signal.SIGKILL
TOLD = (False, True, False, None, None)
DIED = (False, True, True, KILLED, None)
MANGLED = (False, True, True, None, None)
RAISED = (False, False, True, None, None)

# (fault, faulted arms, winner, forked reports, pooled reports).  In the
# pooled race arms 0 and 1 lease the two workers and arm 2 falls back.
# A leased arm still deaf at the commit is left to the pool (told, not
# abnormal), even while the race waits for a deaf one-shot: the grace
# kill goes only to arms the race waits for.  A forked one is waited for
# and killed at the grace.
WON = object()
ARM_SOURCE_PINS = [
    (None, (), 0, (WON, TOLD, TOLD), (WON, TOLD, TOLD)),
    ("arm-sigkill", (0, 2), 1, (DIED, WON, DIED), (DIED, WON, DIED)),
    ("arm-hang", (0,), 1, (DIED, WON, TOLD), (TOLD, WON, TOLD)),
    ("arm-hang", (2,), 0, (WON, TOLD, DIED), (WON, TOLD, DIED)),
    ("arm-hang", (0, 2), 1, (DIED, WON, DIED), (TOLD, WON, DIED)),
    ("arm-raise", (0, 2), 1, (RAISED, WON, RAISED), (RAISED, WON, RAISED)),
    ("pipe-truncate", (0, 2), 1,
     (MANGLED, WON, MANGLED), (MANGLED, WON, MANGLED)),
    ("record-corrupt", (0, 2), 1,
     (MANGLED, WON, MANGLED), (MANGLED, WON, MANGLED)),
    ("shm-attach-fail", (0, 2), 0, (WON, TOLD, TOLD), (WON, TOLD, TOLD)),
]


def assert_arm_reports(source, fault, arms, winner, expected, fault_seed):
    """Race the pinned 3-arm block with ``fault`` on ``arms``, forked or
    on a 2-worker pool, and check each arm's report against ``expected``
    and that no arm is left behind."""
    transport = "shm" if shm_available() else "pipe"
    if fault == "shm-attach-fail":
        transport = "pipe"
    won = (True, False, False, None, transport)
    injector = FaultInjector(seed=fault_seed)
    if fault is not None:
        injector.add(fault, arms=arms, times=None)
    pool = WorldPool(2) if source == "pooled" else None
    try:
        executor = ConcurrentExecutor(
            backend=ProcessBackend(kill_grace=0.3, pool=pool)
        )
        block = [
            Alternative(f"arm{i}", body=_Arm(seconds, f"v{i}"))
            for i, seconds in enumerate((0.0, 0.3, 1.0))
        ]
        with injected(injector):
            result = executor.run(block)
        assert result.winner.name == f"arm{winner}"
        assert result.value == f"v{winner}"
        reports = [executor._last_race.report(i) for i in range(3)]
        seen = [
            (r.succeeded, r.cancelled, r.abnormal, r.exit_signal,
             r.page_transport)
            for r in reports
        ]
        assert seen == [
            won if pin is WON else pin for pin in expected
        ], [r.detail for r in reports]
        if pool is not None:
            assert pool.fallbacks == 1
            assert pool.drain(timeout=10.0)
            assert_no_arm_left(pool)
    finally:
        if pool is not None:
            pool.shutdown()
    assert_no_unreaped_children()


class TestArmSourcePins:
    """What each arm of a 3-arm block reports, forked and on a 2-worker
    pool (one arm falls back), with and without each arm-side fault."""

    @pytest.mark.parametrize("source", ["forked", "pooled"])
    @pytest.mark.parametrize(
        "fault, arms, winner, forked, pooled", ARM_SOURCE_PINS,
        ids=[
            f"{pin[0]}@{'+'.join(map(str, pin[1]))}" if pin[0] else "none"
            for pin in ARM_SOURCE_PINS
        ],
    )
    def test_every_arm_reports_what_it_did(
        self, source, fault, arms, winner, forked, pooled, fault_seed
    ):
        expected = forked if source == "forked" else pooled
        assert_arm_reports(source, fault, arms, winner, expected, fault_seed)

    def test_a_deaf_leased_arm_beside_a_deaf_one_shot_is_always_told(
        self, fault_seed
    ):
        """The grace kill goes to the deaf one-shot alone, so the deaf
        leased arm is left to the pool whichever pipe ``select`` returns
        first: the same report on every run."""
        for _ in range(10):
            assert_arm_reports(
                "pooled", "arm-hang", (0, 2), 1, (TOLD, WON, DIED),
                fault_seed,
            )

    @pytest.mark.parametrize("source", ["forked", "pooled"])
    def test_a_fallback_arm_traces_as_a_forked_one(self, source):
        """Every arm traces its slab (``shm-map``); only an arm a parked
        worker took traces a ``pool-lease``."""
        pool = WorldPool(2) if source == "pooled" else None
        tracer = Tracer()
        try:
            executor = ConcurrentExecutor(
                backend=ProcessBackend(kill_grace=0.3, pool=pool)
            )
            block = [
                Alternative(f"arm{i}", body=_Arm(seconds, f"v{i}"))
                for i, seconds in enumerate((0.0, 0.3, 1.0))
            ]
            with tracing(tracer):
                assert executor.run(block).value == "v0"
        finally:
            if pool is not None:
                pool.shutdown()

        def arms(kind):
            return sorted(e.arm for e in tracer.events
                          if e.kind == kind)

        assert arms(ev.SHM_MAP) == ([0, 1, 2] if shm_available() else [])
        assert arms(ev.POOL_LEASE) == ([0, 1] if pool is not None else [])
