"""WorldPool lease accounting under concurrent multi-block callers.

PR 10's server races many blocks over ONE shared pool, so the lease
ledger must hold up when callers overlap: no worker ever double-leased,
``finish`` idempotent (a late finish after a reclaim sweep, or two
finishes of the same lease, must be no-ops), and a caller that crashes
between ``lease`` and ``finish`` must not leak its worker forever
(``reclaim_abandoned``).  The concurrent-race tests also pin that races
sharing one process never touch each other's forked arms: a second race
entering ``run_arms`` once swept -- i.e. SIGKILLed -- the first race's
still-live forked children.
"""

import random
import threading
import time

import pytest

from repro.core.alternative import AltContext, Alternative
from repro.core.backends import ProcessBackend
from repro.core.backends.base import ArmTask, CancellationToken
from repro.core.concurrent import ConcurrentExecutor
from repro.core.selection import OrderedPolicy
from repro.core.sequential import SequentialExecutor
from repro.obs import events as ev
from repro.obs.tracer import Tracer, tracing
from repro.pages.address_space import AddressSpace
from repro.pages.store import PageStore
from repro.process.ledger import DIRTY, DRAINING, PARKED
from repro.process.pool import WorldPool

import os

pytestmark = [
    pytest.mark.slow,
    pytest.mark.subprocess,
    pytest.mark.skipif(not hasattr(os, "fork"), reason="requires os.fork"),
]


class _Sleeper:
    """Picklable arm body (closures would force the fork fallback)."""

    def __init__(self, name, seconds, value):
        self.name = name
        self.seconds = seconds
        self.value = value

    def __call__(self, ctx):
        ctx.sleep(self.seconds)
        ctx.put("winner-name", self.name)
        return self.value


class _Deaf:
    """Picklable arm body that sleeps through its instruction
    (``time.sleep`` is no cancellation point) and reports late."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __call__(self, ctx):
        time.sleep(self.seconds)
        return "late"


def _block(tag, fast=0.01, slow=0.3):
    return [
        Alternative(f"quick-{tag}", body=_Sleeper(f"quick-{tag}", fast, "Q")),
        Alternative(f"slow-{tag}", body=_Sleeper(f"slow-{tag}", slow, "S")),
    ]


class _Step:
    """Picklable arm: read what the previous block committed, commit the
    next step -- a wrong world shows in every later block."""

    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __call__(self, ctx):
        step = ctx.get("step", 0)
        ctx.sleep(self.seconds)
        ctx.put("step", step + 1)
        # Midpoint of the space: clear of the variable directory.
        ctx.space.write(ctx.space.size // 2, f"{self.name}@{step}".encode())
        return (self.name, step)


def _steps(tag):
    return [
        Alternative(f"quick-{tag}", body=_Step(f"quick-{tag}", 0.0)),
        # Long enough that no stall of the host lets one win; told at
        # the commit, neither sleeps it out.
        Alternative(f"slow-{tag}", body=_Step(f"slow-{tag}", 0.5)),
        Alternative(f"slower-{tag}", body=_Step(f"slower-{tag}", 0.5)),
    ]


def _observe(result, parent):
    """Everything a caller can see of one concluded block."""
    space = parent.space
    return (
        result.value,
        result.winner.name,
        {name: space.get(name) for name in space.names()},
        space.read(0, space.size),
    )


def _handmade_task(index=0, seconds=0.05):
    """A real ArmTask without an executor: enough for ``pool.lease``."""
    store = PageStore(page_size=4096)
    space = AddressSpace(store, 64 * 1024)
    body = _Sleeper(f"arm-{index}", seconds, index)
    context = AltContext(
        space,
        rng=random.Random(index),
        alt_index=index + 1,
        name=f"arm-{index}",
        process=None,
        token=CancellationToken(),
    )
    return ArmTask(
        index=index,
        name=f"arm-{index}",
        run=lambda: (True, index, ""),
        context=context,
        alternative=Alternative(f"arm-{index}", body=body),
        rng_seed=index,
    )


@pytest.fixture
def pool():
    pool = WorldPool(size=2)
    yield pool
    pool.shutdown()


class TestLeaseLedger:
    def test_finish_is_idempotent(self, pool):
        lease = pool.lease(_handmade_task(), time.perf_counter())
        assert lease is not None
        assert pool.inflight == 1
        first = pool.finish({0: lease}, clean=set())
        assert pool.inflight == 0
        assert pool.parked == pool.size  # recycled and respawned
        # A second finish of the same (already settled) lease is a no-op:
        # it must not park, kill, or double-count any worker.
        respawns = pool.respawns
        second = pool.finish({0: lease}, clean=set())
        assert second == {}
        assert pool.respawns == respawns
        assert pool.parked == pool.size
        assert first is not second

    def test_reclaim_abandoned_frees_the_worker(self, pool):
        lease = pool.lease(_handmade_task(), time.perf_counter())
        assert lease is not None
        assert pool.parked == pool.size - 1
        # The caller "crashes" here: finish never runs.  Without the
        # reclaim sweep this worker would stay busy forever.
        assert pool.reclaim_abandoned(older_than=0.0) == 1
        assert pool.inflight == 0
        assert pool.parked == pool.size
        # A late finish from the crashed caller's cleanup must be a no-op.
        assert pool.finish({0: lease}, clean={0}) == {}
        assert pool.parked == pool.size

    def test_reclaim_spares_young_leases(self, pool):
        lease = pool.lease(_handmade_task(), time.perf_counter())
        assert lease is not None
        assert pool.reclaim_abandoned(older_than=60.0) == 0
        assert pool.inflight == 1
        pool.finish({0: lease}, clean=set())
        assert pool.inflight == 0

    def test_no_double_lease_when_pool_is_exhausted(self, pool):
        start = time.perf_counter()
        held = [pool.lease(_handmade_task(i), start) for i in range(pool.size)]
        assert all(lease is not None for lease in held)
        pids = {lease.pid for lease in held}
        assert len(pids) == pool.size  # every lease on a distinct worker
        # Exhausted: the next lease must fall back to a one-shot worker
        # of its own, never double-book.
        fallbacks = pool.fallbacks
        extra = pool.lease(_handmade_task(9), start)
        assert extra.one_shot and extra.pid not in pids
        assert extra.pid not in pool.worker_pids()
        assert pool.fallbacks == fallbacks + 1
        assert pool.inflight == pool.size + 1
        for i, lease in enumerate(held + [extra]):
            pool.finish({i: lease}, clean=set())
        assert pool.parked == pool.size and pool.inflight == 0
        assert len(pool._ledger.workers) == pool.size  # the one-shot went

    def test_a_lease_waits_for_the_worker_a_drainer_is_settling(self):
        """The drainer has settled a worker and its heir is being forked:
        the worker is in no hand a lease can take.  A lease that looks
        then, with nobody parked and nothing left draining, waits for
        the heir instead of forking (a pool as wide as its callers never
        forks)."""
        pool = WorldPool(size=1)
        ledger = pool._ledger
        try:
            with pool._lock:  # mid-settlement: dead, its heir not born
                epoch = ledger.grant(time.monotonic())
                worker = ledger.holder(epoch).proc
                assert ledger.cancel(epoch, time.monotonic(), 30.0)
                assert ledger.detach(epoch, None, None)
                assert ledger.take_drain()
                assert ("respawn", 0) in ledger.heard(
                    epoch, time.monotonic(), DIRTY
                )
                assert ledger.count(PARKED) == 0
                assert ledger.count(DRAINING) == 0
            got = []
            leaser = threading.Thread(
                target=lambda: got.append(
                    pool.lease(_handmade_task(), time.perf_counter())
                )
            )
            leaser.start()
            time.sleep(0.2)
            assert leaser.is_alive()  # waiting, not forking
            with pool._moved:  # the heir is the same process, reborn
                ledger.born(0, worker)
                ledger.release_drain()
                pool._moved.notify_all()
            leaser.join(timeout=10.0)
            assert not leaser.is_alive()
            assert got[0] is not None
            assert pool.fallbacks == 0
            pool.finish({0: got[0]}, clean=set())
        finally:
            pool.shutdown()


class TestConcurrentRaces:
    def test_two_executors_share_one_pool(self):
        """Concurrent pooled races: distinct epochs, ledger drains to 0."""
        pool = WorldPool(size=4)
        tracer = Tracer()
        results = {}
        errors = []

        def race(tag):
            try:
                # Backends keep per-race state, so concurrent callers
                # need one instance each -- sharing only the pool.
                executor = ConcurrentExecutor(
                    backend=ProcessBackend(kill_grace=0.5, pool=pool)
                )
                results[tag] = executor.run(_block(tag)).value
            except BaseException as exc:  # noqa: BLE001
                errors.append((tag, exc))

        try:
            with tracing(tracer):
                threads = [
                    threading.Thread(target=race, args=(tag,))
                    for tag in ("a", "b")
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
            assert not errors, errors
            assert results == {"a": "Q", "b": "Q"}
            leases = [
                event for event in tracer.events
                if event.kind == ev.POOL_LEASE
            ]
            epochs = [event.attrs["epoch"] for event in leases]
            assert len(epochs) == len(set(epochs)), (
                f"duplicate lease epochs: {epochs}"
            )
            assert pool.inflight == 0
            pool.drain()  # the losers the races left to the pool
            assert pool.parked == 4
        finally:
            pool.shutdown()

    def test_two_racers_one_pool(self):
        """Each race leaves its losers to the pool and both poll the
        drain on every lease and finish: one drainer at a time, or two
        readers split one record between them and a healthy worker is
        recycled (the unlocked prototype did so within seconds).  The
        pool is as wide as both races together -- six arms -- so that
        ``fallbacks == 0`` says a lease waited, not that it was lucky."""
        pool = WorldPool(size=6)
        blocks = 300
        mismatches, errors = [], []

        def race(tag):
            try:
                pooled = ConcurrentExecutor(
                    backend=ProcessBackend(kill_grace=2.0, pool=pool)
                )
                sequential = SequentialExecutor(policy=OrderedPolicy())
                parent = pooled.new_parent()
                reference = sequential.new_parent()
                for block in range(blocks):
                    got = _observe(pooled.run(_steps(tag), parent=parent), parent)
                    want = _observe(
                        sequential.run(_steps(tag), parent=reference),
                        reference,
                    )
                    if got != want or got[0] != (f"quick-{tag}", block):
                        mismatches.append((tag, block, got, want))
            except BaseException as exc:  # noqa: BLE001
                errors.append((tag, exc))

        try:
            threads = [
                threading.Thread(target=race, args=(tag,))
                for tag in ("a", "b")
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300.0)
            assert not errors, errors
            assert not mismatches, mismatches[:3]
            pool.drain()
            assert (pool.inflight, pool.draining) == (0, 0)
            assert pool.leases_granted == 2 * 3 * blocks
            assert pool.respawns == 0
            assert pool.drained_recycled == 0
            assert pool.fallbacks == 0
            assert pool.parked == pool.size
        finally:
            pool.shutdown()

    def test_a_lease_does_not_queue_behind_a_drain(self):
        """``drain()`` in one thread has a loser to hear that will take
        seconds; a lease in another with nobody parked takes the first
        worker that parks, not its turn after the drain."""
        pool = WorldPool(size=3)
        try:
            executor = ConcurrentExecutor(
                backend=ProcessBackend(kill_grace=30.0, pool=pool)
            )
            block = [
                Alternative("quick", body=_Sleeper("quick", 0.2, "Q")),
                Alternative("soon", body=_Deaf(0.6)),
                Alternative("late", body=_Deaf(3.0)),
            ]
            assert executor.run(block).value == "Q"
            assert pool.draining == 2
            drainer = threading.Thread(target=pool.drain)
            drainer.start()
            time.sleep(0.2)  # it is the drainer now, asleep in select
            began = time.perf_counter()
            # Two arms, one worker parked: the second lease has to wait.
            assert executor.run(_block("x", slow=0.05)).value == "Q"
            assert time.perf_counter() - began < 2.0
            assert pool.fallbacks == 0
            drainer.join(timeout=30.0)
            assert not drainer.is_alive()
            assert pool.drain()
            assert (pool.inflight, pool.draining) == (0, 0)
            assert pool.respawns == 0 and pool.parked == pool.size
        finally:
            pool.shutdown()

    def test_drain_gives_up_at_its_timeout(self, pool):
        executor = ConcurrentExecutor(
            backend=ProcessBackend(kill_grace=30.0, pool=pool)
        )
        block = [
            Alternative("quick", body=_Sleeper("quick", 0.2, "Q")),
            Alternative("late", body=_Deaf(1.5)),
        ]
        assert executor.run(block).value == "Q"
        began = time.perf_counter()
        assert pool.drain(timeout=0.2) is False
        assert time.perf_counter() - began < 1.0
        assert pool.draining == 1
        assert pool.drain() is True
        assert (pool.draining, pool.drained_parked) == (0, 1)
        assert pool.respawns == 0

    def test_concurrent_forked_races_do_not_sweep_each_other(self):
        """The orphan-scope regression: race B enters while race A's
        forked children are alive; A must still win normally (the old
        global sweep SIGKILLed A's children on B's entry)."""
        started = threading.Event()
        outcome = {}
        errors = []

        def race_a():
            try:
                executor = ConcurrentExecutor(
                    backend=ProcessBackend(kill_grace=0.5)
                )
                started.set()
                outcome["a"] = executor.run(_block("a", fast=0.6, slow=1.2))
            except BaseException as exc:  # noqa: BLE001
                errors.append(("a", exc))

        thread = threading.Thread(target=race_a)
        thread.start()
        assert started.wait(timeout=5.0)
        time.sleep(0.2)  # race A's children are forked and sleeping now
        executor_b = ConcurrentExecutor(backend=ProcessBackend(kill_grace=0.5))
        outcome["b"] = executor_b.run(_block("b", fast=0.01, slow=0.2))
        thread.join(timeout=30.0)
        assert not errors, errors
        assert outcome["a"].value == "Q"
        assert outcome["a"].winner.name == "quick-a"
        assert outcome["b"].value == "Q"
