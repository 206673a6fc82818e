"""Sustained-load soak: the server under a rolling worker-kill schedule.

N tenants stream M blocks through a :class:`~repro.server.RaceServer`
over the pooled process backend while a chaos thread SIGKILLs random
pool workers mid-stream (the PR 9 chaos shape, turned on the service
layer).  The gate is the paper's mutual-exclusivity contract end to end:
every block's arms compute the *same* answer by construction, so no
matter which arm survives an assassination, every ticket must resolve to
its :class:`~repro.core.sequential.SequentialExecutor` reference -- and
the run must leak nothing (no threads, no children; /dev/shm is audited
session-wide by ``shm_leak_audit``).

"Which arm survives" presumes one does, and an unsupervised block whose
every arm was assassinated fails by design.  A schedule paced by the
clock alone cannot promise a survivor: on a stalled host (a fork from a
large test process holds the GIL for tens of milliseconds) a 40 ms block
stretches past the kill interval and two kills take both of its pooled
arms.  So the assassin allows each block one assassination: before it
kills again, every block that was running when its last victim died has
resolved.  On a host that keeps up, that never delays a kill.

The full soak is ``slow``; ``TestSoakSmoke`` is the fast-lane variant
with a handful of blocks and a single assassination.
"""

import os
import random
import signal
import threading
import time

import pytest

from repro.core.alternative import Alternative
from repro.core.sequential import SequentialExecutor
from repro.process.pool import WorldPool
from repro.server import RaceServer, ServerConfig

pytestmark = [
    pytest.mark.subprocess,
    pytest.mark.skipif(not hasattr(os, "fork"), reason="requires os.fork"),
]


class _Agreeing:
    """Picklable arm body; every arm of a block computes the same state.

    The paper's premise: alternatives are *mutually exclusive ways to
    get the same answer*.  Under worker assassination any arm may end up
    the winner, so agreement is exactly what makes the serial reference
    a valid oracle mid-chaos.
    """

    def __init__(self, tag, seconds, value):
        self.tag = tag
        self.seconds = seconds
        self.value = value

    def __call__(self, ctx):
        ctx.sleep(self.seconds)
        ctx.put("answer", self.value)
        ctx.put("tag", self.tag)
        return self.value


def _soak_block(tag, arms=2, base=0.02):
    value = f"result-{tag}"
    return [
        Alternative(
            f"{tag}-arm{i}",
            body=_Agreeing(tag, base * (i + 1), value),
        )
        for i in range(arms)
    ]


def _reference_outcome(block):
    executor = SequentialExecutor()
    parent = executor.new_parent()
    result = executor.run(block, parent=parent)
    return result.value, {
        name: parent.space.get(name) for name in parent.space.names()
    }


def _await_death(pid):
    """Wait until ``pid`` is dead without reaping it (the pool does)."""
    while True:
        try:
            if os.waitid(
                os.P_PID, pid, os.WEXITED | os.WNOWAIT | os.WNOHANG
            ):
                return
        except ChildProcessError:
            return  # dead and already reaped
        time.sleep(0.001)


def _run_soak(tenants, blocks_per_tenant, kills, kill_interval):
    """Stream the workload through a pooled server under rolling kills."""
    thread_baseline = threading.active_count()
    pool = WorldPool(size=3)
    config = ServerConfig(
        backend="process",
        workers=2,
        max_inflight_arms=6,
        quantum=2,
        pool=pool,
    )
    # CI sweeps the kill schedule across seeds (make test-server
    # REPRO_SERVER_SEED=N); any schedule must leave results untouched.
    rng = random.Random(int(os.environ.get("REPRO_SERVER_SEED", "7")))
    stop_chaos = threading.Event()
    kill_count = [0]

    def assassin():
        exposed = []  # blocks that may have lost an arm to the last kill
        for _ in range(kills):
            if stop_chaos.wait(timeout=kill_interval):
                return
            for ticket in exposed:
                ticket.wait(timeout=120.0)
            pids = pool.worker_pids()
            if not pids:
                continue
            victim = rng.choice(pids)
            try:
                os.kill(victim, signal.SIGKILL)
                kill_count[0] += 1
            except ProcessLookupError:
                continue
            # Once the victim is dead a lease on it fails over to a
            # fork, so only a block already running can hold it.
            _await_death(victim)
            exposed = [
                ticket for ticket in list(tickets.values())
                if ticket.status == "running"
            ]

    chaos = threading.Thread(target=assassin, daemon=True)
    expectations = {}
    tickets = {}
    try:
        server = RaceServer(config)
        chaos.start()
        try:
            for round_index in range(blocks_per_tenant):
                for tenant_index in range(tenants):
                    tag = f"t{tenant_index}b{round_index}"
                    block = _soak_block(tag, arms=2 + (round_index % 2))
                    expectations[tag] = _reference_outcome(block)
                    tickets[tag] = server.submit(
                        f"tenant-{tenant_index}", block, seed=round_index
                    )
            for tag, ticket in tickets.items():
                assert ticket.wait(timeout=120.0), (
                    f"block {tag} never finished under chaos"
                )
        finally:
            stop_chaos.set()
            chaos.join(timeout=10.0)
            server.shutdown()
        # Every lease settled: none in flight, and every fallback arm's
        # one-shot reaped and gone from the ledger.
        assert pool.stats()["inflight"] == 0
        assert not any(w.one_shot for w in pool._ledger.workers.values())
    finally:
        pool_pids = pool.worker_pids()
        pool.shutdown()

    for tag, ticket in tickets.items():
        ref_value, ref_vars = expectations[tag]
        assert ticket.error is None, (
            f"block {tag} failed under chaos: {ticket.error}"
        )
        assert ticket.value == ref_value, (
            f"block {tag}: server={ticket.value!r} reference={ref_value!r}"
        )

    # Zero leaks: every spawned thread joined, every child reaped.
    deadline = time.monotonic() + 5.0
    while (
        threading.active_count() > thread_baseline
        and time.monotonic() < deadline
    ):
        time.sleep(0.05)
    assert threading.active_count() <= thread_baseline, (
        f"leaked threads: {[t.name for t in threading.enumerate()]}"
    )
    # Every pool worker is dead (every one-shot was reaped at its
    # settle, checked above).
    for pid in pool_pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    return kill_count[0]


class TestSoakSmoke:
    def test_short_stream_survives_one_assassination(self):
        _run_soak(tenants=2, blocks_per_tenant=2, kills=1,
                  kill_interval=0.15)


@pytest.mark.slow
class TestSustainedLoadSoak:
    def test_stream_survives_rolling_kills(self):
        kills = _run_soak(
            tenants=3, blocks_per_tenant=8, kills=10, kill_interval=0.06
        )
        # The schedule must have actually drawn blood for the soak to
        # mean anything; worker_pids always has targets while the
        # stream runs, so at least half the attempts should land.
        assert kills >= 3
