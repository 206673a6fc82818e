"""Arms run below their coordinator.

Every arm process -- a pooled worker, once when it is spawned or
respawned, and a forked arm, once when it is forked -- adds
:data:`~repro.core.backends.process.ARM_NICE_STEP` to its own niceness,
capped by the kernel at 19.  The coordinator's own priority never moves,
a nested race's arms sit one step further down, and neither a
coordinator already at the floor nor an ``os.nice`` that refuses
changes a race's answer.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

import repro
from repro.core.alternative import Alternative
from repro.core.backends import ProcessBackend, get_backend
from repro.core.backends import process as process_module
from repro.core.concurrent import ConcurrentExecutor
from repro.obs.blocks import get_block
from repro.process.pool import WorldPool
from repro.resilience import FaultInjector, injected

pytestmark = [
    pytest.mark.subprocess,
    pytest.mark.skipif(not hasattr(os, "fork"), reason="requires os.fork"),
]

STEP = 5
"""The documented step (:data:`process_module.ARM_NICE_STEP`)."""


def niceness(pid: int = 0) -> int:
    return os.getpriority(os.PRIO_PROCESS, pid)


def below(base: int, steps: int = 1) -> int:
    """Where an arm ``steps`` races down from ``base`` runs."""
    return min(19, base + steps * STEP)


def settled_niceness(pid: int, expected: int, timeout: float = 5.0) -> int:
    """``pid``'s niceness once it reads ``expected`` or ``timeout`` has
    passed: a worker lowers itself when it starts, which may be just
    after its spawn returned."""
    deadline = time.monotonic() + timeout
    while True:
        value = niceness(pid)
        if value == expected or time.monotonic() > deadline:
            return value
        time.sleep(0.01)


class _OwnNiceness:
    """A picklable body that reports the niceness of the process it ran
    in."""

    def __call__(self, ctx):
        return niceness()


class _NestedRace:
    """A picklable body that races one forked arm of its own and returns
    ``(its own niceness, the nested arm's)``."""

    def __call__(self, ctx):
        inner = ConcurrentExecutor(backend=ProcessBackend(kill_grace=0.5))
        nested = inner.run([Alternative("nested", body=_OwnNiceness())])
        return niceness(), nested.value


class _Quick:
    def __call__(self, ctx):
        ctx.put("winner", "quick")
        return "Q"


class _Slow:
    def __call__(self, ctx):
        ctx.sleep(0.3)
        ctx.put("winner", "slow")
        return "S"


def race_block():
    return [
        Alternative("quick", body=_Quick()),
        Alternative("slow", body=_Slow()),
    ]


@pytest.fixture
def pool():
    pool = WorldPool(size=2)
    yield pool
    pool.shutdown()


@pytest.fixture(autouse=True)
def _no_fault_leaks():
    from repro.resilience import injector as registry

    yield
    registry.uninstall()


def test_pooled_workers_run_one_step_below_their_coordinator(pool):
    assert process_module.ARM_NICE_STEP == STEP
    base = niceness()
    for pid in pool.worker_pids():
        assert settled_niceness(pid, below(base)) == below(base)
    executor = ConcurrentExecutor(
        backend=ProcessBackend(kill_grace=0.5, pool=pool)
    )
    injector = FaultInjector(seed=0).arm_sigkill(arms=[0], times=1)
    with injected(injector):
        result = executor.run(race_block())
    assert result.value == "S"  # the SIGKILLed quick arm could not win
    assert niceness() == base  # the race never lowered its coordinator
    pool.drain()
    assert pool.respawns >= 1
    # Respawned workers lower themselves once, like the first ones, and
    # serving more leases never compounds it.
    for _ in range(5):
        assert executor.run(race_block()).value == "Q"
    pool.drain()
    for pid in pool.worker_pids():
        assert settled_niceness(pid, below(base)) == below(base)
    assert niceness() == base


def test_a_forked_arm_runs_one_step_below_its_coordinator():
    base = niceness()
    executor = ConcurrentExecutor(backend=ProcessBackend(kill_grace=0.5))
    result = executor.run([Alternative("own", body=_OwnNiceness())])
    assert result.value == below(base)
    assert niceness() == base


def test_a_nested_race_sits_one_step_further_down(pool):
    base = niceness()
    executor = ConcurrentExecutor(
        backend=ProcessBackend(kill_grace=0.5, pool=pool)
    )
    result = executor.run([Alternative("nest", body=_NestedRace())])
    assert pool.leases_granted == 1 and pool.fallbacks == 0
    assert result.value == (below(base), below(base, 2))
    assert niceness() == base


AT_THE_FLOOR = """
import json, os
from repro.core.backends import ProcessBackend, get_backend
from repro.obs.blocks import get_block
from repro.process.pool import WorldPool

os.nice(19)
pool = WorldPool(size=2)
rows = []
for name in ("pure-winner", "nested-block"):
    spec = get_block(name)
    reference = spec.run(get_backend("serial"))
    pooled = spec.run(ProcessBackend(kill_grace=0.5, pool=pool))
    rows.append([
        (pooled.value, pooled.winner, pooled.error, pooled.variables,
         pooled.space_bytes)
        == (reference.value, reference.winner, reference.error,
            reference.variables, reference.space_bytes),
        pool.leases_granted > 0,
    ])
pool.drain()
workers = [os.getpriority(os.PRIO_PROCESS, pid) for pid in pool.worker_pids()]
pool.shutdown()
print(json.dumps({
    "coordinator": os.getpriority(os.PRIO_PROCESS, 0),
    "workers": workers,
    "rows": rows,
}))
"""


def test_a_coordinator_at_the_floor_still_races_to_the_serial_answer():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", AT_THE_FLOOR],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["coordinator"] == 19
    assert report["workers"] == [19, 19]  # clamped: level with it
    assert report["rows"] == [[True, True], [True, True]]


def test_a_refused_nice_changes_nothing_but_the_priority(monkeypatch):
    def refuse(increment):
        raise PermissionError("nice refused")

    base = niceness()
    monkeypatch.setattr(os, "nice", refuse)  # before the pool forks
    pool = WorldPool(size=3)  # one worker per arm: no overflow forks
    try:
        spec = get_block("pure-winner")
        reference = spec.run(get_backend("serial"))
        pooled = spec.run(ProcessBackend(kill_grace=0.5, pool=pool))
        assert (pooled.value, pooled.winner, pooled.variables) == (
            reference.value, reference.winner, reference.variables
        )
        assert pooled.space_bytes == reference.space_bytes
        assert pool.leases_granted > 0
        assert pool.fallbacks == 0
        forked = ConcurrentExecutor(backend=ProcessBackend(kill_grace=0.5))
        assert forked.run(
            [Alternative("own", body=_OwnNiceness())]
        ).value == base
        pool.drain()
        assert [niceness(pid) for pid in pool.worker_pids()] == [base] * 3
    finally:
        pool.shutdown()
