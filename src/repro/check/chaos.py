"""The PR 4 chaos scenarios as checked, replayable virtual-time runs.

The distributed race stack (`repro.net`, `repro.ipc`) is already fully
simulated-time -- no wall-clock sleeps anywhere -- so what the checker
adds is *control*: every :class:`FaultInjector` draw the scenario makes
is routed through the installed controller, recorded into a
:class:`~repro.check.schedule.Schedule`, and can be forced back during
replay regardless of injector seed.  A chaos run is thereby pinned by
its decision vector exactly like a block race, and the soak matrix
(`tests/net/test_chaos.py`) gets a virtual-time twin that covers every
scenario in a fraction of the wall-clock suite's runtime.

The oracle is the soak's acceptance gate: every scenario x seed must
converge to the serial replay's observable outcome -- same winner, same
value, same variables, byte-identical parent space -- with every lease
settled.  (Journal replay convergence, the remaining distributed
invariant, lives at the router layer and is enforced by
``tests/ipc/test_journal.py``.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict, List, Optional, Tuple

from repro.check.runtime import CheckController, checking_session
from repro.check.schedule import Schedule, ScheduleRecorder

#: Mirrors the soak suite's fast-LAN fabric (tests/net/test_chaos.py).
_FAST_LAN_KWARGS = dict(
    name="fast LAN",
    fork_latency=0.001,
    page_copy_rate=100_000.0,
    page_size=2048,
    checkpoint_rate=50_000_000.0,
    network_bandwidth=10_000_000.0,
    network_latency=0.001,
    restore_rate=50_000_000.0,
)

WORKERS = ("w1", "w2", "w3")


def make_net():
    """The soak fabric: a home node and three workers on a fast LAN."""
    from repro.net.network import Network
    from repro.sim.costs import CostModel

    network = Network(cost_model=CostModel(**_FAST_LAN_KWARGS))
    network.add_node("home")
    for name in WORKERS:
        network.add_node(name)
        network.connect("home", name)
    return network


def soak_block():
    """The forced-outcome block: exactly one arm can succeed."""
    from repro.core.alternative import Alternative

    def answer(ctx):
        ctx.put("result", 42)
        return 42

    def refuse(name):
        return lambda ctx: ctx.fail(f"{name} guard")

    return [
        Alternative("guard-a", body=refuse("guard-a"), cost=0.4),
        Alternative("the-answer", body=answer, cost=0.6),
        Alternative("guard-b", body=refuse("guard-b"), cost=0.3),
    ]


@lru_cache(maxsize=None)
def serial_reference(seed: int) -> Tuple[Any, Any, bytes, Dict[str, Any]]:
    """Serial replay of the soak block: (winner, value, bytes, variables)."""
    from repro.core.selection import OrderedPolicy
    from repro.core.sequential import SequentialExecutor

    network = make_net()
    manager = network.node("home").manager
    serial = SequentialExecutor(
        policy=OrderedPolicy(), try_all=True, seed=seed, manager=manager
    )
    parent = manager.create_initial(space_size=64 * 1024)
    result = serial.run(soak_block(), parent=parent)
    return (
        result.winner.name,
        result.value,
        parent.space.read(0, parent.space.size),
        {name: parent.space.get(name) for name in parent.space.names()},
    )


@dataclass
class ChaosRunResult:
    """One checked chaos run: outcome, witness schedule, verdict."""

    scenario: str
    seed: int
    winner: Optional[str] = None
    value: Any = None
    error: Optional[str] = None
    space_bytes: bytes = b""
    variables: Dict[str, Any] = field(default_factory=dict)
    lease_states: List[str] = field(default_factory=list)
    schedule: Schedule = field(default_factory=Schedule)
    problems: List[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def scenario_names() -> List[str]:
    from repro.resilience.chaos import CHAOS_SCENARIOS

    return sorted(CHAOS_SCENARIOS)


def run_scenario(
    scenario: str,
    seed: int = 0,
    schedule: Optional[Schedule] = None,
    injector_seed: Optional[int] = None,
    forced_faults: Optional[Dict[Tuple[str, Any, int], Any]] = None,
) -> ChaosRunResult:
    """Run one chaos scenario under the checker; judge it against serial.

    ``schedule`` replays a previous run's fault decisions (forced through
    the injector observer); ``injector_seed`` lets a replay deliberately
    mis-seed the injector to prove the recorded decisions -- not the RNG
    -- are authoritative.  ``forced_faults`` forces individual draws
    directly (``(point, key, call) -> rule-or-None``) -- the exploration
    driver's way of suppressing one fired fault at a time.
    """
    from repro.net.distributed import DistributedAltExecutor
    from repro.net.lease import RaceWarden
    from repro.resilience.chaos import chaos_injector
    from repro.resilience.injector import injected

    if schedule is not None and forced_faults is not None:
        raise ValueError("pass either schedule or forced_faults, not both")
    forced = (
        {(f.point, f.key, f.call): f.rule for f in schedule.faults}
        if schedule is not None
        else forced_faults
    )
    recorder = ScheduleRecorder()
    controller = CheckController(recorder=recorder, forced_faults=forced)
    network = make_net()
    dist = DistributedAltExecutor(
        network, home="home", workers=list(WORKERS), seed=seed,
        warden=RaceWarden(),
    )
    parent = dist.new_parent()
    injector = chaos_injector(
        scenario, seed=seed if injector_seed is None else injector_seed
    )
    run = ChaosRunResult(scenario=scenario, seed=seed)
    with checking_session(controller):
        with injected(injector):
            try:
                result = dist.run(soak_block(), parent=parent)
            except Exception as exc:
                run.error = type(exc).__name__
                run.problems.append(f"chaos run raised {exc!r}")
            else:
                run.winner = result.winner.name
                run.value = result.value
    run.space_bytes = parent.space.read(0, parent.space.size)
    run.variables = {
        name: parent.space.get(name) for name in parent.space.names()
    }
    run.lease_states = [lease.state for lease in dist.leases]
    run.schedule = recorder.snapshot(
        scenario=scenario, seed=seed, kind="chaos"
    )
    if run.error is None:
        ref_winner, ref_value, ref_bytes, ref_vars = serial_reference(seed)
        if run.winner != ref_winner:
            run.problems.append(
                f"winner diverges: {run.winner!r} != serial {ref_winner!r}"
            )
        if run.value != ref_value:
            run.problems.append(
                f"value diverges: {run.value!r} != serial {ref_value!r}"
            )
        if run.variables != ref_vars:
            run.problems.append(
                f"variables diverge: {run.variables!r} != {ref_vars!r}"
            )
        if run.space_bytes != ref_bytes:
            run.problems.append("parent space bytes diverge from serial")
        if not dist.all_settled:
            run.problems.append(
                f"leaked leases: states {run.lease_states!r}"
            )
    return run


def run_matrix(seed: int = 0) -> List[ChaosRunResult]:
    """Every chaos scenario once, checked; the virtual-time soak."""
    return [run_scenario(name, seed=seed) for name in scenario_names()]


# ----------------------------------------------------------------------
# bounded-exhaustive fault-tree exploration


@dataclass
class ChaosExploreReport:
    """The outcome of exhausting one scenario's fault-suppression tree."""

    scenario: str
    seed: int
    runs: int = 0
    exhausted: bool = False
    """True when the whole suppression tree was enumerated inside the
    budget -- the bounded-exhaustive guarantee."""

    distinct_outcomes: int = 0
    failure: Optional[ChaosRunResult] = None

    @property
    def found_failure(self) -> bool:
        return self.failure is not None


def explore_scenario(
    scenario: str,
    seed: int = 0,
    max_runs: int = 256,
    max_draws: int = 16,
) -> ChaosExploreReport:
    """Bounded-exhaustive exploration of one scenario's fault decisions.

    A chaos run makes *no* scheduling decisions (the distributed stack is
    fully virtual-time deterministic), so its only nondeterminism is
    which injector draws fire.  The frontier therefore enumerates
    *suppression subsets*: the natural run executes first, then every
    draw that fired (up to ``max_draws`` per run) branches a child run in
    which that draw -- on top of the parent's suppressions -- is forced
    to ``None``.  Deduplicated by suppression set; the tree drains to
    ``exhausted=True`` unless ``max_runs`` is spent first or a failing
    run is found.
    """
    report = ChaosExploreReport(scenario=scenario, seed=seed)
    frontier: List[Dict[Tuple[str, Any, int], Any]] = [{}]
    visited = set()
    outcomes = set()
    drained = False
    while True:
        if not frontier:
            drained = True
            break
        if report.runs >= max_runs:
            break
        suppression = frontier.pop(0)
        key = frozenset(suppression)
        if key in visited:
            continue
        visited.add(key)
        result = run_scenario(
            scenario,
            seed=seed,
            forced_faults=dict(suppression) if suppression else None,
        )
        report.runs += 1
        outcomes.add(
            (result.winner, result.value, result.error, result.space_bytes)
        )
        if result.failed:
            report.failure = result
            break
        fired = [
            (fault.point, fault.key, fault.call)
            for fault in result.schedule.faults
            if fault.rule is not None
            and (fault.point, fault.key, fault.call) not in suppression
        ]
        for coordinate in fired[:max_draws]:
            child = dict(suppression)
            child[coordinate] = None
            if frozenset(child) not in visited:
                frontier.append(child)
    report.exhausted = drained and report.failure is None
    report.distinct_outcomes = len(outcomes)
    return report
