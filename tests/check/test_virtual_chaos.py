"""The PR 4 chaos matrix re-run in checked virtual time.

Same scenarios, same fabric, same serial-equivalence gate as the
wall-clock soak in ``tests/net/test_chaos.py`` -- but every fault draw is
recorded into a replayable schedule, and a replay can deliberately
mis-seed the injector to prove the recorded decisions (not RNG state)
are what pins the run.
"""

import pytest

from repro.check.chaos import (
    run_matrix,
    run_scenario,
    scenario_names,
    serial_reference,
)
from repro.net.distributed import _Race
from repro.resilience.chaos import CHAOS_SCENARIOS
from tests.net.test_scripted_wire import _settle_skips_the_last


def test_scenario_vocabulary_matches_the_chaos_registry():
    assert scenario_names() == sorted(CHAOS_SCENARIOS)


def test_serial_reference_is_the_forced_outcome():
    winner, value, _bytes, variables = serial_reference(0)
    assert winner == "the-answer"
    assert value == 42
    assert variables["result"] == 42


@pytest.mark.parametrize("scenario", sorted(CHAOS_SCENARIOS))
def test_every_scenario_converges_to_serial(scenario):
    run = run_scenario(scenario, seed=0)
    assert not run.failed, run.problems
    assert run.winner == "the-answer"
    assert run.value == 42
    assert all(
        state in ("committed", "eliminated", "expired")
        for state in run.lease_states
    )


def test_a_leaked_lease_is_reported(monkeypatch):
    """The leak check fires: a settle that leaves the race's last
    granted incarnation active is a problem of the run."""
    monkeypatch.setattr(_Race, "_settle", _settle_skips_the_last)
    run = run_scenario("loss", seed=0)
    assert run.error is None
    assert run.lease_states.count("active") == 1
    assert run.problems == [f"leaked leases: states {run.lease_states!r}"]


def test_chaos_runs_record_fault_decisions():
    run = run_scenario("loss", seed=0)
    assert len(run.schedule.faults) > 0
    assert {f.point for f in run.schedule.faults} & {
        "net-drop",
        "net-dup",
        "net-reorder",
    }


def test_forced_replay_overrides_the_injector_rng():
    first = run_scenario("loss", seed=0)
    assert not first.failed
    # Replay with a deliberately wrong injector seed: the forced fault
    # decisions must reproduce the identical run anyway.
    again = run_scenario(
        "loss", seed=0, schedule=first.schedule, injector_seed=999
    )
    assert not again.failed
    assert again.schedule.faults == first.schedule.faults
    assert again.winner == first.winner
    assert again.value == first.value
    assert again.space_bytes == first.space_bytes


def test_run_matrix_covers_everything():
    runs = run_matrix(seed=0)
    assert [r.scenario for r in runs] == scenario_names()
    assert all(not r.failed for r in runs)


class TestBoundedExhaustiveExploration:
    """The fault-suppression tree of a scenario, fully enumerated.

    Before the DPOR PR the only chaos coverage was one natural run per
    (scenario, seed); ``explore_scenario`` now drains every reachable
    combination of suppressed fault draws for the bounded scenarios.
    """

    def test_worker_crash_tree_drains_completely(self):
        from repro.check.chaos import explore_scenario

        report = explore_scenario("worker-crash", seed=0, max_runs=64)
        assert report.exhausted, "suppression tree did not drain"
        assert not report.found_failure
        # Three independent crash draws: the tree is their power set.
        assert report.runs == 8
        # Crash-or-not, the race converges to the same observables.
        assert report.distinct_outcomes == 1

    def test_forced_suppression_actually_suppresses(self):
        from repro.check.chaos import run_scenario

        natural = run_scenario("worker-crash", seed=0)
        fired = [
            (f.point, f.key, f.call)
            for f in natural.schedule.faults
            if f.rule is not None
        ]
        assert fired
        muted = run_scenario(
            "worker-crash", seed=0, forced_faults={fired[0]: None}
        )
        still_fired = {
            (f.point, f.key, f.call)
            for f in muted.schedule.faults
            if f.rule is not None
        }
        assert fired[0] not in still_fired
        assert not muted.failed

    def test_schedule_and_forced_faults_are_mutually_exclusive(self):
        import pytest as _pytest

        from repro.check.chaos import run_scenario
        from repro.check.schedule import Schedule

        with _pytest.raises(ValueError, match="not both"):
            run_scenario(
                "worker-crash",
                schedule=Schedule(),
                forced_faults={("worker-crash", "0", 1): None},
            )

    def test_budget_exhaustion_is_reported_honestly(self):
        from repro.check.chaos import explore_scenario

        report = explore_scenario("loss", seed=0, max_runs=3)
        assert report.runs == 3
        assert not report.exhausted
