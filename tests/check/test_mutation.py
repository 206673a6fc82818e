"""Mutation adequacy: the checker must re-find real, shipped-and-fixed bugs.

Three armed mutations, three detection channels:

- ``adopt-replace-dirty`` re-introduces the PR 3 :meth:`PageTable.adopt`
  bug (dirty-set replace instead of union); caught by the sim backend's
  dirty-coverage invariant.  The acceptance gate from ISSUE.md: bounded
  DFS finds a failing schedule within 5000 schedules and the shrunk
  witness is at most 25 decisions.
- ``indep-drop-page`` blinds the independence engine's dirty summary;
  caught because a maximal step grafts one page too few on
  ``disjoint-arms`` and the committed bytes diverge from serial.
- ``indep-false-disjoint`` makes the engine plan overlapping arms as
  independent; caught because ``overlap-arms``'s double graft diverges
  from the clean classic race.

The final class pins the DPOR reduction itself: on the original 11-block
corpus ``dfs`` must explore strictly fewer schedules than the
``dfs-lite`` sleep-set baseline while both remain exhaustive.
"""

import pytest

from repro.check.explorer import explore, replay
from repro.check.schedule import CheckError
from tests.check.mutations import MUTATIONS, mutation


def _prime_serial_references(*blocks):
    """Cache each block's serial reference before any mutation arms.

    The oracle's serial reference is computed lazily; arming a mutation
    first would corrupt the reference identically and hide the bug.
    """
    for name in blocks:
        explore(name, strategy="dfs-lite", schedules=1, shrink_failures=False)


def test_unknown_mutation_is_rejected():
    with pytest.raises(CheckError, match="unknown mutation"):
        with mutation("definitely-not-a-bug"):
            pass


def test_roster_names_all_three_bugs():
    assert MUTATIONS == (
        "adopt-replace-dirty",
        "indep-drop-page",
        "indep-false-disjoint",
    )


def test_mutation_flag_is_scoped_to_the_context():
    from repro.pages import table

    assert "adopt-replace-dirty" not in table._TEST_MUTATIONS
    with mutation("adopt-replace-dirty"):
        assert "adopt-replace-dirty" in table._TEST_MUTATIONS
    assert "adopt-replace-dirty" not in table._TEST_MUTATIONS


def test_engine_mutation_flags_live_in_the_engine():
    from repro.independence import engine

    for name in ("indep-drop-page", "indep-false-disjoint"):
        assert name not in engine._TEST_MUTATIONS
        with mutation(name):
            assert name in engine._TEST_MUTATIONS
        assert name not in engine._TEST_MUTATIONS


class TestAdoptReplaceDirty:
    def test_dfs_finds_the_bug_within_budget(self):
        assert "adopt-replace-dirty" in MUTATIONS
        with mutation("adopt-replace-dirty"):
            report = explore(
                "nested-block", strategy="dfs", schedules=5000
            )
        assert report.found_failure, "DFS never caught the adopt bug"
        assert report.schedules_run <= 5000
        # The failure channel is the sim backend's dirty-coverage
        # invariant: the outer arm's pre-block raw write vanished from
        # the shipback set.
        assert any("dirty" in p for p in report.failure.problems)
        assert report.shrunk is not None
        assert len(report.shrunk) <= 25

    def test_shrunk_witness_replays_the_failure(self):
        with mutation("adopt-replace-dirty"):
            report = explore(
                "nested-block", strategy="dfs", schedules=5000
            )
            assert report.shrunk is not None
            again = replay("nested-block", report.shrunk)
        assert again.failed

    def test_witness_passes_once_the_bug_is_fixed(self):
        with mutation("adopt-replace-dirty"):
            report = explore(
                "nested-block", strategy="dfs", schedules=5000
            )
        witness = report.shrunk or report.failure.schedule
        clean = replay("nested-block", witness)
        assert not clean.failed


class TestEngineMutations:
    """The two independence-engine bugs, each caught on its canary block."""

    def test_dropped_page_signature_is_caught_on_disjoint_arms(self):
        _prime_serial_references("disjoint-arms")
        with mutation("indep-drop-page"):
            report = explore(
                "disjoint-arms", strategy="dfs", schedules=500
            )
        assert report.found_failure, "DFS never caught the dropped page"
        assert any("diverge" in p for p in report.failure.problems)

    def test_false_independence_is_caught_on_overlap_arms(self):
        _prime_serial_references("overlap-arms")
        with mutation("indep-false-disjoint"):
            report = explore(
                "overlap-arms", strategy="dfs", schedules=500
            )
        assert report.found_failure, "DFS never caught the false disjoint"
        assert any("diverge" in p for p in report.failure.problems)

    def test_clean_engine_passes_both_canary_blocks(self):
        for block in ("disjoint-arms", "overlap-arms"):
            report = explore(block, strategy="dfs", schedules=500)
            assert not report.found_failure, (block, report.failure)
            assert report.exhausted


#: The corpus as it stood before the maximal-step blocks landed: the
#: reduction pin must not be flattered by the two new (tiny) blocks.
ORIGINAL_CORPUS = (
    "pure-winner",
    "four-arm-spread",
    "acceptance-vetoes-fastest",
    "pre-guard-closed",
    "single-arm",
    "fail-arm",
    "hostile-arm",
    "timeout",
    "nested-block",
    "late-success",
    "loser-writes-discarded",
)


class TestDPORReduction:
    def test_dpor_explores_strictly_fewer_schedules_than_lite(self):
        totals = {}
        for strategy in ("dfs", "dfs-lite"):
            total = 0
            for block in ORIGINAL_CORPUS:
                report = explore(
                    block,
                    strategy=strategy,
                    schedules=500,
                    shrink_failures=False,
                )
                assert not report.found_failure, (block, report.failure)
                assert report.exhausted, (
                    block,
                    strategy,
                    "budget too small for exhaustion",
                )
                total += report.schedules_run
            totals[strategy] = total
        assert totals["dfs"] < totals["dfs-lite"], totals

    def test_dpor_never_explores_more_than_lite_per_block(self):
        for block in ORIGINAL_CORPUS:
            runs = {}
            for strategy in ("dfs", "dfs-lite"):
                report = explore(
                    block,
                    strategy=strategy,
                    schedules=500,
                    shrink_failures=False,
                )
                runs[strategy] = report.schedules_run
            assert runs["dfs"] <= runs["dfs-lite"], (block, runs)
