"""Tests for the recovery block construct and sequential execution."""

import random

import pytest

from repro.core.alternative import Alternative
from repro.core.backends import SerialBackend
from repro.core.concurrent import ConcurrentExecutor
from repro.errors import AltBlockFailure
from repro.recovery.block import RecoveryAlternate, RecoveryBlock
from repro.recovery.faults import accept_if, always_accept, flaky_body, scripted_body
from repro.recovery.sequential import SequentialRecoveryExecutor


def simple_block(primary_fails=False):
    def primary(ctx):
        ctx.put("out", "primary")
        return -1 if primary_fails else 1

    def backup(ctx):
        ctx.put("out", "backup")
        return 2

    return RecoveryBlock(
        "demo",
        [
            RecoveryAlternate("primary", body=primary, cost=1.0),
            RecoveryAlternate("backup", body=backup, cost=3.0),
        ],
        acceptance=accept_if(lambda value: value > 0),
    )


class TestConstruct:
    def test_requires_alternates(self):
        with pytest.raises(ValueError):
            RecoveryBlock("empty", [], acceptance=always_accept)

    def test_unique_names(self):
        alternate = RecoveryAlternate("same", body=lambda ctx: 1)
        with pytest.raises(ValueError):
            RecoveryBlock("dup", [alternate, alternate], acceptance=always_accept)

    def test_as_alternatives_shares_acceptance(self):
        block = simple_block()
        arms = block.as_alternatives()
        assert len(arms) == 2
        assert arms[0].guard is arms[1].guard

    def test_len(self):
        assert len(simple_block()) == 2


class TestSequentialSemantics:
    def test_primary_accepted_first(self):
        result = SequentialRecoveryExecutor().run(simple_block())
        assert result.winner.name == "primary"
        assert result.value == 1
        assert result.elapsed == pytest.approx(1.0)

    def test_rollback_then_backup(self):
        executor = SequentialRecoveryExecutor()
        parent = executor.new_parent()
        parent.space.put("out", "initial")
        result = executor.run(simple_block(primary_fails=True), parent=parent)
        assert result.winner.name == "backup"
        # Primary wrote 'out' before failing its test; rollback means the
        # final state reflects only the backup's write.
        assert parent.space.get("out") == "backup"
        assert result.elapsed == pytest.approx(4.0)  # 1.0 failed + 3.0

    def test_whole_block_failure(self):
        block = RecoveryBlock(
            "doomed",
            [RecoveryAlternate("only", body=lambda ctx: 0, cost=1.0)],
            acceptance=accept_if(lambda value: value > 0),
        )
        with pytest.raises(AltBlockFailure):
            SequentialRecoveryExecutor().run(block)

    def test_alternates_tried_in_declared_order(self):
        tried = []

        def make_body(name, value):
            def body(ctx):
                tried.append(name)
                return value

            return body

        block = RecoveryBlock(
            "ordered",
            [
                RecoveryAlternate("first", body=make_body("first", 0), cost=1.0),
                RecoveryAlternate("second", body=make_body("second", 0), cost=1.0),
                RecoveryAlternate("third", body=make_body("third", 1), cost=1.0),
            ],
            acceptance=accept_if(lambda value: value > 0),
        )
        SequentialRecoveryExecutor().run(block)
        assert tried == ["first", "second", "third"]


class TestFaultHelpers:
    def test_flaky_body_is_seeded(self):
        block = RecoveryBlock(
            "flaky",
            [
                RecoveryAlternate("p", body=flaky_body("v", 0.5), cost=1.0),
                RecoveryAlternate("b", body=lambda ctx: "backup", cost=1.0),
            ],
            acceptance=always_accept,
        )
        first = SequentialRecoveryExecutor(seed=1).run(block).winner.name
        second = SequentialRecoveryExecutor(seed=1).run(block).winner.name
        assert first == second

    def test_flaky_body_draws_the_executor_seeded_stream(self):
        """A concurrent executor seeds arm ``i``'s RNG with
        ``seed * 1000003 + i``; the failure decision is its first draw."""
        failed = []
        for seed in range(12):
            executor = ConcurrentExecutor(backend=SerialBackend(), seed=seed)
            block = [
                Alternative("p", body=flaky_body("v", 0.5)),
                Alternative("b", body=lambda ctx: "backup"),
            ]
            executor.run(block)
            fired = not executor._last_race.report(0).succeeded
            assert fired == (random.Random(seed * 1000003).random() < 0.5)
            failed.append(fired)
        assert any(failed) and not all(failed)

    def test_flaky_probability_extremes(self):
        never = flaky_body("v", 0.0)
        always = flaky_body("v", 1.0)
        block_never = RecoveryBlock(
            "n",
            [RecoveryAlternate("a", body=never, cost=1.0)],
            acceptance=always_accept,
        )
        assert SequentialRecoveryExecutor().run(block_never).value == "v"
        block_always = RecoveryBlock(
            "a",
            [RecoveryAlternate("a", body=always, cost=1.0)],
            acceptance=always_accept,
        )
        with pytest.raises(AltBlockFailure):
            SequentialRecoveryExecutor().run(block_always)

    def test_flaky_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            flaky_body("v", 1.5)

    def test_scripted_body_fails_on_listed_calls(self):
        body = scripted_body("v", fail_on_calls=[2])
        block = RecoveryBlock(
            "scripted",
            [
                RecoveryAlternate("p", body=body, cost=1.0),
                RecoveryAlternate("b", body=lambda ctx: "backup", cost=1.0),
            ],
            acceptance=always_accept,
        )
        executor = SequentialRecoveryExecutor()
        assert executor.run(block).winner.name == "p"     # call 1 fine
        assert executor.run(block).winner.name == "b"     # call 2 fails
        assert executor.run(block).winner.name == "p"     # call 3 fine

    def test_side_effect_runs_before_fault(self):
        effects = []
        body = flaky_body("v", 1.0, side_effect=lambda ctx: effects.append(1))
        block = RecoveryBlock(
            "se",
            [
                RecoveryAlternate("p", body=body, cost=1.0),
                RecoveryAlternate("b", body=lambda ctx: "x", cost=1.0),
            ],
            acceptance=always_accept,
        )
        SequentialRecoveryExecutor().run(block)
        assert effects == [1]
