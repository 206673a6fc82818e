"""Tests for Alternative and AltContext."""

import random

import pytest

from repro.core.alternative import AltContext, Alternative, alternative
from repro.errors import GuardFailure
from repro.pages.address_space import AddressSpace
from repro.pages.store import PageStore
from repro.sim.distributions import Deterministic, Uniform


def make_context():
    return AltContext(AddressSpace(PageStore(), 4096))


class TestAltContext:
    def test_charge_accumulates(self):
        context = make_context()
        context.charge(1.5)
        context.charge(0.5)
        assert context.charged == 2.0

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            make_context().charge(-1.0)

    def test_get_put_roundtrip(self):
        context = make_context()
        context.put("k", [1, 2])
        assert context.get("k") == [1, 2]
        assert context.get("missing", "d") == "d"

    def test_fail_raises_guard_failure(self):
        with pytest.raises(GuardFailure, match="too slow"):
            make_context().fail("too slow")

    def test_a_seed_draws_the_stream_of_its_random(self):
        space = AddressSpace(PageStore(), 4096)
        for seed in (0, 1, 7 * 1000003 + 2):
            drawn = AltContext(space, rng=seed).rng
            expected = random.Random(seed)
            assert [drawn.random() for _ in range(5)] == [
                expected.random() for _ in range(5)
            ]
        default = make_context().rng
        assert default.random() == random.Random(0).random()

    def test_the_rng_is_built_once_and_a_given_one_is_kept(self):
        given = random.Random(3)
        context = AltContext(AddressSpace(PageStore(), 4096), rng=given)
        assert context.rng is given
        seeded = AltContext(AddressSpace(PageStore(), 4096), rng=5)
        assert seeded.rng is seeded.rng


class TestAlternativeCost:
    def test_constant_cost(self):
        arm = Alternative("a", body=lambda c: None, cost=3.0)
        assert arm.sample_cost(random.Random(0), make_context()) == 3.0

    def test_distribution_cost(self):
        arm = Alternative("a", body=lambda c: None, cost=Uniform(1.0, 2.0))
        value = arm.sample_cost(random.Random(0), make_context())
        assert 1.0 <= value <= 2.0

    def test_charged_cost_when_none(self):
        arm = Alternative("a", body=lambda c: None, cost=None)
        context = make_context()
        context.charge(7.0)
        assert arm.sample_cost(random.Random(0), context) == 7.0

    def test_deterministic_distribution(self):
        arm = Alternative("a", body=lambda c: None, cost=Deterministic(4.0))
        assert arm.sample_cost(random.Random(0), make_context()) == 4.0


class TestDecorator:
    def test_decorator_builds_alternative(self):
        @alternative("named", cost=2.0)
        def arm(ctx):
            return "value"

        assert isinstance(arm, Alternative)
        assert arm.name == "named"
        assert arm.cost == 2.0
        assert arm.body(make_context()) == "value"
