"""Tests for majority-consensus synchronization."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.consensus.majority import MajorityConsensusSemaphore
from repro.consensus.node import ConsensusNode
from repro.errors import ConsensusUnavailable
from repro.sim.costs import HP_9000_350


def make_semaphore(n=5):
    nodes = [ConsensusNode(f"n{i}") for i in range(n)]
    return MajorityConsensusSemaphore(nodes), nodes


class TestBasicVoting:
    def test_sole_requester_wins(self):
        semaphore, _ = make_semaphore(5)
        assert semaphore.try_acquire("block-1", "child-a") is True
        assert semaphore.winner("block-1") == "child-a"

    def test_loser_refused(self):
        semaphore, _ = make_semaphore(5)
        semaphore.try_acquire("block-1", "child-a")
        assert semaphore.try_acquire("block-1", "child-b") is False
        assert semaphore.winner("block-1") == "child-a"

    def test_decisions_are_independent(self):
        semaphore, _ = make_semaphore(3)
        assert semaphore.try_acquire("block-1", "a") is True
        assert semaphore.try_acquire("block-2", "b") is True

    def test_quorum_size(self):
        assert make_semaphore(5)[0].quorum == 3
        assert make_semaphore(4)[0].quorum == 3
        assert make_semaphore(1)[0].quorum == 1

    def test_needs_at_least_one_node(self):
        with pytest.raises(ValueError):
            MajorityConsensusSemaphore([])

    def test_duplicate_node_ids_rejected(self):
        nodes = [ConsensusNode("same"), ConsensusNode("same")]
        with pytest.raises(ValueError):
            MajorityConsensusSemaphore(nodes)


class TestFailureTolerance:
    def test_minority_crash_does_not_block(self):
        semaphore, nodes = make_semaphore(5)
        nodes[0].crash()
        nodes[1].crash()
        assert semaphore.try_acquire("block-1", "child-a") is True

    def test_majority_crash_raises_unavailable(self):
        semaphore, nodes = make_semaphore(5)
        for node in nodes[:3]:
            node.crash()
        with pytest.raises(ConsensusUnavailable):
            semaphore.try_acquire("block-1", "child-a")

    def test_decision_survives_crash_and_recovery(self):
        semaphore, nodes = make_semaphore(3)
        semaphore.try_acquire("block-1", "child-a")
        for node in nodes:
            node.crash()
        for node in nodes:
            node.recover()
        assert semaphore.winner("block-1") == "child-a"
        assert semaphore.try_acquire("block-1", "child-b") is False

    def test_no_single_point_of_failure(self):
        """Any single node can die before the sync and it still works --
        the property section 5.1.2 demands."""
        for victim in range(5):
            semaphore, nodes = make_semaphore(5)
            nodes[victim].crash()
            assert semaphore.try_acquire("block-1", "survivor") is True

    def test_up_nodes_accounting(self):
        semaphore, nodes = make_semaphore(3)
        assert semaphore.up_nodes() == 3
        nodes[0].crash()
        assert semaphore.up_nodes() == 2


class TestSafety:
    def test_split_votes_never_yield_two_winners(self):
        """Safety under contention: with grants split between two
        requesters, at most one ever reaches quorum."""
        semaphore, nodes = make_semaphore(4)
        # Interleave so neither can reach 3 of 4 after the split.
        nodes[0].request_vote("d", "a")
        nodes[1].request_vote("d", "b")
        nodes[2].request_vote("d", "a")
        nodes[3].request_vote("d", "b")
        assert semaphore.winner("d") is None
        assert semaphore.try_acquire("d", "a") is False
        assert semaphore.try_acquire("d", "b") is False

    def test_latency_exceeds_single_node_sync(self):
        """The robustness price: consensus sync is slower than local."""
        semaphore, _ = make_semaphore(5)
        assert semaphore.latency(HP_9000_350) > HP_9000_350.sync_latency


@given(
    n_nodes=st.integers(min_value=1, max_value=9),
    schedule=st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=12),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_at_most_one_winner_property(n_nodes, schedule, seed):
    """Property: no interleaving of requesters and crashes produces two
    winners for the same decision."""
    rng = random.Random(seed)
    nodes = [ConsensusNode(f"n{i}") for i in range(n_nodes)]
    semaphore = MajorityConsensusSemaphore(nodes)
    winners = set()
    for requester in schedule:
        # Randomly crash/recover a node between attempts.
        node = rng.choice(nodes)
        if rng.random() < 0.3:
            node.crash() if node.up else node.recover()
        try:
            if semaphore.try_acquire("decision", requester):
                winners.add(requester)
        except ConsensusUnavailable:
            pass
    assert len(winners) <= 1
    if winners:
        assert semaphore.winner("decision") in winners | {None}


class TestNode:
    def test_vote_is_sticky(self):
        node = ConsensusNode("n0")
        assert node.request_vote("d", "a") is True
        assert node.request_vote("d", "b") is False
        assert node.request_vote("d", "a") is True  # idempotent re-grant

    def test_down_node_raises(self):
        node = ConsensusNode("n0")
        node.crash()
        with pytest.raises(ConsensusUnavailable):
            node.request_vote("d", "a")

    def test_counters(self):
        node = ConsensusNode("n0")
        node.request_vote("d", "a")
        node.request_vote("d", "b")
        assert node.requests_seen == 2
        assert node.votes_cast == 1

    def test_bounded_memory_forgets_oldest_first(self, monkeypatch):
        monkeypatch.setattr("repro.consensus.node.MAX_DECISIONS", 3)
        node = ConsensusNode("n0")
        for decision in ("d1", "d2", "d3"):
            assert node.request_vote(decision, "a") is True
        assert node.request_vote("d1", "b") is False  # still remembered
        assert node.request_vote("d4", "a") is True   # evicts d1
        assert node.granted_to("d1") is None
        assert node.granted_to("d2") == "a"
        assert node.granted_to("d4") == "a"
        assert len(node._grants) == 3
