"""Majority-consensus synchronization (Thomas 1979, applied as in §5.1.2).

The at-most-once property of the synchronization point must not introduce
a single point of failure into a fault-tolerance mechanism, so it is
replicated: a requester wins iff it collects grants from a strict majority
of the voting nodes.  Because each node grants a decision at most once and
never revokes, two different requesters can never both hold majorities --
the semaphore is a 'fault-tolerant 0-1 semaphore'.

The trade-off the paper names -- 'the additional communication and
protocol of multiple-node synchronization is the price paid for increased
robustness' -- is captured by :meth:`MajorityConsensusSemaphore.latency`.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence

from repro.errors import ConsensusUnavailable
from repro.consensus.node import ConsensusNode
from repro.sim.costs import CostModel


def quorum_verdict(grants: int, reachable: int, voters: int) -> bool:
    """One round's answer under the majority rule.

    True once ``grants`` reach a strict majority of all ``voters`` (up or
    down); :class:`ConsensusUnavailable` when fewer than a majority could
    be reached at all, since then no decision is possible; False
    otherwise -- a sibling holds the votes this requester lacks.
    """
    quorum = voters // 2 + 1
    if grants >= quorum:
        return True
    if reachable < quorum:
        raise ConsensusUnavailable(
            f"only {reachable} of {voters} voters reachable; "
            f"quorum is {quorum}"
        )
    return False


class MajorityConsensusSemaphore:
    """A replicated at-most-once synchronization point."""

    def __init__(self, nodes: Sequence[ConsensusNode]) -> None:
        if not nodes:
            raise ValueError("need at least one voting node")
        if len({n.node_id for n in nodes}) != len(nodes):
            raise ValueError("node ids must be unique")
        self.nodes: List[ConsensusNode] = list(nodes)
        self.rounds = 0

    @property
    def quorum(self) -> int:
        """Strict majority of all nodes (up or down)."""
        return len(self.nodes) // 2 + 1

    def try_acquire(self, decision_id: Hashable, requester: Hashable) -> bool:
        """Attempt to synchronize; True iff a majority granted.

        Grants are sticky: a requester that fails to reach quorum leaves
        its partial grants in place, which preserves safety (no two
        requesters can reach quorum) at some cost in liveness -- exactly
        the 0-1, at-most-once behaviour the design requires.

        Raises :class:`ConsensusUnavailable` when fewer than a quorum of
        nodes can be reached at all, since then no decision is possible.
        """
        self.rounds += 1
        reachable = 0
        grants = 0
        for node in self.nodes:
            if grants >= self.quorum:
                break
            try:
                granted = node.request_vote(decision_id, requester)
            except ConsensusUnavailable:
                continue
            reachable += 1
            grants += granted
        return quorum_verdict(grants, reachable, len(self.nodes))

    def winner(self, decision_id: Hashable) -> Optional[Hashable]:
        """The requester holding a majority for ``decision_id``, if any.

        Counts durable grants on all nodes (including crashed ones, whose
        grants persist), so the answer is stable across failures.
        """
        counts: dict = {}
        for node in self.nodes:
            granted_to = node.granted_to(decision_id)
            if granted_to is not None:
                counts[granted_to] = counts.get(granted_to, 0) + 1
        for requester, count in counts.items():
            if count >= self.quorum:
                return requester
        return None

    def latency(self, cost_model: CostModel) -> float:
        """Simulated time for one synchronization attempt.

        The requester polls all nodes in parallel; the attempt concludes
        when the slowest needed round trip returns, so the cost is one
        network round trip plus per-node processing, versus the plain
        ``sync_latency`` of single-node synchronization.
        """
        round_trip = 2 * cost_model.network_latency
        processing = len(self.nodes) * cost_model.message_latency
        return round_trip + processing + cost_model.sync_latency

    def up_nodes(self) -> int:
        """Currently reachable voters."""
        return sum(1 for node in self.nodes if node.up)

    def __repr__(self) -> str:
        return (
            f"MajorityConsensusSemaphore(nodes={len(self.nodes)}, "
            f"quorum={self.quorum}, up={self.up_nodes()})"
        )
