"""A voting node for majority-consensus synchronization.

Each node holds, per decision, a single irrevocable grant: once it has
voted for some requester it never votes for another.  Crash and recovery
are modelled explicitly so the benchmarks can inject failures; a crashed
node simply does not answer, and a recovered node remembers its grants
(they were durable, as in Thomas's database-resident locks).

A voter remembers its latest ``MAX_DECISIONS`` decisions and forgets the
oldest first, so a long-lived one (a cluster daemon sees one decision per
block) does not grow for life.  That is safe as long as the bound far
exceeds the number of decisions in flight at once -- a forgotten decision
could be granted again, so only decisions long since settled may age out.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

from repro.errors import ConsensusUnavailable

#: Decisions a voter remembers (oldest forgotten first).
MAX_DECISIONS = 4096


class ConsensusNode:
    """One replica of the synchronization state."""

    def __init__(self, node_id: str) -> None:
        self.node_id = node_id
        self.up = True
        self._grants: Dict[Hashable, Hashable] = {}
        """Decision -> requester, in the order the grants were made."""

        self.votes_cast = 0
        self.requests_seen = 0

    # ------------------------------------------------------------------
    # failure injection

    def crash(self) -> None:
        """Stop answering requests."""
        self.up = False

    def recover(self) -> None:
        """Resume answering; durable grants survive the crash."""
        self.up = True

    # ------------------------------------------------------------------
    # voting

    def request_vote(self, decision_id: Hashable, requester: Hashable) -> bool:
        """Vote for ``requester`` on ``decision_id`` unless already granted.

        Raises :class:`ConsensusUnavailable` when the node is down, so the
        caller can distinguish 'refused' from 'unreachable'.
        """
        if not self.up:
            raise ConsensusUnavailable(f"node {self.node_id} is down")
        self.requests_seen += 1
        granted_to = self._grants.get(decision_id)
        if granted_to is None:
            if len(self._grants) >= MAX_DECISIONS:
                del self._grants[next(iter(self._grants))]
            self._grants[decision_id] = requester
            self.votes_cast += 1
            return True
        return granted_to == requester

    def granted_to(self, decision_id: Hashable) -> Optional[Hashable]:
        """Who this node voted for on ``decision_id`` (``None`` if nobody)."""
        return self._grants.get(decision_id)

    def __repr__(self) -> str:
        status = "up" if self.up else "down"
        return f"ConsensusNode({self.node_id!r}, {status}, votes={self.votes_cast})"
