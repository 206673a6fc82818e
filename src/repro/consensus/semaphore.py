"""The single-node at-most-once synchronization point.

'The synchronization action is designed so that it can be accomplished at
most once; that is, if the remote system attempts synchronization for the
alternative it is executing, it is informed that it is "too late" ... and
it should terminate itself.'
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional


class SyncSemaphore:
    """A 0-1 semaphore per decision: each can be acquired once, ever.

    The single-node acquirer.  The majority acquirers answer the same
    ``try_acquire(decision_id, requester)``: simulated voters in
    :class:`~repro.consensus.majority.MajorityConsensusSemaphore`, voters
    on the wire in
    :class:`~repro.cluster.semaphore.ClusterMajoritySemaphore`.
    """

    def __init__(self, name: str = "sync") -> None:
        self.name = name
        self._holders: Dict[Hashable, Hashable] = {}
        self.attempts = 0

    def try_acquire(self, decision_id: Hashable, requester: Hashable) -> bool:
        """Attempt the synchronization; True for the decision's unique
        winner.

        Re-attempts by the winner itself also return False: the
        synchronization happens at most once, full stop.
        """
        self.attempts += 1
        if decision_id in self._holders:
            return False
        self._holders[decision_id] = requester
        return True

    def winner(self, decision_id: Hashable) -> Optional[Hashable]:
        """Who synchronized ``decision_id``, or ``None`` if nobody has."""
        return self._holders.get(decision_id)

    def __repr__(self) -> str:
        return f"SyncSemaphore({self.name!r}, decided={len(self._holders)})"
