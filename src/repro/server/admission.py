"""Admission control and deficit-round-robin fairness, as a pure model.

The :class:`RaceServer` must answer two questions under load: *may this
submission enter?* (bounded queues, reject-with-retry-after once full)
and *whose block runs next?* (per-tenant fairness, weighted by arm count
so a tenant of eight-arm monsters cannot crowd out a tenant of two-arm
blocks by submitting at the same rate).

Both answers live here as a single-threaded data structure with no
timers, no threads, and no I/O, so the Hypothesis state machine in
``tests/server/test_admission_statemachine.py`` can drive it against an
unbounded-fair reference model: no starvation (every admitted block is
eventually scheduled), queue bounds never exceeded, and rejection only
when a bound is actually hit.  The server wraps every call in its own
lock and supplies the trace emission via the ``on_quantum`` hook.

The scheduler is classic deficit round robin (Shreedhar & Varghese):
each tenant keeps a FIFO queue and a deficit counter; a visit grants the
tenant one ``quantum`` of credit when its head item still needs it, and
the tenant dequeues items while its credit covers the head's weight.
Weight is the block's arm count -- the unit the backend actually pays
for.  Because credit keeps accruing while a head item waits, any item
with weight at most ``take``'s budget is served after finitely many
visits: no starvation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

__all__ = ["AdmissionVerdict", "DeficitRoundRobin", "QueueItem"]

#: Why an ``offer`` was refused (also the ``server-reject`` trace reason).
REASON_TENANT_FULL = "tenant-queue-full"
REASON_TOTAL_FULL = "total-queue-full"


@dataclass(frozen=True)
class QueueItem:
    """One queued submission: who wants it and how much it weighs."""

    seq: int
    tenant: str
    weight: int
    payload: object = None
    """Opaque to the scheduler; the server stores its Submission here."""


@dataclass(frozen=True)
class AdmissionVerdict:
    """The outcome of one ``offer``."""

    admitted: bool
    reason: Optional[str] = None
    depth: int = 0
    tenant_depth: int = 0


class DeficitRoundRobin:
    """Bounded per-tenant FIFO queues drained by arm-weighted DRR.

    Not thread-safe by design: the server serializes access under its
    own lock, and the property tests drive it single-threaded.
    """

    def __init__(
        self,
        quantum: int = 4,
        max_queue_per_tenant: int = 64,
        max_queue_total: int = 256,
    ) -> None:
        if quantum < 1:
            raise ValueError("quantum must be at least 1 arm")
        if max_queue_per_tenant < 1 or max_queue_total < 1:
            raise ValueError("queue bounds must be at least 1")
        self.quantum = quantum
        self.max_queue_per_tenant = max_queue_per_tenant
        self.max_queue_total = max_queue_total
        self._queues: Dict[str, Deque[QueueItem]] = {}
        self._deficit: Dict[str, int] = {}
        self._ring: Deque[str] = deque()
        """Active tenants in visit order (present iff queue non-empty)."""

        self._total = 0

    # ------------------------------------------------------------------
    # admission

    @property
    def depth(self) -> int:
        """Queued items across every tenant."""
        return self._total

    def tenant_depth(self, tenant: str) -> int:
        queue = self._queues.get(tenant)
        return 0 if queue is None else len(queue)

    def tenants(self) -> List[str]:
        """Tenants with at least one queued item, in visit order."""
        return list(self._ring)

    def offer(self, item: QueueItem) -> AdmissionVerdict:
        """Admit ``item`` or refuse it with the bound that was hit."""
        if item.weight < 1:
            raise ValueError("a block weighs at least one arm")
        queue = self._queues.get(item.tenant)
        tenant_depth = 0 if queue is None else len(queue)
        if self._total >= self.max_queue_total:
            return AdmissionVerdict(
                False, REASON_TOTAL_FULL, self._total, tenant_depth
            )
        if tenant_depth >= self.max_queue_per_tenant:
            return AdmissionVerdict(
                False, REASON_TENANT_FULL, self._total, tenant_depth
            )
        if queue is None:
            queue = self._queues[item.tenant] = deque()
        if not queue:
            self._deficit.setdefault(item.tenant, 0)
            self._ring.append(item.tenant)
        queue.append(item)
        self._total += 1
        return AdmissionVerdict(True, None, self._total, len(queue))

    def cancel(self, seq: int) -> bool:
        """Withdraw a still-queued item; ``False`` if it already left."""
        for tenant, queue in self._queues.items():
            for item in queue:
                if item.seq == seq:
                    queue.remove(item)
                    self._total -= 1
                    if not queue:
                        self._retire(tenant)
                    return True
        return False

    def _retire(self, tenant: str) -> None:
        """Drop an empty tenant from the ring and zero its credit."""
        self._deficit[tenant] = 0
        try:
            self._ring.remove(tenant)
        except ValueError:  # pragma: no cover - defensive
            pass

    # ------------------------------------------------------------------
    # scheduling

    def lightest_head(self) -> Optional[int]:
        """Weight of the lightest queued head; ``None`` when empty.

        A pure query, O(active tenants): it touches no deficit, not the
        ring and not ``depth``.  ``take(budget)`` returns a non-empty
        batch iff ``budget >= lightest_head()``, so a caller that waits
        for that condition never takes in vain.
        """
        return min(
            (self._queues[tenant][0].weight for tenant in self._ring),
            default=None,
        )

    def take(
        self,
        budget: int,
        on_quantum: Optional[Callable[[str, int], None]] = None,
    ) -> List[QueueItem]:
        """Dequeue the next batch, at most ``budget`` arms in total.

        Visits tenants round-robin; a visit grants ``quantum`` credit
        only when the tenant's head item still needs it (which bounds
        the deficit at ``head.weight + quantum - 1``), then serves items
        while credit and budget both cover the head.  ``on_quantum``
        observes every credit grant as ``(tenant, new_deficit)`` -- the
        server turns those into ``tenant-quantum`` trace events.

        Items heavier than ``budget`` are the caller's problem: the
        server rejects blocks wider than its in-flight-arm ceiling at
        ``submit`` time, so here every head is eventually servable.
        """
        batch: List[QueueItem] = []
        used = 0
        if budget < 1:
            return batch
        # One sweep visits each active tenant at most once; sweeps repeat
        # while they make progress, so credit accrues across sweeps and a
        # heavy head is reached in finitely many visits.
        progressed = True
        while progressed and self._ring and used < budget:
            progressed = False
            for _ in range(len(self._ring)):
                if used >= budget:
                    break
                tenant = self._ring[0]
                queue = self._queues[tenant]
                head = queue[0]
                if self._deficit[tenant] < head.weight:
                    self._deficit[tenant] += self.quantum
                    if on_quantum is not None:
                        on_quantum(tenant, self._deficit[tenant])
                    if used + head.weight <= budget:
                        # The head still fits this call's budget, so the
                        # grant is progress toward serving it: keep
                        # sweeping until the credit covers it.  (Without
                        # this, a head heavier than one quantum could
                        # leave `take` empty-handed with no later call
                        # scheduled to finish the job.)
                        progressed = True
                while (
                    queue
                    and self._deficit[tenant] >= queue[0].weight
                    and used + queue[0].weight <= budget
                ):
                    item = queue.popleft()
                    self._deficit[tenant] -= item.weight
                    self._total -= 1
                    batch.append(item)
                    used += item.weight
                    progressed = True
                self._ring.rotate(-1)
                if not queue:
                    self._retire(tenant)
        return batch
