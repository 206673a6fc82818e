"""Property test: bounded admission + DRR fairness vs a reference model.

The state machine drives :class:`repro.server.DeficitRoundRobin` --
tenants submit and cancel blocks of random arm-weights, the scheduler
takes batches under random budgets -- against an *unbounded fair
reference*: plain per-tenant FIFO queues with no scheduling policy at
all.  The contract:

- **reject-only-when-full**: ``offer`` refuses exactly when a bound
  (per-tenant or total) is genuinely hit, and names the bound;
- **bounded queues**: depth never exceeds the configured bounds, and the
  structure's own accounting always matches the reference;
- **conservation + per-tenant FIFO**: every admitted item leaves the
  queue exactly once, in its tenant's submission order, and a batch
  never exceeds its budget in total arms;
- **no starvation**: when submissions stop, a bounded number of ``take``
  rounds drains *everything* that was admitted -- no item waits forever
  behind hotter tenants;
- **no take in vain**: ``take(b)`` is non-empty exactly when ``b`` covers
  ``lightest_head()`` -- the predicate the server's dispatcher sleeps on
  -- and that query is pure: it never moves a deficit, the ring or
  ``depth``.
"""

import math
from collections import deque

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.server.admission import DeficitRoundRobin, QueueItem

TENANTS = ("alice", "bob", "carol", "dave")
MAX_WEIGHT = 6
MAX_PER_TENANT = 5
MAX_TOTAL = 12
QUANTUM = 2


class AdmissionMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.drr = DeficitRoundRobin(
            quantum=QUANTUM,
            max_queue_per_tenant=MAX_PER_TENANT,
            max_queue_total=MAX_TOTAL,
        )
        # The unbounded-fair reference: per-tenant FIFO of (seq, weight).
        self.reference = {tenant: deque() for tenant in TENANTS}
        self.admitted_total = 0
        self.served = set()
        self.next_seq = 1

    # -- rules ---------------------------------------------------------

    @rule(
        tenant=st.sampled_from(TENANTS),
        weight=st.integers(1, MAX_WEIGHT),
    )
    def submit(self, tenant, weight):
        seq = self.next_seq
        self.next_seq += 1
        total = sum(len(q) for q in self.reference.values())
        tenant_depth = len(self.reference[tenant])
        verdict = self.drr.offer(QueueItem(seq, tenant, weight))
        if total >= MAX_TOTAL:
            assert not verdict.admitted
            assert verdict.reason == "total-queue-full"
        elif tenant_depth >= MAX_PER_TENANT:
            assert not verdict.admitted
            assert verdict.reason == "tenant-queue-full"
        else:
            # Room existed, so rejection would be a spurious backpressure
            # signal: reject-only-when-full.
            assert verdict.admitted, (
                f"spurious reject: total={total} tenant={tenant_depth}"
            )
            assert verdict.reason is None
            self.reference[tenant].append((seq, weight))
            self.admitted_total += 1

    @rule(tenant=st.sampled_from(TENANTS), position=st.integers(0, 10))
    def cancel(self, tenant, position):
        queue = self.reference[tenant]
        if not queue:
            # Nothing queued: cancelling an unknown seq must be a no-op.
            assert self.drr.cancel(999_999_999) is False
            return
        seq, _weight = queue[position % len(queue)]
        assert self.drr.cancel(seq) is True
        queue.remove((seq, _weight))
        # A second cancel of the same seq must report "already gone".
        assert self.drr.cancel(seq) is False

    @rule(budget=st.integers(1, MAX_WEIGHT + 3))
    def take(self, budget):
        lightest = self.drr.lightest_head()
        batch = self.drr.take(budget)
        # The dispatcher's wake-up predicate is exact: a take comes back
        # empty-handed iff no queued head fits the budget.
        assert bool(batch) == (lightest is not None and budget >= lightest), (
            f"take({budget}) returned {len(batch)} items with lightest "
            f"head {lightest}"
        )
        used = sum(item.weight for item in batch)
        assert used <= budget, f"batch overshot its budget: {used}>{budget}"
        for item in batch:
            # Conservation: served exactly once, and only admitted items.
            assert item.seq not in self.served
            self.served.add(item.seq)
            # Per-tenant FIFO: each served item is its tenant's head.
            queue = self.reference[item.tenant]
            assert queue, f"{item.tenant} served while reference empty"
            head_seq, head_weight = queue.popleft()
            assert item.seq == head_seq, (
                f"{item.tenant} served {item.seq} before {head_seq}"
            )
            assert item.weight == head_weight

    # -- invariants ----------------------------------------------------

    def _scheduler_state(self):
        return (
            dict(self.drr._deficit), self.drr.tenants(), self.drr.depth,
            {t: self.drr.tenant_depth(t) for t in TENANTS},
        )

    @invariant()
    def lightest_head_is_pure_and_right(self):
        before = self._scheduler_state()
        lightest = self.drr.lightest_head()
        assert self._scheduler_state() == before, (
            "lightest_head() mutated the scheduler"
        )
        heads = [q[0][1] for q in self.reference.values() if q]
        assert lightest == (min(heads) if heads else None)

    @invariant()
    def accounting_matches_reference(self):
        total = sum(len(q) for q in self.reference.values())
        assert self.drr.depth == total
        assert self.drr.depth <= MAX_TOTAL
        for tenant in TENANTS:
            depth = self.drr.tenant_depth(tenant)
            assert depth == len(self.reference[tenant])
            assert depth <= MAX_PER_TENANT

    def teardown(self):
        # No starvation: once submissions stop, every admitted item is
        # scheduled within a bounded number of rounds.  Each round can
        # need several credit-granting visits for a heavy head, so the
        # bound is rounds-per-item * ceil(weight/quantum), with slack.
        remaining = sum(len(q) for q in self.reference.values())
        bound = (remaining + 1) * (math.ceil(MAX_WEIGHT / QUANTUM) + 1)
        rounds = 0
        while self.drr.depth > 0:
            assert rounds <= bound, (
                f"starvation: {self.drr.depth} items still queued "
                f"after {rounds} drain rounds"
            )
            batch = self.drr.take(MAX_WEIGHT)
            rounds += 1
            for item in batch:
                assert item.seq not in self.served
                self.served.add(item.seq)
                head_seq, _ = self.reference[item.tenant].popleft()
                assert item.seq == head_seq
        assert all(not q for q in self.reference.values())


TestAdmissionMachine = AdmissionMachine.TestCase
TestAdmissionMachine.settings = settings(
    max_examples=60, stateful_step_count=50, deadline=None
)
