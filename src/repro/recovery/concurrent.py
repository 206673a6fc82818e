"""Concurrent (distributed) execution of recovery-block alternates.

Section 5.1.2's two special concerns are both modelled:

1. *No new failure modes from shared state*: optionally 'copy all of the
   state rather than copying as necessary, in order that the state not
   become inaccessible and so cause a failure'.  With
   ``eager_full_copy=True`` every alternate is charged the copy of the
   whole parent image up front instead of per-page COW faults.
2. *No single point of failure in synchronization*: with
   ``SyncMode.MAJORITY_CONSENSUS`` the winner must win a
   :class:`~repro.consensus.MajorityConsensusSemaphore` round, whose
   round-trip latency is added to the selection overhead -- 'the
   additional communication and protocol of multiple-node synchronization
   is the price paid for increased robustness'.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.consensus.majority import MajorityConsensusSemaphore
from repro.consensus.node import ConsensusNode
from repro.consensus.semaphore import SyncSemaphore
from repro.core.alternative import Alternative, GuardPlacement
from repro.core.concurrent import ConcurrentExecutor
from repro.core.result import AltResult, OverheadBreakdown
from repro.errors import SynchronizationError
from repro.process.primitives import EliminationMode, ProcessManager
from repro.process.process import SimProcess
from repro.recovery.block import RecoveryBlock
from repro.sim.costs import CostModel, MODERN_COMMODITY
from repro.sim.distributions import Deterministic, Distribution, Shifted


class SyncMode(enum.Enum):
    """How the at-most-once synchronization is implemented."""

    LOCAL = "local"
    """A single synchronization point (fast; a single point of failure)."""

    MAJORITY_CONSENSUS = "majority_consensus"
    """Replicated across voting nodes (robust; one round trip slower)."""


@dataclass
class RecoveryRunResult:
    """An :class:`AltResult` plus the synchronization detail."""

    result: AltResult
    sync_mode: SyncMode
    sync_latency: float
    consensus_winner: Optional[str] = None

    @property
    def elapsed(self) -> float:
        """Total simulated time including synchronization."""
        return self.result.elapsed

    @property
    def value(self):
        """The accepted alternate's result value."""
        return self.result.value


class ConcurrentRecoveryExecutor:
    """Race recovery-block alternates, fastest acceptable first."""

    def __init__(
        self,
        cost_model: CostModel = MODERN_COMMODITY,
        cpus: Optional[int] = None,
        sync_mode: SyncMode = SyncMode.LOCAL,
        consensus_nodes: Optional[Sequence[ConsensusNode]] = None,
        eager_full_copy: bool = False,
        elimination: EliminationMode = EliminationMode.ASYNCHRONOUS,
        guard_placement: GuardPlacement = GuardPlacement.IN_CHILD,
        acceptance_cost: float = 0.0,
        seed: int = 0,
        manager: Optional[ProcessManager] = None,
        space_size: int = 64 * 1024,
    ) -> None:
        self.cost_model = cost_model
        self.sync_mode = sync_mode
        self.eager_full_copy = eager_full_copy
        self.acceptance_cost = acceptance_cost
        if sync_mode is SyncMode.MAJORITY_CONSENSUS:
            nodes = (
                list(consensus_nodes)
                if consensus_nodes is not None
                else [ConsensusNode(f"voter-{i}") for i in range(3)]
            )
            self.consensus: Optional[MajorityConsensusSemaphore] = (
                MajorityConsensusSemaphore(nodes)
            )
        else:
            self.consensus = None
        self._executor = ConcurrentExecutor(
            cost_model=cost_model,
            cpus=cpus,
            elimination=elimination,
            guard_placement=guard_placement,
            seed=seed,
            manager=manager,
            space_size=space_size,
        )
        self._decisions = itertools.count(1)

    @property
    def manager(self) -> ProcessManager:
        """The underlying process manager."""
        return self._executor.manager

    def new_parent(self) -> SimProcess:
        """A fresh root process whose space callers may preload."""
        return self._executor.new_parent()

    # ------------------------------------------------------------------

    def run(
        self, block: RecoveryBlock, parent: Optional[SimProcess] = None
    ) -> RecoveryRunResult:
        """Execute ``block`` concurrently.

        Raises :class:`~repro.errors.AltBlockFailure` when every alternate
        fails its acceptance test, and
        :class:`~repro.errors.SynchronizationError` when the winning
        alternate cannot complete the (replicated) synchronization.
        """
        parent = parent if parent is not None else self.new_parent()
        arms = block.as_alternatives()
        if self.acceptance_cost:
            for arm in arms:
                arm.guard_cost = self.acceptance_cost
        if self.eager_full_copy:
            arms = [self._with_full_copy(arm, parent) for arm in arms]
        result = self._executor.run(arms, parent=parent)
        return self._synchronize(block, result)

    def _with_full_copy(self, arm: Alternative, parent: SimProcess) -> Alternative:
        """Charge the whole parent image to the alternate up front."""
        full_copy = self.cost_model.page_copy_time(parent.space.num_pages)
        if arm.cost is None:
            cost: Distribution = Deterministic(full_copy)
        elif isinstance(arm.cost, Distribution):
            cost = Shifted(arm.cost, full_copy)
        else:
            cost = Deterministic(float(arm.cost) + full_copy)
        return Alternative(
            name=arm.name,
            body=arm.body,
            guard=arm.guard,
            pre_guard=arm.pre_guard,
            cost=cost,
            guard_cost=arm.guard_cost,
            metadata=arm.metadata,
        )

    def _synchronize(
        self, block: RecoveryBlock, result: AltResult
    ) -> RecoveryRunResult:
        decision = (block.name, next(self._decisions))
        if self.consensus is None:
            semaphore = SyncSemaphore(name=str(decision))
            if not semaphore.try_acquire(decision, result.winner.name):
                raise SynchronizationError("local 0-1 semaphore refused")
            # Local sync latency is already inside the executor's
            # selection overhead; nothing further to charge.
            return RecoveryRunResult(
                result=result,
                sync_mode=SyncMode.LOCAL,
                sync_latency=self.cost_model.sync_latency,
            )
        won = self.consensus.try_acquire(decision, result.winner.name)
        if not won:
            raise SynchronizationError(
                f"{result.winner.name} lost the consensus round for "
                f"{decision}"
            )
        extra = self.consensus.latency(self.cost_model)
        result.elapsed += extra
        result.overhead = result.overhead + OverheadBreakdown(selection=extra)
        result.timeline.append((result.elapsed, "majority consensus granted"))
        return RecoveryRunResult(
            result=result,
            sync_mode=SyncMode.MAJORITY_CONSENSUS,
            sync_latency=extra,
            consensus_winner=str(self.consensus.winner(decision)),
        )
