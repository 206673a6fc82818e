"""Distributed execution of recovery blocks (paper section 5.1).

A recovery block [Horning 1974] gathers several alternative software
versions and a boolean acceptance test.  Sequentially, alternates are
tried in order with rollback between failures.  Concurrently, the
alternates race under the fastest-first mechanism with the acceptance test
as the guard; majority-consensus synchronization keeps the mechanism from
introducing a new single point of failure, and eager full-copy state
management avoids depending on a failed sibling's frames.
"""

from repro.recovery.block import RecoveryAlternate, RecoveryBlock
from repro.recovery.concurrent import (
    ConcurrentRecoveryExecutor,
    RecoveryRunResult,
    SyncMode,
)
from repro.recovery.control_loop import ControlLoopResult, run_control_loop
from repro.recovery.faults import flaky_body, scripted_body
from repro.recovery.sequential import SequentialRecoveryExecutor

__all__ = [
    "ConcurrentRecoveryExecutor",
    "ControlLoopResult",
    "RecoveryAlternate",
    "RecoveryBlock",
    "RecoveryRunResult",
    "SequentialRecoveryExecutor",
    "SyncMode",
    "flaky_body",
    "run_control_loop",
    "scripted_body",
]
