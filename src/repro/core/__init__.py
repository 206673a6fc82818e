"""The alternative-block construct and its executors.

This package is the paper's primary contribution:

- :class:`~repro.core.alternative.Alternative` and
  :class:`~repro.core.alternative.AltContext` express the
  ``ENSURE guard WITH method`` arms of the alternative block (section 2);
- :class:`~repro.core.sequential.SequentialExecutor` gives the sequential
  non-deterministic-selection semantics;
- :class:`~repro.core.concurrent.ConcurrentExecutor` is the
  semantics-preserving transformation of section 3: race every alternative
  speculatively under copy-on-write state management, select fastest-first,
  eliminate the siblings;
- :mod:`repro.core.backends` makes the executor's concurrency pluggable:
  :class:`~repro.core.backends.SerialBackend` (deterministic replay),
  :class:`~repro.core.backends.ThreadBackend` and
  :class:`~repro.core.backends.ProcessBackend` (real racing with
  cooperative loser elimination; the latter forks real processes on the
  host kernel's copy-on-write memory).
"""

from repro.core.alternative import AltContext, Alternative, GuardPlacement
from repro.core.backends import (
    CancellationToken,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    default_parallel_backend,
    get_backend,
)
from repro.core.concurrent import ConcurrentExecutor
from repro.core.result import AltOutcome, AltResult, OverheadBreakdown
from repro.core.selection import (
    OrderedPolicy,
    PriorityPolicy,
    RandomPolicy,
    SelectionPolicy,
)
from repro.core.sequential import SequentialExecutor

__all__ = [
    "AltContext",
    "AltOutcome",
    "AltResult",
    "Alternative",
    "CancellationToken",
    "ConcurrentExecutor",
    "ExecutionBackend",
    "GuardPlacement",
    "OrderedPolicy",
    "OverheadBreakdown",
    "PriorityPolicy",
    "ProcessBackend",
    "RandomPolicy",
    "SelectionPolicy",
    "SequentialExecutor",
    "SerialBackend",
    "ThreadBackend",
    "default_parallel_backend",
    "get_backend",
]
