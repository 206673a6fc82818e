"""``repro.check``: a schedule-exploring model checker for races.

The paper's transparency claim (sections 3.3-3.4) is universally
quantified over interleavings: *no* schedule of arm execution, predicate
delivery, world splits, or loser elimination may change a block's
observable outcome.  The wall-clock backends sample whatever schedules
the OS happens to produce; this package makes the schedule a first-class,
controllable object instead:

- :class:`~repro.core.backends.sim.SimBackend` runs arm bodies as
  cooperative activities on a virtual clock, with every yield point
  (guard eval, ``ctx.sleep``, channel send/recv, lease heartbeats, page
  shipback, world receives) routed through a pluggable scheduler;
- :mod:`repro.check.strategies` ships a seeded random walk, PCT-style
  priority scheduling with ``d`` preemption points, and a
  bounded-exhaustive DFS with a sleep-set-lite reduction;
- :class:`~repro.check.schedule.ScheduleRecorder` captures every
  scheduling decision and fault draw so a run -- including a shrunk
  failing one -- replays bit-identically;
- :func:`~repro.check.shrink.shrink` delta-debugs a failing schedule to
  its shortest still-failing prefix;
- :mod:`repro.check.oracle` re-uses the PR 3 equivalence machinery:
  every explored schedule must match the serial reference on
  value/winner/error/variables and byte-identical parent space, and must
  satisfy the trace invariants.

Exposed on the command line as ``python -m repro check <block>``.

Submodules are imported lazily (PEP 562): the instrumented yield-point
sites throughout the library import :mod:`repro.check.runtime`, which
depends only on the standard library and :mod:`repro.errors`, so the
checker adds a single attribute read to uninstrumented runs and no import
cycles anywhere.
"""

from __future__ import annotations

import importlib

_LAZY = {
    "runtime": "repro.check.runtime",
    "schedule": "repro.check.schedule",
    "strategies": "repro.check.strategies",
    "oracle": "repro.check.oracle",
    "explorer": "repro.check.explorer",
    "shrink": "repro.check.shrink",
    "chaos": "repro.check.chaos",
    "cli": "repro.check.cli",
    # convenience re-exports
    "CheckController": ("repro.check.runtime", "CheckController"),
    "checking": ("repro.check.runtime", "checking"),
    "Schedule": ("repro.check.schedule", "Schedule"),
    "ScheduleRecorder": ("repro.check.schedule", "ScheduleRecorder"),
    "ScheduleDivergence": ("repro.check.schedule", "ScheduleDivergence"),
    "CheckError": ("repro.check.schedule", "CheckError"),
    "get_strategy": ("repro.check.strategies", "get_strategy"),
    "STRATEGIES": ("repro.check.strategies", "STRATEGIES"),
    "explore": ("repro.check.explorer", "explore"),
    "replay": ("repro.check.explorer", "replay"),
    "run_block_once": ("repro.check.explorer", "run_block_once"),
    "shrink_schedule": ("repro.check.shrink", "shrink"),
}

__all__ = sorted(_LAZY)


def __getattr__(name):
    try:
        target = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module 'repro.check' has no attribute {name!r}")
    if isinstance(target, tuple):
        module, attr = target
        value = getattr(importlib.import_module(module), attr)
    else:
        value = importlib.import_module(target)
    globals()[name] = value
    return value
