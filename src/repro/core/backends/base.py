"""Execution-backend contract for alternative blocks.

The paper's ``alt_spawn(n)`` forks alternatives that *race*; which kind of
concurrency backs the race is an implementation choice the construct must
not leak (section 3.1's transparency requirement).  A backend receives one
:class:`ArmTask` per spawned arm and runs the bodies under its own notion
of concurrency:

- :class:`~repro.core.backends.serial.SerialBackend` runs them one at a
  time -- the deterministic default the simulator's timing model races
  *afterwards* under virtual concurrency;
- :class:`~repro.core.backends.thread.ThreadBackend` and
  :class:`~repro.core.backends.process.ProcessBackend` run them
  concurrently for real and implement fastest-first at the wall clock:
  the first arm whose guard holds wins the rendezvous and every other arm
  receives a cooperative :class:`CancellationToken` (the section 3.2.1
  termination instruction), checked inside
  :meth:`~repro.core.alternative.AltContext.check_eliminated`.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple


class CancellationToken:
    """Delivery vehicle for one arm's termination instruction.

    Thread-safe and idempotent: :meth:`cancel` may be called by the
    backend (at winner selection), by the kernel's elimination drain, or
    by a signal handler in a forked child -- the first call wins and the
    rest are no-ops.
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Deliver the termination instruction."""
        self._event.set()

    @property
    def cancelled(self) -> bool:
        """True once elimination has been delivered."""
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until cancelled or ``timeout`` elapses; True if cancelled."""
        return self._event.wait(timeout)


@dataclass
class ArmTask:
    """One spawned alternative, ready for a backend to execute.

    ``run`` executes the arm's body against its private COW context and
    returns ``(succeeded, value, detail)``; it raises
    :class:`~repro.errors.Eliminated` if cancellation lands at one of the
    body's cooperative checkpoints.
    """

    index: int
    name: str
    run: Callable[[], Tuple[bool, Any, str]]
    context: Any = None
    """The arm's :class:`~repro.core.alternative.AltContext` (carries the
    cancellation token and the COW address space)."""

    alternative: Any = None
    """The :class:`~repro.core.alternative.Alternative` behind ``run``,
    when the executor can expose it.  A pre-warmed world pool ships this
    (by value, when picklable) to a parked worker instead of forking; a
    ``None`` or unpicklable alternative makes the arm fall back to a
    direct fork."""

    rng_seed: Optional[int] = None
    """Seed of the context's deterministic RNG, so a pooled worker can
    rebuild an equivalent context in another process."""


@dataclass
class ArmReport:
    """What one arm's execution looked like, in real time."""

    index: int
    name: str
    succeeded: bool = False
    value: Any = None
    detail: str = ""
    cancelled: bool = False
    """True when the arm stopped at a cooperative cancellation point (or
    was forcibly terminated) instead of running to completion."""

    started_at: float = 0.0
    """Seconds since the race started when the body began."""

    finished_at: float = 0.0
    """Seconds since the race started when the body stopped (completion,
    failure, or cancellation)."""

    work_seconds: float = 0.0
    """Wall seconds this arm actually executed -- for a cancelled loser,
    strictly less than its full-run cost; the measurable §3.2 saving."""

    dirty_pages: Optional[Dict[int, bytes]] = None
    """Winning child's dirty page images, shipped back by backends whose
    children run in another OS process (``None`` when the arm's writes
    are already visible in this process's simulated store, or when the
    shipment travelled through shared memory instead -- see
    :attr:`shm_shipment`)."""

    shm_shipment: Any = None
    """Winning child's dirty pages as a
    :class:`~repro.pages.shm.ShmShipment` of ``(page, slot)`` pointers
    into a shared-memory slab -- the zero-copy alternative to
    :attr:`dirty_pages`.  Whoever commits (or abandons) the race must
    ``dispose()`` the shipment's slab."""

    page_transport: Optional[str] = None
    """How this arm's dirty pages travelled home: ``"shm"`` (slab slot
    pointers), ``"pipe"`` (pickled images), or ``None`` when the arm ran
    in-process or shipped nothing."""

    cow_faults: int = 0
    pages_written: int = 0

    abnormal: bool = False
    """True when the arm *died* rather than failed: an unexpected
    exception, a signal, a hang, a truncated or corrupt result record.
    Semantic failures (guard not satisfied, acceptance test rejected)
    stay ``False`` -- only abnormal deaths are retryable under a
    :class:`~repro.resilience.Supervisor`."""

    exit_signal: Optional[int] = None
    """Signal number that terminated the arm's OS process, when the
    backend ran it in one and could observe the wait status."""


@dataclass
class BackendRace:
    """The outcome of one backend-run race."""

    backend: str
    reports: List[ArmReport]
    winner_index: Optional[int]
    """Index of the first arm whose guard held, ``None`` when every arm
    failed (or the deadline expired first)."""

    elapsed: float
    """Seconds from race start to the winner's synchronization (to the
    last completion when there is no winner)."""

    total_seconds: float
    """Seconds from race start until the caller got the race back: every
    arm accounted for -- or, for a pooled loser, told to stop and left
    to the pool (selection ends at the commit; section 3.2.1's "at some
    time after")."""

    timed_out: bool = False
    events: List[Tuple[float, str]] = field(default_factory=list)
    """Timeline events (relative seconds, label) for Figure-2 rendering."""

    setup_seconds: float = 0.0
    """Seconds from ``run_arms`` entry until the last arm was leased or
    forked -- the backend's share of section 4.1's *setup* overhead (0
    for backends that launch nothing)."""

    page_transport: Optional[str] = None
    """The page-shipback transport this race resolved to (``"shm"`` or
    ``"pipe"`` for the fork backend, ``None`` for in-process backends)."""

    def report(self, index: int) -> ArmReport:
        for candidate in self.reports:
            if candidate.index == index:
                return candidate
        raise KeyError(f"no report for arm {index}")


class ExecutionBackend(ABC):
    """How the bodies of one alternative block actually execute."""

    name: str = "abstract"
    is_parallel: bool = False
    """True when arms genuinely overlap in real time; the executor then
    selects fastest-first at the wall clock instead of simulating the
    race."""

    @abstractmethod
    def run_arms(
        self,
        tasks: List[ArmTask],
        timeout: Optional[float] = None,
        collect_all: bool = False,
    ) -> BackendRace:
        """Execute every task; return per-arm reports and the winner.

        ``collect_all=True`` is the maximal-step mode: the first success
        does *not* terminate its siblings, no late success is demoted to
        "too late", and every successful arm's writes are preserved on
        its report -- the executor then validates page-disjointness and
        commits all of them as one step (or falls back to classic
        first-success selection).  ``winner_index`` still names the
        temporally-first success so the fallback needs no re-race.
        """

    def terminate_arm(self, index: int, hard: bool = False) -> bool:
        """Deliver a termination instruction to one still-racing arm.

        The supervisor's watchdog calls this from another thread while
        :meth:`run_arms` blocks: ``hard=False`` is the cooperative kill
        (cancellation token / SIGTERM), ``hard=True`` the forcible one
        (SIGKILL where the backend commands an OS process).  Returns True
        when a delivery was attempted; the base implementation knows no
        arms and returns False.  Idempotent and safe on finished arms.
        """
        return False
