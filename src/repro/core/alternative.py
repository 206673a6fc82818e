"""Alternatives, guards, and the execution context.

An :class:`Alternative` is one ``ENSURE guard WITH method`` arm of the
alternative block of section 2.  Its ``body`` runs against an
:class:`AltContext` that exposes the alternative's private copy-on-write
world; everything the body writes there is invisible to siblings and is
committed to the caller only if this alternative is selected.

Guards can be evaluated 'before spawning the alternative, in the child
process, at the synchronization point, or at any combination of these
places, for redundancy' (section 3.2); :class:`GuardPlacement` selects the
placement and the executors honour it.
"""

from __future__ import annotations

import enum
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Union

from repro.check.runtime import virtual_sleep as _virtual_sleep
from repro.errors import Eliminated, GuardFailure
from repro.pages.address_space import AddressSpace
from repro.sim.distributions import Distribution


class GuardPlacement(enum.Enum):
    """Where the guard condition is evaluated."""

    BEFORE_SPAWN = "before_spawn"
    """In the parent, before forking: closed alternatives are never
    spawned, saving setup overhead."""

    IN_CHILD = "in_child"
    """In the child, 'thus speeding up spawning and synchronization' --
    the paper's default expectation."""

    AT_SYNC = "at_sync"
    """By the parent at the synchronization point: adds guard evaluation
    to the selection overhead but double-checks the child's claim."""


class AltContext:
    """What an alternative's body sees: its world, a seeded RNG, a meter.

    ``space`` is this alternative's private COW address space (shared
    variables live there via :meth:`get`/:meth:`put`); ``charge`` accrues
    simulated execution time for bodies whose cost is data-dependent.
    ``rng`` is a :class:`random.Random` or the seed of one (default 0),
    built the first time a body reads :attr:`rng`.
    """

    def __init__(
        self,
        space: AddressSpace,
        rng: Union[random.Random, int, None] = None,
        alt_index: int = 0,
        name: str = "",
        process: Any = None,
        token: Any = None,
    ) -> None:
        self.space = space
        self._rng = rng
        self.alt_index = alt_index
        self.name = name
        self.process = process
        """The simulated process running this alternative (when executed
        by an executor that has one).  Passing it as ``parent`` to another
        executor sharing the same manager nests alternative blocks, with
        predicates inherited down the tree (section 3.3)."""
        self.token = token
        """Cooperative cancellation token (a
        :class:`~repro.core.backends.CancellationToken`) when this body is
        racing in a concurrent block; ``None`` when nothing can cancel it
        (a sequential block).  Under the cost model the bodies run one at
        a time before any kill, so the token never fires mid-body."""
        self._charged = 0.0

    @property
    def rng(self) -> random.Random:
        """This alternative's RNG, seeded on first use."""
        rng = self._rng
        if rng is None or isinstance(rng, int):
            rng = self._rng = random.Random(rng or 0)
        return rng

    def charge(self, seconds: float) -> None:
        """Accrue ``seconds`` of simulated execution time."""
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        self._charged += seconds

    @property
    def charged(self) -> float:
        """Simulated time accrued so far by ``charge`` calls."""
        return self._charged

    def get(self, name: str, default: Any = None) -> Any:
        """Read a shared variable from this world."""
        return self.space.get(name, default)

    def put(self, name: str, value: Any) -> None:
        """Write a shared variable in this world (COW-isolated)."""
        self.space.put(name, value)

    def bulk_put(self, mapping) -> None:
        """Bind several variables in one directory append."""
        self.space.bulk_put(mapping)

    def fail(self, reason: str = "guard condition not satisfied") -> None:
        """Abort this alternative (it will not synchronize)."""
        raise GuardFailure(reason)

    # ------------------------------------------------------------------
    # cooperative elimination (section 3.2.1, under real concurrency)

    @property
    def eliminated(self) -> bool:
        """True once a sibling won and this arm's kill was delivered."""
        return self.token is not None and self.token.cancelled

    def check_eliminated(self) -> None:
        """Cooperative cancellation point.

        Long-running bodies call this inside their loops; once a sibling
        has synchronized and the termination instruction is delivered,
        the call raises :class:`~repro.errors.Eliminated`, so the loser
        stops consuming CPU instead of running to completion.  A no-op
        when no token is attached or, under the cost model, before the
        race is re-timed.
        """
        if self.eliminated:
            raise Eliminated(
                f"alternative {self.name or self.alt_index} eliminated: "
                "a sibling already synchronized"
            )

    def sleep(self, seconds: float) -> None:
        """Sleep for ``seconds`` of real time, but wake (and raise
        :class:`~repro.errors.Eliminated`) as soon as elimination is
        delivered -- the cancellable way for a body to wait on real I/O
        or model real work.

        Under the model checker the sleep is absorbed into virtual time
        instead (and elimination delivery still wakes the arm early, via
        the controller making cancelled sleepers immediately runnable)."""
        if seconds < 0:
            raise ValueError("cannot sleep negative time")
        if _virtual_sleep(seconds):
            self.check_eliminated()
            return
        if self.token is None:
            time.sleep(seconds)
            return
        self.token.wait(seconds)
        self.check_eliminated()


Body = Callable[[AltContext], Any]
Guard = Callable[[AltContext, Any], bool]
PreGuard = Callable[[AltContext], bool]


@dataclass
class Alternative:
    """One arm of an alternative block."""

    name: str
    body: Body
    guard: Optional[Guard] = None
    """Post-condition on the body's result (the recovery-block acceptance
    test shape).  ``None`` means the body's normal return is success."""

    pre_guard: Optional[PreGuard] = None
    """Enabling condition, evaluated per :class:`GuardPlacement`."""

    cost: Optional[Union[float, Distribution]] = None
    """Simulated execution time of the body: a constant, a distribution to
    sample, or ``None`` to use whatever the body ``charge()``d."""

    guard_cost: float = 0.0
    """Simulated time to evaluate the guard itself."""

    writes: Optional[Any] = None
    """Declared write-set (a :class:`repro.independence.WriteSet`) for
    maximal-step commits: when *every* arm of a block declares one and the
    shared independence engine proves them pairwise disjoint, all
    successful arms commit together as one validated step instead of
    racing winner-take-all.  ``None`` (the default) opts the arm out --
    the block then races classically."""

    metadata: dict = field(default_factory=dict)

    def sample_cost(self, rng: random.Random, context: AltContext) -> float:
        """The simulated duration of one execution of this alternative."""
        if self.cost is None:
            return context.charged
        if isinstance(self.cost, Distribution):
            return self.cost.sample(rng)
        return float(self.cost)

    def __repr__(self) -> str:
        return f"Alternative({self.name!r})"


def alternative(
    name: str,
    cost: Optional[Union[float, Distribution]] = None,
    guard: Optional[Guard] = None,
    pre_guard: Optional[PreGuard] = None,
) -> Callable[[Body], Alternative]:
    """Decorator sugar for building alternatives from plain functions.

    >>> @alternative("fast-path", cost=1.0)
    ... def fast(ctx):
    ...     return "done"
    >>> fast.name
    'fast-path'
    """

    def wrap(body: Body) -> Alternative:
        return Alternative(
            name=name, body=body, guard=guard, pre_guard=pre_guard, cost=cost
        )

    return wrap
