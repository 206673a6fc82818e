"""Leases and the home-node warden for distributed races.

The local supervisor (PR 2) can *see* its children die; a home node
racing arms on remote workstations cannot -- all it has is the wire.  So
each remote child holds a :class:`Lease`: a grant that stays valid only
while heartbeats keep arriving over the (possibly faulty) network.  The
:class:`RaceWarden` is the home-node policy generalizing
:class:`~repro.resilience.Supervisor` to that setting:

- a worker whose lease lapses (heartbeats lost, link partitioned, or the
  worker genuinely dead) is declared dead and its arm is re-spawned on a
  healthy node under a fresh *incarnation epoch*;
- the lapsed incarnation is fenced: the worker side of the lease expires
  on the same deadline, so an orphan self-terminates, and even a zombie
  that finishes its body cannot commit -- the winner-commit checks its
  epoch against the arm's current incarnation;
- when respawns are exhausted (or no healthy node remains), the whole
  block degrades to a serial replay on the home node.

Every lease ends in exactly one terminal state -- ``committed``,
``eliminated``, or ``expired`` -- which is the no-leaked-workers
invariant the chaos suite asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.check.runtime import checkpoint as _checkpoint
from repro.obs import events as _ev
from repro.obs.tracer import active as _active_tracer

#: Lease lifecycle states.  ``active`` is the only non-terminal one.
LEASE_STATES = ("active", "committed", "eliminated", "expired")


@dataclass
class Lease:
    """One remote incarnation's liveness grant."""

    worker: str
    arm: int
    epoch: int
    """Incarnation epoch of this grant; the fence at winner-commit."""

    granted_at: float
    interval: float
    """Heartbeat period the worker promised (simulated seconds)."""

    timeout: float
    """Grace after the last renewal before the warden declares death."""

    last_renewal: float = 0.0
    renewals: int = 0
    state: str = "active"
    ended_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.interval <= 0 or self.timeout <= 0:
            raise ValueError("lease interval and timeout must be positive")
        if self.timeout <= self.interval:
            raise ValueError(
                "lease timeout must exceed the heartbeat interval"
            )
        if not self.last_renewal:
            self.last_renewal = self.granted_at

    @property
    def deadline(self) -> float:
        """The instant the lease lapses absent further renewals.

        The same deadline governs both sides: the warden declares the
        worker dead at it, and an orphaned worker self-terminates at it
        -- neither needs the other to be reachable to agree.
        """
        return self.last_renewal + self.timeout

    @property
    def terminal(self) -> bool:
        return self.state != "active"

    def renew(self, at: float) -> None:
        """A heartbeat arrived at simulated instant ``at``."""
        _checkpoint("lease-renew", f"{self.worker}:{self.arm}")
        self._require_active("renew")
        if at > self.last_renewal:
            self.last_renewal = at
        self.renewals += 1
        tracer = _active_tracer()
        if tracer.enabled:
            tracer.emit(
                _ev.LEASE_RENEW,
                arm=self.arm,
                name=self.worker,
                epoch=self.epoch,
                at=at,
                deadline=self.deadline,
            )

    def expire(self, at: float) -> None:
        """The deadline passed without a renewal: the grant is void."""
        self._require_active("expire")
        self.state = "expired"
        self.ended_at = at
        tracer = _active_tracer()
        if tracer.enabled:
            tracer.emit(
                _ev.LEASE_EXPIRE,
                arm=self.arm,
                name=self.worker,
                epoch=self.epoch,
                at=at,
                renewals=self.renewals,
            )

    def commit(self, at: float) -> None:
        """This incarnation won the race and shipped its pages home."""
        self._require_active("commit")
        self.state = "committed"
        self.ended_at = at

    def eliminate(self, at: float) -> None:
        """A sibling won; the termination message settles this grant."""
        self._require_active("eliminate")
        self.state = "eliminated"
        self.ended_at = at

    def _require_active(self, verb: str) -> None:
        if self.terminal:
            raise ValueError(
                f"cannot {verb} lease (arm {self.arm} epoch {self.epoch}): "
                f"already {self.state}"
            )

    def __repr__(self) -> str:
        return (
            f"Lease(arm={self.arm}, worker={self.worker!r}, "
            f"epoch={self.epoch}, state={self.state})"
        )


class LeaseTable:
    """The home node's book of the leases of the current race.

    A settled race is forgotten: the first :meth:`grant` after a
    :meth:`settle` starts ``leases`` afresh, so a long-lived executor's
    ``settle`` and ``all_settled`` stay O(arms) however many blocks it
    has raced.  The incarnation epochs are kept for good -- an arm's
    epoch never repeats across races, which is what the fence at
    winner-commit relies on.
    """

    def __init__(self) -> None:
        self.leases: List[Lease] = []
        self._epochs: Dict[int, int] = {}
        self._settled = False

    def grant(
        self,
        worker: str,
        arm: int,
        at: float,
        interval: float,
        timeout: float,
    ) -> Lease:
        """Grant a fresh incarnation of ``arm`` on ``worker``."""
        if self._settled:
            # A fresh list, not ``clear()``: whoever kept the settled
            # race's list keeps reading that race.
            self.leases = []
            self._settled = False
        epoch = self._epochs.get(arm, 0) + 1
        self._epochs[arm] = epoch
        lease = Lease(
            worker=worker,
            arm=arm,
            epoch=epoch,
            granted_at=at,
            interval=interval,
            timeout=timeout,
        )
        self.leases.append(lease)
        return lease

    def current_epoch(self, arm: int) -> int:
        """The live incarnation epoch of ``arm`` (0 before any grant)."""
        return self._epochs.get(arm, 0)

    def outstanding(self) -> List[Lease]:
        """Leases still active (must be empty after a settled race)."""
        return [lease for lease in self.leases if not lease.terminal]

    @property
    def all_settled(self) -> bool:
        """True when every granted lease reached a terminal state."""
        return not self.outstanding()

    def settle(self, at: float, winner_arm: Optional[int] = None) -> None:
        """Drive every still-active lease terminal at the end of a race.

        The winning arm's current incarnation commits; everything else is
        eliminated (the termination message of section 3.2.1, priced at
        the caller's clock).
        """
        for lease in self.outstanding():
            if (
                winner_arm is not None
                and lease.arm == winner_arm
                and lease.epoch == self.current_epoch(lease.arm)
            ):
                lease.commit(at)
            else:
                lease.eliminate(at)
        self._settled = True


@dataclass
class RaceWarden:
    """Home-node supervision policy for one distributed race."""

    lease_interval: float = 0.02
    """Heartbeat period workers renew on (simulated seconds)."""

    lease_timeout: float = 0.08
    """Silence after which the warden declares a worker dead."""

    max_respawns: int = 2
    """Fresh incarnations one arm may burn before it is given up."""

    degrade_to_serial: bool = True
    """Replay the whole block serially on the home node when remote
    execution cannot be completed (no healthy nodes / respawns spent)."""

    table: LeaseTable = field(default_factory=LeaseTable)

    def __post_init__(self) -> None:
        if self.lease_interval <= 0:
            raise ValueError("lease_interval must be positive")
        if self.lease_timeout <= self.lease_interval:
            raise ValueError("lease_timeout must exceed lease_interval")
        if self.max_respawns < 0:
            raise ValueError("max_respawns cannot be negative")

    def respawns_left(self, attempts_used: int) -> bool:
        return attempts_used <= self.max_respawns
