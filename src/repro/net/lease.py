"""The home-node warden: the terms a distributed race is supervised on.

The local supervisor (PR 2) can *see* its children die; a home node
racing arms on remote workstations cannot -- all it has is the wire.  So
each remote incarnation holds a lease: a grant that stays valid only
while heartbeats keep arriving over the (possibly faulty) network.  The
:class:`RaceWarden` is the home-node policy generalizing
:class:`~repro.resilience.Supervisor` to that setting:

- a worker whose lease lapses (heartbeats lost, link partitioned, or the
  worker genuinely dead) is declared dead and its arm is re-spawned on a
  healthy node under a fresh *incarnation epoch*;
- the lapsed incarnation is fenced: the worker side of the lease expires
  on the same deadline, so an orphan self-terminates, and even a zombie
  that finishes its body cannot commit -- only the arm's current, active
  incarnation may;
- when respawns are exhausted (or no healthy node remains), the whole
  block degrades to a serial replay on the home node.

The warden holds only those terms.  The lease itself -- epoch, deadline,
renewals and lifecycle state -- is the ladder's record of the
incarnation (:class:`repro.net.distributed._Assignment`), and every one
ends in exactly one terminal state -- ``committed``, ``eliminated``, or
``expired`` -- which is the no-leaked-workers invariant the chaos suite
asserts on the ladder's book (``HomeLadder.leases``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RaceWarden:
    """Home-node supervision policy for distributed races."""

    lease_interval: float = 0.02
    """Heartbeat period workers renew on (simulated seconds)."""

    lease_timeout: float = 0.08
    """Silence after which the warden declares a worker dead."""

    max_respawns: int = 2
    """Fresh incarnations one arm may burn before it is given up."""

    degrade_to_serial: bool = True
    """Replay the whole block serially on the home node when remote
    execution cannot be completed (no healthy nodes / respawns spent)."""

    def __post_init__(self) -> None:
        if self.lease_interval <= 0:
            raise ValueError("lease_interval must be positive")
        if self.lease_timeout <= self.lease_interval:
            raise ValueError("lease_timeout must exceed lease_interval")
        if self.max_respawns < 0:
            raise ValueError("max_respawns cannot be negative")

    def respawns_left(self, attempts_used: int) -> bool:
        return attempts_used <= self.max_respawns
