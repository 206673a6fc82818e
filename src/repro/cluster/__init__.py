"""Real-wire HA cluster runtime (localhost-first, multi-host-capable).

The distributed race is one protocol with two transports (see
:mod:`repro.net.distributed`): what it does on the simulated substrate
-- arm shipment, heartbeat leases, incarnation-epoch fencing,
majority-consensus synchronization -- runs here, with router journal
replay, on *real* TCP sockets between *real* OS processes:

- :mod:`repro.cluster.stream` frames records over sockets with the exact
  ``core/backends/wire.py`` format the fork children and pool workers
  already speak (a torn shipment is detected, never half-parsed);
- :mod:`repro.cluster.daemon` is the worker daemon: it accepts arm
  shipments, executes them in COW worlds of the shipped parent image,
  heartbeats while the body runs, ships dirty pages home, answers
  majority-consensus vote requests, and survives SIGTERM/EINTR without
  leaking sockets or shared-memory segments;
- :mod:`repro.cluster.proxy` replays the seeded ``CHAOS_SCENARIOS`` on
  the real wire: a frame-aware impairment proxy drops, duplicates,
  reorders, delays, and partitions framed traffic deterministically;
- :mod:`repro.cluster.executor` is the socket transport of the one
  home-node ladder (:class:`~repro.net.distributed.HomeLadder`), whose
  other transport is the simulated network: the same ship, supervise,
  fence, commit, cancel and degrade steps, fed by records from TCP
  sessions on the wall clock -- leases renewed by real heartbeats,
  SIGKILLed daemons detected by connection drop or lease expiry and
  re-spawned under a fresh epoch, healed-partition zombies fenced at
  winner-commit, a home-node serial replay when the cluster cannot
  answer;
- :mod:`repro.cluster.semaphore` runs the Thomas-1979 majority-consensus
  0-1 semaphore (paper section 3.4) across the worker daemons' voter
  endpoints instead of in-process node objects;
- :mod:`repro.cluster.router_service` makes `RouterJournal`-backed crash
  restart a live service: the router daemon journals write-ahead to disk
  and a SIGKILLed incarnation is rebuilt by replay on restart;
- :mod:`repro.cluster.auth` puts HMAC-SHA256 envelopes (nonce-bound,
  replay-fenced) under every cluster conversation when a shared secret
  is configured -- the prerequisite for binding beyond loopback;
- :mod:`repro.cluster.membership` is the self-healing piece: a
  phi-accrual :class:`MembershipTable` on the home node, an
  authenticated join/ping/leave gossip server, and the in-daemon
  announcer through which a respawned worker re-enters the executor's
  rotation with no home-node restart.

``python -m repro cluster {worker,router,demo}`` is the operational
surface (see :mod:`repro.cluster.cli`).
"""

from repro.cluster.auth import (
    AuthedStream,
    AuthError,
    SECRET_ENV,
    dial_handshake,
    generate_secret,
    load_secret,
    serve_handshake,
)
from repro.cluster.daemon import WorkerDaemon
from repro.cluster.membership import (
    MEMBER_STATES,
    MemberRecord,
    MembershipAnnouncer,
    MembershipServer,
    MembershipTable,
)
from repro.cluster.executor import ClusterExecutor, WorkerEndpoint
from repro.cluster.proxy import ImpairmentProxy
from repro.cluster.router_service import RouterClient, RouterDaemon
from repro.cluster.semaphore import ClusterMajoritySemaphore
from repro.cluster.spawn import (
    DaemonHandle,
    respawn_worker,
    spawn_router,
    spawn_worker,
)
from repro.cluster.stream import RecordStream, StreamClosed, connect

__all__ = [
    "AuthError",
    "AuthedStream",
    "ClusterExecutor",
    "ClusterMajoritySemaphore",
    "DaemonHandle",
    "ImpairmentProxy",
    "MEMBER_STATES",
    "MemberRecord",
    "MembershipAnnouncer",
    "MembershipServer",
    "MembershipTable",
    "RecordStream",
    "RouterClient",
    "RouterDaemon",
    "SECRET_ENV",
    "StreamClosed",
    "WorkerDaemon",
    "WorkerEndpoint",
    "connect",
    "dial_handshake",
    "generate_secret",
    "load_secret",
    "respawn_worker",
    "serve_handshake",
    "spawn_router",
    "spawn_worker",
]
