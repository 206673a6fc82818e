"""Simulated network and distributed substrate.

Provides the nodes-and-links model under the distributed experiments:
per-link latency/bandwidth, partitions (static and timed), the remote
fork built from whole-process checkpointing (paper section 4.4's
``rfork()``), fault-injectable links driven by the seeded chaos plans,
and the lease/warden machinery that keeps a distributed race correct
when the wire turns hostile.
"""

from repro.net.distributed import DistributedAltExecutor
from repro.net.lease import LEASE_STATES, Lease, LeaseTable, RaceWarden
from repro.net.network import (
    Delivery,
    FaultyLink,
    NetFaultPlan,
    NetNode,
    Network,
    link_key,
)
from repro.net.rfork import RemoteForkResult, remote_fork, remote_fork_nfs

__all__ = [
    "Delivery",
    "DistributedAltExecutor",
    "FaultyLink",
    "LEASE_STATES",
    "Lease",
    "LeaseTable",
    "NetFaultPlan",
    "NetNode",
    "Network",
    "RaceWarden",
    "RemoteForkResult",
    "link_key",
    "remote_fork",
    "remote_fork_nfs",
]
