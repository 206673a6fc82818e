"""Process migration via checkpoint/restart (Smith & Ioannidis 1989).

Section 4.4 cites 'the process migration scheme we implemented using'
``rfork()``.  :func:`migrate` is the stop-and-copy version: freeze the
process, checkpoint it in its entirety, ship it, restore it on the
destination with the *same pid* ('up to and including maintenance of the
process id'), and silently retire the original -- the move must not look
like completion or failure to anyone holding predicates on the process.

The NFS variant reduces the stop-and-copy downtime by paging the image in
lazily, in the style of Theimer's 'preemptable remote execution'
facilities that the paper cites as the more sophisticated approach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import CheckpointError
from repro.net.network import Network
from repro.net.rfork import remote_fork, remote_fork_nfs
from repro.pages.files import FileSystem
from repro.process.process import ProcessState, SimProcess
from repro.sim.costs import CostModel


@dataclass(frozen=True)
class MigrationResult:
    """Outcome of one migration."""

    process: SimProcess
    src: str
    dst: str
    image_bytes: int
    downtime: float
    """Time the process is frozen: from checkpoint start until the
    destination copy can run."""

    @property
    def pid_preserved(self) -> bool:
        """Migration keeps the process identity."""
        return True


def migrate(
    network: Network,
    src: str,
    dst: str,
    process: SimProcess,
    nfs: Optional[FileSystem] = None,
    eager_fraction: float = 0.25,
    cost_model: Optional[CostModel] = None,
) -> MigrationResult:
    """Move ``process`` from ``src`` to ``dst``; returns the new handle.

    The original is retired without a status broadcast (it did not
    complete; it moved).  Raises
    :class:`~repro.errors.CheckpointError` if the process cannot be
    frozen and :class:`~repro.errors.NetworkError` if the nodes cannot
    communicate.
    """
    if process.is_terminal:
        raise CheckpointError(
            f"cannot migrate terminal process {process.pid}"
        )
    src_manager = network.node(src).manager
    if src_manager.processes.get(process.pid) is not process:
        raise CheckpointError(
            f"process {process.pid} does not live on node {src!r}"
        )
    original_pid = process.pid
    if nfs is not None:
        forked = remote_fork_nfs(
            network, src, dst, process, nfs,
            eager_fraction=eager_fraction, cost_model=cost_model,
        )
    else:
        forked = remote_fork(network, src, dst, process, cost_model=cost_model)
    moved = forked.process
    dst_manager = network.node(dst).manager

    # Maintain the process id: rebind the restored copy to the original
    # pid unless the destination already uses it.
    if original_pid not in dst_manager.processes:
        del dst_manager.processes[moved.pid]
        moved.pid = original_pid
        dst_manager.processes[original_pid] = moved

    # Retire the original silently; its predicates stay open, carried by
    # the moved copy.
    src_manager.exit(process, notify=False)

    return MigrationResult(
        process=moved,
        src=src,
        dst=dst,
        image_bytes=forked.image_bytes,
        downtime=forked.total_time,
    )
