"""``alt_spawn`` / ``alt_wait`` / ``alt_sync`` (paper section 3.2).

:class:`ProcessManager` is the kernel-side mechanism: it creates processes,
forks alternative groups with COW address spaces and sibling-rivalry
predicates, arbitrates the at-most-once rendezvous, performs the atomic
page-pointer swap into the parent, and eliminates losing siblings either
synchronously or asynchronously.

Timing is not modelled here -- callers (the concurrent executor, tests)
drive the mechanism in whatever order their schedule dictates, and the
manager guarantees the *semantics*: at most one child synchronizes, the
parent observes exactly one timeline, and everyone else's effects vanish.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import (
    AltBlockFailure,
    AltTimeout,
    ProcessStateError,
    TooLate,
)
from repro.pages.address_space import AddressSpace
from repro.pages.store import PageStore
from repro.process.process import ProcessState, SimProcess

StatusListener = Callable[[int, bool], None]
"""Called as ``listener(pid, completed)`` when a process reaches a final
status; this is the hook the predicate/IPC layers use for resolution."""


class EliminationMode(enum.Enum):
    """When losing siblings are terminated (section 3.2.1)."""

    SYNCHRONOUS = "synchronous"
    """Siblings are deleted before execution resumes in the parent."""

    ASYNCHRONOUS = "asynchronous"
    """Deletion happens at some time after ``alt_wait`` resumes; the paper
    suspects this 'will give better execution-time performance ... at the
    expense of resource utilization measures such as throughput'."""


@dataclass
class AltGroup:
    """Bookkeeping for one executed alternative block."""

    group_id: int
    parent_pid: int
    child_pids: List[int]
    winner_pid: Optional[int] = None
    failed_pids: List[int] = field(default_factory=list)
    pending_elimination: List[int] = field(default_factory=list)
    closed: bool = False
    """Set once the parent's ``alt_wait`` has concluded the block."""

    @property
    def all_failed(self) -> bool:
        """True when every alternative aborted without synchronizing."""
        return (
            self.winner_pid is None
            and len(self.failed_pids) == len(self.child_pids)
        )

    @property
    def decided(self) -> bool:
        """True once a winner exists or all alternatives failed."""
        return self.winner_pid is not None or self.all_failed


class ProcessManager:
    """The process-management component of the simulated kernel."""

    def __init__(self, store: Optional[PageStore] = None) -> None:
        self.store = store if store is not None else PageStore()
        self._pids = itertools.count(1)
        self._group_ids = itertools.count(1)
        self.processes: Dict[int, SimProcess] = {}
        """Live processes by pid.  A terminated process is dropped: an
        alternative when its group is reaped, anything else in
        :meth:`exit` -- a long-lived manager holds what is running, not
        everything that ever ran."""

        self.groups: Dict[int, AltGroup] = {}
        """Groups not yet reaped: open ones, and closed ones whose
        losers still await (asynchronous) elimination."""

        self._open_groups: Dict[int, AltGroup] = {}
        """The open group of each ``WAITING`` parent, by parent pid (a
        parent blocks in ``alt_spawn``, so it has at most one)."""

        self._listeners: List[StatusListener] = []
        self._elimination_hooks: Dict[int, Callable[[], None]] = {}
        # Overhead counters (inputs to the cost model).
        self.forks_performed = 0
        self.kills_issued = 0
        self.syncs_performed = 0

    # ------------------------------------------------------------------
    # process creation

    def create_initial(self, space_size: int = 64 * 1024) -> SimProcess:
        """Create a root process with a fresh address space."""
        space = AddressSpace(self.store, space_size)
        space.table.clear_dirty()
        process = SimProcess(pid=self.allocate_pid(), space=space)
        self.processes[process.pid] = process
        return process

    def allocate_pid(self) -> int:
        """Hand out a fresh, never-used pid."""
        return next(self._pids)

    def register(self, process: SimProcess) -> SimProcess:
        """Adopt an externally built process (e.g. a restored checkpoint).

        The process's address space must live in this manager's store.
        """
        if process.space.store is not self.store:
            raise ProcessStateError(
                f"process {process.pid} was built on a different store"
            )
        if process.pid in self.processes:
            raise ProcessStateError(f"pid {process.pid} already registered")
        self.processes[process.pid] = process
        return process

    def on_status_change(self, listener: StatusListener) -> None:
        """Register for final-status notifications (predicate resolution)."""
        self._listeners.append(listener)

    def attach_elimination_hook(self, pid: int, hook: Callable[[], None]) -> None:
        """Deliver the termination instruction for ``pid`` through ``hook``.

        The concurrent executor registers each racing child's cancellation
        token here; when the kernel actually eliminates the child (the
        section 3.2.1 kill, synchronous or asynchronous), the hook fires
        so a body still running under a real parallel backend stops at its
        next cooperative checkpoint instead of burning CPU to completion.
        """
        self._elimination_hooks[pid] = hook

    def detach_elimination_hook(self, pid: int) -> None:
        """Drop a hook that will never fire (e.g. the winner's)."""
        self._elimination_hooks.pop(pid, None)

    def _deliver_elimination(self, pid: int) -> None:
        hook = self._elimination_hooks.pop(pid, None)
        if hook is not None:
            hook()

    def _notify(self, pid: int, completed: bool) -> None:
        for listener in self._listeners:
            listener(pid, completed)

    # ------------------------------------------------------------------
    # alt_spawn

    def alt_spawn(self, parent: SimProcess, n: int) -> List[SimProcess]:
        """Spawn ``n`` mutually oblivious alternatives of ``parent``.

        Each child COW-inherits the parent's page map and receives the
        sibling-rivalry predicate of section 3.3: it assumes its own
        success and each sibling's failure, on top of the parent's own
        predicates.  The parent blocks (``WAITING``) until ``alt_wait``.
        """
        if n < 1:
            raise ValueError("alt_spawn needs at least one alternative")
        if parent.state != ProcessState.RUNNABLE:
            raise ProcessStateError(
                f"parent {parent.pid} is {parent.state.value}; cannot spawn"
            )
        group = AltGroup(
            group_id=next(self._group_ids),
            parent_pid=parent.pid,
            child_pids=[],
        )
        children: List[SimProcess] = []
        child_pids = [next(self._pids) for _ in range(n)]
        for index, pid in enumerate(child_pids, start=1):
            child_space = parent.space.fork()
            self.forks_performed += 1
            child = SimProcess(
                pid=pid,
                space=child_space,
                predicate=parent.predicate.child_predicate(pid, child_pids),
                parent_pid=parent.pid,
                alt_index=index,
                group_id=group.group_id,
                registers=dict(parent.registers),
            )
            self.processes[pid] = child
            group.child_pids.append(pid)
            children.append(child)
        self.groups[group.group_id] = group
        self._open_groups[parent.pid] = group
        parent.transition(ProcessState.WAITING)
        return children

    # ------------------------------------------------------------------
    # child-side synchronization

    def alt_sync(self, child: SimProcess, guard_ok: bool = True) -> bool:
        """A child attempts the rendezvous at the end of its computation.

        Returns True when this child won.  A child arriving after a
        sibling already synchronized is told it is 'too late' and raises
        :class:`TooLate`; the caller should terminate it.  A child whose
        guard failed aborts without synchronizing and returns False.
        """
        if child.group_id is None:
            raise ProcessStateError(f"process {child.pid} is not an alternative")
        # State before group: a terminal child's group may be reaped.
        if child.state != ProcessState.RUNNABLE:
            raise ProcessStateError(
                f"process {child.pid} is {child.state.value}; cannot sync"
            )
        group = self.groups[child.group_id]
        if not guard_ok:
            self._abort_child(group, child)
            return False
        if group.winner_pid is not None:
            child.transition(ProcessState.ELIMINATED)
            child.space.release()
            self._notify(child.pid, False)
            raise TooLate(
                f"process {child.pid}: sibling {group.winner_pid} already "
                f"synchronized"
            )
        group.winner_pid = child.pid
        self.syncs_performed += 1
        return True

    def _abort_child(self, group: AltGroup, child: SimProcess) -> None:
        child.transition(ProcessState.FAILED)
        child.space.release()
        group.failed_pids.append(child.pid)
        self._notify(child.pid, False)

    def fail(self, child: SimProcess) -> None:
        """Explicitly abort a child (its guard or body failed)."""
        if child.group_id is None:
            raise ProcessStateError(f"process {child.pid} is not an alternative")
        if child.state != ProcessState.RUNNABLE:
            raise ProcessStateError(
                f"process {child.pid} is {child.state.value}; cannot fail"
            )
        self._abort_child(self.groups[child.group_id], child)

    # ------------------------------------------------------------------
    # parent-side wait

    def alt_wait(
        self,
        parent: SimProcess,
        timed_out: bool = False,
        elimination: EliminationMode = EliminationMode.SYNCHRONOUS,
    ) -> SimProcess:
        """Complete the rendezvous in the parent.

        Absorbs the winning child's state by atomically replacing the
        parent's page pointer with the child's, maintains the process id
        ('the flow of control through the child appears to have been
        seamless'), and eliminates the losing siblings.

        Raises :class:`AltBlockFailure` when every child aborted and
        :class:`AltTimeout` when the caller reports the timeout expired
        with no winner.
        """
        if parent.state != ProcessState.WAITING:
            raise ProcessStateError(
                f"process {parent.pid} is {parent.state.value}; not waiting"
            )
        group = self._group_of_parent(parent)
        if group.winner_pid is None:
            if group.all_failed:
                self._close(group)
                parent.transition(ProcessState.RUNNABLE)
                raise AltBlockFailure(
                    f"all {len(group.child_pids)} alternatives failed"
                )
            if timed_out:
                self._eliminate_losers(group, winner_pid=None)
                self._drain_pending(group)
                self._close(group)
                parent.transition(ProcessState.RUNNABLE)
                raise AltTimeout(
                    "alt_wait timed out with no successful alternative"
                )
            raise ProcessStateError(
                "alt_wait called before any child synchronized or failed; "
                "drive the children first"
            )
        winner = self.processes[group.winner_pid]
        parent.space.adopt(winner.space)
        parent.predicate = parent.predicate.resolve(winner.pid, True) \
            if parent.predicate.mentions(winner.pid) else parent.predicate
        winner.transition(ProcessState.SYNCED)
        self._notify(winner.pid, True)
        self._eliminate_losers(group, winner_pid=winner.pid)
        if elimination is EliminationMode.SYNCHRONOUS:
            self._drain_pending(group)
        self._close(group)
        parent.transition(ProcessState.RUNNABLE)
        return winner

    # ------------------------------------------------------------------
    # maximal-step commit (independence-engine fast path)

    def alt_step_commit(
        self,
        parent: SimProcess,
        committers: List[SimProcess],
        pages: Dict[int, List[int]],
    ) -> SimProcess:
        """Commit several provably page-disjoint alternatives as one step.

        ``committers`` lists the successful children in commit order: the
        first is the step's *primary* (the flow of control the parent
        appears to continue), and ``pages`` maps every other committer's
        pid to the virtual pages grafted from its space into the
        primary's.  The graft is the three-phase validate / snapshot /
        commit of :func:`repro.independence.commit.graft_step`: a
        :class:`~repro.errors.PageApplyError` leaves the kernel state
        completely untouched (parent still ``WAITING``, every child still
        ``RUNNABLE``), so the caller can fall back to the classic
        first-success rendezvous.

        After a successful graft every committer synchronizes (there is
        no loser among them -- the step is order-free), the parent adopts
        the primary's space, and any child that neither committed nor
        already reached a terminal state is eliminated.
        """
        from repro.independence.commit import graft_step

        if parent.state != ProcessState.WAITING:
            raise ProcessStateError(
                f"process {parent.pid} is {parent.state.value}; not waiting"
            )
        if len(committers) < 2:
            raise ValueError("a maximal step needs at least two committers")
        group = self._group_of_parent(parent)
        if group.winner_pid is not None:
            raise ProcessStateError(
                f"group {group.group_id} already synchronized "
                f"(winner {group.winner_pid})"
            )
        for child in committers:
            if child.group_id != group.group_id:
                raise ProcessStateError(
                    f"process {child.pid} is not an alternative of "
                    f"group {group.group_id}"
                )
            if child.state != ProcessState.RUNNABLE:
                raise ProcessStateError(
                    f"process {child.pid} is {child.state.value}; "
                    "cannot commit"
                )
        primary, secondaries = committers[0], committers[1:]
        # May raise PageApplyError with every space intact (validation)
        # or the primary rolled back (commit failure) -- either way no
        # kernel state has changed yet and the classic path still works.
        graft_step(
            primary.space,
            [(child.space, pages.get(child.pid, ())) for child in secondaries],
        )
        group.winner_pid = primary.pid
        self.syncs_performed += len(committers)
        parent.space.adopt(primary.space)
        for child in committers:
            if parent.predicate.mentions(child.pid):
                parent.predicate = parent.predicate.resolve(child.pid, True)
            child.transition(ProcessState.SYNCED)
            self._notify(child.pid, True)
        for child in secondaries:
            child.space.release()
        self._eliminate_losers(group, winner_pid=primary.pid)
        self._drain_pending(group)
        self._close(group)
        parent.transition(ProcessState.RUNNABLE)
        return primary

    def _group_of_parent(self, parent: SimProcess) -> AltGroup:
        group = self._open_groups.get(parent.pid)
        if group is None:
            raise ProcessStateError(
                f"process {parent.pid} has no open alternative group"
            )
        return group

    def _close(self, group: AltGroup) -> None:
        """The parent's wait has concluded the block."""
        group.closed = True
        del self._open_groups[group.parent_pid]
        self._reap(group)

    def _reap(self, group: AltGroup) -> None:
        """Forget a concluded group and its terminated children.

        Nothing can reach them again: the parent has resumed, and a late
        ``alt_sync`` / ``fail`` on a terminal child is refused on its
        state alone.  A group with losers still queued for elimination
        stays until :meth:`drain_eliminations` has dealt with them.
        """
        if not group.closed or group.pending_elimination:
            return
        for pid in group.child_pids:
            process = self.processes.get(pid)
            if process is not None and process.is_terminal:
                del self.processes[pid]
        del self.groups[group.group_id]

    def _eliminate_losers(self, group: AltGroup, winner_pid: Optional[int]) -> None:
        for pid in group.child_pids:
            process = self.processes.get(pid)  # None: exited or migrated
            if process is None or pid == winner_pid or process.is_terminal:
                continue
            group.pending_elimination.append(pid)

    def _drain_pending(self, group: AltGroup) -> int:
        """Actually terminate siblings queued for elimination."""
        drained = 0
        for pid in group.pending_elimination:
            process = self.processes.get(pid)
            self._deliver_elimination(pid)
            if process is None or process.is_terminal:
                continue
            process.transition(ProcessState.ELIMINATED)
            process.space.release()
            self.kills_issued += 1
            self._notify(pid, False)
            drained += 1
        group.pending_elimination = []
        return drained

    def drain_eliminations(self, group_id: int) -> int:
        """Perform deferred (asynchronous) sibling elimination.

        Returns the number of siblings terminated: 0 for a group with
        nothing left to eliminate, which includes one already reaped.
        """
        group = self.groups.get(group_id)
        if group is None:
            return 0
        drained = self._drain_pending(group)
        self._reap(group)
        return drained

    # ------------------------------------------------------------------
    # normal exit

    def exit(self, process: SimProcess, notify: bool = True) -> None:
        """Terminate a non-alternative process normally.

        ``notify=False`` suppresses the status broadcast -- used by
        process migration, where the process has not *completed*, it has
        moved: its predicates must stay unresolved.
        """
        process.transition(ProcessState.EXITED)
        process.space.release()
        self.processes.pop(process.pid, None)
        if notify:
            self._notify(process.pid, True)
