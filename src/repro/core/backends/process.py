"""The process execution backend: real ``os.fork`` racing with COW.

One forked child per arm, one result pipe per child.  Each child runs its
body against its private simulated address space (the whole simulated
store is duplicated by the OS fork's own copy-on-write, so siblings are
isolated twice over) and ships its outcome back as a checksum-framed
pickle record.  The first arm whose *intact* success record arrives wins
the rendezvous -- fastest-first at the wall clock.

Dirty-state shipback has two transports:

- **shm** (default where POSIX shared memory works): the parent maps one
  :class:`~repro.pages.shm.ShmSlab` per forked arm before forking; the
  child writes its dirty page images straight into slab slots (the
  mapping is fork-inherited) and the pipe record carries only
  ``(page, slot)`` pairs.  Winner commit in the parent becomes a pointer
  swap (``AddressSpace.apply_shm_pages``): slots are adopted as external
  frames, no page image is ever pickled or copied.  A pooled arm ships
  the same way into a slab its lease lends it
  (:attr:`~repro.process.pool.Lease.slab`), which the pool made once and
  keeps.
- **pipe**: the historical path -- dirty page images ride inside the
  pickled record.  Used when shared memory is unavailable, when slab
  creation fails, when an arm ships nothing page-sized, or when the
  ``shm-attach-fail`` fault is injected; the fallback is per-arm and
  byte-equivalent.

A :class:`~repro.process.pool.WorldPool` may be attached (``pool=`` or
the ``REPRO_WORLD_POOL`` environment flag via ``get_backend``): arms
whose alternatives pickle are then *leased* to pre-warmed parked workers
over persistent pipes instead of being forked per race, amortizing the
paper's per-block setup cost.  Pooled workers speak the identical wire
format, honor the same cancel / SIGKILL escalation, and fall back to a
direct fork per arm whenever leasing is impossible.

Elimination is two-stage, matching the paper's cooperative-then-forcible
reality: losers first receive the termination instruction -- ``SIGTERM``
for a forked child, :meth:`WorldPool.cancel
<repro.process.pool.WorldPool.cancel>` (the epoch on the pool's board,
then ``SIGTERM`` as the bell) for a leased worker -- whose handler
cancels the arm's token (the signal-safe :class:`_BellToken`, in either
kind of child, which runs the arm through the one :func:`run_arm`) so
the body stops at its next cooperative checkpoint and reports how
much work it actually did; any child still alive after ``kill_grace``
seconds is ``SIGKILL``-ed (the asynchronous hard kill of section 3.2.1)
and its report is synthesized.

Every arm process runs below its coordinator: a forked child (and a
pooled worker, once when it starts) adds :data:`ARM_NICE_STEP` to its
niceness before anything else (:func:`lower_arm_priority`), so spawning
arms, noticing the winner and committing never wait behind a loser.

Selection ends at the commit.  Once a winner is chosen and every sibling
still racing has been told, ``run_arms`` returns: a forked child is
waited for and reaped here (it is this race's child), but a leased
worker this race has not read a byte from is *detached* -- reported
``cancelled`` with the work it burned until told, and handed to the pool
with :meth:`WorldPool.finish <repro.process.pool.WorldPool.finish>`,
which hears it out later and enforces the same ``kill_grace`` deadline.
``collect_all``, timeout and no-winner races wait for everyone, as
before.

Hardening beyond the paper's happy path:

- every record is framed ``magic | length | crc32``; a corrupt record is
  detected and demotes its arm to an abnormal failure instead of
  poisoning the race;
- a child that dies mid-shipback leaves a truncated frame on its private
  pipe; the parent detects the dangling bytes at EOF, marks the arm dead,
  and the next intact finisher is promoted -- a winner's death during
  shipback never fails the block while a sibling can still win;
- reaping is EINTR-safe, force-kills wedged children as a last resort,
  records each child's wait status on its report (``exit_signal``), and a
  module-level orphan sweep reclaims children leaked by a race that died
  before its own reap;
- slabs are refcounted with ``atexit`` unlinking, so even a parent crash
  mid-race leaks no ``/dev/shm`` segment;
- the :mod:`repro.resilience` fault injector is consulted at the
  ``arm-raise`` / ``arm-hang`` / ``arm-sigkill`` / ``pipe-truncate`` /
  ``record-corrupt`` / ``shm-attach-fail`` points, so every one of these
  failure modes is reproducible in tests.
"""

from __future__ import annotations

import errno
import os
import select
import signal
import threading
import time
from types import SimpleNamespace
from typing import Dict, List, Optional, Set, Tuple

from repro.core.backends import wire
from repro.core.backends.base import (
    ArmReport,
    ArmTask,
    BackendRace,
    CancellationToken,
    ExecutionBackend,
)
from repro.core.backends.wire import (
    EXIT_HANG as _EXIT_HANG,
    EXIT_OK as _EXIT_OK,
    EXIT_SHIP_FAILED as _EXIT_SHIP_FAILED,
    RecordReader as _RecordReader,
    write_record as _write_record,
)
from repro.errors import Eliminated, FaultInjected
from repro.obs import events as _ev
from repro.obs.tracer import active as _active_tracer
from repro.pages.shm import ShmShipment, ShmSlab, shm_available
from repro.resilience.injector import active as _active_injector

__all__ = ["ProcessBackend", "sweep_orphans"]

# ----------------------------------------------------------------------
# orphan registry: pids forked by any ProcessBackend in this process that
# have not been reaped yet.  A race that dies before its own reap leaves
# its children here; the next race (or an explicit sweep) reclaims them.
# Pool workers are deliberately *not* registered: their lifetime belongs
# to the WorldPool, which has its own shutdown and atexit discipline.
#
# Each pid is tagged with the *race scope* that forked it.  Races may run
# concurrently (a multi-tenant server races many blocks over one shared
# pool, with the fork fallback live on all of them), so the sweep must
# only reclaim children whose owning race has already exited -- killing
# any registered pid would assassinate a sibling race's healthy arms.


class _RaceScope:
    """Liveness tag for one ``run_arms`` invocation's forked children."""

    __slots__ = ("live",)

    def __init__(self) -> None:
        self.live = True


_orphan_lock = threading.Lock()
_orphan_pids: Dict[int, Optional[_RaceScope]] = {}


def _register_orphan(pid: int, scope: Optional[_RaceScope] = None) -> None:
    """Track a forked child; ``scope=None`` means immediately sweepable."""
    with _orphan_lock:
        _orphan_pids[pid] = scope


def _forget_orphan(pid: int) -> None:
    with _orphan_lock:
        _orphan_pids.pop(pid, None)


def sweep_orphans() -> int:
    """Force-kill and reap children leaked by a *finished* race.

    Returns the number of processes reclaimed.  Safe to call any time;
    every ``run_arms`` calls it on entry so no child is ever left
    unreaped across races, even after a parent-side crash.  Children of
    races still in flight are left alone -- concurrent races sharing
    this process must not reap each other's live arms.
    """
    with _orphan_lock:
        leaked = [
            pid
            for pid, scope in _orphan_pids.items()
            if scope is None or not scope.live
        ]
    swept = 0
    for pid in leaked:
        try:
            os.kill(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        if _waitpid_blocking(pid) is not None:
            swept += 1
        _forget_orphan(pid)
    return swept


def _waitpid_nohang(pid: int) -> Tuple[bool, Optional[int]]:
    """Non-blocking reap: ``(reaped, status)``.  EINTR is retried by
    ``os.waitpid`` itself (PEP 475), here and below."""
    try:
        done, status = os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True, None  # already reaped elsewhere
    if done == 0:
        return False, None
    return True, status


def _waitpid_blocking(pid: int) -> Optional[int]:
    """Blocking reap; ``None`` when already reaped."""
    try:
        return os.waitpid(pid, 0)[1]
    except ChildProcessError:
        return None


# ----------------------------------------------------------------------
# the child side of an arm, shared by fork children and pool workers


def build_result_record(
    task_index: int,
    space,
    succeeded: bool,
    value,
    detail: str,
    cancelled: bool,
    abnormal: bool,
    began: float,
    finished: float,
    slab: Optional[ShmSlab] = None,
) -> dict:
    """Assemble one result record, shipping dirty pages the cheap way.

    With a writable ``slab``, dirty page images are written in place into
    slab slots and the record carries ``(page, slot)`` pairs -- the
    zero-copy transport.  Otherwise (no slab, slab too small, or a write
    failure) the images are inlined under ``dirty_pages``, which is the
    byte-equivalent pipe fallback.
    """
    record = {
        "index": task_index,
        "ok": succeeded,
        "cancelled": cancelled,
        "abnormal": abnormal,
        "detail": detail,
        "started": began,
        "finished": finished,
    }
    if not succeeded:
        return record
    record["value"] = value
    if space is None:
        return record
    dirty = sorted(space.table.dirty_pages)
    record["cow_faults"] = space.cow_faults
    record["pages_written"] = space.pages_written
    if slab is not None and 0 < len(dirty) <= slab.slots:
        read_page_view = space.table.read_page_view
        try:
            slab.write_slots(0, [read_page_view(vpn) for vpn in dirty])
        except Exception:  # pragma: no cover - slab write failure
            pass
        else:
            record["shm_pages"] = list(zip(dirty, range(len(dirty))))
            record["shm_slab"] = slab.name
            record["page_transport"] = "shm"
            return record
    record["dirty_pages"] = {vpn: space.table.read_page(vpn) for vpn in dirty}
    record["page_transport"] = "pipe"
    return record


class _BellToken(CancellationToken):
    """The token of an arm a signal cancels (a forked child's, a pooled
    worker's), from the handler of the very thread that waits on it.

    Not a :class:`threading.Event`, whose lock a handler can find held by
    the ``wait`` it interrupted (about one told sleeper in 1 500 wedged).
    A flag and a self-pipe have no lock.  The pipe is also the process's
    signal wakeup fd (:func:`bell_pipe`), written by the C-level handler
    the instant the bell rings -- the Python one runs only at the next
    bytecode boundary, maybe already inside ``select``; ``wait`` wakes,
    lets it run (``cancelled`` is a Python call) and sleeps on if the bell
    was for nobody.
    """

    __slots__ = ("_cancelled", "_wake_r", "_wake_w")

    def __init__(self, wake_r: int, wake_w: int) -> None:
        self._cancelled = False
        self._wake_r = wake_r
        self._wake_w = wake_w

    def cancel(self) -> None:
        self._cancelled = True
        try:
            os.write(self._wake_w, b"!")
        except OSError:  # full of bells nobody waited for: as good
            pass

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def wait(self, timeout: Optional[float] = None) -> bool:
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self.cancelled:
            left = None if deadline is None else deadline - time.monotonic()
            if left is not None and left <= 0:
                break
            ready = select.select([self._wake_r], [], [], left)[0]
            if ready and not self.cancelled:
                os.read(self._wake_r, 4096)  # a bell for nobody: drain it
        return self._cancelled


def bell_pipe() -> Tuple[int, int]:
    """A non-blocking self-pipe for :class:`_BellToken`, made this
    process's signal wakeup fd (once per forked arm or pooled worker)."""
    wake = os.pipe()
    for fd in wake:
        os.set_blocking(fd, False)
    signal.set_wakeup_fd(wake[1], warn_on_full_buffer=False)
    return wake


ARM_NICE_STEP = 5
"""How far below its coordinator an arm process runs: the niceness a
forked arm or pooled worker adds to its own once, at birth (the kernel
caps the result at 19).  Arms share what the coordinator leaves exactly
as before, so the race alone still decides the winner.  Five steps
measured as fast as ten on an idle host, and they leave an arm about a
third of the weight of any other nice-0 process on a shared one (Linux
CFS: 335 against 1024); at ten (weight 110) a closed loop of small
races beside two busy nice-0 processes on two cores ran more than
twice as slow."""


def fork_child(body) -> int:
    """Fork a child that runs ``body()`` and never returns; its pid.

    SIGTERM stays blocked across the fork until the child has its
    handler (``body`` unblocks it), so a child told before it got that
    far hears the bell instead of dying of the default disposition.  The
    calling thread's mask comes back even when the fork raises.
    """
    old_mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
    try:
        pid = os.fork()
        if pid == 0:
            try:
                body()
            finally:  # pragma: no cover - body never returns
                os._exit(_EXIT_SHIP_FAILED)
        return pid
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, old_mask)


def lower_arm_priority() -> None:
    """Drop the calling arm process :data:`ARM_NICE_STEP` below where it
    was born (once per forked arm or pooled worker, never per lease, so
    it never compounds).  A refusal is ignored: priority is an
    optimization, like pooling and forking themselves."""
    try:
        os.nice(ARM_NICE_STEP)
    except OSError:
        pass


def run_arm(
    index: int, arm, result_fd: int, start: float,
    pre_fault: Optional[Tuple] = None, ship_fault: Optional[Tuple] = None,
    epoch: Optional[int] = None, told_before_start: bool = False,
) -> int:
    """The child side of arm ``index``, forked or pooled: pre-body fault,
    body (``arm.run()`` returns ``(succeeded, value, detail)``), the
    verdict (``Eliminated`` is cancelled, anything else abnormal), the
    record -- dirty pages of ``arm.space`` through ``arm.slab``, both read
    after the body -- with this process's trace events, and the write.
    An arm ``told_before_start`` runs neither fault nor body; a pooled
    record echoes its lease's ``epoch``.  Returns the wire exit code; a
    write that raises exits with ``EXIT_SHIP_FAILED``.
    """
    tracer = _active_tracer()
    trace_mark = tracer.mark()
    began = time.perf_counter() - start
    value = None
    cancelled = abnormal = False
    try:
        if told_before_start:
            raise Eliminated(
                f"alternative {index + 1} eliminated before it started: "
                "a sibling already synchronized"
            )
        if pre_fault is not None:
            kind, duration, fault_detail = pre_fault
            if kind == "sigkill":  # die abruptly, as a crashed arm would
                os.kill(os.getpid(), signal.SIGKILL)
            elif kind == "hang":
                # Wedged: deaf to the instruction, ended only by the
                # SIGKILL backstop or by this exit.
                signal.signal(signal.SIGTERM, signal.SIG_IGN)
                time.sleep(duration)
                os._exit(_EXIT_HANG)
            elif kind == "raise":
                raise FaultInjected(fault_detail)
        succeeded, value, detail = arm.run()
    except Eliminated as exc:
        succeeded, detail, cancelled = False, str(exc), True
    except BaseException as exc:
        succeeded, detail, abnormal = False, repr(exc), True
    record = build_result_record(
        index, arm.space, succeeded, value, detail, cancelled, abnormal,
        began, time.perf_counter() - start, slab=arm.slab,
    )
    if epoch is not None:
        record["pool_epoch"] = epoch
    if told_before_start:
        record["told_before_start"] = True
    if tracer.enabled:
        # Same tracer, epoch and clock as the parent: ship only the
        # events traced since the arm began.
        record["trace"] = tracer.events_since(trace_mark)
    try:
        return _write_record(result_fd, record, ship_fault)
    except BaseException:  # a real shipback failure, not EPIPE
        os._exit(_EXIT_SHIP_FAILED)


class ProcessBackend(ExecutionBackend):
    """Race arms in forked OS processes; first intact success wins."""

    name = "process"
    is_parallel = True

    def __init__(
        self,
        kill_grace: float = 2.0,
        pool=None,
    ) -> None:
        if not hasattr(os, "fork"):
            raise RuntimeError(
                "ProcessBackend requires os.fork; use ThreadBackend instead"
            )
        if kill_grace < 0:
            raise ValueError("kill_grace cannot be negative")
        self.kill_grace = kill_grace
        self.pool = pool
        """An attached :class:`~repro.process.pool.WorldPool` (or ``None``
        to fork every arm fresh)."""

        self._race_pids: Dict[int, int] = {}
        self._race_seen: Set[int] = set()
        self._race_leases: Dict[int, object] = {}

    # ------------------------------------------------------------------

    def run_arms(
        self,
        tasks: List[ArmTask],
        timeout: Optional[float] = None,
        collect_all: bool = False,
    ) -> BackendRace:
        sweep_orphans()
        scope = _RaceScope()
        start = time.perf_counter()
        pids: Dict[int, int] = {}
        pipes: Dict[int, int] = {}
        persistent: Set[int] = set()  # pool-owned fds: watched, never closed
        leases: Dict[int, object] = {}
        slabs: Dict[int, ShmSlab] = {}
        seen: Set[int] = set()
        clean_leases: Set[int] = set()
        detached: Set[int] = set()  # leased, told, left to the pool
        self._race_pids = pids
        self._race_seen = seen
        self._race_leases = leases
        use_shm = shm_available()
        tracer = _active_tracer()
        race: Optional[BackendRace] = None
        try:
            for task in tasks:
                pre_fault, ship_fault, shm_fault = self._draw_faults(task.index)
                arm_shm = use_shm and not shm_fault
                lease = None
                if self.pool is not None:
                    lease = self.pool.lease(
                        task,
                        start,
                        pre_fault=pre_fault,
                        ship_fault=ship_fault,
                        shm=arm_shm,
                    )
                # A pooled arm ships into the slab its lease lends it; only
                # an arm that forks gets a slab of its own.
                slab: Optional[ShmSlab] = None
                if lease is not None:
                    leases[task.index] = lease
                    pids[task.index] = lease.pid
                    pipes[task.index] = lease.result_fd
                    persistent.add(lease.result_fd)
                    slab = lease.slab
                elif arm_shm:
                    slab = self._create_slab(task)
                if slab is not None:
                    slabs[task.index] = slab
                    if tracer.enabled:
                        tracer.emit(
                            _ev.SHM_MAP,
                            block=getattr(task.context, "trace_block", None),
                            arm=task.index,
                            name=task.name,
                            slab=slab.name,
                            slots=slab.slots,
                            bytes=slab.size,
                        )
                if lease is not None:
                    continue
                read_fd, write_fd = os.pipe()

                def child() -> None:
                    # Drop every parent-side read end inherited.
                    os.close(read_fd)
                    for sibling_fd in pipes.values():
                        os.close(sibling_fd)
                    self._child_main(
                        task, write_fd, start, pre_fault, ship_fault, slab,
                    )

                pid = fork_child(child)
                os.close(write_fd)
                pids[task.index] = pid
                pipes[task.index] = read_fd
                _register_orphan(pid, scope)
            launched = time.perf_counter() - start
            race = self._collect(
                tasks, pids, pipes, start, timeout, seen, slabs,
                persistent, leases, clean_leases, detached, collect_all,
            )
        finally:
            for fd in pipes.values():
                if fd in persistent:
                    continue  # the pool owns its result pipes
                try:
                    os.close(fd)
                except OSError:  # pragma: no cover - defensive
                    pass
            forked = {
                index: pid for index, pid in pids.items() if index not in leases
            }
            statuses = self._reap(forked)
            # Anything _reap could not collect stays registered; marking
            # the scope dead hands those pids to the next sweep without
            # exposing live siblings of concurrent races to it.
            scope.live = False
            if self.pool is not None and leases:
                statuses.update(
                    self.pool.finish(leases, clean_leases, detached)
                )
            # Only now, with every child reaped and every worker parked
            # or replaced: a pooled slab let go of here may be lent again.
            # A detached arm's is the pool's to let go of, once it has
            # heard the worker out.
            for index, slab in slabs.items():
                if index in detached:
                    continue
                if race is not None:
                    try:
                        report = race.report(index)
                    except KeyError:  # pragma: no cover - defensive
                        report = None
                    if report is not None and report.shm_shipment is not None:
                        # Ownership moved to the shipment: whoever commits
                        # (or abandons) the race disposes it.  In collect
                        # mode every successful arm keeps its shipment,
                        # not just the winner.
                        continue
                slab.dispose()
            self._race_pids = {}
            self._race_seen = set()
            self._race_leases = {}
        race.page_transport = "shm" if use_shm else "pipe"
        race.setup_seconds = launched
        self._annotate_exit_statuses(race, seen, statuses)
        return race

    def terminate_arm(self, index: int, hard: bool = False) -> bool:
        """Signal one still-racing child (the watchdog's entry point).

        A leased arm is told through the pool: a bare ``SIGTERM`` is only
        a bell to a pooled worker, the instruction is on the board.
        """
        pid = self._race_pids.get(index)
        if pid is None or index in self._race_seen:
            return False
        lease = self._race_leases.get(index)
        if lease is not None and not hard:
            return self.pool.cancel(lease, self.kill_grace)
        try:
            os.kill(pid, signal.SIGKILL if hard else signal.SIGTERM)
        except (ProcessLookupError, PermissionError):
            return False
        return True

    # ------------------------------------------------------------------
    # child side

    @staticmethod
    def _create_slab(task: ArmTask) -> Optional[ShmSlab]:
        """One page-aligned slab sized to a forked arm's space (or
        ``None``), unlinked when the race and any commit are over.

        Any failure -- no space on the context, ``/dev/shm`` full,
        platform refusal -- degrades silently to the pipe transport.
        """
        space = getattr(task.context, "space", None)
        if space is None or space.num_pages < 1:
            return None
        try:
            return ShmSlab.create(
                slots=space.num_pages, slot_size=space.page_size
            )
        except Exception:
            return None

    @staticmethod
    def _draw_faults(
        index: int,
    ) -> Tuple[Optional[Tuple], Optional[Tuple], bool]:
        """Consult the injector for one arm, in the parent, pre-fork.

        Drawing here (instead of in the child) keeps fault counters and
        the firing log in the parent process: ``times=`` budgets span
        supervised retries correctly, and the autopsy can report what
        fired.  Returns ``(pre_fault, ship_fault, shm_fault)``:
        ``pre_fault`` is ``('sigkill'|'hang'|'raise', duration, detail)``
        or ``None``; ``ship_fault`` is ``('truncate', offset)``,
        ``('corrupt', None)``, or ``None``; ``shm_fault`` is True when
        the arm's slab mapping is injected to fail (the arm then ships
        over the pipe, exactly like a host without shared memory).
        """
        injector = _active_injector()
        if injector is None:
            return None, None, False
        pre_fault: Optional[Tuple] = None
        if injector.draw("arm-sigkill", index) is not None:
            pre_fault = ("sigkill", 0.0, "")
        else:
            hang = injector.draw("arm-hang", index)
            if hang is not None:
                pre_fault = ("hang", hang.duration, "")
            else:
                raised = injector.draw("arm-raise", index)
                if raised is not None:
                    pre_fault = (
                        "raise",
                        0.0,
                        raised.detail
                        or f"injected fault at arm-raise (arm {index})",
                    )
        ship_fault: Optional[Tuple] = None
        if pre_fault is None or pre_fault[0] == "raise":
            # Only arms that will actually ship a record draw ship faults.
            truncated = injector.draw("pipe-truncate", index)
            if truncated is not None:
                ship_fault = (
                    "truncate", wire.truncate_offset(truncated.detail)
                )
            elif injector.draw("record-corrupt", index) is not None:
                ship_fault = ("corrupt", None)
        shm_fault = injector.draw("shm-attach-fail", index) is not None
        return pre_fault, ship_fault, shm_fault

    @staticmethod
    def _child_main(
        task: ArmTask, write_fd: int, start: float,
        pre_fault: Optional[Tuple] = None, ship_fault: Optional[Tuple] = None,
        slab: Optional[ShmSlab] = None,
    ) -> None:
        """A forked arm: below its coordinator, a bell token of its own,
        then :func:`run_arm`."""
        lower_arm_priority()
        context = task.context
        if getattr(context, "token", None) is not None:
            # The child's copy of the context; the handler cancels only it.
            token = context.token = _BellToken(*bell_pipe())
            signal.signal(signal.SIGTERM, lambda signum, frame: token.cancel())
        # SIGTERM was blocked across the fork: one that raced this
        # child's start is delivered now, to the bell.
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
        arm = SimpleNamespace(
            run=task.run, space=getattr(context, "space", None), slab=slab
        )
        os._exit(
            run_arm(task.index, arm, write_fd, start, pre_fault, ship_fault)
        )

    # ------------------------------------------------------------------
    # parent side

    def _collect(
        self, tasks, pids, pipes, start, timeout, seen, slabs,
        persistent, leases, clean_leases, detached, collect_all=False,
    ) -> BackendRace:
        readers = {index: _RecordReader() for index in pipes}
        fd_to_index = {fd: index for index, fd in pipes.items()}
        open_fds = set(pipes.values())
        reports = {
            task.index: ArmReport(index=task.index, name=task.name)
            for task in tasks
        }
        blocks = {
            task.index: getattr(task.context, "trace_block", None)
            for task in tasks
        }

        def trace_finish(report: ArmReport) -> None:
            tracer = _active_tracer()
            if tracer.enabled:
                tracer.emit(
                    _ev.ARM_FINISH,
                    block=blocks.get(report.index),
                    arm=report.index,
                    name=report.name,
                    backend=self.name,
                    succeeded=report.succeeded,
                    cancelled=report.cancelled,
                    abnormal=report.abnormal,
                    work_seconds=report.work_seconds,
                    detail=report.detail,
                )

        events: List[tuple] = []
        winner_index: Optional[int] = None
        timed_out = False
        deadline = None if timeout is None else start + timeout
        grace_deadline: Optional[float] = None
        bail_deadline: Optional[float] = None
        issued_at = 0.0

        def signal_racing(sig: int) -> None:
            nonlocal issued_at
            for index, pid in pids.items():
                if index == winner_index or index in seen:
                    continue
                if sig == signal.SIGTERM and index in leases:
                    self.pool.cancel(leases[index], self.kill_grace)
                    continue
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
            if sig == signal.SIGTERM:
                issued_at = time.perf_counter() - start

        def only_detachable_left() -> bool:
            """Selection ends at the commit: a winner is chosen, every
            sibling still racing has been told, and what is left open is
            leased workers this race has not read one byte from.  Those
            are the pool's to hear out; a forked arm is this race's
            child and is waited for."""
            if winner_index is None or collect_all:
                return False
            for fd in open_fds:
                reader = readers[fd_to_index[fd]]
                if fd not in persistent or reader.pending or reader.corrupt:
                    return False
            return True

        def conclude_abnormal(index: int, detail: str) -> None:
            """An arm died without an intact record: demote it."""
            report = reports[index]
            now = time.perf_counter() - start
            report.cancelled = True
            report.abnormal = True
            report.detail = detail
            if not report.finished_at:
                report.finished_at = now
                report.work_seconds = now
            seen.add(index)
            events.append((now, f"{report.name} dies: {detail}"))
            trace_finish(report)

        while open_fds:
            now = time.perf_counter()
            waits = [
                candidate - now
                for candidate in (bail_deadline, grace_deadline, deadline)
                if candidate is not None
            ]
            wait = max(0.0, min(waits)) if waits else None
            try:
                ready, _, _ = select.select(list(open_fds), [], [], wait)
            except OSError as exc:  # pragma: no cover - platform dependent
                if exc.errno == errno.EINTR:
                    continue
                raise
            if not ready:
                now = time.perf_counter()
                if bail_deadline is not None and now >= bail_deadline:
                    # SIGKILLed stragglers still have not EOFed; the reap
                    # below will force the issue.  Do not spin forever.
                    break
                if grace_deadline is not None and now >= grace_deadline:
                    # Cooperative window over: hard-kill the stragglers.
                    signal_racing(signal.SIGKILL)
                    grace_deadline = None
                    bail_deadline = time.perf_counter() + 5.0
                    continue
                if deadline is not None and now >= deadline and not timed_out:
                    # The block deadline expired with no winner: deliver
                    # the termination instruction to everyone, then give
                    # the cooperative window before SIGKILL.
                    timed_out = True
                    signal_racing(signal.SIGTERM)
                    grace_deadline = time.perf_counter() + self.kill_grace
                    deadline = None
                continue
            for fd in ready:
                index = fd_to_index[fd]
                reader = readers[index]
                data = os.read(fd, 65536)
                if not data:
                    # EOF: a forked child exited -- or a pooled worker
                    # died mid-lease (its pipe outlives leases otherwise).
                    open_fds.discard(fd)
                    clean_leases.discard(index)
                    if index not in seen:
                        if reader.corrupt:
                            conclude_abnormal(index, reader.corrupt_detail)
                        elif reader.pending:
                            conclude_abnormal(
                                index,
                                "truncated result record "
                                "(child died mid-shipback)",
                            )
                        # else: no record at all -- synthesized after the
                        # loop, refined by the wait status.
                    continue
                for record in reader.feed(data):
                    if index in leases and not self.pool.accepts(
                        leases[index], record
                    ):
                        # Bytes of some earlier lease (a stale world):
                        # the record is discarded and the stream treated
                        # as poisoned, so the arm concludes abnormally
                        # and the pool respawns the worker.
                        reader._mark_corrupt(
                            "stale pooled record (epoch mismatch)"
                        )
                        break
                    winner_index, grace_deadline = self._absorb_record(
                        record, index, reports, seen, events,
                        winner_index, timed_out, grace_deadline,
                        signal_racing, trace_finish, slabs,
                        collect_all=collect_all,
                    )
                if reader.corrupt and index not in seen:
                    conclude_abnormal(index, reader.corrupt_detail)
                if fd in persistent and index in seen:
                    # The pooled arm is accounted for; its worker parks.
                    open_fds.discard(fd)
                    if not reader.corrupt and not reader.pending:
                        clean_leases.add(index)
            if only_detachable_left():
                detached.update(fd_to_index[fd] for fd in open_fds)
                break

        total = time.perf_counter() - start
        for task in tasks:
            if task.index in seen:
                continue
            report = reports[task.index]
            report.cancelled = True
            if task.index in detached:
                # The report the paper prescribes for an eliminated
                # sibling: told to stop, charged what it burned till then.
                report.detail = (
                    "termination instruction issued; "
                    "the pool collects its last words"
                )
                report.finished_at = issued_at
                report.work_seconds = issued_at
                events.append((issued_at, f"kill {report.name} (issued)"))
                trace_finish(report)
                continue
            # Exited (or was SIGKILLed) without any record: synthesize.
            report.abnormal = True
            report.detail = "exited without a result record"
            report.finished_at = total
            report.work_seconds = total
            events.append((total, f"kill {report.name} (forced)"))
            trace_finish(report)

        if winner_index is not None:
            elapsed = reports[winner_index].finished_at
        elif timed_out and timeout is not None:
            elapsed = timeout
        else:
            elapsed = total
        events.sort(key=lambda event: event[0])
        return BackendRace(
            backend=self.name,
            reports=[reports[task.index] for task in tasks],
            winner_index=winner_index,
            elapsed=elapsed,
            total_seconds=total,
            timed_out=timed_out,
            events=events,
        )

    def _absorb_record(
        self, record, index, reports, seen, events,
        winner_index, timed_out, grace_deadline, signal_racing,
        trace_finish, slabs=None, collect_all=False,
    ):
        """Fold one intact record into the race state."""
        seen.add(index)
        shipped_trace = record.get("trace")
        if shipped_trace:
            # Events the child emitted (guard evaluations, nested blocks)
            # ride home with the result; same clock, same timeline.
            _active_tracer().absorb(shipped_trace)
        report = reports[index]
        report.started_at = record["started"]
        report.finished_at = record["finished"]
        report.work_seconds = record["finished"] - record["started"]
        report.detail = record["detail"]
        report.cancelled = record["cancelled"]
        report.abnormal = record.get("abnormal", False)
        if record.get("told_before_start"):
            # Only a pooled arm says so: it found its instruction waiting.
            self.pool.count_told_before_start()
        if record["ok"]:
            shipment = None
            shm_pages = record.get("shm_pages")
            if shm_pages is not None:
                slab = (slabs or {}).get(index)
                if slab is None or record.get("shm_slab") != slab.name:
                    # The record points into a slab this race does not
                    # own: an unusable shipment.  Demote the arm so a
                    # sibling can still win.
                    report.abnormal = True
                    report.detail = (
                        "shm shipment names an unknown slab "
                        f"({record.get('shm_slab')!r})"
                    )
                    events.append(
                        (report.finished_at,
                         f"{report.name} aborts: {report.detail}")
                    )
                    trace_finish(report)
                    return winner_index, grace_deadline
                shipment = ShmShipment(
                    slab=slab,
                    pairs=[tuple(pair) for pair in shm_pages],
                )
            if (winner_index is None or collect_all) and not timed_out:
                if winner_index is None:
                    winner_index = index
                report.succeeded = True
                report.value = record["value"]
                report.dirty_pages = record.get("dirty_pages")
                report.shm_shipment = shipment
                report.page_transport = record.get("page_transport")
                report.cow_faults = record.get("cow_faults", 0)
                report.pages_written = record.get("pages_written", 0)
                events.append(
                    (report.finished_at, f"{report.name} synchronizes")
                )
                if not collect_all:
                    # Winner chosen: cooperative kill for the rest.
                    signal_racing(signal.SIGTERM)
                    grace_deadline = time.perf_counter() + self.kill_grace
            else:
                report.cancelled = True
                report.detail = "synchronized too late; sibling already won"
                events.append(
                    (report.finished_at, f"{report.name} too late")
                )
        elif record["cancelled"]:
            events.append((report.finished_at, f"kill {report.name}"))
        else:
            events.append(
                (
                    report.finished_at,
                    f"{report.name} aborts: {report.detail}",
                )
            )
        trace_finish(report)
        return winner_index, grace_deadline

    # ------------------------------------------------------------------
    # reaping

    def _reap(self, pids: Dict[int, int]) -> Dict[int, Optional[int]]:
        """Reap every forked child; force-kill anything still alive.

        Returns each arm's wait status (``None`` when the child was
        already reaped elsewhere).  Never blocks indefinitely: a child
        that has not exited gets SIGKILL before the blocking wait.
        Pooled workers are excluded -- the pool reaps (and respawns) its
        own dead.
        """
        statuses: Dict[int, Optional[int]] = {}
        for index, pid in pids.items():
            reaped, status = _waitpid_nohang(pid)
            if not reaped:
                try:
                    os.kill(pid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError):
                    pass
                status = _waitpid_blocking(pid)
            statuses[index] = status
            _forget_orphan(pid)
        return statuses

    @staticmethod
    def _annotate_exit_statuses(race, seen, statuses) -> None:
        """Refine reports with what ``waitpid`` learned."""
        for report in race.reports:
            status = statuses.get(report.index)
            if status is None:
                continue
            if os.WIFSIGNALED(status):
                report.exit_signal = os.WTERMSIG(status)
                if report.index not in seen:
                    report.detail = (
                        f"killed by signal {report.exit_signal} "
                        "without a result record"
                    )
            elif os.WIFEXITED(status) and report.index not in seen:
                code = os.WEXITSTATUS(status)
                if code == _EXIT_SHIP_FAILED:
                    report.detail = (
                        "result shipback failed in the child "
                        "(serialization or pipe error)"
                    )
                elif code == _EXIT_HANG:
                    report.detail = "hung arm outlived the race"
                elif code != _EXIT_OK:
                    report.detail = (
                        f"exited with status {code} without a result record"
                    )
