"""The process execution backend: real ``os.fork`` racing with COW.

One OS process per arm, one result pipe per process.  Each arm runs its
body against its private simulated address space (the whole simulated
store is duplicated by the OS fork's own copy-on-write, so siblings are
isolated twice over) and ships its outcome back as a checksum-framed
pickle record.  The first arm whose *intact* success record arrives wins
the rendezvous -- fastest-first at the wall clock.

Every arm is a *lease* of a :class:`~repro.process.pool.WorldPool`
(``pool=``, the ``REPRO_WORLD_POOL`` flag via ``get_backend``, or else
the process-wide pool of no parked workers,
:func:`~repro.process.pool.fork_pool`): a pre-warmed parked worker when
the alternative pickles and one is free, amortizing the paper's
per-block setup cost, or else a *one-shot* worker forked for the arm as
section 3.1's ``alt_spawn`` forks a child, which runs it from memory and
dies with it.  Both run the one :func:`run_arm` below their coordinator
(:data:`ARM_NICE_STEP`), speak one wire format, and are settled by
:meth:`WorldPool.finish <repro.process.pool.WorldPool.finish>`.

Dirty pages ship home through the response slab the lease lends
(:attr:`~repro.process.pool.Lease.slab`): the record carries only
``(page, slot)`` pairs, and the winner's commit is a pointer swap
(``AddressSpace.apply_shm_pages``).  Without shared memory, when a slab
cannot be made, when an arm ships nothing page-sized, or under the
``shm-attach-fail`` fault, the page images ride inside the record
instead -- per arm, byte-equivalent.

Elimination is two-stage, matching the paper's cooperative-then-forcible
reality: losers first receive the termination instruction through
:meth:`WorldPool.cancel <repro.process.pool.WorldPool.cancel>`, whose
``SIGTERM`` handler cancels the arm's signal-safe :class:`_BellToken` so
the body stops at its next cooperative checkpoint and reports how much
work it did; any arm the race still waits for after ``kill_grace``
seconds is ``SIGKILL``-ed (the asynchronous hard kill of section 3.2.1)
and its report is synthesized.  Selection ends at the commit: once a
winner is chosen and every sibling still racing has been told,
``run_arms`` returns.  A one-shot is waited for (it is this race's child); a parked
worker's lease this race has not read a byte from is *detached* --
reported ``cancelled`` with the work it burned until told, and left to
the pool, which hears it out and enforces the same deadline.
``collect_all``, timeout and no-winner races wait for everyone.

Hardening beyond the paper's happy path: every record is framed
``magic | length | crc32``, so a corrupt record demotes its arm to an
abnormal failure; an arm that dies mid-shipback leaves a truncated frame
the parent detects at EOF, and the next intact finisher is promoted;
the pool reaps every arm, force-kills a wedged one-shot as a last
resort and hands each dead arm's wait status back (``exit_signal``), and
reclaims a one-shot whose race never settled it; slabs are refcounted
with ``atexit`` unlinking; and the :mod:`repro.resilience` injector is
consulted at ``arm-raise`` / ``arm-hang`` / ``arm-sigkill`` /
``pipe-truncate`` / ``record-corrupt`` / ``shm-attach-fail``, so each of
these failure modes is reproducible in tests.
"""

from __future__ import annotations

import errno
import os
import select
import signal
import time
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

__all__ = ["ProcessBackend"]

# ----------------------------------------------------------------------
# the child side of an arm, shared by one-shots and parked workers


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
    """The token of an arm a signal cancels (a one-shot's, a pooled
    worker's), from the handler of the very thread that waits on it.

    Not a :class:`threading.Event`, whose lock a handler can find held by
    the ``wait`` it interrupted (about one told sleeper in 1 500 wedged).
    A flag and a self-pipe have no lock.  The pipe is also the process's
    signal wakeup fd (:func:`~repro.process.pool.bell_pipe`), written by
    the C-level handler
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


ARM_NICE_STEP = 5
"""How far below its coordinator an arm process runs: the niceness a
one-shot or pooled worker adds to its own once, at birth (the kernel
caps the result at 19).  Arms share what the coordinator leaves exactly
as before, so the race alone still decides the winner.  Five steps
measured as fast as ten on an idle host, and they leave an arm about a
third of the weight of any other nice-0 process on a shared one (Linux
CFS: 335 against 1024); at ten (weight 110) a closed loop of small
races beside two busy nice-0 processes on two cores ran more than
twice as slow."""


def lower_arm_priority() -> None:
    """Drop the calling arm process :data:`ARM_NICE_STEP` below where it
    was born (once per one-shot or pooled worker, never per lease, so
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
    """The child side of arm ``index``, one-shot or pooled: pre-body fault,
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
    """Race arms in OS processes; first intact success wins."""

    name = "process"
    is_parallel = True

    def __init__(self, kill_grace: float = 2.0, pool=None) -> None:
        if not hasattr(os, "fork"):
            raise RuntimeError(
                "ProcessBackend requires os.fork; use ThreadBackend instead"
            )
        if kill_grace < 0:
            raise ValueError("kill_grace cannot be negative")
        self.kill_grace = kill_grace
        self.pool = pool
        """An attached :class:`~repro.process.pool.WorldPool`, or ``None``
        to fork every arm fresh (:func:`~repro.process.pool.fork_pool`)."""

        self._race_pool = pool
        self._race_seen: Set[int] = set()
        self._race_leases: Dict[int, object] = {}

    # ------------------------------------------------------------------

    def run_arms(
        self,
        tasks: List[ArmTask],
        timeout: Optional[float] = None,
        collect_all: bool = False,
    ) -> BackendRace:
        pool = self.pool
        if pool is None:
            from repro.process.pool import fork_pool

            pool = fork_pool()
        start = time.perf_counter()
        leases: Dict[int, object] = {}
        seen: Set[int] = set()
        clean_leases: Set[int] = set()
        detached: Set[int] = set()  # leased, told, left to the pool
        self._race_pool = pool
        self._race_seen = seen
        self._race_leases = leases
        use_shm = shm_available()
        tracer = _active_tracer()
        race: Optional[BackendRace] = None
        try:
            for task in tasks:
                pre_fault, ship_fault, shm_fault = self._draw_faults(task.index)
                lease = leases[task.index] = pool.lease(
                    task, start, pre_fault=pre_fault, ship_fault=ship_fault,
                    shm=use_shm and not shm_fault,
                )
                slab = lease.slab
                if slab is not None and tracer.enabled:
                    tracer.emit(
                        _ev.SHM_MAP,
                        block=getattr(task.context, "trace_block", None),
                        arm=task.index,
                        name=task.name,
                        slab=slab.name,
                        slots=slab.slots,
                        bytes=slab.size,
                    )
            launched = time.perf_counter() - start
            # Every arm is running: hear the losers earlier races left to
            # the pool now, off the launch path, so their workers park
            # again before the next block leases.
            pool.poll()
            race = self._collect(
                tasks, pool, leases, start, timeout, seen, clean_leases,
                detached, collect_all,
            )
        finally:
            statuses = pool.finish(leases, clean_leases, detached)
            # Only now, every one-shot reaped and every worker parked or
            # replaced, may a pooled slab let go of here be lent again.  A
            # detached arm's is the pool's to let go of; a shipment's,
            # whoever commits (or abandons) the race's -- in collect mode
            # every successful arm keeps its shipment, not just the winner.
            for index, lease in leases.items():
                if lease.slab is None or index in detached or (
                    race is not None
                    and race.report(index).shm_shipment is not None
                ):
                    continue
                lease.slab.dispose()
            self._race_seen = set()
            self._race_leases = {}
        race.page_transport = "shm" if use_shm else "pipe"
        race.setup_seconds = launched
        self._annotate_exit_statuses(race, seen, statuses)
        return race

    def terminate_arm(self, index: int, hard: bool = False) -> bool:
        """Signal one still-racing arm (the watchdog's entry point).

        The instruction goes through the pool: a bare ``SIGTERM`` is only
        a bell to a parked worker, the instruction is on the board.
        """
        lease = self._race_leases.get(index)
        if lease is None or index in self._race_seen:
            return False
        if not hard:
            return self._race_pool.cancel(lease, self.kill_grace)
        try:
            os.kill(lease.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            return False
        return True

    # ------------------------------------------------------------------
    # faults, drawn in the parent

    @staticmethod
    def _draw_faults(
        index: int,
    ) -> Tuple[Optional[Tuple], Optional[Tuple], bool]:
        """Consult the injector for one arm, in the parent, pre-fork.

        Drawing here (instead of in the arm) keeps fault counters and
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
        elif (hang := injector.draw("arm-hang", index)) is not None:
            pre_fault = ("hang", hang.duration, "")
        elif (raised := injector.draw("arm-raise", index)) is not None:
            pre_fault = ("raise", 0.0, raised.detail
                         or f"injected fault at arm-raise (arm {index})")
        ship_fault: Optional[Tuple] = None
        if pre_fault is None or pre_fault[0] == "raise":
            # Only arms that will actually ship a record draw ship faults.
            if (cut := injector.draw("pipe-truncate", index)) is not None:
                ship_fault = ("truncate", wire.truncate_offset(cut.detail))
            elif injector.draw("record-corrupt", index) is not None:
                ship_fault = ("corrupt", None)
        shm_fault = injector.draw("shm-attach-fail", index) is not None
        return pre_fault, ship_fault, shm_fault

    # ------------------------------------------------------------------
    # parent side

    def _collect(
        self, tasks, pool, leases, start, timeout, seen, clean_leases,
        detached, collect_all=False,
    ) -> BackendRace:
        readers = {index: _RecordReader() for index in leases}
        fd_to_index = {lease.result_fd: i for i, lease in leases.items()}
        open_fds = set(fd_to_index)
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

        def waits_for(index: int) -> bool:
            """Whether the race reads arm ``index`` to its end.  Selection
            ends at the commit: once a winner is chosen, a parked worker's
            lease this race has not read one byte from is the pool's to
            hear out; a one-shot is this race's child and is waited for."""
            if winner_index is None or collect_all:
                return True
            reader = readers[index]
            return leases[index].one_shot or reader.pending or reader.corrupt

        def signal_racing(sig: int) -> None:
            nonlocal issued_at
            for index, lease in leases.items():
                if index == winner_index or index in seen:
                    continue
                if sig == signal.SIGTERM:
                    pool.cancel(lease, self.kill_grace)
                    continue
                if not waits_for(index):
                    continue  # the pool enforces the same deadline
                try:
                    os.kill(lease.pid, sig)
                except ProcessLookupError:
                    pass
            if sig == signal.SIGTERM:
                issued_at = time.perf_counter() - start

        def only_detachable_left() -> bool:
            """Every sibling still racing has been told, and none of those
            left open is one the race waits for."""
            return not any(waits_for(fd_to_index[fd]) for fd in open_fds)

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
                    # EOF: a one-shot exited -- or a parked worker died
                    # mid-lease (its pipe outlives leases otherwise).
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
                    if not pool.accepts(leases[index], record):
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
                        signal_racing, trace_finish, pool, leases[index],
                        collect_all=collect_all,
                    )
                if reader.corrupt and index not in seen:
                    conclude_abnormal(index, reader.corrupt_detail)
                if not leases[index].one_shot and index in seen:
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
        trace_finish, pool, lease, collect_all=False,
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
            pool.count_told_before_start()
        if record["ok"]:
            shipment = None
            shm_pages = record.get("shm_pages")
            if shm_pages is not None:
                slab = lease.slab
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
