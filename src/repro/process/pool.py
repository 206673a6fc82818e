"""A pre-warmed world pool: parked worker processes that race arms on demand.

``alt_spawn`` pays a per-block *setup* cost (section 4.1 item 1): it
forks one fresh child per arm per race, and the fork itself --
duplicating the parent, re-importing nothing but still paying the OS --
dominates commit latency for small blocks.  A :class:`WorldPool`
amortizes it: N blank workers are forked **once** and parked on a
control pipe; each race *leases* a parked worker instead of forking,
hands it the arm (by value) plus a snapshot of the racing world, and
recycles the worker afterwards.

Every arm is a lease: one that no parked worker can take
(:meth:`WorldPool.lease`) gets a **one-shot** worker, forked for it and
reaped with no heir at its settle -- section 3.1's forked child in
ledger terms.  A pool of no parked workers (:func:`fork_pool`) forks one
per arm.

A lease travels over the worker's control pipe as a length-prefixed
pickle; the result comes back over the worker's *persistent* result pipe
in the exact wire format a one-shot uses on its own pipe
(:mod:`repro.core.backends.wire`), so the collecting loop reads both
alike.  Dirty pages come home through a response slab
(:mod:`repro.pages.shm`), handed out with the lease (:attr:`Lease.slab`).

The racing world goes *out* the way the paper's does (section 3.3): as a
copy-on-write view of one parent image, not a copy per arm.  The pool
owns an append-only shared-memory **arena** -- one
:class:`~repro.pages.shm.ShmSlab`, created by the first lease that has a
non-zero page to show -- and an index ``(store uid, frame id) -> slot``.
An arm's space is a page table that shares a frozen
:class:`~repro.pages.table.PageImage` with its parent and siblings, plus
an overlay of the pages written since the freeze.  The image is *named*,
not listed: the first lease that shows it copies the frames the arena
lacks into fresh slots and writes the image's ``(vpn, slot)`` pairs, once,
into write-once slots after them; every lease showing that image -- every
arm of a block, every block on a parent that has not been frozen anew --
carries only that record's slot range, the slots of its overlay's pages,
and the image pages its table hides.  The worker keeps its arena mapping
and one page store across leases, adopts each slot it is shown once as an
external frame, keeps the frozen table of the last image record it was
shown and forks it for each lease, and copies a page only when the body
writes it.  So neither the lease message nor the worker's setup grows
with the parent.
Image uids and frame ids are never reused and slots are write-once, so a
record stays right for as long as its arena lives; a rotation starts with
none.  Page images cross the control pipe only when shared memory is off
(or the arm has no slab).

The way *home* is the arena's twin.  The pool keeps one response slab
per worker -- created by the first lease that needs one, mapped once by
the worker and kept mapped -- and lends it to each lease in turn
(:meth:`~repro.pages.shm.ShmSlab.lend`): the handle presents exactly
the slots the arm's space has, is retained by every frame the parent
adopts from it, and gives its reference back when the last of them
drains.  A slab still referenced when its worker is next leased (a
winner's, while the world that adopted its pages lives) is set aside
among at most :data:`RESPONSE_SPARE_SLABS` spares.

A race does not wait for its pooled losers.  Selection ends at the
commit (section 3.2.1: siblings stop "at some time after" the
termination instruction is delivered): :class:`ProcessBackend` hands the
told leases it has not heard from back with :meth:`WorldPool.finish` as
*detached*, and the parent resumes.  A detached lease is *draining* --
its worker, arena pin, lent handle and deadline in the pool's custody --
until a drainer has heard the worker out: one intact record echoing the
lease's epoch and nothing after it parks the worker; anything else, or
silence past the deadline, recycles it.  Hearing losers is selection
work, so it stays off the launch path: a drain turn runs without waiting
in :meth:`WorldPool.poll` -- which :class:`ProcessBackend` calls once a
block's last lease is written, so the last block's losers are heard while
this block's arms run -- and at the top of :attr:`~WorldPool.parked` and
:meth:`~WorldPool.reclaim_abandoned`; it waits -- until the earliest
deadline at most -- in :meth:`WorldPool.drain`, in
:meth:`WorldPool.shutdown`, and in a lease that finds nobody parked but
somebody on the way back (draining, or an heir being forked).  A lease
that finds a worker parked, and :meth:`~WorldPool.finish`, take none.
One drainer at a time, and the role goes back after every turn: a lease
takes the first worker that parks and does not queue behind a drain.
The deadline is for silence: a worker part of whose record has been
read gets ``kill_grace`` again from that byte.

The termination instruction travels on the **board**: one anonymous
shared mapping made before the first fork, one word per worker.  *The
word is the instruction, the signal is the bell*:
:meth:`WorldPool.cancel` writes the lease's epoch into the worker's word
and then sends ``SIGTERM``; the worker's handler cancels the arm's token
only if the word equals the epoch it is serving, and a worker that
starts on a lease publishes epoch and token first and then reads its
word once -- an arm told before it began ships ``cancelled`` at once,
with no world built, no body run and no slab written.  An instruction
can therefore not be lost, and, epochs never being reused, a late bell
cannot hit a later lease.  Only the handler cancels, on the very thread
that may be asleep on the token, so a pooled arm's token is a flag and a
self-pipe (the bell token of :mod:`repro.core.backends.process`) and not
a :class:`threading.Event`, whose lock a handler can find held by the
code it interrupted.

The coordinator outranks its arms.  Section 4.1 counts CPU shared with
losing siblings as *runtime* overhead, and the coordinator shares the
CPU too: at equal weight, the parent writing a lease is preempted by the
worker it just woke.  So every worker lowers itself once, when it starts
(hence also every respawn), by
:data:`~repro.core.backends.process.ARM_NICE_STEP`, as a forked arm
does; never per lease, so it never compounds.  A coordinator already
near the kernel's cap of 19 leaves its arms level with it, which costs
speed, not answers.  A refused ``os.nice`` is ignored.  On a shared
host an arm competes with every other nice-0 process at about a third of
its weight (Linux CFS: 335 against 1024); the step is kept small for
that reason.

The bookkeeping -- which worker is parked, leased, draining or dead,
each lease's deadline, arena pin and handle, the spares, the arena's
free slots, the drainer role -- is a pure
:class:`~repro.process.ledger.LeaseLedger`; :class:`WorldPool` is the
shell that forks, signals, selects, maps and writes as the ledger says.
The invariants that make all of the above safe are stated there, and
checked on every reachable ledger state.  One more is per process: a
pool built in a forked child (a pooled worker, a one-shot, a nested
race inside an arm) starts with no slab.  :meth:`WorldPool.shutdown`
drops the pool's claim on every slab it holds; one still pinned by a
live world is unlinked by that world's exit.

Failure discipline is the same for both kinds of worker:

- a bare ``SIGTERM`` is only a bell, on a leased worker as on a parked
  one; ``SIGKILL`` (watchdog escalation, grace expiry) kills the worker,
  the parent sees EOF, concludes the arm abnormally, and the pool
  respawns a fresh worker at :meth:`finish` -- or, for a one-shot, just
  reaps it and hands its wait status back;
- a lease whose record never fully arrived leaves the worker's stream
  suspect: the worker is killed and respawned, never re-parked;
- a mismatched epoch echo (a stale world's leftovers) poisons the worker
  instead of corrupting the race; the ``pool-worker-stale`` fault point
  injects exactly that, and an injected or real lease failure gives the
  arm a one-shot -- pooling is a pure optimization.

Every process the pool forks is its own to reap: at its settle, at
:meth:`reclaim_abandoned` when its race never settled it, and at
:meth:`shutdown` (``atexit``-registered).  A fork that fails while the
pool fills shuts down what was built before it raises.
"""

from __future__ import annotations

import atexit
import mmap
import os
import pickle
import select
import signal
import struct
import threading
import time
from array import array
from contextlib import suppress
from dataclasses import dataclass
from operator import attrgetter
from types import SimpleNamespace
from typing import Collection, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.core.alternative import AltContext
from repro.core.backends import wire
from repro.core.backends.process import (
    _BellToken, lower_arm_priority, run_arm,
)
from repro.core.sequential import _run_body
from repro.obs import events as _ev
from repro.obs.tracer import active as _active_tracer
from repro.pages.address_space import AddressSpace
from repro.pages.shm import ShmSlab
from repro.pages.store import PageStore
from repro.pages.table import PageTable
from repro.process.ledger import (
    CLEAN, COUNTERS, DIRTY, DRAINING, GONE, LEASED, PARKED, PARTIAL,
    SILENT, LeaseLedger,
)
from repro.resilience.injector import active as _active_injector

__all__ = [
    "Lease", "WorldPool", "default_pool", "fork_pool", "shutdown_default_pool",
]

_LEN = struct.Struct("!I")
"""Control-pipe framing: 4-byte length prefix, then a pickled message."""

_WORD = struct.Struct("=Q")
"""One word of the board: the epoch of the lease its worker was last
told to stop."""

DEFAULT_POOL_SIZE = 2

ARENA_MIN_SLOTS = 1024
"""Slots in the smallest arena the pool creates.  A segment's pages are
backed only once written, so room to spare costs address space, not
memory; an arena that fills is replaced by one twice the size of the
whole world -- image, overlay and record -- of the lease that overflowed
it."""

RESPONSE_SPARE_SLABS = 2
"""Response slabs the pool keeps beyond one per worker: slabs set aside
while a live world pins them, reissued once it lets go.  Two covers a
world per concurrent race on the served path's two race threads; a
world that lives longer costs the pool's claim on the oldest spare, not
an unbounded set."""


def _read_exact(fd: int, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes; ``None`` on EOF (parent died)."""
    chunks = []
    while count:
        chunk = os.read(fd, count)  # EINTR is retried (PEP 475)
        if not chunk:
            return None
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


_refs = attrgetter("refs")
"""A slab's reference count: the fact the ledger lends by."""


def _close_fds(fds) -> None:
    for fd in fds:
        if fd is not None:  # a one-shot has no control pipe
            with suppress(OSError):
                os.close(fd)


def bell_pipe() -> Tuple[int, int]:
    """A non-blocking self-pipe for :class:`_BellToken`, made this
    process's signal wakeup fd (once per one-shot or pooled worker)."""
    wake = os.pipe()
    for fd in wake:
        os.set_blocking(fd, False)
    signal.set_wakeup_fd(wake[1], warn_on_full_buffer=False)
    return wake


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
                os._exit(wire.EXIT_SHIP_FAILED)
        return pid
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, old_mask)


@dataclass
class Lease:
    """One arm handed to a worker (what ``run_arms`` tracks)."""

    index: int
    pid: int
    result_fd: int
    epoch: int
    slab: Optional[ShmSlab] = None
    """The arm's response slab, lent for this lease alone; the holder
    disposes it once the race is over, after :meth:`WorldPool.finish` --
    unless it detached the lease there, and the handle with it.
    ``None`` when the arm ships over the pipe."""

    one_shot: bool = False
    """Its worker was forked for this arm and dies with it: the race
    reads its pipe to the end and is given its wait status, and never
    detaches it."""


_PAIR = array("I").itemsize * 2
"""Bytes of one ``(vpn, slot)`` pair in an image record."""


def _record_slots(pages: int, slot_size: int) -> int:
    """Arena slots an image record of ``pages`` pairs takes."""
    return -(-pages * _PAIR // slot_size)


def _snapshot(record=None, vpns=(), slots=(), zero=(), inline=None) -> dict:
    """The lease fields that show an arm its world: the image record's
    ``(first slot, pages)``, the overlay's pages and slots, the image
    pages to zero-fill -- or every non-zero page inline."""
    return {
        "snapshot_image": record,
        "snapshot_vpns": vpns,
        "snapshot_slots": slots,
        "snapshot_zero": zero,
        "snapshot_inline": {} if inline is None else inline,
    }


class _Arena:
    """Parent-side data of one arena segment (guarded by the pool lock);
    which of its slots are free, and who pins it, is the ledger's."""

    __slots__ = ("slab", "index", "images")

    def __init__(self, slab: ShmSlab) -> None:
        self.slab = slab
        self.index: Dict[Tuple[int, int], int] = {}
        """``(store uid, frame id) -> slot`` for every published frame."""

        self.images: Dict[Tuple[int, int], Optional[Tuple[int, int]]] = {}
        """``(image uid, page count) -> (first slot, pages)`` of every
        image record written here; ``None`` for an image with no
        non-zero page within that many pages."""

    def extend(self, start: int, uid: int, frames, images) -> None:
        """Publish one page image per frame in the slots from ``start``."""
        self.slab.write_slots(start, images)
        # Indexed only once written: a slot that a lease can name is
        # never written again.
        for slot, frame in enumerate(frames, start):
            self.index[(uid, frame)] = slot

    def record(self, start: int, key: Tuple[int, int], vpns, slots) -> None:
        """Write one image's ``(vpn, slot)`` pairs in the slots from
        ``start``."""
        size = self.slab.slot_size
        pairs = array("I", [0]) * (2 * len(vpns))
        pairs[0::2] = array("I", vpns)
        pairs[1::2] = array("I", slots)
        blob = pairs.tobytes()
        blob += bytes(-len(blob) % size)
        self.slab.write_slots(start, [
            blob[offset:offset + size] for offset in range(0, len(blob), size)
        ])
        self.images[key] = (start, len(vpns))

    def dispose(self) -> None:
        self.slab.dispose()


class _Worker(NamedTuple):
    """Parent-side handle on one pooled process (a one-shot has no
    control pipe)."""

    pid: int
    ctrl_fd: Optional[int]
    result_fd: int


class WorldPool:
    """N pre-forked workers, parked until a race leases them.  The
    ledger's counters (:data:`~repro.process.ledger.COUNTERS`) read as
    the pool's own attributes."""

    def __init__(self, size: int = DEFAULT_POOL_SIZE) -> None:
        if size < 0:
            raise ValueError("a world pool cannot have fewer than no workers")
        if not hasattr(os, "fork"):
            raise RuntimeError("WorldPool requires os.fork")
        self.size = size
        self._ledger = LeaseLedger(size, RESPONSE_SPARE_SLABS)
        self._lock = threading.Lock()
        """Held around every ledger call."""

        self._moved = threading.Condition(self._lock)
        """Notified when a worker parks, a slot gives up its heir, and
        the drainer hands its role back: what a lease with nobody parked
        waits on while somebody else is the drainer."""

        self._board = mmap.mmap(-1, _WORD.size * size) if size else None
        """One word per worker, shared with every worker forked from
        here on: the epoch of the lease it was last told to stop."""

        try:
            for slot in range(size):
                self._respawn(slot)
        except BaseException:
            self.shutdown()  # the workers forked before the one that failed
            raise
        atexit.register(self.shutdown)

    def __getattr__(self, name: str):
        if name in COUNTERS:
            return getattr(self._ledger, name)
        raise AttributeError(name)

    # ------------------------------------------------------------------
    # parent side

    def _spawn(self, slot: int) -> _Worker:
        ctrl_read, ctrl_write = os.pipe()
        result_read, result_write = os.pipe()

        def worker() -> None:
            _close_fds([ctrl_write, result_read] + self._parent_fds())
            _worker_main(ctrl_read, result_write, self._board, slot)

        try:
            pid = fork_child(worker)
        except BaseException:
            # fork failed (e.g. EAGAIN): don't leak the pipes.
            _close_fds((ctrl_read, ctrl_write, result_read, result_write))
            raise
        _close_fds((ctrl_read, result_write))
        return _Worker(pid, ctrl_write, result_read)

    def _parent_fds(self) -> List[Optional[int]]:
        """Every worker's parent-end fds, which leak through a fork: a
        child drops them so a dead sibling's pipes actually EOF."""
        return [
            fd for sibling in self._ledger.procs()
            for fd in (sibling.ctrl_fd, sibling.result_fd)
        ]

    def _respawn(self, slot: int) -> None:
        """Fork a worker into ``slot`` -- at start, or as the heir of one
        reaped there.  The heir inherits the response slab: nothing that
        could write it is left, and whatever still reads it keeps it out
        of a lease by its reference count.  A closed pool forks nothing."""
        worker = None
        try:
            if not self._ledger.closed:
                worker = self._spawn(slot)
        finally:
            self._act(self._ledger.born, slot, worker)

    @staticmethod
    def _reap(worker: _Worker, kill: bool = True) -> Optional[int]:
        """Kill (unless it is reaped already) and reap one worker, close
        its pipes; its wait status."""
        status = None
        if kill:
            with suppress(ProcessLookupError, PermissionError):
                os.kill(worker.pid, signal.SIGKILL)
            with suppress(ChildProcessError):  # reaped elsewhere
                status = os.waitpid(worker.pid, 0)[1]
        _close_fds((worker.ctrl_fd, worker.result_fd))
        return status

    def _wake(self) -> None:
        with self._moved:
            self._moved.notify_all()

    @staticmethod
    def _dispose(thing) -> None:
        thing.dispose()

    def _perform(self, actions) -> Optional[int]:
        """Carry out what the ledger asked for, in order, outside the
        lock -- each action is a method of this shell; the wait status of
        the last worker reaped."""
        status = None
        for verb, *args in actions:
            status = getattr(self, "_" + verb)(*args) or status
        return status

    def _act(self, transition, *args) -> Optional[int]:
        """One ledger transition under the lock, its actions after."""
        with self._lock:
            actions = transition(*args)
        return self._perform(actions)

    def lease(
        self,
        task,
        start: float,
        pre_fault: Optional[Tuple] = None,
        ship_fault: Optional[Tuple] = None,
        shm: bool = False,
    ) -> Lease:
        """Hand one arm to a parked worker, or to a one-shot one.

        A one-shot worker is forked for the arm whenever pooling cannot
        be transparent: every worker leased to a race still running, an
        alternative that does not pickle, a context without a space, or
        an injected ``pool-worker-stale`` fault.  Workers on their way
        back are waited for instead, so a pool as wide as its caller
        never forks one; only such a lease takes a drain turn, never one
        that a parked worker can grant.  With ``shm`` the lease carries a
        response slab and a pooled arm's world goes out through the
        arena; without it, or when shared memory refuses, pages travel
        both ways on the pipes.
        """
        ledger = self._ledger
        space = getattr(task.context, "space", None)
        want = None
        if shm and space is not None:
            want = (space.num_pages, space.page_size)
        arm = (task, start, pre_fault, ship_fault, want)
        if task.alternative is None or space is None:
            return self._one_shot(*arm)
        while True:
            # Selection, the epoch draw and the ledger entry are ONE
            # transition: concurrent callers can interleave here
            # arbitrarily and never double-lease a worker.
            with self._lock:
                epoch = ledger.grant(time.monotonic(), want, _refs)
                if epoch is not None:
                    worker = ledger.holder(epoch).proc
                    break
                if ledger.closed or not ledger.settling():
                    break
            self._drain_until(ledger.someone_parked)
        if epoch is None:
            return self._one_shot(*arm)
        injector = _active_injector()
        if (
            injector is not None
            and injector.draw("pool-worker-stale", task.index) is not None
        ):
            # The injected stale world: this worker's state is declared
            # unusable, so it is recycled and the arm gets a one-shot.
            return self._fall_back(epoch, None, DIRTY, arm)
        slab, slab_reused = self._lend_slab(epoch, want)
        # A response slab means shared memory works for this arm, so its
        # world goes out through the arena too.
        arena, snapshot, published, shown = self._publish(
            epoch, space, slab is not None
        )
        message = {
            "kind": "lease",
            "epoch": epoch,
            "index": task.index,
            "name": task.name,
            "alternative": task.alternative,
            "rng_seed": task.rng_seed,
            "space_size": space.size,
            "page_size": space.page_size,
            "arena": None if arena is None else (
                arena.slab.name, arena.slab.slots, arena.slab.slot_size
            ),
            **snapshot,
            "slab_name": None if slab is None else slab.name,
            "slab_slots": None if slab is None else slab.slots,
            "slab_slot_size": None if slab is None else slab.slot_size,
            "start": start,
            "pre_fault": pre_fault,
            "ship_fault": ship_fault,
            "trace_block": getattr(task.context, "trace_block", None),
        }
        try:
            blob = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            # Closures, local classes, live fds: not portable by value.
            return self._fall_back(epoch, slab, CLEAN, arm)
        try:
            if not wire.write_all(worker.ctrl_fd, _LEN.pack(len(blob)) + blob):
                raise BrokenPipeError("pool worker hung up")
        except OSError:
            return self._fall_back(epoch, slab, DIRTY, arm)
        with self._lock:
            ledger.leases_granted += 1
        tracer = _active_tracer()
        if tracer.enabled:
            tracer.emit(
                _ev.POOL_LEASE,
                block=getattr(task.context, "trace_block", None),
                arm=task.index,
                name=task.name,
                worker_pid=worker.pid,
                epoch=epoch,
                snapshot_pages=shown,
                published_pages=published,
                transport="shm" if slab is not None else "pipe",
                slab_reused=slab_reused,
            )
        return Lease(
            index=task.index,
            pid=worker.pid,
            result_fd=worker.result_fd,
            epoch=epoch,
            slab=slab,
        )

    def _fall_back(
        self, epoch: int, slab: Optional[ShmSlab], outcome: str, arm: tuple
    ) -> Lease:
        """Undo a lease that could not be sent: settle the worker, then
        -- only then, nothing is left that could write it -- give the
        slab back, and fork the arm a one-shot instead."""
        self._act(self._ledger.settle, epoch, outcome)
        if slab is not None:
            slab.dispose()
        return self._one_shot(*arm)

    def _one_shot(
        self, task, start: float, pre_fault: Optional[Tuple],
        ship_fault: Optional[Tuple], want: Optional[Tuple[int, int]],
    ) -> Lease:
        """Fork a one-shot worker for the arm: it runs ``task.run`` from
        memory (a closure needs no pickle), below its coordinator, with a
        bell token that a plain ``SIGTERM`` cancels, and ships through a
        slab lent or bound before the fork."""
        with self._lock:
            epoch = self._ledger.one_shot(time.monotonic())
        slab = self._lend_slab(epoch, want)[0]
        read_fd, write_fd = os.pipe()

        def arm() -> None:
            _close_fds([read_fd] + self._parent_fds())
            _one_shot_main(task, write_fd, start, pre_fault, ship_fault, slab)

        try:
            pid = fork_child(arm)
        except BaseException:  # fork failed (e.g. EAGAIN): leak nothing
            _close_fds((read_fd, write_fd))
            self._act(self._ledger.born, -epoch, None)
            if slab is not None:
                slab.dispose()
            raise
        os.close(write_fd)
        with self._lock:
            actions = self._ledger.born(-epoch, _Worker(pid, None, read_fd))
        if actions:  # settled (a shutdown) before it was born: reaped
            self._perform(actions)
            raise RuntimeError("the pool shut down while an arm was forked")
        return Lease(task.index, pid, read_fd, epoch, slab, one_shot=True)

    def _lend_slab(
        self, epoch: int, want: Optional[Tuple[int, int]]
    ) -> Tuple[Optional[ShmSlab], bool]:
        """A handle on the response slab of ``epoch``'s worker for this
        lease alone: ``(handle, reused)``, or ``(None, False)`` when the
        arm ships over the pipe -- no shared memory wanted, a space of no
        pages, or shared memory refuses.  The ledger picks the slab; a
        fresh one is made here when it has none that can go out."""
        if want is None or not want[0]:
            return None, False
        with self._lock:
            slab, actions = self._ledger.lend(epoch, want, _refs)
            self._perform(actions)  # disposals only: no lock needed
            reused = slab is not None
            if slab is None and self._ledger.holder(epoch) is not None:
                try:
                    slab = ShmSlab.create(*want)
                except Exception:  # /dev/shm full, platform refusal
                    return None, False
                self._ledger.bind(epoch, slab)
        return (None if slab is None else slab.lend(want[0])), reused

    def _publish(
        self, epoch: int, space: AddressSpace, shm: bool
    ) -> Tuple[Optional[_Arena], dict, int, int]:
        """Make the world of ``space`` readable in the live arena.

        The world is the table's frozen image, named by its record, plus
        the overlay's non-zero pages, named by slot, and the image pages
        the table hides, which the worker zero-fills.  An image the
        arena has no record of is walked once; its frames and the
        overlay's that the arena lacks are copied into fresh slots, and
        its record is written after them.  An arena the lease does not
        fit in is retired and replaced first.  Returns the arena (pinned
        by the lease), the lease's snapshot fields, the pages copied and
        the pages shown -- or, to ship inline, no arena and every
        non-zero page in the fields.
        """
        if not shm:
            return self._inline(space)
        table = space.table
        image, overlay = table.image, table.overlay
        num_pages, zero = space.num_pages, space.store.zero_frame_id
        if overlay:
            overlay = sorted(
                entry for entry in overlay.items()
                if entry[1] != zero and entry[0] < num_pages
            )
        if image is None and not overlay:
            return None, _snapshot(), 0, 0  # all zero: nothing to show
        key = None if image is None else (image.uid, num_pages)
        ledger, placed = self._ledger, None
        with self._lock:
            arena = ledger.arena
            if key is None or (arena is not None and key in arena.images):
                if not overlay and ledger.pin(epoch):
                    # Every arm of a block, and every block on one image,
                    # after the first: one lookup, nothing written.
                    placed = arena, arena.images[key], 0, []
                else:
                    placed = self._place(epoch, space, key, overlay)
        if placed is None:
            # A new image is walked outside the lock that concurrent
            # leases wait on.
            walked = space.image_frames()
            with self._lock:
                placed = self._place(epoch, space, key, overlay, walked)
        arena, record, fresh, slots = placed
        if arena is None:
            return self._inline(space)
        vpns = tuple(vpn for vpn, _ in overlay)
        hidden = table.hidden
        zero_filled = tuple(sorted(
            vpn for vpn in hidden.difference(vpns) if vpn < num_pages
        )) if record is not None and hidden else ()
        shown = len(vpns) + (0 if record is None else record[1])
        return (
            arena, _snapshot(record, vpns, slots, zero_filled), fresh, shown,
        )

    def _place(
        self, epoch: int, space: AddressSpace, key, overlay: list,
        walked: Optional[Tuple[tuple, tuple]] = None,
    ) -> Tuple[Optional[_Arena], Optional[Tuple[int, int]], int, List[int]]:
        """:meth:`_publish`'s general case (lock held): publish what the
        live arena lacks of image ``key`` and of ``overlay``, rotating it
        once if it is full.  ``walked`` is the image's
        :meth:`~repro.pages.address_space.AddressSpace.image_frames`,
        walked here only if the caller did not -- the arena moved since
        it looked, or must be replaced.  Returns the arena, pinned by the
        lease, the image's record, the pages copied and the overlay's
        slots; no arena when the lease cannot be shown one."""
        store, ledger = space.store, self._ledger
        uid, page_size = store.uid, store.page_size
        start = None
        for rotated in (False, True):
            if ledger.closed or ledger.holder(epoch) is None:
                return None, None, 0, []
            arena = ledger.arena
            if arena is not None and arena.slab.slot_size != page_size:
                arena = None
            known = key is None or (arena is not None and key in arena.images)
            if not known and walked is None:
                walked = space.image_frames()
            vpns, frames = ((), ()) if known else walked
            index = {} if arena is None else arena.index
            fresh = list(dict.fromkeys(
                frame for frame in frames + tuple(f for _, f in overlay)
                if (uid, frame) not in index
            ))
            records = _record_slots(len(vpns), page_size)
            start = None if arena is None else ledger.publish(
                len(fresh) + records, len(fresh)
            )
            if start is not None:
                break
            if not rotated:
                # Sized from the whole world, not from what the old arena
                # lacked: the new one starts empty.
                if walked is None and key is not None:
                    walked = space.image_frames()
                vpns, frames = walked or ((), ())
                world = set(frames).union(f for _, f in overlay)
                self._rotate(
                    page_size, len(world) + _record_slots(len(vpns), page_size)
                )
        if start is None or not ledger.pin(epoch):
            return None, None, 0, []
        if fresh:
            arena.extend(start, uid, fresh, [store.view(f) for f in fresh])
        if not known:
            arena.images[key] = None
            if vpns:
                arena.record(start + len(fresh), key, vpns, [
                    arena.index[(uid, f)] for f in frames
                ])
        record = None if key is None else arena.images[key]
        slots = [arena.index[(uid, f)] for _, f in overlay]
        return arena, record, len(fresh), slots

    @staticmethod
    def _inline(space: AddressSpace) -> Tuple[None, dict, int, int]:
        """Every non-zero page of ``space``, to ship over the pipe."""
        vpns = space.nonzero_frames()[0]
        pages = {vpn: space.table.read_page(vpn) for vpn in vpns}
        return None, _snapshot(inline=pages), 0, len(vpns)

    def _rotate(self, page_size: int, demand: int) -> Optional[_Arena]:
        """Retire the live arena, if any, for one sized from the demand
        in slots (lock held); ``None`` when shared memory refuses."""
        try:
            arena = _Arena(ShmSlab.create(
                max(ARENA_MIN_SLOTS, 2 * demand), page_size
            ))
        except Exception:  # /dev/shm full, platform refusal
            arena = None
        capacity = 0 if arena is None else arena.slab.slots
        self._perform(self._ledger.rotate(arena, capacity))  # disposals
        return arena

    def cancel(self, lease: Lease, grace: float) -> bool:
        """Issue the termination instruction to a leased arm: its epoch
        on the board, then the bell.  From now the worker has ``grace``
        seconds to report before whoever collects it (the race, or the
        pool once the lease is detached) kills it.  False when the lease
        is no longer the race's or its worker is gone.
        """
        with self._lock:
            # Under the lock: a worker is reaped only after its lease
            # left the ledger, so this pid is still the lease's.
            bells = self._ledger.cancel(lease.epoch, time.monotonic(), grace)
            for _, worker, slot, epoch in bells:
                if slot is not None:  # a one-shot's bell is its instruction
                    _WORD.pack_into(self._board, slot * _WORD.size, epoch)
                try:
                    os.kill(worker.pid, signal.SIGTERM)
                except (ProcessLookupError, PermissionError):
                    return False
        return bool(bells)

    def accepts(self, lease: Lease, record: dict) -> bool:
        """Whether ``record`` is the one ``lease`` is owed: it echoes the
        lease's epoch, or it is the only record a one-shot's own pipe
        carries.  Anything else on a pooled worker's pipe is a stale
        world's leftovers, and the worker's stream is poisoned."""
        return lease.one_shot or record.get("pool_epoch") == lease.epoch

    def count_told_before_start(self) -> None:
        """One more arm found its instruction waiting and never ran;
        called by whoever consumed its record, a race or the drainer."""
        with self._lock:
            self._ledger.told_before_start += 1

    def finish(
        self,
        leases: Dict[int, Lease],
        clean: Set[int],
        detached: Collection[int] = (),
    ) -> Dict[int, Optional[int]]:
        """Settle every lease after a race: park, kill-and-respawn, or
        take into the pool's custody.

        ``clean`` holds the arm indexes whose records were fully absorbed.
        ``detached`` holds those the race left behind at its commit: told
        to stop, not one byte of their record read; such a lease, and its
        :attr:`Lease.slab`, is the pool's from here.  Any other leased
        worker is recycled: bytes may still be in flight on its pipe.  A
        one-shot is reaped, killed first if it has not exited.  Settling
        goes by epoch, never by pid, so a lease settled already is
        skipped.  Returns wait statuses for workers that died, keyed by
        arm index, for exit-status annotation.  Takes no drain turn: the
        losers detached here are heard by the next :meth:`poll`.
        """
        ledger = self._ledger
        statuses: Dict[int, Optional[int]] = {}
        given_up: List[ShmSlab] = []
        for index, lease in leases.items():
            with self._lock:
                if index in detached:
                    if ledger.detach(lease.epoch, lease.slab,
                                     wire.RecordReader()):
                        continue
                    # Never told, or swept meanwhile: settled the old way,
                    # but the handle is no longer the race's to dispose.
                    if lease.slab is not None:
                        given_up.append(lease.slab)
                worker = ledger.holder(lease.epoch)
                if worker is None:
                    continue  # already settled elsewhere: idempotent
                # Reaped under the lock: nobody else reaps the worker of a
                # lease that is still the race's.  EINTR is retried by
                # ``os.waitpid`` itself (PEP 475).
                try:
                    reaped, status = os.waitpid(worker.proc.pid, os.WNOHANG)
                except ChildProcessError:  # reaped elsewhere
                    reaped, status = True, None
                outcome = CLEAN if index in clean else DIRTY
                outcome = GONE if reaped else outcome
                actions = ledger.settle(lease.epoch, outcome)
            reap_status = self._perform(actions)
            if outcome != CLEAN:
                statuses[index] = status if reaped else reap_status
        for slab in given_up:
            slab.dispose()
        return statuses

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Settle every detached lease: within the longest ``grace`` given
        to :meth:`cancel`, or ``False`` after ``timeout`` seconds.  After
        a ``True`` every worker is parked or leased to a race still
        running."""
        give_up_at = None if timeout is None else time.monotonic() + timeout
        return self._drain_until(self._ledger.settled, give_up_at)

    def poll(self) -> None:
        """One drain turn without waiting: settle whoever has reported
        already; a drainer already at work is left to it."""
        with self._lock:
            taken = self._ledger.take_drain()
        if taken:
            self._hear_out(0.0)

    def _drain_until(
        self, satisfied, give_up_at: Optional[float] = None
    ) -> bool:
        """Take turns as the drainer until ``satisfied()`` (asked under
        the pool lock) holds; ``False`` if ``give_up_at`` came first.  A
        caller that finds the role taken, or nothing to hear, sleeps
        until something moves and asks ``satisfied`` again first."""
        while True:
            with self._moved:
                if satisfied():
                    return True
                patience = None
                if give_up_at is not None:
                    patience = give_up_at - time.monotonic()
                    if patience <= 0:
                        return False
                if not self._ledger.take_drain():
                    self._moved.wait(patience)
                    continue
            self._hear_out(patience)

    def _hear_out(self, patience: Optional[float]) -> None:
        """One turn as the drainer (the role is the caller's already):
        wait for a draining worker to speak -- ``patience`` seconds, and
        until the earliest deadline at most -- settle those that are
        done, hand the role back."""
        ledger, heard = self._ledger, []
        try:
            with self._lock:
                pending = list(ledger.epochs(DRAINING).items())
            if not pending:  # a shutdown settled them meanwhile
                return
            soonest = min(worker.deadline for _, worker in pending)
            wait = max(0.0, soonest - time.monotonic())
            if patience is not None:
                wait = min(wait, patience)
            ready, _, _ = select.select(
                [worker.proc.result_fd for _, worker in pending], [], [], wait
            )
            for epoch, worker in pending:
                fd = worker.proc.result_fd
                heard.append(
                    (epoch, self._hear(epoch, fd, worker.reader, fd in ready))
                )
        finally:
            self._act(ledger.release_drain, heard, time.monotonic())

    def _hear(
        self, epoch: int, fd: int, reader: wire.RecordReader, readable: bool
    ) -> str:
        """What one draining worker's pipe says: ``CLEAN`` on exactly one
        intact record that echoes its epoch with nothing after it;
        ``DIRTY`` on EOF, a corrupt frame, another epoch or trailing
        bytes; ``PARTIAL`` on part of a record (one too long for the pipe
        is not late because the pool was slow to ask); ``SILENT``."""
        heard = SILENT
        while readable:
            data = os.read(fd, 65536)
            if not data:
                return DIRTY
            records = reader.feed(data)
            if reader.corrupt:
                return DIRTY
            if records:
                if (
                    len(records) != 1
                    or reader.pending
                    or records[0].get("pool_epoch") != epoch
                ):
                    return DIRTY
                if records[0].get("told_before_start"):
                    self.count_told_before_start()
                return CLEAN
            heard = PARTIAL
            readable = bool(select.select([fd], [], [], 0.0)[0])
        return heard

    def reclaim_abandoned(self, older_than: float = 30.0) -> int:
        """Recycle workers whose lease was never settled: a caller that
        died between ``lease`` and ``finish`` would hold them forever.
        Every lease older than ``older_than`` seconds goes; a late
        ``finish`` is then a no-op.  A detached lease is not abandoned:
        the drainer enforces its deadline.  Returns how many went."""
        self.poll()
        with self._lock:
            reclaimed, actions = self._ledger.reclaim(
                time.monotonic(), older_than
            )
        self._perform(actions)
        return reclaimed

    @property
    def inflight(self) -> int:
        """Leases whose race has not returned."""
        with self._lock:
            return self._ledger.count(LEASED)

    @property
    def draining(self) -> int:
        """Detached leases the pool has not settled yet."""
        with self._lock:
            return self._ledger.count(DRAINING)

    @property
    def parked(self) -> int:
        """Workers currently free to take a lease (after a drain turn)."""
        self.poll()
        with self._lock:
            return self._ledger.count(PARKED)

    def stats(self) -> Dict[str, int]:
        """The counters and the worker census as one reading: one lock
        acquisition and no drain turn, so a scrape never settles, kills
        or forks anything."""
        with self._lock:
            return self._ledger.snapshot()

    def worker_pids(self) -> List[int]:
        """The pool's own workers (a one-shot has no control pipe)."""
        with self._lock:
            return [
                proc.pid for proc in self._ledger.procs()
                if proc.ctrl_fd is not None
            ]

    def owned_slabs(self) -> List[ShmSlab]:
        """The segments the pool holds a claim on right now: the live
        arena, each worker's response slab, the spares (leak audits).
        One whose ``refs`` reads 1 is referenced by the pool alone."""
        with self._lock:
            slabs = self._ledger.slabs()
            if self._ledger.arena is not None:
                slabs.append(self._ledger.arena.slab)
        return slabs

    def shutdown(self) -> None:
        """Stop every worker (idempotent; also runs at interpreter exit)."""
        ledger = self._ledger
        with self._lock:
            if ledger.closed:
                return
            # Closed first: a worker the drain has to kill is not replaced.
            ledger.close()
        self.drain()
        self._act(ledger.shutdown)

    def __repr__(self) -> str:
        reading = ", ".join(f"{k}={v}" for k, v in self.stats().items())
        return f"WorldPool(size={self.size}, {reading})"


# ----------------------------------------------------------------------
# worker side (runs in the forked pool process; exits via os._exit only)


class _WorkerWorld:
    """What a pooled worker keeps from one lease to the next.

    The arena mapping, one :class:`PageStore`, the frame each arena
    slot was adopted as, and the frozen table of the last image record a
    lease showed, which every lease showing that image forks.  Slots are
    write-once and arena names are never reused, so a cached frame or
    table stays right for as long as the worker stays bound to that
    arena; binding to another name drops the cached table, frames and
    the old mapping.
    And the mapping of the one response
    slab the pool binds to this worker, replaced only when a lease names
    another.  The worker never unlinks anything.  It is also the arm of
    the lease being served, as :func:`run_arm
    <repro.core.backends.process.run_arm>` sees one: ``run`` builds its
    world and slab handle, ``settle`` lets both go once it has shipped.
    """

    def __init__(self) -> None:
        self.store: Optional[PageStore] = None
        self.arena: Optional[ShmSlab] = None
        self.frames: Dict[int, int] = {}
        """Arena slot -> the external frame adopted over it."""

        self.image: Optional[Tuple[Tuple[int, int, int], PageTable]] = None
        """``(first slot, pages, space size)`` of the last image record
        shown, and the frozen table built from it."""

        self.response: Optional[ShmSlab] = None
        self.lease: Optional[dict] = None
        self.token: Optional[_BellToken] = None
        self.space: Optional[AddressSpace] = None
        self.slab: Optional[ShmSlab] = None

    def run(self) -> Tuple[bool, object, str]:
        """The leased arm: its world, its response slab, then its body."""
        lease = self.lease
        self.space = self.build_space(lease)
        if lease["slab_name"] is not None:
            self.slab = self.response_slab(
                lease["slab_name"], lease["slab_slots"],
                lease["slab_slot_size"],
            )
        context = AltContext(
            self.space, rng=lease["rng_seed"],
            alt_index=lease["index"] + 1, name=lease["name"], token=self.token,
        )
        context.trace_block = lease["trace_block"]
        return _run_body(lease["alternative"], context)

    def settle(self) -> None:
        """Let go of the lease just shipped: its slab handle, its world."""
        if self.slab is not None:
            self.slab.dispose()
        if self.space is not None:
            self.space.release()  # the store outlives this lease
        self.lease = self.space = self.slab = None

    def response_slab(self, name: str, slots: int, slot_size: int) -> ShmSlab:
        """This lease's handle on the response slab it names.

        The mapping is made by the first lease that names the slab and
        kept; every lease gets its own handle of exactly ``slots`` slots
        on it, checked against the segment's size each time.
        """
        held = self.response
        if held is None or held.name != name or held.slot_size != slot_size:
            if held is not None:
                self.response = None
                held.dispose()
            held = self.response = ShmSlab.attach(name, slots, slot_size)
        return held.lend(slots)

    def unbind(self) -> None:
        """Drop the cached table and frames, then the arena mapping
        under them."""
        self.forget_image()
        if self.frames:
            self.store.decref_many(dict.fromkeys(self.frames.values(), 1))
            self.frames = {}
        if self.arena is not None:
            self.arena.dispose()
            self.arena = None

    def adopt_slots(self, slots) -> List[int]:
        """The frame adopted over each arena slot, adopting the slots
        not shown before (``slot_view`` refuses one outside the arena)."""
        known, store, arena = self.frames, self.store, self.arena
        mapped = []
        for slot in slots:
            frame = known.get(slot)
            if frame is None:
                frame = known[slot] = store.adopt_external(
                    arena.slot_view(slot)
                )
            mapped.append(frame)
        return mapped

    def forget_image(self) -> None:
        """Release the cached image table, if any."""
        held, self.image = self.image, None
        if held is not None:
            held[1].release()

    def frozen(self, record: Tuple[int, int], space_size: int) -> PageTable:
        """The table of the image whose record starts at ``record``'s
        first slot: built from the record's ``(vpn, slot)`` pairs, and
        kept until a lease shows another image."""
        first, pages = record
        key = (first, pages, space_size)
        if self.image is not None and self.image[0] == key:
            return self.image[1]
        self.forget_image()
        size = self.arena.slot_size
        blob = b"".join(
            self.arena.slot_view(slot)
            for slot in range(first, first + _record_slots(pages, size))
        )
        pairs = array("I")
        pairs.frombytes(blob[:pages * _PAIR])
        space = AddressSpace(self.store, space_size)
        try:
            space.map_frames(pairs[0::2], self.adopt_slots(pairs[1::2]))
        except BaseException:
            space.release()
            raise
        table = space.table
        table.clear_dirty()
        self.image = key, table
        return table

    def build_space(self, message: dict) -> AddressSpace:
        """The lease's racing world, with a clean dirty set so shipback
        carries exactly what the body writes.

        A lease that names an image record gets a fork of that image's
        frozen table, its hidden pages zero-filled.  Pages the lease
        names by arena slot are mapped, not copied: one batched incref
        on frames adopted when first shown, every vpn checked against
        the space and every new slot against the arena.  ``write_page``
        copies such a page on first write, as it does for any shared
        frame.
        """
        page_size = message["page_size"]
        if self.store is None or self.store.page_size != page_size:
            self.unbind()
            self.store = PageStore(page_size=page_size)
        store = self.store
        record = message.get("snapshot_image")
        vpns, slots = message["snapshot_vpns"], message["snapshot_slots"]
        if record is not None or slots:
            name, arena_slots, slot_size = message["arena"]
            if self.arena is None or self.arena.name != name:
                self.unbind()
                self.arena = ShmSlab.attach(name, arena_slots, slot_size)
        space_size = message["space_size"]
        table = None
        if record is not None:
            table = self.frozen(record, space_size).fork()
        space = AddressSpace(store, space_size, table=table)
        try:
            zero_filled = message.get("snapshot_zero", ())
            if zero_filled:
                zero = store.acquire_zero_frame()
                try:
                    space.map_frames(zero_filled, [zero] * len(zero_filled))
                finally:
                    store.decref(zero)
            if slots:
                space.map_frames(vpns, self.adopt_slots(slots))
            for vpn, data in message["snapshot_inline"].items():
                space.table.map_page(vpn, data)
        except BaseException:
            space.release()  # the store outlives this lease
            raise
        space.table.clear_dirty()
        return space


def _worker_main(ctrl_fd: int, result_fd: int, board, slot: int) -> None:
    lower_arm_priority()
    world = _WorkerWorld()
    offset = slot * _WORD.size
    wake = bell_pipe()

    def told() -> int:
        """The epoch of the lease this worker was last told to stop."""
        return _WORD.unpack_from(board, offset)[0]

    def on_sigterm(signum, frame):
        # The bell: look at the board.  Only the lease being served is
        # ever cancelled, and only from here.
        token = world.token
        if token is not None and told() == world.lease["epoch"]:
            token.cancel()

    signal.signal(signal.SIGTERM, on_sigterm)
    # The parent blocked SIGTERM around the fork; any signal that raced
    # the spawn is delivered here, to the real handler, not the default.
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
    while True:
        header = _read_exact(ctrl_fd, _LEN.size)
        if header is None:
            os._exit(0)  # parent is gone; nothing left to serve
        blob = _read_exact(ctrl_fd, _LEN.unpack(header)[0])
        if blob is None:
            os._exit(0)
        try:
            message = pickle.loads(blob)
        except Exception:  # pragma: no cover - garbled control stream
            os._exit(wire.EXIT_SHIP_FAILED)
        if message.get("kind") == "exit":
            os._exit(0)
        # Bells left from earlier leases stay in the pipe: a token's wait
        # drains what it wakes to and finds not meant for it.
        _serve_lease(message, result_fd, world, told, wake)


def _one_shot_main(
    task, write_fd: int, start: float, pre_fault: Optional[Tuple],
    ship_fault: Optional[Tuple], slab: Optional[ShmSlab],
) -> None:
    """A one-shot arm: below its coordinator, a bell token of its own,
    then :func:`run_arm <repro.core.backends.process.run_arm>`."""
    lower_arm_priority()
    context = task.context
    if getattr(context, "token", None) is not None:
        # The child's copy of the context; the handler cancels only it.
        token = context.token = _BellToken(*bell_pipe())
        signal.signal(signal.SIGTERM, lambda signum, frame: token.cancel())
    # SIGTERM was blocked across the fork: one that raced this child's
    # start is delivered now, to the bell.
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
    arm = SimpleNamespace(
        run=task.run, space=getattr(context, "space", None), slab=slab
    )
    os._exit(run_arm(task.index, arm, write_fd, start, pre_fault, ship_fault))


def _serve_lease(
    message: dict, result_fd: int, world: _WorkerWorld, told,
    wake: Tuple[int, int],
) -> None:
    """Run one leased arm and ship its record; may never return (faults).

    The lease and then its token are published to the signal handler
    before anything else, and the board is read once right after: an
    instruction issued at any moment since the lease was granted is seen
    by the one or by the other.  An arm that finds it already there ships
    ``cancelled`` at once -- no world, no body, no slab write -- without
    touching its token: cancelling is the handler's business.
    """
    epoch = message["epoch"]
    ship_fault = message["ship_fault"]
    world.lease = message
    world.token = _BellToken(*wake)
    exit_code = run_arm(
        message["index"], world, result_fd, message["start"],
        message["pre_fault"], ship_fault, epoch, told() == epoch,
    )
    world.token = None  # before the lease: the handler reads both
    if ship_fault is not None or exit_code == wire.EXIT_TRUNCATED:
        # A ship fault leaves this worker's persistent stream unusable
        # (dangling or mangled bytes): die like a forked child would and
        # let the pool respawn a clean replacement.
        os._exit(exit_code)
    world.settle()


# ----------------------------------------------------------------------
# the process-wide pools: the default one (the REPRO_WORLD_POOL=1 path),
# and the one a ProcessBackend without a pool leases every arm from

_default_pool: Optional[WorldPool] = None
_default_lock = threading.Lock()
_fork_pool: Tuple[int, Optional[WorldPool]] = (0, None)


def default_pool() -> WorldPool:
    """The lazily created process-wide pool (one per interpreter)."""
    global _default_pool
    with _default_lock:
        if _default_pool is None or _default_pool._ledger.closed:
            _default_pool = WorldPool()
        return _default_pool


def fork_pool() -> WorldPool:
    """The process-wide pool of no parked workers: a one-shot per arm.
    Made again in a forked child, without a lock (one held across the
    fork would wedge it); two made by racing first uses cost nothing."""
    global _fork_pool
    pid, pool = _fork_pool
    if pid != os.getpid() or pool is None or pool._ledger.closed:
        pool = WorldPool(0)
        _fork_pool = (os.getpid(), pool)
    return pool


def shutdown_default_pool() -> None:
    """Tear down the process-wide pool (tests call this to leave no
    children behind)."""
    global _default_pool
    with _default_lock:
        pool, _default_pool = _default_pool, None
    if pool is not None:
        pool.shutdown()
