"""A pre-warmed world pool: parked worker processes that race arms on demand.

``alt_spawn`` pays a per-block *setup* cost (section 4.1 item 1): the
fork-based backend forks one fresh child per arm per race, and the fork
itself -- duplicating the parent, re-importing nothing but still paying
the OS -- dominates commit latency for small blocks.  A
:class:`WorldPool` amortizes it: N blank workers are forked **once** and
parked on a control pipe; each race *leases* a parked worker instead of
forking, hands it the arm (by value) plus a snapshot of the racing
world, and recycles the worker afterwards.

A lease travels over the worker's control pipe as a length-prefixed
pickle; the result comes back over the worker's *persistent* result pipe
in the exact wire format a freshly forked child would use
(:mod:`repro.core.backends.wire`), so the collecting loop cannot tell a
pooled arm from a forked one.  Dirty pages come home through a response
slab (:mod:`repro.pages.shm`), as a forked child's do -- but a pooled
arm's slab is the pool's, handed out with the lease (:attr:`Lease.slab`).

The racing world goes *out* the way the paper's does (section 3.3): as a
copy-on-write view of one parent image, not a copy per arm.  The pool
owns an append-only shared-memory **arena** -- one
:class:`~repro.pages.shm.ShmSlab`, created by the first lease that has a
non-zero page to show -- and an index ``(store uid, frame id) -> slot``.
A lease copies into the arena only the frames it has not published
before and sends the worker the arena's name plus the slot of each
non-zero page; the worker keeps its arena mapping and one page store across
leases, adopts each slot it is shown once as an external frame, builds
the arm's page table from those frame ids, and copies a page only when
the body writes it.  At steady state a lease therefore costs what
*differs* from the last one, and page images cross the control pipe
only when shared memory is off (or the arm has no response slab).

The way *home* is the arena's twin.  The pool keeps one response slab
per worker -- created by the first lease that needs one, sized to that
arm's space, mapped once by the worker and kept mapped -- and lends it
to each lease in turn (:meth:`~repro.pages.shm.ShmSlab.lend`): the
handle on the lease presents exactly the slots the arm's space has, is
retained by every frame the parent adopts from it, and gives its
reference back when the last of them drains.  Nothing is created,
attached or unlinked per arm; selection frees pointers, not segments.
A slab that is still referenced when its worker is next leased (a
winner's, while the world that adopted its pages lives) is set aside
among at most :data:`RESPONSE_SPARE_SLABS` spares and the worker takes a
free spare or a fresh slab; a spare set that overflows drops its oldest.

A race does not wait for its pooled losers.  Selection ends at the
commit (section 3.2.1: siblings stop "at some time after" the
termination instruction is delivered): once a winner is chosen and every
sibling still racing has been told, :class:`ProcessBackend` hands the
leases it has not heard from back with :meth:`WorldPool.finish` as
*detached*, and the parent resumes.  A detached lease stays in the
pool's ledger as *draining* -- worker busy, arena pinned, the lent
:attr:`Lease.slab` handle and a deadline in the pool's custody -- until
:meth:`WorldPool.drain` has heard the worker out: one intact record
echoing the lease's epoch and nothing after it parks the worker;
anything else, or silence past the deadline, takes the recycle path.
The drain runs, without waiting, at the top of :meth:`WorldPool.lease`,
:meth:`~WorldPool.finish`, :attr:`~WorldPool.parked` and
:meth:`~WorldPool.reclaim_abandoned`; it waits -- until the earliest
deadline at most -- when a lease finds nobody parked but somebody
draining (it does not fork for that reason), in :meth:`WorldPool.drain`
and in :meth:`WorldPool.shutdown`.  So the pool enforces a detached
lease's deadline, whenever it is next asked for anything; a pool nobody
asks keeps a stubborn loser until somebody does, or until
:meth:`~WorldPool.shutdown`.  One drainer at a time -- two readers of
one pipe would each see half a record -- and the role goes back after
every turn: a lease waiting for a worker takes the first that parks and
does not queue behind a :meth:`~WorldPool.drain` with the rest of the
pool to hear.  The deadline is for silence: a worker part of whose
record has been read (one too long for the pipe, blocked in ``write``
until the pool looks) gets ``kill_grace`` again from that byte.

The termination instruction travels on the **board**: one anonymous
shared mapping made before the first fork, one word per worker.  *The
word is the instruction, the signal is the bell*:
:meth:`WorldPool.cancel` writes the lease's epoch into the worker's word
and then sends ``SIGTERM``; the worker's handler cancels the arm's token
only if the word equals the epoch it is serving, and a worker that
starts on a lease publishes epoch and token first and then reads its
word once -- an arm told before it began ships ``cancelled`` at once,
with no world built, no body run and no slab written.  An instruction
can therefore not be lost to a worker that had not got round to its
lease, and, epochs never being reused, a late bell cannot hit a later
lease.  Only the handler cancels, on the very thread that may be asleep
on the token, so a pooled arm's token is a flag and a self-pipe
(:class:`_BellToken`) and not a :class:`threading.Event`, whose lock a
handler can find held by the code it interrupted.

Five invariants make this safe, each held by one party:

- **slots are write-once** (the pool): a slot is written before any
  lease names it and never again, so a worker's cached frame for a slot
  cannot go stale;
- **frame ids are never reused** (:class:`~repro.pages.store.PageStore`;
  store uids neither): frames being immutable, an index entry names one
  page image for as long as the arena lives;
- **a lease pins its arena until settled** (the lease ledger): a full
  arena is retired whole and replaced, and a retired arena is unlinked
  by whoever drops its last pin -- :meth:`WorldPool.finish`, a fallback
  inside :meth:`WorldPool.lease`, :meth:`WorldPool.reclaim_abandoned`,
  or the drain settling a detached lease.  The live arena is unlinked by
  :meth:`WorldPool.shutdown`; a worker only ever unmaps;
- **a response slab is named in a lease only while nobody but the pool
  references it** (the pool): its reference count reads one -- no handle
  from an earlier lease, no frame adopted through one -- and no process
  can still write it, because a slab is bound to one worker and lent
  only with that worker's leases, a worker is leased only when it is
  parked clean or freshly spawned in place of one that was reaped
  (which it inherits the slab from), and a slab leaves its worker for
  the spare set only at such a moment.  Segment names are never reused
  (:mod:`repro.pages.shm`), the handle's slot count is the space's, not
  the segment's, and the parent adopts ``(page, slot)`` pairs only from
  a record that echoes the lease's epoch and the slab's name.  All of
  it is per process: a pool built in a forked child (a pooled worker, a
  forked arm, a nested race inside an arm) starts with no slab;
- **a detached lease is the pool's** (the pool): from
  :meth:`WorldPool.finish` on, nobody but the pool reads a detached
  lease's result pipe, and its worker is not leased, its slab not lent,
  its arena not unlinked until it is settled -- which is what keeps the
  fourth invariant's "no process can still write it" true while a loser
  is still on its way out.

:meth:`WorldPool.shutdown` drops the pool's claim on every response slab
it holds: one nobody else references is unlinked there and then, one
still pinned by a live world is unlinked by that world's exit (the last
``release`` of the last handle).  What a caller dropped without
releasing is unlinked by the ``atexit`` hook of :mod:`repro.pages.shm`.

Failure discipline matches direct forks exactly:

- :meth:`WorldPool.cancel` on a leased worker cancels the arm's token
  (cooperative elimination); a bare ``SIGTERM`` is only a bell and a
  no-op, on a leased worker as on a parked one;
- ``SIGKILL`` (watchdog escalation, grace expiry) kills the worker; the
  parent sees EOF on the persistent pipe, concludes the arm abnormally,
  and the pool respawns a fresh worker at :meth:`finish`;
- a lease whose record never fully arrived leaves the worker's stream
  suspect: the worker is killed and respawned, never re-parked -- by
  :meth:`finish` for a lease the race collected, by the drain for a
  detached one (EOF, corrupt frame, stale epoch, trailing bytes, or
  ``kill_grace`` seconds of silence after the instruction or the last
  byte heard);
- every record echoes its lease's ``epoch``; a mismatched echo (a stale
  world's leftovers) poisons the worker instead of corrupting the race;
- the ``pool-worker-stale`` fault point injects exactly that staleness,
  and an injected or real lease failure falls back to a direct fork --
  pooling is a pure optimization, never a semantic dependency.

Workers are *not* in the backend's orphan registry: their lifetime
belongs to the pool, which kills and reaps every worker at
:meth:`shutdown` (``atexit``-registered).
"""

from __future__ import annotations

import atexit
import mmap
import os
import pickle
import random
import select
import signal
import struct
import threading
import time
from dataclasses import dataclass
from typing import Collection, Dict, List, Optional, Set, Tuple

from repro.core.backends.base import CancellationToken
from repro.core.backends import wire
from repro.errors import Eliminated, FaultInjected
from repro.obs import events as _ev
from repro.obs.tracer import active as _active_tracer
from repro.pages.address_space import AddressSpace
from repro.pages.shm import ShmSlab
from repro.pages.store import PageStore
from repro.resilience.injector import active as _active_injector

__all__ = ["Lease", "WorldPool", "default_pool", "shutdown_default_pool"]

_LEN = struct.Struct("!I")
"""Control-pipe framing: 4-byte length prefix, then a pickled message."""

_WORD = struct.Struct("=Q")
"""One word of the board: the epoch of the lease its worker was last
told to stop."""

DEFAULT_POOL_SIZE = 2

ARENA_MIN_SLOTS = 1024
"""Slots in the smallest arena the pool creates.  A segment's pages are
backed only once written, so room to spare costs address space, not
memory; an arena that fills is replaced by one twice the demand that
overflowed it."""

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
        try:
            chunk = os.read(fd, count)
        except InterruptedError:  # pragma: no cover - EINTR, retried
            continue
        if not chunk:
            return None
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


@dataclass
class Lease:
    """One arm handed to a parked worker (what ``run_arms`` tracks)."""

    index: int
    pid: int
    result_fd: int
    epoch: int
    slab: Optional[ShmSlab] = None
    """The arm's response slab, lent for this lease alone; the holder
    disposes it once the race is over, after :meth:`WorldPool.finish` --
    unless it detached the lease there, and the handle with it.
    ``None`` when the arm ships over the pipe."""


class _LeaseRecord:
    """Pool-internal ledger entry for one outstanding lease.

    Keyed by epoch (unique per grant), so settlement is immune to pid
    reuse: a respawned worker that happens to receive a recycled pid can
    never be parked or killed on behalf of a lease it was not granted.
    """

    __slots__ = ("worker", "granted_at", "arena", "grace", "deadline",
                 "lease", "reader")

    def __init__(self, worker: "_Worker", granted_at: float) -> None:
        self.worker = worker
        self.granted_at = granted_at
        self.arena: Optional[_Arena] = None
        """The arena this lease's worker reads, pinned until settled."""

        self.grace = 0.0
        self.deadline: Optional[float] = None
        """Set by :meth:`WorldPool.cancel`: how long a told worker may
        stay silent, and when one that has is killed
        (``time.monotonic``)."""

        self.lease: Optional[Lease] = None
        self.reader: Optional[wire.RecordReader] = None
        """A detached lease's handle (its lent slab is the pool's to
        dispose) and the drainer's view of its result pipe."""


class _Arena:
    """Parent-side state of one arena segment (guarded by the pool lock)."""

    __slots__ = ("slab", "index", "used", "pins")

    def __init__(self, slab: ShmSlab) -> None:
        self.slab = slab
        self.index: Dict[Tuple[int, int], int] = {}
        """``(store uid, frame id) -> slot`` for every published frame."""

        self.used = 0
        self.pins = 0
        """Unsettled leases whose workers read this arena."""

    def slots_of(self, uid: int, frames) -> List[Optional[int]]:
        """Each frame's slot, ``None`` where it is not published yet."""
        lookup = self.index.get
        return [lookup((uid, frame)) for frame in frames]

    def extend(self, uid: int, frames, images) -> None:
        """Publish one page image per frame in the next free slots."""
        self.slab.write_slots(self.used, images)
        # Indexed only once written: a slot that a lease can name is
        # never written again.
        for frame in frames:
            self.index[(uid, frame)] = self.used
            self.used += 1


class _Worker:
    """Parent-side handle on one pooled process."""

    __slots__ = ("pid", "ctrl_fd", "result_fd", "slot", "busy", "slab")

    def __init__(
        self, pid: int, ctrl_fd: int, result_fd: int, slot: int
    ) -> None:
        self.pid = pid
        self.ctrl_fd = ctrl_fd
        self.result_fd = result_fd
        self.slot = slot
        """This worker's word on the board; its heir inherits it."""

        self.busy = False
        self.slab: Optional[ShmSlab] = None
        """The response slab this worker keeps mapped (pool-owned)."""


class WorldPool:
    """N pre-forked workers, parked until a race leases them."""

    def __init__(self, size: int = DEFAULT_POOL_SIZE) -> None:
        if size < 1:
            raise ValueError("a world pool needs at least one worker")
        if not hasattr(os, "fork"):
            raise RuntimeError("WorldPool requires os.fork")
        self.size = size
        self._workers: List[_Worker] = []
        self._epoch = 0
        self._active: Dict[int, _LeaseRecord] = {}
        """Leases whose race has not returned, by epoch."""

        self._draining: Dict[int, _LeaseRecord] = {}
        """Detached leases, by epoch: the race returned at its commit,
        the pool still owes each worker a hearing.  A lease is in one
        ledger or the other until settled, never in both."""

        self._lock = threading.Lock()
        self._drainer = False
        """One drainer at a time: two readers of one result pipe would
        each see half a record and recycle a healthy worker.  The role
        is taken and handed back under the pool lock, one turn
        (:meth:`_hear_out`) at a time."""

        self._moved = threading.Condition(self._lock)
        """Notified when a worker parks and when the drainer hands its
        role back: what a lease with nobody parked waits on while
        somebody else is the drainer."""

        self._board = mmap.mmap(-1, _WORD.size * size)
        """One word per worker, shared with every worker forked from
        here on: the epoch of the lease it was last told to stop."""

        self._closed = False
        self.leases_granted = 0
        self.fallbacks = 0
        """Lease attempts that fell back to a direct fork (diagnostics)."""

        self.respawns = 0
        self._arena: Optional[_Arena] = None
        self.pages_published = 0
        """Page images ever copied into an arena (cumulative)."""

        self.arena_rotations = 0
        """Arenas retired because the next lease did not fit."""

        self._spares: List[ShmSlab] = []
        """Response slabs set aside while something still references
        them, oldest first; at most :data:`RESPONSE_SPARE_SLABS`."""

        self.response_slabs_created = 0
        self.response_slabs_reused = 0
        """Leases that were lent a slab the pool already had."""

        self.drained_parked = 0
        self.drained_recycled = 0
        """Detached leases settled by a clean record / by the recycle
        path (death, bad record, deadline)."""

        self.told_before_start = 0
        """Arms that found their instruction waiting and never ran."""

        for slot in range(size):
            self._workers.append(self._spawn(slot))
        atexit.register(self.shutdown)

    # ------------------------------------------------------------------
    # parent side

    def _spawn(self, slot: int) -> _Worker:
        ctrl_read, ctrl_write = os.pipe()
        result_read, result_write = os.pipe()
        # Block SIGTERM across the fork: the mask is inherited, so a
        # SIGTERM aimed at the child before _worker_main installs its
        # handler stays pending instead of killing it with the default
        # disposition.  The child unblocks once the handler is in place.
        old_mask = signal.pthread_sigmask(
            signal.SIG_BLOCK, {signal.SIGTERM}
        )
        try:
            try:
                pid = os.fork()
            except BaseException:
                # fork failed (e.g. EAGAIN): don't leak the pipes.
                for fd in (ctrl_read, ctrl_write, result_read, result_write):
                    try:
                        os.close(fd)
                    except OSError:
                        pass
                raise
            if pid == 0:
                # In the child the mask intentionally stays blocked
                # until _worker_main installs its handler; os._exit
                # below means the outer finally never runs here.
                try:
                    os.close(ctrl_write)
                    os.close(result_read)
                    # Sibling workers' parent-end fds leak through the
                    # fork; drop them so a dead sibling's pipes
                    # actually EOF.
                    for sibling in self._workers:
                        for fd in (sibling.ctrl_fd, sibling.result_fd):
                            try:
                                os.close(fd)
                            except OSError:
                                pass
                    _worker_main(ctrl_read, result_write, self._board, slot)
                finally:  # pragma: no cover - _worker_main never returns
                    os._exit(wire.EXIT_SHIP_FAILED)
            os.close(ctrl_read)
            os.close(result_write)
        finally:
            # Restore even when fork or the parent-side setup raises:
            # the calling thread must not keep SIGTERM blocked forever.
            signal.pthread_sigmask(signal.SIG_SETMASK, old_mask)
        return _Worker(pid, ctrl_write, result_read, slot)

    def _discard(self, worker: _Worker) -> Optional[int]:
        """Kill, reap, and forget one worker; returns its wait status."""
        try:
            os.kill(worker.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        while True:
            try:
                _, status = os.waitpid(worker.pid, 0)
                break
            except InterruptedError:  # pragma: no cover - EINTR
                continue
            except ChildProcessError:
                status = None
                break
        for fd in (worker.ctrl_fd, worker.result_fd):
            try:
                os.close(fd)
            except OSError:
                pass
        with self._lock:
            if worker in self._workers:
                self._workers.remove(worker)
        return status

    def _replace(self, worker: _Worker) -> Optional[int]:
        status = self._discard(worker)
        self._respawn(worker)
        return status

    def _respawn(self, reaped: _Worker) -> None:
        """Put a fresh worker in a reaped one's place.

        The newcomer inherits the response slab: nothing that could
        write it is left, and whatever still reads it keeps it out of a
        lease by its reference count.  A closed pool spawns nothing and
        drops its claim instead.
        """
        slab, reaped.slab = reaped.slab, None
        if self._closed:
            if slab is not None:
                slab.dispose()
            return
        fresh = self._spawn(reaped.slot)
        fresh.slab = slab
        with self._moved:
            self._workers.append(fresh)
            self._moved.notify_all()
        self.respawns += 1

    def lease(
        self,
        task,
        start: float,
        pre_fault: Optional[Tuple] = None,
        ship_fault: Optional[Tuple] = None,
        shm: bool = False,
    ) -> Optional[Lease]:
        """Hand one arm to a parked worker; ``None`` means fork instead.

        Falls back (returning ``None``) whenever pooling cannot be
        transparent: every worker leased to a race still running, an
        alternative that does not pickle, a context without a space, or
        an injected ``pool-worker-stale`` fault.  The caller loses
        nothing but the amortization.  Workers that are only *draining*
        are waited for instead -- each reports or is replaced within its
        deadline -- so a pool as wide as its caller never forks.

        With ``shm`` the lease carries a response slab
        (:attr:`Lease.slab`) and the arm's world goes out through the
        arena; without it, or when shared memory refuses, pages travel
        both ways on the pipes.
        """
        if self._closed:
            return None
        space = getattr(task.context, "space", None)
        if task.alternative is None or space is None:
            self.fallbacks += 1
            return None
        # Selection, the busy flip, the epoch draw, and the ledger entry
        # happen in ONE critical section: concurrent multi-block callers
        # can interleave here arbitrarily and still never double-lease a
        # worker or observe a granted-but-unregistered lease.
        self._poll()
        while True:
            with self._lock:
                parked = [w for w in self._workers if not w.busy]
                if parked:
                    worker = parked[0]
                    if shm:
                        # A worker whose slab can go out again as it is
                        # spares the worker a new mapping and the pool a
                        # spare.
                        worker = next(
                            (
                                w for w in parked
                                if self._lendable(w.slab, space.num_pages,
                                                  space.page_size)
                            ),
                            worker,
                        )
                    worker.busy = True
                    self._epoch += 1
                    epoch = self._epoch
                    self._active[epoch] = _LeaseRecord(
                        worker, time.monotonic()
                    )
                    break
                if not self._draining:
                    self.fallbacks += 1
                    return None
            self._drain_until(self._someone_parked)
        injector = _active_injector()
        if (
            injector is not None
            and injector.draw("pool-worker-stale", task.index) is not None
        ):
            # The injected stale world: this worker's state is declared
            # unusable, so it is recycled and the arm forks directly.
            self._settle(epoch, recycle=True)
            self.fallbacks += 1
            return None
        slab: Optional[ShmSlab] = None
        slab_reused = False
        if shm and space.num_pages:
            with self._lock:
                slab, slab_reused = self._lend_slab(
                    worker, space.num_pages, space.page_size
                )
        vpns, frames = space.nonzero_frames()
        arena: Optional[_Arena] = None
        slots: List[int] = []
        snapshot_inline: Dict[int, bytes] = {}
        published = 0
        if vpns and slab is not None:
            # A response slab means shared memory works for this arm, so
            # its world goes out through the arena too.
            arena, slots, published = self._publish(
                epoch, space.store, frames
            )
        if arena is None:
            for vpn in vpns:
                snapshot_inline[vpn] = space.table.read_page(vpn)
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
            "snapshot_vpns": vpns if slots else (),
            "snapshot_slots": slots,
            "snapshot_inline": snapshot_inline,
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
            return self._fall_back(epoch, slab, recycle=False)
        try:
            if not wire.write_all(worker.ctrl_fd, _LEN.pack(len(blob)) + blob):
                raise BrokenPipeError("pool worker hung up")
        except OSError:
            return self._fall_back(epoch, slab, recycle=True)
        self.leases_granted += 1
        tracer = _active_tracer()
        if tracer.enabled:
            tracer.emit(
                _ev.POOL_LEASE,
                block=getattr(task.context, "trace_block", None),
                arm=task.index,
                name=task.name,
                worker_pid=worker.pid,
                epoch=epoch,
                snapshot_pages=len(vpns),
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
        self, epoch: int, slab: Optional[ShmSlab], recycle: bool
    ) -> None:
        """Undo a lease that could not be sent: settle the worker, then
        -- only then, nothing is left that could write it -- give the
        slab back.  The caller forks the arm instead."""
        self._settle(epoch, recycle)
        if slab is not None:
            slab.dispose()
        self.fallbacks += 1

    @staticmethod
    def _fits(slab: ShmSlab, slots: int, slot_size: int) -> bool:
        """Cut for this page size, with room for the space."""
        return slab.slot_size == slot_size and slab.slots >= slots

    @classmethod
    def _lendable(
        cls, slab: Optional[ShmSlab], slots: int, slot_size: int
    ) -> bool:
        """Whether ``slab`` can go out with a lease as it is: it fits
        and nobody but the pool references it."""
        return (
            slab is not None
            and cls._fits(slab, slots, slot_size)
            and slab.refs == 1
        )

    def _lend_slab(
        self, worker: _Worker, slots: int, slot_size: int
    ) -> Tuple[Optional[ShmSlab], bool]:
        """A handle on ``worker``'s response slab for one lease (lock
        held; the worker is the caller's): ``(handle, reused)``, or
        ``(None, False)`` when shared memory refuses and the arm ships
        over the pipe.

        The worker keeps the slab it has whenever that can go out again.
        Otherwise the slab is set aside -- something still references
        it, and it comes back through the spare set once released -- or,
        cut for another geometry, dropped; the worker then takes the
        first spare that can go out, or a fresh slab sized to the space.
        """
        held = worker.slab
        if held is not None and not self._lendable(held, slots, slot_size):
            if self._fits(held, slots, slot_size):
                self._spares.append(held)
                if len(self._spares) > RESPONSE_SPARE_SLABS:
                    self._spares.pop(0).dispose()
            else:
                held.dispose()
            held = None
        if held is None:
            held = worker.slab = next(
                (
                    spare for spare in self._spares
                    if self._lendable(spare, slots, slot_size)
                ),
                None,
            )
            if held is not None:
                self._spares.remove(held)
        if held is not None:
            self.response_slabs_reused += 1
            return held.lend(slots), True
        try:
            worker.slab = ShmSlab.create(slots, slot_size)
        except Exception:  # /dev/shm full, platform refusal
            return None, False
        self.response_slabs_created += 1
        return worker.slab.lend(slots), False

    def _publish(
        self, epoch: int, store: PageStore, frames: Tuple[int, ...]
    ) -> Tuple[Optional[_Arena], List[int], int]:
        """Make every frame in ``frames`` readable in the live arena.

        Frames the arena already holds cost one index lookup; the rest
        are copied into fresh slots.  An arena the lease does not fit in
        (full, or cut for another page size) is retired and replaced
        first.  Returns the arena, now pinned by the lease, with each
        frame's slot and the number of pages copied -- or
        ``(None, [], 0)`` when no arena can be had, and the caller ships
        inline.
        """
        uid = store.uid
        published = 0
        with self._lock:
            record = self._active.get(epoch)
            if record is None or self._closed:
                return None, [], 0
            arena = self._arena
            if arena is None or arena.slab.slot_size != store.page_size:
                arena = self._replace_arena(store.page_size, frames)
            slots = [] if arena is None else arena.slots_of(uid, frames)
            if None in slots:
                fresh = {
                    frame
                    for frame, slot in zip(frames, slots)
                    if slot is None
                }
                if arena.used + len(fresh) > arena.slab.slots:
                    arena = self._replace_arena(store.page_size, frames)
                    fresh = set(frames)
                if arena is not None:
                    arena.extend(
                        uid, fresh, [store.view(frame) for frame in fresh]
                    )
                    published = len(fresh)
                    slots = arena.slots_of(uid, frames)
            if arena is None:
                return None, [], 0
            arena.pins += 1
            record.arena = arena
            self.pages_published += published
            return arena, slots, published

    def _replace_arena(
        self, page_size: int, frames: Tuple[int, ...]
    ) -> Optional[_Arena]:
        """Retire the live arena, if any, for one sized from the demand
        (lock held); ``None`` when shared memory refuses."""
        retired, self._arena = self._arena, None
        if retired is not None:
            self.arena_rotations += 1
            if not retired.pins:
                retired.slab.dispose()
        try:
            slab = ShmSlab.create(
                max(ARENA_MIN_SLOTS, 2 * len(set(frames))), page_size
            )
        except Exception:  # /dev/shm full, platform refusal
            return None
        self._arena = _Arena(slab)
        return self._arena

    def _close_lease(
        self, ledger: Dict[int, _LeaseRecord], epoch: int
    ) -> Optional[_LeaseRecord]:
        """Pop one entry of ``ledger`` and drop its arena pin, exactly once.

        ``None`` means the epoch was already settled.  Popping under the
        lock makes settlement idempotent and race-free: of any number of
        concurrent callers (two executors finishing, a reclaim sweep, a
        fallback path in ``lease`` itself), exactly one wins the pop and
        touches the worker; the rest do nothing.  The same winner drops
        the lease's pin, and unlinks the arena if it was retired and
        this was its last reader.  A lease in the draining ledger is the
        drainer's to close, nobody else's.
        """
        with self._lock:
            record = ledger.pop(epoch, None)
            if record is None:
                return None
            arena = record.arena
            if arena is not None:
                arena.pins -= 1
                if not arena.pins and arena is not self._arena:
                    arena.slab.dispose()
        return record

    def _settle(self, epoch: int, recycle: bool) -> Optional[int]:
        """Close out one lease; ``None`` if already settled."""
        record = self._close_lease(self._active, epoch)
        if record is None:
            return None
        if recycle:
            return self._replace(record.worker)
        self._park(record.worker)
        return None

    def _park(self, worker: _Worker) -> None:
        """A worker is free again; whoever waits for one may look."""
        with self._moved:
            worker.busy = False
            self._moved.notify_all()

    def cancel(self, lease: Lease, grace: float) -> bool:
        """Issue the termination instruction to a leased arm.

        The word is the instruction, the signal is the bell: the lease's
        epoch goes into its worker's word on the board, then ``SIGTERM``
        makes the worker look.  A worker that has not read the lease yet
        finds the word when it does; one serving a later lease reads an
        epoch that is not its own and carries on.  From now the worker
        has ``grace`` seconds to report before whoever collects it (the
        race, or the pool once the lease is detached) kills it.  False
        when the lease is no longer the race's or its worker is gone.
        """
        with self._lock:
            record = self._active.get(lease.epoch)
            if record is None:
                return False
            record.grace = grace
            record.deadline = time.monotonic() + grace
            worker = record.worker
            _WORD.pack_into(
                self._board, worker.slot * _WORD.size, lease.epoch
            )
            # Under the lock: a worker is reaped only after its lease
            # left the ledger, so this pid is still the lease's.
            try:
                os.kill(worker.pid, signal.SIGTERM)
            except (ProcessLookupError, PermissionError):
                return False
        return True

    def accepts(self, lease: Lease, record: dict) -> bool:
        """Whether ``record`` is the one ``lease`` is owed: it echoes the
        lease's epoch.  Anything else on the pipe is a stale world's
        leftovers, and the worker's stream is poisoned."""
        return record.get("pool_epoch") == lease.epoch

    def count_told_before_start(self) -> None:
        """One more arm found its instruction waiting and never ran;
        called by whoever consumed its record, a race or the drainer."""
        with self._lock:
            self.told_before_start += 1

    def finish(
        self,
        leases: Dict[int, Lease],
        clean: Set[int],
        detached: Collection[int] = (),
    ) -> Dict[int, Optional[int]]:
        """Settle every lease after a race: park, kill-and-respawn, or
        take into the pool's custody.

        ``clean`` holds the arm indexes whose records were fully absorbed
        (the worker's stream is positively known to be drained).
        ``detached`` holds those the race left behind at its commit: told
        to stop (:meth:`cancel`), not heard from, not one byte of their
        record read.  Such a lease moves to the draining ledger -- worker
        busy, arena pinned, :attr:`Lease.slab` now the pool's to dispose
        -- and :meth:`drain` settles it.  Any other leased worker is
        recycled, because bytes may still be in flight on its persistent
        pipe.  Returns wait statuses for workers that died, keyed by arm
        index, for exit-status annotation.

        Resolution goes through the epoch-keyed lease ledger, never
        through pids: a lease whose epoch was already settled (a reclaim
        sweep got there first, or ``finish`` ran twice) is skipped, and a
        respawned worker that inherited a recycled pid can never be
        confused with the lease's original worker.
        """
        self._poll()
        statuses: Dict[int, Optional[int]] = {}
        given_up: List[ShmSlab] = []
        for index, lease in leases.items():
            if index in detached:
                if self._detach(lease):
                    continue
                # Never told, or swept meanwhile: settled the old way,
                # but the handle is no longer the race's to dispose.
                if lease.slab is not None:
                    given_up.append(lease.slab)
            record = self._close_lease(self._active, lease.epoch)
            if record is None:
                continue  # already settled elsewhere: idempotent
            worker = record.worker
            alive = True
            try:
                done, status = os.waitpid(worker.pid, os.WNOHANG)
                if done != 0:
                    alive = False
                    statuses[index] = status
            except ChildProcessError:  # pragma: no cover - reaped elsewhere
                alive = False
                statuses[index] = None
            if not alive:
                for fd in (worker.ctrl_fd, worker.result_fd):
                    try:
                        os.close(fd)
                    except OSError:
                        pass
                with self._lock:
                    if worker in self._workers:
                        self._workers.remove(worker)
                self._respawn(worker)
                continue
            if index in clean:
                self._park(worker)
            else:
                statuses.setdefault(index, self._replace(worker))
        for slab in given_up:
            slab.dispose()
        return statuses

    def _detach(self, lease: Lease) -> bool:
        """Move one told lease to the draining ledger; False (the caller
        settles it the old way) when it was never told or is not the
        race's any more."""
        with self._lock:
            record = self._active.get(lease.epoch)
            if record is None or record.deadline is None:
                return False
            del self._active[lease.epoch]
            record.lease = lease
            record.reader = wire.RecordReader()
            self._draining[lease.epoch] = record
        return True

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Settle every detached lease.

        Blocks until each draining worker has reported or run out its
        deadline, so it returns within the longest ``grace`` a caller
        passed to :meth:`cancel` -- or after ``timeout`` seconds, with
        ``False``, if that comes first.  After a ``True`` every worker
        is parked or leased to a race still running.
        """
        give_up_at = None if timeout is None else time.monotonic() + timeout
        return self._drain_until(self._nothing_draining, give_up_at)

    def _nothing_draining(self) -> bool:
        return not self._draining

    def _someone_parked(self) -> bool:
        """What a lease with nobody parked waits for (pool lock held)."""
        return not self._draining or any(
            not worker.busy for worker in self._workers
        )

    def _poll(self) -> None:
        """Settle whoever has reported already, without waiting; a
        drainer already at work is left to it."""
        if not self._draining:
            return
        with self._lock:
            if self._drainer:
                return
            self._drainer = True
        self._hear_out(0.0)

    def _drain_until(
        self, satisfied, give_up_at: Optional[float] = None
    ) -> bool:
        """Take turns as the drainer until ``satisfied()`` (asked under
        the pool lock) holds; ``False`` if ``give_up_at`` came first.

        The role goes back after every turn, and a caller that finds it
        taken sleeps until it comes back or a worker parks and then asks
        ``satisfied`` before anything else: a lease does not queue
        behind a :meth:`drain` that has the rest of the pool to hear.
        """
        while True:
            with self._moved:
                if satisfied():
                    return True
                patience = None
                if give_up_at is not None:
                    patience = give_up_at - time.monotonic()
                    if patience <= 0:
                        return False
                if self._drainer:
                    self._moved.wait(patience)
                    continue
                self._drainer = True
            self._hear_out(patience)

    def _hear_out(self, patience: Optional[float]) -> None:
        """One turn as the drainer (the role is the caller's already):
        wait for a draining worker to speak -- ``patience`` seconds, and
        until the earliest deadline at most -- settle those that are
        done, hand the role back."""
        try:
            with self._lock:
                pending = list(self._draining.items())
            if not pending:
                return
            soonest = min(record.deadline for _, record in pending)
            wait = max(0.0, soonest - time.monotonic())
            if patience is not None:
                wait = min(wait, patience)
            ready, _, _ = select.select(
                [record.worker.result_fd for _, record in pending],
                [], [], wait,
            )
            for epoch, record in pending:
                recycle = self._hear(record, record.worker.result_fd in ready)
                if recycle is not None:
                    self._settle_drained(epoch, record, recycle)
        finally:
            with self._moved:
                self._drainer = False
                self._moved.notify_all()

    def _hear(self, record: _LeaseRecord, readable: bool) -> Optional[bool]:
        """What to do with one draining worker: ``False`` park it,
        ``True`` recycle it, ``None`` keep waiting.

        It parks on exactly one intact record that echoes its epoch with
        nothing after it.  EOF, a corrupt frame, another epoch, trailing
        bytes, or the deadline: its stream cannot be trusted again.  The
        deadline is for silence, so part of a record moves it: a worker
        whose record is too long for the pipe writes as fast as it is
        read here, and is not late because the pool was slow to ask.
        """
        fd, reader = record.worker.result_fd, record.reader
        if not readable:
            return True if time.monotonic() >= record.deadline else None
        while readable:
            data = os.read(fd, 65536)
            if not data:
                return True
            records = reader.feed(data)
            if reader.corrupt:
                return True
            if records:
                if (
                    len(records) != 1
                    or reader.pending
                    or not self.accepts(record.lease, records[0])
                ):
                    return True
                if records[0].get("told_before_start"):
                    self.count_told_before_start()
                return False
            record.deadline = time.monotonic() + record.grace
            readable = bool(select.select([fd], [], [], 0.0)[0])
        return None

    def _settle_drained(
        self, epoch: int, record: _LeaseRecord, recycle: bool
    ) -> None:
        """Close out one detached lease (the caller is the drainer).

        The handle goes back before the worker can be leased again, and
        only once nothing can write the slab any more: its record is
        read, or its process reaped.
        """
        worker, slab = record.worker, record.lease.slab
        if recycle:
            self._discard(worker)
        self._close_lease(self._draining, epoch)
        if slab is not None:
            slab.dispose()
        if recycle:
            self._respawn(worker)
            self.drained_recycled += 1
        else:
            self._park(worker)
            self.drained_parked += 1

    def reclaim_abandoned(self, older_than: float = 30.0) -> int:
        """Recycle workers whose lease was never settled (caller crash).

        A caller that leased a worker and then died without reaching
        ``finish`` leaves the worker busy forever -- pool exhaustion by
        attrition.  This sweep recycles every lease older than
        ``older_than`` seconds; settlement idempotence (``_settle``)
        makes it safe to race against a late ``finish``.  A detached
        lease is not abandoned: it has a deadline of its own and the
        drainer enforces it.  Returns the number of workers reclaimed.
        """
        self._poll()
        now = time.monotonic()
        with self._lock:
            stale = [
                epoch
                for epoch, record in self._active.items()
                if now - record.granted_at >= older_than
            ]
        reclaimed = 0
        for epoch in stale:
            record = self._close_lease(self._active, epoch)
            if record is None:
                continue  # a late finish won the settlement race
            self._replace(record.worker)
            reclaimed += 1
        return reclaimed

    @property
    def inflight(self) -> int:
        """Leases whose race has not returned."""
        with self._lock:
            return len(self._active)

    @property
    def draining(self) -> int:
        """Detached leases the pool has not settled yet."""
        with self._lock:
            return len(self._draining)

    @property
    def parked(self) -> int:
        """Workers currently free to take a lease."""
        self._poll()
        with self._lock:
            return sum(1 for worker in self._workers if not worker.busy)

    def worker_pids(self) -> List[int]:
        with self._lock:
            return [worker.pid for worker in self._workers]

    def owned_slabs(self) -> List[ShmSlab]:
        """The segments the pool holds a claim on right now: the live
        arena, each worker's response slab, the spares (leak audits).
        One whose ``refs`` reads 1 is referenced by the pool alone."""
        with self._lock:
            slabs = [w.slab for w in self._workers if w.slab is not None]
            slabs += self._spares
            if self._arena is not None:
                slabs.append(self._arena.slab)
        return slabs

    def shutdown(self) -> None:
        """Stop every worker (idempotent; also runs at interpreter exit)."""
        if self._closed:
            return
        self._closed = True
        # Closed first: a worker the drain has to kill is not replaced.
        self.drain()
        with self._lock:
            workers = list(self._workers)
            self._workers = []
            # The live arena, and any retired one an unsettled lease
            # still pins: nobody else is left to unlink them.
            arenas = {record.arena for record in self._active.values()}
            arenas.add(self._arena)
            arenas.discard(None)
            self._arena = None
            self._active.clear()
            slabs, self._spares = self._spares, []
            slabs += [w.slab for w in workers if w.slab is not None]
        for arena in arenas:
            arena.slab.dispose()
        for slab in slabs:
            # The pool's claim only: a slab a live world still pins is
            # unlinked when that world lets go.
            slab.dispose()
        goodbye = pickle.dumps({"kind": "exit"})
        for worker in workers:
            try:
                wire.write_all(worker.ctrl_fd, _LEN.pack(len(goodbye)) + goodbye)
            except OSError:
                pass
        deadline = time.monotonic() + 2.0
        pending = {worker.pid: worker for worker in workers}
        while pending and time.monotonic() < deadline:
            for pid in list(pending):
                try:
                    done, _ = os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    done = pid
                if done != 0:
                    del pending[pid]
            if pending:
                time.sleep(0.01)
        for pid, worker in pending.items():
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            try:
                os.waitpid(pid, 0)
            except (ChildProcessError, InterruptedError):
                pass
        for worker in workers:
            for fd in (worker.ctrl_fd, worker.result_fd):
                try:
                    os.close(fd)
                except OSError:
                    pass

    def __repr__(self) -> str:
        return (
            f"WorldPool(size={self.size}, parked={self.parked}, "
            f"draining={self.draining}, "
            f"leases={self.leases_granted}, respawns={self.respawns}, "
            f"drained_parked={self.drained_parked}, "
            f"drained_recycled={self.drained_recycled}, "
            f"told_before_start={self.told_before_start}, "
            f"published={self.pages_published}, "
            f"rotations={self.arena_rotations}, "
            f"response_slabs_created={self.response_slabs_created}, "
            f"response_slabs_reused={self.response_slabs_reused})"
        )


# ----------------------------------------------------------------------
# worker side (runs in the forked pool process; exits via os._exit only)


class _WorkerWorld:
    """What a pooled worker keeps from one lease to the next.

    The arena mapping, one :class:`PageStore`, and the frame each arena
    slot was adopted as.  Slots are write-once and arena names are never
    reused, so a cached frame stays right for as long as the worker
    stays bound to that arena; binding to another name drops the cached
    frames and the old mapping.  And the mapping of the one response
    slab the pool binds to this worker, replaced only when a lease names
    another.  The worker never unlinks anything.
    """

    def __init__(self) -> None:
        self.store: Optional[PageStore] = None
        self.arena: Optional[ShmSlab] = None
        self.frames: Dict[int, int] = {}
        """Arena slot -> the external frame adopted over it."""

        self.response: Optional[ShmSlab] = None

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
        """Drop the cached frames, then the arena mapping under them."""
        if self.frames:
            self.store.decref_many(dict.fromkeys(self.frames.values(), 1))
            self.frames = {}
        if self.arena is not None:
            self.arena.dispose()
            self.arena = None

    def build_space(self, message: dict) -> AddressSpace:
        """The lease's racing world, with a clean dirty set so shipback
        carries exactly what the body writes.

        Pages the lease names by arena slot are mapped, not copied: one
        batched incref on frames adopted when first shown, every vpn
        checked against the space and every new slot against the arena.
        ``write_page`` copies such a page on first write, as it does for
        any shared frame.
        """
        page_size = message["page_size"]
        if self.store is None or self.store.page_size != page_size:
            self.unbind()
            self.store = PageStore(page_size=page_size)
        store = self.store
        space = AddressSpace(store, message["space_size"])
        try:
            vpns, slots = message["snapshot_vpns"], message["snapshot_slots"]
            if slots:
                name, arena_slots, slot_size = message["arena"]
                if self.arena is None or self.arena.name != name:
                    self.unbind()
                    self.arena = ShmSlab.attach(name, arena_slots, slot_size)
                known = self.frames
                mapped = []
                for slot in slots:
                    frame = known.get(slot)
                    if frame is None:
                        # slot_view refuses a slot outside the arena.
                        frame = known[slot] = store.adopt_external(
                            self.arena.slot_view(slot)
                        )
                    mapped.append(frame)
                space.map_frames(vpns, mapped)
            for vpn, data in message["snapshot_inline"].items():
                space.table.map_page(vpn, data)
        except BaseException:
            space.release()  # the store outlives this lease
            raise
        space.table.clear_dirty()
        return space


class _BellToken(CancellationToken):
    """A pooled arm's token: cancelled by the signal handler of the very
    thread that waits on it.

    A :class:`threading.Event` cannot be: ``set`` takes the lock ``wait``
    holds while it checks in and out, neither is reentrant, and a bell
    that rings in that window deadlocks the worker on itself (about one
    told sleeper in 1 500, each sitting out its deadline).  A flag and a
    self-pipe have no lock: the handler sets the one and writes the
    other, ``wait`` selects on the pipe, and a byte written between its
    look at the flag and its ``select`` is still there to end it.
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
        if not self._cancelled:
            select.select([self._wake_r], [], [], timeout)
        return self._cancelled


def _worker_main(ctrl_fd: int, result_fd: int, board, slot: int) -> None:
    current: dict = {"epoch": 0, "token": None}
    world = _WorkerWorld()
    offset = slot * _WORD.size
    wake = os.pipe()
    for fd in wake:
        os.set_blocking(fd, False)

    def told() -> int:
        """The epoch of the lease this worker was last told to stop."""
        return _WORD.unpack_from(board, offset)[0]

    def on_sigterm(signum, frame):
        # The bell: look at the board.  Only the lease being served is
        # ever cancelled, and only from here.
        token = current["token"]
        if token is not None and told() == current["epoch"]:
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
        try:  # bells of the lease before: a wake-up is for one token
            while os.read(wake[0], 4096):
                pass
        except BlockingIOError:
            pass
        _serve_lease(message, result_fd, current, world, told, wake)


def _serve_lease(
    message: dict, result_fd: int, current: dict, world: _WorkerWorld,
    told, wake: Tuple[int, int],
) -> None:
    """Run one leased arm and ship its record; may never return (faults).

    Epoch and token are published to the signal handler before anything
    else, and the board is read once right after: an instruction issued
    at any moment since the lease was granted is seen by the one or by
    the other.  An arm that finds it already there ships ``cancelled``
    at once -- no world, no body, no slab write -- and says so by
    raising ``Eliminated`` itself: cancelling is the handler's business.
    """
    from repro.core.alternative import AltContext
    from repro.core.backends.process import build_result_record
    from repro.core.sequential import _run_body

    index = message["index"]
    epoch = message["epoch"]
    start = message["start"]
    pre_fault = message["pre_fault"]
    ship_fault = message["ship_fault"]
    tracer = _active_tracer()
    trace_mark = tracer.mark()
    began = time.perf_counter() - start
    abnormal = False
    space = None
    slab: Optional[ShmSlab] = None
    token = _BellToken(*wake)
    current["epoch"] = epoch
    current["token"] = token
    told_before_start = told() == epoch
    try:
        if told_before_start:
            raise Eliminated(
                f"alternative {message['name'] or index + 1} eliminated "
                "before it started: a sibling already synchronized"
            )
        if pre_fault is not None:
            kind, duration, fault_detail = pre_fault
            if kind == "sigkill":
                os.kill(os.getpid(), signal.SIGKILL)
            elif kind == "hang":
                # A wedged world: ignore the cooperative kill, stall, and
                # die -- the parent's escalation (or this exit) ends it.
                signal.signal(signal.SIGTERM, signal.SIG_IGN)
                time.sleep(duration)
                os._exit(wire.EXIT_HANG)
            elif kind == "raise":
                raise FaultInjected(fault_detail)
        space = world.build_space(message)
        if message["slab_name"] is not None:
            slab = world.response_slab(
                message["slab_name"],
                message["slab_slots"],
                message["slab_slot_size"],
            )
        context = AltContext(
            space,
            rng=random.Random(message["rng_seed"]),
            alt_index=index + 1,
            name=message["name"],
            process=None,
            token=token,
        )
        context.trace_block = message["trace_block"]
        succeeded, value, detail = _run_body(message["alternative"], context)
        cancelled = False
    except Eliminated as exc:
        succeeded, value, detail, cancelled = False, None, str(exc), True
    except BaseException as exc:
        succeeded, value, detail, cancelled = False, None, repr(exc), False
        abnormal = True
    finally:
        current["token"] = None
    finished = time.perf_counter() - start
    record = build_result_record(
        index, space, succeeded, value, detail, cancelled, abnormal,
        began, finished, slab=slab,
    )
    record["pool_epoch"] = epoch
    if told_before_start:
        record["told_before_start"] = True
    if tracer.enabled:
        record["trace"] = tracer.events_since(trace_mark)
    try:
        exit_code = wire.write_record(result_fd, record, ship_fault)
    except BaseException:
        os._exit(wire.EXIT_SHIP_FAILED)
    if ship_fault is not None or exit_code == wire.EXIT_TRUNCATED:
        # A ship fault leaves this worker's persistent stream unusable
        # (dangling or mangled bytes): die like a forked child would and
        # let the pool respawn a clean replacement.
        os._exit(exit_code)
    if slab is not None:
        slab.dispose()
    if space is not None:
        space.release()


# ----------------------------------------------------------------------
# the process-wide default pool (the REPRO_WORLD_POOL=1 path)

_default_pool: Optional[WorldPool] = None
_default_lock = threading.Lock()


def default_pool(size: int = DEFAULT_POOL_SIZE) -> WorldPool:
    """The lazily created process-wide pool (one per interpreter)."""
    global _default_pool
    with _default_lock:
        if _default_pool is None or _default_pool._closed:
            _default_pool = WorldPool(size)
        return _default_pool


def shutdown_default_pool() -> None:
    """Tear down the process-wide pool (tests call this to leave no
    children behind)."""
    global _default_pool
    with _default_lock:
        pool, _default_pool = _default_pool, None
    if pool is not None:
        pool.shutdown()
