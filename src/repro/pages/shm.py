"""Shared-memory page slabs: the zero-copy shipback fabric.

The fork-based execution backend historically shipped a winning child's
dirty pages back to the parent as pickled ``bytes`` over a pipe -- one
copy into the pickle, one copy off the pipe, one copy into a fresh frame.
A :class:`ShmSlab` removes all three: the parent allocates one
page-aligned slab of POSIX shared memory per forked arm (the world pool,
one per worker, kept and lent to each lease), the child writes its dirty
page images straight into slab slots (the mapping is inherited through
``os.fork``; pre-warmed pool workers attach by name, once), and the
pipe record shrinks to ``(page_no, slot)`` pairs.
Winner commit in the parent is then a *pointer swap*: each shipped slot
is adopted into the :class:`~repro.pages.store.PageStore` as an external
frame (see ``PageStore.adopt_external``) and the parent's page-table
entry is repointed at it -- the paper's 'swap page pointers' commit, with
zero page-image copies end to end.

Lifetime is reference-counted and crash-hardened:

- a slab starts with one creation reference; every adopted frame holds
  one more, released when the frame's refcount drains;
- :meth:`ShmSlab.dispose` drops the creation reference, so the segment
  is unlinked as soon as the last adopted frame lets go;
- a slab that is to outlive one race (the world pool's response slabs)
  is *lent*: :meth:`ShmSlab.lend` hands out a fresh handle on the same
  mapping that holds one reference on its lender, and what the handle's
  last release does is give that reference back -- the lender's owner,
  not the borrower, decides when the segment goes;
- every slab created by this process is tracked in a module registry and
  unlinked by an ``atexit`` hook, so a parent that dies between create
  and dispose leaks nothing;
- slab names carry a recognizable prefix (:data:`SLAB_PREFIX`) plus the
  creating pid, so tests (and :func:`orphaned_segments`) can audit
  ``/dev/shm`` for leaks after SIGKILL storms.

When ``shared_memory`` is unavailable (or creation fails at runtime) the
backends fall back to the pipe-pickle path transparently; nothing in
this module is required for correctness, only for speed.
"""

from __future__ import annotations

import atexit
import mmap
import os
import threading
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

try:  # pragma: no cover - exercised through shm_available()
    import _posixshmem
except ImportError:  # pragma: no cover - non-POSIX builds
    _posixshmem = None  # type: ignore[assignment]

try:  # pragma: no cover - exercised through shm_available()
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - minimal builds
    _shared_memory = None  # type: ignore[assignment]

SLAB_PREFIX = "repro_pf"
"""Leading component of every slab name this process creates."""

_registry_lock = threading.Lock()
_live_slabs: dict = {}
"""name -> ShmSlab for every *owned* (created-here) slab not yet unlinked."""

_name_counter = 0
_available: Optional[bool] = None


class _Segment:
    """One named POSIX shared-memory mapping, without the resource tracker.

    ``multiprocessing.shared_memory.SharedMemory`` would do the mapping,
    but it drags in the ``resource_tracker`` helper *process* -- which
    breaks the backend's no-stray-children guarantees (the hardening
    tests reap with ``waitpid(-1)``) and double-unlinks segments whose
    lifetime our refcounts govern.  So we go one layer down to the same
    primitives it uses: ``_posixshmem.shm_open`` plus ``mmap``.  Where
    ``_posixshmem`` is missing we fall back to ``SharedMemory`` with its
    tracker registration surgically balanced.
    """

    __slots__ = ("name", "size", "buf", "_mmap", "_shm")

    def __init__(self, name: str, size: int, create: bool) -> None:
        self.name = name
        if _posixshmem is not None:
            flags = os.O_RDWR | (os.O_CREAT | os.O_EXCL if create else 0)
            fd = _posixshmem.shm_open("/" + name, flags, mode=0o600)
            try:
                if create:
                    os.ftruncate(fd, size)
                else:
                    size = os.fstat(fd).st_size
                self._mmap = mmap.mmap(fd, size)
            except BaseException:
                os.close(fd)
                if create:
                    _posixshmem.shm_unlink("/" + name)
                raise
            os.close(fd)
            self.buf = memoryview(self._mmap)
            self._shm = None
        elif _shared_memory is not None:  # pragma: no cover - fallback path
            shm = _shared_memory.SharedMemory(
                name=name, create=create, size=size if create else 0
            )
            _tracker_unregister(name)
            size = shm.size
            self._mmap = None
            self._shm = shm
            self.buf = shm.buf
        else:  # pragma: no cover - minimal builds
            raise RuntimeError("POSIX shared memory is unavailable")
        self.size = size

    def close(self) -> None:
        """Drop this process's mapping (the segment itself survives)."""
        if self._shm is not None:  # pragma: no cover - fallback path
            self._shm.close()
            return
        self.buf.release()
        self._mmap.close()

    def unlink(self) -> None:
        """Remove the segment's name; memory dies with the last mapping."""
        if self._shm is not None:  # pragma: no cover - fallback path
            _tracker_register(self.name)
            self._shm.unlink()
            return
        _posixshmem.shm_unlink("/" + self.name)


def _tracker_unregister(name: str) -> None:  # pragma: no cover - fallback
    """Best-effort detach from multiprocessing's resource tracker, which
    would otherwise unlink fork-inherited slabs when the first process
    that touched them exits."""
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister("/" + name, "shared_memory")
    except Exception:
        pass


def _tracker_register(name: str) -> None:  # pragma: no cover - fallback
    """Re-balance the tracker before ``SharedMemory.unlink`` (which
    unregisters internally) so the tracker never logs a spurious miss."""
    try:
        from multiprocessing import resource_tracker

        resource_tracker.register("/" + name, "shared_memory")
    except Exception:
        pass


def shm_available() -> bool:
    """True when POSIX shared memory actually works on this host.

    Probed once per process by creating (and immediately unlinking) a
    one-byte segment: import success alone does not prove ``/dev/shm``
    is mounted and writable.
    """
    global _available
    if _available is None:
        try:
            probe = _Segment(_next_name(), 1, create=True)
            probe.close()
            probe.unlink()
            _available = True
        except Exception:
            _available = False
    return _available


def _next_name() -> str:
    global _name_counter
    with _registry_lock:
        _name_counter += 1
        return f"{SLAB_PREFIX}_{os.getpid()}_{_name_counter}"


class ShmSlab:
    """A page-aligned array of ``slots`` page images in shared memory.

    Slots are written by at most one process (the racing child) and read
    or adopted by exactly one other (the parent); there is no concurrent
    write sharing, so no locking is needed on the data itself.  The
    refcount *is* shared-state in the parent and guarded by a lock.
    """

    def __init__(
        self,
        shm,
        slots: int,
        slot_size: int,
        owner: bool,
        lender: Optional["ShmSlab"] = None,
    ) -> None:
        self._shm = shm
        self.slots = slots
        self.slot_size = slot_size
        self.owner = owner
        self._lender = lender
        """The slab whose mapping this handle borrows (see :meth:`lend`)."""

        self._lock = threading.Lock()
        self._refs = 1  # the creation (or attach) reference
        self._disposed = False
        self._closed = False

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def create(cls, slots: int, slot_size: int) -> "ShmSlab":
        """Allocate a fresh slab of ``slots * slot_size`` bytes.

        Raises whatever the platform raises when shared memory is broken;
        callers probe :func:`shm_available` first and fall back to the
        pipe path on any failure.
        """
        if slots < 1 or slot_size < 1:
            raise ValueError("slab needs at least one slot of at least one byte")
        while True:
            name = _next_name()
            try:
                shm = _Segment(name, slots * slot_size, create=True)
                break
            except FileExistsError:  # pragma: no cover - pid reuse relic
                continue
        slab = cls(shm, slots, slot_size, owner=True)
        with _registry_lock:
            _live_slabs[slab.name] = slab
        return slab

    @classmethod
    def attach(cls, name: str, slots: int, slot_size: int) -> "ShmSlab":
        """Map an existing slab by name (the pool worker's entry point)."""
        shm = _Segment(name, 0, create=False)
        if shm.size < slots * slot_size:
            shm.close()
            raise ValueError(
                f"slab {name!r} is {shm.size} bytes; "
                f"expected at least {slots * slot_size}"
            )
        return cls(shm, slots, slot_size, owner=False)

    def lend(self, slots: int) -> "ShmSlab":
        """A fresh handle presenting the first ``slots`` slots of this
        slab's mapping, for one use of a slab that outlives it.

        The handle has this slab's name and its own reference count: it
        is retained, released and disposed like any slab, and holds one
        reference on this one until its own count drains.  It unmaps
        and unlinks nothing.  So ``refs`` of a lender reads one above
        its owner's own claim for as long as anybody -- the borrower, a
        frame adopted through the handle -- can still reach the mapping,
        and a late ``dispose`` through a drained handle cannot touch a
        later loan.  ``slots`` may be anything the mapping has room for;
        whoever holds the handle is bound by it, not by the capacity
        behind it.
        """
        if slots < 1 or slots * self.slot_size > self._shm.size:
            raise ValueError(
                f"cannot lend {slots} slots of {self.slot_size} bytes from "
                f"a {self._shm.size}-byte slab"
            )
        self.retain()
        return ShmSlab(
            self._shm, slots, self.slot_size, owner=False, lender=self
        )

    # ------------------------------------------------------------------
    # data access

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def size(self) -> int:
        return self.slots * self.slot_size

    def _range(self, slot: int) -> Tuple[int, int]:
        if not 0 <= slot < self.slots:
            raise IndexError(f"slot {slot} outside slab of {self.slots} slots")
        start = slot * self.slot_size
        return start, start + self.slot_size

    def write_slot(self, slot: int, data) -> None:
        """Copy one page image into ``slot`` (child side; any buffer)."""
        start, end = self._range(slot)
        if len(data) != self.slot_size:
            raise ValueError(
                f"slot write of {len(data)} bytes; expected {self.slot_size}"
            )
        self._shm.buf[start:end] = data

    def write_slots(self, first_slot: int, buffers) -> None:
        """Copy ``buffers[i]`` into slot ``first_slot + i``.

        The batched form of :meth:`write_slot` for a whole shipment (or
        an arena publish): the run of slots and every buffer's length
        are checked once, before the first byte moves, and the copies
        run in one loop over one view.
        """
        size = self.slot_size
        if first_slot < 0 or first_slot + len(buffers) > self.slots:
            raise IndexError(
                f"slots {first_slot}..{first_slot + len(buffers) - 1} "
                f"outside slab of {self.slots} slots"
            )
        for data in buffers:
            if len(data) != size:
                raise ValueError(
                    f"slot write of {len(data)} bytes; expected {size}"
                )
        buf = self._shm.buf
        start = first_slot * size
        for data in buffers:
            end = start + size
            buf[start:end] = data
            start = end

    def slot_view(self, slot: int) -> memoryview:
        """A read-only zero-copy view of one slot's page image."""
        start, end = self._range(slot)
        return self._shm.buf[start:end].toreadonly()

    def read_slot(self, slot: int) -> bytes:
        """One slot's page image as immutable ``bytes`` (copies)."""
        start, end = self._range(slot)
        return bytes(self._shm.buf[start:end])

    # ------------------------------------------------------------------
    # lifetime

    def retain(self, count: int = 1) -> None:
        """Take ``count`` references (adopted frames now point into the
        slab); one lock acquisition regardless of the batch size."""
        if count < 1:
            raise ValueError("must retain at least one reference")
        with self._lock:
            if self._closed:
                raise RuntimeError(f"slab {self.name!r} is already closed")
            self._refs += count

    def release(self) -> None:
        """Drop one reference; close (and unlink, when owner) at zero."""
        self.release_many(1)

    def release_many(self, count: int) -> None:
        """Drop ``count`` references under one lock acquisition."""
        with self._lock:
            self._refs -= count
            if self._refs > 0:
                return
            if self._closed:
                return
            self._closed = True
        self._destroy()

    def dispose(self) -> None:
        """Drop the creation reference (idempotent).

        After this, the slab lives exactly as long as frames adopted from
        it; with none outstanding it is unlinked immediately.
        """
        with self._lock:
            if self._disposed:
                return
            self._disposed = True
        self.release()

    def _destroy(self) -> None:
        if self._lender is not None:
            # A borrowed mapping: hand the reference back and leave the
            # segment to its owner.
            self._lender.release()
            return
        name = self.name
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - a view still exported
            # Leave the mapping; the unlink below still reclaims the name
            # and the OS reclaims memory when the last mapping dies.
            pass
        if self.owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            with _registry_lock:
                _live_slabs.pop(name, None)

    @property
    def refs(self) -> int:
        with self._lock:
            return self._refs

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def __repr__(self) -> str:
        return (
            f"ShmSlab({self.name!r}, slots={self.slots}, "
            f"slot_size={self.slot_size}, refs={self.refs})"
        )


@dataclass
class ShmShipment:
    """A winning arm's dirty pages, shipped as slab slot pointers.

    ``pairs`` maps virtual page numbers to slab slots; the page images
    themselves never leave shared memory.  The shipment owns one slab
    reference per *application attempt*: ``AddressSpace.apply_shm_pages``
    retains per adopted frame, and the backend disposes the slab once the
    race (and any commit) is over.
    """

    slab: ShmSlab
    pairs: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def pages(self) -> int:
        return len(self.pairs)


def live_slab_count() -> int:
    """Owned slabs not yet unlinked (diagnostics and leak tests)."""
    with _registry_lock:
        return len(_live_slabs)


def cleanup_all_slabs() -> int:
    """Unlink every owned slab still live; returns how many were reclaimed.

    Registered at ``atexit``; also callable from tests.  Forked children
    exit through ``os._exit`` and never run this, which is exactly right:
    only the creating process may unlink a slab.
    """
    with _registry_lock:
        leaked = list(_live_slabs.values())
    for slab in leaked:
        slab._destroy()
    with _registry_lock:
        _live_slabs.clear()
    return len(leaked)


def orphaned_segments(prefix: str = SLAB_PREFIX) -> List[str]:
    """Names of ``/dev/shm`` segments carrying our prefix (leak audit).

    Returns ``[]`` on hosts without a ``/dev/shm`` to audit.
    """
    try:
        entries = os.listdir("/dev/shm")
    except OSError:  # pragma: no cover - non-Linux host
        return []
    return sorted(entry for entry in entries if entry.startswith(prefix))


atexit.register(cleanup_all_slabs)
