"""Copy-on-write page tables.

A :class:`PageTable` maps virtual page numbers to frames in a shared
:class:`~repro.pages.store.PageStore`.  ``fork()`` duplicates the map and
bumps every frame's reference count -- the cheap operation whose measured
cost (31 ms on the 3B2, 12 ms on the HP) section 4.4 of the paper reports.
A write to a shared frame triggers a copy fault: the frame is duplicated
and the writer's entry is repointed at the private copy.

The table tracks ``cow_faults`` (copies actually performed) and
``pages_written`` (distinct pages dirtied since the last fork/commit),
because 'the fraction of the pages in the address space which are written
is the important independent variable' for the overhead model.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterator

from repro.errors import PageFault
from repro.pages.page import patch_page
from repro.pages.store import PageStore

_TEST_MUTATIONS: set = set()
"""Names of deliberately re-introduced bugs, armed only by the model
checker's mutation harness (:mod:`repro.check.mutations`).  Empty in any
production configuration."""


class PageTable:
    """A virtual-to-physical page map with COW semantics."""

    def __init__(self, store: PageStore) -> None:
        self.store = store
        self._entries: Dict[int, int] = {}
        self._dirty: set[int] = set()
        self.cow_faults = 0
        """Copy faults serviced since construction (monotone)."""

    # ------------------------------------------------------------------
    # mapping management

    def map_page(self, vpn: int, data: bytes = b"") -> None:
        """Map virtual page ``vpn`` to a fresh frame holding ``data``.

        The new frame is allocated *before* the old frame's reference is
        dropped: decref-first could reclaim the old frame and let an
        id-recycling allocator hand the same id straight back, an ABA
        hazard for anyone holding the old frame id across the remap.
        """
        if vpn < 0:
            raise ValueError("virtual page numbers are non-negative")
        old_frame = self._entries.get(vpn)
        self._entries[vpn] = self.store.allocate(data)
        if old_frame is not None:
            self.store.decref(old_frame)
        self._dirty.add(vpn)

    def unmap_page(self, vpn: int) -> None:
        """Remove the mapping for ``vpn`` and release its frame."""
        frame = self._entries.pop(vpn, None)
        if frame is None:
            raise PageFault(f"page {vpn} is not mapped")
        self.store.decref(frame)
        self._dirty.discard(vpn)

    def is_mapped(self, vpn: int) -> bool:
        """True when ``vpn`` has a frame."""
        return vpn in self._entries

    def frame_of(self, vpn: int) -> int:
        """The frame id backing ``vpn`` (raises :class:`PageFault`)."""
        try:
            return self._entries[vpn]
        except KeyError:
            raise PageFault(f"page {vpn} is not mapped") from None

    def items(self):
        """A live view of ``(vpn, frame id)`` for every mapped page."""
        return self._entries.items()

    def mapped_pages(self) -> Iterator[int]:
        """Iterate mapped virtual page numbers in ascending order."""
        return iter(sorted(self._entries))

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # reads and writes

    def read_page(self, vpn: int) -> bytes:
        """The contents of virtual page ``vpn`` as immutable ``bytes``.

        Frames adopted from shared-memory slabs serve reads through an
        external buffer; this accessor materializes them so callers can
        pickle or slice the result freely.  Use :meth:`read_page_view`
        for the zero-copy path.
        """
        data = self.store.read(self.frame_of(vpn))
        return data if isinstance(data, bytes) else bytes(data)

    def read_page_view(self, vpn: int) -> memoryview:
        """A zero-copy ``memoryview`` of virtual page ``vpn``.

        Valid for as long as this table keeps its reference on the
        backing frame (frames are immutable, so concurrent readers are
        safe by construction).
        """
        return self.store.view(self.frame_of(vpn))

    def write_page(self, vpn: int, data: bytes, offset: int = 0) -> None:
        """Write ``data`` into page ``vpn`` at ``offset``, copying on demand.

        If the backing frame is shared with another table, a COW fault is
        serviced first: the frame contents are copied into a private frame.

        A write whose bytes match the page's current contents is a no-op:
        no fault is serviced, no frame is allocated, and the page is not
        marked dirty.  (A page rewritten with its prior contents used to
        ship as dirty anyway -- a spurious copy at fork *and* a spurious
        page in every shipback.)  The comparison is a single buffer
        compare against the live frame view, so the skip costs less than
        the allocation it avoids.
        """
        frame = self.frame_of(vpn)
        old = self.store.read(frame)
        if offset < 0 or offset + len(data) > len(old):
            raise ValueError(
                f"write of {len(data)} bytes at offset {offset} "
                f"does not fit in a {len(old)}-byte page"
            )
        if old[offset:offset + len(data)] == data:
            return
        if not isinstance(old, bytes):
            old = bytes(old)
        new = patch_page(old, offset, data)
        if self.store.is_shared(frame):
            self.cow_faults += 1
        self._entries[vpn] = self.store.allocate(new)
        self.store.decref(frame)
        self._dirty.add(vpn)

    def set_frame(self, vpn: int, frame_id: int) -> None:
        """Point ``vpn`` at ``frame_id``, consuming one reference on it.

        This is the zero-copy commit primitive: the shared-memory
        shipback path adopts a slab slot as a frame and swaps the page's
        pointer here instead of copying bytes through :meth:`write_page`.
        The page is marked dirty (the new frame's contents are the
        child's, by construction different from what the parent held).
        """
        if vpn < 0:
            raise ValueError("virtual page numbers are non-negative")
        old_frame = self._entries.get(vpn)
        self._entries[vpn] = frame_id
        if old_frame is not None:
            self.store.decref(old_frame)
        self._dirty.add(vpn)

    def set_frames(self, assignments) -> None:
        """Batched :meth:`set_frame`: swap many page pointers at once.

        ``assignments`` is an iterable of ``(vpn, frame_id)``.  Old
        frames are released in one store pass, so an N-page commit pays
        one lock acquisition instead of N -- the difference between the
        pointer-swap commit scaling with page count and scaling with
        lock traffic.
        """
        entries = self._entries
        dirty = self._dirty
        released = []
        for vpn, frame_id in assignments:
            if vpn < 0:
                raise ValueError("virtual page numbers are non-negative")
            old_frame = entries.get(vpn)
            entries[vpn] = frame_id
            if old_frame is not None:
                released.append(old_frame)
            dirty.add(vpn)
        if released:
            self.store.decref_many(Counter(released))

    # ------------------------------------------------------------------
    # fork / dirty accounting

    def fork(self) -> "PageTable":
        """A child table sharing every frame with this one (COW).

        This is 'page map inheritance from the parent' -- O(mapped pages)
        bookkeeping, no data copies, and one store-lock acquisition: the
        references are taken per *distinct* frame, not per page.
        """
        child = PageTable(self.store)
        child._entries = dict(self._entries)
        if child._entries:
            self.store.incref_many(Counter(child._entries.values()))
        return child

    def clear_dirty(self) -> None:
        """Reset the pages-written counter (called at fork and commit)."""
        self._dirty = set()

    @property
    def pages_written(self) -> int:
        """Distinct pages dirtied since the last :meth:`clear_dirty`."""
        return len(self._dirty)

    @property
    def dirty_pages(self) -> set:
        """The set of dirtied virtual page numbers."""
        return set(self._dirty)

    def private_pages(self) -> int:
        """Pages whose frames are not shared with any other table."""
        return sum(
            1 for frame in self._entries.values() if not self.store.is_shared(frame)
        )

    def shared_pages(self) -> int:
        """Pages whose frames are shared with at least one other table."""
        return len(self._entries) - self.private_pages()

    # ------------------------------------------------------------------
    # lifecycle

    def release(self) -> None:
        """Drop every frame reference (process exit or elimination)."""
        if self._entries:
            self.store.decref_many(Counter(self._entries.values()))
        self._entries = {}
        self._dirty = set()

    def adopt(self, other: "PageTable") -> None:
        """Atomically replace this table's map with ``other``'s.

        This is the synchronization step of ``alt_wait``: 'the parent
        process absorbs the state changes made by its child by atomically
        replacing its page pointer with that of the child'.  ``other`` is
        consumed (left empty).

        Dirty accounting is the *union* of both tables' dirty sets: pages
        this table dirtied before the adoption are still dirty afterwards
        (a nested block's commit must not launder the outer arm's earlier
        writes out of its shipback set).
        """
        if other.store is not self.store:
            raise ValueError("cannot adopt a table from a different store")
        if self._entries:
            self.store.decref_many(Counter(self._entries.values()))
        self._entries = other._entries
        if "adopt-replace-dirty" in _TEST_MUTATIONS:
            # Test-only regression seed: the pre-fix behaviour that
            # *replaced* the dirty set, laundering the outer arm's earlier
            # writes out of its shipback set.  Enabled solely by the model
            # checker's mutation harness to prove it detects this bug.
            self._dirty = set(other._dirty)
        else:
            self._dirty = self._dirty | other._dirty
        other._entries = {}
        other._dirty = set()

    def ensure_zero_filled(self, vpns: range) -> None:
        """Map any unmapped page in ``vpns`` to a shared zero frame.

        Used to build address spaces of a given size without allocating a
        private frame per page up front.  The references are acquired in
        one batch on the store's canonical zero frame, so fresh spaces on
        the same store share a single zero frame between them instead of
        allocating one per space.
        """
        missing = [vpn for vpn in vpns if vpn not in self._entries]
        if not missing:
            return
        zero = self.store.acquire_zero_frame(count=len(missing))
        for vpn in missing:
            self._entries[vpn] = zero
