"""Copy-on-write page tables.

A :class:`PageTable` maps virtual page numbers to frames in a shared
:class:`~repro.pages.store.PageStore`.  ``fork()`` duplicates the map and
bumps every frame's reference count -- the cheap operation whose measured
cost (31 ms on the 3B2, 12 ms on the HP) section 4.4 of the paper reports.
A write to a shared frame triggers a copy fault: the frame is duplicated
and the writer's entry is repointed at the private copy.

A table holds explicit entries only for the pages it has mapped to
something.  The pages :meth:`PageTable.ensure_zero_filled` covers form an
*extent*, and a page inside it with no entry reads as the store's shared
zero frame, on which the table holds **one** reference however many such
pages it spans.  So fork, release and adopt cost O(pages the table
holds), not O(pages it spans): a 4 MiB space of which 256 pages were ever
written forks as 256 entries plus one reference.  Everything a caller
can observe -- :meth:`~PageTable.frame_of`, ``len``,
:meth:`~PageTable.mapped_pages`, sharing, COW faults -- still describes
every page, exactly as if each never-written page held its own
reference on the zero frame.

The table tracks ``cow_faults`` (copies actually performed) and
``pages_written`` (distinct pages dirtied since the last fork/commit),
because 'the fraction of the pages in the address space which are written
is the important independent variable' for the overhead model.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterator, Mapping, Optional

from repro.errors import PageFault
from repro.pages.page import patch_page
from repro.pages.store import PageStore

_TEST_MUTATIONS: set = set()
"""Names of deliberately re-introduced bugs, armed only by the model
checker's mutation tests (``tests/check/mutations.py``).  Empty in any
production configuration."""


class PageTable:
    """A virtual-to-physical page map with COW semantics."""

    def __init__(self, store: PageStore) -> None:
        self.store = store
        self._entries: Dict[int, int] = {}
        """Explicit entries: every page mapped to a frame of its own
        choosing (possibly shared), never a page of the extent that was
        only zero-filled."""

        self._extent = 0
        """Pages ``[0, extent)`` are zero-filled unless explicit or holes."""

        self._holes: set = set()
        """Pages inside the extent unmapped since it was recorded."""

        self._implicit = 0
        """Pages inside the extent with no entry and not a hole."""

        self._zero: Optional[int] = None
        """The zero frame this table holds one reference on -- held
        exactly while :attr:`_implicit` is non-zero."""

        self._dirty: set[int] = set()
        self.cow_faults = 0
        """Copy faults serviced since construction (monotone)."""

    # ------------------------------------------------------------------
    # the extent

    def _is_implicit(self, vpn: int) -> bool:
        """True when ``vpn`` reads as the zero frame without an entry."""
        return (
            0 <= vpn < self._extent
            and vpn not in self._entries
            and vpn not in self._holes
        )

    def _claim(self, vpn: int) -> bool:
        """Note that ``vpn``, not explicit, is about to get an entry.

        A hole just stops being one.  Returns True when ``vpn`` was an
        implicit page, whose share of the zero reference the caller
        gives back with :meth:`_release_implicit` -- after it has
        allocated whatever replaces it, never before.
        """
        if vpn in self._holes:
            self._holes.discard(vpn)
            return False
        return 0 <= vpn < self._extent

    def _release_implicit(self, count: int) -> Optional[int]:
        """``count`` implicit pages became explicit or holes.  Returns
        the zero frame when the table's reference on it is now the
        caller's to drop (the last implicit page went), else ``None``."""
        self._implicit -= count
        if self._implicit:
            return None
        zero, self._zero = self._zero, None
        return zero

    def _trim(self) -> None:
        """Shrink the extent past trailing holes (what a truncate leaves)."""
        holes = self._holes
        while self._extent and self._extent - 1 in holes:
            self._extent -= 1
            holes.discard(self._extent)

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
        implicit = old_frame is None and self._claim(vpn)
        self._entries[vpn] = self.store.allocate(data)
        if implicit:
            old_frame = self._release_implicit(1)
        if old_frame is not None:
            self.store.decref(old_frame)
        self._dirty.add(vpn)

    def unmap_page(self, vpn: int) -> None:
        """Remove the mapping for ``vpn`` and release its frame."""
        frame = self._entries.pop(vpn, None)
        if frame is None:
            if not self._is_implicit(vpn):
                raise PageFault(f"page {vpn} is not mapped")
            frame = self._release_implicit(1)
        if vpn < self._extent:
            self._holes.add(vpn)
            self._trim()
        if frame is not None:
            self.store.decref(frame)
        self._dirty.discard(vpn)

    def is_mapped(self, vpn: int) -> bool:
        """True when ``vpn`` has a frame."""
        return vpn in self._entries or self._is_implicit(vpn)

    def frame_of(self, vpn: int) -> int:
        """The frame id backing ``vpn`` (raises :class:`PageFault`)."""
        frame = self._entries.get(vpn)
        if frame is not None:
            return frame
        if 0 <= vpn < self._extent and vpn not in self._holes:
            return self._zero
        raise PageFault(f"page {vpn} is not mapped")

    @property
    def explicit(self) -> Mapping[int, int]:
        """A live, read-only view of the explicit entries: ``vpn ->
        frame id`` for every page mapped to something other than the
        extent's implicit zero frame.  What a snapshot of the table has
        to show; the extent it can zero-fill for itself."""
        return self._entries

    def items(self) -> Iterator:
        """``(vpn, frame id)`` for every mapped page, implicit ones too."""
        yield from self._entries.items()
        if self._implicit:
            zero = self._zero
            for vpn in range(self._extent):
                if self._is_implicit(vpn):
                    yield vpn, zero

    def mapped_pages(self) -> Iterator[int]:
        """Iterate mapped virtual page numbers in ascending order."""
        return iter(sorted(vpn for vpn, _ in self.items()))

    def __len__(self) -> int:
        return len(self._entries) + self._implicit

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
        An implicit page counts as shared exactly when the zero frame
        would be if every implicit page held its own reference: when
        this table has another implicit page, or anything else holds
        the zero frame.

        A write whose bytes match the page's current contents is a no-op:
        no fault is serviced, no frame is allocated, and the page is not
        marked dirty.  (A page rewritten with its prior contents used to
        ship as dirty anyway -- a spurious copy at fork *and* a spurious
        page in every shipback.)  The comparison is a single buffer
        compare against the live frame view, so the skip costs less than
        the allocation it avoids.
        """
        frame = self._entries.get(vpn)
        implicit = frame is None
        if implicit:
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
        if self.store.is_shared(frame) or (implicit and self._implicit > 1):
            self.cow_faults += 1
        self._entries[vpn] = self.store.allocate(new)
        if implicit:
            frame = self._release_implicit(1)
        if frame is not None:
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
        self.set_frames(((vpn, frame_id),))

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
        holes = self._holes
        extent = self._extent
        released = []
        implicit = 0
        for vpn, frame_id in assignments:
            if vpn < 0:
                raise ValueError("virtual page numbers are non-negative")
            old_frame = entries.get(vpn)
            if old_frame is not None:
                released.append(old_frame)
            elif vpn in holes:  # _claim, inlined for the batch
                holes.discard(vpn)
            elif vpn < extent:
                implicit += 1
            entries[vpn] = frame_id
            dirty.add(vpn)
        if implicit:
            zero = self._release_implicit(implicit)
            if zero is not None:
                released.append(zero)
        if released:
            self.store.decref_many(Counter(released))

    # ------------------------------------------------------------------
    # fork / dirty accounting

    def _references(self) -> Counter:
        """The references this table holds, by frame: one per explicit
        entry, plus one on the zero frame while the extent has a page."""
        held = Counter(self._entries.values())
        if self._zero is not None:
            held[self._zero] += 1
        return held

    def fork(self) -> "PageTable":
        """A child table sharing every frame with this one (COW).

        This is 'page map inheritance from the parent' -- O(explicit
        pages) bookkeeping plus one reference on the zero frame, no data
        copies, and one store-lock acquisition: the references are taken
        per *distinct* frame, not per page.
        """
        child = PageTable(self.store)
        child._entries = dict(self._entries)
        child._extent = self._extent
        child._holes = set(self._holes)
        child._implicit = self._implicit
        child._zero = self._zero
        held = self._references()
        if held:
            self.store.incref_many(held)
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
        is_shared = self.store.is_shared
        private = sum(
            1 for frame in self._entries.values() if not is_shared(frame)
        )
        if self._implicit == 1 and not is_shared(self._zero):
            private += 1
        return private

    def shared_pages(self) -> int:
        """Pages whose frames are shared with at least one other table."""
        return len(self) - self.private_pages()

    # ------------------------------------------------------------------
    # lifecycle

    def _drop(self) -> None:
        """Give back every reference and forget the map (dirty set kept)."""
        held = self._references()
        self._entries = {}
        self._extent = self._implicit = 0
        self._holes = set()
        self._zero = None
        if held:
            self.store.decref_many(held)

    def release(self) -> None:
        """Drop every frame reference (process exit or elimination)."""
        self._drop()
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
        self._drop()
        self._entries = other._entries
        self._extent = other._extent
        self._holes = other._holes
        self._implicit = other._implicit
        self._zero = other._zero
        if "adopt-replace-dirty" in _TEST_MUTATIONS:
            # Test-only regression seed: the pre-fix behaviour that
            # *replaced* the dirty set, laundering the outer arm's earlier
            # writes out of its shipback set.  Enabled solely by the model
            # checker's mutation harness to prove it detects this bug.
            self._dirty = set(other._dirty)
        else:
            self._dirty = self._dirty | other._dirty
        other._entries = {}
        other._extent = other._implicit = 0
        other._holes = set()
        other._zero = None
        other._dirty = set()

    def ensure_zero_filled(self, vpns: range) -> None:
        """Map any unmapped page in ``vpns`` to the shared zero frame.

        Used to build address spaces of a given size without allocating a
        private frame per page up front.  The pages join the table's
        extent, which holds one reference on the store's canonical zero
        frame however many pages it covers, so building a space of any
        size costs O(1), and fresh spaces on the same store share a
        single zero frame between them instead of allocating one each.
        """
        if vpns.step != 1:
            raise ValueError("a zero-filled extent is a contiguous range")
        start, stop = vpns.start, vpns.stop
        if start >= stop:
            return
        if start < 0:
            raise ValueError("virtual page numbers are non-negative")
        added = 0
        if self._holes:
            filled = [vpn for vpn in self._holes if start <= vpn < stop]
            self._holes.difference_update(filled)
            added += len(filled)
        if stop > self._extent:
            # Pages between the old extent and ``start`` join the extent
            # as holes: the range does not map them.
            self._holes.update(
                vpn for vpn in range(self._extent, start)
                if vpn not in self._entries
            )
            low = max(start, self._extent)
            added += (stop - low) - sum(
                1 for vpn in self._entries if low <= vpn < stop
            )
            self._extent = stop
        if not added:
            return
        if self._zero is None:
            self._zero = self.store.acquire_zero_frame()
        self._implicit += added
