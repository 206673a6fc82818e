"""Reference-counted physical frame store.

The store plays the role of physical memory plus backing store: a single
pool of immutable frames shared by every page table in a simulated machine.
Reference counting tells us when a frame is shared (so a write must copy)
and when it can be reclaimed.

The store is safe under concurrent children: the parallel execution
backends (``repro.core.backends``) run alternative bodies in real threads,
so every refcount mutation happens under a per-store lock.  Frames stay
immutable ``bytes``, which makes *reads* safe without the lock, and
:meth:`view` serves them as ``memoryview`` so hot-path readers never copy
a frame just to slice it.
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable, Dict, Mapping, Optional

from repro.pages.page import DEFAULT_PAGE_SIZE, zero_page

_store_uids = itertools.count(1)


class PageStore:
    """A pool of immutable, reference-counted page frames.

    Frames normally hold ``bytes``.  A frame may instead be *adopted*
    from an external page-sized buffer (a shared-memory slab slot, see
    :meth:`adopt_external`); such a frame serves reads through the
    external buffer with zero copies and runs a release callback when its
    refcount drains, so the buffer's owner knows the store is done.
    """

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        if page_size <= 0:
            raise ValueError("page size must be positive")
        self.page_size = page_size
        self.uid = next(_store_uids)
        """Unique among this process's stores and never reused.  Frame
        ids are never reused either, and frames are immutable, so
        ``(uid, frame id)`` names one page image for good -- what lets
        the world pool publish a frame to its workers exactly once."""

        self._frames: Dict[int, object] = {}
        self._refcounts: Dict[int, int] = {}
        self._external: Dict[int, Optional[Callable[[int], None]]] = {}
        """External frame -> ``on_release(count)``, or ``None``."""

        self._next_frame = 0
        self._lock = threading.RLock()
        self._zero_frame: Optional[int] = None
        self.total_allocations = 0
        """Cumulative frames ever allocated (for overhead accounting)."""

    # ------------------------------------------------------------------

    def allocate(self, data: bytes = b"") -> int:
        """Allocate a new frame holding ``data`` (zero-padded to a page).

        Returns the frame id with an initial reference count of 1.
        """
        if len(data) > self.page_size:
            raise ValueError(
                f"frame data of {len(data)} bytes exceeds page size {self.page_size}"
            )
        if len(data) < self.page_size:
            data = data + zero_page(self.page_size)[len(data):]
        with self._lock:
            frame_id = self._next_frame
            self._next_frame += 1
            self._frames[frame_id] = data
            self._refcounts[frame_id] = 1
            self.total_allocations += 1
        return frame_id

    def acquire_zero_frame(self, count: int = 1) -> int:
        """Take ``count`` references on the store's shared all-zero frame.

        Every caller building a fresh address space needs its unmapped
        pages backed by zeros; instead of allocating one zero frame per
        space, the store keeps a single canonical zero frame alive for as
        long as anyone references it and hands out shared references in
        bulk.  Returns the frame id carrying ``count`` new references owned
        by the caller.
        """
        if count < 1:
            raise ValueError("must acquire at least one reference")
        with self._lock:
            frame_id = self._zero_frame
            if frame_id is not None and frame_id in self._refcounts:
                self._refcounts[frame_id] += count
                return frame_id
            frame_id = self.allocate(zero_page(self.page_size))
            if count > 1:
                self._refcounts[frame_id] += count - 1
            self._zero_frame = frame_id
            return frame_id

    def adopt_external(
        self,
        data,
        on_release: Optional[Callable[[], None]] = None,
    ) -> int:
        """Adopt an external page-sized buffer as a frame (zero-copy).

        ``data`` is any read-only buffer of exactly ``page_size`` bytes --
        in practice a shared-memory slab slot view -- and is served to
        readers as-is, never copied into the store.  The caller promises
        the buffer's contents stay frozen while the frame lives.  When
        the frame's refcount drains, the buffer is released and
        ``on_release`` runs (outside the store lock), letting the
        buffer's owner drop its pin.  This is the receiving half of the
        winner-commit pointer swap.
        """
        if len(data) != self.page_size:
            raise ValueError(
                f"external frame of {len(data)} bytes; "
                f"expected exactly page size {self.page_size}"
            )
        with self._lock:
            frame_id = self._next_frame
            self._next_frame += 1
            self._frames[frame_id] = data
            self._refcounts[frame_id] = 1
            self._external[frame_id] = (
                None if on_release is None else lambda _count: on_release()
            )
            self.total_allocations += 1
        return frame_id

    def adopt_external_many(self, buffers, on_release=None) -> list:
        """Adopt many page-sized buffers under one lock acquisition.

        The batched form of :meth:`adopt_external` for multi-page
        commits: per-frame lock round-trips are what dominates a
        pointer-swap commit once the page images themselves stop being
        copied.  ``on_release`` is shared by every frame and takes a
        count: it is called with how many of its frames one
        :meth:`decref` or :meth:`decref_many` reclaimed, once per such
        call, so a world that drains costs a slab one release however
        many of its pages it held.  The counts add up to the number of
        frames adopted.
        """
        for data in buffers:
            if len(data) != self.page_size:
                raise ValueError(
                    f"external frame of {len(data)} bytes; "
                    f"expected exactly page size {self.page_size}"
                )
        with self._lock:
            first = self._next_frame
            frame_ids = list(range(first, first + len(buffers)))
            self._next_frame = first + len(buffers)
            for frame_id, data in zip(frame_ids, buffers):
                self._frames[frame_id] = data
                self._refcounts[frame_id] = 1
                self._external[frame_id] = on_release
            self.total_allocations += len(buffers)
        return frame_ids

    def read(self, frame_id: int):
        """The contents of a frame: ``bytes``, or an external buffer."""
        try:
            return self._frames[frame_id]
        except KeyError:
            raise KeyError(f"no such frame: {frame_id}") from None

    def view(self, frame_id: int) -> memoryview:
        """A zero-copy view of a frame's contents.

        Frames are immutable, so the view stays valid for as long as the
        caller holds a reference on the frame.
        """
        return memoryview(self.read(frame_id))

    def incref(self, frame_id: int, count: int = 1) -> None:
        """Add ``count`` references (page-table entries now point here)."""
        if count < 1:
            raise ValueError("must add at least one reference")
        with self._lock:
            if frame_id not in self._refcounts:
                raise KeyError(f"no such frame: {frame_id}")
            self._refcounts[frame_id] += count

    def incref_many(self, counts: Mapping[int, int]) -> None:
        """Add ``counts[frame]`` references to every frame named.

        The batched form of :meth:`incref` for whole-table operations
        (fork, a pooled worker building an arm's table): one lock
        acquisition however many frames, and validate-then-mutate -- an
        unknown frame or a count below one raises with *no* count
        changed.
        """
        refcounts = self._refcounts
        with self._lock:
            for frame_id, count in counts.items():
                if frame_id not in refcounts:
                    raise KeyError(f"no such frame: {frame_id}")
                if count < 1:
                    raise ValueError("must add at least one reference")
            for frame_id, count in counts.items():
                refcounts[frame_id] += count

    def _reclaim(self, frame_id: int) -> Optional[Callable[[int], None]]:
        """Forget a drained frame (lock held); returns its release callback."""
        del self._refcounts[frame_id]
        data = self._frames.pop(frame_id)
        if self._zero_frame == frame_id:
            self._zero_frame = None
        if frame_id not in self._external:
            return None
        on_release = self._external.pop(frame_id)
        if isinstance(data, memoryview):
            data.release()
        return on_release

    def decref(self, frame_id: int) -> None:
        """Drop a reference, reclaiming the frame at zero."""
        on_release = None
        with self._lock:
            count = self._refcounts.get(frame_id)
            if count is None:
                raise KeyError(f"no such frame: {frame_id}")
            if count == 1:
                on_release = self._reclaim(frame_id)
            else:
                self._refcounts[frame_id] = count - 1
        if on_release is not None:
            # Outside the lock: the callback may release a slab, which
            # must not re-enter the store under our lock.
            on_release(1)

    def decref_many(self, counts: Mapping[int, int]) -> None:
        """Drop ``counts[frame]`` references from every frame named.

        The batched form of :meth:`decref` (table release, adopt, the
        multi-page pointer swap): one lock acquisition, and
        validate-then-mutate -- an unknown frame, or a drop larger than
        the frame's count, raises with *no* count changed.  Release
        callbacks of reclaimed external frames run after the lock is
        dropped, in the mapping's order: once per frame, except that a
        callback shared by many frames (:meth:`adopt_external_many`)
        runs once, with how many of them were reclaimed.
        """
        refcounts = self._refcounts
        released: Dict[Callable[[int], None], int] = {}
        with self._lock:
            for frame_id, count in counts.items():
                held = refcounts.get(frame_id)
                if held is None:
                    raise KeyError(f"no such frame: {frame_id}")
                if not 1 <= count <= held:
                    raise ValueError(
                        f"cannot drop {count} of frame {frame_id}'s "
                        f"{held} references"
                    )
            for frame_id, count in counts.items():
                left = refcounts[frame_id] - count
                if left:
                    refcounts[frame_id] = left
                    continue
                on_release = self._reclaim(frame_id)
                if on_release is not None:
                    released[on_release] = released.get(on_release, 0) + 1
        for on_release, count in released.items():
            on_release(count)

    def refcount(self, frame_id: int) -> int:
        """Current reference count (0 if the frame was reclaimed)."""
        return self._refcounts.get(frame_id, 0)

    def is_shared(self, frame_id: int) -> bool:
        """True when more than one page-table entry points at the frame."""
        return self.refcount(frame_id) > 1

    def is_external(self, frame_id: int) -> bool:
        """True when the frame serves an adopted external buffer."""
        return frame_id in self._external

    @property
    def zero_frame_id(self) -> Optional[int]:
        """The canonical all-zero frame's id (``None`` when not live).

        Snapshot builders compare page-table entries against this to skip
        never-written pages without touching their bytes.
        """
        return self._zero_frame

    @property
    def live_frames(self) -> int:
        """Number of frames currently allocated."""
        return len(self._frames)

    @property
    def resident_bytes(self) -> int:
        """Total bytes held by live frames."""
        return self.live_frames * self.page_size

    def __repr__(self) -> str:
        return (
            f"PageStore(page_size={self.page_size}, live_frames={self.live_frames})"
        )
