"""Tests for copy-on-write page tables."""

import pytest

from repro.errors import PageFault
from repro.pages.store import PageStore
from repro.pages.table import PageTable


@pytest.fixture
def store():
    return PageStore(page_size=8)


@pytest.fixture
def table(store):
    table = PageTable(store)
    table.map_page(0, b"page-0")
    table.map_page(1, b"page-1")
    table.clear_dirty()
    return table


class TestMapping:
    def test_map_and_read(self, table):
        assert table.read_page(0).startswith(b"page-0")
        assert table.is_mapped(1)
        assert not table.is_mapped(2)

    def test_unmapped_read_faults(self, table):
        with pytest.raises(PageFault):
            table.read_page(7)

    def test_unmap_releases_frame(self, store, table):
        live_before = store.live_frames
        table.unmap_page(0)
        assert store.live_frames == live_before - 1
        with pytest.raises(PageFault):
            table.read_page(0)

    def test_unmap_unmapped_faults(self, table):
        with pytest.raises(PageFault):
            table.unmap_page(5)

    def test_remap_replaces_frame(self, table):
        table.map_page(0, b"newdata")
        assert table.read_page(0).startswith(b"newdata")

    def test_negative_vpn_rejected(self, table):
        with pytest.raises(ValueError):
            table.map_page(-1)

    def test_mapped_pages_sorted(self, table):
        table.map_page(5)
        table.map_page(3)
        assert list(table.mapped_pages()) == [0, 1, 3, 5]
        assert len(table) == 4


class TestCopyOnWrite:
    def test_fork_shares_frames(self, store, table):
        child = table.fork()
        assert child.frame_of(0) == table.frame_of(0)
        assert store.is_shared(table.frame_of(0))

    def test_fork_allocates_nothing(self, store, table):
        before = store.total_allocations
        table.fork()
        assert store.total_allocations == before

    def test_child_write_copies_and_isolates(self, store, table):
        child = table.fork()
        child.write_page(0, b"CHILD")
        assert child.read_page(0).startswith(b"CHILD")
        assert table.read_page(0).startswith(b"page-0")
        assert child.frame_of(0) != table.frame_of(0)
        assert child.cow_faults == 1

    def test_parent_write_also_copies(self, table):
        child = table.fork()
        table.write_page(1, b"PARENT")
        assert table.read_page(1).startswith(b"PARENT")
        assert child.read_page(1).startswith(b"page-1")

    def test_unwritten_pages_stay_shared(self, store, table):
        child = table.fork()
        child.write_page(0, b"x")
        assert child.frame_of(1) == table.frame_of(1)

    def test_second_write_to_private_page_does_not_fault(self, table):
        child = table.fork()
        child.write_page(0, b"a")
        faults = child.cow_faults
        child.write_page(0, b"b", offset=1)
        assert child.cow_faults == faults
        assert child.read_page(0).startswith(b"ab")

    def test_write_offset(self, table):
        table.write_page(0, b"XY", offset=4)
        assert table.read_page(0) == b"pageXY" + bytes(2)

    def test_write_past_page_end_rejected(self, table):
        with pytest.raises(ValueError):
            table.write_page(0, b"toolongforapage")

    def test_grandchild_chain(self, table):
        child = table.fork()
        grandchild = child.fork()
        grandchild.write_page(0, b"GC")
        assert table.read_page(0).startswith(b"page-0")
        assert child.read_page(0).startswith(b"page-0")
        assert grandchild.read_page(0).startswith(b"GC")

    def test_siblings_are_isolated(self, table):
        left = table.fork()
        right = table.fork()
        left.write_page(0, b"L")
        right.write_page(0, b"R")
        assert left.read_page(0)[:1] == b"L"
        assert right.read_page(0)[:1] == b"R"
        assert table.read_page(0).startswith(b"page-0")


class TestDirtyAccounting:
    def test_pages_written_counts_distinct_pages(self, table):
        child = table.fork()
        child.clear_dirty()
        child.write_page(0, b"a")
        child.write_page(0, b"b")
        child.write_page(1, b"c")
        assert child.pages_written == 2
        assert child.dirty_pages == {0, 1}

    def test_clear_dirty_resets(self, table):
        table.write_page(0, b"z")
        assert table.pages_written == 1
        table.clear_dirty()
        assert table.pages_written == 0

    def test_private_and_shared_counts(self, store, table):
        child = table.fork()
        assert child.private_pages() == 0
        assert child.shared_pages() == 2
        child.write_page(0, b"w")
        assert child.private_pages() == 1
        assert child.shared_pages() == 1


class TestLifecycle:
    def test_release_returns_frames(self, store, table):
        child = table.fork()
        child.write_page(0, b"priv")
        live = store.live_frames
        child.release()
        assert store.live_frames == live - 1  # only the private copy dies
        assert len(child) == 0

    def test_adopt_swaps_pointer(self, store, table):
        child = table.fork()
        child.write_page(0, b"WINNER")
        table.adopt(child)
        assert table.read_page(0).startswith(b"WINNER")
        assert len(child) == 0

    def test_adopt_requires_same_store(self, table):
        other = PageTable(PageStore(page_size=8))
        with pytest.raises(ValueError):
            table.adopt(other)

    def test_adopt_releases_parent_frames(self, store, table):
        child = table.fork()
        child.write_page(0, b"W")
        table.adopt(child)
        # Parent's old frame for page 0 must have been released: only the
        # child's private copy and the still-shared page 1 remain reachable.
        assert store.refcount(table.frame_of(0)) == 1

    def test_ensure_zero_filled_shares_one_frame(self, store):
        # Every page of the extent reads as one shared zero frame, and
        # each table holds one reference on it, not one per page.
        table = PageTable(store)
        table.ensure_zero_filled(range(10))
        frames = {table.frame_of(v) for v in range(10)}
        assert len(frames) == 1
        zero = frames.pop()
        assert store.refcount(zero) == 1
        child = table.fork()
        assert {child.frame_of(v) for v in range(10)} == {zero}
        assert store.refcount(zero) == 2
        child.release()
        table.release()
        assert store.live_frames == 0
