"""Shared-memory slab fabric: lifecycle, refcounts, and pointer commits.

These are the leak-hardening tests of the zero-copy shipback layer: a
slab must survive exactly as long as the frames adopted from it, be
unlinked from ``/dev/shm`` the instant the last reference drains, and
never outlive the process (the ``atexit`` sweep covers crashes between
create and dispose).
"""

from collections import Counter

import pytest

from repro.errors import PageApplyError
from repro.pages.address_space import AddressSpace
from repro.pages.shm import (
    ShmShipment,
    ShmSlab,
    cleanup_all_slabs,
    live_slab_count,
    orphaned_segments,
    shm_available,
)
from repro.pages.store import PageStore

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable"
)

PAGE = 64


def make_space(pages=4):
    return AddressSpace(PageStore(page_size=PAGE), pages * PAGE)


class TestSlabBasics:
    def test_create_write_read_roundtrip(self):
        slab = ShmSlab.create(slots=3, slot_size=PAGE)
        try:
            assert slab.name.startswith("repro_pf_")
            assert slab.size == 3 * PAGE
            image = bytes(range(PAGE))
            slab.write_slot(1, image)
            assert slab.read_slot(1) == image
            assert bytes(slab.slot_view(1)) == image
            assert slab.read_slot(0) == bytes(PAGE)
        finally:
            slab.dispose()

    def test_slot_view_is_readonly_and_zero_copy(self):
        slab = ShmSlab.create(slots=1, slot_size=PAGE)
        try:
            slab.write_slot(0, b"x" * PAGE)
            view = slab.slot_view(0)
            assert view.readonly
            # The view tracks the live slab memory, not a copy.
            slab.write_slot(0, b"y" * PAGE)
            assert bytes(view) == b"y" * PAGE
            view.release()
        finally:
            slab.dispose()

    def test_slot_bounds_and_size_are_validated(self):
        slab = ShmSlab.create(slots=2, slot_size=PAGE)
        try:
            with pytest.raises(IndexError):
                slab.read_slot(2)
            with pytest.raises(IndexError):
                slab.slot_view(-1)
            with pytest.raises(ValueError):
                slab.write_slot(0, b"short")
        finally:
            slab.dispose()

    def test_write_slots_checks_the_run_before_the_first_byte_moves(self):
        slab = ShmSlab.create(slots=4, slot_size=PAGE)
        try:
            images = [bytes([fill]) * PAGE for fill in (1, 2, 3)]
            slab.write_slots(1, [memoryview(image) for image in images])
            assert [slab.read_slot(slot) for slot in (1, 2, 3)] == images
            assert slab.read_slot(0) == bytes(PAGE)
            slab.write_slots(0, [])  # an empty run is a no-op
            for first, run, error in (
                (2, images, IndexError),  # runs off the end
                (-1, images[:1], IndexError),
                (0, [images[0], b"short"], ValueError),  # one bad length
            ):
                with pytest.raises(error):
                    slab.write_slots(first, run)
            # Refused whole: not one slot of a bad run was written.
            assert slab.read_slot(0) == bytes(PAGE)
            assert [slab.read_slot(slot) for slot in (1, 2, 3)] == images
        finally:
            slab.dispose()

    def test_create_rejects_degenerate_geometry(self):
        with pytest.raises(ValueError):
            ShmSlab.create(slots=0, slot_size=PAGE)
        with pytest.raises(ValueError):
            ShmSlab.create(slots=1, slot_size=0)

    def test_attach_sees_creator_writes(self):
        slab = ShmSlab.create(slots=2, slot_size=PAGE)
        try:
            slab.write_slot(1, b"z" * PAGE)
            other = ShmSlab.attach(slab.name, slots=2, slot_size=PAGE)
            assert not other.owner
            assert other.read_slot(1) == b"z" * PAGE
            other.release()  # drops the attach reference; no unlink
            assert slab.name in orphaned_segments()
        finally:
            slab.dispose()
        assert slab.name not in orphaned_segments()

    def test_attach_rejects_undersized_segment(self):
        slab = ShmSlab.create(slots=1, slot_size=PAGE)
        try:
            with pytest.raises(ValueError):
                ShmSlab.attach(slab.name, slots=100, slot_size=PAGE)
        finally:
            slab.dispose()

    def test_attach_unknown_name_raises(self):
        with pytest.raises(FileNotFoundError):
            ShmSlab.attach("repro_pf_no_such_slab", slots=1, slot_size=PAGE)


class TestSlabLifetime:
    def test_dispose_without_adoptions_unlinks_immediately(self):
        before = live_slab_count()
        slab = ShmSlab.create(slots=1, slot_size=PAGE)
        name = slab.name
        assert live_slab_count() == before + 1
        assert name in orphaned_segments()
        slab.dispose()
        assert slab.closed
        assert live_slab_count() == before
        assert name not in orphaned_segments()

    def test_dispose_is_idempotent(self):
        slab = ShmSlab.create(slots=1, slot_size=PAGE)
        slab.dispose()
        slab.dispose()
        assert slab.closed

    def test_retained_slab_survives_dispose(self):
        slab = ShmSlab.create(slots=1, slot_size=PAGE)
        slab.retain()
        slab.dispose()
        assert not slab.closed
        assert slab.name in orphaned_segments()
        slab.release()  # the adopted frame lets go: now it dies
        assert slab.closed
        assert slab.name not in orphaned_segments()

    def test_batched_retain_release_many(self):
        slab = ShmSlab.create(slots=4, slot_size=PAGE)
        slab.retain(4)
        assert slab.refs == 5
        slab.dispose()
        slab.release_many(3)
        assert not slab.closed
        slab.release_many(1)
        assert slab.closed

    def test_a_lent_handle_is_bound_by_its_slots_and_unlinks_nothing(self):
        slab = ShmSlab.create(slots=8, slot_size=PAGE)
        try:
            lent = slab.lend(2)
            assert (lent.name, lent.slots, lent.size) == (slab.name, 2, 2 * PAGE)
            assert (slab.refs, lent.refs) == (2, 1)
            lent.write_slot(1, b"k" * PAGE)
            assert slab.read_slot(1) == b"k" * PAGE  # one mapping
            with pytest.raises(IndexError):
                lent.write_slot(2, b"k" * PAGE)
            with pytest.raises(IndexError):
                lent.slot_view(2)
            # Frames adopted through the handle keep the lender referenced
            # past the handle's dispose, and give it back when they drain.
            space = make_space(pages=2)
            space.apply_shm_pages(ShmShipment(lent, pairs=[(0, 1)]))
            lent.dispose()
            lent.dispose()  # idempotent: cannot touch a later loan
            assert (slab.refs, lent.closed) == (2, False)
            space.release()
            assert lent.closed and not slab.closed
            assert slab.refs == 1
            assert slab.name in orphaned_segments()
            with pytest.raises(RuntimeError):
                lent.retain()
            # The next loan is a new handle on the same bytes.
            second = slab.lend(8)
            assert second.read_slot(1) == b"k" * PAGE
            lent.dispose()
            assert slab.refs == 2
            second.dispose()
            with pytest.raises(ValueError):
                slab.lend(9)
            with pytest.raises(ValueError):
                slab.lend(0)
        finally:
            slab.dispose()
        assert slab.closed and slab.name not in orphaned_segments()

    def test_a_lender_disposed_under_a_loan_dies_with_the_loan(self):
        slab = ShmSlab.create(slots=2, slot_size=PAGE)
        lent = slab.lend(1)
        slab.dispose()  # the owner's claim goes first
        assert not slab.closed and slab.name in orphaned_segments()
        lent.dispose()
        assert slab.closed and slab.name not in orphaned_segments()

    def test_retain_after_close_raises(self):
        slab = ShmSlab.create(slots=1, slot_size=PAGE)
        slab.dispose()
        with pytest.raises(RuntimeError):
            slab.retain()

    def test_cleanup_all_slabs_reclaims_leaks(self):
        slab = ShmSlab.create(slots=1, slot_size=PAGE)
        name = slab.name
        # Simulate a parent that died between create and dispose: nobody
        # called dispose, the atexit sweep must still unlink the segment.
        reclaimed = cleanup_all_slabs()
        assert reclaimed >= 1
        assert name not in orphaned_segments()
        assert live_slab_count() == 0


class TestPointerCommit:
    """apply_shm_pages: the zero-copy winner commit at the space layer."""

    def test_commit_swaps_pointers_and_pins_slab(self):
        space = make_space(pages=4)
        slab = ShmSlab.create(slots=4, slot_size=PAGE)
        slab.write_slot(0, b"a" * PAGE)
        slab.write_slot(1, b"b" * PAGE)
        shipment = ShmShipment(slab, pairs=[(2, 0), (3, 1)])
        space.apply_shm_pages(shipment)
        slab.dispose()
        # The committed pages read straight out of shared memory.
        assert space.read(2 * PAGE, PAGE) == b"a" * PAGE
        assert space.read(3 * PAGE, PAGE) == b"b" * PAGE
        assert space.table.store.is_external(space.table.frame_of(2))
        # Two adopted frames keep the slab alive past dispose.
        assert not slab.closed
        assert slab.name in orphaned_segments()
        # Overwriting one page drops one pin; releasing the space drops
        # the last, which unlinks the segment.
        space.write(2 * PAGE, b"c" * PAGE)
        assert not slab.closed
        space.release()
        assert slab.closed
        assert slab.name not in orphaned_segments()

    def test_malformed_shipment_leaves_space_untouched(self):
        space = make_space(pages=2)
        space.write(0, b"keep")
        snapshot = space.read(0, space.size)
        slab = ShmSlab.create(slots=2, slot_size=PAGE)
        try:
            cases = [
                [(5, 0)],          # vpn outside the space
                [(0, 0), (0, 1)],  # duplicate vpn
                [(0, 7)],          # slot outside the slab
            ]
            for pairs in cases:
                with pytest.raises(PageApplyError):
                    space.apply_shm_pages(ShmShipment(slab, pairs=pairs))
                assert space.read(0, space.size) == snapshot
            wrong_geometry = AddressSpace(PageStore(page_size=32), 64)
            with pytest.raises(PageApplyError):
                wrong_geometry.apply_shm_pages(
                    ShmShipment(slab, pairs=[(0, 0)])
                )
        finally:
            slab.dispose()
        assert slab.closed  # every failed attempt released its references

    def test_shipment_pages_property(self):
        slab = ShmSlab.create(slots=2, slot_size=PAGE)
        try:
            assert ShmShipment(slab, pairs=[(0, 0), (1, 1)]).pages == 2
            assert ShmShipment(slab).pages == 0
        finally:
            slab.dispose()


class TestBatchedStorePrimitives:
    """The one-lock-per-commit batch operations under the pointer swap."""

    def test_adopt_external_many_contiguous_and_released_in_order(self):
        store = PageStore(page_size=4)
        released = []
        frames = store.adopt_external_many(
            [b"aaaa", b"bbbb", b"cccc"],
            on_release=released.append,
        )
        assert frames == sorted(frames)
        assert all(store.is_external(f) for f in frames)
        assert [bytes(store.read(f)) for f in frames] == [
            b"aaaa", b"bbbb", b"cccc",
        ]
        store.decref(frames[1])
        assert released == [1]
        # The shared callback runs once per batch, with the batch's count.
        store.decref_many(Counter([frames[0], frames[2]]))
        assert released == [1, 2]
        assert store.live_frames == 0

    def test_adopt_external_many_validates_before_adopting(self):
        store = PageStore(page_size=4)
        with pytest.raises(ValueError):
            store.adopt_external_many([b"aaaa", b"toolong"])
        assert store.live_frames == 0

    def test_decref_many_keeps_shared_frames(self):
        store = PageStore(page_size=4)
        frame = store.allocate(b"xyzw")
        store.incref(frame)
        store.decref_many({frame: 1})
        assert store.refcount(frame) == 1
        store.decref_many({frame: 1})
        assert store.refcount(frame) == 0

    def test_set_frames_swaps_many_pointers_at_once(self):
        store = PageStore(page_size=4)
        table_pages = 3
        from repro.pages.table import PageTable

        table = PageTable(store)
        for vpn in range(table_pages):
            table.map_page(vpn, b"old" + bytes([vpn]))
        old_frames = [table.frame_of(vpn) for vpn in range(table_pages)]
        new_frames = [store.allocate(b"new" + bytes([vpn])) for vpn in range(3)]
        table.clear_dirty()
        table.set_frames(zip(range(table_pages), new_frames))
        assert [table.frame_of(vpn) for vpn in range(table_pages)] == new_frames
        assert all(store.refcount(f) == 0 for f in old_frames)
        assert table.pages_written == table_pages


class TestIdenticalWriteSkip:
    """Satellite regression: byte-identical writes never dirty a page."""

    def test_rewriting_same_bytes_is_a_no_op(self):
        space = make_space(pages=2)
        space.write(0, b"same-bytes")
        assert space.pages_written == 1
        allocations = space.store.total_allocations
        faults = space.cow_faults
        space.table.clear_dirty()
        space.write(0, b"same-bytes")
        assert space.pages_written == 0
        assert space.store.total_allocations == allocations
        assert space.cow_faults == faults
        # A genuinely different write still dirties the page.
        space.write(0, b"other-bytes")
        assert space.pages_written == 1

    def test_forked_child_identical_write_skips_cow_copy(self):
        space = make_space(pages=2)
        space.write(0, b"shared page")
        child = space.fork()
        # Writing the same bytes must not copy the shared frame.
        child.write(0, b"shared page")
        assert child.cow_faults == 0
        assert child.pages_written == 0
        # The genuinely new write pays exactly one copy fault.
        child.write(0, b"child's page")
        assert child.cow_faults == 1
        assert child.pages_written == 1
        assert space.read(0, len(b"shared page")) == b"shared page"
