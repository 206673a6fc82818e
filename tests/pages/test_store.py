"""Tests for the reference-counted frame store."""

import threading

import pytest
from hypothesis import given, strategies as st

from repro.pages.store import PageStore


class TestAllocation:
    def test_allocate_zero_padded(self):
        store = PageStore(page_size=16)
        frame = store.allocate(b"hi")
        assert store.read(frame) == b"hi" + bytes(14)

    def test_allocate_full_page(self):
        store = PageStore(page_size=4)
        frame = store.allocate(b"abcd")
        assert store.read(frame) == b"abcd"

    def test_allocate_oversized_rejected(self):
        store = PageStore(page_size=4)
        with pytest.raises(ValueError):
            store.allocate(b"abcde")

    def test_frame_ids_are_unique(self):
        store = PageStore(page_size=4)
        ids = {store.allocate() for _ in range(10)}
        assert len(ids) == 10

    def test_store_uids_are_unique(self):
        assert len({PageStore(page_size=4).uid for _ in range(10)}) == 10

    def test_bad_page_size_rejected(self):
        with pytest.raises(ValueError):
            PageStore(page_size=0)


class TestRefcounting:
    def test_initial_refcount_is_one(self):
        store = PageStore(page_size=4)
        frame = store.allocate()
        assert store.refcount(frame) == 1
        assert not store.is_shared(frame)

    def test_incref_makes_shared(self):
        store = PageStore(page_size=4)
        frame = store.allocate()
        store.incref(frame)
        assert store.refcount(frame) == 2
        assert store.is_shared(frame)

    def test_decref_to_zero_reclaims(self):
        store = PageStore(page_size=4)
        frame = store.allocate()
        store.decref(frame)
        assert store.refcount(frame) == 0
        assert store.live_frames == 0
        with pytest.raises(KeyError):
            store.read(frame)

    def test_decref_of_shared_keeps_frame(self):
        store = PageStore(page_size=4)
        frame = store.allocate(b"x")
        store.incref(frame)
        store.decref(frame)
        assert store.read(frame) == b"x" + bytes(3)

    def test_operations_on_unknown_frame_raise(self):
        store = PageStore(page_size=4)
        with pytest.raises(KeyError):
            store.incref(99)
        with pytest.raises(KeyError):
            store.decref(99)
        with pytest.raises(KeyError):
            store.read(99)

    def test_accounting(self):
        store = PageStore(page_size=8)
        store.allocate()
        frame = store.allocate()
        store.decref(frame)
        assert store.total_allocations == 2
        assert store.live_frames == 1
        assert store.resident_bytes == 8


class TestBatchedRefcounts:
    """``incref_many`` / ``decref_many``: validate, then mutate, once."""

    def test_counts_apply_per_frame(self):
        store = PageStore(page_size=4)
        a, b = store.allocate(b"a"), store.allocate(b"b")
        store.incref_many({a: 3, b: 1})
        assert (store.refcount(a), store.refcount(b)) == (4, 2)
        store.decref_many({a: 4, b: 1})
        assert (store.refcount(a), store.refcount(b)) == (0, 1)
        assert store.live_frames == 1

    @pytest.mark.parametrize("batch", ["incref_many", "decref_many"])
    def test_unknown_frame_changes_nothing(self, batch):
        store = PageStore(page_size=4)
        a, b = store.allocate(), store.allocate()
        with pytest.raises(KeyError):
            getattr(store, batch)({a: 1, 99: 1, b: 1})
        assert (store.refcount(a), store.refcount(b)) == (1, 1)

    def test_over_drop_changes_nothing(self):
        store = PageStore(page_size=4)
        a, b = store.allocate(), store.allocate()
        store.incref(b)
        with pytest.raises(ValueError):
            store.decref_many({a: 1, b: 3})
        assert (store.refcount(a), store.refcount(b)) == (1, 2)
        with pytest.raises(ValueError):
            store.incref_many({a: 1, b: 0})
        assert (store.refcount(a), store.refcount(b)) == (1, 2)

    def test_release_callback_runs_once_outside_the_lock(self):
        store = PageStore(page_size=4)
        calls = []

        def on_release():
            # Another thread can use the store while the callback runs
            # only if the batch has already let go of the store's lock.
            other = threading.Thread(target=store.allocate)
            other.start()
            other.join(timeout=5.0)
            calls.append(not other.is_alive())

        frame = store.adopt_external(memoryview(b"abcd"), on_release)
        store.incref_many({frame: 2})
        store.decref_many({frame: 2})
        assert calls == []
        store.decref_many({frame: 1})
        assert calls == [True]
        assert store.refcount(frame) == 0


class TestFrameIdsAreNeverReused:
    """What the world pool's arena index relies on: a frame id, once
    handed out, names that frame's image for the store's whole life."""

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["allocate", "adopt", "zero", "decref"]),
                st.integers(min_value=0, max_value=1 << 16),
            ),
            max_size=60,
        )
    )
    def test_no_sequence_hands_out_an_id_twice(self, operations):
        store = PageStore(page_size=4)
        handed_out = set()
        held = []  # one entry per reference this test owns
        for operation, pick in operations:
            if operation == "decref":
                if held:
                    store.decref(held.pop(pick % len(held)))
                continue
            if operation == "allocate":
                frame = store.allocate(pick.to_bytes(4, "big"))
            elif operation == "adopt":
                frame = store.adopt_external(
                    memoryview(pick.to_bytes(4, "big"))
                )
            else:
                was_live = store.zero_frame_id
                frame = store.acquire_zero_frame()
                if frame == was_live:  # one more reference, not a new frame
                    held.append(frame)
                    continue
            assert frame not in handed_out
            handed_out.add(frame)
            held.append(frame)
        assert store.live_frames == len(set(held))
