"""Page tables on one store, checked step by step against a dense model.

The model is what a page table meant before never-written pages became
implicit: every page ``vpn -> bytes`` held by a frame token of its own
or a share of the one zero token, one reference per page, plus a dirty
set and a COW-fault count per table.  Whatever the real tables do with
extents, holes and their single zero reference, every observable must
agree with it after every step: page bytes, ``dirty_pages``, ``len``,
``mapped_pages``, ``is_mapped``, sharing, ``nonzero_frames`` and
``cow_faults`` -- and a store whose tables are all released holds no
frame.
"""

from __future__ import annotations

import itertools
import sys
import threading
from collections import Counter

import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    consumes,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.errors import PageFault
from repro.pages.address_space import AddressSpace
from repro.pages.store import PageStore
from repro.pages.table import PageImage

PAGE = 16
SPAN = 6
"""Pages a space covers at most."""

UNIVERSE = SPAN + 3
"""Pages a table may map: a few past any space, where the space's
``nonzero_frames`` must not look."""

ZERO = "zero"

vpns = st.integers(min_value=0, max_value=UNIVERSE - 1)
page_bytes = st.binary(min_size=0, max_size=PAGE)


class _Model:
    """One dense table: ``vpn -> (bytes, token)``, dirty set, faults."""

    def __init__(self) -> None:
        self.pages = {}
        self.dirty = set()
        self.cow_faults = 0


class TableMachine(RuleBasedStateMachine):
    spaces = Bundle("spaces")

    def __init__(self) -> None:
        super().__init__()
        self.store = PageStore(page_size=PAGE)
        self.models = {}
        """``id(space) -> (space, model)`` for every live space."""

        self.refs = Counter()
        """Dense reference counts by token."""

        self.tokens = itertools.count()

    # -- model bookkeeping ---------------------------------------------

    def _fresh(self, data: bytes):
        token = next(self.tokens)
        self.refs[token] += 1
        return data.ljust(PAGE, b"\0"), token

    def _drop(self, token) -> None:
        self.refs[token] -= 1
        if not self.refs[token]:
            del self.refs[token]

    def _track(self, space: AddressSpace, model: _Model) -> AddressSpace:
        self.models[id(space)] = (space, model)
        return space

    def _model(self, space: AddressSpace) -> _Model:
        return self.models[id(space)][1]

    # -- rules ---------------------------------------------------------

    @rule(target=spaces, pages=st.integers(min_value=0, max_value=SPAN))
    def new_space(self, pages):
        space = AddressSpace(self.store, pages * PAGE)
        model = _Model()
        for vpn in range(pages):
            model.pages[vpn] = (bytes(PAGE), ZERO)
            self.refs[ZERO] += 1
        return self._track(space, model)

    @rule(space=spaces, start=vpns, length=st.integers(0, UNIVERSE))
    def ensure_zero_filled(self, space, start, length):
        stop = min(UNIVERSE, start + length)
        space.table.ensure_zero_filled(range(start, stop))
        model = self._model(space)
        for vpn in range(start, stop):
            if vpn not in model.pages:
                model.pages[vpn] = (bytes(PAGE), ZERO)
                self.refs[ZERO] += 1

    @rule(
        space=spaces,
        vpn=vpns,
        offset=st.integers(0, PAGE - 1),
        data=st.binary(min_size=1, max_size=4),
    )
    def write(self, space, vpn, offset, data):
        self._write(space, vpn, offset, data)

    def _write(self, space, vpn, offset, data):
        data = data[:PAGE - offset]
        model = self._model(space)
        if vpn not in model.pages:
            with pytest.raises(PageFault):
                space.table.write_page(vpn, data, offset)
            return
        space.table.write_page(vpn, data, offset)
        old, token = model.pages[vpn]
        new = old[:offset] + data + old[offset + len(data):]
        if new == old:
            return
        if self.refs[token] > 1:
            model.cow_faults += 1
        model.pages[vpn] = self._fresh(new)
        self._drop(token)
        model.dirty.add(vpn)

    @rule(space=spaces, vpn=vpns, data=page_bytes)
    def map_page(self, space, vpn, data):
        space.table.map_page(vpn, data)
        model = self._model(space)
        old = model.pages.get(vpn)
        model.pages[vpn] = self._fresh(data)
        if old is not None:
            self._drop(old[1])
        model.dirty.add(vpn)

    @rule(space=spaces, vpn=vpns)
    def unmap_page(self, space, vpn):
        model = self._model(space)
        if vpn not in model.pages:
            with pytest.raises(PageFault):
                space.table.unmap_page(vpn)
            return
        space.table.unmap_page(vpn)
        self._drop(model.pages.pop(vpn)[1])
        model.dirty.discard(vpn)

    @rule(
        space=spaces,
        assignments=st.lists(st.tuples(vpns, page_bytes), max_size=4),
    )
    def set_frames(self, space, assignments):
        frames = [self.store.allocate(data) for _, data in assignments]
        space.table.set_frames(
            (vpn, frame) for (vpn, _), frame in zip(assignments, frames)
        )
        model = self._model(space)
        for vpn, data in assignments:
            old = model.pages.get(vpn)
            model.pages[vpn] = self._fresh(data)
            if old is not None:
                self._drop(old[1])
            model.dirty.add(vpn)

    @rule(target=spaces, space=spaces)
    def fork(self, space):
        return self._fork(space)

    def _fork(self, space):
        child = space.fork()
        model = _Model()
        model.pages = dict(self._model(space).pages)
        for _, token in model.pages.values():
            self.refs[token] += 1
        return self._track(child, model)

    def _written(self, space):
        """A page ``space`` maps to something other than zeros."""
        pages = self._model(space).pages
        return next(
            (vpn for vpn in sorted(pages) if pages[vpn][1] != ZERO), None
        )

    @rule(target=spaces, space=spaces)
    def fork_of_fork(self, space):
        """A grandchild: the child's own fork of what it inherited."""
        return self._fork(self._fork(space))

    @rule(space=spaces, data=st.binary(min_size=1, max_size=4))
    def write_inherited_on_both_sides(self, space, data):
        """Parent and a fresh child both overwrite one shared page."""
        vpn = self._written(space)
        child = self._fork(space)
        if vpn is None:
            return
        self._write(child, vpn, 0, data)
        self._write(space, vpn, 1, data)

    @rule(space=spaces)
    def unmap_inherited(self, space):
        """A fresh child unmaps a page it inherited."""
        vpn = self._written(space)
        child = self._fork(space)
        if vpn is not None:
            self.unmap_page(child, vpn)

    @rule(space=spaces)
    def adopt_grandchild(self, space):
        """A grandchild, written, adopted by its grandparent; the child
        between them is released."""
        child = self._fork(space)
        grandchild = self._fork(child)
        vpn = self._written(space)
        if vpn is not None:
            self._write(grandchild, vpn, 0, b"\xee")
        self.adopt(space, grandchild)
        self.release(child)

    @rule(space=spaces)
    def fork_and_adopt(self, space):
        """A child forked off ``space``, written, then adopted by it."""
        child = space.fork()
        model = self._model(space)
        child_pages = dict(model.pages)
        for _, token in child_pages.values():
            self.refs[token] += 1
        child_dirty = set()
        for vpn in sorted(child_pages)[:2]:
            child.table.write_page(vpn, b"\xff")
            data, token = child_pages[vpn]
            new = b"\xff" + data[1:]
            if new != data:
                child_pages[vpn] = self._fresh(new)
                self._drop(token)
                child_dirty.add(vpn)
        space.table.adopt(child.table)
        for _, token in model.pages.values():
            self._drop(token)
        model.pages = child_pages
        model.dirty |= child_dirty
        assert len(child.table) == 0

    @rule(parent=spaces, child=spaces)
    def adopt(self, parent, child):
        if parent is child:
            return
        parent.table.adopt(child.table)
        into, taken = self._model(parent), self._model(child)
        for _, token in into.pages.values():
            self._drop(token)
        into.pages, taken.pages = taken.pages, {}
        into.dirty |= taken.dirty
        taken.dirty = set()

    @rule(space=consumes(spaces))
    def release(self, space):
        space.release()
        _, model = self.models.pop(id(space))
        for _, token in model.pages.values():
            self._drop(token)

    # -- agreement -----------------------------------------------------

    @invariant()
    def tables_agree_with_the_model(self):
        for space, model in self.models.values():
            table = space.table
            for vpn in range(UNIVERSE):
                assert table.is_mapped(vpn) == (vpn in model.pages), vpn
                if vpn in model.pages:
                    assert table.read_page(vpn) == model.pages[vpn][0], vpn
            assert table.dirty_pages == model.dirty
            assert len(table) == len(model.pages)
            assert list(table.mapped_pages()) == sorted(model.pages)
            assert table.cow_faults == model.cow_faults
            private = sum(
                1 for _, token in model.pages.values()
                if self.refs[token] == 1
            )
            assert table.private_pages() == private
            assert table.shared_pages() == len(model.pages) - private
            shown = sorted(
                vpn for vpn, (_, token) in model.pages.items()
                if token != ZERO and vpn < space.num_pages
            )
            vpns_shown, frames = space.nonzero_frames()
            assert list(vpns_shown) == shown
            assert list(frames) == [table.frame_of(vpn) for vpn in shown]

    @invariant()
    def store_holds_what_the_model_references(self):
        assert self.store.live_frames == len(self.refs)

    def teardown(self):
        for space, _ in list(self.models.values()):
            space.release()
        self.models.clear()
        assert self.store.live_frames == 0


TableMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None
)
test_tables_agree_with_a_dense_model = TableMachine.TestCase


# -- adequacy: each mutant of the shared image must fail the model ---------


def _frees_everything_at_any_leave(self, hidden):
    """The image freed while other tables still point at it."""
    self.holders -= 1
    freed = list(self.frames.values())
    self.frames.clear()
    self.masked.clear()
    return freed


def _keeps_what_every_holder_overwrote(self, vpns, refcount):
    """A page every holder overwrote is left alive in the image."""
    shared = 0
    for vpn in vpns:
        count = self.masked.get(vpn, 0) + 1
        shared += count < self.holders or refcount(self.frames[vpn]) > 1
        self.masked[vpn] = min(count, self.holders - 1)
    return shared, []


def _shares_by_refcount_alone(self, vpns, refcount):
    """Sharing read from the store's count, blind to the other holders."""
    frames = [self.frames[vpn] for vpn in vpns]
    _, freed = _REAL_MASK(self, vpns, refcount)
    return sum(refcount(frame) > 1 for frame in frames), freed


_REAL_MASK = PageImage.mask


@pytest.mark.parametrize("name, patch", [
    ("leave", _frees_everything_at_any_leave),
    ("mask", _keeps_what_every_holder_overwrote),
    ("mask", _shares_by_refcount_alone),
], ids=["freed-early", "overwritten-kept", "refcount-sharing"])
def test_the_model_catches_each_image_mutant(monkeypatch, name, patch):
    monkeypatch.setattr(PageImage, name, patch)
    with pytest.raises(Exception):
        run_state_machine_as_test(TableMachine, settings=settings(
            max_examples=150, stateful_step_count=30, deadline=None,
            derandomize=True, database=None, print_blob=False,
            phases=(Phase.generate,), report_multiple_bugs=False,
        ))


def test_threads_overwrite_one_parents_inherited_pages():
    """Four threads fork one parent and overwrite every page it wrote,
    concurrently, round after round: each reads its own bytes, the
    parent its own, and the store holds exactly what it held before
    once the children go -- a lost update to the shared image's counts
    would leave a page alive, or free one a sibling still reads."""
    store = PageStore(page_size=PAGE)
    parent = AddressSpace(store, 64 * PAGE)
    for vpn in range(64):
        parent.table.write_page(vpn, b"parent-%d" % vpn)
    baseline = store.live_frames
    errors = []

    def child(tag: int, forked: threading.Barrier) -> None:
        try:
            forked.wait()
            space = parent.fork()
            forked.wait()
            for vpn in range(64):
                space.table.write_page(vpn, b"child-%d-%d" % (tag, vpn))
            for vpn in range(64):
                assert space.table.read_page(vpn).startswith(
                    b"child-%d-%d\0" % (tag, vpn)
                )
            assert space.table.private_pages() == len(space.table)
            space.release()
        except BaseException as exc:  # reported on the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside the bookkeeping
    try:
        for _ in range(ROUNDS):
            forked = threading.Barrier(4)
            threads = [
                threading.Thread(target=child, args=(tag, forked))
                for tag in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, errors
            assert store.live_frames == baseline
    finally:
        sys.setswitchinterval(interval)
    for vpn in range(64):
        assert parent.table.read_page(vpn).startswith(b"parent-%d\0" % vpn)
    assert parent.table.private_pages() == len(parent.table)
    parent.release()
    assert store.live_frames == 0


ROUNDS = 300
