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
from collections import Counter

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    consumes,
    invariant,
    rule,
)

from repro.errors import PageFault
from repro.pages.address_space import AddressSpace
from repro.pages.store import PageStore

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
        child = space.fork()
        model = _Model()
        model.pages = dict(self._model(space).pages)
        for _, token in model.pages.values():
            self.refs[token] += 1
        return self._track(child, model)

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
