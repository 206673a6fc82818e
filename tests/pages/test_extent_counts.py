"""What a never-written page costs: nothing, counted in calls.

A space of 2**18 pages is built, forked three times, one fork adopted
and everything released.  Every whole-table operation must touch only
the pages the space holds -- here none -- plus the one reference each
table keeps on the store's zero frame.  These are call counts, not
timings, so they hold on any host.
"""

from __future__ import annotations

from repro.pages.address_space import AddressSpace
from repro.pages.store import PageStore

PAGES = 2 ** 18
PAGE = 64


def test_a_huge_empty_space_costs_one_zero_reference_per_table(monkeypatch):
    store = PageStore(page_size=PAGE)
    counted = []
    for name in ("incref_many", "decref_many"):
        real = getattr(store, name)

        def counting(counts, _real=real, _name=name):
            counted.append((_name, sum(counts.values())))
            return _real(counts)

        monkeypatch.setattr(store, name, counting)

    space = AddressSpace(store, PAGES * PAGE)
    zero = store.zero_frame_id
    assert zero is not None
    assert (len(space.table), space.num_pages) == (PAGES, PAGES)
    assert space.nonzero_frames() == ((), ())
    assert store.refcount(zero) == 1

    forks = [space.fork() for _ in range(3)]
    live = [space, *forks]
    assert store.refcount(zero) == len(live)
    for fork in forks:
        assert fork.nonzero_frames() == ((), ())
        assert fork.table.frame_of(PAGES - 1) == zero

    space.adopt(forks[0])  # forks[0] is consumed and holds nothing
    live.remove(forks[0])
    assert store.refcount(zero) == len(live)
    assert space.nonzero_frames() == ((), ())
    assert len(space.table) == PAGES

    for each in (space, *forks):
        each.release()
    assert store.live_frames == 0

    # No whole-table call named more than the explicit pages (none)
    # plus the one zero reference.
    assert counted
    assert all(total <= 1 for _, total in counted), counted
