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


def test_forking_a_written_space_costs_what_was_written_since(monkeypatch):
    """A space of 1024 written pages is forked three times, one fork
    writes two pages and is adopted, the others are released: once the
    first fork has frozen the parent's entries into a shared image, no
    whole-table call names more than the two pages written since."""
    store = PageStore(page_size=PAGE)
    counted = []
    for name in ("incref_many", "decref_many"):
        real = getattr(store, name)

        def counting(counts, _real=real, _name=name):
            counted.append((_name, sum(counts.values())))
            return _real(counts)

        monkeypatch.setattr(store, name, counting)

    space = AddressSpace(store, 1024 * PAGE)
    for vpn in range(1024):
        space.table.write_page(vpn, b"page-%d" % vpn)
    frames = store.live_frames
    forks = [space.fork() for _ in range(3)]
    forks[0].table.write_page(5, b"five")
    forks[0].table.write_page(700, b"seven hundred")
    assert store.live_frames == frames + 2
    space.adopt(forks[0])
    for fork in forks[1:]:
        fork.release()
    # The two pages every holder overwrote went at once.
    assert store.live_frames == frames
    assert space.table.read_page(5).startswith(b"five-5\0")
    assert space.table.read_page(6).startswith(b"page-6\0")
    assert space.table.private_pages() == len(space.table) == 1024
    assert counted
    assert all(total <= 2 for _, total in counted), counted
    space.release()
    assert store.live_frames == 0
