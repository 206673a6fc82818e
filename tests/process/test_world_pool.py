"""The pre-warmed world pool: transparency, recycling, and crash discipline.

Pooling is a pure optimization: every test here pins some facet of
'a pooled race is indistinguishable from a forked race' -- identical
outcomes across the canonical corpus, identical failure handling under
injected worker deaths, and clean fallback to one-shot workers whenever
a parked worker cannot take the arm transparently.
"""

import errno
import hashlib
import os
import pickle
import random
import select
import signal
import tempfile
import threading
import time

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    consumes,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.alternative import AltContext, Alternative
from repro.core.backends import ProcessBackend, SerialBackend, get_backend
from repro.core.backends import process as process_module
from repro.core.backends import wire
from repro.core.backends.base import ArmTask, CancellationToken
from repro.core.concurrent import ConcurrentExecutor
from repro.core.selection import OrderedPolicy
from repro.core.sequential import SequentialExecutor
from repro.errors import PageApplyError
from repro.obs.blocks import CANONICAL_BLOCKS, get_block
from repro.pages.address_space import AddressSpace
from repro.pages.shm import (
    SLAB_PREFIX,
    ShmShipment,
    ShmSlab,
    orphaned_segments,
    shm_available,
)
from repro.pages.store import PageStore
from repro.process import pool as pool_module
from repro.process.ledger import DRAINING, LEASED, PARKED
from repro.process.pool import (
    RESPONSE_SPARE_SLABS,
    WorldPool,
    shutdown_default_pool,
)
from repro.resilience import FaultInjector, injected

pytestmark = [
    pytest.mark.slow,
    pytest.mark.subprocess,
    pytest.mark.skipif(not hasattr(os, "fork"), reason="requires os.fork"),
]

REFERENCE = "serial"


class _Sleeper:
    """A picklable arm body (a closure would force the fork fallback)."""

    def __init__(self, name, seconds, value):
        self.name = name
        self.seconds = seconds
        self.value = value

    def __call__(self, ctx):
        ctx.sleep(self.seconds)
        ctx.put("winner-name", self.name)
        return self.value


def sleeper_block():
    return [
        Alternative("quick", body=_Sleeper("quick", 0.01, "Q")),
        Alternative("slow", body=_Sleeper("slow", 0.3, "S")),
    ]


def quick_block():
    """The same race with a loser that takes the cooperative kill early."""
    return [
        Alternative("quick", body=_Sleeper("quick", 0.0, "Q")),
        Alternative("slow", body=_Sleeper("slow", 0.05, "S")),
    ]


def own_segments():
    """This process's segments (a neighbour's run has another pid)."""
    return set(orphaned_segments(f"{SLAB_PREFIX}_{os.getpid()}_"))


def new_segments(before):
    return own_segments() - before


def assert_only_the_pools_own(pool, before):
    """The leak audit between blocks: what this process has added to
    ``/dev/shm`` is exactly what the pool holds (arena and response
    slabs), each referenced by the pool alone -- once it has heard out
    the losers the last races left to it.  Returns the names."""
    pool.drain()
    owned = pool.owned_slabs()
    assert [slab.refs for slab in owned] == [1] * len(owned)
    names = {slab.name for slab in owned}
    assert new_segments(before) == names
    return names


@pytest.fixture
def pool():
    pool = WorldPool(size=2)
    yield pool
    pool.shutdown()


@pytest.fixture(autouse=True)
def _no_fault_leaks():
    from repro.resilience import injector as registry

    yield
    registry.uninstall()


class TestPooledEquivalenceMatrix:
    """Satellite: the full canonical corpus, pooled vs the serial oracle."""

    @pytest.mark.parametrize(
        "block_name", [spec.name for spec in CANONICAL_BLOCKS]
    )
    def test_pooled_process_agrees_with_reference(self, block_name, pool):
        spec = get_block(block_name)
        reference = spec.run(get_backend(REFERENCE))
        pooled = spec.run(ProcessBackend(kill_grace=0.5, pool=pool))
        assert pooled.value == reference.value
        assert pooled.winner == reference.winner
        assert pooled.error == reference.error
        assert pooled.variables == reference.variables
        assert pooled.space_bytes == reference.space_bytes

    def test_leases_are_actually_granted(self, pool):
        outcome = get_block("pure-winner").run(
            ProcessBackend(kill_grace=0.5, pool=pool)
        )
        assert outcome.winner == "fast"
        assert pool.leases_granted > 0
        pool.drain()
        assert pool.parked == pool.size  # every worker re-parked cleanly
        assert pool.respawns == 0


class TestPoolFallbacks:
    def test_closure_bodies_fall_back_to_forks(self, pool):
        payload = object()  # captured: the alternative cannot pickle

        def body(ctx):
            return type(payload).__name__

        executor = ConcurrentExecutor(
            backend=ProcessBackend(kill_grace=0.5, pool=pool)
        )
        result = executor.run([Alternative("closure", body=body)])
        assert result.value == "object"
        assert pool.leases_granted == 0
        assert pool.fallbacks >= 1

    def test_stale_worker_fault_recycles_and_forks(self, pool):
        executor = ConcurrentExecutor(
            backend=ProcessBackend(kill_grace=0.5, pool=pool)
        )
        injector = FaultInjector(seed=0).pool_worker_stale(arms=[0], times=1)
        with injected(injector):
            result = executor.run(sleeper_block())
        assert result.value == "Q"
        assert result.winner.name == "quick"
        assert pool.fallbacks >= 1  # the stale arm forked directly
        assert pool.respawns >= 1  # and the suspect worker was replaced
        pool.drain()
        assert pool.parked == pool.size

    @pytest.mark.skipif(not shm_available(), reason="no shared memory")
    def test_shm_attach_fault_degrades_to_pipe_transport(self, pool):
        executor = ConcurrentExecutor(
            backend=ProcessBackend(kill_grace=0.5, pool=pool)
        )
        injector = FaultInjector(seed=0).shm_attach_fail(times=None)
        with injected(injector):
            result = executor.run(sleeper_block())
        assert result.value == "Q"
        assert result.page_transport == "pipe"

    def test_exhausted_pool_forks_the_overflow_arms(self):
        pool = WorldPool(size=1)
        try:
            executor = ConcurrentExecutor(
                backend=ProcessBackend(kill_grace=0.5, pool=pool)
            )
            result = executor.run(sleeper_block())
            assert result.value == "Q"
            assert pool.leases_granted == 1
            assert pool.fallbacks >= 1
        finally:
            pool.shutdown()


class TestPoolCrashDiscipline:
    def test_sigkilled_worker_respawns_and_leaks_no_segments(self, pool):
        """Satellite: a SIGKILLed pooled worker leaves /dev/shm holding
        the pool's own slabs and nothing else, however long it serves."""
        before = own_segments()
        executor = ConcurrentExecutor(
            backend=ProcessBackend(kill_grace=0.5, pool=pool)
        )
        parent = executor.new_parent()
        injector = FaultInjector(seed=0).arm_sigkill(arms=[0], times=1)
        with injected(injector):
            result = executor.run(sleeper_block(), parent=parent)
        # The surviving arm won; the dead worker's slab went to its heir.
        assert result.value == "S"
        assert result.winner.name == "slow"
        assert pool.respawns >= 1
        pool.drain()
        assert pool.parked == pool.size
        # The pool still serves leases after the respawn.
        second_parent = executor.new_parent()
        second = executor.run(sleeper_block(), parent=second_parent)
        assert second.value == "Q"
        # Releasing the parent spaces drops the last pins on any slab the
        # winners committed from.
        parent.space.release()
        second_parent.space.release()
        held = assert_only_the_pools_own(pool, before)
        for _ in range(20):  # ten times the blocks, the same segments
            later = executor.new_parent()
            assert executor.run(quick_block(), parent=later).value == "Q"
            later.space.release()
        assert assert_only_the_pools_own(pool, before) == held
        pool.shutdown()
        assert own_segments() == before

    def test_shutdown_terminates_every_worker(self):
        pool = WorldPool(size=3)
        pids = pool.worker_pids()
        assert len(pids) == 3
        pool.shutdown()
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        pool.shutdown()  # idempotent

    def test_a_failed_fork_while_filling_the_pool_leaks_no_worker(
        self, monkeypatch
    ):
        """The second worker's fork is refused (EAGAIN): the pool is not
        made, and the worker forked before it is killed and reaped, not
        left parked on a pipe nothing will close."""
        forked = []
        fork = pool_module.fork_child

        def second_fails(body):
            if forked:
                raise BlockingIOError(errno.EAGAIN, "fork refused")
            forked.append(fork(body))
            return forked[-1]

        shutdown_default_pool()  # REPRO_WORLD_POOL=1 left one parked
        monkeypatch.setattr(pool_module, "fork_child", second_fails)
        with pytest.raises(BlockingIOError):
            WorldPool(2)
        assert len(forked) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(forked[0], os.WNOHANG)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_parked_workers_ignore_sigterm(self, pool):
        for pid in pool.worker_pids():
            os.kill(pid, signal.SIGTERM)
        executor = ConcurrentExecutor(
            backend=ProcessBackend(kill_grace=0.5, pool=pool)
        )
        result = executor.run(sleeper_block())
        assert result.value == "Q"
        assert pool.leases_granted > 0


# ----------------------------------------------------------------------
# the arena: publish once, map zero-copy, leave nothing behind

SPACE = 512 * 1024
REGION_PAGE, REGION_PAGES = 32, 64
STEP_PAGE = 100


class _Step:
    """Picklable arm: read inherited state, then commit the next step.

    Reads the variable the previous block committed and the preloaded
    region (so a wrong or stale page image changes the returned digest),
    then binds two variables and stamps one fresh page per step.
    """

    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __call__(self, ctx):
        space = ctx.space
        step = ctx.get("step", 0)
        region = space.read(
            REGION_PAGE * space.page_size, REGION_PAGES * space.page_size
        )
        seen = hashlib.sha256(region).hexdigest()
        ctx.sleep(self.seconds)
        ctx.put("step", step + 1)
        ctx.put("seen", seen)
        space.write(
            (STEP_PAGE + step) * space.page_size,
            f"{self.name}@{step}".encode(),
        )
        return (self.name, step, seen)


def step_block():
    return [
        Alternative("quick", body=_Step("quick", 0.01)),
        Alternative("slow", body=_Step("slow", 0.3)),
    ]


def preload(parent, tag, pages=REGION_PAGES):
    size = parent.space.page_size
    for page in range(pages):
        parent.space.write(
            (REGION_PAGE + page) * size,
            f"{tag}-{page}".encode().ljust(size, b"#"),
        )
    parent.space.table.clear_dirty()
    return parent


def page_digest(space):
    digest = hashlib.sha256()
    for vpn in range(space.num_pages):
        digest.update(space.table.read_page(vpn))
    return digest.hexdigest()


def observe(result, parent):
    """Everything a caller can see of one concluded block."""
    space = parent.space
    return (
        result.value,
        result.winner.name,
        {name: space.get(name) for name in space.names()},
        page_digest(space),
    )


def pooled_executor(pool):
    return ConcurrentExecutor(
        backend=ProcessBackend(kill_grace=0.5, pool=pool), space_size=SPACE
    )


def serial_executor():
    return ConcurrentExecutor(backend=SerialBackend(), space_size=SPACE)


@pytest.mark.skipif(not shm_available(), reason="no shared memory")
class TestArena:
    """The arena's rely/guarantee: slots are write-once, frame ids are
    never reused, a lease pins its arena until settled."""

    def test_evolving_parent_publishes_only_what_was_committed(self, pool):
        """(a) Eight blocks on one parent, block for block against serial."""
        pooled, serial = pooled_executor(pool), serial_executor()
        parent = preload(pooled.new_parent(), "inherited")
        reference = preload(serial.new_parent(), "inherited")
        committed = None
        for block in range(8):
            before = pool.pages_published
            result = pooled.run(step_block(), parent=parent)
            expected = serial.run(step_block(), parent=reference)
            assert observe(result, parent) == observe(expected, reference)
            assert result.value[1] == block
            assert result.page_transport == "shm"
            published = pool.pages_published - before
            if block == 0:
                assert published == REGION_PAGES  # once, not per arm
            else:
                assert published == committed
            committed = result.winner.pages_written
        assert pool.arena_rotations == 0
        assert pool.fallbacks == 0

    def test_two_stores_never_read_each_others_pages(self, pool):
        """(b) Colliding frame ids from separate stores stay apart."""
        executors = [pooled_executor(pool), pooled_executor(pool)]
        parents = [
            preload(executor.new_parent(), tag)
            for executor, tag in zip(executors, ("left", "right"))
        ]
        assert parents[0].space.store is not parents[1].space.store
        assert (
            parents[0].space.table.frame_of(REGION_PAGE)
            == parents[1].space.table.frame_of(REGION_PAGE)
        )
        serial = serial_executor()
        references = [
            preload(serial.new_parent(), tag) for tag in ("left", "right")
        ]
        for _ in range(3):
            for executor, parent, reference in zip(
                executors, parents, references
            ):
                result = executor.run(step_block(), parent=parent)
                expected = serial.run(step_block(), parent=reference)
                assert observe(result, parent) == observe(expected, reference)
        region = REGION_PAGE * parents[0].space.page_size
        assert parents[0].space.read(region, 8) == b"left-0##"
        assert parents[1].space.read(region, 8) == b"right-0#"
        assert pool.arena_rotations == 0

    def test_full_arena_is_retired_whole_and_replaced(
        self, pool, monkeypatch
    ):
        """(c) Rotation mid-sequence: same bytes, one segment after."""
        monkeypatch.setattr(pool_module, "ARENA_MIN_SLOTS", 8)
        segments = own_segments()
        pooled, serial = pooled_executor(pool), serial_executor()
        parents, references = [], []
        for tag, pages in (("five", 5), ("six", 6)):
            parents.append(preload(pooled.new_parent(), tag, pages))
            references.append(preload(serial.new_parent(), tag, pages))
        for _ in range(2):
            for parent, reference in zip(parents, references):
                result = pooled.run(step_block(), parent=parent)
                expected = serial.run(step_block(), parent=reference)
                assert observe(result, parent) == observe(expected, reference)
        assert pool.arena_rotations >= 1
        assert pool.inflight == 0
        for parent in parents:
            # Drops the frames adopted from the winners' response slabs.
            parent.space.release()
        # The live arena and the response slabs; no retired arena.
        assert pool._ledger.arena.slab.name in assert_only_the_pools_own(
            pool, segments
        )
        pool.shutdown()
        assert new_segments(segments) == set()

    def test_worker_killed_after_publish_leaves_only_the_arena(self, pool):
        """(d) A SIGKILLed worker costs a respawn, not a page or a segment."""
        segments = own_segments()
        pooled, serial = pooled_executor(pool), serial_executor()
        parent = preload(pooled.new_parent(), "inherited")
        reference = preload(serial.new_parent(), "inherited")
        first = pooled.run(step_block(), parent=parent)
        assert observe(first, parent) == observe(
            serial.run(step_block(), parent=reference), reference
        )
        injector = FaultInjector(seed=0).arm_sigkill(arms=[0], times=1)
        with injected(injector):
            survivor = pooled.run(step_block(), parent=parent)
        assert survivor.winner.name == "slow"
        assert pool.respawns >= 1
        serial.run(step_block()[1:], parent=reference)  # "slow" alone
        assert observe(survivor, parent)[2:] == observe(survivor, reference)[2:]
        # The respawned worker maps the arena afresh and reads it right.
        third = pooled.run(step_block(), parent=parent)
        expected = serial.run(step_block(), parent=reference)
        assert observe(third, parent) == observe(expected, reference)
        pool.drain()
        assert pool.parked == pool.size
        parent.space.release()
        # The arena and the response slabs, nothing of the dead worker's.
        assert pool._ledger.arena.slab.name in assert_only_the_pools_own(
            pool, segments
        )
        pool.shutdown()
        assert new_segments(segments) == set()

    def test_attach_fault_ships_a_non_empty_parent_inline(self, pool):
        """(e) No response slab, no arena: page images ride the pipe."""
        pooled, serial = pooled_executor(pool), serial_executor()
        parent = preload(pooled.new_parent(), "inherited")
        reference = preload(serial.new_parent(), "inherited")
        injector = FaultInjector(seed=0).shm_attach_fail(times=None)
        with injected(injector):
            result = pooled.run(step_block(), parent=parent)
        expected = serial.run(step_block(), parent=reference)
        assert observe(result, parent) == observe(expected, reference)
        assert result.page_transport == "pipe"
        assert pool.leases_granted > 0
        assert pool.pages_published == 0


@pytest.mark.skipif(not shm_available(), reason="no shared memory")
class TestWorkerWorld:
    """The worker's half of a lease, driven in-process: it maps what it
    is shown, refuses what cannot be right, and rebinds cleanly."""

    PAGE = 64

    @pytest.fixture
    def arena(self):
        slab = ShmSlab.create(4, self.PAGE)
        for slot, fill in enumerate((b"a", b"b", b"c")):
            slab.write_slot(slot, fill * self.PAGE)
        yield slab
        slab.dispose()

    def message(self, arena, vpns, slots):
        return {
            "page_size": self.PAGE,
            "space_size": 16 * self.PAGE,
            "arena": (arena.name, arena.slots, arena.slot_size),
            "snapshot_vpns": vpns,
            "snapshot_slots": slots,
            "snapshot_inline": {},
        }

    def test_maps_slots_without_copying_and_copies_on_write(self, arena):
        world = pool_module._WorkerWorld()
        space = world.build_space(self.message(arena, (3, 5), [0, 1]))
        frame = space.table.frame_of(3)
        assert world.store.is_external(frame)
        assert space.read(3 * self.PAGE, self.PAGE) == b"a" * self.PAGE
        assert space.read(5 * self.PAGE, self.PAGE) == b"b" * self.PAGE
        assert space.pages_written == 0
        space.write(3 * self.PAGE, b"z")
        assert space.table.dirty_pages == {3}
        assert bytes(arena.slot_view(0)) == b"a" * self.PAGE
        space.release()
        # The next lease finds the slot already adopted.
        again = world.build_space(self.message(arena, (7,), [0]))
        assert again.table.frame_of(7) == frame
        again.release()
        assert world.store.live_frames == len(world.frames) == 2
        world.unbind()
        assert world.store.live_frames == 0

    @pytest.mark.parametrize(
        "vpns, slots, error",
        [
            ((16,), [0], ValueError),  # page outside the space
            ((-1,), [0], ValueError),
            ((1, 2), [0], ValueError),  # pages and slots disagree
            ((1,), [4], IndexError),  # slot outside the arena
        ],
    )
    def test_refuses_a_lease_that_cannot_be_right(
        self, arena, vpns, slots, error
    ):
        world = pool_module._WorkerWorld()
        with pytest.raises(error):
            world.build_space(self.message(arena, vpns, slots))
        assert world.store.live_frames == len(world.frames)  # no space left
        world.unbind()

    def test_another_arena_name_drops_frames_and_mapping(self, arena):
        world = pool_module._WorkerWorld()
        world.build_space(self.message(arena, (1, 2), [0, 1])).release()
        old = world.arena
        other = ShmSlab.create(2, self.PAGE)
        try:
            other.write_slot(0, b"o" * self.PAGE)
            space = world.build_space(self.message(other, (1,), [0]))
            assert space.read(self.PAGE, self.PAGE) == b"o" * self.PAGE
            assert old.closed and world.arena.name == other.name
            assert list(world.frames) == [0]
            space.release()
            assert world.store.live_frames == 1
            world.unbind()
        finally:
            other.dispose()


# ----------------------------------------------------------------------
# response slabs: mapped once, lent per lease, reissued when drained

PAGE = 4096


class _Rewrite:
    """Picklable arm: each block overwrites the *same* pages, so the
    parent lets go of the previous winner's slab when it adopts the next
    one's (``_Step`` stamps a fresh page per block and pins them all)."""

    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __call__(self, ctx):
        step = ctx.get("step", 0)
        ctx.sleep(self.seconds)
        ctx.put("step", step + 1)
        ctx.space.write(
            STEP_PAGE * ctx.space.page_size, f"{self.name}@{step}".encode()
        )
        return (self.name, step)


def rewrite_block():
    return [
        Alternative("quick", body=_Rewrite("quick", 0.0)),
        Alternative("slow", body=_Rewrite("slow", 0.05)),
    ]


class _DiesShipping:
    """A value whose pickling SIGKILLs the process: the arm dies inside
    ``write_record``, after its dirty pages went into the slab."""

    def __reduce__(self):
        os.kill(os.getpid(), signal.SIGKILL)


class _WritesThenReturns:
    def __init__(self, value, seconds=0.0):
        self.value = value
        self.seconds = seconds

    def __call__(self, ctx):
        ctx.space.write(0, b"dirty")
        ctx.sleep(self.seconds)
        return self.value


class _WritesThenDiesShipping:
    def __call__(self, ctx):
        ctx.space.write(0, b"dirty")
        return _DiesShipping()  # made here: the lease must still pickle


class _NestedPooledRace:
    """Picklable arm: inside the pooled worker, build a pool of its own,
    race one block on it, and report what that pool started with."""

    def __call__(self, ctx):
        inner = WorldPool(size=1)
        try:
            began_with = [slab.name for slab in inner.owned_slabs()]
            executor = ConcurrentExecutor(
                backend=ProcessBackend(kill_grace=0.5, pool=inner),
                space_size=SPACE,
            )
            parent = executor.new_parent()
            result = executor.run(
                [Alternative("inner", body=_WritesThenReturns("deep"))],
                parent=parent,
            )
            report = {
                "pid": os.getpid(),
                "value": result.value,
                "transport": result.page_transport,
                "began_with": began_with,
                "lent": [slab.name for slab in inner.owned_slabs()],
                "created": inner.response_slabs_created,
                "reused": inner.response_slabs_reused,
            }
            parent.space.release()
        finally:
            inner.shutdown()
        ctx.put("nested", report["value"])
        return report


def handmade_task(space, body, index=0):
    """A real ArmTask without an executor: enough for ``pool.lease``."""
    name = f"arm-{index}"
    context = AltContext(
        space, rng=random.Random(index), alt_index=index + 1, name=name,
        process=None, token=CancellationToken(),
    )
    return ArmTask(
        index=index, name=name, run=lambda: (True, index, ""),
        context=context, alternative=Alternative(name, body=body),
        rng_seed=index,
    )


def collect(lease, timeout=10.0):
    """The one record a leased worker ships, read off its result pipe."""
    reader = wire.RecordReader()
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        ready, _, _ = select.select([lease.result_fd], [], [], 0.1)
        if ready:
            records = reader.feed(os.read(lease.result_fd, 65536))
            if records:
                assert not reader.pending and not reader.corrupt
                return records[0]
    raise AssertionError("the leased worker never shipped a record")


def record_leases(pool, monkeypatch):
    """Every lease the pool grants from here on, as ``(arm index, lease)``."""
    granted = []
    lease = pool.lease

    def recording(task, *args, **kwargs):
        got = lease(task, *args, **kwargs)
        if got is not None:
            granted.append((task.index, got))
        return got

    monkeypatch.setattr(pool, "lease", recording)
    return granted


def response_segments(pool, before):
    arena = pool._ledger.arena
    arena = None if arena is None else arena.slab.name
    return new_segments(before) - {arena}


@pytest.mark.skipif(not shm_available(), reason="no shared memory")
class TestResponseSlabs:
    """The fourth invariant: a response slab is named in a lease only
    while nobody but the pool references it."""

    def test_fifty_blocks_reuse_a_handful_of_segments(self, pool):
        """(a) One evolving parent, block for block against the
        sequential construct; segments do not grow with blocks."""
        segments = own_segments()
        pooled = pooled_executor(pool)
        sequential = SequentialExecutor(
            policy=OrderedPolicy(), space_size=SPACE
        )
        parent = preload(pooled.new_parent(), "inherited", pages=4)
        reference = preload(sequential.new_parent(), "inherited", pages=4)
        for block in range(50):
            result = pooled.run(rewrite_block(), parent=parent)
            expected = sequential.run(rewrite_block(), parent=reference)
            assert observe(result, parent) == observe(expected, reference)
            assert result.value == ("quick", block)
            assert result.page_transport == "shm"
            assert len(response_segments(pool, segments)) <= pool.size + 1
        assert pool.fallbacks == 0
        assert pool.response_slabs_created == len(
            response_segments(pool, segments)
        ) <= pool.size + 1
        assert (
            pool.response_slabs_created + pool.response_slabs_reused
            == pool.leases_granted == 100
        )
        assert "response_slabs_reused=" in repr(pool)

    def test_a_winners_slab_waits_for_the_world_that_adopted_it(
        self, pool, monkeypatch
    ):
        """(b) Not reissued while the adopting parent lives; reissued
        after it exits."""
        granted = record_leases(pool, monkeypatch)
        executor = pooled_executor(pool)
        first = executor.new_parent()
        won = executor.run(rewrite_block(), parent=first)
        pinned = next(
            lease.slab.name for index, lease in granted
            if index == won.winner.index
        )
        digest = page_digest(first.space)
        del granted[:]
        for _ in range(3):
            other = executor.new_parent()
            executor.run(rewrite_block(), parent=other)
            other.space.release()
        assert len(granted) == 6
        assert pinned not in {lease.slab.name for _, lease in granted}
        assert page_digest(first.space) == digest
        first.space.release()
        # The slab waits among the spares; a worker whose own slab is
        # pinned in turn takes it.
        del granted[:]
        keeper = executor.new_parent()
        executor.run(rewrite_block(), parent=keeper)
        executor.run(rewrite_block(), parent=executor.new_parent())
        assert pinned in {lease.slab.name for _, lease in granted}
        # The same block from the same start: the keeper reads what the
        # first parent read, whoever was lent which slab since.
        assert page_digest(keeper.space) == digest

    @pytest.mark.parametrize("fault", ["dies-shipping", "truncate", "hang"])
    def test_a_faulted_arms_slab_waits_for_the_reaper(
        self, pool, monkeypatch, fault
    ):
        """(c) Out of circulation until the worker that could still
        write it is reaped; nothing left after shutdown."""
        segments = own_segments()
        granted = record_leases(pool, monkeypatch)
        executor = pooled_executor(pool)
        parent = executor.new_parent()
        victim = (
            _WritesThenDiesShipping() if fault == "dies-shipping"
            else _WritesThenReturns("V")
        )
        block = [
            Alternative("victim", body=victim),
            Alternative("slow", body=_WritesThenReturns("S", 0.2)),
        ]
        refs_at_reap = []
        waitpid = os.waitpid

        def spying(pid, options):
            for index, lease in granted:
                if index == 0 and lease.pid == pid:
                    refs_at_reap.append(
                        next(
                            w.slab.refs
                            for w in pool._ledger.workers.values()
                            if w.proc.pid == pid
                        )
                    )
            return waitpid(pid, options)

        monkeypatch.setattr(os, "waitpid", spying)
        injector = FaultInjector(seed=0)
        if fault == "truncate":
            injector.pipe_truncate(arms=[0], times=1)
        elif fault == "hang":
            injector.arm_hang(arms=[0], times=1, duration=30.0)
        with injected(injector):
            result = executor.run(block, parent=parent)
        # A victim the race left behind at its commit (the hang) is the
        # pool's to reap, at its deadline.
        pool.drain()
        monkeypatch.setattr(os, "waitpid", waitpid)
        assert result.value == "S"
        assert pool.respawns == 1
        # Whenever the pool tried to reap the victim, its slab was still
        # somebody else's too: no lease could have named it.
        assert refs_at_reap and min(refs_at_reap) > 1
        lost = granted[0][1]
        assert lost.pid not in pool.worker_pids()
        assert lost.slab.closed
        heir = next(
            w for w in pool._ledger.workers.values()
            if w.slab.name == lost.slab.name
        )
        assert heir.slab.refs == 1
        second = executor.new_parent()
        again = executor.run(block[1:], parent=second)
        assert again.value == "S"
        assert granted[-1][1].slab.name == lost.slab.name
        pool.shutdown()
        # Only what the two live parents adopted is still there.
        assert len(new_segments(segments)) == 2
        parent.space.release()
        second.space.release()
        assert new_segments(segments) == set()

    def test_a_nested_pool_starts_with_no_slab(self, pool):
        """(d) A pool built inside an arm shares nothing with ours."""
        executor = pooled_executor(pool)
        pinning = executor.new_parent()
        executor.run(rewrite_block(), parent=pinning)
        executor.run(rewrite_block(), parent=executor.new_parent())
        assert pool._ledger.spares  # ours has slabs now, one of them set aside
        # Workers forked *now* inherit this pool, slabs and all, as a
        # forked arm or a nested race would.
        space = AddressSpace(PageStore(PAGE), SPACE)
        leases = {
            index: pool.lease(
                handmade_task(space, _WritesPage(0, index), index=index),
                time.perf_counter(),
            )
            for index in range(pool.size)
        }
        pool.finish(leases, clean=set())  # recycled: every worker an heir
        space.release()
        ours = {slab.name for slab in pool.owned_slabs()}
        assert len(ours) == 3
        parent = executor.new_parent()
        result = executor.run(
            [Alternative("nested", body=_NestedPooledRace())], parent=parent
        )
        report = result.value
        assert report["pid"] in pool.worker_pids()
        assert report["value"] == "deep" and report["transport"] == "shm"
        assert report["began_with"] == []
        assert (report["created"], report["reused"]) == (1, 0)
        assert len(report["lent"]) == 1 and not ours & set(report["lent"])
        assert report["lent"][0].startswith(
            f"{SLAB_PREFIX}_{report['pid']}_"
        )
        # The arm's pool unlinked what it made.
        assert orphaned_segments(f"{SLAB_PREFIX}_{report['pid']}_") == []
        assert parent.space.get("nested") == "deep"

    def test_a_lease_presents_the_spaces_slots_not_the_segments(self):
        """(e) 16, 1024 and 16 pages in turn on one worker."""
        pool = WorldPool(size=1)
        try:
            names = []
            for pages in (16, 1024, 16):
                space = AddressSpace(PageStore(PAGE), pages * PAGE)
                task = handmade_task(space.fork(), _WritesThenReturns("ok"))
                lease = pool.lease(task, time.perf_counter(), shm=True)
                names.append(lease.slab.name)
                assert lease.slab.slots == pages
                assert lease.slab.size == pages * PAGE
                record = collect(lease)
                assert record["pool_epoch"] == lease.epoch
                assert record["shm_slab"] == lease.slab.name
                assert record["shm_pages"] == [(0, 0)]
                pool.finish({0: lease}, {0})
                # A forged record naming a slot past the space: refused,
                # however much room the segment behind the handle has.
                with pytest.raises(PageApplyError):
                    space.apply_shm_pages(
                        ShmShipment(lease.slab, pairs=[(0, pages)])
                    )
                with pytest.raises(IndexError):
                    lease.slab.write_slot(pages, bytes(PAGE))
                space.apply_shm_pages(
                    ShmShipment(lease.slab, pairs=record["shm_pages"])
                )
                assert space.read(0, 5) == b"dirty"
                lease.slab.dispose()
                task.context.space.release()
                space.release()
            # Too small, replaced; roomy enough, kept.
            assert names[0] != names[1] == names[2]
            assert pool.response_slabs_created == 2
            assert pool.response_slabs_reused == 1
            (kept,) = pool.owned_slabs()
            assert (kept.slots, kept.refs) == (1024, 1)
        finally:
            pool.shutdown()

    def test_worlds_that_outlive_the_spare_set_cost_a_claim_not_a_leak(self):
        """More pinned slabs than spares: the oldest is left to the world
        that pins it, and the pool's own set stays at its bound."""
        segments = own_segments()
        pool = WorldPool(size=1)
        try:
            executor = pooled_executor(pool)
            block = [Alternative("only", body=_Rewrite("only", 0.0))]
            parents = [
                executor.new_parent() for _ in range(RESPONSE_SPARE_SLABS + 3)
            ]
            digests = []
            for parent in parents:
                executor.run(block, parent=parent)
                digests.append(page_digest(parent.space))
            bound = pool.size + RESPONSE_SPARE_SLABS
            assert len(pool.owned_slabs()) == bound
            assert pool.response_slabs_created == len(parents)
            assert len(new_segments(segments)) == len(parents)
            assert [page_digest(p.space) for p in parents] == digests
            for parent in parents:
                parent.space.release()
            assert len(assert_only_the_pools_own(pool, segments)) == bound
        finally:
            pool.shutdown()
        assert new_segments(segments) == set()

    def test_shutdown_leaves_a_pinned_slab_to_the_world_that_pins_it(
        self, pool, monkeypatch
    ):
        """(f) The pool drops its claim; the parent's exit unlinks."""
        segments = own_segments()
        granted = record_leases(pool, monkeypatch)
        executor = pooled_executor(pool)
        parent = executor.new_parent()
        won = executor.run(rewrite_block(), parent=parent)
        pinned = next(
            lease.slab.name for index, lease in granted
            if index == won.winner.index
        )
        digest = page_digest(parent.space)
        assert len(new_segments(segments)) == 2
        pool.shutdown()
        assert new_segments(segments) == {pinned}
        assert page_digest(parent.space) == digest
        assert parent.space.get("step") == 1
        parent.space.release()
        assert new_segments(segments) == set()


# ----------------------------------------------------------------------
# detached leases: the race returns at its commit, the pool hears the
# losers out

BIG_SPACE = 2 * 1024 * 1024
LATE_PAGES = 256


class _Deaf:
    """Picklable arm that never looks at its instruction: sleeps through
    it (``time.sleep`` is no cancellation point), then stamps ``pages``
    pages and returns -- too late, if a sibling won meanwhile."""

    def __init__(self, seconds, pages=1, started=None):
        self.seconds = seconds
        self.pages = pages
        self.started = started
        """A path created once the body runs: an arm told before it
        started never gets here (and is not deaf, just early)."""

    def __call__(self, ctx):
        if self.started is not None:
            open(self.started, "w").close()
        time.sleep(self.seconds)
        size = ctx.space.page_size
        for page in range(self.pages):
            ctx.space.write((STEP_PAGE + page) * size, b"late-%d" % page)
        ctx.put("late", True)
        return "late"


class _Counts:
    """Picklable arm that leaves a mark outside its world each time its
    body runs: one byte appended to a file."""

    def __init__(self, path, seconds=0.0, value="ran"):
        self.path = path
        self.seconds = seconds
        self.value = value

    def __call__(self, ctx):
        with open(self.path, "ab") as handle:
            handle.write(b"x")
        ctx.sleep(self.seconds)
        ctx.space.write(0, b"counted")
        return self.value


def runs_of(path):
    return os.path.getsize(path) if os.path.exists(path) else 0


def draining_workers(pool):
    """The draining workers' ledger entries: state, process, slab."""
    return list(pool._ledger.epochs(DRAINING).values())


def three_arm_block():
    return [
        Alternative("quick", body=_Rewrite("quick", 0.0)),
        Alternative("slow", body=_Rewrite("slow", 0.05)),
        Alternative("slower", body=_Rewrite("slower", 0.05)),
    ]


@pytest.mark.skipif(not shm_available(), reason="no shared memory")
class TestDetachedLeases:
    """The fifth invariant: from ``finish`` on, nobody but the pool reads
    a detached lease's result pipe, and its worker is not leased, its
    slab not lent, its arena not unlinked until it is settled."""

    def test_fifty_blocks_leave_every_worker_parked_after_drain(self, pool):
        """(a) One evolving parent, block for block against the
        sequential construct; the pool settles what the races left."""
        segments = own_segments()
        pooled = pooled_executor(pool)
        sequential = SequentialExecutor(
            policy=OrderedPolicy(), space_size=SPACE
        )
        parent = preload(pooled.new_parent(), "inherited", pages=4)
        reference = preload(sequential.new_parent(), "inherited", pages=4)
        for block in range(50):
            result = pooled.run(rewrite_block(), parent=parent)
            expected = sequential.run(rewrite_block(), parent=reference)
            assert observe(result, parent) == observe(expected, reference)
            assert result.value == ("quick", block)
            loser = result.outcome("slow")
            assert loser.status == "eliminated"
        assert pool.fallbacks == 0
        assert pool.respawns == 0
        pool.drain()
        assert (pool.inflight, pool.draining) == (0, 0)
        assert pool.parked == pool.size
        # Races did leave losers behind, and each was settled once.
        assert pool.drained_parked > 0
        assert pool.drained_recycled == 0
        parent.space.release()  # the last winner's frames
        assert_only_the_pools_own(pool, segments)

    def test_a_late_loser_changes_nothing_and_keeps_its_slab(
        self, pool, monkeypatch, tmp_path
    ):
        """(b) Its 256 pages land after the race returned: the parent
        never sees them, and until the pool has read its record the slab
        stays referenced -- no lease can name it."""
        started = str(tmp_path / "started")
        granted = record_leases(pool, monkeypatch)
        executor = ConcurrentExecutor(
            backend=ProcessBackend(kill_grace=10.0, pool=pool),
            space_size=BIG_SPACE,
        )
        sequential = SequentialExecutor(
            policy=OrderedPolicy(), space_size=BIG_SPACE
        )
        block = [
            Alternative("quick", body=_Rewrite("quick", 0.1)),
            Alternative(
                "deaf", body=_Deaf(1.0, pages=LATE_PAGES, started=started)
            ),
        ]
        parent = executor.new_parent()
        reference = sequential.new_parent()
        began = time.perf_counter()
        result = executor.run(block, parent=parent)
        assert time.perf_counter() - began < 0.8  # nobody waited for it
        assert os.path.exists(started)
        expected = sequential.run(block, parent=reference)
        seen = observe(result, parent)
        assert seen == observe(expected, reference)
        late = result.outcome("deaf")
        assert late.status == "eliminated"
        assert "termination instruction issued" in late.detail
        assert pool.draining == 1
        (worker,) = draining_workers(pool)
        lost = next(lease for index, lease in granted if index == 1)
        assert lost.pid == worker.proc.pid
        # Still somebody's: the handle is in the pool's custody, open.
        assert not lost.slab.closed
        assert worker.slab.name == lost.slab.name and worker.slab.refs == 2
        # Another race meanwhile is lent anything but that slab.
        del granted[:]
        other = executor.new_parent()
        executor.run(block[:1], parent=other)
        assert lost.slab.name not in {lease.slab.name for _, lease in granted}
        assert pool.draining == 1 and worker.state == DRAINING
        pool.drain()
        # It ran to the end and shipped every page -- into a slab nobody
        # had been lent meanwhile; the record was intact, the worker parks.
        assert (pool.drained_parked, pool.drained_recycled) == (1, 0)
        assert pool.respawns == 0
        assert worker.state == PARKED
        assert lost.slab.closed and worker.slab.refs == 1
        shipped = [
            worker.slab.read_slot(slot)[:5] for slot in range(LATE_PAGES + 8)
        ]
        assert shipped.count(b"late-") == LATE_PAGES
        assert observe(result, parent) == seen
        assert "late" not in parent.space.names()

    def test_a_record_too_long_for_the_pipe_is_not_silence(
        self, pool, tmp_path
    ):
        """(b) on the pipe transport: 256 pages do not fit the pipe, so
        the loser blocks in ``write`` until the pool reads.  A pool that
        gets round to it only after the deadline finds a worker that was
        never silent, reads it to the end, and parks it."""
        started = str(tmp_path / "started")
        executor = ConcurrentExecutor(
            backend=ProcessBackend(kill_grace=0.4, pool=pool),
            space_size=BIG_SPACE,
        )
        block = [
            Alternative("quick", body=_Rewrite("quick", 0.1)),
            Alternative(
                "deaf", body=_Deaf(0.2, pages=LATE_PAGES, started=started)
            ),
        ]
        parent = executor.new_parent()
        with injected(FaultInjector(seed=0).shm_attach_fail(times=None)):
            result = executor.run(block, parent=parent)
        assert result.value == ("quick", 0)
        assert os.path.exists(started)
        assert result.page_transport == "pipe"
        seen = observe(result, parent)
        (worker,) = draining_workers(pool)
        time.sleep(1.0)  # well past the deadline, one pipeful written
        assert pool.draining == 1
        assert pool.drain()
        assert (pool.drained_parked, pool.drained_recycled) == (1, 0)
        assert pool.respawns == 0
        assert worker.state == PARKED
        assert worker.proc.pid in pool.worker_pids()
        assert observe(result, parent) == seen
        assert "late" not in parent.space.names()

    @pytest.mark.parametrize("enforcer", ["lease", "drain", "shutdown"])
    def test_a_loser_that_ignores_the_instruction_is_killed_at_its_deadline(
        self, pool, enforcer, tmp_path
    ):
        """(c) Whoever next asks the pool for anything enforces it."""
        started = str(tmp_path / "started")
        segments = own_segments()
        executor = ConcurrentExecutor(
            backend=ProcessBackend(kill_grace=0.3, pool=pool),
            space_size=SPACE,
        )
        block = [
            Alternative("quick", body=_Rewrite("quick", 0.1)),
            Alternative("deaf", body=_Deaf(60.0, started=started)),
        ]
        parents = [executor.new_parent()]
        began = time.perf_counter()
        assert executor.run(block, parent=parents[0]).value == ("quick", 0)
        assert os.path.exists(started)
        (victim,) = [w.proc for w in draining_workers(pool)]
        if enforcer == "lease":
            # Two arms, one parked worker: the second lease waits for
            # the deadline, replaces the victim, and does not fork.
            parents.append(executor.new_parent())
            again = executor.run(rewrite_block(), parent=parents[1])
            assert again.value == ("quick", 0)
            assert pool.fallbacks == 0
        elif enforcer == "drain":
            pool.drain()
        else:
            pool.shutdown()
        assert time.perf_counter() - began < 20.0
        with pytest.raises(ProcessLookupError):
            os.kill(victim.pid, 0)
        assert victim.pid not in pool.worker_pids()
        assert pool.drained_recycled == 1
        assert pool.respawns == (0 if enforcer == "shutdown" else 1)
        pool.shutdown()
        for parent in parents:
            parent.space.release()
        assert new_segments(segments) == set()

    @pytest.mark.parametrize("fault", ["truncate", "corrupt"])
    def test_a_ship_fault_on_a_detached_arm_recycles_the_worker(
        self, pool, fault
    ):
        """(d) Bytes are not a record: a detached worker parks on one
        intact frame, and on nothing less."""
        executor = pooled_executor(pool)
        injector = FaultInjector(seed=0)
        if fault == "truncate":
            injector.pipe_truncate(arms=[1], times=1)
        else:
            injector.record_corrupt(arms=[1], times=1)
        with injected(injector):
            result = executor.run(rewrite_block(), parent=executor.new_parent())
        assert result.value == ("quick", 0)
        victims = [w.proc for w in draining_workers(pool)]
        pool.drain()
        # The faulted record was the detached loser's, not one the race
        # read (then ``finish`` would have recycled, and this is moot).
        assert len(victims) == 1 and pool.drained_recycled == 1
        assert pool.drained_parked == 0 and pool.respawns == 1
        assert victims[0].pid not in pool.worker_pids()
        assert pool.parked == pool.size
        again = executor.run(rewrite_block(), parent=executor.new_parent())
        assert again.value == ("quick", 0)

    def test_a_stale_epoch_on_a_detached_arm_recycles_the_worker(self):
        """(d) A record of an earlier lease, left unread on the pipe."""
        pool = WorldPool(size=1)
        try:
            space = AddressSpace(PageStore(PAGE), 16 * PAGE)
            start = time.perf_counter()
            first = pool.lease(
                handmade_task(space.fork(), _WritesThenReturns("old")),
                start, shm=True,
            )
            select.select([first.result_fd], [], [], 10.0)
            # Declared clean with its record still on the pipe: the
            # stale world the epoch echo exists for.
            pool.finish({0: first}, {0})
            first.slab.dispose()
            second = pool.lease(
                handmade_task(space.fork(), _WritesThenReturns("new", 0.2)),
                start, shm=True,
            )
            assert second.pid == first.pid
            assert pool.cancel(second, 5.0)
            pool.finish({0: second}, set(), detached={0})
            assert (pool.inflight, pool.draining) == (0, 1)
            pool.drain()
            assert (pool.drained_parked, pool.drained_recycled) == (0, 1)
            assert pool.respawns == 1
            assert second.pid not in pool.worker_pids()
            assert second.slab.closed
        finally:
            pool.shutdown()

    def test_a_lease_nobody_told_cannot_be_detached(self):
        """The pool takes only a told lease into its custody: one handed
        over without an instruction (so without a deadline) is settled
        the old way, and the handle the race gave up is disposed."""
        pool = WorldPool(size=1)
        try:
            space = AddressSpace(PageStore(PAGE), 16 * PAGE)
            lease = pool.lease(
                handmade_task(space.fork(), _WritesThenReturns("x", 30.0)),
                time.perf_counter(), shm=True,
            )
            pool.finish({0: lease}, set(), detached={0})
            assert (pool.inflight, pool.draining) == (0, 0)
            assert pool.respawns == 1 and pool.drained_recycled == 0
            assert lease.pid not in pool.worker_pids()
            assert lease.slab.closed
            assert [slab.refs for slab in pool.owned_slabs()] == [1]
        finally:
            pool.shutdown()

    def test_a_retired_arena_outlives_rotation_until_its_lease_is_settled(
        self, pool, monkeypatch, tmp_path
    ):
        """(e) The detached lease's pin is dropped at settle, not at
        ``finish``: its worker may still be reading the arena."""
        started = str(tmp_path / "started")
        monkeypatch.setattr(pool_module, "ARENA_MIN_SLOTS", 8)
        segments = own_segments()
        executor = ConcurrentExecutor(
            backend=ProcessBackend(kill_grace=10.0, pool=pool),
            space_size=SPACE,
        )
        five = preload(executor.new_parent(), "five", 5)
        six = preload(executor.new_parent(), "six", 6)
        block = [
            Alternative("quick", body=_Step("quick", 0.1)),
            Alternative("deaf", body=_Deaf(1.5, started=started)),
        ]
        executor.run(block, parent=five)
        assert os.path.exists(started)
        retired = pool._ledger.arena.slab.name
        assert pool.draining == 1
        executor.run(block[:1], parent=six)
        assert pool.arena_rotations == 1
        assert pool._ledger.arena.slab.name != retired
        assert pool.draining == 1  # still out, still pinning it
        assert retired in own_segments()
        pool.drain()
        assert pool.drained_parked == 1
        assert retired not in own_segments()
        five.space.release()
        six.space.release()
        assert_only_the_pools_own(pool, segments)

    def test_a_pool_as_wide_as_the_block_never_forks(self):
        """(f) k workers, k-arm blocks back to back: a lease that finds
        nobody parked waits for a draining worker."""
        pool = WorldPool(size=3)
        try:
            executor = pooled_executor(pool)
            sequential = SequentialExecutor(
                policy=OrderedPolicy(), space_size=SPACE
            )
            parent, reference = executor.new_parent(), sequential.new_parent()
            for _ in range(30):
                result = executor.run(three_arm_block(), parent=parent)
                expected = sequential.run(three_arm_block(), parent=reference)
                assert observe(result, parent) == observe(expected, reference)
            assert pool.leases_granted == 90
            assert pool.fallbacks == 0
            assert pool.respawns == 0
        finally:
            pool.shutdown()

    def test_an_instruction_issued_before_the_lease_is_read_still_lands(
        self, tmp_path
    ):
        """(g) The lost instruction: the bell rings while the worker has
        not got round to its lease.  The word is still there when it
        does, and the body never runs."""
        pool = WorldPool(size=1)
        counter = str(tmp_path / "runs")
        try:
            (pid,) = pool.worker_pids()
            space = AddressSpace(PageStore(PAGE), 16 * PAGE)
            os.kill(pid, signal.SIGSTOP)
            try:
                lease = pool.lease(
                    handmade_task(space.fork(), _Counts(counter, 5.0)),
                    time.perf_counter(), shm=True,
                )
                assert pool.cancel(lease, 10.0)
            finally:
                os.kill(pid, signal.SIGCONT)
            record = collect(lease)
            assert record["cancelled"] and not record["ok"]
            assert not record["abnormal"]
            assert "before it started" in record["detail"]
            assert "shm_pages" not in record and "dirty_pages" not in record
            assert pool.accepts(lease, record)
            assert record["told_before_start"]
            pool.finish({0: lease}, {0})
            lease.slab.dispose()
            assert runs_of(counter) == 0
            assert pool.respawns == 0 and pool.parked == 1
            # Asking whether a record is the lease's counts nothing; the
            # one who consumes it does -- here the drainer.
            assert pool.told_before_start == 0
            os.kill(pid, signal.SIGSTOP)
            try:
                lease = pool.lease(
                    handmade_task(space.fork(), _Counts(counter, 5.0)),
                    time.perf_counter(), shm=True,
                )
                assert pool.cancel(lease, 10.0)
                pool.finish({0: lease}, set(), detached={0})
            finally:
                os.kill(pid, signal.SIGCONT)
            assert pool.drain()
            assert (pool.told_before_start, pool.drained_parked) == (1, 1)
            assert runs_of(counter) == 0 and pool.respawns == 0
        finally:
            pool.shutdown()

    def test_a_stale_bell_cannot_hit_a_later_lease(self, tmp_path):
        """(g) An instruction written for epoch E never cancels E+1 on
        the same worker, however often the bell rings."""
        pool = WorldPool(size=1)
        counter = str(tmp_path / "runs")
        try:
            space = AddressSpace(PageStore(PAGE), 16 * PAGE)
            start = time.perf_counter()
            first = pool.lease(
                handmade_task(space.fork(), _Counts(counter, 5.0)),
                start, shm=True,
            )
            assert pool.cancel(first, 10.0)
            assert collect(first)["cancelled"]
            pool.finish({0: first}, {0})
            first.slab.dispose()
            # Refused once the lease is settled: the board keeps epoch E.
            assert not pool.cancel(first, 10.0)
            second = pool.lease(
                handmade_task(space.fork(), _Counts(counter, 0.3, "second")),
                start, shm=True,
            )
            assert second.pid == first.pid
            assert second.epoch == first.epoch + 1
            board_word = pool_module._WORD.unpack_from(pool._board, 0)[0]
            assert board_word == first.epoch
            for _ in range(5):
                os.kill(second.pid, signal.SIGTERM)  # a bare bell
                time.sleep(0.02)
            record = collect(second)
            assert record["ok"] and not record["cancelled"]
            assert record["value"] == "second"
            assert "told_before_start" not in record
            pool.finish({0: second}, {0})
            second.slab.dispose()
            assert runs_of(counter) >= 1
        finally:
            pool.shutdown()

    def test_the_pre_body_check_never_cancels_the_token_itself(
        self, monkeypatch
    ):
        """(h) Cancelling is the handler's business.  Told before it
        starts, the worker's own flow raises ``Eliminated`` and leaves
        the token alone: a cancel made there, with the bell ringing
        inside it, is what deadlocked the prototype's workers on a
        ``threading.Event``."""
        cancels = []

        class Watched(process_module._BellToken):
            __slots__ = ()

            def cancel(self):
                cancels.append(True)
                super().cancel()

        monkeypatch.setattr(pool_module, "_BellToken", Watched)
        read_fd, write_fd = os.pipe()
        wake = os.pipe()
        try:
            world = pool_module._WorkerWorld()
            message = {
                "kind": "lease", "epoch": 7, "index": 0, "name": "arm",
                "alternative": Alternative("arm", body=_WritesThenReturns(1)),
                "rng_seed": 0, "space_size": 16 * PAGE, "page_size": PAGE,
                "arena": None, "snapshot_vpns": (), "snapshot_slots": [],
                "snapshot_inline": {}, "slab_name": None, "slab_slots": None,
                "slab_slot_size": None, "start": time.perf_counter(),
                "pre_fault": None, "ship_fault": None, "trace_block": None,
            }
            pool_module._serve_lease(
                message, write_fd, world, told=lambda: 7, wake=wake,
            )
            (record,) = wire.RecordReader().feed(os.read(read_fd, 65536))
        finally:
            for fd in (read_fd, write_fd, *wake):
                os.close(fd)
        assert record["cancelled"] and record["told_before_start"]
        assert record["pool_epoch"] == 7
        assert cancels == []
        assert world.token is None

    def test_a_bell_token_is_cancelled_from_the_handler_of_its_waiter(self):
        """(h) The handler runs on the thread that sleeps on the token:
        it must wake it, from wherever in ``wait`` the bell finds it."""
        wake = os.pipe()
        for fd in wake:
            os.set_blocking(fd, False)
        token = process_module._BellToken(*wake)
        previous = signal.signal(
            signal.SIGUSR1, lambda signum, frame: token.cancel()
        )
        try:
            assert token.wait(0.01) is False and not token.cancelled
            threading.Timer(
                0.05, os.kill, (os.getpid(), signal.SIGUSR1)
            ).start()
            began = time.perf_counter()
            assert token.wait(30.0) is True
            assert time.perf_counter() - began < 5.0
            assert token.cancelled
            assert token.wait(30.0) is True  # and stays so, at once
            # A bell before the wait is not lost either.
            again = process_module._BellToken(*wake)
            os.read(wake[0], 4096)
            again.cancel()
            assert again.wait(30.0) is True
        finally:
            signal.signal(signal.SIGUSR1, previous)
            for fd in wake:
                os.close(fd)

    def test_bells_during_the_pre_body_check_never_wedge_a_worker(self):
        """(h) A thousand tight blocks: every loser is told while it is
        somewhere between its lease and its body."""
        pool = WorldPool(size=4)
        try:
            executor = ConcurrentExecutor(
                backend=ProcessBackend(kill_grace=2.0, pool=pool),
                space_size=16 * PAGE,
            )
            block = [
                Alternative(name, body=_WritesThenReturns(name))
                for name in ("a", "b", "c")
            ]
            for _ in range(1000):
                parent = executor.new_parent()
                assert executor.run(block, parent=parent).value in "abc"
                executor.manager.exit(parent, notify=False)
            pool.drain()
            assert (pool.inflight, pool.draining) == (0, 0)
            assert pool.parked == pool.size
            assert pool.fallbacks == 0
            # A worker wedged on its own token lock would have sat out
            # its deadline and been replaced.
            assert pool.respawns == 0 and pool.drained_recycled == 0
            assert pool.told_before_start > 0
            assert "told_before_start=" in repr(pool)
        finally:
            pool.shutdown()


def parked_pids(pool):
    return {
        worker.proc.pid for worker in pool._ledger.workers.values()
        if worker.state == PARKED
    }


def record_turns(pool, monkeypatch):
    """Every drain turn the pool takes from here on, as its patience."""
    turns = []
    hear_out = pool._hear_out

    def recording(patience):
        turns.append(patience)
        hear_out(patience)

    monkeypatch.setattr(pool, "_hear_out", recording)
    return turns


class _Returns:
    """Picklable arm that writes nothing, so no world pins its slab: it
    closes at once with ``closed``, or sleeps and returns ``value``."""

    def __init__(self, seconds, value=None, closed=False):
        self.seconds = seconds
        self.value = value
        self.closed = closed

    def __call__(self, ctx):
        if self.closed:
            ctx.fail("closed")
        ctx.sleep(self.seconds)
        return self.value


class _DrawsRng:
    """Picklable arm that returns the first draw of its context's RNG."""

    def __call__(self, ctx):
        return ctx.rng.random()


@pytest.mark.skipif(not shm_available(), reason="no shared memory")
class TestDrainPlacement:
    """Hearing the last block's losers is selection work: a lease that a
    parked worker can grant takes no drain turn, ``finish`` takes none,
    and the race takes one without waiting once its arms are running."""

    def test_losers_are_heard_after_the_launch_not_before_it(
        self, monkeypatch
    ):
        pool = WorldPool(size=4)
        try:
            space = AddressSpace(PageStore(PAGE), 16 * PAGE)
            old = {
                index: pool.lease(
                    handmade_task(
                        space.fork(), _WritesThenReturns("old", 30.0), index
                    ),
                    time.perf_counter(), shm=True,
                )
                for index in (0, 1)
            }
            for lease in old.values():
                assert pool.cancel(lease, grace=10.0)
            pool.finish(old, set(), detached=set(old))
            losers = {lease.pid for lease in old.values()}
            # Both losers have written their records; nobody heard them.
            pending = {lease.result_fd for lease in old.values()}
            while pending:
                ready, _, _ = select.select(list(pending), [], [], 10.0)
                assert ready, "a told loser never reported"
                pending.difference_update(ready)
            assert len(draining_workers(pool)) == 2

            events = []
            write_all, finish = wire.write_all, pool.finish
            hear_out = pool._hear_out

            def writing(fd, data):
                events.append("write")
                return write_all(fd, data)

            def hearing(patience):
                events.append("turn")
                hear_out(patience)

            def finishing(*args, **kwargs):
                events.append("finish")
                try:
                    return finish(*args, **kwargs)
                finally:
                    events.append("finished")

            monkeypatch.setattr(wire, "write_all", writing)
            monkeypatch.setattr(pool, "_hear_out", hearing)
            monkeypatch.setattr(pool, "finish", finishing)
            block = [
                Alternative("slow", body=_Sleeper("slow", 5.0, "S")),
                Alternative("slower", body=_Sleeper("slower", 5.0, "T")),
                Alternative("quick", body=_Sleeper("quick", 0.0, "Q")),
            ]
            assert pooled_executor(pool).run(block).value == "Q"
            # Two parked workers take the first two arms with no turn;
            # the third finds nobody parked and hears both old losers.
            assert events == [
                "write", "write", "turn", "write", "finish", "finished",
            ]
            assert losers <= parked_pids(pool)
            assert pool.drained_parked == 2
            assert (pool.respawns, pool.fallbacks) == (0, 0)
        finally:
            pool.shutdown()

    def test_a_wide_pool_never_waits_and_reuses_a_few_warm_workers(
        self, monkeypatch
    ):
        """Eight workers, 3-arm blocks back to back, each leaving one
        loser to the pool: it is heard by the next race without a waiting
        turn, in time to be leased again by the one after, so a handful
        of warm workers serve every lease.  A pool that heard its losers
        only when it ran out of parked workers would rotate through all
        eight."""
        pool = WorldPool(size=8)
        try:
            executor = pooled_executor(pool)
            block = [
                Alternative("closed", body=_Returns(0.0, closed=True)),
                Alternative("quick", body=_Returns(0.01, "Q")),
                Alternative("slow", body=_Returns(5.0, "S")),
            ]
            turns = record_turns(pool, monkeypatch)
            granted = record_leases(pool, monkeypatch)
            for _ in range(40):
                assert executor.run(block).value == "Q"
            assert set(turns) <= {0.0}
            warm = {lease.pid for _, lease in granted[3 * 10:]}
            assert len(warm) <= 4, len(warm)
            assert (pool.respawns, pool.fallbacks) == (0, 0)
        finally:
            pool.shutdown()

    def test_a_pooled_race_builds_no_rng_in_the_coordinator(
        self, pool, monkeypatch
    ):
        built = []

        class Counting(random.Random):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(random, "Random", Counting)
        assert pooled_executor(pool).run(sleeper_block()).value == "Q"
        assert pool.fallbacks == 0
        assert built == []

    def test_a_pooled_body_draws_the_executor_seeded_stream(self, pool):
        """The worker builds the arm's RNG from the lease's seed, the
        stream the coordinator's context would have drawn."""
        executor = ConcurrentExecutor(
            backend=ProcessBackend(kill_grace=0.5, pool=pool),
            space_size=SPACE, seed=7,
        )
        value = executor.run([Alternative("draws", body=_DrawsRng())]).value
        assert pool.fallbacks == 0
        assert value == random.Random(7 * 1000003).random()


class ResponseSlabMachine(RuleBasedStateMachine):
    """Lease / win / lose / kill / detach / drain / deadline-expires /
    exit-parent / shutdown in any order on a real pool: *never issued
    while pinned*, *names never reused*, *segments <= bound + pinned*;
    and for a lease the race left to the pool: *a draining worker is
    never leased*, *its slab never lent*, *exactly one settle per
    epoch*."""

    PAGES = 16
    leases = Bundle("leases")
    deaf_leases = Bundle("deaf_leases")
    parents = Bundle("parents")

    def __init__(self):
        super().__init__()
        self.baseline = own_segments()
        self.pool = WorldPool(size=2)
        self.closed = False
        self.outstanding = 0
        self.handles = []  # every handle a lease ever carried
        self.spaces = []
        self.arenas = set()
        self.seen, self.gone = set(), set()
        self.scratch = tempfile.TemporaryDirectory()
        self.deaf = {}  # epoch -> lease: granted, not yet out of time
        self.expired = []  # deaf leases handed over with no time left
        self.detached = {}  # epoch -> lease, for every lease ever detached
        self.settles = {}  # epoch -> times the pool settled it
        settle = self.pool._ledger.settle

        def counting(epoch, outcome, detached=False):
            actions = settle(epoch, outcome, detached)
            if detached and actions:
                self.settles[epoch] = self.settles.get(epoch, 0) + 1
            return actions

        self.pool._ledger.settle = counting

    def teardown(self):
        for space in self.spaces:
            space.release()
        # A detached lease's handle is the pool's to dispose.
        kept = {
            id(r.handle) for r in self.pool._ledger.epochs(DRAINING).values()
        }
        for handle in self.handles:
            if id(handle) not in kept:
                handle.dispose()
        self.silence_the_deaf()
        self.pool.shutdown()
        self.scratch.cleanup()
        assert all(handle.closed for handle in self.handles)
        assert own_segments() == self.baseline

    def silence_the_deaf(self):
        """Hygiene, not behaviour: a worker asleep for a minute would
        sit out the two seconds ``shutdown`` gives it to say goodbye."""
        for lease in self.deaf.values():
            try:
                os.kill(lease.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    # -- what the test holds ---------------------------------------------

    def referenced(self):
        """Names of slabs something outside the pool still references."""
        return {h.name for h in self.handles if not h.closed}

    def settle(self, lease, clean):
        self.pool.finish({lease.index: lease}, {lease.index} if clean else set())
        self.outstanding -= 1
        lease.world.release()
        self.spaces.remove(lease.world)

    # -- rules -------------------------------------------------------------

    @initialize(target=parents)
    def first_parent(self):
        return self.new_parent()

    @rule(target=parents)
    def new_parent(self):
        space = AddressSpace(PageStore(PAGE), self.PAGES * PAGE)
        self.spaces.append(space)
        return space

    def grant(self, parent, body):
        world = parent.fork()
        self.spaces.append(world)
        lease = self.pool.lease(
            handmade_task(world, body, index=self.outstanding),
            time.perf_counter(), shm=True,
        )
        assert lease is not None and lease.slab is not None
        # Never issued while pinned: by a live world, an open lease, or
        # a detached one whose handle the pool still holds.
        assert lease.slab.name not in self.referenced()
        assert lease.slab.slots == self.PAGES
        # A draining worker is never leased.
        assert lease.pid not in {
            w.proc.pid for w in draining_workers(self.pool)
        }
        self.handles.append(lease.slab)
        self.outstanding += 1
        lease.world = world
        return lease

    @precondition(lambda self: not self.closed and self.outstanding < 2)
    @rule(target=leases, parent=parents, page=st.integers(0, 3))
    def lease(self, parent, page):
        return self.grant(parent, _WritesPage(page, stamp=len(self.handles)))

    @precondition(lambda self: not self.closed and self.outstanding < 2)
    @rule(target=deaf_leases, parent=parents)
    def lease_deaf(self, parent):
        """An arm that will ignore its instruction for good -- once it
        has started: told before that, it would just be early."""
        started = os.path.join(self.scratch.name, str(len(self.handles)))
        lease = self.grant(parent, _Deaf(60.0, started=started))
        self.deaf[lease.epoch] = lease
        deadline = time.monotonic() + 10.0
        while not os.path.exists(started):
            assert time.monotonic() < deadline, "the deaf arm never started"
            time.sleep(0.002)
        return lease

    def hand_over(self, lease, grace):
        """What ``run_arms`` does with a loser at the commit: tell it,
        and leave it -- handle and all -- to the pool."""
        if self.closed:
            return self.abandon(lease)
        assert self.pool.cancel(lease, grace)
        self.pool.finish({lease.index: lease}, set(), detached={lease.index})
        assert (
            lease.epoch in self.pool._ledger.epochs(DRAINING)
            or lease.epoch in self.settles
        )
        self.detached[lease.epoch] = lease
        self.outstanding -= 1
        lease.world.release()
        self.spaces.remove(lease.world)

    @rule(lease=consumes(leases))
    def detach(self, lease):
        self.hand_over(lease, grace=30.0)

    @rule(lease=consumes(deaf_leases))
    def deadline_expires(self, lease):
        """Told, silent, and out of time: whatever asks the pool next
        (a lease, a finish, a drain, the shutdown) replaces the worker."""
        if not self.closed:
            del self.deaf[lease.epoch]
            self.expired.append(lease)
        self.hand_over(lease, grace=0.0)

    @precondition(lambda self: not self.closed)
    @rule()
    def drain(self):
        self.pool.drain()
        assert self.pool.draining == 0
        for epoch, lease in self.detached.items():
            assert self.settles.get(epoch) == 1
            assert lease.slab.closed
        for lease in self.expired:
            assert lease.pid not in self.pool.worker_pids()

    @rule(lease=consumes(leases), parent=parents)
    def win(self, lease, parent):
        if self.closed:
            return self.abandon(lease)
        record = collect(lease)
        assert record["pool_epoch"] == lease.epoch
        assert record["shm_slab"] == lease.slab.name
        self.settle(lease, clean=True)
        if parent in self.spaces:
            parent.apply_shm_pages(
                ShmShipment(lease.slab, pairs=record["shm_pages"])
            )
            (vpn, _slot), = record["shm_pages"]
            assert parent.read(vpn * PAGE, 4) == b"page"
        lease.slab.dispose()

    @rule(lease=consumes(leases))
    def lose(self, lease):
        if self.closed:
            return self.abandon(lease)
        collect(lease)
        self.settle(lease, clean=True)
        lease.slab.dispose()

    @rule(lease=consumes(leases))
    def kill(self, lease):
        if self.closed:
            return self.abandon(lease)
        os.kill(lease.pid, signal.SIGKILL)
        self.settle(lease, clean=False)
        lease.slab.dispose()

    def abandon(self, lease):
        """The pool shut down under the lease: nothing to settle."""
        self.settle(lease, clean=False)
        lease.slab.dispose()

    @rule(parent=consumes(parents))
    def exit_parent(self, parent):
        if parent in self.spaces:
            self.spaces.remove(parent)
            parent.release()

    @precondition(lambda self: not self.closed)
    @rule()
    def shutdown(self):
        self.silence_the_deaf()
        self.pool.shutdown()
        self.closed = True
        assert not self.pool._ledger.epochs(DRAINING)

    # -- invariants --------------------------------------------------------

    @invariant()
    def a_detached_lease_is_the_pools_until_settled_once(self):
        pool = self.pool
        ledger = pool._ledger
        draining = ledger.epochs(DRAINING)
        assert not set(draining) & set(ledger.epochs(LEASED))
        assert set(draining) <= set(self.detached)
        for epoch, worker in draining.items():
            # Not parked, so never leased; handle open, so its slab
            # never lent.
            assert worker.state != PARKED
            assert not self.detached[epoch].slab.closed
            assert epoch not in self.settles
        assert all(count == 1 for count in self.settles.values())
        assert (
            pool.drained_parked + pool.drained_recycled == len(self.settles)
        )

    @invariant()
    def segments_are_bounded_and_names_are_new(self):
        if self.pool._ledger.arena is not None:
            self.arenas.add(self.pool._ledger.arena.slab.name)
        live = own_segments() - self.baseline
        assert not live & self.gone  # names never reused
        self.gone |= self.seen - live
        self.seen |= live
        response = live - self.arenas
        pinned = self.referenced()
        if self.closed:
            assert response <= pinned
        else:
            bound = self.pool.size + RESPONSE_SPARE_SLABS
            assert len(response) <= bound + len(pinned)
            assert len(response - pinned) <= bound


class _WritesPage:
    """Picklable arm: stamp one page (a write of the bytes already there
    would dirty nothing and ship nothing)."""

    def __init__(self, page, stamp):
        self.page = page
        self.stamp = stamp

    def __call__(self, ctx):
        ctx.space.write(
            self.page * ctx.space.page_size, f"page{self.stamp}".encode()
        )
        return self.page


ResponseSlabMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)
TestResponseSlabMachine = pytest.mark.skipif(
    not shm_available(), reason="no shared memory"
)(ResponseSlabMachine.TestCase)


class TestEnvironmentOptIn:
    def test_env_flag_attaches_the_default_pool(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORLD_POOL", "1")
        try:
            backend = get_backend("process")
            assert backend.pool is not None
            executor = ConcurrentExecutor(backend=backend)
            result = executor.run(sleeper_block())
            assert result.value == "Q"
            assert backend.pool.leases_granted > 0
        finally:
            shutdown_default_pool()

    def test_explicit_pool_none_beats_the_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORLD_POOL", "1")
        backend = get_backend("process", pool=None)
        assert backend.pool is None
        assert pool_module._default_pool is None  # never even constructed

    def test_sim_backend_is_oblivious_to_pooling(self, monkeypatch):
        """Satellite: SimBackend schedules ignore the pool entirely."""
        spec = get_block("four-arm-spread")
        baseline = spec.run(get_backend("sim"))
        monkeypatch.setenv("REPRO_WORLD_POOL", "1")
        pooled_env = spec.run(get_backend("sim"))
        assert pool_module._default_pool is None  # sim never builds a pool
        assert pooled_env.value == baseline.value
        assert pooled_env.winner == baseline.winner
        assert pooled_env.variables == baseline.variables
        assert pooled_env.space_bytes == baseline.space_bytes


# ----------------------------------------------------------------------
# one resolution per parent image, counted in calls

IMAGE_PAGES = 256


class _ReadsPage:
    """Picklable arm: the first bytes of one page, after ``seconds``."""

    def __init__(self, vpn, seconds=0.0):
        self.vpn = vpn
        self.seconds = seconds

    def __call__(self, ctx):
        ctx.sleep(self.seconds)
        return ctx.space.read(self.vpn * ctx.space.page_size, 16)


def count_walks(monkeypatch):
    """How often the parent walks a space, or the image it shares, for
    its non-zero pages."""
    walks = []
    for name in ("nonzero_frames", "image_frames"):
        walk = getattr(AddressSpace, name)

        def counting(space, _walk=walk):
            walks.append(space)
            return _walk(space)

        monkeypatch.setattr(AddressSpace, name, counting)
    return walks


def image(store, tag, pages=(3, 7, 11)):
    """A 256-page space with a few pages written."""
    space = AddressSpace(store, IMAGE_PAGES * PAGE)
    for vpn in pages:
        space.write(vpn * PAGE, f"{tag}-{vpn}".encode())
    space.table.clear_dirty()
    return space


@pytest.mark.skipif(not shm_available(), reason="no shared memory")
class TestLeaseImage:
    """A lease resolves its parent image once, not once per arm, and
    never reuses a resolution that does not fit."""

    def test_a_block_walks_its_image_once_and_the_next_block_not_at_all(
        self, monkeypatch
    ):
        pool = WorldPool(size=3)
        try:
            executor = ConcurrentExecutor(
                backend=ProcessBackend(kill_grace=0.5, pool=pool),
                space_size=IMAGE_PAGES * PAGE,
            )
            base = executor.new_parent()
            for vpn in range(0, IMAGE_PAGES, 8):
                base.space.write(vpn * PAGE, f"base-{vpn}".encode())
            base.space.table.clear_dirty()
            alternatives = [
                Alternative("first", body=_ReadsPage(8)),
                Alternative("second", body=_ReadsPage(16, 0.3)),
                Alternative("third", body=_ReadsPage(24, 0.3)),
            ]
            walks = count_walks(monkeypatch)
            for block in range(2):
                parent = executor.new_parent()
                parent.space.adopt(base.space.fork())
                granted = pool.leases_granted
                result = executor.run(alternatives, parent=parent)
                assert result.value == b"base-8".ljust(16, b"\0")
                assert pool.leases_granted - granted == 3
                assert len(walks) == (1 if block == 0 else 0)
                walks.clear()
                pool.drain()
                parent.space.release()
            assert pool.fallbacks == 0
            base.space.release()
        finally:
            pool.shutdown()

    def test_a_different_space_and_a_new_arena_are_resolved_afresh(
        self, monkeypatch
    ):
        monkeypatch.setattr(pool_module, "ARENA_MIN_SLOTS", 8)
        pool = WorldPool(size=1)
        store = PageStore(PAGE)
        base = image(store, "base")
        other = image(store, "base")
        other.write(7 * PAGE, b"mine")
        crowd = image(store, "crowd", pages=range(20, 26))
        spaces = []
        walks = count_walks(monkeypatch)

        def lease(space, vpn):
            task = handmade_task(space.fork(), _ReadsPage(vpn))
            spaces.append(task.context.space)
            lease = pool.lease(task, time.perf_counter(), shm=True)
            record = collect(lease)
            pool.finish({0: lease}, {0})
            lease.slab.dispose()
            return record["value"]

        try:
            assert lease(base, 7) == b"base-7".ljust(16, b"\0")
            assert len(walks) == 1
            assert lease(base, 3) == b"base-3".ljust(16, b"\0")
            assert len(walks) == 1  # the same image: no walk
            # Another map on the same store: resolved on its own, and
            # its worker reads its own page 7.
            assert lease(other, 7) == b"mine-7".ljust(16, b"\0")
            assert len(walks) == 2
            published = pool.pages_published
            # Six fresh frames overflow the eight-slot arena: it rotates,
            # and the base image is resolved -- and published -- again.
            assert lease(crowd, 20) == b"crowd-20".ljust(16, b"\0")
            assert pool.arena_rotations == 1
            assert len(walks) == 3
            assert lease(base, 11) == b"base-11".ljust(16, b"\0")
            assert len(walks) == 4
            assert pool.pages_published - published == 6 + 3
        finally:
            pool.shutdown()
            for space in spaces + [base, other, crowd]:
                space.release()

    def test_lease_messages_do_not_grow_with_the_parent(self, monkeypatch):
        """A 3-arm block over a 256-page parent sends lease messages the
        size of an empty parent's, give or take the arena's name and the
        record's slot range -- and so does a second block on the image."""
        sizes = _LeaseSizes()
        monkeypatch.setattr(pool_module, "pickle", sizes)
        pool = WorldPool(size=3)
        try:
            executor = ConcurrentExecutor(
                backend=ProcessBackend(kill_grace=0.5, pool=pool),
                space_size=IMAGE_PAGES * PAGE,
            )
            alternatives = [
                Alternative("first", body=_ReadsPage(8)),
                Alternative("second", body=_ReadsPage(16, 0.3)),
                Alternative("third", body=_ReadsPage(24, 0.3)),
            ]
            empty = executor.new_parent()
            assert executor.run(alternatives, parent=empty).value == bytes(16)
            base = executor.new_parent()
            for vpn in range(IMAGE_PAGES):
                base.space.write(vpn * PAGE, f"base-{vpn}".encode())
            blocks = [sizes.taken()]
            published = []
            for _ in range(2):
                parent = executor.new_parent()
                parent.space.adopt(base.space.fork())
                before = pool.pages_published
                result = executor.run(alternatives, parent=parent)
                assert result.value == b"base-8".ljust(16, b"\0")
                published.append(pool.pages_published - before)
                blocks.append(sizes.taken())
                pool.drain()
                parent.space.release()
            assert published == [IMAGE_PAGES, 0]
            assert [len(block) for block in blocks] == [3, 3, 3]
            floor = min(blocks[0])
            # Listing the image would add two numbers per page, >= 512
            # bytes; naming it adds the arena's name and two numbers.
            for block in blocks[1:]:
                assert max(block) - floor <= 64, blocks
            assert pool.fallbacks == 0
            empty.space.release()
            base.space.release()
        finally:
            pool.shutdown()

    def test_a_worker_builds_an_image_once_and_again_when_it_must(
        self, monkeypatch
    ):
        """One worker, one image: the table is built at the first lease
        and forked at the next; a SIGKILLed worker's heir and an arena
        rotation each build it afresh, and read it right."""
        monkeypatch.setattr(pool_module, "ARENA_MIN_SLOTS", 8)
        pool = WorldPool(size=1)
        store = PageStore(PAGE)
        base = image(store, "base")
        crowd = image(store, "crowd", pages=range(20, 30))
        spaces = []

        def lease(space, body):
            task = handmade_task(space.fork(), body)
            spaces.append(task.context.space)
            return pool.lease(task, time.perf_counter(), shm=True)

        def read(space, vpn):
            got = lease(space, _ReportsImage(vpn))
            record = collect(got)
            pool.finish({0: got}, {0})
            got.slab.dispose()
            return record["value"]

        try:
            pid, built, page = read(base, 7)
            assert page == b"base-7".ljust(16, b"\0")
            assert read(base, 3) == (pid, built, b"base-3".ljust(16, b"\0"))
            # Killed mid-lease: the heir has no table and builds one.
            doomed = lease(base, _ReportsImage(3, 30.0))
            os.kill(doomed.pid, signal.SIGKILL)
            pool.finish({0: doomed}, set())
            doomed.slab.dispose()
            assert pool.respawns == 1
            heir, built, page = read(base, 11)
            assert heir != pid and page == b"base-11".ljust(16, b"\0")
            assert read(base, 3)[:2] == (heir, built)
            # Ten fresh frames overflow the eight-slot arena: it rotates,
            # and the worker builds the base image's table again.
            assert read(crowd, 21)[2] == b"crowd-21".ljust(16, b"\0")
            assert pool.arena_rotations == 1
            again = read(base, 7)
            assert again[0] == heir and again[1] != built
            assert again[2] == b"base-7".ljust(16, b"\0")
            assert read(base, 3)[:2] == again[:2]
        finally:
            pool.shutdown()
            for space in spaces + [base, crowd]:
                space.release()

    def test_a_known_image_rotates_into_an_arena_it_fits(self, monkeypatch):
        """An overlay that overflows the arena of a known image replaces
        it with one sized for the whole world -- image, overlay and
        record -- not for the overlay alone: the lease still goes out
        through shared memory, and the worker builds the image again."""
        monkeypatch.setattr(pool_module, "ARENA_MIN_SLOTS", 8)
        pool = WorldPool(size=1)
        store = PageStore(PAGE)
        base = image(store, "base", pages=range(10))
        children = []
        for first in (40, 50):
            child = base.fork()
            for vpn in range(first, first + 6):
                child.write(vpn * PAGE, f"mine-{vpn}".encode())
            children.append(child)
        spaces = []

        def read(space, vpn):
            task = handmade_task(space.fork(), _ReportsImage(vpn))
            spaces.append(task.context.space)
            got = pool.lease(task, time.perf_counter(), shm=True)
            record = collect(got)
            pool.finish({0: got}, {0})
            got.slab.dispose()
            return record["value"]

        try:
            # The image's 10 pages and its record take 11 of 22 slots;
            # the first overlay's 6 fit beside them.
            pid, built, page = read(base, 3)
            assert page == b"base-3".ljust(16, b"\0")
            assert read(children[0], 41) == (
                pid, built, b"mine-41".ljust(16, b"\0")
            )
            assert pool.arena_rotations == 0
            # The second overlay's 6 do not fit in the 5 left; an arena
            # sized for them alone (12 slots) would not hold the 17 the
            # world needs, and the lease would ship every page inline.
            published = pool.pages_published
            again = read(children[1], 52)
            assert pool.arena_rotations == 1
            assert pool.pages_published - published == 10 + 6
            assert again[0] == pid and again[1] != built
            assert again[2] == b"mine-52".ljust(16, b"\0")
            assert read(children[1], 7)[2] == b"base-7".ljust(16, b"\0")
            assert pool.pages_published - published == 10 + 6
            assert pool.fallbacks == 0
        finally:
            pool.shutdown()
            for space in spaces + children + [base]:
                space.release()


    def test_an_image_page_the_arm_no_longer_sees_reads_as_zero(self):
        """An arm's table that hides an inherited page behind the zero
        frame sends the image's record plus that page, to zero-fill."""
        pool = WorldPool(size=1)
        store = PageStore(PAGE)
        base = image(store, "base")
        child = base.fork()
        child.table.set_frame(7, store.acquire_zero_frame())
        spaces = []

        def read(vpn):
            task = handmade_task(child.fork(), _ReadsPage(vpn))
            spaces.append(task.context.space)
            lease = pool.lease(task, time.perf_counter(), shm=True)
            record = collect(lease)
            pool.finish({0: lease}, {0})
            lease.slab.dispose()
            return record["value"]

        try:
            assert read(7) == bytes(16)
            assert read(3) == b"base-3".ljust(16, b"\0")
            assert base.read(7 * PAGE, 6) == b"base-7"
        finally:
            pool.shutdown()
            for space in spaces + [child, base]:
                space.release()


class _LeaseSizes:
    """Stands in for ``pickle`` in the pool module: records the size of
    every lease message the coordinator pickles."""

    HIGHEST_PROTOCOL = pickle.HIGHEST_PROTOCOL
    loads = staticmethod(pickle.loads)

    def __init__(self):
        self.sizes = []

    def dumps(self, message, protocol=None):
        blob = pickle.dumps(message, protocol=protocol)
        if isinstance(message, dict) and message.get("kind") == "lease":
            self.sizes.append(len(blob))
        return blob

    def taken(self):
        sizes, self.sizes = self.sizes, []
        return sizes


class _ReportsImage:
    """Picklable arm: which worker ran it, the uid of the image its
    table forks (the worker's frozen table of the parent image), and
    the first bytes of one page -- after ``seconds``."""

    def __init__(self, vpn, seconds=0.0):
        self.vpn = vpn
        self.seconds = seconds

    def __call__(self, ctx):
        ctx.sleep(self.seconds)
        space = ctx.space
        return (
            os.getpid(), space.table.image.uid,
            space.read(self.vpn * space.page_size, 16),
        )
