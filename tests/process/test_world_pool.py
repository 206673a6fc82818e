"""The pre-warmed world pool: transparency, recycling, and crash discipline.

Pooling is a pure optimization: every test here pins some facet of
'a pooled race is indistinguishable from a forked race' -- identical
outcomes across the canonical corpus, identical failure handling under
injected worker deaths, and clean fallback to direct forks whenever a
lease cannot be transparent.
"""

import hashlib
import os
import signal

import pytest

from repro.core.alternative import Alternative
from repro.core.backends import ProcessBackend, SerialBackend, get_backend
from repro.core.concurrent import ConcurrentExecutor
from repro.obs.blocks import CANONICAL_BLOCKS, get_block
from repro.pages.shm import (
    SLAB_PREFIX,
    ShmSlab,
    orphaned_segments,
    shm_available,
)
from repro.process import pool as pool_module
from repro.process.pool import WorldPool, shutdown_default_pool
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
        assert pool.parked == pool.size  # every worker re-parked cleanly


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
        """Satellite: a SIGKILLed pooled worker leaves /dev/shm clean."""
        before = set(orphaned_segments())
        executor = ConcurrentExecutor(
            backend=ProcessBackend(kill_grace=0.5, pool=pool)
        )
        parent = executor.new_parent()
        injector = FaultInjector(seed=0).arm_sigkill(arms=[0], times=1)
        with injected(injector):
            result = executor.run(sleeper_block(), parent=parent)
        # The surviving arm won; the dead worker's slab was disposed.
        assert result.value == "S"
        assert result.winner.name == "slow"
        assert pool.respawns >= 1
        assert pool.parked == pool.size
        # The pool still serves leases after the respawn.
        second_parent = executor.new_parent()
        second = executor.run(sleeper_block(), parent=second_parent)
        assert second.value == "Q"
        # Releasing the parent spaces drops the last pins on any slab the
        # winners committed from; nothing may remain in /dev/shm.
        parent.space.release()
        second_parent.space.release()
        assert set(orphaned_segments()) == before

    def test_shutdown_terminates_every_worker(self):
        pool = WorldPool(size=3)
        pids = pool.worker_pids()
        assert len(pids) == 3
        pool.shutdown()
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        pool.shutdown()  # idempotent

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


def observe(result, parent):
    """Everything a caller can see of one concluded block."""
    space = parent.space
    digest = hashlib.sha256()
    for vpn in range(space.num_pages):
        digest.update(space.table.read_page(vpn))
    return (
        result.value,
        result.winner.name,
        {name: space.get(name) for name in space.names()},
        digest.hexdigest(),
    )


def pooled_executor(pool):
    return ConcurrentExecutor(
        backend=ProcessBackend(kill_grace=0.5, pool=pool), space_size=SPACE
    )


def serial_executor():
    return ConcurrentExecutor(backend=SerialBackend(), space_size=SPACE)


def own_segments():
    """This process's segments (a neighbour's run has another pid)."""
    return set(orphaned_segments(f"{SLAB_PREFIX}_{os.getpid()}_"))


def new_segments(before):
    return own_segments() - before


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
        assert len(new_segments(segments)) == 1  # the live arena
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
        assert pool.parked == pool.size
        parent.space.release()
        assert len(new_segments(segments)) == 1  # the arena, nothing else
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
