"""A request's world dies with its ticket.

Every served block runs on its own ``ConcurrentExecutor`` with its own
``ProcessManager``; ``RaceServer._run_one`` creates the parent and exits
it once the ticket has resolved.  On the pooled process backend that
exit is what drops the frames adopted from the winner's shm slab, so the
slab goes back to the pool while the server is still serving -- it is
not left pinned for ``cleanup_all_slabs()`` at interpreter exit.  The
audit here is therefore taken *before* shutdown: after N blocks the
process owns, beyond what it owned before the server existed, exactly
the pool's own slabs (one per worker that served plus at most the
spares), each referenced by the pool alone, and ten times the blocks
later it still owns those and no more than the same bound -- for
winners, for blocks whose every arm fails, and for a block whose pool
worker is SIGKILLed mid-race.  After the pool's shutdown nothing is
left.
"""

import os
import signal
import time

import pytest

from repro.core.alternative import Alternative
from repro.pages.shm import live_slab_count, orphaned_segments, shm_available
from repro.process.pool import RESPONSE_SPARE_SLABS, WorldPool
from repro.server import RaceServer, ServerConfig

pytestmark = [
    pytest.mark.subprocess,
    pytest.mark.skipif(not hasattr(os, "fork"), reason="requires os.fork"),
    pytest.mark.skipif(not shm_available(), reason="requires POSIX shm"),
]

BLOCKS = 12


class _Writes:
    """Picklable arm body: dirty a page, then win or fail."""

    def __init__(self, value, seconds=0.0, fail=False):
        self.value = value
        self.seconds = seconds
        self.fail = fail

    def __call__(self, ctx):
        ctx.put("answer", self.value)
        if self.seconds:
            ctx.sleep(self.seconds)
        if self.fail:
            ctx.fail("refuses")
        return self.value


def _block(tag, arms=2, **kwargs):
    return [
        Alternative(f"{tag}-arm{i}", body=_Writes(tag, **kwargs))
        for i in range(arms)
    ]


@pytest.fixture
def audited_server():
    """A pooled process server plus the audit to run before shutdown."""
    slabs_before = live_slab_count()
    segments_before = set(orphaned_segments())
    pool = WorldPool(size=4)
    server = RaceServer(ServerConfig(
        backend="process", workers=2, max_inflight_arms=4, pool=pool,
    ))

    def held():
        # Taken once the last worker has left ``_run_one``, i.e. after
        # the last parent was exited; nothing has run
        # ``cleanup_all_slabs`` and the interpreter is very much alive.
        owned = pool.owned_slabs()
        assert [slab.refs for slab in owned] == [1] * len(owned)
        assert live_slab_count() - slabs_before == len(owned)
        names = {slab.name for slab in owned}
        assert set(orphaned_segments()) - segments_before == names
        return names

    def audit():
        deadline = time.monotonic() + 60.0
        while server.stats()["inflight_blocks"] or server.stats()["queue_depth"]:
            assert time.monotonic() < deadline, "server never went idle"
            time.sleep(0.005)
        bound = pool.size + RESPONSE_SPARE_SLABS
        # The last blocks' losers may still be on their way out: a race
        # returns at its commit and the pool hears them out.
        pool.drain()
        before = held()
        assert 0 < len(before) <= bound
        tickets = [
            server.submit(f"tenant-{i % 3}", _block(f"more{i}", 2 + i % 2))
            for i in range(10 * BLOCKS)
        ]
        for i, ticket in enumerate(tickets):
            assert ticket.result(timeout=60.0) == f"more{i}"
        # Drained means the pool's detached losers are settled too.
        assert server.drain(timeout=60.0)
        # Ten times the blocks: no slab was dropped for a new one, and a
        # worker that had not served yet adds at most its own.
        after = held()
        assert before <= after and len(after) <= bound

    try:
        yield server, pool, audit
    finally:
        server.shutdown()
        pool.shutdown()
    assert live_slab_count() == slabs_before
    assert set(orphaned_segments()) - segments_before == set()


class TestWorldDiesWithItsTicket:
    def test_winners_leave_no_slab_behind(self, audited_server):
        server, _pool, audit = audited_server
        tickets = [
            server.submit(f"tenant-{i % 3}", _block(f"w{i}", 2 + i % 2),
                          capture_space=bool(i % 2))
            for i in range(BLOCKS)
        ]
        for i, ticket in enumerate(tickets):
            assert ticket.result(timeout=60.0) == f"w{i}"
            if i % 2:
                # Captured before the parent was exited.
                assert ticket.variables == {"answer": f"w{i}"}
        assert server.stats()["pool"]["leases"] > 0
        audit()

    def test_all_arms_fail_leaves_no_slab_behind(self, audited_server):
        server, _pool, audit = audited_server
        tickets = [
            server.submit("tenant", _block(f"f{i}", fail=True))
            for i in range(BLOCKS)
        ]
        for ticket in tickets:
            assert ticket.wait(timeout=60.0)
            assert ticket.error == "AltBlockFailure"
        audit()

    def test_worker_sigkilled_mid_block_leaves_no_slab_behind(
        self, audited_server
    ):
        server, pool, audit = audited_server
        ticket = server.submit("tenant", _block("k", arms=2, seconds=0.4))
        deadline = time.monotonic() + 10.0
        while pool.inflight < 2:
            assert time.monotonic() < deadline, "arms never leased"
            time.sleep(0.005)
        victim = next(w.pid for w in pool._workers if w.busy)
        os.kill(victim, signal.SIGKILL)
        # Whichever arm survives (or is re-run) wins with the same value.
        assert ticket.result(timeout=60.0) == "k"
        later = [
            server.submit("tenant", _block(f"after{i}")) for i in range(3)
        ]
        for i, after in enumerate(later):
            assert after.result(timeout=60.0) == f"after{i}"
        audit()


class _SleepsThroughIt:
    """Picklable arm body that never looks at its instruction."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __call__(self, ctx):
        time.sleep(self.seconds)
        return "late"


class TestDrainKeepsItsTimeout:
    def test_a_stubborn_loser_does_not_stretch_the_callers_timeout(
        self, audited_server
    ):
        """The pool's part of ``drain`` gets what is left of the timeout
        and no more: a loser still on its way out when it expires means
        not drained, not a longer wait."""
        server, pool, _audit = audited_server
        block = [
            # Not at once: an arm told before it started has no body to
            # sleep in.
            Alternative("quick", body=_Writes("quick", seconds=0.2)),
            Alternative("deaf", body=_SleepsThroughIt(1.5)),
        ]
        assert server.submit("tenant", block).result(timeout=60.0) == "quick"
        began = time.monotonic()
        assert server.drain(timeout=0.3) is False
        assert time.monotonic() - began < 1.0
        assert server.stats()["pool"]["draining"] == 1
        assert server.drain(timeout=30.0) is True
        assert server.stats()["pool"]["draining"] == 0
        assert pool.drained_parked >= 1 and pool.respawns == 0
