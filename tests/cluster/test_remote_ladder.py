"""One home-node ladder, two transports: the same cases on both.

Every case runs once on the simulated network (virtual time, the
``DistributedAltExecutor``) and once on localhost TCP daemons (wall
time, the ``ClusterExecutor``).  The bodies are module-level so they
pickle into a ship record; each arm carries a ``cost`` for the virtual
clock and naps for real only where a daemon gave it a cancel token, so
one block means the same race on either transport.
"""

import time

import pytest

from repro.cluster.daemon import WorkerDaemon
from repro.cluster.executor import ClusterExecutor, WorkerEndpoint
from repro.cluster.semaphore import ClusterMajoritySemaphore
from repro.consensus.majority import MajorityConsensusSemaphore
from repro.core.alternative import Alternative
from repro.errors import AltBlockFailure
from repro.net.distributed import DistributedAltExecutor
from repro.net.lease import RaceWarden
from repro.net.network import Network, link_key
from repro.obs import events as _ev
from repro.obs.tracer import tracing
from repro.resilience.injector import FaultInjector, injected
from repro.sim.costs import CostModel
from tests.cluster.test_zombie_fence import ScriptedZombie, patient_answer

FAST_LAN = CostModel(
    name="fast LAN",
    fork_latency=0.001,
    page_copy_rate=100_000.0,
    page_size=2048,
    checkpoint_rate=50_000_000.0,
    network_bandwidth=10_000_000.0,
    network_latency=0.001,
    restore_rate=50_000_000.0,
)


# -- picklable bodies ---------------------------------------------------

def nap(ctx, seconds):
    """Real time on a daemon; the arm's ``cost`` is its virtual time."""
    if ctx.token is not None:
        ctx.sleep(seconds)


def guard_a(ctx):
    nap(ctx, 0.1)
    ctx.fail("guard-a rejects")


def the_answer(ctx):
    nap(ctx, 0.05)
    ctx.put("result", 42)
    return 42


def guard_b(ctx):
    nap(ctx, 0.2)
    ctx.fail("guard-b rejects")


def slow(ctx):
    nap(ctx, 1.5)
    ctx.put("result", "slow")
    return "slow"


def fast(ctx):
    ctx.put("result", "fast")
    return "fast"


def one_success_block():
    return [
        Alternative("guard-a", guard_a, cost=0.4),
        Alternative("the-answer", the_answer, cost=0.6),
        Alternative("guard-b", guard_b, cost=0.3),
    ]


# -- the two transports ---------------------------------------------------

class Simulated:
    name = "sim"
    crash_after = 2.0
    """A crash of the slow loser's worker, long after ``fast`` is done."""

    def __init__(self):
        self.network = Network(cost_model=FAST_LAN)
        self.network.add_node("home")
        for worker in ("w1", "w2", "w3"):
            self.network.add_node(worker)
            self.network.connect("home", worker)

    def executor(self, **kwargs):
        kwargs.setdefault("warden", RaceWarden())
        return DistributedAltExecutor(
            self.network, home="home", workers=["w1", "w2", "w3"], **kwargs
        )

    def zombie_race(self):
        """Every heartbeat from w1 is lost: its arm is declared dead
        while its body runs on, and the respawn on w2 must win."""
        executor = self.executor()
        injector = FaultInjector(seed=0).net_drop(
            times=None, arms=[link_key("home", "w1")]
        )
        with injected(injector):
            return executor, executor.run(
                [Alternative("the-answer", the_answer, cost=0.5)]
            )

    def close(self):
        pass


class Sockets:
    name = "socket"
    crash_after = 0.5

    def __init__(self):
        self.daemons = [WorkerDaemon(f"w{i}") for i in range(3)]
        self.endpoints = [
            WorkerEndpoint(d.node_id, *d.start()) for d in self.daemons
        ]
        self.closers = []

    def executor(self, **kwargs):
        executor = ClusterExecutor(self.endpoints, seed=0, **kwargs)
        self.closers.append(executor.close)
        return executor

    def zombie_race(self):
        """A scripted worker beats, falls silent past its lease, then
        ships a stale-epoch winner while the respawn still runs."""
        zombie = ScriptedZombie()
        self.closers.append(zombie.close)
        executor = ClusterExecutor(
            [WorkerEndpoint("zombie", zombie.host, zombie.port),
             self.endpoints[0]],
            seed=0, warden=RaceWarden(lease_interval=0.04, lease_timeout=0.2),
        )
        self.closers.append(executor.close)
        return executor, executor.run(
            [Alternative("the-answer", patient_answer)]
        )

    def close(self):
        for close in reversed(self.closers):
            close()
        for daemon in self.daemons:
            daemon.stop()


@pytest.fixture(params=[Simulated, Sockets], ids=["sim", "socket"])
def transport(request):
    made = request.param()
    yield made
    made.close()


def stamp(timeline, text):
    """The instants of every timeline line containing ``text``."""
    return [at for at, line in timeline if text in line]


# -- the cases ------------------------------------------------------------

class TestRemoteLadder:
    def test_clean_race(self, transport):
        executor = transport.executor()
        parent = executor.new_parent()
        with tracing() as tracer:
            result = executor.run(one_success_block(), parent=parent)
        assert result.winner.name == "the-answer"
        assert result.value == 42
        assert parent.space.get("result") == 42
        assert executor.all_settled
        times = [at for at, _ in result.timeline]
        assert times == sorted(times)
        kinds = [event.kind for event in tracer.events]
        assert kinds.count(_ev.BLOCK_BEGIN) == kinds.count(_ev.WINNER_COMMIT)
        assert _ev.DEGRADE not in kinds
        parent.space.release()

    def test_a_losers_crash_does_not_delay_the_winner(self, transport):
        executor = transport.executor()
        parent = executor.new_parent()
        block = [
            Alternative("slow", slow, cost=5.0),
            Alternative("fast", fast, cost=0.1),
        ]
        injector = FaultInjector(seed=0).worker_crash(
            arms=[0], duration=transport.crash_after
        )
        with injected(injector):
            result = executor.run(block, parent=parent)
        assert result.winner.name == "fast"
        assert parent.space.get("result") == "fast"
        # Only the loser's worker died, and after the winner was done.
        assert result.elapsed < transport.crash_after
        assert executor.all_settled
        parent.space.release()

    def test_a_zombie_is_fenced_at_commit(self, transport):
        with tracing() as tracer:
            executor, result = transport.zombie_race()
        assert result.value == 42
        assert stamp(result.timeline, "fenced at winner-commit")
        fences = [
            event for event in tracer.events
            if event.kind == _ev.LOSER_ELIMINATE
            and event.attrs.get("reason") == "stale-epoch-fence"
        ]
        assert fences and fences[0].attrs["epoch"] == 1
        respawns = [
            event for event in tracer.events
            if event.kind == _ev.WORKER_RESPAWN
        ]
        assert respawns and respawns[0].attrs["epoch"] == 2
        (committed,) = [
            lease for lease in executor.leases
            if lease.state == "committed"
        ]
        assert committed.epoch == 2
        assert executor.all_settled

    def test_a_consensus_denial_concludes_without_waiting(
            self, transport, monkeypatch):
        # A split vote: quorum reachable, fewer than quorum grants.
        for semaphore in (MajorityConsensusSemaphore,
                          ClusterMajoritySemaphore):
            monkeypatch.setattr(
                semaphore, "try_acquire", lambda self, *args: False
            )
        executor = transport.executor(use_consensus=True)
        if transport.name == "socket":
            executor.race_timeout = 3.0
        parent = executor.new_parent()
        began = time.monotonic()
        result = executor.run(one_success_block(), parent=parent)
        waited = time.monotonic() - began
        # Nothing could commit remotely; the serial replay answers.
        assert result.value == 42
        (degraded,) = stamp(result.timeline, "degrading to serial replay")
        (denied,) = stamp(result.timeline, "not granted (consensus-denied)")
        assert denied <= degraded < denied + 0.5
        assert waited < 2.0
        assert executor.all_settled
        parent.space.release()

    def test_the_degrade_is_stamped_after_the_last_verdict(self, transport):
        executor = transport.executor()
        block = [
            Alternative("guard-a", guard_a, cost=0.5),
            Alternative("guard-b", guard_b, cost=0.3),
        ]
        with pytest.raises(AltBlockFailure) as caught:
            executor.run(block)
        exc = caught.value
        aborts = stamp(exc.timeline, "aborts: guard")
        assert len(aborts) == 2
        (degraded,) = stamp(exc.timeline, "degrading to serial replay")
        assert degraded >= max(aborts)
        assert exc.elapsed >= degraded
        if transport.name == "sim":
            # Both arms ran for real in the replay, one after the other.
            assert exc.elapsed >= max(aborts) + 0.8
        assert executor.all_settled
