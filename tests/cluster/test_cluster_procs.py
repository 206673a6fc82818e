"""The acceptance gate on real processes: SIGKILL, restart, no leaks.

Every daemon here is a genuine child process reached over TCP.  The two
headline scenarios from the issue:

- SIGKILL any single worker mid-race and the block still converges to
  the serial-reference winner/value/bytes;
- SIGKILL the router, restart it from its journal, and the rebuilt
  routing state is digest-identical to the pre-crash service.

Plus the hygiene ledger: afterwards there are zero leaked daemons,
sockets, or /dev/shm segments.
"""

import os
import time

import pytest

from repro.cluster.executor import ClusterExecutor, WorkerEndpoint
from repro.cluster.router_service import RouterClient
from repro.cluster.spawn import spawn_router, spawn_worker
from repro.core.alternative import Alternative
from repro.core.selection import OrderedPolicy
from repro.core.sequential import SequentialExecutor
from repro.net.lease import RaceWarden
from repro.pages.shm import orphaned_segments
from repro.pages.store import PageStore
from repro.predicates import Predicate
from repro.process.primitives import ProcessManager

pytestmark = [pytest.mark.slow, pytest.mark.subprocess]

SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


# -- picklable bodies ---------------------------------------------------

def guard_reject(ctx):
    ctx.fail("guard rejects")


def patient_answer(ctx):
    for _ in range(10):
        if ctx.token is not None and ctx.token.cancelled:
            return None
        time.sleep(0.04)
    ctx.put("result", 42)
    return 42


def one_success_block():
    return [
        Alternative("guard-a", guard_reject),
        Alternative("the-answer", patient_answer),
        Alternative("guard-b", guard_reject),
    ]


def serial_reference(seed, space_size=64 * 1024):
    manager = ProcessManager(PageStore())
    executor = SequentialExecutor(
        policy=OrderedPolicy(), try_all=True, seed=seed, manager=manager
    )
    parent = manager.create_initial(space_size=space_size)
    parent.space.put("shared", "base")
    result = executor.run(one_success_block(), parent=parent)
    return result, parent


_executors = []


@pytest.fixture
def worker_trio():
    handles = [spawn_worker(f"w{i}") for i in range(3)]
    shm_before = set(orphaned_segments())
    yield handles
    while _executors:
        _executors.pop().close()
    for handle in handles:
        handle.stop()
        handle.cleanup()
    # Hygiene ledger: no child survived, no shm segment appeared.
    assert all(not handle.alive for handle in handles)
    leaked = set(orphaned_segments()) - shm_before
    assert not leaked, f"subprocess run leaked shm segments: {leaked}"


def cluster_executor(handles, **kwargs):
    endpoints = [
        WorkerEndpoint(h.name, h.host, h.port) for h in handles
    ]
    kwargs.setdefault("seed", SEED)
    kwargs.setdefault(
        "warden",
        RaceWarden(lease_interval=0.05, lease_timeout=0.8, max_respawns=4),
    )
    executor = ClusterExecutor(endpoints, **kwargs)
    _executors.append(executor)
    return executor


class TestSigkillSurvival:
    @pytest.mark.parametrize("victim", [0, 1, 2])
    def test_any_single_worker_dies_mid_race(self, worker_trio, victim):
        """SIGKILL worker ``victim`` shortly after shipping; the race
        must converge to the serial reference regardless of which."""
        executor = cluster_executor(worker_trio)
        parent = executor.new_parent()
        parent.space.put("shared", "base")

        import threading

        def assassin():
            time.sleep(0.12)  # mid-race: arms shipped, bodies running
            worker_trio[victim].kill()

        hit = threading.Thread(target=assassin, daemon=True)
        hit.start()
        result = executor.run(one_success_block(), parent=parent)
        hit.join()

        reference, ref_parent = serial_reference(SEED)
        assert result.winner.name == reference.winner.name
        assert result.value == reference.value
        assert parent.space.get("result") == ref_parent.space.get("result")
        assert (
            parent.space.read(0, parent.space.size)
            == ref_parent.space.read(0, ref_parent.space.size)
        )
        assert executor.all_settled
        assert not worker_trio[victim].alive
        parent.space.release()
        ref_parent.space.release()

    def test_hard_crash_shipment_sigkills_for_real(self, worker_trio):
        """A ``crash_after`` shipment to a --hard-crash daemon takes the
        whole process down (real SIGKILL), and the race still wins."""
        from repro.resilience.injector import FaultInjector, injected

        executor = cluster_executor(worker_trio)
        parent = executor.new_parent()
        parent.space.put("shared", "base")
        injector = FaultInjector(seed=SEED).worker_crash(
            arms=[1], duration=0.05, probability=1.0
        )
        with injected(injector):
            result = executor.run(one_success_block(), parent=parent)
        assert result.value == 42
        assert executor.all_settled
        # The victim really died: exactly the arms-home worker is gone.
        assert any(not handle.alive for handle in worker_trio)
        parent.space.release()


class TestRouterRestart:
    def test_kill_and_journal_replay_agree(self, tmp_path):
        journal = str(tmp_path / "router.journal")
        router = spawn_router(journal)
        try:
            with RouterClient(router.host, router.port) as client:
                client.register(1)
                client.register(2)
                client.send(1, 2, {"payload": "hello"})
                client.send(2, 1, {"payload": "reply"},
                            predicate=Predicate.of(must=[2]))
                client.deliver_all()
                client.report_status(1, completed=True)
                client.deliver_all()
                before = client.digest()
            router.kill()  # no goodbye, no flush beyond the WAL
            assert not router.alive
            router.cleanup()

            reborn = spawn_router(journal)
            try:
                with RouterClient(reborn.host, reborn.port) as client:
                    after = client.digest()
                assert after == before
            finally:
                reborn.stop()
                reborn.cleanup()
        finally:
            if router.alive:
                router.stop()
            router.cleanup()

    def test_restarted_router_keeps_routing(self, tmp_path):
        """Recovery is a working service, not a read-only autopsy: new
        traffic lands on the rebuilt state."""
        journal = str(tmp_path / "router.journal")
        router = spawn_router(journal)
        try:
            with RouterClient(router.host, router.port) as client:
                client.register(1)
                client.register(2)
                client.send(1, 2, {"n": 1})
                client.deliver_all()
            router.kill()
            router.cleanup()

            reborn = spawn_router(journal)
            try:
                with RouterClient(reborn.host, reborn.port) as client:
                    client.send(2, 1, {"n": 2})
                    delivered = client.deliver_all()
                    digest = client.digest()
                assert delivered >= 1
                assert digest["pending"] == 0
            finally:
                reborn.stop()
                reborn.cleanup()
        finally:
            if router.alive:
                router.stop()
            router.cleanup()


class TestDemoEndToEnd:
    def test_cli_demo_exits_clean(self):
        """The packaged demo is the acceptance script: 3 workers, one
        assassination, a router kill and replay, exit 0 on agreement."""
        import subprocess
        import sys

        env = dict(os.environ)
        src_root = os.path.abspath(
            os.path.join(os.path.dirname(__file__), "..", "..", "src")
        )
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "cluster", "demo",
             "--seed", str(SEED)],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "winner" in proc.stdout.lower()
