"""CHAOS_SCENARIOS replayed on real sockets through the impairment proxy.

Every home<->worker connection crosses an :class:`ImpairmentProxy` that
drops, duplicates, reorders, delays, and partitions whole frames using
the exact seeded :data:`CHAOS_SCENARIOS` vocabulary the simulated suite
replays.  The gate is the same: the block must converge to the serial
reference -- same winner, same value, byte-identical parent space -- and
every lease must settle, no matter what the wire did.

The fast lane runs a slice; the full scenario x seed matrix is
slow-marked for the cluster CI job.
"""

import os
import time

import pytest

from repro.cluster.daemon import WorkerDaemon
from repro.cluster.executor import ClusterExecutor, WorkerEndpoint
from repro.cluster.proxy import ImpairmentProxy
from repro.core.alternative import Alternative
from repro.core.selection import OrderedPolicy
from repro.core.sequential import SequentialExecutor
from repro.net.lease import RaceWarden
from repro.obs import events as _ev
from repro.obs.tracer import tracing
from repro.pages.store import PageStore
from repro.process.primitives import ProcessManager
from repro.resilience.chaos import CHAOS_SCENARIOS, chaos_injector
from repro.resilience.injector import injected

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


# -- picklable bodies ---------------------------------------------------

def guard_reject(ctx):
    ctx.fail("guard rejects")


def steady_answer(ctx):
    # Long enough that several heartbeats cross the impaired wire, so
    # the scenario actually gets frames to chew on.
    for _ in range(6):
        if ctx.token is not None and ctx.token.cancelled:
            return None
        time.sleep(0.03)
    ctx.put("result", 42)
    return 42


def one_success_block():
    return [
        Alternative("guard-a", guard_reject),
        Alternative("the-answer", steady_answer),
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


def run_impaired_race(scenario, seed):
    """One full race with every link behind a seeded impaired proxy."""
    daemons = [WorkerDaemon(f"w{i}") for i in range(3)]
    impair = CHAOS_SCENARIOS[scenario].wire(seed=seed)
    proxies = []
    endpoints = []
    executor = None
    try:
        for daemon in daemons:
            upstream = daemon.start()
            proxy = ImpairmentProxy(
                upstream, impair=impair, link=f"home|{daemon.node_id}"
            )
            host, port = proxy.start()
            proxies.append(proxy)
            endpoints.append(WorkerEndpoint(daemon.node_id, host, port))
        executor = ClusterExecutor(
            endpoints,
            seed=seed,
            warden=RaceWarden(
                lease_interval=0.05, lease_timeout=0.8, max_respawns=4
            ),
        )
        parent = executor.new_parent()
        parent.space.put("shared", "base")
        with injected(chaos_injector(scenario, seed=seed)), tracing() as tracer:
            result = executor.run(one_success_block(), parent=parent)
        parent_bytes = parent.space.read(0, parent.space.size)
        parent_result = parent.space.get("result")
        parent.space.release()
        return {
            "result": result,
            "bytes": parent_bytes,
            "variable": parent_result,
            "settled": executor.all_settled,
            "impair": impair,
            "proxies": proxies,
            "events": [event.kind for event in tracer.events],
        }
    finally:
        if executor is not None:
            executor.close()
        for proxy in proxies:
            proxy.stop()
        for daemon in daemons:
            daemon.stop()


def assert_converged(outcome, seed):
    reference, ref_parent = serial_reference(seed)
    result = outcome["result"]
    assert result.winner.name == reference.winner.name
    assert result.value == reference.value
    assert outcome["variable"] == ref_parent.space.get("result")
    assert outcome["bytes"] == ref_parent.space.read(0, ref_parent.space.size)
    assert outcome["settled"]
    ref_parent.space.release()


class TestHalfOpenRelay:
    """A dead upstream must tear down the relayed connection, not
    leave the home node waiting on a half-open wire forever."""

    def test_upstream_death_reaches_the_client(self):
        from repro.cluster.stream import StreamClosed, connect

        daemon = WorkerDaemon("relay-w")
        daemon.start()
        proxy = ImpairmentProxy((daemon.host, daemon.port), link="t")
        host, port = proxy.start()
        stream = connect(host, port)
        try:
            stream.send({"kind": "ping"})
            assert stream.recv(timeout=2.0)["kind"] == "pong"
            # The upstream dies while the client is quiet.  The opposite
            # pump is blocked in recv on the client socket; a bare close
            # used to leave that description pinned, so no FIN ever
            # reached the client and the half-open wire went unnoticed.
            daemon.stop(leave=False)
            with pytest.raises(StreamClosed):
                deadline = time.monotonic() + 2.0
                while time.monotonic() < deadline:
                    stream.recv(timeout=0.1)
        finally:
            stream.close()
            proxy.stop()
            daemon.stop()

    def test_proxy_stop_reaches_the_client(self):
        from repro.cluster.stream import StreamClosed, connect

        daemon = WorkerDaemon("relay-w2")
        daemon.start()
        proxy = ImpairmentProxy((daemon.host, daemon.port), link="t2")
        host, port = proxy.start()
        stream = connect(host, port)
        try:
            stream.send({"kind": "ping"})
            assert stream.recv(timeout=2.0)["kind"] == "pong"
            proxy.stop()
            with pytest.raises(StreamClosed):
                deadline = time.monotonic() + 2.0
                while time.monotonic() < deadline:
                    stream.recv(timeout=0.1)
        finally:
            stream.close()
            daemon.stop()


class TestFastSlice:
    """The default-lane sample: one lossy and one duplicating run."""

    @pytest.mark.parametrize("scenario", ["loss", "dup"])
    def test_scenario_converges(self, scenario):
        outcome = run_impaired_race(scenario, CHAOS_SEED)
        assert_converged(outcome, CHAOS_SEED)
        # The wire was genuinely impaired, not a clean passthrough.
        impair = outcome["impair"]
        touched = impair.drops + impair.dups + impair.delays + impair.holds
        assert touched >= 1, "scenario never impaired a frame"


@pytest.mark.slow
class TestFullMatrix:
    """Every scenario on two seeds -- the acceptance soak."""

    @pytest.mark.parametrize("seed", [CHAOS_SEED, CHAOS_SEED + 1])
    @pytest.mark.parametrize("scenario", sorted(CHAOS_SCENARIOS))
    def test_scenario_matrix(self, scenario, seed):
        outcome = run_impaired_race(scenario, seed)
        assert_converged(outcome, seed)

    def test_partition_opens_and_heals(self):
        outcome = run_impaired_race("partition", CHAOS_SEED)
        assert_converged(outcome, CHAOS_SEED)
        assert outcome["impair"].partitions_opened >= 1

    def test_worker_crash_forces_a_respawn(self):
        outcome = run_impaired_race("worker-crash", CHAOS_SEED)
        assert_converged(outcome, CHAOS_SEED)
        assert _ev.WORKER_RESPAWN in outcome["events"]
        # Detection is either the closed wire or heartbeat silence --
        # through a proxy the kernel may not surface the drop before the
        # lease does.
        assert (
            _ev.CONN_DROP in outcome["events"]
            or _ev.LEASE_EXPIRE in outcome["events"]
        )
