"""Experiment C1 -- what chaos costs a distributed race.

The same 3-arm block is raced on the simulated distributed substrate
three ways:

- over a *clean* network (the PR-0 baseline);
- over a wire losing 5% of messages (``NetFaultPlan(loss=0.05)``), with
  a :class:`RaceWarden` supervising leases;
- with the fastest arm's worker force-crashed, to measure the
  *lease-failover latency*: the simulated delay between the warden
  declaring the incarnation dead (lease expiry) and re-granting the arm
  on a healthy node.

The same three conditions are then repeated on the *real wire*: three
in-process worker daemons reached over genuine localhost TCP, the lossy
condition routed through the frame-dropping
:class:`~repro.cluster.proxy.ImpairmentProxy`, and failover measured
wall-clock from lease expiry to the respawn grant after the winning
arm's worker crashes mid-race.

The headline claims: chaos never changes the block's observable outcome
(same winner, same value), it only costs (simulated or wall-clock) time;
and every lease ends settled (no leaked workers).

Outputs:

- ``benchmarks/results/C1_distributed_chaos.txt`` -- human-readable table;
- ``BENCH_distributed_chaos.json`` at the repo root -- machine-readable
  record (elapsed per condition, failover latency, chaos counters, seed).

Run standalone with ``python benchmarks/bench_distributed_chaos.py``
(``--quick`` is accepted for harness symmetry; the substrate is
simulated, so both modes finish in well under a second).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

if __name__ == "__main__":  # standalone: make src/ importable
    sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))

from repro.analysis.report import format_table
from repro.core.alternative import Alternative
from repro.net.distributed import DistributedAltExecutor
from repro.net.lease import RaceWarden
from repro.net.network import Network
from repro.resilience.chaos import NetFaultPlan
from repro.resilience.injector import FaultInjector, injected
from repro.sim.costs import CostModel

JSON_PATH = os.path.join(_REPO_ROOT, "BENCH_distributed_chaos.json")

LAN = CostModel(
    name="fast LAN",
    fork_latency=0.001,
    page_copy_rate=100_000.0,
    page_size=2048,
    checkpoint_rate=50_000_000.0,
    network_bandwidth=10_000_000.0,
    network_latency=0.001,
    restore_rate=50_000_000.0,
)

ARM_COSTS = {"archive": 0.8, "replica": 0.45, "cache": 0.25}
LOSS_RATE = 0.05


def make_net():
    network = Network(cost_model=LAN)
    network.add_node("home")
    for name in ("w1", "w2", "w3"):
        network.add_node(name)
        network.connect("home", name)
    return network


def make_arms():
    def make_body(name):
        def body(ctx):
            ctx.put("answer", name)
            return name

        return body

    return [
        Alternative(name, body=make_body(name), cost=cost)
        for name, cost in ARM_COSTS.items()
    ]


def race(seed, injector=None, warden=None):
    net = make_net()
    dist = DistributedAltExecutor(
        net, home="home", workers=["w1", "w2", "w3"],
        seed=seed, warden=warden,
    )
    if injector is not None:
        with injected(injector):
            result = dist.run(make_arms())
    else:
        result = dist.run(make_arms())
    return result, dist


# ----------------------------------------------------------------------
# the real-wire mirror: in-process daemons, genuine localhost TCP

# Real sleeps per arm, chosen so the race finishes fast but the loser
# arms are genuinely running when the winner commits.
WIRE_ARM_SLEEPS = {"archive": 0.30, "replica": 0.18, "cache": 0.06}


def _wire_body_archive(ctx):
    return _wire_run(ctx, "archive")


def _wire_body_replica(ctx):
    return _wire_run(ctx, "replica")


def _wire_body_cache(ctx):
    return _wire_run(ctx, "cache")


def _wire_run(ctx, name):
    import time as _time

    deadline = _time.monotonic() + WIRE_ARM_SLEEPS[name]
    while _time.monotonic() < deadline:
        if ctx.token is not None and ctx.token.cancelled:
            return None
        _time.sleep(0.01)
    ctx.put("answer", name)
    return name


_WIRE_BODIES = {
    "archive": _wire_body_archive,
    "replica": _wire_body_replica,
    "cache": _wire_body_cache,
}


def make_wire_arms():
    return [
        Alternative(name, _WIRE_BODIES[name]) for name in ARM_COSTS
    ]


def _wire_race(seed, loss_plan=None, crash_arm=None):
    """One real-socket race; returns (result, executor, wall seconds,
    wire counters)."""
    import time as _time

    from repro.cluster.daemon import WorkerDaemon
    from repro.cluster.executor import ClusterExecutor, WorkerEndpoint
    from repro.cluster.proxy import ImpairmentProxy

    daemons = [WorkerDaemon(f"w{i}") for i in range(1, 4)]
    proxies = []
    endpoints = []
    impair = loss_plan.wire(seed=seed) if loss_plan is not None else None
    try:
        for daemon in daemons:
            upstream = daemon.start()
            if impair is not None:
                proxy = ImpairmentProxy(
                    upstream, impair=impair, link=f"home|{daemon.node_id}"
                )
                host, port = proxy.start()
                proxies.append(proxy)
            else:
                host, port = upstream
            endpoints.append(WorkerEndpoint(daemon.node_id, host, port))
        warden = RaceWarden(
            lease_interval=0.05, lease_timeout=0.8, max_respawns=4
        )
        executor = ClusterExecutor(endpoints, seed=seed, warden=warden)
        parent = executor.new_parent()
        injector = (
            FaultInjector(seed=seed).worker_crash(
                arms=[crash_arm], duration=0.02
            )
            if crash_arm is not None
            else None
        )
        started = _time.monotonic()
        if injector is not None:
            with injected(injector):
                result = executor.run(make_wire_arms(), parent=parent)
        else:
            result = executor.run(make_wire_arms(), parent=parent)
        wall = _time.monotonic() - started
        parent.space.release()
        counters = {
            "frames_dropped": impair.drops if impair is not None else 0,
            "frames_duplicated": impair.dups if impair is not None else 0,
        }
        return result, executor, wall, counters
    finally:
        for proxy in proxies:
            proxy.stop()
        for daemon in daemons:
            daemon.stop()


def measure_wire_failover(seed):
    """Crash the winning arm's first incarnation on the real wire and
    time lease-expiry -> respawn-grant on the wall clock."""
    result, executor, wall, _ = _wire_race(seed, crash_arm=2)
    crashed = [l for l in executor.leases if l.index == 2 and l.epoch == 1]
    respawned = [l for l in executor.leases if l.index == 2 and l.epoch == 2]
    assert crashed and crashed[0].state in ("expired",), "crash never fired"
    assert respawned, "no respawn was granted"
    latency = respawned[0].started - crashed[0].ended_at
    return {
        "winner": result.winner.name,
        "elapsed_wall_seconds": round(wall, 4),
        "failover_latency_wall_seconds": round(latency, 4),
        "all_leases_settled": executor.all_settled,
    }


def run_wire_suite(seed):
    clean, clean_executor, clean_wall, _ = _wire_race(seed)
    lossy, lossy_executor, lossy_wall, counters = _wire_race(
        seed, loss_plan=NetFaultPlan(loss=LOSS_RATE)
    )
    failover = measure_wire_failover(seed)
    return {
        "transport": "tcp-localhost",
        "clean": {
            "winner": clean.winner.name,
            "elapsed_wall_seconds": round(clean_wall, 4),
        },
        "lossy": {
            "winner": lossy.winner.name,
            "elapsed_wall_seconds": round(lossy_wall, 4),
            "frames_dropped": counters["frames_dropped"],
            "all_leases_settled": lossy_executor.all_settled,
        },
        "failover": failover,
        "criteria": {
            "same_winner_under_loss": clean.winner.name == lossy.winner.name,
            "failover_recovers_a_winner": bool(failover["winner"]),
            "failover_latency_positive": (
                failover["failover_latency_wall_seconds"] > 0
            ),
            "no_leaked_leases": (
                clean_executor.all_settled
                and lossy_executor.all_settled
                and failover["all_leases_settled"]
            ),
        },
    }


# ----------------------------------------------------------------------
# the sustained-load mirror: a stream of blocks while the cluster churns
#
# Three authenticated workers behind frame-dropping proxies race a
# stream of blocks while a rolling kill schedule takes one worker down
# mid-block and re-joins a fresh incarnation (same name, new port, new
# epoch) through the gossip wire.  Every block must converge to its
# serial reference while membership heals around the churn; the suite
# reports blocks/sec and the p99 failover latency (lease expiry ->
# respawn grant, wall clock).

# Long enough that a kill 50ms into the block always lands while every
# arm -- the eventual winner included -- is still mid-flight, so the
# victim's lease genuinely fails over (expire -> respawn) on the wire.
SUSTAINED_ARM_SLEEPS = {"archive": 0.40, "replica": 0.30, "cache": 0.20}
SUSTAINED_SECRET = b"c1-sustained-bench-secret"
SUSTAINED_KILL_AT = 0.05  # seconds into a kill block (leases are live)


def _sustained_run(ctx, name):
    import time as _time

    block = ctx.get("block")
    deadline = _time.monotonic() + SUSTAINED_ARM_SLEEPS[name]
    while _time.monotonic() < deadline:
        if ctx.token is not None and ctx.token.cancelled:
            return None
        _time.sleep(0.01)
    value = f"{name}:{block}"
    ctx.put("answer", value)
    return value


def _sustained_archive(ctx):
    return _sustained_run(ctx, "archive")


def _sustained_replica(ctx):
    return _sustained_run(ctx, "replica")


def _sustained_cache(ctx):
    return _sustained_run(ctx, "cache")


_SUSTAINED_BODIES = {
    "archive": _sustained_archive,
    "replica": _sustained_replica,
    "cache": _sustained_cache,
}


def make_sustained_arms():
    return [
        Alternative(name, _SUSTAINED_BODIES[name]) for name in ARM_COSTS
    ]


def _sustained_member(name, join, loss_plan, seed, salt):
    """One cluster member: daemon + lossy data-path proxy + announcer.

    The announcer advertises the *proxy's* address, so every byte the
    executor ships rides the impaired wire while gossip stays direct --
    continuous 5% frame loss on the data path, by construction.
    """
    from repro.cluster.daemon import WorkerDaemon
    from repro.cluster.membership import MembershipAnnouncer
    from repro.cluster.proxy import ImpairmentProxy

    daemon = WorkerDaemon(name, secret=SUSTAINED_SECRET)
    daemon.start()
    impair = loss_plan.wire(seed=seed + salt)
    proxy = ImpairmentProxy(
        (daemon.host, daemon.port), impair=impair, link=f"home|{name}"
    )
    advertise = proxy.start()
    announcer = MembershipAnnouncer(
        name,
        advertise=advertise,
        join_addr=join,
        epoch=daemon.epoch,
        secret=SUSTAINED_SECRET,
        interval=0.1,
    )
    announcer.start()
    return {
        "daemon": daemon,
        "proxy": proxy,
        "announcer": announcer,
        "impair": impair,
    }


def _sustained_stop(member, leave=True):
    """Retire one member; returns the frames its proxy dropped.

    ``leave=False`` is the mid-block kill: no goodbye frame, the
    announcer and daemon just stop and the home node must *detect* the
    death through suspicion."""
    member["announcer"].stop(leave=leave)
    member["daemon"].stop(leave=leave)
    member["proxy"].stop()
    return member["impair"].drops


def _p99(samples):
    import math

    if not samples:
        return None
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


def _failover_samples(executor):
    """Wall-clock lease-expiry -> respawn-grant gaps, one per handoff
    of the executor's last block."""
    by_arm = {}
    for lease in executor.leases:
        by_arm.setdefault(lease.index, []).append(lease)
    gaps = []
    for leases in by_arm.values():
        leases.sort(key=lambda l: l.epoch)
        for prev, nxt in zip(leases, leases[1:]):
            if prev.ended_at is not None:
                gaps.append(nxt.started - prev.ended_at)
    return gaps


def run_sustained_suite(seed, blocks):
    import threading
    import time as _time

    from repro.cluster.executor import ClusterExecutor
    from repro.cluster.membership import MembershipServer
    from repro.core.sequential import SequentialExecutor

    server = MembershipServer(secret=SUSTAINED_SECRET, sweep_interval=0.05)
    server.table.gossip_interval = 0.1
    join = server.start()
    plan = NetFaultPlan(loss=LOSS_RATE)
    names = ["s1", "s2", "s3"]
    members = {
        name: _sustained_member(name, join, plan, seed, i)
        for i, name in enumerate(names)
    }

    def _wait(predicate, timeout=8.0):
        deadline = _time.monotonic() + timeout
        while _time.monotonic() < deadline:
            if predicate():
                return True
            _time.sleep(0.02)
        return predicate()

    def _all_healthy():
        return all(
            (r := server.table.get(n)) is not None and r.state == "healthy"
            for n in names
        )

    frames_dropped = 0
    kills = 0
    winners = []
    convergences = []
    failovers = []
    race_seconds = 0.0
    try:
        assert _wait(_all_healthy), "initial membership never converged"
        executor = ClusterExecutor(
            [], seed=seed, membership=server.table, secret=SUSTAINED_SECRET
        )
        parent = executor.new_parent()
        for block in range(blocks):
            parent.space.put("block", block)
            executor.warden = RaceWarden(
                lease_interval=0.05, lease_timeout=0.7, max_respawns=4
            )
            victim = None
            assassin = None
            if block % 2 == 1:  # the rolling kill schedule
                victim = names[kills % len(names)]
                kills += 1
                doomed = members.pop(victim)

                def _kill(doomed=doomed):
                    nonlocal frames_dropped
                    _time.sleep(SUSTAINED_KILL_AT)
                    frames_dropped += _sustained_stop(doomed, leave=False)

                assassin = threading.Thread(target=_kill, daemon=True)
                assassin.start()
            started = _time.monotonic()
            result = executor.run(make_sustained_arms(), parent=parent)
            race_seconds += _time.monotonic() - started
            if assassin is not None:
                assassin.join()
            winners.append(result.winner.name)
            failovers.extend(_failover_samples(executor))
            # The serial reference: replay the winning arm alone on the
            # sequential substrate and demand the same answer.
            serial = SequentialExecutor(seed=seed)
            serial_parent = serial.new_parent()
            serial_parent.space.put("block", block)
            reference = serial.run(
                [Alternative(
                    result.winner.name,
                    _SUSTAINED_BODIES[result.winner.name],
                )],
                parent=serial_parent,
            )
            convergences.append(
                reference.value == result.value
                and parent.space.get("answer") == reference.value
            )
            if victim is not None:  # the heal: same name, fresh port
                members[victim] = _sustained_member(
                    victim, join, plan, seed, 100 + kills
                )
        healed = _wait(_all_healthy)
    finally:
        for member in members.values():
            frames_dropped += _sustained_stop(member)
        server.stop()
    p99 = _p99(failovers)
    return {
        "transport": "tcp-localhost",
        "blocks": blocks,
        "kills": kills,
        "winners": winners,
        "blocks_converged": sum(1 for held in convergences if held),
        "all_blocks_converged": all(convergences),
        "blocks_per_second": round(blocks / race_seconds, 3),
        "race_seconds_total": round(race_seconds, 4),
        "frames_dropped": frames_dropped,
        "failover_samples": len(failovers),
        "p99_failover_latency_wall_seconds": (
            round(p99, 4) if p99 is not None else None
        ),
        "membership_healed": healed,
        "criteria": {
            "every_block_converged_to_serial": all(convergences),
            "membership_healed_after_churn": healed,
            "throughput_positive": blocks / race_seconds > 0,
            "failover_p99_measured": p99 is not None and p99 > 0,
            "loss_was_continuous": frames_dropped > 0,
        },
    }


def measure_failover(seed):
    """Crash the fastest arm's first incarnation; time the re-grant."""
    injector = FaultInjector(seed=seed).worker_crash(
        arms=[2], duration=0.05  # arm 2 = "cache", the would-be winner
    )
    result, dist = race(seed, injector=injector, warden=RaceWarden())
    crashed = [l for l in dist.leases if l.index == 2 and l.epoch == 1]
    respawned = [l for l in dist.leases if l.index == 2 and l.epoch == 2]
    assert crashed and crashed[0].state == "expired", "crash never fired"
    assert respawned, "no respawn was granted"
    latency = respawned[0].started - crashed[0].ended_at
    return {
        "winner": result.winner.name,
        "elapsed_sim_seconds": round(result.elapsed, 6),
        "lease_expiry_sim_time": round(crashed[0].ended_at, 6),
        "respawn_grant_sim_time": round(respawned[0].started, 6),
        "failover_latency_sim_seconds": round(latency, 6),
        "all_leases_settled": dist.all_settled,
    }


def run_suite(quick=False, seed=0):
    clean, _ = race(seed, warden=RaceWarden())
    lossy, lossy_dist = race(
        seed,
        injector=NetFaultPlan(loss=LOSS_RATE).injector(seed=seed),
        warden=RaceWarden(),
    )
    failover = measure_failover(seed)
    real_wire = run_wire_suite(seed)
    sustained = run_sustained_suite(seed, blocks=4 if quick else 6)
    slowdown = lossy.elapsed / clean.elapsed
    payload = {
        "experiment": "distributed_chaos",
        "quick": quick,
        "seed": seed,
        "arm_costs_seconds": ARM_COSTS,
        "loss_rate": LOSS_RATE,
        "clean": {
            "winner": clean.winner.name,
            "elapsed_sim_seconds": round(clean.elapsed, 6),
            "wasted_work_sim_seconds": round(clean.wasted_work, 6),
        },
        "lossy": {
            "winner": lossy.winner.name,
            "elapsed_sim_seconds": round(lossy.elapsed, 6),
            "wasted_work_sim_seconds": round(lossy.wasted_work, 6),
            "messages_dropped": lossy_dist.network.drops,
            "all_leases_settled": lossy_dist.all_settled,
        },
        "lossy_vs_clean_elapsed": round(slowdown, 4),
        "failover": failover,
        "real_wire": real_wire,
        "sustained": sustained,
        "criteria": {
            "real_wire_" + name: held
            for name, held in real_wire["criteria"].items()
        }
        | {
            "sustained_" + name: held
            for name, held in sustained["criteria"].items()
        }
        | {
            "same_winner_under_loss": clean.winner.name == lossy.winner.name,
            "loss_costs_time_not_correctness": lossy.elapsed >= clean.elapsed,
            "failover_recovers_the_winner": failover["winner"] == "cache",
            "failover_latency_positive": (
                failover["failover_latency_sim_seconds"] > 0
            ),
            "no_leaked_leases": (
                lossy_dist.all_settled
                and failover["all_leases_settled"]
            ),
        },
    }
    return payload


def render_table(payload):
    rows = [
        {
            "condition": "clean network",
            "winner": payload["clean"]["winner"],
            "elapsed (sim s)": payload["clean"]["elapsed_sim_seconds"],
            "drops": 0,
            "failover (sim s)": "-",
        },
        {
            "condition": f"{int(payload['loss_rate'] * 100)}% message loss",
            "winner": payload["lossy"]["winner"],
            "elapsed (sim s)": payload["lossy"]["elapsed_sim_seconds"],
            "drops": payload["lossy"]["messages_dropped"],
            "failover (sim s)": "-",
        },
        {
            "condition": "winner's worker crashed",
            "winner": payload["failover"]["winner"],
            "elapsed (sim s)": payload["failover"]["elapsed_sim_seconds"],
            "drops": 0,
            "failover (sim s)": payload["failover"][
                "failover_latency_sim_seconds"
            ],
        },
    ]
    wire = payload["real_wire"]
    wire_rows = [
        {
            "condition": "real wire, clean",
            "winner": wire["clean"]["winner"],
            "elapsed (wall s)": wire["clean"]["elapsed_wall_seconds"],
            "drops": 0,
            "failover (wall s)": "-",
        },
        {
            "condition": (
                f"real wire, {int(payload['loss_rate'] * 100)}% frame loss"
            ),
            "winner": wire["lossy"]["winner"],
            "elapsed (wall s)": wire["lossy"]["elapsed_wall_seconds"],
            "drops": wire["lossy"]["frames_dropped"],
            "failover (wall s)": "-",
        },
        {
            "condition": "real wire, winner's worker crashed",
            "winner": wire["failover"]["winner"],
            "elapsed (wall s)": wire["failover"]["elapsed_wall_seconds"],
            "drops": 0,
            "failover (wall s)": wire["failover"][
                "failover_latency_wall_seconds"
            ],
        },
    ]
    sustained = payload["sustained"]
    sustained_rows = [
        {
            "condition": (
                f"sustained: {sustained['blocks']} blocks, "
                f"{int(payload['loss_rate'] * 100)}% loss, "
                f"{sustained['kills']} rolling kills"
            ),
            "converged": (
                f"{sustained['blocks_converged']}/{sustained['blocks']}"
            ),
            "blocks/s": sustained["blocks_per_second"],
            "drops": sustained["frames_dropped"],
            "p99 failover (wall s)": sustained[
                "p99_failover_latency_wall_seconds"
            ],
        },
    ]
    simulated = format_table(
        rows,
        title=(
            "C1: one 3-arm block on the distributed substrate, per chaos "
            "condition\n"
            "(chaos costs simulated time, never the outcome; every lease "
            "settles)"
        ),
    )
    real = format_table(
        wire_rows,
        title=(
            "C1b: the same block on real localhost TCP daemons\n"
            "(wall-clock elapsed; loss via the frame-dropping proxy)"
        ),
    )
    churn = format_table(
        sustained_rows,
        title=(
            "C1c: a sustained stream of blocks under continuous frame "
            "loss and rolling worker kills\n"
            "(every block converges to its serial reference while "
            "membership heals around the churn)"
        ),
    )
    return simulated + "\n\n" + real + "\n\n" + churn


def write_json(payload):
    with open(JSON_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return JSON_PATH


def check_criteria(payload):
    for name, held in payload["criteria"].items():
        assert held, f"acceptance criterion failed: {name}"


def bench_c1_distributed_chaos(benchmark, emit):
    payload = benchmark.pedantic(
        lambda: run_suite(quick=True), rounds=1, iterations=1
    )
    emit("C1_distributed_chaos", render_table(payload))
    write_json(payload)
    check_criteria(payload)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="accepted for harness symmetry (the run is simulated and fast)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for the chaos injector and the executors (recorded in "
        "the JSON payload so a run can be reproduced exactly)",
    )
    args = parser.parse_args(argv)
    payload = run_suite(quick=args.quick, seed=args.seed)
    print(render_table(payload))
    print(
        f"5% loss cost {payload['lossy_vs_clean_elapsed']:.2f}x the clean "
        "elapsed simulated time; "
        "failover re-granted the crashed arm after "
        f"{payload['failover']['failover_latency_sim_seconds']:.4f} "
        "simulated seconds"
    )
    sustained = payload["sustained"]
    print(
        f"sustained load: {sustained['blocks']} blocks at "
        f"{sustained['blocks_per_second']:.2f} blocks/s through "
        f"{sustained['kills']} rolling kills and "
        f"{sustained['frames_dropped']} dropped frames; p99 failover "
        f"{sustained['p99_failover_latency_wall_seconds']}s; every block "
        "converged to its serial reference"
    )
    path = write_json(payload)
    print(f"machine-readable record: {path}")
    check_criteria(payload)
    print("acceptance criteria: all satisfied")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
