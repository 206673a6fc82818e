"""``python -m repro cluster``: run and demolish a real-wire cluster.

Three subcommands:

- ``worker`` -- one worker daemon process (arm executor + consensus
  voter) on a TCP port; ``--port-file`` publishes the bound address,
  ``--hard-crash`` arms genuine SIGKILL responses to injected crashes;
- ``router`` -- one journaled router daemon; point ``--journal`` at the
  same path across restarts and each incarnation recovers the last;
- ``demo`` -- the whole PR in one command: spawns three worker
  processes, races a recovery block across them, SIGKILLs a worker
  mid-race and watches the lease/respawn machinery converge anyway,
  then kills and restarts a router mid-conversation and shows the
  journal replay agreeing with the ghost.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from typing import List, Optional


def _write_port_file(path: Optional[str], host: str, port: int) -> None:
    if not path:
        return
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        handle.write(f"{host}:{port}\n")
    os.replace(tmp, path)  # atomic: readers never see a partial address


# ----------------------------------------------------------------------
# demo bodies (module-level: they ship through pickle)

def demo_careful(ctx):
    """The conservative algorithm: slow, always right."""
    time.sleep(0.5)
    ctx.put("result", sum(range(100)))
    return "careful"


def demo_heuristic(ctx):
    """The fast guess, checked by an acceptance test."""
    time.sleep(0.05)
    ctx.put("result", sum(range(100)))
    return "heuristic"


def demo_accept(ctx, value):
    return ctx.get("result") == 4950


def demo_reckless(ctx):
    """A guess the acceptance test rejects."""
    ctx.put("result", -1)
    return "reckless"


def demo_reject(ctx, value):
    return ctx.get("result") == 4950


def worker_main(args: argparse.Namespace) -> int:
    from repro.cluster.daemon import WorkerDaemon

    join_addr = None
    if args.join:
        host_part, port_part = args.join.rsplit(":", 1)
        join_addr = (host_part, int(port_part))
    daemon = WorkerDaemon(
        node_id=args.node_id,
        host=args.host,
        port=args.port,
        allow_hard_crash=args.hard_crash,
        process_owner=True,
        join_addr=join_addr,
        gossip_interval=args.gossip_interval,
    )
    daemon.install_signal_handlers()
    host, port = daemon.start()
    _write_port_file(args.port_file, host, port)
    print(f"worker {args.node_id} serving on {host}:{port}", flush=True)
    daemon.serve_forever()
    if daemon.shm_leaks_at_shutdown:  # pragma: no cover - leak escape
        print(
            f"warning: leaked shm segments: "
            f"{', '.join(daemon.shm_leaks_at_shutdown)}",
            file=sys.stderr,
        )
        return 1
    return 0


def router_main(args: argparse.Namespace) -> int:
    from repro.cluster.router_service import RouterDaemon

    daemon = RouterDaemon(
        journal_path=args.journal, host=args.host, port=args.port
    )
    daemon.install_signal_handlers()
    host, port = daemon.start()
    _write_port_file(args.port_file, host, port)
    print(
        f"router serving on {host}:{port} "
        f"(journal {args.journal}, recovered {daemon.recovered_rows} rows)",
        flush=True,
    )
    daemon.serve_forever()
    return 0


def demo_main(args: argparse.Namespace) -> int:
    from repro.cluster.auth import generate_secret
    from repro.cluster.executor import ClusterExecutor, WorkerEndpoint
    from repro.cluster.membership import MembershipServer
    from repro.cluster.router_service import RouterClient
    from repro.cluster.spawn import respawn_worker, spawn_router, spawn_worker
    from repro.core.alternative import Alternative

    secret = generate_secret()
    os.environ["REPRO_CLUSTER_SECRET"] = secret

    print("=== real-wire HA cluster demo ===\n")
    print("[1/4] membership server + 3 authenticated worker daemons ...")
    members = MembershipServer(secret=secret)
    join = members.start()
    print(f"      membership gossip on {join[0]}:{join[1]} (HMAC authed)")
    workers = [
        spawn_worker(f"w{i}", join=join, secret=secret) for i in range(3)
    ]
    executor = None
    try:
        for worker in workers:
            print(f"      {worker}")
        endpoints = [
            WorkerEndpoint(w.name, w.host, w.port) for w in workers
        ]
        alternatives = [
            Alternative("careful", demo_careful),
            Alternative("heuristic", demo_heuristic, guard=demo_accept),
            Alternative("reckless", demo_reckless, guard=demo_reject),
        ]

        print("\n[2/4] racing a recovery block; "
              "SIGKILLing a worker mid-race ...")
        executor = ClusterExecutor(
            endpoints, seed=args.seed, membership=members.table,
            secret=secret,
        )
        parent = executor.new_parent()
        victim = workers[1]  # the heuristic arm's round-robin home
        import threading

        def assassin():
            time.sleep(0.02)
            victim.kill()
            print(f"      SIGKILLed {victim.name} (pid {victim.pid})")

        threading.Thread(target=assassin, daemon=True).start()
        result = executor.run(alternatives, parent=parent)
        print(f"      winner: {result.winner.name!r} "
              f"value={result.value!r} "
              f"result={parent.space.get('result')}")
        print(f"      elapsed {result.elapsed:.3f}s, "
              f"all leases settled: "
              f"{executor.warden.table.all_settled}")
        for t, label in result.timeline:
            print(f"        {t:8.3f}  {label}")

        print("\n[3/4] respawning the corpse; it re-joins the live "
              "rotation (no home restart) ...")
        workers[1] = respawn_worker(victim, join=join, secret=secret)
        victim.cleanup()
        deadline = time.monotonic() + 5.0
        record = None
        while time.monotonic() < deadline:
            record = members.table.get(workers[1].name)
            if record is not None and record.state == "healthy" \
                    and record.port == workers[1].port:
                break
            time.sleep(0.05)
        rejoined = record is not None and record.state == "healthy"
        print(f"      {workers[1]}")
        print(f"      membership says: {record}")
        result2 = executor.run(alternatives, parent=parent)
        print(f"      second block winner: {result2.winner.name!r} "
              f"(rotation healed: {rejoined})")

        print("\n[4/4] router kill + journal-replay restart ...")
        journal = os.path.join(
            tempfile.mkdtemp(prefix="repro-demo-"), "router.journal"
        )
        router = spawn_router(journal)
        with RouterClient(router.host, router.port) as client:
            client.register(1)
            client.register(2)
            client.send(1, 2, {"op": "credit", "amount": 100})
            client.deliver_all()
            client.report_status(1, True)
            before = client.digest()
        print(f"      digest before kill: {before}")
        router.kill()
        print(f"      SIGKILLed router (pid {router.pid}); restarting "
              f"from {journal} ...")
        router2 = spawn_router(journal)
        with RouterClient(router2.host, router2.port) as client:
            after = client.digest()
        print(f"      digest after replay: {after}")
        agree = before == after
        print(f"      incarnations agree: {agree}")
        router2.stop()
        router.cleanup()
        router2.cleanup()
        return 0 if (agree and rejoined) else 1
    finally:
        if executor is not None:
            executor.close()
        members.stop()
        for worker in workers:
            if worker.alive:
                worker.stop()
            worker.cleanup()


def cluster_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro cluster",
        description="real-wire cluster runtime: worker/router daemons "
                    "and a kill-and-recover demo",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    worker = sub.add_parser("worker", help="run one worker daemon")
    worker.add_argument("--node-id", default="worker")
    worker.add_argument("--host", default="127.0.0.1")
    worker.add_argument("--port", type=int, default=0)
    worker.add_argument("--port-file", default=None,
                        help="write the bound host:port here")
    worker.add_argument("--hard-crash", action="store_true",
                        help="answer injected crashes with real SIGKILL")
    worker.add_argument("--join", default=None, metavar="HOST:PORT",
                        help="announce to this membership server and "
                             "gossip liveness pings")
    worker.add_argument("--gossip-interval", type=float, default=0.2)
    worker.set_defaults(func=worker_main)

    router = sub.add_parser("router", help="run one journaled router")
    router.add_argument("--journal", required=True)
    router.add_argument("--host", default="127.0.0.1")
    router.add_argument("--port", type=int, default=0)
    router.add_argument("--port-file", default=None)
    router.set_defaults(func=router_main)

    demo = sub.add_parser("demo", help="3 workers, one murder, recovery")
    demo.add_argument("--seed", type=int, default=0)
    demo.set_defaults(func=demo_main)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(cluster_main())
