#!/usr/bin/env python3
"""The benchmark's one command.

    python3 bench/run.py --seed 0                 every workload, both passes
    python3 bench/run.py --smoke                  the same in well under a minute
    python3 bench/run.py --repeat 3 --out A.json  three sets, medians and quartiles
    python3 bench/run.py --compare A.json B.json  regressed / within / unresolved
    python3 bench/run.py --verify-shapes [R.json] each layer isolated by a workload
    python3 bench/run.py --workload solo-small --seed 3 --seconds 12 --trace 0
                                                  one run, as the driver calls it

Every run of a workload happens in a fresh interpreter.  A run prints
each metric by name with its unit and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
CONTRACT_PATH = os.path.join(ROOT, "BENCHMARK.json")
BASELINE_PATH = os.path.join(BENCH_DIR, "baseline.json")

SMOKE_SECONDS = 0.3


def _enter_checkout() -> None:
    """Make ``repro`` and ``bench`` importable here and in every child
    (pool workers inherit; cluster daemons read ``PYTHONPATH``), and keep
    the daemons' port files inside the checkout."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"bench: no program to measure: {SRC}/repro is missing")
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    inherited = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join([ROOT, SRC] + inherited)
    scratch = os.path.join(OUT_DIR, "tmp")
    os.makedirs(scratch, exist_ok=True)
    os.environ["TMPDIR"] = scratch


# ----------------------------------------------------------------------
# one run (the driver's contract)


def run_one(args) -> int:
    from bench import measure

    procedure = measure.traced if args.trace else measure.untraced
    result, lines = procedure(
        args.workload, args.seed, args.seconds, smoke=args.smoke
    )
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# the whole set


def _host() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "kernel": platform.release(),
        "python": platform.python_version(),
        "commit": commit,
    }


def _child(workload: str, seed: int, seconds: float, trace: int, smoke: bool):
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", str(trace),
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"bench: {workload} --trace {trace} exited "
                         f"{done.returncode}")
    *report, result = done.stdout.strip().splitlines()
    print("\n".join(report), flush=True)
    return json.loads(result)


def run_set(seed: int, seconds: float, smoke: bool):
    """Every workload once, untraced then traced; returns (run, problems)."""
    from bench import declare, measure

    run = {"workloads": {}}
    problems = []
    for workload in declare.WORKLOAD_NAMES:
        entry = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = _child(workload, seed, seconds, trace, smoke)
            for problem in declare.validate_result(result, bool(trace)):
                problems.append(f"{workload}: {problem}")
            if not result["correct"]:
                problems.append(f"{workload}: --trace {trace} run not correct")
            entry[key] = {
                name: metric["value"]
                for name, metric in result["metrics"].items()
            }
            entry[f"{key}_attempted"] = result["attempted"]
            entry[f"{key}_failed"] = result["failed"]
        low, high = measure.CLOSURE_RANGE
        closure = entry["per_layer"]["bench.closure_share"]
        if not low <= closure <= high:
            problems.append(f"{workload}: bench.closure_share is {closure:.4f}")
        run["workloads"][workload] = entry
    return run, problems


def summarise(runs) -> dict:
    from bench.stats import spread

    summary = {}
    for workload in runs[0]["workloads"]:
        summary[workload] = {}
        for key in ("end_to_end", "per_layer"):
            for name in runs[0]["workloads"][workload][key]:
                values = [run["workloads"][workload][key][name] for run in runs]
                if len(values) > 1:
                    q1, _, q3 = statistics.quantiles(values, n=4)
                else:
                    q1 = q3 = values[0]
                summary[workload][name] = {
                    "median": statistics.median(values), "q1": q1, "q3": q3,
                    "spread": spread(values),
                }
    return summary


def _refuse_overwrite(path: str, smoke: bool) -> None:
    target = os.path.abspath(path)
    if target == CONTRACT_PATH:
        sys.exit("bench: BENCHMARK.json is the declaration, not a record; "
                 "choose another --out")
    if smoke and target == BASELINE_PATH:
        sys.exit("bench: a --smoke record may not replace the full "
                 "baseline record")


def run_all(args) -> int:
    from bench import declare

    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    out = args.out or os.path.join(
        OUT_DIR, f"record-seed{args.seed}{'-smoke' if args.smoke else ''}.json"
    )
    _refuse_overwrite(out, args.smoke)
    record = {
        "schema": 1,
        "smoke": bool(args.smoke),
        "seed": args.seed,
        "seconds": seconds,
        "host": _host(),
        "started": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "runs": [],
    }
    problems = []
    for _ in range(args.repeat):
        run, found = run_set(args.seed, seconds, args.smoke)
        record["runs"].append(run)
        problems.extend(found)
    record["summary"] = summarise(record["runs"])
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"\nrecord written to {os.path.relpath(out)}")
    if args.repeat > 1:
        print(f"\nmedian [q1 .. q3] over {args.repeat} sets:")
        for workload, metrics in record["summary"].items():
            for name in declare.END_TO_END_NAMES:
                s = metrics[name]
                print(f"  {workload:<14} {name:<18} {s['median']:>12.6g} "
                      f"[{s['q1']:.6g} .. {s['q3']:.6g}] {declare.UNITS[name]}")
    for problem in problems:
        print(f"PROBLEM {problem}")
    if args.verify_shapes is not None and not problems:
        return verify_shapes(record)
    return 1 if problems else 0


# ----------------------------------------------------------------------
# comparing two records


def _load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _values(record: dict, workload: str, key: str, name: str):
    return [run["workloads"][workload][key][name] for run in record["runs"]]


def _failed_share(record: dict, workload: str) -> float:
    attempted = sum(
        run["workloads"][workload]["end_to_end_attempted"]
        for run in record["runs"]
    )
    failed = sum(
        run["workloads"][workload]["end_to_end_failed"]
        for run in record["runs"]
    )
    return failed / attempted if attempted else 1.0


def compare(path_a: str, path_b: str) -> int:
    """Per (workload, end-to-end metric): A, B, how much worse B is, the
    bound, and ``regressed`` / ``within`` / ``unresolved``."""
    from bench import declare
    from bench.stats import spread

    a, b = _load(path_a), _load(path_b)
    if a["smoke"] or b["smoke"]:
        print("note: a --smoke record is too short to carry a verdict")
    bad = 0
    print(f"{'workload':<14} {'metric':<18} {'A':>12} {'B':>12} "
          f"{'worse by':>9} {'bound':>6}  verdict")
    for workload in declare.WORKLOAD_NAMES:
        for metric in declare.END_TO_END:
            va = _values(a, workload, "end_to_end", metric.name)
            vb = _values(b, workload, "end_to_end", metric.name)
            ma, mb = statistics.median(va), statistics.median(vb)
            lower = metric.better == "lower"
            worse = ((mb - ma) if lower else (ma - mb)) / ma if ma else 0.0
            b_always_better = (
                max(vb) < min(va) if lower else min(vb) > max(va)
            )
            if max(spread(va), spread(vb)) > metric.bound and not b_always_better:
                verdict = "unresolved"
            elif worse > metric.bound:
                verdict = "regressed"
                bad += 1
            else:
                verdict = "within"
            print(f"{workload:<14} {metric.name:<18} {ma:>12.6g} {mb:>12.6g} "
                  f"{worse:>+9.3f} {metric.bound:>6.2f}  {verdict}")
        fa, fb = _failed_share(a, workload), _failed_share(b, workload)
        rose = fb > fa
        bad += rose
        print(f"{workload:<14} {'failed_share':<18} {fa:>12.6g} {fb:>12.6g} "
              f"{'':>9} {'any':>6}  {'regressed' if rose else 'within'}")
    return 1 if bad else 0


# ----------------------------------------------------------------------
# layer separation


def verify_shapes(record: dict) -> int:
    """Each layer likely to be optimised does most of its work in one
    named workload and little or none in another."""
    from bench import declare

    summary = record["summary"]

    def value(workload, name):
        return summary[workload][name]["median"]

    def share(workload, *names):
        base = value(workload, "bench.traced_latency_p50_ms")
        return sum(value(workload, name) for name in names) / base

    checks = []

    def ratio(label, big, small, factor=3.0):
        ok = big >= factor * small and big > 0
        checks.append((ok, f"{label}: {big:.4g} vs {small:.4g} "
                           f"(needs >= {factor:g}x)"))

    ratio("process.pool.lease_ms_per_block, solo-snapshot vs solo-small",
          value("solo-snapshot", "process.pool.lease_ms_per_block"),
          value("solo-small", "process.pool.lease_ms_per_block"))
    lease_share = share("solo-snapshot", "process.pool.lease_ms_per_block")
    checks.append((
        lease_share >= 0.4,
        f"process.pool.lease is the largest part of a solo-snapshot "
        f"block: {lease_share:.3f} of its latency (needs >= 0.4)",
    ))
    ratio("pages.apply_shm_pages_ms share of latency, "
          "solo-dirty vs solo-snapshot",
          share("solo-dirty", "pages.apply_shm_pages_ms"),
          share("solo-snapshot", "pages.apply_shm_pages_ms"))
    ratio("pages.shm.write_slot_ms_per_block share of latency, "
          "solo-snapshot vs solo-dirty",
          share("solo-snapshot", "pages.shm.write_slot_ms_per_block"),
          share("solo-dirty", "pages.shm.write_slot_ms_per_block"))
    ratio("server.queue_wait_p50_ms, served-burst vs served-steady",
          value("served-burst", "server.queue_wait_p50_ms"),
          value("served-steady", "server.queue_wait_p50_ms"))

    def silent(workload, prefixes):
        loud = [
            name for name in declare.PER_LAYER_NAMES
            if name.startswith(prefixes) and value(workload, name) != 0
        ]
        checks.append((not loud, f"{workload} never enters "
                                 f"{'/'.join(prefixes)}: {loud or 'silent'}"))

    silent("solo-thread", ("process.pool.", "pages.shm.", "server."))
    for workload in declare.WORKLOAD_NAMES:
        if workload != "cluster-race":
            silent(workload, ("cluster.",))
    checks.append((
        value("cluster-race", "cluster.stream.connects_per_block") > 0,
        "cluster-race dials its daemons",
    ))
    print("\nlayer separation:")
    for ok, text in checks:
        print(f"  {'ok  ' if ok else 'FAIL'} {text}")
    return 0 if all(ok for ok, _ in checks) else 1


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    from bench import declare

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=declare.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=declare.SEED)
    parser.add_argument("--seconds", type=float,
                        default=float(declare.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="about 1%% of the work; the record says so")
    parser.add_argument("--repeat", type=int, default=1, metavar="K")
    parser.add_argument("--out", metavar="RECORD.json")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--verify-shapes", nargs="?", const="",
                        metavar="RECORD.json")
    parser.add_argument("--print-contract", action="store_true")
    parser.add_argument("--setup-probe", choices=declare.WORKLOAD_NAMES,
                        help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.print_contract:
        print(json.dumps(declare.contract(), indent=2))
        return 0
    if args.compare:
        return compare(*args.compare)
    if args.verify_shapes:
        return verify_shapes(_load(args.verify_shapes))
    if args.setup_probe:
        from bench import measure

        measure.setup_probe_main(args.setup_probe, args.seed, args.t0)
        return 0
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    _enter_checkout()
    sys.exit(main())
