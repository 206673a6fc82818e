"""One run of one workload: untraced (end to end) or traced (per layer).

The untraced run is the only source of end-to-end numbers.  The traced
run alternates short chunks with the span wrappers installed and removed,
so the per-layer numbers, the wrappers' own cost and the few ungated
``bench.*`` lines all come from adjacent stretches of the same process.
"""

from __future__ import annotations

import glob
import os
import resource
import subprocess
import sys
import threading
import time
from typing import Dict, List, Tuple

from repro.obs import Tracer, tracing
from repro.pages.shm import (
    SLAB_PREFIX,
    cleanup_all_slabs,
    live_slab_count,
    orphaned_segments,
)

from bench import declare, layers, spans, workloads
from bench.spans import clock
from bench.stats import median, percentile, tail

FULL_EFFORT = (3, workloads.CALIBRATION_RUNS)
"""Set-up probes per run, standalone runs per body per chunk boundary."""
SMOKE_EFFORT = (1, 2)
WARMUP_SHARE = 0.1
TRACE_ROUNDS = 3
CLOSURE_RANGE = (0.98, 1.02)
GENERATOR_STARVED_MS = 5.0

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _live_children() -> List[int]:
    pids = []
    for path in glob.glob("/proc/self/task/*/children"):
        try:
            with open(path) as handle:
                pids.extend(int(pid) for pid in handle.read().split())
        except OSError:  # the thread ended while we looked
            continue
    return pids


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest live
    child (pool worker, daemon), in MiB.  Call before teardown.

    The children are read from ``/proc`` and not from
    ``RUSAGE_CHILDREN``, whose maximum would be the set-up probe
    interpreter that ran before the load.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB
    largest = 0
    for pid in _live_children():
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        largest = max(largest, int(line.split()[1]))  # KiB
        except OSError:  # exited between the listing and the read
            continue
    return (own + largest) / 1024.0


def probe_setup(workload: str, seed: int) -> float:
    """``setup_s`` once: a fresh interpreter from start to first block."""
    command = [
        sys.executable, os.path.join(BENCH_DIR, "run.py"),
        "--setup-probe", workload, "--seed", str(seed),
        "--t0", repr(time.time()),
    ]
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout.strip().splitlines()[-1])


def setup_probe_main(workload: str, seed: int, t0: float) -> None:
    """Body of the probe interpreter (``run.py --setup-probe``)."""
    program = workloads.build(workload, seed)
    try:
        program.setup()
        print(repr(time.time() - t0))
    finally:
        program.teardown()


class Audit:
    """Resource baseline before a workload, leak check after it.

    ``problems`` fail the run: something the program would leave behind
    for good.  Slabs that are still live after teardown but that the
    program's own exit hook reclaims are *held*, not leaked: they are
    counted (``pages.shm.live_slabs_end``) and reported, and only a
    segment that survives the hook is an orphan.
    """

    def __init__(self) -> None:
        self.threads = threading.active_count()
        self.problems: List[str] = []
        self.notes: List[str] = []
        self.held = 0
        self.orphaned = 0

    def finish(self, inflight: int) -> None:
        if inflight:
            self.problems.append(f"{inflight} pool leases never settled")
        self.held = live_slab_count()
        if self.held:
            self.notes.append(
                f"held: {self.held} shm slabs live after teardown "
                "(reclaimed only by the interpreter's exit hook)"
            )
        cleanup_all_slabs()
        # Slabs are created by this process only (workers attach), so
        # its pid in the name tells ours from a neighbour's.
        orphans = orphaned_segments(f"{SLAB_PREFIX}_{os.getpid()}_")
        self.orphaned = len(orphans)
        if orphans:
            self.problems.append(
                f"{len(orphans)} orphaned /dev/shm segments, "
                f"first {orphans[0]}"
            )
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            pass
        else:
            self.problems.append("child processes left un-reaped")
        deadline = time.monotonic() + 2.0
        while (threading.active_count() > self.threads
               and time.monotonic() < deadline):
            time.sleep(0.02)
        extra = threading.active_count() - self.threads
        if extra > 0:
            self.problems.append(f"{extra} threads outlived the workload")
        self.notes = [f"leak: {p}" for p in self.problems] + self.notes


def annotate(samples: List[dict], tau: Dict[str, float]) -> None:
    for record in samples:
        times = [tau[label] for label in record["arms"]]
        record["tau_best"] = min(times)
        record["tau_mean"] = sum(times) / len(times)


def end_to_end(loop: str, samples: List[dict], began: float) -> Dict[str, float]:
    """The latency-derived end-to-end metrics of one timed chunk."""
    good = [record for record in samples if record["ok"]]
    if loop == "closed1":
        spent = sum(record["latency"] for record in samples)
    else:
        spent = max((r["end"] for r in samples), default=began) - began
    return {
        "latency_p50_ms": 1e3 * median([r["latency"] for r in good]),
        "overhead_p50_ms": 1e3 * median(
            [r["latency"] - r["tau_best"] for r in good]),
        "blocks_per_s": len(good) / spent if spent > 0 else 0.0,
    }


def ungated(program, samples: List[dict]) -> Dict[str, float]:
    """Lines printed for the reader, never compared against a bound."""
    good = [r["latency"] for r in samples if r["ok"]]
    pct, value = tail(good)
    out = {
        "bench.failed_share": (
            sum(1 for r in samples if not r["ok"]) / len(samples)
            if samples else 0.0
        ),
        "bench.pi_median": median(
            [r["tau_mean"] / r["latency"] for r in samples if r["ok"]]
        ),
        "bench.latency_p95_ms": 1e3 * percentile(good, 0.95),
        "bench.latency_tail_ms": 1e3 * value,
        "bench.latency_tail_pct": pct,
        "bench.gen_late_p99_ms": 0.0,
        "server.slo_miss_share": 0.0,
        "server.fairness_spread": 0.0,
    }
    if program.loop != "served" or not samples:
        return out
    if program.burst:
        arms = {tenant: 0 for tenant in workloads.TENANTS}
        for record in samples:
            if record["ok"] and record["counted"]:
                arms[record["tenant"]] += record["width"]
        if min(arms.values()) > 0:
            out["server.fairness_spread"] = (
                max(arms.values()) / min(arms.values())
            )
    else:
        out["bench.gen_late_p99_ms"] = 1e3 * percentile(
            [r["late"] for r in samples], 0.99
        )
        missed = sum(
            1 for r in samples
            if not (r["ok"] and r["latency"] <= workloads.SLO_SECONDS)
        )
        out["server.slo_miss_share"] = missed / len(samples)
    return out


def _result(samples, metrics: Dict[str, float], problems: List[str]) -> dict:
    failed = sum(1 for record in samples if not record["ok"])
    return {
        "correct": failed == 0 and not problems and bool(samples),
        "attempted": max(1, len(samples)),
        "failed": failed if samples else 1,
        "metrics": {
            name: {"value": value, "unit": declare.UNITS[name]}
            for name, value in metrics.items()
        },
    }


def _report(title: str, metrics: Dict[str, float], notes: List[str]) -> List[str]:
    lines = [title]
    for name, value in metrics.items():
        lines.append(f"  {name:<46} {value:>14.6g} {declare.UNITS[name]}")
    lines.extend(f"  ! {note}" for note in notes)
    return lines


def _failures(samples: List[dict]) -> List[str]:
    details = sorted({r["detail"] for r in samples if not r["ok"]})
    return [f"failed block: {detail}" for detail in details[:5]]


def untraced(workload: str, seed: int, seconds: float,
             smoke: bool = False) -> Tuple[dict, List[str]]:
    """The end-to-end run: warm-up, one timed chunk, nothing installed."""
    probes, calibration = SMOKE_EFFORT if smoke else FULL_EFFORT
    audit = Audit()
    # One probe before the load and the rest after it, a quarter of a
    # minute apart: the fastest is then rarely taken in a slow phase of
    # the host, where three bunched probes all land together.
    setups = [probe_setup(workload, seed)] if probes > 1 else []
    program = workloads.build(workload, seed)
    try:
        program.setup()
        program.prepare()
        calibrator = workloads.Calibrator(program)
        calibrator.round(calibration)
        blocks = program.blocks()
        cpu_self = _cpu(resource.RUSAGE_SELF)
        cpu_children = _cpu(resource.RUSAGE_CHILDREN)
        warm = program.run_chunk(WARMUP_SHARE * seconds, blocks, None)
        calibrator.round(calibration)
        began = clock()
        timed = program.run_chunk(seconds, blocks, None, calibrator.round)
        cpu_self = _cpu(resource.RUSAGE_SELF) - cpu_self
        calibrator.round(calibration)
        inflight = program.inflight()
        rss = _peak_rss_mb()
    finally:
        program.teardown()
    cpu_children = _cpu(resource.RUSAGE_CHILDREN) - cpu_children
    audit.finish(inflight)
    annotate(timed, calibrator.tau())
    while len(setups) < probes:
        setups.append(probe_setup(workload, seed))
    metrics = {
        "setup_s": min(setups),
        **end_to_end(program.loop, timed, began),
        "cpu_ms_per_block": (
            1e3 * (cpu_self + cpu_children) / max(1, len(warm) + len(timed))
        ),
        "peak_rss_mb": rss,
    }
    extra = ungated(program, timed)
    notes = audit.notes + _failures(timed)
    if extra["bench.gen_late_p99_ms"] > GENERATOR_STARVED_MS:
        notes.append("generator-starved: load generator ran late")
    lines = _report(
        f"[{workload}] end to end, untraced: {len(timed)} blocks in "
        f"{seconds:g} s, seed {seed}", metrics, [],
    )
    lines += _report("  ungated, same run:", extra, notes)
    return _result(timed, metrics, audit.problems), lines


def traced(workload: str, seed: int, seconds: float,
           smoke: bool = False) -> Tuple[dict, List[str]]:
    """The per-layer run: rounds of traced / plain (/ tracer) chunks."""
    _, calibration = SMOKE_EFFORT if smoke else FULL_EFFORT
    audit = Audit()
    recorder = spans.Recorder()
    program = workloads.build(workload, seed)
    modes = ["traced", "plain"]
    if program.measures_tracer:
        modes.append("tracer")
    by_mode: Dict[str, List[dict]] = {mode: [] for mode in modes}
    moved: Dict[str, float] = {}
    traced_wall = 0.0
    tracer = Tracer()
    try:
        # Installed across construction so the constructors are spanned.
        recorder.install()
        try:
            program.setup()
        finally:
            recorder.uninstall()
        program.prepare()
        calibrator = workloads.Calibrator(program)
        calibrator.round(calibration)
        blocks = program.blocks()
        program.run_chunk(WARMUP_SHARE * seconds, blocks, None)
        chunk = seconds / (TRACE_ROUNDS * len(modes))
        for _ in range(TRACE_ROUNDS):
            for mode in modes:
                if mode == "traced":
                    start_counts = program.counters()
                    recorder.install()
                    try:
                        began = clock()
                        got = program.run_chunk(chunk, blocks, recorder)
                        traced_wall += clock() - began
                    finally:
                        recorder.uninstall()
                    for key, value in program.counters().items():
                        moved[key] = (
                            moved.get(key, 0) + value - start_counts[key]
                        )
                elif mode == "tracer":
                    with tracing(tracer):
                        got = program.run_chunk(chunk, blocks, None)
                else:
                    got = program.run_chunk(chunk, blocks, None)
                by_mode[mode].extend(got)
                calibrator.round()
        calibrator.round(calibration)
        inflight = program.inflight()
    finally:
        program.teardown()
    audit.finish(inflight)
    leftovers = recorder.leftovers()
    if leftovers:
        audit.problems.append(f"wrappers still installed: {leftovers}")
        audit.notes.append(f"leak: wrappers still installed: {leftovers}")
    moved["live_slabs_end"] = audit.held
    moved["orphaned_segments_end"] = audit.orphaned
    tau = calibrator.tau()
    for records in by_mode.values():
        annotate(records, tau)

    self_time = spans.resolve(recorder.spans)
    spans.write_jsonl(
        os.path.join(OUT_DIR, f"{workload}.spans.jsonl"),
        recorder.spans, self_time,
    )
    good = {r["block"]: r for r in by_mode["traced"] if r["ok"]}
    metrics = layers.derive(
        recorder.spans, self_time, good, traced_wall, moved, program.config,
    )

    def p50(mode):
        return median([r["latency"] for r in by_mode.get(mode, []) if r["ok"]])

    plain = p50("plain")
    metrics.update(ungated(program, by_mode["plain"]))
    metrics.update({
        "bench.traced_latency_p50_ms": 1e3 * p50("traced"),
        "bench.untraced_latency_p50_ms": 1e3 * plain,
        "bench.traced_blocks": len(good),
        "bench.span_overhead_share": (
            p50("traced") / plain - 1.0 if plain else 0.0
        ),
        "obs.tracer_overhead_share": (
            p50("tracer") / plain - 1.0
            if plain and "tracer" in by_mode else 0.0
        ),
    })
    metrics = {name: metrics[name] for name in declare.PER_LAYER_NAMES}
    everything = [r for records in by_mode.values() for r in records]
    notes = audit.notes + _failures(everything)
    low, high = CLOSURE_RANGE
    if not low <= metrics["bench.closure_share"] <= high:
        notes.append(
            f"closure: span self times explain "
            f"{metrics['bench.closure_share']:.4f} of the traced latency"
        )
    lines = _report(
        f"[{workload}] per layer, traced: {len(good)} traced blocks of "
        f"{len(everything)} in {seconds:g} s, seed {seed}", metrics, notes,
    )
    return _result(everything, metrics, audit.problems), lines
