"""The benchmark's declaration: workloads, metrics, bounds, interactions.

Single source of truth.  ``BENCHMARK.json`` at the repo root is
:func:`contract` serialised (``run.py --print-contract``); the self-check
asserts the two agree, so a name cannot be emitted without being declared
or declared without being emitted.  ``moves`` records, before any
optimisation is attempted, which end-to-end metric on which workload a
layer metric is expected to move, and ``flat_on`` where the prediction is
*no change* (choosing-metrics guide, section 3).
"""

from __future__ import annotations

import re
from typing import Dict, List, NamedTuple, Tuple

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

RUN_SECONDS = 12
"""Length of one measured run; frozen here and in ``BENCHMARK.json``."""

SEED = 0
"""The seed the committed baseline record was taken with."""


class Workload(NamedTuple):
    name: str
    loop: str
    why: str


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    definition: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    layer: str
    moves: Tuple[Tuple[str, str], ...] = ()
    flat_on: Tuple[str, ...] = ()


SOLO = ("solo-small", "solo-snapshot", "solo-dirty", "solo-thread")
POOLED = ("solo-small", "solo-snapshot", "solo-dirty")
SERVED = ("served-steady", "served-burst")

WORKLOADS: List[Workload] = [
    Workload(
        "solo-small", "closed, 1 thread",
        "Overhead-dominated pooled race: 3 sub-ms CPU arms, 64 KiB space, "
        "1 dirty page; executor, process backend, pool and wire control "
        "path do nearly all the work, pages almost none.",
    ),
    Workload(
        "solo-snapshot", "closed, 1 thread",
        "Reads of inherited state: 4 MiB parent with 256 non-zero pages, "
        "arms dirty 1 page; per-arm snapshot publish in WorldPool.lease "
        "and the worker-side rebuild dominate, shipback is trivial.",
    ),
    Workload(
        "solo-dirty", "closed, 1 thread",
        "Writes: empty 4 MiB parent, every arm dirties 256 pages; slab "
        "publish, pointer-swap commit and slab lifecycle dominate, "
        "snapshot is trivial. Twin of solo-snapshot.",
    ),
    Workload(
        "solo-thread", "closed, 1 thread",
        "The regime where racing pays: thread backend, 3 sleeping I/O "
        "arms (2/6/15 ms), in-process COW fork/adopt only; control on "
        "which pool, shm, wire and server changes must show no change.",
    ),
    Workload(
        "served-steady", "open, 40 blocks/s",
        "What a tenant feels below saturation: RaceServer on the process "
        "backend, 4 zipf tenants, 2-4 arm blocks, empty queues; per-request "
        "construction, dispatch hand-off and resolve lag.",
    ),
    Workload(
        "served-burst", "closed, 32 tickets outstanding",
        "Capacity and fairness with deep queues: same server and block "
        "mix kept saturated; admission, DRR, the dispatcher loop and "
        "pool-lock contention between concurrent races.",
    ),
    Workload(
        "cluster-race", "closed, 1 thread",
        "Same blocks as solo-small raced over localhost TCP on three "
        "worker daemons with the HMAC envelope; cluster-race minus "
        "solo-small is the price of the wire. Pool and server idle.",
    ),
]

END_TO_END: List[EndToEnd] = [
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "fresh interpreter start -> first block can be issued (import "
        "repro, pool/server construction or daemon spawn); fastest of "
        "three fresh-process probes",
    ),
    EndToEnd(
        "latency_p50_ms", "ms", "lower", 0.25,
        "solo/cluster: executor.run() call -> return; served-steady: due "
        "time -> ticket resolved; served-burst: submit -> resolved; "
        "median over the timed blocks",
    ),
    EndToEnd(
        "overhead_p50_ms", "ms", "lower", 0.25,
        "latency minus the calibrated tau(C_best) of the block: the "
        "paper's tau(overhead) as the caller sees it",
    ),
    EndToEnd(
        "blocks_per_s", "1/s", "higher", 0.25,
        "correct blocks per second of the timed interval (closed "
        "single-thread loops: per second spent inside the program)",
    ),
    EndToEnd(
        "cpu_ms_per_block", "ms", "lower", 0.25,
        "user+sys CPU of the workload process and every reaped child "
        "over warm-up and timed interval / blocks run",
    ),
    EndToEnd(
        "peak_rss_mb", "MiB", "lower", 0.10,
        "ru_maxrss of the workload process plus its largest child",
    ),
]


def _layer(layer, rows, moves=(), flat_on=()):
    return [
        PerLayer(f"{layer}.{suffix}", unit, better, layer, tuple(moves),
                 tuple(flat_on))
        for suffix, unit, better in rows
    ]


PER_LAYER: List[PerLayer] = (
    _layer(
        "server",
        [
            ("submit_ms", "ms", "lower"),
            ("queue_wait_p50_ms", "ms", "lower"),
            ("queue_wait_p95_ms", "ms", "lower"),
            ("resolve_lag_p50_ms", "ms", "lower"),
            ("self_ms_per_block", "ms", "lower"),
            ("take_calls_per_block", "count", "lower"),
            ("empty_take_share", "ratio", "lower"),
            ("batch_blocks_mean", "count", "higher"),
            ("worker_busy_share", "ratio", "higher"),
            ("arm_occupancy", "ratio", "higher"),
            ("rejects", "count", "lower"),
            ("slo_miss_share", "ratio", "lower"),
            ("fairness_spread", "ratio", "lower"),
        ],
        moves=[
            ("blocks_per_s", "served-burst"),
            ("cpu_ms_per_block", "served-burst"),
            ("latency_p50_ms", "served-burst"),
            ("overhead_p50_ms", "served-steady"),
        ],
        flat_on=SOLO + ("cluster-race",),
    )
    + _layer(
        "core.concurrent",
        [
            ("ctor_ms", "ms", "lower"),
            ("run_ms", "ms", "lower"),
            ("run_self_ms", "ms", "lower"),
            ("wasted_cpu_share", "ratio", "lower"),
            ("reported_overhead_gap_ms", "ms", "lower"),
        ],
        moves=[
            ("overhead_p50_ms", "solo-small"),
            ("overhead_p50_ms", "served-steady"),
        ],
        flat_on=("cluster-race",),
    )
    + _layer(
        "core.backends.process",
        [
            ("ctor_ms", "ms", "lower"),
            ("run_arms_ms", "ms", "lower"),
            ("run_arms_self_ms", "ms", "lower"),
            ("terminate_calls_per_block", "count", "lower"),
        ],
        moves=[
            ("latency_p50_ms", "solo-small"),
            ("cpu_ms_per_block", "solo-small"),
        ],
        flat_on=("solo-thread", "cluster-race"),
    )
    + _layer(
        "core.backends.thread",
        [
            ("run_arms_ms", "ms", "lower"),
            ("run_arms_self_ms", "ms", "lower"),
        ],
        moves=[
            ("overhead_p50_ms", "solo-thread"),
            ("latency_p50_ms", "solo-thread"),
        ],
        flat_on=POOLED + SERVED + ("cluster-race",),
    )
    + _layer(
        "core.backends.wire",
        [
            ("feed_ms_per_block", "ms", "lower"),
            ("frame_ms_per_block", "ms", "lower"),
            ("bytes_per_block", "count", "lower"),
        ],
        moves=[
            ("latency_p50_ms", "cluster-race"),
            ("latency_p50_ms", "solo-small"),
        ],
        flat_on=("solo-thread",),
    )
    + _layer(
        "process.pool",
        [
            ("ctor_ms", "ms", "lower"),
            ("lease_ms", "ms", "lower"),
            ("lease_p95_ms", "ms", "lower"),
            ("lease_ms_per_block", "ms", "lower"),
            ("finish_ms", "ms", "lower"),
            ("snapshot_pages_per_lease", "count", "lower"),
            ("leases", "count", "higher"),
            ("fallbacks", "count", "lower"),
            ("respawns", "count", "lower"),
        ],
        moves=[
            ("overhead_p50_ms", "solo-snapshot"),
            ("overhead_p50_ms", "solo-small"),
            ("latency_p50_ms", "served-burst"),
            ("setup_s", "solo-small"),
        ],
        flat_on=("solo-thread", "cluster-race"),
    )
    + _layer(
        "pages",
        [
            ("fork_ms", "ms", "lower"),
            ("adopt_ms", "ms", "lower"),
            ("apply_shm_pages_ms", "ms", "lower"),
            ("apply_pages_ms", "ms", "lower"),
            ("committed_pages_per_block", "count", "lower"),
            ("shm.create_ms", "ms", "lower"),
            ("shm.dispose_ms", "ms", "lower"),
            ("shm.write_slot_ms_per_block", "ms", "lower"),
            ("shm.slabs_per_block", "count", "lower"),
            ("transport_shm_share", "ratio", "higher"),
            ("shm.live_slabs_end", "count", "lower"),
            ("shm.orphaned_segments_end", "count", "lower"),
        ],
        moves=[
            ("overhead_p50_ms", "solo-dirty"),
            ("peak_rss_mb", "solo-dirty"),
            ("overhead_p50_ms", "solo-snapshot"),
            ("overhead_p50_ms", "solo-thread"),
        ],
        flat_on=("solo-small",),
    )
    + _layer(
        "cluster",
        [
            ("executor.ctor_ms", "ms", "lower"),
            ("executor.run_ms", "ms", "lower"),
            ("executor.run_self_ms", "ms", "lower"),
            ("stream.connects_per_block", "count", "lower"),
            ("stream.send_ms_per_block", "ms", "lower"),
            ("stream.recv_ms_per_block", "ms", "lower"),
            ("stream.bytes_per_block", "count", "lower"),
            ("auth.handshake_ms_per_block", "ms", "lower"),
            ("semaphore.try_acquire_ms", "ms", "lower"),
        ],
        moves=[
            ("latency_p50_ms", "cluster-race"),
            ("cpu_ms_per_block", "cluster-race"),
        ],
        flat_on=SOLO + SERVED,
    )
    + _layer(
        "obs",
        [("tracer_overhead_share", "ratio", "lower")],
        moves=[("latency_p50_ms", "solo-small")],
    )
    + _layer(
        "bench",
        [
            ("span_overhead_share", "ratio", "lower"),
            ("closure_share", "ratio", "higher"),
            ("traced_latency_p50_ms", "ms", "lower"),
            ("untraced_latency_p50_ms", "ms", "lower"),
            ("traced_blocks", "count", "higher"),
            ("failed_share", "ratio", "lower"),
            ("pi_median", "ratio", "higher"),
            ("latency_p95_ms", "ms", "lower"),
            ("latency_tail_ms", "ms", "lower"),
            ("latency_tail_pct", "%", "higher"),
            ("gen_late_p99_ms", "ms", "lower"),
        ],
    )
)

WORKLOAD_NAMES = [w.name for w in WORKLOADS]
END_TO_END_NAMES = [m.name for m in END_TO_END]
PER_LAYER_NAMES = [m.name for m in PER_LAYER]
UNITS: Dict[str, str] = {
    m.name: m.unit for m in list(END_TO_END) + list(PER_LAYER)
}

def contract() -> dict:
    """The ``BENCHMARK.json`` object, exactly the driver's keys."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w.name, "why": w.why} for w in WORKLOADS
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


def validate_result(result: dict, trace: bool) -> List[str]:
    """Problems with one run's result object; empty when it conforms."""
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys are {sorted(result)}")
        return problems
    declared = PER_LAYER_NAMES if trace else END_TO_END_NAMES
    metrics = result["metrics"]
    for name in declared:
        if name not in metrics:
            problems.append(f"missing metric {name}")
    for name, entry in metrics.items():
        if not NAME_RE.match(name):
            problems.append(f"bad metric name {name!r}")
        if name not in declared:
            problems.append(f"undeclared metric {name}")
        elif entry.get("unit") != UNITS[name]:
            problems.append(
                f"{name} has unit {entry.get('unit')!r}, "
                f"declared {UNITS[name]!r}"
            )
        if not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{name} has no numeric value")
    return problems
