"""Per-layer metrics, derived from a traced pass's spans and counters.

``*_ms`` are means per call unless suffixed ``_per_block``; a layer that
was never called reports 0 for every one of its metrics, which is what
``--verify-shapes`` relies on to show a workload bypasses a layer.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List

from bench.spans import ROOT, Span
from bench.stats import median, percentile


class _Agg:
    __slots__ = ("calls", "busy", "self_", "value", "durations", "extras")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.self_ = 0.0
        self.value = 0
        self.durations: List[float] = []
        self.extras: List[dict] = []

    def add(self, span: Span, self_time: float) -> None:
        self.calls += span.calls
        self.busy += span.busy
        self.self_ += self_time
        self.value += span.value
        self.durations.append(span.busy)
        if span.extra is not None:
            self.extras.append(span.extra)

    def mean_ms(self) -> float:
        return 1e3 * self.busy / self.calls if self.calls else 0.0

    def self_ms(self) -> float:
        return 1e3 * self.self_ / self.calls if self.calls else 0.0


def closure_share(spans: Iterable[Span], self_time: Dict[int, float],
                  latencies: Dict[int, float]) -> float:
    """Share of the traced latency the named layers' self times explain.

    Sums self time over every span reachable from a timed block's root
    through synchronous children, the root's own self time excluded
    (that part is spent in no wrapped layer), and divides by the
    latency the load loop measured for the same blocks.
    """
    children = defaultdict(list)
    roots = []
    for span in spans:
        if span.name == ROOT and span.block in latencies:
            roots.append(span)
        elif span.sync and span.parent is not None:
            children[span.parent].append(span)
    explained = 0.0
    pending = [child for root in roots for child in children[root.sid]]
    while pending:
        span = pending.pop()
        explained += self_time[span.sid]
        pending.extend(children[span.sid])
    total = sum(latencies.values())
    return explained / total if total else 0.0


def derive(spans: List[Span], self_time: Dict[int, float],
           samples: Dict[int, dict], traced_wall: float,
           counters: Dict[str, float], server_config=None) -> Dict[str, float]:
    """Every span-derived per-layer metric for one workload.

    ``samples`` maps the id of each timed traced block to its load-loop
    record (``latency``, ``tau_best``, ``width``); ``counters`` carries
    the public counters' movement over the traced chunks.
    """
    in_block: Dict[str, _Agg] = defaultdict(_Agg)
    anywhere: Dict[str, _Agg] = defaultdict(_Agg)
    by_id = {span.sid: span for span in spans}
    snapshot_slots = 0
    occupancy = 0.0
    for span in spans:
        own = self_time[span.sid]
        anywhere[span.name].add(span, own)
        if span.block not in samples:
            continue
        in_block[span.name].add(span, own)
        if span.name == "pages.shm.write_slot":
            parent = by_id.get(span.parent)
            if parent is not None and parent.name == "process.pool.lease":
                snapshot_slots += span.calls
        elif span.name == "core.concurrent.run":
            occupancy += span.busy * samples[span.block]["width"]

    blocks = len(samples)

    def per_block(name: str, field: str = "busy", scale: float = 1e3):
        if not blocks:
            return 0.0
        return scale * getattr(in_block[name], field) / blocks

    races = in_block["core.concurrent.run"]
    cluster_runs = in_block["cluster.executor.run"]
    extras = races.extras + cluster_runs.extras
    cpu_all = sum(extra["cpu_all"] for extra in extras)
    latencies = {block: s["latency"] for block, s in samples.items()}
    overhead_measured = median(
        [s["latency"] - s["tau_best"] for s in samples.values()]
    )
    overhead_reported = median(
        [extra["overhead_total"] for extra in extras]
    )
    ctors = anywhere["core.concurrent.ctor"]
    leases = in_block["process.pool.lease"]
    takes = anywhere["server.take"]
    metrics = {
        "core.concurrent.ctor_ms": (
            1e3 * (ctors.busy + anywhere["core.concurrent.new_parent"].busy)
            / ctors.calls if ctors.calls else 0.0
        ),
        "core.concurrent.run_ms": races.mean_ms(),
        "core.concurrent.run_self_ms": races.self_ms(),
        "core.concurrent.wasted_cpu_share": (
            sum(extra["cpu_losers"] for extra in extras) / cpu_all
            if cpu_all else 0.0
        ),
        "core.concurrent.reported_overhead_gap_ms": (
            1e3 * (overhead_measured - overhead_reported) if extras else 0.0
        ),
        "core.backends.process.ctor_ms":
            anywhere["core.backends.process.ctor"].mean_ms(),
        "core.backends.process.run_arms_ms":
            in_block["core.backends.process.run_arms"].mean_ms(),
        "core.backends.process.run_arms_self_ms":
            in_block["core.backends.process.run_arms"].self_ms(),
        "core.backends.process.terminate_calls_per_block":
            per_block("core.backends.process.terminate_arm", "calls", 1),
        "core.backends.thread.run_arms_ms":
            in_block["core.backends.thread.run_arms"].mean_ms(),
        "core.backends.thread.run_arms_self_ms":
            in_block["core.backends.thread.run_arms"].self_ms(),
        "core.backends.wire.feed_ms_per_block":
            per_block("core.backends.wire.feed"),
        "core.backends.wire.frame_ms_per_block":
            per_block("core.backends.wire.frame"),
        "core.backends.wire.bytes_per_block": (
            per_block("core.backends.wire.feed", "value", 1)
            + per_block("core.backends.wire.frame", "value", 1)
        ),
        "process.pool.ctor_ms": anywhere["process.pool.ctor"].mean_ms(),
        "process.pool.lease_ms": leases.mean_ms(),
        "process.pool.lease_p95_ms":
            1e3 * percentile(leases.durations, 0.95),
        "process.pool.lease_ms_per_block": per_block("process.pool.lease"),
        "process.pool.finish_ms":
            in_block["process.pool.finish"].mean_ms(),
        "process.pool.snapshot_pages_per_lease": (
            snapshot_slots / leases.calls if leases.calls else 0.0
        ),
        "process.pool.leases": counters.get("leases", 0),
        "process.pool.fallbacks": counters.get("fallbacks", 0),
        "process.pool.respawns": counters.get("respawns", 0),
        "pages.fork_ms": in_block["pages.fork"].mean_ms(),
        "pages.adopt_ms": in_block["pages.adopt"].mean_ms(),
        "pages.apply_shm_pages_ms":
            in_block["pages.apply_shm_pages"].mean_ms(),
        "pages.apply_pages_ms": in_block["pages.apply_pages"].mean_ms(),
        "pages.committed_pages_per_block": (
            sum(extra["pages"] for extra in extras) / blocks
            if blocks else 0.0
        ),
        "pages.shm.create_ms": in_block["pages.shm.create"].mean_ms(),
        "pages.shm.dispose_ms": in_block["pages.shm.dispose"].mean_ms(),
        "pages.shm.write_slot_ms_per_block":
            per_block("pages.shm.write_slot"),
        "pages.shm.slabs_per_block":
            per_block("pages.shm.create", "calls", 1),
        "pages.transport_shm_share": (
            sum(1 for extra in extras if extra["transport"] == "shm")
            / len(extras) if extras else 0.0
        ),
        "pages.shm.live_slabs_end": counters.get("live_slabs_end", 0),
        "pages.shm.orphaned_segments_end":
            counters.get("orphaned_segments_end", 0),
        "cluster.executor.ctor_ms":
            anywhere["cluster.executor.ctor"].mean_ms(),
        "cluster.executor.run_ms": cluster_runs.mean_ms(),
        "cluster.executor.run_self_ms": cluster_runs.self_ms(),
        "cluster.stream.connects_per_block":
            per_block("cluster.stream.connect", "calls", 1),
        "cluster.stream.send_ms_per_block":
            per_block("cluster.stream.send"),
        "cluster.stream.recv_ms_per_block":
            per_block("cluster.stream.recv"),
        "cluster.stream.bytes_per_block": (
            per_block("cluster.stream.send", "value", 1)
            + per_block("cluster.stream.recv", "value", 1)
        ),
        "cluster.auth.handshake_ms_per_block":
            per_block("cluster.auth.handshake"),
        "cluster.semaphore.try_acquire_ms":
            in_block["cluster.semaphore.try_acquire"].mean_ms(),
        "bench.closure_share": closure_share(spans, self_time, latencies),
    }

    served = in_block["server.submit"].calls > 0
    waits = in_block["server.queue_wait"].durations
    batches = counters.get("batches", 0)
    metrics.update({
        "server.submit_ms": in_block["server.submit"].mean_ms(),
        "server.queue_wait_p50_ms": 1e3 * percentile(waits, 0.5),
        "server.queue_wait_p95_ms": 1e3 * percentile(waits, 0.95),
        "server.resolve_lag_p50_ms": 1e3 * percentile(
            in_block["server.resolve_lag"].durations, 0.5
        ),
        "server.self_ms_per_block": (
            per_block(ROOT) - per_block("core.concurrent.run")
            if served else 0.0
        ),
        "server.take_calls_per_block": (
            takes.calls / blocks if served and blocks else 0.0
        ),
        "server.empty_take_share": (
            takes.value / takes.calls if takes.calls else 0.0
        ),
        "server.batch_blocks_mean": (
            blocks / batches if served and batches else 0.0
        ),
        "server.worker_busy_share": (
            races.busy / (server_config.workers * traced_wall)
            if served and traced_wall else 0.0
        ),
        "server.arm_occupancy": (
            occupancy / traced_wall / server_config.max_inflight_arms
            if served and traced_wall else 0.0
        ),
        "server.rejects": counters.get("rejects", 0),
    })
    return metrics
