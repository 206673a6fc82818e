"""Experiment M1 -- section 4.4 measured fork/COW overhead.

The paper reports, for a 320K address space:

- AT&T 3B2/310: fork() ~31 ms; page-copy service rate 326 2K-pages/s;
- HP 9000/350:  fork() ~12 ms; 1034 4K-pages/s;

and identifies 'the fraction of the pages in the address space which are
written' as the important independent variable.  This bench regenerates
the response-time-vs-fraction-written curve for both machine presets by
actually forking a simulated 320K space, dirtying the requested fraction
of pages through the COW machinery, and pricing the faults with the cost
model.  A real ``os.fork`` + page-touch measurement on the host gives the
modern datum for comparison.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.analysis.report import format_series, format_table
from repro.pages.address_space import AddressSpace
from repro.pages.snapshot import written_fraction
from repro.pages.store import PageStore
from repro.sim.costs import ATT_3B2_310, HP_9000_350, CostModel

SPACE_BYTES = 320 * 1024
FRACTIONS = [0.0, 0.1, 0.25, 0.5, 0.75, 1.0]


def simulated_fork_response(model: CostModel, fraction: float) -> dict:
    """Fork a 320K space, dirty ``fraction`` of its pages, price it."""
    store = PageStore(page_size=model.page_size)
    parent = AddressSpace(store, SPACE_BYTES)
    parent.write(0, b"seed data so pages exist")
    parent.table.clear_dirty()
    child = parent.fork()
    pages_to_write = int(round(fraction * child.num_pages))
    for page in range(pages_to_write):
        child.write(page * model.page_size, b"dirty")
    measured_fraction = written_fraction(child)
    response = model.fork_latency + model.page_copy_time(child.cow_faults)
    return {
        "machine": model.name,
        "fraction written": round(measured_fraction, 3),
        "pages copied": child.cow_faults,
        "response (ms)": round(response * 1000, 2),
    }


def sweep():
    rows = []
    for model in (ATT_3B2_310, HP_9000_350):
        for fraction in FRACTIONS:
            rows.append(simulated_fork_response(model, fraction))
    return rows


@dataclass(frozen=True)
class ForkMeasurement:
    """One real COW-fork measurement on the host (section 4.4 style)."""

    space_bytes: int
    fraction_written: float
    trials: int
    mean_seconds: float
    min_seconds: float
    max_seconds: float


def measure_fork_cost(
    space_bytes: int = SPACE_BYTES,
    fraction_written: float = 0.0,
    trials: int = 3,
    page_size: int = 4096,
) -> ForkMeasurement:
    """Measure a real ``fork()`` + child page-touch round trip.

    Reproduces the paper's section 4.4 methodology on the host kernel:
    allocate an address-space extent of ``space_bytes``, fork, have the
    child dirty ``fraction_written`` of the pages (each write is a real
    copy-on-write fault), and time until the child signals completion.
    """
    buffer = bytearray(space_bytes)
    limit = int(space_bytes * fraction_written)
    samples = []
    for _ in range(trials):
        read_fd, write_fd = os.pipe()
        start = time.monotonic()
        pid = os.fork()
        if pid == 0:
            for offset in range(0, limit, page_size):
                buffer[offset] = 1  # COW fault
            os.write(write_fd, b"x")
            os._exit(0)
        os.read(read_fd, 1)
        samples.append(time.monotonic() - start)
        os.waitpid(pid, 0)
        os.close(read_fd)
        os.close(write_fd)
    return ForkMeasurement(
        space_bytes=space_bytes,
        fraction_written=fraction_written,
        trials=trials,
        mean_seconds=sum(samples) / len(samples),
        min_seconds=min(samples),
        max_seconds=max(samples),
    )


def bench_m1_cow_fork_overhead(benchmark, emit):
    rows = benchmark(sweep)
    table = format_table(
        rows,
        title=(
            "M1: COW fork response time vs fraction of 320K space written\n"
            "paper: 3B2 fork=31ms @326 2K-pages/s; HP fork=12ms @1034 4K-pages/s"
        ),
    )
    hp_rows = [r for r in rows if r["machine"] == HP_9000_350.name]
    curve = format_series(
        [r["fraction written"] for r in hp_rows],
        [r["response (ms)"] for r in hp_rows],
        x_label="frac written",
        y_label="ms",
        title="HP 9000/350 response curve",
    )
    if hasattr(os, "fork"):
        real = [
            {
                "fraction written": fraction,
                "real os.fork+touch (ms)": round(
                    measure_fork_cost(fraction_written=fraction).mean_seconds
                    * 1000,
                    3,
                ),
            }
            for fraction in (0.0, 0.5, 1.0)
        ]
        modern = format_table(real, title="modern host, real os.fork (reference)")
    else:  # pragma: no cover - non-UNIX host
        modern = "(os.fork unavailable on this host)"
    emit("M1_cow_overhead", table + "\n\n" + curve + "\n\n" + modern)

    # Shape assertions: correct intercepts and linear growth.
    base_3b2 = next(
        r for r in rows if r["machine"] == ATT_3B2_310.name
        and r["fraction written"] == 0.0
    )
    base_hp = next(
        r for r in rows if r["machine"] == HP_9000_350.name
        and r["fraction written"] == 0.0
    )
    assert base_3b2["response (ms)"] == 31.0
    assert base_hp["response (ms)"] == 12.0
    for machine_rows in (
        [r for r in rows if r["machine"] == ATT_3B2_310.name],
        hp_rows,
    ):
        responses = [r["response (ms)"] for r in machine_rows]
        assert responses == sorted(responses), "response must grow with writes"
    # Full rewrite of 320K on the 3B2: 160 pages / 326 pages/s ~ 491 ms.
    full_3b2 = next(
        r for r in rows if r["machine"] == ATT_3B2_310.name
        and r["fraction written"] == 1.0
    )
    assert 450 < full_3b2["response (ms)"] < 600
