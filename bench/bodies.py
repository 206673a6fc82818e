"""Arm bodies for the benchmark's blocks.

Module-level classes, so an :class:`~repro.core.alternative.Alternative`
built on them pickles by import path: pool workers (forked from the
workload process) and cluster daemons (separate interpreters, reached
through ``PYTHONPATH``) rebuild the very same body.

A body is deterministic: the value, the variable and the page bytes it
leaves behind depend only on its own parameters, never on its position
in the block or on the context's RNG -- which is what lets a raced block
be checked against the record of the same arm run alone.

Raw page writes start at the midpoint of the space and go upward, clear
of the variable directory that lives in the first pages.
"""

from __future__ import annotations

CHECK_EVERY = 2000
"""Spin iterations between two cooperative elimination checkpoints."""


def _stamp_pages(ctx, pages: int, label: str) -> None:
    space = ctx.space
    page_size = space.page_size
    base = (space.num_pages // 2) * page_size
    stamp = label.encode().ljust(32, b".")
    for page in range(pages):
        space.write(base + page * page_size, stamp)


class Spin:
    """CPU-bound arm: spin in pure Python, then dirty ``pages`` pages."""

    def __init__(self, iterations: int, pages: int = 1) -> None:
        self.iterations = iterations
        self.pages = pages
        self.label = f"spin-{iterations}"

    def __call__(self, ctx):
        acc = 0
        for _ in range(self.iterations // CHECK_EVERY):
            for i in range(CHECK_EVERY):
                acc += i * i
            ctx.check_eliminated()
        _stamp_pages(ctx, self.pages, self.label)
        ctx.put("winner", self.label)
        return self.label


class Sleep:
    """I/O-bound arm: a cancellable sleep, then dirty ``pages`` pages."""

    def __init__(self, millis: int, pages: int = 1) -> None:
        self.millis = millis
        self.pages = pages
        self.label = f"sleep-{millis}"

    def __call__(self, ctx):
        ctx.sleep(self.millis / 1000.0)
        _stamp_pages(ctx, self.pages, self.label)
        ctx.put("winner", self.label)
        return self.label
