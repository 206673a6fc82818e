"""Span recording from outside the program.

For a traced chunk of a workload the :class:`Recorder` replaces the
*public* callables of each layer (listed in :func:`targets`) with
wrappers that record a span -- name, start, end, the span that caused
it -- and puts every original back afterwards.  Nothing under ``src/``
knows about it.  Spans stay in memory until :func:`write_jsonl`.

Two kinds of wrapper keep the cost proportional to what is learned:

- a *span* wrapper records one span per call;
- a *tally* wrapper (hot leaf calls such as ``ShmSlab.write_slot`` or
  ``DeficitRoundRobin.take``) folds all calls made under one parent span
  into a single record carrying ``calls`` and the summed ``busy`` time.

A span opened on a thread that already has an open span nests under it.
A span opened on a thread with none is, in order: the race of a served
block (matched by the identity of the submitted alternatives list), a
helper-thread span of the single block in flight (``sync`` false: it
overlaps the main thread and is left out of self-time accounting), or a
block-less span (set-up constructors, the server's dispatcher).

A span's *self* time is its busy time minus the busy time of its
synchronous children.  Child-side time (pool worker, daemon) is not
spanned; forked children stop recording at once.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional

clock = time.monotonic
"""The benchmark's one clock; ``Ticket.latency`` is taken on it too."""

ROOT = "block"

ADOPTABLE = frozenset({
    "core.concurrent.ctor",
    "core.concurrent.new_parent",
    "core.backends.process.ctor",
})
"""Per-request construction a server worker does *before* the race it
belongs to can be identified; adopted into that block when it starts."""


class Span:
    __slots__ = (
        "sid", "name", "start", "end", "parent", "block", "tid", "calls",
        "busy", "sync", "value", "extra", "tallies",
    )

    def __init__(self, sid, name, start, parent=None, block=None,
                 sync=True, tid=None):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.block = block
        self.tid = threading.get_ident() if tid is None else tid
        self.calls = 1
        self.busy = 0.0
        self.sync = sync
        self.value = 0
        self.extra = None
        self.tallies = None

    def close(self, end: float) -> None:
        self.end = end
        self.busy = end - self.start


class ServedBlock:
    """What the recorder tracks between a served block's submit and its
    resolution: the race span and the constructors that preceded it."""

    __slots__ = ("root", "alternatives", "run", "orphans")

    def __init__(self, root: Span, alternatives) -> None:
        self.root = root
        self.alternatives = alternatives  # held so its id() stays unique
        self.run: Optional[Span] = None
        self.orphans: List[Span] = []


class Target(NamedTuple):
    owner: object
    attr: str
    name: str
    tally: bool = False
    key: Optional[Callable] = None
    """Maps the call's arguments to the identity a served block was
    registered under (see :meth:`Recorder.open_served`)."""
    value: Optional[Callable] = None
    """``value(args, result)`` -> number summed into the span."""
    extra: Optional[Callable] = None
    """``extra(result)`` -> small dict kept on the span."""


def _result_extra(result) -> dict:
    consumed = [o.cpu_consumed or 0.0 for o in result.outcomes]
    lost = sum(
        o.cpu_consumed or 0.0
        for o in result.outcomes if o is not result.winner
    )
    return {
        "overhead_total": result.overhead.total,
        "cpu_all": sum(consumed),
        "cpu_losers": lost,
        "transport": result.page_transport,
        "pages": result.winner.pages_written,
    }


def targets() -> List[Target]:
    """Every public callable the traced pass wraps, by layer."""
    from repro.cluster import auth, executor as cluster_executor
    from repro.cluster import semaphore, stream
    from repro.cluster.executor import ClusterExecutor
    from repro.cluster.semaphore import ClusterMajoritySemaphore
    from repro.cluster.stream import RecordStream
    from repro.core.backends import wire
    from repro.core.backends.process import ProcessBackend
    from repro.core.backends.thread import ThreadBackend
    from repro.core.concurrent import ConcurrentExecutor
    from repro.pages.address_space import AddressSpace
    from repro.pages.shm import ShmSlab
    from repro.process.pool import WorldPool
    from repro.server.admission import DeficitRoundRobin
    from repro.server.server import RaceServer

    def alternatives_key(self, alternatives, parent=None):
        return id(alternatives)

    found = [
        Target(RaceServer, "submit", "server.submit"),
        Target(DeficitRoundRobin, "take", "server.take", tally=True,
               value=lambda args, batch: 0 if batch else 1),
        Target(ConcurrentExecutor, "__init__", "core.concurrent.ctor"),
        Target(ConcurrentExecutor, "new_parent",
               "core.concurrent.new_parent"),
        Target(ConcurrentExecutor, "run", "core.concurrent.run",
               key=alternatives_key, extra=_result_extra),
        Target(ProcessBackend, "__init__", "core.backends.process.ctor"),
        Target(ProcessBackend, "run_arms",
               "core.backends.process.run_arms"),
        Target(ProcessBackend, "terminate_arm",
               "core.backends.process.terminate_arm", tally=True),
        Target(ThreadBackend, "run_arms", "core.backends.thread.run_arms"),
        Target(wire.RecordReader, "feed", "core.backends.wire.feed",
               tally=True, value=lambda args, records: len(args[1])),
        Target(wire, "frame_record", "core.backends.wire.frame",
               tally=True, value=lambda args, framed: len(framed[0])),
        Target(WorldPool, "__init__", "process.pool.ctor"),
        Target(WorldPool, "lease", "process.pool.lease"),
        Target(WorldPool, "finish", "process.pool.finish"),
        Target(AddressSpace, "fork", "pages.fork"),
        Target(AddressSpace, "adopt", "pages.adopt"),
        Target(AddressSpace, "apply_shm_pages", "pages.apply_shm_pages"),
        Target(AddressSpace, "apply_pages", "pages.apply_pages"),
        Target(ShmSlab, "create", "pages.shm.create"),
        Target(ShmSlab, "dispose", "pages.shm.dispose"),
        Target(ShmSlab, "write_slot", "pages.shm.write_slot", tally=True),
        Target(ClusterExecutor, "__init__", "cluster.executor.ctor"),
        Target(ClusterExecutor, "run", "cluster.executor.run",
               extra=_result_extra),
        Target(RecordStream, "send", "cluster.stream.send", tally=True),
        Target(RecordStream, "send_bytes", "cluster.stream.send",
               tally=True, value=lambda args, sent: len(args[1])),
        Target(RecordStream, "recv", "cluster.stream.recv", tally=True),
        Target(RecordStream, "recv_bytes", "cluster.stream.recv",
               tally=True, value=lambda args, data: len(data or b"")),
        Target(ClusterMajoritySemaphore, "try_acquire",
               "cluster.semaphore.try_acquire"),
    ]
    # ``connect`` and ``dial_handshake`` are imported by name, so each
    # importing module holds its own reference to patch.
    for module in (stream, cluster_executor, semaphore):
        found.append(Target(module, "connect", "cluster.stream.connect"))
    for module in (auth, cluster_executor, semaphore):
        found.append(
            Target(module, "dial_handshake", "cluster.auth.handshake")
        )
    return found


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.recording = False
        self.current: Optional[Span] = None
        """Root of the single block in flight (solo and cluster loops);
        helper threads attach their spans to it."""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._expected: Dict[int, ServedBlock] = {}
        self._loose: Dict[tuple, Span] = {}
        self._patched: List[tuple] = []
        os.register_at_fork(after_in_child=self._stop_in_child)

    def _stop_in_child(self) -> None:
        self.recording = False

    # ------------------------------------------------------------------
    # installing and restoring

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("span wrappers are already installed")
        for target in targets():
            raw = vars(target.owner)[target.attr]
            wrapper = self._wrap(_unwrap_descriptor(raw), target)
            if isinstance(raw, classmethod):
                wrapper = classmethod(wrapper)
            setattr(target.owner, target.attr, wrapper)
            self._patched.append((target.owner, target.attr, raw))
        self.recording = True

    def uninstall(self) -> None:
        self.recording = False
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched = []

    @staticmethod
    def leftovers() -> List[str]:
        """Wrapped callables still in place (must be empty after a pass)."""
        return [
            f"{getattr(t.owner, '__name__', t.owner)}.{t.attr}"
            for t in targets()
            if hasattr(_unwrap_descriptor(vars(t.owner)[t.attr]),
                       "__bench_span__")
        ]

    def _wrap(self, function, target: Target):
        name, key, value, extra = (
            target.name, target.key, target.value, target.extra
        )
        if target.tally:
            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                if not self.recording:
                    return function(*args, **kwargs)
                start = clock()
                result = None
                try:
                    result = function(*args, **kwargs)
                    return result
                finally:
                    amount = 0
                    if value is not None and result is not None:
                        amount = value(args, result)
                    self._tally(name, start, clock() - start, amount)
        else:
            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                if not self.recording:
                    return function(*args, **kwargs)
                span = self._begin(
                    name, key(*args, **kwargs) if key else None
                )
                try:
                    result = function(*args, **kwargs)
                    if extra is not None:
                        span.extra = extra(result)
                    return result
                finally:
                    self._end(span)
        wrapper.__bench_span__ = name
        return wrapper

    # ------------------------------------------------------------------
    # recording

    def _stack(self) -> list:
        local = self._local
        try:
            return local.stack
        except AttributeError:
            local.stack = []
            local.orphans = []
            return local.stack

    def _new(self, name, start, parent: Optional[Span], sync=True,
             tid=None) -> Span:
        span = Span(
            next(self._ids), name, start,
            parent=None if parent is None else parent.sid,
            sync=sync, tid=tid,
        )
        self.spans.append(span)
        return span

    def _begin(self, name: str, key=None) -> Span:
        stack = self._stack()
        now = clock()
        if stack:
            span = self._new(name, now, stack[-1])
        else:
            served = self._expected.pop(key, None) if key is not None else None
            if served is not None:
                span = self._new(name, now, served.root)
                served.run = span
                served.orphans = self._local.orphans
                self._local.orphans = []
            elif self.current is not None:
                span = self._new(name, now, self.current, sync=False)
            else:
                span = self._new(name, now, None)
        stack.append(span)
        return span

    def _end(self, span: Span) -> None:
        span.close(clock())
        stack = self._local.stack
        stack.pop()
        if not stack and span.parent is None and span.name in ADOPTABLE:
            self._local.orphans.append(span)

    def _tally(self, name: str, start: float, spent: float, amount) -> None:
        stack = self._stack()
        parent = stack[-1] if stack else self.current
        key = (name, threading.get_ident())
        if parent is None:
            table = self._loose
        else:
            if parent.tallies is None:
                parent.tallies = {}
            table = parent.tallies
        span = table.get(key)
        if span is None:
            span = table[key] = self._new(
                name, start, parent, sync=bool(stack) or parent is None
            )
            span.calls = 0
        span.calls += 1
        span.busy += spent
        span.end = start + spent
        span.value += amount

    # ------------------------------------------------------------------
    # block roots

    @contextmanager
    def block(self, block_id: int):
        """Root span of a block raced on the calling thread."""
        root = self._new(ROOT, clock(), None)
        root.block = block_id
        stack = self._stack()
        stack.append(root)
        self.current = root
        try:
            yield root
        finally:
            self.current = None
            stack.pop()
            root.close(clock())

    def open_served(self, block_id: int, alternatives) -> ServedBlock:
        """Root span of a served block; call before ``submit`` and set
        the root's ``start`` to the instant its latency counts from."""
        root = self._new(ROOT, clock(), None)
        root.block = block_id
        served = ServedBlock(root, alternatives)
        self._expected[id(alternatives)] = served
        return served

    @contextmanager
    def under(self, span: Span):
        """Spans opened by the calling thread nest under ``span``."""
        stack = self._stack()
        stack.append(span)
        try:
            yield
        finally:
            stack.pop()

    def synthetic(self, name: str, start: float, end: float,
                  parent: Span) -> Span:
        """An interval no single call covers (a wait between threads)."""
        span = self._new(name, start, parent, tid=parent.tid)
        span.close(max(start, end))
        return span

    def close_served(self, served: ServedBlock, submit_returned: float,
                     resolved: float) -> None:
        """Tile the root: submit | queue wait | race | resolve lag."""
        root = served.root
        root.close(resolved)
        self._expected.pop(id(served.alternatives), None)
        run = served.run
        if run is None:
            return
        wait = self.synthetic(
            "server.queue_wait", min(submit_returned, run.start),
            run.start, root,
        )
        for orphan in served.orphans:
            if orphan.start >= wait.start:
                orphan.parent = wait.sid
        self.synthetic("server.resolve_lag", run.end, resolved, root)


def _unwrap_descriptor(raw):
    return raw.__func__ if isinstance(raw, classmethod) else raw


# ----------------------------------------------------------------------
# analysis


def resolve(spans: Iterable[Span]) -> Dict[int, float]:
    """Propagate block ids down the tree; return each span's self time."""
    by_id = {span.sid: span for span in spans}
    self_time = {span.sid: span.busy for span in by_id.values()}
    for span in by_id.values():
        parent = by_id.get(span.parent)
        if parent is not None and span.sync:
            self_time[parent.sid] -= span.busy
    for span in by_id.values():
        if span.block is not None:
            continue
        seen = span
        while seen is not None and seen.block is None:
            seen = by_id.get(seen.parent)
        if seen is not None:
            span.block = seen.block
    return self_time


def write_jsonl(path: str, spans: Iterable[Span],
                self_time: Dict[int, float]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        for span in spans:
            handle.write(json.dumps({
                "id": span.sid,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": span.parent,
                "block": span.block,
                "thread": span.tid,
                "calls": span.calls,
                "busy": span.busy,
                "self": self_time[span.sid],
                "sync": span.sync,
                "value": span.value,
                "extra": span.extra,
            }) + "\n")
