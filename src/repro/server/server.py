"""The multi-tenant alt-block race server.

``alt_spawn`` so far served one caller at a time: build an executor,
race one block, tear everything down.  A service with the paper's
database-query workload (section 4.2) instead sees a *stream* of blocks
from many tenants, and forking a fresh world per block throws away
exactly the setup cost the :class:`~repro.process.pool.WorldPool`
amortizes.  :class:`RaceServer` is the missing front end:

- **admission**: bounded per-tenant queues; a full queue rejects with a
  ``retry_after`` hint (``server-reject``) instead of buffering without
  bound;
- **fairness**: deficit round robin over tenants, weighted by arm count
  (:mod:`repro.server.admission`), so wide blocks pay for their width;
- **batching**: the dispatcher co-schedules as many queued blocks as fit
  the in-flight-arm budget in one round (``server-batch``) -- small
  blocks from different tenants start their lease round together;
- **shared backend**: every submission runs on its own
  :class:`~repro.core.concurrent.ConcurrentExecutor` with its own
  backend *instance* (backends keep per-race state), but process
  backends all lease from one shared, long-lived pool;
- **observability**: ``server-admit`` / ``server-reject`` /
  ``server-batch`` / ``tenant-quantum`` trace events, queue-depth and
  in-flight-arm gauges, and per-tenant latency histograms on the
  configured :class:`~repro.obs.metrics.MetricsRegistry`;
- **graceful drain**: ``drain()`` stops admission and waits for the
  queue and every in-flight block; ``shutdown()`` additionally stops the
  worker threads (and the pool, when the server created it).
"""

from __future__ import annotations

import itertools
import queue as _queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.alternative import Alternative
from repro.core.backends import get_backend
from repro.core.backends.process import ProcessBackend
from repro.core.concurrent import ConcurrentExecutor
from repro.errors import AltBlockFailure, AltTimeout, ReproError
from repro.obs import events as _ev
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import active as _active_tracer
from repro.server.admission import DeficitRoundRobin, QueueItem

__all__ = [
    "RaceServer",
    "ServerConfig",
    "SubmissionRejected",
    "Ticket",
]

#: Latency buckets for per-tenant histograms: spans the canonical corpus'
#: sub-second blocks up to supervised multi-second outliers.
_LATENCY_BUCKETS = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


class SubmissionRejected(ReproError):
    """Backpressure: the server refused a submission.

    ``retry_after`` is the server's estimate (seconds) of when capacity
    is likely to exist again; a well-behaved client sleeps that long and
    resubmits.
    """

    def __init__(self, reason: str, retry_after: float) -> None:
        super().__init__(
            f"submission rejected ({reason}); retry after {retry_after:.3f}s"
        )
        self.reason = reason
        self.retry_after = retry_after


@dataclass
class ServerConfig:
    """Knobs for one :class:`RaceServer` (see ``docs/server.md``)."""

    backend: str = "thread"
    """Backend name per submission: ``serial``, ``thread``, ``process``."""

    workers: int = 4
    """Executor threads: how many blocks race simultaneously."""

    max_inflight_arms: int = 16
    """Arm budget across every in-flight block -- the backpressure knob
    that tracks what the backend can actually overlap."""

    max_queue_per_tenant: int = 64
    max_queue_total: int = 256
    quantum: int = 4
    """DRR credit (arms) granted per scheduler visit."""

    pool: Optional[object] = None
    """A shared :class:`~repro.process.pool.WorldPool` for process
    backends.  ``None`` with ``backend="process"`` creates one sized to
    ``max_inflight_arms`` (owned, so ``shutdown`` stops it)."""

    use_pool: bool = True
    """``False`` forces fork-per-arm on the process backend -- the
    unamortized baseline the throughput bench compares against."""

    metrics: Optional[MetricsRegistry] = None
    """Registry for gauges/histograms; ``None`` creates a private one."""

    executor_kwargs: Dict[str, Any] = field(default_factory=dict)
    """Extra ``ConcurrentExecutor`` arguments applied to every block."""


class Ticket:
    """The caller's handle on one admitted submission (future-like)."""

    def __init__(self, seq: int, tenant: str, weight: int) -> None:
        self.seq = seq
        self.tenant = tenant
        self.weight = weight
        self.submitted_at = time.monotonic()
        self.value: Any = None
        self.winner: Optional[str] = None
        self.error: Optional[str] = None
        self.variables: Optional[Dict[str, Any]] = None
        self.space_bytes: Optional[bytes] = None
        self.latency: Optional[float] = None
        self.status = "queued"
        self._done = threading.Event()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until finished (or cancelled); ``False`` on timeout."""
        return self._done.wait(timeout)

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: Optional[float] = None) -> Any:
        """The winning value; raises the block's failure if it failed."""
        if not self._done.wait(timeout):
            raise TimeoutError(f"ticket {self.seq} still in flight")
        if self.status == "cancelled":
            raise ReproError(f"ticket {self.seq} was cancelled")
        if self.error is not None:
            raise ReproError(f"ticket {self.seq} failed: {self.error}")
        return self.value

    # server-side completion hooks -------------------------------------

    def _finish(self) -> None:
        self.latency = time.monotonic() - self.submitted_at
        self.status = "done"
        self._done.set()

    def _cancel(self) -> None:
        self.status = "cancelled"
        self._done.set()


@dataclass
class _Submission:
    """What the worker thread needs to run one admitted block."""

    ticket: Ticket
    alternatives: Optional[Sequence[Alternative]]
    factory: Optional[Callable[[ConcurrentExecutor], Sequence[Alternative]]]
    timeout: Optional[float]
    seed: int
    capture_space: bool


class RaceServer:
    """Admit, schedule, and race a stream of alt-block submissions."""

    def __init__(self, config: Optional[ServerConfig] = None) -> None:
        self.config = config or ServerConfig()
        if self.config.backend not in ("serial", "thread", "process"):
            raise ValueError(
                f"server backend must be serial/thread/process, "
                f"not {self.config.backend!r}"
            )
        self.metrics = self.config.metrics or MetricsRegistry()
        self._wakeups = self.metrics.counter("server_dispatch_wakeups_total")
        self._empty_takes = self.metrics.counter("server_empty_takes_total")
        self._drr = DeficitRoundRobin(
            quantum=self.config.quantum,
            max_queue_per_tenant=self.config.max_queue_per_tenant,
            max_queue_total=self.config.max_queue_total,
        )
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._seq = itertools.count(1)
        self._inflight_arms = 0
        self._inflight_blocks = 0
        self._closed = False
        self._stopping = False
        self._runq: "_queue.Queue[Optional[_Submission]]" = _queue.Queue()
        self._pool = self.config.pool
        self._owns_pool = False
        if (
            self.config.backend == "process"
            and self.config.use_pool
            and self._pool is None
        ):
            from repro.process.pool import WorldPool

            self._pool = WorldPool(size=max(2, self.config.max_inflight_arms))
            self._owns_pool = True
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="race-server-dispatch",
            daemon=True,
        )
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"race-server-worker-{i}",
                daemon=True,
            )
            for i in range(max(1, self.config.workers))
        ]
        self._dispatcher.start()
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    # admission

    def submit(
        self,
        tenant: str,
        alternatives: Optional[Sequence[Alternative]] = None,
        *,
        factory: Optional[
            Callable[[ConcurrentExecutor], Sequence[Alternative]]
        ] = None,
        timeout: Optional[float] = None,
        seed: int = 0,
        capture_space: bool = False,
        weight: Optional[int] = None,
    ) -> Ticket:
        """Admit one block; returns a :class:`Ticket` or raises
        :class:`SubmissionRejected`.

        ``alternatives`` is the block's arm list; ``factory`` instead
        builds it from the per-request executor (nested blocks need the
        executor's manager) -- pass ``weight`` alongside a factory so the
        scheduler charges the block its real arm count.
        ``capture_space`` additionally snapshots the parent space's bytes
        and variable directory onto the ticket after the block -- what
        the equivalence matrix compares.
        """
        if (alternatives is None) == (factory is None):
            raise ValueError("provide exactly one of alternatives/factory")
        if weight is None:
            weight = len(alternatives) if alternatives is not None else 1
        if weight < 1:
            raise ValueError("an alternative block needs at least one arm")
        tracer = _active_tracer()
        if weight > self.config.max_inflight_arms:
            # Wider than the arm budget: no future round could ever
            # schedule it, so reject now rather than queue it forever.
            self._emit_reject(tracer, tenant, "block-too-wide", weight)
            raise SubmissionRejected(
                "block-too-wide", self._retry_after_hint()
            )
        with self._lock:
            if self._closed:
                self._emit_reject(tracer, tenant, "server-closed", weight)
                raise SubmissionRejected("server-closed", 0.0)
            ticket = Ticket(next(self._seq), tenant, weight)
            submission = _Submission(
                ticket=ticket,
                alternatives=alternatives,
                factory=factory,
                timeout=timeout,
                seed=seed,
                capture_space=capture_space,
            )
            verdict = self._drr.offer(
                QueueItem(ticket.seq, tenant, weight, submission)
            )
            if not verdict.admitted:
                reason = verdict.reason or "queue-full"
                self._emit_reject(tracer, tenant, reason, weight)
                raise SubmissionRejected(reason, self._retry_after_hint())
            depth = self._drr.depth
            self.metrics.gauge("server_queue_depth").set(depth)
            self._wakeup.notify()
        if tracer.enabled:
            tracer.emit(
                _ev.SERVER_ADMIT,
                name=tenant,
                seq=ticket.seq,
                arms=weight,
                depth=depth,
            )
        self.metrics.counter(f"tenant.{tenant}.submitted").inc()
        return ticket

    def cancel(self, ticket: Ticket) -> bool:
        """Withdraw a still-queued ticket; ``False`` once it started."""
        with self._lock:
            removed = self._drr.cancel(ticket.seq)
            if removed:
                self.metrics.gauge("server_queue_depth").set(self._drr.depth)
                # The block queued behind a withdrawn head may fit now.
                self._wakeup.notify()
                self._idle.notify_all()
        if removed:
            ticket._cancel()
        return removed

    def _retry_after_hint(self) -> float:
        """A crude capacity ETA: one scheduling round per inflight block.

        Lock-free on purpose -- ``submit`` calls it while holding
        ``self._lock``, and two ints read a hair stale only blur a hint.
        """
        backlog = self._inflight_blocks + self._drr.depth
        return round(0.01 + 0.02 * backlog, 6)

    def _emit_reject(self, tracer, tenant: str, reason: str, arms: int) -> None:
        if tracer.enabled:
            tracer.emit(
                _ev.SERVER_REJECT,
                name=tenant,
                reason=reason,
                arms=arms,
                depth=self._drr.depth,
            )
        self.metrics.counter("server_rejects_total").inc()
        self.metrics.counter(f"tenant.{tenant}.rejected").inc()

    # ------------------------------------------------------------------
    # scheduling

    def _head_fits(self) -> bool:
        """The dispatcher's wake-up predicate (call with the lock held):
        something is queued and the free arm budget covers the lightest
        head -- exactly when ``take`` returns a non-empty batch."""
        lightest = self._drr.lightest_head()
        return lightest is not None and (
            self.config.max_inflight_arms - self._inflight_arms >= lightest
        )

    def _dispatch_loop(self) -> None:
        """Sleep until a block fits, take one batch, hand it to workers.

        Relies on: every transition that can make ``_head_fits`` true --
        ``submit``, a worker finishing, ``cancel``, drain/shutdown --
        notifying ``_wakeup`` under ``_lock``.  Guarantees: no ``take``
        while nothing changed, and none once stopping -- what is still
        queued then is ``shutdown``'s to cancel.  The wait's timeout is a
        lost-wakeup backstop only.
        """
        while True:
            with self._lock:
                while not self._stopping and not self._head_fits():
                    self._wakeup.wait(timeout=0.1)
                    self._wakeups.inc()
                if self._stopping:
                    return
                budget = self.config.max_inflight_arms - self._inflight_arms
                quantum_grants: List[tuple] = []
                batch = self._drr.take(
                    budget,
                    on_quantum=lambda t, d: quantum_grants.append((t, d)),
                )
                for item in batch:
                    self._inflight_arms += item.weight
                    self._inflight_blocks += 1
                self.metrics.gauge("server_queue_depth").set(self._drr.depth)
                self.metrics.gauge("server_inflight_arms").set(
                    self._inflight_arms
                )
            if not batch:
                # ``_head_fits`` held, so this breaks the DRR invariant;
                # counted so a spin shows on a live server.
                self._empty_takes.inc()
                continue
            tracer = _active_tracer()
            if tracer.enabled:
                for tenant, deficit in quantum_grants:
                    tracer.emit(
                        _ev.TENANT_QUANTUM, name=tenant, deficit=deficit
                    )
                tracer.emit(
                    _ev.SERVER_BATCH,
                    blocks=len(batch),
                    arms=sum(item.weight for item in batch),
                    tenants=sorted({item.tenant for item in batch}),
                )
            self.metrics.counter("server_batches_total").inc()
            for item in batch:
                self._runq.put(item.payload)

    def _worker_loop(self) -> None:
        while True:
            submission = self._runq.get()
            if submission is None:
                return
            try:
                self._run_one(submission)
            finally:
                with self._lock:
                    self._inflight_arms -= submission.ticket.weight
                    self._inflight_blocks -= 1
                    self.metrics.gauge("server_inflight_arms").set(
                        self._inflight_arms
                    )
                    self._wakeup.notify()
                    self._idle.notify_all()

    def _make_backend(self):
        if self.config.backend == "process":
            return ProcessBackend(pool=self._pool)
        return get_backend(self.config.backend)

    def _run_one(self, submission: _Submission) -> None:
        """Race one block in a world of its own that dies with the ticket.

        The request's executor brings its own ``ProcessManager``; the
        parent is created here (never inside ``run``) so that it can be
        exited once the ticket has resolved.  Exiting drops the frames
        adopted from the winner's shm slab, and the slab goes back to
        the pool then (a forked arm's own is unlinked) rather than
        staying pinned until interpreter exit.
        """
        ticket = submission.ticket
        ticket.status = "running"
        executor = parent = None
        try:
            executor = ConcurrentExecutor(
                backend=self._make_backend(),
                timeout=submission.timeout,
                seed=submission.seed,
                **self.config.executor_kwargs,
            )
            parent = executor.new_parent()
            alternatives = (
                submission.alternatives
                if submission.alternatives is not None
                else submission.factory(executor)
            )
            try:
                result = executor.run(alternatives, parent=parent)
            except (AltBlockFailure, AltTimeout) as exc:
                ticket.error = type(exc).__name__
            else:
                ticket.value = result.value
                ticket.winner = result.winner.name
            if submission.capture_space:
                ticket.space_bytes = parent.space.read(0, parent.space.size)
                ticket.variables = {
                    name: parent.space.get(name)
                    for name in parent.space.names()
                }
        except BaseException as exc:  # noqa: BLE001 - ticket carries it
            ticket.error = repr(exc)
        finally:
            ticket._finish()
            self.metrics.counter(f"tenant.{ticket.tenant}.completed").inc()
            self.metrics.histogram(
                f"tenant.{ticket.tenant}.latency_seconds",
                buckets=_LATENCY_BUCKETS,
            ).observe(ticket.latency or 0.0)
            if parent is not None:
                try:
                    executor.manager.exit(parent, notify=False)
                except Exception:  # noqa: BLE001 - the ticket has resolved
                    # A failed release must not take the worker thread
                    # with it; counted, since nothing else reports it.
                    self.metrics.counter(
                        "server_world_release_errors_total"
                    ).inc()

    # ------------------------------------------------------------------
    # lifecycle

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admitting and wait for queue + in-flight blocks to empty.

        Returns ``False`` if ``timeout`` expired first (the server keeps
        running what it already accepted either way).  Drained includes
        the pool: a race returns at its commit and leaves its pooled
        losers to the pool, which is asked to settle them (bounded by
        their kill deadlines, and by what is left of ``timeout``) before
        this reports ``True``.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            self._closed = True
            self._wakeup.notify_all()
            while self._drr.depth > 0 or self._inflight_blocks > 0:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._idle.wait(timeout=remaining if remaining else 0.1)
        if self._pool is None:
            return True
        if deadline is None:
            return self._pool.drain()
        return self._pool.drain(max(0.0, deadline - time.monotonic()))

    def shutdown(self, timeout: Optional[float] = 30.0) -> bool:
        """Drain, stop every thread, and stop an owned pool. Idempotent.
        A drain that times out leaves no ticket unresolved: blocks handed
        to a worker finish, blocks still queued are cancelled."""
        drained = self.drain(timeout)
        with self._lock:
            if self._stopping:
                return drained
            self._stopping = True
            self._wakeup.notify_all()
        self._dispatcher.join(timeout=5.0)
        with self._lock:
            queued = [item.payload.ticket for item in self._drr.queued()]
        for ticket in queued:
            self.cancel(ticket)
        for _ in self._workers:
            self._runq.put(None)
        for worker in self._workers:
            worker.join(timeout=5.0)
        if self._owns_pool and self._pool is not None:
            self._pool.shutdown()
        return drained

    def __enter__(self) -> "RaceServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """A JSON-ready snapshot of queue depth, in-flight, and pool."""
        with self._lock:
            stats: Dict[str, Any] = {
                "queue_depth": self._drr.depth,
                "inflight_arms": self._inflight_arms,
                "inflight_blocks": self._inflight_blocks,
                "tenants_queued": self._drr.tenants(),
                "closed": self._closed,
                "dispatch_wakeups": int(self._wakeups.value),
                "empty_takes": int(self._empty_takes.value),
            }
        if self._pool is not None:
            stats["pool"] = {
                "leases": self._pool.leases_granted,
                "fallbacks": self._pool.fallbacks,
                "respawns": self._pool.respawns,
                "published_pages": self._pool.pages_published,
                "arena_rotations": self._pool.arena_rotations,
                "response_slabs_created": self._pool.response_slabs_created,
                "response_slabs_reused": self._pool.response_slabs_reused,
                "parked": self._pool.parked,
                "inflight": self._pool.inflight,
                "draining": self._pool.draining,
                "drained_parked": self._pool.drained_parked,
                "drained_recycled": self._pool.drained_recycled,
                "told_before_start": self._pool.told_before_start,
            }
        return stats
