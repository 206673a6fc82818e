"""RaceServer fundamentals: admission, backpressure, fairness plumbing,
cancellation, drain/shutdown, and the trace/metrics surface.

The state machine and soak suites stress the scheduler; this file pins
the contract every other consumer relies on -- what ``submit`` accepts,
when it rejects, what a :class:`~repro.server.Ticket` exposes, and which
``server-*`` trace events fire.
"""

import threading
import time

import pytest

from repro.core.alternative import Alternative
from repro.obs import events as ev
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer, tracing
from repro.server import (
    RaceServer,
    ServerConfig,
    SubmissionRejected,
    SwarmClient,
)
from repro.server.client import build_demo_engine
from repro.server.cli import serve_main


def _value_arm(value, seconds=0.0):
    def body(ctx):
        if seconds:
            ctx.sleep(seconds)
        ctx.put("v", value)
        return value

    return Alternative(f"arm-{value}", body=body)


def _block(value="ok", arms=2, seconds=0.0):
    """All arms agree on the value: any winner is a correct answer."""
    return [_value_arm(value, seconds) for _ in range(arms)]


@pytest.fixture
def server():
    server = RaceServer(ServerConfig(backend="thread", workers=2))
    yield server
    server.shutdown()


class TestSubmission:
    def test_submit_runs_and_resolves(self, server):
        ticket = server.submit("alice", _block("answer"))
        assert ticket.result(timeout=10.0) == "answer"
        assert ticket.done
        assert ticket.status == "done"
        assert ticket.winner is not None
        assert ticket.latency is not None and ticket.latency >= 0.0

    def test_capture_space_exposes_parent_state(self, server):
        ticket = server.submit("alice", _block("deep"), capture_space=True)
        ticket.result(timeout=10.0)
        assert ticket.variables == {"v": "deep"}
        assert isinstance(ticket.space_bytes, bytes)
        assert len(ticket.space_bytes) > 0

    def test_factory_submission(self, server):
        def factory(executor):
            return _block("built")

        ticket = server.submit("bob", factory=factory, weight=2)
        assert ticket.result(timeout=10.0) == "built"
        assert ticket.weight == 2

    def test_block_failure_lands_on_the_ticket(self, server):
        failing = [
            Alternative("refuses", body=lambda ctx: ctx.fail("nope")),
        ]
        ticket = server.submit("alice", failing)
        ticket.wait(timeout=10.0)
        assert ticket.error == "AltBlockFailure"
        with pytest.raises(Exception, match="AltBlockFailure"):
            ticket.result(timeout=1.0)

    def test_submit_validates_arguments(self, server):
        with pytest.raises(ValueError):
            server.submit("alice")  # neither alternatives nor factory
        with pytest.raises(ValueError):
            server.submit("alice", _block(), factory=lambda e: _block())
        with pytest.raises(ValueError):
            server.submit("alice", [])

    def test_wider_than_budget_is_rejected_up_front(self):
        server = RaceServer(
            ServerConfig(backend="serial", max_inflight_arms=2)
        )
        try:
            with pytest.raises(SubmissionRejected) as excinfo:
                server.submit("alice", _block(arms=3))
            assert excinfo.value.reason == "block-too-wide"
            assert excinfo.value.retry_after >= 0.0
        finally:
            server.shutdown()


class TestBackpressure:
    def test_full_tenant_queue_rejects_with_retry_after(self):
        config = ServerConfig(
            backend="thread",
            workers=1,
            max_inflight_arms=1,
            max_queue_per_tenant=2,
            max_queue_total=8,
        )
        server = RaceServer(config)
        try:
            # One slow block occupies the only worker ...
            blocker = server.submit("alice", _block(seconds=0.4, arms=1))
            deadline = time.monotonic() + 5.0
            while blocker.status == "queued" and time.monotonic() < deadline:
                time.sleep(0.005)
            assert blocker.status != "queued"
            # ... two more fill the tenant queue; the next must bounce.
            tickets = [blocker] + [
                server.submit("alice", _block(seconds=0.3, arms=1))
                for _ in range(2)
            ]
            with pytest.raises(SubmissionRejected) as excinfo:
                for _ in range(4):
                    server.submit("alice", _block(seconds=0.3, arms=1))
            assert excinfo.value.reason == "tenant-queue-full"
            assert excinfo.value.retry_after > 0.0
            for ticket in tickets:
                assert ticket.wait(timeout=20.0)
        finally:
            server.shutdown()

    def test_closed_server_rejects(self):
        server = RaceServer(ServerConfig(backend="serial"))
        server.shutdown()
        with pytest.raises(SubmissionRejected) as excinfo:
            server.submit("alice", _block())
        assert excinfo.value.reason == "server-closed"


class TestCancellation:
    def test_cancel_queued_ticket(self):
        config = ServerConfig(
            backend="thread", workers=1, max_inflight_arms=1
        )
        server = RaceServer(config)
        try:
            blocker = server.submit("alice", _block(seconds=0.5, arms=1))
            queued = server.submit("bob", _block(arms=1))
            assert server.cancel(queued) is True
            assert queued.status == "cancelled"
            with pytest.raises(Exception, match="cancelled"):
                queued.result(timeout=1.0)
            assert blocker.result(timeout=20.0) == "ok"
            # Cancelling a finished ticket is a no-op.
            assert server.cancel(blocker) is False
        finally:
            server.shutdown()


class TestLifecycle:
    def test_drain_waits_for_inflight(self, server):
        tickets = [
            server.submit("alice", _block(seconds=0.1, arms=1))
            for _ in range(4)
        ]
        assert server.drain(timeout=20.0) is True
        assert all(ticket.done for ticket in tickets)
        stats = server.stats()
        assert stats["queue_depth"] == 0
        assert stats["inflight_blocks"] == 0
        assert stats["closed"] is True

    def test_context_manager_shuts_down(self):
        with RaceServer(ServerConfig(backend="serial")) as server:
            assert server.submit("t", _block()).result(timeout=10.0) == "ok"
        with pytest.raises(SubmissionRejected):
            server.submit("t", _block())

    def test_failed_world_release_does_not_kill_the_worker(self, monkeypatch):
        """The ticket resolves before its parent is exited; an exit that
        raises is counted and the lone worker thread keeps serving."""
        from repro.process.primitives import ProcessManager

        real_exit = ProcessManager.exit
        released = []

        def flaky_exit(self, process, notify=True):
            if not notify:  # the server's release of a request's parent
                released.append(process)
                if len(released) == 1:
                    raise RuntimeError("release failed")
            return real_exit(self, process, notify=notify)

        monkeypatch.setattr(ProcessManager, "exit", flaky_exit)
        config = ServerConfig(backend="serial", workers=1)
        with RaceServer(config) as server:
            for value in ("first", "second"):
                ticket = server.submit("t", _block(value))
                assert ticket.result(timeout=10.0) == value
            errors = server.metrics.counter(
                "server_world_release_errors_total"
            )
            assert errors.value == 1
        assert len(released) == 2

    def test_process_backend_owns_a_pool(self):
        import os

        if not hasattr(os, "fork"):
            pytest.skip("requires os.fork")
        server = RaceServer(
            ServerConfig(backend="process", workers=2, max_inflight_arms=4)
        )
        try:
            tickets = [
                server.submit(f"t{i}", _block(f"v{i}", arms=2))
                for i in range(3)
            ]
            for i, ticket in enumerate(tickets):
                assert ticket.result(timeout=30.0) == f"v{i}"
            stats = server.stats()
            assert stats["pool"]["inflight"] == 0
        finally:
            server.shutdown()


class TestObservability:
    def test_trace_events_and_gauges(self):
        metrics = MetricsRegistry()
        tracer = Tracer(metrics=metrics)
        config = ServerConfig(
            backend="thread", workers=2, metrics=metrics, quantum=2
        )
        with tracing(tracer):
            server = RaceServer(config)
            try:
                tickets = [
                    server.submit(f"tenant-{i % 2}", _block(arms=2))
                    for i in range(6)
                ]
                for ticket in tickets:
                    ticket.result(timeout=20.0)
            finally:
                server.shutdown()
        kinds = [event.kind for event in tracer.events]
        assert kinds.count(ev.SERVER_ADMIT) == 6
        assert kinds.count(ev.SERVER_BATCH) >= 1
        assert ev.TENANT_QUANTUM in kinds
        snapshot = metrics.snapshot()
        # The events.<kind> counter invariant extends to the new kinds.
        assert snapshot["counters"]["events.server-admit"] == 6
        assert snapshot["gauges"]["server_inflight_arms"] == 0
        # Per-tenant latency histograms observed one block each.
        assert snapshot["histograms"][
            "tenant.tenant-0.latency_seconds"
        ]["count"] == 3

    def test_reject_emits_trace_and_counters(self):
        metrics = MetricsRegistry()
        tracer = Tracer(metrics=metrics)
        with tracing(tracer):
            server = RaceServer(
                ServerConfig(
                    backend="serial", max_inflight_arms=1, metrics=metrics
                )
            )
            try:
                with pytest.raises(SubmissionRejected):
                    server.submit("greedy", _block(arms=5))
            finally:
                server.shutdown()
        rejects = [
            event for event in tracer.events
            if event.kind == ev.SERVER_REJECT
        ]
        assert len(rejects) == 1
        assert rejects[0].attrs["reason"] == "block-too-wide"
        assert metrics.snapshot()["counters"]["server_rejects_total"] == 1


class TestSwarmAndCli:
    def test_swarm_client_reports_goodput(self):
        engine, queries = build_demo_engine(rows=400, seed=1)
        with RaceServer(ServerConfig(backend="thread", workers=2)) as server:
            swarm = SwarmClient(server, tenants=3, seed=1)
            report = swarm.run(blocks=9, engine=engine, queries=queries)
        assert report.blocks_completed == 9
        assert report.blocks_per_second > 0
        data = report.to_dict()
        assert data["p99_latency_seconds"] >= data["p50_latency_seconds"]
        assert sum(data["per_tenant_goodput"].values()) == 9

    def test_serve_cli_smoke(self, capsys):
        assert serve_main([
            "--blocks", "6", "--tenants", "2", "--rows", "200",
            "--backend", "serial", "--json",
        ]) == 0
        out = capsys.readouterr().out
        assert '"blocks_completed": 6' in out
        assert '"server_events"' in out
