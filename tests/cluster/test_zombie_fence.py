"""Epoch fencing across a partition heal, on the real socket transport.

The satellite-3 scenario, end to end: a worker wins its arm's lease,
falls silent long enough for the lease to expire (a partition), the home
node respawns the arm elsewhere under a fresh epoch -- and then the
partition *heals* and the original worker's winner shipment finally
arrives on the deliberately-still-open connection.  That zombie must be
rejected at winner-commit by the epoch fence; its value must never reach
the parent.

The zombie here is hand-scripted rather than a real daemon so the
timing is exact: heartbeats, silence, then a late stale-epoch winner.
"""

import threading
import time

import pytest

from repro.cluster.daemon import WorkerDaemon
from repro.cluster.executor import ClusterExecutor, WorkerEndpoint
from repro.cluster.stream import RecordStream, listener
from repro.core.alternative import Alternative
from repro.net.lease import RaceWarden
from repro.obs import events as _ev
from repro.obs.tracer import tracing


def patient_answer(ctx):
    """Slow enough that the zombie's late shipment lands mid-race."""
    for _ in range(20):
        if ctx.token is not None and ctx.token.cancelled:
            return None
        time.sleep(0.05)
    ctx.put("result", 42)
    return 42


class ScriptedZombie:
    """A fake worker: heartbeat, partition, then a late stale winner."""

    def __init__(self, hb_for=0.15, silent_for=0.45, poison_value=99):
        self.hb_for = hb_for
        self.silent_for = silent_for
        self.poison_value = poison_value
        self.sent_late_winner = threading.Event()
        self.late_send_ok = None
        self._server, self.host, self.port = listener()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        conn, _ = self._server.accept()
        stream = RecordStream(conn, "zombie")
        ship = stream.recv(timeout=5.0)
        assert ship["kind"] == "ship"
        epoch = ship["epoch"]
        arm = ship["arm"]
        ship_id = ship["ship"]
        deadline = time.monotonic() + self.hb_for
        while time.monotonic() < deadline:
            stream.send({"kind": "hb", "node": "zombie", "ship": ship_id,
                         "arm": arm, "epoch": epoch})
            time.sleep(0.03)
        # The partition: total silence, long past the lease timeout.
        time.sleep(self.silent_for)
        # Healed.  The zombie still believes it holds epoch `epoch` and
        # ships a "winner" -- poisoned state the fence must reject.
        self.late_send_ok = stream.send({
            "kind": "result", "node": "zombie", "ship": ship_id,
            "arm": arm, "epoch": epoch, "ok": True,
            "value": self.poison_value,
            "detail": "", "dirty_pages": {0: b"\xde\xad" * 8},
            "pages_written": 1, "duration": 0.0, "cancelled": False,
        })
        self.sent_late_winner.set()
        # Keep the socket open until the race tears it down.
        try:
            stream.recv(timeout=10.0)
        except Exception:
            pass
        stream.close()

    def close(self):
        try:
            self._server.close()
        except OSError:
            pass


@pytest.fixture
def fenced_race():
    zombie = ScriptedZombie()
    daemon = WorkerDaemon("real")
    daemon.start()
    endpoints = [
        WorkerEndpoint("zombie", zombie.host, zombie.port),
        WorkerEndpoint(daemon.node_id, daemon.host, daemon.port),
    ]
    executor = ClusterExecutor(
        endpoints,
        seed=0,
        warden=RaceWarden(lease_interval=0.04, lease_timeout=0.2),
    )
    yield zombie, daemon, executor
    executor.close()
    zombie.close()
    daemon.stop()


class TestZombieFence:
    def test_late_winner_is_fenced_and_the_respawn_wins(self, fenced_race):
        zombie, daemon, executor = fenced_race
        parent = executor.new_parent()
        parent.space.put("shared", "base")
        baseline_page0 = parent.space.read(0, 16)
        block = [Alternative("the-answer", patient_answer)]

        with tracing() as tracer:
            result = executor.run(block, parent=parent)

        # The zombie really did ship a late winner on the healed wire,
        # and the home node really accepted the bytes (the stream was
        # left open as fence bait) -- then rejected them at commit.
        assert zombie.sent_late_winner.wait(timeout=1.0)
        assert zombie.late_send_ok is True

        # The arm's second incarnation, on the real daemon, won.
        assert result.winner.name == "the-answer"
        assert result.value == 42
        assert parent.space.get("result") == 42
        assert executor.warden.table.current_epoch(0) == 2

        # The poison never touched the parent: page 0 still holds the
        # variable-table bytes the serial world would have.
        assert parent.space.read(0, 16) != b"\xde\xad" * 8
        assert parent.space.get("shared") == "base"
        assert baseline_page0 is not None

        # The fence is observable: timeline + trace event.
        lines = [entry for _, entry in result.timeline]
        assert any(
            "zombie the-answer@zombie fenced at winner-commit (epoch 1)"
            in line
            for line in lines
        ), lines
        fences = [
            event for event in tracer.events
            if event.kind == _ev.LOSER_ELIMINATE
            and event.attrs.get("reason") == "stale-epoch-fence"
        ]
        assert fences and fences[0].attrs.get("epoch") == 1

        # Respawn happened under a fresh epoch, and everything settled.
        respawns = [
            event for event in tracer.events
            if event.kind == _ev.WORKER_RESPAWN
        ]
        assert respawns and respawns[0].attrs.get("epoch") == 2
        assert executor.warden.table.all_settled
        parent.space.release()

    def test_zombie_that_heals_after_commit_cannot_resurrect(self):
        """Even when the late shipment arrives after the race is over,
        nothing explodes and the parent keeps the committed state."""
        zombie = ScriptedZombie(hb_for=0.1, silent_for=2.0)
        daemon = WorkerDaemon("real")
        daemon.start()
        endpoints = [
            WorkerEndpoint("zombie", zombie.host, zombie.port),
            WorkerEndpoint(daemon.node_id, daemon.host, daemon.port),
        ]
        executor = ClusterExecutor(
            endpoints,
            seed=0,
            warden=RaceWarden(lease_interval=0.04, lease_timeout=0.2),
        )
        try:
            parent = executor.new_parent()
            result = executor.run(
                [Alternative("quick", _quick_answer)], parent=parent
            )
            assert result.value == 42
            assert parent.space.get("result") == 42
            committed = parent.space.get("result")
            # Let the zombie's post-race shipment land (into a torn-down
            # connection) and verify nothing changed.
            zombie.sent_late_winner.wait(timeout=5.0)
            time.sleep(0.1)
            assert parent.space.get("result") == committed
            assert executor.warden.table.all_settled
            parent.space.release()
        finally:
            executor.close()
            zombie.close()
            daemon.stop()


def _quick_answer(ctx):
    ctx.put("result", 42)
    return 42
