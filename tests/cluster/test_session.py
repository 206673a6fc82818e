"""The session's rely/guarantee, on real sockets, keyed and un-keyed.

A :class:`ClusterExecutor` keeps one authenticated stream per daemon and
names the parent's frames by id.  What it relies on -- frames are
immutable and a store never reuses a frame id -- and what it guarantees
-- a ship id is never reused, a session names only frames it shipped on
that same connection, a lapse or an unknown frame ends the session
rather than resyncing it -- are each pinned here against the serial
executor, block for block.
"""

import hashlib
import os
import pickle
import threading
import time

import pytest

from repro.cluster import auth
from repro.cluster import daemon as daemon_module
from repro.cluster.auth import serve_handshake
from repro.cluster.daemon import WorkerDaemon
from repro.cluster.executor import ClusterExecutor, WorkerEndpoint
from repro.cluster.proxy import ImpairmentProxy
from repro.cluster.stream import RecordStream, listener
from repro.core.alternative import Alternative
from repro.core.backends import wire
from repro.core.selection import OrderedPolicy
from repro.core.sequential import SequentialExecutor
from repro.net.lease import RaceWarden
from repro.obs import events as _ev
from repro.obs.tracer import tracing
from repro.pages.store import PageStore
from repro.process.primitives import ProcessManager
from repro.resilience.chaos import CHAOS_SCENARIOS, chaos_injector
from repro.resilience.injector import injected

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
KEYS = [None, b"s" * 32]
SPACE = 1024 * 1024
PRELOAD_PAGES = 32


# -- picklable bodies ---------------------------------------------------

def reject(ctx):
    ctx.fail("guard rejects")


def evolve(ctx):
    """Read what the previous block committed plus the preloaded
    region; commit one variable and one fresh page."""
    step = ctx.get("step", 0)
    space = ctx.space
    page = space.page_size
    first = space.num_pages // 2
    inherited = hashlib.sha256(
        space.read(first * page, PRELOAD_PAGES * page)
    ).hexdigest()[:12]
    space.write(
        (first + PRELOAD_PAGES + step) * page,
        f"step-{step}:{inherited}".encode().ljust(64, b"."),
    )
    ctx.put("step", step + 1)
    return f"{step}:{inherited}"


def dirty_many(ctx):
    space = ctx.space
    page = space.page_size
    first = space.num_pages // 2
    for n in range(256):
        space.write((first + n) * page, f"dirty-{n}".encode().ljust(page, b"~"))
    ctx.put("done", 256)
    return 256


def echo(ctx):
    return ctx.get("tag")


def evolving_block():
    """One arm can commit, so the winner is schedule-independent."""
    return [
        Alternative("guard-a", reject),
        Alternative("evolve", evolve),
        Alternative("guard-b", reject),
    ]


# -- helpers ------------------------------------------------------------

def preload(parent):
    space = parent.space
    page = space.page_size
    first = space.num_pages // 2
    for n in range(PRELOAD_PAGES):
        space.write(
            (first + n) * page, f"inherited-{n}".encode().ljust(page, b"#")
        )


def digest(space):
    zero = bytes(space.page_size)
    out = hashlib.sha256()
    for vpn in range(space.num_pages):
        data = space.table.read_page(vpn)
        if data != zero:
            out.update(vpn.to_bytes(4, "big"))
            out.update(data)
    return out.hexdigest()


def variables(space):
    return {name: space.get(name) for name in space.names()}


def live_frames(space):
    zero = space.store.zero_frame_id
    return {frame for _, frame in space.table.items() if frame != zero}


class SerialTwin:
    """The same blocks on the sequential executor: the oracle."""

    def __init__(self, seed=0, space_size=SPACE, preloaded=True):
        manager = ProcessManager(PageStore())
        self.executor = SequentialExecutor(
            policy=OrderedPolicy(), try_all=True, seed=seed, manager=manager
        )
        self.parent = manager.create_initial(space_size=space_size)
        if preloaded:
            preload(self.parent)

    def run(self, block):
        return self.executor.run(block, parent=self.parent)

    def agrees_with(self, result, parent, reference):
        return (
            result.winner.name == reference.winner.name
            and result.value == reference.value
            and variables(parent.space) == variables(self.parent.space)
            and digest(parent.space) == digest(self.parent.space)
        )


def wait_until(predicate, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def connections(daemon):
    with daemon._inflight_lock:
        return len(daemon._connections)


@pytest.fixture(params=KEYS, ids=["plain", "keyed"])
def key(request):
    return request.param


@pytest.fixture
def cluster(key):
    daemons = [WorkerDaemon(f"w{i}", secret=key) for i in range(3)]
    endpoints = [WorkerEndpoint(d.node_id, *d.start()) for d in daemons]
    executor = ClusterExecutor(endpoints, seed=0, secret=key)
    yield daemons, endpoints, executor
    executor.close()
    for daemon in daemons:
        daemon.stop()


# -- (a) one session, one evolving parent -------------------------------

class TestOneSessionManyBlocks:
    def test_fifty_blocks_equal_the_serial_run_block_for_block(self, cluster):
        daemons, endpoints, executor = cluster
        parent = executor.new_parent(space_size=SPACE)
        preload(parent)
        twin = SerialTwin()
        shown = set()
        for n in range(50):
            before = executor.stats()["pages_shipped"]
            fresh = live_frames(parent.space) - shown
            shown |= fresh
            result = executor.run(evolving_block(), parent=parent)
            reference = twin.run(evolving_block())
            assert twin.agrees_with(result, parent, reference), n
            assert executor.all_settled
            # Every daemon got one ship, and each was sent exactly the
            # frames it had not been shown: after block 1, the pages
            # committed since.
            assert (
                executor.stats()["pages_shipped"] - before
                == len(endpoints) * len(fresh)
            ), n
            if n:
                assert len(fresh) < PRELOAD_PAGES
        assert parent.space.get("step") == 50
        stats = executor.stats()
        assert stats["dials"] == len(endpoints)  # one per daemon, ever
        assert stats["ships"] == 50 * len(endpoints)
        assert stats["sessions"] == len(endpoints)
        assert stats["sessions_retired"] == 0
        assert all(connections(d) == 1 for d in daemons)
        assert sum(d.protocol_violations for d in daemons) == 0
        parent.space.release()

    def test_conn_open_is_traced_per_dial_not_per_ship(self, cluster):
        daemons, endpoints, executor = cluster
        parent = executor.new_parent(space_size=SPACE)
        with tracing() as tracer:
            for _ in range(3):
                executor.run(evolving_block(), parent=parent)
        opened = [e for e in tracer.events if e.kind == _ev.CONN_OPEN]
        assert sorted(e.attrs["endpoint"] for e in opened) == sorted(
            str(endpoint) for endpoint in endpoints
        )
        commits = [e for e in tracer.events if e.kind == _ev.WINNER_COMMIT]
        assert len(commits) == 3
        assert all(isinstance(e.attrs["ship"], int) for e in commits)
        parent.space.release()

    def test_close_hangs_up_and_a_later_run_redials(self, cluster):
        daemons, endpoints, executor = cluster
        parent = executor.new_parent(space_size=SPACE)
        twin = SerialTwin(preloaded=False)
        with executor:
            executor.run(evolving_block(), parent=parent)
            twin.run(evolving_block())
        assert executor.stats()["sessions"] == 0
        assert wait_until(lambda: all(connections(d) == 0 for d in daemons))
        assert "dials=3" in repr(executor)
        result = executor.run(evolving_block(), parent=parent)
        assert twin.agrees_with(result, parent, twin.run(evolving_block()))
        assert executor.stats()["dials"] == 2 * len(endpoints)
        assert "sessions=1" in repr(daemons[0])
        parent.space.release()


# -- (b) a record for a dismissed ship ----------------------------------

class LateEchoWorker:
    """A fake daemon on one session: answers ship 1 honestly, then
    answers ship 2 twice -- first with a winner under the *dismissed*
    id 1, then with the real one."""

    def __init__(self, key):
        self.key = key
        self.ships = []
        self._server, self.host, self.port = listener()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    @staticmethod
    def result(ship, msg, value, dirty=None):
        return {
            "kind": "result", "node": "fake", "ship": ship,
            "arm": msg["arm"], "epoch": msg["epoch"], "ok": True,
            "value": value, "detail": "", "dirty_pages": dirty or {},
            "pages_written": len(dirty or {}), "duration": 0.0,
            "cancelled": False,
        }

    def _serve(self):
        conn, _ = self._server.accept()
        stream = serve_handshake(RecordStream(conn, "fake"), self.key)
        try:
            while len(self.ships) < 2:
                msg = stream.recv(timeout=10.0)
                if msg is None or msg.get("kind") != "ship":
                    continue
                self.ships.append(msg["ship"])
                if len(self.ships) == 1:
                    stream.send(self.result(msg["ship"], msg, "first"))
                    continue
                # Epoch and arm are the *running* block's: only the ship
                # id says this winner belongs to a race long concluded.
                stream.send(self.result(
                    self.ships[0], msg, "poison",
                    dirty={0: b"\xde\xad" * 2048},
                ))
                stream.send(self.result(msg["ship"], msg, "second"))
            stream.recv(timeout=10.0)
        except Exception:
            pass
        finally:
            stream.close()

    def close(self):
        self._server.close()


class TestDismissedShip:
    def test_late_winner_under_a_dismissed_id_is_counted_not_committed(
            self, key, monkeypatch):
        fake = LateEchoWorker(key)
        executor = ClusterExecutor(
            [WorkerEndpoint("fake", fake.host, fake.port)], seed=0,
            secret=key,
        )
        checked = []
        commit_check = ClusterExecutor._commit_check

        def spy(self, assignment, msg):
            checked.append(msg.get("value"))
            return commit_check(self, assignment, msg)

        monkeypatch.setattr(ClusterExecutor, "_commit_check", spy)
        try:
            parent = executor.new_parent()
            parent.space.put("tag", "base")
            serial = parent.space.read(0, parent.space.size)
            first = executor.run([Alternative("one", echo)], parent=parent)
            second = executor.run([Alternative("two", echo)], parent=parent)
            assert (first.value, second.value) == ("first", "second")
            assert fake.ships == [1, 2]  # one session, ids never reused
            assert checked == ["first", "second"]
            assert executor.stats()["late_records"] == 1
            assert executor.stats()["dials"] == 1
            assert parent.space.read(0, parent.space.size) == serial
            assert executor.all_settled
            parent.space.release()
        finally:
            executor.close()
            fake.close()


# -- (c) a lost ship record poisons the session --------------------------

def record_of(frame):
    """The pickled record inside one raw wire frame, either framing."""
    if frame[:2] == wire.MAGIC:
        return pickle.loads(frame[wire.FRAME.size:])
    if frame[:2] == auth.AUTH_MAGIC:
        return pickle.loads(frame[auth.HEADER.size + auth.MAC_LEN:])
    return None


class ShipDroppingProxy(ImpairmentProxy):
    """Drops the first ``ship`` record after ``after`` that carries page
    bytes -- the one record the session cannot afford to lose."""

    def __init__(self, upstream, after):
        super().__init__(upstream, link="scripted")
        self.after = after
        self.dropped = []

    def _relay(self, sink, frame, held):
        record = record_of(frame)
        if (
            not self.dropped
            and isinstance(record, dict)
            and record.get("kind") == "ship"
            and record["ship"] > self.after
            and record["pages"]
        ):
            self.dropped.append(record["ship"])
            return held
        return super()._relay(sink, frame, held)


def answer_on_retry(ctx):
    ctx.put("result", ctx.get("step", 0) + 100)
    return ctx.get("result")


class TestLostShipRecord:
    def test_next_ship_poisons_the_session_and_the_ladder_recovers(self, key):
        behind, direct = (
            WorkerDaemon("behind", secret=key),
            WorkerDaemon("direct", secret=key),
        )
        proxy = ShipDroppingProxy(behind.start(), after=2)
        endpoints = [
            WorkerEndpoint("behind", *proxy.start()),
            WorkerEndpoint("direct", *direct.start()),
        ]
        executor = ClusterExecutor(endpoints, seed=0, secret=key)
        twin = SerialTwin()
        try:
            parent = executor.new_parent(space_size=SPACE)
            preload(parent)
            # Block 1: arms 0 and 2 ship to "behind" (ships 1 and 2),
            # arm 1 commits new pages from "direct".
            result = executor.run(evolving_block(), parent=parent)
            assert twin.agrees_with(result, parent, twin.run(evolving_block()))
            assert executor.stats()["dials"] == 2

            # Block 2: ship 3 carries those new pages to "behind" and is
            # lost; ship 4 names them without carrying them.
            block = [
                Alternative("guard-a", reject),
                Alternative("guard-b", reject),
                Alternative("retry", answer_on_retry),
            ]
            with tracing() as tracer:
                result = executor.run(block, parent=parent)
            kinds = [event.kind for event in tracer.events]
            assert proxy.dropped == [3]
            assert behind.protocol_violations == 1
            assert _ev.CONN_DROP in kinds       # StreamClosed at home
            assert _ev.WORKER_RESPAWN in kinds  # the ladder answered
            assert _ev.DEGRADE not in kinds     # without the serial floor
            assert any(
                "connection to behind dropped" in line
                for _, line in result.timeline
            )
            assert result.winner.name == "retry"
            assert twin.agrees_with(result, parent, twin.run(block))
            assert executor.all_settled

            # Block 3 probes "behind" with a fresh dial whose shown-set
            # is empty: everything it names is shipped again.
            before = executor.stats()
            result = executor.run(evolving_block(), parent=parent)
            assert twin.agrees_with(result, parent, twin.run(evolving_block()))
            after = executor.stats()
            assert after["dials"] == before["dials"] + 1
            assert (
                after["pages_shipped"] - before["pages_shipped"]
                >= len(live_frames(parent.space)) - 2
            )
            assert behind.protocol_violations == 1
            parent.space.release()
        finally:
            executor.close()
            proxy.stop()
            behind.stop()
            direct.stop()


# -- (d) a daemon restarted on its port ----------------------------------

class TestRestartedDaemon:
    def test_restart_between_blocks_costs_one_redial(self, key):
        first = WorkerDaemon("solo", secret=key)
        host, port = first.start()
        executor = ClusterExecutor(
            [WorkerEndpoint("solo", host, port)], seed=0, secret=key
        )
        twin = SerialTwin()
        second = None
        try:
            parent = executor.new_parent(space_size=SPACE)
            preload(parent)
            result = executor.run(evolving_block(), parent=parent)
            assert twin.agrees_with(result, parent, twin.run(evolving_block()))
            first.stop()
            # The session's receiver sees the hang-up on its own.
            assert wait_until(lambda: executor.stats()["sessions"] == 0)
            second = WorkerDaemon("solo", port=port, secret=key)
            second.start()
            with tracing() as tracer:
                result = executor.run(evolving_block(), parent=parent)
            assert twin.agrees_with(result, parent, twin.run(evolving_block()))
            kinds = [event.kind for event in tracer.events]
            assert _ev.DEGRADE not in kinds
            assert _ev.WORKER_RESPAWN not in kinds
            assert executor.stats()["dials"] == 2
            assert second.arms_run >= 1
            parent.space.release()
        finally:
            executor.close()
            first.stop()
            if second is not None:
                second.stop()


# -- (e) the frame bound --------------------------------------------------

class TestFrameBound:
    def test_a_growing_parent_rotates_sessions(self, cluster, monkeypatch):
        daemons, endpoints, executor = cluster
        monkeypatch.setattr(daemon_module, "SESSION_FRAME_BOUND", 8)
        parent = executor.new_parent(space_size=SPACE)
        twin = SerialTwin(preloaded=False)
        for n in range(14):
            result = executor.run(evolving_block(), parent=parent)
            assert twin.agrees_with(
                result, parent, twin.run(evolving_block())
            ), n
            assert executor.stats()["sessions"] <= len(endpoints)
            # A retired session is closed by the home; at most one
            # connection per endpoint outlives the block.
            assert wait_until(
                lambda: all(connections(d) <= 1 for d in daemons)
            ), n
        stats = executor.stats()
        assert stats["sessions_retired"] >= len(endpoints)
        assert stats["dials"] == len(endpoints) + stats["sessions_retired"]
        assert sum(d.protocol_violations for d in daemons) == 0
        parent.space.release()

    def test_daemon_refuses_a_session_that_outgrows_the_bound(
            self, key, monkeypatch):
        """The daemon's own half of the bound, with a home that ignores
        it: the session is closed, never trimmed."""
        daemon = WorkerDaemon("bounded", secret=key)
        executor = ClusterExecutor(
            [WorkerEndpoint("bounded", *daemon.start())], seed=0, secret=key,
            warden=RaceWarden(lease_interval=0.05, lease_timeout=0.6,
                              max_respawns=0),
        )
        try:
            parent = executor.new_parent(space_size=SPACE)
            parent.space.put("tag", "shown")  # so the daemon's map is not empty
            executor.run([Alternative("evolve", evolve)], parent=parent)
            monkeypatch.setattr(daemon_module, "SESSION_FRAME_BOUND", 8)
            monkeypatch.setattr(
                "repro.cluster.executor._Session.fits",
                lambda self, world, unseen: True,
            )
            preload(parent)  # 32 new frames on a session that holds some
            with tracing() as tracer:
                result = executor.run(
                    [Alternative("evolve", evolve)], parent=parent
                )
            assert daemon.protocol_violations == 1
            assert _ev.DEGRADE in [event.kind for event in tracer.events]
            assert result.winner.name == "evolve"
            parent.space.release()
        finally:
            executor.close()
            daemon.stop()


# -- (f) a large result beside a polling reader ---------------------------

class TestLargeResult:
    def test_256_dirty_pages_arrive_whole(self, key):
        daemon = WorkerDaemon("big", secret=key)
        executor = ClusterExecutor(
            [WorkerEndpoint("big", *daemon.start())], seed=0, secret=key,
            # A 5 ms heartbeat: the daemon's reader polls the socket the
            # arm thread is pushing a megabyte through.
            warden=RaceWarden(lease_interval=0.005, lease_timeout=2.0),
        )
        twin = SerialTwin(space_size=4 * 1024 * 1024, preloaded=False)
        try:
            parent = executor.new_parent(space_size=4 * 1024 * 1024)
            block = [Alternative("dirty", dirty_many)]
            with tracing() as tracer:
                result = executor.run(block, parent=parent)
            assert _ev.DEGRADE not in [e.kind for e in tracer.events]
            assert result.winner.pages_written >= 256
            assert twin.agrees_with(result, parent, twin.run(block))
            parent.space.release()
        finally:
            executor.close()
            daemon.stop()


# -- the soak: sixty blocks per chaos scenario on one executor ------------

def patient_evolve(ctx):
    """``evolve``, slow enough for heartbeats to cross the impaired wire."""
    for _ in range(3):
        if ctx.token is not None and ctx.token.cancelled:
            return None
        time.sleep(0.02)
    return evolve(ctx)


def patient_block():
    return [
        Alternative("guard-a", reject),
        Alternative("evolve", patient_evolve),
        Alternative("guard-b", reject),
    ]


def home_footprint():
    """Session receiver threads alive, and descriptors open, here."""
    sessions = sum(
        1 for thread in threading.enumerate()
        if thread.name.startswith("session-")
    )
    return sessions, len(os.listdir("/proc/self/fd"))


@pytest.mark.slow
class TestChaosSoak:
    BLOCKS = 60

    @pytest.mark.parametrize("scenario", sorted(CHAOS_SCENARIOS))
    def test_sixty_blocks_converge_and_nothing_grows(self, scenario):
        key = KEYS[1]
        daemons = [WorkerDaemon(f"w{i}", secret=key) for i in range(3)]
        impair = CHAOS_SCENARIOS[scenario].wire(seed=CHAOS_SEED)
        proxies, endpoints = [], []
        for daemon in daemons:
            proxy = ImpairmentProxy(
                daemon.start(), impair=impair, link=f"home|{daemon.node_id}"
            )
            proxies.append(proxy)
            endpoints.append(WorkerEndpoint(daemon.node_id, *proxy.start()))
        # Short terms: under 25 % loss every lost ship, result or
        # challenge frame is paid for in full, sixty blocks over.
        executor = ClusterExecutor(
            endpoints, seed=CHAOS_SEED, secret=key, connect_timeout=0.5,
            warden=RaceWarden(
                lease_interval=0.05, lease_timeout=0.4, max_respawns=4
            ),
        )
        twin = SerialTwin(seed=CHAOS_SEED)
        diverged = []
        footprint = {}
        try:
            parent = executor.new_parent(space_size=SPACE)
            preload(parent)
            for n in range(1, self.BLOCKS + 1):
                with injected(chaos_injector(scenario, seed=CHAOS_SEED + n)):
                    result = executor.run(patient_block(), parent=parent)
                if not twin.agrees_with(
                        result, parent, twin.run(patient_block())):
                    diverged.append(n)
                assert executor.all_settled, n
                assert executor.stats()["sessions"] <= len(endpoints)
                if n in (10, self.BLOCKS):
                    # Hang-ups are asynchronous (proxy pumps, daemon
                    # readers); let the block's own teardown land.
                    time.sleep(0.5)
                    footprint[n] = home_footprint()
            assert diverged == []
            assert parent.space.get("step") == self.BLOCKS
            early, late = footprint[10], footprint[self.BLOCKS]
            assert late[0] <= len(endpoints)
            # Descriptors: the in-process proxies and daemons are counted
            # too, so allow the live sessions to differ, never to pile up.
            assert late[1] <= early[1] + 4 * len(endpoints), (early, late)
            parent.space.release()
        finally:
            executor.close()
            for proxy in proxies:
                proxy.stop()
            for daemon in daemons:
                daemon.stop()
