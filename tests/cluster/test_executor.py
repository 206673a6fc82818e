"""The home-node cluster executor: clean races, failures, consensus.

The convergence gate mirrors the simulated chaos suite: whichever arm
commits over the real wire, the parent's bytes must equal a serial
replay of the block from the same image -- same winner, same value,
same variables, byte-identical space.
"""

import time
from collections import Counter

import pytest

from repro.cluster.daemon import WorkerDaemon
from repro.cluster.executor import ClusterExecutor, WorkerEndpoint
from repro.core.alternative import Alternative
from repro.core.selection import OrderedPolicy
from repro.core.sequential import SequentialExecutor
from repro.errors import AltBlockFailure
from repro.net.lease import RaceWarden
from repro.obs import events as _ev
from repro.obs.tracer import tracing
from repro.pages.store import PageStore
from repro.process.primitives import ProcessManager


# -- picklable bodies ---------------------------------------------------

def guard_a(ctx):
    ctx.fail("guard-a rejects")


def the_answer(ctx):
    ctx.put("result", 42)
    return 42


def guard_b(ctx):
    ctx.fail("guard-b rejects")


def slow_winner(ctx):
    time.sleep(0.2)
    ctx.put("result", 7)
    return 7


def one_success_block():
    """Only one arm can commit, so the winner is schedule-independent."""
    return [
        Alternative("guard-a", guard_a),
        Alternative("the-answer", the_answer),
        Alternative("guard-b", guard_b),
    ]


def serial_reference(seed, space_size=64 * 1024):
    """The block replayed serially from a fresh world: the oracle."""
    manager = ProcessManager(PageStore())
    executor = SequentialExecutor(
        policy=OrderedPolicy(), try_all=True, seed=seed, manager=manager
    )
    parent = manager.create_initial(space_size=space_size)
    parent.space.put("shared", "base")
    result = executor.run(one_success_block(), parent=parent)
    return result, parent


_executors = []


@pytest.fixture
def cluster():
    daemons = [WorkerDaemon(f"w{i}") for i in range(3)]
    endpoints = [
        WorkerEndpoint(d.node_id, *d.start()) for d in daemons
    ]
    yield daemons, endpoints
    while _executors:
        _executors.pop().close()  # hang the sessions up first
    for daemon in daemons:
        daemon.stop()


def make_executor(endpoints, **kwargs):
    kwargs.setdefault("seed", 0)
    executor = ClusterExecutor(endpoints, **kwargs)
    _executors.append(executor)
    return executor


class TestCleanRace:
    def test_converges_to_the_serial_reference(self, cluster):
        daemons, endpoints = cluster
        executor = make_executor(endpoints)
        parent = executor.new_parent()
        parent.space.put("shared", "base")
        result = executor.run(one_success_block(), parent=parent)

        reference, ref_parent = serial_reference(seed=0)
        assert result.winner.name == reference.winner.name
        assert result.value == reference.value
        assert parent.space.get("result") == ref_parent.space.get("result")
        assert parent.space.get("shared") == "base"
        assert (
            parent.space.read(0, parent.space.size)
            == ref_parent.space.read(0, ref_parent.space.size)
        )
        assert executor.all_settled
        parent.space.release()
        ref_parent.space.release()

    def test_loser_gets_a_cancel_message(self, cluster):
        daemons, endpoints = cluster
        executor = make_executor(endpoints)
        parent = executor.new_parent()
        block = [
            Alternative("fast", the_answer),
            Alternative("slow", slow_winner),
        ]
        result = executor.run(block, parent=parent)
        assert result.winner.name == "fast"
        # The slow arm was eliminated, not left running.
        statuses = {o.name: o.status for o in result.outcomes}
        assert statuses["slow"] in ("eliminated", "untried")
        deadline = time.monotonic() + 3.0
        while time.monotonic() < deadline:
            if sum(d.arms_cancelled for d in daemons) >= 1:
                break
            time.sleep(0.02)
        assert sum(d.arms_cancelled for d in daemons) >= 1
        parent.space.release()

    def test_more_arms_than_endpoints_round_robin(self, cluster):
        daemons, endpoints = cluster
        executor = make_executor(endpoints[:2])
        parent = executor.new_parent()
        parent.space.put("shared", "base")
        result = executor.run(one_success_block(), parent=parent)
        assert result.winner.name == "the-answer"
        assert result.value == 42
        parent.space.release()

    def test_traces_conn_open_and_winner_commit(self, cluster):
        daemons, endpoints = cluster
        executor = make_executor(endpoints)
        with tracing() as tracer:
            parent = executor.new_parent()
            result = executor.run(one_success_block(), parent=parent)
        kinds = [event.kind for event in tracer.events]
        assert _ev.CONN_OPEN in kinds
        assert _ev.WINNER_COMMIT in kinds
        assert _ev.BLOCK_BEGIN in kinds and _ev.BLOCK_END in kinds
        assert result.page_transport == "socket"
        parent.space.release()


class TestFailurePaths:
    def test_all_arms_fail_degrades_to_serial_replay(self, cluster):
        daemons, endpoints = cluster
        executor = make_executor(endpoints)
        parent = executor.new_parent()
        block = [
            Alternative("guard-a", guard_a),
            Alternative("guard-b", guard_b),
        ]
        with pytest.raises(AltBlockFailure):
            executor.run(block, parent=parent)
        assert executor.all_settled
        parent.space.release()

    def test_degradation_replays_serially_and_wins(self, cluster):
        """When no daemon is reachable the block still completes, at
        home, serially -- the last-resort path."""
        daemons, endpoints = cluster
        for daemon in daemons:
            daemon.stop()
        executor = make_executor(endpoints)
        parent = executor.new_parent()
        parent.space.put("shared", "base")
        with tracing() as tracer:
            result = executor.run(one_success_block(), parent=parent)
        assert result.winner.name == "the-answer"
        assert result.value == 42
        assert parent.space.get("result") == 42
        assert _ev.DEGRADE in [event.kind for event in tracer.events]
        parent.space.release()

    def test_no_degradation_raises_block_failure(self, cluster):
        daemons, endpoints = cluster
        for daemon in daemons:
            daemon.stop()
        executor = make_executor(
            endpoints,
            warden=RaceWarden(
                lease_interval=0.05, lease_timeout=0.6,
                degrade_to_serial=False,
            ),
        )
        parent = executor.new_parent()
        with pytest.raises(AltBlockFailure):
            executor.run(one_success_block(), parent=parent)
        assert executor.all_settled
        parent.space.release()

    def test_dead_endpoint_rotates_to_a_healthy_one(self, cluster):
        daemons, endpoints = cluster
        daemons[1].stop()  # the-answer's round-robin home is dead
        executor = make_executor(endpoints)
        parent = executor.new_parent()
        parent.space.put("shared", "base")
        result = executor.run(one_success_block(), parent=parent)
        assert result.winner.name == "the-answer"
        assert result.value == 42
        assert executor.all_settled
        parent.space.release()


def majority_decisions(daemons):
    """Decision ids on which a majority of the voters granted a vote."""
    votes = Counter(
        decision for d in daemons for decision in d.voter._grants
    )
    return {
        decision for decision, count in votes.items()
        if count > len(daemons) // 2
    }


class TestConsensus:
    def test_majority_grant_commits_the_winner(self, cluster):
        daemons, endpoints = cluster
        executor = make_executor(endpoints, use_consensus=True)
        parent = executor.new_parent()
        parent.space.put("shared", "base")
        result = executor.run(one_success_block(), parent=parent)
        assert result.winner.name == "the-answer"
        assert parent.space.get("result") == 42
        # The winner's requester holds a sticky majority on the daemons.
        assert len(majority_decisions(daemons)) == 1
        parent.space.release()

    def test_consecutive_blocks_each_win_their_own_majority(self, cluster):
        """Voters keep their grants for life, so every block must vote
        on a decision id of its own: with a constant id only the first
        block of a daemon's life could reach a majority and every later
        one sat out the race timeout before a serial replay."""
        daemons, endpoints = cluster
        executor = make_executor(endpoints, use_consensus=True)
        for block in range(1, 4):
            parent = executor.new_parent()
            parent.space.put("shared", "base")
            began = time.monotonic()
            with tracing() as tracer:
                result = executor.run(one_success_block(), parent=parent)
            assert time.monotonic() - began < 2.0
            assert result.winner.name == "the-answer"
            assert parent.space.get("result") == 42
            assert _ev.DEGRADE not in [e.kind for e in tracer.events]
            assert len(majority_decisions(daemons)) == block
            parent.space.release()
        # A second home node on the same daemons votes under its own ids.
        other = make_executor(endpoints, use_consensus=True)
        parent = other.new_parent()
        result = other.run(one_success_block(), parent=parent)
        assert result.winner.name == "the-answer"
        assert len(majority_decisions(daemons)) == 4
        parent.space.release()

    def test_minority_of_dead_voters_does_not_block_commit(self, cluster):
        daemons, endpoints = cluster
        daemons[2].stop()  # one voter of three is gone: quorum holds
        executor = make_executor(endpoints, use_consensus=True)
        parent = executor.new_parent()
        result = executor.run(
            [Alternative("the-answer", the_answer)], parent=parent
        )
        assert result.winner.name == "the-answer"
        parent.space.release()

    def test_majority_dead_starves_consensus_and_degrades(self, cluster):
        daemons, endpoints = cluster
        daemons[1].stop()
        daemons[2].stop()
        executor = make_executor(endpoints, use_consensus=True)
        parent = executor.new_parent()
        parent.space.put("shared", "base")
        with tracing() as tracer:
            result = executor.run(
                [Alternative("the-answer", the_answer)], parent=parent
            )
        # The arm ran on w0 but could not synchronize; the block fell
        # back to the home-node serial replay and still converged.
        assert result.value == 42
        assert _ev.DEGRADE in [event.kind for event in tracer.events]
        parent.space.release()
