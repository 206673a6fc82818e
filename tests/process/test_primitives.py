"""Tests for alt_spawn / alt_sync / alt_wait semantics."""

import pytest

from repro.errors import (
    AltBlockFailure,
    AltTimeout,
    ProcessStateError,
    TooLate,
)
from repro.process.primitives import EliminationMode, ProcessManager
from repro.process.process import ProcessState, SimProcess


@pytest.fixture
def manager():
    return ProcessManager()


@pytest.fixture
def parent(manager):
    process = manager.create_initial(space_size=4096)
    process.space.put("x", "original")
    process.space.table.clear_dirty()
    return process


class TestAltSpawn:
    def test_spawn_returns_children_with_indices(self, manager, parent):
        children = manager.alt_spawn(parent, 3)
        assert [c.alt_index for c in children] == [1, 2, 3]
        assert all(c.parent_pid == parent.pid for c in children)

    def test_parent_blocks(self, manager, parent):
        manager.alt_spawn(parent, 2)
        assert parent.state == ProcessState.WAITING

    def test_children_inherit_state_cow(self, manager, parent):
        children = manager.alt_spawn(parent, 2)
        assert children[0].space.get("x") == "original"
        children[0].space.put("x", "child-0")
        assert children[1].space.get("x") == "original"
        assert parent.space.get("x") == "original"

    def test_sibling_rivalry_predicates(self, manager, parent):
        children = manager.alt_spawn(parent, 3)
        pids = {c.pid for c in children}
        for child in children:
            assert child.predicate.must == {child.pid}
            assert child.predicate.cannot == pids - {child.pid}

    def test_children_inherit_parent_predicates(self, manager):
        root = manager.create_initial()
        from repro.predicates.predicate import Predicate

        root.predicate = Predicate.of(must=[99])
        children = manager.alt_spawn(root, 2)
        for child in children:
            assert 99 in child.predicate.must

    def test_spawn_zero_rejected(self, manager, parent):
        with pytest.raises(ValueError):
            manager.alt_spawn(parent, 0)

    def test_spawn_from_blocked_parent_rejected(self, manager, parent):
        manager.alt_spawn(parent, 1)
        with pytest.raises(ProcessStateError):
            manager.alt_spawn(parent, 1)

    def test_fork_counter(self, manager, parent):
        manager.alt_spawn(parent, 3)
        assert manager.forks_performed == 3


class TestSyncAndWait:
    def test_first_sync_wins_and_parent_absorbs(self, manager, parent):
        children = manager.alt_spawn(parent, 3)
        children[1].space.put("x", "winner")
        assert manager.alt_sync(children[1]) is True
        winner = manager.alt_wait(parent)
        assert winner is children[1]
        assert parent.space.get("x") == "winner"
        assert parent.state == ProcessState.RUNNABLE
        assert children[1].state == ProcessState.SYNCED

    def test_late_sibling_told_too_late(self, manager, parent):
        children = manager.alt_spawn(parent, 2)
        manager.alt_sync(children[0])
        with pytest.raises(TooLate):
            manager.alt_sync(children[1])
        assert children[1].state == ProcessState.ELIMINATED

    def test_guard_failure_aborts_without_sync(self, manager, parent):
        children = manager.alt_spawn(parent, 2)
        assert manager.alt_sync(children[0], guard_ok=False) is False
        assert children[0].state == ProcessState.FAILED
        manager.alt_sync(children[1])
        winner = manager.alt_wait(parent)
        assert winner is children[1]

    def test_synchronous_elimination_before_parent_resumes(self, manager, parent):
        children = manager.alt_spawn(parent, 3)
        manager.alt_sync(children[0])
        manager.alt_wait(parent, elimination=EliminationMode.SYNCHRONOUS)
        assert children[1].state == ProcessState.ELIMINATED
        assert children[2].state == ProcessState.ELIMINATED
        assert manager.kills_issued == 2

    def test_asynchronous_elimination_deferred(self, manager, parent):
        children = manager.alt_spawn(parent, 3)
        manager.alt_sync(children[0])
        manager.alt_wait(parent, elimination=EliminationMode.ASYNCHRONOUS)
        # Parent resumed, but siblings not yet killed.
        assert children[1].state == ProcessState.RUNNABLE
        assert manager.kills_issued == 0
        drained = manager.drain_eliminations(children[0].group_id)
        assert drained == 2
        assert children[1].state == ProcessState.ELIMINATED

    def test_all_failed_raises_alt_block_failure(self, manager, parent):
        children = manager.alt_spawn(parent, 2)
        manager.fail(children[0])
        manager.alt_sync(children[1], guard_ok=False)
        with pytest.raises(AltBlockFailure):
            manager.alt_wait(parent)
        assert parent.state == ProcessState.RUNNABLE
        assert parent.space.get("x") == "original"

    def test_timeout_raises_and_cleans_up(self, manager, parent):
        children = manager.alt_spawn(parent, 2)
        with pytest.raises(AltTimeout):
            manager.alt_wait(parent, timed_out=True)
        assert all(c.state == ProcessState.ELIMINATED for c in children)
        assert parent.state == ProcessState.RUNNABLE

    def test_wait_before_any_outcome_is_a_state_error(self, manager, parent):
        manager.alt_spawn(parent, 2)
        with pytest.raises(ProcessStateError):
            manager.alt_wait(parent)

    def test_wait_without_spawn_rejected(self, manager, parent):
        with pytest.raises(ProcessStateError):
            manager.alt_wait(parent)

    def test_loser_state_changes_are_invisible(self, manager, parent):
        children = manager.alt_spawn(parent, 2)
        children[1].space.put("x", "loser-wrote-this")
        children[0].space.put("x", "winner")
        manager.alt_sync(children[0])
        manager.alt_wait(parent)
        assert parent.space.get("x") == "winner"

    def test_sync_of_non_alternative_rejected(self, manager, parent):
        with pytest.raises(ProcessStateError):
            manager.alt_sync(parent)

    def test_double_sync_by_winner_rejected(self, manager, parent):
        children = manager.alt_spawn(parent, 2)
        manager.alt_sync(children[0])
        manager.alt_wait(parent)
        with pytest.raises(ProcessStateError):
            manager.alt_sync(children[0])


    def test_late_calls_on_a_reaped_group_are_state_errors(
        self, manager, parent
    ):
        children = manager.alt_spawn(parent, 2)
        manager.alt_sync(children[0])
        manager.alt_wait(parent)
        assert children[0].group_id not in manager.groups
        for child in children:
            with pytest.raises(ProcessStateError):
                manager.fail(child)
            with pytest.raises(ProcessStateError):
                manager.alt_sync(child)


class TestStatusNotifications:
    def test_listeners_hear_outcomes(self, manager, parent):
        events = []
        manager.on_status_change(lambda pid, ok: events.append((pid, ok)))
        children = manager.alt_spawn(parent, 3)
        manager.fail(children[2])
        manager.alt_sync(children[0])
        manager.alt_wait(parent)
        assert (children[2].pid, False) in events
        assert (children[0].pid, True) in events
        assert (children[1].pid, False) in events

    def test_sequential_reuse_of_parent(self, manager, parent):
        """The parent can run another alternative block afterwards."""
        children = manager.alt_spawn(parent, 2)
        manager.alt_sync(children[0])
        manager.alt_wait(parent)
        second = manager.alt_spawn(parent, 2)
        second[1].space.put("x", "round-2")
        manager.alt_sync(second[1])
        manager.alt_wait(parent)
        assert parent.space.get("x") == "round-2"


class TestMemoryHygiene:
    def test_no_frames_leak_after_block(self, manager):
        parent = manager.create_initial(space_size=2048)
        store = manager.store
        parent.space.put("x", 1)
        baseline = store.live_frames
        children = manager.alt_spawn(parent, 4)
        for child in children[1:]:
            child.space.put("x", child.pid)
        manager.alt_sync(children[0])
        manager.alt_wait(parent)
        # All loser frames must have been released.
        assert store.live_frames == baseline

    @pytest.mark.parametrize("mode", list(EliminationMode))
    def test_concluded_blocks_leave_nothing_behind(self, manager, mode):
        """A long-lived manager holds what is running, not what ever ran."""
        root = manager.create_initial(space_size=4096)
        processes, groups = len(manager.processes), len(manager.groups)
        frames = manager.store.live_frames
        for _ in range(500):
            parent = manager.register(
                SimProcess(pid=manager.allocate_pid(), space=root.space.fork())
            )
            children = manager.alt_spawn(parent, 3)
            manager.fail(children[2])
            manager.alt_sync(children[0])
            manager.alt_wait(parent, elimination=mode)
            group_id = children[0].group_id
            if mode is EliminationMode.ASYNCHRONOUS:
                assert group_id in manager.groups  # a loser still pending
                assert manager.drain_eliminations(group_id) == 1
            assert children[1].state == ProcessState.ELIMINATED
            assert manager.drain_eliminations(group_id) == 0  # reaped
            manager.exit(parent)
        assert len(manager.processes) == processes
        assert len(manager.groups) == groups
        assert manager.store.live_frames == frames

    def test_exit_releases_space(self, manager):
        process = manager.create_initial(space_size=1024)
        manager.exit(process)
        assert manager.store.live_frames == 0
        assert process.state == ProcessState.EXITED
