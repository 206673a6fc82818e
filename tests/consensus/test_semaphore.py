"""Tests for the single-node at-most-once semaphore."""

from repro.consensus.semaphore import SyncSemaphore


class TestSyncSemaphore:
    def test_first_acquire_wins(self):
        semaphore = SyncSemaphore()
        assert semaphore.try_acquire("block", "child-1") is True
        assert semaphore.winner("block") == "child-1"

    def test_second_acquire_is_too_late(self):
        semaphore = SyncSemaphore()
        semaphore.try_acquire("block", "child-1")
        assert semaphore.try_acquire("block", "child-2") is False
        assert semaphore.winner("block") == "child-1"

    def test_winner_retry_also_refused(self):
        """At most once, full stop: even the winner cannot re-sync."""
        semaphore = SyncSemaphore()
        semaphore.try_acquire("block", "child-1")
        assert semaphore.try_acquire("block", "child-1") is False

    def test_undecided_initially(self):
        semaphore = SyncSemaphore()
        assert semaphore.winner("block") is None

    def test_attempt_counter(self):
        semaphore = SyncSemaphore()
        semaphore.try_acquire("block", "a")
        semaphore.try_acquire("block", "b")
        semaphore.try_acquire("block", "c")
        assert semaphore.attempts == 3

    def test_each_decision_is_acquired_once(self):
        semaphore = SyncSemaphore()
        assert semaphore.try_acquire("first", "a") is True
        assert semaphore.try_acquire("second", "b") is True
        assert semaphore.try_acquire("first", "b") is False
        assert semaphore.winner("first") == "a"
        assert semaphore.winner("second") == "b"
