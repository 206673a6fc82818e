"""Mid-frame pipe truncation, at every byte offset of a framed record.

A child that dies partway through shipping its result leaves a dangling
partial frame on the pipe.  Wherever the cut lands -- inside the magic,
inside the length word, inside the CRC, at any byte of the pickled
payload -- the parent must (a) never parse a record out of the fragment,
(b) never deadlock waiting for the rest, and (c) promote the next
finisher to winner without double-committing anything.  The sweep below
is exhaustive: the wire layer is walked at literally every offset, and
the end-to-end races advance the injected cut one byte per race until
the frame finally arrives intact.
"""

import os

import pytest

from repro.core.alternative import Alternative
from repro.core.backends import ProcessBackend
from repro.core.backends import wire
from repro.core.concurrent import ConcurrentExecutor
from repro.process.pool import WorldPool
from repro.resilience import FaultInjector, injected

pytestmark = [
    pytest.mark.slow,
    pytest.mark.subprocess,
    pytest.mark.skipif(not hasattr(os, "fork"), reason="requires os.fork"),
]


def sample_record():
    return {
        "index": 0,
        "ok": True,
        "value": ["a", "payload", 42],
        "detail": "",
        "dirty_pages": {3: b"\x07" * 64},
    }


class TestWireLayerEveryOffset:
    def test_no_prefix_ever_parses_as_a_record(self):
        frame, exit_code = wire.frame_record(sample_record())
        assert exit_code == wire.EXIT_OK
        for offset in range(len(frame)):
            reader = wire.RecordReader()
            records = reader.feed(frame[:offset])
            assert records == [], f"offset {offset} yielded a record"
            # A dangling prefix is always *detectably* unfinished: either
            # bytes are pending or the reader already flagged corruption.
            assert reader.pending or reader.corrupt or offset == 0
            assert not (reader.pending and reader.corrupt)
        full = wire.RecordReader().feed(frame)
        assert full == [sample_record()]

    def test_every_split_reassembles_to_one_record(self):
        frame, _ = wire.frame_record(sample_record())
        for offset in range(len(frame) + 1):
            reader = wire.RecordReader()
            records = reader.feed(frame[:offset]) + reader.feed(frame[offset:])
            assert records == [sample_record()], f"split at {offset}"
            assert not reader.pending and not reader.corrupt

    def test_truncate_offset_parses_exact_cuts(self):
        assert wire.truncate_offset("offset=0") == 0
        assert wire.truncate_offset("offset=17") == 17
        assert wire.truncate_offset("offset=-3") == 0  # clamped
        assert wire.truncate_offset("offset=junk") is None
        assert wire.truncate_offset("") is None
        assert wire.truncate_offset("mid-frame") is None

    def test_write_record_truncates_at_the_exact_byte(self):
        frame, _ = wire.frame_record(sample_record())
        for offset in (0, 1, wire.FRAME.size - 1, wire.FRAME.size, 33,
                       len(frame) - 1, len(frame), len(frame) + 100):
            read_fd, write_fd = os.pipe()
            code = wire.write_record(
                write_fd, sample_record(), ship_fault=("truncate", offset)
            )
            os.close(write_fd)
            shipped = b""
            while True:
                chunk = os.read(read_fd, 65536)
                if not chunk:
                    break
                shipped += chunk
            os.close(read_fd)
            assert code == wire.EXIT_TRUNCATED
            assert shipped == frame[:min(offset, len(frame))]


class _Body:
    """Picklable arm body: sleep, write one variable, return a value."""

    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __call__(self, ctx):
        ctx.sleep(self.seconds)
        ctx.put("who", self.name)
        return self.name


def race_with_cut(offset, fault_seed, pool=None):
    """One 2-arm race with the fast arm's frame cut after ``offset`` bytes."""
    executor = ConcurrentExecutor(
        backend=ProcessBackend(kill_grace=0.3, pool=pool)
    )
    parent = executor.new_parent()
    injector = (
        FaultInjector(seed=fault_seed)
        .pipe_truncate(arms=[0], times=None, detail=f"offset={offset}")
    )
    arms = [
        Alternative("trunc", body=_Body("trunc", 0.0)),
        Alternative("good", body=_Body("good", 0.05)),
    ]
    with injected(injector):
        result = executor.run(arms, parent=parent)
    return result, parent


class TestEndToEndEveryOffset:
    # Well past any realistic frame length for this record; the sweep
    # stops the first time the cut lands beyond the frame, so hitting
    # the cap means truncation never stopped biting -- a real failure.
    OFFSET_CAP = 4096

    def test_next_finisher_promoted_at_every_cut_point(self, fault_seed):
        """Walk the cut forward one byte per race until the frame survives.

        The truncated arm finishes first; as long as its frame is cut
        short the slower intact arm must be promoted to winner and its
        writes (only) committed.  The first offset past the frame's end
        delivers the fast record intact, the fast arm wins, and the
        sweep has, by construction, cut at every byte of the frame.
        """
        from repro.process.pool import fork_pool

        offset = 0
        while offset < self.OFFSET_CAP:
            result, parent = race_with_cut(offset, fault_seed)
            if result.winner.name == "trunc":
                break  # the whole frame arrived: every prior byte was cut
            assert result.winner.name == "good", f"offset {offset}"
            assert result.value == "good", f"offset {offset}"
            # Exactly one commit: the promoted winner's write and nothing
            # of the truncated arm's world.
            assert parent.space.get("who") == "good", f"offset {offset}"
            parent.space.release()
            offset += 1
        else:
            pytest.fail("truncation still bit at the offset cap")
        assert offset >= wire.FRAME.size  # cuts covered the whole header
        assert parent.space.get("who") == "trunc"
        parent.space.release()
        census = fork_pool()
        assert census.inflight == 0
        assert not any(w.one_shot for w in census._ledger.workers.values())
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_pooled_worker_truncation_promotes_next_finisher(self, fault_seed):
        """The same cut discipline when the arm rode a pooled worker."""
        pool = WorldPool(size=2)
        try:
            result, parent = race_with_cut(
                wire.FRAME.size + 5, fault_seed, pool=pool
            )
            assert result.winner.name == "good"
            assert parent.space.get("who") == "good"
            parent.space.release()
            # The worker whose stream dangled was recycled, not re-parked.
            assert pool.respawns >= 1
            assert pool.parked == pool.size
        finally:
            pool.shutdown()
