"""The dispatcher's wake-up contract, on a live server.

``RaceServer._dispatch_loop`` sleeps on ``_wakeup`` until the free arm
budget covers the lightest queued head, so it relies on every transition
that can make that true -- ``submit``, a worker finishing, ``cancel``,
drain/shutdown -- notifying the condition, and guarantees in return that
it never calls ``take`` while nothing changed.  The pure half of the
contract (``take(b)`` non-empty iff ``b >= lightest_head()``) is in
``test_admission_statemachine.py``; this file holds the threaded half.
"""

import sys
import time
from collections import defaultdict

from repro.core.alternative import Alternative
from repro.server import RaceServer, ServerConfig
from repro.server.server import Ticket


def _sleeper(name, seconds, started=None):
    def body(ctx):
        if started is not None:
            started.append(time.monotonic())
        ctx.sleep(seconds)
        return name

    return Alternative(name, body=body)


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.001)


class TestCancelWakesTheDispatcher:
    def test_block_behind_a_cancelled_head_starts_at_once(self):
        """Budget 2, one tenant's queue holds a 4-arm block in front of
        a 1-arm block: the lightest head is 4 and the dispatcher sleeps.
        Cancelling the 4-arm ticket must wake it -- the 1-arm block fits
        -- rather than leave that to the 0.1 s lost-wakeup backstop."""
        server = RaceServer(ServerConfig(
            backend="thread", workers=2, max_inflight_arms=4,
        ))
        try:
            running = server.submit(
                "busy", [_sleeper(f"hold-{i}", 1.0) for i in range(2)]
            )
            _wait_for(lambda: running.status == "running")
            wide = server.submit(
                "queued", [_sleeper(f"wide-{i}", 0.0) for i in range(4)]
            )
            started = []
            narrow = server.submit(
                "queued", [_sleeper("narrow", 0.0, started)]
            )
            # Cancel right after a backstop wake-up, so the next one is
            # a full 0.1 s away and cannot stand in for the notify.
            seen = server.stats()["dispatch_wakeups"]
            _wait_for(lambda: server.stats()["dispatch_wakeups"] > seen)
            assert wide.status == "queued" and narrow.status == "queued"
            assert server.cancel(wide) is True
            cancelled_at = time.monotonic()
            assert narrow.result(timeout=5.0) == "narrow"
            assert started[0] - cancelled_at < 0.05, (
                f"1-arm block started {started[0] - cancelled_at:.3f}s "
                f"after cancel: the dispatcher slept through it"
            )
            assert not running.done
        finally:
            server.shutdown()


class TestSaturation:
    def test_no_take_in_vain_under_deep_queues(self, monkeypatch):
        """64 blocks of width 2-4 against 2 workers and 8 arms of budget:
        the queues stay deep and the budget stays short, which is where
        the old loop spun.  At most 3 ``take`` calls per block, none of
        them empty, every ticket resolved exactly once, per-tenant FIFO
        preserved."""
        blocks = 64
        tenants = ("t0", "t1", "t2", "t3")
        finishes = defaultdict(int)
        real_finish = Ticket._finish

        def counting_finish(ticket):
            finishes[ticket.seq] += 1
            real_finish(ticket)

        monkeypatch.setattr(Ticket, "_finish", counting_finish)
        server = RaceServer(ServerConfig(
            backend="thread", workers=2, max_inflight_arms=8,
        ))
        takes = []
        real_take = server._drr.take

        def counting_take(budget, on_quantum=None):
            batch = real_take(budget, on_quantum=on_quantum)
            takes.append([(item.tenant, item.seq) for item in batch])
            return batch

        server._drr.take = counting_take
        submitted = defaultdict(list)
        tickets = []
        # Switch threads far more often than the default 5 ms, so that
        # submitters, workers and the dispatcher really interleave.
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for index in range(blocks):
                tenant = tenants[index % len(tenants)]
                width = 2 + index % 3
                ticket = server.submit(tenant, [
                    _sleeper(f"b{index}-a{arm}", 0.002 * (arm + 1))
                    for arm in range(width)
                ])
                submitted[tenant].append(ticket.seq)
                tickets.append(ticket)
            for ticket in tickets:
                assert ticket.wait(timeout=60.0)
            stats = server.stats()
        finally:
            sys.setswitchinterval(switch_interval)
            server.shutdown()

        assert all(ticket.status == "done" for ticket in tickets)
        assert all(ticket.error is None for ticket in tickets)
        assert {seq: n for seq, n in finishes.items() if n != 1} == {}
        assert len(finishes) == blocks
        assert len(takes) <= 3 * blocks, (
            f"{len(takes)} take calls for {blocks} blocks"
        )
        assert [batch for batch in takes if not batch] == []
        assert stats["empty_takes"] == 0
        assert stats["dispatch_wakeups"] >= 1
        served = defaultdict(list)
        for batch in takes:
            for tenant, seq in batch:
                served[tenant].append(seq)
        assert served == submitted

