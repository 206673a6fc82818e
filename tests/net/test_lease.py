"""The lease table forgets a settled race.

A long-lived executor races thousands of blocks on one table; the table
used to keep every lease it had ever granted and walk all of them twice
per block (``settle`` plus ``all_settled``), so the executor got slower
and larger with age.
"""

from repro.net.lease import Lease, LeaseTable

ARMS = 3
RACES = 2000


def race(table, at, lapse_arm=None):
    """One race: a grant per arm, optionally a lapse and a respawn."""
    for arm in range(ARMS):
        table.grant(f"w{arm}", arm, at=at, interval=0.02, timeout=0.08)
    if lapse_arm is not None:
        table.leases[lapse_arm].expire(at + 0.1)
        table.grant("spare", lapse_arm, at=at + 0.1, interval=0.02,
                    timeout=0.08)
    table.settle(at=at + 0.2, winner_arm=0)


class TestSettledRaceIsForgotten:
    def test_table_holds_the_last_race_only(self):
        table = LeaseTable()
        for n in range(RACES):
            race(table, at=float(n), lapse_arm=1 if n % 7 == 0 else None)
            assert table.all_settled
        race(table, at=float(RACES))
        assert len(table.leases) == ARMS
        assert [lease.state for lease in table.leases] == [
            "committed", "eliminated", "eliminated"
        ]

    def test_settle_touches_only_the_current_race(self, monkeypatch):
        table = LeaseTable()
        for n in range(RACES):
            race(table, at=float(n))
        touched = []
        terminal = Lease.terminal.fget
        monkeypatch.setattr(
            Lease, "terminal",
            property(lambda lease: touched.append(lease) or terminal(lease)),
        )
        for arm in range(ARMS):
            table.grant(f"w{arm}", arm, at=0.0, interval=0.02, timeout=0.08)
        current = list(table.leases)
        table.settle(at=1.0, winner_arm=2)
        assert table.all_settled
        assert {id(lease) for lease in touched} == {
            id(lease) for lease in current
        }

    def test_epochs_stay_monotone_per_arm_across_races(self):
        table = LeaseTable()
        seen = {arm: [] for arm in range(ARMS)}
        for n in range(50):
            race(table, at=float(n), lapse_arm=2 if n % 5 == 0 else None)
            for lease in table.leases:
                seen[lease.arm].append(lease.epoch)
        for arm, epochs in seen.items():
            assert epochs == sorted(set(epochs)), arm
            assert table.current_epoch(arm) == epochs[-1]

    def test_a_settled_race_stays_readable_until_the_next_grant(self):
        table = LeaseTable()
        race(table, at=0.0, lapse_arm=1)
        kept = table.leases
        assert [lease.epoch for lease in kept if lease.arm == 1] == [1, 2]
        table.grant("w0", 0, at=5.0, interval=0.02, timeout=0.08)
        assert len(table.leases) == 1
        assert len(kept) == ARMS + 1  # whoever held the old list keeps it
