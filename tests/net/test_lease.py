"""The ladder forgets a settled race.

A long-lived executor races thousands of blocks on one ladder; a book
of every lease it ever granted, walked twice per block (settle plus
``all_settled``), would make the executor slower and larger with age.
Each race keeps and settles only the incarnations it granted; the
ladder keeps each arm's epoch counter and the last race's book.
"""

from repro.net.distributed import _Race
from repro.net.lease import RaceWarden
from tests.net.test_scripted_wire import TERMS, ByLabel, ScriptedLadder, block

ARMS = 2
RACES = 2000

CLEAN = ["ship", "ship", "ok a"]
LAPSE = ["ship", "ship", "hb a", "lapse", "ship", "ok a"]
"""Arm ``b``'s first incarnation lapses and is respawned; ``a`` wins."""


def make_ladder():
    ladder = ScriptedLadder(None, RaceWarden(max_respawns=1, **TERMS))
    return ladder, ladder.new_parent(space_size=8192)


def race(ladder, parent, script):
    ladder.chooser = ByLabel(script)
    assert ladder._race(block(), parent).value == "a-remote"


class TestSettledRaceIsForgotten:
    def test_table_holds_the_last_race_only(self):
        """The ladder's table of incarnations is the last race's."""
        ladder, parent = make_ladder()
        for n in range(RACES):
            race(ladder, parent, LAPSE if n % 7 == 0 else CLEAN)
            assert ladder.all_settled
        race(ladder, parent, CLEAN)
        assert len(ladder.leases) == ARMS
        assert [lease.state for lease in ladder.leases] == [
            "committed", "eliminated"
        ]

    def test_settle_touches_only_the_current_race(self, monkeypatch):
        ladder, parent = make_ladder()
        for n in range(RACES):
            race(ladder, parent, CLEAN)
        touched = []
        settle = _Race._settle

        def spy(self, at, winner=None):
            touched.extend(self.granted)
            settle(self, at, winner)

        monkeypatch.setattr(_Race, "_settle", spy)
        race(ladder, parent, CLEAN)
        assert ladder.all_settled
        assert [id(lease) for lease in touched] == [
            id(lease) for lease in ladder.leases
        ]
        assert len(touched) == ARMS

    def test_epochs_stay_monotone_per_arm_across_races(self):
        ladder, parent = make_ladder()
        seen = {arm: [] for arm in range(ARMS)}
        for n in range(50):
            race(ladder, parent, LAPSE if n % 5 == 0 else CLEAN)
            for lease in ladder.leases:
                seen[lease.index].append(lease.epoch)
        for arm, epochs in seen.items():
            assert epochs == sorted(set(epochs)), arm
            assert ladder._epochs[arm] == epochs[-1]

    def test_epochs_survive_a_new_warden(self):
        ladder, parent = make_ladder()
        race(ladder, parent, LAPSE)
        ladder.warden = RaceWarden(max_respawns=1, **TERMS)
        race(ladder, parent, CLEAN)
        assert [(l.index, l.epoch) for l in ladder.leases] == [(0, 2), (1, 3)]

    def test_a_settled_race_stays_readable_until_the_next_grant(self):
        ladder, parent = make_ladder()
        race(ladder, parent, LAPSE)
        kept = ladder.leases
        assert [lease.epoch for lease in kept if lease.index == 1] == [1, 2]
        ladder.nodes = ()  # a race that grants nothing: no node to run on
        ladder.chooser = ByLabel([])
        degraded = ladder._race(block(), parent)
        assert degraded.value == "b-serial"
        assert ladder.leases == kept
        ladder.nodes = ("n0", "n1")
        race(ladder, parent, CLEAN)
        assert len(ladder.leases) == ARMS
        assert len(kept) == ARMS + 1  # whoever held the old book keeps it
