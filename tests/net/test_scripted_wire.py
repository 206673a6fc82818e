"""A scripted transport: the home-node ladder under every event script.

A remote race is a function of the events its transport hands to
``_Race`` (``hb`` / ``result`` / ``drop`` from ``next_event``, a lapse
when ``next_event`` returns nothing before a lease's deadline, and a
``ship`` that may fail once it has admitted the incarnation).  The
:class:`ScriptedWire` here makes each of those a choice point, and
:func:`explore` re-runs the race once per sequence of choices -- a
stateless depth-first search -- so every interleaving up to ``BOUND``
events per race is raced on 2 arms x 2 nodes, for ``max_respawns`` in
{0, 1}, with and without ``degrade_to_serial``.

An event script is, per step, one of:

- ``hb X#e``: a heartbeat of arm ``X``'s epoch ``e``;
- ``ok X#e`` / ``fail X#e``: its result, the verdict ok or failed;
- ``drop X#e``: its connection dies;
- ``lapse``: silence until the earliest live deadline;
- ``zombie X#e``: a lapsed incarnation's late, successful result;

and at each ship, ``ship`` or ``ship-fails`` (after ``admit``).  Once
``BOUND`` events are spent, only lapses remain, so every script ends.

Every terminal is checked against five invariants (:func:`violations`)
and folded into one digest (``DIGEST``) of the winner, the value, each
outcome's status and detail, each incarnation's ``(arm, epoch, state)``,
the timeline and the raised error type, so a change to the ladder that
moves any terminal shows here.  Each invariant has an adequacy mutant,
and each mutant is caught.
"""

import hashlib
import json

import pytest

from repro.core.alternative import Alternative
from repro.core.result import OverheadBreakdown
from repro.errors import AltBlockFailure
from repro.net.distributed import HomeLadder, _Race
from repro.net.lease import RaceWarden
from repro.obs import events as _ev
from repro.obs.tracer import tracing
from repro.pages.store import PageStore
from repro.process.primitives import ProcessManager

#: Events per race before only lapses remain.
BOUND = 4

#: One step of the script's clock; leases last three of them.
TICK = 1.0
TERMS = dict(lease_interval=1.0, lease_timeout=3.0)

#: The race's own timeout, never reached by a script within the bound.
RACE_TIMEOUT = 1000.0


def _refuse(ctx):
    ctx.fail("a refuses at home")


def _answer(ctx):
    ctx.put("result", "b-serial")
    return "b-serial"


def block():
    """Arm ``a`` fails a serial replay and ``b`` answers it, so a
    degrade has one outcome of each."""
    return [Alternative("a", _refuse), Alternative("b", _answer)]


class Chooser:
    """Answers every choice point from ``prefix`` (indices), then with
    the first option; ``trail`` records what was chosen among how many."""

    def __init__(self, prefix=()):
        self.prefix = list(prefix)
        self.trail = []

    def choose(self, labels):
        step = len(self.trail)
        pick = self.prefix[step] if step < len(self.prefix) else 0
        self.trail.append((pick, len(labels)))
        return pick


class ByLabel:
    """Answers every choice point by label, from a fixed script whose
    labels leave the epoch out (``ok a`` picks ``ok a#3``)."""

    def __init__(self, script):
        self.script = list(script)
        self.trail = []

    def choose(self, labels):
        label = self.script.pop(0)
        self.trail.append(label)
        return [option.split("#")[0] for option in labels].index(label)


def _tag(assignment):
    return f"{assignment.arm.name}#{assignment.epoch}"


class ScriptedWire:
    """The transport ``_Race`` climbs, with every event a choice."""

    page_transport = None
    deadline = RACE_TIMEOUT
    sync_latency = 0.25

    def __init__(self, chooser, nodes):
        self.chooser = chooser
        self.nodes = nodes
        self.clock = 0.0
        self.events = 0
        self.running = []
        """Shipped incarnations that may still send: ``[assignment,
        lapsed]`` pairs until a result or a drop is sent."""
        self.commits = []
        """``(assignment, its state, its arm's latest epoch, the epoch
        its result echoed)`` at each ``bring_home``: the moment an
        incarnation commits."""
        self.zombies = []

    def now(self):
        return self.clock

    def rotation(self):
        return list(self.nodes)

    def healthy(self, node):
        return True

    def ship(self, assignment, admit):
        assignment.started = self.clock
        assignment.who = f"{assignment.arm.name}@{assignment.name}"
        admit(assignment)
        if self.chooser.choose(["ship", "ship-fails"]):
            return False, "ship-send-failed"
        self.running.append([assignment, False])
        return True, (f"ship {assignment.arm.name} onto {assignment.name} "
                      f"(epoch {assignment.epoch})")

    def next_event(self, until):
        options = []
        if until < self.deadline:
            options.append(("lapse", None, None))
        if self.events < BOUND and self.clock + TICK <= until:
            for entry in self.running:
                assignment, lapsed = entry
                tag = _tag(assignment)
                if lapsed:
                    options.append((f"zombie {tag}", entry, "ok"))
                    continue
                for kind in ("hb", "ok", "fail", "drop"):
                    options.append((f"{kind} {tag}", entry, kind))
        if not options:
            self.clock = until
            return None
        label, entry, kind = options[
            self.chooser.choose([label for label, _, _ in options])
        ]
        if entry is None:
            self.clock = until
            return None
        self.events += 1
        self.clock += TICK
        assignment = entry[0]
        if kind == "hb":
            return "hb", assignment, {"epoch": assignment.epoch}
        self.running = [e for e in self.running if e is not entry]
        if kind == "drop":
            return "drop", assignment, ConnectionError("scripted drop")
        if label.startswith("zombie"):
            self.zombies.append(assignment)
        return "result", assignment, {
            "ok": kind == "ok",
            "value": f"{assignment.arm.name}-remote",
            "detail": "" if kind == "ok" else f"{assignment.arm.name} fails",
            "epoch": assignment.epoch,
            "duration": TICK,
            "pages_written": 0,
            "dirty_pages": {},
        }

    def heard(self, assignment):
        pass

    def blame(self, node, detail):
        pass

    def lapsed(self, assignment):
        for entry in self.running:
            if entry[0] is assignment:
                entry[1] = True

    def vote(self, assignment):
        raise AssertionError("the scripted ladder never votes")

    def bring_home(self, assignment, msg):
        latest = max(
            epoch for arm, epoch, _ in book(self.ladder)
            if arm == assignment.index
        )
        self.commits.append((assignment, assignment.state, latest,
                             msg.get("epoch")))
        return 0.0

    def kill_at(self, resume_at, slot):
        return resume_at + slot * TICK

    def end(self, assignment, cancel):
        pass

    def overhead(self, winner, at, resume_at, ship_home):
        return OverheadBreakdown(setup=0.0, runtime=0.0, selection=0.0)


class ScriptedLadder(HomeLadder):
    backend = "scripted"
    use_consensus = False
    seed = 0

    def __init__(self, chooser, warden, nodes=("n0", "n1")):
        super().__init__()
        self.chooser = chooser
        self.warden = warden
        self.nodes = nodes
        self.manager = ProcessManager(PageStore())
        self.wire = None

    def _transport(self, parent, block):
        self.wire = ScriptedWire(self.chooser, self.nodes)
        self.wire.ladder = self
        return self.wire


# -- reading the ladder's book ---------------------------------------------

def book(ladder):
    """``(arm, epoch, state)`` of every incarnation of the last race."""
    return [(lease.index, lease.epoch, lease.state) for lease in ladder.leases]


# -- one race ----------------------------------------------------------------

def race(chooser, max_respawns, degrade, nodes=("n0", "n1")):
    """Race the block once under ``chooser``; the terminal's record and
    the ladder that ran it."""
    warden = RaceWarden(max_respawns=max_respawns,
                        degrade_to_serial=degrade, **TERMS)
    ladder = ScriptedLadder(chooser, warden, nodes)
    parent = ladder.new_parent(space_size=8192)
    record = {"winner": None, "value": None, "error": None}
    try:
        result = ladder._race(block(), parent)
    except AltBlockFailure as exc:
        record["error"] = type(exc).__name__
        outcomes, timeline = exc.outcomes, exc.timeline
    else:
        record["winner"] = result.winner.index
        record["value"] = result.value
        outcomes, timeline = result.outcomes, result.timeline
    record["outcomes"] = [(o.status, o.detail) for o in outcomes]
    record["incarnations"] = book(ladder)
    record["timeline"] = [[at, label] for at, label in timeline]
    parent.space.release()
    return record, ladder


def violations(record, ladder):
    """The invariants one terminal must keep; what it broke."""
    broken = []
    incarnations = record["incarnations"]
    wire = ladder.wire
    committed = [inc for inc in incarnations if inc[2] == "committed"]
    if len(committed) > 1 or len(wire.commits) > 1:
        broken.append("more than one commit")
    for assignment, state, latest, echoed in wire.commits:
        if (state != "active" or assignment.epoch != latest
                or echoed != assignment.epoch
                or any(z is assignment for z in wire.zombies)):
            broken.append("a fenced or expired incarnation committed")
    if any(state == "active" for _, _, state in incarnations):
        broken.append("an incarnation is left active")
    if wire.commits:
        winner = wire.commits[0][0]
        latest = max(e for arm, e, _ in incarnations if arm == winner.index)
        if committed != [(winner.index, latest, "committed")]:
            broken.append("the winner's latest epoch is not the commit")
    elif committed:
        broken.append("the winner's latest epoch is not the commit")
    for arm in {arm for arm, _, _ in incarnations}:
        epochs = [e for a, e, _ in incarnations if a == arm]
        if epochs != sorted(set(epochs)):
            broken.append("epochs are not monotone per arm")
    return broken


CONFIGS = [
    (max_respawns, degrade)
    for max_respawns in (0, 1)
    for degrade in (False, True)
]


def explore(max_respawns, degrade, stop_at=None):
    """Every script up to ``BOUND``: the terminals' records in DFS order
    and the violations found -- up to the first of ``stop_at``."""
    records, broken = [], []
    prefix = []
    while prefix is not None:
        chooser = Chooser(prefix)
        record, ladder = race(chooser, max_respawns, degrade)
        records.append(record)
        found = violations(record, ladder)
        if found:
            broken.append((list(prefix), found))
            if stop_at in found:
                break
        prefix = None
        trail = chooser.trail
        while trail:
            pick, options = trail.pop()
            if pick + 1 < options:
                prefix = [p for p, _ in trail] + [pick + 1]
                break
    return records, broken


def digest(records):
    return hashlib.sha256(
        json.dumps(records, sort_keys=True).encode()
    ).hexdigest()


#: ``(terminals, sha256)`` per ``(max_respawns, degrade_to_serial)``.
DIGEST = {
    (0, False): (1208, "51107a21ae9df880722d9af06bb9e054"
                       "9abb394493a919cff319c56dc5c55aa7"),
    (0, True): (1208, "5c5bd2ae741262e411c8bd0fa79e61fe"
                      "935130037be72782d614545c9c5fc6e0"),
    (1, False): (8013, "44370a7b1d6a0607347c0d67414e0378"
                       "90922cc3319586cae0248813d4e7eeb7"),
    (1, True): (8013, "38efed5521edca96482b6515073afe92"
                      "81234e062b1533a1781ab0020ef048b3"),
}


@pytest.mark.parametrize("max_respawns,degrade", CONFIGS)
def test_every_script_keeps_the_invariants_and_the_digest(
        max_respawns, degrade):
    records, broken = explore(max_respawns, degrade)
    assert broken == []
    assert (len(records), digest(records)) == DIGEST[max_respawns, degrade]


# -- adequacy: one mutant per invariant ----------------------------------------

def _settle_commits_every_active(race, at, winner=None):
    for assignment in race.granted:
        if assignment.state == "active":
            assignment.settle("committed", at)


def _settle_skips_the_last(race, at, winner=None):
    for assignment in race.granted[:-1]:
        if assignment.state == "active":
            assignment.settle(
                "committed" if assignment is winner else "eliminated", at
            )


def _settle_forgets_the_winner(race, at, winner=None):
    for assignment in race.granted:
        if assignment.state == "active":
            assignment.settle("eliminated", at)


def _no_epoch_fence(ladder, assignment, msg):
    return (True, "") if msg.get("ok") else (False, "arm-failed")


class _Forgetful(dict):
    """An epoch counter that never records a grant."""

    def __setitem__(self, key, value):
        pass


_ladder_init = HomeLadder.__init__


def _epochs_never_advance(ladder):
    _ladder_init(ladder)
    ladder._epochs = _Forgetful()


MUTANTS = {
    "more than one commit": (_Race, "_settle", _settle_commits_every_active),
    "a fenced or expired incarnation committed": (
        HomeLadder, "_commit_check", _no_epoch_fence
    ),
    "an incarnation is left active": (
        _Race, "_settle", _settle_skips_the_last
    ),
    "the winner's latest epoch is not the commit": (
        _Race, "_settle", _settle_forgets_the_winner
    ),
    "epochs are not monotone per arm": (
        HomeLadder, "__init__", _epochs_never_advance
    ),
}


@pytest.mark.parametrize("invariant", sorted(MUTANTS))
def test_each_invariant_catches_its_mutant(invariant, monkeypatch):
    owner, name, mutant = MUTANTS[invariant]
    monkeypatch.setattr(owner, name, mutant)
    caught = set()
    for max_respawns, degrade in CONFIGS:
        _, broken = explore(max_respawns, degrade, stop_at=invariant)
        caught.update(found for _, violated in broken for found in violated)
        if invariant in caught:
            break
    assert invariant in caught


# -- the respawn event names the incarnation that ran ---------------------------

def test_a_respawn_past_a_failed_ship_names_the_epoch_that_ran():
    """Arm ``a`` lapses; its respawn is admitted on ``n1`` (epoch 2),
    whose ship fails, then runs on ``n2`` (epoch 3) and wins."""
    script = ["ship", "ship", "hb b", "lapse", "ship-fails", "ship", "ok a"]
    with tracing() as tracer:
        record, ladder = race(ByLabel(script), max_respawns=1, degrade=False,
                              nodes=("n0", "n1", "n2"))
    assert record["value"] == "a-remote"
    assert record["incarnations"] == [
        (0, 1, "expired"), (1, 1, "eliminated"),
        (0, 2, "expired"), (0, 3, "committed"),
    ]
    (respawn,) = [e for e in tracer.events if e.kind == _ev.WORKER_RESPAWN]
    assert respawn.attrs["dead_epoch"] == 1
    assert respawn.attrs["epoch"] == 3
