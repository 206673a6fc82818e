"""Every reachable state of the world pool's lease ledger, checked.

The pool's bookkeeping is a pure transition system
(:class:`repro.process.ledger.LeaseLedger`), so instead of sampling
interleavings with real processes this file enumerates all of them --
two workers, three lease epochs, arenas of two slots with one rotation
-- the way a Petri net's reachable markings are enumerated and mutual
exclusion asserted on each.  From every state it tries every event the
pool's shell can drive (grant, a one-shot's birth, lend, publish,
cancel, detach, settle clean / dirty / gone, reclaim, the drainer's
take, hearing, silence past the deadline and release, an heir's or a
one-shot's birth or failed fork, close, shutdown) and every event of the
world around the pool (a race dropping its slab handle, a winner's world
adopting the slab, a world exiting).  Each invariant of the ledger is
asserted on every state and on every action the ledger asks for; then
one mutant per invariant -- plus the window where a lease found nobody
parked while a worker was on its way back and forked, a one-shot given
an heir, and a one-shot parked and leased again -- shows the
enumeration notices it broken.

Pure: no process, no pipe, no clock.  Not ``slow``.
"""

import time
from collections import deque
from typing import NamedTuple

import pytest

from repro.process.ledger import (
    CLEAN, DIRTY, DRAINING, GONE, LEASED, PARKED, PARTIAL, SILENT,
    LeaseLedger,
)

WORKERS = 2
EPOCHS = 3
ARENAS = 2  # the first arena and one rotation
CAPACITY = 2  # slots per arena: the third fresh page forces the rotation
GEOMETRY = (1, 4096)  # (slots, slot size) every lease wants
SPARES = 1  # so that two slabs set aside overflow it


class Proc(NamedTuple):
    slot: int


class Slab(NamedTuple):
    name: str
    slots: int
    slot_size: int


class Handle(NamedTuple):
    slab: str
    epoch: int


class Arena(NamedTuple):
    name: str


INVARIANTS = (
    "no double lease",
    "one settle per epoch",
    "slots write-once",
    "arena disposed once, retired and unpinned",
    "slab lent only when the pool is its sole referent",
    "detached lease untouched until settled",
    "at most one drainer",
    "fork only when every worker is the race's",
)
SOLE = INVARIANTS[4]


class Probe(LeaseLedger):
    """The ledger, counting each epoch's settles that found its lease."""

    def __init__(self):
        super().__init__(WORKERS, SPARES)
        self.settled = {}

    def settle(self, epoch, outcome, detached=False):
        held = self.holder(epoch, DRAINING if detached else LEASED)
        actions = super().settle(epoch, outcome, detached)
        if held is not None:
            self.settled[epoch] = self.settled.get(epoch, 0) + 1
        return actions


class World:
    """Everything around the ledger the enumeration tracks: who holds
    which handle, which claims were dropped, which slots were written,
    whose heir is due, who is the drainer -- and what went wrong."""

    def __init__(self):
        self.race = {}  # epoch -> the handle the race holds
        self.pool = set()  # handles left to the pool with their lease
        self.worlds = ()  # slab names a winner's world adopted frames of
        self.disposed = set()  # slab and arena names whose claim went
        self.written = set()  # slots of the live arena handed out
        self.due = set()  # slots whose heir is being forked
        self.drainers = 0
        self.slabs = self.arenas = 0
        self.shut = False
        self.broken = set()

    def key(self):
        return (
            tuple(sorted(self.race.items())), frozenset(self.pool),
            tuple(sorted(self.worlds)), frozenset(self.disposed),
            frozenset(self.written),
            frozenset(self.due), self.drainers, self.slabs, self.arenas,
            self.shut, frozenset(self.broken),
        )

    def refs(self, ledger):
        """What a slab's reference count would read: the pool's claim,
        every live handle, every world that adopted through one."""
        handles = list(self.race.values()) + list(self.pool)
        return {
            slab: 1 + sum(h.slab == slab.name for h in handles)
            + self.worlds.count(slab.name)
            for slab in ledger.slabs()
        }


def _copy(thing):
    twin = object.__new__(type(thing))
    twin.__dict__.update(thing.__dict__)
    return twin


def clone(ledger, world):
    """A state's twin to move on from; the tokens are immutable."""
    twin, other = _copy(ledger), _copy(world)
    twin.workers = {slot: _copy(w) for slot, w in ledger.workers.items()}
    twin.spares, twin.settled = list(ledger.spares), dict(ledger.settled)
    other.race, other.pool = dict(world.race), set(world.pool)
    other.disposed, other.written = set(world.disposed), set(world.written)
    other.due, other.broken = set(world.due), set(world.broken)
    return twin, other


def key(ledger, world):
    return (
        tuple(
            (slot, w.state, w.proc, w.slab, w.epoch, w.deadline, w.arena,
             w.handle)
            for slot, w in sorted(ledger.workers.items())
        ),
        ledger.epoch, ledger.arena, ledger.cursor, tuple(ledger.spares),
        ledger.drainer, ledger.closed, tuple(sorted(ledger.settled.items())),
        world.key(),
    )


def perform(ledger, world, actions):
    """Carry out the ledger's actions as the shell would, checking each."""
    for action in actions or ():
        verb, args = action[0], action[1:]
        if verb == "respawn":
            if args[0] not in range(WORKERS):  # a one-shot's heir
                world.broken.add("fork only when every worker is the race's")
            world.due.add(args[0])
        elif verb == "bell":
            proc, slot, epoch = args
            worker = ledger.epochs(LEASED).get(epoch)
            if worker is None or (worker.proc, worker.slot) != (
                proc, worker.slot if slot is not None else -epoch
            ) or (slot is None) != worker.one_shot:
                world.broken.add("no double lease")
        elif verb == "dispose":
            thing = args[0]
            if isinstance(thing, Handle):
                if thing not in world.pool:
                    world.broken.add("detached lease untouched until settled")
                world.pool.discard(thing)
            elif thing.name in world.disposed:
                world.broken.add(
                    "arena disposed once, retired and unpinned"
                    if isinstance(thing, Arena)
                    else SOLE
                )
            else:
                world.disposed.add(thing.name)
                if isinstance(thing, Arena) and not world.shut and (
                    thing == ledger.arena
                    or any(w.arena == thing for w in ledger.workers.values())
                ):
                    world.broken.add(
                        "arena disposed once, retired and unpinned"
                    )


def new_arena(ledger, world):
    world.arenas += 1
    perform(ledger, world, ledger.rotate(Arena(f"a{world.arenas}"), CAPACITY))


# -- moves: what may happen next ------------------------------------------


def lease(transport, parked=True):
    """``WorldPool.lease``: a grant -- or, with nobody parked and nobody
    on the way back, or for an arm no parked worker may take, a one-shot
    born leased; then, on shared memory, a lent slab and, for a parked
    worker, the world published -- ``"fresh"`` needs a new slot (a
    rotation when the arena is full), ``"shown"`` only pins the arena
    that holds its page already."""
    def apply(ledger, world):
        refs = world.refs(ledger)
        epoch = None
        if parked:
            epoch = ledger.grant(0.0, GEOMETRY, refs.__getitem__)
            if epoch is None and ledger.settling() and not ledger.closed:
                return  # somebody is on the way back: the lease waits
        if epoch is None:
            epoch = ledger.one_shot(0.0)
            world.due.add(-epoch)  # its process is forked next
        if transport == "pipe":
            return
        slab, actions = ledger.lend(epoch, GEOMETRY, refs.__getitem__)
        perform(ledger, world, actions)
        if slab is None:
            world.slabs += 1
            slab = Slab(f"s{world.slabs}", *GEOMETRY)
            ledger.bind(epoch, slab)
        elif (
            refs[slab] != 1 or slab.name in world.disposed
            or slab in ledger.spares
            or [w.slab for w in ledger.workers.values()].count(slab) != 1
        ):
            world.broken.add(SOLE)
        world.race[epoch] = Handle(slab.name, epoch)
        if ledger.holder(epoch).one_shot:
            return  # it runs its arm from memory: no world to publish
        if ledger.arena is None:
            new_arena(ledger, world)
        if transport == "fresh":
            start = ledger.publish(1)
            if start is None and world.arenas < ARENAS:
                new_arena(ledger, world)
                start = ledger.publish(1)
            if start is None:
                return  # no rotation left: the page ships inline
            if start in world.written or not 0 <= start < CAPACITY:
                world.broken.add("slots write-once")
            world.written.add(start)
        assert ledger.pin(epoch)
    return apply


def new_arena(ledger, world):
    world.arenas += 1
    world.written = set()
    perform(ledger, world, ledger.rotate(Arena(f"a{world.arenas}"), CAPACITY))


def settle(epoch, outcome, adopted=False):
    """The race's ``finish`` -- or a late second one -- and then its
    handle let go: dropped, or, for a winner, kept by the world that
    adopted the pages its slab brought home."""
    def apply(ledger, world):
        perform(ledger, world, ledger.settle(epoch, outcome))
        handle = world.race.pop(epoch, None)
        if handle is not None and adopted:
            world.worlds = tuple(sorted(world.worlds + (handle.slab,)))
    return apply


def detach(epoch):
    def apply(ledger, world):
        handle = world.race.get(epoch)
        if ledger.detach(epoch, handle, None) and handle is not None:
            del world.race[epoch]
            world.pool.add(handle)
    return apply


def take_drain(ledger, world):
    if ledger.take_drain():
        world.drainers += 1


def release_drain(ledger, world):
    world.drainers -= 1
    perform(ledger, world, ledger.release_drain())


def born(slot, forked):
    def apply(ledger, world):
        world.due.discard(slot)
        proc = Proc(slot) if forked else None
        perform(ledger, world, ledger.born(slot, proc))
    return apply


def moves(ledger, world):
    """Every move enabled in this state, as ``(label, apply)``."""
    call = lambda method, *args: lambda ledger, world: perform(  # noqa: E731
        ledger, world, getattr(ledger, method)(*args)
    )
    leased, draining = ledger.epochs(LEASED), ledger.epochs(DRAINING)
    if not ledger.closed and ledger.epoch < EPOCHS:
        shown = ("shown",) if ledger.arena is not None else ()
        for transport in ("pipe", "fresh") + shown:
            yield f"lease {transport}", lease(transport)
        if ledger.count(PARKED):  # an arm no parked worker may take
            yield "one-shot", lease("pipe", parked=False)
    for epoch, record in leased.items():
        if record.deadline is None:
            yield f"cancel {epoch}", call("cancel", epoch, 0.0, 1.0)
        else:
            yield f"detach {epoch}", detach(epoch)
        for outcome in (CLEAN, DIRTY, GONE):
            yield f"settle {epoch} {outcome}", settle(epoch, outcome)
        if epoch in world.race:
            yield f"settle {epoch} won", settle(epoch, CLEAN, adopted=True)
    if leased:
        yield "reclaim", lambda ledger, world: perform(
            ledger, world, ledger.reclaim(0.0, 0.0)[1]
        )
    for epoch in draining:
        yield f"late finish {epoch}", settle(epoch, DIRTY)
    if draining and world.drainers < 2:  # as the shell: only to hear
        yield "take drain", take_drain
    if world.drainers:
        yield "release drain", release_drain
        for epoch in draining:
            for outcome in (CLEAN, DIRTY):
                yield f"heard {epoch} {outcome}", call(
                    "heard", epoch, 0.0, outcome
                )
            yield f"heard {epoch} partial", call("heard", epoch, 0.0, PARTIAL)
            yield f"silent {epoch}", call("heard", epoch, 1.0, SILENT)
    for slot in world.due:
        yield f"born {slot}", born(slot, True)
        yield f"fork failed {slot}", born(slot, False)
    if world.worlds:
        yield "world exits", lambda ledger, world: setattr(
            world, "worlds", world.worlds[1:]
        )
    if not ledger.closed and not leased:  # once its races have returned
        yield "close", call("close")
    elif not world.shut:
        yield "shutdown", shutdown


def shutdown(ledger, world):
    world.shut = True
    perform(ledger, world, ledger.shutdown())


# -- invariants on every state ---------------------------------------------


def violations(ledger, world):
    broken = set(world.broken)
    # 1. every epoch granted is settled or carried by one worker, and
    # only a leased or draining worker carries one.
    held = [
        w.epoch for w in ledger.workers.values()
        if w.state in (LEASED, DRAINING)
    ]
    free = [
        w.epoch for w in ledger.workers.values()
        if w.state not in (LEASED, DRAINING)
    ]
    granted = set(range(1, ledger.epoch + 1))
    if (
        None in held or len(set(held)) != len(held) or set(free) - {None}
        or granted - set(held) - set(ledger.settled)
    ):
        broken.add("no double lease")
    # ... and a one-shot carries the one lease it was born for.
    for slot, worker in ledger.workers.items():
        if slot < 0 and (worker.state != LEASED or worker.epoch != -slot):
            broken.add("no double lease")
    # 2. a settled epoch is gone for good; at the end, every epoch was.
    for epoch, count in ledger.settled.items():
        if count != 1 or epoch in held:
            broken.add("one settle per epoch")
    if world.shut and sorted(ledger.settled) != list(
        range(1, ledger.epoch + 1)
    ):
        broken.add("one settle per epoch")
    # 4. what a lease may still read is still there.
    pinned = {w.arena for w in ledger.workers.values()} | {ledger.arena}
    if any(a is not None and a.name in world.disposed for a in pinned):
        broken.add("arena disposed once, retired and unpinned")
    # 6. a detached lease keeps its worker, handle, slab and arena.
    for worker in ledger.epochs(DRAINING).values():
        handle = worker.handle
        if handle is not None and (
            handle not in world.pool
            or worker.slab is None or worker.slab.name != handle.slab
            or handle.slab in world.disposed
        ):
            broken.add("detached lease untouched until settled")
        if worker.arena is not None and worker.arena.name in world.disposed:
            broken.add("detached lease untouched until settled")
    # 7.
    if world.drainers > 1:
        broken.add("at most one drainer")
    # 8. a lease that finds nobody parked forks only if nobody is coming.
    forks = not ledger.count(PARKED) and not ledger.settling()
    if forks and not ledger.closed and any(
        w.state != LEASED for w in ledger.workers.values()
    ):
        broken.add("fork only when every worker is the race's")
    return broken


def explore(ledger_class, hunting=None):
    """Breadth-first over every reachable state.  Returns the number of
    states and, for the first broken state found, what broke and the
    events that led there -- or, ``hunting`` one invariant, stops at
    the first state that breaks it."""
    ledger, world = ledger_class(), World()
    for slot in range(WORKERS):
        ledger.born(slot, Proc(slot))
    start = key(ledger, world)
    seen = {start: None}
    queue = deque([(ledger, world, start)])
    while queue:
        ledger, world, here = queue.popleft()
        broken = violations(ledger, world)
        if broken and (hunting is None or hunting in broken):
            path = []
            while seen[here] is not None:
                here, label = seen[here]
                path.append(label)
            return len(seen), broken, path[::-1]
        for label, apply in moves(ledger, world):
            after, later = clone(ledger, world)
            apply(after, later)
            there = key(after, later)
            if there not in seen:
                seen[there] = (here, label)
                queue.append((after, later, there))
    return len(seen), set(), []


def test_every_reachable_state_keeps_every_invariant():
    began = time.perf_counter()
    states, broken, path = explore(Probe)
    took = time.perf_counter() - began
    print(f"{states} reachable lease-ledger states in {took:.1f} s")
    assert not broken, (broken, path)
    assert took < 10.0


# -- adequacy: one mutant per invariant ------------------------------------


class LeasesADrainingWorker(Probe):
    """Nobody parked: lease the worker the pool is still draining."""

    def grant(self, now, want=None, refs=None):
        for worker in self.workers.values():
            if not self.count(PARKED) and worker.state == DRAINING:
                worker.state = PARKED
        return super().grant(now, want, refs)


class LeavesACleanLeaseOpen(Probe):
    """A clean settle wakes the waiters but leaves the lease the race's:
    a late second ``finish`` settles it again."""

    def settle(self, epoch, outcome, detached=False):
        worker = self.epochs(DRAINING if detached else LEASED).get(epoch)
        record = None if worker is None else dict(vars(worker))
        actions = super().settle(epoch, outcome, detached)
        if record is not None and outcome == CLEAN:
            vars(worker).update(record)
        return actions


class ReissuesTheCursor(Probe):
    def publish(self, count):
        start = super().publish(count)
        if start is not None:
            self.cursor -= count
        return start


class DisposesTheLiveArena(Probe):
    """Drops an arena when its last pin goes, retired or not."""

    def _unpinned(self, arena):
        if any(w.arena is arena for w in self.workers.values()):
            return []
        return [("dispose", arena)]


class LendsByGeometryAlone(Probe):
    def _lendable(self, slab, want, refs):
        return slab is not None and slab.slot_size == want[1]


class SparesADetachedSlab(Probe):
    """The race gave the slab back at its commit: set it aside."""

    def detach(self, epoch, handle, reader):
        detached = super().detach(epoch, handle, reader)
        worker = self.epochs(DRAINING).get(epoch)
        if detached and worker.slab is not None:
            self.spares.append(worker.slab)
            worker.slab = None
        return detached


class TwoDrainers(Probe):
    def take_drain(self):
        self.drainer = True
        return True


class ParksAOneShot(Probe):
    """A one-shot that settles clean parks like a worker of the pool, to
    be leased again."""

    def settle(self, epoch, outcome, detached=False):
        worker = self.holder(epoch, DRAINING if detached else LEASED)
        if worker is not None and outcome == CLEAN:
            worker.one_shot = False
        return super().settle(epoch, outcome, detached)


class GivesAOneShotAnHeir(Probe):
    def settle(self, epoch, outcome, detached=False):
        worker = self.holder(epoch, DRAINING if detached else LEASED)
        actions = super().settle(epoch, outcome, detached)
        if worker is not None and worker.one_shot:
            actions.append(("respawn", worker.slot))
        return actions


class ForgetsTheHeir(Probe):
    """A worker between its settle and its heir's birth is in no hand:
    a lease that looks then forks instead of waiting."""

    def settling(self):
        return any(w.state == DRAINING for w in self.workers.values())


@pytest.mark.parametrize("mutant, invariant", [
    (LeasesADrainingWorker, "no double lease"),
    (LeavesACleanLeaseOpen, "one settle per epoch"),
    (ReissuesTheCursor, "slots write-once"),
    (DisposesTheLiveArena, "arena disposed once, retired and unpinned"),
    (LendsByGeometryAlone,
     "slab lent only when the pool is its sole referent"),
    (SparesADetachedSlab, "detached lease untouched until settled"),
    (TwoDrainers, "at most one drainer"),
    (ForgetsTheHeir, "fork only when every worker is the race's"),
    (ParksAOneShot, "no double lease"),
    (GivesAOneShotAnHeir, "fork only when every worker is the race's"),
])
def test_the_enumeration_catches_each_mutant(mutant, invariant):
    assert invariant in INVARIANTS
    states, broken, path = explore(mutant, hunting=invariant)
    assert invariant in broken, f"{mutant.__name__} survived {states} states"
