"""The world pool's lease ledger: its bookkeeping as a pure transition system.

Everything a :class:`~repro.process.pool.WorldPool` knows about who holds
what lives here: each worker's state (parked, leased, draining, dead),
the response slab it keeps and the record of the one lease it may carry
(epoch, deadline, arena pin, and, once the race has left it to the pool,
the lent slab handle); the spare slabs; the live arena and its first
free slot; the drainer role; the closed flag; the counters.

Every arm is a lease.  One that no parked worker takes gets a
**one-shot** worker (:meth:`LeaseLedger.one_shot`): a slot born leased,
whose process the shell forks once the arm is known, which is never
parked, never detached and never told through the board, and which at
its settle is reaped with no heir, its slot and its slab dropped -- the
paper's forked child (section 3.1) in ledger terms.

A transition takes the time and whatever facts it needs (a slab's
reference count, a lease's outcome) as arguments, changes the ledger,
and returns the actions the shell must carry out, in order:
``("wake",)`` whoever waits for a worker; ``("reap", proc, kill)`` a
worker, killing it first unless it is reaped already; ``("respawn",
slot)``, reporting the heir with :meth:`LeaseLedger.born`; ``("bell",
proc, slot, epoch)``, the termination instruction; ``("dispose",
thing)``, the pool's claim on a slab, a lent handle or an arena.  It
does no I/O, reads no clock, and treats processes, slabs, handles and
arenas as opaque (of a slab it reads only ``slots`` and ``slot_size``);
the shell holds the pool lock around every call.

So its reachable states can be enumerated, and
``tests/process/test_lease_ledger.py`` checks these invariants on every
state of two workers, three epochs and one arena rotation, with one
adequacy mutant per invariant:

1. **no double lease** -- a lease goes only to a parked worker or to a
   one-shot born for it, each unsettled epoch is carried by exactly one
   worker, and a one-shot carries no other;
2. **exactly one settle per epoch** -- whoever settles an epoch first
   (the race's ``finish``, a fallback, the drainer, a reclaim sweep, the
   shutdown) takes its record; every later attempt is a no-op;
3. **arena slots are write-once**, so a worker's cached frame for a slot
   cannot go stale;
4. **an arena is disposed once**, and only when it is retired and no
   unsettled lease pins it, or at shutdown -- a worker never unlinks;
5. **a response slab is lent only while the pool is its sole referent**,
   and no process can still write it: a slab goes out only with its one
   worker's leases, a worker is leased only parked clean or born in place
   of a reaped one (whose slab it inherits), and a slab leaves its worker
   for the spares only at such a moment;
6. **a detached lease is the pool's until settled** -- its worker is not
   leased, its slab not lent or moved, its handle not disposed, its
   arena not unlinked before the drainer has heard it out or given up;
7. **at most one drainer** -- two readers of one result pipe would each
   see half a record;
8. **a lease forks only when every worker is the race's** -- one on its
   way back (draining, or dead with its heir being forked) is waited for
   -- and a one-shot dies with no heir: only a slot of the pool is
   forked again.

Two more hold outside the ledger: frame ids and store uids are never
reused (:class:`~repro.pages.store.PageStore`), so an arena's index entry
names one page image for as long as the arena lives; and the parent
adopts ``(page, slot)`` pairs only from a record that echoes its lease's
epoch and slab name (:meth:`WorldPool.accepts`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

PARKED, LEASED, DRAINING, DEAD = "parked", "leased", "draining", "dead"

CLEAN, DIRTY, GONE = "clean", "dirty", "gone"
"""How a lease ends.  ``CLEAN``: its record was read whole, the worker's
stream is known to be drained, it parks.  ``DIRTY``: the stream cannot be
trusted again (EOF, a corrupt or stale record, trailing bytes, silence
past the deadline, a record the race did not absorb), the worker is
killed and replaced.  ``GONE``: the process died and is reaped already,
it is replaced."""

PARTIAL, SILENT = "partial", "silent"
"""What else the drainer may hear: part of a record -- the deadline,
which is for silence, starts again -- or nothing."""

COUNTERS = (
    "leases_granted", "fallbacks", "respawns", "pages_published",
    "arena_rotations", "response_slabs_created", "response_slabs_reused",
    "drained_parked", "drained_recycled", "told_before_start",
)
_SNAPSHOT_NAMES = {"leases_granted": "leases",
                   "pages_published": "published_pages"}


class Worker:
    """One slot of the pool and the one lease it may carry.

    Its ``state``; its ``proc``, the shell's handle on the process (while
    dead, the one last reaped; ``None`` before the first is born); the
    response ``slab`` it keeps; whether it is a ``one_shot``.  While it is
    leased or draining, the record of its lease: the ``epoch``, when it
    was granted, the grace and deadline :meth:`LeaseLedger.cancel` set,
    the arena it pins, and, once detached, the lent slab ``handle`` and
    the drainer's ``reader``.
    """

    def __init__(self, slot: int) -> None:
        self.slot = slot
        self.state = DEAD
        self.proc = None
        self.slab = None
        self.one_shot = False
        self.carry(None, 0.0)

    def carry(self, epoch: Optional[int], now: float) -> None:
        """Start the record of ``epoch``'s lease (``None``: no lease)."""
        self.epoch = epoch
        self.granted_at = now
        self.grace = 0.0
        self.deadline: Optional[float] = None
        self.arena = None
        self.handle = None
        self.reader = None


def fits(slab, want: Tuple[int, int]) -> bool:
    """Cut for this page size, with room for the space: ``want`` is the
    slots and the slot size a lease needs."""
    slots, slot_size = want
    return slab.slot_size == slot_size and slab.slots >= slots


class LeaseLedger:
    """The pool's state and its transitions; see the module docstring."""

    def __init__(self, size: int, spare_bound: int) -> None:
        self.spare_bound = spare_bound
        self.workers = {slot: Worker(slot) for slot in range(size)}
        """Each slot's worker, dead until :meth:`born` reports it."""

        self.epoch = 0
        """The last epoch granted; epochs are never reused, so nothing
        keyed by one can act on a later lease or a recycled pid."""

        self.arena = None
        self.capacity = 0
        self.cursor = 0
        """The live arena, its slots, and its first slot not handed out."""

        self.spares: List = []
        """Response slabs set aside while something else references them,
        oldest first; at most ``spare_bound``."""

        self.drainer = False
        self.closed = False
        for name in COUNTERS:
            setattr(self, name, 0)

    # -- queries -----------------------------------------------------------

    def count(self, state: str) -> int:
        return sum(1 for w in self.workers.values() if w.state == state)

    def procs(self) -> List:
        """The live workers' processes, one-shots' included."""
        return [
            w.proc for w in self.workers.values()
            if w.state != DEAD and w.proc is not None
        ]

    def epochs(self, state: str) -> Dict[int, Worker]:
        """The workers in ``state`` -- leased or draining -- by epoch."""
        return {w.epoch: w for w in self.workers.values() if w.state == state}

    def slabs(self) -> List:
        """Every response slab the pool holds a claim on."""
        held = [w.slab for w in self.workers.values() if w.slab is not None]
        return held + self.spares

    def settling(self) -> bool:
        """Whether a worker is on its way back: draining, or dead with its
        heir being forked (in an open pool).  A lease that finds nobody
        parked waits for it instead of forking."""
        return any(
            w.state == DRAINING or (w.state == DEAD and not self.closed)
            for w in self.workers.values()
        )

    def settled(self) -> bool:
        """Every worker is parked or leased to a race still running."""
        return not self.settling()

    def someone_parked(self) -> bool:
        """What a lease with nobody parked waits for."""
        return self.count(PARKED) > 0 or not self.settling()

    def snapshot(self) -> Dict[str, int]:
        """The counters and the worker census, as one reading."""
        reading = {
            _SNAPSHOT_NAMES.get(name, name): getattr(self, name)
            for name in COUNTERS
        }
        reading.update(
            parked=self.count(PARKED), inflight=self.count(LEASED),
            draining=self.count(DRAINING),
        )
        return reading

    def holder(self, epoch: int, state: str = LEASED) -> Optional[Worker]:
        """The worker carrying ``epoch`` in ``state`` -- by default while
        the lease is the race's -- if any."""
        for worker in self.workers.values():
            if worker.epoch == epoch and worker.state == state:
                return worker
        return None

    def _lendable(self, slab, want: Tuple[int, int], refs) -> bool:
        return slab is not None and fits(slab, want) and refs(slab) == 1

    def _unpinned(self, arena) -> List[Tuple]:
        """Dispose ``arena`` if it is retired and no lease pins it."""
        if arena is self.arena or any(
            w.arena is arena for w in self.workers.values()
        ):
            return []
        return [("dispose", arena)]

    # -- workers -----------------------------------------------------------

    def born(self, slot: int, proc) -> List[Tuple]:
        """``proc`` is the worker forked for ``slot``, or ``None`` when the
        fork failed.  It parks -- a respawn, unless it is the slot's
        first.  A failed fork gives the slot up, and a closed ledger
        gives up both the slot and the newborn.  A one-shot's failed
        fork settles its lease; one settled before it was born is reaped
        (a newborn with no slot)."""
        worker, actions = self.workers.get(slot), [("wake",)]
        if worker is not None and worker.one_shot:
            if proc is None:
                return self.settle(worker.epoch, GONE)
            worker.proc = proc
            return []
        if worker is not None and proc is not None and not self.closed:
            if worker.proc is not None:
                self.respawns += 1
            worker.state, worker.proc = PARKED, proc
            return actions
        if worker is not None:
            del self.workers[slot]
            if worker.slab is not None:
                actions.append(("dispose", worker.slab))
        if proc is not None:
            actions.append(("reap", proc, True))
        return actions

    def grant(
        self, now: float, want: Optional[Tuple[int, int]] = None, refs=None
    ) -> Optional[int]:
        """Lease a parked worker: the new epoch, or ``None`` when nobody is
        parked -- the caller waits if :meth:`settling`, and otherwise
        takes a :meth:`one_shot`.  With ``want`` (slots, slot size) and
        ``refs`` (a slab's reference count, read when needed), a worker
        whose slab can go out as it is comes first: it spares the worker
        a new mapping and the pool a spare."""
        if self.closed:
            return None
        parked = [w for w in self.workers.values() if w.state == PARKED]
        if not parked:
            return None
        worker = parked[0] if want is None else next(
            (w for w in parked if self._lendable(w.slab, want, refs)),
            parked[0],
        )
        self.epoch += 1
        worker.state = LEASED
        worker.carry(self.epoch, now)
        return self.epoch

    def one_shot(self, now: float) -> int:
        """Lease an arm no parked worker takes (a fallback) to a worker
        born for it: the new epoch.  Its slot, never one of the pool's,
        is the epoch negated; :meth:`born` reports its process."""
        self.fallbacks += 1
        self.epoch += 1
        worker = self.workers[-self.epoch] = Worker(-self.epoch)
        worker.one_shot, worker.state = True, LEASED
        worker.carry(self.epoch, now)
        return self.epoch

    def lend(
        self, epoch: int, want: Tuple[int, int], refs
    ) -> Tuple[Optional[object], List[Tuple]]:
        """The response slab ``epoch``'s lease is lent, and what to dispose.
        The worker keeps its slab if that can go out again; otherwise the
        slab is set aside as a spare (or dropped, if cut for another
        geometry) and the worker takes the first spare that can go.
        ``None``: the shell creates a slab and hands it to :meth:`bind`.
        """
        worker = self.holder(epoch, LEASED)
        if worker is None:
            return None, []
        held, actions = worker.slab, []
        if held is not None and not self._lendable(held, want, refs):
            if fits(held, want):
                self.spares.append(held)
                if len(self.spares) > self.spare_bound:
                    actions.append(("dispose", self.spares.pop(0)))
            else:
                actions.append(("dispose", held))
            held = worker.slab = None
        if held is None:
            held = worker.slab = next(
                (s for s in self.spares if self._lendable(s, want, refs)),
                None,
            )
            if held is not None:
                self.spares.remove(held)
        if held is not None:
            self.response_slabs_reused += 1
        return held, actions

    def bind(self, epoch: int, slab) -> None:
        """A slab the shell created for ``epoch``'s worker (after
        :meth:`lend`, in the same critical section)."""
        self.holder(epoch, LEASED).slab = slab
        self.response_slabs_created += 1

    # -- the arena ---------------------------------------------------------

    def rotate(self, arena, capacity: int) -> List[Tuple]:
        """``arena`` (``None``: shared memory refused) replaces the live
        one, which is retired -- and disposed, if no lease pins it."""
        retired = self.arena
        self.arena, self.capacity, self.cursor = arena, capacity, 0
        if retired is None:
            return []
        self.arena_rotations += 1
        return self._unpinned(retired)

    def publish(self, count: int, pages: Optional[int] = None) -> Optional[int]:
        """The first of ``count`` fresh slots of the live arena, each
        handed out once, ``pages`` of them (all, by default) for page
        images; ``None`` when they do not fit."""
        if self.arena is None or self.cursor + count > self.capacity:
            return None
        start, self.cursor = self.cursor, self.cursor + count
        self.pages_published += count if pages is None else pages
        return start

    def pin(self, epoch: int) -> bool:
        """``epoch``'s worker reads the live arena: pinned until settled."""
        worker = self.holder(epoch, LEASED)
        if worker is None or self.closed or self.arena is None:
            return False
        worker.arena = self.arena
        return True

    # -- the lease's way out -----------------------------------------------

    def cancel(self, epoch: int, now: float, grace: float) -> List[Tuple]:
        """Tell ``epoch``'s arm to stop: it has ``grace`` seconds to report
        from now.  Nothing once the lease is no longer the race's."""
        worker = self.holder(epoch, LEASED)
        if worker is None:
            return []
        worker.grace, worker.deadline = grace, now + grace
        # A one-shot has no word on the board: the bell is the instruction.
        slot = None if worker.one_shot else worker.slot
        return [("bell", worker.proc, slot, epoch)]

    def detach(self, epoch: int, handle, reader) -> bool:
        """The race leaves a told lease to the pool at its commit, with its
        lent ``handle`` and a ``reader`` for its pipe.  False when it was
        never told, is not the race's any more, or is a one-shot: the
        race waits for those."""
        worker = self.holder(epoch, LEASED)
        if worker is None or worker.deadline is None or worker.one_shot:
            return False
        worker.handle, worker.reader = handle, reader
        worker.state = DRAINING
        return True

    def settle(
        self, epoch: int, outcome: str, detached: bool = False
    ) -> List[Tuple]:
        """Close out one lease -- the race's, or with ``detached`` one the
        pool is draining -- by its ``outcome``; nothing to do when
        somebody settled it already.  The handle goes back only once
        nothing can write its slab any more (its record read, its process
        reaped), and before the worker can be leased again; the pin
        drops, and a retired arena with no pin left goes.  A one-shot is
        reaped whatever the outcome, and its slot and slab go with it."""
        worker = self.holder(epoch, DRAINING if detached else LEASED)
        if worker is None:
            return []
        handle, arena = worker.handle, worker.arena
        worker.carry(None, 0.0)
        if worker.one_shot:
            del self.workers[worker.slot]
            actions = [] if worker.proc is None else [
                ("reap", worker.proc, outcome != GONE)
            ]
            if worker.slab is not None:
                actions.append(("dispose", worker.slab))
            return actions
        if outcome == CLEAN:
            worker.state = PARKED
            actions = [("wake",)]
        else:
            worker.state = DEAD
            actions = [("reap", worker.proc, outcome == DIRTY)]
        if handle is not None:
            actions.append(("dispose", handle))
        if arena is not None:
            actions += self._unpinned(arena)
        if outcome != CLEAN:  # a closed ledger gives the slot up at birth
            actions.append(("respawn", worker.slot))
        return actions

    def heard(self, epoch: int, now: float, outcome: str) -> List[Tuple]:
        """What the drainer heard from ``epoch``'s worker: a whole record
        (``CLEAN``) or a bad one (``DIRTY``) settles it, part of one
        (``PARTIAL``) restarts its deadline, and nothing (``SILENT``) past
        the deadline recycles it."""
        worker = self.holder(epoch, DRAINING)
        if worker is None:
            return []
        if outcome == PARTIAL:
            worker.deadline = now + worker.grace
            return []
        if outcome == SILENT:
            if now < worker.deadline:
                return []
            outcome = DIRTY
        if outcome == CLEAN:
            self.drained_parked += 1
        else:
            self.drained_recycled += 1
        return self.settle(epoch, outcome, detached=True)

    def reclaim(self, now: float, older_than: float) -> Tuple[int, List]:
        """Recycle every lease the race has held ``older_than`` seconds
        (its caller died before ``finish``).  A detached lease is not
        abandoned: its deadline is the drainer's to enforce."""
        stale = [
            epoch for epoch, worker in self.epochs(LEASED).items()
            if now - worker.granted_at >= older_than
        ]
        actions: List[Tuple] = []
        for epoch in stale:
            actions += self.settle(epoch, DIRTY)
        return len(stale), actions

    # -- the drainer and the end -------------------------------------------

    def take_drain(self) -> bool:
        """Become the drainer, if a lease is draining and nobody is."""
        if self.drainer or not self.count(DRAINING):
            return False
        self.drainer = True
        return True

    def release_drain(self, heard=(), now: float = 0.0) -> List[Tuple]:
        """The drainer's turn ends: what it heard -- ``(epoch, outcome)``
        pairs, at ``now`` -- goes to :meth:`heard`, and the role back."""
        actions = [a for e, out in heard for a in self.heard(e, now, out)]
        self.drainer = False
        return actions + [("wake",)]

    def close(self) -> None:
        """No more grants, pins or heirs; what drains from here on is not
        replaced."""
        self.closed = True

    def shutdown(self) -> List[Tuple]:
        """Settle what is left, drop every claim -- the live arena, each
        slab, the spares -- and stop every worker.  A slab a live world
        still pins goes when that world lets go."""
        self.close()
        actions: List[Tuple] = []
        for epoch in self.epochs(LEASED):
            actions += self.settle(epoch, CLEAN)
        for epoch in self.epochs(DRAINING):
            actions += self.settle(epoch, CLEAN, detached=True)
        if self.arena is not None:
            actions.append(("dispose", self.arena))
            self.arena = None
        actions += [("dispose", slab) for slab in self.slabs()]
        actions += [("reap", proc, True) for proc in self.procs()]
        self.workers, self.spares = {}, []
        return actions
