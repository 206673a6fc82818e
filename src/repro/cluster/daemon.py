"""The worker daemon: one node of the real-wire cluster.

A :class:`WorkerDaemon` is what the simulated network called a "worker
node", promoted to a real OS process listening on a real TCP port.  Per
connection it speaks the framed-record protocol of
:mod:`repro.cluster.stream`; the message kinds are:

- ``ping`` -> ``pong`` (liveness probe, used by spawners);
- ``vote`` -> ``vote-reply``: the daemon is one voter of the
  majority-consensus 0-1 semaphore (section 3.4, Thomas 1979); its
  per-decision grant is irrevocable (the executor votes on one decision
  id per block; the voter forgets only the oldest of thousands), and a
  SIGKILLed daemon simply stops answering -- the quorum arithmetic of
  :class:`~repro.cluster.semaphore.ClusterMajoritySemaphore` absorbs it;
- ``ship``: one arm shipment, named by the ship id the home's session
  minted.  A connection is a *session*: it carries any number of ships,
  several at once, for as long as the home keeps it.  The record holds
  the parent's page table as ``(store uid, vpns, frame ids)`` plus the
  bytes of only those frames this connection has not been shown; the
  daemon keeps one :class:`~repro.pages.store.PageStore` and a
  ``(uid, frame id) -> local frame`` map *per connection*, so an arm's
  world is built by pointing a fresh table at cached frames (one batched
  incref, the shape of the world pool's worker), not by copying an
  image.  The arm runs on its own thread exactly as the home node would
  run it (:func:`repro.core.sequential._run_body`) and that thread sends
  the ``result`` record -- the child's dirty pages, the paper's "the
  changed state is updated in the parent's storage" -- the moment the
  body returns; the connection's reader meanwhile emits the due
  ``hb`` records of every arm on it;
- ``cancel``: the section 3.2.1 termination instruction, naming a ship,
  delivered to that running body through its cooperative
  :class:`~repro.core.backends.base.CancellationToken`.  The body's
  checkpoints step aside for the connection's reader when input is
  waiting (:class:`_ArmToken`), so a sub-millisecond spinning loser
  stops at its next checkpoint instead of outrunning the instruction;
  and a cancelled ship is **not answered** -- the home stopped
  listening for it the moment it sent the cancel, so a result would
  only cost both ends the work of sealing and discarding it while the
  next block is already racing.

The session's invariants, daemon side.  Ship ids only grow on one
connection, so a duplicated or overtaken ``ship`` is ignored.  A ship may
name only frames shipped *on this same connection*; one that names a
frame the map lacks (its carrier was lost or overtaken on an impaired
link), or whose pages do not match the page size, or whose table does
not fit the space, or that would grow the map past
:data:`SESSION_FRAME_BOUND`, is a protocol violation that **closes the
connection** -- there is no NAK and no resync; the home sees a drop and
answers with its respawn ladder on a fresh session.  The map and every
frame in it are released when the connection ends, whoever ended it.

Robustness contract (the reason this module exists):

- SIGTERM sets a flag and lets blocking calls resume (PEP 475); in
  flight arms are cancelled, every session is hung up, the listener
  closes, and shutdown runs the shared-memory audit
  (:func:`repro.pages.shm.cleanup_all_slabs` +
  :func:`~repro.pages.shm.orphaned_segments`) so a politely stopped
  daemon can never leak ``/dev/shm`` segments;
- a client that vanishes mid-race (half-open connection, EPIPE on a
  heartbeat) orphans every arm on the connection: the bodies are
  cancelled, the worlds released and the shm audit run once -- the
  worker-side lease-lapse self-termination of the home-node ladder's
  leases (:mod:`repro.net.distributed`), enforced by the wire itself.  An injected soft ``crash_after`` drops
  the whole session the same way, which is what a SIGKILL does;
- a shipment that dies mid-frame is detected by the stream's reader and
  closes the conversation; the daemon never acts on a torn record.
"""

from __future__ import annotations

import os
import random
import secrets as _secrets
import select
import signal
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.consensus.node import ConsensusNode
from repro.core.alternative import AltContext, Alternative
from repro.core.backends.base import CancellationToken
from repro.core.sequential import _run_body
from repro.cluster.auth import load_secret, serve_handshake
from repro.cluster.stream import (
    RecordStream,
    StreamClosed,
    close_listener,
    listener,
)
from repro.errors import ConsensusUnavailable
from repro.pages.address_space import AddressSpace
from repro.pages.shm import cleanup_all_slabs, orphaned_segments
from repro.pages.store import PageStore

#: How long a stopping daemon waits for in-flight arm threads.
_STOP_GRACE = 2.0

#: The most frames one session may grow to: the home retires a session
#: before its shown-set would pass this, and a daemon refuses a ship
#: that would grow its map past it -- "a full arena is retired whole",
#: over TCP.  A session's *first* ship is exempt, so a parent larger
#: than the bound still races: it gets a session to itself.
SESSION_FRAME_BOUND = 16384


#: How long a body's checkpoint steps aside when its connection has
#: input waiting -- long enough for the reader to verify and act on one
#: record, short against any body worth racing.
_READER_TURN = 0.001


class _ProtocolViolation(Exception):
    """A ship broke the session's rules; the connection is closed."""


class _ArmToken(CancellationToken):
    """The token of an arm on a session: a checkpoint is also where a
    spinning body lets its connection's reader in.

    The ``cancel`` that ends a loser arrives on the reader's socket, and
    the reader cannot act on it while the body holds the GIL -- a
    pure-Python body shorter than the interpreter's switch interval
    would run to its end every time, burning a core the next block's
    arms are already queueing for.  So an unset token looks at the
    connection: when input is waiting it steps aside for at most
    :data:`_READER_TURN`, and returns as soon as the reader has
    delivered the cancel.
    """

    __slots__ = ("_inbox",)

    def __init__(self, stream) -> None:
        super().__init__()
        self._inbox = select.poll()
        try:
            self._inbox.register(stream.fileno(), select.POLLIN)
        except (OSError, ValueError):
            pass  # closed under us: the reader is about to orphan the arm

    @property
    def cancelled(self) -> bool:
        if self._event.is_set():
            return True
        if self._inbox.poll(0):
            return self._event.wait(_READER_TURN)
        return False


class _Arm:
    """One ship running on a connection."""

    def __init__(self, msg: dict, space: AddressSpace, serial: int,
                 default_hb: float, stream) -> None:
        now = time.monotonic()
        self.ship = msg["ship"]
        self.index = int(msg.get("arm", 0))
        self.epoch = msg.get("epoch")
        self.space = space
        self.serial = serial
        """Key in the daemon-wide in-flight table."""
        self.token = _ArmToken(stream)
        self.thread: Optional[threading.Thread] = None
        # The home node's warden knows the lease terms; the ship record
        # carries the heartbeat period so both sides agree on the clock.
        self.hb_interval = float(msg.get("hb_interval") or default_hb)
        self.next_hb = now + self.hb_interval
        self.seq = 0
        crash_after = msg.get("crash_after")
        self.crash_at = None if crash_after is None else now + crash_after

    @property
    def next_wake(self) -> float:
        if self.crash_at is None:
            return self.next_hb
        return min(self.next_hb, self.crash_at)


class _Connection:
    """What the daemon keeps for one home session, and only for it."""

    def __init__(self, stream) -> None:
        self.stream = stream
        self.store: Optional[PageStore] = None
        self.frames: Dict[Tuple[int, int], int] = {}
        """``(home store uid, home frame id)`` -> the local frame holding
        that page image.  Frames are immutable and their ids are never
        reused, so an entry stays right for the connection's life."""
        self.arms: Dict[int, _Arm] = {}
        """Ships whose result has not left yet, by ship id.  The reader
        adds, arm threads remove: guarded by ``lock``."""
        self.lock = threading.Lock()
        self.last_ship = 0

    def live_arms(self) -> List[_Arm]:
        with self.lock:
            return list(self.arms.values())


class WorkerDaemon:
    """One cluster worker: arm executor + consensus voter on a socket."""

    def __init__(
        self,
        node_id: str = "worker",
        host: str = "127.0.0.1",
        port: int = 0,
        hb_interval: float = 0.05,
        allow_hard_crash: bool = False,
        process_owner: bool = False,
        secret=None,
        join_addr: Optional[Tuple[str, int]] = None,
        gossip_interval: float = 0.2,
        epoch: Optional[int] = None,
    ) -> None:
        self.node_id = node_id
        self.hb_interval = hb_interval
        self.allow_hard_crash = allow_hard_crash
        self.process_owner = process_owner
        """True when this daemon owns its OS process (the CLI mode): its
        shutdown may reclaim every owned shm slab.  In-process daemons
        (tests) must not -- the host process's live slabs are not theirs
        to destroy."""
        """When true (the subprocess CLI mode), an injected
        ``crash_after`` SIGKILLs the whole daemon -- a real mid-arm
        death.  In-process daemons (tests) emulate the crash at
        connection grain instead of killing the host process."""

        self.voter = ConsensusNode(node_id)
        self.host = host
        self.port = port
        self._key = load_secret(secret)
        self.join_addr = join_addr
        """``(host, port)`` of the home node's membership server; when
        set, the daemon announces itself on start and gossips pings --
        the mechanism by which a respawned daemon re-enters the executor
        rotation with no home-node restart."""
        self.gossip_interval = gossip_interval
        self.epoch = (
            epoch if epoch is not None
            else (os.getpid() << 16) | _secrets.randbits(16)
        )
        """Incarnation id: a respawn gets a new epoch, so the membership
        table can tell this daemon from its predecessor of the same name."""
        self._announcer = None
        self._listener = None
        self._stopping = threading.Event()
        self._signalled = False
        self._threads: list = []
        self._inflight: Dict[int, CancellationToken] = {}
        self._connections: set = set()
        self._inflight_lock = threading.Lock()
        """Guards ``_inflight`` and ``_connections``."""
        self._next_arm = 0
        self.protocol_violations = 0
        self.arms_run = 0
        self.arms_cancelled = 0
        self.arms_orphaned = 0
        self.auth_rejects = 0
        self.shm_leaks_at_shutdown: Tuple[str, ...] = ()
        self.shm_leaks_after_orphan: Tuple[str, ...] = ()
        # Segments predating this daemon are someone else's corpse; the
        # shutdown audit reports only what appeared on our watch.
        self._shm_baseline = frozenset(orphaned_segments())

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> Tuple[str, int]:
        """Bind and serve in background threads; returns the address."""
        self._listener, self.host, self.port = listener(self.host, self.port)
        accept = threading.Thread(
            target=self._accept_loop,
            name=f"daemon-{self.node_id}",
            daemon=True,
        )
        accept.start()
        self._threads.append(accept)
        if self.join_addr is not None:
            from repro.cluster.membership import MembershipAnnouncer

            self._announcer = MembershipAnnouncer(
                self.node_id,
                advertise=(self.host, self.port),
                join_addr=self.join_addr,
                epoch=self.epoch,
                secret=self._key,
                interval=self.gossip_interval,
            )
            self._announcer.start()
        return self.host, self.port

    def serve_forever(self) -> None:
        """Blocking serve (the CLI entry point); returns after stop(),
        which it calls itself once a stop signal has arrived."""
        if self._listener is None:
            self.start()
        while not self._stopping.wait(0.1):
            if self._signalled:
                self.stop()

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT ask :meth:`serve_forever` to stop.  The handler
        only sets a flag: it runs on the thread inside ``Event.wait``, and
        ``stop()`` would take that event's lock, which the wait may hold."""

        def _stop(signum, frame):  # pragma: no cover - signal path
            self._signalled = True

        signal.signal(signal.SIGTERM, _stop)
        signal.signal(signal.SIGINT, _stop)

    def stop(self, leave: bool = True) -> None:
        """Graceful shutdown: cancel arms, close sockets, audit shm.

        ``leave=False`` skips the membership goodbye -- the in-process
        way to model an abrupt death (the home node must *detect* it
        through suspicion instead of being told).
        """
        if self._stopping.is_set():
            return
        self._stopping.set()
        if self._announcer is not None:
            self._announcer.stop(leave=leave)
        if self._listener is not None:
            close_listener(self._listener)
        with self._inflight_lock:
            tokens = list(self._inflight.values())
            connections = list(self._connections)
        for token in tokens:
            token.cancel()
        # Hanging a session up wakes its reader, which orphans whatever
        # still runs on it; the home sees the drop at once.
        for connection in connections:
            connection.stream.close()
        deadline = time.monotonic() + _STOP_GRACE
        with self._inflight_lock:
            pending = dict(self._inflight)
        while pending and time.monotonic() < deadline:
            time.sleep(0.01)
            with self._inflight_lock:
                pending = dict(self._inflight)
        # The shutdown audit: reclaim owned slabs (only when the process
        # is ours to clean), then record anything still carrying our
        # prefix (a leak a test or operator can see).
        if self.process_owner:
            cleanup_all_slabs()
        self.shm_leaks_at_shutdown = tuple(
            sorted(set(orphaned_segments()) - self._shm_baseline)
        )

    @property
    def stopping(self) -> bool:
        return self._stopping.is_set()

    # ------------------------------------------------------------------
    # connection handling

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return  # listener closed by stop()
            handler = threading.Thread(
                target=self._handle_conn,
                args=(RecordStream(sock, name=self.node_id),),
                name=f"daemon-{self.node_id}-conn",
                daemon=True,
            )
            handler.start()
            # Reap finished handlers as we go; connection churn must
            # not grow this list for the life of the daemon.
            self._threads = [t for t in self._threads if t.is_alive()]
            self._threads.append(handler)

    def _handle_conn(self, raw: RecordStream) -> None:
        # With a cluster secret configured, *every* conversation -- ship,
        # vote, ping, shutdown -- starts with the nonce challenge; an
        # unauthenticated or forged frame ends it (auth-reject traced by
        # the wrapper) before any message kind is even looked at.
        try:
            stream = serve_handshake(raw, self._key)
        except StreamClosed:
            raw.close()
            return
        connection = _Connection(stream)
        with self._inflight_lock:
            self._connections.add(connection)
        try:
            while not self._stopping.is_set():
                arms = connection.live_arms()
                timeout = None
                if arms:
                    timeout = max(
                        0.0,
                        min(arm.next_wake for arm in arms) - time.monotonic(),
                    )
                try:
                    msg = stream.recv(timeout=timeout)
                except StreamClosed:
                    return
                if msg is not None:
                    kind = msg.get("kind")
                    if kind == "ping":
                        stream.send({"kind": "pong", "node": self.node_id})
                    elif kind == "vote":
                        self._handle_vote(stream, msg)
                    elif kind == "ship":
                        self._handle_ship(connection, msg)
                    elif kind == "cancel":
                        self._handle_cancel(connection, msg)
                    elif kind == "shutdown":
                        stream.send({"kind": "bye", "node": self.node_id})
                        self.stop()
                        return
                    # unknown kinds are ignored (forward compatibility)
                if not self._beat(connection):
                    return
        except _ProtocolViolation:
            self.protocol_violations += 1
        finally:
            self._hang_up(connection)

    def _handle_vote(self, stream: RecordStream, msg: dict) -> None:
        try:
            granted = self.voter.request_vote(
                msg.get("decision"), msg.get("requester")
            )
        except ConsensusUnavailable:  # pragma: no cover - voter never down
            granted = False
        stream.send({
            "kind": "vote-reply",
            "node": self.node_id,
            "decision": msg.get("decision"),
            "granted": granted,
        })

    def _handle_cancel(self, connection: _Connection, msg: dict) -> None:
        with connection.lock:
            arm = connection.arms.get(msg.get("ship"))
        if arm is not None:
            self.arms_cancelled += 1
            arm.token.cancel()

    def _beat(self, connection: _Connection) -> bool:
        """Emit every due heartbeat; ``False`` ends the connection (the
        home is gone, or an injected crash came due)."""
        now = time.monotonic()
        for arm in connection.live_arms():
            if arm.crash_at is not None and now >= arm.crash_at:
                self._crash()
                return False
            if now >= arm.next_hb:
                arm.next_hb = now + arm.hb_interval
                if not connection.stream.send({
                    "kind": "hb",
                    "node": self.node_id,
                    "ship": arm.ship,
                    "arm": arm.index,
                    "epoch": arm.epoch,
                    "seq": arm.seq,
                }):
                    return False  # half-open: home is gone
                arm.seq += 1
        return True

    def _crash(self) -> None:
        """An injected mid-arm worker death.

        Hard mode (daemon-per-process) is a genuine SIGKILL: no goodbye,
        no cleanup, the kernel resets the connections.  Soft mode (an
        in-process daemon in a test) emulates the observable effect at
        connection grain: the caller hangs the whole session up
        mid-conversation and every arm on it is abandoned.
        """
        if self.allow_hard_crash:  # pragma: no cover - kills the process
            os.kill(os.getpid(), signal.SIGKILL)

    def _hang_up(self, connection: _Connection) -> None:
        """The connection is over, whoever ended it: orphan every arm
        still on it, release its frames, audit shm once."""
        connection.stream.close()
        with connection.lock:
            orphans = list(connection.arms.values())
            connection.arms.clear()
        for arm in orphans:
            arm.token.cancel()
        for arm in orphans:
            arm.thread.join(timeout=_STOP_GRACE)
        if connection.frames:
            connection.store.decref_many(
                dict.fromkeys(connection.frames.values(), 1)
            )
            connection.frames = {}
        with self._inflight_lock:
            self._connections.discard(connection)
        self.auth_rejects += getattr(connection.stream, "rejects", 0)
        if orphans and not self._stopping.is_set():
            # The abnormal-exit path used to skip the shm audit
            # entirely -- only a polite ``shutdown`` checked for leaks,
            # so exactly the deaths most likely to leak went unexamined.
            self.arms_orphaned += len(orphans)
            self._abnormal_exit_audit()

    def _abnormal_exit_audit(self) -> None:
        """The shm leak audit, run when arms are *orphaned* (the home
        vanished mid-race) rather than politely shut down.

        Owned slabs are reclaimed only when this daemon owns its process
        and no other arm is still in flight -- an in-process test daemon
        must never vaporise its host's live slabs.  The leak list is
        recorded either way, so tests and operators can assert on it.
        """
        with self._inflight_lock:
            busy = bool(self._inflight)
        if self.process_owner and not busy:
            cleanup_all_slabs()
        self.shm_leaks_after_orphan = tuple(
            sorted(set(orphaned_segments()) - self._shm_baseline)
        )

    # ------------------------------------------------------------------
    # arm execution

    def _handle_ship(self, connection: _Connection, msg: dict) -> None:
        ship = msg.get("ship")
        if not isinstance(ship, int) or ship <= connection.last_ship:
            return  # a duplicated or overtaken ship: ids only grow
        connection.last_ship = ship
        space = self._build_world(connection, msg)
        with self._inflight_lock:
            serial = self._next_arm
            self._next_arm += 1
        arm = _Arm(msg, space, serial, self.hb_interval, connection.stream)
        arm.thread = threading.Thread(
            target=self._run_arm,
            args=(connection, arm, msg),
            name=f"daemon-{self.node_id}-arm{arm.index}",
            daemon=True,
        )
        with self._inflight_lock:
            self._inflight[serial] = arm.token
        with connection.lock:
            connection.arms[ship] = arm
        arm.thread.start()

    def _build_world(self, connection: _Connection, msg: dict) -> AddressSpace:
        """Validate a ship against the session, cache the frames it
        brings, and build the arm's world out of cached frames.

        Nothing is cached until the whole record has been checked, and a
        record that fails any check ends the connection: the home's view
        of what this side holds can no longer be trusted.
        """
        try:
            space_size = int(msg["space_size"])
            page_size = int(msg["page_size"])
            uid, vpns, names = msg["store"], msg["vpns"], msg["frames"]
            pages = dict(msg["pages"])
            if connection.store is None:
                connection.store = PageStore(page_size=page_size)
            store, cached = connection.store, connection.frames
            if page_size != store.page_size or space_size < 0:
                raise ValueError("ship does not fit the session's store")
            fresh = {
                frame: data for frame, data in pages.items()
                if (uid, frame) not in cached
            }
            if any(len(data) != page_size for data in fresh.values()):
                raise ValueError("shipped page is not one page long")
            if any((uid, frame) not in cached and frame not in fresh
                   for frame in names):
                raise ValueError("ship names a frame never shipped here")
            if cached and len(cached) + len(fresh) > SESSION_FRAME_BOUND:
                raise ValueError("ship would grow the session past its bound")
            space = AddressSpace(store, space_size)
        except (KeyError, TypeError, ValueError) as exc:
            raise _ProtocolViolation(str(exc)) from None
        for frame, data in fresh.items():
            cached[(uid, frame)] = store.allocate(bytes(data))
        try:
            space.map_frames(vpns, [cached[(uid, frame)] for frame in names])
        except (TypeError, ValueError) as exc:
            space.release()
            raise _ProtocolViolation(str(exc)) from None
        space.table.clear_dirty()
        return space

    def _run_arm(self, connection: _Connection, arm: _Arm,
                 msg: dict) -> None:
        started = time.monotonic()
        space = arm.space
        try:
            alt: Alternative = msg["alt"]
            context = AltContext(
                space,
                rng=random.Random(f"{msg.get('seed', 0)}:ctx:{arm.index}"),
                alt_index=arm.index + 1,
                name=msg.get("name", alt.name),
                process=None,
                token=arm.token,
            )
            succeeded, value, detail = _run_body(alt, context)
            dirty = {
                vpn: space.table.read_page(vpn)
                for vpn in sorted(space.table.dirty_pages)
            }
            self.arms_run += 1
        except Exception as exc:  # noqa: BLE001 - shipped, not swallowed
            succeeded, value, dirty = False, None, {}
            detail = f"arm body raised: {exc!r}"
        try:
            # Off the connection first, so no heartbeat follows the
            # result.  An arm the connection already orphaned has nobody
            # to report to, and neither has a cancelled one: the home
            # stopped listening for the ship when it sent the cancel.
            with connection.lock:
                reporting = connection.arms.pop(arm.ship, None) is arm
            if (reporting and not arm.token.wait(0)
                    and not self._stopping.is_set()):
                connection.stream.send({
                    "kind": "result",
                    "node": self.node_id,
                    "ship": arm.ship,
                    "arm": arm.index,
                    "epoch": arm.epoch,
                    "ok": bool(succeeded),
                    "value": value,
                    "detail": detail,
                    "dirty_pages": dirty,
                    "pages_written": len(dirty),
                    "duration": time.monotonic() - started,
                })
        finally:
            # Worker-side world hygiene: nothing outlives the shipment.
            try:
                space.release()
            except Exception:  # pragma: no cover - best effort
                pass
            with self._inflight_lock:
                self._inflight.pop(arm.serial, None)

    def __repr__(self) -> str:
        state = "stopping" if self.stopping else "serving"
        with self._inflight_lock:
            connections = list(self._connections)
        return (
            f"WorkerDaemon({self.node_id!r}, {self.host}:{self.port}, "
            f"{state}, arms_run={self.arms_run}, "
            f"sessions={len(connections)}, "
            f"cached_frames={sum(len(c.frames) for c in connections)})"
        )
