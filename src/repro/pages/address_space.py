"""Byte-addressed view over a COW page table.

An :class:`AddressSpace` is what a simulated process sees: a flat array of
``size`` bytes, read and written at arbitrary offsets, backed by fixed-size
pages that are shared copy-on-write after a fork.  It also provides a tiny
named-variable layer (:meth:`put` / :meth:`get`) so application code --
recovery-block alternates, Prolog worlds -- can treat the space as a
key-value store while every byte still lives in pages and every update
still goes through the COW machinery.

The variable directory is *incremental*: bindings are appended to a
length-prefixed record log inside the first pages of the space, so the
k-th ``put`` dirties only the header page and the pages its own record
lands on.  (The previous design re-pickled the whole directory on every
``put``, which rewrote all earlier variables' bytes -- O(total variable
bytes) per call -- re-dirtied the prefix pages, and triggered spurious COW
faults in every forked child that touched a variable.)  The log is
compacted in place only when an append would overflow the space.
"""

from __future__ import annotations

import pickle
from collections import Counter
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from repro.check.runtime import checkpoint as _check_checkpoint
from repro.errors import PageApplyError, PageFault
from repro.obs import events as _ev
from repro.obs.tracer import active as _active_tracer
from repro.pages.store import PageStore
from repro.pages.table import PageTable
from repro.resilience.injector import active as _active_injector


class AddressSpace:
    """A fixed-size, page-backed, byte-addressable space."""

    def __init__(
        self,
        store: PageStore,
        size: int,
        table: Optional[PageTable] = None,
    ) -> None:
        if size < 0:
            raise ValueError("address space size cannot be negative")
        self.store = store
        self.size = size
        self.page_size = store.page_size
        self.table = table if table is not None else PageTable(store)
        self.table.ensure_zero_filled(range(self.num_pages))
        # The variable directory is itself serialized into the first pages
        # of the space, so forked children inherit it through the pages.
        self._vars_cache: Optional[Dict[str, Any]] = None
        self._log_tail: Optional[int] = None

    @property
    def num_pages(self) -> int:
        """Pages needed to cover :attr:`size` bytes."""
        return -(-self.size // self.page_size) if self.size else 0

    # ------------------------------------------------------------------
    # raw byte access

    def _check_range(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.size:
            raise PageFault(
                f"access [{offset}, {offset + length}) outside space of {self.size} bytes"
            )

    def read(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes starting at ``offset``.

        Reads are served through frame ``memoryview`` slices, so a read
        performs exactly one copy (assembling the result) no matter how
        many pages it crosses.
        """
        self._check_range(offset, length)
        if length == 0:
            return b""
        vpn, page_offset = divmod(offset, self.page_size)
        if page_offset + length <= self.page_size:
            # Single-page fast path: one slice, one copy.
            view = self.table.read_page_view(vpn)
            return bytes(view[page_offset:page_offset + length])
        chunks = []
        remaining = length
        position = offset
        while remaining > 0:
            vpn, page_offset = divmod(position, self.page_size)
            take = min(remaining, self.page_size - page_offset)
            view = self.table.read_page_view(vpn)
            chunks.append(view[page_offset:page_offset + take])
            position += take
            remaining -= take
        return b"".join(chunks)

    def write(self, offset: int, data: bytes) -> None:
        """Write ``data`` at ``offset``, faulting pages private as needed."""
        self._check_range(offset, len(data))
        position = offset
        start = 0
        while start < len(data):
            vpn, page_offset = divmod(position, self.page_size)
            take = min(len(data) - start, self.page_size - page_offset)
            self.table.write_page(vpn, data[start:start + take], page_offset)
            position += take
            start += take
        self._invalidate_vars()

    def _invalidate_vars(self) -> None:
        self._vars_cache = None
        self._log_tail = None

    # ------------------------------------------------------------------
    # named-variable layer: an incremental record log
    #
    # byte 0..8   big-endian log length L (bytes of records after the header)
    # then L bytes of records, each: 4-byte big-endian record length,
    # followed by pickle((name, value)) for a binding or pickle((name,))
    # for a tombstone.  A zeroed header reads as an empty directory.

    _DIRECTORY_HEADER = 8  # length prefix, big-endian
    _RECORD_HEADER = 4

    def _encode_records(self, records: Iterable[Tuple]) -> bytes:
        parts = []
        for record in records:
            blob = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
            parts.append(len(blob).to_bytes(self._RECORD_HEADER, "big"))
            parts.append(blob)
        return b"".join(parts)

    @staticmethod
    def _apply_records(variables: Dict[str, Any], records: Iterable[Tuple]) -> None:
        for record in records:
            if len(record) == 1:
                variables.pop(record[0], None)
            else:
                variables[record[0]] = record[1]

    def _replay_log(self) -> Tuple[Dict[str, Any], int]:
        """Rebuild the directory dict from the on-page log."""
        header = self.read(0, self._DIRECTORY_HEADER)
        length = int.from_bytes(header, "big")
        end = self._DIRECTORY_HEADER + length
        if length == 0:
            return {}, end
        log = self.read(self._DIRECTORY_HEADER, length)
        variables: Dict[str, Any] = {}
        offset = 0
        while offset < length:
            record_len = int.from_bytes(
                log[offset:offset + self._RECORD_HEADER], "big"
            )
            offset += self._RECORD_HEADER
            record = pickle.loads(log[offset:offset + record_len])
            offset += record_len
            self._apply_records(variables, [record])
        return variables, end

    def _load_vars(self) -> Dict[str, Any]:
        if self._vars_cache is None:
            self._vars_cache, self._log_tail = self._replay_log()
        return self._vars_cache

    def _write_compacted(self, variables: Dict[str, Any]) -> None:
        """Rewrite the log as one live record per binding (may shrink)."""
        payload = self._encode_records(
            (name, value) for name, value in variables.items()
        )
        needed = self._DIRECTORY_HEADER + len(payload)
        if needed > self.size:
            raise PageFault(
                f"variable directory of {needed} bytes exceeds "
                f"address space of {self.size} bytes"
            )
        self.write(
            0, len(payload).to_bytes(self._DIRECTORY_HEADER, "big") + payload
        )
        self._vars_cache = dict(variables)
        self._log_tail = needed

    def _append_records(self, records) -> None:
        """Append ``records`` to the log; compact (once) when out of room."""
        variables = dict(self._load_vars())
        tail = self._log_tail
        assert tail is not None
        payload = self._encode_records(records)
        if tail + len(payload) > self.size:
            self._apply_records(variables, records)
            self._write_compacted(variables)
            return
        self._apply_records(variables, records)
        # Records first, header last: a reader that observes the old
        # header simply ignores the bytes past the old tail.
        self.write(tail, payload)
        new_tail = tail + len(payload)
        log_length = new_tail - self._DIRECTORY_HEADER
        self.write(0, log_length.to_bytes(self._DIRECTORY_HEADER, "big"))
        self._vars_cache = variables
        self._log_tail = new_tail

    def put(self, name: str, value: Any) -> None:
        """Bind ``name`` to ``value`` in the space's variable directory.

        Appends one record: earlier variables' bytes are left untouched,
        so only the header page and the record's own pages are dirtied.
        """
        self._append_records([(name, value)])

    def bulk_put(self, variables: Mapping[str, Any]) -> None:
        """Bind every ``name: value`` in one append.

        All records are written in a single pass with a single header
        update -- the cheap way to preload a space, versus a loop of
        :meth:`put` paying one header rewrite per variable.
        """
        if not variables:
            return
        self._append_records([(name, value) for name, value in variables.items()])

    def get(self, name: str, default: Any = None) -> Any:
        """Look up ``name`` (``default`` when absent)."""
        return self._load_vars().get(name, default)

    def delete(self, name: str) -> None:
        """Remove ``name`` from the directory (KeyError when absent)."""
        if name not in self._load_vars():
            raise KeyError(name)
        self._append_records([(name,)])

    def names(self) -> list:
        """Sorted variable names currently bound."""
        return sorted(self._load_vars())

    # ------------------------------------------------------------------
    # fork / commit

    def fork(self) -> "AddressSpace":
        """A child space sharing all pages COW with this one."""
        child_table = self.table.fork()
        child_table.clear_dirty()
        child = AddressSpace.__new__(AddressSpace)
        child.store = self.store
        child.size = self.size
        child.page_size = self.page_size
        child.table = child_table
        child._vars_cache = None
        child._log_tail = None
        return child

    def adopt(self, child: "AddressSpace") -> None:
        """Atomically take over ``child``'s pages (the commit swap)."""
        if child.size != self.size:
            raise ValueError("cannot adopt a space of a different size")
        self.table.adopt(child.table)
        self._invalidate_vars()

    def nonzero_frames(self) -> Tuple[tuple, tuple]:
        """``(vpns, frame ids)`` of every page not backed by the store's
        shared zero frame: the part of this space another world has to
        be *shown* (a pooled worker, a remote daemon) -- the rest it
        zero-fills for itself.  One pass over the table, no page read.
        """
        zero_frame = self.store.zero_frame_id
        num_pages = self.num_pages
        live = [
            entry
            for entry in self.table.items()
            if entry[1] != zero_frame and entry[0] < num_pages
        ]
        return tuple(zip(*live)) if live else ((), ())

    def map_frames(self, vpns, frames) -> None:
        """Map page ``vpns[i]`` onto live frame ``frames[i]`` of this
        space's store, shared rather than copied.

        How a worker -- pooled or remote -- builds an arm's world out of
        frames it has been shown before: every vpn is checked against
        the space, then one batched incref (which refuses an unknown
        frame with no count changed) and one batched pointer pass.  A
        write to such a page copies it first, as for any shared frame.
        The pages are left marked dirty; a caller building a racing
        world clears the table's dirty set when it is done.
        """
        if len(vpns) != len(frames):
            raise ValueError(
                f"{len(vpns)} pages named but {len(frames)} frames"
            )
        if not vpns:
            return
        if min(vpns) < 0 or max(vpns) >= self.num_pages:
            raise ValueError(
                f"page outside a space of {self.num_pages} pages"
            )
        self.store.incref_many(Counter(frames))
        self.table.set_frames(zip(vpns, frames))
        self._invalidate_vars()

    def apply_pages(self, pages: Mapping[int, bytes]) -> None:
        """Write whole-page images into this space (COW rules apply).

        This is how a fork-based execution backend ships a winning child's
        dirty pages back into the simulated address space before the
        parent's commit swap.  The images are validated *before* any of
        them is written -- a malformed shipment (or an injected
        ``page-apply-fail`` fault) raises
        :class:`~repro.errors.PageApplyError` and leaves the space
        untouched, so a failed shipback can never half-apply a winner.
        """
        _check_checkpoint("page-shipback", None)
        injector = _active_injector()
        if injector is not None and injector.draw("page-apply-fail") is not None:
            raise PageApplyError(
                "injected page-apply failure; space left untouched"
            )
        ordered = sorted(pages)
        for vpn in ordered:
            image = pages[vpn]
            if vpn < 0 or vpn >= self.num_pages:
                raise PageApplyError(
                    f"shipped page {vpn} outside space of {self.num_pages} pages"
                )
            if len(image) != self.page_size:
                raise PageApplyError(
                    f"shipped page {vpn} is {len(image)} bytes; "
                    f"expected a whole {self.page_size}-byte frame"
                )
        for vpn in ordered:
            self.table.write_page(vpn, pages[vpn], 0)
        self._invalidate_vars()
        tracer = _active_tracer()
        if tracer.enabled:
            tracer.emit(
                _ev.PAGE_SHIPBACK,
                block=getattr(self, "trace_block", None),
                pages=len(ordered),
                bytes=len(ordered) * self.page_size,
            )

    def apply_shm_pages(self, shipment) -> None:
        """Swap shared-memory slab slots into this space (zero-copy commit).

        The shm counterpart of :meth:`apply_pages`: instead of copying
        page images, each shipped ``(vpn, slot)`` pair adopts the slab
        slot as an external frame and repoints the page-table entry at it
        -- the paper's 'swap page pointers' commit.  The whole shipment
        is validated (and the ``page-apply-fail`` fault consulted) before
        any pointer moves, so a malformed shipment raises
        :class:`~repro.errors.PageApplyError` with the space untouched.
        Each adopted frame retains the slab, and the slab's owner gets
        it back (a direct slab is unlinked, a pooled one returns to its
        pool) only when the last adopted frame's refcount drains.
        """
        _check_checkpoint("page-shipback", None)
        injector = _active_injector()
        if injector is not None and injector.draw("page-apply-fail") is not None:
            raise PageApplyError(
                "injected page-apply failure; space left untouched"
            )
        slab = shipment.slab
        if slab.slot_size != self.page_size:
            raise PageApplyError(
                f"slab slot size {slab.slot_size} does not match "
                f"page size {self.page_size}"
            )
        pairs = sorted(shipment.pairs)
        seen_vpns = set()
        for vpn, slot in pairs:
            if vpn < 0 or vpn >= self.num_pages:
                raise PageApplyError(
                    f"shipped page {vpn} outside space of {self.num_pages} pages"
                )
            if vpn in seen_vpns:
                raise PageApplyError(f"page {vpn} shipped twice in one commit")
            seen_vpns.add(vpn)
            if not 0 <= slot < slab.slots:
                raise PageApplyError(
                    f"shipped slot {slot} outside slab of {slab.slots} slots"
                )
        # Validated: move the pointers.  Everything below is batched --
        # one slab retain, one store adoption, one table swap pass -- so
        # an N-page commit costs N pointer moves, not 3N lock round-trips.
        slab.retain(len(pairs))
        try:
            frames = self.store.adopt_external_many(
                [slab.slot_view(slot) for _, slot in pairs],
                on_release=slab.release_many,
            )
        except BaseException:  # pragma: no cover - adoption cannot 1/2-fail
            slab.release_many(len(pairs))
            raise
        self.table.set_frames(
            (vpn, frame) for (vpn, _), frame in zip(pairs, frames)
        )
        self._invalidate_vars()
        tracer = _active_tracer()
        if tracer.enabled:
            tracer.emit(
                _ev.POINTER_COMMIT,
                block=getattr(self, "trace_block", None),
                pages=len(pairs),
                slab=slab.name,
                bytes=len(pairs) * self.page_size,
            )

    def release(self) -> None:
        """Release every page (process exit)."""
        self.table.release()
        self._invalidate_vars()

    @property
    def pages_written(self) -> int:
        """Distinct pages dirtied since the last fork/commit."""
        return self.table.pages_written

    @property
    def cow_faults(self) -> int:
        """COW copies serviced by this space's table."""
        return self.table.cow_faults

    def __repr__(self) -> str:
        return (
            f"AddressSpace(size={self.size}, pages={self.num_pages}, "
            f"written={self.pages_written})"
        )
