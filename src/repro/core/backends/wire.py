"""Checksum-framed record transport shared by fork children and pool workers.

One framed record is ``magic | length | crc32 | pickle(payload)``.  The
framing is deliberately tiny: the interesting hardening lives in
:class:`RecordReader` (incremental parsing, corruption detection) and in
:func:`write_record` (the injector's mid-shipback death and corruption
faults, including truncation at an *exact* byte offset so tests can walk
every cut point of a frame).

Extracted from the process backend so the pre-warmed world pool speaks
the identical wire format over its persistent pipes: a pooled worker's
record is indistinguishable from a freshly forked child's.
"""

from __future__ import annotations

import errno
import os
import pickle
import struct
import zlib
from typing import List, Optional, Tuple

MAGIC = b"Rr"
FRAME = struct.Struct("!2sII")  # magic, payload length, crc32(payload)
MAX_RECORD = 1 << 30

# Child exit codes the parent can interpret when no intact record arrived.
EXIT_OK = 0
EXIT_UNPICKLABLE = 81  # fallback record shipped; real value was unpicklable
EXIT_SHIP_FAILED = 82  # record could not be written at all
EXIT_TRUNCATED = 83  # injected mid-shipback death
EXIT_HANG = 84  # injected hang ran its full stall


def frame_record(payload: dict) -> Tuple[bytes, int]:
    """Frame ``payload`` as ``magic|len|crc32|pickle``.

    Returns ``(frame, exit_code)``: an unpicklable result is replaced by
    a failure record that *names* the serialization error (it must not
    vanish), and the child's exit code is set to ``EXIT_UNPICKLABLE`` so
    the status surfaces it too.
    """
    exit_code = EXIT_OK
    try:
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        stripped = {
            key: value
            for key, value in payload.items()
            if key not in ("value", "dirty_pages", "shm_pages", "trace")
        }
        stripped["ok"] = False
        stripped["abnormal"] = True
        stripped["detail"] = (
            f"result not picklable across the fork boundary: {exc!r}"
        )
        blob = pickle.dumps(stripped, protocol=pickle.HIGHEST_PROTOCOL)
        exit_code = EXIT_UNPICKLABLE
    frame = FRAME.pack(MAGIC, len(blob), zlib.crc32(blob) & 0xFFFFFFFF)
    return frame + blob, exit_code


def write_all(fd: int, data: bytes) -> bool:
    """Write every byte (EINTR is retried, PEP 475).  EPIPE (the parent
    is gone, nobody will ever read this record) returns False; any other
    OS error -- a real shipback failure -- propagates so the child can
    surface it in its exit status instead of silently dropping the
    result."""
    view = memoryview(data)
    while view:
        try:
            written = os.write(fd, view)
        except OSError as exc:
            if exc.errno == errno.EPIPE:
                return False
            raise
        view = view[written:]
    return True


def truncate_offset(detail: str) -> Optional[int]:
    """Parse an exact truncation offset out of a fault rule's ``detail``.

    A ``pipe-truncate`` rule whose detail reads ``offset=N`` cuts the
    frame after exactly ``N`` bytes (the exhaustive every-cut-point
    tests); any other detail keeps the default mid-frame cut.
    """
    if detail.startswith("offset="):
        try:
            return max(0, int(detail[len("offset="):]))
        except ValueError:
            return None
    return None


def write_record(
    fd: int, payload: dict, ship_fault: Optional[Tuple[str, Optional[int]]] = None
) -> int:
    """Frame and ship one record; returns the child exit code to use.

    ``ship_fault`` is the parent-drawn injector decision -- ``None``, or
    ``('truncate', offset)`` (``offset=None`` for the default mid-frame
    cut), or ``('corrupt', None)`` -- decided *before* the fork so
    counters and the firing log live in the parent, where the autopsy
    reads them.
    """
    frame, exit_code = frame_record(payload)
    if ship_fault is not None and ship_fault[0] == "truncate":
        offset = ship_fault[1]
        if offset is None:
            offset = max(FRAME.size + 1, len(frame) // 2)
        # Die mid-shipback: leave a dangling partial frame.
        write_all(fd, frame[:min(offset, len(frame))])
        return EXIT_TRUNCATED
    if ship_fault is not None and ship_fault[0] == "corrupt":
        body = bytearray(frame)
        for position in range(FRAME.size, len(body), 7):
            body[position] ^= 0xFF
        frame = bytes(body)
    write_all(fd, frame)
    return exit_code


class RecordReader:
    """Incremental checksum-framed record parser over one child's pipe."""

    def __init__(self) -> None:
        self._buffer = b""
        self.corrupt = False
        self.corrupt_detail = ""

    @property
    def pending(self) -> bool:
        """Bytes of an incomplete frame are sitting in the buffer."""
        return bool(self._buffer)

    def _mark_corrupt(self, detail: str) -> None:
        self.corrupt = True
        self.corrupt_detail = detail
        self._buffer = b""

    def feed(self, data: bytes) -> List[dict]:
        if self.corrupt:
            return []
        self._buffer += data
        records: List[dict] = []
        while True:
            if len(self._buffer) < FRAME.size:
                return records
            magic, length, crc = FRAME.unpack_from(self._buffer)
            if magic != MAGIC or length > MAX_RECORD:
                self._mark_corrupt("corrupt result record: bad frame header")
                return records
            if len(self._buffer) < FRAME.size + length:
                return records
            blob = self._buffer[FRAME.size:FRAME.size + length]
            self._buffer = self._buffer[FRAME.size + length:]
            if zlib.crc32(blob) & 0xFFFFFFFF != crc:
                self._mark_corrupt(
                    "corrupt result record: checksum mismatch"
                )
                return records
            try:
                records.append(pickle.loads(blob))
            except Exception as exc:
                self._mark_corrupt(
                    f"corrupt result record: undecodable payload ({exc!r})"
                )
                return records
