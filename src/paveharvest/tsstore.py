"""Embedded time-series store with per-sensor, per-time-window chunks.

Every sample lands in the chunk for its sensor and hour (default span);
chunks are append-only binary segment files:

    32-byte header: magic "TSEG", version u32 LE, sensor-key hash u64 LE,
                    window start i64 LE (us), 8 reserved bytes
    records:        ts i64 LE (us), value f64 LE, 16 bytes each

Duplicates on (sensor, ts) are reported and resolved last-write-wins at
read time; out-of-order arrival within a chunk is normal. The segment
file is the only copy of a chunk's values: a read decodes it into
ts-sorted numpy columns, and a chunk that takes writes keeps only the set
of its timestamps, for duplicate checks and record counts.

The directory is the chunk table. Opening a store reads nothing; a query
lists only its sensor's directory, and ``chunks``, ``sensors``, ``count()``,
a retention sweep and the manifest list them all. A store keeps state
only for the chunks its session wrote, read or counted, and ``close``
releases every one.

An insert groups its batch by chunk and gives each touched chunk one
unbuffered ``write`` of its records, all or nothing: a short or failed
write is cut back, and only that chunk's samples report the error. No
user-space buffer holds records once ``insert`` returns. Each sensor
keeps one segment open, the one it wrote last. A ``manifest`` sidecar at
the root lists the other chunks; it is rewritten by a retention sweep and
on closing a store that took inserts. One writer per chunk at a time;
readers see whole records only (a torn trailing record is ignored, and
cut off before the next append). The store never calls ``fsync``, so that
cut covers a process crash, not a power loss.
"""

from __future__ import annotations

import errno
import hashlib
import logging
import math
import struct
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple
from urllib.parse import quote, unquote

import numpy as np

logger = logging.getLogger(__name__)

MAGIC = b"TSEG"
VERSION = 1
HEADER = struct.Struct("<4sIQq8s")
RECORD = struct.Struct("<qd")
RECORD_DTYPE = np.dtype([("ts", "<i8"), ("v", "<f8")])
HEADER_SIZE = HEADER.size  # 32
RECORD_SIZE = RECORD.size  # 16

DEFAULT_CHUNK_SPAN_US = 3_600_000_000  # 1 hour

ACK = "ack"
DUPLICATE = "duplicate"

AGGREGATES = ("avg", "min", "max", "count")


class StoreError(Exception):
    """Base for storage failures."""


class CorruptSegment(StoreError):
    """Segment header or framing does not check out; chunk refuses writes."""


class Sample(NamedTuple):
    sensor: str
    ts: int
    v: float


class ChunkKey(NamedTuple):
    sensor: str
    window_start: int


def chunk_for(sensor: str, ts: int, span: int = DEFAULT_CHUNK_SPAN_US) -> ChunkKey:
    """Chunk key owning ``ts``: window start floored to the span.

    A ts exactly on a boundary belongs to the chunk it starts.
    """
    if span <= 0:
        raise ValueError("span must be positive")
    return ChunkKey(sensor, ts - ts % span)


def key_hash(sensor: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(sensor.encode(), digest_size=8).digest(), "little"
    )


@dataclass
class InsertReport:
    """Per-sample outcome of one insert batch."""

    statuses: list[str] = field(default_factory=list)  # ack/duplicate/<reason>

    @property
    def accepted(self) -> int:
        return self.statuses.count(ACK)

    @property
    def duplicates(self) -> int:
        return self.statuses.count(DUPLICATE)

    @property
    def errors(self) -> int:
        return len(self.statuses) - self.accepted - self.duplicates


class _Chunk:
    """In-process state for one on-disk segment.

    ``values`` holds the decoded (ts, v) columns until the next append;
    ``stamps`` holds the timestamps present from the chunk's first write on.
    """

    def __init__(self, key: ChunkKey, path: Path, span: int):
        self.key = key
        self.path = path
        self.span = span
        self.values: tuple[np.ndarray, np.ndarray] | None = None
        self.stamps: set[int] | None = None
        self.corrupt = False
        self.size = 0  # bytes of whole records (and header) while open
        self._fh = None

    def load(self) -> None:
        """Decode the segment into ts-ascending, last-write-wins columns."""
        if self.values is not None:
            return
        records = np.empty(0, RECORD_DTYPE)
        if self.path.exists():
            try:
                khash, start, records = _decode_segment(self.path.read_bytes())
            except CorruptSegment as exc:
                raise CorruptSegment(f"{self.path}: {exc}") from None
            if khash != key_hash(self.key.sensor) or start != self.key.window_start:
                raise CorruptSegment(f"{self.path}: header does not match chunk key")
        # The first of a ts in reverse file order is its last write.
        ts, last = np.unique(records["ts"][::-1], return_index=True)
        self.values = (ts, records["v"][::-1][last])

    def held(self) -> set[int]:
        """Timestamps the chunk holds; once asked for, kept until the store closes."""
        if self.stamps is None:
            self.load()
            assert self.values is not None
            self.stamps = set(self.values[0].tolist())
        return self.stamps

    def open_for_append(self):
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "ab", buffering=0)
            size = self._fh.tell()
            # A crash can leave a torn record at the end; appending after it
            # would misframe every record written from here on.
            self.size = size - (size - HEADER_SIZE) % RECORD_SIZE if size else 0
            if self.size != size:
                self._fh.truncate(self.size)
        return self._fh

    def append(self, records: bytes, stamps: set[int]) -> None:
        """Write packed records in one write, all or nothing; call :meth:`held` first.

        A short or failed write is cut back to the previous end (a new
        segment is removed) and raises :class:`OSError`.
        """
        fh = self.open_for_append()
        if not self.size:
            records = HEADER.pack(
                MAGIC, VERSION, key_hash(self.key.sensor), self.key.window_start, b"\0" * 8
            ) + records
        try:
            if fh.write(records) != len(records):
                raise OSError(errno.ENOSPC, "short write", str(self.path))
        except OSError:
            if self.size:
                fh.truncate(self.size)
            else:
                self.close()
                self.path.unlink(missing_ok=True)
            raise
        self.size += len(records)
        assert self.stamps is not None
        self.stamps |= stamps
        self.values = None

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def count(self) -> int:
        """Live records; decodes the segment only if the chunk took no writes."""
        if self.stamps is not None:
            return len(self.stamps)
        self.load()
        assert self.values is not None
        return len(self.values[0])


class Store:
    """Open (or create) a sample store rooted at ``root``."""

    def __init__(self, root: str | Path, chunk_span_us: int = DEFAULT_CHUNK_SPAN_US):
        if chunk_span_us <= 0:
            raise ValueError("chunk span must be positive")
        self.root = Path(root)
        self.span = chunk_span_us
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._chunks: dict[ChunkKey, _Chunk] = {}
        self._open_per_sensor: dict[str, ChunkKey] = {}  # the chunk each sensor wrote last
        self._inserted = False  # the manifest is rewritten on close only if set
        self._closed = False

    # -- layout ------------------------------------------------------------

    def _sensor_dir(self, sensor: str) -> Path:
        return self.root / quote(sensor, safe="")

    def _segment_path(self, key: ChunkKey) -> Path:
        return self._sensor_dir(key.sensor) / f"{key.window_start}.seg"

    def _keys(self, sensor: str | None = None) -> list[ChunkKey]:
        """Keys of the segments on disk, of one sensor or of all, in key order."""
        if sensor is None:
            sensors = {unquote(path.name) for path in self.root.iterdir() if path.is_dir()}
        else:
            sensors = {sensor}
        keys = []
        for name in sensors:
            for seg in self._sensor_dir(name).glob("*.seg"):
                try:
                    key = ChunkKey(name, int(seg.stem))
                except ValueError:
                    key = None
                # Only the name the store gives a chunk leads back to its file.
                if key is None or seg.name != f"{key.window_start}.seg":
                    logger.warning("ignoring stray file %s", seg)
                    continue
                keys.append(key)
        return sorted(keys)

    def _chunk(self, key: ChunkKey) -> _Chunk:
        """The session's state for ``key``, made on first touch."""
        chunk = self._chunks.get(key)
        if chunk is None:
            chunk = self._chunks[key] = _Chunk(key, self._segment_path(key), self.span)
        return chunk

    # -- writes ------------------------------------------------------------

    def insert(self, batch: Iterable[Sample]) -> InsertReport:
        """Append samples, one write per touched chunk; duplicates keep the last write."""
        statuses: list[str] = []
        groups: dict[ChunkKey, list[tuple[int, int, float]]] = {}
        with self._lock:
            self._ensure_open()
            for i, (sensor, ts, v) in enumerate(batch):
                if ts <= 0:
                    statuses.append("bad-ts")
                elif not math.isfinite(v):
                    statuses.append("nonfinite")
                else:
                    statuses.append(ACK)
                    key = ChunkKey(sensor, ts - ts % self.span)
                    groups.setdefault(key, []).append((i, ts, v))
            # The chunk of a sensor's last sample goes last and keeps its handle.
            for key, group in sorted(groups.items(), key=lambda item: item[1][-1][0]):
                self._append(key, group, statuses)
        return InsertReport(statuses)

    def _append(
        self, key: ChunkKey, group: list[tuple[int, int, float]], statuses: list[str]
    ) -> None:
        """Write one chunk's samples; on failure set all their statuses to the reason."""
        chunk = self._chunk(key)
        failure = "corrupt-segment"
        try:
            if chunk.corrupt:
                raise CorruptSegment
            held = chunk.held()
            seen: set[int] = set()
            for i, ts, _ in group:
                if ts in held or ts in seen:
                    statuses[i] = DUPLICATE
                seen.add(ts)
            chunk.append(b"".join([RECORD.pack(ts, v) for _, ts, v in group]), seen)
        except CorruptSegment as exc:
            if not chunk.corrupt:
                logger.error("%s", exc)
                chunk.corrupt = True
        except OSError as exc:
            logger.error("append to %s failed: %s", chunk.path, exc)
            failure = "storage-full" if exc.errno == errno.ENOSPC else "io-error"
        else:
            self._inserted = True
            prev = self._open_per_sensor.get(key.sensor)
            if prev != key:
                if prev is not None:
                    self._chunks[prev].close()
                self._open_per_sensor[key.sensor] = key
            return
        for i, _, _ in group:
            statuses[i] = failure

    # -- reads ------------------------------------------------------------

    def _sensor_chunks(self, sensor: str, t0: int, t1: int) -> list[_Chunk]:
        lo = t0 - t0 % self.span
        return [self._chunk(key) for key in self._keys(sensor) if lo <= key.window_start < t1]

    def _columns(self, sensor: str, t0: int, t1: int) -> tuple[np.ndarray, np.ndarray]:
        """ts-ascending (ts, v) of ``sensor`` with t0 <= ts < t1."""
        ts_parts, v_parts = [np.empty(0, np.int64)], [np.empty(0)]
        for chunk in self._sensor_chunks(sensor, t0, t1):
            chunk.load()
            assert chunk.values is not None
            ts, v = chunk.values
            lo, hi = np.searchsorted(ts, (t0, t1))
            ts_parts.append(ts[lo:hi])
            v_parts.append(v[lo:hi])
        return np.concatenate(ts_parts), np.concatenate(v_parts)

    def query_range(self, sensor: str, t0: int, t1: int) -> list[Sample]:
        """Samples with t0 <= ts < t1, ascending; unknown sensor is empty."""
        if t0 > t1:
            raise ValueError("t0 must not exceed t1")
        with self._lock:
            self._ensure_open()
            ts, v = self._columns(sensor, t0, t1)
        return [Sample(sensor, t, x) for t, x in zip(ts.tolist(), v.tolist())]

    def downsample(
        self, sensor: str, t0: int, t1: int, bucket: int, agg: str
    ) -> list[tuple[int, float]]:
        """Aggregate samples into aligned buckets; empty buckets are omitted."""
        if bucket <= 0:
            raise ValueError("bucket must be positive")
        if agg not in AGGREGATES:
            raise ValueError(f"agg must be one of {AGGREGATES}")
        with self._lock:
            self._ensure_open()
            ts, v = self._columns(sensor, t0, t1)
        if not len(ts):
            return []
        starts = ts - ts % bucket
        # starts >= 0 (stored ts are positive), so a -1 before them opens
        # the first bucket.
        first = np.flatnonzero(np.diff(starts, prepend=-1))
        counts = np.diff(first, append=len(ts))
        if agg == "count":
            values = counts
        elif agg == "avg":
            values = np.add.reduceat(v, first) / counts
        else:
            values = (np.minimum if agg == "min" else np.maximum).reduceat(v, first)
        return list(zip(starts[first].tolist(), values.tolist()))

    def count(self, sensor: str | None = None) -> int:
        """Live (deduplicated) record count, optionally for one sensor."""
        with self._lock:
            self._ensure_open()
            return sum(self._chunk(key).count() for key in self._keys(sensor))

    def sensors(self) -> list[str]:
        with self._lock:
            return sorted({k.sensor for k in self._keys()})

    def chunks(self) -> list[ChunkKey]:
        with self._lock:
            return self._keys()

    # -- maintenance ------------------------------------------------------------

    def retention_sweep(self, now: int, keep: int) -> list[ChunkKey]:
        """Drop whole chunks whose window end <= now - keep."""
        if keep <= 0:
            raise ValueError("keep must be positive")
        cutoff = now - keep
        dropped = []
        with self._lock:
            self._ensure_open()
            for key in self._keys():
                if key.window_start + self.span <= cutoff:
                    chunk = self._chunks.pop(key, None)
                    if chunk is not None:
                        chunk.close()
                    self._segment_path(key).unlink(missing_ok=True)
                    if self._open_per_sensor.get(key.sensor) == key:
                        del self._open_per_sensor[key.sensor]
                    dropped.append(key)
            for key in dropped:
                parent = self._sensor_dir(key.sensor)
                if parent.exists() and not any(parent.iterdir()):
                    parent.rmdir()
            if dropped:
                self._write_manifest()
        return dropped

    def _write_manifest(self) -> None:
        lines = ["# sealed chunks: sensor-key\twindow-start-us\trecords"]
        open_keys = set(self._open_per_sensor.values())
        for key in self._keys():
            if key in open_keys:
                continue
            try:
                records = str(self._chunk(key).count())
            except CorruptSegment:
                records = "corrupt"
            lines.append(f"{key.sensor}\t{key.window_start}\t{records}")
        (self.root / "manifest").write_text("\n".join(lines) + "\n")

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._open_per_sensor.clear()
            for chunk in self._chunks.values():
                chunk.close()
            # Counting records loads every sealed segment, so a read-only
            # session leaves the manifest as the last writer left it.
            if self._inserted:
                self._write_manifest()
            self._chunks.clear()  # a closed store holds no timestamps or columns
            self._closed = True

    def _ensure_open(self) -> None:
        if self._closed:
            raise StoreError("store is closed")

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _decode_segment(raw: bytes) -> tuple[int, int, np.ndarray]:
    """Key hash, window start and whole records (``RECORD_DTYPE``) of a segment.

    A torn trailing record is left out. Raises :class:`CorruptSegment` on a
    short header or a wrong magic or version.
    """
    if len(raw) < HEADER_SIZE:
        raise CorruptSegment("truncated header")
    magic, version, khash, start, _ = HEADER.unpack_from(raw)
    if magic != MAGIC or version != VERSION:
        raise CorruptSegment("bad magic/version")
    whole = (len(raw) - HEADER_SIZE) // RECORD_SIZE
    return khash, start, np.frombuffer(raw, RECORD_DTYPE, whole, HEADER_SIZE)


@dataclass
class SegmentIssue:
    path: str
    problem: str


def verify_segments(root: str | Path, span: int = DEFAULT_CHUNK_SPAN_US) -> list[SegmentIssue]:
    """Scan every segment under ``root`` for partition purity and framing.

    Checks header magic/version, that the key hash and window start match
    the file's location, and that every record ts lies inside the chunk
    window. Returns a list of issues; empty means the store is clean.
    """
    issues: list[SegmentIssue] = []
    root = Path(root)
    for sensor_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        sensor = unquote(sensor_dir.name)
        for seg in sorted(sensor_dir.glob("*.seg")):
            raw = seg.read_bytes()
            try:
                khash, start, records = _decode_segment(raw)
            except CorruptSegment as exc:
                issues.append(SegmentIssue(str(seg), str(exc)))
                continue
            if khash != key_hash(sensor):
                issues.append(SegmentIssue(str(seg), "sensor-key hash mismatch"))
            if start != int(seg.stem):
                issues.append(SegmentIssue(str(seg), "window start mismatch"))
            if (len(raw) - HEADER_SIZE) % RECORD_SIZE:
                issues.append(SegmentIssue(str(seg), "torn trailing record"))
            ts = records["ts"]
            outside = (ts < start) | (ts >= start + span)
            if outside.any():
                first = int(ts[outside.argmax()])
                issues.append(
                    SegmentIssue(str(seg), f"record ts {first} outside window")
                )
    return issues
