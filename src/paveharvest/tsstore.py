"""Embedded time-series store with per-sensor, per-time-window chunks.

Every sample lands in the chunk for its sensor and hour (default span);
chunks are append-only binary segment files:

    32-byte header: magic "TSEG", version u32 LE, sensor-key hash u64 LE,
                    window start i64 LE (us), 8 reserved bytes
    records:        ts i64 LE (us), value f64 LE, 16 bytes each

Duplicates on (sensor, ts) are reported and resolved last-write-wins at
read time; out-of-order arrival within a chunk is normal and sorted
lazily on first read. A ``manifest`` sidecar at the root lists sealed
chunks; it is rewritten by a retention sweep and on closing a store that
took inserts. One writer per chunk at a time; readers see fully flushed
records only (a torn trailing record is ignored).
"""

from __future__ import annotations

import bisect
import hashlib
import logging
import math
import struct
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple
from urllib.parse import quote, unquote

logger = logging.getLogger(__name__)

MAGIC = b"TSEG"
VERSION = 1
HEADER = struct.Struct("<4sIQq8s")
RECORD = struct.Struct("<qd")
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
    accepted: int = 0
    duplicates: int = 0
    errors: int = 0

    def note(self, status: str) -> None:
        self.statuses.append(status)
        if status == ACK:
            self.accepted += 1
        elif status == DUPLICATE:
            self.duplicates += 1
        else:
            self.errors += 1


class _Chunk:
    """In-process state for one on-disk segment."""

    def __init__(self, key: ChunkKey, path: Path, span: int):
        self.key = key
        self.path = path
        self.span = span
        self.values: dict[int, float] | None = None  # ts -> last value
        self.sorted_view: list[tuple[int, float]] | None = None
        self.corrupt = False
        self._fh = None

    @property
    def window_end(self) -> int:
        return self.key.window_start + self.span

    def load(self) -> None:
        if self.values is not None:
            return
        values: dict[int, float] = {}
        if self.path.exists():
            raw = self.path.read_bytes()
            self._check_header(raw)
            body = raw[HEADER_SIZE:]
            usable = len(body) - len(body) % RECORD_SIZE  # drop torn tail
            for ts, v in RECORD.iter_unpack(body[:usable]):
                values[ts] = v  # later record wins
        self.values = values

    def _check_header(self, raw: bytes) -> None:
        if len(raw) < HEADER_SIZE:
            raise CorruptSegment(f"{self.path}: truncated header")
        magic, version, khash, start, _ = HEADER.unpack_from(raw)
        if magic != MAGIC or version != VERSION:
            raise CorruptSegment(f"{self.path}: bad magic/version")
        if khash != key_hash(self.key.sensor) or start != self.key.window_start:
            raise CorruptSegment(f"{self.path}: header does not match chunk key")

    def open_for_append(self):
        if self._fh is None:
            new = not self.path.exists()
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "ab")
            if new:
                self._fh.write(
                    HEADER.pack(
                        MAGIC,
                        VERSION,
                        key_hash(self.key.sensor),
                        self.key.window_start,
                        b"\0" * 8,
                    )
                )
        return self._fh

    def append(self, ts: int, v: float) -> None:
        self.open_for_append().write(RECORD.pack(ts, v))
        assert self.values is not None
        self.values[ts] = v
        self.sorted_view = None

    def view(self) -> list[tuple[int, float]]:
        """ts-sorted, last-write-wins view; cached until the next write."""
        if self.sorted_view is None:
            self.load()
            assert self.values is not None
            self.sorted_view = sorted(self.values.items())
        return self.sorted_view

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def count(self) -> int:
        self.load()
        assert self.values is not None
        return len(self.values)


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
        self._open_per_sensor: dict[str, ChunkKey] = {}
        self._sealed: set[ChunkKey] = set()
        self._inserted = False  # the manifest is rewritten on close only if set
        self._closed = False
        self._scan()

    # -- layout ------------------------------------------------------------

    def _sensor_dir(self, sensor: str) -> Path:
        return self.root / quote(sensor, safe="")

    def _segment_path(self, key: ChunkKey) -> Path:
        return self._sensor_dir(key.sensor) / f"{key.window_start}.seg"

    def _scan(self) -> None:
        for sensor_dir in sorted(self.root.iterdir()):
            if not sensor_dir.is_dir():
                continue
            sensor = unquote(sensor_dir.name)
            for seg in sorted(sensor_dir.glob("*.seg")):
                try:
                    start = int(seg.stem)
                except ValueError:
                    logger.warning("ignoring stray file %s", seg)
                    continue
                key = ChunkKey(sensor, start)
                self._chunks[key] = _Chunk(key, seg, self.span)
                self._sealed.add(key)

    # -- writes ------------------------------------------------------------

    def insert(self, batch: Iterable[Sample]) -> InsertReport:
        """Append samples to their chunks; duplicates keep the last write."""
        report = InsertReport()
        touched: set[_Chunk] = set()
        with self._lock:
            self._ensure_open()
            for sample in batch:
                status = self._insert_one(sample, touched)
                report.note(status)
            for chunk in touched:
                chunk.flush()
            self._inserted = self._inserted or bool(touched)
        return report

    def _insert_one(self, sample: Sample, touched: set[_Chunk]) -> str:
        sensor, ts, v = sample
        if ts <= 0:
            return "bad-ts"
        if not math.isfinite(v):
            return "nonfinite"
        key = chunk_for(sensor, ts, self.span)
        chunk = self._chunks.get(key)
        if chunk is None:
            chunk = _Chunk(key, self._segment_path(key), self.span)
            self._chunks[key] = chunk
        if chunk.corrupt:
            return "corrupt-segment"
        try:
            chunk.load()
        except CorruptSegment as exc:
            logger.error("%s", exc)
            chunk.corrupt = True
            return "corrupt-segment"
        duplicate = ts in chunk.values  # type: ignore[operator]
        try:
            chunk.append(ts, v)
        except OSError as exc:
            logger.error("append to %s failed: %s", chunk.path, exc)
            return "storage-full" if exc.errno == 28 else "io-error"
        touched.add(chunk)
        self._note_open_chunk(key)
        return DUPLICATE if duplicate else ACK

    def _note_open_chunk(self, key: ChunkKey) -> None:
        prev = self._open_per_sensor.get(key.sensor)
        if prev is not None and prev != key:
            self._seal(prev)
        self._open_per_sensor[key.sensor] = key
        self._sealed.discard(key)

    def _seal(self, key: ChunkKey) -> None:
        chunk = self._chunks.get(key)
        if chunk is not None:
            chunk.flush()
            chunk.close()
        self._sealed.add(key)

    # -- reads ------------------------------------------------------------

    def _sensor_chunks(self, sensor: str, t0: int, t1: int) -> list[_Chunk]:
        lo = t0 - t0 % self.span
        return [
            self._chunks[key]
            for key in sorted(k for k in self._chunks if k.sensor == sensor)
            if lo <= key.window_start < t1
        ]

    def query_range(self, sensor: str, t0: int, t1: int) -> list[Sample]:
        """Samples with t0 <= ts < t1, ascending; unknown sensor is empty."""
        if t0 > t1:
            raise ValueError("t0 must not exceed t1")
        out: list[Sample] = []
        with self._lock:
            self._ensure_open()
            for chunk in self._sensor_chunks(sensor, t0, t1):
                view = chunk.view()
                out.extend(
                    Sample(sensor, ts, v)
                    for ts, v in _slice_view(view, t0, t1)
                )
        return out

    def downsample(
        self, sensor: str, t0: int, t1: int, bucket: int, agg: str
    ) -> list[tuple[int, float]]:
        """Aggregate samples into aligned buckets; empty buckets are omitted."""
        if bucket <= 0:
            raise ValueError("bucket must be positive")
        if agg not in AGGREGATES:
            raise ValueError(f"agg must be one of {AGGREGATES}")
        acc: dict[int, list] = {}
        with self._lock:
            self._ensure_open()
            for chunk in self._sensor_chunks(sensor, t0, t1):
                for ts, v in _slice_view(chunk.view(), t0, t1):
                    start = ts - ts % bucket
                    cell = acc.get(start)
                    if cell is None:
                        acc[start] = [v, v, v, 1]  # sum, min, max, count
                    else:
                        cell[0] += v
                        if v < cell[1]:
                            cell[1] = v
                        if v > cell[2]:
                            cell[2] = v
                        cell[3] += 1
        out = []
        for start in sorted(acc):
            s, mn, mx, n = acc[start]
            value = {"avg": s / n, "min": mn, "max": mx, "count": n}[agg]
            out.append((start, value))
        return out

    def count(self, sensor: str | None = None) -> int:
        """Live (deduplicated) record count, optionally for one sensor."""
        with self._lock:
            self._ensure_open()
            return sum(
                c.count()
                for k, c in self._chunks.items()
                if sensor is None or k.sensor == sensor
            )

    def sensors(self) -> list[str]:
        with self._lock:
            return sorted({k.sensor for k in self._chunks})

    def chunks(self) -> list[ChunkKey]:
        with self._lock:
            return sorted(self._chunks)

    # -- maintenance ------------------------------------------------------------

    def retention_sweep(self, now: int, keep: int) -> list[ChunkKey]:
        """Drop whole chunks whose window end <= now - keep."""
        if keep <= 0:
            raise ValueError("keep must be positive")
        cutoff = now - keep
        dropped = []
        with self._lock:
            self._ensure_open()
            for key in sorted(self._chunks):
                chunk = self._chunks[key]
                if chunk.window_end <= cutoff:
                    chunk.close()
                    chunk.path.unlink(missing_ok=True)
                    del self._chunks[key]
                    self._sealed.discard(key)
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
        for key in sorted(self._sealed):
            chunk = self._chunks.get(key)
            if chunk is None:
                continue
            try:
                records = str(chunk.count())
            except CorruptSegment:
                records = "corrupt"
            lines.append(f"{key.sensor}\t{key.window_start}\t{records}")
        (self.root / "manifest").write_text("\n".join(lines) + "\n")

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            for key in list(self._open_per_sensor.values()):
                self._seal(key)
            self._open_per_sensor.clear()
            for chunk in self._chunks.values():
                chunk.close()
            # Counting records loads every sealed segment, so a read-only
            # session leaves the manifest as the last writer left it.
            if self._inserted:
                self._write_manifest()
            self._closed = True

    def _ensure_open(self) -> None:
        if self._closed:
            raise StoreError("store is closed")

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _slice_view(
    view: list[tuple[int, float]], t0: int, t1: int
) -> list[tuple[int, float]]:
    lo = bisect.bisect_left(view, (t0,))
    hi = bisect.bisect_left(view, (t1,))
    return view[lo:hi]


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
            if len(raw) < HEADER_SIZE:
                issues.append(SegmentIssue(str(seg), "truncated header"))
                continue
            magic, version, khash, start, _ = HEADER.unpack_from(raw)
            if magic != MAGIC or version != VERSION:
                issues.append(SegmentIssue(str(seg), "bad magic/version"))
                continue
            if khash != key_hash(sensor):
                issues.append(SegmentIssue(str(seg), "sensor-key hash mismatch"))
            if start != int(seg.stem):
                issues.append(SegmentIssue(str(seg), "window start mismatch"))
            body = raw[HEADER_SIZE:]
            if len(body) % RECORD_SIZE:
                issues.append(SegmentIssue(str(seg), "torn trailing record"))
            usable = len(body) - len(body) % RECORD_SIZE
            for ts, _v in RECORD.iter_unpack(body[:usable]):
                if not (start <= ts < start + span):
                    issues.append(
                        SegmentIssue(str(seg), f"record ts {ts} outside window")
                    )
                    break
    return issues
