"""Embedded time-series store with per-sensor, per-time-window chunks.

Every sample lands in the chunk for its sensor and hour
(``DEFAULT_CHUNK_SPAN_US``); chunks are append-only binary segment files:

    32-byte header: magic "TSEG", version u32 LE, sensor-key hash u64 LE,
                    window start i64 LE (us), 8 reserved bytes
    records:        ts i64 LE (us), value f64 LE, 16 bytes each

Every record is appended; a resent (sensor, ts) is acked like any other
sample and resolved last-write-wins at read time, and out-of-order
arrival within a chunk is normal. The segment file is the only copy of a
chunk's values: every read decodes it anew into ts-sorted numpy columns,
through one function, :func:`_read_segment`, and keeps nothing. Reads,
writes and :func:`verify_segments` judge a segment's header by one rule,
:func:`_check_header`.

The segment files are the store's only state, and the directory is the
chunk table: ``<root>/<quoted sensor>/<window start>.seg``. Opening a
store reads and creates nothing; the first insert makes the root. A query
lists only its sensor's directory, and a retention sweep lists them all.
One walk, :func:`_segments`, owns that naming for the store and
:func:`verify_segments`; any other ``.seg`` name is skipped with a warning.
A writing session keeps a table of at most ``MAX_OPEN_SEGMENTS`` append
handles, keyed by chunk, and closes the least recently written handle
when it needs room for another: a late sample into the previous window
finds its segment still open, and the fds a store holds stay bounded
however many sensors it has. It also keeps the keys of segments found
corrupt; ``close`` releases every handle. The sensor names ``""``, ``.``
and ``..`` would name the root or its parent, so an insert rejects them
as ``bad-sensor`` and a read finds nothing for them.

An insert groups its batch by chunk and gives each touched chunk one
unbuffered ``write`` of its records. A batch of ``COLUMNAR_MIN_BATCH``
samples or more is checked, grouped and packed in one numpy pass; a
smaller one, or one whose stamps and values do not convert to int64 and
float64 columns, one sample at a time; both give the same statuses and
bytes. A write is all or nothing: a short or failed write is cut back,
and only that chunk's samples report the error. No user-space buffer
holds records once ``insert`` returns. One writer per chunk at a time;
readers see whole records only. A torn trailing record is ignored, and
cut off when a writer opens the segment; a file cut inside its header
holds no records, its next append writes the header anew, and ``store
check`` passes it. The store never calls ``fsync``: the cut covers a
process crash only.
"""

from __future__ import annotations

import errno
import hashlib
import logging
import math
import os
import struct
import threading
from array import array
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple
from urllib.parse import quote, unquote

import numpy as np

from .timeutil import TS_END

logger = logging.getLogger(__name__)

MAGIC = b"TSEG"
VERSION = 1
HEADER = struct.Struct("<4sIQq8s")
RECORD = struct.Struct("<qd")
RECORD_DTYPE = np.dtype([("ts", "<i8"), ("v", "<f8")])
HEADER_SIZE = HEADER.size  # 32
RECORD_SIZE = RECORD.size  # 16

DEFAULT_CHUNK_SPAN_US = 3_600_000_000  # 1 hour
MAX_OPEN_SEGMENTS = 128  # append handles a writer keeps open, well below common fd limits
COLUMNAR_MIN_BATCH = 80  # smaller batches take the per-sample rule, which is faster there

ACK = "ack"

AGGREGATES = ("avg", "min", "max", "count")

RESERVED_SENSORS = ("", ".", "..")  # quoted, they name the root or its parent


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


def key_hash(sensor: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(sensor.encode(), digest_size=8).digest(), "little"
    )


def _header(key: ChunkKey) -> bytes:
    return HEADER.pack(MAGIC, VERSION, key_hash(key.sensor), key.window_start, b"\0" * 8)


def _sensor_dir(root: Path, sensor: str) -> Path:
    return root / quote(sensor, safe="")


def _segment_path(root: Path, key: ChunkKey) -> Path:
    return _sensor_dir(root, key.sensor) / f"{key.window_start}.seg"


def _segments(root: Path, sensor: str | None = None) -> Iterator[tuple[ChunkKey, Path]]:
    """``(key, path)`` of each segment under ``root``, of one sensor or of all.

    Only the name the store gives a chunk leads back to its file: any other
    ``.seg`` file, or a directory that is not a quoted sensor name, is
    skipped with a warning.
    """
    if sensor is None:
        dirs = [(unquote(path.name), path) for path in root.iterdir() if path.is_dir()]
    elif sensor in RESERVED_SENSORS:
        return
    else:
        dirs = [(sensor, _sensor_dir(root, sensor))]
    for name, directory in dirs:
        if directory.name != quote(name, safe=""):
            logger.warning("ignoring stray directory %s", directory)
            continue
        for path in directory.glob("*.seg"):
            try:
                key = ChunkKey(name, int(path.stem))
            except ValueError:
                key = None
            if key is None or path.name != f"{key.window_start}.seg":
                logger.warning("ignoring stray file %s", path)
                continue
            yield key, path


def _names_a_chunk(sensor) -> bool:
    """Whether ``sensor`` can name a chunk: a str that UTF-8 can encode and
    that, quoted, names neither the root nor its parent."""
    if not isinstance(sensor, str) or sensor in RESERVED_SENSORS:
        return False
    try:
        sensor.encode()
    except UnicodeEncodeError:  # a lone surrogate
        return False
    return True


def _nonfinite(ts) -> str:
    """Status of a sample whose value is no finite float: ``bad-ts`` still
    goes first, for a ts in range that is not an int, such as 1.5 or 14.0."""
    try:
        RECORD.pack(ts, 0.0)
    except struct.error:
        return "bad-ts"
    return "nonfinite"


def _group_each(rows: list) -> tuple[list[str], list[tuple]]:
    """The statuses of ``rows`` and their chunk writes, one sample at a time.

    A write is ``(last, key, records, indices)``: the batch index of the
    chunk's last sample, the plain ``(sensor, window start)`` tuple, which
    hashes and compares equal to a ``ChunkKey``, the packed records and the
    batch indices of the samples they hold.
    """
    statuses: list[str] = []
    groups: dict[tuple[str, int], tuple[list[int], list[bytes]]] = {}
    span, isfinite, pack = DEFAULT_CHUNK_SPAN_US, math.isfinite, RECORD.pack
    for i, (sensor, ts, v) in enumerate(rows):
        try:
            if not 0 < ts < TS_END:
                statuses.append("bad-ts")
            elif not isfinite(v):
                statuses.append(_nonfinite(ts))
            else:
                record = pack(ts, v)  # a ts that is not an int, such as 1.5, fails here
                key = (sensor, ts - ts % span)
                group = groups.get(key)
                if group is None:
                    groups[key] = ([i], [record])
                else:
                    group[0].append(i)
                    group[1].append(record)
                statuses.append(ACK)
        except OverflowError:  # isfinite of an int beyond float range
            statuses.append(_nonfinite(ts))
        except struct.error:
            statuses.append("bad-ts")
    writes = [(indices[-1], key, b"".join(records), indices)
              for key, (indices, records) in groups.items()]
    return statuses, writes


def _group_columns(rows: list) -> tuple[list[str], list[tuple]] | None:
    """What :func:`_group_each` gives, in one numpy pass over the batch; or
    None for a batch that does not convert to an int64 ts column and a
    float64 value column (a ts such as 1.5 or beyond int64, a value beyond
    float range, a row that is no triple), which the per-sample rule takes."""
    try:
        sensors, stamps, values = zip(*rows)
        ts = np.frombuffer(array("q", stamps), np.int64)
        v = np.frombuffer(array("d", values), np.float64)
        codes = {sensor: code for code, sensor in enumerate(set(sensors))}
    except (TypeError, ValueError, OverflowError):
        return None
    span = DEFAULT_CHUNK_SPAN_US
    if len(codes) > span:  # one key per chunk needs every code below the span
        return None
    # One key per chunk, window start plus sensor code: as uint64 a window
    # start below 2**63 plus a code below the span cannot overflow.
    key = (ts - ts % span).view(np.uint64) + np.fromiter(
        map(codes.__getitem__, sensors), np.uint64, len(sensors))
    statuses = [ACK] * len(rows)
    bad = (ts <= 0) | ~np.isfinite(v)
    if bad.any():
        for i in np.flatnonzero(bad).tolist():
            statuses[i] = "bad-ts" if stamps[i] <= 0 else "nonfinite"
        order = np.flatnonzero(~bad)
        order = order[key[order].argsort(kind="stable")]
    else:
        order = key.argsort(kind="stable")
    # The stable sort keeps each chunk's samples in batch order.
    key = key[order]
    change = np.ones(len(order) + 1, bool)
    change[1:-1] = key[1:] != key[:-1]
    bounds = np.flatnonzero(change)  # each chunk's first sample, then the end
    packed = np.empty((len(order), 2), np.int64)
    packed[:, 0] = ts[order]
    packed[:, 1] = v.view(np.int64)[order]
    records = memoryview(packed.tobytes())
    firsts, lasts = order[bounds[:-1]].tolist(), order[bounds[1:] - 1].tolist()
    order, bounds = order.tolist(), bounds.tolist()
    writes = []
    for a, b, first, last in zip(bounds, bounds[1:], firsts, lasts):
        t = stamps[first]
        writes.append((last, (sensors[first], t - t % span),
                       records[a * RECORD_SIZE:b * RECORD_SIZE], order[a:b]))
    return statuses, writes


@dataclass
class InsertReport:
    """Per-sample outcome of one insert batch."""

    statuses: list[str] = field(default_factory=list)  # ack/<reason>

    @property
    def accepted(self) -> int:
        return self.statuses.count(ACK)

    @property
    def errors(self) -> int:
        return len(self.statuses) - self.accepted


class _Chunk:
    """The append handle of one on-disk segment."""

    def __init__(self, key: ChunkKey, path: Path):
        self.key = key
        self.path = path
        self.size = 0  # bytes of whole records (and header) while open
        self._fh = None

    def open_for_append(self):
        """The open handle; opening reads only the header, and checks it."""
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a+b", buffering=0)
            problem = _check_header(self.key, os.pread(self._fh.fileno(), HEADER_SIZE, 0))
            if problem:
                raise CorruptSegment(f"{self.path}: {problem}")
            size = self._fh.tell()
            # A crash can leave a torn record at the end; appending after it
            # would misframe every record written from here on.
            self.size = size - (size - HEADER_SIZE) % RECORD_SIZE if size >= HEADER_SIZE else 0
            if self.size != size:
                self._fh.truncate(self.size)
        return self._fh

    def append(self, records: bytes) -> None:
        """Write packed records in one write, all or nothing.

        A short or failed write is cut back to the previous end (a new
        segment is removed) and raises :class:`OSError`.
        """
        fh = self.open_for_append()
        if not self.size:
            records = _header(self.key) + records
        try:
            if fh.write(records) != len(records):
                raise OSError(errno.ENOSPC, "short write", str(self.path))
        except OSError:
            if self.size:
                fh.truncate(self.size)
            else:
                self.path.unlink(missing_ok=True)
            raise
        self.size += len(records)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class Store:
    """A sample store rooted at ``root``; its first insert creates the directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():  # reads would find nothing in it
            raise NotADirectoryError(errno.ENOTDIR, "store root is not a directory", str(root))
        self._lock = threading.RLock()
        # Open append handles, least recently written first.
        self._handles: dict[ChunkKey, _Chunk] = {}
        self._corrupt: set[ChunkKey] = set()  # refused, and logged once, this session
        self._closed = False

    def _on_disk(self, sensor: str | None = None) -> list[tuple[ChunkKey, Path]]:
        """``(key, path)`` of the segments, of one sensor or of all, in key
        order; none before the first insert makes the root."""
        if not self.root.exists():
            return []
        return sorted(_segments(self.root, sensor))

    # -- writes ------------------------------------------------------------

    def insert(self, batch: Iterable[Sample]) -> InsertReport:
        """Append samples, one write per touched chunk; a resent ts keeps the last write.

        Each sample gets a status: ``bad-ts`` for a ts that is not an int in
        ``0 < ts < TS_END``, ``nonfinite`` for a value that is no finite
        float (an int beyond float range among them), ``bad-sensor`` for a
        sensor name that can name no chunk, else what its chunk's write gave.
        A batch of ``COLUMNAR_MIN_BATCH`` samples or more takes the columnar
        pass, where it converts; the per-sample rule is faster below that.
        """
        rows = list(batch)
        with self._lock:
            self._ensure_open()
            grouped = _group_columns(rows) if len(rows) >= COLUMNAR_MIN_BATCH else None
            statuses, writes = grouped or _group_each(rows)
            # The chunk of a sensor's last sample goes last.
            writes.sort(key=itemgetter(0))
            for _, key, records, indices in writes:
                status = self._append(key, records)
                if status is not ACK:
                    for i in indices:
                        statuses[i] = status
        return InsertReport(statuses)

    def _append(self, key: tuple[str, int], records: bytes) -> str:
        """Write one chunk's packed ``records``; the status of its samples.

        The handle goes to the end of the table, which closes its least
        recently written handle first; a failed append closes its handle.
        """
        chunk = self._handles.pop(key, None)
        if chunk is None:
            if not _names_a_chunk(key[0]):  # per chunk opened; a per-sample test costs throughput
                return "bad-sensor"
            if key in self._corrupt:
                return "corrupt-segment"
            if len(self._handles) >= MAX_OPEN_SEGMENTS:
                self._handles.pop(next(iter(self._handles))).close()
            key = ChunkKey(*key)
            chunk = _Chunk(key, _segment_path(self.root, key))
        try:
            chunk.append(records)
        except CorruptSegment as exc:
            logger.error("%s", exc)
            self._corrupt.add(chunk.key)
            failure = "corrupt-segment"
        except OSError as exc:
            logger.error("append to %s failed: %s", chunk.path, exc)
            failure = "storage-full" if exc.errno == errno.ENOSPC else "io-error"
        else:
            self._handles[chunk.key] = chunk
            return ACK
        chunk.close()
        return failure

    # -- reads ------------------------------------------------------------

    def _columns(self, sensor: str, t0: int, t1: int) -> tuple[np.ndarray, np.ndarray]:
        """ts-ascending (ts, v) of ``sensor`` with t0 <= ts < t1; t0 > t1 is refused."""
        if t0 > t1:
            raise ValueError("t0 must not exceed t1")
        ts_parts, v_parts = [np.empty(0, np.int64)], [np.empty(0)]
        first = t0 - t0 % DEFAULT_CHUNK_SPAN_US
        # t0 <= ts < t1 as t0 - 1 < ts <= t1 - 1, with both bounds clamped
        # to the stored range 0 < ts < TS_END: an int beyond int64 would
        # make numpy compare in float64, where TS_END - 1 rounds to TS_END.
        bounds = [min(max(t - 1, 0), TS_END - 1) for t in (t0, t1)]
        for key, path in self._on_disk(sensor):
            if not first <= key.window_start < t1:
                continue
            ts, v = _read_segment(key, path)
            lo, hi = np.searchsorted(ts, bounds, side="right")
            ts_parts.append(ts[lo:hi])
            v_parts.append(v[lo:hi])
        return np.concatenate(ts_parts), np.concatenate(v_parts)

    def query_range(self, sensor: str, t0: int, t1: int) -> list[Sample]:
        """Samples with t0 <= ts < t1, ascending; unknown sensor is empty."""
        with self._lock:
            self._ensure_open()
            ts, v = self._columns(sensor, t0, t1)
        # What Sample._make does, less its length check: each row built in C.
        rows = zip(repeat(sensor), ts.tolist(), v.tolist())
        return list(map(tuple.__new__, repeat(Sample), rows))

    def downsample(
        self, sensor: str, t0: int, t1: int, bucket: int, agg: str
    ) -> list[tuple[int, float]]:
        """Aggregate samples into aligned buckets; empty buckets are omitted.

        ``bucket`` is in microseconds, ``0 < bucket < TS_END``.
        """
        if not 0 < bucket < TS_END:  # numpy would not take a larger one as an int64
            raise ValueError("bucket must be positive and shorter than 2**63 us")
        if agg not in AGGREGATES:
            raise ValueError(f"agg must be one of {AGGREGATES}")
        with self._lock:
            self._ensure_open()
            ts, v = self._columns(sensor, t0, t1)
        if not len(ts):
            return []
        # numpy divides an int64 array by one scalar several times faster
        # than it takes ``%``; a bucket starts where the quotient changes.
        index = ts // bucket
        opens = np.ones(len(ts), bool)
        opens[1:] = index[1:] != index[:-1]
        first = np.flatnonzero(opens)
        counts = np.diff(first, append=len(ts))
        if agg == "count":
            values = counts
        elif agg == "avg":
            values = np.add.reduceat(v, first) / counts
        else:
            values = (np.minimum if agg == "min" else np.maximum).reduceat(v, first)
        return list(zip((index[first] * bucket).tolist(), values.tolist()))

    # -- maintenance ------------------------------------------------------------

    def retention_sweep(self, now: int, keep: int) -> list[ChunkKey]:
        """Drop whole chunks whose window end <= now - keep."""
        if keep <= 0:
            raise ValueError("keep must be positive")
        cutoff = now - keep
        dropped = []
        with self._lock:
            self._ensure_open()
            for key, path in self._on_disk():
                if key.window_start + DEFAULT_CHUNK_SPAN_US <= cutoff:
                    chunk = self._handles.pop(key, None)
                    if chunk is not None:
                        chunk.close()
                    self._corrupt.discard(key)
                    path.unlink(missing_ok=True)
                    dropped.append(key)
            for key in dropped:
                parent = _sensor_dir(self.root, key.sensor)
                if parent.exists() and not any(parent.iterdir()):
                    parent.rmdir()
        return dropped

    def close(self) -> None:
        with self._lock:
            for chunk in self._handles.values():
                chunk.close()
            self._handles.clear()
            self._closed = True

    def _ensure_open(self) -> None:
        if self._closed:
            raise StoreError("store is closed")

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _read_segment(key: ChunkKey, path: Path) -> tuple[np.ndarray, np.ndarray]:
    """ts-ascending, last-write-wins (ts, v) columns of ``key``'s segment.

    Every read decodes the file anew; nothing is kept. A missing file, even
    one listed a moment ago and removed since, or one cut inside its header
    by a crash, holds no records.
    """
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raw = b""
    problem = _check_header(key, raw[:HEADER_SIZE])
    if problem:
        raise CorruptSegment(f"{path}: {problem}")
    records = _records(raw)
    # A stable sort keeps equal stamps in file order, so the last of each
    # run is the stamp's last write.
    ts = records["ts"]
    order = ts.argsort(kind="stable")
    ts = ts[order]
    last = np.ones(len(ts), bool)
    last[:-1] = ts[1:] != ts[:-1]
    return ts[last], records["v"][order[last]]


def _check_header(key: ChunkKey, head: bytes) -> str | None:
    """What is wrong with ``head``, the first ``HEADER_SIZE`` bytes of
    ``key``'s segment, or None if it fits the chunk: a whole header matches
    magic, version, key hash and window start, and fewer bytes (a file empty
    or cut inside its header, so holding no records) begin the header
    ``_header`` writes. The reserved bytes are not read.
    """
    if len(head) < HEADER_SIZE:
        return None if _header(key).startswith(head) else "truncated header"
    magic, version, khash, start, _ = HEADER.unpack(head)
    if magic != MAGIC or version != VERSION:
        return "bad magic/version"
    if khash != key_hash(key.sensor) or start != key.window_start:
        return "header does not match chunk key"
    return None


def _records(raw: bytes) -> np.ndarray:
    """The whole records (``RECORD_DTYPE``) after a segment's header; a torn
    trailing record is left out, and a file cut inside its header has none."""
    whole = max(len(raw) - HEADER_SIZE, 0) // RECORD_SIZE
    return np.frombuffer(raw, RECORD_DTYPE, whole, min(len(raw), HEADER_SIZE))


@dataclass
class SegmentIssue:
    path: str
    problem: str


def verify_segments(root: str | Path) -> list[SegmentIssue]:
    """Scan every segment under ``root`` for partition purity and framing.

    Judges each header by :func:`_check_header`, the rule reads and writes
    apply, so a file cut inside the header the store would write is clean;
    then reports a torn trailing record and the first record ts outside the
    chunk window. The window is ``DEFAULT_CHUNK_SPAN_US`` long, the span the
    store writes with; the segment header does not record it. Lists segments
    as the store does, so a file the store ignores is skipped with the same
    warning. Returns a list of issues; empty means the store is clean.
    """
    issues: list[SegmentIssue] = []
    for key, seg in sorted(_segments(Path(root))):
        raw = seg.read_bytes()
        problem = _check_header(key, raw[:HEADER_SIZE])
        if problem:
            issues.append(SegmentIssue(str(seg), problem))
            continue
        if len(raw) >= HEADER_SIZE and (len(raw) - HEADER_SIZE) % RECORD_SIZE:
            issues.append(SegmentIssue(str(seg), "torn trailing record"))
        ts = _records(raw)["ts"]
        start = key.window_start
        outside = (ts < start) | (ts >= start + DEFAULT_CHUNK_SPAN_US)
        if outside.any():
            first = int(ts[outside.argmax()])
            issues.append(SegmentIssue(str(seg), f"record ts {first} outside window"))
    return issues
