"""Bridge from the bus to the store: validate, transform, batch, count.

Subscribes with a wildcard on all sensor subjects, turns each payload
into a store record, and batch-inserts into the time-series store.
Delivery is at-most-once end to end: a record that fails validation or
storage is counted by reason and never retried; gaps are surfaced through
per-sensor sequence accounting instead.

The bus reader hands each run of messages that one socket read completes
to ``ingest``. A run of payloads all in the simulator's compact form is
decoded in one regex pass, each sample becoming its store record; a run
with any other payload takes the strict JSON rule message by message.
Each message gives its record or its reject reason. ``ingest`` then
counts and queues the whole run under one hold of a lock, with one wake
of the writer. The queue is a bounded list under that lock and its
condition. A full list stalls the reader, so the bus holds the publisher
back; the writer takes up to ``DEFAULT_BATCH_SIZE`` records the moment
its last insert returns (group commit).

Metrics are readable at any time as a consistent snapshot, and optionally
served as plaintext ``GET /metrics``.
"""

from __future__ import annotations

import bisect
import collections
import functools
import logging
import math
import threading
import time
from dataclasses import dataclass, field

from . import wire
from .broker import SLOW_CONSUMER_GRACE
from .client import BusClient, BusError
from .timeutil import now_us
from .tsstore import ACK, Sample, Store
from .wire import Subject

logger = logging.getLogger(__name__)

DEFAULT_WILDCARD = "site.>"
DEFAULT_BATCH_SIZE = 500
DEFAULT_QUEUE_CAP = 10_000
BACKOFF_BASE_S = 1.0
BACKOFF_CAP_S = 30.0
SEQ_WINDOW = 64  # seqs below a sensor's highest that are told apart
_WINDOW_MASK = (1 << SEQ_WINDOW) - 1

#: reject reasons
MALFORMED = "malformed"
NONFINITE = "nonfinite"
BAD_SUBJECT = "bad_subject"
OVERFLOW = "overflow"
STORE = "store"

#: latency histogram upper bounds, microseconds (last bucket is unbounded)
LATENCY_BOUNDS_US = (
    1_000, 5_000, 10_000, 25_000, 50_000, 100_000,
    250_000, 500_000, 1_000_000, 2_500_000, 5_000_000,
)


@dataclass
class StoreRecord:
    """A validated sample bound for the store."""

    sensor_key: str
    ts: int
    v: float
    seq: int
    recv_wall_us: int


@functools.lru_cache(maxsize=wire.SUBJECT_CACHE_SIZE)
def sensor_key(raw: bytes) -> str | None:
    """The stable store key of the sensor subject spelled ``raw``.

    ``site.<site>.daq.<daq>.sensor.<id>`` becomes ``<site>/<daq>/<id>``;
    anything shaped differently gives None, cached as a key is.
    """
    toks = raw.decode("ascii").split(".")
    if len(toks) != 6 or toks[0] != "site" or toks[2] != "daq" or toks[4] != "sensor":
        return None
    return f"{toks[1]}/{toks[3]}/{toks[5]}"


def transform(subject: Subject, payload: bytes, recv_wall_us: int) -> StoreRecord | str:
    """Validate a delivered message and map it onto a store record
    received at ``recv_wall_us``, or name the reason it is rejected."""
    key = sensor_key(subject.raw)
    if key is None:
        return BAD_SUBJECT
    try:
        sample = wire.decode_sample(payload)
    except wire.PayloadError:
        return MALFORMED
    if not math.isfinite(sample.v):
        return NONFINITE
    return StoreRecord(key, sample.ts, sample.v, sample.seq, recv_wall_us)


def transform_run(
    messages: list[tuple[Subject, bytes]], recv_wall_us: int
) -> list[StoreRecord | str]:
    """:func:`transform` over a run of messages: each one's record, or the
    reason it is rejected, in order.

    A run whose payloads are all in the compact form is decoded in one
    pass (``wire.decode_compact_run``) and each sample becomes its record
    directly; any other run takes :func:`transform` message by message.
    """
    samples = wire.decode_compact_run([payload for _, payload in messages])
    if samples is None:
        return [transform(subject, payload, recv_wall_us) for subject, payload in messages]
    out: list[StoreRecord | str] = []
    isfinite = math.isfinite
    for (subject, _), (ts, v, seq) in zip(messages, samples):
        key = sensor_key(subject.raw)
        if key is None:
            out.append(BAD_SUBJECT)
            continue
        out.append(StoreRecord(key, ts, v, seq, recv_wall_us) if isfinite(v) else NONFINITE)
    return out


@dataclass
class IngestMetrics:
    """Point-in-time ingest counters.

    ``received == accepted + sum(rejected.values()) + in_flight`` at every
    snapshot, where ``in_flight`` is the records queued plus the batch being
    inserted; once drained, received = accepted + rejected exactly.
    """

    received: int = 0
    accepted: int = 0
    rejected: dict[str, int] = field(default_factory=dict)
    in_flight: int = 0
    duplicate_seq: int = 0
    seq_gaps: int = 0
    skew_events: int = 0
    latency_counts: list[int] = field(default_factory=list)
    rate_per_s: float = 0.0


def _latency_histogram(timestamps: list[int], wall: int) -> tuple[list[int], int]:
    """Latency histogram and skew count of records stored at ``wall``.

    ``timestamps`` is sorted. A record's latency ``wall - ts`` falls in the
    first bucket whose bound it does not exceed; a record from the future
    (``ts > wall``) counts as skew and as latency 0.
    """
    n = len(timestamps)
    # at_most[i]: records whose latency is at most LATENCY_BOUNDS_US[i]
    at_most = [n - bisect.bisect_left(timestamps, wall - b) for b in LATENCY_BOUNDS_US]
    counts = [b - a for a, b in zip([0] + at_most, at_most + [n])]
    return counts, n - bisect.bisect_right(timestamps, wall)


def render_metrics_text(m: IngestMetrics) -> str:
    """Plaintext name/value lines for the /metrics endpoint."""
    lines = [
        f"received {m.received}",
        f"accepted {m.accepted}",
        f"in_flight {m.in_flight}",
    ]
    for reason in sorted(set(m.rejected) | {MALFORMED, NONFINITE, BAD_SUBJECT, OVERFLOW, STORE}):
        lines.append(f"rejected_{reason} {m.rejected.get(reason, 0)}")
    lines += [
        f"duplicate_seq {m.duplicate_seq}",
        f"seq_gaps {m.seq_gaps}",
        f"skew_events {m.skew_events}",
        f"rate_per_s {m.rate_per_s:.3f}",
    ]
    for bound, count in zip(LATENCY_BOUNDS_US, m.latency_counts):
        lines.append(f"latency_le_{bound}us {count}")
    if m.latency_counts:
        lines.append(f"latency_overflow {m.latency_counts[-1]}")
    return "\n".join(lines) + "\n"


class Connector:
    """Runnable transform connector.

    ``start()`` starts the writer thread, which drains records into the
    store. With a broker address the writer also owns the subscription:
    whenever nothing is queued and no subscription is live (at start, or
    once the client's connection is lost) it connects and subscribes, with
    backoff, and then goes back to writing, since records come only from
    the bus. The bus client's reader thread calls ``ingest``, so a
    connected connector runs these two threads.

    For replay-style use, ``ingest()`` is called directly on a connector
    without a broker address. On one with a broker address, records handed
    to a direct ``ingest()`` during an outage wait until the writer has
    subscribed again, and a full queue holds the caller back.
    """

    def __init__(
        self,
        store: Store,
        broker_addr: tuple[str, int] | None = None,
        wildcard: str = DEFAULT_WILDCARD,
        metrics_port: int | None = None,
        on_insert=None,
    ):
        self.wildcard = Subject.parse(wildcard)  # raises InvalidSubject before any thread starts
        self.store = store
        self.broker_addr = broker_addr
        self.on_insert = on_insert
        self._queue: list[StoreRecord] = []  # records for the writer; under _mlock
        self._mlock = threading.Lock()
        self._cond = threading.Condition(self._mlock)
        self._inserting = 0  # records of the batch in store.insert
        self._last_take = time.monotonic()
        self._received = 0
        self._accepted = 0
        self._rejected: collections.Counter = collections.Counter()
        self._duplicate_seq = 0
        self._seq_gaps = 0
        self._skew = 0
        self._seqs: dict[str, list[int]] = {}  # sensor -> [highest, mask, lowest]
        self._latency_counts = [0] * (len(LATENCY_BOUNDS_US) + 1)
        self._rate_counts: dict[int, int] = {}  # epoch second -> accepted
        self._stop = threading.Event()
        self._ready = threading.Event()
        self._writer: threading.Thread | None = None
        self._client: BusClient | None = None
        self._lost = threading.Event()  # set once no reader can call ingest
        self._lost.set()
        self._http = None  # the /metrics ThreadingHTTPServer, while it serves
        self.metrics_port: int | None = None
        if metrics_port is not None:
            self._start_http(metrics_port)

    # -- ingest path -------------------------------------------------------

    def ingest(self, messages: list[tuple[Subject, bytes]]) -> None:
        """Count a run of delivered ``(subject, payload)`` messages, in
        order, and hand them to the writer.

        The run is transformed by :func:`transform_run`, stamped with one
        receive time; it is then counted and queued under one hold of the
        lock, with one wake of the writer. While the handoff
        is full this waits for the writer to take a batch. Only once the
        writer has taken nothing for ``SLOW_CONSUMER_GRACE`` (the broker's
        own eviction grace) is a record counted as overflow, so a stalled
        store shows up as counted loss before the broker would evict the
        connector. Each record is counted as it is queued or rejected, so
        the counters balance at every snapshot, also while a long run waits.
        """
        records = transform_run(messages, now_us())
        pending, cap = self._queue, DEFAULT_QUEUE_CAP
        wake = False  # the writer may be waiting for the records queued
        with self._mlock:  # the condition's lock, without its Python-level wrapper
            for record in records:
                if isinstance(record, str):
                    self._received += 1
                    self._rejected[record] += 1
                    continue
                if len(pending) >= cap:
                    if wake:
                        self._cond.notify_all()
                        wake = False
                    while len(pending) >= cap:
                        left = self._last_take + SLOW_CONSUMER_GRACE - time.monotonic()
                        if left <= 0:
                            break
                        self._cond.wait(left)
                self._received += 1
                self._track_seq(record)
                if len(pending) < cap:
                    if not pending:  # the grace counts from here
                        self._last_take = time.monotonic()
                        wake = True
                    pending.append(record)
                else:
                    self._rejected[OVERFLOW] += 1
            if wake:
                self._cond.notify_all()

    def _track_seq(self, record: StoreRecord) -> None:
        """Count the seqs a sensor skipped and those it sent twice.

        Per sensor this keeps the highest and lowest seq seen and a mask of
        the ``SEQ_WINDOW`` seqs below the highest: bit ``d - 1`` is set once
        seq ``highest - d`` has arrived. A late seq inside the window that
        was missing fills its gap, or, below the lowest, adds the seqs
        between it and the lowest to the gaps. A seq seen before, or older
        than the window, is a duplicate.
        """
        seq = record.seq
        state = self._seqs.get(record.sensor_key)
        if state is None:
            self._seqs[record.sensor_key] = [seq, 0, seq]
            return
        high, mask, low = state
        if seq > high:
            d = seq - high
            self._seq_gaps += d - 1
            state[0] = seq
            state[1] = ((mask << d) | (1 << d - 1)) & _WINDOW_MASK if d <= SEQ_WINDOW else 0
            return
        d = high - seq
        if d == 0 or d > SEQ_WINDOW or mask >> d - 1 & 1:
            self._duplicate_seq += 1
            return
        state[1] = mask | 1 << d - 1
        if seq < low:
            self._seq_gaps += low - seq - 1
            state[2] = seq
        else:
            self._seq_gaps -= 1

    def _write_loop(self) -> None:
        while (batch := self._take()) or not self._stop.is_set():
            if batch:
                self._insert(batch)
            else:
                self._subscribe()

    def _take(self) -> list[StoreRecord]:
        """Wait for records, then take up to ``DEFAULT_BATCH_SIZE`` at once.

        An empty batch means nothing is queued and no reader is live: the
        writer then subscribes or, once stopped, ends."""
        with self._cond:
            while not self._queue and not (
                self._lost.is_set() and (self._stop.is_set() or self.broker_addr is not None)
            ):
                self._cond.wait()
            batch = self._queue[:DEFAULT_BATCH_SIZE]
            del self._queue[:DEFAULT_BATCH_SIZE]
            self._inserting = len(batch)
            self._last_take = time.monotonic()
            self._cond.notify_all()  # room for a waiting ingest
            return batch

    def _insert(self, batch: list[StoreRecord]) -> None:
        samples = [Sample(r.sensor_key, r.ts, r.v) for r in batch]
        try:
            report = self.store.insert(samples)
            statuses = report.statuses
        except Exception as exc:  # storage failure: count, do not retry
            logger.error("store insert failed: %s", exc)
            statuses = [STORE] * len(batch)
        wall = now_us()
        second = wall // 1_000_000
        stored = [r for r, status in zip(batch, statuses) if status == ACK]
        if self.on_insert is not None:
            for record in stored:
                self.on_insert(record, wall)
        # Count the batch before taking the lock, which then adds totals only.
        latency, skew = _latency_histogram(sorted([r.ts for r in stored]), wall)
        failed = len(batch) - len(stored)
        with self._cond:
            if stored:
                self._accepted += len(stored)
                self._rate_counts[second] = self._rate_counts.get(second, 0) + len(stored)
                for i, count in enumerate(latency):
                    self._latency_counts[i] += count
                self._skew += skew
            if failed:
                self._rejected[STORE] += failed
            if len(self._rate_counts) > 64:
                for s in sorted(self._rate_counts)[:-16]:
                    del self._rate_counts[s]
            self._inserting = 0
            self._cond.notify_all()  # a batch is counted: wakes drain()

    # -- metrics ------------------------------------------------------------

    def metrics_snapshot(self) -> IngestMetrics:
        with self._mlock:
            second = now_us() // 1_000_000
            recent = sum(
                count
                for s, count in self._rate_counts.items()
                if second - 10 < s <= second
            )
            return IngestMetrics(
                received=self._received,
                accepted=self._accepted,
                rejected=dict(self._rejected),
                in_flight=len(self._queue) + self._inserting,
                duplicate_seq=self._duplicate_seq,
                seq_gaps=self._seq_gaps,
                skew_events=self._skew,
                latency_counts=list(self._latency_counts),
                rate_per_s=recent / 10.0,
            )

    def wait_ready(self, timeout: float = 10.0) -> bool:
        """Block until the broker has acknowledged the wildcard SUB."""
        return self._ready.wait(timeout)

    def drain(self, timeout: float = 30.0) -> bool:
        """Wait until everything received has been stored or rejected."""
        with self._cond:
            return self._cond.wait_for(
                lambda: not self._queue and not self._inserting, timeout
            )

    # -- subscription --------------------------------------------------------

    def start(self) -> "Connector":
        """Start the writer and return at once; with a broker address the
        writer subscribes before it writes (see ``wait_ready``)."""
        self._writer = threading.Thread(
            target=self._write_loop, name="connector-writer", daemon=True
        )
        self._writer.start()
        return self

    def _subscribe(self) -> None:
        """Connect and subscribe, retrying with backoff, until subscribed
        or stopped."""
        backoff = BACKOFF_BASE_S
        if self._ready.is_set():
            self._ready.clear()
            logger.warning("broker connection lost; reconnecting")
            if self._stop.wait(backoff):
                return
        while not self._stop.is_set():
            client, lost = None, threading.Event()
            try:
                client = BusClient(
                    *self.broker_addr, on_disconnect=functools.partial(self._on_lost, lost)
                )
                self._client, self._lost = client, lost
                # a stop() that read self._client before it was stored ends here
                if not self._stop.is_set():
                    client.subscribe(self.wildcard, self.ingest)
                    logger.info("subscribed to %s", self.wildcard)
                    self._ready.set()
                    return
            except (OSError, BusError) as exc:
                logger.warning(
                    "broker connect failed (%s); retrying in %.1fs", exc, backoff
                )
            if client is not None:
                client.close()
            if self._stop.wait(backoff):
                return
            backoff = min(backoff * 2, BACKOFF_CAP_S)

    def _on_lost(self, lost: threading.Event) -> None:
        """A client's reader has ended; wake the writer. Each client sets
        its own event, so a late one from a client given up on starts no
        second subscription."""
        lost.set()
        with self._cond:
            self._cond.notify_all()

    def stop(self) -> None:
        """Close the live client, store or reject everything its reader
        handed over, then end the writer."""
        self._stop.set()
        if self._client is not None:
            self._client.close()  # its reader ends, then the writer drains
        with self._cond:
            self._cond.notify_all()
        if self._writer is not None:
            self._writer.join(timeout=10)
        self._ready.clear()
        if self._http is not None:
            self._http.shutdown()
            self._http.server_close()
            self._http = None

    def __enter__(self) -> "Connector":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- http ------------------------------------------------------------

    def _start_http(self, port: int) -> None:
        # Imported here, its one use, so a process that serves no metrics skips it.
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        connector = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 (stdlib naming)
                if self.path != "/metrics":
                    self.send_error(404)
                    return
                body = render_metrics_text(connector.metrics_snapshot()).encode()
                self.send_response(200)
                self.send_header("Content-Type", "text/plain; charset=utf-8")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        self._http = ThreadingHTTPServer(("127.0.0.1", port), Handler)
        self.metrics_port = self._http.server_address[1]
        threading.Thread(
            target=self._http.serve_forever, name="connector-metrics", daemon=True
        ).start()
