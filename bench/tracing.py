"""Span recording around calls into the program's layers.

A traced run replaces selected functions and methods of ``paveharvest``
modules with wrappers that record one span per call: name, start, end,
the span that was open on the same thread when the call began (its
parent) and an optional size. Spans are kept in per-thread arrays in
memory and written to one ``.npz`` file when the run ends. Untraced runs
install nothing.
"""

from __future__ import annotations

import itertools
import threading
import time
from array import array
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers: list[tuple[array, ...]] = []
        self._buffers_lock = threading.Lock()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _thread_buffers(self):
        loc = self._local
        bufs = getattr(loc, "bufs", None)
        if bufs is None:
            # id, name, parent, size: int64; start, end: float64
            bufs = (array("q"), array("q"), array("q"), array("q"), array("d"), array("d"))
            loc.bufs = bufs
            loc.stack = []
            with self._buffers_lock:
                self._buffers.append(bufs)
        return bufs, loc.stack

    def wrap(self, name, fn, size_of=None):
        """Return ``fn`` wrapped so each call records a span.

        ``name`` is a string, or a callable mapping the call's arguments to
        one (``dsp.smooth`` is split by window that way). ``size_of`` maps
        the arguments to an integer stored with the span.
        """
        fixed = None if callable(name) else self.name_id(name)
        ids = self._ids
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            bufs, stack = self._thread_buffers()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            nid = fixed if fixed is not None else self.name_id(name(*args, **kwargs))
            size = size_of(*args, **kwargs) if size_of is not None else -1
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                bufs[0].append(sid)
                bufs[1].append(nid)
                bufs[2].append(parent)
                bufs[3].append(size)
                bufs[4].append(t0)
                bufs[5].append(t1)

        wrapped.__wrapped__ = fn
        return wrapped

    def patch(self, owner, attr: str, name, size_of=None) -> None:
        """Replace ``owner.attr`` (a module function or a class method) with a wrapper."""
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), size_of))

    def spans(self) -> "Spans":
        with self._buffers_lock:
            bufs = list(self._buffers)
        cols = [np.concatenate([np.frombuffer(b[i], dtype=np.int64 if i < 4 else np.float64)
                                for b in bufs]) if bufs else np.empty(0)
                for i in range(6)]
        return Spans(list(self.names), *cols)

class Spans:
    """Columns of recorded spans, one row per call."""

    def __init__(self, names, ids, name_ids, parents, sizes, starts, ends):
        self.names = list(names)
        self.ids = np.asarray(ids, dtype=np.int64)
        self.name_ids = np.asarray(name_ids, dtype=np.int64)
        self.parents = np.asarray(parents, dtype=np.int64)
        self.sizes = np.asarray(sizes, dtype=np.int64)
        self.starts = np.asarray(starts, dtype=np.float64)
        self.ends = np.asarray(ends, dtype=np.float64)

    def save(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=object),
            ids=self.ids,
            name_ids=self.name_ids,
            parents=self.parents,
            sizes=self.sizes,
            starts=self.starts,
            ends=self.ends,
        )

    @classmethod
    def load(cls, path: Path) -> "Spans":
        with np.load(path, allow_pickle=True) as z:
            return cls(list(z["names"]), z["ids"], z["name_ids"], z["parents"],
                       z["sizes"], z["starts"], z["ends"])

    def select(self, name: str, t0: float = -np.inf, t1: float = np.inf) -> np.ndarray:
        """Row mask of spans called ``name`` that start in ``[t0, t1)``."""
        if name not in self.names:
            return np.zeros(len(self.ids), dtype=bool)
        nid = self.names.index(name)
        return (self.name_ids == nid) & (self.starts >= t0) & (self.starts < t1)

    def calls(self, name: str, t0: float = -np.inf, t1: float = np.inf) -> int:
        return int(self.select(name, t0, t1).sum())

    def busy(self, name: str, t0: float = -np.inf, t1: float = np.inf) -> float:
        """Summed duration of the matching spans, in seconds."""
        m = self.select(name, t0, t1)
        return float((self.ends[m] - self.starts[m]).sum())

    def sizes_of(self, name: str, t0: float = -np.inf, t1: float = np.inf) -> np.ndarray:
        return self.sizes[self.select(name, t0, t1)]

    def self_times(self, name: str) -> dict[int, float]:
        """Span id -> self time for each ``name`` span.

        Self time is the span's duration minus the time covered by its
        direct children; children run on the caller's thread one after
        the other, so their durations do not overlap.
        """
        m = self.select(name)
        own = dict(zip(self.ids[m].tolist(), (self.ends[m] - self.starts[m]).tolist()))
        child = np.isin(self.parents, list(own))
        for parent, dur in zip(self.parents[child].tolist(),
                               (self.ends[child] - self.starts[child]).tolist()):
            own[parent] -= dur
        return own

    def child_busy(self, parent_ids, name: str) -> dict[int, float]:
        """Parent span id -> summed duration of its direct ``name`` children."""
        m = self.select(name) & np.isin(self.parents, list(parent_ids))
        out = {pid: 0.0 for pid in parent_ids}
        for parent, dur in zip(self.parents[m].tolist(), (self.ends[m] - self.starts[m]).tolist()):
            out[parent] += dur
        return out


# --- which program calls each workload traces --------------------------------


def _batch_len(_self, batch, *args, **kwargs) -> int:
    return len(batch)


def trace_bus(tracer: Tracer) -> None:
    """Frame parsing and encoding, on both sides of every connection."""
    from paveharvest import wire

    tracer.patch(wire, "parse_frame", "wire.parse_frame")
    tracer.patch(wire, "encode_frame", "wire.encode_frame")


def trace_live_system(tracer: Tracer) -> None:
    """Broker, router, connector and store calls in the live system process."""
    from paveharvest import broker, connector, tsstore

    trace_bus(tracer)
    tracer.patch(broker.Broker, "route", "broker.route")
    tracer.patch(broker.SubjectRouter, "route", "router.route")
    tracer.patch(connector.Connector, "ingest", "connector.ingest")
    tracer.patch(connector, "transform", "connector.transform")
    tracer.patch(tsstore.Store, "insert", "tsstore.insert", size_of=_batch_len)


def trace_generator(tracer: Tracer) -> None:
    """The load generator's calls into the bus client."""
    from paveharvest import client

    trace_bus(tracer)
    tracer.patch(client.BusClient, "publish", "client.publish")


def trace_store(tracer: Tracer) -> None:
    """Store calls and the CLI's query command around them."""
    from paveharvest import cli, tsstore

    tracer.patch(tsstore.Store, "__init__", "tsstore.open")
    tracer.patch(tsstore.Store, "insert", "tsstore.insert", size_of=_batch_len)
    tracer.patch(tsstore.Store, "query_range", "tsstore.query_range")
    tracer.patch(tsstore.Store, "downsample", "tsstore.downsample")
    tracer.patch(tsstore.Store, "close", "tsstore.close")
    tracer.patch(cli, "cmd_store_query", "cli.store_query")


def _smooth_name(_series, config, *args, **kwargs) -> str:
    return f"dsp.smooth.w{config.window}"


def trace_etl(tracer: Tracer) -> None:
    """ETL stages and the signal processing they call."""
    from paveharvest import dsp, etl

    tracer.patch(etl, "parse_raw_log", "etl.parse_raw_log")
    tracer.patch(etl, "process_file", "etl.process_file")
    tracer.patch(etl, "emit_normalized", "etl.emit")
    tracer.patch(etl, "emit_laser_normalized", "etl.emit")
    tracer.patch(etl, "join_by_filename_id", "etl.join")
    tracer.patch(dsp, "smooth", _smooth_name)
    tracer.patch(dsp, "detect_extrema", "dsp.detect_extrema")
    tracer.patch(dsp, "extract_envelope", "dsp.extract_envelope")
