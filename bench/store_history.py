"""``store_history``: the time-series store alone, well past the size of a live run.

In a fresh interpreter:

1. insert: more than a day of 16 sensors at 1 Hz, in connector-sized
   ``Store.insert`` batches, in arrival order. A share of samples arrive
   late (into chunks already sealed) and a share are resent with new
   values. The store is closed after the insert.
2. sessions: dashboard queries shaped like ``paveharvest store query``,
   each through ``cli.main`` with standard output captured; every session
   opens the store, runs one query and closes it. They cycle through an
   hour of raw rows and a day of 5-minute avg, min and max buckets, for
   sensors and windows drawn from the seed.
3. export: every sensor's full history read from one open store.

Sessions and the export alternate in rounds, two sessions and two
sensors' export each, so both are sampled across the run on a machine
whose speed drifts. Each rate is the median over its parts.

Every output is checked against a numpy reference built from the inputs,
with duplicates resolved last-write-wins by arrival order.
"""

from __future__ import annotations

import contextlib
import gc
import io
import time
from pathlib import Path

import numpy as np

import checks
import common

HOURS_PER_SECOND = 1.35  # of history per --seconds; 20 s gives 27 h
SENSOR_KEYS = [f"65/{daq}/{kind}{i}" for daq in (1, 2) for kind, n in
               (("epc", 3), ("scg", 3), ("t", 1), ("m", 1)) for i in range(n)]
BATCH = 500  # the connector's batch size
LATE_SHARE = 0.005
RESEND_SHARE = 0.005
INSERT_SPAN = 40  # batches per timed insert span
EXPORT_ROUNDS = 8  # the export is read in this many slices, between query sessions
SESSIONS_PER_ROUND = 2
BUCKET = "5m"
BUCKET_US = 300_000_000
HOUR_US = 3_600_000_000
BASE_TS_US = 1_717_200_000_000_000  # 2024-06-01T00:00:00Z


def make_inputs(seed: int, seconds: float):
    """Arrival-ordered ``(sensor index, ts, v)`` arrays and the history's span."""
    rng = np.random.default_rng([seed, 7])
    hours = max(2, round(HOURS_PER_SECOND * seconds))
    n_ticks = hours * 3600
    n_sensors = len(SENSOR_KEYS)
    start = BASE_TS_US + (seed % 97) * 86_400_000_000
    sensor = np.tile(np.arange(n_sensors, dtype=np.int64), n_ticks)
    ts = start + (np.repeat(np.arange(n_ticks, dtype=np.int64), n_sensors) + 1) * 1_000_000
    level = rng.uniform(50, 500, n_sensors)
    v = level[sensor] + rng.standard_normal(len(ts)) * 5.0
    order_key = np.arange(len(ts), dtype=np.float64)

    # late arrivals: delayed by one minute to an hour of traffic
    late = rng.random(len(ts)) < LATE_SHARE
    order_key[late] += rng.integers(60, 3600, late.sum()) * n_sensors + 0.5

    # resends: the same (sensor, ts) again later, with a new value
    resend = np.flatnonzero(rng.random(len(ts)) < RESEND_SHARE)
    sensor = np.concatenate([sensor, sensor[resend]])
    ts = np.concatenate([ts, ts[resend]])
    v = np.concatenate([v, v[resend] + rng.standard_normal(len(resend))])
    order_key = np.concatenate(
        [order_key, order_key[resend] + rng.integers(1, 600, len(resend)) * n_sensors + 0.25])

    order = np.argsort(order_key, kind="stable")
    return sensor[order], ts[order], v[order], (start, start + (n_ticks + 1) * 1_000_000)


def sessions_plan(seed: int, span: tuple[int, int], n_sessions: int):
    """``(kind, sensor, t0, t1, agg)`` per session, cycling through an hour of raw
    rows and a day of avg, min and max buckets, on sensors and windows drawn
    from the seed."""
    rng = np.random.default_rng([seed, 11])
    start, end = span
    hours = (end - start) // HOUR_US
    day = min(24, hours)
    plan = []
    for i in range(n_sessions):
        s = SENSOR_KEYS[int(rng.integers(len(SENSOR_KEYS)))]
        agg = (None, "avg", "min", "max")[i % 4]
        if agg is None:
            h = int(rng.integers(hours))
            plan.append(("raw", s, start + h * HOUR_US, start + (h + 1) * HOUR_US, None))
        else:
            d = int(rng.integers(hours - day + 1))
            plan.append(("bucket", s, start + d * HOUR_US, start + (d + day) * HOUR_US, agg))
    return plan


def session_argv(store_dir: str, kind: str, sensor: str, t0: int, t1: int, agg):
    from paveharvest.timeutil import format_rfc3339

    argv = ["store", "query", "--store", store_dir, "--sensor", sensor,
            "--from", format_rfc3339(t0), "--to", format_rfc3339(t1)]
    if kind == "bucket":
        argv += ["--bucket", BUCKET, "--agg", agg]
    return argv


def child_run(seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    """The in-process part, run by ``worker.py`` after its timed set-up."""
    from paveharvest import cli
    from paveharvest.tsstore import Sample, Store

    import tracing

    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.trace_store(tracer)
    store_dir = str(Path(workdir) / "store")
    sensor, ts, v, span = make_inputs(seed, seconds)
    n = len(ts)

    # 1. insert; the rate is the median over spans of INSERT_SPAN batches
    gc.collect()
    rss0 = common.rss_bytes()
    insert_rates, raw_insert_rates = [], []
    probe = common.probe()
    insert_t0 = time.perf_counter()
    store = Store(store_dir)
    for a in range(0, n, BATCH * INSERT_SPAN):
        span_s = 0.0
        span_n = min(n, a + BATCH * INSERT_SPAN) - a
        for b in range(a, a + span_n, BATCH):
            batch = [Sample(SENSOR_KEYS[s], t, x) for s, t, x in
                     zip(sensor[b:b + BATCH].tolist(), ts[b:b + BATCH].tolist(),
                         v[b:b + BATCH].tolist())]
            t0 = time.perf_counter()
            report = store.insert(batch)
            span_s += time.perf_counter() - t0
            if report.errors:
                raise RuntimeError(f"insert reported {report.errors} error(s)")
        probes = (probe, common.probe())  # the speed before and after the span
        probe = probes[1]
        raw_insert_rates.append(span_n / span_s)
        insert_rates.append(span_n / common.at_reference_speed(span_s, probes))
    rss1 = common.rss_bytes()
    t0 = time.perf_counter()
    store.close()
    close_s = time.perf_counter() - t0
    insert_t1 = time.perf_counter()

    ref = checks.last_write_wins(sensor, ts, v, len(SENSOR_KEYS))
    stored = sum(len(r[0]) for r in ref)
    problems: list[str] = []

    # 2. rounds of query sessions and a slice of the export from one open store,
    # so both are sampled across the rest of the run
    sessions_ms: list[float] = []
    raw_sessions_ms: list[float] = []
    read_bytes: list[int] = []
    export_rates: list[float] = []
    rows = 0
    plan = sessions_plan(seed, span, EXPORT_ROUNDS * SESSIONS_PER_ROUND)
    per_round = len(SENSOR_KEYS) // EXPORT_ROUNDS
    with Store(store_dir) as export_store:
        for r in range(EXPORT_ROUNDS):
            for kind, s, t0_us, t1_us, agg in plan[r * SESSIONS_PER_ROUND:(r + 1) * SESSIONS_PER_ROUND]:
                argv = session_argv(store_dir, kind, s, t0_us, t1_us, agg)
                out = io.StringIO()
                probe = common.probe()
                rchar0 = common.read_chars()
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
                session_s = time.perf_counter() - t0
                raw_sessions_ms.append(session_s * 1000.0)
                sessions_ms.append(
                    common.at_reference_speed(session_s, (probe, common.probe())) * 1000.0)
                read_bytes.append(common.read_chars() - rchar0)
                if code != 0:
                    raise RuntimeError(f"store query exited {code}")
                problems += _check_session(ref[SENSOR_KEYS.index(s)], out.getvalue(), kind,
                                           t0_us, t1_us, agg)
            for i in range(r * per_round, (r + 1) * per_round):
                t0 = time.perf_counter()
                got = export_store.query_range(SENSOR_KEYS[i], 0, 2**62)
                export_rates.append(len(got) / (time.perf_counter() - t0))
                rows += len(got)
                problems += [f"export {SENSOR_KEYS[i]}: {p}" for p in checks.check_rows(*ref[i], got)]
    if rows != stored:
        problems.append(f"export read {rows} rows, stored {stored}")

    result = {
        "problems": problems[: checks.MAX_PROBLEMS],
        "inserted": n,
        "stored": stored,
        "sessions": len(sessions_ms),
        "insert_per_s": common.median(insert_rates),
        "raw_insert_per_s": common.median(raw_insert_rates),
        "raw_session_p50_ms": common.median(raw_sessions_ms),
        "ingest_rss_mb": (rss1 - rss0) / 2**20,
        "close_after_insert_s": close_s,
        "session_p50_ms": common.median(sessions_ms),
        "export_rows_per_s": common.median(export_rates),
        "bytes_per_sample": common.dir_bytes(Path(store_dir)) / stored,
    }
    if tracer is not None:
        spans = tracer.spans()
        spans.save(Path(workdir) / "store.spans.npz")
        result["layers"] = _layer_metrics(spans, (insert_t0, insert_t1), read_bytes,
                                          result["bytes_per_sample"])
    return result


def _check_session(ref, text: str, kind: str, t0: int, t1: int, agg) -> list[str]:
    ref_ts, ref_v = ref
    lo, hi = np.searchsorted(ref_ts, [t0, t1])
    got = checks.parse_query_csv(text)
    if kind == "raw":
        problems = checks.check_rows(ref_ts[lo:hi], ref_v[lo:hi], got)
    else:
        starts, values = checks.reference_buckets(ref_ts[lo:hi], ref_v[lo:hi], BUCKET_US, agg)
        problems = checks.check_buckets(starts, values, got, agg)
    return [f"session {kind} {agg or ''}: {p}" for p in problems]


def _layer_metrics(spans, insert_win, read_bytes, bytes_per_sample) -> dict:
    self_times = spans.self_times("cli.store_query")
    sessions = list(self_times)
    per_session = {name: spans.child_busy(sessions, name) for name in
                   ("tsstore.open", "tsstore.query_range", "tsstore.downsample", "tsstore.close")}
    raw = [sid for sid in sessions if per_session["tsstore.query_range"][sid] > 0]
    bucketed = [sid for sid in sessions if per_session["tsstore.downsample"][sid] > 0]
    session_median = lambda name, ids: common.median(  # noqa: E731
        [per_session[name][sid] for sid in ids])
    exports = spans.select("tsstore.query_range") & ~np.isin(spans.parents, sessions)
    return {
        "tsstore.insert.busy_s": spans.busy("tsstore.insert", *insert_win),
        "tsstore.bytes_per_sample": bytes_per_sample,
        "tsstore.open.busy_s": session_median("tsstore.open", sessions),
        "tsstore.query_range.busy_s": session_median("tsstore.query_range", raw),
        "tsstore.downsample.busy_s": session_median("tsstore.downsample", bucketed),
        "tsstore.close.busy_s": session_median("tsstore.close", sessions),
        "tsstore.session_read_bytes": common.median(read_bytes),
        "cli.store_query.self_s": common.median(list(self_times.values())),
        "tsstore.export.query_range_s": float((spans.ends[exports] - spans.starts[exports]).sum()),
    }


def run(seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    res, setup_s, setup_all = common.run_in_worker(
        "store_history",
        {"seed": seed, "seconds": seconds, "trace": trace, "workdir": str(workdir)},
        workdir / "store_history.json",
    )
    e2e = {
        "setup_s": setup_s,
        "throughput_per_s": res["insert_per_s"],
        "latency_p50_ms": res["session_p50_ms"],
    }
    detail = {
        "store_insert_per_s": res["insert_per_s"],
        "measured_store_insert_per_s": res["raw_insert_per_s"],
        "measured_query_session_p50_ms": res["raw_session_p50_ms"],
        "ingest_rss_mb": res["ingest_rss_mb"],
        "query_session_p50_ms": res["session_p50_ms"],
        "export_rows_per_s": res["export_rows_per_s"],
        "inserted": res["inserted"],
        "stored": res["stored"],
        "sessions": res["sessions"],
        "close_after_insert_s": res["close_after_insert_s"],
        "setup_runs_s": setup_all,
    }
    return {
        "problems": res["problems"],
        "attempted": res["inserted"] + res["sessions"] + len(SENSOR_KEYS),
        "failed": 0,
        "e2e": e2e,
        "detail": detail,
        "layers": res.get("layers", {}),
    }
