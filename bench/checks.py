"""Correctness checks of the program's outputs.

Each check compares an output against a reference computed here from the
generated inputs, or against a property the method must have, and returns
a list of problems (empty when the output is right). None of them reads a
saved copy of an earlier output.
"""

from __future__ import annotations

import csv
import io

import numpy as np

MAX_PROBLEMS = 5

# --- live telemetry and store reads ---------------------------------------------


def check_readback(expected: dict[str, dict[int, float]], got: dict[str, list]) -> list[str]:
    """Every expected (sensor, ts) is read back exactly once with exactly its value.

    ``got`` maps a sensor to the rows a query returned, each ``(sensor, ts, v)``
    or ``(ts, v)``; rows of sensors that were never expected are extras.
    """
    problems: list[str] = []
    for sensor in sorted(set(expected) | set(got)):
        want = expected.get(sensor, {})
        rows = got.get(sensor, [])
        seen: set[int] = set()
        for row in rows:
            ts, v = row[-2], row[-1]
            if ts in seen:
                problems.append(f"{sensor}: ts {ts} read back twice")
            seen.add(ts)
            if ts not in want:
                problems.append(f"{sensor}: ts {ts} was never written")
            elif v != want[ts]:
                problems.append(f"{sensor}: ts {ts} reads {v!r}, wrote {want[ts]!r}")
        missing = len(set(want) - seen)
        if missing:
            problems.append(f"{sensor}: {missing} written sample(s) not read back")
        if len(problems) >= MAX_PROBLEMS:
            break
    return problems[:MAX_PROBLEMS]


def check_connector_counts(published: int, metrics: dict) -> list[str]:
    """The connector saw every published sample and accepted each one."""
    problems = []
    if not (metrics["received"] == metrics["accepted"] == published):
        problems.append(
            f"published {published}, received {metrics['received']}, "
            f"accepted {metrics['accepted']}"
        )
    if any(metrics["rejected"].values()):
        problems.append(f"rejected {metrics['rejected']}")
    if metrics["seq_gaps"]:
        problems.append(f"{metrics['seq_gaps']} sequence gap(s)")
    return problems


def last_write_wins(sensor_idx, ts, v, n_sensors: int):
    """Per-sensor ``(ts, v)`` arrays, ascending, keeping the last write of each ts.

    Arrival order is the order of the input arrays.
    """
    order = np.lexsort((np.arange(len(ts)), ts, sensor_idx))  # stable by arrival
    s, t, val = sensor_idx[order], ts[order], v[order]
    last = np.ones(len(t), dtype=bool)
    last[:-1] = (s[1:] != s[:-1]) | (t[1:] != t[:-1])
    s, t, val = s[last], t[last], val[last]
    bounds = np.searchsorted(s, np.arange(n_sensors + 1))
    return [(t[bounds[i]:bounds[i + 1]], val[bounds[i]:bounds[i + 1]]) for i in range(n_sensors)]


def check_rows(ref_ts: np.ndarray, ref_v: np.ndarray, rows: list) -> list[str]:
    """Rows ``(…, ts, v)`` equal the reference exactly, in order."""
    got_ts = np.array([r[-2] for r in rows], dtype=np.int64)
    got_v = np.array([r[-1] for r in rows], dtype=np.float64)
    if len(got_ts) != len(ref_ts):
        return [f"{len(got_ts)} rows, expected {len(ref_ts)}"]
    bad = np.flatnonzero((got_ts != ref_ts) | (got_v != ref_v))
    if len(bad):
        i = bad[0]
        return [f"{len(bad)} row(s) differ, first at ts {ref_ts[i]}: "
                f"({got_ts[i]}, {got_v[i]!r}) vs ({ref_ts[i]}, {ref_v[i]!r})"]
    return []


def reference_buckets(ts: np.ndarray, v: np.ndarray, bucket: int, agg: str):
    """Aligned buckets over ascending ``ts``: starts and the aggregate, empty ones omitted."""
    starts = ts - ts % bucket
    keys, first = np.unique(starts, return_index=True)
    if agg == "avg":
        values = np.add.reduceat(v, first) / np.diff(np.append(first, len(v)))
    elif agg == "min":
        values = np.minimum.reduceat(v, first)
    elif agg == "max":
        values = np.maximum.reduceat(v, first)
    elif agg == "count":
        values = np.diff(np.append(first, len(v))).astype(float)
    else:
        raise ValueError(agg)
    return keys, values


def check_buckets(ref_starts, ref_values, got: list, agg: str) -> list[str]:
    """Downsample output equals the reference; ``avg`` to rel 1e-12, others exactly."""
    got_starts = np.array([g[0] for g in got], dtype=np.int64)
    got_values = np.array([g[1] for g in got], dtype=np.float64)
    if len(got_starts) != len(ref_starts) or np.any(got_starts != ref_starts):
        return [f"{agg}: bucket starts differ ({len(got_starts)} vs {len(ref_starts)})"]
    if agg == "avg":
        bad = np.abs(got_values - ref_values) > 1e-12 * np.abs(ref_values)
    else:
        bad = got_values != ref_values
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        return [f"{agg}: {int(bad.sum())} bucket(s) off, first at {ref_starts[i]}: "
                f"{got_values[i]!r} vs {ref_values[i]!r}"]
    return []


def parse_query_csv(text: str) -> list[tuple[int, float]]:
    """Rows of ``store query`` output, as ``(ts_us, value)``."""
    from datetime import datetime

    lines = text.splitlines()
    if not lines or lines[0] != "ts_rfc3339,value":
        raise ValueError("query output lacks its header")
    out = []
    for line in lines[1:]:
        stamp, value = line.split(",")
        dt = datetime.fromisoformat(stamp.replace("Z", "+00:00"))
        whole = int(dt.replace(microsecond=0).timestamp()) * 1_000_000
        out.append((whole + dt.microsecond, float(value)))
    return out


# --- ETL archive ------------------------------------------------------------------


def read_csv(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def check_asg(rows: list[dict], peak_times: list[float], dt: float, channels: int) -> list[str]:
    """One F20/L20 ASG file: per channel 40 labeled maxima and 200 envelope rows,
    maxima within a sample and a half of the generated pulse peaks."""
    problems = []
    by_gage: dict[str, list[dict]] = {}
    for r in rows:
        by_gage.setdefault(r["gage_id"], []).append(r)
    if len(by_gage) != channels:
        return [f"{len(by_gage)} channel(s) in output, expected {channels}"]
    want = np.array(peak_times[:20] + peak_times[-20:])
    for gage, rs in sorted(by_gage.items()):
        maxima = [r for r in rs if r["extrema"] == "maxima"]
        envelope = [r for r in rs if r["extrema"] == "envelope"]
        labels = [r["captured_instance"] for r in maxima]
        if len(maxima) != 40 or labels.count("first20") != 20 or labels.count("last20") != 20:
            problems.append(f"gage {gage}: {len(maxima)} labeled maxima, expected 20 + 20")
            continue
        if len(envelope) != 200:
            problems.append(f"gage {gage}: {len(envelope)} envelope rows, expected 200")
        got = np.array(sorted(float(r["seconds_elapsed"]) for r in maxima))
        if np.max(np.abs(got - want)) > 1.5 * dt:
            problems.append(f"gage {gage}: maxima not at the generated pulse peaks")
    return problems


def check_extrema_counts(rows: list[dict], periods: int) -> list[str]:
    """PC/TC: as many maxima and as many minima as generated periods."""
    n_max = sum(r["extrema"] == "maxima" for r in rows)
    n_min = sum(r["extrema"] == "minima" for r in rows)
    if n_max != periods or n_min != periods:
        return [f"{n_max} maxima and {n_min} minima, expected {periods} each"]
    return []


def check_laser(rows: list[dict], n_samples: int) -> list[str]:
    """Every sample kept, numbered 1..n, with ``horiz_mm = n * 1384 / 8088``."""
    numbers = [int(r["sample_number"]) for r in rows]
    if numbers != list(range(1, n_samples + 1)):
        return [f"{len(numbers)} laser rows, expected samples 1..{n_samples}"]
    horiz = np.array([float(r["horiz_mm"]) for r in rows])
    want = np.arange(1, n_samples + 1) * 1384.0 / 8088.0
    if np.max(np.abs(horiz - want)) > 1e-9:
        return ["horiz_mm differs from sample_number * 1384 / 8088"]
    return []


def lsq_center(y: np.ndarray, i: int, half: int, order: int = 2) -> float:
    """Least-squares polynomial fit over ``y[i-half : i+half+1]``, read at ``i``."""
    x = np.arange(-half, half + 1, dtype=float) / half
    return float(np.polyfit(x, y[i - half:i + half + 1], order)[-1])


def check_smoothed(y_raw: np.ndarray, got: np.ndarray, half: int, probes) -> list[str]:
    """Interior smoothed values equal an independent per-window fit, rel <= 1e-9.

    ``got`` went through the CSV's 9 fractional digits, so it may also be
    off by half a unit in that place.
    """
    for i in probes:
        want = lsq_center(y_raw, i, half)
        if abs(got[i] - want) > max(1e-9 * abs(want), 5.1e-10):
            return [f"smoothed value {got[i]!r} at sample {i} vs fit {want!r}"]
    return []


def check_join(data_header, data_rows, info_rows, joined_header, joined_rows,
               filenames: set[str]) -> list[str]:
    """``etl join`` keeps every row, file ids are dense from 1, names resolve."""
    problems = []
    ids = [int(r[0]) for r in info_rows]
    if ids != list(range(1, len(ids) + 1)):
        problems.append("file_info ids are not dense from 1")
    if {r[1] for r in info_rows} != filenames:
        problems.append("file_info does not list exactly the archive's files")
    if len(joined_rows) != len(data_rows):
        problems.append(f"join kept {len(joined_rows)} of {len(data_rows)} rows")
        return problems
    by_id = {r[0]: r[1] for r in info_rows}
    for d, j in zip(data_rows, joined_rows):
        if j[0] != by_id.get(d[0]) or j[1:len(d)] != d[1:]:
            problems.append(f"joined row {j[:3]} does not match data row {d[:3]}")
            break
    if joined_header[0] != "filename" or joined_header[1:len(data_header)] != data_header[1:]:
        problems.append("joined header does not extend the data header")
    return problems
