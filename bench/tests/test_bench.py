"""Tests of the benchmark itself: its checks reject wrong outputs, and every
workload runs to a correct result at smoke size.

Run with ``python -m pytest bench/tests -q`` from the repository root; the
repository's default ``pytest`` collection (``tests/``) does not include them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import common
import etl_archive
from paveharvest import cli
from paveharvest.timeutil import format_rfc3339
from paveharvest.tsstore import Sample, Store

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# --- store and live checks on real store output -------------------------------------


@pytest.fixture
def stored(tmp_path):
    """A small store with a resend, and the numpy reference for it."""
    rng = np.random.default_rng(5)
    sensors = ["65/1/epc0", "65/1/t1"]
    sensor = np.repeat([0, 1], 400)
    ts = np.tile(1_717_200_000_000_000 + np.arange(1, 401) * 1_000_000, 2)
    v = rng.normal(100, 5, len(ts))
    # resend sample 10 of sensor 0 with a new value, last in arrival order
    sensor, ts, v = np.append(sensor, 0), np.append(ts, ts[10]), np.append(v, v[10] + 1.0)
    with Store(tmp_path / "db") as store:
        store.insert([Sample(sensors[s], t, x) for s, t, x in zip(sensor.tolist(), ts.tolist(), v.tolist())])
    ref = checks.last_write_wins(sensor, ts, v, len(sensors))
    return tmp_path / "db", sensors, ref, v[-1]


def test_last_write_wins_follows_arrival_order(stored):
    _, _, ref, resent = stored
    ts0, v0 = ref[0]
    assert len(ts0) == 400 and np.all(np.diff(ts0) > 0)
    assert v0[10] == resent
    assert len(ref[1][0]) == 400


def test_readback_rejects_perturbed_value_and_dropped_sample(stored):
    root, sensors, ref, _ = stored
    expected = {s: dict(zip(ref[i][0].tolist(), ref[i][1].tolist())) for i, s in enumerate(sensors)}
    with Store(root) as store:
        got = {s: store.query_range(s, 0, 2**62) for s in sensors}
    assert checks.check_readback(expected, got) == []

    perturbed = {s: list(rows) for s, rows in got.items()}
    row = perturbed[sensors[0]][7]
    perturbed[sensors[0]][7] = Sample(row.sensor, row.ts, row.v + 1e-9)
    assert checks.check_readback(expected, perturbed)

    dropped = {s: list(rows) for s, rows in got.items()}
    del dropped[sensors[1]][123]
    assert checks.check_readback(expected, dropped)

    doubled = {s: list(rows) for s, rows in got.items()}
    doubled[sensors[1]].append(doubled[sensors[1]][0])
    assert checks.check_readback(expected, doubled)


def test_export_rows_reject_perturbed_value_and_dropped_sample(stored):
    root, sensors, ref, _ = stored
    with Store(root) as store:
        rows = store.query_range(sensors[0], 0, 2**62)
    assert checks.check_rows(*ref[0], rows) == []
    assert checks.check_rows(*ref[0], rows[:50] + rows[51:])
    bad = list(rows)
    bad[3] = Sample(bad[3].sensor, bad[3].ts, bad[3].v * (1 + 1e-15))
    assert checks.check_rows(*ref[0], bad)


@pytest.mark.parametrize("agg", ["avg", "min", "max"])
def test_session_buckets_reject_one_bucket_off(stored, agg, capsys):
    root, sensors, ref, _ = stored
    ts0, v0 = ref[0]
    t0, t1 = int(ts0[0]), int(ts0[-1]) + 1
    capsys.readouterr()
    assert cli.main(["store", "query", "--store", str(root), "--sensor", sensors[0],
                     "--from", format_rfc3339(t0), "--to", format_rfc3339(t1),
                     "--bucket", "1m", "--agg", agg]) == 0
    got = checks.parse_query_csv(capsys.readouterr().out)
    starts, values = checks.reference_buckets(ts0, v0, 60_000_000, agg)
    assert checks.check_buckets(starts, values, got, agg) == []
    off = list(got)
    off[2] = (off[2][0], off[2][1] * (1 + 1e-9))
    assert checks.check_buckets(starts, values, off, agg)
    assert checks.check_buckets(starts, values, got[:-1], agg)


def test_session_raw_rows_parse_back_exactly(stored, capsys):
    root, sensors, ref, _ = stored
    ts1, v1 = ref[1]
    capsys.readouterr()
    assert cli.main(["store", "query", "--store", str(root), "--sensor", sensors[1],
                     "--from", format_rfc3339(int(ts1[0])),
                     "--to", format_rfc3339(int(ts1[-1]) + 1)]) == 0
    got = checks.parse_query_csv(capsys.readouterr().out)
    assert checks.check_rows(ts1, v1, got) == []
    assert checks.check_rows(ts1, v1, got[1:])


def test_connector_counts_reject_loss_and_rejects():
    ok = {"received": 10, "accepted": 10, "rejected": {}, "seq_gaps": 0}
    assert checks.check_connector_counts(10, ok) == []
    assert checks.check_connector_counts(11, ok)
    assert checks.check_connector_counts(10, {**ok, "rejected": {"overflow": 1}})
    assert checks.check_connector_counts(10, {**ok, "seq_gaps": 2})


# --- ETL checks on real etl output --------------------------------------------------


@pytest.fixture(scope="module")
def etl_tables(tmp_path_factory):
    work = tmp_path_factory.mktemp("etl")
    expect = etl_archive.make_archive(4, work / "archive")
    out = work / "tables"
    assert cli.main(["etl", "process", "--in", str(work / "archive"), "--out", str(out)]) == 0
    for table in ("data", "laser"):
        assert cli.main(["etl", "join", "--data", str(out / f"{table}.csv"),
                         "--fileinfo", str(out / "file_info.csv"),
                         "--out", str(out / f"joined_{table}.csv")]) == 0
    return out, expect


def _without_line(path: Path, index: int) -> None:
    lines = path.read_text().splitlines(keepends=True)
    del lines[index]
    path.write_text("".join(lines))


def test_etl_tables_pass_then_fail_with_one_row_missing(etl_tables, tmp_path):
    out, expect = etl_tables
    assert etl_archive.check_tables(out, expect) == []

    for table, line in (("data", 5), ("joined_data", 5), ("laser", 100), ("joined_laser", 100)):
        broken = tmp_path / table
        shutil.copytree(out, broken)
        _without_line(broken / f"{table}.csv", line)
        assert etl_archive.check_tables(broken, expect), table


def test_etl_smoothing_check_rejects_a_perturbed_value():
    rng = np.random.default_rng(1)
    y = np.cumsum(rng.normal(0, 1, 400))
    half = 25
    smoothed = np.array([checks.lsq_center(y, i, half) if half <= i < len(y) - half else 0.0
                         for i in range(len(y))])
    probes = range(half, len(y) - half, 10)
    assert checks.check_smoothed(y, smoothed, half, probes) == []
    smoothed[half + 20] *= 1 + 1e-8
    assert checks.check_smoothed(y, smoothed, half, probes)


# --- speed scaling -------------------------------------------------------------------


def test_probe_allocates_no_tracked_object():
    """No collection can start inside a probe, so it reads the CPU, not the heap."""
    import gc

    gc.disable()
    try:
        before = gc.get_count()[0]
        assert common.probe() > 0
        assert gc.get_count()[0] - before < 5
    finally:
        gc.enable()


def test_times_scale_with_the_probes_around_them():
    ref = common.PROBE_REF_S
    assert common.at_reference_speed(2.0, [ref, ref]) == pytest.approx(2.0)
    # a part that ran at half speed, read before and after it
    assert common.at_reference_speed(2.0, [2 * ref, 2 * ref]) == pytest.approx(1.0)
    assert common.at_reference_speed(3.0, [ref, 2 * ref]) == pytest.approx(2.0)


# --- whole runs at smoke size ------------------------------------------------------


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload, trace):
    p = _run(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)])
    assert p.returncode == 0, p.stderr[-3000:]
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, p.stderr[-3000:]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert [m["name"] for m in wanted] == list(result["metrics"])
    assert all(m["unit"] == result["metrics"][m["name"]]["unit"] for m in wanted)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(line.startswith("machine ") for line in lines)


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    p = _run(["--workload", "live_telemetry", "--seed", "1", "--seconds", "1"], cwd=tmp_path)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
