"""``etl_archive``: the static path, ``etl process`` then ``etl join``, over a raw-log archive.

The archive covers every sensor kind. Two long two-channel ASG logs (a
first-20 and a last-20 traffic capture) hold most of the rows, so most of
``etl.parse_raw_log``'s work; many short logs of the other kinds each add
the smoother's fixed per-channel edge cost in ``dsp.smooth``. A fresh
interpreter runs rounds of ``paveharvest etl process`` over the archive,
then ``etl join`` of the data and the laser tables, all through
``cli.main``, until ``--seconds`` have passed.
"""

from __future__ import annotations

import hashlib
import time
from pathlib import Path

import numpy as np

import checks
import common

RATE_HZ = 100
PERIOD_S = 10.0
WIDTH_S = 2.0
PAD_S = 20.0
ASG_PASSES = 44  # >= 40, so the first and last twenty are distinct passes
ASG_CHANNELS = 2
SHORT_PER_KIND = 2  # short logs of each kind other than ASG
PC_TC_PERIODS = 6
LASER_SAMPLES = 3000
SMOOTH_PROBES = 25  # interior laser samples checked against an independent fit


def _pulses(n_pass: int, amplitude: float, baseline: float):
    """Noiseless half-sine load passes with flat lead-in and lead-out, so each
    smoothed peak stays at its pass's center."""
    t = np.arange(0.0, n_pass * PERIOD_S + 2 * PAD_S, 1.0 / RATE_HZ)
    tp = t - PAD_S
    x = np.mod(tp, PERIOD_S)
    train = (tp >= 0) & (tp < n_pass * PERIOD_S)
    y = baseline + amplitude * np.where(train & (x < WIDTH_S),
                                        np.sin(np.pi * np.minimum(x, WIDTH_S) / WIDTH_S), 0.0)
    return t, y


def _text(header: dict, t, columns) -> str:
    lines = [f"# {k}: {v}" for k, v in header.items()]
    cols = [np.asarray(c) for c in columns]
    body = np.column_stack([t] + cols)
    fmt = ",".join(["%.3f"] + ["%.6f"] * len(cols))
    lines += [fmt % tuple(row) for row in body]
    return "\n".join(lines) + "\n"


def make_archive(seed: int, root: Path) -> dict:
    """Write the archive under ``root`` and return what each file should yield."""
    rng = np.random.default_rng([seed, 3])
    root.mkdir(parents=True, exist_ok=True)
    expect = {"asg": {}, "extrema": {}, "laser": {}, "rows": 0, "files": set()}

    def write(name: str, header: dict, t, columns):
        (root / name).write_text(_text(header, t, columns))
        expect["rows"] += len(t)
        expect["files"].add(name)

    day = 1 + seed % 28
    peaks = [PAD_S + k * PERIOD_S + WIDTH_S / 2 for k in range(ASG_PASSES)]
    for instance in ("F20", "L20"):
        cols = []
        for _ in range(ASG_CHANNELS):
            t, y = _pulses(ASG_PASSES, float(rng.uniform(0.15, 0.3)), float(rng.uniform(-0.01, 0.01)))
            cols.append(y)
        name = f"Traffic D{1 + seed % 9} {instance} 07-{day:02d}-22.txt"
        write(name, {"kind": "ASG", "unit": "microstrain", "gage": "7,8", "placement": "36,40",
                     "cal_coeff": "0.849,0.851", "rated_output": "5890,5890"}, t, cols)
        expect["asg"][name] = peaks

    fid = 100
    for i in range(SHORT_PER_KIND):
        for kind, rate, period in (("PC", 50, 8.0), ("TC", 10, 30.0)):
            fid += 1
            t = np.arange(0.0, PC_TC_PERIODS * period, 1.0 / rate)
            y = float(rng.uniform(50, 80)) + 5.0 * np.sin(2 * np.pi * t / period)
            name = f"{fid} I69_D{1 + i}_{kind}_{i + 3}_{day:02d}-Jul-2022.txt"
            write(name, {"kind": kind}, t, [y + rng.normal(0, 1e-3, len(t))])
            expect["extrema"][name] = PC_TC_PERIODS
        for kind in ("CSG", "STATIONARY_ET", "STATIONARY_MT", "FWD"):
            fid += 1
            t, y = _pulses(3, float(rng.uniform(0.5, 2.0)), 0.0)
            name = f"{fid} I69_D{1 + i}_{kind.replace('_', '')}_{i + 5}_{day:02d}-Jul-2022.txt"
            write(name, {"kind": kind, "gage": str(i + 5)}, t, [y])
        for kind in ("LASER", "LASER_PRETRAFFIC"):
            fid += 1
            n = np.arange(LASER_SAMPLES)
            t = n * 0.025
            reading = 250.88 - 0.0005 * n + 3.0 * np.exp(-(((n - 1500) / 400.0) ** 2)) \
                + rng.normal(0, 0.05, LASER_SAMPLES)
            beam = np.where(n == 0, 0.0, 20.0)
            name = f"{fid} I69_D{1 + i}_{kind.replace('_', '')}_{i + 1}_{day:02d}-Jul-2022.txt"
            write(name, {"kind": kind, "unit": "mm", "start_time": "10:57:16.47"}, t, [reading, beam])
            # the values as the file holds them, for the independent fit
            expect["laser"][name] = np.array([float(f"{x:.6f}") for x in reading])
    return expect


def child_run(archive: str, workdir: str, seconds: float, trace: bool) -> dict:
    """Rounds of ``etl process`` and ``etl join`` through ``cli.main``; run by ``worker.py``."""
    from paveharvest import cli

    import tracing

    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.trace_etl(tracer)
    out = Path(workdir) / "tables"
    rounds = []
    digests = set()
    probe = common.probe()
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        code = cli.main(["etl", "process", "--in", archive, "--out", str(out)])
        t1 = time.perf_counter()
        joins = [cli.main(["etl", "join", "--data", str(out / f"{table}.csv"),
                           "--fileinfo", str(out / "file_info.csv"),
                           "--out", str(out / f"joined_{table}.csv")])
                 for table in ("data", "laser")]
        t2 = time.perf_counter()
        if code != 0 or any(joins):
            raise RuntimeError(f"etl exited {code} / {joins}")
        probes = (probe, common.probe())  # the speed before and after the round
        probe = probes[1]
        rounds.append((t0, t1, t2, *probes))
        digests.add(hashlib.sha256(b"".join(
            (out / f).read_bytes() for f in sorted(p.name for p in out.iterdir()))).hexdigest())
    result = {"rounds": rounds, "identical_outputs": len(digests) == 1}
    if tracer is not None:
        spans = tracer.spans()
        spans.save(Path(workdir) / "etl.spans.npz")
        result["layers"] = _layer_metrics(spans, rounds)
    return result


def _layer_metrics(spans, rounds) -> dict:
    names = ["etl.parse_raw_log", "etl.process_file", "etl.emit", "etl.join",
             "dsp.smooth.w1001", "dsp.smooth.w101", "dsp.smooth.w51",
             "dsp.detect_extrema", "dsp.extract_envelope"]
    return {f"{n}.busy_s": common.median([spans.busy(n, r[0], r[2]) for r in rounds])
            for n in names}


def run(seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    archive = workdir / "archive"
    expect = make_archive(seed, archive)
    res, setup_s, setup_all = common.run_in_worker(
        "etl_archive",
        {"archive": str(archive), "workdir": str(workdir), "seconds": seconds, "trace": trace},
        workdir / "etl_archive.json",
    )
    out = workdir / "tables"
    problems = [] if res["identical_outputs"] else ["rounds produced different tables"]
    problems += check_tables(out, expect)

    process_s = [t1 - t0 for t0, t1, _, _, _ in res["rounds"]]
    round_s = [t2 - t0 for t0, _, t2, _, _ in res["rounds"]]
    join_s = [t2 - t1 for _, t1, t2, _, _ in res["rounds"]]
    probes = [r[3:] for r in res["rounds"]]
    joined = sum(len(checks.read_csv((out / f"joined_{t}.csv").read_text())[1])
                 for t in ("data", "laser"))
    scaled = common.at_reference_speed
    e2e = {
        "setup_s": setup_s,
        "throughput_per_s": expect["rows"] / common.median(map(scaled, process_s, probes)),
        "latency_p50_ms": common.median(map(scaled, round_s, probes)) * 1000.0,
    }
    detail = {
        "etl_rows_per_s": e2e["throughput_per_s"],
        "measured_etl_rows_per_s": expect["rows"] / common.median(process_s),
        "raw_rows": expect["rows"],
        "files": len(expect["files"]),
        "rounds": len(process_s),
        "round_p50_ms": e2e["latency_p50_ms"],
        "measured_round_p50_ms": common.median(round_s) * 1000.0,
        "joined_rows_per_s": joined / common.median(map(scaled, join_s, probes)),
        "setup_runs_s": setup_all,
    }
    return {
        "problems": problems,
        "attempted": len(process_s) * (len(expect["files"]) + 2),
        "failed": 0,
        "e2e": e2e,
        "detail": detail,
        "layers": res.get("layers", {}),
    }


def check_tables(out: Path, expect: dict) -> list[str]:
    """Check the last round's tables against what the archive was generated to hold."""
    info_header, info = checks.read_csv((out / "file_info.csv").read_text())
    name_of = {r[0]: r[1] for r in info}
    problems = []
    for table in ("data", "laser"):
        header, rows = checks.read_csv((out / f"{table}.csv").read_text())
        jh, jrows = checks.read_csv((out / f"joined_{table}.csv").read_text())
        problems += [f"join {table}: {p}" for p in
                     checks.check_join(header, rows, info, jh, jrows, expect["files"])]
        by_file: dict[str, list[dict]] = {}
        for r in rows:
            by_file.setdefault(name_of.get(r[0], "?"), []).append(dict(zip(header, r)))
        if table == "data":
            for name, peaks in expect["asg"].items():
                problems += [f"{name}: {p}" for p in checks.check_asg(
                    by_file.get(name, []), peaks, 1.0 / RATE_HZ, ASG_CHANNELS)]
            for name, periods in expect["extrema"].items():
                problems += [f"{name}: {p}" for p in
                             checks.check_extrema_counts(by_file.get(name, []), periods)]
        else:
            for name, y in expect["laser"].items():
                rs = by_file.get(name, [])
                problems += [f"{name}: {p}" for p in checks.check_laser(rs, len(y))]
                if len(rs) == len(y):
                    got = np.array([float(r["laser_reading_mm"]) for r in rs])
                    half = 500
                    probes = np.linspace(half, len(y) - half - 1, SMOOTH_PROBES).astype(int)
                    problems += [f"{name}: {p}" for p in
                                 checks.check_smoothed(y, got, half, probes)]
    return problems
