"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import csv
import io
import json
import random
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import asg_raw_text, laser_raw_text, rejected_total, stored_count
from paveharvest import connector as connector_mod, dsp, etl
from paveharvest.broker import Broker, SubjectRouter
from paveharvest.cli import E2EReport, PipelineConfig, run_e2e
from paveharvest.client import BusClient
from paveharvest.connector import Connector
from paveharvest.timeutil import US_PER_SECOND
from paveharvest.tsstore import Sample, Store
from paveharvest.wire import Subject, subject_matches


@contextmanager
def criterion(number: int, description: str, budget_s: float | None = None):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE C{number} FAIL: {description}")
        raise
    elapsed = time.monotonic() - t0
    print(f"\nACCEPTANCE C{number} PASS: {description} ({elapsed:.1f}s)")
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s budget"


# --- 1. Savitzky-Golay oracle equivalence -----------------------------------


def lsq_oracle_interior(y: np.ndarray, window: int, order: int) -> np.ndarray:
    """Per-window least-squares fits, solved jointly via lstsq."""
    h = window // 2
    x = np.arange(-h, h + 1, dtype=float) / h
    design = np.vander(x, order + 1, increasing=True)
    windows = np.lib.stride_tricks.sliding_window_view(y, window).T  # window x m
    coeffs, *_ = np.linalg.lstsq(design, windows, rcond=None)
    return design[h] @ coeffs  # fitted value at each window center


def test_c1_savgol_oracle_equivalence():
    with criterion(
        1,
        "Savitzky-Golay matches independent per-window LSQ (rel <= 1e-9), "
        "polynomials reproduced to 1e-12",
        budget_s=60,
    ):
        rng = np.random.default_rng(2024)
        for window, order in [(51, 2), (51, 3), (101, 2), (101, 3), (1001, 2), (1001, 3)]:
            cfg = dsp.DspConfig(window=window, polyorder=order)
            h = window // 2
            for _ in range(10):
                y = rng.normal(size=5000)
                got = dsp.smooth(dsp.Series(t=np.arange(5000.0), y=y), cfg).y
                want = lsq_oracle_interior(y, window, order)
                interior = got[h : 5000 - h]
                rel = np.abs(interior - want) / np.maximum(np.abs(want), 1e-9)
                assert rel.max() <= 1e-9, f"w={window} o={order}: rel={rel.max():.2e}"
            # slow second oracle: plain polyfit on a sample of windows
            y = rng.normal(size=5000)
            got = dsp.smooth(dsp.Series(t=np.arange(5000.0), y=y), cfg).y
            xs = np.arange(-h, h + 1, dtype=float)
            for c in rng.choice(np.arange(h, 5000 - h), size=40, replace=False):
                fit = np.polyval(np.polyfit(xs, y[c - h : c + h + 1], order), 0.0)
                assert abs(got[c] - fit) <= 1e-9 * max(abs(fit), 1e-9)
            # polynomial reproduction at the filter's own degree
            t = np.arange(5000, dtype=float)
            poly = 1.5 - 2e-3 * t + 3e-7 * t**2 + (1e-11 * t**3 if order == 3 else 0)
            sm = dsp.smooth(dsp.Series(t=t, y=poly), cfg).y
            scale = np.abs(poly).max()
            assert np.abs(sm[h : 5000 - h] - poly[h : 5000 - h]).max() <= 1e-12 * scale


# --- 2. APT feature counts ---------------------------------------------------


def test_c2_apt_feature_counts(tmp_path):
    with criterion(
        2,
        "1000-pass ASG fixture emits exactly 40 labeled peak rows and "
        "200 envelope rows",
        budget_s=30,
    ):
        path = tmp_path / "Traffic D1 F20 07-07-22.txt"
        path.write_text(asg_raw_text(n_pass=1000, rate_hz=100, amplitude=-0.22))
        result = etl.process_file(path)
        peaks = [r for r in result.data_rows if r.extrema == "maxima"]
        envelopes = [r for r in result.data_rows if r.extrema == "envelope"]
        assert len(peaks) == 40
        assert sum(r.captured_instance == "first20" for r in peaks) == 20
        assert sum(r.captured_instance == "last20" for r in peaks) == 20
        assert len(envelopes) == 200
        assert {r.captured_instance for r in envelopes} == {"first20", "last20"}
        info = etl.build_file_info([result.meta])
        data_csv = etl.emit_normalized(result.data_rows, info)
        assert len(data_csv.strip().splitlines()) == 1 + 240


# --- 3. laser mapping --------------------------------------------------------


def test_c3_laser_mapping(tmp_path):
    with criterion(
        3,
        "laser CSV reproduces published horizontal values to 1e-9 and keeps "
        "all 4000 samples",
    ):
        path = tmp_path / "19-06-18 H L1 0-Passes PL1 - 1400mm 1 10-57.txt"
        path.write_text(laser_raw_text(n_samples=4000))
        result = etl.process_file(path)
        info = etl.build_file_info([result.meta])
        laser_csv = etl.emit_laser_normalized(result.laser_rows, info)
        rows = list(csv.reader(io.StringIO(laser_csv)))
        header, body = rows[0], rows[1:]
        assert len(body) == 4000
        horiz = {int(r[header.index("sample_number")]): float(r[header.index("horiz_mm")])
                 for r in body}
        assert abs(horiz[1] - 0.171117705) <= 1e-9
        assert abs(horiz[4] - 0.684470821) <= 1e-9


# --- 4. normalization round trip ---------------------------------------------


def test_c4_normalization_round_trip():
    with criterion(
        4,
        "join(emit(.)) is byte-identical for 100 generated row sets; "
        "duplicate filenames collapse to one FILE_INFO row",
    ):
        rng = random.Random(1234)
        instances = ["first20", "last20", "stationary", "fwd"]
        for trial in range(100):
            n_files = rng.randint(1, 8)
            names = [f"Traffic D{rng.randint(1, 9)} F20 0{rng.randint(1, 9)}-1{trial % 10}-22_{i}.txt"
                     for i in range(n_files)]
            names = [n.replace("_", "-") for n in names]  # keep traffic grammar out
            metas = {
                n: etl.FileMeta(
                    filename=n,
                    project_name=rng.choice(["I-69", "I-65", None]),
                    test_section=f"D{rng.randint(1, 9)}",
                    sensor_type=rng.choice(["STRAIN GAGE", "PC", "TC"]),
                    location=rng.choice([None, "12.5", "7.5"]),
                    gage_id=str(rng.randint(100, 200)),
                    survey_date="2022-07-07",
                    description=rng.choice([None, "SG8"]),
                )
                for n in names
            }
            rows = [
                etl.DataRow(
                    filename=rng.choice(names),
                    captured_instance=rng.choice(instances),
                    gage_id=str(rng.randint(1, 20)),
                    placement=str(rng.randint(10, 99)),
                    cal_coeff=round(rng.uniform(0.5, 1.5), 3),
                    rated_output=5890.0,
                    extrema=rng.choice(["maxima", "minima", "envelope"]),
                    seconds_elapsed=round(rng.uniform(0, 10_000), 4),
                    processed_datapoint=rng.uniform(-1, 1),
                    unit="microstrain",
                )
                for _ in range(rng.randint(1, 60))
            ]
            # duplicates on purpose: every row's meta appears once per row
            info = etl.build_file_info([metas[r.filename] for r in rows])
            assert len(info) == len({r.filename for r in rows})  # collapsed
            data_csv, info_csv = etl.emit_normalized(rows, info), etl.emit_file_info(info)
            joined = etl.join_by_filename_id(data_csv, info_csv)

            out = io.StringIO()
            writer = csv.writer(out)
            writer.writerow(
                ["filename"] + etl.DATA_HEADER.split(",")[1:] + list(etl.JOIN_META_COLUMNS)
            )
            for r in rows:
                m = metas[r.filename]
                writer.writerow(
                    [
                        r.filename, r.captured_instance, r.gage_id, r.placement,
                        etl.format_number(r.cal_coeff),
                        etl.format_number(r.rated_output),
                        r.extrema,
                        etl.format_number(r.seconds_elapsed),
                        etl.format_number(r.processed_datapoint),
                        r.unit,
                    ]
                    + [getattr(m, c) or "" for c in etl.JOIN_META_COLUMNS]
                )
            assert joined == out.getvalue()


# --- 5. end-to-end live pipeline ----------------------------------------------


def test_c5_end_to_end_pipeline(tmp_path):
    with criterion(
        5,
        "3 sensors x 1 Hz x 60 s at speedup 10: 180 stored, 0 seq gaps, "
        "p99 publish-to-insert < 1 s",
        budget_s=90,
    ):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(
            json.dumps(
                {
                    "site": "65",
                    "daq": "1",
                    "seed": 11,
                    "duration_s": 60,
                    "sensors": [
                        {"id": "epc1", "kind": "EPC", "rate_hz": 1,
                         "baseline": 100.0, "pulse_amplitude": 40.0,
                         "pulse_period_s": 10.0},
                        {"id": "scg1", "kind": "SCG", "rate_hz": 1,
                         "baseline": 540.0, "pulse_amplitude": 80.0},
                        {"id": "t1", "kind": "TEMPERATURE", "rate_hz": 1,
                         "mean": 70.0, "amplitude": 15.0},
                    ],
                }
            )
        )
        report = run_e2e(
            PipelineConfig(
                scenario_path=str(scenario),
                store_root=str(tmp_path / "db"),
                speedup=10.0,
            )
        )
        assert report.published == 180
        assert report.stored == 180
        assert report.accepted == 180
        assert report.seq_gaps == 0
        assert report.latency_samples == 180
        assert report.p99_latency_ms is not None and report.p99_latency_ms < 1000.0
        assert report.ok


# --- 6. daily volume at scaled rate --------------------------------------------


def test_c6_daily_volume(tmp_path, monkeypatch):
    with criterion(
        6,
        "time-compressed day at 23.15 samples/s stores >= 2,000,000 with "
        "exact conservation",
        budget_s=300,
    ):
        rate = 23.15
        day_s = 86_400
        total = int(rate * day_s)  # 2,000,160
        assert total >= 2_000_000
        sensors = [f"site.65.daq.1.sensor.s{i}" for i in range(8)]
        subjects = [Subject.parse(s) for s in sensors]
        per_sensor = total // len(sensors)
        remainder = total - per_sensor * len(sensors)
        monkeypatch.setattr(connector_mod, "DEFAULT_BATCH_SIZE", 2000)
        with Store(tmp_path / "db") as store:
            conn = Connector(store).start()
            base = 1_700_000_000_000_000
            step = day_s * US_PER_SECOND // per_sensor
            sent = 0
            for si, subject in enumerate(subjects):
                n = per_sensor + (1 if si < remainder else 0)
                messages = [
                    # ts unique per sensor
                    (subject, b'{"ts":%d,"v":%d.5,"seq":%d,"unit":"kPa"}' % (
                        base + k * step + si, k % 97, k + 1,
                    ))
                    for k in range(n)
                ]
                for i in range(0, n, 500):  # runs about the size of a socket read
                    conn.ingest(messages[i : i + 500])
                sent += len(messages)
            assert conn.drain(timeout=120)
            metrics = conn.metrics_snapshot()
            stored = stored_count(store.root)
            conn.stop()
        assert sent == total
        assert metrics.received == total
        assert metrics.received == metrics.accepted + rejected_total(metrics)  # exact
        assert metrics.accepted >= 2_000_000
        assert stored == metrics.accepted
        assert metrics.seq_gaps == 0


# --- 7. broker routing oracle ----------------------------------------------------


def test_c7_broker_routing_oracle():
    with criterion(
        7,
        "router matches the quadratic reference on 100x100 random "
        "patterns/publishes; order preserved across 50 concurrent sessions",
        budget_s=60,
    ):
        rng = random.Random(77)
        words = ["site", "65", "69", "daq", "1", "2", "sensor", "epc3", "scg1", "t"]

        def rand_pattern():
            toks = [rng.choice(words + ["*"]) for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.3:
                toks.append(">")
            return Subject(tuple(toks))

        def rand_subject():
            return Subject(tuple(rng.choice(words) for _ in range(rng.randint(1, 5))))

        router = SubjectRouter()
        subs = []
        for sid in range(100):
            session = rng.randint(1, 12)
            pattern = rand_pattern()
            router.register(session, sid, pattern)
            subs.append((session, sid, pattern))
        for _ in range(100):
            subject = rand_subject()
            want = sorted(
                (session, sid)
                for session, sid, pattern in subs
                if subject_matches(pattern, subject)
            )
            assert sorted(router.route(subject)) == want

        # 50 concurrent publisher sessions -> one subscriber: per-publisher
        # order kept, zero duplicates (bulk 50k counting lives in test_broker)
        n_pub, n_msg = 50, 200
        received: dict[bytes, list[int]] = {}
        lock = threading.Lock()
        done = threading.Semaphore(0)

        def on_msg(messages):
            with lock:
                for _, payload in messages:
                    who, seq = payload.split(b":")
                    received.setdefault(who, []).append(int(seq))
            done.release(len(messages))

        with Broker() as broker:
            with BusClient(*broker.address) as sub:
                sub.subscribe("load.>", on_msg)

                def work(idx):
                    with BusClient(*broker.address) as pub:
                        for seq in range(n_msg):
                            pub.publish("load.x", b"%d:%d" % (idx, seq))

                threads = [
                    threading.Thread(target=work, args=(i,)) for i in range(n_pub)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                for _ in range(n_pub * n_msg):
                    assert done.acquire(timeout=30)
        assert len(received) == n_pub
        for seqs in received.values():
            assert seqs == list(range(n_msg))  # in order, no loss, no dupes


# --- 8. store correctness -------------------------------------------------------


def test_c8_store_correctness(tmp_path):
    with criterion(
        8,
        "1e6 random samples: query_range and downsample match references; "
        "reopen yields identical results",
        budget_s=120,
    ):
        rng = random.Random(88)
        sensors = [f"site/{i}" for i in range(10)]
        span_us = 3 * 86_400 * US_PER_SECOND
        n = 1_000_000
        samples = [
            Sample(sensors[rng.randrange(10)], rng.randint(1, span_us), rng.random())
            for _ in range(n)
        ]
        reference: dict[str, dict[int, float]] = {s: {} for s in sensors}
        for s in samples:
            reference[s.sensor][s.ts] = s.v  # same last-write-wins rule

        root = tmp_path / "db"
        with Store(root) as store:
            report = store.insert(samples)
            assert report.accepted == n

            probe = sensors[3]
            want_all = sorted(Sample(probe, ts, v) for ts, v in reference[probe].items())
            got_all = store.query_range(probe, 0, span_us + 1)
            assert got_all == want_all

            t0, t1 = span_us // 4, span_us // 2
            want_mid = [s for s in want_all if t0 <= s.ts < t1]
            assert store.query_range(probe, t0, t1) == want_mid

            bucket = 6 * 3_600 * US_PER_SECOND
            ref_buckets: dict[int, list[float]] = {}
            for ts, v in reference[probe].items():
                ref_buckets.setdefault(ts - ts % bucket, []).append(v)
            for agg in ("count", "min", "max", "avg"):
                got = store.downsample(probe, 0, span_us + 1, bucket, agg)
                assert [b for b, _ in got] == sorted(ref_buckets)
                for start, value in got:
                    vs = ref_buckets[start]
                    if agg == "count":
                        assert value == len(vs)
                    elif agg == "min":
                        assert value == min(vs)
                    elif agg == "max":
                        assert value == max(vs)
                    else:
                        assert value == pytest.approx(
                            sum(vs) / len(vs), rel=1e-12
                        )
            golden = {s: store.query_range(s, 0, span_us + 1) for s in sensors}

        with Store(root) as store:
            for sensor, want in golden.items():
                assert store.query_range(sensor, 0, span_us + 1) == want
