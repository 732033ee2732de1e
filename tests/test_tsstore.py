"""Store partitioning, query, downsample, writer-lock and durability tests."""

import os
import random
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import paveharvest
from helpers import (
    CRASH_SENSORS,
    CRASH_WINDOWS,
    HOUR,
    crash_batch,
    reference_downsample,
    reference_insert,
    reference_segment_rows,
    segment_keys,
    stored_count,
)
from paveharvest import tsstore
from paveharvest.timeutil import parse_rfc3339
from paveharvest.tsstore import (
    ACK,
    HEADER_SIZE,
    RECORD,
    RECORD_SIZE,
    ChunkKey,
    CorruptSegment,
    Sample,
    SegmentIssue,
    Store,
    StoreError,
    verify_segments,
)


def tree_bytes(root):
    """Every file under ``root``, by relative path, with its bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def record_reads(monkeypatch):
    """The chunk keys of every segment decoded from here on, in order."""
    read = []
    real_read = tsstore._read_segment

    def read_segment(key, path):
        read.append(key)
        return real_read(key, path)

    monkeypatch.setattr(tsstore, "_read_segment", read_segment)
    return read


def test_insert_files_a_sample_under_its_window_floor(tmp_path):
    """A sample lands in the segment of the window its ts floors to."""
    root = tmp_path / "db"
    with Store(root) as store:
        store.insert([Sample("s", parse_rfc3339("2020-11-23T10:30:00Z"), 1.0)])
    assert segment_keys(root) == [ChunkKey("s", parse_rfc3339("2020-11-23T10:00:00Z"))]


def test_insert_files_a_boundary_sample_under_the_window_it_starts(tmp_path):
    """A ts exactly on a window boundary lands in the window it starts."""
    root = tmp_path / "db"
    hour = parse_rfc3339("2020-11-23T10:00:00Z")
    with Store(root) as store:
        store.insert([Sample("s", hour, 1.0)])
    assert segment_keys(root) == [ChunkKey("s", hour)]
    assert reference_segment_rows((root / "s" / f"{hour}.seg").read_bytes()) == [(hour, 1.0)]


def test_segment_windows_floor_every_sample(tmp_path, monkeypatch):
    """Each segment is named by a multiple of the span and holds only the
    stamps of its window, and together they hold every stamp inserted."""
    rng = random.Random(3)
    for span in (1, 7, 1000, HOUR):
        stamps = {rng.randint(1, 2**48) for _ in range(300)}
        root = tmp_path / str(span)
        monkeypatch.setattr(tsstore, "DEFAULT_CHUNK_SPAN_US", span)
        with Store(root) as store:
            store.insert([Sample("s", ts, 0.0) for ts in stamps])
        held = set()
        for key in segment_keys(root):
            start = key.window_start
            rows = reference_segment_rows((root / "s" / f"{start}.seg").read_bytes())
            assert start % span == 0
            assert all(start <= ts < start + span for ts, _ in rows)
            held.update(ts for ts, _ in rows)
        assert held == stamps, span


def test_insert_query_round_trip(tmp_path):
    with Store(tmp_path / "db") as store:
        report = store.insert([Sample("a", 123, 4.5)])
        assert report.accepted == 1
        assert store.query_range("a", 0, 1000) == [Sample("a", 123, 4.5)]


def test_duplicate_last_write_wins(tmp_path):
    """A resent (sensor, ts) is acked like any sample, and a read keeps its
    last write."""
    with Store(tmp_path / "db") as store:
        r1 = store.insert([Sample("a", 7, 1.0)])
        r2 = store.insert([Sample("a", 7, 2.0)])
        assert r1.statuses == r2.statuses == [ACK]
        assert store.query_range("a", 0, 100) == [Sample("a", 7, 2.0)]


def test_query_empty_store_and_empty_interval(tmp_path):
    with Store(tmp_path / "db") as store:
        assert store.query_range("nope", 0, 10**15) == []
        store.insert([Sample("a", 5, 1.0)])
        assert store.query_range("a", 5, 5) == []  # half-open


def test_query_spanning_chunks_matches_filter(tmp_path, monkeypatch):
    rng = random.Random(5)
    monkeypatch.setattr(tsstore, "DEFAULT_CHUNK_SPAN_US", 1000)
    with Store(tmp_path / "db") as store:
        samples = [
            Sample("a", rng.randint(1, 5000), rng.random()) for _ in range(800)
        ]
        store.insert(samples)
        reference = {}
        for s in samples:
            reference[s.ts] = s.v  # last write wins
        t0, t1 = 700, 4200
        want = sorted(
            Sample("a", ts, v) for ts, v in reference.items() if t0 <= ts < t1
        )
        assert store.query_range("a", t0, t1) == want


def test_query_union_is_exact_partition(tmp_path, monkeypatch):
    rng = random.Random(6)
    monkeypatch.setattr(tsstore, "DEFAULT_CHUNK_SPAN_US", 500)
    with Store(tmp_path / "db") as store:
        store.insert(
            [Sample("a", rng.randint(1, 3000), rng.random()) for _ in range(500)]
        )
        left = store.query_range("a", 1, 1500)
        right = store.query_range("a", 1500, 3001)
        assert left + right == store.query_range("a", 1, 3001)
        assert not (set(left) & set(right))


def test_downsample_constant_series(tmp_path):
    with Store(tmp_path / "db") as store:
        store.insert([Sample("a", 1 + i * 10, 42.0) for i in range(100)])
        for _start, value in store.downsample("a", 0, 10_000, 100, "avg"):
            assert value == 42.0


def test_downsample_count_conserves(tmp_path):
    with Store(tmp_path / "db") as store:
        store.insert([Sample("a", 1 + i * 7, float(i)) for i in range(500)])
        buckets = store.downsample("a", 0, 10**6, 97, "count")
        assert sum(v for _s, v in buckets) == 500


def test_downsample_matches_reference(tmp_path, monkeypatch):
    rng = random.Random(9)
    samples = [Sample("a", rng.randint(1, 10**6), rng.uniform(-5, 5)) for _ in range(3000)]
    monkeypatch.setattr(tsstore, "DEFAULT_CHUNK_SPAN_US", 100_000)
    with Store(tmp_path / "db") as store:
        store.insert(samples)
        dedup = {}
        for s in samples:
            dedup[s.ts] = s.v
        bucket = 12_345
        ref: dict[int, list] = {}
        for ts, v in dedup.items():
            ref.setdefault(ts - ts % bucket, []).append(v)
        for agg in ("avg", "min", "max", "count"):
            got = store.downsample("a", 0, 10**6 + 1, bucket, agg)
            assert [s for s, _ in got] == sorted(ref)
            for start, value in got:
                vs = ref[start]
                want = {
                    "avg": sum(vs) / len(vs),
                    "min": min(vs),
                    "max": max(vs),
                    "count": len(vs),
                }[agg]
                if agg == "avg":
                    assert value == pytest.approx(want, rel=1e-12)
                else:
                    assert value == want


def test_reopen_preserves_query_results(tmp_path, monkeypatch):
    rng = random.Random(17)
    samples = [
        Sample(f"s{rng.randint(0, 3)}", rng.randint(1, 10**7), rng.random())
        for _ in range(2000)
    ]
    root = tmp_path / "db"
    monkeypatch.setattr(tsstore, "DEFAULT_CHUNK_SPAN_US", 10_000)
    with Store(root) as store:
        store.insert(samples)
        golden = {
            sensor: store.query_range(sensor, 0, 10**8)
            for sensor in {sample.sensor for sample in samples}
        }
    with Store(root) as store:
        for sensor, want in golden.items():
            assert store.query_range(sensor, 0, 10**8) == want


def test_partition_purity_checker(tmp_path, monkeypatch):
    rng = random.Random(19)
    root = tmp_path / "db"
    monkeypatch.setattr(tsstore, "DEFAULT_CHUNK_SPAN_US", 5000)
    with Store(root) as store:
        store.insert(
            [
                Sample(f"site/{i % 3}/epc", rng.randint(1, 100_000), rng.random())
                for i in range(1000)
            ]
        )
    assert verify_segments(root) == []


def test_checker_flags_out_of_window_record(tmp_path, monkeypatch):
    root = tmp_path / "db"
    monkeypatch.setattr(tsstore, "DEFAULT_CHUNK_SPAN_US", 1000)
    with Store(root) as store:
        store.insert([Sample("a", 1500, 1.0)])
    seg = next((root / "a").glob("*.seg"))
    import struct

    with open(seg, "ab") as fh:
        fh.write(struct.pack("<qd", 99_999, 3.0))  # outside the window
    issues = verify_segments(root)
    assert any("outside window" in i.problem for i in issues)


def test_torn_trailing_record_ignored(tmp_path):
    root = tmp_path / "db"
    with Store(root) as store:
        store.insert([Sample("a", 10, 1.0)])
    seg = next((root / "a").glob("*.seg"))
    with open(seg, "ab") as fh:
        fh.write(b"\x01\x02\x03")  # torn write
    with Store(root) as store:
        assert store.query_range("a", 0, 100) == [Sample("a", 10, 1.0)]


def test_append_after_a_cut_at_every_offset(tmp_path):
    """A crash can cut a segment at any byte; the next session appends after
    the last whole record, and nothing is lost or invented. A cut inside the
    header leaves a chunk with no records."""
    records = [Sample("a", 10, 1.0), Sample("a", 20, 2.0), Sample("a", 30, 3.0)]
    with Store(tmp_path / "whole") as store:
        store.insert(records)
    whole = next((tmp_path / "whole" / "a").glob("*.seg"))
    data = whole.read_bytes()
    assert len(data) == HEADER_SIZE + 3 * RECORD_SIZE
    new = Sample("a", 40, 4.0)
    for cut in range(len(data) + 1):
        root = tmp_path / f"cut{cut}"
        seg = root / "a" / whole.name
        seg.parent.mkdir(parents=True)
        seg.write_bytes(data[:cut])
        with Store(root) as store:
            assert store.insert([new]).statuses == ["ack"], cut
        kept = records[: max(cut - HEADER_SIZE, 0) // RECORD_SIZE]
        with Store(root) as store:
            assert store.query_range("a", 0, 100) == kept + [new], cut
        assert verify_segments(root) == [], cut


@pytest.mark.parametrize("size", [0, 10])
def test_segment_cut_inside_its_header_is_an_empty_chunk(tmp_path, size):
    """A crash between creating a segment and its first write landing leaves
    a file shorter than a header; every later session can still write it,
    and ``store check`` judges it by the store's rule, as an empty chunk."""
    root = tmp_path / "db"
    seg = root / "z" / "0.seg"
    seg.parent.mkdir(parents=True)
    seg.write_bytes(tsstore.HEADER.pack(b"TSEG", 1, tsstore.key_hash("z"), 0, bytes(8))[:size])
    assert verify_segments(root) == []
    first, second = Sample("z", 10, 1.0), Sample("z", 20, 2.0)
    with Store(root) as store:
        assert store.insert([first]).statuses == ["ack"]
        assert store.query_range("z", 0, 100) == [first]
    with Store(root) as store:
        assert store.query_range("z", 0, 100) == [first]
        assert store.insert([second]).statuses == ["ack"]
    with Store(root) as store:
        assert store.query_range("z", 0, 100) == [first, second]
    assert verify_segments(root) == []


def test_short_segment_with_bad_magic_stays_corrupt(tmp_path):
    """Only a cut header counts as empty; a short file of other bytes is
    corrupt, and neither a write nor a read touches it."""
    root = tmp_path / "db"
    seg = root / "z" / "0.seg"
    seg.parent.mkdir(parents=True)
    raw = b"XXXX\x01\x00\x00\x00\x00\x00"
    seg.write_bytes(raw)
    for _ in range(2):
        with Store(root) as store:
            assert store.insert([Sample("z", 10, 1.0)]).statuses == ["corrupt-segment"]
            with pytest.raises(CorruptSegment):
                store.query_range("z", 0, 100)
    assert seg.read_bytes() == raw
    assert verify_segments(root) == [SegmentIssue(str(seg), "truncated header")]


def test_corrupt_segment_refuses_writes(tmp_path):
    root = tmp_path / "db"
    with Store(root) as store:
        store.insert([Sample("a", 10, 1.0)])
    seg = next((root / "a").glob("*.seg"))
    data = bytearray(seg.read_bytes())
    data[:4] = b"XXXX"
    seg.write_bytes(bytes(data))
    with Store(root) as store:
        report = store.insert([Sample("a", 20, 2.0)])
        assert report.errors == 1
        assert report.statuses == ["corrupt-segment"]
    seg.unlink()  # an operator drops the window while no writer runs
    with Store(root) as store:
        assert store.insert([Sample("a", 30, 3.0)]).statuses == [ACK]
        assert store.query_range("a", 0, 100) == [Sample("a", 30, 3.0)]


@pytest.mark.parametrize("sensor, window", [("b", HOUR), ("a", 2 * HOUR)],
                         ids=["other-sensor", "other-window"])
def test_header_of_another_chunk_is_refused_and_logged_once(tmp_path, caplog, sensor, window):
    """A whole, well-framed header that names another sensor or window makes
    the segment corrupt for writes as for reads: every write to it in a
    session is refused, one error is logged, and no byte changes."""
    root = tmp_path / "db"
    seg = root / "a" / f"{HOUR}.seg"
    seg.parent.mkdir(parents=True)
    raw = tsstore.HEADER.pack(b"TSEG", 1, tsstore.key_hash(sensor), window, bytes(8))
    raw += RECORD.pack(HOUR + 1, 1.0)
    seg.write_bytes(raw)
    with caplog.at_level("ERROR", logger="paveharvest.tsstore"), Store(root) as store:
        for ts in (HOUR + 2, HOUR + 3):
            report = store.insert([Sample("a", ts, 2.0), Sample("a", ts - HOUR, 3.0)])
            assert report.statuses == ["corrupt-segment", ACK]
        with pytest.raises(CorruptSegment, match="header does not match chunk key"):
            store.query_range("a", HOUR, 2 * HOUR)
    assert [r.getMessage() for r in caplog.records] == [
        f"{seg}: header does not match chunk key"]
    assert seg.read_bytes() == raw
    assert verify_segments(root) == [SegmentIssue(str(seg), "header does not match chunk key")]


def test_nonzero_reserved_bytes_are_read_and_appended_alike(tmp_path):
    """The reserved header bytes are no part of the check, for a write as for
    a read: a segment that sets them takes appends and keeps them."""
    root = tmp_path / "db"
    seg = root / "a" / "0.seg"
    seg.parent.mkdir(parents=True)
    header = tsstore.HEADER.pack(b"TSEG", 1, tsstore.key_hash("a"), 0, b"\xff" * 8)
    seg.write_bytes(header + RECORD.pack(10, 1.0))
    with Store(root) as store:
        assert store.query_range("a", 0, 100) == [Sample("a", 10, 1.0)]
        assert store.insert([Sample("a", 20, 2.0)]).statuses == [ACK]
        assert store.query_range("a", 0, 100) == [Sample("a", 10, 1.0), Sample("a", 20, 2.0)]
    assert seg.read_bytes() == header + RECORD.pack(10, 1.0) + RECORD.pack(20, 2.0)
    assert verify_segments(root) == []


def test_write_state_stays_within_the_handle_bound_over_two_days(tmp_path, monkeypatch):
    """A writer that runs 48 hours of 16 sensors, with late and resent
    samples, holds write state for at most ``MAX_OPEN_SEGMENTS`` chunks,
    here fewer than the sensors' last two windows, and keeps the newest
    window of every sensor open."""
    monkeypatch.setattr(tsstore, "MAX_OPEN_SEGMENTS", 24)
    rng = random.Random(61)
    sensors = [f"s{i}" for i in range(16)]
    with Store(tmp_path / "db") as store:
        for n in range(48 * 12):  # a batch per 5 minutes, a sample per 15 s
            now = n * 300_000_000 + 1
            batch = [Sample(s, max(1, now - rng.randrange(HOUR)), 2.0) for s in sensors]
            batch += [Sample(s, now + i * 15_000_000, 1.0) for s in sensors for i in range(20)]
            assert set(store.insert(batch).statuses) == {ACK}
            assert len(store._handles) + len(store._corrupt) <= 24
        assert {ChunkKey(s, 47 * HOUR) for s in sensors} <= set(store._handles)
    assert verify_segments(tmp_path / "db") == []


def test_insert_rejects_bad_values(tmp_path):
    with Store(tmp_path / "db") as store:
        report = store.insert(
            [Sample("a", 0, 1.0), Sample("a", 5, float("nan")), Sample("a", 6, 1.0),
             Sample("b", 2**63, 1.0), Sample("c", 2**63 - 1, 1.0)]  # ts is an i64
        )
        assert report.statuses == ["bad-ts", "nonfinite", "ack", "bad-ts", "ack"]
        assert stored_count(tmp_path / "db") == 2  # the rest of the batch is stored


def test_a_bad_value_is_reported_per_sample_and_never_raises(tmp_path):
    """A ts that is not an int and a value that is no finite float, an int
    beyond float range or no number at all, get a status of their own, as
    does a sensor that can name no directory, on both routes, and the
    samples around them are stored as if they were not there."""
    odd = [Sample("b", "x", 1.0), Sample("b", None, 1.0), Sample("b", 14, "x"),
           Sample("b", 15, None), Sample(["x"], 16, 1.0), Sample(["x"], None, "x"),
           Sample(["x"], 17, None), Sample("b", 1.5, None), Sample("b", 18, 3.0)]
    want = reference_insert(tmp_path / "ref", HOUR, odd, {}, 1)
    assert want == [
        "bad-ts", "bad-ts", "nonfinite", "nonfinite", "bad-sensor", "bad-ts",
        "nonfinite", "bad-ts", "ack"]
    for columnar in (False, True):
        root = tmp_path / f"db{columnar}"
        with Store(root) as store, routes(columnar):
            report = store.insert([Sample("a", 30, 1.0), Sample("b", 1.5, 2.0)])
            assert report.statuses == ["ack", "bad-ts"]
            report = store.insert(
                [Sample("b", 7.0, 1.0),  # first of its chunk's group
                 Sample("b", 8, 2.0), Sample("c", 9, 10**400), Sample("c", 10, 10**300),
                 Sample("c", 11, -(10**400)), Sample(5, 12, 1.0), Sample("\udcff", 13, 1.0)]
            )
            assert report.statuses == [
                "bad-ts", "ack", "nonfinite", "ack", "nonfinite", "bad-sensor", "bad-sensor"]
            assert store.insert(odd).statuses == want
            assert store.query_range("a", 0, 100) == [Sample("a", 30, 1.0)]
            assert store.query_range("b", 0, 100) == [Sample("b", 8, 2.0), Sample("b", 18, 3.0)]
            assert store.query_range("c", 0, 100) == [Sample("c", 10, 1e300)]
        assert sorted(tree_bytes(root)) == ["a/0.seg", "b/0.seg", "c/0.seg"]
        assert verify_segments(root) == []


_any_sensor = st.sampled_from(["a", "b/x", "", ".", "..", 5, "\udcff", ["x"]])
_any_ts = st.one_of(
    st.integers(1, 60),
    st.sampled_from([0, -3, 2**63 - 1, 2**63, 1.5, 14.0, float("nan"), "x", None]))
_any_value = st.one_of(
    st.floats(-1e6, 1e6),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 10**400, 10**300, 3, "x", None]),
)
# Any batch, or one whose stamps are all ints in int64 range and whose
# values all convert to float64, which the columnar pass takes whole.
_any_batch = st.one_of(
    st.lists(st.tuples(_any_sensor, _any_ts, _any_value), max_size=30),
    st.lists(st.tuples(
        _any_sensor,
        st.one_of(st.integers(1, 60), st.sampled_from([0, -3, 2**63 - 1])),
        st.one_of(st.floats(-1e6, 1e6), st.sampled_from([float("nan"), float("inf"), 10**300])),
    ), max_size=30),
)


def routes(columnar):
    """Sends every batch down the columnar pass, or every batch down the
    per-sample rule: the two routes a batch can take."""
    return mock.patch.object(tsstore, "COLUMNAR_MIN_BATCH", 0 if columnar else 10**9)


@settings(max_examples=200, deadline=None)
@given(
    batches=st.lists(_any_batch, max_size=6),
    reopen=st.integers(0, 3),
    columnar=st.booleans(),
    bound=st.integers(1, 4),
)
def test_inserts_match_the_reference_rule(batches, reopen, columnar, bound):
    """After each batch the statuses, every segment's path and bytes, and
    the chunks kept open, least recently written first, are those of the
    one-sample-at-a-time rule, on both routes, over bad values, reserved and
    unusable sensor names, resends within and across batches, many windows
    per sensor, a handle bound that closes handles, and reopens."""
    with tempfile.TemporaryDirectory() as tmp, routes(columnar), \
            mock.patch.object(tsstore, "DEFAULT_CHUNK_SPAN_US", 7), \
            mock.patch.object(tsstore, "MAX_OPEN_SEGMENTS", bound):
        root, ref_root = Path(tmp) / "db", Path(tmp) / "ref"
        ref_root.mkdir()
        store, ref_open = Store(root), {}
        for n, batch in enumerate(batches):
            samples = [Sample(*s) for s in batch]
            want = reference_insert(ref_root, 7, samples, ref_open, bound)
            assert store.insert(samples).statuses == want
            assert tree_bytes(root) == tree_bytes(ref_root)
            assert list(store._handles) == list(ref_open)
            assert all(type(key) is ChunkKey and type(key.window_start) is int
                       and chunk.key is key for key, chunk in store._handles.items())
            if reopen and n % reopen == 0:
                store.close()
                store, ref_open = Store(root), {}
        store.close()
        if root.exists():
            assert verify_segments(root) == []


def test_query_bounds_beyond_int64_compare_exactly(tmp_path):
    """2**63 - 2 and 2**63 - 1 are one float64; a bound must not become one."""
    stamps = [1, 2**63 - 2, 2**63 - 1]
    with Store(tmp_path / "db") as store:
        store.insert([Sample("a", ts, float(i)) for i, ts in enumerate(stamps)])
        for t0, t1 in [(0, 2**63), (0, 2**63 - 1), (2**63 - 1, 2**64), (2**63, 2**64),
                       (-(2**70), 2), (0, 2**64), (2**63 - 2, 2**63 - 2)]:
            want = [ts for ts in stamps if t0 <= ts < t1]
            assert [s.ts for s in store.query_range("a", t0, t1)] == want, (t0, t1)
        assert store.downsample("a", 0, 2**63, 10**18, "count") == [(0, 1), (9 * 10**18, 2)]
        assert store.downsample("a", 0, 2**63, 10**18, "avg") == [(0, 0.0), (9 * 10**18, 1.5)]


@pytest.mark.parametrize("sensor", ["", ".", ".."])
def test_sensor_names_of_the_root_or_its_parent_are_rejected(tmp_path, sensor):
    """Quoted, these names would put segments in the root or beside it."""
    root = tmp_path / "db"
    planted = root / sensor / "0.seg"  # where the name would put window 0
    planted.parent.mkdir(parents=True, exist_ok=True)
    header = tsstore.HEADER.pack(b"TSEG", 1, tsstore.key_hash(sensor), 0, bytes(8))
    planted.write_bytes(header + RECORD.pack(10, 1.0))
    before = tree_bytes(tmp_path)
    with Store(root) as store:
        assert store.query_range(sensor, 0, 100) == []
        assert store.downsample(sensor, 0, 100, 10, "count") == []
        report = store.insert([Sample(sensor, 20, 2.0), Sample("a", 10, 1.0)])
        assert report.statuses == ["bad-sensor", "ack"]
        assert store.query_range(sensor, 0, 100) == []
    after = tree_bytes(tmp_path)
    assert after.pop("db/a/0.seg")
    assert after == before


def test_random_inserts_match_reference_map(tmp_path):
    """Smaller-scale version of the bulk correctness check."""
    rng = random.Random(23)
    sensors = [f"s{i}" for i in range(10)]
    samples = [
        Sample(rng.choice(sensors), rng.randint(1, 10**9), rng.uniform(-100, 100))
        for _ in range(20_000)
    ]
    reference: dict[str, dict[int, float]] = {s: {} for s in sensors}
    for s in samples:
        reference[s.sensor][s.ts] = s.v
    with Store(tmp_path / "db") as store:
        store.insert(samples)
        for sensor in sensors:
            want = sorted(Sample(sensor, ts, v) for ts, v in reference[sensor].items())
            assert store.query_range(sensor, 0, 2 * 10**9) == want


def test_segment_files_are_the_only_files(tmp_path):
    root = tmp_path / "db"
    with Store(root) as store:
        store.insert(
            [Sample("a", 10, 1.0), Sample("b/x", 2 * HOUR + 1, 2.0), Sample("b/x", 3 * HOUR, 3.0)]
        )
    assert set(tree_bytes(root)) == {"a/0.seg", f"b%2Fx/{2 * HOUR}.seg", f"b%2Fx/{3 * HOUR}.seg"}


def test_read_only_session_leaves_the_tree_and_chunks_alone(tmp_path, monkeypatch):
    """A query decodes only the chunk it reads and keeps no state for it,
    and closing a store that took no inserts changes no byte on disk."""
    root = tmp_path / "db"
    with Store(root) as store:
        store.insert([Sample(s, h * HOUR + 5, h) for s in "ab" for h in range(4)])
    before = tree_bytes(root)
    read = record_reads(monkeypatch)
    store = Store(root)
    got = store.query_range("b", 2 * HOUR, 3 * HOUR)
    assert got == [Sample("b", 2 * HOUR + 5, 2.0)]
    assert store._handles == {}
    store.close()
    assert tree_bytes(root) == before
    assert read == [ChunkKey("b", 2 * HOUR)]


def test_reads_return_plain_python_values(tmp_path):
    """The CLI writes these to CSV and JSON, which take no numpy scalars."""
    with Store(tmp_path / "db") as store:
        store.insert([Sample("a", 10 + i, float(i)) for i in range(20)])
        for sample in store.query_range("a", 0, 100):
            assert (type(sample.ts), type(sample.v)) == (int, float)
        for agg in tsstore.AGGREGATES:
            for start, value in store.downsample("a", 0, 100, 7, agg):
                assert type(start) is int
                assert type(value) is (int if agg == "count" else float)


def test_close_after_insert_session_decodes_no_segment(tmp_path, monkeypatch):
    """A read decodes what the session wrote from disk, and closing reads
    back none of the segments it wrote."""
    store = Store(tmp_path / "db")
    for h in range(6):
        store.insert([Sample(s, h * HOUR + i, float(i)) for s in "ab" for i in (5, 9, 5)])
    assert len(store.query_range("b", 0, 6 * HOUR)) == 12
    read = record_reads(monkeypatch)
    store.close()
    assert read == []


def test_segment_header_size_is_32_bytes(tmp_path):
    assert HEADER_SIZE == 32
    root = tmp_path / "db"
    with Store(root) as store:
        store.insert([Sample("a", 10, 1.0)])
    seg = next((root / "a").glob("*.seg"))
    assert seg.stat().st_size == 32 + 16


def record_opens(monkeypatch):
    """The chunk keys of every segment opened for append from here on, in order."""
    opens = []
    real_open = tsstore._Chunk.open_for_append

    def open_for_append(chunk):
        if chunk._fh is None:
            opens.append(chunk.key)
        return real_open(chunk)

    monkeypatch.setattr(tsstore._Chunk, "open_for_append", open_for_append)
    return opens


def test_batch_opens_each_segment_at_most_once(tmp_path, monkeypatch):
    """Random-order samples over many chunks: one open per touched segment,
    where a write per sample would reopen a segment on almost every sample."""
    opens = record_opens(monkeypatch)
    rng = random.Random(29)
    samples = [
        Sample(f"s{rng.randrange(3)}", rng.randint(1, 60_000), rng.random())
        for _ in range(3000)
    ]
    monkeypatch.setattr(tsstore, "DEFAULT_CHUNK_SPAN_US", 1000)
    with Store(tmp_path / "db") as store:
        store.insert(samples)
        assert len(opens) == len(set(opens)) == len(segment_keys(tmp_path / "db")) > 100


@pytest.mark.parametrize("batch", [500, 16])
def test_late_samples_open_each_segment_once(tmp_path, monkeypatch, batch):
    """16 sensors at one sample per tick over 8 windows, in arrival order,
    with 2 % of samples up to a window late, as the connector hands a store
    late data: every chunk's segment is opened once, on both routes, though
    the handle bound of three windows per sensor closes handles all along."""
    monkeypatch.setattr(tsstore, "DEFAULT_CHUNK_SPAN_US", 600)
    monkeypatch.setattr(tsstore, "MAX_OPEN_SEGMENTS", 48)
    opens = record_opens(monkeypatch)
    rng = random.Random(67)
    arrivals = []
    for tick in range(1, 8 * 600):
        for i in range(16):
            late = rng.randrange(1, 600) if rng.random() < 0.02 else 0
            arrivals.append((tick + late, len(arrivals), Sample(f"s{i}", tick, float(tick))))
    samples = [sample for *_, sample in sorted(arrivals)]
    root = tmp_path / "db"
    with Store(root) as store:
        for a in range(0, len(samples), batch):
            assert set(store.insert(samples[a:a + batch]).statuses) == {ACK}
            assert len(store._handles) <= 48
    assert sorted(opens) == segment_keys(root)
    assert len(opens) == 16 * 8
    assert stored_count(root) == len(samples)
    assert verify_segments(root) == []


def child_env():
    """The environment of a child Python that imports this checkout's
    ``paveharvest`` and the tests' ``helpers``."""
    path = [str(Path(paveharvest.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    return dict(os.environ, PYTHONPATH=os.pathsep.join([*path, os.environ.get("PYTHONPATH", "")]))


FD_WRITER = """
import resource, sys
from collections import Counter
from paveharvest.tsstore import Sample, Store

_, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
resource.setrlimit(resource.RLIMIT_NOFILE, (min(256, hard), hard))
sensors = [f"s{i}" for i in range(400)]
with Store(sys.argv[1]) as store:
    for n, size in enumerate([400, 400, 16, 16]):
        batch = [Sample(s, n + 1, float(n)) for s in sensors]
        statuses = Counter()
        for a in range(0, len(batch), size):
            statuses.update(store.insert(batch[a:a + size]).statuses)
        print(dict(statuses), flush=True)
"""


def test_400_sensors_under_a_256_fd_limit_store_everything(tmp_path):
    """A writer whose soft fd limit is 256 inserts one sample for each of
    400 sensors, four times over, in batches of 400 and of 16: the handle
    bound keeps it below the limit, so every sample is stored."""
    root = tmp_path / "db"
    out = subprocess.run(
        [sys.executable, "-c", FD_WRITER, str(root)],
        capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["{'ack': 400}"] * 4, out.stderr
    assert stored_count(root) == 4 * 400
    assert verify_segments(root) == []


def test_columnar_pass_takes_what_converts_and_agrees_with_the_per_sample_rule():
    """Batches of at least ``COLUMNAR_MIN_BATCH`` samples take the columnar
    pass, which gives the per-sample rule's statuses and writes; a batch it
    cannot convert is left to the per-sample rule whole."""
    rows = [Sample(f"s{i % 3}", 1 + (i * 7919) % 5000, float(i)) for i in range(200)]
    rows[5], rows[9] = Sample("s1", 0, 1.0), Sample("s2", 3, float("nan"))
    rows[12], rows[15] = Sample("", 4, 1.0), Sample("s0", 2**63 - 1, 1.0)

    def plain(grouped):
        statuses, writes = grouped
        return statuses, sorted((last, key, bytes(records), list(indices))
                                for last, key, records, indices in writes)

    with mock.patch.object(tsstore, "DEFAULT_CHUNK_SPAN_US", 1000):
        assert plain(tsstore._group_columns(rows)) == plain(tsstore._group_each(rows))
        for odd in (Sample("a", 1.5, 1.0), Sample("a", 2**63, 1.0), Sample("a", 1, 10**400),
                    Sample(["a"], 1, 1.0), ("a", 1)):
            assert tsstore._group_columns([*rows, odd]) is None
        assert tsstore._group_columns([]) is None
    taken = []
    real = tsstore._group_columns
    with mock.patch.object(tsstore, "_group_columns", lambda rows: taken.append(len(rows))
                           or real(rows)), tempfile.TemporaryDirectory() as tmp:
        with Store(tmp) as store:
            for n in (tsstore.COLUMNAR_MIN_BATCH - 1, tsstore.COLUMNAR_MIN_BATCH):
                store.insert(rows[:n])
    assert taken == [tsstore.COLUMNAR_MIN_BATCH]


@pytest.mark.parametrize("fault", ["short", "enospc"])
def test_failed_write_fails_only_its_chunk(tmp_path, fault):
    root = tmp_path / "db"
    with Store(root) as store:
        store.insert([Sample("a", 10, 1.0), Sample("b", 10, 1.0)])
        seg_a = root / "a" / "0.seg"
        before = seg_a.read_bytes()
        handle = store._handles[ChunkKey("a", 0)].open_for_append()
        real_write = handle.write

        def write(data):
            if fault == "enospc":
                raise OSError(28, "No space left on device")
            return real_write(data[: len(data) // 2 + 3])  # lands mid-record

        handle.write = write
        report = store.insert(
            [Sample("a", 20, 2.0), Sample("b", 20, 2.0), Sample("a", 30, 3.0)]
        )
        assert report.statuses == ["storage-full", "ack", "storage-full"]
        assert seg_a.read_bytes() == before
        assert handle.closed and ChunkKey("a", 0) not in store._handles  # a failed append closes it
        assert store.insert([Sample("a", 40, 4.0)]).statuses == ["ack"]
        assert store.query_range("a", 0, 100) == [Sample("a", 10, 1.0), Sample("a", 40, 4.0)]
        assert store.query_range("b", 0, 100) == [Sample("b", 10, 1.0), Sample("b", 20, 2.0)]
    assert verify_segments(root) == []


def test_failed_first_write_leaves_no_segment(tmp_path, monkeypatch):
    root = tmp_path / "db"
    real_open = tsstore._Chunk.open_for_append

    def open_for_append(chunk):
        handle = real_open(chunk)
        if chunk.key.sensor == "a":
            handle.write = lambda data: 0
        return handle

    monkeypatch.setattr(tsstore._Chunk, "open_for_append", open_for_append)
    with Store(root) as store:
        report = store.insert([Sample("a", 10, 1.0), Sample("b", 10, 1.0)])
        assert report.statuses == ["storage-full", "ack"]
        assert segment_keys(root) == [ChunkKey("b", 0)]
    monkeypatch.undo()
    with Store(root) as store:
        assert store.insert([Sample("a", 10, 1.0)]).statuses == ["ack"]
        assert store.query_range("a", 0, 100) == [Sample("a", 10, 1.0)]
    assert verify_segments(root) == []


_model_batch = st.lists(
    st.tuples(st.sampled_from("ab"), st.integers(1, 40), st.integers(0, 3)),
    max_size=30,
)


@settings(max_examples=80, deadline=None)
@given(batches=st.lists(_model_batch, max_size=6), reopen=st.booleans(), columnar=st.booleans())
def test_inserts_match_dict_model(batches, reopen, columnar):
    """Statuses and last-write-wins reads follow a dict of (sensor, ts) -> v,
    on both routes, across batches with in-batch resends and chunks touched
    out of order."""
    model: dict[tuple[str, int], float] = {}
    with tempfile.TemporaryDirectory() as tmp, routes(columnar), \
            mock.patch.object(tsstore, "DEFAULT_CHUNK_SPAN_US", 7):
        store = Store(tmp)
        for i, batch in enumerate(batches):
            samples = [Sample(s, ts, float(v)) for s, ts, v in batch]
            for s in samples:
                model[s.sensor, s.ts] = s.v
            assert store.insert(samples).statuses == [ACK] * len(samples)
            if reopen and i % 2:
                store.close()
                store = Store(tmp)
        for sensor in "ab":
            assert store.query_range(sensor, 0, 100) == sorted(
                Sample(s, ts, v) for (s, ts), v in model.items() if s == sensor
            )
        store.close()
        assert verify_segments(tmp) == []


_stamp = st.integers(1, 40)


@settings(max_examples=200, deadline=None)
@given(
    head=st.lists(_stamp, unique=True, max_size=30).map(sorted),
    tail=st.lists(_stamp, max_size=30),
    torn=st.integers(0, RECORD_SIZE - 1),
    cut=st.sampled_from([None, 0, 10, HEADER_SIZE]),
)
def test_read_segment_matches_a_dict_replay(head, tail, torn, cut):
    """A segment decodes to its records replayed in file order into a dict:
    an in-order head, then a tail of late and resent stamps, duplicates
    within the file among them, with or without a torn trailing record. A
    file cut at or inside its header, or one that is gone, holds none."""
    key = ChunkKey("a", 0)
    header = tsstore.HEADER.pack(b"TSEG", 1, tsstore.key_hash("a"), 0, bytes(8))
    records = b"".join(RECORD.pack(ts, float(i)) for i, ts in enumerate(head + tail))
    raw = (header + records + bytes(range(1, torn + 1)))[:cut]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "0.seg"
        if cut != 0:
            path.write_bytes(raw)
        ts, v = tsstore._read_segment(key, path)
    assert list(zip(ts.tolist(), v.tolist())) == reference_segment_rows(raw)


_window = st.integers(0, 3)
_offset = st.integers(-3, 12)


@settings(max_examples=150, deadline=None)
@given(
    span=st.sampled_from([10, HOUR]),
    writes=st.lists(st.tuples(_window, _offset, st.integers(-1000, 1000)), max_size=60),
    batch=st.integers(1, 20),
    bounds=st.tuples(_window, _offset, _window, _offset),
    bucket=st.sampled_from([1, 7, HOUR, 5 * HOUR, 2**63 - 1]),
)
def test_reads_match_the_per_row_models(span, writes, batch, bounds, bucket):
    """``query_range`` returns ``Sample`` rows and ``downsample`` gives each
    aggregate of a per-row bucket model, over writes in arrival order into
    chunks of several windows, with late and resent stamps. Values are whole
    numbers, so every sum is exact and the models compare by equality."""
    samples = [Sample("a", max(1, w * span + off), float(v)) for w, off, v in writes]
    model = {s.ts: s.v for s in samples}
    rows = sorted(model.items())
    t0, t1 = sorted(max(0, w * span + off) for w, off in (bounds[:2], bounds[2:]))
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(tsstore, "DEFAULT_CHUNK_SPAN_US", span):
        with Store(tmp) as store:
            for i in range(0, len(samples), batch):
                store.insert(samples[i : i + batch])
            got = store.query_range("a", t0, t1)
            assert all(type(s) is Sample for s in got)
            assert got == [Sample("a", ts, v) for ts, v in rows if t0 <= ts < t1]
            for agg in tsstore.AGGREGATES:
                want = reference_downsample(rows, t0, t1, bucket, agg)
                assert store.downsample("a", t0, t1, bucket, agg) == want, agg


@pytest.mark.parametrize("bucket", [0, -1, 2**63, 2**64, 10**30])
def test_downsample_rejects_a_bucket_beyond_int64(tmp_path, bucket):
    """A bucket must be a positive int64; a larger one raises before numpy
    sees it, which would overflow or, at numpy 1.24, compute in float64."""
    with Store(tmp_path / "db") as store:
        store.insert([Sample("a", 10, 1.0)])
        with pytest.raises(ValueError, match="bucket"):
            store.downsample("a", 0, 100, bucket, "avg")


def test_a_range_that_ends_before_it_starts_is_refused_by_every_read(tmp_path):
    """``t0 > t1`` is one rule of the store's reads: ``downsample`` refuses it
    as ``query_range`` does, rather than answer an empty list."""
    with Store(tmp_path / "db") as store:
        store.insert([Sample("a", 10, 1.0)])
        with pytest.raises(ValueError, match="t0 must not exceed t1"):
            store.query_range("a", 100, 0)
        for agg in tsstore.AGGREGATES:
            with pytest.raises(ValueError, match="t0 must not exceed t1"):
                store.downsample("a", 100, 0, 10, agg)
        assert store.downsample("a", 5, 5, 10, "count") == []


def test_close_releases_every_chunk(tmp_path):
    store = Store(tmp_path / "db")
    store.insert([Sample(s, h * HOUR + 5, 1.0) for s in "ab" for h in range(3)])
    assert store.query_range("a", 0, 3 * HOUR)
    store.close()
    assert store._handles == {}
    with pytest.raises(tsstore.StoreError):
        store.query_range("a", 0, 3 * HOUR)


def test_reads_keep_no_state(tmp_path):
    """Every read decodes from disk: a session that only reads holds no chunk."""
    root = tmp_path / "db"
    with Store(root) as store:
        store.insert([Sample(s, h * HOUR + 5, h) for s in "ab" for h in range(3)])
    with Store(root) as store:
        assert store.query_range("a", 0, 3 * HOUR)
        assert store.downsample("b", 0, 3 * HOUR, HOUR, "avg") == [
            (h * HOUR, float(h)) for h in range(3)
        ]
        assert store._handles == {}


def test_missing_store_reads_as_empty_and_is_not_made(tmp_path):
    root = tmp_path / "nx" / "db"
    store = Store(root)
    assert store.query_range("a", 0, HOUR) == []
    assert store.downsample("a", 0, HOUR, 60, "max") == []
    store.close()
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(FileNotFoundError):
        verify_segments(root)
    (tmp_path / "file").write_bytes(b"")
    with pytest.raises(NotADirectoryError):
        Store(tmp_path / "file")


def test_segment_removed_after_listing_holds_no_records(tmp_path, monkeypatch):
    """A segment removed after a query listed it, as an operator who drops
    a window may, reads as no records and the query goes on."""
    root = tmp_path / "db"
    with Store(root) as store:
        store.insert([Sample("a", h * HOUR + 5, float(h)) for h in range(3)])
    real_read_bytes = tsstore.Path.read_bytes
    gone = f"{HOUR}.seg"

    def read_bytes(path):
        if path.name == gone:
            path.unlink()
        return real_read_bytes(path)

    monkeypatch.setattr(tsstore.Path, "read_bytes", read_bytes)
    with Store(root) as store:
        assert store.query_range("a", 0, 3 * HOUR) == [
            Sample("a", 5, 0.0), Sample("a", 2 * HOUR + 5, 2.0)
        ]
        assert not (root / "a" / gone).exists()
        assert store.downsample("a", 0, 3 * HOUR, HOUR, "count") == [(0, 1), (2 * HOUR, 1)]


def test_open_lists_nothing_and_a_query_only_its_sensor(tmp_path, monkeypatch):
    """The directory is the chunk table: opening reads no sensor directory,
    a one-sensor query lists only its sensor, and no read makes state."""
    root = tmp_path / "db"
    with Store(root) as store:
        store.insert([Sample(s, h * HOUR + 5, h) for s in "abc" for h in range(4)])
    listed = []
    real_glob = tsstore.Path.glob

    def glob(path, pattern):
        listed.append(path.name)
        return real_glob(path, pattern)

    monkeypatch.setattr(tsstore.Path, "glob", glob)
    store = Store(root)
    assert store._handles == {}
    assert listed == []
    got = store.query_range("b", HOUR, 3 * HOUR)
    assert got == [Sample("b", HOUR + 5, 1.0), Sample("b", 2 * HOUR + 5, 2.0)]
    assert store._handles == {}
    assert listed == ["b"]
    assert store.downsample("c", 0, 4 * HOUR, 4 * HOUR, "count") == [(0, 4)]
    assert listed == ["b", "c"]
    store.close()


def test_reopened_writer_loads_only_the_chunk_it_writes(tmp_path, monkeypatch):
    """A session that writes one chunk of a store decodes no segment, through
    its close, however many chunks the store holds: before its first append
    it reads the header of the chunk it writes, and nothing more."""
    root = tmp_path / "db"
    with Store(root) as store:
        store.insert([Sample("a", h * HOUR + i, 1.0) for h in range(3) for i in range(1, h + 2)])
    read = record_reads(monkeypatch)
    preads, real_pread = [], os.pread

    def pread(fd, n, offset):
        data = real_pread(fd, n, offset)
        preads.append((os.fstat(fd).st_ino, n, offset, len(data)))
        return data

    monkeypatch.setattr(tsstore.os, "pread", pread)
    monkeypatch.setattr(tsstore.Path, "read_bytes", lambda path: pytest.fail(f"read {path}"))
    with Store(root) as store:
        assert store.insert(
            [Sample("a", HOUR + 50, 2.0), Sample("a", HOUR + 1, 3.0)]).statuses == [ACK, ACK]
    assert read == []
    written = (root / "a" / f"{HOUR}.seg").stat().st_ino
    assert preads == [(written, HEADER_SIZE, 0, HEADER_SIZE)]
    monkeypatch.undo()
    with Store(root) as store:
        got = store.downsample("a", 0, 3 * HOUR, HOUR, "count")
    assert got == [(0, 1), (HOUR, 3), (2 * HOUR, 3)]


@pytest.mark.parametrize("name", ["notes.seg", "00.seg"])
def test_stray_segment_file_is_ignored(tmp_path, caplog, name):
    """A .seg file whose name the store would not give a chunk is not one:
    ``00.seg`` would otherwise list window 0 twice."""
    root = tmp_path / "db"
    with Store(root) as store:
        store.insert([Sample("a", 10, 1.0)])
    stray = root / "a" / name
    stray.write_bytes((root / "a" / "0.seg").read_bytes())
    warning = f"ignoring stray file {stray}"
    with caplog.at_level("WARNING", logger="paveharvest.tsstore"):
        with Store(root) as store:
            assert store.query_range("a", 0, 100) == [Sample("a", 10, 1.0)]
    assert warning in caplog.text
    caplog.clear()
    with caplog.at_level("WARNING", logger="paveharvest.tsstore"):
        assert verify_segments(root) == []
    assert warning in caplog.text
    with open(root / "a" / "0.seg", "ab") as fh:  # the real segment is still checked
        fh.write(RECORD.pack(2 * HOUR, 1.0))
    assert [issue.path for issue in verify_segments(root)] == [str(root / "a" / "0.seg")]
    assert stray.exists()


def test_stray_sensor_directory_is_ignored(tmp_path, caplog):
    """A directory that is not the quoted name of its sensor is not listed:
    ``%2E%2E`` would otherwise list the segments beside the root."""
    root = tmp_path / "db"
    with Store(root) as store:
        store.insert([Sample("a", 10, 1.0)])
    stray = root / "%2E%2E"
    stray.mkdir()
    (stray / "0.seg").write_bytes((root / "a" / "0.seg").read_bytes())
    (tmp_path / "0.seg").write_bytes(b"beside the root")
    with caplog.at_level("WARNING", logger="paveharvest.tsstore"):
        assert verify_segments(root) == []
    assert caplog.text.count(f"ignoring stray directory {stray}") == 1
    assert (stray / "0.seg").exists()
    assert (tmp_path / "0.seg").read_bytes() == b"beside the root"


def test_a_second_writer_is_refused_until_the_first_closes(tmp_path):
    """One writer per root: a second ``Store`` on it, even in the same
    process (each takes its own ``flock``), is refused at its first insert,
    an empty one too, and writes nothing, so the read-back is what the first
    writer acked. A reader takes no lock. Once the first writer closes, the
    second claims the root; a writer collected unclosed releases it too."""
    root = tmp_path / "db"
    refused = re.escape(f"store {root} has another writer")
    hours = [Sample("a", h * HOUR + 1, float(h)) for h in range(60)]
    first, second = Store(root), Store(root)
    assert set(first.insert(hours[:30]).statuses) == {ACK}
    before = tree_bytes(root)
    for batch in ([], hours[30:]):
        with pytest.raises(StoreError, match=refused):
            second.insert(batch)
    assert tree_bytes(root) == before
    assert set(first.insert(hours[30:]).statuses) == {ACK}
    with Store(root) as reader:
        assert reader.query_range("a", 0, 60 * HOUR) == hours
    first.close()
    assert second.insert([Sample("a", 1, -1.0)]).statuses == [ACK]  # a resend
    with pytest.raises(StoreError, match=refused):
        Store(root).insert([])
    second.close()
    dropped = Store(root)
    dropped.insert([])
    del dropped  # a writer collected unclosed releases the root too
    with Store(root) as third:
        third.insert([])
        assert third.query_range("a", 0, 60 * HOUR) == [Sample("a", 1, -1.0), *hours[1:]]
    assert verify_segments(root) == []


LOCK_HOLDER = """
import sys
from paveharvest.tsstore import Store

store = Store(sys.argv[1])
store.insert([])
print("claimed", flush=True)
sys.stdin.read()  # holds the root until its stdin closes
"""


def test_a_second_writer_process_is_refused_until_the_first_exits(tmp_path):
    """The claim holds across processes, and goes with the process that
    held it."""
    root = tmp_path / "db"
    with subprocess.Popen(
        [sys.executable, "-c", LOCK_HOLDER, str(root)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=child_env(),
    ) as holder:
        try:
            assert holder.stdout.readline() == "claimed\n"
            refused = re.escape(f"store {root} has another writer")
            with Store(root) as store, pytest.raises(StoreError, match=refused):
                store.insert([Sample("a", 1, 1.0)])
        finally:
            holder.stdin.close()
    assert holder.returncode == 0
    assert list(root.iterdir()) == []
    with Store(root) as store:
        assert store.insert([Sample("a", 1, 1.0)]).statuses == [ACK]


CRASH_WRITER = """
import sys
from helpers import crash_batch
from paveharvest.tsstore import ACK, Store

store = Store(sys.argv[1])
seed = int(sys.argv[2])
print("ready", flush=True)
n = 0
while True:
    statuses = store.insert(crash_batch(seed, n)).statuses
    if set(statuses) != {ACK}:
        sys.exit(f"batch {n}: {statuses}")
    print(n, flush=True)  # acked: insert has returned
    n += 1
"""


def test_writer_killed_mid_insert_loses_and_invents_nothing(tmp_path):
    """A writer process is killed with SIGKILL mid-stream, again and again
    on one store. Every acked sample reads back with its last acked value;
    any other value read is from the batch in flight at the kill; and the
    only damage ``store check`` finds is a torn trailing record."""
    root = tmp_path / "db"
    env = child_env()
    rng = random.Random(53)
    state: dict[tuple[str, int], float] = {}  # what the store held before this writer
    for seed in range(12):
        with subprocess.Popen(
            [sys.executable, "-c", CRASH_WRITER, str(root), str(seed)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        ) as writer:
            watchdog = threading.Timer(60, writer.kill)
            watchdog.start()
            try:
                ready = writer.stdout.readline()
                if ready == "ready\n":
                    time.sleep(rng.uniform(0.3, 0.8))
            finally:
                writer.kill()
                watchdog.cancel()
            # Read through the same stream: readline may have buffered acks.
            out, err = writer.stdout.read(), writer.stderr.read()
        assert ready == "ready\n", err
        assert writer.returncode == -signal.SIGKILL, err
        acked = [int(line) for line in out.split()]
        assert acked == list(range(len(acked))), err
        for n in acked:
            state.update(((s.sensor, s.ts), s.v) for s in crash_batch(seed, n))
        in_flight: dict[tuple[str, int], set[float]] = {}
        for s in crash_batch(seed, len(acked)):
            in_flight.setdefault((s.sensor, s.ts), set()).add(s.v)
        with Store(root) as store:
            got = {
                (s.sensor, s.ts): s.v
                for sensor in CRASH_SENSORS
                for s in store.query_range(sensor, 0, CRASH_WINDOWS * HOUR)
            }
        assert set(got) >= set(state)
        for key, v in got.items():
            assert v == state.get(key) or v in in_flight.get(key, ()), (key, v)
        assert {issue.problem for issue in verify_segments(root)} <= {"torn trailing record"}
        state = got
    assert len(state) > 1000  # the writers got well past their first batches


BESIDE_WRITER = """
import sys
from helpers import crash_batch
from paveharvest.tsstore import ACK, Store

with Store(sys.argv[1]) as store:
    store.insert([])
    print("claimed", flush=True)
    for n in range(int(sys.argv[2])):
        statuses = store.insert(crash_batch(101, n)).statuses
        if set(statuses) != {ACK}:
            sys.exit(f"batch {n}: {statuses}")
"""


def test_a_reader_process_beside_a_writer_process_sees_only_written_values(tmp_path):
    """Readers take no lock. While a writer process inserts batches with
    resends into 4 sensors over 6 windows, each full-range query here comes
    back strictly ts-ascending, every value one the writer wrote for its
    stamp. Once the writer has exited, a read holds each stamp's last
    write and ``store check`` finds nothing."""
    root, batches = tmp_path / "db", 3000
    written: dict[tuple[str, int], set[float]] = {}
    last: dict[tuple[str, int], float] = {}
    for n in range(batches):
        for s in crash_batch(101, n):
            written.setdefault((s.sensor, s.ts), set()).add(s.v)
            last[(s.sensor, s.ts)] = s.v

    def read_all():
        with Store(root) as reader:
            rows = [s for sensor in CRASH_SENSORS
                    for s in reader.query_range(sensor, 0, CRASH_WINDOWS * HOUR)]
        for a, b in zip(rows, rows[1:]):
            assert a.sensor != b.sensor or a.ts < b.ts, (a, b)
        return rows

    rounds = 0
    with subprocess.Popen(
        [sys.executable, "-c", BESIDE_WRITER, str(root), str(batches)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=child_env(),
    ) as writer:
        watchdog = threading.Timer(60, writer.kill)
        watchdog.start()
        try:
            assert writer.stdout.readline() == "claimed\n"
            while writer.poll() is None:
                for s in read_all():
                    assert s.v in written.get((s.sensor, s.ts), ()), s
                rounds += 1
        finally:
            watchdog.cancel()
            writer.kill()
        err = writer.stderr.read()
    assert writer.returncode == 0, err
    assert rounds >= 5  # the reads overlapped the writes
    assert {(s.sensor, s.ts): s.v for s in read_all()} == last
    assert verify_segments(root) == []
