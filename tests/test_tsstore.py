"""Store partitioning, query, downsample, retention and durability tests."""

import random

import pytest

from paveharvest import tsstore
from paveharvest.timeutil import parse_rfc3339
from paveharvest.tsstore import (
    DEFAULT_CHUNK_SPAN_US,
    HEADER_SIZE,
    RECORD_SIZE,
    ChunkKey,
    CorruptSegment,
    Sample,
    Store,
    chunk_for,
    verify_segments,
)

HOUR = 3_600_000_000


def test_chunk_for_floors_to_window():
    ts = parse_rfc3339("2020-11-23T10:30:00Z")
    want = parse_rfc3339("2020-11-23T10:00:00Z")
    assert chunk_for("s", ts, HOUR) == ChunkKey("s", want)


def test_chunk_for_boundary_belongs_to_started_window():
    ts = parse_rfc3339("2020-11-23T10:00:00Z")
    assert chunk_for("s", ts, HOUR).window_start == ts


def test_chunk_for_property():
    rng = random.Random(3)
    for _ in range(10_000):
        span = rng.choice([1, 7, 1000, HOUR])
        ts = rng.randint(1, 2**48)
        start = chunk_for("s", ts, span).window_start
        assert start <= ts < start + span
        assert start % span == 0


def test_insert_query_round_trip(tmp_path):
    with Store(tmp_path / "db") as store:
        report = store.insert([Sample("a", 123, 4.5)])
        assert report.accepted == 1
        assert store.query_range("a", 0, 1000) == [Sample("a", 123, 4.5)]


def test_duplicate_last_write_wins(tmp_path):
    with Store(tmp_path / "db") as store:
        r1 = store.insert([Sample("a", 7, 1.0)])
        r2 = store.insert([Sample("a", 7, 2.0)])
        assert (r1.accepted, r1.duplicates) == (1, 0)
        assert (r2.accepted, r2.duplicates) == (0, 1)
        assert store.query_range("a", 0, 100) == [Sample("a", 7, 2.0)]


def test_query_empty_store_and_empty_interval(tmp_path):
    with Store(tmp_path / "db") as store:
        assert store.query_range("nope", 0, 10**15) == []
        store.insert([Sample("a", 5, 1.0)])
        assert store.query_range("a", 5, 5) == []  # half-open


def test_query_spanning_chunks_matches_filter(tmp_path):
    rng = random.Random(5)
    with Store(tmp_path / "db", chunk_span_us=1000) as store:
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


def test_query_union_is_exact_partition(tmp_path):
    rng = random.Random(6)
    with Store(tmp_path / "db", chunk_span_us=500) as store:
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


def test_downsample_matches_reference(tmp_path):
    rng = random.Random(9)
    samples = [Sample("a", rng.randint(1, 10**6), rng.uniform(-5, 5)) for _ in range(3000)]
    with Store(tmp_path / "db", chunk_span_us=100_000) as store:
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


def test_retention_keeps_recent(tmp_path):
    with Store(tmp_path / "db") as store:
        now = 10 * HOUR
        store.insert([Sample("a", now - 100, 1.0)])
        assert store.retention_sweep(now, keep=2 * HOUR) == []


def test_retention_drops_whole_old_chunks(tmp_path):
    with Store(tmp_path / "db") as store:
        old_ts = HOUR + 5
        new_ts = 9 * HOUR + 5
        store.insert([Sample("a", old_ts, 1.0), Sample("a", new_ts, 2.0)])
        dropped = store.retention_sweep(now=10 * HOUR, keep=2 * HOUR)
        assert dropped == [ChunkKey("a", HOUR)]
        assert store.query_range("a", 0, 10 * HOUR) == [Sample("a", new_ts, 2.0)]


def test_retention_matches_age_filter(tmp_path):
    rng = random.Random(13)
    with Store(tmp_path / "db", chunk_span_us=1000) as store:
        samples = [Sample("a", rng.randint(1, 50_000), 0.0) for _ in range(300)]
        store.insert(samples)
        keys_before = store.chunks()
        now, keep = 40_000, 10_000
        want = [k for k in keys_before if k.window_start + 1000 <= now - keep]
        assert store.retention_sweep(now, keep) == want


def test_reopen_preserves_query_results(tmp_path):
    rng = random.Random(17)
    samples = [
        Sample(f"s{rng.randint(0, 3)}", rng.randint(1, 10**7), rng.random())
        for _ in range(2000)
    ]
    root = tmp_path / "db"
    with Store(root, chunk_span_us=10_000) as store:
        store.insert(samples)
        golden = {
            sensor: store.query_range(sensor, 0, 10**8)
            for sensor in store.sensors()
        }
    with Store(root, chunk_span_us=10_000) as store:
        for sensor, want in golden.items():
            assert store.query_range(sensor, 0, 10**8) == want


def test_partition_purity_checker(tmp_path):
    rng = random.Random(19)
    root = tmp_path / "db"
    with Store(root, chunk_span_us=5000) as store:
        store.insert(
            [
                Sample(f"site/{i % 3}/epc", rng.randint(1, 100_000), rng.random())
                for i in range(1000)
            ]
        )
    assert verify_segments(root, span=5000) == []


def test_checker_flags_out_of_window_record(tmp_path):
    root = tmp_path / "db"
    with Store(root, chunk_span_us=1000) as store:
        store.insert([Sample("a", 1500, 1.0)])
    seg = next((root / "a").glob("*.seg"))
    import struct

    with open(seg, "ab") as fh:
        fh.write(struct.pack("<qd", 99_999, 3.0))  # outside the window
    issues = verify_segments(root, span=1000)
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
    the last whole record, and nothing is lost or invented."""
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
        if cut < HEADER_SIZE:
            with pytest.raises(CorruptSegment):
                tsstore._Chunk(ChunkKey("a", 0), seg, DEFAULT_CHUNK_SPAN_US).load()
            with Store(root) as store:
                assert store.insert([new]).statuses == ["corrupt-segment"]
            assert seg.read_bytes() == data[:cut]
            continue
        with Store(root) as store:
            assert store.insert([new]).statuses == ["ack"]
        kept = records[: (cut - HEADER_SIZE) // RECORD_SIZE]
        with Store(root) as store:
            assert store.query_range("a", 0, 100) == kept + [new], cut
        assert verify_segments(root) == [], cut


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


def test_insert_rejects_bad_values(tmp_path):
    with Store(tmp_path / "db") as store:
        report = store.insert(
            [Sample("a", 0, 1.0), Sample("a", 5, float("nan")), Sample("a", 6, 1.0)]
        )
        assert report.statuses == ["bad-ts", "nonfinite", "ack"]


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


def test_manifest_written_on_close(tmp_path):
    root = tmp_path / "db"
    with Store(root) as store:
        store.insert([Sample("a", 10, 1.0), Sample("b", DEFAULT_CHUNK_SPAN_US + 1, 2.0)])
    manifest = (root / "manifest").read_text()
    assert "a\t0\t1" in manifest
    assert f"b\t{DEFAULT_CHUNK_SPAN_US}\t1" in manifest


def test_read_only_session_leaves_manifest_and_chunks_alone(tmp_path, monkeypatch):
    """Closing a store that took no inserts loads no chunk it did not read."""
    root = tmp_path / "db"
    with Store(root) as store:
        store.insert([Sample(s, h * HOUR + 5, h) for s in "ab" for h in range(4)])
    before = (root / "manifest").read_bytes()
    loaded = []
    real_load = tsstore._Chunk.load

    def load(chunk):
        if chunk.values is None:
            loaded.append(chunk.key)
        real_load(chunk)

    monkeypatch.setattr(tsstore._Chunk, "load", load)
    store = Store(root)
    got = store.query_range("b", 2 * HOUR, 3 * HOUR)
    assert got == [Sample("b", 2 * HOUR + 5, 2.0)]
    store.close()
    assert (root / "manifest").read_bytes() == before
    assert loaded == [ChunkKey("b", 2 * HOUR)]


def test_segment_header_size_is_32_bytes(tmp_path):
    assert HEADER_SIZE == 32
    root = tmp_path / "db"
    with Store(root) as store:
        store.insert([Sample("a", 10, 1.0)])
    seg = next((root / "a").glob("*.seg"))
    assert seg.stat().st_size == 32 + 16
