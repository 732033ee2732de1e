"""Connector transform, counting and end-to-end ingest tests."""

import bisect
import json
import logging
import random
import socket
import sys
import threading
import time
import urllib.request

import pytest

from paveharvest import connector as connector_mod
from paveharvest.broker import SLOW_CONSUMER_GRACE, Broker
from paveharvest.client import BusClient
from paveharvest.connector import (
    LATENCY_BOUNDS_US,
    Connector,
    IngestMetrics,
    render_metrics_text,
    sensor_key,
    transform,
)
from paveharvest.daqsim import run_scenario
from paveharvest.timeutil import now_us
from paveharvest.tsstore import Store
from paveharvest.wire import (
    SUBJECT_CACHE_SIZE,
    InvalidSubject,
    SamplePayload,
    Subject,
    mqtt_topic_to_subject,
)

from helpers import dropped, failure_patterns, rejected_total, stored_count

EPC_SUBJ = Subject.parse("site.65.daq.1.sensor.epc3")


def payload(ts=1_700_000_000_000_000, v=12.5, seq=9, unit="kPa"):
    return SamplePayload(ts=ts, v=v, seq=seq, unit=unit).encode()


def conserved(m):
    return m.received == m.accepted + rejected_total(m) + m.in_flight


def publish_sensors(address, n, sensors=16):
    """Publish ``n`` samples round-robin over ``sensors`` sensors as fast as
    the bus accepts them; returns how many were published."""
    with BusClient(*address) as pub:
        for i in range(n):
            seq, sensor = divmod(i, sensors)
            pub.publish(
                f"site.65.daq.1.sensor.s{sensor}",
                payload(ts=1_000_000 * (seq + 1) + sensor, v=float(i), seq=seq + 1),
            )
    return n


def free_port():
    """A local port where nothing listens, for now."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def threads_since(before, wait_s=0.0):
    """Names of the live threads started since the snapshot ``before``, but
    a broker's: the connector's, and the bus reader of its client. With
    ``wait_s``, each is first given that long to end."""
    started = [t for t in threading.enumerate() if t not in before and t.name != "broker"]
    for t in started:
        t.join(wait_s)
    return sorted(t.name for t in started if t.is_alive())


def wait_logged(caplog, text, timeout=5.0):
    deadline = time.monotonic() + timeout
    while text not in caplog.text and time.monotonic() < deadline:
        time.sleep(0.02)
    return text in caplog.text


def wait_received(conn, n, timeout=30.0):
    deadline = time.monotonic() + timeout
    while conn.metrics_snapshot().received < n and time.monotonic() < deadline:
        time.sleep(0.02)


# --- transform -----------------------------------------------------------


def test_transform_field_mapping():
    rec = transform(EPC_SUBJ, payload(), recv_wall_us=42)
    assert rec.sensor_key == "65/1/epc3"
    assert rec.ts == 1_700_000_000_000_000
    assert rec.v == 12.5
    assert rec.seq == 9
    assert rec.recv_wall_us == 42


def test_transform_rejects_empty_object():
    assert transform(EPC_SUBJ, b"{}", 42) == "malformed"


def test_transform_rejects_nonfinite():
    assert transform(EPC_SUBJ, b'{"ts":1,"v":NaN,"seq":1,"unit":"kPa"}', 42) == "nonfinite"
    assert transform(EPC_SUBJ, b'{"ts":1,"v":Infinity,"seq":1,"unit":"kPa"}', 42) == "nonfinite"


def test_transform_rejects_bad_subject_shape():
    for text in ("site.65.daq.1.sensor", "a.b.c.d.e.f", "site.65.x.1.sensor.epc3"):
        assert transform(Subject.parse(text), payload(), 42) == "bad_subject"
        assert transform(Subject.parse(text), b"{}", 42) == "bad_subject"


def transform_each(messages, recv_wall_us):
    """The per-message rule ``transform_run`` is checked against."""
    return [transform(subject, body, recv_wall_us) for subject, body in messages]


def fuzz_run(rng):
    """A run of up to ten messages: all in the compact form half the time,
    else mixed with every other form a payload may take."""
    subjects = [EPC_SUBJ, Subject.parse("site.65.daq.2.sensor.t1"),
                Subject.parse("site.65.x.1.sensor.epc3")]  # the last is a bad subject
    ts = [1, 10**18 - 1, 1_700_000_000_000_000, 2**63 - 1, 2**63, 0]
    v = ["12.5", "-0", "-0.0", "0", "3", "-1.5e+3", "1E5", "2.5e-7", "1e999", "-1e999",
         "123456789012345678", "NaN", "Infinity", "-Infinity"]

    def compact():
        return (b'{"ts":%d,"v":%s,"seq":%d,"unit":"kPa"}'
                % (rng.choice(ts[:3]), rng.choice(v[:11]).encode(), rng.randint(0, 300)))

    def other():
        fields = {"ts": rng.choice(ts), "v": rng.choice(v), "seq": rng.randint(0, 300),
                  "unit": rng.choice(["kPa", 'k"Pa'])}
        keys = rng.sample(list(fields), 4)
        text = ", ".join(f'"{k}": {fields[k] if k != "unit" else json.dumps(fields[k])}'
                         for k in keys)
        return rng.choice([
            ("{%s}" % text).encode(),  # reordered or whitespaced
            ("{%s}" % text.replace(", ", ",\n")).encode(),  # an embedded newline
            compact() + b"\n" + compact(),  # two compact lines in one payload
            compact()[:-1], b"not json", b"",
        ])

    make = compact if rng.random() < 0.5 else lambda: rng.choice([compact, other])()
    return [(rng.choice(subjects), make()) for _ in range(rng.randint(1, 10))]


def test_transform_run_matches_transform_per_message(tmp_path, monkeypatch):
    """Over fuzzed runs, ``transform_run`` gives ``transform``'s record or
    reject reason for every message, ``-0`` and ``-0.0`` told apart, and a
    connector fed the runs through either rule ends with the same queue and
    counters. Both the one-pass decode and the per-message rule run."""
    monkeypatch.setattr(connector_mod, "now_us", lambda: 42)
    rng = random.Random(3301)
    runs = [fuzz_run(rng) for _ in range(400)]
    # as many matches as payloads, but one payload holds two lines
    two_lines = payload(seq=1) + b"\n" + payload(seq=2)
    runs.append([(EPC_SUBJ, two_lines), (EPC_SUBJ, b"not json")])

    def spelled(records):
        return [r if isinstance(r, str) else (r.sensor_key, r.ts, repr(r.v), r.seq, r.recv_wall_us)
                for r in records]

    one_pass = sum(
        connector_mod.wire.decode_compact_run([body for _, body in run]) is not None
        for run in runs
    )
    assert 150 < one_pass < len(runs) - 100
    for run in runs:
        assert spelled(connector_mod.transform_run(run, 7)) == spelled(transform_each(run, 7))
    with Store(tmp_path / "db") as store:
        conns = [Connector(store), Connector(store)]  # counting only; writers not started
        for run in runs:
            conns[0].ingest(run)
        monkeypatch.setattr(connector_mod, "transform_run", transform_each)
        for run in runs:
            conns[1].ingest(run)
    got, want = (c.metrics_snapshot() for c in conns)
    assert got == want
    assert spelled(conns[0]._queue) == spelled(conns[1]._queue)
    assert got.accepted == 0 and got.received == sum(map(len, runs))
    assert set(got.rejected) == {"malformed", "nonfinite", "bad_subject"}
    assert got.seq_gaps and got.duplicate_seq


def test_sensor_key_is_cached_per_subject_and_a_bad_one_as_none():
    assert sensor_key.cache_info().maxsize == SUBJECT_CACHE_SIZE
    sensor_key.cache_clear()
    first = sensor_key(EPC_SUBJ.raw)
    assert first == "65/1/epc3"
    assert sensor_key(Subject.parse("site.65.daq.1.sensor.epc3").raw) is first
    assert sensor_key.cache_info().hits == 1
    for _ in range(3):
        assert sensor_key(b"site.65.x.1.sensor.epc3") is None
    assert sensor_key.cache_info().hits == 3
    assert sensor_key.cache_info().currsize == 2


def test_latency_histogram_matches_a_per_record_count():
    """The batch count outside the lock gives what one bisect per record
    gives, bucket bounds and future timestamps included."""
    rng = random.Random(5)
    wall = 10**12
    edges = [wall - b + d for b in LATENCY_BOUNDS_US for d in (-1, 0, 1)]
    for n in (0, 1, 7, 500):
        ts = [rng.choice(edges) if rng.random() < 0.5 else wall - rng.randint(-10**6, 10**7)
              for _ in range(n)]
        counts, skew = [0] * (len(LATENCY_BOUNDS_US) + 1), 0
        for t in ts:
            delta = wall - t
            if delta < 0:
                skew, delta = skew + 1, 0
            counts[bisect.bisect_left(LATENCY_BOUNDS_US, delta)] += 1
        assert connector_mod._latency_histogram(sorted(ts), wall) == (counts, skew)


# --- counting without a broker ---------------------------------------------


def test_metrics_all_zero_without_traffic(tmp_path):
    with Store(tmp_path / "db") as store:
        conn = Connector(store).start()
        m = conn.metrics_snapshot()
        conn.stop()
    assert m.received == m.accepted == rejected_total(m) == 0
    assert sum(m.latency_counts) == 0


def test_valid_and_malformed_counting(tmp_path):
    with Store(tmp_path / "db") as store:
        conn = Connector(store).start()
        run = [(EPC_SUBJ, payload(ts=1000 + i, seq=i + 1)) for i in range(10)]
        conn.ingest(run[:4] + [(EPC_SUBJ, b"{}")] + run[4:] + [(EPC_SUBJ, b"not json")])
        assert conn.drain()
        m = conn.metrics_snapshot()
        conn.stop()
    assert m.accepted == 10
    assert m.rejected == {"malformed": 2}
    assert m.received == 12
    assert sum(m.latency_counts) == m.accepted  # histogram conservation


def test_seq_gap_and_duplicate_counting(tmp_path):
    with Store(tmp_path / "db") as store:
        conn = Connector(store).start()
        for seq in (1, 2, 4):
            conn.ingest([(EPC_SUBJ, payload(ts=seq * 1000, seq=seq))])
        conn.ingest([(EPC_SUBJ, payload(ts=4000, seq=4))])  # retry lookalike
        assert conn.drain()
        m = conn.metrics_snapshot()
        conn.stop()
    assert m.seq_gaps == 1
    assert m.duplicate_seq == 1


def test_late_seqs_fill_gaps_within_the_window(tmp_path):
    with Store(tmp_path / "db") as store:
        conn = Connector(store)  # counting only; the writer is not started
        seqs = [5, 3, 7, 6, 4, 2, 6, 1, 100, 99, 30, 35, 35, 200, 150]
        conn.ingest([(EPC_SUBJ, payload(ts=seq * 1000, seq=seq)) for seq in seqs])
        m = conn.metrics_snapshot()
    # 3, 2 and 1 arrive below the lowest seq and 7 skips 6: 4 and 6 arrive
    # later and fill what 3 and 7 left; 100 skips 8..99, of which 99 arrives;
    # 30 and 35 are older than the window below 100, so duplicates, as are
    # the second 6 and the second 35; 200 skips 101..199, and 150 fills one
    assert m.seq_gaps == (99 - 8 + 1) - 1 + (199 - 101 + 1) - 1
    assert m.duplicate_seq == 4
    assert m.received == m.in_flight == len(seqs)


def test_seq_counters_match_the_drops_of_the_retry_rule(tmp_path, caplog):
    """Under ``run_scenario``'s failure patterns, a retry sent after a newer
    seq is neither a gap nor a duplicate: the gaps are the seqs dropped with
    a WARNING between a sensor's lowest and highest seq received. A drop
    at either end leaves no seq after it, so no counter can see it."""
    late = edge_drops = 0
    with Store(tmp_path / "db") as store:
        for scenario, outcomes in failure_patterns():
            conn = Connector(store)  # counting only; the writer is not started
            attempts = iter(outcomes)
            received: dict[str, list[int]] = {}

            def publish(topic, sample):
                if not next(attempts):
                    raise OSError("link down")
                received.setdefault(topic, []).append(sample.seq)
                conn.ingest([(mqtt_topic_to_subject(topic), sample.encode())])

            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="paveharvest.daqsim"):
                run_scenario(scenario, publish, speedup=10**9)
            drops = dropped(caplog)
            inside = [(topic, seq) for topic, seq in drops if topic in received
                      and min(received[topic]) < seq < max(received[topic])]
            m = conn.metrics_snapshot()
            assert (m.seq_gaps, m.duplicate_seq) == (len(inside), 0)
            late += sum(seqs != sorted(seqs) for seqs in received.values())
            edge_drops += len(drops) - len(inside)
    assert late > 50 and edge_drops > 0  # both cases occur


def test_skew_clamped_and_counted(tmp_path):
    future = now_us() + 3_600_000_000  # an hour ahead of the wall clock
    with Store(tmp_path / "db") as store:
        conn = Connector(store).start()
        conn.ingest([(EPC_SUBJ, payload(ts=future, seq=1))])
        assert conn.drain()
        m = conn.metrics_snapshot()
        conn.stop()
    assert m.accepted == 1
    assert m.skew_events == 1
    assert m.latency_counts[0] == 1  # clamped to zero lands in the first bucket


def test_queue_overflow_counted(tmp_path, monkeypatch):
    monkeypatch.setattr(connector_mod, "DEFAULT_QUEUE_CAP", 5)
    with Store(tmp_path / "db") as store:
        conn = Connector(store)  # writer not started
        conn.ingest([(EPC_SUBJ, payload(ts=1 + i, seq=i + 1)) for i in range(8)])
        m = conn.metrics_snapshot()
        assert m.rejected.get("overflow") == 3
        assert m.received == 8
        assert m.received == m.accepted + rejected_total(m) + m.in_flight


def test_run_longer_than_the_queue_is_counted_record_by_record(tmp_path, monkeypatch):
    """A run longer than the queue, ingested while the store stalls, is
    counted as each record is queued or rejected: the counters balance at
    every snapshot, the queue never passes its cap, and overflow starts
    only once the writer has taken nothing for the grace."""
    cap, batch, n = 50, 10, 200
    monkeypatch.setattr(connector_mod, "DEFAULT_QUEUE_CAP", cap)
    monkeypatch.setattr(connector_mod, "DEFAULT_BATCH_SIZE", batch)
    release = threading.Event()
    with Store(tmp_path / "db") as store:
        insert = store.insert

        def stalled_insert(samples):
            release.wait(30)
            return insert(samples)

        store.insert = stalled_insert
        conn = Connector(store).start()
        run = [(EPC_SUBJ, payload(ts=1000 + i, seq=i + 1)) for i in range(n)]
        started = time.monotonic()
        ingest = threading.Thread(target=conn.ingest, args=(run,))
        ingest.start()
        snapshots, waiting = [], True
        while waiting:  # and one snapshot once the run is counted
            waiting = ingest.is_alive()
            queued = len(conn._queue)
            snapshots.append((time.monotonic() - started, queued, conn.metrics_snapshot()))
            time.sleep(0.005)
        release.set()
        ingest.join()
        assert conn.drain()
        final = conn.metrics_snapshot()
        conn.stop()
    assert [m for _, _, m in snapshots if not conserved(m)] == []
    assert max(queued for _, queued, _ in snapshots) <= cap
    overflowed = [t for t, _, m in snapshots if m.rejected.get("overflow")]
    assert overflowed and overflowed[0] >= SLOW_CONSUMER_GRACE
    assert len(snapshots) > 100  # snapshots were taken while the run waited
    assert final.received == n
    assert (final.accepted, final.rejected) == (cap + batch, {"overflow": n - cap - batch})


def test_conservation_holds_while_a_batch_is_inserted(tmp_path):
    with Store(tmp_path / "db") as store:
        insert = store.insert

        def slow_insert(samples):
            time.sleep(0.3)
            return insert(samples)

        store.insert = slow_insert
        conn = Connector(store).start()
        for i in range(10):
            conn.ingest([(EPC_SUBJ, payload(ts=1000 + i, seq=i + 1))])
        snapshots = []
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            snapshots.append(conn.metrics_snapshot())
            if snapshots[-1].accepted == 10:
                break
            time.sleep(0.01)
        conn.stop()
    assert snapshots[-1].accepted == 10
    assert len(snapshots) >= 20  # at least one whole insert was observed
    assert [m for m in snapshots if not conserved(m)] == []
    assert max(m.in_flight for m in snapshots) > 0


def test_timestamp_beyond_int64_is_one_rejected_malformed(tmp_path):
    """A ts of 2**63 or later is no sample the store can hold: the payload
    decode refuses it, so it counts as malformed, not as a storage failure,
    and the rest of its batch is stored and counted as accepted."""
    with Store(tmp_path / "db") as store:
        conn = Connector(store)  # started once all three are queued: one batch
        for seq, ts in enumerate((10, 2**63, 20), 1):
            conn.ingest([(EPC_SUBJ, payload(ts=ts, seq=seq))])
        conn.start()
        assert conn.drain()
        m = conn.metrics_snapshot()
        conn.stop()
        assert stored_count(store.root) == 2
    assert m.accepted == 2
    assert m.rejected == {"malformed": 1}
    assert conserved(m)


def test_store_failure_counts_rejected_store(tmp_path):
    store = Store(tmp_path / "db")
    store.close()  # writes now fail
    conn = Connector(store).start()
    conn.ingest([(EPC_SUBJ, payload())])
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        if conn.metrics_snapshot().rejected.get("store"):
            break
        time.sleep(0.02)
    m = conn.metrics_snapshot()
    conn.stop()
    assert m.rejected.get("store") == 1
    assert m.accepted == 0


# --- against a live broker ---------------------------------------------------


def test_end_to_end_counting(tmp_path):
    with Broker().start() as broker, Store(tmp_path / "db") as store:
        conn = Connector(store, broker_addr=broker.address).start()
        deadline = time.monotonic() + 5
        while conn._client is None and time.monotonic() < deadline:
            time.sleep(0.02)
        with BusClient(*broker.address) as pub:
            n = 0
            for sensor in ("epc1", "epc2", "scg1"):
                for seq in range(1, 61):
                    pub.publish(
                        f"site.65.daq.1.sensor.{sensor}",
                        SamplePayload(
                            ts=seq * 1_000_000, v=float(seq), seq=seq, unit="kPa"
                        ).encode(),
                    )
                    n += 1
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            m = conn.metrics_snapshot()
            if m.accepted + rejected_total(m) >= n and m.in_flight == 0:
                break
            time.sleep(0.05)
        m = conn.metrics_snapshot()
        stored = stored_count(store.root)
        conn.stop()
    assert m.accepted == 180
    assert rejected_total(m) == 0
    assert m.seq_gaps == 0
    assert stored == 180


def test_payload_beyond_float_range_is_counted_and_the_subscription_lives_on(tmp_path):
    """An integer v too large for a float is one malformed message; the bus
    reader survives it, and the same subscription stores what follows."""
    huge = b'{"ts":1000,"v":' + b"9" * 400 + b',"seq":1,"unit":"kPa"}'
    with Broker().start() as broker, Store(tmp_path / "db") as store:
        conn = Connector(store, broker_addr=broker.address).start()
        assert conn.wait_ready()
        client = conn._client
        with BusClient(*broker.address) as pub:
            pub.publish(EPC_SUBJ, huge)
            for seq in range(2, 7):
                pub.publish(EPC_SUBJ, payload(ts=1000 * seq, seq=seq))
        wait_received(conn, 6, timeout=10)
        assert conn.drain()
        m = conn.metrics_snapshot()
        stats = broker.stats()
        assert conn._client is client  # no reconnect
        conn.stop()
        assert stored_count(store.root) == 5
    assert m.received == 6
    assert m.accepted == 5
    assert m.rejected == {"malformed": 1}
    assert conserved(m)
    assert stats["unrouted"] == 0


def test_bus_replay_at_full_speed_loses_nothing(tmp_path, monkeypatch):
    n = 20_000
    monkeypatch.setattr(connector_mod, "DEFAULT_QUEUE_CAP", 200)
    with Broker().start() as broker, Store(tmp_path / "db") as store:
        conn = Connector(store, broker_addr=broker.address).start()
        assert conn.wait_ready()
        publish_sensors(broker.address, n)
        wait_received(conn, n)
        assert conn.drain()
        m = conn.metrics_snapshot()
        stored = stored_count(store.root)
        conn.stop()
    assert m.rejected == {}
    assert m.received == m.accepted == n
    assert stored == n
    assert m.seq_gaps == 0


def test_store_stall_behind_broker_ends_as_counted_overflow(tmp_path, monkeypatch):
    """A store that blocks longer than the grace first holds the bus back,
    then sheds load as counted overflow; the broker never evicts the
    connector, so every published sample is received and accounted for."""
    n = 20_000
    monkeypatch.setattr(connector_mod, "DEFAULT_QUEUE_CAP", 200)
    entered, release = threading.Event(), threading.Event()
    published = []
    with Broker().start() as broker, Store(tmp_path / "db") as store:
        insert = store.insert

        def stalled_insert(samples):
            entered.set()
            release.wait(30)
            return insert(samples)

        store.insert = stalled_insert
        conn = Connector(store, broker_addr=broker.address).start()
        assert conn.wait_ready()
        client = conn._client
        publisher = threading.Thread(
            target=lambda: published.append(publish_sensors(broker.address, n)),
            daemon=True,
        )
        publisher.start()
        try:
            assert entered.wait(10)
            stalled_at = time.monotonic()
            while time.monotonic() < stalled_at + SLOW_CONSUMER_GRACE - 0.5:
                m = conn.metrics_snapshot()
                assert m.rejected == {}, "loss counted before the grace ran out"
                assert conserved(m)
                time.sleep(0.05)
            deadline = stalled_at + SLOW_CONSUMER_GRACE + 2
            while not conn.metrics_snapshot().rejected and time.monotonic() < deadline:
                time.sleep(0.02)
            assert conn.metrics_snapshot().rejected.get("overflow", 0) > 0
        finally:
            release.set()
        publisher.join(30)
        wait_received(conn, n)
        assert conn.drain()
        m = conn.metrics_snapshot()
        stored = stored_count(store.root)
        assert conn._client is client and not client.closed  # not evicted
        conn.stop()
    assert published == [n]
    assert m.received == n
    assert m.received == m.accepted + rejected_total(m)
    assert set(m.rejected) == {"overflow"}
    assert stored == m.accepted > 0


def test_replay_is_idempotent_against_store(tmp_path):
    stream = [
        (EPC_SUBJ, payload(ts=1000 * i, v=float(i), seq=i)) for i in range(1, 51)
    ]
    with Store(tmp_path / "db") as store:
        conn = Connector(store).start()
        conn.ingest(stream)
        assert conn.drain()
        conn.stop()
        first = store.query_range("65/1/epc3", 0, 10**9)

        conn = Connector(store).start()
        conn.ingest(stream)
        assert conn.drain()
        m = conn.metrics_snapshot()
        conn.stop()
        second = store.query_range("65/1/epc3", 0, 10**9)
    assert first == second
    assert m.accepted == 50  # resent samples are stored again


def test_reconnects_after_broker_restart(tmp_path, monkeypatch):
    monkeypatch.setattr(connector_mod, "BACKOFF_BASE_S", 0.1)
    broker = Broker().start()
    port = broker.port
    with Store(tmp_path / "db") as store:
        conn = Connector(store, broker_addr=("127.0.0.1", port)).start()
        deadline = time.monotonic() + 5
        while conn._client is None and time.monotonic() < deadline:
            time.sleep(0.02)
        broker.stop()
        time.sleep(0.3)
        broker = Broker(port=port).start()
        try:
            deadline = time.monotonic() + 10
            delivered = False
            while time.monotonic() < deadline and not delivered:
                try:
                    with BusClient("127.0.0.1", port) as pub:
                        pub.publish(EPC_SUBJ, payload(seq=1))
                except Exception:
                    time.sleep(0.1)
                    continue
                deadline2 = time.monotonic() + 1
                while time.monotonic() < deadline2:
                    if conn.metrics_snapshot().accepted >= 1:
                        delivered = True
                        break
                    time.sleep(0.05)
            conn.stop()
            assert delivered, "connector failed to resubscribe after broker restart"
        finally:
            broker.stop()


def test_stop_against_a_live_broker_is_prompt(tmp_path):
    """stop() ends the writer and the client's reader at once, not at a next
    poll, also when it races the connect."""
    with Broker().start() as broker, Store(tmp_path / "db") as store:
        took = []
        for _ in range(5):
            before = set(threading.enumerate())
            conn = Connector(store, broker_addr=broker.address).start()
            assert conn.wait_ready()
            t = time.monotonic()
            conn.stop()
            took.append(time.monotonic() - t)
            assert not conn.wait_ready(0)
            assert threads_since(before, wait_s=1.0) == []
        assert max(took) < 0.05, took
        for _ in range(5):
            before = set(threading.enumerate())
            conn = Connector(store, broker_addr=broker.address).start()
            t = time.monotonic()
            conn.stop()
            assert time.monotonic() - t < 1.0
            assert threads_since(before, wait_s=1.0) == []


def test_stop_stores_the_run_the_reader_is_ingesting(tmp_path, monkeypatch):
    """stop() closes the client, and the writer ends only after the reader
    has handed over the run it was transforming and that run is stored."""
    entered, release = threading.Event(), threading.Event()
    transform_now = connector_mod.transform_run

    def held_transform(*args):
        entered.set()
        release.wait(10)
        return transform_now(*args)

    with Broker().start() as broker, Store(tmp_path / "db") as store:
        conn = Connector(store, broker_addr=broker.address).start()
        assert conn.wait_ready()
        monkeypatch.setattr(connector_mod, "transform_run", held_transform)
        with BusClient(*broker.address) as pub:
            pub.publish(EPC_SUBJ, payload(seq=1))
        assert entered.wait(10)
        timer = threading.Timer(0.2, release.set)
        timer.start()
        conn.stop()
        m = conn.metrics_snapshot()
        timer.join(5)
        assert stored_count(store.root) == 1
    assert m.received == m.accepted == 1
    assert m.in_flight == 0


def test_stop_while_records_arrive_leaves_nothing_in_flight(tmp_path, monkeypatch):
    """stop() closes the client before the writer drains, so once it
    returns every record received is stored or rejected and no thread of
    the connector is left, under a short switch interval too."""
    monkeypatch.setattr(connector_mod, "DEFAULT_BATCH_SIZE", 50)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    connected, done = threading.Event(), threading.Event()
    with Broker().start() as broker, Store(tmp_path / "db") as store:

        def publish():
            with BusClient(*broker.address) as pub:
                connected.set()
                seq = 0
                while not done.is_set():
                    seq += 1
                    pub.publish(EPC_SUBJ, payload(ts=seq, seq=seq))

        publisher = threading.Thread(target=publish, daemon=True)
        publisher.start()
        try:
            assert connected.wait(10)
            rng = random.Random(11)
            received = 0
            for _ in range(10):
                before = set(threading.enumerate())
                conn = Connector(store, broker_addr=broker.address).start()
                assert conn.wait_ready()
                time.sleep(rng.uniform(0, 0.02))
                conn.stop()
                m = conn.metrics_snapshot()
                assert m.in_flight == 0
                assert m.received == m.accepted + rejected_total(m)
                received += m.received
                assert threads_since(before, wait_s=1.0) == []
        finally:
            done.set()
            sys.setswitchinterval(interval)
            publisher.join(10)
    assert not publisher.is_alive()
    assert received > 0


def test_subscribes_once_a_broker_comes_up(tmp_path, caplog):
    """A connector started before its broker retries with backoff, then
    subscribes and stores what is published."""
    caplog.set_level(logging.WARNING, logger="paveharvest.connector")
    port = free_port()
    with Store(tmp_path / "db") as store:
        conn = Connector(store, broker_addr=("127.0.0.1", port)).start()
        try:
            assert wait_logged(caplog, "broker connect failed")
            assert not conn.wait_ready(0)
            with Broker(port=port).start() as broker:
                assert conn.wait_ready(timeout=10)
                with BusClient(*broker.address) as pub:
                    pub.publish(EPC_SUBJ, payload(seq=1))
                wait_received(conn, 1, timeout=10)
                assert conn.drain()
        finally:
            conn.stop()
        assert stored_count(store.root) == 1
    assert conn.metrics_snapshot().accepted == 1


def test_stop_while_waiting_for_a_broker_is_prompt(tmp_path, caplog):
    caplog.set_level(logging.WARNING, logger="paveharvest.connector")
    with Store(tmp_path / "db") as store:
        before = set(threading.enumerate())
        conn = Connector(store, broker_addr=("127.0.0.1", free_port())).start()
        assert wait_logged(caplog, "broker connect failed")
        t = time.monotonic()
        conn.stop()
        assert time.monotonic() - t < 1.0
        assert threads_since(before) == []


def test_a_connected_connector_runs_a_writer_and_a_bus_reader(tmp_path, monkeypatch):
    """Two threads while connected, the same two after a broker restart, and
    none after stop()."""
    monkeypatch.setattr(connector_mod, "BACKOFF_BASE_S", 0.1)
    broker = Broker().start()
    port = broker.port
    try:
        with Store(tmp_path / "db") as store:
            before = set(threading.enumerate())
            conn = Connector(store, broker_addr=("127.0.0.1", port)).start()
            try:
                assert conn.wait_ready()
                assert threads_since(before) == ["bus-reader", "connector-writer"]
                first = conn._client
                broker.stop()
                first._reader.join(5)  # the loss is seen before the broker is back
                broker = Broker(port=port).start()
                deadline = time.monotonic() + 10
                while conn._client is first and time.monotonic() < deadline:
                    time.sleep(0.02)
                assert conn.wait_ready()
                assert threads_since(before) == ["bus-reader", "connector-writer"]
            finally:
                conn.stop()
            assert threads_since(before, wait_s=1.0) == []
    finally:
        broker.stop()


@pytest.mark.parametrize("wildcard", ["a b", "site..>", "site.>.x", ""])
def test_an_invalid_wildcard_raises_before_any_thread_starts(tmp_path, wildcard):
    """A wildcard the bus would refuse fails the constructor, before the
    metrics server or the writer starts, rather than ending the writer."""
    before = set(threading.enumerate())
    with Store(tmp_path / "db") as store:
        with pytest.raises(InvalidSubject):
            Connector(store, broker_addr=("127.0.0.1", 1), wildcard=wildcard, metrics_port=0)
    assert threads_since(before) == []


# --- metrics endpoint --------------------------------------------------------


def test_metrics_http_endpoint(tmp_path):
    with Store(tmp_path / "db") as store:
        conn = Connector(store, metrics_port=0).start()
        conn.ingest([(EPC_SUBJ, payload(seq=1))])
        assert conn.drain()
        url = f"http://127.0.0.1:{conn.metrics_port}/metrics"
        body = urllib.request.urlopen(url, timeout=5).read().decode()
        conn.stop()
    fields = dict(line.split() for line in body.strip().splitlines())
    assert fields["accepted"] == "1"
    assert fields["received"] == "1"
    assert "rejected_malformed" in fields


def test_render_metrics_text_shape():
    text = render_metrics_text(IngestMetrics(latency_counts=[0] * 12))
    lines = text.strip().splitlines()
    assert all(len(line.split()) == 2 for line in lines)
