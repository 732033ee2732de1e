"""Synthetic data shared by the tests: raw logs for the ETL, CLI and
acceptance tests, the hat-matrix row the smoother's weights are checked
against, the per-row laser rendering the laser table is checked
against and the time-of-day text rule behind it, the row-by-row join ``etl join`` is checked against, the per-row
rendering ``store query`` output is checked against, a store's segment
keys and stored samples counted from its files, the store batches of the
crash test's writer, the one-sample-at-a-time insert rule the store's
inserts are checked against, the one-``parse_frame``-per-frame read that
``wire.read_frames`` is checked against, the connector's rejections in
total, and the publish failure patterns the retry rule and the
connector's seq counters are checked under."""

import csv
import io
import math
import random
import re
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from urllib.parse import quote, unquote

import numpy as np

from paveharvest import dsp, etl, tsstore, wire
from paveharvest.daqsim import EPC, MOISTURE, SCG, TEMPERATURE, Scenario, SensorSpec
from paveharvest.tsstore import ACK, Sample

HOUR = 3_600_000_000


def pulse_values(
    n_pass: int,
    rate_hz: int = 100,
    period_s: float = 10.0,
    width_s: float = 2.0,
    amplitude: float = 1.0,
    baseline: float = 0.0,
    pad_s: float = 20.0,
):
    """Noiseless half-sine load passes with flat lead-in/lead-out."""
    duration = n_pass * period_s
    t = np.arange(0.0, duration + 2 * pad_s, 1.0 / rate_hz)
    tp = t - pad_s
    x = np.mod(tp, period_s)
    in_train = (tp >= 0) & (tp < duration)
    y = baseline + amplitude * np.where(
        in_train & (x < width_s),
        np.sin(np.pi * np.minimum(x, width_s) / width_s),
        0.0,
    )
    return t, y


def raw_text(header: dict, t, columns) -> str:
    """Render a canonical raw log (single- or multi-channel)."""
    lines = [f"# {key}: {value}" for key, value in header.items()]
    cols = [np.asarray(c) for c in columns]
    for i, ti in enumerate(t):
        row = ",".join(f"{c[i]:.6f}" for c in cols)
        lines.append(f"{ti:.3f},{row}")
    return "\n".join(lines) + "\n"


def asg_raw_text(
    n_pass: int,
    rate_hz: int = 100,
    cal_coeff: float = 0.849,
    rated_output: float = 5890.0,
    gage: str = "7",
    placement: str = "36",
    **pulse_kw,
) -> str:
    t, y = pulse_values(n_pass, rate_hz=rate_hz, **pulse_kw)
    header = {
        "kind": "ASG",
        "unit": "microstrain",
        "gage": gage,
        "placement": placement,
        "cal_coeff": cal_coeff,
        "rated_output": rated_output,
    }
    return raw_text(header, t, [y])


def tc_raw_text(rate_hz: int = 10, periods: int = 3, period_s: float = 10.0) -> str:
    """Thermocouple-style sinusoid with exactly `periods` maxima and minima."""
    t = np.arange(0.0, periods * period_s, 1.0 / rate_hz)
    y = 70.0 + 5.0 * np.sin(2.0 * np.pi * t / period_s)
    header = {"kind": "TC", "unit": "degF"}
    return raw_text(header, t, [y])


def laser_raw_text(n_samples: int = 4000, start_time: str = "10:57:16.47") -> str:
    t = np.arange(n_samples) * 0.025
    reading = 250.88 - 0.0005 * np.arange(n_samples)
    beam = np.where(np.arange(n_samples) == 0, 0.0, 20.0)
    header = {"kind": "LASER", "unit": "mm", "start_time": start_time}
    return raw_text(header, t, [reading, beam])



def format_time_of_day(seconds: float) -> str:
    """A laser sample's time of day as one row's text, ``HH:MM:SS.hh``: the
    rule ``etl._hundredths_of_day`` is checked against. It rounds to
    hundredths once, before the split, so 59.996 s carries into the minute
    instead of printing as 60.00."""
    text = f"{seconds % 86_400:.2f}"
    m, s = divmod(int(text[:-3]) % 86_400, 60)
    h, m = divmod(m, 60)
    return f"{h:02d}:{m:02d}:{s:02d}{text[-3:]}"


@dataclass
class LaserRow:
    """One laser sample as a row, the form laser logs were once processed in."""

    filename: str
    sample_number: int
    horiz_mm: float
    laser_reading_mm: float
    beam_location_mm: float
    sampled_time: str


def hat_matrix_row(window, polyorder):
    """The smoother's interior weights as ``dsp.savgol_weights`` once read
    them: the center row of the whole ``design @ pinv(design)`` product."""
    half = window // 2
    x = np.arange(-half, half + 1, dtype=float) / half
    design = np.vander(x, polyorder + 1, increasing=True)
    return (design @ np.linalg.pinv(design))[half]


def reference_laser_rows(filename, raw):
    """One LaserRow per sample, as laser logs were once processed row by
    row: the smoothed reading, the beam column, :func:`format_time_of_day`."""
    smoothed = dsp.smooth(raw.channels[0].series, etl.DEFAULT_CONFIGS[raw.kind])
    start = etl._parse_time_of_day(raw.header.get("start_time", "00:00:00"))
    samples = zip(smoothed.t.tolist(), smoothed.y.tolist(), raw.channels[1].series.y.tolist())
    return [
        LaserRow(filename, n, etl.laser_horizontal(n), reading, beam,
                 format_time_of_day(start + t))
        for n, (t, reading, beam) in enumerate(samples, start=1)
    ]


def reference_laser_csv(rows, file_info):
    """The laser table as the per-row writer rendered it: one ``csv.writer``
    row per LaserRow."""
    ids = {meta.filename: i for i, meta in enumerate(file_info, 1)}
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(etl.LASER_HEADER.split(","))
    writer.writerows(
        [ids[r.filename], r.sample_number, etl.format_number(r.horiz_mm),
         etl.format_number(r.laser_reading_mm), etl.format_number(r.beam_location_mm),
         r.sampled_time]
        for r in rows
    )
    return out.getvalue()


def reference_join(data_csv, fileinfo_csv):
    """``etl.join_by_filename_id`` as it was once done row by row: both
    tables read with ``csv.reader``, every joined row written back with
    ``csv.writer``."""
    info_rows = list(csv.reader(io.StringIO(fileinfo_csv)))
    if not info_rows or info_rows[0] != etl.FILE_INFO_HEADER.split(","):
        raise etl.EtlError("unexpected FILE_INFO header")
    info_cols = info_rows[0]
    by_id = {}
    for row in info_rows[1:]:
        record = dict(zip(info_cols, row))
        if record["id"] in by_id:
            raise etl.IntegrityError(f"id {record['id']} present twice in file info")
        by_id[record["id"]] = record

    data_rows = list(csv.reader(io.StringIO(data_csv)))
    if not data_rows or data_rows[0][0] != "filename_id":
        raise etl.EtlError("data table must start with a filename_id column")
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["filename"] + data_rows[0][1:] + list(etl.JOIN_META_COLUMNS))
    for row in data_rows[1:]:
        record = by_id.get(row[0])
        if record is None:
            raise etl.DanglingReference(f"filename_id {row[0]} not in file info")
        writer.writerow(
            [record["filename"]] + row[1:] + [record[c] for c in etl.JOIN_META_COLUMNS]
        )
    return out.getvalue()


def reference_query_csv(rows) -> str:
    """``store query`` output for ``(ts_us, value)`` rows, rendered one row
    at a time through ``datetime``: a four-digit year, sub-second digits
    only when nonzero, and the value as Python writes it."""
    epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
    lines = ["ts_rfc3339,value\n"]
    for ts, value in rows:
        seconds, micros = divmod(ts, 1_000_000)
        dt = epoch + timedelta(seconds=seconds)
        fraction = f".{micros:06d}" if micros else ""
        lines.append(f"{dt.year:04d}-{dt:%m-%dT%H:%M:%S}{fraction}Z,{value}\n")
    return "".join(lines)


def reference_segment_rows(raw: bytes) -> list[tuple[int, float]]:
    """The ``(ts, v)`` rows a segment file's bytes hold, ts ascending: each
    whole record after the header replayed in file order into a dict, so a
    stamp keeps its last write. A torn trailing record is left out, and a
    file no longer than its header holds no rows."""
    body = raw[tsstore.HEADER_SIZE:]
    held = {}
    for ts, v in tsstore.RECORD.iter_unpack(body[: len(body) - len(body) % tsstore.RECORD_SIZE]):
        held[ts] = v
    return sorted(held.items())


def segment_keys(root) -> list[tsstore.ChunkKey]:
    """``ChunkKey`` of each segment file under store ``root``, in key order."""
    return sorted(
        tsstore.ChunkKey(unquote(path.parent.name), int(path.stem))
        for path in root.glob("*/*.seg")
    )


def stored_count(root, sensor=None) -> int:
    """Distinct (sensor, ts) pairs the segment files under store ``root``
    hold, of one sensor or of all, read file by file with
    :func:`reference_segment_rows`; a store not made yet holds none."""
    pattern = "*/*.seg" if sensor is None else f"{quote(sensor, safe='')}/*.seg"
    return sum(len(reference_segment_rows(path.read_bytes())) for path in root.glob(pattern))


def reference_downsample(rows, t0, t1, bucket, agg) -> list[tuple[int, float]]:
    """``Store.downsample`` of ts-ascending ``(ts, v)`` rows, one row at a
    time: each row with ``t0 <= ts < t1`` joins the bucket that starts at
    ``ts - ts % bucket``, and each bucket that got a row is aggregated."""
    buckets: dict[int, list[float]] = {}
    for ts, v in rows:
        if t0 <= ts < t1:
            buckets.setdefault(ts - ts % bucket, []).append(v)
    aggregate = {"avg": lambda vs: sum(vs) / len(vs), "min": min, "max": max, "count": len}
    return [(start, aggregate[agg](vs)) for start, vs in buckets.items()]


CRASH_SENSORS = ("s0", "s1", "s2", "s3")
CRASH_WINDOWS = 6


def crash_batch(seed: int, n: int, size: int = 64) -> list[Sample]:
    """Batch ``n`` of writer ``seed``: samples over 4 sensors x 6 one-hour
    windows, drawn from few enough timestamps that most are resends, and
    every 8th a resend within the batch. Each value is unique to its writer,
    batch and place in it, so a value read back names the batch it came from."""
    rng = random.Random(seed * 1_000_003 + n)
    batch = []
    for i in range(size):
        if i % 8 == 7:
            sensor, ts, _ = batch[rng.randrange(i)]
        else:
            sensor = rng.choice(CRASH_SENSORS)
            ts = rng.randrange(CRASH_WINDOWS) * HOUR + rng.randrange(1, 200)
        batch.append(Sample(sensor, ts, seed * 1e9 + n * 1e3 + i))
    return batch


def _utf8_str(sensor):
    if not isinstance(sensor, str):
        return False
    try:
        sensor.encode()
    except UnicodeEncodeError:
        return False
    return True


def reference_insert(root, span, batch, handles, bound):
    """``Store.insert`` of ``batch`` one sample at a time, as the store once
    ran it: each sample checked in turn and given a ``ChunkKey``, and each
    written sample acked, a resent ts too. A ts that is not an int in
    ``0 < ts < TS_END`` is ``bad-ts``, a value that is no finite float
    ``nonfinite``, and a sensor that is no UTF-8 str naming a directory
    below ``root`` ``bad-sensor``, in that order. Writes the
    segments under ``root`` in the store's framing, the chunk of each
    sensor's last sample last, and returns the statuses. ``handles`` holds
    the keys of the chunks kept open, least recently written first: a
    written chunk goes to its end, and a chunk not in it first drops its
    oldest key once it holds ``bound``."""
    statuses, groups = [], {}
    for i, (sensor, ts, v) in enumerate(batch):
        try:
            finite = math.isfinite(v)
        except (OverflowError, TypeError):  # an int beyond float range, or no number
            finite = False
        if not isinstance(ts, int) or not 0 < ts < tsstore.TS_END:
            statuses.append("bad-ts")
        elif not finite:
            statuses.append("nonfinite")
        elif not _utf8_str(sensor) or sensor in ("", ".", ".."):
            statuses.append("bad-sensor")
        else:
            statuses.append(ACK)
            groups.setdefault(tsstore.ChunkKey(sensor, ts - ts % span), []).append(i)
    for key, indices in sorted(groups.items(), key=lambda item: item[1][-1]):
        path = root / quote(key.sensor, safe="") / f"{key.window_start}.seg"
        data = b"" if path.exists() else tsstore.HEADER.pack(
            b"TSEG", 1, tsstore.key_hash(key.sensor), key.window_start, bytes(8))
        for i in indices:
            data += tsstore.RECORD.pack(*batch[i][1:])
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "ab") as fh:
            fh.write(data)
        if key in handles:
            del handles[key]
        elif len(handles) >= bound:
            del handles[next(iter(handles))]
        handles[key] = None
    return statuses


def reference_read_frames(buf):
    """The frames at the start of ``buf`` by one ``wire.parse_frame`` call
    per frame, in ``wire.read_frames``'s form, and the type and message of
    the error that ended the read (None when it ended at the tail)."""
    frames, pos = [], 0
    try:
        while (got := wire.parse_frame(buf, pos)) is not None:
            frame, pos = got
            if frame.kind in (wire.PUB, wire.MSG):
                frames.append((frame.subject, frame.sid, frame.payload, pos))
            else:
                frames.append((None, None, frame, pos))
    except wire.MalformedFrame as exc:
        return frames, (type(exc), str(exc))
    return frames, None


def rejected_total(m) -> int:
    """Messages the connector rejected, over every reason."""
    return sum(m.rejected.values())


def failure_patterns(n: int = 200):
    """``(scenario, outcomes)`` pairs: up to four sensors for up to 12 s, and
    whether each publish attempt, in order, succeeds, at a failure rate of
    0.1 to 0.9."""
    kinds = [EPC, SCG, TEMPERATURE, MOISTURE]
    rng = random.Random(2024)
    for _ in range(n):
        scenario = Scenario(
            site="s", daq="d", seed=rng.randrange(1000), duration_s=rng.randint(1, 12),
            sensors=[
                SensorSpec(sensor_id=f"x{i}", kind=rng.choice(kinds), rate_hz=4,
                           noise_sigma=0.5)
                for i in range(rng.randint(1, 4))
            ],
        )
        p_fail = rng.choice([0.1, 0.3, 0.6, 0.9])
        yield scenario, [rng.random() >= p_fail for _ in range(200)]


def dropped(caplog):
    """``(topic, seq)`` of each drop warning logged, in order."""
    return [
        (m.group(1), int(m.group(2)))
        for r in caplog.records
        if (m := re.fullmatch(
            r"(\S+): dropping seq (\d+) after repeated publish failure", r.getMessage()
        ))
    ]
