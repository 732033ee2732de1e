"""Static-path ingestion: raw logs in, normalized relational CSV out.

Parses archive and traffic filenames for metadata, reads the canonical
raw-log format, runs the signal-processing pipeline appropriate for each
sensor kind, and emits a data table keyed by ``filename_id`` against a
deduplicated FILE_INFO table, with a lossless join back.

Canonical raw format (UTF-8 text): ``#``-prefixed ``key: value`` header
lines (kind, unit, gage, placement, cal_coeff, rated_output, location,
description, start_time), then ``seconds,value[,value...]`` rows. Header
values may be comma-separated lists, one per channel; a single value
broadcasts. Laser files carry exactly two value columns per row, the
laser reading and the beam location, both in mm.
"""

from __future__ import annotations

import csv
import io
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dsp
from .dsp import CalibrationSpec, DspConfig, Series

logger = logging.getLogger(__name__)

ASG = "ASG"
CSG = "CSG"
PC = "PC"
TC = "TC"
LASER = "LASER"
LASER_PRETRAFFIC = "LASER_PRETRAFFIC"
STATIONARY_ET = "STATIONARY_ET"
STATIONARY_MT = "STATIONARY_MT"
FWD = "FWD"

SENSOR_KINDS = frozenset(
    {ASG, CSG, PC, TC, LASER, LASER_PRETRAFFIC, STATIONARY_ET, STATIONARY_MT, FWD}
)
LASER_KINDS = frozenset({LASER, LASER_PRETRAFFIC})
STATIONARY_KINDS = frozenset({STATIONARY_ET, STATIONARY_MT})

UNITS = {
    ASG: "microstrain",
    CSG: "inches",
    PC: "kPa",
    TC: "degF",
    LASER: "mm",
    LASER_PRETRAFFIC: "mm",
    STATIONARY_ET: "microstrain",
    STATIONARY_MT: "microstrain",
    FWD: "microstrain",
}

ENVELOPE = "envelope"

#: laser sample number to horizontal position, mm per sample
LASER_MM_PER_SAMPLE = 1384.0 / 8088.0

DATA_HEADER = (
    "filename_id,captured_instance,gage_id,placement,cal_coeff,rated_output,"
    "extrema,seconds_elapsed,processed_datapoint,unit"
)
FILE_INFO_HEADER = (
    "id,filename,project_name,test_section,sensor_type,location,gage_id,"
    "survey_date,description"
)
LASER_HEADER = (
    "filename_id,sample_number,horiz_mm,laser_reading_mm,beam_location_mm,"
    "sampled_time"
)

_MONTHS = {
    "jan": 1, "feb": 2, "mar": 3, "apr": 4, "may": 5, "jun": 6,
    "jul": 7, "aug": 8, "sep": 9, "oct": 10, "nov": 11, "dec": 12,
}

_ARCHIVE_RE = re.compile(
    r"^(?P<fid>\d+)\s+(?P<project>[^_]+)_(?P<section>[^_]+)_(?P<stype>[^_]+)"
    r"_(?P<gage>[^_]+)_(?P<day>\d{1,2})-(?P<mon>[A-Za-z]{3})-(?P<year>\d{4})"
    r"\.(?P<ext>[A-Za-z0-9]+)$"
)
_TRAFFIC_RE = re.compile(
    r"^Traffic\s+(?P<section>\S+)\s+(?P<instance>\S+)\s+"
    r"(?P<mm>\d{2})-(?P<dd>\d{2})-(?P<yy>\d{2})\.txt$"
)

_INSTANCE_LABELS = {"F20": dsp.FIRST20, "L20": dsp.LAST20}


class EtlError(Exception):
    pass


class FormatError(EtlError):
    """Raw file violates the canonical format; carries a line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DanglingReference(EtlError):
    """A data row cites a filename or id absent from FILE_INFO."""


class IntegrityError(EtlError):
    """FILE_INFO violates its uniqueness invariants."""


@dataclass
class FileMeta:
    """Metadata recovered from a filename (and raw-file header)."""

    filename: str
    project_name: str | None = None
    test_section: str | None = None
    sensor_type: str | None = None
    location: str | None = None
    gage_id: str | None = None
    survey_date: str | None = None  # ISO-8601
    description: str | None = None
    unparsed: bool = False


@dataclass
class FileInfoRow:
    id: int
    filename: str
    meta: FileMeta


@dataclass
class DataRow:
    filename: str
    captured_instance: str
    gage_id: str
    placement: str
    cal_coeff: float | None
    rated_output: float | None
    extrema: str
    seconds_elapsed: float
    processed_datapoint: float
    unit: str


@dataclass
class LaserRow:
    filename: str
    sample_number: int
    horiz_mm: float
    laser_reading_mm: float
    beam_location_mm: float
    sampled_time: str


@dataclass
class RawChannel:
    series: Series
    cal: CalibrationSpec | None = None
    gage_id: str = ""
    placement: str = ""


@dataclass
class RawFile:
    kind: str
    header: dict[str, str]
    channels: list[RawChannel]
    warnings: list[str] = field(default_factory=list)


@dataclass
class ProcessResult:
    meta: FileMeta
    data_rows: list[DataRow] = field(default_factory=list)
    laser_rows: list[LaserRow] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


# --- filenames ------------------------------------------------------------


def _two_digit_year(yy: int) -> int:
    return 2000 + yy if yy <= 68 else 1900 + yy


def parse_filename(name: str) -> FileMeta:
    """Recover metadata from an archive- or traffic-style filename.

    Anything unrecognized comes back with just the filename and the
    ``unparsed`` flag set; sloppy naming is data, not an error.
    """
    if not name:
        raise ValueError("filename must be non-empty")
    m = _ARCHIVE_RE.match(name)
    if m:
        mon = _MONTHS.get(m.group("mon").lower())
        if mon is not None:
            date = f"{int(m.group('year')):04d}-{mon:02d}-{int(m.group('day')):02d}"
            return FileMeta(
                filename=name,
                project_name=m.group("project"),
                test_section=m.group("section"),
                sensor_type=m.group("stype"),
                gage_id=m.group("gage"),
                survey_date=date,
            )
    m = _TRAFFIC_RE.match(name)
    if m:
        year = _two_digit_year(int(m.group("yy")))
        date = f"{year:04d}-{int(m.group('mm')):02d}-{int(m.group('dd')):02d}"
        return FileMeta(
            filename=name,
            test_section=m.group("section"),
            description=m.group("instance"),
            survey_date=date,
        )
    return FileMeta(filename=name, unparsed=True)


def laser_horizontal(sample_number: int) -> float:
    """Horizontal position of a laser sample in mm."""
    if sample_number < 0:
        raise ValueError("sample number must be >= 0")
    return sample_number * LASER_MM_PER_SAMPLE


# --- raw logs ------------------------------------------------------------


def _split_header_list(value: str, n: int, key: str, line: int) -> list[str]:
    parts = [p.strip() for p in value.split(",")]
    if len(parts) == 1:
        return parts * n
    if len(parts) != n:
        raise FormatError(f"{key} lists {len(parts)} values for {n} channels", line)
    return parts


def parse_raw_log(path: str | Path, kind: str = "auto") -> RawFile:
    """Parse a canonical raw log into per-channel series and calibration.

    A malformed row mid-file is a :class:`FormatError`; a malformed or
    incomplete final row is treated as a truncated write and yields the
    partial series plus a warning.
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    header, header_lines, start = _read_header(lines)
    columns = _parse_block(lines, start)
    warnings: list[str] = []
    if columns is None:
        columns, warnings = _parse_rows(lines, start)
    n_values = len(columns) - 1

    resolved_kind = _resolve_kind(kind, header, path)
    unit = header.get("unit", UNITS[resolved_kind])
    t = columns[0]

    line_after_header = header_lines + 1
    if resolved_kind in LASER_KINDS:
        if n_values != 2:
            raise FormatError(
                "laser rows are seconds,laser_mm,beam_mm", line_after_header
            )
        channels = [
            RawChannel(series=Series(t=t, y=columns[1], unit=unit)),
            RawChannel(series=Series(t=t, y=columns[2], unit=unit)),
        ]
        return RawFile(resolved_kind, header, channels, warnings)

    gages = _split_header_list(header.get("gage", ""), n_values, "gage", line_after_header)
    placements = _split_header_list(
        header.get("placement", ""), n_values, "placement", line_after_header
    )
    coeffs = _split_header_list(
        header.get("cal_coeff", ""), n_values, "cal_coeff", line_after_header
    )
    rated = _split_header_list(
        header.get("rated_output", ""), n_values, "rated_output", line_after_header
    )
    channels = []
    for i in range(n_values):
        cal = None
        if coeffs[i] and rated[i]:
            try:
                cal = CalibrationSpec(float(coeffs[i]), float(rated[i]))
            except ValueError as exc:
                raise FormatError(f"bad calibration: {exc}", line_after_header) from exc
        channels.append(
            RawChannel(
                series=Series(t=t, y=columns[i + 1], unit=unit),
                cal=cal,
                gage_id=gages[i],
                placement=placements[i],
            )
        )
    return RawFile(resolved_kind, header, channels, warnings)


def _read_header(lines: list[str]) -> tuple[dict[str, str], int, int]:
    """The leading ``#`` lines: the header, how many lines it took, and
    the index of the first data line. Blank lines are skipped."""
    header: dict[str, str] = {}
    count = 0
    for index, line in enumerate(lines):
        text = line.strip()
        if not text:
            continue
        if not text.startswith("#"):
            return header, count, index
        body = text.lstrip("#").strip()
        if ":" not in body:
            raise FormatError("header line needs 'key: value'", index + 1)
        key, _, value = body.partition(":")
        header[key.strip().lower()] = value.strip()
        count += 1
    return header, count, len(lines)


def _parse_block(lines: list[str], start: int) -> np.ndarray | None:
    """The data rows from ``lines[start:]`` in one vectorized pass, as a
    (columns, rows) array; None when any row breaks the format, which
    :func:`_parse_rows` then reports."""
    rows = [text for text in (line.strip() for line in lines[start:]) if text]
    if not rows:
        return None
    commas = rows[0].count(",")
    if commas < 1 or any(row.count(",") != commas for row in rows):
        return None
    try:
        # float() semantics per field, as in the row loop
        values = np.array(",".join(rows).split(","), dtype=float)
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    columns = values.reshape(len(rows), commas + 1).T.copy()
    if not (np.diff(columns[0]) > 0).all():
        return None
    return columns


def _parse_rows(lines: list[str], start: int) -> tuple[np.ndarray, list[str]]:
    """The data rows from ``lines[start:]`` one at a time, as a (columns,
    rows) array plus warnings; raises :class:`FormatError` at the first
    bad line, except that a bad final line is dropped with a warning."""
    rows: list[list[float]] = []
    warnings: list[str] = []
    for lineno, line in enumerate(lines[start:], start=start + 1):
        text = line.strip()
        if not text:
            continue
        if text.startswith("#"):
            raise FormatError("header line after data rows", lineno)
        parts = text.split(",")
        is_last_line = lineno == len(lines)
        try:
            values = [float(p) for p in parts]
            if not all(np.isfinite(values)):
                raise ValueError("non-finite value")
        except ValueError:
            if is_last_line:
                warnings.append(f"line {lineno}: truncated row dropped")
                break
            raise FormatError(f"bad number in row: {text!r}", lineno) from None
        if not rows:
            if len(values) < 2:
                raise FormatError("data rows need seconds plus >=1 value", lineno)
        elif len(values) != len(rows[0]):
            if is_last_line:
                warnings.append(f"line {lineno}: truncated row dropped")
                break
            raise FormatError(
                f"expected {len(rows[0])} columns, got {len(values)}", lineno
            )
        if rows and values[0] <= rows[-1][0]:
            raise FormatError("seconds column must be strictly increasing", lineno)
        rows.append(values)
    if not rows:
        raise FormatError("no data rows", len(lines) + 1)
    return np.array(rows).T.copy(), warnings


def _resolve_kind(kind: str, header: dict[str, str], path: Path) -> str:
    if kind != "auto":
        normalized = kind.upper().replace("-", "_")
        if normalized not in SENSOR_KINDS:
            raise ValueError(f"unknown sensor kind {kind!r}")
        return normalized
    declared = header.get("kind", "").upper().replace("-", "_")
    if declared in SENSOR_KINDS:
        return declared
    raise EtlError(f"{path}: no usable '# kind:' header and no explicit kind")


# --- per-file processing ---------------------------------------------------


def process_file(path: str | Path, kind: str = "auto") -> ProcessResult:
    """Parse, smooth and feature-extract one raw file into output rows."""
    path = Path(path)
    raw = parse_raw_log(path, kind)
    meta = parse_filename(path.name)
    if "location" in raw.header:
        meta.location = raw.header["location"]
    if "description" in raw.header and meta.description is None:
        meta.description = raw.header["description"]
    if meta.sensor_type is None:
        meta.sensor_type = raw.kind
    if meta.gage_id is None and raw.channels and raw.channels[0].gage_id:
        meta.gage_id = raw.channels[0].gage_id
    result = ProcessResult(meta=meta, warnings=list(raw.warnings))
    config = dsp.DEFAULT_CONFIGS[raw.kind]
    if raw.kind in LASER_KINDS:
        result.laser_rows = _laser_rows(path.name, raw, config)
    else:
        for channel in raw.channels:
            result.data_rows.extend(
                _sensor_rows(path.name, raw.kind, channel, config, meta)
            )
    return result


def _calibrated(value: float, cal: CalibrationSpec | None) -> float:
    if cal is None:
        return value
    engineering, out_of_range = dsp.calibrate(value, cal)
    if out_of_range:
        logger.warning("calibrated value %g exceeds rated output", engineering)
    return engineering


def _sensor_rows(
    filename: str,
    kind: str,
    channel: RawChannel,
    config: DspConfig,
    meta: FileMeta,
) -> list[DataRow]:
    smoothed = dsp.smooth(channel.series, config)
    extrema = dsp.detect_extrema(smoothed, config)
    cal = channel.cal
    coeff = cal.cal_coeff if cal else None
    rated = cal.rated_output if cal else None
    unit = channel.series.unit

    def row(instance: str, extrema_kind: str, t: float, value: float) -> DataRow:
        return DataRow(
            filename=filename,
            captured_instance=instance,
            gage_id=channel.gage_id,
            placement=channel.placement,
            cal_coeff=coeff,
            rated_output=rated,
            extrema=extrema_kind,
            seconds_elapsed=t,
            processed_datapoint=_calibrated(value, cal),
            unit=unit,
        )

    rows: list[DataRow] = []
    if kind == ASG:
        labeled = dsp.select_passes(extrema)
        maxima = [e for e in labeled if e.kind == dsp.MAXIMA]
        for e in maxima:
            if e.label != dsp.UNLABELED:
                rows.append(row(e.label, dsp.MAXIMA, e.t, e.value))
        for p in dsp.extract_envelope(smoothed, maxima, k=5):
            label = maxima[p.pass_index - 1].label
            rows.append(row(label, ENVELOPE, p.t, p.value))
    elif kind in STATIONARY_KINDS:
        maxima = [e for e in extrema if e.kind == dsp.MAXIMA]
        for e in maxima:
            e.label = "stationary"
            rows.append(row("stationary", dsp.MAXIMA, e.t, e.value))
        for p in dsp.extract_envelope(smoothed, maxima, k=5):
            rows.append(row("stationary", ENVELOPE, p.t, p.value))
    elif kind == FWD:
        for e in extrema:
            rows.append(row("fwd", e.kind, e.t, e.value))
    else:  # CSG / PC / TC: maxima and minima only
        instance = _INSTANCE_LABELS.get((meta.description or "").upper(), "")
        for e in extrema:
            rows.append(row(instance, e.kind, e.t, e.value))
    return rows


def _laser_rows(filename: str, raw: RawFile, config: DspConfig) -> list[LaserRow]:
    reading, beam = raw.channels[0].series, raw.channels[1].series
    smoothed = dsp.smooth(reading, config)
    start = _parse_time_of_day(raw.header.get("start_time", "00:00:00"))
    rows = []
    for i in range(len(smoothed)):
        n = i + 1
        rows.append(
            LaserRow(
                filename=filename,
                sample_number=n,
                horiz_mm=laser_horizontal(n),
                laser_reading_mm=float(smoothed.y[i]),
                beam_location_mm=float(beam.y[i]),
                sampled_time=_format_time_of_day(start + float(smoothed.t[i])),
            )
        )
    return rows


def _parse_time_of_day(text: str) -> float:
    m = re.match(r"^(\d{1,2}):(\d{2}):(\d{2}(?:\.\d+)?)$", text.strip())
    if not m:
        raise ValueError(f"bad time of day: {text!r}")
    return int(m.group(1)) * 3600 + int(m.group(2)) * 60 + float(m.group(3))


def _format_time_of_day(seconds: float) -> str:
    seconds = seconds % 86_400
    h = int(seconds // 3600)
    m = int(seconds % 3600 // 60)
    s = seconds % 60
    return f"{h:02d}:{m:02d}:{s:05.2f}"


# --- normalization ------------------------------------------------------------


def build_file_info(metas: list[FileMeta]) -> list[FileInfoRow]:
    """Unique filenames in first-seen order, ids dense from 1."""
    rows: list[FileInfoRow] = []
    seen: dict[str, int] = {}
    for meta in metas:
        if meta.filename in seen:
            continue
        seen[meta.filename] = len(rows) + 1
        rows.append(FileInfoRow(id=len(rows) + 1, filename=meta.filename, meta=meta))
    return rows


def format_number(x: float | int | None) -> str:
    """Canonical numeric formatting: up to 9 fractional digits, no noise."""
    if x is None:
        return ""
    if isinstance(x, int):
        return str(x)
    text = f"{x:.9f}".rstrip("0").rstrip(".")
    return text if text not in ("", "-") else "0"


def _file_info_csv(file_info: list[FileInfoRow]) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(FILE_INFO_HEADER.split(","))
    for row in file_info:
        m = row.meta
        writer.writerow(
            [
                row.id,
                row.filename,
                m.project_name or "",
                m.test_section or "",
                m.sensor_type or "",
                m.location or "",
                m.gage_id or "",
                m.survey_date or "",
                m.description or "",
            ]
        )
    return out.getvalue()


def emit_normalized(
    rows: list[DataRow], file_info: list[FileInfoRow]
) -> tuple[str, str]:
    """Render the sensor data table (by filename_id) and FILE_INFO as CSV."""
    ids = _id_map(file_info)
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(DATA_HEADER.split(","))
    for row in rows:
        if row.filename not in ids:
            raise DanglingReference(f"row cites unknown file {row.filename!r}")
        writer.writerow(
            [
                ids[row.filename],
                row.captured_instance,
                row.gage_id,
                row.placement,
                format_number(row.cal_coeff),
                format_number(row.rated_output),
                row.extrema,
                format_number(row.seconds_elapsed),
                format_number(row.processed_datapoint),
                row.unit,
            ]
        )
    return out.getvalue(), _file_info_csv(file_info)


def emit_laser_normalized(
    rows: list[LaserRow], file_info: list[FileInfoRow]
) -> tuple[str, str]:
    """Render the laser table (by filename_id) and FILE_INFO as CSV."""
    ids = _id_map(file_info)
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(LASER_HEADER.split(","))
    for row in rows:
        if row.filename not in ids:
            raise DanglingReference(f"row cites unknown file {row.filename!r}")
        writer.writerow(
            [
                ids[row.filename],
                row.sample_number,
                format_number(row.horiz_mm),
                format_number(row.laser_reading_mm),
                format_number(row.beam_location_mm),
                row.sampled_time,
            ]
        )
    return out.getvalue(), _file_info_csv(file_info)


def _id_map(file_info: list[FileInfoRow]) -> dict[str, int]:
    ids: dict[str, int] = {}
    for row in file_info:
        if row.filename in ids:
            raise IntegrityError(f"filename {row.filename!r} listed twice")
        ids[row.filename] = row.id
    if sorted(r.id for r in file_info) != list(range(1, len(file_info) + 1)):
        raise IntegrityError("file info ids must be dense from 1")
    return ids


#: file-info columns appended by the join (filename replaces the id; the
#: file-level gage_id stays in FILE_INFO only, the data row already has one)
JOIN_META_COLUMNS = (
    "project_name",
    "test_section",
    "sensor_type",
    "location",
    "survey_date",
    "description",
)


def join_by_filename_id(data_csv: str, fileinfo_csv: str) -> str:
    """Inner-join a data table back onto FILE_INFO.

    The ``filename_id`` column is replaced by the filename and the
    descriptive FILE_INFO columns are appended. Row count is preserved
    when referential integrity holds.
    """
    info_rows = list(csv.reader(io.StringIO(fileinfo_csv)))
    if not info_rows or info_rows[0] != FILE_INFO_HEADER.split(","):
        raise EtlError("unexpected FILE_INFO header")
    info_cols = info_rows[0]
    by_id: dict[str, dict[str, str]] = {}
    for row in info_rows[1:]:
        record = dict(zip(info_cols, row))
        if record["id"] in by_id:
            raise IntegrityError(f"id {record['id']} present twice in file info")
        by_id[record["id"]] = record

    data_rows = list(csv.reader(io.StringIO(data_csv)))
    if not data_rows or data_rows[0][0] != "filename_id":
        raise EtlError("data table must start with a filename_id column")
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["filename"] + data_rows[0][1:] + list(JOIN_META_COLUMNS))
    for row in data_rows[1:]:
        record = by_id.get(row[0])
        if record is None:
            raise DanglingReference(f"filename_id {row[0]} not in file info")
        writer.writerow(
            [record["filename"]] + row[1:] + [record[c] for c in JOIN_META_COLUMNS]
        )
    return out.getvalue()
