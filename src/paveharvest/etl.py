"""Static-path ingestion: raw logs in, normalized relational CSV out.

Parses archive and traffic filenames for metadata, reads the canonical
raw-log format, runs the signal-processing pipeline appropriate for each
sensor kind (with the smoothing of :data:`DEFAULT_CONFIGS`), and emits a
data table keyed by ``filename_id`` against a deduplicated FILE_INFO table,
with a lossless join back. A file's id is its position plus 1 in the list
:func:`build_file_info` returns, which every emitter reads.

Canonical raw format (UTF-8 text): ``#``-prefixed ``key: value`` header
lines (kind, unit, gage, placement, cal_coeff, rated_output, location,
description, start_time), then ``seconds,value[,value...]`` rows. Header
values may be comma-separated lists, one per channel; a single value
broadcasts. Laser files carry exactly two value columns per row, the
laser reading and the beam location, both in mm. A laser file yields its
samples only as the columns of a :class:`LaserTable`, never as rows.
"""

from __future__ import annotations

import csv
import io
import logging
import re
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Iterator

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

# The sources quote even windows of 1000/100/50 per sensor family; a centered
# filter needs odd lengths, so the windows round up to the nearest odd.
DEFAULT_CONFIGS = {
    ASG: DspConfig(window=1001),
    CSG: DspConfig(window=1001),
    PC: DspConfig(window=101),
    TC: DspConfig(window=51),
    LASER: DspConfig(window=1001),
    LASER_PRETRAFFIC: DspConfig(window=1001),
    STATIONARY_ET: DspConfig(window=1001),
    STATIONARY_MT: DspConfig(window=1001),
    FWD: DspConfig(window=1001),
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
#: the FILE_INFO columns after id and filename, each a FileMeta attribute
_FILE_INFO_META = FILE_INFO_HEADER.split(",")[2:]

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


@dataclass(eq=False)
class LaserTable:
    """The laser table as columns, one entry per sample: the only form in
    which laser samples are processed and written.

    Row ``i`` belongs to ``filenames[file_index[i]]``, is sample
    ``sample_number[i]`` of its file at ``horiz_mm[i]``, reads
    ``laser_reading_mm[i]`` with the beam at ``beam_location_mm[i]``, and
    was sampled ``hundredths[i]`` hundredths of a second after midnight.
    """

    filenames: list[str]
    file_index: np.ndarray
    sample_number: np.ndarray
    horiz_mm: np.ndarray
    laser_reading_mm: np.ndarray
    beam_location_mm: np.ndarray
    hundredths: np.ndarray

    @classmethod
    def concat(cls, parts: list[LaserTable]) -> LaserTable:
        """One table holding the rows of each part in turn; at least one part."""
        index: dict[str, int] = {}
        file_index = []
        for t in parts:
            ids = [index.setdefault(f, len(index)) for f in t.filenames]
            file_index.append(np.array(ids, dtype=np.int64)[t.file_index])
        columns = (  # the per-sample columns, after filenames and file_index
            np.concatenate([getattr(t, f.name) for t in parts]) for f in fields(cls)[2:]
        )
        return cls(list(index), np.concatenate(file_index), *columns)

    def __len__(self) -> int:
        return len(self.sample_number)


@dataclass
class ProcessResult:
    meta: FileMeta
    data_rows: list[DataRow] = field(default_factory=list)
    #: the samples of a laser file; None for a sensor file
    laser_rows: LaserTable | None = None
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


def laser_horizontal(sample_number: int | np.ndarray) -> float | np.ndarray:
    """Horizontal position in mm of a laser sample, or of each in an array."""
    if np.any(np.asarray(sample_number) < 0):
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
        channels = [RawChannel(Series(t=t, y=y, unit=unit)) for y in columns[1:]]
        return RawFile(resolved_kind, header, channels, warnings)

    per_channel = [
        _split_header_list(header.get(key, ""), n_values, key, line_after_header)
        for key in ("gage", "placement", "cal_coeff", "rated_output")
    ]
    channels = []
    for y, gage, placement, coeff, rated in zip(columns[1:], *per_channel):
        cal = None
        if coeff and rated:
            try:
                cal = CalibrationSpec(float(coeff), float(rated))
            except ValueError as exc:
                raise FormatError(f"bad calibration: {exc}", line_after_header) from exc
        channels.append(
            RawChannel(Series(t=t, y=y, unit=unit), cal, gage_id=gage, placement=placement)
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
    """The data rows from ``lines[start:]`` in one pass of numpy's text
    reader, as a (columns, rows) array; None when any row breaks the
    format, which :func:`_parse_rows` then reports."""
    if start == len(lines):
        return None  # no data line: numpy would warn "input contained no data"
    try:
        # numpy's C reader converts a field with the function float() uses,
        # but rejects some that float() reads (underscores, non-ASCII
        # digits); the row loop decides those files. It would read a
        # whitespace-only line as a row, so those are left out here, as
        # the row loop skips them.
        rows = np.loadtxt(
            filter(str.strip, lines[start:]),
            delimiter=",", comments=None, ndmin=2, dtype=float,
        )
    except ValueError:
        return None
    if len(rows) < 1 or rows.shape[1] < 2 or not np.isfinite(rows).all():
        return None
    columns = rows.T.copy()
    if not (np.diff(columns[0]) > 0).all():
        return None
    return columns


def _parse_rows(lines: list[str], start: int) -> tuple[np.ndarray, list[str]]:
    """The data rows from ``lines[start:]`` one at a time, as a (columns,
    rows) array plus warnings; raises :class:`FormatError` at the first
    bad line, except that a bad final row (only blank lines may follow it)
    is dropped with a warning."""
    rows: list[list[float]] = []
    warnings: list[str] = []
    last_row = len(lines)
    while last_row > start and not lines[last_row - 1].strip():
        last_row -= 1
    for lineno, line in enumerate(lines[start:], start=start + 1):
        text = line.strip()
        if not text:
            continue
        if text.startswith("#"):
            raise FormatError("header line after data rows", lineno)
        parts = text.split(",")
        is_last_line = lineno == last_row
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
    config = DEFAULT_CONFIGS[raw.kind]
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
    extrema = dsp.detect_extrema(smoothed)
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

    if kind != ASG and kind not in STATIONARY_KINDS:
        # FWD / CSG / PC / TC: maxima and minima only
        instance = (
            "fwd" if kind == FWD
            else _INSTANCE_LABELS.get((meta.description or "").upper(), "")
        )
        return [row(instance, e.kind, e.t, e.value) for e in extrema]
    # labelled maxima, then the envelope after each: ASG labels its first and
    # last passes, a stationary log labels every maximum
    maxima = [e for e in extrema if e.kind == dsp.MAXIMA]
    if kind == ASG:
        maxima = dsp.select_passes(maxima)
    else:
        for e in maxima:
            e.label = "stationary"
    rows = [
        row(e.label, dsp.MAXIMA, e.t, e.value)
        for e in maxima if e.label != dsp.UNLABELED
    ]
    for p in dsp.extract_envelope(smoothed, maxima):
        rows.append(row(maxima[p.pass_index - 1].label, ENVELOPE, p.t, p.value))
    return rows


def _laser_rows(filename: str, raw: RawFile, config: DspConfig) -> LaserTable:
    smoothed = dsp.smooth(raw.channels[0].series, config)
    start = _parse_time_of_day(raw.header.get("start_time", "00:00:00"))
    n = np.arange(1, len(smoothed.y) + 1, dtype=np.int64)
    return LaserTable(
        filenames=[filename],
        file_index=np.zeros(len(n), dtype=np.int64),
        sample_number=n,
        horiz_mm=laser_horizontal(n),
        laser_reading_mm=smoothed.y,
        beam_location_mm=raw.channels[1].series.y,
        hundredths=_hundredths_of_day(start + smoothed.t),
    )


def _parse_time_of_day(text: str) -> float:
    m = re.match(r"^([01]?\d|2[0-3]):([0-5]\d):([0-5]\d(?:\.\d+)?)$", text.strip())
    if not m:
        raise ValueError(f"bad time of day: {text!r}")
    return int(m.group(1)) * 3600 + int(m.group(2)) * 60 + float(m.group(3))


def _hundredths_of_day(seconds: np.ndarray) -> np.ndarray:
    """Each time, wrapped at midnight, as a whole number of hundredths of a
    second, rounded once as ``f"{x:.2f}"`` rounds: 59.996 s is 6000."""
    x = seconds % 86_400
    scaled = x * 100
    hundredths = np.rint(scaled).astype(np.int64)
    # scaled is rounded once more than the exact rule's decimal rounding of
    # x. That rounding keeps the side of a .5 tie, so the two can disagree
    # only where scaled lands on the tie itself; there, and within a 1e-6
    # margin of it, the exact rule decides. A 40 Hz log puts every other
    # sample on a tie.
    near = np.flatnonzero(np.abs(scaled - np.floor(scaled) - 0.5) < 1e-6)
    hundredths[near] = [int(f"{v:.2f}".replace(".", "")) for v in x[near].tolist()]
    return hundredths % 8_640_000


def _clock_texts(hundredths: np.ndarray) -> list[str]:
    """``HH:MM:SS.ff`` for each count of hundredths after midnight."""
    digits = np.empty((len(hundredths), 11), dtype=np.uint8)
    for col, value in (
        (0, hundredths // 360_000),
        (3, hundredths // 6000 % 60),
        (6, hundredths // 100 % 60),
        (9, hundredths % 100),
    ):
        digits[:, col] = value // 10
        digits[:, col + 1] = value % 10
    digits += ord("0")
    digits[:, [2, 5]] = ord(":")
    digits[:, 8] = ord(".")
    return digits.view("S11")[:, 0].astype("U11").tolist()


# --- normalization ------------------------------------------------------------


def build_file_info(metas: list[FileMeta]) -> list[FileMeta]:
    """The FILE_INFO list: the first meta of each filename, in first-seen
    order. A file's id is its position plus 1."""
    first: dict[str, FileMeta] = {}
    for meta in metas:
        first.setdefault(meta.filename, meta)
    return list(first.values())


def format_number(x: float | int | None) -> str:
    """Canonical numeric formatting: up to 9 fractional digits, no noise."""
    if x is None:
        return ""
    if isinstance(x, int):
        return str(x)
    # "-0.000000000" strips to "-0": a value that rounds to zero is "0"
    text = f"{x:.9f}".rstrip("0").rstrip(".")
    return "0" if text == "-0" else text


def emit_normalized(rows: list[DataRow], file_info: list[FileMeta]) -> str:
    """Render the sensor data table as CSV, citing each file by its FILE_INFO id."""
    ids = _id_map(file_info)
    lines = (
        [
            _file_id(ids, r.filename),
            r.captured_instance,
            r.gage_id,
            r.placement,
            format_number(r.cal_coeff),
            format_number(r.rated_output),
            r.extrema,
            format_number(r.seconds_elapsed),
            format_number(r.processed_datapoint),
            r.unit,
        ]
        for r in rows
    )
    return _csv(DATA_HEADER, lines)


def emit_laser_normalized(table: LaserTable, file_info: list[FileMeta]) -> str:
    """Render the laser table as CSV, citing each file by its FILE_INFO id.

    The table is written column by column: every field is an integer, a
    number or a time of day, so none needs CSV quoting.
    """
    ids = _id_map(file_info)
    file_ids = np.array([_file_id(ids, f) for f in table.filenames], dtype=np.int64)
    columns = [
        map(str, file_ids[table.file_index].tolist()),
        map(str, table.sample_number.tolist()),
        # horiz_mm repeats in every file (each numbers its samples from 1)
        # and beam locations take a few values; readings hardly repeat
        _format_distinct(table.horiz_mm),
        map(format_number, table.laser_reading_mm.tolist()),
        _format_distinct(table.beam_location_mm),
        _clock_texts(table.hundredths),
    ]
    lines = [LASER_HEADER, *map(",".join, zip(*columns)), ""]
    return "\r\n".join(lines)


def _format_distinct(column: np.ndarray) -> Iterable[str]:
    """:func:`format_number` of each value, called once per distinct value."""
    values, inverse = np.unique(column, return_inverse=True)
    texts = [format_number(v) for v in values.tolist()]
    return map(texts.__getitem__, inverse.tolist())


def emit_file_info(file_info: list[FileMeta]) -> str:
    """Render FILE_INFO as CSV: one row per file, its id its position plus 1."""
    _id_map(file_info)
    return _csv(FILE_INFO_HEADER, (
        [i, meta.filename] + [getattr(meta, c) or "" for c in _FILE_INFO_META]
        for i, meta in enumerate(file_info, 1)
    ))


def _file_id(ids: dict[str, int], filename: str) -> int:
    if filename not in ids:
        raise DanglingReference(f"row cites unknown file {filename!r}")
    return ids[filename]


def _csv(header: str, rows: Iterable[list]) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header.split(","))
    writer.writerows(rows)
    return out.getvalue()


def _id_map(file_info: list[FileMeta]) -> dict[str, int]:
    """Filename to FILE_INFO id, its position plus 1; a filename listed
    twice is refused, since it would name two ids."""
    ids: dict[str, int] = {}
    for i, meta in enumerate(file_info, 1):
        if meta.filename in ids:
            raise IntegrityError(f"filename {meta.filename!r} listed twice")
        ids[meta.filename] = i
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
    when referential integrity holds. A blank data line, or a FILE_INFO
    row with fewer fields than its header, is a :class:`FormatError`
    naming its line; one final line end is not a blank line.

    Only FILE_INFO fields are rendered. ``csv.reader`` splits a line that
    holds no ``"``, NUL or lone ``\\r`` at its commas, and ``csv.writer``
    writes those fields back unchanged, so such a table's rows pass through
    as text, cut at their first comma. Any other table is read and written
    row by row.
    """
    info = _file_info_by_id(fileinfo_csv)
    if '"' in data_csv or "\0" in data_csv or data_csv.count("\r") != data_csv.count("\r\n"):
        return _join_rows(data_csv, info)
    lines = data_csv.replace("\r\n", "\n").removesuffix("\n").split("\n")
    head, comma, rest = lines[0].partition(",")
    if head != "filename_id":
        raise EtlError("data table must start with a filename_id column")
    out = [f"filename{comma}{rest},{','.join(JOIN_META_COLUMNS)}"]
    # each id's rendered filename and ",project_name,...,description" tail
    ends = {}
    for file_id, fields in info.items():
        tail = "," + _csv_line(fields[1:])
        ends[file_id] = (_csv_line(fields)[: -len(tail)], tail)
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            raise FormatError("blank line in data table", lineno)
        file_id, comma, rest = line.partition(",")
        if file_id not in ends:
            raise DanglingReference(f"filename_id {file_id} not in file info")
        filename, tail = ends[file_id]
        out.append(f"{filename}{comma}{rest}{tail}")
    out.append("")
    return "\r\n".join(out)


def _join_rows(data_csv: str, info: dict[str, list[str]]) -> str:
    """:func:`join_by_filename_id` through ``csv.reader`` and ``csv.writer``."""
    rows = _csv_rows(data_csv)
    _, header = next(rows, (0, []))
    if header[:1] != ["filename_id"]:
        raise EtlError("data table must start with a filename_id column")
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["filename", *header[1:], *JOIN_META_COLUMNS])
    for lineno, row in rows:
        if not row:
            raise FormatError("blank line in data table", lineno)
        if row[0] not in info:
            raise DanglingReference(f"filename_id {row[0]} not in file info")
        filename, *meta = info[row[0]]
        writer.writerow([filename, *row[1:], *meta])
    return out.getvalue()


def _file_info_by_id(fileinfo_csv: str) -> dict[str, list[str]]:
    """Each FILE_INFO id's filename and :data:`JOIN_META_COLUMNS` fields."""
    rows = _csv_rows(fileinfo_csv)
    columns = FILE_INFO_HEADER.split(",")
    if next(rows, (0, None))[1] != columns:
        raise EtlError("unexpected FILE_INFO header")
    picks = [columns.index(c) for c in ("filename", *JOIN_META_COLUMNS)]
    by_id: dict[str, list[str]] = {}
    for lineno, row in rows:
        if len(row) < len(columns):
            raise FormatError(f"file info row has {len(row)} of {len(columns)} fields", lineno)
        if row[0] in by_id:
            raise IntegrityError(f"id {row[0]} present twice in file info")
        by_id[row[0]] = [row[i] for i in picks]
    return by_id


def _csv_rows(text: str) -> Iterator[tuple[int, list[str]]]:
    """``(line number, fields)`` of each row of a CSV table; a row the csv
    module refuses, such as one with a field over its size limit, is a
    :class:`FormatError` naming its line."""
    reader = csv.reader(io.StringIO(text))
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise FormatError(str(exc), reader.line_num) from None
        yield reader.line_num, row


def _csv_line(fields: list[str]) -> str:
    """One row as ``csv.writer`` renders it, without its line end."""
    out = io.StringIO()
    csv.writer(out).writerow(fields)
    return out.getvalue().removesuffix("\r\n")
