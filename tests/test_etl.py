"""Filename parsing, raw-log ingestion, processing and normalization tests."""

import csv
import io
import random
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    LaserRow,
    asg_raw_text,
    format_time_of_day,
    laser_raw_text,
    raw_text,
    reference_join,
    reference_laser_csv,
    reference_laser_rows,
    tc_raw_text,
)
from paveharvest import etl
from paveharvest.etl import (
    DATA_HEADER,
    FILE_INFO_HEADER,
    JOIN_META_COLUMNS,
    LASER_HEADER,
    DanglingReference,
    DataRow,
    FileMeta,
    FileInfoRow,
    FormatError,
    IntegrityError,
    LaserTable,
    build_file_info,
    emit_laser_normalized,
    emit_normalized,
    format_number,
    join_by_filename_id,
    laser_horizontal,
    parse_filename,
    parse_raw_log,
    process_file,
)

# --- filenames ------------------------------------------------------------


def test_parse_archive_filename():
    meta = parse_filename("229 I-69_TSI_STRAIN GAGE_104_23-Nov-2020.mat")
    assert meta.project_name == "I-69"
    assert meta.test_section == "TSI"
    assert meta.sensor_type == "STRAIN GAGE"
    assert meta.gage_id == "104"
    assert meta.survey_date == "2020-11-23"
    assert not meta.unparsed


def test_parse_traffic_filename():
    meta = parse_filename("Traffic D1 F20 07-07-22.txt")
    assert meta.test_section == "D1"
    assert meta.description == "F20"
    assert meta.survey_date == "2022-07-07"
    assert not meta.unparsed


def test_parse_unrecognized_filename():
    meta = parse_filename("notes.docx")
    assert meta.unparsed
    assert meta.filename == "notes.docx"
    assert meta.project_name is None


def test_two_digit_year_window():
    assert parse_filename("Traffic D1 F20 01-02-68.txt").survey_date == "2068-01-02"
    assert parse_filename("Traffic D1 F20 01-02-69.txt").survey_date == "1969-01-02"


# --- laser mapping ------------------------------------------------------------


def test_laser_horizontal_known_values():
    assert laser_horizontal(0) == 0.0
    assert laser_horizontal(1) == pytest.approx(0.171117705, abs=1e-9)
    assert laser_horizontal(4) == pytest.approx(0.684470821, abs=1e-9)


# --- raw parsing ------------------------------------------------------------


def test_parse_two_channel_raw(tmp_path):
    header = {
        "kind": "ASG",
        "unit": "microstrain",
        "gage": "7,8",
        "placement": "36,40",
        "cal_coeff": "0.849,0.851",
        "rated_output": "5890,5890",
    }
    t = np.arange(0.0, 10.0, 0.1)
    path = tmp_path / "two.txt"
    path.write_text(raw_text(header, t, [np.sin(t), np.cos(t)]))
    raw = parse_raw_log(path)
    assert raw.kind == "ASG"
    assert len(raw.channels) == 2
    assert raw.channels[0].gage_id == "7"
    assert raw.channels[1].cal.cal_coeff == 0.851
    assert len(raw.channels[0].series) == 100


def test_parse_laser_fixture_lengths(tmp_path):
    path = tmp_path / "laser.txt"
    path.write_text(laser_raw_text(n_samples=4000))
    raw = parse_raw_log(path)
    assert raw.kind == "LASER"
    assert len(raw.channels) == 2
    assert len(raw.channels[0].series) == 4000


def test_header_only_file_raises_at_line_two(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# kind: ASG\n")
    with pytest.raises(FormatError) as err:
        parse_raw_log(path)
    assert err.value.line == 2


def test_mid_file_garbage_is_format_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# kind: TC\n0.0,1.0\nnot,numbers\n0.2,1.1\n")
    with pytest.raises(FormatError) as err:
        parse_raw_log(path)
    assert err.value.line == 3


def test_truncated_final_row_is_partial_with_warning(tmp_path):
    path = tmp_path / "trunc.txt"
    path.write_text("# kind: TC\n0.0,1.0\n0.1,1.1\n0.2,1.")
    raw = parse_raw_log(path)
    assert len(raw.channels[0].series) in (2, 3)
    if len(raw.channels[0].series) == 2:
        assert raw.warnings


def test_non_increasing_seconds_rejected(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("# kind: TC\n0.0,1.0\n0.0,1.1\n")
    with pytest.raises(FormatError):
        parse_raw_log(path)


def test_nonfinite_row_value_rejected(tmp_path):
    path = tmp_path / "nan.txt"
    path.write_text("# kind: TC\n0.0,1.0\n0.1,nan\n0.2,1.2\n")
    with pytest.raises(FormatError) as err:
        parse_raw_log(path)
    assert err.value.line == 3


def test_explicit_kind_overrides_missing_header(tmp_path):
    path = tmp_path / "plain.txt"
    t = np.arange(0.0, 30.0, 0.1)
    path.write_text(raw_text({"unit": "degF"}, t, [np.sin(t)]))
    assert parse_raw_log(path, kind="tc").kind == "TC"
    with pytest.raises(etl.EtlError):
        parse_raw_log(path)  # auto needs the header


# Malformed and unusual raw logs with what the row-by-row parser gives for
# them: ("error", line, message), or ("ok", header, t, channel values,
# warnings).
PARSE_CASES = {
    "bad_number_mid_file": (
        "# kind: TC\n0.0,1.0\n0.1,1.x\n0.2,1.2\n",
        ("error", 3, "line 3: bad number in row: '0.1,1.x'"),
    ),
    "nan_mid_file": (
        "# kind: TC\n0.0,1.0\n0.1,nan\n0.2,1.2\n",
        ("error", 3, "line 3: bad number in row: '0.1,nan'"),
    ),
    "inf_mid_file": (
        "# kind: TC\n0.0,1.0\n0.1,2.0\n0.2,-inf\n0.3,1.2\n",
        ("error", 4, "line 4: bad number in row: '0.2,-inf'"),
    ),
    "repeated_seconds": (
        "# kind: TC\n0.0,1.0\n0.1,1.1\n0.1,1.2\n0.2,1.3\n",
        ("error", 4, "line 4: seconds column must be strictly increasing"),
    ),
    "decreasing_seconds_last_row": (
        "# kind: TC\n0.0,1.0\n0.1,1.1\n0.05,1.2\n",
        ("error", 4, "line 4: seconds column must be strictly increasing"),
    ),
    "header_after_data": (
        "# kind: TC\n0.0,1.0\n0.1,1.1\n# unit: degC\n0.2,1.2\n",
        ("error", 4, "line 4: header line after data rows"),
    ),
    "header_last_line": (
        "# kind: TC\n0.0,1.0\n0.1,1.1\n# unit: degC\n",
        ("error", 4, "line 4: header line after data rows"),
    ),
    "columns_change_mid_file": (
        "# kind: TC\n0.0,1.0,2.0\n0.1,1.1\n0.2,1.2,2.2\n",
        ("error", 3, "line 3: expected 3 columns, got 2"),
    ),
    "short_last_row": (
        "# kind: ASG\n0.0,1.0,2.0\n0.1,1.1,2.1\n0.2,1.2\n",
        ("ok", {"kind": "ASG"}, [0.0, 0.1], [[1.0, 1.1], [2.0, 2.1]],
         ["line 4: truncated row dropped"]),
    ),
    "trailing_comma_last_row": (
        "# kind: TC\n0.0,1.0\n0.1,1.1\n0.2,\n",
        ("ok", {"kind": "TC"}, [0.0, 0.1], [[1.0, 1.1]],
         ["line 4: truncated row dropped"]),
    ),
    "cut_exponent_last_row": (
        "# kind: TC\n0.0,1.0\n0.1,1.1\n0.2,1.2e",
        ("ok", {"kind": "TC"}, [0.0, 0.1], [[1.0, 1.1]],
         ["line 4: truncated row dropped"]),
    ),
    "short_row_before_blank_last_line": (
        "# kind: ASG\n0.0,1.0,2.0\n0.1,1.1\n\n",
        ("ok", {"kind": "ASG"}, [0.0], [[1.0], [2.0]],
         ["line 3: truncated row dropped"]),
    ),
    "blank_lines_between_rows": (
        "# kind: TC\n\n0.0,1.0\n\n\n0.1,1.1\n   \n0.2,1.2\n",
        ("ok", {"kind": "TC"}, [0.0, 0.1, 0.2], [[1.0, 1.1, 1.2]], []),
    ),
    "crlf": (
        "# kind: TC\r\n# unit: degC\r\n0.0,1.0\r\n0.1,1.1\r\n0.2,1.2\r\n",
        ("ok", {"kind": "TC", "unit": "degC"}, [0.0, 0.1, 0.2], [[1.0, 1.1, 1.2]], []),
    ),
    "spaces_around_commas": (
        "# kind: TC\n0.0 , 1.0\n 0.1,\t1.1 \n0.2 ,1.2\n",
        ("ok", {"kind": "TC"}, [0.0, 0.1, 0.2], [[1.0, 1.1, 1.2]], []),
    ),
    "duplicate_header_keys": (
        "# kind: TC\n# unit: degC\n# unit: degF\n0.0,1.0\n0.1,1.1\n",
        ("ok", {"kind": "TC", "unit": "degF"}, [0.0, 0.1], [[1.0, 1.1]], []),
    ),
    "duplicate_header_keys_count_as_lines": (
        "# kind: ASG\n# gage: 1\n# gage: 1,2,3\n0.0,1.0,2.0\n",
        ("error", 4, "line 4: gage lists 3 values for 2 channels"),
    ),
    "one_column": (
        "# kind: TC\n0.0\n0.1\n",
        ("error", 2, "line 2: data rows need seconds plus >=1 value"),
    ),
}


@pytest.mark.parametrize("name", sorted(PARSE_CASES))
def test_parse_raw_log_cases(tmp_path, name):
    text, want = PARSE_CASES[name]
    path = tmp_path / "log.txt"
    path.write_bytes(text.encode())
    if want[0] == "error":
        with pytest.raises(FormatError) as err:
            parse_raw_log(path)
        assert (err.value.line, str(err.value)) == want[1:]
        return
    header, t, values, warnings = want[1:]
    raw = parse_raw_log(path)
    assert raw.header == header
    assert raw.warnings == warnings
    assert len(raw.channels) == len(values)
    for channel, y in zip(raw.channels, values):
        assert channel.series.t.tolist() == t
        assert channel.series.y.tolist() == y


_FORMATS = (repr, "{:.6f}".format, "{:.3e}".format, "{:g}".format)


@st.composite
def well_formed_logs(draw):
    """Raw-log text whose rows all parse: strictly increasing seconds, the
    same column count throughout, finite values in assorted notations,
    with blank or whitespace-only lines and spaces around commas mixed in."""
    n_values = draw(st.integers(1, 4))
    steps = draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=40))
    finite = st.floats(-1e300, 1e300)  # rounding by a format keeps it finite
    lines = ["# kind: TC"] * draw(st.integers(0, 2))
    for t in np.cumsum(steps) - draw(st.floats(0, 1e3)):
        fields = [repr(float(t))]
        fields += [draw(st.sampled_from(_FORMATS))(draw(finite)) for _ in range(n_values)]
        sep = draw(st.sampled_from([",", ", ", " ,"]))
        lines.append(sep.join(fields))
        lines += draw(st.lists(st.sampled_from(["", "   ", "\t", "\xa0"]), max_size=1))
    return "\n".join(lines) + "\n"


@settings(deadline=None)
@given(well_formed_logs())
def test_vectorized_parse_equals_row_loop(text):
    lines = text.splitlines()
    _, _, start = etl._read_header(lines)
    fast = etl._parse_block(lines, start)
    slow, warnings = etl._parse_rows(lines, start)
    assert fast is not None and warnings == []
    assert fast.shape == slow.shape
    assert fast.tobytes() == slow.tobytes()


# Fields that float(), numpy's reader, or both treat unusually: first those
# float() reads as a finite number, then those it does not.
_ODD_NUMBERS = (
    " 1.5", "2.5 ", "\t3", "+4", ".5", "1.", "1_000", "١٢", "１", "\xa01",
    "-0", "-0.0", "1e-400", "1" + "0" * 400, "0." + "0" * 399 + "1",
)
_NOT_NUMBERS = (
    "0x1A", "1#2", '"3"', "'3'", "1\x00", "nan", "Infinity", "-inf", "1e400",
    "", " ", "1 2", "1e", "--1",
)


@st.composite
def unusual_logs(draw):
    """Raw-log text that mixes well-formed rows with the fields above,
    whitespace-only lines, ragged, truncated and non-increasing rows, a
    header line among the rows and CRLF line ends."""
    n_values = draw(st.sampled_from([0, 1, 1, 2, 3]))  # 0: one column
    lines = ["# kind: TC"]
    t = draw(st.floats(-10, 10))
    changes = ["none"] * draw(st.sampled_from([4, 16, 64]))
    changes += ["odd", "odd", "odd", "not", "ragged", "backwards", "line"]
    for _ in range(draw(st.integers(1, 12))):
        change = draw(st.sampled_from(changes))
        t += draw(st.sampled_from([-0.5, 0.0] if change == "backwards" else [0.1, 1.0]))
        fields = [repr(t)] + [repr(draw(st.floats(-1e3, 1e3))) for _ in range(n_values)]
        if change in ("odd", "not"):
            i = -1 - draw(st.integers(0, len(fields) - 1))  # seconds least often
            fields[i] = draw(st.sampled_from(_ODD_NUMBERS if change == "odd" else _NOT_NUMBERS))
        elif change == "ragged":
            fields = fields[:-1] if draw(st.booleans()) else fields + ["7.0"]
        sep = draw(st.sampled_from([",", ",", ", ", " ,", ",\t"]))
        lines.append(sep.join(fields))
        if change == "line":
            lines.append(draw(st.sampled_from(["", "   ", "\t", "\xa0", "# unit: x"])))
    if len(lines) > 1 and draw(st.integers(0, 3)) == 0:
        lines[-1] = lines[-1][: draw(st.integers(0, len(lines[-1])))]  # cut write
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end, end + end]))


def _parse_outcome(path):
    try:
        raw = parse_raw_log(path)
    except FormatError as err:
        return ("error", err.line, str(err))
    columns = [(c.series.t.tobytes(), c.series.y.tobytes()) for c in raw.channels]
    return ("ok", raw.header, columns, raw.warnings)


@settings(deadline=None, max_examples=400)
@given(unusual_logs())
def test_block_parse_agrees_with_row_loop_on_unusual_logs(text):
    lines = text.splitlines()
    _, _, start = etl._read_header(lines)
    fast = etl._parse_block(lines, start)
    if fast is not None:
        slow, warnings = etl._parse_rows(lines, start)
        assert warnings == []
        assert fast.shape == slow.shape
        assert fast.tobytes() == slow.tobytes()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.txt"
        path.write_bytes(text.encode())
        got = _parse_outcome(path)
        with mock.patch.object(etl, "_parse_block", lambda lines, start: None):
            want = _parse_outcome(path)
    assert got == want


# --- per-kind processing -----------------------------------------------------


def test_asg_traffic_file_rows(tmp_path):
    path = tmp_path / "Traffic D1 F20 07-07-22.txt"
    path.write_text(asg_raw_text(n_pass=45, amplitude=-0.22, baseline=-0.0))
    result = process_file(path)
    peaks = [r for r in result.data_rows if r.extrema == "maxima"]
    envelopes = [r for r in result.data_rows if r.extrema == "envelope"]
    minima = [r for r in result.data_rows if r.extrema == "minima"]
    assert len(peaks) == 40
    assert len(envelopes) == 200
    assert minima == []
    assert {r.captured_instance for r in peaks} == {"first20", "last20"}
    assert sum(r.captured_instance == "first20" for r in peaks) == 20
    assert all(r.unit == "microstrain" for r in result.data_rows)
    assert all(r.gage_id == "7" and r.placement == "36" for r in peaks)
    # negative pulses: peak rows carry the calibrated smoothed values
    assert all(r.cal_coeff == 0.849 and r.rated_output == 5890.0 for r in peaks)


def test_asg_calibration_scales_rows(tmp_path):
    a = tmp_path / "Traffic D1 F20 01-01-22.txt"
    b = tmp_path / "Traffic D1 F20 01-02-22.txt"
    a.write_text(asg_raw_text(n_pass=42, cal_coeff=1.0))
    b.write_text(asg_raw_text(n_pass=42, cal_coeff=2.0))
    rows_a = process_file(a).data_rows
    rows_b = process_file(b).data_rows
    assert len(rows_a) == len(rows_b)
    for ra, rb in zip(rows_a, rows_b):
        assert rb.processed_datapoint == pytest.approx(2.0 * ra.processed_datapoint, rel=1e-12)
        assert rb.seconds_elapsed == ra.seconds_elapsed


def test_tc_file_maxima_and_minima_only(tmp_path):
    path = tmp_path / "Traffic D3 F20 07-08-22.txt"
    path.write_text(tc_raw_text(periods=3))
    result = process_file(path)
    kinds = [r.extrema for r in result.data_rows]
    assert kinds.count("maxima") == 3
    assert kinds.count("minima") == 3
    assert "envelope" not in kinds
    assert all(r.captured_instance == "first20" for r in result.data_rows)
    assert all(r.unit == "degF" for r in result.data_rows)


def test_csg_file_instance_from_filename(tmp_path):
    path = tmp_path / "Traffic D2 L20 09-01-22.txt"
    text = tc_raw_text(periods=4, rate_hz=40).replace("# kind: TC", "# kind: CSG")
    text = text.replace("# unit: degF", "# unit: inches")
    path.write_text(text)
    result = process_file(path)
    kinds = {r.extrema for r in result.data_rows}
    assert kinds == {"maxima", "minima"}
    assert all(r.captured_instance == "last20" for r in result.data_rows)
    assert all(r.unit == "inches" for r in result.data_rows)


def test_tc_unlabeled_without_instance_token(tmp_path):
    path = tmp_path / "thermo.txt"
    path.write_text(tc_raw_text(periods=3))
    result = process_file(path)
    assert all(r.captured_instance == "" for r in result.data_rows)


def test_stationary_file_has_envelopes(tmp_path):
    path = tmp_path / "Stationary Load Pt 0 ET.txt"
    text = asg_raw_text(n_pass=5, rate_hz=200, width_s=6.0, period_s=12.0).replace(
        "# kind: ASG", "# kind: STATIONARY_ET"
    )
    path.write_text(text)
    result = process_file(path)
    peaks = [r for r in result.data_rows if r.extrema == "maxima"]
    envelopes = [r for r in result.data_rows if r.extrema == "envelope"]
    assert len(peaks) == 5
    assert len(envelopes) == 25
    assert all(r.captured_instance == "stationary" for r in result.data_rows)


def test_fwd_file_extrema_no_envelope(tmp_path):
    path = tmp_path / "FWD Pass 1 #0 06-10 TRY 1.txt"
    text = tc_raw_text(rate_hz=40, periods=4).replace("# kind: TC", "# kind: FWD")
    text = text.replace("# unit: degF", "# unit: microstrain")
    path.write_text(text)
    result = process_file(path)
    kinds = {r.extrema for r in result.data_rows}
    assert kinds == {"maxima", "minima"}
    assert all(r.captured_instance == "fwd" for r in result.data_rows)


def test_laser_file_rows(tmp_path):
    path = tmp_path / "19-06-18 H L1 0-Passes PL1.txt"
    path.write_text(laser_raw_text(n_samples=4000))
    result = process_file(path)
    table = result.laser_rows
    assert len(table) == 4000
    assert result.data_rows == []
    assert table.sample_number[:4].tolist() == [1, 2, 3, 4]
    np.testing.assert_allclose(
        table.horiz_mm, table.sample_number * 1384.0 / 8088.0, rtol=0, atol=1e-9
    )
    rows = table_rows(table)
    assert rows[0].sampled_time == "10:57:16.47"
    assert rows[1].sampled_time == "10:57:16.50"
    assert table.beam_location_mm[:2].tolist() == [0.0, 20.0]


def test_process_merges_header_metadata(tmp_path):
    path = tmp_path / "plain.txt"
    text = tc_raw_text(periods=3)
    path.write_text("# location: 12.5\n# description: SG8\n" + text)
    meta = process_file(path).meta
    assert meta.location == "12.5"
    assert meta.description == "SG8"
    assert meta.sensor_type == "TC"


# --- normalization ------------------------------------------------------------


def make_row(filename, seconds=1.0, value=-0.185732682, instance="first20"):
    return DataRow(
        filename=filename,
        captured_instance=instance,
        gage_id="7",
        placement="36",
        cal_coeff=0.849,
        rated_output=5890.0,
        extrema="maxima",
        seconds_elapsed=seconds,
        processed_datapoint=value,
        unit="microstrain",
    )


def make_laser_table(filename, sample_number=1):
    """A one-row laser table: ``sample_number`` of ``filename``, at 08:00:00.01."""
    return built_laser_table(
        [(filename, sample_number, laser_horizontal(sample_number), 3.5, -0.25, 28_800.01)]
    )


def table_rows(table):
    """A laser table's columns read as reference rows, one LaserRow per sample."""
    return [
        LaserRow(table.filenames[i], n, horiz, reading, beam,
                 f"{h // 360_000:02d}:{h // 6000 % 60:02d}:{h // 100 % 60:02d}.{h % 100:02d}")
        for i, n, horiz, reading, beam, h in zip(
            table.file_index.tolist(), table.sample_number.tolist(), table.horiz_mm.tolist(),
            table.laser_reading_mm.tolist(), table.beam_location_mm.tolist(),
            table.hundredths.tolist(),
        )
    ]


#: each emitter with a builder of one row of its input, and the function that
#: joins built rows into that input
EMITTERS = [
    (emit_normalized, make_row, list),
    (emit_laser_normalized, make_laser_table, LaserTable.concat),
]


def test_build_file_info_dedupes_first_seen():
    metas = [FileMeta(filename="a.txt"), FileMeta(filename="b.txt"),
             FileMeta(filename="a.txt")]
    info = build_file_info(metas)
    assert [(r.id, r.filename) for r in info] == [(1, "a.txt"), (2, "b.txt")]


def test_build_file_info_empty():
    assert build_file_info([]) == []


def test_build_file_info_matches_dedup_oracle():
    rng = random.Random(4)
    names = [f"f{rng.randint(0, 9)}.txt" for _ in range(100)]
    info = build_file_info([FileMeta(filename=n) for n in names])
    want = list(dict.fromkeys(names))  # first-seen order oracle
    assert [r.filename for r in info] == want
    assert [r.id for r in info] == list(range(1, len(want) + 1))


def test_emit_assigns_filename_ids():
    rows = [make_row("a.txt", 1.0), make_row("a.txt", 2.0)]
    info = build_file_info([FileMeta(filename="a.txt")])
    data_csv, info_csv = emit_normalized(rows, info)
    parsed = list(csv.reader(io.StringIO(data_csv)))
    assert parsed[0] == DATA_HEADER.split(",")
    assert [r[0] for r in parsed[1:]] == ["1", "1"]
    info_parsed = list(csv.reader(io.StringIO(info_csv)))
    assert info_parsed[0] == FILE_INFO_HEADER.split(",")
    assert info_parsed[1][:2] == ["1", "a.txt"]


def test_emit_rejects_unknown_file():
    info = build_file_info([FileMeta(filename="real.txt")])
    for emit, make, join in EMITTERS:
        with pytest.raises(DanglingReference, match="ghost.txt"):
            emit(join([make("real.txt"), make("ghost.txt")]), info)


@pytest.mark.parametrize("emit, make, join", EMITTERS, ids=["data", "laser"])
@pytest.mark.parametrize(
    "ids, message",
    [([(1, "a.txt"), (2, "a.txt")], "listed twice"), ([(1, "a.txt"), (3, "b.txt")], "dense")],
    ids=["filename-twice", "ids-not-dense"],
)
def test_emit_rejects_broken_file_info(emit, make, join, ids, message):
    info = [FileInfoRow(id=i, filename=name, meta=FileMeta(filename=name)) for i, name in ids]
    with pytest.raises(IntegrityError, match=message):
        emit(join([make("a.txt")]), info)


def test_join_missing_id_is_dangling():
    info = build_file_info([FileMeta(filename="a.txt")])
    _, info_csv = emit_normalized([], info)
    data_csv = DATA_HEADER + "\r\n9,first20,7,36,1,1,maxima,1,1,microstrain\r\n"
    with pytest.raises(DanglingReference):
        join_by_filename_id(data_csv, info_csv)


def test_join_duplicate_file_info_id_is_integrity_error():
    data_csv = DATA_HEADER + "\r\n"
    info_csv = FILE_INFO_HEADER + "\r\n1,a.txt,,,,,,,\r\n1,b.txt,,,,,,,\r\n"
    with pytest.raises(IntegrityError):
        join_by_filename_id(data_csv, info_csv)


def test_join_empty_data_table():
    info = build_file_info([FileMeta(filename="a.txt")])
    data_csv, info_csv = emit_normalized([], info)
    joined = join_by_filename_id(data_csv, info_csv)
    rows = list(csv.reader(io.StringIO(joined)))
    assert len(rows) == 1  # header only


#: field text for tables that hold no character CSV quotes, and for those
#: that do
_PLAIN_FIELDS = st.text(alphabet="0123456789abc.-: ", max_size=6)
_QUOTED_FIELDS = st.text(alphabet='0123456789abc.-: ,"\n', max_size=6)


def _csv_table(rows, end, final_end):
    out = io.StringIO()
    csv.writer(out, lineterminator=end).writerows(rows)
    return out.getvalue() if final_end else out.getvalue().removesuffix(end)


@st.composite
def join_tables(draw):
    """A data table and a FILE_INFO table, each with ``\\n`` or ``\\r\\n``
    line ends, with or without a final one. Ids are listed in any order,
    rows cite them in any order, some tables cite an id FILE_INFO lacks, and
    some hold fields CSV quotes."""
    quoted = draw(st.booleans())
    fields = _QUOTED_FIELDS if quoted else _PLAIN_FIELDS
    ids = draw(st.lists(st.one_of(st.integers(1, 40).map(str), fields),
                        min_size=1, max_size=6, unique=True))
    info = [FILE_INFO_HEADER.split(",")] + [
        [i, *draw(st.lists(fields, min_size=8, max_size=8))] for i in draw(st.permutations(ids))
    ]
    cited = st.sampled_from(ids)
    if draw(st.booleans()):
        cited = st.one_of(cited, st.just("x9"))  # "x" is in neither alphabet
    header = draw(st.sampled_from([DATA_HEADER, LASER_HEADER])).split(",")
    rows = draw(st.lists(st.tuples(cited, st.lists(fields, max_size=len(header) - 1)),
                         max_size=30))
    ends = st.sampled_from(["\n", "\r\n"])
    return (
        _csv_table([header, *([i, *rest] for i, rest in rows)], draw(ends), draw(st.booleans())),
        _csv_table(info, draw(ends), draw(st.booleans())),
    )


@settings(deadline=None, max_examples=300)
@given(join_tables())
def test_join_matches_the_row_by_row_reference(tables):
    data_csv, info_csv = tables
    try:
        want = reference_join(data_csv, info_csv)
    except DanglingReference:
        with pytest.raises(DanglingReference):
            join_by_filename_id(data_csv, info_csv)
    else:
        assert join_by_filename_id(data_csv, info_csv) == want


def random_meta(rng, name):
    return FileMeta(
        filename=name,
        project_name=rng.choice(["I-69", "I-65", None]),
        test_section=rng.choice(["TSI", "D1", "D3"]),
        sensor_type=rng.choice(["STRAIN GAGE", "TC", "PC"]),
        location=rng.choice(["12.5", "7.5", None]),
        gage_id=str(rng.randint(100, 199)),
        survey_date="2020-11-23",
        description=rng.choice(["SG8", None]),
    )


def expected_join_csv(rows, metas_by_name):
    """Denormalized view built directly from rows + metas (the oracle)."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(
        ["filename"] + DATA_HEADER.split(",")[1:] + list(JOIN_META_COLUMNS)
    )
    for r in rows:
        m = metas_by_name[r.filename]
        writer.writerow(
            [
                r.filename,
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
            + [getattr(m, c) or "" for c in JOIN_META_COLUMNS]
        )
    return out.getvalue()


def test_normalization_round_trip_lossless():
    rng = random.Random(99)
    for _ in range(20):
        names = [f"Traffic D1 F20 07-0{i}-22.txt" for i in range(1, rng.randint(2, 7))]
        metas = {n: random_meta(rng, n) for n in names}
        rows = [
            make_row(
                rng.choice(names),
                seconds=round(rng.uniform(0, 100), 4),
                value=rng.uniform(-1, 1),
                instance=rng.choice(["first20", "last20"]),
            )
            for _ in range(rng.randint(1, 40))
        ]
        ordered_metas = [metas[r.filename] for r in rows]
        info = build_file_info(ordered_metas)
        data_csv, info_csv = emit_normalized(rows, info)
        joined = join_by_filename_id(data_csv, info_csv)
        assert joined == expected_join_csv(rows, metas)


def test_round_trip_is_deterministic(tmp_path):
    path = tmp_path / "Traffic D1 F20 07-07-22.txt"
    path.write_text(asg_raw_text(n_pass=42))
    r1 = process_file(path)
    r2 = process_file(path)
    info1 = build_file_info([r1.meta])
    info2 = build_file_info([r2.meta])
    assert emit_normalized(r1.data_rows, info1) == emit_normalized(r2.data_rows, info2)


def test_laser_emit_and_join(tmp_path):
    path = tmp_path / "laser.txt"
    path.write_text(laser_raw_text(n_samples=1200))
    result = process_file(path)
    info = build_file_info([result.meta])
    laser_csv, info_csv = emit_laser_normalized(result.laser_rows, info)
    parsed = list(csv.reader(io.StringIO(laser_csv)))
    assert parsed[0] == LASER_HEADER.split(",")
    assert len(parsed) == 1201
    joined = join_by_filename_id(laser_csv, info_csv)
    jrows = list(csv.reader(io.StringIO(joined)))
    assert jrows[0][0] == "filename"
    assert jrows[1][0] == "laser.txt"
    assert len(jrows) == 1201


# --- laser tables against the per-row reference in helpers.py -----------------


def test_laser_table_reads_as_the_reference_rows(tmp_path):
    path = tmp_path / "laser.txt"
    path.write_text(laser_raw_text(n_samples=4000))
    table = process_file(path).laser_rows
    want = reference_laser_rows(path.name, parse_raw_log(path))
    assert len(table) == len(want) == 4000
    assert table.filenames == [path.name]
    assert table_rows(table) == want


#: start times: midnight, the fixtures' start, and one that runs over midnight
_START_TIMES = st.sampled_from(["00:00:00", "10:57:16.47", "23:59:59.99", "23:59:59.995"])


@st.composite
def laser_logs(draw):
    """A laser log whose start time plus each ``t`` lies on, or a few ulps
    either side of, a hundredths tie (``t`` is a multiple of 0.005 s, from
    negative values up), with beam values drawn from a few."""
    start = draw(_START_TIMES)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1001, 1100))
    t = 0.005 * (draw(st.integers(-3000, 3000)) + draw(st.integers(1, 6)) * np.arange(n))
    tod = etl._parse_time_of_day(start) + t
    t = t + np.spacing(tod) * rng.integers(-2, 3, n)
    reading = 250.88 + rng.normal(0, 0.05, n)
    beam = rng.choice([0.0, -0.0, 20.0, 1e-10], n)
    lines = [f"# kind: LASER\n# start_time: {start}"]
    lines += [f"{a!r},{b!r},{c!r}" for a, b, c in zip(t.tolist(), reading.tolist(), beam.tolist())]
    return "\n".join(lines) + "\n"


@settings(deadline=None, max_examples=40)
@given(laser_logs())
def test_laser_table_and_writer_match_the_per_row_reference(text):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "laser.txt"
        path.write_text(text)
        result = process_file(path)
        want = reference_laser_rows(path.name, parse_raw_log(path))
    assert table_rows(result.laser_rows) == want
    info = build_file_info([result.meta])
    assert emit_laser_normalized(result.laser_rows, info)[0] == reference_laser_csv(want, info)


_LASER_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-10, -5e-10, 1e-300, 1e15, -1e15, 1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_TIE_SECONDS = st.tuples(st.integers(-10**7, 2 * 10**7), st.integers(-2, 2)).map(
    lambda k: k[0] / 200 + k[1] * np.spacing(k[0] / 200)
)


@settings(deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a.txt", "b,c.txt", "d.txt"]),
            st.integers(0, 10**6),
            _LASER_FLOATS,
            _LASER_FLOATS,
            st.sampled_from([0.0, -0.0, 20.0, 1e-10]),
            _TIE_SECONDS,
        ),
        max_size=40,
    ),
    st.integers(0, 40),
)
def test_laser_writer_matches_the_per_row_reference_on_built_rows(samples, cut):
    rows = [
        LaserRow(f, n, horiz, reading, beam, format_time_of_day(seconds))
        for f, n, horiz, reading, beam, seconds in samples
    ]
    info = build_file_info([FileMeta(filename=f) for f in ("d.txt", "a.txt", "b,c.txt")])
    want = (reference_laser_csv(rows, info), emit_normalized([], info)[1])
    table = built_laser_table(samples)
    # the columnar tie rounding reads as format_time_of_day on the tie grid
    assert table_rows(table) == rows
    assert emit_laser_normalized(table, info) == want
    parts = [built_laser_table(samples[:cut]), built_laser_table(samples[cut:])]
    assert emit_laser_normalized(LaserTable.concat(parts), info) == want


def built_laser_table(samples):
    """A laser table made straight from columns of (filename, sample number,
    horiz, reading, beam, seconds after midnight) samples."""
    filenames = list(dict.fromkeys(f for f, *_ in samples))
    f, n, horiz, reading, beam, seconds = zip(*samples) if samples else [()] * 6
    return LaserTable(
        filenames,
        np.array([filenames.index(name) for name in f], dtype=np.int64),
        np.array(n, dtype=np.int64),
        np.array(horiz, dtype=float),
        np.array(reading, dtype=float),
        np.array(beam, dtype=float),
        etl._hundredths_of_day(np.array(seconds, dtype=float)),
    )


def test_format_number_canonical():
    assert format_number(None) == ""
    assert format_number(0.849) == "0.849"
    assert format_number(-0.185732682) == "-0.185732682"
    assert format_number(9.7004) == "9.7004"
    assert format_number(5890.0) == "5890"
    assert format_number(1384.0 / 8088.0) == "0.171117705"
    assert format_number(7) == "7"
    assert format_number(0.0) == "0"
    # a value that rounds to zero at 9 places prints "0", whatever its sign
    for tiny in (1e-12, -1e-12, -4e-10, -0.0):
        assert format_number(tiny) == "0"
    assert format_number(-6e-10) == "-0.000000001"
    # a numpy column, formatted once per distinct value, reads as the scalar calls
    column = np.array([0.849, -0.185732682, 5890.0, 1384.0 / 8088.0, 0.0, 1e-12,
                       -1e-12, -4e-10, -0.0, -6e-10, 0.849, -0.0, 5890.0])
    assert list(etl._format_distinct(column)) == [format_number(x) for x in column.tolist()]


def test_parse_time_of_day_takes_a_time_of_day_only():
    assert etl._parse_time_of_day("00:00:00") == 0
    assert etl._parse_time_of_day("23:59:59.995") == 86_399.995
    assert etl._parse_time_of_day("9:05:00") == 32_700
    for text in ("10:75:00", "24:00:00", "10:00:60", "99:00:99.5"):
        with pytest.raises(ValueError, match=f"bad time of day: '{text}'"):
            etl._parse_time_of_day(text)


def test_format_time_of_day_carries_rounded_seconds():
    """Seconds round once, before the split, so 59.996 s never prints as 60."""
    assert format_time_of_day(59.996) == "00:01:00.00"
    assert format_time_of_day(3599.999) == "01:00:00.00"
    assert format_time_of_day(86399.996) == "00:00:00.00"
    assert format_time_of_day(39436.47) == "10:57:16.47"
    assert format_time_of_day(39436.5) == "10:57:16.50"

    def split_then_round(seconds):
        seconds = seconds % 86_400
        h = int(seconds // 3600)
        m = int(seconds % 3600 // 60)
        return f"{h:02d}:{m:02d}:{seconds % 60:05.2f}"

    rng = random.Random(41)
    inputs = []
    for _ in range(20_000):
        seconds = rng.choice(
            [rng.uniform(-1e5, 2e5), rng.randint(0, 8_640_000) / 100 + rng.choice([0.005, -0.005])]
        )
        inputs.append(seconds)
        want = split_then_round(seconds)
        if not want.endswith("60.00"):
            assert format_time_of_day(seconds) == want, seconds
    # the columnar rule that laser tables use gives the same text everywhere
    texts = etl._clock_texts(etl._hundredths_of_day(np.array(inputs)))
    assert texts == [format_time_of_day(seconds) for seconds in inputs]
