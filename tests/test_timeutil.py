"""RFC 3339 stamps and durations: exact round trips, four-digit years and
one formatting rule for single stamps and columns."""

import random
from datetime import datetime, timedelta, timezone

import pytest

from paveharvest.timeutil import (
    format_rfc3339,
    format_rfc3339_column,
    parse_duration,
    parse_rfc3339,
)

FIRST_US = -62_135_596_800_000_000  # 0001-01-01T00:00:00Z
END_US = 253_402_300_800_000_000  # 10000-01-01T00:00:00Z
Y2100_US = 4_102_444_800_000_000


def test_whole_seconds_are_compact_and_fractions_have_six_digits():
    assert format_rfc3339(1_606_127_400_000_000) == "2020-11-23T10:30:00Z"
    assert format_rfc3339(1_606_127_400_000_001) == "2020-11-23T10:30:00.000001Z"
    assert format_rfc3339(1_606_127_400_500_000) == "2020-11-23T10:30:00.500000Z"
    assert format_rfc3339(0) == "1970-01-01T00:00:00Z"
    assert format_rfc3339(-1) == "1969-12-31T23:59:59.999999Z"


def test_parse_accepts_z_and_offsets_and_rejects_naive_stamps():
    assert parse_rfc3339("2020-11-23T10:30:00Z") == 1_606_127_400_000_000
    assert parse_rfc3339("2020-11-23T12:30:00.000001+02:00") == 1_606_127_400_000_001
    with pytest.raises(ValueError):
        parse_rfc3339("2020-11-23T10:30:00")
    with pytest.raises(ValueError):
        parse_rfc3339("not a time")


@pytest.mark.parametrize(
    "lo, hi", [(0, Y2100_US), (Y2100_US, END_US), (FIRST_US, 0)],
    ids=["1970-2100", "2100-9999", "0001-1969"],
)
def test_format_then_parse_round_trips_exactly(lo, hi):
    """Every microsecond survives the round trip, far from 1970 too."""
    rng = random.Random(lo)
    stamps = [rng.randrange(lo, hi) for _ in range(20_000)]
    stamps += [lo, hi - 1, rng.randrange(lo, hi) // 1_000_000 * 1_000_000]
    for ts, text in zip(stamps, format_rfc3339_column(stamps)):
        assert parse_rfc3339(text) == ts, text


def test_last_microsecond_of_9999_round_trips():
    last = END_US - 1
    assert format_rfc3339(last) == "9999-12-31T23:59:59.999999Z"
    assert parse_rfc3339("9999-12-31T23:59:59.999999Z") == last


def test_years_before_1000_have_four_digits():
    dt = datetime(410, 9, 11, 17, 26, 40, 90151, tzinfo=timezone.utc)
    ts = (dt - datetime(1970, 1, 1, tzinfo=timezone.utc)) // timedelta(microseconds=1)
    assert format_rfc3339(ts) == "0410-09-11T17:26:40.090151Z"
    assert parse_rfc3339("0410-09-11T17:26:40.090151Z") == ts
    assert format_rfc3339(FIRST_US) == "0001-01-01T00:00:00Z"


@pytest.mark.parametrize("ts", [FIRST_US - 1, END_US, 2**63 - 1, -(2**63), 2**70])
def test_stamps_outside_years_1_to_9999_raise_value_error(ts):
    with pytest.raises(ValueError):
        format_rfc3339(ts)
    with pytest.raises(ValueError):
        format_rfc3339_column([0, ts])


def test_column_renders_each_stamp_as_the_single_formatter_does():
    rng = random.Random(3)
    stamps = [rng.randrange(FIRST_US, END_US) for _ in range(500)]
    stamps += [s // 1_000_000 * 1_000_000 for s in stamps[:100]]
    assert format_rfc3339_column(stamps) == [format_rfc3339(ts) for ts in stamps]
    assert format_rfc3339_column([]) == []


def test_parse_duration_units():
    assert parse_duration("5m") == 300_000_000
    assert parse_duration("250ms") == 250_000
    assert parse_duration("1d") == 86_400_000_000
    with pytest.raises(ValueError):
        parse_duration("5 minutes")
