"""Timestamp and duration helpers shared by the store, connector and CLI.

All timestamps in the toolkit are integer microseconds since the Unix
epoch, UTC.
"""

from __future__ import annotations

import re
from datetime import datetime, timedelta, timezone

import numpy as np

US_PER_SECOND = 1_000_000

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_ONE_US = timedelta(microseconds=1)
# the stamps of years 1 to 9999, the years RFC 3339 can write
_FIRST_US = (datetime.min.replace(tzinfo=timezone.utc) - _EPOCH) // _ONE_US
_LAST_US = (datetime.max.replace(tzinfo=timezone.utc) - _EPOCH) // _ONE_US

_DURATION_RE = re.compile(r"^(\d+)(us|ms|s|m|h|d)$")

_DURATION_US = {
    "us": 1,
    "ms": 1_000,
    "s": US_PER_SECOND,
    "m": 60 * US_PER_SECOND,
    "h": 3_600 * US_PER_SECOND,
    "d": 86_400 * US_PER_SECOND,
}


def parse_rfc3339(text: str) -> int:
    """Parse an RFC 3339 timestamp into microseconds since the epoch (UTC).

    Accepts a trailing ``Z`` or an explicit numeric offset; naive
    timestamps are rejected. The stamp is exact in every year, since it is
    counted in integer microseconds, not through a float of seconds.
    """
    s = text.strip()
    if s.endswith(("Z", "z")):
        s = s[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(s)
    except ValueError as exc:
        raise ValueError(f"not an RFC 3339 timestamp: {text!r}") from exc
    if dt.tzinfo is None:
        raise ValueError(f"timestamp must carry a UTC offset: {text!r}")
    return (dt - _EPOCH) // _ONE_US


def format_rfc3339(ts_us: int) -> str:
    """Render microseconds-since-epoch as RFC 3339 UTC, as
    :func:`format_rfc3339_column` renders each of its stamps."""
    return format_rfc3339_column([ts_us])[0]


def format_rfc3339_column(ts_us) -> list[str]:
    """Render a column of microseconds-since-epoch as RFC 3339 UTC.

    Sub-second digits are emitted only when nonzero, so whole seconds stay
    compact (``2020-11-23T10:30:00Z``). Years have four digits
    (``0410-09-11T17:26:40.090151Z``); a stamp outside years 1 to 9999
    raises :class:`ValueError`.
    """
    try:
        ts = np.asarray(ts_us, dtype=np.int64)
    except OverflowError:
        raise ValueError("timestamp outside years 1 to 9999") from None
    if len(ts) and (ts.min() < _FIRST_US or ts.max() > _LAST_US):
        raise ValueError("timestamp outside years 1 to 9999")
    stamps = ts.astype("datetime64[us]")
    text = np.datetime_as_string(stamps, unit="us", timezone="UTC")
    whole = ts % US_PER_SECOND == 0
    text[whole] = np.datetime_as_string(stamps[whole], unit="s", timezone="UTC")
    return text.tolist()


def parse_duration(text: str) -> int:
    """Parse ``<n><unit>`` (us, ms, s, m, h, d) into microseconds."""
    m = _DURATION_RE.match(text.strip())
    if not m:
        raise ValueError(f"not a duration (expect e.g. 30s, 5m, 1h): {text!r}")
    return int(m.group(1)) * _DURATION_US[m.group(2)]


def now_us() -> int:
    """Current wall clock in microseconds since the epoch."""
    import time

    return time.time_ns() // 1_000
