"""Byte-level pub/sub protocol: subjects, frames and sample payloads.

Text-line frames, CRLF-terminated, with an explicit payload byte length:

    PUB <subject> <len>\\r\\n<len bytes>\\r\\n
    SUB <subject> <sid>\\r\\n
    UNSUB <sid>\\r\\n
    MSG <subject> <sid> <len>\\r\\n<len bytes>\\r\\n
    PING\\r\\n / PONG\\r\\n / +OK\\r\\n / -ERR <text>\\r\\n

Subjects are dot-separated token paths. In patterns, ``*`` matches exactly
one token and a trailing ``>`` matches one or more remaining tokens.
Everything here is pure functions over byte buffers. The one shared
state is the subject intern, a bounded cache of immutable subjects.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass, field

MAX_PAYLOAD = 1 << 20  # the largest payload a frame may carry, on every side
MAX_CONTROL_LINE = 4096
SUBJECT_CACHE_SIZE = 4096  # interned subjects; least recently used go first

CRLF = b"\r\n"

_TOKEN_RE = re.compile(r"[A-Za-z0-9_-]+")

#: Frame kinds, matching the wire verbs.
PUB = "PUB"
SUB = "SUB"
UNSUB = "UNSUB"
MSG = "MSG"
PING = "PING"
PONG = "PONG"
OK = "OK"
ERR = "ERR"


class WireError(Exception):
    """Base for protocol-level failures."""


class MalformedFrame(WireError):
    """Unknown verb, bad length field, or an illegal subject for the verb."""


class PayloadTooLarge(MalformedFrame):
    """Payload length exceeds ``MAX_PAYLOAD``."""


class InvalidSubject(WireError):
    """Subject text violates the token grammar or wildcard placement."""


class InvalidTopic(WireError):
    """MQTT topic cannot be mapped onto a subject."""


class PayloadError(WireError):
    """Sample payload JSON does not obey the schema."""


@dataclass(frozen=True)
class Subject:
    """Hierarchical routing address: an ordered tuple of tokens.

    A concrete subject uses only charset tokens (``A-Z a-z 0-9 _ -``).
    Pattern subjects may additionally use ``*`` for any single token and,
    as the final token only, ``>`` for the remaining tail.
    """

    tokens: tuple[str, ...]
    #: The wire spelling, ``b"a.b.c"``; unique per subject, since no token holds a dot.
    raw: bytes = field(init=False, repr=False, compare=False)
    #: Whether a token is ``*`` or ``>``; ``BusClient.publish`` reads it for
    #: every message. Set with ``raw`` in ``__post_init__``: an attribute
    #: first set later, as a cached property is, slows every attribute read
    #: of the instance (``raw`` took 44 against 27 ns).
    is_pattern: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.tokens:
            raise InvalidSubject("subject needs at least one token")
        last = len(self.tokens) - 1
        for i, tok in enumerate(self.tokens):
            if tok == "*":
                continue
            if tok == ">":
                if i != last:
                    raise InvalidSubject("'>' is only legal as the last token")
                continue
            if not _TOKEN_RE.fullmatch(tok):
                raise InvalidSubject(f"bad subject token: {tok!r}")
        object.__setattr__(self, "raw", ".".join(self.tokens).encode())
        object.__setattr__(self, "is_pattern", "*" in self.tokens or ">" in self.tokens)

    @classmethod
    def parse(cls, text: str) -> "Subject":
        return cls(tuple(text.split(".")))

    def __str__(self) -> str:
        return ".".join(self.tokens)


@functools.lru_cache(maxsize=SUBJECT_CACHE_SIZE)
def intern_subject(raw: bytes, concrete: bool) -> Subject:
    """The subject spelled ``raw``, shared by every call with the same arguments.

    Raises :class:`InvalidSubject` on a bad spelling, and on a wildcard if
    ``concrete``; a failure is not cached, so it raises again on a repeat.
    """
    try:
        subject = Subject.parse(raw.decode("ascii"))
    except UnicodeDecodeError as exc:
        raise InvalidSubject(f"bad subject: {raw!r}") from exc
    if concrete and subject.is_pattern:
        raise InvalidSubject(f"wildcard forbidden here: {subject}")
    return subject


def subject_matches(pattern: Subject, subject: Subject) -> bool:
    """True iff ``subject`` (concrete) is matched by ``pattern``.

    Tokens align left to right; ``*`` consumes exactly one token and a
    trailing ``>`` consumes one or more remaining tokens.
    """
    pt, st = pattern.tokens, subject.tokens
    for i, tok in enumerate(pt):
        if tok == ">":
            return len(st) > i  # at least one token left
        if i >= len(st):
            return False
        if tok == "*":
            continue
        if tok != st[i]:
            return False
    return len(pt) == len(st)


def mqtt_topic_to_subject(topic: str) -> Subject:
    """Map an MQTT topic onto a subject: slash to dot, ``+`` to ``*``, final ``#`` to ``>``."""
    # No topic level may hold '.', '*' or '>'. Without them the mapping is a
    # swap of characters, and the subject grammar rejects every bad level.
    if "." in topic or "*" in topic or ">" in topic:
        raise InvalidTopic(f"bad topic: {topic!r}")
    text = topic.replace("/", ".").replace("+", "*").replace("#", ">")
    try:
        return intern_subject(text.encode(), False)
    except (InvalidSubject, UnicodeError) as exc:
        raise InvalidTopic(f"bad topic: {topic!r}") from exc


@dataclass
class Frame:
    """One wire-protocol unit.

    Field usage per kind: ``subject`` on PUB/SUB/MSG, ``sid`` on
    SUB/UNSUB/MSG, ``payload`` on PUB/MSG, ``message`` on ERR.
    """

    kind: str
    subject: Subject | None = None
    sid: int | None = None
    payload: bytes = b""
    message: str = ""


def encode_frame(frame: Frame) -> bytes:
    """Serialize a frame; assumes the frame invariants hold."""
    k = frame.kind
    if k == PING:
        return b"PING\r\n"
    if k == PONG:
        return b"PONG\r\n"
    if k == OK:
        return b"+OK\r\n"
    if k == ERR:
        return b"-ERR " + frame.message.encode() + CRLF
    if k == PUB:
        return b"PUB %s %d\r\n%s\r\n" % (frame.subject.raw, len(frame.payload), frame.payload)
    if k == SUB:
        return b"SUB %s %d\r\n" % (frame.subject.raw, frame.sid)
    if k == UNSUB:
        return b"UNSUB %d\r\n" % frame.sid
    if k == MSG:
        return b"MSG %s %d %d\r\n%s\r\n" % (
            frame.subject.raw, frame.sid, len(frame.payload), frame.payload
        )
    raise ValueError(f"unknown frame kind: {k!r}")


def _parse_int(token: bytes, what: str) -> int:
    if not token.isdigit():
        raise MalformedFrame(f"bad {what}: {token!r}")
    return int(token)


def _parse_subject(token: bytes, concrete: bool) -> Subject:
    try:
        return intern_subject(token, concrete)
    except InvalidSubject as exc:
        raise MalformedFrame(str(exc)) from exc


def parse_frame(buf: bytes | bytearray, start: int = 0) -> tuple[Frame, int] | None:
    """Parse the complete frame that starts at offset ``start`` of ``buf``.

    Returns ``(frame, end)``, where ``end`` is the offset just past the
    frame (the bytes consumed when ``start`` is 0), or ``None`` when more
    bytes are needed. ``start`` must be a frame boundary; the bytes before
    it are not read. Raises :class:`MalformedFrame` (or
    :class:`PayloadTooLarge`) on garbage.
    """
    # Search and slice in place: the buffer can hold many frames.
    eol = buf.find(CRLF, start)
    if eol < 0:
        if len(buf) - start > MAX_CONTROL_LINE:
            raise MalformedFrame("control line too long")
        return None
    line = bytes(buf[start:eol])
    consumed = eol + 2
    parts = line.split()
    verb = parts[0] if parts else b""

    # PUB and MSG first: they are nearly every frame. No line they take is
    # one of the fixed lines below.
    if verb == b"MSG" or verb == b"PUB":
        want = 3 if verb == b"PUB" else 4
        if len(parts) != want:
            raise MalformedFrame(f"{verb.decode()} expects {want - 1} arguments")
        subject = _parse_subject(parts[1], True)
        sid = _parse_int(parts[2], "sid") if verb == b"MSG" else None
        length = _parse_int(parts[-1], "payload length")
        if length > MAX_PAYLOAD:
            raise PayloadTooLarge(f"payload of {length} bytes exceeds {MAX_PAYLOAD}")
        end = consumed + length + 2
        if len(buf) < end:
            return None
        payload = bytes(buf[consumed : consumed + length])
        if buf[consumed + length : end] != CRLF:
            raise MalformedFrame("payload not CRLF-terminated")
        kind = PUB if verb == b"PUB" else MSG
        return Frame(kind, subject, sid, payload), end

    if line == b"PING":
        return Frame(PING), consumed
    if line == b"PONG":
        return Frame(PONG), consumed
    if line == b"+OK":
        return Frame(OK), consumed
    if line == b"-ERR" or line.startswith(b"-ERR "):
        text = line[5:].decode("utf-8", "replace")
        return Frame(ERR, message=text), consumed

    if not parts:
        raise MalformedFrame("empty control line")

    if verb == b"SUB":
        if len(parts) != 3:
            raise MalformedFrame("SUB expects 2 arguments")
        subject = _parse_subject(parts[1], False)
        return Frame(SUB, subject=subject, sid=_parse_int(parts[2], "sid")), consumed

    if verb == b"UNSUB":
        if len(parts) != 2:
            raise MalformedFrame("UNSUB expects 1 argument")
        return Frame(UNSUB, sid=_parse_int(parts[1], "sid")), consumed

    raise MalformedFrame(f"unknown verb: {verb!r}")


def unparsed(buf: bytes | bytearray, end: int) -> bytes | bytearray:
    """The bytes of ``buf`` from offset ``end`` on, for a reader that
    appends its next read to them with ``+=``.

    Where ``end`` is 0, no frame was taken from the buffer since the last
    read. The bytes are then kept as a ``bytearray``, so a frame that
    arrives over many reads is appended in place rather than copied whole
    on each read.
    """
    if end or not buf:
        return bytes(buf[end:])
    return buf if isinstance(buf, bytearray) else bytearray(buf)


@dataclass
class SamplePayload:
    """One averaged sensor reading as carried on the bus.

    ``ts`` is the event timestamp in integer microseconds UTC; ``v`` the
    measured value in the sensor's engineering unit; ``seq`` a per-sensor
    monotone sequence number.
    """

    ts: int
    v: float
    seq: int
    unit: str

    def encode(self) -> bytes:
        return json.dumps(
            {"ts": self.ts, "v": self.v, "seq": self.seq, "unit": self.unit},
            separators=(",", ":"),
        ).encode()


_SAMPLE_FIELDS = {"ts", "v", "seq", "unit"}

#: The compact form :meth:`SamplePayload.encode` writes: keys in order, no
#: whitespace, ``ts``/``seq`` canonical with at most 18 digits (below 2**63
#: and the ``int`` digit limit), ``v`` a bounded JSON number (group 3 holds
#: its fraction and exponent) and ``unit`` printable ASCII with no escape.
_COMPACT_SAMPLE = re.compile(
    rb'\{"ts":([1-9][0-9]{0,17}),'
    rb'"v":(-?(?:0|[1-9][0-9]{0,17})((?:\.[0-9]{1,20})?(?:[eE][-+]?[0-9]{1,3})?)),'
    rb'"seq":(0|[1-9][0-9]{0,17}),'
    rb'"unit":"([ !#-\[\]-~]*)"\}'
)


def decode_sample(payload: bytes) -> SamplePayload:
    """Strictly decode a sample payload.

    Exactly the fields ts/v/seq/unit are allowed; wrong types, extra or
    missing fields, non-positive ts or negative seq raise
    :class:`PayloadError`. A non-finite ``v`` decodes successfully so the
    caller can classify it separately.

    The compact form is decoded by one regex match; any other payload goes
    through ``json.loads``, with the same result.
    """
    m = _COMPACT_SAMPLE.fullmatch(payload)
    if m is not None:
        ts, v, tail, seq, unit = m.groups()
        # An integer v converts as json.loads + float() would: -0 gives 0.0.
        return SamplePayload(
            int(ts), float(v) if tail else float(int(v)), int(seq), unit.decode("ascii")
        )
    try:
        obj = json.loads(payload)
    except (ValueError, UnicodeDecodeError) as exc:
        raise PayloadError(f"payload is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or set(obj) != _SAMPLE_FIELDS:
        raise PayloadError("payload must have exactly the fields ts, v, seq, unit")
    ts, v, seq, unit = obj["ts"], obj["v"], obj["seq"], obj["unit"]
    if isinstance(ts, bool) or not isinstance(ts, int) or ts <= 0:
        raise PayloadError(f"ts must be a positive integer, got {ts!r}")
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise PayloadError(f"v must be a number, got {v!r}")
    if isinstance(seq, bool) or not isinstance(seq, int) or seq < 0:
        raise PayloadError(f"seq must be a nonnegative integer, got {seq!r}")
    if not isinstance(unit, str):
        raise PayloadError(f"unit must be a string, got {unit!r}")
    try:
        v = float(v)
    except OverflowError as exc:  # an integer beyond float range
        raise PayloadError(f"v is out of float range: {exc}") from exc
    return SamplePayload(ts=ts, v=v, seq=seq, unit=unit)
