"""Protocol codec, subject matching and MQTT mapping tests."""

import itertools
import json
import math
import random
import struct
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from paveharvest import wire
from paveharvest.broker import Broker
from paveharvest.client import BusClient
from paveharvest.daqsim import DEFAULT_UNITS
from paveharvest.wire import (
    Frame,
    InvalidSubject,
    InvalidTopic,
    MalformedFrame,
    PayloadError,
    PayloadTooLarge,
    SamplePayload,
    Subject,
    decode_compact_run,
    decode_sample,
    encode_frame,
    mqtt_topic_to_subject,
    parse_frame,
    subject_matches,
)

from helpers import reference_read_frames

TOKEN_ST = st.from_regex(r"[A-Za-z0-9_-]+", fullmatch=True)


def concrete_subjects(max_tokens=6):
    return st.lists(TOKEN_ST, min_size=1, max_size=max_tokens).map(
        lambda toks: Subject(tuple(toks))
    )


def pattern_subjects(max_tokens=6):
    token = st.one_of(TOKEN_ST, st.just("*"))

    def build(toks, tail):
        return Subject(tuple(toks) + ((">",) if tail else ()))

    return st.builds(
        build,
        st.lists(token, min_size=1, max_size=max_tokens),
        st.booleans(),
    )


# --- frame grammar -----------------------------------------------------------


def test_parse_ping():
    assert parse_frame(b"PING\r\n") == (Frame(wire.PING), 6)


def test_parse_pub():
    payload = b'{"ts":1,"v":2.5,1}'
    assert len(payload) == 18
    raw = b"PUB site.65.daq.1.sensor.epc3 18\r\n" + payload + b"\r\n"
    frame, used = parse_frame(raw)
    assert used == len(raw)
    assert frame.kind == wire.PUB
    assert str(frame.subject) == "site.65.daq.1.sensor.epc3"
    assert frame.payload == payload


def test_parse_pub_rejects_wildcard_subject():
    with pytest.raises(MalformedFrame):
        parse_frame(b"PUB site.*.x 2\r\nhi\r\n")


def test_parse_incomplete_returns_none():
    raw = b"PUB a.b 5\r\nhel"
    assert parse_frame(raw) is None
    assert parse_frame(b"PU") is None
    assert parse_frame(b"") is None


def test_parse_unknown_verb():
    with pytest.raises(MalformedFrame):
        parse_frame(b"NOPE x\r\n")


def test_parse_bad_length():
    with pytest.raises(MalformedFrame):
        parse_frame(b"PUB a.b -3\r\n\r\n")
    with pytest.raises(MalformedFrame):
        parse_frame(b"PUB a.b xx\r\n\r\n")


def test_parse_oversize_payload():
    with pytest.raises(PayloadTooLarge):
        parse_frame(b"PUB a.b 2000000\r\n")


def test_parse_payload_missing_terminator():
    with pytest.raises(MalformedFrame):
        parse_frame(b"PUB a.b 2\r\nhiXY")


def test_encode_pong():
    assert encode_frame(Frame(wire.PONG)) == b"PONG\r\n"


def test_encode_sub_pattern():
    f = Frame(wire.SUB, subject=Subject.parse("site.>"), sid=7)
    assert encode_frame(f) == b"SUB site.> 7\r\n"


def test_err_round_trip():
    raw = encode_frame(Frame(wire.ERR, message="slow consumer"))
    assert raw == b"-ERR slow consumer\r\n"
    frame, used = parse_frame(raw)
    assert used == len(raw)
    assert frame.message == "slow consumer"


def frames_strategy():
    concretes = concrete_subjects()
    payloads = st.binary(max_size=64)
    sids = st.integers(min_value=0, max_value=2**32)
    return st.one_of(
        st.just(Frame(wire.PING)),
        st.just(Frame(wire.PONG)),
        st.just(Frame(wire.OK)),
        st.builds(lambda m: Frame(wire.ERR, message=m),
                  st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                          max_size=40)),
        st.builds(lambda s, p: Frame(wire.PUB, subject=s, payload=p), concretes, payloads),
        st.builds(lambda s, i: Frame(wire.SUB, subject=s, sid=i), pattern_subjects(), sids),
        st.builds(lambda i: Frame(wire.UNSUB, sid=i), sids),
        st.builds(lambda s, i, p: Frame(wire.MSG, subject=s, sid=i, payload=p),
                  concretes, sids, payloads),
    )


@given(frames_strategy())
def test_frame_round_trip(frame):
    raw = encode_frame(frame)
    parsed, used = parse_frame(raw)
    assert used == len(raw)
    assert parsed == frame
    assert encode_frame(parsed) == raw  # byte-exact


@given(frames_strategy(), st.binary(max_size=8))
def test_frame_parse_leaves_trailing_bytes(frame, extra):
    raw = encode_frame(frame)
    parsed, used = parse_frame(raw + extra)
    assert used == len(raw)
    assert parsed == frame
    tail = raw + extra + b"x" * 60_000  # a receive buffer of many frames
    for buf in (tail, bytearray(tail)):
        got, got_used = parse_frame(buf)
        assert (got, got_used) == (frame, used)
        assert type(got.payload) is bytes


# --- read-at-a-time parsing ----------------------------------------------------

PARITY_MAX_PAYLOAD = 64  # frames_strategy payloads fit; the oversize items do not


@st.composite
def wire_streams(draw):
    """Encoded frames of every kind, some spelled with double spaces, and
    at times a malformed item: a payload over the maximum or one that is
    not CRLF-terminated."""
    items = []
    for _ in range(draw(st.integers(0, 8))):
        raw = encode_frame(draw(frames_strategy()))
        if draw(st.booleans()):
            line, crlf, rest = raw.partition(b"\r\n")
            raw = line.replace(b" ", b"  ") + crlf + rest
        items.append(raw)
    bad = draw(st.sampled_from([
        None,
        b"PUB a.b %d\r\n" % draw(st.integers(PARITY_MAX_PAYLOAD + 1, 10**6)),
        b"MSG a.b 1 2\r\nhiXY\r\n",
        b"PUB  a.b  2\r\nhi\n",
    ]))
    if bad is not None:
        items.insert(draw(st.integers(0, len(items))), bad)
    return b"".join(items)


def parse_frame_at_a_time(stream):
    """The frames of ``stream`` by one ``parse_frame`` per frame over the
    rest of the stream; the bytes left or the error that ended the parse."""
    frames = []
    while True:
        try:
            got = parse_frame(stream)
        except MalformedFrame as exc:
            return frames, (type(exc), str(exc))
        if got is None:
            return frames, stream
        frame, used = got
        frames.append(frame)
        stream = stream[used:]


def parse_read_at_a_time(stream, cuts):
    """The frames of ``stream`` as a reader that receives it in pieces
    ending at ``cuts`` would take them: an offset walks each read's
    buffer, which is cut once per read."""
    frames, buf = [], b""
    for lo, hi in itertools.pairwise([0, *sorted(set(cuts)), len(stream)]):
        buf += stream[lo:hi]
        pos = 0
        try:
            while (got := parse_frame(buf, pos)) is not None:
                frame, pos = got
                frames.append(frame)
        except MalformedFrame as exc:
            return frames, (type(exc), str(exc))
        buf = wire.unparsed(buf, pos)
    return frames, buf


@settings(max_examples=200, deadline=None)
@given(wire_streams(), st.data())
def test_read_at_a_time_parse_matches_frame_at_a_time(stream, data):
    """Cut anywhere, a stream yields the frames, the error at the same
    frame, and the leftover bytes of the general parse, frame by frame."""
    cuts = data.draw(st.lists(st.integers(0, len(stream)), max_size=12))
    with mock.patch.object(wire, "MAX_PAYLOAD", PARITY_MAX_PAYLOAD):
        assert parse_read_at_a_time(stream, cuts) == parse_frame_at_a_time(stream)


def test_control_line_bound_counts_from_the_start_offset():
    """The bound on a line without CRLF counts the bytes from ``start`` on,
    as it counts a buffer that starts at the frame."""
    done = b"PING\r\n" * 1000  # frames already walked past
    assert parse_frame(done + b"PUB a.b", start=len(done)) is None
    assert parse_frame(done + b"x" * wire.MAX_CONTROL_LINE, start=len(done)) is None
    with pytest.raises(MalformedFrame, match="too long"):
        parse_frame(done + b"x" * (wire.MAX_CONTROL_LINE + 1), start=len(done))


def test_frame_over_many_reads_is_appended_in_place():
    """Once a read takes no frame, later reads append to one buffer in
    place, so a frame that arrives in many pieces costs no more than its
    size to gather."""
    payload = bytes(range(256)) * (wire.MAX_PAYLOAD // 256)
    stream = b"PING\r\nPUB a.b %d\r\n%s\r\nPONG\r\n" % (len(payload), payload)
    frames, copies, buf = [], 0, b""
    for lo in range(0, len(stream), 1460):
        held = buf
        buf += stream[lo : lo + 1460]
        copies += bool(held) and buf is not held  # what was held copied whole
        pos = 0
        while (got := parse_frame(buf, start=pos)) is not None:
            frame, pos = got
            frames.append(frame)
        buf = wire.unparsed(buf, pos)
    assert [f.kind for f in frames] == [wire.PING, wire.PUB, wire.PONG]
    assert frames[1].payload == payload
    assert buf == b""
    assert copies == 1  # the PUB's first piece, left over from the PING's read


# --- the one-pass read ----------------------------------------------------------


def read_all(buf):
    """``wire.read_frames`` over ``buf``, in ``reference_read_frames``'s form."""
    frames = []
    try:
        frames.extend(wire.read_frames(buf))
    except MalformedFrame as exc:
        return frames, (type(exc), str(exc))
    return frames, None


def fuzz_item(rng):
    """One frame as a peer may send it: canonical PUB/MSG and control frames
    most often, else an odd spelling that ``parse_frame`` takes or refuses."""
    subject = rng.choice([b"a", b"a.b", b"site.65.daq.1.sensor.epc0", b"A-b_9.c"])
    payload = rng.randbytes(rng.randint(0, 12))
    n = len(payload)
    canonical = [
        b"PUB %s %d\r\n%s\r\n" % (subject, n, payload),
        b"MSG %s %d %d\r\n%s\r\n" % (subject, rng.randint(0, 2**32), n, payload),
        b"PING\r\n", b"PONG\r\n", b"+OK\r\n", b"-ERR\r\n", b"-ERR no such sid\r\n",
        b"SUB a.*.> 3\r\n", b"UNSUB 3\r\n",
    ]
    odd = [
        b"PUB  %s  %d\r\n%s\r\n" % (subject, n, payload),  # double spaces
        b"PUB\t%s %d\r\n%s\r\n" % (subject, n, payload),  # a tab
        b"MSG %s\n1 %d\r\n%s\r\n" % (subject, n, payload),  # a bare \n
        b"PUB %s 00%d\r\n%s\r\n" % (subject, n, payload),  # leading zeros
        b"MSG %s 007 %08d\r\n%s\r\n" % (subject, n, payload),
        b"PUB %s %d\r\n" % (subject, wire.MAX_PAYLOAD + 1),  # oversize
        b"MSG %s 1 99999999\r\n" % subject,
        b"PUB a.* 1\r\nx\r\n", b"MSG a.> 1 1\r\nx\r\n",  # wildcards
        b"PUB a.\xc3\xa9 1\r\nx\r\n", b"MSG \xff 1 1\r\nx\r\n",  # non-ASCII
        b"PUB a..b 1\r\nx\r\n", b"PUB .a 1\r\nx\r\n",  # empty tokens
        b"PUB a.b 1 1\r\nx\r\n", b"MSG a.b 1\r\nx\r\n",  # a sid too many, too few
        b"PUB a.b 1\r\nxYZ", b"MSG a.b 1 2\r\nhi\n\r",  # no CRLF after the payload
        b"pub a.b 1\r\nx\r\n", b"\r\n", b"HELLO\r\n",
    ]
    return rng.choice(canonical if rng.random() < 0.75 else odd)


@mock.patch.object(wire, "MAX_PAYLOAD", 10)  # some whole frames in a buffer are oversize
def test_read_frames_matches_a_parse_frame_per_frame_at_every_split():
    """Received in two reads cut at any offset, each read's buffer gives the
    frames, end offsets and error of one ``parse_frame`` per frame, and
    every payload is ``bytes``, from a ``bytearray`` buffer too."""
    rng = random.Random(3303)
    for _ in range(150):
        stream = b"".join(fuzz_item(rng) for _ in range(rng.randint(1, 6)))
        for cut in range(len(stream) + 1):
            first = stream[:cut]
            got = read_all(first)
            assert got == reference_read_frames(first), (stream, cut)
            if got[1] is not None:
                continue
            rest = wire.unparsed(first, got[0][-1][3] if got[0] else 0)
            rest += stream[cut:]
            second = read_all(rest)
            assert second == reference_read_frames(rest), (stream, cut)
            for frames, _ in (got, second):
                assert all(type(f[2]) is bytes for f in frames if f[0] is not None)


def test_read_frames_parses_only_what_the_header_rule_does_not_take():
    """Canonical PUB and MSG frames take no ``parse_frame`` call; a control
    frame and the incomplete tail take one each."""
    frames = [
        encode_frame(Frame(wire.PUB, subject=Subject(("a", "b")), payload=b"%d" % i))
        for i in range(50)
    ] + [encode_frame(Frame(wire.MSG, subject=Subject(("c",)), sid=7, payload=b"p"))] * 50
    stream = b"".join(frames[:60]) + b"PING\r\n" + b"".join(frames[60:]) + b"PUB a.b 5\r\nab"
    with mock.patch.object(wire, "parse_frame", wraps=wire.parse_frame) as parse:
        got = list(wire.read_frames(stream))
    assert parse.call_count == 2
    assert len(got) == 101
    assert got[60][2] == Frame(wire.PING)
    assert got[-1] == (Subject(("c",)), 7, b"p", len(stream) - len(b"PUB a.b 5\r\nab"))


# --- the subject intern ------------------------------------------------------


def test_subject_intern_is_bounded():
    assert wire.intern_subject.cache_info().maxsize == wire.SUBJECT_CACHE_SIZE
    for i in range(10_000):
        frame, _ = parse_frame(b"PUB flood.s%d 1\r\nx\r\n" % i)
        assert frame.subject.tokens == ("flood", f"s{i}")
    assert wire.intern_subject.cache_info().currsize <= wire.SUBJECT_CACHE_SIZE


def test_interned_subjects_are_shared():
    first, _ = parse_frame(b"PUB site.65.daq.1 0\r\n\r\n")
    again, _ = parse_frame(b"MSG site.65.daq.1 3 0\r\n\r\n")
    assert again.subject is first.subject
    assert first.subject.raw == b"site.65.daq.1"
    topic = mqtt_topic_to_subject("site/+/daq/#")
    assert mqtt_topic_to_subject("site/+/daq/#") is topic
    assert topic == Subject.parse("site.*.daq.>")


def test_malformed_subject_raises_on_every_repeat():
    for raw in (b"PUB a..b 1\r\nx\r\n", b"PUB a.\xff 1\r\nx\r\n", b"SUB >.a 1\r\n"):
        for _ in range(3):
            with pytest.raises(MalformedFrame):
                parse_frame(raw)
    for _ in range(3):
        with pytest.raises(InvalidTopic):
            mqtt_topic_to_subject("a/#/b")


def test_pattern_bytes_stay_rejected_where_concrete():
    frame, _ = parse_frame(b"SUB a.* 1\r\n")
    assert frame.subject == Subject(("a", "*"))
    for _ in range(2):
        with pytest.raises(MalformedFrame):
            parse_frame(b"PUB a.* 1\r\nx\r\n")
        with pytest.raises(MalformedFrame):
            parse_frame(b"MSG a.* 1 1\r\nx\r\n")


@given(
    st.lists(st.from_regex(r"[A-Za-z0-9_-]+", fullmatch=True), min_size=1, max_size=6),
    st.lists(st.integers(0, 2**32), min_size=1, max_size=3, unique=True),
    st.binary(max_size=200),
)
def test_msg_bytes_match_encode_frame(tokens, sids, payload):
    """The MSG the broker builds is byte-identical to ``encode_frame``'s."""
    b = Broker()
    sent = []
    b._send = lambda session, data: sent.append((session, data))
    subject = wire.intern_subject(".".join(tokens).encode(), True)
    for sid in sids:
        b._sessions[sid] = sid
        b.router.register(sid, sid, Subject(("*",) * len(tokens)))
    b.route(subject, payload)
    assert sorted(sent) == sorted(
        (sid, wire.encode_frame(wire.Frame(wire.MSG, subject=subject, sid=sid, payload=payload)))
        for sid in sids
    )


@given(
    st.lists(st.from_regex(r"[A-Za-z0-9_-]+", fullmatch=True), min_size=1, max_size=6),
    st.binary(max_size=200),
)
def test_publish_bytes_match_encode_frame(tokens, payload):
    """The PUB ``BusClient.publish`` formats is byte-identical to
    ``encode_frame``'s, for a ``Subject`` and for its text alike."""
    client = BusClient.__new__(BusClient)  # no connection: its sends are kept
    sent = []
    client._send_bytes = sent.append
    subject = Subject(tuple(tokens))
    client.publish(subject, payload)
    client.publish(str(subject), payload)
    assert sent == [encode_frame(Frame(wire.PUB, subject=subject, payload=payload))] * 2


# --- subjects ----------------------------------------------------------------


def test_subject_validation():
    with pytest.raises(InvalidSubject):
        Subject(())
    with pytest.raises(InvalidSubject):
        Subject(("a", ""))
    with pytest.raises(InvalidSubject):
        Subject(("a", "b.c"))
    with pytest.raises(InvalidSubject):
        Subject((">", "a"))  # '>' must be last
    Subject(("a", "*", ">"))  # legal pattern


def test_subject_matches_examples():
    assert subject_matches(Subject.parse("site.65.>"),
                           Subject.parse("site.65.daq.1.sensor.epc3"))
    assert not subject_matches(Subject.parse("site.*.sensor"),
                               Subject.parse("site.65.daq"))


def reference_matches(pattern: tuple, subject: tuple) -> bool:
    """Token-by-token recursive matcher, kept independent of the library."""
    if not pattern:
        return not subject
    head, rest = pattern[0], pattern[1:]
    if head == ">":
        return len(subject) >= 1 and not rest
    if not subject:
        return False
    if head == "*" or head == subject[0]:
        return reference_matches(rest, subject[1:])
    return False


@given(concrete_subjects())
def test_matching_reflexive_and_full_wildcard(s):
    assert subject_matches(s, s)
    assert subject_matches(Subject((">",)), s)


@given(pattern_subjects(), concrete_subjects())
def test_matching_agrees_with_reference(pattern, subject):
    assert subject_matches(pattern, subject) == reference_matches(
        pattern.tokens, subject.tokens
    )


def test_matching_exhaustive_small_alphabet():
    """Exhaustive check over <=4-token subjects from a 3-symbol alphabet."""
    alphabet = ("a", "b", "c")
    subjects = [
        toks
        for n in range(1, 5)
        for toks in itertools.product(alphabet, repeat=n)
    ]
    patterns = []
    for n in range(1, 5):
        for toks in itertools.product(alphabet + ("*",), repeat=n):
            patterns.append(toks)
            if n < 5:
                patterns.append(toks[: n - 1] + (">",) if n > 1 else (">",))
    patterns = sorted(set(patterns))
    for ptoks in patterns:
        p = Subject(ptoks)
        star_positions = [i for i, t in enumerate(ptoks) if t == "*"]
        for stoks in subjects:
            got = subject_matches(p, Subject(stoks))
            assert got == reference_matches(ptoks, stoks)
            if got:
                # '*' consumed exactly one token each
                base = len(ptoks) - (1 if ptoks[-1] == ">" else 0)
                assert len(stoks) >= base
                for i in star_positions:
                    assert i < len(stoks)


# --- MQTT mapping ------------------------------------------------------------


def test_mqtt_topic_examples():
    assert str(mqtt_topic_to_subject("site/65/daq/1/sensor/epc3")) == \
        "site.65.daq.1.sensor.epc3"
    assert str(mqtt_topic_to_subject("site/+/sensor/#")) == "site.*.sensor.>"
    with pytest.raises(InvalidTopic):
        mqtt_topic_to_subject("a/b.c/d")


def test_mqtt_topic_rejects():
    for bad in ("", "a//b", "a/#/b", "a/*", "a/>x", "a/b+c"):
        with pytest.raises(InvalidTopic):
            mqtt_topic_to_subject(bad)


def test_mqtt_mapping_injective():
    rng = random.Random(7)
    words = ["site", "65", "daq", "1", "sensor", "epc3", "t_1", "x-y"]
    topics = set()
    while len(topics) < 500:
        n = rng.randint(1, 5)
        levels = [rng.choice(words + ["+"]) for _ in range(n)]
        if rng.random() < 0.3:
            levels.append("#")
        topics.add("/".join(levels))
    subjects = {}
    for topic in topics:
        subj = mqtt_topic_to_subject(topic)
        assert str(subj) not in subjects, "collision breaks injectivity"
        subjects[str(subj)] = topic
        levels = str(subj).replace(".", "/").replace("*", "+").replace(">", "#")
        assert levels == topic  # a swap of characters, undone


# --- sample payloads ---------------------------------------------------------


def test_sample_payload_round_trip():
    p = SamplePayload(ts=1_700_000_000_000_000, v=12.5, seq=9, unit="kPa")
    assert decode_sample(p.encode()) == p


def test_sample_payload_strictness():
    ok = b'{"ts":1,"v":2.5,"seq":0,"unit":"kPa"}'
    decode_sample(ok)
    for bad in (
        b"{}",
        b"nope",
        b'{"ts":1,"v":2.5,"seq":0,"unit":"kPa","x":1}',
        b'{"ts":0,"v":2.5,"seq":0,"unit":"kPa"}',
        b'{"ts":-5,"v":2.5,"seq":0,"unit":"kPa"}',
        b'{"ts":9223372036854775808,"v":2.5,"seq":0,"unit":"kPa"}',  # 2**63: no stored ts
        b'{"ts":1,"v":"2.5","seq":0,"unit":"kPa"}',
        b'{"ts":1,"v":2.5,"seq":-1,"unit":"kPa"}',
        b'{"ts":1,"v":2.5,"seq":0,"unit":7}',
        b'{"ts":true,"v":2.5,"seq":0,"unit":"kPa"}',
        b'{"ts":1,"v":' + b"9" * 400 + b',"seq":0,"unit":"kPa"}',  # beyond float range
        b'{"ts":1,"v":-' + b"9" * 400 + b',"seq":0,"unit":"kPa"}',
    ):
        with pytest.raises(PayloadError):
            decode_sample(bad)


def test_sample_payload_nonfinite_decodes():
    # non-finite v is structurally valid; the ingest layer classifies it
    p = decode_sample(b'{"ts":1,"v":NaN,"seq":0,"unit":"kPa"}')
    assert not math.isfinite(p.v)


def assert_compact_agrees(payload):
    """Where ``decode_compact_run`` takes ``payload`` alone, it gives the
    ts, the bits of v and the seq that ``decode_sample`` gives; where
    ``decode_sample`` raises PayloadError, it gives None. Any other
    exception propagates. Returns whether the run decoder took it."""
    got = decode_compact_run([payload])
    try:
        p = decode_sample(payload)
    except PayloadError:
        assert got is None, payload
        return False
    if got is None:
        return False
    ((ts, v, seq),) = got
    assert (ts, struct.pack("<d", v), seq, type(v)) == (
        p.ts, struct.pack("<d", p.v), p.seq, type(p.v)
    ), payload
    return True


NUMBER_TEXT = st.one_of(
    st.from_regex(r"-?[0-9]{1,24}(\.[0-9]{0,24})?([eE][-+]?[0-9]{0,5})?", fullmatch=True),
    st.from_regex(r"-?(0|[1-9][0-9]{0,19})(\.[0-9]{1,22})?([eE][-+]?[0-9]{1,4})?", fullmatch=True),
    st.integers(-(2**70), 2**70).map(str),
    st.floats(allow_nan=False).map(repr),
    st.floats().map(json.dumps),
    st.sampled_from(
        ["-0", "-0.0", "0", "0.0", "-0e0", "NaN", "Infinity", "-Infinity", "9" * 400,
         "-" + "9" * 400, "1e999", "1e-999", "007", "1.", ".5", "+1", "0x10", "1_0",
         "true", "null", '"2.5"', "[]", "1e", "--1"]
    ),
)

UNIT_TEXT = st.one_of(
    st.text().map(json.dumps),
    st.text().map(lambda t: json.dumps(t, ensure_ascii=False)),
    st.text(alphabet=st.characters(max_codepoint=0x7F)).map(lambda t: '"' + t + '"'),
    st.sampled_from(['"k\\"Pa"', '"k\\\\Pa"', '"\\u006bPa"', '"\\n"', '"\\ud800"', '"\x7f"',
                     '"\t"', '"é"', "7", "null", '""']),
)

CANONICAL_KEYS = ("ts", "v", "seq", "unit")
UNITS = sorted(DEFAULT_UNITS.values())


@st.composite
def sample_payloads(draw):
    """Payloads near the compact form: mostly its four keys in order, with
    reordered, duplicate, missing or extra keys, whitespace, and a few
    bytes that are not UTF-8."""
    odd = st.integers(0, 3).map(lambda n: n == 0)  # a quarter of the fields stray
    values = {
        "ts": draw(NUMBER_TEXT if draw(odd) else st.integers(1, 10**19).map(str)),
        "v": draw(NUMBER_TEXT),
        "seq": draw(NUMBER_TEXT if draw(odd) else st.integers(0, 10**19).map(str)),
        "unit": draw(UNIT_TEXT if draw(odd) else st.sampled_from(UNITS).map(json.dumps)),
    }
    keys = list(CANONICAL_KEYS)
    shape = draw(st.sampled_from(["compact"] * 8 + ["reorder", "duplicate", "missing", "extra"]))
    if shape == "reorder":
        keys = draw(st.permutations(keys))
    elif shape == "duplicate":
        keys.insert(draw(st.integers(0, 4)), draw(st.sampled_from(CANONICAL_KEYS)))
    elif shape == "missing":
        keys.remove(draw(st.sampled_from(CANONICAL_KEYS)))
    elif shape == "extra":
        keys.append("x")
        values["x"] = "1"
    space = draw(st.sampled_from([""] * 8 + [" ", "\n", "\t"]))
    body = ("," + space).join(f'"{k}":{space}{values[k]}' for k in keys)
    text = draw(st.sampled_from(["{%s}"] * 8 + [" {%s}", "{%s}\n", "{%s} x"])) % body
    raw = text.encode("utf-8", "surrogatepass")
    if draw(st.integers(0, 19)) == 0:
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x00", b"\r\n"])) + raw[at:]
    return raw


@settings(max_examples=1000, deadline=None)
@given(sample_payloads())
def test_decode_compact_run_agrees_with_decode_sample(payload):
    """The run decoder returns what the strict JSON rule would, to the bit
    of v, and None wherever that rule raises PayloadError."""
    assert_compact_agrees(payload)


def test_decode_compact_run_agrees_with_decode_sample_on_edge_numbers():
    edges = ["-0", "-0.0", "0", "-0e0", "0e-0", "1E+3", "1e-05", "5e-324", "-5e-324",
             "1.7976931348623157e+308", "1e308", "1e309", "-1e309", "2.5e-400",
             "9" * 18, "9" * 19, "-" + "9" * 18, "1" + "0" * 17 + ".5",
             "0." + "1" * 20, "0." + "1" * 21, "1e999", "1e1000", "123456789012345678.5",
             "00", "01", "-01", "1.e5", "1e+", "NaN", "-NaN", "Infinity", "-Infinity"]
    ints = ["1", "9" * 18, "9" * 19, str(2**63 - 1), str(2**63), "0", "-1", "01", "1.0", "1e3"]
    taken = sum(
        assert_compact_agrees(b'{"ts":%s,"v":%s,"seq":%s,"unit":"kPa"}' % (
            ts.encode(), v.encode(), seq.encode()))
        for v, ts, seq in itertools.product(edges, ints, ints)
    )
    assert taken == 120  # 2 ts, 3 seq and 20 v spellings in the compact form


@settings(max_examples=500)
@given(
    st.integers(1, 10**18 - 1),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 10**18 - 1),
    st.sampled_from(UNITS),
)
def test_compact_fast_path_takes_every_encoded_sample(ts, v, seq, unit):
    """Every payload the project's producer writes for a finite value is
    taken by the run decoder, which gives the sample encoded, -0.0 included."""
    got = decode_compact_run([SamplePayload(ts=ts, v=v, seq=seq, unit=unit).encode()])
    assert got == [(ts, v, seq)]
    assert struct.pack("<d", got[0][1]) == struct.pack("<d", v)


def test_token_with_trailing_newline_is_rejected():
    """A token must match the grammar whole; ``$`` alone would let a final
    newline through, and encode_frame would then split the control line."""
    with pytest.raises(InvalidSubject):
        Subject.parse("site.65\n")
    with pytest.raises(InvalidSubject):
        wire.intern_subject(b"a.b\n", True)
    with pytest.raises(InvalidTopic):
        mqtt_topic_to_subject("a/b\n")
