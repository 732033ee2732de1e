"""Broker routing and session behavior tests."""

import itertools
import random
import socket
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from paveharvest import broker as broker_mod
from paveharvest import wire
from paveharvest.broker import Broker, SubjectRouter
from paveharvest.client import BusClient, BusError
from paveharvest.wire import Subject


@pytest.fixture
def quiet_pings(monkeypatch):
    """Sessions idle for the length of a test are not pinged."""
    monkeypatch.setattr(broker_mod, "DEFAULT_PING_INTERVAL", 60.0)


@pytest.fixture
def small_queue(monkeypatch):
    """A peer holds a session back from 16 pending frames on."""
    monkeypatch.setattr(broker_mod, "DEFAULT_QUEUE_FRAMES", 16)


@pytest.fixture
def broker(quiet_pings):
    b = Broker().start()
    yield b
    b.stop()


def make_client(broker, **kw):
    return BusClient(*broker.address, **kw)


def wait_for_sessions(broker, n, timeout=5.0):
    """True once the broker holds exactly ``n`` sessions, within ``timeout``."""
    deadline = time.monotonic() + timeout
    while broker.session_count() != n and time.monotonic() < deadline:
        time.sleep(0.01)
    return broker.session_count() == n


# --- routing table -----------------------------------------------------------


def test_route_single_match():
    r = SubjectRouter()
    r.register(1, 1, Subject.parse("site.>"))
    assert r.route(Subject.parse("site.65.s1")) == [(1, 1)]


def test_route_two_matches():
    r = SubjectRouter()
    r.register(1, 1, Subject.parse("site.*.s1"))
    r.register(2, 4, Subject.parse("site.65.>"))
    got = sorted(r.route(Subject.parse("site.65.s1")))
    assert got == [(1, 1), (2, 4)]


def test_route_duplicate_sid_rejected():
    r = SubjectRouter()
    r.register(1, 1, Subject.parse("a"))
    with pytest.raises(ValueError):
        r.register(1, 1, Subject.parse("b"))


def random_pattern(rng):
    words = ["site", "65", "69", "daq", "1", "2", "sensor", "epc3", "scg1"]
    n = rng.randint(1, 4)
    toks = [rng.choice(words + ["*"]) for _ in range(n)]
    if rng.random() < 0.3:
        toks.append(">")
    return Subject(tuple(toks))


def random_concrete(rng):
    words = ["site", "65", "69", "daq", "1", "2", "sensor", "epc3", "scg1"]
    return Subject(tuple(rng.choice(words) for _ in range(rng.randint(1, 5))))


def test_route_matches_quadratic_reference():
    rng = random.Random(11)
    r = SubjectRouter()
    subs = []
    for i in range(100):
        session_id, sid = rng.randint(1, 10), i
        pattern = random_pattern(rng)
        r.register(session_id, sid, pattern)
        subs.append((session_id, sid, pattern))
    for _ in range(100):
        subject = random_concrete(rng)
        want = sorted(
            (session_id, sid)
            for session_id, sid, pattern in subs
            if wire.subject_matches(pattern, subject)
        )
        assert sorted(r.route(subject)) == want


# A small alphabet, so that patterns often match and every table change hits
# subjects whose routes are cached.
ROUTER_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("register"), st.integers(1, 3), st.integers(1, 3),
                  st.lists(st.sampled_from(["a", "b", "*"]), min_size=1, max_size=3),
                  st.booleans()),
        st.tuples(st.just("unregister"), st.integers(1, 3), st.integers(1, 3)),
        st.tuples(st.just("drop_session"), st.integers(1, 3)),
    ),
    max_size=40,
)
SMALL_SUBJECTS = [
    Subject(toks) for n in (1, 2, 3) for toks in itertools.product(("a", "b"), repeat=n)
]


@given(ROUTER_OPS)
@settings(max_examples=200, deadline=None)
def test_route_cache_follows_table_changes(ops):
    """Routes stay exact while subscriptions come and go between them."""
    r = SubjectRouter()
    subs: dict[tuple[int, int], Subject] = {}
    for op in ops:
        if op[0] == "register":
            _, session_id, sid, toks, tail = op
            pattern = Subject(tuple(toks) + ((">",) if tail else ()))
            if (session_id, sid) in subs:
                with pytest.raises(ValueError):
                    r.register(session_id, sid, pattern)
            else:
                r.register(session_id, sid, pattern)
                subs[(session_id, sid)] = pattern
        elif op[0] == "unregister":
            _, session_id, sid = op
            assert r.unregister(session_id, sid) == ((session_id, sid) in subs)
            subs.pop((session_id, sid), None)
        else:
            r.drop_session(op[1])
            subs = {key: p for key, p in subs.items() if key[0] != op[1]}
        for subject in SMALL_SUBJECTS:
            want = sorted(key for key, p in subs.items() if wire.subject_matches(p, subject))
            for _ in range(2):  # the second from the cache
                got = r.route(subject)
                assert sorted(got) == want
                got.append((99, 99))  # the caller's list is its own


def test_route_results_are_copies():
    b = Broker()
    b._sessions[1] = object()
    b._send = lambda session, data: None
    b.router.register(1, 1, Subject.parse("a.>"))
    subject = Subject.parse("a.b")
    b.route(subject, b"x").clear()
    b.router.route(subject).append((2, 2))
    assert b.router.route(subject) == [(1, 1)]
    assert b.route(subject, b"x") == [(1, 1)]


def test_warm_route_does_not_scan_subscriptions(monkeypatch):
    r = SubjectRouter()
    for i in range(500):
        r.register(i % 7, i, Subject.parse(f"site.{i}.>"))
    subject = Subject.parse("site.42.daq.1")
    assert r.route(subject) == [(42 % 7, 42)]
    calls = []
    real = wire.subject_matches

    def counting(pattern, subj):
        calls.append(pattern)
        return real(pattern, subj)

    monkeypatch.setattr(wire, "subject_matches", counting)
    assert r.route(subject) == [(42 % 7, 42)]
    assert calls == []
    r.register(8, 1, Subject.parse("site.*.daq.>"))  # a change rescans once
    assert sorted(r.route(subject)) == [(42 % 7, 42), (8, 1)]
    assert len(calls) == 501


def test_route_cache_is_bounded():
    r = SubjectRouter()
    r.register(1, 1, Subject.parse("s.>"))
    for i in range(3 * broker_mod.ROUTE_CACHE_SIZE):
        assert r.route(Subject(("s", str(i)))) == [(1, 1)]
        assert len(r._routes) <= broker_mod.ROUTE_CACHE_SIZE


# --- live sessions -----------------------------------------------------------


def test_ping_pong(broker):
    with socket.create_connection(broker.address, timeout=5) as sock:
        sock.sendall(b"PING\r\n")
        assert sock.recv(16) == b"PONG\r\n"


def test_malformed_verb_gets_err_and_close(broker):
    with socket.create_connection(broker.address, timeout=5) as sock:
        sock.sendall(b"BOGUS things\r\n")
        data = b""
        while not data.endswith(b"\r\n"):
            chunk = sock.recv(256)
            if not chunk:
                break
            data += chunk
        assert data.startswith(b"-ERR")
        assert sock.recv(256) == b""  # closed


def test_publish_subscribe_fanout(broker):
    got = []
    done = threading.Event()

    def on_msg(messages):
        got.extend((str(subject), bytes(payload)) for subject, payload in messages)
        done.set()

    with make_client(broker) as sub, make_client(broker) as pub:
        sub.subscribe("site.>", on_msg)
        pub.publish("site.65.s1", b"hello")
        assert done.wait(5)
    assert got == [("site.65.s1", b"hello")]


def test_no_crosstalk(broker):
    wrong = []
    right = threading.Event()

    with make_client(broker) as sub, make_client(broker) as pub:
        sub.subscribe("site.99.>", lambda messages: wrong.extend(str(s) for s, _ in messages))
        sub.subscribe("site.65.>", lambda messages: right.set())
        pub.publish("site.65.s1", b"x")
        assert right.wait(5)
    assert wrong == []


def test_unsubscribe_stops_delivery(broker):
    hits = []
    with make_client(broker) as sub, make_client(broker) as pub:
        sid = sub.subscribe("a.b", lambda messages: hits.extend(p for _, p in messages))
        sub.unsubscribe(sid)
        pub.publish("a.b", b"1")
        marker = threading.Event()
        sub.subscribe("marker", lambda messages: marker.set())
        pub.publish("marker", b"")
        assert marker.wait(5)
    assert hits == []


def test_order_preserved_per_publisher(broker):
    """Sequence-stamped payloads from each publisher arrive in order."""
    n_publishers, n_msgs = 5, 200
    received: dict[bytes, list[int]] = {}
    lock = threading.Lock()
    total = threading.Semaphore(0)

    def on_msg(messages):
        with lock:
            for _, payload in messages:
                who, seq = payload.split(b":")
                received.setdefault(who, []).append(int(seq))
        total.release(len(messages))

    with make_client(broker) as sub:
        sub.subscribe("feed.>", on_msg)

        def publish_all(idx):
            with make_client(broker) as pub:
                for seq in range(n_msgs):
                    pub.publish(f"feed.p{idx}", b"p%d:%d" % (idx, seq))

        threads = [
            threading.Thread(target=publish_all, args=(i,))
            for i in range(n_publishers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for _ in range(n_publishers * n_msgs):
            assert total.acquire(timeout=10)

    assert len(received) == n_publishers
    for seqs in received.values():
        assert seqs == sorted(seqs) == list(range(n_msgs))


def test_concurrent_sessions_no_duplicates(broker):
    """Multiple publishers, one subscriber: every message exactly once."""
    counts: dict[bytes, int] = {}
    lock = threading.Lock()
    total = threading.Semaphore(0)

    def on_msg(messages):
        with lock:
            for _, payload in messages:
                counts[bytes(payload)] = counts.get(bytes(payload), 0) + 1
        total.release(len(messages))

    n_publishers, n_msgs = 10, 100
    with make_client(broker) as sub:
        sub.subscribe("load.>", on_msg)

        def work(idx):
            with make_client(broker) as pub:
                for seq in range(n_msgs):
                    pub.publish("load.x", b"%d/%d" % (idx, seq))

        threads = [threading.Thread(target=work, args=(i,)) for i in range(n_publishers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for _ in range(n_publishers * n_msgs):
            assert total.acquire(timeout=10)
    assert len(counts) == n_publishers * n_msgs
    assert all(c == 1 for c in counts.values())


def test_fifty_sessions_publish_1k_each(monkeypatch):
    """50 concurrent sessions x 1k msgs: all 50k routed, none duplicated."""
    n_pub, n_msg = 50, 1000
    per_publisher: dict[bytes, list[int]] = {}
    lock = threading.Lock()
    done = threading.Semaphore(0)

    def on_msg(messages):
        with lock:
            for _, payload in messages:
                who, seq = payload.split(b":")
                per_publisher.setdefault(who, []).append(int(seq))
        done.release(len(messages))

    monkeypatch.setattr(broker_mod, "DEFAULT_PING_INTERVAL", 120.0)
    with Broker() as broker:
        with make_client(broker) as sub:
            sub.subscribe("bulk.>", on_msg)

            def work(idx):
                with make_client(broker) as pub:
                    for seq in range(n_msg):
                        pub.publish("bulk.x", b"%d:%d" % (idx, seq))

            threads = [threading.Thread(target=work, args=(i,)) for i in range(n_pub)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for _ in range(n_pub * n_msg):
                assert done.acquire(timeout=120)
    assert len(per_publisher) == n_pub
    for seqs in per_publisher.values():
        assert seqs == list(range(n_msg))  # complete, ordered, no duplicates


def test_slow_subscriber_paces_publisher_without_loss(small_queue, quiet_pings):
    """A reading but slow subscriber stalls its publisher; it is not evicted."""
    n_msg = 2000
    got = []
    done = threading.Event()

    def on_msg(messages):
        for _, payload in messages:
            time.sleep(0.0005)  # slower than the publisher
            got.append(int(payload))
        if len(got) == n_msg:
            done.set()

    with Broker() as b:
        with make_client(b) as sub, make_client(b) as pub:
            sub.subscribe("pace.>", on_msg)
            for seq in range(n_msg):
                pub.publish("pace.x", b"%d" % seq)
                if seq % 100 == 0:
                    sub.ping()  # its PONG joins a queue held full by the flood
            assert done.wait(timeout=30)
            assert not sub.closed
    assert got == list(range(n_msg))


def test_session_held_mid_read_resumes_at_the_next_frame(small_queue):
    """A read of many PUBs stops right after the one that fills the
    subscriber's queue and keeps the rest from the next frame on; once the
    subscriber drains, the rest is routed in order, each frame once, odd
    spellings and PINGs among them."""
    b = Broker()
    socks = [*socket.socketpair(), *socket.socketpair()]
    publisher = broker_mod._Session(1, socks[0])
    subscriber = broker_mod._Session(2, socks[2])
    b._sessions.update({1: publisher, 2: subscriber})
    b.router.register(2, 9, Subject.parse("a.>"))
    stream, pub_end = b"", {}  # the offset past each seq's PUB
    for seq in range(40):
        spelling = [b"PUB a.b %d\r\n", b"PUB  a.b  %d\r\n", b"PUB a.b 00%d\r\n"][seq % 3]
        stream += spelling % len(b"%d" % seq) + b"%d\r\n" % seq
        pub_end[seq] = len(stream)
        if seq % 7 == 3:
            stream += b"PING\r\n"
    publisher.inbuf = stream
    delivered = []
    try:
        for _ in range(2):  # 40 PUBs fill the queue of 16 twice
            b._parse(publisher)
            assert publisher.held_by == {subscriber}
            assert len(subscriber.out) == broker_mod.DEFAULT_QUEUE_FRAMES
            delivered += [int(frame.split()[-1]) for frame in subscriber.out]
            assert len(stream) - len(publisher.inbuf) == pub_end[delivered[-1]]
            subscriber.out = []
            b._release(subscriber)
            assert b._ready == [publisher]
            b._ready.clear()
        b._parse(publisher)
        delivered += [int(frame.split()[-1]) for frame in subscriber.out]
    finally:
        b._selector.close()
        for sock in socks:
            sock.close()
    assert not publisher.held_by and publisher.inbuf == b""
    assert delivered == list(range(40))
    assert publisher.out == [b"PONG\r\n"] * 6


def test_stop_after_the_loop_has_ended():
    """stop() sets the flag before it wakes the loop; a loop already awake
    can see the flag, end and close its wake pair first."""
    b = Broker().start()
    b._stopping = True
    b._wake.send(b"\0")
    b._thread.join(timeout=5)
    b.stop()
    assert b._thread is None


def test_slow_consumer_dropped(small_queue, quiet_pings):
    b = Broker().start()
    try:
        # raw socket subscriber that never reads
        lazy = socket.create_connection(b.address, timeout=5)
        lazy.sendall(b"SUB flood.> 1\r\n")
        time.sleep(0.2)  # let the SUB land
        with make_client(b) as pub:
            payload = b"x" * 1024
            stop = threading.Event()

            def flood():
                # outgrows the loopback buffers; publish blocks while the
                # broker pushes back on it
                while not stop.is_set():
                    pub.publish("flood.data", payload)

            assert wait_for_sessions(b, 2)
            flooder = threading.Thread(target=flood, daemon=True)
            flooder.start()
            # the lazy subscriber is evicted while the publisher is still on
            assert wait_for_sessions(b, 1, timeout=10)
            assert not pub.closed
            stop.set()
            flooder.join(timeout=5)
            assert not flooder.is_alive()
        # the broker closed the lazy session: its socket drains to EOF
        while lazy.recv(1 << 20):
            pass
        lazy.close()
    finally:
        b.stop()


def test_slow_consumer_evicted_once(caplog, small_queue, quiet_pings):
    """Publishers flooding one stalled subscriber evict it exactly once."""
    b = Broker().start()
    try:
        lazy = socket.create_connection(b.address, timeout=5)
        lazy.sendall(b"SUB flood.> 1\r\n")
        time.sleep(0.2)  # let the SUB land
        pubs = [make_client(b) for _ in range(3)]
        stop = threading.Event()

        def flood(pub):
            while not stop.is_set():
                pub.publish("flood.data", b"x" * 1024)

        assert wait_for_sessions(b, len(pubs) + 1)
        threads = [threading.Thread(target=flood, args=(p,), daemon=True) for p in pubs]
        for t in threads:
            t.start()
        assert wait_for_sessions(b, len(pubs), timeout=10)
        stop.set()
        for t in threads:
            t.join(timeout=5)
            assert not t.is_alive()
        for p in pubs:
            p.close()
        lazy.close()
    finally:
        b.stop()
    evictions = [r for r in caplog.records if "slow consumer" in r.getMessage()]
    assert len(evictions) == 1


def test_keepalive_drops_idle_session(monkeypatch):
    monkeypatch.setattr(broker_mod, "DEFAULT_PING_INTERVAL", 0.2)
    b = Broker().start()
    try:
        sock = socket.create_connection(b.address, timeout=5)
        sock.sendall(b"PING\r\n")
        assert sock.recv(16) == b"PONG\r\n"
        # never answer the broker's PINGs; expect a close
        sock.settimeout(5)
        seen = b""
        try:
            while True:
                chunk = sock.recv(256)
                if not chunk:
                    break
                seen += chunk
        except OSError:
            pass
        assert b"PING" in seen
        sock.close()
    finally:
        b.stop()


def test_client_surfaces_broker_error(broker):
    with make_client(broker) as c:
        c.subscribe("a.b", lambda messages: None)
        with pytest.raises(BusError):
            # duplicate sid is a protocol error -> -ERR, session dropped
            c._send(wire.Frame(wire.SUB, subject=Subject.parse("x"), sid=1))
            c.subscribe("c.d", lambda messages: None)


@pytest.mark.parametrize(
    "subject", ["site.*.x", "site.>", Subject.parse("site.*.x")], ids=["star", "tail", "Subject"]
)
def test_publish_to_a_wildcard_raises_and_keeps_the_session(broker, subject):
    """The broker evicts a session that publishes to a pattern, so the client
    refuses one before sending: later publishes on it are still delivered."""
    got = threading.Event()
    with make_client(broker) as sub, make_client(broker) as pub:
        sub.subscribe("site.1.x", lambda messages: got.set())
        with pytest.raises(wire.InvalidSubject):
            pub.publish(subject, b"x")
        pub.publish("site.1.x", b"y")
        assert got.wait(5)
    assert broker.stats()["evicted"]["protocol_error"] == 0


def test_publish_over_the_payload_cap_raises_and_keeps_the_session(broker):
    """The broker evicts a session that sends a payload over the cap, so the
    client refuses one before sending; a payload at the cap still goes."""
    got = []
    done = threading.Event()

    def on_msg(messages):
        got.extend(payload for _, payload in messages)
        done.set()

    largest = b"y" * wire.MAX_PAYLOAD
    with make_client(broker) as sub, make_client(broker) as pub:
        sub.subscribe("site.1.x", on_msg)
        with pytest.raises(wire.PayloadTooLarge):
            pub.publish("site.1.x", b"x" * (wire.MAX_PAYLOAD + 1))
        assert not pub.closed
        pub.publish("site.1.x", largest)
        assert done.wait(5)
    assert got == [largest]
    assert broker.stats()["evicted"]["protocol_error"] == 0


# --- one loop for every session ----------------------------------------------


def send_in_pieces(sock, data, rng, pieces=8):
    """Send ``data`` cut at random points, pausing between pieces so the
    peer tends to read them apart."""
    cuts = sorted(rng.sample(range(1, len(data)), min(pieces - 1, len(data) - 1)))
    for lo, hi in itertools.pairwise([0, *cuts, len(data)]):
        sock.sendall(data[lo:hi])
        time.sleep(0.005)


@pytest.mark.parametrize("pieces", [1, 3, 40])
def test_client_delivers_every_msg_before_a_malformed_frame(pieces):
    """The reader hands each subscription its MSGs in arrival order, in runs
    of one sid that no other frame splits, and every MSG before a malformed
    frame reaches its handler before the connection closes."""
    rng = random.Random(pieces)
    sent = [(rng.choice([1, 2]), b"m%d" % i) for i in range(60)]
    frames = [wire.encode_frame(wire.Frame(wire.MSG, subject=Subject.parse("a.b"),
                                           sid=sid, payload=payload))
              for sid, payload in sent]
    frames.insert(30, b"PING\r\n")
    stream = b"".join(frames) + b"MSG a.b 1 2\r\nhiXY\r\nMSG a.b 1 1\r\nz\r\n"

    listener = socket.create_server(("127.0.0.1", 0))
    got, calls = [], []
    closed = threading.Event()

    def serve():
        conn, _ = listener.accept()
        with conn:
            for _ in range(2):  # ack each SUB
                assert conn.recv(64).startswith(b"SUB ")
                conn.sendall(b"+OK\r\n")
            send_in_pieces(conn, stream, rng, pieces)
            closed.wait(5)

    def handler(sid):
        def on_msg(messages):
            calls.append(len(messages))
            got.extend((sid, payload) for _, payload in messages)
        return on_msg

    server = threading.Thread(target=serve)
    server.start()
    try:
        client = BusClient(*listener.getsockname(),
                           on_disconnect=lambda: (got.append("closed"), closed.set()))
        with client:
            assert client.subscribe("a.>", handler(1)) == 1
            assert client.subscribe("b.>", handler(2)) == 2
            assert closed.wait(5)
    finally:
        server.join(5)
        listener.close()
    assert got == sent + ["closed"]
    assert all(calls) and len(calls) <= len(sent)
    if pieces == 1:  # one read: a call per run of one sid, split once by the PING
        runs = [len(list(g)) for _, g in itertools.groupby(sid for sid, _ in sent[:30])]
        runs += [len(list(g)) for _, g in itertools.groupby(sid for sid, _ in sent[30:])]
        assert calls == runs


def test_broker_routes_frames_cut_at_any_read_boundary(broker):
    """Frames a publisher sends in pieces, some spelled with double spaces,
    are routed whole and in order; those before a malformed frame all are."""
    got = []
    done = threading.Event()
    payloads = [b"p%d" % i for i in range(50)]

    def on_msg(messages):
        got.extend(payload for _, payload in messages)
        if len(got) == len(payloads):
            done.set()

    frames = [b"PUB  cut.x  %d\r\n%s\r\n" % (len(p), p) if i % 3 else
              b"PUB cut.x %d\r\n%s\r\n" % (len(p), p) for i, p in enumerate(payloads)]
    frames.insert(20, b"PING\r\n")
    stream = b"".join(frames) + b"PUB cut.x 2\r\nhiXY\r\nPUB cut.x 1\r\nz\r\n"
    with make_client(broker) as sub:
        sub.subscribe("cut.>", on_msg)
        with socket.create_connection(broker.address, timeout=5) as pub:
            send_in_pieces(pub, stream, random.Random(7), pieces=30)
            reply = b""
            while chunk := pub.recv(256):
                reply += chunk
        assert done.wait(5)
    assert reply.startswith(b"PONG\r\n-ERR")
    assert got == payloads


def session_buffering(broker, n, timeout=5.0):
    """The broker session that holds ``n`` unparsed bytes, once one does."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        for session in list(broker._sessions.values()):
            if len(session.inbuf) == n:
                return session
        time.sleep(0.005)
    raise AssertionError(f"no session holds {n} unparsed bytes")


def test_max_payload_in_small_pieces_is_gathered_in_place(broker):
    """A PUB of the largest payload, sent in segment-sized pieces, grows one
    buffer in place at the broker while it is incomplete. Meanwhile the
    loop answers another session's PING, and the message is routed whole."""
    payload = bytes(range(256)) * (wire.MAX_PAYLOAD // 256)
    stream = b"PUB big.x %d\r\n%s\r\n" % (len(payload), payload)
    got = []
    done = threading.Event()

    def on_msg(messages):
        got.extend(p for _, p in messages)
        done.set()

    with make_client(broker) as sub, socket.create_connection(broker.address, timeout=5) as pub, \
            socket.create_connection(broker.address, timeout=5) as pinger:
        sub.subscribe("big.>", on_msg)
        pub.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sent = 0
        for piece in (1460, 1460):  # the second read finds the first one's buffer
            pub.sendall(stream[sent : sent + piece])
            sent += piece
            session_buffering(broker, sent)
        held = session_buffering(broker, sent).inbuf
        while sent < len(stream) // 2:
            pub.sendall(stream[sent : sent + 1460])
            sent += 1460
        assert session_buffering(broker, sent).inbuf is held
        started = time.monotonic()
        pinger.sendall(b"PING\r\n")
        assert pinger.recv(64) == b"PONG\r\n"
        assert time.monotonic() - started < 1.0
        while sent < len(stream):
            pub.sendall(stream[sent : sent + 1460])
            sent += 1460
        assert done.wait(5)
    assert got == [payload]


def test_broker_runs_one_thread_at_fifty_sessions(quiet_pings):
    before = set(threading.enumerate())
    b = Broker().start()
    socks = []
    try:
        socks = [socket.create_connection(b.address, timeout=5) for _ in range(50)]
        assert wait_for_sessions(b, 50)
        assert len(set(threading.enumerate()) - before) == 1
    finally:
        for sock in socks:
            sock.close()
        b.stop()


def test_stop_is_prompt_and_closes_every_session(quiet_pings):
    b = Broker().start()
    socks = [socket.create_connection(b.address, timeout=5) for _ in range(10)]
    try:
        assert wait_for_sessions(b, len(socks))
        started = time.monotonic()
        b.stop()
        assert time.monotonic() - started < 0.2
        for sock in socks:
            assert sock.recv(16) == b""
    finally:
        for sock in socks:
            sock.close()
        b.stop()


def test_pinging_non_reader_evicted_while_others_are_served(small_queue, quiet_pings):
    """A session that never reads its PONGs stalls only itself, then goes."""
    b = Broker().start()
    lazy = socket.create_connection(b.address, timeout=5)
    other = socket.create_connection(b.address, timeout=5)
    try:
        lazy.sendall(b"SUB flood.> 1\r\n")
        assert wait_for_sessions(b, 2)

        def flood():
            pings = b"PING\r\n" * 1000
            try:
                while True:
                    lazy.sendall(pings)
            except OSError:
                pass  # the broker closed the session

        flooder = threading.Thread(target=flood, daemon=True)
        flooder.start()
        deadline = time.monotonic() + 10
        while b.session_count() == 2 and time.monotonic() < deadline:
            other.sendall(b"PING\r\n")
            assert other.recv(16) == b"PONG\r\n"
            time.sleep(0.05)
        assert b.session_count() == 1
        flooder.join(timeout=5)
        assert not flooder.is_alive()
        other.sendall(b"PING\r\n")
        assert other.recv(16) == b"PONG\r\n"
    finally:
        lazy.close()
        other.close()
        b.stop()


# --- counters ----------------------------------------------------------------


def test_stats_count_routes_and_evictions(small_queue, quiet_pings):
    b = Broker().start()
    try:
        assert b.stats() == {
            "published": 0, "delivered": 0, "unrouted": 0, "dropped": 0,
            "evicted": {"slow_consumer": 0, "keepalive": 0, "protocol_error": 0},
        }
        with make_client(b) as pub:
            pub.publish("nobody.here", b"x")
            pub.subscribe("else.where", lambda messages: None)  # acked after the PUB
            assert b.stats()["published"] == 1
            assert b.stats()["unrouted"] == 1
            assert b.stats()["delivered"] == 0

            lazy = socket.create_connection(b.address, timeout=5)
            lazy.sendall(b"SUB flood.> 1\r\n")
            assert lazy.recv(16) == b"+OK\r\n"
            stop = threading.Event()

            def flood():
                while not stop.is_set():
                    pub.publish("flood.data", b"x" * 1024)

            flooder = threading.Thread(target=flood, daemon=True)
            flooder.start()
            assert wait_for_sessions(b, 1, timeout=10)  # the lazy one is evicted
            stop.set()
            flooder.join(timeout=5)
            lazy.close()
            assert b.stats()["dropped"] >= 1  # its backlog went unsent

            bad = socket.create_connection(b.address, timeout=5)
            bad.sendall(b"BOGUS\r\n")
            assert bad.recv(256).startswith(b"-ERR")
            bad.close()
            assert wait_for_sessions(b, 1)
            stats = b.stats()
        assert stats["evicted"] == {"slow_consumer": 1, "keepalive": 0, "protocol_error": 1}
        assert stats["delivered"] >= 16
        # one subscriber per subject at most: every publish is delivered once or unrouted
        assert stats["published"] == stats["delivered"] + stats["unrouted"]
    finally:
        b.stop()


def test_dropped_counts_the_msg_frames_an_evicted_session_never_got(small_queue, quiet_pings):
    """Every MSG queued for a session either reached its socket, at least
    its head, or is counted as dropped when the session is evicted."""
    payload = b"MSG " * 250
    frame_size = len(b"MSG flood.data 1 1000\r\n" + payload + b"\r\n")
    b = Broker().start()
    try:
        with make_client(b) as pub:
            lazy = socket.create_connection(b.address, timeout=10)
            lazy.sendall(b"SUB flood.> 1\r\n")
            # accepted, so that one session left below means the lazy one went
            assert wait_for_sessions(b, 2, timeout=10)
            stop = threading.Event()

            def flood():
                while not stop.is_set():
                    pub.publish("flood.data", payload)

            flooder = threading.Thread(target=flood, daemon=True)
            flooder.start()
            assert wait_for_sessions(b, 1, timeout=10)  # the lazy one is evicted
            stop.set()
            flooder.join(timeout=5)
            received = bytearray()
            while chunk := lazy.recv(1 << 16):
                received += chunk
            lazy.close()
            stats = b.stats()
        assert received.startswith(b"+OK\r\n")
        reached = -(-(len(received) - 5) // frame_size)  # whole frames and a cut one
        assert stats["evicted"]["slow_consumer"] == 1
        assert stats["dropped"] >= 1
        assert reached == stats["delivered"] - stats["dropped"]
    finally:
        b.stop()


class ShortSend(socket.socket):
    """A socket whose ``send`` takes at most ``limit`` bytes."""

    limit = 0

    def send(self, data):
        return super().send(data[: self.limit])


#: The payload spells ``MSG ``, so the unsent rest of a cut frame can look
#: like a whole frame.
CUT_FRAME = b"MSG a 1 8\r\nMSG MSG \r\n"


def cut_backlog(sent):
    """A broker whose session has three ``CUT_FRAME``s queued and has sent
    ``sent`` bytes of them; returns the broker, the session and its peer."""
    b = Broker()
    near, far = socket.socketpair()
    sock = ShortSend(fileno=near.detach())
    sock.limit = sent
    session = broker_mod._Session(1, sock)
    b._sessions[1] = session
    session.out = [CUT_FRAME] * 3
    b._flush(session)
    return b, session, far


def test_dropped_skips_the_rest_of_a_frame_cut_by_a_partial_send():
    """The rest of a cut frame is not counted, at every cut offset."""
    for sent in range(1, 3 * len(CUT_FRAME) + 1):
        b, session, far = cut_backlog(sent)
        b._close(session)
        far.close()
        b._selector.close()
        started = -(-sent // len(CUT_FRAME))
        assert b.stats()["dropped"] == 3 - started, sent


def test_protocol_error_sends_the_rest_of_a_cut_frame_before_err():
    """At every cut offset the peer reads whole frames, then ``-ERR``."""
    for sent in range(1, 3 * len(CUT_FRAME) + 1):
        b, session, far = cut_backlog(sent)
        b._protocol_error(session, "bad")
        session.sock.limit = 1 << 20
        b._flush(session)
        assert not session.alive, sent
        got = b""
        while chunk := far.recv(4096):
            got += chunk
        far.close()
        b._selector.close()
        started = -(-sent // len(CUT_FRAME))
        assert got == CUT_FRAME * started + b"-ERR bad\r\n", sent
        assert b.stats()["dropped"] == 3 - started, sent


def test_subscriber_that_reads_everything_drops_nothing(small_queue, quiet_pings):
    got = []
    done = threading.Event()

    def on_msg(messages):
        got.extend(int(payload) for _, payload in messages)
        if len(got) == 500:
            done.set()

    with Broker() as b:
        with make_client(b) as sub, make_client(b) as pub:
            sub.subscribe("all.>", on_msg)
            for seq in range(500):
                pub.publish("all.x", b"%d" % seq)
            assert done.wait(timeout=30)
        assert wait_for_sessions(b, 0)
        stats = b.stats()
    assert got == list(range(500))
    assert stats["delivered"] == 500
    assert stats["dropped"] == 0
