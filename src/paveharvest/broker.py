"""TCP-served subject router: the central hub of the live pipeline.

Accepts client sessions speaking the ``wire`` grammar, maintains
subscriptions, and fans published messages out to every matching
subscriber. Delivery is at-most-once with no persistence; durability
belongs to the store, not the bus.

One thread runs a ``selectors`` loop over the listener and every session,
so no state is shared between threads. The frames one read completes are
parsed in one walk of an offset, and the input buffer is cut once per
read; a frame that arrives over many reads is appended to in place. Each
session keeps the encoded frames it has not yet sent and writes them with
one ``send`` per writable event. A session whose frames land in a peer
already holding ``DEFAULT_QUEUE_FRAMES`` pending frames is not read again
until that peer drains to half of that, so TCP pushes back on publishers;
the peer may be the session itself, for its own ``+OK`` and ``PONG``
replies.
A peer that holds a session back, or sits at the bound, and drains
nothing for ``SLOW_CONSUMER_GRACE`` seconds is evicted as a slow
consumer. SUB/UNSUB are acknowledged with ``+OK`` so clients can
synchronize on subscription visibility.
"""

from __future__ import annotations

import bisect
import itertools
import logging
import selectors
import socket
import threading
import time
from selectors import EVENT_READ, EVENT_WRITE

from . import wire
from .wire import Frame, Subject

logger = logging.getLogger(__name__)

DEFAULT_QUEUE_FRAMES = 8192
# How long a session may hold others back, or sit at the bound, without
# draining a byte before it is evicted as a slow consumer.
SLOW_CONSUMER_GRACE = 2.0
DEFAULT_PING_INTERVAL = 30.0
ROUTE_CACHE_SIZE = 4096  # subjects whose delivery set is kept; all go when full


class SubjectRouter:
    """Routing table mapping (session, sid) subscriptions to patterns.

    Each concrete subject's delivery set is computed once and cached until
    the table changes, so a warm route costs one dict lookup however many
    subscriptions there are. Not thread-safe: the broker's loop is its only
    user.
    """

    def __init__(self) -> None:
        self._subs: dict[int, dict[int, Subject]] = {}
        self._routes: dict[bytes, tuple[tuple[int, int], ...]] = {}

    def register(self, session_id: int, sid: int, pattern: Subject) -> None:
        sids = self._subs.setdefault(session_id, {})
        if sid in sids:
            raise ValueError(f"duplicate sid {sid}")
        sids[sid] = pattern
        self._routes.clear()

    def unregister(self, session_id: int, sid: int) -> bool:
        removed = self._subs.get(session_id, {}).pop(sid, None) is not None
        if removed:
            self._routes.clear()
        return removed

    def drop_session(self, session_id: int) -> None:
        if self._subs.pop(session_id, None):
            self._routes.clear()

    def route(self, subject: Subject) -> list[tuple[int, int]]:
        """All (session, sid) pairs whose pattern matches ``subject``, in a new list."""
        deliveries = self._routes.get(subject.raw)
        if deliveries is None:
            if len(self._routes) >= ROUTE_CACHE_SIZE:
                self._routes.clear()
            deliveries = self._routes[subject.raw] = tuple(
                (session_id, sid)
                for session_id, sids in self._subs.items()
                for sid, pattern in sids.items()
                if wire.subject_matches(pattern, subject)
            )
        return list(deliveries)


class _Session:
    def __init__(self, session_id: int, sock: socket.socket):
        self.id = session_id
        self.sock = sock
        self.alive = True
        self.closing = False  # sends what is pending, then closes
        self.inbuf: bytes | bytearray = b""  # not yet parsed, from a frame boundary
        self.out: list[bytes] = []  # encoded frames not yet sent
        self.cut = False  # out[0] is the rest of a frame partly sent
        self.events = 0  # selector events registered for ``sock``
        self.held_by: set[_Session] = set()  # peers whose backlog pauses us
        self.holding: set[_Session] = set()  # sessions our backlog pauses
        self.last_drain = time.monotonic()
        self.last_activity = self.last_drain
        self.pinged = False


class Broker:
    """Runnable broker; ``start()`` binds and serves until ``stop()``."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self.host = host
        self.port = port
        self.router = SubjectRouter()
        self._sessions: dict[int, _Session] = {}
        self._ids = itertools.count(1)
        self._selector = selectors.DefaultSelector()
        self._listener: socket.socket | None = None
        self._wake: socket.socket | None = None  # stop() writes here
        self._thread: threading.Thread | None = None
        self._stopping = False
        self._reading: _Session | None = None  # whose frames are dispatched
        self._ready: list[_Session] = []  # released; parse what they buffered
        # Counters; the loop thread is their only writer.
        self._published = 0
        self._delivered = 0
        self._unrouted = 0
        self._dropped = 0
        self._evicted = {"slow_consumer": 0, "keepalive": 0, "protocol_error": 0}

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "Broker":
        if self._listener is not None:
            return self
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(128)
        listener.setblocking(False)
        self.port = listener.getsockname()[1]
        self._listener = listener
        wake, self._wake = socket.socketpair()
        self._selector.register(listener, EVENT_READ)
        self._selector.register(wake, EVENT_READ)
        self._thread = threading.Thread(
            target=self._serve, args=(wake,), name="broker", daemon=True
        )
        self._thread.start()
        logger.info("broker listening on %s:%d", self.host, self.port)
        return self

    def stop(self) -> None:
        if self._thread is not None:
            self._stopping = True
            try:
                self._wake.send(b"\0")
            except OSError:  # the loop saw the flag first, ended and closed the pair
                pass
            self._thread.join(timeout=5)
            self._thread = None

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def __enter__(self) -> "Broker":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- the loop ------------------------------------------------------------

    def _serve(self, wake: socket.socket) -> None:
        tick = min(DEFAULT_PING_INTERVAL, SLOW_CONSUMER_GRACE) / 4
        next_tick = time.monotonic() + tick
        try:
            while not self._stopping:
                for key, events in self._selector.select(next_tick - time.monotonic()):
                    session = key.data
                    if session is not None:
                        if events & EVENT_WRITE:
                            self._flush(session)
                        if events & EVENT_READ and session.alive:
                            self._read(session)
                    elif key.fileobj is self._listener:
                        self._accept()
                while self._ready:
                    session = self._ready.pop()
                    if session.alive and not session.held_by:
                        self._parse(session)
                if time.monotonic() >= next_tick:
                    self._tick()
                    next_tick = time.monotonic() + tick
        finally:
            for session in list(self._sessions.values()):
                self._close(session)
            self._selector.close()
            self._listener.close()
            wake.close()
            self._wake.close()

    def _accept(self) -> None:
        try:
            sock, addr = self._listener.accept()
        except OSError:
            return
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        session = _Session(next(self._ids), sock)
        self._sessions[session.id] = session
        self._watch(session)
        logger.debug("session %d connected from %s", session.id, addr)

    def _tick(self) -> None:
        """Keepalive, and eviction of sessions that stall others."""
        now = time.monotonic()
        for session in list(self._sessions.values()):
            if session.held_by:
                session.last_activity = now  # unread by our choice, not idle
            stalls = session.holding or len(session.out) >= DEFAULT_QUEUE_FRAMES
            idle = now - session.last_activity
            if stalls and now - session.last_drain > SLOW_CONSUMER_GRACE:
                logger.warning("session %d: slow consumer, dropping", session.id)
                self._evicted["slow_consumer"] += 1
                self._close(session)
            elif idle > 2 * DEFAULT_PING_INTERVAL:
                logger.info("session %d: keepalive timeout", session.id)
                self._evicted["keepalive"] += 1
                self._close(session)
            elif idle > DEFAULT_PING_INTERVAL and not (session.pinged or session.closing):
                session.pinged = True
                self._send(session, wire.encode_frame(Frame(wire.PING)))

    def _watch(self, session: _Session) -> None:
        """Register the events ``session`` waits for: input unless paused,
        output while frames are pending."""
        paused = session.held_by or session.closing
        events = (0 if paused else EVENT_READ) | (EVENT_WRITE if session.out else 0)
        if events == session.events:
            return
        if not session.events:
            self._selector.register(session.sock, events, session)
        elif not events:
            self._selector.unregister(session.sock)
        else:
            self._selector.modify(session.sock, events, session)
        session.events = events

    # -- outbound ------------------------------------------------------------

    def _send(self, session: _Session, data: bytes) -> None:
        """Queue an encoded frame; the session being read waits while the
        receiver holds ``DEFAULT_QUEUE_FRAMES`` frames or more. Only a first
        pending frame changes what the receiver waits for; ``_parse``
        re-registers the session it reads."""
        out = session.out
        out.append(data)
        if len(out) == 1:
            session.last_drain = time.monotonic()  # the grace starts now
            self._watch(session)
        if len(out) >= DEFAULT_QUEUE_FRAMES and self._reading is not None:
            self._reading.held_by.add(session)
            session.holding.add(self._reading)

    def _flush(self, session: _Session) -> None:
        data = b"".join(session.out)
        try:
            sent = session.sock.send(data)
        except BlockingIOError:
            return
        except OSError:
            self._close(session)
            return
        # Replace the frames sent, and the part sent of the next, by its rest.
        ends = list(itertools.accumulate(map(len, session.out)))
        done = bisect.bisect_right(ends, sent)
        session.out[: done + 1] = [data[sent : ends[done]]] if done < len(ends) else []
        session.cut = sent > (ends[done - 1] if done else 0)
        session.last_drain = time.monotonic()
        if session.closing and not session.out:
            self._close(session)
            return
        if len(session.out) <= DEFAULT_QUEUE_FRAMES // 2:
            self._release(session)
        self._watch(session)

    def _release(self, session: _Session) -> None:
        """Resume the sessions that ``session``'s backlog held back."""
        for held in session.holding:
            held.held_by.discard(session)
            if not held.held_by:
                self._ready.append(held)
        session.holding.clear()

    # -- inbound ---------------------------------------------------------------

    def _read(self, session: _Session) -> None:
        try:
            chunk = session.sock.recv(65536)
        except BlockingIOError:
            return
        except OSError:
            chunk = b""
        if not chunk:
            self._close(session)
            return
        session.inbuf += chunk
        session.last_activity = time.monotonic()
        session.pinged = False
        self._parse(session)

    def _parse(self, session: _Session) -> None:
        """Dispatch buffered frames until the input runs out or is paused.

        The walk moves an offset through the buffer and cuts it once, past
        the last frame dispatched."""
        self._reading = session
        buf, pos = session.inbuf, 0
        while not session.held_by and not session.closing:
            try:
                got = wire.parse_frame(buf, pos)
            except wire.MalformedFrame as exc:
                self._protocol_error(session, str(exc))
                break
            if got is None:
                break
            frame, pos = got
            self._dispatch(session, frame)
        session.inbuf = wire.unparsed(buf, pos)
        self._reading = None
        self._watch(session)

    def _dispatch(self, session: _Session, frame: Frame) -> None:
        k = frame.kind
        if k == wire.PUB:
            self.route(frame.subject, frame.payload)
        elif k == wire.SUB:
            try:
                self.router.register(session.id, frame.sid, frame.subject)
            except ValueError as exc:
                self._protocol_error(session, str(exc))
                return
            self._send(session, wire.encode_frame(Frame(wire.OK)))
        elif k == wire.UNSUB:
            self.router.unregister(session.id, frame.sid)  # idempotent
            self._send(session, wire.encode_frame(Frame(wire.OK)))
        elif k == wire.PING:
            self._send(session, wire.encode_frame(Frame(wire.PONG)))
        elif k != wire.PONG:  # a PONG only counts as activity
            self._protocol_error(session, f"unexpected verb {k}")

    def _protocol_error(self, session: _Session, message: str) -> None:
        # Drop the backlog so the -ERR goes out next, then close; the rest
        # of a frame a partial send cut goes first, so the -ERR starts a line.
        logger.info("session %d: protocol error: %s", session.id, message)
        self._evicted["protocol_error"] += 1
        self.router.drop_session(session.id)
        session.closing = True
        rest = session.out[:1] if session.cut else []
        self._drop_backlog(session)
        session.out = rest + [wire.encode_frame(Frame(wire.ERR, message=message))]
        session.cut = bool(rest)
        self._release(session)
        self._watch(session)

    def _close(self, session: _Session) -> None:
        if not session.alive:
            return
        session.alive = False
        self._drop_backlog(session)
        del self._sessions[session.id]
        self.router.drop_session(session.id)
        if session.events:
            self._selector.unregister(session.sock)
        self._release(session)
        for holder in session.held_by:
            holder.holding.discard(session)
        try:
            session.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        session.sock.close()

    def _drop_backlog(self, session: _Session) -> None:
        """Empty ``session``'s backlog, counting its whole MSG frames as
        dropped; a frame cut by a partial send reached the socket."""
        self._dropped += sum(frame[:4] == b"MSG " for frame in session.out[session.cut :])
        session.out = []
        session.cut = False

    # -- routing ---------------------------------------------------------------

    def route(self, subject: Subject, payload: bytes) -> list[tuple[int, int]]:
        """Fan a publish out to all matching subscriptions.

        Returns the delivery set as (session, sid) pairs. Each MSG is the
        bytes ``encode_frame`` would give, built from the subject's wire
        spelling and one ``len + payload`` tail per publish.
        """
        deliveries = self.router.route(subject)
        self._published += 1
        if not deliveries:
            self._unrouted += 1
            return deliveries
        self._delivered += len(deliveries)
        tail = b"%d\r\n%s\r\n" % (len(payload), payload)
        for session_id, sid in deliveries:
            self._send(self._sessions[session_id], b"MSG %s %d %s" % (subject.raw, sid, tail))
        return deliveries

    def session_count(self) -> int:
        return len(self._sessions)

    def stats(self) -> dict:
        """Counters since start: ``published``, ``delivered`` (one per MSG
        queued), ``unrouted`` (publishes no subscription matched),
        ``dropped`` (queued MSG frames discarded unsent when their session
        closed) and ``evicted`` sessions by reason."""
        return {
            "published": self._published,
            "delivered": self._delivered,
            "unrouted": self._unrouted,
            "dropped": self._dropped,
            "evicted": dict(self._evicted),
        }
