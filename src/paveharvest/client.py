"""Minimal TCP client for the subject bus.

One reader thread per connection parses what each socket read returns in
one pass. It hands every run of consecutive MSG frames for one sid to that
subscription's handler in one call, as ``(subject, payload)`` pairs in
arrival order, answers server PINGs, and wakes subscribers waiting on +OK.
Handlers run on the reader thread; keep them short or hand off to a
queue.
"""

from __future__ import annotations

import logging
import socket
import threading
from typing import Callable

from . import wire
from .wire import Frame, Subject

logger = logging.getLogger(__name__)

#: Called with a run of messages for one subscription, oldest first.
MessageHandler = Callable[[list[tuple[Subject, bytes]]], None]

CONNECT_TIMEOUT_S = 5.0
ACK_TIMEOUT_S = 5.0  # wait for the broker's +OK to a SUB or UNSUB


class BusError(Exception):
    """Connection-level or broker-reported failure."""


class BusClient:
    """Blocking pub/sub client over the wire grammar."""

    def __init__(
        self,
        host: str,
        port: int,
        on_disconnect: Callable[[], None] | None = None,
    ):
        self.on_disconnect = on_disconnect
        self._sock = socket.create_connection((host, port), timeout=CONNECT_TIMEOUT_S)
        self._sock.settimeout(None)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._send_lock = threading.Lock()
        self._handlers: dict[int, MessageHandler] = {}
        self._next_sid = 1
        self._acks = threading.Semaphore(0)
        self._closed = threading.Event()
        self._last_error: str | None = None
        self._reader = threading.Thread(
            target=self._read_loop, name="bus-reader", daemon=True
        )
        self._reader.start()

    # -- sending ---------------------------------------------------------------

    def _send(self, frame: Frame) -> None:
        data = wire.encode_frame(frame)
        try:
            with self._send_lock:
                self._sock.sendall(data)
        except OSError as exc:
            raise BusError(f"connection lost: {exc}") from exc

    def publish(self, subject: Subject | str, payload: bytes) -> None:
        """Send ``payload`` on ``subject``; a pattern raises
        :class:`wire.InvalidSubject` and a payload over ``wire.MAX_PAYLOAD``
        :class:`wire.PayloadTooLarge` before anything is sent, as the broker
        would evict the session for either."""
        if isinstance(subject, str):
            subject = wire.intern_subject(subject.encode(), True)
        elif subject.is_pattern:
            raise wire.InvalidSubject(f"wildcard forbidden here: {subject}")
        if len(payload) > wire.MAX_PAYLOAD:
            raise wire.PayloadTooLarge(
                f"payload of {len(payload)} bytes exceeds {wire.MAX_PAYLOAD}"
            )
        self._send(Frame(wire.PUB, subject=subject, payload=payload))

    def subscribe(self, pattern: Subject | str, handler: MessageHandler) -> int:
        """Register ``handler`` for ``pattern``; blocks until the broker acks.

        ``handler`` gets each run of the subscription's messages that one
        socket read completes, and no other frame falls inside a run."""
        if isinstance(pattern, str):
            pattern = wire.intern_subject(pattern.encode(), False)
        sid = self._next_sid
        self._next_sid += 1
        self._handlers[sid] = handler
        self._send(Frame(wire.SUB, subject=pattern, sid=sid))
        if not self._acks.acquire(timeout=ACK_TIMEOUT_S):
            raise BusError(self._last_error or "no ack for SUB")
        if self._last_error is not None:
            raise BusError(self._last_error)
        if self.closed:
            raise BusError("connection closed")
        return sid

    def unsubscribe(self, sid: int) -> None:
        self._handlers.pop(sid, None)
        self._send(Frame(wire.UNSUB, sid=sid))
        self._acks.acquire(timeout=ACK_TIMEOUT_S)

    def ping(self) -> None:
        self._send(Frame(wire.PING))

    # -- receiving -------------------------------------------------------------

    def _read_loop(self) -> None:
        buf: bytes | bytearray = b""  # not yet parsed, from a frame boundary
        try:
            while chunk := self._sock.recv(65536):
                buf += chunk
                buf = wire.unparsed(buf, self._parse(buf))
        except (OSError, wire.MalformedFrame) as exc:
            if not self._closed.is_set():
                logger.debug("bus reader stopped: %s", exc)
        finally:
            self.close()
            self._acks.release()  # wakes a subscribe waiting on this connection
            if self.on_disconnect is not None:
                self.on_disconnect()

    def _parse(self, buf: bytes | bytearray) -> int:
        """Handle every complete frame in ``buf``, in order; returns the
        offset past the last one. A malformed frame raises once the MSGs
        before it have reached their handlers."""
        run: list[tuple[Subject, bytes]] = []  # consecutive MSGs for ``sid``
        sid = pos = 0
        try:
            while (got := wire.parse_frame(buf, pos)) is not None:
                frame, pos = got
                if frame.kind == wire.MSG:
                    if frame.sid != sid:
                        self._deliver(sid, run)
                        run, sid = [], frame.sid
                    run.append((frame.subject, frame.payload))
                else:
                    self._deliver(sid, run)
                    run = []
                    self._handle(frame)
        except wire.MalformedFrame:
            self._deliver(sid, run)
            raise
        self._deliver(sid, run)
        return pos

    def _deliver(self, sid: int, run: list[tuple[Subject, bytes]]) -> None:
        if run and (handler := self._handlers.get(sid)) is not None:
            handler(run)

    def _handle(self, frame: Frame) -> None:
        k = frame.kind
        if k == wire.PING:
            self._send(Frame(wire.PONG))
        elif k == wire.OK:
            self._acks.release()
        elif k == wire.ERR:
            self._last_error = frame.message
            logger.warning("broker error: %s", frame.message)
            self._acks.release()

    # -- lifecycle ---------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    def close(self) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    def __enter__(self) -> "BusClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
