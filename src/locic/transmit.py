"""Transmission semantics: pull-based value access and connected-mode streams.

A value pull sends one request per access and settles a future with the
decoded response. A stream access opens a multiplexed channel over the
connection; the producer side forwards every emission as a channel message
from the moment it attaches the channel, and either side may close the
channel. Channel ids are allocated odd by the connection's opener and even
by the acceptor, so they never collide.

A request or channel-open may be answered later: the owner's handler
returns `DEFERRED` and answers with `Endpoint.send` or `Endpoint.attach`
once it can, without holding up the connection meanwhile.

Every object here lives on the transport's event loop and holds no lock:
its state changes only on the loop thread. The public methods that change
state are `transport.on_loop`, so a call from another thread is handed to
the loop; `FutureSlot.wait` is the one way for another thread to block.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from . import transport
from .codecs import Codec, CodecError
from .transport import Connection, ConnectionClosed, on_loop
from .wire import (ChanClose, ChanMsg, ChanOpen, Envelope, Hello, HelloAck,
                   ProtocolError, Request, Response, decode_envelope,
                   encode_envelope)

PENDING, READY, FAILED = "pending", "ready", "failed"


DEFERRED = object()  # a handler's answer: "I will reply later"


class FutureSlot:
    """Write-once async cell: settles to Ready(value) or Failed(error)."""

    def __init__(self):
        self._state = PENDING
        self._value: Any = None
        self._error: str | None = None
        self._callbacks: list[Callable[["FutureSlot"], None]] = []

    @property
    def state(self) -> str:
        return self._state

    @property
    def value(self) -> Any:
        if self._state != READY:
            raise ValueError(f"future is {self._state}, not ready")
        return self._value

    @property
    def error(self) -> str:
        if self._state != FAILED:
            raise ValueError(f"future is {self._state}, not failed")
        return self._error  # type: ignore[return-value]

    @on_loop
    def _settle(self, state: str, value: Any, error: str | None) -> None:
        if self._state != PENDING:
            return
        self._value = value
        self._error = error
        self._state = state
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(self)

    def resolve(self, value: Any) -> None:
        self._settle(READY, value, None)

    def fail(self, error: str) -> None:
        self._settle(FAILED, None, error)

    @on_loop
    def on_settle(self, cb: Callable[["FutureSlot"], None]) -> None:
        """Run cb exactly once when settled; immediately if already settled."""
        if self._state == PENDING:
            self._callbacks.append(cb)
        else:
            cb(self)

    def wait(self, timeout: float | None = None) -> bool:
        """Block until settled. On the loop thread nothing can settle while
        it waits, so there it only reports whether the slot has settled."""
        if self._state != PENDING or transport.on_loop_thread():
            return self._state != PENDING
        done = threading.Event()
        transport.loop().post(self.on_settle, lambda _slot: done.set())
        return done.wait(timeout)


def run_and_wait(slot: FutureSlot, start: Callable, *args, timeout: float) -> None:
    """Post start(*args) to the loop and wait up to `timeout` for `slot` to
    settle. `slot` must be new: nobody else may hold it yet. On the loop
    thread `start` runs inline and nothing is waited for."""
    if transport.on_loop_thread():
        start(*args)
        return
    done = threading.Event()
    slot._callbacks.append(lambda _slot: done.set())

    def guarded():
        try:
            start(*args)
        except Exception as e:
            slot.fail(f"{type(e).__name__}: {e}")
            raise

    transport.loop().post(guarded)
    done.wait(timeout)


class StreamClosed(Exception):
    pass


class StreamHandle:
    """An event stream: emissions reach all current subscribers in order."""

    def __init__(self, elem_codec_id: str = ""):
        self.elem_codec_id = elem_codec_id
        self._subscribers: dict[int, Callable[[Any], None]] = {}
        self._next_sub = 0
        self._closed = False
        self._close_callbacks: list[Callable[[], None]] = []
        self._encoded: tuple[Any, str, bytes] | None = None  # (value, codec id, payload)

    @property
    def closed(self) -> bool:
        return self._closed

    @on_loop
    def subscribe(self, cb: Callable[[Any], None]) -> Callable[[], None]:
        """Register a subscriber; returns an unsubscribe function."""
        if self._closed:
            return lambda: None
        sub_id = self._next_sub
        self._next_sub += 1
        self._subscribers[sub_id] = cb
        return on_loop(lambda: self._subscribers.pop(sub_id, None))

    @on_loop
    def on_close(self, cb: Callable[[], None]) -> None:
        if self._closed:
            cb()
        else:
            self._close_callbacks.append(cb)

    @on_loop
    def emit(self, value: Any, payload: bytes | None = None) -> None:
        """Deliver `value` to every subscriber. `payload`, when given, is the
        value already serialized with the element codec; `encoded` reuses it."""
        if self._closed:
            raise StreamClosed("stream is closed")
        self._encoded = None if payload is None else (value, self.elem_codec_id, payload)
        try:
            for cb in list(self._subscribers.values()):
                cb(value)
        finally:
            self._encoded = None

    def encoded(self, value: Any, codec: Codec) -> bytes:
        """`value` serialized with `codec`. During an emission the bytes are
        made once and shared by every subscriber that asks for them."""
        memo = self._encoded
        if memo is not None and memo[0] is value and memo[1] == codec.id:
            return memo[2]
        payload = codec.serialize(value)
        self._encoded = (value, codec.id, payload)
        return payload

    @on_loop
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._subscribers.clear()
        callbacks, self._close_callbacks = self._close_callbacks, []
        for cb in callbacks:
            cb()


class Endpoint:
    """Protocol session over one connection: requests, responses, channels.

    The runtime owns the control plane: handshake envelopes go to
    `on_control`, inbound value requests to `on_request` (which returns the
    `Response`, or `DEFERRED` and sends it later), and inbound channel-opens
    to `on_chan_open` (which returns the local stream and its element codec,
    None to refuse, or `DEFERRED` and calls `attach` later). No envelope is
    delivered before `start()`, so the owner can finish wiring its handlers
    first.
    """

    def __init__(self, conn: Connection, opener: bool,
                 on_control: Callable[[Envelope], None],
                 on_request: Callable[[Request], Response],
                 on_chan_open: Callable[[ChanOpen], "tuple[StreamHandle, Codec] | None"],
                 on_closed: Callable[[str], None]):
        self.conn = conn
        self.opener = opener
        self._on_control = on_control
        self._on_request = on_request
        self._on_chan_open = on_chan_open
        self._on_closed = on_closed
        self._next_request_id = 1
        self._next_chan_id = 1 if opener else 2
        self._pending: dict[int, tuple[FutureSlot, Codec]] = {}
        self._local_chans: dict[int, tuple[StreamHandle, Codec]] = {}  # opened by us
        self._forwards: dict[int, Callable[[], None]] = {}  # opened by remote: unsubscribers
        self._closed = False

    def start(self) -> None:
        """Start delivering inbound envelopes to the handlers."""
        self.conn.open(self._on_bytes, self._on_conn_close)

    # -- outbound --

    def send(self, env: Envelope) -> None:
        self.conn.send(encode_envelope(env))

    def try_send(self, env: Envelope) -> None:
        try:
            self.send(env)
        except ConnectionClosed:
            pass

    @on_loop
    def pull(self, sig, result_codec: Codec) -> FutureSlot:
        """Request the remote value once; a fresh request per call."""
        slot = FutureSlot()
        if self._closed:
            slot.fail("connection lost")
            return slot
        rid = self._next_request_id
        self._next_request_id += 1
        self._pending[rid] = (slot, result_codec)
        try:
            self.send(Request(rid, sig, b""))
        except ConnectionClosed:
            self._pending.pop(rid, None)
            slot.fail("connection lost")
        return slot

    @on_loop
    def open_stream(self, sig, elem_codec: Codec) -> StreamHandle:
        """Open a typed channel; emissions from the remote stream arrive in order."""
        handle = StreamHandle(elem_codec.id)
        if self._closed:
            handle.close()
            return handle
        chan = self._next_chan_id
        self._next_chan_id += 2
        self._local_chans[chan] = (handle, elem_codec)

        def notify_remote():
            if self._local_chans.pop(chan, None) is not None and not self.conn.closed:
                self.try_send(ChanClose(chan))

        handle.on_close(notify_remote)
        try:
            self.send(ChanOpen(chan, sig))
        except ConnectionClosed:
            handle.close()
        return handle

    def close(self, reason: str = "closed") -> None:
        self.conn.close(reason)

    # -- inbound --

    def _on_bytes(self, data: bytes) -> None:
        try:
            env = decode_envelope(data)
        except ProtocolError as e:
            self.conn.close(f"protocol error: {e}")
            return
        if isinstance(env, (Hello, HelloAck)):
            self._on_control(env)
        elif isinstance(env, Request):
            response = self._on_request(env)
            if response is not DEFERRED:
                self.try_send(response)
        elif isinstance(env, Response):
            self._handle_response(env)
        elif isinstance(env, ChanOpen):
            attached = self._on_chan_open(env)
            if attached is not DEFERRED:
                self.attach(env.chan, attached)
        elif isinstance(env, ChanMsg):
            self._handle_chan_msg(env)
        elif isinstance(env, ChanClose):
            self._handle_chan_close(env)

    def _handle_response(self, env: Response) -> None:
        entry = self._pending.pop(env.id, None)
        if entry is None:
            return
        slot, codec = entry
        if not env.ok:
            slot.fail(env.error)
            return
        try:
            slot.resolve(codec.deserialize(env.payload))
        except CodecError as e:
            slot.fail(str(e))

    @on_loop
    def attach(self, chan: int, attached: "tuple[StreamHandle, Codec] | None") -> None:
        """Answer the remote's channel-open `chan`: forward every emission of
        the stream from now on, or refuse the channel when `attached` is None."""
        if self._closed:
            return
        if attached is None:
            self.try_send(ChanClose(chan))
            return
        handle, codec = attached

        def forward(value):
            try:
                self.send(ChanMsg(chan, handle.encoded(value, codec)))
            except (ConnectionClosed, CodecError):
                pass

        self._forwards[chan] = handle.subscribe(forward)
        # if the producer stream itself closes, tear the channel down
        handle.on_close(lambda: self._producer_closed(chan))

    def _producer_closed(self, chan: int) -> None:
        unsub = self._forwards.pop(chan, None)
        if unsub is not None:
            unsub()
            if not self.conn.closed:
                self.try_send(ChanClose(chan))

    def _handle_chan_msg(self, env: ChanMsg) -> None:
        entry = self._local_chans.get(env.chan)
        if entry is None:
            return  # late message for a channel we already closed
        handle, codec = entry
        try:
            value = codec.deserialize(env.payload)
        except CodecError:
            return
        try:
            handle.emit(value)
        except StreamClosed:
            pass

    def _handle_chan_close(self, env: ChanClose) -> None:
        local = self._local_chans.pop(env.chan, None)
        unsub = self._forwards.pop(env.chan, None)
        if local is not None:
            local[0].close()
        if unsub is not None:
            unsub()

    def _on_conn_close(self, reason: str) -> None:
        if self._closed:
            return
        self._closed = True
        pending = list(self._pending.values())
        self._pending.clear()
        chans = list(self._local_chans.values())
        self._local_chans.clear()
        forwards = list(self._forwards.values())
        self._forwards.clear()
        for slot, _ in pending:
            slot.fail("connection lost")
        for handle, _ in chans:
            handle.close()
        for unsub in forwards:
            unsub()
        self._on_closed(reason)
