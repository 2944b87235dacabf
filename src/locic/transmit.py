"""Transmission semantics: pull-based value access and connected-mode streams.

A value pull sends one request per access and settles a future with the
decoded response. A stream access opens a multiplexed channel over the
connection; the producer side forwards every emission as a channel message
from the moment it attaches the channel, and either side may close the
channel. Channel ids are allocated odd by the connection's opener and even
by the acceptor, so they never collide.

An `Endpoint` calls the methods of one owner, as an asyncio transport calls
its protocol's, until the connection closes. A request or channel-open may
be answered later: the owner returns `DEFERRED` and answers with
`Endpoint.send` or `Endpoint.attach` once it can, without holding up the
connection meanwhile.

Every object here is loop-only, as asyncio's futures and transports are:
only the thread driving the transport's event loop touches it, so it holds
no lock and checks no thread. Two methods may be called from any thread:
`StreamHandle.subscribe` runs on the loop (`transport.on_loop`), and
`FutureSlot.wait`, the one way to block, drives the loop until the slot
settles or waits for the thread that drives it (`Loop.run_until`). Any
other call from another thread goes through `Loop.call`.
"""

from __future__ import annotations

from typing import Any, Callable

from . import transport
from .codecs import Codec, CodecError
from .sigs import ValueSig
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

    def on_settle(self, cb: Callable[["FutureSlot"], None]) -> None:
        """Run cb exactly once when settled; immediately if already settled."""
        if self._state == PENDING:
            self._callbacks.append(cb)
        else:
            cb(self)

    def done(self) -> bool:
        return self._state != PENDING

    def wait(self, timeout: float | None = None) -> bool:
        """Block until settled (`Loop.run_until`); returns whether it settled."""
        return transport.loop().run_until(self, timeout)


def all_settled(futures: list[FutureSlot]) -> FutureSlot:
    """A future that resolves once every one of `futures` has settled, at
    once if there are none. Call it on the loop."""
    done = FutureSlot()
    left = len(futures)

    def one_settled(_fut: FutureSlot) -> None:
        nonlocal left
        left -= 1
        if left == 0:
            done.resolve(None)

    for fut in futures:
        fut.on_settle(one_settled)
    if not futures:
        done.resolve(None)
    return done


class StreamClosed(Exception):
    pass


class StreamHandle:
    """An event stream: emissions reach all current subscribers in order.
    `codec` serializes its elements; None if they cannot be transmitted."""

    def __init__(self, codec: Codec | None = None):
        self.codec = codec
        # replaced, never changed in place, so emit runs the subscribers it
        # found even if one of them subscribes or unsubscribes
        self._subscribers: dict[int, Callable[[Any], None]] = {}
        self._next_sub = 0
        self._closed = False
        # run once on close, in the order added; a subscriber's goes with it
        self._close_callbacks: dict[int, Callable[[], None]] = {}
        self._encoded: tuple[Any, bytes] | None = None  # (value, payload)

    @property
    def closed(self) -> bool:
        return self._closed

    @on_loop
    def subscribe(self, cb: Callable[[Any], None],
                  on_close: Callable[[], None] | None = None) -> Callable[[], None]:
        """Register a subscriber, and `on_close` to run when the stream
        closes; returns a loop-only function that removes both. On a closed
        stream `on_close` runs at once."""
        if self._closed:
            if on_close is not None:
                on_close()
            return lambda: None
        sub_id = self._next_sub
        self._next_sub += 1
        self._subscribers = {**self._subscribers, sub_id: cb}
        if on_close is not None:
            self._close_callbacks[sub_id] = on_close
        return lambda: self._unsubscribe(sub_id)

    def _unsubscribe(self, sub_id: int) -> None:
        self._subscribers = {k: cb for k, cb in self._subscribers.items() if k != sub_id}
        self._close_callbacks.pop(sub_id, None)

    def on_close(self, cb: Callable[[], None]) -> None:
        if self._closed:
            cb()
        else:
            self._close_callbacks[self._next_sub] = cb
            self._next_sub += 1

    def emit(self, value: Any, payload: bytes | None = None) -> None:
        """Deliver `value` to every subscriber. `payload`, when given, is the
        value already serialized with `codec`; `encoded` reuses it."""
        if self._closed:
            raise StreamClosed("stream is closed")
        if payload is not None:
            self._encoded = (value, payload)
        for cb in self._subscribers.values():
            cb(value)

    def encoded(self, value: Any) -> bytes:
        """`value` serialized with `codec`. The bytes of the value last
        serialized or emitted with its payload are kept, keyed by the value's
        identity, so every subscriber of an emission shares them; values are
        immutable, so kept bytes never go stale."""
        memo = self._encoded
        if memo is not None and memo[0] is value:
            return memo[1]
        payload = self.codec.serialize(value)
        self._encoded = (value, payload)
        return payload

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._subscribers = {}
        callbacks, self._close_callbacks = self._close_callbacks, {}
        for cb in callbacks.values():
            cb()


class Endpoint:
    """Protocol session over one connection: requests, responses, channels.

    The endpoint calls four methods of its owner: `on_control(env)` with each
    handshake envelope, `on_request(req)` with each value request (it returns
    the `Response`, or `DEFERRED` and sends it later), `on_chan_open(env)`
    with each channel-open (it returns the local stream, None to refuse, or
    `DEFERRED` and calls `attach` later) and, once the endpoint has dropped
    the owner, `on_closed(reason)`. No envelope is delivered before `start()`.
    `served` is the owner's served-value table (`wire.value_parts`), by which
    requests and channel-opens for its values are read. An endpoint is
    closed exactly when its connection is.
    """

    def __init__(self, conn: Connection, opener: bool, owner: Any,
                 served: dict[bytes, ValueSig] = {}):
        self.conn = conn
        self._owner = owner
        self._served = served
        self._next_request_id = 1
        self._next_chan_id = 1 if opener else 2
        self._pending: dict[int, tuple[FutureSlot, Codec]] = {}
        self._local_chans: dict[int, StreamHandle] = {}  # opened by us
        self._forwards: dict[int, Callable[[], None]] = {}  # opened by remote: unsubscribers

    def start(self) -> None:
        """Start delivering inbound envelopes to the owner."""
        self.conn.open(self._on_bytes, self._on_conn_close)

    # -- outbound --

    def send(self, env: Envelope) -> None:
        self.conn.send(encode_envelope(env))

    def try_send(self, env: Envelope) -> None:
        try:
            self.send(env)
        except ConnectionClosed:
            pass

    def pull(self, sig, codec: Codec) -> FutureSlot:
        """Request the remote value once; a fresh request per call."""
        slot = FutureSlot()
        if self.conn.closed:
            slot.fail("connection lost")
            return slot
        rid = self._next_request_id
        self._next_request_id += 1
        self._pending[rid] = (slot, codec)
        try:
            self.send(Request(rid, sig))
        except ConnectionClosed:
            self._pending.pop(rid, None)
            slot.fail("connection lost")
        return slot

    def open_stream(self, sig, codec: Codec) -> StreamHandle:
        """Open a typed channel; emissions from the remote stream arrive in order."""
        handle = StreamHandle(codec)
        if self.conn.closed:
            handle.close()
            return handle
        chan = self._next_chan_id
        self._next_chan_id += 2
        self._local_chans[chan] = handle

        def notify_remote():
            if self._local_chans.pop(chan, None) is not None:
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
            env = decode_envelope(data, self._served)
        except ProtocolError as e:
            self.conn.close(f"protocol error: {e}")
            return
        self._HANDLERS[type(env)](self, env)

    def _handle_control(self, env: Hello | HelloAck) -> None:
        self._owner.on_control(env)

    def _handle_request(self, env: Request) -> None:
        response = self._owner.on_request(env)
        if response is not DEFERRED:
            self.try_send(response)

    def _handle_chan_open(self, env: ChanOpen) -> None:
        attached = self._owner.on_chan_open(env)
        if attached is not DEFERRED:
            self.attach(env.chan, attached)

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

    def attach(self, chan: int, handle: StreamHandle | None) -> None:
        """Answer the remote's channel-open `chan`: forward every emission of
        `handle` from now on, or refuse the channel when there is no handle,
        it has closed or its elements cannot be transmitted. Call it on the
        loop."""
        if self.conn.closed:
            return
        if handle is None or handle.closed or handle.codec is None:
            self.try_send(ChanClose(chan))
            return

        def forward(value):
            try:
                self.send(ChanMsg(chan, handle.encoded(value)))
            except (ConnectionClosed, CodecError):
                pass

        # if the producer stream itself closes, tear the channel down
        self._forwards[chan] = handle.subscribe(forward, lambda: self._producer_closed(chan))

    def _producer_closed(self, chan: int) -> None:
        unsub = self._forwards.pop(chan, None)
        if unsub is not None:
            unsub()
            self.try_send(ChanClose(chan))

    def _handle_chan_msg(self, env: ChanMsg) -> None:
        handle = self._local_chans.get(env.chan)
        if handle is None:
            return  # late message for a channel we already closed
        try:
            value = handle.codec.deserialize(env.payload)
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
            local.close()
        if unsub is not None:
            unsub()

    def _on_conn_close(self, reason: str) -> None:
        pending, self._pending = self._pending, {}
        chans, self._local_chans = self._local_chans, {}
        forwards, self._forwards = self._forwards, {}
        for slot, _ in pending.values():
            slot.fail("connection lost")
        for handle in chans.values():
            handle.close()
        for unsub in forwards.values():
            unsub()
        owner, self._owner = self._owner, None  # nothing reaches it from now on
        owner.on_closed(reason)

    _HANDLERS = {Hello: _handle_control, HelloAck: _handle_control,
                 Request: _handle_request, Response: _handle_response,
                 ChanOpen: _handle_chan_open, ChanMsg: _handle_chan_msg,
                 ChanClose: _handle_chan_close}
