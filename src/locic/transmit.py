"""Transmission semantics: pull-based value access and connected-mode streams.

A value pull sends one request per access and settles a future with the
decoded response. A stream access opens a multiplexed channel over the
connection; the producer side forwards every emission as a channel message
from the moment it processes the channel-open, and either side may close
the channel. Channel ids are allocated odd by the connection's opener and
even by the acceptor, so they never collide.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable

from .codecs import Codec, CodecError, CodecRegistry
from .transport import Connection, ConnectionClosed
from .wire import (ChanClose, ChanMsg, ChanOpen, Envelope, Hello, HelloAck,
                   ProtocolError, Request, Response, decode_envelope,
                   encode_envelope)

PENDING, READY, FAILED = "pending", "ready", "failed"

PULL_VALUE, CONNECTED_STREAM = "pull", "stream"


@dataclass(frozen=True)
class TransmitPlan:
    """Per-value transmission semantics: how a value crosses the network.

    The base type is what the definition declares, the intermediate type is
    what actually travels, and the result codec decodes the received payload.
    For the built-in types all three coincide; the triple stays so richer
    transmittables can be added without wire changes.
    """

    mode: str  # PULL_VALUE | CONNECTED_STREAM
    base_codec: str
    intermediate_codec: str
    result_codec: str

    @classmethod
    def pull_value(cls, codec_id: str) -> "TransmitPlan":
        return cls(PULL_VALUE, codec_id, codec_id, codec_id)

    @classmethod
    def connected_stream(cls, elem_codec_id: str) -> "TransmitPlan":
        return cls(CONNECTED_STREAM, elem_codec_id, elem_codec_id, elem_codec_id)


class FutureSlot:
    """Write-once async cell: settles to Ready(value) or Failed(error)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._event = threading.Event()
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
        with self._lock:
            if self._state != PENDING:
                return
            self._state = state
            self._value = value
            self._error = error
            callbacks, self._callbacks = self._callbacks, []
        self._event.set()
        for cb in callbacks:
            cb(self)

    def resolve(self, value: Any) -> None:
        self._settle(READY, value, None)

    def fail(self, error: str) -> None:
        self._settle(FAILED, None, error)

    def on_settle(self, cb: Callable[["FutureSlot"], None]) -> None:
        """Run cb exactly once when settled; immediately if already settled."""
        with self._lock:
            if self._state == PENDING:
                self._callbacks.append(cb)
                return
        cb(self)

    def wait(self, timeout: float | None = None) -> bool:
        return self._event.wait(timeout)


class StreamClosed(Exception):
    pass


class StreamHandle:
    """An event stream: emissions reach all current subscribers in order."""

    def __init__(self, elem_codec_id: str = ""):
        self.elem_codec_id = elem_codec_id
        self._lock = threading.Lock()
        self._emit_lock = threading.Lock()
        self._subscribers: dict[int, Callable[[Any], None]] = {}
        self._next_sub = 0
        self._closed = False
        self._close_callbacks: list[Callable[[], None]] = []

    @property
    def closed(self) -> bool:
        return self._closed

    def subscribe(self, cb: Callable[[Any], None]) -> Callable[[], None]:
        """Register a subscriber; returns an unsubscribe function."""
        with self._lock:
            if self._closed:
                return lambda: None
            sub_id = self._next_sub
            self._next_sub += 1
            self._subscribers[sub_id] = cb

        def unsubscribe():
            with self._lock:
                self._subscribers.pop(sub_id, None)

        return unsubscribe

    def on_close(self, cb: Callable[[], None]) -> None:
        with self._lock:
            if not self._closed:
                self._close_callbacks.append(cb)
                return
        cb()

    def emit(self, value: Any) -> None:
        with self._emit_lock:
            if self._closed:
                raise StreamClosed("stream is closed")
            with self._lock:
                subscribers = list(self._subscribers.values())
            for cb in subscribers:
                cb(value)

    def close(self) -> None:
        with self._emit_lock:
            with self._lock:
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
    `on_control`, inbound value requests to `on_request`, and inbound
    channel-opens to `on_chan_open` (which must return the local stream
    and its element codec, or None to refuse). No envelope is delivered
    before `start()`, so the owner can finish wiring its handlers first.
    """

    def __init__(self, conn: Connection, opener: bool, registry: CodecRegistry,
                 on_control: Callable[[Envelope], None],
                 on_request: Callable[[Request], Response],
                 on_chan_open: Callable[[ChanOpen], "tuple[StreamHandle, Codec] | None"],
                 on_closed: Callable[[str], None]):
        self.conn = conn
        self.opener = opener
        self._registry = registry
        self._on_control = on_control
        self._on_request = on_request
        self._on_chan_open = on_chan_open
        self._on_closed = on_closed
        self._lock = threading.Lock()
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

    def pull(self, sig, result_codec: Codec) -> FutureSlot:
        """Request the remote value once; a fresh request per call."""
        slot = FutureSlot()
        with self._lock:
            if self._closed:
                slot.fail("connection lost")
                return slot
            rid = self._next_request_id
            self._next_request_id += 1
            self._pending[rid] = (slot, result_codec)
        try:
            self.send(Request(rid, sig, b""))
        except ConnectionClosed:
            with self._lock:
                self._pending.pop(rid, None)
            slot.fail("connection lost")
        return slot

    def open_stream(self, sig, elem_codec: Codec) -> StreamHandle:
        """Open a typed channel; emissions from the remote stream arrive in order."""
        handle = StreamHandle(elem_codec.id)
        with self._lock:
            if self._closed:
                handle.close()
                return handle
            chan = self._next_chan_id
            self._next_chan_id += 2
            self._local_chans[chan] = (handle, elem_codec)

        def notify_remote():
            with self._lock:
                present = self._local_chans.pop(chan, None) is not None
            if present and not self.conn.closed:
                try:
                    self.send(ChanClose(chan))
                except ConnectionClosed:
                    pass

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
            try:
                self.send(response)
            except ConnectionClosed:
                pass
        elif isinstance(env, Response):
            self._handle_response(env)
        elif isinstance(env, ChanOpen):
            self._handle_chan_open(env)
        elif isinstance(env, ChanMsg):
            self._handle_chan_msg(env)
        elif isinstance(env, ChanClose):
            self._handle_chan_close(env)

    def _handle_response(self, env: Response) -> None:
        with self._lock:
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

    def _handle_chan_open(self, env: ChanOpen) -> None:
        attached = self._on_chan_open(env)
        if attached is None:
            try:
                self.send(ChanClose(env.chan))
            except ConnectionClosed:
                pass
            return
        handle, codec = attached
        chan = env.chan

        def forward(value):
            try:
                self.send(ChanMsg(chan, codec.serialize(value)))
            except (ConnectionClosed, CodecError):
                pass

        unsubscribe = handle.subscribe(forward)
        with self._lock:
            self._forwards[chan] = unsubscribe
        # if the producer stream itself closes, tear the channel down
        handle.on_close(lambda: self._producer_closed(chan))

    def _producer_closed(self, chan: int) -> None:
        with self._lock:
            unsub = self._forwards.pop(chan, None)
        if unsub is not None:
            unsub()
            if not self.conn.closed:
                try:
                    self.send(ChanClose(chan))
                except ConnectionClosed:
                    pass

    def _handle_chan_msg(self, env: ChanMsg) -> None:
        with self._lock:
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
        with self._lock:
            local = self._local_chans.pop(env.chan, None)
            unsub = self._forwards.pop(env.chan, None)
        if local is not None:
            local[0].close()
        if unsub is not None:
            unsub()

    def _on_conn_close(self, reason: str) -> None:
        with self._lock:
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


def pull_remote(endpoint: Endpoint, sig, plan: TransmitPlan,
                registry: CodecRegistry) -> FutureSlot:
    """Pull-based remote value access: one fresh request, one future."""
    if plan.mode != PULL_VALUE:
        raise ValueError(f"pull_remote needs a {PULL_VALUE} plan, got {plan.mode}")
    return endpoint.pull(sig, registry.lookup(plan.result_codec))


def open_remote_stream(endpoint: Endpoint, sig, plan: TransmitPlan,
                       registry: CodecRegistry) -> StreamHandle:
    """Connected-mode remote stream access over a multiplexed channel."""
    if plan.mode != CONNECTED_STREAM:
        raise ValueError(f"open_remote_stream needs a {CONNECTED_STREAM} plan, "
                         f"got {plan.mode}")
    return endpoint.open_stream(sig, registry.lookup(plan.intermediate_codec))
