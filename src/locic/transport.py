"""Communicators: listening/connecting transports yielding message connections.

Two transports are built in:

  mem:NAME        in-process hub, used by tests and `locic sim`
  tcp:HOST:PORT   length-prefixed frames over a TCP socket

Both yield `Connection` objects: bidirectional, FIFO per connection, with
sequential receive callbacks. Delivery starts when `open()` is called;
messages arriving earlier are held (mem) or left in the socket (tcp).
An exception raised by the receive callback closes the connection with a
"handler error: ..." reason and delivers nothing after it.

Threading model: one event loop per process (`loop()`: a `selectors`
selector, a FIFO deque of callbacks and a heap of timers) drives every
listener and connection and runs every callback. The thread that needs the
loop drives it (`Loop.call`, `Loop.run_until`); a call made while another
thread drives is posted to that thread (`Loop.post`, which wakes it through
a self-pipe) and waits. Besides these, only `listen`, `connect` and
`Listener.close` may be called from any thread: they take the loop through
`Loop.call` where they need it. Connections are loop-only, as asyncio's
transports are: `open`, `send` and `close` run on the driving thread and
check no thread; another thread reaches them through `Loop.call` or
`Loop.post`. Work left when a thread gives the loop back (a ready callback,
a live timer, a registered socket, an unsent batch) passes to a daemon
thread, started on first need. TCP sockets are non-blocking, but a TCP
connect blocks the driving thread. A callback must never block: it would
hold up the loop that runs it.

Batching: a send joins its connection's batch for the current loop turn,
and the loop flushes every batch at the end of the turn (Nagle's idea, RFC
896, with the turn in place of a timer). A mem batch joins the loop's ready
FIFO as one callback for the peer, and a mem close follows the batches sent
before it there, as a TCP end of stream does; a TCP batch leaves in one
`sock.send` of all its frames. Closing a connection flushes its batch
first, so the peer gets every message sent before the close.
"""

from __future__ import annotations

import collections
import functools
import heapq
import os
import selectors
import socket
import threading
import time
from typing import Callable

from .wire import Framer, ProtocolError, frame


class CommError(Exception):
    pass


class SpecError(CommError):
    """Malformed transport spec."""


class ConnectError(CommError):
    pass


class ConnectionClosed(CommError):
    pass


# --- the event loop -----------------------------------------------------

_BATCH = 512  # callbacks run between two looks at the selector


def _log_failure(what: str, e: BaseException) -> None:
    import logging  # only a failure pays for the import

    logging.getLogger(__name__).error(what, exc_info=e)


class Timer:
    """A callback the loop runs at `when` unless it is cancelled first."""

    def __init__(self, when: float, fn: Callable, args: tuple):
        self.when, self.fn, self.args = when, fn, args

    def __lt__(self, other: "Timer") -> bool:
        return self.when < other.when

    def cancel(self) -> None:
        """Drop the callback and what it holds. Call it on the loop."""
        self.fn = self.args = None


class Loop:
    """A selector, a FIFO of ready callbacks and a heap of timers, driven by
    the thread that needs them or else by a daemon thread."""

    def __init__(self):
        self.clock = time.monotonic  # what timers and deadlines are measured by
        self.selector = selectors.DefaultSelector()
        self._ready: collections.deque = collections.deque()
        self._dirty: list[Connection] = []  # connections with a batch to flush this turn
        self._timers: list[Timer] = []  # a heap by deadline
        self._compact_at = 64  # heap size at which cancelled timers are dropped
        self._idle = False  # True while the driver may be blocked in select()
        self._owner: int | None = None  # the ident of the thread driving the loop
        self._lock = threading.Lock()  # guards taking the loop and giving it back
        self._daemon: threading.Thread | None = None
        self._daemon_go = threading.Semaphore(0)  # released when the daemon is to drive
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        os.set_blocking(self._wake_w, False)
        self.selector.register(self._wake_r, selectors.EVENT_READ, self._drain_wake)
        # the selector's fd table, a dict in every stdlib selector: its len()
        # runs no Python code, as `get_map()`'s does; the wake pipe is one entry
        self._watched = self.selector._fd_to_key

    def post(self, fn: Callable, *args) -> None:
        """Run fn(*args) on the loop after everything posted before it.
        Safe from any thread."""
        self._ready.append((fn, args))
        if self._owner == threading.get_ident():
            return
        with self._lock:  # so that a driver giving the loop back sees fn
            if self._owner is None:
                self._hand_over()
            elif self._idle:
                try:
                    os.write(self._wake_w, b"\0")
                except BlockingIOError:
                    pass  # the pipe is full, so the driver is being woken anyway

    def call(self, fn: Callable, *args):
        """Run fn(*args) on the loop; return its result or raise its error.
        When nobody drives, this thread takes the loop for fn and for what fn
        makes ready; when another thread drives, fn is posted to it and
        waited for."""
        if self._owner == threading.get_ident():
            return fn(*args)
        if self._take():
            try:
                return fn(*args)
            finally:
                self._drive(lambda: True)
        done = threading.Lock()
        done.acquire()
        box: list = []

        def run():
            try:
                box.append((True, fn(*args)))
            except BaseException as e:
                box.append((False, e))
            done.release()

        self.post(run)
        done.acquire()
        ok, result = box.pop()
        if ok:
            return result
        raise result

    def run_until(self, future, timeout: float | None = None) -> bool:
        """Wait up to `timeout` seconds (None: no limit) for `future` (with
        `done()` and `on_settle(cb)`, as `transmit.FutureSlot`) to settle,
        driving the loop meanwhile when nobody else does; returns whether it
        settled. On the driving thread itself it only reports."""
        if future.done() or self._owner == threading.get_ident():
            return future.done()
        if self._take():
            self._drive(future.done, None if timeout is None else self.clock() + timeout)
            return future.done()
        settled = threading.Event()
        self.post(future.on_settle, lambda _future: settled.set())
        return settled.wait(timeout)

    def call_later(self, delay: float, fn: Callable, *args) -> Timer:
        """Run fn(*args) on the loop in `delay` seconds unless the returned
        timer is cancelled first. Call it on the loop."""
        if len(self._timers) >= self._compact_at:
            self._timers = [t for t in self._timers if t.fn is not None]
            heapq.heapify(self._timers)
            self._compact_at = max(64, 2 * len(self._timers))
        timer = Timer(self.clock() + delay, fn, args)
        heapq.heappush(self._timers, timer)
        return timer

    # -- who drives --

    def _take(self) -> bool:
        with self._lock:  # this thread drives from now on, if nobody does
            if self._owner is not None:
                return False
            self._owner = threading.get_ident()
            return True

    def _busy(self) -> bool:
        """Whether a ready callback, an unsent batch, a live timer or a socket
        besides the wake pipe is left. Ask it as the driver, or under the lock."""
        timers = self._timers
        while timers and timers[0].fn is None:
            heapq.heappop(timers)
        return bool(self._ready or self._dirty or timers or len(self._watched) > 1)

    def _hand_over(self) -> None:
        """Make the daemon the driver. Call it under the lock, undriven."""
        if self._daemon is None:
            self._daemon = threading.Thread(target=self._daemon_main, name="locic-loop",
                                            daemon=True)
            self._daemon.start()
        self._owner = self._daemon.ident
        self._daemon_go.release()

    def _daemon_main(self) -> None:
        while True:
            self._daemon_go.acquire()
            self._drive(lambda: not self._busy())

    # -- driving --

    def _drive(self, done: Callable[[], bool], deadline: float | None = None) -> None:
        """Run the loop on this thread, which has taken it, until done() holds
        and no callback is ready, or until `deadline` passes with none ready;
        then give the loop back, to the daemon if work is left. A turn looks
        at the selector (unless callbacks are ready and no socket is watched),
        runs the ready callbacks and flushes the batches they filled."""
        ready, select, run_next, watched = (self._ready, self.selector.select,
                                            self._run_next, self._watched)
        try:
            while True:
                if self._dirty:
                    self._flush()
                if not ready and done():
                    break
                wait = self._queue_due_timers() if self._timers else None
                if deadline is not None and not ready:
                    left = deadline - self.clock()
                    if left <= 0:
                        break
                    wait = left if wait is None else min(wait, left)
                if not ready or len(watched) > 1:
                    self._idle = True
                    events = select(0 if ready else wait)
                    self._idle = False
                    for key, mask in events:
                        try:
                            key.data(mask)
                        except Exception as e:
                            _log_failure("event loop I/O callback failed", e)
                budget = _BATCH
                while ready and budget:
                    budget -= 1
                    run_next()
        finally:
            with self._lock:
                self._owner = None
                if self._busy():
                    self._hand_over()

    def _run_next(self) -> None:
        """Run the next ready callback, first in first out: the loop's one choice."""
        fn, args = self._ready.popleft()
        try:
            fn(*args)
        except Exception as e:
            _log_failure("event loop callback failed", e)

    def _flush(self) -> None:
        """Send every batch filled since the last flush, the end of a turn."""
        dirty, self._dirty = self._dirty, []
        for conn in dirty:
            try:
                conn._flush_batch()
            except Exception as e:
                _log_failure("event loop flush failed", e)

    def _queue_due_timers(self) -> float | None:
        """Move every due timer's callback to the ready FIFO; returns the
        seconds until the next deadline, None if no timer is left."""
        timers = self._timers
        while timers:
            timer = timers[0]
            if timer.fn is None:
                heapq.heappop(timers)
                continue
            wait = timer.when - self.clock()
            if wait > 0:
                return wait
            heapq.heappop(timers)
            self._ready.append((timer.fn, timer.args))
        return None

    def _drain_wake(self, mask: int) -> None:
        try:
            while os.read(self._wake_r, 4096):
                pass
        except BlockingIOError:
            pass


_loop: Loop | None = None
_loop_made = threading.Lock()


def loop() -> Loop:
    """The process's event loop, made on first use."""
    global _loop
    if _loop is None:
        with _loop_made:
            if _loop is None:
                _loop = Loop()
    return _loop


def on_loop(method):
    """Decorator marking the thread boundary: a public method that other
    threads call runs on the loop (`Loop.call`). It passes positional
    arguments only."""

    @functools.wraps(method)
    def wrapper(*args):
        if _loop is not None and _loop._owner == threading.get_ident():
            return method(*args)
        return (_loop or loop()).call(method, *args)

    return wrapper


# --- connections ----------------------------------------------------------

class Connection:
    """Duplex message endpoint, loop-only; the one record of whether it is
    closed and whether its close callback has run. `close` marks it closed,
    flushes the batch, runs `_close`, which only takes the connection down,
    and queues the close callback. Subclasses implement _start_delivery,
    _send and _close, and may implement _prepare."""

    def __init__(self):
        self._loop = loop()
        self._on_message: Callable[[bytes], None] | None = None
        self._on_close: Callable[[str], None] | None = None
        self._opened = False
        self._closed = False
        self._batch: list[bytes] | None = None  # this turn's sends, once there is one

    def open(self, on_message: Callable[[bytes], None],
             on_close: Callable[[str], None]) -> None:
        """Attach handlers and start delivery. Must be called exactly once."""
        if self._opened:
            raise CommError("connection already opened")
        self._opened = True
        self._on_message = on_message
        self._on_close = on_close
        self._start_delivery()
        if self._closed:
            self._fire_close("connection closed")

    @property
    def closed(self) -> bool:
        return self._closed

    def send(self, data: bytes) -> None:
        """Send one message: it joins this loop turn's batch."""
        if self._closed:
            raise ConnectionClosed("connection is closed")
        data = self._prepare(data)
        batch = self._batch
        if batch is None:
            self._batch = [data]
            self._loop._dirty.append(self)
        else:
            batch.append(data)

    def _flush_batch(self) -> None:
        batch, self._batch = self._batch, None
        if batch is not None:
            self._send(batch)

    def close(self, reason: str = "closed locally") -> None:
        if self._closed:
            return
        self._closed = True
        self._flush_batch()
        self._close(reason)
        self._loop._ready.append((self._fire_close, (reason,)))  # on the loop: none to wake

    def _deliver(self, messages) -> None:
        """Hand `messages` to the receive callback in order, until the
        connection closes; a raising callback closes it."""
        on_message = self._on_message
        for data in messages:
            if self._closed:
                return
            try:
                on_message(data)
            except Exception as e:
                reason = _handler_error(e)
                self.close(reason)
                self._fire_close(reason)

    def _fire_close(self, reason: str) -> None:
        """Run the close callback once, then drop both callbacks; an unopened
        connection runs it on open."""
        self._closed = True
        if self._on_close is None:
            return
        on_close, self._on_close, self._on_message = self._on_close, None, None
        on_close(reason)

    # subclass hooks
    def _start_delivery(self) -> None:
        raise NotImplementedError

    def _prepare(self, data: bytes) -> bytes:
        """What the batch holds for message `data`, by default the message
        itself; raises in `send` if it cannot be sent."""
        return data

    def _send(self, batch: list[bytes]) -> None:
        """Send a flushed batch, in order."""
        raise NotImplementedError

    def _close(self, reason: str) -> None:
        raise NotImplementedError


class Listener:
    def __init__(self, address: str, close_fn: Callable[[], None]):
        self.address = address
        self._close_fn = close_fn
        self._closed = False

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._close_fn()


# --- spec parsing -----------------------------------------------------

def _ascii_digits(text: str) -> bool:
    """ASCII digits only, and few enough for `int` to read."""
    return text.isascii() and text.isdigit() and len(text) <= 16


def parse_spec(spec: str) -> tuple:
    if spec.startswith("mem:"):
        name = spec[len("mem:"):]
        if not name:
            raise SpecError(f"malformed transport spec '{spec}': empty hub name")
        return ("mem", name)
    if spec.startswith("tcp:"):
        rest = spec[len("tcp:"):]
        host, sep, port_text = rest.rpartition(":")
        if not sep or not host:
            raise SpecError(f"malformed transport spec '{spec}': expected tcp:HOST:PORT")
        if not _ascii_digits(port_text):
            raise SpecError(f"malformed transport spec '{spec}': bad port")
        port = int(port_text)
        if not 0 <= port <= 65535:
            raise SpecError(f"malformed transport spec '{spec}': port out of range")
        parts = host.split(".")
        if len(parts) == 4 and all(p.isnumeric() for p in parts):
            if not all(_ascii_digits(p) and int(p) <= 255 for p in parts):
                raise SpecError(f"malformed transport spec '{spec}': bad IPv4 address")
        return ("tcp", host, port)
    raise SpecError(f"malformed transport spec '{spec}': unknown transport")


def _handler_error(e: Exception) -> str:
    """Log an exception raised by a message handler; returns the close reason."""
    _log_failure("message handler failed; closing the connection", e)
    return f"handler error: {type(e).__name__}: {e}"


# --- in-process transport ---------------------------------------------

_mem_hubs: dict[str, Callable[["Connection"], None]] = {}


class MemConnection(Connection):
    """One end of an in-process pair. A flushed batch goes to the loop's
    ready FIFO as one delivery, so the FIFO keeps every connection's order.
    A close reaches the peer the same way, after every batch sent before it,
    as a TCP end of stream does: the peer reads `closed` once that close is
    delivered, after its `open()`."""

    def __init__(self):
        super().__init__()
        self._peer: MemConnection | None = None  # None once closed
        self._held: list[list[bytes] | None] | None = []  # arrived before open(); None once open

    def _start_delivery(self) -> None:
        held, self._held = self._held, None
        for batch in held:
            self._receive(batch)

    def _receive(self, batch: list[bytes] | None) -> None:
        """Deliver a batch from the peer, or its close (None)."""
        if self._held is not None:
            self._held.append(batch)
        elif batch is None:
            self._fire_close("connection closed")
        else:
            self._deliver(batch)

    def _prepare(self, data: bytes) -> bytes:
        peer = self._peer
        if peer is None or peer._closed:
            raise ConnectionClosed("peer is closed")
        return bytes(data)

    def _send(self, batch: list[bytes]) -> None:
        if self._peer is not None:  # on the loop, so no thread to wake
            self._loop._ready.append((self._peer._receive, (batch,)))

    def _close(self, reason: str) -> None:
        peer, self._peer = self._peer, None
        if peer is not None:
            self._loop._ready.append((peer._receive, (None,)))


def _mem_listen(name: str, on_connection) -> Listener:
    if _mem_hubs.setdefault(name, on_connection) is not on_connection:
        raise ConnectError(f"mem hub '{name}' is already bound")
    return Listener(f"mem:{name}", lambda: _mem_hubs.pop(name, None))


def _mem_connect(name: str) -> Connection:
    on_connection = _mem_hubs.get(name)
    if on_connection is None:
        raise ConnectError(f"no mem hub named '{name}'")
    a, b = MemConnection(), MemConnection()
    a._peer, b._peer = b, a
    loop().call(on_connection, b)
    return a


# --- tcp transport ----------------------------------------------------

class TcpConnection(Connection):
    """A non-blocking socket registered with the loop's selector. Bytes the
    kernel does not take at once wait in `_out` for the socket to drain; a
    closed connection keeps its socket until they have all gone."""

    def __init__(self, sock: socket.socket):
        super().__init__()
        sock.setblocking(False)
        self._sock = sock
        self._framer = Framer()
        self._out = bytearray()
        self._events = 0  # what the selector watches for on this socket

    def _watch(self) -> None:
        reading = self._on_message is not None and not self._closed
        events = (selectors.EVENT_READ if reading else 0) | \
                 (selectors.EVENT_WRITE if self._out else 0)
        if events == self._events:
            return
        selector = self._loop.selector
        if not events:
            selector.unregister(self._sock)
        elif not self._events:
            selector.register(self._sock, events, self._on_ready)
        else:
            selector.modify(self._sock, events, self._on_ready)
        self._events = events

    def _start_delivery(self) -> None:
        if not self._closed:
            self._watch()

    def _on_ready(self, mask: int) -> None:
        if mask & selectors.EVENT_WRITE:
            self._flush()
        if mask & selectors.EVENT_READ and not self._closed:
            self._read()

    def _prepare(self, data: bytes) -> bytes:
        return frame(data)

    def _read(self) -> None:
        try:
            data = self._sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            data = b""
        if not data:
            self._lost("connection closed")
            return
        try:
            payloads = self._framer.feed(data)
        except ProtocolError as e:
            self._lost(f"protocol error: {e}")
            return
        self._deliver(payloads)

    def _send(self, batch: list[bytes]) -> None:
        if self._sock.fileno() < 0:
            return  # released; a send made just before close() still goes out
        self._out += b"".join(batch)
        self._flush()

    def _flush(self) -> None:
        """Send what waits in `_out`; a closed connection releases its
        socket once `_out` is empty."""
        try:
            sent = self._sock.send(self._out) if self._out else 0
        except (BlockingIOError, InterruptedError):
            sent = 0
        except OSError as e:
            self._lost(f"send failed: {e}")
            return
        del self._out[:sent]
        if self._closed and not self._out:
            self._release()
        else:
            self._watch()

    def _lost(self, reason: str) -> None:
        self._release()
        self._fire_close(reason)

    def _release(self) -> None:
        if self._events:
            self._loop.selector.unregister(self._sock)
            self._events = 0
        if self._sock.fileno() >= 0:
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()

    def _close(self, reason: str) -> None:
        self._flush()


def _tcp_listen(host: str, port: int, on_connection) -> Listener:
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        server.bind((host, port))
    except OSError as e:
        server.close()
        raise ConnectError(f"cannot bind tcp:{host}:{port}: {e}") from None
    server.listen()
    server.setblocking(False)
    bound_host, bound_port = server.getsockname()[:2]

    def on_ready(mask: int) -> None:
        while True:
            try:
                sock, _ = server.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            on_connection(TcpConnection(sock))

    def close():
        loop().selector.unregister(server)
        server.close()

    loop().call(loop().selector.register, server, selectors.EVENT_READ, on_ready)
    return Listener(f"tcp:{bound_host}:{bound_port}", lambda: loop().call(close))


def _tcp_connect(host: str, port: int) -> Connection:
    # a blocking connect: the thread driving the loop waits for the kernel
    try:
        sock = socket.create_connection((host, port), timeout=10)
    except OSError as e:
        raise ConnectError(f"cannot connect to tcp:{host}:{port}: {e}") from None
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return TcpConnection(sock)


# --- public entry points ----------------------------------------------

def listen(spec: str, on_connection: Callable[[Connection], None]) -> Listener:
    """Accept connections at `spec`; `on_connection` runs on the loop."""
    parsed = parse_spec(spec)
    if parsed[0] == "mem":
        return _mem_listen(parsed[1], on_connection)
    return _tcp_listen(parsed[1], parsed[2], on_connection)


def connect(spec: str) -> Connection:
    parsed = parse_spec(spec)
    if parsed[0] == "mem":
        return _mem_connect(parsed[1])
    return _tcp_connect(parsed[1], parsed[2])
