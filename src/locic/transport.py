"""Communicators: listening/connecting transports yielding message connections.

Two transports are built in:

  mem:NAME        in-process hub, used by tests and `locic sim`
  tcp:HOST:PORT   length-prefixed frames over a TCP socket

Both yield `Connection` objects: bidirectional, FIFO per connection, with
sequential receive callbacks. Delivery starts when `open()` is called;
messages arriving earlier are held (mem) or left in the socket (tcp).
An exception raised by the receive callback closes the connection with a
"handler error: ..." reason instead of stopping delivery silently.

Threading model: one event loop per process (`loop()`, a `selectors`
selector plus a FIFO deque of callbacks) runs on a single daemon thread,
started on first use. It drives every listener and connection, and every
receive and close callback runs on it. A mem send appends the delivery to
the loop's deque; TCP sockets and listeners are registered non-blocking
with the selector. Other threads hand work to the loop with `Loop.post`
(which wakes it through a self-pipe) or `Loop.call` (which also waits for
the result); `on_loop` makes a method run on the loop whichever thread
calls it. Code running on the loop must never block: a blocking call made
from a callback would wait for the loop it is holding up.
"""

from __future__ import annotations

import collections
import functools
import os
import selectors
import socket
import threading
from dataclasses import dataclass
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


class Loop:
    """A selector and a FIFO of ready callbacks, run on one daemon thread."""

    def __init__(self):
        self.selector = selectors.DefaultSelector()
        self._ready: collections.deque = collections.deque()
        self._idle = False  # True while the loop may be blocked in select()
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        os.set_blocking(self._wake_w, False)
        self.selector.register(self._wake_r, selectors.EVENT_READ, self._drain_wake)
        self.thread = threading.Thread(target=self._run, name="locic-loop", daemon=True)

    def post(self, fn: Callable, *args) -> None:
        """Run fn(*args) on the loop after everything posted before it.
        Safe from any thread."""
        self._ready.append((fn, args))
        if self._idle:
            try:
                os.write(self._wake_w, b"\0")
            except BlockingIOError:
                pass  # the pipe is full, so the loop is being woken anyway

    def call(self, fn: Callable, *args):
        """Run fn(*args) on the loop and return its result or raise its
        exception. From the loop thread itself fn runs inline."""
        if threading.get_ident() == _loop_thread_id:
            return fn(*args)
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

    def _drain_wake(self, mask: int) -> None:
        try:
            while os.read(self._wake_r, 4096):
                pass
        except BlockingIOError:
            pass

    def _run(self) -> None:
        ready, popleft, select = self._ready, self._ready.popleft, self.selector.select
        while True:
            self._idle = True
            events = select(0 if ready else None)
            self._idle = False
            for key, mask in events:
                try:
                    key.data(mask)
                except Exception as e:
                    _log_failure("event loop I/O callback failed", e)
            budget = _BATCH
            while ready and budget:
                budget -= 1
                fn, args = popleft()
                try:
                    fn(*args)
                except Exception as e:
                    _log_failure("event loop callback failed", e)


_loop: Loop | None = None
_loop_thread_id: int | None = None
_loop_start_lock = threading.Lock()


def loop() -> Loop:
    """The process's event loop; started on first use."""
    global _loop, _loop_thread_id
    if _loop is None:
        with _loop_start_lock:
            if _loop is None:
                new = Loop()
                new.thread.start()
                _loop_thread_id = new.thread.ident
                _loop = new
    return _loop


def on_loop_thread() -> bool:
    return threading.get_ident() == _loop_thread_id


def run_soon(fn: Callable, *args) -> None:
    """Run fn(*args) now when on the loop thread, else post it to the loop."""
    if threading.get_ident() == _loop_thread_id:
        fn(*args)
    else:
        loop().post(fn, *args)


def on_loop(method):
    """Decorator: the method always runs on the loop thread; a call from any
    other thread is handed over and waits for the result."""

    @functools.wraps(method)
    def wrapper(*args, **kwargs):
        if threading.get_ident() == _loop_thread_id:
            return method(*args, **kwargs)
        return loop().call(functools.partial(method, *args, **kwargs))

    return wrapper


# --- connections ----------------------------------------------------------

@dataclass(frozen=True)
class ConnectionInfo:
    transport: str
    remote_address: str
    secure: bool = False
    authenticated: str | None = None


class Connection:
    """Duplex message endpoint. Subclasses implement _start_delivery, _send
    and _close; those and the callbacks run on the loop, except `_send`,
    which may be called from any thread."""

    def __init__(self, info: ConnectionInfo):
        self.info = info
        self._on_message: Callable[[bytes], None] | None = None
        self._on_close: Callable[[str], None] | None = None
        self._opened = False
        self._closed = False
        self._close_fired = False

    def open(self, on_message: Callable[[bytes], None],
             on_close: Callable[[str], None]) -> None:
        """Attach handlers and start delivery. Must be called exactly once."""
        if self._opened:
            raise CommError("connection already opened")
        self._opened = True
        run_soon(self._open, on_message, on_close)

    def _open(self, on_message, on_close) -> None:
        self._on_message = on_message
        self._on_close = on_close
        self._start_delivery()
        if self._closed:
            self._fire_close("connection closed")

    @property
    def closed(self) -> bool:
        return self._closed

    def send(self, data: bytes) -> None:
        if self._closed:
            raise ConnectionClosed("connection is closed")
        self._send(data)

    def close(self, reason: str = "closed locally") -> None:
        if self._closed:
            return
        self._closed = True  # sends fail from here on, whichever thread asks
        run_soon(self._close, reason)

    def _deliver(self, data: bytes) -> None:
        """Hand one message to the receive callback; a raising callback
        closes the connection."""
        try:
            self._on_message(data)
        except Exception as e:
            reason = _handler_error(e)
            self.close(reason)
            self._fire_close(reason)

    def _fire_close(self, reason: str) -> None:
        """Run the close callback once; an unopened connection runs it on open."""
        self._closed = True
        if self._close_fired or self._on_close is None:
            return
        self._close_fired = True
        self._on_close(reason)

    # subclass hooks
    def _start_delivery(self) -> None:
        raise NotImplementedError

    def _send(self, data: bytes) -> None:
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
        try:
            port = int(port_text)
        except ValueError:
            raise SpecError(f"malformed transport spec '{spec}': bad port") from None
        if not 0 <= port <= 65535:
            raise SpecError(f"malformed transport spec '{spec}': port out of range")
        parts = host.split(".")
        if len(parts) == 4 and all(p.isdigit() for p in parts):
            if any(int(p) > 255 for p in parts):
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
    """One end of an in-process pair. A send posts the delivery to the loop,
    so the loop's FIFO keeps every connection's order."""

    def __init__(self, hub: str):
        super().__init__(ConnectionInfo("mem", f"mem:{hub}"))
        self._loop = loop()
        self._peer: MemConnection | None = None
        self._held: list[bytes] | None = []  # arrived before open(); None once open

    def _start_delivery(self) -> None:
        held, self._held = self._held, None
        for data in held:
            if self._closed:
                break
            self._deliver(data)

    def _receive(self, data: bytes) -> None:
        if self._held is not None:
            self._held.append(data)
        elif not self._closed:
            self._deliver(data)

    def _send(self, data: bytes) -> None:
        peer = self._peer
        if peer is None or peer._closed:
            raise ConnectionClosed("peer is closed")
        self._loop.post(peer._receive, bytes(data))

    def _close(self, reason: str) -> None:
        if self._peer is not None:
            # after every message already sent, the peer learns of the close
            self._loop.post(self._peer._fire_close, "connection closed")
        self._loop.post(self._fire_close, reason)


def _mem_listen(name: str, on_connection) -> Listener:
    if _mem_hubs.setdefault(name, on_connection) is not on_connection:
        raise ConnectError(f"mem hub '{name}' is already bound")

    def close():
        _mem_hubs.pop(name, None)

    return Listener(f"mem:{name}", close)


def _mem_connect(name: str) -> Connection:
    on_connection = _mem_hubs.get(name)
    if on_connection is None:
        raise ConnectError(f"no mem hub named '{name}'")
    a, b = MemConnection(name), MemConnection(name)
    a._peer, b._peer = b, a
    run_soon(on_connection, b)
    return a


# --- tcp transport ----------------------------------------------------

class TcpConnection(Connection):
    """A non-blocking socket registered with the loop's selector. Bytes the
    kernel does not take at once wait in `_out` for the socket to drain."""

    def __init__(self, sock: socket.socket):
        peername = "unknown"
        try:
            host, port = sock.getpeername()[:2]
            peername = f"{host}:{port}"
        except OSError:
            pass
        super().__init__(ConnectionInfo("tcp", f"tcp:{peername}"))
        sock.setblocking(False)
        self._sock = sock
        self._framer = Framer()
        self._out = bytearray()
        self._events = 0  # what the selector watches for on this socket

    def _watch(self) -> None:
        events = (selectors.EVENT_READ if self._on_message is not None else 0) | \
                 (selectors.EVENT_WRITE if self._out else 0)
        if events == self._events:
            return
        selector = loop().selector
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
        for payload in payloads:
            if self._closed:
                break
            self._deliver(payload)

    def _send(self, data: bytes) -> None:
        run_soon(self._write, frame(data))

    def _write(self, framed: bytes) -> None:
        if self._sock.fileno() < 0:
            return  # released; a send made just before close() still goes out
        if not self._out:
            try:
                sent = self._sock.send(framed)
            except (BlockingIOError, InterruptedError):
                sent = 0
            except OSError as e:
                self._lost(f"send failed: {e}")
                return
            framed = framed[sent:]
        if framed:
            self._out += framed
            self._watch()

    def _flush(self) -> None:
        try:
            sent = self._sock.send(self._out)
        except (BlockingIOError, InterruptedError):
            return
        except OSError as e:
            self._lost(f"send failed: {e}")
            return
        del self._out[:sent]
        if not self._closed:
            self._watch()

    def _lost(self, reason: str) -> None:
        self._closed = True
        self._release()
        self._fire_close(reason)

    def _release(self) -> None:
        if self._events:
            loop().selector.unregister(self._sock)
            self._events = 0
        if self._sock.fileno() >= 0:
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()

    def _close(self, reason: str) -> None:
        if self._out:  # one last try for what the kernel has not taken yet
            try:
                self._sock.send(self._out)
            except OSError:
                pass
        self._release()
        loop().post(self._fire_close, reason)


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
    # a blocking connect, so it runs on the calling thread, never on the loop
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
