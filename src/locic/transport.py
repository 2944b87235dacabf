"""Communicators: listening/connecting transports yielding message connections.

Two transports are built in:

  mem:NAME        in-process hub, used by tests and `locic sim`
  tcp:HOST:PORT   length-prefixed frames over a TCP socket

Both yield `Connection` objects: bidirectional, FIFO per connection, with
sequential receive callbacks. Delivery starts when `open()` is called;
messages arriving earlier are buffered (mem) or left in the socket (tcp).
An exception raised by the receive callback closes the connection with a
"handler error: ..." reason instead of stopping delivery silently.
"""

from __future__ import annotations

import queue
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


@dataclass(frozen=True)
class ConnectionInfo:
    transport: str
    remote_address: str
    secure: bool = False
    authenticated: str | None = None


class Connection:
    """Duplex message endpoint. Subclasses implement _send/_close."""

    def __init__(self, info: ConnectionInfo):
        self.info = info
        self._on_message: Callable[[bytes], None] | None = None
        self._on_close: Callable[[str], None] | None = None
        self._close_lock = threading.Lock()
        self._closed = False
        self._close_fired = False

    def open(self, on_message: Callable[[bytes], None],
             on_close: Callable[[str], None]) -> None:
        """Attach handlers and start delivery. Must be called exactly once."""
        if self._on_message is not None:
            raise CommError("connection already opened")
        self._on_message = on_message
        self._on_close = on_close
        self._start_delivery()

    @property
    def closed(self) -> bool:
        return self._closed

    def send(self, data: bytes) -> None:
        if self._closed:
            raise ConnectionClosed("connection is closed")
        self._send(data)

    def close(self, reason: str = "closed locally") -> None:
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self._close(reason)

    def _fire_close(self, reason: str) -> None:
        with self._close_lock:
            if self._close_fired:
                return
            self._close_fired = True
            self._closed = True
        if self._on_close is not None:
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
    import logging  # only a failing handler pays for the import

    logging.getLogger(__name__).error("message handler failed; closing the connection",
                                      exc_info=e)
    return f"handler error: {type(e).__name__}: {e}"


# --- in-process transport ---------------------------------------------

_CLOSE = object()

_mem_hubs: dict[str, Callable[["Connection"], None]] = {}
_mem_lock = threading.Lock()


class MemConnection(Connection):
    def __init__(self, hub: str, label: str):
        super().__init__(ConnectionInfo("mem", f"mem:{hub}"))
        self._inbox: queue.Queue = queue.Queue()
        self._peer: MemConnection | None = None
        self._label = label

    def _start_delivery(self) -> None:
        t = threading.Thread(target=self._pump, name=f"mem-pump-{self._label}", daemon=True)
        t.start()

    def _pump(self) -> None:
        reason = "connection closed"
        try:
            while True:
                item = self._inbox.get()
                if item is _CLOSE:
                    break
                if self._closed:
                    continue
                self._on_message(item)
        except Exception as e:
            reason = _handler_error(e)
            self.close(reason)
        self._fire_close(reason)

    def _send(self, data: bytes) -> None:
        peer = self._peer
        if peer is None or peer._closed:
            raise ConnectionClosed("peer is closed")
        peer._inbox.put(bytes(data))

    def _close(self, reason: str) -> None:
        peer = self._peer
        if peer is not None:
            peer._inbox.put(_CLOSE)
        self._inbox.put(_CLOSE)


def _mem_listen(name: str, on_connection) -> Listener:
    with _mem_lock:
        if name in _mem_hubs:
            raise ConnectError(f"mem hub '{name}' is already bound")
        _mem_hubs[name] = on_connection

    def close():
        with _mem_lock:
            _mem_hubs.pop(name, None)

    return Listener(f"mem:{name}", close)


def _mem_connect(name: str) -> Connection:
    with _mem_lock:
        on_connection = _mem_hubs.get(name)
    if on_connection is None:
        raise ConnectError(f"no mem hub named '{name}'")
    a = MemConnection(name, "connector")
    b = MemConnection(name, "acceptor")
    a._peer, b._peer = b, a
    on_connection(b)
    return a


# --- tcp transport ----------------------------------------------------

class TcpConnection(Connection):
    def __init__(self, sock: socket.socket):
        peername = "unknown"
        try:
            host, port = sock.getpeername()[:2]
            peername = f"{host}:{port}"
        except OSError:
            pass
        super().__init__(ConnectionInfo("tcp", f"tcp:{peername}"))
        self._sock = sock
        self._send_lock = threading.Lock()

    def _start_delivery(self) -> None:
        t = threading.Thread(target=self._read_loop, name="tcp-read", daemon=True)
        t.start()

    def _read_loop(self) -> None:
        framer = Framer()
        reason = "connection closed"
        try:
            while True:
                data = self._sock.recv(65536)
                if not data:
                    break
                for payload in framer.feed(data):
                    if self._closed:
                        break
                    self._on_message(payload)
                if self._closed:
                    break
        except ProtocolError as e:
            reason = f"protocol error: {e}"
        except OSError:
            pass
        except Exception as e:
            reason = _handler_error(e)
        self.close(reason)  # releases the socket unless it was closed locally
        self._fire_close(reason)

    def _send(self, data: bytes) -> None:
        try:
            with self._send_lock:
                self._sock.sendall(frame(data))
        except OSError as e:
            raise ConnectionClosed(f"send failed: {e}") from None

    def _close(self, reason: str) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        if self._on_message is None:
            # never opened: no read loop to fire the close callback
            self._close_fired = True


def _tcp_listen(host: str, port: int, on_connection) -> Listener:
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        server.bind((host, port))
    except OSError as e:
        server.close()
        raise ConnectError(f"cannot bind tcp:{host}:{port}: {e}") from None
    server.listen()
    # closing a listening socket does not wake a blocked accept() on Linux,
    # so the loop polls and the socket is closed from inside the thread
    server.settimeout(0.2)
    bound_host, bound_port = server.getsockname()[:2]
    stop = threading.Event()

    def accept_loop():
        while not stop.is_set():
            try:
                sock, _ = server.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            if stop.is_set():
                sock.close()
                break
            sock.setblocking(True)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            on_connection(TcpConnection(sock))
        server.close()

    thread = threading.Thread(target=accept_loop, name=f"tcp-accept-{bound_port}", daemon=True)
    thread.start()

    def close():
        stop.set()
        thread.join(2)

    return Listener(f"tcp:{bound_host}:{bound_port}", close)


def _tcp_connect(host: str, port: int) -> Connection:
    try:
        sock = socket.create_connection((host, port), timeout=10)
    except OSError as e:
        raise ConnectError(f"cannot connect to tcp:{host}:{port}: {e}") from None
    sock.settimeout(None)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return TcpConnection(sock)


# --- public entry points ----------------------------------------------

def listen(spec: str, on_connection: Callable[[Connection], None]) -> Listener:
    parsed = parse_spec(spec)
    if parsed[0] == "mem":
        return _mem_listen(parsed[1], on_connection)
    return _tcp_listen(parsed[1], parsed[2], on_connection)


def connect(spec: str) -> Connection:
    parsed = parse_spec(spec)
    if parsed[0] == "mem":
        return _mem_connect(parsed[1])
    return _tcp_connect(parsed[1], parsed[2])
