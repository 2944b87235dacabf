import random
import threading
import time

import pytest

import helpers
from locic.sigs import ModuleSig, PeerSig, ValueSig
from locic.transport import (ConnectError, ConnectionClosed, SpecError,
                             connect, listen, parse_spec)
from locic.wire import (MAX_FRAME_LEN, Framer, Hello, ProtocolError, Request,
                        decode_envelope, encode_envelope, frame)


# --- framing ------------------------------------------------------------

def test_frame_example_bytes():
    assert frame(b"{}") == b"\x00\x00\x00\x02\x7b\x7d"


def test_frame_empty_payload():
    assert frame(b"") == b"\x00\x00\x00\x00"


def test_unframe_buffers_partial_reads():
    framer = Framer()
    framed = frame(b"hello") + frame(b"") + frame(b"world")
    out = []
    for i in range(0, len(framed), 3):
        out.extend(framer.feed(framed[i:i + 3]))
    assert out == [b"hello", b"", b"world"]


def test_oversize_frame_rejected():
    framer = Framer()
    with pytest.raises(ProtocolError):
        framer.feed((MAX_FRAME_LEN + 1).to_bytes(4, "big"))
    with pytest.raises(ProtocolError):
        frame(b"x" * (MAX_FRAME_LEN + 1))


def test_chunked_round_trip_fuzz():
    rng = random.Random(99)
    payloads = [rng.randbytes(rng.randint(0, 4096)) for _ in range(200)]
    blob = b"".join(frame(p) for p in payloads)
    framer = Framer()
    out = []
    i = 0
    while i < len(blob):
        step = rng.randint(1, 50)
        out.extend(framer.feed(blob[i:i + step]))
        i += step
    assert out == payloads


# --- envelopes ------------------------------------------------------------

def test_request_canonical_encoding():
    req = Request(1, ValueSig("i:Int", ModuleSig("SimpleModule")), b"")
    assert encode_envelope(req) == \
        b'{"t":"req","id":1,"mod":"SimpleModule","path":[],"val":"i:Int","args":""}'


def test_decode_request_example():
    data = b'{"t":"req","id":1,"mod":"SimpleModule","path":[],"val":"i:Int","args":""}'
    assert decode_envelope(data) == Request(1, ValueSig("i:Int", ModuleSig("SimpleModule")), b"")


def test_unknown_variant_rejected():
    with pytest.raises(ProtocolError):
        decode_envelope(b'{"t":"nope"}')


def test_missing_field_rejected():
    with pytest.raises(ProtocolError):
        decode_envelope(b'{"t":"req","id":1}')
    with pytest.raises(ProtocolError):
        decode_envelope(b'{"t":"res","id":1,"ok":true}')
    with pytest.raises(ProtocolError):
        decode_envelope(b"not json")
    with pytest.raises(ProtocolError):
        decode_envelope(b'{"t":"chanmsg","chan":1,"payload":"@@@"}')


def test_envelope_generator_round_trip():
    rng = random.Random(5)
    for _ in range(500):
        env = helpers.random_envelope(rng)
        assert decode_envelope(encode_envelope(env)) == env


def test_hello_encoding_carries_both_signatures():
    hello = Hello(ModuleSig("P2P"), PeerSig("Monitor", ModuleSig("Monitoring", ("mon",))))
    decoded = decode_envelope(encode_envelope(hello))
    assert decoded.module == ModuleSig("P2P")
    assert decoded.peer.module.path == ("mon",)


# --- transport specs -------------------------------------------------------

def test_spec_parsing():
    assert parse_spec("mem:hub1") == ("mem", "hub1")
    assert parse_spec("tcp:127.0.0.1:80") == ("tcp", "127.0.0.1", 80)
    assert parse_spec("tcp:localhost:8080") == ("tcp", "localhost", 8080)


@pytest.mark.parametrize("spec", [
    "tcp:256.0.0.1:99",
    "tcp:127.0.0.1:notaport",
    "tcp:127.0.0.1:70000",
    "tcp:nohost",
    "mem:",
    "carrier-pigeon:coop",
])
def test_malformed_specs(spec):
    with pytest.raises(SpecError):
        parse_spec(spec)


# --- mem transport -----------------------------------------------------------

class Collector:
    def __init__(self):
        self.messages = []
        self.closed = threading.Event()
        self.got = threading.Condition()

    def on_message(self, data):
        with self.got:
            self.messages.append(data)
            self.got.notify_all()

    def on_close(self, reason):
        self.closed.set()

    def wait_count(self, n, timeout=5.0):
        with self.got:
            return self.got.wait_for(lambda: len(self.messages) >= n, timeout)


def _pair(spec):
    accepted = []
    ready = threading.Event()

    def on_connection(conn):
        accepted.append(conn)
        ready.set()

    listener = listen(spec, on_connection)
    client = connect(listener.address)
    assert ready.wait(5)
    return listener, client, accepted[0]


def test_mem_loopback_echo():
    listener, client, server = _pair("mem:hub-echo")
    try:
        server_rx = Collector()
        server.open(server_rx.on_message, server_rx.on_close)
        client_rx = Collector()
        client.open(client_rx.on_message, client_rx.on_close)
        client.send(b"ab")
        assert server_rx.wait_count(1)
        assert server_rx.messages == [b"ab"]
        server.send(b"ba")
        assert client_rx.wait_count(1)
        assert client_rx.messages == [b"ba"]
    finally:
        client.close()
        listener.close()


def test_mem_unknown_hub():
    with pytest.raises(ConnectError):
        connect("mem:never-bound")


def test_mem_fifo_1000_messages():
    listener, client, server = _pair("mem:hub-fifo")
    try:
        rx = Collector()
        server.open(rx.on_message, rx.on_close)
        client.open(lambda d: None, lambda r: None)
        for n in range(1000):
            client.send(n.to_bytes(4, "big"))
        assert rx.wait_count(1000)
        assert [int.from_bytes(m, "big") for m in rx.messages] == list(range(1000))
    finally:
        client.close()
        listener.close()


def test_mem_send_after_close_fails():
    listener, client, server = _pair("mem:hub-close")
    try:
        rx = Collector()
        client.open(rx.on_message, rx.on_close)
        server.open(lambda d: None, lambda r: None)
        client.close()
        with pytest.raises(ConnectionClosed):
            client.send(b"too late")
        assert rx.closed.wait(5)
    finally:
        listener.close()


def test_mem_close_propagates_to_peer():
    listener, client, server = _pair("mem:hub-close2")
    try:
        client_rx = Collector()
        client.open(client_rx.on_message, client_rx.on_close)
        server_rx = Collector()
        server.open(server_rx.on_message, server_rx.on_close)
        server.close()
        assert client_rx.closed.wait(5)
    finally:
        listener.close()


# --- tcp transport --------------------------------------------------------

def test_tcp_ephemeral_bind_reports_port():
    listener = listen("tcp:127.0.0.1:0", lambda conn: None)
    try:
        kind, host, port = parse_spec(listener.address)
        assert kind == "tcp"
        assert port > 0
    finally:
        listener.close()


def test_tcp_echo_and_fifo():
    listener, client, server = _pair("tcp:127.0.0.1:0")
    try:
        rx = Collector()
        server.open(rx.on_message, rx.on_close)
        client_rx = Collector()
        client.open(client_rx.on_message, client_rx.on_close)
        for n in range(500):
            client.send(n.to_bytes(4, "big"))
        assert rx.wait_count(500)
        assert [int.from_bytes(m, "big") for m in rx.messages] == list(range(500))
        server.send(b"pong")
        assert client_rx.wait_count(1)
        assert client_rx.messages == [b"pong"]
    finally:
        client.close()
        server.close()
        listener.close()


def test_tcp_refused():
    probe = listen("tcp:127.0.0.1:0", lambda conn: None)
    _, host, port = parse_spec(probe.address)
    probe.close()
    time.sleep(0.05)
    with pytest.raises(ConnectError):
        connect(f"tcp:{host}:{port}")


@pytest.mark.parametrize("spec", ["mem:hub-handler-error", "tcp:127.0.0.1:0"])
def test_handler_error_closes_connection(spec):
    listener, client, server = _pair(spec)
    try:
        reasons = []
        closed = threading.Event()

        def on_message(data):
            raise ValueError(f"cannot handle {data!r}")

        def on_close(reason):
            reasons.append(reason)
            closed.set()

        server.open(on_message, on_close)
        client_rx = Collector()
        client.open(client_rx.on_message, client_rx.on_close)
        client.send(b"x")
        assert closed.wait(5)
        assert reasons == ["handler error: ValueError: cannot handle b'x'"]
        assert server.closed
        assert client_rx.closed.wait(5)  # the other end learns of it too
    finally:
        client.close()
        server.close()
        listener.close()


def test_tcp_large_payload_round_trip():
    rng = random.Random(123)
    payloads = [rng.randbytes(rng.randint(0, 1024 * 1024)) for _ in range(5)]
    listener, client, server = _pair("tcp:127.0.0.1:0")
    try:
        rx = Collector()
        server.open(rx.on_message, rx.on_close)
        client.open(lambda d: None, lambda r: None)
        for p in payloads:
            client.send(p)
        assert rx.wait_count(len(payloads), timeout=10)
        assert rx.messages == payloads
    finally:
        client.close()
        server.close()
        listener.close()


def test_mem_hub_double_bind_fails():
    listener = listen("mem:hub-dup", lambda conn: None)
    try:
        with pytest.raises(ConnectError):
            listen("mem:hub-dup", lambda conn: None)
    finally:
        listener.close()


def test_tcp_bind_failure():
    listener = listen("tcp:127.0.0.1:0", lambda conn: None)
    try:
        with pytest.raises(ConnectError):
            listen(listener.address, lambda conn: None)
    finally:
        listener.close()


def test_mem_hub_name_reusable_after_close():
    listener = listen("mem:hub-reuse", lambda conn: None)
    listener.close()
    again = listen("mem:hub-reuse", lambda conn: None)
    again.close()


def test_unframe_one_shot():
    from locic.wire import unframe

    assert unframe(frame(b"ab") + frame(b"")) == [b"ab", b""]
    with pytest.raises(ProtocolError):
        unframe(frame(b"ab") + b"\x00")


@pytest.mark.parametrize("spec", ["mem:hub-send-then-close", "tcp:127.0.0.1:0"])
def test_send_just_before_close_is_delivered(spec):
    listener, client, server = _pair(spec)
    try:
        rx = Collector()
        server.open(rx.on_message, rx.on_close)
        client.open(lambda d: None, lambda r: None)
        client.send(b"last words")
        client.close()
        assert rx.closed.wait(5)
        assert rx.messages == [b"last words"]
    finally:
        server.close()
        listener.close()
