import itertools
import json
import queue
import random
import selectors
import socket
import sys
import threading
import time
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from locic.codecs import CodecError, parse_codec
from locic.sigs import ModuleSig, PeerSig, ValueSig
from locic.transmit import FAILED, READY, Endpoint, FutureSlot, StreamHandle
from locic.transport import (ConnectError, ConnectionClosed, Loop, SpecError,
                             connect, listen, loop, parse_spec)
from locic import wire
from locic.wire import (MAX_FRAME_LEN, ChanClose, ChanMsg, ChanOpen, Framer, Hello,
                        HelloAck, ProtocolError, Request, Response, decode_envelope,
                        encode_envelope, frame)


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
    req = Request(1, ValueSig("i:Int", ModuleSig("SimpleModule")))
    assert encode_envelope(req) == \
        b'{"t":"req","id":1,"mod":"SimpleModule","path":[],"val":"i:Int"}'


def test_response_and_chanmsg_canonical_encoding():
    # the payload follows the header raw: not base64, not quoted
    assert encode_envelope(Response(3, True, payload=b'[1,"a"]')) == \
        b'{"t":"res","id":3,"ok":true}[1,"a"]'
    assert encode_envelope(ChanMsg(2, b"41")) == b'{"t":"chanmsg","chan":2}41'


@st.composite
def _hot_envelopes(draw):
    """A Request, ok Response, ChanMsg or ChanOpen, with the dict that is
    the canonical JSON form of its header, and its payload (b"" for none)."""
    ident = draw(st.integers(0, 2**63))
    kind = draw(st.sampled_from(["req", "res", "chanmsg", "chanopen"]))
    if kind in ("res", "chanmsg"):
        payload = draw(st.binary(min_size=1, max_size=64))
        if kind == "res":
            return Response(ident, True, payload=payload), \
                {"t": "res", "id": ident, "ok": True}, payload
        return ChanMsg(ident, payload), {"t": "chanmsg", "chan": ident}, payload
    # any text but lone surrogates: quotes, backslashes, controls, non-ASCII
    name, val = draw(st.text()), draw(st.text())
    path = draw(st.lists(st.text(), max_size=3))
    value = ValueSig(val, ModuleSig(name, tuple(path)))
    fields = {"mod": name, "path": path, "val": val}
    if kind == "req":
        return Request(ident, value), {"t": "req", "id": ident, **fields}, b""
    return ChanOpen(ident, value), {"t": "chanopen", "chan": ident, **fields}, b""


@settings(max_examples=300, deadline=None)
@given(_hot_envelopes())
def test_templated_envelopes_match_the_generic_encoding(case):
    env, header, payload = case
    data = encode_envelope(env)
    assert data == json.dumps(header, separators=(",", ":"), ensure_ascii=False).encode() + payload
    assert decode_envelope(data) == env


def _outcome(decode, data: bytes):
    try:
        return "ok", decode(data)
    except ProtocolError as e:
        return "error", str(e)


_IDS = st.one_of(st.integers(0, 10**16 - 1).map(b"%d".__mod__), st.integers(0, 10**17).flatmap(
    lambda n: st.sampled_from([
        b"-%d" % n, b"+%d" % n, b"0%d" % n, b"%d" % (n + 10**16),  # 17 digits
        b" %d" % n, b"%d " % n, b"%d.0" % n, b"%de0" % n, b"",
    ])))


_MODS = ["M", "Settle", "é", "a\nb"]
_PATH_PARTS = ["a", "lib", "\x00"]
_VALS = ["x:Int", "h1:(Int, Str)", "s:Stream[Int]"]
# every value `_value_parts` draws but two: one unserved, one that cannot be encoded
_SERVED = wire.value_parts(
    ValueSig(val, ModuleSig(mod, path)) for mod in _MODS for val in _VALS
    for size in range(3) for path in itertools.product(_PATH_PARTS, repeat=size))


@st.composite
def _value_parts(draw):
    """The value part of a req or chanopen frame (from `"mod"` to the
    closing brace): canonical, or written some other way JSON allows."""
    fields = {"mod": draw(st.sampled_from(_MODS)),
              "path": draw(st.lists(st.sampled_from(_PATH_PARTS), max_size=2)),
              "val": draw(st.sampled_from(_VALS + ["z:Int", "\ud800"]))}  # neither served
    canonical = json.dumps(fields, separators=(",", ":"), ensure_ascii=False)[1:]
    form = draw(st.sampled_from(["canonical"] * 3 + ["spaced", "reordered", "duplicate",
                                                       "escaped"]))
    if form == "spaced":
        return json.dumps(fields, ensure_ascii=False)[1:].encode("utf-8", "surrogatepass")
    if form == "reordered":
        back = dict(reversed(list(fields.items())))
        return json.dumps(back, separators=(",", ":"), ensure_ascii=False)[1:].encode(
            "utf-8", "surrogatepass")
    if form == "duplicate":
        canonical = canonical[:-1] + ',"val":"y:Int"}'
    if form == "escaped":
        return json.dumps(fields, separators=(",", ":"))[1:].encode()  # every non-ASCII as \\u
    return canonical.encode("utf-8", "surrogatepass")


@st.composite
def _hot_frames(draw):
    """A frame of a hot variant, as its template writes it or changed a
    little: a non-canonical id, value part or payload, then maybe one byte
    inserted, deleted or replaced."""
    ident = draw(_IDS)
    kind = draw(st.sampled_from(["req", "res", "chanmsg", "chanopen"]))
    if kind in ("res", "chanmsg"):
        head = b'{"t":"res","id":%s,"ok":true}' if kind == "res" else b'{"t":"chanmsg","chan":%s}'
        data = head % ident + draw(st.one_of(st.binary(min_size=1, max_size=8), st.just(b"")))
    else:
        head = b'{"t":"req","id":%s,' if kind == "req" else b'{"t":"chanopen","chan":%s,'
        tail = draw(st.sampled_from([b"", b"", b"", b"4", b" ", b"\xff"]))
        data = head % ident + draw(_value_parts()) + tail
    edit = draw(st.sampled_from(["none"] * 3 + ["insert", "delete", "replace"]))
    if edit != "none" and data:
        at = draw(st.integers(0, len(data) - 1))
        byte = bytes([draw(st.integers(0, 255))])
        data = {"insert": data[:at] + byte + data[at:], "delete": data[:at] + data[at + 1:],
                "replace": data[:at] + byte + data[at + 1:]}[edit]
    return data


@settings(max_examples=1000, deadline=None)
@given(_hot_frames())
def test_template_reading_of_hot_frames_matches_the_json_decoder(data):
    # the general decoder parses every frame's header as JSON
    expected = _outcome(wire._decode_json_envelope, data)
    assert _outcome(lambda raw: decode_envelope(raw, _SERVED), data) == expected


def test_canonical_hot_frames_are_read_without_parsing_json(monkeypatch):
    value = ValueSig("h1:(Int, Str)", ModuleSig("Settle", ("lib",)))
    envs = [Request(12, value), ChanOpen(9_999_999_999_999_999, value),
            Response(0, True, payload=b'[1,"x"]'), ChanMsg(7, b"}")]
    frames = [encode_envelope(env) for env in envs]

    def parse(data):
        raise AssertionError(f"parsed as JSON: {data!r}")

    monkeypatch.setattr(wire, "_decode_json_envelope", parse)
    assert [decode_envelope(data, wire.value_parts([value])) for data in frames] == envs


def test_remote_values_fill_no_process_wide_state():
    heads = (b'{"t":"req","id":%d,', b'{"t":"chanopen","chan":%d,')
    frames = [head % n + b'"mod":"M","path":["lib"],"val":"v%d:Int"}' % n
              for n in range(2000) for head in heads]
    assert max(map(len, frames)) < 256
    before = wire._value_fields.cache_info()
    for data in frames:
        assert decode_envelope(data) == wire._decode_json_envelope(data)
    assert wire._value_fields.cache_info() == before


@pytest.mark.parametrize("payload", [b"\xff", b"\x80\x00\xfe", b'"\xed\xa0\x80"', b"\xc3", b"}{"])
def test_a_payload_may_be_any_bytes(payload):
    # undecodable bytes, an encoded surrogate, a cut sequence: the codec judges them
    for env in (Response(7, True, payload=payload), ChanMsg(4, payload)):
        assert decode_envelope(encode_envelope(env)) == env


@pytest.mark.parametrize("data", [b'{"t":"res","id":1,"ok":true}', b'{"t":"chanmsg","chan":1}'])
def test_an_empty_payload_is_refused(data):
    with pytest.raises(ProtocolError, match="missing its payload"):
        decode_envelope(data)


@pytest.mark.parametrize("env", [
    Request(1, ValueSig("i:Int", ModuleSig("M"))),
    ChanOpen(3, ValueSig("s:Stream[Int]", ModuleSig("M"))),
    HelloAck(True),
    Response(1, False, error="boom"),
    ChanClose(3),
])
@pytest.mark.parametrize("tail", [b"4", b"\xff", b"{}"])
def test_bytes_after_a_variant_without_a_payload_are_refused(env, tail):
    with pytest.raises(ProtocolError, match="malformed envelope"):
        decode_envelope(encode_envelope(env) + tail)


@pytest.mark.parametrize("data", [
    b'{"t":"helloack","accepted":false,"reason":"\xff"}',
    b'{"t":"chanmsg","chan":1,"x":"\xc3"}41',  # a cut sequence, before a payload
    b'{"t":"res","id":1,"ok":true,"\xed\xa0\x80":0}1',  # an encoded surrogate
    b'{"t":"chanclose"\xff,"chan":1}',
])
def test_invalid_utf8_in_the_header_is_refused(data):
    with pytest.raises(ProtocolError, match="malformed envelope"):
        decode_envelope(data)


@pytest.mark.parametrize("pad", [b" ", b"\n", b"\t", b"\r"])
def test_whitespace_around_an_envelope_or_a_payload_is_refused(pad):
    data = encode_envelope(Request(1, ValueSig("i:Int", ModuleSig("M"))))
    for padded in (pad + data, data + pad):
        with pytest.raises(ProtocolError, match="malformed envelope"):
            decode_envelope(padded)
    for padded in (pad + b"42", b"42" + pad):
        with pytest.raises(CodecError):
            parse_codec("Int").deserialize(padded)


def test_json_nested_too_deep_to_parse_is_a_decode_error():
    data = b"[" * 100_000
    with pytest.raises(ProtocolError, match="malformed envelope"):
        decode_envelope(data)
    with pytest.raises(CodecError, match="invalid encoding"):
        parse_codec("Int").deserialize(data)


def test_decode_request_example():
    data = b'{"t":"req","id":1,"mod":"SimpleModule","path":[],"val":"i:Int"}'
    assert decode_envelope(data) == Request(1, ValueSig("i:Int", ModuleSig("SimpleModule")))


@pytest.mark.parametrize("data", [
    b'{"t":"req","id":99,"mod":"SimpleModule","path":[],"val":"\\ud800"}',
    b'{"t":"helloack","accepted":false,"reason":"no \\udfff"}',
    b'{"t":"chanopen","chan":1,"mod":"M\\uDBFF","path":[],"val":"s:Stream[Int]"}',
    b'{"t":"chanclose","chan":1,"x\\ud83d":0}',  # in a key the decoder ignores
    b'{"t":"res","id":1,"ok":false,"error":"\\ude00\\ud83d"}',  # a pair in the wrong order
])
def test_lone_surrogate_escape_is_refused(data):
    with pytest.raises(ProtocolError, match="malformed envelope"):
        decode_envelope(data)


def test_escaped_surrogate_pair_is_one_character():
    data = b'{"t":"helloack","accepted":false,"reason":"\\ud83d\\ude00"}'
    assert decode_envelope(data) == HelloAck(False, "\U0001F600")


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
    with pytest.raises(ProtocolError):  # a header missing its id, before a payload
        decode_envelope(b'{"t":"res","ok":true}42')


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
    # a port or IPv4 part is ASCII digits only
    "tcp:127.0.0.1:+80",
    "tcp:127.0.0.1: 80",
    "tcp:127.0.0.1:8_0",
    "tcp:127.0.0.1:\u0668\u0660",
    "tcp:1.2.3.\u00b2:80",
    "tcp:1.2.3.\u0668:80",
    "tcp:1.2.3." + "9" * 5000 + ":80",  # too long for int() to read
])
def test_malformed_specs(spec):
    with pytest.raises(SpecError):
        parse_spec(spec)


# --- timers ------------------------------------------------------------------

def test_call_later_runs_due_timers_in_deadline_order_and_skips_cancelled():
    fired = []
    done = threading.Event()

    def schedule():
        loop().call_later(0.05, fired.append, "late")
        loop().call_later(0, fired.append, "early")
        loop().call_later(0.01, fired.append, "cancelled").cancel()
        loop().call_later(0.1, done.set)

    loop().call(schedule)
    assert done.wait(5)
    assert fired == ["early", "late"]


def test_cancelled_timers_do_not_pile_up():
    def churn():
        for _ in range(10_000):
            loop().call_later(60, print).cancel()
        return len(loop()._timers)

    # a cancelled timer is dropped long before its deadline comes
    assert loop().call(churn) < 1_000


# --- who drives the loop ---------------------------------------------------------

class _SettlesOnSecondLook:
    """A future whose `done()` answers False once. The second call comes
    from the driver checking whether it may stop: it runs `hook`, then
    answers True."""

    def __init__(self, hook):
        self.hook, self.calls = hook, 0

    def done(self) -> bool:
        self.calls += 1
        if self.calls == 2:
            self.hook()
        return self.calls > 1

    def on_settle(self, cb) -> None:
        cb(self)


def _post_from_another_thread(lp: Loop, ran: threading.Event) -> threading.Thread:
    thread = threading.Thread(target=lp.post, args=(ran.set,))
    thread.start()
    return thread


# These tests drive loops of their own, which no earlier test can have left
# with work for a daemon thread to drive.

def test_a_post_made_while_the_driver_stops_still_runs():
    # the whole post, its look at who drives included, lands after the
    # driver's last look at the ready callbacks and before it gives the loop
    # back: giving it back must find the callback and hand it over
    lp = Loop()
    ran = threading.Event()
    posters = []

    def post_and_wait():
        posters.append(_post_from_another_thread(lp, ran))
        posters[0].join(5)

    driver = threading.Thread(target=lp.run_until, args=(_SettlesOnSecondLook(post_and_wait), 5))
    driver.start()
    driver.join(5)
    assert not driver.is_alive() and posters and not posters[0].is_alive()
    assert ran.wait(5)


def test_a_post_that_lands_while_the_driver_gives_the_loop_back_still_runs(monkeypatch):
    # the post appends its callback while the driver, holding the lock, asks
    # whether work is left, and takes the lock only once the driver let go
    lp = Loop()
    ran = threading.Event()
    busy = lp._busy
    hooked = []

    def busy_once_posted():
        if not hooked and threading.current_thread() is driver:
            hooked.append(_post_from_another_thread(lp, ran))
            deadline = time.monotonic() + 5
            while not lp._ready and time.monotonic() < deadline:
                time.sleep(0.001)
        return busy()

    monkeypatch.setattr(lp, "_busy", busy_once_posted)
    driver = threading.Thread(target=lp.call, args=(lambda: None,))
    driver.start()
    driver.join(5)
    assert not driver.is_alive() and hooked
    hooked[0].join(5)
    assert not hooked[0].is_alive()
    assert ran.wait(5)


def test_the_loop_counts_watched_sockets_in_the_selectors_own_table():
    # `_watched` is a private attribute of the stdlib selectors (a Python
    # that renames it fails here): it must track every registration
    lp = Loop()
    a, b = socket.socketpair()
    try:
        assert len(lp._watched) == len(lp.selector.get_map()) == 1  # the wake pipe
        lp.selector.register(a, selectors.EVENT_READ)
        assert len(lp._watched) == len(lp.selector.get_map()) == 2
        lp.selector.unregister(a)
        assert len(lp._watched) == len(lp.selector.get_map()) == 1
    finally:
        a.close()
        b.close()


def test_the_driver_runs_a_call_inline_and_a_second_thread_waits_for_it():
    lp = Loop()
    inside = threading.Event()
    release = threading.Event()
    seen = []

    def hold():
        seen.append(("driver", threading.get_ident() == lp._owner))
        inside.set()
        release.wait(5)
        return "held"

    driver_result = []
    driver = threading.Thread(target=lambda: driver_result.append(lp.call(hold)))
    driver.start()
    assert inside.wait(5)
    waiter_result = []
    waiter = threading.Thread(target=lambda: waiter_result.append(
        lp.call(lambda: threading.get_ident() == lp._owner)))
    waiter.start()
    deadline = time.monotonic() + 5
    while not lp._ready and time.monotonic() < deadline:
        time.sleep(0.001)
    release.set()
    driver.join(5)
    waiter.join(5)
    assert not driver.is_alive() and not waiter.is_alive()
    # the waiter's function ran on the loop, but not on the waiter's thread
    assert seen == [("driver", True)] and driver_result == ["held"]
    assert waiter_result == [True]


def test_threads_calling_and_posting_at_once_lose_no_callback_and_never_overlap():
    # more threads than cores take the loop, post to it and wait on it, with
    # thread switches forced often; a callback that ran twice, never, or at
    # the same time as another would break the count or the overlap check
    lp = Loop()
    state = {"running": False, "overlaps": 0, "ran": 0}
    per_thread = 300

    def step():
        if state["running"]:
            state["overlaps"] += 1
        state["running"] = True
        ran = state["ran"]
        time.sleep(0)  # lets another thread in, were it to run callbacks too
        state["ran"] = ran + 1
        state["running"] = False

    def work():
        for n in range(per_thread):
            if n % 2:
                lp.call(step)
            else:
                lp.post(step)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    deadline = time.monotonic() + 10
    while state["ran"] < 4 * per_thread and time.monotonic() < deadline:
        time.sleep(0.01)
    assert state == {"running": False, "overlaps": 0, "ran": 4 * per_thread}


# --- mem transport -----------------------------------------------------------

class Collector:
    def __init__(self):
        self.messages = []
        self.events = []  # messages and the close, in the order they came
        self.closed = threading.Event()
        self.got = threading.Condition()

    def on_message(self, data):
        with self.got:
            self.messages.append(data)
            self.events.append(("message", data))
            self.got.notify_all()

    def on_close(self, reason):
        self.events.append(("close", reason))
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
        loop().call(server.open, server_rx.on_message, server_rx.on_close)
        client_rx = Collector()
        loop().call(client.open, client_rx.on_message, client_rx.on_close)
        loop().call(client.send, b"ab")
        assert server_rx.wait_count(1)
        assert server_rx.messages == [b"ab"]
        loop().call(server.send, b"ba")
        assert client_rx.wait_count(1)
        assert client_rx.messages == [b"ba"]
    finally:
        loop().call(client.close)
        listener.close()


def test_mem_unknown_hub():
    with pytest.raises(ConnectError):
        connect("mem:never-bound")


def test_mem_fifo_1000_messages():
    listener, client, server = _pair("mem:hub-fifo")
    try:
        rx = Collector()
        loop().call(server.open, rx.on_message, rx.on_close)
        loop().call(client.open, lambda d: None, lambda r: None)
        for n in range(1000):
            loop().call(client.send, n.to_bytes(4, "big"))
        assert rx.wait_count(1000)
        assert [int.from_bytes(m, "big") for m in rx.messages] == list(range(1000))
    finally:
        loop().call(client.close)
        listener.close()


def test_mem_send_after_close_fails():
    listener, client, server = _pair("mem:hub-close")
    try:
        rx = Collector()
        loop().call(client.open, rx.on_message, rx.on_close)
        loop().call(server.open, lambda d: None, lambda r: None)
        loop().call(client.close)
        with pytest.raises(ConnectionClosed):
            loop().call(client.send, b"too late")
        assert rx.closed.wait(5)
    finally:
        listener.close()


def test_mem_close_propagates_to_peer():
    listener, client, server = _pair("mem:hub-close2")
    try:
        client_rx = Collector()
        loop().call(client.open, client_rx.on_message, client_rx.on_close)
        server_rx = Collector()
        loop().call(server.open, server_rx.on_message, server_rx.on_close)
        loop().call(server.close)
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
        loop().call(server.open, rx.on_message, rx.on_close)
        client_rx = Collector()
        loop().call(client.open, client_rx.on_message, client_rx.on_close)
        for n in range(500):
            loop().call(client.send, n.to_bytes(4, "big"))
        assert rx.wait_count(500)
        assert [int.from_bytes(m, "big") for m in rx.messages] == list(range(500))
        loop().call(server.send, b"pong")
        assert client_rx.wait_count(1)
        assert client_rx.messages == [b"pong"]
    finally:
        loop().call(client.close)
        loop().call(server.close)
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

        loop().call(server.open, on_message, on_close)
        client_rx = Collector()
        loop().call(client.open, client_rx.on_message, client_rx.on_close)
        loop().call(client.send, b"x")
        assert closed.wait(5)
        assert reasons == ["handler error: ValueError: cannot handle b'x'"]
        assert server.closed
        assert client_rx.closed.wait(5)  # the other end learns of it too
    finally:
        loop().call(client.close)
        loop().call(server.close)
        listener.close()


def test_tcp_large_payload_round_trip():
    rng = random.Random(123)
    payloads = [rng.randbytes(rng.randint(0, 1024 * 1024)) for _ in range(5)]
    listener, client, server = _pair("tcp:127.0.0.1:0")
    try:
        rx = Collector()
        loop().call(server.open, rx.on_message, rx.on_close)
        loop().call(client.open, lambda d: None, lambda r: None)
        for p in payloads:
            loop().call(client.send, p)
        assert rx.wait_count(len(payloads), timeout=10)
        assert rx.messages == payloads
    finally:
        loop().call(client.close)
        loop().call(server.close)
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


_8MIB = bytes(range(256)) * 32768  # more than the kernel takes in one send over loopback


@pytest.mark.parametrize("spec, message", [
    pytest.param("mem:hub-send-then-close", b"last words", id="mem:hub-send-then-close"),
    pytest.param("tcp:127.0.0.1:0", b"last words", id="tcp:127.0.0.1:0"),
    pytest.param("mem:hub-send-8mib-then-close", _8MIB, id="mem-8MiB"),
    pytest.param("tcp:127.0.0.1:0", _8MIB, id="tcp-8MiB"),
])
def test_send_just_before_close_is_delivered(spec, message):
    listener, client, server = _pair(spec)
    try:
        rx = Collector()
        loop().call(server.open, rx.on_message, rx.on_close)
        loop().call(client.open, lambda d: None, lambda r: None)
        loop().call(client.send, message)
        loop().call(client.close)
        assert rx.closed.wait(5)
        assert [len(m) for m in rx.messages] == [len(message)]
        assert rx.messages == [message]
        assert rx.events[-1] == ("close", "connection closed")
    finally:
        loop().call(server.close)
        listener.close()


# --- closing before open() ------------------------------------------------------

def _close_runs_once_on_open(conn) -> None:
    """Open `conn`, which is closed or whose peer is: its close callback runs
    exactly once, at or after open(), nothing is delivered, and a later
    close() adds no second call."""
    rx = Collector()
    loop().call(conn.open, rx.on_message, rx.on_close)
    assert rx.closed.wait(5)
    loop().call(conn.close)
    loop().call(lambda: None)  # after anything posted before it
    assert rx.events == [("close", "connection closed")]


def test_a_mem_connection_closed_before_open_runs_its_close_callback_once():
    listener, client, server = _pair("mem:hub-close-before-open")
    try:
        # closed locally; its peer reads the close once open, as on TCP
        loop().call(client.close)
        loop().call(lambda: None)
        assert client.closed and not server.closed
        _close_runs_once_on_open(server)
        _close_runs_once_on_open(client)
    finally:
        listener.close()


def test_a_tcp_connection_whose_client_closed_before_open_runs_its_close_callback_once():
    listener, client, server = _pair("tcp:127.0.0.1:0")
    try:
        loop().call(client.close)
        _close_runs_once_on_open(server)
    finally:
        loop().call(server.close)
        listener.close()


@pytest.mark.parametrize("spec", ["mem:hub-send-close-before-open", "tcp:127.0.0.1:0"])
def test_what_the_peer_sent_before_closing_is_delivered_on_open(spec):
    # the peer closing is not this end closing: its messages come first
    listener, client, server = _pair(spec)
    try:
        loop().call(client.send, b"before close")
        loop().call(client.close)
        loop().call(lambda: None)  # after the close reached the other end
        rx = Collector()
        loop().call(server.open, rx.on_message, rx.on_close)
        assert rx.closed.wait(5)
        assert rx.events == [("message", b"before close"), ("close", "connection closed")]
    finally:
        loop().call(server.close)
        listener.close()


# --- payload bytes in a live session -------------------------------------------

VALUE_SIG = ValueSig("x:Int", ModuleSig("M"))
STREAM_SIG = ValueSig("s:Stream[Int]", ModuleSig("M"))


class _RawCodec:
    """Passes payload bytes through as they are, whatever they hold."""

    id = "raw"

    def serialize(self, value: bytes) -> bytes:
        return value

    def deserialize(self, data: bytes) -> bytes:
        return data


def _session(spec, payload: bytes):
    """A (client, server stream) pair of endpoints over `spec`. The server
    answers every pull with `payload` and attaches every channel to the
    returned stream, whose elements go out as their raw bytes. Both are
    loop-only, so a test reaches them through `loop().call`."""
    listener, client_conn, server_conn = _pair(spec)
    stream = StreamHandle(_RawCodec())

    def endpoint(conn, opener, on_request, on_chan_open):
        ep = Endpoint(conn, opener, types.SimpleNamespace(
            on_control=lambda env: None, on_request=on_request,
            on_chan_open=on_chan_open, on_closed=lambda reason: None))
        loop().call(ep.start)
        return ep

    endpoint(server_conn, False, lambda req: Response(req.id, True, payload=payload),
             lambda env: stream)
    client = endpoint(client_conn, True, lambda req: Response(req.id, False, error="no"),
                      lambda env: None)
    listener.close()
    return client, stream


def _first(handle: StreamHandle) -> tuple[FutureSlot, list]:
    """A future of the first element `handle` delivers, and the list of all."""
    first, got = FutureSlot(), []

    def seen(value):
        got.append(value)
        first.resolve(value)

    handle.subscribe(seen)
    return first, got


@pytest.mark.parametrize("spec", ["mem:hub-raw-payload", "tcp:127.0.0.1:0"])
def test_non_utf8_payload_bytes_cross_a_live_session_intact(spec):
    odd = b"\xff\x00\xfe\"\xed\xa0\x80\x80"
    client, stream = _session(spec, odd)
    try:
        received = loop().call(client.open_stream, STREAM_SIG, _RawCodec())
        first, got = _first(received)
        # answered after the channel attached
        pulled = loop().call(client.pull, VALUE_SIG, _RawCodec())
        assert pulled.wait(5) and pulled.state == READY and pulled.value == odd
        loop().call(stream.emit, odd[::-1])
        loop().call(stream.emit, odd)
        assert first.wait(5) and first.value == odd[::-1]
        deadline = time.monotonic() + 5
        while len(got) < 2 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert got == [odd[::-1], odd] and not client.conn.closed
    finally:
        loop().call(client.close)


@pytest.mark.parametrize("pad", [b" ", b"\n"])
def test_whitespace_between_header_and_payload_is_refused_by_the_codec(pad):
    # the frame is well formed; its payload is not the canonical bytes of an Int
    client, stream = _session("mem:hub-padded-payload", pad + b"42")
    try:
        received = loop().call(client.open_stream, STREAM_SIG, parse_codec("Int"))
        first, got = _first(received)
        pulled = loop().call(client.pull, VALUE_SIG, parse_codec("Int"))
        assert pulled.wait(5) and pulled.state == FAILED
        assert "codec Int: invalid encoding" in pulled.error
        loop().call(stream.emit, pad + b"42")  # dropped by the codec
        loop().call(stream.emit, b"43")
        assert first.wait(5) and got == [43] and not client.conn.closed
    finally:
        loop().call(client.close)


@pytest.mark.parametrize("spec", ["mem:hub-close-in-turn", "tcp:127.0.0.1:0"])
def test_an_endpoint_reads_and_sends_nothing_once_its_connection_closes(spec):
    # the connection closes and, in the same loop turn, before its posted close
    # callback has run, the endpoint is asked to pull, open and attach
    listener, client_conn, server = _pair(spec)
    rx, closed = Collector(), []
    loop().call(server.open, rx.on_message, rx.on_close)
    ep = Endpoint(client_conn, True, types.SimpleNamespace(
        on_control=lambda env: None, on_request=lambda req: None,
        on_chan_open=lambda env: None, on_closed=closed.append))
    loop().call(ep.start)
    produced = StreamHandle(parse_codec("Int"))
    try:
        def one_turn():
            ep.conn.close()
            assert closed == []
            pulled = ep.pull(VALUE_SIG, parse_codec("Int"))
            assert pulled.state == FAILED and pulled.error == "connection lost"
            assert ep.open_stream(STREAM_SIG, parse_codec("Int")).closed
            ep.attach(2, produced)
            produced.emit(1)

        loop().call(one_turn)
        assert rx.closed.wait(5)
        loop().call(lambda: None)  # after the posted close callback
        assert closed == ["closed locally"]
        assert produced._subscribers == {}
        assert rx.events == [("close", "connection closed")]
    finally:
        loop().call(server.close)
        listener.close()


@pytest.mark.parametrize("spec", ["mem:hub-closed-producer", "tcp:127.0.0.1:0"])
def test_a_channel_opened_to_a_closed_stream_is_closed_and_kept_by_neither_side(spec):
    listener, client_conn, server_conn = _pair(spec)
    listener.close()
    produced = StreamHandle(parse_codec("Int"))
    loop().call(produced.close)

    def endpoint(conn, opener, on_chan_open):
        ep = Endpoint(conn, opener, types.SimpleNamespace(
            on_control=lambda env: None, on_request=lambda req: None,
            on_chan_open=on_chan_open, on_closed=lambda reason: None))
        loop().call(ep.start)
        return ep

    server = endpoint(server_conn, False, lambda env: produced)
    client = endpoint(client_conn, True, lambda env: None)
    try:
        received = loop().call(client.open_stream, STREAM_SIG, parse_codec("Int"))
        ended = FutureSlot()
        loop().call(received.on_close, lambda: ended.resolve(None))
        assert ended.wait(5) and received.closed
        assert loop().call(lambda: (server._forwards, client._local_chans)) == ({}, {})
        assert not client.conn.closed and not server.conn.closed
    finally:
        loop().call(client.close)


# --- per-turn batches, with the interleaving forced ------------------------------

@pytest.mark.parametrize("spec", ["mem:hub-batch-close", "tcp:127.0.0.1:0"])
def test_sends_on_two_connections_in_one_turn_then_close_arrive_in_order(spec):
    accepted = queue.Queue()
    listener = listen(spec, accepted.put)
    a1, a2 = connect(listener.address), connect(listener.address)
    b1, b2 = accepted.get(timeout=5), accepted.get(timeout=5)
    try:
        ends = {b1: Collector(), b2: Collector()}
        for conn in (a1, a2):
            loop().call(conn.open, lambda data: None, lambda reason: None)
        for conn, rx in ends.items():
            loop().call(conn.open, rx.on_message, rx.on_close)

        def one_turn():  # every send joins a batch; both closes flush theirs first
            for n in range(5):
                a1.send(b"one %d" % n)
                a2.send(b"two %d" % n)
            a1.close()
            a2.close()

        loop().call(one_turn)
        for conn, rx in ends.items():
            assert rx.closed.wait(5)
        assert ends[b1].events == [("message", b"one %d" % n) for n in range(5)] + \
            [("close", "connection closed")]
        assert ends[b2].events == [("message", b"two %d" % n) for n in range(5)] + \
            [("close", "connection closed")]
    finally:
        for conn in (b1, b2):
            loop().call(conn.close)
        listener.close()


@pytest.mark.parametrize("spec", ["mem:hub-batch-raise", "tcp:127.0.0.1:0"])
def test_a_handler_that_raises_mid_batch_closes_and_delivers_nothing_after(spec):
    listener, client, server = _pair(spec)
    try:
        got, rx = [], Collector()

        def on_message(data):
            got.append(data)
            if data == b"m1":
                raise ValueError("cannot handle m1")

        loop().call(server.open, on_message, rx.on_close)
        client_rx = Collector()
        loop().call(client.open, client_rx.on_message, client_rx.on_close)
        loop().call(lambda: [client.send(b"m%d" % n) for n in range(4)])  # one batch
        assert rx.closed.wait(5) and client_rx.closed.wait(5)
        assert got == [b"m0", b"m1"]
        assert rx.events == [("close", "handler error: ValueError: cannot handle m1")]
        assert server.closed
    finally:
        loop().call(client.close)
        loop().call(server.close)
        listener.close()


@pytest.mark.parametrize("spec", ["mem:hub-batch-threads", "tcp:127.0.0.1:0"])
def test_sends_from_many_threads_lose_nothing_and_keep_each_threads_order(spec):
    # more threads than cores post sends on one connection to the loop, or
    # call it with them, while the loop batches, with thread switches forced
    # often; a lost or reordered send breaks the check
    listener, client, server = _pair(spec)
    per_thread, threads_n = 300, 4
    rx = Collector()
    try:
        loop().call(server.open, rx.on_message, rx.on_close)
        loop().call(client.open, lambda data: None, lambda reason: None)

        def work(t):
            for n in range(per_thread):
                if n % 3:
                    loop().post(client.send, b"%d %d" % (t, n))
                else:  # also from the thread driving the loop, into the batch itself
                    loop().call(client.send, b"%d %d" % (t, n))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(threads_n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert rx.wait_count(per_thread * threads_n, timeout=10)
        seen = [tuple(map(int, m.split())) for m in rx.messages]
        for t in range(threads_n):
            assert [n for s, n in seen if s == t] == list(range(per_thread))
    finally:
        loop().call(client.close)
        loop().call(server.close)
        listener.close()
