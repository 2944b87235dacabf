import threading
import time

import pytest

from locic import transport
from locic.codecs import CodecRegistry
from locic.sigs import ModuleSig, ValueSig
from locic.transmit import (DEFERRED, FAILED, PENDING, READY, Endpoint, FutureSlot,
                            StreamClosed, StreamHandle)
from locic.transport import connect, listen
from locic.wire import Response

MOD = ModuleSig("M")
SIG_X = ValueSig("x:Int", MOD)
SIG_S = ValueSig("s:Stream[Int]", MOD)


# --- FutureSlot -----------------------------------------------------------

def test_future_single_settlement():
    slot = FutureSlot()
    seen = []
    slot.on_settle(lambda s: seen.append((s.state, s.value if s.state == READY else s.error)))
    assert slot.state == PENDING
    slot.resolve(5)
    slot.fail("too late")
    slot.resolve(6)
    assert slot.state == READY
    assert slot.value == 5
    assert seen == [(READY, 5)]


def test_future_callback_after_settlement_fires_immediately():
    slot = FutureSlot()
    slot.fail("boom")
    seen = []
    slot.on_settle(lambda s: seen.append(s.error))
    assert seen == ["boom"]
    assert slot.state == FAILED


def test_future_settle_register_race_fires_exactly_once():
    for _ in range(50):
        slot = FutureSlot()
        count = [0]
        barrier = threading.Barrier(2)

        def settle():
            barrier.wait()
            slot.resolve(1)

        def register():
            barrier.wait()
            slot.on_settle(lambda s: count.__setitem__(0, count[0] + 1))

        t1, t2 = threading.Thread(target=settle), threading.Thread(target=register)
        t1.start(); t2.start(); t1.join(); t2.join()
        assert count[0] == 1


def test_future_wait_timeout():
    slot = FutureSlot()
    assert not slot.wait(0.01)
    slot.resolve(1)
    assert slot.wait(0.01)


# --- StreamHandle -----------------------------------------------------------

def test_stream_emission_order_and_fan_out():
    s = StreamHandle()
    a, b = [], []
    s.subscribe(a.append)
    s.subscribe(b.append)
    for n in range(100):
        s.emit(n)
    assert a == list(range(100))
    assert b == list(range(100))


def test_stream_unsubscribe():
    s = StreamHandle()
    seen = []
    unsubscribe = s.subscribe(seen.append)
    s.emit(1)
    unsubscribe()
    s.emit(2)
    assert seen == [1]


def test_stream_emit_after_close_raises():
    s = StreamHandle()
    s.close()
    with pytest.raises(StreamClosed):
        s.emit(1)
    s.close()  # idempotent


def test_stream_no_emissions_after_close():
    s = StreamHandle()
    seen = []
    s.subscribe(seen.append)
    s.emit(1)
    s.close()
    with pytest.raises(StreamClosed):
        s.emit(2)
    assert seen == [1]


def test_stream_close_callbacks():
    s = StreamHandle()
    fired = []
    s.on_close(lambda: fired.append("a"))
    s.close()
    s.on_close(lambda: fired.append("b"))  # after close: fires immediately
    assert fired == ["a", "b"]


# --- Endpoint pairs over the mem transport -----------------------------------

_counter = [0]


def endpoint_pair(server_value=1, stream: StreamHandle | None = None):
    """A connected (client, server) endpoint pair; the server answers x:Int
    requests with `server_value` and chan-opens on s:Stream[Int] with `stream`."""
    registry = CodecRegistry()
    _counter[0] += 1
    hub = f"mem:transmit-{_counter[0]}"
    server_holder = {}
    ready = threading.Event()

    def on_request(req):
        if req.value == SIG_X:
            return Response(req.id, True, payload=registry.lookup("Int").serialize(server_value))
        return Response(req.id, False, error=f"value not found: {req.value.canonical}")

    def on_chan_open(env):
        if stream is not None and env.value == SIG_S:
            return stream, registry.lookup("Int")
        return None

    def on_connection(conn):
        server_holder["ep"] = Endpoint(conn, opener=False,
                                       on_control=lambda env: None,
                                       on_request=on_request,
                                       on_chan_open=on_chan_open,
                                       on_closed=lambda reason: None)
        server_holder["ep"].start()
        ready.set()

    listener = listen(hub, on_connection)
    client_conn = connect(hub)
    client = Endpoint(client_conn, opener=True,
                      on_control=lambda env: None,
                      on_request=lambda req: Response(req.id, False, error="client serves nothing"),
                      on_chan_open=lambda env: None,
                      on_closed=lambda reason: None)
    client.start()
    assert ready.wait(5)
    listener.close()
    return client, server_holder["ep"], registry


def test_pull_resolves_future():
    client, server, registry = endpoint_pair(server_value=1)
    slot = client.pull(SIG_X, registry.lookup("Int"))
    assert slot.wait(5)
    assert slot.state == READY
    assert slot.value == 1
    client.close()


def test_pull_unknown_sig_fails():
    client, server, registry = endpoint_pair()
    slot = client.pull(ValueSig("ghost:Int", MOD), registry.lookup("Int"))
    assert slot.wait(5)
    assert slot.state == FAILED
    assert "value not found" in slot.error
    client.close()


def test_each_pull_sends_a_fresh_request():
    sent = []
    client, server, registry = endpoint_pair(server_value=7)
    original = client.send

    def counting_send(env):
        sent.append(env)
        original(env)

    client.send = counting_send
    slots = [client.pull(SIG_X, registry.lookup("Int")) for _ in range(5)]
    for slot in slots:
        assert slot.wait(5)
        assert slot.value == 7
    ids = [env.id for env in sent]
    assert len(ids) == 5
    assert len(set(ids)) == 5
    client.close()


def test_connection_loss_fails_pending_pulls():
    registry = CodecRegistry()
    _counter[0] += 1
    hub = f"mem:transmit-{_counter[0]}"
    def on_request(req):
        return DEFERRED  # never answered: the close must fail the pulls

    holder = {}

    def on_connection(conn):
        holder["ep"] = Endpoint(conn, opener=False,
                                on_control=lambda e: None, on_request=on_request,
                                on_chan_open=lambda e: None, on_closed=lambda r: None)
        holder["ep"].start()

    listener = listen(hub, on_connection)
    client = Endpoint(connect(hub), opener=True,
                      on_control=lambda e: None,
                      on_request=lambda r: Response(r.id, False, error="no"),
                      on_chan_open=lambda e: None, on_closed=lambda r: None)
    client.start()
    listener.close()
    slots = [client.pull(SIG_X, registry.lookup("Int")) for _ in range(3)]
    client.close()
    for slot in slots:
        assert slot.wait(5)
        assert slot.state == FAILED
        assert slot.error == "connection lost"


def test_open_stream_receives_emissions_in_order():
    produced = StreamHandle("Int")
    client, server, registry = endpoint_pair(stream=produced)
    handle = client.open_stream(SIG_S, registry.lookup("Int"))
    got = []
    handle.subscribe(got.append)
    deadline = time.time() + 5
    while not produced._subscribers and time.time() < deadline:
        time.sleep(0.01)
    for n in (1, 2, 3):
        produced.emit(n)
    _wait(lambda: len(got) == 3)
    assert got == [1, 2, 3]
    client.close()


def test_closed_channel_sees_no_emissions():
    produced = StreamHandle("Int")
    client, server, registry = endpoint_pair(stream=produced)
    handle = client.open_stream(SIG_S, registry.lookup("Int"))
    deadline = time.time() + 5
    while not produced._subscribers and time.time() < deadline:
        time.sleep(0.01)
    got = []
    handle.subscribe(got.append)
    handle.close()
    _wait(lambda: not produced._subscribers)  # forward detached on ChanClose
    produced.emit(42)
    time.sleep(0.1)
    assert got == []
    client.close()


def test_chan_open_refused_closes_handle():
    client, server, registry = endpoint_pair(stream=None)
    handle = client.open_stream(SIG_S, registry.lookup("Int"))
    _wait(lambda: handle.closed)
    client.close()


def test_two_channels_each_receive_their_own_stream():
    registry = CodecRegistry()
    _counter[0] += 1
    hub = f"mem:transmit-{_counter[0]}"
    s1, s2 = StreamHandle("Int"), StreamHandle("Int")
    sig1 = ValueSig("s1:Stream[Int]", MOD)
    sig2 = ValueSig("s2:Stream[Int]", MOD)

    def on_chan_open(env):
        if env.value == sig1:
            return s1, registry.lookup("Int")
        if env.value == sig2:
            return s2, registry.lookup("Int")
        return None

    def on_connection(conn):
        Endpoint(conn, opener=False, on_control=lambda e: None,
                 on_request=lambda r: Response(r.id, False, error="no"),
                 on_chan_open=on_chan_open, on_closed=lambda r: None).start()

    listener = listen(hub, on_connection)
    client = Endpoint(connect(hub), opener=True,
                      on_control=lambda e: None,
                      on_request=lambda r: Response(r.id, False, error="no"),
                      on_chan_open=lambda e: None, on_closed=lambda r: None)
    client.start()
    listener.close()
    h1 = client.open_stream(sig1, registry.lookup("Int"))
    h2 = client.open_stream(sig2, registry.lookup("Int"))
    got1, got2 = [], []
    h1.subscribe(got1.append)
    h2.subscribe(got2.append)
    _wait(lambda: s1._subscribers and s2._subscribers)
    for n in range(50):
        s1.emit(n)
        s2.emit(1000 + n)
    _wait(lambda: len(got1) == 50 and len(got2) == 50)
    assert got1 == list(range(50))
    assert got2 == [1000 + n for n in range(50)]
    client.close()


def test_channel_ids_do_not_collide():
    client, server, registry = endpoint_pair(stream=StreamHandle("Int"))
    client.open_stream(SIG_S, registry.lookup("Int"))
    client_chans = transport.loop().call(lambda: set(client._local_chans))
    server.open_stream(SIG_S, registry.lookup("Int"))
    server_chans = transport.loop().call(lambda: set(server._local_chans))
    assert all(c % 2 == 1 for c in client_chans)
    assert all(c % 2 == 0 for c in server_chans)
    client.close()


def _wait(predicate, timeout=5.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError("condition not reached in time")


def test_n_channels_on_one_stream_all_receive():
    produced = StreamHandle("Int")
    client, server, registry = endpoint_pair(stream=produced)
    handles = [client.open_stream(SIG_S, registry.lookup("Int")) for _ in range(3)]
    logs = [[] for _ in handles]
    for handle, log in zip(handles, logs):
        handle.subscribe(log.append)
    _wait(lambda: len(produced._subscribers) == 3)
    produced.emit(7)
    _wait(lambda: all(log == [7] for log in logs))
    client.close()


def test_emit_with_zero_subscribers_sends_nothing():
    client, server, registry = endpoint_pair(stream=StreamHandle("Int"))
    sent = []
    original = server.send
    server.send = lambda env: (sent.append(env), original(env))
    # no channel opened: emissions go nowhere
    time.sleep(0.05)
    assert sent == []
    client.close()


def test_raising_subscriber_closes_link_and_fails_pending_futures():
    registry = CodecRegistry()
    _counter[0] += 1
    hub = f"mem:transmit-{_counter[0]}"
    produced = StreamHandle("Int")
    requested = threading.Event()

    def on_request(req):
        requested.set()
        return DEFERRED  # keep the request pending on the client

    def on_connection(conn):
        Endpoint(conn, opener=False, on_control=lambda e: None,
                 on_request=on_request,
                 on_chan_open=lambda e: (produced, registry.lookup("Int")),
                 on_closed=lambda r: None).start()

    reasons = []
    closed = threading.Event()

    def on_closed(reason):
        reasons.append(reason)
        closed.set()

    listener = listen(hub, on_connection)
    client = Endpoint(connect(hub), opener=True,
                      on_control=lambda e: None,
                      on_request=lambda r: Response(r.id, False, error="no"),
                      on_chan_open=lambda e: None, on_closed=on_closed)
    client.start()
    listener.close()
    try:
        handle = client.open_stream(SIG_S, registry.lookup("Int"))

        def subscriber(value):
            raise RuntimeError(f"subscriber failed on {value}")

        handle.subscribe(subscriber)
        slot = client.pull(SIG_X, registry.lookup("Int"))
        # the server handles the channel-open before the request
        assert requested.wait(5)
        produced.emit(7)
        assert closed.wait(5)
        assert reasons == ["handler error: RuntimeError: subscriber failed on 7"]
        assert slot.wait(5)
        assert slot.state == FAILED
        assert slot.error == "connection lost"
        assert client.conn.closed
    finally:
        client.close()
