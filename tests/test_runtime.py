import collections
import gc
import json
import os
import queue
import random
import socket
import subprocess
import sys
import threading
import time
import types
import weakref
from pathlib import Path

import pytest

import helpers
from locic import runtime, transport, wire
from locic.arch import PeerId
from locic.checker import TStreamMap
from locic.codecs import Codec, CodecError, parse_codec
from locic.runtime import PeerInstance, RemoteRef, StartError, simulate, start
from locic.sigs import ModuleSig, PeerSig, ValueSig
from locic.parser import MAX_NESTING
from locic.splitter import PeerComponent, emit_component, read_component, split
from locic.transmit import FAILED, READY, Endpoint
from locic.transport import connect
from locic.wire import Hello, HelloAck, Response, decode_envelope, encode_envelope

_hub_counter = [0]


def fresh_hub() -> str:
    _hub_counter[0] += 1
    return f"mem:rt-{_hub_counter[0]}"


def components_for(source: str):
    _, _, _, tm = helpers.compile_clean(source)
    return split(tm)


@pytest.fixture
def instances():
    created = []
    yield created
    for instance in created:
        instance.stop()


def test_simple_module_two_instances(instances):
    comps = components_for(helpers.SIMPLE_MODULE)
    sims = simulate(comps, ["MyPeer", "MyPeer"], timeout=5)
    instances.extend(sims)
    for instance in sims:
        assert instance.slot("i") == 1
        j = instance.slot("j")
        assert j.state == READY
        assert j.value == 1


def test_start_helper_and_slot_values(instances):
    comps = components_for(helpers.SIMPLE_MODULE)
    hub = fresh_hub()
    a = PeerInstance(comps[PeerId((), "MyPeer")], label="a")
    instances.append(a)
    a.listen(hub)
    ready = threading.Thread(target=a.activate, args=(5,), daemon=True)
    ready.start()
    b = start(comps[PeerId((), "MyPeer")], [], [(hub, "MyPeer")], timeout=5, label="b")
    instances.append(b)
    ready.join(5)
    assert b.wait_settled(5)
    assert b.slot("j").value == 1
    assert a.wait_settled(5)
    assert a.slot("j").value == 1


def test_single_tie_rejects_second_remote(instances):
    source = """
        module M {
          peer Hub { tie: single Spoke }
          peer Spoke { tie: single Hub }
          val greeting: Int on Hub = 9
          val pulled: Future[Int] on Spoke = greeting.asLocal
        }
    """
    comps = components_for(source)
    hub = fresh_hub()
    hub_instance = PeerInstance(comps[PeerId((), "Hub")])
    instances.append(hub_instance)
    hub_instance.listen(hub)

    first = PeerInstance(comps[PeerId((), "Spoke")])
    instances.append(first)
    first.connect(hub, "Hub", timeout=5)

    second = PeerInstance(comps[PeerId((), "Spoke")])
    instances.append(second)
    with pytest.raises(StartError) as exc:
        second.connect(hub, "Hub", timeout=5)
    assert "single" in str(exc.value)
    # the hub's end of the first link goes live when the final HelloAck
    # arrives, which may be after `first.connect` returned
    assert hub_instance._wait_live_links(1, 5)
    assert len(hub_instance.links()) == 1


def test_two_threads_activating_at_once_share_the_loop(instances, monkeypatch):
    # both threads call activate together; the one that evaluates first holds
    # the loop until the other has posted its work to it
    comps = components_for(helpers.SIMPLE_MODULE)
    hub = fresh_hub()
    a = PeerInstance(comps[PeerId((), "MyPeer")], label="a")
    b = PeerInstance(comps[PeerId((), "MyPeer")], label="b")
    instances.extend([a, b])
    a.listen(hub)
    b.connect(hub, "MyPeer", timeout=5)
    assert a._wait_live_links(1, 5)
    lp = transport.loop()
    assert lp._owner is None  # so the first thread to activate takes the loop
    evaluate = PeerInstance.evaluate_slots
    held = []

    def evaluate_once_the_other_posted(self):
        if not held:
            held.append(self.label)
            deadline = time.monotonic() + 5
            while not lp._ready and time.monotonic() < deadline:
                time.sleep(0.001)
            held.append(bool(lp._ready))
        evaluate(self)

    monkeypatch.setattr(PeerInstance, "evaluate_slots", evaluate_once_the_other_posted)
    barrier = threading.Barrier(2)
    errors = []

    def activate(instance):
        barrier.wait()
        try:
            instance.activate(5)
        except Exception as e:
            errors.append(e)

    threads = [threading.Thread(target=activate, args=(i,)) for i in (a, b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
    assert not any(t.is_alive() for t in threads)
    assert not errors and len(held) == 2 and held[1]  # the other thread did post
    for instance in (a, b):
        assert instance.wait_settled(5)
        assert instance.slot("j").value == 1


def test_optional_tie_zero_remotes_gives_absent_option(instances):
    source = """
        module M {
          peer A { tie: optional B }
          peer B { }
          val x: Int on B = 1
          val maybe: Option[Future[Int]] on A = x.asLocal
        }
    """
    comps = components_for(source)
    a = start(comps[PeerId((), "A")], [], [], timeout=5)
    instances.append(a)
    assert a.slot("maybe") is None


def test_multiple_tie_three_remotes(instances):
    source = """
        module M {
          peer Registry { tie: multiple Node }
          peer Node { }
          val i: Int on Node = 10
          val gathered: Seq[(Remote[Node], Future[Int])] on Registry = i.asLocalFromAll
        }
    """
    comps = components_for(source)
    nodes = []
    hubs = []
    for _ in range(3):
        node = PeerInstance(comps[PeerId((), "Node")])
        instances.append(node)
        hub = fresh_hub()
        node.listen(hub)
        node.activate(5)
        nodes.append(node)
        hubs.append(hub)
    registry = start(comps[PeerId((), "Registry")], [],
                     [(hub, "Node") for hub in hubs], timeout=5)
    instances.append(registry)
    assert registry.wait_settled(5)
    pairs = registry.slot("gathered")
    assert len(pairs) == 3
    for ref, fut in pairs:
        assert isinstance(ref, RemoteRef)
        assert ref.peer.peer_name == "Node"
        assert fut.state == READY
        assert fut.value == 10
    assert len({ref.link_id for ref, _ in pairs}) == 3


def test_start_timeout_with_unmet_single_tie(instances):
    comps = components_for(helpers.SIMPLE_MODULE)
    instance = PeerInstance(comps[PeerId((), "MyPeer")])
    instances.append(instance)
    began = time.monotonic()
    with pytest.raises(StartError) as exc:
        instance.activate(timeout=0.3)
    assert time.monotonic() - began < 2
    assert "single ties" in str(exc.value)
    assert "MyPeer" in str(exc.value)


def _hello_ack(instances, hello: Hello, source: str = helpers.SIMPLE_MODULE,
               peer: str = "MyPeer") -> HelloAck:
    """The HelloAck a listening `peer` instance of `source` sends for `hello`."""
    comps = components_for(source)
    hub = fresh_hub()
    instance = PeerInstance(comps[PeerId((), peer)])
    instances.append(instance)
    instance.listen(hub)
    ep, acks = _acked_endpoint(hub)
    transport.loop().call(ep.send, hello)
    ack = acks.get(timeout=5)
    transport.loop().call(ep.close)
    return ack


def _acked_endpoint(spec: str) -> tuple[Endpoint, queue.Queue]:
    """An endpoint that answers no control envelope, and the queue of the
    HelloAcks it receives."""
    acks: queue.Queue = queue.Queue()

    def on_control(env):
        if isinstance(env, HelloAck):
            acks.put(env)

    ep = Endpoint(connect(spec), opener=True, owner=types.SimpleNamespace(
        on_control=on_control, on_request=lambda r: Response(r.id, False, error="no"),
        on_chan_open=lambda e: None, on_closed=lambda r: None))
    transport.loop().call(ep.start)
    return ep, acks


def test_module_signature_mismatch_rejected(instances):
    ack = _hello_ack(instances, Hello(ModuleSig("SomethingElse"),
                                      PeerSig("MyPeer", ModuleSig("SomethingElse"))))
    assert ack.accepted is False
    assert "module signature mismatch" in ack.reason


def test_protocol_version_mismatch_rejected(instances):
    # a PROTO 2 peer's hello has the same layout, so it too is refused by name
    for version in (1, 2, 99):
        ack = _hello_ack(instances, Hello(ModuleSig("SimpleModule"),
                                          PeerSig("MyPeer", ModuleSig("SimpleModule")),
                                          proto_version=version))
        assert ack == HelloAck(False, f"protocol version {version} is not supported (expected 3)")


@pytest.mark.parametrize("peer", [
    PeerSig("Ghost", ModuleSig("P2P")),
    PeerSig("Registry", ModuleSig("Monitoring")),
    # an included peer that names the wrong module for its alias
    PeerSig("Monitor", ModuleSig("Other", ("mon",))),
])
def test_unknown_peer_signature_rejected(instances, peer):
    ack = _hello_ack(instances, Hello(ModuleSig("P2P"), peer),
                     source=helpers.MONITORING_P2P, peer="Registry")
    assert ack == HelloAck(False, f"unknown peer signature '{peer}'")


def test_second_hello_on_one_connection_is_refused(instances):
    comps = components_for(HUB_AND_SPOKES)
    hub = fresh_hub()
    hub_instance = PeerInstance(comps[PeerId((), "Hub")])
    instances.append(hub_instance)
    hub_instance.listen(hub)
    spoke = comps[PeerId((), "Spoke")]
    ep, acks = _acked_endpoint(hub)
    try:
        transport.loop().call(ep.send, Hello(spoke.root_module, spoke.sig))
        assert acks.get(timeout=5) == HelloAck(True)
        transport.loop().call(ep.send, Hello(spoke.root_module, spoke.sig))
        assert acks.get(timeout=5) == HelloAck(False, "hello received twice")
    finally:
        transport.loop().call(ep.close)


def test_lone_surrogate_request_closes_only_the_probing_link(instances, monkeypatch):
    logged = []
    monkeypatch.setattr(transport, "_log_failure", lambda what, e: logged.append(what))
    reasons = []
    on_closed = runtime._Link.on_closed

    def record(link, reason):
        reasons.append((link.instance.label, reason))
        on_closed(link, reason)

    monkeypatch.setattr(runtime._Link, "on_closed", record)
    source = (helpers.ROOT / "samples" / "simple.loci").read_text()
    comp = components_for(source)[PeerId((), "MyPeer")]
    hub = fresh_hub()
    a = PeerInstance(comp, label="a")
    instances.append(a)
    a.listen(hub)
    b = PeerInstance(comp, label="b")
    instances.append(b)
    b.connect(hub, "MyPeer", timeout=5)
    assert a._wait_live_links(1, 5)
    a.activate(5)
    b.activate(5)
    assert a.wait_settled(5) and b.wait_settled(5)

    transport.loop().call(
        b._links[0].endpoint.conn.send,
        b'{"t":"req","id":99,"mod":"SimpleModule","path":[],"val":"\\ud800"}')
    deadline = time.monotonic() + 5
    while (a.links() or b.links()) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert a.links() == [] and b.links() == []
    reasons = dict(reasons)
    assert reasons.keys() == {"a", "b"}
    assert reasons["a"].startswith("protocol error: malformed envelope")
    assert logged == []

    # a well-formed pull from a new link is still served
    c = start(comp, [], [(hub, "MyPeer")], timeout=5, label="c")
    instances.append(c)
    assert c.wait_settled(5)
    assert c.slot("j").state == READY and c.slot("j").value == 1


# --- only admitted, live links are served ------------------------------------

OPTIONAL_PAIR = """
    module M {
      peer A { tie: optional B }
      peer B { tie: optional A }
      val x: Int on A = 5
      source s: Stream[Int] on A
    }
"""
X_SIG, S_SIG = ValueSig("x:Int", ModuleSig("M")), ValueSig("s:Stream[Int]", ModuleSig("M"))


def _raw_endpoint(spec: str) -> Endpoint:
    """An endpoint that answers no control envelope, so no handshake completes."""
    return _acked_endpoint(spec)[0]


def _try_to_read(instance: PeerInstance, ep: Endpoint):
    """Pull `x` and open a channel to `s` over `ep`, then fire into `s`.
    Returns the settled pull, the values the channel delivered, and whether
    the channel was closed. The endpoint is loop-only, and the instance's
    handshake deadline keeps the daemon driving, so it is reached through
    `loop().call`."""
    call = transport.loop().call
    pulled = call(ep.pull, X_SIG, parse_codec("Int"))
    chan = call(ep.open_stream, S_SIG, parse_codec("Int"))
    got = []
    chan.subscribe(got.append)
    assert pulled.wait(5)
    instance.fire("s", 1)
    # the answer to a later pull comes after anything the fire sent
    assert call(ep.pull, X_SIG, parse_codec("Int")).wait(5)
    return pulled, got, chan.closed


def test_endpoint_without_hello_reads_nothing(instances):
    hub = fresh_hub()
    a = start(components_for(OPTIONAL_PAIR)[PeerId((), "A")], [hub], [], timeout=5)
    instances.append(a)
    ep = _raw_endpoint(hub)
    try:
        pulled, got, closed = _try_to_read(a, ep)
    finally:
        transport.loop().call(ep.close)
    assert pulled.state == FAILED and pulled.error == "connection not admitted"
    assert got == [] and closed


def test_endpoint_that_skips_the_final_hello_ack_reads_nothing(instances):
    # A admits B's hello, but B's link goes live at A only on the final HelloAck
    comps = components_for(OPTIONAL_PAIR)
    hub = fresh_hub()
    a = start(comps[PeerId((), "A")], [hub], [], timeout=5)
    instances.append(a)
    b = comps[PeerId((), "B")]
    ep = _raw_endpoint(hub)
    try:
        transport.loop().call(ep.send, Hello(b.root_module, b.sig))
        pulled, got, closed = _try_to_read(a, ep)
    finally:
        transport.loop().call(ep.close)
    assert pulled.state == FAILED and pulled.error == "connection not admitted"
    assert got == [] and closed
    assert a.links() == []


def test_half_open_handshake_frees_an_optional_tie_at_its_deadline(instances, monkeypatch):
    # A's handshake deadline, shortened; the refused attempt below fits well within it
    monkeypatch.setattr(runtime, "DEFAULT_TIMEOUT", 1.0)
    comps = components_for(OPTIONAL_PAIR)
    hub = fresh_hub()
    a = start(comps[PeerId((), "A")], [hub], [], timeout=5)
    instances.append(a)
    b = comps[PeerId((), "B")]
    ep, acks = _acked_endpoint(hub)
    try:
        # and never the final HelloAck
        transport.loop().call(ep.send, Hello(b.root_module, b.sig))
        assert acks.get(timeout=5) == HelloAck(True)
        with pytest.raises(StartError) as exc:
            start(b, [], [(hub, "A")], timeout=5)
        assert str(exc.value) == (f"connection to {hub} rejected: "
                                  f"tie to B is optional; an instance is already connected")
        deadline = time.monotonic() + 5
        while not ep.conn.closed and time.monotonic() < deadline:
            time.sleep(0.01)
        assert ep.conn.closed  # A closed the half-open connection at its deadline
    finally:
        transport.loop().call(ep.close)
    instances.append(start(b, [], [(hub, "A")], timeout=5))
    assert a._wait_live_links(1, 5)
    assert len(a.links()) == 1


def test_stop_closes_a_connection_still_in_its_handshake(instances, monkeypatch):
    monkeypatch.setattr(runtime, "DEFAULT_TIMEOUT", 60.0)  # far past the wait below
    hub = fresh_hub()
    a = PeerInstance(components_for(OPTIONAL_PAIR)[PeerId((), "A")])
    instances.append(a)
    a.listen(hub)
    ep = _raw_endpoint(hub)  # says no hello
    try:
        a.stop()
        deadline = time.monotonic() + 5
        while not ep.conn.closed and time.monotonic() < deadline:
            time.sleep(0.01)
        assert ep.conn.closed
    finally:
        transport.loop().call(ep.close)


def test_completed_handshakes_hold_no_timer(instances):
    sims = simulate(components_for(helpers.SIMPLE_MODULE), ["MyPeer", "MyPeer"], timeout=5)
    instances.extend(sims)
    # a timer left armed would keep its link, and so its instance, reachable
    # until the deadline
    armed = transport.loop().call(
        lambda: [t for t in transport.loop()._timers if t.fn is not None])
    assert not [t for t in armed
                if getattr(getattr(t.fn, "__self__", None), "instance", None) in sims]


def _start_error(fn, *args) -> str:
    """The message of the StartError that fn(*args) raises."""
    try:
        fn(*args)
    except StartError as e:
        return str(e)
    raise AssertionError(f"{fn.__name__} raised no StartError")


def _settle_by_timeout(comps) -> list[PeerInstance]:
    hub, accepted = fresh_hub(), []
    listener = transport.listen(hub, accepted.append)  # never opens what it accepts
    a = PeerInstance(comps[PeerId((), "MyPeer")])
    assert _start_error(a.connect, hub, None, 0.05) == f"handshake with {hub} timed out"
    listener.close()
    transport.loop().call(accepted.pop().close)
    return [a]


def _settle_by_refusal(comps) -> list[PeerInstance]:
    hub = fresh_hub()
    a = PeerInstance(comps[PeerId((), "MyPeer")])
    a.listen(hub)
    b = PeerInstance(comps[PeerId((), "B")])
    assert "rejected: module signature mismatch" in _start_error(b.connect, hub)
    return [a, b]


def _settle_by_close(comps) -> list[PeerInstance]:
    # the connecting end's remote closes at once; the accepting end's remote
    # closes before it says hello
    hub, call = fresh_hub(), transport.loop().call
    listener = transport.listen(hub, lambda conn: conn.close())
    a = PeerInstance(comps[PeerId((), "MyPeer")])
    assert _start_error(a.connect, hub) == f"connection to {hub} closed during handshake"
    listener.close()
    hub = fresh_hub()
    b = PeerInstance(comps[PeerId((), "MyPeer")])
    b.listen(hub)
    call(call(transport.connect, hub).close)
    return [a, b]


def _settle_by_second_hello(comps) -> list[PeerInstance]:
    hub = fresh_hub()
    a = PeerInstance(comps[PeerId((), "Hub")])
    a.listen(hub)
    spoke = comps[PeerId((), "Spoke")]
    ep, acks = _acked_endpoint(hub)
    transport.loop().call(ep.send, Hello(spoke.root_module, spoke.sig))
    assert acks.get(timeout=5) == HelloAck(True)
    transport.loop().call(ep.send, Hello(spoke.root_module, spoke.sig))
    assert acks.get(timeout=5) == HelloAck(False, "hello received twice")
    transport.loop().call(ep.close)
    return [a]


@pytest.mark.parametrize("settle", [_settle_by_timeout, _settle_by_refusal,
                                    _settle_by_close, _settle_by_second_hello])
def test_a_settled_handshake_leaves_no_timer_and_its_link_is_freed(settle, monkeypatch):
    # every way a handshake ends breaks the link's cycles with its deadline
    # timer and its endpoint, so the link goes by reference counting alone
    links = []
    init = runtime._Link.__init__

    def recording(link, *args):
        links.append(weakref.ref(link))
        init(link, *args)

    monkeypatch.setattr(runtime._Link, "__init__", recording)
    comps = {**components_for(helpers.SIMPLE_MODULE), **components_for(OPTIONAL_PAIR),
             **components_for(HUB_AND_SPOKES)}
    loop = transport.loop()
    gc.collect()
    gc.disable()
    try:
        sims = settle(comps)
        for instance in sims:
            _wait_on_loop(lambda: not instance._links)
        assert links
        held = [link() for link in links if link() is not None]
        armed = loop.call(lambda: [t for t in loop._timers if t.fn is not None])
        assert not [t for t in armed if any(getattr(t.fn, "__self__", None) is link
                                            or link in t.args for link in held)]
        for instance in sims:
            instance.stop()
        del sims, instance, held, armed
        assert gc.collect() == 0
        assert [link() for link in links] == [None] * len(links)
    finally:
        gc.enable()


def test_connect_times_out_when_the_remote_never_answers(instances):
    hub = fresh_hub()
    accepted = []
    listener = transport.listen(hub, accepted.append)  # never opens what it accepts
    try:
        instance = PeerInstance(components_for(helpers.SIMPLE_MODULE)[PeerId((), "MyPeer")])
        instances.append(instance)
        began = time.monotonic()
        with pytest.raises(StartError, match=f"handshake with {hub} timed out"):
            instance.connect(hub, timeout=0.2)
        assert time.monotonic() - began < 2
    finally:
        listener.close()


def test_spoke_refused_by_a_single_tie_reads_nothing(instances):
    source = """
        module M {
          peer Hub { tie: single Spoke }
          peer Spoke { tie: single Hub }
          val x: Int on Hub = 5
          source s: Stream[Int] on Hub
        }
    """
    comps = components_for(source)
    hub = fresh_hub()
    hub_instance = PeerInstance(comps[PeerId((), "Hub")])
    instances.append(hub_instance)
    hub_instance.listen(hub)
    first = PeerInstance(comps[PeerId((), "Spoke")])
    instances.append(first)
    first.connect(hub, "Hub", timeout=5)
    hub_instance.activate(5)
    # a second Spoke says hello and pulls at once, before its refusal arrives
    spoke = comps[PeerId((), "Spoke")]
    ep = _raw_endpoint(hub)
    try:
        transport.loop().call(ep.send, Hello(spoke.root_module, spoke.sig))
        pulled = transport.loop().call(ep.pull, X_SIG, parse_codec("Int"))
        chan = transport.loop().call(ep.open_stream, S_SIG, parse_codec("Int"))
        assert pulled.wait(5)
    finally:
        transport.loop().call(ep.close)
    # the refusal closed the connection, which failed the pull and the channel
    assert pulled.state == FAILED and chan.closed
    assert hub_instance._wait_live_links(1, 5)
    assert len(hub_instance.links()) == 1


def test_one_directional_tie_admits_untied_side(instances):
    source = """
        module M {
          peer Watcher { tie: multiple Target }
          peer Target { }
          val t: Int on Target = 3
          val seen: Seq[(Remote[Target], Future[Int])] on Watcher = t.asLocalFromAll
        }
    """
    comps = components_for(source)
    hub = fresh_hub()
    target = PeerInstance(comps[PeerId((), "Target")])
    instances.append(target)
    target.listen(hub)
    target.activate(5)
    watcher = start(comps[PeerId((), "Watcher")], [], [(hub, "Target")], timeout=5)
    instances.append(watcher)
    assert watcher.wait_settled(5)
    pairs = watcher.slot("seen")
    assert len(pairs) == 1
    assert pairs[0][1].value == 3


def test_dispatch_not_found_and_failure(instances):
    comps = components_for(helpers.SIMPLE_MODULE)
    sims = simulate(comps, ["MyPeer", "MyPeer"], timeout=5)
    instances.extend(sims)
    a = sims[0]
    link = a._links[0]
    unknown = transport.loop().call(link.endpoint.pull,
                                    ValueSig("ghost:Int", ModuleSig("SimpleModule")),
                                    parse_codec("Int"))
    assert unknown.wait(5)
    assert unknown.state == FAILED
    assert "value not found" in unknown.error
    # j: Future[Int] is placed here but not serializable, so not dispatchable
    j_sig = ValueSig("j:Future[Int]", ModuleSig("SimpleModule"))
    refused = transport.loop().call(link.endpoint.pull, j_sig, parse_codec("Int"))
    assert refused.wait(5)
    assert refused.state == FAILED


PULLED_TWICE = """
    module M {
      peer Hub { tie: multiple Spoke }
      peer Spoke { tie: single Hub }
      val v: (Int, Str) on Hub = (7, "x")
      val got: Future[(Int, Str)] on Spoke = v.asLocal
    }
"""


def _counted_serialize(monkeypatch, fail: bool) -> list:
    calls = []
    original = Codec.serialize

    def serialize(codec, value):
        calls.append(value)
        if fail:
            raise CodecError("cannot serialize")
        return original(codec, value)

    monkeypatch.setattr(Codec, "serialize", serialize)
    return calls


def test_a_value_pulled_by_two_remotes_is_serialized_once(instances, monkeypatch):
    calls = _counted_serialize(monkeypatch, fail=False)
    sims = simulate(components_for(PULLED_TWICE), ["Hub", "Spoke", "Spoke"], timeout=5)
    instances.extend(sims)
    for spoke in sims[1:]:
        got = spoke.slot("got")
        assert got.wait(5) and got.value == (7, "x")
    assert calls == [(7, "x")]


def test_a_failed_serialize_fails_every_request_and_is_not_kept(instances, monkeypatch):
    calls = _counted_serialize(monkeypatch, fail=True)
    sims = simulate(components_for(PULLED_TWICE), ["Hub", "Spoke", "Spoke"], timeout=5)
    instances.extend(sims)
    for spoke in sims[1:]:
        got = spoke.slot("got")
        assert got.wait(5) and got.state == FAILED and got.error == "cannot serialize"
    assert calls == [(7, "x"), (7, "x")]
    assert sims[0]._slots["v"].payload is None


def test_stop_fails_pending_futures(instances):
    source = """
        module M {
          peer A { tie: single B }
          peer B { tie: single A }
          val x: Int on A = 1
          val y: Future[Int] on B = x.asLocal
        }
    """
    comps = components_for(source)
    hub = fresh_hub()
    a = PeerInstance(comps[PeerId((), "A")])
    instances.append(a)
    a.listen(hub)
    # a never activates, so it never answers requests
    b = PeerInstance(comps[PeerId((), "B")])
    instances.append(b)
    b.connect(hub, "A", timeout=5)
    b.activate(5)
    y = b.slot("y")
    assert y.state == "pending"
    b.stop()
    assert y.wait(5)
    assert y.state == FAILED
    assert y.error == "connection lost"
    b.stop()  # idempotent
    assert b.state == runtime.STOPPED


def test_stop_configured_instance():
    comps = components_for(helpers.SIMPLE_MODULE)
    instance = PeerInstance(comps[PeerId((), "MyPeer")])
    instance.stop()
    assert instance.state == runtime.STOPPED


def test_forward_reference_is_runtime_error(instances):
    source = """
        module M {
          peer P { }
          val a: Int on P = b + 1
          val b: Int on P = 2
        }
    """
    comps = components_for(source)
    instance = start(comps[PeerId((), "P")], [], [], timeout=5)
    instances.append(instance)
    assert instance.slot_state("a") == "error"
    with pytest.raises(runtime.EvalError, match="failed to initialize: .*not yet initialized"):
        instance.slot("a")
    assert instance.slot("b") == 2


def test_evaluation_order_is_source_order(instances):
    source = """
        module M {
          peer P { }
          val first: Int on P = 1
          val second: Int on P = first + 1
          val third: Int on P = second * 10
        }
    """
    comps = components_for(source)
    instance = start(comps[PeerId((), "P")], [], [], timeout=5)
    instances.append(instance)
    assert [instance.slot(n) for n in ("first", "second", "third")] == [1, 2, 20]


def test_fire_and_local_subscribers(instances):
    source = """
        module M {
          peer P { }
          source s: Stream[Int] on P
          val doubled: Stream[Int] on P = s.map(x => x * 2)
        }
    """
    comps = components_for(source)
    instance = start(comps[PeerId((), "P")], [], [], timeout=5)
    instances.append(instance)
    got = []
    instance.slot("doubled").subscribe(got.append)
    for n in (1, 2, 3):
        instance.fire("s", n)
    assert got == [2, 4, 6]
    from locic.codecs import CodecError

    with pytest.raises(CodecError):
        instance.fire("s", "not an int")


def _mirrored(instances, decls: str, n: int) -> list:
    """Fire 0..n-1 into Prod's source `s` and return what a started Cons
    receives on its stream `mirror`, which `decls` declares."""
    source = f"""
        module M {{
          peer Prod {{ tie: multiple Cons }}
          peer Cons {{ tie: single Prod }}
          source s: Stream[Int] on Prod
          {decls}
          val sync: Future[Int] on Cons = marker.asLocal
          val marker: Int on Prod = 1
        }}
    """
    comps = components_for(source)
    hub = fresh_hub()
    prod = PeerInstance(comps[PeerId((), "Prod")])
    instances.append(prod)
    prod.listen(hub)
    prod.activate(5)
    cons = start(comps[PeerId((), "Cons")], [], [(hub, "Prod")], timeout=5)
    instances.append(cons)
    assert cons.slot("sync").wait(5)  # channel attach ordered before this response
    got = []
    cons.slot("mirror").subscribe(got.append)
    for k in range(n):
        prod.fire("s", k)
    deadline = time.time() + 5
    while len(got) < n and time.time() < deadline:
        time.sleep(0.01)
    return got


def test_remote_stream_push(instances):
    got = _mirrored(instances, "val mirror: Stream[Int] on Cons = s.asLocal", 20)
    assert got == list(range(20))


def test_remote_channel_delivers_mapped_tuple_stream(instances):
    got = _mirrored(instances, """
          val pairs: Stream[(Int, Str)] on Prod = s.map(n => (n * 3, "é\\"q"))
          val mirror: Stream[(Int, Str)] on Cons = pairs.asLocal""", 20)
    assert got == [(n * 3, 'é"q') for n in range(20)]


def test_placeholder_read_is_runtime_error(instances):
    comps = components_for("""
        module M {
          peer A { tie: single B }
          peer B { tie: single A }
          val x: Int on A = 5
        }
    """)
    b = PeerInstance(comps[PeerId((), "B")])
    instances.append(b)
    with pytest.raises(runtime.EvalError) as exc:
        b.slot("x")
    assert "not placed on this peer" in str(exc.value)


def test_sim_rejects_unknown_peer():
    comps = components_for(helpers.SIMPLE_MODULE)
    with pytest.raises(StartError):
        simulate(comps, ["Nope"], timeout=1)


def test_sim_unsatisfiable_single_tie_fails_cleanly():
    comps = components_for("""
        module M {
          peer Node { tie: single Registry }
          peer Registry { }
          val r: Int on Registry = 1
          val pulled: Future[Int] on Node = r.asLocal
        }
    """)
    # every wired link is live before activation, so the unmet tie is final
    began = time.time()
    with pytest.raises(StartError) as exc:
        simulate(comps, ["Node"], timeout=5)
    assert "Registry" in str(exc.value)
    assert "timed out" not in str(exc.value)  # nothing was waited for
    assert time.time() - began < 1


def test_expected_peer_mismatch_rejected(instances):
    comps = components_for("""
        module M {
          peer A { }
          peer B { }
          val x: Int on A = 1
        }
    """)
    hub = fresh_hub()
    a = PeerInstance(comps[PeerId((), "A")])
    instances.append(a)
    a.listen(hub)
    b = PeerInstance(comps[PeerId((), "B")])
    instances.append(b)
    with pytest.raises(StartError) as exc:
        b.connect(hub, "B", timeout=5)  # remote is an A, not a B
    assert str(exc.value) == f"connection to {hub} rejected: expected a B instance, remote is A"


def test_optional_tie_with_one_remote(instances):
    source = """
        module M {
          peer A { tie: optional B }
          peer B { }
          val x: Int on B = 11
          val maybe: Option[Future[Int]] on A = x.asLocal
        }
    """
    comps = components_for(source)
    hub = fresh_hub()
    b = PeerInstance(comps[PeerId((), "B")])
    instances.append(b)
    b.listen(hub)
    b.activate(5)
    a = start(comps[PeerId((), "A")], [], [(hub, "B")], timeout=5)
    instances.append(a)
    maybe = a.slot("maybe")
    assert maybe is not None
    assert maybe.wait(5)
    assert maybe.value == 11


def test_stream_relay_through_intermediate_peer(instances):
    source = """
        module Relay {
          peer Origin { tie: multiple Mid }
          peer Mid { tie: single Origin, multiple Edge }
          peer Edge { tie: single Mid }
          source s: Stream[Int] on Origin
          val hop: Stream[Int] on Mid = s.asLocal
          val leaf: Stream[Int] on Edge = hop.asLocal
          val sync1: Future[Int] on Mid = one.asLocal
          val one: Int on Origin = 1
          val sync2: Future[Int] on Edge = two.asLocal
          val two: Int on Mid = 2
        }
    """
    comps = components_for(source)
    origin = PeerInstance(comps[PeerId((), "Origin")])
    mid = PeerInstance(comps[PeerId((), "Mid")])
    edge = PeerInstance(comps[PeerId((), "Edge")])
    instances.extend([origin, mid, edge])
    origin_hub, mid_hub = fresh_hub(), fresh_hub()
    origin.listen(origin_hub)
    mid.listen(mid_hub)
    threads = [threading.Thread(target=inst.activate, args=(5,), daemon=True)
               for inst in (origin, mid)]
    mid.connect(origin_hub, "Origin", timeout=5)
    edge.connect(mid_hub, "Mid", timeout=5)
    for t in threads:
        t.start()
    edge.activate(5)
    for t in threads:
        t.join(5)
    assert mid.slot("sync1").wait(5)   # mid's channel to origin is attached
    assert edge.slot("sync2").wait(5)  # edge's channel to mid is attached
    got = []
    edge.slot("leaf").subscribe(got.append)
    for n in range(10):
        origin.fire("s", n)
    deadline = time.time() + 5
    while len(got) < 10 and time.time() < deadline:
        time.sleep(0.01)
    assert got == list(range(10))


def test_producer_stop_closes_consumer_stream(instances):
    source = """
        module M {
          peer Prod { tie: multiple Cons }
          peer Cons { tie: single Prod }
          source s: Stream[Int] on Prod
          val mirror: Stream[Int] on Cons = s.asLocal
          val sync: Future[Int] on Cons = one.asLocal
          val one: Int on Prod = 1
        }
    """
    comps = components_for(source)
    hub = fresh_hub()
    prod = PeerInstance(comps[PeerId((), "Prod")])
    instances.append(prod)
    prod.listen(hub)
    prod.activate(5)
    cons = start(comps[PeerId((), "Cons")], [], [(hub, "Prod")], timeout=5)
    instances.append(cons)
    assert cons.slot("sync").wait(5)
    mirror = cons.slot("mirror")
    assert not mirror.closed
    prod.stop()
    deadline = time.time() + 5
    while not mirror.closed and time.time() < deadline:
        time.sleep(0.01)
    assert mirror.closed


def test_fire_on_closed_stream_errors(instances):
    from locic.transmit import StreamClosed

    comps = components_for("""
        module M {
          peer P { }
          source s: Stream[Int] on P
        }
    """)
    instance = start(comps[PeerId((), "P")], [], [], timeout=5)
    instances.append(instance)
    transport.loop().call(instance.slot("s").close)
    with pytest.raises(StreamClosed):
        instance.fire("s", 1)


def test_remote_pull_inside_stream_map(instances):
    # each emission triggers a fresh pull; the derived stream carries futures
    source = """
        module M {
          peer Prod { tie: single Helper }
          peer Helper { tie: multiple Prod }
          val h: Int on Helper = 100
          source s: Stream[Int] on Prod
          val pulls: Stream[Future[Int]] on Prod = s.map(x => h.asLocal)
        }
    """
    comps = components_for(source)
    hub = fresh_hub()
    helper = PeerInstance(comps[PeerId((), "Helper")])
    instances.append(helper)
    helper.listen(hub)
    helper.activate(5)
    prod = start(comps[PeerId((), "Prod")], [], [(hub, "Helper")], timeout=5)
    instances.append(prod)
    futures = []
    prod.slot("pulls").subscribe(futures.append)
    prod.fire("s", 1)
    prod.fire("s", 2)
    assert len(futures) == 2
    for fut in futures:
        assert fut.wait(5)
        assert fut.value == 100


MAP_FORMS = """
    module M {
      peer P { tie: single H }
      peer H { tie: multiple P }
      val h: Int on H = 100
      val base: Int on P = 40
      val bad: Int on P = later + 1
      val later: Int on P = 2
      source s: Stream[Int] on P
      val k: Stream[Int] on P = s.map(x => 7)
      val b: Stream[Bool] on P = s.map(x => true)
      val t: Stream[Str] on P = s.map(x => "é")
      val v: Stream[Int] on P = s.map(x => x)
      val r: Stream[Int] on P = s.map(x => base)
      val add: Stream[Int] on P = s.map(x => x + base)
      val sub: Stream[Int] on P = s.map(x => x - 3)
      val mul: Stream[Int] on P = s.map(x => x * x)
      val lt: Stream[Bool] on P = s.map(x => x < 2)
      val eq: Stream[Bool] on P = s.map(x => x == 2)
      val tup: Stream[(Int, Str)] on P = s.map(x => (x, "t"))
      val nest: Stream[((Int, Int), (Bool, Int))] on P = s.map(x => ((x, x * 2), (x < 1, base)))
      val mm: Stream[Int] on P = add.map(y => y * 10)
      val pulls: Stream[Future[Int]] on P = s.map(x => h.asLocal)
      val failed: Stream[Int] on P = s.map(x => x + bad)
      val ss: Stream[Stream[Int]] on P = s.map(x => s.map(y => x - y))
    }
"""


def test_each_map_body_emits_what_its_body_gives(instances):
    helper, p = simulate(components_for(MAP_FORMS), ["H", "P"], timeout=5)
    instances.extend([helper, p])
    # each body of MAP_FORMS as a Python function of the mapped value; a slot
    # read is the peer's own, so a failed slot raises EvalError here too
    bodies = {
        "k": lambda x: 7, "b": lambda x: True, "t": lambda x: "é", "v": lambda x: x,
        "r": lambda x: p.slot("base"), "add": lambda x: x + p.slot("base"),
        "sub": lambda x: x - 3, "mul": lambda x: x * x, "lt": lambda x: x < 2,
        "eq": lambda x: x == 2, "tup": lambda x: (x, "t"),
        "nest": lambda x: ((x, x * 2), (x < 1, p.slot("base"))), "mm": lambda y: y * 10,
        "pulls": lambda x: helper.slot("h"), "failed": lambda x: x + p.slot("bad"),
        "ss": lambda x: lambda y: x - y,
    }
    maps = {name: cell.body for name, cell in p._slots.items()
            if isinstance(cell.body, TStreamMap)}
    assert maps.keys() == bodies.keys()
    got = {name: [] for name in [*maps, "s"]}
    for name in got:
        p.slot(name).subscribe(got[name].append)
    fired = [0, 1, 2, -5, 10**20]
    for value in fired:
        p.fire("s", value)

    def evaluated(name: str) -> list:
        """The body's function on each value the map's source emitted; a
        failure drops the value, as the mapped stream drops the message."""
        out = []
        for value in got[maps[name].source.name]:
            try:
                out.append(bodies[name](value))
            except runtime.EvalError:
                pass
        return out

    def settled(futures) -> list:
        return [future.value for future in futures if future.wait(5)]

    assert got["s"] == fired
    for name in maps.keys() - {"pulls", "ss"}:
        assert got[name] == evaluated(name), name
    assert got["failed"] == [] and not p.slot("failed").closed  # dropped; the stream stays open
    assert got["mm"] == [(x + 40) * 10 for x in fired]
    assert got["nest"][:2] == [((0, 0), (True, 40)), ((1, 2), (False, 40))]
    # futures of fresh pulls: their values are compared
    assert settled(got["pulls"]) == evaluated("pulls") == [100] * len(fired)
    # streams, whose bodies read the outer variable: compared on one more value
    inner, expected = [[] for _ in fired], [[f(3)] for f in evaluated("ss")]
    for handle, out in zip(got["ss"], inner):
        handle.subscribe(out.append)
    p.fire("s", 3)
    assert inner == expected == [[x - 3] for x in fired]


TELEMETRY = """
    module Telemetry {
      peer Sensor { tie: multiple Display }
      peer Display { tie: single Sensor }
      source ints: Stream[Int] on Sensor
      source pairs: Stream[(Int, Str)] on Sensor
      val mi: Stream[Int] on Display = ints.asLocal
      val mp: Stream[(Int, Str)] on Display = pairs.asLocal
      val mapped: Stream[Int] on Display = mi.map(v => v * 7 + 31)
    }
"""
CALLS_PER_MESSAGE = 64  # Python calls on the push path, fire to both displays' subscribers


def test_a_pushed_message_stays_within_its_python_call_budget(instances):
    # a count, not a timing: the whole push path runs on this thread (the
    # loop is driven by whoever fires), so the count repeats exactly
    sensor, *displays = simulate(components_for(TELEMETRY), ["Sensor", "Display", "Display"],
                                 timeout=5)
    instances.extend([sensor, *displays])
    loop, got = transport.loop(), []
    assert loop.call(lambda: all(len(sensor.slot(s)._subscribers) == 2 for s in ("ints", "pairs")))
    for display in displays:
        display.slot("mapped").subscribe(got.append)
        display.slot("mp").subscribe(got.append)
    rng = random.Random(22)
    messages = [("ints", rng.randrange(10**6)) if rng.random() < 0.5 else
                ("pairs", (rng.randrange(10**6), "é" * rng.choice((1, 8, 32, 128))))
                for _ in range(200)]
    counts = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            counts[frame.f_code] += 1

    deadline = time.monotonic() + 5
    while loop._owner is not None and time.monotonic() < deadline:
        time.sleep(0.01)  # a daemon still driving would run the fires on its thread
    sensor.fire("ints", 1)  # every lazy part built before counting
    sensor.fire("pairs", (1, "a"))
    got.clear()
    sys.setprofile(profile)
    try:
        for name, value in messages:
            sensor.fire(name, value)
    finally:
        sys.setprofile(None)
    assert len(got) == 2 * len(messages)
    assert counts[Codec.deserialize.__code__] == 2 * len(messages)  # delivered on this thread
    calls = sum(counts.values()) / len(messages)
    assert calls <= CALLS_PER_MESSAGE, f"{calls} Python calls per message"


SETTLE_FORMS = """
    module Settle {
      peer Hub { tie: multiple Spoke }
      peer Spoke { tie: single Hub }
      val n: Int on Hub = 7
      val t: ((Int, Str), (Bool, Int)) on Hub = ((1, "a"), (true, 2))
      val r: Int on Hub = n * 6 + 1
      val sv: (Int, Str) on Spoke = (3, "s")
      val pn: Future[Int] on Spoke = n.asLocal
      val pt: Future[((Int, Str), (Bool, Int))] on Spoke = t.asLocal
      val pr: Future[Int] on Spoke = r.asLocal
      val g: Seq[(Remote[Spoke], Future[(Int, Str)])] on Hub = sv.asLocalFromAll
    }
"""
CALLS_PER_SESSION = 1380  # Python calls in one whole session: connect, evaluate, settle, stop


def test_a_settle_session_stays_within_its_python_call_budget():
    # a count, not a timing: `simulate` drives the loop on this thread
    comps = components_for(SETTLE_FORMS)
    loop, counts = transport.loop(), collections.Counter()

    sessions = []

    def session() -> None:
        sessions.append(simulate(comps, ["Spoke", "Spoke", "Hub"], timeout=5))
        for instance in sessions[-1]:
            instance.stop()

    def profile(frame, event, arg):
        if event == "call":
            counts[frame.f_code] += 1

    deadline = time.monotonic() + 5
    while loop._owner is not None and time.monotonic() < deadline:
        time.sleep(0.01)  # a daemon still driving would run the sessions on its thread
    session()  # every lazy part built before counting
    sys.setprofile(profile)
    try:
        for _ in range(10):
            session()
    finally:
        sys.setprofile(None)
    for *spokes, hub in sessions:
        assert [s.slot_line(name) for s in spokes for name in ("pn", "pt", "pr")] == [
            "pn = 7", 'pt = ((1, "a"), (true, 2))', "pr = 43"] * 2
        assert hub.slot_line("g").count('(3, "s")') == 2
    calls = sum(counts.values()) / 10
    assert counts[PeerInstance.evaluate_slots.__code__] == 10 * 3
    assert calls <= CALLS_PER_SESSION, f"{calls} Python calls per session"


def test_a_module_nested_to_the_limit_checks_splits_reads_back_and_settles(instances):
    n = MAX_NESTING

    def nested(depth: int) -> tuple[str, str, tuple]:
        """A tuple type `depth` tuples deep, a literal of it and its value."""
        ty, lit, value = "Str", '"s"', "s"
        for k in range(depth):
            ty, lit, value = f"(Int, {ty})", f"({k}, {lit})", (k, value)
        return ty, lit, value

    deep_ty, deep_lit, deep_value = nested(n)
    pulled_ty, pulled_lit, pulled_value = nested(n - 1)  # `Future[` is one level more
    source = f"""
        module Deep {{
          peer Hub {{ tie: multiple Spoke }}
          peer Spoke {{ tie: single Hub }}
          val deep: {deep_ty} on Hub = {deep_lit}
          val parens: Int on Hub = {"(" * n}1{")" * n}
          val h: {pulled_ty} on Hub = {pulled_lit}
          source s: Stream[Int] on Spoke
          val m: Stream[Int] on Spoke = s.map(x => {"(" * (n - 1)}x + 1{")" * (n - 1)})
          val p: Future[{pulled_ty}] on Spoke = h.asLocal
        }}
    """
    comps = {pid: read_component(emit_component(c)) for pid, c in components_for(source).items()}
    spoke, hub = simulate(comps, ["Spoke", "Hub"], timeout=5)
    instances.extend([spoke, hub])
    assert hub.slot("deep") == deep_value and hub.slot("parens") == 1
    assert spoke.slot("p").state == READY and spoke.slot("p").value == pulled_value
    got = []
    spoke.slot("m").subscribe(got.append)
    spoke.fire("s", 4)
    assert got == [5]


def test_sim_with_qualified_peer_names(instances):
    _, _, _, tm = helpers.compile_clean(helpers.MONITORING_P2P)
    comps = split(tm)
    sims = simulate(comps, ["mon.Monitor", "mon.Monitored"], timeout=5)
    instances.extend(sims)
    monitor, monitored = sims
    assert monitor.label == "mon.Monitor#1"
    assert monitor.slot("mon.interval") == 5
    with pytest.raises(runtime.EvalError, match="not placed on this peer"):
        monitored.slot("mon.interval")


def test_sim_wires_sub_peers_via_super_peer_ties(instances):
    # ties declared only between the super-peers; the sim still wires the subs
    source = """
        module Sup {
          peer Server { tie: multiple Client }
          peer Client { tie: single Server }
          peer BigServer : Server { }
          peer FancyClient : Client { }
          val x: Int on Server = 8
          val y: Future[Int] on Client = x.asLocal
        }
    """
    comps = components_for(source)
    sims = simulate(comps, ["BigServer", "FancyClient"], timeout=5)
    instances.extend(sims)
    fancy = sims[1]
    y = fancy.slot("y")
    assert y.state == READY
    assert y.value == 8


def test_admission_and_sim_wiring_share_the_former_wiring_rule():
    # `simulate` wires a pair where either end's `ties_to` counts the other,
    # the rule admission applies; it agrees with simulate's former own rule
    import random

    from locic import arch, checker

    components = [components_for((helpers.ROOT / "samples" / name).read_text())
                  for name in ("simple.loci", "streams.loci", "p2p.loci")]
    rng = random.Random(59)
    for _ in range(150):
        m = helpers.random_checked_module(rng)
        a = arch.resolve_architecture(m, {})
        components.append(split(checker.check_module(m, a, arch.effective_ties(a))))
    pairs = 0
    for comps in components:
        for p in comps:
            for q in comps:
                wired = bool(comps[p].ties_to(q) or comps[q].ties_to(p))
                assert wired == helpers.reference_tied(comps, p, q), (p, q)
                pairs += 1
    assert pairs > 1000


@pytest.mark.parametrize("order", [["A", "B"], ["B", "A"]])
def test_sim_wires_a_tie_declared_by_either_end(instances, order):
    comps = components_for("""
        module M {
          peer A { tie: single B }
          peer B { }
          val x: Int on B = 3
          val y: Future[Int] on A = x.asLocal
        }
    """)
    sims = simulate(comps, order, timeout=5)
    instances.extend(sims)
    a = next(i for i in sims if i.label == "A#1")
    assert a.slot("y").value == 3
    assert [len(i.links()) for i in sims] == [1, 1]


def test_every_request_for_a_served_value_is_read_by_template(instances, monkeypatch):
    general = []  # the envelopes the general decoder read
    decode = wire._decode_json_envelope

    def counted(data):
        general.append(decode(data))
        return general[-1]

    monkeypatch.setattr(wire, "_decode_json_envelope", counted)
    sample = lambda name: components_for((helpers.ROOT / "samples" / name).read_text())
    sensor, *displays = simulate(sample("streams.loci"), ["Sensor", "Display", "Display"], 5)
    instances.extend([sensor, *displays])
    got = []
    for display in displays:
        display.slot("mirror").subscribe(got.append)
    readings = sensor.slot("readings")
    deadline = time.time() + 5
    while len(readings._subscribers) < 2 and time.time() < deadline:
        time.sleep(0.005)  # both displays' channels are attached
    sensor.fire("readings", 41)
    while got != [41, 41] and time.time() < deadline:
        time.sleep(0.005)
    assert got == [41, 41]
    for _ in range(3):
        sims = simulate(sample("simple.loci"), ["MyPeer", "MyPeer"], 5)
        instances.extend(sims)
        assert [i.slot("j").value for i in sims] == [1, 1]
    assert {type(env) for env in general} == {Hello, HelloAck}


# --- start-up orderings forced deterministically -------------------------------

class _EagerConnection(transport.Connection):
    """Delivers its queued inbound messages on the thread that opens it,
    before `open()` returns; records what is sent."""

    def __init__(self, inbound: list[bytes]):
        super().__init__()
        self.inbound = inbound
        self.sent = []

    def _start_delivery(self) -> None:
        for data in self.inbound:
            self._on_message(data)

    def _send(self, batch: list[bytes]) -> None:
        self.sent += map(decode_envelope, batch)

    def _close(self, reason: str) -> None:
        self._fire_close(reason)


def test_hello_delivered_during_endpoint_setup_is_handled(instances):
    component = components_for(helpers.SIMPLE_MODULE)[PeerId((), "MyPeer")]
    instance = PeerInstance(component)
    instances.append(instance)
    conn = _EagerConnection([encode_envelope(Hello(component.root_module, component.sig))])
    # the accepting side, on the loop as a listener calls it
    transport.loop().call(instance._on_inbound, conn)
    assert not conn.closed
    assert conn.sent == [HelloAck(True), Hello(component.root_module, component.sig)]


HUB_AND_SPOKES = """
    module HubAndSpokes {
      peer Hub { tie: multiple Spoke }
      peer Spoke { tie: single Hub }
      val v: Int on Spoke = 7
      val g: Seq[(Remote[Spoke], Future[Int])] on Hub = v.asLocalFromAll
    }
"""


def test_simulate_activates_after_links_are_live_at_both_ends(instances, monkeypatch):
    # the hub is listed first, so it accepts both links; holding back its final
    # _mark_live keeps them half-live well after each spoke's connect returned
    mark_live = PeerInstance._mark_live

    def late_on_hub(self, link):
        if self.component.peer.name == "Hub":
            time.sleep(0.2)
        mark_live(self, link)

    monkeypatch.setattr(PeerInstance, "_mark_live", late_on_hub)
    sims = simulate(components_for(HUB_AND_SPOKES), ["Hub", "Spoke", "Spoke"], timeout=5)
    instances.extend(sims)
    gathered = sims[0].slot("g")
    assert len(gathered) == 2
    assert [fut.value for _, fut in gathered] == [7, 7]


# --- deferred responses, forced deterministically --------------------------------

PROD_AND_CONS = """
    module Deferred {
      peer Prod { tie: multiple Cons }
      peer Cons { tie: single Prod }
      source s: Stream[Int] on Prod
      val x: Int on Prod = 41 + 1
      val mirror: Stream[Int] on Cons = s.asLocal
      val fx: Future[Int] on Cons = x.asLocal
    }
"""


def _record_arrivals(instance: PeerInstance, monkeypatch) -> dict[str, threading.Event]:
    """Events set once `instance` has handled a request or a channel-open."""
    arrived = {"request": threading.Event(), "chan_open": threading.Event()}
    handle_request = runtime._Link.on_request
    handle_chan_open = runtime._Link.on_chan_open

    def on_request(link, req):
        outcome = handle_request(link, req)
        if link.instance is instance:
            arrived["request"].set()
        return outcome

    def on_chan_open(link, env):
        outcome = handle_chan_open(link, env)
        if link.instance is instance:
            arrived["chan_open"].set()
        return outcome

    monkeypatch.setattr(runtime._Link, "on_request", on_request)
    monkeypatch.setattr(runtime._Link, "on_chan_open", on_chan_open)
    return arrived


def _unactivated_prod_with_cons(instances, monkeypatch):
    """A Prod that has not evaluated, and an activated Cons whose pull and
    channel-open have both reached it."""
    comps = components_for(PROD_AND_CONS)
    hub = fresh_hub()
    prod = PeerInstance(comps[PeerId((), "Prod")], label="prod")
    instances.append(prod)
    arrived = _record_arrivals(prod, monkeypatch)
    prod.listen(hub)
    cons = start(comps[PeerId((), "Cons")], [], [(hub, "Prod")], timeout=5, label="cons")
    instances.append(cons)
    assert arrived["chan_open"].wait(5)
    assert arrived["request"].wait(5)
    return prod, cons


def test_pull_and_chan_open_before_evaluation_are_answered_once_it_evaluates(
        instances, monkeypatch):
    prod, cons = _unactivated_prod_with_cons(instances, monkeypatch)
    fx = cons.slot("fx")
    assert fx.state == "pending"
    assert [len(prod._slots[n].waiters) for n in ("s", "x")] == [1, 1]
    got = []
    received = threading.Event()

    def on_value(value):
        got.append(value)
        received.set()

    cons.slot("mirror").subscribe(on_value)
    prod.activate(5)
    # `s` evaluates before `x`, so the channel is attached before fx's response
    assert fx.wait(5)
    assert fx.state == READY and fx.value == 42
    prod.fire("s", 7)
    assert received.wait(5)
    assert got == [7]
    assert [len(prod._slots[n].waiters) for n in ("s", "x")] == [0, 0]


def test_a_closed_links_deferred_responses_are_dropped(instances, monkeypatch):
    # Cons's pull and channel-open wait in Prod's slots; once Cons stops,
    # Prod keeps neither them nor, through them, the link they came on
    prod, cons = _unactivated_prod_with_cons(instances, monkeypatch)
    assert [len(prod._slots[n].waiters) for n in ("s", "x")] == [1, 1]
    link = weakref.ref(transport.loop().call(lambda: prod._links[0]))
    cons.stop()
    _wait_on_loop(lambda: not prod._links)
    assert [len(prod._slots[n].waiters) for n in ("s", "x")] == [0, 0]
    assert link() is None
    prod.activate(5)
    assert prod.slot("x") == 42


def test_waiting_request_does_not_hold_up_another_connection(instances, monkeypatch):
    prod, cons = _unactivated_prod_with_cons(instances, monkeypatch)
    comps = components_for(PROD_AND_CONS)
    hub = fresh_hub()
    other_prod = PeerInstance(comps[PeerId((), "Prod")], label="other-prod")
    instances.append(other_prod)
    other_prod.listen(hub)
    other_prod.activate(5)
    other_cons = start(comps[PeerId((), "Cons")], [], [(hub, "Prod")], timeout=5)
    instances.append(other_cons)
    other_fx = other_cons.slot("fx")
    assert other_fx.wait(5)
    assert other_fx.value == 42
    assert cons.slot("fx").state == "pending"  # still waiting for prod to evaluate
    prod.activate(5)
    assert cons.slot("fx").wait(5)
    assert cons.slot("fx").value == 42


def test_stop_fails_a_waiting_request_with_peer_stopped(instances, monkeypatch):
    prod, cons = _unactivated_prod_with_cons(instances, monkeypatch)
    fx, mirror = cons.slot("fx"), cons.slot("mirror")
    prod.stop()
    assert fx.wait(5)
    assert fx.state == FAILED
    assert fx.error == "value 'x' is unavailable: peer stopped"
    assert transport.loop().call(lambda: mirror.closed)  # the channel-open was refused


# --- threads and scale --------------------------------------------------------

P2P_SAMPLE = Path(__file__).resolve().parents[1] / "samples" / "p2p.loci"


def test_p2p_sim_starts_at_most_the_loop_thread(instances, monkeypatch):
    comps = components_for(P2P_SAMPLE.read_text(encoding="utf-8"))
    before = set(threading.enumerate())
    started = []
    thread_start = threading.Thread.start

    def counting_start(thread):
        started.append(thread.name)
        thread_start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    sims = simulate(comps, ["Registry"] + ["Node"] * 19, timeout=10)
    for instance in sims:
        instance.stop()
    monkeypatch.undo()
    assert set(started) <= {"locic-loop"} and len(started) <= 1
    left = {t.name for t in set(threading.enumerate()) - before}
    assert left <= {"locic-loop"}
    nodes = sims[1:]
    assert all(node.slot("fromNode").value == 5 for node in nodes)


def test_p2p_sim_settles_while_the_daemon_drives_the_loop(instances):
    # an open listening socket keeps the daemon driving, so every call the
    # simulation makes from this thread, its waits for links included, is
    # posted to the daemon
    comps = components_for(P2P_SAMPLE.read_text(encoding="utf-8"))
    lp = transport.loop()
    listener = transport.listen("tcp:127.0.0.1:0", lambda conn: conn.close())
    try:
        assert lp._owner is not None and lp._owner == lp._daemon.ident
        assert lp._owner != threading.get_ident()
        sims = simulate(comps, ["Registry"] + ["Node"] * 9, timeout=10)
        instances.extend(sims)
        registry, nodes = sims[0], sims[1:]
        assert registry.slot("localRead") == 6
        assert all(node.slot("fromNode").value == 5 for node in nodes)
        # the Registry reaches every Node; a Node the Registry and the 8 others
        assert [len(instance.links()) for instance in sims] == [9] * 10
    finally:
        listener.close()


_NO_THREAD_SCRIPT = """
import json, sys, threading
import helpers
from locic import runtime, transport
from locic.splitter import split

components = split(helpers.compile_clean(open(sys.argv[1], encoding="utf-8").read())[3])
started, foreign_posts = [], []
thread_start, post = threading.Thread.start, transport.Loop.post

def counting_start(thread):
    started.append(thread.name)
    thread_start(thread)

def counting_post(loop, fn, *args):
    if loop._owner != threading.get_ident():
        foreign_posts.append(repr(fn))
    post(loop, fn, *args)

threading.Thread.start, transport.Loop.post = counting_start, counting_post
sims = runtime.simulate(components, ["Registry"] + ["Node"] * 19, timeout=10)
for instance in sims:
    instance.stop()
print(json.dumps({"started": started, "foreign_posts": foreign_posts,
                  "threads": threading.active_count(),
                  "settled": all(n.slot("fromNode").value == 5 for n in sims[1:])}))
"""


def test_simulate_starts_no_thread_and_posts_nothing_across_threads():
    # in a fresh interpreter, where no loop thread that an earlier test
    # started can stand in for one this simulation starts
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    proc = subprocess.run([sys.executable, "-c", _NO_THREAD_SCRIPT, str(P2P_SAMPLE)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"started": [], "foreign_posts": [],
                                       "threads": 1, "settled": True}


def test_gathers_list_remotes_by_link_id_and_find_them_once(instances, monkeypatch):
    source = """
        module M {
          peer Registry { tie: multiple Node }
          peer Node { tie: single Registry }
          val i: Int on Node = 10
          val first: Seq[(Remote[Node], Future[Int])] on Registry = i.asLocalFromAll
          val second: Seq[(Remote[Node], Future[Int])] on Registry = i.asLocalFromAll
        }
    """
    evaluating, looked_up = [], []
    evaluate, super_closure = PeerInstance.evaluate_slots, PeerComponent.super_closure

    def counted_evaluate(self):
        evaluating.append(self.component.peer.name)
        evaluate(self)
        evaluating.pop()

    def counted_closure(self, p):
        if evaluating[-1:] == ["Registry"]:
            looked_up.append(p)
        return super_closure(self, p)

    monkeypatch.setattr(PeerInstance, "evaluate_slots", counted_evaluate)
    monkeypatch.setattr(PeerComponent, "super_closure", counted_closure)
    sims = simulate(components_for(source), ["Node", "Registry", "Node", "Node"], timeout=5)
    instances.extend(sims)
    first, second = sims[1].slot("first"), sims[1].slot("second")
    ids = [ref.link_id for ref, _ in first]
    assert len(ids) == 3 and ids == sorted(ids)
    assert [ref for ref, _ in second] == [ref for ref, _ in first]
    assert all(fut.value == 10 for _, fut in first + second)
    # both gathers read one look-up of the live links: one closure per link
    assert len(looked_up) == 3


def test_p2p_sim_with_100_nodes_settles(instances):
    # a full mesh of 99 Nodes plus the Registry: 4,950 links on one loop
    comps = components_for(P2P_SAMPLE.read_text(encoding="utf-8"))
    sims = simulate(comps, ["Registry"] + ["Node"] * 99, timeout=30)
    instances.extend(sims)
    registry, nodes = sims[0], sims[1:]
    assert len(registry.links()) == 99
    assert all(len(node.links()) == 99 for node in nodes)
    values = [node.slot("fromNode") for node in nodes]
    assert all(fut.state == READY and fut.value == 5 for fut in values)


def test_a_link_costs_few_tracked_objects_and_no_per_link_copies():
    # what two p2p sims of 20 and 40 nodes hold, per link added between them:
    # each end's link, endpoint and connection and the connection's two bound
    # callbacks; the identities and tie lists a link holds are its instance's
    comps = components_for(P2P_SAMPLE.read_text(encoding="utf-8"))

    def census(nodes: int) -> collections.Counter:
        gc.collect()
        before = collections.Counter(type(o).__name__ for o in gc.get_objects())
        sims = simulate(comps, ["Registry"] + ["Node"] * (nodes - 1), timeout=10)
        held = collections.Counter(type(o).__name__ for o in gc.get_objects())
        for instance in sims:
            instance.stop()
        return held - before

    small, large = census(20), census(40)
    added_links = 40 * 39 // 2 - 20 * 19 // 2
    per_link = (sum(large.values()) - sum(small.values())) / added_links
    assert per_link <= 12, f"{per_link} tracked objects per link"  # 43.5 with closures
    for name in ("function", "cell", "FutureSlot", "PeerSig", "ModuleSig", "PeerId"):
        assert large[name] - small[name] < added_links, name  # fewer than one a link


# --- per-turn batches -------------------------------------------------------------

def _settle_shape():
    """The benchmark's `settle` module (a hub, two spokes, 32 values each
    spoke pulls) and its peers in order."""
    inputs = helpers.load_bench("gen").settle_module(101)
    return components_for(inputs["source"]), inputs["peers"]


def test_a_settle_session_makes_few_mem_delivery_batches(instances, monkeypatch):
    # each batch is one loop callback at the receiving end: the pulls a
    # spoke makes while evaluating, and the answers to them, travel together
    components, peers = _settle_shape()
    receive = transport.MemConnection._receive
    batches = []

    def counted(conn, batch):
        batches.append(len(batch))
        receive(conn, batch)

    monkeypatch.setattr(transport.MemConnection, "_receive", counted)
    sims = simulate(components, peers, timeout=5)
    instances.extend(sims)
    assert sum(batches) == 140  # the frames of a session, as before batching
    assert len(batches) <= 16


def test_pulls_made_in_one_evaluation_leave_in_one_tcp_send_per_connection(instances,
                                                                             monkeypatch):
    components, _ = _settle_shape()
    hub = start(components[PeerId((), "Hub")], ["tcp:127.0.0.1:0"], [], timeout=5)
    instances.append(hub)
    address = hub._listeners[0].address
    send = socket.socket.send
    requests: dict[int, list[int]] = {}  # socket -> request frames per send

    def counted(sock, data, *flags):
        frames = bytes(data).count(b'{"t":"req"')
        if frames:
            requests.setdefault(sock.fileno(), []).append(frames)
        return send(sock, data, *flags)

    monkeypatch.setattr(socket.socket, "send", counted)
    spokes = [start(components[PeerId((), "Spoke")], [], [(address, "Hub")], timeout=5)
              for _ in range(2)]
    instances.extend(spokes)
    for spoke in spokes:
        assert spoke.wait_settled(5)
        assert all(spoke.slot(f"p{i}").state == READY for i in range(32))
    assert sorted(requests.values()) == [[32], [32]]


def test_a_stopped_session_is_freed_by_reference_counting():
    # nothing a session leaves behind is held in a reference cycle, so it goes
    # as soon as the last reference does, with the cycle collector switched off
    components, peers = _settle_shape()
    gc.collect()
    gc.disable()
    try:
        sims = simulate(components, peers, timeout=5)
        for instance in sims:
            instance.stop()
        del sims, instance
        assert gc.collect() == 0
    finally:
        gc.enable()


def _wait_on_loop(check, timeout=5.0) -> None:
    """Poll `check` on the loop until it holds."""
    deadline = time.monotonic() + timeout
    while not transport.loop().call(check):
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.001)


def test_a_producer_stream_keeps_nothing_of_the_consumers_that_stopped(instances):
    # each Display attaches a channel to the Sensor's `readings` and stops:
    # the stream's close hooks stay as many, and no session's endpoint lives on
    comps = components_for((helpers.ROOT / "samples" / "streams.loci").read_text())
    hub = fresh_hub()
    sensor = start(comps[PeerId((), "Sensor")], [hub], [], timeout=5)
    instances.append(sensor)
    readings, call = sensor.slot("readings"), transport.loop().call
    hooks = call(lambda: len(readings._close_callbacks))  # `celsius`'s map
    endpoints = []
    for _ in range(200):
        display = start(comps[PeerId((), "Display")], [], [(hub, "Sensor")], timeout=5)
        _wait_on_loop(lambda: len(readings._subscribers) == 2)  # the channel attached
        endpoints += call(lambda: [weakref.ref(link.endpoint)
                                   for link in sensor._links + display._links])
        display.stop()
        _wait_on_loop(lambda: not sensor._links)
    del display
    gc.collect()
    assert call(lambda: len(readings._close_callbacks)) == hooks == 1
    assert len(endpoints) == 400 and [ref for ref in endpoints if ref() is not None] == []
