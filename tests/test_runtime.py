import threading
import time
from pathlib import Path

import pytest

import helpers
from locic import runtime, transport
from locic.arch import PeerId
from locic.codecs import parse_codec
from locic.runtime import PeerInstance, RemoteRef, StartError, simulate, start
from locic.sigs import ModuleSig, PeerSig, ValueSig
from locic.splitter import split
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


def _hello_ack(instances, hello: Hello) -> HelloAck:
    """The HelloAck a listening SimpleModule instance sends for `hello`."""
    comps = components_for(helpers.SIMPLE_MODULE)
    hub = fresh_hub()
    instance = PeerInstance(comps[PeerId((), "MyPeer")])
    instances.append(instance)
    instance.listen(hub)
    acks = []
    got_ack = threading.Event()

    def on_control(env):
        if isinstance(env, HelloAck):
            acks.append(env)
            got_ack.set()

    ep = Endpoint(connect(hub), opener=True,
                  on_control=on_control,
                  on_request=lambda r: Response(r.id, False, error="no"),
                  on_chan_open=lambda e: None, on_closed=lambda r: None)
    ep.start()
    ep.send(hello)
    assert got_ack.wait(5)
    ep.close()
    return acks[0]


def test_module_signature_mismatch_rejected(instances):
    ack = _hello_ack(instances, Hello(ModuleSig("SomethingElse"),
                                      PeerSig("MyPeer", ModuleSig("SomethingElse"))))
    assert ack.accepted is False
    assert "module signature mismatch" in ack.reason


def test_protocol_version_mismatch_rejected(instances):
    for version in (1, 99):
        ack = _hello_ack(instances, Hello(ModuleSig("SimpleModule"),
                                          PeerSig("MyPeer", ModuleSig("SimpleModule")),
                                          proto_version=version))
        assert ack == HelloAck(False, f"protocol version {version} is not supported (expected 2)")


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
    ep = Endpoint(connect(spec), opener=True, on_control=lambda env: None,
                  on_request=lambda r: Response(r.id, False, error="no"),
                  on_chan_open=lambda e: None, on_closed=lambda r: None)
    ep.start()
    return ep


def _try_to_read(instance: PeerInstance, ep: Endpoint):
    """Pull `x` and open a channel to `s` over `ep`, then fire into `s`.
    Returns the settled pull, the values the channel delivered, and whether
    the channel was closed."""
    pulled = ep.pull(X_SIG, parse_codec("Int"))
    chan = ep.open_stream(S_SIG, parse_codec("Int"))
    got = []
    chan.subscribe(got.append)
    assert pulled.wait(5)
    instance.fire("s", 1)
    # the answer to a later pull comes after anything the fire sent
    assert ep.pull(X_SIG, parse_codec("Int")).wait(5)
    return pulled, got, chan.closed


def test_endpoint_without_hello_reads_nothing(instances):
    hub = fresh_hub()
    a = start(components_for(OPTIONAL_PAIR)[PeerId((), "A")], [hub], [], timeout=5)
    instances.append(a)
    ep = _raw_endpoint(hub)
    try:
        pulled, got, closed = _try_to_read(a, ep)
    finally:
        ep.close()
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
        ep.send(Hello(b.root_module, b.sig))
        pulled, got, closed = _try_to_read(a, ep)
    finally:
        ep.close()
    assert pulled.state == FAILED and pulled.error == "connection not admitted"
    assert got == [] and closed
    assert a.links() == []


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
        ep.send(Hello(spoke.root_module, spoke.sig))
        pulled = ep.pull(X_SIG, parse_codec("Int"))
        chan = ep.open_stream(S_SIG, parse_codec("Int"))
        assert pulled.wait(5)
    finally:
        ep.close()
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
    unknown = link.endpoint.pull(ValueSig("ghost:Int", ModuleSig("SimpleModule")),
                                 parse_codec("Int"))
    assert unknown.wait(5)
    assert unknown.state == FAILED
    assert "value not found" in unknown.error
    # j: Future[Int] is placed here but not serializable, so not dispatchable
    j_sig = ValueSig("j:Future[Int]", ModuleSig("SimpleModule"))
    refused = link.endpoint.pull(j_sig, parse_codec("Int"))
    assert refused.wait(5)
    assert refused.state == FAILED


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
    assert "not yet initialized" in instance.slot_error("a")
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
    began = time.time()
    with pytest.raises(StartError) as exc:
        simulate(comps, ["Node"], timeout=0.4)
    assert "Registry" in str(exc.value)
    assert time.time() - began < 5


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
    assert "expected" in str(exc.value)


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
    instance.slot("s").close()
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


def test_sim_with_qualified_peer_names(instances):
    _, _, _, tm = helpers.compile_clean(helpers.MONITORING_P2P)
    comps = split(tm)
    sims = simulate(comps, ["mon.Monitor", "mon.Monitored"], timeout=5)
    instances.extend(sims)
    monitor, monitored = sims
    assert monitor.label == "mon.Monitor#1"
    assert monitor.slot("mon.interval") == 5
    assert monitored.slot_state("mon.interval") == "placeholder"


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


# --- start-up orderings forced deterministically -------------------------------

class _EagerConnection(transport.Connection):
    """Delivers its queued inbound messages on the thread that opens it,
    before `open()` returns; records what is sent."""

    def __init__(self, inbound: list[bytes]):
        super().__init__(transport.ConnectionInfo("eager", "eager:test"))
        self.inbound = inbound
        self.sent = []

    def _start_delivery(self) -> None:
        for data in self.inbound:
            self._on_message(data)

    def _send(self, data: bytes) -> None:
        self.sent.append(decode_envelope(data))

    def _close(self, reason: str) -> None:
        self._fire_close(reason)


def test_hello_delivered_during_endpoint_setup_is_handled(instances):
    component = components_for(helpers.SIMPLE_MODULE)[PeerId((), "MyPeer")]
    instance = PeerInstance(component)
    instances.append(instance)
    conn = _EagerConnection([encode_envelope(Hello(component.root_module, component.sig))])
    instance._on_inbound(conn)  # the accepting side, as a listener calls it
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
    handle_request = instance._handle_request
    handle_chan_open = instance._handle_chan_open

    def on_request(hs, req):
        outcome = handle_request(hs, req)
        arrived["request"].set()
        return outcome

    def on_chan_open(hs, env):
        outcome = handle_chan_open(hs, env)
        arrived["chan_open"].set()
        return outcome

    monkeypatch.setattr(instance, "_handle_request", on_request)
    monkeypatch.setattr(instance, "_handle_chan_open", on_chan_open)
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
