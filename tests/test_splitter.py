import collections
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from locic import arch, ast, checker
from locic.arch import PeerId, is_subpeer
from locic.ast import Multiplicity
from locic.checker import FutureT, INT_T
from locic import transport
from locic.codecs import parse_codec
from locic.runtime import simulate
from locic.sigs import ModuleSig, PeerSig, ValueSig
from locic.splitter import (FORMAT, PULL, STREAM, AccessPlan, ComponentFormatError,
                            Evaluate, Placeholder, RemoteCall, SplitError,
                            emit_component, peer_sig_of, read_component, split)
from locic.transmit import FAILED, READY

MYPEER = PeerId((), "MyPeer")


def split_source(source: str):
    _, _, _, tm = helpers.compile_clean(source)
    return tm, split(tm)


def test_simple_module_component_shape():
    tm, comps = split_source(helpers.SIMPLE_MODULE)
    assert set(comps) == {MYPEER}
    pc = comps[MYPEER]
    assert pc.sig == PeerSig("MyPeer", ModuleSig("SimpleModule"))
    assert pc.tie_table == {pc.sig: Multiplicity.SINGLE}
    assert [name for name, _ in pc.slots] == ["i", "j"]
    i_plan = dict(pc.slots)["i"]
    assert isinstance(i_plan, Evaluate)
    sig_i = ValueSig("i:Int", ModuleSig("SimpleModule"))
    assert pc.dispatch == {sig_i: AccessPlan("i", PULL, parse_codec("Int"))}


def test_remote_access_rewritten_to_remote_call():
    tm, comps = split_source(helpers.SIMPLE_MODULE)
    j_plan = dict(comps[MYPEER].slots)["j"]
    call = j_plan.body
    assert isinstance(call, RemoteCall)
    assert call.value_sig == ValueSig("i:Int", ModuleSig("SimpleModule"))
    assert call.target_peer_id == MYPEER
    assert call.mult is Multiplicity.SINGLE
    # the access site holds the very plan the target dispatches
    assert call.plan is comps[MYPEER].dispatch[call.value_sig]
    assert call.ty == FutureT(INT_T)


def test_placeholder_partition():
    tm, comps = split_source("""
        module M {
          peer A { tie: single B }
          peer B { tie: single A }
          val x: Int on A = 1
          val y: Int on B = 2
        }
    """)
    a, b = comps[PeerId((), "A")], comps[PeerId((), "B")]
    assert isinstance(dict(a.slots)["x"], Evaluate)
    assert isinstance(dict(a.slots)["y"], Placeholder)
    assert isinstance(dict(b.slots)["x"], Placeholder)
    assert isinstance(dict(b.slots)["y"], Evaluate)
    assert [s.canonical for s in a.dispatch] == ["x:Int"]
    assert [s.canonical for s in b.dispatch] == ["y:Int"]


def test_sub_peer_receives_super_peer_slots():
    tm, comps = split_source(helpers.MONITORING_P2P)
    registry = comps[PeerId((), "Registry")]
    interval_plan = dict(registry.slots)["mon.interval"]
    assert isinstance(interval_plan, Evaluate)
    interval_sig = ValueSig("interval:Int", ModuleSig("Monitoring", ("mon",)))
    assert interval_sig in registry.dispatch
    # the plain Monitor component also carries it
    monitor = comps[PeerId(("mon",), "Monitor")]
    assert interval_sig in monitor.dispatch
    # but Node does not serve it
    node = comps[PeerId((), "Node")]
    assert interval_sig not in node.dispatch
    assert isinstance(dict(node.slots)["mon.interval"], Placeholder)


def test_unserializable_remote_target_is_split_error():
    _, _, _, tm = helpers.compile_clean("""
        module M {
          peer P { tie: single P }
          val i: Int on P = 1
          val j: Future[Int] on P = i.asLocal
          val k: Future[Future[Int]] on P = j.asLocal
        }
    """)
    with pytest.raises(SplitError) as exc:
        split(tm)
    assert "'j'" in str(exc.value)
    assert "no codec for Future[Int]" in str(exc.value)


def test_unserializable_but_unaccessed_defs_are_fine():
    tm, comps = split_source(helpers.SIMPLE_MODULE)
    pc = comps[MYPEER]
    # j: Future[Int] has no codec, so it is not remotely accessible
    assert [s.canonical for s in pc.dispatch] == ["i:Int"]


def test_stream_defs_get_connected_mode():
    tm, comps = split_source("""
        module M {
          peer P { tie: single P }
          source s: Stream[Int] on P
        }
    """)
    pc = comps[PeerId((), "P")]
    plan = pc.dispatch[ValueSig("s:Stream[Int]", ModuleSig("M"))]
    assert plan == AccessPlan("s", STREAM, parse_codec("Int"))


def test_slot_order_equals_source_order():
    rng = random.Random(31)
    for _ in range(50):
        m = helpers.random_checked_module(rng)
        a, t, tm = _check(m)
        for pc in split(tm).values():
            assert [name for name, _ in pc.slots] == a.def_order


def _check(m):
    from locic.arch import effective_ties, resolve_architecture
    from locic.checker import check_module

    a = resolve_architecture(m, {})
    t = effective_ties(a)
    tm = check_module(m, a, t)
    assert tm.diagnostics == []
    return a, t, tm


def _transmittable(declared) -> bool:
    from locic.checker import StreamT
    from locic.splitter import sem_type_shape

    payload = declared.elem if isinstance(declared, StreamT) else declared
    return sem_type_shape(payload) is not None


def test_dispatch_completeness_bijection():
    rng = random.Random(37)
    for _ in range(50):
        m = helpers.random_checked_module(rng)
        a, t, tm = _check(m)
        comps = split(tm)
        placements = {d.name: d.placed_on for d in tm.defs}
        serializable = {d.name for d in tm.defs if _transmittable(d.declared_type)}
        for pid, pc in comps.items():
            served_slots = {plan.slot for plan in pc.dispatch.values()}
            expected = {name for name, placed in placements.items()
                        if is_subpeer(a, pid, placed) and name in serializable}
            assert served_slots == expected


def test_remote_call_rewrite_bijection():
    from locic.splitter import value_sig_of

    rng = random.Random(41)
    for _ in range(50):
        m = helpers.random_checked_module(rng)
        a, t, tm = _check(m)
        comps = split(tm)
        placements = {d.name: d.placed_on for d in tm.defs}
        # collect rewritten calls from each definition's own component
        own_peer_calls = set()
        for pid, pc in comps.items():
            for name, plan in pc.slots:
                if isinstance(plan, Placeholder) or placements[name] != pid:
                    continue
                own_peer_calls.update(
                    (name, call.value_sig) for call in _remote_calls(plan.body))
        expected = set()
        for rec in tm.remote_accesses:
            target_decl = next(f.decl for f in a.defs if f.name == rec.target)
            expected.add((rec.site_id.split("#")[0],
                          value_sig_of(a, rec.target, target_decl)))
        assert own_peer_calls == expected


def _remote_calls(e):
    from locic import checker

    if isinstance(e, RemoteCall):
        yield e
    elif isinstance(e, checker.TBinOp):
        yield from _remote_calls(e.left)
        yield from _remote_calls(e.right)
    elif isinstance(e, checker.TTupleExpr):
        for i in e.items:
            yield from _remote_calls(i)
    elif isinstance(e, checker.TStreamMap):
        yield from _remote_calls(e.source)
        yield from _remote_calls(e.body)


# an included module with definitions but no peers of its own: its alias
# reaches the documents only through value signatures
INCLUDED_DEFS_ONLY = """
    module Other { peer P { tie: single P } }
    module Lib { val x: Int on o.P = 1 }
    module Top {
      include o: Other
      include lib: Lib
      peer T : o.P { tie: single o.P }
      peer U { tie: single o.P }
      val y: Future[Int] on T = lib.x.asLocal
      val z: Future[Int] on U = lib.x.asLocal
    }
"""


def _assert_documents_round_trip(comps):
    for pc in comps.values():
        text = emit_component(pc)
        assert read_component(text) == pc
        assert emit_component(pc) == text
        assert emit_component(read_component(text)) == text


def test_emit_read_round_trip():
    for source in (helpers.MONITORING_P2P, INCLUDED_DEFS_ONLY):
        _assert_documents_round_trip(split_source(source)[1])


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_emit_read_round_trip_on_random_modules(rng):
    m = helpers.random_checked_module(rng, max_peers=6, max_defs=10)
    _assert_documents_round_trip(split(_check(m)[2]))


def test_document_writes_ids_and_derives_signatures():
    _, comps = split_source(helpers.MONITORING_P2P)
    node = comps[PeerId((), "Node")]
    doc = json.loads(emit_component(node))
    assert doc["peer"] == "Node" and doc["rootModule"] == "P2P"
    assert doc["includes"] == {"mon": "Monitoring"}
    assert doc["peers"] == {"Node": ["mon.Monitored"], "Registry": ["mon.Monitor"],
                            "mon.Monitor": [], "mon.Monitored": []}
    assert doc["ties"] == {"Node": "multiple", "Registry": "single", "mon.Monitor": "single"}
    assert doc["slots"][:2] == ["mon.interval", "localRead"]
    call = doc["slots"][2]["body"]
    assert call["val"] == "interval:Int" and call["target"] == "mon.Monitor"
    # every signature is rebuilt from an id, the root module and the includes
    back = read_component(emit_component(node))
    monitoring = ModuleSig("Monitoring", ("mon",))
    assert back.sig == PeerSig("Node", ModuleSig("P2P"))
    assert back.peer_table[PeerId(("mon",), "Monitor")].sig == PeerSig("Monitor", monitoring)
    assert dict(back.slots)["fromNode"].body.value_sig == ValueSig("interval:Int", monitoring)


def test_emit_is_one_compact_line():
    for pc in split_source(helpers.MONITORING_P2P)[1].values():
        text = emit_component(pc)
        assert text.endswith("}\n")
        assert "\n" not in text[:-1]
        assert ", " not in text and '": ' not in text


def test_read_component_accepts_indented_documents():
    # the same document indented, as a person or another tool may write it
    for pc in split_source(helpers.MONITORING_P2P)[1].values():
        text = emit_component(pc)
        indented = json.dumps(json.loads(text), indent=1, sort_keys=True,
                              ensure_ascii=False) + "\n"
        assert indented != text
        assert read_component(indented) == pc
        assert emit_component(read_component(indented)) == text


def _lattice_module(rng: random.Random, n_peers: int) -> ast.SurfaceModule:
    """A checkable module over a random peer lattice: two values per peer, the
    second reading a value placed on one of the peer's super-peers."""
    base = helpers.random_arch_module(rng, max_peers=n_peers, min_peers=n_peers)
    defs = []
    for k, peer in enumerate(base.peers):
        on = ast.PeerRef(None, peer.name)
        defs.append(ast.DefDecl(f"v{k}", ast.DefKind.VAL, ast.INT, on, ast.IntLit(k)))
        source = int(rng.choice(peer.supers).name[1:]) if peer.supers else k
        defs.append(ast.DefDecl(f"w{k}", ast.DefKind.VAL, ast.INT, on,
                                ast.BinOp("+", ast.Ref(None, f"v{source}"), ast.IntLit(1))))
    return ast.SurfaceModule(base.name, (), base.peers, tuple(defs))


def test_compile_walks_each_super_closure_once(monkeypatch):
    walks = collections.Counter()
    walk = arch._walk_closure

    def counted(supers, p):
        walks[p] += 1
        return walk(supers, p)

    monkeypatch.setattr(arch, "_walk_closure", counted)
    m = _lattice_module(random.Random(29), 200)
    a = arch.resolve_architecture(m, {})
    tm = checker.check_module(m, a, arch.effective_ties(a))
    assert not tm.diagnostics
    comps = split(tm)
    assert len(comps) == 200
    assert set(walks) == set(a.peers) and set(walks.values()) == {1}
    # a component builds its own table on first use, and only once
    pc = comps[PeerId((), "P7")]
    for pid in a.peers:
        assert pc.super_closure(pid) == a.super_closure(pid)
    assert set(walks.values()) == {2}


def test_emit_deterministic():
    first = {pid: emit_component(pc) for pid, pc in split_source(helpers.MONITORING_P2P)[1].items()}
    second = {pid: emit_component(pc) for pid, pc in split_source(helpers.MONITORING_P2P)[1].items()}
    assert first == second


def test_distinct_module_paths_give_distinct_peer_sigs():
    source = """
        module Shared { peer P { } }
        module Top {
          include a: Shared
          include b: Shared
          peer Local : a.P { }
        }
    """
    _, a, _, tm = helpers.compile_clean(source)
    sig_a = peer_sig_of(a, PeerId(("a",), "P"))
    sig_b = peer_sig_of(a, PeerId(("b",), "P"))
    assert sig_a != sig_b
    assert sig_a.peer_name == sig_b.peer_name == "P"
    assert sig_a.module.path == ("a",)
    assert sig_b.module.path == ("b",)


# --- dispatch entries served by a running peer -------------------------------

STREAM_MODULE = """
    module M {
      peer P { tie: single P }
      source s: Stream[Int] on P
    }
"""


def _served(source, peers, sig, fail_slot=None):
    """Pull `sig` as Int from the second of two running instances; with
    `fail_slot`, that slot is first marked failed with "boom"."""
    _, comps = split_source(source)
    sims = simulate(comps, peers, timeout=5)
    try:
        if fail_slot is not None:
            def fail():
                cell = sims[1]._slots[fail_slot]
                cell.state, cell.error = cell.ERROR, "boom"
            transport.loop().call(fail)
        future = sims[0]._links[0].endpoint.pull(sig, parse_codec("Int"))
        assert future.wait(5)
        return future
    finally:
        for instance in sims:
            instance.stop()


def test_dispatch_entry_success():
    future = _served(helpers.SIMPLE_MODULE, ["MyPeer", "MyPeer"],
                     ValueSig("i:Int", ModuleSig("SimpleModule")))
    assert future.state == READY
    assert future.value == 1


def test_dispatch_entry_not_found():
    future = _served(helpers.SIMPLE_MODULE, ["MyPeer", "MyPeer"],
                     ValueSig("nope:Int", ModuleSig("SimpleModule")))
    assert future.state == FAILED
    assert future.error == "value not found: nope:Int"


def test_dispatch_entry_propagates_slot_read_failure():
    future = _served(helpers.SIMPLE_MODULE, ["MyPeer", "MyPeer"],
                     ValueSig("i:Int", ModuleSig("SimpleModule")), fail_slot="i")
    assert future.state == FAILED
    assert future.error == "value 'i' is unavailable: boom"


def test_dispatch_entry_rejects_pull_of_stream():
    future = _served(STREAM_MODULE, ["P", "P"], ValueSig("s:Stream[Int]", ModuleSig("M")))
    assert future.state == FAILED
    assert future.error == "'s:Stream[Int]' is a stream; open a channel to access it"


# --- reading component documents -------------------------------------------------

def _simple_document() -> dict:
    _, comps = split_source(helpers.SIMPLE_MODULE)
    return json.loads(emit_component(comps[MYPEER]))


def _j_call_plan(doc: dict) -> dict:
    # a placeholder slot is its bare name; an evaluated one is {"name", "body"}
    return next(slot for slot in doc["slots"]
                if isinstance(slot, dict) and slot["name"] == "j")["body"]["plan"]


@pytest.mark.parametrize("where, field, value, named", [
    ("call", "codec", "Float", "Float"),
    ("call", "codec", "(Int)", "(Int)"),
    ("call", "mode", "push", "push"),
    ("dispatch", "codec", "Float", "Float"),
    ("dispatch", "mode", "push", "push"),
    ("dispatch", "slot", "ghost", "ghost"),
])
def test_read_component_rejects_plans_it_cannot_build(where, field, value, named):
    doc = _simple_document()
    plan = _j_call_plan(doc) if where == "call" else doc["dispatch"][0]["plan"]
    plan[field] = value
    with pytest.raises(ComponentFormatError, match=re.escape(named)):
        read_component(json.dumps(doc))


def _ghost_super(doc):
    doc["peers"]["MyPeer"] = ["Ghost"]


def _ghost_tie(doc):
    doc["ties"]["Ghost"] = "single"


def _ghost_peer(doc):
    doc["peer"] = "Ghost"


@pytest.mark.parametrize("edit", [_ghost_super, _ghost_tie, _ghost_peer])
def test_read_component_refuses_peers_missing_from_its_table(edit):
    doc = _simple_document()
    edit(doc)
    with pytest.raises(ComponentFormatError, match="Ghost"):
        read_component(json.dumps(doc))


# the document the previous format gave for helpers.SIMPLE_MODULE
SIMPLE_MODULE_V2 = (
    '{"dispatch":[{"plan":{"codec":"Int","mode":"pull","slot":"i"},"val":{"module":'
    '{"name":"SimpleModule","path":[]},"val":"i:Int"}}],"format":"locic-component/2",'
    '"peer":{"name":"MyPeer","path":[]},"peers":[{"id":{"name":"MyPeer","path":[]},'
    '"sig":{"module":{"name":"SimpleModule","path":[]},"peer":"MyPeer"},"supers":[]}],'
    '"rootModule":{"name":"SimpleModule","path":[]},"sig":{"module":{"name":"SimpleModule",'
    '"path":[]},"peer":"MyPeer"},"slots":[{"body":{"k":"int","v":1},"name":"i","plan":"eval"},'
    '{"body":{"k":"remotecall","mult":"single","plan":{"codec":"Int","mode":"pull","slot":"i"},'
    '"targetId":{"name":"MyPeer","path":[]},"ty":{"elem":{"k":"Int"},"k":"Future"},"val":'
    '{"module":{"name":"SimpleModule","path":[]},"val":"i:Int"}},"name":"j","plan":"eval"}],'
    '"ties":[{"mult":"single","peer":{"module":{"name":"SimpleModule","path":[]},'
    '"peer":"MyPeer"}}]}\n')


def test_read_component_refuses_the_previous_format():
    with pytest.raises(ComponentFormatError) as exc:
        read_component(SIMPLE_MODULE_V2)
    assert "locic-component/2" in str(exc.value)
    assert FORMAT in str(exc.value) and FORMAT == "locic-component/3"
