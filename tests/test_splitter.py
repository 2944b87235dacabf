import collections
import functools
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from locic import arch, ast, checker, parser, splitter
from locic.arch import PeerId
from locic.ast import Multiplicity
from locic import transport
from locic.checker import PULL, STREAM, AccessPlan, RemoteCall, codec_of
from locic.codecs import parse_codec
from locic.runtime import simulate
from locic.sigs import ModuleSig, PeerSig, ValueSig
from locic.splitter import (FORMAT, ComponentFormatError, Evaluate, PeerComponent, SplitError,
                            emit_component, read_component, split)
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
    assert pc.tie_table == {MYPEER: Multiplicity.SINGLE}
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
    assert call.ty == ast.TFuture(ast.INT)


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
    assert dict(a.slots)["y"] is None
    assert dict(b.slots)["x"] is None
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
    assert dict(node.slots)["mon.interval"] is None


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
    payload = declared.elem if isinstance(declared, ast.TStream) else declared
    return codec_of(payload) is not None


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
                        if placed in a.super_closure(pid) and name in serializable}
            assert served_slots == expected


def _surface_accesses(e):
    """Every asLocal / asLocalFromAll site of a surface expression, in source order."""
    if isinstance(e, (ast.AsLocal, ast.AsLocalFromAll)):
        yield e
    elif isinstance(e, ast.BinOp):
        yield from _surface_accesses(e.left)
        yield from _surface_accesses(e.right)
    elif isinstance(e, ast.TupleExpr):
        for i in e.items:
            yield from _surface_accesses(i)
    elif isinstance(e, ast.StreamMap):
        yield from _surface_accesses(e.body)


def test_remote_call_rewrite_bijection():
    rng = random.Random(41)
    for _ in range(50):
        m = helpers.random_checked_module(rng)
        a, t, tm = _check(m)
        comps = split(tm)
        placements = {d.name: d.placed_on for d in tm.defs}
        # collect remote calls from each definition's own component
        own_peer_calls = set()
        for pid, pc in comps.items():
            for name, plan in pc.slots:
                if plan is None or placements[name] != pid:
                    continue
                own_peer_calls.update(
                    (name, call.value_sig) for call in helpers.sites(plan.body, RemoteCall))
        # the expected side comes from the surface module, not from the checker
        decls = {d.name: d for d in m.defs}
        expected = {(d.name, ValueSig(f"{site.target.name}:{decls[site.target.name].surface_type}",
                                      ModuleSig(m.name)))
                    for d in m.defs if d.body is not None for site in _surface_accesses(d.body)}
        assert own_peer_calls == expected


def _typed_nodes(e):
    """Every node of a typed body."""
    yield e
    if isinstance(e, checker.TBinOp):
        children = (e.left, e.right)
    elif isinstance(e, checker.TTupleExpr):
        children = e.items
    elif isinstance(e, checker.TStreamMap):
        children = (e.source, e.body)
    else:
        children = ()
    for child in children:
        yield from _typed_nodes(child)


def test_a_typed_body_is_final_and_split_shares_it():
    sources = [path.read_text(encoding="utf-8")
               for path in sorted((helpers.ROOT / "samples").glob("*.loci"))]
    typed = [helpers.compile_clean(source)[3] for source in sources]
    rng = random.Random(43)
    typed += [_check(helpers.random_checked_module(rng))[2] for _ in range(20)]
    found = set()
    for tm in typed:
        a = tm.arch
        modules = functools.partial(splitter.module_sig_of, a.module_name, a.includes)
        comps = split(tm)
        for d in tm.defs:
            found.update(type(node) for node in _typed_nodes(d.body))
            doc = json.loads(splitter.expr_json(d.body))
            assert splitter.expr_from_doc(doc, modules) == d.body
        for pc in comps.values():
            slots = dict(pc.slots)
            for d in tm.defs:
                if slots[d.name] is not None:
                    assert slots[d.name].body is d.body
    assert found == {*ast.LITERALS, *checker.TypedExpr.__subclasses__()}


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
    assert back.sig_of(PeerId(("mon",), "Monitor")) == PeerSig("Monitor", monitoring)
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


def _type_doc(t: ast.TypeExpr) -> dict:
    if isinstance(t, ast.TPrim):
        return {"k": t.name}
    if isinstance(t, ast.TTuple):
        return {"k": "Tuple", "items": [_type_doc(i) for i in t.items]}
    if isinstance(t, checker.RemoteT):
        return {"k": "Remote", "peer": str(t.peer)}
    return {"k": t.kind, "elem": _type_doc(t.elem)}


def _expr_doc(e) -> dict:
    """A slot body's document, built as a dict for `json.dumps`, apart from
    the text the splitter writes."""
    if isinstance(e, (ast.IntLit, ast.BoolLit, ast.StrLit)):
        kind = {ast.IntLit: "int", ast.BoolLit: "bool", ast.StrLit: "str"}
        return {"k": kind[type(e)], "v": e.value}
    if isinstance(e, checker.TRef):
        return {"k": "ref", "name": e.name, "var": e.is_var, "ty": _type_doc(e.ty)}
    if isinstance(e, checker.TBinOp):
        return {"k": "binop", "op": e.op, "l": _expr_doc(e.left), "r": _expr_doc(e.right),
                "ty": _type_doc(e.ty)}
    if isinstance(e, checker.TTupleExpr):
        return {"k": "tuple", "items": [_expr_doc(i) for i in e.items], "ty": _type_doc(e.ty)}
    if isinstance(e, checker.TStreamMap):
        return {"k": "map", "src": _expr_doc(e.source), "var": e.var,
                "body": _expr_doc(e.body), "ty": _type_doc(e.ty)}
    if isinstance(e, checker.TStreamSource):
        return {"k": "source", "ty": _type_doc(e.ty)}
    assert isinstance(e, RemoteCall)
    return {"k": "remotecall", "val": e.value_sig.canonical, "target": str(e.target_peer_id),
            "mult": e.mult.keyword, "ty": _type_doc(e.ty),
            "plan": {"slot": e.plan.slot, "mode": e.plan.mode, "codec": e.plan.codec.id}}


def _document(pc: PeerComponent) -> dict:
    """The whole document as one dict, which `emit_component` must encode
    as `json.dumps` would."""
    return {
        "format": FORMAT,
        "peer": str(pc.peer),
        "rootModule": pc.root_module.name,
        "includes": pc.includes,
        "peers": {str(pid): [str(s) for s in supers] for pid, supers in pc.peer_table.items()},
        "ties": {str(pid): mult.keyword for pid, mult in pc.tie_table.items()},
        "slots": [name if ev is None else {"name": name, "body": _expr_doc(ev.body)}
                  for name, ev in pc.slots],
        "dispatch": [{"val": sig.canonical,
                      "plan": {"slot": plan.slot, "mode": plan.mode, "codec": plan.codec.id}}
                     for sig, plan in sorted(pc.dispatch.items())],
    }


def test_emit_template_matches_the_generic_encoding():
    sources = [(helpers.ROOT / "samples" / name).read_text()
               for name in ("simple.loci", "p2p.loci", "streams.loci")]
    sources += [m["source"] for m in helpers.load_bench("gen").compile_pool(7)]
    shared = 0
    for source in sources:
        comps = split_source(source)[1]
        held = collections.defaultdict(list)
        for pc in comps.values():
            assert emit_component(pc) == json.dumps(
                _document(pc), sort_keys=True, ensure_ascii=False, separators=(",", ":")) + "\n"
            for name, ev in pc.slots:
                if ev is not None:
                    held[name].append(ev)
        # components that evaluate one definition hold its one Evaluate
        for evs in held.values():
            assert all(ev is evs[0] for ev in evs)
            shared += len(evs) > 1
    assert shared


def _bench_module(n_peers=48, n_defs=96, seed=3) -> str:
    """A generated program of the benchmark's largest size class."""
    return helpers.load_bench("gen").compile_module(random.Random(seed), n_peers, n_defs)["source"]


def test_emit_matches_an_independent_byte_oracle():
    # canonical JSON bytes from the document itself, and a read-back that
    # emits the same bytes
    rng = random.Random(11)
    programs = [split(_check(helpers.random_checked_module(rng, max_peers=6, max_defs=10))[2])
                for _ in range(40)]
    programs.append(split_source(_bench_module())[1])
    assert len(programs[-1]) == 52
    for comps in programs:
        for pc in comps.values():
            text = emit_component(pc)
            assert text == json.dumps(json.loads(text), sort_keys=True, ensure_ascii=False,
                                      separators=(",", ":")) + "\n"
            assert emit_component(read_component(text)) == text


def test_split_and_emit_do_module_work_once_per_module(monkeypatch):
    *included, main = parser.parse_program(_bench_module())
    a = arch.resolve_architecture(main, {m.name: m for m in included})
    # count each read of a peer's declared ties, which the inherited ties
    # of every peer below it are built from
    reads = collections.Counter()
    owner = {}

    class CountedInfo(arch.PeerInfo):
        @property
        def declared_ties(self):
            reads[owner[id(self)]] += 1
            return vars(self)["declared_ties"]

    for pid, info in list(a.peers.items()):
        a.peers[pid] = CountedInfo(info.supers, info.declared_ties)
        owner[id(a.peers[pid])] = pid
    encoded = collections.Counter()
    encode = splitter._encode

    def counted_encode(doc):
        encoded[json.dumps(doc, sort_keys=True)] += 1
        return encode(doc)

    monkeypatch.setattr(splitter, "_encode", counted_encode)
    tm = checker.check_module(main, a, arch.effective_ties(a))
    assert not tm.diagnostics
    comps = split(tm)
    texts = [emit_component(pc) for pc in comps.values()]
    assert len(comps) == 52 and len(a.peers) == 52
    # each peer's inherited ties are built once: one read of a peer's
    # declared ties per peer whose super-closure holds it
    assert reads == collections.Counter(q for p in a.peers for q in a.super_closure(p))
    # the peer table is encoded once for the module, not once per component
    table = json.loads(texts[0])["peers"]
    assert all(json.loads(text)["peers"] == table for text in texts)
    assert encoded[json.dumps(table, sort_keys=True)] == 1


def test_distinct_module_paths_give_distinct_peer_sigs():
    source = """
        module Shared { peer P { } }
        module Top {
          include a: Shared
          include b: Shared
          peer Local : a.P { }
        }
    """
    _, _, _, tm = helpers.compile_clean(source)
    local = split(tm)[PeerId((), "Local")]
    sig_a = local.sig_of(PeerId(("a",), "P"))
    sig_b = local.sig_of(PeerId(("b",), "P"))
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


def _ghost_alias(doc):
    doc["peers"]["Ghost.P"] = []


@pytest.mark.parametrize("edit", [_ghost_super, _ghost_tie, _ghost_peer, _ghost_alias])
def test_read_component_refuses_peers_missing_from_its_table(edit):
    doc = _simple_document()
    edit(doc)
    with pytest.raises(ComponentFormatError, match="Ghost"):
        read_component(json.dumps(doc))


@pytest.mark.parametrize("second", ["i", {"name": "i", "body": {"k": "int", "v": 2}}])
def test_read_component_refuses_two_slots_of_one_name(second):
    doc = _simple_document()
    doc["slots"].append(second)
    with pytest.raises(ComponentFormatError, match="two slots have one name"):
        read_component(json.dumps(doc))


def test_emit_writes_back_a_name_of_any_json_type():
    # the reader does not check that a document's names are strings; emit
    # writes each back as it came
    doc = _simple_document()
    doc["rootModule"] = 7
    doc["dispatch"][0]["val"] = 5
    next(slot for slot in doc["slots"] if slot["name"] == "j")["body"]["val"] = [6]
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    assert emit_component(read_component(text)) == text


def test_read_component_refuses_a_slot_body_nested_too_deep():
    # 3,000 tuple nodes, one inside the next, around the literal body of `i`
    node = '{"k":"tuple","ty":{"k":"Tuple","items":[{"k":"Int"}]},"items":['
    text = SIMPLE_MODULE_V3.replace('{"k":"int","v":1}',
                                    node * 3_000 + '{"k":"int","v":1}' + "]}" * 3_000, 1)
    with pytest.raises(ComponentFormatError):
        read_component(text)


def test_read_component_refuses_slots_nested_too_deep():
    text = SIMPLE_MODULE_V3.replace('"slots":[', '"slots":[' + "[" * 100_000 + "]" * 100_000 + ",", 1)
    with pytest.raises(ComponentFormatError, match="not a component document"):
        read_component(text)


# the locic-component/3 document for helpers.SIMPLE_MODULE; it must not move
SIMPLE_MODULE_V3 = (
    '{"dispatch":[{"plan":{"codec":"Int","mode":"pull","slot":"i"},"val":"i:Int"}],'
    '"format":"locic-component/3","includes":{},"peer":"MyPeer","peers":{"MyPeer":[]},'
    '"rootModule":"SimpleModule","slots":[{"body":{"k":"int","v":1},"name":"i"},'
    '{"body":{"k":"remotecall","mult":"single","plan":{"codec":"Int","mode":"pull",'
    '"slot":"i"},"target":"MyPeer","ty":{"elem":{"k":"Int"},"k":"Future"},"val":"i:Int"},'
    '"name":"j"}],"ties":{"MyPeer":"single"}}\n')


def test_simple_module_document_is_pinned():
    _, comps = split_source(helpers.SIMPLE_MODULE)
    assert emit_component(comps[MYPEER]) == SIMPLE_MODULE_V3
    assert read_component(SIMPLE_MODULE_V3) == comps[MYPEER]


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
