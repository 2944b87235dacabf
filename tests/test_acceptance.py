"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
"""

import functools
import io
import random
import threading
import time
from contextlib import redirect_stdout

import pytest

import helpers
from locic import ast, cli
from locic.arch import PeerId, effective_ties, resolve_architecture
from locic.ast import Multiplicity
from locic.checker import (RemoteAccessShapeError, RemoteT, check_module, codec_of,
                           type_remote_access)
from locic.codecs import CodecError, parse_codec
from locic.runtime import PeerInstance, StartError, start
from locic.sigs import ModuleSig, ValueSig
from locic.splitter import Evaluate, emit_component, split
from locic.transmit import READY
from locic.wire import Framer, decode_envelope, encode_envelope, frame


def criterion(number: int, description: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} FAIL {description}")
                raise
            print(f"criterion {number:2d} PASS {description}")

        return wrapper

    return decorate


@criterion(1, "SimpleModule end to end: sim settles j = 1 on both peers, "
              "< 1 s, deterministic over 20 runs")
def test_criterion_1_simple_module_end_to_end(tmp_path):
    path = tmp_path / "simple.loci"
    path.write_text(helpers.SIMPLE_MODULE, encoding="utf-8")
    outputs = []
    for _ in range(20):
        buffer = io.StringIO()
        began = time.monotonic()
        with redirect_stdout(buffer):
            code = cli.main(["sim", str(path), "--peers", "MyPeer,MyPeer", "--timeout", "5"])
        elapsed = time.monotonic() - began
        assert code == 0
        assert elapsed < 1.0, f"run took {elapsed:.3f}s"
        outputs.append(buffer.getvalue())
    assert "[MyPeer#1] j = 1" in outputs[0]
    assert "[MyPeer#2] j = 1" in outputs[0]
    assert len(set(outputs)) == 1, "sim output varied across runs"


@criterion(2, "access typing table exact over {Int,Bool,Str,(Int,Str)} x 3 "
              "multiplicities; wrong accessor names rejected")
def test_criterion_2_typing_table():
    peer = PeerId((), "R")
    for target in (ast.INT, ast.BOOL, ast.STR, ast.TTuple((ast.INT, ast.STR))):
        assert type_remote_access(target, Multiplicity.SINGLE, peer) == ast.TFuture(target)
        assert type_remote_access(target, Multiplicity.OPTIONAL, peer) == \
            ast.TOption(ast.TFuture(target))
        assert type_remote_access(target, Multiplicity.MULTIPLE, peer, from_all=True) == \
            ast.TSeq(ast.TTuple((RemoteT(peer), ast.TFuture(target))))
        with pytest.raises(RemoteAccessShapeError):
            type_remote_access(target, Multiplicity.MULTIPLE, peer, from_all=False)
        with pytest.raises(RemoteAccessShapeError):
            type_remote_access(target, Multiplicity.SINGLE, peer, from_all=True)
        with pytest.raises(RemoteAccessShapeError):
            type_remote_access(target, Multiplicity.OPTIONAL, peer, from_all=True)


@criterion(3, "negative checks: self access without a tie and bare cross-peer "
              "reference each give exactly one diagnostic and exit 1")
def test_criterion_3_negative_checks(tmp_path, capsys):
    self_access = tmp_path / "self.loci"
    self_access.write_text("""\
module Bad {
  peer Registry { tie: multiple Node }
  peer Node { tie: single Registry }
  val i: Int on Registry = 1
  val j: Future[Int] on Registry = i.asLocal
}
""", encoding="utf-8")
    assert cli.main(["check", str(self_access)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert "no tie from Registry to Registry" in err[0]

    bare = tmp_path / "bare.loci"
    bare.write_text("""\
module Bare {
  peer A { }
  peer B { }
  val x: Int on A = 1
  val y: Int on B = x
}
""", encoding="utf-8")
    assert cli.main(["check", str(bare)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert "remote access must be explicit" in err[0]


@criterion(4, "effective_ties equals the brute-force oracle on 1000 random "
              "architectures in < 10 s")
def test_criterion_4_tie_oracle():
    rng = random.Random(2024)
    began = time.monotonic()
    mismatches = 0
    for _ in range(1000):
        m = helpers.random_arch_module(rng, max_peers=8)
        a = resolve_architecture(m, {})
        got = {(left.name, right.name): mult
               for (left, right), mult in effective_ties(a).items()}
        if got != helpers.oracle_effective_ties(m):
            mismatches += 1
    elapsed = time.monotonic() - began
    assert mismatches == 0
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


@criterion(5, "Monitoring/P2P composition checks cleanly; Registry carries the "
              "Monitor-placed value as an evaluated slot plus dispatch entry")
def test_criterion_5_composition():
    _, a, t, tm = helpers.compile_source(helpers.MONITORING_P2P)
    assert tm.diagnostics == []
    # mon.interval is read bare (locally) inside a Registry-placed body
    local_read = next(d for d in tm.defs if d.name == "localRead")
    assert local_read.placed_on == PeerId((), "Registry")
    components = split(tm)
    registry = components[PeerId((), "Registry")]
    plan = dict(registry.slots)["mon.interval"]
    assert isinstance(plan, Evaluate)
    interval_sig = ValueSig("interval:Int", ModuleSig("Monitoring", ("mon",)))
    assert interval_sig in registry.dispatch


@criterion(6, "runtime tie conformance: single rejects a second hello, optional "
              "admits zero, multiple gathers 3 remotes; mem transport < 2 s")
def test_criterion_6_tie_conformance():
    began = time.monotonic()
    created = []
    try:
        # single: a second inbound hello is rejected
        comps = _components("""
            module S {
              peer Hub { tie: single Spoke }
              peer Spoke { tie: single Hub }
              val v: Int on Hub = 1
              val w: Future[Int] on Spoke = v.asLocal
            }
        """)
        hub_instance = PeerInstance(comps[PeerId((), "Hub")])
        created.append(hub_instance)
        hub_instance.listen("mem:acc6-hub")
        first = PeerInstance(comps[PeerId((), "Spoke")])
        created.append(first)
        first.connect("mem:acc6-hub", "Hub", timeout=2)
        second = PeerInstance(comps[PeerId((), "Spoke")])
        created.append(second)
        with pytest.raises(StartError) as exc:
            second.connect("mem:acc6-hub", "Hub", timeout=2)
        assert str(exc.value) == ("connection to mem:acc6-hub rejected: "
                                  "tie to Spoke is single; an instance is already connected")
        # the hub's end goes live on the final HelloAck, maybe after connect returned
        assert hub_instance._wait_live_links(1, 2)
        assert len(hub_instance.links()) == 1

        # optional: zero remotes yield absent options
        comps = _components("""
            module O {
              peer A { tie: optional B }
              peer B { }
              val x: Int on B = 1
              val maybe: Option[Future[Int]] on A = x.asLocal
            }
        """)
        alone = start(comps[PeerId((), "A")], [], [], timeout=2)
        created.append(alone)
        assert alone.slot("maybe") is None

        # multiple: three remotes, three settled pairs
        comps = _components("""
            module Many {
              peer Registry { tie: multiple Node }
              peer Node { }
              val i: Int on Node = 10
              val all: Seq[(Remote[Node], Future[Int])] on Registry = i.asLocalFromAll
            }
        """)
        hubs = []
        for n in range(3):
            node = PeerInstance(comps[PeerId((), "Node")])
            created.append(node)
            node.listen(f"mem:acc6-node{n}")
            node.activate(2)
            hubs.append(f"mem:acc6-node{n}")
        registry = start(comps[PeerId((), "Registry")], [],
                         [(hub, "Node") for hub in hubs], timeout=2)
        created.append(registry)
        assert registry.wait_settled(2)
        pairs = registry.slot("all")
        assert len(pairs) == 3
        assert all(fut.state == READY and fut.value == 10 for _, fut in pairs)
    finally:
        for instance in created:
            instance.stop()
    assert time.monotonic() - began < 2.0


@criterion(7, "stream push over tcp loopback: 10000 integers in order; two "
              "concurrent channels each get exactly their own sequence, < 5 s")
def test_criterion_7_stream_push():
    comps = _components("""
        module Streams {
          peer Prod { tie: multiple Cons }
          peer Cons { tie: single Prod }
          source s: Stream[Int] on Prod
          source t: Stream[Int] on Prod
          val marker: Int on Prod = 0
          val a: Stream[Int] on Cons = s.asLocal
          val b: Stream[Int] on Cons = t.asLocal
          val ready: Future[Int] on Cons = marker.asLocal
        }
    """)
    began = time.monotonic()
    prod = PeerInstance(comps[PeerId((), "Prod")])
    cons = None
    try:
        listener = prod.listen("tcp:127.0.0.1:0")
        activator = threading.Thread(target=prod.activate, args=(5,), daemon=True)
        activator.start()
        cons = start(comps[PeerId((), "Cons")], [], [(listener.address, "Prod")], timeout=5)
        activator.join(5)
        # channel opens are ordered before the marker request on the connection
        assert cons.slot("ready").wait(5)
        got_a: list[int] = []
        got_b: list[int] = []
        cons.slot("a").subscribe(got_a.append)
        cons.slot("b").subscribe(got_b.append)
        count = 10_000
        seq_a = list(range(count))
        seq_b = [20_000 + n for n in range(count)]

        def fire_all(name, values):
            for value in values:
                prod.fire(name, value)

        thread_a = threading.Thread(target=fire_all, args=("s", seq_a))
        thread_b = threading.Thread(target=fire_all, args=("t", seq_b))
        thread_a.start(); thread_b.start()
        thread_a.join(); thread_b.join()
        deadline = time.monotonic() + 5
        while (len(got_a) < count or len(got_b) < count) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert got_a == seq_a, f"channel a: got {len(got_a)} of {count}"
        assert got_b == seq_b, f"channel b: got {len(got_b)} of {count}"
        elapsed = time.monotonic() - began
        assert elapsed < 5.0, f"took {elapsed:.2f}s"
    finally:
        prod.stop()
        if cons is not None:
            cons.stop()


@criterion(8, "wire conformance: 10000 envelopes round-trip through frames "
              "with randomly chunked delivery, 0 failures")
def test_criterion_8_wire_conformance():
    rng = random.Random(88)
    envelopes = [helpers.random_envelope(rng) for _ in range(10_000)]
    encoded = [encode_envelope(e) for e in envelopes]
    assert [decode_envelope(b) for b in encoded] == envelopes

    blob = b"".join(frame(b) for b in encoded)
    framer = Framer()
    payloads = []
    i = 0
    while i < len(blob):
        step = rng.randint(1, 4096)
        payloads.extend(framer.feed(blob[i:i + step]))
        i += step
    assert len(payloads) == len(envelopes)
    assert [decode_envelope(b) for b in payloads] == envelopes


@criterion(9, "codec round-trip on 1000 values per codec; corrupted bytes are "
              "rejected or re-encode to themselves")
def test_criterion_9_codecs():
    generators = {
        "Int": lambda rng: rng.randint(-2**40, 2**40),
        "Bool": lambda rng: rng.random() < 0.5,
        "Str": lambda rng: "".join(rng.choices('ab"\\é☃ xyz', k=rng.randint(0, 12))),
        "Unit": lambda rng: None,
        "(Int, Str)": lambda rng: (rng.randint(-999, 999), "s" * rng.randint(0, 4)),
        "(Bool, (Int, Int))": lambda rng: (rng.random() < 0.5,
                                           (rng.randint(0, 9), rng.randint(0, 9))),
    }
    rng = random.Random(9)
    for codec_id, gen in generators.items():
        codec = parse_codec(codec_id)
        samples = []
        for _ in range(1000):
            value = gen(rng)
            data = codec.serialize(value)
            assert codec.deserialize(data) == value
            samples.append(data)
        for _ in range(1000):
            data = bytearray(rng.choice(samples))
            op = rng.randrange(3)
            if op == 0 and data:
                data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            elif op == 1 and data:
                del data[rng.randrange(len(data))]
            else:
                data.insert(rng.randrange(len(data) + 1), rng.randrange(256))
            try:
                value = codec.deserialize(bytes(data))
            except CodecError:
                continue
            assert codec.serialize(value) == bytes(data), \
                "corrupted bytes decoded to a value with a different canonical form"


@criterion(10, "split is byte-deterministic; slot order equals source order and "
               "dispatch completeness holds on 500 random modules")
def test_criterion_10_split_shape():
    rng = random.Random(10)
    for _ in range(500):
        m = helpers.random_checked_module(rng)
        a = resolve_architecture(m, {})
        t = effective_ties(a)
        tm = check_module(m, a, t)
        assert tm.diagnostics == []
        first = {pid: emit_component(pc) for pid, pc in split(tm).items()}
        second = {pid: emit_component(pc) for pid, pc in split(tm).items()}
        assert first == second, "emit_component not deterministic"
        placements = {d.name: d.placed_on for d in tm.defs}
        transmittable = {
            d.name for d in tm.defs
            if codec_of(d.declared_type.elem if isinstance(d.declared_type, ast.TStream)
                              else d.declared_type) is not None
        }
        for pid, pc in split(tm).items():
            assert [name for name, _ in pc.slots] == a.def_order
            served = {plan.slot for plan in pc.dispatch.values()}
            expected = {name for name, placed in placements.items()
                        if placed in a.super_closure(pid) and name in transmittable}
            assert served == expected


def _components(source: str):
    _, _, _, tm = helpers.compile_clean(source)
    return split(tm)
