import pytest

import helpers
from locic import ast
from locic.arch import PeerId, effective_ties, resolve_architecture
from locic.ast import Multiplicity
from locic.checker import (RemoteAccessShapeError, RemoteCall, RemoteT, check_module,
                           type_remote_access)

R = PeerId((), "R")


def check_source(source: str):
    _, _, _, tm = helpers.compile_source(source)
    return tm


def messages(tm):
    return [d.message for d in tm.diagnostics]


# --- the access-shape table --------------------------------------------

def test_single_tie_yields_future():
    assert type_remote_access(ast.INT, Multiplicity.SINGLE, R) == ast.TFuture(ast.INT)


def test_optional_tie_yields_optional_future():
    assert type_remote_access(ast.INT, Multiplicity.OPTIONAL, R) == ast.TOption(ast.TFuture(ast.INT))


def test_multiple_tie_yields_remote_pairs():
    got = type_remote_access(ast.INT, Multiplicity.MULTIPLE, R, from_all=True)
    assert got == ast.TSeq(ast.TTuple((RemoteT(R), ast.TFuture(ast.INT))))


def test_stream_over_single_tie_stays_a_stream():
    assert type_remote_access(ast.TStream(ast.INT), Multiplicity.SINGLE, R) == ast.TStream(ast.INT)


def test_stream_over_optional_or_multiple_rejected():
    with pytest.raises(RemoteAccessShapeError):
        type_remote_access(ast.TStream(ast.INT), Multiplicity.OPTIONAL, R)
    with pytest.raises(RemoteAccessShapeError):
        type_remote_access(ast.TStream(ast.INT), Multiplicity.MULTIPLE, R, from_all=True)


@pytest.mark.parametrize("target", [ast.INT, ast.BOOL, ast.STR, ast.TTuple((ast.INT, ast.STR))])
def test_accessor_names_are_mandatory(target):
    with pytest.raises(RemoteAccessShapeError):
        type_remote_access(target, Multiplicity.MULTIPLE, R, from_all=False)
    for mult in (Multiplicity.SINGLE, Multiplicity.OPTIONAL):
        with pytest.raises(RemoteAccessShapeError):
            type_remote_access(target, mult, R, from_all=True)


@pytest.mark.parametrize("target", [ast.INT, ast.BOOL, ast.STR, ast.TTuple((ast.INT, ast.STR))])
def test_access_shape_depends_only_on_type_and_multiplicity(target):
    assert type_remote_access(target, Multiplicity.SINGLE, R) == ast.TFuture(target)
    assert type_remote_access(target, Multiplicity.OPTIONAL, R) == ast.TOption(ast.TFuture(target))
    assert type_remote_access(target, Multiplicity.MULTIPLE, R, from_all=True) == \
        ast.TSeq(ast.TTuple((RemoteT(R), ast.TFuture(target))))


# --- whole-module checking ----------------------------------------------

def test_simple_module_accepts():
    tm = check_source(helpers.SIMPLE_MODULE)
    assert tm.diagnostics == []
    j = next(d for d in tm.defs if d.name == "j")
    assert j.declared_type == ast.TFuture(ast.INT)
    assert isinstance(j.body, RemoteCall)
    assert j.body.mult is Multiplicity.SINGLE


def test_remote_access_without_tie_rejected():
    tm = check_source("""
        module M {
          peer Registry { tie: multiple Node }
          peer Node { tie: single Registry }
          val i: Int on Registry = 1
          val j: Future[Int] on Registry = i.asLocal
        }
    """)
    assert len(tm.diagnostics) == 1
    assert "no tie from Registry to Registry" in tm.diagnostics[0].message
    assert tm.diagnostics[0].peer == "Registry"


def test_bare_cross_peer_reference_rejected():
    tm = check_source("""
        module M {
          peer Registry { tie: multiple Node }
          peer Node { tie: single Registry }
          val i: Int on Registry = 1
          val k: Int on Node = i
        }
    """)
    assert len(tm.diagnostics) == 1
    assert "remote access must be explicit" in tm.diagnostics[0].message


def test_super_peer_values_readable_locally():
    tm = check_source(helpers.MONITORING_P2P)
    assert tm.diagnostics == []
    local_read = next(d for d in tm.defs if d.name == "localRead")
    assert local_read.declared_type == ast.INT


def test_wrong_accessor_for_multiplicity():
    tm = check_source("""
        module M {
          peer A { tie: multiple B }
          peer B { tie: optional A }
          val x: Int on B = 1
          val bad: Future[Int] on A = x.asLocal
        }
    """)
    assert any("asLocalFromAll" in m for m in messages(tm))

    tm = check_source("""
        module M {
          peer A { tie: single B }
          peer B { }
          val x: Int on B = 1
          val bad: Future[Int] on A = x.asLocalFromAll
        }
    """)
    assert any("requires a multiple tie" in m for m in messages(tm))


def test_declared_type_must_match_body():
    tm = check_source("""
        module M {
          peer P { tie: single P }
          val i: Int on P = 1
          val j: Int on P = i.asLocal
        }
    """)
    assert any("declared type Int does not match body type Future[Int]" in m
               for m in messages(tm))


def test_multiple_access_types_as_pair_sequence():
    tm = check_source("""
        module M {
          peer Hub { tie: multiple Leaf }
          peer Leaf { tie: single Hub }
          val x: Int on Leaf = 10
          val xs: Seq[(Remote[Leaf], Future[Int])] on Hub = x.asLocalFromAll
        }
    """)
    assert tm.diagnostics == []
    xs = next(d for d in tm.defs if d.name == "xs")
    assert xs.declared_type == ast.TSeq(ast.TTuple((RemoteT(PeerId((), "Leaf")), ast.TFuture(ast.INT))))


def test_a_literal_body_is_the_parsers_node():
    module, _, _, tm = helpers.compile_clean("""
        module M {
          peer P { }
          val i: Int on P = 7
          val b: Bool on P = true
          val s: Str on P = "x"
        }
    """)
    for decl, typed, ty in zip(module.defs, tm.defs, (ast.INT, ast.BOOL, ast.STR)):
        assert typed.body is decl.body
        assert typed.body.ty == typed.declared_type == ty


def test_stream_source_and_map_typing():
    tm = check_source("""
        module M {
          peer P { tie: single P }
          source s: Stream[Int] on P
          val doubled: Stream[Int] on P = s.map(x => x * 2)
          val flagged: Stream[Bool] on P = s.map(x => x < 3)
          val remote: Stream[Int] on P = s.asLocal
        }
    """)
    assert tm.diagnostics == []


def test_source_requires_stream_type():
    tm = check_source("""
        module M {
          peer P { }
          source s: Int on P
        }
    """)
    assert any("source definition must have a stream type" in m for m in messages(tm))


def test_map_requires_stream():
    tm = check_source("""
        module M {
          peer P { }
          val a: Int on P = 1
          val b: Stream[Int] on P = a.map(x => x)
        }
    """)
    assert any("requires a stream" in m for m in messages(tm))


def test_operator_typing():
    tm = check_source("""
        module M {
          peer P { }
          val a: Int on P = 1 + 2 * 3
          val b: Bool on P = 1 < 2
          val c: Bool on P = (1, "x") == (2, "y")
          val d: Int on P = "a" + "b"
          val e: Bool on P = 1 == "a"
        }
    """)
    msgs = messages(tm)
    assert len(msgs) == 2
    assert any("operator '+' requires Int operands" in m for m in msgs)
    assert any("'==' requires two data values of the same type" in m for m in msgs)


def test_diagnostics_are_aggregated_not_first_error_only():
    tm = check_source("""
        module M {
          peer A { }
          peer B { }
          val x: Int on A = 1
          val bad1: Int on B = x
          val bad2: Future[Int] on B = x.asLocal
          val bad3: Int on A = true
        }
    """)
    assert len(tm.diagnostics) == 3


def test_unknown_value_reference():
    tm = check_source("""
        module M {
          peer P { }
          val a: Int on P = ghost
        }
    """)
    assert any("unknown value 'ghost'" in m for m in messages(tm))


def test_checking_is_order_independent():
    front = """
        module M {
          peer A { }
          peer B { }
          val x: Int on A = 1
    """
    defs = [
        "val ok: Int on A = x + 1",
        "val bad1: Int on B = x",
        "val bad2: Bool on A = 1 < true",
    ]
    orders = [defs, defs[::-1], [defs[1], defs[2], defs[0]]]
    results = []
    for order in orders:
        tm = check_source(front + "\n".join(order) + "\n}")
        results.append(sorted(messages(tm)))
    assert results[0] == results[1] == results[2]


def test_every_remote_access_is_recorded():
    # the typed bodies are the one record of remote accesses
    tm = check_source(helpers.MONITORING_P2P)
    ((d, access),) = helpers.remote_accesses(tm)
    assert access.plan.slot == "mon.interval"
    assert d.placed_on == PeerId((), "Node")
    assert access.target_peer_id == PeerId(("mon",), "Monitor")
    assert access.mult is Multiplicity.SINGLE


def test_accepted_accesses_always_have_ties():
    import random

    rng = random.Random(23)
    for _ in range(40):
        m = helpers.random_checked_module(rng)
        a = resolve_architecture(m, {})
        ties = effective_ties(a)
        tm = check_module(m, a, ties)
        assert tm.diagnostics == []
        for d, access in helpers.remote_accesses(tm):
            assert (d.placed_on, access.target_peer_id) in ties
            assert ties[(d.placed_on, access.target_peer_id)] == access.mult


def test_stream_access_requires_single_tie_in_module():
    tm = check_source("""
        module M {
          peer Hub { tie: multiple Leaf }
          peer Leaf { tie: optional Hub }
          source events: Stream[Int] on Leaf
          val merged: Stream[Int] on Hub = events.asLocalFromAll
          source hubEvents: Stream[Int] on Hub
          val mirrored: Stream[Int] on Leaf = hubEvents.asLocal
        }
    """)
    msgs = messages(tm)
    assert any("asLocalFromAll cannot be applied to a stream" in m for m in msgs)
    assert any("requires a single tie" in m for m in msgs)


def test_local_access_rule():
    from locic.parser import parse_program

    mods = parse_program(helpers.MONITORING_P2P)
    a = resolve_architecture(mods[1], {mods[0].name: mods[0]})
    registry = PeerId((), "Registry")
    node = PeerId((), "Node")
    monitor = PeerId(("mon",), "Monitor")
    assert monitor in a.super_closure(registry)        # super-peer value
    assert registry in a.super_closure(registry)       # own value
    assert registry not in a.super_closure(node)       # needs asLocal
    assert registry not in a.super_closure(monitor)    # supers don't see subs
