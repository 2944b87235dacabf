import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from locic import ast, parser, splitter, wire
from locic.arch import (ArchError, PeerId, effective_ties, parse_peer_name,
                        resolve_architecture)
from locic.ast import Multiplicity
from locic.diagnostics import Pos
from locic.sigs import ModuleSig, ValueSig

REGISTRY_PID = PeerId((), "Registry")
NODE_PID = PeerId((), "Node")
MONITOR_PID = PeerId(("mon",), "Monitor")
MONITORED_PID = PeerId(("mon",), "Monitored")


@given(st.lists(st.tuples(st.lists(st.sampled_from(["", "a", "mon", "é"]), max_size=2).map(tuple),
                          st.sampled_from(["", "A", "a", "B", "Node", "é"]))))
def test_peer_ids_sort_as_path_name_pairs(pairs):
    assert sorted(PeerId(path, name) for path, name in pairs) == sorted(pairs)


SIMPLE_MODULE, SIMPLE_ARCH, _, SIMPLE_TYPED = helpers.compile_clean(helpers.SIMPLE_MODULE)
(SIMPLE_COMPONENT,) = splitter.split(SIMPLE_TYPED).values()
VALUE_SIG = ValueSig("i:Int", ModuleSig("M"))


@pytest.mark.parametrize("value, field", [
    (PeerId(("mon",), "Monitor"), "name"), (PeerId((), "A"), "path"),
    (Pos(1, 2), "line"), (Pos(1, 2), "col"),
    (SIMPLE_MODULE.defs[0], "kind"), (SIMPLE_MODULE.defs[0], "pos"),
    (ModuleSig("M", ("a",)), "path"), (VALUE_SIG, "module"),
    (ast.IntLit(1, Pos(1, 1)), "pos"), (ast.TTuple((ast.INT, ast.STR)), "items"),
    (wire.Request(1, VALUE_SIG), "id"), (next(iter(SIMPLE_COMPONENT.dispatch.values())), "codec"),
    (SIMPLE_ARCH, "peers"), (SIMPLE_COMPONENT, "slots"),
])
def test_identities_and_positions_are_immutable(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)


def p2p_architecture():
    mods = parser.parse_program(helpers.MONITORING_P2P)
    return resolve_architecture(mods[1], {mods[0].name: mods[0]})


def test_resolve_p2p_composition():
    a = p2p_architecture()
    assert set(a.peers) == {REGISTRY_PID, NODE_PID, MONITOR_PID, MONITORED_PID}
    assert a.peers[REGISTRY_PID].supers == (MONITOR_PID,)
    assert a.peers[NODE_PID].supers == (MONITORED_PID,)
    assert a.placements["mon.interval"] == MONITOR_PID
    assert a.placements["localRead"] == REGISTRY_PID
    # included defs come first, then local defs, in source order
    assert a.def_order == ["mon.interval", "localRead", "fromNode"]


def test_single_peer_module():
    m = helpers.parse_module("module M { peer Only { } }")
    a = resolve_architecture(m, {})
    assert list(a.peers) == [PeerId((), "Only")]
    assert a.peers[PeerId((), "Only")].supers == ()


def test_cyclic_supers_rejected():
    m = helpers.parse_module("module M { peer A : B { } peer B : A { } }")
    with pytest.raises(ArchError) as exc:
        resolve_architecture(m, {})
    assert "cyclic" in exc.value.diagnostics[0].message


def test_a_deep_super_chain_declared_top_down_checks_clean():
    # P0 : P1, P1 : P2, ... : each peer names a super declared after it
    n = 2000
    source = ("module M {\n" + "".join(f"  peer P{i} : P{i + 1} {{ }}\n" for i in range(n - 1))
              + f"  peer P{n - 1} {{ }}\n}}\n")
    _, a, _, _ = helpers.compile_clean(source)
    assert len(a.super_closure(PeerId((), "P0"))) == n


def test_a_cycle_is_reported_at_a_peer_on_it():
    m = helpers.parse_module("module M {\n  peer A : B { }\n  peer B : C { }\n  peer C : B { }\n}")
    with pytest.raises(ArchError) as exc:
        resolve_architecture(m, {})
    (diag,) = exc.value.diagnostics
    assert diag.message == "cyclic peer supertypes involving 'B'"
    assert diag.pos == Pos(3, 3)


def test_a_cycle_in_an_include_is_reported_at_the_included_declaration():
    lib, main = parser.parse_program("module Lib {\n  peer X : Y { }\n  peer Y : X { }\n}\n"
                                     "module Main {\n  include l: Lib\n  peer Z { }\n  peer X { }\n}")
    with pytest.raises(ArchError) as exc:
        resolve_architecture(main, {lib.name: lib})
    (diag,) = exc.value.diagnostics
    assert diag.message == "cyclic peer supertypes involving 'l.X'"
    assert diag.pos == Pos(2, 3)


def test_unknown_peer_and_include_errors():
    m = helpers.parse_module("module M { peer A : Ghost { } }")
    with pytest.raises(ArchError) as exc:
        resolve_architecture(m, {})
    assert "unknown peer 'Ghost'" in exc.value.diagnostics[0].message

    m = helpers.parse_module("module M { include x: Nope }")
    with pytest.raises(ArchError) as exc:
        resolve_architecture(m, {})
    assert "unknown include module 'Nope'" in exc.value.diagnostics[0].message


def test_nested_includes_rejected():
    mods = parser.parse_program("""
        module Inner { peer P { } }
        module Middle { include i: Inner }
        module Outer { include m: Middle }
    """)
    registry = {m.name: m for m in mods}
    with pytest.raises(ArchError) as exc:
        resolve_architecture(mods[2], registry)
    assert "nested includes" in exc.value.diagnostics[0].message


def test_effective_ties_node_registry():
    a = p2p_architecture()
    ties = effective_ties(a)
    assert ties[(NODE_PID, REGISTRY_PID)] is Multiplicity.SINGLE
    assert ties[(NODE_PID, NODE_PID)] is Multiplicity.MULTIPLE
    assert ties[(REGISTRY_PID, NODE_PID)] is Multiplicity.MULTIPLE
    # no tie from the Registry to the Registry
    assert (REGISTRY_PID, REGISTRY_PID) not in ties


def test_tie_priority_optional_beats_multiple():
    m = helpers.parse_module("""
        module M {
          peer L { tie: optional R, multiple R }
          peer R { }
        }
    """)
    ties = effective_ties(resolve_architecture(m, {}))
    assert ties[(PeerId((), "L"), PeerId((), "R"))] is Multiplicity.OPTIONAL


def test_tie_priority_via_supers():
    m = helpers.parse_module("""
        module M {
          peer Base { tie: multiple R }
          peer L : Base { tie: optional R }
          peer R { }
        }
    """)
    ties = effective_ties(resolve_architecture(m, {}))
    assert ties[(PeerId((), "L"), PeerId((), "R"))] is Multiplicity.OPTIONAL
    assert ties[(PeerId((), "Base"), PeerId((), "R"))] is Multiplicity.MULTIPLE


def test_tie_target_covers_sub_peers():
    # Registry ties to mon.Monitored; Node is a Monitored, so (Registry, Node) exists
    a = p2p_architecture()
    ties = effective_ties(a)
    assert ties[(REGISTRY_PID, MONITORED_PID)] is Multiplicity.MULTIPLE
    assert ties[(REGISTRY_PID, NODE_PID)] is Multiplicity.MULTIPLE


def test_is_subpeer():
    a = p2p_architecture()
    assert MONITOR_PID in a.super_closure(REGISTRY_PID)
    assert REGISTRY_PID in a.super_closure(REGISTRY_PID)
    assert REGISTRY_PID not in a.super_closure(MONITOR_PID)
    assert MONITOR_PID not in a.super_closure(NODE_PID)
    assert MONITORED_PID in a.super_closure(NODE_PID)


def test_is_subpeer_matches_bfs_oracle():
    rng = random.Random(7)
    for _ in range(50):
        m = helpers.random_arch_module(rng)
        a = resolve_architecture(m, {})

        def bfs(start):
            seen = {start}
            frontier = [start]
            while frontier:
                for s in a.peers[frontier.pop()].supers:
                    if s not in seen:
                        seen.add(s)
                        frontier.append(s)
            return seen

        for p in a.peers:
            reachable = bfs(p)
            for q in a.peers:
                assert (q in a.super_closure(p)) == (q in reachable)


def test_effective_ties_matches_bruteforce_oracle_small():
    rng = random.Random(11)
    for _ in range(100):
        m = helpers.random_arch_module(rng)
        a = resolve_architecture(m, {})
        got = {(left.name, right.name): mult
               for (left, right), mult in effective_ties(a).items()}
        assert got == helpers.oracle_effective_ties(m)


def test_effective_ties_matches_bruteforce_oracle_large():
    # lattices of up to 40 peers with up to five super-peers each
    rng = random.Random(23)
    for _ in range(60):
        m = helpers.random_arch_module(rng, max_peers=40, min_peers=10, max_supers=5)
        a = resolve_architecture(m, {})
        ties = effective_ties(a)
        got = {(left.name, right.name): mult for (left, right), mult in ties.items()}
        assert got == helpers.oracle_effective_ties(m)
        assert list(ties) == sorted(ties)


def test_parse_peer_name():
    assert parse_peer_name("Node") == NODE_PID
    assert parse_peer_name("mon.Monitored") == MONITORED_PID
    assert parse_peer_name("a.b.P") == PeerId(("a", "b"), "P")


def test_effective_ties_deterministic_and_order_independent():
    m1 = helpers.parse_module("""
        module M {
          peer A { tie: single B, multiple A }
          peer B { tie: optional A }
        }
    """)
    m2 = helpers.parse_module("""
        module M {
          peer B { tie: optional A }
          peer A { tie: multiple A, single B }
        }
    """)
    t1 = effective_ties(resolve_architecture(m1, {}))
    t2 = effective_ties(resolve_architecture(m2, {}))
    assert t1 == t2


def test_monotonicity_under_specialization():
    rng = random.Random(13)
    for _ in range(50):
        m = helpers.random_arch_module(rng)
        a = resolve_architecture(m, {})
        ties = effective_ties(a)
        for sub in a.peers:
            for sup in a.super_closure(sub):
                for right in a.peers:
                    if (sup, right) in ties:
                        assert (sub, right) in ties
                        assert ties[(sub, right)] <= ties[(sup, right)]
