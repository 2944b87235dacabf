import collections
import gc
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import parse_module
from locic import ast, cli
from locic.diagnostics import Diagnostic, Pos
from locic.parser import MAX_NESTING, ParseError, parse_program, tokenize
from render import render_module


def test_parse_simple_module():
    m = parse_module("module M { peer P { tie: single P } val i: Int on P = 1 }")
    assert m.name == "M"
    assert len(m.peers) == 1
    assert m.peers[0].name == "P"
    assert m.peers[0].ties == ((ast.Multiplicity.SINGLE, ast.PeerRef(None, "P")),)
    assert len(m.defs) == 1
    d = m.defs[0]
    assert d.name == "i"
    assert d.surface_type == ast.INT
    assert d.placed_on == ast.PeerRef(None, "P")
    assert d.body == ast.IntLit(1)


def test_parse_empty_module():
    m = parse_module("module Empty { }")
    assert m.name == "Empty"
    assert m.peers == ()
    assert m.defs == ()


def test_duplicate_name_rejected():
    with pytest.raises(ParseError) as exc:
        parse_module("module M { peer P { } peer P { } }")
    assert "duplicate name 'P'" in exc.value.diagnostics[0].message


def test_def_order_is_source_order():
    m = parse_module("""
        module M {
          peer P { tie: single P }
          val b: Int on P = 2
          val a: Int on P = 1
          val c: Int on P = 3
        }
    """)
    assert [d.name for d in m.defs] == ["b", "a", "c"]


def test_remote_access_and_stream_syntax():
    m = parse_module("""
        module M {
          include mon: Monitoring
          peer P : mon.Q { tie: single P, multiple mon.Q }
          source s: Stream[Int] on P
          val t: Stream[Int] on P = s.map(x => x * 2 + 1)
          val u: Future[(Int, Str)] on P = s.asLocal
          val v: Seq[(Remote[P], Future[Int])] on P = w.asLocalFromAll
          val w: Int on mon.Q = 4
        }
    """)
    assert m.includes == (ast.IncludeDecl("mon", "Monitoring"),)
    s, t, u, v, w = m.defs
    assert s.kind is ast.DefKind.STREAM_SOURCE and s.body is None
    assert isinstance(t.body, ast.StreamMap)
    assert t.body.var == "x"
    assert isinstance(u.body, ast.AsLocal)
    assert u.surface_type == ast.TFuture(ast.TTuple((ast.INT, ast.STR)))
    assert isinstance(v.body, ast.AsLocalFromAll)
    assert w.placed_on == ast.PeerRef("mon", "Q")


def test_comments_and_positions():
    src = "# leading comment\nmodule M {\n  peer P { }\n  val i: Int on Q = 1\n}\n"
    m = parse_module(src)
    assert m.defs[0].pos.line == 4
    assert m.defs[0].pos.col == 3


def test_syntax_error_carries_position_and_expectation():
    with pytest.raises(ParseError) as exc:
        parse_module("module M { peer }")
    d = exc.value.diagnostics[0]
    assert d.pos.line == 1
    assert d.pos.col == 17
    assert "expected" in d.message


def test_every_parse_diagnostic_has_a_position():
    bad_sources = [
        "module M { peer P { tie: walrus P } }",
        "module M { val i: Int on P }",
        "module M { val i: Unknown on P = 1 }",
        'module M { val s: Str on P = "unterminated }',
        "module",
    ]
    for src in bad_sources:
        with pytest.raises(ParseError) as exc:
            parse_module(src)
        for d in exc.value.diagnostics:
            assert d.pos.line >= 1 and d.pos.col >= 1


def test_tokenizer_tracks_lines_and_columns():
    toks = tokenize("module M\n  peer")
    assert (toks[0].pos.line, toks[0].pos.col) == (1, 1)
    assert (toks[1].pos.line, toks[1].pos.col) == (1, 8)
    assert (toks[2].pos.line, toks[2].pos.col) == (2, 3)


@pytest.mark.parametrize("literal, col", [("1²", 22), ("٣", 21)])
def test_check_refuses_non_ascii_digits(tmp_path, capsys, literal, col):
    path = tmp_path / "digits.loci"
    path.write_text(f"module M {{\n  peer A {{ }}\n  val x: Int on A = {literal}\n}}\n",
                    encoding="utf-8")
    assert cli.main(["check", str(path)]) == 1
    assert capsys.readouterr().err == f"{path}:3:{col} unexpected character {literal[-1]!r}\n"


@pytest.mark.parametrize("digits, code", [(4300, 0), (4301, 1)])
def test_check_reports_an_overlong_int_literal(tmp_path, capsys, digits, code):
    # 4,300 digits is the most that int() converts from text by default
    path = tmp_path / "long.loci"
    path.write_text(f"module M {{\n  peer A {{ }}\n  val x: Int on A = {'9' * digits}\n}}\n",
                    encoding="utf-8")
    assert cli.main(["check", str(path)]) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert (out, err) == ("ok\n", "")
    else:
        assert err == f"{path}:3:21 integer literal is too long\n"


@pytest.mark.parametrize("escape", ["\\ud800", "\\uDBFF", "\\udc00", "\\uDFFF"])
def test_check_refuses_lone_surrogate_escapes(tmp_path, capsys, escape):
    path = tmp_path / "surrogate.loci"
    path.write_text(f'module M {{\n  peer A {{ }}\n  val s: Str on A = "a{escape}b"\n}}\n',
                    encoding="utf-8")
    assert cli.main(["check", str(path)]) == 1
    assert capsys.readouterr().err == f"{path}:3:23 invalid \\u escape\n"


def test_escapes_next_to_the_surrogate_range_are_characters():
    assert tokenize('"\\ud7ff\\ue000"')[0].text == "\ud7ff\ue000"


def _bench_module(n_peers: int = 48) -> str:
    """The first module of `n_peers` peers in the seed-7 compile pool of the benchmark."""
    gen = helpers.load_bench("gen")
    return next(expected["source"] for expected in gen.inputs("compile", 7)["pool"]
                if len(expected["evaluated"]) - gen.LIB_PEERS == n_peers)


CALLS_PER_MODULE = 3000  # Python calls in parse_program of the 48-peer module above


def test_parsing_a_module_stays_within_its_python_call_budget():
    # a count, not a timing: record constructors and positions included
    source = _bench_module()
    parse_program(source)
    counts = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            counts[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        parse_program(source)
    finally:
        sys.setprofile(None)
    calls = sum(counts.values())
    assert calls <= CALLS_PER_MODULE, f"{calls} Python calls per module"


def test_tokenize_allocates_no_tracked_object_per_token():
    source = _bench_module()

    def allocations(text):
        tokenize(text)  # the same free lists before each count
        gc.collect()
        before = gc.get_count()[0]
        tokens = tokenize(text)
        return gc.get_count()[0] - before, len(tokens)

    gc.disable()
    try:
        once, n = allocations(source)
        tenfold, n_tenfold = allocations(source * 10)
    finally:
        gc.enable()
    assert n_tenfold == 10 * (n - 1) + 1  # one eof
    assert tenfold <= once < 50


def _tokens_or_diagnostics(tokenize_fn, source):
    try:
        return [(t.kind, t.text, t.pos) for t in tokenize_fn(source)]
    except ParseError as e:
        return [(d.pos, d.message) for d in e.diagnostics]


# pieces of .loci text, and the characters the tokenizer must refuse or treat specially
_LOCI_PIECES = st.sampled_from([
    "module", "val", "asLocal", "x", "_a1", "é", "x²", "12", "0", "²", "٣", "½",
    " ", "\t", "\r", "\n", "#", "# c", "\x0b", "\xa0", "$", "\ud800",
    '"', '"ab"', "\\", "\\n", "\\t", "\\q", '\\"', "\\\\", "\\u", "\\u00e9", "\\u12",
    "\\ud800", "\\uDFFF", "\\ud7ff", "\\uE000", "\\ud83d\\ude00", "u", "D8", "00", "g",
    "=>", "==", "=", ">", "{", "}", "(", ")", "[", "]", ":", ",", ".", "+", "-", "*", "<",
])


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(), st.lists(_LOCI_PIECES, max_size=40).map("".join)))
def test_tokenizer_matches_the_reference_loop(source):
    assert (_tokens_or_diagnostics(tokenize, source)
            == _tokens_or_diagnostics(helpers.reference_tokenize, source))


@pytest.mark.parametrize("source, pos", [
    ("#", Pos(1, 1)), ("a #c", Pos(1, 3)), ("a\n  b # c", Pos(2, 5)),
    ("# c\n", Pos(2, 1)), ("a  ", Pos(1, 4)),
])
def test_end_of_input_column_stops_at_a_trailing_comment(source, pos):
    assert tokenize(source)[-1] == ("eof", "", pos)
    assert helpers.reference_tokenize(source)[-1] == ("eof", "", pos)


def test_multi_module_program():
    mods = parse_program(helpers.MONITORING_P2P)
    assert [m.name for m in mods] == ["Monitoring", "P2P"]
    with pytest.raises(ParseError) as exc:
        parse_program("module A { } module A { }")
    assert "duplicate module name" in exc.value.diagnostics[0].message


# each form that nests, as (type, body) with `n` brackets, one inside the next
NESTING_FORMS = {
    "tuple type": lambda n: ("(Int, " * n + "Str" + ")" * n, "1"),
    "type argument": lambda n: ("Future[" * n + "Int" + "]" * n, "1"),
    "parentheses": lambda n: ("Int", "(" * n + "1" + ")" * n),
    "tuple": lambda n: ("Int", "(1, " * n + "2" + ")" * n),
    "map body": lambda n: ("Int", "s.map(x => " * n + "x" + ")" * n),
}


@pytest.mark.parametrize("form", NESTING_FORMS)
def test_nesting_past_the_limit_is_refused_at_its_bracket(form):
    def source(n: int) -> str:
        ty, body = NESTING_FORMS[form](n)
        return f"module M {{ peer P {{ }} val x: {ty} on P = {body} }}"

    parse_module(source(MAX_NESTING))
    text = source(MAX_NESTING + 1)
    brackets = [i for i, c in enumerate(text) if c in "(["]
    with pytest.raises(ParseError) as refused:
        parse_module(text)
    assert refused.value.diagnostics == [
        Diagnostic(Pos(1, brackets[MAX_NESTING] + 1), f"nesting deeper than {MAX_NESTING} levels")]


def test_render_empty_module():
    out = render_module(ast.SurfaceModule("Empty", (), (), ()))
    assert out.split() == ["module", "Empty", "{", "}"]


def test_render_round_trip_simple():
    src = "module M { peer P { tie: single P } val i: Int on P = 1 }"
    m = parse_module(src)
    assert parse_module(render_module(m)) == m


def test_render_precedence():
    m = parse_module("module M { val x: Int on P = 1 - (2 - 3) * 4 }")
    again = parse_module(render_module(m))
    assert again == m
    body = again.defs[0].body
    assert body.op == "-"
    assert body.right.op == "*"


@settings(max_examples=200, deadline=None)
@given(helpers.surface_modules())
def test_parse_render_round_trip(module):
    rendered = render_module(module)
    assert parse_module(rendered) == module


@settings(max_examples=100, deadline=None)
@given(helpers.surface_modules())
def test_render_is_stable(module):
    rendered = render_module(module)
    assert render_module(parse_module(rendered)) == rendered


# --- positions ------------------------------------------------------------------

AST_POSITIONS = helpers.ROOT / "tests" / "golden" / "ast_positions.json"
_LABELS = ("name", "alias", "op", "value", "var")


def node_positions(node, out: list) -> list:
    """[type, name or operator, line, col] of every node under `node` that
    keeps a position, depth first in field order."""
    if isinstance(node, tuple):
        for item in node:
            node_positions(item, out)
        return out
    fields = getattr(type(node), "_fields", ())
    if "pos" in fields:
        label = next((getattr(node, f) for f in _LABELS if f in fields), None)
        out.append([type(node).__name__, label, node.pos.line, node.pos.col])
    for f in fields:
        if f != "pos":
            node_positions(getattr(node, f), out)
    return out


def position_sources() -> dict[str, str]:
    """The samples, and the first seed-7 compile module of each size class."""
    sources = {f"samples/{p.name}": p.read_text(encoding="utf-8")
               for p in sorted((helpers.ROOT / "samples").glob("*.loci"))}
    gen = helpers.load_bench("gen")
    for expected in gen.inputs("compile", 7)["pool"]:
        n_peers = len(expected["evaluated"]) - gen.LIB_PEERS
        sources.setdefault(f"compile seed 7, {n_peers} peers", expected["source"])
    return sources


def test_every_node_keeps_its_recorded_position():
    recorded = json.loads(AST_POSITIONS.read_text(encoding="utf-8"))
    got = {name: node_positions(tuple(parse_program(src)), [])
           for name, src in position_sources().items()}
    assert list(got) == list(recorded)
    for name in recorded:
        assert got[name] == recorded[name], name
