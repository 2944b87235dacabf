"""Shared test fixtures: sources, generators, and independent oracles."""

from __future__ import annotations

import importlib.util
import random
import string
from pathlib import Path

from hypothesis import strategies as st

from locic import arch, ast, checker, parser
from locic.ast import Multiplicity
from locic.codecs import CodecError, decode_json, encode_json
from locic.diagnostics import Diagnostic, Pos
from locic.parser import KEYWORDS
from locic.sigs import ModuleSig, PeerSig, ValueSig
from locic.wire import (ChanClose, ChanMsg, ChanOpen, Hello, HelloAck, Request,
                        Response)

SIMPLE_MODULE = """\
module SimpleModule {
  peer MyPeer { tie: single MyPeer }
  val i: Int on MyPeer = 1
  val j: Future[Int] on MyPeer = i.asLocal
}
"""

MONITORING_P2P = """\
module Monitoring {
  peer Monitor { tie: multiple Monitored }
  peer Monitored { tie: single Monitor }
  val interval: Int on Monitor = 5
}
module P2P {
  include mon: Monitoring
  peer Registry : mon.Monitor { tie: multiple mon.Monitored, multiple Node }
  peer Node : mon.Monitored { tie: single mon.Monitor, single Registry, multiple Node }
  val localRead: Int on Registry = mon.interval + 1
  val fromNode: Future[Int] on Node = mon.interval.asLocal
}
"""


def parse_module(source: str) -> ast.SurfaceModule:
    """Parse a source containing exactly one module."""
    modules = parser.parse_program(source)
    if len(modules) != 1:
        raise parser.ParseError([Diagnostic(modules[1].pos, "expected a single module")])
    return modules[0]


def compile_source(source: str):
    """Full front half of the pipeline; the last module is the main one."""
    modules = parser.parse_program(source)
    registry = {m.name: m for m in modules[:-1]}
    main = modules[-1]
    a = arch.resolve_architecture(main, registry)
    t = arch.effective_ties(a)
    tm = checker.check_module(main, a, t)
    return main, a, t, tm


def compile_clean(source: str):
    main, a, t, tm = compile_source(source)
    assert not tm.diagnostics, [d.message for d in tm.diagnostics]
    return main, a, t, tm


ROOT = Path(__file__).resolve().parents[1]


def load_bench(name: str):
    """A module of the benchmark, loaded from `bench/` unchanged."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# --- hypothesis strategies for surface ASTs -----------------------------

_IDENT_START = string.ascii_letters + "_"
_IDENT_REST = _IDENT_START + string.digits


@st.composite
def idents(draw):
    head = draw(st.sampled_from(_IDENT_START))
    tail = draw(st.text(alphabet=_IDENT_REST, max_size=6))
    name = head + tail
    if name in KEYWORDS:
        name += "x"
    return name


def _literal_exprs():
    return st.one_of(
        st.integers(min_value=0, max_value=10**9).map(ast.IntLit),
        st.booleans().map(ast.BoolLit),
        st.text(max_size=12).map(ast.StrLit),
    )


@st.composite
def _refs(draw, names):
    qualified = draw(st.booleans())
    if qualified:
        return ast.Ref(draw(names), draw(names))
    return ast.Ref(None, draw(names))


@st.composite
def _peer_refs(draw, names):
    qualified = draw(st.booleans())
    if qualified:
        return ast.PeerRef(draw(names), draw(names))
    return ast.PeerRef(None, draw(names))


def exprs(names=idents()):
    ref = _refs(names)
    arith = st.sampled_from(("+", "-", "*", "<", "=="))

    def extend(children):
        return st.one_of(
            st.tuples(arith, children, children).map(lambda t: ast.BinOp(*t)),
            st.lists(children, min_size=2, max_size=3).map(
                lambda items: ast.TupleExpr(tuple(items))),
            ref.map(ast.AsLocal),
            ref.map(ast.AsLocalFromAll),
            st.tuples(ref, names, children).map(lambda t: ast.StreamMap(*t)),
        )

    return st.recursive(st.one_of(_literal_exprs(), ref), extend, max_leaves=12)


def _tuple_types(children):
    return st.lists(children, min_size=2, max_size=3).map(lambda items: ast.TTuple(tuple(items)))


_PRIM_TYPES = st.sampled_from(("Int", "Bool", "Str", "Unit")).map(ast.TPrim)


def type_exprs(names=idents()):
    prim = _PRIM_TYPES

    def extend(children):
        return st.one_of(
            _tuple_types(children),
            children.map(ast.TStream),
            children.map(ast.TFuture),
            children.map(ast.TOption),
            children.map(ast.TSeq),
        )

    remote = _peer_refs(names).map(ast.TRemote)
    return st.recursive(st.one_of(prim, remote), extend, max_leaves=6)


# built once: a strategy built inside a draw is built again for every example
IDENTS, EXPRS, TYPE_EXPRS = idents(), exprs(), type_exprs()
# TYPE_EXPRS rarely draws a type made of primitives and tuples alone
DATA_TYPE_EXPRS = st.recursive(_PRIM_TYPES, _tuple_types, max_leaves=6)


@st.composite
def surface_modules(draw):
    """Structurally valid modules (names unique); not semantically checked."""
    names = draw(st.lists(IDENTS, min_size=1, max_size=10, unique=True))
    module_name = names[0]
    member_names = names[1:]
    random_split = draw(st.integers(min_value=0, max_value=len(member_names)))
    peer_names, def_names = member_names[:random_split], member_names[random_split:]

    any_name = IDENTS
    peers = []
    for name in peer_names:
        supers = draw(st.lists(_peer_refs(any_name), max_size=2))
        ties = draw(st.lists(
            st.tuples(st.sampled_from(list(Multiplicity)), _peer_refs(any_name)), max_size=3))
        peers.append(ast.PeerDecl(name, tuple(supers), tuple(ties)))

    defs = []
    for name in def_names:
        placed = draw(_peer_refs(any_name))
        if draw(st.booleans()):
            defs.append(ast.DefDecl(name, ast.DefKind.STREAM_SOURCE,
                                    ast.TStream(draw(TYPE_EXPRS)), placed, None))
        else:
            defs.append(ast.DefDecl(name, ast.DefKind.VAL, draw(TYPE_EXPRS),
                                    placed, draw(EXPRS)))
    return ast.SurfaceModule(module_name, (), tuple(peers), tuple(defs))


# --- random architectures with an independent tie oracle -----------------

def random_arch_module(rng: random.Random, max_peers: int = 8, min_peers: int = 1,
                       max_supers: int = 3) -> ast.SurfaceModule:
    n = rng.randint(min_peers, max_peers)
    names = [f"P{k}" for k in range(n)]
    peers = []
    for idx, name in enumerate(names):
        supers = rng.sample(names[:idx], k=min(rng.randint(0, max_supers), idx))
        ties = tuple(
            (rng.choice(list(Multiplicity)), ast.PeerRef(None, rng.choice(names)))
            for _ in range(rng.randint(0, 3)))
        peers.append(ast.PeerDecl(name, tuple(ast.PeerRef(None, s) for s in supers), ties))
    return ast.SurfaceModule("Gen", (), tuple(peers), ())


def oracle_effective_ties(m: ast.SurfaceModule) -> dict[tuple[str, str], Multiplicity]:
    """Brute force: enumerate super closures, take the minimum multiplicity."""
    supers = {p.name: [str(s) for s in p.supers] for p in m.peers}
    raw = [(p.name, str(ref), mult) for p in m.peers for mult, ref in p.ties]

    def closure(name: str) -> set[str]:
        seen = {name}
        frontier = [name]
        while frontier:
            for s in supers[frontier.pop()]:
                if s not in seen:
                    seen.add(s)
                    frontier.append(s)
        return seen

    table: dict[tuple[str, str], Multiplicity] = {}
    for left in supers:
        left_closure = closure(left)
        for right in supers:
            right_closure = closure(right)
            mults = [mult for (on, target, mult) in raw
                     if on in left_closure and target in right_closure]
            if mults:
                table[(left, right)] = min(mults)
    return table


# --- reference tokenizer -----------------------------------------------------

_PUNCT = ("=>", "==", "{", "}", "(", ")", "[", "]", ":", ",", ".", "=", "+", "-", "*", "<")
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}


def token_triples(tokens: parser.Tokens) -> list[tuple[str, str, Pos]]:
    """(kind, text, position) of each token; a string literal's text is its value."""
    return [(kind, parser.string_value(text) if kind == "str" else text, tokens.pos(i))
            for i, (kind, text) in enumerate(zip(tokens.kinds, tokens.texts))]


def reference_tokenize(source: str) -> list[tuple[str, str, Pos]]:
    """The character-loop tokenizer `parser.tokenize` replaced, kept as the
    oracle for its tokens (as `token_triples` gives them), positions and
    diagnostics."""
    tokens: list[tuple[str, str, Pos]] = []
    line, col = 1, 1
    i, n = 0, len(source)

    def err(msg: str, pos: Pos):
        raise parser.ParseError([Diagnostic(pos, msg)])

    while i < n:
        c = source[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        pos = Pos(line, col)
        if "0" <= c <= "9":
            j = i
            while j < n and "0" <= source[j] <= "9":
                j += 1
            tokens.append(("int", source[i:j], pos))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            kind = word if word in KEYWORDS else "ident"
            tokens.append((kind, word, pos))
            col += j - i
            i = j
            continue
        if c == '"':
            j = i + 1
            out: list[str] = []
            while True:
                if j >= n or source[j] == "\n":
                    err("unterminated string literal", pos)
                ch = source[j]
                if ch == '"':
                    j += 1
                    break
                if ch == "\\":
                    if j + 1 >= n:
                        err("unterminated string literal", pos)
                    esc = source[j + 1]
                    if esc in _ESCAPES:
                        out.append(_ESCAPES[esc])
                        j += 2
                    elif esc == "u":
                        hexpart = source[j + 2 : j + 6]
                        if (len(hexpart) != 4 or any(h not in "0123456789abcdefABCDEF" for h in hexpart)
                                or 0xD800 <= int(hexpart, 16) <= 0xDFFF):
                            err("invalid \\u escape", Pos(line, col + j - i))
                        out.append(chr(int(hexpart, 16)))
                        j += 6
                    else:
                        err(f"invalid escape '\\{esc}'", Pos(line, col + j - i))
                else:
                    out.append(ch)
                    j += 1
            tokens.append(("str", "".join(out), pos))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if source.startswith(p, i):
                tokens.append((p, p, pos))
                i += len(p)
                col += len(p)
                break
        else:
            err(f"unexpected character {c!r}", pos)
    tokens.append(("eof", "", Pos(line, col)))
    return tokens


# --- reference codec ---------------------------------------------------------

_REFERENCE_PRIMITIVES = {"Int": (int, bool, "an Int"), "Bool": (bool, (), "a Bool"),
                         "Str": (str, (), "a Str"), "Unit": (type(None), (), "Unit")}


def _reference_coders(ty: ast.TypeExpr):
    if isinstance(ty, ast.TPrim):
        kind, refused, noun = _REFERENCE_PRIMITIVES[ty.name]

        def write(value):
            if not isinstance(value, kind) or isinstance(value, refused):
                raise CodecError(f"{ty} codec cannot serialize {value!r}")
            return value

        def read(doc):
            if type(doc) is not kind:
                raise CodecError(f"expected {noun}, got {doc!r}")
            return doc
        return write, read
    writers, readers = zip(*map(_reference_coders, ty.items))
    size = len(writers)

    def write_tuple(value):
        if not isinstance(value, tuple) or len(value) != size:
            raise CodecError(f"{ty} codec cannot serialize {value!r}")
        return [write(v) for write, v in zip(writers, value)]

    def read_tuple(doc):
        if type(doc) is not list or len(doc) != size:
            raise CodecError(f"expected a {ty}, got {doc!r}")
        return tuple(read(d) for read, d in zip(readers, doc))
    return write_tuple, read_tuple


def reference_codec(ty: ast.TypeExpr):
    """The (serialize, deserialize) pair of the item-by-item closure codec
    that `codecs.Codec` replaced, kept as the oracle for its bytes, values
    and refusal texts."""
    codec_id = str(ty)
    write, read = _reference_coders(ty)

    def serialize(value) -> bytes:
        doc = write(value)
        try:
            return encode_json(doc).encode("utf-8")
        except ValueError as e:
            raise CodecError(f"{codec_id} codec cannot serialize this value: {e}") from None

    def deserialize(data: bytes):
        try:
            text = data.decode("utf-8")
            doc = decode_json(text)
        except (ValueError, RecursionError) as e:
            raise CodecError(f"codec {codec_id}: invalid encoding: {e}") from None
        try:
            value = read(doc)
        except CodecError as e:
            raise CodecError(f"codec {codec_id}: {e}") from None
        if encode_json(doc) != text:
            raise CodecError(f"codec {codec_id}: non-canonical encoding")
        return value
    return serialize, deserialize


# --- walking typed bodies ----------------------------------------------------

def sites(e, kind):
    """Every node of class `kind` in a typed expression, in source order."""
    if isinstance(e, kind):
        yield e
    elif isinstance(e, checker.TBinOp):
        yield from sites(e.left, kind)
        yield from sites(e.right, kind)
    elif isinstance(e, checker.TTupleExpr):
        for i in e.items:
            yield from sites(i, kind)
    elif isinstance(e, checker.TStreamMap):
        yield from sites(e.source, kind)
        yield from sites(e.body, kind)


def remote_accesses(tm):
    """(accessing definition, access) for every remote access in the typed
    bodies of a checked module, in source order."""
    return [(d, access) for d in tm.defs for access in sites(d.body, checker.RemoteCall)]


# --- random well-typed modules (serializable defs, optional remote reads) --

_DATA_TYPES = [ast.INT, ast.BOOL, ast.STR,
               ast.TTuple((ast.INT, ast.STR)), ast.TTuple((ast.BOOL, ast.TTuple((ast.INT, ast.INT))))]


def _literal_for(rng: random.Random, t: ast.TypeExpr) -> ast.Expr:
    if t == ast.INT:
        return ast.IntLit(rng.randint(0, 999))
    if t == ast.BOOL:
        return ast.BoolLit(rng.random() < 0.5)
    if t == ast.STR:
        return ast.StrLit(rng.choice(["a", "b", "xyz", ""]))
    assert isinstance(t, ast.TTuple)
    return ast.TupleExpr(tuple(_literal_for(rng, i) for i in t.items))


def _serializable(t: ast.TypeExpr) -> bool:
    if isinstance(t, ast.TPrim):
        return True
    if isinstance(t, ast.TTuple):
        return all(_serializable(i) for i in t.items)
    if isinstance(t, ast.TStream):
        return _serializable(t.elem)
    return False


def random_checked_module(rng: random.Random, max_peers: int = 4,
                          max_defs: int = 8) -> ast.SurfaceModule:
    """A module that passes the checker: data-typed vals, stream sources,
    and remote accesses wherever a tie allows them."""
    base = random_arch_module(rng, max_peers)
    ties = oracle_effective_ties(base)
    peer_names = [p.name for p in base.peers]

    defs: list[ast.DefDecl] = []
    placed: list[tuple[str, str, ast.TypeExpr, ast.DefKind]] = []
    for k in range(rng.randint(1, max_defs)):
        name = f"d{k}"
        on = rng.choice(peer_names)
        choice = rng.random()
        remote_candidates = [
            (tname, ttype, tkind)
            for (tname, ton, ttype, tkind) in placed
            if (on, ton) in ties and _serializable(ttype) and not (
                isinstance(ttype, ast.TStream) and ties[(on, ton)] is not Multiplicity.SINGLE)
        ]
        if choice < 0.25:
            elem = rng.choice([ast.INT, ast.STR])
            decl = ast.DefDecl(name, ast.DefKind.STREAM_SOURCE, ast.TStream(elem),
                               ast.PeerRef(None, on), None)
            placed.append((name, on, ast.TStream(elem), ast.DefKind.STREAM_SOURCE))
        elif choice < 0.55 and remote_candidates:
            tname, ttype, _ = rng.choice(remote_candidates)
            target_on = next(ton for (n, ton, _, _) in placed if n == tname)
            mult = ties[(on, target_on)]
            if isinstance(ttype, ast.TStream):
                declared: ast.TypeExpr = ttype
                body: ast.Expr = ast.AsLocal(ast.Ref(None, tname))
            elif mult is Multiplicity.SINGLE:
                declared = ast.TFuture(ttype)
                body = ast.AsLocal(ast.Ref(None, tname))
            elif mult is Multiplicity.OPTIONAL:
                declared = ast.TOption(ast.TFuture(ttype))
                body = ast.AsLocal(ast.Ref(None, tname))
            else:
                declared = ast.TSeq(ast.TTuple((
                    ast.TRemote(ast.PeerRef(None, target_on)), ast.TFuture(ttype))))
                body = ast.AsLocalFromAll(ast.Ref(None, tname))
            decl = ast.DefDecl(name, ast.DefKind.VAL, declared, ast.PeerRef(None, on), body)
            placed.append((name, on, declared, ast.DefKind.VAL))
        else:
            t = rng.choice(_DATA_TYPES)
            decl = ast.DefDecl(name, ast.DefKind.VAL, t, ast.PeerRef(None, on),
                               _literal_for(rng, t))
            placed.append((name, on, t, ast.DefKind.VAL))
        defs.append(decl)
    return ast.SurfaceModule(base.name, (), base.peers, tuple(defs))


# --- the former wiring rule of `runtime.simulate` --------------------------

def reference_tied(components, p, q) -> bool:
    """Whether `simulate` wired instances of peers `p` and `q`, by its rule
    before admission and wiring shared `PeerComponent.ties_to`: some tie
    declared by any peer joins a member of one super-closure to a member of
    the other."""
    tie_pairs = {(pid, target) for pid, component in components.items()
                 for target in component.tie_table}
    closure = next(iter(components.values())).super_closure
    return any((a, b) in tie_pairs or (b, a) in tie_pairs
               for a in closure(p) for b in closure(q))


# --- envelope generator ---------------------------------------------------

def random_envelope(rng: random.Random):
    module = ModuleSig(rng.choice(["M", "Other", "P2P"]),
                       tuple(rng.choices(["a", "b"], k=rng.randint(0, 2))))
    value = ValueSig(f"v{rng.randint(0, 99)}:Int", module)
    kind = rng.randrange(7)
    if kind == 0:
        return Hello(module, PeerSig(f"Peer{rng.randint(0, 9)}", module), rng.randint(0, 3))
    if kind == 1:
        return HelloAck(rng.random() < 0.5, rng.choice(["", "nope", "tie bound exceeded"]))
    if kind == 2:
        return Request(rng.randint(0, 2**63), value)
    if kind == 3:
        if rng.random() < 0.5:
            return Response(rng.randint(0, 2**63), True,
                            payload=rng.randbytes(rng.randint(1, 64)))
        return Response(rng.randint(0, 2**63), False, error="boom " * rng.randint(0, 3))
    if kind == 4:
        return ChanOpen(rng.randint(0, 2**31), value)
    if kind == 5:
        return ChanMsg(rng.randint(0, 2**31), rng.randbytes(rng.randint(1, 64)))
    return ChanClose(rng.randint(0, 2**31))
