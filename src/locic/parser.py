"""Lexer and recursive-descent parser for multitier module files (.loci).

`tokenize` splits a whole source with one regular expression and keeps its
tokens as three parallel lists, with no object per token: each token's
kind, its source text and its start offset. The parser reads kinds and
texts by index. A `Pos` (line, column) is built from a token's offset and
the source's line starts, and only for the AST nodes and diagnostics that
keep one.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate, compress, count, repeat
from operator import add, itemgetter, ne
from typing import NamedTuple

from . import ast
from .diagnostics import Diagnostic, Pos, SourceError


class ParseError(SourceError):
    pass


# the most brackets a type or an expression nests: parentheses, tuples, `.map`
# bodies and `[...]` type arguments; every later stage walks them recursively
MAX_NESTING = 100


KEYWORDS = {
    "module", "include", "peer", "tie", "val", "source", "on",
    "single", "optional", "multiple", "true", "false",
    "asLocal", "asLocalFromAll",
}
PUNCT = ("=>", "==", "{", "}", "(", ")", "[", "]", ":", ",", ".", "=", "+", "-", "*", "<")


class Token(NamedTuple):
    kind: str  # 'ident' | 'int' | 'str' | keyword or punct literal | 'eof'
    text: str  # a string literal's value
    pos: Pos


# The patterns are compiled by `re` on first use, so importing compiles none.
# A string literal up to its closing quote, or up to its first fault.
_STRING = r'"(?:[^"\\\n]|\\[nrt"\\]|\\u(?![dD][89a-fA-F])[0-9a-fA-F]{4})*'

# One token or comment with the blanks after it: blanks before the first token
# match nothing, a faulty string literal falls to the last character class, and
# the end of input is an empty token.
_TOKEN = r"""(?x)(?:
    [A-Za-z_]\w* | [{}()\[\]:,.+\-*<] | [0-9]+  # ASCII only: \d also takes "٣"
    | =[>=]? | \#.* | %s" | \w+ | [^ \t\r\n] | \Z)[ \t\r\n]*
""" % _STRING

# A token's kind from its text, else from its first character (`_FIRST`); None
# for a word that starts past ASCII, a bad character and a faulty string.
_KINDS = {**{k: k for k in (*KEYWORDS, *PUNCT)}, "": "eof", '"': None}
_FIRST = {**dict.fromkeys("0123456789", "int"), '"': "str", "#": "#",
          **dict.fromkeys("_abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ", "ident")}
_first = itemgetter(slice(1))
_BLANKS = " \t\r\n"
_new = tuple.__new__  # skips the NamedTuple constructor's Python frame

# how tight each binary operator binds: comparison < additive < multiplicative
_BINDING = {"<": 1, "==": 1, "+": 2, "-": 2, "*": 3}

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}
_ESCAPE = r"\\(?:u(....)|(.))"


def _unescape(m: re.Match) -> str:
    return chr(int(m[1], 16)) if m[1] else _ESCAPES[m[2]]


def string_value(text: str) -> str:
    """The value of the string literal whose source text is `text`."""
    return re.sub(_ESCAPE, _unescape, text[1:-1]) if "\\" in text else text[1:-1]


class Tokens:
    """A source's tokens, `eof` last, as parallel lists: `kinds`, `texts`
    (source text: a string literal keeps its quotes and escapes) and
    `starts` (offsets into the source); `lines` holds the offset each line
    starts at. Indexing builds a `Token` whose text is a literal's value."""

    __slots__ = ("kinds", "texts", "starts", "lines")

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, i: int) -> Token:
        kind, text = self.kinds[i], self.texts[i]
        return Token(kind, string_value(text) if kind == "str" else text, self.pos(i))

    def pos(self, i: int) -> Pos:
        offset, lines = self.starts[i], self.lines
        line = bisect_right(lines, offset)
        return _new(Pos, (line, offset - lines[line - 1] + 1))

    def error(self, i: int, message: str) -> ParseError:
        return ParseError([Diagnostic(self.pos(i), message)])


def _fault(source: str, tokens: Tokens, i: int) -> ParseError:
    """The error for token i, a bad character or the opening quote of a
    string literal that stops at its first fault."""
    text = tokens.texts[i]
    if text != '"':
        return tokens.error(i, f"unexpected character {text[0]!r}")
    start = tokens.starts[i]
    j = re.compile(_STRING).match(source, start).end()
    if source[j : j + 1] == "\\" and j + 1 < len(source):  # an escape it cannot read
        esc = source[j + 1]
        line, col = tokens.pos(i)
        message = "invalid \\u escape" if esc == "u" else f"invalid escape '\\{esc}'"
        return ParseError([Diagnostic(Pos(line, col + j - start), message)])
    return tokens.error(i, "unterminated string literal")


def tokenize(source: str) -> Tokens:
    found = re.findall(_TOKEN, source)
    tokens = Tokens()
    tokens.texts = texts = list(map(str.rstrip, found, repeat(_BLANKS)))
    tokens.kinds = kinds = list(map(_KINDS.get, texts, map(_FIRST.get, map(_first, texts))))
    # each token starts where the one before it and its blanks end
    starts = list(accumulate(map(len, found), initial=len(source) - len(source.lstrip(_BLANKS))))
    del starts[-1]
    tokens.starts = starts
    tokens.lines = list(map(add, accumulate(map(len, source.split("\n")), initial=0), count()))
    if None in kinds:
        for i in [i for i, kind in enumerate(kinds) if kind is None]:
            # \w is str.isalnum() or "_"; a word must start alphabetic
            if not texts[i][0].isalpha():
                raise _fault(source, tokens, i)
            kinds[i] = "ident"
    if "#" in kinds:  # comments; the end-of-input column stops at one on the last line
        if kinds[-2] == "#" and "\n" not in found[-2]:
            starts[-1] = starts[-2]
        keep = list(map(ne, kinds, repeat("#")))
        tokens.kinds, tokens.texts, tokens.starts = (
            list(compress(seq, keep)) for seq in (kinds, texts, starts))
    return tokens


class _Parser:
    """Each grammar method parses from token i and returns its node with
    the index of the token after it."""

    def __init__(self, tokens: Tokens):
        self.kinds, self.texts, self.pos, self.error = tokens.kinds, tokens.texts, tokens.pos, tokens.error

    def expected(self, i: int, *kinds: str) -> ParseError:
        found = self.kinds[i] if self.kinds[i] != "eof" else "end of input"
        expected = " or ".join(f"'{k}'" for k in kinds)
        return self.error(i, f"syntax error: expected {expected}, found {found}")

    def expect(self, i: int, *kinds: str) -> int:
        """The index past `kinds`, one token each from i on."""
        for j, kind in enumerate(kinds, i):
            if self.kinds[j] != kind:
                raise self.expected(j, kind)
        return i + len(kinds)

    def too_deep(self, i: int) -> ParseError:
        return self.error(i, f"nesting deeper than {MAX_NESTING} levels")

    def parenthesized(self, i: int, item, depth: int) -> tuple[list, int]:
        """The comma-separated `item`s in the parentheses opened at token i,
        and the index past ')'; `depth` brackets are open outside them."""
        if depth == MAX_NESTING:
            raise self.too_deep(i)
        kinds, items, sep = self.kinds, [], "("
        while kinds[i] == sep:
            node, i = item(i + 1, depth + 1)
            items.append(node)
            sep = ","
        if kinds[i] != ")":
            raise self.expected(i, ")")
        return items, i + 1

    # -- grammar --

    def program(self) -> list[ast.SurfaceModule]:
        modules, i = [], 0
        while self.kinds[i] != "eof" or not modules:
            module, i = self.module(i)
            modules.append(module)
        return modules

    def module(self, start: int) -> tuple[ast.SurfaceModule, int]:
        kinds, texts = self.kinds, self.texts
        i = self.expect(start, "module", "ident", "{")
        includes: list[ast.IncludeDecl] = []
        peers: list[ast.PeerDecl] = []
        defs: list[ast.DefDecl] = []
        while kinds[i] != "}":
            kind = kinds[i]
            if kind == "peer":
                peer, i = self.peer(i)
                peers.append(peer)
            elif kind == "val" or kind == "source":
                definition, i = self.definition(i)
                defs.append(definition)
            elif kind == "include":
                i = self.expect(i, "include", "ident", ":", "ident")
                includes.append(ast.IncludeDecl(texts[i - 3], texts[i - 1], self.pos(i - 4)))
            else:
                raise self.expected(i, "include", "peer", "val", "source", "}")
        mod = ast.SurfaceModule(texts[start + 1], tuple(includes), tuple(peers), tuple(defs),
                                self.pos(start))
        self._check_unique_names(mod)
        return mod, i + 1

    def _check_unique_names(self, mod: ast.SurfaceModule) -> None:
        decls = (*mod.includes, *mod.peers, *mod.defs)
        names = [i.alias for i in mod.includes] + [d.name for d in decls[len(mod.includes):]]
        if len(set(names)) == len(names):
            return
        seen: set[str] = set()
        diags: list[Diagnostic] = []
        for name, decl in zip(names, decls):
            if name in seen:
                diags.append(Diagnostic(decl.pos, f"duplicate name '{name}' in module '{mod.name}'"))
            seen.add(name)
        raise ParseError(diags)

    def peer(self, start: int) -> tuple[ast.PeerDecl, int]:
        kinds, peer_ref = self.kinds, self.peer_ref
        if kinds[start + 1] != "ident":
            raise self.expected(start + 1, "ident")
        i, sep = start + 2, ":"
        supers: list[ast.PeerRef] = []
        ties: list[tuple[ast.Multiplicity, ast.PeerRef]] = []
        while kinds[i] == sep:
            ref, i = peer_ref(i + 1)
            supers.append(ref)
            sep = ","
        if kinds[i] == "{":
            i += 1
            if kinds[i] == "tie":
                i, sep = self.expect(i + 1, ":") - 1, ":"
                while kinds[i] == sep:
                    mult = ast.MULTIPLICITY_BY_KEYWORD.get(kinds[i + 1])
                    if mult is None:
                        raise self.expected(i + 1, "single", "optional", "multiple")
                    ref, i = peer_ref(i + 2)
                    ties.append((mult, ref))
                    sep = ","
            if kinds[i] != "}":
                raise self.expected(i, "}")
            i += 1
        return ast.PeerDecl(self.texts[start + 1], tuple(supers), tuple(ties), self.pos(start)), i

    def peer_ref(self, i: int) -> tuple[ast.PeerRef, int]:
        kinds, texts = self.kinds, self.texts
        if kinds[i] != "ident":
            raise self.expected(i, "ident")
        if kinds[i + 1] == "." and kinds[i + 2] == "ident":
            return ast.PeerRef(texts[i], texts[i + 2], self.pos(i)), i + 3
        return ast.PeerRef(None, texts[i], self.pos(i)), i + 1

    def definition(self, start: int) -> tuple[ast.DefDecl, int]:
        kinds = self.kinds
        if kinds[start + 1] != "ident" or kinds[start + 2] != ":":
            self.expect(start + 1, "ident", ":")
        ty, i = self.type_expr(start + 3)
        if kinds[i] != "on":
            raise self.expected(i, "on")
        placed, i = self.peer_ref(i + 1)
        if kinds[start] == "source":
            return ast.DefDecl(self.texts[start + 1], ast.DefKind.STREAM_SOURCE, ty, placed, None,
                               self.pos(start)), i
        if kinds[i] != "=":
            raise self.expected(i, "=")
        body, i = self.expr(i + 1)
        return ast.DefDecl(self.texts[start + 1], ast.DefKind.VAL, ty, placed, body, self.pos(start)), i

    def type_expr(self, i: int, depth: int = 0) -> tuple[ast.TypeExpr, int]:
        kinds, name = self.kinds, self.texts[i]
        ty = ast.PRIMS.get(name)  # only an ident spells a primitive
        if ty is not None:
            return ty, i + 1
        if kinds[i] == "(":
            items, j = self.parenthesized(i, self.type_expr, depth)
            if len(items) < 2:
                raise self.error(i, "tuple type needs at least 2 elements")
            return ast.TTuple(tuple(items)), j
        if kinds[i] != "ident":
            raise self.expected(i, "ident")
        if name not in ast.ELEM_TYPES and name != "Remote":
            raise self.error(i, f"syntax error: unknown type '{name}'")
        if kinds[i + 1] != "[":
            raise self.expected(i + 1, "[")
        if name == "Remote":
            peer, j = self.peer_ref(i + 2)
            ty = ast.TRemote(peer)
        elif depth == MAX_NESTING:
            raise self.too_deep(i + 1)
        else:
            elem, j = self.type_expr(i + 2, depth + 1)
            ty = ast.ELEM_TYPES[name](elem)
        if kinds[j] != "]":
            raise self.expected(j, "]")
        return ty, j + 1

    def expr(self, i: int, depth: int = 0, least: int = 1) -> tuple[ast.Expr, int]:
        """The operand at token i and the operators after it that bind at
        least `least` tight, left-associative; comparisons do not chain."""
        kinds = self.kinds
        left, i = self.primary(i, depth)
        while (binding := _BINDING.get(kinds[i], 0)) >= least:
            right, j = self.expr(i + 1, depth, binding + 1)
            left, i = ast.BinOp(kinds[i], left, right, self.pos(i)), j
            if binding == 1:
                break
        return left, i

    def primary(self, i: int, depth: int) -> tuple[ast.Expr, int]:
        """An operand, with the remote accesses and stream maps after it."""
        kinds, texts = self.kinds, self.texts
        kind = kinds[i]
        if kind == "ident":
            if kinds[i + 1] == "." and kinds[i + 2] == "ident" and not (
                texts[i + 2] == "map" and kinds[i + 3] == "("
            ):
                e, j = ast.Ref(texts[i], texts[i + 2], self.pos(i)), i + 3
            else:
                e, j = ast.Ref(None, texts[i], self.pos(i)), i + 1
        elif kind == "int":
            try:
                e, j = ast.IntLit(int(texts[i]), self.pos(i)), i + 1
            except ValueError:  # more digits than int() converts
                raise self.error(i, "integer literal is too long") from None
        elif kind == "true" or kind == "false":
            e, j = ast.BoolLit(kind == "true", self.pos(i)), i + 1
        elif kind == "str":
            e, j = ast.StrLit(string_value(texts[i]), self.pos(i)), i + 1
        elif kind == "(":
            items, j = self.parenthesized(i, self.expr, depth)
            e = items[0] if len(items) == 1 else ast.TupleExpr(tuple(items), self.pos(i))
        else:
            raise self.error(i, f"syntax error: expected an expression, found '{kind}'")
        while kinds[j] == "." and (kinds[j + 1] in ("asLocal", "asLocalFromAll") or (
            texts[j + 1] == "map" and kinds[j + 2] == "(")
        ):
            if not isinstance(e, ast.Ref):
                raise self.error(j, "remote access and stream map apply to named values only")
            method = kinds[j + 1]
            if method == "asLocal":
                e, j = ast.AsLocal(e, self.pos(j + 1)), j + 2
            elif method == "asLocalFromAll":
                e, j = ast.AsLocalFromAll(e, self.pos(j + 1)), j + 2
            else:
                if depth == MAX_NESTING:
                    raise self.too_deep(j + 2)
                body, k = self.expr(self.expect(j + 3, "ident", "=>"), depth + 1)
                e, j = ast.StreamMap(e, texts[j + 3], body, self.pos(j + 1)), self.expect(k, ")")
        return e, j


def parse_program(source: str) -> list[ast.SurfaceModule]:
    """Parse a file that may declare several modules; order is preserved."""
    modules = _Parser(tokenize(source)).program()
    seen: dict[str, Pos] = {}
    diags = []
    for m in modules:
        if m.name in seen:
            diags.append(Diagnostic(m.pos, f"duplicate module name '{m.name}'"))
        seen[m.name] = m.pos
    if diags:
        raise ParseError(diags)
    return modules


def parse_type(text: str) -> ast.TypeExpr:
    """Parse one type expression and nothing after it."""
    p = _Parser(tokenize(text))
    ty, i = p.type_expr(0)
    p.expect(i, "eof")
    return ty
