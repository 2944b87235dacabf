"""Lexer and recursive-descent parser for multitier module files (.loci)."""

from __future__ import annotations

import re
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


class Token(NamedTuple):
    kind: str  # 'ident' | 'int' | 'str' | keyword or punct literal | 'eof'
    text: str
    pos: Pos

    @property
    def int_value(self) -> int:
        return int(self.text)


# A string literal up to its closing quote, or up to its first fault.
_STRING = re.compile(r'"(?:[^"\\\n]|\\[nrt"\\]|\\u(?![dD][89a-fA-F])[0-9a-fA-F]{4})*')

# One match per token or comment, with the blanks before it; only trailing
# blanks match nothing. A faulty string literal falls to `bad`.
_TOKEN = re.compile(r"""[ \t\r]*(?:
    (?P<int>[0-9]+)  # ASCII only: \d also takes "٣"
    | (?P<word>\w+)
    | (?P<punct>=>|==|[{}()\[\]:,.=+\-*<])
    | (?P<comment>\#.*)
    | (?P<str>%s")
    | (?P<bad>[^ \t\r]))
""" % _STRING.pattern, re.VERBOSE)

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}
_ESCAPE = re.compile(r"\\(?:u(....)|(.))")


def _unescape(m: re.Match) -> str:
    return chr(int(m[1], 16)) if m[1] else _ESCAPES[m[2]]


def _string_error(text: str, i: int, line: int) -> ParseError:
    """The first fault of the string literal opening at text[i], where
    `text` is its line plus the newline that follows it, if any."""
    j = _STRING.match(text, i).end()
    if text[j : j + 1] == "\\" and j + 1 < len(text):  # an escape it cannot read
        esc = text[j + 1]
        message = "invalid \\u escape" if esc == "u" else f"invalid escape '\\{esc}'"
        return ParseError([Diagnostic(Pos(line, j + 1), message)])
    return ParseError([Diagnostic(Pos(line, i + 1), "unterminated string literal")])


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__  # skips the NamedTuple constructors' Python frames
    lines = source.split("\n")
    for line, text in enumerate(lines, 1):
        end = len(text)  # the end-of-input column stops at a trailing comment
        for m in _TOKEN.finditer(text):
            kind = m.lastgroup
            word = m[kind]
            col = m.end() - len(word) + 1
            if kind == "word":
                # \w is str.isalnum() or "_"; a word must start alphabetic
                if not (word[0].isalpha() or word[0] == "_"):
                    kind = "bad"
                else:
                    kind = word if word in KEYWORDS else "ident"
            elif kind == "punct":
                kind = word
            elif kind == "str":
                word = word[1:-1]
                if "\\" in word:
                    word = _ESCAPE.sub(_unescape, word)
            elif kind == "comment":
                end = col - 1
                continue
            if kind == "bad":
                if word == '"':
                    raise _string_error(text + "\n" if line < len(lines) else text, col - 1, line)
                raise ParseError([Diagnostic(Pos(line, col), f"unexpected character {word[0]!r}")])
            append(new(Token, (kind, word, new(Pos, (line, col)))))
    append(Token("eof", "", Pos(line, end + 1)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.cur = tokens[0]  # always tokens[i]

    # -- token plumbing --

    def peek(self, offset: int = 1) -> Token:
        return self.tokens[min(self.i + offset, len(self.tokens) - 1)]

    def at(self, kind: str) -> bool:
        return self.cur.kind == kind

    def advance(self) -> Token:
        tok = self.cur
        if tok.kind != "eof":
            self.i += 1
            self.cur = self.tokens[self.i]
        return tok

    def expect(self, *kinds: str) -> Token:
        if self.cur.kind in kinds:
            return self.advance()
        expected = " or ".join(f"'{k}'" for k in kinds)
        found = self.cur.kind if self.cur.kind != "eof" else "end of input"
        raise ParseError([Diagnostic(self.cur.pos, f"syntax error: expected {expected}, found {found}")])

    @staticmethod
    def nest(depth: int, bracket: Token) -> int:
        """The bracket depth inside `bracket`, opened at `depth`; ParseError
        past MAX_NESTING."""
        if depth == MAX_NESTING:
            raise ParseError([Diagnostic(bracket.pos, f"nesting deeper than {MAX_NESTING} levels")])
        return depth + 1

    # -- grammar --

    def program(self) -> list[ast.SurfaceModule]:
        modules = []
        while not self.at("eof"):
            modules.append(self.module())
        if not modules:
            raise ParseError([Diagnostic(self.cur.pos, "syntax error: expected 'module', found end of input")])
        return modules

    def module(self) -> ast.SurfaceModule:
        start = self.expect("module")
        name = self.expect("ident").text
        self.expect("{")
        includes: list[ast.IncludeDecl] = []
        peers: list[ast.PeerDecl] = []
        defs: list[ast.DefDecl] = []
        while not self.at("}"):
            if self.at("include"):
                includes.append(self.include())
            elif self.at("peer"):
                peers.append(self.peer())
            elif self.at("val") or self.at("source"):
                defs.append(self.definition())
            else:
                self.expect("include", "peer", "val", "source", "}")
        self.expect("}")
        mod = ast.SurfaceModule(name, tuple(includes), tuple(peers), tuple(defs), pos=start.pos)
        self._check_unique_names(mod)
        return mod

    def _check_unique_names(self, mod: ast.SurfaceModule) -> None:
        seen: dict[str, Pos] = {}
        diags: list[Diagnostic] = []
        decls = (
            [(i.alias, i.pos) for i in mod.includes]
            + [(p.name, p.pos) for p in mod.peers]
            + [(d.name, d.pos) for d in mod.defs]
        )
        for name, pos in decls:
            if name in seen:
                diags.append(Diagnostic(pos, f"duplicate name '{name}' in module '{mod.name}'"))
            else:
                seen[name] = pos
        if diags:
            raise ParseError(diags)

    def include(self) -> ast.IncludeDecl:
        start = self.expect("include")
        alias = self.expect("ident").text
        self.expect(":")
        module_name = self.expect("ident").text
        return ast.IncludeDecl(alias, module_name, pos=start.pos)

    def peer(self) -> ast.PeerDecl:
        start = self.expect("peer")
        name = self.expect("ident").text
        supers: list[ast.PeerRef] = []
        if self.at(":"):
            self.advance()
            supers.append(self.peer_ref())
            while self.at(","):
                self.advance()
                supers.append(self.peer_ref())
        ties: list[tuple[ast.Multiplicity, ast.PeerRef]] = []
        if self.at("{"):
            self.advance()
            if self.at("tie"):
                self.advance()
                self.expect(":")
                ties.append(self.tie())
                while self.at(","):
                    self.advance()
                    ties.append(self.tie())
            self.expect("}")
        return ast.PeerDecl(name, tuple(supers), tuple(ties), pos=start.pos)

    def tie(self) -> tuple[ast.Multiplicity, ast.PeerRef]:
        tok = self.expect("single", "optional", "multiple")
        return ast.MULTIPLICITY_BY_KEYWORD[tok.kind], self.peer_ref()

    def peer_ref(self) -> ast.PeerRef:
        first = self.expect("ident")
        if self.at(".") and self.peek().kind == "ident":
            self.advance()
            second = self.expect("ident")
            return ast.PeerRef(first.text, second.text, pos=first.pos)
        return ast.PeerRef(None, first.text, pos=first.pos)

    def definition(self) -> ast.DefDecl:
        if self.at("source"):
            start = self.advance()
            name = self.expect("ident").text
            self.expect(":")
            ty = self.type_expr()
            self.expect("on")
            placed = self.peer_ref()
            return ast.DefDecl(name, ast.DefKind.STREAM_SOURCE, ty, placed, None, pos=start.pos)
        start = self.expect("val")
        name = self.expect("ident").text
        self.expect(":")
        ty = self.type_expr()
        self.expect("on")
        placed = self.peer_ref()
        self.expect("=")
        body = self.expr()
        return ast.DefDecl(name, ast.DefKind.VAL, ty, placed, body, pos=start.pos)

    def type_expr(self, depth: int = 0) -> ast.TypeExpr:
        if self.at("("):
            open_tok = self.advance()
            inner = self.nest(depth, open_tok)
            items = [self.type_expr(inner)]
            while self.at(","):
                self.advance()
                items.append(self.type_expr(inner))
            self.expect(")")
            if len(items) < 2:
                raise ParseError([Diagnostic(open_tok.pos, "tuple type needs at least 2 elements")])
            return ast.TTuple(tuple(items))
        tok = self.expect("ident")
        name = tok.text
        if name in ast.PRIMS:
            return ast.PRIMS[name]
        if name in ast.ELEM_TYPES:
            elem = self.type_expr(self.nest(depth, self.expect("[")))
            self.expect("]")
            return ast.ELEM_TYPES[name](elem)
        if name == "Remote":
            self.expect("[")
            peer = self.peer_ref()
            self.expect("]")
            return ast.TRemote(peer)
        raise ParseError([Diagnostic(tok.pos, f"syntax error: unknown type '{name}'")])

    # Expression precedence: comparison < additive < multiplicative < postfix.
    def expr(self, depth: int = 0) -> ast.Expr:
        left = self.additive(depth)
        if self.cur.kind in ("<", "=="):
            op = self.advance()
            right = self.additive(depth)
            return ast.BinOp(op.kind, left, right, pos=op.pos)
        return left

    def additive(self, depth: int) -> ast.Expr:
        left = self.multiplicative(depth)
        while self.cur.kind in ("+", "-"):
            op = self.advance()
            right = self.multiplicative(depth)
            left = ast.BinOp(op.kind, left, right, pos=op.pos)
        return left

    def multiplicative(self, depth: int) -> ast.Expr:
        left = self.postfix(depth)
        while self.at("*"):
            op = self.advance()
            right = self.postfix(depth)
            left = ast.BinOp("*", left, right, pos=op.pos)
        return left

    def postfix(self, depth: int) -> ast.Expr:
        e = self.primary(depth)
        while self.at("."):
            dot = self.cur
            nxt = self.peek()
            if nxt.kind in ("asLocal", "asLocalFromAll") or (
                nxt.kind == "ident" and nxt.text == "map" and self.peek(2).kind == "("
            ):
                if not isinstance(e, ast.Ref):
                    raise ParseError(
                        [Diagnostic(dot.pos, "remote access and stream map apply to named values only")]
                    )
                self.advance()
                method = self.advance()
                if method.kind == "asLocal":
                    e = ast.AsLocal(e, pos=method.pos)
                elif method.kind == "asLocalFromAll":
                    e = ast.AsLocalFromAll(e, pos=method.pos)
                else:
                    inner = self.nest(depth, self.expect("("))
                    var = self.expect("ident").text
                    self.expect("=>")
                    body = self.expr(inner)
                    self.expect(")")
                    e = ast.StreamMap(e, var, body, pos=method.pos)
            else:
                break
        return e

    def primary(self, depth: int) -> ast.Expr:
        tok = self.cur
        if tok.kind == "int":
            self.advance()
            try:
                return ast.IntLit(tok.int_value, pos=tok.pos)
            except ValueError:  # more digits than int() converts
                raise ParseError([Diagnostic(tok.pos, "integer literal is too long")]) from None
        if tok.kind in ("true", "false"):
            self.advance()
            return ast.BoolLit(tok.kind == "true", pos=tok.pos)
        if tok.kind == "str":
            self.advance()
            return ast.StrLit(tok.text, pos=tok.pos)
        if tok.kind == "ident":
            self.advance()
            if self.at(".") and self.peek().kind == "ident" and not (
                self.peek().text == "map" and self.peek(2).kind == "("
            ):
                self.advance()
                member = self.expect("ident")
                return ast.Ref(tok.text, member.text, pos=tok.pos)
            return ast.Ref(None, tok.text, pos=tok.pos)
        if tok.kind == "(":
            self.advance()
            inner = self.nest(depth, tok)
            items = [self.expr(inner)]
            while self.at(","):
                self.advance()
                items.append(self.expr(inner))
            self.expect(")")
            if len(items) == 1:
                return items[0]
            return ast.TupleExpr(tuple(items), pos=tok.pos)
        raise ParseError([Diagnostic(tok.pos, f"syntax error: expected an expression, found '{tok.kind}'")])


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
    ty = p.type_expr()
    p.expect("eof")
    return ty
