"""Lexer and recursive-descent parser for multitier module files (.loci)."""

from __future__ import annotations

from dataclasses import dataclass

from . import ast
from .diagnostics import Diagnostic, Pos, SourceError


class ParseError(SourceError):
    pass


KEYWORDS = {
    "module", "include", "peer", "tie", "val", "source", "on",
    "single", "optional", "multiple", "true", "false",
    "asLocal", "asLocalFromAll",
}

PUNCT = ("=>", "==", "{", "}", "(", ")", "[", "]", ":", ",", ".", "=", "+", "-", "*", "<")


@dataclass(frozen=True)
class Token:
    kind: str  # 'ident' | 'int' | 'str' | keyword or punct literal | 'eof'
    text: str
    pos: Pos

    @property
    def int_value(self) -> int:
        return int(self.text)


_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(source)

    def err(msg: str, pos: Pos):
        raise ParseError([Diagnostic(pos, msg)])

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
        if "0" <= c <= "9":  # ASCII only: str.isdigit also takes "²" and "٣"
            j = i
            while j < n and "0" <= source[j] <= "9":
                j += 1
            tokens.append(Token("int", source[i:j], pos))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            kind = word if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, pos))
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
                                or 0xD800 <= int(hexpart, 16) <= 0xDFFF):  # a lone surrogate
                            err("invalid \\u escape", Pos(line, col + j - i))
                        out.append(chr(int(hexpart, 16)))
                        j += 6
                    else:
                        err(f"invalid escape '\\{esc}'", Pos(line, col + j - i))
                else:
                    out.append(ch)
                    j += 1
            tokens.append(Token("str", "".join(out), pos))
            col += j - i
            i = j
            continue
        for p in PUNCT:
            if source.startswith(p, i):
                tokens.append(Token(p, p, pos))
                i += len(p)
                col += len(p)
                break
        else:
            err(f"unexpected character {c!r}", pos)
    tokens.append(Token("eof", "", Pos(line, col)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    # -- token plumbing --

    @property
    def cur(self) -> Token:
        return self.tokens[self.i]

    def peek(self, offset: int = 1) -> Token:
        return self.tokens[min(self.i + offset, len(self.tokens) - 1)]

    def at(self, kind: str) -> bool:
        return self.cur.kind == kind

    def advance(self) -> Token:
        tok = self.cur
        if tok.kind != "eof":
            self.i += 1
        return tok

    def expect(self, *kinds: str) -> Token:
        if self.cur.kind in kinds:
            return self.advance()
        expected = " or ".join(f"'{k}'" for k in kinds)
        found = self.cur.kind if self.cur.kind != "eof" else "end of input"
        raise ParseError([Diagnostic(self.cur.pos, f"syntax error: expected {expected}, found {found}")])

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

    def type_expr(self) -> ast.TypeExpr:
        if self.at("("):
            open_tok = self.advance()
            items = [self.type_expr()]
            while self.at(","):
                self.advance()
                items.append(self.type_expr())
            self.expect(")")
            if len(items) < 2:
                raise ParseError([Diagnostic(open_tok.pos, "tuple type needs at least 2 elements")])
            return ast.TTuple(tuple(items))
        tok = self.expect("ident")
        name = tok.text
        if name in ("Int", "Bool", "Str", "Unit"):
            return ast.TPrim(name)
        if name in ("Stream", "Future", "Option", "Seq"):
            self.expect("[")
            elem = self.type_expr()
            self.expect("]")
            ctor = {"Stream": ast.TStream, "Future": ast.TFuture, "Option": ast.TOption, "Seq": ast.TSeq}[name]
            return ctor(elem)
        if name == "Remote":
            self.expect("[")
            peer = self.peer_ref()
            self.expect("]")
            return ast.TRemote(peer)
        raise ParseError([Diagnostic(tok.pos, f"syntax error: unknown type '{name}'")])

    # Expression precedence: comparison < additive < multiplicative < postfix.
    def expr(self) -> ast.Expr:
        left = self.additive()
        if self.cur.kind in ("<", "=="):
            op = self.advance()
            right = self.additive()
            return ast.BinOp(op.kind, left, right, pos=op.pos)
        return left

    def additive(self) -> ast.Expr:
        left = self.multiplicative()
        while self.cur.kind in ("+", "-"):
            op = self.advance()
            right = self.multiplicative()
            left = ast.BinOp(op.kind, left, right, pos=op.pos)
        return left

    def multiplicative(self) -> ast.Expr:
        left = self.postfix()
        while self.at("*"):
            op = self.advance()
            right = self.postfix()
            left = ast.BinOp("*", left, right, pos=op.pos)
        return left

    def postfix(self) -> ast.Expr:
        e = self.primary()
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
                    self.expect("(")
                    var = self.expect("ident").text
                    self.expect("=>")
                    body = self.expr()
                    self.expect(")")
                    e = ast.StreamMap(e, var, body, pos=method.pos)
            else:
                break
        return e

    def primary(self) -> ast.Expr:
        tok = self.cur
        if tok.kind == "int":
            self.advance()
            return ast.IntLit(tok.int_value, pos=tok.pos)
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
            items = [self.expr()]
            while self.at(","):
                self.advance()
                items.append(self.expr())
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


def parse_module(source: str) -> ast.SurfaceModule:
    """Parse a source containing exactly one module."""
    modules = parse_program(source)
    if len(modules) != 1:
        raise ParseError([Diagnostic(modules[1].pos, "expected a single module")])
    return modules[0]
