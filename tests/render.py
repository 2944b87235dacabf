"""Pretty-printer for surface modules; inverse of the parser on well-formed ASTs."""

from __future__ import annotations

from locic import ast

# Expression precedence levels, matching the parser.
_CMP, _ADD, _MUL, _POSTFIX = 0, 1, 2, 3
_OP_LEVEL = {"<": _CMP, "==": _CMP, "+": _ADD, "-": _ADD, "*": _MUL}


def _escape(s: str) -> str:
    out = []
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ch == "\r":
            out.append("\\r")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return "".join(out)


def render_expr(e: ast.Expr, level: int = _CMP) -> str:
    if isinstance(e, ast.IntLit):
        return str(e.value)
    if isinstance(e, ast.BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, ast.StrLit):
        return f'"{_escape(e.value)}"'
    if isinstance(e, ast.Ref):
        return str(e)
    if isinstance(e, ast.BinOp):
        mine = _OP_LEVEL[e.op]
        # comparison does not chain, so both operands need additive level
        left = render_expr(e.left, mine if mine > _CMP else _ADD)
        right = render_expr(e.right, mine + 1)
        text = f"{left} {e.op} {right}"
        return f"({text})" if mine < level else text
    if isinstance(e, ast.TupleExpr):
        return "(" + ", ".join(render_expr(i) for i in e.items) + ")"
    if isinstance(e, ast.AsLocal):
        return f"{e.target}.asLocal"
    if isinstance(e, ast.AsLocalFromAll):
        return f"{e.target}.asLocalFromAll"
    if isinstance(e, ast.StreamMap):
        return f"{e.source}.map({e.var} => {render_expr(e.body)})"
    raise TypeError(f"unknown expression node {e!r}")


def render_module(m: ast.SurfaceModule) -> str:
    lines = [f"module {m.name} {{"]
    for inc in m.includes:
        lines.append(f"  include {inc.alias}: {inc.module_name}")
    for p in m.peers:
        head = f"  peer {p.name}"
        if p.supers:
            head += " : " + ", ".join(str(s) for s in p.supers)
        if p.ties:
            ties = ", ".join(f"{mult.keyword} {ref}" for mult, ref in p.ties)
            head += f" {{ tie: {ties} }}"
        lines.append(head)
    for d in m.defs:
        ty = str(d.surface_type)
        if d.kind is ast.DefKind.STREAM_SOURCE:
            lines.append(f"  source {d.name}: {ty} on {d.placed_on}")
        else:
            lines.append(f"  val {d.name}: {ty} on {d.placed_on} = {render_expr(d.body)}")
    lines.append("}")
    return "\n".join(lines) + "\n"
