"""Surface AST for multitier module files.

Nodes carry their source position for diagnostics, but positions are
excluded from equality so that parse/render round-trips compare equal.
The parser builds each `Pos` from a token's offset and the source's line
starts, and only for the nodes that have a `pos` field (type nodes have none).
"""

from __future__ import annotations

import enum

from .diagnostics import UNKNOWN_POS, Pos
from .records import record, uncompared


class Multiplicity(enum.IntEnum):
    """Tie multiplicity. Lower value = more specific; min() resolves conflicts."""

    SINGLE = 0
    OPTIONAL = 1
    MULTIPLE = 2

    keyword: str  # its source keyword, "single", "optional" or "multiple"


for _m in Multiplicity:
    _m.keyword = _m.name.lower()
MULTIPLICITY_BY_KEYWORD = {m.keyword: m for m in Multiplicity}


@record
class PeerRef:
    """Reference to a peer, optionally qualified by an include alias."""

    qualifier: str | None
    name: str
    pos: Pos = uncompared(UNKNOWN_POS)

    def __str__(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


# --- types ------------------------------------------------------------
#
# The one type language: the parser builds these nodes, the checker types
# with them, and the codecs are built from them. `str(t)` is a type's one
# text, in diagnostics, value signatures and codec ids alike.

class TypeExpr:
    pass


@record
class TPrim(TypeExpr):
    name: str  # Int | Bool | Str | Unit

    def __str__(self) -> str:
        return self.name


@record
class TTuple(TypeExpr):
    items: tuple[TypeExpr, ...]  # at least 2

    def __str__(self) -> str:
        return "(" + ", ".join(str(i) for i in self.items) + ")"


class TElem(TypeExpr):
    """A type constructor over one element type, printed `Kind[elem]`."""

    elem: TypeExpr

    def __str__(self) -> str:
        return f"{self.kind}[{self.elem}]"


@record
class TStream(TElem):
    kind = "Stream"


@record
class TFuture(TElem):
    kind = "Future"


@record
class TOption(TElem):
    kind = "Option"


@record
class TSeq(TElem):
    kind = "Seq"


@record
class TRemote(TypeExpr):
    peer: PeerRef

    def __str__(self) -> str:
        return f"Remote[{self.peer}]"


INT = TPrim("Int")
BOOL = TPrim("Bool")
STR = TPrim("Str")
UNIT = TPrim("Unit")
PRIMS = {t.name: t for t in (INT, BOOL, STR, UNIT)}
ELEM_TYPES = {c.kind: c for c in (TStream, TFuture, TOption, TSeq)}


def non_data_part(t: TypeExpr) -> TypeExpr | None:
    """The innermost part of `t` that is not data, or None if `t` is data.
    Data is a primitive or a tuple of data: the types that have a codec and
    that `==` compares."""
    children = t.items if isinstance(t, TTuple) else (t.elem,) if isinstance(t, TElem) else ()
    for child in children:
        found = non_data_part(child)
        if found is not None:
            return found
    return None if isinstance(t, (TPrim, TTuple)) else t


# --- expressions ------------------------------------------------------

class Expr:
    pass


# A literal's type is its class's `ty`; typed bodies keep these nodes.

@record
class IntLit(Expr):
    value: int
    pos: Pos = uncompared(UNKNOWN_POS)
    ty = INT


@record
class BoolLit(Expr):
    value: bool
    pos: Pos = uncompared(UNKNOWN_POS)
    ty = BOOL


@record
class StrLit(Expr):
    value: str
    pos: Pos = uncompared(UNKNOWN_POS)
    ty = STR


LITERALS = (IntLit, BoolLit, StrLit)


@record
class Ref(Expr):
    qualifier: str | None
    name: str
    pos: Pos = uncompared(UNKNOWN_POS)

    def __str__(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


BINOPS = ("+", "-", "*", "<", "==")


@record
class BinOp(Expr):
    op: str  # one of BINOPS
    left: Expr
    right: Expr
    pos: Pos = uncompared(UNKNOWN_POS)


@record
class TupleExpr(Expr):
    items: tuple[Expr, ...]  # at least 2
    pos: Pos = uncompared(UNKNOWN_POS)


@record
class AsLocal(Expr):
    target: Ref
    pos: Pos = uncompared(UNKNOWN_POS)


@record
class AsLocalFromAll(Expr):
    target: Ref
    pos: Pos = uncompared(UNKNOWN_POS)


@record
class StreamMap(Expr):
    source: Ref
    var: str
    body: Expr
    pos: Pos = uncompared(UNKNOWN_POS)


# --- declarations -----------------------------------------------------

@record
class IncludeDecl:
    alias: str
    module_name: str
    pos: Pos = uncompared(UNKNOWN_POS)


@record
class PeerDecl:
    name: str
    supers: tuple[PeerRef, ...]
    ties: tuple[tuple[Multiplicity, PeerRef], ...]
    pos: Pos = uncompared(UNKNOWN_POS)


class DefKind(enum.Enum):
    VAL = "val"
    STREAM_SOURCE = "source"


@record
class DefDecl:
    name: str
    kind: DefKind
    surface_type: TypeExpr
    placed_on: PeerRef
    body: Expr | None  # None only for stream sources
    pos: Pos = uncompared(UNKNOWN_POS)


@record
class SurfaceModule:
    """One multitier module; defs keep their source order."""

    name: str
    includes: tuple[IncludeDecl, ...]
    peers: tuple[PeerDecl, ...]
    defs: tuple[DefDecl, ...]
    pos: Pos = uncompared(UNKNOWN_POS)
