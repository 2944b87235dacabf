"""Placement-aware type checking.

Every definition body is typed under the peer it is placed on. Remote
accesses are typed from the effective tie between the accessing and the
accessed peer: a single tie yields a future, an optional tie an optional
future, a multiple tie a sequence of (remote reference, future) pairs.
Event streams accessed over a single tie stay streams. Bare references to
values placed elsewhere are rejected; remote access must be explicit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ast
from .arch import Architecture, EffectiveTies, FlatDef, PeerId, is_subpeer
from .ast import Multiplicity
from .diagnostics import UNKNOWN_POS, Diagnostic, Pos


# --- semantic types ---------------------------------------------------

@dataclass(frozen=True)
class SemType:
    pass


@dataclass(frozen=True)
class PrimT(SemType):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class TupleT(SemType):
    items: tuple[SemType, ...]

    def __str__(self) -> str:
        return "(" + ", ".join(str(i) for i in self.items) + ")"


@dataclass(frozen=True)
class StreamT(SemType):
    elem: SemType

    def __str__(self) -> str:
        return f"Stream[{self.elem}]"


@dataclass(frozen=True)
class FutureT(SemType):
    elem: SemType

    def __str__(self) -> str:
        return f"Future[{self.elem}]"


@dataclass(frozen=True)
class OptionT(SemType):
    elem: SemType

    def __str__(self) -> str:
        return f"Option[{self.elem}]"


@dataclass(frozen=True)
class SeqT(SemType):
    elem: SemType

    def __str__(self) -> str:
        return f"Seq[{self.elem}]"


@dataclass(frozen=True)
class RemoteT(SemType):
    peer: PeerId

    def __str__(self) -> str:
        return f"Remote[{self.peer}]"


@dataclass(frozen=True)
class ErrorT(SemType):
    """Poison type: suppresses follow-up diagnostics."""

    def __str__(self) -> str:
        return "<error>"


INT_T = PrimT("Int")
BOOL_T = PrimT("Bool")
STR_T = PrimT("Str")
UNIT_T = PrimT("Unit")
ERROR_T = ErrorT()


def pair_of(a: SemType, b: SemType) -> TupleT:
    """The pair shape used by asLocalFromAll results; identical to a 2-tuple."""
    return TupleT((a, b))


def is_plain_data(t: SemType) -> bool:
    """Types that denote transferable data values (no streams, futures, remotes)."""
    if isinstance(t, PrimT):
        return True
    if isinstance(t, TupleT):
        return all(is_plain_data(i) for i in t.items)
    return False


class RemoteAccessShapeError(Exception):
    pass


def type_remote_access(target: SemType, mult: Multiplicity, target_peer: PeerId,
                       from_all: bool = False) -> SemType:
    """Local type of a remote access, as a function of the target type and tie multiplicity.

    asLocal covers single and optional ties; asLocalFromAll covers multiple ties.
    Streams are remote-accessible over single ties only and keep their type.
    """
    if isinstance(target, StreamT):
        if from_all:
            raise RemoteAccessShapeError("asLocalFromAll cannot be applied to a stream")
        if mult is not Multiplicity.SINGLE:
            raise RemoteAccessShapeError(
                f"remote access to a stream requires a single tie (found {mult.keyword})")
        return target
    if mult is Multiplicity.MULTIPLE:
        if not from_all:
            raise RemoteAccessShapeError(
                "asLocal cannot be used over a multiple tie; use asLocalFromAll")
        return SeqT(pair_of(RemoteT(target_peer), FutureT(target)))
    if from_all:
        raise RemoteAccessShapeError(
            f"asLocalFromAll requires a multiple tie (found {mult.keyword})")
    if mult is Multiplicity.SINGLE:
        return FutureT(target)
    return OptionT(FutureT(target))


# --- typed expressions ------------------------------------------------

@dataclass(frozen=True)
class TypedExpr:
    pass


@dataclass(frozen=True)
class TIntLit(TypedExpr):
    value: int
    ty: SemType = INT_T


@dataclass(frozen=True)
class TBoolLit(TypedExpr):
    value: bool
    ty: SemType = BOOL_T


@dataclass(frozen=True)
class TStrLit(TypedExpr):
    value: str
    ty: SemType = STR_T


@dataclass(frozen=True)
class TRef(TypedExpr):
    name: str  # qualified definition name, or a lambda variable
    is_var: bool
    ty: SemType


@dataclass(frozen=True)
class TBinOp(TypedExpr):
    op: str
    left: TypedExpr
    right: TypedExpr
    ty: SemType


@dataclass(frozen=True)
class TTupleExpr(TypedExpr):
    items: tuple[TypedExpr, ...]
    ty: SemType


@dataclass(frozen=True)
class TRemoteAccess(TypedExpr):
    """An asLocal / asLocalFromAll site, before splitting rewrites it."""

    site_id: str
    target: str  # qualified definition name
    from_peer: PeerId
    to_peer: PeerId
    mult: Multiplicity
    from_all: bool
    ty: SemType


@dataclass(frozen=True)
class TStreamMap(TypedExpr):
    source: TypedExpr
    var: str
    body: TypedExpr
    ty: SemType


@dataclass(frozen=True)
class TStreamSource(TypedExpr):
    """Body of a `source` definition: a fresh locally-fired stream."""

    ty: SemType


@dataclass(frozen=True)
class TypedDef:
    name: str
    placed_on: PeerId
    declared_type: SemType
    body: TypedExpr
    kind: ast.DefKind
    pos: Pos = field(compare=False, default=UNKNOWN_POS)


@dataclass(frozen=True)
class RemoteAccessRecord:
    site_id: str
    target: str
    from_peer: PeerId
    to_peer: PeerId
    mult: Multiplicity


@dataclass
class TypedModule:
    arch: Architecture
    ties: EffectiveTies
    defs: list[TypedDef]
    remote_accesses: list[RemoteAccessRecord]
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return not self.diagnostics


# --- the checker ------------------------------------------------------

class _DefChecker:
    def __init__(self, module: "_ModuleContext", flat: FlatDef, peer: PeerId):
        self.m = module
        self.flat = flat
        self.peer = peer
        self.scope = flat.include
        self.site_count = 0
        self.vars: dict[str, SemType] = {}

    def diag(self, pos: Pos, message: str) -> None:
        self.m.diagnostics.append(Diagnostic(pos, message, peer=str(self.peer)))

    def qualify(self, ref: ast.Ref) -> str:
        if ref.qualifier is not None:
            return f"{ref.qualifier}.{ref.name}"
        if self.scope is not None:
            return f"{self.scope}.{ref.name}"
        return ref.name

    def check(self, e: ast.Expr) -> TypedExpr:
        if isinstance(e, ast.IntLit):
            return TIntLit(e.value)
        if isinstance(e, ast.BoolLit):
            return TBoolLit(e.value)
        if isinstance(e, ast.StrLit):
            return TStrLit(e.value)
        if isinstance(e, ast.Ref):
            return self.check_ref(e)
        if isinstance(e, ast.BinOp):
            return self.check_binop(e)
        if isinstance(e, ast.TupleExpr):
            items = tuple(self.check(i) for i in e.items)
            if any(isinstance(i.ty, ErrorT) for i in items):
                return TTupleExpr(items, ERROR_T)
            return TTupleExpr(items, TupleT(tuple(i.ty for i in items)))
        if isinstance(e, ast.AsLocal):
            return self.check_remote(e.target, e.pos, from_all=False)
        if isinstance(e, ast.AsLocalFromAll):
            return self.check_remote(e.target, e.pos, from_all=True)
        if isinstance(e, ast.StreamMap):
            return self.check_stream_map(e)
        raise TypeError(f"unknown expression node {e!r}")

    def check_ref(self, e: ast.Ref) -> TypedExpr:
        if e.qualifier is None and e.name in self.vars:
            return TRef(e.name, True, self.vars[e.name])
        name = self.qualify(e)
        target = self.m.def_types.get(name)
        if target is None:
            self.diag(e.pos, f"unknown value '{e}'")
            return TRef(name, False, ERROR_T)
        target_type, target_peer = target
        if target_peer not in self.m.arch.closures[self.peer]:
            self.diag(e.pos, f"remote access must be explicit: '{e}' is placed on "
                             f"{target_peer}, use asLocal")
            return TRef(name, False, ERROR_T)
        return TRef(name, False, target_type)

    def check_binop(self, e: ast.BinOp) -> TypedExpr:
        left = self.check(e.left)
        right = self.check(e.right)
        if isinstance(left.ty, ErrorT) or isinstance(right.ty, ErrorT):
            return TBinOp(e.op, left, right, ERROR_T)
        if e.op in ("+", "-", "*", "<"):
            if left.ty != INT_T or right.ty != INT_T:
                self.diag(e.pos, f"operator '{e.op}' requires Int operands "
                                 f"(found {left.ty} and {right.ty})")
                return TBinOp(e.op, left, right, ERROR_T)
            return TBinOp(e.op, left, right, BOOL_T if e.op == "<" else INT_T)
        # equality
        if left.ty != right.ty or not is_plain_data(left.ty):
            self.diag(e.pos, f"operator '==' requires two data values of the same type "
                             f"(found {left.ty} and {right.ty})")
            return TBinOp(e.op, left, right, ERROR_T)
        return TBinOp(e.op, left, right, BOOL_T)

    def check_remote(self, target_ref: ast.Ref, pos: Pos, from_all: bool) -> TypedExpr:
        name = self.qualify(target_ref)
        target = self.m.def_types.get(name)
        if target is None:
            self.diag(target_ref.pos, f"unknown value '{target_ref}'")
            return TRef(name, False, ERROR_T)
        target_type, target_peer = target
        mult = self.m.ties.get((self.peer, target_peer))
        if mult is None:
            self.diag(pos, f"no tie from {self.peer} to {target_peer}")
            return TRef(name, False, ERROR_T)
        try:
            ty = type_remote_access(target_type, mult, target_peer, from_all)
        except RemoteAccessShapeError as err:
            self.diag(pos, str(err))
            return TRef(name, False, ERROR_T)
        self.site_count += 1
        site_id = f"{self.flat.name}#{self.site_count}"
        self.m.remote_accesses.append(
            RemoteAccessRecord(site_id, name, self.peer, target_peer, mult))
        return TRemoteAccess(site_id, name, self.peer, target_peer, mult, from_all, ty)

    def check_stream_map(self, e: ast.StreamMap) -> TypedExpr:
        source = self.check_ref(e.source)
        if isinstance(source.ty, ErrorT):
            return TStreamMap(source, e.var, TRef(e.var, True, ERROR_T), ERROR_T)
        if not isinstance(source.ty, StreamT):
            self.diag(e.pos, f"'.map' requires a stream (found {source.ty})")
            return TStreamMap(source, e.var, TRef(e.var, True, ERROR_T), ERROR_T)
        outer = self.vars.get(e.var)
        self.vars[e.var] = source.ty.elem
        body = self.check(e.body)
        if outer is None:
            del self.vars[e.var]
        else:
            self.vars[e.var] = outer
        ty = ERROR_T if isinstance(body.ty, ErrorT) else StreamT(body.ty)
        return TStreamMap(source, e.var, body, ty)


class _ModuleContext:
    def __init__(self, arch: Architecture, ties: EffectiveTies):
        self.arch = arch
        self.ties = ties
        self.diagnostics: list[Diagnostic] = []
        self.remote_accesses: list[RemoteAccessRecord] = []
        self.def_types: dict[str, tuple[SemType, PeerId]] = {}


def resolve_type(t: ast.TypeExpr, arch: Architecture, scope: str | None,
                 diags: list[Diagnostic], peer: str | None = None) -> SemType:
    if isinstance(t, ast.TPrim):
        return PrimT(t.name)
    if isinstance(t, ast.TTuple):
        return TupleT(tuple(resolve_type(i, arch, scope, diags, peer) for i in t.items))
    if isinstance(t, ast.TStream):
        return StreamT(resolve_type(t.elem, arch, scope, diags, peer))
    if isinstance(t, ast.TFuture):
        return FutureT(resolve_type(t.elem, arch, scope, diags, peer))
    if isinstance(t, ast.TOption):
        return OptionT(resolve_type(t.elem, arch, scope, diags, peer))
    if isinstance(t, ast.TSeq):
        return SeqT(resolve_type(t.elem, arch, scope, diags, peer))
    if isinstance(t, ast.TRemote):
        ref = t.peer
        if ref.qualifier is not None:
            pid = PeerId((ref.qualifier,), ref.name)
        elif scope is not None:
            pid = PeerId((scope,), ref.name)
        else:
            pid = PeerId((), ref.name)
        if pid not in arch.peers:
            diags.append(Diagnostic(ref.pos, f"unknown peer '{ref}' in type", peer=peer))
            return ERROR_T
        return RemoteT(pid)
    raise TypeError(f"unknown type node {t!r}")


def check_module(m: ast.SurfaceModule, a: Architecture, t: EffectiveTies) -> TypedModule:
    """Check all definitions; diagnostics are aggregated, not raised."""
    ctx = _ModuleContext(a, t)

    for flat in a.defs:
        peer = a.placements.get(flat.name)
        if peer is None:
            continue
        declared = resolve_type(flat.decl.surface_type, a, flat.include,
                                ctx.diagnostics, peer=str(peer))
        ctx.def_types[flat.name] = (declared, peer)

    typed_defs: list[TypedDef] = []
    for flat in a.defs:
        peer = a.placements.get(flat.name)
        if peer is None:
            continue
        declared, _ = ctx.def_types[flat.name]
        decl = flat.decl
        if decl.kind is ast.DefKind.STREAM_SOURCE:
            if not isinstance(declared, StreamT) and not isinstance(declared, ErrorT):
                ctx.diagnostics.append(Diagnostic(
                    decl.pos, f"source definition must have a stream type (found {declared})",
                    peer=str(peer)))
                body: TypedExpr = TStreamSource(ERROR_T)
            else:
                body = TStreamSource(declared)
        else:
            checker = _DefChecker(ctx, flat, peer)
            body = checker.check(decl.body)
            if not isinstance(body.ty, ErrorT) and not isinstance(declared, ErrorT) \
                    and body.ty != declared:
                ctx.diagnostics.append(Diagnostic(
                    decl.pos, f"declared type {declared} does not match body type {body.ty}",
                    peer=str(peer)))
        typed_defs.append(TypedDef(flat.name, peer, declared, body, decl.kind, pos=decl.pos))

    return TypedModule(a, t, typed_defs, ctx.remote_accesses, ctx.diagnostics)


def local_access_rule(a: Architecture, body_peer: PeerId, target_peer: PeerId) -> bool:
    """A bare reference is legal iff the target's peer is the body's peer or a super-peer."""
    return is_subpeer(a, body_peer, target_peer)
