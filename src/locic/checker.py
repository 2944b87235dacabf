"""Placement-aware type checking.

Every definition body is typed under the peer it is placed on. Remote
accesses are typed from the effective tie between the accessing and the
accessed peer: a single tie yields a future, an optional tie an optional
future, a multiple tie a sequence of (remote reference, future) pairs.
Event streams accessed over a single tie stay streams. Bare references to
values placed elsewhere are rejected; remote access must be explicit.

Typed bodies keep the parser's literal nodes; the checker builds a new node
only where it adds a type or a resolved name. Each definition gets its value
signature and, where its type can be transmitted, one `AccessPlan`: the slot
that backs it, whether it is pulled or streamed, and the codec of its value
(of each element, for a stream). A remote access is typed into its final
`RemoteCall`, which holds the plan of the value it reaches, so the bodies
are what a peer runs. A module whose remote access reaches a value with no
codec checks clean; the splitter refuses it (`TypedModule.unsendable`).
"""

from __future__ import annotations

from . import ast
from .arch import Architecture, EffectiveTies, FlatDef, PeerId, peer_id_of
from .ast import Multiplicity
from .codecs import Codec
from .diagnostics import Diagnostic, Pos
from .records import record
from .sigs import ModuleSig, ValueSig


# --- semantic types ---------------------------------------------------
#
# The checker types with the AST's type nodes. Only a resolved remote
# reference (which names a `PeerId`) and the poison type are its own.

@record
class RemoteT(ast.TypeExpr):
    peer: PeerId

    def __str__(self) -> str:
        return f"Remote[{self.peer}]"


@record
class ErrorT(ast.TypeExpr):
    """Poison type: suppresses follow-up diagnostics."""

    def __str__(self) -> str:
        return "<error>"


ERROR_T = ErrorT()


class RemoteAccessShapeError(Exception):
    pass


def type_remote_access(target: ast.TypeExpr, mult: Multiplicity, target_peer: PeerId,
                       from_all: bool = False) -> ast.TypeExpr:
    """Local type of a remote access, as a function of the target type and tie multiplicity.

    asLocal covers single and optional ties; asLocalFromAll covers multiple ties.
    Streams are remote-accessible over single ties only and keep their type.
    """
    if isinstance(target, ast.TStream):
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
        return ast.TSeq(ast.TTuple((RemoteT(target_peer), ast.TFuture(target))))
    if from_all:
        raise RemoteAccessShapeError(
            f"asLocalFromAll requires a multiple tie (found {mult.keyword})")
    if mult is Multiplicity.SINGLE:
        return ast.TFuture(target)
    return ast.TOption(ast.TFuture(target))


# --- typed expressions ------------------------------------------------

class TypedExpr:
    """A typed expression node. A literal keeps the parser's node
    (`ast.LITERALS`), whose class gives its type."""


@record
class TRef(TypedExpr):
    name: str  # qualified definition name, or a lambda variable
    is_var: bool
    ty: ast.TypeExpr


@record
class TBinOp(TypedExpr):
    op: str
    left: TypedExpr
    right: TypedExpr
    ty: ast.TypeExpr


@record
class TTupleExpr(TypedExpr):
    items: tuple[TypedExpr, ...]
    ty: ast.TypeExpr


PULL, STREAM = "pull", "stream"


@record
class AccessPlan:
    """How one definition is transmitted."""

    slot: str  # qualified definition name backing this entry
    mode: str  # PULL | STREAM
    codec: Codec  # of the value, or of each element of a stream


def codec_of(t: ast.TypeExpr) -> Codec | None:
    """The codec for a data type, or None if the type is not serializable."""
    return Codec(t) if ast.non_data_part(t) is None else None


def access_plan(def_name: str, declared: ast.TypeExpr) -> AccessPlan | None:
    """The plan for remote access to a definition, or None if its value (each
    element, for a stream) has no codec."""
    stream = isinstance(declared, ast.TStream)
    codec = codec_of(declared.elem if stream else declared)
    return None if codec is None else AccessPlan(def_name, STREAM if stream else PULL, codec)


@record
class RemoteCall(TypedExpr):
    """An asLocal / asLocalFromAll site: the value's signature, the peer that
    serves it, and its access plan there (None if it has no codec)."""

    value_sig: ValueSig
    target_peer_id: PeerId
    mult: Multiplicity
    plan: AccessPlan | None
    ty: ast.TypeExpr


@record
class TStreamMap(TypedExpr):
    source: TypedExpr
    var: str
    body: TypedExpr
    ty: ast.TypeExpr


@record
class TStreamSource(TypedExpr):
    """Body of a `source` definition: a fresh locally-fired stream."""

    ty: ast.TypeExpr


@record
class TypedDef:
    name: str
    placed_on: PeerId
    declared_type: ast.TypeExpr
    body: TypedExpr
    sig: ValueSig
    plan: AccessPlan | None  # None: the value has no codec


@record
class TypedModule:
    arch: Architecture
    defs: list[TypedDef]
    diagnostics: list[Diagnostic]
    # (name, declared type) of each remote access target with no codec, in
    # source order
    unsendable: list[tuple[str, ast.TypeExpr]]


# --- the checker ------------------------------------------------------

class _DefChecker:
    def __init__(self, module: "_ModuleContext", flat: FlatDef, peer: PeerId):
        self.m = module
        self.peer = peer
        self.scope = flat.include
        self.vars: dict[str, ast.TypeExpr] = {}

    def diag(self, pos: Pos, message: str) -> None:
        self.m.diagnostics.append(Diagnostic(pos, message, peer=str(self.peer)))

    def qualify(self, ref: ast.Ref) -> str:
        if ref.qualifier is not None:
            return f"{ref.qualifier}.{ref.name}"
        if self.scope is not None:
            return f"{self.scope}.{ref.name}"
        return ref.name

    def check(self, e: ast.Expr) -> TypedExpr:
        if isinstance(e, ast.LITERALS):
            return e
        if isinstance(e, ast.Ref):
            return self.check_ref(e)
        if isinstance(e, ast.BinOp):
            return self.check_binop(e)
        if isinstance(e, ast.TupleExpr):
            items = tuple(self.check(i) for i in e.items)
            if any(isinstance(i.ty, ErrorT) for i in items):
                return TTupleExpr(items, ERROR_T)
            return TTupleExpr(items, ast.TTuple(tuple(i.ty for i in items)))
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
        target_type, target_peer, _, _ = target
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
            if left.ty != ast.INT or right.ty != ast.INT:
                self.diag(e.pos, f"operator '{e.op}' requires Int operands "
                                 f"(found {left.ty} and {right.ty})")
                return TBinOp(e.op, left, right, ERROR_T)
            return TBinOp(e.op, left, right, ast.BOOL if e.op == "<" else ast.INT)
        # equality
        if left.ty != right.ty or ast.non_data_part(left.ty) is not None:
            self.diag(e.pos, f"operator '==' requires two data values of the same type "
                             f"(found {left.ty} and {right.ty})")
            return TBinOp(e.op, left, right, ERROR_T)
        return TBinOp(e.op, left, right, ast.BOOL)

    def check_remote(self, target_ref: ast.Ref, pos: Pos, from_all: bool) -> TypedExpr:
        name = self.qualify(target_ref)
        target = self.m.def_types.get(name)
        if target is None:
            self.diag(target_ref.pos, f"unknown value '{target_ref}'")
            return TRef(name, False, ERROR_T)
        target_type, target_peer, sig, plan = target
        mult = self.m.ties.get((self.peer, target_peer))
        if mult is None:
            self.diag(pos, f"no tie from {self.peer} to {target_peer}")
            return TRef(name, False, ERROR_T)
        try:
            ty = type_remote_access(target_type, mult, target_peer, from_all)
        except RemoteAccessShapeError as err:
            self.diag(pos, str(err))
            return TRef(name, False, ERROR_T)
        if plan is None:
            self.m.unsendable.append((name, target_type))
        return RemoteCall(sig, target_peer, mult, plan, ty)

    def check_stream_map(self, e: ast.StreamMap) -> TypedExpr:
        source = self.check_ref(e.source)
        if isinstance(source.ty, ErrorT):
            return TStreamMap(source, e.var, TRef(e.var, True, ERROR_T), ERROR_T)
        if not isinstance(source.ty, ast.TStream):
            self.diag(e.pos, f"'.map' requires a stream (found {source.ty})")
            return TStreamMap(source, e.var, TRef(e.var, True, ERROR_T), ERROR_T)
        outer = self.vars.get(e.var)
        self.vars[e.var] = source.ty.elem
        body = self.check(e.body)
        if outer is None:
            del self.vars[e.var]
        else:
            self.vars[e.var] = outer
        ty = ERROR_T if isinstance(body.ty, ErrorT) else ast.TStream(body.ty)
        return TStreamMap(source, e.var, body, ty)


class _ModuleContext:
    def __init__(self, arch: Architecture, ties: EffectiveTies):
        self.arch = arch
        self.ties = ties
        self.diagnostics: list[Diagnostic] = []
        # name -> (declared type, peer, value signature, access plan)
        self.def_types: dict[str, tuple[ast.TypeExpr, PeerId, ValueSig, AccessPlan | None]] = {}
        self.unsendable: list[tuple[str, ast.TypeExpr]] = []


def resolve_type(t: ast.TypeExpr, arch: Architecture, scope: str | None,
                 diags: list[Diagnostic], peer: str | None = None) -> ast.TypeExpr:
    """The checker's type for a surface type: each remote reference resolved
    to its peer. A type that holds none is returned as it is."""
    if isinstance(t, ast.TRemote):
        pid = peer_id_of(t.peer, scope)
        if pid not in arch.peers:
            diags.append(Diagnostic(t.peer.pos, f"unknown peer '{t.peer}' in type", peer=peer))
            return ERROR_T
        return RemoteT(pid)
    if isinstance(t, ast.TTuple):
        items = tuple(resolve_type(i, arch, scope, diags, peer) for i in t.items)
        return t if items == t.items else ast.TTuple(items)
    if isinstance(t, ast.TElem):
        elem = resolve_type(t.elem, arch, scope, diags, peer)
        return t if elem is t.elem else type(t)(elem)
    return t


def check_module(m: ast.SurfaceModule, a: Architecture, t: EffectiveTies) -> TypedModule:
    """Check all definitions; diagnostics are aggregated, not raised."""
    ctx = _ModuleContext(a, t)

    for flat in a.defs:
        peer = a.placements.get(flat.name)
        if peer is None:
            continue
        decl = flat.decl
        declared = resolve_type(decl.surface_type, a, flat.include,
                                ctx.diagnostics, peer=str(peer))
        scope = (ModuleSig(a.includes[flat.include], (flat.include,)) if flat.include
                 else ModuleSig(a.module_name))
        sig = ValueSig(f"{decl.name}:{decl.surface_type}", scope)
        ctx.def_types[flat.name] = (declared, peer, sig, access_plan(flat.name, declared))

    typed_defs: list[TypedDef] = []
    for flat in a.defs:
        peer = a.placements.get(flat.name)
        if peer is None:
            continue
        declared, _, sig, plan = ctx.def_types[flat.name]
        decl = flat.decl
        if decl.kind is ast.DefKind.STREAM_SOURCE:
            if not isinstance(declared, ast.TStream) and not isinstance(declared, ErrorT):
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
        typed_defs.append(TypedDef(flat.name, peer, declared, body, sig, plan))

    return TypedModule(a, typed_defs, ctx.diagnostics, ctx.unsendable)

