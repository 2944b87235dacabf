"""Split a checked module into per-peer components.

Every concrete peer receives a component holding: its peer id, the include
map, the peer and tie tables keyed by peer id, one slot per definition in
source order (with no body where it is placed on another peer), a dispatch
table for the values it can serve remotely, and bodies whose remote-access
sites are rewritten into runtime remote-request calls.

Each definition whose type can be transmitted gets one `AccessPlan`: the
slot that backs it, whether it is pulled or streamed, and the codec of its
value (of each element, for a stream). The dispatch table maps value
signatures to these plans, and a rewritten access site holds the plan of
the value it reaches, so producer and consumer read the one decision.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Mapping
from functools import cached_property, partial

from . import ast, checker
from .arch import (Architecture, PeerId, inherited_ties, parse_peer_name,
                   super_closures)
from .ast import Multiplicity
from .checker import RemoteT, TypedExpr, TypedModule
from .codecs import Codec, CodecError, parse_codec
from .records import record
from .sigs import ModuleSig, PeerSig, ValueSig


class SplitError(Exception):
    pass


class ComponentFormatError(Exception):
    pass


PULL, STREAM = "pull", "stream"


@record
class Evaluate:
    """A slot this peer evaluates; one per definition, shared by every
    component that holds it."""

    body: TypedExpr

    @cached_property
    def body_json(self) -> str:
        """The body's document as JSON, encoded once for all its components."""
        return _encode(expr_to_doc(self.body))


@record
class AccessPlan:
    """How one definition is transmitted."""

    slot: str  # qualified definition name backing this entry
    mode: str  # PULL | STREAM
    codec: Codec  # of the value, or of each element of a stream


@record
class RemoteCall(TypedExpr):
    """A rewritten remote-access site: the value's signature, the peer that
    serves it, and its access plan there."""

    value_sig: ValueSig
    target_peer_id: PeerId
    mult: Multiplicity
    plan: AccessPlan
    ty: ast.TypeExpr


@record
class PeerComponent:
    peer: PeerId
    root_module: ModuleSig
    includes: dict[str, str]  # include alias -> module name
    peer_table: dict[PeerId, tuple[PeerId, ...]]  # peer -> its super-peers
    tie_table: dict[PeerId, Multiplicity]
    slots: list[tuple[str, Evaluate | None]]  # None: placed on another peer
    dispatch: dict[ValueSig, AccessPlan]

    @cached_property
    def closures(self) -> dict[PeerId, frozenset[PeerId]]:
        """Every peer's super-closure, built on first use."""
        return super_closures(self.peer_table)

    def super_closure(self, p: PeerId) -> frozenset[PeerId]:
        return self.closures[p]

    def ties_to(self, remote: PeerId) -> list[PeerId]:
        """The tie-table entries, in order, that an instance of `remote`
        counts toward: the ties to it or to one of its super-peers."""
        closure = self.closures[remote]
        return [pid for pid in sorted(self.tie_table) if pid in closure]

    def sig_of(self, pid: PeerId) -> PeerSig:
        return PeerSig(pid.name, module_sig_of(self.root_module.name, self.includes, pid.path))

    @property
    def sig(self) -> PeerSig:
        return self.sig_of(self.peer)


# --- signatures and codecs ---------------------------------------------

def module_sig_of(module_name: str, includes: Mapping[str, str],
                  path: tuple[str, ...]) -> ModuleSig:
    """The module a scope stands for: the root module for (), else the
    module its include alias names."""
    if path:
        return ModuleSig(includes[path[0]], path)
    return ModuleSig(module_name, ())


def def_scope(flat_name: str) -> tuple[str, ...]:
    """The include path of a definition: ("mon",) for "mon.interval"."""
    return (flat_name.split(".", 1)[0],) if "." in flat_name else ()


def value_sig_of(a: Architecture, flat_name: str, decl: ast.DefDecl) -> ValueSig:
    canonical = f"{decl.name}:{decl.surface_type}"
    return ValueSig(canonical, module_sig_of(a.module_name, a.includes, def_scope(flat_name)))


def codec_of(t: ast.TypeExpr) -> Codec | None:
    """The codec for a data type, or None if the type is not serializable."""
    return Codec(t) if ast.non_data_part(t) is None else None


def access_plan(def_name: str, declared: ast.TypeExpr) -> AccessPlan:
    """The plan for remote access to a definition, or SplitError."""
    stream = isinstance(declared, ast.TStream)
    payload = declared.elem if stream else declared
    bad = ast.non_data_part(payload)
    if bad is not None:
        raise SplitError(
            f"definition '{def_name}': type {declared} is not serializable "
            f"(no codec for {bad})")
    return AccessPlan(def_name, STREAM if stream else PULL, Codec(payload))


# --- splitting ----------------------------------------------------------

def _rewrite(e: TypedExpr, plans: dict[str, AccessPlan],
             sigs: dict[str, ValueSig],
             declared: dict[str, ast.TypeExpr]) -> TypedExpr:
    if isinstance(e, checker.TRemoteAccess):
        if e.target not in plans:
            # raises, naming the definition and the innermost part that is not data
            access_plan(e.target, declared[e.target])
        return RemoteCall(sigs[e.target], e.to_peer, e.mult, plans[e.target], e.ty)
    if isinstance(e, checker.TBinOp):
        return checker.TBinOp(e.op, _rewrite(e.left, plans, sigs, declared),
                              _rewrite(e.right, plans, sigs, declared), e.ty)
    if isinstance(e, checker.TTupleExpr):
        return checker.TTupleExpr(
            tuple(_rewrite(i, plans, sigs, declared) for i in e.items), e.ty)
    if isinstance(e, checker.TStreamMap):
        return checker.TStreamMap(_rewrite(e.source, plans, sigs, declared), e.var,
                                  _rewrite(e.body, plans, sigs, declared), e.ty)
    return e


def split(tm: TypedModule) -> dict[PeerId, PeerComponent]:
    """One component per concrete peer. Requires a diagnostic-free module."""
    if tm.diagnostics:
        raise SplitError("cannot split a module with diagnostics")
    a = tm.arch

    sigs: dict[str, ValueSig] = {}
    decls = {f.name: f.decl for f in a.defs}
    for d in tm.defs:
        sigs[d.name] = value_sig_of(a, d.name, decls[d.name])

    # one access plan per definition whose type is serializable
    plans: dict[str, AccessPlan] = {}
    for d in tm.defs:
        try:
            plans[d.name] = access_plan(d.name, d.declared_type)
        except SplitError:
            continue

    declared_types = {d.name: d.declared_type for d in tm.defs}
    evaluates = {
        d.name: Evaluate(_rewrite(d.body, plans, sigs, declared_types)) for d in tm.defs
    }

    peer_table = {pid: tuple(sorted(a.peers[pid].supers)) for pid in sorted(a.peers)}
    root = ModuleSig(a.module_name, ())

    # components share the read-only peer table, include map and evaluated bodies
    components: dict[PeerId, PeerComponent] = {}
    for pid in sorted(a.peers):
        closure = a.closures[pid]
        slots: list[tuple[str, Evaluate | None]] = []
        dispatch: dict[ValueSig, AccessPlan] = {}
        for d in tm.defs:
            available = d.placed_on in closure
            slots.append((d.name, evaluates[d.name] if available else None))
            if available and d.name in plans:
                dispatch[sigs[d.name]] = plans[d.name]
        components[pid] = PeerComponent(
            peer=pid,
            root_module=root,
            includes=a.includes,
            peer_table=peer_table,
            tie_table=inherited_ties(a, pid),
            slots=slots,
            dispatch=dispatch,
        )
    return components


# --- component documents -------------------------------------------------
#
# A document writes no field the reader can rebuild from another one. Peers
# are dotted ids ("P3", "lib.L0"). No signature is written: a peer's comes
# from its id (`PeerComponent.sig_of`), a value's from the scope of the slot
# its plan reads, each with `rootModule` and the `includes` map.

Modules = Callable[[tuple[str, ...]], ModuleSig]  # scope -> module, while reading


def _plan_doc(plan: AccessPlan) -> dict:
    return {"slot": plan.slot, "mode": plan.mode, "codec": plan.codec.id}


def _plan_from(doc) -> AccessPlan:
    slot, mode, codec_id = doc["slot"], doc["mode"], doc["codec"]
    if mode not in (PULL, STREAM):
        raise ComponentFormatError(f"access plan for '{slot}': unknown mode {mode!r}")
    try:
        return AccessPlan(slot, mode, parse_codec(codec_id))
    except CodecError as e:
        raise ComponentFormatError(f"access plan for '{slot}': {e}") from None


def type_to_doc(t: ast.TypeExpr) -> dict:
    if isinstance(t, ast.TPrim):
        return {"k": t.name}
    if isinstance(t, ast.TTuple):
        return {"k": "Tuple", "items": [type_to_doc(i) for i in t.items]}
    if isinstance(t, RemoteT):
        return {"k": "Remote", "peer": str(t.peer)}
    if not isinstance(t, ast.TElem):
        raise TypeError(f"cannot serialize type {t!r}")
    return {"k": t.kind, "elem": type_to_doc(t.elem)}


def type_from_doc(doc) -> ast.TypeExpr:
    k = doc["k"]
    if k in ast.PRIMS:
        return ast.PRIMS[k]
    if k == "Tuple":
        return ast.TTuple(tuple(type_from_doc(i) for i in doc["items"]))
    if k == "Remote":
        return RemoteT(parse_peer_name(doc["peer"]))
    if k not in ast.ELEM_TYPES:
        raise ComponentFormatError(f"unknown type kind '{k}'")
    return ast.ELEM_TYPES[k](type_from_doc(doc["elem"]))


def expr_to_doc(e: TypedExpr) -> dict:
    if isinstance(e, checker.TIntLit):
        return {"k": "int", "v": e.value}
    if isinstance(e, checker.TBoolLit):
        return {"k": "bool", "v": e.value}
    if isinstance(e, checker.TStrLit):
        return {"k": "str", "v": e.value}
    if isinstance(e, checker.TRef):
        return {"k": "ref", "name": e.name, "var": e.is_var,
                "ty": type_to_doc(e.ty)}
    if isinstance(e, checker.TBinOp):
        return {"k": "binop", "op": e.op, "l": expr_to_doc(e.left),
                "r": expr_to_doc(e.right), "ty": type_to_doc(e.ty)}
    if isinstance(e, checker.TTupleExpr):
        return {"k": "tuple", "items": [expr_to_doc(i) for i in e.items],
                "ty": type_to_doc(e.ty)}
    if isinstance(e, checker.TStreamMap):
        return {"k": "map", "src": expr_to_doc(e.source), "var": e.var,
                "body": expr_to_doc(e.body), "ty": type_to_doc(e.ty)}
    if isinstance(e, checker.TStreamSource):
        return {"k": "source", "ty": type_to_doc(e.ty)}
    if isinstance(e, RemoteCall):
        return {
            "k": "remotecall",
            "val": e.value_sig.canonical,
            "target": str(e.target_peer_id),
            "mult": e.mult.keyword,
            "plan": _plan_doc(e.plan),
            "ty": type_to_doc(e.ty),
        }
    raise TypeError(f"cannot serialize expression {e!r}")


def expr_from_doc(doc, modules: Modules) -> TypedExpr:
    k = doc["k"]
    if k == "int":
        return checker.TIntLit(doc["v"])
    if k == "bool":
        return checker.TBoolLit(doc["v"])
    if k == "str":
        return checker.TStrLit(doc["v"])
    if k == "ref":
        return checker.TRef(doc["name"], doc["var"], type_from_doc(doc["ty"]))
    if k == "binop":
        return checker.TBinOp(doc["op"], expr_from_doc(doc["l"], modules),
                              expr_from_doc(doc["r"], modules), type_from_doc(doc["ty"]))
    if k == "tuple":
        return checker.TTupleExpr(tuple(expr_from_doc(i, modules) for i in doc["items"]),
                                  type_from_doc(doc["ty"]))
    if k == "map":
        return checker.TStreamMap(expr_from_doc(doc["src"], modules), doc["var"],
                                  expr_from_doc(doc["body"], modules),
                                  type_from_doc(doc["ty"]))
    if k == "source":
        return checker.TStreamSource(type_from_doc(doc["ty"]))
    if k == "remotecall":
        plan = _plan_from(doc["plan"])
        return RemoteCall(
            ValueSig(doc["val"], modules(def_scope(plan.slot))),
            parse_peer_name(doc["target"]),
            ast.MULTIPLICITY_BY_KEYWORD[doc["mult"]],
            plan,
            type_from_doc(doc["ty"]),
        )
    raise ComponentFormatError(f"unknown expression kind '{k}'")


FORMAT = "locic-component/3"


_encode = json.JSONEncoder(sort_keys=True, ensure_ascii=False, separators=(",", ":")).encode


def emit_component(pc: PeerComponent) -> str:
    """Deterministic document for one component: compact, key-sorted JSON on
    one line plus a newline. `read_component` inverts it.

    The keys are written in sorted order by hand, so that each evaluated
    body is spliced in as the text its `Evaluate` encoded once."""
    slots = ",".join(
        _encode(name) if ev is None else '{"body":%s,"name":%s}' % (ev.body_json, _encode(name))
        for name, ev in pc.slots)
    return ('{"dispatch":%s,"format":"%s","includes":%s,"peer":%s,"peers":%s,'
            '"rootModule":%s,"slots":[%s],"ties":%s}\n') % (
        _encode([{"val": sig.canonical, "plan": _plan_doc(plan)}
                 for sig, plan in sorted(pc.dispatch.items())]),
        FORMAT,
        _encode(pc.includes),
        _encode(str(pc.peer)),
        _encode({str(pid): [str(s) for s in supers] for pid, supers in pc.peer_table.items()}),
        _encode(pc.root_module.name),
        slots,
        _encode({str(pid): mult.keyword for pid, mult in pc.tie_table.items()}),
    )


def read_component(text: str) -> PeerComponent:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:  # also nesting too deep to parse
        raise ComponentFormatError(f"not a component document: {e}") from None
    if not isinstance(doc, dict) or "format" not in doc:
        raise ComponentFormatError("not a component document")
    if doc["format"] != FORMAT:
        raise ComponentFormatError(
            f"component format {doc['format']!r} is not supported (expected {FORMAT!r})")
    try:
        includes = doc["includes"]
        modules: Modules = partial(module_sig_of, doc["rootModule"], includes)
        peer_table = {parse_peer_name(name): tuple(parse_peer_name(s) for s in supers)
                      for name, supers in doc["peers"].items()}
        peer = parse_peer_name(doc["peer"])
        tie_table = {parse_peer_name(name): ast.MULTIPLICITY_BY_KEYWORD[mult]
                     for name, mult in doc["ties"].items()}
        named = {peer, *tie_table, *(s for supers in peer_table.values() for s in supers)}
        unknown = named - peer_table.keys()
        if unknown:
            raise ComponentFormatError(f"peer '{min(unknown)}' is not in the peer table")
        aliases = {pid.path[0] for pid in peer_table if pid.path} - includes.keys()
        if aliases:
            raise ComponentFormatError(f"unknown include alias '{min(aliases)}'")
        slots: list[tuple[str, Evaluate | None]] = [
            (s, None) if isinstance(s, str)
            else (s["name"], Evaluate(expr_from_doc(s["body"], modules)))
            for s in doc["slots"]
        ]
        names = {name for name, _ in slots}
        dispatch = {}
        for d in doc["dispatch"]:
            plan = _plan_from(d["plan"])
            if plan.slot not in names:
                raise ComponentFormatError(f"dispatch entry for unknown slot '{plan.slot}'")
            dispatch[ValueSig(d["val"], modules(def_scope(plan.slot)))] = plan
        return PeerComponent(
            peer=peer,
            root_module=modules(()),
            includes=includes,
            peer_table=peer_table,
            tie_table=tie_table,
            slots=slots,
            dispatch=dispatch,
        )
    except (KeyError, TypeError, AttributeError, RecursionError) as e:
        raise ComponentFormatError(f"malformed component document: {e}") from None


def component_filename(pc: PeerComponent) -> str:
    return f"{pc.root_module.name}.{pc.peer}.component"
