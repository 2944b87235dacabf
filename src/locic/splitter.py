"""Split a checked module into per-peer components.

Every concrete peer receives a component holding: its signatures and tie
table, one slot per definition in source order (a placeholder where the
value is not available on this peer, preserving evaluation order), a
dispatch table for the values it can serve remotely, and bodies whose
remote-access sites are rewritten into runtime remote-request calls.

Each definition whose type can be transmitted gets one `AccessPlan`: the
slot that backs it, whether it is pulled or streamed, and the codec of its
value (of each element, for a stream). The dispatch table maps value
signatures to these plans, and a rewritten access site holds the plan of
the value it reaches, so producer and consumer read the one decision.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from functools import cached_property, partial

from . import ast, checker
from .arch import (Architecture, PeerId, inherited_ties, parse_peer_name,
                   super_closures)
from .ast import Multiplicity
from .checker import (FutureT, OptionT, PrimT, RemoteT, SemType, SeqT, StreamT,
                      TupleT, TypedExpr, TypedModule)
from .codecs import Codec, CodecError, Shape, parse_codec, shape_id
from .sigs import ModuleSig, PeerSig, ValueSig


class SplitError(Exception):
    pass


class ComponentFormatError(Exception):
    pass


PULL, STREAM = "pull", "stream"


@dataclass(frozen=True)
class Evaluate:
    body: TypedExpr


@dataclass(frozen=True)
class Placeholder:
    pass


PLACEHOLDER = Placeholder()
InitPlan = object  # Evaluate | Placeholder


@dataclass(frozen=True)
class AccessPlan:
    """How one definition is transmitted."""

    slot: str  # qualified definition name backing this entry
    mode: str  # PULL | STREAM
    codec: Codec  # of the value, or of each element of a stream


@dataclass(frozen=True)
class RemoteCall(TypedExpr):
    """A rewritten remote-access site: the value's signature, the peer that
    serves it, and its access plan there."""

    value_sig: ValueSig
    target_peer_id: PeerId
    mult: Multiplicity
    plan: AccessPlan
    ty: SemType


@dataclass(frozen=True)
class PeerEntry:
    sig: PeerSig
    supers: tuple[PeerId, ...]


@dataclass
class PeerComponent:
    peer: PeerId
    sig: PeerSig
    root_module: ModuleSig
    peer_table: dict[PeerId, PeerEntry]
    tie_table: dict[PeerSig, Multiplicity]
    slots: list[tuple[str, InitPlan]]
    dispatch: dict[ValueSig, AccessPlan]

    @cached_property
    def closures(self) -> dict[PeerId, frozenset[PeerId]]:
        """Every peer's super-closure, built on first use."""
        return super_closures({pid: entry.supers for pid, entry in self.peer_table.items()})

    def super_closure(self, p: PeerId) -> frozenset[PeerId]:
        return self.closures[p]

    @cached_property
    def peers_by_sig(self) -> dict[PeerSig, PeerId]:
        """Every peer of the table by its signature, built on first use."""
        return {entry.sig: pid for pid, entry in self.peer_table.items()}

    def peer_for_sig(self, sig: PeerSig) -> PeerId | None:
        return self.peers_by_sig.get(sig)


# --- signatures and codecs ---------------------------------------------

def module_sig_of(module_name: str, includes: Mapping[str, str],
                  path: tuple[str, ...]) -> ModuleSig:
    """The module a scope stands for: the root module for (), else the
    module its include alias names."""
    if path:
        return ModuleSig(includes[path[0]], path)
    return ModuleSig(module_name, ())


def peer_sig_of(a: Architecture, pid: PeerId) -> PeerSig:
    return PeerSig(pid.name, module_sig_of(a.module_name, a.includes, pid.path))


def def_scope(flat_name: str) -> tuple[str, ...]:
    """The include path of a definition: ("mon",) for "mon.interval"."""
    return (flat_name.split(".", 1)[0],) if "." in flat_name else ()


def value_sig_of(a: Architecture, flat_name: str, decl: ast.DefDecl) -> ValueSig:
    canonical = f"{decl.name}:{ast.render_type(decl.surface_type)}"
    return ValueSig(canonical, module_sig_of(a.module_name, a.includes, def_scope(flat_name)))


def sem_type_shape(t: SemType) -> Shape | None:
    """Codec shape for a data type, or None if the type is not serializable."""
    if isinstance(t, PrimT):
        return t.name
    if isinstance(t, TupleT):
        items = [sem_type_shape(i) for i in t.items]
        if any(i is None for i in items):
            return None
        return ("tuple", tuple(items))
    return None


def innermost_uncodable(t: SemType) -> SemType | None:
    children: tuple[SemType, ...] = ()
    if isinstance(t, TupleT):
        children = t.items
    elif isinstance(t, (StreamT, FutureT, OptionT, SeqT)):
        children = (t.elem,)
    for child in children:
        found = innermost_uncodable(child)
        if found is not None:
            return found
    if isinstance(t, (PrimT, TupleT)):
        return None
    return t


def codec_of(t: SemType) -> Codec | None:
    """The codec for a data type, or None if the type is not serializable."""
    shape = sem_type_shape(t)
    return None if shape is None else Codec(shape_id(shape), shape)


def access_plan(def_name: str, declared: SemType) -> AccessPlan:
    """The plan for remote access to a definition, or SplitError."""
    stream = isinstance(declared, StreamT)
    codec = codec_of(declared.elem if stream else declared)
    if codec is None:
        bad = innermost_uncodable(declared)
        raise SplitError(
            f"definition '{def_name}': type {declared} is not serializable "
            f"(no codec for {bad})")
    return AccessPlan(def_name, STREAM if stream else PULL, codec)


# --- splitting ----------------------------------------------------------

def _rewrite(e: TypedExpr, plans: dict[str, AccessPlan],
             sigs: dict[str, ValueSig],
             declared: dict[str, SemType]) -> TypedExpr:
    if isinstance(e, checker.TRemoteAccess):
        if e.target not in plans:
            # raises, naming the definition and its innermost uncodable type
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
    rewritten = {
        d.name: _rewrite(d.body, plans, sigs, declared_types) for d in tm.defs
    }

    peer_table = {
        pid: PeerEntry(peer_sig_of(a, pid), tuple(sorted(a.peers[pid].supers)))
        for pid in sorted(a.peers)
    }
    root = ModuleSig(a.module_name, ())

    # components share the read-only peer table
    components: dict[PeerId, PeerComponent] = {}
    for pid in sorted(a.peers):
        tie_table = {
            peer_table[target].sig: mult
            for target, mult in inherited_ties(a, pid).items()
        }
        closure = a.closures[pid]
        slots: list[tuple[str, InitPlan]] = []
        dispatch: dict[ValueSig, AccessPlan] = {}
        for d in tm.defs:
            available = d.placed_on in closure
            slots.append((d.name, Evaluate(rewritten[d.name]) if available else PLACEHOLDER))
            if available and d.name in plans:
                dispatch[sigs[d.name]] = plans[d.name]
        components[pid] = PeerComponent(
            peer=pid,
            sig=peer_table[pid].sig,
            root_module=root,
            peer_table=peer_table,
            tie_table=tie_table,
            slots=slots,
            dispatch=dispatch,
        )
    return components


# --- component documents -------------------------------------------------
#
# A document writes no field the reader can rebuild from another one. Peers
# are dotted ids ("P3", "lib.L0"). Every signature is derived on read, as
# `split` derives it: a peer's from its id, a value's from the scope of the
# slot its plan reads, each with `rootModule` and the `includes` map.

Modules = Callable[[tuple[str, ...]], ModuleSig]  # scope -> module, while reading


def _note_module(includes: dict[str, str], m: ModuleSig) -> None:
    """Record the include alias a written signature's module stands for."""
    if m.path:
        includes[m.path[0]] = m.name


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


_ELEM_KINDS = {StreamT: "Stream", FutureT: "Future", OptionT: "Option", SeqT: "Seq"}
_ELEM_TYPES = {kind: cls for cls, kind in _ELEM_KINDS.items()}


def sem_type_to_doc(t: SemType) -> dict:
    if isinstance(t, PrimT):
        return {"k": t.name}
    if isinstance(t, TupleT):
        return {"k": "Tuple", "items": [sem_type_to_doc(i) for i in t.items]}
    if isinstance(t, RemoteT):
        return {"k": "Remote", "peer": str(t.peer)}
    if type(t) not in _ELEM_KINDS:
        raise TypeError(f"cannot serialize type {t!r}")
    return {"k": _ELEM_KINDS[type(t)], "elem": sem_type_to_doc(t.elem)}


def sem_type_from_doc(doc) -> SemType:
    k = doc["k"]
    if k in ("Int", "Bool", "Str", "Unit"):
        return PrimT(k)
    if k == "Tuple":
        return TupleT(tuple(sem_type_from_doc(i) for i in doc["items"]))
    if k == "Remote":
        return RemoteT(parse_peer_name(doc["peer"]))
    if k not in _ELEM_TYPES:
        raise ComponentFormatError(f"unknown type kind '{k}'")
    return _ELEM_TYPES[k](sem_type_from_doc(doc["elem"]))


def expr_to_doc(e: TypedExpr, includes: dict[str, str]) -> dict:
    if isinstance(e, checker.TIntLit):
        return {"k": "int", "v": e.value}
    if isinstance(e, checker.TBoolLit):
        return {"k": "bool", "v": e.value}
    if isinstance(e, checker.TStrLit):
        return {"k": "str", "v": e.value}
    if isinstance(e, checker.TRef):
        return {"k": "ref", "name": e.name, "var": e.is_var,
                "ty": sem_type_to_doc(e.ty)}
    if isinstance(e, checker.TBinOp):
        return {"k": "binop", "op": e.op, "l": expr_to_doc(e.left, includes),
                "r": expr_to_doc(e.right, includes), "ty": sem_type_to_doc(e.ty)}
    if isinstance(e, checker.TTupleExpr):
        return {"k": "tuple", "items": [expr_to_doc(i, includes) for i in e.items],
                "ty": sem_type_to_doc(e.ty)}
    if isinstance(e, checker.TStreamMap):
        return {"k": "map", "src": expr_to_doc(e.source, includes), "var": e.var,
                "body": expr_to_doc(e.body, includes), "ty": sem_type_to_doc(e.ty)}
    if isinstance(e, checker.TStreamSource):
        return {"k": "source", "ty": sem_type_to_doc(e.ty)}
    if isinstance(e, RemoteCall):
        _note_module(includes, e.value_sig.module)
        return {
            "k": "remotecall",
            "val": e.value_sig.canonical,
            "target": str(e.target_peer_id),
            "mult": e.mult.keyword,
            "plan": _plan_doc(e.plan),
            "ty": sem_type_to_doc(e.ty),
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
        return checker.TRef(doc["name"], doc["var"], sem_type_from_doc(doc["ty"]))
    if k == "binop":
        return checker.TBinOp(doc["op"], expr_from_doc(doc["l"], modules),
                              expr_from_doc(doc["r"], modules), sem_type_from_doc(doc["ty"]))
    if k == "tuple":
        return checker.TTupleExpr(tuple(expr_from_doc(i, modules) for i in doc["items"]),
                                  sem_type_from_doc(doc["ty"]))
    if k == "map":
        return checker.TStreamMap(expr_from_doc(doc["src"], modules), doc["var"],
                                  expr_from_doc(doc["body"], modules),
                                  sem_type_from_doc(doc["ty"]))
    if k == "source":
        return checker.TStreamSource(sem_type_from_doc(doc["ty"]))
    if k == "remotecall":
        plan = _plan_from(doc["plan"])
        return RemoteCall(
            ValueSig(doc["val"], modules(def_scope(plan.slot))),
            parse_peer_name(doc["target"]),
            ast.MULTIPLICITY_BY_KEYWORD[doc["mult"]],
            plan,
            sem_type_from_doc(doc["ty"]),
        )
    raise ComponentFormatError(f"unknown expression kind '{k}'")


FORMAT = "locic-component/3"


def emit_component(pc: PeerComponent) -> str:
    """Deterministic document for one component: compact, key-sorted JSON on
    one line plus a newline. `read_component` inverts it."""
    includes: dict[str, str] = {}  # alias -> module, noted while writing
    peers = {}
    for pid, entry in pc.peer_table.items():
        _note_module(includes, entry.sig.module)
        peers[str(pid)] = [str(s) for s in entry.supers]
    dispatch = []
    for sig, plan in sorted(pc.dispatch.items()):
        _note_module(includes, sig.module)
        dispatch.append({"val": sig.canonical, "plan": _plan_doc(plan)})
    doc = {
        "format": FORMAT,
        "peer": str(pc.peer),
        "rootModule": pc.root_module.name,
        "includes": includes,
        "peers": peers,
        # keyed by the id each signature was derived from
        "ties": {str(PeerId(sig.module.path, sig.peer_name)): mult.keyword
                 for sig, mult in pc.tie_table.items()},
        "slots": [
            name if isinstance(plan, Placeholder)
            else {"name": name, "body": expr_to_doc(plan.body, includes)}
            for name, plan in pc.slots
        ],
        "dispatch": dispatch,
    }
    return json.dumps(doc, sort_keys=True, ensure_ascii=False, separators=(",", ":")) + "\n"


def read_component(text: str) -> PeerComponent:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ComponentFormatError(f"not a component document: {e}") from None
    if not isinstance(doc, dict) or "format" not in doc:
        raise ComponentFormatError("not a component document")
    if doc["format"] != FORMAT:
        raise ComponentFormatError(
            f"component format {doc['format']!r} is not supported (expected {FORMAT!r})")
    try:
        modules: Modules = partial(module_sig_of, doc["rootModule"], doc["includes"])
        peer_table = {}
        for name, supers in doc["peers"].items():
            pid = parse_peer_name(name)
            peer_table[pid] = PeerEntry(PeerSig(pid.name, modules(pid.path)),
                                        tuple(parse_peer_name(s) for s in supers))
        unknown = {s for entry in peer_table.values() for s in entry.supers} - peer_table.keys()
        if unknown:
            raise ComponentFormatError(f"unknown super-peer '{min(unknown)}'")
        slots: list[tuple[str, InitPlan]] = [
            (s, PLACEHOLDER) if isinstance(s, str)
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
        peer = parse_peer_name(doc["peer"])
        return PeerComponent(
            peer=peer,
            sig=peer_table[peer].sig,
            root_module=modules(()),
            peer_table=peer_table,
            tie_table={
                peer_table[parse_peer_name(name)].sig: ast.MULTIPLICITY_BY_KEYWORD[mult]
                for name, mult in doc["ties"].items()
            },
            slots=slots,
            dispatch=dispatch,
        )
    except (KeyError, TypeError, AttributeError) as e:
        raise ComponentFormatError(f"malformed component document: {e}") from None


def component_filename(pc: PeerComponent) -> str:
    return f"{pc.root_module.name}.{pc.peer}.component"
