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
from dataclasses import dataclass
from functools import cached_property

from . import ast, checker
from .arch import Architecture, PeerId, inherited_ties, super_closures
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

    def peer_for_sig(self, sig: PeerSig) -> PeerId | None:
        for pid, entry in self.peer_table.items():
            if entry.sig == sig:
                return pid
        return None


# --- signatures and codecs ---------------------------------------------

def module_sig_of(a: Architecture, path: tuple[str, ...]) -> ModuleSig:
    if path:
        return ModuleSig(a.includes[path[0]], path)
    return ModuleSig(a.module_name, ())


def peer_sig_of(a: Architecture, pid: PeerId) -> PeerSig:
    return PeerSig(pid.name, module_sig_of(a, pid.path))


def value_sig_of(a: Architecture, flat_name: str, decl: ast.DefDecl) -> ValueSig:
    scope: tuple[str, ...] = ()
    if "." in flat_name:
        scope = (flat_name.split(".", 1)[0],)
    canonical = f"{decl.name}:{ast.render_type(decl.surface_type)}"
    return ValueSig(canonical, module_sig_of(a, scope))


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

def _pid_doc(p: PeerId) -> dict:
    return {"path": list(p.path), "name": p.name}


def _pid_from(doc) -> PeerId:
    return PeerId(tuple(doc["path"]), doc["name"])


def _modsig_doc(m: ModuleSig) -> dict:
    return {"name": m.name, "path": list(m.path)}


def _modsig_from(doc) -> ModuleSig:
    return ModuleSig(doc["name"], tuple(doc["path"]))


def _peersig_doc(s: PeerSig) -> dict:
    return {"peer": s.peer_name, "module": _modsig_doc(s.module)}


def _peersig_from(doc) -> PeerSig:
    return PeerSig(doc["peer"], _modsig_from(doc["module"]))


def _valuesig_doc(s: ValueSig) -> dict:
    return {"val": s.canonical, "module": _modsig_doc(s.module)}


def _valuesig_from(doc) -> ValueSig:
    return ValueSig(doc["val"], _modsig_from(doc["module"]))


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


def sem_type_to_doc(t: SemType) -> dict:
    if isinstance(t, PrimT):
        return {"k": t.name}
    if isinstance(t, TupleT):
        return {"k": "Tuple", "items": [sem_type_to_doc(i) for i in t.items]}
    if isinstance(t, StreamT):
        return {"k": "Stream", "elem": sem_type_to_doc(t.elem)}
    if isinstance(t, FutureT):
        return {"k": "Future", "elem": sem_type_to_doc(t.elem)}
    if isinstance(t, OptionT):
        return {"k": "Option", "elem": sem_type_to_doc(t.elem)}
    if isinstance(t, SeqT):
        return {"k": "Seq", "elem": sem_type_to_doc(t.elem)}
    if isinstance(t, RemoteT):
        return {"k": "Remote", "peer": _pid_doc(t.peer)}
    raise TypeError(f"cannot serialize type {t!r}")


def sem_type_from_doc(doc) -> SemType:
    k = doc["k"]
    if k in ("Int", "Bool", "Str", "Unit"):
        return PrimT(k)
    if k == "Tuple":
        return TupleT(tuple(sem_type_from_doc(i) for i in doc["items"]))
    if k == "Stream":
        return StreamT(sem_type_from_doc(doc["elem"]))
    if k == "Future":
        return FutureT(sem_type_from_doc(doc["elem"]))
    if k == "Option":
        return OptionT(sem_type_from_doc(doc["elem"]))
    if k == "Seq":
        return SeqT(sem_type_from_doc(doc["elem"]))
    if k == "Remote":
        return RemoteT(_pid_from(doc["peer"]))
    raise ComponentFormatError(f"unknown type kind '{k}'")


def expr_to_doc(e: TypedExpr) -> dict:
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
        return {"k": "binop", "op": e.op, "l": expr_to_doc(e.left),
                "r": expr_to_doc(e.right), "ty": sem_type_to_doc(e.ty)}
    if isinstance(e, checker.TTupleExpr):
        return {"k": "tuple", "items": [expr_to_doc(i) for i in e.items],
                "ty": sem_type_to_doc(e.ty)}
    if isinstance(e, checker.TStreamMap):
        return {"k": "map", "src": expr_to_doc(e.source), "var": e.var,
                "body": expr_to_doc(e.body), "ty": sem_type_to_doc(e.ty)}
    if isinstance(e, checker.TStreamSource):
        return {"k": "source", "ty": sem_type_to_doc(e.ty)}
    if isinstance(e, RemoteCall):
        return {
            "k": "remotecall",
            "val": _valuesig_doc(e.value_sig),
            "targetId": _pid_doc(e.target_peer_id),
            "mult": e.mult.keyword,
            "plan": _plan_doc(e.plan),
            "ty": sem_type_to_doc(e.ty),
        }
    raise TypeError(f"cannot serialize expression {e!r}")


def expr_from_doc(doc) -> TypedExpr:
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
        return checker.TBinOp(doc["op"], expr_from_doc(doc["l"]),
                              expr_from_doc(doc["r"]), sem_type_from_doc(doc["ty"]))
    if k == "tuple":
        return checker.TTupleExpr(tuple(expr_from_doc(i) for i in doc["items"]),
                                  sem_type_from_doc(doc["ty"]))
    if k == "map":
        return checker.TStreamMap(expr_from_doc(doc["src"]), doc["var"],
                                  expr_from_doc(doc["body"]), sem_type_from_doc(doc["ty"]))
    if k == "source":
        return checker.TStreamSource(sem_type_from_doc(doc["ty"]))
    if k == "remotecall":
        return RemoteCall(
            _valuesig_from(doc["val"]),
            _pid_from(doc["targetId"]),
            ast.MULTIPLICITY_BY_KEYWORD[doc["mult"]],
            _plan_from(doc["plan"]),
            sem_type_from_doc(doc["ty"]),
        )
    raise ComponentFormatError(f"unknown expression kind '{k}'")


FORMAT = "locic-component/2"


def emit_component(pc: PeerComponent) -> str:
    """Deterministic document for one component: compact, key-sorted JSON on
    one line plus a newline. `read_component` inverts it."""
    doc = {
        "format": FORMAT,
        "peer": _pid_doc(pc.peer),
        "sig": _peersig_doc(pc.sig),
        "rootModule": _modsig_doc(pc.root_module),
        "peers": [
            {"id": _pid_doc(pid), "sig": _peersig_doc(entry.sig),
             "supers": [_pid_doc(s) for s in entry.supers]}
            for pid, entry in sorted(pc.peer_table.items())
        ],
        "ties": [
            {"peer": _peersig_doc(sig), "mult": mult.keyword}
            for sig, mult in sorted(pc.tie_table.items())
        ],
        "slots": [
            {"name": name, "plan": "placeholder"} if isinstance(plan, Placeholder)
            else {"name": name, "plan": "eval", "body": expr_to_doc(plan.body)}
            for name, plan in pc.slots
        ],
        "dispatch": [
            {"val": _valuesig_doc(sig), "plan": _plan_doc(plan)}
            for sig, plan in sorted(pc.dispatch.items())
        ],
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
        peer_table = {
            _pid_from(p["id"]): PeerEntry(_peersig_from(p["sig"]),
                                          tuple(_pid_from(s) for s in p["supers"]))
            for p in doc["peers"]
        }
        slots: list[tuple[str, InitPlan]] = []
        for s in doc["slots"]:
            if s["plan"] == "placeholder":
                slots.append((s["name"], PLACEHOLDER))
            else:
                slots.append((s["name"], Evaluate(expr_from_doc(s["body"]))))
        dispatch = {_valuesig_from(d["val"]): _plan_from(d["plan"]) for d in doc["dispatch"]}
        names = {name for name, _ in slots}
        for plan in dispatch.values():
            if plan.slot not in names:
                raise ComponentFormatError(f"dispatch entry for unknown slot '{plan.slot}'")
        return PeerComponent(
            peer=_pid_from(doc["peer"]),
            sig=_peersig_from(doc["sig"]),
            root_module=_modsig_from(doc["rootModule"]),
            peer_table=peer_table,
            tie_table={
                _peersig_from(t["peer"]): ast.MULTIPLICITY_BY_KEYWORD[t["mult"]]
                for t in doc["ties"]
            },
            slots=slots,
            dispatch=dispatch,
        )
    except (KeyError, TypeError) as e:
        raise ComponentFormatError(f"malformed component document: {e}") from None


def component_filename(pc: PeerComponent) -> str:
    return f"{pc.root_module.name}.{pc.peer}.component"
