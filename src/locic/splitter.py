"""Split a checked module into per-peer components.

Every concrete peer receives a component holding: its peer id, the include
map, the peer and tie tables keyed by peer id, one slot per definition in
source order (with no body where it is placed on another peer), and a
dispatch table for the values it can serve remotely. A slot holds the
checker's own typed body: its remote-access sites are already `RemoteCall`s
that hold the access plan of the value they reach, and the dispatch table
maps value signatures to the same plans, so producer and consumer read the
one decision. Splitting builds no expression node.

What is the same for every component of a module is built once and shared:
each definition's slots and dispatch entry, every peer's inherited ties, and
a `ModuleParts` record (root module, includes, peer table) that encodes the
JSON text of those parts on first emit. A component adds its peer, its ties
and what is placed on its super-closure. `read_component` builds a
`ModuleParts` too, so every document is emitted by the one path.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Mapping
from functools import cached_property, partial
from json.encoder import encode_basestring

from . import ast, checker
from .arch import PeerId, parse_peer_name, super_closures
from .ast import Multiplicity
from .checker import PULL, STREAM, AccessPlan, RemoteCall, RemoteT, TypedExpr, TypedModule
from .codecs import CodecError, encode_json, parse_codec
from .records import record, uncompared
from .sigs import ModuleSig, PeerSig, ValueSig


class SplitError(Exception):
    pass


class ComponentFormatError(Exception):
    pass


@record
class Evaluate:
    """A slot this peer evaluates; one per definition, shared by every
    component that holds it."""

    body: TypedExpr


@record
class ModuleParts:
    """What every component of one module shares, and the JSON text of the
    parts its documents repeat, encoded on first emit. `slots` and
    `dispatch` hold every slot and served value of those components, with
    their bodies and plans; only the text is built from them, and equality
    ignores them."""

    root_module: ModuleSig
    includes: dict[str, str]  # include alias -> module name
    peer_table: dict[PeerId, tuple[PeerId, ...]]  # peer -> its super-peers
    slots: list[tuple[str, Evaluate | None]] = uncompared(())
    dispatch: dict[ValueSig, AccessPlan] = uncompared({})

    @cached_property
    def closures(self) -> dict[PeerId, frozenset[PeerId]]:
        """Every peer's super-closure, built on first use."""
        return super_closures(self.peer_table)

    @cached_property
    def names(self) -> dict[PeerId, str]:
        """Every peer's dotted id."""
        return {pid: str(pid) for pid in self.peer_table}

    @cached_property
    def fields_json(self) -> tuple[str, str]:
        """The shared document text before and after a component's peer id."""
        names = self.names
        peers = {names[pid]: [names[s] for s in supers] for pid, supers in self.peer_table.items()}
        return (f'"format":"{FORMAT}","includes":{_encode(self.includes)},"peer":',
                f',"peers":{_encode(peers)},"rootModule":{_encode(self.root_module.name)}')

    @cached_property
    def slots_json(self) -> tuple[dict[str, str], dict[str, str]]:
        """Each slot's text, as a placeholder and as an evaluated slot."""
        placeholders = {name: _encode(name) for name, _ in self.slots}
        evaluated = {name: '{"body":%s,"name":%s}' % (expr_json(ev.body), placeholders[name])
                     for name, ev in self.slots if ev is not None}
        return placeholders, evaluated

    @cached_property
    def dispatch_json(self) -> dict[ValueSig, str]:
        """Each dispatch entry's text."""
        return {sig: '{"plan":%s,"val":%s}' % (_plan_json(plan), _encode(sig.canonical))
                for sig, plan in self.dispatch.items()}


@record
class PeerComponent:
    peer: PeerId
    module: ModuleParts
    tie_table: dict[PeerId, Multiplicity]
    slots: list[tuple[str, Evaluate | None]]  # None: placed on another peer
    dispatch: dict[ValueSig, AccessPlan]

    root_module = property(lambda self: self.module.root_module)
    includes = property(lambda self: self.module.includes)
    peer_table = property(lambda self: self.module.peer_table)
    closures = property(lambda self: self.module.closures)

    def super_closure(self, p: PeerId) -> frozenset[PeerId]:
        return self.closures[p]

    def ties_to(self, remote: PeerId) -> tuple[PeerId, ...]:
        """The tie-table entries, in order, that an instance of `remote`
        counts toward: the ties to it or to one of its super-peers."""
        closure = self.closures[remote]
        return tuple([pid for pid in sorted(self.tie_table) if pid in closure])

    def sig_of(self, pid: PeerId) -> PeerSig:
        return PeerSig(pid.name, module_sig_of(self.root_module.name, self.includes, pid.path))

    @property
    def sig(self) -> PeerSig:
        return self.sig_of(self.peer)


# --- signatures -----------------------------------------------------------

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


# --- splitting ----------------------------------------------------------

def split(tm: TypedModule) -> dict[PeerId, PeerComponent]:
    """One component per concrete peer. Requires a diagnostic-free module
    whose remote accesses all reach a value with a codec."""
    if tm.diagnostics:
        raise SplitError("cannot split a module with diagnostics")
    if tm.unsendable:
        name, declared = tm.unsendable[0]
        payload = declared.elem if isinstance(declared, ast.TStream) else declared
        raise SplitError(f"definition '{name}': type {declared} is not serializable "
                         f"(no codec for {ast.non_data_part(payload)})")
    a = tm.arch

    # each definition's two slots, and where it is placed, built once
    placeholders = [(d.name, None) for d in tm.defs]
    evaluated = [(d.name, Evaluate(d.body)) for d in tm.defs]
    placed: dict[PeerId, list[int]] = {}
    served: dict[PeerId, dict[ValueSig, AccessPlan]] = {}
    for i, d in enumerate(tm.defs):
        placed.setdefault(d.placed_on, []).append(i)
        if d.plan is not None:
            served.setdefault(d.placed_on, {})[d.sig] = d.plan

    module = ModuleParts(
        ModuleSig(a.module_name, ()), a.includes,
        {pid: tuple(sorted(a.peers[pid].supers)) for pid in sorted(a.peers)},
        evaluated, {d.sig: d.plan for d in tm.defs if d.plan is not None})
    # a component fills in the definitions placed on its super-closure
    components: dict[PeerId, PeerComponent] = {}
    for pid in sorted(a.peers):
        slots = placeholders.copy()
        dispatch: dict[ValueSig, AccessPlan] = {}
        for member in a.closures[pid]:
            for i in placed.get(member, ()):
                slots[i] = evaluated[i]
            dispatch.update(served.get(member, ()))
        components[pid] = PeerComponent(pid, module, a.inherited_ties[pid], slots, dispatch)
    return components


# --- component documents -------------------------------------------------
#
# A document writes no field the reader can rebuild from another one. Peers
# are dotted ids ("P3", "lib.L0"). No signature is written: a peer's comes
# from its id (`PeerComponent.sig_of`), a value's from the scope of the slot
# its plan reads, each with `rootModule` and the `includes` map.

Modules = Callable[[tuple[str, ...]], ModuleSig]  # scope -> module, while reading


def _plan_json(plan: AccessPlan) -> str:
    return '{"codec":%s,"mode":%s,"slot":%s}' % (_str(plan.codec.id), _str(plan.mode), _str(plan.slot))


def _plan_from(doc) -> AccessPlan:
    slot, mode, codec_id = doc["slot"], doc["mode"], doc["codec"]
    if mode not in (PULL, STREAM):
        raise ComponentFormatError(f"access plan for '{slot}': unknown mode {mode!r}")
    try:
        return AccessPlan(slot, mode, parse_codec(codec_id))
    except CodecError as e:
        raise ComponentFormatError(f"access plan for '{slot}': {e}") from None


# The writers build each document's text directly, with its keys in sorted
# order: the text `json.dumps(doc, sort_keys=True, ensure_ascii=False,
# separators=(",", ":"))` gives for the document the readers take.

def type_json(t: ast.TypeExpr) -> str:
    if isinstance(t, ast.TPrim):
        return '{"k":%s}' % _str(t.name)
    if isinstance(t, ast.TTuple):
        return '{"items":[%s],"k":"Tuple"}' % ",".join(map(type_json, t.items))
    if isinstance(t, RemoteT):
        return '{"k":"Remote","peer":%s}' % _str(str(t.peer))
    if not isinstance(t, ast.TElem):
        raise TypeError(f"cannot serialize type {t!r}")
    return '{"elem":%s,"k":%s}' % (type_json(t.elem), _str(t.kind))


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


def expr_json(e: TypedExpr) -> str:
    if isinstance(e, ast.IntLit):
        return '{"k":"int","v":%s}' % encode_json(e.value)
    if isinstance(e, ast.BoolLit):
        return '{"k":"bool","v":%s}' % encode_json(e.value)
    if isinstance(e, ast.StrLit):
        return '{"k":"str","v":%s}' % encode_json(e.value)
    if isinstance(e, checker.TRef):
        return '{"k":"ref","name":%s,"ty":%s,"var":%s}' % (
            _encode(e.name), type_json(e.ty), encode_json(e.is_var))
    if isinstance(e, checker.TBinOp):
        return '{"k":"binop","l":%s,"op":%s,"r":%s,"ty":%s}' % (
            expr_json(e.left), _encode(e.op), expr_json(e.right), type_json(e.ty))
    if isinstance(e, checker.TTupleExpr):
        return '{"items":[%s],"k":"tuple","ty":%s}' % (
            ",".join(map(expr_json, e.items)), type_json(e.ty))
    if isinstance(e, checker.TStreamMap):
        return '{"body":%s,"k":"map","src":%s,"ty":%s,"var":%s}' % (
            expr_json(e.body), expr_json(e.source), type_json(e.ty), _encode(e.var))
    if isinstance(e, checker.TStreamSource):
        return '{"k":"source","ty":%s}' % type_json(e.ty)
    if isinstance(e, RemoteCall):
        return '{"k":"remotecall","mult":"%s","plan":%s,"target":%s,"ty":%s,"val":%s}' % (
            e.mult.keyword, _plan_json(e.plan), _str(str(e.target_peer_id)),
            type_json(e.ty), _encode(e.value_sig.canonical))
    raise TypeError(f"cannot serialize expression {e!r}")


def expr_from_doc(doc, modules: Modules) -> TypedExpr:
    k = doc["k"]
    if k == "int":
        return ast.IntLit(doc["v"])
    if k == "bool":
        return ast.BoolLit(doc["v"])
    if k == "str":
        return ast.StrLit(doc["v"])
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
_str = encode_basestring  # `_encode` of a str, for text that is always one


def emit_component(pc: PeerComponent) -> str:
    """Deterministic document for one component: compact, key-sorted JSON on
    one line plus a newline. `read_component` inverts it. The keys are
    written in sorted order by hand, around text its `ModuleParts` encoded."""
    m = pc.module
    names, entries = m.names, m.dispatch_json
    before_peer, after_peer = m.fields_json
    placeholders, evaluated = m.slots_json
    return '{"dispatch":[%s],%s%s%s,"slots":[%s],"ties":%s}\n' % (
        ",".join([entries[sig] for sig in sorted(pc.dispatch)]),
        before_peer, _str(names[pc.peer]), after_peer,
        ",".join([placeholders[name] if ev is None else evaluated[name]
                  for name, ev in pc.slots]),
        _encode({names[pid]: mult.keyword for pid, mult in pc.tie_table.items()}),
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
        if len(names) < len(slots):  # a slot's text is looked up by its name
            raise ComponentFormatError("two slots have one name")
        dispatch = {}
        for d in doc["dispatch"]:
            plan = _plan_from(d["plan"])
            if plan.slot not in names:
                raise ComponentFormatError(f"dispatch entry for unknown slot '{plan.slot}'")
            dispatch[ValueSig(d["val"], modules(def_scope(plan.slot)))] = plan
        return PeerComponent(peer, ModuleParts(modules(()), includes, peer_table, slots, dispatch),
                             tie_table, slots, dispatch)
    except (KeyError, TypeError, AttributeError, RecursionError) as e:
        raise ComponentFormatError(f"malformed component document: {e}") from None


def component_filename(pc: PeerComponent) -> str:
    return f"{pc.root_module.name}.{pc.peer}.component"
