"""Architecture resolution: flatten includes, build the peer lattice, compute ties.

Effective ties combine every tie declared on a peer or its super-peers,
targeting a peer or its super-peers, and keep the most specific multiplicity
(single beats optional beats multiple). Acyclicity is read from the same
super-closures: a peer is on a cycle exactly when one of its direct
super-peers has it in its super-closure.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple

from . import ast
from .ast import Multiplicity
from .diagnostics import Diagnostic, SourceError
from .records import record


class ArchError(SourceError):
    pass


class PeerId(NamedTuple):
    """Globally unique peer identity: include path (at most one level) + name.

    A tuple, so hashing, equality and (path, name) ordering run in C."""

    path: tuple[str, ...]
    name: str

    def __str__(self) -> str:
        return ".".join(self.path + (self.name,))


@record
class PeerInfo:
    supers: tuple[PeerId, ...]
    declared_ties: dict[PeerId, Multiplicity]


@record
class FlatDef:
    """A definition after include flattening; `include` is the alias it came from."""

    name: str  # qualified, e.g. "mon.heartbeat" for included defs
    include: str | None
    decl: ast.DefDecl


@record
class Architecture:
    module_name: str
    peers: dict[PeerId, PeerInfo]
    placements: dict[str, PeerId]
    def_order: list[str]
    defs: list[FlatDef]
    includes: dict[str, str]  # alias -> module name

    @cached_property
    def closures(self) -> dict[PeerId, frozenset[PeerId]]:
        """Every peer's super-closure, built once from `peers`."""
        return super_closures({p: info.supers for p, info in self.peers.items()})

    def super_closure(self, p: PeerId) -> frozenset[PeerId]:
        """p together with all transitive super-peers."""
        return self.closures[p]

    @cached_property
    def inherited_ties(self) -> dict[PeerId, dict[PeerId, Multiplicity]]:
        """Every peer's ties, declared on it or its super-peers, most specific
        per target: the runtime connection contract, built once. Targets stay
        as declared; admission matches a remote against each entry whose target
        it is a sub-peer of. (The checker's effective ties also widen targets
        over their sub-peers, a typing notion.)"""
        table = {}
        for pid, closure in self.closures.items():
            merged: dict[PeerId, Multiplicity] = {}
            for member in closure:
                for target, mult in self.peers[member].declared_ties.items():
                    merged[target] = min(mult, merged.get(target, Multiplicity.MULTIPLE))
            table[pid] = merged
        return table


def super_closures(supers: Mapping[PeerId, Sequence[PeerId]]) -> dict[PeerId, frozenset[PeerId]]:
    """The super-closure of every peer in `supers` (peer -> direct super-peers)."""
    return {p: _walk_closure(supers, p) for p in supers}


def _walk_closure(supers: Mapping[PeerId, Sequence[PeerId]], p: PeerId) -> frozenset[PeerId]:
    seen = {p}
    stack = [p]
    while stack:
        for s in supers[stack.pop()]:
            if s not in seen:
                seen.add(s)
                stack.append(s)
    return frozenset(seen)


def parse_peer_name(name: str) -> PeerId:
    """Peer id from its dotted name: "Node" or "mon.Monitored"."""
    if "." not in name:
        return PeerId((), name)
    path, _, base = name.rpartition(".")
    return PeerId(tuple(path.split(".")), base)


EffectiveTies = dict  # (PeerId, PeerId) -> Multiplicity


def peer_id_of(ref: ast.PeerRef, scope: str | None) -> PeerId:
    """The peer a reference names. `scope` is the include alias the reference
    appears in (None for the top-level module)."""
    if ref.qualifier is not None:
        return PeerId((ref.qualifier,), ref.name)
    return PeerId((scope,) if scope is not None else (), ref.name)


def _resolve_ref(ref: ast.PeerRef, known: Mapping[PeerId, ast.PeerDecl], scope: str | None,
                 diags: list[Diagnostic]) -> PeerId | None:
    """Resolve a peer reference, or report it unknown."""
    pid = peer_id_of(ref, scope)
    if pid not in known:
        diags.append(Diagnostic(ref.pos, f"unknown peer '{ref}'"))
        return None
    return pid


def resolve_architecture(m: ast.SurfaceModule,
                         registry: dict[str, ast.SurfaceModule] | None = None) -> Architecture:
    registry = registry or {}
    diags: list[Diagnostic] = []

    scoped: list[tuple[str | None, ast.SurfaceModule]] = []
    includes: dict[str, str] = {}
    for inc in m.includes:
        sub = registry.get(inc.module_name)
        if sub is None:
            diags.append(Diagnostic(inc.pos, f"unknown include module '{inc.module_name}'"))
            continue
        if sub.includes:
            diags.append(Diagnostic(inc.pos, f"module '{inc.module_name}' has includes of its own; "
                                             "nested includes are not supported"))
            continue
        includes[inc.alias] = inc.module_name
        scoped.append((inc.alias, sub))
    scoped.append((None, m))

    known = {PeerId((scope,) if scope else (), p.name): p
             for scope, mod in scoped for p in mod.peers}
    peers: dict[PeerId, PeerInfo] = {}
    for scope, mod in scoped:
        for p in mod.peers:
            pid = PeerId((scope,) if scope else (), p.name)
            supers = []
            for s in p.supers:
                rid = _resolve_ref(s, known, scope, diags)
                if rid is not None:
                    supers.append(rid)
            ties: dict[PeerId, Multiplicity] = {}
            for mult, ref in p.ties:
                rid = _resolve_ref(ref, known, scope, diags)
                if rid is None:
                    continue
                ties[rid] = min(mult, ties.get(rid, Multiplicity.MULTIPLE))
            peers[pid] = PeerInfo(tuple(supers), ties)

    flat_defs: list[FlatDef] = []
    placements: dict[str, PeerId] = {}
    for scope, mod in scoped:
        for d in mod.defs:
            name = f"{scope}.{d.name}" if scope else d.name
            pid = _resolve_ref(d.placed_on, known, scope, diags)
            flat_defs.append(FlatDef(name, scope, d))
            if pid is not None:
                placements[name] = pid

    a = Architecture(
        module_name=m.name,
        peers=peers,
        placements=placements,
        def_order=[d.name for d in flat_defs],
        defs=flat_defs,
        includes=includes,
    )
    closures = a.closures
    for p in sorted(peers):
        if any(p in closures[s] for s in peers[p].supers):
            diags.append(Diagnostic(known[p].pos, f"cyclic peer supertypes involving '{p}'"))
            break
    if diags:
        raise ArchError(diags)
    return a


def effective_ties(a: Architecture) -> EffectiveTies:
    """Tie table over all peer pairs; absence of an entry means "not tied".

    Entries are in sorted (left, right) order. Each inherited tie of a left
    peer reaches every right peer whose super-closure holds the tie's target.
    """
    sub_peers: dict[PeerId, list[PeerId]] = {p: [] for p in a.peers}
    for p, closure in a.closures.items():
        for q in closure:
            sub_peers[q].append(p)
    order = sorted(a.peers)
    table: EffectiveTies = {}
    for left in order:
        row: dict[PeerId, Multiplicity] = {}
        # least specific first, so that the most specific tie is written last
        for target, mult in sorted(a.inherited_ties[left].items(), key=itemgetter(1), reverse=True):
            row.update(dict.fromkeys(sub_peers[target], mult))
        for right in order:
            if right in row:
                table[(left, right)] = row[right]
    return table
