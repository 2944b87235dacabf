"""Architecture resolution: flatten includes, build the peer lattice, compute ties.

Effective ties combine every tie declared on a peer or its super-peers,
targeting a peer or its super-peers, and keep the most specific multiplicity
(single beats optional beats multiple).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from . import ast
from .ast import Multiplicity
from .diagnostics import Diagnostic, SourceError


class ArchError(SourceError):
    pass


@dataclass(frozen=True, order=True)
class PeerId:
    """Globally unique peer identity: include path (at most one level) + name."""

    path: tuple[str, ...]
    name: str

    def __str__(self) -> str:
        return ".".join(self.path + (self.name,))


@dataclass
class PeerInfo:
    supers: tuple[PeerId, ...]
    declared_ties: dict[PeerId, Multiplicity]


@dataclass(frozen=True)
class FlatDef:
    """A definition after include flattening; `include` is the alias it came from."""

    name: str  # qualified, e.g. "mon.heartbeat" for included defs
    include: str | None
    decl: ast.DefDecl


@dataclass
class Architecture:
    module_name: str
    peers: dict[PeerId, PeerInfo]
    placements: dict[str, PeerId]
    def_order: list[str]
    defs: list[FlatDef]
    includes: dict[str, str] = field(default_factory=dict)  # alias -> module name
    # every peer's super-closure, built once from `peers`
    closures: dict[PeerId, frozenset[PeerId]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.closures = super_closures({p: info.supers for p, info in self.peers.items()})

    def super_closure(self, p: PeerId) -> frozenset[PeerId]:
        """p together with all transitive super-peers."""
        return self.closures[p]


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


def _resolve_ref(ref: ast.PeerRef, known: set[PeerId], scope: str | None,
                 diags: list[Diagnostic]) -> PeerId | None:
    """Resolve a peer reference. `scope` is the include alias the reference
    appears in (None for the top-level module)."""
    if ref.qualifier is not None:
        pid = PeerId((ref.qualifier,), ref.name)
    elif scope is not None:
        pid = PeerId((scope,), ref.name)
    else:
        pid = PeerId((), ref.name)
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

    known: set[PeerId] = set()
    for scope, mod in scoped:
        for p in mod.peers:
            known.add(PeerId((scope,) if scope else (), p.name))

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

    _check_acyclic(peers, m, diags)
    if diags:
        raise ArchError(diags)

    return Architecture(
        module_name=m.name,
        peers=peers,
        placements=placements,
        def_order=[d.name for d in flat_defs],
        defs=flat_defs,
        includes=includes,
    )


def _check_acyclic(peers: dict[PeerId, PeerInfo], m: ast.SurfaceModule,
                   diags: list[Diagnostic]) -> None:
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {p: WHITE for p in peers}

    def visit(p: PeerId) -> bool:
        color[p] = GRAY
        for s in peers[p].supers:
            if s not in color:
                continue
            if color[s] == GRAY:
                return False
            if color[s] == WHITE and not visit(s):
                return False
        color[p] = BLACK
        return True

    for p in sorted(peers):
        if color[p] == WHITE and not visit(p):
            decl_pos = next((d.pos for d in m.peers if d.name == p.name), m.pos)
            diags.append(Diagnostic(decl_pos, f"cyclic peer supertypes involving '{p}'"))
            return


def inherited_ties(a: Architecture, pid: PeerId) -> dict[PeerId, Multiplicity]:
    """Ties declared on a peer or its super-peers, most specific per target.

    This is the runtime connection contract: targets stay as declared, and
    admission later matches a remote against an entry whenever the remote is
    a sub-peer of the entry's target. (The checker's effective-tie table,
    which also widens targets over their sub-peers, is a typing notion.)
    """
    merged: dict[PeerId, Multiplicity] = {}
    for member in a.closures[pid]:
        for target, mult in a.peers[member].declared_ties.items():
            merged[target] = min(mult, merged.get(target, Multiplicity.MULTIPLE))
    return merged


def effective_ties(a: Architecture) -> EffectiveTies:
    """Tie table over all peer pairs; absence of an entry means "not tied".

    Entries are in sorted (left, right) order. Each inherited tie of a left
    peer reaches every right peer whose super-closure holds the tie's target.
    """
    sub_peers: dict[PeerId, list[PeerId]] = {p: [] for p in a.peers}
    for p, closure in a.closures.items():
        for q in closure:
            sub_peers[q].append(p)
    table: EffectiveTies = {}
    for left in sorted(a.peers):
        row: dict[PeerId, Multiplicity] = {}
        for target, mult in inherited_ties(a, left).items():
            for right in sub_peers[target]:
                row[right] = min(mult, row.get(right, mult))
        for right in sorted(row):
            table[(left, right)] = row[right]
    return table


def is_subpeer(a: Architecture, p: PeerId, q: PeerId) -> bool:
    """True iff p is q or q is one of p's transitive super-peers."""
    return q in a.closures[p]
