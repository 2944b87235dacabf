"""Seeded input generators and the independent oracles the checks use.

Nothing here imports locic: the expected values (effective ties, super
closures, slot availability, settled values, mapped streams) are computed
from the generator's own lists, so a check never compares the program
against itself or against a saved copy of its output.

Sizes and payload mixes are fixed; the seed chooses names, lattice shape,
ties, placements, literal contents and order. That keeps the amount of work
per run the same across seeds while the inputs differ.
"""

from __future__ import annotations

import random
import string

MULTS = ("single", "optional", "multiple")
RANK = {m: i for i, m in enumerate(MULTS)}  # lower is more specific

_ALNUM = string.ascii_letters + string.digits


def _text(rng: random.Random, n: int) -> str:
    return "".join(rng.choice(_ALNUM + " ") for _ in range(n))


# --- types and literals --------------------------------------------------
# A type is ("Int",), ("Bool",), ("Str",), ("tuple", (t, ...)), ("Stream", t),
# ("Future", t), ("Option", t), ("Seq", t) or ("Remote", peer-id-string).

INT, BOOL, STR = ("Int",), ("Bool",), ("Str",)


def is_data(t) -> bool:
    if t[0] == "tuple":
        return all(is_data(i) for i in t[1])
    return t[0] in ("Int", "Bool", "Str")


def render_type(t, scope: str | None = None) -> str:
    k = t[0]
    if k in ("Int", "Bool", "Str"):
        return k
    if k == "tuple":
        return "(" + ", ".join(render_type(i, scope) for i in t[1]) + ")"
    if k == "Remote":
        return f"Remote[{peer_ref(t[1], scope)}]"
    return f"{k}[{render_type(t[1], scope)}]"


def literal(v) -> str:
    """Source text of a data value (Python int, bool, str or tuple)."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return '"' + v + '"'
    return "(" + ", ".join(literal(i) for i in v) + ")"


def type_of(v):
    if isinstance(v, bool):
        return BOOL
    if isinstance(v, int):
        return INT
    if isinstance(v, str):
        return STR
    return ("tuple", tuple(type_of(i) for i in v))


def random_value(rng: random.Random, depth: int = 0):
    r = rng.random()
    if depth < 2 and r < 0.2:
        return tuple(random_value(rng, depth + 1) for _ in range(rng.randint(2, 3)))
    r = rng.random()
    if r < 0.4:
        return rng.randrange(0, 10**6)
    if r < 0.6:
        return rng.random() < 0.5
    return _text(rng, rng.randint(0, 12))


# --- architecture oracle ---------------------------------------------------

def peer_ref(pid: str, scope: str | None) -> str:
    """How peer `pid` ("P3" or "lib.L0") is written inside `scope`."""
    if scope is not None and pid.startswith(scope + "."):
        return pid[len(scope) + 1:]
    return pid


def closures(supers: dict[str, list[str]]) -> dict[str, frozenset[str]]:
    """Each peer with all its transitive super-peers."""
    out = {}
    for p in supers:
        seen = {p}
        todo = [p]
        while todo:
            for s in supers[todo.pop()]:
                if s not in seen:
                    seen.add(s)
                    todo.append(s)
        out[p] = frozenset(seen)
    return out


def tie_oracle(supers: dict[str, list[str]],
               ties: dict[str, list[tuple[str, str]]]) -> dict[tuple[str, str], str]:
    """Brute-force effective ties: for every ordered peer pair, every tie
    declared by a member of the left closure on a member of the right
    closure; the most specific multiplicity wins."""
    clo = closures(supers)
    table = {}
    for left in supers:
        for right in supers:
            best = None
            for a in clo[left]:
                for target, mult in ties[a]:
                    if target in clo[right] and (best is None or RANK[mult] < RANK[best]):
                        best = mult
            if best is not None:
                table[(left, right)] = best
    return table


def slot_marks(supers: dict[str, list[str]], order: list[str],
               placed: dict[str, str]) -> dict[str, list[bool]]:
    """Per peer, in definition order: is the definition evaluated there? It
    is exactly when it is placed on the peer or one of its super-peers."""
    clo = closures(supers)
    return {c: [placed[name] in clo[c] for name in order] for c in supers}


# --- compile workload: a pool of generated modules -----------------------------

# (main peers, main definitions, modules of that size in a pool). The mix is
# arranged so the median operation falls in the middle of the second class
# and the 90th percentile in the middle of the last one.
POOL_CLASSES = ((6, 12, 10), (16, 32, 12), (32, 64, 4), (48, 96, 6))
LIB_PEERS = 4
LIB_DEFS = 6


class _ModuleBuilder:
    def __init__(self, rng: random.Random, supers, ties):
        self.rng = rng
        self.clo = closures(supers)
        self.oracle = tie_oracle(supers, ties)
        self.defs: list[dict] = []  # name, peer, type, scope, text

    def _ref(self, d: dict, scope: str | None) -> str:
        return peer_ref(d["name"], scope)

    def add_defs(self, peers: list[str], n: int, scope: str | None, prefix: str) -> None:
        rng = self.rng
        shapes = ["single", "optional", "multiple", "stream"]
        # every peer holds the same number of definitions
        placements = [peers[i % len(peers)] for i in range(n)]
        rng.shuffle(placements)
        for i in range(n):
            name = f"{prefix}{i}"
            full = f"{scope}.{name}" if scope else name
            peer = placements[i]
            visible = [d for d in self.defs
                       if d["scope"] == scope or scope is None]
            local = [d for d in visible if d["peer"] in self.clo[peer]]
            remote = [d for d in visible
                      if (peer, d["peer"]) in self.oracle
                      and (is_data(d["type"]) or d["type"][0] == "Stream")]
            # cycle through the remote-access shapes first so that every
            # module has each shape where its ties allow it
            want = shapes[i % 4] if i < 8 else None
            made = None
            if want is not None:
                made = self._remote(peer, remote, scope, want)
            if made is None:
                r = rng.random()
                if r < 0.3:
                    made = self._remote(peer, remote, scope, None)
                elif r < 0.45:
                    made = self._source(rng)
                elif r < 0.6:
                    made = self._map(local, scope)
                elif r < 0.8:
                    made = self._compute(local, scope)
            if made is None:
                v = random_value(rng)
                made = (type_of(v), literal(v), "val")
            ty, body, kind = made
            if kind == "source":
                text = f"source {name}: {render_type(ty, scope)} on {peer_ref(peer, scope)}"
            else:
                text = f"val {name}: {render_type(ty, scope)} on {peer_ref(peer, scope)} = {body}"
            self.defs.append({"name": full, "peer": peer, "type": ty,
                              "scope": scope, "text": text})

    def _remote(self, peer, remote, scope, want):
        rng = self.rng
        options = []
        for d in remote:
            mult = self.oracle[(peer, d["peer"])]
            shape = "stream" if d["type"][0] == "Stream" else mult
            if d["type"][0] == "Stream" and mult != "single":
                continue
            if want is None or shape == want:
                options.append((d, mult, shape))
        if not options:
            return None
        d, mult, shape = rng.choice(options)
        ref = self._ref(d, scope)
        t = d["type"]
        if shape == "stream":
            return t, f"{ref}.asLocal", "val"
        if mult == "single":
            return ("Future", t), f"{ref}.asLocal", "val"
        if mult == "optional":
            return ("Option", ("Future", t)), f"{ref}.asLocal", "val"
        pair = ("tuple", (("Remote", d["peer"]), ("Future", t)))
        return ("Seq", pair), f"{ref}.asLocalFromAll", "val"

    def _source(self, rng):
        elem = INT if rng.random() < 0.6 else ("tuple", (INT, STR))
        return ("Stream", elem), "", "source"

    def _map(self, local, scope):
        streams = [d for d in local if d["type"] == ("Stream", INT)]
        if not streams:
            return None
        d = self.rng.choice(streams)
        a, b = self.rng.randint(2, 9), self.rng.randint(1, 99)
        if self.rng.random() < 0.5:
            return ("Stream", INT), f"{self._ref(d, scope)}.map(v => v * {a} + {b})", "val"
        return ("Stream", BOOL), f"{self._ref(d, scope)}.map(v => v < {a * b})", "val"

    def _compute(self, local, scope):
        ints = [d for d in local if d["type"] == INT]
        data = [d for d in local if is_data(d["type"])]
        rng = self.rng
        if ints and rng.random() < 0.5:
            x = rng.choice(ints)
            y = rng.choice(ints)
            return INT, f"{self._ref(x, scope)} * {rng.randint(2, 9)} - {self._ref(y, scope)}", "val"
        if data:
            x = rng.choice(data)
            v = random_value(rng, 2)
            return ("tuple", (x["type"], type_of(v))), f"({self._ref(x, scope)}, {literal(v)})", "val"
        return None


def compile_module(rng: random.Random, n_peers: int, n_defs: int) -> dict:
    """One generated program (an included module plus the main module) and
    everything the checks expect of it."""
    supers: dict[str, list[str]] = {}
    ties: dict[str, list[tuple[str, str]]] = {}
    # the seed picks which peers are supers and tie targets; how many each
    # peer has is fixed, so modules of one size class cost about the same
    lib = [f"lib.L{i}" for i in range(LIB_PEERS)]
    for i, p in enumerate(lib):
        supers[p] = rng.sample(lib[:i], 1) if i >= 2 else []
        ties[p] = [(rng.choice(lib), rng.choice(MULTS))]
    main = [f"P{i}" for i in range(n_peers)]
    for i, p in enumerate(main):
        below = main[:i] + lib
        supers[p] = rng.sample(below, 2 if i % 3 == 2 else 1)
        ties[p] = [(rng.choice(main + lib), rng.choice(MULTS)) for _ in range(2)]

    b = _ModuleBuilder(rng, supers, ties)
    b.add_defs(lib, LIB_DEFS, "lib", "x")
    b.add_defs(main, n_defs, None, "d")

    def peer_decl(p, scope):
        line = f"  peer {peer_ref(p, scope)}"
        if supers[p]:
            line += " : " + ", ".join(peer_ref(s, scope) for s in supers[p])
        tie_text = ", ".join(f"{m} {peer_ref(t, scope)}" for t, m in ties[p])
        return line + " { tie: " + tie_text + " }"

    lines = ["module Lib {"]
    lines += [peer_decl(p, "lib") for p in lib]
    lines += ["  " + d["text"] for d in b.defs if d["scope"] == "lib"]
    lines += ["}", "module Main {", "  include lib: Lib"]
    lines += [peer_decl(p, None) for p in main]
    lines += ["  " + d["text"] for d in b.defs if d["scope"] is None]
    lines.append("}")

    order = [d["name"] for d in b.defs if d["scope"] == "lib"] + \
            [d["name"] for d in b.defs if d["scope"] is None]
    placed = {d["name"]: d["peer"] for d in b.defs}
    return {
        "source": "\n".join(lines) + "\n",
        "ties": {f"{l} {r}": m for (l, r), m in sorted(b.oracle.items())},
        "slot_order": order,
        "evaluated": slot_marks(supers, order, placed),
    }


def compile_pool(seed: int) -> list[dict]:
    rng = random.Random(f"compile-{seed}")
    pool = []
    for n_peers, n_defs, count in POOL_CLASSES:
        for _ in range(count):
            pool.append(compile_module(rng, n_peers, n_defs))
    rng.shuffle(pool)
    return pool


# --- settle workload: one hub, two spokes, pulled values ------------------------

SETTLE_VALUES = 32
# payload mix of the hub values, cycled: Str lengths run from 1 B to 1 KB
_SETTLE_KINDS = ("int", "bool", ("str", 1), ("str", 16), ("str", 128), ("str", 1024),
                 "nested", "int")


def _settle_value(rng: random.Random, kind):
    if kind == "int":
        return rng.randrange(10**8, 10**9)
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "nested":
        return ((rng.randrange(10**8, 10**9), _text(rng, 8)),
                (rng.random() < 0.5, rng.randrange(10**8, 10**9)))
    return _text(rng, kind[1])


def settle_module(seed: int) -> dict:
    rng = random.Random(f"settle-{seed}")
    kinds = [_SETTLE_KINDS[i % len(_SETTLE_KINDS)] for i in range(SETTLE_VALUES)]
    rng.shuffle(kinds)
    values = [_settle_value(rng, k) for k in kinds]
    spoke_value = (rng.randrange(10**8, 10**9), _text(rng, 16))
    lines = ["module Settle {",
             "  peer Hub { tie: multiple Spoke }",
             "  peer Spoke { tie: single Hub }"]
    for i, v in enumerate(values):
        lines.append(f"  val h{i}: {render_type(type_of(v))} on Hub = {literal(v)}")
    st = render_type(type_of(spoke_value))
    lines.append(f"  val sv: {st} on Spoke = {literal(spoke_value)}")
    for i, v in enumerate(values):
        lines.append(f"  val p{i}: Future[{render_type(type_of(v))}] on Spoke = h{i}.asLocal")
    lines.append(f"  val g: Seq[(Remote[Spoke], Future[{st}])] on Hub = sv.asLocalFromAll")
    lines.append("}")
    return {
        "source": "\n".join(lines) + "\n",
        # the hub connects to both spokes (it is listed last); see README
        "peers": ["Spoke", "Spoke", "Hub"],
        "pulled": {f"p{i}": v for i, v in enumerate(values)},
        "spoke_value": spoke_value,
    }


# --- stream workload: one sensor, two displays, pushed values ---------------------

STREAM_ROUND = 1000  # messages per round; a run fires whole rounds
STREAM_WINDOW = 8  # fired but not yet delivered at the last display
_PAIR_STR_LENGTHS = (1, 8, 32, 128)


def stream_inputs(seed: int) -> dict:
    rng = random.Random(f"stream-{seed}")
    a, b = rng.randint(2, 9), rng.randint(1, 99)
    kinds = ["ints", "pairs"] * (STREAM_ROUND // 2)
    rng.shuffle(kinds)
    messages = []
    n_pairs = 0
    for k in kinds:
        if k == "ints":
            messages.append(("ints", rng.randrange(10**5, 10**6)))
        else:
            length = _PAIR_STR_LENGTHS[n_pairs % len(_PAIR_STR_LENGTHS)]
            n_pairs += 1
            messages.append(("pairs", (rng.randrange(10**5, 10**6), _text(rng, length))))
    source = "\n".join([
        "module Telemetry {",
        "  peer Sensor { tie: multiple Display }",
        "  peer Display { tie: single Sensor }",
        "  source ints: Stream[Int] on Sensor",
        "  source pairs: Stream[(Int, Str)] on Sensor",
        "  val marker: Int on Sensor = 1",
        "  val mi: Stream[Int] on Display = ints.asLocal",
        "  val mp: Stream[(Int, Str)] on Display = pairs.asLocal",
        f"  val mapped: Stream[Int] on Display = mi.map(v => v * {a} + {b})",
        "  val mk: Future[Int] on Display = marker.asLocal",
        "}",
    ]) + "\n"
    return {
        "source": source,
        "peers": ["Sensor", "Display", "Display"],
        "messages": messages,
        "expected": {
            "mapped": [v * a + b for k, v in messages if k == "ints"],
            "mp": [v for k, v in messages if k == "pairs"],
        },
        "window": STREAM_WINDOW,
    }


def inputs(workload: str, seed: int):
    if workload == "compile":
        return {"pool": compile_pool(seed)}
    if workload == "settle":
        return settle_module(seed)
    if workload == "stream":
        return stream_inputs(seed)
    raise ValueError(f"unknown workload '{workload}'")
