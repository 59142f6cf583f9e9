"""System model: sparsity patterns, subsystems, interconnections, graph views.

Everything downstream works on zero/nonzero structure only.  A pattern is a
set of (row, col) positions; a system is a list of subsystems plus directed
connection patterns between them ("from" feeds "to").
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_str
from typing import Iterable

Pair = tuple[int, int]


class ModelError(ValueError):
    """Malformed pattern, system, or input file."""


# ---------------------------------------------------------------------------
# patterns


@dataclass(frozen=True)
class SparsityPattern:
    """A ``rows x cols`` zero/nonzero pattern stored as (row, col) pairs."""

    rows: int
    cols: int
    nonzeros: frozenset[Pair] = frozenset()

    def __post_init__(self) -> None:
        rows, cols = self.rows, self.cols
        if rows < 0 or cols < 0:
            raise ModelError(f"pattern shape ({rows}, {cols}) is negative")
        # frozenset() hands a frozenset back as is, so this copies only other inputs
        object.__setattr__(self, "nonzeros", frozenset(self.nonzeros))
        for r, c in self.nonzeros:
            if not (type(r) is int and type(c) is int and 0 <= r < rows and 0 <= c < cols):
                raise ModelError(
                    f"nonzero ({r!r}, {c!r}) is not an integer position in a "
                    f"{rows}x{cols} pattern"
                )

    @property
    def is_zero(self) -> bool:
        return not self.nonzeros

    def __or__(self, other: "SparsityPattern") -> "SparsityPattern":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ModelError(
                f"cannot union {self.rows}x{self.cols} with {other.rows}x{other.cols}"
            )
        return SparsityPattern(self.rows, self.cols, self.nonzeros | other.nonzeros)


# ---------------------------------------------------------------------------
# systems


@dataclass(frozen=True)
class Subsystem:
    """One block: ``n`` states, ``p`` inputs, local patterns A (n x n), B (n x p)."""

    id: int
    n: int
    p: int
    A: SparsityPattern
    B: SparsityPattern

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ModelError(f"subsystem {self.id}: state count must be >= 1")
        if self.p < 0:
            raise ModelError(f"subsystem {self.id}: input count must be >= 0")
        if (self.A.rows, self.A.cols) != (self.n, self.n):
            raise ModelError(
                f"subsystem {self.id}: A is {self.A.rows}x{self.A.cols}, expected {self.n}x{self.n}"
            )
        if (self.B.rows, self.B.cols) != (self.n, self.p):
            raise ModelError(
                f"subsystem {self.id}: B is {self.B.rows}x{self.B.cols}, expected {self.n}x{self.p}"
            )


@dataclass(frozen=True)
class Interconnection:
    """States of subsystem ``from_`` entering the dynamics of subsystem ``to``.

    ``E`` has shape (n_to, n_from): entry (t, f) couples source state f of the
    feeding subsystem into target state t.
    """

    to: int
    from_: int
    E: SparsityPattern


@dataclass(frozen=True)
class InterconnectedSystem:
    subsystems: tuple[Subsystem, ...]
    connections: tuple[Interconnection, ...]

    def __post_init__(self) -> None:
        subs = tuple(sorted(self.subsystems, key=lambda s: s.id))
        object.__setattr__(self, "subsystems", subs)
        object.__setattr__(self, "connections", tuple(self.connections))
        ids = [s.id for s in subs]
        if ids != list(range(len(subs))):
            raise ModelError(f"subsystem ids must be exactly 0..r-1, got {ids}")
        if not subs:
            raise ModelError("a system needs at least one subsystem")
        seen: set[Pair] = set()
        for conn in self.connections:
            if conn.to == conn.from_:
                raise ModelError(f"connection ({conn.to}, {conn.from_}) is a self-loop")
            for end in (conn.to, conn.from_):
                if not 0 <= end < len(subs):
                    raise ModelError(f"connection references unknown subsystem {end}")
            if (conn.to, conn.from_) in seen:
                raise ModelError(
                    f"duplicate connection to={conn.to} from={conn.from_}"
                )
            seen.add((conn.to, conn.from_))
            n_to, n_from = subs[conn.to].n, subs[conn.from_].n
            if (conn.E.rows, conn.E.cols) != (n_to, n_from):
                raise ModelError(
                    f"connection to={conn.to} from={conn.from_}: E is "
                    f"{conn.E.rows}x{conn.E.cols}, expected {n_to}x{n_from}"
                )
            if conn.E.is_zero:
                raise ModelError(
                    f"connection to={conn.to} from={conn.from_} has an empty pattern"
                )

    @property
    def r(self) -> int:
        return len(self.subsystems)

    @property
    def n_total(self) -> int:
        return sum(s.n for s in self.subsystems)

    @property
    def p_total(self) -> int:
        return sum(s.p for s in self.subsystems)

    def subsystem(self, i: int) -> Subsystem:
        return self.subsystems[i]

    def state_offset(self, i: int) -> int:
        return sum(s.n for s in self.subsystems[:i])

    def input_offset(self, i: int) -> int:
        return sum(s.p for s in self.subsystems[:i])

    def incoming(self, i: int) -> tuple[Interconnection, ...]:
        """Connections feeding subsystem i, sorted by source id."""
        return tuple(
            sorted((c for c in self.connections if c.to == i), key=lambda c: c.from_)
        )

    def outgoing(self, i: int) -> tuple[Interconnection, ...]:
        """Connections through which subsystem i feeds others, sorted by target id."""
        return tuple(
            sorted((c for c in self.connections if c.from_ == i), key=lambda c: c.to)
        )


def assemble_global(sys: InterconnectedSystem) -> tuple[SparsityPattern, SparsityPattern]:
    """Stack subsystems into global (A, B) patterns.

    A carries the local blocks on the diagonal and each connection pattern at
    block position (to, from); B is block diagonal.
    """
    n, p = sys.n_total, sys.p_total
    a_entries: set[Pair] = set()
    b_entries: set[Pair] = set()
    for sub in sys.subsystems:
        dr = sys.state_offset(sub.id)
        dc_in = sys.input_offset(sub.id)
        a_entries.update((dr + i, dr + j) for i, j in sub.A.nonzeros)
        b_entries.update((dr + i, dc_in + j) for i, j in sub.B.nonzeros)
    for conn in sys.connections:
        dr = sys.state_offset(conn.to)
        dc = sys.state_offset(conn.from_)
        a_entries.update((dr + i, dc + j) for i, j in conn.E.nonzeros)
    return SparsityPattern(n, n, frozenset(a_entries)), SparsityPattern(
        n, p, frozenset(b_entries)
    )


# ---------------------------------------------------------------------------
# graph views
#
# A graph is one sorted successor list per vertex 0..len(g)-1.  In the graph
# of (A, B), state j is vertex j and input column j is vertex n + j.

Graph = list[list[int]]


def digraph(count: int, edges: Iterable[Pair]) -> Graph:
    """The graph on vertices 0..count-1 with the given (tail, head) edges."""
    succ: Graph = [[] for _ in range(count)]
    for t, h in edges:
        succ[t].append(h)
    for heads in succ:
        heads.sort()
    return succ


def state_digraph(A: SparsityPattern) -> Graph:
    """Edge l -> k iff A[k, l] is nonzero."""
    return digraph(A.rows, ((l, k) for k, l in A.nonzeros))


def system_digraph(A: SparsityPattern, B: SparsityPattern) -> Graph:
    """The state digraph plus vertex n + j per input column j, with edge
    n + j -> i iff B[i, j] is nonzero.  Unused input columns stay isolated."""
    n = A.rows
    state_edges = ((l, k) for k, l in A.nonzeros)
    input_edges = ((n + j, i) for i, j in B.nonzeros)
    return digraph(n + B.cols, chain(state_edges, input_edges))


# Read with every vertex on the left and the states 0..n-1 on the right, the
# system digraph is the bipartite graph of (A, B).
system_bipartite = system_digraph


def block_digraph(sys: InterconnectedSystem) -> Graph:
    """``system_digraph(*assemble_global(sys))``, read straight off the
    blocks: each A, B and E is walked once with its state and input offsets.
    Connections never repeat a (to, from) pair or loop on one subsystem, so
    no two blocks share an edge."""
    n = sys.n_total
    succ: Graph = [[] for _ in range(n + sys.p_total)]
    offset = []
    dr, dc = 0, n
    for sub in sys.subsystems:
        offset.append(dr)
        for k, l in sub.A.nonzeros:
            succ[dr + l].append(dr + k)
        for k, j in sub.B.nonzeros:
            succ[dc + j].append(dr + k)
        dr += sub.n
        dc += sub.p
    for conn in sys.connections:
        dt, df = offset[conn.to], offset[conn.from_]
        for t, f in conn.E.nonzeros:
            succ[df + f].append(dt + t)
    for heads in succ:
        heads.sort()
    return succ


def condensed_graph(sys: InterconnectedSystem) -> Graph:
    """One vertex per subsystem; edge i -> j iff some connection has from=i, to=j."""
    return digraph(sys.r, ((c.from_, c.to) for c in sys.connections))


def is_weakly_connected(g: Graph) -> bool:
    if not g:
        return True
    adj = [set(heads) for heads in g]
    for t, heads in enumerate(g):
        for h in heads:
            adj[h].add(t)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(g)


# ---------------------------------------------------------------------------
# JSON files

_TOP_KEYS = {"subsystems", "connections"}
_SUB_KEYS = {"id", "n", "p", "A", "B"}
_CONN_KEYS = {"to", "from", "E"}


def _check_keys(obj: dict, expected: set[str], where: str) -> None:
    missing = expected - obj.keys()
    unknown = obj.keys() - expected
    if missing:
        raise ModelError(f"{where}: missing key(s) {sorted(missing)}")
    if unknown:
        raise ModelError(f"{where}: unknown key(s) {sorted(unknown)}")


def _parse_pairs(value, rows: int, cols: int, where: str) -> SparsityPattern:
    if not isinstance(value, list):
        raise ModelError(f"{where}: expected a list of [row, col] pairs")
    try:  # SparsityPattern checks each pair; the loop below runs only to name a bad one
        return SparsityPattern(rows, cols, frozenset([(r, c) for r, c in value]))
    except (TypeError, ValueError) as exc:
        error = str(exc)
    for k, item in enumerate(value):
        if not (isinstance(item, list) and len(item) == 2 and all(
                isinstance(v, int) and not isinstance(v, bool) for v in item)):
            raise ModelError(f"{where}[{k}]: expected an integer pair [row, col]")
    raise ModelError(f"{where}: {error}")


def _require_int(obj: dict, key: str, where: str) -> int:
    v = obj.get(key)
    if not isinstance(v, int) or isinstance(v, bool):
        raise ModelError(f"{where}: key '{key}' must be an integer")
    return v


def system_from_obj(obj) -> InterconnectedSystem:
    if not isinstance(obj, dict):
        raise ModelError("top level: expected a JSON object")
    if "similar" in obj:
        raise ModelError(
            "top level: this is a 'similar' template file; use the similar loader"
        )
    _check_keys(obj, _TOP_KEYS, "top level")
    if not isinstance(obj["subsystems"], list):
        raise ModelError("'subsystems' must be a list")
    if not isinstance(obj["connections"], list):
        raise ModelError("'connections' must be a list")
    subs = []
    for k, raw in enumerate(obj["subsystems"]):
        where = f"subsystems[{k}]"
        if not isinstance(raw, dict):
            raise ModelError(f"{where}: expected an object")
        _check_keys(raw, _SUB_KEYS, where)
        sid = _require_int(raw, "id", where)
        n = _require_int(raw, "n", where)
        p = _require_int(raw, "p", where)
        try:
            subs.append(
                Subsystem(
                    id=sid,
                    n=n,
                    p=p,
                    A=_parse_pairs(raw["A"], n, n, f"{where}.A"),
                    B=_parse_pairs(raw["B"], n, p, f"{where}.B"),
                )
            )
        except ModelError as exc:
            raise ModelError(f"{where}: {exc}") from None
    conns = []
    n_of = {s.id: s.n for s in subs}
    for k, raw in enumerate(obj["connections"]):
        where = f"connections[{k}]"
        if not isinstance(raw, dict):
            raise ModelError(f"{where}: expected an object")
        _check_keys(raw, _CONN_KEYS, where)
        to = _require_int(raw, "to", where)
        frm = _require_int(raw, "from", where)
        if to not in n_of or frm not in n_of:
            raise ModelError(f"{where}: endpoint references an unknown subsystem id")
        conns.append(
            Interconnection(
                to=to,
                from_=frm,
                E=_parse_pairs(raw["E"], n_of[to], n_of[frm], f"{where}.E"),
            )
        )
    return InterconnectedSystem(tuple(subs), tuple(conns))


def system_to_obj(sys: InterconnectedSystem) -> dict:
    return {
        "subsystems": [
            {
                "id": s.id,
                "n": s.n,
                "p": s.p,
                "A": [list(rc) for rc in sorted(s.A.nonzeros)],
                "B": [list(rc) for rc in sorted(s.B.nonzeros)],
            }
            for s in sys.subsystems
        ],
        "connections": [
            {
                "to": c.to,
                "from": c.from_,
                "E": [list(rc) for rc in sorted(c.E.nonzeros)],
            }
            for c in sorted(sys.connections, key=lambda c: (c.to, c.from_))
        ],
    }


def loads(text: str) -> InterconnectedSystem:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"invalid JSON: {exc}") from None
    return system_from_obj(obj)


def indented_json(obj, newline: str = "\n") -> str:
    """The text ``json.dumps`` writes for ``obj`` with sorted keys and an indent
    of 2, without the pure-Python encoder that json's indenting runs on.
    ``newline`` carries the indentation of nested containers."""
    kind, inner = type(obj), newline + "  "
    if (kind is list or kind is tuple) and obj:
        items = [_json_str(v) if type(v) is str else int.__repr__(v) if type(v) is int
                 else indented_json(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if kind is dict and obj:
        # json sorts the keys as given, then writes non-string keys as text.
        items = [_json_str(k if isinstance(k, str) else json.dumps(k)) + ": "
                 + indented_json(v, inner) for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is str:
        return _json_str(obj)
    if kind is int:
        return int.__repr__(obj)
    return json.dumps(obj)  # empty containers, true/false/null and floats


def dumps(sys: InterconnectedSystem) -> str:
    return indented_json(system_to_obj(sys)) + "\n"


def load(path) -> InterconnectedSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def save(sys: InterconnectedSystem, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(sys))


# ---------------------------------------------------------------------------
# random instances


def _random_pattern(
    rng: random.Random, rows: int, cols: int, density: float, diagonal: bool = True
) -> SparsityPattern:
    """Each position is a nonzero with probability ``density``, one draw per
    position in row-major order; ``diagonal=False`` skips (i, i) undrawn."""
    nz = [
        (i, j)
        for i in range(rows)
        for j in range(cols)
        if (diagonal or i != j) and rng.random() < density
    ]
    return SparsityPattern(rows, cols, frozenset(nz))


def _nonempty_pattern(rng: random.Random, rows: int, cols: int, density: float) -> SparsityPattern:
    pat = _random_pattern(rng, rows, cols, density)
    if pat.is_zero:
        pat = SparsityPattern(
            rows, cols, frozenset({(rng.randrange(rows), rng.randrange(cols))})
        )
    return pat


def _random_subsystems(
    rng: random.Random,
    r: int,
    n_range: tuple[int, int],
    p_range: tuple[int, int],
    density: float,
) -> list[Subsystem]:
    subs = []
    for i in range(r):
        n = rng.randint(*n_range)
        p = rng.randint(*p_range)
        A = _random_pattern(rng, n, n, density)
        subs.append(Subsystem(i, n, p, A, _random_pattern(rng, n, p, density)))
    return subs


def random_system(
    r: int,
    n_range: tuple[int, int],
    p_range: tuple[int, int],
    density: float,
    seed: int,
    *,
    extra_conn_prob: float = 0.15,
) -> InterconnectedSystem:
    """A seeded random system whose condensed graph is weakly connected.

    Connections form a random spanning tree (random orientations) plus extra
    directed pairs with probability ``extra_conn_prob``; every connection
    pattern gets at least one nonzero.
    """
    rng = random.Random(seed)
    subs = _random_subsystems(rng, r, n_range, p_range, density)
    pairs: set[Pair] = set()  # (to, from)
    for v in range(1, r):
        parent = rng.randrange(v)
        if rng.random() < 0.5:
            pairs.add((parent, v))
        else:
            pairs.add((v, parent))
    for to in range(r):
        for frm in range(r):
            if to != frm and (to, frm) not in pairs and rng.random() < extra_conn_prob:
                pairs.add((to, frm))
    conns = [
        Interconnection(to, frm, _nonempty_pattern(rng, subs[to].n, subs[frm].n, density))
        for to, frm in sorted(pairs)
    ]
    return InterconnectedSystem(tuple(subs), tuple(conns))


def random_serial_system(
    r: int,
    n_range: tuple[int, int],
    p_range: tuple[int, int],
    density: float,
    seed: int,
) -> InterconnectedSystem:
    """Random system whose condensed graph is a tree with every edge oriented
    toward the parent, so each subsystem feeds at most one other."""
    rng = random.Random(seed)
    subs = _random_subsystems(rng, r, n_range, p_range, density)
    conns = []
    for v in range(1, r):
        parent = rng.randrange(v)
        conns.append(
            Interconnection(
                to=parent,
                from_=v,
                E=_nonempty_pattern(rng, subs[parent].n, subs[v].n, density),
            )
        )
    return InterconnectedSystem(tuple(subs), tuple(conns))
