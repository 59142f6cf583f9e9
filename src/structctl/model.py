"""System model: sparsity patterns, subsystems, interconnections, graph views.

Everything downstream works on zero/nonzero structure only.  A pattern is a
set of (row, col) positions; a system is a list of subsystems plus directed
connection patterns between them ("from" feeds "to").
"""

from __future__ import annotations

import json
import operator
import random
from dataclasses import dataclass
from itertools import chain, islice
from json.encoder import c_make_encoder
from json.encoder import encode_basestring_ascii as _json_str
from typing import Iterable

Pair = tuple[int, int]


class ModelError(ValueError):
    """Malformed pattern, system, or input file."""


# ---------------------------------------------------------------------------
# patterns


def _stray_pair(pairs: Iterable, rows: int, cols: int):
    """The first (row, col) of ``pairs`` that is not an integer position in a
    ``rows x cols`` pattern, or None.  An item that does not unpack into two
    values raises TypeError or ValueError."""
    for r, c in pairs:
        if not (type(r) is int and type(c) is int and 0 <= r < rows and 0 <= c < cols):
            return r, c
    return None


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
        stray = _stray_pair(self.nonzeros, rows, cols)
        if stray is not None:
            raise ModelError(
                f"nonzero ({stray[0]!r}, {stray[1]!r}) is not an integer position in a "
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


def _check_counts(sid: int, n: int, p: int) -> None:
    if n < 1:
        raise ModelError(f"subsystem {sid}: state count must be >= 1")
    if p < 0:
        raise ModelError(f"subsystem {sid}: input count must be >= 0")


@dataclass(frozen=True)
class Subsystem:
    """One block: ``n`` states, ``p`` inputs, local patterns A (n x n), B (n x p)."""

    id: int
    n: int
    p: int
    A: SparsityPattern
    B: SparsityPattern

    def __post_init__(self) -> None:
        _check_counts(self.id, self.n, self.p)
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


def _check_system(ids: list[int], ns: list[int], links: Iterable) -> None:
    """The checks of a whole system: the subsystem ``ids`` in ascending order
    with their state counts ``ns``, then each connection's (to, from, E rows,
    E cols, E empty) in order."""
    if ids != list(range(len(ids))):
        raise ModelError(f"subsystem ids must be exactly 0..r-1, got {ids}")
    if not ids:
        raise ModelError("a system needs at least one subsystem")
    seen: set[Pair] = set()
    for to, frm, rows, cols, empty in links:
        if to == frm:
            raise ModelError(f"connection ({to}, {frm}) is a self-loop")
        for end in (to, frm):
            if not 0 <= end < len(ids):
                raise ModelError(f"connection references unknown subsystem {end}")
        if (to, frm) in seen:
            raise ModelError(f"duplicate connection to={to} from={frm}")
        seen.add((to, frm))
        if (rows, cols) != (ns[to], ns[frm]):
            raise ModelError(
                f"connection to={to} from={frm}: E is {rows}x{cols}, "
                f"expected {ns[to]}x{ns[frm]}"
            )
        if empty:
            raise ModelError(f"connection to={to} from={frm} has an empty pattern")


@dataclass(frozen=True)
class InterconnectedSystem:
    subsystems: tuple[Subsystem, ...]
    connections: tuple[Interconnection, ...]

    def __post_init__(self) -> None:
        subs = tuple(sorted(self.subsystems, key=lambda s: s.id))
        object.__setattr__(self, "subsystems", subs)
        object.__setattr__(self, "connections", tuple(self.connections))
        _check_system(
            [s.id for s in subs],
            [s.n for s in subs],
            [(c.to, c.from_, c.E.rows, c.E.cols, c.E.is_zero) for c in self.connections],
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
    blocks."""
    return _block_graph(
        [(s.n, s.p, s.A.nonzeros, s.B.nonzeros) for s in sys.subsystems],
        [(c.to, c.from_, c.E.nonzeros) for c in sys.connections],
    )


def _block_graph(subs: list, conns: list) -> Graph:
    """The graph of the assembled (A, B) of subsystems (n, p, A pairs, B pairs)
    in id order and connections (to, from, E pairs): each block is walked once
    with its state and input offsets.  Connections never repeat a (to, from)
    pair or loop on one subsystem, so no two blocks share an edge."""
    n = sum(sub[0] for sub in subs)
    succ: Graph = [[] for _ in range(n + sum(sub[1] for sub in subs))]
    offset = []
    dr, dc = 0, n
    for sn, sp, A, B in subs:
        offset.append(dr)
        for k, l in A:
            succ[dr + l].append(dr + k)
        for k, j in B:
            succ[dc + j].append(dr + k)
        dr += sn
        dc += sp
    for to, frm, E in conns:
        dt, df = offset[to], offset[frm]
        for t, f in E:
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


def _block_pairs(value, rows: int, cols: int, where: str):
    """The pairs of one block for ``graph_from_obj``, none repeated.  A block
    whose pairs pass the check and strictly increase, as in every file this
    package writes, is used as it stands; a valid block in another order is
    collected into a set.  Anything else goes to ``_parse_pairs``, which words
    the fault as ``system_from_obj`` does (and passes what it passes, such as
    ``[0, true]`` beside ``[0, 1]``, where the frozenset keeps ``(0, 1)``)."""
    try:
        if isinstance(value, list) and rows >= 0 and cols >= 0 \
                and _stray_pair(value, rows, cols) is None:
            if all(map(operator.lt, value, islice(value, 1, None))):
                return value
            return set(map(tuple, value))
    except (TypeError, ValueError):  # an item that is not a pair
        pass
    return _parse_pairs(value, rows, cols, where).nonzeros


def _require_int(obj: dict, key: str, where: str) -> int:
    v = obj.get(key)
    if not isinstance(v, int) or isinstance(v, bool):
        raise ModelError(f"{where}: key '{key}' must be an integer")
    return v


# Most states plus inputs a system file may declare.  Every graph holds one
# successor list per state and per input, so without a limit a file of a few
# bytes could ask for any amount of memory; 10**7 is 100 times the largest
# instance benchmarked (10**5 states).
MAX_VERTICES = 10**7


def _walk(obj, block) -> tuple[list, list]:
    """Check a decoded system file and return its subsystems as (id, n, p, A,
    B) in id order and its connections as (to, from, E) in file order, with
    each block as ``block(value, rows, cols, where)`` returns it.  The checks
    run in one order, so each fault is named as ``system_from_obj`` always
    named it."""
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
    vertices = 0
    for k, raw in enumerate(obj["subsystems"]):
        where = f"subsystems[{k}]"
        if not isinstance(raw, dict):
            raise ModelError(f"{where}: expected an object")
        _check_keys(raw, _SUB_KEYS, where)
        sid = _require_int(raw, "id", where)
        n = _require_int(raw, "n", where)
        p = _require_int(raw, "p", where)
        try:
            A = block(raw["A"], n, n, f"{where}.A")
            B = block(raw["B"], n, p, f"{where}.B")
            _check_counts(sid, n, p)
        except ModelError as exc:
            raise ModelError(f"{where}: {exc}") from None
        vertices += n + p
        if vertices > MAX_VERTICES:
            raise ModelError(
                f"{where}: states plus inputs reach {vertices}, "
                f"above the limit of {MAX_VERTICES}"
            )
        subs.append((sid, n, p, A, B))
    conns = []
    links = []
    n_of = {sub[0]: sub[1] for sub in subs}
    for k, raw in enumerate(obj["connections"]):
        where = f"connections[{k}]"
        if not isinstance(raw, dict):
            raise ModelError(f"{where}: expected an object")
        _check_keys(raw, _CONN_KEYS, where)
        to = _require_int(raw, "to", where)
        frm = _require_int(raw, "from", where)
        if to not in n_of or frm not in n_of:
            raise ModelError(f"{where}: endpoint references an unknown subsystem id")
        conns.append((to, frm, block(raw["E"], n_of[to], n_of[frm], f"{where}.E")))
        links.append((to, frm, n_of[to], n_of[frm], not raw["E"]))
    ordered = sorted(subs, key=lambda sub: sub[0])
    _check_system([sub[0] for sub in ordered], [sub[1] for sub in ordered], links)
    return ordered, conns


def system_from_obj(obj) -> InterconnectedSystem:
    subs, conns = _walk(obj, _parse_pairs)
    return InterconnectedSystem(
        tuple(Subsystem(*sub) for sub in subs),
        tuple(Interconnection(*conn) for conn in conns),
    )


def graph_from_obj(obj) -> tuple[Graph, int, int, int]:
    """``block_digraph(system_from_obj(obj))`` with the subsystem, state and
    input counts r, n and p, built without patterns or system objects: the
    same checks in the same order, each pair checked once, the blocks placed
    straight from the decoded file."""
    subs, conns = _walk(obj, _block_pairs)
    graph = _block_graph([sub[1:] for sub in subs], conns)
    n = sum(sub[1] for sub in subs)
    return graph, len(subs), n, len(graph) - n


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
    ``newline`` carries the indentation of nested containers.

    Two routes write the same bytes.  A list of lists that is a uniform list
    tree (see ``_list_tree_json``) is encoded once by json's C encoder and
    re-indented by replacement; everything else recurses here.  A value with
    a ``write(newline)`` method, such as a ``centralized.IdCertificate``,
    writes its own text at the indentation it is handed."""
    kind, inner = type(obj), newline + "  "
    if kind is list and obj and type(obj[0]) is list:
        text = _list_tree_json(obj, newline)
        if text is not None:
            return text
    if (kind is list or kind is tuple) and obj:
        items = [_json_str(v) if type(v) is str else int.__repr__(v) if type(v) is int
                 else indented_json(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if kind is dict and obj:
        # json sorts the keys as given.  A non-string key is written by json
        # itself, as the text in {<key>: 0}, so it raises as json does.
        items = [(_json_str(k) if isinstance(k, str) else json.dumps({k: 0})[1:-4])
                 + ": " + indented_json(v, inner) for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is str:
        return _json_str(obj)
    if kind is int:
        return int.__repr__(obj)
    write = getattr(obj, "write", None)
    if write is not None:
        return write(newline)
    return json.dumps(obj)  # empty containers, true/false/null and floats


# Compact, with NUL as the item separator: in its ASCII output a NUL inside a
# string is escaped, so a raw NUL can only be a separator.  It only sees trees
# of lists, str and int that ``_list_tree_json`` has walked, so it needs no
# cycle check and no ``default``.
_compact_nul = c_make_encoder(None, None, _json_str, None, ": ", "\x00", True, False, True)
_LEAF_TYPES = {str, int}


def _list_tree_json(obj: list, newline: str) -> str | None:
    """``indented_json(obj, newline)`` if ``obj`` is a uniform list tree, else
    None.  In a uniform list tree every container is a non-empty ``list`` and
    every leaf is a ``str`` or ``int`` at the same depth, so json's indented
    text is the compact text with each separator re-spaced by the number m of
    brackets on each side of it, m = 0 between leaves."""
    level, lists, height, seen = [obj], 1, 1, set()
    while type(level[0][0]) is list:  # one level per pass, of non-empty lists
        # Only lists that hold lists can close a cycle; one met twice ends the walk.
        seen.update(map(id, level))
        level = list(chain.from_iterable(level))
        if len(seen) != lists or set(map(type, level)) != {list} or not all(level):
            return None
        lists, height = lists + len(level), height + 1
    if not set(map(type, chain.from_iterable(level))) <= _LEAF_TYPES:
        return None
    text = "".join(_compact_nul(obj, 0))
    if not text.count("[") == text.count("]") == lists:  # a bracket inside a string
        return None
    pads = [newline + "  " * k for k in range(height + 1)]
    closes = [pad + "]" for pad in pads[height - 1::-1]]  # the innermost list first
    opens = [pad + "[" for pad in pads[1:height]]  # the outermost list first
    body = text[height:-height]
    for m in range(height - 1, -1, -1):  # the longest bracket runs first
        body = body.replace("]" * m + "\x00" + "[" * m, "".join(closes[:m]) + ","
                            + "".join(opens[height - 1 - m:]) + pads[height])
    return "".join(("[", *opens, pads[height], body, *closes))


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

# Chance of each directed connection beyond ``random_system``'s spanning tree.
EXTRA_CONN_PROB = 0.15


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
    extra_conn_prob: float = EXTRA_CONN_PROB,
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
