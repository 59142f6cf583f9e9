"""Whole-system controllability verdicts with replayable certificates.

:func:`certify_digraph` runs the check on the graph of (A, B) and keeps its
certificate in the graph's vertex ids (:class:`IdCertificate`).  The
certificate has two encodings, which share one id-to-vertex rule: the dict
in :func:`verify_digraph`'s :class:`Verdict`, which
:func:`check_certificate` replays, and the indented report text, which the
CLI writes without building the dict: each of its lists is a ``model.Rows``
over the tags and indices.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from .graphkit import (
    input_reachable_with_parents,
    left_order,
    max_matching,
    right_deficiency_witness,
)
from .model import Graph, Rows, SparsityPattern, indented_json, system_digraph

# Not called: `verify` reads reachability and the matching off one graph.
# Kept importable for the benchmark hook on `centralized.system_bipartite`.
from .model import system_bipartite  # noqa: F401


@dataclass(frozen=True)
class Verdict:
    controllable: bool
    mode: str
    certificate: dict

    def __bool__(self) -> bool:
        return self.controllable


def verify(A: SparsityPattern, B: SparsityPattern) -> Verdict:
    """Structural controllability of the pattern pair (A, B); see
    :func:`verify_digraph`, which this runs on ``system_digraph(A, B)``."""
    if A.rows != B.rows:
        raise ValueError(f"A has {A.rows} states but B has {B.rows} rows")
    return verify_digraph(system_digraph(A, B), A.rows)


def verify_digraph(g: Graph, n: int) -> Verdict:
    """Structural controllability via input reachability plus a matching that
    covers every state's right copy, on the graph of (A, B) with n states
    (``model.system_digraph`` or ``model.block_digraph``).

    The certificate replays without re-deriving anything: a positive verdict
    carries the matching and a reachability forest; a negative one carries
    either the closed set of unreachable states or a right-side deficiency
    witness (a set of states with fewer distinct feeders than members).
    An unreachable state is preferred over a deficiency when both exist.
    The certificate is :func:`certify_digraph`'s, decoded into vertices by
    :meth:`IdCertificate.as_dict`.
    """
    cert = certify_digraph(g, n)
    return Verdict(cert.controllable, "reachability-matching", cert.as_dict())


def certify_digraph(g: Graph, n: int) -> "IdCertificate":
    """The check of :func:`verify_digraph`, with its certificate left in the
    graph's vertex ids: the unreached states; or W and N(W); or the matched
    (left, right) pairs in ``left_order`` and every state's reach parent."""
    parent = input_reachable_with_parents(g, n)
    unreached = [j for j in range(n) if parent[j] < 0]
    if unreached:
        return IdCertificate("unreachable-closure", n, states=unreached)
    mates = max_matching(g, n)
    witness = right_deficiency_witness(g, mates)
    if witness is not None:
        w_set, n_set = witness
        return IdCertificate("right-deficiency", n, rights=(w_set,), neighbors=(n_set,))
    mate_l = mates[0]
    lefts = [l for l in left_order(len(g), n) if mate_l[l] >= 0]
    return IdCertificate(
        "reach-and-match", n,
        matching=(lefts, [mate_l[l] for l in lefts]),
        reach_forest=(range(n), parent),
    )


def _encoded(ids, n: int) -> tuple[list, list]:
    """The certificate encoding of graph vertices, ["x", j] for state j and
    ["u", j - n] for input vertex j, as the list of tags and the list of
    indices."""
    return ["x" if v < n else "u" for v in ids], [v if v < n else v - n for v in ids]


_VERTEX = ('"%s"', "%d")  # the Rows shape of a ["x", j] or ["u", j] vertex


class IdCertificate:
    """A centralized certificate whose vertices are still graph ids.

    ``kind`` is the certificate's "type".  ``fields`` holds its other keys,
    in the order the dict lists them.
    A list value is a list of states, written as bare ints.  A tuple of one
    or two equal-length id lists is a list of vertices, or of [vertex,
    vertex] pairs.  The two encodings, :meth:`as_dict` and :meth:`write`,
    both map ids to vertices by :func:`_encoded`; :meth:`write` hands each
    list to ``model.indented_json`` as a ``model.Rows``."""

    __slots__ = ("kind", "n", "fields")

    def __init__(self, kind: str, n: int, **fields):
        self.kind, self.n, self.fields = kind, n, fields

    @property
    def controllable(self) -> bool:
        return self.kind == "reach-and-match"

    def as_dict(self) -> dict:
        """The certificate as ``Verdict.certificate`` holds it."""
        cert = {"type": self.kind}
        for key, ids in self.fields.items():
            if type(ids) is list:
                cert[key] = list(ids)
                continue
            columns = [list(map(list, zip(*_encoded(c, self.n)))) for c in ids]
            cert[key] = columns[0] if len(columns) == 1 else list(map(list, zip(*columns)))
        return cert

    def write(self, newline: str) -> str:
        """``model.indented_json(self.as_dict(), newline)``, with each list
        a ``model.Rows`` of its tags and indices."""
        rows = {key: self._rows(ids) for key, ids in self.fields.items()}
        return indented_json({"type": self.kind, **rows}, newline)

    def _rows(self, ids) -> Rows:
        if type(ids) is list:  # states, as bare ints
            return Rows("%d", len(ids), ids)
        width, count = len(ids), len(ids[0])
        args = [None] * (2 * width * count)
        for k, column in enumerate(ids):
            args[2 * k::2 * width], args[2 * k + 1::2 * width] = _encoded(column, self.n)
        return Rows(_VERTEX if width == 1 else (_VERTEX,) * width, count, args)


# ---------------------------------------------------------------------------
# certificate replay


def _vertex(v, n: int, p: int) -> tuple | None:
    """The (tag, index) of a vertex ``["x", state]`` or ``["u", input]`` whose
    index is an int in range; None for anything else."""
    if isinstance(v, (list, tuple)) and len(v) == 2 and type(v[1]) is int:
        tag, k = v
        if 0 <= k < (n if tag == "x" else p if tag == "u" else 0):
            return (tag, k)
    return None


def _vertices(items, n: int, p: int) -> list | None:
    """Certificate vertices as (tag, index) pairs; None if any is not one."""
    if not isinstance(items, (list, tuple)):
        return None
    out = [_vertex(v, n, p) for v in items]
    return None if None in out else out


def _vertex_pairs(entries, n: int, p: int) -> list | None:
    """``[vertex, vertex]`` entries as decoded pairs; None if any is not one."""
    if not isinstance(entries, list):
        return None
    pairs = [_vertices(e, n, p) for e in entries]
    return None if any(pair is None or len(pair) != 2 for pair in pairs) else pairs


def _is_edge(A: SparsityPattern, B: SparsityPattern, tail: tuple, head: tuple) -> bool:
    if head[0] != "x":
        return False
    pattern = A if tail[0] == "x" else B
    return (head[1], tail[1]) in pattern.nonzeros


def check_certificate(A: SparsityPattern, B: SparsityPattern, verdict: Verdict) -> bool:
    """Re-validate a verdict's certificate against the patterns alone.  A
    certificate that is not a dict, a missing key or a malformed vertex
    makes it invalid."""
    cert = verdict.certificate
    if not isinstance(cert, dict):
        return False
    kind = cert.get("type")
    n, p = A.rows, B.cols

    if kind == "unreachable-closure":
        states = cert.get("states")
        if verdict.controllable or not isinstance(states, list) or not states:
            return False
        if not all(type(k) is int and 0 <= k < n for k in states):
            return False
        states = set(states)
        if any(k in states for k, _ in B.nonzeros):
            return False
        return not any(k in states and l not in states for k, l in A.nonzeros)

    if kind == "right-deficiency":
        rights = _vertices(cert.get("rights"), n, p)
        neighbors = _vertices(cert.get("neighbors"), n, p)
        if verdict.controllable or not rights or neighbors is None:
            return False
        if any(v[0] != "x" for v in rights) or len(set(rights)) != len(rights):
            return False
        # One pass over each pattern keeps the replay linear in its size.
        members = {k for _, k in rights}
        feeders = {("x", l) for k, l in A.nonzeros if k in members}
        feeders.update(("u", j) for k, j in B.nonzeros if k in members)
        return len(feeders) < len(rights) and set(neighbors) == feeders

    if kind == "reach-and-match":
        edges = _vertex_pairs(cert.get("matching"), n, p)
        forest = _vertex_pairs(cert.get("reach_forest"), n, p)
        if not verdict.controllable or edges is None or forest is None:
            return False
        lefts = [l for l, _ in edges]
        rights = [r for _, r in edges]
        if len(set(lefts)) != len(edges) or len(set(rights)) != len(edges):
            return False
        if not all(_is_edge(A, B, l, r) for l, r in edges):
            return False
        if set(rights) != {("x", j) for j in range(n)}:
            return False
        if not all(_is_edge(A, B, tail, head) for head, tail in forest):
            return False
        parent = dict(forest)
        # Each state is walked once: a walk stops at a cleared state or an
        # input, and meeting a state of its own chain again is a cycle.
        cleared: set = set()
        for j in range(n):
            chain: set = set()
            v = ("x", j)
            while v not in cleared:
                if v[0] == "u":
                    break
                if v not in parent or v in chain:
                    return False
                chain.add(v)
                v = parent[v]
            cleared |= chain
        return True

    return False


# ---------------------------------------------------------------------------
# numeric cross-check

# The probe eliminates dense length-n vectors; past this many states it is
# refused.
PROBE_MAX_STATES = 64
_PRIME = (1 << 61) - 1  # the probe computes in GF(2^61 - 1)


def numeric_probe(A: SparsityPattern, B: SparsityPattern, seed: int = 0) -> bool:
    """Whether one random integer realization of the pattern has full Kalman
    rank over GF(p), p = 2^61 - 1.  A zero B is False without sampling.
    Refuses systems larger than ``PROBE_MAX_STATES`` states.

    The nonzeros are drawn from 1..p-1 by ``random.Random(seed)``.  B's
    columns are queued; each queued vector independent of the basis so far
    joins it (Gaussian elimination mod p) and queues its image under A, until
    the basis spans all n states.  True proves structural controllability:
    the realization is then controllable over the rationals.  False is wrong
    with probability at most n^2/(p-1) (Schwartz, J. ACM 27, 1980; Zippel,
    EUROSAM 1979): a Kalman minor has degree at most n^2 in the entries.
    """
    n = A.rows
    if n > PROBE_MAX_STATES:
        raise ValueError(f"numeric probe limited to {PROBE_MAX_STATES} states, got {n}")
    if B.is_zero:
        return False
    rng = random.Random(seed)
    a_entries = [(i, j, rng.randrange(1, _PRIME)) for i, j in sorted(A.nonzeros)]
    queue = deque([0] * n for _ in range(B.cols))
    for i, j in sorted(B.nonzeros):
        queue[j][i] = rng.randrange(1, _PRIME)
    basis: list[tuple[int, list[int]]] = []  # (pivot, row with 1 at the pivot)
    while queue and len(basis) < n:
        v = queue.popleft()
        w = v
        for piv, row in basis:
            c = w[piv] % _PRIME
            if c:
                w = [x - c * y for x, y in zip(w, row)]
        w = [x % _PRIME for x in w]
        piv = next((k for k, x in enumerate(w) if x), None)
        if piv is None:
            continue
        inv = pow(w[piv], _PRIME - 2, _PRIME)
        basis.append((piv, [x * inv % _PRIME for x in w]))
        image = [0] * n
        for i, j, a in a_entries:
            image[i] += a * v[j]
        queue.append([x % _PRIME for x in image])
    return len(basis) == n
