"""Whole-system controllability verdicts with replayable certificates."""

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
from .model import Graph, SparsityPattern, system_digraph

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


def _encoder(n: int):
    """Certificate encoding of a ``system_digraph`` vertex: ["x", j] for
    state j, ["u", j] for input column j."""
    return lambda v: ["x", v] if v < n else ["u", v - n]


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
    """
    parent = input_reachable_with_parents(g, n)
    unreached = [j for j in range(n) if parent[j] < 0]
    if unreached:
        return Verdict(
            False,
            "reachability-matching",
            {"type": "unreachable-closure", "states": unreached},
        )
    mates = max_matching(g, n)
    witness = right_deficiency_witness(g, mates)
    enc = _encoder(n)
    if witness is not None:
        w_set, n_set = witness
        return Verdict(
            False,
            "reachability-matching",
            {
                "type": "right-deficiency",
                "rights": [enc(v) for v in w_set],
                "neighbors": [enc(v) for v in n_set],
            },
        )
    mate_l = mates[0]
    return Verdict(
        True,
        "reachability-matching",
        {
            "type": "reach-and-match",
            "matching": [
                [enc(l), enc(mate_l[l])] for l in left_order(len(g), n) if mate_l[l] >= 0
            ],
            "reach_forest": [[enc(j), enc(parent[j])] for j in range(n)],
        },
    )


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
