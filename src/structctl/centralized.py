"""Whole-system controllability verdicts with replayable certificates.

:func:`certify_digraph` runs the check on the graph of (A, B) and keeps its
certificate in the graph's vertex ids (:class:`IdCertificate`), and
:func:`replay_digraph` replays such a certificate on that graph.  The
certificate has two encodings, which share one id-to-vertex rule: the dict
in :func:`verify`'s :class:`Verdict`, which :func:`check_certificate`
decodes back to ids once and replays on ``system_digraph(A, B)``, and the
indented report text, which the CLI writes without building the dict: each
of its lists is a ``model.Rows`` over the tags and indices.
"""

from __future__ import annotations

import random
from bisect import bisect_left
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
    """Structural controllability of the pattern pair (A, B):
    :func:`certify_digraph` on ``system_digraph(A, B)``, with its certificate
    decoded into vertices by :meth:`IdCertificate.as_dict`."""
    n = _states(A, B)
    cert = certify_digraph(system_digraph(A, B), n)
    return Verdict(cert.controllable, "reachability-matching", cert.as_dict())


def _states(A: SparsityPattern, B: SparsityPattern) -> int:
    """n, once A is n x n and B has n rows (a ValueError if not)."""
    if A.rows != A.cols:
        raise ValueError(f"A is {A.rows} x {A.cols}, not square")
    if A.rows != B.rows:
        raise ValueError(f"A has {A.rows} states but B has {B.rows} rows")
    return A.rows


def certify_digraph(g: Graph, n: int) -> "IdCertificate":
    """Structural controllability via input reachability plus a matching that
    covers every state's right copy, on the graph of (A, B) with n states
    (``model.system_digraph`` or ``model.block_digraph``).  The certificate,
    in the graph's vertex ids, replays (:func:`replay_digraph`) without
    re-deriving anything: the unreached states, preferred over a deficiency
    when both exist; or a right-side deficiency witness W and N(W) (states
    with fewer distinct feeders than members); or the matched (left, right)
    pairs in ``left_order`` and every state's reach parent."""
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


def replay_digraph(g: Graph, cert: IdCertificate) -> bool:
    """Whether ``cert``, whose ids are vertices of g, proves its verdict on g,
    the graph of (A, B) with ``cert.n`` states: in one pass over its lists
    and at most one over g.  Reach parents must be edges, and every state's
    chain of them must end at an input."""
    n, f = cert.n, cert.fields
    if cert.kind == "unreachable-closure":  # states, closed under feeders
        inside = _marks(len(g), f["states"])
        return bool(f["states"]) and inside.find(1, n) < 0 and not any(
            not inside[t] and any(map(inside.__getitem__, heads)) for t, heads in enumerate(g)
        )
    if cert.kind == "right-deficiency":  # distinct states W, fed by fewer N(W)
        (rights,), (neighbors,) = f["rights"], f["neighbors"]
        in_w = _marks(len(g), rights)
        feeders = bytearray(any(map(in_w.__getitem__, heads)) for heads in g)
        return in_w.count(1) == len(rights) and in_w.find(1, n) < 0 and (
            feeders == _marks(len(g), neighbors) and feeders.count(1) < len(rights)
        )
    if cert.kind != "reach-and-match":
        return False
    (lefts, rights), (heads, tails) = f["matching"], f["reach_forest"]
    if _marks(len(g), lefts).count(1) != len(lefts):  # a left matched twice
        return False
    if not len(rights) == _marks(len(g), rights).count(1, 0, n) == n:  # not each state once
        return False
    if not (_are_edges(g, lefts, rights) and _are_edges(g, tails, heads)):
        return False
    parent = [-1] * n
    for h, t in zip(heads, tails):
        parent[h] = t
    # Each state is walked once: a walk stops at an input or at a state an
    # earlier walk cleared, and meeting its own walk again is a cycle.
    walk = [-1] * n
    for j in range(n):
        v = j
        while 0 <= v < n and walk[v] < 0:
            walk[v], v = j, parent[v]
        if v < 0 or (v < n and walk[v] == j):
            return False
    return True


def _marks(count: int, ids) -> bytearray:
    marks = bytearray(count)
    for v in ids:
        marks[v] = 1
    return marks


def _are_edges(g: Graph, tails, heads) -> bool:
    """Whether each (tail, head) is an edge, by bisecting sorted successors."""
    for t, h in zip(tails, heads):
        k = bisect_left(g[t], h)
        if g[t][k:k + 1] != [h]:
            return False
    return True


# Each type's keys and their entries: 0 bare states, 1 vertices, 2 pairs.
_KEYS = {"unreachable-closure": {"states": 0}, "right-deficiency": {"rights": 1, "neighbors": 1},
         "reach-and-match": {"matching": 2, "reach_forest": 2}}


def check_certificate(A: SparsityPattern, B: SparsityPattern, verdict: Verdict) -> bool:
    """Re-validate a verdict's certificate against the patterns alone: its
    vertices are decoded to ids once for :func:`replay_digraph` on
    ``system_digraph(A, B)``.  A certificate that is not a dict, a missing
    key or a malformed vertex makes it invalid."""
    n, cert = _states(A, B), verdict.certificate
    kind = cert.get("type") if isinstance(cert, dict) else None
    keys = _KEYS.get(kind) if isinstance(kind, str) else None
    if keys is None or bool(verdict.controllable) != (kind == "reach-and-match"):
        return False
    fields = {key: _ids(cert.get(key), width, n, B.cols) for key, width in keys.items()}
    return None not in fields.values() and replay_digraph(
        system_digraph(A, B), IdCertificate(kind, n, **fields)
    )


def _ids(value, width: int, n: int, p: int) -> list | tuple | None:
    """A certificate list of bare states (width 0), vertices (1) or vertex
    pairs (2) in :class:`IdCertificate`'s form, the inverse of
    :func:`_encoded`; None if it is malformed or an index is out of range."""
    if not isinstance(value, (list, tuple) if width == 1 else list):
        return None
    if width == 0:
        return list(value) if all(type(k) is int and 0 <= k < n for k in value) else None
    if width == 2 and not all(isinstance(e, (list, tuple)) and len(e) == 2 for e in value):
        return None
    ids = []
    for v in value if width == 1 else [v for e in value for v in e]:
        if not (isinstance(v, (list, tuple)) and len(v) == 2 and type(v[1]) is int):
            return None
        tag, k = v
        if not (tag == "x" and 0 <= k < n or tag == "u" and 0 <= k < p):
            return None
        ids.append(k if tag == "x" else n + k)
    return tuple(ids[c::width] for c in range(width))


# ---------------------------------------------------------------------------
# numeric cross-check

# The probe eliminates dense length-n vectors; past this many states it is
# refused.
PROBE_MAX_STATES = 64
_PRIME = (1 << 61) - 1  # the probe computes in GF(2^61 - 1)


def numeric_probe(A: SparsityPattern, B: SparsityPattern, seed: int = 0) -> bool:
    """Whether one random integer realization of the pattern has full Kalman
    rank over GF(p), p = 2^61 - 1.  A zero B is False without sampling.
    Refuses systems larger than ``PROBE_MAX_STATES`` states, and an A that
    is not n x n or a B without n rows (ValueError).

    The nonzeros are drawn from 1..p-1 by ``random.Random(seed)``.  B's
    columns are queued; each queued vector independent of the basis so far
    joins it (Gaussian elimination mod p) and queues its image under A, until
    the basis spans all n states.  True proves structural controllability:
    the realization is then controllable over the rationals.  False is wrong
    with probability at most n^2/(p-1) (Schwartz, J. ACM 27, 1980; Zippel,
    EUROSAM 1979): a Kalman minor has degree at most n^2 in the entries.
    """
    n = _states(A, B)
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
