"""Whole-system controllability verdicts with replayable certificates."""

from __future__ import annotations

from dataclasses import dataclass

from .graphkit import (
    input_reachable_with_parents,
    left_order,
    max_matching,
    path_cycle_decomposition,
    right_deficiency_witness,
)
from .model import SparsityPattern, system_digraph

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
    """Structural controllability via input reachability plus a matching that
    covers every state's right copy.

    The certificate replays without re-deriving anything: a positive verdict
    carries the matching and a reachability forest; a negative one carries
    either the closed set of unreachable states or a right-side deficiency
    witness (a set of states with fewer distinct feeders than members).
    An unreachable state is preferred over a deficiency when both exist.
    """
    if A.rows != B.rows:
        raise ValueError(f"A has {A.rows} states but B has {B.rows} rows")
    n = A.rows
    g = system_digraph(A, B)
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


def verify_via_cacti(A: SparsityPattern, B: SparsityPattern) -> Verdict:
    """Same verdict as :func:`verify`, but a positive certificate is an explicit
    family of vertex-disjoint input-rooted cacti covering every state.

    Each cactus is a stem (path from an input) plus cycles hooked on by single
    edges; inputs whose column is unused appear in no cactus.
    """
    base = verify(A, B)
    if not base.controllable:
        return Verdict(base.controllable, "input-cacti", base.certificate)
    n = A.rows
    g = system_digraph(A, B)
    paths, cycles = path_cycle_decomposition(max_matching(g, n))

    cacti = []
    vertex_home: dict = {}  # vertex -> cactus index
    for chain in paths:
        if len(chain) == 1:
            continue  # unused input
        idx = len(cacti)
        cacti.append({"stem": chain, "cycles": []})
        for v in chain:
            vertex_home[v] = idx

    preds: list[list[int]] = [[] for _ in g]
    for t, succ in enumerate(g):
        for h in succ:
            preds[h].append(t)
    pending = list(range(len(cycles)))
    while pending:
        attached_one = False
        for k in list(pending):
            cyc = cycles[k]
            feeders = [t for h in cyc for t in preds[h] if t in vertex_home]
            if not feeders:
                continue
            # The first feeder in `left_order` (inputs, then states), then
            # the first cycle vertex it feeds.
            t = min(feeders, key=lambda u: (u < n, u))
            hook = [t, next(h for h in cyc if h in g[t])]
            idx = vertex_home[t]
            cacti[idx]["cycles"].append({"cycle": cyc, "attach": hook})
            for v in cyc:
                vertex_home[v] = idx
            pending.remove(k)
            attached_one = True
        if not attached_one:
            raise RuntimeError(
                "could not attach all cycles despite a controllable verdict"
            )

    enc = _encoder(n)
    cert = {
        "type": "input-cacti",
        "cacti": [
            {
                "stem": [enc(v) for v in c["stem"]],
                "cycles": [
                    {
                        "cycle": [enc(v) for v in cy["cycle"]],
                        "attach": [enc(v) for v in cy["attach"]],
                    }
                    for cy in c["cycles"]
                ],
            }
            for c in cacti
        ],
    }
    return Verdict(True, "input-cacti", cert)


# ---------------------------------------------------------------------------
# certificate replay


def _dec(v) -> tuple:
    return (v[0], v[1])


def _is_edge(A: SparsityPattern, B: SparsityPattern, tail: tuple, head: tuple) -> bool:
    if head[0] != "x":
        return False
    if tail[0] == "x":
        return (head[1], tail[1]) in A.nonzeros
    if tail[0] == "u":
        return (head[1], tail[1]) in B.nonzeros
    return False


def check_certificate(A: SparsityPattern, B: SparsityPattern, verdict: Verdict) -> bool:
    """Re-validate a verdict's certificate against the patterns alone."""
    cert = verdict.certificate
    kind = cert.get("type")
    n = A.rows

    def is_state(k) -> bool:
        return type(k) is int and 0 <= k < n

    if kind == "unreachable-closure":
        states = cert["states"]
        if verdict.controllable or not states or not all(map(is_state, states)):
            return False
        states = set(states)
        if any(k in states for k, _ in B.nonzeros):
            return False
        return not any(
            k in states and l not in states for k, l in A.nonzeros
        )

    if kind == "right-deficiency":
        if verdict.controllable:
            return False
        rights = [_dec(v) for v in cert["rights"]]
        if not rights or any(v[0] != "x" or not is_state(v[1]) for v in rights):
            return False
        if len(set(rights)) != len(rights):
            return False
        # One pass over each pattern keeps the replay linear in its size.
        members = {k for _, k in rights}
        feeders = {("x", l) for k, l in A.nonzeros if k in members}
        feeders.update(("u", j) for k, j in B.nonzeros if k in members)
        return len(feeders) < len(rights)

    if kind == "reach-and-match":
        if not verdict.controllable:
            return False
        edges = [(_dec(l), _dec(r)) for l, r in cert["matching"]]
        lefts = [l for l, _ in edges]
        rights = [r for _, r in edges]
        if len(set(lefts)) != len(edges) or len(set(rights)) != len(edges):
            return False
        if not all(_is_edge(A, B, l, r) for l, r in edges):
            return False
        if set(rights) != {("x", j) for j in range(n)}:
            return False
        parent = {_dec(c): _dec(p) for c, p in cert["reach_forest"]}
        if not all(_is_edge(A, B, p, c) for c, p in parent.items()):
            return False
        cleared: set = set()
        for j in range(n):
            chain = []
            v = ("x", j)
            while v not in cleared:
                if v[0] == "u":
                    break
                if v not in parent or v in chain:
                    return False
                chain.append(v)
                v = parent[v]
            cleared.update(chain)
        return True

    if kind == "input-cacti":
        if not verdict.controllable:
            return False
        covered: set = set()
        used_inputs: set = set()
        for c in cert["cacti"]:
            stem = [_dec(v) for v in c["stem"]]
            if len(stem) < 2 or stem[0][0] != "u" or stem[0] in used_inputs:
                return False
            used_inputs.add(stem[0])
            if any(v[0] != "x" for v in stem[1:]):
                return False
            in_cactus = set()
            for tail, head in zip(stem, stem[1:]):
                if not _is_edge(A, B, tail, head):
                    return False
            for v in stem[1:]:
                if v in covered or v in in_cactus:
                    return False
                in_cactus.add(v)
            for cy in c["cycles"]:
                cyc = [_dec(v) for v in cy["cycle"]]
                tail, head = _dec(cy["attach"][0]), _dec(cy["attach"][1])
                if tail not in in_cactus or head not in cyc:
                    return False
                if not _is_edge(A, B, tail, head):
                    return False
                for a, b_ in zip(cyc, cyc[1:] + cyc[:1]):
                    if not _is_edge(A, B, a, b_):
                        return False
                for v in cyc:
                    if v in covered or v in in_cactus or v[0] != "x":
                        return False
                    in_cactus.add(v)
            covered.update(v for v in in_cactus)
        return covered == {("x", j) for j in range(n)}

    return False


# ---------------------------------------------------------------------------
# numeric cross-check

# The probe builds dense n x n(p+1) controllability matrices; past this many
# states it is refused.
PROBE_MAX_STATES = 64
PROBE_TRIALS = 3
PROBE_TOL = 1e-8  # singular values below this fraction of the largest count as 0


def numeric_probe(A: SparsityPattern, B: SparsityPattern, seed: int = 0) -> bool:
    """Random realizations of the pattern tested for full controllability-matrix
    rank.  True as soon as one of ``PROBE_TRIALS`` trials reaches full rank; a
    zero B is False without sampling.  Refuses systems larger than
    ``PROBE_MAX_STATES`` states.
    """
    import numpy as np

    n = A.rows
    if n > PROBE_MAX_STATES:
        raise ValueError(f"numeric probe limited to {PROBE_MAX_STATES} states, got {n}")
    if B.is_zero:
        return False
    rng = np.random.default_rng(seed)
    for _ in range(PROBE_TRIALS):
        Am = np.zeros((n, n))
        for i, j in sorted(A.nonzeros):
            Am[i, j] = rng.uniform(0.5, 1.5) * (1.0 if rng.integers(2) else -1.0)
        Bm = np.zeros((n, max(B.cols, 1)))
        for i, j in sorted(B.nonzeros):
            Bm[i, j] = rng.uniform(0.5, 1.5) * (1.0 if rng.integers(2) else -1.0)
        blocks = [Bm]
        cur = Bm
        for _ in range(n - 1):
            cur = Am @ cur
            peak = np.max(np.abs(cur))
            if peak > 0:  # per-block positive rescale keeps the column span
                cur = cur / peak
            blocks.append(cur)
        ctrb = np.hstack(blocks)
        svals = np.linalg.svd(ctrb, compute_uv=False)
        if svals.size and svals[0] > 0:
            rank = int(np.sum(svals > PROBE_TOL * svals[0]))
            if rank == n:
                return True
    return False
