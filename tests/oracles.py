"""Independent brute-force oracles used to freeze expected test values.

Everything here favors obviousness over speed: bitmask DP over right
vertices, per-source DFS, pairwise reachability closures, dense index
arithmetic.  Three sections build on the package, each with a construction
only the tests use: the cactus section turns ``verify``'s matching into
input-rooted cacti (a second positive certificate) and replays them; the
similar-systems section lifts the cycle-cover check's result into a
matching of the expanded system; the last section holds facts about
distributed runs (the boundary size, hop distances, the BFS tree, trace
filtering), ``run_delayed``, a scheduler that delays messages and shuffles
the agents, and ``reached``, a reachability-only agent program that runs
the package's reachability steps for every iteration, with no tree to stop
them; ``batch_exits`` and ``batch_relax`` are the batch reference for a
region's residual distances, which the package computes step by step.
``max_matching_every_search`` is Hopcroft–Karp with a layering search
before every phase, the reference whose size and deficiency witness
``graphkit.max_matching`` must reproduce.  The reference-algorithm section,
a unit-capacity preflow and a matching exchange, imports nothing; the tests
check the package's matchings against it.
"""

from __future__ import annotations

from collections import deque, namedtuple
from functools import lru_cache

from structctl.centralized import Verdict, verify
from structctl.distributed import Region, _reached_steps, _sizes
from structctl.graphkit import left_order, max_matching
from structctl.model import (
    InterconnectedSystem, SparsityPattern, state_digraph, system_bipartite,
    system_digraph,
)
from structctl.runtime import (
    AgentContext, DeadlockError, ProtocolError, Recv, RunResult, Trace, TraceRecord, Tree,
    _encode_payload, bfs, tree_aggregate,
)
from structctl.similar import SimilarSystemSpec, check_cycle_cover, copy_level_digraph

# The oracles' own graph forms, over any hashable vertices.
Bipartite = namedtuple("Bipartite", "left right edges")  # edges: (left, right)
Directed = namedtuple("Directed", "vertices edges")  # edges: (tail, head)


def directed(g: list[list[int]]) -> Directed:
    """An integer successor-list graph as vertex and edge sets."""
    edges = frozenset((t, h) for t, heads in enumerate(g) for h in heads)
    return Directed(frozenset(range(len(g))), edges)


def bipartite(g: list[list[int]], n: int) -> Bipartite:
    """The bipartite reading of a successor-list graph: every vertex on the
    left, vertices 0..n-1 on the right."""
    return Bipartite(frozenset(range(len(g))), frozenset(range(n)), directed(g).edges)


def matching_edges(mates: tuple[list[int], list[int]]) -> frozenset:
    """Mate arrays as a set of (left, right) edges."""
    return frozenset((l, r) for l, r in enumerate(mates[0]) if r >= 0)


def system_graph(A: SparsityPattern, B: SparsityPattern) -> Bipartite:
    """The graph of (A, B) over ("x", j) state and ("u", j) input vertices:
    edge ("x", l) -> ("x", k) iff A[k, l], ("u", j) -> ("x", i) iff B[i, j]."""
    xs = frozenset(("x", j) for j in range(A.rows))
    us = frozenset(("u", j) for j in range(B.cols))
    edges = {(("x", l), ("x", k)) for k, l in A.nonzeros}
    edges.update((("u", j), ("x", i)) for i, j in B.nonzeros)
    return Bipartite(xs | us, xs, frozenset(edges))


# ---------------------------------------------------------------------------
# matchings (bitmask DP over the right side)


def matching_opt_bruteforce(b: Bipartite, weights: dict | None = None) -> tuple[int, int]:
    """(max cardinality, min total weight among max-cardinality matchings).

    Exponential in the right side; use on graphs with <= ~20 rights.
    """
    lefts = sorted(b.left)
    rights = sorted(b.right)
    rpos = {r: k for k, r in enumerate(rights)}
    adj: list[list[tuple[int, int]]] = [[] for _ in lefts]
    for li, l in enumerate(lefts):
        for (ll, r) in sorted(b.edges):
            if ll == l:
                adj[li].append((rpos[r], 0 if weights is None else weights[(ll, r)]))

    @lru_cache(maxsize=None)
    def best(i: int, mask: int) -> tuple[int, int]:
        if i == len(lefts):
            return (0, 0)
        top = best(i + 1, mask)
        for rj, wt in adj[i]:
            if not mask & (1 << rj):
                c2, w2 = best(i + 1, mask | (1 << rj))
                if (-c2 - 1, w2 + wt) < (-top[0], top[1]):
                    top = (c2 + 1, w2 + wt)
        return top

    out = best(0, 0)
    best.cache_clear()
    return out


def enumerate_max_matchings(b: Bipartite) -> list[frozenset]:
    """All maximum matchings as frozensets of (left, right) edges.  Tiny graphs only."""
    lefts = sorted(b.left)
    adj = {l: sorted(r for (ll, r) in b.edges if ll == l) for l in lefts}
    target = matching_opt_bruteforce(b)[0]
    found: set[frozenset] = set()

    def rec(i: int, used: set, acc: list) -> None:
        if len(acc) + (len(lefts) - i) < target:
            return
        if i == len(lefts):
            if len(acc) == target:
                found.add(frozenset(acc))
            return
        rec(i + 1, used, acc)
        for r in adj[lefts[i]]:
            if r not in used:
                acc.append((lefts[i], r))
                used.add(r)
                rec(i + 1, used, acc)
                acc.pop()
                used.remove(r)

    rec(0, set(), [])
    return sorted(found, key=sorted)


# ---------------------------------------------------------------------------
# reachability / SCCs


def input_reachable_states(A: SparsityPattern, B: SparsityPattern) -> set[int]:
    """State indices reachable from some input, by plain DFS over A columns."""
    adj: list[list[int]] = [[] for _ in range(A.rows)]
    for k, l in A.nonzeros:
        adj[l].append(k)
    seen: set[int] = set()
    stack = sorted({i for i, _ in B.nonzeros})
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(adj[v])
    return seen


def _reach_closure(g: Directed) -> dict:
    adj: dict = {v: [] for v in g.vertices}
    for t, h in g.edges:
        adj[t].append(h)
    reach = {}
    for v in g.vertices:
        seen = {v}
        stack = [v]
        while stack:
            w = stack.pop()
            for nxt in adj[w]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        reach[v] = seen
    return reach


def scc_partition_oracle(g: Directed) -> set[frozenset]:
    """SCCs via pairwise mutual reachability."""
    reach = _reach_closure(g)
    comps = set()
    for v in g.vertices:
        comps.add(frozenset(w for w in g.vertices if w in reach[v] and v in reach[w]))
    return comps


def non_top_linked_oracle(g: Directed) -> set[frozenset]:
    """SCCs with no edge entering from outside the component."""
    out = set()
    for comp in scc_partition_oracle(g):
        if not any(h in comp and t not in comp for t, h in g.edges):
            out.add(comp)
    return out


# ---------------------------------------------------------------------------
# assembly / template expansion


def assemble_naive(sys: InterconnectedSystem) -> tuple[list[list[int]], list[list[int]]]:
    """Dense global (A, B) via an explicit (subsystem, local index) -> position map."""
    state_pos = {}
    for s in sys.subsystems:
        for k in range(s.n):
            state_pos[(s.id, k)] = len(state_pos)
    input_pos = {}
    for s in sys.subsystems:
        for k in range(s.p):
            input_pos[(s.id, k)] = len(input_pos)
    N, P = len(state_pos), len(input_pos)
    A = [[0] * N for _ in range(N)]
    B = [[0] * P for _ in range(N)]
    for s in sys.subsystems:
        for i, j in s.A.nonzeros:
            A[state_pos[(s.id, i)]][state_pos[(s.id, j)]] = 1
        for i, j in s.B.nonzeros:
            B[state_pos[(s.id, i)]][input_pos[(s.id, j)]] = 1
    for c in sys.connections:
        for i, j in c.E.nonzeros:
            A[state_pos[(c.to, i)]][state_pos[(c.from_, j)]] = 1
    return A, B


def dense(p: SparsityPattern) -> list[list[int]]:
    """The 0/1 matrix of a pattern, as row lists."""
    out = [[0] * p.cols for _ in range(p.rows)]
    for r, c in p.nonzeros:
        out[r][c] = 1
    return out


def kron_expand_dense(
    r: int,
    Aprime: SparsityPattern,
    Bprime: SparsityPattern,
    H: SparsityPattern,
    conn_pairs: set[tuple[int, int]],
) -> tuple[list[list[int]], list[list[int]]]:
    """Dense expansion of r identical blocks coupled through H: block (i, j) of
    the global A is Aprime if i == j, H if (to=i, from=j) is connected, else 0."""
    import numpy as np

    Ad = np.array(dense(Aprime), dtype=int).reshape(Aprime.rows, Aprime.cols)
    Bd = np.array(dense(Bprime), dtype=int).reshape(Bprime.rows, Bprime.cols)
    Hd = np.array(dense(H), dtype=int).reshape(H.rows, H.cols)
    sel = np.zeros((r, r), dtype=int)
    for to, frm in conn_pairs:
        sel[to, frm] = 1
    Aglob = np.logical_or(
        np.kron(np.eye(r, dtype=int), Ad), np.kron(sel, Hd)
    ).astype(int)
    Bglob = np.kron(np.eye(r, dtype=int), Bd)
    return Aglob.tolist(), Bglob.tolist()


# ---------------------------------------------------------------------------
# whole-system checks


def spanned_by_cycles_bruteforce(g: Directed) -> bool:
    """Disjoint cycles covering every vertex exist iff the vertex->successor
    bipartite graph has a perfect matching."""
    b = Bipartite(g.vertices, g.vertices, g.edges)
    return matching_opt_bruteforce(b)[0] == len(g.vertices)


def controllable_bruteforce(A: SparsityPattern, B: SparsityPattern) -> bool:
    """Reachability by DFS plus right-cover matching by bitmask DP."""
    if len(input_reachable_states(A, B)) != A.rows:
        return False
    return matching_opt_bruteforce(system_graph(A, B))[0] == A.rows


# ---------------------------------------------------------------------------
# literal reading of the serial sufficient condition (test-only reference)


def lemma4_literal_search(sys: InterconnectedSystem) -> bool:
    """Existential over per-subsystem maximum matchings of the local system
    bipartite graphs: is there a choice whose leftover lefts cover all leftover
    rights through connection edges, with every local non-top SCC an input?

    "Cover" means a matching of the cross graph with no unmatched right, which
    is how the sufficiency proof uses it.  Exponential; fixtures only.
    """
    from itertools import product

    for s in sys.subsystems:
        b = system_graph(s.A, s.B)
        for comp in non_top_linked_oracle(Directed(b.left, b.edges)):
            if any(v[0] != "u" for v in comp):
                return False

    per_sub = [enumerate_max_matchings(system_graph(s.A, s.B)) for s in sys.subsystems]

    for combo in product(*per_sub):
        spare_lefts: set[tuple] = set()   # (sub, local) of unmatched state lefts
        spare_rights: set[tuple] = set()  # (sub, local) of unmatched rights
        for s, m in zip(sys.subsystems, combo):
            matched_l = {l for l, _ in m}
            matched_r = {r for _, r in m}
            spare_lefts.update(
                (s.id, k) for k in range(s.n) if ("x", k) not in matched_l
            )
            spare_rights.update(
                (s.id, k) for k in range(s.n) if ("x", k) not in matched_r
            )
        edges = set()
        for c in sys.connections:
            for t, l in c.E.nonzeros:
                if (c.from_, l) in spare_lefts and (c.to, t) in spare_rights:
                    edges.add(((c.from_, l), (c.to, t)))
        if not spare_rights:
            return True
        cross = Bipartite(frozenset(spare_lefts), frozenset(spare_rights), frozenset(edges))
        if matching_opt_bruteforce(cross)[0] == len(spare_rights):
            return True
    return False


# ---------------------------------------------------------------------------
# cactus certificates: a second positive certificate, built and replayed


def path_cycle_decomposition(mates: tuple[list[int], list[int]]) -> tuple[list, list]:
    """Split a matching, read as a successor relation on the vertices
    0..len(mate_l)-1, into elementary paths and cycles covering every vertex.

    Paths start at vertices never used as a matched right (isolated vertices
    are single-vertex paths) and end at vertices never used as a matched left.
    Returned in vertex order (inputs first): paths by start vertex, cycles
    rotated to and sorted by their smallest vertex.
    """
    mate_l, mate_r = mates
    n = len(mate_r)
    on_path = [False] * len(mate_l)
    paths = []
    for v in left_order(len(mate_l), n):
        if v < n and mate_r[v] >= 0:
            continue
        chain = [v]
        while mate_l[chain[-1]] >= 0:
            chain.append(mate_l[chain[-1]])
        paths.append(chain)
        for w in chain:
            on_path[w] = True
    cycles = []
    for v in range(n):  # every vertex >= n starts a path
        if on_path[v]:
            continue
        cyc = [v]
        on_path[v] = True
        w = mate_l[v]
        while w != v:
            cyc.append(w)
            on_path[w] = True
            w = mate_l[w]
        cycles.append(cyc)
    return paths, cycles


def verify_via_cacti(A: SparsityPattern, B: SparsityPattern) -> Verdict:
    """Same verdict as ``verify``, but a positive certificate is an explicit
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

    def enc(v: int) -> list:
        return ["x", v] if v < n else ["u", v - n]

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


def check_cacti_certificate(A: SparsityPattern, B: SparsityPattern, verdict: Verdict) -> bool:
    """Replay a positive ``input-cacti`` certificate against the patterns:
    disjoint cacti on distinct inputs whose stems, hooks and cycles follow
    edges and cover every state exactly once.  A cycle hooks on from any
    vertex already in its cactus, the stem's input included."""
    cert = verdict.certificate
    if not verdict.controllable or cert.get("type") != "input-cacti":
        return False
    edges = system_graph(A, B).edges
    covered: set = set()
    used_inputs: set = set()
    for c in cert["cacti"]:
        stem = [tuple(v) for v in c["stem"]]
        if len(stem) < 2 or stem[0][0] != "u" or stem[0] in used_inputs:
            return False
        used_inputs.add(stem[0])
        if any(v[0] != "x" for v in stem[1:]):
            return False
        if not all(e in edges for e in zip(stem, stem[1:])):
            return False
        in_cactus = set()
        for v in stem[1:]:
            if v in covered or v in in_cactus:
                return False
            in_cactus.add(v)
        for cy in c["cycles"]:
            cyc = [tuple(v) for v in cy["cycle"]]
            tail, head = (tuple(v) for v in cy["attach"])
            hooked = tail == stem[0] or tail in in_cactus
            if not hooked or head not in cyc or (tail, head) not in edges:
                return False
            if not all(e in edges for e in zip(cyc, cyc[1:] + cyc[:1])):
                return False
            for v in cyc:
                if v in covered or v in in_cactus or v[0] != "x":
                    return False
                in_cactus.add(v)
        covered |= in_cactus
    return covered == {("x", j) for j in range(A.rows)}


# ---------------------------------------------------------------------------
# similar systems: the composite matching


def build_composite_matching(spec: SimilarSystemSpec) -> tuple[list[int], list[int]]:
    """Lift a right-perfect matching of the collapsed template onto the full
    system when the cycle-cover condition holds.

    Template edges supported by Aprime or an input stay inside each copy;
    edges supported only by H jump from a copy to its successor on the
    spanning cycle.  The result covers every right vertex of the expanded
    system, as mate arrays on its ``system_digraph`` (states of copy i at
    i*n.., inputs of copy i at r*n + i*p..).
    """
    check = check_cycle_cover(spec)
    if check.status != "true":
        raise ValueError(f"cycle-cover condition does not hold: {check.status}")
    copies = copy_level_digraph(spec)
    succ = {}
    for cyc in path_cycle_decomposition(max_matching(copies, len(copies)))[1]:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            succ[a] = b

    n, p, r = spec.n, spec.p, spec.r
    _, feeder = max_matching(system_bipartite(spec.Aprime | spec.H, spec.Bprime), n)
    if -1 in feeder:
        raise AssertionError("collapsed matching unexpectedly not right-perfect")

    mate_l = [-1] * (r * n + r * p)
    mate_r = [-1] * (r * n)
    for k, l in enumerate(feeder):
        for i in range(r):
            if l >= n:
                left, right = r * n + i * p + (l - n), i * n + k
            elif (k, l) in spec.Aprime.nonzeros:
                left, right = i * n + l, i * n + k
            else:  # supported by H only: land in the cycle successor's copy
                left, right = i * n + l, succ[i] * n + k
            mate_l[left] = right
            mate_r[right] = left
    return mate_l, mate_r


# ---------------------------------------------------------------------------
# Hopcroft–Karp with every search


def max_matching_every_search(g: list[list[int]], n: int) -> tuple[list[int], list[int]]:
    """Hopcroft–Karp into the rights 0..n-1 with a layering search before
    every phase, the first and the last included: a second maximum-matching
    algorithm, against which ``graphkit.max_matching``'s size and
    right-deficiency witness are checked."""
    lefts = left_order(len(g), n)
    mate_l = [-1] * len(g)
    mate_r = [-1] * n

    def bfs() -> tuple[list[int], bool]:
        dist = [-1] * len(g)
        q: deque = deque()
        for l in lefts:
            if mate_l[l] < 0:
                dist[l] = 0
                q.append(l)
        reachable_free = False
        while q:
            l = q.popleft()
            for r in g[l]:
                nl = mate_r[r]
                if nl < 0:
                    reachable_free = True
                elif dist[nl] < 0:
                    dist[nl] = dist[l] + 1
                    q.append(nl)
        return dist, reachable_free

    def augment_from(root: int, dist: list[int]) -> None:
        # iterative layered DFS; frames are (left vertex, arc iterator, right
        # vertex that led here from the previous frame)
        work = [(root, iter(g[root]), -1)]
        while work:
            v, it, _ = work[-1]
            for r in it:
                nl = mate_r[r]
                if nl < 0:
                    mate_l[v] = r
                    mate_r[r] = v
                    for k in range(len(work) - 1, 0, -1):
                        prev = work[k - 1][0]
                        inc = work[k][2]
                        mate_l[prev] = inc
                        mate_r[inc] = prev
                    return
                if dist[nl] == dist[v] + 1:
                    work.append((nl, iter(g[nl]), r))
                    break
            else:
                dist[v] = -1  # dead end for this phase
                work.pop()

    while True:
        dist, more = bfs()
        if not more:
            break
        for l in lefts:
            if mate_l[l] < 0:
                augment_from(l, dist)
    return mate_l, mate_r


# ---------------------------------------------------------------------------
# reference algorithms checked against the package's matchings


def matching_exchange(b: Bipartite, m1: frozenset, m2: frozenset) -> frozenset:
    """A maximum matching whose unmatched rights are m1's and unmatched lefts
    are m2's, built from the components of the symmetric difference.

    Both inputs must be maximum matchings of ``b``, given as (left, right)
    edge sets.
    """
    target = matching_opt_bruteforce(b)[0]
    if len(m1) != target or len(m2) != target:
        raise ValueError("matching_exchange requires two maximum matchings")

    delta = (m1 | m2) - (m1 & m2)
    # side-tagged nodes so a vertex appearing on both sides stays two nodes
    node_edges: dict = {}
    for e in delta:
        l, r = e
        node_edges.setdefault(("L", l), []).append(e)
        node_edges.setdefault(("R", r), []).append(e)

    chosen = set(m1 & m2)
    visited: set = set()
    for start in sorted(node_edges):
        if start in visited:
            continue
        # walk the whole component
        comp_nodes = {start}
        frontier = [start]
        comp_edges = set()
        while frontier:
            node = frontier.pop()
            visited.add(node)
            for e in node_edges[node]:
                comp_edges.add(e)
                l, r = e
                for other in (("L", l), ("R", r)):
                    if other not in comp_nodes:
                        comp_nodes.add(other)
                        frontier.append(other)
        endpoints = [nd for nd in comp_nodes if len(node_edges[nd]) == 1]
        if not endpoints:  # alternating cycle: either side works
            chosen.update(comp_edges & m1)
            continue
        sides = {nd[0] for nd in endpoints}
        if sides == {"L"}:
            chosen.update(comp_edges & m2)
        elif sides == {"R"}:
            chosen.update(comp_edges & m1)
        else:
            # a left-to-right alternating path would let one input augment
            raise ValueError("matching_exchange requires two maximum matchings")
    return frozenset(chosen)


class FlowNetwork:
    """Unit-capacity-friendly directed network with explicit residuals."""

    def __init__(self, edges: dict, source, sink) -> None:
        self.cap = dict(edges)
        self.source = source
        self.sink = sink
        verts = {source, sink}
        for u, v in edges:
            verts.add(u)
            verts.add(v)
        self.vertices = sorted(verts)
        self.flow = {e: 0 for e in self.cap}
        self.excess = {v: 0 for v in self.vertices}
        self.label = {v: 0 for v in self.vertices}
        self.adj: dict = {v: [] for v in self.vertices}
        for u, v in sorted(self.cap):
            self.adj[u].append(v)
            self.adj[v].append(u)

    def residual(self, u, v) -> int:
        r = 0
        if (u, v) in self.cap:
            r += self.cap[(u, v)] - self.flow[(u, v)]
        if (v, u) in self.cap:
            r += self.flow[(v, u)]
        return r

    def push(self, u, v, amount: int) -> None:
        if (u, v) in self.cap and self.cap[(u, v)] - self.flow[(u, v)] > 0:
            d = min(amount, self.cap[(u, v)] - self.flow[(u, v)])
            self.flow[(u, v)] += d
            amount -= d
        if amount and (v, u) in self.cap:
            d = min(amount, self.flow[(v, u)])
            self.flow[(v, u)] -= d
            amount -= d
        if amount:
            raise ValueError("push exceeds residual capacity")

    @property
    def value(self) -> int:
        return self.excess[self.sink]


def build_unit_network(b: Bipartite) -> FlowNetwork:
    """Source -> lefts -> rights -> sink, all capacities 1."""
    edges: dict = {}
    for l in sorted(b.left):
        edges[(("s",), ("L", l))] = 1
    for l, r in sorted(b.edges):
        edges[(("L", l), ("R", r))] = 1
    for r in sorted(b.right):
        edges[(("R", r), ("t",))] = 1
    return FlowNetwork(edges, ("s",), ("t",))


def max_preflow(net: FlowNetwork) -> FlowNetwork:
    """Highest-label push-relabel with a gap heuristic, run until every vertex
    holding excess is labeled >= |V| (such vertices provably cannot reach the
    sink, so the sink's excess is already the maximum flow value; no second
    phase returns surplus to the source)."""
    n = len(net.vertices)
    s, t = net.source, net.sink
    net.label = {v: 0 for v in net.vertices}
    net.label[s] = n
    net.excess = {v: 0 for v in net.vertices}
    for (u, v), c in sorted(net.cap.items()):
        if u == s and c > 0:
            net.push(s, v, c)
            net.excess[v] += c
            net.excess[s] -= c

    label_count: dict = {}
    for v in net.vertices:
        label_count[net.label[v]] = label_count.get(net.label[v], 0) + 1

    def retarget(v, new_label: int) -> None:
        old = net.label[v]
        label_count[old] -= 1
        net.label[v] = new_label
        label_count[new_label] = label_count.get(new_label, 0) + 1
        # gap: nothing can step over an empty level below n
        if label_count[old] == 0 and 0 < old < n:
            for w in net.vertices:
                if w not in (s, t) and old < net.label[w] < n:
                    label_count[net.label[w]] -= 1
                    net.label[w] = n + 1
                    label_count[n + 1] = label_count.get(n + 1, 0) + 1

    while True:
        active = [
            v
            for v in sorted(net.vertices)
            if v not in (s, t) and net.excess[v] > 0 and net.label[v] < n
        ]
        if not active:
            break
        v = max(active, key=lambda w: (net.label[w], w))
        while net.excess[v] > 0 and net.label[v] < n:
            pushed = False
            for w in net.adj[v]:
                if net.residual(v, w) > 0 and net.label[v] == net.label[w] + 1:
                    d = min(net.excess[v], net.residual(v, w))
                    net.push(v, w, d)
                    net.excess[v] -= d
                    net.excess[w] += d
                    pushed = True
                    if net.excess[v] == 0:
                        break
            if net.excess[v] == 0:
                break
            if not pushed:
                candidates = [
                    net.label[w] for w in net.adj[v] if net.residual(v, w) > 0
                ]
                retarget(v, 1 + min(candidates) if candidates else n + 1)
    return net


# ---------------------------------------------------------------------------
# distributed runs


def boundary_vertex_count(sys: InterconnectedSystem) -> int:
    """Number of distinct flow vertices shared between regions (both the
    lefts feeding a connection and the rights fed by it)."""
    verts = set()
    for c in sys.connections:
        for k, l in c.E.nonzeros:
            verts.add(("L", c.from_, l))
            verts.add(("R", c.to, k))
    return len(verts)


def neighbors(sys: InterconnectedSystem, i: int) -> list[int]:
    """Subsystems connected to i in either direction, sorted."""
    ns = {c.from_ for c in sys.incoming(i)} | {c.to for c in sys.outgoing(i)}
    return sorted(ns)


def undirected_distances(sys: InterconnectedSystem, src: int) -> list[int]:
    """Hop distance from ``src`` to every subsystem, with every connection
    usable in both directions: one BFS."""
    adj = [neighbors(sys, v) for v in range(sys.r)]
    dist = {src: 0}
    queue = deque([src])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    assert len(dist) == sys.r, "topology is not weakly connected"
    return [dist[v] for v in range(sys.r)]


def bfs_tree_parents(sys: InterconnectedSystem) -> list[int | None]:
    """Each subsystem's parent in the BFS tree rooted at subsystem 0: the
    lowest-id neighbor one hop closer to 0 (None at the root)."""
    dist = undirected_distances(sys, 0)
    parents: list[int | None] = [None]
    for v in range(1, sys.r):
        parents.append(min(j for j in neighbors(sys, v) if dist[j] == dist[v] - 1))
    return parents


def filter_trace(trace: Trace, round: int | None = None, agent: int | None = None) -> Trace:
    """Records from one round and/or touching one agent (as sender or receiver)."""
    return Trace([
        rec
        for rec in trace
        if (round is None or rec.round == round)
        and (agent is None or agent in (rec.sender, rec.receiver))
    ])


def run_delayed(sys: InterconnectedSystem, program, rng, max_delay: int) -> RunResult:
    """``runtime.run`` with its timing loosened: each message becomes
    deliverable 1..``max_delay`` rounds after its send, as ``rng`` draws, but
    never before an earlier message on its channel (FIFO per channel), and
    each round the live agents step in an order ``rng`` shuffles.  A
    ``Recv`` names one sender or a tuple of them; a tuple resumes with
    ``[(sender, payload), ...]``, the oldest deliverable message of each, in
    ascending sender order.  Payloads are copied and traced as ``run`` does.
    With ``max_delay`` 1 every agent sees in each round what lockstep shows
    it, so only the order of the trace's records can differ."""
    records = []
    round_no = 0
    # inbox[i][j]: (deliverable round, payload) from j to i, in send order
    inbox = [
        {j: deque() for j in neighbors(sys, i)} for i in range(sys.r)
    ]

    def sender(i):
        def send(to, payload):
            if i not in inbox[to]:
                raise ProtocolError(f"agent {i}: send to {to}, which is not a neighbor")
            text, copy = _encode_payload(payload, i, to)
            queue = inbox[to][i]
            ready = round_no + rng.randint(1, max_delay)
            queue.append((max(ready, queue[-1][0]) if queue else ready, copy))
            records.append(TraceRecord(round_no, i, to, text))
        return send

    gens = []
    for i in range(sys.r):
        incoming = {c.from_: c.E for c in sys.incoming(i)}
        outgoing = {c.to: c.E for c in sys.outgoing(i)}
        gens.append(program(AgentContext(i, sys.subsystem(i), incoming, outgoing, sender(i))))
    waits: dict = dict.fromkeys(range(sys.r))  # live agent -> the Recv's frm

    def senders(frm) -> tuple:
        return frm if isinstance(frm, tuple) else (frm,)

    outputs: dict = {}
    while waits:
        round_no += 1
        order = list(waits)
        rng.shuffle(order)
        for i in order:
            while True:
                frm = waits[i]
                resume = None
                if frm is not None:
                    ready = [
                        j for j in sorted(senders(frm))
                        if inbox[i][j] and inbox[i][j][0][0] <= round_no
                    ]
                    if not ready:
                        break
                    got = [(j, inbox[i][j].popleft()[1]) for j in ready]
                    resume = got if isinstance(frm, tuple) else got[0][1]
                try:
                    action = gens[i].send(resume)
                except StopIteration as stop:
                    outputs[i] = stop.value
                    del waits[i]
                    break
                if not isinstance(action, Recv):
                    raise ProtocolError(f"agent {i}: yielded {action!r}; expected Recv")
                if not all(j in inbox[i] for j in senders(action.frm)):
                    raise ProtocolError(f"agent {i}: receive from {action.frm!r}")
                waits[i] = action.frm
        if waits and not any(
            inbox[i][j] for i, frm in waits.items() for j in senders(frm)
        ):
            raise DeadlockError(f"delayed run: {waits} wait forever")
    return RunResult(dict(sorted(outputs.items())), Trace(records), round_no)


def batch_exits(self: Region, cap: int, price: list) -> list:
    """Each own vertex's cheapest step out of the region: 1 over an open
    sink edge, else 1 + the least ``price`` over its residual cross edges
    (``cap`` or more when it has neither).  ``price`` is read at cached ids
    only.  With :func:`batch_relax`, the batch reference for the residual
    distances that ``Region.recompute_labels`` and the relabel sweep compute
    step by step; call it as ``batch_exits(region, cap, price)``."""
    n, flow, open_at, cross = self.n, self.flow, self.open_at, self.cross
    base = []
    for v, room in enumerate(open_at):
        b = cap
        for w, e in cross[v]:
            if flow[e] == room and price[w] < b:
                b = price[w]
        base.append(1 if room and flow[v - n] == 0 else b + 1)
    return base


def batch_relax(self: Region, cap: int, base: list) -> list:
    """Residual distance to the sink for every own vertex, capped at
    ``cap``, given its cheapest step out (see :func:`batch_exits`), in one
    lowering seeded with every step below the cap."""
    dist = [b if b < cap else cap for b in base]
    self._lower(dist, [(b, v) for v, b in enumerate(base) if b < cap])
    return dist


def reached_program(extra_iterations: int = 0):
    """Agent program: true iff every own state is input-reachable globally.
    It runs every iteration, with no tree to stop it at the fixpoint;
    ``extra_iterations`` appends outer iterations (fixpoint probing)."""

    def reached(ctx: AgentContext):
        succ = state_digraph(ctx.subsystem.A)
        tree = yield from bfs(ctx)
        N, _, _ = yield from _sizes(ctx, tree, succ)
        got, sizes, completed = yield from _reached_steps(
            ctx, succ, N + extra_iterations
        )
        return {
            "rchd": len(got) == ctx.subsystem.n,
            "reached": sorted(got),
            "N": N,
            "sizes_by_iteration": sizes,
            "completed_iteration": completed,
        }

    return reached


reached = reached_program()


def exact_relabel_by_speakers(ctx: AgentContext, tree: Tree, region: Region, cap: int):
    """Synchronous distance sweep replacing the cached recomputation once a
    run drags on: fresh residual distances relax to a global fixpoint, one
    region hop per round, so every label (own and cached) becomes the exact
    global residual distance and trapped excess freezes at once.  It needs
    the incoming boundary, or no neighbor caches what an agent sends.

    Each round the agents with news send every neighbor the capped
    distances of those own vertices the neighbor caches that changed since
    the agent last sent them, as ``[position, distance, ...]`` in the edge's
    boundary order (see :class:`Region`; ``[]`` when none changed); in
    round 1 every agent has news.  Then a union on the tree names the agents
    whose distances changed this round: they, and only they, send in the
    next round, and each agent receives only from the neighbors named.  Remote
    prices only decrease, so distances only decrease, and each remote price
    is the last distance its owner sent.  Once no agent has news every
    distance has been sent and every price equals it, which is the
    fixpoint, so every agent stops after the same round, and no barrier
    message can reach a sweep: it returns no early ones (see
    ``distributed._exact_relabel``)."""
    cross, flow, open_at = region.cross, region.flow, region.open_at
    remote = [cap] * len(region.label)  # prices, read at cached ids only
    shared = sorted(set().union(*region.shared_with.values()))
    sent: list = [None] * len(region.excess)

    def news(dist: list) -> dict:
        """The shared distances that differ from the last ones sent."""
        out = {}
        for v in shared:
            if sent[v] != dist[v]:
                sent[v] = out[v] = dist[v]
        return out

    base = batch_exits(region, cap, remote)
    dist = batch_relax(region, cap, base)
    changed = news(dist)
    speakers = {ctx.id, *ctx.neighbors}  # round 1: everyone
    t = 0
    while speakers:
        t += 1
        if ctx.id in speakers:
            for j in ctx.neighbors:
                d = []
                for x, v in enumerate(region.shared_with[j]):
                    if v in changed:
                        d += x, changed[v]
                # "chg" (the round) stays only because bench/checks.phase_of
                # recognises relabel messages by their key set.
                ctx.send(j, {"d": d, "chg": t})
        improved = False
        for j in ctx.neighbors:
            if j not in speakers:
                continue
            d = (yield Recv(j))["d"]
            cached = region.cached_from[j]
            for x in range(0, len(d), 2):
                w, val = cached[d[x]], d[x + 1]
                if val < remote[w]:
                    remote[w] = val
                    # a lower price matters only where it lowers a step out
                    for v, e in cross[w]:
                        if flow[e] == open_at[v] and val + 1 < base[v]:
                            base[v] = val + 1
                            improved = True
        changed = {}
        if improved:
            dist = batch_relax(region, cap, base)
            changed = news(dist)
        ids = yield from tree_aggregate(
            ctx, tree, [ctx.id] if changed else [],
            lambda v, heard: sorted(set(v).union(*heard)),
        )
        speakers = set(ids)
    # distances and prices never exceed the cap
    label = region.label
    for v, d in enumerate(dist):
        if d > label[v]:
            label[v] = d
    for w in range(len(dist), len(label)):
        if remote[w] > label[w]:
            label[w] = remote[w]
    return {}
