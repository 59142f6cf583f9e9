"""Independent brute-force oracles used to freeze expected test values.

Everything here favors obviousness over speed: bitmask DP over right
vertices, per-source DFS, pairwise reachability closures, dense index
arithmetic.  Nothing imports the algorithm implementations under test.  The
last section holds two reference algorithms that only the tests use, a
unit-capacity preflow and a matching exchange, checked against the package's
matchings.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from structctl.model import InterconnectedSystem, SparsityPattern

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


def matching_opt_bruteforce(
    b: Bipartite, weights: dict | None = None
) -> tuple[int, int]:
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
                w = 0 if weights is None else weights[(ll, r)]
                adj[li].append((rpos[r], w))

    @lru_cache(maxsize=None)
    def best(i: int, mask: int) -> tuple[int, int]:
        if i == len(lefts):
            return (0, 0)
        top = best(i + 1, mask)
        for rj, wt in adj[i]:
            if not mask & (1 << rj):
                c2, w2 = best(i + 1, mask | (1 << rj))
                cand = (c2 + 1, w2 + wt)
                if cand[0] > top[0] or (cand[0] == top[0] and cand[1] < top[1]):
                    top = cand
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

    Ad = np.array(Aprime.to_dense(), dtype=int).reshape(Aprime.rows, Aprime.cols)
    Bd = np.array(Bprime.to_dense(), dtype=int).reshape(Bprime.rows, Bprime.cols)
    Hd = np.array(H.to_dense(), dtype=int).reshape(H.rows, H.cols)
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
