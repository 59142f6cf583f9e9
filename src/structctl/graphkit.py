"""Deterministic graph algorithms: SCCs, matchings, decompositions, flows.

All routines iterate vertices and edges in sorted order so that repeated runs
produce identical results (including across processes), which the trace and
certificate formats rely on.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .model import BipartiteGraph, Digraph

INF = float("inf")


# ---------------------------------------------------------------------------
# strongly connected components


@dataclass(frozen=True)
class SccDecomposition:
    """Components in reverse topological order of the condensation."""

    components: tuple[frozenset, ...]
    comp_of: dict
    dag_edges: frozenset[tuple[int, int]]  # (from component, to component)

    @property
    def non_top_linked(self) -> tuple[int, ...]:
        """Indices of components no other component feeds into."""
        fed = {h for _, h in self.dag_edges}
        return tuple(i for i in range(len(self.components)) if i not in fed)


def scc(g: Digraph) -> SccDecomposition:
    """Tarjan's algorithm, iteratively, over sorted vertices."""
    adj: dict = {v: [] for v in sorted(g.vertices)}
    for t, h in sorted(g.edges):
        adj[t].append(h)

    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    comps: list[frozenset] = []
    comp_of: dict = {}
    counter = 0

    for root in sorted(g.vertices):
        if root in index:
            continue
        work = [(root, iter(adj[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(adj[w])))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                cid = len(comps)
                comps.append(frozenset(comp))
                for w in comp:
                    comp_of[w] = cid

    dag = frozenset(
        (comp_of[t], comp_of[h]) for t, h in g.edges if comp_of[t] != comp_of[h]
    )
    return SccDecomposition(tuple(comps), comp_of, dag)


def non_top_linked_components(g: Digraph) -> list[frozenset]:
    dec = scc(g)
    return [dec.components[i] for i in dec.non_top_linked]


# ---------------------------------------------------------------------------
# reachability


def input_reachable(g: Digraph) -> set:
    """State vertices with a directed path from some non-isolated input vertex."""
    reached, _ = input_reachable_with_parents(g)
    return reached


def input_reachable_with_parents(g: Digraph) -> tuple[set, dict]:
    """Reached state vertices plus a BFS parent map (parents of the seeds are
    the inputs that feed them), usable to reconstruct witness paths."""
    adj: dict = {v: [] for v in g.vertices}
    for t, h in sorted(g.edges):
        adj[t].append(h)
    parent: dict = {}
    q: deque = deque()
    for v in sorted(g.vertices):
        if v[0] == "u" and adj[v]:
            for w in adj[v]:
                if w not in parent:
                    parent[w] = v
                    q.append(w)
    reached = set(parent)
    while q:
        v = q.popleft()
        for w in adj[v]:
            if w not in parent and w[0] == "x":
                parent[w] = v
                reached.add(w)
                q.append(w)
    return reached, parent


def path_to_input(parent: dict, v) -> list:
    """Walk the parent map back to the input that reached ``v``."""
    path = [v]
    while path[-1] in parent:
        path.append(parent[path[-1]])
    return list(reversed(path))


# ---------------------------------------------------------------------------
# matchings


@dataclass(frozen=True)
class Matching:
    """A one-to-one edge set between the stated left and right vertex sets."""

    edges: frozenset[tuple]
    left: frozenset
    right: frozenset

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", frozenset(self.edges))
        lefts_seen = set()
        rights_seen = set()
        for l, r in self.edges:
            if l not in self.left or r not in self.right:
                raise ValueError(f"matching edge ({l!r}, {r!r}) outside the graph")
            if l in lefts_seen or r in rights_seen:
                raise ValueError(f"matching reuses a vertex at edge ({l!r}, {r!r})")
            lefts_seen.add(l)
            rights_seen.add(r)

    @property
    def size(self) -> int:
        return len(self.edges)

    def left_map(self) -> dict:
        return {l: r for l, r in self.edges}

    def right_map(self) -> dict:
        return {r: l for l, r in self.edges}

    @property
    def matched_lefts(self) -> frozenset:
        return frozenset(l for l, _ in self.edges)

    @property
    def matched_rights(self) -> frozenset:
        return frozenset(r for _, r in self.edges)

    @property
    def unmatched_lefts(self) -> frozenset:
        return self.left - self.matched_lefts

    @property
    def unmatched_rights(self) -> frozenset:
        return self.right - self.matched_rights

    def sorted_edges(self) -> list[tuple]:
        return sorted(self.edges)


def max_matching(b: BipartiteGraph) -> Matching:
    """Hopcroft–Karp with sorted adjacency (deterministic result)."""
    lefts = sorted(b.left)
    adj: dict = {l: [] for l in lefts}
    for l, r in sorted(b.edges):
        adj[l].append(r)
    pair_l: dict = {l: None for l in b.left}
    pair_r: dict = {r: None for r in b.right}

    def bfs() -> tuple[dict, bool]:
        dist: dict = {}
        q: deque = deque()
        for l in lefts:
            if pair_l[l] is None:
                dist[l] = 0
                q.append(l)
        reachable_free = False
        while q:
            l = q.popleft()
            for r in adj[l]:
                nl = pair_r[r]
                if nl is None:
                    reachable_free = True
                elif nl not in dist:
                    dist[nl] = dist[l] + 1
                    q.append(nl)
        return dist, reachable_free

    def augment_from(root, dist) -> bool:
        # iterative layered DFS; frames are (left vertex, arc iterator, right
        # edge that led here from the previous frame)
        work = [(root, iter(adj[root]), None)]
        while work:
            v, it, _ = work[-1]
            moved = False
            for r in it:
                nl = pair_r[r]
                if nl is None:
                    pair_l[v] = r
                    pair_r[r] = v
                    for k in range(len(work) - 1, 0, -1):
                        prev = work[k - 1][0]
                        inc = work[k][2]
                        pair_l[prev] = inc
                        pair_r[inc] = prev
                    return True
                if dist.get(nl) == dist.get(v, INF) + 1:
                    work.append((nl, iter(adj[nl]), r))
                    moved = True
                    break
            if not moved:
                dist[v] = INF  # dead end for this phase
                work.pop()
        return False

    while True:
        dist, more = bfs()
        if not more:
            break
        for l in lefts:
            if pair_l[l] is None:
                augment_from(l, dist)

    edges = frozenset((l, r) for l, r in pair_l.items() if r is not None)
    return Matching(edges, b.left, b.right)


def min_weight_max_matching(
    b: BipartiteGraph,
    weights: dict,
    prefer_rights: Iterable | None = None,
) -> Matching:
    """Minimum total weight among maximum-cardinality matchings.

    Solved as a square assignment problem (missing pairs get a sentinel cost
    large enough that cardinality always dominates).  With ``prefer_rights``,
    ties in weight are broken toward matchings covering more of those right
    vertices (weights must then be integers); the result is still a
    minimum-weight maximum matching for the given weights.
    """
    lefts = sorted(b.left)
    rights = sorted(b.right)
    if not lefts or not rights:
        return Matching(frozenset(), b.left, b.right)
    bonus_set = frozenset(prefer_rights) if prefer_rights is not None else frozenset()
    scale = len(rights) + 1
    cost_of: dict = {}
    for l, r in b.edges:
        w = weights[(l, r)]
        if bonus_set:
            if w != int(w):
                raise ValueError("prefer_rights requires integer weights")
            cost_of[(l, r)] = int(w) * scale - (1 if r in bonus_set else 0)
        else:
            cost_of[(l, r)] = w
    span = sum(abs(c) for c in cost_of.values()) + 1
    sentinel = 2 * span + 1

    n = max(len(lefts), len(rights))
    cost = [[sentinel] * n for _ in range(n)]
    lpos = {l: i for i, l in enumerate(lefts)}
    rpos = {r: j for j, r in enumerate(rights)}
    for (l, r), c in sorted(cost_of.items()):
        cost[lpos[l]][rpos[r]] = c

    # classic O(n^3) assignment with potentials, 1-based with column 0 a slack
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    p = [0] * (n + 1)  # p[j]: row assigned to column j
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [INF] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = INF
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1

    edges = set()
    for j in range(1, n + 1):
        i = p[j]
        if i == 0:
            continue
        li, rj = i - 1, j - 1
        if li < len(lefts) and rj < len(rights):
            l, r = lefts[li], rights[rj]
            if (l, r) in b.edges:
                edges.add((l, r))
    return Matching(frozenset(edges), b.left, b.right)


# ---------------------------------------------------------------------------
# matching structure


def path_cycle_decomposition(m: Matching, digraph: Digraph | None = None) -> tuple[list, list]:
    """Split a matching, read as a successor relation, into elementary paths
    and cycles covering every vertex.

    Paths start at vertices never used as a matched right (isolated vertices
    are single-vertex paths) and end at vertices never used as a matched left.
    Returned sorted: paths by start vertex, cycles rotated to and sorted by
    their smallest vertex.
    """
    if digraph is not None:
        missing = [e for e in m.edges if e not in digraph.edges]
        if missing:
            raise ValueError(f"matching edge {sorted(missing)[0]!r} not in the digraph")
    succ = m.left_map()
    pred = m.right_map()
    verts = sorted(m.left | m.right)
    paths = []
    on_path: set = set()
    for v in verts:
        if v in pred:
            continue
        chain = [v]
        while chain[-1] in succ:
            chain.append(succ[chain[-1]])
        paths.append(chain)
        on_path.update(chain)
    cycles = []
    seen: set = set(on_path)
    for v in verts:
        if v in seen:
            continue
        cyc = [v]
        seen.add(v)
        w = succ[v]
        while w != v:
            cyc.append(w)
            seen.add(w)
            w = succ[w]
        cycles.append(cyc)
    paths.sort(key=lambda c: c[0])
    cycles.sort(key=lambda c: c[0])
    return paths, cycles


def matching_exchange(b: BipartiteGraph, m1: Matching, m2: Matching) -> Matching:
    """A maximum matching whose unmatched rights are m1's and unmatched lefts
    are m2's, built from the components of the symmetric difference.

    Both inputs must be maximum matchings of ``b``.
    """
    target = max_matching(b).size
    if m1.size != target or m2.size != target:
        raise ValueError("matching_exchange requires two maximum matchings")

    delta = (m1.edges | m2.edges) - (m1.edges & m2.edges)
    # side-tagged nodes so a vertex appearing on both sides stays two nodes
    node_edges: dict = {}
    for e in delta:
        l, r = e
        node_edges.setdefault(("L", l), []).append(e)
        node_edges.setdefault(("R", r), []).append(e)

    chosen = set(m1.edges & m2.edges)
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
            chosen.update(comp_edges & m1.edges)
            continue
        sides = {nd[0] for nd in endpoints}
        if sides == {"L"}:
            chosen.update(comp_edges & m2.edges)
        elif sides == {"R"}:
            chosen.update(comp_edges & m1.edges)
        else:
            # a left-to-right alternating path would let one input augment
            raise ValueError("matching_exchange requires two maximum matchings")
    return Matching(frozenset(chosen), b.left, b.right)


def right_deficiency_witness(b: BipartiteGraph, m: Matching) -> tuple[list, list] | None:
    """A set W of right vertices with fewer neighbors than members, when ``m``
    (maximum) leaves rights unmatched; None when all rights are covered.

    W is the alternating reachability set from the unmatched rights; every
    neighbor of W is matched into W, which forces |N(W)| = |W| - #unmatched.
    """
    free = sorted(m.unmatched_rights)
    if not free:
        return None
    by_right: dict = {}
    for l, r in sorted(b.edges):
        by_right.setdefault(r, []).append(l)
    left_of = m.right_map()
    right_of = m.left_map()
    w_set = set(free)
    n_set: set = set()
    q = deque(free)
    while q:
        r = q.popleft()
        for l in by_right.get(r, []):
            if l in n_set:
                continue
            n_set.add(l)
            mate = right_of.get(l)
            if mate is None:
                raise ValueError("matching is not maximum: augmenting path found")
            if mate not in w_set:
                w_set.add(mate)
                q.append(mate)
    return sorted(w_set), sorted(n_set)


# ---------------------------------------------------------------------------
# flows


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

    def saturated_edges(self) -> list:
        return sorted(e for e, f in self.flow.items() if f == self.cap[e])


def build_unit_network(b: BipartiteGraph) -> FlowNetwork:
    """Source -> lefts -> rights -> sink, all capacities 1."""
    edges: dict = {}
    for l in sorted(b.left):
        edges[(("s",), ("L",) + (l,))] = 1
    for l, r in sorted(b.edges):
        edges[(("L",) + (l,), ("R",) + (r,))] = 1
    for r in sorted(b.right):
        edges[(("R",) + (r,), ("t",))] = 1
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
