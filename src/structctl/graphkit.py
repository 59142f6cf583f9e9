"""Deterministic graph algorithms on integer-indexed graphs.

A graph is one sorted successor list per vertex 0..len(g)-1 (see
``model.system_digraph``: state j is vertex j, input column j is vertex
n + j).  A matching reads the same lists as a bipartite graph: every vertex
is a left vertex, the vertices 0..n-1 are also the right vertices, and edge
l -> k can pair left l with right k.  It is held as mate arrays
``(mate_l, mate_r)``: ``mate_l[l]`` is the right matched to left l and
``mate_r[k]`` the left matched to right k, -1 where unmatched.

Wherever the visiting order picks one of several valid results, vertices
n.. (the inputs) go before 0..n-1 (the states), each ascending: the order of
the ``["u", j]`` < ``["x", j]`` certificate encoding.  Repeated runs, in any
process, produce identical results, which the certificates rely on.
"""

from __future__ import annotations

from collections import deque
from itertools import compress
from typing import Iterable

from .model import Graph

INF = float("inf")

Mates = tuple[list[int], list[int]]


def left_order(count: int, n: int) -> list[int]:
    """Vertices n..count-1, then 0..n-1."""
    return [*range(n, count), *range(n)]


# ---------------------------------------------------------------------------
# strongly connected components


def scc(g: Graph) -> list[list[int]]:
    """Components in reverse topological order of the condensation (each
    before every component that feeds it); Tarjan's algorithm, iteratively."""
    index = [-1] * len(g)
    low = [0] * len(g)
    on_stack = [False] * len(g)
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(len(g)):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(g[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(g[w])))
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(comp)
    return comps


def non_top_linked_components(g: Graph) -> list[list[int]]:
    """Components no edge enters from another component."""
    comps = scc(g)
    comp_of = [0] * len(g)
    for c, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = c
    fed = {
        comp_of[h] for t, heads in enumerate(g) for h in heads if comp_of[h] != comp_of[t]
    }
    return [comp for c, comp in enumerate(comps) if c not in fed]


# ---------------------------------------------------------------------------
# reachability


def input_reachable_with_parents(g: Graph, n: int) -> list[int]:
    """Breadth-first search from the inputs n..len(g)-1 through the states
    0..n-1: each state's parent (the vertex it was first reached from), -1
    for states no input reaches."""
    parent = [-1] * n
    q = deque(range(n, len(g)))
    while q:
        v = q.popleft()
        for w in g[v]:
            if parent[w] < 0:
                parent[w] = v
                q.append(w)
    return parent


# ---------------------------------------------------------------------------
# matchings


def max_matching(g: Graph, n: int) -> Mates:
    """Hopcroft–Karp into the rights 0..n-1.

    Two layering searches are skipped, as their answer is known: before the
    first phase every left is free, so every layer is 0 and a free right is
    reachable iff the graph has an edge; and once every right is matched, no
    augmenting path is left."""
    lefts = left_order(len(g), n)
    mate_l = [-1] * len(g)
    mate_r = [-1] * n

    def bfs() -> tuple[list[int], bool]:
        dist = [-1] * len(g)
        queue = [l for l in lefts if mate_l[l] < 0]
        for l in queue:
            dist[l] = 0
        reachable_free = False
        for l in queue:  # visits the lefts appended below too
            layer = dist[l] + 1
            for r in g[l]:
                nl = mate_r[r]
                if nl < 0:
                    reachable_free = True
                elif dist[nl] < 0:
                    dist[nl] = layer
                    queue.append(nl)
        return dist, reachable_free

    def augment_from(root: int, dist: list[int]) -> bool:
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
                    return True
                if dist[nl] == dist[v] + 1:
                    work.append((nl, iter(g[nl]), r))
                    break
            else:
                dist[v] = -1  # dead end for this phase
                work.pop()
        return False

    matched = 0
    dist, more = [0] * len(g), any(g)
    while more:
        for l in lefts:
            if mate_l[l] < 0 and augment_from(l, dist):
                matched += 1
                if matched == n:
                    return mate_l, mate_r
        dist, more = bfs()
    return mate_l, mate_r


def min_weight_max_matching(
    g: Graph,
    n: int,
    weights: dict,
    prefer_rights: Iterable[int] | None = None,
) -> Mates:
    """Minimum total weight among maximum-cardinality matchings into the
    rights 0..n-1; ``weights`` maps every edge (l, k) to its weight.

    Solved as a square assignment problem (missing pairs get a sentinel cost
    large enough that cardinality always dominates).  With ``prefer_rights``,
    ties in weight are broken toward matchings covering more of those right
    vertices (weights must then be integers); the result is still a
    minimum-weight maximum matching for the given weights.
    """
    lefts = left_order(len(g), n)
    mate_l = [-1] * len(g)
    mate_r = [-1] * n
    if not n:
        return mate_l, mate_r
    bonus_set = frozenset(prefer_rights) if prefer_rights is not None else frozenset()
    scale = n + 1
    cost_of: dict = {}
    for l, heads in enumerate(g):
        for r in heads:
            w = weights[(l, r)]
            if bonus_set:
                if w != int(w):
                    raise ValueError("prefer_rights requires integer weights")
                cost_of[(l, r)] = int(w) * scale - (1 if r in bonus_set else 0)
            else:
                cost_of[(l, r)] = w
    span = sum(abs(c) for c in cost_of.values()) + 1
    sentinel = 2 * span + 1

    size = len(lefts)  # the rights are vertices too, so never more than the lefts
    cost = [[sentinel] * size for _ in range(size)]
    lpos = {l: i for i, l in enumerate(lefts)}
    for (l, r), c in cost_of.items():
        cost[lpos[l]][r] = c

    # classic O(n^3) assignment with potentials, 1-based with column 0 a slack
    u = [0.0] * (size + 1)
    v = [0.0] * (size + 1)
    p = [0] * (size + 1)  # p[j]: row assigned to column j
    way = [0] * (size + 1)
    for i in range(1, size + 1):
        p[0] = i
        j0 = 0
        minv = [INF] * (size + 1)
        used = [False] * (size + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = INF
            j1 = 0
            for j in range(1, size + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(size + 1):
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

    for j in range(1, size + 1):
        li, r = p[j] - 1, j - 1
        if 0 <= li < len(lefts) and r < n and (lefts[li], r) in cost_of:
            mate_l[lefts[li]] = r
            mate_r[r] = lefts[li]
    return mate_l, mate_r


# ---------------------------------------------------------------------------
# matching structure


def right_deficiency_witness(g: Graph, mates: Mates) -> tuple[list, list] | None:
    """A set W of right vertices with fewer neighbors than members, when the
    maximum matching ``mates`` leaves rights unmatched; None when all rights
    are covered.

    W is the alternating reachability set from the unmatched rights; every
    neighbor of W is matched into W, which forces |N(W)| = |W| - #unmatched.
    Returns W ascending and N(W) in vertex order (inputs first).
    """
    mate_l, mate_r = mates
    n = len(mate_r)
    in_w = bytearray(l < 0 for l in mate_r)
    queue = list(compress(range(n), in_w))  # the unmatched rights, then W's growth
    if not queue:
        return None
    feeders: Graph = [[] for _ in range(n)]
    for l, heads in enumerate(g):
        for r in heads:
            feeders[r].append(l)
    count = len(mate_l)
    in_n = bytearray(count)
    for r in queue:  # visits the rights appended below too
        for l in feeders[r]:
            if in_n[l]:
                continue
            in_n[l] = 1
            mate = mate_l[l]
            if mate < 0:
                raise ValueError("matching is not maximum: augmenting path found")
            if not in_w[mate]:
                in_w[mate] = 1
                queue.append(mate)
    return (
        list(compress(range(n), in_w)),
        [*compress(range(n, count), in_n[n:]), *compress(range(n), in_n)],
    )
