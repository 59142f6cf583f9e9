"""Deterministic graph algorithms on integer-indexed graphs.

A graph is one sorted successor list per vertex 0..len(g)-1 (see
``model.system_digraph``: state j is vertex j, input column j is vertex
n + j).  A matching reads the same lists as a bipartite graph: every vertex
is a left vertex, the vertices 0..n-1 are also the right vertices, and edge
l -> k can pair left l with right k.  It is held as mate arrays
``(mate_l, mate_r)``: ``mate_l[l]`` is the right matched to left l and
``mate_r[k]`` the left matched to right k, -1 where unmatched; a maximum one
comes from Pothen–Fan's depth-first phases, with no layering search.

Wherever the visiting order picks one of several valid results, vertices
n.. (the inputs) go before 0..n-1 (the states), each ascending: the order of
the ``["u", j]`` < ``["x", j]`` certificate encoding.  Repeated runs, in any
process, produce identical results, which the certificates rely on.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from itertools import compress

from .model import Graph

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
    """Pothen–Fan with lookahead and fairness into the rights 0..n-1 (Pothen
    & Fan, ACM TOMS 16(4), 1990).

    A greedy pass in ``left_order`` starts it.  Each phase runs one
    depth-first search from every free left, in that order, and visits a
    right at most once.  A left looks ahead for a free right from its own
    pointer before it descends; a matched right stays matched, so the pointer
    only moves forward.  Odd phases scan arcs forward, even ones backward.
    The phases end once every right is matched, or after one that augments
    nothing, which proves the matching maximum.  The worst case is O(V·E),
    against Hopcroft–Karp's O(E·√V), but no phase needs a layering search."""
    mate_l, mate_r = [-1] * len(g), [-1] * n
    look = [len(heads) for heads in g]  # arcs before look[l] end at matched rights
    free = []
    for l in left_order(len(g), n):
        for i, r in enumerate(g[l]):
            if mate_r[r] < 0:
                mate_l[l], mate_r[r], look[l] = r, l, i + 1
                break
        else:
            free.append(l)
    unmatched = mate_r.count(-1)

    def augment(root: int) -> bool:
        # path[k + 1] is the mate of the right path[k] descended through
        path, scans = [root], [scan(g[root])]
        while scans:
            for r in scans[-1]:
                if visited[r]:
                    continue
                visited[r] = 1
                v = mate_r[r]
                heads = g[v]
                path.append(v)
                for i in range(look[v], len(heads)):
                    if mate_r[heads[i]] < 0:
                        look[v], r = i + 1, heads[i]
                        for l in reversed(path):
                            mate_r[r] = l
                            mate_l[l], r = r, mate_l[l]
                        return True
                look[v] = len(heads)
                scans.append(scan(heads))
                break
            else:
                path.pop()
                scans.pop()
        return False

    forward = True
    while free and unmatched:
        scan, visited, still = (iter if forward else reversed), bytearray(n), []
        for root in free:
            if not augment(root):
                still.append(root)
            elif not (unmatched := unmatched - 1):
                return mate_l, mate_r
        if len(still) == len(free):
            break
        free, forward = still, not forward
    return mate_l, mate_r


def min_weight_max_matching(g: Graph, n: int, weights: dict) -> Mates:
    """Minimum total weight among maximum-cardinality matchings into the
    rights 0..n-1; ``weights`` maps every edge (l, k) to a non-negative
    integer weight, which is the edge's cost.

    Successive shortest augmenting paths with potentials (Edmonds & Karp,
    J. ACM 19, 1972): each augmentation runs one Dijkstra from every free
    left over reduced costs, and the search stops when no free right can be
    reached.  After k augmentations the matching costs least among those of
    size k.  Costs are never negative, so the potentials start at zero.
    Where several matchings are optimal, the result is one of them.
    """
    mate_l = [-1] * len(g)
    mate_r = [-1] * n
    cost = [[weights[(l, r)] for r in heads] for l, heads in enumerate(g)]
    pot_l = [0] * len(g)
    pot_r = [0] * n
    free = [l for l in left_order(len(g), n) if g[l]]
    for _ in range(n):
        dist: dict[int, int] = {}  # right -> reduced distance from the free lefts
        via: dict[int, int] = {}  # right -> the left it was reached from
        # entries (distance, key): key < n is the right key, key >= n the free
        # left free[key - n]; at equal distance rights come out first, so a
        # free right at distance 0 can end the search before every free
        # left is expanded
        heap = [(0, n + i) for i in range(len(free))]
        while heap:
            d, key = heappop(heap)
            if key >= n:
                l = free[key - n]
            elif d > dist[key]:
                continue
            elif mate_r[key] < 0:
                break
            else:
                l = mate_r[key]
            base = d + pot_l[l]
            for r, c in zip(g[l], cost[l]):
                nd = base + c - pot_r[r]
                if r not in dist or nd < dist[r]:
                    dist[r] = nd
                    via[r] = l
                    heappush(heap, (nd, r))
        else:
            break  # no free right is reachable: the matching is maximum
        # lower the potential of everything settled nearer than the free
        # right found, by its shortfall: reduced costs stay non-negative and
        # become 0 along the path
        for l in free:
            pot_l[l] -= d
        for k, dk in dist.items():
            if dk < d:
                pot_r[k] += dk - d
                if mate_r[k] >= 0:
                    pot_l[mate_r[k]] += dk - d
        r = key
        while r >= 0:
            l = via[r]
            mate_r[r] = l
            mate_l[l], r = r, mate_l[l]
        free.remove(l)
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
