"""The distributed verification program: input-reachability flooding and a
region-discharge preflow for the matching condition.

``controlled`` runs on the lockstep runtime.  Its agents first build the BFS
tree rooted at agent 0 (the runtime's ``bfs``) and sum three sizes on it:
the SCC counts of the subsystems' state digraphs, which bound reachability's
iterations, and the numbers of states and inputs, which give the label cap.
Reachability then alternately exchanges boundary-visible reached states and
propagates internally.  The preflow for the matching condition is
push-relabel, computed region by region: each agent owns the flow vertices
of its own subsystem (source- and sink-adjacent copies of its states plus
its inputs) and keeps cached labels for the boundary vertices of
neighboring regions.  Both ends of a connection derive one boundary order
from its coupling pattern, for vertices and for edges alike, so everything
crosses by position: distances as (position, distance) pairs, offers and
accepts by the position of their cross edge.  Excess crosses region
boundaries through an offer/accept exchange that only ever moves units from
a strictly higher true label to a strictly lower one (each offer carries
its vertex's label), so global label validity is preserved and, at
quiescence, the flow into the sink equals the global maximum-matching size.

Global aggregates travel on that tree: each one is a convergecast plus
broadcast of 2(r - 1) messages (the runtime's ``tree_aggregate``).
``controlled`` runs four kinds: the sizes, reachability's per-iteration
"any reached set grew", the label census of every pass, and the final
AND-consensus.  They let ``controlled`` send only messages that carry news:
reachability stops at its global fixpoint, the relabel sweep sends only
news and its acknowledgements (see below), and accepts answer only offers.
Each skipped message is one whose effect the receiver could predict, so the
outputs are those of the full exchange.

Termination and the pass bound: each pass starts by recomputing every own
label as the residual distance to the sink given the cached boundary labels
(never below the previous label, so labels stay monotone and valid), pushes
strictly downhill with boundary exits preferred, and ends with a boundary
exchange plus the label census (the union of the labels below the cap and
the lowest label holding excess) that applies the gap heuristic globally.
Both ways of recomputing run the same steps (:meth:`Region.recompute_labels`):
the opening distances, a price per cached id, a lowering from the vertices
that fell.  From the second pass on, a sweep prices each distance a
neighbor sends as it arrives, relaxing distances across regions to a global
fixpoint, which rules out the count-to-infinity laddering two mutually
cached boundaries could otherwise sustain.  Its first round rides the
barrier before it; after that an agent sends only the distances that
changed, straight to the neighbors that cache them.  Every such message is
acknowledged, and Dijkstra-Scholten termination tells the root when none is
in flight, which is the fixpoint; the end rides the next barrier (see
:func:`_exact_relabel`).  Without the incoming boundary no neighbor caches
what a sweep would send, so none runs.
Labels are capped at 2*sum(n)+sum(p)+2 (the number of flow vertices); excess
stuck at the cap is permanently trapped, and the run stops once no region
holds excess below the cap.

Each region keeps its preflow in integer arrays (see :class:`Region`): own
vertex ids run L0..Ln-1, R0..Rn-1, U0..Up-1, and neighbors' cached boundary
vertices follow.  The discharge is highest-label push-relabel with two
tie-breaks: the active vertex is the least (-label, id), and a push goes to
the sink first, otherwise to the least (label, id).  A stuck vertex
relabels the whole region by :meth:`Region.recompute_labels`, a global
relabel (Cherkassky and Goldberg, Algorithmica 19, 1997), so excess that
cannot reach the sink goes to the cap in one step instead of climbing.
"""

from __future__ import annotations

import heapq
from functools import cached_property

from .graphkit import scc
from .model import digraph, state_digraph
from .runtime import AgentContext, ProtocolError, Recv, Tree, bfs, tree_aggregate


# ---------------------------------------------------------------------------
# sizes and reachability


def _sizes(ctx: AgentContext, tree: Tree, succ: list):
    """The sizes ``[SCC count of the state digraph succ, n, p]`` summed on
    ``tree``."""
    own = ctx.subsystem
    return (yield from tree_aggregate(
        ctx, tree, [len(scc(succ)), own.n, own.p],
        lambda sums, heard: [sum(x) for x in zip(sums, *heard)],
    ))


def _reached_steps(
    ctx: AgentContext, succ: list, iterations: int, tree: Tree | None = None
):
    """Up to the given number of exchange-absorb-propagate iterations on the
    agent's state digraph ``succ``; returns the reached set, its size after
    each iteration, and the iteration at which it first covered every own
    state.

    With a ``tree``, an OR on it after each iteration but the last asks
    whether any agent's reached set grew.  If none did, the next iteration
    would send and absorb exactly what this one did, so the sets are at
    their fixpoint: every agent stops and pads the sizes with the last one,
    which gives the same outputs as running every iteration."""
    own = ctx.subsystem
    visible = {j: {l for _, l in E.nonzeros} for j, E in ctx.outgoing.items()}
    # absorb[j][l]: own states that j's state l feeds
    absorb = {
        j: digraph(E.cols, ((l, k) for k, l in E.nonzeros))
        for j, E in ctx.incoming.items()
    }
    reached = {k for k, _ in own.B.nonzeros}
    fresh = list(reached)  # reached states whose successors are not yet added

    def add(states):
        for k in states:
            if k not in reached:
                reached.add(k)
                fresh.append(k)

    sizes = []
    completed = None
    for it in range(1, iterations + 1):
        before = len(reached)
        for j in sorted(ctx.outgoing):
            ctx.send(j, sorted(reached & visible[j]))
        for j in sorted(ctx.incoming):
            avail = yield Recv(j)
            for l in avail:
                add(absorb[j][l])
        while fresh:
            add(succ[fresh.pop()])
        sizes.append(len(reached))
        if completed is None and len(reached) == own.n:
            completed = it
        if tree is not None and it < iterations:
            grew = yield from tree_aggregate(
                ctx, tree, len(reached) > before, lambda v, heard: v or any(heard)
            )
            if not grew:
                sizes += [len(reached)] * (iterations - it)
                break
    return reached, sizes, completed


# ---------------------------------------------------------------------------
# region state for the preflow


def _vkey(v) -> str:
    return f"{v[0]}{v[2]}"


class Region:
    """One agent's share of the global unit-capacity flow network.

    Own vertices: a left copy of each state, one vertex per input (also on
    the left), and a right copy of each state.  The source feeds every own
    left (those edges start saturated), every own right feeds the sink, and
    the edges between sides follow the subsystem's own patterns plus the
    coupling patterns on incident connections.  Vertices owned by neighbors
    appear only as cached labels.

    Vertices are integers.  Own ids run L0..Ln-1, R0..Rn-1, U0..Up-1 (the
    sorted order of the ``(side, agent, index)`` tuples they stand for), and
    the cached boundary vertices of neighbors follow in the same sorted
    order; ``names`` spells each id in the snapshots (``"L3"``, or
    ``"2.R0"`` for agent 2's vertex) and ends with the sink ``"t"``.
    ``label`` covers own and cached ids, ``excess`` and ``holding`` own ids,
    ``flow`` edge ids: edge k is right n + k's sink edge, then the own edges,
    then the cross edges.  ``internal[v]`` lists the (own vertex, edge) pairs
    at own vertex v and ``cross[x]`` the pairs across the boundary at any id
    x, both sorted.  Two tie-breaks fix the discharge order: the active
    vertex is the least (-label, id), and a push goes to the sink first (its
    label is 0), otherwise to the least (label, id).

    Vertices and edges travel by position in one boundary order that both
    ends derive from the connections' E: what the sender feeds the
    receiver, then what the receiver feeds the sender.  Its vertices are
    the sender's lefts, then its rights, by ascending state (ascending ids
    at both ends); its edges are each connection's cross edges by ascending
    (k, l) of its E.  Towards j, ``shared_with[j]`` lists the own ids and
    ``edges_to[j]`` the cross edges; in j's order, ``cached_from[j]`` lists
    the cached ids and ``edges_from[j]`` the (own end, edge) pairs.  Without
    the incoming boundary a receiver caches only the sender's rights, which
    the sender's region does not see, so no vertex order has an entry and
    no distance is sent; an edge order holds only the sender's edges, and
    the receiver, which leaves out the edges onto its rights, has ``None``.
    """

    def __init__(self, ctx: AgentContext, include_incoming: bool = True):
        i = ctx.id
        sub = ctx.subsystem
        n, p = sub.n, sub.p
        self.owner = i
        self.n = n
        self.include_incoming = include_incoming
        V = 2 * n + p

        # (own end, remote vertex) per cross edge of each connection, by
        # ascending (k, l) of its E: from us to j, and from j to us
        out = {j: [(l, ("R", j, k)) for k, l in sorted(E.nonzeros)]
               for j, E in ctx.outgoing.items()}
        into = {j: [(n + k, ("L", j, l)) for k, l in sorted(E.nonzeros)]
                for j, E in ctx.incoming.items()}
        kept = [*out.values(), *into.values()] if include_incoming else out.values()
        self.remote = remote = sorted({v for links in kept for _, v in links})
        rid = {v: V + x for x, v in enumerate(remote)}
        self.label = [2] * n + [1] * n + [2] * p
        self.label += [1 if v[0] == "R" else 2 for v in remote]
        self.excess = [1] * n + [0] * n + [1] * p
        self.holding = [0] * V  # units reserved for cross offers
        # the flow value that leaves room to push away from an own vertex
        self.open_at = [0] * n + [1] * n + [0] * p

        sink = V + len(remote)
        self.ends = ends = [(n + k, sink) for k in range(n)]  # (left, right) per edge
        ends += [(l, n + k) for k, l in sorted(sub.A.nonzeros)]
        ends += [(2 * n + l, n + k) for k, l in sorted(sub.B.nonzeros)]
        self.internal = internal = [[] for _ in range(V)]  # (own target, edge)
        for e in range(n, len(ends)):
            v, w = ends[e]
            internal[v].append((w, e))
            internal[w].append((v, e))
        # (vertex across the boundary, edge) for own and cached ids alike
        self.cross = cross = [[] for _ in range(V + len(remote))]

        def edge(x: int, v: tuple) -> int:
            e, y = len(ends), rid[v]
            ends.append((x, y) if x < n else (y, x))
            cross[x].append((y, e))
            cross[y].append((x, e))
            return e

        # each boundary order, at both ends (see the class doc)
        self.edges_to, self.edges_from, self.shared_with = {}, {}, {}
        self.cached_from = {j: [] for j in ctx.neighbors}
        for j in ctx.neighbors:
            ours = [(x, edge(x, v)) for x, v in out.get(j, [])]
            if include_incoming:
                theirs = [(x, edge(x, v)) for x, v in into.get(j, [])]
                self.edges_from[j] = theirs + ours
                self.shared_with[j] = sorted({x for x, _ in theirs + ours})
            else:  # the edges onto our rights are left out: j's offers find none
                theirs, self.shared_with[j] = [], []
                self.edges_from[j] = [(x, None) for x, _ in into.get(j, [])]
            self.edges_to[j] = [e for _, e in ours + theirs]
        if include_incoming:
            for v in remote:
                self.cached_from[v[1]].append(rid[v])
        for adjacency in (*internal, *cross):
            adjacency.sort()
        self.flow = [0] * len(ends)

    @cached_property
    def names(self) -> list:
        """Each id spelled for the snapshots (see above), built on first read."""
        i, n, p = self.owner, self.n, len(self.excess) - 2 * self.n
        own = [(s, i, k) for s, m in (("L", n), ("R", n), ("U", p)) for k in range(m)]
        return [*map(_vkey, own), *(f"{v[1]}.{_vkey(v)}" for v in self.remote), "t"]

    def sink_flow(self) -> int:
        return sum(self.flow[: self.n])

    # -- lazy global relabel -------------------------------------------------

    def opening(self, cap: int) -> list:
        """Each own vertex's distance to the sink, capped at ``cap``, with no
        price known: only open sink edges lead out, at a step of 1."""
        n, flow, open_at = self.n, self.flow, self.open_at
        dist = [1 if room and flow[v - n] == 0 else cap for v, room in enumerate(open_at)]
        self._lower(dist, [(1, n + k) for k in range(n) if flow[k] == 0])
        return dist

    def _lower(self, dist: list, heap: list) -> set:
        """Lower ``dist`` in place along residual paths from the ``(distance,
        vertex)`` entries of ``heap``, already in ``dist``; return all lowered."""
        flow, open_at, internal = self.flow, self.open_at, self.internal
        lowered = {v for _, v in heap}
        heapq.heapify(heap)
        while heap:
            d, v = heapq.heappop(heap)
            if d > dist[v]:
                continue
            # relax residual edges *into* v from own vertices
            d += 1
            room = open_at[v]
            for u, e in internal[v]:
                if flow[e] != room and d < dist[u]:
                    dist[u] = d
                    lowered.add(u)
                    heapq.heappush(heap, (d, u))
        return lowered

    def _price(self, dist: list, w: int, val: int, fell: list) -> None:
        """Price cached id ``w`` at ``val``: each own vertex whose residual
        step out through ``w`` (val + 1) beats its ``dist`` falls to it and
        joins ``fell`` as ``(distance, vertex)``, ready for :meth:`_lower`."""
        flow, open_at = self.flow, self.open_at
        for v, e in self.cross[w]:
            if flow[e] == open_at[v] and val + 1 < dist[v]:
                dist[v] = val + 1
                fell.append((val + 1, v))

    def recompute_labels(self, cap: int) -> None:
        """Raise every own label to the exact residual distance to the sink,
        treating cached boundary labels as the cost of leaving the region.

        The sweep's own steps: the opening distances, each cached id priced
        at its label, then the lowering from the vertices that fell.  Labels
        never decrease (a valid label is always a lower bound on the true
        residual distance), so label monotonicity and push validity are
        preserved while dead ends surface immediately instead of one relabel
        per exchange.
        """
        dist, fell, label = self.opening(cap), [], self.label
        for w in range(len(dist), len(label)):
            self._price(dist, w, label[w], fell)
        self._lower(dist, fell)
        label[: len(dist)] = map(max, label, dist)

    # -- local discharge -----------------------------------------------------

    def discharge(self, cap: int) -> None:
        """Push-relabel over own vertices until no pushable excess remains.

        A vertex whose label clears a cached boundary label reserves one unit
        per such exit for the coming exchange; everything beyond the
        reservation pushes internally, relabeling when stuck, until it either
        drains, pumps to the cap (trapped), or waits out the pass behind a
        pending reservation.

        A stuck vertex relabels the whole region (:meth:`recompute_labels`),
        so stranded excess reaches the cap in one step instead of climbing
        there.  Valid labels make that raise the stuck vertex; should it not,
        the vertex steps to 1 + its least residual neighbor label, so every
        stuck step still raises it and the loop ends."""
        n, label, excess, flow = self.n, self.label, self.excess, self.flow
        holding, internal, cross = self.holding, self.internal, self.cross
        open_at = self.open_at
        parked = [False] * len(excess)
        while True:
            v, top = -1, -1
            for u, x in enumerate(excess):
                if x > holding[u] and top < label[u] < cap and not parked[u]:
                    v, top = u, label[u]
            if v < 0:
                return
            room = open_at[v]
            if not holding[v]:
                exits = 0
                for w, e in cross[v]:
                    if flow[e] == room and label[w] < top:
                        exits += 1
                if exits:
                    holding[v] = min(excess[v], exits)
                    continue
            if room and flow[v - n] == 0:  # a right's sink edge, label 0
                flow[v - n] = 1
                excess[v] -= 1
                continue
            low, target = top, None
            for w, e in internal[v]:
                if flow[e] == room and label[w] < low:
                    low, target = label[w], (w, e)
            if target is not None:
                w, e = target
                flow[e] = 1 - room
                excess[v] -= 1
                excess[w] += 1
                continue
            if holding[v]:
                # Surplus behind a reservation: relabeling here would not be
                # strictly increasing (the reserved exits price below the
                # label), so the extra units sit out the pass instead.
                parked[v] = True
                continue
            self.recompute_labels(cap)
            if label[v] == top:
                edges = (*internal[v], *cross[v])
                prices = [label[w] for w, e in edges if flow[e] == room]
                label[v] = min(cap, 1 + min(prices, default=cap))


def _exact_relabel(
    ctx: AgentContext, tree: Tree, region: Region, cap: int, dist: list, heard: dict
):
    """The distance sweep opening every pass after the first, a diffusing
    computation with Dijkstra-Scholten termination (Dijkstra and Scholten,
    IPL 11(1), 1980; the shortest-path form of Chandy and Misra, CACM 25(11),
    1982): :meth:`Region.recompute_labels`'s steps, priced at the distances
    neighbors send instead of the cached labels, relax to a global fixpoint,
    so every label (own and cached) becomes the exact global residual
    distance and trapped excess freezes at once.  It needs the incoming
    boundary, or no neighbor caches what an agent sends.

    Round 1 rode the barrier (see :func:`_barrier`): the sweep starts from
    the own opening distances ``dist`` and applies the lists ``heard``.
    Each price heard lowers the vertices whose step out it beats
    (:meth:`Region._price`), each batch of messages lowers distances only
    from those (:meth:`Region._lower`), and the lowered shared ones are the
    news: a speaker sends each neighbor caching a change ``{"d": [position,
    distance, ...], "chg": acks}``, and an agent reads one ``Recv`` over all
    its neighbors at a time.  ``chg`` acknowledges that many news messages
    of the receiver; with no news for a sender, its acks go alone as ``{"d":
    [], "chg": k}``.  Each agent starts engaged to its tree parent, which
    counts its children as unacknowledged, and a neutral agent is engaged
    by the first news it hears.  An agent acknowledges its engager last,
    once none of its own messages is unacknowledged, and is neutral again.
    Distances and prices only fall, and each price is the last distance its
    owner sent, so once the root has nothing unacknowledged, no message is
    in flight and every price equals it: the fixpoint.  The end rides the
    next barrier: the root goes on to it, and every other agent leaves on
    the first barrier messages it receives, which it returns by sender."""
    remote = [cap] * len(region.label)  # prices, read at cached ids only
    # news heard and not yet acknowledged, the tree parent's engagement as one
    owed = {j: int(j == tree.parent) for j in ctx.neighbors}
    engager = ctx.id if tree.parent is None else tree.parent  # the root engages itself
    deficit = len(tree.children)  # own news and children not yet acknowledged
    fell: list = []  # (distance, vertex) that a price lowered; _lower empties it
    early: dict = {}

    def price(j: int, d: list) -> None:
        cached = region.cached_from[j]
        for x in range(0, len(d), 2):
            w, val = cached[d[x]], d[x + 1]
            if val < remote[w]:
                remote[w] = val
                region._price(dist, w, val, fell)

    for j in ctx.neighbors:
        price(j, heard[j])
    while True:
        out = {}
        if fell:
            lowered = region._lower(dist, fell)
            for j, ids in region.shared_with.items():
                d = [y for x, v in enumerate(ids) if v in lowered for y in (x, dist[v])]
                if d:
                    out[j] = d
        deficit += len(out)
        if not deficit and engager != ctx.id:
            engager = None  # every own message acknowledged: ack the engager too
        for j in ctx.neighbors:  # acks to the engager go only with news, or last
            acks = owed[j] - (j == engager)
            if j in out or (acks and j != engager):
                ctx.send(j, {"d": out.get(j, []), "chg": acks})
                owed[j] -= acks
        if not deficit and engager == ctx.id:
            break
        got = yield Recv(ctx.neighbors)
        if "offers" in got[0][1]:  # the next barrier has begun: the sweep is over
            early = dict(got)
            break
        for j, msg in got:
            deficit -= msg["chg"]
            if msg["d"]:
                if engager is None:
                    engager = j
                owed[j] += 1
                price(j, msg["d"])
    # distances and prices never exceed the cap
    region.label[:] = map(max, region.label, dist + remote[len(dist):])
    return early


def _barrier(ctx: AgentContext, region: Region, cap: int, early: dict):
    """One boundary exchange: offers out, accepts back, transfers applied on
    both sides.  ``early`` holds the labels/offers messages that the sweep
    before it received, by sender.  Returns the number of own units accepted
    away, and the next sweep's round 1 (``None`` without the incoming
    boundary: no sweep runs).

    That round goes as ``"labels"``: ``[position, distance, ...]`` in the
    edge's boundary order (see :class:`Region`) for the sender's opening
    distances below the cap (:meth:`Region.opening`), final once the
    discharge ends, as transfers move only cross flows and the census gap
    only labels.  The sweep leaves each cached label equal to its owner's,
    so no label goes here.  An offer is ``[position, label]``: one unit on
    the cross edge at that position of the offerer's order, and the
    offering vertex's label.  The receiver takes it if it has no edge there
    or the label is above its own end's; any other offer is a
    :class:`ProtocolError`.  Only a neighbor that made offers gets an
    accepts message, the positions taken in ascending order (possibly
    none), so an agent waits for replies only from the neighbors it offered
    to."""
    label, excess, flow = region.label, region.excess, region.flow
    offered = {}  # cross edge -> the label of the own vertex offering on it
    for v, budget in enumerate(region.holding):
        if budget:
            room = region.open_at[v]
            ranked = sorted(
                (label[w], w, e)
                for w, e in region.cross[v]
                if flow[e] == room and label[v] > label[w]
            )
            for _, _, e in ranked[:budget]:
                offered[e] = label[v]
    offers_to = {
        j: [[x, offered[e]] for x, e in enumerate(ids) if e in offered]
        for j, ids in region.edges_to.items()
    }

    dist = region.opening(cap) if region.include_incoming else None
    for j in ctx.neighbors:
        mine = []  # an empty order reads no distance
        for x, v in enumerate(region.shared_with[j]):
            if dist[v] < cap:
                mine += x, dist[v]
        ctx.send(j, {"labels": mine, "offers": offers_to[j]})

    inbound = {}
    accepts_to: dict[int, list] = {j: [] for j in ctx.neighbors}
    for j in ctx.neighbors:
        inbound[j] = early.get(j) or (yield Recv(j))
        theirs = region.edges_from[j]
        for offer in inbound[j]["offers"]:
            shape = type(offer) is list and len(offer) == 2
            if not (shape and type(offer[0]) is type(offer[1]) is int
                    and 0 <= offer[0] < len(theirs)):
                raise ProtocolError(
                    f"agent {ctx.id}: offer {offer!r} from {j} is not [position, label]"
                )
            x, price = offer
            v, e = theirs[x]
            if e is None or price > label[v]:
                accepts_to[j].append(x)
                excess[v] += 1
                if e is not None:
                    flow[e] ^= 1  # a unit crosses a residual edge: its flow flips

    for j in ctx.neighbors:
        if inbound[j]["offers"]:
            ctx.send(j, {"accepts": sorted(accepts_to[j])})
    accepted = []
    for j in ctx.neighbors:
        if offers_to[j]:
            reply = yield Recv(j)
            accepted += [region.edges_to[j][x] for x in reply["accepts"]]

    for e in accepted:  # a forward offer from our left, or a back one from our right
        v, w = region.ends[e]
        excess[v if v < len(excess) else w] -= 1
        flow[e] ^= 1
    if min(excess) < 0:
        raise RuntimeError(f"agent {ctx.id}: negative excess after the exchange")
    region.holding = [0] * len(excess)
    heard = {j: got["labels"] for j, got in inbound.items()}
    return len(accepted), (dist, heard) if region.include_incoming else None


def _census(ctx: AgentContext, tree: Tree, region: Region, cap: int):
    """Aggregate the global label census on the tree; apply the gap
    heuristic; report whether any excess anywhere is still mobile.

    The gap needs only the labels below the cap that are present, and
    mobility only the lowest label holding excess, so the aggregate is
    [sorted union of labels, [] or [lowest]].  Keyed by the sender's id, each
    message keeps the census shape {"<id>": [[labels], [low]]}, which trace
    readers tell apart from every other phase's messages."""

    def merge(part: list, heard: list) -> list:
        parts = [part, *heard]
        low = [l for _, lows in parts for l in lows]
        labels = sorted({l for ls, _ in parts for l in ls})
        return [labels, [min(low)] if low else []]

    own = region.label[: len(region.excess)]
    low = [l for l, x in zip(own, region.excess) if l < cap and x > 0]
    part = [sorted({l for l in own if l < cap}), [min(low)] if low else []]
    labels, low = yield from tree_aggregate(ctx, tree, part, merge, keyed=True)

    present = {0, *labels}
    gap = 1
    while gap in present:
        gap += 1
    for v, l in enumerate(own):
        if gap < l < cap:
            region.label[v] = cap
    return any(l < gap for l in low)


def _prd(ctx: AgentContext, tree: Tree, region: Region, cap: int, collect_states: bool):
    """Push-relabel passes separated by boundary exchanges until no excess in
    any region sits below the label cap.  Returns per-pass statistics."""
    transfers_by_pass = []
    sink_saturated_pass = None
    states = []
    pass_no = 0
    opening = None  # the next sweep's round 1, from the barrier
    early: dict = {}  # the barrier messages the sweep received
    while True:
        pass_no += 1
        if pass_no > 4 * cap + 10:
            raise RuntimeError(f"agent {ctx.id}: discharge failed to settle")
        if opening:
            early = yield from _exact_relabel(ctx, tree, region, cap, *opening)
        else:
            # On the first pass no flow exists yet, and without the incoming
            # boundary no price can improve: the sweep would end here too.
            region.recompute_labels(cap)
        region.discharge(cap)
        sent, opening = yield from _barrier(ctx, region, cap, early)
        transfers_by_pass.append(sent)
        if sink_saturated_pass is None and region.sink_flow() == region.n:
            sink_saturated_pass = pass_no
        if collect_states:
            states.append(_snapshot(region, pass_no))
        mobile = yield from _census(ctx, tree, region, cap)
        if not mobile:
            break
    return {
        "passes": pass_no,
        "transfers_by_pass": transfers_by_pass,
        "sink_saturated_pass": sink_saturated_pass,
        "states": states,
    }


def _snapshot(region: Region, pass_no: int) -> dict:
    names = region.names
    return {
        "pass": pass_no,
        "labels": dict(zip(names, region.label[: len(region.excess)])),
        "excess": dict(zip(names, region.excess)),
        "saturated": sorted(
            [names[v], names[w]] for (v, w), f in zip(region.ends, region.flow) if f == 1
        ),
    }


def controlled_program(
    drop_incoming_boundary: bool = False, collect_states: bool = False
):
    """Agent program: reachability plus the region preflow plus consensus;
    every agent returns the global controllability verdict and its stats.
    ``drop_incoming_boundary`` enables the incoming-boundary region
    simplification, ``collect_states`` per-pass state snapshots."""

    def controlled(ctx: AgentContext):
        succ = state_digraph(ctx.subsystem.A)
        tree = yield from bfs(ctx)
        N, total_n, total_p = yield from _sizes(ctx, tree, succ)
        got, sizes, completed = yield from _reached_steps(ctx, succ, N, tree)
        rchd = len(got) == ctx.subsystem.n

        cap = 2 * total_n + total_p + 2
        region = Region(ctx, include_incoming=not drop_incoming_boundary)
        prd_stats = yield from _prd(ctx, tree, region, cap, collect_states)
        mchd = region.sink_flow() == ctx.subsystem.n

        ctld = yield from tree_aggregate(
            ctx, tree, rchd and mchd, lambda v, heard: v and all(heard)
        )
        out = {
            "ctld": ctld,
            "rchd": rchd,
            "mchd": mchd,
            "sink_flow": region.sink_flow(),
            "n": ctx.subsystem.n,
            "reached": sorted(got),
            "N": N,
            "reached_sizes": sizes,
            "reached_completed": completed,
            "passes": prd_stats["passes"],
            "transfers_by_pass": prd_stats["transfers_by_pass"],
            "sink_saturated_pass": prd_stats["sink_saturated_pass"],
        }
        if collect_states:
            out["states"] = prd_stats["states"]
        return out

    return controlled


controlled = controlled_program()
