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
neighboring regions.  Excess crosses region boundaries through an
offer/accept exchange that only ever moves units from a strictly higher
true label to a strictly lower one, so global label validity is preserved
and, at quiescence, the flow into the sink equals the global
maximum-matching size.

Global aggregates travel on that tree: each one is a convergecast plus
broadcast of 2(r - 1) messages (the runtime's ``tree_aggregate``).
``controlled`` runs five kinds: the sizes, reachability's per-iteration "any
reached set grew", the label census of every pass, the relabel sweep's
per-round list of agents with news, and the final AND-consensus.  They let
``controlled`` send only messages that carry news: reachability stops at its
global fixpoint, only agents with news speak in the relabel sweep, and
accepts answer only offers.  Each skipped message is one whose effect the
receiver could predict, so the outputs are those of the full exchange.

Termination and the pass bound: each pass starts by recomputing every own
label as the residual distance to the sink given the cached boundary labels
(never below the previous label, so labels stay monotone and valid), pushes
strictly downhill with boundary exits preferred, and ends with a boundary
exchange plus the label census (the union of the labels below the cap and
the lowest label holding excess) that applies the gap heuristic globally.
From the second pass on, the recomputation becomes a synchronous multi-round
sweep that relaxes distances across regions to a global fixpoint, which
rules out the count-to-infinity laddering two mutually cached boundaries
could otherwise sustain.  The sweep sends only distances that changed, and
after each round a union on the tree names the agents whose distances
changed; only they send in the next round, and all agents stop once none
did, which is a global fixpoint (see :func:`_exact_relabel`).  Without the
incoming boundary no neighbor caches what a sweep would send, so none runs.
Labels are capped at 2*sum(n)+sum(p)+2 (the number of flow vertices); excess
stuck at the cap is permanently trapped, and the run stops once no region
holds excess below the cap.

Each region keeps its preflow in integer arrays (see :class:`Region`): own
vertex ids run L0..Ln-1, R0..Rn-1, U0..Up-1, and neighbors' cached boundary
vertices follow.  The discharge is highest-label push-relabel with two
tie-breaks: the active vertex is the least (-label, id), and a push goes to
the sink first, otherwise to the least (label, id).
"""

from __future__ import annotations

import heapq

from .graphkit import scc
from .model import digraph, state_digraph
from .runtime import AgentContext, ProtocolError, Recv, Tree, bfs, tree_aggregate


# ---------------------------------------------------------------------------
# sizes and reachability


def _size_entry(ctx: AgentContext, succ: list) -> list:
    """The agent's share of the global sizes: ``[state-digraph SCC count, n,
    p]``, with ``succ`` the agent's ``state_digraph(A)``."""
    own = ctx.subsystem
    return [len(scc(succ)), own.n, own.p]


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
    order; ``names`` spells each id as it travels on the wire (``"L3"``, or
    ``"2.R0"`` for agent 2's vertex) and ends with the sink ``"t"``.
    ``label`` covers own and cached ids, ``excess`` and ``holding`` own ids,
    ``flow`` edge ids: edge k is right n + k's sink edge, then the own edges,
    then the cross edges.  ``internal[v]`` lists the (own vertex, edge) pairs
    at own vertex v and ``cross[x]`` the pairs across the boundary at any id
    x, both sorted.  Two tie-breaks fix the discharge order: the active
    vertex is the least (-label, id), and a push goes to the sink first (its
    label is 0), otherwise to the least (label, id).
    """

    def __init__(self, ctx: AgentContext, include_incoming: bool = True):
        i = ctx.id
        sub = ctx.subsystem
        n, p = sub.n, sub.p
        self.owner = i
        self.n = n
        self.include_incoming = include_incoming
        V = 2 * n + p

        # (own end, remote vertex, neighbor, wire key) per cross edge
        links = [
            (l, ("R", j, k), j, (i, l, j, k))
            for j in sorted(ctx.outgoing)
            for k, l in sorted(ctx.outgoing[j].nonzeros)
        ]
        if include_incoming:
            links += [
                (n + k, ("L", j, l), j, (j, l, i, k))
                for j in sorted(ctx.incoming)
                for k, l in sorted(ctx.incoming[j].nonzeros)
            ]
        remote = sorted({v for _, v, _, _ in links})
        rid = {v: V + x for x, v in enumerate(remote)}
        own = [(s, i, k) for s, m in (("L", n), ("R", n), ("U", p)) for k in range(m)]
        self.names = [_vkey(v) for v in own]
        self.names += [f"{v[1]}.{_vkey(v)}" for v in remote] + ["t"]
        self.label = [2] * n + [1] * n + [2] * p
        self.label += [1 if v[0] == "R" else 2 for v in remote]
        self.excess = [1] * n + [0] * n + [1] * p
        self.holding = [0] * V  # units reserved for cross offers
        # the flow value that leaves room to push away from an own vertex
        self.open_at = [0] * n + [1] * n + [0] * p

        sink = len(self.names) - 1
        self.ends = [(n + k, sink) for k in range(n)]  # (left, right) per edge
        self.ends += [(l, n + k) for k, l in sorted(sub.A.nonzeros)]
        self.ends += [(2 * n + l, n + k) for k, l in sorted(sub.B.nonzeros)]
        self.internal: list[list] = [[] for _ in range(V)]  # (own target, edge)
        for e in range(n, len(self.ends)):
            v, w = self.ends[e]
            self.internal[v].append((w, e))
            self.internal[w].append((v, e))
        # (vertex across the boundary, edge) for own and cached ids alike
        self.cross: list[list] = [[] for _ in range(V + len(remote))]
        self.keys: list = [None] * len(self.ends)  # wire key per cross edge
        self.edge_of: dict[tuple, int] = {}  # wire key -> cross edge
        self.shared_with = {j: [] for j in ctx.neighbors}  # own ids j caches
        self.remote_of = {j: {} for j in ctx.neighbors}  # j's keys -> cached ids
        for x, v, j, key in links:
            e = len(self.ends)
            self.ends.append((x, rid[v]) if x < n else (rid[v], x))
            self.cross[x].append((rid[v], e))
            self.cross[rid[v]].append((x, e))
            self.keys.append(key)
            self.edge_of[key] = e
            if x not in self.shared_with[j]:
                self.shared_with[j].append(x)
        for v in remote:
            self.remote_of[v[1]][_vkey(v)] = rid[v]
        for adjacency in (*self.internal, *self.cross, *self.shared_with.values()):
            adjacency.sort()
        self.flow = [0] * len(self.ends)

    def sink_flow(self) -> int:
        return sum(self.flow[: self.n])

    # -- lazy global relabel -------------------------------------------------

    def _distances(self, cap: int, price: list) -> list:
        """Residual distance to the sink for every own vertex, capped at
        ``cap``, with ``price`` (read at cached ids only) pricing the first
        step of any route that leaves the region."""
        return self._relax(cap, self._exits(cap, price))

    def _exits(self, cap: int, price: list) -> list:
        """Each own vertex's cheapest step out of the region: 1 over an open
        sink edge, else 1 + the least ``price`` over its residual cross edges
        (``cap`` or more when it has neither)."""
        n, flow, open_at, cross = self.n, self.flow, self.open_at, self.cross
        base = []
        for v, room in enumerate(open_at):
            b = cap
            for w, e in cross[v]:
                if flow[e] == room and price[w] < b:
                    b = price[w]
            base.append(1 if room and flow[v - n] == 0 else b + 1)
        return base

    def _relax(self, cap: int, base: list) -> list:
        """Residual distance to the sink for every own vertex, capped at
        ``cap``, given its cheapest step out (see :meth:`_exits`)."""
        flow, open_at, internal = self.flow, self.open_at, self.internal
        dist = [b if b < cap else cap for b in base]
        heap = sorted((b, v) for v, b in enumerate(base) if b < cap)
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
                    heapq.heappush(heap, (d, u))
        return dist

    def recompute_labels(self, cap: int) -> None:
        """Raise every own label to the exact residual distance to the sink,
        treating cached boundary labels as the cost of leaving the region.

        Labels never decrease (a valid label is always a lower bound on the
        true residual distance), so label monotonicity and push validity are
        preserved while dead ends surface immediately instead of one relabel
        per exchange.
        """
        for v, d in enumerate(self._distances(cap, self.label)):
            if d > self.label[v]:
                self.label[v] = d

    # -- local discharge -----------------------------------------------------

    def discharge(self, cap: int) -> None:
        """Push-relabel over own vertices until no pushable excess remains.

        A vertex whose label clears a cached boundary label reserves one unit
        per such exit for the coming exchange; everything beyond the
        reservation pushes internally, relabeling when stuck, until it either
        drains, pumps to the cap (trapped), or waits out the pass behind a
        pending reservation."""
        n, label, excess, flow = self.n, self.label, self.excess, self.flow
        holding, internal, cross = self.holding, self.internal, self.cross
        parked = [False] * len(excess)
        while True:
            v, top = -1, -1
            for u, x in enumerate(excess):
                if x > holding[u] and top < label[u] < cap and not parked[u]:
                    v, top = u, label[u]
            if v < 0:
                return
            room = self.open_at[v]
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
            edges = (*internal[v], *cross[v])
            prices = [label[w] for w, e in edges if flow[e] == room]
            label[v] = min(cap, 1 + min(prices, default=cap))


def _exact_relabel(ctx: AgentContext, tree: Tree, region: Region, cap: int):
    """Synchronous distance sweep replacing the cached recomputation once a
    run drags on: fresh residual distances relax to a global fixpoint, one
    region hop per round, so every label (own and cached) becomes the exact
    global residual distance and trapped excess freezes at once.  It needs
    the incoming boundary, or no neighbor caches what an agent sends.

    Each round the agents with news send every neighbor the capped
    distances of those own vertices the neighbor caches that changed since
    the agent last sent them (``{}`` when none of them did); in round 1
    every agent has news.  Then a union on the tree names the agents whose
    distances changed this round: they, and only they, send in the next
    round, and each agent receives only from the neighbors named.  Remote
    prices only decrease, so distances only decrease, and each remote price
    is the last distance its owner sent.  Once no agent has news every
    distance has been sent and every price equals it, which is the
    fixpoint, so every agent stops after the same round."""
    names, cross, flow = region.names, region.cross, region.flow
    open_at = region.open_at
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

    base = region._exits(cap, remote)
    dist = region._relax(cap, base)
    changed = news(dist)
    speakers = {ctx.id, *ctx.neighbors}  # round 1: everyone
    t = 0
    while speakers:
        t += 1
        if ctx.id in speakers:
            for j in ctx.neighbors:
                d = {}
                for v in region.shared_with[j]:
                    if v in changed:
                        d[names[v]] = changed[v]
                # "chg" (the round) stays only because bench/checks.phase_of
                # recognises relabel messages by their key set.
                ctx.send(j, {"d": d, "chg": t})
        improved = False
        for j in ctx.neighbors:
            if j not in speakers:
                continue
            heard = yield Recv(j)
            cached = region.remote_of[j]  # every key j sends, with both boundaries
            for key, val in heard["d"].items():
                w = cached[key]
                if val < remote[w]:
                    remote[w] = val
                    # a lower price matters only where it lowers a step out
                    for v, e in cross[w]:
                        if flow[e] == open_at[v] and val + 1 < base[v]:
                            base[v] = val + 1
                            improved = True
        changed = {}
        if improved:
            dist = region._relax(cap, base)
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


def _barrier(ctx: AgentContext, region: Region):
    """One boundary exchange: labels and offers out, accepts back, transfers
    applied on both sides.  Returns the number of own units accepted away.

    Only a neighbor that made offers gets an accepts message, possibly an
    empty one, so an agent waits for a reply only from the neighbors it
    offered to: an empty reply to no offer would move nothing.  An offer
    moves one unit: another amount is a :class:`ProtocolError`."""
    label, excess, flow, n = region.label, region.excess, region.flow, region.n
    offers_to: dict[int, list] = {j: [] for j in ctx.neighbors}
    for v, budget in enumerate(region.holding):
        if budget:
            room = region.open_at[v]
            ranked = sorted(
                (label[w], w, e)
                for w, e in region.cross[v]
                if flow[e] == room and label[v] > label[w]
            )
            for _, _, e in ranked[:budget]:
                key = region.keys[e]
                j = key[2] if key[0] == region.owner else key[0]
                offers_to[j].append([list(key), 1])

    names = region.names
    for j in ctx.neighbors:
        mine = {}
        for v in region.shared_with[j]:
            mine[names[v]] = label[v]
        ctx.send(j, {"labels": mine, "offers": sorted(offers_to[j])})
    inbound = {}
    for j in ctx.neighbors:
        inbound[j] = yield Recv(j)

    accepts_to: dict[int, list] = {j: [] for j in ctx.neighbors}
    incoming_units = []  # (own vertex, edge or None, new flow) moved to us
    for j in ctx.neighbors:
        labels = inbound[j]["labels"]
        cached = region.remote_of[j]
        for key, lab in labels.items():
            if key in cached and lab > label[cached[key]]:
                label[cached[key]] = lab
        for key, amount in inbound[j]["offers"]:
            if amount != 1:
                raise ProtocolError(
                    f"agent {ctx.id}: offer of {amount} units from {j}; offers move 1"
                )
            fs, fl, ts, tl = key
            if ts == region.owner:  # forward offer onto our right
                w = n + tl
                if not region.include_incoming:
                    accepts_to[j].append(key)
                    incoming_units.append((w, None, 1))
                elif labels[f"L{fl}"] > label[w]:
                    accepts_to[j].append(key)
                    incoming_units.append((w, region.edge_of[tuple(key)], 1))
            elif labels[f"R{tl}"] > label[fl]:  # a unit back along our cross edge
                accepts_to[j].append(key)
                incoming_units.append((fl, region.edge_of[tuple(key)], 0))

    for j in ctx.neighbors:
        if inbound[j]["offers"]:
            ctx.send(j, {"accepts": sorted(accepts_to[j])})
    accepted = []
    for j in ctx.neighbors:
        if offers_to[j]:
            reply = yield Recv(j)
            accepted += [region.edge_of[tuple(key)] for key in reply["accepts"]]

    for v, e, f in incoming_units:
        excess[v] += 1
        if e is not None:
            flow[e] = f
    for e in accepted:
        v, w = region.ends[e]
        if v < len(excess):  # our forward offer went through
            flow[e] = 1
            excess[v] -= 1
        else:  # our back offer went through
            flow[e] = 0
            excess[w] -= 1
    if min(excess) < 0:
        raise RuntimeError(f"agent {ctx.id}: negative excess after the exchange")
    region.holding = [0] * len(excess)
    return len(accepted)


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


def _prd(
    ctx: AgentContext,
    tree: Tree,
    region: Region,
    cap: int,
    collect_states: bool,
):
    """Push-relabel passes separated by boundary exchanges until no excess in
    any region sits below the label cap.  Returns per-pass statistics."""
    transfers_by_pass = []
    sink_saturated_pass = None
    states = []
    pass_no = 0
    while True:
        pass_no += 1
        if pass_no > 4 * cap + 10:
            raise RuntimeError(f"agent {ctx.id}: discharge failed to settle")
        if pass_no >= 2 and region.include_incoming:
            yield from _exact_relabel(ctx, tree, region, cap)
        else:
            # On the first pass no flow exists yet, and without the incoming
            # boundary no price can improve: the sweep would end here too.
            region.recompute_labels(cap)
        region.discharge(cap)
        sent = yield from _barrier(ctx, region)
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
        N, total_n, total_p = yield from tree_aggregate(
            ctx, tree, _size_entry(ctx, succ),
            lambda v, heard: [sum(col) for col in zip(v, *heard)],
        )
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
