"""Distributed verification programs: input-reachability flooding and a
region-discharge preflow for the matching condition.

Both programs run on the lockstep runtime.  ``reached`` gossips
per-subsystem SCC counts to size the iteration budget, then alternately
exchanges boundary-visible reached states and propagates internally.
``controlled`` composes reachability with a push-relabel preflow computed
region by region: each agent owns the flow vertices of its own subsystem
(source- and sink-adjacent copies of its states plus its inputs) and keeps
cached labels for the boundary vertices of neighboring regions.  Excess
crosses region boundaries through an offer/accept exchange that only ever
moves units from a strictly higher true label to a strictly lower one, so
global label validity is preserved and, at quiescence, the flow into the
sink equals the global maximum-matching size.

Global aggregates travel on a BFS tree rooted at agent 0 that size gossip
builds as a side effect (the runtime's ``gossip`` and ``bfs_tree``): each one
is a convergecast plus broadcast of 2(r - 1) messages (``tree_aggregate``).
``controlled`` runs four kinds: reachability's per-iteration "any reached set
grew", the label census of every pass, the relabel sweep's per-round list of
agents with news, and the final AND-consensus.  They let ``controlled`` send
only messages that carry news: reachability stops at its global fixpoint,
only agents with news speak in the relabel sweep, and accepts answer only
offers.  Each skipped message is one whose effect the receiver could
predict, so the outputs are those of the full exchange.

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
"""

from __future__ import annotations

import heapq

from .graphkit import scc
from .model import state_digraph
from .runtime import AgentContext, Recv, Send, Tree, bfs_tree, gossip, tree_aggregate

T = ("t",)


# ---------------------------------------------------------------------------
# size gossip and reachability


def _size_entry(ctx: AgentContext) -> list:
    """The agent's size gossip entry: ``[state-digraph SCC count, n, p]``."""
    own = ctx.subsystem
    return [len(scc(state_digraph(own.A))), own.n, own.p]


def _reached_steps(ctx: AgentContext, iterations: int, tree: Tree | None = None):
    """Up to the given number of exchange-absorb-propagate iterations;
    returns the reached set, its size after each iteration, and the
    iteration at which it first covered every own state.

    With a ``tree``, an OR on it after each iteration but the last asks
    whether any agent's reached set grew.  If none did, the next iteration
    would send and absorb exactly what this one did, so the sets are at
    their fixpoint: every agent stops and pads the sizes with the last one,
    which gives the same outputs as running every iteration."""
    own = ctx.subsystem
    reached = set(own.B.row_support())
    succs = own.A.by_col()
    visible_cols = {j: ctx.outgoing[j].col_support() for j in ctx.outgoing}
    absorb = {j: ctx.incoming[j].by_col() for j in ctx.incoming}

    sizes = []
    completed = None
    for it in range(1, iterations + 1):
        before = len(reached)
        for j in sorted(ctx.outgoing):
            yield Send(j, sorted(reached & visible_cols[j]))
        for j in sorted(ctx.incoming):
            avail = yield Recv(j)
            for l in avail:
                reached.update(absorb[j].get(l, ()))
        for _ in range(own.n):
            frontier = set()
            for s_ in reached:
                frontier.update(succs.get(s_, ()))
            if frontier <= reached:
                break
            reached |= frontier
        sizes.append(len(reached))
        if completed is None and len(reached) == own.n:
            completed = it
        if tree is not None and it < iterations:
            grew = yield from tree_aggregate(
                ctx, tree, len(reached) > before, lambda v, heard: v or any(heard),
                keyed=False,
            )
            if not grew:
                sizes += [len(reached)] * (iterations - it)
                break
    return reached, sizes, completed


def reached_program(extra_iterations: int = 0):
    """Agent program: true iff every own state is input-reachable globally.
    It runs every iteration, with no tree to stop it at the fixpoint;
    ``extra_iterations`` appends outer iterations (fixpoint probing)."""

    def reached(ctx: AgentContext):
        info, _ = yield from gossip(ctx, _size_entry(ctx))
        N = sum(v[0] for v in info.values())
        got, sizes, completed = yield from _reached_steps(ctx, N + extra_iterations)
        return {
            "rchd": len(got) == ctx.subsystem.n,
            "reached": sorted(got),
            "N": N,
            "sizes_by_iteration": sizes,
            "completed_iteration": completed,
        }

    return reached


reached = reached_program()


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
    """

    def __init__(self, ctx: AgentContext, include_incoming: bool = True):
        i = ctx.id
        sub = ctx.subsystem
        self.owner = i
        self.n = sub.n
        self.include_incoming = include_incoming

        self.lefts = [("L", i, k) for k in range(sub.n)]
        self.lefts += [("U", i, k) for k in range(sub.p)]
        self.rights = [("R", i, k) for k in range(sub.n)]
        self.own = sorted(self.lefts + self.rights)

        # forward targets per own left / reverse sources per own right
        self.fwd: dict = {v: [] for v in self.lefts}
        self.back: dict = {w: [] for w in self.rights}
        self.flow: dict = {}
        self.cache: dict = {}
        self.edge_neighbor: dict = {}

        def add(v, w):
            self.flow[(v, w)] = 0
            if v in self.fwd:
                self.fwd[v].append(w)
            if w in self.back:
                self.back[w].append(v)

        for k, l in sorted(sub.A.nonzeros):
            add(("L", i, l), ("R", i, k))
        for k, l in sorted(sub.B.nonzeros):
            add(("U", i, l), ("R", i, k))
        for w in self.rights:
            self.flow[(w, T)] = 0
        for j in sorted(ctx.outgoing):
            for k, l in sorted(ctx.outgoing[j].nonzeros):
                v, w = ("L", i, l), ("R", j, k)
                add(v, w)
                self.cache.setdefault(w, 1)
                self.edge_neighbor[(v, w)] = j
        if include_incoming:
            for j in sorted(ctx.incoming):
                for k, l in sorted(ctx.incoming[j].nonzeros):
                    v, w = ("L", j, l), ("R", i, k)
                    add(v, w)
                    self.cache.setdefault(v, 2)
                    self.edge_neighbor[(v, w)] = j
        for targets in self.fwd.values():
            targets.sort()
        for sources in self.back.values():
            sources.sort()

        self.label = {v: 2 for v in self.lefts}
        self.label.update({w: 1 for w in self.rights})
        self.excess = {v: 1 for v in self.lefts}
        self.excess.update({w: 0 for w in self.rights})
        self.holding: dict = {}  # vertex -> units reserved for cross offers

        # own vertices whose labels each neighbor caches
        self.shared_with: dict[int, list] = {}
        for (v, w), j in sorted(self.edge_neighbor.items()):
            mine = v if v[1] == i else w
            bucket = self.shared_with.setdefault(j, [])
            if mine not in bucket:
                bucket.append(mine)
        for bucket in self.shared_with.values():
            bucket.sort()

    # -- residual structure ------------------------------------------------

    def _label_of(self, w) -> int:
        if w == T:
            return 0
        return self.label[w] if w in self.label else self.cache[w]

    def internal_residuals(self, v) -> list:
        """Pushable-within-region residual targets, in preference order."""
        out = []
        if v[0] in ("L", "U"):
            for w in self.fwd[v]:
                if w[1] == self.owner and self.flow[(v, w)] == 0:
                    out.append(w)
        else:
            if self.flow[(v, T)] == 0:
                out.append(T)
            for u in self.back[v]:
                if u[1] == self.owner and self.flow[(u, v)] == 1:
                    out.append(u)
        return out

    def cross_residuals(self, v) -> list:
        """(remote vertex, edge) pairs a unit at v could cross, any labels."""
        out = []
        if v[0] in ("L", "U"):
            for w in self.fwd[v]:
                if w[1] != self.owner and self.flow[(v, w)] == 0:
                    out.append((w, (v, w)))
        else:
            for u in self.back[v]:
                if u[1] != self.owner and self.flow[(u, v)] == 1:
                    out.append((u, (u, v)))
        return out

    def sink_flow(self) -> int:
        return sum(self.flow[(w, T)] for w in self.rights)

    # -- lazy global relabel -------------------------------------------------

    def _distances(self, cap: int, remote: dict) -> dict:
        """Residual distance to the sink for every own vertex, with ``remote``
        pricing the first step of any route that leaves the region."""
        dist = {v: cap for v in self.own}
        heap = []
        for w in self.rights:
            base = 1 if self.flow[(w, T)] == 0 else cap
            for u, _ in self.cross_residuals(w):
                base = min(base, remote[u] + 1)
            if base < cap:
                dist[w] = base
                heapq.heappush(heap, (base, w))
        for v in self.lefts:
            base = cap
            for w, _ in self.cross_residuals(v):
                base = min(base, remote[w] + 1)
            if base < cap:
                dist[v] = base
                heapq.heappush(heap, (base, v))
        while heap:
            d, v = heapq.heappop(heap)
            if d > dist[v]:
                continue
            # relax residual edges *into* v from own vertices
            if v[0] == "R":
                preds = [
                    u
                    for u in self.back[v]
                    if u[1] == self.owner and self.flow[(u, v)] == 0
                ]
            else:
                preds = [
                    w
                    for w in self.fwd[v]
                    if w[1] == self.owner and self.flow[(v, w)] == 1
                ]
            for u in preds:
                if d + 1 < dist[u]:
                    dist[u] = d + 1
                    heapq.heappush(heap, (d + 1, u))
        return dist

    def recompute_labels(self, cap: int) -> None:
        """Raise every own label to the exact residual distance to the sink,
        treating cached boundary labels as the cost of leaving the region.

        Labels never decrease (a valid label is always a lower bound on the
        true residual distance), so label monotonicity and push validity are
        preserved while dead ends surface immediately instead of one relabel
        per exchange.
        """
        dist = self._distances(cap, self.cache)
        for v in self.own:
            self.label[v] = max(self.label[v], min(dist[v], cap))

    # -- local discharge -----------------------------------------------------

    def discharge(self, cap: int) -> None:
        """Push-relabel over own vertices until no pushable excess remains.

        A vertex whose label clears a cached boundary label reserves one unit
        per such exit for the coming exchange; everything beyond the
        reservation pushes internally, relabeling when stuck, until it either
        drains, pumps to the cap (trapped), or waits out the pass behind a
        pending reservation."""
        parked: set = set()
        while True:
            active = [
                v
                for v in self.own
                if self.excess[v] - self.holding.get(v, 0) > 0
                and self.label[v] < cap
                and v not in parked
            ]
            if not active:
                return
            v = min(active, key=lambda u: (-self.label[u], u))
            if v not in self.holding:
                exits = sum(
                    1
                    for w, _ in self.cross_residuals(v)
                    if self.label[v] > self.cache[w]
                )
                if exits:
                    self.holding[v] = min(self.excess[v], exits)
                    continue
            targets = sorted(
                (self._label_of(w), w)
                for w in self.internal_residuals(v)
                if self.label[v] > self._label_of(w)
            )
            if targets:
                self._push(v, targets[0][1])
                continue
            if v in self.holding:
                # Surplus behind a reservation: relabeling here would not be
                # strictly increasing (the reserved exits price below the
                # label), so the extra units sit out the pass instead.
                parked.add(v)
                continue
            prices = [self._label_of(w) for w in self.internal_residuals(v)]
            prices += [self.cache[w] for w, _ in self.cross_residuals(v)]
            self.label[v] = min(cap, 1 + min(prices, default=cap))

    def _push(self, v, w) -> None:
        self.excess[v] -= 1
        assert self.excess[v] >= 0
        if w == T:
            self.flow[(v, T)] = 1
        elif v[0] in ("L", "U"):
            self.flow[(v, w)] = 1
            self.excess[w] += 1
        else:  # right returning a unit along an own in-edge
            self.flow[(w, v)] = 0
            self.excess[w] += 1


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
    remote = dict.fromkeys(region.cache, cap)
    shared = sorted({v for bucket in region.shared_with.values() for v in bucket})
    sent: dict = {}

    def news(dist: dict) -> dict:
        """The shared distances that differ from the last ones sent."""
        out = {}
        for v in shared:
            val = min(dist[v], cap)
            if sent.get(v) != val:
                sent[v] = out[v] = val
        return out

    dist = region._distances(cap, remote)
    changed = news(dist)
    speakers = {ctx.id, *ctx.neighbors}  # round 1: everyone
    t = 0
    while speakers:
        t += 1
        if ctx.id in speakers:
            for j in ctx.neighbors:
                d = {
                    _vkey(v): changed[v]
                    for v in region.shared_with.get(j, [])
                    if v in changed
                }
                # "chg" (the round) stays only because bench/checks.phase_of
                # recognises relabel messages by their key set.
                yield Send(j, {"d": d, "chg": t})
        improved = False
        for j in ctx.neighbors:
            if j not in speakers:
                continue
            heard = yield Recv(j)
            for key, val in heard["d"].items():
                v = (key[0], j, int(key[1:]))
                if v in remote and val < remote[v]:
                    remote[v] = int(val)
                    improved = True
        changed = {}
        if improved:
            dist = region._distances(cap, remote)
            changed = news(dist)
        ids = yield from tree_aggregate(
            ctx, tree, [ctx.id] if changed else [],
            lambda v, heard: sorted(set(v).union(*heard)), keyed=False,
        )
        speakers = set(ids)
    for v in region.own:
        region.label[v] = max(region.label[v], min(dist[v], cap))
    for w, val in remote.items():
        region.cache[w] = max(region.cache[w], min(val, cap))


def _edge_key(edge) -> list:
    (v, w) = edge
    return [v[1], v[2], w[1], w[2]]


def _edge_from_key(key) -> tuple:
    fs, fl, ts, tl = key
    return (("L", fs, fl), ("R", ts, tl))


def _barrier(ctx: AgentContext, region: Region):
    """One boundary exchange: labels and offers out, accepts back, transfers
    applied on both sides.  Returns the number of own units accepted away.

    Only a neighbor that made offers gets an accepts message, possibly an
    empty one, so an agent waits for a reply only from the neighbors it
    offered to: an empty reply to no offer would move nothing."""
    offers_to: dict[int, list] = {j: [] for j in ctx.neighbors}
    for v in sorted(region.holding):
        budget = region.holding[v]
        ranked = sorted(
            (region.cache[w], _edge_key(edge), edge)
            for w, edge in region.cross_residuals(v)
            if region.label[v] > region.cache[w]
        )
        for _, _, edge in ranked:
            if budget == 0:
                break
            offers_to[region.edge_neighbor[edge]].append(edge)
            budget -= 1

    for j in ctx.neighbors:
        yield Send(
            j,
            {
                "labels": {
                    _vkey(v): region.label[v] for v in region.shared_with.get(j, [])
                },
                "offers": [[_edge_key(e), 1] for e in sorted(offers_to[j])],
            },
        )
    inbound = {}
    for j in ctx.neighbors:
        inbound[j] = yield Recv(j)

    accepts_to: dict[int, list] = {j: [] for j in ctx.neighbors}
    incoming_units = []  # (edge, kind) transfers other agents make to us
    for j in ctx.neighbors:
        labels = inbound[j]["labels"]
        for key, lab in labels.items():
            side, idx = key[0], int(key[1:])
            v = (side, j, idx)
            if v in region.cache and lab > region.cache[v]:
                region.cache[v] = lab
        for key, amount in inbound[j]["offers"]:
            assert amount == 1
            edge = _edge_from_key(key)
            v, w = edge
            if w[1] == region.owner:  # forward offer onto our right
                sender_label = labels[_vkey(v)]
                ok = (
                    not region.include_incoming
                    or sender_label > region.label[w]
                )
                if ok:
                    accepts_to[j].append(key)
                    incoming_units.append((edge, "fwd"))
            else:  # neighbor returns a unit along our own cross edge
                sender_label = labels[_vkey(w)]
                if sender_label > region.label[v]:
                    accepts_to[j].append(key)
                    incoming_units.append((edge, "back"))

    for j in ctx.neighbors:
        if inbound[j]["offers"]:
            yield Send(j, {"accepts": sorted(accepts_to[j])})
    accepted_away = 0
    accepted_edges = []
    for j in ctx.neighbors:
        if not offers_to[j]:
            continue
        reply = yield Recv(j)
        for key in reply["accepts"]:
            accepted_edges.append(_edge_from_key(key))

    for edge, kind in incoming_units:
        v, w = edge
        if kind == "fwd":
            region.excess[w] += 1
            if region.include_incoming:
                region.flow[edge] = 1
        else:
            region.excess[v] += 1
            region.flow[edge] = 0
    for edge in accepted_edges:
        v, w = edge
        if v[1] == region.owner:  # our forward offer went through
            region.flow[edge] = 1
            region.excess[v] -= 1
        else:  # our back offer went through
            region.flow[edge] = 0
            region.excess[w] -= 1
        accepted_away += 1
    assert all(e >= 0 for e in region.excess.values())
    region.holding.clear()
    return accepted_away


def _census(ctx: AgentContext, tree: Tree, region: Region, cap: int):
    """Aggregate the global label census on the tree; apply the gap
    heuristic; report whether any excess anywhere is still mobile.

    The gap needs only the labels below the cap that are present, and
    mobility only the lowest label holding excess, so the aggregate is
    [sorted union of labels, [] or [lowest]].  Keyed by the sender's id, each
    message keeps the census shape {"<id>": [[labels], [low]]}, which trace
    readers tell apart from the size gossip's {"<id>": [scc, n, p]}."""

    def merge(part: list, heard: list) -> list:
        parts = [part, *heard]
        low = [l for _, lows in parts for l in lows]
        labels = sorted({l for ls, _ in parts for l in ls})
        return [labels, [min(low)] if low else []]

    below = [v for v in region.own if region.label[v] < cap]
    part = [
        sorted({region.label[v] for v in below}),
        sorted(region.label[v] for v in below if region.excess[v] > 0)[:1],
    ]
    labels, low = yield from tree_aggregate(ctx, tree, part, merge)

    present = {0, *labels}
    gap = 1
    while gap in present:
        gap += 1
    for v in region.own:
        if gap < region.label[v] < cap:
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
    def name(v) -> str:
        if v == T:
            return "t"
        if v[1] == region.owner:
            return _vkey(v)
        return f"{v[1]}.{_vkey(v)}"

    return {
        "pass": pass_no,
        "labels": {name(v): region.label[v] for v in region.own},
        "excess": {name(v): region.excess[v] for v in region.own},
        "saturated": sorted(
            [name(v), name(w)] for (v, w), f in region.flow.items() if f == 1
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
        info, parent = yield from gossip(ctx, _size_entry(ctx))
        tree = yield from bfs_tree(ctx, parent)
        sccs, ns, ps = zip(*info.values())
        N = sum(sccs)
        got, sizes, completed = yield from _reached_steps(ctx, N, tree)
        rchd = len(got) == ctx.subsystem.n

        cap = 2 * sum(ns) + sum(ps) + 2
        region = Region(ctx, include_incoming=not drop_incoming_boundary)
        prd_stats = yield from _prd(ctx, tree, region, cap, collect_states)
        mchd = region.sink_flow() == ctx.subsystem.n

        ctld = yield from tree_aggregate(
            ctx, tree, rchd and mchd, lambda v, heard: v and all(heard), keyed=False
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
