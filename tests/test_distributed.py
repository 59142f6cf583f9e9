"""Distributed reachability and the region preflow against the centralized
verdicts, plus the worked ring walkthrough pinned step by step."""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import json
import random
from collections import Counter

import pytest

from conftest import build_system, matching_size, reached_states
from oracles import (
    batch_exits,
    batch_relax,
    bfs_tree_parents,
    boundary_vertex_count,
    directed,
    exact_relabel_by_speakers,
    neighbors,
    reached,
    reached_program,
    scc_partition_oracle,
    undirected_distances,
)
from structctl import distributed
from structctl.centralized import verify
from structctl.distributed import (
    Region,
    _barrier,
    _sizes,
    _vkey,
    controlled,
    controlled_program,
)
from structctl.model import assemble_global, random_system, state_digraph
from structctl.runtime import AgentContext, ProtocolError, bfs, run, tree_aggregate


def corpus(count, start=0, r_hi=5, n_hi=6):
    for seed in range(start, start + count):
        rng = random.Random(seed * 31 + 7)
        yield seed, random_system(
            rng.randint(2, r_hi), (1, n_hi), (0, 2), 0.35, seed=seed
        )


def wide_corpus(count):
    """r in [1, 8], n in [1, 6], p in [0, 2] (so input-free subsystems occur),
    density in [0.05, 0.9], extra-connection probability in [0, 0.5]."""
    for seed in range(count):
        rng = random.Random(seed * 53 + 11)
        yield seed, random_system(
            rng.randint(1, 8), (1, 6), (0, 2), rng.uniform(0.05, 0.9),
            seed=7000 + seed, extra_conn_prob=rng.uniform(0, 0.5),
        )


def star(leaves):
    """A hub feeding odd leaves and fed by even ones: diameter 2."""
    return build_system(
        [(2, 1, {(1, 0)}, {(0, 0)}) for _ in range(leaves + 1)],
        [(i, 0, {(0, 1)}) if i % 2 else (0, i, {(1, 0)}) for i in range(1, leaves + 1)],
    )


def path(r):
    """r subsystems in a line, each feeding the next: diameter r - 1."""
    return build_system(
        [(2, 1 if i == 0 else 0, {(1, 0)}, {(0, 0)} if i == 0 else set()) for i in range(r)],
        [(i + 1, i, {(0, 1)}) for i in range(r - 1)],
    )


def detour():
    """0 - 3 - {1, 2}, 1 - 2: the lowest-id neighbor of 1 and of 2 is no
    closer to agent 0; their BFS parent is 3."""
    return build_system(
        [(2, 1 if i == 0 else 0, {(1, 0)}, {(0, 0)} if i == 0 else set()) for i in range(4)],
        [(3, 0, {(0, 1)}), (2, 3, {(0, 1)}), (1, 3, {(0, 1)}), (1, 2, {(0, 1)})],
    )


def single():
    return build_system([(2, 1, {(1, 0)}, {(0, 0)})], [])


def is_census(payload) -> bool:
    """The shape of census messages."""
    def ints(xs):
        return isinstance(xs, list) and all(type(x) is int for x in xs)

    return (
        isinstance(payload, dict)
        and bool(payload)
        and all(k.isdigit() for k in payload)
        and all(len(v) == 2 and ints(v[0]) and ints(v[1]) for v in payload.values())
    )


def is_ids(payload) -> bool:
    """An int list: a reach message, a ``bfs`` message or the sizes."""
    return isinstance(payload, list) and all(type(x) is int for x in payload)


def is_relabel(payload) -> bool:
    """A relabel sweep message: ``{"d": [position, distance, ...], "chg":
    acks}``, news when ``d`` is not empty and an ack-only message when it
    is."""
    return (
        isinstance(payload, dict)
        and set(payload) == {"d", "chg"}
        and isinstance(payload["d"], list)
    )


def subtrees(parents: list) -> list[set]:
    """Each agent's subtree ids in the tree that ``parents`` describes."""
    below = [{i} for i in range(len(parents))]
    for i, j in enumerate(parents):
        while j is not None:
            below[j].add(i)
            j = parents[j]
    return below


def recorded_sweeps(monkeypatch, sysm, program=controlled):
    """``run(sysm, program)`` with every relabel sweep watched.  Returns the
    run and the sweeps' events in the order the runtime stepped the agents,
    each tagged with the agent's sweep number k: ``("enter", k, i, region,
    dist, heard)`` with the sweep's arguments, ``("send", k, i, j,
    payload)``, ``("recv", k, i, frm, batch)`` with the ``Recv``'s senders
    and what it resumed with, and ``("leave", k, i, early, region)`` with
    what the sweep returned and a copy of the region it left."""
    real = distributed._exact_relabel
    events: list = []
    count: dict = {}

    def spy(ctx, tree, region, cap, dist, heard):
        k = count[ctx.id] = count.get(ctx.id, 0) + 1
        events.append(("enter", k, ctx.id, region, dist[:], copy.deepcopy(heard)))

        def send(to, payload):
            ctx.send(to, payload)
            events.append(("send", k, ctx.id, to, copy.deepcopy(payload)))

        sweep = real(dataclasses.replace(ctx, send=send), tree, region, cap, dist, heard)
        reply = None
        while True:
            try:
                action = sweep.send(reply)
            except StopIteration as stop:
                events.append(("leave", k, ctx.id, stop.value, copy.deepcopy(region)))
                return stop.value
            reply = yield action
            events.append(("recv", k, ctx.id, action.frm, reply))

    with monkeypatch.context() as m:
        m.setattr(distributed, "_exact_relabel", spy)
        return run(sysm, program), events


def run_with_speaker_union_sweep(monkeypatch, sysm, program):
    """``run(sysm, program)`` with the relabel sweep of
    :func:`oracles.exact_relabel_by_speakers`, which sends every neighbor a
    relabel message, ``"d": []`` included, in each round an agent speaks,
    and sends its own round 1 in place of the one the barrier carried."""
    with monkeypatch.context() as m:
        m.setattr(
            distributed, "_exact_relabel",
            lambda ctx, tree, region, cap, *round1: exact_relabel_by_speakers(
                ctx, tree, region, cap
            ),
        )
        return run(sysm, program)


def by_position(flat: list) -> dict:
    """A flat ``[position, value, ...]`` list as {position: value}."""
    return dict(zip(flat[::2], flat[1::2]))


def setup_messages(sysm) -> list[int]:
    """Per agent, the messages it sends before reachability: its ``bfs``
    messages, max(d_i, d_j) + 1 to each neighbor j, and the sizes, one to
    its parent and one to each child."""
    dist = undirected_distances(sysm, 0)
    parents = bfs_tree_parents(sysm)
    return [
        sum(max(dist[i], dist[j]) + 1 for j in neighbors(sysm, i))
        + (parents[i] is not None) + parents.count(i)
        for i in range(sysm.r)
    ]


def label_cap(sysm) -> int:
    """``controlled``'s label cap: the number of flow vertices plus 2."""
    subs = sysm.subsystems
    return 2 * sum(s.n for s in subs) + sum(s.p for s in subs) + 2


def ring_context(ring, i, sent=None):
    """Agent i's context on ``ring``; its sends go to ``sent`` as (to, payload)."""
    sent = [] if sent is None else sent
    return AgentContext(
        id=i,
        subsystem=ring.subsystem(i),
        incoming={c.from_: c.E for c in ring.incoming(i)},
        outgoing={c.to: c.E for c in ring.outgoing(i)},
        send=lambda to, payload: sent.append((to, payload)),
    )


class TestBoundaryCount:
    def test_counts_distinct_shared_vertices(self, ring4):
        # each connection couples state 2 to state 2: one left and one right
        # per connection, all distinct
        assert boundary_vertex_count(ring4) == 8

    def test_shared_vertices_not_double_counted(self):
        sysm = build_system(
            [(2, 1, set(), {(0, 0)}), (2, 0, set(), set()), (2, 0, set(), set())],
            [(1, 0, {(0, 0), (1, 0)}), (2, 0, {(0, 0)})],
        )
        # subsystem 0 state 0 feeds both neighbors: one left, three rights
        assert boundary_vertex_count(sysm) == 4


class TestReached:
    def test_matches_centralized_restriction(self):
        for seed, sysm in corpus(80):
            global_reach = reached_states(*assemble_global(sysm))
            res = run(sysm, reached)
            for i in range(sysm.r):
                off = sysm.state_offset(i)
                expected = sorted(
                    k
                    for k in range(sysm.subsystem(i).n)
                    if off + k in global_reach
                )
                assert res.outputs[i]["reached"] == expected, seed

    def test_already_at_fixpoint_after_n_iterations(self):
        for seed, sysm in corpus(40, start=200):
            base = run(sysm, reached)
            extra = run(sysm, reached_program(extra_iterations=3))
            for i in range(sysm.r):
                assert base.outputs[i]["reached"] == extra.outputs[i]["reached"]
                sizes = extra.outputs[i]["sizes_by_iteration"]
                n_base = base.outputs[i]["N"]
                assert sizes[n_base:] == [sizes[n_base - 1]] * 3, seed

    def test_controlled_stops_at_the_fixpoint_with_the_same_outputs(self, ring4):
        systems = [ring4, path(7)] + [sysm for _, sysm in corpus(40, start=400)]
        early = 0
        for sysm in systems:
            full = run(sysm, reached).outputs
            N = full[0]["N"]
            # sizes[i][k]: agent i's reached-set size after iteration k
            sizes = [
                [len({k for k, _ in sysm.subsystem(i).B.nonzeros})] + full[i]["sizes_by_iteration"]
                for i in range(sysm.r)
            ]
            quiet = next(
                (k for k in range(1, N + 1) if all(s[k] == s[k - 1] for s in sizes)), N
            )
            early += quiet < N
            res = run(sysm, controlled)
            for i, out in res.outputs.items():
                assert out["reached"] == full[i]["reached"]
                assert out["reached_sizes"] == full[i]["sizes_by_iteration"]
                assert out["reached_completed"] == full[i]["completed_iteration"]
            # Reach messages are the int lists an agent sends the subsystems
            # it feeds after its bfs and size messages, which are int lists
            # too, and before its first barrier message.
            sent: dict = {}
            barrier = set()
            setup = setup_messages(sysm)
            for rec in res.trace:
                payload = json.loads(rec.payload)
                if isinstance(payload, dict) and "offers" in payload:
                    barrier.add(rec.sender)
                elif rec.sender not in barrier and is_ids(payload):
                    if setup[rec.sender]:
                        setup[rec.sender] -= 1
                    else:
                        sent[rec.sender, rec.receiver] = sent.get((rec.sender, rec.receiver), 0) + 1
            edges = {(c.from_, c.to) for i in range(sysm.r) for c in sysm.outgoing(i)}
            assert sent == dict.fromkeys(edges, min(quiet, N))
        # ring4 completes only at iteration N; most corpus systems settle sooner
        assert early > len(systems) // 2

    def test_ring_completes_in_four_iterations(self, ring4):
        res = run(ring4, reached)
        assert [res.outputs[i]["completed_iteration"] for i in range(4)] == [1, 2, 3, 4]
        assert all(res.outputs[i]["rchd"] for i in range(4))
        assert all(res.outputs[i]["N"] == 4 for i in range(4))


class TestControlled:
    def test_agrees_with_centralized_verify(self):
        for seed, sysm in corpus(120, start=1000):
            want = verify(*assemble_global(sysm)).controllable
            res = run(sysm, controlled)
            got = {out["ctld"] for out in res.outputs.values()}
            assert got == {want}, seed

    def test_sink_inflow_sums_to_matching_size(self):
        for seed, sysm in corpus(80, start=2000):
            want = matching_size(*assemble_global(sysm))
            res = run(sysm, controlled)
            assert sum(out["sink_flow"] for out in res.outputs.values()) == want, seed

    def test_wide_parameters_agree_with_centralized(self):
        controllable = input_free = 0
        for seed, sysm in wide_corpus(80):
            gA, gB = assemble_global(sysm)
            want = verify(gA, gB).controllable
            res = run(sysm, controlled)
            assert {out["ctld"] for out in res.outputs.values()} == {want}, seed
            sink_flow = sum(out["sink_flow"] for out in res.outputs.values())
            assert sink_flow == matching_size(gA, gB), seed
            controllable += want
            input_free += any(s.p == 0 for s in sysm.subsystems)
        # both verdicts and input-free subsystems occur
        assert 0 < controllable < 80 and input_free > 0

    def test_passes_within_quadratic_boundary_budget(self):
        for seed, sysm in corpus(80, start=3000):
            beta = boundary_vertex_count(sysm)
            res = run(sysm, controlled)
            passes = max(out["passes"] for out in res.outputs.values())
            assert passes <= beta * beta, (seed, passes, beta)

    def test_unit_conservation_in_final_snapshots(self):
        for seed, sysm in corpus(30, start=4000):
            res = run(sysm, controlled_program(collect_states=True))
            total_units = sum(s.n + s.p for s in sysm.subsystems)
            settled = 0
            for i, out in res.outputs.items():
                last = out["states"][-1]
                settled += sum(last["excess"].values()) + out["sink_flow"]
            assert settled == total_units, seed

    def test_deterministic_reruns(self):
        for seed, sysm in corpus(10, start=5000):
            first = run(sysm, controlled)
            again = run(sysm, controlled)
            assert again.trace.to_jsonl() == first.trace.to_jsonl()
            assert again.outputs == first.outputs
            assert again.rounds == first.rounds

    def test_disconnected_topology_rejected(self):
        sysm = build_system(
            [(1, 1, set(), {(0, 0)}) for _ in range(4)],
            [(1, 0, {(0, 0)}), (3, 2, {(0, 0)})],
        )
        with pytest.raises(ValueError, match="weakly connected"):
            run(sysm, controlled)


class TestFloodedPhases:
    def test_census_messages_carry_one_aggregate_keyed_by_sender(self, ring4):
        def ints(xs):
            return isinstance(xs, list) and all(type(x) is int for x in xs)

        res = run(ring4, controlled)
        census = []
        for rec in res.trace:
            payload = json.loads(rec.payload)
            if isinstance(payload, dict) and all(k.isdigit() for k in payload):
                if all(len(v) == 2 and not ints(v) for v in payload.values()):
                    census.append((rec.sender, payload))
        assert census
        for sender, payload in census:
            assert list(payload) == [str(sender)]
            labels, low = payload[str(sender)]
            assert ints(labels) and ints(low) and len(low) <= 1

    @staticmethod
    def sweep_systems(ring4):
        systems = [ring4, star(5), path(6), detour()]
        systems += [sysm for _, sysm in corpus(20, start=6100, r_hi=8)]
        return systems + [
            random_system(40, (1, 8), (1, 2), 0.3, seed=40, extra_conn_prob=2 / 40)
        ]

    def test_no_agent_leaves_a_sweep_before_the_root_is_acknowledged(
        self, ring4, monkeypatch
    ):
        """The root leaves each sweep first, and only once it has nothing
        unacknowledged: its news and its children's engagements are all
        acknowledged, and no sweep message is in flight anywhere.  Every
        other agent leaves after it.  Without the incoming boundary no
        neighbor caches what a sweep would send, so none runs."""
        for sysm in [ring4] + [sysm for _, sysm in corpus(8, start=6100, r_hi=7)]:
            res = run(sysm, controlled_program(drop_incoming_boundary=True))
            assert not any(is_relabel(json.loads(rec.payload)) for rec in res.trace)

        sweeps = 0
        for sysm in self.sweep_systems(ring4):
            children = bfs_tree_parents(sysm).count(0)
            _, events = recorded_sweeps(monkeypatch, sysm)
            in_flight: dict = {}  # sweep -> its messages sent and not yet received
            deficit: dict = {}  # sweep -> what the root has unacknowledged
            left: dict = {}  # sweep -> the agents that have left it
            for kind, k, i, *rest in events:
                if kind == "enter" and i == 0:
                    deficit[k] = deficit.get(k, 0) + children
                elif kind == "send":
                    in_flight[k] = in_flight.get(k, 0) + 1
                    if i == 0 and rest[1]["d"]:
                        deficit[k] = deficit.get(k, 0) + 1
                elif kind == "recv":
                    got = [msg for _, msg in rest[1] if is_relabel(msg)]
                    in_flight[k] -= len(got)
                    if i == 0:
                        deficit[k] -= sum(msg["chg"] for msg in got)
                elif kind == "leave":
                    if i == 0:
                        assert k not in left and deficit[k] == 0 and in_flight[k] == 0
                    else:
                        assert 0 in left[k], (k, i)
                    left.setdefault(k, set()).add(i)
            assert all(ids == set(range(sysm.r)) for ids in left.values())
            sweeps += len(left)
        assert sweeps > 40

    def test_each_news_message_is_acknowledged_exactly_once(self, ring4, monkeypatch):
        """In each sweep the acks that j sends i (its ``chg`` counts) add up
        to the news messages i sent j, plus one if j is i's child in the
        tree, whose engagement i counts from the start.  No message is
        empty, and every news message says something new: each distance lies
        below the last one sent for its position in the sweep, which starts
        at the barrier's opening distance, capped."""
        quiet = 0
        for sysm in self.sweep_systems(ring4):
            parents = bfs_tree_parents(sysm)
            cap = label_cap(sysm)
            _, events = recorded_sweeps(monkeypatch, sysm)
            news: Counter = Counter()
            acks: Counter = Counter()  # (k, i, j): the acks i got from j
            engaged: Counter = Counter()
            entered = set()
            last: dict = {}  # (k, i, j) -> position -> the last distance i sent j
            for kind, k, i, *rest in events:
                if kind == "enter":
                    region, dist, _ = rest
                    entered.add((k, i))
                    for j, ids in region.shared_with.items():
                        last[k, i, j] = {x: min(dist[v], cap) for x, v in enumerate(ids)}
                    if parents[i] is not None:
                        engaged[k, parents[i], i] = 1
                elif kind == "send":
                    j, payload = rest
                    assert payload["d"] or payload["chg"] > 0
                    acks[k, j, i] += payload["chg"]
                    news[k, i, j] += bool(payload["d"])
                    for x, val in by_position(payload["d"]).items():
                        assert val < last[k, i, j][x], (k, i, j, x)
                        last[k, i, j][x] = val
            assert acks == news + engaged
            quiet += len(entered - {(k, i) for k, i, _ in +news})
        # in some sweeps some agents have no news at all
        assert quiet > 0

    def test_only_news_and_acks_cross_an_edge_inside_a_sweep(self, ring4, monkeypatch):
        """An agent inside a sweep sends only relabel messages, ``{"d":
        [position, distance, ...], "chg": acks}``, and each ``Recv`` names
        all its neighbors.  It receives batches of relabel messages, in
        ascending sender order; only the last batch of an agent other than
        the root holds anything else, and then only the labels/offers
        messages of the next barrier, which the sweep hands on to it.  The
        trace's relabel messages are exactly the ones the sweeps sent."""
        for sysm in self.sweep_systems(ring4):
            res, events = recorded_sweeps(monkeypatch, sysm)
            sent = 0
            batches: dict = {}  # (k, i) -> the batches i received in sweep k
            for kind, k, i, *rest in events:
                if kind == "send":
                    assert is_relabel(rest[1]) and type(rest[1]["chg"]) is int
                    sent += 1
                elif kind == "recv":
                    frm, batch = rest
                    assert frm == tuple(neighbors(sysm, i))
                    senders = [j for j, _ in batch]
                    assert senders and senders == sorted(set(senders))
                    batches.setdefault((k, i), []).append(batch)
                elif kind == "leave":
                    early = rest[0]
                    got = batches.get((k, i), [])
                    ends = got[-1:] if i else []
                    for batch in got[: len(got) - len(ends)]:
                        assert all(is_relabel(msg) for _, msg in batch), (k, i)
                    assert [dict(batch) for batch in ends] == ([early] if i else [])
                    assert all(set(msg) == {"labels", "offers"} for msg in early.values())
            assert sent == sum(is_relabel(json.loads(rec.payload)) for rec in res.trace)

    def test_relabel_sweep_ends_at_a_fixpoint(self, ring4, monkeypatch):
        """The distances an agent's last prices give its shared vertices are
        the last ones it sent; round 1's went with the barrier, where a
        distance at the cap stays unsent, since every price starts there.
        One more exchange, in which every agent prices every neighbor's
        labels, moves no label: a recompute at the cached labels leaves each
        region as the sweep left it."""
        checked = 0
        for sysm in self.sweep_systems(ring4):
            cap = label_cap(sysm)
            _, events = recorded_sweeps(monkeypatch, sysm)
            regions, prices, last = {}, {}, {}
            for kind, k, i, *rest in events:
                if kind == "enter":
                    region, dist, heard = rest
                    regions[i] = region
                    prices[i] = [cap] * len(region.label)
                    for j, d in heard.items():
                        for x, val in by_position(d).items():
                            prices[i][region.cached_from[j][x]] = val
                    last[i] = {v: dist[v] for ids in region.shared_with.values() for v in ids}
                elif kind == "send":
                    j, payload = rest
                    for x, val in by_position(payload["d"]).items():
                        last[i][regions[i].shared_with[j][x]] = val
                elif kind == "recv":
                    for j, msg in rest[1]:
                        for x, val in by_position(msg.get("d", [])).items():
                            w = regions[i].cached_from[j][x]
                            prices[i][w] = min(prices[i][w], val)
                elif kind == "leave":
                    region = rest[1]
                    dist = batch_relax(region, cap, batch_exits(region, cap, prices[i]))
                    assert last[i] == {v: min(dist[v], cap) for v in last[i]}, (k, i)
                    labels = region.label[:]
                    region.recompute_labels(cap)
                    assert region.label == labels, (k, i)
                    checked += 1
        assert checked > 200

    def test_census_runs_once_per_pass_on_the_tree(self, ring4):
        systems = [ring4, star(5), path(5), single()]
        systems += [sysm for _, sysm in corpus(6, start=6300, r_hi=7)]
        for sysm in systems:
            parents = bfs_tree_parents(sysm)
            for drop in (False, True):
                res = run(sysm, controlled_program(drop_incoming_boundary=drop))
                census: dict = {}
                for rec in res.trace:
                    payload = json.loads(rec.payload)
                    if is_census(payload):
                        census.setdefault(rec.sender, []).append(
                            (rec.receiver, payload[str(rec.sender)])
                        )
                for i, out in res.outputs.items():
                    children = [j for j, p in enumerate(parents) if p == i]
                    # one message up and one to each child per census, one
                    # census per pass
                    sent = census.get(i, [])
                    tree_degree = len(children) + (parents[i] is not None)
                    assert len(sent) == tree_degree * out["passes"], i
        # reachability alone runs no census
        res = run(ring4, reached)
        assert not any(is_census(json.loads(rec.payload)) for rec in res.trace)

    def test_ring_rounds_and_message_counts_are_pinned(self, ring4):
        # bfs 2 + 3 + 3 + 2 exchanges on the 4 edges, both ways (20), the
        # sizes 6, reach 16 plus 6 for each of 3 ORs, a sweep without news
        # (its round 1 rode the first barrier, so each agent but the root
        # only acknowledges its tree parent: 3 messages), two barriers of 8
        # labels/offers messages each plus one accepts per offer (4 in all);
        # 6 messages for each of two censuses and the consensus.  The ring
        # first completes reachability at iteration N = 4, so no OR finds a
        # fixpoint before the last iteration, and the ORs cost messages and
        # rounds here instead of saving them.  The sweep takes 4 rounds: 2
        # for the acks to reach the root over the tree's depth of 2, and 2
        # more before agent 2, the farthest, hears the root's barrier
        # messages through a neighbor and leaves.  Without the incoming
        # boundary the sweep's 3 messages and 4 rounds go.
        res = run(ring4, controlled)
        assert (res.rounds, len(res.trace)) == (38, 101)
        res = run(ring4, controlled_program(drop_incoming_boundary=True))
        assert (res.rounds, len(res.trace)) == (34, 98)


    def test_every_cached_label_equals_its_owners_after_each_sweep(
        self, ring4, monkeypatch
    ):
        """The barrier updates no cached label; the sweep that opens every
        later pass leaves each equal to its owner's."""
        real = distributed._exact_relabel
        regions: dict = {}
        after: dict = {}  # (agent, sweep number) -> its labels after it

        def spy(ctx, tree, region, cap, *round1):
            early = yield from real(ctx, tree, region, cap, *round1)
            regions[ctx.id] = region
            k = sum(agent == ctx.id for agent, _ in after)
            after[ctx.id, k] = region.label[:]
            return early

        monkeypatch.setattr(distributed, "_exact_relabel", spy)
        checked = 0
        for sysm in [ring4] + [sysm for _, sysm in corpus(20, start=6900, r_hi=7)]:
            regions.clear()
            after.clear()
            run(sysm, controlled)
            for (i, k), labels in after.items():
                for j, cached in regions[i].cached_from.items():
                    for x, w in enumerate(cached):
                        v = regions[j].shared_with[i][x]
                        assert labels[w] == after[j, k][v], (i, j, k, x)
                        checked += 1
        assert checked > 0


class TestSpeakerUnionOracle:
    def test_outputs_and_snapshots_equal_the_speaker_union_sweeps(self, monkeypatch):
        """The sweep against :func:`oracles.exact_relabel_by_speakers`, which
        sends every agent the whole speaker list and every neighbor a
        message: outputs and per-pass snapshots are equal on the wide corpus
        (input-free subsystems included), the dense r = 10, 20 and 40
        instances of the scale sweep and the bounded-degree r = 40 and 80
        ones."""
        systems = [sysm for _, sysm in wide_corpus(300)]
        systems += [random_system(r, (1, 8), (1, 2), 0.3, seed=r) for r in (10, 20, 40)]
        systems += [
            random_system(r, (1, 8), (1, 2), 0.3, seed=r, extra_conn_prob=2 / r)
            for r in (40, 80)
        ]
        program = controlled_program(collect_states=True)
        swept = input_free = 0
        for sysm in systems:
            want = run_with_speaker_union_sweep(monkeypatch, sysm, program).outputs
            assert run(sysm, program).outputs == want
            swept += want[0]["passes"] > 1 and sysm.r > 1
            input_free += any(s.p == 0 for s in sysm.subsystems)
        assert swept > 100 and input_free > 0


class TestBarrier:
    def test_accepts_answer_exactly_the_offers(self, ring4):
        systems = [ring4] + [sysm for _, sysm in corpus(20, start=6700, r_hi=7)]
        # per variant: offer messages answered, labels/offers messages
        # without an offer, and offers whose label is not above the end's
        counts = {drop: Counter() for drop in (False, True)}
        for sysm in systems:
            for drop in (False, True):
                program = controlled_program(drop_incoming_boundary=drop, collect_states=True)
                res = run(sysm, program)
                regions = [Region(ring_context(sysm, i), not drop) for i in range(sysm.r)]

                def ends(i, j, x):
                    """Offerer i's own end of the edge at position x of its
                    order towards j, and receiver j's own end of it, named."""
                    region, peer = regions[i], regions[j]
                    left, right = region.ends[region.edges_to[j][x]]
                    mine, other = (left, right) if left < region.n else (right, left)
                    v, _ = peer.edges_from[i][x]
                    assert region.names[other] == f"{j}.{peer.names[v]}", (i, j, x)
                    return region.names[mine], peer.names[v]

                # barriers[i, j]: labels/offers messages i has sent j so far;
                # offers[j, i, b]: the offers j made i in barrier b, if any;
                # accepts[j, i, b]: i's reply to them
                barriers: dict = {}
                offers: dict = {}
                accepts: dict = {}
                for rec in res.trace:
                    payload = json.loads(rec.payload)
                    if not isinstance(payload, dict):
                        continue
                    i, j = rec.sender, rec.receiver
                    if set(payload) == {"labels", "offers"}:
                        b = barriers[i, j] = barriers.get((i, j), 0) + 1
                        # each offer is [position, label] in ascending
                        # position: it carries the offering vertex's label in
                        # pass b
                        labels = res.outputs[i]["states"][b - 1]["labels"]
                        positions = [x for x, _ in payload["offers"]]
                        assert positions == sorted(set(positions)), (i, j, b)
                        for x, label in payload["offers"]:
                            assert label == labels[ends(i, j, x)[0]], (i, j, b, x)
                        if payload["offers"]:
                            offers[i, j, b] = payload["offers"]
                        else:
                            counts[drop]["unanswered"] += 1
                    elif set(payload) == {"accepts"}:
                        # i has already sent j this barrier's labels/offers
                        key = (j, i, barriers[i, j])
                        assert key not in accepts, key
                        accepts[key] = payload["accepts"]
                assert set(accepts) == set(offers)
                # j accepts exactly the offers whose label is above its own
                # end's; without the incoming boundary it has no edge for a
                # forward offer and takes it
                for (i, j, b), accepted in accepts.items():
                    labels = res.outputs[j]["states"][b - 1]["labels"]
                    want = []
                    for x, label in offers[i, j, b]:
                        end = ends(i, j, x)[1]
                        if (drop and end[0] == "R") or label > labels[end]:
                            want.append(x)
                        counts[drop]["rejected"] += label <= labels[end]
                    assert accepted == want, (i, j, b)
                counts[drop]["answered"] += len(offers)
        for seen in counts.values():
            assert seen["answered"] > 0 and seen["unanswered"] > 0 and seen["rejected"] > 0

    @staticmethod
    def offered(ring4, offer) -> list:
        """Agent 0's barrier on ``ring4`` (cap 35), fed ``offer(x)`` as the
        one offer from agent 3, where x is the position of the real edge from
        3's L2 onto 0's R2 in 3's order towards 0, and empty messages
        otherwise; returns what agent 0 sent."""
        sent = []
        ctx = ring_context(ring4, 0, sent)
        region = Region(ctx)
        theirs = region.edges_from[3]
        assert len(theirs) == 1  # 3 feeds 0, and 0 does not feed 3
        x = next(x for x, (v, _) in enumerate(theirs) if region.names[v] == "R2")
        barrier = _barrier(ctx, region, 35, {})
        action = next(barrier)
        assert [to for to, _ in sent] == list(ctx.neighbors)  # labels and offers
        with contextlib.suppress(StopIteration):
            while True:
                offers = [offer(x)] if action.frm == 3 else []
                action = barrier.send({"labels": [], "offers": offers})
        return sent

    def test_an_offer_is_taken_only_from_a_strictly_higher_label(self, ring4):
        # agent 0's R2 is at label 1 before any pass
        for label, taken in ((1, False), (2, True)):
            sent = self.offered(ring4, lambda x: [x, label])
            assert sent[2:] == [(3, {"accepts": [0] if taken else []})]

    @pytest.mark.parametrize(
        "offer",
        [
            lambda x: [x],
            lambda x: [x, 9, 9],
            lambda x: [x, "9"],
            lambda x: [x, True],
            lambda x: [3, 2, 0, 2],
            lambda x: 7,
            lambda x: [x + 1, 9],
            lambda x: [-1, 9],
            lambda x: [True, 9],
            lambda x: [[3, 2, 0, 2], 1, 9],
        ],
        ids=[
            "no-label", "extra-field", "text-label", "bool-label", "bare-key",
            "not-a-list", "position-out-of-range", "negative-position",
            "bool-position", "old-form",
        ],
    )
    def test_a_malformed_offer_names_the_agent_and_the_sender(self, ring4, offer):
        """An offer that is not ``[position, label]``, with a position in 3's
        order towards 0 (one edge), is a ProtocolError, not a bare
        ValueError or IndexError from reading it.  The old wire form, a key
        with a unit field, is refused whatever its unit."""
        fault = r"agent 0: offer .* from 3 is not \[position, label\]"
        with pytest.raises(ProtocolError, match=fault):
            self.offered(ring4, offer)

    def test_both_ends_derive_the_same_boundary_order(self, ring4):
        systems = [ring4] + [sysm for _, sysm in corpus(20, start=6700, r_hi=7)]
        for sysm in systems:
            for include in (True, False):
                regions = [Region(ring_context(sysm, i), include) for i in range(sysm.r)]
                for i, region in enumerate(regions):
                    V = len(region.excess)
                    cached = sorted(w for ids in region.cached_from.values() for w in ids)
                    # with the incoming boundary every cached id has a position
                    assert cached == (list(range(V, len(region.label))) if include else [])
                    for j, own in region.shared_with.items():
                        peer = regions[j]
                        assert [f"{i}.{region.names[v]}" for v in own] == [
                            peer.names[w] for w in peer.cached_from[i]
                        ]
                        assert bool(own) == include
                        # each edge position names the same edge at both
                        # ends; the peer's end is one of its vertices, and
                        # without the incoming boundary the peer has no edge
                        theirs = peer.edges_from[i]
                        assert len(region.edges_to[j]) == len(theirs)
                        for e, (w, f) in zip(region.edges_to[j], theirs):
                            ends = [spelled(region, v) for v in region.ends[e]]
                            assert spelled(peer, w) in ends
                            assert (f is None) != include
                            assert f is None or [spelled(peer, v) for v in peer.ends[f]] == ends

    def test_a_barrier_without_offers_moves_nothing(self, ring4):
        """With no offer either way a barrier sends only its labels/offers
        messages, moves no unit, flow or label, and returns what it heard.
        Its ``labels`` are the opening distances, not the labels, so a
        repeat sends them again.  A message the sweep before it received
        counts as heard, and its sender is not awaited again."""
        sent = []
        ctx = ring_context(ring4, 0, sent)
        region = Region(ctx)
        region.label[region.shared_with[ctx.neighbors[0]][0]] += 3

        def barrier(early):
            sent.clear()
            barrier = _barrier(ctx, region, 35, early)
            awaited = []
            action = next(barrier)
            with pytest.raises(StopIteration) as stop:
                while True:
                    awaited.append(action.frm)
                    action = barrier.send({"labels": [0, action.frm], "offers": []})
            return sent[:], stop.value.value, awaited

        state = [region.label[:], region.excess[:], region.flow[:]]
        first, (moved, (dist, heard)), awaited = barrier({})
        # no flow yet: agent 1 caches 0's L2, which reaches R0's open sink
        # edge in 2, and agent 3 caches 0's R2, whose own sink edge is open
        assert first == [
            (1, {"labels": [0, 2], "offers": []}),
            (3, {"labels": [0, 1], "offers": []}),
        ]
        assert moved == 0 and dist == region.opening(35)
        assert heard == {j: [0, j] for j in ctx.neighbors} and awaited == [1, 3]
        assert [region.label, region.excess, region.flow] == state
        assert barrier({})[0] == first
        again, (_, (_, heard)), awaited = barrier({1: {"labels": [0, 9], "offers": []}})
        assert again == first and heard == {1: [0, 9], 3: [0, 3]} and awaited == [3]

    def test_the_barrier_carries_the_next_sweeps_opening_distances(
        self, ring4, monkeypatch
    ):
        """What a barrier carried under ``labels`` is, by position, the
        sender's opening distances below the cap as computed afresh when the
        next sweep starts, after the transfers and the census gap; the sweep
        starts from the same own distances."""
        real = distributed._exact_relabel
        regions: dict = {}
        fresh: dict = {}  # (agent, sweep number) -> its opening distances then
        carried: dict = {}  # (agent, sweep number) -> the lists it starts from

        def spy(ctx, tree, region, cap, dist, heard):
            k = sum(agent == ctx.id for agent, _ in fresh)
            fresh[ctx.id, k] = region.opening(cap)
            assert dist == fresh[ctx.id, k]
            carried[ctx.id, k] = copy.deepcopy(heard)
            regions[ctx.id] = region
            return (yield from real(ctx, tree, region, cap, dist, heard))

        monkeypatch.setattr(distributed, "_exact_relabel", spy)
        systems = [ring4] + [sysm for _, sysm in corpus(20, start=6700, r_hi=7)]
        systems += [sysm for _, sysm in wide_corpus(300)]
        checked = 0
        for sysm in systems:
            cap = label_cap(sysm)
            regions.clear()
            fresh.clear()
            carried.clear()
            run(sysm, controlled)
            for (i, k), heard in carried.items():
                assert list(heard) == neighbors(sysm, i)
                for j, got in heard.items():
                    dist, own = fresh[j, k], regions[j].shared_with[i]
                    want = [(x, dist[v]) for x, v in enumerate(own) if dist[v] < cap]
                    assert got == [y for pair in want for y in pair]
                    checked += len(got)
        assert checked > 1000

    def test_without_the_incoming_boundary_no_label_is_sent(self, ring4):
        for sysm in [ring4] + [sysm for _, sysm in corpus(10, start=6700, r_hi=7)]:
            res = run(sysm, controlled_program(drop_incoming_boundary=True))
            barriers = [
                payload
                for payload in (json.loads(rec.payload) for rec in res.trace)
                if isinstance(payload, dict) and set(payload) == {"labels", "offers"}
            ]
            assert barriers and all(payload["labels"] == [] for payload in barriers)


class TestTree:
    @staticmethod
    def systems(ring4):
        systems = [ring4, star(6), path(7), detour(), single()]
        return systems + [sysm for _, sysm in corpus(20, start=6500, r_hi=8)]

    def test_parents_form_the_lowest_id_bfs_tree(self, ring4):
        for sysm in self.systems(ring4):
            res = run(sysm, bfs)
            parents = [tree.parent for tree in res.outputs.values()]
            assert parents == bfs_tree_parents(sysm)
            for i, tree in res.outputs.items():
                assert tree.children == tuple(
                    j for j, p in enumerate(parents) if p == i
                ), i

    def test_bfs_sends_nothing_or_distance_and_parent(self, ring4):
        for sysm in self.systems(ring4):
            res = run(sysm, bfs)
            dist = undirected_distances(sysm, 0)
            parents = [-1 if p is None else p for p in bfs_tree_parents(sysm)]
            for rec in res.trace:
                payload = json.loads(rec.payload)
                assert payload in ([], [dist[rec.sender], parents[rec.sender]]), rec

    def test_bfs_edges_carry_max_distance_plus_1_messages(self, ring4):
        for sysm in self.systems(ring4):
            res = run(sysm, bfs)
            dist = undirected_distances(sysm, 0)
            sent: dict = {}
            for rec in res.trace:
                sent[rec.sender, rec.receiver] = sent.get((rec.sender, rec.receiver), 0) + 1
            edges = {(i, j) for i in range(sysm.r) for j in neighbors(sysm, i)}
            assert set(sent) == edges
            for (i, j), count in sent.items():
                assert count == max(dist[i], dist[j]) + 1, (i, j)

    def test_sizes_sum_scc_counts_states_and_inputs(self, ring4):
        def program(ctx):
            tree = yield from bfs(ctx)
            return (yield from _sizes(ctx, tree, state_digraph(ctx.subsystem.A)))

        for sysm in self.systems(ring4):
            res = run(sysm, program)
            own = [
                [len(scc_partition_oracle(directed(state_digraph(s.A)))), s.n, s.p]
                for s in sysm.subsystems
            ]
            want = [sum(col) for col in zip(*own)]
            assert res.outputs == dict.fromkeys(range(sysm.r), want)
            # each tree edge carries one message each way after bfs: the
            # subtree's sums up, the totals down
            parents = bfs_tree_parents(sysm)
            below = subtrees(parents)
            for i in range(1, sysm.r):
                up, down = ([
                    json.loads(rec.payload) for rec in res.trace
                    if (rec.sender, rec.receiver) == edge
                ][-1] for edge in ((i, parents[i]), (parents[i], i)))
                assert up == [sum(own[x][k] for x in below[i]) for k in range(3)]
                assert down == want
            # the controlled run's reachability budget is the same sum
            N = run(sysm, controlled).outputs[0]["N"]
            assert N == want[0]

    def test_aggregates_send_2_r_minus_1_messages_and_agree(self, ring4):
        def union(part, heard):
            return [sorted(set(part[0]).union(*(h[0] for h in heard))), []]

        for sysm in self.systems(ring4):
            def program(ctx):
                tree = yield from bfs(ctx)
                ids = yield from tree_aggregate(
                    ctx, tree, [[ctx.id], []], union, keyed=True
                )
                last = ctx.id == sysm.r - 1
                both = yield from tree_aggregate(
                    ctx, tree, not last, lambda v, heard: v and all(heard)
                )
                return ids, both

            res = run(sysm, program)
            want = ([list(range(sysm.r)), []], False)
            assert res.outputs == dict.fromkeys(range(sysm.r), want)
            census = [rec for rec in res.trace if is_census(json.loads(rec.payload))]
            bools = [rec for rec in res.trace if rec.payload in ("true", "false")]
            assert len(census) == 2 * (sysm.r - 1)
            assert len(bools) == 2 * (sysm.r - 1)


def spelled(region, v) -> str:
    """Region id v's name as every region spells it: ``"<agent>.<key>"``."""
    name = region.names[v]
    return name if "." in name else f"{region.owner}.{name}"


def cached_owners(region):
    """The owning agent of each cached id, read off its name ``"<j>.<key>"``."""
    return [int(name.split(".")[0]) for name in region.names[len(region.excess) : -1]]


class TestRegion:
    def test_initial_labels_and_excess(self, ring4):
        region = Region(ring_context(ring4, 0))
        n, own = region.n, len(region.excess)
        for v in [*range(n), *range(2 * n, own)]:  # lefts: L, then U
            assert region.label[v] == 2
            assert region.excess[v] == 1  # the source edge starts saturated
        for w in range(n, 2 * n):  # rights
            assert region.label[w] == 1
            assert region.excess[w] == 0
        assert region.sink_flow() == 0

    def test_ids_follow_the_sorted_vertex_tuples(self, ring4):
        # The discharge tie-breaks compare ids, so ids must sort as the
        # ("L"/"R"/"U", agent, index) tuples do: own L, R, U, then cached.
        ctx = ring_context(ring4, 0)
        region = Region(ctx)
        sub = ctx.subsystem
        own = [(s, 0, k) for s in "LR" for k in range(sub.n)]
        own += [("U", 0, k) for k in range(sub.p)]
        assert own == sorted(own)
        cached = {("R", j, k) for j, E in ctx.outgoing.items() for k, _ in E.nonzeros}
        cached |= {("L", j, l) for j, E in ctx.incoming.items() for _, l in E.nonzeros}
        assert len(region.excess) == len(own)
        assert region.names[: len(own)] == [_vkey(v) for v in own]
        assert region.names[len(own) :] == [
            f"{v[1]}.{_vkey(v)}" for v in sorted(cached)
        ] + ["t"]

    def test_simplified_region_has_no_incoming_boundary(self, ring4):
        full = Region(ring_context(ring4, 0), include_incoming=True)
        trimmed = Region(ring_context(ring4, 0), include_incoming=False)
        assert any(j != 0 for j in cached_owners(full))  # caches neighbor lefts too
        assert all(j != 0 for j in cached_owners(trimmed))
        assert len(cached_owners(trimmed)) < len(cached_owners(full))


class TestRecomputeLabels:
    def test_every_call_raises_own_labels_to_the_batch_distances(self, monkeypatch):
        """Every call in a run leaves each own label at max(label, the batch
        reference's distance priced at the cached labels) and every cached
        label as it was, with and without the incoming boundary."""
        real = Region.recompute_labels
        calls = []

        def spy(region, cap):
            before = region.label[:]
            dist = batch_relax(region, cap, batch_exits(region, cap, before))
            real(region, cap)
            expected = [*map(max, before, dist), *before[len(dist):]]
            calls.append((region.label == expected, region.owner, before, cap))

        monkeypatch.setattr(Region, "recompute_labels", spy)
        systems = [sysm for _, sysm in wide_corpus(300)]
        systems += [random_system(r, (1, 8), (1, 2), 0.3, seed=r) for r in (10, 20)]
        for sysm in systems:
            for drop in (False, True):
                run(sysm, controlled_program(drop_incoming_boundary=drop))
        # at least pass 1 of every agent in both boundary modes
        assert len(calls) >= 2 * sum(sysm.r for sysm in systems)
        assert [c for c in calls if not c[0]] == []

    @pytest.mark.parametrize("include", [True, False])
    def test_a_price_lowers_the_vertices_behind_its_exit(self, include):
        """Agent 0's L0 feeds its R1 and agent 1's R0.  With flow on L0 -> R1
        and on R1's sink edge, R1's only way out runs back to L0 and across
        to 1.R0, cached at label 1, so R1 is 3 from the sink: found only by
        lowering from the vertices that the price of 1.R0 lowered."""
        sysm = build_system(
            [(2, 0, {(1, 0)}, set()), (1, 0, set(), set())], [(1, 0, {(0, 0)})]
        )
        region = Region(ring_context(sysm, 0), include)
        assert region.names == ["L0", "L1", "R0", "R1", "1.R0", "t"]
        assert region.ends[1:3] == [(3, 5), (0, 3)]  # R1's sink edge, L0 -> R1
        region.flow[1] = region.flow[2] = 1
        region.recompute_labels(9)
        assert region.label == [2, 9, 1, 3, 1]


class ScanCounting(list):
    """An excess list that counts every iteration over it.  During a
    discharge those are the loop's scans: one per iteration, plus the last
    one, which finds no vertex to select."""

    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


def scanned_discharge(region, cap: int) -> int:
    """Run the package's discharge; return its loop's scan count, read
    before the excess goes back into a plain list, which iterates it too."""
    region.excess = counted = ScanCounting(region.excess)
    region.discharge(cap)
    scans = counted.scans
    region.excess = list(counted)
    return scans


def ping_pong_region():
    """L0 - R0 with R0's sink edge already taken: relabeled one vertex at a
    time, the unit at L0 would bounce between the two, each relabel raising
    one label past the other."""
    region = Region(ring_context(build_system([(1, 0, {(0, 0)}, set())], []), 0))
    region.flow[0] = 1
    return region


def centre_region():
    """Centre R0 with leaves L0 and L1, R0's sink edge taken, one unit at
    each leaf.  L0 also feeds agent 1's R0 across the boundary, cached at
    label 20: L0's label stops just above it, and L0 reserves a unit for
    that exit."""
    sysm = build_system(
        [(2, 0, {(0, 0), (0, 1)}, set()), (1, 1, set(), {(0, 0)})],
        [(1, 0, {(0, 0)})],
    )
    region = Region(ring_context(sysm, 0))
    assert region.names == ["L0", "L1", "R0", "R1", "1.R0", "t"]
    region.flow[0] = 1
    region.label[4] = 20
    return region


class TestDischargeSkip:
    """A stuck vertex in ``Region.discharge`` relabels the whole region
    (``Region.recompute_labels``), so stranded excess skips its climb and
    reaches the cap in one step; only if that leaves the vertex where it
    was does it step to 1 + its least residual neighbor label."""

    def test_ping_pong_climbs_to_the_cap(self):
        region = ping_pong_region()
        scanned_discharge(region, 1000)
        # R0 is stuck behind its taken sink edge: the region has no way out,
        # so both labels go to the cap and the unit is trapped at R0
        assert region.label[:2] == [1000, 1000]
        assert region.excess == [0, 1]

    def test_climb_stops_below_the_cached_label_and_holds(self):
        region = centre_region()
        scanned_discharge(region, 1000)
        # Both units reach R0, stuck behind its taken sink edge.  Its
        # relabel prices the cached 20: L0 goes to 21, R0 to 22 through
        # L0's exit, and L1, with no way out, to the cap.  R0 sends one unit
        # back to L0, which reserves it for that exit; then R0 has no way
        # out either, goes to the cap, and the other unit is trapped there.
        assert region.label[:4] == [21, 1000, 1000, 1]
        assert region.holding == [1, 0, 0, 0]
        assert region.excess == [1, 0, 1, 0]

    @pytest.mark.parametrize("make", [ping_pong_region, centre_region])
    def test_iterations_do_not_grow_with_the_cap(self, make):
        scans = {cap: scanned_discharge(make(), cap) for cap in (100, 10**4, 10**6)}
        assert len(set(scans.values())) == 1, scans
        assert scans[100] <= 40

    def test_random_runs_keep_labels_monotone_and_valid(self, monkeypatch):
        # After every discharge call of the preflow passes, with and without
        # the incoming boundary: no own label fell, and every residual
        # internal edge and open sink edge (the sink at label 0) is valid.
        package = Region.discharge
        calls = []

        def checked(region, cap):
            before = region.label[: len(region.excess)]
            package(region, cap)
            label, flow, n = region.label, region.flow, region.n
            assert all(map(int.__le__, before, label))
            for k in range(n):
                assert flow[k] or label[n + k] <= 1
            for v, room in enumerate(region.open_at):
                for w, e in region.internal[v]:
                    assert flow[e] != room or label[v] <= label[w] + 1
            calls.append(cap)

        monkeypatch.setattr(Region, "discharge", checked)
        programs = (controlled, controlled_program(drop_incoming_boundary=True))
        systems = [sysm for _, sysm in wide_corpus(120)]
        for sysm in systems:
            for program in programs:
                run(sysm, program)
        # at least pass 1 of every agent in both boundary modes
        assert len(calls) >= 2 * sum(sysm.r for sysm in systems)

    def test_a_stuck_vertex_the_recompute_cannot_raise_steps_past_its_neighbor(self):
        """L0 feeds R0 and agent 1's R0, cached at label 1.  L0's unit sits
        at R0 behind R0's taken sink edge, and L0's label is set to 10 by
        hand, above its exit.  The recompute prices R0 at 3 through L0's
        exit; once R0 is there it cannot raise R0 again, so R0 steps to
        1 + L0's label, 11, and pushes its unit back to L0, which reserves
        it for the exit."""
        sysm = build_system(
            [(1, 0, {(0, 0)}, set()), (1, 0, set(), set())], [(1, 0, {(0, 0)})]
        )
        region = Region(ring_context(sysm, 0))
        assert region.names == ["L0", "R0", "1.R0", "t"]
        assert region.ends == [(1, 3), (0, 1), (0, 2)]
        region.flow[:2] = [1, 1]
        region.excess = [0, 1]
        region.label[0] = 10
        stuck_at = []  # R0's label at each recompute

        def recompute(cap):
            stuck_at.append(region.label[1])
            Region.recompute_labels(region, cap)

        region.recompute_labels = recompute
        region.discharge(30)
        assert stuck_at == [1, 3]
        assert region.label == [10, 11, 1]
        assert region.excess == [1, 0]
        assert region.holding == [1, 0]
        assert region.flow == [1, 0, 0]


class TestRingWalkthrough:
    def test_narrative_under_the_simplification(self, ring4):
        res = run(ring4, controlled_program(drop_incoming_boundary=True))
        for i in range(4):
            out = res.outputs[i]
            assert out["ctld"] and out["rchd"] and out["mchd"]
            # two preflow passes; the single boundary discharge between them
            # moves exactly one unit; the sink saturates on pass two
            assert out["passes"] == 2
            assert out["transfers_by_pass"] == [1, 0]
            assert out["sink_saturated_pass"] == 2
            assert out["sink_flow"] == 4
        assert [res.outputs[i]["reached_completed"] for i in range(4)] == [1, 2, 3, 4]

    def test_same_verdict_without_the_simplification(self, ring4):
        res = run(ring4, controlled)
        assert all(res.outputs[i]["ctld"] for i in range(4))
        assert all(res.outputs[i]["passes"] == 2 for i in range(4))

    def test_all_sink_edges_saturated_in_final_state(self, ring4):
        res = run(ring4, controlled_program(drop_incoming_boundary=True, collect_states=True))
        for i in range(4):
            final = res.outputs[i]["states"][-1]
            sat_to_sink = [e for e in final["saturated"] if e[1] == "t"]
            assert len(sat_to_sink) == 4
