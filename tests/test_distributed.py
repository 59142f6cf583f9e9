"""Distributed reachability and the region preflow against the centralized
verdicts, plus the worked ring walkthrough pinned step by step."""

from __future__ import annotations

import dataclasses
import json
import random

import pytest

from conftest import build_system, matching_size, reached_states
from oracles import (
    bfs_tree_parents,
    boundary_vertex_count,
    directed,
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
    _size_entry,
    _vkey,
    controlled,
    controlled_program,
)
from structctl.model import assemble_global, random_system, state_digraph
from structctl.runtime import AgentContext, ProtocolError, Recv, bfs, run, tree_aggregate


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
    """An int list: a reach message, a ``bfs`` message, the sizes, or the
    relabel sweep's id list."""
    return isinstance(payload, list) and all(type(x) is int for x in payload)


def is_relabel(payload) -> bool:
    return isinstance(payload, dict) and set(payload) == {"d", "chg"}


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

    def test_relabel_sweep_stops_after_the_first_quiet_round(self, ring4, monkeypatch):
        systems = [ring4] + [sysm for _, sysm in corpus(8, start=6100, r_hi=7)]
        for sysm in systems:
            # Without the incoming boundary no neighbor caches what a sweep
            # would send, so none runs.
            res = run(sysm, controlled_program(drop_incoming_boundary=True))
            assert not any(is_relabel(json.loads(rec.payload)) for rec in res.trace)

        # Each sweep ends at the fixpoint: the distances an agent's last
        # prices give its shared vertices are the last ones it sent, so no
        # agent stops holding news.
        real = distributed._exact_relabel
        settled = []

        def spy(ctx, tree, region, cap):
            prices = [cap] * len(region.label)
            last = {}

            def send(to, payload):
                ctx.send(to, payload)
                if is_relabel(payload):
                    last.update(payload["d"])

            sweep = real(dataclasses.replace(ctx, send=send), tree, region, cap)
            reply = None
            while True:
                try:
                    action = sweep.send(reply)
                except StopIteration:
                    break
                reply = yield action
                if is_relabel(reply):
                    for key, val in reply["d"].items():
                        w = region.remote_of[action.frm].get(key)
                        if w is not None:
                            prices[w] = min(prices[w], val)
            dist = region._distances(cap, prices)
            shared = {v for bucket in region.shared_with.values() for v in bucket}
            settled.append(last == {region.names[v]: min(dist[v], cap) for v in shared})

        monkeypatch.setattr(distributed, "_exact_relabel", spy)
        sweeps_seen = quiet_speakers = 0
        for sysm in systems:
            subs = sysm.subsystems
            cap = 2 * sum(s.n for s in subs) + sum(s.p for s in subs) + 2
            parents = bfs_tree_parents(sysm)
            res = run(sysm, controlled)
            # Per sender, a sweep is a maximal run of its relabel messages
            # and the tree union's id lists, opened by round 1's relabel
            # messages.  Reach messages are int lists too, but every agent
            # sends them before its first barrier, so before any sweep.
            sweeps: dict = {}
            in_sweep: dict = {}
            for rec in res.trace:
                payload = json.loads(rec.payload)
                i = rec.sender
                relabel = is_relabel(payload)
                part = relabel or (in_sweep.get(i) and is_ids(payload))
                if relabel and not in_sweep.get(i):
                    sweeps.setdefault(i, []).append(([], []))
                if part:
                    sweeps[i][-1][0 if relabel else 1].append((rec.receiver, payload))
                in_sweep[i] = part
            assert set(sweeps) == set(range(sysm.r))
            assert len({len(own) for own in sweeps.values()}) == 1
            root_children = [j for j, p in enumerate(parents) if p == 0]
            for k in range(len(sweeps[0])):
                # The root's broadcasts, one id list to each child per round:
                # non-empty until the first empty one, which ends the sweep.
                down = [ids for _, ids in sweeps[0][k][1]]
                lists = down[:: len(root_children)]
                assert down == [ids for ids in lists for _ in root_children]
                assert lists[-1] == [] and all(lists[:-1]), (k, lists)
                rounds = len(lists)
                for i, own in sweeps.items():
                    relabels, ids = own[k]
                    children = [j for j, p in enumerate(parents) if p == i]
                    tree_degree = len(children) + (parents[i] is not None)
                    assert len(ids) == rounds * tree_degree
                    # every agent speaks in round 1; after it, exactly the
                    # agents the last round's list named speak, each to
                    # every neighbor once, and each says something new
                    speaks = [1] + [t + 2 for t in range(rounds - 1) if i in lists[t]]
                    by_round: dict = {}
                    for j, payload in relabels:
                        by_round.setdefault(payload["chg"], []).append((j, payload["d"]))
                    assert sorted(by_round) == speaks, (i, k)
                    before: dict = {}
                    for t, sent in sorted(by_round.items()):
                        assert [j for j, _ in sent] == list(neighbors(sysm, i))
                        if t > 1:
                            assert any(d for _, d in sent), (i, t)
                            for j, d in sent:
                                for key, val in d.items():
                                    assert val < before[j].get(key, cap + 1), (i, j, t, key)
                        for j, d in sent:
                            before.setdefault(j, {}).update(d)
                quiet_speakers += sum(len(ids) < sysm.r for ids in lists[:-1])
            sweeps_seen += len(sweeps[0])
        assert sweeps_seen > len(systems)
        assert settled and all(settled)
        # some rounds after the first leave agents silent
        assert quiet_speakers > 0

    def test_relabel_sweep_ends_at_a_fixpoint(self, ring4, monkeypatch):
        """One more quiet round per sweep leaves every label where it was."""
        systems = [ring4] + [sysm for _, sysm in corpus(8, start=6100, r_hi=7)]
        program = controlled_program(collect_states=True)
        plain = [run(sysm, program) for sysm in systems]

        real = distributed.tree_aggregate
        extra: dict = {}
        everyone: list = []  # the ids of the system running

        def one_more(ctx, tree, value, merge, keyed=False):
            got = yield from real(ctx, tree, value, merge, keyed)
            if keyed or not isinstance(value, list) or len(value) > 1:
                return got  # not the sweep's id list
            extra[ctx.id] = not got and not extra.get(ctx.id)
            return got or (everyone if extra[ctx.id] else got)

        monkeypatch.setattr(distributed, "tree_aggregate", one_more)
        for sysm, want in zip(systems, plain):
            everyone[:] = range(sysm.r)
            res = run(sysm, program)
            assert res.outputs == want.outputs
            assert len(res.trace) > len(want.trace)

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
        # sizes 6, reach 16 plus 6 for each of 3 ORs, a sweep of one round
        # (8, plus its 6-message id list), two barriers of 8 labels/offers
        # messages each plus one accepts per offer (4 in all); 6 messages for
        # each of two censuses and the consensus.  The ring first completes
        # reachability at iteration N = 4, so no OR finds a fixpoint before
        # the last iteration, and the ORs cost messages and rounds here
        # instead of saving them.  Without the incoming boundary the sweep's
        # 14 messages go, and the run takes 4 rounds less.
        res = run(ring4, controlled)
        assert (res.rounds, len(res.trace)) == (38, 112)
        res = run(ring4, controlled_program(drop_incoming_boundary=True))
        assert (res.rounds, len(res.trace)) == (34, 98)


class TestBarrier:
    def test_accepts_answer_exactly_the_offers(self, ring4):
        systems = [ring4] + [sysm for _, sysm in corpus(20, start=6700, r_hi=7)]
        answered = unanswered = 0
        for sysm in systems:
            for drop in (False, True):
                res = run(sysm, controlled_program(drop_incoming_boundary=drop))
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
                        if payload["offers"]:
                            offers[i, j, b] = [key for key, _ in payload["offers"]]
                        else:
                            unanswered += 1
                    elif set(payload) == {"accepts"}:
                        # i has already sent j this barrier's labels/offers
                        key = (j, i, barriers[i, j])
                        assert key not in accepts, key
                        accepts[key] = payload["accepts"]
                assert set(accepts) == set(offers)
                for key, accepted in accepts.items():
                    assert all(e in offers[key] for e in accepted), key
                answered += len(offers)
        assert answered > 0 and unanswered > 0

    def test_offer_of_two_units_is_a_protocol_error(self, ring4):
        sent = []
        ctx = ring_context(ring4, 0, sent)
        region = Region(ctx)
        # a real edge from a neighbor's left onto one of our rights
        key = next(list(key) for key in region.keys if key and key[2] == 0)
        barrier = _barrier(ctx, region)
        action = next(barrier)
        assert [to for to, _ in sent] == list(ctx.neighbors)  # labels and offers
        with pytest.raises(ProtocolError, match="offer of 2 units"):
            while isinstance(action, Recv):
                offers = [[key, 2]] if action.frm == key[0] else []
                action = barrier.send({"labels": {}, "offers": offers})


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
            entry = _size_entry(ctx, state_digraph(ctx.subsystem.A))
            return (yield from tree_aggregate(
                ctx, tree, entry, lambda v, heard: [sum(c) for c in zip(v, *heard)]
            ))

        for sysm in self.systems(ring4):
            res = run(sysm, program)
            subs = sysm.subsystems
            want = [
                sum(len(scc_partition_oracle(directed(state_digraph(s.A)))) for s in subs),
                sum(s.n for s in subs),
                sum(s.p for s in subs),
            ]
            assert res.outputs == dict.fromkeys(range(sysm.r), want)
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
