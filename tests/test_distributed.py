"""Distributed reachability and the region preflow against the centralized
verdicts, plus the worked ring walkthrough pinned step by step."""

from __future__ import annotations

import json
import random

import pytest

from conftest import build_system, matching_size, reached_states
from structctl.centralized import verify
from structctl.distributed import (
    Region,
    boundary_vertex_count,
    controlled,
    controlled_program,
    reached,
    reached_program,
)
from structctl.model import assemble_global, random_system
from structctl.runtime import AgentContext, run


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


def ring_context(ring, i):
    return AgentContext(
        id=i,
        subsystem=ring.subsystem(i),
        incoming={c.from_: c.E for c in ring.incoming(i)},
        outgoing={c.to: c.E for c in ring.outgoing(i)},
        r=ring.r,
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

    def test_ring_rounds_and_message_counts_are_pinned(self, ring4):
        res = run(ring4, controlled)
        assert (res.rounds, len(res.trace)) == (34, 248)
        res = run(ring4, controlled_program(drop_incoming_boundary=True))
        assert (res.rounds, len(res.trace)) == (33, 240)


class TestRegion:
    def test_initial_labels_and_excess(self, ring4):
        region = Region(ring_context(ring4, 0))
        for v in region.lefts:
            assert region.label[v] == 2
            assert region.excess[v] == 1  # the source edge starts saturated
        for w in region.rights:
            assert region.label[w] == 1
            assert region.excess[w] == 0
        assert region.sink_flow() == 0

    def test_simplified_region_has_no_incoming_boundary(self, ring4):
        full = Region(ring_context(ring4, 0), include_incoming=True)
        trimmed = Region(ring_context(ring4, 0), include_incoming=False)
        assert any(v[1] != 0 for v in full.cache)  # caches neighbor lefts too
        assert all(w[1] != 0 for w in trimmed.cache)
        assert len(trimmed.cache) < len(full.cache)


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
