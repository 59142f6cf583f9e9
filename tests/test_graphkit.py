"""Graph algorithms against brute-force oracles and structural invariants."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pat
from oracles import (
    bipartite,
    build_unit_network,
    directed,
    enumerate_max_matchings,
    matching_edges,
    matching_exchange,
    matching_opt_bruteforce,
    max_preflow,
    non_top_linked_oracle,
    scc_partition_oracle,
)
from structctl.graphkit import (
    input_reachable_with_parents,
    max_matching,
    min_weight_max_matching,
    non_top_linked_components,
    path_cycle_decomposition,
    right_deficiency_witness,
    scc,
)
from structctl.model import digraph, state_digraph, system_digraph


def digraphs(max_n=7):
    return st.integers(1, max_n).flatmap(
        lambda n: st.frozensets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        ).map(lambda pairs: digraph(n, pairs))
    )


def matching_graphs(max_v=8):
    """(g, n): any vertex may be a left, the vertices 0..n-1 are the rights,
    and every edge ends at a right, as in the graph of (A, B)."""
    def build(count, n, pairs):
        return digraph(count, {(t % count, h % n) for t, h in pairs}), n

    return st.integers(1, max_v).flatmap(
        lambda count: st.integers(1, count).flatmap(
            lambda n: st.frozensets(
                st.tuples(st.integers(0, count - 1), st.integers(0, n - 1))
            ).map(lambda pairs: build(count, n, pairs))
        )
    )


def size(mates) -> int:
    return sum(1 for r in mates[0] if r >= 0)


class TestScc:
    @given(digraphs())
    def test_partition_matches_oracle(self, g):
        comps = scc(g)
        assert {frozenset(c) for c in comps} == scc_partition_oracle(directed(g))
        assert sorted(v for c in comps for v in c) == list(range(len(g)))

    @given(digraphs())
    def test_components_in_reverse_topological_order(self, g):
        comp_of = {v: i for i, c in enumerate(scc(g)) for v in c}
        for t, heads in enumerate(g):
            for h in heads:
                assert comp_of[h] <= comp_of[t]  # targets come before their feeders

    @given(digraphs())
    def test_non_top_linked_matches_oracle(self, g):
        got = {frozenset(c) for c in non_top_linked_components(g)}
        assert got == non_top_linked_oracle(directed(g))

    def test_nine_state_components(self, nine_state):
        A, _ = nine_state
        comps = sorted(sorted(c) for c in scc(state_digraph(A)))
        assert comps == [[0, 1, 2], [3, 4], [5, 6], [7], [8]]
        non_top = sorted(sorted(c) for c in non_top_linked_components(state_digraph(A)))
        assert non_top == [[0, 1, 2], [3, 4]]


class TestReachability:
    def test_reaches_exactly_the_input_cone(self, nine_state):
        # the {x3, x4} cycle is fed by nothing, so its downstream tail
        # (x7, x8) is out of reach too
        A, B = nine_state
        parent = input_reachable_with_parents(system_digraph(A, B), A.rows)
        assert [j for j, p in enumerate(parent) if p >= 0] == [0, 1, 2, 5, 6]

    def test_parent_map_walks_back_to_an_input(self, nine_state):
        A, B = nine_state
        g = system_digraph(A, B)
        parent = input_reachable_with_parents(g, A.rows)
        path = [6]
        while path[-1] < A.rows:
            path.append(parent[path[-1]])
        assert path[-1] == A.rows  # input column 0
        for head, tail in zip(path, path[1:]):
            assert head in g[tail]

    def test_isolated_inputs_reach_nothing(self):
        g = system_digraph(pat(2, 2, {(1, 0)}), pat(2, 1, set()))
        assert input_reachable_with_parents(g, 2) == [-1, -1]


class TestMaxMatching:
    @given(matching_graphs())
    def test_cardinality_matches_dp(self, gn):
        g, n = gn
        assert size(max_matching(g, n)) == matching_opt_bruteforce(bipartite(g, n))[0]

    @given(matching_graphs(5))
    def test_result_is_one_of_the_enumerated_optima(self, gn):
        g, n = gn
        mate_l, mate_r = max_matching(g, n)
        assert all(mate_r[r] == l for l, r in enumerate(mate_l) if r >= 0)
        assert all(mate_l[l] == r for r, l in enumerate(mate_r) if l >= 0)
        assert matching_edges((mate_l, mate_r)) in enumerate_max_matchings(bipartite(g, n))

    def test_deterministic_across_edge_orderings(self):
        edges = [(5 + i, (i * 3 + j) % 5) for i in range(5) for j in range(2)]
        rng = random.Random(1)
        results = set()
        for _ in range(10):
            rng.shuffle(edges)
            results.add(matching_edges(max_matching(digraph(10, edges), 5)))
        assert len(results) == 1

    def test_unmatched_sets(self, nine_state):
        A, B = nine_state
        mates = max_matching(system_digraph(A, B), A.rows)
        assert size(mates) == 8
        # x3 and x7 compete for x4; deterministic, so pinned
        assert [k for k, l in enumerate(mates[1]) if l < 0] == [7]

    def test_inputs_are_visited_before_states(self):
        # state 1 and input column 0 (vertex 2) both feed state 0 only
        g = system_digraph(pat(2, 2, {(0, 1)}), pat(2, 1, {(0, 0)}))
        assert max_matching(g, 2) == ([-1, -1, 0], [2, -1])


class TestMinWeightMatching:
    @given(matching_graphs(5), st.integers(0, 2**31))
    @settings(max_examples=60)
    def test_matches_dp_on_cardinality_and_weight(self, gn, wseed):
        g, n = gn
        rng = random.Random(wseed)
        weights = {(l, r): rng.randint(0, 6) for l, heads in enumerate(g) for r in heads}
        m = matching_edges(min_weight_max_matching(g, n, weights))
        card, weight = matching_opt_bruteforce(bipartite(g, n), weights)
        assert len(m) == card
        assert sum(weights[e] for e in m) == weight

    def test_prefer_rights_breaks_weight_ties(self):
        # lefts 3 and 4, rights 0..2
        g = digraph(5, {(3, 0), (3, 1), (4, 1), (4, 2)})
        weights = {(3, 0): 1, (3, 1): 1, (4, 1): 1, (4, 2): 1}
        mate_l, _ = min_weight_max_matching(g, 3, weights, prefer_rights=[2])
        assert mate_l[4] == 2
        _, mate_r = min_weight_max_matching(g, 3, weights, prefer_rights=[1])
        assert mate_r[1] >= 0


class TestDecomposition:
    def test_nine_state_paths_and_cycles(self, nine_state):
        A, _ = nine_state
        paths, cycles = path_cycle_decomposition(max_matching(state_digraph(A), A.rows))
        assert paths == [[7, 8]]
        assert cycles == [[0, 1, 2], [3, 4], [5, 6]]

    @given(matching_graphs(6))
    def test_partitions_every_vertex_once(self, gn):
        g, n = gn
        mates = max_matching(g, n)
        paths, cycles = path_cycle_decomposition(mates)
        seen = [v for chunk in paths + cycles for v in chunk]
        assert sorted(seen) == list(range(len(g)))
        edges = matching_edges(mates)
        for cyc in cycles:
            for a, z in zip(cyc, cyc[1:] + cyc[:1]):
                assert (a, z) in edges
        for chain in paths:
            for a, z in zip(chain, chain[1:]):
                assert (a, z) in edges


class TestExchange:
    @given(matching_graphs(5), st.integers(0, 2**31))
    @settings(max_examples=60)
    def test_exchange_takes_rights_from_m1_and_lefts_from_m2(self, gn, wseed):
        g, n = gn
        rng = random.Random(wseed)
        weights = {(l, r): rng.randint(0, 3) for l, heads in enumerate(g) for r in heads}
        m1 = matching_edges(max_matching(g, n))
        m2 = matching_edges(min_weight_max_matching(g, n, weights))
        ex = matching_exchange(bipartite(g, n), m1, m2)
        assert len(ex) == len(m1)
        assert {r for _, r in ex} == {r for _, r in m1}
        assert {l for l, _ in ex} == {l for l, _ in m2}


class TestDeficiencyWitness:
    @given(matching_graphs())
    def test_witness_exists_iff_rights_uncovered_and_is_a_hall_violator(self, gn):
        g, n = gn
        mates = max_matching(g, n)
        w = right_deficiency_witness(g, mates)
        if -1 not in mates[1]:
            assert w is None
        else:
            rights, neighbors = w
            rset = set(rights)
            assert set(neighbors) == {l for l, heads in enumerate(g) if rset & set(heads)}
            assert len(neighbors) < len(rights)
            # inputs (vertices >= n) first, each side ascending
            assert neighbors == sorted(neighbors, key=lambda v: (v < n, v))

    def test_nine_state_witness(self, nine_state):
        A, B = nine_state
        g = system_digraph(A, B)
        rights, neighbors = right_deficiency_witness(g, max_matching(g, A.rows))
        assert rights == [3, 7]
        assert neighbors == [4]


class TestPreflow:
    @given(matching_graphs())
    def test_value_equals_matching_size(self, gn):
        g, n = gn
        net = max_preflow(build_unit_network(bipartite(g, n)))
        assert net.value == size(max_matching(g, n))

    def test_larger_random_graphs(self):
        for seed in range(25):
            rng = random.Random(seed)
            nl, nr = rng.randint(1, 40), rng.randint(1, 40)
            edges = {
                (nr + i, j)
                for i in range(nl)
                for j in range(nr)
                if rng.random() < 0.1
            }
            g = digraph(nr + nl, edges)
            assert max_preflow(build_unit_network(bipartite(g, nr))).value == size(
                max_matching(g, nr)
            )

    def test_flow_conservation_and_capacity(self):
        g = digraph(3, {(1, 0), (2, 0)})
        net = max_preflow(build_unit_network(bipartite(g, 1)))
        assert net.value == 1
        for e, f in net.flow.items():
            assert 0 <= f <= net.cap[e]
