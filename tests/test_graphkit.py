"""Graph algorithms against brute-force oracles and structural invariants."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
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
    max_matching_every_search,
    max_preflow,
    non_top_linked_oracle,
    path_cycle_decomposition,
    scc_partition_oracle,
)
from structctl.graphkit import (
    input_reachable_with_parents,
    max_matching,
    min_weight_max_matching,
    non_top_linked_components,
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


def assert_maximum_with_the_reference_witness(g, n):
    """``max_matching`` gives a matching of g as large as the reference
    Hopcroft–Karp's, with the same right-deficiency witness.  Which maximum
    matching it is may differ."""
    mate_l, mate_r = mates = max_matching(g, n)
    assert len(mate_l) == len(g) and len(mate_r) == n
    assert all(r in g[l] for l, r in enumerate(mate_l) if r >= 0)
    assert all(mate_r[r] == l for l, r in enumerate(mate_l) if r >= 0)
    assert all(mate_l[l] == r for r, l in enumerate(mate_r) if l >= 0)
    reference = max_matching_every_search(g, n)
    assert size(mates) == size(reference)
    assert right_deficiency_witness(g, mates) == right_deficiency_witness(g, reference)


def _random_feeders(degree):
    """Every state fed by ``degree`` random vertices, one input per 50
    states."""
    def build(n, seed):
        rng = random.Random(seed)
        count = n + n // 50
        edges = {(rng.randrange(count), h) for h in range(n) for _ in range(degree)}
        return digraph(count, edges), n
    return build


def _banded(n, seed):
    """Edges l -> k for |l - k| <= 3, each kept with probability one half."""
    rng = random.Random(seed)
    edges = {(l, k) for k in range(n) for l in range(max(0, k - 3), min(n, k + 4))
             if rng.random() < 0.5}
    return digraph(n + 1, edges | {(n, 0)}), n


def _chain(step):
    """Rings of 20 to 200 states along the chain l -> l + step, the ring's
    last state feeding its first, and every state on a self-loop but the
    ring's highest.  The greedy start takes every self-loop and leaves the
    highest state unmatched; the one augmenting path runs the ring's length."""
    def build(n, seed):
        rng = random.Random(seed)
        edges, start = set(), 0
        while start < n:
            stop = min(n, start + rng.randint(20, 200))
            ring = range(start, stop) if step > 0 else range(stop - 1, start - 1, -1)
            edges |= {(l, l) for l in range(start, stop - 1)} | set(zip(ring, ring[1:]))
            edges.add((ring[-1], ring[0]))
            start = stop
        return digraph(n, edges), n
    return build


def _grid(n, seed):
    """A side x side grid, each cell feeding the cells right of it and below
    it, with seed + 1 inputs feeding the first cells of the top row."""
    side = round(n ** 0.5)
    n = side * side
    edges = {(i * side + j, i * side + j + 1) for i in range(side) for j in range(side - 1)}
    edges |= {(i * side + j, (i + 1) * side + j) for i in range(side - 1) for j in range(side)}
    return digraph(n + seed + 1, edges | {(n + k, k) for k in range(seed + 1)}), n


FAMILIES = {
    "random-degree-2": _random_feeders(2),
    "random-degree-3": _random_feeders(3),
    "banded": _banded,
    "chain-forward": _chain(1),
    "chain-backward": _chain(-1),
    "grid": _grid,
}


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

    # edgeless; a perfect matching (every right matched mid-phase);
    # deficient (rights 0 and 1 share their one feeder)
    @example((digraph(4, []), 2))
    @example((digraph(6, {(4, 0), (4, 1), (5, 1), (2, 2), (3, 0)}), 3))
    @example((digraph(5, {(3, 0), (3, 1), (4, 2)}), 3))
    @given(matching_graphs(12))
    def test_maximum_with_the_reference_witness(self, gn):
        assert_maximum_with_the_reference_witness(*gn)

    @given(st.integers(1, 60), st.integers(1, 4), st.integers(0, 2**31))
    @settings(max_examples=60)
    def test_maximum_with_the_reference_witness_on_system_graphs(self, n, p, seed):
        # about two feeders per state, so long augmenting paths and several
        # phases occur
        rng = random.Random(seed)
        A = pat(n, n, {(k, rng.randrange(n)) for k in range(n) for _ in range(2)})
        B = pat(n, p, {(rng.randrange(n), j) for j in range(p)})
        assert_maximum_with_the_reference_witness(system_digraph(A, B), n)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_maximum_on_sparse_families(self, family):
        # Pothen–Fan's worst case is O(V·E), against Hopcroft–Karp's
        # O(E·√V): the families where depth-first phases could go wrong
        for seed in range(2):
            assert_maximum_with_the_reference_witness(*FAMILIES[family](1500, seed))

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

    def test_matches_dp_on_weight_ties(self):
        # the weights 1 and 2 of the serial check make weight ties common
        rng = random.Random(2024)
        for _ in range(400):
            count = rng.randint(1, 9)
            n = rng.randint(1, min(count, 7))
            density = rng.uniform(0.1, 0.6)
            g = digraph(count, {
                (l, k) for l in range(count) for k in range(n) if rng.random() < density
            })
            top = rng.choice((2, 2, 3, 6))
            weights = {(l, k): rng.randint(top // 2, top) for l, heads in enumerate(g) for k in heads}
            m = matching_edges(min_weight_max_matching(g, n, weights))
            got = (len(m), sum(weights[e] for e in m))
            assert got == matching_opt_bruteforce(bipartite(g, n), weights)


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
