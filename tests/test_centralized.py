"""Verdicts, certificates, certificate replay, and the numeric cross-check."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import pat
from oracles import (
    check_cacti_certificate,
    controllable_bruteforce,
    system_graph,
    verify_via_cacti,
)
from structctl.centralized import (
    PROBE_MAX_STATES,
    IdCertificate,
    Verdict,
    certify_digraph,
    check_certificate,
    numeric_probe,
    replay_digraph,
    verify,
)
from structctl.model import (
    SparsityPattern,
    digraph,
    graph_from_obj,
    indented_json,
    system_digraph,
)


def random_pair(seed, max_n=7, max_p=2, density=0.35):
    rng = random.Random(seed)
    n = rng.randint(1, max_n)
    p = rng.randint(0, max_p)
    A = {(i, j) for i in range(n) for j in range(n) if rng.random() < density}
    B = {(i, j) for i in range(n) for j in range(p) if rng.random() < 0.5}
    return pat(n, n, A), pat(n, p, B)


def system_graphs(max_n=6, max_p=3):
    """(g, n): the graph of some (A, B) with 1..max_n states and 0..max_p
    inputs."""
    def graphs(n, p):
        edges = st.frozensets(st.tuples(st.integers(0, n + p - 1), st.integers(0, n - 1)))
        return edges.map(lambda pairs: (digraph(n + p, pairs), n))

    return st.integers(1, max_n).flatmap(
        lambda n: st.integers(0, max_p).flatmap(lambda p: graphs(n, p))
    )


def pattern_pairs(max_n=6, max_p=3):
    """(A, B) with 0..max_n states and 0..max_p inputs."""
    def patterns(rows, cols):
        cells = [(i, j) for i in range(rows) for j in range(cols)]
        if not cells:
            return st.just(pat(rows, cols, ()))
        return st.frozensets(st.sampled_from(cells)).map(lambda pairs: pat(rows, cols, pairs))

    return st.tuples(st.integers(0, max_n), st.integers(0, max_p)).flatmap(
        lambda np: st.tuples(patterns(np[0], np[0]), patterns(*np))
    )


# Pairs that are not an n x n A with an n-row B, and what refuses them.
BAD_SHAPES = pytest.mark.parametrize(
    "A, B, message",
    [
        (pat(2, 3, {(0, 2), (1, 0)}), pat(2, 1, ()), "A is 2 x 3, not square"),
        (pat(2, 2, {(1, 0)}), pat(3, 1, {(2, 0)}), "A has 2 states but B has 3 rows"),
    ],
    ids=["A-not-square", "B-rows"],
)


def looped_chain(n, entries):
    """The n x n pattern of A with the given (row, col) entries plus a
    self-loop at every state."""
    return pat(n, n, set(entries) | {(k, k) for k in range(n)})


class TestVerify:
    def test_matches_bruteforce_on_small_random_patterns(self):
        for seed in range(300):
            A, B = random_pair(seed)
            assert verify(A, B).controllable == controllable_bruteforce(A, B), seed

    def test_zero_b_gives_unreachable_closure(self):
        v = verify(pat(3, 3, {(1, 0), (2, 1), (0, 2)}), pat(3, 1, set()))
        assert not v.controllable
        assert v.certificate["type"] == "unreachable-closure"
        assert v.certificate["states"] == [0, 1, 2]

    def test_unreachable_preferred_over_deficiency(self, nine_state):
        # this fixture violates both conditions; the closure wins
        v = verify(*nine_state)
        assert v.certificate["type"] == "unreachable-closure"
        assert v.certificate["states"] == [3, 4, 7, 8]

    def test_pure_deficiency(self):
        # one input feeds x0, x0 fans out to x1 and x2: everything is
        # reachable but two rights share the single feeder x0
        A = pat(3, 3, {(1, 0), (2, 0)})
        B = pat(3, 1, {(0, 0)})
        v = verify(A, B)
        assert not v.controllable
        assert v.certificate["type"] == "right-deficiency"
        assert sorted(v.certificate["rights"]) == [["x", 1], ["x", 2]]
        assert v.certificate["neighbors"] == [["x", 0]]

    def test_positive_certificate_contents(self):
        A = pat(2, 2, {(1, 0)})
        B = pat(2, 1, {(0, 0)})
        v = verify(A, B)
        assert v.controllable and bool(v)
        assert v.certificate["type"] == "reach-and-match"
        assert len(v.certificate["matching"]) == 2

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            verify(pat(2, 2, set()), pat(3, 1, set()))

    @BAD_SHAPES
    def test_bad_shapes_rejected(self, A, B, message):
        # unchecked, the 2 x 3 A's column 2 reads as input 0 of the empty B
        with pytest.raises(ValueError, match=message):
            verify(A, B)


class TestCertificateReplay:
    def test_replays_on_random_instances(self):
        for seed in range(200):
            A, B = random_pair(seed + 1000)
            v = verify(A, B)
            assert check_certificate(A, B, v), seed

    def test_tampered_certificates_rejected(self):
        A = pat(3, 3, {(1, 0), (2, 1), (0, 2)})
        B = pat(3, 1, {(0, 0)})
        good = verify(A, B)
        assert good.controllable and check_certificate(A, B, good)

        # claim controllability with a matching that skips a state
        cert = dict(good.certificate)
        cert["matching"] = cert["matching"][:-1]
        assert not check_certificate(A, B, Verdict(True, good.mode, cert))

        # claim a closure that B actually feeds
        bad = Verdict(False, good.mode, {"type": "unreachable-closure", "states": [0]})
        assert not check_certificate(A, B, bad)

        # claim a deficiency that is not one
        bad = Verdict(
            False,
            good.mode,
            {"type": "right-deficiency", "rights": [["x", 1]], "neighbors": [["x", 0]]},
        )
        assert not check_certificate(A, B, bad)

        # negative certificates naming states outside 0..n-1
        A = pat(2, 2, {(1, 0)})
        B = pat(2, 1, {(0, 0)})
        assert verify(A, B).controllable
        for state in (7, 2, -1, "1"):
            forged = [
                {"type": "unreachable-closure", "states": [state]},
                {"type": "right-deficiency", "rights": [["x", state]], "neighbors": []},
            ]
            for cert in forged:
                assert not check_certificate(A, B, Verdict(False, good.mode, cert)), cert

    def test_replay_checks_edges_exist(self):
        A = pat(2, 2, {(1, 0)})
        B = pat(2, 1, {(0, 0)})
        v = verify(A, B)
        cert = dict(v.certificate)
        cert["matching"] = [[["u", 0], ["x", 1]], [["x", 0], ["x", 0]]]  # no such edges
        assert not check_certificate(A, B, Verdict(True, v.mode, cert))

    def test_reversed_chain_replays(self):
        # the input feeds x[n-1] and x[k+1] feeds x[k]: the walk from x0
        # climbs the whole chain, and every later walk stops at once
        n = 20000
        A = looped_chain(n, {(k, k + 1) for k in range(n - 1)})
        B = pat(n, 1, {(n - 1, 0)})
        v = verify(A, B)
        assert v.controllable and check_certificate(A, B, v)

    def test_cycle_at_the_end_of_a_long_chain_rejected(self):
        # x[n-2] -> x[n-1] closes a cycle with the chain's last edge; a forest
        # that walks from x0 up the chain into that cycle never reaches u0
        n = 5000
        A = looped_chain(n, {(k, k + 1) for k in range(n - 1)} | {(n - 1, n - 2)})
        B = pat(n, 1, {(n - 1, 0)})
        v = verify(A, B)
        assert v.controllable and check_certificate(A, B, v)
        forest = [[["x", k], ["x", k + 1]] for k in range(n - 1)]
        forest.append([["x", n - 1], ["x", n - 2]])
        cert = {**v.certificate, "reach_forest": forest}
        assert not check_certificate(A, B, Verdict(True, v.mode, cert))

    # Replayed against A = {(1, 0)}, B = {(0, 0)}, which is controllable.
    _MATCH = [[["u", 0], ["x", 0]], [["x", 0], ["x", 1]]]
    _FOREST = [[["x", 0], ["u", 0]], [["x", 1], ["x", 0]]]
    _GOOD = {"type": "reach-and-match", "matching": _MATCH, "reach_forest": _FOREST}

    @pytest.mark.parametrize(
        "controllable, cert",
        [
            # a matching entry that is not a pair of vertices
            (True, {**_GOOD, "matching": [["x"], *_MATCH]}),
            (True, {**_GOOD, "matching": [["u", 0], *_MATCH]}),
            (True, {**_GOOD, "matching": [[["x"], ["x", 0]], _MATCH[1]]}),
            (True, {**_GOOD, "matching": [[["u", 0], ["x", 0], ["x", 1]], _MATCH[1]]}),
            # vertices whose index is not an int, or whose tag is unknown
            (True, {**_GOOD, "matching": [_MATCH[0], [["x", 0], ["x", 1.0]]]}),
            (True, {**_GOOD, "matching": [_MATCH[0], [["x", 0], ["x", True]]]}),
            (True, {**_GOOD, "reach_forest": [_FOREST[0], [["x", True], ["x", 0]]]}),
            (True, {**_GOOD, "reach_forest": [_FOREST[0], [["x", 1], ["y", 0]]]}),
            (True, {**_GOOD, "reach_forest": [[["x", 0], ["u", 1]], _FOREST[1]]}),
            (True, {**_GOOD, "matching": "u0 x0"}),
            # missing keys
            (True, {"type": "reach-and-match", "matching": _MATCH}),
            (True, {"type": "reach-and-match", "reach_forest": _FOREST}),
            (False, {"type": "right-deficiency", "neighbors": []}),
            (False, {"type": "unreachable-closure"}),
            # rights and states that are not vertices
            (False, {"type": "right-deficiency", "rights": [5], "neighbors": []}),
            (False, {"type": "right-deficiency", "rights": [["x"]], "neighbors": []}),
            (False, {"type": "right-deficiency", "rights": [["x", 1.0]], "neighbors": []}),
            (False, {"type": "right-deficiency", "rights": "x1", "neighbors": []}),
            (False, {"type": "unreachable-closure", "states": 1}),
            (False, {"type": "unreachable-closure", "states": [True]}),
            # certificates that are not dicts
            (True, []),
            (False, None),
            (True, "x"),
        ],
    )
    def test_malformed_certificates_rejected(self, controllable, cert):
        A = pat(2, 2, {(1, 0)})
        B = pat(2, 1, {(0, 0)})
        mode = "reachability-matching"
        assert check_certificate(A, B, Verdict(True, mode, self._GOOD))
        assert check_certificate(A, B, Verdict(controllable, mode, cert)) is False

    def test_deficiency_neighbors_must_be_the_feeders(self):
        # x0 and x1 are fed by u0 alone: W = {x0, x1}, N(W) = {u0}
        A = pat(2, 2, set())
        B = pat(2, 1, {(0, 0), (1, 0)})
        v = verify(A, B)
        assert v.certificate["type"] == "right-deficiency"
        assert check_certificate(A, B, v)
        for neighbors in ([], [["u", 0], ["x", 1]], [["u", 0], "junk"], None):
            cert = {**v.certificate, "neighbors": neighbors}
            assert not check_certificate(A, B, Verdict(False, v.mode, cert)), neighbors


class TestGraphReplay:
    """``replay_digraph`` on the graph and the id-level certificate, and
    ``check_certificate``'s decoding into it."""

    @given(system_graphs())
    @example((digraph(1, []), 1))  # n = 1, unreachable
    @example((digraph(2, [(1, 0)]), 1))  # n = 1, controllable
    @example((digraph(3, [(2, 0), (0, 1)]), 2))  # the matching starts with an input row
    @example((digraph(4, [(3, 0), (0, 1), (0, 2)]), 3))  # x1 and x2 share x0
    @example((digraph(1, []), 0))  # an input and no states
    def test_certificates_of_drawn_graphs_replay(self, gn):
        g, n = gn
        assert replay_digraph(g, certify_digraph(g, n)) is True

    # u0 -> x0 -> x1 -> x2 -> x1: controllable
    CHAIN = digraph(4, [(3, 0), (0, 1), (1, 2), (2, 1)])

    def test_tampered_matching_and_forest_rejected(self):
        g, n = self.CHAIN, 3
        cert = certify_digraph(g, n)
        (lefts, rights), (heads, tails) = cert.fields["matching"], cert.fields["reach_forest"]
        assert (lefts, rights) == ([3, 0, 1], [0, 1, 2]) and list(tails) == [3, 0, 1]
        assert replay_digraph(g, cert)

        def tampered(**fields):
            forged = IdCertificate("reach-and-match", n, **{**cert.fields, **fields})
            return replay_digraph(g, forged)

        assert not tampered(matching=(lefts[:-1], rights[:-1]))  # x2 left unmatched
        assert not tampered(matching=([3, 0, 2], rights))  # x2 -> x2 is no edge
        assert not tampered(reach_forest=(heads, [3, 2, 1]))  # x1 and x2 parent each other
        assert tampered(matching=([3, 2, 1], rights))  # x2 -> x1 is an edge too

    def test_tampered_closure_rejected(self):
        # u0 feeds x0; x1 and x2 feed each other and nothing reaches them
        g, n = digraph(4, [(3, 0), (1, 2), (2, 1)]), 3
        cert = certify_digraph(g, n)
        assert cert.fields == {"states": [1, 2]} and replay_digraph(g, cert)
        for states in ([0, 1, 2], [0], [1], [], [1, 2, 3]):
            cert = IdCertificate("unreachable-closure", n, states=states)
            assert not replay_digraph(g, cert), states

    def test_tampered_deficiency_rejected(self):
        # u0 -> x0, and x0 alone feeds x1 and x2
        g, n = digraph(4, [(3, 0), (0, 1), (0, 2)]), 3
        cert = certify_digraph(g, n)
        assert cert.fields == {"rights": ([1, 2],), "neighbors": ([0],)}
        assert replay_digraph(g, cert)
        bigger = IdCertificate("right-deficiency", n, rights=([0, 1, 2],), neighbors=([0, 3],))
        assert replay_digraph(g, bigger)  # every state: still two feeders
        for rights, neighbors in [
            ([1, 2], []),  # a neighbour dropped
            ([1, 2], [0, 3]),  # a neighbour added
            ([1, 2], [0, 1]),
            ([0, 1], [0, 3]),  # as many neighbours as rights
            ([1, 1, 2], [0]),  # a right twice
            ([1, 2, 3], [0]),  # an input among the rights
        ]:
            cert = IdCertificate("right-deficiency", n, rights=(rights,), neighbors=(neighbors,))
            assert not replay_digraph(g, cert), (rights, neighbors)

    @pytest.mark.parametrize("p", [0, 1])
    def test_zero_states_replay(self, p):
        A, B = SparsityPattern(0, 0), SparsityPattern(0, p)
        v = verify(A, B)
        assert v.certificate == {"type": "reach-and-match", "matching": [], "reach_forest": []}
        assert check_certificate(A, B, v) is True

    @BAD_SHAPES
    def test_bad_shapes_rejected(self, A, B, message):
        # unchecked, the B-rows pair replays this closure as valid
        cert = {"type": "unreachable-closure", "states": [0, 1]}
        verdict = Verdict(False, "reachability-matching", cert)
        with pytest.raises(ValueError, match=message):
            check_certificate(A, B, verdict)

    @given(pattern_pairs())
    def test_system_digraph_is_the_oracle_graph(self, pair):
        A, B = pair
        g, n = system_digraph(A, B), A.rows
        assert len(g) == n + B.cols
        assert all(heads == sorted(set(heads)) for heads in g)

        def vertex(v):
            return ("x", v) if v < n else ("u", v - n)

        oracle = system_graph(A, B)
        assert set(map(vertex, range(len(g)))) == oracle.left
        assert {(vertex(t), vertex(h)) for t, heads in enumerate(g) for h in heads} == oracle.edges


class TestCacti:
    def test_same_verdict_as_verify(self):
        for seed in range(150):
            A, B = random_pair(seed + 2000)
            assert verify_via_cacti(A, B).controllable == verify(A, B).controllable

    def test_cacti_cover_every_state_exactly_once(self):
        for seed in range(150):
            A, B = random_pair(seed + 3000)
            v = verify_via_cacti(A, B)
            if not v.controllable:
                continue
            seen = []
            for cactus in v.certificate["cacti"]:
                seen.extend(tuple(x) for x in cactus["stem"])
                for cyc in cactus["cycles"]:
                    seen.extend(tuple(x) for x in cyc["cycle"])
            states = [s for s in seen if s[0] == "x"]
            assert sorted(states) == [("x", j) for j in range(A.rows)]
            assert len(set(seen)) == len(seen)

    def test_stems_start_at_inputs_and_follow_edges(self):
        A = pat(3, 3, {(1, 0), (2, 1), (0, 2)})
        B = pat(3, 1, {(0, 0)})
        v = verify_via_cacti(A, B)
        assert v.controllable
        for cactus in v.certificate["cacti"]:
            assert cactus["stem"][0][0] == "u"

    def test_cacti_certificates_replay(self):
        for seed in range(150):
            A, B = random_pair(seed + 3000)
            v = verify_via_cacti(A, B)
            assert check_cacti_certificate(A, B, v) == v.controllable, seed

    def test_cacti_replay_rejects_a_dropped_cycle(self):
        A = pat(3, 3, {(1, 0), (0, 1), (2, 2)})
        B = pat(3, 1, {(0, 0), (2, 0)})
        v = verify_via_cacti(A, B)
        assert check_cacti_certificate(A, B, v)
        cactus = v.certificate["cacti"][0]
        assert cactus["cycles"]
        forged = {"type": "input-cacti", "cacti": [{**cactus, "cycles": []}]}
        assert not check_cacti_certificate(A, B, Verdict(True, v.mode, forged))


class TestCertificateText:
    """``IdCertificate.write`` writes what the report writer writes for the
    certificate dict ``certify_digraph(graph, n).as_dict()``, at any
    indentation."""

    NEWLINES = ["\n", "\n  ", "\n        "]

    def assert_written_as_the_dict(self, cert):
        materialized = cert.as_dict()
        for newline in self.NEWLINES:
            assert cert.write(newline) == indented_json(materialized, newline)
        assert cert.write("\n") == json.dumps(materialized, indent=2, sort_keys=True)

    @given(system_graphs())
    @example((digraph(1, []), 1))  # n = 1, unreachable
    @example((digraph(2, [(1, 0)]), 1))  # n = 1, controllable
    @example((digraph(3, [(2, 0), (0, 1)]), 2))  # the matching starts with an input row
    @example((digraph(4, [(3, 0), (0, 1), (0, 2)]), 3))  # x1 and x2 share x0
    def test_drawn_graphs(self, gn):
        self.assert_written_as_the_dict(certify_digraph(*gn))

    @pytest.mark.parametrize(
        "cert",
        [
            certify_digraph([], 0),  # an empty matching and forest
            certify_digraph([[]], 0),  # an input and no states
            IdCertificate("right-deficiency", 2, rights=([0, 1],), neighbors=([],)),
        ],
        ids=["no-vertices", "one-input", "no-neighbors"],
    )
    def test_empty_lists(self, cert):
        self.assert_written_as_the_dict(cert)

    def test_benchmark_networks(self, monkeypatch, tmp_path):
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
        import workloads

        kinds = []
        for call in workloads.central_large(1, str(tmp_path), scale=0.02):
            graph, _, n, _ = graph_from_obj(json.loads(Path(call.path).read_text()))
            cert = certify_digraph(graph, n)
            self.assert_written_as_the_dict(cert)
            kinds.append(cert.kind)
        assert kinds == ["reach-and-match", "right-deficiency", "unreachable-closure"]


class TestNumericProbe:
    def test_agrees_with_structural_verdict(self):
        disagreements = 0
        for seed in range(150):
            A, B = random_pair(seed + 4000, max_n=10)
            structural = verify(A, B).controllable
            numeric = numeric_probe(A, B, seed=seed)
            disagreements += structural != numeric
        assert disagreements <= 3  # generic-rank sampling may rarely miss

    def test_zero_b_is_false_without_sampling(self):
        assert numeric_probe(pat(2, 2, {(1, 0)}), pat(2, 1, set())) is False

    def test_looped_chain_at_the_size_limit_is_full_rank(self):
        # its Krylov vectors are nearly parallel, which misled a float SVD
        n = PROBE_MAX_STATES
        A = looped_chain(n, {(k + 1, k) for k in range(n - 1)})
        B = pat(n, 1, {(0, 0)})
        assert verify(A, B).controllable
        for seed in range(5):
            assert numeric_probe(A, B, seed=seed) is True, seed

    @BAD_SHAPES
    def test_bad_shapes_rejected(self, A, B, message):
        with pytest.raises(ValueError, match=message):
            numeric_probe(A, B)

    def test_size_limit(self):
        big = SparsityPattern(65, 65, frozenset())
        with pytest.raises(ValueError):
            numeric_probe(big, SparsityPattern(65, 1, frozenset()))
