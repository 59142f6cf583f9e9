"""Serial-topology condition: agents, centralized mirror, and the literal
readings of the underlying sufficient condition kept as references."""

from __future__ import annotations

import random
from itertools import product

import pytest

from conftest import build_system
from oracles import (
    Bipartite,
    Directed,
    bipartite,
    enumerate_max_matchings,
    lemma4_literal_search,
    matching_opt_bruteforce,
    non_top_linked_oracle,
    system_graph,
)
from structctl.centralized import verify
from structctl.model import assemble_global, random_serial_system, state_digraph
from structctl.serial import (
    check_lemma4,
    check_lemma4_details,
    is_serial,
    run_seq_strt_ctl,
    seq_strt_ctl_variant,
)


def _state_only_reading(sysm) -> bool:
    """Literal per-statement reading: per-subsystem maximum matchings of the
    state-only bipartite graphs whose uncovered rights are covered through
    connection edges, with every local non-top SCC an input.  Reference only."""
    for s in sysm.subsystems:
        b = system_graph(s.A, s.B)
        for comp in non_top_linked_oracle(Directed(b.left, b.edges)):
            if any(v[0] != "u" for v in comp):
                return False
    per_sub = [
        enumerate_max_matchings(bipartite(state_digraph(s.A), s.n)) for s in sysm.subsystems
    ]
    for combo in product(*per_sub):
        spare_lefts, spare_rights = set(), set()
        for s, m in zip(sysm.subsystems, combo):
            matched_l = {l for l, _ in m}
            matched_r = {r for _, r in m}
            spare_lefts.update((s.id, k) for k in range(s.n) if k not in matched_l)
            spare_rights.update((s.id, k) for k in range(s.n) if k not in matched_r)
        edges = set()
        for c in sysm.connections:
            for t, l in c.E.nonzeros:
                if (c.from_, l) in spare_lefts and (c.to, t) in spare_rights:
                    edges.add(((c.from_, l), (c.to, t)))
        cross = Bipartite(frozenset(spare_lefts), frozenset(spare_rights), frozenset(edges))
        if matching_opt_bruteforce(cross)[0] == len(spare_rights):
            return True
    return False


class TestIsSerial:
    def test_chain_is_serial_both_ways(self):
        chain = build_system(
            [(1, 1, set(), {(0, 0)})] * 3,
            [(1, 0, {(0, 0)}), (2, 1, {(0, 0)})],
        )
        assert is_serial(chain, "primal").is_serial
        assert is_serial(chain, "dual").is_serial

    def test_fanout_breaks_primal_only(self):
        fan = build_system(
            [(1, 1, set(), {(0, 0)})] * 3,
            [(1, 0, {(0, 0)}), (2, 0, {(0, 0)})],
        )
        primal = is_serial(fan, "primal")
        assert not primal.is_serial and primal.offenders == (0,)
        assert is_serial(fan, "dual").is_serial

    def test_fanin_breaks_dual_only(self):
        fan = build_system(
            [(1, 1, set(), {(0, 0)})] * 3,
            [(2, 0, {(0, 0)}), (2, 1, {(0, 0)})],
        )
        assert is_serial(fan, "primal").is_serial
        dual = is_serial(fan, "dual")
        assert not dual.is_serial and dual.offenders == (2,)

    def test_bad_variant_rejected(self):
        chain = build_system([(1, 0, set(), set())], [])
        with pytest.raises(ValueError):
            is_serial(chain, "sideways")


class TestAgentsVsMirror:
    def test_fixture_pair_is_accepted_everywhere(self, serial_pair):
        assert check_lemma4(serial_pair, "primal")
        res = run_seq_strt_ctl(serial_pair, "primal")
        assert res.outputs == {0: True, 1: True}
        assert verify(*assemble_global(serial_pair)).controllable

    def test_agents_equal_mirror_on_random_serial_systems(self):
        for seed in range(120):
            rng = random.Random(seed)
            sysm = random_serial_system(
                rng.randint(2, 6), (1, 4), (0, 2), 0.35, seed=seed
            )
            expected = check_lemma4(sysm, "primal")
            res = run_seq_strt_ctl(sysm, "primal")
            assert set(res.outputs.values()) == {expected}, seed

    def test_no_false_positives_against_the_oracle(self):
        hits = 0
        for seed in range(200):
            sysm = random_serial_system(3, (1, 4), (1, 2), 0.4, seed=seed)
            if check_lemma4(sysm, "primal"):
                hits += 1
                assert verify(*assemble_global(sysm)).controllable, seed
        assert hits > 10  # the condition does fire on this distribution

    def test_details_align_with_verdict(self, serial_pair):
        details = check_lemma4_details(serial_pair, "primal")
        assert set(details) == {0, 1}
        assert all(d["ctld"] for d in details.values())

    def test_non_serial_input_is_refused_with_offenders(self):
        fan = build_system(
            [(1, 1, set(), {(0, 0)})] * 3,
            [(1, 0, {(0, 0)}), (2, 0, {(0, 0)})],
        )
        with pytest.raises(ValueError, match=r"offending subsystems \[0\]"):
            run_seq_strt_ctl(fan, "primal")

    def test_dual_variant_runs_and_is_sound(self):
        sound = 0
        for seed in range(120):
            sysm = random_serial_system(3, (1, 3), (1, 2), 0.4, seed=seed + 500)
            if not is_serial(sysm, "dual").is_serial:
                continue
            expected = check_lemma4(sysm, "dual")
            res = run_seq_strt_ctl(sysm, "dual")
            assert set(res.outputs.values()) == {expected}
            if expected:
                sound += 1
                assert verify(*assemble_global(sysm)).controllable, seed
        assert sound > 5


class TestLiteralReadings:
    """The two readings of the written condition that the implementation
    deliberately does not use, pinned by the systems that separate them."""

    @pytest.fixture
    def amplifier(self):
        # single-state source feeding a two-state block whose own input
        # already covers both rights
        return build_system(
            [(1, 1, set(), {(0, 0)}), (2, 1, set(), {(0, 0), (1, 0)})],
            [(1, 0, {(0, 0)})],
        )

    @pytest.fixture
    def weight_trap(self):
        # min-weight tie-breaking picks a matching whose leftovers the cross
        # edge cannot cover, although some other maximum matching works
        return build_system(
            [(2, 2, {(1, 0)}, {(0, 0), (1, 0), (1, 1)}), (2, 2, set(), {(0, 0), (1, 0)})],
            [(1, 0, {(0, 0)})],
        )

    def test_state_only_reading_rejects_what_the_algorithm_accepts(self, amplifier):
        assert check_lemma4(amplifier, "primal")
        assert verify(*assemble_global(amplifier)).controllable
        assert not _state_only_reading(amplifier)

    def test_system_graph_reading_accepts_what_the_algorithm_rejects(self, weight_trap):
        assert lemma4_literal_search(weight_trap)
        assert not check_lemma4(weight_trap, "primal")
        # rejection is conservative, not a controllability claim
        assert verify(*assemble_global(weight_trap)).controllable

    def test_readings_agree_with_algorithm_when_it_accepts(self):
        for seed in range(60):
            sysm = random_serial_system(2, (1, 3), (1, 1), 0.5, seed=seed)
            if check_lemma4(sysm, "primal"):
                assert lemma4_literal_search(sysm), seed
