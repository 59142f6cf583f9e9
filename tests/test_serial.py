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
import structctl.runtime as runtime
from structctl.centralized import verify
from structctl.model import (
    InterconnectedSystem,
    Interconnection,
    Subsystem,
    _nonempty_pattern,
    _random_pattern,
    assemble_global,
    random_serial_system,
    state_digraph,
)
from structctl.serial import (
    check_lemma4,
    check_lemma4_details,
    is_serial,
    run_seq_strt_ctl,
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
        for links in ([(1, 0), (2, 1)], [(0, 1), (1, 2)]):
            chain = build_system(
                [(1, 1, set(), {(0, 0)})] * 3,
                [(to, frm, {(0, 0)}) for to, frm in links],
            )
            check = is_serial(chain)
            assert check.is_serial and check.offenders == ()

    def test_fanout_breaks_primal_only(self):
        # only the subsystem feeding two others offends
        fan = build_system(
            [(1, 1, set(), {(0, 0)})] * 3,
            [(1, 0, {(0, 0)}), (2, 0, {(0, 0)})],
        )
        check = is_serial(fan)
        assert not check.is_serial and check.offenders == (0,)

    def test_fanin_is_serial(self):
        fan = build_system(
            [(1, 1, set(), {(0, 0)})] * 3,
            [(2, 0, {(0, 0)}), (2, 1, {(0, 0)})],
        )
        check = is_serial(fan)
        assert check.is_serial and check.offenders == ()


class TestAgentsVsMirror:
    def test_fixture_pair_is_accepted_everywhere(self, serial_pair):
        assert check_lemma4(serial_pair)
        res = run_seq_strt_ctl(serial_pair)
        assert res.outputs == {0: True, 1: True}
        assert verify(*assemble_global(serial_pair)).controllable

    def test_payloads_need_no_normalizing(self, serial_pair, monkeypatch):
        # A payload that equals its JSON round trip is sent as is; anything
        # else falls back to the runtime's slower normalizing walk.
        calls = []
        normalize = runtime._normalize_payload

        def spy(value, where):
            calls.append(where)
            return normalize(value, where)

        monkeypatch.setattr(runtime, "_normalize_payload", spy)
        res = run_seq_strt_ctl(serial_pair)
        assert set(res.outputs.values()) == {check_lemma4(serial_pair)}
        assert calls == []

    def test_agents_equal_mirror_on_random_serial_systems(self):
        for seed in range(120):
            rng = random.Random(seed)
            sysm = random_serial_system(
                rng.randint(2, 6), (1, 4), (0, 2), 0.35, seed=seed
            )
            expected = check_lemma4(sysm)
            res = run_seq_strt_ctl(sysm)
            assert set(res.outputs.values()) == {expected}, seed

    def test_no_false_positives_against_the_oracle(self):
        hits = 0
        for seed in range(200):
            sysm = random_serial_system(3, (1, 4), (1, 2), 0.4, seed=seed)
            if check_lemma4(sysm):
                hits += 1
                assert verify(*assemble_global(sysm)).controllable, seed
        assert hits > 10  # the condition does fire on this distribution

    def test_details_align_with_verdict(self, serial_pair):
        details = check_lemma4_details(serial_pair)
        assert set(details) == {0, 1}
        assert all(d["ctld"] for d in details.values())

    def test_non_serial_input_is_refused_with_offenders(self):
        fan = build_system(
            [(1, 1, set(), {(0, 0)})] * 3,
            [(1, 0, {(0, 0)}), (2, 0, {(0, 0)})],
        )
        with pytest.raises(ValueError, match=r"offending subsystems \[0\]"):
            run_seq_strt_ctl(fan)


def _family_system(kind: str, r: int, seed: int) -> InterconnectedSystem:
    """A chain (subsystem i feeds i + 1) or an in-star (subsystems 1..r-1
    feed hub 0) of random subsystems.  About a third have a single state.
    On even seeds about half are input-free; on odd seeds none is, and B is
    dense enough that the condition often holds."""
    rng = random.Random(seed)
    input_free, b_density = (0.5, 0.6) if seed % 2 == 0 else (0.0, 0.85)
    subs = []
    for i in range(r):
        n = 1 if rng.random() < 0.35 else rng.randint(2, 3)
        p = 0 if rng.random() < input_free else rng.randint(1, 2)
        A, B = _random_pattern(rng, n, n, 0.4), _random_pattern(rng, n, p, b_density)
        subs.append(Subsystem(i, n, p, A, B))
    if kind == "chain":
        links = [(i + 1, i) for i in range(r - 1)]
    else:
        links = [(0, j) for j in range(1, r)]
    conns = tuple(
        Interconnection(to, frm, _nonempty_pattern(rng, subs[to].n, subs[frm].n, 0.5))
        for to, frm in links
    )
    return InterconnectedSystem(tuple(subs), conns)


class TestFamilies:
    """Chains give the deepest BFS trees; an in-star's hub stacks every
    other subsystem."""

    @pytest.mark.parametrize("kind", ["chain", "in-star"])
    def test_agents_equal_mirror_and_holds_is_sound(self, kind):
        holds = input_free = single_state = 0
        for r in range(2, 13):
            for seed in range(6):
                sysm = _family_system(kind, r, seed=100 * r + seed)
                assert is_serial(sysm).is_serial
                expected = check_lemma4(sysm)
                res = run_seq_strt_ctl(sysm)
                assert res.outputs == dict.fromkeys(range(r), expected), (r, seed)
                if expected:
                    holds += 1
                    assert verify(*assemble_global(sysm)).controllable, (r, seed)
                input_free += sum(s.p == 0 for s in sysm.subsystems)
                single_state += sum(s.n == 1 for s in sysm.subsystems)
        assert holds >= 10 and input_free > 0 and single_state > 0

    def test_in_star_hub_needs_every_feeder(self):
        # Hub state 0 holds the hub's one input and feeds hub states 1..r;
        # inside the hub it can cover only one of their rights, so leaf j
        # (one state, own input) must cover hub state j through its coupling.
        for r in range(2, 13):
            hub = (r + 1, 1, {(k, 0) for k in range(1, r + 1)}, {(0, 0)})
            leaves = [(1, 1, set(), {(0, 0)})] * (r - 1)
            sysm = build_system([hub] + leaves, [(0, j, {(j, 0)}) for j in range(1, r)])
            assert check_lemma4(sysm), r
            assert verify(*assemble_global(sysm)).controllable, r
            assert run_seq_strt_ctl(sysm).outputs == dict.fromkeys(range(r), True), r


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
        assert check_lemma4(amplifier)
        assert verify(*assemble_global(amplifier)).controllable
        assert not _state_only_reading(amplifier)

    def test_system_graph_reading_accepts_what_the_algorithm_rejects(self, weight_trap):
        assert lemma4_literal_search(weight_trap)
        assert not check_lemma4(weight_trap)
        # rejection is conservative, not a controllability claim
        assert verify(*assemble_global(weight_trap)).controllable

    def test_readings_agree_with_algorithm_when_it_accepts(self):
        for seed in range(60):
            sysm = random_serial_system(2, (1, 3), (1, 1), 0.5, seed=seed)
            if check_lemma4(sysm):
                assert lemma4_literal_search(sysm), seed
