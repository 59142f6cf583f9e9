"""Coupled identical copies: expansion, both decision checks, JSON variant."""

from __future__ import annotations

import pytest

from conftest import pat
from oracles import build_composite_matching, controllable_bruteforce, dense, kron_expand_dense
from structctl.centralized import verify
from structctl.model import ModelError, assemble_global, system_digraph
from structctl.similar import (
    SimilarSystemSpec,
    check_cycle_cover,
    check_via_collapse,
    copy_level_digraph,
    expand,
    precondition_report,
    random_similar_spec,
    similar_dumps,
    similar_from_obj,
    similar_loads,
)


class TestSpecValidation:
    def test_shapes_enforced(self, similar_template):
        with pytest.raises(ModelError, match="E is"):
            SimilarSystemSpec(r=3, n=2, p=1, E=pat(2, 2, set()), **similar_template)

    def test_diagonal_forbidden(self, similar_template):
        with pytest.raises(ModelError, match="diagonal"):
            SimilarSystemSpec(r=3, n=2, p=1, E=pat(3, 3, {(1, 1)}), **similar_template)


class TestExpand:
    def test_matches_kron_oracle_on_random_specs(self):
        for seed in range(60):
            spec = random_similar_spec((2, 4), (1, 4), (0, 2), 0.4, seed=seed)
            if spec.H.is_zero:
                continue  # connections are dropped entirely in that case
            gA, gB = assemble_global(expand(spec))
            A, B = kron_expand_dense(
                spec.r, spec.Aprime, spec.Bprime, spec.H,
                set(spec.E.nonzeros),
            )
            assert dense(gA) == A
            assert dense(gB) == B

    def test_zero_h_drops_connections(self, similar_template):
        spec = SimilarSystemSpec(
            r=2, n=2, p=1,
            Aprime=similar_template["Aprime"],
            Bprime=similar_template["Bprime"],
            H=pat(2, 2, set()),
            E=pat(2, 2, {(1, 0)}),
        )
        assert expand(spec).connections == ()

    def test_copy_level_digraph_direction(self, thm1_ring):
        g = copy_level_digraph(thm1_ring)
        # E[i, j] nonzero means copy j feeds copy i
        assert g == [[1], [2], [0]]


class TestChecks:
    def test_preconditions_reported(self, thm1_ring):
        pre = precondition_report(thm1_ring)
        assert pre == {
            "template_controllable": False,
            "template_right_perfect": True,
        }

    def test_collapse_check_true_on_the_ring(self, thm1_ring):
        res = check_via_collapse(thm1_ring)
        assert res.status == "true" and bool(res)
        assert verify(*assemble_global(expand(thm1_ring))).controllable

    def test_collapse_check_false_when_a_copy_is_a_source(self, similar_template):
        spec = SimilarSystemSpec(
            r=3, n=2, p=1, E=pat(3, 3, {(1, 0), (2, 1)}), **similar_template
        )
        res = check_via_collapse(spec)
        assert res.status == "false" and not bool(res)
        assert res.details["sources"] == [0]
        assert not verify(*assemble_global(expand(spec))).controllable

    def test_collapse_check_lists_every_source_ascending(self, similar_template):
        # copy 4 feeds copies 3 and 1; copies 0, 2 and 4 are fed by none
        spec = SimilarSystemSpec(
            r=5, n=2, p=1, E=pat(5, 5, {(3, 4), (1, 4)}), **similar_template
        )
        res = check_via_collapse(spec)
        assert res.status == "false"
        assert res.details["sources"] == [0, 2, 4]
        assert not verify(*assemble_global(expand(spec))).controllable

    def test_precondition_unmet_is_not_a_verdict(self):
        # a controllable template refuses both checks
        spec = SimilarSystemSpec(
            r=2, n=1, p=1,
            Aprime=pat(1, 1, set()), Bprime=pat(1, 1, {(0, 0)}),
            H=pat(1, 1, {(0, 0)}), E=pat(2, 2, {(1, 0)}),
        )
        assert check_via_collapse(spec).status == "precondition-unmet"
        assert check_cycle_cover(spec).status == "precondition-unmet"
        assert not bool(check_via_collapse(spec))

    def test_collapse_check_is_exact_under_preconditions(self):
        compared = 0
        for seed in range(250):
            spec = random_similar_spec((2, 3), (1, 3), (1, 2), 0.45, seed=seed)
            res = check_via_collapse(spec)
            if res.status == "precondition-unmet":
                continue
            compared += 1
            gA, gB = assemble_global(expand(spec))
            assert (res.status == "true") == controllable_bruteforce(gA, gB), seed
        assert compared > 30

    def test_cycle_cover_check_is_sound(self):
        fired = 0
        for seed in range(250):
            spec = random_similar_spec((2, 3), (1, 3), (1, 2), 0.45, seed=seed)
            res = check_cycle_cover(spec)
            if res.status != "true":
                continue
            fired += 1
            gA, gB = assemble_global(expand(spec))
            assert controllable_bruteforce(gA, gB), seed
        assert fired > 10

    def test_cycle_cover_true_on_the_ring(self, thm1_ring):
        assert check_cycle_cover(thm1_ring).status == "true"

    def test_cycle_cover_is_not_necessary(self, thm2_witness):
        assert check_cycle_cover(thm2_witness).status == "false"
        assert check_cycle_cover(thm2_witness).details["spanned_by_cycles"] is False
        assert verify(*assemble_global(expand(thm2_witness))).controllable


def assert_right_perfect_on_expansion(mates, spec):
    """The mate arrays are a matching of the expanded system's graph that
    covers every state."""
    gA, gB = assemble_global(expand(spec))
    g = system_digraph(gA, gB)
    mate_l, mate_r = mates
    assert len(mate_l) == len(g) and len(mate_r) == gA.rows
    assert all(l >= 0 and mate_l[l] == k and k in g[l] for k, l in enumerate(mate_r))
    assert sum(1 for k in mate_l if k >= 0) == len(mate_r)


class TestCompositeMatching:
    def test_covers_every_right_with_real_edges(self, thm1_ring):
        assert_right_perfect_on_expansion(build_composite_matching(thm1_ring), thm1_ring)

    def test_refuses_without_the_condition(self, thm2_witness):
        with pytest.raises(ValueError, match="does not hold"):
            build_composite_matching(thm2_witness)

    def test_random_true_instances_lift_correctly(self):
        lifted = 0
        for seed in range(300):
            spec = random_similar_spec((2, 4), (1, 3), (1, 2), 0.45, seed=seed)
            if check_cycle_cover(spec).status != "true":
                continue
            lifted += 1
            assert_right_perfect_on_expansion(build_composite_matching(spec), spec)
        assert lifted > 10


class TestJson:
    def test_roundtrip(self, thm1_ring):
        assert similar_loads(similar_dumps(thm1_ring)) == thm1_ring

    def test_random_roundtrip(self):
        for seed in range(30):
            spec = random_similar_spec((1, 4), (1, 4), (0, 2), 0.4, seed=seed)
            assert similar_loads(similar_dumps(spec)) == spec

    def test_undecodable_and_too_deeply_nested_text_are_model_errors(self):
        with pytest.raises(ModelError, match="^invalid JSON: Expecting"):
            similar_loads('{"similar": ')
        with pytest.raises(ModelError) as err:
            similar_loads('{"similar": ' + "[" * 100_000)
        assert str(err.value) == "invalid JSON: nested too deeply to decode"

    def test_requires_the_wrapper_key(self):
        with pytest.raises(ModelError, match="similar"):
            similar_from_obj({"r": 1})

    def test_reports_bad_fields(self, thm1_ring):
        import json

        obj = json.loads(similar_dumps(thm1_ring))
        obj["similar"]["Aprime"].append([9, 9])
        with pytest.raises(ModelError, match="Aprime"):
            similar_from_obj(obj)

    def test_generator_is_deterministic(self):
        a = random_similar_spec((2, 5), (1, 4), (0, 2), 0.4, seed=7)
        b = random_similar_spec((2, 5), (1, 4), (0, 2), 0.4, seed=7)
        assert a == b

    def test_generator_gives_a_single_copy_an_empty_e(self):
        spec = random_similar_spec((1, 1), (1, 3), (0, 1), 0.4, seed=3)
        assert spec.r == 1
        assert spec.E.nonzeros == frozenset()
