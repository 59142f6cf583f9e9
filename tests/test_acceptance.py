"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single
``ACCEPTANCE n: PASS/FAIL`` line with the measured numbers before asserting.
The shared 1000-instance corpus (criteria 1, 2, 6, 9) is seeded and tuned so
roughly 30% of instances are controllable.
"""

from __future__ import annotations

import random
import time

import pytest

from conftest import matching_size, reached_states
from oracles import (
    bipartite,
    boundary_vertex_count,
    build_unit_network,
    controllable_bruteforce,
    matching_edges,
    matching_opt_bruteforce,
    max_preflow,
    reached_program,
)
from structctl.centralized import numeric_probe, verify
from structctl.distributed import controlled, controlled_program
from structctl.graphkit import max_matching, min_weight_max_matching
from structctl.model import (
    SparsityPattern,
    assemble_global,
    digraph,
    random_serial_system,
    random_system,
)
from structctl.runtime import run
from structctl.serial import check_lemma4, run_seq_strt_ctl
from structctl.similar import (
    check_cycle_cover,
    check_via_collapse,
    expand,
    precondition_report,
    random_similar_spec,
)


@pytest.fixture(scope="module")
def report(request):
    """Reporter that reaches the terminal even under captured output."""
    terminal = request.config.pluginmanager.get_plugin("terminalreporter")

    def write(text: str) -> None:
        if terminal is not None:
            terminal.ensure_newline()
            terminal.write_line(text)
        else:
            print(text)

    def _report(num: int, ok: bool, detail: str) -> None:
        write(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}")
        assert ok, f"acceptance criterion {num} failed: {detail}"

    _report.line = write
    return _report


@pytest.fixture(scope="module")
def corpus():
    systems = []
    for seed in range(1000):
        rng = random.Random(seed * 7919 + 13)
        r = rng.randint(2, 6)
        systems.append((seed, random_system(r, (1, 8), (1, 2), density=0.30, seed=seed)))
    return systems


@pytest.fixture(scope="module")
def corpus_runs(corpus):
    """One distributed run plus one centralized verdict per corpus instance;
    the accumulated wall time of exactly those two calls feeds criterion 1."""
    rows = []
    elapsed = 0.0
    for seed, sysm in corpus:
        t0 = time.perf_counter()
        res = run(sysm, controlled)
        verdict = verify(*assemble_global(sysm))
        elapsed += time.perf_counter() - t0
        rows.append((seed, sysm, res, verdict))
    return rows, elapsed


def test_criterion_01_distributed_matches_centralized(corpus_runs, report):
    rows, elapsed = corpus_runs
    mismatches = [
        seed
        for seed, _, res, verdict in rows
        if {out["ctld"] for out in res.outputs.values()} != {verdict.controllable}
    ]
    frac = sum(1 for _, _, _, v in rows if v.controllable) / len(rows)
    ok = not mismatches and elapsed < 60.0 and 0.20 <= frac <= 0.45
    report(
        1,
        ok,
        f"1000 instances, {len(mismatches)} verdict mismatches, "
        f"{frac:.1%} controllable, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_02_reachability_restriction_and_fixpoint(corpus, report):
    bad_restriction = []
    bad_fixpoint = []
    for seed, sysm in corpus:
        global_reach = reached_states(*assemble_global(sysm))
        res = run(sysm, reached_program(extra_iterations=2))
        for i in range(sysm.r):
            out = res.outputs[i]
            expected = sorted(
                k
                for k in range(sysm.subsystem(i).n)
                if sysm.state_offset(i) + k in global_reach
            )
            if out["reached"] != expected:
                bad_restriction.append(seed)
            n_base = out["N"]
            sizes = out["sizes_by_iteration"]
            if sizes[n_base:] != [sizes[n_base - 1]] * 2:
                bad_fixpoint.append(seed)
    ok = not bad_restriction and not bad_fixpoint
    report(
        2,
        ok,
        f"1000 instances: {len(set(bad_restriction))} restriction mismatches, "
        f"{len(set(bad_fixpoint))} fixpoint violations after N iterations",
    )


def test_criterion_03_serial_agents_sound_and_match_mirror(report):
    false_positives = []
    mirror_mismatches = []
    agent_true = 0
    for seed in range(500):
        rng = random.Random(seed * 101 + 3)
        r = rng.randint(2, 6)
        sysm = random_serial_system(r, (1, 4), (0, 2), density=0.35, seed=seed)
        res = run_seq_strt_ctl(sysm)
        verdicts = set(res.outputs.values())
        assert len(verdicts) == 1, seed
        agents_say = verdicts.pop()
        if agents_say != check_lemma4(sysm):
            mirror_mismatches.append(seed)
        if agents_say:
            agent_true += 1
            if not verify(*assemble_global(sysm)):
                false_positives.append(seed)
    ok = not false_positives and not mirror_mismatches and agent_true > 0
    report(
        3,
        ok,
        f"500 serial systems: {len(false_positives)} false positives, "
        f"{len(mirror_mismatches)} disagreements with the centralized mirror, "
        f"{agent_true} accepted",
    )


def test_criterion_04_similar_system_checks(thm2_witness, report):
    specs = []
    seed = 0
    while len(specs) < 199 and seed < 20000:
        spec = random_similar_spec((2, 5), (1, 6), (1, 2), density=0.35, seed=seed)
        pre = precondition_report(spec)
        if not pre["template_controllable"] and pre["template_right_perfect"]:
            specs.append(spec)
        seed += 1
    specs.append(thm2_witness)
    assert len(specs) == 200

    collapse_mismatches = 0
    cover_unsound = 0
    non_necessity_witnesses = 0
    for spec in specs:
        truth = verify(*assemble_global(expand(spec))).controllable
        c1 = check_via_collapse(spec)
        c2 = check_cycle_cover(spec)
        assert c1.status in ("true", "false") and c2.status in ("true", "false")
        if (c1.status == "true") != truth:
            collapse_mismatches += 1
        if c2.status == "true" and not truth:
            cover_unsound += 1
        if truth and c2.status == "false":
            non_necessity_witnesses += 1
    ok = collapse_mismatches == 0 and cover_unsound == 0 and non_necessity_witnesses >= 1
    report(
        4,
        ok,
        f"200 templates meeting both preconditions: {collapse_mismatches} collapse-check "
        f"mismatches, {cover_unsound} unsound cycle-cover acceptances, "
        f"{non_necessity_witnesses} controllable-but-rejected witnesses",
    )


def _random_bipartite(rng: random.Random, max_side: int) -> tuple[list[list[int]], int]:
    """(g, n): left vertices n.. feeding the rights 0..n-1."""
    n_left = rng.randint(1, max_side)
    n_right = rng.randint(1, max_side)
    density = rng.uniform(0.05, 0.5)
    edges = [
        (n_right + l, k)
        for l in range(n_left)
        for k in range(n_right)
        if rng.random() < density
    ]
    return digraph(n_right + n_left, edges), n_right


def test_criterion_05_preflow_value_equals_matching_size(report):
    flow_mismatches = 0
    oracle_mismatches = 0
    small = 0
    for seed in range(500):
        rng = random.Random(seed * 17 + 5)
        g, n = _random_bipartite(rng, 8 if seed < 250 else 50)
        size = len(matching_edges(max_matching(g, n)))
        b = bipartite(g, n)
        if max_preflow(build_unit_network(b)).value != size:
            flow_mismatches += 1
        if len(g) - n <= 8 and n <= 8:
            small += 1
            if size != matching_opt_bruteforce(b)[0]:
                oracle_mismatches += 1
    ok = flow_mismatches == 0 and oracle_mismatches == 0 and small >= 250
    report(
        5,
        ok,
        f"500 graphs (≤50+50): {flow_mismatches} flow/matching mismatches; "
        f"{small} small graphs (≤8+8) vs enumeration: {oracle_mismatches} mismatches",
    )


def test_criterion_06_sink_inflow_and_discharge_budget(corpus_runs, report):
    rows, _ = corpus_runs
    flow_mismatches = []
    over_budget = []
    worst = 0.0
    for seed, sysm, res, _ in rows:
        global_size = matching_size(*assemble_global(sysm))
        total_inflow = sum(out["sink_flow"] for out in res.outputs.values())
        if total_inflow != global_size:
            flow_mismatches.append(seed)
        beta = boundary_vertex_count(sysm)
        passes = max(out["passes"] for out in res.outputs.values())
        worst = max(worst, passes / beta**2)
        if passes > beta**2:
            over_budget.append(seed)
    ok = not flow_mismatches and not over_budget
    report(
        6,
        ok,
        f"1000 instances: {len(flow_mismatches)} sink-inflow/matching mismatches, "
        f"{len(over_budget)} runs over the β² pass budget "
        f"(worst observed passes/β² = {worst:.2f})",
    )


def test_criterion_07_four_subsystem_ring_walkthrough(ring4, report):
    gA, gB = assemble_global(ring4)
    single_input_controllable = ring4.p_total == 1 and controllable_bruteforce(gA, gB)

    res = run(ring4, controlled_program(drop_incoming_boundary=True, collect_states=True))
    two_passes = all(res.outputs[i]["passes"] == 2 for i in range(4))
    one_transfer_between = all(
        res.outputs[i]["transfers_by_pass"] == [1, 0] for i in range(4)
    )
    saturated_on_second = all(
        res.outputs[i]["sink_saturated_pass"] == 2 for i in range(4)
    )
    all_sink_edges = all(
        sum(1 for e in res.outputs[i]["states"][-1]["saturated"] if e[1] == "t") == 4
        for i in range(4)
    )
    reach_iterations = max(res.outputs[i]["reached_completed"] for i in range(4))

    ok = (
        single_input_controllable
        and two_passes
        and one_transfer_between
        and saturated_on_second
        and all_sink_edges
        and reach_iterations == 4
    )
    report(
        7,
        ok,
        "ring of 4: single-input controllable (oracle), sink saturated on pass 2 of 2 "
        f"with one boundary transfer between passes, reachability done in {reach_iterations} iterations",
    )


def test_criterion_08_min_weight_matching_matches_enumeration(report):
    mismatches = 0
    for seed in range(300):
        rng = random.Random(seed * 23 + 11)
        g, n = _random_bipartite(rng, 7)
        weights = {(l, r): rng.randint(0, 9) for l, heads in enumerate(g) for r in heads}
        m = matching_edges(min_weight_max_matching(g, n, weights))
        got = (len(m), sum(weights[e] for e in m))
        if got != matching_opt_bruteforce(bipartite(g, n), weights):
            mismatches += 1
    report(8, mismatches == 0, f"300 weighted graphs (≤7+7): {mismatches} mismatches vs enumeration")


def test_criterion_09_reruns_are_byte_identical(corpus, report):
    differing = []
    for seed, sysm in corpus[:50]:
        first = run(sysm, controlled)
        second = run(sysm, controlled)
        same = (
            first.trace.to_jsonl().encode() == second.trace.to_jsonl().encode()
            and first.outputs == second.outputs
            and first.rounds == second.rounds
        )
        if not same:
            differing.append(seed)
    report(9, not differing, f"50 instances rerun: {len(differing)} differed byte-for-byte")


def test_criterion_10_structural_verdict_vs_numeric_probe(report):
    disagreements = []
    checked = 0
    seed = 0
    while checked < 500:
        rng = random.Random(seed * 37 + 1)
        r = rng.randint(2, 4)
        sysm = random_system(r, (1, 6), (0, 2), density=0.35, seed=seed)
        seed += 1
        if sysm.n_total > 20:
            continue
        checked += 1
        gA, gB = assemble_global(sysm)
        structural = verify(gA, gB).controllable
        numeric = numeric_probe(gA, gB, seed=seed)
        if structural != numeric:
            disagreements.append((seed - 1, structural, numeric))
    agreement = 1 - len(disagreements) / 500
    for item in disagreements:
        report.line(f"  numeric-probe disagreement (seed, structural, numeric): {item}")
    report(
        10,
        agreement >= 0.99,
        f"500 instances (n ≤ 20): {agreement:.1%} agreement, "
        f"{len(disagreements)} disagreements logged",
    )


def test_criterion_11_large_instance_under_five_seconds(report):
    rng = random.Random(2000)
    n, p = 2000, 40
    a_pairs = {(row, col) for row in range(n) for col in rng.sample(range(n), 4)}
    b_pairs = {(rng.randrange(n), k) for k in range(p) for _ in range(3)}
    A = SparsityPattern(n, n, a_pairs)
    B = SparsityPattern(n, p, b_pairs)

    t0 = time.perf_counter()
    verdict = verify(A, B)
    elapsed = time.perf_counter() - t0
    report(
        11,
        elapsed < 5.0,
        f"n=2000, {len(a_pairs) / n:.1f} nonzeros/row: verify "
        f"({'controllable' if verdict else 'not controllable'}) in {elapsed:.2f}s (< 5s)",
    )
