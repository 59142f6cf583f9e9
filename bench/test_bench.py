"""Tests of the benchmark itself: python3 -m pytest bench"""

from __future__ import annotations

import pytest

import run  # puts the repository's src/ on the import path
import checks
import tracer as tracing
import workloads
from tracer import BUSY, END, NAME, PARENT, START


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    """Every workload at toy size, keyed by name."""
    return {
        name: make(7, str(tmp_path_factory.mktemp(name)), scale=0.05)
        for name, make in workloads.WORKLOADS.items()
    }


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_each_workload_at_toy_size_passes_every_check(toy, name):
    calls = toy[name]
    untraced = run.run_pass(calls)
    tr = tracing.Tracer()
    tr.install()
    try:
        traced = run.run_pass(calls, tr)
    finally:
        tr.uninstall()
    assert untraced.failures == [] and traced.failures == []
    assert untraced.attempted == traced.attempted == len(calls)
    assert untraced.exit_codes == traced.exit_codes
    layers = run.per_layer(untraced, [traced], tr.spans)
    assert set(layers) == set(run.PER_LAYER_UNITS)
    assert layers["cli.main.calls"]["value"] == len(calls)


def test_central_large_verdicts_follow_construction(toy):
    codes = [run._call(c.argv)[0] for c in toy["central-large"]]
    assert codes == [0, 1, 1]


def test_corpus_covers_every_mode(toy):
    modes = {c.mode for c in toy["corpus"]}
    assert modes == {"centralized", "distributed", "serial", "similar-thm1", "similar-thm2"}


def test_same_seed_same_inputs(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = workloads.dist_scale(3, str(tmp_path / "a"), scale=0.1)
    b = workloads.dist_scale(3, str(tmp_path / "b"), scale=0.1)
    assert len(a) == len(b) > 0
    for x, y in zip(a, b):
        assert open(x.path).read() == open(y.path).read()
        assert x.expect == y.expect


@pytest.mark.parametrize("payload, phase", [
    ({"0": [1, 2, 1], "3": [2, 4, 0]}, "gossip"),
    ([0, 2, 5], "reach"),
    ([], "reach"),
    ({"d": {"L1": 3}, "chg": 0}, "relabel"),
    ({"labels": {"R0": 2}, "offers": [[[0, 1, 2, 3], 1]]}, "barrier"),
    ({"accepts": []}, "barrier"),
    ({"1": [[0, 1, 2], [1]], "4": [[], []]}, "census"),
    (True, "consensus"),
    (False, "consensus"),
    ([[0, 1], [1, 1]], "other"),
    ({"x": 1}, "other"),
    ({"0": [1, 2]}, "other"),
    (3, "other"),
])
def test_phase_of_payload_shapes(payload, phase):
    assert checks.phase_of(payload) == phase


def test_phase_sums_equal_report_totals(toy):
    calls = [c for c in toy["corpus"] if c.mode == "distributed"]
    tr = tracing.Tracer()
    tr.install()
    try:
        traced = run.run_pass(calls, tr)
    finally:
        tr.uninstall()
    assert traced.failures == []
    assert sum(m for m, _ in traced.phases.values()) == traced.messages
    assert sum(b for _, b in traced.phases.values()) == traced.payload_bytes
    assert traced.phases["other"] == [0, 0]


def _span(name, start, end, parent, busy=None):
    return [name, start, end, parent, 0, busy]


def test_self_time_subtracts_direct_children_and_agent_busy_time():
    spans = [
        _span("cli.main", 0.0, 10.0, None),            # 0
        _span("model.parse", 0.5, 1.5, 0),             # 1
        _span("runtime.run", 2.0, 9.0, 0),             # 2
        _span("distributed.agent", 2.1, 8.9, 2, 3.0),  # 3: busy 3 of 6.8 s
        _span("graphkit.scc", 2.2, 2.7, 3),            # 4
        _span("distributed.agent", 2.3, 8.8, 2, 2.0),  # 5
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 1.0, 2.0, 2.5, 0.5, 2.0])
    out = tracing.summarize(spans)
    assert out["cli.self_s"] == pytest.approx(2.0)
    assert out["runtime.self_s"] == pytest.approx(2.0)
    assert out["distributed.agent_s"] == pytest.approx(5.0)
    assert out["distributed.self_s"] == pytest.approx(4.5)
    assert out["distributed.agent.calls"] == 2
    # Self times partition the root span.
    assert sum(out[f"{layer}.self_s"] for layer in tracing.LAYERS) == pytest.approx(10.0)


def test_agent_wrapper_times_steps_and_returns_the_value():
    tr = tracing.Tracer()

    def program(ctx):
        got = yield "send"
        return got * 2

    root = tr.open("runtime.run")
    gen = tr.wrap_program(program, "distributed.agent")(None)
    assert next(gen) == "send"
    with pytest.raises(StopIteration) as stop:
        gen.send(21)
    tr.close(root)
    assert stop.value.value == 42
    agent = tr.spans[1]
    assert agent[NAME] == "distributed.agent" and agent[PARENT] == 0
    assert 0 <= agent[BUSY] <= agent[END] - agent[START]


def test_install_and_uninstall_restore_every_name():
    import structctl.centralized as centralized
    import structctl.cli as cli

    before = (cli.run, cli.controlled_program, centralized.max_matching)
    tr = tracing.Tracer()
    tr.install()
    try:
        assert cli.run is not before[0] and cli.run.__wrapped__ is before[0]
    finally:
        tr.uninstall()
    assert (cli.run, cli.controlled_program, centralized.max_matching) == before


@pytest.mark.parametrize("mode, field", [
    ("centralized", "controllable"),
    ("distributed", "controllable"),
    ("similar-thm1", "precondition"),
])
def test_cross_check_flags_an_injected_wrong_expectation(toy, mode, field):
    call = next(c for c in toy["corpus"] if c.mode == mode and c.expect.get(field) is not None)
    bad = workloads.Call(call.mode, call.path, {**call.expect, field: not call.expect[field]})
    assert run.run_pass([call]).failures == []
    failures = run.run_pass([bad]).failures
    assert len(failures) == 1 and call.path in failures[0]


def test_cross_check_flags_a_wrong_certificate_type(toy):
    call = toy["central-large"][0]
    bad = workloads.Call(call.mode, call.path, {**call.expect, "certificate": "input-cacti"})
    failures = run.run_pass([bad]).failures
    assert len(failures) == 1 and "certificate reach-and-match" in failures[0]


def test_serial_holds_against_a_not_controllable_truth_is_flagged():
    report = {"holds": True, "agent_verdicts": {"0": True, "1": True}}
    assert checks.cross_check("serial", 0, report, {"controllable": True}) == []
    assert checks.cross_check("serial", 0, report, {"controllable": False}) != []


def test_exit_2_where_a_verdict_was_expected_is_a_failure():
    assert checks.cross_check("centralized", 2, {"error": "x"}, {}) != []
    assert checks.cross_check("similar-thm2", 2, {"error": "x"}, {"precondition": False}) == []
    assert checks.cross_check("similar-thm2", 2, {"error": "x"}, {"precondition": True}) != []


def test_benchmark_json_names_the_metrics_the_run_reports():
    import json

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_each_call_is_normalized_by_the_bursts_around_it():
    p = run.Pass()
    p.bursts = [run.hostspeed.QUIET_S, 3 * run.hostspeed.QUIET_S, run.hostspeed.QUIET_S]
    p.latencies = [2.0, 4.0, 1.0]
    p.bracket = [0, 0, 1]
    assert p.normalized() == pytest.approx([1.0, 2.0, 0.5])
