"""Command-line contract: exit codes, JSON reports, file handling."""

from __future__ import annotations

import json

import pytest

from conftest import build_system
from structctl.cli import main
from structctl.model import dumps, load, random_system, save
from structctl.runtime import Recv, Send
from structctl.serial import is_serial
from structctl.similar import similar_dumps


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_of(out: str) -> dict:
    return json.loads(out)


@pytest.fixture
def ring_file(tmp_path, ring4):
    path = tmp_path / "ring.json"
    save(ring4, path)
    return str(path)


@pytest.fixture
def witness_file(tmp_path, thm2_witness):
    path = tmp_path / "witness.json"
    path.write_text(similar_dumps(thm2_witness))
    return str(path)


@pytest.fixture
def dead_file(tmp_path):
    # no inputs anywhere: trivially not controllable
    sysm = build_system(
        [(2, 0, {(1, 0)}, set()), (2, 0, {(1, 0)}, set())],
        [(1, 0, {(0, 1)})],
    )
    path = tmp_path / "dead.json"
    save(sysm, path)
    return str(path)


class TestVerifyModes:
    def test_centralized_controllable(self, capsys, ring_file):
        code, out, err = run_cli(capsys, "verify", "--mode", "centralized", "--input", ring_file)
        assert code == 0
        rep = report_of(out)
        assert rep["verdict"] is True
        assert rep["certificate"]["type"] == "reach-and-match"
        assert "controllable" in err

    def test_zero_b_exits_1_with_witness(self, capsys, dead_file):
        for mode in ("centralized", "distributed"):
            code, out, _ = run_cli(capsys, "verify", "--mode", mode, "--input", dead_file)
            assert code == 1
            rep = report_of(out)
            assert rep["verdict"] is False
            if mode == "centralized":
                assert rep["certificate"]["type"] == "unreachable-closure"
                assert rep["certificate"]["states"] == [0, 1, 2, 3]
            else:
                assert rep["agents"]["0"]["reached"] == []

    def test_modes_agree_on_exit_codes(self, capsys, tmp_path):
        for seed in range(8):
            path = tmp_path / f"g{seed}.json"
            code_gen, _, _ = run_cli(
                capsys, "gen", "--r", "3", "--n", "1:4", "--p", "0:2",
                "--density", "0.35", "--general", "--seed", str(seed),
                "--out", str(path),
            )
            assert code_gen == 0
            codes = set()
            for mode in ("centralized", "distributed"):
                code, _, _ = run_cli(capsys, "verify", "--mode", mode, "--input", str(path))
                codes.add(code)
            assert len(codes) == 1, seed

    def test_distributed_report_shape(self, capsys, ring_file):
        code, out, _ = run_cli(
            capsys, "verify", "--mode", "distributed", "--input", ring_file,
            "--fig5-simplify",
        )
        assert code == 0
        rep = report_of(out)
        assert rep["reachability_iterations"] == 4
        assert rep["matching_size"] == 16
        assert rep["messages"]["count"] > 0
        assert all(rep["agent_verdicts"][str(i)] for i in range(4))
        assert all(rep["agents"][str(i)]["passes"] == 2 for i in range(4))

    @pytest.mark.parametrize("seed", [4, 7])
    def test_simplified_negative_is_inconclusive(self, capsys, tmp_path, seed):
        # controllable systems on which the simplified regions lose flow
        path = tmp_path / "g.json"
        save(random_system(2 + seed % 5, (1, 8), (1, 2), 0.3, seed=seed), path)
        code, _, _ = run_cli(capsys, "verify", "--mode", "centralized", "--input", str(path))
        assert code == 0
        code, out, _ = run_cli(
            capsys, "verify", "--mode", "distributed", "--input", str(path),
            "--fig5-simplify",
        )
        assert code == 2
        rep = report_of(out)
        assert "inconclusive" in rep["error"]
        assert rep["details"]["matching_size"] < rep["details"]["states"]

    def test_serial_holds(self, capsys, tmp_path, serial_pair):
        path = tmp_path / "pair.json"
        save(serial_pair, path)
        code, out, _ = run_cli(capsys, "verify", "--mode", "serial", "--input", str(path))
        assert code == 0
        rep = report_of(out)
        assert rep["holds"] is True
        assert rep["agent_verdicts"] == {"0": True, "1": True}

    def test_serial_on_non_serial_input_exits_2(self, capsys, tmp_path):
        fan = build_system(
            [(1, 1, set(), {(0, 0)})] * 3,
            [(1, 0, {(0, 0)}), (2, 0, {(0, 0)})],
        )
        path = tmp_path / "fan.json"
        save(fan, path)
        code, out, err = run_cli(capsys, "verify", "--mode", "serial", "--input", str(path))
        assert code == 2
        rep = report_of(out)
        assert rep["details"]["offending_subsystems"] == [0]
        assert "0" in err

    def test_similar_thm2_false_is_exit_1(self, capsys, witness_file):
        code, out, _ = run_cli(capsys, "verify", "--mode", "similar-thm2", "--input", witness_file)
        assert code == 1
        rep = report_of(out)
        assert rep["status"] == "false"
        assert rep["details"]["spanned_by_cycles"] is False

    def test_similar_thm1_true_on_witness(self, capsys, witness_file):
        code, out, _ = run_cli(capsys, "verify", "--mode", "similar-thm1", "--input", witness_file)
        assert code == 0
        assert report_of(out)["status"] == "true"

    def test_precondition_unmet_is_exit_2(self, capsys, tmp_path):
        obj = {"similar": {"r": 2, "n": 1, "p": 1, "Aprime": [], "Bprime": [[0, 0]],
                           "H": [[0, 0]], "E": [[1, 0]]}}
        path = tmp_path / "pre.json"
        path.write_text(json.dumps(obj))
        code, out, _ = run_cli(capsys, "verify", "--mode", "similar-thm1", "--input", str(path))
        assert code == 2
        rep = report_of(out)
        assert rep["details"]["template_controllable"] is True
        assert "verdict" not in rep

    def test_similar_file_expands_in_system_modes(self, capsys, witness_file):
        code, out, _ = run_cli(capsys, "verify", "--mode", "centralized", "--input", witness_file)
        assert code == 0
        assert report_of(out)["subsystems"] == 3

    def test_plain_file_refused_by_similar_modes(self, capsys, ring_file):
        code, out, _ = run_cli(capsys, "verify", "--mode", "similar-thm1", "--input", ring_file)
        assert code == 2
        assert "template file" in report_of(out)["error"]


class TestVerifyInputHandling:
    def test_missing_file(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--mode", "centralized", "--input", "/no/such.json")
        assert code == 2
        assert "error" in report_of(out)

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, out, _ = run_cli(capsys, "verify", "--mode", "centralized", "--input", str(path))
        assert code == 2
        assert "invalid JSON" in report_of(out)["error"]

    def test_malformed_system_names_the_field(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"subsystems": [{"id": 0, "n": 1, "p": 0, "A": [[5, 5]], "B": []}], "connections": []}')
        code, out, _ = run_cli(capsys, "verify", "--mode", "centralized", "--input", str(path))
        assert code == 2
        assert "A" in report_of(out)["error"]

    def test_fig5_flag_needs_distributed(self, capsys, ring_file):
        code, out, _ = run_cli(
            capsys, "verify", "--mode", "centralized", "--input", ring_file,
            "--fig5-simplify",
        )
        assert code == 2

    def test_trace_flag_needs_messages(self, capsys, ring_file):
        code, _, _ = run_cli(
            capsys, "verify", "--mode", "centralized", "--input", ring_file,
            "--trace", "/tmp/never.jsonl",
        )
        assert code == 2

    def test_seed_adds_numeric_probe(self, capsys, ring_file):
        code, out, _ = run_cli(
            capsys, "verify", "--mode", "centralized", "--input", ring_file,
            "--seed", "9",
        )
        assert code == 0
        rep = report_of(out)
        assert rep["numeric_probe"]["seed"] == 9
        assert rep["numeric_probe"]["full_rank"] is True

    def test_numeric_probe_skip_is_reported(self, capsys, tmp_path):
        chain = {(k + 1, k) for k in range(69)}
        path = tmp_path / "big.json"
        save(build_system([(70, 1, chain, {(0, 0)})], []), path)
        code, out, _ = run_cli(
            capsys, "verify", "--mode", "centralized", "--input", str(path),
            "--seed", "9",
        )
        assert code == 0
        assert report_of(out)["numeric_probe"] == {
            "seed": 9,
            "skipped": "70 states exceed the numeric probe's limit of 64",
        }

    def test_unknown_mode_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--mode", "psychic", "--input", "x.json"])
        assert exc.value.code == 2


def _deadlocking(ctx):
    yield Recv(ctx.neighbors[0])


def _unencodable(ctx):
    yield Send(ctx.neighbors[0], {1, 2})


class TestInternalErrors:
    """A fault inside a run is exit 2 with the error report, never a verdict."""

    @pytest.mark.parametrize(
        "program, error",
        [
            (_deadlocking, "DeadlockError: no message in flight can unblock"),
            (_unencodable, "ProtocolError: agent 0 -> 1: payload value"),
        ],
        ids=["deadlock", "protocol"],
    )
    def test_runtime_faults_exit_2(self, capsys, monkeypatch, ring_file, program, error):
        monkeypatch.setattr("structctl.cli.controlled_program", lambda **_: program)
        code, out, err = run_cli(capsys, "verify", "--mode", "distributed", "--input", ring_file)
        assert code == 2
        assert report_of(out)["error"].startswith(f"internal error: {error}")
        assert "Traceback" in err

    def test_unsettled_discharge_exits_2(self, capsys, monkeypatch, ring_file):
        def always_mobile(ctx, region, cap):
            return True
            yield  # pragma: no cover

        monkeypatch.setattr("structctl.distributed._census", always_mobile)
        code, out, _ = run_cli(capsys, "verify", "--mode", "distributed", "--input", ring_file)
        assert code == 2
        assert report_of(out)["error"] == (
            "internal error: RuntimeError: agent 0: discharge failed to settle"
        )


class TestGen:
    def test_deterministic_files(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run_cli(
                capsys, "gen", "--r", "4", "--n", "2:5", "--p", "1:2",
                "--density", "0.4", "--general", "--seed", "42", "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_serial_batch_is_serial(self, capsys, tmp_path):
        for seed in range(15):
            path = tmp_path / f"s{seed}.json"
            code, _, _ = run_cli(
                capsys, "gen", "--r", "5", "--n", "1:3", "--p", "0:2",
                "--density", "0.35", "--serial", "--seed", str(seed), "--out", str(path),
            )
            assert code == 0
            assert is_serial(load(path), "primal").is_serial

    def test_similar_kind_writes_template_file(self, capsys, tmp_path):
        path = tmp_path / "sim.json"
        code, out, _ = run_cli(
            capsys, "gen", "--r", "3", "--n", "1:3", "--p", "1:2",
            "--density", "0.4", "--similar", "--seed", "5", "--out", str(path),
        )
        assert code == 0
        assert "similar" in json.loads(path.read_text())
        assert report_of(out)["copies"] == 3

    def test_single_int_range(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        code, _, _ = run_cli(
            capsys, "gen", "--r", "2", "--n", "3", "--p", "1",
            "--density", "0.5", "--general", "--seed", "1", "--out", str(path),
        )
        assert code == 0
        assert all(s.n == 3 and s.p == 1 for s in load(path).subsystems)

    def test_bad_range_is_exit_2(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "gen", "--r", "2", "--n", "5:2", "--p", "1",
            "--density", "0.5", "--general", "--seed", "1",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "--n" in report_of(out)["error"]

    def test_bad_density_is_exit_2(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "gen", "--r", "2", "--n", "1:2", "--p", "1",
            "--density", "1.5", "--general", "--seed", "1",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2

    def test_kind_flags_are_exclusive(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--r", "2", "--n", "1:2", "--p", "1", "--density", "0.4",
                  "--general", "--serial", "--seed", "1", "--out", str(tmp_path / "x.json")])
        assert exc.value.code == 2


class TestTrace:
    def _write_trace(self, capsys, tmp_path, ring_file):
        trace_path = tmp_path / "run.jsonl"
        code, _, _ = run_cli(
            capsys, "verify", "--mode", "distributed", "--input", ring_file,
            "--trace", str(trace_path),
        )
        assert code == 0
        return trace_path

    def test_trace_file_mixes_messages_and_snapshots(self, capsys, tmp_path, ring_file):
        trace_path = self._write_trace(capsys, tmp_path, ring_file)
        lines = [json.loads(l) for l in trace_path.read_text().splitlines()]
        kinds = {("round" in rec, "pass" in rec) for rec in lines}
        assert (True, False) in kinds and (False, True) in kinds

    def test_round_filter(self, capsys, tmp_path, ring_file):
        trace_path = self._write_trace(capsys, tmp_path, ring_file)
        code, out, _ = run_cli(capsys, "trace", "--input", str(trace_path), "--round", "1")
        assert code == 0
        recs = [json.loads(l) for l in out.splitlines()]
        assert recs and all(rec["round"] == 1 for rec in recs)

    def test_agent_filter_keeps_messages_and_snapshots(self, capsys, tmp_path, ring_file):
        trace_path = self._write_trace(capsys, tmp_path, ring_file)
        code, out, _ = run_cli(capsys, "trace", "--input", str(trace_path), "--agent", "2")
        assert code == 0
        for rec in (json.loads(l) for l in out.splitlines()):
            if "round" in rec:
                assert 2 in (rec["from"], rec["to"])
            else:
                assert rec["agent"] == 2

    def test_replay_matches_library_trace(self, capsys, tmp_path, ring4, ring_file):
        from structctl.distributed import controlled_program
        from structctl.runtime import run

        trace_path = self._write_trace(capsys, tmp_path, ring_file)
        message_lines = [
            l for l in trace_path.read_text().splitlines() if '"round"' in l
        ]
        res = run(ring4, controlled_program(collect_states=True))
        assert message_lines == res.trace.to_jsonl().strip().splitlines()

    def test_empty_trace_round_filter_is_empty_success(self, capsys, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        code, out, err = run_cli(capsys, "trace", "--input", str(path), "--round", "0")
        assert code == 0
        assert out == ""
        assert "0 of 0" in err

    def test_malformed_trace_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"round": 1, "from": 0, "to": 1, "payload": null}\nnot json\n')
        code, out, _ = run_cli(capsys, "trace", "--input", str(path))
        assert code == 2
        assert ":2:" in report_of(out)["error"]

    def test_unrecognized_record_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "odd.jsonl"
        path.write_text('{"who": "knows"}\n')
        code, out, _ = run_cli(capsys, "trace", "--input", str(path))
        assert code == 2

    def test_closed_stdout_pipe_is_quiet(self, tmp_path, monkeypatch, ring4):
        import os
        import sys

        from structctl.distributed import controlled_program
        from structctl.runtime import run

        path = tmp_path / "run.jsonl"
        path.write_text(run(ring4, controlled_program()).trace.to_jsonl())

        read_fd, write_fd = os.pipe()
        os.close(read_fd)
        writer = os.fdopen(write_fd, "w", buffering=1)
        monkeypatch.setattr(sys, "stdout", writer)
        try:
            assert main(["trace", "--input", str(path)]) == 0
        finally:
            writer.close()
