"""Command-line contract: exit codes, JSON reports, file handling."""

from __future__ import annotations

import gc
import json
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import build_system, pat
from structctl import cli, distributed, model, serial
from structctl.centralized import (
    IdCertificate,
    certify_digraph,
    numeric_probe,
    verify,
)
from structctl.cli import MODES, main
from structctl.distributed import controlled_program
from structctl.model import (
    SparsityPattern,
    assemble_global,
    dumps,
    indented_json,
    load,
    random_system,
    save,
    system_to_obj,
)
from structctl.runtime import Recv
from structctl.serial import is_serial
from structctl.similar import (
    SimilarSystemSpec,
    random_similar_spec,
    similar_dumps,
    similar_to_obj,
)


def run_python(*args):
    """Run ``python args`` in a fresh process that imports the package under
    test."""
    src = str(Path(distributed.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120,
    )


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
        assert out == (
            '{\n'
            '  "command": "verify",\n'
            '  "details": {\n'
            '    "offending_subsystems": [\n'
            '      0\n'
            '    ]\n'
            '  },\n'
            '  "error": "system is not serial (primal): offending subsystems [0]"\n'
            '}\n'
        )
        assert err == "error: system is not serial (primal): offending subsystems [0]\n"

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

    @pytest.mark.parametrize("mode", MODES)
    def test_undecodable_and_too_deep_files_are_input_errors(self, capsys, tmp_path, mode):
        not_utf8 = tmp_path / "latin1.json"
        not_utf8.write_bytes(b'{"subsystems": [], "connections": []} \xe9')
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000)
        for path, error in [
            (not_utf8, "not UTF-8 text: 'utf-8' codec can't decode byte 0xe9 in "
                       "position 38: unexpected end of data"),
            (deep, "invalid JSON: nested too deeply to decode"),
        ]:
            code, out, err = run_cli(capsys, "verify", "--mode", mode, "--input", str(path))
            assert code == 2
            assert report_of(out) == {"command": "verify", "error": f"{path}: {error}"}
            assert err == f"error: {path}: {error}\n"

    def test_malformed_system_names_the_field(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"subsystems": [{"id": 0, "n": 1, "p": 0, "A": [[5, 5]], "B": []}], "connections": []}')
        code, out, _ = run_cli(capsys, "verify", "--mode", "centralized", "--input", str(path))
        assert code == 2
        assert "A" in report_of(out)["error"]

    def test_files_past_the_vertex_limit_are_exit_2(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"subsystems": [
            {"id": 0, "n": model.MAX_VERTICES + 1, "p": 0, "A": [], "B": []}
        ], "connections": []}))
        for mode in ("centralized", "distributed", "serial"):
            code, out, err = run_cli(capsys, "verify", "--mode", mode, "--input", str(path))
            assert code == 2
            assert report_of(out)["error"] == (
                f"{path}: subsystems[0]: states plus inputs reach 10000001, "
                "above the limit of 10000000"
            )
            assert "Traceback" not in err
        path.write_text(json.dumps({"similar": {
            "r": model.MAX_VERTICES, "n": 1, "p": 1, "Aprime": [], "Bprime": [[0, 0]],
            "H": [[0, 0]], "E": [[0, 1]],
        }}))
        # the similar checks refuse the template before they allocate per copy
        for mode in ("centralized", "similar-thm1", "similar-thm2"):
            code, out, _ = run_cli(capsys, "verify", "--mode", mode, "--input", str(path))
            assert code == 2
            assert report_of(out)["error"] == (
                f"{path}: similar spec: 10000000 copies of 2 states plus inputs "
                "are above the limit of 10000000"
            )

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

    def test_numeric_probe_on_a_looped_chain_is_full_rank(self, capsys, tmp_path):
        chain = {(k + 1, k) for k in range(63)} | {(k, k) for k in range(64)}
        path = tmp_path / "chain.json"
        save(build_system([(64, 1, chain, {(0, 0)})], []), path)
        code, out, _ = run_cli(
            capsys, "verify", "--mode", "centralized", "--input", str(path),
            "--seed", "9",
        )
        assert code == 0
        assert report_of(out)["numeric_probe"] == {"seed": 9, "full_rank": True}

    def test_runs_without_numpy(self, ring_file):
        # a None entry in sys.modules makes every import of numpy fail
        script = (
            "import sys; sys.modules['numpy'] = None\n"
            "from structctl.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        proc = run_python(
            "-c", script, "verify", "--mode", "centralized", "--input", ring_file,
            "--seed", "9",
        )
        assert proc.returncode == 0, proc.stderr
        assert report_of(proc.stdout)["numeric_probe"]["full_rank"] is True

    def test_negative_seed_is_exit_2(self, capsys, ring_file):
        for mode in ("centralized", "distributed"):
            code, out, err = run_cli(
                capsys, "verify", "--mode", mode, "--input", ring_file, "--seed", "-1",
            )
            assert code == 2
            assert report_of(out)["error"] == "--seed must be a non-negative integer, got -1"
            assert "Traceback" not in err

    @pytest.mark.parametrize(
        "mode", ["distributed", "serial", "similar-thm1", "similar-thm2"]
    )
    def test_seed_needs_centralized(self, capsys, ring_file, mode):
        # only the centralized numeric probe reads a seed
        code, out, err = run_cli(
            capsys, "verify", "--mode", mode, "--input", ring_file, "--seed", "3",
        )
        assert code == 2
        assert report_of(out)["error"] == "--seed only applies to --mode centralized"
        assert "Traceback" not in err

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


class TestCentralizedGraph:
    """Centralized mode builds its graph from the blocks; only the numeric
    probe assembles global patterns."""

    @staticmethod
    def expected_report(path, sysm, seed=None) -> str:
        """The report text, computed from the assembled patterns."""
        A, B = assemble_global(sysm)
        verdict = verify(A, B)
        report = {"command": "verify", "mode": "centralized", "input": path}
        if seed is not None:
            report["seed"] = seed
        report.update({
            "controllable": verdict.controllable,
            "certificate": verdict.certificate,
            "subsystems": sysm.r,
            "states": A.rows,
            "inputs": B.cols,
        })
        if seed is not None:
            report["numeric_probe"] = {"seed": seed, "full_rank": numeric_probe(A, B, seed)}
        report["verdict"] = verdict.controllable
        return indented_json(report) + "\n"

    @pytest.mark.parametrize("probe", [False, True])
    @pytest.mark.parametrize("seed", range(12))
    def test_only_the_probe_assembles(self, capsys, monkeypatch, tmp_path, seed, probe):
        built = []

        def counted(sysm):
            if not probe:
                pytest.fail("assemble_global called without --seed")
            built.append(sysm)
            return assemble_global(sysm)

        monkeypatch.setattr("structctl.cli.assemble_global", counted)
        sysm = random_system(1 + seed % 6, (1, 8), (0, 2), 0.3, seed=seed)
        assert sysm.n_total <= 64
        path = str(tmp_path / "g.json")
        save(sysm, path)
        argv = ["verify", "--mode", "centralized", "--input", path]
        code, out, _ = run_cli(capsys, *argv, *(["--seed", str(seed)] if probe else []))
        assert code in (0, 1)
        assert len(built) == probe
        assert out == self.expected_report(path, sysm, seed if probe else None)

    def test_no_global_patterns_past_the_probe_limit(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(
            "structctl.cli.assemble_global",
            lambda sysm: pytest.fail("assemble_global called past the probe limit"),
        )
        path = tmp_path / "big.json"
        save(build_system([(70, 1, {(k + 1, k) for k in range(69)}, {(0, 0)})], []), path)
        code, out, _ = run_cli(
            capsys, "verify", "--mode", "centralized", "--input", str(path), "--seed", "9",
        )
        assert code == 0
        assert "skipped" in report_of(out)["numeric_probe"]

    @pytest.mark.parametrize("argv", [[], ["--seed", "3"]])
    @pytest.mark.parametrize("kind", ["general", "similar"])
    def test_the_decoded_file_is_released_before_the_checks(
        self, capsys, monkeypatch, tmp_path, kind, argv
    ):
        # Weak references to the decoded file and to one of its blocks must be
        # dead by the time certify_digraph runs, with the collector paused; a
        # system file builds patterns only for the probe.
        class Decoded(dict):
            pass

        class Block(list):
            pass

        load = cli._load_json
        refs, alive = [], []

        def tracked(path):
            obj = Decoded(load(path))
            body = obj["similar"] if kind == "similar" else obj["subsystems"][0]
            key = "Aprime" if kind == "similar" else "A"
            body[key] = Block(body[key])
            refs.extend([weakref.ref(obj), weakref.ref(body[key])])
            return obj

        def checked(graph, n):
            alive.append([ref() for ref in refs])
            return certify_digraph(graph, n)

        path = tmp_path / "g.json"
        if kind == "similar":
            path.write_text(similar_dumps(random_similar_spec((3, 3), (2, 4), (1, 1), 0.4, seed=2)))
        else:
            save(random_system(3, (2, 6), (0, 2), 0.3, seed=4), path)
        patterns = []
        check_pattern = SparsityPattern.__post_init__
        monkeypatch.setattr(SparsityPattern, "__post_init__",
                            lambda pat: patterns.append(check_pattern(pat)))
        monkeypatch.setattr(cli, "_load_json", tracked)
        monkeypatch.setattr(cli, "certify_digraph", checked)
        code, out, _ = run_cli(
            capsys, "verify", "--mode", "centralized", "--input", str(path), *argv
        )
        assert code in (0, 1) and len(refs) == 2 and alive == [[None, None]]
        if argv:
            assert "full_rank" in report_of(out)["numeric_probe"]
        assert bool(patterns) == (kind == "similar" or bool(argv))

    @pytest.mark.parametrize("seed", range(6))
    def test_repeated_pairs_give_the_same_report(self, capsys, tmp_path, seed):
        sysm = random_system(2 + seed % 4, (1, 8), (0, 2), 0.3, seed=seed)
        obj = system_to_obj(sysm)
        path = tmp_path / "g.json"
        path.write_text(json.dumps(obj))
        once = run_cli(capsys, "verify", "--mode", "centralized", "--input", str(path))
        for sub in obj["subsystems"]:
            sub["A"] = sub["A"] + sub["A"]
            sub["B"] = sub["B"][::-1] + sub["B"]
        for conn in obj["connections"]:
            conn["E"] = conn["E"] * 2
        path.write_text(json.dumps(obj))
        twice = run_cli(capsys, "verify", "--mode", "centralized", "--input", str(path))
        assert once == twice


def _deadlocking(ctx):
    yield Recv(ctx.neighbors[0])


def _unencodable(ctx):
    ctx.send(ctx.neighbors[0], {1, 2})
    yield Recv(ctx.neighbors[0])


def _circular(ctx):
    payload = []
    payload.append(payload)
    ctx.send(ctx.neighbors[0], payload)
    yield Recv(ctx.neighbors[0])


def _value_error(ctx):
    # a fault in an agent's own step, not the topology gate's refusal
    min([])
    yield Recv(ctx.neighbors[0])


class TestParserReuse:
    """``main`` builds its parser once per process and reuses it."""

    def test_import_builds_no_parser(self):
        script = (
            "import structctl.cli as cli\n"
            "print(cli._build_parser.cache_info().misses)\n"
        )
        proc = run_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\n"

    def test_calls_in_one_process_match_separate_processes(self, capsys, ring_file):
        calls = [
            ["verify", "--mode", "centralized", "--input", ring_file, "--seed", "3"],
            ["verify", "--mode", "centralized", "--input", ring_file],
            ["verify", "--mode", "distributed", "--input", ring_file, "--fig5-simplify"],
            ["verify", "--mode", "psychic", "--input", ring_file],
            ["verify", "--mode", "distributed", "--input", ring_file],
        ]
        in_process = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            in_process.append((code, captured.out, captured.err))
        procs = [run_python("-m", "structctl.cli", *argv) for argv in calls]
        separate = [(proc.returncode, proc.stdout, proc.stderr) for proc in procs]
        assert in_process == separate
        assert [code for code, _, _ in in_process] == [0, 0, 0, 2, 0]
        assert "numeric_probe" not in report_of(in_process[1][1])
        assert report_of(in_process[4][1])["fig5_simplify"] is False


class TestArgvDispatch:
    """A call that opens with a command is parsed by that command's parser
    alone, with the outcome the top-level parser gives."""

    TABLE = [
        ["verify", "--mode", "centralized", "--input", "{ring}", "--seed", "3"],
        ["verify", "--mode", "distributed", "--input", "{ring}", "--trace", "{tmp}/t.jsonl"],
        ["verify", "--mode", "serial", "--input", "{ring}"],
        ["verify", "--mode", "similar-thm1", "--input", "{witness}"],
        ["verify", "--input", "{witness}", "--mode=similar-thm2"],
        ["gen", "--general", "--r", "3", "--seed", "1", "--out", "{tmp}/g.json"],
        ["trace", "--input", "{tmp}/t.jsonl", "--round", "1", "--agent", "2"],
        ["-h"],
        ["verify", "-h"],
        ["gen", "-h"],
        ["trace", "--help"],
        [],
        ["frob", "--mode", "centralized"],
        ["verify", "--input", "{ring}"],
        ["verify", "--mode", "psychic", "--input", "{ring}"],
        ["verify", "--mode", "centralized", "--input", "{ring}", "--bogus", "x"],
        ["verify", "--mode", "centralized", "--input", "{ring}", "extra"],
        ["verify", "--mode", "centralized", "--input", "{ring}", "--seed", "x"],
        ["--input", "{ring}", "verify"],
    ]

    @staticmethod
    def outcome(capsys, call, argv):
        try:
            result = call(argv)
        except SystemExit as exc:
            result = ("exit", exc.code)
        captured = capsys.readouterr()
        return result, captured.out, captured.err

    @pytest.mark.parametrize("argv", TABLE, ids=[" ".join(a) or "empty" for a in TABLE])
    def test_same_outcome_as_the_top_level_parser(
        self, capsys, monkeypatch, tmp_path, ring_file, witness_file, argv
    ):
        argv = [a.format(ring=ring_file, witness=witness_file, tmp=tmp_path) for a in argv]
        # a trace for the trace call to read
        main(["verify", "--mode", "distributed", "--input", ring_file,
              "--trace", str(tmp_path / "t.jsonl")])
        capsys.readouterr()
        top_level = cli._build_parser()[0].parse_args
        assert self.outcome(capsys, cli._parse_argv, argv) == self.outcome(capsys, top_level, argv)
        ran = self.outcome(capsys, main, argv)
        written = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())
        monkeypatch.setattr(cli, "_parse_argv", top_level)
        assert self.outcome(capsys, main, argv) == ran
        assert sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir()) == written


class TestInternalErrors:
    """A fault inside a run is exit 2 with the error report, never a verdict."""

    @pytest.mark.parametrize(
        "program, error",
        [
            (_deadlocking, "DeadlockError: no message in flight can unblock"),
            (_unencodable, "ProtocolError: agent 0 -> 1: payload value"),
            (_circular, "RecursionError"),
            (_value_error, "ValueError: min() arg is an empty sequence"),
        ],
        ids=["deadlock", "protocol", "circular", "value-error"],
    )
    def test_runtime_faults_exit_2(self, capsys, monkeypatch, ring_file, program, error):
        monkeypatch.setattr("structctl.cli.controlled_program", lambda **_: program)
        code, out, err = run_cli(capsys, "verify", "--mode", "distributed", "--input", ring_file)
        assert code == 2
        assert report_of(out)["error"].startswith(f"internal error: {error}")
        assert "Traceback" in err

    def test_unsettled_discharge_exits_2(self, capsys, monkeypatch, ring_file):
        def always_mobile(ctx, tree, region, cap):
            return True
            yield  # pragma: no cover

        monkeypatch.setattr("structctl.distributed._census", always_mobile)
        code, out, _ = run_cli(capsys, "verify", "--mode", "distributed", "--input", ring_file)
        assert code == 2
        # whichever agent reaches the pass bound first reports it
        assert re.fullmatch(
            r"internal error: RuntimeError: agent \d+: discharge failed to settle",
            report_of(out)["error"],
        )

    def test_distributed_report_is_the_same_under_python_O(self, capsys, ring_file):
        # -O strips asserts; the preflow's invariant checks are raises, so an
        # optimized interpreter runs the same checks and prints the same report.
        code, out, _ = run_cli(capsys, "verify", "--mode", "distributed", "--input", ring_file)
        proc = run_python(
            "-O", "-m", "structctl.cli", "verify", "--mode", "distributed",
            "--input", ring_file,
        )
        assert proc.returncode == code == 0
        assert report_of(proc.stdout) == report_of(out)

    def test_split_distributed_verdict_exits_2(self, capsys, monkeypatch, ring_file):
        real = distributed.tree_aggregate

        def split(ctx, tree, value, merge, keyed=False):
            # the consensus is the one aggregate of bools whose merge is an AND
            got = yield from real(ctx, tree, value, merge, keyed)
            final = not keyed and isinstance(value, bool) and not merge(True, [False])
            return not got if final and not ctx.id else got

        monkeypatch.setattr("structctl.distributed.tree_aggregate", split)
        code, out, _ = run_cli(capsys, "verify", "--mode", "distributed", "--input", ring_file)
        assert code == 2
        assert report_of(out)["error"] == (
            "internal error: RuntimeError: agents disagree on the verdict: "
            "{'0': False, '1': True, '2': True, '3': True}"
        )

    def test_split_serial_verdict_exits_2(self, capsys, monkeypatch, tmp_path, serial_pair):
        real = serial.tree_aggregate

        def split(ctx, tree, value, merge):
            got = yield from real(ctx, tree, value, merge)
            return not got if not ctx.id else got  # agent 0 sees the AND flipped

        monkeypatch.setattr("structctl.serial.tree_aggregate", split)
        path = tmp_path / "pair.json"
        save(serial_pair, path)
        code, out, _ = run_cli(capsys, "verify", "--mode", "serial", "--input", str(path))
        assert code == 2
        assert report_of(out)["error"] == (
            "internal error: RuntimeError: agents disagree on the verdict: "
            "{'0': False, '1': True}"
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
            assert is_serial(load(path)).is_serial

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
        # a reversed range, and state counts below 1 (which the generators
        # would reject with a traceback)
        for kind, n in (("--general", "5:2"), ("--general", "0"), ("--serial", "0:2")):
            code, out, err = run_cli(
                capsys, "gen", "--r", "2", "--n", n, "--p", "1",
                "--density", "0.5", kind, "--seed", "1",
                "--out", str(tmp_path / "x.json"),
            )
            assert code == 2, n
            assert report_of(out)["error"].startswith("--n"), n
            assert "Traceback" not in err

    def test_negative_seed_is_exit_2(self, capsys, tmp_path):
        # random.Random would seed from the absolute value, so -5 would
        # quietly write the file of 5
        for kind in ("--general", "--serial", "--similar"):
            path = tmp_path / "x.json"
            code, out, err = run_cli(
                capsys, "gen", "--r", "2", "--n", "1:2", "--p", "1",
                "--density", "0.4", kind, "--seed", "-5", "--out", str(path),
            )
            assert code == 2, kind
            assert report_of(out)["error"] == "--seed must be a non-negative integer, got -5"
            assert "Traceback" not in err
            assert not path.exists()

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

    def test_undecodable_and_too_deep_traces_are_input_errors(self, capsys, tmp_path):
        not_utf8 = tmp_path / "latin1.jsonl"
        not_utf8.write_bytes(b'{"round": 1, "from": 0, "to": 1, "payload": "\xe9"}\n')
        deep = tmp_path / "deep.jsonl"
        deep.write_text('{"pass": 0, "agent": 1}\n' + "[" * 100000 + "\n")
        for path, error in [
            (not_utf8, f"{not_utf8}: not UTF-8 text: 'utf-8' codec can't decode byte "
                       "0xe9 in position 45: invalid continuation byte"),
            (deep, f"{deep}:2: invalid JSON: nested too deeply to decode"),
        ]:
            code, out, err = run_cli(capsys, "trace", "--input", str(path))
            assert code == 2
            assert report_of(out) == {"command": "trace", "error": error}
            assert err == f"error: {error}\n"

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


def _json_reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


# Strings holding what a writer that edits text instead of values could
# confuse with structure: brackets, separators, quotes, escapes and NUL.
_TRICKY_TEXT = st.text(st.sampled_from('[],"\x00\\ax\né\U0001f600'), max_size=4)
_LEAVES = st.one_of(_TRICKY_TEXT, st.integers(-(2**70), 2**70))


def _uniform_trees(height: int):
    """Uniform list trees of the given height: non-empty lists all the way
    down, str and int leaves only at the bottom."""
    below = _LEAVES if height == 1 else _uniform_trees(height - 1)
    return st.lists(below, min_size=1, max_size=4)


_UNIFORM = st.integers(1, 4).flatmap(_uniform_trees)


@st.composite
def _near_misses(draw):
    """A uniform list tree of height 2 to 4 with one item swapped for one
    that is not a uniform list tree's: an empty list, a tuple, a dict, a
    true/null/float leaf, or an item one level deeper or shallower."""
    tree = draw(st.integers(2, 4).flatmap(_uniform_trees))
    node = tree
    while True:
        i = draw(st.integers(0, len(node) - 1))
        if type(node[i]) is not list or draw(st.booleans()):
            break
        node = node[i]
    item = node[i]
    if type(item) is list:
        swaps = [[], tuple(item), {"k": item}, [item], item[0], True]
    else:
        swaps = [[], (item,), {"k": item}, [item], True, None, 0.5, float("nan")]
    node[i] = draw(st.sampled_from(swaps))
    return tree


_ANY_JSON = st.recursive(
    st.one_of(_LEAVES, st.booleans(), st.none(), st.floats()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_TRICKY_TEXT, inner, max_size=3),
    ),
    max_leaves=12,
)


def _patterns(rows: int, cols: int, min_size: int = 0, diagonal: bool = True):
    cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    if not diagonal:
        cells = cells.filter(lambda rc: rc[0] != rc[1])
    if not rows * cols or (not diagonal and rows == 1):
        return st.just(pat(rows, cols, ()))
    return st.frozensets(cells, min_size=min_size, max_size=8).map(
        lambda nz: pat(rows, cols, nz))


@st.composite
def _systems(draw):
    """Systems of 1 to 4 subsystems, some input-free or with empty blocks."""
    r = draw(st.integers(1, 4))
    ns = [draw(st.integers(1, 4)) for _ in range(r)]
    subs = []
    for n in ns:
        p = draw(st.integers(0, 2))
        subs.append((n, p, draw(_patterns(n, n)).nonzeros, draw(_patterns(n, p)).nonzeros))
    links = [(t, f) for t in range(r) for f in range(r) if t != f]
    chosen = draw(st.lists(st.sampled_from(links), unique=True)) if links else []
    return build_system(
        subs, [(t, f, draw(_patterns(ns[t], ns[f], 1)).nonzeros) for t, f in chosen])


@st.composite
def _similar_specs(draw):
    r, n, p = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(0, 2))
    return SimilarSystemSpec(
        r, n, p, draw(_patterns(n, n)), draw(_patterns(n, p)), draw(_patterns(n, n)),
        draw(_patterns(r, r, diagonal=False)),
    )


class TestReportWriter:
    """``indented_json`` writes exactly what ``json.dumps(obj, indent=2,
    sort_keys=True)`` writes, on every report the CLI prints."""

    @staticmethod
    def printed(capsys, monkeypatch, calls):
        """Run ``calls`` in process; return each printed object, the exit
        codes and the whole stdout.  A centralized report reaches the writer
        with its certificate in graph ids; the object returned for it holds
        the certificate that ``certify_digraph(graph, n).as_dict()``
        materializes from the same graph."""
        seen, materialized = [], []
        certify = cli.certify_digraph

        def certifying(graph, n):
            materialized.append(certify_digraph(graph, n).as_dict())
            return certify(graph, n)

        def recording(obj):
            text = indented_json(obj)
            if "certificate" in obj:
                assert type(obj["certificate"]) is IdCertificate
                obj = {**obj, "certificate": materialized.pop(0)}
            seen.append(obj)
            return text

        monkeypatch.setattr(cli, "certify_digraph", certifying)
        monkeypatch.setattr(cli, "indented_json", recording)
        codes = [main(argv) for argv in calls]
        assert not materialized
        return seen, codes, capsys.readouterr().out

    def test_reports_of_every_mode(self, capsys, monkeypatch, tmp_path):
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
        import workloads

        calls = workloads.corpus(3, str(tmp_path), scale=0.02)
        assert {call.mode for call in calls} == set(MODES)
        seen, codes, out = self.printed(capsys, monkeypatch, [c.argv for c in calls])
        assert len(seen) == len(calls) and set(codes) <= {0, 1, 2}
        assert out == "".join(_json_reference(obj) + "\n" for obj in seen)

    def test_error_reports(self, capsys, monkeypatch, tmp_path, ring_file):
        path = tmp_path / "fan.json"  # subsystem 0 feeds two others: not serial
        fan = build_system([(1, 1, set(), {(0, 0)})] * 3, [(1, 0, {(0, 0)}), (2, 0, {(0, 0)})])
        save(fan, path)
        odd = tmp_path / 'dir/ü"x\n.json'
        calls = [
            ["verify", "--mode", "serial", "--input", str(path)],  # with details
            ["verify", "--mode", "centralized", "--input", str(odd)],  # without
            ["verify", "--mode", "distributed", "--input", ring_file],  # internal error
        ]
        monkeypatch.setattr("structctl.cli.controlled_program", lambda **_: _value_error)
        seen, codes, out = self.printed(capsys, monkeypatch, calls)
        assert codes == [2, 2, 2]
        assert [sorted(obj) for obj in seen] == [
            ["command", "details", "error"], ["command", "error"], ["command", "error"],
        ]
        assert out == "".join(_json_reference(obj) + "\n" for obj in seen)

    def test_large_certificate(self):
        n = 45_000  # a chain fed at its head: 90,000 certificate entries
        A = SparsityPattern(n, n, frozenset((k + 1, k) for k in range(n - 1)))
        cert = verify(A, SparsityPattern(n, 1, frozenset({(0, 0)}))).certificate
        assert cert["type"] == "reach-and-match"
        assert len(cert["matching"]) + len(cert["reach_forest"]) == 90_000
        assert indented_json(cert) == _json_reference(cert)

    @pytest.mark.parametrize(
        "obj",
        [
            [], {}, [[]], {"a": {}}, [{}, [[], {}]], {"a": [], "b": [{}]},
            [True, False, None, 1, 0], {"t": True, "f": False, "n": None, "one": 1},
            [-7, 0, 2**70, -(2**70)], [1.5, -0.0, 1e300, float("inf"), float("nan")],
            {2: "b", 10: "a", 1: [1]}, {True: 1}, {None: 0}, {1.5: "x"},
            ["dir/ü\"x\n.json", "back\\slash", "tab\tbell\x07", " \U0001f600", ""],
            {"dir/ü\"x\n.json": "\x00", "\\": ["\"", "é"]},
            (1, ("a", [2])), {"k": (True, None)},
            {"b": [[["x", 1], ["u", 0]]], "a": {"c": [["x", -1]], "d": "e"}},
            [["x", 0], ["u", 1]],  # rights, neighbors
            [[["x", 0], ["u", 1]], [["x", 1], ["x", 0]]],  # matching, reach_forest
            [[",", '"', "\x00", "\\", ',\x00"\\', "é\n"]], [[[[-(2**70)]]]],
        ],
    )
    def test_hand_cases(self, obj):
        assert indented_json(obj) == _json_reference(obj)

    @pytest.mark.parametrize("key", ["k", 2, 1.5, float("nan"), True, False, None, (1, 2), b"k"])
    def test_dict_keys_as_json_writes_or_rejects_them(self, key):
        try:
            want = _json_reference({key: 0})
        except TypeError as exc:
            with pytest.raises(TypeError) as got:
                indented_json({key: 0})
            assert str(got.value) == str(exc)
            assert str(exc).startswith("keys must be str, int, float, bool or None, not ")
        else:
            assert indented_json({key: 0}) == want
            assert indented_json({"a": [{key: [key]}]}) == _json_reference({"a": [{key: [key]}]})

    @settings(max_examples=300)
    @given(_UNIFORM)
    def test_uniform_list_trees(self, tree):
        """Uniform list trees, strings with brackets, separators and escapes
        included, are written as json writes them at any indentation."""
        assert indented_json(tree) == _json_reference(tree)
        nested = {"a": tree, "b": [tree, {"c": tree}]}
        assert indented_json(nested) == _json_reference(nested)

    @settings(max_examples=300)
    @given(st.one_of(_near_misses(), _ANY_JSON))
    def test_near_misses_and_random_trees(self, obj):
        assert indented_json(obj) == _json_reference(obj)
        assert indented_json({"k": [obj]}) == _json_reference({"k": [obj]})

    @pytest.mark.parametrize(
        "obj",
        [
            [["a[", 1]], [["]"]],  # a bracket inside a string
            [[1], []], [[[1], []]],  # an empty inner list
            [[1], 2], [[1], [[2]]], [[[1]], [2]],  # mixed heights
            [(1, 2)], [[1], (2,)], [[(1,)]],  # tuples at any level
            [[True]], [[None]], [[1.5]], [[1, False]],  # leaves neither str nor int
            [[{}]], [[{"a": 1}]], [[1], {"a": [1]}],  # a dict inside
        ],
    )
    def test_route_declines_near_misses(self, obj):
        """Hand-made near misses of a uniform list tree."""
        assert indented_json(obj) == _json_reference(obj)

    def test_self_containing_lists_raise(self):
        a = []
        a.append(a)
        b = [[1]]
        b.append(b)
        c = []
        c += [c, c]  # doubles at each level, so only a bounded walk ends
        d = [[["x", 0]], []]
        d[1].append(d)
        for obj in (a, b, c, d):
            with pytest.raises(RecursionError):
                indented_json(obj)

    def test_certificates_of_every_type(self, capsys, monkeypatch, tmp_path):
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
        import workloads

        calls = workloads.central_large(1, str(tmp_path), scale=0.02)
        seen, codes, out = self.printed(capsys, monkeypatch, [c.argv for c in calls])
        certs = {obj["certificate"]["type"]: obj["certificate"] for obj in seen}
        assert codes == [0, 1, 1]
        assert set(certs) == {"reach-and-match", "right-deficiency", "unreachable-closure"}
        assert out == "".join(_json_reference(obj) + "\n" for obj in seen)

    @given(_systems(), _similar_specs())
    @example(  # empty A, p = 0 with an empty B, one subsystem and no connections
        build_system([(2, 0, set(), set())], []),
        # r = 1 with an empty E, and a zero H
        SimilarSystemSpec(1, 2, 0, pat(2, 2, {(0, 1)}), pat(2, 0, ()), pat(2, 2, ()),
                          pat(1, 1, ())),
    )
    def test_generated_files(self, sysm, spec):
        assert dumps(sysm) == _json_reference(system_to_obj(sysm)) + "\n"
        assert similar_dumps(spec) == _json_reference(similar_to_obj(spec)) + "\n"


class TestCollector:
    """``main`` runs a command with the cyclic collector off and afterwards
    leaves it as the caller had it."""

    @pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
    def caller_gc(self, request):
        if not request.param:
            gc.disable()
        try:
            yield request.param
        finally:
            gc.enable()

    @pytest.mark.parametrize("case", ["exit-0", "exit-1", "cli-error", "internal-error"])
    def test_every_exit_restores_the_collector(
        self, capsys, monkeypatch, ring_file, dead_file, caller_gc, case
    ):
        during = []

        def watching(**kwargs):
            during.append(gc.isenabled())
            return _value_error if case == "internal-error" else controlled_program(**kwargs)

        monkeypatch.setattr("structctl.cli.controlled_program", watching)
        path = {"exit-0": ring_file, "exit-1": dead_file,
                "cli-error": "/no/such.json", "internal-error": ring_file}[case]
        code, _, _ = run_cli(capsys, "verify", "--mode", "distributed", "--input", path)
        assert code == {"exit-0": 0, "exit-1": 1, "cli-error": 2, "internal-error": 2}[case]
        assert during == ([] if case == "cli-error" else [False])
        assert gc.isenabled() is caller_gc

    def test_parser_exit_restores_the_collector(self, capsys, caller_gc):
        with pytest.raises(SystemExit):
            main(["verify", "--mode", "psychic", "--input", "x.json"])
        capsys.readouterr()
        assert gc.isenabled() is caller_gc

    def test_closed_stdout_restores_the_collector(self, monkeypatch, dead_file, caller_gc):
        read_fd, write_fd = os.pipe()
        os.close(read_fd)
        writer = os.fdopen(write_fd, "w", buffering=1)
        monkeypatch.setattr(sys, "stdout", writer)
        try:
            # exit 0, not the verdict's 1: the closed pipe path returned
            assert main(["verify", "--mode", "centralized", "--input", dead_file]) == 0
        finally:
            writer.close()
        assert gc.isenabled() is caller_gc
