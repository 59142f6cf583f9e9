"""Byte-for-byte pins of the centralized, distributed, serial and similar
outputs.

Each test hashes ``json.dumps(..., sort_keys=True)`` over the outputs of one
seeded corpus.  A refactor of the graph algorithms must leave every
certificate, per-subsystem verdict and check report unchanged, so a changed
digest means a changed output, not a changed format.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from oracles import verify_via_cacti
from structctl.centralized import verify
from structctl.cli import main
from structctl.distributed import controlled_program
from structctl.model import assemble_global, random_serial_system, random_system, system_to_obj
from structctl.runtime import run
from structctl.serial import check_lemma4_details, seq_strt_ctl
from structctl.similar import (
    check_cycle_cover,
    check_via_collapse,
    random_similar_spec,
    similar_dumps,
)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _centralized_verdicts() -> list:
    """``verify`` and ``verify_via_cacti`` on the 1000-instance corpus of
    acceptance criterion 1."""
    out = []
    for seed in range(1000):
        rng = random.Random(seed * 7919 + 13)
        sysm = random_system(rng.randint(2, 6), (1, 8), (1, 2), density=0.30, seed=seed)
        A, B = assemble_global(sysm)
        out += [verify(A, B), verify_via_cacti(A, B)]
    return out


def _fixed_parts(certificate: dict) -> dict:
    """A certificate without the parts that depend on which maximum matching
    was found: the matching and the cacti built on it.  What is left, a
    negative certificate whole or a positive one's type and reach forest, is
    the same for every maximum matching; for a right-deficiency witness that
    is the Dulmage–Mendelsohn decomposition."""
    return {k: v for k, v in certificate.items() if k not in ("matching", "cacti")}


def test_centralized_certificates():
    out = [[v.controllable, v.mode, v.certificate] for v in _centralized_verdicts()]
    assert _digest(out) == "c8928f75a5892b8b57ec72495f3cd002da44ec0bb0bf50dd65d317ca833e8313"


def test_distributed_outputs():
    # Verdicts, sink flows, pass statistics and per-pass snapshots of every
    # agent, with and without the incoming boundary; message schedules may
    # change, the outputs may not.
    programs = (
        controlled_program(collect_states=True),
        controlled_program(drop_incoming_boundary=True, collect_states=True),
    )
    out = []
    for seed in range(200):
        rng = random.Random(seed * 6007 + 29)
        sysm = random_system(
            rng.randint(2, 8), (1, 4), (0, 2), rng.uniform(0.1, 0.6), seed=9000 + seed
        )
        for program in programs:
            out.append(run(sysm, program).outputs)
    assert _digest(out) == "ef8382b4c544d044304fb9c6c84bbd38b845d759b4e6f4613f9808260c1cf134"


def test_distributed_outputs_at_scale():
    # The same outputs on the r = 10, 20 and 40 instances of the scale sweep,
    # where the protocol's rounds are many and its trees deep.
    programs = (
        controlled_program(collect_states=True),
        controlled_program(drop_incoming_boundary=True, collect_states=True),
    )
    out = []
    for r in (10, 20, 40):
        sysm = random_system(r, (1, 8), (1, 2), 0.3, seed=r)
        for program in programs:
            out.append(run(sysm, program).outputs)
    assert _digest(out) == "d0955e6fed0d7e2fdee9cc12735ba10d649e6002fdb096365d7115cb40d80ae4"


def test_distributed_traces():
    # Every message, in order, on the systems of the two tests above: a
    # refactor of the agents' local work must leave the protocol unchanged.
    programs = (
        controlled_program(collect_states=True),
        controlled_program(drop_incoming_boundary=True, collect_states=True),
    )
    systems = []
    for seed in range(200):
        rng = random.Random(seed * 6007 + 29)
        systems.append(random_system(
            rng.randint(2, 8), (1, 4), (0, 2), rng.uniform(0.1, 0.6), seed=9000 + seed
        ))
    systems += [random_system(r, (1, 8), (1, 2), 0.3, seed=r) for r in (10, 20, 40)]
    out = [run(sysm, program).trace.to_jsonl() for sysm in systems for program in programs]
    assert _digest(out) == "f6326625c3a6e7f87a99d67a9c59e09b7242ca683a807e09aa44a2219c508e76"


def test_serial_details():
    # Also pins ``unmatched_own``, the witness of the one optimal matching the
    # solver returns: a solver that picks another optimum moves this digest,
    # not the one of ``test_serial_verdicts``.
    out = [
        check_lemma4_details(random_serial_system(2 + k % 5, (1, 4), (0, 2), 0.35, seed=k))
        for k in range(300)
    ]
    assert _digest(out) == "6488171a5f5761bff61abf76894a64742b0c91505f35dd7f7a3ce0f008bb7f9a"


def test_serial_verdicts():
    # The verdict fields of the systems above, without which own rights stay
    # unmatched: several optimal matchings can leave different sets, so only
    # the set's size is fixed by the optimum.
    out = []
    for k in range(300):
        details = check_lemma4_details(
            random_serial_system(2 + k % 5, (1, 4), (0, 2), 0.35, seed=k)
        )
        out.append({
            i: [v["ctld"], v["mchd"], v["rchd"], v["stranded_states"], len(v["unmatched_own"])]
            for i, v in details.items()
        })
    assert _digest(out) == "c1b1db1b5110ade1bcccd776612d567ab4f15e48f0fbe70421a1d5830cdde179"


def test_serial_traces():
    # Every message and every agent's verdict of the serial agents on the
    # systems of the test above.
    out = []
    for k in range(300):
        res = run(random_serial_system(2 + k % 5, (1, 4), (0, 2), 0.35, seed=k), seq_strt_ctl)
        out.append([res.trace.to_jsonl(), res.outputs])
    assert _digest(out) == "beb98c62d4c9cb6f4a8da0d6e52be4f1cd7fbccd397991d35a32f1b515bd984d"


def test_similar_checks():
    out = []
    for k in range(300):
        spec = random_similar_spec((2, 5), (1, 6), (1, 2), 0.35, seed=k)
        for check in (check_via_collapse, check_cycle_cover):
            res = check(spec)
            out.append([res.status, res.details])
    assert _digest(out) == "58ed9563de2d360d2cd9a54cfad7e931c4d597bd1892d79c6da0ec0155d23bf0"


def _centralized_files() -> list[tuple[str, dict]]:
    """Seeded system files for ``test_cli_centralized_reports``, written to
    the working directory as (name, JSON object) pairs."""
    files = []
    for r in range(1, 9):
        for k in range(3):
            sysm = random_system(r, (1, 8), (0, 2), 0.3, seed=100 * r + k)
            files.append((f"general-{r}-{k}.json", system_to_obj(sysm)))
    for k in range(6):
        rng = random.Random(k)
        obj = system_to_obj(random_system(3 + k, (1, 6), (0, 2), 0.35, seed=700 + k))
        rng.shuffle(obj["subsystems"])
        rng.shuffle(obj["connections"])
        files.append((f"shuffled-{k}.json", obj))
    for k in range(6):
        rng = random.Random(50 + k)
        obj = system_to_obj(random_system(2 + k, (1, 6), (0, 2), 0.35, seed=800 + k))
        for block in [s["A"] for s in obj["subsystems"]] + [s["B"] for s in obj["subsystems"]] \
                + [c["E"] for c in obj["connections"]]:
            block.extend(rng.choices(block, k=len(block)) if block else [])
            rng.shuffle(block)
        files.append((f"repeated-{k}.json", obj))
    for k in range(4):
        spec = random_similar_spec((2, 5), (1, 6), (0, 2), 0.35, seed=900 + k)
        files.append((f"similar-{k}.json", json.loads(similar_dumps(spec))))
    # Malformed files: each ModelError text reaches stderr and the report.
    base = system_to_obj(random_system(3, (2, 4), (1, 2), 0.4, seed=5))
    for k, mutate in enumerate([
        lambda o: o["subsystems"][1]["A"].append([9, 0]),
        lambda o: o["subsystems"][0]["B"].append(["0", 0]),
        lambda o: o["subsystems"][1]["A"].insert(0, [1]),
        lambda o: o["subsystems"][1].update(A={"0": 1}),
        lambda o: o["subsystems"][2].update(n=-1),
        lambda o: o["subsystems"][0].pop("p"),
        lambda o: o["subsystems"][2].update(n=0),
        lambda o: o["subsystems"][0].update(id=7),
        lambda o: o["connections"][0]["E"].extend([[0, 99], [99, 0], [5, 5]]),
        lambda o: o["connections"].append(dict(o["connections"][0])),
        lambda o: o["connections"][0].update(E=[]),
        lambda o: o.update(extra=1),
    ]):
        obj = json.loads(json.dumps(base))
        mutate(obj)
        files.append((f"malformed-{k}.json", obj))
    return files


def _cli_centralized_runs(capsys, monkeypatch, tmp_path) -> list:
    """[argv, exit code, stdout, stderr] of `verify --mode centralized` on
    seeded files: input-free subsystems, subsystems and connections out of id
    order, repeated pairs, similar templates, the benchmark's networks at toy
    size, the numeric probe and malformed files."""
    bench_dir = Path(__file__).parents[1] / "bench"
    monkeypatch.chdir(tmp_path)
    monkeypatch.syspath_prepend(str(bench_dir))
    import workloads

    names = []
    for name, obj in _centralized_files():
        Path(name).write_text(json.dumps(obj), encoding="utf-8")
        names.append(name)
    names += [call.path for call in workloads.central_large(1, ".", scale=0.02)]
    argvs = [["--input", name] for name in names]
    argvs += [["--input", name, "--seed", str(k)] for k, name in enumerate(names[:30:3])]
    argvs += [["--input", names[-1], "--seed", "4"]]  # past the probe's limit
    out = []
    for argv in argvs:
        code = main(["verify", "--mode", "centralized", *argv])
        captured = capsys.readouterr()
        out.append([argv, code, captured.out, captured.err])
    return out


def test_cli_centralized_reports(capsys, monkeypatch, tmp_path):
    out = _cli_centralized_runs(capsys, monkeypatch, tmp_path)
    assert sorted({code for _, code, _, _ in out}) == [0, 1, 2]
    assert _digest(out) == "ba0a43713bc966136f3c9516e91db03764caa5c32543a205ff0497490db717bf"


def test_centralized_parts_every_maximum_matching_shares(capsys, monkeypatch, tmp_path):
    # The verdicts, exit codes, negative certificates and reach forests of
    # `test_centralized_certificates` and `test_cli_centralized_reports`:
    # another maximum-matching algorithm may move those two digests, through
    # the matchings and cacti of positive certificates, but not this one.
    out = [[v.controllable, v.mode, _fixed_parts(v.certificate)] for v in _centralized_verdicts()]
    for argv, code, stdout, stderr in _cli_centralized_runs(capsys, monkeypatch, tmp_path):
        report = json.loads(stdout)
        if "certificate" in report:
            report["certificate"] = _fixed_parts(report["certificate"])
        out.append([argv, code, report, stderr])
    assert _digest(out) == "f809685f9a1a6d49641b516df568fec25676b5c4315ddefcb001adb89b8984e4"
