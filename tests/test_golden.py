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

from oracles import verify_via_cacti
from structctl.centralized import verify
from structctl.distributed import controlled_program
from structctl.model import assemble_global, random_serial_system, random_system
from structctl.runtime import run
from structctl.serial import check_lemma4_details, seq_strt_ctl
from structctl.similar import check_cycle_cover, check_via_collapse, random_similar_spec


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def test_centralized_certificates():
    # the 1000-instance corpus of acceptance criterion 1
    out = []
    for seed in range(1000):
        rng = random.Random(seed * 7919 + 13)
        sysm = random_system(rng.randint(2, 6), (1, 8), (1, 2), density=0.30, seed=seed)
        A, B = assemble_global(sysm)
        for v in (verify(A, B), verify_via_cacti(A, B)):
            out.append([v.controllable, v.mode, v.certificate])
    assert _digest(out) == "37fbaec12a4c9e67c6b33265217a3276bacaa951ece354dbc607c4e7b48b15cd"


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
    assert _digest(out) == "58bb5ea1ab03f496f7a59c9be39e8439662674abba6bb60d5ac6a0b6c16202ae"


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
    assert _digest(out) == "f21d1b1ac9ea522db258cb3d322df0dda837492015242bb7ef828173d05c4199"


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
    assert _digest(out) == "763ec11b4b8d22c0bb605e6bd41f5b5e83734fcdd4437175f6e929e40f8366f2"


def test_serial_details():
    out = [
        check_lemma4_details(random_serial_system(2 + k % 5, (1, 4), (0, 2), 0.35, seed=k))
        for k in range(300)
    ]
    assert _digest(out) == "4a8f256a3e296c5019af24c4407aef1b368b146fb52d65ed4e7e2347789a28da"


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
