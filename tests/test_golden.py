"""Byte-for-byte pins of the centralized, serial and similar outputs.

Each test hashes ``json.dumps(..., sort_keys=True)`` over the outputs of one
seeded corpus.  A refactor of the graph algorithms must leave every
certificate, per-subsystem verdict and check report unchanged, so a changed
digest means a changed output, not a changed format.
"""

from __future__ import annotations

import hashlib
import json
import random

from structctl.centralized import verify, verify_via_cacti
from structctl.model import assemble_global, random_serial_system, random_system
from structctl.serial import check_lemma4_details
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


def test_serial_details():
    out = [
        check_lemma4_details(random_serial_system(2 + k % 5, (1, 4), (0, 2), 0.35, seed=k))
        for k in range(300)
    ]
    assert _digest(out) == "4a8f256a3e296c5019af24c4407aef1b368b146fb52d65ed4e7e2347789a28da"


def test_similar_checks():
    out = []
    for k in range(300):
        spec = random_similar_spec((2, 5), (1, 6), (1, 2), 0.35, seed=k)
        for check in (check_via_collapse, check_cycle_cover):
            res = check(spec)
            out.append([res.status, res.details])
    assert _digest(out) == "58ed9563de2d360d2cd9a54cfad7e931c4d597bd1892d79c6da0ec0155d23bf0"
