"""Seeded inputs for the three benchmark workloads.

A workload is a list of calls.  Each call names a `structctl verify` mode, an
input file written here, and what the benchmark expects of the answer.  The
expectation is computed with the library when the inputs are made, so the
timed loop only runs the CLI.  The same seed always gives the same files.

Every builder takes a `scale` so the tests can run each workload at toy size;
`scale=1` is the size the benchmark measures.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

from structctl.centralized import verify
from structctl.model import (
    assemble_global,
    dumps,
    random_serial_system,
    random_system,
)
from structctl.similar import expand, precondition_report, random_similar_spec, similar_dumps


@dataclass
class Call:
    """One `structctl verify` call and the facts its answer is checked against.

    `expect` keys, all optional:
      controllable    the centralized verdict on the (expanded) system;
      certificate     the certificate type a centralized verdict must carry;
      precondition    for the similar checks, whether the template meets the
                      check's precondition (exit 2 is expected iff it does not).
    """

    mode: str
    path: str
    expect: dict = field(default_factory=dict)

    @property
    def argv(self) -> list[str]:
        return ["verify", "--mode", self.mode, "--input", self.path]


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _system_expect(system) -> dict:
    return {"controllable": verify(*assemble_global(system)).controllable}


# ---------------------------------------------------------------------------
# central-large: a few large sparse networks, centralized mode only


def _network(rng: random.Random, n_states: int, block: int, inputs: int,
             kind: str, window: int = 50, extra: int = 2) -> dict:
    """A system file of `n_states // block` subsystems with about four nonzeros
    per row, built on the global pattern and cut into blocks.

    Every row gets a feeder from a random earlier state nearby (a spanning
    forest rooted at the inputs), `extra` random nearby feeders, and for
    `controllable` a feeder from a block-local random permutation, so a
    perfect matching exists.  `deficient` draws every state feeder from all but
    `deficit` states, with fewer inputs than that, so a right-side deficiency
    spans most of the system.  `unreachable` closes the last fifth of the
    states off from the rest and from every input.
    """
    assert n_states % block == 0
    r = n_states // block
    deficit = 4 * inputs if kind == "deficient" else 0
    feeders = n_states - deficit
    closed_from = n_states - n_states // 5 if kind == "unreachable" else n_states

    def near(k: int, lo: int, hi: int) -> int:
        return rng.randrange(max(lo, k - window), min(hi, k + window + 1))

    a_rows: list[set] = [set() for _ in range(n_states)]
    for k in range(n_states):
        lo, hi = (closed_from, n_states) if k >= closed_from else (0, feeders)
        if k not in (0, closed_from):
            a_rows[k].add(rng.randrange(max(lo, k - window), min(k, hi)))
        for _ in range(extra):
            a_rows[k].add(near(k, lo, hi))
    if kind == "controllable":
        for start in range(0, n_states, block):
            perm = list(range(start, start + block))
            rng.shuffle(perm)
            for k, col in zip(range(start, start + block), perm):
                a_rows[k].add(col)

    # Input j feeds a random state of block j % r outside the closed part;
    # input 0 feeds state 0, the root of the forest.
    b_rows: dict[int, int] = {0: 0}
    reachable_blocks = [b for b in range(r) if b * block < closed_from]
    for j in range(1, inputs):
        b = reachable_blocks[j % len(reachable_blocks)]
        b_rows[j] = rng.randrange(b * block, min((b + 1) * block, closed_from))

    inputs_of = [[] for _ in range(r)]
    for j in sorted(b_rows):
        inputs_of[b_rows[j] // block].append((b_rows[j], j))
    subsystems = []
    blocks: dict[tuple[int, int], list] = {}
    for k in range(n_states):
        for col in a_rows[k]:
            blocks.setdefault((k // block, col // block), []).append(
                [k % block, col % block]
            )
    for b in range(r):
        subsystems.append({
            "id": b,
            "n": block,
            "p": len(inputs_of[b]),
            "A": sorted(blocks.get((b, b), [])),
            "B": [[row % block, local] for local, (row, _) in enumerate(inputs_of[b])],
        })
    connections = [
        {"to": to, "from": frm, "E": sorted(pairs)}
        for (to, frm), pairs in sorted(blocks.items())
        if to != frm
    ]
    return {"subsystems": subsystems, "connections": connections}


def central_large(seed: int, workdir: str, scale: float = 1.0) -> list[Call]:
    rng = random.Random(f"central-large:{seed}")
    # Sized so that a run holds three passes: a single 50k-state call takes
    # about 7 s, and two passes of it swung by a fifth from run to run.
    specs = [
        ("controllable", 30_000, 1_000, 60, "reach-and-match", True),
        ("deficient", 4_000, 400, 10, "right-deficiency", False),
        ("unreachable", 12_000, 1_000, 24, "unreachable-closure", False),
    ]
    calls = []
    for kind, n, block, p, cert, ctrl in specs:
        block = max(10, int(block * scale))
        n = max(block, int(n * scale) // block * block)
        obj = _network(rng, n, block, max(2, int(p * scale)), kind)
        path = _write(os.path.join(workdir, f"{kind}-{n}.json"), json.dumps(obj))
        calls.append(Call("centralized", path, {"controllable": ctrl, "certificate": cert}))
    return calls


# ---------------------------------------------------------------------------
# dist-scale: random_system instances with many subsystems, distributed mode


def dist_scale(seed: int, workdir: str, scale: float = 1.0) -> list[Call]:
    # One instance costs from a third to three times the mean, set by how many
    # preflow passes it takes, so a steady per-seed figure needs many of them:
    # 120 instances at r = 8 fit one pass into the run, where r = 16-20 would
    # fit a handful and swing by a quarter from seed to seed.
    count = max(1, round(120 * scale))
    r = 8 if scale >= 1 else 4
    calls = []
    for k in range(count):
        system = random_system(r, (1, 8), (1, 2), 0.3, seed=seed * 1_000 + k)
        path = _write(os.path.join(workdir, f"dist-{k:03d}.json"), dumps(system))
        calls.append(Call("distributed", path, _system_expect(system)))
    return calls


# ---------------------------------------------------------------------------
# corpus: many small instances in every mode


def corpus(seed: int, workdir: str, scale: float = 1.0) -> list[Call]:
    general = max(1, round(500 * scale))
    serial = max(1, round(150 * scale))
    similar = max(1, round(150 * scale))
    base = seed * 10_000
    calls = []
    # r cycles through 2..6 rather than being drawn, so each seed carries the
    # same mix of sizes and the per-pass time does not swing with the draw.
    for k in range(general):
        system = random_system(2 + k % 5, (1, 8), (1, 2), 0.30, seed=base + k)
        path = _write(os.path.join(workdir, f"general-{k:04d}.json"), dumps(system))
        expect = _system_expect(system)
        calls.append(Call("centralized", path, expect))
        calls.append(Call("distributed", path, expect))
    for k in range(serial):
        system = random_serial_system(2 + k % 5, (1, 4), (0, 2), 0.35, seed=base + k)
        path = _write(os.path.join(workdir, f"serial-{k:04d}.json"), dumps(system))
        calls.append(Call("serial", path, _system_expect(system)))
    for k in range(similar):
        spec = random_similar_spec((2, 5), (1, 6), (1, 2), 0.35, seed=base + k)
        path = _write(os.path.join(workdir, f"similar-{k:04d}.json"), similar_dumps(spec))
        pre = precondition_report(spec)
        truth = _system_expect(expand(spec))["controllable"]
        thm1_met = not pre["template_controllable"] and pre["template_right_perfect"]
        thm2_met = not pre["template_controllable"]
        calls.append(Call("similar-thm1", path, {"controllable": truth, "precondition": thm1_met}))
        calls.append(Call("similar-thm2", path, {"controllable": truth, "precondition": thm2_met}))
    return calls


WORKLOADS = {
    "central-large": central_large,
    "dist-scale": dist_scale,
    "corpus": corpus,
}
