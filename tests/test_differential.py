"""Metamorphic relations on path, ring and star topologies, and on the
bounded-degree family of the scale sweep, whose BFS trees run deeper.

Renumbering the subsystems must leave the centralized verdict and the
unanimous distributed ``controlled`` verdict unchanged, and adding one
nonzero to A, B or E must never turn a controllable system into an
uncontrollable one (structural controllability is monotone in the pattern).
Every draw is seeded, so reruns are identical.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from structctl.centralized import verify
from structctl.distributed import controlled
from structctl.model import (
    InterconnectedSystem,
    Interconnection,
    SparsityPattern,
    Subsystem,
    _nonempty_pattern,
    _random_pattern,
    assemble_global,
    random_system,
)
from structctl.runtime import run

FAMILIES = ("path", "ring", "star")


def _links(kind: str, r: int, rng: random.Random) -> list[tuple[int, int]]:
    """(to, from) pairs of one family; each undirected link is one-way
    either way or both ways."""
    if kind == "path":
        pairs = [(i, i + 1) for i in range(r - 1)]
    elif kind == "ring":
        pairs = [(i, (i + 1) % r) for i in range(r if r > 2 else 1)]
    else:
        pairs = [(0, j) for j in range(1, r)]
    links = []
    for a, b in pairs:
        way = rng.randrange(3)
        if way != 1:
            links.append((a, b))
        if way != 0:
            links.append((b, a))
    return links


def _family_system(kind: str, r: int, seed: int) -> InterconnectedSystem:
    """Subsystems of 1..3 states, about a third of them input-free."""
    rng = random.Random(seed)
    subs = []
    for i in range(r):
        n = rng.randint(1, 3)
        p = 0 if rng.random() < 0.35 else rng.randint(1, 2)
        A, B = _random_pattern(rng, n, n, 0.4), _random_pattern(rng, n, p, 0.6)
        subs.append(Subsystem(i, n, p, A, B))
    conns = tuple(
        Interconnection(to, frm, _nonempty_pattern(rng, subs[to].n, subs[frm].n, 0.5))
        for to, frm in _links(kind, r, rng)
    )
    return InterconnectedSystem(tuple(subs), conns)


def _renumbered(sys: InterconnectedSystem, perm: list[int]) -> InterconnectedSystem:
    """The same system with subsystem i renamed perm[i]."""
    return InterconnectedSystem(
        tuple(Subsystem(perm[s.id], s.n, s.p, s.A, s.B) for s in sys.subsystems),
        tuple(Interconnection(perm[c.to], perm[c.from_], c.E) for c in sys.connections),
    )


def _with_one_more(sys: InterconnectedSystem, rng: random.Random) -> InterconnectedSystem:
    """The system with one zero of some A, B or E block made a nonzero."""
    subs, conns = list(sys.subsystems), list(sys.connections)
    blocks = [(subs, s.id, "A") for s in subs] + [(subs, s.id, "B") for s in subs]
    blocks += [(conns, k, "E") for k in range(len(conns))]
    slots = [
        (owner, idx, field, (i, j))
        for owner, idx, field in blocks
        for m in [getattr(owner[idx], field)]
        for i in range(m.rows)
        for j in range(m.cols)
        if (i, j) not in m.nonzeros
    ]
    if not slots:
        return sys
    owner, idx, field, pos = rng.choice(slots)
    m = getattr(owner[idx], field)
    grown = SparsityPattern(m.rows, m.cols, m.nonzeros | {pos})
    owner[idx] = dataclasses.replace(owner[idx], **{field: grown})
    return InterconnectedSystem(tuple(subs), tuple(conns))


def _verdicts(sys: InterconnectedSystem) -> tuple[bool, bool]:
    """The centralized verdict and the distributed one, which must be
    unanimous."""
    outs = run(sys, controlled).outputs
    distributed = {out["ctld"] for out in outs.values()}
    assert len(distributed) == 1
    return verify(*assemble_global(sys)).controllable, distributed.pop()


def _relations_hold(sysm: InterconnectedSystem, seed: int) -> bool:
    """Check both relations on one system; return its verdict."""
    rng = random.Random(seed)
    verdict, distributed = _verdicts(sysm)
    assert distributed == verdict, seed
    perm = rng.sample(range(sysm.r), sysm.r)
    assert _verdicts(_renumbered(sysm, perm)) == (verdict, verdict), (seed, perm)
    if verdict:
        assert _verdicts(_with_one_more(sysm, rng)) == (True, True), seed
    return verdict


@pytest.mark.parametrize("kind", FAMILIES)
def test_renumbering_and_one_more_nonzero(kind):
    positives = 0
    for r in range(2, 9):
        for seed in range(12):
            sysm = _family_system(kind, r, seed=1000 * r + seed)
            positives += _relations_hold(sysm, 1000 * r + seed)
    assert positives >= 12


def test_bounded_degree_family():
    """``random_system`` with mean degree about 6 at every r, up to 40."""
    positives = 0
    for r, seeds in ((6, 10), (10, 6), (20, 2), (30, 1), (40, 1)):
        for seed in range(100 * r, 100 * r + seeds):
            sysm = random_system(r, (1, 8), (1, 2), 0.3, seed, extra_conn_prob=2 / r)
            positives += _relations_hold(sysm, seed)
    assert positives >= 3
