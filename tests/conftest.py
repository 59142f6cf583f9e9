"""Shared fixtures: hand-built systems with independently derived facts."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from structctl.graphkit import input_reachable_with_parents, max_matching
from structctl.model import (
    InterconnectedSystem,
    Interconnection,
    SparsityPattern,
    Subsystem,
    system_digraph,
)
from structctl.similar import SimilarSystemSpec

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.load_profile("suite")


def pat(rows: int, cols: int, pairs) -> SparsityPattern:
    return SparsityPattern(rows, cols, frozenset(pairs))


def reached_states(A: SparsityPattern, B: SparsityPattern) -> set[int]:
    """States some input reaches, by the package's reachability."""
    parent = input_reachable_with_parents(system_digraph(A, B), A.rows)
    return {j for j, p in enumerate(parent) if p >= 0}


def matching_size(A: SparsityPattern, B: SparsityPattern) -> int:
    """Size of the package's maximum matching of the graph of (A, B)."""
    _, mate_r = max_matching(system_digraph(A, B), A.rows)
    return sum(1 for l in mate_r if l >= 0)


def build_system(subs, conns) -> InterconnectedSystem:
    """subs: [(n, p, A_pairs, B_pairs)]; conns: [(to, from, E_pairs)]."""
    ss = tuple(
        Subsystem(i, n, p, pat(n, n, A), pat(n, p, B))
        for i, (n, p, A, B) in enumerate(subs)
    )
    cc = tuple(
        Interconnection(t, f, pat(ss[t].n, ss[f].n, E)) for t, f, E in conns
    )
    return InterconnectedSystem(ss, cc)


@pytest.fixture
def nine_state():
    """One 9-state pattern with three cycles, a tail chain, and a self-loop:
    five SCCs, two of them fed by nothing, max matching 8 (x3 and x7 compete
    for x4), so the system with a single input at x0 is NOT controllable."""
    A = pat(9, 9, {(1, 0), (2, 1), (0, 2), (4, 3), (3, 4), (6, 5), (5, 6),
                   (8, 8), (5, 2), (7, 4), (8, 7)})
    B = pat(9, 1, {(0, 0)})
    return A, B


@pytest.fixture
def serial_pair():
    """Chain subsystem feeding a fork subsystem through one cross edge that
    covers the fork's internally unmatchable state; controllable, and the
    serial condition holds."""
    return build_system(
        [(2, 1, {(1, 0)}, {(0, 0)}), (3, 1, {(1, 0), (2, 0)}, {(0, 0)})],
        [(1, 0, {(2, 1)})],
    )


@pytest.fixture
def ring4():
    """Four identical strongly connected 4-state subsystems in a directed
    ring (state 2 couples to state 2), one global input at subsystem 0."""
    A = {(1, 0), (2, 1), (3, 1), (0, 2), (0, 3)}
    subs = [(4, 1 if i == 0 else 0, A, {(0, 0)} if i == 0 else set()) for i in range(4)]
    conns = [((i + 1) % 4, i, {(2, 2)}) for i in range(4)]
    return build_system(subs, conns)


@pytest.fixture
def similar_template():
    """Template with decoupled self-loop states and one input: on its own it
    is right-perfect but not controllable (state 1 unreachable)."""
    return dict(
        Aprime=pat(2, 2, {(0, 0), (1, 1)}),
        Bprime=pat(2, 1, {(0, 0)}),
        H=pat(2, 2, {(1, 0)}),
    )


@pytest.fixture
def thm1_ring(similar_template):
    """Copies coupled in a directed ring: both similar checks say true and
    the expanded system is controllable."""
    return SimilarSystemSpec(
        r=3, n=2, p=1, E=pat(3, 3, {(1, 0), (2, 1), (0, 2)}), **similar_template
    )


@pytest.fixture
def thm2_witness(similar_template):
    """Sourceless copy digraph that no disjoint cycle family spans (copy 2
    has no outgoing edge): the cycle-cover check says false although the
    expanded system is controllable — the check is sufficient, not necessary."""
    return SimilarSystemSpec(
        r=3, n=2, p=1, E=pat(3, 3, {(1, 0), (2, 0), (0, 1)}), **similar_template
    )
