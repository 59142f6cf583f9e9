"""Serial-topology classification and a neighborhood matching test, both as a
per-subsystem agent program (``seq_strt_ctl``) and as a centralized mirror of
it (``check_lemma4``).

A system is serial when every subsystem feeds at most one other, the paper's
serial class.  On such systems each agent can decide a sufficient condition
for structural controllability using only its own block, the coupling
patterns on incident connections, and the dynamics of the neighbors that feed
it: it sends its own A to the one neighbor it feeds, stacks the blocks it
receives, finds a minimum-weight maximum matching that favors staying inside
diagonal blocks, and checks that its own right vertices are covered and its
own states are locally input-reachable.  The agents then build the BFS tree
with the runtime's ``bfs`` and AND their booleans with one
``tree_aggregate``, so every agent returns the same verdict.

``check_lemma4`` runs the identical per-subsystem computation without the
message passing; it is the reference the distributed run is compared against
and agrees with it by construction.  The verdict is sound (true implies the
global system is structurally controllable) but not complete.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphkit import min_weight_max_matching, non_top_linked_components
from .model import (
    InterconnectedSystem,
    SparsityPattern,
    Subsystem,
    condensed_graph,
    system_bipartite,
    system_digraph,
)
from .runtime import AgentContext, Recv, RunResult, bfs, run, tree_aggregate


@dataclass(frozen=True)
class SerialCheck:
    is_serial: bool
    offenders: tuple[int, ...]


def is_serial(sys: InterconnectedSystem) -> SerialCheck:
    """Whether every subsystem feeds at most one other, with the violating
    subsystem ids."""
    g = condensed_graph(sys)
    offenders = tuple(v for v, heads in enumerate(g) if len(heads) > 1)
    return SerialCheck(is_serial=not offenders, offenders=offenders)


# ---------------------------------------------------------------------------
# the per-subsystem computation (shared by agent and mirror)


def _stack_blocks(
    own: Subsystem,
    blocks: list[tuple[SparsityPattern, SparsityPattern]],
) -> tuple[SparsityPattern, SparsityPattern]:
    """Own block plus neighbor blocks on the diagonal, coupled through the
    connection patterns.

    ``blocks`` holds (A_j, E_j) per feeding neighbor in a fixed order; E_j
    (n_i x n_j) couples the neighbor's states into own rows.
    """
    total = own.n + sum(A_j.rows for A_j, _ in blocks)
    entries = set(own.A.nonzeros)
    off = own.n
    for A_j, E_j in blocks:
        entries.update((off + k, off + l) for k, l in A_j.nonzeros)
        entries.update((k, off + l) for k, l in E_j.nonzeros)
        off += A_j.rows
    A_stacked = SparsityPattern(total, total, frozenset(entries))
    B_stacked = SparsityPattern(total, own.p, own.B.nonzeros)
    return A_stacked, B_stacked


def _local_verdict(
    own: Subsystem,
    blocks: list[tuple[SparsityPattern, SparsityPattern]],
) -> dict:
    """One subsystem's matched/reached decision on its stacked neighborhood.

    Weight 1 for state edges staying on one side of the own/stacked split,
    weight 2 for everything else (coupling and input edges); ties among
    minimum-weight maximum matchings are broken toward covering own rights.
    """
    n_i = own.n
    A_stacked, B_stacked = _stack_blocks(own, blocks)
    total = A_stacked.rows
    g = system_bipartite(A_stacked, B_stacked)
    weights = {
        (l, k): 1 if l < total and (l < n_i) == (k < n_i) else 2
        for l, heads in enumerate(g)
        for k in heads
    }
    _, mate_r = min_weight_max_matching(g, total, weights, prefer_rights=range(n_i))
    unmatched_own = [k for k in range(n_i) if mate_r[k] < 0]

    local = system_digraph(own.A, own.B)
    stranded = sorted(
        v for comp in non_top_linked_components(local) for v in comp if v < n_i
    )
    mchd = not unmatched_own
    rchd = not stranded
    return {
        "mchd": mchd,
        "rchd": rchd,
        "ctld": mchd and rchd,
        "unmatched_own": unmatched_own,
        "stranded_states": stranded,
    }


def _blocks_for(sys: InterconnectedSystem, i: int):
    """Feeding-neighbor blocks for subsystem i, in ascending neighbor id."""
    return [(sys.subsystem(c.from_).A, c.E) for c in sys.incoming(i)]


def check_lemma4(sys: InterconnectedSystem) -> bool:
    """Centralized mirror: AND of every subsystem's stacked-neighborhood
    verdict, computed exactly as the agents compute it."""
    return all(v["ctld"] for v in check_lemma4_details(sys).values())


def check_lemma4_details(sys: InterconnectedSystem) -> dict:
    """Per-subsystem verdicts of the mirror."""
    return {i: _local_verdict(sys.subsystem(i), _blocks_for(sys, i)) for i in range(sys.r)}


# ---------------------------------------------------------------------------
# the agent program


def seq_strt_ctl(ctx: AgentContext):
    """Agent program: stacked-neighborhood verdict plus the AND of every
    agent's."""
    own = ctx.subsystem
    if len(ctx.outgoing) > 1:
        raise ValueError(
            f"agent {ctx.id}: {len(ctx.outgoing)} outgoing neighbors; a serial "
            f"system needs at most one"
        )

    # Our dynamics go to the neighbor we feed; we stack the ones feeding us.
    for j in sorted(ctx.outgoing):
        ctx.send(j, [[k, l] for k, l in sorted(own.A.nonzeros)])
    blocks = []
    for j in sorted(ctx.incoming):
        pairs = yield Recv(j)
        E_j = ctx.incoming[j]
        A_j = SparsityPattern(E_j.cols, E_j.cols, frozenset((k, l) for k, l in pairs))
        blocks.append((A_j, E_j))

    ctld = _local_verdict(own, blocks)["ctld"]
    tree = yield from bfs(ctx)
    return (yield from tree_aggregate(ctx, tree, ctld, lambda v, heard: v and all(heard)))


def seq_strt_ctl_variant():
    """Return ``seq_strt_ctl``.  The CLI asks for its agent program through
    this factory so that ``bench/tracer.py`` can time the agents by
    rebinding one name, as it does for ``controlled_program``."""
    return seq_strt_ctl


def run_seq_strt_ctl(sys: InterconnectedSystem) -> RunResult:
    """Check seriality, then run one ``seq_strt_ctl`` agent per subsystem."""
    check = is_serial(sys)
    if not check.is_serial:
        raise ValueError(
            f"system is not serial (primal): offending subsystems {list(check.offenders)}"
        )
    return run(sys, seq_strt_ctl)
