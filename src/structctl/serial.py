"""Serial-topology classification and a neighborhood matching test, both as a
per-subsystem agent program (``seq_strt_ctl``) and as a centralized mirror of
it (``check_lemma4``).

A system is serial when every subsystem feeds at most one other.  On such
systems each agent can decide a sufficient condition for structural
controllability using only its own block, the coupling patterns on incident
connections, and the dynamics of its incoming neighbors: it stacks those
blocks, finds a minimum-weight maximum matching that favors staying inside
diagonal blocks, and checks that its own right vertices are covered and its
own states are locally input-reachable.  The agents then build the BFS tree
with the runtime's ``bfs`` and AND their booleans with one
``tree_aggregate``, so every agent returns the same verdict.

``check_lemma4`` runs the identical per-subsystem computation without the
message passing; it is the reference the distributed run is compared against
and agrees with it by construction.  The verdict is sound (true implies the
global system is structurally controllable) but not complete.

The ``variant`` knob selects which side is stacked: ``"primal"`` (default)
stacks incoming neighbors and requires out-degree <= 1, ``"dual"`` stacks
outgoing neighbors and requires in-degree <= 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphkit import min_weight_max_matching, non_top_linked_components
from .model import (
    InterconnectedSystem,
    SparsityPattern,
    Subsystem,
    condensed_graph,
    digraph,
    system_bipartite,
    system_digraph,
)
from .runtime import AgentContext, Recv, RunResult, bfs, run, tree_aggregate

_VARIANTS = ("primal", "dual")


def _check_variant(variant: str) -> None:
    if variant not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {_VARIANTS}")


@dataclass(frozen=True)
class SerialCheck:
    is_serial: bool
    offenders: tuple[int, ...]


def is_serial(sys: InterconnectedSystem, variant: str = "primal") -> SerialCheck:
    """Whether every subsystem feeds at most one other (``"dual"``: is fed by
    at most one other), with the violating subsystem ids."""
    _check_variant(variant)
    g = condensed_graph(sys)
    if variant == "dual":  # in-degrees are the out-degrees of the reverse
        g = digraph(len(g), ((h, t) for t, heads in enumerate(g) for h in heads))
    offenders = tuple(v for v, heads in enumerate(g) if len(heads) > 1)
    return SerialCheck(is_serial=not offenders, offenders=offenders)


# ---------------------------------------------------------------------------
# the per-subsystem computation (shared by agent and mirror)


def _stack_blocks(
    own: Subsystem,
    blocks: list[tuple[int, SparsityPattern, SparsityPattern]],
    variant: str,
) -> tuple[SparsityPattern, SparsityPattern]:
    """Own block plus neighbor blocks on the diagonal, coupled through the
    connection patterns.

    ``blocks`` holds (n_j, A_j, E_j) per stacked neighbor in a fixed order.
    Primal couples neighbors into own rows (E_j is n_i x n_j); dual couples
    own columns into neighbor rows (E_j is n_j x n_i).
    """
    n_i = own.n
    total = n_i + sum(n_j for n_j, _, _ in blocks)
    entries = set(own.A.nonzeros)
    off = n_i
    for n_j, A_j, E_j in blocks:
        entries.update((off + k, off + l) for k, l in A_j.nonzeros)
        if variant == "primal":
            entries.update((k, off + l) for k, l in E_j.nonzeros)
        else:
            entries.update((off + k, l) for k, l in E_j.nonzeros)
        off += n_j
    A_stacked = SparsityPattern(total, total, frozenset(entries))
    B_stacked = SparsityPattern(total, own.p, own.B.nonzeros)
    return A_stacked, B_stacked


def _local_verdict(
    own: Subsystem,
    blocks: list[tuple[int, SparsityPattern, SparsityPattern]],
    variant: str,
) -> dict:
    """One subsystem's matched/reached decision on its stacked neighborhood.

    Weight 1 for state edges staying on one side of the own/stacked split,
    weight 2 for everything else (coupling and input edges); ties among
    minimum-weight maximum matchings are broken toward covering own rights.
    """
    n_i = own.n
    A_stacked, B_stacked = _stack_blocks(own, blocks, variant)
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


def _blocks_for(sys: InterconnectedSystem, i: int, variant: str):
    """Stacked-neighbor blocks for subsystem i, in ascending neighbor id."""
    blocks = []
    if variant == "primal":
        for c in sys.incoming(i):  # sorted by from_
            blocks.append((sys.subsystem(c.from_).n, sys.subsystem(c.from_).A, c.E))
    else:
        for c in sys.outgoing(i):  # sorted by to
            blocks.append((sys.subsystem(c.to).n, sys.subsystem(c.to).A, c.E))
    return blocks


def check_lemma4(sys: InterconnectedSystem, variant: str = "primal") -> bool:
    """Centralized mirror: AND of every subsystem's stacked-neighborhood
    verdict, computed exactly as the agents compute it."""
    return all(v["ctld"] for v in check_lemma4_details(sys, variant).values())


def check_lemma4_details(sys: InterconnectedSystem, variant: str = "primal") -> dict:
    """Per-subsystem verdicts of the mirror."""
    _check_variant(variant)
    return {
        i: _local_verdict(sys.subsystem(i), _blocks_for(sys, i, variant), variant)
        for i in range(sys.r)
    }


# ---------------------------------------------------------------------------
# the agent program


def seq_strt_ctl_variant(variant: str):
    """Agent program: stacked-neighborhood verdict plus the AND of every
    agent's, with the stacking side chosen up front."""
    _check_variant(variant)

    def seq_strt_ctl(ctx: AgentContext):
        own = ctx.subsystem
        if variant == "primal":
            limit, count = "outgoing", len(ctx.outgoing)
        else:
            limit, count = "incoming", len(ctx.incoming)
        if count > 1:
            raise ValueError(
                f"agent {ctx.id}: {count} {limit} neighbors; the {variant} variant "
                f"needs at most one"
            )

        # Dynamics go to the side that will stack us; we stack the other side.
        send_to = ctx.outgoing if variant == "primal" else ctx.incoming
        stack_from = ctx.incoming if variant == "primal" else ctx.outgoing
        for j in sorted(send_to):
            ctx.send(j, [[k, l] for k, l in sorted(own.A.nonzeros)])
        blocks = []
        for j in sorted(stack_from):
            pairs = yield Recv(j)
            E_j = stack_from[j]
            n_j = E_j.cols if variant == "primal" else E_j.rows
            A_j = SparsityPattern(n_j, n_j, frozenset((k, l) for k, l in pairs))
            blocks.append((n_j, A_j, E_j))

        ctld = _local_verdict(own, blocks, variant)["ctld"]
        tree = yield from bfs(ctx)
        return (yield from tree_aggregate(
            ctx, tree, ctld, lambda v, heard: v and all(heard), keyed=False
        ))

    return seq_strt_ctl


seq_strt_ctl = seq_strt_ctl_variant("primal")


def run_seq_strt_ctl(
    sys: InterconnectedSystem, variant: str = "primal"
) -> RunResult:
    """Check seriality, then run one ``seq_strt_ctl`` agent per subsystem."""
    check = is_serial(sys, variant)
    if not check.is_serial:
        raise ValueError(
            f"system is not serial ({variant}): offending subsystems {list(check.offenders)}"
        )
    return run(sys, seq_strt_ctl_variant(variant))
