"""Systems built from one repeated template block.

A spec here is (r, Aprime, Bprime, H, E): r copies of the template
(Aprime, Bprime), where connection pattern E (an r x r selector with empty
diagonal) says which copies feed which, always through the coupling pattern H.
Two decision procedures work on the template alone:

* ``check_via_collapse`` — exact when the template is not controllable on its
  own but its bipartite graph covers every right vertex: the full system is
  controllable iff (Aprime | H, Bprime) is controllable and the copy-level
  digraph has no source.
* ``check_cycle_cover`` — sufficient only: collapsed controllability plus the
  copy-level digraph being spanned by disjoint cycles.  A false here proves
  nothing (non-necessity is exercised in the tests).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from .centralized import verify
from .graphkit import Mates, max_matching, path_cycle_decomposition
from .model import (
    Graph,
    InterconnectedSystem,
    Interconnection,
    ModelError,
    SparsityPattern,
    Subsystem,
    _check_keys,
    _parse_pairs,
    _require_int,
    digraph,
    system_bipartite,
)


@dataclass(frozen=True)
class SimilarSystemSpec:
    r: int
    n: int
    p: int
    Aprime: SparsityPattern
    Bprime: SparsityPattern
    H: SparsityPattern
    E: SparsityPattern  # r x r copy-level selector, empty diagonal

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ModelError("similar spec: r must be >= 1")
        if self.n < 1 or self.p < 0:
            raise ModelError("similar spec: need n >= 1 and p >= 0")
        for name, pat, shape in (
            ("Aprime", self.Aprime, (self.n, self.n)),
            ("Bprime", self.Bprime, (self.n, self.p)),
            ("H", self.H, (self.n, self.n)),
            ("E", self.E, (self.r, self.r)),
        ):
            if (pat.rows, pat.cols) != shape:
                raise ModelError(
                    f"similar spec: {name} is {pat.rows}x{pat.cols}, expected {shape[0]}x{shape[1]}"
                )
        if any(i == j for i, j in self.E.nonzeros):
            raise ModelError("similar spec: E must have an empty diagonal")


def copy_level_digraph(spec: SimilarSystemSpec) -> Graph:
    """One vertex per copy; edge j -> i iff copy j feeds copy i (E[i, j] set)."""
    return digraph(spec.r, ((j, i) for i, j in spec.E.nonzeros))


def expand(spec: SimilarSystemSpec) -> InterconnectedSystem:
    """Materialize the r coupled copies as an ordinary system.

    With an all-zero H the connections carry nothing and are dropped (the
    copies are then mutually disconnected).
    """
    subs = tuple(
        Subsystem(id=i, n=spec.n, p=spec.p, A=spec.Aprime, B=spec.Bprime)
        for i in range(spec.r)
    )
    conns: tuple[Interconnection, ...] = ()
    if not spec.H.is_zero:
        conns = tuple(
            Interconnection(to=i, from_=j, E=spec.H)
            for i, j in sorted(spec.E.nonzeros)
        )
    return InterconnectedSystem(subs, conns)


# ---------------------------------------------------------------------------
# checks


@dataclass(frozen=True)
class CheckResult:
    status: str  # "true" | "false" | "precondition-unmet"
    details: dict

    def __bool__(self) -> bool:
        return self.status == "true"


def precondition_report(spec: SimilarSystemSpec) -> dict:
    template_controllable = verify(spec.Aprime, spec.Bprime).controllable
    _, mate_r = max_matching(system_bipartite(spec.Aprime, spec.Bprime), spec.n)
    return {
        "template_controllable": template_controllable,
        "template_right_perfect": -1 not in mate_r,
    }


def check_via_collapse(spec: SimilarSystemSpec) -> CheckResult:
    """Exact template-level controllability test (under its preconditions).

    Requires the template alone to be uncontrollable yet right-perfect; then
    the coupled system is controllable iff (Aprime | H, Bprime) is
    controllable and no copy is a source in the copy-level digraph.
    """
    pre = precondition_report(spec)
    if pre["template_controllable"] or not pre["template_right_perfect"]:
        return CheckResult("precondition-unmet", pre)
    collapsed = verify(spec.Aprime | spec.H, spec.Bprime).controllable
    source_rows = sorted(
        i for i in range(spec.r) if not any(row == i for row, _ in spec.E.nonzeros)
    )
    ok = collapsed and not source_rows
    return CheckResult(
        "true" if ok else "false",
        {**pre, "collapsed_controllable": collapsed, "sources": source_rows},
    )


def check_cycle_cover(spec: SimilarSystemSpec) -> CheckResult:
    """Sufficient condition: collapsed template controllable and the copy-level
    digraph spanned by disjoint cycles.  "false" is inconclusive."""
    pre = precondition_report(spec)
    if pre["template_controllable"]:
        return CheckResult("precondition-unmet", pre)
    collapsed = verify(spec.Aprime | spec.H, spec.Bprime).controllable
    cover = _cycle_cover(copy_level_digraph(spec))
    ok = collapsed and cover is not None
    return CheckResult(
        "true" if ok else "false",
        {
            **pre,
            "collapsed_controllable": collapsed,
            "spanned_by_cycles": cover is not None,
        },
    )


def _cycle_cover(g: Graph) -> list[list[int]] | None:
    mates = max_matching(g, len(g))
    if -1 in mates[1]:
        return None
    return path_cycle_decomposition(mates)[1]


def build_composite_matching(spec: SimilarSystemSpec) -> Mates:
    """Lift a right-perfect matching of the collapsed template onto the full
    system when the cycle-cover condition holds.

    Template edges supported by Aprime or an input stay inside each copy;
    edges supported only by H jump from a copy to its successor on the
    spanning cycle.  The result covers every right vertex of the expanded
    system, as mate arrays on its ``system_digraph`` (states of copy i at
    i*n.., inputs of copy i at r*n + i*p..).
    """
    check = check_cycle_cover(spec)
    if check.status != "true":
        raise ValueError(f"cycle-cover condition does not hold: {check.status}")
    cover = _cycle_cover(copy_level_digraph(spec))
    assert cover is not None
    succ = {}
    for cyc in cover:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            succ[a] = b

    n, p, r = spec.n, spec.p, spec.r
    _, feeder = max_matching(system_bipartite(spec.Aprime | spec.H, spec.Bprime), n)
    if -1 in feeder:
        raise AssertionError("collapsed matching unexpectedly not right-perfect")

    mate_l = [-1] * (r * n + r * p)
    mate_r = [-1] * (r * n)
    for k, l in enumerate(feeder):
        for i in range(r):
            if l >= n:
                left, right = r * n + i * p + (l - n), i * n + k
            elif (k, l) in spec.Aprime.nonzeros:
                left, right = i * n + l, i * n + k
            else:  # supported by H only: land in the cycle successor's copy
                left, right = i * n + l, succ[i] * n + k
            mate_l[left] = right
            mate_r[right] = left
    return mate_l, mate_r


# ---------------------------------------------------------------------------
# JSON variant

_SIMILAR_KEYS = {"r", "n", "p", "Aprime", "Bprime", "H", "E"}


def similar_from_obj(obj) -> SimilarSystemSpec:
    if not isinstance(obj, dict) or set(obj.keys()) != {"similar"}:
        raise ModelError("top level: expected exactly one key 'similar'")
    body = obj["similar"]
    if not isinstance(body, dict):
        raise ModelError("'similar' must be an object")
    _check_keys(body, _SIMILAR_KEYS, "similar")
    r = _require_int(body, "r", "similar")
    n = _require_int(body, "n", "similar")
    p = _require_int(body, "p", "similar")
    return SimilarSystemSpec(
        r=r,
        n=n,
        p=p,
        Aprime=_parse_pairs(body["Aprime"], n, n, "similar.Aprime"),
        Bprime=_parse_pairs(body["Bprime"], n, p, "similar.Bprime"),
        H=_parse_pairs(body["H"], n, n, "similar.H"),
        E=_parse_pairs(body["E"], r, r, "similar.E"),
    )


def similar_to_obj(spec: SimilarSystemSpec) -> dict:
    return {
        "similar": {
            "r": spec.r,
            "n": spec.n,
            "p": spec.p,
            "Aprime": [list(rc) for rc in sorted(spec.Aprime.nonzeros)],
            "Bprime": [list(rc) for rc in sorted(spec.Bprime.nonzeros)],
            "H": [list(rc) for rc in sorted(spec.H.nonzeros)],
            "E": [list(rc) for rc in sorted(spec.E.nonzeros)],
        }
    }


def similar_loads(text: str) -> SimilarSystemSpec:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"invalid JSON: {exc}") from None
    return similar_from_obj(obj)


def similar_dumps(spec: SimilarSystemSpec) -> str:
    return json.dumps(similar_to_obj(spec), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# random specs


def random_similar_spec(
    r_range: tuple[int, int],
    n_range: tuple[int, int],
    p_range: tuple[int, int],
    density: float,
    seed: int,
) -> SimilarSystemSpec:
    """Seeded random template spec; E gets an empty diagonal, at least one
    entry, and a mix of topology styles (ring / sourceless / arbitrary)."""
    rng = random.Random(seed)
    r = rng.randint(*r_range)
    n = rng.randint(*n_range)
    p = rng.randint(*p_range)

    def pat(rows: int, cols: int, dens: float, forbid_diag: bool = False) -> SparsityPattern:
        nz = [
            (i, j)
            for i in range(rows)
            for j in range(cols)
            if (not forbid_diag or i != j) and rng.random() < dens
        ]
        return SparsityPattern(rows, cols, frozenset(nz))

    Aprime = pat(n, n, density)
    Bprime = pat(n, p, density)
    H = pat(n, n, density)
    style = rng.choice(["ring", "sourceless", "any"])
    if style == "ring" and r > 1:
        entries = {((i + 1) % r, i) for i in range(r)}
    elif style == "sourceless" and r > 1:
        # every row nonzero: each copy is fed by someone
        entries = {(i, rng.choice([j for j in range(r) if j != i])) for i in range(r)}
        entries |= {rc for rc in pat(r, r, density, forbid_diag=True).nonzeros}
    else:
        entries = set(pat(r, r, density, forbid_diag=True).nonzeros)
        if not entries and r > 1:
            entries = {(1, 0)}
    E = SparsityPattern(r, r, frozenset(entries))
    return SimilarSystemSpec(r=r, n=n, p=p, Aprime=Aprime, Bprime=Bprime, H=H, E=E)
