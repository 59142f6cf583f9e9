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

import random
from dataclasses import dataclass

from .centralized import verify
from .graphkit import max_matching
from .model import (
    MAX_VERTICES,
    Graph,
    InterconnectedSystem,
    Interconnection,
    ModelError,
    SparsityPattern,
    Subsystem,
    _check_keys,
    _pair_list,
    _pair_rows,
    _parse_pairs,
    _random_pattern,
    _require_int,
    decode_json,
    digraph,
    indented_json,
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


def _check_copies(r: int, n: int, p: int) -> None:
    """Refuse r copies of n states and p inputs past the states-plus-inputs
    limit that system files have."""
    if r * (n + p) > MAX_VERTICES:
        raise ModelError(
            f"similar spec: {r} copies of {n + p} states plus inputs "
            f"are above the limit of {MAX_VERTICES}"
        )


def expand(spec: SimilarSystemSpec) -> InterconnectedSystem:
    """Materialize the r coupled copies as an ordinary system.

    With an all-zero H the connections carry nothing and are dropped (the
    copies are then mutually disconnected).  Raises ModelError past the
    states-plus-inputs limit that system files have.
    """
    _check_copies(spec.r, spec.n, spec.p)
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
    fed = {row for row, _ in spec.E.nonzeros}
    source_rows = [i for i in range(spec.r) if i not in fed]
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
    g = copy_level_digraph(spec)
    # Disjoint cycles span g iff every copy has a distinct successor: a
    # perfect matching of g read as a permutation.
    spanned = -1 not in max_matching(g, len(g))[1]
    return CheckResult(
        "true" if collapsed and spanned else "false",
        {**pre, "collapsed_controllable": collapsed, "spanned_by_cycles": spanned},
    )


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
    _check_copies(r, n, p)  # before the checks allocate per copy
    return SimilarSystemSpec(
        r=r,
        n=n,
        p=p,
        Aprime=_parse_pairs(body["Aprime"], n, n, "similar.Aprime"),
        Bprime=_parse_pairs(body["Bprime"], n, p, "similar.Bprime"),
        H=_parse_pairs(body["H"], n, n, "similar.H"),
        E=_parse_pairs(body["E"], r, r, "similar.E"),
    )


def _similar_obj(spec: SimilarSystemSpec, pairs) -> dict:
    """The file object of ``spec``, with each pattern as ``pairs`` gives it."""
    patterns = {key: pairs(getattr(spec, key)) for key in ("Aprime", "Bprime", "H", "E")}
    return {"similar": {"r": spec.r, "n": spec.n, "p": spec.p, **patterns}}


def similar_to_obj(spec: SimilarSystemSpec) -> dict:
    return _similar_obj(spec, _pair_list)


def similar_loads(text: str) -> SimilarSystemSpec:
    return similar_from_obj(decode_json(text))


def similar_dumps(spec: SimilarSystemSpec) -> str:
    return indented_json(_similar_obj(spec, _pair_rows)) + "\n"


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
    entry when r > 1 (none at r = 1, where only the diagonal exists), and a
    mix of topology styles (ring / sourceless / arbitrary)."""
    rng = random.Random(seed)
    r = rng.randint(*r_range)
    n = rng.randint(*n_range)
    p = rng.randint(*p_range)

    Aprime = _random_pattern(rng, n, n, density)
    Bprime = _random_pattern(rng, n, p, density)
    H = _random_pattern(rng, n, n, density)
    style = rng.choice(["ring", "sourceless", "any"])
    if style == "ring" and r > 1:
        entries = {((i + 1) % r, i) for i in range(r)}
    elif style == "sourceless" and r > 1:
        # every row nonzero: each copy is fed by someone
        entries = {(i, rng.choice([j for j in range(r) if j != i])) for i in range(r)}
        entries |= _random_pattern(rng, r, r, density, diagonal=False).nonzeros
    else:
        entries = set(_random_pattern(rng, r, r, density, diagonal=False).nonzeros)
        if not entries and r > 1:
            entries = {(1, 0)}
    E = SparsityPattern(r, r, frozenset(entries))
    return SimilarSystemSpec(r=r, n=n, p=p, Aprime=Aprime, Bprime=Bprime, H=H, E=E)
