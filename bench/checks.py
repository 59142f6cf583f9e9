"""Correctness cross-checks on `structctl verify` reports, and the protocol
phase of each distributed message.

Nothing here is timed: the benchmark runs these after each call returns.
"""

from __future__ import annotations

import json

from structctl.centralized import Verdict, check_certificate

PHASES = ("gossip", "reach", "relabel", "barrier", "census", "consensus", "other")


def _ints(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(v, int) and not isinstance(v, bool) for v in value
    )


def phase_of(payload) -> str:
    """The protocol phase of a distributed message, from its decoded payload's
    shape alone; a shape no phase sends is `other`."""
    if isinstance(payload, bool):
        return "consensus"
    if _ints(payload):
        return "reach"
    if not isinstance(payload, dict):
        return "other"
    keys = set(payload)
    if keys == {"d", "chg"}:
        return "relabel"
    if keys in ({"labels", "offers"}, {"accepts"}):
        return "barrier"
    if keys and all(k.isdigit() for k in keys):
        values = list(payload.values())
        if all(_ints(v) and len(v) == 3 for v in values):
            return "gossip"
        if all(isinstance(v, list) and len(v) == 2 and all(map(_ints, v)) for v in values):
            return "census"
    return "other"


def phase_counts(trace) -> dict[str, list[int]]:
    """Per phase, `[messages, payload bytes]` over a run's trace records."""
    counts = {p: [0, 0] for p in PHASES}
    for rec in trace:
        c = counts[phase_of(json.loads(rec.payload))]
        c[0] += 1
        c[1] += len(rec.payload)
    return counts


def cross_check(mode: str, code: int, report: dict, expect: dict) -> list[str]:
    """Problems with one call's exit code and report, given what the inputs'
    maker computed (`workloads.Call.expect`); empty when they agree.

    A centralized certificate is replayed separately, by `replay`, because
    the benchmark times the replay."""
    problems = []

    def want(cond: bool, what: str) -> None:
        if not cond:
            problems.append(what)

    truth = expect.get("controllable")
    if mode in ("similar-thm1", "similar-thm2"):
        met = expect["precondition"]
        if not met:
            want(code == 2, f"precondition unmet but exit {code}")
            return problems
        want(code in (0, 1), f"precondition met but exit {code}")
        if code not in (0, 1):
            return problems
        status = report["status"]
        want((status == "true") == (code == 0), f"status {status} with exit {code}")
        if mode == "similar-thm1":
            want((status == "true") == truth, f"thm1 says {status}, central says {truth}")
        else:
            want(status != "true" or truth, "thm2 says true, central says not controllable")
        return problems

    want(code in (0, 1), f"exit {code} where a verdict was expected")
    if code not in (0, 1):
        return problems
    if mode == "serial":
        verdicts = set(report["agent_verdicts"].values())
        want(verdicts == {report["holds"]}, f"serial agents disagree: {sorted(verdicts)}")
        want(report["holds"] == (code == 0), f"holds={report['holds']} with exit {code}")
        want(not report["holds"] or truth, "serial holds, central says not controllable")
        return problems

    ctrl = report["controllable"]
    want(ctrl == (code == 0), f"controllable={ctrl} with exit {code}")
    if truth is not None:
        want(ctrl == truth, f"{mode} says {ctrl}, central says {truth}")
    if mode == "distributed":
        verdicts = set(report["agent_verdicts"].values())
        want(verdicts == {ctrl}, f"distributed agents not unanimous: {sorted(verdicts)}")
    else:
        cert = report["certificate"]
        if "certificate" in expect:
            want(cert["type"] == expect["certificate"],
                 f"certificate {cert['type']}, expected {expect['certificate']}")
    return problems


def replay(report: dict, patterns) -> bool:
    """Replay a centralized report's certificate against the input's (A, B)."""
    verdict = Verdict(report["controllable"], "reachability-matching", report["certificate"])
    return check_certificate(*patterns, verdict)
