"""Command-line front end: verify systems, generate instances, inspect traces.

Exit codes: 0 when the system is controllable (or the requested condition
holds), 1 when it is not, 2 for bad input, bad usage, a check whose
preconditions the instance does not meet, an inconclusive result, or an
internal error.  None of these ever turns into a 0/1 verdict.  The
machine-readable JSON report goes to stdout; a one-line human summary goes to
stderr.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys

from .centralized import PROBE_MAX_STATES, certify_digraph, numeric_probe
from .distributed import controlled_program
from .model import (
    Graph,
    InterconnectedSystem,
    ModelError,
    assemble_global,
    block_digraph,
    dumps,
    graph_from_obj,
    indented_json,
    random_serial_system,
    random_system,
    system_from_obj,
)
from .runtime import DisconnectedError, RunResult, run
from .serial import is_serial, seq_strt_ctl_variant
from .similar import (
    SimilarSystemSpec,
    check_cycle_cover,
    check_via_collapse,
    expand,
    random_similar_spec,
    similar_dumps,
    similar_from_obj,
)

# Not called: centralized mode builds its graph from the blocks and runs
# `certify_digraph`.  Kept importable for the benchmark hook on `cli.verify`.
from .centralized import verify  # noqa: F401

MODES = ("centralized", "distributed", "serial", "similar-thm1", "similar-thm2")


class CliError(Exception):
    """Anything that should end the process with exit code 2."""

    def __init__(self, message: str, details: dict | None = None):
        super().__init__(message)
        self.details = details


# ---------------------------------------------------------------------------
# input loading


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: invalid JSON: {exc}") from None


def _load_system(path: str) -> InterconnectedSystem:
    """A system file, or a similar-template file expanded into one."""
    obj = _load_json(path)
    try:
        if isinstance(obj, dict) and "similar" in obj:
            return expand(similar_from_obj(obj))
        return system_from_obj(obj)
    except ModelError as exc:
        raise CliError(f"{path}: {exc}") from None


def _load_similar(path: str) -> SimilarSystemSpec:
    obj = _load_json(path)
    if not (isinstance(obj, dict) and "similar" in obj):
        raise CliError(
            f"{path}: the similar checks need a template file "
            '(a top-level "similar" object), not a plain system file'
        )
    try:
        return similar_from_obj(obj)
    except ModelError as exc:
        raise CliError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# verify


def _message_stats(result: RunResult) -> dict:
    return {
        "count": len(result.trace),
        "payload_bytes": sum(len(rec.payload) for rec in result.trace),
    }


def _write_trace(path: str, result: RunResult, outputs: dict | None = None) -> None:
    """Message trace as JSONL; distributed runs append one per-pass region
    snapshot line per agent after the messages."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(result.trace.to_jsonl())
            if outputs:
                for i in sorted(outputs):
                    for snap in outputs[i].get("states", ()):
                        fh.write(json.dumps({"agent": i, **snap}, sort_keys=True) + "\n")
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror or exc}") from None


def _unanimous(verdicts: dict[str, bool]) -> bool:
    """The one verdict every agent returned; agents that disagree are a fault
    in the protocol, never a 0/1 answer."""
    values = set(verdicts.values())
    if len(values) != 1:
        raise RuntimeError(f"agents disagree on the verdict: {verdicts}")
    return values.pop()


def _load_graph(path: str, probe: bool) -> tuple[Graph, int, int, int, tuple | None]:
    """The graph of a system file's (A, B) with its subsystem, state and input
    counts, and the (A, B) patterns when ``probe`` asks for the numeric probe
    and the states are few enough for it.  Nothing of the decoded file
    outlives the call."""
    obj = _load_json(path)
    try:
        if isinstance(obj, dict) and "similar" in obj:
            system = expand(similar_from_obj(obj))
            graph, r, n, p = block_digraph(system), system.r, system.n_total, system.p_total
        else:
            system = None
            graph, r, n, p = graph_from_obj(obj)
        patterns = None
        if probe and n <= PROBE_MAX_STATES:
            patterns = assemble_global(system or system_from_obj(obj))
    except ModelError as exc:
        raise CliError(f"{path}: {exc}") from None
    return graph, r, n, p, patterns


def _verify_centralized(args) -> tuple[dict, bool]:
    graph, r, n, p, patterns = _load_graph(args.input, args.seed is not None)
    # The report writer writes the certificate straight from its vertex ids.
    cert = certify_digraph(graph, n)
    report = {
        "controllable": cert.controllable,
        "certificate": cert,
        "subsystems": r,
        "states": n,
        "inputs": p,
    }
    if args.seed is not None:
        probe = {"seed": args.seed}
        if patterns is not None:
            probe["full_rank"] = numeric_probe(*patterns, seed=args.seed)
        else:
            probe["skipped"] = (
                f"{n} states exceed the numeric probe's limit of {PROBE_MAX_STATES}"
            )
        report["numeric_probe"] = probe
    return report, cert.controllable


def _verify_distributed(args) -> tuple[dict, bool]:
    system = _load_system(args.input)
    program = controlled_program(
        drop_incoming_boundary=args.fig5_simplify,
        collect_states=bool(args.trace),
    )
    try:
        result = run(system, program)
    except DisconnectedError as exc:
        raise CliError(str(exc)) from None
    outs = result.outputs
    verdicts = {str(i): bool(out["ctld"]) for i, out in sorted(outs.items())}
    controllable = _unanimous(verdicts)
    agents = {
        str(i): {k: v for k, v in out.items() if k != "states"}
        for i, out in sorted(outs.items())
    }
    # None when some agent never saw all of its states become reachable.
    completions = [out["reached_completed"] for out in outs.values()]
    iterations = max(completions) if all(c is not None for c in completions) else None
    report = {
        "controllable": controllable,
        "agents": agents,
        "agent_verdicts": verdicts,
        "rounds": result.rounds,
        "messages": _message_stats(result),
        "reachability_iterations": iterations,
        "matching_size": sum(out["sink_flow"] for out in outs.values()),
        "states": sum(out["n"] for out in outs.values()),
        "fig5_simplify": args.fig5_simplify,
    }
    if args.trace:
        _write_trace(args.trace, result, outs)
    if args.fig5_simplify and not controllable:
        # Ignoring the incoming boundary can lose matching flow, so the
        # simplified run says "not controllable" on some controllable systems.
        raise CliError(
            "--fig5-simplify: a negative result of the simplified run is "
            "inconclusive; run without --fig5-simplify for a verdict",
            details={"matching_size": report["matching_size"], "states": report["states"]},
        )
    return report, controllable


def _verify_serial(args) -> tuple[dict, bool]:
    system = _load_system(args.input)
    check = is_serial(system)
    if not check.is_serial:
        raise CliError(
            f"system is not serial (primal): offending subsystems "
            f"{list(check.offenders)}",
            details={"offending_subsystems": list(check.offenders)},
        )
    try:
        result = run(system, seq_strt_ctl_variant())
    except DisconnectedError as exc:
        raise CliError(str(exc)) from None
    verdicts = {str(i): bool(v) for i, v in sorted(result.outputs.items())}
    holds = _unanimous(verdicts)
    report = {
        "condition": "sequential stacked-neighborhood controllability",
        "holds": holds,
        "agent_verdicts": verdicts,
        "rounds": result.rounds,
        "messages": _message_stats(result),
        "subsystems": system.r,
    }
    if args.trace:
        _write_trace(args.trace, result)
    return report, holds


def _verify_similar(args) -> tuple[dict, bool]:
    spec = _load_similar(args.input)
    check = check_via_collapse if args.mode == "similar-thm1" else check_cycle_cover
    result = check(spec)
    if result.status == "precondition-unmet":
        raise CliError(
            f"{args.mode}: precondition unmet", details=dict(result.details)
        )
    report = {
        "status": result.status,
        "details": dict(result.details),
        "copies": spec.r,
        "template_states": spec.n,
        "template_inputs": spec.p,
    }
    return report, result.status == "true"


def cmd_verify(args) -> tuple[dict, int]:
    if args.seed is not None and args.seed < 0:
        raise CliError(f"--seed must be a non-negative integer, got {args.seed}")
    if args.seed is not None and args.mode != "centralized":
        raise CliError("--seed only applies to --mode centralized")
    if args.fig5_simplify and args.mode != "distributed":
        raise CliError("--fig5-simplify only applies to --mode distributed")
    if args.trace and args.mode not in ("distributed", "serial"):
        raise CliError(f"--trace does not apply to --mode {args.mode}: no messages")
    handlers = {
        "centralized": _verify_centralized,
        "distributed": _verify_distributed,
        "serial": _verify_serial,
        "similar-thm1": _verify_similar,
        "similar-thm2": _verify_similar,
    }
    body, truth = handlers[args.mode](args)
    report = {"command": "verify", "mode": args.mode, "input": args.input}
    if args.seed is not None:
        report["seed"] = args.seed
    if args.trace:
        report["trace"] = args.trace
    report.update(body)
    report["verdict"] = truth
    return report, 0 if truth else 1


def _summary_verify(report: dict) -> str:
    mode = report["mode"]
    if mode in ("centralized", "distributed"):
        word = "controllable" if report["controllable"] else "not controllable"
        return f"{mode}: {report['input']} is {word}"
    if mode == "serial":
        word = "holds" if report["holds"] else "fails"
        return f"serial: the sequential condition {word} on {report['input']}"
    return f"{mode}: {report['status']} on {report['input']}"


# ---------------------------------------------------------------------------
# gen


def _parse_range(text: str, flag: str) -> tuple[int, int]:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise CliError(f"{flag}: expected an integer or lo:hi, got {text!r}") from None
    if lo < 0 or hi < lo:
        raise CliError(f"{flag}: bad range {text!r}")
    return lo, hi


def cmd_gen(args) -> tuple[dict, int]:
    if args.seed < 0:
        raise CliError(f"--seed must be a non-negative integer, got {args.seed}")
    if args.r < 1:
        raise CliError(f"--r must be at least 1, got {args.r}")
    if not 0.0 <= args.density <= 1.0:
        raise CliError(f"--density must be in [0, 1], got {args.density}")
    n_range = _parse_range(args.n, "--n")
    if n_range[0] < 1:
        raise CliError(f"--n: every subsystem needs at least 1 state, got {args.n!r}")
    p_range = _parse_range(args.p, "--p")

    if args.kind == "similar":
        spec = random_similar_spec((args.r, args.r), n_range, p_range, args.density, args.seed)
        text = similar_dumps(spec)
        shape = {"copies": spec.r, "template_states": spec.n, "template_inputs": spec.p}
    else:
        make = random_serial_system if args.kind == "serial" else random_system
        system = make(args.r, n_range, p_range, args.density, args.seed)
        text = dumps(system)
        shape = {"subsystems": system.r, "states": sum(s.n for s in system.subsystems)}

    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"{args.out}: {exc.strerror or exc}") from None

    report = {
        "command": "gen",
        "kind": args.kind,
        "seed": args.seed,
        "out": args.out,
        **shape,
    }
    return report, 0


# ---------------------------------------------------------------------------
# trace


def cmd_trace(args) -> tuple[dict, int]:
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise CliError(f"{args.input}: {exc.strerror or exc}") from None

    kept = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CliError(f"{args.input}:{lineno}: invalid JSON: {exc}") from None
        if not isinstance(rec, dict):
            raise CliError(f"{args.input}:{lineno}: expected an object")
        if "round" in rec and "from" in rec and "to" in rec:
            if args.round is not None and rec["round"] != args.round:
                continue
            if args.agent is not None and args.agent not in (rec["from"], rec["to"]):
                continue
        elif "pass" in rec and "agent" in rec:
            # Region snapshots carry no round number; a round filter drops them.
            if args.round is not None:
                continue
            if args.agent is not None and rec["agent"] != args.agent:
                continue
        else:
            raise CliError(
                f"{args.input}:{lineno}: neither a message record nor a snapshot"
            )
        kept.append(line)

    for line in kept:
        print(line)
    return {"_summary": f"{len(kept)} of {sum(1 for l in lines if l.strip())} records"}, 0


# ---------------------------------------------------------------------------
# wiring


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first :func:`main` call of the
    process (not at import) and reused by every later one."""
    parser = argparse.ArgumentParser(
        prog="structctl",
        description="Structural controllability of interconnected linear systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check a system file")
    p_verify.add_argument("--mode", required=True, choices=MODES)
    p_verify.add_argument("--input", required=True, metavar="FILE")
    p_verify.add_argument("--seed", type=int, default=None, metavar="U64")
    p_verify.add_argument("--trace", default=None, metavar="FILE",
                          help="write the message trace as JSONL")
    p_verify.add_argument("--fig5-simplify", action="store_true",
                          help="distributed mode: regions ignore their incoming boundary")
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("gen", help="generate a seeded random instance")
    p_gen.add_argument("--r", type=int, required=True, help="number of subsystems (copies)")
    p_gen.add_argument("--n", default="1:4", metavar="LO:HI", help="states per subsystem")
    p_gen.add_argument("--p", default="0:2", metavar="LO:HI", help="inputs per subsystem")
    p_gen.add_argument("--density", type=float, default=0.3)
    kind = p_gen.add_mutually_exclusive_group(required=True)
    kind.add_argument("--serial", dest="kind", action="store_const", const="serial")
    kind.add_argument("--similar", dest="kind", action="store_const", const="similar")
    kind.add_argument("--general", dest="kind", action="store_const", const="general")
    p_gen.add_argument("--seed", type=int, required=True, metavar="U64")
    p_gen.add_argument("--out", required=True, metavar="FILE")
    p_gen.set_defaults(func=cmd_gen)

    p_trace = sub.add_parser("trace", help="filter a JSONL trace file")
    p_trace.add_argument("--input", required=True, metavar="FILE")
    p_trace.add_argument("--round", type=int, default=None)
    p_trace.add_argument("--agent", type=int, default=None)
    p_trace.set_defaults(func=cmd_trace)
    return parser


def main(argv=None) -> int:
    # Collector passes would only rescan what the command keeps until it returns.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _run_command(argv)
    except BrokenPipeError:
        # Downstream closed stdout (e.g. piped into head): go quiet and point
        # the stream at devnull so the interpreter's final flush stays silent.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    finally:
        if gc_was_enabled:
            gc.enable()


def _run_command(argv) -> int:
    args = _build_parser().parse_args(argv)
    try:
        report, code = args.func(args)
    except CliError as exc:
        err = {"command": args.command, "error": str(exc)}
        if exc.details is not None:
            err["details"] = exc.details
        print(indented_json(err))
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        raise  # main() quiets a closed stdout
    except Exception as exc:
        # A fault inside the checks is never a verdict: exit 1 would claim a
        # verified negative.  traceback is imported here, not at start-up,
        # because only this path needs it.
        import traceback

        traceback.print_exc()
        message = f"internal error: {type(exc).__name__}: {exc}"
        err = {"command": args.command, "error": message}
        print(indented_json(err))
        print(f"error: {message}", file=sys.stderr)
        return 2

    summary = report.pop("_summary", None)
    if summary is None:
        print(indented_json(report))
        if args.command == "verify":
            summary = _summary_verify(report)
        else:
            summary = f"wrote {report['kind']} instance (r={report.get('subsystems', report.get('copies'))}) to {report['out']}"
    print(summary, file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
