"""Benchmark `structctl verify` end to end, and layer by layer when traced.

    python3 bench/run.py --workload central-large --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all

One closed-loop client: this process calls `structctl.cli.main(argv)` in
process, one call after another, with stdout captured and parsed.  A run
makes its workload's input files from the seed, then repeats passes over them
for about `--seconds` (at least one pass).  Every answer is cross-checked
outside the timed region.  `--trace 1` adds one untraced pass and then times
traced passes, with spans recorded at the module boundaries (see tracer.py).

The run's report goes to stdout; its last line is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.  The full record,
provenance included, is also written to `bench/out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_RUNS = 9
P90_MIN_CALLS = 100  # 10 samples beyond the 90th percentile

END_TO_END = {"verify_norm_s": "s", "verify_norm_ms_p50": "ms", "peak_rss_mb": "MB",
              "setup_s": "s"}
BURST_EVERY_S = 0.5

if not (SRC / "structctl" / "cli.py").is_file():
    sys.exit(f"bench: no structctl sources under {SRC}")
sys.path.insert(0, str(SRC))

import structctl  # noqa: E402
from structctl import cli  # noqa: E402
from structctl.model import assemble_global, load  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

if Path(structctl.__file__).resolve().parent != SRC / "structctl":
    sys.exit(f"bench: imported structctl from {structctl.__file__}, not from {SRC}")

PER_LAYER_UNITS = {
    **{f"{n}_s": "s" for n in tracing.SPAN_NAMES},
    **{f"{n}.calls": "count" for n in tracing.SPAN_NAMES},
    **{f"{layer}.self_s": "s" for layer in tracing.LAYERS},
    "centralized.verify.self_s": "s",
    **{f"distributed.phase.{p}.messages": "count" for p in checks.PHASES},
    **{f"distributed.phase.{p}.bytes": "bytes" for p in checks.PHASES},
    "runtime.messages": "count",
    "runtime.trace_bytes": "bytes",
    "runtime.rounds": "count",
    "trace.overhead_s": "s",
}


# ---------------------------------------------------------------------------
# one pass


class Pass:
    """Timings and counts of one pass over a workload's calls."""

    def __init__(self) -> None:
        self.bursts: list[float] = []  # hostspeed.burst() every BURST_EVERY_S
        self.bracket: list[int] = []  # per call, the burst just before it
        self.attempted = 0
        self.latencies: list[float] = []
        self.verify_s = 0.0
        self.replay_s = 0.0
        self.replays = 0
        self.messages = 0
        self.payload_bytes = 0
        self.rounds = 0
        self.exit_codes = [0, 0, 0]
        self.failures: list[str] = []
        self.phases = {p: [0, 0] for p in checks.PHASES}

    def normalized(self) -> list[float]:
        """Each call's latency divided by the host factor of the two bursts
        around it."""
        return [
            x * 2 * hostspeed.QUIET_S / (self.bursts[b] + self.bursts[b + 1])
            for x, b in zip(self.latencies, self.bracket)
        ]


def _call(argv: list[str]) -> tuple[int, str, float]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = perf_counter()
        code = cli.main(argv)
        elapsed = perf_counter() - t0
    return code, out.getvalue(), elapsed


def run_pass(calls: list, tracer: tracing.Tracer | None = None) -> Pass:
    result = Pass()
    gc.collect()
    result.bursts.append(hostspeed.burst())
    last_burst = perf_counter()
    for k, call in enumerate(calls):
        if perf_counter() - last_burst >= BURST_EVERY_S:
            result.bursts.append(hostspeed.burst())
            last_burst = perf_counter()
        try:
            problems = _one_call(call, result, tracer, k)
        except Exception:
            problems = ["raised\n" + traceback.format_exc()]
        if tracer is not None:
            tracer.runs.clear()
        result.attempted += 1
        if problems:
            result.failures.append(f"{call.mode} {call.path}: " + "; ".join(problems))
    result.bursts.append(hostspeed.burst())
    return result


def _one_call(call, result: Pass, tracer: tracing.Tracer | None, k: int) -> list[str]:
    if tracer is not None:
        tracer.call = k
        span = tracer.open("cli.main")
    try:
        code, text, elapsed = _call(call.argv)
    finally:
        if tracer is not None:
            tracer.close(span)
    result.latencies.append(elapsed)
    result.bracket.append(len(result.bursts) - 1)
    result.verify_s += elapsed
    result.exit_codes[code] += 1
    report = json.loads(text)
    problems = checks.cross_check(call.mode, code, report, call.expect)

    if call.mode == "centralized" and code in (0, 1):
        patterns = assemble_global(load(call.path))
        if tracer is not None:
            span = tracer.open("centralized.replay")
        t0 = perf_counter()
        ok = checks.replay(report, patterns)
        result.replay_s += perf_counter() - t0
        if tracer is not None:
            tracer.close(span)
        result.replays += 1
        if not ok:
            problems.append("certificate does not replay")
    if call.mode in ("distributed", "serial") and code in (0, 1):
        result.messages += report["messages"]["count"]
        result.payload_bytes += report["messages"]["payload_bytes"]
        result.rounds += report["rounds"]
    if tracer is not None:
        problems += _count_messages(result, call.mode, report, tracer.runs)
    return problems


def _count_messages(result: Pass, mode: str, report: dict, runs: list) -> list[str]:
    """Add a traced distributed call's messages to the pass's phase counters;
    the phase sums must equal the report's message totals."""
    if mode != "distributed":
        return []
    problems = []
    for run in runs:
        counts = checks.phase_counts(run.trace)
        for phase, (msgs, size) in counts.items():
            result.phases[phase][0] += msgs
            result.phases[phase][1] += size
        totals = [sum(c[0] for c in counts.values()), sum(c[1] for c in counts.values())]
        stats = report.get("messages", {})
        if totals != [stats.get("count"), stats.get("payload_bytes")]:
            problems.append(f"phase sums {totals} differ from report {stats}")
    return problems


# ---------------------------------------------------------------------------
# a run


def measure_setup() -> list[tuple[float, float]]:
    """`SETUP_RUNS` times: seconds to import structctl.cli in a fresh
    interpreter, and a host-speed burst timed right after it in the same
    interpreter."""
    code = ("import time; t = time.perf_counter(); import structctl.cli; "
            "t = time.perf_counter() - t; import hostspeed; print(t, hostspeed.burst())")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(BENCH)])}
    times = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        seconds, burst = map(float, done.stdout.split())
        times.append((seconds, burst))
    return times


def passes_for(seconds: float, calls: list, tracer: tracing.Tracer | None = None,
               spent: float = 0.0) -> list[Pass]:
    """Passes until the next one would end after `seconds` (at least one)."""
    done = []
    while True:
        t0 = perf_counter()
        if tracer is not None:
            tracer.install()
        try:
            done.append(run_pass(calls, tracer))
        finally:
            if tracer is not None:
                tracer.uninstall()
        took = perf_counter() - t0
        spent += took
        if spent + took > seconds:
            return done


def provenance() -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "commit": _git_commit(),
        "src_lines": lines,
        "src_sha256": digest.hexdigest()[:16],
    }


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() or None


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(passes: list[Pass], setup: list[tuple[float, float]]) -> dict:
    """Every end-to-end metric as `{value, unit, samples}`; metrics a workload
    does not exercise carry `value: None`."""
    lat_ms = sorted(1e3 * x for p in passes for x in p.latencies)
    normalized = [p.normalized() for p in passes]
    norm_ms = sorted(1e3 * x for p in normalized for x in p)
    bursts = [b for p in passes for b in p.bursts]
    setup_norm = [t * hostspeed.QUIET_S / b for t, b in setup]
    first = passes[0]
    distributed = first.messages > 0

    def metric(value, unit, samples):
        return {"value": value, "unit": unit, "samples": samples}

    out = {
        "verify_norm_s": metric(_median([sum(p) for p in normalized]), "s", len(passes)),
        "verify_norm_ms_p50": metric(_median(norm_ms), "ms", len(norm_ms)),
        "host_factor": metric(_median(bursts) / hostspeed.QUIET_S, "ratio", len(bursts)),
        "verify_s": metric(_median([p.verify_s for p in passes]), "s", len(passes)),
        "verify_ms_p50": metric(_median(lat_ms), "ms", len(lat_ms)),
        "verify_ms_p90": metric(
            statistics.quantiles(lat_ms, n=10)[-1] if len(lat_ms) >= P90_MIN_CALLS else None,
            "ms", len(lat_ms)),
        "replay_s": metric(_median([p.replay_s for p in passes]) if first.replays else None,
                           "s", sum(p.replays for p in passes)),
        "messages": metric(first.messages if distributed else None, "count", 1),
        "payload_mb": metric(first.payload_bytes / 1e6 if distributed else None, "MB", 1),
        "rounds": metric(first.rounds if distributed else None, "count", 1),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                              "MB", 1),
        "setup_s": metric(_median(setup_norm), "s", len(setup)),
        "setup_wall_s": metric(_median([t for t, _ in setup]), "s", len(setup)),
    }
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    out["failed_frac"] = metric(failed / attempted, "ratio", attempted)
    return out


def per_layer(untraced: Pass, traced: list[Pass], spans: list) -> dict:
    """Per traced pass.  Span times are wall time; the tracing overhead is
    normalized like `verify_norm_s`, since the host may change speed between
    the untraced pass and the traced ones."""
    n = len(traced)
    out = {k: v // n if k.endswith(".calls") else v / n
           for k, v in tracing.summarize(spans).items()}
    for phase in checks.PHASES:
        out[f"distributed.phase.{phase}.messages"] = traced[0].phases[phase][0]
        out[f"distributed.phase.{phase}.bytes"] = traced[0].phases[phase][1]
    out["runtime.messages"] = traced[0].messages
    out["runtime.trace_bytes"] = traced[0].payload_bytes
    out["runtime.rounds"] = traced[0].rounds
    out["trace.overhead_s"] = (_median([sum(p.normalized()) for p in traced])
                               - sum(untraced.normalized()))
    return {k: {"value": out[k], "unit": unit} for k, unit in PER_LAYER_UNITS.items()}


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"inputs-{workload}-{seed}-", dir=OUT)
    try:
        t0 = perf_counter()
        calls = workloads.WORKLOADS[workload](seed, workdir)
        make_s = perf_counter() - t0
        setup = measure_setup()
        if trace:
            t0 = perf_counter()
            untraced = run_pass(calls)
            tracer = tracing.Tracer()
            passes = [untraced] + passes_for(seconds, calls, tracer, perf_counter() - t0)
        else:
            passes = passes_for(seconds, calls)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # A traced run's end-to-end figures come from its untraced pass alone.
    e2e = end_to_end(passes[:1] if trace else passes, setup)
    failures = [f for p in passes for f in p.failures]
    attempted = sum(p.attempted for p in passes)
    if trace:
        metrics = per_layer(passes[0], passes[1:], tracer.spans)
        tracer.dump(str(OUT / f"spans-{workload}-{seed}.jsonl"))
    else:
        metrics = {k: {"value": e2e[k]["value"], "unit": u} for k, u in END_TO_END.items()}
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "provenance": provenance(),
        "calls_per_pass": len(calls),
        "passes": len(passes),
        "inputs_s": make_s,
        "exit_codes": dict(zip("012", passes[0].exit_codes)),
        "end_to_end": e2e,
        "per_layer": metrics if trace else None,
        "failures": failures[:20],
    }
    (OUT / f"{workload}-{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    _print_report(record)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def _print_report(record: dict) -> None:
    prov = record["provenance"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"{record['calls_per_pass']} calls x {record['passes']} passes  "
          f"exit codes 0/1/2 = {'/'.join(map(str, record['exit_codes'].values()))}")
    print("machine  " + "  ".join(f"{k}={v}" for k, v in prov.items()))
    for name, m in record["end_to_end"].items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:<16} {value:>14} {m['unit']:<6} n={m['samples']}")
    if record["per_layer"]:
        for name, m in record["per_layer"].items():
            print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    for failure in record["failures"]:
        print(f"FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    status = 0
    for name in workloads.WORKLOADS:  # one process each, so peak RSS is per workload
        done = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT)
        status = status or done.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
