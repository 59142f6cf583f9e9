"""Spans at the module boundaries of structctl, recorded from outside it.

`Tracer.install()` rebinds the public names each module looks up (say
`structctl.centralized.system_bipartite`) to wrappers that open a span around
the call, and `uninstall()` puts the originals back.  Agent programs handed to
`runtime.run` are wrapped in a generator that times each step; an agent gets
one span per call whose `busy` is the summed step time, so the runtime's own
time is the `run` span minus its agents' busy time.

Spans stay in memory as lists `[name, start, end, parent, call, busy]` and are
written once, by the caller, when the run ends.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name).  The span name's first part is its layer.
HOOKS = [
    ("structctl.cli", "system_from_obj", "model.parse"),
    ("structctl.cli", "similar_from_obj", "model.parse"),
    ("structctl.cli", "expand", "model.parse"),
    ("structctl.cli", "assemble_global", "model.assemble"),
    ("structctl.cli", "verify", "centralized.verify"),
    ("structctl.cli", "run", "runtime.run"),
    ("structctl.cli", "is_serial", "serial.is_serial"),
    ("structctl.cli", "check_via_collapse", "similar.check"),
    ("structctl.cli", "check_cycle_cover", "similar.check"),
    ("structctl.centralized", "system_digraph", "model.graph_build"),
    ("structctl.centralized", "system_bipartite", "model.graph_build"),
    ("structctl.centralized", "input_reachable_with_parents", "graphkit.reach"),
    ("structctl.centralized", "max_matching", "graphkit.matching"),
    ("structctl.centralized", "right_deficiency_witness", "graphkit.witness"),
    ("structctl.similar", "verify", "centralized.verify"),
    ("structctl.similar", "system_bipartite", "model.graph_build"),
    ("structctl.similar", "max_matching", "graphkit.matching"),
    ("structctl.serial", "condensed_graph", "model.graph_build"),
    ("structctl.serial", "system_bipartite", "model.graph_build"),
    ("structctl.serial", "system_digraph", "model.graph_build"),
    ("structctl.serial", "min_weight_max_matching", "graphkit.matching"),
    ("structctl.serial", "non_top_linked_components", "graphkit.scc"),
    ("structctl.runtime", "condensed_graph", "model.graph_build"),
    ("structctl.runtime", "is_weakly_connected", "model.graph_build"),
    ("structctl.distributed", "state_digraph", "model.graph_build"),
    ("structctl.distributed", "scc", "graphkit.scc"),
]

# Program factories the CLI calls; the program they return is timed per step.
AGENT_HOOKS = [
    ("structctl.cli", "controlled_program", "distributed.agent"),
    ("structctl.cli", "seq_strt_ctl_variant", "serial.agent"),
]

SPAN_NAMES = sorted(
    {name for _, _, name in HOOKS + AGENT_HOOKS}
    | {"cli.main", "centralized.replay"}
)
LAYERS = ("cli", "model", "graphkit", "centralized", "runtime",
          "distributed", "serial", "similar")

NAME, START, END, PARENT, CALL, BUSY = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.call = 0
        self.runs: list = []  # RunResults of the current call, for message counts
        self._saved: list = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, perf_counter(), None, parent, self.call, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter()
        self.stack.pop()

    def wrap(self, fn, name: str, keep: list | None = None):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if keep is not None:
                keep.append(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_program(self, program, name: str):
        def traced_program(ctx):
            return self._timed_agent(program(ctx), name)

        return traced_program

    def _timed_agent(self, gen, name: str):
        idx = None
        resume = None
        while True:
            t0 = perf_counter()
            if idx is None:
                idx = len(self.spans)
                parent = self.stack[-1] if self.stack else None
                self.spans.append([name, t0, t0, parent, self.call, 0.0])
            self.stack.append(idx)
            try:
                action = gen.send(resume)
            except StopIteration as stop:
                return stop.value
            finally:
                self.stack.pop()
                t1 = perf_counter()
                span = self.spans[idx]
                span[END] = t1
                span[BUSY] += t1 - t0
            resume = yield action

    # -- rebinding ---------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, name in HOOKS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            keep = self.runs if name == "runtime.run" else None
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(fn, name, keep))
        for mod_name, attr, name in AGENT_HOOKS:
            mod = importlib.import_module(mod_name)
            factory = getattr(mod, attr)
            self._saved.append((mod, attr, factory))
            setattr(mod, attr, self._wrap_factory(factory, name))

    def _wrap_factory(self, factory, name: str):
        def traced_factory(*args, **kwargs):
            return self.wrap_program(factory(*args, **kwargs), name)

        return traced_factory

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("name", "start", "end", "parent", "call", "busy"), span
                ))) + "\n")


# ---------------------------------------------------------------------------
# arithmetic


def duration(span: list) -> float:
    """Busy time for an agent span, wall time for every other span."""
    return span[BUSY] if span[BUSY] is not None else span[END] - span[START]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [duration(s) for s in spans]
    out = list(own)
    for s, d in zip(spans, own):
        if s[PARENT] is not None:
            out[s[PARENT]] -= d
    return out


def summarize(spans: list[list]) -> dict[str, float]:
    """`<name>_s` (summed duration) and `<name>.calls` for every span name,
    `<layer>.self_s` for every layer, and `centralized.verify.self_s`."""
    selfs = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    own: dict[str, float] = defaultdict(float)
    for s, self_s in zip(spans, selfs):
        name = s[NAME]
        total[name] += duration(s)
        calls[name] += 1
        own[name] += self_s
        own[name.split(".", 1)[0]] += self_s
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}_s"] = total[name]
        out[f"{name}.calls"] = calls[name]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = own[layer]
    out["centralized.verify.self_s"] = own["centralized.verify"]
    return out
