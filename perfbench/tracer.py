"""Spans around the public functions of panelalloc, recorded from outside.

The program has no tracing of its own, so a traced pass replaces every
public function of the wrapped modules with a recording wrapper. A function
is replaced at every name a caller looks it up by: the module that defines
it, every module that imported it with ``from .x import y``, the package
namespace, and module-level dicts such as the CLI's command table. Spans
(id, parent id, function, start, end) go into flat arrays in memory and are
written out when the pass ends; a few functions also record facts (argument
keys, sizes of results) from which the per-layer counts are computed.
"""

from __future__ import annotations

import array
import csv
import inspect
import json
import os
import sys
import time
from collections import defaultdict

LAYERS = (
    "cli",
    "config",
    "channel",
    "beamforming",
    "analytic",
    "optimizer",
    "montecarlo",
    "export",
)

PER_LAYER_METRICS = (
    ("optimizer.queries", "count"),
    ("optimizer.query_s", "s"),
    ("optimizer.self_s", "s"),
    ("optimizer.candidates_scored", "count"),
    ("optimizer.enumerate.calls", "count"),
    ("optimizer.enumerate_s", "s"),
    ("optimizer.enumerate.useful_ratio", "ratio"),
    ("optimizer.query.useful_ratio", "ratio"),
    ("analytic.rsnr_mixture.calls", "count"),
    ("analytic.outage_probability.calls", "count"),
    ("analytic.average_rsnr.calls", "count"),
    ("analytic.components", "count"),
    ("analytic.se_cdf.points", "count"),
    ("analytic.self_s", "s"),
    ("montecarlo.run_trials.calls", "count"),
    ("montecarlo.run_trials.useful_ratio", "ratio"),
    ("montecarlo.trials", "count"),
    ("montecarlo.idealized_s", "s"),
    ("montecarlo.realistic_s", "s"),
    ("montecarlo.idealized.trials_per_s", "1/s"),
    ("montecarlo.realistic.trials_per_s", "1/s"),
    ("montecarlo.ks_distance.calls", "count"),
    ("montecarlo.ks_distance_s", "s"),
    ("montecarlo.ks.samples", "count"),
    ("export.files", "count"),
    ("export.rows", "count"),
    ("export.bytes", "count"),
    ("export.self_s", "s"),
    ("export.rows_per_s", "1/s"),
    ("beamforming.build_beamformer.calls", "count"),
    ("beamforming.self_s", "s"),
    ("channel.sample_channel.calls", "count"),
    ("channel.self_s", "s"),
    ("config.load_scenario_s", "s"),
    ("cli.commands", "count"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)

QUERY_FUNCTIONS = ("optimizer.optimize_outmin", "optimizer.optimize_outmin_ase")


class Tracer:
    """In-memory span store; span ids are indices into the flat arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_index: dict[str, int] = {}
        self.parents = array.array("q")
        self.functions = array.array("H")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.facts: dict[int, object] = {}
        self.stack = [-1]

    def wrap(self, qualname: str, fn, hook=None):
        """Return a wrapper recording one span per call of ``fn``.

        ``hook(arguments, result)`` returns the facts kept for the span;
        ``arguments()`` binds the call's arguments to parameter names.
        """
        index = self.name_index.setdefault(qualname, len(self.names))
        if index == len(self.names):
            self.names.append(qualname)
        signature = inspect.signature(fn) if hook is not None else None
        parents, functions, starts, ends = self.parents, self.functions, self.starts, self.ends
        stack, facts, clock = self.stack, self.facts, time.perf_counter

        def wrapper(*args, **kwargs):
            span = len(starts)
            parents.append(stack[-1])
            functions.append(index)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[span] = start
                ends[span] = end
            if hook is not None:
                facts[span] = hook(lambda: _bind(signature, args, kwargs), result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def write(self, path: str) -> None:
        """Write every span as one CSV row: id, parent, function, start, end, facts."""
        with open(path, "w", newline="", encoding="utf-8") as handle:
            out = csv.writer(handle)
            out.writerow(["id", "parent", "function", "start", "end", "facts"])
            for span in range(len(self.starts)):
                fact = self.facts.get(span)
                out.writerow(
                    [
                        span,
                        self.parents[span],
                        self.names[self.functions[span]],
                        repr(self.starts[span]),
                        repr(self.ends[span]),
                        "" if fact is None else json.dumps(fact, default=repr),
                    ]
                )


def _bind(signature, args, kwargs) -> dict:
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def self_times(parents, starts, ends) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    Children of one span never overlap (the program is single-threaded), so
    the sum of their durations is the part of the interval they cover.
    """
    durations = [e - s for s, e in zip(starts, ends)]
    own = list(durations)
    for span, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= durations[span]
    return own


def _key_of(value):
    """Hashable, value-based key for the arguments that make a call distinct."""
    if hasattr(value, "tobytes"):
        return (str(value.dtype), value.shape, value.tobytes())
    if hasattr(value, "q") and isinstance(getattr(value, "q"), tuple):
        return ("alloc", value.q)
    return value


def _hooks() -> dict:
    def call_key(arguments) -> tuple:
        # compared by equality, so np.float64(10.0) and 10.0 are one argument
        return tuple((name, _key_of(value)) for name, value in arguments().items())

    def query(arguments, result):
        return {"key": call_key(arguments), "candidates": len(result.candidates)}

    def enumerate_(arguments, result):
        return {"key": call_key(arguments)}

    def mixture(arguments, result):
        return {"components": int(result.weights.size)}

    def points(arguments, result):
        return {"points": int(getattr(arguments()["se_bits"], "size", 1))}

    def trials(arguments, result):
        bound = arguments()
        return {
            "key": call_key(lambda: bound),
            "mode": bound["mode"],
            "trials": int(bound["n_trials"]),
        }

    def ks(arguments, result):
        return {"samples": int(arguments()["result"].trials)}

    def write(arguments, result):
        return {"path": str(result)}

    return {
        "optimizer.optimize_outmin": query,
        "optimizer.optimize_outmin_ase": query,
        "optimizer.enumerate_allocations": enumerate_,
        "analytic.rsnr_mixture": mixture,
        "analytic.se_cdf": points,
        "montecarlo.run_trials": trials,
        "montecarlo.ks_distance": ks,
        "export.write_csv": write,
    }


def install(tracer: Tracer):
    """Wrap the public functions of every layer module; return an undo callable."""
    import importlib

    hooks = _hooks()
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"panelalloc.{layer}")
        for name, obj in vars(module).items():
            if (
                name.startswith("_")
                or not inspect.isfunction(obj)
                or obj.__module__ != module.__name__
                or inspect.isgeneratorfunction(obj)
            ):
                continue
            qualname = f"{layer}.{name}"
            wrappers[id(obj)] = (obj, tracer.wrap(qualname, obj, hooks.get(qualname)))

    undo = []
    modules = [m for n, m in list(sys.modules.items()) if n == "panelalloc" or n.startswith("panelalloc.")]
    for module in modules:
        namespace = vars(module)
        for name, value in list(namespace.items()):
            if id(value) in wrappers and wrappers[id(value)][0] is value:
                namespace[name] = wrappers[id(value)][1]
                undo.append((namespace, name, value))
            elif isinstance(value, dict) and not name.startswith("__"):
                for key, item in list(value.items()):
                    if id(item) in wrappers and wrappers[id(item)][0] is item:
                        value[key] = wrappers[id(item)][1]
                        undo.append((value, key, item))

    def uninstall() -> None:
        for namespace, name, value in reversed(undo):
            namespace[name] = value

    return uninstall


def count_rows(path) -> tuple[int, int]:
    """Data rows (lines after the comment and the header) and bytes of a CSV."""
    with open(path, "rb") as handle:
        data = handle.read()
    return max(data.count(b"\n") - 2, 0), len(data)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and times of one traced pass (without trace.overhead_s)."""
    names = tracer.names
    own = self_times(tracer.parents, tracer.starts, tracer.ends)
    calls = defaultdict(int)
    inclusive = defaultdict(float)
    layer_self = defaultdict(float)
    for span, fn in enumerate(tracer.functions):
        name = names[fn]
        calls[name] += 1
        layer_self[name.split(".", 1)[0]] += own[span]
        # inclusive time counts only the outermost span of a recursive chain
        parent = tracer.parents[span]
        if parent < 0 or names[tracer.functions[parent]] != name:
            inclusive[name] += tracer.ends[span] - tracer.starts[span]

    facts_by_name = defaultdict(list)
    for span, fact in tracer.facts.items():
        facts_by_name[names[tracer.functions[span]]].append(fact)
    facts_of = facts_by_name.__getitem__

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    queries = [f for name in QUERY_FUNCTIONS for f in facts_of(name)]
    enumerations = facts_of("optimizer.enumerate_allocations")
    runs = facts_of("montecarlo.run_trials")
    trials_by_mode = defaultdict(int)
    time_by_mode = defaultdict(float)
    for span, fact in tracer.facts.items():
        if names[tracer.functions[span]] == "montecarlo.run_trials":
            trials_by_mode[fact["mode"]] += fact["trials"]
            time_by_mode[fact["mode"]] += tracer.ends[span] - tracer.starts[span]

    written = {fact["path"] for fact in facts_of("export.write_csv")}
    rows = size = 0
    for path in written:
        if os.path.exists(path):
            r, b = count_rows(path)
            rows += r
            size += b
    export_s = inclusive["export.write_csv"]

    metrics = {
        "optimizer.queries": len(queries),
        "optimizer.query_s": sum(inclusive[name] for name in QUERY_FUNCTIONS),
        "optimizer.self_s": layer_self["optimizer"],
        "optimizer.candidates_scored": sum(f["candidates"] for f in queries),
        "optimizer.enumerate.calls": calls["optimizer.enumerate_allocations"],
        "optimizer.enumerate_s": inclusive["optimizer.enumerate_allocations"],
        "optimizer.enumerate.useful_ratio": ratio(
            len({f["key"] for f in enumerations}), len(enumerations)
        ),
        "optimizer.query.useful_ratio": ratio(len({f["key"] for f in queries}), len(queries)),
        "analytic.rsnr_mixture.calls": calls["analytic.rsnr_mixture"],
        "analytic.outage_probability.calls": calls["analytic.outage_probability"],
        "analytic.average_rsnr.calls": calls["analytic.average_rsnr"],
        "analytic.components": sum(f["components"] for f in facts_of("analytic.rsnr_mixture")),
        "analytic.se_cdf.points": sum(f["points"] for f in facts_of("analytic.se_cdf")),
        "analytic.self_s": layer_self["analytic"],
        "montecarlo.run_trials.calls": calls["montecarlo.run_trials"],
        "montecarlo.run_trials.useful_ratio": ratio(len({f["key"] for f in runs}), len(runs)),
        "montecarlo.trials": sum(trials_by_mode.values()),
        "montecarlo.idealized_s": time_by_mode["idealized"],
        "montecarlo.realistic_s": time_by_mode["realistic"],
        "montecarlo.ks_distance.calls": calls["montecarlo.ks_distance"],
        "montecarlo.ks_distance_s": inclusive["montecarlo.ks_distance"],
        "montecarlo.ks.samples": sum(f["samples"] for f in facts_of("montecarlo.ks_distance")),
        "export.files": len(written),
        "export.rows": rows,
        "export.bytes": size,
        "export.self_s": layer_self["export"],
        "export.rows_per_s": ratio(rows, export_s),
        "beamforming.build_beamformer.calls": calls["beamforming.build_beamformer"],
        "beamforming.self_s": layer_self["beamforming"],
        "channel.sample_channel.calls": calls["channel.sample_channel"],
        "channel.self_s": layer_self["channel"],
        "config.load_scenario_s": inclusive["config.load_scenario"],
        "cli.commands": calls["cli.main"],
        "cli.self_s": layer_self["cli"],
    }
    metrics["montecarlo.idealized.trials_per_s"] = ratio(
        trials_by_mode["idealized"], metrics["montecarlo.idealized_s"]
    )
    metrics["montecarlo.realistic.trials_per_s"] = ratio(
        trials_by_mode["realistic"], metrics["montecarlo.realistic_s"]
    )
    return metrics

