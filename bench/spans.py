"""In-memory span tracer for the traced pass, and the csvgd functions it wraps.

A target names the attribute through which csvgd looks a function up at call
time: ``csvgd.engine:gc.distance_matrix`` is the ``distance_matrix`` that the
engine reaches through its ``gc`` alias, and ``csvgd.experiments:run_csvgd``
is the name the experiments module imported.  Patching there catches every
call however the function moved.  A target that no longer resolves is
reported as missing and the run goes on without it.

Spans live in a list until the traced command ends.  A span's self time is
its duration minus the durations of its direct children, so the self times
of all spans inside the timed window plus the uncovered remainder add up to
the window's wall time.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    name: str          # span (or counter) name the calls are booked under
    path: str          # "module:attr.attr" where callers look the function up
    kind: str = "span"  # "span" times the call; "count" only counts it
    required: bool = True  # False: an entry point that may not exist yet


TARGETS = (
    Target("likelihoods.score", "csvgd.likelihoods:RegressionTarget.score_and_mse"),
    Target("likelihoods.score", "csvgd.likelihoods:RegressionTarget.score_and_mse_batch",
           required=False),
    Target("likelihoods.score", "csvgd.likelihoods:MvnTarget.score_and_mse"),
    Target("likelihoods.score", "csvgd.likelihoods:MvnTarget.score_and_mse_batch"),
    Target("network.forward", "csvgd.mechanics:network.forward_batch"),
    Target("network.forward", "csvgd.mechanics:network.forward"),
    Target("network.grad_input", "csvgd.mechanics:network.grad_input_batch"),
    Target("network.grad_input", "csvgd.mechanics:network.grad_input"),
    Target("network.grad_params_dirderiv",
           "csvgd.mechanics:network.grad_params_dirderiv_batch"),
    Target("network.grad_params_dirderiv", "csvgd.mechanics:network.grad_params_dirderiv"),
    Target("network.with_values", "csvgd.network:LayeredNet.with_values"),
    Target("mechanics.invariants", "csvgd.mechanics:invariants_batch"),
    Target("mechanics.invariants", "csvgd.mechanics:invariant_derivatives_batch"),
    Target("mechanics.stress", "csvgd.mechanics:stress_batch"),
    Target("mechanics.generate_data", "csvgd.experiments:generate_data"),
    Target("priors.prior_score", "csvgd.engine:prior_score"),
    Target("engine.stein_gradient", "csvgd.engine:stein_gradient"),
    Target("condense.distance_matrix", "csvgd.engine:gc.distance_matrix"),
    Target("engine.svgd_step", "csvgd.engine:svgd_step"),
    Target("engine.run_stage", "csvgd.engine:run_stage"),
    Target("engine.run_csvgd", "csvgd.experiments:run_csvgd"),
    Target("engine.condense_ensemble", "csvgd.engine:condense_ensemble"),
    Target("condense.passes", "csvgd.condense:common_template", kind="count"),
    Target("condense.dump_graph", "csvgd.experiments:gc.dump_graph"),
    Target("engine.save_checkpoint", "csvgd.engine:save_checkpoint"),
    Target("metrics.pushforward_w1", "csvgd.experiments:pushforward_w1"),
    Target("experiments.pushforward_samples", "csvgd.experiments:_test_path_samples"),
)

SPAN_NAMES = tuple(dict.fromkeys(t.name for t in TARGETS if t.kind == "span"))


def resolve(path: str):
    """(owner object, attribute name) for a target path; LookupError if gone."""
    module_name, _, dotted = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(path) from exc
    *parents, attr = dotted.split(".")
    for p in parents:
        if not hasattr(owner, p):
            raise LookupError(path)
        owner = getattr(owner, p)
    if not callable(getattr(owner, attr, None)):
        raise LookupError(path)
    return owner, attr


class Tracer:
    """Records spans ``[name, start, end, parent index, outermost, raised]``."""

    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)

    def timed(self, name, call):
        stack = self._stack
        outermost = all(self.spans[i][0] != name for i in stack)
        rec = [name, self.clock(), None, stack[-1] if stack else -1, outermost, False]
        stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return call()
        except BaseException:
            rec[5] = True
            raise
        finally:
            rec[2] = self.clock()
            stack.pop()

    def aggregate(self, start: float, end: float) -> dict:
        """Per span name: calls, total_s (outermost spans), self_s, errors,
        over the spans that begin inside [start, end]."""
        child = defaultdict(float)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        out = {}
        for i, (name, t0, t1, _, outermost, raised) in enumerate(self.spans):
            if not start <= t0 <= end:
                continue
            s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                      "errors": 0})
            s["self_s"] += (t1 - t0) - child[i]
            if outermost:
                s["calls"] += 1
                s["total_s"] += t1 - t0
                s["errors"] += raised
        return out


# ---------------------------------------------------------------------------
# extra measurements taken around particular calls

def _shape2(obj):
    shape = getattr(getattr(obj, "particles", obj), "shape", None)
    return shape if shape is not None and len(shape) == 2 else None


def _observe_stein(tracer, call, args, kwargs):
    shape = _shape2(args[0]) if args else None
    if shape is not None:
        n, d = shape
        tracer.counters["engine.stein_gradient.bytes_computed"] += n * n * d * 8
    tracemalloc.start()
    try:
        return call()
    finally:
        key = "engine.stein_gradient.peak_mb"
        tracer.counters[key] = max(tracer.counters[key],
                                   tracemalloc.get_traced_memory()[1] / 2**20)
        tracemalloc.stop()


def _observe_checkpoint(tracer, call, args, kwargs):
    result = call()
    try:
        tracer.counters["engine.save_checkpoint.bytes"] += os.path.getsize(args[0])
    except (IndexError, TypeError, OSError):
        pass
    return result


def _observe_condense(tracer, call, args, kwargs):
    before = _shape2(args[0]) if args else None
    result = call()
    after = _shape2(result[0]) if isinstance(result, tuple) and result else None
    if before is not None and "condense.dim_before" not in tracer.counters:
        tracer.counters["condense.dim_before"] = before[1]
    if after is not None:
        tracer.counters["condense.dim_after"] = after[1]
    return result


_OBSERVERS = {
    "engine.stein_gradient": _observe_stein,
    "engine.save_checkpoint": _observe_checkpoint,
    "engine.condense_ensemble": _observe_condense,
}


def _wrapper(tracer, target, fn):
    if target.kind == "count":
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counters[target.name] += 1
            return fn(*args, **kwargs)
        return counted
    observe = _OBSERVERS.get(target.name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        def call():
            return tracer.timed(target.name, lambda: fn(*args, **kwargs))
        if observe is None:
            return call()
        return observe(tracer, call, args, kwargs)
    return traced


def install(tracer: Tracer, targets=TARGETS):
    """Wrap every resolvable target; returns (missing paths, undo callable)."""
    missing, patched = [], {}
    for t in targets:
        try:
            owner, attr = resolve(t.path)
        except LookupError:
            if t.required:
                missing.append(t.path)
            continue
        key = (id(owner), attr)
        if key in patched:
            continue
        original = owner.__dict__.get(attr, getattr(owner, attr))
        patched[key] = (owner, attr, original)
        setattr(owner, attr, _wrapper(tracer, t, getattr(owner, attr)))

    def undo():
        for owner, attr, original in patched.values():
            setattr(owner, attr, original)
    return missing, undo


# ---------------------------------------------------------------------------
# per-layer metrics of one traced command

_CALLS = ("likelihoods.score", "network.with_values", "engine.stein_gradient",
          "condense.distance_matrix", "metrics.pushforward_w1")
_COUNTERS = (("engine.stein_gradient.bytes_computed", "B"),
             ("engine.stein_gradient.peak_mb", "MB"),
             ("condense.passes", "count"),
             ("condense.dim_before", "count"),
             ("condense.dim_after", "count"),
             ("engine.save_checkpoint.bytes", "B"))
# inclusive time of each layer group over the traced run_s
SHARES = {
    "share.score": ("likelihoods.score",),
    "share.stein": ("engine.stein_gradient", "condense.distance_matrix"),
    "share.w1": ("metrics.pushforward_w1", "experiments.pushforward_samples"),
    "share.condense": ("engine.condense_ensemble",),
    "share.io": ("condense.dump_graph", "engine.save_checkpoint"),
}

LAYER_UNITS = {
    **{f"{n}.calls": "count" for n in _CALLS},
    **{f"{n}.self_s": "s" for n in SPAN_NAMES if n != "mechanics.generate_data"},
    "mechanics.generate_data.total_s": "s",
    "engine.iterations": "count",
    "engine.errors": "count",
    **dict(_COUNTERS),
    "experiments.artifact_bytes": "B",
    **{name: "ratio" for name in SHARES},
    "tracing.run_s": "s",
    "tracing.uncovered_s": "s",
    "tracing.overhead_s": "s",
}


def layer_metrics(trace: dict, run_s: float, artifact_bytes: int) -> dict:
    """Per-layer values of one traced command from the worker's aggregates.

    ``trace`` holds ``run`` and ``setup`` span aggregates and ``counters``.
    Spans that never fired read 0.  ``tracing.overhead_s`` needs an untraced
    command and is filled in by the caller.
    """
    run, setup, counters = trace["run"], trace["setup"], trace["counters"]

    def stat(name, key, table=run):
        return table.get(name, {}).get(key, 0)

    values = {f"{n}.calls": stat(n, "calls") for n in _CALLS}
    values.update({f"{n}.self_s": stat(n, "self_s") for n in SPAN_NAMES
                   if n != "mechanics.generate_data"})
    values["mechanics.generate_data.total_s"] = stat("mechanics.generate_data",
                                                     "total_s", setup)
    values["engine.iterations"] = stat("engine.svgd_step", "calls")
    values["engine.errors"] = stat("engine.run_csvgd", "errors")
    values.update({name: counters.get(name, 0) for name, _ in _COUNTERS})
    values["experiments.artifact_bytes"] = artifact_bytes
    for share, names in SHARES.items():
        values[share] = sum(stat(n, "total_s") for n in names) / run_s
    values["tracing.run_s"] = run_s
    values["tracing.uncovered_s"] = run_s - sum(s["self_s"] for s in run.values())
    return values
