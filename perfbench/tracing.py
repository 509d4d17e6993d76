"""Spans at subglue's module boundaries, recorded from the benchmark's side.

Only traced ops use this module. ``install`` rebinds the names that
``subglue.cli`` and ``subglue.gluing`` call, so each call records a span
(name, start, end, parent) and counts taken from its arguments and return
value; the function it returns puts the originals back. ``direct_calls``
gives the public functions the ops call themselves, wrapped the same way
when a tracer is passed. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import SimpleNamespace

import subglue
from subglue import cli, gluing


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """An in-memory span tree; a span's parent is the span open when it began."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        self._open.append(len(self.spans))
        sp = Span(name, time.perf_counter(), parent)
        self.spans.append(sp)
        try:
            yield sp
        except BaseException as exc:
            sp.error = type(exc).__name__
            raise
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name, count=None, peak=False):
        """``fn`` inside a span; ``count(result, *args, **kwargs)`` adds counts
        after the span closes, and ``peak`` records the tracemalloc peak of
        the allocations the call makes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                if peak:
                    tracemalloc.start()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    if peak:
                        sp.counts["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                        tracemalloc.stop()
            if count is not None:
                sp.counts.update(count(result, *args, **kwargs))
            return result

        return traced


def _continuation_counts(res, v, layer, *args, **kwargs):
    return {"iters": res.iterations, "unknowns": layer.count}


def _green_counts(res, *args, **kwargs):
    return {"iters": res.iterations, "unknowns": int(res.domain.interior_mask().sum())}


def _glue_counts(res, *args, **kwargs):
    return {"reports": len(res.reports), "reports_failed": sum(not r.passed for r in res.reports)}


def _write_counts(res, v, path):
    return {"bytes": os.path.getsize(path)}


def _mean_counts(res, v, shell, r, samples=256):
    return {"points": shell.count * samples}


# boundary name -> (span name, counts, record tracemalloc peak)
BOUNDARIES = {
    "glue_full": ("gluing.glue_full", _glue_counts, False),
    "glue_green": ("gluing.glue_green", None, False),
    "write_field": ("fieldio.write", _write_counts, False),
    "kernel_field": ("kernels.kernel_field", None, False),
    "mean_inf_constant": ("field.mean", _mean_counts, True),
    "harmonic_layer_continuation": ("harmonic.continuation", _continuation_counts, False),
    "green_function": ("harmonic.green", _green_counts, False),
    "green_min_constant": ("harmonic.green_min", None, False),
    "parallel_set": ("geometry.parallel_set", None, False),
    "regularized_domain": ("geometry.regularized_domain", None, False),
    "is_subharmonic": ("field.cert", None, False),
    "is_harmonic": ("field.cert", None, False),
}

# the public functions the ops call themselves
DIRECT = {
    "parse_config": (subglue.parse_config, "config.parse", None, False),
    "run": (cli.run, "cli.run", None, False),
    "rasterize_ball": (subglue.rasterize_ball, "geometry.rasterize", None, False),
    "green_function": (subglue.green_function, *BOUNDARIES["green_function"]),
    "is_harmonic": (subglue.is_harmonic, *BOUNDARIES["is_harmonic"]),
    "fekete_capacity": (
        subglue.fekete_capacity, "capacity.fekete",
        lambda res, *a, **k: {"swaps": res.iterations}, True),
    "equilibrium_weights": (
        subglue.equilibrium_weights, "capacity.equilibrium",
        lambda res, *a, **k: {"iters": res.iterations}, True),
}


def direct_calls(tracer: Tracer | None = None) -> SimpleNamespace:
    if tracer is None:
        return SimpleNamespace(**{k: spec[0] for k, spec in DIRECT.items()})
    return SimpleNamespace(**{k: tracer.wrap(*spec) for k, spec in DIRECT.items()})


def install(tracer: Tracer):
    """Rebind the boundary names in subglue.cli and subglue.gluing; returns
    the function that restores them."""
    saved = []
    for module in (cli, gluing):
        for attr, spec in BOUNDARIES.items():
            if hasattr(module, attr):
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, tracer.wrap(getattr(module, attr), *spec))

    def restore():
        for module, attr, original in saved:
            setattr(module, attr, original)

    return restore


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# metric -> (unit, better); every traced run reports all of them, 0 for an
# idle layer (converged_frac is 1 when no solve ran)
PER_LAYER = {
    "harmonic.continuation_s": ("s", "lower"),
    "harmonic.continuation_iters": ("count", "lower"),
    "harmonic.continuation_unknowns": ("count", "lower"),
    "harmonic.green_s": ("s", "lower"),
    "harmonic.green_iters": ("count", "lower"),
    "harmonic.green_unknowns": ("count", "lower"),
    "harmonic.updates_per_s": ("1/s", "higher"),
    "harmonic.converged_frac": ("1", "higher"),
    "field.mean_s": ("s", "lower"),
    "field.mean_points": ("count", "lower"),
    "field.mean_peak_mb": ("MB", "lower"),
    "field.mean_err": ("1", "lower"),
    "field.cert_s": ("s", "lower"),
    "field.cert_calls": ("count", "lower"),
    "gluing.glue_full_s": ("s", "lower"),
    "gluing.glue_green_s": ("s", "lower"),
    "gluing.self_s": ("s", "lower"),
    "gluing.reports": ("count", "higher"),
    "gluing.reports_failed": ("count", "lower"),
    "geometry.parallel_set_s": ("s", "lower"),
    "geometry.regularized_domain_s": ("s", "lower"),
    "geometry.rasterize_s": ("s", "lower"),
    "kernels.kernel_field_s": ("s", "lower"),
    "capacity.fekete_s": ("s", "lower"),
    "capacity.fekete_swaps": ("count", "lower"),
    "capacity.fekete_peak_mb": ("MB", "lower"),
    "capacity.fekete_err": ("1", "lower"),
    "capacity.equilibrium_s": ("s", "lower"),
    "capacity.equilibrium_iters": ("count", "lower"),
    "capacity.equilibrium_peak_mb": ("MB", "lower"),
    "capacity.equilibrium_err": ("1", "lower"),
    "fieldio.write_s": ("s", "lower"),
    "fieldio.bytes": ("bytes", "lower"),
    "config.parse_s": ("s", "lower"),
    "cli.run_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.span_coverage": ("1", "higher"),
}

# metric -> (span name, count key or "s" for total seconds)
_SPAN_SUMS = {
    "harmonic.continuation_s": ("harmonic.continuation", "s"),
    "harmonic.continuation_iters": ("harmonic.continuation", "iters"),
    "harmonic.continuation_unknowns": ("harmonic.continuation", "unknowns"),
    "harmonic.green_s": ("harmonic.green", "s"),
    "harmonic.green_iters": ("harmonic.green", "iters"),
    "harmonic.green_unknowns": ("harmonic.green", "unknowns"),
    "field.mean_s": ("field.mean", "s"),
    "field.mean_points": ("field.mean", "points"),
    "field.cert_s": ("field.cert", "s"),
    "gluing.glue_full_s": ("gluing.glue_full", "s"),
    "gluing.glue_green_s": ("gluing.glue_green", "s"),
    "gluing.reports": ("gluing.glue_full", "reports"),
    "gluing.reports_failed": ("gluing.glue_full", "reports_failed"),
    "geometry.parallel_set_s": ("geometry.parallel_set", "s"),
    "geometry.regularized_domain_s": ("geometry.regularized_domain", "s"),
    "geometry.rasterize_s": ("geometry.rasterize", "s"),
    "kernels.kernel_field_s": ("kernels.kernel_field", "s"),
    "capacity.fekete_s": ("capacity.fekete", "s"),
    "capacity.fekete_swaps": ("capacity.fekete", "swaps"),
    "capacity.equilibrium_s": ("capacity.equilibrium", "s"),
    "capacity.equilibrium_iters": ("capacity.equilibrium", "iters"),
    "fieldio.write_s": ("fieldio.write", "s"),
    "fieldio.bytes": ("fieldio.write", "bytes"),
    "config.parse_s": ("config.parse", "s"),
    "cli.run_s": ("cli.run", "s"),
}
_PEAKS = {
    "field.mean_peak_mb": "field.mean",
    "capacity.fekete_peak_mb": "capacity.fekete",
    "capacity.equilibrium_peak_mb": "capacity.equilibrium",
}
_SOLVES = ("harmonic.continuation", "harmonic.green")


def op_layers(spans: list[Span], root: int) -> dict:
    """Per-layer numbers of one traced op whose root span is ``spans[root]``."""
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i].parent in inside:
            inside.add(i)
    mine = [spans[i] for i in sorted(inside - {root})]
    child_s = {i: 0.0 for i in inside}
    for i in inside - {root}:
        child_s[spans[i].parent] += spans[i].seconds
    self_s = {i: spans[i].seconds - child_s[i] for i in inside}

    def total(name, key):
        return sum(sp.seconds if key == "s" else sp.counts.get(key, 0)
                   for sp in mine if sp.name == name)

    out = {metric: total(*spec) for metric, spec in _SPAN_SUMS.items()}
    for metric, name in _PEAKS.items():
        out[metric] = max((sp.counts.get("peak_mb", 0.0) for sp in mine if sp.name == name),
                          default=0.0)
    out["field.cert_calls"] = sum(sp.name == "field.cert" for sp in mine)
    named_self = lambda name: sum(self_s[i] for i in inside if spans[i].name == name)
    out["gluing.self_s"] = named_self("gluing.glue_full") + named_self("gluing.glue_green")
    out["cli.self_s"] = named_self("cli.run")
    leaves = [i for i in inside - {root} if child_s[i] == 0.0]
    out["trace.span_coverage"] = sum(spans[i].seconds for i in leaves) / spans[root].seconds
    return out


def run_layers(spans: list[Span], roots: list[int], errors: list[dict],
               traced_s: list[float], plain_s: list[float]) -> dict:
    """Per-layer metrics of a traced run: the median over its traced ops,
    with run-wide solver rates and the tracing overhead."""
    per_op = [op_layers(spans, root) for root in roots]
    out = {m: statistics.median(op[m] for op in per_op) for m in per_op[0]}
    for key in ("field.mean_err", "capacity.fekete_err", "capacity.equilibrium_err"):
        vals = [e[key] for e in errors if key in e]
        out[key] = statistics.median(vals) if vals else 0.0
    solves = [sp for sp in spans if sp.name in _SOLVES]
    done = [sp for sp in solves if sp.error is None]
    unconverged = sum(sp.error == "ConvergenceError" for sp in solves)
    solve_s = sum(sp.seconds for sp in done)
    updates = sum(sp.counts["iters"] * sp.counts["unknowns"] for sp in done)
    out["harmonic.updates_per_s"] = updates / solve_s if solve_s > 0 else 0.0
    out["harmonic.converged_frac"] = 1.0 - unconverged / len(solves) if solves else 1.0
    out["trace.overhead_s"] = (statistics.median(traced_s) - statistics.median(plain_s)
                               if plain_s else 0.0)
    return {m: out[m] for m in PER_LAYER}
