"""Spans recorded around calls into ``nlsv``'s public functions.

The tracer replaces a function where its caller looks it up (for example
``nlsv.eml.modified_bridge_fill``, the name ``eml`` calls, rather than
``nlsv.simulate.modified_bridge_fill``) with a wrapper that records one
span per call: name, start, end, parent span and workload-run id, plus
counts taken from the call's arguments and result.  Spans stay in memory
until the benchmark writes them out.  Nothing in ``src/`` is changed; the
wrappers are removed again when tracing stops.

A name that no longer exists (after a refactor) is reported as absent
instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run: str
    start: float = 0.0
    end: float = 0.0
    error: str | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "parent": self.parent, "run": self.run,
            "start": self.start, "end": self.end, "error": self.error, "counts": self.counts,
        }


# ----------------------------------------------------------------------
# What is wrapped, and which counts each span takes at its boundary
# ----------------------------------------------------------------------


def _count_bytes(span, bound, result):
    span.counts["bytes"] = int(result.nbytes)


def _count_points(span, bound, result):
    span.counts["points"] = int(result.size // 2)


def _count_sml(span, bound, result):
    config = bound["config"]
    n_intervals = len(bound["series"].iv) - 1
    span.counts["steps"] = n_intervals * config.mc_draws * max(config.aug_steps - 1, 1)
    value = result[0] if isinstance(result, tuple) else result
    span.counts["failed"] = int(not math.isfinite(value))


def _count_paths(span, bound, result):
    span.counts["path_steps"] = int(bound["n_paths"]) * int(bound["n_steps"])


def _count_fit(span, bound, result):
    span.counts["n_evaluations"] = int(result.n_evaluations)


def _count_rolling(span, bound, result):
    _, param_paths, _ = result
    span.counts["refits"] = len(param_paths)
    span.counts["refit_failed"] = sum("error" in entry for entry in param_paths)


def _count_cli(span, bound, result):
    argv = list(bound["argv"])
    out = Path(argv[argv.index("--out") + 1])
    span.counts["bytes_written"] = sum(p.stat().st_size for p in out.iterdir() if p.is_file())


def _penalty() -> float:
    from nlsv import likelihood

    return getattr(likelihood, "_PENALTY", math.inf)


def _count_objective(span, bound):
    """Wrap the objective handed to the optimizer so every evaluation is
    counted, with the feasible ones (finite and below the penalty)."""
    fun = bound["fun"]
    penalty = _penalty()
    span.counts.update(evals=0, feasible=0)

    def counted(*args):
        value = fun(*args)
        span.counts["evals"] += 1
        span.counts["feasible"] += int(math.isfinite(value) and value < penalty)
        return value

    bound["fun"] = counted


def _count_minimize(span, bound, result):
    span.counts["iterations"] = int(result.nit)


@dataclass(frozen=True)
class Target:
    owner: str          # module path, or module path + "." + class name
    attr: str
    span: str
    after: Callable | None = None
    before: Callable | None = None


#: Every public name the benchmark wraps, at the place its caller finds it.
TARGETS = (
    Target("nlsv.likelihood", "likelihood_eps", "draws.likelihood_eps", after=_count_bytes),
    Target("nlsv.eml", "draw_bridge_eps", "draws.bridge_eps", after=_count_bytes),
    Target("nlsv.eml", "modified_bridge_fill", "bridge.fill", after=_count_points),
    Target("nlsv.eml", "solve_variance_drift", "eml.variance"),
    Target("nlsv.eml", "solve_stock_drift", "eml.stock"),
    Target("nlsv.eml", "assemble_system", "eml.assemble"),
    Target("nlsv.likelihood", "total_loglik", "sml.total_loglik", after=_count_sml),
    Target("nlsv.likelihood", "minimize", "search.minimize",
           after=_count_minimize, before=_count_objective),
    Target("nlsv.likelihood", "sandwich_errors", "sandwich"),
    Target("nlsv.cli", "fit", "search.fit", after=_count_fit),
    Target("nlsv.forecasting", "fit", "search.fit", after=_count_fit),
    Target("nlsv.forecasting", "simulate_paths", "paths.simulate", after=_count_paths),
    Target("nlsv.forecasting", "forecast_targets", "forecast.targets"),
    Target("nlsv.forecasting", "forecast_origin", "forecast.origin"),
    Target("nlsv.cli", "forecast_origin", "forecast.origin"),
    Target("nlsv.forecasting.ForecastReport", "summary", "report.summary"),
    Target("nlsv.cli", "rolling_evaluation", "rolling", after=_count_rolling),
    Target("nlsv.cli", "load_csv", "io.load_csv"),
    Target("nlsv.cli", "save_results", "io.save_results"),
    Target("nlsv.cli", "main", "cli.main", after=_count_cli),
)


def _resolve(path: str):
    """Import ``path`` as a module, or as ``module.Class``; None if gone."""
    try:
        return importlib.import_module(path)
    except ImportError:
        module_path, _, name = path.rpartition(".")
        try:
            return getattr(importlib.import_module(module_path), name, None)
        except ImportError:
            return None


class Tracer:
    """Records spans while installed; ``run`` labels the spans of one
    workload run (one set-up or one repetition of an operation)."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.run = ""
        self._stack: list[Span] = []
        self._next_id = 0

    @contextmanager
    def installed(self, run: str):
        """Wrap every target for the duration of the block."""
        self.run = run
        restore = []
        self.absent = []
        for target in self.targets:
            owner = _resolve(target.owner)
            original = getattr(owner, target.attr, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{target.owner}.{target.attr}")
                continue
            setattr(owner, target.attr, self._wrap(original, target))
            restore.append((owner, target.attr, original))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def _wrap(self, fn, target: Target):
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1].id if tracer._stack else None
            span = Span(tracer._next_id, target.span, parent, tracer.run)
            tracer._next_id += 1
            bound = signature.bind(*args, **kwargs)
            if target.before is not None:
                target.before(span, bound.arguments)
            tracer._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*bound.args, **bound.kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append(span)
            if target.after is not None:
                target.after(span, bound.arguments, result)
            return result

        return wrapper

    def spans_of(self, *runs: str) -> list[Span]:
        return [s for s in self.spans if s.run in runs]

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")


# ----------------------------------------------------------------------
# Per-layer metrics from one run's spans
# ----------------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    covered: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            covered[span.parent] = covered.get(span.parent, 0.0) + span.duration
    return {s.id: s.duration - covered.get(s.id, 0.0) for s in spans}


def _outermost(spans: list[Span], prefix: str) -> list[Span]:
    """Spans named ``prefix*`` not nested inside another such span, so a
    layer's busy time is not counted twice."""
    ids = {s.id: s for s in spans}
    out = []
    for span in spans:
        if not span.name.startswith(prefix):
            continue
        parent = ids.get(span.parent)
        while parent is not None and not parent.name.startswith(prefix):
            parent = ids.get(parent.parent)
        if parent is None:
            out.append(span)
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metric values of one workload run."""
    own = self_times(spans)

    def named(*names):
        return [s for s in spans if s.name in names]

    def busy(prefix):
        return sum(s.duration for s in _outermost(spans, prefix))

    def total(group, key):
        return sum(s.counts.get(key, 0) for s in group)

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    ids = {s.id: s for s in spans}

    def under(span, name):
        parent = ids.get(span.parent)
        while parent is not None:
            if parent.name == name:
                return True
            parent = ids.get(parent.parent)
        return False

    draws = named("draws.likelihood_eps", "draws.bridge_eps")
    bridge = named("bridge.fill")
    solves = named("eml.variance", "eml.stock")
    sml = named("sml.total_loglik")
    searches = named("search.minimize")
    paths = named("paths.simulate")
    origins = named("forecast.origin")
    rolling = named("rolling")
    sml_busy = busy("sml.")
    paths_busy = busy("paths.")
    evals = total(searches, "evals")
    return {
        "draws.calls": len(draws),
        "draws.busy_s": busy("draws."),
        "draws.bytes": total(draws, "bytes"),
        "bridge.calls": len(bridge),
        "bridge.busy_s": busy("bridge."),
        "bridge.points": total(bridge, "points"),
        "eml.calls": len(solves),
        "eml.variance.busy_s": sum(s.duration for s in named("eml.variance")),
        "eml.stock.busy_s": sum(s.duration for s in named("eml.stock")),
        "eml.assemble.self_s": sum(own[s.id] for s in named("eml.assemble")),
        "eml.failed": sum(s.error is not None for s in solves),
        "sml.calls": len(sml),
        "sml.busy_s": sml_busy,
        "sml.failed": total(sml, "failed") + sum(s.error is not None for s in sml),
        "sml.ns_per_step": ratio(sml_busy, total(sml, "steps"), 1e9),
        "search.evals": evals,
        "search.iterations": total(searches, "iterations"),
        "search.feasible_ratio": ratio(total(searches, "feasible"), evals),
        "search.self_s": sum(own[s.id] for s in named("search.fit", "search.minimize")),
        "sandwich.busy_s": busy("sandwich"),
        "sandwich.sml_calls": sum(under(s, "sandwich") for s in sml),
        "paths.busy_s": paths_busy,
        "paths.path_steps": total(paths, "path_steps"),
        "paths.ns_per_path_step": ratio(paths_busy, total(paths, "path_steps"), 1e9),
        "forecast.self_s": sum(own[s.id] for s in named("forecast.origin", "forecast.targets")),
        "forecast.origins": len(origins),
        "forecast.skipped": sum(s.error is not None for s in named("forecast.targets")),
        "report.summary_s": busy("report."),
        "rolling.refits": total(rolling, "refits"),
        "rolling.refit_failed": total(rolling, "refit_failed"),
        "rolling.self_s": sum(own[s.id] for s in rolling),
        "io.busy_s": busy("io."),
        "io.bytes_written": total(named("cli.main"), "bytes_written"),
        "cli.self_s": sum(own[s.id] for s in named("cli.main")),
        "trace.spans": len(spans),
    }


def absent_layers(tracer: Tracer) -> list[str]:
    """Layers (the first part of a span name) none of whose wrapped names
    exist any more."""
    layers = {t.span.split(".")[0] for t in tracer.targets}
    present = {
        t.span.split(".")[0] for t in tracer.targets
        if f"{t.owner}.{t.attr}" not in tracer.absent
    }
    return sorted(layers - present)
