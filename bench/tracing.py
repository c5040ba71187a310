"""Span tracing of bivasym from outside the library.

``Tracer.installed()`` replaces the module attributes that callers look up
at call time (``bivasym.pipeline.minimality_probe``,
``bivasym.critical.resultant_eliminating``, ...) with wrappers that record
one span per call, and puts the originals back on exit.  A span holds its
name, start, end, parent span and item id, plus a few counters taken from
the call's arguments and result.  Spans stay in memory until
``layer_metrics`` folds them into per-layer numbers and ``dump`` writes
them out.  Nothing called per coefficient or per sample (such as
``BivariatePolynomial.eval``) is wrapped.
"""

from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from calibration import clock


@dataclass
class Span:
    name: str
    start: float
    parent: Optional[int]
    item: Optional[str]
    end: float = 0.0
    error: Optional[str] = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _probe_counts(span, args, kwargs, result):
    grid = kwargs.get("grid", args[2] if len(args) > 2 else None)
    if grid is None:
        from bivasym.critical import ProbeGrid

        grid = ProbeGrid()
    span.attrs["slices"] = grid.angles * grid.radii
    span.attrs["verdict"] = result.minimality


def _solve_counts(span, args, kwargs, result):
    span.attrs["points"] = len(result)


def _roots_counts(span, args, kwargs, result):
    span.attrs["roots"] = len(result)


def _resultant_keep(span, args, kwargs, result):
    # The square-free degree is worked out in layer_metrics, after the
    # pass, so that its exact gcd adds nothing to the traced time.
    span.attrs["poly"] = list(result)


def _recurrence_counts(span, args, kwargs, result):
    R, S = result.box
    span.attrs["entries"] = (R + 1) * (S + 1)


def _quadrature_counts(span, args, kwargs, result):
    cfg = kwargs.get("cfg", args[3] if len(args) > 3 else None)
    n1, n2 = cfg.quadrature_grid
    span.attrs["points"] = n1 * n2


# (module, attribute, span name, counter hook).  The same function is
# wrapped under every module that imported it by name, because each
# caller resolves the name in its own module.
WRAPS = [
    ("bivasym.cli", "main", "cli.main", None),
    ("bivasym.cli", "parse_problem", "problem.parse", None),
    ("bivasym.cli", "run_solve", "pipeline.run_solve", None),
    ("bivasym.pipeline", "run_solve", "pipeline.run_solve", None),
    ("bivasym.cli", "estimate_target", "pipeline.estimate_target", None),
    ("bivasym.pipeline", "estimate_target", "pipeline.estimate_target", None),
    ("bivasym.pipeline", "solve_critical", "critical.solve", _solve_counts),
    ("bivasym.pipeline", "minimality_probe", "critical.probe", _probe_counts),
    ("bivasym.critical", "resultant_eliminating", "resultant.eliminate", _resultant_keep),
    ("bivasym.resultant", "resultant_eliminating", "resultant.eliminate", _resultant_keep),
    ("bivasym.critical", "aberth_roots", "aberth.roots", _roots_counts),
    ("bivasym.aberth", "aberth_roots", "aberth.roots", _roots_counts),
    ("bivasym.pipeline", "estimate_real_positive", "estimates.estimate", None),
    ("bivasym.pipeline", "estimate_general", "estimates.estimate", None),
    ("bivasym.estimates", "winding_number", "estimates.winding", None),
    ("bivasym.cli", "coeff_recurrence", "oracle.recurrence", _recurrence_counts),
    ("bivasym.oracle", "coeff_recurrence", "oracle.recurrence", _recurrence_counts),
    ("bivasym.oracle", "poly_times_series", "series.product", None),
    ("bivasym.oracle", "closed_form_table", "oracle.closed_form", _recurrence_counts),
    ("bivasym.cli", "quadrature_values", "oracle.quadrature", _quadrature_counts),
    ("bivasym.oracle", "quadrature_values", "oracle.quadrature", _quadrature_counts),
]

SPAN_NAMES = sorted({name for _, _, name, _ in WRAPS} | {"bench.item"})

# Classes reported one by one under estimates.typed_errors.<class>.
ESTIMATE_ERROR_CLASSES = ("HypothesisFailure", "BranchTrackingError", "ConfigError")

PER_LAYER_METRICS: Dict[str, str] = {
    "critical.probe_s": "s",
    "critical.probe_points": "count",
    "critical.probe_slices": "count",
    "critical.probe_accepted": "count",
    "critical.probe_violated": "count",
    "critical.probe_inconclusive": "count",
    "critical.solve_self_s": "s",
    "critical.points": "count",
    "aberth.busy_s": "s",
    "aberth.calls": "count",
    "aberth.roots": "count",
    "aberth.failures": "count",
    "resultant.busy_s": "s",
    "resultant.calls": "count",
    "resultant.eliminant_degree": "count",
    "resultant.squarefree_degree": "count",
    "estimates.busy_s": "s",
    "estimates.winding_s": "s",
    "estimates.calls": "count",
    "estimates.typed_errors": "count",
    **{f"estimates.typed_errors.{cls}": "count" for cls in ESTIMATE_ERROR_CLASSES},
    "oracle.recurrence_s": "s",
    "oracle.recurrence_entries": "count",
    "series.product_s": "s",
    "oracle.closed_form_s": "s",
    "oracle.closed_form_entries": "count",
    "oracle.quadrature_s": "s",
    "oracle.quadrature_points": "count",
    "oracle.quadrature_max_rel_err": "ratio",
    "cli.self_s": "s",
    "problem.parse_s": "s",
    "pipeline.self_s": "s",
    "bench.item_s": "s",
    "bench.self_s": "s",
    "trace.spans": "count",
    "trace.untraced_run_s": "s",
    "trace.traced_run_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}

# Per-layer self time: span self time summed over the spans of a layer.
SELF_TIME_METRICS = {
    "critical.probe_s": ("critical.probe",),
    "critical.solve_self_s": ("critical.solve",),
    "aberth.busy_s": ("aberth.roots",),
    "resultant.busy_s": ("resultant.eliminate",),
    "estimates.busy_s": ("estimates.estimate", "estimates.winding"),
    "estimates.winding_s": ("estimates.winding",),
    "oracle.recurrence_s": ("oracle.recurrence",),
    "series.product_s": ("series.product",),
    "oracle.closed_form_s": ("oracle.closed_form",),
    "oracle.quadrature_s": ("oracle.quadrature",),
    "cli.self_s": ("cli.main",),
    "problem.parse_s": ("problem.parse",),
    "pipeline.self_s": ("pipeline.run_solve", "pipeline.estimate_target"),
    "bench.self_s": ("bench.item",),
}


class Tracer:
    """In-memory span recorder for one process and one caller."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._item: Optional[str] = None

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, clock(), parent, self._item))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int, error: Optional[str] = None) -> Span:
        span = self.spans[index]
        span.end = clock()
        span.error = error
        self._stack.pop()
        return span

    @contextmanager
    def item(self, item_id: str):
        """Root span of one workload item; spans opened inside carry its id."""
        self._item = item_id
        index = self.open("bench.item")
        try:
            yield self.spans[index]
        finally:
            self.close(index)
            self._item = None

    def _wrap(self, fn, name: str, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(index, type(exc).__name__)
                raise
            span = tracer.close(index)
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Swap the span-recording wrappers in for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, hook in WRAPS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, hook))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> List[float]:
        """Duration of each span minus the time covered by its children."""
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own

    def dump(self, path) -> None:
        doc = [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "item": s.item,
                "error": s.error,
                **{k: v for k, v in s.attrs.items() if k != "poly"},
            }
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _squarefree_degree(poly) -> int:
    from bivasym.unipoly import degree, derivative, gcd

    if degree(poly) < 1:
        return max(degree(poly), 0)
    return degree(poly) - max(degree(gcd(poly, derivative(poly))), 0)


def layer_metrics(tracer: Tracer, passes: int) -> Dict[str, float]:
    """Per-layer metrics per pass: self times, call counts and counters."""
    from bivasym.errors import BivasymError
    from bivasym.unipoly import degree

    typed = {cls.__name__ for cls in _subclasses(BivasymError)}
    own = tracer.self_times()
    out = {name: 0.0 for name in PER_LAYER_METRICS}
    for metric, names in SELF_TIME_METRICS.items():
        out[metric] = sum(t for s, t in zip(tracer.spans, own) if s.name in names)
    for span in tracer.spans:
        a = span.attrs
        if span.name == "critical.probe":
            out["critical.probe_points"] += 1
            out["critical.probe_slices"] += a.get("slices", 0)
            verdict = a.get("verdict")
            key = {
                "probably_strictly_minimal": "critical.probe_accepted",
                "violated": "critical.probe_violated",
                "inconclusive": "critical.probe_inconclusive",
            }.get(verdict)
            if key:
                out[key] += 1
        elif span.name == "critical.solve":
            out["critical.points"] += a.get("points", 0)
        elif span.name == "aberth.roots":
            out["aberth.calls"] += 1
            out["aberth.roots"] += a.get("roots", 0)
            if span.error == "RootFindingError":
                out["aberth.failures"] += 1
        elif span.name == "resultant.eliminate":
            out["resultant.calls"] += 1
            if "poly" in a:
                out["resultant.eliminant_degree"] += max(degree(a["poly"]), 0)
                out["resultant.squarefree_degree"] += _squarefree_degree(a["poly"])
        elif span.name == "estimates.estimate":
            out["estimates.calls"] += 1
            if span.error in typed:
                out["estimates.typed_errors"] += 1
                if span.error in ESTIMATE_ERROR_CLASSES:
                    out[f"estimates.typed_errors.{span.error}"] += 1
        elif span.name == "oracle.recurrence":
            out["oracle.recurrence_entries"] += a.get("entries", 0)
        elif span.name == "oracle.closed_form":
            out["oracle.closed_form_entries"] += a.get("entries", 0)
        elif span.name == "oracle.quadrature":
            out["oracle.quadrature_points"] += a.get("points", 0)
        elif span.name == "bench.item":
            out["bench.item_s"] += span.duration
            err = a.get("quadrature_max_rel_err")
            if err is not None:
                out["oracle.quadrature_max_rel_err"] = max(
                    out["oracle.quadrature_max_rel_err"], err
                )
    out["trace.spans"] = len(tracer.spans)
    for name in out:
        if name != "oracle.quadrature_max_rel_err":
            out[name] /= passes
    return out


def _subclasses(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)
