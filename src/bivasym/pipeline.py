"""Shared solve/estimate orchestration used by the CLI and scripts."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .critical import (
    PROBABLY_STRICTLY_MINIMAL,
    CriticalPoint,
    TorusClass,
    group_by_torus,
    minimality_probe,
    negligible,
    solve_critical,
)
from .errors import HypothesisFailure
from .estimates import AsymptoticEstimate, estimate_general
from .estimates import estimate_real_positive  # noqa: F401  (bench/tracing.py wraps this name)
from .problem import ProblemSpec


@dataclass
class SolveOutcome:
    points: List[CriticalPoint]
    classes: List[TorusClass]

    @property
    def dominant(self) -> Optional[TorusClass]:
        """The dominant class, or None with no points or all on an axis."""
        return self.classes[0] if self.classes and self.classes[0].dominant else None

    def has_usable_point(self) -> bool:
        return self.dominant is not None and any(
            pt.smooth and pt.minimality == PROBABLY_STRICTLY_MINIMAL
            for pt in self.dominant.points
        )


def run_solve(spec: ProblemSpec, probe: bool = True) -> SolveOutcome:
    """Solve the critical system, classify tori, probe the dominant class once."""
    points = solve_critical(spec.H, spec.direction)
    outcome = SolveOutcome(points=points, classes=group_by_torus(points, direction=spec.direction))
    if probe and outcome.dominant is not None:
        # The probe sees a point only through its torus and the class's
        # known points, so one probe answers for the whole class.
        first, *rest = outcome.dominant.points
        minimality_probe(spec.H, first, peers=rest)
        for pt in rest:
            pt.minimality, pt.witness, pt.margin = first.minimality, first.witness, first.margin
    return outcome


def estimate_target(
    spec: ProblemSpec, outcome: SolveOutcome, r: int, s: int
) -> AsymptoticEstimate:
    """Estimate one coefficient by ``estimate_general`` over the smooth points of the dominant class."""
    if outcome.dominant is None:
        raise HypothesisFailure("critical_point_exists", "no critical points found")
    smooth_pts = [pt for pt in outcome.dominant.points if pt.smooth]
    if not smooth_pts:
        raise HypothesisFailure("smooth_point_exists", "no smooth dominant point")
    if spec.G is not None:
        if all(negligible(spec.G, spec.G.eval(pt.p, pt.q), *pt.abs_pq) for pt in smooth_pts):
            # The leading term vanishes; the true order is lower in n.
            raise HypothesisFailure("G_nonzero_at_point", "G vanishes at every dominant point")
    return estimate_general(spec.H, spec.G, spec.beta, smooth_pts, r, s, spec.direction)
