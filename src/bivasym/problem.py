"""Problem files: JSON descriptions of one H, G, beta, direction, targets.

Coefficients are exact rational strings ("'-3/64'"), never floats, so a
problem file round-trips byte-for-byte through ``dump``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Tuple

from .bivariate import BivariatePolynomial
from .critical import Direction
from .errors import ConfigError, SpecFileError
from .rationals import format_rational, parse_rational

_DEFAULT_GRID = (512, 512)
_FIELDS = ("H", "G", "beta", "direction", "targets", "oracle_box", "quadrature")


@dataclass
class ProblemSpec:
    H: BivariatePolynomial
    beta: Fraction
    direction: Direction
    targets: List[Tuple[int, int]] = field(default_factory=list)
    G: Optional[BivariatePolynomial] = None
    oracle_box: Optional[Tuple[int, int]] = None
    quadrature_radii: Optional[Tuple[float, float]] = None
    quadrature_grid: Tuple[int, int] = _DEFAULT_GRID

    def __post_init__(self):
        if not self.H:
            raise ConfigError("H must be nonempty")
        if self.H.constant_term() == 0:
            raise ConfigError("H must have a nonzero constant term")
        if self.H.is_constant():
            raise ConfigError("H must be nonconstant")
        for r, s in self.targets:
            if r < 0 or s < 0:
                raise ConfigError(f"target ({r},{s}) must be nonnegative")

    def effective_box(self) -> Tuple[int, int]:
        if self.oracle_box is not None:
            return self.oracle_box
        if not self.targets:
            return (0, 0)
        return (max(r for r, _ in self.targets), max(s for _, s in self.targets))


def _poly_from_json(items, what: str) -> BivariatePolynomial:
    try:
        triples = [(int(i), int(j), parse_rational(c)) for i, j, c in items]
    except (TypeError, ValueError) as exc:
        raise SpecFileError(f"bad {what} term list: {exc}") from exc
    return BivariatePolynomial.from_items(triples)


def _poly_to_json(p: BivariatePolynomial):
    return [[i, j, format_rational(c)] for (i, j), c in p.sorted_terms()]


def parse_problem(text: str) -> ProblemSpec:
    """Parse a problem JSON document; SpecFileError carries line/column."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFileError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            line=exc.lineno,
            column=exc.colno,
        ) from exc
    if not isinstance(doc, dict):
        raise SpecFileError("problem file must be a JSON object")
    for key in doc:
        if key not in _FIELDS:
            raise SpecFileError(f"unknown field {key!r}; accepted: {', '.join(_FIELDS)}")
    try:
        H = _poly_from_json(doc["H"], "H")
        beta = parse_rational(doc["beta"])
        direction = Direction.from_string(doc["direction"])
    except KeyError as exc:
        raise SpecFileError(f"missing required field {exc.args[0]!r}") from exc

    G = _poly_from_json(doc["G"], "G") if "G" in doc else None
    targets = [(int(r), int(s)) for r, s in doc.get("targets", [])]
    oracle_box = tuple(int(v) for v in doc["oracle_box"]) if "oracle_box" in doc else None

    radii = None
    grid = _DEFAULT_GRID
    quad = doc.get("quadrature", {})
    if "radii" in quad:
        radii = (float(quad["radii"][0]), float(quad["radii"][1]))
    if "grid" in quad:
        grid = (int(quad["grid"][0]), int(quad["grid"][1]))

    try:
        return ProblemSpec(
            H=H,
            beta=beta,
            direction=direction,
            targets=targets,
            G=G,
            oracle_box=oracle_box,
            quadrature_radii=radii,
            quadrature_grid=grid,
        )
    except ConfigError as exc:
        raise SpecFileError(str(exc)) from exc


def dump_problem(spec: ProblemSpec) -> str:
    """Canonical serialization; re-parsing yields an identical spec."""
    doc = {
        "H": _poly_to_json(spec.H),
        "beta": format_rational(spec.beta),
        "direction": str(spec.direction),
        "targets": [[r, s] for r, s in spec.targets],
    }
    if spec.G is not None:
        doc["G"] = _poly_to_json(spec.G)
    if spec.oracle_box is not None:
        doc["oracle_box"] = list(spec.oracle_box)
    quad = {}
    if spec.quadrature_radii is not None:
        quad["radii"] = [spec.quadrature_radii[0], spec.quadrature_radii[1]]
    if spec.quadrature_grid != _DEFAULT_GRID:
        quad["grid"] = list(spec.quadrature_grid)
    if quad:
        doc["quadrature"] = quad
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
