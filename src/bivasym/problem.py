"""Problem files: JSON descriptions of one H, G, beta, direction, targets.

Coefficients are exact rational strings ("'-3/64'"), never floats, so a
problem file round-trips byte-for-byte through ``dump``.  ``Direction``,
the spec's ratio r0:s0, lives here too, so that a caller of the oracles
alone can read a problem file without loading the solve layer.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Tuple

from .bivariate import BivariatePolynomial
from .errors import ConfigError, SpecFileError
from .rationals import format_rational, parse_rational


@dataclass(frozen=True)
class Direction:
    """Ratio direction r0:s0 (both >= 1, lowest terms); lambda = r0/s0."""

    r0: int
    s0: int

    def __post_init__(self):
        if self.r0 < 1 or self.s0 < 1:
            raise ConfigError("direction components must be >= 1")
        g = math.gcd(self.r0, self.s0)
        object.__setattr__(self, "r0", self.r0 // g)
        object.__setattr__(self, "s0", self.s0 // g)

    @classmethod
    def from_string(cls, text: str) -> "Direction":
        try:
            r0, s0 = text.split(":")
            return cls(int(r0), int(s0))
        except (AttributeError, ValueError, TypeError) as exc:
            raise ConfigError(f"bad direction {text!r}; expected 'r0:s0'") from exc

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.r0, self.s0)

    def __str__(self) -> str:
        return f"{self.r0}:{self.s0}"


@dataclass
class ProblemSpec:
    H: BivariatePolynomial
    beta: Fraction
    direction: Direction
    targets: List[Tuple[int, int]] = field(default_factory=list)
    G: Optional[BivariatePolynomial] = None
    oracle_box: Optional[Tuple[int, int]] = None
    quadrature_radii: Optional[Tuple[float, float]] = None

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


def _check_keys(doc: dict, accepted, what: str) -> None:
    for key in doc:
        if key not in accepted:
            raise SpecFileError(f"unknown {what} {key!r}; accepted: {', '.join(accepted)}")


def _index(v) -> bool:
    return type(v) is int and v >= 0


def _radius(v) -> bool:
    return type(v) in (int, float) and 0 < v < math.inf


def _pair(value, ok) -> tuple:
    if not (isinstance(value, list) and len(value) == 2 and all(map(ok, value))):
        raise ValueError(f"bad pair {value!r}")
    return tuple(value)


def _list(value) -> list:
    if not isinstance(value, list):
        raise ValueError(f"expected a list, got {value!r}")
    return value


def _poly(items) -> BivariatePolynomial:
    for i, j, _ in _list(items):
        _pair([i, j], _index)
    return BivariatePolynomial.from_items(items)


def _radii(quad) -> Optional[Tuple[float, float]]:
    if not isinstance(quad, dict):
        raise ValueError(f"expected an object, got {quad!r}")
    _check_keys(quad, ("radii",), "quadrature field")
    return tuple(map(float, _pair(quad["radii"], _radius))) if "radii" in quad else None


# Problem-file field -> (ProblemSpec attribute, converter of its JSON value).
_FIELDS = {
    "H": ("H", _poly),
    "G": ("G", _poly),
    "beta": ("beta", parse_rational),
    "direction": ("direction", Direction.from_string),
    "targets": ("targets", lambda v: [_pair(t, _index) for t in _list(v)]),
    "oracle_box": ("oracle_box", lambda v: _pair(v, _index)),
    "quadrature": ("quadrature_radii", _radii),
}


def _poly_to_json(p: BivariatePolynomial):
    return [[i, j, format_rational(c)] for (i, j), c in p.sorted_terms()]


def parse_problem(text: str) -> ProblemSpec:
    """Parse a problem JSON document; any bad document raises SpecFileError.

    A JSON syntax error carries its line and column.
    """
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
    _check_keys(doc, _FIELDS, "field")
    for key in ("H", "beta", "direction"):
        if key not in doc:
            raise SpecFileError(f"missing required field {key!r}")
    fields = {}
    for key, value in doc.items():
        attr, convert = _FIELDS[key]
        try:
            fields[attr] = convert(value)
        except (ConfigError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise SpecFileError(f"bad {key}: {exc}") from exc
    try:
        return ProblemSpec(**fields)
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
    if spec.quadrature_radii is not None:
        doc["quadrature"] = {"radii": list(spec.quadrature_radii)}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
