"""Planar piecewise linear Hamiltonian vector fields split by vertical lines.

A system is a family of affine fields

    X(x, y) = (a*x + b*y + alpha, c*x - a*y + beta),

one per vertical strip, glued along one switching line (x = 0, two zones)
or two switching lines (x = -1 and x = 1, three zones).  Each zone field is
the symplectic gradient of the quadratic energy

    H(x, y) = (b/2)*y**2 - (c/2)*x**2 + a*x*y + alpha*y - beta*x,

so H is constant along that zone's orbits.  The trace of the linear part is
zero and its determinant is -(a**2 + b*c); we require a**2 + b*c != 0, which
makes the zone singularity an isolated center (a**2 + b*c < 0) or saddle
(a**2 + b*c > 0).

The switching lines are fixed at these abscissae.  A system split by other
parallel vertical lines is expected to be normalized by an affine change of
coordinates before construction; everything downstream works in the
normalized frame.
"""

from __future__ import annotations

import json
import math
import re
from functools import cached_property
from typing import Literal, NamedTuple, Optional

Point = tuple[float, float]

# Determinant magnitude below this is treated as a degenerate (non-isolated)
# singularity; closed-form flows divide by sqrt(|a**2 + b*c|).
NONDEGENERACY_TOL = 1e-12

# Componentwise tolerance for matching fields across a switching line: a
# difference counts as zero up to CONTINUITY_TOL * (1 + coefficient_scale),
# scaled as closure.DISPATCH_TOL is.
CONTINUITY_TOL = 1e-12


class DegenerateField(ValueError):
    """No usable isolated singular point: a**2 + b*c is zero or not finite,
    alpha or beta is not finite, or the point itself overflows."""


class LayoutError(ValueError):
    """Zone count and layout disagree."""


class LinearHamiltonianField:
    """One zone's affine field (a*x + b*y + alpha, c*x - a*y + beta)."""

    def __init__(self, a: float, b: float, c: float, alpha: float, beta: float) -> None:
        self.a, self.b, self.c, self.alpha, self.beta = a, b, c, alpha, beta
        det = self.linear_determinant()
        if not math.isfinite(det):
            raise DegenerateField(f"a^2 + b*c = {det:g} is not a finite number")
        if abs(det) <= NONDEGENERACY_TOL:
            raise DegenerateField(f"a^2 + b*c = {det:g} is too close to zero")
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            raise DegenerateField(f"alpha = {alpha:g} or beta = {beta:g} is not finite")

    def linear_determinant(self) -> float:
        """a**2 + b*c, the negated determinant of the linear part."""
        return self.a * self.a + self.b * self.c

    @cached_property
    def singularity(self) -> "SingularKind":
        """Type, modulus and location of the singular point, derived once."""
        return classify_singularity(self)


class ZoneLayout:
    """Vertical-strip decomposition of the plane, stated as a table.

    ``zone_ids`` lists the zones from left to right and ``switching_lines``
    the (line id, abscissa) pairs between them, in increasing abscissa: zone
    i lies between lines i - 1 and i, and the outermost zones are unbounded.

    Two zones ("two"):     L = {x < 0}, R = {x > 0}, one line "C" at x = 0.
    Three zones ("three"): L = {x < -1}, C = {-1 < x < 1}, R = {x > 1},
                           lines "L" at x = -1 and "R" at x = 1.
    """

    def __init__(
        self,
        name: str,
        zone_ids: tuple[str, ...],
        switching_lines: tuple[tuple[str, float], ...],
    ) -> None:
        self.name = name
        self.zone_ids = zone_ids
        self.switching_lines = switching_lines
        self.n_zones = len(zone_ids)
        # line id -> (abscissa, i): zones i and i + 1 lie on its x < and x > sides.
        self._lines = {
            line_id: (x, i) for i, (line_id, x) in enumerate(switching_lines)
        }
        inf = float("inf")
        edges = (-inf, *(x for _, x in switching_lines), inf)
        self._intervals = {
            zone_id: edges[i : i + 2] for i, zone_id in enumerate(zone_ids)
        }

    def line_position(self, line_id: str) -> float:
        return _lookup(self._lines, line_id, "switching line")[0]

    def zones_beside(self, line_id: str) -> tuple[str, str]:
        """Zone ids on the (x < line, x > line) sides of a switching line."""
        i = _lookup(self._lines, line_id, "switching line")[1]
        return self.zone_ids[i : i + 2]

    def zone_interval(self, zone_id: str) -> tuple[float, float]:
        """Open x-interval of a zone's strip."""
        return _lookup(self._intervals, zone_id, "zone")


def _lookup(table: dict, key: str, what: str):
    try:
        return table[key]
    except KeyError:
        raise LayoutError(f"no {what} {key!r} in this layout") from None


TWO_ZONE = ZoneLayout("two", ("L", "R"), (("C", 0.0),))
THREE_ZONE = ZoneLayout("three", ("L", "C", "R"), (("L", -1.0), ("R", 1.0)))


class PiecewiseSystem:
    """Zone layout plus one nondegenerate field per zone, ordered L(, C), R.

    ``coefficient_scale`` is the largest coefficient magnitude, used for
    scale-aware tolerances.  It and the continuity verdict are derived once,
    so a system's fields are not to be changed after construction.
    """

    def __init__(
        self, layout: ZoneLayout, fields: tuple[LinearHamiltonianField, ...]
    ) -> None:
        if len(fields) != layout.n_zones:
            raise LayoutError(f"{layout.n_zones} zones but {len(fields)} fields")
        self.layout = layout
        self.fields = fields
        self.coefficient_scale = max(
            [
                max(abs(f.a), abs(f.b), abs(f.c), abs(f.alpha), abs(f.beta))
                for f in fields
            ]
        )
        # is_continuous's (flag, violations), kept at its first call.
        self._continuity: Optional[tuple[bool, dict[str, float]]] = None

    @classmethod
    def two_zone(
        cls, left: LinearHamiltonianField, right: LinearHamiltonianField
    ) -> "PiecewiseSystem":
        return cls(TWO_ZONE, (left, right))

    @classmethod
    def three_zone(
        cls,
        left: LinearHamiltonianField,
        center: LinearHamiltonianField,
        right: LinearHamiltonianField,
    ) -> "PiecewiseSystem":
        return cls(THREE_ZONE, (left, center, right))

    def field(self, zone_id: str) -> LinearHamiltonianField:
        return self.fields[self.layout.zone_ids.index(zone_id)]

    def line_fields(
        self, line_id: str
    ) -> tuple[float, LinearHamiltonianField, LinearHamiltonianField]:
        """A switching line's abscissa and the fields on its x < and x > sides."""
        x, i = _lookup(self.layout._lines, line_id, "switching line")
        return (x, self.fields[i], self.fields[i + 1])


class SingularKind(NamedTuple):
    """Type, eigenvalue modulus and location of a zone field's singularity.

    A center has eigenvalues +/- modulus*i, a saddle +/- modulus, with
    modulus**2 = |a**2 + b*c|.
    """

    kind: Literal["center", "saddle"]
    modulus: float
    location: Point


def hamiltonian_value(field: LinearHamiltonianField, p: Point) -> float:
    """Energy (b/2)y^2 - (c/2)x^2 + a*x*y + alpha*y - beta*x at p."""
    x, y = p
    return (
        0.5 * field.b * y * y
        - 0.5 * field.c * x * x
        + field.a * x * y
        + field.alpha * y
        - field.beta * x
    )


def vector_field_value(field: LinearHamiltonianField, p: Point) -> Point:
    """Field value (a*x + b*y + alpha, c*x - a*y + beta) at p."""
    x, y = p
    return (
        field.a * x + field.b * y + field.alpha,
        field.c * x - field.a * y + field.beta,
    )


def classify_singularity(field: LinearHamiltonianField) -> SingularKind:
    """Classify the unique singular point of a zone field.

    The linear part M = [[a, b], [c, -a]] satisfies M^2 = (a^2 + b*c) I, so
    the eigenvalues are +/- sqrt(a^2 + b*c): imaginary pair (center) when the
    quantity is negative, real pair (saddle) when positive.  The singular
    point solves M p = -(alpha, beta).
    """
    det = field.linear_determinant()
    px = (-field.a * field.alpha - field.b * field.beta) / det
    py = (-field.c * field.alpha + field.a * field.beta) / det
    if not (math.isfinite(px) and math.isfinite(py)):
        raise DegenerateField(f"singular point ({px:g}, {py:g}) is not finite")
    if det < 0.0:
        return SingularKind("center", math.sqrt(-det), (px, py))
    return SingularKind("saddle", math.sqrt(det), (px, py))


def is_continuous(system: PiecewiseSystem) -> tuple[bool, dict[str, float]]:
    """Whether adjacent zone fields agree on every switching-line point.

    Matching X values for all y on a vertical line pins a, b and alpha across
    the zones; the second components additionally couple beta with c through
    the line abscissa.  Returns the flag and the violated constraints: each
    name maps to its signed gap, which exceeds CONTINUITY_TOL * (1 +
    coefficient_scale) in magnitude.  The flag is true when there is none.
    The pair is computed at the first call and kept on the system; every
    later call returns that same pair.
    """
    if system._continuity is not None:
        return system._continuity
    if system.layout.n_zones == 2:
        lf, rf = system.fields
        gaps = {
            "a_R - a_L": rf.a - lf.a,
            "b_R - b_L": rf.b - lf.b,
            "alpha_R - alpha_L": rf.alpha - lf.alpha,
            "beta_R - beta_L": rf.beta - lf.beta,
        }
    else:
        lf, cf, rf = system.fields
        gaps = {
            "a_R - a_C": rf.a - cf.a,
            "a_L - a_C": lf.a - cf.a,
            "b_R - b_C": rf.b - cf.b,
            "b_L - b_C": lf.b - cf.b,
            "alpha_R - alpha_C": rf.alpha - cf.alpha,
            "alpha_L - alpha_C": lf.alpha - cf.alpha,
            "beta_R - beta_C - c_C + c_R": rf.beta - cf.beta - cf.c + rf.c,
            "beta_L - beta_C - c_L + c_C": lf.beta - cf.beta - lf.c + cf.c,
        }
    tol = CONTINUITY_TOL * (1.0 + system.coefficient_scale)
    violations = {name: gap for name, gap in gaps.items() if abs(gap) > tol}
    system._continuity = (not violations, violations)
    return system._continuity


def singular_points_in_zone(
    system: PiecewiseSystem,
) -> list[tuple[str, SingularKind, bool]]:
    """Per zone: the singularity and whether it sits strictly inside the strip.

    Diagnostic only; the closure analysis does not depend on where the
    singular points sit.  A point exactly on a switching line counts as
    outside (strict inequalities).
    """
    report = []
    for zone_id, field in zip(system.layout.zone_ids, system.fields):
        info = field.singularity
        lo, hi = system.layout.zone_interval(zone_id)
        inside = lo < info.location[0] < hi
        report.append((zone_id, info, inside))
    return report


# --- JSON system definitions -------------------------------------------------
#
# {"layout": "two"|"three", "zones": [{"a": .., "b": .., "c": ..,
#  "alpha": .., "beta": ..}, ...]} with zones ordered L(, C), R.  Numbers may
# be strings "p/q" for exact rational entry.

_COEF_KEYS = ("a", "b", "c", "alpha", "beta")


class SystemFormatError(ValueError):
    """A system-definition document does not match the expected schema."""


# "p" or "p/q" in ASCII digits: one int true division converts it, correctly
# rounded, to the float that fractions.Fraction gives.  Other text (decimals,
# exponents, spaces, underscores, other digits) goes through Fraction.
_INT_RATIO = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _finite_number(value: object) -> float:
    """A number or rational text as a finite float.

    A SystemFormatError raised here names the value, not where it sits.
    """
    if isinstance(value, bool):
        raise SystemFormatError(f"expected a number, got {value!r}")
    if not isinstance(value, (int, float, str)):
        raise SystemFormatError(f"expected a number, got {type(value).__name__}")
    try:
        if not isinstance(value, str):
            number = float(value)
        elif ratio := _INT_RATIO.fullmatch(value):
            p, q = ratio.groups()
            number = int(p) / int(q or 1)
        else:
            from fractions import Fraction

            number = float(Fraction(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise SystemFormatError(f"bad rational {value!r}") from exc
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise SystemFormatError(f"{value!r} is not a finite number")
    return number


def coefficient_from_json(value: object, where: str) -> float:
    """Parse a number or an exact rational string "p/q" into a finite float."""
    try:
        return _finite_number(value)
    except SystemFormatError as exc:
        raise SystemFormatError(f"{where}: {exc}") from exc.__cause__


def system_from_json_dict(doc: object) -> PiecewiseSystem:
    if not isinstance(doc, dict):
        raise SystemFormatError("document root must be an object")
    layout_name = doc.get("layout")
    if layout_name not in ("two", "three"):
        raise SystemFormatError(f"layout must be 'two' or 'three', got {layout_name!r}")
    layout = TWO_ZONE if layout_name == "two" else THREE_ZONE
    zones = doc.get("zones")
    if not isinstance(zones, list) or len(zones) != layout.n_zones:
        raise SystemFormatError(
            f"'zones' must be a list of {layout.n_zones} objects for layout "
            f"{layout_name!r}"
        )
    fields = []
    for zone_id, zone in zip(layout.zone_ids, zones):
        if not isinstance(zone, dict):
            raise SystemFormatError(f"zone {zone_id}: expected an object")
        unknown = set(zone) - set(_COEF_KEYS)
        if unknown:
            raise SystemFormatError(f"zone {zone_id}: unknown keys {sorted(unknown)}")
        missing = [k for k in _COEF_KEYS if k not in zone]
        if missing:
            raise SystemFormatError(f"zone {zone_id}: missing keys {missing}")
        coefs = {}
        for k in _COEF_KEYS:
            try:
                coefs[k] = _finite_number(zone[k])
            except SystemFormatError as exc:
                # The label is built only for a coefficient that is rejected.
                raise SystemFormatError(
                    f"zone {zone_id}, field {k!r}: {exc}"
                ) from exc.__cause__
        try:
            field = LinearHamiltonianField(**coefs)
            field.singularity  # a point that overflows is unusable input
        except DegenerateField as exc:
            raise SystemFormatError(f"zone {zone_id}: {exc}") from exc
        fields.append(field)
    return PiecewiseSystem(layout, tuple(fields))


def system_to_json_dict(system: PiecewiseSystem) -> dict:
    return {
        "layout": system.layout.name,
        "zones": [
            {k: getattr(f, k) for k in _COEF_KEYS} for f in system.fields
        ],
    }


def load_system(path: str) -> PiecewiseSystem:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SystemFormatError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    return system_from_json_dict(doc)

