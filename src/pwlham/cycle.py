"""Assembly and independent verification of certified crossing limit cycles.

A closure solution is only a candidate: the four corner ordinates solve the
energy-matching equations, but an actual crossing limit cycle additionally
needs transversal crossings at every corner and four realizable arcs that
chain back to the starting corner.  ``certify`` performs those checks and
packages the result with the code and values of why it was accepted or
rejected, from which its ``reason`` text is rendered when read;
``verify_certificate`` re-derives every invariant from scratch so a
certificate can be audited after the fact.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from . import closure, flow
from .model import THREE_ZONE, PiecewiseSystem, Point, hamiltonian_value

# Position mismatch allowed when chaining arc endpoints to corners.
CLOSURE_TOL = 1e-8

# Energy-matching residual allowed at a certified corner tuple.
RESIDUAL_TOL = 1e-9

# Relative energy drift allowed along a certified arc.
ENERGY_DRIFT_TOL = 1e-9

# Gap allowed between a certificate's period and its flight-time sum.
PERIOD_SUM_TOL = 1e-12

DEFAULT_SAMPLES_PER_ARC = 256

# The cycle's shape.  Corner k has ordinate CORNER_KEYS[k] on switching line
# CORNER_LINES[k]; arc k runs through zone ARC_ZONES[k] from corner k to
# corner k + 1 (mod 4) and takes flight time TIME_KEYS[k].
CORNER_KEYS = ("y0", "y1", "y2", "y3")
CORNER_LINES = ("R", "R", "L", "L")
ARC_ZONES = ("R", "C", "L", "C")
TIME_KEYS = ("t_R", "t_C1", "t_L", "t_C2")


# The abscissae of the corners' switching lines, (1, 1, -1, -1).
CORNER_XS = tuple(map(THREE_ZONE.line_position, CORNER_LINES))


def _corner_points(ordinates) -> tuple[Point, Point, Point, Point]:
    """The corners (1, y0), (1, y1), (-1, y2), (-1, y3) of a cycle."""
    return tuple(zip(CORNER_XS, ordinates))


def _arcs(system: PiecewiseSystem, corners):
    """(zone field, start corner, end corner) of each arc, in traversal order."""
    return zip(map(system.field, ARC_ZONES), corners, corners[1:] + corners[:1])


class CycleCertificate(NamedTuple):
    """A verified crossing limit cycle.

    corners are ((1, y0), (1, y1), (-1, y2), (-1, y3)); flight_times are the
    per-arc durations (t_R, t_C1, t_L, t_C2) along the traversal R-arc from
    (1, y0) down to (1, y1), C-arc to (-1, y2), L-arc up to (-1, y3), C-arc
    back to (1, y0); crossings classify the corners in corner order.
    """

    corners: tuple[Point, Point, Point, Point]
    flight_times: tuple[float, float, float, float]
    crossings: tuple[flow.CrossingClassification, ...]
    residual_norm: float
    polyline: tuple[Point, ...]
    period: float

    @property
    def multiplier(self) -> float:
        """The return map's derivative P' at the cycle, from the crossings.

        Every zone field is divergence-free, so an arc maps a segment of its
        start line onto its end line with derivative (x-velocity at the
        start) / (x-velocity at the end), and P' is the product over the four
        corners of (x-velocity leaving) / (x-velocity arriving).  Along the
        clockwise traversal the orbit leaves corners 0 and 3 on their lines'
        x > side and corners 1 and 2 on their x < side; a counterclockwise
        traversal would swap leaving and arriving at every corner, giving
        1 / P'.
        """
        c0, c1, c2, c3 = self.crossings
        return (
            c0.derivative_plus * c1.derivative_minus
            * c2.derivative_minus * c3.derivative_plus
        ) / (
            c0.derivative_minus * c1.derivative_plus
            * c2.derivative_plus * c3.derivative_minus
        )


# The text of each certify code, formatted with the result's values.
REASON_TEMPLATES = {
    "certified": "certified",
    "no_solution": "no solution: {}",
    "continuum": "continuum of periodic orbits: {}",
    "reject.corner_not_crossing":
        "algebraic solution, not a crossing cycle: corner {} on line {} is {.label}",
    "reject.arc_unrealizable":
        "arc from {0} toward x = {1:g} is not realizable: {3}",
    "reject.landing_gap": "arc from {} lands at {}, expected {} (gap {:.3e})",
    "reject.residual": "closure residual {:.3e} exceeds {:g}",
}


class CertificationResult(NamedTuple):
    """Outcome of the closure analysis plus the certificate when one exists.

    code names why (a key of REASON_TEMPLATES) and values hold what decided
    it: the closure's text for no_solution and continuum; (corner, line,
    CrossingClassification) for reject.corner_not_crossing; (start, target
    abscissa, exception class name, exception text) for
    reject.arc_unrealizable; (start, landing, end, gap) for
    reject.landing_gap; (residual norm, RESIDUAL_TOL) for reject.residual.
    """

    outcome: closure.ClosureOutcome
    certificate: Optional[CycleCertificate]
    code: str
    values: tuple

    @property
    def reason(self) -> str:
        """The human-readable text of code and values."""
        return REASON_TEMPLATES[self.code].format(*self.values)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    measured: float
    limit: float


class VerificationReport(NamedTuple):
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


def find_limit_cycle(
    system: PiecewiseSystem, samples_per_arc: int = DEFAULT_SAMPLES_PER_ARC
) -> Optional[CycleCertificate]:
    """The unique crossing limit cycle of the system, or None."""
    return certify(system, samples_per_arc).certificate


def certify(
    system: PiecewiseSystem, samples_per_arc: int = DEFAULT_SAMPLES_PER_ARC
) -> CertificationResult:
    """Run the closure analysis and, if it isolates a candidate, certify it.

    A candidate is rejected (certificate None, code and values filled in) at
    the first failed check, in order: a corner that is not a crossing; an
    arc that fails to reach its target line or to confirm its arrival time; a
    landing off its end corner by more than CLOSURE_TOL; a residual over
    RESIDUAL_TOL.  The result's reason text is rendered from the code and
    values only when it is read.
    """
    outcome = closure.solve(system)
    if isinstance(outcome, closure.NoSolution):
        return CertificationResult(outcome, None, "no_solution", (outcome.reason,))
    if isinstance(outcome, closure.Continuum):
        return CertificationResult(
            outcome, None, "continuum", (outcome.description,)
        )
    corners = _corner_points(outcome)

    crossings = []
    for corner, line_id in zip(corners, CORNER_LINES):
        cls = flow.classify_boundary_point(system, corner, line_id)
        if cls.label != "crossing":
            return CertificationResult(
                outcome, None, "reject.corner_not_crossing", (corner, line_id, cls)
            )
        crossings.append(cls)

    times = []
    polyline: list[Point] = []
    for field, start, end in _arcs(system, corners):
        try:
            t = flow.flight_time(field, start, end[0])
        except (flow.NeverReaches, flow.TangentialContact, ArithmeticError) as exc:
            # The exception's name and text, not the exception: its traceback
            # would keep this frame and its locals alive with the result.
            return CertificationResult(
                outcome, None, "reject.arc_unrealizable",
                (start, end[0], type(exc).__name__, str(exc)),
            )
        landing = flow.flow_closed_form(field, start, t)
        gap = max(abs(landing[0] - end[0]), abs(landing[1] - end[1]))
        if gap > CLOSURE_TOL:
            return CertificationResult(
                outcome, None, "reject.landing_gap", (start, landing, end, gap)
            )
        samples = flow.orbit_samples(field, start, t, samples_per_arc)
        if polyline:
            del samples[0]  # the previous arc's landing stands for this start
        polyline.extend(samples)
        times.append(t)

    residual_norm = max(map(abs, closure.residuals_three_zone(system, *outcome)))
    if residual_norm > RESIDUAL_TOL:
        return CertificationResult(
            outcome, None, "reject.residual", (residual_norm, RESIDUAL_TOL)
        )

    certificate = CycleCertificate(
        corners=corners,
        flight_times=tuple(times),
        crossings=tuple(crossings),
        residual_norm=residual_norm,
        polyline=tuple(polyline),
        period=math.fsum(times),
    )
    return CertificationResult(outcome, certificate, "certified", ())


def verify_certificate(
    certificate: CycleCertificate, system: PiecewiseSystem
) -> VerificationReport:
    """Re-derive every certificate invariant with fresh computations."""
    if system.layout.n_zones != 3:
        raise ValueError("certificates only exist for three-zone systems")
    checks: list[CheckResult] = []
    y0, y1, y2, y3 = (corner[1] for corner in certificate.corners)

    residual = max(map(abs, closure.residuals_three_zone(system, y0, y1, y2, y3)))
    checks.append(CheckResult("closure_residuals", residual <= RESIDUAL_TOL,
                              residual, RESIDUAL_TOL))

    ordering = min(y0 - y1, y3 - y2)
    checks.append(CheckResult("corner_ordering", ordering > 0.0, ordering, 0.0))

    crossings = [
        flow.classify_boundary_point(system, corner, line_id)
        for corner, line_id in zip(certificate.corners, CORNER_LINES)
    ]
    worst_product = min(cls.product for cls in crossings)
    all_crossing = all(cls.label == "crossing" for cls in crossings)
    checks.append(CheckResult("corners_crossing",
                              all_crossing and worst_product > 0.0,
                              worst_product, 0.0))

    times = certificate.flight_times
    min_time = math.nan if any(map(math.isnan, times)) else min(times)
    checks.append(CheckResult("flight_times_positive", min_time > 0.0,
                              min_time, 0.0))

    max_gap = 0.0
    max_drift = 0.0
    max_late = 0.0
    for (field, start, target), t in zip(_arcs(system, certificate.corners), times):
        # The recorded time must be the arc's first arrival at its target
        # line, not a later one after whole revolutions.  An arc with no
        # first arrival, or a NaN time, counts as an infinite gap.
        try:
            first = flow.flight_time(field, start, target[0])
        except (flow.NeverReaches, flow.TangentialContact, ArithmeticError):
            first = math.nan
        late = abs(t - first) / (1.0 + first)
        max_late = max(max_late, math.inf if math.isnan(late) else late)
        # A time that is not finite and positive, or an arc whose flow
        # overflows, leaves no endpoint to compare: an infinite gap.
        landing = (math.nan,)
        if 0.0 < t < math.inf:
            try:
                landing = flow.flow_closed_form(field, start, t)
            except OverflowError:
                pass
        if not all(map(math.isfinite, landing)):
            max_gap = math.inf
            continue
        max_gap = max(
            max_gap, abs(landing[0] - target[0]), abs(landing[1] - target[1])
        )
        h0 = hamiltonian_value(field, start)
        drift = abs(hamiltonian_value(field, landing) - h0) / (1.0 + abs(h0))
        # An energy that overflows gives a NaN drift, which max() would drop.
        max_drift = max(max_drift, math.inf if math.isnan(drift) else drift)
    checks.append(CheckResult("flight_times_first_arrival",
                              max_late <= flow.CROSS_CHECK_TOL,
                              max_late, flow.CROSS_CHECK_TOL))
    checks.append(CheckResult("arc_endpoints", max_gap <= CLOSURE_TOL,
                              max_gap, CLOSURE_TOL))
    checks.append(CheckResult("arc_energy_constant",
                              max_drift <= ENERGY_DRIFT_TOL,
                              max_drift, ENERGY_DRIFT_TOL))

    period_gap = abs(certificate.period - math.fsum(times))
    checks.append(CheckResult("period_is_time_sum",
                              period_gap <= PERIOD_SUM_TOL,
                              period_gap, PERIOD_SUM_TOL))

    # The stored crossings and residual norm must be the re-derived ones; a
    # changed label, a missing crossing or a NaN counts as an infinite gap.
    recorded = certificate.crossings
    gaps = [abs(certificate.residual_norm - residual)]
    for r, c in zip(recorded, crossings):
        gaps += [abs(r.derivative_minus - c.derivative_minus),
                 abs(r.derivative_plus - c.derivative_plus)]
    same_labels = [r.label for r in recorded] == [c.label for c in crossings]
    mismatch = max(gaps) if same_labels and not any(map(math.isnan, gaps)) else math.inf
    checks.append(CheckResult("recorded_values_match", mismatch <= CLOSURE_TOL,
                              mismatch, CLOSURE_TOL))

    return VerificationReport(tuple(checks))


# --- JSON report -------------------------------------------------------------


def certificate_to_json_dict(certificate: CycleCertificate) -> dict:
    """Serializable summary: corners, times, crossing products, period."""
    return {
        "corners": {
            key: corner[1] for key, corner in zip(CORNER_KEYS, certificate.corners)
        },
        "flight_times": dict(zip(TIME_KEYS, certificate.flight_times)),
        "crossings": [
            {"corner": key, "product": c.product, **c._asdict()}
            for key, c in zip(CORNER_KEYS, certificate.crossings)
        ],
        "period": certificate.period,
        "residual_norm": certificate.residual_norm,
    }


def certificate_from_json_dict(doc: object) -> CycleCertificate:
    """Rebuild a certificate (without polyline) from its JSON summary.

    A malformed document raises ValueError naming the offending key.
    """
    corners = _member(doc, "certificate", "corners")
    times = _member(doc, "certificate", "flight_times")
    entries = _member(doc, "certificate", "crossings")
    if not isinstance(entries, list):
        raise ValueError("certificate.crossings must be a JSON array")
    if len(entries) != len(CORNER_KEYS):
        raise ValueError(f"certificate.crossings must hold {len(CORNER_KEYS)} "
                         f"entries, one per corner, not {len(entries)}")
    crossings = []
    for i, entry in enumerate(entries):
        where = f"crossings[{i}]"
        label = _member(entry, where, "label")
        if label not in ("crossing", "sliding", "escaping", "tangency"):
            raise ValueError(f"{where}.label must be crossing, sliding, "
                             f"escaping or tangency, not {label!r}")
        crossings.append(flow.CrossingClassification(
            label,
            _number(entry, where, "derivative_minus"),
            _number(entry, where, "derivative_plus"),
        ))
    return CycleCertificate(
        corners=_corner_points([_number(corners, "corners", k) for k in CORNER_KEYS]),
        flight_times=tuple(_number(times, "flight_times", k) for k in TIME_KEYS),
        crossings=tuple(crossings),
        residual_norm=_number(doc, "certificate", "residual_norm"),
        polyline=(),
        period=_number(doc, "certificate", "period"),
    )


def _member(doc: object, where: str, key: str) -> object:
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object")
    if key not in doc:
        raise ValueError(f"{where} has no key {key!r}")
    return doc[key]


def _number(doc: object, where: str, key: str) -> float:
    value = _member(doc, where, key)
    # Only JSON numbers: float() would also take true/false and numeric text.
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise ValueError(f"{where}.{key} must be a number, not {value!r}")
