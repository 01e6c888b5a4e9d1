"""Assembly and independent verification of certified crossing limit cycles.

A closure solution is only a candidate: the four corner ordinates solve the
energy-matching equations, but an actual crossing limit cycle additionally
needs transversal crossings at every corner and four realizable arcs that
chain back to the starting corner.  ``find_limit_cycle`` performs those
checks and packages the result; ``verify_certificate`` re-derives every
invariant from scratch so a certificate can be audited after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import closure, flow
from .model import PiecewiseSystem, Point, hamiltonian_value

# Position mismatch allowed when chaining arc endpoints to corners.
CLOSURE_TOL = 1e-8

# Energy-matching residual allowed at a certified corner tuple.
RESIDUAL_TOL = 1e-9

# Relative energy drift allowed along a certified arc.
ENERGY_DRIFT_TOL = 1e-9

# Gap allowed between a certificate's period and its flight-time sum.
PERIOD_SUM_TOL = 1e-12

DEFAULT_SAMPLES_PER_ARC = 256


@dataclass(frozen=True)
class CycleCertificate:
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


@dataclass(frozen=True)
class CertificationResult:
    """Outcome of the closure analysis plus the certificate when one exists."""

    outcome: closure.ClosureOutcome
    certificate: Optional[CycleCertificate]
    reason: str


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    limit: float


@dataclass(frozen=True)
class VerificationReport:
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

    A candidate is rejected (certificate None, reason filled in) if a corner
    is not a transversal crossing, an arc fails to reach its target line, or
    the chained arcs do not close up.
    """
    outcome = closure.solve(system)
    if isinstance(outcome, closure.NoSolution):
        return CertificationResult(outcome, None, f"no solution: {outcome.reason}")
    if isinstance(outcome, closure.Continuum):
        return CertificationResult(
            outcome, None, f"continuum of periodic orbits: {outcome.description}"
        )

    try:
        certificate = _build_certificate(system, outcome, samples_per_arc)
    except _CandidateRejected as exc:
        return CertificationResult(outcome, None, str(exc))
    return CertificationResult(outcome, certificate, "certified")


class _CandidateRejected(Exception):
    pass


def _build_certificate(
    system: PiecewiseSystem,
    candidate: closure.UniqueCycleCandidate,
    samples_per_arc: int,
) -> CycleCertificate:
    y0, y1, y2, y3 = candidate.as_tuple()
    corners: tuple[Point, Point, Point, Point] = (
        (1.0, y0),
        (1.0, y1),
        (-1.0, y2),
        (-1.0, y3),
    )
    corner_lines = ("R", "R", "L", "L")

    crossings = []
    for corner, line_id in zip(corners, corner_lines):
        cls = flow.classify_boundary_point(system, corner, line_id)
        if cls.label != "crossing":
            raise _CandidateRejected(
                f"algebraic solution, not a crossing cycle: corner {corner} "
                f"on line {line_id} is {cls.label}"
            )
        crossings.append(cls)

    lf, cf, rf = system.fields
    arcs = (
        (rf, corners[0], 1.0, corners[1]),   # R-zone return arc
        (cf, corners[1], -1.0, corners[2]),  # upper-to-left C arc
        (lf, corners[2], -1.0, corners[3]),  # L-zone return arc
        (cf, corners[3], 1.0, corners[0]),   # left-to-right C arc
    )
    times = []
    polyline: list[Point] = []
    for field, start, target_x, end in arcs:
        try:
            t = flow.flight_time(field, start, target_x)
        except (flow.NeverReaches, flow.TangentialContact) as exc:
            raise _CandidateRejected(
                f"arc from {start} toward x = {target_x:g} is not "
                f"realizable: {exc}"
            ) from exc
        landing = flow.flow_closed_form(field, start, t)
        gap = max(abs(landing[0] - end[0]), abs(landing[1] - end[1]))
        if gap > CLOSURE_TOL:
            raise _CandidateRejected(
                f"arc from {start} lands at {landing}, expected {end} "
                f"(gap {gap:.3e})"
            )
        samples = flow.orbit_samples(field, start, t, samples_per_arc)
        polyline.extend(samples if not polyline else samples[1:])
        times.append(t)

    residual_norm = closure.residuals_three_zone(system, y0, y1, y2, y3).max_abs()
    if residual_norm > RESIDUAL_TOL:
        raise _CandidateRejected(
            f"closure residual {residual_norm:.3e} exceeds {RESIDUAL_TOL:g}"
        )

    return CycleCertificate(
        corners=corners,
        flight_times=(times[0], times[1], times[2], times[3]),
        crossings=tuple(crossings),
        residual_norm=residual_norm,
        polyline=tuple(polyline),
        period=sum(times),
    )


def verify_certificate(
    certificate: CycleCertificate, system: PiecewiseSystem
) -> VerificationReport:
    """Re-derive every certificate invariant with fresh computations."""
    if system.layout.n_zones != 3:
        raise ValueError("certificates only exist for three-zone systems")
    checks: list[CheckResult] = []
    (c0, c1, c2, c3) = certificate.corners
    y0, y1, y2, y3 = c0[1], c1[1], c2[1], c3[1]

    residual = closure.residuals_three_zone(system, y0, y1, y2, y3).max_abs()
    checks.append(CheckResult("closure_residuals", residual <= RESIDUAL_TOL,
                              residual, RESIDUAL_TOL))

    ordering = min(y0 - y1, y3 - y2)
    checks.append(CheckResult("corner_ordering", ordering > 0.0, ordering, 0.0))

    worst_product = float("inf")
    all_crossing = True
    for corner, line_id in zip(certificate.corners, ("R", "R", "L", "L")):
        cls = flow.classify_boundary_point(system, corner, line_id)
        worst_product = min(worst_product, cls.product)
        all_crossing = all_crossing and cls.label == "crossing"
    checks.append(CheckResult("corners_crossing",
                              all_crossing and worst_product > 0.0,
                              worst_product, 0.0))

    min_time = min(certificate.flight_times)
    checks.append(CheckResult("flight_times_positive", min_time > 0.0,
                              min_time, 0.0))

    lf, cf, rf = system.fields
    arc_fields = (rf, cf, lf, cf)
    arc_targets = (c1, c2, c3, c0)
    max_gap = 0.0
    max_drift = 0.0
    for field, start, t, target in zip(
        arc_fields, certificate.corners, certificate.flight_times, arc_targets
    ):
        if t <= 0.0:
            max_gap = float("inf")
            continue
        landing = flow.flow_closed_form(field, start, t)
        max_gap = max(
            max_gap, abs(landing[0] - target[0]), abs(landing[1] - target[1])
        )
        h0 = hamiltonian_value(field, start)
        drift = abs(hamiltonian_value(field, landing) - h0)
        max_drift = max(max_drift, drift / (1.0 + abs(h0)))
    checks.append(CheckResult("arc_endpoints", max_gap <= CLOSURE_TOL,
                              max_gap, CLOSURE_TOL))
    checks.append(CheckResult("arc_energy_constant",
                              max_drift <= ENERGY_DRIFT_TOL,
                              max_drift, ENERGY_DRIFT_TOL))

    period_gap = abs(certificate.period - sum(certificate.flight_times))
    checks.append(CheckResult("period_is_time_sum",
                              period_gap <= PERIOD_SUM_TOL,
                              period_gap, PERIOD_SUM_TOL))

    if certificate.polyline:
        first, last = certificate.polyline[0], certificate.polyline[-1]
        gap = max(abs(first[0] - last[0]), abs(first[1] - last[1]))
        checks.append(CheckResult("polyline_closed", gap <= CLOSURE_TOL,
                                  gap, CLOSURE_TOL))

    return VerificationReport(tuple(checks))


# --- JSON report -------------------------------------------------------------


def certificate_to_json_dict(certificate: CycleCertificate) -> dict:
    """Serializable summary: corners, times, crossing products, period."""
    return {
        "corners": {
            "y0": certificate.corners[0][1],
            "y1": certificate.corners[1][1],
            "y2": certificate.corners[2][1],
            "y3": certificate.corners[3][1],
        },
        "flight_times": {
            "t_R": certificate.flight_times[0],
            "t_C1": certificate.flight_times[1],
            "t_L": certificate.flight_times[2],
            "t_C2": certificate.flight_times[3],
        },
        "crossings": [
            {
                "corner": ["y0", "y1", "y2", "y3"][i],
                "derivative_minus": c.derivative_minus,
                "derivative_plus": c.derivative_plus,
                "product": c.product,
                "label": c.label,
            }
            for i, c in enumerate(certificate.crossings)
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
    crossings = tuple(
        flow.CrossingClassification(
            _member(entry, f"crossings[{i}]", "label"),
            _number(entry, f"crossings[{i}]", "derivative_minus"),
            _number(entry, f"crossings[{i}]", "derivative_plus"),
        )
        for i, entry in enumerate(entries)
    )
    y0, y1, y2, y3 = (
        _number(corners, "corners", k) for k in ("y0", "y1", "y2", "y3")
    )
    t_r, t_c1, t_l, t_c2 = (
        _number(times, "flight_times", k) for k in ("t_R", "t_C1", "t_L", "t_C2")
    )
    return CycleCertificate(
        corners=((1.0, y0), (1.0, y1), (-1.0, y2), (-1.0, y3)),
        flight_times=(t_r, t_c1, t_l, t_c2),
        crossings=crossings,
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
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{where}.{key} must be a number, not {value!r}") from None
