"""Closed-form zone flows, boundary-contact classification and flight times.

With M = [[a, b], [c, -a]] and p* the singular point, a zone orbit is

    p(t) = p* + E(t) (p(0) - p*),

where M^2 = (a^2 + b*c) I collapses the matrix exponential to

    E(t) = cos(w t) I + sin(w t)/w M      (center, w^2 = -(a^2 + b*c))
    E(t) = cosh(l t) I + sinh(l t)/l M    (saddle, l^2 = a^2 + b*c).

Because the switching lines are vertical, the contact of a zone field with a
line is governed by the first field component alone: boundary points are
classified by the signs of the two one-sided x-velocities, and flight times
between lines reduce to scalar trigonometric (center) or exponential
(saddle) equations that we solve in closed form.  Each closed-form time t is
cross-checked by one sign test: x(t) - target must change sign between
t +/- CROSS_CHECK_TOL * (1 + t), so a transversal root lies that close.
"""

from __future__ import annotations

import math
from typing import Literal, NamedTuple

from .model import (
    LinearHamiltonianField,
    PiecewiseSystem,
    Point,
    vector_field_value,
)

# |x-velocity| at or below this is a tangential contact.
TANGENCY_TOL = 1e-10

# A point within this distance of a switching line's abscissa lies on it.
ON_LINE_TOL = 1e-9

# The flow must cross the target line within CROSS_CHECK_TOL * (1 + t) of a
# closed-form flight time t.
CROSS_CHECK_TOL = 1e-9

# A center orbit of radius R about px reaches the line x = px + d while
# |d| <= R * (1 + REACH_TOL) + TANGENCY_TOL.
REACH_TOL = 1e-14

# A center flight-time phase at or below this is the start itself; the
# arrival is one full turn later.
ZERO_PHASE_TOL = 1e-12

# A saddle root w = exp(l t) counts as a positive time only above
# 1 + SADDLE_START_TOL; nearer 1 it is the start itself.
SADDLE_START_TOL = 1e-13

# Negative discriminants above -CLAMP_TOL * scale are clamped to zero: a
# tangency counts as a double root, which the arrival-velocity test of the
# saddle flight time then rejects.
CLAMP_TOL = 1e-12

# Two roots r1, r2 with |r1 - r2| <= ROOT_MERGE_TOL * (1 + |r1| + |r2|) are
# one double root.
ROOT_MERGE_TOL = 1e-12


class NeverReaches(ValueError):
    """No admissible positive time carries the orbit to the target line."""


class TangentialContact(ValueError):
    """The first arrival at the target line has zero x-velocity."""


class NotOnSwitchingLine(ValueError):
    """The queried point does not lie on the named switching line."""


class FlowState(NamedTuple):
    """A point on an orbit, its flow time and the zone it belongs to."""

    point: Point
    time: float
    zone: str


class CrossingClassification(NamedTuple):
    """Contact type of a switching-line point with its two adjacent fields.

    ``derivative_minus``/``derivative_plus`` are the x-velocities of the
    fields on the x < line and x > line sides.  The orbit crosses when their
    product is positive; it slides (both push toward the line) or escapes
    (both push away) when the product is negative; a vanishing one-sided
    velocity is a tangency.
    """

    label: Literal["crossing", "sliding", "escaping", "tangency"]
    derivative_minus: float
    derivative_plus: float

    @property
    def product(self) -> float:
        return self.derivative_minus * self.derivative_plus


def flow_closed_form(field: LinearHamiltonianField, p0: Point, t: float) -> Point:
    """Exact zone flow of p0 by time t (t may be negative)."""
    if t == 0.0:
        return p0
    kind, m, (px, py) = field.singularity
    dx, dy = p0[0] - px, p0[1] - py
    if kind == "center":
        cw = math.cos(m * t)
        sw = math.sin(m * t) / m
    else:
        cw = math.cosh(m * t)
        sw = math.sinh(m * t) / m
    return (
        px + cw * dx + sw * (field.a * dx + field.b * dy),
        py + cw * dy + sw * (field.c * dx - field.a * dy),
    )


def orbit_samples(
    field: LinearHamiltonianField, p0: Point, t_end: float, n: int
) -> list[Point]:
    """n flow points at equally spaced times in [0, t_end]; starts at p0.

    Sample k equals flow_closed_form(field, p0, k * step) bit for bit: the
    arc's constants are derived once and the same operations run in order.
    """
    if n < 2:
        raise ValueError("need at least two samples")
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    step = t_end / (n - 1)
    kind, m, (px, py) = field.singularity
    dx, dy = p0[0] - px, p0[1] - py
    vx = field.a * dx + field.b * dy
    vy = field.c * dx - field.a * dy
    if kind == "center":
        even, odd = math.cos, math.sin
    else:
        even, odd = math.cosh, math.sinh
    samples = [p0]
    for k in range(1, n):
        mt = m * (k * step)
        cw = even(mt)
        sw = odd(mt) / m
        samples.append((px + cw * dx + sw * vx, py + cw * dy + sw * vy))
    return samples


def classify_boundary_point(
    system: PiecewiseSystem, p: Point, line_id: str
) -> CrossingClassification:
    """Classify a switching-line point by its one-sided x-velocities."""
    return classify_contact(line_id, *system.line_fields(line_id), p)


def classify_contact(
    line_id: str,
    line_x: float,
    minus_field: LinearHamiltonianField,
    plus_field: LinearHamiltonianField,
    p: Point,
) -> CrossingClassification:
    """Classify a point on the line x = line_x by the x-velocities of the
    fields on its x < line and x > line sides, with no layout lookup."""
    if abs(p[0] - line_x) > ON_LINE_TOL:
        raise NotOnSwitchingLine(
            f"point x = {p[0]:g} is not on line {line_id} (x = {line_x:g})"
        )
    # vector_field_value(field, p)[0] on each side, without building the vectors.
    x, y = p
    d_minus = minus_field.a * x + minus_field.b * y + minus_field.alpha
    d_plus = plus_field.a * x + plus_field.b * y + plus_field.alpha
    if abs(d_minus) <= TANGENCY_TOL or abs(d_plus) <= TANGENCY_TOL:
        label = "tangency"
    elif d_minus * d_plus > 0.0:
        label = "crossing"
    elif d_minus > 0.0:
        label = "sliding"
    else:
        label = "escaping"
    return CrossingClassification(label, d_minus, d_plus)


def _required_arrival_sign(
    field: LinearHamiltonianField, p0: Point, s0: float, s1: float
) -> float:
    """Sign of x-velocity at an arrival that exits across the target line.

    Travelling to a different line continues in the direction of travel;
    returning to the starting line reverses the departure direction.
    """
    if s0 != s1:
        return math.copysign(1.0, s1 - s0)
    v0 = vector_field_value(field, p0)[0]
    if abs(v0) <= TANGENCY_TOL:
        raise TangentialContact(
            "departure x-velocity vanishes; cannot orient the arc"
        )
    return -math.copysign(1.0, v0)


def _center_flight_time(
    u: float, v: float, d: float, w: float, s1: float, required_sign: float
) -> float:
    """Smallest positive root of x(t) = s1 with the required x-velocity sign.

    Writing x(t) = px + R cos(w t - phi), roots come in the two families
    w t - phi = +/- acos(d / R) (mod 2 pi); the family with +acos has
    x'(t) <= 0 and the other x'(t) >= 0, so the required sign selects one
    family and the smallest positive representative is the answer.
    """
    radius = math.hypot(u, v)
    if radius <= TANGENCY_TOL or abs(d) > radius * (1.0 + REACH_TOL) + TANGENCY_TOL:
        raise NeverReaches(f"orbit x-range misses the line x = {s1:g}")
    cos_arg = max(-1.0, min(1.0, d / radius))
    psi = math.acos(cos_arg)
    if math.sin(psi) * radius * w <= TANGENCY_TOL:
        # |d| = R: the orbit only grazes the line.
        raise TangentialContact(f"orbit is tangent to the line x = {s1:g}")
    phi = math.atan2(v, u)
    theta = psi if required_sign < 0.0 else -psi
    angle = math.fmod(phi + theta, 2.0 * math.pi)
    if angle < 0.0:
        angle += 2.0 * math.pi
    if angle <= ZERO_PHASE_TOL:
        angle += 2.0 * math.pi
    return angle / w


def _saddle_flight_time(
    field: LinearHamiltonianField, p0: Point, u: float, v: float, d: float,
    lam: float, s1: float, required_sign: float,
) -> float:
    """Saddle-zone analogue via the substitution w = exp(l t).

    With u, v, d as in flight_time, x(t) - s1 = 0 becomes the quadratic
    (u+v) w^2 - 2 d w + (u-v) = 0.  Admissible roots have w > 1 (t > 0);
    when the start already sits on the target line, w = 1 is a root and is
    deflated out exactly.  A grazing arc's clamped double root arrives with
    zero x-velocity, a tangential contact.
    """
    if p0[0] == s1:
        # Factor out the t = 0 root: remaining root (u+v) w = (u-v).
        roots = [] if u + v == 0.0 else [(u - v) / (u + v)]
    else:
        roots = quadratic_roots(u + v, -2.0 * d, u - v)

    times = sorted(math.log(w) / lam for w in roots if w > 1.0 + SADDLE_START_TOL)
    if not times:
        raise NeverReaches(f"saddle arc never reaches the line x = {s1:g}")
    for t in times:
        vx = vector_field_value(field, flow_closed_form(field, p0, t))[0]
        if abs(vx) <= TANGENCY_TOL:
            raise TangentialContact(f"arrival at x = {s1:g} is tangential")
        if vx * required_sign > 0.0:
            return t
    raise NeverReaches(
        f"no arrival at x = {s1:g} with the required crossing direction"
    )


def quadratic_roots(qa: float, qb: float, qc: float) -> list[float]:
    """Real roots of qa w^2 + qb w + qc, with tangency clamping.

    A slightly negative discriminant counts as a double root.  A quadratic
    that vanishes identically has no isolated root: [].
    """
    scale = max(abs(qa), abs(qb), abs(qc))
    if scale <= CLAMP_TOL:
        return []
    if abs(qa) <= CLAMP_TOL * scale:
        return [] if abs(qb) <= CLAMP_TOL * scale else [-qc / qb]
    disc = qb * qb - 4.0 * qa * qc
    disc_scale = qb * qb + abs(4.0 * qa * qc)
    if disc < -CLAMP_TOL * disc_scale:
        return []
    disc = max(disc, 0.0)  # tangency: double root
    sq = math.sqrt(disc)
    q = -0.5 * (qb + math.copysign(sq, qb)) if qb != 0.0 else -0.5 * sq
    if q == 0.0:
        return [0.0]
    r1, r2 = q / qa, qc / q
    if abs(r1 - r2) <= ROOT_MERGE_TOL * (1.0 + abs(r1) + abs(r2)):
        return [r1]
    return [r1, r2]


def flight_time(
    field: LinearHamiltonianField, p0: Point, target_x: float
) -> float:
    """Time for the zone orbit from p0 (on a switching line) to reach x = target_x.

    Returns the smallest t > 0 at which x(t) equals the target abscissa with
    a transversal crossing oriented out of the strip being traversed.  The
    closed-form answer is returned only once refine_flight_time confirms
    that g(t) = x(t) - target_x changes sign within
    CROSS_CHECK_TOL * (1 + t) of it.
    """
    s0, s1 = p0[0], float(target_x)
    required_sign = _required_arrival_sign(field, p0, s0, s1)
    # Phase coordinates: x(t) - px = u cos(w t) + v sin(w t) for a center,
    # u cosh(l t) + v sinh(l t) for a saddle; the target is at px + d.
    kind, m, (px, py) = field.singularity
    u, dy = p0[0] - px, p0[1] - py
    v = (field.a * u + field.b * dy) / m
    d = s1 - px
    if kind == "center":
        t = _center_flight_time(u, v, d, m, s1, required_sign)
    else:
        t = _saddle_flight_time(field, p0, u, v, d, m, s1, required_sign)
    refine_flight_time(field, p0, s1, t)
    return t


def refine_flight_time(
    field: LinearHamiltonianField, p0: Point, target_x: float, t_approx: float
) -> float:
    """Root of g(t) = x(t) - target_x within w = CROSS_CHECK_TOL * (1 +
    |t_approx|) of t_approx, as the secant root of g at t_approx +/- w.

    ArithmeticError unless g changes sign between those two times, that is
    unless the orbit crosses the line within w of t_approx.
    """
    w = CROSS_CHECK_TOL * (1.0 + abs(t_approx))
    lo, hi = t_approx - w, t_approx + w
    g_lo = flow_closed_form(field, p0, lo)[0] - target_x
    g_hi = flow_closed_form(field, p0, hi)[0] - target_x
    if not g_lo * g_hi < 0.0:
        raise ArithmeticError(
            f"flight-time cross-check failed: the orbit does not cross "
            f"x = {target_x:g} within t = {t_approx!r} +/- {w:.3g}"
        )
    return (lo * g_hi - hi * g_lo) / (g_hi - g_lo)
