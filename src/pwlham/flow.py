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
from functools import lru_cache
from typing import Literal, NamedTuple

from .model import LinearHamiltonianField, PiecewiseSystem, Point

# |x-velocity| at or below this is a tangential contact.
TANGENCY_TOL = 1e-10

# A point within this distance of a switching line's abscissa lies on it.
ON_LINE_TOL = 1e-9

# The flow must cross the target line within CROSS_CHECK_TOL * (1 + t) of a
# closed-form flight time t.
CROSS_CHECK_TOL = 1e-9

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
    return p0 if t == 0.0 else _flow(field, p0, t, (1.0,))[0]


def orbit_samples(
    field: LinearHamiltonianField, p0: Point, t_end: float, n: int
) -> list[Point]:
    """n flow points at equally spaced times in [0, t_end]; starts at p0.

    Sample k equals flow_closed_form(field, p0, k * step) bit for bit: both
    are evaluated by the same loop (_flow), which is handed each index k as
    the float k, exact since k < 2**53, and 1.0 * t is exactly t.
    """
    if n < 2:
        raise ValueError("need at least two samples")
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    samples = _flow(field, p0, t_end / (n - 1), _indices(n))
    samples.insert(0, p0)
    return samples


@lru_cache(maxsize=4)
def _indices(n: int) -> tuple[float, ...]:
    """1.0, ..., n - 1 as floats, so m * (k * step) multiplies float by float."""
    return tuple(map(float, range(1, n)))


def _flow(field: LinearHamiltonianField, p0: Point, step: float, ks) -> list[Point]:
    """The points p* + E(k * step) (p0 - p*) for k in ks, with the arc's
    constants (p*, d = p0 - p*, M d and the pair of E) derived once."""
    kind, m, (px, py) = field.singularity
    dx, dy = p0[0] - px, p0[1] - py
    vx = field.a * dx + field.b * dy
    vy = field.c * dx - field.a * dy
    if kind == "center":
        even, odd = math.cos, math.sin
    else:
        even, odd = math.cosh, math.sinh
    points = []
    for k in ks:
        mt = m * (k * step)
        cw = even(mt)
        sw = odd(mt) / m
        points.append((px + cw * dx + sw * vx, py + cw * dy + sw * vy))
    return points


def classify_boundary_point(
    system: PiecewiseSystem, p: Point, line_id: str
) -> CrossingClassification:
    """Classify a switching-line point by its one-sided x-velocities."""
    line_x, minus_field, plus_field = system.line_fields(line_id)
    if abs(p[0] - line_x) > ON_LINE_TOL:
        raise NotOnSwitchingLine(
            f"point x = {p[0]:g} is not on line {line_id} (x = {line_x:g})"
        )
    # The x-component a*x + b*y + alpha of each side's field at p.
    x, y = p
    d_minus = minus_field.a * x + minus_field.b * y + minus_field.alpha
    d_plus = plus_field.a * x + plus_field.b * y + plus_field.alpha
    return CrossingClassification(contact_label(d_minus, d_plus), d_minus, d_plus)


def contact_label(d_minus: float, d_plus: float) -> str:
    """Kind of contact on a switching line whose x-velocities are d_minus on
    its x < line side and d_plus on its x > line side."""
    if abs(d_minus) <= TANGENCY_TOL or abs(d_plus) <= TANGENCY_TOL:
        return "tangency"
    if d_minus * d_plus > 0.0:
        return "crossing"
    return "sliding" if d_minus > 0.0 else "escaping"


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
    a transversal crossing oriented out of the strip being traversed: a
    center's earliest acos-family root, or a saddle's earliest quadratic
    root w = exp(l t) > 1.  Either kind raises NeverReaches or
    TangentialContact otherwise, and returns t only once refine_flight_time
    confirms that x(t) - target_x changes sign within
    CROSS_CHECK_TOL * (1 + t) of it.
    """
    s0, s1 = p0[0], float(target_x)
    # An arc to the other line exits in its direction of travel; an arc back
    # to its starting line exits against its departure direction.
    if s0 != s1:
        required_sign = math.copysign(1.0, s1 - s0)
    else:
        v0 = field.a * p0[0] + field.b * p0[1] + field.alpha
        if abs(v0) <= TANGENCY_TOL:
            raise TangentialContact(
                "departure x-velocity vanishes; cannot orient the arc"
            )
        required_sign = -math.copysign(1.0, v0)
    # Phase coordinates: x(t) - px = u cos(w t) + v sin(w t) for a center,
    # u cosh(l t) + v sinh(l t) for a saddle; the target is at px + d.
    kind, m, (px, py) = field.singularity
    u, dy = p0[0] - px, p0[1] - py
    v = (field.a * u + field.b * dy) / m
    d = s1 - px
    if kind == "center":
        # Writing x(t) = px + R cos(w t - phi), roots come in the two
        # families w t - phi = +/- acos(d / R) (mod 2 pi); the family with
        # +acos has x'(t) <= 0 and the other x'(t) >= 0, so the required sign
        # selects one family and its smallest non-negative representative is
        # the answer.  At a start on the target line, a phase near 0 means
        # both families nearly meet there: a grazing arc, which
        # refine_flight_time rejects.
        radius = math.hypot(u, v)
        if radius <= TANGENCY_TOL or abs(d) > radius + TANGENCY_TOL:
            raise NeverReaches(f"orbit x-range misses the line x = {s1:g}")
        cos_arg = max(-1.0, min(1.0, d / radius))
        psi = math.acos(cos_arg)
        if math.sin(psi) * radius * m <= TANGENCY_TOL:
            # |d| = R: the orbit only grazes the line.
            raise TangentialContact(f"orbit is tangent to the line x = {s1:g}")
        phi = math.atan2(v, u)
        theta = psi if required_sign < 0.0 else -psi
        angle = math.fmod(phi + theta, 2.0 * math.pi)
        if angle < 0.0:
            angle += 2.0 * math.pi
        t = angle / m
    else:
        # With w = exp(l t), x(t) - s1 = 0 becomes the quadratic
        # (u+v) w^2 - 2 d w + (u-v) = 0.  Admissible roots have w > 1
        # (t > 0), with no margin: a start on the target line has its own
        # root w = 1 deflated out exactly, and a root just above 1 is left
        # to refine_flight_time.  The earliest admissible root decides: from
        # a start off the target line, x(t) - s1 keeps the start's sign
        # until that root, so the orbit arrives from the start's side,
        # moving in the required direction unless it grazes; from a start on
        # the line, deflation leaves one root.  A grazing arc's clamped
        # double root arrives with zero x-velocity, a tangential contact.
        if p0[0] == s1:
            # Factor out the t = 0 root: remaining root (u+v) w = (u-v).
            roots = [] if u + v == 0.0 else [(u - v) / (u + v)]
        else:
            roots = quadratic_roots(u + v, -2.0 * d, u - v)
        times = [math.log(w) / m for w in roots if w > 1.0]
        if not times:
            raise NeverReaches(f"saddle arc never reaches the line x = {s1:g}")
        t = min(times)
        x, y = flow_closed_form(field, p0, t)
        vx = field.a * x + field.b * y + field.alpha
        if abs(vx) <= TANGENCY_TOL:
            raise TangentialContact(f"arrival at x = {s1:g} is tangential")
        if not vx * required_sign > 0.0:
            raise NeverReaches(
                f"no arrival at x = {s1:g} with the required crossing direction"
            )
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
    # Both ends in one evaluation; at time 0 the flow is p0 itself.
    p_lo, p_hi = _flow(field, p0, 1.0, (lo, hi))
    g_lo = (p0 if lo == 0.0 else p_lo)[0] - target_x
    g_hi = (p0 if hi == 0.0 else p_hi)[0] - target_x
    if not g_lo * g_hi < 0.0:
        raise ArithmeticError(
            f"flight-time cross-check failed: the orbit does not cross "
            f"x = {target_x:g} within t = {t_approx!r} +/- {w:.3g}"
        )
    return (lo * g_hi - hi * g_lo) / (g_hi - g_lo)
