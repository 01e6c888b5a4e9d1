"""Numerical return-map oracle, independent of the closed-form pipeline.

Orbits are integrated with the classical fixed-step fourth-order Runge-Kutta
scheme, one zone at a time.  On an affine zone field one RK4 step is the
order-4 Taylor polynomial of the flow in the step length, so a whole step is
an affine map, one per zone.  A zone table, built once per system and
tolerance (_zone_table), holds all a run reads of the system: the step
length, the time past which a step no longer advances, and per zone its
field, strip, step map and exits, each exit being a bounding line's record
with the two fields that classify a contact there and the zones on its two
sides; the last record, the right line's, is the return map's section.  So
no event looks a line or zone up.  The first step that leaves the zone's
strip, or ends at the time budget, is evaluated once on its quartic in its
length; if it crosses a switching line, the crossing time is localized by
safeguarded Newton on that quartic minus the line's abscissa, inside the
step.  The orbit is handed to the zone beyond the exit only when the
contact classifies as a crossing (flow.contact).
The return map records no states, so inside a strip it jumps each run of
whole steps at once with a power of the zone's RK4 step map p -> p + E p + e.
Since M^2 = D I for the zone's linear part M, every power of I + E is a
combination of I and M, taken by repeated squaring with IEEE + and * from E
and e alone, once per zone and run length (_zone_table keeps them); it is a
power of the RK4 step, not the closed-form flow.  Only
the run's length is chosen with logarithms and trigonometry, as the most
steps that provably keep the abscissa inside the strip, so single steps
still meet every exit, event, contact and budget end.
The first return to the right line with rightward motion defines the return
map on that line, and Anderson-Bjorck false position on a sign-changing
bracket of the displacement return_map(y) - y locates its fixed points, i.e.
periodic orbits.  The fixed point it reports is one of the ordinates it
integrated, and first_return keeps its last few answers, so the return time
of that fixed point is read back rather than integrated again.

Everything here deliberately avoids the closed-form flow and flight-time
machinery so that agreement between the two routes is meaningful evidence.
"""

from __future__ import annotations

import functools
import math
from typing import IO, NamedTuple

from .flow import CrossingClassification, contact, quadratic_roots
from .model import PiecewiseSystem, Point

DEFAULT_TOL = 1e-9

# Time budget for one return to the right line.
RETURN_T_MAX = 100.0

# fixed_point narrows the bracket by false position to this width.
FIXED_POINT_Y_TOL = 1e-10

# Event localization by Newton runs until the residual |x - line| falls
# below this.
EVENT_TOL = 1e-12

# It also stops only once the next Newton correction is within
# EVENT_WIDTH_TOL * max(h, 1), for a step of length h.
EVENT_WIDTH_TOL = 1e-10

# A run of whole steps is jumped only where each of its abscissae provably
# stays RUN_MARGIN * (1 + |c_x| + the orbit's size about c) inside the strip,
# c being the step map's fixed point; this covers the rounding of the jump
# and of the bounds that certify it.
RUN_MARGIN = 1e-9

# The return map takes this many whole steps one by one after a zone entry and
# after each jump, before it seeks the next run: a state on a line, or one
# step short of where the abscissa may leave, admits no certified run.
SINGLE_STEPS = 2

# The most steps one run of integrate_numeric takes one by one: every step
# of a recorded run, so also the most states it records past its start, and
# every step a return map does not jump.  Near each exit the return map
# steps through the RUN_MARGIN band, about RUN_MARGIN / (h_base * speed)
# steps: some 1e3 at tol = 1e-45 on the fixtures, 1e7 at tol = 1e-60.  A tol
# whose step needs more raises ValueError rather than running for minutes.
SINGLE_STEPS_MAX = 1 << 20

# A saddle zone's run of k steps keeps lam_up^k <= exp(RUN_GROWTH_MAX), so the
# powers that jump it stay finite.
RUN_GROWTH_MAX = 600.0

ORACLE_AGREEMENT_TOL = 1e-6

# Half-widths of the brackets fixed_point_near tries around y, in ascending
# order.  The narrowest is 100 * ORACLE_AGREEMENT_TOL: a fixed point found
# inside a bracket may still miss y by more than the tolerance, so agreement
# is judged on the measured gap alone.  A bracket with no sign change (the
# fixed point lies beyond it), or whose orbits slide or never return, gives
# way to the next wider one.
ORACLE_BRACKETS = (1e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2)


class SlidingEncountered(RuntimeError):
    """The orbit reached a switching-line segment it cannot cross."""

    def __init__(self, message: str, trajectory: "Trajectory") -> None:
        super().__init__(message)
        self.trajectory = trajectory


class NoReturn(RuntimeError):
    """The orbit did not return to the section within the time budget."""


class BadBracket(ValueError):
    """The displacement does not change sign over the given bracket."""


class FixedPoint(NamedTuple):
    """A zero y of the displacement return_map(y) - y, within
    FIXED_POINT_Y_TOL, and the displacement d_hi at the upper end of the
    bracket it was found in.  y is an ordinate fixed_point integrated, so
    first_return(system, y, tol) is that probe's own return."""

    y: float
    d_hi: float


class FlowState(NamedTuple):
    """A point on an orbit, its flow time and the zone it belongs to."""

    point: Point
    time: float
    zone: str


class SwitchEvent(NamedTuple):
    time: float
    point: Point
    line: str
    classification: CrossingClassification


class Trajectory(NamedTuple):
    states: tuple[FlowState, ...]
    events: tuple[SwitchEvent, ...]


def _base_step(system: PiecewiseSystem, tol: float) -> float:
    """Step size targeting a global error near tol for the RK4 scheme.

    Global RK4 error scales like h^4, so h ~ tol^(1/4); the cap keeps the
    per-step rotation/growth angle modest in stiff-ish zones.
    """
    fastest = max(f.singularity.modulus for f in system.fields)
    return min(0.5 * tol ** 0.25, 0.2 / fastest)


def _step_map(field, h: float) -> tuple:
    """The RK4 step of length h as p -> p + E p + e, and the constants of its
    powers: (E00, E01, E10, E11, e_x, e_y, a, b, c, D, p1, r, c_x, c_y, speed,
    shape).

    On an affine field F(p) = M p + f the RK4 step is the order-4 Taylor
    polynomial of the flow, p + sum_k h^k/k! M^(k-1) F(p), and M^2 = D I with
    D = a^2 + b*c.  So E = p1 I + r M and e = r f + q M f, where
    r = h + h^3 D/6, q = h^2/2 + h^4 D/24 and p1 = D q.  Every power is
    (I + E)^j = (1 + p_j) I + q_j M, and the step map's fixed point c solves
    E c = -e.  About c, the abscissa after j steps is R rho^j cos(j theta -
    phi) in a centre zone (D < 0), where 1 + p1 + i r omega = rho e^(i theta),
    and A lam_up^j + B lam_down^j in a saddle zone (D > 0), where lam = 1 + p1
    +- r sigma; speed is omega or sigma.  These shapes only choose how many
    steps to jump; _jump itself uses E, e and the coefficients alone.
    """
    a, b, c, alpha, beta = field.a, field.b, field.c, field.alpha, field.beta
    d = field.linear_determinant()
    h2 = h * h
    r, q = h * (1.0 + h2 * d / 6.0), h2 * (0.5 + h2 * d / 24.0)
    p1 = d * q
    ex = r * alpha + q * (a * alpha + b * beta)
    ey = r * beta + q * (c * alpha - a * beta)
    det = p1 * p1 - r * r * d  # E (p1 I - r M) = det I
    cx = (r * (a * ex + b * ey) - p1 * ex) / det
    cy = (r * (c * ex - a * ey) - p1 * ey) / det
    if d < 0.0:
        speed = math.sqrt(-d)
        theta = math.atan2(r * speed, 1.0 + p1)
        turn = math.ceil(math.tau / theta)
        rho_turn = math.hypot(1.0 + p1, r * speed) ** turn
        shape = (theta, turn, min(rho_turn, 1.0), max(rho_turn, 1.0))
    else:
        # h sigma <= 0.2 (_base_step), so 0 < lam_down < 1 < lam_up.
        speed = math.sqrt(d)
        log_up = math.log1p(p1 + r * speed)
        shape = (log_up, math.log1p(p1 - r * speed), int(RUN_GROWTH_MAX / log_up))
    return (
        p1 + r * a, r * b, r * c, p1 - r * a, ex, ey,
        a, b, c, d, p1, r, cx, cy, speed, shape,
    )


def _run_length(step: tuple, lo: float, hi: float, x: float, y: float, cap: int) -> int:
    """The most whole steps, up to cap, that provably keep the abscissa
    RUN_MARGIN inside (lo, hi) from (x, y); 0 when there is no such run.

    The shrunk strip (x_lo, x_hi) is taken about c_x.  About a centre,
    x_j - c_x = R rho^j cos(j theta - phi), R cos(phi) = ux, R sin(phi) = v;
    about a saddle, x_j - c_x = A lam_up^j + B lam_down^j, A = (ux + v)/2,
    B = (ux - v)/2.
    """
    a, b, _, d, _, _, cx, cy, speed, shape = step[6:]
    ux = x - cx
    v = (a * ux + b * (y - cy)) / speed
    margin = RUN_MARGIN * (1.0 + abs(ux) + abs(v) + abs(cx))
    x_lo, x_hi = lo - cx + margin, hi - cx - margin
    if not x_lo < x_hi:
        return 0
    if d < 0.0:
        theta, turn, rho_lo, rho_hi = shape
        radius = math.hypot(ux, v)
        if not radius > 0.0:
            return 0
        phi = math.atan2(v, ux)
        k = min(cap, turn)
        # Within one turn rho^j lies in [rho_lo, rho_hi], so step j can pass a
        # shrunk line only in a phase window cos(j theta - phi - mid) >= g.  The
        # run stops one step before the first step inside either window.
        for mid, reach in ((0.0, x_hi), (math.pi, -x_lo)):
            g = reach / (radius * (rho_hi if reach > 0.0 else rho_lo))
            if g > 1.0:
                continue
            if g <= -1.0:
                return 0
            half = math.acos(g)
            first = (theta - phi - mid + half) % math.tau  # step 1, from the window's start
            if first <= 2.0 * half:
                return 0
            k = min(k, math.ceil((math.tau - first) / theta))
        return k
    log_up, log_down, growth_cap = shape
    if not x_lo < ux < x_hi:
        return 0
    up, down = 0.5 * (ux + v), 0.5 * (ux - v)
    k = min(cap, growth_cap)
    # First crossing of a shrunk line, estimated from A w + B / w = X with
    # w = lam_up^s, since lam_up lam_down = 1 + O((h sigma)^6).
    for reach in (x_lo, x_hi):
        if math.isfinite(reach):
            for w in quadratic_roots(up, -reach, down):
                if 1.0 < w < math.inf:
                    k = min(k, math.floor(math.log(w) / log_up) - 1)
    # A w + B w^(log_down/log_up) has at most one extremum over s > 0, so a
    # run whose start, end and extremum are inside stays inside.
    extremum = 0.0
    if up * down > 0.0:
        extremum = math.log(-down * log_down / (up * log_up)) / (log_up - log_down)
    while k > 0 and not (
        x_lo < up * math.exp(k * log_up) + down * math.exp(k * log_down) < x_hi
        and (not 0.0 < extremum < k
             or x_lo < up * math.exp(extremum * log_up)
             + down * math.exp(extremum * log_down) < x_hi)
    ):
        k //= 2
    return max(k, 0)


def _jump_powers(step: tuple, k: int) -> tuple[float, float]:
    """(s, t) with S = sum over j < k of (I + E)^j = s I + t M, by IEEE + and *
    only, from E = p1 I + r M and D.

    S and P = (I + E)^m - I = p I + q M are built from m = 1 by doubling,
    S <- S (2 I + P), and by one more step, S <- S + I + P; P composes by
    (p, q) o (p', q') = (p + p' + p p' + D q q', q + q' + p q' + q p').
    They depend on the zone's step map and on k alone, so the return map
    takes them once per zone and run length (_jump).
    """
    d, p1, r = step[9:12]
    p, q, s, t = p1, r, 1.0, 0.0
    for bit in bin(k)[3:]:
        u = 2.0 + p
        s, t = s * u + d * t * q, s * q + t * u
        p, q = p * u + d * q * q, q * (u + p)
        if bit == "1":
            s, t = s + 1.0 + p, t + q
            p, q = p + p1 + p * p1 + d * q * r, q + r + p * r + q * p1
    return s, t


def _jump(entry: tuple, k: int, x: float, y: float) -> Point:
    """The state k whole steps on from (x, y) in the zone of ``entry`` (a
    _zone_table entry), by IEEE + and * only.

    The increments of successive steps are (I + E)^j (E p + e), so the jump
    adds S (E p + e) with S = sum over j < k of (I + E)^j = s I + t M.  The
    entry keeps its step map's (s, t) by k: each is taken by _jump_powers at
    the first run of its length and reused by every later one.  Since
    S E = (I + E)^k - I, this adds that power times p - c for the step
    map's fixed point c without forming p - c, which loses digits when c
    lies far away.
    """
    step, powers = entry[4:]
    st = powers.get(k)
    if st is None:
        st = powers[k] = _jump_powers(step, k)
    s, t = st
    e00, e01, e10, e11, ex, ey, a, b, c = step[:9]
    dx = e00 * x + e01 * y + ex
    dy = e10 * x + e11 * y + ey
    return (
        x + (s * dx + t * (a * dx + b * dy)),
        y + (s * dy + t * (c * dx - a * dy)),
    )


def _quartic(coefficients: tuple[float, ...], tau: float) -> float:
    c0, c1, c2, c3, c4 = coefficients
    return c0 + tau * (c1 + tau * (c2 + tau * (c3 + tau * c4)))


@functools.lru_cache(maxsize=8)
def _zone_table(system: PiecewiseSystem, tol: float) -> tuple:
    """Everything a run reads of its system and tolerance, derived once and
    kept, as fixed_point runs many return maps on one unchanging system:
    (h_base, zones, t_whole, lines).

    ``h_base`` is the RK4 step; a step advances t while t < ``t_whole`` =
    2^53 times the largest power of two not above h_base.  ``lines`` holds
    each switching line's exit record, left to right: (line id, abscissa,
    the fields on its x < and x > sides, the zones on those sides), all that
    a contact's classification and the handoff to the next zone read.  The
    last exit record, the right line's, is the return map's section, and its
    x > zone is the outer right zone that a start or return on it must enter.
    ``zones`` maps each zone to its field, its strip, the exit records of the
    lines bounding the strip (zone i lies between lines i - 1 and i), its
    _step_map at h_base and the jump powers of its runs by length, filled as
    _jump meets them.
    """
    if not 0.0 < tol < math.inf:  # also rejects nan
        raise ValueError("tol must be positive and finite")
    h_base = _base_step(system, tol)
    layout = system.layout
    lines = tuple(
        (line_id, *system.line_fields(line_id), *layout.zones_beside(line_id))
        for line_id, _ in layout.switching_lines
    )
    zones = {
        zone_id: (field, *layout.zone_interval(zone_id), lines[max(i - 1, 0) : i + 1],
                  _step_map(field, h_base), {})
        for i, (zone_id, field) in enumerate(zip(layout.zone_ids, system.fields))
    }
    t_whole = math.ldexp(1.0, math.frexp(h_base)[1] + 52)
    return h_base, zones, t_whole, lines


def _initial_zone(zones: dict, lines: tuple, p: Point) -> str:
    """Zone owning the start point; points on a line must cross into a zone."""
    for line in lines:
        if p[0] == line[1]:
            return _entered_zone(line, p)
    for zone_id, entry in zones.items():
        if entry[1] < p[0] < entry[2]:
            return zone_id
    raise ValueError(f"point {p} belongs to no zone")


def _entered_zone(line: tuple, p: Point) -> str:
    """Zone that a start point p on a line crosses into, given the line's
    exit record (see _zone_table)."""
    line_id, _, minus_field, plus_field, minus_zone, plus_zone = line
    label, _, d_plus = contact(minus_field, plus_field, *p)
    if label != "crossing":
        raise SlidingEncountered(
            f"start point {p} on line {line_id} is {label}",
            Trajectory((), ()),
        )
    return plus_zone if d_plus > 0.0 else minus_zone


def integrate_numeric(
    system: PiecewiseSystem,
    x0: Point,
    t_max: float,
    tol: float = DEFAULT_TOL,
    until_return: bool = False,
) -> Trajectory:
    """Integrate the piecewise orbit from x0 for up to t_max time units.

    Whole RK4 steps apply each zone's affine step map, read with the zone's
    exits from the table built once per system and tolerance (_zone_table),
    while the next abscissa stays strictly inside the zone's strip.  The
    first step that leaves the strip, or ends at t_max, is evaluated once on
    the step's quartic in its length.  If it reaches a switching line, the
    crossing time is found inside that step by safeguarded Newton on the
    quartic, to EVENT_TOL, and its contact is classified by the two one-sided
    x-velocities there (flow.contact).  A crossing hands the orbit to
    the zone beyond the exit, while a sliding/escaping/tangential contact
    raises SlidingEncountered with the partial trajectory attached.  A step
    that would end at a state that is not finite ends the run instead, so
    every returned state is finite.  A recorded run keeps every state and
    every event in order.
    With ``until_return`` the run is the return map: x0 lies on the section
    and must enter the outer right zone, and the run ends at the first event
    on the section that enters that zone again.  It records no states and
    keeps only the event it ends at, that return or the contact at which it
    raises SlidingEncountered.
    Its whole steps are jumped in runs that provably stay inside the strip
    (_run_length, _jump), with SINGLE_STEPS whole steps one by one after each
    zone entry and each jump.
    NoReturn is raised for a leftward start, or when t_max passes or the
    orbit overflows before such an event.  ValueError is raised for a tol
    that is not positive and finite, when the orbit, before t_max and before
    its return, reaches a time whose resolution exceeds the RK4 step, where
    steps would no longer advance t, or when the run would take more than
    SINGLE_STEPS_MAX steps one by one: whole steps outside the return map's
    jumps, and the steps evaluated on their quartic.  So a recorded
    trajectory holds at most SINGLE_STEPS_MAX states past its start.
    """
    h_base, zones, t_whole, lines = _zone_table(system, tol)
    section, section_x, *_, outer = lines[-1]
    if until_return and x0[0] == section_x:
        zone = _entered_zone(lines[-1], x0)
    else:
        zone = _initial_zone(zones, lines, x0)
    if until_return and zone != outer:
        raise NoReturn(f"start point {x0} crosses {section} leftward, off the section")
    t_whole = min(t_max, t_whole)
    singles_left = SINGLE_STEPS_MAX

    t = 0.0
    x, y = x0
    # A return map records no states, and keeps only the event it ends at.
    states: list[FlowState] = [] if until_return else [FlowState(x0, t, zone)]
    events: list[SwitchEvent] = []

    while t < t_max:
        entry = zones[zone]
        field, lo, hi, exits, step, _ = entry
        e00, e01, e10, e11, ex, ey, a, b, c, d = step[:10]
        singles = SINGLE_STEPS
        while singles_left and h_base <= t_whole - t:
            if until_return and not singles:
                singles = SINGLE_STEPS
                k = _run_length(step, lo, hi, x, y, int((t_whole - t) / h_base) - 1)
                if k:
                    x, y = _jump(entry, k, x, y)
                    t += k * h_base
                    continue
            singles -= 1
            x_next = x + (e00 * x + e01 * y + ex)
            if not lo < x_next < hi:
                break
            y += e10 * x + e11 * y + ey
            x = x_next
            t += h_base
            singles_left -= 1
            if not until_return:
                states.append(FlowState((x, y), t, zone))
        h = min(h_base, t_max - t)
        if h <= 0.0:
            break  # t_max reached
        if t >= t_whole:
            raise ValueError(
                f"tol {tol:g} gives the RK4 step h_base = {h_base:g}, below the "
                f"time resolution of t = {t:g}, before t_max = {t_max:g}"
            )
        if not singles_left:
            raise _budget_error(tol, h_base)
        singles_left -= 1

        # The step of length tau is p + tau v1 + tau^2/2 v2 + tau^3/6 v3 +
        # tau^4/24 v4, with v1 = F(p) and v(k+1) = M v(k); M^2 = D I gives
        # v3 = D v1 and v4 = D v2.  Each coordinate is a quartic in tau.
        v1x = a * x + b * y + field.alpha
        v1y = c * x - a * y + field.beta
        v2x = a * v1x + b * v1y
        v2y = c * v1x - a * v1y
        x2, x3, x4 = v2x / 2.0, d * v1x / 6.0, d * v2x / 24.0
        y2, y3, y4 = v2y / 2.0, d * v1y / 6.0, d * v2y / 24.0
        x_end = x + h * (v1x + h * (x2 + h * (x3 + h * x4)))
        y_end = y + h * (v1y + h * (y2 + h * (y3 + h * y4)))
        if not (math.isfinite(x_end) and math.isfinite(y_end)):
            # The orbit overflows and ends at its last finite state.  Whole
            # steps stop at an abscissa that is not finite, so at most the
            # ordinate of the last one overflowed; that state is dropped.
            if not until_return and not math.isfinite(y):
                states.pop()
            break
        # The first bounding line the abscissa crosses, or lands on from off
        # it: a step that starts on a line and ends there has not met it again.
        for line in exits:
            line_x = line[1]
            g_end = x_end - line_x
            if (x - line_x) * g_end < 0.0 or (g_end == 0.0 and x != line_x):
                break
        else:
            t += h
            x, y = x_end, y_end
            if not until_return:
                states.append(FlowState((x, y), t, zone))
            continue

        line_id, line_x, minus_field, plus_field, minus_zone, plus_zone = line
        tau = _locate_event((x - line_x, v1x, x2, x3, x4), h, g_end)
        # The event is snapped onto the line.
        x, y = line_x, y + tau * (v1y + tau * (y2 + tau * (y3 + tau * y4)))
        t += tau
        classification = contact(minus_field, plus_field, x, y)
        label, _, d_plus = classification
        if not until_return:
            states.append(FlowState((x, y), t, zone))
        zone = plus_zone if d_plus > 0.0 else minus_zone
        returned = until_return and line_id == section and zone == outer
        if label != "crossing" or returned or not until_return:
            events.append(SwitchEvent(t, (x, y), line_id, classification))
        if label != "crossing":
            raise SlidingEncountered(
                f"{label} contact at {(x, y)} on line {line_id} (t = {t:g})",
                Trajectory(tuple(states), tuple(events)),
            )
        if returned:
            return Trajectory((), tuple(events))

    if until_return:
        raise NoReturn(f"no rightward return to x = {section_x:g} within t = {t_max:g}")
    return Trajectory(tuple(states), tuple(events))


def check_step_budget(
    system: PiecewiseSystem, t_max: float, tol: float = DEFAULT_TOL
) -> None:
    """Raise integrate_numeric's single-step budget ValueError before any
    step when a recorded run that neither slides nor overflows cannot reach
    t_max within SINGLE_STEPS_MAX steps.  Each step advances t by at most
    h_base, so after that many steps t is at most SINGLE_STEPS_MAX * h_base,
    up to the rounding of as many additions (below SINGLE_STEPS_MAX * 2^-52
    relative)."""
    h_base = _zone_table(system, tol)[0]
    if t_max > SINGLE_STEPS_MAX * h_base * (1.0 + SINGLE_STEPS_MAX * 2.0**-52):
        raise _budget_error(tol, h_base)


def _budget_error(tol: float, h_base: float) -> ValueError:
    return ValueError(
        f"tol {tol:g} gives the RK4 step h_base = {h_base:g}, too short "
        f"to end the run within {SINGLE_STEPS_MAX} single steps"
    )


def _locate_event(offset: tuple[float, ...], h: float, g_end: float) -> float:
    """Time in (0, h] at which the step's abscissa meets the line.

    ``offset`` holds the quartic g(tau) = x(tau) - line, which changes sign
    over [0, h] or vanishes at h (g_end = g(h)).  Newton from the secant
    root, kept inside the shrinking sign bracket by bisection, stops once
    |g| <= EVENT_TOL and the next correction is within EVENT_WIDTH_TOL
    * max(h, 1).
    """
    g0, g1, g2, g3, g4 = offset
    lo, hi = 0.0, h
    tau = h * g0 / (g0 - g_end) if g0 != 0.0 else 0.5 * h
    width = EVENT_WIDTH_TOL * max(h, 1.0)
    for _ in range(200):
        g = _quartic(offset, tau)
        if g0 * g > 0.0:
            lo = tau
        else:
            hi = tau
        slope = g1 + tau * (2.0 * g2 + tau * (3.0 * g3 + tau * 4.0 * g4))
        correction = g / slope if slope != 0.0 else math.inf
        if abs(g) <= EVENT_TOL and abs(correction) <= width:
            return tau
        tau -= correction
        if not lo < tau < hi:
            tau = 0.5 * (lo + hi)
    return tau


def first_return(
    system: PiecewiseSystem, y: float, tol: float = DEFAULT_TOL
) -> tuple[float, float]:
    """Return ordinate and return time of the orbit started at (x, y) on the
    section, x being the right switching line's abscissa (1 for three zones,
    0 for two).

    The orbit is followed through zone handoffs until it crosses the right
    line moving rightward again; NoReturn if it starts leftward or never
    returns.  The last few answers are kept per (system, y, tol), however
    tol is passed, so the oracle reads the return time of the fixed point
    that fixed_point probed instead of integrating it again; a system is
    keyed by identity, as _zone_table keys it.  A raised NoReturn or
    SlidingEncountered is not kept: every such call runs again.
    """
    return _first_return(system, y, tol)


@functools.lru_cache(maxsize=8)
def _first_return(system: PiecewiseSystem, y: float, tol: float) -> tuple[float, float]:
    section_x = _zone_table(system, tol)[3][-1][1]
    start: Point = (section_x, y)
    trajectory = integrate_numeric(system, start, RETURN_T_MAX, tol, until_return=True)
    return (trajectory.events[-1].point[1], trajectory.events[-1].time)


def return_map(system: PiecewiseSystem, y: float, tol: float = DEFAULT_TOL) -> float:
    """Ordinate of the first rightward return to the right switching line."""
    return first_return(system, y, tol)[0]


def fixed_point(
    system: PiecewiseSystem,
    bracket: tuple[float, float],
    tol: float = DEFAULT_TOL,
) -> FixedPoint:
    """Find a zero of the displacement return_map(y) - y by false position.

    The displacement must change sign across the bracket; its zero is the
    ordinate of a periodic orbit through the right switching line.  The
    displacement at the bracket's upper end is returned with it, so a caller
    reads the slope's sign without another return map.  Each
    probe is the secant root of the bracket ends, kept FIXED_POINT_Y_TOL/2
    inside them.  An end that survives two probes in a row has its stored
    displacement scaled by 1 - d_new / d_replaced, the new probe's
    displacement over that of the end it replaces, or halved when that
    factor is not positive (Anderson & Bjorck, BIT 13, 1973).  After as
    many probes as bisection would need, the rest bisect, so the bracket
    always closes to FIXED_POINT_Y_TOL in at most twice that many.  The
    zero returned is the end of that final bracket whose displacement, as
    integrated and not as scaled, is smaller in magnitude; a probe whose
    displacement is exactly zero ends the search there.  Both ends hold
    displacements of opposite sign and lie within FIXED_POINT_Y_TOL of each
    other, so either lies within FIXED_POINT_Y_TOL of the zero between them.
    """
    y_lo, y_hi = bracket
    if not y_lo < y_hi:
        raise BadBracket(f"empty bracket {bracket}")
    d_lo = return_map(system, y_lo, tol) - y_lo
    d_hi = return_map(system, y_hi, tol) - y_hi
    d_upper = d_hi
    # The ends' displacements as integrated; the secant reads d_lo and d_hi,
    # which the Anderson-Bjorck rule scales.
    raw_lo, raw_hi = d_lo, d_hi
    if d_lo == 0.0:
        return FixedPoint(y_lo, d_upper)
    if d_hi == 0.0:
        return FixedPoint(y_hi, d_upper)
    if math.copysign(1.0, d_lo) == math.copysign(1.0, d_hi):
        raise BadBracket(
            f"displacement has the same sign at both ends of {bracket}: "
            f"{d_lo:g} vs {d_hi:g}"
        )
    margin = 0.5 * FIXED_POINT_Y_TOL
    secant_steps = math.ceil(math.log2((y_hi - y_lo) / FIXED_POINT_Y_TOL))
    kept = ""  # the end the last probe left in place
    while y_hi - y_lo > FIXED_POINT_Y_TOL:
        if secant_steps > 0:
            secant_steps -= 1
            y = (y_lo * d_hi - y_hi * d_lo) / (d_hi - d_lo)
            y = min(max(y, y_lo + margin), y_hi - margin)
        else:
            y = 0.5 * (y_lo + y_hi)
        d = return_map(system, y, tol) - y
        if d == 0.0:
            return FixedPoint(y, d_upper)
        if math.copysign(1.0, d) == math.copysign(1.0, d_lo):
            if kept == "hi":
                scale = 1.0 - d / d_lo
                d_hi *= scale if scale > 0.0 else 0.5
            y_lo, d_lo, raw_lo = y, d, d
            kept = "hi"
        else:
            if kept == "lo":
                scale = 1.0 - d / d_hi
                d_lo *= scale if scale > 0.0 else 0.5
            y_hi, d_hi, raw_hi = y, d, d
            kept = "lo"
    return FixedPoint(y_lo if abs(raw_lo) < abs(raw_hi) else y_hi, d_upper)


def fixed_point_near(
    system: PiecewiseSystem, y: float, tol: float = DEFAULT_TOL
) -> FixedPoint:
    """fixed_point in the narrowest of the ORACLE_BRACKETS around y that gives
    one; if none does, BadBracket names the last slide or lost orbit."""
    last_error: Exception | None = None
    for width in ORACLE_BRACKETS:
        try:
            return fixed_point(system, (y - width, y + width), tol=tol)
        except BadBracket:
            continue
        except (SlidingEncountered, NoReturn) as exc:
            last_error = exc
    raise BadBracket(
        f"no sign-changing displacement bracket around y = {y:g}"
        + (f" (last failure: {last_error})" if last_error else "")
    )


def trajectory_to_csv(trajectory: Trajectory, stream: IO[str]) -> None:
    """Write the sampled states as rows t, x, y, zone."""
    import csv  # here, not at the top: only `oracle --trajectory-csv` needs it

    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["t", "x", "y", "zone"])
    for state in trajectory.states:
        writer.writerow(
            [repr(state.time), repr(state.point[0]), repr(state.point[1]), state.zone]
        )
