"""Event-detecting integration, return map and fixed-point search."""

from __future__ import annotations

import ast
import hashlib
import io
import math
import random

import pytest

from pwlham import poincare
from pwlham.cycle import find_limit_cycle
from pwlham.model import (
    LinearHamiltonianField,
    PiecewiseSystem,
    Point,
    ZoneLayout,
    hamiltonian_value,
)
from pwlham.poincare import (
    DEFAULT_TOL,
    EVENT_TOL,
    FIXED_POINT_Y_TOL,
    ORACLE_BRACKETS,
    RETURN_T_MAX,
    BadBracket,
    FixedPoint,
    NoReturn,
    SlidingEncountered,
    Trajectory,
    fixed_point,
    fixed_point_near,
    first_return,
    integrate_numeric,
    return_map,
    trajectory_to_csv,
)

from conftest import CCC_TIMES, GOLDEN_CORNERS, random_three_zone

F = LinearHamiltonianField


def _interior_center_system():
    """Harmonic center in the middle strip; small orbits never switch zones."""
    return PiecewiseSystem.three_zone(
        F(0.0, 1.0, -1.0, 0.0, -3.0),
        F(0.0, 1.0, -1.0, 0.0, 0.0),
        F(0.0, 1.0, -1.0, 0.0, 3.0),
    )


def test_single_zone_period_closes():
    system = _interior_center_system()
    tol = 1e-9
    trajectory = integrate_numeric(system, (0.5, 0.0), 2.0 * math.pi, tol)
    assert trajectory.events == ()
    end = trajectory.states[-1]
    assert end.time == pytest.approx(2.0 * math.pi, abs=1e-12)
    assert end.point[0] == pytest.approx(0.5, abs=tol)
    assert end.point[1] == pytest.approx(0.0, abs=tol)


def test_first_event_matches_first_corner(ccc):
    y0, y1 = GOLDEN_CORNERS["CCC"][:2]
    trajectory = integrate_numeric(ccc, (1.0, y0), 1.0, 1e-9)
    assert trajectory.events
    event = trajectory.events[0]
    assert event.line == "R"
    assert event.point[1] == pytest.approx(y1, abs=1e-6)
    assert event.time == pytest.approx(CCC_TIMES["t_R"], abs=1e-6)
    assert event.classification.label == "crossing"


def test_event_times_increase_and_lie_on_lines(ccc):
    y0 = GOLDEN_CORNERS["CCC"][0]
    trajectory = integrate_numeric(ccc, (1.0, y0), 5.0, 1e-8)
    times = [e.time for e in trajectory.events]
    assert times == sorted(times)
    assert len(set(times)) == len(times)
    for event in trajectory.events:
        line_x = ccc.layout.line_position(event.line)
        assert abs(event.point[0] - line_x) <= 1e-10


# RK4 steps (states - 1 - events) and switching events over one period,
# from the certified corner 0 to 1.0001 periods.
ORBIT_WORK = {
    "CCC": (756, 4),
    "SCC": (646, 4),
    "SCS": (585, 4),
    "CSC": (734, 4),
    "SSS": (535, 4),
    "SSC": (694, 4),
}


@pytest.mark.parametrize("name", sorted(ORBIT_WORK))
def test_one_orbit_takes_pinned_work(examples, monkeypatch, name):
    system = examples[name]
    cert = find_limit_cycle(system)
    trajectory = integrate_numeric(
        system, cert.corners[0], t_max=cert.period * 1.0001
    )
    events = len(trajectory.events)
    steps = len(trajectory.states) - 1 - events
    assert (steps, events) == ORBIT_WORK[name]
    # The return map meets each switching-line contact once, at one event
    # located on its checked step, and keeps only the event it ends at.
    located = []
    locate_event = poincare._locate_event
    monkeypatch.setattr(
        poincare, "_locate_event",
        lambda offset, h, g_end: located.append(h) or locate_event(offset, h, g_end),
    )
    trajectory = integrate_numeric(
        system, cert.corners[0], poincare.RETURN_T_MAX, until_return=True
    )
    assert len(located) == events
    assert [event.line for event in trajectory.events] == ["R"]


def _count_jumped(monkeypatch) -> list[int]:
    """The length of every run the return map jumps from now on."""
    jumped: list[int] = []
    run_length = poincare._run_length

    def counted(*args):
        k = run_length(*args)
        jumped.append(k)
        return k

    monkeypatch.setattr(poincare, "_run_length", counted)
    return jumped


@pytest.mark.parametrize("name", sorted(ORBIT_WORK))
def test_return_map_jumps_most_whole_steps(examples, monkeypatch, name):
    system = examples[name]
    jumped = _count_jumped(monkeypatch)
    _, return_time = first_return(system, GOLDEN_CORNERS[name][0])
    # The return takes at most return_time / h whole steps.
    h = poincare._base_step(system, DEFAULT_TOL)
    assert sum(jumped) >= 0.9 * return_time / h


def _return_outcome(system, y: float) -> tuple:
    """("return", y, t), ("no return", message) or ("slide", contact label)."""
    try:
        return ("return", *first_return(system, y))
    except NoReturn as exc:
        return ("no return", str(exc))
    except SlidingEncountered as exc:
        events = exc.trajectory.events
        return ("slide", events[-1].classification.label if events else str(exc))


def _perturbed_fixture(rng, system):
    """The fixture with each coefficient scaled by a factor in [0.9, 1.1]."""
    return PiecewiseSystem.three_zone(
        *(
            F(*(v * rng.uniform(0.9, 1.1) for v in (f.a, f.b, f.c, f.alpha, f.beta)))
            for f in system.fields
        )
    )


def _equivalence_probes(examples):
    """Fixture probes at y0 + 0.05 k, k = -40..40, and seeded random probes:
    three-zone systems from conftest, and perturbed fixtures near their y0."""
    probes = [
        (system, GOLDEN_CORNERS[name][0] + 0.05 * k)
        for name, system in sorted(examples.items())
        for k in range(-40, 41)
    ]
    rng = random.Random(22)
    for _ in range(100):
        system = random_three_zone(rng)
        probes += [(system, rng.uniform(-4.0, 4.0)) for _ in range(2)]
    for i in range(60):
        name = sorted(examples)[i % 6]
        system = _perturbed_fixture(rng, examples[name])
        probes += [(system, GOLDEN_CORNERS[name][0] + rng.uniform(-1.0, 1.0)) for _ in range(4)]
    return probes


def test_jumped_return_map_matches_step_by_step(examples, monkeypatch):
    probes = _equivalence_probes(examples)
    systems = {id(system): system for system, _ in probes}.values()
    # The random probes cover both kinds of outer zone and singular points
    # outside their own strips.
    assert {f.singularity.kind for s in systems for f in (s.fields[0], s.fields[2])} == {
        "center", "saddle"
    }
    assert any(
        not lo < f.singularity.location[0] < hi
        for s in systems
        for f, (lo, hi) in zip(s.fields, map(s.layout.zone_interval, s.layout.zone_ids))
    )
    jumped = [_return_outcome(system, y) for system, y in probes]
    # With no run certified, every whole step is taken one by one.
    monkeypatch.setattr(poincare, "_run_length", lambda *args: 0)
    stepped = [_return_outcome(system, y) for system, y in probes]
    kinds = [outcome[0] for outcome in stepped]
    assert {kind: kinds.count(kind) for kind in set(kinds)} == {
        "return": 441, "no return": 230, "slide": 255
    }
    for (system, y), got, want in zip(probes, jumped, stepped):
        _assert_same_outcome(got, want, (y, system.fields))


def _assert_same_outcome(got: tuple, want: tuple, where) -> None:
    """A jumped return map's outcome is the step-by-step one; a return's
    (y, t) agrees to 1e-12 relative."""
    if want[0] != "return":
        assert got == want, where
        return
    assert got[0] == "return", where
    for g, w in zip(got[1:], want[1:]):
        assert abs(g - w) <= 1e-12 * max(1.0, abs(w)), where


def _jumped_and_stepped(monkeypatch, system, y: float) -> tuple:
    """The return map's outcome from (x, y) on the section, then its outcome
    with every whole step taken one by one."""
    jumped = _return_outcome(system, y)
    with monkeypatch.context() as patched:
        patched.setattr(poincare, "_run_length", lambda *args: 0)
        return jumped, _return_outcome(system, y)


def _record_calls(monkeypatch, name: str, seen) -> list:
    """Wrap poincare.<name>: each later call appends seen(*args) to the list."""
    calls = []
    original = getattr(poincare, name)

    def recorded(*args):
        calls.append(seen(*args))
        return original(*args)

    monkeypatch.setattr(poincare, name, recorded)
    return calls


def _shrunk_strip(step, lo, hi, x, y, cap) -> tuple:
    """(D, x_lo, x_hi, ux, v) of a _run_length call: the zone's D, the strip
    (lo, hi) shrunk by the RUN_MARGIN margin and taken about the step map's
    fixed point c, and the start's phase coordinates about c."""
    a, b = step[6:8]
    d = step[9]
    cx, cy, speed = step[12:15]
    ux = x - cx
    v = (a * ux + b * (y - cy)) / speed
    margin = poincare.RUN_MARGIN * (1.0 + abs(ux) + abs(v) + abs(cx))
    return d, lo - cx + margin, hi - cx - margin, ux, v


def test_saddle_run_from_inside_the_margin_matches_step_by_step(monkeypatch):
    # The right zone's saddle has its singular point 1e-9 left of the
    # section, so the orbit from (1, 0) enters at x-speed 1e-9 and its first
    # few hundred states lie within RUN_MARGIN of the section: each starts
    # outside the shrunk strip, and no run is jumped from there.
    system = PiecewiseSystem.three_zone(
        F(0.0, 1.0, -1.0, 0.0, 0.0), F(0.0, 1.0, -1.0, 1.0, 0.0),
        F(1.0, 0.0, 0.0, 1e-9 - 1.0, 0.0),
    )
    strips = _record_calls(monkeypatch, "_run_length", _shrunk_strip)
    jumped, stepped = _jumped_and_stepped(monkeypatch, system, 0.0)
    assert any(
        not d < 0.0 and x_lo < x_hi and not x_lo < ux < x_hi
        for d, x_lo, x_hi, ux, v in strips
    )
    _assert_same_outcome(jumped, stepped, "saddle")


def test_centre_run_past_the_margin_matches_step_by_step(monkeypatch):
    # The right zone's centre (speed 0.01) sits 1e-9 right of the origin, so
    # the unit circle about it through the start pokes 1e-9 past the section
    # for about three steps: the whole circle lies left of the shrunk strip,
    # and no run is jumped from there.
    slow = 0.01
    system = PiecewiseSystem.three_zone(
        F(0.0, slow, -slow, 0.0, -slow * 1e-9), F(0.0, 1.0, -1.0, 0.0, 0.0),
        F(0.0, slow, -slow, 0.0, slow * 1e-9),
    )
    strips = _record_calls(monkeypatch, "_run_length", _shrunk_strip)
    jumped, stepped = _jumped_and_stepped(monkeypatch, system, math.sqrt(2e-9))
    assert any(
        d < 0.0 and x_lo < x_hi and x_lo >= math.hypot(ux, v)
        for d, x_lo, x_hi, ux, v in strips
    )
    _assert_same_outcome(jumped, stepped, "centre")


def test_event_past_newton_resolution_matches_step_by_step(ccc, monkeypatch):
    # At y = 8667683 the orbit meets the lines at x-speeds near 1e7, where the
    # rounding of the event quartic (~4e-12) exceeds EVENT_TOL: Newton stops
    # only on an exact zero, and one event runs all its iterations.
    evaluations = _record_calls(monkeypatch, "_locate_event", lambda *args: 0)
    quartic = poincare._quartic

    def counted(*args):
        evaluations[-1] += 1
        return quartic(*args)

    monkeypatch.setattr(poincare, "_quartic", counted)
    jumped, stepped = _jumped_and_stepped(monkeypatch, ccc, 8667683.0)
    assert max(evaluations) == 200
    _assert_same_outcome(jumped, stepped, "event")


# SHA-256 over the repr of every _return_outcome on _equivalence_probes.
RETURN_MAP_DIGEST = "395e645015a62c8b633e0e1f265b1b155a98eff97bf51d083758d9031eb27b48"


def test_return_map_is_pinned_bit_for_bit(examples):
    # The oracle goldens compare printed floats, so a change of the last bit
    # of one return map may move them; every return's (y, t) is pinned here.
    digest = hashlib.sha256()
    for system, y in _equivalence_probes(examples):
        digest.update(repr(_return_outcome(system, y)).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == RETURN_MAP_DIGEST


@pytest.mark.parametrize("overshoot", [1e-4, 1e-6, 1e-8, -1e-8, -1e-4])
@pytest.mark.parametrize(
    "field",
    [F(0.0, 1.0, 1.0, 0.0, -2.0), F(0.0, 1.0, -1.0, 0.0, 0.0)],
    ids=["saddle beyond the line", "centre"],
)
def test_certified_runs_stay_inside_the_strip(monkeypatch, field, overshoot):
    # Both orbits turn at (1 + overshoot, 0), 12 steps on from the start.  A
    # run is certified by its end and its extremum even without the saddle's
    # crossing estimate, so no certified step may reach the line x = 1.
    monkeypatch.setattr(poincare, "quadratic_roots", lambda *args: [])
    h = poincare._base_step(PiecewiseSystem.three_zone(field, field, field), DEFAULT_TOL)
    step = poincare._step_map(field, h)
    e00, e01, e10, e11, ex, ey = step[:6]
    det = (1.0 + e00) * (1.0 + e11) - e01 * e10
    x, y = 1.0 + overshoot, 0.0
    for _ in range(12):  # undo the step map
        u, v = x - ex, y - ey
        x, y = ((1.0 + e11) * u - e01 * v) / det, ((1.0 + e00) * v - e10 * u) / det
    path = [(x, y)]
    while len(path) < 30 and path[-1][0] < 1.0:
        x, y = path[-1]
        path.append((x + (e00 * x + e01 * y + ex), y + (e10 * x + e11 * y + ey)))
    # From the start, and from the last state before the line if it is met.
    starts = [path[0]] + ([path[-2]] if path[-1][0] >= 1.0 else [])
    for x, y in starts:
        k = poincare._run_length(step, -1.0, 1.0, x, y, 10**6)
        for j in range(1, k + 1):
            x, y = x + (e00 * x + e01 * y + ex), y + (e10 * x + e11 * y + ey)
            assert -1.0 < x < 1.0, (j, k)
    if overshoot < 0.0:  # a run that misses the line goes past the turn
        assert len(starts) == 1 and k > 12


def test_no_run_from_the_centre_of_the_step_map():
    # The orbit of the step map's fixed point c = (0, 0) has no radius to
    # take a phase from.
    step = poincare._step_map(F(0.0, 1.0, -1.0, 0.0, 0.0), 0.05)
    assert poincare._run_length(step, -1.0, 1.0, 0.0, 0.0, 100) == 0


@pytest.mark.parametrize("name", sorted(ORBIT_WORK))
def test_leftward_start_is_off_the_section(examples, name):
    # (1, -3) crosses the right line into the centre zone on every fixture,
    # so it is not in the return map's domain.
    with pytest.raises(NoReturn, match="crosses R leftward, off the section"):
        first_return(examples[name], -3.0)


def _rk4_step(field, p: Point, h: float) -> Point:
    """Reference: the classical RK4 step in stage form."""
    a, b, c, alpha, beta = field.a, field.b, field.c, field.alpha, field.beta
    x, y = p
    k1x = a * x + b * y + alpha
    k1y = c * x - a * y + beta
    x2, y2 = x + 0.5 * h * k1x, y + 0.5 * h * k1y
    k2x = a * x2 + b * y2 + alpha
    k2y = c * x2 - a * y2 + beta
    x3, y3 = x + 0.5 * h * k2x, y + 0.5 * h * k2y
    k3x = a * x3 + b * y3 + alpha
    k3y = c * x3 - a * y3 + beta
    x4, y4 = x + h * k3x, y + h * k3y
    k4x = a * x4 + b * y4 + alpha
    k4y = c * x4 - a * y4 + beta
    return (
        x + h / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x),
        y + h / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y),
    )


def test_step_map_is_the_rk4_step(examples):
    rng = random.Random(7)
    stiff = F(0.5, 2.0, -1.0, 1e6, -5e5)
    systems = [*examples.values(), PiecewiseSystem.three_zone(stiff, stiff, stiff)]
    for system in systems:
        h = poincare._base_step(system, DEFAULT_TOL)
        for field in system.fields:
            step = poincare._step_map(field, h)
            e00, e01, e10, e11, ex, ey = step[:6]
            for _ in range(1000):
                x, y = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
                got = (x + (e00 * x + e01 * y + ex), y + (e10 * x + e11 * y + ey))
                want = _rk4_step(field, (x, y), h)
                scale = max(abs(x), abs(y), abs(want[0]), abs(want[1]))
                for g, w in zip(got, want):
                    assert abs(g - w) <= 4.0 * math.ulp(scale), (field, x, y)


def test_checked_step_is_the_rk4_step(examples, monkeypatch):
    # A recorded run shorter than one step takes one checked step of that
    # length, evaluated on the step's quartic in its length: its end, or
    # the event it meets, is the RK4 step of that length, and so is the
    # abscissa quartic that the event's location solves, at any length.
    rng = random.Random(7)
    located = []
    locate_event = poincare._locate_event

    def record(offset, h, g_end):
        located.append((offset, locate_event(offset, h, g_end)))
        return located[-1][1]

    monkeypatch.setattr(poincare, "_locate_event", record)
    stiff = F(0.5, 2.0, -1.0, 1e6, -5e5)
    fields = [f for system in examples.values() for f in system.fields] + [stiff]
    events = 0
    for field in fields:
        system = PiecewiseSystem.three_zone(field, field, field)
        h = poincare._base_step(system, DEFAULT_TOL)
        for _ in range(100):
            start = (rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))

            def close(got, length, *coordinates):
                want = _rk4_step(field, start, length)
                ulp = 4.0 * math.ulp(max(*map(abs, start), *map(abs, want)))
                for g, i in zip(got, coordinates):
                    assert abs(g - want[i]) <= ulp, (field, start, length)

            for tau in (h / 3.0, h / 64.0):
                located.clear()
                trajectory = integrate_numeric(system, start, tau)
                if not trajectory.events:
                    assert not located
                    end = trajectory.states[-1]
                    assert (len(trajectory.states), end.time) == (2, tau)
                    close(end.point, tau, 0, 1)
                    continue
                events += 1
                # The run goes on after its first event; that event is the
                # checked step's.
                offset, root = located[0]
                line_x, y_event = trajectory.events[0].point
                close((y_event,), root, 1)
                for length in (root, h, h / 3.0, h / 64.0):
                    close((poincare._quartic(offset, length) + line_x,), length, 0)
    assert events > 0


def _bisect_rk4_event(field, p, h, line_x):
    """Reference: bisect the RK4 step's abscissa to the float resolution."""
    g0 = p[0] - line_x
    lo, hi = 0.0, h
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if g0 * (_rk4_step(field, p, mid)[0] - line_x) > 0.0:
            lo = mid
        else:
            hi = mid


def test_event_newton_root_matches_bisected_rk4_step(ccc, monkeypatch):
    roots = []
    locate_event = poincare._locate_event

    def record_root(offset, h, g_end):
        tau = locate_event(offset, h, g_end)
        roots.append((h, tau))
        return tau

    monkeypatch.setattr(poincare, "_locate_event", record_root)
    cert = find_limit_cycle(ccc)
    trajectory = integrate_numeric(ccc, cert.corners[0], t_max=cert.period * 1.0001)
    assert len(roots) == len(trajectory.events) == 4
    # Each event's checked step starts at the state recorded before it.
    states = trajectory.states
    contacts = {(event.point, event.time) for event in trajectory.events}
    before = [s for s, after in zip(states, states[1:]) if (after.point, after.time) in contacts]
    assert len(before) == 4
    h_base = poincare._base_step(ccc, DEFAULT_TOL)
    for event, start, (h, tau) in zip(trajectory.events, before, roots):
        field, p = ccc.field(start.zone), start.point
        line_x = ccc.layout.line_position(event.line)
        assert abs(tau - _bisect_rk4_event(field, p, h, line_x)) <= 1e-10 * h_base
        assert abs(_rk4_step(field, p, tau)[0] - line_x) <= EVENT_TOL


def _overflowing_systems():
    """Saddles with a = 300 around a centre strip, whose orbit from (1.5, 1)
    overflows after about 2.4 time units, and outer zones with b = 0 and
    c = 1e306, whose ordinate overflows inside a whole step."""
    centre = F(0.0, 2.0, -2.0, 2.0 / 3.0, 2.0 / 3.0)
    saddles = PiecewiseSystem.three_zone(
        F(300.0, 1.0, 1.0, 0.0, 0.0), centre, F(300.0, 1.0, 1.0, 0.0, 1.0)
    )
    steep = F(1.0, 0.0, 1e306, 0.0, 0.0)
    return [saddles, PiecewiseSystem.three_zone(steep, centre, steep)]


@pytest.mark.parametrize(
    "index, dropped", [(0, 0), (1, 1)], ids=["saddles", "ordinate"]
)
def test_overflowing_orbit_ends_at_its_last_finite_state(index, dropped, monkeypatch):
    system = _overflowing_systems()[index]
    trajectory = integrate_numeric(system, (1.5, 1.0), t_max=10.0)
    assert len(trajectory.states) > 100
    assert all(map(math.isfinite, (v for s in trajectory.states for v in s.point)))
    assert trajectory.states[-1].time < 10.0
    with pytest.raises(NoReturn, match=r"^no rightward return to x = 1 within t = 100$"):
        first_return(system, 5.0)
    # The run ends at its first step that is not finite: it takes one step
    # per state it keeps past its start, one for a last whole step whose
    # ordinate overflowed (that state is dropped), and the checked step that
    # overflows; so it fits that many single steps exactly.
    budget = len(trajectory.states) - 1 + dropped + 1
    monkeypatch.setattr(poincare, "SINGLE_STEPS_MAX", budget)
    assert integrate_numeric(system, (1.5, 1.0), t_max=10.0) == trajectory
    monkeypatch.setattr(poincare, "SINGLE_STEPS_MAX", budget - 1)
    with pytest.raises(ValueError, match="single steps"):
        integrate_numeric(system, (1.5, 1.0), t_max=10.0)


def test_energy_drift_within_each_zone_segment(ccc):
    tol = 1e-9
    y0 = GOLDEN_CORNERS["CCC"][0]
    trajectory = integrate_numeric(ccc, (1.0, y0), 2.2, tol)
    segments: list[tuple[str, list]] = []
    for state in trajectory.states:
        if segments and segments[-1][0] == state.zone:
            segments[-1][1].append(state)
        else:
            segments.append((state.zone, [state]))
    assert len(segments) >= 4  # the orbit visits R, C, L, C within one period
    for zone, segment in segments:
        field = ccc.field(zone)
        h0 = hamiltonian_value(field, segment[0].point)
        for state in segment:
            h = hamiltonian_value(field, state.point)
            assert abs(h - h0) <= 10.0 * tol * (1.0 + abs(h0))


def test_states_stay_inside_their_zone_strips(ccc):
    y0 = GOLDEN_CORNERS["CCC"][0]
    trajectory = integrate_numeric(ccc, (1.0, y0), 3.0, 1e-8)
    for state in trajectory.states:
        lo, hi = ccc.layout.zone_interval(state.zone)
        assert lo <= state.point[0] <= hi, state


def test_return_map_fixes_cycle_ordinate(examples):
    for name in ("CCC", "CSC"):
        y0 = GOLDEN_CORNERS[name][0]
        assert return_map(examples[name], y0) == pytest.approx(y0, abs=1e-6)


def test_displacement_changes_sign_across_cycle(ccc):
    y0 = GOLDEN_CORNERS["CCC"][0]
    d_hi = return_map(ccc, y0 + 0.1) - (y0 + 0.1)
    d_lo = return_map(ccc, y0 - 0.1) - (y0 - 0.1)
    assert d_hi * d_lo < 0.0


def test_fixed_point_from_wide_bracket(ccc):
    y0 = GOLDEN_CORNERS["CCC"][0]
    got = fixed_point(ccc, (y0 - 0.2, y0 + 0.2))
    assert got.y == pytest.approx(y0, abs=1e-6)
    # The upper end's displacement, as the oracle reads the slope from it.
    assert got.d_hi == return_map(ccc, y0 + 0.2) - (y0 + 0.2)


def test_fixed_point_for_saddle_example(examples):
    y0 = GOLDEN_CORNERS["SSS"][0]
    got = fixed_point(examples["SSS"], (y0 - 1e-3, y0 + 1e-3)).y
    assert got == pytest.approx(y0, abs=1e-6)


def test_fixed_point_from_asymmetric_bracket(examples):
    # Unlike bisection, false position depends on where the root sits and on
    # how large the displacement is at each end (CCC and SCC have a -2/3
    # plateau below y0).  SSC slides from y0 - 1e-2 down, so no bracket
    # reaches there.
    for name, system in examples.items():
        y0 = GOLDEN_CORNERS[name][0]
        for below, above in ((9e-3, 3e-3), (3e-3, 1e-2)):
            got = fixed_point(system, (y0 - below, y0 + above)).y
            assert got == pytest.approx(y0, abs=1e-6), (name, below, above)


_R = 0.4321


def _jump(y):
    # Sign step at _R, flat on both sides, as CCC's displacement drops to
    # its -2/3 plateau (there without changing sign).
    return -2.0 / 3.0 if y < _R else 1e-3


def _flat(y):
    # Triple root: below 1e-12 across the whole FIXED_POINT_Y_TOL window
    # around _R.
    return 1e-12 * ((y - _R) / FIXED_POINT_Y_TOL) ** 3


def _linear(y):
    return 0.5 * (_R - y)


@pytest.mark.parametrize(
    "displacement, bracket",
    [
        (_jump, (_R - 0.05, _R + 0.05)),
        (_jump, (_R - 1e-3, _R + 0.09)),
        (_flat, (_R - 0.02, _R + 0.07)),
        (_linear, (_R - 1e-11, _R + 0.05)),
        (_linear, (_R - 0.05, _R + 1e-11)),
    ],
)
def test_fixed_point_worst_cases(monkeypatch, displacement, bracket):
    calls = []

    def synthetic_return_map(system, y, tol):
        calls.append(y)
        return y + displacement(y)

    monkeypatch.setattr(poincare, "return_map", synthetic_return_map)
    got, d_hi = fixed_point(None, bracket)
    assert d_hi == (bracket[1] + displacement(bracket[1])) - bracket[1]
    assert bracket[0] <= got <= bracket[1]
    assert abs(got - _R) <= FIXED_POINT_Y_TOL
    width = bracket[1] - bracket[0]
    assert len(calls) <= 2 * math.ceil(math.log2(width / FIXED_POINT_Y_TOL)) + 2


@pytest.mark.parametrize(
    "bracket, calls_made", [((0.25, 1.0), 2), ((0.0, 0.25), 2), ((0.0, 0.5), 3)],
    ids=["lower-end", "upper-end", "first-probe"],
)
def test_fixed_point_returns_an_exact_zero(monkeypatch, bracket, calls_made):
    # The displacement y - 0.25 vanishes exactly at a bracket end, or at the
    # first secant probe (0.25, exact in binary): that ordinate is returned.
    calls = []

    def synthetic_return_map(system, y, tol):
        calls.append(y)
        return 2.0 * y - 0.25

    monkeypatch.setattr(poincare, "return_map", synthetic_return_map)
    y_hi = bracket[1]
    assert fixed_point(None, bracket) == (0.25, (2.0 * y_hi - 0.25) - y_hi)
    assert len(calls) == calls_made


def test_bad_bracket_rejected(ccc):
    y0 = GOLDEN_CORNERS["CCC"][0]
    with pytest.raises(BadBracket):
        fixed_point(ccc, (y0 + 0.05, y0 + 0.1))
    with pytest.raises(BadBracket):
        fixed_point(ccc, (y0 + 0.1, y0 - 0.1))


def test_fixed_point_near_takes_the_narrowest_bracket(examples):
    for name, system in examples.items():
        y0 = GOLDEN_CORNERS[name][0]
        got = fixed_point_near(system, y0)
        want = fixed_point(system, (y0 - 1e-4, y0 + 1e-4))
        assert [v.hex() for v in got] == [v.hex() for v in want], name


def _scripted_fixed_point(monkeypatch, outcomes):
    """Replace fixed_point by one that returns or raises the next outcome
    and records each bracket it is given."""
    brackets = []

    def scripted(system, bracket, tol):
        brackets.append(bracket)
        outcome = outcomes[len(brackets) - 1]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    monkeypatch.setattr(poincare, "fixed_point", scripted)
    return brackets


def _brackets_around(y, count):
    return [(y - width, y + width) for width in ORACLE_BRACKETS[:count]]


def test_fixed_point_near_widens_in_order_until_one_succeeds(monkeypatch):
    found = FixedPoint(0.5, -1e-3)
    brackets = _scripted_fixed_point(
        monkeypatch, [BadBracket("no sign change")] * 2 + [found]
    )
    assert fixed_point_near(None, 0.5) == found
    assert brackets == _brackets_around(0.5, 3)


@pytest.mark.parametrize(
    "failure",
    [
        SlidingEncountered("sliding contact", Trajectory((), ())),
        NoReturn("no rightward return"),
    ],
    ids=["sliding", "no-return"],
)
def test_fixed_point_near_passes_over_slides_and_lost_orbits(monkeypatch, failure):
    found = FixedPoint(0.5, 1e-3)
    brackets = _scripted_fixed_point(monkeypatch, [failure, found])
    assert fixed_point_near(None, 0.5) == found
    assert brackets == _brackets_around(0.5, 2)

    # The widest bracket fails last, after a slide or lost orbit in a
    # narrower one: the error names that failure.
    brackets = _scripted_fixed_point(
        monkeypatch,
        [failure] + [BadBracket("no sign change")] * (len(ORACLE_BRACKETS) - 1),
    )
    with pytest.raises(BadBracket) as excinfo:
        fixed_point_near(None, 0.5)
    assert str(excinfo.value) == (
        f"no sign-changing displacement bracket around y = 0.5 "
        f"(last failure: {failure})"
    )
    assert brackets == _brackets_around(0.5, len(ORACLE_BRACKETS))


def test_return_time_matches_cycle_period(ccc):
    cert = find_limit_cycle(ccc)
    y_ret, t_ret = first_return(ccc, cert.corners[0][1], tol=1e-9)
    assert t_ret == pytest.approx(cert.period, abs=1e-6)


def test_sliding_halts_integration(examples):
    # Just inside the SSC cycle the orbit reaches a sliding segment.
    system = examples["SSC"]
    y0 = GOLDEN_CORNERS["SSC"][0]
    with pytest.raises(SlidingEncountered) as err:
        return_map(system, y0 - 0.05)
    # A return map keeps only the event it ends at: here the contact.
    last, = err.value.trajectory.events
    assert last.classification.label in ("sliding", "escaping", "tangency")


def test_no_return_when_orbit_escapes(monkeypatch):
    # b_R = 0 with positive a_R: x grows like exp(a t) and never comes back.
    system = PiecewiseSystem.three_zone(
        F(0.0, 1.0, -1.0, 0.0, 0.0),
        F(0.0, 1.0, -1.0, 0.0, 0.0),
        F(1.0, 0.0, 1.0, 1.0, 0.0),
    )
    jumped = _count_jumped(monkeypatch)
    with pytest.raises(NoReturn, match=r"^no rightward return to x = 1 within t = 100$"):
        return_map(system, 1.0)
    # The escape is jumped to the time budget: of the at most
    # RETURN_T_MAX / h whole steps, no more than 10 are taken one by one.
    h = poincare._base_step(system, DEFAULT_TOL)
    assert sum(jumped) >= RETURN_T_MAX / h - 10


def test_oracle_uses_no_closed_form():
    """The oracle is independent evidence only while it shares no closed
    form with the pipeline it checks."""
    with open(poincare.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            modules.add(getattr(node, "module", None) or "")
            names.update(alias.name for alias in node.names)
            names.update(alias.asname for alias in node.names if alias.asname)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    imported = {part for module in modules for part in module.split(".")} | names
    assert not imported & {"cycle", "closure"}
    assert not names & {"flow_closed_form", "flight_time", "refine_flight_time", "orbit_samples"}


def test_refinement_convergence_over_tolerance_halvings(ccc):
    """Halving the integration tolerance keeps shrinking the endpoint error."""
    cert = find_limit_cycle(ccc)
    y0 = cert.corners[0][1]
    errors = []
    tol = 1e-4
    for _ in range(5):
        y_ret, _ = first_return(ccc, y0, tol=tol)
        errors.append(abs(y_ret - y0))
        tol *= 0.5
    assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:])), errors


def test_trajectory_csv_round_trip(ccc):
    y0 = GOLDEN_CORNERS["CCC"][0]
    trajectory = integrate_numeric(ccc, (1.0, y0), 0.5, 1e-7)
    buffer = io.StringIO()
    trajectory_to_csv(trajectory, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "t,x,y,zone"
    assert len(lines) == len(trajectory.states) + 1
    t, x, y, zone = lines[1].split(",")
    assert float(t) == 0.0
    assert float(x) == 1.0
    assert float(y) == pytest.approx(y0)
    assert zone == "R"


def test_invalid_tolerance_rejected(ccc):
    for tol in (0.0, -1e-9, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            integrate_numeric(ccc, (0.0, 0.0), 1.0, tol=tol)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            fixed_point_near(ccc, GOLDEN_CORNERS["CCC"][0], tol=tol)
    # At tol = 1e-60, h_base = 5e-16: stepping through the RUN_MARGIN band
    # of one exit alone would take some 1e7 single steps.
    with pytest.raises(ValueError, match="single steps") as info:
        fixed_point_near(ccc, GOLDEN_CORNERS["CCC"][0], tol=1e-60)
    assert "tol 1e-60 gives the RK4 step h_base = 5e-16," in str(info.value)


def test_start_in_no_zone_rejected(ccc):
    with pytest.raises(ValueError, match=r"point \(nan, 0.0\) belongs to no zone"):
        integrate_numeric(ccc, (math.nan, 0.0), 1.0)


def test_run_ends_exactly_at_t_max(ccc):
    # At tol = 2^-12 CCC's h_base is 2^-4 exactly, so four whole steps from
    # inside R end on t_max = 0.25 and the run stops there, with no step of
    # length 0 and no event.
    trajectory = integrate_numeric(ccc, (1.5, 1.0), 0.25, tol=2.0**-12)
    assert [s.time for s in trajectory.states] == [0.0, 0.0625, 0.125, 0.1875, 0.25]
    assert {s.zone for s in trajectory.states} == {"R"}
    assert trajectory.events == ()


def test_whole_steps_stop_at_the_time_resolution(examples, monkeypatch):
    # A fast centre's h_base = 0.2 / 1e14 is below ulp(RETURN_T_MAX) but
    # resolves every t up to 16; its orbit returns at 2 pi / 1e14.
    fast = PiecewiseSystem.three_zone(*[F(0.0, 1e14, -1e14, 0.0, 0.0)] * 3)
    y, t = first_return(fast, 0.5)
    assert y == pytest.approx(0.5, rel=1e-4)
    assert t == pytest.approx(2.0 * math.pi / 1e14, rel=1e-4)
    # ulp(1e20) = 16384: the budget only bounds the runs, so the returns
    # equal those within RETURN_T_MAX.
    for name, system in sorted(examples.items()):
        start = (1.0, GOLDEN_CORNERS[name][0])
        assert integrate_numeric(system, start, 1e20, until_return=True) == (
            integrate_numeric(system, start, RETURN_T_MAX, until_return=True)
        ), name
    # A slow centre at tol = 1e-60 jumps to t = 4, beyond which a step of
    # h_base = 5e-16 may not advance t; without a RUN_MARGIN band to step
    # through, its first run gets there.
    monkeypatch.setattr(poincare, "RUN_MARGIN", 0.0)
    slow = PiecewiseSystem.three_zone(*[F(0.0, 0.1, -0.1, 0.0, 0.0)] * 3)
    with pytest.raises(ValueError, match="below the time resolution") as info:
        integrate_numeric(slow, (1.0, 10.0), RETURN_T_MAX, tol=1e-60, until_return=True)
    assert str(info.value).endswith("of t = 4, before t_max = 100")


def test_a_step_along_its_own_line_is_no_event(monkeypatch):
    """At tol = 1e-60 the slow centre's steps leave x = 1 unchanged: such a
    step starts and ends on the right line without meeting it again.  With
    no progress the run spends its single-step budget and raises."""
    slow = PiecewiseSystem.three_zone(*[F(0.0, 0.1, -0.1, 0.0, 0.0)] * 3)
    h = poincare._base_step(slow, 1e-60)
    on_line = integrate_numeric(slow, (1.0, 0.5), 10.0 * h, tol=1e-60)
    assert on_line.events == ()
    assert [s.point[0] for s in on_line.states] == [1.0] * 11
    # A step from off the line that lands on it exactly is an event: here
    # x + h v1x = 1.5 - 0.5, as every higher term of the step's abscissa
    # vanishes or falls below the rounding of v1x = -128.
    tiny = 2.0**-36
    drift = F(0.0, 1.0, -tiny, -128.0, 1.5 * tiny)
    landing = integrate_numeric(
        PiecewiseSystem.three_zone(drift, drift, drift), (1.5, 0.0), 2.0**-8
    )
    assert [(event.line, event.point[0]) for event in landing.events] == [("R", 1.0)]
    y, t = first_return(slow, 0.5)
    assert (y, t) == (pytest.approx(0.5), pytest.approx(20.0 * math.pi))
    monkeypatch.setattr(poincare, "SINGLE_STEPS_MAX", 1 << 10)
    with pytest.raises(ValueError, match="within 1024 single steps"):
        first_return(slow, 0.5, tol=1e-60)


def test_recorded_states_are_capped(ccc, monkeypatch):
    """A recorded run takes each step one by one, so it holds at most
    SINGLE_STEPS_MAX states past its start; one that needs more raises."""
    full = integrate_numeric(ccc, (1.5, 1.0), 10.0)
    monkeypatch.setattr(poincare, "SINGLE_STEPS_MAX", len(full.states) - 1)
    assert integrate_numeric(ccc, (1.5, 1.0), 10.0) == full
    monkeypatch.setattr(poincare, "SINGLE_STEPS_MAX", len(full.states) - 2)
    with pytest.raises(ValueError, match="single steps"):
        integrate_numeric(ccc, (1.5, 1.0), 10.0)


def test_zone_table_is_derived_once_per_system(examples, monkeypatch):
    # fixed_point_near runs several return maps on one system; each zone's
    # step map is derived at the first of them only.
    derived = []
    step_map = poincare._step_map
    monkeypatch.setattr(
        poincare, "_step_map", lambda field, h: derived.append(field) or step_map(field, h)
    )
    poincare._zone_table.cache_clear()
    system = examples["CCC"]
    fixed_point_near(system, GOLDEN_CORNERS["CCC"][0])
    assert derived == list(system.fields)


def test_return_map_reads_its_layout_from_the_zone_table(examples, monkeypatch):
    # After a system's first return map, the section, each zone's exits, the
    # fields that classify a contact and the zones beyond it are all read
    # from the zone table: no later map looks a line or zone up.
    looked_up = []
    for owner, name in (
        (ZoneLayout, "zones_beside"),
        (PiecewiseSystem, "line_fields"),
        (poincare, "_initial_zone"),
    ):
        original = getattr(owner, name)
        monkeypatch.setattr(
            owner, name,
            lambda *args, name=name, original=original: looked_up.append(name)
            or original(*args),
        )
    poincare._zone_table.cache_clear()
    outcomes = set()
    for name, system in sorted(examples.items()):
        y0 = GOLDEN_CORNERS[name][0]
        first_return(system, y0)
        assert looked_up, name
        looked_up.clear()
        fixed_point_near(system, y0)
        # Leftward starts, and starts whose orbits slide or never return.
        outcomes |= {_return_outcome(system, y0 + 0.05 * k)[0] for k in range(-40, 41)}
        assert looked_up == [], (name, looked_up)
    assert outcomes == {"return", "no return", "slide"}


def _doubled_jump(step: tuple, k: int, x: float, y: float) -> Point:
    """Reference: the jump with its powers doubled afresh on every call, in
    the IEEE operations and order the return map uses."""
    e00, e01, e10, e11, ex, ey, a, b, c, d, p1, r = step[:12]
    dx = e00 * x + e01 * y + ex
    dy = e10 * x + e11 * y + ey
    p, q, s, t = p1, r, 1.0, 0.0
    for bit in bin(k)[3:]:
        u = 2.0 + p
        s, t = s * u + d * t * q, s * q + t * u
        p, q = p * u + d * q * q, q * (u + p)
        if bit == "1":
            s, t = s + 1.0 + p, t + q
            p, q = p + p1 + p * p1 + d * q * r, q + r + p * r + q * p1
    return (
        x + (s * dx + t * (a * dx + b * dy)),
        y + (s * dy + t * (c * dx - a * dy)),
    )


def test_jump_powers_are_derived_once_per_zone_and_run_length(examples, monkeypatch):
    derived, jumps = [], []
    jump_powers, jump = poincare._jump_powers, poincare._jump
    monkeypatch.setattr(
        poincare, "_jump_powers",
        lambda step, k: derived.append((id(step), k)) or jump_powers(step, k),
    )
    monkeypatch.setattr(
        poincare, "_jump",
        lambda entry, k, x, y: jumps.append((id(entry[4]), k)) or jump(entry, k, x, y),
    )
    for name, system in sorted(examples.items()):
        poincare._zone_table.cache_clear()
        derived.clear()
        jumps.clear()
        y = fixed_point_near(system, GOLDEN_CORNERS[name][0]).y
        first_return(system, y)
        # Each of the oracle's return maps jumps once per zone visit, but the
        # runs repeat a few lengths: one derivation each.
        assert sorted(derived) == sorted(set(jumps)), name
        assert 4 <= len(derived) <= 6 and len(jumps) >= 24, (name, derived, jumps)


def test_kept_jump_powers_match_fresh_doubling(examples):
    rng = random.Random(25)
    poincare._zone_table.cache_clear()
    for name, system in sorted(examples.items()):
        for zone, entry in poincare._zone_table(system, DEFAULT_TOL)[1].items():
            _, lo, hi, _, step, powers = entry
            x = rng.uniform(max(lo, -3.0), min(hi, 3.0))
            y = rng.uniform(-3.0, 3.0)
            for k in range(1, 4097):
                want = _doubled_jump(step, k, x, y)
                # Derived at the first run of length k, then read back.
                assert poincare._jump(entry, k, x, y) == want, (name, zone, k)
                assert poincare._jump(entry, k, x, y) == want, (name, zone, k)
            assert sorted(powers) == list(range(1, 4097))
