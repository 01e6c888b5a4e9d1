"""Closed-form flows, boundary classification and flight times."""

from __future__ import annotations

import ast
import math
import pathlib
import random
import types

import pytest
from hypothesis import assume, given, settings, strategies as st

from pwlham import flow
from pwlham.cycle import ARC_ZONES, find_limit_cycle
from pwlham.flow import (
    NeverReaches,
    TangentialContact,
    NotOnSwitchingLine,
    classify_boundary_point,
    flight_time,
    flow_closed_form,
    orbit_samples,
    refine_flight_time,
)
from pwlham.model import (
    DegenerateField,
    LinearHamiltonianField,
    PiecewiseSystem,
    classify_singularity,
    hamiltonian_value,
)

from conftest import (
    CCC_PRODUCTS,
    CCC_TIMES,
    GOLDEN_CORNERS,
    random_field,
    vector_field_value,
)

F = LinearHamiltonianField


# --- closed-form flow -----------------------------------------------------------


def test_flow_at_zero_time_is_identity():
    rng = random.Random(3)
    for _ in range(50):
        field = random_field(rng)
        p = (rng.uniform(-4, 4), rng.uniform(-4, 4))
        assert flow_closed_form(field, p, 0.0) == p


def test_flow_matches_published_right_orbit(examples):
    """The R-zone orbit of the CCC system from (1, y0), in closed form."""
    q = math.sqrt(1259.0 / 235.0)
    y0 = GOLDEN_CORNERS["CCC"][0]
    field = examples["CCC"].field("R")

    def expected(t):
        x = 7.0 * math.cos(2 * t) + (31.0 / 48.0) * q * math.sin(2 * t) - 6.0
        y = ((31.0 / 48.0) * q - 14.0) * math.cos(2 * t) \
            - (7.0 + (31.0 / 24.0) * q) * math.sin(2 * t) + 14.0
        return (x, y)

    t_r = CCC_TIMES["t_R"]
    for k in range(20):
        t = t_r * k / 19.0
        got = flow_closed_form(field, (1.0, y0), t)
        want = expected(t)
        assert got[0] == pytest.approx(want[0], abs=1e-9)
        assert got[1] == pytest.approx(want[1], abs=1e-9)


def test_center_full_rotation_returns():
    rng = random.Random(11)
    for _ in range(20):
        field = random_field(rng)
        info = classify_singularity(field)
        if info.kind != "center":
            continue
        p = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        q = flow_closed_form(field, p, 2.0 * math.pi / info.modulus)
        assert q[0] == pytest.approx(p[0], abs=1e-9)
        assert q[1] == pytest.approx(p[1], abs=1e-9)


@settings(max_examples=200)
@given(
    st.integers(0, 10_000),
    st.floats(0.0, 1.5),
    st.floats(0.0, 1.5),
)
def test_flow_group_property(seed, t1_scaled, t2_scaled):
    rng = random.Random(seed)
    field = random_field(rng)
    m = classify_singularity(field).modulus
    t1, t2 = t1_scaled / m, t2_scaled / m
    p = (rng.uniform(-3, 3), rng.uniform(-3, 3))
    one_hop = flow_closed_form(field, p, t1 + t2)
    two_hops = flow_closed_form(field, flow_closed_form(field, p, t1), t2)
    assert one_hop[0] == pytest.approx(two_hops[0], abs=1e-9)
    assert one_hop[1] == pytest.approx(two_hops[1], abs=1e-9)


# --- orbit sampling --------------------------------------------------------------


def test_orbit_samples_endpoints():
    field = F(0.0, 1.0, -1.0, 0.0, 0.0)
    samples = orbit_samples(field, (1.0, 0.0), 0.5, 2)
    assert samples[0] == (1.0, 0.0)
    assert samples[1] == flow_closed_form(field, (1.0, 0.0), 0.5)


def test_orbit_samples_conserve_energy():
    rng = random.Random(17)
    for _ in range(20):
        field = random_field(rng)
        p = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        t_end = rng.uniform(0.1, 2.0) / classify_singularity(field).modulus
        h0 = hamiltonian_value(field, p)
        for q in orbit_samples(field, p, t_end, 64):
            assert abs(hamiltonian_value(field, q) - h0) <= 1e-9 * (1 + abs(h0))


def test_orbit_samples_reach_next_corner(examples):
    y0, y1 = GOLDEN_CORNERS["CCC"][:2]
    field = examples["CCC"].field("R")
    samples = orbit_samples(field, (1.0, y0), CCC_TIMES["t_R"], 100)
    assert samples[-1][0] == pytest.approx(1.0, abs=1e-8)
    assert samples[-1][1] == pytest.approx(y1, abs=1e-8)


def _assert_samples_are_closed_form_flows(field, p0, t_end, n):
    samples = orbit_samples(field, p0, t_end, n)
    step = t_end / (n - 1)
    assert len(samples) == n
    for k, sample in enumerate(samples):
        assert sample == flow_closed_form(field, p0, k * step), k


@pytest.mark.parametrize("n", [2, 8, 256])
def test_orbit_samples_are_the_closed_form_bit_for_bit(examples, n):
    for system in examples.values():
        cert = find_limit_cycle(system)
        for zone, start, t in zip(ARC_ZONES, cert.corners, cert.flight_times):
            _assert_samples_are_closed_form_flows(system.field(zone), start, t, n)


@settings(max_examples=200)
@given(
    st.sampled_from(["center", "saddle"]),
    st.integers(0, 10_000),
    st.floats(1e-3, 4.0),
    st.integers(2, 64),
)
def test_orbit_samples_match_closed_form_on_random_fields(kind, seed, t_scaled, n):
    rng = random.Random(seed)
    field = random_field(rng)
    while classify_singularity(field).kind != kind:
        field = random_field(rng)
    t_end = t_scaled / classify_singularity(field).modulus
    p = (rng.uniform(-3, 3), rng.uniform(-3, 3))
    _assert_samples_are_closed_form_flows(field, p, t_end, n)


def _formula_flow(field, p0, mt):
    """p* + cos(m t) d + (sin(m t) / m) M d with d = p0 - p*, cosh and sinh
    for a saddle, given m t: the zone flow written out term by term, with p*
    and m from the coefficients."""
    a, b, c, alpha, beta = field.a, field.b, field.c, field.alpha, field.beta
    det = a * a + b * c
    px = (-a * alpha - b * beta) / det
    py = (-c * alpha + a * beta) / det
    m = math.sqrt(abs(det))
    even, odd = (math.cos, math.sin) if det < 0.0 else (math.cosh, math.sinh)
    dx, dy = p0[0] - px, p0[1] - py
    cw, sw = even(mt), odd(mt) / m
    return (
        px + cw * dx + sw * (a * dx + b * dy),
        py + cw * dy + sw * (c * dx - a * dy),
    )


def _fixture_arcs(examples):
    """(field, start, target abscissa, flight time) of every arc of the six
    fixture cycles."""
    for system in examples.values():
        cert = find_limit_cycle(system)
        ends = cert.corners[1:] + cert.corners[:1]
        for zone, start, end, t in zip(ARC_ZONES, cert.corners, ends, cert.flight_times):
            yield system.field(zone), start, end[0], t


@pytest.mark.parametrize("n", [2, 3, 256, 257])
def test_samples_are_the_written_out_formula_bit_for_bit(examples, n):
    """Sample k is the formula at m * (k * step) with the integer k, and the
    closed-form flow is the formula at m * t, bit for bit."""
    for field, start, _, t in _fixture_arcs(examples):
        m = math.sqrt(abs(field.linear_determinant()))
        step = t / (n - 1)
        samples = orbit_samples(field, start, t, n)
        assert samples[0] == start
        for k in range(1, n):
            assert samples[k] == _formula_flow(field, start, m * (k * step)), k
        assert flow_closed_form(field, start, t) == _formula_flow(field, start, m * t)
        assert flow_closed_form(field, start, step) == samples[1]


def test_a_million_samples_are_the_written_out_formula(examples):
    """At n = 2**20, every 4099th sample and the last, on a center arc and
    a saddle arc."""
    n = 1 << 20
    arcs = list(_fixture_arcs(examples))
    center = next(arc for arc in arcs if arc[0].singularity.kind == "center")
    saddle = next(arc for arc in arcs if arc[0].singularity.kind == "saddle")
    for field, start, _, t in (center, saddle):
        m = math.sqrt(abs(field.linear_determinant()))
        step = t / (n - 1)
        samples = orbit_samples(field, start, t, n)
        assert len(samples) == n
        for k in [*range(1, n, 4099), n - 1]:
            assert samples[k] == _formula_flow(field, start, m * (k * step)), k


def test_orbit_samples_validates_arguments():
    field = F(0.0, 1.0, -1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        orbit_samples(field, (1.0, 0.0), 1.0, 1)
    with pytest.raises(ValueError):
        orbit_samples(field, (1.0, 0.0), -1.0, 8)


# --- boundary classification ------------------------------------------------------


def test_published_crossing_products(examples):
    system = examples["CCC"]
    y0, y1, y2, y3 = GOLDEN_CORNERS["CCC"]
    for (p, line), key in (
        (((1.0, y0), "R"), "y0"),
        (((1.0, y1), "R"), "y1"),
        (((-1.0, y2), "L"), "y2"),
        (((-1.0, y3), "L"), "y3"),
    ):
        cls = classify_boundary_point(system, p, line)
        assert cls.label == "crossing"
        assert cls.product == pytest.approx(CCC_PRODUCTS[key], abs=1e-3)


def test_tangency_when_one_sided_velocity_vanishes():
    # Both adjacent x-velocities vanish at (1, 0): alpha = -a on each side.
    lf = F(0.0, 1.0, -1.0, 0.0, 0.0)
    cf = F(1.0, -1.0, 0.5, -1.0, 0.0)
    rf = F(2.0, -2.0, 0.5, -2.0, 0.0)
    system = PiecewiseSystem.three_zone(lf, cf, rf)
    cls = classify_boundary_point(system, (1.0, 0.0), "R")
    assert cls.label == "tangency"


def test_sliding_and_escaping_labels():
    # At (0, 0): left field pushes right (+1), right field pushes left (-1).
    lf = F(1.0, 0.0, 1.0, 1.0, 0.0)
    rf = F(1.0, 0.0, 1.0, -1.0, 0.0)
    system = PiecewiseSystem.two_zone(lf, rf)
    assert classify_boundary_point(system, (0.0, 0.0), "C").label == "sliding"
    system = PiecewiseSystem.two_zone(rf, lf)
    assert classify_boundary_point(system, (0.0, 0.0), "C").label == "escaping"


def test_crossing_labels_partition():
    rng = random.Random(23)
    for _ in range(200):
        system = PiecewiseSystem.two_zone(random_field(rng), random_field(rng))
        p = (0.0, rng.uniform(-3, 3))
        cls = classify_boundary_point(system, p, "C")
        if cls.label == "crossing":
            assert cls.product > 0.0
            assert abs(cls.derivative_minus) > 1e-10
            assert abs(cls.derivative_plus) > 1e-10
        elif cls.label in ("sliding", "escaping"):
            assert cls.product < 0.0
        else:
            assert min(abs(cls.derivative_minus), abs(cls.derivative_plus)) <= 1e-10


@given(
    st.lists(
        st.tuples(*[st.floats(-1e6, 1e6, allow_nan=False)] * 5), min_size=3, max_size=3
    ),
    st.sampled_from(["L", "R"]),
    st.floats(-0.5 * flow.ON_LINE_TOL, 0.5 * flow.ON_LINE_TOL),
    st.floats(-1e6, 1e6, allow_nan=False),
)
def test_contact_velocities_are_the_fields(coefficients, line, offset, y):
    try:
        system = PiecewiseSystem.three_zone(*(F(*c) for c in coefficients))
    except DegenerateField:
        assume(False)
    line_x, minus_field, plus_field = system.line_fields(line)
    p = (line_x + offset, y)
    cls = classify_boundary_point(system, p, line)
    assert cls.derivative_minus == vector_field_value(minus_field, p)[0]
    assert cls.derivative_plus == vector_field_value(plus_field, p)[0]


def test_not_on_switching_line():
    system = PiecewiseSystem.two_zone(
        F(0.0, 1.0, -1.0, 0.0, 0.0), F(0.0, 1.0, -1.0, 0.0, 0.0)
    )
    with pytest.raises(NotOnSwitchingLine):
        classify_boundary_point(system, (0.5, 0.0), "C")


def test_only_contact_builds_a_classification():
    """A switching-line contact is classified in one place, flow.contact: in
    the package only it and the certificate reader, which rebuilds recorded
    classifications, call CrossingClassification(...)."""
    callers = set()
    for path in pathlib.Path(flow.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "CrossingClassification" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)
                ):
                    callers.add((path.stem, getattr(top, "name", None)))
    assert callers == {("flow", "contact"), ("cycle", "certificate_from_json_dict")}


# --- flight times ------------------------------------------------------------------


def test_flight_times_golden(examples):
    system = examples["CCC"]
    y0, y1, y2, y3 = GOLDEN_CORNERS["CCC"]
    assert flight_time(system.field("R"), (1.0, y0), 1.0) == pytest.approx(
        CCC_TIMES["t_R"], abs=1e-10
    )
    assert flight_time(system.field("C"), (1.0, y1), -1.0) == pytest.approx(
        CCC_TIMES["t_C1"], abs=1e-10
    )
    assert flight_time(system.field("L"), (-1.0, y2), -1.0) == pytest.approx(
        CCC_TIMES["t_L"], abs=1e-10
    )
    assert flight_time(system.field("C"), (-1.0, y3), 1.0) == pytest.approx(
        CCC_TIMES["t_C2"], abs=1e-10
    )


def test_flight_time_half_turn_is_tangential():
    # The unit circle around the origin only grazes x = -1, so the arrival
    # after the half turn is a tangential contact, not a crossing.
    field = F(0.0, 1.0, -1.0, 0.0, 0.0)
    with pytest.raises(TangentialContact):
        flight_time(field, (1.0, 0.0), -1.0)


def test_flight_time_grazing_saddle_arc_is_tangential():
    # The hyperbola x^2 - y^2 = 7.4375 through (3, -1.25) has its vertex on
    # the target line: the saddle arc only grazes it, as the unit circle
    # grazes x = -1 above.  The tangency clamp turns the rounded-negative
    # discriminant into a double root, whose arrival velocity vanishes.
    field = F(0.0, 1.0, 1.0, 0.0, 0.0)
    with pytest.raises(TangentialContact):
        flight_time(field, (3.0, -1.25), math.sqrt(9.0 - 1.5625))


def test_flight_time_transversal_third_turn():
    # Radius-2 circle from (1, -sqrt(3)) reaches x = -1 after a third turn.
    field = F(0.0, 1.0, -1.0, 0.0, 0.0)
    t = flight_time(field, (1.0, -math.sqrt(3.0)), -1.0)
    assert t == pytest.approx(math.pi / 3.0, abs=1e-12)


def test_flight_time_never_reaches_center():
    # Radius-0.5 orbit through (0, 0.5) cannot reach x = -1.
    field = F(0.0, 1.0, -1.0, 0.0, 0.0)
    with pytest.raises(NeverReaches):
        flight_time(field, (0.0, 0.5), -1.0)


def test_flight_time_from_the_centre_never_reaches():
    # The start is the centre itself, on the line: an orbit of radius 0,
    # which the radius guard rejects before d / radius divides by zero.
    field = F(-0.41870400444242195, 690143831.9977579, -252.3722422147226,
              -517187448.5096591, 252.0584692794682)
    start = (1.0, 0.7493908152902876)
    assert field.singularity.location == start
    with pytest.raises(NeverReaches, match="misses the line x = 1"):
        flight_time(field, start, 1.0)


@pytest.mark.parametrize(
    "coefficients, roots",
    [((0.0, 0.0, 0.0), []), ((1e-20, 1.0, 2.0), [-2.0]), ((1.0, 0.0, 0.0), [0.0])],
    ids=["vanishes", "linear", "double-zero"],
)
def test_quadratic_roots_degenerate_cases(coefficients, roots):
    # No isolated root when the quadratic vanishes identically; the root of
    # the linear part when the leading coefficient is negligible; a double
    # root at 0 when only the leading term is left.
    assert flow.quadratic_roots(*coefficients) == roots


def test_flight_time_never_reaches_saddle():
    # (y, x) from (1, 1) runs along y = x to +infinity, away from x = -1.
    field = F(0.0, 1.0, 1.0, 0.0, 0.0)
    with pytest.raises(NeverReaches):
        flight_time(field, (1.0, 1.0), -1.0)


def test_flight_time_rejects_a_saddle_arrival_in_the_wrong_direction(monkeypatch):
    # x' = x from (-1, 0): a root w = e puts the orbit at x = -e at t = 1,
    # moving left, so it cannot be the rightward arrival at x = 1.
    monkeypatch.setattr(flow, "quadratic_roots", lambda *args: [math.e])
    field = F(1.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(
        NeverReaches,
        match="no arrival at x = 1 with the required crossing direction",
    ):
        flight_time(field, (-1.0, 0.0), 1.0)


def test_flight_time_saddle_return_arc(examples):
    # SSS outer right zone is a saddle; the return arc is realizable.
    system = examples["SSS"]
    y0, y1 = GOLDEN_CORNERS["SSS"][:2]
    t = flight_time(system.field("R"), (1.0, y0), 1.0)
    landing = flow_closed_form(system.field("R"), (1.0, y0), t)
    assert landing[0] == pytest.approx(1.0, abs=1e-10)
    assert landing[1] == pytest.approx(y1, abs=1e-9)


def test_flight_time_matches_bracketed_refinement():
    rng = random.Random(61)
    checked = 0
    while checked < 300:
        field = random_field(rng)
        s0 = rng.choice((-1.0, 0.0, 1.0))
        s1 = rng.choice((-1.0, 0.0, 1.0))
        p0 = (s0, rng.uniform(-3.0, 3.0))
        try:
            t = flight_time(field, p0, s1)
        except (NeverReaches, TangentialContact):
            continue
        t_ref = refine_flight_time(field, p0, s1, t)
        assert abs(t - t_ref) <= 1e-10
        landing_x = flow_closed_form(field, p0, t)[0]
        assert landing_x == pytest.approx(s1, abs=1e-9)
        checked += 1


def test_cross_check_holds_a_time_within_its_tolerance(examples):
    """On the fixture arcs and 300 random arcs, a closed-form time moved by
    k * CROSS_CHECK_TOL * (1 + t) passes the cross-check for |k| <= 0.9 and
    fails it for |k| >= 1.1."""
    arcs = []
    for system in examples.values():
        cert = find_limit_cycle(system)
        ends = cert.corners[1:] + cert.corners[:1]
        for zone, start, end, t in zip(ARC_ZONES, cert.corners, ends, cert.flight_times):
            arcs.append((system.field(zone), start, end[0], t))
    fixture_arcs = len(arcs)
    rng = random.Random(62)
    while len(arcs) < fixture_arcs + 300:
        field = random_field(rng)
        s0 = rng.choice((-1.0, 0.0, 1.0))
        s1 = rng.choice((-1.0, 0.0, 1.0))
        p0 = (s0, rng.uniform(-3.0, 3.0))
        try:
            arcs.append((field, p0, s1, flight_time(field, p0, s1)))
        except (NeverReaches, TangentialContact):
            continue
    for field, p0, s1, t in arcs:
        tau = flow.CROSS_CHECK_TOL * (1.0 + t)
        for k in (0.0, 0.5, -0.5, 0.9, -0.9):
            refine_flight_time(field, p0, s1, t + k * tau)
        for k in (1.1, -1.1, 2.0, -2.0, 10.0, -10.0, 1e3, -1e3, 1e6, -1e6):
            with pytest.raises(ArithmeticError, match="cross-check"):
                refine_flight_time(field, p0, s1, t + k * tau)


def _reference_refine(field, p0, target_x, t_approx):
    """refine_flight_time as two flow_closed_form evaluations."""
    w = flow.CROSS_CHECK_TOL * (1.0 + abs(t_approx))
    lo, hi = t_approx - w, t_approx + w
    g_lo = flow_closed_form(field, p0, lo)[0] - target_x
    g_hi = flow_closed_form(field, p0, hi)[0] - target_x
    if not g_lo * g_hi < 0.0:
        return ArithmeticError
    return (lo * g_hi - hi * g_lo) / (g_hi - g_lo)


def _refine_or_error(field, p0, target_x, t_approx):
    try:
        return refine_flight_time(field, p0, target_x, t_approx)
    except ArithmeticError:
        return ArithmeticError


def test_refine_is_two_closed_form_evaluations(examples):
    """refine_flight_time returns the bits, or raises where, the secant of
    two flow_closed_form evaluations at t +/- w gives them: on the fixture
    arcs, on seeded random arcs and times, and at times where one end t -/+ w
    is exactly 0."""
    cases = list(_fixture_arcs(examples))
    rng = random.Random(63)
    for _ in range(300):
        field = random_field(rng)
        p0 = (rng.choice((-1.0, 0.0, 1.0)), rng.uniform(-3.0, 3.0))
        s1 = rng.choice((-1.0, 0.0, 1.0))
        try:
            t = flight_time(field, p0, s1)
        except (NeverReaches, TangentialContact, ArithmeticError):
            t = rng.uniform(0.0, 4.0) / field.singularity.modulus
        cases.append((field, p0, s1, t))
    # At t = +/-1.0000000010000002e-09, t -/+ w is exactly 0.0, where the
    # flow is p0 itself; the formula there would give p* + (p0 - p*), which
    # for this centre at (1/3, 0) misses x = 0.9 by an ulp.
    t_zero = 1.0000000010000002e-09
    assert t_zero - flow.CROSS_CHECK_TOL * (1.0 + t_zero) == 0.0
    centre = F(0.0, 1.0, -1.0, 0.0, 1.0 / 3.0)
    ends = [(centre, (0.9, 1.0), 0.9 + 1e-9, t_zero),
            (centre, (0.9, 1.0), 0.9 - 1e-9, -t_zero)]
    for field, p0, s1, t in cases + ends:
        assert _refine_or_error(field, p0, s1, t) == _reference_refine(field, p0, s1, t)
    for case in ends:
        assert _refine_or_error(*case) is not ArithmeticError


def test_cross_check_rejects_an_off_closed_form(monkeypatch):
    # The centre's phase angle, and so its closed-form time, is off by 1e-6.
    shifted = types.SimpleNamespace(**vars(math))
    shifted.atan2 = lambda y, x: math.atan2(y, x) + 1e-6
    monkeypatch.setattr(flow, "math", shifted)
    field = F(0.0, 1.0, -1.0, 0.0, 0.0)  # unit circle about the origin
    with pytest.raises(ArithmeticError, match="cross-check"):
        flight_time(field, (1.0, 0.5), -1.0)
