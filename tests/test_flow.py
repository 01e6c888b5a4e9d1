"""Closed-form flows, boundary classification and flight times."""

from __future__ import annotations

import math
import random

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
    vector_field_value,
)

from conftest import CCC_PRODUCTS, CCC_TIMES, GOLDEN_CORNERS, random_field

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


def test_flight_time_never_reaches_saddle():
    # (y, x) from (1, 1) runs along y = x to +infinity, away from x = -1.
    field = F(0.0, 1.0, 1.0, 0.0, 0.0)
    with pytest.raises(NeverReaches):
        flight_time(field, (1.0, 1.0), -1.0)


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


def test_refinement_finds_the_root_from_an_offset_start():
    rng = random.Random(62)
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
        offset = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-8.0, -4.0)
        t_ref = refine_flight_time(field, p0, s1, t + offset)
        assert abs(t - t_ref) <= 1e-10 * (1.0 + t)
        checked += 1


def test_cross_check_rejects_an_off_closed_form(monkeypatch):
    center_flight_time = flow._center_flight_time
    monkeypatch.setattr(
        flow, "_center_flight_time",
        lambda *args: center_flight_time(*args) + 1e-6,
    )
    field = F(0.0, 1.0, -1.0, 0.0, 0.0)  # unit circle about the origin
    with pytest.raises(ArithmeticError, match="cross-check"):
        flight_time(field, (1.0, 0.5), -1.0)
