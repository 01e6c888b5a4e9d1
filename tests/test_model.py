"""Field evaluation, singularity classification, continuity, JSON schema."""

from __future__ import annotations

import itertools
import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pwlham.cli import FIXTURE_NAMES, fixture_text
from pwlham.closure import solve_three_zone
from pwlham.model import (
    CONTINUITY_TOL,
    THREE_ZONE,
    TWO_ZONE,
    DegenerateField,
    LayoutError,
    LinearHamiltonianField,
    PiecewiseSystem,
    SystemFormatError,
    _finite_number,
    classify_singularity,
    hamiltonian_value,
    is_continuous,
    singular_points_in_zone,
    system_from_json_dict,
    system_to_json_dict,
)
from pwlham.flow import flow_closed_form

from conftest import (
    GOLDEN_CORNERS,
    random_continuous_three_zone,
    random_continuous_two_zone,
    random_field,
    random_three_zone,
    random_two_zone,
    vector_field_value,
)

coef = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
coord = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def nondegenerate_fields():
    return st.builds(
        lambda a, b, c, alpha, beta: (a, b, c, alpha, beta),
        coef, coef, coef, coef, coef,
    ).filter(lambda t: abs(t[0] * t[0] + t[1] * t[2]) > 0.1).map(
        lambda t: LinearHamiltonianField(*t)
    )


# --- Hamiltonian and field values --------------------------------------------


@given(nondegenerate_fields())
def test_hamiltonian_vanishes_at_origin(field):
    assert hamiltonian_value(field, (0.0, 0.0)) == 0.0


def test_hamiltonian_golden_value(examples):
    left = examples["CCC"].field("L")
    assert hamiltonian_value(left, (-1.0, 0.0)) == pytest.approx(4.0, abs=1e-12)


def test_right_zone_energy_matches_across_chord(examples):
    right = examples["CCC"].field("R")
    y0 = GOLDEN_CORNERS["CCC"][0]
    h_top = hamiltonian_value(right, (1.0, y0))
    h_bot = hamiltonian_value(right, (1.0, -y0))
    assert h_top == pytest.approx(h_bot, abs=1e-9)


def test_field_value_zero_at_origin_without_affine_part():
    field = LinearHamiltonianField(1.0, 2.0, 3.0, 0.0, 0.0)
    assert vector_field_value(field, (0.0, 0.0)) == (0.0, 0.0)


def test_field_value_golden(examples):
    center = examples["CCC"].field("C")
    vx, vy = vector_field_value(center, (1.0, 0.0))
    assert vx == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert vy == pytest.approx(-4.0 / 3.0, abs=1e-15)


def test_symplectic_gradient_1000_random_fields():
    rng = random.Random(101)
    eps = 1e-6
    for _ in range(1000):
        field = random_field(rng)
        p = (rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
        vx, vy = vector_field_value(field, p)
        dh_dy = (
            hamiltonian_value(field, (p[0], p[1] + eps))
            - hamiltonian_value(field, (p[0], p[1] - eps))
        ) / (2.0 * eps)
        dh_dx = (
            hamiltonian_value(field, (p[0] + eps, p[1]))
            - hamiltonian_value(field, (p[0] - eps, p[1]))
        ) / (2.0 * eps)
        scale = 1.0 + abs(vx) + abs(vy)
        assert abs(vx - dh_dy) <= 1e-6 * scale
        assert abs(vy + dh_dx) <= 1e-6 * scale


@given(nondegenerate_fields(), coord, coord, st.floats(min_value=0.0, max_value=2.0))
def test_energy_is_first_integral_of_flow(field, x, y, t_scaled):
    t = t_scaled / classify_singularity(field).modulus
    h0 = hamiltonian_value(field, (x, y))
    h1 = hamiltonian_value(field, flow_closed_form(field, (x, y), t))
    assert abs(h1 - h0) <= 1e-9 * (1.0 + abs(h0))


# --- singularity classification -----------------------------------------------


def test_classify_center_golden():
    info = classify_singularity(LinearHamiltonianField(4.0, 8.0, -2.5, 1.5, 2.75))
    assert info.kind == "center"
    assert info.modulus == pytest.approx(2.0, abs=1e-12)


def test_classify_saddle_golden():
    info = classify_singularity(LinearHamiltonianField(1.0, 1.0, 35.0, 0.0, 0.0))
    assert info.kind == "saddle"
    assert info.modulus == pytest.approx(6.0, abs=1e-12)


def test_classify_harmonic_oscillator():
    info = classify_singularity(LinearHamiltonianField(0.0, 1.0, -1.0, 0.0, 0.0))
    assert info.kind == "center"
    assert info.modulus == pytest.approx(1.0, abs=1e-15)
    assert info.location == (0.0, 0.0)


@given(nondegenerate_fields())
def test_modulus_squared_matches_determinant(field):
    info = classify_singularity(field)
    assert info.modulus ** 2 == pytest.approx(
        abs(field.linear_determinant()), rel=1e-12, abs=1e-12
    )


@given(nondegenerate_fields())
def test_singular_point_kills_the_field(field):
    info = classify_singularity(field)
    vx, vy = vector_field_value(field, info.location)
    scale = 1.0 + abs(field.alpha) + abs(field.beta)
    assert abs(vx) <= 1e-10 * scale
    assert abs(vy) <= 1e-10 * scale


def test_degenerate_field_rejected_at_construction():
    with pytest.raises(DegenerateField):
        LinearHamiltonianField(1.0, 1.0, -1.0, 0.0, 0.0)  # a^2 + b*c = 0
    with pytest.raises(DegenerateField):
        LinearHamiltonianField(0.0, 2.0, 5e-13, 1.0, 1.0)


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_alpha_or_beta_rejected_at_construction(bad):
    with pytest.raises(DegenerateField, match="not finite"):
        LinearHamiltonianField(1.0, 1.0, 1.0, bad, 0.0)
    with pytest.raises(DegenerateField, match="not finite"):
        LinearHamiltonianField(1.0, 1.0, 1.0, 0.0, bad)


# --- layouts -------------------------------------------------------------------

INF = float("inf")


@pytest.mark.parametrize(
    "layout, zones, lines, beside, intervals",
    [
        (TWO_ZONE, ("L", "R"), (("C", 0.0),), {"C": ("L", "R")},
         {"L": (-INF, 0.0), "R": (0.0, INF)}),
        (THREE_ZONE, ("L", "C", "R"), (("L", -1.0), ("R", 1.0)),
         {"L": ("L", "C"), "R": ("C", "R")},
         {"L": (-INF, -1.0), "C": (-1.0, 1.0), "R": (1.0, INF)}),
    ],
    ids=["two", "three"],
)
def test_layout_tables(layout, zones, lines, beside, intervals):
    assert layout.zone_ids == zones
    assert layout.switching_lines == lines
    for line_id, x in lines:
        assert layout.line_position(line_id) == x
        assert layout.zones_beside(line_id) == beside[line_id]
    for zone_id in zones:
        assert layout.zone_interval(zone_id) == intervals[zone_id]
    for unknown in ("X", "c"):
        with pytest.raises(LayoutError):
            layout.line_position(unknown)
        with pytest.raises(LayoutError):
            layout.zones_beside(unknown)
        with pytest.raises(LayoutError):
            layout.zone_interval(unknown)


@pytest.mark.parametrize("layout", [TWO_ZONE, THREE_ZONE], ids=["two", "three"])
def test_field_of_an_unknown_zone_raises_layout_error(layout):
    rng = random.Random(17)
    system = PiecewiseSystem(
        layout, tuple(random_field(rng) for _ in layout.zone_ids)
    )
    for zone_id, field in zip(layout.zone_ids, system.fields):
        assert system.field(zone_id) is field
    # "C" names the two-zone layout's switching line, not one of its zones.
    for unknown in ("X", "c", *(("C",) if layout is TWO_ZONE else ())):
        with pytest.raises(LayoutError) as info:
            system.field(unknown)
        assert str(info.value) == f"no zone {unknown!r} in this layout"


def test_field_count_must_match_the_layout():
    field = LinearHamiltonianField(0.0, 1.0, -1.0, 0.0, 0.0)
    with pytest.raises(LayoutError, match="^3 zones but 2 fields$"):
        PiecewiseSystem(THREE_ZONE, (field, field))


# --- continuity ----------------------------------------------------------------


def test_example_system_is_discontinuous(examples):
    flag, violations = is_continuous(examples["CCC"])
    assert flag is False
    assert [f"{name} = {gap:g}" for name, gap in violations.items()] == [
        "a_R - a_C = 4",
        "a_L - a_C = 4",
        "b_L - b_C = 6",
        "alpha_R - alpha_C = -4.66667",
        "alpha_L - alpha_C = 0.833333",
        "beta_R - beta_C - c_C + c_R = -12.6667",
        "beta_L - beta_C - c_L + c_C = 2.58333",
    ]


def _nudged(system, zone, key, delta):
    fields = list(system.fields)
    field = fields[zone]
    coefs = {k: getattr(field, k) for k in ("a", "b", "c", "alpha", "beta")}
    coefs[key] += delta
    fields[zone] = LinearHamiltonianField(**coefs)
    return PiecewiseSystem(system.layout, tuple(fields))


@given(st.integers(0, 10_000), st.sampled_from(["two", "three"]))
def test_dispatch_flag_agrees_with_is_continuous(seed, layout):
    rng = random.Random(seed)
    if layout == "two":
        continuous = random_continuous_two_zone(rng)
        discontinuous = random_two_zone(rng)
    else:
        continuous = random_continuous_three_zone(rng)
        discontinuous = random_three_zone(rng)
    tol = CONTINUITY_TOL * (1.0 + continuous.coefficient_scale)
    # (system, expected flag): every coefficient nudged just below and just
    # above the tolerance.  Two-zone continuity leaves c free.
    cases = [(continuous, True), (discontinuous, None)]
    for zone in range(continuous.layout.n_zones):
        for key in ("a", "b", "c", "alpha", "beta"):
            sign = rng.choice((-1.0, 1.0))
            cases.append((_nudged(continuous, zone, key, sign * 0.5 * tol), True))
            above = _nudged(continuous, zone, key, sign * 2.0 * tol)
            cases.append((above, layout == "two" and key == "c"))
    for system, expected in cases:
        flag, violations = is_continuous(system)
        assert flag == (not violations)
        if expected is not None:
            assert flag == expected
        if layout == "three":
            # solve_three_zone takes its continuous branch exactly on the flag.
            outcome = solve_three_zone(system)
            text = getattr(outcome, "reason", "") or getattr(outcome, "description", "")
            assert text.startswith("continuous with") == flag


def test_constructed_continuous_three_zone_flags_true():
    rng = random.Random(7)
    for _ in range(20):
        system = random_continuous_three_zone(rng)
        flag, violations = is_continuous(system)
        assert flag is True
        assert violations == {}


def test_continuity_violations_are_signed_gaps():
    left = LinearHamiltonianField(1.0, 2.0, 3.0, 0.5, -0.5)
    right = LinearHamiltonianField(1.5, 2.0, 3.0, 0.5, -0.5)
    assert is_continuous(PiecewiseSystem.two_zone(left, right)) == (
        False, {"a_R - a_L": 0.5}
    )


def test_scale_and_continuity_verdict_are_derived_once():
    rng = random.Random(29)
    system = random_three_zone(rng)
    assert "coefficient_scale" in vars(system)
    assert is_continuous(system) is is_continuous(system)
    for i in range(200):
        if i % 4:
            system = random_three_zone(rng)
        else:
            system = random_continuous_three_zone(rng)
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
        scale = max(
            abs(getattr(f, k))
            for f in system.fields
            for k in ("a", "b", "c", "alpha", "beta")
        )
        assert system.coefficient_scale == scale
        tol = CONTINUITY_TOL * (1.0 + scale)
        expected = {name: gap for name, gap in gaps.items() if abs(gap) > tol}
        first = is_continuous(system)
        assert first == (not expected, expected)
        assert is_continuous(system) is first


def test_two_zone_identical_fields_continuous():
    f = LinearHamiltonianField(1.0, 2.0, 3.0, 0.5, -0.5)
    flag, _ = is_continuous(PiecewiseSystem.two_zone(f, f))
    assert flag is True


def test_continuity_flag_implies_boundary_match():
    rng = random.Random(13)
    for _ in range(20):
        system = random_continuous_three_zone(rng)
        assert is_continuous(system)[0]
        worst = 0.0
        for line_id, line_x in system.layout.switching_lines:
            minus, plus = system.layout.zones_beside(line_id)
            for _ in range(100):
                p = (line_x, rng.uniform(-10.0, 10.0))
                vm = vector_field_value(system.field(minus), p)
                vp = vector_field_value(system.field(plus), p)
                worst = max(worst, abs(vm[0] - vp[0]), abs(vm[1] - vp[1]))
        assert worst <= 1e-10


# --- singular point positions ---------------------------------------------------


def test_left_zone_singularity_reported_inside():
    # Singular point of (y, -x) shifted to (-2, 0): inside the left strip.
    left = LinearHamiltonianField(0.0, 1.0, -1.0, 0.0, -2.0)
    right = LinearHamiltonianField(0.0, 1.0, -1.0, 0.0, 2.0)
    report = singular_points_in_zone(PiecewiseSystem.two_zone(left, right))
    assert report[0][0] == "L"
    assert report[0][1].location == (-2.0, 0.0)
    assert report[0][2] is True


def test_center_zone_singularity_of_bundled_example(examples):
    report = {zone: (info, inside)
              for zone, info, inside in singular_points_in_zone(examples["CCC"])}
    info, inside = report["C"]
    assert info.location[0] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert info.location[1] == pytest.approx(-1.0 / 3.0, abs=1e-15)
    assert inside is True
    # Outer singular points of this system sit in the middle strip.
    assert report["L"][1] is False
    assert report["R"][1] is False


def test_singularity_on_switching_line_counts_outside():
    f = LinearHamiltonianField(0.0, 1.0, -1.0, 0.0, 0.0)  # singular at (0, 0)
    report = singular_points_in_zone(PiecewiseSystem.two_zone(f, f))
    assert all(inside is False for _, _, inside in report)


# --- JSON schema ----------------------------------------------------------------


def test_json_round_trip(examples):
    for system in examples.values():
        doc = system_to_json_dict(system)
        again = system_from_json_dict(doc)
        assert system_to_json_dict(again) == doc
        assert again.layout is system.layout


@given(st.integers(0, 10_000))
def test_json_round_trip_random(seed):
    rng = random.Random(seed)
    system = PiecewiseSystem.three_zone(
        random_field(rng), random_field(rng), random_field(rng)
    )
    doc = system_to_json_dict(system)
    again = system_from_json_dict(doc)
    assert system_to_json_dict(again) == doc
    assert again.layout is system.layout


def test_rational_strings_parse_exactly():
    doc = {
        "layout": "two",
        "zones": [
            {"a": "11/4", "b": 1, "c": "0", "alpha": 0, "beta": 0},
            {"a": 2.75, "b": 1, "c": 0, "alpha": 0, "beta": 0},
        ],
    }
    system = system_from_json_dict(doc)
    assert system.fields[0].a == system.fields[1].a == 2.75


@pytest.mark.parametrize(
    "text",
    [
        # "p" or "p/q" in ASCII digits: the integer-division path.
        "3", "-3", "+3", "-0", "0/5", "3/4", "-3/4", "007/010",
        # Other rational text, read by fractions.Fraction.
        " 3/4 ", "1.5", "1e3", "\u0663",
        pytest.param(
            "1_000",
            marks=pytest.mark.skipif(
                sys.version_info < (3, 11), reason="Fraction reads '_' from 3.11"
            ),
        ),
    ],
)
def test_rational_text_parses_as_fraction_does(text):
    expected = float(Fraction(text))
    assert _finite_number(text).hex() == expected.hex()


@pytest.mark.parametrize(
    "text, message",
    [
        *(
            pytest.param(text, f"bad rational {text!r}", id=text)
            for text in ["3/0", "0/0", "3/-4", "/4", "3/", "", "nan", "3\n4"]
        ),
        # More digits than the default int digit limit: the integer is read
        # and overflows a float.
        pytest.param(
            "7" * 5000, f"{'7' * 5000!r} is not a finite number", id="7" * 5000
        ),
    ],
)
def test_bad_rational_text_rejected(text, message):
    with pytest.raises(SystemFormatError) as info:
        _finite_number(text)
    assert str(info.value) == message


def test_overflowing_rational_text_rejected():
    text = "1" + "0" * 400 + "/3"
    with pytest.raises(SystemFormatError) as info:
        _finite_number(text)
    assert str(info.value) == f"{text!r} is not a finite number"


def test_ratio_text_past_the_int_digit_limit_is_rounded_correctly():
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    cases = {
        "7" * 5000 + "/" + "3" * 5000: Fraction(7, 3),
        "-" + "0" * 6000 + "5/" + "0" * 4500 + "2": Fraction(-5, 2),
        "1" * 4700 + "/" + "3" * 4701: Fraction(
            (10 ** 4700 - 1) // 9, (10 ** 4701 - 1) // 3
        ),
    }
    for text, exact in cases.items():
        assert _finite_number(text).hex() == float(exact).hex()
    # The conversion leaves the process-wide limit as it found it.
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    # Long text that is not "p" or "p/q" still goes to Fraction, which
    # refuses it past the limit as before.
    text = "7" * 5000 + ".5"
    if limit and limit < len(text):
        with pytest.raises(SystemFormatError) as info:
            _finite_number(text)
        assert str(info.value) == f"bad rational {text!r}"


def test_random_ratios_parse_as_fraction_does():
    rng = random.Random(20211)
    for _ in range(2000):
        p = rng.randint(-(10 ** 30), 10 ** 30)
        q = rng.randint(1, 10 ** 40)
        parsed = _finite_number(f"{p}/{q}")
        assert parsed.hex() == float(Fraction(p, q)).hex(), (p, q)


def test_coefficient_errors_name_the_zone_and_field():
    doc = {
        "layout": "three",
        "zones": [
            {"a": 1, "b": 0, "c": 1, "alpha": 0, "beta": 0},
            {"a": 1, "b": 0, "c": 1, "alpha": 0, "beta": 0},
            {"a": 1, "b": 0, "c": 1, "alpha": "1/0", "beta": 0},
        ],
    }
    with pytest.raises(SystemFormatError) as info:
        system_from_json_dict(doc)
    assert str(info.value) == "zone R, field 'alpha': bad rational '1/0'"
    assert isinstance(info.value.__cause__, ZeroDivisionError)


_UNIT = {"a": 1, "b": 0, "c": 1, "alpha": 0, "beta": 0}


@pytest.mark.parametrize(
    "zone, message",
    [
        ({"a": 1, "b": 0, "c": 1, "zeta": 0, "gamma": 2},
         "zone C: unknown keys ['gamma', 'zeta']"),
        ({"a": 1, "c": 1, "alpha": 0}, "zone C: missing keys ['b', 'beta']"),
        ({**_UNIT, "a": True}, "zone C, field 'a': expected a number, got True"),
        ({**_UNIT, "b": [1]}, "zone C, field 'b': expected a number, got list"),
    ],
    ids=["unknown-and-missing", "missing", "bool-coefficient", "list-coefficient"],
)
def test_zone_errors_keep_their_messages(zone, message):
    # Unknown keys are reported before missing ones, both in a fixed order.
    doc = {"layout": "three", "zones": [_UNIT, zone, _UNIT]}
    with pytest.raises(SystemFormatError) as info:
        system_from_json_dict(doc)
    assert str(info.value) == message


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_zone_key_order_does_not_change_the_bits(name):
    doc = json.loads(fixture_text(name))

    def coefficient_bits(zones):
        system = system_from_json_dict({**doc, "zones": zones})
        return [
            [value.hex() for value in zone.values()]
            for zone in system_to_json_dict(system)["zones"]
        ]

    expected = coefficient_bits(doc["zones"])
    for order in itertools.permutations(doc["zones"][0]):
        zones = [{k: zone[k] for k in order} for zone in doc["zones"]]
        assert coefficient_bits(zones) == expected, order


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {"layout": "four", "zones": []},
        {"layout": "two", "zones": [{}]},
        {"layout": "two", "zones": [
            {"a": 1, "b": 0, "c": 1, "alpha": 0, "beta": 0},
            {"a": 1, "b": 0, "c": 1, "alpha": 0, "beta": "1/0"},
        ]},
        {"layout": "three", "zones": [
            {"a": 1, "b": 0, "c": 1, "alpha": 0, "beta": 0, "gamma": 2},
            {"a": 1, "b": 0, "c": 1, "alpha": 0, "beta": 0},
            {"a": 1, "b": 0, "c": 1, "alpha": 0, "beta": 0},
        ]},
        {"layout": "two", "zones": [
            {"a": 0, "b": 1, "c": 0, "alpha": 0, "beta": 0},
            {"a": 1, "b": 0, "c": 1, "alpha": 0, "beta": 0},
        ]},
        *(
            {"layout": "two", "zones": [
                {"a": 1, "b": bad, "c": 1, "alpha": 0, "beta": 0},
                {"a": 1, "b": 0, "c": 1, "alpha": 0, "beta": 0},
            ]}
            for bad in (float("nan"), float("inf"), -1e400, "1e400", 10 ** 400)
        ),
        # Finite coefficients whose a^2 + b*c overflows.
        {"layout": "two", "zones": [
            {"a": 1e200, "b": 0, "c": 1, "alpha": 0, "beta": 0},
            {"a": 1, "b": 0, "c": 1, "alpha": 0, "beta": 0},
        ]},
    ],
)
def test_bad_documents_rejected(doc):
    with pytest.raises(SystemFormatError):
        system_from_json_dict(doc)
