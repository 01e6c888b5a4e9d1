"""Closure residuals, corner sums and gaps, and the case analysis."""

from __future__ import annotations

import ast
import json
import math
import random
import runpy
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from pwlham import closure, model
from pwlham.cli import FIXTURE_NAMES, fixture_text
from pwlham.closure import (
    Continuum,
    NoSolution,
    UniqueCycleCandidate,
    residuals_three_zone,
    solve,
    solve_three_zone,
    solve_two_zone,
)
from pwlham.cycle import certify
from pwlham.model import (
    LinearHamiltonianField,
    PiecewiseSystem,
    hamiltonian_value,
)

from conftest import (
    GOLDEN_CORNERS,
    continuum_parameter,
    gap_line_solutions,
    random_continuous_three_zone,
    random_generic_three_zone,
    random_three_zone,
    random_two_zone,
)

F = LinearHamiltonianField
GOLDEN = Path(__file__).parent / "golden"
ordinate = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def saddle_like(a: float, b: float, alpha: float = 0.0, beta: float = 0.0) -> F:
    """Field with prescribed (a, b, alpha, beta); c chosen to stay nondegenerate."""
    c = 1.0 if abs(a) < 0.5 else 0.0
    return F(a, b, c, alpha, beta)


# --- residuals -----------------------------------------------------------------


def residuals_two_zone(system: PiecewiseSystem, y0: float, y1: float):
    """Reference energy mismatches of the R and L zones between (0, y0) and
    (0, y1), the two-zone analogue of closure.residuals_three_zone."""
    lf, rf = system.fields
    gap = y0 - y1
    return (
        -0.5 * gap * (rf.b * (y0 + y1) + 2.0 * rf.alpha),
        0.5 * gap * (lf.b * (y0 + y1) + 2.0 * lf.alpha),
    )


def test_two_zone_residuals_vanish_on_equal_ordinates():
    system = PiecewiseSystem.two_zone(F(1.0, 2.0, 3.0, 0.4, 0.1), F(0.0, 1.0, -1.0, 0.2, 0.0))
    assert residuals_two_zone(system, 0.7, 0.7) == (0.0, 0.0)


def test_two_zone_residuals_direct_substitution():
    system = PiecewiseSystem.two_zone(F(0.0, 2.0, -2.0, 0.0, 0.0), F(0.0, 2.0, -2.0, 0.0, 0.0))
    assert residuals_two_zone(system, 1.0, -1.0) == (0.0, 0.0)

    system = PiecewiseSystem.two_zone(F(0.0, 2.0, -2.0, 0.0, 0.0), F(1.0, 0.0, 1.0, 1.0, 0.0))
    first, _ = residuals_two_zone(system, 1.0, 0.0)
    assert first == pytest.approx(-1.0, abs=1e-15)


@given(ordinate, ordinate)
def test_two_zone_residuals_are_energy_differences(y0, y1):
    rng = random.Random(3)
    system = random_two_zone(rng)
    lf, rf = system.fields
    r = residuals_two_zone(system, y0, y1)
    assert r[0] == pytest.approx(
        hamiltonian_value(rf, (0.0, y1)) - hamiltonian_value(rf, (0.0, y0)),
        abs=1e-10,
    )
    assert r[1] == pytest.approx(
        hamiltonian_value(lf, (0.0, y0)) - hamiltonian_value(lf, (0.0, y1)),
        abs=1e-10,
    )


@given(ordinate, ordinate, ordinate, ordinate, st.integers(0, 999))
def test_three_zone_residuals_are_energy_differences(y0, y1, y2, y3, seed):
    system = random_three_zone(random.Random(seed))
    lf, cf, rf = system.fields
    r = residuals_three_zone(system, y0, y1, y2, y3)
    expected = (
        hamiltonian_value(rf, (1.0, y1)) - hamiltonian_value(rf, (1.0, y0)),
        hamiltonian_value(cf, (1.0, y0)) - hamiltonian_value(cf, (-1.0, y3)),
        hamiltonian_value(lf, (-1.0, y3)) - hamiltonian_value(lf, (-1.0, y2)),
        hamiltonian_value(cf, (-1.0, y2)) - hamiltonian_value(cf, (1.0, y1)),
    )
    for got, want in zip(r, expected):
        assert got == pytest.approx(want, abs=1e-9)


def test_three_zone_residuals_trivial_zero():
    system = PiecewiseSystem.three_zone(
        F(1.0, 1.0, 1.0, 0.3, 0.7), F(0.0, 2.0, -2.0, 0.0, 0.0), F(1.0, 1.0, 1.0, -0.3, 0.7)
    )
    r = residuals_three_zone(system, 1.0, 1.0, -1.0, -1.0)
    assert r == (0.0, 0.0, 0.0, 0.0)


def test_golden_tuples_zero_residuals(examples):
    for name in ("CCC", "SSS"):
        r = residuals_three_zone(examples[name], *GOLDEN_CORNERS[name])
        assert max(map(abs, r)) <= 1e-9


@given(ordinate, ordinate, ordinate, ordinate, st.integers(0, 999))
def test_swap_symmetry_of_residuals(y0, y1, y2, y3, seed):
    """Swapping both corner pairs permutes the residuals up to sign."""
    system = random_three_zone(random.Random(seed))
    r = residuals_three_zone(system, y0, y1, y2, y3)
    s = residuals_three_zone(system, y1, y0, y3, y2)
    scale = 1.0 + max(abs(v) for v in r)
    assert abs(s[0] + r[0]) <= 1e-12 * scale
    assert abs(s[1] + r[3]) <= 1e-12 * scale
    assert abs(s[2] + r[2]) <= 1e-12 * scale
    assert abs(s[3] + r[1]) <= 1e-12 * scale


# --- corner sums and gaps -------------------------------------------------------


def _swap(corners):
    y0, y1, y2, y3 = corners
    return (y1, y0, y3, y2)


def test_sums_and_gaps_identities():
    """The sum and the difference of the two C-arc residuals are P d - Q e
    and b_C (d^2 - e^2) / 4 - W at any gaps once the outer sums hold."""
    rng = random.Random(23)
    for _ in range(200):
        system = random_generic_three_zone(rng)
        s_r, s_l, p, q, w = closure._sums_and_gaps(system)
        b_c = system.fields[1].b
        for _ in range(5):
            d, e = rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)
            r = residuals_three_zone(
                system, 0.5 * (s_r + d), 0.5 * (s_r - d),
                0.5 * (s_l - e), 0.5 * (s_l + e),
            )
            scale = 1.0 + max(map(abs, (s_r, s_l, p, q, w, d, e))) ** 2
            assert abs(r[0]) <= 1e-12 * scale and abs(r[2]) <= 1e-12 * scale
            assert abs(r[1] + r[3] - (p * d - q * e)) <= 1e-12 * scale
            assert abs(r[1] - r[3] - (0.25 * b_c * (d * d - e * e) - w)) <= (
                1e-12 * scale
            )


def test_outer_corners_pure_reflection():
    # a_R + alpha_R = 0 pins the R-arc corners to y0 = -y1.
    system = PiecewiseSystem.three_zone(
        F(0.0, 1.0, -1.0, 0.5, 0.0), F(-1.0, 2.0, -2.0, -0.5, -1.0), F(0.5, 1.0, -1.0, -0.5, 0.0)
    )
    out = solve_three_zone(system)
    assert isinstance(out, UniqueCycleCandidate)
    assert out == (0.5, -0.5, -2.0, 1.0)


def test_outer_corners_golden(examples):
    out = solve_three_zone(examples["CCC"])
    assert out.y0 == pytest.approx(-out.y1, abs=1e-12)
    out = solve_three_zone(examples["CSC"])
    assert out.y2 == pytest.approx(-out.y3 + 0.5, abs=1e-12)


def test_conics_reproduce_eliminated_residuals():
    """Every candidate and its corner swap zero all four matching equations,
    on random generic systems."""
    rng = random.Random(29)
    tuples = 0
    for _ in range(40):
        system = random_generic_three_zone(rng)
        out = solve_three_zone(system)
        if not isinstance(out, UniqueCycleCandidate):
            continue
        for corners in (out, _swap(out)):
            assert max(map(abs, residuals_three_zone(system, *corners))) <= 1e-9
            tuples += 1
    assert tuples >= 10


def test_conics_reproduce_eliminated_residuals_golden(examples):
    for name, system in examples.items():
        out = solve_three_zone(system)
        for corners in (out, _swap(out)):
            assert max(map(abs, residuals_three_zone(system, *corners))) <= 1e-9, name


def _exact_corners(zones: list[dict]) -> list[Decimal]:
    """Corners from exact coefficients: rational sums, P, Q, W and d^2, then
    a 50-digit square root."""
    lf, cf, rf = ({k: Fraction(v) for k, v in zone.items()} for zone in zones)
    s_r = -2 * (rf["a"] + rf["alpha"]) / rf["b"]
    s_l = 2 * (lf["a"] - lf["alpha"]) / lf["b"]
    p = cf["b"] * s_r / 2 + cf["a"] + cf["alpha"]
    q = cf["b"] * s_l / 2 + cf["alpha"] - cf["a"]
    w = (
        4 * cf["beta"] - cf["alpha"] * (s_r - s_l) - cf["a"] * (s_r + s_l)
        - cf["b"] * (s_r * s_r - s_l * s_l) / 4
    )
    d_squared = 4 * w * q * q / (cf["b"] * (q * q - p * p))
    assert p * q > 0 and d_squared > 0

    def decimal(x: Fraction) -> Decimal:
        return Decimal(x.numerator) / Decimal(x.denominator)

    with localcontext() as ctx:
        ctx.prec = 50
        d = decimal(d_squared).sqrt()
        e = d * decimal(p / q)
        return [(decimal(s_r) + d) / 2, (decimal(s_r) - d) / 2,
                (decimal(s_l) - e) / 2, (decimal(s_l) + e) / 2]


@pytest.mark.parametrize(
    "name", [n.lower() for n in FIXTURE_NAMES] + ["scs_grazing"]
)
def test_corners_match_exact_values(name):
    if name == "scs_grazing":
        text = (GOLDEN / "scs_grazing.input.json").read_text(encoding="utf-8")
    else:
        text = fixture_text(name)
    doc = json.loads(text)
    out = solve_three_zone(model.system_from_json_dict(doc))
    assert isinstance(out, UniqueCycleCandidate)
    for got, want in zip(out, _exact_corners(doc["zones"])):
        assert abs(Decimal(got) - want) <= Decimal(1e-14) * max(1, abs(want))


# --- three-zone solve -----------------------------------------------------------


def test_solve_three_zone_golden_tuples(examples):
    for name in ("CCC", "SCS"):
        out = solve_three_zone(examples[name])
        assert isinstance(out, UniqueCycleCandidate)
        assert solve(examples[name]) == out
        for got, want in zip(out, GOLDEN_CORNERS[name]):
            assert got == pytest.approx(want, abs=1e-10)


def test_solve_three_zone_continuous_is_continuum():
    rng = random.Random(37)
    for _ in range(25):
        system = random_continuous_three_zone(rng)
        out = solve_three_zone(system)
        assert isinstance(out, Continuum)
        assert out.parametrization is not None
        for _ in range(100):
            y1 = continuum_parameter(system, rng)
            y0, y2, y3 = out.parametrization(y1)
            r = residuals_three_zone(system, y0, y1, y2, y3)
            assert max(map(abs, r)) <= 1e-9


def test_continuous_family_needs_a_real_radicand():
    # The family's left-line pair solves a quadratic whose radicand is
    # -7.75 at y1 = 0 on this system, and real at y1 = 1.
    system = model.load_system(str(GOLDEN / "continuous.input.json"))
    out = solve(system)
    assert isinstance(out, Continuum)
    assert out.parametrization(1.0) == (-2.5, 1.0, -0.5)
    with pytest.raises(ValueError) as info:
        out.parametrization(0.0)
    assert str(info.value) == "no real companion ordinates at y1 = 0 (radicand -7.75)"


def test_solve_three_zone_continuous_b_zero_has_no_solution():
    rng = random.Random(41)
    for _ in range(10):
        system = random_continuous_three_zone(rng, force_b_zero=True)
        assert isinstance(solve_three_zone(system), NoSolution)


def test_solve_three_zone_degenerate_outer_no_solution():
    # b_R = 0 with a_R + alpha_R = 1: the R-zone matching equation is
    # unsolvable for y1 < y0.
    system = PiecewiseSystem.three_zone(
        F(0.3, 1.2, 0.7, -0.4, 0.9),
        F(0.1, 2.0, -1.5, 0.8, 0.2),
        F(1.0, 0.0, 2.0, 0.0, 0.5),
    )
    out = solve_three_zone(system)
    assert isinstance(out, NoSolution)
    assert "b_R" in out.reason


def test_solve_three_zone_vanishing_outer_equations_continuum():
    # b_R = a_R + alpha_R = 0 and b_L, b_C nonzero.
    system = PiecewiseSystem.three_zone(
        F(0.3, 1.2, 0.7, -0.4, 0.9),
        F(0.1, 2.0, -1.5, 0.8, 0.2),
        F(1.0, 0.0, 2.0, -1.0, 0.5),
    )
    assert isinstance(solve_three_zone(system), Continuum)


def test_solve_three_zone_mixed_combination_branch():
    # b_C = 0, b_L b_R != 0: the mixed combination b_L b_R W / 2 and the
    # signs of P = a_C + alpha_C and Q = alpha_C - a_C decide.
    lf = F(0.5, 1.0, 0.3, 1.1, 0.4)
    cf = F(1.0, 0.0, 0.8, 0.6, 0.0)
    rf = F(-0.2, 1.5, 0.9, 0.7, 0.3)

    def mixed(cf):
        return (
            rf.b * cf.alpha * (lf.a - lf.alpha)
            + cf.a * rf.b * (lf.alpha - lf.a)
            + lf.b * (rf.a + rf.alpha) * (cf.a + cf.alpha)
            + 2.0 * lf.b * rf.b * cf.beta
        )

    def null_mixed(cf):
        return F(cf.a, cf.b, cf.c, cf.alpha, cf.beta - mixed(cf) / (2.0 * lf.b * rf.b))

    assert mixed(cf) != 0.0
    assert isinstance(solve_three_zone(PiecewiseSystem.three_zone(lf, cf, rf)), NoSolution)

    # Nulling the mixed combination leaves P = 1.6 and Q = -0.4: every
    # solution has e = -4 d, so none is ordered.
    cf2 = null_mixed(cf)
    assert mixed(cf2) == pytest.approx(0.0, abs=1e-15)
    out = solve_three_zone(PiecewiseSystem.three_zone(lf, cf2, rf))
    assert isinstance(out, NoSolution)
    assert "orderings" in out.reason

    # With P = 1.3 and Q = 0.9 every pair d = 0.9 t, e = 1.3 t (t > 0)
    # closes: a continuum.
    cf3 = null_mixed(F(0.2, 0.0, 0.8, 1.1, 0.0))
    assert mixed(cf3) == pytest.approx(0.0, abs=1e-15)
    assert isinstance(solve_three_zone(PiecewiseSystem.three_zone(lf, cf3, rf)), Continuum)


def test_solve_three_zone_coincident_conics_continuum():
    # Zero outer sums and a_C = alpha_C = 0 give P = Q = 0: a continuum.
    system = PiecewiseSystem.three_zone(
        F(0.0, 1.0, -1.0, 0.0, 0.0),
        F(0.0, 2.0, -2.0, 0.0, 0.0),
        F(0.0, 3.0, -3.0, 0.0, 0.0),
    )
    out = solve_three_zone(system)
    assert isinstance(out, Continuum)


def test_gap_below_half_an_ulp_is_not_a_candidate():
    # Q = 3e-10 sits just above its dispatch bound, 2e-10, while P is about
    # 5e4.  The exact gap d = 2 |Q| sqrt(W / (b_C (Q^2 - P^2))) is positive
    # but about 3.8e-13, under half an ulp of s_R = -1e5, so in floats
    # y0 == y1: there is no ordered corner tuple to return.
    system = PiecewiseSystem.three_zone(
        F(0.0, 1.0, -1.0, 0.0, 0.0),
        F(1.0 - 3e-10, -1.0, 1.0, 1.0, -625049750.0),
        F(5e4, 1.0, 0.0, 0.0, 0.0),
    )
    s_r, _, p, q, w = map(Fraction, closure._sums_and_gaps(system))
    d_squared = 4 * w * q * q / (-(q * q - p * p))
    assert 0 < d_squared < Fraction(1e-24)
    assert float(s_r) + 3.8e-13 == float(s_r)
    out = solve_three_zone(system)
    assert isinstance(out, NoSolution)
    assert "orderings" in out.reason


def test_conic_solutions_are_swap_partners(examples):
    """The C-arc equations have two solutions, the candidate and its corner
    swap; the swap reverses both orderings."""
    out = solve_three_zone(examples["CCC"])
    swapped = _swap(out)
    assert max(map(abs, residuals_three_zone(examples["CCC"], *swapped))) <= 1e-9
    assert swapped[0] < swapped[1] and swapped[3] < swapped[2]
    solutions = gap_line_solutions(examples["CCC"])
    assert len(solutions) == 2
    for got, want in zip(sorted(solutions), sorted((tuple(out), swapped))):
        assert got == pytest.approx(want, abs=1e-9)


def test_at_most_one_admissible_intersection():
    """Solved along the line P d = Q e from residuals_three_zone alone, at
    most one real solution is ordered, and solve_three_zone returns it."""
    rng = random.Random(43)
    for _ in range(300):
        system = random_generic_three_zone(rng)
        solutions = gap_line_solutions(system)
        if solutions is None:
            continue
        admissible = [c for c in solutions if c[1] < c[0] and c[2] < c[3]]
        assert len(admissible) <= 1
        out = solve_three_zone(system)
        if admissible:
            assert isinstance(out, UniqueCycleCandidate)
            for got, want in zip(out, admissible[0]):
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
        else:
            assert isinstance(out, NoSolution)


def test_unique_candidates_have_tiny_residuals():
    rng = random.Random(47)
    found = 0
    for _ in range(500):
        system = random_generic_three_zone(rng)
        out = solve_three_zone(system)
        if isinstance(out, UniqueCycleCandidate):
            found += 1
            assert out.y1 < out.y0
            assert out.y2 < out.y3
            r = residuals_three_zone(system, *out)
            assert max(map(abs, r)) <= 1e-9
    assert found > 20  # the sample should contain plenty of candidates


# --- brute-force oracle for the reduced system ----------------------------------


def _newton_roots(system, rng, grid=20, span=20.0):
    """Polish a grid of seeds on the reduced residual pair with 2x2 Newton.

    The outer corners come from the R- and L-arc equations written out here:
    b_R (y0 + y1) = -2 (a_R + alpha_R) and b_L (y2 + y3) = 2 (a_L - alpha_L).
    """
    lf, _, rf = system.fields

    def y0_of_y1(y1):
        return -y1 - 2.0 * (rf.a + rf.alpha) / rf.b

    def y2_of_y3(y3):
        return -y3 + 2.0 * (lf.a - lf.alpha) / lf.b

    def residual_pair(y1, y3):
        r = residuals_three_zone(system, y0_of_y1(y1), y1, y2_of_y3(y3), y3)
        return (r[1], r[3])

    roots = []
    eps = 1e-6
    for i in range(grid):
        for j in range(grid):
            y1 = -span + (2.0 * span) * (i + 0.5) / grid
            y3 = -span + (2.0 * span) * (j + 0.5) / grid
            for _ in range(60):
                f1, f2 = residual_pair(y1, y3)
                if abs(f1) < 1e-12 and abs(f2) < 1e-12:
                    break
                a11 = (residual_pair(y1 + eps, y3)[0] - residual_pair(y1 - eps, y3)[0]) / (2 * eps)
                a12 = (residual_pair(y1, y3 + eps)[0] - residual_pair(y1, y3 - eps)[0]) / (2 * eps)
                a21 = (residual_pair(y1 + eps, y3)[1] - residual_pair(y1 - eps, y3)[1]) / (2 * eps)
                a22 = (residual_pair(y1, y3 + eps)[1] - residual_pair(y1, y3 - eps)[1]) / (2 * eps)
                det = a11 * a22 - a12 * a21
                if abs(det) < 1e-14:
                    break
                y1 -= (a22 * f1 - a12 * f2) / det
                y3 -= (-a21 * f1 + a11 * f2) / det
                if abs(y1) > 1e6 or abs(y3) > 1e6:
                    break
            else:
                continue
            f1, f2 = residual_pair(y1, y3)
            if abs(f1) < 1e-10 and abs(f2) < 1e-10:
                if not any(abs(y1 - u) < 1e-6 and abs(y3 - v) < 1e-6 for u, v in roots):
                    roots.append((y1, y3))
    return roots, y0_of_y1, y2_of_y3


def test_solver_agrees_with_grid_plus_polish_oracle():
    rng = random.Random(53)
    checked = 0
    for _ in range(20):
        system = random_generic_three_zone(rng)
        out = solve_three_zone(system)
        if isinstance(out, Continuum):
            continue
        roots, y0_of_y1, y2_of_y3 = _newton_roots(system, rng)
        ordered = [
            (y0_of_y1(y1), y1, y2_of_y3(y3), y3)
            for (y1, y3) in roots
            if y1 < y0_of_y1(y1) and y2_of_y3(y3) < y3
        ]
        if isinstance(out, UniqueCycleCandidate):
            assert len(ordered) == 1
            for got, want in zip(out, ordered[0]):
                assert got == pytest.approx(want, abs=1e-6)
        else:
            assert ordered == []
        checked += 1
    assert checked >= 15


# --- the kept outcome ------------------------------------------------------------


def _count_calls(monkeypatch, module, name) -> list:
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_three_zone_outcome_is_derived_once(examples, monkeypatch):
    classified = _count_calls(monkeypatch, closure, "_classify_three_zone")
    continuity = _count_calls(monkeypatch, closure, "is_continuous")
    system = PiecewiseSystem(examples["CCC"].layout, examples["CCC"].fields)
    outcome = solve_three_zone(system)
    assert isinstance(outcome, UniqueCycleCandidate)
    assert solve_three_zone(system) is outcome
    assert solve(system) is outcome
    # certify on a solved system keeps the outcome and certifies it.
    result = certify(system)
    assert result.outcome is outcome
    assert result.certificate is not None
    assert len(classified) == 1
    # is_continuous is still asked once per call: four calls, one verdict.
    assert len(continuity) == 4
    assert model.is_continuous(system) is model.is_continuous(system)


def test_kept_outcomes_match_fresh_derivations():
    # The systems scripts/random_survey.py draws at --count 2000 --seed 0,
    # solved then certified as the survey does; each kept outcome equals the
    # outcome of a new system built from the same fields.
    script = Path(__file__).resolve().parent.parent / "scripts" / "random_survey.py"
    random_field = runpy.run_path(str(script))["random_field"]
    rng = random.Random(0)
    candidates = 0
    for _ in range(2000):
        system = PiecewiseSystem.three_zone(
            random_field(rng), random_field(rng), random_field(rng)
        )
        if model.is_continuous(system)[0]:
            continue
        outcome = solve_three_zone(system)
        if isinstance(outcome, UniqueCycleCandidate):
            candidates += 1
            assert certify(system, samples_per_arc=8).outcome is outcome
        fresh = PiecewiseSystem(system.layout, system.fields)
        assert solve_three_zone(fresh) == outcome
    assert candidates == 722  # as tests/random_survey_count2000_seed0.txt says


# --- two-zone solve --------------------------------------------------------------


def test_solve_two_zone_never_unique():
    rng = random.Random(59)
    for _ in range(300):
        out = solve_two_zone(random_two_zone(rng))
        assert not isinstance(out, UniqueCycleCandidate)


def test_layout_specific_solvers_reject_the_other_layout(examples):
    two_zone = PiecewiseSystem.two_zone(
        F(0.0, 1.0, -1.0, 0.3, 0.0), F(1.0, 0.0, 1.0, 1.0, 0.0)
    )
    with pytest.raises(ValueError, match="expected a two-zone system"):
        solve_two_zone(examples["CCC"])
    with pytest.raises(ValueError, match="expected a three-zone system"):
        solve_three_zone(two_zone)


def test_solve_two_zone_degenerate_no_solution():
    system = PiecewiseSystem.two_zone(
        F(0.0, 1.0, -1.0, 0.3, 0.0), F(1.0, 0.0, 1.0, 1.0, 0.0)
    )
    out = solve_two_zone(system)
    assert isinstance(out, NoSolution)
    assert solve(system) == out


def test_solve_two_zone_fully_degenerate_continuum():
    system = PiecewiseSystem.two_zone(
        F(1.0, 0.0, 1.0, 0.0, 0.5), F(1.0, 0.0, 1.0, 0.0, -0.5)
    )
    out = solve_two_zone(system)
    assert isinstance(out, Continuum)
    assert out.parametrization is None


def test_solve_two_zone_matched_coefficients_continuum():
    system = PiecewiseSystem.two_zone(
        F(0.0, 1.0, -1.0, 0.0, 0.3), F(0.5, 1.0, -1.0, 0.0, -0.2)
    )
    out = solve_two_zone(system)
    assert isinstance(out, Continuum)
    assert out.parametrization is not None
    rng = random.Random(71)
    for _ in range(100):
        y1 = rng.uniform(-5.0, 5.0)
        (y0,) = out.parametrization(y1)
        assert y0 == pytest.approx(-y1, abs=1e-12)
        assert max(map(abs, residuals_two_zone(system, y0, y1))) <= 1e-9


def test_solve_two_zone_proportional_pairs_continuum():
    # (b, alpha) pairs (1, 2) and (2, 4) pin the same chord sum.
    system = PiecewiseSystem.two_zone(
        F(0.0, 1.0, -1.0, 2.0, 0.0), F(0.0, 2.0, -1.0, 4.0, 0.0)
    )
    out = solve_two_zone(system)
    assert isinstance(out, Continuum)
    (y0,) = out.parametrization(0.5)
    assert max(map(abs, residuals_two_zone(system, y0, 0.5))) <= 1e-9


def test_solve_two_zone_one_sided_continuum():
    # b_R = alpha_R = 0: only the left equation constrains.
    system = PiecewiseSystem.two_zone(
        F(0.0, 2.0, -2.0, 1.0, 0.0), F(1.0, 0.0, 1.0, 0.0, 0.7)
    )
    out = solve_two_zone(system)
    assert isinstance(out, Continuum)
    (y0,) = out.parametrization(0.25)
    assert max(map(abs, residuals_two_zone(system, y0, 0.25))) <= 1e-9


# --- the zero test ----------------------------------------------------------------


@pytest.mark.parametrize("sign", (1.0, -1.0))
def test_dispatch_threshold_is_inclusive(sign):
    # coefficient_scale is 3 (c_L), so b_R counts as zero up to and including
    # DISPATCH_TOL * (1 + 3); one float further out it does not.
    left = F(1.0, 2.0, -3.0, 0.5, 0.25)
    center = F(0.5, 1.0, -2.0, 0.25, 0.5)
    edge = sign * closure.DISPATCH_TOL * 4.0
    beyond = math.nextafter(edge, sign * math.inf)

    def answers(b_r: float) -> tuple[str, str]:
        right = F(1.5, b_r, 1.0, 1.0, 0.0)
        three = PiecewiseSystem.three_zone(left, center, right)
        assert three.coefficient_scale == 3.0
        return (solve(three).reason,
                solve(PiecewiseSystem.two_zone(left, right)).reason)

    assert answers(edge) == (
        "b_R = 0 with a_R + alpha_R != 0",
        "b_R = 0 with alpha_R != 0: R-zone equation is unsolvable",
    )
    assert answers(beyond) == (
        "conic intersections violate the corner orderings y1 < y0, y2 < y3",
        "incompatible chord sums: alpha_L / b_L != alpha_R / b_R",
    )


def test_every_zero_test_goes_through_negligible():
    """closure decides that a value is zero in one place, _negligible: only
    it reads DISPATCH_TOL or compares an abs(...)."""
    with open(closure.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    (hook,) = (node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "_negligible")
    inside = {id(node) for node in ast.walk(hook)}

    def is_abs(node: ast.expr) -> bool:
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "abs")

    tol_reads, abs_compares, calls = [], [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "DISPATCH_TOL":
            if isinstance(node.ctx, ast.Load) and id(node) not in inside:
                tol_reads.append(node.lineno)
        elif isinstance(node, ast.Compare) and id(node) not in inside:
            if any(map(is_abs, [node.left, *node.comparators])):
                abs_compares.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "_negligible"):
            calls.append(len(node.args))
    assert tol_reads == [] and abs_compares == []
    assert calls and set(calls) == {2}  # _negligible(value, scale)
