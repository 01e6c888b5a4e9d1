"""Closure residuals, eliminations, conic reduction and the case analysis."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from pwlham.closure import (
    Continuum,
    NoSolution,
    UniqueCycleCandidate,
    conic_solutions,
    residuals_three_zone,
    residuals_two_zone,
    solve,
    solve_three_zone,
    solve_two_zone,
)
from pwlham.model import (
    LinearHamiltonianField,
    PiecewiseSystem,
    hamiltonian_value,
)

from conftest import (
    GOLDEN_CORNERS,
    continuum_parameter,
    random_continuous_three_zone,
    random_generic_three_zone,
    random_three_zone,
    random_two_zone,
)

F = LinearHamiltonianField
ordinate = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def saddle_like(a: float, b: float, alpha: float = 0.0, beta: float = 0.0) -> F:
    """Field with prescribed (a, b, alpha, beta); c chosen to stay nondegenerate."""
    c = 1.0 if abs(a) < 0.5 else 0.0
    return F(a, b, c, alpha, beta)


# --- residuals -----------------------------------------------------------------


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


# --- corner tuples of the reduced conics ----------------------------------------


def test_outer_corners_pure_reflection():
    # a_R + alpha_R = 0 pins the R-arc corners to y0 = -y1.
    system = PiecewiseSystem.three_zone(
        F(0.0, 1.0, -1.0, 0.5, 0.0), F(0.0, 2.0, -2.0, 0.0, 0.0), F(0.5, 1.0, -1.0, -0.5, 0.0)
    )
    corners = conic_solutions(*system.fields)
    assert len(corners) == 2
    for y0, y1, _, _ in corners:
        assert y0 == pytest.approx(-y1, abs=1e-15)


def test_outer_corners_golden(examples):
    corners = conic_solutions(*examples["CCC"].fields)
    assert len(corners) == 2
    for y0, y1, _, _ in corners:
        assert y0 == pytest.approx(-y1, abs=1e-12)
    corners = conic_solutions(*examples["CSC"].fields)
    assert len(corners) == 2
    for _, _, y2, y3 in corners:
        assert y2 == pytest.approx(-y3 + 0.5, abs=1e-12)


def test_conics_reproduce_eliminated_residuals():
    """Every corner tuple of the reduced conics zeroes all four matching
    equations, on random generic systems."""
    rng = random.Random(29)
    tuples = 0
    for _ in range(20):
        system = random_generic_three_zone(rng)
        for corners in conic_solutions(*system.fields) or ():
            assert max(map(abs, residuals_three_zone(system, *corners))) <= 1e-9
            tuples += 1
    assert tuples >= 10


def test_conics_reproduce_eliminated_residuals_golden(examples):
    for name, system in examples.items():
        corners = conic_solutions(*system.fields)
        assert len(corners) == 2, name
        for tuple_ in corners:
            assert max(map(abs, residuals_three_zone(system, *tuple_))) <= 1e-9, name


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
    # b_C = 0, b_L b_R != 0: the mixed combination decides.
    lf = F(0.5, 1.0, 0.3, 1.1, 0.4)
    cf = F(1.0, 0.0, 0.8, 0.6, 0.0)
    rf = F(-0.2, 1.5, 0.9, 0.7, 0.3)
    mixed = (
        rf.b * cf.alpha * (lf.a - lf.alpha)
        + cf.a * rf.b * (lf.alpha - lf.a)
        + lf.b * (rf.a + rf.alpha) * (cf.a + cf.alpha)
        + 2.0 * lf.b * rf.b * cf.beta
    )
    assert mixed != 0.0
    assert isinstance(solve_three_zone(PiecewiseSystem.three_zone(lf, cf, rf)), NoSolution)

    # Choose beta_C to null the mixed combination: infinitely many solutions.
    beta_c = -(
        rf.b * cf.alpha * (lf.a - lf.alpha)
        + cf.a * rf.b * (lf.alpha - lf.a)
        + lf.b * (rf.a + rf.alpha) * (cf.a + cf.alpha)
    ) / (2.0 * lf.b * rf.b)
    cf2 = F(cf.a, cf.b, cf.c, cf.alpha, beta_c)
    assert isinstance(solve_three_zone(PiecewiseSystem.three_zone(lf, cf2, rf)), Continuum)


def test_solve_three_zone_coincident_conics_continuum():
    # Symmetric centers: A = D = B = E = 0 forces the continuum branch.
    system = PiecewiseSystem.three_zone(
        F(0.0, 1.0, -1.0, 0.0, 0.0),
        F(0.0, 2.0, -2.0, 0.0, 0.0),
        F(0.0, 3.0, -3.0, 0.0, 0.0),
    )
    out = solve_three_zone(system)
    assert isinstance(out, Continuum)


def test_conic_solutions_are_swap_partners(examples):
    """The two intersection points map to a solution and its corner swap."""
    corners = conic_solutions(*examples["CCC"].fields)
    assert corners is not None and len(corners) == 2
    a, b = corners
    assert a[0] == pytest.approx(b[1], abs=1e-9)
    assert a[1] == pytest.approx(b[0], abs=1e-9)
    assert a[2] == pytest.approx(b[3], abs=1e-9)
    assert a[3] == pytest.approx(b[2], abs=1e-9)


def test_at_most_one_admissible_intersection():
    rng = random.Random(43)
    for _ in range(300):
        system = random_generic_three_zone(rng)
        corners = conic_solutions(*system.fields)
        if corners is None:
            continue
        admissible = [c for c in corners if c[1] < c[0] and c[2] < c[3]]
        assert len(admissible) <= 1
        out = solve_three_zone(system)
        if admissible:
            assert isinstance(out, UniqueCycleCandidate)
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


# --- two-zone solve --------------------------------------------------------------


def test_solve_two_zone_never_unique():
    rng = random.Random(59)
    for _ in range(300):
        out = solve_two_zone(random_two_zone(rng))
        assert not isinstance(out, UniqueCycleCandidate)


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
