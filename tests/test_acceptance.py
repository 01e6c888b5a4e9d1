"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

from __future__ import annotations

import json
import math
import random
import time

import pytest

from pwlham.closure import (
    Continuum,
    DISPATCH_TOL,
    UniqueCycleCandidate,
    conic_solutions,
    residuals_three_zone,
    solve_three_zone,
    solve_two_zone,
)
from pwlham.cycle import find_limit_cycle
from pwlham.flow import (
    NeverReaches,
    TangentialContact,
    flight_time,
    flow_closed_form,
    orbit_samples,
    refine_flight_time,
)
from pwlham.model import (
    PiecewiseSystem,
    classify_singularity,
    hamiltonian_value,
    is_continuous,
)
from pwlham.poincare import first_return, fixed_point_near
from pwlham.cli import fixture_text, main

from conftest import (
    CCC_PRODUCTS,
    CCC_TIMES,
    GOLDEN_CORNERS,
    random_continuous_three_zone,
    random_continuous_two_zone,
    random_field,
    random_three_zone,
    random_two_zone,
    continuum_parameter,
)

GOLDEN_TOL = 1e-10
PRODUCT_TOL = 1e-3
ORACLE_TOL = 1e-6
HYGIENE_TOL = 1e-9
FLIGHT_AGREEMENT_TOL = 1e-10


def _report(criterion: int, text: str) -> None:
    print(f"\n[PASS] criterion {criterion}: {text}")


def test_criterion_1_golden_corner_points(examples):
    worst = 0.0
    slowest = 0.0
    for name, system in examples.items():
        best = math.inf
        outcome = None
        for _ in range(5):
            t0 = time.perf_counter()
            outcome = solve_three_zone(system)
            best = min(best, time.perf_counter() - t0)
        assert isinstance(outcome, UniqueCycleCandidate), name
        for got, want in zip(outcome, GOLDEN_CORNERS[name]):
            worst = max(worst, abs(got - want))
            assert abs(got - want) <= GOLDEN_TOL, (name, got, want)
        slowest = max(slowest, best)
        assert best < 1e-3, f"{name}: solve took {best * 1e3:.3f} ms"
    _report(1, f"six golden corner tuples within {GOLDEN_TOL:g} "
               f"(worst {worst:.2e}), slowest solve {slowest * 1e6:.0f} us")


def test_criterion_2_transversality_products(ccc):
    cert = find_limit_cycle(ccc)
    assert cert is not None
    worst = 0.0
    for key, cls in zip(("y0", "y1", "y2", "y3"), cert.crossings):
        gap = abs(cls.product - CCC_PRODUCTS[key])
        worst = max(worst, gap)
        assert gap <= PRODUCT_TOL, (key, cls.product)
    _report(2, f"four crossing products match the published values within "
               f"{PRODUCT_TOL:g} (worst {worst:.2e})")


def test_criterion_3_flight_times(examples):
    cert = find_limit_cycle(examples["CCC"])
    assert abs(cert.flight_times[0] - CCC_TIMES["t_R"]) <= GOLDEN_TOL
    assert abs(cert.flight_times[2] - CCC_TIMES["t_L"]) <= GOLDEN_TOL

    worst_gap = 0.0
    for name, system in examples.items():
        c = find_limit_cycle(system)
        assert c is not None, name
        assert min(c.flight_times) > 0.0, name
        _, t_return = first_return(system, c.corners[0][1], tol=1e-9)
        gap = abs(t_return - c.period)
        worst_gap = max(worst_gap, gap)
        assert gap <= ORACLE_TOL, (name, gap)
    _report(3, f"closed-form times match published forms within {GOLDEN_TOL:g}; "
               f"all times positive; period vs numeric return time within "
               f"{ORACLE_TOL:g} (worst {worst_gap:.2e})")


def test_criterion_4_oracle_fixed_points(examples):
    worst = 0.0
    slowest = 0.0
    for name, system in examples.items():
        y0 = GOLDEN_CORNERS[name][0]
        t0 = time.perf_counter()
        got = fixed_point_near(system, y0, tol=1e-9).y
        elapsed = time.perf_counter() - t0
        gap = abs(got - y0)
        worst = max(worst, gap)
        slowest = max(slowest, elapsed)
        assert gap <= ORACLE_TOL, (name, gap)
        assert elapsed < 1.0, (name, elapsed)
    _report(4, f"numeric fixed points within {ORACLE_TOL:g} of analytic "
               f"ordinates (worst {worst:.2e}), slowest run {slowest:.2f} s")


def test_criterion_5_nonexistence_property_suites():
    rng = random.Random(2024)

    # Continuous two-zone systems never isolate a periodic orbit.
    for i in range(1000):
        system = random_continuous_two_zone(rng, force_b_zero=(i % 10 == 9))
        assert is_continuous(system)[0]
        assert not isinstance(solve_two_zone(system), UniqueCycleCandidate)

    # Continuous three-zone systems never isolate one either, and the
    # explicit family solves all four matching equations.
    family_checks = 0
    for i in range(1000):
        system = random_continuous_three_zone(rng, force_b_zero=(i % 20 == 19))
        assert is_continuous(system)[0]
        outcome = solve_three_zone(system)
        assert not isinstance(outcome, UniqueCycleCandidate)
        if isinstance(outcome, Continuum) and outcome.parametrization:
            for _ in range(100):
                y1 = continuum_parameter(system, rng)
                y0, y2, y3 = outcome.parametrization(y1)
                r = residuals_three_zone(system, y0, y1, y2, y3)
                assert max(map(abs, r)) <= HYGIENE_TOL
                family_checks += 1
    assert family_checks >= 90_000

    # Discontinuous two-zone systems: no isolated periodic orbits.
    for i in range(1000):
        if i % 5 == 4:
            # exercise the degenerate-b branches too
            left = random_field(rng, b=0.0 if i % 2 else None)
            right = random_field(rng, b=0.0 if i % 2 == 0 else None)
            system = PiecewiseSystem.two_zone(left, right)
        else:
            system = random_two_zone(rng)
        if is_continuous(system)[0]:
            continue
        assert not isinstance(solve_two_zone(system), UniqueCycleCandidate)

    _report(5, "3 x 1000 random systems produced zero isolated candidates; "
               f"{family_checks} family residual checks at 1e-9")


def test_criterion_6_at_most_one_and_swap_symmetry():
    rng = random.Random(4096)
    algebraic_solutions = 0
    for _ in range(10_000):
        system = random_three_zone(rng)
        if is_continuous(system)[0]:
            continue
        outcome = solve_three_zone(system)
        lf, cf, rf = system.fields
        tol_scale = DISPATCH_TOL * (1.0 + system.coefficient_scale)
        generic = min(abs(lf.b), abs(cf.b), abs(rf.b)) > tol_scale
        if not generic:
            continue
        corners = conic_solutions(lf, cf, rf)
        if corners is None:
            assert isinstance(outcome, Continuum)
            continue
        ordered = 0
        for y0, y1, y2, y3 in corners:
            r = residuals_three_zone(system, y0, y1, y2, y3)
            scale = 1.0 + max(abs(v) for v in (y0, y1, y2, y3)) ** 2
            assert max(map(abs, r)) <= 1e-7 * scale
            swapped = residuals_three_zone(system, y1, y0, y3, y2)
            assert max(map(abs, swapped)) <= 1e-7 * scale
            algebraic_solutions += 1
            if y1 < y0 and y2 < y3:
                ordered += 1
        assert ordered <= 1
        if ordered == 1:
            assert isinstance(outcome, UniqueCycleCandidate)
    assert algebraic_solutions > 5000
    _report(6, "10000 random discontinuous systems: never two ordered "
               f"solutions; swap symmetry held at {algebraic_solutions} "
               "algebraic solutions")


def test_criterion_7_numerical_hygiene(examples):
    rng = random.Random(8192)

    # Energy conservation along every certified arc.
    for name, system in examples.items():
        cert = find_limit_cycle(system)
        lf, cf, rf = system.fields
        for field, start, t in zip(
            (rf, cf, lf, cf), cert.corners, cert.flight_times
        ):
            h0 = hamiltonian_value(field, start)
            for p in orbit_samples(field, start, t, 64):
                drift = abs(hamiltonian_value(field, p) - h0)
                assert drift <= HYGIENE_TOL * (1.0 + abs(h0)), name

    # ... and along random closed-form flows.
    for _ in range(1000):
        field = random_field(rng)
        p = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        t = rng.uniform(0.0, 2.0) / classify_singularity(field).modulus
        h0 = hamiltonian_value(field, p)
        h1 = hamiltonian_value(field, flow_closed_form(field, p, t))
        assert abs(h1 - h0) <= HYGIENE_TOL * (1.0 + abs(h0))

    # Flow group property.
    for _ in range(1000):
        field = random_field(rng)
        m = classify_singularity(field).modulus
        p = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        t1, t2 = rng.uniform(0, 1.5) / m, rng.uniform(0, 1.5) / m
        one = flow_closed_form(field, p, t1 + t2)
        two = flow_closed_form(field, flow_closed_form(field, p, t1), t2)
        assert abs(one[0] - two[0]) <= HYGIENE_TOL * (1 + abs(one[0]))
        assert abs(one[1] - two[1]) <= HYGIENE_TOL * (1 + abs(one[1]))

    # Closed-form flight times vs their bracketed Newton refinement.
    reachable = 0
    worst = 0.0
    while reachable < 1000:
        field = random_field(rng)
        p0 = (rng.choice((-1.0, 0.0, 1.0)), rng.uniform(-3, 3))
        target = rng.choice((-1.0, 0.0, 1.0))
        try:
            t = flight_time(field, p0, target)
        except (NeverReaches, TangentialContact):
            continue
        gap = abs(t - refine_flight_time(field, p0, target, t))
        worst = max(worst, gap)
        assert gap <= FLIGHT_AGREEMENT_TOL
        reachable += 1
    _report(7, "energy conservation <= 1e-9 relative on all arcs and 1000 "
               "random flows; group property <= 1e-9 on 1000 cases; 1000 "
               f"flight times agree with refinement (worst {worst:.2e})")


def test_criterion_8_cli_end_to_end(tmp_path):
    from pwlham.cli import FIXTURE_NAMES

    for name in FIXTURE_NAMES:
        source = tmp_path / f"{name.lower()}.json"
        source.write_text(fixture_text(name), encoding="utf-8")
        solve_out = tmp_path / f"{name}_solve.json"
        cycle_out = tmp_path / f"{name}_cycle.json"
        oracle_out = tmp_path / f"{name}_oracle.json"
        svg_a = tmp_path / f"{name}_a.svg"
        svg_b = tmp_path / f"{name}_b.svg"
        assert main(["solve", "--input", str(source),
                     "--output", str(solve_out)]) == 0, name
        assert main(["cycle", "--input", str(source),
                     "--output", str(cycle_out)]) == 0, name
        assert main(["oracle", "--input", str(source),
                     "--output", str(oracle_out)]) == 0, name
        assert main(["plot", "--input", str(source),
                     "--output", str(svg_a)]) == 0, name
        assert main(["plot", "--input", str(source),
                     "--output", str(svg_b)]) == 0, name
        assert svg_a.read_bytes() == svg_b.read_bytes(), name
        assert json.loads(cycle_out.read_text())["limit_cycle"] is True
        assert json.loads(oracle_out.read_text())["agrees"] is True
    _report(8, "all six fixtures ran solve, cycle, oracle and plot with "
               "exit 0 and byte-identical SVG output")
