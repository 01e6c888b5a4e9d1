"""Shared fixtures: the six bundled systems, their exact corner tuples, and
random-system generators used by the property suites."""

from __future__ import annotations

import math
import random

import pytest

from pwlham.cli import bundle_examples
from pwlham.closure import _sums_and_gaps, residuals_three_zone
from pwlham.cycle import ARC_ZONES
from pwlham.model import LinearHamiltonianField, PiecewiseSystem

# Exact corner ordinates (y0, y1, y2, y3) of the six bundled systems,
# evaluated from their closed radical forms.
_SQ_CCC = math.sqrt(1259.0 / 235.0)
_SQ_SCC = math.sqrt(5.0)
_SQ_SCS = math.sqrt(2.0 / 7.0)
_SQ_CSC = math.sqrt(7.0 / 3.0)
_SQ_SSS = math.sqrt(26.0)
_SQ_SSC = math.sqrt(43.0 / 470.0)

GOLDEN_CORNERS: dict[str, tuple[float, float, float, float]] = {
    "CCC": (
        31.0 / 48.0 * _SQ_CCC,
        -31.0 / 48.0 * _SQ_CCC,
        5.0 / 16.0 - _SQ_CCC / 3.0,
        5.0 / 16.0 + _SQ_CCC / 3.0,
    ),
    "SCC": (
        2.0 * _SQ_SCC / 3.0,
        -2.0 * _SQ_SCC / 3.0,
        (1.0 - _SQ_SCC) / 3.0,
        (1.0 + _SQ_SCC) / 3.0,
    ),
    "SCS": (
        18.0 / 5.0 * _SQ_SCS,
        -18.0 / 5.0 * _SQ_SCS,
        2.0 / 5.0 - 2.0 * _SQ_SCS,
        2.0 / 5.0 + 2.0 * _SQ_SCS,
    ),
    "CSC": (
        5.0 / 12.0 * _SQ_CSC,
        -5.0 / 12.0 * _SQ_CSC,
        0.25 - 7.0 * math.sqrt(21.0) / 36.0,
        0.25 + 7.0 * math.sqrt(21.0) / 36.0,
    ),
    "SSS": (
        (43.0 * _SQ_SSS - 12.0) / 240.0,
        -(43.0 * _SQ_SSS + 12.0) / 240.0,
        -3.0 / 8.0 * math.sqrt(13.0 / 2.0),
        3.0 / 8.0 * math.sqrt(13.0 / 2.0),
    ),
    "SSC": (
        43.0 / 24.0 * _SQ_SSC - 0.1,
        -43.0 / 24.0 * _SQ_SSC - 0.1,
        -17.0 / 8.0 * _SQ_SSC,
        17.0 / 8.0 * _SQ_SSC,
    ),
}

# Published 4-decimal transversality products of the CCC system, keyed by
# corner (products of the one-sided x-velocities at each corner).
CCC_PRODUCTS = {"y0": 10.9315, "y1": 6.9452, "y2": 1.5518, "y3": 17.4969}

# Closed-form arc times of the CCC system.
_SQ295865 = math.sqrt(295865.0)
CCC_TIMES = {
    "t_R": 0.5 * math.atan(20832.0 * _SQ295865 / 25320661.0),
    "t_C1": math.pi / 2.0 - 0.5 * math.atan(96.0 * (10810.0 + _SQ295865) / 496001.0),
    "t_L": 0.5 * math.atan(12.0 * _SQ295865 / 7201.0),
    "t_C2": -0.5 * math.atan(96.0 * (_SQ295865 - 10810.0) / 496001.0),
}

# (fixture name, arc index) of each cycle arc that runs through a centre zone
# of a bundled system, twelve in all: one revolution later such an arc is back
# on the same corner with the same energy.
CENTRE_ARCS = [
    (name, arc)
    for name, system in bundle_examples()
    for arc, zone in enumerate(ARC_ZONES)
    if system.field(zone).singularity.kind == "center"
]


@pytest.fixture(scope="session")
def examples() -> dict[str, PiecewiseSystem]:
    return dict(bundle_examples())


@pytest.fixture(scope="session")
def ccc(examples) -> PiecewiseSystem:
    return examples["CCC"]


def vector_field_value(field: LinearHamiltonianField, p) -> tuple[float, float]:
    """Reference field value (a*x + b*y + alpha, c*x - a*y + beta) at p."""
    x, y = p
    return (
        field.a * x + field.b * y + field.alpha,
        field.c * x - field.a * y + field.beta,
    )


# --- random system generators -------------------------------------------------

MIN_DETERMINANT = 0.1  # keep random fields comfortably nondegenerate


def random_field(rng: random.Random, b: float | None = None) -> LinearHamiltonianField:
    """A random nondegenerate field with coefficients in [-3, 3]."""
    while True:
        a = rng.uniform(-3.0, 3.0)
        bb = rng.uniform(-3.0, 3.0) if b is None else b
        c = rng.uniform(-3.0, 3.0)
        if abs(a * a + bb * c) >= MIN_DETERMINANT:
            return LinearHamiltonianField(
                a, bb, c, rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
            )


def random_two_zone(rng: random.Random) -> PiecewiseSystem:
    return PiecewiseSystem.two_zone(random_field(rng), random_field(rng))


def random_three_zone(rng: random.Random) -> PiecewiseSystem:
    return PiecewiseSystem.three_zone(
        random_field(rng), random_field(rng), random_field(rng)
    )


def random_generic_three_zone(rng: random.Random) -> PiecewiseSystem:
    """Random discontinuous three-zone system with all b's bounded away from 0."""
    while True:
        fields = []
        for _ in range(3):
            sign = rng.choice((-1.0, 1.0))
            fields.append(random_field(rng, b=sign * rng.uniform(0.3, 3.0)))
        system = PiecewiseSystem.three_zone(*fields)
        from pwlham.model import is_continuous

        if not is_continuous(system)[0]:
            return system


def random_continuous_two_zone(
    rng: random.Random, force_b_zero: bool = False
) -> PiecewiseSystem:
    """Both zones share a, b, alpha, beta; c may differ freely."""
    while True:
        a = rng.uniform(-3.0, 3.0)
        b = 0.0 if force_b_zero else rng.uniform(-3.0, 3.0)
        alpha = rng.uniform(-3.0, 3.0)
        beta = rng.uniform(-3.0, 3.0)
        c_l = rng.uniform(-3.0, 3.0)
        c_r = rng.uniform(-3.0, 3.0)
        if (
            abs(a * a + b * c_l) >= MIN_DETERMINANT
            and abs(a * a + b * c_r) >= MIN_DETERMINANT
        ):
            return PiecewiseSystem.two_zone(
                LinearHamiltonianField(a, b, c_l, alpha, beta),
                LinearHamiltonianField(a, b, c_r, alpha, beta),
            )


def random_continuous_three_zone(
    rng: random.Random, force_b_zero: bool = False
) -> PiecewiseSystem:
    """Shared a, b, alpha; the beta's absorb the c jumps across the lines."""
    while True:
        a = rng.uniform(-3.0, 3.0)
        b = 0.0 if force_b_zero else rng.uniform(-3.0, 3.0)
        alpha = rng.uniform(-3.0, 3.0)
        c_l = rng.uniform(-3.0, 3.0)
        c_c = rng.uniform(-3.0, 3.0)
        c_r = rng.uniform(-3.0, 3.0)
        beta_c = rng.uniform(-3.0, 3.0)
        beta_r = beta_c + c_c - c_r
        beta_l = beta_c + c_l - c_c
        if all(
            abs(a * a + b * c) >= MIN_DETERMINANT for c in (c_l, c_c, c_r)
        ):
            return PiecewiseSystem.three_zone(
                LinearHamiltonianField(a, b, c_l, alpha, beta_l),
                LinearHamiltonianField(a, b, c_c, alpha, beta_c),
                LinearHamiltonianField(a, b, c_r, alpha, beta_r),
            )


def continuum_parameter(system: PiecewiseSystem, rng: random.Random) -> float:
    """A y1 value inside the real domain of the continuous-system family.

    The family's radicand is (b*y1 + a + alpha)^2 - 4*(a*alpha + b*beta_C),
    so push |b*y1 + a + alpha| above the threshold.
    """
    cf = system.fields[1]
    a, b, alpha, beta_c = cf.a, cf.b, cf.alpha, cf.beta
    threshold_sq = 4.0 * (a * alpha + b * beta_c)
    threshold = math.sqrt(threshold_sq) if threshold_sq > 0.0 else 0.0
    u = rng.choice((-1.0, 1.0)) * (threshold + rng.uniform(1e-3, 5.0))
    return (u - a - alpha) / b


# --- the closure equations in corner sums and gaps ------------------------------


def gap_line_solutions(system: PiecewiseSystem):
    """Every real corner tuple with the outer sums on the line P d = Q e.

    Along the line the upper C-arc residual of residuals_three_zone is a
    quadratic in d; it is sampled at d = -1, 0, 1 and solved.  None when Q
    or that quadratic vanishes (the line is lost or lies on the conic).
    """
    s_r, s_l, p, q, _ = _sums_and_gaps(system)
    if abs(q) <= 1e-9 * (1.0 + abs(p)):
        return None

    def corners(d: float) -> tuple[float, float, float, float]:
        e = p * d / q
        return (0.5 * (s_r + d), 0.5 * (s_r - d), 0.5 * (s_l - e), 0.5 * (s_l + e))

    def upper(d: float) -> float:
        return residuals_three_zone(system, *corners(d))[1]

    c0, plus, minus = upper(0.0), upper(1.0), upper(-1.0)
    c2, c1 = 0.5 * (plus + minus) - c0, 0.5 * (plus - minus)
    if abs(c2) <= 1e-9 * (abs(c0) + abs(c1) + abs(c2)):
        return None
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        return []
    root = math.sqrt(disc)
    return [corners((-c1 + sign * root) / (2.0 * c2)) for sign in (1.0, -1.0)]
