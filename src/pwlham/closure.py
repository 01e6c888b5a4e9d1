"""Periodic-orbit closure equations and their exhaustive case analysis.

A periodic orbit meets the switching lines at corner ordinates whose zone
energies must match, because each zone's Hamiltonian is constant along its
arc.  For two zones the corners are (0, y0), (0, y1) with y1 < y0; for three
zones they are (1, y0), (1, y1) on the right line (y1 < y0) and (-1, y2),
(-1, y3) on the left line (y2 < y3), traversed R-arc, C-arc, L-arc, C-arc.

Each outer arc's equation is its corner gap times an affine function of its
corner sum, so with b_R b_L != 0 the orderings pin the corner sums

    s_R = y0 + y1 = -2 (a_R + alpha_R) / b_R,
    s_L = y2 + y3 = 2 (a_L - alpha_L) / b_L,

and leave the gaps d = y0 - y1 > 0 and e = y3 - y2 > 0.  The sum and the
difference of the two C-arc equations are exactly

    P d = Q e    and    b_C (d^2 - e^2) = 4 W,

with P = b_C s_R / 2 + a_C + alpha_C, Q = b_C s_L / 2 + alpha_C - a_C and
W = 4 beta_C - alpha_C (s_R - s_L) - a_C (s_R + s_L) - b_C (s_R^2 - s_L^2) / 4.
Unless P = Q = 0 or the line lies on the conic (both give a continuum or
nothing), the line through the origin meets the conic in at most one pair
+-(d, e), d^2 = 4 W Q^2 / (b_C (Q^2 - P^2)), and only one member of the pair
has positive gaps.  So the system has no admissible solution, a unique
candidate, or a continuum, never two isolated candidates; and the decisive
signs, of P Q and of d^2, are rational in the coefficients.  A vanishing
outer b and continuous systems are enumerated explicitly below.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .model import LinearHamiltonianField, PiecewiseSystem, is_continuous

# Every zero test of the case analysis is _negligible(value, scale): a value
# counts as zero when its magnitude is at most DISPATCH_TOL times the summed
# magnitude of the terms it is made of, 1 + coefficient_scale for a
# coefficient or a combination of coefficients.
DISPATCH_TOL = 1e-10


def _negligible(value: float, scale: float) -> bool:
    return abs(value) <= DISPATCH_TOL * scale


class NoSolution(NamedTuple):
    """The closure equations admit no ordered corner tuple."""

    reason: str


class UniqueCycleCandidate(NamedTuple):
    """The single ordered corner tuple solving the closure equations."""

    y0: float
    y1: float
    y2: float
    y3: float


class Continuum(NamedTuple):
    """A non-isolated family of periodic-orbit candidates.

    ``parametrization`` maps y1 to the companion ordinates ((y0,) for two
    zones, (y0, y2, y3) for three) where an explicit family is available;
    branches established only by a dimension count carry None.
    """

    description: str
    parametrization: Callable[[float], tuple[float, ...]] | None = None


ClosureOutcome = NoSolution | UniqueCycleCandidate | Continuum


def residuals_three_zone(
    system: PiecewiseSystem, y0: float, y1: float, y2: float, y3: float
) -> tuple[float, float, float, float]:
    """Energy mismatches of the four arcs R, C-upper, L, C-lower in order."""
    lf, cf, rf = system.fields
    return (
        0.5 * (y1 - y0) * (rf.b * (y0 + y1) + 2.0 * (rf.a + rf.alpha)),
        0.5 * (y0 - y3) * (cf.b * (y0 + y3) + 2.0 * cf.alpha)
        - 2.0 * cf.beta
        + cf.a * (y0 + y3),
        0.5 * (y3 - y2) * (lf.b * (y2 + y3) - 2.0 * (lf.a - lf.alpha)),
        0.5 * (y2 - y1) * (cf.b * (y1 + y2) + 2.0 * cf.alpha)
        + 2.0 * cf.beta
        - cf.a * (y1 + y2),
    )


def solve(system: PiecewiseSystem) -> ClosureOutcome:
    """Classify the closure equations of a two- or three-zone system."""
    if system.layout.n_zones == 2:
        return solve_two_zone(system)
    return solve_three_zone(system)


def solve_two_zone(system: PiecewiseSystem) -> ClosureOutcome:
    """Classify the two-zone closure equations; never a unique candidate.

    Both matching equations share the factor (y0 - y1), so with y1 < y0 each
    reduces to an affine condition on y0 + y1.  The two conditions are either
    inconsistent (no solution) or compatible, in which case a full line of
    (y0, y1) pairs solves the system (a continuum).  An isolated periodic
    orbit is therefore impossible.
    """
    if system.layout.n_zones != 2:
        raise ValueError("expected a two-zone system")
    lf, rf = system.fields
    scale = 1.0 + system.coefficient_scale
    b_l_zero = _negligible(lf.b, scale)
    b_r_zero = _negligible(rf.b, scale)

    if b_r_zero and not _negligible(rf.alpha, scale):
        return NoSolution("b_R = 0 with alpha_R != 0: R-zone equation is unsolvable")
    if b_l_zero and not _negligible(lf.alpha, scale):
        return NoSolution("b_L = 0 with alpha_L != 0: L-zone equation is unsolvable")
    if b_r_zero and b_l_zero:
        return Continuum(
            "both matching equations vanish identically: every ordered pair "
            "(y0, y1) closes"
        )
    if b_r_zero or b_l_zero:
        f = lf if b_r_zero else rf
        side = "L" if b_r_zero else "R"
        return Continuum(
            f"only the {side}-zone equation constrains the pair: "
            "y0 + y1 is pinned, y1 free",
            _chord_family(f.b, f.alpha),
        )

    # Both b nonzero: the two conditions pin y0 + y1 to -2 alpha / b on each
    # side; they are compatible exactly when the (b, alpha) pairs are
    # proportional.  Compare via the ratios alpha / b, parametrize with the
    # better-conditioned (larger |b|) pair.
    ratio_l = lf.alpha / lf.b
    ratio_r = rf.alpha / rf.b
    if not _negligible(ratio_l - ratio_r,
                       1.0 + max(abs(ratio_l), abs(ratio_r))):
        return NoSolution(
            "incompatible chord sums: alpha_L / b_L != alpha_R / b_R"
        )
    f = max(lf, rf, key=lambda field: abs(field.b))
    return Continuum(
        "compatible chord sums: y0 = -(b y1 + 2 alpha) / b with y1 free",
        _chord_family(f.b, f.alpha),
    )


def _chord_family(b: float, alpha: float) -> Callable[[float], tuple[float]]:
    def family(y1: float) -> tuple[float]:
        return ((-b * y1 - 2.0 * alpha) / b,)

    return family


def solve_three_zone(system: PiecewiseSystem) -> ClosureOutcome:
    """Exhaustive classification of the three-zone closure equations.

    Continuous systems never support an isolated solution: with b != 0 the
    full system is solved by an explicit one-parameter family, and with
    b = 0 the ordered system is unsolvable.  Discontinuous systems dispatch
    on which of b_L, b_R (and the paired affine combinations) vanish; when
    neither does, the corner sums and gaps decide (see the module docstring).

    The continuity flag is model.is_continuous's.  Every zero test is
    _negligible(value, scale), |value| <= DISPATCH_TOL * scale, with scale
    1 + coefficient_scale for a coefficient or a combination of coefficients
    and the summed magnitude of the terms of P, Q, W or Q^2 - P^2.  The
    outcome is derived at the first call and kept on the system; every later
    call returns that same object.  Every call still asks is_continuous (a
    lookup once its verdict is kept): perfbench's survey counts those calls.
    """
    if system.layout.n_zones != 3:
        raise ValueError("expected a three-zone system")
    continuous = is_continuous(system)[0]
    if system._closure is None:
        system._closure = _classify_three_zone(system, continuous)
    return system._closure


def _classify_three_zone(
    system: PiecewiseSystem, continuous: bool
) -> ClosureOutcome:
    """solve_three_zone's case analysis, given the continuity flag."""
    lf, cf, rf = system.fields
    scale = 1.0 + system.coefficient_scale

    if continuous:
        if _negligible(cf.b, scale):
            return NoSolution(
                "continuous with b = 0: the ordered matching equations are "
                "unsolvable"
            )
        return Continuum(
            "continuous with b != 0: explicit one-parameter family of "
            "closed orbits",
            _continuous_family(cf),
        )

    b_r_zero = _negligible(rf.b, scale)
    b_l_zero = _negligible(lf.b, scale)
    b_c_zero = _negligible(cf.b, scale)
    # Each paired combination is tested only where its b vanishes, the one
    # place it is read.
    g_c_zero = b_c_zero and _negligible(cf.alpha - cf.a, scale)

    if b_r_zero and not _negligible(rf.a + rf.alpha, scale):
        return NoSolution("b_R = 0 with a_R + alpha_R != 0")
    if b_l_zero and not _negligible(lf.a - lf.alpha, scale):
        return NoSolution("b_L = 0 with a_L - alpha_L != 0")

    if b_r_zero and b_l_zero:
        if b_c_zero:
            if g_c_zero:
                return NoSolution(
                    "all of b_R, a_R + alpha_R, b_L, a_L - alpha_L, b_C, "
                    "alpha_C - a_C vanish: corners collapse"
                )
            return Continuum(
                "outer equations vanish, degenerate inner equations leave "
                "free ordinates"
            )
        return Continuum("outer equations vanish identically, b_C != 0")

    if b_r_zero or b_l_zero:  # one outer equation vanishes, the other b != 0
        side, other, g = ("R", "L", "a_R + alpha_R")
        if b_l_zero:
            side, other, g = ("L", "R", "a_L - alpha_L")
        if b_c_zero:
            if g_c_zero:
                return NoSolution(
                    f"b_{side} = {g} = b_C = alpha_C - a_C = 0 with "
                    f"b_{other} != 0: corners collapse"
                )
            return Continuum(
                f"{side}-zone equation vanishes, inner equations affine in the "
                "free ordinates"
            )
        return Continuum(
            f"{side}-zone equation vanishes identically, b_{other} b_C != 0"
        )

    # Solve P d = Q e and b_C (d^2 - e^2) = 4 W for gaps d, e > 0.
    a, b, alpha = cf.a, cf.b, cf.alpha
    s_r, s_l, p, q, w = _sums_and_gaps(system)
    p_zero = _negligible(p, abs(0.5 * b * s_r) + abs(a) + abs(alpha))
    q_zero = _negligible(q, abs(0.5 * b * s_l) + abs(alpha) + abs(a))
    w_zero = _negligible(w, abs(4.0 * cf.beta)
                         + abs(0.25 * b * (s_r * s_r + s_l * s_l))
                         + (abs(alpha) + abs(a)) * (abs(s_r) + abs(s_l)))
    same_sign = not (p_zero or q_zero) and (p > 0.0) == (q > 0.0)
    # With b_C (Q^2 - P^2) = 0 the difference equation no longer sees the gaps.
    den = b * (q - p) * (q + p)
    flat = b_c_zero or _negligible((q - p) * (q + p), p * p + q * q)
    if (p_zero and q_zero and (w_zero or not b_c_zero)
            or flat and w_zero and same_sign):
        return Continuum(
            "the two reduced conics coincide or share a line: every common "
            "point closes"
        )
    if not w_zero and (flat or (w > 0.0) != (den > 0.0)):
        return NoSolution("the two reduced conics do not intersect")
    if not w_zero and same_sign:
        root = 2.0 * math.sqrt(w / den)
        d, e = abs(q) * root, abs(p) * root
        y0, y1 = 0.5 * (s_r + d), 0.5 * (s_r - d)
        y2, y3 = 0.5 * (s_l - e), 0.5 * (s_l + e)
        # A gap below half an ulp of its sum collapses the corners in floats.
        if y1 < y0 and y2 < y3:
            return UniqueCycleCandidate(y0, y1, y2, y3)
    return NoSolution(
        "conic intersections violate the corner orderings y1 < y0, y2 < y3"
    )


def _continuous_family(
    cf: LinearHamiltonianField,
) -> Callable[[float], tuple[float, float, float]]:
    """Explicit closed-orbit family of a continuous system with b != 0.

    y0 balances the R-arc equation; the left-line pair solves the two C-arc
    equations, with a radicand that is a shifted square in b*y1 (real for
    |b y1 + a + alpha| large enough).
    """
    a, b, alpha = cf.a, cf.b, cf.alpha
    beta_c = cf.beta

    def family(y1: float) -> tuple[float, float, float]:
        radicand = (
            a * a
            + 2.0 * a * (b * y1 - alpha)
            + (b * y1 + alpha) ** 2
            - 4.0 * b * beta_c
        )
        if radicand < 0.0:
            raise ValueError(
                f"no real companion ordinates at y1 = {y1:g} "
                f"(radicand {radicand:g})"
            )
        root = math.sqrt(radicand)
        y0 = (-b * y1 - 2.0 * (a + alpha)) / b
        y2 = (a - alpha + root) / b
        y3 = (a - alpha - root) / b
        return (y0, y2, y3)

    return family


def _sums_and_gaps(system: PiecewiseSystem) -> tuple[float, ...]:
    """(s_R, s_L, P, Q, W) of a three-zone system with b_L b_R != 0."""
    lf, cf, rf = system.fields
    a, b, alpha = cf.a, cf.b, cf.alpha
    s_r = -2.0 * (rf.a + rf.alpha) / rf.b
    s_l = 2.0 * (lf.a - lf.alpha) / lf.b
    p = 0.5 * b * s_r + a + alpha
    q = 0.5 * b * s_l + alpha - a
    w = 4.0 * cf.beta - alpha * (s_r - s_l) - a * (s_r + s_l)
    w -= 0.25 * b * (s_r - s_l) * (s_r + s_l)
    return s_r, s_l, p, q, w
