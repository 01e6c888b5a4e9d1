"""Periodic-orbit closure equations and their exhaustive case analysis.

A periodic orbit meets the switching lines at corner ordinates whose zone
energies must match, because each zone's Hamiltonian is constant along its
arc.  For two zones the corners are (0, y0), (0, y1) with y1 < y0; for three
zones they are (1, y0), (1, y1) on the right line (y1 < y0) and (-1, y2),
(-1, y3) on the left line (y2 < y3), traversed R-arc, C-arc, L-arc, C-arc.

The matching conditions are polynomial in the ordinates.  Eliminating the
outer ordinates (y0 in terms of y1, y2 in terms of y3) when the outer b
coefficients are nonzero reduces the three-zone system to two conics in the
(y1, y3) plane that share the quadratic part, hence to one quadratic and one
linear equation with at most two intersection points.  The solution set is
invariant under swapping both corner pairs, so at most one intersection
survives the strict orderings y1 < y0, y2 < y3: the system either has no
admissible solution, a unique candidate, or a continuum (never two isolated
candidates).  The degenerate coefficient patterns are enumerated explicitly
below and classified as no-solution or continuum.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

from .model import LinearHamiltonianField, PiecewiseSystem, is_continuous

# A coefficient (or derived combination) counts as zero for branch dispatch
# below DISPATCH_TOL times the coefficient scale of the system.
DISPATCH_TOL = 1e-10

# Negative discriminants above -CLAMP_TOL * scale are clamped to zero: a
# tangency counts as a double root, which strict ordering then rejects here
# and the arrival-velocity test rejects in the saddle flight time.
CLAMP_TOL = 1e-12

# Two roots r1, r2 with |r1 - r2| <= ROOT_MERGE_TOL * (1 + |r1| + |r2|) are
# one double root.
ROOT_MERGE_TOL = 1e-12


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


def residuals_two_zone(
    system: PiecewiseSystem, y0: float, y1: float
) -> tuple[float, float]:
    """Energy mismatches of the R and L zones between (0, y0) and (0, y1)."""
    lf, rf = system.fields
    gap = y0 - y1
    return (
        -0.5 * gap * (rf.b * (y0 + y1) + 2.0 * rf.alpha),
        0.5 * gap * (lf.b * (y0 + y1) + 2.0 * lf.alpha),
    )


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


def _dispatch_tol(system: PiecewiseSystem) -> float:
    return DISPATCH_TOL * (1.0 + system.coefficient_scale)


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
    tol = _dispatch_tol(system)
    b_l_zero = abs(lf.b) <= tol
    b_r_zero = abs(rf.b) <= tol

    if b_r_zero and abs(rf.alpha) > tol:
        return NoSolution("b_R = 0 with alpha_R != 0: R-zone equation is unsolvable")
    if b_l_zero and abs(lf.alpha) > tol:
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
    if abs(ratio_l - ratio_r) > DISPATCH_TOL * (
        1.0 + max(abs(ratio_l), abs(ratio_r))
    ):
        return NoSolution(
            "incompatible chord sums: alpha_L / b_L != alpha_R / b_R"
        )
    f = lf if abs(lf.b) >= abs(rf.b) else rf
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
    on which of b_L, b_C, b_R (and the paired affine combinations) vanish;
    the all-nonzero branch intersects the two reduced conics and keeps the
    at most one intersection that respects both strict corner orderings.

    The continuity flag is model.is_continuous's; every other zero test uses
    the dispatch tolerance DISPATCH_TOL * (1 + coefficient_scale), computed
    once here.
    """
    if system.layout.n_zones != 3:
        raise ValueError("expected a three-zone system")
    lf, cf, rf = system.fields
    tol = _dispatch_tol(system)

    if is_continuous(system)[0]:
        if abs(cf.b) <= tol:
            return NoSolution(
                "continuous with b = 0: the ordered matching equations are "
                "unsolvable"
            )
        return Continuum(
            "continuous with b != 0: explicit one-parameter family of "
            "closed orbits",
            _continuous_family(cf),
        )

    b_r_zero = abs(rf.b) <= tol
    b_l_zero = abs(lf.b) <= tol
    b_c_zero = abs(cf.b) <= tol
    g_r_zero = abs(rf.a + rf.alpha) <= tol
    g_l_zero = abs(lf.a - lf.alpha) <= tol
    g_c_zero = abs(cf.alpha - cf.a) <= tol

    if b_r_zero and not g_r_zero:
        return NoSolution("b_R = 0 with a_R + alpha_R != 0")
    if b_l_zero and not g_l_zero:
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

    if b_c_zero:  # b_R b_L != 0
        mixed = (
            rf.b * cf.alpha * (lf.a - lf.alpha)
            + cf.a * rf.b * (lf.alpha - lf.a)
            + lf.b * (rf.a + rf.alpha) * (cf.a + cf.alpha)
            + 2.0 * lf.b * rf.b * cf.beta
        )
        # Mixed combination is quadratic in the coefficients; scale its
        # zero test accordingly.
        scale = 1.0 + system.coefficient_scale ** 2
        if abs(mixed) <= DISPATCH_TOL * scale:
            return Continuum(
                "b_C = 0 with compatible affine inner equations: eliminated "
                "system degenerates to a family"
            )
        return NoSolution(
            "b_C = 0 with incompatible affine inner equations (mixed "
            "combination nonzero)"
        )

    return _solve_generic(lf, cf, rf)


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


def conic_solutions(
    lf: LinearHamiltonianField,
    cf: LinearHamiltonianField,
    rf: LinearHamiltonianField,
) -> Optional[list[tuple[float, float, float, float]]]:
    """Every real corner tuple (y0, y1, y2, y3) of the reduced conics.

    Needs b_L, b_C and b_R nonzero.  Eliminating y0 from the upper C-arc
    equation and y2 from the lower one leaves two conics in the (y1, y3)
    plane, (y1 - h)^2 / K - (y3 - k)^2 / K - C = 0 with the shared K = 2 / b_C
    and offset C, and centre offsets (h, k) = (A, B) and (D, E).  Subtracting
    them (they share the quadratic part) leaves a line; substituting the line
    into the first leaves one quadratic, hence at most two points.  The
    tuples are not filtered by the corner orderings.  Returns None when the
    conics coincide or the difference line lies inside them (infinitely many
    common points).
    """
    K = 2.0 / cf.b
    A = (rf.b * (cf.a + cf.alpha) - 2.0 * cf.b * (rf.a + rf.alpha)) / (
        cf.b * rf.b
    )
    B = (cf.a - cf.alpha) / cf.b
    C = 2.0 * (cf.a * cf.alpha + cf.b * cf.beta) / cf.b
    D = -(cf.a + cf.alpha) / cf.b
    E = (lf.b * (cf.alpha - cf.a) - 2.0 * cf.b * (lf.alpha - lf.a)) / (
        cf.b * lf.b
    )
    conic_scale = 1.0 + max(abs(A), abs(B), abs(D), abs(E))
    if (
        abs(A - D) <= DISPATCH_TOL * conic_scale
        and abs(B - E) <= DISPATCH_TOL * conic_scale
    ):
        return None

    # Difference line p*y1 + q*y3 + r = 0; first conic expanded as
    # y1^2 - 2A y1 + A^2 - y3^2 + 2B y3 - B^2 - K C = 0.
    p = 2.0 * (A - D)
    q = 2.0 * (E - B)
    r = D * D - E * E + B * B - A * A

    if abs(p) >= abs(q):
        m, k = -q / p, -r / p  # y1 = m*y3 + k
        qa = m * m - 1.0
        qb = 2.0 * m * k - 2.0 * A * m + 2.0 * B
        qc = k * k - 2.0 * A * k + A * A - B * B - K * C
        roots = quadratic_roots(qa, qb, qc)
        points = [(m * y3 + k, y3) for y3 in roots or ()]
    else:
        m, k = -p / q, -r / q  # y3 = m*y1 + k
        qa = 1.0 - m * m
        qb = -2.0 * A - 2.0 * m * k + 2.0 * B * m
        qc = A * A - k * k + 2.0 * B * k - B * B - K * C
        roots = quadratic_roots(qa, qb, qc)
        points = [(y1, m * y1 + k) for y1 in roots or ()]
    if roots is None:
        return None
    # The outer equations factor as (corner gap) times an affine function of
    # the corner sum; with b != 0 the second factor pins y0 and y2.
    return [
        (
            (-rf.b * y1 - 2.0 * (rf.a + rf.alpha)) / rf.b,
            y1,
            (-lf.b * y3 - 2.0 * (lf.alpha - lf.a)) / lf.b,
            y3,
        )
        for y1, y3 in points
    ]


def _solve_generic(
    lf: LinearHamiltonianField,
    cf: LinearHamiltonianField,
    rf: LinearHamiltonianField,
) -> ClosureOutcome:
    """Intersect the two reduced conics (all three b coefficients nonzero)."""
    corners = conic_solutions(lf, cf, rf)
    if corners is None:
        return Continuum(
            "the two reduced conics coincide or share a line: every common "
            "point closes"
        )
    ordered = [c for c in corners if c[1] < c[0] and c[2] < c[3]]
    if not ordered:
        if corners:
            return NoSolution(
                "conic intersections violate the corner orderings "
                "y1 < y0, y2 < y3"
            )
        return NoSolution("the two reduced conics do not intersect")
    # The swap symmetry guarantees at most one ordered candidate; prefer the
    # wider-margin one should rounding ever let both through.
    return UniqueCycleCandidate(
        *max(ordered, key=lambda c: min(c[0] - c[1], c[3] - c[2]))
    )


def quadratic_roots(qa: float, qb: float, qc: float) -> Optional[list[float]]:
    """Real roots of qa w^2 + qb w + qc, with tangency clamping.

    A slightly negative discriminant counts as a double root.  None when the
    quadratic vanishes identically (on the conics: the whole difference line
    solves them).
    """
    scale = max(abs(qa), abs(qb), abs(qc))
    if scale == 0.0 or scale <= CLAMP_TOL:
        return None
    if abs(qa) <= CLAMP_TOL * scale:
        if abs(qb) <= CLAMP_TOL * scale:
            return None if abs(qc) <= CLAMP_TOL * scale else []
        return [-qc / qb]
    disc = qb * qb - 4.0 * qa * qc
    disc_scale = qb * qb + abs(4.0 * qa * qc)
    if disc < 0.0:
        if disc >= -CLAMP_TOL * disc_scale:
            disc = 0.0  # tangency: double root
        else:
            return []
    sq = math.sqrt(disc)
    q = -0.5 * (qb + math.copysign(sq, qb)) if qb != 0.0 else -0.5 * sq
    if q == 0.0:
        return [0.0]
    r1, r2 = q / qa, qc / q
    if abs(r1 - r2) <= ROOT_MERGE_TOL * (1.0 + abs(r1) + abs(r2)):
        return [r1]
    return [r1, r2]

