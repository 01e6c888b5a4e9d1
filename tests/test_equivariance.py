"""Answers move with the coordinates: rotation by pi and rational shears.

Both maps keep the switching lines x = +-1, the zero trace and the
orientation, so they send a system to another system of the same layout.

- Rotation by pi, (x, y) -> (-x, -y), swaps zones L and R and sends
  (a, b, c, alpha, beta) to (a, b, c, -alpha, -beta); the corners
  (y0, y1, y2, y3) go to (-y2, -y3, -y0, -y1).
- The shear (x, y) -> (x, lam y + mu x + nu), lam > 0, gives
  a' = a - b mu / lam, b' = b / lam, c' = lam c + 2 a mu - b mu^2 / lam,
  alpha' = alpha - b nu / lam and beta' = lam beta + a nu - b mu nu / lam
  + mu alpha; each corner (x, y) goes to lam y + mu x + nu.

Under both the period, the outcome class and the certified flag stay.
"""

from __future__ import annotations

import json
import random
import runpy
from fractions import Fraction
from pathlib import Path

import pytest

from pwlham import model
from pwlham.cli import FIXTURE_NAMES, fixture_text
from pwlham.cycle import certify, find_limit_cycle
from pwlham.model import LinearHamiltonianField, PiecewiseSystem
from pwlham.poincare import ORACLE_AGREEMENT_TOL, fixed_point_near

ROOT = Path(__file__).resolve().parent.parent
COEFFICIENTS = ("a", "b", "c", "alpha", "beta")


def rotated(system: PiecewiseSystem) -> PiecewiseSystem:
    lf, cf, rf = (
        LinearHamiltonianField(f.a, f.b, f.c, -f.alpha, -f.beta)
        for f in system.fields
    )
    return PiecewiseSystem.three_zone(rf, cf, lf)


def sheared_text(name: str, lam: Fraction, mu: Fraction, nu: Fraction) -> str:
    """A fixture's JSON with every zone sheared exactly, as "p/q" text."""
    doc = json.loads(fixture_text(name))
    for zone in doc["zones"]:
        a, b, c, alpha, beta = (Fraction(zone[k]) for k in COEFFICIENTS)
        mapped = (
            a - b * mu / lam,
            b / lam,
            lam * c + 2 * a * mu - b * mu * mu / lam,
            alpha - b * nu / lam,
            lam * beta + a * nu - b * mu * nu / lam + mu * alpha,
        )
        zone.update((k, str(v)) for k, v in zip(COEFFICIENTS, mapped))
    return json.dumps(doc)


def assert_oracle_agrees(system: PiecewiseSystem, y0: float) -> None:
    assert abs(fixed_point_near(system, y0).y - y0) <= ORACLE_AGREEMENT_TOL


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_rotation_by_pi_moves_the_fixture_cycles(examples, name):
    system = rotated(examples[name])
    cert = find_limit_cycle(examples[name])
    turned = find_limit_cycle(system)
    assert turned is not None
    y0, y1, y2, y3 = (y for _, y in cert.corners)
    for (_, got), want in zip(turned.corners, (-y2, -y3, -y0, -y1)):
        assert abs(got - want) <= 1e-14 * max(1.0, abs(want))
    assert turned.period == pytest.approx(cert.period, rel=1e-14, abs=0.0)
    assert_oracle_agrees(system, turned.corners[0][1])


def test_rotation_by_pi_keeps_survey_outcomes():
    # The systems scripts/random_survey.py draws at --count 2000 --seed 0.
    script = ROOT / "scripts" / "random_survey.py"
    random_field = runpy.run_path(str(script))["random_field"]
    rng = random.Random(0)
    certified = 0
    for _ in range(2000):
        system = PiecewiseSystem.three_zone(
            random_field(rng), random_field(rng), random_field(rng)
        )
        answers = []
        for s in (system, rotated(system)):
            result = certify(s, samples_per_arc=8)
            answers.append(
                (
                    model.is_continuous(s)[0],
                    type(result.outcome),
                    result.certificate is not None,
                )
            )
        assert answers[0] == answers[1]
        certified += answers[0][2]
    assert certified == 2  # as tests/random_survey_count2000_seed0.txt says


def test_rational_shears_move_the_fixture_cycles(examples):
    rng = random.Random(7)
    for i in range(30):
        name = FIXTURE_NAMES[i % len(FIXTURE_NAMES)]
        lam = Fraction(rng.randint(1, 8), rng.randint(1, 8))
        mu = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        nu = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        sheared = model.system_from_json_dict(
            json.loads(sheared_text(name, lam, mu, nu))
        )
        cert = find_limit_cycle(examples[name])
        moved = find_limit_cycle(sheared)
        assert moved is not None, (name, lam, mu, nu)
        for (x, y), (x_moved, got) in zip(cert.corners, moved.corners):
            assert x_moved == x
            want = float(lam) * y + float(mu) * x + float(nu)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        assert moved.period == pytest.approx(cert.period, rel=1e-10, abs=0.0)
        assert_oracle_agrees(sheared, moved.corners[0][1])
