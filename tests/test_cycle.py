"""Certificate assembly, verification and the no-cycle pipeline paths."""

from __future__ import annotations

import json
import math
import random

import pytest

from pwlham import model
from pwlham.cli import fixture_text
from pwlham.closure import Continuum, NoSolution, UniqueCycleCandidate
from pwlham.cycle import (
    certificate_from_json_dict,
    certificate_to_json_dict,
    certify,
    find_limit_cycle,
    verify_certificate,
)
from pwlham.model import LinearHamiltonianField, PiecewiseSystem

from conftest import (
    CCC_PRODUCTS,
    CCC_TIMES,
    GOLDEN_CORNERS,
    random_continuous_three_zone,
    random_generic_three_zone,
    random_two_zone,
)


def test_certificate_for_first_example(ccc):
    cert = find_limit_cycle(ccc)
    assert cert is not None
    for (got_x, got_y), want_y, want_x in zip(
        cert.corners, GOLDEN_CORNERS["CCC"], (1.0, 1.0, -1.0, -1.0)
    ):
        assert got_x == want_x
        assert got_y == pytest.approx(want_y, abs=1e-10)
    products = {key: cls.product
                for key, cls in zip(("y0", "y1", "y2", "y3"), cert.crossings)}
    for key, want in CCC_PRODUCTS.items():
        assert products[key] == pytest.approx(want, abs=1e-3)
    assert all(cls.label == "crossing" for cls in cert.crossings)
    for got, key in zip(cert.flight_times, ("t_R", "t_C1", "t_L", "t_C2")):
        assert got == pytest.approx(CCC_TIMES[key], abs=1e-10)
    assert cert.period == pytest.approx(sum(CCC_TIMES.values()), abs=1e-10)
    assert cert.residual_norm <= 1e-9


def test_certificates_for_all_bundled_examples(examples):
    for name, system in examples.items():
        cert = find_limit_cycle(system)
        assert cert is not None, name
        for (_, got_y), want_y in zip(cert.corners, GOLDEN_CORNERS[name]):
            assert got_y == pytest.approx(want_y, abs=1e-10), name
        assert min(cert.flight_times) > 0.0
        first, last = cert.polyline[0], cert.polyline[-1]
        assert abs(first[0] - last[0]) <= 1e-8
        assert abs(first[1] - last[1]) <= 1e-8


def test_polyline_length_and_junctions(ccc):
    cert = find_limit_cycle(ccc, samples_per_arc=64)
    assert cert is not None
    assert len(cert.polyline) == 64 + 3 * 63
    # Junction points sit on the switching lines.
    assert cert.polyline[63][0] == pytest.approx(1.0, abs=1e-9)
    assert cert.polyline[126][0] == pytest.approx(-1.0, abs=1e-9)


def test_continuous_system_yields_no_certificate():
    rng = random.Random(5)
    for _ in range(10):
        system = random_continuous_three_zone(rng)
        result = certify(system)
        assert result.certificate is None
        assert isinstance(result.outcome, (Continuum, NoSolution))
        assert "continuum" in result.reason or "no solution" in result.reason


def test_two_zone_pipeline_never_certifies():
    rng = random.Random(9)
    for _ in range(50):
        result = certify(random_two_zone(rng))
        assert result.certificate is None
        assert not isinstance(result.outcome, UniqueCycleCandidate)


def test_at_most_one_certificate_across_random_systems():
    """A certificate only ever comes from the single admissible candidate."""
    rng = random.Random(15)
    for _ in range(500):
        system = random_generic_three_zone(rng)
        result = certify(system, samples_per_arc=8)
        if result.certificate is not None:
            assert isinstance(result.outcome, UniqueCycleCandidate)


def _perturbed(system, rng, spread=0.02):
    fields = [
        LinearHamiltonianField(
            *(v * (1.0 + rng.uniform(-spread, spread))
              for v in (f.a, f.b, f.c, f.alpha, f.beta))
        )
        for f in system.fields
    ]
    return PiecewiseSystem.three_zone(*fields)


def test_certificates_persist_under_small_perturbations(examples):
    """The bundled cycles are transversal, so nearby systems still certify."""
    rng = random.Random(19)
    certified = 0
    for system in examples.values():
        for _ in range(20):
            nearby = _perturbed(system, rng)
            result = certify(nearby, samples_per_arc=8)
            if result.certificate is not None:
                certified += 1
                assert verify_certificate(result.certificate, nearby).passed
    assert certified >= 80


def test_cycle_period_is_time_sum(ccc):
    cert = find_limit_cycle(ccc)
    assert cert.period == pytest.approx(sum(cert.flight_times), abs=1e-15)
    uniform = cert._replace(flight_times=(0.3, 0.3, 0.3, 0.3))
    failed = {c.name for c in verify_certificate(uniform, ccc).failures()}
    assert "period_is_time_sum" in failed


def test_verification_passes_for_fresh_certificates(examples):
    for name, system in examples.items():
        cert = find_limit_cycle(system)
        report = verify_certificate(cert, system)
        assert report.passed, (name, report.failures())


def test_verification_rejects_perturbed_corner(ccc):
    cert = find_limit_cycle(ccc)
    (x0, y0), rest = cert.corners[0], cert.corners[1:]
    bad = cert._replace(corners=((x0, y0 + 1e-3),) + rest)
    report = verify_certificate(bad, ccc)
    assert not report.passed
    assert any(c.name == "closure_residuals" for c in report.failures())


def test_verification_rejects_overflowing_energy(ccc):
    """y0 = 1e200 overflows the R arc's energy (inf - inf): a NaN drift that
    must fail arc_energy_constant rather than vanish from the maximum."""
    cert = find_limit_cycle(ccc)
    (x0, _), *rest = cert.corners
    report = verify_certificate(cert._replace(corners=((x0, 1e200), *rest)), ccc)
    (check,) = [c for c in report.checks if c.name == "arc_energy_constant"]
    assert not check.passed
    assert check.measured == math.inf


@pytest.mark.parametrize(
    "name, arc, time, failing",
    [
        ("CCC", 0, None, {"flight_times_positive", "arc_endpoints"}),
        # SCS's R arc is a saddle arc, where cosh overflows at this time.
        ("SCS", 0, 1e6, {"arc_endpoints"}),
        ("SCS", 1, math.inf, {"arc_endpoints"}),
        ("SCS", 1, math.nan, {"flight_times_positive", "arc_endpoints"}),
    ],
    ids=["negated", "saddle-overflow", "infinite", "nan"],
)
def test_verification_rejects_bad_flight_time(examples, name, arc, time, failing):
    """A time that is not finite and positive fails the audit instead of
    raising; None stands for the negated certified time."""
    system = examples[name]
    cert = find_limit_cycle(system)
    times = list(cert.flight_times)
    times[arc] = -times[arc] if time is None else time
    report = verify_certificate(cert._replace(flight_times=tuple(times)), system)
    assert not report.passed
    assert failing <= {c.name for c in report.failures()}


def test_certify_classifies_each_zone_field_once(monkeypatch):
    calls = []
    classify = model.classify_singularity
    monkeypatch.setattr(
        model, "classify_singularity", lambda f: calls.append(f) or classify(f)
    )
    system = model.system_from_json_dict(json.loads(fixture_text("CCC")))
    assert certify(system).certificate is not None
    assert len(calls) == 3


def test_rejection_reason_for_non_crossing_candidate():
    """An algebraically valid tuple whose corners are not all crossings is
    rejected with a diagnostic rather than certified."""
    rng = random.Random(21)
    rejected = None
    for _ in range(3000):
        system = random_generic_three_zone(rng)
        result = certify(system, samples_per_arc=8)
        if (
            result.certificate is None
            and isinstance(result.outcome, UniqueCycleCandidate)
        ):
            rejected = result
            break
    assert rejected is not None
    assert "not a crossing cycle" in rejected.reason or "arc" in rejected.reason


# --- JSON serialization -----------------------------------------------------------


def _certificate_json(cert):
    return json.dumps(certificate_to_json_dict(cert), indent=2, sort_keys=True)


def test_certificate_json_round_trip(ccc):
    cert = find_limit_cycle(ccc)
    doc = json.loads(_certificate_json(cert))
    again = certificate_from_json_dict(doc)
    assert again.corners == cert.corners
    assert again.flight_times == cert.flight_times
    assert again.period == cert.period
    assert again.polyline == ()
    report = verify_certificate(again, ccc)
    assert report.passed


def test_verification_is_the_same_for_a_reloaded_certificate(examples):
    # The same checks, verdicts and measured values, whether the certificate
    # comes from memory or from its JSON summary.
    for name, system in examples.items():
        cert = find_limit_cycle(system)
        again = certificate_from_json_dict(json.loads(_certificate_json(cert)))
        assert verify_certificate(again, system) == verify_certificate(cert, system), name


def test_certificate_json_is_sorted_and_stable(ccc):
    cert = find_limit_cycle(ccc)
    text1 = _certificate_json(cert)
    text2 = _certificate_json(find_limit_cycle(ccc))
    assert text1 == text2
    doc = certificate_to_json_dict(cert)
    assert list(json.loads(text1)) == sorted(doc.keys())


def _tampered(cert, **changes):
    """A certificate re-read from its JSON summary after editing it."""
    doc = json.loads(_certificate_json(cert))
    doc.update(changes)
    return certificate_from_json_dict(doc)


def _recorded_check(cert, system):
    report = verify_certificate(cert, system)
    (check,) = [c for c in report.checks if c.name == "recorded_values_match"]
    return report, check


def test_verification_rejects_edited_recorded_values(ccc):
    cert = find_limit_cycle(ccc)
    report, check = _recorded_check(_tampered(cert), ccc)
    assert report.passed and check.measured == 0.0

    doc = json.loads(_certificate_json(cert))
    sliding = [{**c, "label": "sliding"} for c in doc["crossings"]]
    report, check = _recorded_check(
        _tampered(cert, crossings=sliding, residual_norm=123.0), ccc
    )
    assert not report.passed
    assert [c.name for c in report.failures()] == ["recorded_values_match"]
    assert check.measured == float("inf")

    _, check = _recorded_check(_tampered(cert, residual_norm=123.0), ccc)
    assert not check.passed
    assert check.measured == pytest.approx(123.0, abs=1e-8)

    shifted = [dict(c) for c in doc["crossings"]]
    shifted[2]["derivative_plus"] += 1e-3
    _, check = _recorded_check(_tampered(cert, crossings=shifted), ccc)
    assert not check.passed
    assert check.measured == pytest.approx(1e-3, rel=1e-6)

    _, check = _recorded_check(_tampered(cert, crossings=shifted[:3]), ccc)
    assert check.measured == float("inf")

    shifted[0]["derivative_minus"] = float("nan")
    _, check = _recorded_check(_tampered(cert, crossings=shifted), ccc)
    assert check.measured == float("inf")
