"""The benchmark's own checks: exact counters, visible layers, refusal to run
without the package.  Run with ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import types

import pytest

import run
import speed

run.load_package()

import pwlham  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _counting_pass(workload) -> Tracer:
    outcomes = run.Outcomes()
    tracer = run.counting_pass(workload, outcomes)
    assert outcomes.failed == 0, outcomes.errors
    return tracer


def test_survey_counts_and_tally_repeat_on_one_seed():
    first = _counting_pass(workloads.Survey(0))
    second = _counting_pass(workloads.Survey(0))
    assert first.calls == second.calls
    assert first.counts == second.counts
    # The census scripts/random_survey.py prints for seed 0 and 20,000 systems.
    assert first.counts["closure.outcome.no_solution"] == 12650
    assert first.counts["closure.outcome.unique_candidate"] == 7350
    assert first.counts["cycle.certified"] == 5
    # The benchmark's check, solve_three_zone's repeat of it, and certify's
    # re-solve of each candidate.
    assert first.calls["model.is_continuous"] == 2 * first.ops + 7350


def test_survey_passes_draw_fresh_systems_and_check_the_census():
    workload = workloads.Survey(0)
    outcomes = run.Outcomes()
    first = workload.items()
    run.run_pass(workload, first, outcomes)
    # Every op, plus the census of the first pass.
    assert outcomes.attempted == len(first) + 1
    assert outcomes.failed == 0, outcomes.errors
    assert not set(first) & set(workload.items())


def test_a_wrong_census_is_an_error():
    workload = workloads.Survey(0)
    outcomes = run.Outcomes()
    run.run_pass(workload, workload.items()[:100], outcomes)
    assert outcomes.failed == 1
    assert "census" in outcomes.errors[0]


def test_fixture_ops_never_repeat_a_system():
    workload = workloads.Certify(0)
    texts = [text for _ in range(50) for _, text in workload.items()]
    assert len(set(texts)) == len(texts)
    assert not set(texts) & set(workload.texts.values())


def test_fixture_workload_counts_repeat_on_one_seed():
    for make in (workloads.Certify, workloads.Oracle):
        first = _counting_pass(make(3))
        second = _counting_pass(make(3))
        assert first.calls == second.calls
        assert first.counts == second.counts
        assert first.missing(make.expected) == []


def _segment(latency: float, references: list[float]) -> list[tuple]:
    """A pass of ten ops taking ``latency`` each, between block measurements."""
    reference = speed.Reference()
    reference.times = references
    return [([latency] * 10, 10.1 * latency, reference.scale(1))]


def test_scaling_cancels_the_host_speed():
    # The same ten ops on a host running at full speed and at half speed:
    # ops and reference block both take twice as long on the slow one.
    fast = [_segment(0.001, [0.0004, 0.0005, 0.0006])]
    slow = [_segment(0.002, [0.0008, 0.0010, 0.0012])]
    assert run.windows(fast, 1) == [pytest.approx(w) for w in run.windows(slow, 1)]
    # A slower program on the same host reads slower.
    slower = [_segment(0.002, [0.0004, 0.0005, 0.0006])]
    assert run.windows(slower, 1)[0]["latency_ms_p50"] == pytest.approx(
        2 * run.windows(fast, 1)[0]["latency_ms_p50"]
    )


def test_a_rebound_name_is_wrapped_too(monkeypatch):
    # As if cycle.py switched to ``from .flow import flight_time``.
    original = pwlham.flow.flight_time
    monkeypatch.setattr(pwlham.cycle, "flight_time", original, raising=False)
    tracer = Tracer()
    tracer.install()
    try:
        assert pwlham.cycle.flight_time is pwlham.flow.flight_time
        assert pwlham.cycle.flight_time is not original
        assert "pwlham.cycle.flight_time" in tracer.bindings["flow.flight_time"]
    finally:
        tracer.uninstall()
    assert pwlham.cycle.flight_time is original
    assert pwlham.flow.flight_time is original


def test_a_hidden_layer_is_an_error(monkeypatch):
    # cycle reaching flow through an object the tracer cannot see.
    hidden = types.SimpleNamespace(**vars(pwlham.flow))
    monkeypatch.setattr(pwlham.cycle, "flow", hidden)
    outcomes = run.Outcomes()
    run.measure_traced(workloads.Certify(0), 0.01, outcomes)
    assert outcomes.failed > 0
    assert any("flow.flight_time" in error for error in outcomes.errors)


def test_refuses_to_run_without_the_package(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "survey",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
