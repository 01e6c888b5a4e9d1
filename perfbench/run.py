#!/usr/bin/env python3
"""Layered benchmark for pwlham, standard library only.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {survey,certify,oracle,cli,all}
        --seed N --seconds S --trace {0,1}

The package is imported from the checkout's ``src/``; without it the run
stops with a non-zero exit before printing a result.  Every workload is a
closed loop with one operation in flight, run in whole passes over its
inputs until S seconds (and at least MIN_OPS operations) have gone by.
Every operation's answer is checked; a wrong answer or an exception counts
as a failed operation.

--trace 0 reports the end-to-end metrics:
    setup_s         median over SETUP_REPEATS fresh processes of interpreter
                    start + ``import pwlham`` + building the inputs
    ops_per_s       operations over the time spent in them
    latency_ms_p50  median operation latency
    latency_ms_p90  90th percentile of every operation latency of the run
                    (MIN_OPS leaves >= 10 samples above it)
    error_rate      failed / attempted (printed; in the result line it is
                    the ``failed`` and ``attempted`` fields)
The operation timings are scaled to a reference host speed, measured
beside the operations with a fixed block of work (see ``speed``), so that a
run in a slow spell of a shared host reads like one in a fast spell; the
figures as measured are printed too.  ops_per_s and latency_ms_p50 are
taken over each of WINDOWS windows of the run, and the median over the
windows is reported (see ``windows``).

--trace 1 runs one counting pass, then alternates untraced and traced passes
over identical inputs, and reports the per-layer metrics (see LAYER_METRICS
and the README here).

Output: a table of every metric with its unit and sample count, a ``meta``
line (Python, nproc, commit, src/ line count), and as the last line one
JSON object {"correct", "attempted", "failed", "metrics"}.  Full results
and the first traced operations' spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

import speed
from paths import OUT_DIR, ROOT, SRC
from tracer import Tracer

SETUP_PROBE = os.path.join(ROOT, "perfbench", "setup_probe.py")

SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 60.0

# p90 needs at least ten samples above it.
MIN_OPS = 100

# Raw spans are written out for this many traced operations.
KEEP_SPAN_OPS = 100

MAX_ERRORS_SHOWN = 20

# The end-to-end timings are medians over this many windows of a run.
WINDOWS = 8

# name -> (unit, statistic, span or count name).  "self" is self time per
# operation, "call" is inclusive time per call, "per_op" calls per
# operation; the others are read from the first traced pass or the probes.
LAYER_METRICS = {
    "model.construct_us": ("us", "self", "model.construct"),
    "model.parse_us": ("us", "self", "model.parse"),
    "model.is_continuous_us": ("us", "self", "model.is_continuous"),
    "model.is_continuous_calls": ("calls/op", "per_op", "model.is_continuous"),
    "model.classify_singularity_calls": (
        "calls/op", "per_op", "model.classify_singularity"),
    "closure.solve_us": ("us", "self", "closure.solve"),
    "closure.outcome.no_solution": ("count", "pass", "closure.outcome.no_solution"),
    "closure.outcome.unique_candidate": (
        "count", "pass", "closure.outcome.unique_candidate"),
    "closure.outcome.continuum": ("count", "pass", "closure.outcome.continuum"),
    "cycle.certify_us": ("us", "self", "cycle.certify"),
    "cycle.verify_us": ("us", "self", "cycle.verify"),
    "cycle.certify_calls": ("calls/op", "per_op", "cycle.certify"),
    "cycle.certified": ("count", "pass", "cycle.certified"),
    "cycle.certified_ratio": ("ratio", "certified_ratio", ""),
    "flow.flight_time_us": ("us", "self", "flow.flight_time"),
    "flow.refine_us": ("us", "self", "flow.refine"),
    "flow.orbit_samples_us": ("us", "self", "flow.orbit_samples"),
    "flow.closed_form_calls": ("calls/op", "per_op", "flow.closed_form"),
    "flow.classify_boundary_us": ("us", "self", "flow.classify_boundary"),
    "poincare.fixed_point_us": ("us", "call", "poincare.fixed_point"),
    "poincare.return_map_us": ("us", "call", "poincare.return_map"),
    "poincare.first_return_us": ("us", "call", "poincare.first_return"),
    "poincare.return_maps_per_fixed_point": ("count", "nested", "poincare.fixed_point"),
    "poincare.steps_per_orbit": ("count", "probe", ""),
    "poincare.events_per_orbit": ("count", "probe", ""),
    "poincare.y0_err_max": ("abs", "probe", ""),
    "poincare.period_err_max": ("abs", "probe", ""),
    "cli.self_us": ("us", "self", "cli.main"),
    "cli.render_svg_us": ("us", "self", "cli.render_svg"),
    "cli.python_floor_ms": ("ms", "probe", ""),
    "cli.import_ms": ("ms", "probe", ""),
    "trace.overhead_pct": ("%", "overhead", ""),
}


class Outcomes:
    """Attempted and failed checks of one run; no failure is dropped."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, what: str, detail: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS_SHOWN:
            self.errors.append(f"{what}: {detail}")


def load_package() -> None:
    """Import pwlham from this checkout's src/, or stop without a result."""
    if not os.path.isfile(os.path.join(SRC, "pwlham", "__init__.py")):
        raise SystemExit(f"error: no pwlham package under {SRC}; run from a checkout")
    sys.path.insert(0, SRC)
    import pwlham

    where = os.path.realpath(pwlham.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"error: imported pwlham from {where}, not from {SRC}")


def _op(workload, item, outcomes: Outcomes) -> float:
    """Runs one operation; returns its latency.  A failure is counted."""
    start = time.perf_counter()
    try:
        workload.op(item)
    except Exception as exc:  # a failed op is counted, never fatal
        outcomes.fail(
            workload.describe(item),
            "".join(traceback.format_exception_only(type(exc), exc)).strip(),
        )
    return time.perf_counter() - start


def _end_pass(workload, items, outcomes: Outcomes) -> None:
    outcomes.attempted += len(items)
    for problem in workload.pass_checks():
        outcomes.attempted += 1
        if problem is not None:
            outcomes.fail(workload.name, problem)


def run_pass(workload, items, outcomes: Outcomes, tracer=None):
    """One operation per item; returns the latencies and the pass's wall time."""
    perf = time.perf_counter
    latencies = []
    workload.tracer = tracer
    start = perf()
    for item in items:
        if tracer is not None:
            tracer.begin_op()
        latencies.append(_op(workload, item, outcomes))
    elapsed = perf() - start
    workload.tracer = None
    _end_pass(workload, items, outcomes)
    return latencies, elapsed


def run_scaled_pass(workload, items, outcomes: Outcomes, reference) -> list:
    """One untraced pass with the host's speed measured beside the ops.

    A measurement of ``reference`` (a ``speed.Reference``) is taken before
    the first op, after the last, and after any op that ends
    ``speed.EVERY_S`` or more after the previous measurement.  Returns one
    (latencies, wall time, index of the measurement before) triple per
    segment of ops between two measurements, with the latencies and wall
    time as measured.
    """
    perf = time.perf_counter
    segments = []
    latencies = []
    before = reference.take()
    start = perf()
    for item in items:
        latencies.append(_op(workload, item, outcomes))
        if perf() - start >= speed.EVERY_S:
            segments.append((latencies, perf() - start, before))
            before = reference.take()
            latencies, start = [], perf()
    if latencies:
        segments.append((latencies, perf() - start, before))
        reference.take()
    _end_pass(workload, items, outcomes)
    return segments


def setup_probe(name: str, seed: int, outcomes: Outcomes) -> float:
    """Wall time of one fresh process that imports pwlham and builds the inputs."""
    from workloads import python_env

    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, SETUP_PROBE, name, str(seed)],
        cwd=ROOT,
        env=python_env(),
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - start
    outcomes.attempted += 1
    if proc.returncode != 0:
        outcomes.fail("set-up", proc.stderr.strip()[-500:])
    return elapsed


def windows(passes: list[list[tuple]], count: int) -> list[dict]:
    """Scaled throughput and median latency of each of ``count`` windows.

    ``passes`` holds each pass's (latencies, wall time, scale factor)
    segments.  Each pass goes to the window in which it starts, windows
    being equal shares of the run's scaled time in operations, so that
    every window runs the workload's whole mix of inputs.  A window's
    ops_per_s is its operations over their scaled wall time, and its median
    is over every one of its scaled operation latencies.  The median over
    windows is unmoved by a slow spell that the reference measurements miss
    in fewer than half of the windows, while a change that slows most of a
    run shows.
    """
    scaled = [sum(wall * factor for _, wall, factor in p) for p in passes]
    total = sum(scaled)
    groups: list[list] = [[] for _ in range(count)]
    done = 0.0
    for segments, time_in_ops in zip(passes, scaled):
        groups[min(count - 1, int(count * done / total))].extend(segments)
        done += time_in_ops
    stats = []
    for group in filter(None, groups):
        latencies = [t * factor for lat, _, factor in group for t in lat]
        stats.append(
            {
                "ops_per_s": len(latencies)
                / sum(wall * factor for _, wall, factor in group),
                "latency_ms_p50": 1e3 * statistics.median(latencies),
            }
        )
    return stats


def measure(workload, seconds: float, outcomes: Outcomes, setup) -> dict:
    """Whole passes until ``seconds`` are up; set-up probes spread among them.

    The op timings are scaled to the reference host speed by the block
    measured around them (see ``speed``); their figures as measured go
    along under ``_unscaled``.  Set-up time is not scaled: a set-up probe
    is mostly the start of a process, which does not follow the block.
    """
    reference = speed.Reference()
    timed, setups = [], [setup()]
    ops = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or ops < MIN_OPS:
        timed.append(run_scaled_pass(workload, workload.items(), outcomes, reference))
        ops += sum(len(latencies) for latencies, _, _ in timed[-1])
        due = 1 + (SETUP_REPEATS - 1) * (time.perf_counter() - start) / seconds
        while len(setups) < min(SETUP_REPEATS, due):
            setups.append(setup())
    while len(setups) < SETUP_REPEATS:
        setups.append(setup())
    passes = [
        [(lat, wall, reference.scale(before)) for lat, wall, before in p]
        for p in timed
    ]
    stats = windows(passes, WINDOWS)
    segments = [segment for p in passes for segment in p]
    scaled = [t * factor for lat, _, factor in segments for t in lat]
    raw = [t for lat, _, _ in segments for t in lat]
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "ops_per_s": (statistics.median(w["ops_per_s"] for w in stats), "1/s", ops),
        "latency_ms_p50": (
            statistics.median(w["latency_ms_p50"] for w in stats), "ms", ops
        ),
        "latency_ms_p90": (1e3 * statistics.quantiles(scaled, n=10)[8], "ms", ops),
        "_unscaled": {
            "ops_per_s": ops / sum(wall for _, wall, _ in segments),
            "latency_ms_p50": 1e3 * statistics.median(raw),
            "latency_ms_p90": 1e3 * statistics.quantiles(raw, n=10)[8],
            "block_reference_ms": 1e3 * statistics.median(reference.times),
        },
        "_passes": len(passes),
        "_windows": len(stats),
    }


def counting_pass(workload, outcomes: Outcomes):
    """One pass with every span and call counter installed; exact counts."""
    tracer = Tracer(counters=True)
    tracer.install()
    try:
        run_pass(workload, workload.items(), outcomes, tracer)
    finally:
        tracer.uninstall()
    return tracer


def measure_traced(workload, seconds: float, outcomes: Outcomes) -> dict:
    """One counting pass, then untraced and span-traced passes in turn.

    The counting pass also wraps the per-sample functions, so its counts are
    exact but its times are not used.  Each span-traced pass runs the same
    inputs, in the same order, as the untraced pass just before it.
    """
    start = time.perf_counter()
    first = counting_pass(workload, outcomes)
    plain, traced, tracers = [], [], []
    while not tracers or time.perf_counter() - start < seconds:
        items = workload.items()
        _, elapsed = run_pass(workload, items, outcomes)
        plain.append(elapsed)
        tracer = Tracer(keep_ops=KEEP_SPAN_OPS if not tracers else 0)
        tracer.install()
        try:
            _, elapsed = run_pass(workload, items, outcomes, tracer)
        finally:
            tracer.uninstall()
        traced.append(elapsed)
        tracers.append(tracer)

    for problem in first.missing(workload.expected):
        outcomes.fail("trace", f"boundary {problem} recorded no spans on {workload.name}")
    outcomes.attempted += len(workload.expected)
    for problem in workload.check_trace(first):
        outcomes.fail("trace", problem)
    outcomes.attempted += 1

    ops = sum(t.ops for t in tracers)
    self_s, total_s, calls = Counter(), Counter(), Counter()
    for t in tracers:
        self_s.update(t.self_s)
        total_s.update(t.total_s)
        calls.update(t.calls)

    try:
        probes = workload.probes()
    except Exception as exc:  # counted like a failed op
        outcomes.fail("probes", repr(exc))
        probes = {}
    outcomes.attempted += 1
    metrics = {}
    for name, (unit, stat, key) in LAYER_METRICS.items():
        if stat == "self":
            value, samples = 1e6 * self_s[key] / ops, ops
        elif stat == "call":
            n = calls.get(key, 0)
            value, samples = (1e6 * total_s[key] / n if n else 0.0), n
        elif stat == "per_op":
            value, samples = first.calls[key] / first.ops, first.ops
        elif stat == "pass":
            value, samples = first.counts[key], first.ops
        elif stat == "certified_ratio":
            n = first.calls["cycle.certify"]
            value, samples = (first.counts["cycle.certified"] / n if n else 0.0), n
        elif stat == "nested":
            n = first.calls[key]
            nested = first.counts["poincare.return_map@poincare.fixed_point"]
            value, samples = (nested / n if n else 0.0), n
        elif stat == "probe":
            value, samples = probes.get(name, 0.0), int(name in probes)
        else:  # overhead; each traced pass against the untraced one before it
            value = 100.0 * (
                statistics.median(t / p for t, p in zip(traced, plain)) - 1.0
            )
            samples = len(traced)
        metrics[name] = (value, unit, samples)
    metrics["_passes"] = 1 + 2 * len(tracers)
    metrics["_bindings"] = dict(first.bindings)
    metrics["_spans"] = tracers[0].spans
    metrics["_counts"] = {"calls": dict(first.calls), "counts": dict(first.counts)}
    return metrics


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    import workloads

    outcomes = Outcomes()
    workload = workloads.WORKLOADS[name](seed)
    run_pass(workload, workload.warmup_items(), outcomes)
    if traced:
        metrics = measure_traced(workload, seconds, outcomes)
    else:
        metrics = measure(
            workload, seconds, outcomes, lambda: setup_probe(name, seed, outcomes)
        )
        metrics["error_rate"] = (
            outcomes.failed / outcomes.attempted, "ratio", outcomes.attempted
        )
    return {"workload": name, "outcomes": outcomes, "metrics": metrics}


def _commit() -> str:
    # The ceiling keeps git from reporting a repository around the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _src_loc() -> int:
    lines = 0
    for folder, _, files in os.walk(SRC):
        for file in files:
            if file.endswith(".py"):
                with open(os.path.join(folder, file), encoding="utf-8") as fh:
                    lines += sum(1 for _ in fh)
    return lines


def metadata(args) -> dict:
    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "python": platform.python_version(),
        "nproc": len(affinity(0)) if affinity else os.cpu_count(),
        "commit": _commit(),
        "src_loc": _src_loc(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _public(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if not k.startswith("_")}


def report(runs: list[dict], meta: dict, trace: bool) -> dict:
    """Print the table and write the result files; returns the result line."""
    os.makedirs(OUT_DIR, exist_ok=True)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    prefix = len(runs) > 1
    for run in runs:
        name, outcomes, metrics = run["workload"], run["outcomes"], run["metrics"]
        windows_note = f", {metrics['_windows']} windows" if "_windows" in metrics else ""
        print(f"== {name}: {metrics['_passes']} passes{windows_note}, "
              f"{outcomes.attempted} attempted, {outcomes.failed} failed")
        print(f"   {'metric':<38} {'value':>16}  {'unit':<9} samples")
        for key, (value, unit, samples) in _public(metrics).items():
            print(f"   {key:<38} {value:>16.6g}  {unit:<9} {samples}")
            if key == "error_rate":
                continue
            result["metrics"][f"{name}.{key}" if prefix else key] = {
                "value": value,
                "unit": unit,
            }
        if "_unscaled" in metrics:
            print("   as measured, before scaling to the reference speed: " + ", ".join(
                f"{k} {v:.6g}" for k, v in metrics["_unscaled"].items()))
        for line in outcomes.errors:
            print(f"   FAILED {line}", file=sys.stderr)
        result["correct"] = result["correct"] and outcomes.failed == 0
        result["attempted"] += outcomes.attempted
        result["failed"] += outcomes.failed

        stem = os.path.join(OUT_DIR, f"{name}-seed{meta['seed']}-trace{meta['trace']}")
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "meta": meta,
                    "metrics": {
                        k: {"value": v, "unit": u, "samples": s}
                        for k, (v, u, s) in _public(metrics).items()
                    },
                    "attempted": outcomes.attempted,
                    "failed": outcomes.failed,
                    "errors": outcomes.errors,
                    "unscaled": metrics.get("_unscaled"),
                    "bindings": metrics.get("_bindings"),
                    "first_pass": metrics.get("_counts"),
                },
                fh,
                indent=2,
                sort_keys=True,
            )
        if trace:
            with open(stem + "-spans.csv", "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["id", "name", "start", "end", "parent", "op"])
                writer.writerows(metrics["_spans"])
    print("meta " + json.dumps(meta, sort_keys=True))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("survey", "certify", "oracle", "cli", "all"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    load_package()
    names = (
        ("survey", "certify", "oracle", "cli")
        if args.workload == "all"
        else (args.workload,)
    )
    runs = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    result = report(runs, metadata(args), bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
