"""The benchmark's four workloads, each closed-loop with one op in flight.

Each workload builds its inputs from the seed in its constructor (the
set-up), hands out one pass of inputs at a time through ``items`` and runs
one operation per input through ``op``, which raises when the answer is
wrong.  Every call into the package goes through a module attribute
(``cycle.certify``, never a name imported from it), so the tracer's
wrappers see the benchmark's own calls too.

Why these four:

- survey: seeded random discontinuous three-zone systems, as drawn by
  ``scripts/random_survey.py``.  Float inputs; the closure solve dominates
  and nearly every certification attempt is rejected.  Never reaches the
  numerical oracle.
- certify: the six bundled fixtures, parsed from their exact "p/q" text on
  every op and certified at 256 samples per arc.  Closed-form flows and
  flight times dominate; every certificate is accepted.
- oracle: the ``oracle`` command on each fixture, run in-process.  Time to
  a cross-checked cycle of stated accuracy; the RK4 return map dominates.
- cli: whole ``python -m pwlham`` processes for every command on every
  fixture.  The only workload that pays interpreter start, ``import
  pwlham`` and the SVG renderer.

No two operations of survey, certify or oracle in a run see equal systems
(see ``Survey`` and ``time_scaled``), so a cache kept across operations
gains them no more than it would gain a user.  The cli workload starts a
fresh process for every operation and runs the bundled files as they are.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
import xml.etree.ElementTree as ElementTree
from collections import Counter
from fractions import Fraction
from typing import Optional

from pwlham import cli, closure, cycle, model, poincare

from golden import (
    FIXTURES,
    GOLDEN_CORNERS,
    CORNER_TOL,
    ORACLE_AGREEMENT_TOL,
    SURVEY_CENSUS,
    check_corners,
    check_kinds,
    expect,
)
from paths import FIXTURE_DIR, OUT_DIR, ROOT, SRC
from tracer import OUTCOME_NAMES

CLI_CHILD = os.path.join(ROOT, "perfbench", "cli_child.py")

# Systems per survey pass: the census size scripts/random_survey.py is
# usually quoted at (seed 0: 7,350 candidates, 5 certificates).
SURVEY_POOL = 20_000

SURVEY_WARMUP = 500

SURVEY_SAMPLES_PER_ARC = 8

CLI_COMMANDS = ("classify", "solve", "cycle", "verify", "plot", "oracle")

# A single CLI process that runs this long is hung, not slow.
CLI_TIMEOUT_S = 60.0

# Interpreter-floor and import probes per traced cli run.
CLI_PROBES = 10

# Fixture ops run time-scaled by k = 1 + j / SCALE_STEPS, j in 1..SCALE_STEPS/16.
SCALE_STEPS = 2**20


def python_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's sources first.

    Bytecode caching is left on, as in an installed package, so that child
    processes do not recompile the package on every start whatever the
    caller's environment says.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + rest if rest else "")
    return env


def check_oracle(name: str, status: int, text: str) -> tuple[float, float]:
    """Oracle output agrees with the analytic cycle and with the closed form.

    Returns the fixed-point and period errors against the certificate.
    """
    expect(status == 0, f"{name}: oracle exited {status}")
    doc = json.loads(text)
    expect(doc["agrees"] is True, f"{name}: oracle reports disagreement")
    analytic_y0 = doc["analytic"]["y0"]
    numeric_y0 = doc["numeric"]["fixed_point"]
    y0_err = abs(numeric_y0 - analytic_y0)
    period_err = abs(doc["numeric"]["return_time"] - doc["analytic"]["period"])
    expect(
        abs(analytic_y0 - GOLDEN_CORNERS[name][0]) <= CORNER_TOL,
        f"{name}: analytic y0 {analytic_y0!r} off the closed form",
    )
    expect(
        abs(numeric_y0 - GOLDEN_CORNERS[name][0]) <= ORACLE_AGREEMENT_TOL
        and y0_err <= ORACLE_AGREEMENT_TOL
        and period_err <= ORACLE_AGREEMENT_TOL,
        f"{name}: oracle off by y0 {y0_err:.3e}, period {period_err:.3e}",
    )
    return y0_err, period_err


def oracle_work(errors: list[tuple[float, float]]) -> dict[str, float]:
    """RK4 steps and switching events over one period, and the oracle errors.

    Steps and events are the mean over the fixtures of one
    ``integrate_numeric(record_states=True)`` from the certified corner
    (1, y0) to the period plus 1e-4 of it, as the oracle command's
    trajectory dump runs it.  The errors are the largest of the oracle
    outputs checked during the run.
    """
    steps = events = 0
    examples = cli.bundle_examples()
    for _, system in examples:
        cert = cycle.find_limit_cycle(system, samples_per_arc=2)
        trajectory = poincare.integrate_numeric(
            system, cert.corners[0], t_max=cert.period * 1.0001
        )
        events += len(trajectory.events)
        steps += len(trajectory.states) - 1 - len(trajectory.events)
    return {
        "poincare.steps_per_orbit": steps / len(examples),
        "poincare.events_per_orbit": events / len(examples),
        "poincare.y0_err_max": max(e[0] for e in errors),
        "poincare.period_err_max": max(e[1] for e in errors),
    }


class Workload:
    name = ""
    # Boundaries (tracer span or count names) every traced pass must reach.
    expected: frozenset[str] = frozenset()
    # Set by the runner while a traced pass runs.
    tracer = None

    def items(self) -> list:
        raise NotImplementedError

    def op(self, item) -> None:
        raise NotImplementedError

    def warmup_items(self) -> list:
        return self.items()

    def describe(self, item) -> str:
        return repr(item)

    def pass_checks(self) -> list[Optional[str]]:
        """Checks on the pass just run: one entry per check, None if it held."""
        return []

    def check_trace(self, tracer) -> list[str]:
        """Exact cross-checks between a traced pass and its outcomes."""
        return []

    def probes(self) -> dict[str, float]:
        """Per-layer figures measured apart from the ops (traced runs only)."""
        return {}


_PIPELINE = frozenset(
    {
        "model.construct",
        "model.is_continuous",
        "model.classify_singularity",
        "closure.solve",
        "cycle.certify",
        "flow.classify_boundary",
        "flow.flight_time",
        "flow.refine",
        "flow.orbit_samples",
        "flow.closed_form",
    }
)


def _survey_field(rng: random.Random) -> tuple[float, ...]:
    # Same distribution and draw order as scripts/random_survey.py.
    while True:
        a, b, c = (rng.uniform(-3, 3) for _ in range(3))
        if abs(a * a + b * c) >= 0.1:
            return (a, b, c, rng.uniform(-3, 3), rng.uniform(-3, 3))


def _survey_systems(rng: random.Random, count: int) -> list:
    return [
        (_survey_field(rng), _survey_field(rng), _survey_field(rng))
        for _ in range(count)
    ]


class Survey(Workload):
    """Pass k runs systems k * SURVEY_POOL onwards of the seed's stream.

    No system repeats within a run, and pass 0 is the census
    scripts/random_survey.py draws for the same seed, checked against
    ``SURVEY_CENSUS``.  Pass 0 is built in the set-up; each later pass is
    drawn between passes, outside the timed operations.
    """

    name = "survey"
    expected = _PIPELINE

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.pool = _survey_systems(self.rng, SURVEY_POOL)
        self.passes = 0
        self.tally: Counter[str] = Counter()

    def items(self) -> list:
        if self.passes:
            self.pool = _survey_systems(self.rng, SURVEY_POOL)
        self.passes += 1
        self.tally = Counter()
        return self.pool

    def warmup_items(self) -> list:
        return _survey_systems(random.Random(f"warmup-{self.seed}"), SURVEY_WARMUP)

    def describe(self, item) -> str:
        return f"survey system {item!r}"

    def op(self, zones) -> None:
        system = model.PiecewiseSystem.three_zone(
            model.LinearHamiltonianField(*zones[0]),
            model.LinearHamiltonianField(*zones[1]),
            model.LinearHamiltonianField(*zones[2]),
        )
        if model.is_continuous(system)[0]:
            self.tally["continuous"] += 1
            return
        outcome = closure.solve_three_zone(system)
        self.tally[OUTCOME_NAMES.get(type(outcome).__name__, "unrecognised")] += 1
        if not isinstance(outcome, closure.UniqueCycleCandidate):
            return
        result = cycle.certify(system, samples_per_arc=SURVEY_SAMPLES_PER_ARC)
        expect(result.outcome == outcome, "certify re-solved a different candidate")
        if result.certificate is None:
            return
        self.tally["certified"] += 1
        report = cycle.verify_certificate(result.certificate, system)
        expect(
            report.passed,
            f"certificate fails {[c.name for c in report.failures()]}",
        )

    def pass_checks(self) -> list[Optional[str]]:
        want = SURVEY_CENSUS.get(self.seed)
        if self.passes != 1 or want is None:
            return []
        got = {k: v for k, v in self.tally.items() if v}
        if got == want:
            return [None]
        return [f"seed {self.seed} census {got}, expected {want}"]

    def check_trace(self, tracer) -> list[str]:
        certified = tracer.counts["cycle.certified"]
        verified = tracer.calls["cycle.verify"]
        if verified != certified:
            return [f"{certified} certificates but {verified} cycle.verify spans"]
        return []


def time_scaled(text: str, k: Fraction) -> str:
    """A fixture's JSON text with every coefficient multiplied by k > 0.

    The scaled system has the same orbits, corners and singularity types,
    and its times are divided by k, so every check of the fixture holds.
    The coefficients stay exact "p/q" text.
    """
    doc = json.loads(text)
    for zone in doc["zones"]:
        for key, value in zone.items():
            zone[key] = str(Fraction(value) * k)
    return json.dumps(doc)


class _Fixtures(Workload):
    """Ops over the six fixtures, in a seeded order reshuffled every pass.

    Each op gets a (name, JSON text) pair: the fixture time-scaled by a
    seeded k just above 1, drawn afresh for every op; warm-up runs the
    bundled texts unscaled.
    """

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.texts = {name: cli.fixture_text(name) for name in FIXTURES}

    def items(self) -> list:
        names = list(FIXTURES)
        self.rng.shuffle(names)
        return [
            (name, time_scaled(self.texts[name], self._scale())) for name in names
        ]

    def _scale(self) -> Fraction:
        step = self.rng.randint(1, SCALE_STEPS // 16)
        return Fraction(SCALE_STEPS + step, SCALE_STEPS)

    def warmup_items(self) -> list:
        return list(self.texts.items())


class Certify(_Fixtures):
    name = "certify"
    expected = _PIPELINE | {"model.parse", "cycle.verify"}

    def op(self, item: tuple[str, str]) -> None:
        name, text = item
        system = model.system_from_json_dict(json.loads(text))
        expect(not model.is_continuous(system)[0], f"{name}: continuous")
        check_kinds(
            name, [info.kind for _, info, _ in model.singular_points_in_zone(system)]
        )
        result = cycle.certify(system)
        cert = result.certificate
        expect(cert is not None, f"{name}: no certificate ({result.reason})")
        check_corners(name, tuple(y for _, y in cert.corners))
        report = cycle.verify_certificate(cert, system)
        expect(report.passed, f"{name}: certificate fails verification")


_ORACLE_PATH = frozenset(
    {
        "cli.main",
        "model.parse",
        "poincare.fixed_point",
        "poincare.return_map",
        "poincare.first_return",
    }
)


class Oracle(_Fixtures):
    name = "oracle"
    expected = _PIPELINE | _ORACLE_PATH

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.errors: list[tuple[float, float]] = []
        self.out_dir = os.path.join(OUT_DIR, "oracle")
        os.makedirs(self.out_dir, exist_ok=True)

    def items(self) -> list:
        return self._written(super().items())

    def warmup_items(self) -> list:
        return self._written(super().warmup_items())

    def _written(self, items: list) -> list:
        """(name, path) pairs, each text written to its fixture's input file."""
        paths = []
        for name, text in items:
            path = os.path.join(self.out_dir, f"{name.lower()}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            paths.append((name, path))
        return paths

    def op(self, item: tuple[str, str]) -> None:
        name, path = item
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main(["oracle", "--input", path])
        self.errors.append(check_oracle(name, status, out.getvalue()))

    def probes(self) -> dict[str, float]:
        return oracle_work(self.errors)


class Cli(_Fixtures):
    name = "cli"
    expected = _PIPELINE | _ORACLE_PATH | {"cli.render_svg", "cycle.verify"}

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.paths = {
            name: os.path.join(FIXTURE_DIR, f"{name.lower()}.json")
            for name in FIXTURES
        }
        self.env = python_env()
        self.out_dir = os.path.join(OUT_DIR, "cli")
        os.makedirs(self.out_dir, exist_ok=True)
        self.errors: list[tuple[float, float]] = []

    def items(self) -> list:
        pairs = [(command, name) for command in CLI_COMMANDS for name in FIXTURES]
        self.rng.shuffle(pairs)
        return pairs

    def warmup_items(self) -> list:
        return [(command, "CCC") for command in CLI_COMMANDS]

    def _run(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            argv,
            cwd=ROOT,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
        )

    def op(self, item: tuple[str, str]) -> None:
        command, name = item
        args = [command, "--input", self.paths[name]]
        svg = None
        if command == "plot":
            svg = os.path.join(self.out_dir, f"{name.lower()}.svg")
            if os.path.exists(svg):
                os.remove(svg)
            args += ["--output", svg]
        tracer = self.tracer
        if tracer is None:
            proc = self._run([sys.executable, "-m", "pwlham", *args])
        else:
            spans_path = os.path.join(self.out_dir, "child-trace.json")
            flags = ("k" if tracer.op_id < tracer.keep_ops else "") + (
                "c" if tracer.counters else ""
            )
            proc = self._run(
                [sys.executable, CLI_CHILD, spans_path, str(tracer.op_id), flags, *args]
            )
            with open(spans_path, encoding="utf-8") as fh:
                tracer.merge(json.load(fh))
            os.remove(spans_path)
        self._check(command, name, proc, svg)

    def _check(self, command, name, proc, svg) -> None:
        if command == "oracle":
            self.errors.append(check_oracle(name, proc.returncode, proc.stdout))
            return
        expect(
            proc.returncode == 0,
            f"{command} {name}: exit {proc.returncode}: {proc.stderr.strip()}",
        )
        if command == "plot":
            root = ElementTree.parse(svg).getroot()
            expect(
                root.tag.endswith("svg") and any(e.tag.endswith("path") for e in root),
                f"plot {name}: SVG without an orbit path",
            )
            return
        doc = json.loads(proc.stdout)
        if command == "classify":
            expect(doc["continuous"] is False, f"classify {name}: continuous")
            check_kinds(name, [zone["kind"] for zone in doc["zones"]])
        elif command == "solve":
            expect(doc["outcome"] == "unique_candidate", f"solve {name}: {doc}")
            check_corners(name, tuple(doc["corners"][k] for k in ("y0", "y1", "y2", "y3")))
        elif command == "cycle":
            expect(doc["limit_cycle"] is True, f"cycle {name}: no limit cycle")
            check_corners(name, tuple(doc["corners"][k] for k in ("y0", "y1", "y2", "y3")))
        elif command == "verify":
            expect(doc["verified"] is True, f"verify {name}: not verified")

    def probes(self) -> dict[str, float]:
        floor, imported = [], []
        for _ in range(CLI_PROBES):
            for argv, times in (
                ([sys.executable, "-c", "pass"], floor),
                ([sys.executable, "-c", "import pwlham"], imported),
            ):
                start = time.perf_counter()
                proc = self._run(argv)
                times.append(time.perf_counter() - start)
                expect(proc.returncode == 0, f"{argv[-1]!r} exited {proc.returncode}")
        floor_ms = 1e3 * statistics.median(floor)
        return {
            **oracle_work(self.errors),
            "cli.python_floor_ms": floor_ms,
            "cli.import_ms": 1e3 * statistics.median(imported) - floor_ms,
        }


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Survey, Certify, Oracle, Cli)
}
