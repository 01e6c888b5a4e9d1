"""End-to-end command-line behaviour: outputs, exit codes, determinism."""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from pwlham import cycle, flow, poincare
from pwlham.cli import (
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_VERIFICATION_FAILED,
    FIXTURE_NAMES,
    _sample_count,
    build_parser,
    bundle_examples,
    fixture_text,
    main,
)
from pwlham.cycle import find_limit_cycle
from pwlham.model import system_from_json_dict
from pwlham.poincare import ORACLE_AGREEMENT_TOL, ORACLE_BRACKETS

from conftest import CENTRE_ARCS, GOLDEN_CORNERS


@pytest.fixture()
def ccc_path(tmp_path):
    path = tmp_path / "ccc.json"
    path.write_text(fixture_text("CCC"), encoding="utf-8")
    return path


GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture()
def continuous_path():
    # a = b = alpha shared, beta absorbing the c jumps: a continuous system.
    return GOLDEN / "continuous.input.json"


def test_continuity_tolerance_scales_with_the_coefficients(tmp_path, capsys):
    # Exactly continuous, but the float beta/c sums miss zero by ~1.8e-12,
    # above an absolute 1e-12 and far below 1e-12 times the 1.6e4 scale.
    doc = {
        "layout": "three",
        "zones": [
            {"a": "1", "b": "2", "c": "12568/3", "alpha": "1/2", "beta": "46588/3"},
            {"a": "1", "b": "2", "c": "-28538/3", "alpha": "1/2", "beta": "5482/3"},
            {"a": "1", "b": "2", "c": "-28333/3", "alpha": "1/2", "beta": "1759"},
        ],
    }
    path = tmp_path / "rounding.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["classify", "--input", str(path)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["continuous"] is True
    assert report["continuity_violations"] == []
    assert main(["solve", "--input", str(path)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {
        "outcome": "continuum",
        "description": "continuous with b != 0: explicit one-parameter family "
        "of closed orbits",
        "has_parametrization": True,
    }


def test_unknown_fixture_name_raises_key_error():
    with pytest.raises(KeyError, match="unknown fixture 'XYZ'"):
        fixture_text("XYZ")


def test_bundle_examples_names_and_coefficients():
    systems = dict(bundle_examples())
    assert tuple(systems) == FIXTURE_NAMES
    first = systems["CCC"]
    assert first.field("L").a == 4.0
    assert first.field("L").beta == 2.75
    assert first.field("C").alpha == pytest.approx(2.0 / 3.0)
    assert first.field("R").c == -10.0


def test_solve_command_writes_candidate(ccc_path, tmp_path):
    out = tmp_path / "solve.json"
    code = main(["solve", "--input", str(ccc_path), "--output", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["outcome"] == "unique_candidate"
    assert doc["corners"]["y0"] == pytest.approx(GOLDEN_CORNERS["CCC"][0], abs=1e-10)


def test_cycle_command_matches_golden_corners(ccc_path, tmp_path):
    out = tmp_path / "cert.json"
    code = main(["cycle", "--input", str(ccc_path), "--output", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["limit_cycle"] is True
    for key, want in zip(("y0", "y1", "y2", "y3"), GOLDEN_CORNERS["CCC"]):
        assert doc["corners"][key] == pytest.approx(want, abs=1e-10)
    assert doc["period"] == pytest.approx(sum(doc["flight_times"].values()))


def test_cycle_command_reports_continuum(continuous_path, tmp_path):
    out = tmp_path / "cycle.json"
    code = main(["cycle", "--input", str(continuous_path), "--output", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["limit_cycle"] is False
    assert doc["closure"]["outcome"] == "continuum"
    assert "continuous" in doc["report"]


def test_classify_command(continuous_path, tmp_path):
    out = tmp_path / "classify.json"
    assert main(["classify", "--input", str(continuous_path),
                 "--output", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["continuous"] is True
    assert doc["continuity_violations"] == []
    assert {z["zone"] for z in doc["zones"]} == {"L", "C", "R"}


def test_oracle_command_agrees(ccc_path, tmp_path):
    out = tmp_path / "oracle.json"
    csv_out = tmp_path / "cycle.csv"
    code = main([
        "oracle", "--input", str(ccc_path), "--output", str(out),
        "--trajectory-csv", str(csv_out),
    ])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["agrees"] is True
    assert doc["difference"]["y0"] <= 1e-6
    assert doc["difference"]["period"] <= 1e-6
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "t,x,y,zone"
    assert len(lines) > 100
    corner = find_limit_cycle(dict(bundle_examples())["CCC"]).corners[0]
    assert lines[1].split(",") == ["0.0", repr(corner[0]), repr(corner[1]), "R"]


def test_verify_command_round_trip(ccc_path, tmp_path):
    cert = tmp_path / "cert.json"
    assert main(["cycle", "--input", str(ccc_path), "--output", str(cert)]) == EXIT_OK
    out = tmp_path / "verify.json"
    code = main([
        "verify", "--input", str(ccc_path), "--certificate", str(cert),
        "--output", str(out),
    ])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["verified"] is True
    assert all(check["passed"] for check in doc["checks"])


def test_verify_command_catches_tampering(ccc_path, tmp_path):
    cert_path = tmp_path / "cert.json"
    main(["cycle", "--input", str(ccc_path), "--output", str(cert_path)])
    doc = json.loads(cert_path.read_text())
    doc["corners"]["y0"] += 1e-3
    cert_path.write_text(json.dumps(doc))
    code = main(["verify", "--input", str(ccc_path),
                 "--certificate", str(cert_path)])
    assert code == 1


def test_verify_command_checks_recorded_values(ccc_path, tmp_path):
    cert_path = tmp_path / "cert.json"
    main(["cycle", "--input", str(ccc_path), "--output", str(cert_path)])
    doc = json.loads(cert_path.read_text())
    for crossing in doc["crossings"]:
        crossing["label"] = "sliding"
    doc["residual_norm"] = 123
    cert_path.write_text(json.dumps(doc))
    out = tmp_path / "verify.json"
    code = main(["verify", "--input", str(ccc_path),
                 "--certificate", str(cert_path), "--output", str(out)])
    assert code == 1
    failed = [c["name"] for c in json.loads(out.read_text())["checks"]
              if not c["passed"]]
    assert failed == ["recorded_values_match"]


@pytest.mark.parametrize(
    "key, value", [("t_R", 1e6), ("t_C1", float("inf")), ("t_C1", float("nan"))],
    ids=["saddle-overflow", "infinite", "nan"],
)
def test_verify_reports_bad_flight_time(tmp_path, capsys, key, value):
    """A tampered flight time is a verification failure with a JSON report,
    not an error: exit 1, nothing on stderr."""
    scs_path = tmp_path / "scs.json"
    scs_path.write_text(fixture_text("SCS"), encoding="utf-8")
    cert_path = tmp_path / "cert.json"
    main(["cycle", "--input", str(scs_path), "--output", str(cert_path)])
    doc = json.loads(cert_path.read_text())
    doc["flight_times"][key] = value
    cert_path.write_text(json.dumps(doc))
    code = main(["verify", "--input", str(scs_path),
                 "--certificate", str(cert_path)])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    failed = [c["name"] for c in json.loads(out)["checks"] if not c["passed"]]
    assert "arc_endpoints" in failed


@pytest.mark.parametrize("name, arc", CENTRE_ARCS)
def test_verify_command_rejects_a_time_a_revolution_late(tmp_path, capsys, name, arc):
    """A saved certificate whose centre arc takes one more revolution, with
    the period to match, fails verify: exit 1, nothing on stderr."""
    path = tmp_path / "system.json"
    path.write_text(fixture_text(name), encoding="utf-8")
    cert_path = tmp_path / "cert.json"
    main(["cycle", "--input", str(path), "--output", str(cert_path)])
    doc = json.loads(cert_path.read_text())
    field = dict(bundle_examples())[name].field(cycle.ARC_ZONES[arc])
    doc["flight_times"][cycle.TIME_KEYS[arc]] += math.tau / field.singularity.modulus
    doc["period"] = sum(doc["flight_times"][key] for key in cycle.TIME_KEYS)
    cert_path.write_text(json.dumps(doc))
    code = main(["verify", "--input", str(path), "--certificate", str(cert_path)])
    out, err = capsys.readouterr()
    assert (code, err) == (EXIT_VERIFICATION_FAILED, "")
    failed = [c["name"] for c in json.loads(out)["checks"] if not c["passed"]]
    assert failed == ["flight_times_first_arrival"]


def test_output_help_names_each_default(capsys):
    for command, default in (("plot", "portrait.svg"), ("solve", "stdout")):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"output file (default: {default})" in help_text


def test_cold_import_skips_unused_modules():
    """Importing the CLI on a bare interpreter (-S: no site hooks) loads none
    of these modules; each one costs start-up time that no command needs.
    Loading the bundled fixtures, whose "p/q" text is converted by integer
    division, loads none of them either."""
    unwanted = [
        "dataclasses", "inspect", "pathlib", "importlib.resources", "csv",
        "fractions", "decimal", "numbers",
    ]
    code = (
        "import pwlham.cli, sys\n"
        "fixtures, unwanted = sys.argv[1], set(sys.argv[2:])\n"
        "print(sorted(unwanted & set(sys.modules)))\n"
        "for name in pwlham.cli.FIXTURE_NAMES:\n"
        "    pwlham.cli.load_system(f'{fixtures}/{name.lower()}.json')\n"
        "print(sorted(unwanted & set(sys.modules)))"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    fixtures = src / "pwlham" / "fixtures"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, str(fixtures), *unwanted],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout == "[]\n[]\n"


def test_plot_command_is_deterministic(ccc_path, tmp_path):
    svg_a = tmp_path / "a.svg"
    svg_b = tmp_path / "b.svg"
    assert main(["plot", "--input", str(ccc_path), "--output", str(svg_a)]) == EXIT_OK
    assert main(["plot", "--input", str(ccc_path), "--output", str(svg_b)]) == EXIT_OK
    assert svg_a.read_bytes() == svg_b.read_bytes()
    text = svg_a.read_text()
    assert text.count("stroke-dasharray") == 2
    assert text.count(" Z\"") == 1
    assert "Σ_L" in text and "Σ_R" in text


def _reference_orbit_samples(field, p0, t_end, n):
    """The sampler as one flow_closed_form call per sample."""
    step = t_end / (n - 1)
    return [p0] + [flow.flow_closed_form(field, p0, k * step) for k in range(1, n)]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_sampler_outputs_match_the_per_sample_reference(
    name, tmp_path, monkeypatch
):
    path = tmp_path / "system.json"
    path.write_text(fixture_text(name), encoding="utf-8")

    def outputs(tag):
        written = []
        for command, suffix in (("plot", "svg"), ("cycle", "json")):
            out = tmp_path / f"{tag}.{suffix}"
            assert main([command, "--input", str(path), "--output", str(out)]) == EXIT_OK
            written.append(out.read_bytes())
        return written

    fast = outputs("fast")
    monkeypatch.setattr(flow, "orbit_samples", _reference_orbit_samples)
    assert outputs("reference") == fast


def test_plot_without_cycle_draws_sample_orbit(continuous_path, tmp_path):
    svg = tmp_path / "cont.svg"
    code = main(["plot", "--input", str(continuous_path), "--output", str(svg)])
    assert code == EXIT_OK
    text = svg.read_text()
    assert text.count("stroke-dasharray") == 2
    assert text.count(" Z\"") == 0  # open orbit, not a closed cycle path


def test_plot_of_a_fast_centre_bounds_its_sample_orbit(tmp_path):
    # Modulus 1e5 in every zone (a continuum, so the sample orbit is drawn):
    # 10 time units would be 5e6 RK4 steps, past the step budget; the orbit
    # spans SAMPLE_ORBIT_RADIANS of rotation instead, some 500 steps.
    centre = {"a": "0", "b": "100000", "c": "-100000", "alpha": "0", "beta": "0"}
    path = tmp_path / "fast.json"
    path.write_text(json.dumps({"layout": "three", "zones": [centre] * 3}))
    svg = tmp_path / "fast.svg"
    assert main(["plot", "--input", str(path), "--output", str(svg)]) == EXIT_OK
    orbit = re.search(r'<path d="M ([^"]*)"', svg.read_text(encoding="utf-8")).group(1)
    assert " Z" not in orbit
    assert orbit.count(" L ") + 1 <= 600


def test_plot_of_a_sliding_orbit_ends_where_it_slides(tmp_path):
    # L and C push right (x' = x + 5), so the sample orbit from (1.5, 1)
    # around R's centre (2, 0) slides on the line x = 1 at (1, -0.5), at
    # t ~ 3 pi / 2; its path is drawn up to there and left open.
    push = {"a": "1", "b": "0", "c": "0", "alpha": "5", "beta": "0"}
    centre = {"a": "0", "b": "1", "c": "-1", "alpha": "0", "beta": "2"}
    path = tmp_path / "sliding.json"
    path.write_text(json.dumps({"layout": "three", "zones": [push, push, centre]}))
    svg = tmp_path / "sliding.svg"
    assert main(["plot", "--input", str(path), "--output", str(svg)]) == EXIT_OK
    text = svg.read_text(encoding="utf-8")
    line_pixel = re.findall(r'<line x1="([0-9.]+)"', text)[-1]  # Σ_R, x = 1
    orbit = re.search(r'<path d="M ([^"]*)"', text).group(1)
    assert " Z" not in orbit
    assert orbit.rsplit(" L ", 1)[1].split()[0] == line_pixel


def test_plot_of_an_overflowing_orbit_has_no_nan(tmp_path, capsys):
    # Saddles with a = 300 outside a centre strip: the sample orbit
    # overflows after about 2.4 time units, at state 3547 of 15002.
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({"layout": "three", "zones": [
        {"a": "300", "b": "1", "c": "1", "alpha": "0", "beta": "0"},
        {"a": "0", "b": "2", "c": "-2", "alpha": "2/3", "beta": "2/3"},
        {"a": "300", "b": "1", "c": "1", "alpha": "0", "beta": "1"},
    ]}), encoding="utf-8")
    svg = tmp_path / "overflow.svg"
    code = main(["plot", "--input", str(path), "--output", str(svg)])
    err = capsys.readouterr().err
    if code == EXIT_OK:
        text = svg.read_text(encoding="utf-8")
        assert "nan" not in text and "inf" not in text
    else:
        assert code == EXIT_INPUT_ERROR
        assert err.startswith("error: ")


def test_plot_without_any_sample_orbit_exits_2(tmp_path, capsys):
    # Extreme coefficients: none of the sample orbit's five starts records
    # two states, so plot has nothing to draw and writes no file.
    keys = ("a", "b", "c", "alpha", "beta")
    zones = [
        (-3.2913825900189404e-13, -2.6684072878637878e+88, -2.0191500954353023e-67,
         -1.1211876787140906e-55, 2.0125650498342034e+64),
        (-1.2952112784133034e+64, 1.0654377716382196e+93, 4.6278411863469884e+79,
         -6.831084575033719e-45, -2.526217611176891e+99),
    ]
    path = tmp_path / "extreme.json"
    path.write_text(json.dumps(
        {"layout": "two", "zones": [dict(zip(keys, zone)) for zone in zones]}
    ), encoding="utf-8")
    svg = tmp_path / "extreme.svg"
    code = main(["plot", "--input", str(path), "--output", str(svg)])
    assert code == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == (
        "error: could not sample a representative orbit for plotting\n"
    )
    assert not svg.exists()


def test_plot_window_and_errors(ccc_path, tmp_path):
    svg = tmp_path / "w.svg"
    code = main(["plot", "--input", str(ccc_path), "--output", str(svg),
                 "--window=-3,3,-3,3"])
    assert code == EXIT_OK
    # A window that leaves the left line x = -1 out draws the right one only.
    code = main(["plot", "--input", str(ccc_path), "--output", str(svg),
                 "--window", "0,3,-3,3"])
    assert code == EXIT_OK
    assert svg.read_text(encoding="utf-8").count("stroke-dasharray") == 1
    # Empty window is an input error.
    code = main(["plot", "--input", str(ccc_path), "--output", str(svg),
                 "--window", "3,-3,0,1"])
    assert code == EXIT_INPUT_ERROR


def test_malformed_json_is_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["solve", "--input", str(bad)]) == EXIT_INPUT_ERROR
    missing = tmp_path / "nope.json"
    assert main(["solve", "--input", str(missing)]) == EXIT_INPUT_ERROR
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"layout": "three", "zones": []}))
    assert main(["solve", "--input", str(schema)]) == EXIT_INPUT_ERROR


@pytest.mark.parametrize("token", ["NaN", "Infinity", "1e400", '"1e400"'])
def test_non_finite_coefficient_is_input_error(tmp_path, capsys, token):
    path = tmp_path / "nonfinite.json"
    text = fixture_text("CCC")
    doc = json.loads(text)
    doc["zones"][1]["b"] = "@"
    path.write_text(json.dumps(doc).replace('"@"', token), encoding="utf-8")
    assert main(["classify", "--input", str(path)]) == EXIT_INPUT_ERROR
    assert "not a finite number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "zone_l",
    [
        {"a": 1e200},  # a^2 + b*c overflows to inf
        {"a": 1e200, "b": 1e200, "c": -1e200},  # inf - inf: nan
        {"a": 1, "b": 1e300, "c": 1e-300, "beta": 1e300},  # the point overflows
    ],
    ids=["det-inf", "det-nan", "point-inf"],
)
def test_non_finite_derived_value_is_input_error(tmp_path, capsys, zone_l):
    doc = json.loads(fixture_text("CCC"))
    doc["zones"][0].update(zone_l)
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    svg = tmp_path / "overflow.svg"
    for argv in (
        ["classify"], ["solve"], ["cycle"], ["verify"], ["oracle"],
        ["plot", "--output", str(svg)],
    ):
        assert main([*argv, "--input", str(path)]) == EXIT_INPUT_ERROR, argv
        err = capsys.readouterr().err
        assert err.startswith("error: zone L: ") and "finite" in err, argv
    assert not svg.exists()


def test_unreadable_path_is_input_error(ccc_path, tmp_path, capsys):
    for argv in (
        ["classify", "--input", str(tmp_path)],
        ["solve", "--input", str(ccc_path), "--output", str(tmp_path)],
        ["verify", "--input", str(ccc_path), "--certificate", str(tmp_path)],
    ):
        assert main(argv) == EXIT_INPUT_ERROR, argv
        assert "error:" in capsys.readouterr().err


def test_round_trip_solve_is_identical(ccc_path, tmp_path):
    from pwlham.model import system_to_json_dict

    system = system_from_json_dict(json.loads(ccc_path.read_text()))
    rewritten = tmp_path / "rewritten.json"
    rewritten.write_text(json.dumps(system_to_json_dict(system)))
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    main(["solve", "--input", str(ccc_path), "--output", str(out_a)])
    main(["solve", "--input", str(rewritten), "--output", str(out_b)])
    assert out_a.read_text() == out_b.read_text()


def test_two_zone_input_supported(tmp_path):
    path = GOLDEN / "two_zone.input.json"
    out = tmp_path / "out.json"
    assert main(["solve", "--input", str(path), "--output", str(out)]) == EXIT_OK
    solved = json.loads(out.read_text())
    assert solved["outcome"] in ("no_solution", "continuum")
    assert main(["classify", "--input", str(path), "--output", str(out)]) == EXIT_OK
    assert {z["zone"] for z in json.loads(out.read_text())["zones"]} == {"L", "R"}
    assert main(["cycle", "--input", str(path), "--output", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["limit_cycle"] is False


@pytest.mark.parametrize("command", ["classify", "solve"])
@pytest.mark.parametrize(
    "name",
    [n.lower() for n in FIXTURE_NAMES]
    + ["continuous", "two_zone", "scs_grazing", "opposite_gaps", "opposite_gaps_b_c_zero"],
)
def test_output_matches_golden_bytes(name, command, tmp_path, capsys):
    # Only +, -, *, / and sqrt reach these outputs, so the bytes are the same
    # on every IEEE platform.
    path = GOLDEN / f"{name}.input.json"
    if name.upper() in FIXTURE_NAMES:
        path = tmp_path / f"{name}.json"
        path.write_text(fixture_text(name), encoding="utf-8")
    assert main([command, "--input", str(path)]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (GOLDEN / f"{name}.{command}.json").read_text(
        encoding="utf-8"
    )


def _assert_matches(actual, expected, where="$"):
    """Keys, strings and bools equal; floats within 1e-12 relative, since
    libm may round sin, cos and exp differently in the last bit."""
    assert type(actual) is type(expected), where
    if isinstance(expected, float):
        scale = max(1.0, abs(actual), abs(expected))
        assert abs(actual - expected) <= 1e-12 * scale, (where, actual, expected)
    elif isinstance(expected, dict):
        assert actual.keys() == expected.keys(), where
        for key, value in expected.items():
            _assert_matches(actual[key], value, f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), where
        for i, (got, want) in enumerate(zip(actual, expected)):
            _assert_matches(got, want, f"{where}[{i}]")
    else:
        assert actual == expected, where


@pytest.mark.parametrize("command", ["cycle", "oracle"])
@pytest.mark.parametrize("name", [n.lower() for n in FIXTURE_NAMES])
def test_output_matches_golden_values(name, command, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(fixture_text(name), encoding="utf-8")
    assert main([command, "--input", str(path)]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    expected = json.loads((GOLDEN / f"{name}.{command}.json").read_text("utf-8"))
    actual = json.loads(captured.out)
    _assert_matches(actual, expected)
    if command == "cycle":
        # Only flight times and the period go through libm; the corners,
        # crossings and residual come from +, -, *, / and sqrt alone.
        for key in ("corners", "crossings", "residual_norm"):
            assert actual[key] == expected[key], key
    else:
        # The oracle's analytic y0 is a corner, so it is exact as well.
        assert actual["analytic"]["y0"] == expected["analytic"]["y0"]


@pytest.mark.parametrize("name", [n.lower() for n in FIXTURE_NAMES])
def test_cycle_golden_corners_are_the_solve_golden_corners(name):
    cycle_doc = json.loads((GOLDEN / f"{name}.cycle.json").read_text("utf-8"))
    solve_doc = json.loads((GOLDEN / f"{name}.solve.json").read_text("utf-8"))
    assert cycle_doc["corners"] == solve_doc["corners"]


@pytest.mark.parametrize("name", [n.lower() for n in FIXTURE_NAMES])
def test_oracle_golden_analytic_values_are_the_solve_and_cycle_goldens(name):
    oracle_doc = json.loads((GOLDEN / f"{name}.oracle.json").read_text("utf-8"))
    solve_doc = json.loads((GOLDEN / f"{name}.solve.json").read_text("utf-8"))
    cycle_doc = json.loads((GOLDEN / f"{name}.cycle.json").read_text("utf-8"))
    assert oracle_doc["analytic"]["y0"] == solve_doc["corners"]["y0"]
    assert oracle_doc["analytic"]["period"] == cycle_doc["period"]


def test_grazing_arrival_is_rejected_not_raised(tmp_path, capsys):
    # SCS with a_C moved so the C-arc arrives at x = -1 with an x-velocity
    # of ~1.9e-8: transversal by TANGENCY_TOL, but so flat that x(t) does not
    # change sign within the flight-time cross-check's tolerance.
    path = GOLDEN / "scs_grazing.input.json"
    outputs = {}
    for argv in (["cycle"], ["verify"], ["oracle"],
                 ["plot", "--output", str(tmp_path / "grazing.svg")]):
        assert main(argv + ["--input", str(path)]) == EXIT_OK, argv
        outputs[argv[0]] = capsys.readouterr()
        assert outputs[argv[0]].err == "", argv
    doc = json.loads(outputs["cycle"].out)
    assert doc["closure"]["outcome"] == "unique_candidate"
    assert doc["limit_cycle"] is False
    assert "cross-check" in doc["report"]


def test_render_svg_rejects_empty_polyline(tmp_path):
    from pwlham.cli import render_svg

    system = dict(bundle_examples())["CCC"]
    with pytest.raises(ValueError):
        render_svg((), (), None, tmp_path / "empty.svg", system)


def test_invalid_options_exit_2(ccc_path, tmp_path):
    svg = str(tmp_path / "bad.svg")
    for argv in (
        ["plot", "--tol", "1e-9"],  # only oracle integrates at a set tol
        ["oracle", "--tol", "nan"],
        ["oracle", "--tol", "inf"],
        ["oracle", "--tol", "1e-60"],  # its RK4 step is too short to return
        ["plot", "--samples", "1"],
        ["plot", "--window", "0,0,0,1"],
        ["plot", "--window=-inf,inf,-3,3"],
        ["plot", "--window=0,1,nan,1"],
        ["solve", "--tol", "1e-6"],  # solve has no tolerance to set
        ["cycle", "--samples", "8"],  # only plot draws the polyline
        ["verify", "--samples", "8"],
    ):
        try:
            code = main([*argv, "--input", str(ccc_path), "--output", svg])
        except SystemExit as exc:  # rejected by the argument parser
            code = exc.code
        assert code == EXIT_INPUT_ERROR, argv


def test_unparsable_numbers_are_named_by_their_option(ccc_path, tmp_path, capsys):
    out = str(tmp_path / "out")
    for argv in (["plot", "--samples", "abc"], ["oracle", "--tol", "abc"]):
        with pytest.raises(SystemExit) as info:
            main([*argv, "--input", str(ccc_path), "--output", out])
        assert info.value.code == EXIT_INPUT_ERROR, argv
        message = capsys.readouterr().err.splitlines()[-1]
        assert f"argument {argv[1]}: " in message and "'abc'" in message, message
        assert not re.search(r"\b_[a-z]", message), message  # no private name


def test_sample_count_is_capped_at_the_step_budget(ccc_path, tmp_path, monkeypatch, capsys):
    """A polyline of 4 * samples points past poincare.SINGLE_STEPS_MAX
    samples per arc is refused at parse time, before any arc is sampled."""
    cap = poincare.SINGLE_STEPS_MAX
    assert cap == 1 << 20
    assert _sample_count(str(cap)) == cap
    sampled = []
    monkeypatch.setattr(flow, "orbit_samples", lambda *args: sampled.append(args))
    svg = tmp_path / "huge.svg"
    argv = ["plot", "--input", str(ccc_path), "--output", str(svg), "--samples", str(cap + 1)]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == EXIT_INPUT_ERROR
    assert f"at most {cap}" in capsys.readouterr().err
    assert sampled == [] and not svg.exists()


def test_a_recording_past_the_step_budget_exits_2(ccc_path, tmp_path, monkeypatch, capsys):
    """plot's sample orbit and oracle's trajectory dump record one state per
    step; past poincare.SINGLE_STEPS_MAX steps they exit 2 and write nothing.
    The dump follows the certified crossing cycle for 1.0001 periods, so it
    is refused before it records a state, and a budget it fits exactly
    records all of it."""
    recorded = []
    integrate = poincare.integrate_numeric
    monkeypatch.setattr(
        poincare, "integrate_numeric",
        lambda *args, until_return=False, **kwargs: recorded.append(until_return)
        or integrate(*args, until_return=until_return, **kwargs),
    )
    monkeypatch.setattr(poincare, "SINGLE_STEPS_MAX", 100)
    svg, csv = tmp_path / "orbit.svg", tmp_path / "orbit.csv"
    oracle = ["oracle", "--input", str(ccc_path), "--trajectory-csv", str(csv)]
    for argv in (
        ["plot", "--input", str(GOLDEN / "two_zone.input.json"), "--output", str(svg)],
        oracle,
    ):
        recorded.clear()
        assert main(argv) == EXIT_INPUT_ERROR, argv
        assert "within 100 single steps" in capsys.readouterr().err, argv
    assert not svg.exists() and not csv.exists()
    assert recorded and all(recorded)  # the oracle ran return maps only
    # 756 whole steps and 4 events (ORBIT_WORK in test_poincare.py).
    monkeypatch.setattr(poincare, "SINGLE_STEPS_MAX", 760)
    recorded.clear()
    assert main(oracle) == EXIT_OK
    assert recorded.count(False) == 1
    assert len(csv.read_text().splitlines()) == 1 + 761


def test_only_plot_sets_the_sample_count(ccc_path, tmp_path, monkeypatch):
    counts = []
    sample = flow.orbit_samples
    monkeypatch.setattr(
        flow, "orbit_samples",
        lambda f, p, t, n: counts.append(n) or sample(f, p, t, n),
    )
    out = str(tmp_path / "out")
    for command in ("cycle", "verify", "oracle"):
        assert main([command, "--input", str(ccc_path), "--output", out]) == EXIT_OK
        assert set(counts) == {2}, command
        counts.clear()
    argv = ["plot", "--input", str(ccc_path), "--output", out, "--samples", "5"]
    assert main(argv) == EXIT_OK
    assert set(counts) == {5}
    counts.clear()
    # The parser is built once per process; no option may leak between calls.
    assert main(["plot", "--input", str(ccc_path), "--output", out]) == EXIT_OK
    assert set(counts) == {256}


def test_oracle_return_map_count(tmp_path, monkeypatch):
    # fixed_point on the narrowest bracket (two ends and the false-position
    # probes; the upper end also gives the slope sign) and the return time.
    calls = []
    first_return = poincare.first_return
    monkeypatch.setattr(
        poincare, "first_return",
        lambda *a, **k: calls.append(a) or first_return(*a, **k),
    )
    counts = {}
    out = str(tmp_path / "oracle.json")
    for name in FIXTURE_NAMES:
        path = tmp_path / f"{name}.json"
        path.write_text(fixture_text(name), encoding="utf-8")
        assert main(["oracle", "--input", str(path), "--output", out]) == EXIT_OK
        counts[name] = len(calls)
        calls.clear()
    assert max(counts.values()) <= 7, counts
    assert sum(counts.values()) <= 40, counts


def test_oracle_brackets_ascend_from_beyond_agreement():
    assert list(ORACLE_BRACKETS) == sorted(set(ORACLE_BRACKETS))
    assert ORACLE_BRACKETS[0] >= 100 * ORACLE_AGREEMENT_TOL


def _run_oracle_with_shifted_y0(tmp_path, monkeypatch, name, shift):
    """Run oracle on a fixture whose certified y0 is moved by shift."""
    certify = cycle.certify

    def shifted(*args, **kwargs):
        result = certify(*args, **kwargs)
        (x0, y0), *rest = result.certificate.corners
        cert = result.certificate._replace(corners=((x0, y0 + shift), *rest))
        return result._replace(certificate=cert)

    monkeypatch.setattr(cycle, "certify", shifted)
    path = tmp_path / "system.json"
    path.write_text(fixture_text(name), encoding="utf-8")
    out = tmp_path / "oracle.json"
    return main(["oracle", "--input", str(path), "--output", str(out)]), out


@pytest.mark.parametrize("name", ["CCC", "SSC"])
def test_oracle_widens_and_reports_a_wrong_y0(tmp_path, monkeypatch, name):
    """A certified y0 off by more than the narrowest bracket: the oracle
    widens, finds the true fixed point and reports the gap (exit 1)."""
    code, out = _run_oracle_with_shifted_y0(tmp_path, monkeypatch, name, 3e-4)
    assert code == EXIT_VERIFICATION_FAILED
    doc = json.loads(out.read_text())
    assert doc["agrees"] is False
    assert doc["difference"]["y0"] == pytest.approx(3e-4, abs=1e-6)
    assert doc["numeric"]["fixed_point"] == pytest.approx(
        GOLDEN_CORNERS[name][0], abs=ORACLE_AGREEMENT_TOL
    )


@pytest.mark.parametrize("name", ["CCC", "SSC"])
def test_oracle_unbracketed_y0_is_a_mismatch(tmp_path, monkeypatch, capsys, name):
    """A certified y0 off by more than the widest bracket: no bracket around
    it changes sign, which is a verification mismatch (exit 1), not bad
    input (exit 2)."""
    code, out = _run_oracle_with_shifted_y0(tmp_path, monkeypatch, name, 0.2)
    assert code == EXIT_VERIFICATION_FAILED
    assert not out.exists()
    y0 = GOLDEN_CORNERS[name][0] + 0.2
    assert capsys.readouterr().err == (
        f"error: no sign-changing displacement bracket around y = {y0:g}\n"
    )


def _relabelled(doc: dict, label: object) -> dict:
    """A certificate document with its first crossing's label replaced."""
    first, *rest = doc["crossings"]
    return {**doc, "crossings": [{**first, "label": label}, *rest]}


@pytest.mark.parametrize(
    "tamper, bad_key",
    [
        (lambda doc: [1, 2], "certificate"),
        (lambda doc: {**doc, "corners": None}, "corners"),
        (lambda doc: {**doc, "crossings": [1, *doc["crossings"][1:]]}, "crossings[0]"),
        (lambda doc: _relabelled(doc, 5), "crossings[0].label"),
        (lambda doc: _relabelled(doc, None), "crossings[0].label"),
        (lambda doc: _relabelled(doc, "crossed"), "crossings[0].label"),
        (lambda doc: {**doc, "period": "soon"}, "period"),
        (lambda doc: {**doc, "period": True}, "period"),
        (lambda doc: {**doc, "period": "12"}, "period"),
        (lambda doc: {**doc, "period": "nan"}, "period"),
        (lambda doc: {**doc, "period": "inf"}, "period"),
        (lambda doc: {k: v for k, v in doc.items() if k != "flight_times"},
         "flight_times"),
        (lambda doc: {**doc, "crossings": {}},
         "certificate.crossings must be a JSON array"),
        # A JSON integer past the float range.
        (lambda doc: {**doc, "period": 10**400},
         "certificate.period must be a number"),
    ],
    ids=["root-array", "null-corners", "crossing-not-object", "number-label",
         "null-label", "unknown-label", "text-period",
         "bool-period", "text-12", "text-nan", "text-inf", "no-flight-times",
         "crossings-object", "period-401-digits"],
)
def test_malformed_certificate_is_input_error(ccc_path, tmp_path, capsys,
                                              tamper, bad_key):
    cert_path = tmp_path / "cert.json"
    main(["cycle", "--input", str(ccc_path), "--output", str(cert_path)])
    cert_path.write_text(json.dumps(tamper(json.loads(cert_path.read_text()))))
    code = main(["verify", "--input", str(ccc_path),
                 "--certificate", str(cert_path)])
    assert code == EXIT_INPUT_ERROR
    assert bad_key in capsys.readouterr().err


def _ccc_with(zones):
    """CCC's document with its zone list passed through zones."""
    doc = json.loads(fixture_text("CCC"))
    return {**doc, "zones": zones(doc["zones"])}


def _ccc_zone_c(**coefficients):
    """CCC's document with coefficients of zone C replaced."""
    return _ccc_with(lambda zones: [zones[0], {**zones[1], **coefficients}, zones[2]])


@pytest.mark.parametrize(
    "argv, doc, message",
    [
        (["plot", "--window", "1,2,3"], None,
         "argument --window: window must be x0,x1,y0,y1"),
        (["plot", "--window", "a,b,c,d"], None,
         "argument --window: bad window 'a,b,c,d'"),
        (["classify"], _ccc_with(lambda zones: [1, 2, 3]),
         "error: zone L: expected an object"),
        (["classify"], _ccc_with(lambda zones: [
            {k: v for k, v in zones[0].items() if k != "beta"}, *zones[1:]]),
         "error: zone L: missing keys ['beta']"),
        (["classify"], _ccc_zone_c(a=True),
         "error: zone C, field 'a': expected a number, got True"),
        (["classify"], _ccc_zone_c(b=[1]),
         "error: zone C, field 'b': expected a number, got list"),
    ],
    ids=["window-three-values", "window-not-numbers", "zone-not-object",
         "zone-missing-beta", "bool-coefficient", "list-coefficient"],
)
def test_outside_input_exits_2_with_its_reason(
    ccc_path, tmp_path, capsys, argv, doc, message
):
    path = ccc_path
    if doc is not None:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    try:
        code = main([*argv, "--input", str(path), "--output", str(out)])
    except SystemExit as exc:  # rejected by the argument parser
        code = exc.code
    assert code == EXIT_INPUT_ERROR
    assert capsys.readouterr().err.splitlines()[-1].endswith(message)
    assert not out.exists()


def test_a_certificate_for_a_two_zone_system_exits_2(ccc_path, tmp_path, capsys):
    cert_path = tmp_path / "ccc.certificate.json"
    assert main(["cycle", "--input", str(ccc_path), "--output", str(cert_path)]) == EXIT_OK
    code = main(["verify", "--input", str(GOLDEN / "two_zone.input.json"),
                 "--certificate", str(cert_path)])
    assert code == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == (
        "error: certificates only exist for three-zone systems\n"
    )


# Generic zones beside one or two outer zones whose b and affine factor
# vanish, and an L zone with b = 0 whose affine factor does not.
_GENERIC = {"a": "3/10", "b": "6/5", "c": "7/10", "alpha": "-2/5", "beta": "9/10"}
_R_FLAT = {"a": "1", "b": "0", "c": "2", "alpha": "-1", "beta": "1/2"}
_L_FLAT = {"a": "1", "b": "0", "c": "2", "alpha": "1", "beta": "1/2"}
_L_TILTED = {"a": "1", "b": "0", "c": "2", "alpha": "2", "beta": "1/2"}
_C_COLLAPSE = {"a": "1", "b": "0", "c": "-3/2", "alpha": "1", "beta": "1/5"}
_C_AFFINE = {"a": "1", "b": "0", "c": "-3/2", "alpha": "2", "beta": "1/5"}
_C_CURVED = {"a": "1/10", "b": "2", "c": "-3/2", "alpha": "4/5", "beta": "1/5"}


@pytest.mark.parametrize(
    "zones, expected",
    [
        ((_GENERIC, _C_COLLAPSE, _R_FLAT), {
            "outcome": "no_solution",
            "reason": "b_R = a_R + alpha_R = b_C = alpha_C - a_C = 0 with "
                      "b_L != 0: corners collapse",
        }),
        ((_L_FLAT, _C_COLLAPSE, _GENERIC), {
            "outcome": "no_solution",
            "reason": "b_L = a_L - alpha_L = b_C = alpha_C - a_C = 0 with "
                      "b_R != 0: corners collapse",
        }),
        ((_GENERIC, _C_AFFINE, _R_FLAT), {
            "outcome": "continuum",
            "description": "R-zone equation vanishes, inner equations affine "
                           "in the free ordinates",
            "has_parametrization": False,
        }),
        ((_L_FLAT, _C_AFFINE, _GENERIC), {
            "outcome": "continuum",
            "description": "L-zone equation vanishes, inner equations affine "
                           "in the free ordinates",
            "has_parametrization": False,
        }),
        ((_GENERIC, _C_CURVED, _R_FLAT), {
            "outcome": "continuum",
            "description": "R-zone equation vanishes identically, b_L b_C != 0",
            "has_parametrization": False,
        }),
        ((_L_FLAT, _C_CURVED, _GENERIC), {
            "outcome": "continuum",
            "description": "L-zone equation vanishes identically, b_R b_C != 0",
            "has_parametrization": False,
        }),
        ((_L_FLAT, _C_COLLAPSE, _R_FLAT), {
            "outcome": "no_solution",
            "reason": "all of b_R, a_R + alpha_R, b_L, a_L - alpha_L, b_C, "
                      "alpha_C - a_C vanish: corners collapse",
        }),
        ((_L_FLAT, _C_AFFINE, _R_FLAT), {
            "outcome": "continuum",
            "description": "outer equations vanish, degenerate inner equations "
                           "leave free ordinates",
            "has_parametrization": False,
        }),
        ((_L_FLAT, _C_CURVED, _R_FLAT), {
            "outcome": "continuum",
            "description": "outer equations vanish identically, b_C != 0",
            "has_parametrization": False,
        }),
        ((_L_TILTED, _C_CURVED, _GENERIC), {
            "outcome": "no_solution",
            "reason": "b_L = 0 with a_L - alpha_L != 0",
        }),
    ],
    ids=["R-collapse", "L-collapse", "R-affine", "L-affine", "R-vanishes",
         "L-vanishes", "both-collapse", "both-affine", "both-vanish", "L-tilted"],
)
def test_solve_one_vanishing_outer_zone(tmp_path, zones, expected):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"layout": "three", "zones": list(zones)}))
    out = tmp_path / "solve.json"
    assert main(["solve", "--input", str(path), "--output", str(out)]) == EXIT_OK
    assert json.loads(out.read_text()) == expected
