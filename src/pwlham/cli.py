"""Command-line front end: classify, solve, certify, cross-check and plot.

Commands read a system-definition JSON document (coefficients may be exact
rational strings such as "11/4"), run the requested analysis and emit JSON
(2-space indent, sorted keys), CSV trajectories or deterministic SVG 1.1
phase portraits.  Exit status: 0 for a completed analysis (including "no
limit cycle", which is an answer, not a failure), 1 for a verification
mismatch, 2 for unusable input.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Optional, Sequence

from . import closure, cycle, poincare
from .model import (
    PiecewiseSystem,
    Point,
    is_continuous,
    load_system,
    singular_points_in_zone,
    system_from_json_dict,
)

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INPUT_ERROR = 2

FIXTURE_NAMES = ("CCC", "SCC", "SCS", "CSC", "SSS", "SSC")

CANVAS_WIDTH = 800
CANVAS_HEIGHT = 600
CANVAS_MARGIN = 60.0

# plot writes here when --output is missing; the other commands print.
PLOT_OUTPUT = "portrait.svg"

# Only plot draws the polyline; the other commands use none of it, so they
# sample each arc at its two end points.
UNPLOTTED_SAMPLES_PER_ARC = 2

# plot's sample orbit spans at most this many radians of its fastest zone (and
# at most 10 time units): some 3,560 RK4 steps or fewer at the default tol.
SAMPLE_ORBIT_RADIANS = 100.0


def bundle_examples() -> list[tuple[str, PiecewiseSystem]]:
    """The six bundled three-zone systems with one limit cycle each.

    Names encode the zone singularity types in L, C, R order (C center,
    S saddle).  Coefficients are stored as exact rational strings.
    """
    out = []
    for name in FIXTURE_NAMES:
        doc = json.loads(fixture_text(name))
        out.append((name, system_from_json_dict(doc)))
    return out


def fixture_text(name: str) -> str:
    """Raw JSON text of a bundled system definition."""
    if name.upper() not in FIXTURE_NAMES:
        raise KeyError(f"unknown fixture {name!r}; have {FIXTURE_NAMES}")
    path = os.path.join(os.path.dirname(__file__), "fixtures", f"{name.lower()}.json")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# --- SVG rendering -----------------------------------------------------------


def render_svg(
    polyline: Sequence[Point],
    corners: Sequence[Point],
    window: Optional[tuple[float, float, float, float]],
    path: str,
    system: PiecewiseSystem,
) -> None:
    """Write a deterministic 800x600 SVG phase portrait.

    Switching lines are dashed and labelled and the polyline is drawn as a
    path.  With corners (a cycle's) the path is closed and the corners get
    labelled dots; without, the path stays open.  Identical inputs produce
    byte-identical files.
    """
    if not polyline:
        raise ValueError("nothing to plot: empty polyline")

    lines = list(system.layout.switching_lines)
    singular = [info.location for _, info, _ in singular_points_in_zone(system)]

    if window is None:
        window = _default_window(polyline, [x for _, x in lines])
    x_lo, x_hi, y_lo, y_hi = window
    span_x = x_hi - x_lo
    span_y = y_hi - y_lo
    # Also rejects NaN and infinite ends, which would print as nan pixels.
    if not (0.0 < span_x < math.inf and 0.0 < span_y < math.inf):
        raise ValueError(f"empty or non-finite plot window {window}")
    draw_w = CANVAS_WIDTH - 2.0 * CANVAS_MARGIN
    draw_h = CANVAS_HEIGHT - 2.0 * CANVAS_MARGIN

    def px(x: float) -> float:
        return CANVAS_MARGIN + (x - x_lo) / span_x * draw_w

    def py(y: float) -> float:
        return CANVAS_HEIGHT - CANVAS_MARGIN - (y - y_lo) / span_y * draw_h

    parts: list[str] = []
    parts.append('<?xml version="1.0" encoding="UTF-8"?>')
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{CANVAS_WIDTH}" height="{CANVAS_HEIGHT}" '
        f'viewBox="0 0 {CANVAS_WIDTH} {CANVAS_HEIGHT}">'
    )
    parts.append(
        f'<rect x="0" y="0" width="{CANVAS_WIDTH}" height="{CANVAS_HEIGHT}" '
        f'fill="white"/>'
    )

    for line_id, line_x in lines:
        if not (x_lo <= line_x <= x_hi):
            continue
        x_pix = px(line_x)
        parts.append(
            f'<line x1="{x_pix:.3f}" y1="{CANVAS_MARGIN:.3f}" '
            f'x2="{x_pix:.3f}" y2="{CANVAS_HEIGHT - CANVAS_MARGIN:.3f}" '
            f'stroke="#555555" stroke-width="1" stroke-dasharray="6,4"/>'
        )
        label = "Σ_" + line_id
        parts.append(
            f'<text x="{x_pix + 6.0:.3f}" y="{CANVAS_MARGIN - 8.0:.3f}" '
            f'font-family="sans-serif" font-size="16" fill="#555555">'
            f"{label}</text>"
        )

    points = " L ".join(f"{px(x):.3f} {py(y):.3f}" for x, y in polyline)
    suffix = " Z" if corners else ""
    parts.append(
        f'<path d="M {points}{suffix}" fill="none" stroke="#1f5fbf" '
        f'stroke-width="1.5"/>'
    )

    for sx, sy in singular:
        if x_lo <= sx <= x_hi and y_lo <= sy <= y_hi:
            parts.append(
                f'<circle cx="{px(sx):.3f}" cy="{py(sy):.3f}" r="3.5" '
                f'fill="white" stroke="#b03030" stroke-width="1.2"/>'
            )

    for (cx, cy), key in zip(corners, cycle.CORNER_KEYS):
        parts.append(
            f'<circle cx="{px(cx):.3f}" cy="{py(cy):.3f}" r="3" '
            f'fill="#1f5fbf"/>'
        )
        anchor_dx = 8.0 if cx >= 0 else -8.0
        anchor = "start" if cx >= 0 else "end"
        parts.append(
            f'<text x="{px(cx) + anchor_dx:.3f}" y="{py(cy) - 6.0:.3f}" '
            f'font-family="sans-serif" font-size="13" fill="#202020" '
            f'text-anchor="{anchor}">({cx:g}, {key})</text>'
        )

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def _default_window(
    polyline: Sequence[tuple[float, float]],
    line_positions: Sequence[float],
) -> tuple[float, float, float, float]:
    """Frame the orbit and the switching lines; singular points may fall
    outside and are then simply not drawn."""
    xs = [p[0] for p in polyline] + list(line_positions)
    ys = [p[1] for p in polyline]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    pad_x = 0.12 * (x_hi - x_lo) + 1e-6
    pad_y = 0.12 * (y_hi - y_lo) + 1e-6
    return (x_lo - pad_x, x_hi + pad_x, y_lo - pad_y, y_hi + pad_y)


# --- commands ----------------------------------------------------------------


def _emit_json(args: argparse.Namespace, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_classify(args: argparse.Namespace, system: PiecewiseSystem) -> int:
    continuous, violations = is_continuous(system)
    zones = []
    for zone_id, info, inside in singular_points_in_zone(system):
        zones.append(
            {
                "zone": zone_id,
                "kind": info.kind,
                "modulus": info.modulus,
                "singular_point": list(info.location),
                "inside_zone": inside,
            }
        )
    _emit_json(
        args,
        {
            "layout": system.layout.name,
            "continuous": continuous,
            "continuity_violations": [
                f"{name} = {gap:g}" for name, gap in violations.items()
            ],
            "zones": zones,
        },
    )
    return EXIT_OK


def _outcome_payload(outcome: closure.ClosureOutcome) -> dict:
    if isinstance(outcome, closure.UniqueCycleCandidate):
        return {"outcome": "unique_candidate", "corners": outcome._asdict()}
    if isinstance(outcome, closure.NoSolution):
        return {"outcome": "no_solution", "reason": outcome.reason}
    return {
        "outcome": "continuum",
        "description": outcome.description,
        "has_parametrization": outcome.parametrization is not None,
    }


def _cmd_solve(args: argparse.Namespace, system: PiecewiseSystem) -> int:
    _emit_json(args, _outcome_payload(closure.solve(system)))
    return EXIT_OK


def _cmd_cycle(args: argparse.Namespace, system: PiecewiseSystem) -> int:
    result = cycle.certify(system, samples_per_arc=UNPLOTTED_SAMPLES_PER_ARC)
    if result.certificate is None:
        _emit_json(
            args,
            {
                "limit_cycle": False,
                "report": result.reason,
                "closure": _outcome_payload(result.outcome),
            },
        )
        return EXIT_OK
    payload = cycle.certificate_to_json_dict(result.certificate)
    payload["limit_cycle"] = True
    _emit_json(args, payload)
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace, system: PiecewiseSystem) -> int:
    result = cycle.certify(system, samples_per_arc=UNPLOTTED_SAMPLES_PER_ARC)
    if result.certificate is None:
        _emit_json(
            args,
            {"limit_cycle": False, "report": result.reason},
        )
        return EXIT_OK
    cert = result.certificate
    y0 = cert.corners[0][1]
    # A certified cycle the oracle cannot bracket is a mismatch, not bad input.
    try:
        numeric_y0, d_hi = poincare.fixed_point_near(system, y0, tol=args.tol)
    except poincare.BadBracket as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED
    _, return_time = poincare.first_return(system, numeric_y0, tol=args.tol)
    y_gap = abs(numeric_y0 - y0)
    t_gap = abs(return_time - cert.period)
    agreement_tol = poincare.ORACLE_AGREEMENT_TOL
    agrees = y_gap <= agreement_tol and t_gap <= agreement_tol
    if args.trajectory_csv:
        t_max = cert.period * 1.0001
        # The recording follows a crossing cycle, so it ends at t_max, not at
        # a slide or an overflow: a step budget it cannot meet is refused
        # before it stores a state.
        poincare.check_step_budget(system, t_max, args.tol)
        trajectory = poincare.integrate_numeric(
            system, cert.corners[0], t_max=t_max, tol=args.tol
        )
        with open(args.trajectory_csv, "w", encoding="utf-8") as fh:
            poincare.trajectory_to_csv(trajectory, fh)
    _emit_json(
        args,
        {
            "analytic": {"y0": y0, "period": cert.period},
            "numeric": {"fixed_point": numeric_y0, "return_time": return_time},
            "difference": {"y0": y_gap, "period": t_gap},
            # The bracket's ends have displacements of opposite sign, so the
            # upper one gives the slope: positive means nearby orbits move away.
            "displacement_slope_sign": 1.0 if d_hi > 0.0 else -1.0,
            "tolerance": agreement_tol,
            "agrees": agrees,
        },
    )
    return EXIT_OK if agrees else EXIT_VERIFICATION_FAILED


def _cmd_plot(args: argparse.Namespace, system: PiecewiseSystem) -> int:
    certificate = cycle.find_limit_cycle(system, samples_per_arc=args.samples)
    if certificate is not None:
        polyline, corners = certificate.polyline, certificate.corners
    else:
        # No isolated cycle: plot a sample orbit for context.
        polyline, corners = _sample_orbit(system), ()
    render_svg(polyline, corners, args.window, args.output or PLOT_OUTPUT, system)
    return EXIT_OK


def _sample_orbit(system: PiecewiseSystem) -> list[Point]:
    """A representative orbit for systems without a certified cycle.

    Starts strictly inside the rightmost zone, at the default tol, and runs
    for min(10, SAMPLE_ORBIT_RADIANS / fastest zone modulus); an orbit
    that runs into a sliding segment is plotted up to that point, one that
    overflows up to its last finite state (where integrate_numeric ends it).
    """
    x_start = system.layout.switching_lines[-1][1] + 0.5
    fastest = max(field.singularity.modulus for field in system.fields)
    t_max = min(10.0, SAMPLE_ORBIT_RADIANS / fastest)
    for y_start in (1.0, -1.0, 2.0, 0.5, 3.0):
        try:
            trajectory = poincare.integrate_numeric(
                system, (x_start, y_start), t_max=t_max
            )
        except poincare.SlidingEncountered as exc:
            trajectory = exc.trajectory
        points = [state.point for state in trajectory.states]
        if len(points) >= 2:
            return points
    raise ValueError("could not sample a representative orbit for plotting")


def _cmd_verify(args: argparse.Namespace, system: PiecewiseSystem) -> int:
    if args.certificate:
        with open(args.certificate, encoding="utf-8") as fh:
            doc = json.load(fh)
        certificate = cycle.certificate_from_json_dict(doc)
    else:
        certificate = cycle.find_limit_cycle(
            system, samples_per_arc=UNPLOTTED_SAMPLES_PER_ARC
        )
        if certificate is None:
            _emit_json(
                args,
                {"verified": False, "report": "no certificate to verify"},
            )
            return EXIT_OK
    report = cycle.verify_certificate(certificate, system)
    _emit_json(
        args,
        {
            "verified": report.passed,
            "checks": [c._asdict() for c in report.checks],
        },
    )
    return EXIT_OK if report.passed else EXIT_VERIFICATION_FAILED


def _parse_window(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("window must be x0,x1,y0,y1")
    try:
        window = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad window {text!r}") from exc
    if not all(math.isfinite(v) for v in window):
        raise argparse.ArgumentTypeError(f"window {text!r} is not finite")
    return window


def _tolerance(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"tolerance {text!r} is not a number") from None
    if not 0.0 < tol < float("inf"):  # also rejects nan
        raise argparse.ArgumentTypeError("tolerance must be positive and finite")
    return tol


def _sample_count(text: str) -> int:
    # The polyline keeps 4 * samples points; the cap is the budget of states
    # a recorded orbit keeps.
    try:
        samples = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"sample count {text!r} is not a whole number"
        ) from None
    if not 2 <= samples <= poincare.SINGLE_STEPS_MAX:
        raise argparse.ArgumentTypeError(
            f"sample count must be at least 2 and at most {poincare.SINGLE_STEPS_MAX}"
        )
    return samples


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pwlham",
        description=(
            "Crossing limit cycles of planar piecewise linear Hamiltonian "
            "systems with vertical switching lines"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text in (
        ("classify", _cmd_classify,
         "per-zone singularity types and continuity report"),
        ("solve", _cmd_solve,
         "closure-equation outcome: none, unique candidate, continuum"),
        ("cycle", _cmd_cycle,
         "certify the limit cycle (or report why there is none)"),
        ("oracle", _cmd_oracle,
         "cross-check the cycle against numerical integration"),
        ("plot", _cmd_plot, "render an SVG phase portrait"),
        ("verify", _cmd_verify,
         "re-derive and check every certificate invariant"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(handler=handler)
        cmd.add_argument("--input", required=True, help="system definition JSON")
        default_output = PLOT_OUTPUT if name == "plot" else "stdout"
        cmd.add_argument("--output", help=f"output file (default: {default_output})")
        if name == "plot":
            cmd.add_argument("--samples", type=_sample_count,
                             default=cycle.DEFAULT_SAMPLES_PER_ARC,
                             help="polyline samples per arc")
            cmd.add_argument("--window", type=_parse_window,
                             help="plot window x0,x1,y0,y1")
        if name == "oracle":
            cmd.add_argument("--tol", type=_tolerance, default=poincare.DEFAULT_TOL,
                             help="numerical integration tolerance")
            cmd.add_argument("--trajectory-csv",
                             help="also dump the cycle trajectory as CSV")
        if name == "verify":
            cmd.add_argument("--certificate",
                             help="verify this saved certificate JSON instead "
                                  "of recomputing one")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args, load_system(args.input))
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
