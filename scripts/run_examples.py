#!/usr/bin/env python3
"""Certify the six bundled systems and cross-check each against the oracle.

Prints one row per system: corner ordinates, arc times, period, and the
agreement between the analytic cycle and the numerically measured fixed
point / return time.
"""

import time

from pwlham.cli import bundle_examples
from pwlham.cycle import certify
from pwlham.poincare import first_return, fixed_point


def main() -> None:
    header = (
        f"{'system':<6} {'y0':>12} {'y1':>12} {'y2':>12} {'y3':>12} "
        f"{'period':>12} {'|fp err|':>10} {'|T err|':>10} {'secs':>6}"
    )
    print(header)
    print("-" * len(header))
    for name, system in bundle_examples():
        t0 = time.perf_counter()
        result = certify(system)
        cert = result.certificate
        if cert is None:
            print(f"{name:<6} no limit cycle: {result.reason}")
            continue
        y0 = cert.corners[0][1]
        numeric_y0 = fixed_point(system, (y0 - 1e-3, y0 + 1e-3), tol=1e-9).y
        _, return_time = first_return(system, numeric_y0, tol=1e-9)
        elapsed = time.perf_counter() - t0
        ys = [p[1] for p in cert.corners]
        print(
            f"{name:<6} {ys[0]:>12.8f} {ys[1]:>12.8f} {ys[2]:>12.8f} "
            f"{ys[3]:>12.8f} {cert.period:>12.8f} "
            f"{abs(numeric_y0 - y0):>10.2e} "
            f"{abs(return_time - cert.period):>10.2e} {elapsed:>6.2f}"
        )
        times = ", ".join(f"{t:.6f}" for t in cert.flight_times)
        products = ", ".join(f"{c.product:.4f}" for c in cert.crossings)
        print(f"{'':<6}   arc times [{times}]  crossing products [{products}]")


if __name__ == "__main__":
    main()
