#!/usr/bin/env python3
"""Render SVG phase portraits for the six bundled systems into ./portraits."""

import argparse
from pathlib import Path

from pwlham.cli import bundle_examples, render_svg
from pwlham.cycle import find_limit_cycle


def main() -> None:
    argparse.ArgumentParser(description=__doc__).parse_args()
    out = Path("portraits")
    out.mkdir(exist_ok=True)
    for name, system in bundle_examples():
        cert = find_limit_cycle(system)
        if cert is None:
            print(f"{name}: no limit cycle, skipped")
            continue
        path = out / f"{name.lower()}.svg"
        render_svg(cert, None, path, system=system)
        print(f"{name}: wrote {path}")


if __name__ == "__main__":
    main()
