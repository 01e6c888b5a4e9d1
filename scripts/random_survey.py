#!/usr/bin/env python3
"""Survey the closure-outcome classes over random piecewise systems.

Samples discontinuous three-zone systems with unconstrained coefficients,
classifies each closure outcome, and reports how often an algebraic
candidate survives certification as an actual crossing limit cycle.
"""

import argparse
import random
from collections import Counter

from pwlham.closure import Continuum, NoSolution, UniqueCycleCandidate
from pwlham.cycle import certify
from pwlham.model import LinearHamiltonianField, PiecewiseSystem, is_continuous


def random_field(rng: random.Random) -> LinearHamiltonianField:
    while True:
        a, b, c = (rng.uniform(-3, 3) for _ in range(3))
        if abs(a * a + b * c) >= 0.1:
            return LinearHamiltonianField(a, b, c, rng.uniform(-3, 3), rng.uniform(-3, 3))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=5000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    tally: Counter[str] = Counter()
    certified = 0
    for _ in range(args.count):
        system = PiecewiseSystem.three_zone(
            random_field(rng), random_field(rng), random_field(rng)
        )
        if is_continuous(system, describe=False)[0]:
            continue
        result = certify(system, samples_per_arc=8)
        if isinstance(result.outcome, NoSolution):
            tally["no solution"] += 1
        elif isinstance(result.outcome, Continuum):
            tally["continuum"] += 1
        else:
            assert isinstance(result.outcome, UniqueCycleCandidate)
            tally["unique candidate"] += 1
            if result.certificate is not None:
                certified += 1

    total = sum(tally.values())
    print(f"sampled {total} discontinuous three-zone systems")
    for key, count in tally.most_common():
        print(f"  {key:<18} {count:>6}  ({100.0 * count / total:.1f}%)")
    if tally["unique candidate"]:
        share = 100.0 * certified / tally["unique candidate"]
        print(
            f"  of the candidates, {certified} ({share:.1f}%) certified as "
            f"actual crossing limit cycles"
        )


if __name__ == "__main__":
    main()
