"""Crossing limit cycles of planar piecewise linear Hamiltonian systems.

The package analyses planar systems built from affine Hamiltonian vector
fields on two or three vertical strips.  The closure (energy-matching)
equations for periodic orbits are solved in closed form and classified
exhaustively (no solution / unique candidate / continuum); a surviving
candidate is certified as a crossing limit cycle with exact arc flows and
flight times, and cross-checked by an independent numerical return map.
"""

from .closure import (
    Continuum,
    NoSolution,
    UniqueCycleCandidate,
    solve,
    solve_three_zone,
)
from .cycle import CycleCertificate, certify, find_limit_cycle, verify_certificate
from .model import LinearHamiltonianField, PiecewiseSystem, load_system
from .poincare import fixed_point

__all__ = [
    "LinearHamiltonianField",
    "PiecewiseSystem",
    "load_system",
    "solve",
    "solve_three_zone",
    "NoSolution",
    "UniqueCycleCandidate",
    "Continuum",
    "certify",
    "find_limit_cycle",
    "CycleCertificate",
    "verify_certificate",
    "fixed_point",
]

__version__ = "0.1.0"
