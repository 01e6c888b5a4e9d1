"""Reference answers the benchmark checks every operation against.

The benchmark keeps its own copy of the six bundled systems' corner
ordinates, evaluated from their closed radical forms, so that a change to
the package or to its tests cannot move the yardstick.  It also pins the
survey census of the first 20,000 systems of each development seed and of
the held-out seed.
"""

from __future__ import annotations

import math

# Bundled three-zone systems, named after their L, C, R singularity types.
FIXTURES = ("CCC", "SCC", "SCS", "CSC", "SSS", "SSC")

KIND_OF_LETTER = {"C": "center", "S": "saddle"}

# Corner ordinates must match the closed forms to this absolute error.
CORNER_TOL = 1e-10

# The numeric fixed point and return time must match the analytic cycle to
# this absolute error (the value the package's oracle command states).
ORACLE_AGREEMENT_TOL = 1e-6

_SQ_CCC = math.sqrt(1259.0 / 235.0)
_SQ_SCC = math.sqrt(5.0)
_SQ_SCS = math.sqrt(2.0 / 7.0)
_SQ_CSC = math.sqrt(7.0 / 3.0)
_SQ_SSS = math.sqrt(26.0)
_SQ_SSC = math.sqrt(43.0 / 470.0)

# (y0, y1, y2, y3) per fixture.
GOLDEN_CORNERS: dict[str, tuple[float, float, float, float]] = {
    "CCC": (
        31.0 / 48.0 * _SQ_CCC,
        -31.0 / 48.0 * _SQ_CCC,
        5.0 / 16.0 - _SQ_CCC / 3.0,
        5.0 / 16.0 + _SQ_CCC / 3.0,
    ),
    "SCC": (
        2.0 * _SQ_SCC / 3.0,
        -2.0 * _SQ_SCC / 3.0,
        (1.0 - _SQ_SCC) / 3.0,
        (1.0 + _SQ_SCC) / 3.0,
    ),
    "SCS": (
        18.0 / 5.0 * _SQ_SCS,
        -18.0 / 5.0 * _SQ_SCS,
        2.0 / 5.0 - 2.0 * _SQ_SCS,
        2.0 / 5.0 + 2.0 * _SQ_SCS,
    ),
    "CSC": (
        5.0 / 12.0 * _SQ_CSC,
        -5.0 / 12.0 * _SQ_CSC,
        0.25 - 7.0 * math.sqrt(21.0) / 36.0,
        0.25 + 7.0 * math.sqrt(21.0) / 36.0,
    ),
    "SSS": (
        (43.0 * _SQ_SSS - 12.0) / 240.0,
        -(43.0 * _SQ_SSS + 12.0) / 240.0,
        -3.0 / 8.0 * math.sqrt(13.0 / 2.0),
        3.0 / 8.0 * math.sqrt(13.0 / 2.0),
    ),
    "SSC": (
        43.0 / 24.0 * _SQ_SSC - 0.1,
        -43.0 / 24.0 * _SQ_SSC - 0.1,
        -17.0 / 8.0 * _SQ_SSC,
        17.0 / 8.0 * _SQ_SSC,
    ),
}


class Mismatch(Exception):
    """An operation completed but its answer is wrong."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def check_corners(name: str, corners: tuple[float, ...]) -> None:
    """Corner ordinates within CORNER_TOL of the closed forms."""
    gaps = [abs(got - want) for got, want in zip(corners, GOLDEN_CORNERS[name])]
    expect(
        len(corners) == 4 and max(gaps) <= CORNER_TOL,
        f"{name}: corners {corners} off the closed forms by {max(gaps):.3e}",
    )


def check_kinds(name: str, kinds: list[str]) -> None:
    """Zone singularity types spell the fixture's name."""
    want = [KIND_OF_LETTER[letter] for letter in name]
    expect(kinds == want, f"{name}: zone kinds {kinds}, expected {want}")


# Outcomes of the first survey pass per seed: the first 20,000 systems
# scripts/random_survey.py draws for the seed, counted by closure outcome,
# plus the certificates that pass.  Outcomes that never occur are left out.
SURVEY_CENSUS: dict[int, dict[str, int]] = {
    0: {'certified': 5, 'no_solution': 12650, 'unique_candidate': 7350},
    1: {'certified': 6, 'no_solution': 12678, 'unique_candidate': 7322},
    2: {'certified': 7, 'no_solution': 12669, 'unique_candidate': 7331},
    3: {'certified': 9, 'no_solution': 12662, 'unique_candidate': 7338},
    4: {'certified': 7, 'no_solution': 12664, 'unique_candidate': 7336},
    5: {'certified': 7, 'no_solution': 12685, 'unique_candidate': 7315},
    6: {'certified': 3, 'no_solution': 12656, 'unique_candidate': 7344},
    7: {'certified': 10, 'no_solution': 12693, 'unique_candidate': 7307},
    8: {'certified': 6, 'no_solution': 12580, 'unique_candidate': 7420},
    9: {'certified': 6, 'no_solution': 12532, 'unique_candidate': 7468},
    10: {'certified': 13, 'no_solution': 12559, 'unique_candidate': 7441},
    11: {'certified': 6, 'no_solution': 12635, 'unique_candidate': 7365},
    12: {'certified': 9, 'no_solution': 12583, 'unique_candidate': 7417},
    13: {'certified': 9, 'no_solution': 12580, 'unique_candidate': 7420},
    14: {'certified': 4, 'no_solution': 12553, 'unique_candidate': 7447},
    15: {'certified': 5, 'no_solution': 12629, 'unique_candidate': 7371},
    16: {'certified': 6, 'no_solution': 12541, 'unique_candidate': 7459},
    17: {'certified': 6, 'no_solution': 12625, 'unique_candidate': 7375},
    18: {'certified': 14, 'no_solution': 12620, 'unique_candidate': 7380},
    19: {'certified': 8, 'no_solution': 12691, 'unique_candidate': 7309},
    20: {'certified': 8, 'no_solution': 12539, 'unique_candidate': 7461},
    21: {'certified': 7, 'no_solution': 12565, 'unique_candidate': 7435},
    22: {'certified': 8, 'no_solution': 12595, 'unique_candidate': 7405},
    23: {'certified': 9, 'no_solution': 12688, 'unique_candidate': 7312},
    24: {'certified': 9, 'no_solution': 12792, 'unique_candidate': 7208},
    25: {'certified': 5, 'no_solution': 12572, 'unique_candidate': 7428},
    26: {'certified': 8, 'no_solution': 12673, 'unique_candidate': 7327},
    27: {'certified': 6, 'no_solution': 12539, 'unique_candidate': 7461},
    28: {'certified': 1, 'no_solution': 12597, 'unique_candidate': 7403},
    29: {'certified': 6, 'no_solution': 12524, 'unique_candidate': 7476},
    30: {'certified': 6, 'no_solution': 12478, 'unique_candidate': 7522},
    31: {'certified': 3, 'no_solution': 12638, 'unique_candidate': 7362},
    32: {'certified': 13, 'no_solution': 12577, 'unique_candidate': 7423},
    33: {'certified': 6, 'no_solution': 12654, 'unique_candidate': 7346},
    34: {'certified': 5, 'no_solution': 12481, 'unique_candidate': 7519},
    35: {'certified': 8, 'no_solution': 12668, 'unique_candidate': 7332},
    36: {'certified': 7, 'no_solution': 12544, 'unique_candidate': 7456},
    37: {'certified': 5, 'no_solution': 12814, 'unique_candidate': 7186},
    38: {'certified': 10, 'no_solution': 12678, 'unique_candidate': 7322},
    39: {'certified': 2, 'no_solution': 12635, 'unique_candidate': 7365},
    40: {'certified': 5, 'no_solution': 12592, 'unique_candidate': 7408},
    41: {'certified': 8, 'no_solution': 12562, 'unique_candidate': 7438},
    42: {'certified': 7, 'no_solution': 12643, 'unique_candidate': 7357},
    43: {'certified': 3, 'no_solution': 12682, 'unique_candidate': 7318},
    44: {'certified': 6, 'no_solution': 12522, 'unique_candidate': 7478},
    45: {'certified': 10, 'no_solution': 12750, 'unique_candidate': 7250},
    46: {'certified': 3, 'no_solution': 12638, 'unique_candidate': 7362},
    47: {'certified': 4, 'no_solution': 12554, 'unique_candidate': 7446},
    48: {'certified': 12, 'no_solution': 12528, 'unique_candidate': 7472},
    49: {'certified': 6, 'no_solution': 12655, 'unique_candidate': 7345},
    50: {'certified': 6, 'no_solution': 12645, 'unique_candidate': 7355},
    51: {'certified': 5, 'no_solution': 12570, 'unique_candidate': 7430},
    52: {'certified': 9, 'no_solution': 12571, 'unique_candidate': 7429},
    53: {'certified': 7, 'no_solution': 12676, 'unique_candidate': 7324},
    54: {'certified': 5, 'no_solution': 12592, 'unique_candidate': 7408},
    55: {'certified': 9, 'no_solution': 12710, 'unique_candidate': 7290},
    56: {'certified': 7, 'no_solution': 12647, 'unique_candidate': 7353},
    57: {'certified': 3, 'no_solution': 12541, 'unique_candidate': 7459},
    58: {'certified': 7, 'no_solution': 12573, 'unique_candidate': 7427},
    59: {'certified': 11, 'no_solution': 12686, 'unique_candidate': 7314},
    60: {'certified': 8, 'no_solution': 12654, 'unique_candidate': 7346},
    61: {'certified': 8, 'no_solution': 12751, 'unique_candidate': 7249},
    62: {'certified': 7, 'no_solution': 12605, 'unique_candidate': 7395},
    63: {'certified': 5, 'no_solution': 12722, 'unique_candidate': 7278},
    64: {'certified': 2, 'no_solution': 12656, 'unique_candidate': 7344},
    65: {'certified': 11, 'no_solution': 12662, 'unique_candidate': 7338},
    66: {'certified': 5, 'no_solution': 12688, 'unique_candidate': 7312},
    67: {'certified': 4, 'no_solution': 12622, 'unique_candidate': 7378},
    68: {'certified': 4, 'no_solution': 12607, 'unique_candidate': 7393},
    69: {'certified': 5, 'no_solution': 12563, 'unique_candidate': 7437},
    70: {'certified': 8, 'no_solution': 12740, 'unique_candidate': 7260},
    71: {'certified': 6, 'no_solution': 12625, 'unique_candidate': 7375},
    72: {'certified': 5, 'no_solution': 12660, 'unique_candidate': 7340},
    73: {'certified': 4, 'no_solution': 12648, 'unique_candidate': 7352},
    74: {'certified': 5, 'no_solution': 12693, 'unique_candidate': 7307},
    75: {'certified': 9, 'no_solution': 12677, 'unique_candidate': 7323},
    76: {'certified': 10, 'no_solution': 12815, 'unique_candidate': 7185},
    77: {'certified': 4, 'no_solution': 12704, 'unique_candidate': 7296},
    78: {'certified': 7, 'no_solution': 12627, 'unique_candidate': 7373},
    79: {'certified': 13, 'no_solution': 12566, 'unique_candidate': 7434},
    80: {'certified': 3, 'no_solution': 12539, 'unique_candidate': 7461},
    81: {'certified': 12, 'no_solution': 12528, 'unique_candidate': 7472},
    82: {'certified': 4, 'no_solution': 12724, 'unique_candidate': 7276},
    83: {'certified': 3, 'no_solution': 12547, 'unique_candidate': 7453},
    84: {'certified': 8, 'no_solution': 12600, 'unique_candidate': 7400},
    85: {'certified': 6, 'no_solution': 12633, 'unique_candidate': 7367},
    86: {'certified': 9, 'no_solution': 12693, 'unique_candidate': 7307},
    87: {'certified': 7, 'no_solution': 12589, 'unique_candidate': 7411},
    88: {'certified': 8, 'no_solution': 12615, 'unique_candidate': 7385},
    89: {'certified': 6, 'no_solution': 12491, 'unique_candidate': 7509},
    90: {'certified': 4, 'no_solution': 12540, 'unique_candidate': 7460},
    91: {'certified': 4, 'no_solution': 12491, 'unique_candidate': 7509},
    92: {'certified': 7, 'no_solution': 12557, 'unique_candidate': 7443},
    93: {'certified': 10, 'no_solution': 12648, 'unique_candidate': 7352},
    94: {'certified': 7, 'no_solution': 12612, 'unique_candidate': 7388},
    95: {'certified': 7, 'no_solution': 12675, 'unique_candidate': 7325},
    96: {'certified': 4, 'no_solution': 12703, 'unique_candidate': 7297},
    97: {'certified': 4, 'no_solution': 12634, 'unique_candidate': 7366},
    98: {'certified': 2, 'no_solution': 12642, 'unique_candidate': 7358},
    99: {'certified': 7, 'no_solution': 12677, 'unique_candidate': 7323},
    4242: {'certified': 2, 'no_solution': 12695, 'unique_candidate': 7305},
}
