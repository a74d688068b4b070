"""Solutions of x**2 - 2*y**2 = -1 as powers of the fundamental unit.

Writing GAMMA = 1 + sqrt(2) and DELTA = GAMMA**2 = 3 + 2*sqrt(2), every
solution of the negative Pell equation is +/- GAMMA * DELTA**m for an
integer m.  Powers are taken by binary exponentiation in Z[sqrt(2)]; the
equation itself, the A/B integer recurrences and the exhaustive converse
live in `checks` as the independent oracles.
"""

from __future__ import annotations

from .zsqrt2 import DELTA, GAMMA, QuadInt


def gamma_delta_power(m: int) -> QuadInt:
    """GAMMA * DELTA**m for any integer m; DELTA is a unit, so negative
    powers stay inside the ring."""
    return GAMMA * DELTA**m
