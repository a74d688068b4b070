"""Solutions of x**2 - 2*y**2 = -1 as powers of the fundamental unit.

Writing GAMMA = 1 + sqrt(2) and DELTA = GAMMA**2 = 3 + 2*sqrt(2), every
solution of the negative Pell equation is +/- GAMMA * DELTA**m for an
integer m.  Powers are taken by binary exponentiation in Z[sqrt(2)]; the
A/B integer recurrences live in `checks` as the independent oracle.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable

from .zsqrt2 import DELTA, GAMMA, QuadInt


class PellSolution(namedtuple("PellSolution", "x y m")):
    """Components of GAMMA * DELTA**m; validates x**2 - 2*y**2 = -1."""

    __slots__ = ()

    def __new__(cls, x: int, y: int, m: int) -> PellSolution:
        if x * x - 2 * y * y != -1:
            raise ValueError(f"({x}, {y}) does not solve x^2 - 2y^2 = -1")
        return tuple.__new__(cls, (x, y, m))

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> PellSolution:
        return cls(*iterable)


def gamma_delta_power(m: int) -> QuadInt:
    """GAMMA * DELTA**m for any integer m; DELTA is a unit, so negative
    powers stay inside the ring."""
    return GAMMA * DELTA**m


def neg_pell_solution(m: int) -> PellSolution:
    """The negative Pell solution carried by GAMMA * DELTA**m."""
    w = gamma_delta_power(m)
    return PellSolution(w.x, w.y, m)
