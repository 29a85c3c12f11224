"""A small gallery of named divisors used across tests, demos and docs.

The two workhorses are the slant divisor (roof 1 - x on [0, 1], volume 1)
and the tent divisor (roof 1 - |x| on [-1, 1], volume 2); height_shift gives
the degree-zero divisor whose only content is a constant archimedean
potential, the standard direction for derivative experiments.
"""

from __future__ import annotations

from fractions import Fraction

from .divisors import ARCH, BaseCondition, Pair, ToricAdelicDivisor
from .pa import ConvexPA


def slant_divisor() -> ToricAdelicDivisor:
    """Coefficients (1, 0); archimedean potential 1 + max(0, u - 1)."""
    pot = ConvexPA([(Fraction(1), Fraction(1))], 0, 1)
    return ToricAdelicDivisor(1, 0, {ARCH: pot})


def tent_divisor() -> ToricAdelicDivisor:
    """Coefficients (1, 1); archimedean potential 1 + max(|u| - 1, 0)."""
    pot = ConvexPA([(Fraction(-1), Fraction(1)), (Fraction(1), Fraction(1))], -1, 1)
    return ToricAdelicDivisor(1, 1, {ARCH: pot})


def height_shift(c) -> ToricAdelicDivisor:
    """Degree-zero divisor with constant archimedean potential c: the image
    of perturbing the zero divisor by the constant Green function 2c."""
    return ToricAdelicDivisor(0, 0, {ARCH: ConvexPA.constant(Fraction(c))})


def p_slant_divisor(p: int) -> ToricAdelicDivisor:
    """The slant shape carried at a finite place: coefficients (1, 0) with
    potential 1 + max(0, u - 1) in log p units.  Its volume is exactly
    log p."""
    pot = ConvexPA([(Fraction(1), Fraction(1))], 0, 1)
    return ToricAdelicDivisor(1, 0, {p: pot})


def half_zero_pair() -> Pair:
    """The slant divisor constrained to vanish to order 1/2 at Zero."""
    return Pair(slant_divisor(), BaseCondition({"0": Fraction(1, 2)}))
