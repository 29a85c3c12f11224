"""The volume and the Zariski region of a pair from their definitions, with
no roof, hull, grid or integer pass of the package: only the pair's data,
``Fraction`` and the symbolic log p of ``exactnum.log_unit``, combined by
the field operators.  Imported by the test modules; not collected by
pytest.

At a place v with potential psi_v (breakpoints (u, psi_v(u)) and tails of
slopes -cinf and c0) the unit roof is

    theta_v(x) = min_u (psi_v(u) - x u),  -cinf <= x <= c0,

and the minimum is at a breakpoint: left of the first one psi_v(u) - x u
falls (slope -cinf - x <= 0), right of the last it rises.  The global roof
is F = theta_inf + sum_p log p * theta_p, a place without a potential
adding 0.  theta_v is the minimum of the affine functions x -> psi_v(u) -
x u, so it can only bend where two of them cross, at the chord slope of two
breakpoints; F is affine between consecutive such slopes.  The volume is
twice the integral of max(F, 0) over the window [-cinf + v0, c0 - vinf],
negative orders read as 0, and the region is {F >= 0} in the window.
"""

from fractions import Fraction

from adelic_volumes.exactnum import log_unit

ARCH = "inf"


def window(pair):
    """(lo, hi) of the pair's window, or None when it is empty."""
    d, base = pair.divisor, pair.base
    lo = -d.cinf + max(base.v0, Fraction(0))
    hi = d.c0 - max(base.vinf, Fraction(0))
    return None if lo > hi else (lo, hi)


def roof(pair, x):
    """F(x): the sum over places of the weighted minima."""
    total = Fraction(0)
    for v in pair.divisor.places:
        theta = min(y - x * u for u, y in pair.divisor.potential(v).points)
        total = total + (theta if v == ARCH else log_unit(v) * theta)
    return total


def _breaks(pair, lo, hi):
    """lo, hi and every chord slope of two breakpoints at one place
    strictly between them, sorted."""
    xs = {lo, hi}
    for v in pair.divisor.places:
        pts = pair.divisor.potential(v).points
        for i, (u1, y1) in enumerate(pts):
            for u2, y2 in pts[i + 1:]:
                s = (y2 - y1) / (u2 - u1)
                if lo < s < hi:
                    xs.add(s)
    return sorted(xs)


def volume_and_region(pair):
    """(twice the integral of max(F, 0) over the window, the region
    (lo, hi) of F >= 0 or None when it is empty)."""
    ends = window(pair)
    if ends is None:
        return Fraction(0), None
    xs = _breaks(pair, *ends)
    ys = [roof(pair, x) for x in xs]
    twice = Fraction(0)
    for x1, x2, y1, y2 in zip(xs, xs[1:], ys, ys[1:]):
        w = x2 - x1
        if y1 >= 0 and y2 >= 0:
            twice = twice + w * (y1 + y2)
        elif y1 > 0:
            twice = twice + w * y1 * y1 / (y1 - y2)
        elif y2 > 0:
            twice = twice + w * y2 * y2 / (y2 - y1)
    nonneg = [i for i, y in enumerate(ys) if y >= 0]
    if not nonneg:
        return twice, None
    i, j = nonneg[0], nonneg[-1]
    lo = xs[i] if i == 0 else xs[i - 1] + (xs[i] - xs[i - 1]) * ys[i - 1] / (ys[i - 1] - ys[i])
    hi = xs[j] if j == len(xs) - 1 else xs[j] + (xs[j + 1] - xs[j]) * ys[j] / (ys[j] - ys[j + 1])
    return twice, (lo, hi)
