"""Exact piecewise-affine convex calculus on the line.

This is the computational substrate for everything else: potentials on the
skeleton are convex (or merely piecewise-affine) functions finite on all of R,
roofs are concave functions on a compact interval, and the two are exchanged
by an exact Legendre-type duality

    roof(x)      = inf_u (potential(u) - x*u)        on [left slope, right slope],
    potential(u) = sup_x (x*u + roof(x))             over the roof's domain.

Both transforms map breakpoints to slopes and back, so on piecewise-affine
data they are exact and mutually inverse, and the implementation below never
touches floating point: coordinates and values are ``fractions.Fraction`` or
:class:`~adelic_volumes.exactnum.ExactNumber` (rational combinations of prime
logarithms), mixed freely.

Three shapes of function are distinguished:

* :class:`ConcavePA` -- concave, finite exactly on a compact interval
  (possibly a single point), stored as its breakpoints;
* :class:`ConvexPA` -- convex, finite on all of R, stored as breakpoints plus
  the two asymptotic slopes;
* :class:`PAGeneral` -- same storage as ConvexPA but without any convexity
  promise (pointwise minima and scaled-by-negative potentials live here).

Canonical form merges collinear neighbours and stores a globally affine
function by its value at 0, so structural equality of the stored data is
equality of functions.

The public constructors check their input: sorted breakpoints, the collinear
merge and, for ConvexPA and ConcavePA, strict convexity or concavity.  An
operation whose output is canonical by proof skips them through ``_raw``,
which keeps only the affine normal form.  The proofs relied on:

* a canonical convex or concave function has a strict kink at each
  breakpoint, tails included, so its Legendre transform has strictly
  monotone slopes (:func:`legendre_roof`, :func:`legendre_potential`), and
  so has a sum of such functions with positive weights on the union of
  their kinks (``ConvexPA.add``, ``ConcavePA.add``, the global roofs of
  ``divisors._roof_sum`` and the merged keys of ``positivity._Line``,
  where every interior key is a strict kink of one place's roof);
* the lower hull of :func:`convex_envelope` drops every point that is not
  strictly below its neighbours;
* scaling by a nonzero factor keeps kinks and collinear triples (by a
  positive one, convexity too), and reflecting keeps both;
* a single breakpoint with tails of slopes s <= t is convex, and one that
  passed ``PAGeneral.is_convex`` is ConvexPA data already;
* sorted breakpoints joined by strictly rising slopes, tails included, are
  strict kinks (``harness.sample_convex_potential``);
* the hull of :func:`convex_envelope`, and its integer form
  ``positivity._integer_hull``, drops collinear points, so the raw rows of
  a line's twisted potential (``positivity._Line``) need no merge before
  it, and the slopes of its segments, a place's roof breakpoints, rise
  strictly.

On rational data every coordinate is a Fraction, and CPython's Fraction
is pure Python: each operator pays for its constructor's dispatch, the
``numerator`` and ``denominator`` properties and a ``numbers.Rational``
check.  So rational data goes through the rational kernel of ``exactnum``:
``scalar_sign``, ``scalar_cmp``, ``_sum_sign``, ``_qadd``, ``_qsub``,
``_qmul`` and ``_qdiv`` cross-multiply the integers of two Fractions,
build each result once with ``exactnum._q`` and keep the operator for any
other operand, so no Fraction operator runs on the hot paths.  Each exact
primitive is one formula in those calls that decides a sign before it
builds a value (the crossings ``_crossing`` and ``_tail_crossing``, the
chord zero ``_zero_between``); the integer routes listed below read a
Fraction's slots, ``x._numerator`` and ``x._denominator``, and compute
on those integers.
``_integer_grid`` puts a grid and each function's breakpoints on integer
keys over one denominator, each point read once, and ``_grid_values``
reads a function's values at the keys in one scan as integer pairs: the
one integer scan behind ``_eval_on_grid`` (and so ``divisors._roof_sum``),
the sums ``_sum_on_grid`` and the rows of ``positivity._Line``.
``_nonneg_run`` reads signs only from each end of a concave function up
to its first nonnegative value: concavity gives the rest.  The line
kernel ``positivity._Line`` keeps a line's rows as integers over one
denominator and runs the lower hull on them, with the sign tests of
``_turn`` and ``_tail_turn`` over common denominators.  At a rational t
it reads the roofs' breakpoints and values off the hulls as integers,
merged on one grid (``positivity._merge``), and its volume is
``_twice_area`` of them; a pair's volume and Zariski part on rational
data are read the same way off its own potentials, whose points are their
hulls when convex (``positivity._pair_pass``).  A
threshold's Newton step sums them, weighted by 1 and log p, as ring
elements: ints at a rational t at the archimedean place alone, integer
polynomials in the logs with finite places, at a t in Q(log p) or on a
Zariski positive part's tails.
No roof is built.
``positivity.adeg_product`` reads each potential's points once
(``_integer_grid``), forms its jets (value and one-sided slopes) on the
union of the breakpoints as integers over two denominators
(``_grid_jets``), one basis jet per symbolic tail, and sums each local
pairing as one integer numerator (``_jet_pairing``).

Roof values are Q-linear forms in 1, log 2, log 3, ..., stored as n / s
with denominator polynomial 1, and only ``exactnum`` knows how a monomial
is stored.  ``_chord`` (the ends of ``ConcavePA.restrict``) reads them
with ``exactnum._poly_parts``, sums per monomial over Z with
``exactnum._lin`` and builds the result once with
``exactnum._from_coeffs``.  The arithmetic volume is twice the integral of
a concave roof's positive part, a sum of trapezoids w (y1 + y2) and at
most two clipped ends w y_in^2 / (y_in - y_out), and one function forms
it: ``_twice_area``, on breakpoints as integer keys and values as one
integer column per monomial of the logs.  ``_twice_integral`` puts a
roof's points on that grid (``exactnum._poly_columns``), for
:func:`integrate_positive_part`, halved, and for ``positivity.avol`` on
a pair with tails or data outside Q; the line kernel's volume, and
``avol`` on rational data, read them off merged hulls.  One
column of the monomial 1 is summed over Z into one Fraction; columns in
the logs are summed per monomial, and the clipped ends join the sum as
one quotient over the clip denominators, reduced by trial division by
their primitive affine parts (``exactnum._affine_quotient_sum``): no
heuristic gcd runs.

A primitive keeps an integer route beside its kernel formula only where
the traffic pays for it.  Each is listed with its operand, its cost per
call in microseconds against the kernel formula's, and its calls on the
seed-9001 op lists of one benchmark worker (suites / diskant / oracle):

* ``_slope`` of two Fraction points: 0.57 against 1.06, 315 / 0 / 222
  calls;
* ``_turn`` of three Fraction points: 0.47 against 2.03, 1,020 calls
  on suites;
* ``_tail_turn`` of a Fraction slope and points: 1,034 / 0 / 264 calls;
* ``_on_line`` of Fractions: 0.43 against 0.65, 1,067 / 164 / 402
  calls;
* ``_chord`` at a Fraction x: on Fraction values 0.65 against 2.16,
  29 / 0 / 0 calls; per monomial on forms in the logs, 11 / 0 / 0
  calls and once per sample of ``okounkov`` (8,193 on the CI three-place
  scene);
* ``_grid`` of Fractions: 410 / 0 / 0 calls;
* the integer scans of ``_eval_on_grid`` and ``_sum_on_grid``
  (``_integer_grid``, ``_grid_values``, ``_grid_jets``), without which
  the suites op list ran 2-3% and 0.9% slower.

Any other operand takes the kernel formula, the operator formula the
route replaced.  A line probe of the benchmark workloads, every suite,
finite-place Diskant reports, the demos and the CLI finds two kinds of
operand that reach the operators:

* tail slopes in Q(log p), at a Zariski positive part, whose potentials
  have the ends of its region as tails.  They reach the shape checks of
  a divisor built from it and the collinear merge of its sums
  (``_turn``, ``_tail_turn``), those sums (``_sum_on_grid``, through the
  field scan of ``_eval_on_grid``), the ends of its unit roofs
  (``_on_line`` in :func:`legendre_roof` and in
  ``positivity._roof_ends``), the sum of those roofs, which end at the
  tails (``_grid``, and the field scan of ``_eval_on_grid`` in
  ``divisors._roof_sum``), and its volume (the field loop of
  ``_twice_integral``, which takes the ends outside Q);
* values in the logs at rational x, at the empirical transform of
  ``sections``: the field scan of ``_eval_on_grid`` (``_chord`` per
  monomial).

The operator formula of ``_slope`` and the clipped ends of
``_twice_integral``'s field loop run on no workload, but library calls on
such a positive part reach them: its own Zariski positive part (the
Legendre slopes of its unit roofs, ``_slope``) and the volume of one
lowered below 0 (the clipped ends); ``divisors.min_adelic`` of two
effective ones takes the kernel's operators in ``_crossing`` and
``_tail_crossing``.  Values of degree above 1 in the logs, which only
library input builds, stay on ``_twice_area``: a clip denominator of
degree above 1 takes the general cancel of ``exactnum._make``.

A Fraction or an n / s has one canonical form, which every route builds,
so results are byte-identical to the operator route.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import (
    EmptyDomain,
    NotConcave,
    NotConvex,
    OutOfDomain,
    UnboundedBelow,
)
from .exactnum import (_MONO_ONE, _ZERO, ExactNumber, Scalar, _affine_quotient_sum,
                       _from_coeffs, _lin, _mul, _poly_columns, _poly_parts, _poly_sign, _q,
                       _qadd, _qdiv, _qmul, _qsub, scalar_cmp, scalar_sign)


def as_scalar(value) -> Scalar:
    """Coerce exact input (int, Fraction, "p/q" string, ExactNumber)."""
    if type(value) is Fraction or isinstance(value, ExactNumber):
        return value
    if type(value) is int:
        return _q(value, 1)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not an exact scalar: {value!r} ({type(value).__name__})")


def _fmt(x: Scalar) -> str:
    return str(x)


class Interval:
    """A closed interval [lo, hi] with exact endpoints, or the empty interval."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo, hi = as_scalar(lo), as_scalar(hi)
        if scalar_cmp(lo, hi) > 0:
            raise ValueError(f"interval endpoints out of order: [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    @classmethod
    def _empty(cls) -> "Interval":
        obj = object.__new__(cls)
        obj.lo = None
        obj.hi = None
        return obj

    EMPTY: "Interval"  # set right after the class body

    @property
    def is_empty(self) -> bool:
        return self.lo is None

    @property
    def is_point(self) -> bool:
        return not self.is_empty and scalar_cmp(self.lo, self.hi) == 0

    def intersect(self, other: "Interval") -> "Interval":
        if self.is_empty or other.is_empty:
            return Interval.EMPTY
        lo = self.lo if self.lo >= other.lo else other.lo
        hi = self.hi if self.hi <= other.hi else other.hi
        return Interval(lo, hi) if lo <= hi else Interval.EMPTY

    def scale(self, a) -> "Interval":
        if self.is_empty:
            return Interval.EMPTY
        a = as_scalar(a)
        lo, hi = a * self.lo, a * self.hi
        return Interval(lo, hi) if lo <= hi else Interval(hi, lo)

    def __eq__(self, other):
        if not isinstance(other, Interval):
            return NotImplemented
        if self.is_empty or other.is_empty:
            return self.is_empty and other.is_empty
        return bool(self.lo == other.lo and self.hi == other.hi)

    def __hash__(self):
        return hash("empty") if self.is_empty else hash((str(self.lo), str(self.hi)))

    def __repr__(self):
        if self.is_empty:
            return "Interval.EMPTY"
        return f"[{_fmt(self.lo)}, {_fmt(self.hi)}]"


Interval.EMPTY = Interval._empty()


# -- exact primitives ------------------------------------------------------
#
# Fraction operands are read at slot level (``x._numerator``,
# ``x._denominator``) and one Fraction is built per value by the rational
# kernel, ``exactnum._q``, none for a sign; any other operand takes the
# operator formula after the integer route.


def _slope(p, q) -> Scalar:
    """(q.y - p.y) / (q.x - p.x)."""
    (x1, y1), (x2, y2) = p, q
    if type(x1) is type(y1) is type(x2) is type(y2) is Fraction:
        a1, b1 = x1._numerator, x1._denominator
        a2, b2 = x2._numerator, x2._denominator
        dx = a2 * b1 - a1 * b2
        if dx:
            c1, d1 = y1._numerator, y1._denominator
            c2, d2 = y2._numerator, y2._denominator
            return _q((c2 * d1 - c1 * d2) * b1 * b2, dx * d1 * d2)
    return (y2 - y1) / (x2 - x1)


def _turn(p, q, r) -> int:
    """The sign of slope(p, q) - slope(q, r) for points in x order: 1 where
    the chain bends down at q, -1 where it bends up, 0 where p, q and r are
    collinear.  Cross-multiplied: no quotient is formed."""
    (x1, y1), (x2, y2), (x3, y3) = p, q, r
    if type(x1) is type(y1) is type(x2) is type(y2) is type(x3) is type(y3) \
            is Fraction:
        a1, b1 = x1._numerator, x1._denominator
        a2, b2 = x2._numerator, x2._denominator
        a3, b3 = x3._numerator, x3._denominator
        c1, d1 = y1._numerator, y1._denominator
        c2, d2 = y2._numerator, y2._denominator
        c3, d3 = y3._numerator, y3._denominator
        # (y2 - y1)(x3 - x2) - (y3 - y2)(x2 - x1), times b1 b2 b3 d1 d2 d3
        t = ((c2 * d1 - c1 * d2) * (a3 * b2 - a2 * b3) * b1 * d3
             - (c3 * d2 - c2 * d3) * (a2 * b1 - a1 * b2) * b3 * d1)
        return (t > 0) - (t < 0)
    return scalar_cmp((y2 - y1) * (x3 - x2), (y3 - y2) * (x2 - x1))


def _tail_turn(s, p, q) -> int:
    """The sign of s - slope(p, q) for points in x order: ``_turn`` with a
    tail of slope s in place of a segment."""
    (x1, y1), (x2, y2) = p, q
    if type(s) is type(x1) is type(y1) is type(x2) is type(y2) is Fraction:
        n, e = s._numerator, s._denominator
        a1, b1 = x1._numerator, x1._denominator
        a2, b2 = x2._numerator, x2._denominator
        c1, d1 = y1._numerator, y1._denominator
        c2, d2 = y2._numerator, y2._denominator
        # s (x2 - x1) - (y2 - y1), times e b1 b2 d1 d2
        t = n * (a2 * b1 - a1 * b2) * d1 * d2 - (c2 * d1 - c1 * d2) * e * b1 * b2
        return (t > 0) - (t < 0)
    return scalar_cmp(s * (x2 - x1), y2 - y1)


def _on_line(x0, y0, s) -> Scalar:
    """y0 - s x0, the value at 0 of the line of slope s through (x0, y0)."""
    if type(x0) is type(y0) is type(s) is Fraction:
        a, b = x0._numerator, x0._denominator
        c, d = y0._numerator, y0._denominator
        n, e = s._numerator, s._denominator
        return _q(c * e * b - n * a * d, d * e * b)
    return y0 - s * x0


def _ratios(values):
    """The (numerator, denominator) of each value, or None unless every
    value is a Fraction."""
    out = []
    for v in values:
        if type(v) is not Fraction:
            return None
        out.append((v._numerator, v._denominator))
    return out


def _clean_points(points) -> list:
    pts = [(as_scalar(x), as_scalar(y)) for x, y in points]
    if not pts:
        raise ValueError("at least one breakpoint is required")
    for (x1, _), (x2, _) in zip(pts, pts[1:]):
        if scalar_cmp(x1, x2) >= 0:
            raise ValueError("breakpoint x-coordinates must be strictly increasing")
    return pts


def _merge_collinear(pts: list, left_slope=None, right_slope=None) -> list:
    """Drop breakpoints that lie on the line through their neighbours (tails
    count as neighbours of slope left_slope / right_slope when given).

    One pass suffices: removing a collinear point never changes the slopes
    of the surviving segments around it."""
    out = list(pts)
    if left_slope is not None:
        while len(out) > 1 and _tail_turn(left_slope, out[0], out[1]) == 0:
            out.pop(0)
    if right_slope is not None:
        while len(out) > 1 and _tail_turn(right_slope, out[-2], out[-1]) == 0:
            out.pop()
    if len(out) > 2:
        kept = [out[0]]
        for i in range(1, len(out) - 1):
            if _turn(kept[-1], out[i], out[i + 1]) != 0:
                kept.append(out[i])
        kept.append(out[-1])
        out = kept
    return out


def _chord(p, q, x) -> Scalar:
    """y_p + (y_q - y_p) (x - x_p) / (x_q - x_p), the value at x of the
    chord through p and q.  With Fraction x coordinates and values that are
    polynomials in the logs (d = 1, Fractions included), the numerator is
    summed per monomial over Z and built once."""
    (x0, y0), (x1, y1) = p, q
    if type(x0) is type(x1) is type(x) is Fraction:
        a0, b0 = x0._numerator, x0._denominator
        a1, b1 = x1._numerator, x1._denominator
        u, v = x._numerator, x._denominator
        # (x - x0) / (x1 - x0) = tn / td
        tn, td = (u * b0 - a0 * v) * b1, (a1 * b0 - a0 * b1) * v
        if type(y0) is type(y1) is Fraction and td:
            c0, d0 = y0._numerator, y0._denominator
            c1, d1 = y1._numerator, y1._denominator
            return _q(c0 * d1 * (td - tn) + c1 * d0 * tn, d0 * d1 * td)
        r0, r1 = _poly_parts(y0), _poly_parts(y1)
        if r0 and r1 and td:
            (n0, s0), (n1, s1) = r0, r1
            if td < 0:
                tn, td = -tn, -td
            return _from_coeffs(_lin(n0, s1 * (td - tn), n1, s0 * tn), s0 * s1 * td)
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def _eval_on_grid(pts, xs, left_slope=None, right_slope=None) -> list:
    """The values at each x of a sorted grid, in one joint scan of the
    breakpoints: a breakpoint's value, the chord between two breakpoints,
    or a tail.  Outside the breakpoint hull the function follows the tails,
    which must then be given.  A grid of several Fractions takes the
    integer scan ``_grid_values``; this loop is the field scan, and reads
    a single point in place, with no keys to scale (``_chord`` computes
    on the integers of Fractions)."""
    grid = _integer_grid([pts], xs) if len(xs) > 1 else None
    if grid is not None:
        keys, big_u, [(xk, yr)] = grid
        rows = _grid_values(xk, yr, keys, big_u, left_slope, right_slope)
        if rows is not None:
            return [_q(n, d) for n, d in rows]
    out = []
    i = 0
    top = len(pts) - 1
    for x in xs:
        while i < top and scalar_cmp(pts[i + 1][0], x) <= 0:
            i += 1
        x0, y0 = pts[i]
        c = scalar_cmp(x, x0)
        if c == 0:
            out.append(y0)
        elif i == 0 and c < 0:
            out.append(y0 + left_slope * (x - x0))
        elif i == top:
            out.append(y0 + right_slope * (x - x0))
        else:
            out.append(_chord(pts[i], pts[i + 1], x))
    return out


def _integer_grid(fs, xs=None):
    """(keys, U, parts) for the point lists fs, each point read once, on
    the sorted grid xs, by default the union of their breakpoints: the
    grid as the sorted integer keys X of X / U, U > 0, and per list the
    keys of its breakpoints and their values as integer pairs; None unless
    every coordinate, and every x of the grid, is a Fraction."""
    parts, dens = [], []
    for pts in fs:
        xr, yr = [], []
        for x, y in pts:
            if type(x) is not Fraction or type(y) is not Fraction:
                return None
            xr.append((x._numerator, x._denominator))
            yr.append((y._numerator, y._denominator))
        parts.append((xr, yr))
        dens += [d for _, d in xr]
    if xs is not None:
        xs = _ratios(xs)
        if xs is None:
            return None
        dens += [d for _, d in xs]
    big_u = lcm(*dens)
    parts = [([n * (big_u // d) for n, d in xr], yr) for xr, yr in parts]
    if xs is None:
        return sorted({x for xk, _ in parts for x in xk}), big_u, parts
    return [n * (big_u // d) for n, d in xs], big_u, parts


def _grid_values(xk, yr, keys, big_u, ls=None, rs=None) -> list | None:
    """The values at each x = X / U of the sorted integer keys X, as
    integer pairs (n, d) with d > 0, not reduced, of the function with the
    breakpoints (X_i / U, y_i) and the tail slopes ls and rs: the X_i are
    the sorted keys xk, which the keys may skip, and the y_i integer
    pairs.  One scan: a breakpoint's value, the chord between two
    breakpoints, or a tail; None when a key reaches a tail whose slope is
    not a Fraction."""
    out = []
    i, n = 0, len(xk)  # i: the breakpoints left of x
    for x in keys:
        while i < n and xk[i] < x:
            i += 1
        if i < n and x == xk[i]:
            out.append(yr[i])
            i += 1
        elif i and i < n:
            # y_i-1 + (y_i - y_i-1) (x - x_i-1) / (x_i - x_i-1)
            (a, b), (a1, b1) = yr[i - 1], yr[i]
            x0 = xk[i - 1]
            w = (xk[i] - x0) * b1
            out.append((a * w + (a1 * b - a * b1) * (x - x0), b * w))
        else:
            # a tail: y_j + s (x - x_j) at the first or last breakpoint j
            j, s = (i - 1, rs) if i else (0, ls)
            if type(s) is not Fraction:
                return None
            (a, b), sn, sd = yr[j], s._numerator, s._denominator * big_u
            out.append((a * sd + sn * (x - xk[j]) * b, b * sd))
    return out


def _grid_jets(xk, yr, keys, big_u, ls, rs) -> tuple:
    """(ys, v, lefts, rights, s): the jets (value, left slope, right slope)
    at each x = X / U of the sorted integer keys X, for the data of
    ``_grid_values`` with Fraction tails and every X_i among the keys: the
    values as numerators over v, the one-sided slopes as numerators over
    s.  A piece's slope is a tail's, or (y_i+1 - y_i) U / (X_i+1 - X_i) on
    a segment."""
    vals = _grid_values(xk, yr, keys, big_u, ls, rs)
    v = lcm(*[d for _, d in vals])
    # the slope of each piece: the left tail, the segments, the right tail
    pieces = [(ls._numerator, ls._denominator)]
    pieces += [((a1 * b - a * b1) * big_u, b * b1 * (x1 - x0))
               for x0, x1, (a, b), (a1, b1) in zip(xk, xk[1:], yr, yr[1:])]
    pieces.append((rs._numerator, rs._denominator))
    s = lcm(*[d for _, d in pieces])
    slopes = [n * (s // d) for n, d in pieces]
    lefts, rights = [], []
    i, n = 0, len(xk)  # i: the breakpoints left of x
    for x in keys:
        lefts.append(slopes[i])
        if i < n and x == xk[i]:
            i += 1
        rights.append(slopes[i])
    return [a * (v // d) for a, d in vals], v, lefts, rights, s


def _jet_pairing(keys, big_u, jets_a, jets_b) -> Fraction:
    """The sum over the keys X, at u = X / U, of
    ya (rb - lb) + yb (ra - la) - u (ra rb - la lb) for the jets
    (value, left slope, right slope) of two functions given by
    ``_grid_jets``: the local sum of ``positivity.adeg_product``.  The
    three sums are taken over the integers, each over its denominator
    (va sb, vb sa and U sa sb), and one Fraction is built."""
    ya, va, la, ra, sa = jets_a
    yb, vb, lb, rb, sb = jets_b
    p = q = r = 0
    for x, y1, l1, r1, y2, l2, r2 in zip(keys, ya, la, ra, yb, lb, rb):
        p += y1 * (r2 - l2)
        q += y2 * (r1 - l1)
        r += x * (r1 * r2 - l1 * l2)
    return _q((p * vb * sa + q * va * sb) * big_u - r * va * vb,
              va * vb * sa * sb * big_u)


class ConcavePA:
    """A concave piecewise-affine function on a compact interval.

    Stored as breakpoints ``(x, y)`` covering the whole domain; a single
    breakpoint is a legal (point-domain) function.
    """

    __slots__ = ("points",)

    def __init__(self, points: Iterable):
        pts = _merge_collinear(_clean_points(points))
        for p, q, r in zip(pts, pts[1:], pts[2:]):
            if not _turn(p, q, r) > 0:
                raise NotConcave(
                    f"slopes are not strictly decreasing at x = {q[0]}"
                )
        self.points = tuple(pts)

    @classmethod
    def _raw(cls, pts) -> "ConcavePA":
        """Wrap a breakpoint list known to be canonical already (sorted,
        strictly decreasing slopes), skipping validation.  The callers and
        their proofs: ``legendre_roof`` (the potential's strictly rising
        slopes and breakpoints), ``add`` and ``divisors._roof_sum``
        (every interior grid point is a strict kink of a summand),
        ``reflect`` and ``restrict`` (cutting an affine piece leaves no
        collinear triple)."""
        obj = object.__new__(cls)
        obj.points = tuple(pts)
        return obj

    @property
    def domain(self) -> Interval:
        return Interval(self.points[0][0], self.points[-1][0])

    def eval(self, x) -> Scalar:
        x = as_scalar(x)
        if scalar_cmp(x, self.points[0][0]) < 0:
            raise OutOfDomain(f"{x} lies left of the domain")
        if scalar_cmp(x, self.points[-1][0]) > 0:
            raise OutOfDomain(f"{x} lies right of the domain")
        return _eval_on_grid(self.points, [x])[0]

    __call__ = eval

    def add(self, other: "ConcavePA") -> "ConcavePA":
        dom = self.domain.intersect(other.domain)
        if dom.is_empty:
            raise EmptyDomain("summands have disjoint domains")
        xs = _grid(
            [dom.lo, dom.hi],
            (x for x, _ in self.points if dom.lo < x < dom.hi),
            (x for x, _ in other.points if dom.lo < x < dom.hi),
        )
        ys1 = _eval_on_grid(self.points, xs)
        ys2 = _eval_on_grid(other.points, xs)
        # each interior grid point is a strict kink of a summand, so the sum
        # is canonical as built
        return ConcavePA._raw(
            [(x, y1 + y2) for x, y1, y2 in zip(xs, ys1, ys2)])

    __add__ = add

    def restrict(self, window: Interval) -> "ConcavePA":
        if window.is_empty:
            raise EmptyDomain("cannot restrict to the empty interval")
        pts, lo, hi = self.points, window.lo, window.hi
        if scalar_cmp(pts[0][0], lo) > 0 or scalar_cmp(hi, pts[-1][0]) > 0:
            raise OutOfDomain(f"{window} is not inside {self.domain}")
        if window.is_point:
            return ConcavePA._raw([(lo, self.eval(lo))])
        # pts[i] is the first breakpoint at or right of lo, pts[j] the last
        # at or left of hi; an end between breakpoints reads their chord
        i, j = 0, len(pts) - 1
        while (c := scalar_cmp(pts[i][0], lo)) < 0:
            i += 1
        while (d := scalar_cmp(pts[j][0], hi)) > 0:
            j -= 1
        if i == 0 and j == len(pts) - 1:  # the whole domain
            return self
        y_lo = pts[i][1] if c == 0 else _chord(pts[i - 1], pts[i], lo)
        y_hi = pts[j][1] if d == 0 else _chord(pts[j], pts[j + 1], hi)
        # cutting an affine piece cannot create a collinear triple among the
        # survivors, so the result is canonical
        return ConcavePA._raw(
            [(lo, y_lo), *pts[i + (c == 0):j + (d != 0)], (hi, y_hi)])

    def reflect(self) -> "ConcavePA":
        """The function x -> f(-x)."""
        return ConcavePA._raw([(-x, y) for x, y in reversed(self.points)])

    def max_over_domain(self) -> Scalar:
        return max(y for _, y in self.points)

    def nonneg_region(self) -> Interval:
        """The interval {f >= 0} (possibly empty or a point), with exact
        endpoints: sign-change roots are solved in the scalar field."""
        run = _nonneg_run([y for _, y in self.points])
        if run is None:
            return Interval.EMPTY
        first, last = run[:2]
        if first == 0:
            lo = self.points[0][0]
        else:
            lo = _zero_between(self.points[first - 1], self.points[first])
        if last == len(self.points) - 1:
            hi = self.points[-1][0]
        else:
            hi = _zero_between(self.points[last], self.points[last + 1])
        return Interval(lo, hi)

    def __eq__(self, other):
        if not isinstance(other, ConcavePA):
            return NotImplemented
        return _points_equal(self.points, other.points)

    __hash__ = None

    def __repr__(self):
        pts = ", ".join(f"({_fmt(x)}, {_fmt(y)})" for x, y in self.points)
        return f"ConcavePA[{pts}]"


def _nonneg_run(ys, sign=scalar_sign):
    """(first, last, sign_first, sign_last) for the values ys of a concave
    function at its breakpoints, whose signs the function sign gives: the
    first and last index with value >= 0 and the signs of those two values,
    or None when every value is negative.  By concavity every value between
    first and last is nonnegative too, so signs are read only from each end
    up to the first nonnegative value."""
    for first, y in enumerate(ys):
        sign_first = sign(y)
        if sign_first >= 0:
            break
    else:
        return None
    for last in range(len(ys) - 1, first, -1):
        sign_last = sign(ys[last])
        if sign_last >= 0:
            return first, last, sign_first, sign_last
    return first, first, sign_first, sign_first


def _zero_between(p, q) -> Scalar:
    """The zero x1 + (x2 - x1) y1 / (y1 - y2) of the chord through p and q."""
    (x1, y1), (x2, y2) = p, q
    return _qadd(x1, _qdiv(_qmul(_qsub(x2, x1), y1), _qsub(y1, y2)))


def _points_equal(a, b) -> bool:
    if len(a) != len(b):
        return False
    return all(scalar_cmp(p[0], q[0]) == 0 and scalar_cmp(p[1], q[1]) == 0
               for p, q in zip(a, b))


def _grid(*groups) -> list:
    """The sorted union of the groups, each value once.  Fractions are
    sorted as integer keys over their common denominator, the first of
    equal values kept; any other value takes the operator sort."""
    xs = [x for group in groups for x in group]
    rs = _ratios(xs)
    if rs:
        m = lcm(*[d for _, d in rs])
        keyed: dict = {}
        for x, (n, d) in zip(xs, rs):
            keyed.setdefault(n * (m // d), x)
        return [keyed[k] for k in sorted(keyed)]
    xs.sort()
    out = [xs[0]]
    for x in xs[1:]:
        if not x == out[-1]:
            out.append(x)
    return out


class _LinePA:
    """Shared implementation for functions finite on all of R."""

    __slots__ = ("points", "left_slope", "right_slope")
    _kind = None  # the payload's "kind" of each subclass

    def _init_data(self, points, left_slope, right_slope):
        ls, rs = as_scalar(left_slope), as_scalar(right_slope)
        self._set(_merge_collinear(_clean_points(points), ls, rs), ls, rs)

    @classmethod
    def constant(cls, value):
        return cls([(_ZERO, as_scalar(value))], 0, 0)

    def _set(self, pts, ls, rs):
        if len(pts) == 1 and scalar_cmp(ls, rs) == 0:
            # a globally affine function is stored by its value at 0, so
            # that equal functions have equal data
            pts = [(_ZERO, _on_line(*pts[0], ls))]
        self.points = tuple(pts)
        self.left_slope = ls
        self.right_slope = rs

    @classmethod
    def _raw(cls, pts, left_slope, right_slope):
        """Wrap breakpoints (sorted, exact, no collinear triple with the
        tails) and tail slopes known to be canonical data of ``cls``,
        skipping every check but the affine normal form.  The proofs are
        listed in the module docstring; the callers are
        ``legendre_potential``, ``convex_envelope``, ``ConvexPA.add``,
        ``scale``, ``as_general``, ``PAGeneral`` sums and minima (after the
        collinear merge), the canonical potential and an ``is_convex``
        potential in ``divisors``, the sampled potentials of
        ``harness.sample_convex_potential``, the rows of a line's
        twisted potential in ``positivity._Line``, fed only to
        ``convex_envelope``, and the Zariski part's potentials of
        ``positivity._positive_read``: the points ``legendre_potential``
        would build, taken from the hull."""
        obj = object.__new__(cls)
        obj._set(pts, left_slope, right_slope)
        return obj

    def eval(self, x) -> Scalar:
        return _eval_on_grid(self.points, [as_scalar(x)],
                             self.left_slope, self.right_slope)[0]

    __call__ = eval

    def is_bounded(self) -> bool:
        return not (self.left_slope or self.right_slope)

    def sup_norm(self) -> Scalar:
        if not self.is_bounded():
            raise UnboundedBelow("sup norm of an unbounded function")
        return max(abs_scalar(y) for _, y in self.points)

    def lower_bound(self):
        """The infimum over R, or None when the function is unbounded below."""
        if scalar_sign(self.left_slope) > 0 or scalar_sign(self.right_slope) < 0:
            return None
        out = self.points[0][1]
        for _, y in self.points[1:]:
            if scalar_cmp(y, out) < 0:
                out = y
        return out

    def to_payload(self) -> dict:
        return {
            "kind": self._kind,
            "points": [[str(x), str(y)] for x, y in self.points],
            "left_slope": str(self.left_slope),
            "right_slope": str(self.right_slope),
        }

    @classmethod
    def from_payload(cls, payload: dict):
        return cls(
            [(Fraction(x), Fraction(y)) for x, y in payload["points"]],
            Fraction(payload["left_slope"]),
            Fraction(payload["right_slope"]),
        )

    def __eq__(self, other):
        if not isinstance(other, _LinePA):
            return NotImplemented
        return (
            _points_equal(self.points, other.points)
            and bool(self.left_slope == other.left_slope)
            and bool(self.right_slope == other.right_slope)
        )

    __hash__ = None

    def __repr__(self):
        pts = ", ".join(f"({_fmt(x)}, {_fmt(y)})" for x, y in self.points)
        return (f"{type(self).__name__}(slopes ({_fmt(self.left_slope)}, "
                f"{_fmt(self.right_slope)}); {pts})")


def _breakpoint_grid(*fs) -> list:
    if len(fs) == 1:  # one function's breakpoints increase strictly
        return [x for x, _ in fs[0].points]
    return _grid(*((x for x, _ in f.points) for f in fs))


def _values_on_grid(f: _LinePA, xs) -> list:
    return _eval_on_grid(f.points, xs, f.left_slope, f.right_slope)


def _sum_on_grid(f: _LinePA, g: _LinePA, xs) -> list:
    """The points of f + g over the sorted grid xs, each summand read in
    one joint scan; on rational data both are read on one integer grid and
    summed as integer pairs, one Fraction per point."""
    grid = _integer_grid((f.points, g.points), xs)
    if grid is not None:
        keys, big_u, (pf, pg) = grid
        rf = _grid_values(*pf, keys, big_u, f.left_slope, f.right_slope)
        rg = None if rf is None else _grid_values(*pg, keys, big_u, g.left_slope,
                                                  g.right_slope)
        if rg is not None:
            return [(x, _q(n1 * d2 + n2 * d1, d1 * d2))
                    for x, (n1, d1), (n2, d2) in zip(xs, rf, rg)]
    return [(x, y1 + y2) for x, y1, y2 in zip(
        xs, _values_on_grid(f, xs), _values_on_grid(g, xs))]


def abs_scalar(x: Scalar) -> Scalar:
    return _qsub(_ZERO, x) if scalar_sign(x) < 0 else x


class ConvexPA(_LinePA):
    """A convex piecewise-affine function finite on all of R."""

    _kind = "convex"

    def __init__(self, points, left_slope, right_slope):
        self._init_data(points, left_slope, right_slope)
        pts = self.points
        if len(pts) == 1:
            if scalar_cmp(self.right_slope, self.left_slope) < 0:
                raise NotConvex("tail slopes are not increasing")
            return  # equal tails: globally affine
        if not _tail_turn(self.left_slope, pts[0], pts[1]) < 0:
            raise NotConvex("left tail slope is not below the first segment")
        for p, q, r in zip(pts, pts[1:], pts[2:]):
            if not _turn(p, q, r) < 0:
                raise NotConvex(
                    f"slopes are not strictly increasing at x = {q[0]}"
                )
        if not _tail_turn(self.right_slope, pts[-2], pts[-1]) > 0:
            raise NotConvex("right tail slope is not above the last segment")

    def add(self, other):
        if isinstance(other, ConvexPA):
            # each breakpoint of a summand is a strict kink of it, where the
            # other's slope cannot fall, so the sum is canonical on the union
            # of the breakpoints; an affine summand (equal tails) has none
            kinked = [f for f in (self, other)
                      if scalar_cmp(f.left_slope, f.right_slope)] or [self]
            return ConvexPA._raw(
                _sum_on_grid(self, other, _breakpoint_grid(*kinked)),
                _qadd(self.left_slope, other.left_slope),
                _qadd(self.right_slope, other.right_slope),
            )
        if isinstance(other, PAGeneral):
            return self.as_general().add(other)
        return NotImplemented

    __add__ = add

    def scale(self, a):
        a = as_scalar(a)
        s = scalar_sign(a)
        if s > 0:
            # a positive factor keeps every strict kink
            return ConvexPA._raw(
                [(x, _qmul(a, y)) for x, y in self.points],
                _qmul(a, self.left_slope),
                _qmul(a, self.right_slope),
            )
        if s == 0:
            return ConvexPA.constant(0)
        return self.as_general().scale(a)

    def as_general(self) -> "PAGeneral":
        return PAGeneral._raw(self.points, self.left_slope, self.right_slope)


class PAGeneral(_LinePA):
    """A piecewise-affine function finite on all of R, no shape promised."""

    _kind = "general"

    def __init__(self, points, left_slope, right_slope):
        self._init_data(points, left_slope, right_slope)

    def add(self, other):
        if isinstance(other, ConvexPA):
            other = other.as_general()
        if not isinstance(other, PAGeneral):
            return NotImplemented
        ls = _qadd(self.left_slope, other.left_slope)
        rs = _qadd(self.right_slope, other.right_slope)
        pts = _sum_on_grid(self, other, _breakpoint_grid(self, other))
        return PAGeneral._raw(_merge_collinear(pts, ls, rs), ls, rs)

    __add__ = add

    def scale(self, a) -> "PAGeneral":
        a = as_scalar(a)
        if scalar_sign(a) == 0:
            return PAGeneral.constant(0)
        # a nonzero factor keeps every kink and every collinear triple
        pts = [(x, _qmul(a, y)) for x, y in self.points]
        return PAGeneral._raw(pts, _qmul(a, self.left_slope), _qmul(a, self.right_slope))

    def is_convex(self) -> bool:
        pts = self.points
        if len(pts) == 1:
            return scalar_cmp(self.right_slope, self.left_slope) >= 0
        if _tail_turn(self.left_slope, pts[0], pts[1]) > 0:
            return False
        if any(_turn(p, q, r) > 0 for p, q, r in zip(pts, pts[1:], pts[2:])):
            return False
        return _tail_turn(self.right_slope, pts[-2], pts[-1]) >= 0


def pa_from_payload(payload: dict):
    """A potential, finite on all of R, from its payload: kind "convex" (the
    default) or "general".  A roof payload, with a "domain", is refused
    like any other kind."""
    kind = "concave" if "domain" in payload else payload.get("kind", "convex")
    if kind == "convex":
        return ConvexPA.from_payload(payload)
    if kind == "general":
        return PAGeneral.from_payload(payload)
    raise ValueError(
        f"potential kind {kind!r} is unknown; expected 'convex' or 'general'")


# -- free operations ------------------------------------------------------


def pointwise_min(fs: Sequence) -> PAGeneral:
    """Pointwise minimum of functions finite on all of R."""
    gens = [f.as_general() if isinstance(f, ConvexPA) else f for f in fs]
    if not gens:
        raise ValueError("pointwise_min of an empty family")
    out = gens[0]
    for g in gens[1:]:
        out = _min2_line(out, g)
    return out


def _min2_line(f: PAGeneral, g: PAGeneral) -> PAGeneral:
    xs = _breakpoint_grid(f, g)
    fs, gs = _values_on_grid(f, xs), _values_on_grid(g, xs)
    # interior crossings
    extra = [x for x in map(_crossing, xs, xs[1:], fs, gs, fs[1:], gs[1:])
             if x is not None]
    # tail crossings: extend the grid far enough that the lower tail is settled
    extra += _tail_crossings(f, g, xs, fs, gs)
    if extra:
        xs = _grid(xs, extra)
        fs, gs = _values_on_grid(f, xs), _values_on_grid(g, xs)
    pts = [(x, _min_scalar(y1, y2)) for x, y1, y2 in zip(xs, fs, gs)]
    ls = f.left_slope if scalar_cmp(f.left_slope, g.left_slope) >= 0 else g.left_slope
    rs = f.right_slope if scalar_cmp(f.right_slope, g.right_slope) <= 0 else g.right_slope
    return PAGeneral._raw(_merge_collinear(pts, ls, rs), ls, rs)


def _min_scalar(a, b):
    return a if scalar_cmp(a, b) <= 0 else b


def _crossing(a, b, fa, ga, fb, gb):
    """The x in the open interval (a, b) where the affine pieces of f and g
    cross with a sign change, a + (b - a) d_a / (d_a - d_b) for d = f - g,
    or None; fa = f(a) and so on."""
    if scalar_cmp(fa, ga) * scalar_cmp(fb, gb) >= 0:
        return None
    da = _qsub(fa, ga)
    return _qadd(a, _qdiv(_qmul(_qsub(b, a), da), _qsub(da, _qsub(fb, gb))))


def _tail_crossing(x0, fy, gy, fs, gs, side: int):
    """The x where the tails of slopes fs and gs through (x0, fy) and
    (x0, gy) cross, x0 - (fy - gy) / (fs - gs), when it lies strictly on
    the given side of x0 (-1 left, 1 right), else None."""
    # x - x0 has the sign of -(fy - gy) (fs - gs)
    if scalar_cmp(fy, gy) * scalar_cmp(fs, gs) != -side:
        return None
    return _qsub(x0, _qdiv(_qsub(fy, gy), _qsub(fs, gs)))


def _tail_crossings(f, g, xs, fs, gs):
    # f - g = v + dl (x - x0) beyond x0, for the first or last grid point x0
    ends = [_tail_crossing(xs[0], fs[0], gs[0], f.left_slope, g.left_slope, -1),
            _tail_crossing(xs[-1], fs[-1], gs[-1], f.right_slope, g.right_slope, 1)]
    return [x for x in ends if x is not None]


def convex_envelope(f) -> ConvexPA:
    """Greatest convex minorant of a piecewise-affine function on R.

    The envelope keeps the asymptotic slopes and its breakpoints are the
    lower convex hull of the breakpoints, with the two tails as neighbours
    at infinity.  One monotone-chain pass (Andrew 1979) builds that hull:
    a breakpoint is dropped as soon as it is not strictly below the chord
    (or tail) past it.  Exact, and equal to f if and only if f was already
    convex.
    """
    if isinstance(f, ConvexPA):
        return f
    if not isinstance(f, PAGeneral):
        raise TypeError(f"cannot take the envelope of {type(f).__name__}")
    s_minus, s_plus = f.left_slope, f.right_slope
    if scalar_cmp(s_minus, s_plus) > 0:
        raise UnboundedBelow(
            f"asymptotic slopes ({s_minus}, {s_plus}) admit no affine minorant"
        )
    hull: list = []
    for p in f.points:
        # drop q while its incoming slope (the left tail for the first
        # point) is at least the slope from q to p
        while hull and (_tail_turn(s_minus, hull[0], p) if len(hull) == 1
                        else _turn(hull[-2], hull[-1], p)) >= 0:
            hull.pop()
        hull.append(p)
    # then the right tail: drop q while its incoming slope is at least s_plus
    while len(hull) > 1 and _tail_turn(s_plus, hull[-2], hull[-1]) <= 0:
        hull.pop()
    # every point left is a strict kink, tails included
    return ConvexPA._raw(hull, s_minus, s_plus)


def legendre_roof(potential: ConvexPA) -> ConcavePA:
    """roof(x) = inf_u (potential(u) - x*u), on [left slope, right slope].

    Breakpoints of the potential become slopes of the roof and conversely;
    the transform is exact and inverted by :func:`legendre_potential`.
    """
    pts = potential.points
    slopes = (
        [potential.left_slope]
        + [_slope(p, q) for p, q in zip(pts, pts[1:])]
        + [potential.right_slope]
    )
    if scalar_cmp(slopes[0], slopes[-1]) == 0:  # globally affine potential
        return ConcavePA._raw([(slopes[0], _on_line(*pts[0], slopes[0]))])
    out = [(s, _on_line(u, g, s)) for s, (u, g) in zip(slopes, pts)]
    out.append((slopes[-1], _on_line(*pts[-1], slopes[-1])))
    # the potential's slopes increase strictly, so these x do, and the
    # segment slopes -u fall strictly: canonical as built
    return ConcavePA._raw(out)


def unit_roof(potential) -> ConcavePA:
    """``legendre_roof(convex_envelope(potential))``."""
    return legendre_roof(convex_envelope(potential))


def legendre_potential(roof: ConcavePA, window: Interval | None = None) -> ConvexPA:
    """potential(u) = sup_x (x*u + roof(x)), a convex function on all of R,
    the sup taken over the window (default: the roof's domain).

    Each segment of the roof, of slope m from (x, y), gives the breakpoint
    (-m, y - m*x), and the ends of the window are the tails.  With a window
    this is ``legendre_potential(roof.restrict(window))``, read off the
    segments that meet the open window: no point is cut at the window's
    ends, so a rational roof gives rational breakpoints even when the ends
    are symbolic (the Zariski positive part cuts at zeros of the global
    roof, which involve log p), and no exact quotient is formed.
    """
    pts = roof.points
    window = roof.domain if window is None else window
    if window.is_empty:
        raise EmptyDomain("cannot restrict to the empty interval")
    lo, hi = window.lo, window.hi
    if scalar_cmp(pts[0][0], lo) > 0 or scalar_cmp(hi, pts[-1][0]) > 0:
        raise OutOfDomain(f"{window} is not inside {roof.domain}")
    if window.is_point:
        return ConvexPA._raw([(_ZERO, roof.eval(lo))], lo, lo)
    i = 1
    while scalar_cmp(pts[i][0], lo) <= 0:
        i += 1
    j = i
    while j < len(pts) - 1 and scalar_cmp(pts[j][0], hi) < 0:
        j += 1
    out = []
    for p, q in zip(pts[i - 1:j], pts[i:j + 1]):
        m = _slope(p, q)
        out.append((_qsub(_ZERO, m), _on_line(*p, m)))
    # the roof's slopes fall strictly, so the -m rise strictly, and the
    # potential's slopes are the roof's breakpoints inside the window,
    # strictly between its ends: canonical as built
    return ConvexPA._raw(out, lo, hi)


def integrate_positive_part(f: ConcavePA) -> Scalar:
    """The exact integral of max(f, 0) over the domain: half of
    ``_twice_integral``, a Fraction for rational data and an ExactNumber
    otherwise."""
    return _twice_integral(f) / 2


def _twice_integral(f: ConcavePA) -> Scalar:
    """Twice the exact integral of max(f, 0) over the domain, the form in
    which ``positivity.avol`` reads it off a built roof.

    With rational x and values polynomial in the logs (d = 1), the points
    go on one integer grid, x = X / U over the lcm U of their
    denominators and y = Y / S per monomial over the lcm S of their
    scales, and ``_twice_area`` forms twice the integral over U S, as it
    does for the line kernel's volume.

    Any other input takes the field loop: breakpoints outside Q (a Zariski
    positive part's symbolic region ends), or values outside the
    polynomials, which only library input builds.  It sums the same terms
    with the field operators.
    """
    pts = f.points
    xr = _ratios([x for x, _ in pts])
    read = xr and _poly_columns([y for _, y in pts])
    if read:
        cols, monos, big_s = read
        big_u = lcm(*[b for _, b in xr])
        return _twice_area([a * (big_u // b) for a, b in xr], cols, monos,
                           big_u * big_s)[0]
    run = _nonneg_run([y for _, y in pts])
    if run is None:
        return _ZERO
    first, last, sign_first, sign_last = run
    total = _ZERO
    for (x1, y1), (x2, y2) in zip(pts[first:last], pts[first + 1:last + 1]):
        total = total + (x2 - x1) * (y1 + y2)
    if first > 0 and sign_first > 0:
        (x1, y_out), (x2, y_in) = pts[first - 1], pts[first]
        total = total + (x2 - x1) * y_in * y_in / (y_in - y_out)
    if last < len(pts) - 1 and sign_last > 0:
        (x1, y_in), (x2, y_out) = pts[last], pts[last + 1]
        total = total + (x2 - x1) * y_in * y_in / (y_in - y_out)
    return total


def _twice_area(grid, cols, monos, den, layers=1) -> list:
    """Twice the integral of max(f, 0) for the concave piecewise-affine f
    with breakpoints at the sorted integer keys of grid and the values
    sum_j cols[j][i] monos[j] there, monos[j] a monomial in the logs, all
    over den (the key denominator times the value denominator): its
    coefficients [c_0, ..., c_{layers-1}] in eps, one layer on ints, three
    on the ``positivity._Eps`` values of a jet.

    Twice the area is w (y1 + y2) over the segments of width w nonnegative
    at both ends, plus w y_in^2 / (y_in - y_out) = y_in^2 / r at each
    clipped end.  The fall r on a segment is fixed by its abscissae, so at
    a jet r = l_k / w_k for the lowest nonzero layer w_k of w (k = 1 for
    width 0 at t = 0) and the same layer l_k of y_in - y_out.  One column
    of the monomial 1 is summed over Z and built as one Fraction; columns in
    the logs are summed per monomial, and each coefficient is built once
    by ``exactnum._affine_quotient_sum``, over the clip denominators
    y_in - y_out as its factors."""
    ys, sign = _key_values(cols, monos, layers)
    ints = sign is scalar_sign
    run = _nonneg_run(ys, sign)
    if run is None:
        return [_ZERO] * layers
    first, last, sign_first, sign_last = run
    clips = []
    if first > 0 and sign_first > 0:
        clips.append((grid[first] - grid[first - 1], ys[first], ys[first - 1]))
    if last < len(grid) - 1 and sign_last > 0:
        clips.append((grid[last + 1] - grid[last], ys[last], ys[last + 1]))
    steps = [g2 - g1 for g1, g2 in zip(grid[first:last], grid[first + 1:last + 1])]
    sums = [sum(w * (y1 + y2) for w, y1, y2 in zip(steps, col[first:], col[first + 1:]))
            for col in cols]
    if ints:
        num, q = sums[0], 1
        for w, y_in, y_out in clips:
            lin = y_in - y_out
            if type(w) is not int:  # a jet: read r off the lowest layer
                k = 0 if w[0] else 1
                w, lin = w[k], lin[k]
            num, q = num * lin + w * y_in * y_in * q, q * lin
        return [_q(_layer(num, j), den * q) for j in range(layers)]
    ends = []
    for w, y_in, y_out in clips:
        lin = _lin(y_in, 1, y_out, -1)
        if type(w) is not int:
            k = 0 if w[0] else 1
            w, lin = w[k], {mono: c[k] for mono, c in lin.items()}
        ends.append((w, lin, _mul(y_in, y_in)))
    return [_affine_quotient_sum(
                {mono: _layer(c, j) for mono, c in zip(monos, sums)}, den,
                [({mono: w * _layer(c, j) for mono, c in sq.items()}, den, [lin])
                 for w, lin, sq in ends])
            for j in range(layers)]


def _key_values(cols, monos, layers=1) -> tuple:
    """(ys, sign): the values sum_j cols[j][i] monos[j] at the keys of
    ``_twice_area``'s data, and the function that decides their signs.  One
    column of the monomial 1 is read as it is, its ints (or ``_Eps``
    values) signed by ``scalar_sign``; otherwise each value is an integer
    polynomial in the logs, signed by ``_poly_sign``, or by
    ``_layered_sign`` on a jet's layers."""
    if len(cols) == 1 and monos[0] == _MONO_ONE:
        return cols[0], scalar_sign
    ys = [{mono: y for mono, y in zip(monos, row) if y} for row in zip(*cols)]
    return ys, _poly_sign if layers == 1 else _layered_sign


def _layer(x, j: int) -> int:
    """The coefficient of eps^j in an int or a ``positivity._Eps``."""
    return (0 if j else x) if type(x) is int else x[j]


def _layered_sign(poly) -> int:
    """The sign of a form in the logs over ``positivity._Eps``: layer 0
    decides, by ``_poly_sign``, and layer 1 only on a tie."""
    signs = (_poly_sign({mono: c[j] for mono, c in poly.items() if c[j]}) for j in (0, 1))
    return next((s for s in signs if s), 0)
