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
  so has a sum of such functions on the union of their kinks
  (``ConvexPA.add``, ``ConcavePA.add``);
* the lower hull of :func:`convex_envelope` drops every point that is not
  strictly below its neighbours;
* scaling by a nonzero factor keeps kinks and collinear triples (by a
  positive one, convexity too), and shifting or reflecting keeps both;
* a single breakpoint with tails of slopes s <= t is convex, and one that
  passed ``PAGeneral.is_convex`` is ConvexPA data already;
* the hull of :func:`convex_envelope` drops collinear points, so the raw
  rows of a threshold's Newton step need no merge before it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    EmptyDomain,
    NotConcave,
    NotConvex,
    OutOfDomain,
    UnboundedBelow,
)
from .exactnum import ExactNumber, Scalar, scalar_sign


def as_scalar(value) -> Scalar:
    """Coerce exact input (int, Fraction, "p/q" string, ExactNumber)."""
    if isinstance(value, (Fraction, ExactNumber)):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact scalar: {value!r} ({type(value).__name__})")


def _fmt(x: Scalar) -> str:
    return str(x)


class Interval:
    """A closed interval [lo, hi] with exact endpoints, or the empty interval."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo, hi = as_scalar(lo), as_scalar(hi)
        if lo > hi:
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
        return not self.is_empty and self.lo == self.hi

    @property
    def length(self) -> Scalar:
        return Fraction(0) if self.is_empty else self.hi - self.lo

    def contains(self, x) -> bool:
        if self.is_empty:
            return False
        x = as_scalar(x)
        return self.lo <= x <= self.hi

    __contains__ = contains

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


def _slope(p, q) -> Scalar:
    return (q[1] - p[1]) / (q[0] - p[0])


def _clean_points(points) -> list:
    pts = [(as_scalar(x), as_scalar(y)) for x, y in points]
    if not pts:
        raise ValueError("at least one breakpoint is required")
    for (x1, _), (x2, _) in zip(pts, pts[1:]):
        if not x1 < x2:
            raise ValueError("breakpoint x-coordinates must be strictly increasing")
    return pts


def _collinear(p, q, r) -> bool:
    """Whether q lies on the segment p -> r, by cross-multiplication (no
    divisions: exact quotients are far costlier than products here)."""
    return bool((q[1] - p[1]) * (r[0] - q[0]) == (r[1] - q[1]) * (q[0] - p[0]))


def _merge_collinear(pts: list, left_slope=None, right_slope=None) -> list:
    """Drop breakpoints that lie on the line through their neighbours (tails
    count as neighbours of slope left_slope / right_slope when given).

    One pass suffices: removing a collinear point never changes the slopes
    of the surviving segments around it."""
    out = list(pts)
    if left_slope is not None:
        while len(out) > 1 and bool(
            out[1][1] - out[0][1] == left_slope * (out[1][0] - out[0][0])
        ):
            out.pop(0)
    if right_slope is not None:
        while len(out) > 1 and bool(
            out[-1][1] - out[-2][1] == right_slope * (out[-1][0] - out[-2][0])
        ):
            out.pop()
    if len(out) > 2:
        kept = [out[0]]
        for i in range(1, len(out) - 1):
            if not _collinear(kept[-1], out[i], out[i + 1]):
                kept.append(out[i])
        kept.append(out[-1])
        out = kept
    return out


def _eval_on_grid(pts, xs, left_slope=None, right_slope=None) -> list:
    """The values at each x of a sorted grid, in one joint scan of the
    breakpoints: a breakpoint's value, the chord between two breakpoints,
    or a tail.  Outside the breakpoint hull the function follows the tails,
    which must then be given."""
    out = []
    i = 0
    top = len(pts) - 1
    for x in xs:
        while i < top and pts[i + 1][0] <= x:
            i += 1
        x0, y0 = pts[i]
        if x == x0:
            out.append(y0)
        elif i == 0 and x < x0:
            out.append(y0 + left_slope * (x - x0))
        elif i == top:
            out.append(y0 + right_slope * (x - x0))
        else:
            x1, y1 = pts[i + 1]
            out.append(y0 + (y1 - y0) * (x - x0) / (x1 - x0))
    return out


def _jets_on_grid(f, xs) -> list:
    """(value, left slope, right slope) of a function finite on R at each x
    of a sorted grid, in one joint scan; beyond the breakpoints the function
    follows its asymptotic slopes."""
    pts = f.points
    slopes = ([f.left_slope] + [_slope(p, q) for p, q in zip(pts, pts[1:])]
              + [f.right_slope])
    out = []
    j = 0  # the first breakpoint at or right of x
    n = len(pts)
    for x in xs:
        while j < n and pts[j][0] < x:
            j += 1
        if j < n and pts[j][0] == x:
            out.append((pts[j][1], slopes[j], slopes[j + 1]))
        else:
            s = slopes[j]
            x0, y0 = pts[min(j, n - 1)]
            out.append((y0 + s * (x - x0), s, s))
    return out


class ConcavePA:
    """A concave piecewise-affine function on a compact interval.

    Stored as breakpoints ``(x, y)`` covering the whole domain; a single
    breakpoint is a legal (point-domain) function.
    """

    __slots__ = ("points",)

    def __init__(self, points: Iterable):
        pts = _merge_collinear(_clean_points(points))
        for p, q, r in zip(pts, pts[1:], pts[2:]):
            # slope(p,q) > slope(q,r), cross-multiplied (both dx > 0)
            if not (q[1] - p[1]) * (r[0] - q[0]) > (r[1] - q[1]) * (q[0] - p[0]):
                raise NotConcave(
                    f"slopes are not strictly decreasing at x = {q[0]}"
                )
        self.points = tuple(pts)

    @classmethod
    def _raw(cls, pts) -> "ConcavePA":
        """Wrap a breakpoint list known to be canonical already (sorted,
        strictly decreasing slopes), skipping validation.  The callers and
        their proofs: ``legendre_roof`` (the potential's strictly rising
        slopes and breakpoints), ``add`` and ``ToricAdelicDivisor.roof``
        (every grid point is a strict kink of a summand), ``scale`` by a
        positive factor, ``shift``, ``reflect`` and ``restrict`` (cutting
        an affine piece leaves no collinear triple)."""
        obj = object.__new__(cls)
        obj.points = tuple(pts)
        return obj

    @classmethod
    def constant(cls, lo, hi, value) -> "ConcavePA":
        lo, hi, value = as_scalar(lo), as_scalar(hi), as_scalar(value)
        if lo == hi:
            return cls([(lo, value)])
        return cls([(lo, value), (hi, value)])

    @classmethod
    def affine(cls, lo, hi, slope, value_at_lo) -> "ConcavePA":
        lo, hi = as_scalar(lo), as_scalar(hi)
        slope, y0 = as_scalar(slope), as_scalar(value_at_lo)
        if lo == hi:
            return cls([(lo, y0)])
        return cls([(lo, y0), (hi, y0 + slope * (hi - lo))])

    @property
    def domain(self) -> Interval:
        return Interval(self.points[0][0], self.points[-1][0])

    def eval(self, x) -> Scalar:
        x = as_scalar(x)
        if x < self.points[0][0]:
            raise OutOfDomain(f"{x} lies left of the domain")
        if x > self.points[-1][0]:
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

    def scale(self, a) -> "ConcavePA":
        a = as_scalar(a)
        s = scalar_sign(a)
        if s < 0:
            raise NotConcave("scaling a concave function by a negative factor")
        if s == 0:
            return ConcavePA([(x, a * y) for x, y in self.points])
        return ConcavePA._raw([(x, a * y) for x, y in self.points])

    def shift(self, c) -> "ConcavePA":
        c = as_scalar(c)
        return ConcavePA._raw([(x, y + c) for x, y in self.points])

    def restrict(self, window: Interval) -> "ConcavePA":
        if window.is_empty:
            raise EmptyDomain("cannot restrict to the empty interval")
        if not (self.domain.lo <= window.lo and window.hi <= self.domain.hi):
            raise OutOfDomain(f"{window} is not inside {self.domain}")
        if window.is_point:
            return ConcavePA._raw([(window.lo, self.eval(window.lo))])
        if bool(window.lo == self.points[0][0]) and bool(
            window.hi == self.points[-1][0]
        ):
            return self
        pts = [(window.lo, self.eval(window.lo))]
        pts += [(x, y) for x, y in self.points if window.lo < x < window.hi]
        pts += [(window.hi, self.eval(window.hi))]
        # cutting an affine piece cannot create a collinear triple among the
        # survivors, so the result is canonical
        return ConcavePA._raw(pts)

    def reflect(self) -> "ConcavePA":
        """The function x -> f(-x)."""
        return ConcavePA._raw([(-x, y) for x, y in reversed(self.points)])

    def max_over_domain(self) -> Scalar:
        return max(y for _, y in self.points)

    def argmax(self):
        """(x, max f), x the midpoint of the top when f is flat there.  By
        concavity the values rise up to the top and fall after it."""
        pts = self.points
        i = 0
        while i + 1 < len(pts) and pts[i + 1][1] > pts[i][1]:
            i += 1
        x, y = pts[i]
        if i + 1 < len(pts) and pts[i + 1][1] == y:
            x = (x + pts[i + 1][0]) / 2
        return x, y

    def min_over_domain(self) -> Scalar:
        first, last = self.points[0][1], self.points[-1][1]
        return first if first <= last else last

    def nonneg_region(self) -> Interval:
        """The interval {f >= 0} (possibly empty or a point), with exact
        endpoints: sign-change roots are solved in the scalar field."""
        run = _nonneg_run(self.points)
        if run is None:
            return Interval.EMPTY
        first, last, _ = run
        if first == 0:
            lo = self.points[0][0]
        else:
            lo = _zero_between(self.points[first - 1], self.points[first])
        if last == len(self.points) - 1:
            hi = self.points[-1][0]
        else:
            hi = _zero_between(self.points[last], self.points[last + 1])
        return Interval(lo, hi)

    def integrate(self) -> Scalar:
        total: Scalar = Fraction(0)
        for (x1, y1), (x2, y2) in zip(self.points, self.points[1:]):
            total = total + (x2 - x1) * (y1 + y2) / 2
        return total

    def to_payload(self) -> dict:
        return {
            "domain": [str(self.points[0][0]), str(self.points[-1][0])],
            "points": [[str(x), str(y)] for x, y in self.points],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ConcavePA":
        pts = [(Fraction(x), Fraction(y)) for x, y in payload["points"]]
        f = cls(pts)
        if "domain" in payload:
            lo, hi = (Fraction(v) for v in payload["domain"])
            if f.domain != Interval(lo, hi):
                raise ValueError("payload domain disagrees with its points")
        return f

    def __eq__(self, other):
        if not isinstance(other, ConcavePA):
            return NotImplemented
        return _points_equal(self.points, other.points)

    __hash__ = None

    def __repr__(self):
        pts = ", ".join(f"({_fmt(x)}, {_fmt(y)})" for x, y in self.points)
        return f"ConcavePA[{pts}]"


def _nonneg_run(pts):
    """(first, last, signs) for the breakpoints of a concave function: the
    signs of the values and the first and last index with value >= 0, or
    None when every value is negative.  By concavity every breakpoint
    between first and last is nonnegative too."""
    signs = [scalar_sign(y) for _, y in pts]
    first = next((i for i, s in enumerate(signs) if s >= 0), None)
    if first is None:
        return None
    last = len(signs) - 1 - next(i for i, s in enumerate(reversed(signs)) if s >= 0)
    return first, last, signs


def _zero_between(p, q) -> Scalar:
    (x1, y1), (x2, y2) = p, q
    return x1 + (x2 - x1) * y1 / (y1 - y2)


def _points_equal(a, b) -> bool:
    if len(a) != len(b):
        return False
    return all(bool(p[0] == q[0]) and bool(p[1] == q[1]) for p, q in zip(a, b))


def _grid(*groups) -> list:
    xs: list = []
    for group in groups:
        xs.extend(group)
    xs.sort()
    out = [xs[0]]
    for x in xs[1:]:
        if not x == out[-1]:
            out.append(x)
    return out


class _LinePA:
    """Shared implementation for functions finite on all of R."""

    __slots__ = ("points", "left_slope", "right_slope", "_roof")

    def _init_data(self, points, left_slope, right_slope):
        ls, rs = as_scalar(left_slope), as_scalar(right_slope)
        self._set(_merge_collinear(_clean_points(points), ls, rs), ls, rs)

    def _set(self, pts, ls, rs):
        self._roof = None  # filled by unit_roof; not part of the value
        if len(pts) == 1 and bool(ls == rs):
            # a globally affine function is stored by its value at 0, so
            # that equal functions have equal data
            u, y = pts[0]
            pts = [(Fraction(0), y - ls * u)]
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
        potential in ``divisors``, and the rows of a Newton step in
        ``positivity._twisted_roof``, fed only to ``convex_envelope``."""
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
            if y < out:
                out = y
        return out

    def _payload(self) -> dict:
        return {
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

    def _repr_data(self) -> str:
        pts = ", ".join(f"({_fmt(x)}, {_fmt(y)})" for x, y in self.points)
        return f"slopes ({_fmt(self.left_slope)}, {_fmt(self.right_slope)}); {pts}"


def _breakpoint_grid(*fs) -> list:
    return _grid(*((x for x, _ in f.points) for f in fs))


def _values_on_grid(f: _LinePA, xs) -> list:
    return _eval_on_grid(f.points, xs, f.left_slope, f.right_slope)


def _sum_on_grid(f: _LinePA, g: _LinePA, xs) -> list:
    """The points of f + g over the sorted grid xs, each summand read in
    one joint scan."""
    return [(x, y1 + y2) for x, y1, y2 in zip(
        xs, _values_on_grid(f, xs), _values_on_grid(g, xs))]


def abs_scalar(x: Scalar) -> Scalar:
    return -x if scalar_sign(x) < 0 else x


class ConvexPA(_LinePA):
    """A convex piecewise-affine function finite on all of R."""

    def __init__(self, points, left_slope, right_slope):
        self._init_data(points, left_slope, right_slope)
        pts = self.points
        if len(pts) == 1:
            d = self.right_slope - self.left_slope
            if scalar_sign(d) < 0:
                raise NotConvex("tail slopes are not increasing")
            return  # equal tails: globally affine
        # all comparisons cross-multiplied (dx > 0), avoiding exact division
        p, q = pts[0], pts[1]
        if not self.left_slope * (q[0] - p[0]) < q[1] - p[1]:
            raise NotConvex("left tail slope is not below the first segment")
        for p, q, r in zip(pts, pts[1:], pts[2:]):
            if not (q[1] - p[1]) * (r[0] - q[0]) < (r[1] - q[1]) * (q[0] - p[0]):
                raise NotConvex(
                    f"slopes are not strictly increasing at x = {q[0]}"
                )
        p, q = pts[-2], pts[-1]
        if not q[1] - p[1] < self.right_slope * (q[0] - p[0]):
            raise NotConvex("right tail slope is not above the last segment")

    @classmethod
    def constant(cls, value) -> "ConvexPA":
        return cls([(Fraction(0), as_scalar(value))], 0, 0)

    @classmethod
    def affine(cls, slope, value_at_zero) -> "ConvexPA":
        return cls([(Fraction(0), as_scalar(value_at_zero))], slope, slope)

    def add(self, other):
        if isinstance(other, ConvexPA):
            # each breakpoint of a summand is a strict kink of it, where the
            # other's slope cannot fall, so the sum is canonical on the union
            # of the breakpoints; an affine summand (equal tails) has none
            kinked = [f for f in (self, other)
                      if bool(f.left_slope != f.right_slope)] or [self]
            return ConvexPA._raw(
                _sum_on_grid(self, other, _breakpoint_grid(*kinked)),
                self.left_slope + other.left_slope,
                self.right_slope + other.right_slope,
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
                [(x, a * y) for x, y in self.points],
                a * self.left_slope,
                a * self.right_slope,
            )
        if s == 0:
            return ConvexPA.constant(0)
        return self.as_general().scale(a)

    def as_general(self) -> "PAGeneral":
        return PAGeneral._raw(self.points, self.left_slope, self.right_slope)

    def to_payload(self) -> dict:
        return {"kind": "convex", **self._payload()}

    def __repr__(self):
        return f"ConvexPA({self._repr_data()})"


class PAGeneral(_LinePA):
    """A piecewise-affine function finite on all of R, no shape promised."""

    def __init__(self, points, left_slope, right_slope):
        self._init_data(points, left_slope, right_slope)

    @classmethod
    def constant(cls, value) -> "PAGeneral":
        return cls([(Fraction(0), as_scalar(value))], 0, 0)

    def add(self, other):
        if isinstance(other, ConvexPA):
            other = other.as_general()
        if not isinstance(other, PAGeneral):
            return NotImplemented
        ls = self.left_slope + other.left_slope
        rs = self.right_slope + other.right_slope
        pts = _sum_on_grid(self, other, _breakpoint_grid(self, other))
        return PAGeneral._raw(_merge_collinear(pts, ls, rs), ls, rs)

    __add__ = add

    def scale(self, a) -> "PAGeneral":
        a = as_scalar(a)
        if scalar_sign(a) == 0:
            return PAGeneral.constant(0)
        # a nonzero factor keeps every kink and every collinear triple
        pts = [(x, a * y) for x, y in self.points]
        return PAGeneral._raw(pts, a * self.left_slope, a * self.right_slope)

    def __neg__(self) -> "PAGeneral":
        return self.scale(Fraction(-1))

    def is_convex(self) -> bool:
        pts = self.points
        if len(pts) == 1:
            return scalar_sign(self.right_slope - self.left_slope) >= 0
        p, q = pts[0], pts[1]
        if not bool(self.left_slope * (q[0] - p[0]) <= q[1] - p[1]):
            return False
        for p, q, r in zip(pts, pts[1:], pts[2:]):
            if not bool((q[1] - p[1]) * (r[0] - q[0]) <= (r[1] - q[1]) * (q[0] - p[0])):
                return False
        p, q = pts[-2], pts[-1]
        return bool(q[1] - p[1] <= self.right_slope * (q[0] - p[0]))

    def to_payload(self) -> dict:
        return {"kind": "general", **self._payload()}

    def __repr__(self):
        return f"PAGeneral({self._repr_data()})"


def pa_from_payload(payload: dict):
    if "domain" in payload or payload.get("kind") == "concave":
        return ConcavePA.from_payload(payload)
    if payload.get("kind") == "general":
        return PAGeneral.from_payload(payload)
    return ConvexPA.from_payload(payload)


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
    ls = f.left_slope if f.left_slope >= g.left_slope else g.left_slope
    rs = f.right_slope if f.right_slope <= g.right_slope else g.right_slope
    return PAGeneral._raw(_merge_collinear(pts, ls, rs), ls, rs)


def _min_scalar(a, b):
    return a if a <= b else b


def _crossing(a, b, fa, ga, fb, gb):
    """The x in the open interval (a, b) where the affine pieces of f and g
    cross with a sign change, or None; fa = f(a) and so on."""
    da, db = scalar_sign(fa - ga), scalar_sign(fb - gb)
    if da * db >= 0:
        return None
    # (f - g) is affine on [a, b] with a strict sign change
    diff_a, diff_b = fa - ga, fb - gb
    return a + (b - a) * diff_a / (diff_a - diff_b)


def _tail_crossings(f, g, xs, fs, gs):
    out = []
    x0, xn = xs[0], xs[-1]
    dl = f.left_slope - g.left_slope
    if scalar_sign(dl) != 0:
        v = fs[0] - gs[0]
        # f - g = v + dl*(x - x0) for x <= x0; crossing at x0 - v/dl if left of x0
        x = x0 - v / dl
        if x < x0:
            out.append(x)
    dr = f.right_slope - g.right_slope
    if scalar_sign(dr) != 0:
        v = fs[-1] - gs[-1]
        x = xn - v / dr
        if x > xn:
            out.append(x)
    return out


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
    if s_minus > s_plus:
        raise UnboundedBelow(
            f"asymptotic slopes ({s_minus}, {s_plus}) admit no affine minorant"
        )
    hull: list = []
    for p in f.points:
        # drop q while its incoming slope (the left tail for the first
        # point) is at least the slope from q to p; all cross-multiplied
        while hull:
            q = hull[-1]
            dx, dy = p[0] - q[0], p[1] - q[1]
            if len(hull) == 1:
                drop = s_minus * dx >= dy
            else:
                o = hull[-2]
                drop = (q[1] - o[1]) * dx >= dy * (q[0] - o[0])
            if not drop:
                break
            hull.pop()
        hull.append(p)
    # then the right tail: drop q while its incoming slope is at least s_plus
    while len(hull) > 1 and hull[-1][1] - hull[-2][1] >= s_plus * (
            hull[-1][0] - hull[-2][0]):
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
    if bool(slopes[0] == slopes[-1]):  # globally affine potential
        s = slopes[0]
        u0, g0 = pts[0]
        return ConcavePA._raw([(s, g0 - s * u0)])
    out = []
    for j, (u, gval) in enumerate(pts):
        out.append((slopes[j], gval - slopes[j] * u))
    un, gn = pts[-1]
    out.append((slopes[-1], gn - slopes[-1] * un))
    # the potential's slopes increase strictly, so these x do, and the
    # segment slopes -u fall strictly: canonical as built
    return ConcavePA._raw(out)


def unit_roof(potential) -> ConcavePA:
    """``legendre_roof(convex_envelope(potential))``, built once per potential.

    PA functions are immutable, so the roof is stored on the potential the
    first time and returned from there afterwards.
    """
    roof = potential._roof
    if roof is None:
        roof = potential._roof = legendre_roof(convex_envelope(potential))
    return roof


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
    if window is None:
        lo, hi = pts[0][0], pts[-1][0]
        segments = zip(pts, pts[1:])
    else:
        if window.is_empty:
            raise EmptyDomain("cannot restrict to the empty interval")
        lo, hi = window.lo, window.hi
        if not (pts[0][0] <= lo and hi <= pts[-1][0]):
            raise OutOfDomain(f"{window} is not inside {roof.domain}")
        if window.is_point:
            return ConvexPA._raw([(Fraction(0), roof.eval(lo))], lo, lo)
        i = 1
        while pts[i][0] <= lo:
            i += 1
        j = i
        while j < len(pts) - 1 and pts[j][0] < hi:
            j += 1
        segments = zip(pts[i - 1:j], pts[i:j + 1])
    if len(pts) == 1:
        x0, y0 = pts[0]
        return ConvexPA._raw([(Fraction(0), y0)], x0, x0)
    out = []
    for p, q in segments:
        m = _slope(p, q)
        out.append((-m, p[0] * (-m) + p[1]))
    # the roof's slopes fall strictly, so the -m rise strictly, and the
    # potential's slopes are the roof's breakpoints inside the window,
    # strictly between its ends: canonical as built
    return ConvexPA._raw(out, lo, hi)


def integrate_positive_part(f: ConcavePA, window: Interval | None = None) -> Scalar:
    """The exact integral of max(f, 0) over the window (default: the domain).

    One pass over the breakpoints: twice the area is the sum of
    (x2 - x1)(y1 + y2) over the segments where f >= 0 at both ends, plus,
    for each segment clipped by a sign change, the closed-form triangle
    (x2 - x1) y^2 / (y_in - y_out), y = y_in the nonnegative end; the total
    is halved once.  The sign-change roots themselves are never formed.  The
    result is a Fraction for rational data and an ExactNumber otherwise.
    """
    if window is not None:
        if window.is_empty:
            return Fraction(0)
        f = f.restrict(window)
    pts = f.points
    run = _nonneg_run(pts)
    if run is None:
        return Fraction(0)
    first, last, signs = run
    total: Scalar = Fraction(0)
    for (x1, y1), (x2, y2) in zip(pts[first:last], pts[first + 1:last + 1]):
        total = total + (x2 - x1) * (y1 + y2)
    if first > 0 and signs[first] > 0:
        (x1, y_out), (x2, y_in) = pts[first - 1], pts[first]
        total = total + (x2 - x1) * y_in * y_in / (y_in - y_out)
    if last < len(pts) - 1 and signs[last] > 0:
        (x1, y_in), (x2, y_out) = pts[last], pts[last + 1]
        total = total + (x2 - x1) * y_in * y_in / (y_in - y_out)
    return total / 2
