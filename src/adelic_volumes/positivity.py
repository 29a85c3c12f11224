"""Positivity theory for toric adelic divisors and pairs: the nef cone,
arithmetic volumes, Zariski positive parts, the bilinear intersection
pairing in closed form on the potentials' breakpoints, positive intersection
numbers, and the pseudo-effective thresholds behind the inradius/circumradius
of a pair of pairs.

Everything here is exact.  Volumes and intersection numbers are rational, or
symbolic combinations of log p when finite places contribute.  A threshold
is the last zero of the maximum of the twisted roof, a concave and
piecewise-affine function of the twist; exact Newton steps find it after a
few roof builds, and it comes back as a bracket lo == hi.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .divisors import (ARCH, Pair, ToricAdelicDivisor, _place_sort_key,
                       _roof_sum, as_pair)
from .errors import NotBig, NotNef
from .exactnum import Scalar, log_unit, scalar_float, scalar_sign
from .pa import (ConvexPA, Interval, PAGeneral, _clean_points, _grid,
                 _jet_pairing, _jets_on_grid, _on_line, _slope, convex_envelope,
                 integrate_positive_part, legendre_potential, legendre_roof,
                 unit_roof)


def _as_divisor(obj) -> ToricAdelicDivisor:
    if isinstance(obj, ToricAdelicDivisor):
        return obj
    if isinstance(obj, Pair) and obj.base.is_zero:
        return obj.divisor
    raise TypeError(f"expected a divisor, got {type(obj).__name__}")


# -- nef ------------------------------------------------------------------


def is_relatively_nef(divisor) -> bool:
    divisor = _as_divisor(divisor)
    if scalar_sign(divisor.degree) < 0:
        return False
    return all(
        isinstance(divisor.potential(v), ConvexPA) for v in divisor.places
    )


def is_nef(divisor) -> bool:
    """Relatively nef (every potential convex, degree >= 0) with a global
    roof that stays nonnegative over the polytope."""
    divisor = _as_divisor(divisor)
    return is_relatively_nef(divisor) and scalar_sign(
        Pair(divisor).global_roof().min_over_domain()) >= 0


# -- volume and bigness ----------------------------------------------------


def avol(pair):
    """Arithmetic volume: twice the area between the global roof and zero.

    Exact: a Fraction for log-free data, a symbolic-log scalar otherwise.
    An empty or degenerate polytope gives volume zero.  Kept on the pair,
    which is immutable.
    """
    pair = as_pair(pair)
    if pair._avol is None:
        window = pair.shifted_polytope()
        if window.is_empty or window.is_point:
            pair._avol = Fraction(0)
        else:
            pair._avol = 2 * integrate_positive_part(pair.global_roof())
    return pair._avol


def is_big(pair) -> bool:
    return scalar_sign(avol(pair)) > 0


def is_pseff(pair) -> bool:
    pair = as_pair(pair)
    window = pair.shifted_polytope()
    if window.is_empty:
        return False
    return scalar_sign(pair.global_roof().max_over_domain()) >= 0


# -- Zariski positive part -------------------------------------------------


@dataclass(frozen=True)
class ZariskiPart:
    """The maximal nef divisor under a big pair.  Its polytope is the region
    where the roof is nonnegative and its potentials are the biconjugates of
    the roofs restricted there; the volume matches the pair's exactly."""

    pair: Pair
    positive: ToricAdelicDivisor
    region: Interval


def zariski_positive_part(pair) -> ZariskiPart:
    """The Zariski positive part of a big pair.

    The region is {global roof >= 0}; its ends are zeros of the roof, so
    they may involve log p.  At each place the potential is the Legendre
    dual of the unit roof over the region, read off the rational unit roof
    (``legendre_potential`` with a window): its breakpoints stay rational
    and only its tails, the region's ends, can be symbolic.
    """
    pair = as_pair(pair)
    if not is_big(pair):
        raise NotBig(f"{pair!r} has volume zero; no positive part")
    roof = pair.global_roof()
    region = roof.nonneg_region()
    divisor = pair.divisor
    pots = {place: legendre_potential(unit_roof(divisor.potential(place)), region)
            for place in dict.fromkeys((ARCH,) + divisor.places)}
    positive = ToricAdelicDivisor(region.hi, -region.lo, pots)
    return ZariskiPart(pair=pair, positive=positive, region=region)


# -- intersection numbers --------------------------------------------------


def adeg_product(a, b):
    """Arithmetic intersection number of two divisors, in closed form.

    The height of a toric divisor is a sum over places of local integrals of
    its roof functions (Burgos Gil, Philippon and Sombra, *Arithmetic
    geometry of toric varieties*, Asterisque 360, Chapter 5).  On the line,
    a convex potential psi with Legendre roof theta has
    2 * int theta = sum_u [2 psi(u) D psi'(u) - u D(psi'^2)(u)] over its
    breakpoints u, where D is the jump (right minus left) of a one-sided
    slope.  Polarizing that quadratic form gives

        adeg(a, b) = sum_v c_v sum_{u in U_v} [psi_a(u) D psi_b'(u)
                     + psi_b(u) D psi_a'(u) - u D(psi_a' psi_b')(u)]

    with c_v = 1 at the archimedean place and log p at p (the weights of the
    global roof), and U_v the union of both potentials' breakpoints at v.
    Both sides are bilinear, so the formula holds for raw potentials, convex
    or not, and for any degree; on nef divisors it is the polarization
    (avol(a + b) - avol(a) - avol(b)) / 2 of the volume.
    """
    a = _as_divisor(a)
    b = _as_divisor(b)
    total = Fraction(0)
    for place in dict.fromkeys((ARCH,) + a.places + b.places):
        pot_a, pot_b = a.potential(place), b.potential(place)
        us = _grid((u for u, _ in pot_a.points), (u for u, _ in pot_b.points))
        local = _jet_pairing(us, _jets_on_grid(pot_a, us), _jets_on_grid(pot_b, us))
        total = total + (local if place == ARCH else log_unit(place) * local)
    return total


def positive_intersection(pair, direction):
    """Positive intersection number of a big pair against a divisor: the
    intersection of the Zariski positive part with the direction."""
    zar = zariski_positive_part(as_pair(pair))
    return adeg_product(zar.positive, _as_divisor(direction))


# -- thresholds, inradius, circumradius ------------------------------------


@dataclass(frozen=True)
class Bracket:
    """An enclosure [lo, hi] of a threshold; exact when lo == hi, which is
    how every threshold in this module is returned."""

    lo: Scalar
    hi: Scalar

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    @property
    def width(self) -> Scalar:
        return self.hi - self.lo

    @property
    def value(self) -> Scalar:
        return self.lo if self.exact else (self.lo + self.hi) / 2

    def reciprocal(self) -> "Bracket":
        if self.lo <= 0:
            raise ValueError(f"reciprocal of {self} needs a positive lower end")
        return Bracket(1 / self.hi, 1 / self.lo)

    def __float__(self) -> float:
        return scalar_float(self.value)

    def __repr__(self):
        if self.exact:
            return f"Bracket({self.lo})"
        return f"Bracket({self.lo}, {self.hi})"


def pseff_threshold(pair, nef_divisor) -> Bracket:
    """sup of t with (pair - t * nef_divisor) pseudo-effective, exactly.

    With base orders (v0, vinf) at Zero and Infinity, twisting by t moves
    the shifted polytope to the window
    W(t) = [-cinf_D + v0 + t * cinf_N, c0_D - vinf - t * c0_N], and on it
    the global roof is

        F(x, t) = sum_v c_v * min_u (pD_v(u) - t * pN_v(u) - x * u),

    with c_v = 1 at the archimedean place and log p at p, and u running over
    the breakpoints of both potentials at v.  The threshold is the last zero
    of g(t) = max of F(., t) over W(t), which is concave and piecewise
    affine in t; g is the maximum of the twisted pair's global roof.  Exact
    Newton steps find it from the top, where W is a point: each step follows
    the piece of g left of t, whose slope is read off the rows that attain
    the minimum at the argmax, so it stays at or right of the zero and lands
    on a new piece.  Each step reads the twisted roof straight off its rows
    (u, pD_v(u) - t * pN_v(u)) (``_twisted_roof``); no divisor or pair is
    built per step.  The guards (the pair big, the divisor nef and of
    positive volume) run on every call; a pair keeps its volume, so
    ``is_big`` of a pair already measured costs nothing.
    """
    pair = as_pair(pair)
    n = _as_divisor(nef_divisor)
    if not is_big(pair):
        raise NotBig(f"{pair!r} is not big")
    if not is_nef(n):
        raise NotNef(f"{n!r} is not nef")
    if scalar_sign(avol(Pair(n))) <= 0:
        raise NotNef(f"{n!r} is nef but has volume zero")
    d = pair.divisor
    v0, vinf = pair._toric_orders()
    t = (d.c0 - vinf + d.cinf - v0) / n.degree  # the window is a point here

    # per place: the weight c_v and rows (u, pD_v(u), pN_v(u))
    data = {}
    for place in dict.fromkeys((ARCH,) + d.places + n.places):
        pd, pn = d.potential(place), n.potential(place)
        us = _grid((u for u, _ in pd.points), (u for u, _ in pn.points))
        weight = Fraction(1) if place == ARCH else log_unit(place)
        data[place] = (weight, [(u, a, b) for u, (a, _, _), (b, _, _) in zip(
            us, _jets_on_grid(pd, us), _jets_on_grid(pn, us))])

    while True:
        c0, cinf = d.c0 - t * n.c0, d.cinf - t * n.cinf
        pots = {place: [(u, _on_line(b, a, t)) for u, a, b in rows]  # a - t * b
                for place, (_, rows) in data.items()}
        roof = _twisted_roof(pots, c0, cinf, v0, vinf)
        x, g = roof.argmax()
        if scalar_sign(g) >= 0:
            return Bracket(t, t)
        t = t + g / _fall_rate(data, pots, roof, x, n)


def _twisted_roof(pots, c0, cinf, v0, vinf):
    """The global roof of the twisted pair, read off its rows
    (u, pD - t * pN): per place the Legendre roof of the convex envelope of
    the rows, weighted and summed by ``_roof_sum`` on the polytope
    [-cinf, c0], then restricted to the window [-cinf + v0, c0 - vinf].
    This is the global roof of the twisted pair built as objects,
    coordinate for coordinate: a canonical place adds the zero roof, and a
    rational coordinate is a Fraction on both routes.  The rows' order is
    checked on every call.
    """
    roofs = {}
    for place, pts in pots.items():
        # raw: the tails are (-cinf, c0) by construction, and the hull
        # drops collinear points, so no merge is needed
        roofs[place] = legendre_roof(convex_envelope(
            PAGeneral._raw(_clean_points(pts), -cinf, c0)))
    roof = _roof_sum(roofs.pop(ARCH), [
        (place, roofs[place]) for place in sorted(roofs, key=_place_sort_key)])
    return roof.restrict(Interval(-cinf + v0, c0 - vinf))


def _fall_rate(data, pots, roof, x, n):
    """The rate M at which g rises as t falls, g(t - s) = g(t) + M * s for
    small s > 0, read at the argmax x.

    Moving t down by s and x by s * delta raises the row (u, pD, pN) of
    place v by s * (pN - u * delta), so M is the maximum, over the moves
    that keep x in W(t - s), of h(delta) = sum_v c_v * min (pN - u * delta)
    over the rows that attain the minimum at (x, t).  delta is free inside
    the window, at least -cinf_N on its lower edge and at most c0_N on its
    upper edge.  h is concave and piecewise affine, so its maximum is at
    delta = 0, at a bound, or where two active rows of one place cross.
    """
    active = []
    for place, (weight, rows) in data.items():
        ys = [_on_line(u, p, x) for u, p in pots[place]]  # p - x * u
        y = min(ys)
        active.append((weight, [(b, u) for (u, _, b), yu in zip(rows, ys)
                                if yu == y]))
    lo = -n.cinf if x == roof.points[0][0] else None
    hi = n.c0 if x == roof.points[-1][0] else None
    deltas = [e for e in (lo, hi) if e is not None] or [Fraction(0)]
    for _, rows in active:
        deltas += [_slope((u2, b2), (u, b)) for i, (b, u) in enumerate(rows)
                   for b2, u2 in rows[i + 1:]]
    return max(sum(w * min(_on_line(e, b, u) for b, u in rows)  # b - u * e
                   for w, rows in active)
               for e in deltas
               if (lo is None or e >= lo) and (hi is None or e <= hi))


def inradius(pair1, pair2) -> Bracket:
    """Largest t with (pair1 - t * positive part of pair2) pseudo-effective."""
    pos2 = zariski_positive_part(as_pair(pair2)).positive
    return pseff_threshold(as_pair(pair1), pos2)


def circumradius(pair1, pair2) -> Bracket:
    """Reciprocal of the inradius with the roles swapped."""
    return inradius(pair2, pair1).reciprocal()


@dataclass(frozen=True)
class DiskantReport:
    """The isoperimetric data of two big pairs: the mixed quantities
    s0, s1, s2, the inradius and circumradius brackets, and one named case
    per inequality with its slack."""

    s0: object
    s1: object
    s2: object
    r: Bracket
    R: Bracket
    cases: tuple

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.cases)

    def case(self, name: str):
        for c in self.cases:
            if c.name == name:
                return c
        raise KeyError(name)
