"""Positivity theory for toric adelic divisors and pairs: the nef cone,
arithmetic volumes, Zariski positive parts, the bilinear intersection
pairing in closed form on the potentials' breakpoints, positive intersection
numbers, and the pseudo-effective thresholds behind the inradius and
circumradius of a pair of pairs (``DiskantReport.r`` and ``.R``).

Everything here is exact.  Volumes and intersection numbers are rational, or
symbolic combinations of log p when finite places contribute.  A threshold
is the last zero of the maximum of the twisted roof, a concave and
piecewise-affine function of the twist; exact Newton steps find it after a
few steps, and it comes back as a bracket lo == hi.  Each step is one pass
of the line kernel (``_Line``) on integers, or on integer polynomials in
the logs at finite places, and builds no roof; the nef guards read the two
ends of the divisor's roof off its potentials' first and last breakpoints
(``_roof_ends``).  The volume avol(p1 + p2) of a sum of pairs is one pass
of the same kernel (``_sum_volume``), and intersection numbers pair
integer jets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .divisors import _ZERO, ARCH, Pair, ToricAdelicDivisor, _place_sort_key, as_pair
from .errors import EmptyPolytope, NotBig, NotNef
from .exactnum import (_UNIT, Scalar, _from_coeffs, _linear_combination, _mul, _parts,
                       _poly_parts, _product, _q, _qadd, _qdiv, _qsub, log_unit, scalar_cmp,
                       scalar_float, scalar_sign)
from .pa import (ConvexPA, Interval, _grid_jets, _grid_values, _integer_grid, _jet_pairing,
                 _on_line, _ratios, _twice_area, integrate_positive_part, legendre_potential,
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
    return _relatively_nef(divisor, divisor.degree)


def _relatively_nef(divisor, degree) -> bool:
    if scalar_sign(degree) < 0:
        return False
    return all(isinstance(pot, ConvexPA) for pot in divisor._potentials.values())


def is_nef(divisor) -> bool:
    """Relatively nef (every potential convex, degree >= 0) with a global
    roof that stays nonnegative over the polytope.  The roof is concave,
    so its minimum is at an end, and ``_roof_ends`` reads both ends."""
    divisor = _as_divisor(divisor)
    if not is_relatively_nef(divisor):
        return False
    at_lo, at_hi, _ = _roof_ends(divisor)
    return scalar_sign(at_lo) >= 0 and scalar_sign(at_hi) >= 0


def _roof_ends(divisor) -> tuple:
    """(Theta(lo), Theta(hi), s) for a relatively nef divisor: its roof
    Theta at the ends lo = -cinf and hi = c0 of its polytope and its right
    slope s at lo, read off each potential's first and last breakpoint.

    Proof.  The unit roof at v is theta_v(x) = min_u (psi_v(u) - x u), psi_v
    convex of tail slopes -cinf and c0.  At x = lo, psi_v(u) - x u is
    constant on the left tail and nondecreasing past its first breakpoint
    u_v, so theta_v(lo) = psi_v(u_v) + cinf u_v; likewise the last
    breakpoint w_v gives theta_v(hi) = psi_v(w_v) - c0 w_v.  u_v is a kink,
    so for x a little above lo the minimum stays at u_v: theta_v has the
    right slope -u_v there.  Theta sums the theta_v with the weights c_v
    (1, or log p); a place without a potential has the one breakpoint
    (0, 0) and adds 0.
    """
    lo, hi = _qsub(_ZERO, divisor.cinf), divisor.c0
    ends = ([], [], [])
    for place, pot in divisor._potentials.items():
        (u, y), (w, z) = pot.points[0], pot.points[-1]
        mono = () if place == ARCH else (place,)
        ends[0].append((mono, _on_line(u, y, lo)))  # y - lo u
        ends[1].append((mono, _on_line(w, z, hi)))
        ends[2].append((mono, _qsub(_ZERO, u)))
    return tuple(_place_sum(terms) for terms in ends)


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
            pair._avol = _ZERO
        else:
            area = integrate_positive_part(pair.global_roof())
            pair._avol = _qadd(area, area)
    return pair._avol


def is_big(pair) -> bool:
    return scalar_sign(avol(pair)) > 0


def _sum_volume(p1, p2):
    """avol(p1 + p2), read off the line kernel from p1's divisor towards
    p2's at t = 1 with the summed base orders: one integer pass, and no sum
    divisor, roof or integral is built.  avol(p1 + p2) itself when a tail,
    read first, or the data leave Q, where ``_Line`` has no volume pass."""
    d1, d2 = p1.divisor, p2.divisor
    line = (_Line(Pair(d1, p1.base + p2.base), d2)
            if _ratios((d1.cinf, d1.c0, d2.cinf, d2.c0)) else None)
    return avol(p1 + p2) if line is None or line._kernel is None else line.volume(_ONE)


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
    positive = ToricAdelicDivisor(region.hi, _qsub(_ZERO, region.lo), pots)
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

    Every potential of a divisor has the tails (-cinf, c0), and with the
    breakpoints fixed its jets (value, left and right slope) on the grid
    are linear in the values and those two tails.  So with rational
    breakpoints they are J_0 + sum_k t_k J_k, one rational basis jet J_k
    per tail t_k that is not a Fraction (a Zariski positive part has the
    ends of its region, which may involve log p, as tails), the Fraction
    tails folded into J_0.  Each jet is read as integers off the
    potential's points, on the union of both potentials' breakpoints over
    one denominator (``_integer_grid``, ``_grid_jets``).  The local sum is
    bilinear, so adeg(a, b) is sum_ij t_i s_j S_ij, where
    S_ij = sum_v c_v (pairing of J_i and J_j at v) is rational at each
    place (``_jet_pairing``, one integer numerator) and is built once over
    the places from its integer coefficients (``_from_coeffs``); the
    symbolic tails multiply in only at the end.  ValueError when a
    potential has a breakpoint or a value outside Q, which only a library
    caller can build, as for ``pseff_threshold``.
    """
    a = _as_divisor(a)
    b = _as_divisor(b)
    places = list(dict.fromkeys((ARCH,) + a.places + b.places))
    pots = [(a.potential(v), b.potential(v)) for v in places]
    grids = [_integer_grid([f.points for f in pair]) for pair in pots]
    if None in grids:
        raise ValueError("a potential has data outside Q; its intersection "
                         "numbers have no integer pass")
    # per (i, j): the pairing at each place, with the monomial of its weight
    pairings: dict = {}
    for place, pair, (keys, big_u, parts) in zip(places, pots, grids):
        mono = () if place == ARCH else (place,)
        basis_a, basis_b = (_jet_basis(f, part, keys, big_u) for f, part in zip(pair, parts))
        for i, ja in enumerate(basis_a):
            for j, jb in enumerate(basis_b):
                pairings.setdefault((i, j), []).append(
                    (mono, _jet_pairing(keys, big_u, ja, jb)))
    sums = {key: _place_sum(terms) for key, terms in pairings.items()}
    # every potential of a divisor has the divisor's tails
    ta = [t for t in (_qsub(_ZERO, a.cinf), a.c0) if type(t) is not Fraction]
    tb = [t for t in (_qsub(_ZERO, b.cinf), b.c0) if type(t) is not Fraction]
    if not (ta or tb):
        return sums[0, 0]
    total = None
    if not (ta and tb):
        total = _linear_combination(sums[0, 0], [(t, sums[i, 0]) for i, t in enumerate(ta, 1)]
                                    + [(s, sums[0, j]) for j, s in enumerate(tb, 1)])
    if total is None:
        # symbolic tails on both sides: sum_i t_i sum_j s_j S_ij in the field
        total = _ZERO
        for i, t in enumerate([None] + ta):
            inner = sums[i, 0]
            for j, s in enumerate(tb, 1):
                if sums[i, j]:
                    inner = _plus(inner, s * sums[i, j])
            if inner:
                total = _plus(total, inner if t is None else t * inner)
    return total


def _plus(x, y):
    """x + y, with no field operation when one of them is 0."""
    if not x:
        return y
    return x + y if y else x


_ONE = _q(1, 1)


def _jet_basis(pot, part, keys, big_u) -> list:
    """[J_0, J_1, ...], integer jets (``_grid_jets``) on the keys X / U with
    jets(pot) = J_0 + sum_k t_k J_k over the tails t_k of pot, left then
    right, that are not Fractions: J_0 has those tails set to 0, and J_k is
    the jet of zero breakpoint values with tail k set to 1 and the other to
    0.  part holds the keys and values of pot's breakpoints."""
    xk, yr = part
    ls, rs = (t if type(t) is Fraction else _ZERO for t in (pot.left_slope, pot.right_slope))
    out = [_grid_jets(xk, yr, keys, big_u, ls, rs)]
    flat = [(0, 1)] * len(xk)
    if type(pot.left_slope) is not Fraction:
        out.append(_grid_jets(xk, flat, keys, big_u, _ONE, _ZERO))
    if type(pot.right_slope) is not Fraction:
        out.append(_grid_jets(xk, flat, keys, big_u, _ZERO, _ONE))
    return out


def _place_sum(terms):
    """sum_v c_v q_v for the pairs (monomial of c_v, q_v): q_v for the
    archimedean place alone, else built once from integer coefficients over
    the least common denominator when every q_v is a Fraction, else in the
    field."""
    if len(terms) == 1 and not terms[0][0]:
        return terms[0][1]
    if not all(type(q) is Fraction for _, q in terms):
        return sum((q if not mono else log_unit(mono[0]) * q for mono, q in terms), _ZERO)
    den = 1
    for _, q in terms:
        d = q._denominator
        den = den // gcd(den, d) * d
    coeffs: dict = {}
    for mono, q in terms:
        coeffs[mono] = coeffs.get(mono, 0) + q._numerator * (den // q._denominator)
    return _from_coeffs(coeffs, den)


def positive_intersection(pair, direction):
    """Positive intersection number of a big pair against a divisor: the
    intersection of the Zariski positive part with the direction."""
    zar = zariski_positive_part(as_pair(pair))
    return adeg_product(zar.positive, _as_divisor(direction))


# -- thresholds ------------------------------------------------------------


@dataclass(frozen=True)
class Bracket:
    """An enclosure [lo, hi] of a threshold; exact when lo == hi, which is
    how every threshold in this module is returned."""

    lo: Scalar
    hi: Scalar

    @property
    def exact(self) -> bool:
        return scalar_cmp(self.lo, self.hi) == 0

    @property
    def value(self) -> Scalar:
        return self.lo if self.exact else (self.lo + self.hi) / 2

    def reciprocal(self) -> "Bracket":
        if scalar_sign(self.lo) <= 0:
            raise ValueError(f"reciprocal of {self} needs a positive lower end")
        return Bracket(_qdiv(_ONE, self.hi), _qdiv(_ONE, self.lo))

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
    on a new piece.  Each step reads the top of the twisted roof off the
    line kernel at -t (``_Line(pair, nef_divisor).top``) and the slope off
    its rows (u, pD_v(u), pN_v(u)) (``_fall_rate``): one pass that builds
    no roof, on ring elements weighted by 1 and log p.  They are ints at a
    Fraction t on rational data with the archimedean place alone, and
    integer polynomials in the logs otherwise (finite places, a t in
    Q(log p), or a pair or divisor with tails in Q(log p), such as a
    Zariski positive part).  The guards (the pair big, the divisor nef and of positive
    volume) run on every call; a pair keeps its volume, so ``is_big`` of a
    pair already measured costs nothing, and the divisor's guards build no
    roof (``_require_nef_volume``).  ValueError when a potential has a
    breakpoint or a value outside Q, which only a library caller can
    build: such a line has no pass.
    """
    pair = as_pair(pair)
    n = _as_divisor(nef_divisor)
    if not is_big(pair):
        raise NotBig(f"{pair!r} is not big")
    degree = _require_nef_volume(n)
    window = pair.shifted_polytope()  # kept on the pair by is_big
    t = _qdiv(_qsub(window.hi, window.lo), degree)  # the window is a point here
    line = _Line(pair, n)
    while True:
        x, g, where = line.top(_qsub(_ZERO, t))
        if scalar_sign(g) >= 0:
            return Bracket(t, t)
        t = _qadd(t, _qdiv(g, _fall_rate(line, t, x, where)))


def _require_nef_volume(divisor):
    """Raise NotNef unless the divisor is nef (``is_nef``) and of positive
    volume, read in one pass off the ends of its roof (``_roof_ends``);
    return its degree, read once.

    Proof.  A nef roof Theta is concave and >= 0 on the polytope [lo, hi],
    so the volume, twice its integral, is 0 exactly when lo = hi (degree 0)
    or Theta = 0; and Theta = 0 exactly when Theta(lo) = 0 with a right
    slope <= 0 at lo, for then concavity gives Theta <= 0 on [lo, hi].
    """
    degree = divisor.degree
    ends = _roof_ends(divisor) if _relatively_nef(divisor, degree) else None
    if ends is None or scalar_sign(ends[0]) < 0 or scalar_sign(ends[1]) < 0:
        raise NotNef(f"{divisor!r} is not nef")
    if scalar_sign(degree) <= 0 or all(scalar_sign(e) <= 0 for e in ends):
        raise NotNef(f"{divisor!r} is nef but has volume zero")
    return degree


class _Line:
    """The pairs D + t E along a line, for a pair (D, base) and a direction
    E: ``volume(t)`` is ``avol`` of ``Pair(D + t E, base)`` and ``top(t)``
    the maximum of its global roof and where it lies, in value, ``repr``
    and type, with no divisor, pair or roof built per t.

    Per place the potentials of D and E are read once on the union of their
    breakpoints u; D + t E is linear between them, so its unit roof is the
    Legendre roof of the lower hull of the points (u, pD(u) + t pE(u)) with
    the tails (-cinf, c0) of D + t E.  The global roof is the sum of the unit
    roofs weighted by 1 and log p, on the window [-cinf + v0, c0 - vinf].
    A place keeps its rows as u = X / U, pD(u) = P / C and pE(u) = Q / C
    (``_tabulate``), and at t = n / m its hull runs on the points
    (X, P m + Q n) (``_integer_hull``).  One pass (``_merged``) merges the
    roofs' breakpoints, the hulls' slopes, between the window's ends on one
    denominator and reads each place's value numerators there off its
    hull; ``top`` reads the maximum off them, and ``_volume`` twice the
    area of the positive part, by ``pa._twice_area``, the integral that
    ``avol`` runs on the built roof too.  No place's roof is built.

    Every test of the pass is linear in (n, m), so n, m, the rows and the
    tails may be ring elements: integer polynomials in the logs, ints or
    ``ExactNumber`` values n / 1, whose signs ``_poly_sign`` decides.  A t
    in Q(log p), the step after a finite-place top, is split as n / m
    (``_split``).  For tails in Q(log p), a Zariski positive part's region
    ends, let mu and lam be the products of the denominators of D's and
    E's tails (``_tail_scale``): the line is (mu D + (t / lam) lam mu E) / mu,
    on rows and tails over integers, and ``top`` divides x and g by mu.
    Breakpoints or values outside Q, which only a library caller can build,
    have no pass: every method raises ValueError.  ``volume`` (a Fraction
    t) and ``jet`` (t = +-eps, ``_Eps``) also raise it on tails outside Q.
    They serve the derivative checks (``harness``) and avol(p1 + p2)
    (``_sum_volume``, t = 1); ``top`` serves the thresholds.
    """

    __slots__ = ("_places", "_kernel", "_scales")

    def __init__(self, pair, direction):
        d = pair.divisor
        orders = pair._toric_orders()
        ends = _ratios((d.cinf, direction.cinf, d.c0, direction.c0) + orders)
        scaled = self._scales = None
        if ends is None:
            # tails outside Q: the line (mu D + (t / lam) lam mu E) / mu
            mu, ci_d, c0_d = _tail_scale(d)
            lam, ci_e, c0_e = _tail_scale(direction)
            ci_e, c0_e = mu * ci_e, mu * c0_e
            self._scales = lam, mu
            scaled = ((mu, -ci_d, c0_d), (lam * mu, -ci_e, c0_e))
            ends = [(_ring(_from_coeffs(a, 1)), b) for a, b in map(_poly_parts, (
                ci_d, ci_e, c0_d, c0_e) + tuple(mu * v for v in orders))]
        places = sorted(dict.fromkeys((ARCH,) + d.places + direction.places),
                        key=_place_sort_key)
        # per place: its weight c_v and its rows, or None
        self._places = [(1 if v == ARCH else log_unit(v),
                         _tabulate(d.potential(v), direction.potential(v), scaled))
                        for v in places]
        # the tails and base orders over one integer denominator k, and per
        # place the monomial of its weight with the factors that bring its
        # values to one denominator e, for a multiple e of every U and C
        self._kernel = None
        if all(ints is not None for _, ints in self._places):
            k = lcm(*(b for _, b in ends))
            e = lcm(*(ints[i] for _, ints in self._places for i in (1, 3)))
            self._kernel = (k, [a * (k // b) for a, b in ends], e,
                            [(() if v == ARCH else (v,), e // ints[3], e // ints[1])
                             for v, (_, ints) in zip(places, self._places)])

    def top(self, t):
        """(x, g, where): the maximum g of the roof at t, at x (the midpoint
        of a flat top), and where x lies: "point" (the window is a point),
        "lower" or "upper" (a window end), "interior" (a breakpoint) or
        "flat".  The values at the keys of ``_merged`` are compared up to
        the top (they rise to it and fall after it), and only x and g are
        built.  The weighted values are ring elements, ints at a Fraction t
        on rational data with the archimedean place alone (its weight is the
        int 1), whose signs ``scalar_sign`` decides, and x and g are
        quotients (``_quo``) by the ring elements d m mu and e d m mu."""
        lam, mu = self._scales or (1, 1)
        n, m = _split(t)
        grid, d, cols, den = self._merged(n, m * lam)
        d, den, weights = d * mu, den * mu, [w for w, _ in self._places]
        if not grid:
            raise EmptyPolytope(f"the pair at t = {t} has an empty shifted "
                                "polytope; no sections to count")
        i, last, flat = 0, len(grid) - 1, False
        while i < last:
            rise = scalar_sign(sum(w * (col[i + 1] - col[i]) for w, col in zip(weights, cols)))
            if rise <= 0:
                flat = not rise
                break
            i += 1
        g = _quo(sum(w * col[i] for w, col in zip(weights, cols)), den)
        if flat:
            return _quo(grid[i] + grid[i + 1], 2 * d), g, "flat"
        return _quo(grid[i], d), g, ("point" if not last else "lower" if i == 0
                                     else "upper" if i == last else "interior")

    def volume(self, t):
        """avol at a Fraction t: one integer pass (``_merged``, ``_volume``)."""
        return self._volume(t._numerator, t._denominator, 1)[0]

    def jet(self, sign):
        """[v0, b, quad] with v0 + b s + quad s^2 the volume at t = sign * s
        for all small s > 0: the pass at n = sign * eps, m = 1."""
        return self._volume(_Eps((0, sign, 0)), 1, 3)

    def _merged(self, n, m):
        """The global roof at t = n / m: (grid, d, cols, den), the keys g of
        its breakpoints x = g / d in order, and per place the numerators
        over den of its values there, unweighted; no key when the window is
        empty, one when it is a point.

        The tails are ls = -cinf and rs = c0 of D + t E and the window is
        [lo, hi] = [ls + v0, rs - vinf], all over k m.  A place's unit roof
        has the breakpoints ls, s_1, ..., s_r, rs, s_j the slope of the
        hull's j-th segment, and on [s_j, s_j+1] it is y_j - x u_j, read
        off hull point j (the active point).  The keys are the window's
        ends and the breakpoints inside it, merged over the places on one
        denominator d m, d an int; each is a strict kink of some place's
        roof, and the weights are positive, so the sum is canonical on
        them.  At a key the value of place v is the numerator
        Y_j (e / C) d - g X_j (e / U) over den = e d m.  n and m are ints,
        ring elements (``_Line``), or, at n = +-eps (``jet``), ``_Eps``
        and 1.
        """
        if self._kernel is None:
            raise ValueError("the line has data outside Q; it has no integer pass")
        k, (ci_d, ci_e, c0_d, c0_e, v0, vinf), e, scales = self._kernel
        ls, rs = -ci_d * m - ci_e * n, c0_d * m + c0_e * n
        lo, hi = ls + v0 * m, rs - vinf * m
        if lo > hi:
            return [], 1, [], 1
        # per place: its hull, the index of the point active at lo and the
        # slopes sn / (sd m) of the breakpoints inside the window
        places, dens = [], [k]
        for _, ints in self._places:
            big_u, c = ints[1], ints[3]
            hull = _integer_hull(ints, n, m, ls, rs, k)
            start, inside = 0, []
            for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
                sn, sd = (y2 - y1) * big_u, (x2 - x1) * c
                if sn * k <= lo * sd:
                    start += 1
                elif sn * k < hi * sd:
                    inside.append((sn, sd))
                    dens.append(sd)
                else:
                    break
            places.append((hull, start, inside))
        d = lcm(*dens)
        places = [(hull, start, [sn * (d // sd) for sn, sd in inside])
                  for hull, start, inside in places]
        grid = [lo * (d // k)]
        if lo < hi:
            keys = sorted(g for _, _, inside in places for g in inside)
            grid += [g for j, g in enumerate(keys) if not j or g != keys[j - 1]]
            grid.append(hi * (d // k))
        # per place the value numerators at the keys, read off the active point
        cols = []
        for (hull, start, inside), (_, alpha, beta) in zip(places, scales):
            a, i, col = alpha * d, 0, []
            for g in grid:
                while i < len(inside) and inside[i] <= g:
                    i += 1
                x, y = hull[start + i]
                col.append(y * a - g * x * beta)
            cols.append(col)
        return grid, d * m, cols, e * d * m

    def _volume(self, n, m, layers):
        """The volume at t = n / m, as its coefficients [c_0, ...,
        c_{layers-1}] in eps (one layer at a rational t, three for a jet):
        ``pa._twice_area`` of the merged roof, whose widths over d and
        values over den put each term over den d."""
        if self._scales is not None:
            raise ValueError("the line has tails outside Q; its volumes have no integer pass")
        grid, d, cols, den = self._merged(n, m)
        return _twice_area(grid, cols, [mono for mono, _, _ in self._kernel[3]], den * d,
                           layers)


def _lifted(op):
    """The tuple comparison op, with an int o read as (o, 0, 0)."""
    return lambda self, o: op(self, o if type(o) is _Eps else (o, 0, 0))


class _Eps(tuple):
    """c_0 + c_1 eps + c_2 eps^2 for a positive infinitesimal eps, as the
    tuple (c_0, c_1, c_2), whose order is its order.  ``_Line.jet`` runs
    ``_merged`` and ``_integer_hull`` at n = +-eps, m = 1, a simulation of
    simplicity on integers (Edelsbrunner and Muecke, ACM TOG 9, 1990): each
    test there is affine in n, so it is decided as at every small t of that
    sign; the volume's integral (``pa._twice_area``) multiplies two affine
    values at most."""

    def __add__(self, o):
        d, e, f = o if type(o) is _Eps else (o, 0, 0)
        return _Eps((self[0] + d, self[1] + e, self[2] + f))

    __radd__ = __add__

    def __neg__(self):
        return _Eps((-self[0], -self[1], -self[2]))

    def __sub__(self, o):
        return self + -o

    def __rsub__(self, o):
        return -self + o

    def __mul__(self, o):
        a, b, c = self
        d, e, f = o if type(o) is _Eps else (o, 0, 0)
        return _Eps((a * d, a * e + b * d, a * f + b * e + c * d))

    __rmul__ = __mul__

    __lt__, __le__, __gt__, __ge__ = (_lifted(op) for op in (
        tuple.__lt__, tuple.__le__, tuple.__gt__, tuple.__ge__))

    def __bool__(self):
        return any(self)


def _tabulate(pd, pe, scaled=None):
    """(X, U, P, C, Q) for two potentials on the union of their
    breakpoints u: u = X_i / U, pd(u) = P_i / C and pe(u) = Q_i / C, each
    potential's points read once (``_integer_grid``) and its values on the
    keys read as integer pairs by ``_grid_values``, with U and C positive
    ints; None unless every breakpoint and value is a Fraction.  On
    Fraction tails P and Q are ints with no common factor with C.  With
    scaled, ((s, ls, rs), (s', ls', rs')), they are the rows of s pd and
    s' pe with the tails ls, rs and ls', rs', values whose d is 1
    (``_tail_scale``): ring elements over the int C."""
    grid = _integer_grid((pd.points, pe.points))
    if grid is None:
        return None
    xs, big_u, parts = grid
    if scaled is not None:
        # s times each value with flat tails, plus the scaled tail's rise
        # past the first or the last breakpoint
        cols = [[s * _q(a, b) + (ls * _q(x - xk[0], big_u) if x < xk[0] else
                                 rs * _q(x - xk[-1], big_u) if x > xk[-1] else 0)
                 for x, (a, b) in zip(xs, _grid_values(xk, yr, xs, big_u, _ZERO, _ZERO))]
                for (xk, yr), (s, ls, rs) in zip(parts, scaled)]
        c = lcm(*(_poly_parts(v)[1] for col in cols for v in col))
        ps, qs = ([_ring(v * c) for v in col] for col in cols)
        return xs, big_u, ps, c, qs
    cols = [_grid_values(xk, yr, xs, big_u, f.left_slope, f.right_slope)
            for f, (xk, yr) in zip((pd, pe), parts)]
    c = lcm(*[b for col in cols for _, b in col])
    ps, qs = ([a * (c // b) for a, b in col] for col in cols)
    g = gcd(c, *ps, *qs)
    if g > 1:
        c, ps, qs = c // g, [p // g for p in ps], [q // g for q in qs]
    return xs, big_u, ps, c, qs


def _tail_scale(divisor) -> tuple:
    """(s, s cinf, s c0): s the product of the distinct denominators of the
    divisor's tails that are not Fractions, a ring element (1 when there
    is none), and each tail times s, a value whose d is 1, formed on its
    integer polynomials with no quotient."""
    parts = [_parts(v) for v in (divisor.cinf, divisor.c0)]
    dens: list = []
    for _, _, den, _ in parts:
        if den is not _UNIT and all(den != f for f in dens):
            dens.append(den)
    return (_ring(_from_coeffs(_product(dens), 1)),) + tuple(
        _from_coeffs(_mul(num, _product([f for f in dens if f != den])), s)
        for num, s, den, _ in parts)


def _ring(x):
    """A value with denominator 1 as a ring element: an int when rational."""
    return x._numerator if type(x) is Fraction else x


def _split(v) -> tuple:
    """(n, m), ring elements with v = n / m and m > 0: the two ints of a
    Fraction, or n and s d of an ExactNumber n / (s d)."""
    if type(v) is Fraction:
        return v._numerator, v._denominator
    return _ring(_from_coeffs(v._num, 1)), _ring(_from_coeffs(v._den, 1)) * v._scale


def _quo(a, b):
    """a / b for ring elements, b > 0: a Fraction of ints, else in the field."""
    return _q(a, b) if type(a) is int and type(b) is int else a / b


def _integer_hull(ints, n, m, ln, rn, k) -> list:
    """The lower hull, as ``convex_envelope`` builds it, of the points
    (X_i, Y_i) with Y_i = P_i m + Q_i n, for the rows of ``_tabulate``
    at t = n / m and the tails of slopes ln / (k m) and rn / (k m).  A point
    stands for (X / U, Y / (C m)), so every sign below is the sign of the
    rational test it stands for times a positive factor."""
    xs, big_u, ps, c, qs = ints
    # s (x2 - x1) - (y2 - y1) for a tail of slope s = sn / (k m), times
    # U C k m: sn C (X2 - X1) - U k (Y2 - Y1)
    l1, r1, uk = ln * c, rn * c, big_u * k
    hull = []
    for x, p, q in zip(xs, ps, qs):
        y = p * m + q * n
        # drop the last point while its incoming slope (the left tail for
        # the first point) is at least the slope from it to (x, y)
        while hull:
            x2, y2 = hull[-1]
            if len(hull) == 1:
                turn = l1 * (x - x2) - uk * (y - y2)
            else:
                x1, y1 = hull[-2]
                turn = (y2 - y1) * (x - x2) - (y - y2) * (x2 - x1)
            if turn < 0:
                break
            hull.pop()
        hull.append((x, y))
    while len(hull) > 1:
        (x1, y1), (x2, y2) = hull[-2:]
        if r1 * (x2 - x1) - uk * (y2 - y1) > 0:
            break
        hull.pop()
    return hull


def _fall_rate(line, t, x, where):
    """The rate M at which g rises as t falls, g(t - s) = g(t) + M * s for
    small s > 0, read at the argmax x, where ``_Line.top`` puts it, off the
    rows (u, pD, pN) of the line ``_Line(pair, N)``.

    Moving t down by s and x by s * delta raises the row (u, pD, pN) of
    place v by s * (pN - u * delta), so M is the maximum, over the moves
    that keep x in W(t - s), of h(delta) = sum_v c_v * min (pN - u * delta)
    over the rows that attain the minimum at (x, t).  delta is free inside
    the window, at least -cinf_N on its lower edge and at most c0_N on its
    upper edge.  h is concave and piecewise affine, so its maximum is at
    delta = 0, at a bound, or where two active rows of one place cross.

    With t = tn / tm and x = xn / xd (``_split``), pD - t pN - x u is
    ((P tm - tn Q) U xd - xn X C tm) / (C tm U xd), so the active rows are
    read off the numerators.  On the kernel's denominator e, pN - u delta
    at delta = a / b (b > 0) is (Q (e / C) b - X (e / U) a) / (e b), the
    bounds are N's tails over the kernel's k, and h(delta) is the weighted
    sum of the smallest such numerator per place over e b.  The rows are
    those of the scaled line (``_Line``), at t / lam and mu x; h is a ring
    element, an int where ``_Line.top``'s values are, and M is its maximum
    over e b lam mu (``_quo``).
    """
    k, ends, e, scales = line._kernel
    lam, mu = line._scales or (1, 1)
    (tn, tm), (xn, xd) = _split(t), _split(x)
    tm, xn = tm * lam, xn * mu
    active = []
    for (_, ints), (_, to_e_c, to_e_u) in zip(line._places, scales):
        xs, big_u, ps, c, qs = ints
        k1, k2 = big_u * xd, xn * c * tm
        ys = [(p * tm - tn * q) * k1 - k2 * u for u, p, q in zip(xs, ps, qs)]
        y = min(ys)
        active.append([(q * to_e_c, u * to_e_u) for u, q, yu in zip(xs, qs, ys) if yu == y])
    lo = -ends[1] if where in ("point", "lower") else None
    hi = ends[3] if where in ("point", "upper") else None
    deltas = [(b, k) for b in (lo, hi) if b is not None] or [(0, 1)]
    for rows in active:
        for i, (q, u) in enumerate(rows):
            for q2, u2 in rows[i + 1:]:
                # the rows cross where (q - q2) = (u - u2) delta
                deltas.append((q - q2, u - u2) if u > u2 else (q2 - q, u2 - u))
    deltas = [(a, b) for a, b in deltas if (lo is None or a * k >= lo * b)
              and (hi is None or a * k <= hi * b)]
    best = None
    for a, b in deltas:
        h = sum(w * min(q * b - u * a for q, u in rows)
                for (w, _), rows in zip(line._places, active))
        if best is None or scalar_sign(h * best[1] - best[0] * b) > 0:
            best = h, b
    return _quo(best[0], e * best[1] * lam * mu)


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
