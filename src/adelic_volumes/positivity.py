"""Positivity theory for toric adelic divisors and pairs: the nef cone,
arithmetic volumes, Zariski positive parts, the bilinear intersection
pairing in closed form on the potentials' breakpoints, positive intersection
numbers, and the pseudo-effective thresholds behind the inradius and
circumradius of a pair of pairs (``DiskantReport.r`` and ``.R``).

Everything here is exact.  Volumes and intersection numbers are rational, or
symbolic combinations of log p when finite places contribute.  A threshold
is the last zero of the maximum of the twisted roof, a concave and
piecewise-affine function of the twist; exact Newton steps find it after a
few roof builds, and it comes back as a bracket lo == hi.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .divisors import (ARCH, Pair, ToricAdelicDivisor, _place_sort_key,
                       _roof_sum, as_pair)
from .errors import EmptyPolytope, NotBig, NotNef
from .exactnum import (Scalar, _affine_quotient_sum, _from_coeffs, _linear_combination,
                       _mul, _poly_sign, log_unit, scalar_float, scalar_sign)
from .pa import (ConcavePA, ConvexPA, Interval, PAGeneral, _grid, _grid_ratios,
                 _jet_pairing, _jets_on_grid, _nonneg_run, _on_line, _poly_sum, _ratios,
                 _slope, _values_on_grid, convex_envelope, integrate_positive_part,
                 legendre_potential, legendre_roof, unit_roof)


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

    Every potential of a divisor has the tails (-cinf, c0), and with the
    breakpoints fixed its jets (value, left and right slope) on the grid
    are linear in the values and those two tails.  So with rational
    breakpoints they are J_0 + sum_k t_k J_k, one rational basis jet J_k
    per tail t_k that is not a Fraction (a Zariski positive part has the
    ends of its region, which may involve log p, as tails), the Fraction
    tails folded into J_0.  The local sum is bilinear, so adeg(a, b) is
    sum_ij t_i s_j S_ij, where S_ij = sum_v c_v (pairing of J_i and J_j at
    v) is rational at each place (``_jet_pairing``) and is built once over
    the places from its integer coefficients (``_from_coeffs``); the
    symbolic tails multiply in only at the end.  Breakpoints that are not
    all Fractions take the field operators place by place.
    """
    a = _as_divisor(a)
    b = _as_divisor(b)
    places = list(dict.fromkeys((ARCH,) + a.places + b.places))
    pots = [(a.potential(v), b.potential(v)) for v in places]
    if not all(type(z) is Fraction for pair in pots for f in pair
               for p in f.points for z in p):
        total = Fraction(0)
        for place, pair in zip(places, pots):
            us = _grid(*((u for u, _ in f.points) for f in pair))
            local = _jet_pairing(us, *(_jets_on_grid(f.points, us, f.left_slope, f.right_slope)
                                       for f in pair))
            total = total + (local if place == ARCH else log_unit(place) * local)
        return total
    # per (i, j): the pairing at each place, with the monomial of its weight
    pairings: dict = {}
    for place, pair in zip(places, pots):
        us = _grid(*((u for u, _ in f.points) for f in pair))
        mono = () if place == ARCH else (place,)
        basis_a, basis_b = (_jet_basis(f, us) for f in pair)
        for i, ja in enumerate(basis_a):
            for j, jb in enumerate(basis_b):
                pairings.setdefault((i, j), []).append((mono, _jet_pairing(us, ja, jb)))
    sums = {key: _place_sum(terms) for key, terms in pairings.items()}
    # every potential of a divisor has the divisor's tails
    ta = [t for t in (-a.cinf, a.c0) if type(t) is not Fraction]
    tb = [t for t in (-b.cinf, b.c0) if type(t) is not Fraction]
    total = None
    if not tb:
        total = _linear_combination(sums[0, 0], [(t, sums[i, 0]) for i, t in enumerate(ta, 1)])
    elif not ta:
        total = _linear_combination(sums[0, 0], [(t, sums[0, j]) for j, t in enumerate(tb, 1)])
    if total is None:
        # symbolic tails on both sides: sum_i t_i sum_j s_j S_ij in the field
        total = Fraction(0)
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


def _jet_basis(pot, us) -> list:
    """[J_0, J_1, ...], rational jets on the grid us with jets(pot) =
    J_0 + sum_k t_k J_k over the tails t_k of pot, left then right, that
    are not Fractions: J_0 has those tails set to 0, and J_k is the jet of
    zero breakpoint values with tail k set to 1 and the other to 0."""
    zero, one = Fraction(0), Fraction(1)
    ls, rs = (t if type(t) is Fraction else zero for t in (pot.left_slope, pot.right_slope))
    out = [_jets_on_grid(pot.points, us, ls, rs)]
    flat = [(u, zero) for u, _ in pot.points]
    if type(pot.left_slope) is not Fraction:
        out.append(_jets_on_grid(flat, us, one, zero))
    if type(pot.right_slope) is not Fraction:
        out.append(_jets_on_grid(flat, us, zero, one))
    return out


def _place_sum(terms):
    """sum_v c_v q_v for the pairs (monomial of c_v, Fraction q_v), built
    once from integer coefficients over the least common denominator."""
    den = 1
    for _, q in terms:
        d = q.denominator
        den = den // gcd(den, d) * d
    coeffs: dict = {}
    for mono, q in terms:
        coeffs[mono] = coeffs.get(mono, 0) + q.numerator * (den // q.denominator)
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
        return self.lo == self.hi

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
    on a new piece.  Each step reads the twisted roof off the line kernel at
    -t (``_Line(pair, nef_divisor).roof``), whose rows (u, pD_v(u), pN_v(u))
    the slope rule reads too; no divisor or pair is built per step.  The
    guards (the pair big, the divisor nef and of positive volume) run on
    every call; a pair keeps its volume, so ``is_big`` of a pair already
    measured costs nothing.
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
    line = _Line(pair, n)
    while True:
        roof = line.roof(-t)
        x, g = roof.argmax()
        if scalar_sign(g) >= 0:
            return Bracket(t, t)
        t = t + g / _fall_rate(line, t, roof, x, n)


class _Line:
    """The pairs D + t E along a line, for a pair (D, base) and a direction
    E: ``roof(t)`` is ``Pair(D + t E, base).global_roof()`` and
    ``volume(t)`` is ``avol`` of that pair, in value, ``repr`` and the type
    of every coordinate, with no divisor or pair built per t.

    Per place the potentials of D and E are read once on the union of their
    breakpoints u; D + t E is linear between them, so its unit roof is the
    Legendre roof of the lower hull of the points (u, pD(u) + t pE(u)) with
    the tails (-cinf, c0) of D + t E.  The global roof is the sum of the unit
    roofs weighted by 1 and log p, on the window [-cinf + v0, c0 - vinf].

    On rational breakpoints and values a place keeps its rows as integers,
    u = X / U, pD(u) = P / C and pE(u) = Q / C (``_integer_rows``), and at
    t = n / m its hull runs on the integer points (X, P m + Q n)
    (``_integer_hull``).  With every place's rows, the coefficients and the
    base orders rational, a rational t is one integer pass (``_merged``):
    the roofs' breakpoints, which are the hulls' slopes, merged between the
    window's ends on one common denominator, and each place's value
    numerators there, read off its hull.  ``volume`` forms twice the area
    of the positive part from them once (``_volume``), and ``roof`` takes
    one Fraction per point, or at finite places one ``_from_coeffs``
    value; no place's roof is built, summed or restricted.  ``jet`` runs
    it at t = +-eps (``_Eps``); without it both raise ValueError.  ``roof``
    at any other t or row (thresholds in Q(log p), symbolic tails) takes
    ``convex_envelope`` and ``legendre_roof`` on the rows (u, pD(u), pE(u))
    of ``rows()``, then ``_roof_sum`` and ``restrict`` as the pair does;
    the rows are sorted and exact by construction, so they are not checked
    again.
    """

    __slots__ = ("_c0", "_cinf", "_orders", "_places", "_rows", "_kernel")

    def __init__(self, pair, direction):
        d = pair.divisor
        # (-E's coefficient, D's): _on_line(-e, d, t) is d + t e
        self._c0 = (-direction.c0, d.c0)
        self._cinf = (-direction.cinf, d.cinf)
        self._orders = pair._toric_orders()
        # per place: its weight c_v and its integer rows, or None; the
        # Fraction or field rows are built here only when there are none
        self._places, self._rows = [], []
        for place in sorted(dict.fromkeys((ARCH,) + d.places + direction.places),
                            key=_place_sort_key):
            pd, pe = d.potential(place), direction.potential(place)
            ints = _integer_rows(pd, pe)
            rows = None
            if ints is None:
                us = _grid((u for u, _ in pd.points), (u for u, _ in pe.points))
                rows = list(zip(us, _values_on_grid(pd, us), _values_on_grid(pe, us)))
            weight = Fraction(1) if place == ARCH else log_unit(place)
            self._places.append((place, weight, ints))
            self._rows.append(rows)
        # the integer pass of ``_merged``: the tails and base orders as
        # integers over one denominator k, and per place the monomial of
        # its weight with the factors that bring its values to one
        # denominator e, for a multiple e of every U and C
        self._kernel = None
        ends = _ratios((d.cinf, direction.cinf, d.c0, direction.c0) + self._orders)
        if ends and all(ints is not None for _, _, ints in self._places):
            k = lcm(*(b for _, b in ends))
            e = lcm(*(ints[i] for _, _, ints in self._places for i in (1, 3)))
            self._kernel = (k, [a * (k // b) for a, b in ends], e,
                            [(() if place == ARCH else (place,), e // ints[3], e // ints[1])
                             for place, _, ints in self._places])

    def rows(self) -> list:
        """Per place the rows (u, pD(u), pE(u)) on its grid, for the field
        route, read off the integer rows on first use."""
        for i, rows in enumerate(self._rows):
            if rows is None:
                xs, big_u, ps, c, qs = self._places[i][2]
                self._rows[i] = [(Fraction(x, big_u), Fraction(p, c), Fraction(q, c))
                                 for x, p, q in zip(xs, ps, qs)]
        return self._rows

    def roof(self, t):
        if type(t) is Fraction and self._kernel is not None:
            grid, d, cols, den = self._merged(*t.as_integer_ratio())
            if grid:
                if len(cols) == 1:
                    ys = [Fraction(y, den) for y in cols[0]]
                else:
                    monos = [mono for mono, _, _ in self._kernel[3]]
                    ys = [_from_coeffs(dict(zip(monos, row)), den) for row in zip(*cols)]
                return ConcavePA._raw([(Fraction(g, d), y) for g, y in zip(grid, ys)])
        else:
            # c0 and cinf of D + t E, and its shifted polytope [lo, hi]
            c0, cinf = _on_line(*self._c0, t), _on_line(*self._cinf, t)
            lo, hi = -cinf + self._orders[0], c0 - self._orders[1]
            if lo <= hi:
                roofs = [(place, legendre_roof(convex_envelope(PAGeneral._raw(
                             [(u, a + t * b if b else a) for u, a, b in rows], -cinf, c0))))
                         for (place, _, _), rows in zip(self._places, self.rows())]
                return _roof_sum(roofs[0][1], roofs[1:]).restrict(Interval(lo, hi))
        raise EmptyPolytope(f"the pair at t = {t} has an empty shifted "
                            "polytope; no sections to count")

    def volume(self, t):
        """avol at a rational t: one integer pass (``_merged``, ``_volume``)."""
        n, m = t.as_integer_ratio()
        return self._volume(n, m, 1)[0]

    def jet(self, sign):
        """[v0, b, quad] with v0 + b s + quad s^2 the volume at t = sign * s
        for all small s > 0: the pass at n = sign * eps, m = 1."""
        return self._volume(_Eps((0, sign, 0)), 1, 3)

    def _merged(self, n, m):
        """The global roof at t = n / m on integers: (grid, d, cols, den),
        the keys g of its breakpoints x = g / d in order, and per place the
        numerators over den of its values there, unweighted; no key when
        the window is empty, one when it is a point.

        The tails are ls = -cinf and rs = c0 of D + t E and the window is
        [lo, hi] = [ls + v0, rs - vinf], all over k m.  A place's unit roof
        has the breakpoints ls, s_1, ..., s_r, rs, s_j the slope of the
        hull's j-th segment, and on [s_j, s_j+1] it is y_j - x u_j, read
        off hull point j (the active point).  The keys are the window's
        ends and the breakpoints inside it, merged over the places on one
        denominator d; each is a strict kink of some place's roof, and the
        weights are positive, so the sum is canonical on them.  At a key
        the value of place v is the numerator Y_j (e / C) d - g X_j (e / U) m
        over den = e m d; at n = +-eps (``jet``) keys and numerators are ``_Eps``.
        """
        if self._kernel is None:
            raise ValueError("the line has data outside Q; its volumes have no integer pass")
        k, (ci_d, ci_e, c0_d, c0_e, v0, vinf), e, scales = self._kernel
        km = k * m
        ls, rs = -ci_d * m - ci_e * n, c0_d * m + c0_e * n
        lo, hi = ls + v0 * m, rs - vinf * m
        if lo > hi:
            return [], 1, [], 1
        # per place: its hull, the index of the point active at lo and the
        # slopes (sn, sd) of the breakpoints inside the window
        places, dens = [], [km]
        for _, _, ints in self._places:
            big_u, c = ints[1], ints[3]
            hull = _integer_hull(ints, n, m, ls, km, rs, km)
            start, inside = 0, []
            for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
                sn, sd = (y2 - y1) * big_u, (x2 - x1) * c * m
                if sn * km <= lo * sd:
                    start += 1
                elif sn * km < hi * sd:
                    inside.append((sn, sd))
                    dens.append(sd)
                else:
                    break
            places.append((hull, start, inside))
        d = lcm(*dens)
        places = [(hull, start, [sn * (d // sd) for sn, sd in inside])
                  for hull, start, inside in places]
        keys = {g for _, _, inside in places for g in inside}
        grid = [lo * (d // km)]
        if lo < hi:
            grid += [*sorted(keys), hi * (d // km)]
        # per place the value numerators at the keys, read off the active point
        cols = []
        for (hull, start, inside), (_, alpha, beta) in zip(places, scales):
            a, b, i, col = alpha * d, beta * m, 0, []
            for g in grid:
                while i < len(inside) and inside[i] <= g:
                    i += 1
                x, y = hull[start + i]
                col.append(y * a - g * x * b)
            cols.append(col)
        return grid, d, cols, e * m * d

    def _volume(self, n, m, layers):
        """The volume at t = n / m, as its coefficients [c_0, ...,
        c_{layers-1}] in eps (one layer at a rational t, three for a jet):
        twice the area of the positive part as ``integrate_positive_part``
        takes it, w (y1 + y2) over the segments of width w nonnegative at
        both ends and the clipped ends w y_in^2 / (y_in - y_out) = y_in^2 / r.
        The roof's fall r on a segment is fixed by its active abscissae, so
        r = l_k / w_k for the lowest nonzero layer w_k of w (k = 1 for width
        0 at t = 0) and the same layer l_k of y_in - y_out.  Each coefficient
        is formed once over the denominator e m d^2, as a Fraction or, at
        finite places, by ``exactnum._affine_quotient_sum``."""
        grid, d, cols, den = self._merged(n, m)
        if len(grid) < 2:  # an empty window or a point
            return [Fraction(0)] * layers
        scales = self._kernel[3]
        den *= d
        if len(cols) == 1:
            ys, sign = cols[0], scalar_sign
        else:
            ys = [{mono: y for (mono, _, _), y in zip(scales, row) if y}
                  for row in zip(*cols)]
            sign = _poly_sign if layers == 1 else _layered_sign
        run = _nonneg_run(ys, sign)
        if run is None:
            return [Fraction(0)] * layers
        first, last, sign_first, sign_last = run
        clips = []
        if first > 0 and sign_first > 0:
            clips.append((grid[first] - grid[first - 1], ys[first], ys[first - 1]))
        if last < len(grid) - 1 and sign_last > 0:
            clips.append((grid[last + 1] - grid[last], ys[last], ys[last + 1]))
        steps = [g2 - g1 for g1, g2 in zip(grid[first:last], grid[first + 1:last + 1])]
        sums = [sum(w * (y1 + y2) for w, y1, y2 in zip(steps, col[first:], col[first + 1:]))
                for col in cols]
        if len(cols) == 1:
            num, q = sums[0], 1
            for w, y_in, y_out in clips:
                lin = y_in - y_out
                if type(w) is _Eps:
                    k = 0 if w[0] else 1
                    w, lin = w[k], lin[k]
                num, q = num * lin + w * y_in * y_in * q, q * lin
            if layers == 1:
                return [Fraction(num, den * q)]
            return [Fraction(_layer(num, j), den * q) for j in range(layers)]
        ends = []
        for w, y_in, y_out in clips:
            lin = _poly_sum((1, y_in), (-1, y_out))
            if type(w) is _Eps:
                k = 0 if w[0] else 1
                w, lin = w[k], {mono: c[k] for mono, c in lin.items()}
            ends.append((w, lin, _mul(y_in, y_in)))
        return [_affine_quotient_sum(
                    {mono: _layer(c, j) for (mono, _, _), c in zip(scales, sums)}, den,
                    [({mono: w * _layer(c, j) for mono, c in sq.items()}, den, lin)
                     for w, lin, sq in ends])
                for j in range(layers)]


def _lifted(op):
    """The tuple comparison op, with an int o read as (o, 0, 0)."""
    return lambda self, o: op(self, o if type(o) is _Eps else (o, 0, 0))


class _Eps(tuple):
    """c_0 + c_1 eps + c_2 eps^2 for a positive infinitesimal eps, as the
    tuple (c_0, c_1, c_2), whose order is its order.  ``_Line.jet`` runs
    ``_merged`` and ``_integer_hull`` at n = +-eps, m = 1, a simulation of
    simplicity on integers (Edelsbrunner and Muecke, ACM TOG 9, 1990): each
    test there is affine in n, so it is decided as at every small t of that
    sign; ``_volume`` multiplies two affine values at most."""

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


def _layer(x, j: int) -> int:
    """The coefficient of eps^j in an int or an ``_Eps``."""
    return x[j] if type(x) is _Eps else (0 if j else x)


def _layered_sign(poly) -> int:
    """The sign of a form in the logs over ``_Eps``: layer 0 decides, by
    ``_poly_sign``, and layer 1 only on a tie."""
    signs = (_poly_sign({mono: c[j] for mono, c in poly.items() if c[j]}) for j in (0, 1))
    return next((s for s in signs if s), 0)


def _integer_rows(pd, pe):
    """(X, U, P, C, Q) for two potentials on the union of their
    breakpoints u: u = X_i / U, pd(u) = P_i / C and pe(u) = Q_i / C, the
    values read as integer pairs by ``_grid_ratios``, with U and C positive
    and no common factor of C and every P and Q; None unless every
    breakpoint, and the slope of every tail reached, is a Fraction."""
    xr = _ratios(u for f in (pd, pe) for u, _ in f.points)
    if xr is None:
        return None
    big_u = lcm(*(b for _, b in xr))
    xs = sorted({a * (big_u // b) for a, b in xr})
    grid = [(x, big_u) for x in xs]
    cols = [_grid_ratios(f.points, grid, f.left_slope, f.right_slope) for f in (pd, pe)]
    if None in cols:
        return None
    c = lcm(*(b for col in cols for _, b in col))
    ps, qs = ([a * (c // b) for a, b in col] for col in cols)
    g = gcd(c, *ps, *qs)
    if g > 1:
        c, ps, qs = c // g, [p // g for p in ps], [q // g for q in qs]
    return xs, big_u, ps, c, qs


def _integer_hull(ints, n, m, ln, ld, rn, rd) -> list:
    """The lower hull, as ``convex_envelope`` builds it, of the points
    (X_i, Y_i) with Y_i = P_i m + Q_i n, for the integer rows of
    ``_integer_rows`` at t = n / m and the tails of slopes ln / ld and
    rn / rd (ld, rd > 0).  A point stands for (X / U, Y / (C m)), so every
    sign below is the sign of the rational test it stands for times a
    positive factor."""
    xs, big_u, ps, c, qs = ints
    den = c * m
    # s (x2 - x1) - (y2 - y1) for a tail of slope s = sn / sd, times
    # U den sd: sn den (X2 - X1) - U sd (Y2 - Y1)
    l1, l2, r1, r2 = ln * den, big_u * ld, rn * den, big_u * rd
    hull = []
    for x, p, q in zip(xs, ps, qs):
        y = p * m + q * n
        # drop the last point while its incoming slope (the left tail for
        # the first point) is at least the slope from it to (x, y)
        while hull:
            x2, y2 = hull[-1]
            if len(hull) == 1:
                turn = l1 * (x - x2) - l2 * (y - y2)
            else:
                x1, y1 = hull[-2]
                turn = (y2 - y1) * (x - x2) - (y - y2) * (x2 - x1)
            if turn < 0:
                break
            hull.pop()
        hull.append((x, y))
    while len(hull) > 1:
        (x1, y1), (x2, y2) = hull[-2:]
        if r1 * (x2 - x1) - r2 * (y2 - y1) > 0:
            break
        hull.pop()
    return hull


def _fall_rate(line, t, roof, x, n):
    """The rate M at which g rises as t falls, g(t - s) = g(t) + M * s for
    small s > 0, read at the argmax x.

    Moving t down by s and x by s * delta raises the row (u, pD, pN) of
    place v by s * (pN - u * delta), so M is the maximum, over the moves
    that keep x in W(t - s), of h(delta) = sum_v c_v * min (pN - u * delta)
    over the rows that attain the minimum at (x, t).  delta is free inside
    the window, at least -cinf_N on its lower edge and at most c0_N on its
    upper edge.  h is concave and piecewise affine, so its maximum is at
    delta = 0, at a bound, or where two active rows of one place cross.

    For Fractions t = tn / tm and x = xn / xd on a place's integer rows
    (``_integer_rows``), pD - t pN - x u is
    ((P tm - tn Q) U xd - xn X C tm) / (C tm U xd) with a positive
    denominator, so the active rows are read off the integer numerators,
    and only they become Fractions.
    """
    exact = type(t) is type(x) is Fraction
    if exact:
        tn, tm = t.as_integer_ratio()
        xn, xd = x.as_integer_ratio()
    active = []
    for i, (_, weight, ints) in enumerate(line._places):
        if exact and ints is not None:
            xs, big_u, ps, c, qs = ints
            k1, k2 = big_u * xd, xn * c * tm
            ys = [(p * tm - tn * q) * k1 - k2 * u for u, p, q in zip(xs, ps, qs)]
            y = min(ys)
            rows = [(Fraction(q, c), Fraction(u, big_u))
                    for u, q, yu in zip(xs, qs, ys) if yu == y]
        else:
            rows = line.rows()[i]
            # pD - t * pN - x * u
            ys = [_on_line(u, _on_line(b, a, t), x) for u, a, b in rows]
            y = min(ys)
            rows = [(b, u) for (u, _, b), yu in zip(rows, ys) if yu == y]
        active.append((weight, rows))
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
