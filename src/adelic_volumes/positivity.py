"""Positivity theory for toric adelic divisors and pairs: the nef cone,
arithmetic volumes, Zariski positive parts, the bilinear intersection
pairing in closed form on the potentials' breakpoints, positive intersection
numbers, and the pseudo-effective thresholds behind the inradius and
circumradius of a pair of pairs (``DiskantReport.r`` and ``.R``).

Everything here is exact.  Volumes and intersection numbers are rational, or
symbolic combinations of log p when finite places contribute.  A threshold
is the last zero of the maximum of the twisted roof, a concave and
piecewise-affine function of the twist; exact Newton steps find it after a
few steps, and it comes back as a bracket lo == hi.  At a rational twist on
rational data each step is one integer pass of the line kernel (``_Line``)
and builds no roof; the nef guards read the two ends of the divisor's roof
off its potentials' first and last breakpoints (``_roof_ends``).  The
volume avol(p1 + p2) of a sum of pairs is one pass of the same kernel
(``_sum_volume``), and intersection numbers pair integer jets.
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
from .pa import (ConvexPA, Interval, PAGeneral, _grid, _grid_jets, _grid_values, _integer_grid,
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
    lo, hi = -divisor.cinf, divisor.c0
    ends = ([], [], [])
    for place, pot in divisor._potentials.items():
        (u, y), (w, z) = pot.points[0], pot.points[-1]
        mono = () if place == ARCH else (place,)
        ends[0].append((mono, _on_line(u, y, lo)))  # y - lo u
        ends[1].append((mono, _on_line(w, z, hi)))
        ends[2].append((mono, -u))
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
            pair._avol = Fraction(0)
        else:
            pair._avol = 2 * integrate_positive_part(pair.global_roof())
    return pair._avol


def is_big(pair) -> bool:
    return scalar_sign(avol(pair)) > 0


def _sum_volume(p1, p2):
    """avol(p1 + p2), read off the line kernel from p1's divisor towards
    p2's at t = 1 with the summed base orders: one integer pass, and no sum
    divisor, roof or integral is built.  avol(p1 + p2) itself only when the
    line has no integer pass (data outside Q, from library callers)."""
    line = _Line(Pair(p1.divisor, p1.base + p2.base), p2.divisor)
    if line._kernel is None:
        return avol(p1 + p2)
    return line.volume(Fraction(1))


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
    tails folded into J_0.  Each jet is read as integers off the
    potential's points, on the union of both potentials' breakpoints over
    one denominator (``_integer_grid``, ``_grid_jets``).  The local sum is
    bilinear, so adeg(a, b) is sum_ij t_i s_j S_ij, where
    S_ij = sum_v c_v (pairing of J_i and J_j at v) is rational at each
    place (``_jet_pairing``, one integer numerator) and is built once over
    the places from its integer coefficients (``_from_coeffs``); the
    symbolic tails multiply in only at the end.  Breakpoints that are not
    all Fractions take the field operators place by place.
    """
    a = _as_divisor(a)
    b = _as_divisor(b)
    places = list(dict.fromkeys((ARCH,) + a.places + b.places))
    pots = [(a.potential(v), b.potential(v)) for v in places]
    grids = [_integer_grid(pair) for pair in pots]
    if None in grids:
        total = Fraction(0)
        for place, pair in zip(places, pots):
            us = _grid(*((u for u, _ in f.points) for f in pair))
            jets_a, jets_b = (_jets_on_grid(f.points, us, f.left_slope, f.right_slope)
                              for f in pair)
            local = Fraction(0)
            for u, (ya, la, ra), (yb, lb, rb) in zip(us, jets_a, jets_b):
                local = local + ya * (rb - lb) + yb * (ra - la) - u * (ra * rb - la * lb)
            total = total + (local if place == ARCH else log_unit(place) * local)
        return total
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
    ta = [t for t in (-a.cinf, a.c0) if type(t) is not Fraction]
    tb = [t for t in (-b.cinf, b.c0) if type(t) is not Fraction]
    if not (ta or tb):
        return sums[0, 0]
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


def _jet_basis(pot, part, keys, big_u) -> list:
    """[J_0, J_1, ...], integer jets (``_grid_jets``) on the keys X / U with
    jets(pot) = J_0 + sum_k t_k J_k over the tails t_k of pot, left then
    right, that are not Fractions: J_0 has those tails set to 0, and J_k is
    the jet of zero breakpoint values with tail k set to 1 and the other to
    0.  part holds the keys and values of pot's breakpoints."""
    xk, yr = part
    ls, rs = (t.as_integer_ratio() if type(t) is Fraction else (0, 1)
              for t in (pot.left_slope, pot.right_slope))
    out = [_grid_jets(xk, yr, keys, big_u, ls, rs)]
    flat = [(0, 1)] * len(xk)
    if type(pot.left_slope) is not Fraction:
        out.append(_grid_jets(xk, flat, keys, big_u, (1, 1), (0, 1)))
    if type(pot.right_slope) is not Fraction:
        out.append(_grid_jets(xk, flat, keys, big_u, (0, 1), (1, 1)))
    return out


def _place_sum(terms):
    """sum_v c_v q_v for the pairs (monomial of c_v, q_v): q_v for the
    archimedean place alone, else built once from integer coefficients over
    the least common denominator when every q_v is a Fraction, else in the
    field."""
    if len(terms) == 1 and not terms[0][0]:
        return terms[0][1]
    if not all(type(q) is Fraction for _, q in terms):
        return sum((q if not mono else log_unit(mono[0]) * q for mono, q in terms), Fraction(0))
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
    on a new piece.  Each step reads the top of the twisted roof off the
    line kernel at -t (``_Line(pair, nef_divisor).top``) and the slope off
    its rows (u, pD_v(u), pN_v(u)) (``_fall_rate``): at a Fraction t on
    rational data one integer pass that builds no roof, else the field
    route.  The guards (the pair big, the divisor nef and of positive
    volume) run on every call; a pair keeps its volume, so ``is_big`` of a
    pair already measured costs nothing, and the divisor's guards build no
    roof (``_require_nef_volume``).
    """
    pair = as_pair(pair)
    n = _as_divisor(nef_divisor)
    if not is_big(pair):
        raise NotBig(f"{pair!r} is not big")
    degree = _require_nef_volume(n)
    window = pair.shifted_polytope()  # kept on the pair by is_big
    t = (window.hi - window.lo) / degree  # the window is a point here
    line = _Line(pair, n)
    while True:
        x, g, where = line.top(-t)
        if scalar_sign(g) >= 0:
            return Bracket(t, t)
        t = t + g / _fall_rate(line, t, x, where, n)


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
    E: ``volume(t)`` is ``avol`` of ``Pair(D + t E, base)``, ``top(t)`` the
    maximum of its global roof and ``roof(t)`` that roof, in value, ``repr``
    and the type of every coordinate, with no divisor or pair built per t.

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
    of the positive part from them once (``_volume``), and ``top`` reads
    the maximum off them; no place's roof is built, summed or restricted.
    ``jet`` runs the pass at t = +-eps (``_Eps``); without it, ``volume``
    and ``jet`` raise ValueError.  The callers of ``volume`` are the
    derivative checks (``harness``) and the sum volume avol(p1 + p2) of the
    Diskant report and the Brunn-Minkowski suite (``_sum_volume``), at
    t = 1.  ``top`` at any other t or row
    (thresholds in Q(log p), symbolic tails) reads ``roof``, which takes
    ``convex_envelope`` and ``legendre_roof`` on the rows (u, pD(u), pE(u))
    of ``rows()``, then ``_roof_sum`` and ``restrict`` as the pair does;
    the rows are sorted and exact by construction, so they are not checked
    again.
    """

    __slots__ = ("_c0", "_cinf", "_orders", "_places", "_rows", "_kernel")

    def __init__(self, pair, direction):
        d = pair.divisor
        # (E's coefficient, D's): _on_line(-e, d, t) is d + t e
        self._c0 = (direction.c0, d.c0)
        self._cinf = (direction.cinf, d.cinf)
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
        """The global roof at t on the field route."""
        # c0 and cinf of D + t E, and its shifted polytope [lo, hi]
        c0, cinf = (_on_line(-e, d, t) for e, d in (self._c0, self._cinf))
        lo, hi = -cinf + self._orders[0], c0 - self._orders[1]
        if lo > hi:
            raise EmptyPolytope(f"the pair at t = {t} has an empty shifted "
                                "polytope; no sections to count")
        roofs = [(place, legendre_roof(convex_envelope(PAGeneral._raw(
                     [(u, a + t * b if b else a) for u, a, b in rows], -cinf, c0))))
                 for (place, _, _), rows in zip(self._places, self.rows())]
        return _roof_sum(roofs[0][1], roofs[1:]).restrict(Interval(lo, hi))

    def top(self, t):
        """(x, g, where): the maximum g of the roof at t, at x (the midpoint
        of a flat top), and where x lies: "point" (the window is a point),
        "lower" or "upper" (a window end), "interior" (a breakpoint) or
        "flat".  At a Fraction t with the integer pass the values at the
        keys of ``_merged`` are compared as integers, or as forms in the
        logs by ``_poly_sign``, up to the top (they rise to it and fall
        after it), and only x and g are built: g a Fraction, or one
        ``_from_coeffs`` value.  Otherwise they are read off ``roof(t)``."""
        if type(t) is not Fraction or self._kernel is None:
            roof = self.roof(t)
            x, g = roof.argmax()
            pts = roof.points
            return x, g, ("point" if len(pts) == 1 else "lower" if x == pts[0][0]
                          else "upper" if x == pts[-1][0]
                          else "interior" if any(x == u for u, _ in pts) else "flat")
        grid, d, cols, den = self._merged(*t.as_integer_ratio())
        if not grid:
            raise EmptyPolytope(f"the pair at t = {t} has an empty shifted "
                                "polytope; no sections to count")
        monos = [mono for mono, _, _ in self._kernel[3]]
        i, last, flat = 0, len(grid) - 1, False
        while i < last:
            if len(cols) == 1:
                rise = cols[0][i + 1] - cols[0][i]
            else:
                rise = _poly_sign({mono: col[i + 1] - col[i]
                                   for mono, col in zip(monos, cols) if col[i + 1] != col[i]})
            if rise <= 0:
                flat = not rise
                break
            i += 1
        if len(cols) == 1:
            g = Fraction(cols[0][i], den)
        else:
            g = _from_coeffs({mono: col[i] for mono, col in zip(monos, cols)}, den)
        if flat:
            return Fraction(grid[i] + grid[i + 1], 2 * d), g, "flat"
        return Fraction(grid[i], d), g, ("point" if not last else "lower" if i == 0
                                         else "upper" if i == last else "interior")

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
    breakpoints u: u = X_i / U, pd(u) = P_i / C and pe(u) = Q_i / C, each
    potential's points read once (``_integer_grid``) and its values on the
    keys read as integer pairs by ``_grid_values``, with U and C positive
    and no common factor of C and every P and Q; None unless every
    breakpoint, and the slope of every tail reached, is a Fraction."""
    grid = _integer_grid((pd, pe))
    if grid is None:
        return None
    xs, big_u, parts = grid
    cols = []
    for f, (xk, yr) in zip((pd, pe), parts):
        ls, rs = f.left_slope, f.right_slope
        if type(ls) is Fraction:
            ls = ls.as_integer_ratio()
        elif xs[0] < xk[0]:
            return None
        if type(rs) is Fraction:
            rs = rs.as_integer_ratio()
        elif xs[-1] > xk[-1]:
            return None
        cols.append(_grid_values(xk, yr, xs, big_u, ls, rs))
    c = lcm(*[b for col in cols for _, b in col])
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


def _fall_rate(line, t, x, where, n):
    """The rate M at which g rises as t falls, g(t - s) = g(t) + M * s for
    small s > 0, read at the argmax x, where ``_Line.top`` puts it.

    Moving t down by s and x by s * delta raises the row (u, pD, pN) of
    place v by s * (pN - u * delta), so M is the maximum, over the moves
    that keep x in W(t - s), of h(delta) = sum_v c_v * min (pN - u * delta)
    over the rows that attain the minimum at (x, t).  delta is free inside
    the window, at least -cinf_N on its lower edge and at most c0_N on its
    upper edge.  h is concave and piecewise affine, so its maximum is at
    delta = 0, at a bound, or where two active rows of one place cross.

    For Fractions t and x on a line with the integer pass it is read off
    the integer rows (``_integer_fall_rate``); otherwise off ``rows()``.
    """
    lo = -n.cinf if where in ("point", "lower") else None
    hi = n.c0 if where in ("point", "upper") else None
    if type(t) is type(x) is Fraction and line._kernel is not None:
        return _integer_fall_rate(line, t, x, lo, hi)
    active = []
    for (_, weight, _), rows in zip(line._places, line.rows()):
        # pD - t * pN - x * u
        ys = [_on_line(u, _on_line(b, a, t), x) for u, a, b in rows]
        y = min(ys)
        active.append((weight, [(b, u) for (u, _, b), yu in zip(rows, ys) if yu == y]))
    deltas = [e for e in (lo, hi) if e is not None] or [Fraction(0)]
    for _, rows in active:
        deltas += [_slope((u2, b2), (u, b)) for i, (b, u) in enumerate(rows)
                   for b2, u2 in rows[i + 1:]]
    return max(sum(w * min(_on_line(e, b, u) for b, u in rows)  # b - u * e
                   for w, rows in active)
               for e in deltas
               if (lo is None or e >= lo) and (hi is None or e <= hi))


def _integer_fall_rate(line, t, x, lo, hi):
    """``_fall_rate`` on the integer rows, for Fractions t = tn / tm,
    x = xn / xd and the window bounds lo, hi (or None).  pD - t pN - x u
    is ((P tm - tn Q) U xd - xn X C tm) / (C tm U xd), so the active rows
    are read off the numerators.  On the kernel's denominator e,
    pN - u delta at delta = a / b (b > 0) is (Q (e / C) b - X (e / U) a)
    / (e b), and h(delta) is the form in the logs of the smallest such
    numerator per place over e b: compared by ``_poly_sign`` and built
    once by ``_from_coeffs``, or, at the archimedean place alone, compared
    as integers and built as one Fraction."""
    tn, tm = t.as_integer_ratio()
    xn, xd = x.as_integer_ratio()
    e = line._kernel[2]
    active = []
    for (_, _, ints), (mono, to_e_c, to_e_u) in zip(line._places, line._kernel[3]):
        xs, big_u, ps, c, qs = ints
        k1, k2 = big_u * xd, xn * c * tm
        ys = [(p * tm - tn * q) * k1 - k2 * u for u, p, q in zip(xs, ps, qs)]
        y = min(ys)
        active.append((mono, [(q * to_e_c, u * to_e_u)
                              for u, q, yu in zip(xs, qs, ys) if yu == y]))
    bounds = [b.as_integer_ratio() if b is not None else None for b in (lo, hi)]
    deltas = [b for b in bounds if b is not None] or [(0, 1)]
    for _, rows in active:
        for i, (q, u) in enumerate(rows):
            for q2, u2 in rows[i + 1:]:
                # the rows cross where (q - q2) = (u - u2) delta
                deltas.append((q - q2, u - u2) if u > u2 else (q2 - q, u2 - u))
    (lo, hi), best = bounds, None
    deltas = [(a, b) for a, b in deltas if (lo is None or a * lo[1] >= lo[0] * b)
              and (hi is None or a * hi[1] <= hi[0] * b)]
    if len(active) == 1:  # the archimedean place alone: h compared as integers
        rows = active[0][1]
        for a, b in deltas:
            h = min(q * b - u * a for q, u in rows)
            if best is None or h * best[1] > best[0] * b:
                best = h, b
        return Fraction(best[0], e * best[1])
    for a, b in deltas:
        h = {mono: min(q * b - u * a for q, u in rows) for mono, rows in active}
        if best is None or _poly_sign({mono: c for mono, c in (
                (mono, c * best[1] - best[0][mono] * b) for mono, c in h.items()) if c}) > 0:
            best = h, b
    return _from_coeffs(best[0], e * best[1])


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
