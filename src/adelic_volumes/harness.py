"""Theorem-level verification: differentiability of the volume, the
Diskant/Bonnesen inequality chain with equality diagnostics, and the
randomized property suites.

The volume of a pair along a line of divisors is piecewise quadratic with
exact rational (or symbolic-log) values, so derivative checks can be exact:
each one-sided quadratic piece beside 0 (a "jet") is one volume at
t = +-eps, with eps a positive infinitesimal, and in general position the
central difference at a fixed step equals the analytic value on the nose.
Every volume along a line (the jets, the finite-difference table, the
sampler's general-position test) is read off the line kernel of
:mod:`~adelic_volumes.positivity` (``_Line``), which reads the line's
potentials once and evaluates each t from scratch in one integer pass that
builds no roof: a rational t, or t = +-eps (``_Line.jet``).
Random samplers keep heights small (numerators and denominators at most 16,
at most two finite places) so exact arithmetic stays fast while the
piecewise structure is genuinely exercised.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import reduce
from typing import NamedTuple

from .divisors import ARCH, BaseCondition, Pair, ToricAdelicDivisor, as_pair, min_adelic
from .errors import NotBig, NotConvex, UnknownSuite
from .exactnum import (_ZERO, _place_sum, _q, _qadd, _qdiv, _qmul, _qsub, _sum_sign,
                       log_unit, scalar_cmp, scalar_float, scalar_sign)
from .gallery import half_zero_pair, height_shift, p_slant_divisor, slant_divisor, tent_divisor
from .pa import (ConvexPA, PAGeneral, _grid, _min_scalar, _values_on_grid, abs_scalar,
                 convex_envelope, legendre_potential, legendre_roof)
from .positivity import (
    DiskantReport,
    _as_divisor,
    _Line,
    _roof_ends,
    _sum_volume,
    adeg_product,
    avol,
    is_big,
    is_nef,
    positive_intersection,
    pseff_threshold,
    zariski_positive_part,
)

DEFAULT_HS = tuple(_q(1, 2**k) for k in range(4, 13))
REFERENCE_H = _q(1, 2**10)
_REFERENCE_ROW = DEFAULT_HS.index(REFERENCE_H)
# the steps -h, -h/2 and h/2 of the general-position test, at h = REFERENCE_H
_GP_STEPS = (-REFERENCE_H, -REFERENCE_H / 2, REFERENCE_H / 2)


# -- differentiability of the volume ---------------------------------------


class FiniteDifferenceRow(NamedTuple):
    h: Fraction
    forward: object
    backward: object
    central: object


class DerivativeReport(NamedTuple):
    """The volume t -> avol(D + tE) beside t = 0: exact one-sided
    derivatives exact_right/left and t^2 coefficients quad_right/left of its
    quadratic pieces (one integer pass at t = +-eps per side, never None),
    the analytic value (twice the positive intersection against E), and the
    finite-difference table at DEFAULT_HS as an independent oracle: each of
    its volumes is evaluated from scratch through the line kernel, and none
    is read off a quadratic piece.

    deviation is |central difference at REFERENCE_H - analytic| relative to
    1 + |analytic|; curvature_jump records that the two quadratic
    coefficients differ (the volume is C^1 there but not C^2, which is
    allowed and reported)."""

    pair: Pair
    direction: ToricAdelicDivisor
    table: tuple
    analytic: object
    exact_right: object
    exact_left: object
    quad_right: object
    quad_left: object
    deviation: object

    @property
    def derivative(self):
        """The two-sided derivative when the one-sided ones agree (the
        differentiability claim), else None."""
        return self.exact_right if bool(self.exact_right == self.exact_left) else None

    @property
    def curvature_jump(self) -> bool:
        return not bool(self.quad_right == self.quad_left)


def check_differentiability(pair, direction) -> DerivativeReport:
    """The derivative report of the volume along the direction beside the
    pair: the jets and the table rows at +-h are volumes of one line
    kernel, built once; each is evaluated from scratch.  ValueError for
    data outside Q, which only a library caller can pass."""
    pair = as_pair(pair)
    direction = _as_divisor(direction)
    if not is_big(pair):
        raise NotBig(f"{pair!r} is not big")
    line = _Line(pair, direction)
    v0, b_r, a_r = line.jet(+1)
    _, b_l, a_l = line.jet(-1)
    rows = []
    for h in DEFAULT_HS:
        up, down = line.volume(h), line.volume(_qsub(_ZERO, h))
        rows.append(FiniteDifferenceRow(
            h=h,
            forward=_difference_quotient(up, v0, h, 1),
            backward=_difference_quotient(v0, down, h, 1),
            central=_difference_quotient(up, down, h, 2),
        ))
    analytic = 2 * positive_intersection(pair, direction)
    central_ref = rows[_REFERENCE_ROW].central
    deviation = abs_scalar(central_ref - analytic) / (1 + abs_scalar(analytic))
    return DerivativeReport(
        pair=pair,
        direction=direction,
        table=tuple(rows),
        analytic=analytic,
        exact_right=b_r,
        exact_left=-b_l,
        quad_right=a_r,
        quad_left=a_l,
        deviation=deviation,
    )


def _difference_quotient(a, b, h, k: int):
    """(a - b) / (k h) for an int k > 0."""
    return _qdiv(_qsub(a, b), _qmul(_q(k, 1), h))


# -- the isoperimetric chain: Diskant / Bonnesen ---------------------------


class InequalityCase(NamedTuple):
    """One named inequality lhs <= rhs with its slack = rhs - lhs.  lhs, rhs
    and slack are exact scalars and passed is the sign of the slack.  The two
    chain ends with sqrt(disc) are stated as signed squares, a |a| <= disc
    and b |b| <= R^2 disc, so their slacks have squared units.  On rational
    data each of them is formed once from integer numerators and
    denominators (``_rational_cases``)."""

    name: str
    lhs: object
    rhs: object
    slack: object
    passed: bool


def _exact_case(name, lhs, rhs) -> InequalityCase:
    slack = _qsub(rhs, lhs)
    return InequalityCase(name=name, lhs=lhs, rhs=rhs, slack=slack,
                          passed=scalar_sign(slack) >= 0)


def diskant_report(pair1, pair2) -> DiskantReport:
    """Mixed quantities, inradius/circumradius, and every inequality of the
    isoperimetric chain for two big pairs.  When s0, s1, s2, r, R and
    avol(p1 + p2) are Fractions, each value of the chain is formed once from
    their integer numerators and denominators; values in
    Q(log 2, log 3, ...) take the field operations."""
    p1, p2 = as_pair(pair1), as_pair(pair2)
    zar1 = zariski_positive_part(p1)
    zar2 = zariski_positive_part(p2)
    s0 = avol(p2)
    s2 = avol(p1)
    s1 = adeg_product(zar1.positive, zar2.positive)
    # inradius and circumradius, from the positive parts already in hand
    r = pseff_threshold(p1, zar2.positive)
    big_r = pseff_threshold(p2, zar1.positive).reciprocal()
    # avol(p1 + p2) off the line kernel: the sum pair is never built
    values = (s0, s1, s2, r.value, big_r.value, _sum_volume(p1, p2))
    chain = (_rational_cases if all(type(x) is Fraction for x in values)
             else _field_cases)
    return DiskantReport(s0=s0, s1=s1, s2=s2, r=r, R=big_r, cases=chain(*values))


# The two ends with sqrt(disc) are stated as signed squares: x -> x |x| is
# increasing, so for s0 > 0, R > 0 and disc >= 0
#   (s1 - sqrt(disc)) / s0 <= r   iff  a |a| <= disc,
#   R <= s2 / (s1 - sqrt(disc))   iff  b |b| <= R^2 disc,
# with a = s1 - r s0 and b = R s1 - s2 (the upper end because
# s1^2 - disc = s0 s2).  Every side stays in Q(log 2, log 3, ...).  The
# Brunn-Minkowski equality test reads d = avol(p1 + p2) - s2 - s0: the
# pairs are proportional when d >= 0 and d^2 = 4 s0 s2.


def _field_cases(s0, s1, s2, rv, Rv, s12) -> tuple:
    """The chain's cases by the field operations."""
    disc = s1 * s1 - s0 * s2
    a = s1 - rv * s0
    b = Rv * s1 - s2
    u = s1 / s0
    ratio = s2 / s1
    cases = [
        _exact_case("mixed_discriminant_nonneg", _ZERO, disc),
        _exact_case("diskant", a * a, disc),
        _exact_case("chain_lower_vs_r", a * abs_scalar(a), disc),
        _exact_case("chain_r_vs_ratio", rv, ratio),
        _exact_case("chain_ratio_mono", ratio, u),
        _exact_case("chain_ratio_vs_R", u, Rv),
        _exact_case("chain_R_vs_upper", b * abs_scalar(b), Rv * Rv * disc),
    ]
    bl = s0 * (Rv - rv) / 2
    cases.append(_exact_case("bonnesen", bl * bl, disc))
    d = s12 - s2 - s0
    if scalar_sign(d) >= 0 and scalar_sign(d * d - 4 * s0 * s2) == 0:
        cases.append(_exact_case("equality_mixed_product", abs_scalar(disc), _ZERO))
        cases.append(_exact_case("equality_r_vs_R", abs_scalar(Rv - rv), _ZERO))
    return tuple(cases)


def _rational_cases(s0, s1, s2, rv, Rv, s12) -> tuple:
    """The cases of ``_field_cases`` on Fractions, fraction-free (Knuth,
    TAOCP vol. 2, 4.5.1): each value is an integer numerator over a positive
    integer denominator, and each lhs, rhs and slack not shared is one
    ``_q`` of those, reduced as the operators reduce it.  disc, u and ratio
    are built once; passed is the sign of the slack's numerator."""
    n0, d0 = s0._numerator, s0._denominator
    n1, d1 = s1._numerator, s1._denominator
    n2, d2 = s2._numerator, s2._denominator
    rn, rd = rv._numerator, rv._denominator
    big_n, big_d = Rv._numerator, Rv._denominator
    disc = _q(n1 * n1 * d0 * d2 - n0 * n2 * d1 * d1, d1 * d1 * d0 * d2)
    u = _q(n1 * d0, d1 * n0)
    ratio = _q(n2 * d1, d2 * n1)
    en, ed = disc._numerator, disc._denominator
    un, ud = u._numerator, u._denominator
    qn, qd = ratio._numerator, ratio._denominator

    def under_disc(name, xn, xd):
        # xn / xd <= disc
        return name, _q(xn, xd), disc, _q(en * xd - xn * ed, ed * xd)

    an, ad = n1 * rd * d0 - rn * n0 * d1, d1 * rd * d0  # a = s1 - r s0
    bn, bd = big_n * n1 * d2 - n2 * big_d * d1, big_d * d1 * d2  # b = R s1 - s2
    wn, wd = big_n * rd - rn * big_d, big_d * rd  # R - r
    bln, bld = n0 * wn, 2 * d0 * wd  # bl = s0 (R - r) / 2
    top_n, top_d = big_n * big_n * en, big_d * big_d * ed  # R^2 disc
    rows = [
        ("mixed_discriminant_nonneg", _ZERO, disc, disc),
        under_disc("diskant", an * an, ad * ad),
        under_disc("chain_lower_vs_r", an * abs(an), ad * ad),
        ("chain_r_vs_ratio", rv, ratio, _q(qn * rd - rn * qd, qd * rd)),
        ("chain_ratio_mono", ratio, u, _q(un * qd - qn * ud, ud * qd)),
        ("chain_ratio_vs_R", u, Rv, _q(big_n * ud - un * big_d, big_d * ud)),
        ("chain_R_vs_upper", _q(bn * abs(bn), bd * bd), _q(top_n, top_d),
         _q(top_n * bd * bd - bn * abs(bn) * top_d, top_d * bd * bd)),
        under_disc("bonnesen", bln * bln, bld * bld),
    ]
    sn, sd = s12._numerator, s12._denominator
    dn, dd = sn * d2 * d0 - (n2 * d0 + n0 * d2) * sd, sd * d2 * d0  # d
    if dn >= 0 and dn * dn * d0 * d2 == 4 * n0 * n2 * dd * dd:
        rows.append(("equality_mixed_product", _q(abs(en), ed), _ZERO, _q(-abs(en), ed)))
        rows.append(("equality_r_vs_R", _q(abs(wn), wd), _ZERO, _q(-abs(wn), wd)))
    return tuple(InequalityCase(name, lhs, rhs, slack, slack._numerator >= 0)
                 for name, lhs, rhs, slack in rows)


# -- random samplers -------------------------------------------------------


def _frac(rng, num_lo: int, num_hi: int, max_den: int = 16) -> Fraction:
    return _q(rng.randint(num_lo, num_hi), rng.randint(1, max_den))


def sample_convex_potential(rng, c0: Fraction, cinf: Fraction) -> ConvexPA:
    """A random convex potential with the required asymptotic slopes
    (-cinf, c0); needs positive degree.  The cuts are distinct, so the
    slopes rise strictly from -cinf to c0 and every breakpoint is a strict
    kink: the points are canonical convex data as drawn.

    The draws stay integers: a cut k / 32 as k, a breakpoint n / d
    (d <= 4) as its key 12 n / d, so that the set and the sort run on ints,
    and with -cinf = a / b and c0 = c / d each slope as one numerator over
    32 b d.  The values are summed along the segments over one common
    denominator and one Fraction is built per coordinate; the random calls
    are those of drawing Fractions, in the same order."""
    lo_s, hi_s = _qsub(_ZERO, cinf), c0
    if _sum_sign(c0, cinf) <= 0:
        raise NotConvex(f"a convex sample needs positive degree, got {c0 + cinf}")
    cuts = sorted({rng.randint(1, 31) for _ in range(rng.randint(0, 4))})
    keys: set = set()
    while len(keys) <= len(cuts):
        n = rng.randint(-8, 8)
        keys.add(12 * n // rng.randint(1, 4))
    keys = sorted(keys)
    a, b = lo_s._numerator, lo_s._denominator
    c, d = hi_s._numerator, hi_s._denominator
    # the slope of the segment ending at keys[i + 1] is lo + (hi - lo) k / 32,
    # k the cut (32 on the last segment), over 32 b d
    rise = c * b - a * d
    yn, yd = rng.randint(0, 16), rng.randint(1, 8)
    den = 384 * b * d * yd  # y = Y / den; 384 = 12 * 32
    y = yn * 384 * b * d
    pts = [(_q(keys[0], 12), _q(yn, yd))]
    for k, u0, u in zip(cuts + [32], keys, keys[1:]):
        y += (32 * a * d + rise * k) * (u - u0) * yd
        pts.append((_q(u, 12), _q(y, den)))
    return ConvexPA._raw(pts, lo_s, hi_s)


def _nonconvex_bump(rng) -> PAGeneral:
    a = _frac(rng, -6, 4, 4)
    w = _q(rng.randint(1, 8), 4)
    h = _q(rng.randint(1, 8), 8)
    return PAGeneral([(a, _ZERO), (a + w / 2, h), (a + w, _ZERO)], 0, 0)


def sample_divisor(rng, allow_finite: bool = True,
                   convex: bool = True) -> ToricAdelicDivisor:
    """Positive-degree divisor with 0-4 kinks per potential and at most two
    finite places from {2, 3, 5}."""
    while True:
        c0 = _frac(rng, 0, 12, 8)
        cinf = _frac(rng, -4, 12, 8)
        if _sum_sign(c0, cinf) > 0:
            break
    pots = {}
    if rng.random() < 0.85:
        pots[ARCH] = sample_convex_potential(rng, c0, cinf)
    if allow_finite and rng.random() < 0.35:
        for p in rng.sample([2, 3, 5], rng.randint(1, 2)):
            pots[p] = sample_convex_potential(rng, c0, cinf)
    divisor = ToricAdelicDivisor(c0, cinf, pots)
    if not convex:
        place = rng.choice(divisor.places) if divisor.places else ARCH
        bumped = divisor.potential(place) + _nonconvex_bump(rng).scale(-1)
        pots = {v: divisor.potential(v) for v in divisor.places}
        pots[place] = bumped
        divisor = ToricAdelicDivisor(c0, cinf, pots)
    return divisor


def sample_big_pair(rng, allow_finite: bool = True) -> Pair:
    for _ in range(256):
        divisor = sample_divisor(rng, allow_finite=allow_finite)
        base = BaseCondition()
        if rng.random() < 0.4:
            orders = {}
            if rng.random() < 0.8:
                orders["0"] = _qmul(divisor.degree, _q(rng.randint(-2, 4), 8))
            if rng.random() < 0.4:
                orders["inf"] = _qmul(divisor.degree, _q(rng.randint(-2, 3), 8))
            base = BaseCondition(orders)
        pair = Pair(divisor, base)
        if is_big(pair):
            return pair
    raise RuntimeError("big-pair sampler failed to produce a big pair")


def sample_nef_divisor(rng, allow_finite: bool = True) -> ToricAdelicDivisor:
    """A sampled divisor lifted by height shifts until its roof is
    nonnegative.  ``sample_divisor`` draws convex potentials and a positive
    degree, so the divisor is relatively nef, and the minimum of its roof is
    the smaller of the two end values (``_roof_ends``); no roof is built."""
    divisor = sample_divisor(rng, allow_finite=allow_finite)
    for _ in range(64):
        at_lo, at_hi, _ = _roof_ends(divisor)
        m = _min_scalar(at_lo, at_hi)
        if scalar_sign(m) >= 0:
            return divisor
        lift = _q(math.ceil((-scalar_float(m) + 1 / 64) * 64), 64)
        divisor = divisor + height_shift(lift)
    raise RuntimeError("nef sampler failed to lift the roof")


def sample_direction(rng, allow_finite: bool = True) -> ToricAdelicDivisor:
    roll = rng.random()
    if roll < 0.5:
        return height_shift(_frac(rng, -8, 8, 8))
    d = sample_divisor(rng, allow_finite=allow_finite, convex=roll < 0.85)
    return d.scale(_q(1, 4))


def sample_derivative_instance(rng) -> tuple:
    """A big pair and direction in general position, plus the central
    difference of the volume at the reference step.

    General position means the volume along the direction is a single
    quadratic piece across [-h, h] at the reference step, certified by the
    three second differences on the grid {0, +-h/2, +-h} agreeing exactly;
    the central difference then equals the exact derivative at 0.  Kinked
    configurations are covered by fixed examples, not sampled."""
    h = REFERENCE_H
    for _ in range(64):
        pair = sample_big_pair(rng)
        direction = sample_direction(rng)
        line = _Line(pair, direction)
        y0 = avol(pair)  # measured by is_big in sample_big_pair
        ym2, ym1, yp1 = (line.volume(t) for t in _GP_STEPS)
        mid = _second_difference(yp1, y0, ym1)
        if scalar_cmp(_second_difference(y0, ym1, ym2), mid):
            continue
        yp2 = line.volume(h)
        if scalar_cmp(_second_difference(yp2, yp1, y0), mid):
            continue
        return pair, direction, _difference_quotient(yp2, ym2, h, 2)
    raise RuntimeError("no general-position derivative instance found")


def _second_difference(a, b, c):
    """a - 2 b + c."""
    return _qadd(_qsub(a, _qmul(_q(2, 1), b)), c)


# -- property suites -------------------------------------------------------


class SuiteResult(NamedTuple):
    name: str
    requested: int
    performed: int
    passes: int
    failures: int
    worst_slack: object  # the least exact slack; None when no check has one
    failing: object

    @property
    def ok(self) -> bool:
        return self.failures == 0 and self.performed > 0

    def to_payload(self) -> dict:
        return {
            "name": self.name,
            "requested": self.requested,
            "performed": self.performed,
            "passes": self.passes,
            "failures": self.failures,
            "worst_slack": None if self.worst_slack is None else scalar_float(self.worst_slack),
            "ok": self.ok,
            "failing": self.failing,
        }


_SUITES = {}


def _suite(fn):
    _SUITES[fn.__name__[len("_suite_"):]] = fn
    return fn


def suite_names() -> tuple:
    return tuple(sorted(_SUITES))


def run_suite(name: str, count: int = 200, seed: int = 0) -> SuiteResult:
    """Evaluate one named property on `count` random instances (fixed-
    instance suites run their fixed checks once).  Deterministic in seed.
    A count below 1 is a ValueError."""
    if name not in _SUITES:
        raise UnknownSuite(
            f"unknown suite {name!r}; choose from {', '.join(suite_names())}"
        )
    if count < 1:
        raise ValueError(f"count must be a positive integer, got {count}")
    rng = random.Random(f"{name}:{seed}")
    passes = failures = performed = 0
    worst = None
    failing = None
    for ok, slack, payload in _SUITES[name](rng, count):
        performed += 1
        if ok:
            passes += 1
        else:
            failures += 1
            if failing is None:
                failing = payload
        if slack is not None:
            if worst is None or slack < worst:
                worst = slack
    return SuiteResult(name=name, requested=count, performed=performed,
                       passes=passes, failures=failures, worst_slack=worst,
                       failing=failing)


@_suite
def _suite_brunn_minkowski(rng, count):
    for _ in range(count):
        p1 = sample_big_pair(rng)
        p2 = sample_big_pair(rng)
        v1, v2, v12 = avol(p1), avol(p2), _sum_volume(p1, p2)
        d = v12 - v1 - v2
        gap = d * d - 4 * v1 * v2
        ok = scalar_sign(d) >= 0 and scalar_sign(gap) >= 0
        yield ok, gap, None if ok else {
            "pair1": p1.to_payload(), "pair2": p2.to_payload()}


@_suite
def _suite_homogeneity(rng, count):
    for _ in range(count):
        pair = sample_big_pair(rng)
        a = _q(rng.randint(1, 8), rng.randint(1, 4))
        scaled = pair.scale(a)
        ok = bool(avol(scaled) == a * a * avol(pair))
        ok = ok and scaled.shifted_polytope() == pair.shifted_polytope().scale(a)
        yield ok, None, None if ok else {"pair": pair.to_payload(), "a": str(a)}


@_suite
def _suite_zariski(rng, count):
    for _ in range(count):
        pair = sample_big_pair(rng)
        zar = zariski_positive_part(pair)
        window = pair.shifted_polytope()
        diff = pair.divisor - zar.positive
        ok = is_nef(zar.positive)
        ok = ok and bool(avol(Pair(zar.positive)) == avol(pair))
        ok = ok and diff.is_effective
        ok = ok and bool(window.lo <= zar.region.lo) and bool(
            zar.region.hi <= window.hi)
        yield ok, None, None if ok else {"pair": pair.to_payload()}


@_suite
def _suite_siu(rng, count):
    for _ in range(count):
        m = sample_nef_divisor(rng)
        n = sample_nef_divisor(rng)
        lhs = avol(Pair(m - n))
        rhs = adeg_product(m, m) - 2 * adeg_product(m, n)
        slack = lhs - rhs
        ok = scalar_sign(slack) >= 0
        yield ok, slack, None if ok else {
            "M": m.to_payload(), "N": n.to_payload()}


@_suite
def _suite_hodge(rng, count):
    for _ in range(count):
        d = sample_divisor(rng, convex=rng.random() < 0.7)
        d0 = d - ToricAdelicDivisor(d.degree, 0)
        x = adeg_product(d0, d0)
        ok = scalar_sign(x) <= 0
        yield ok, -x, None if ok else {"D": d0.to_payload()}


@_suite
def _suite_kt(rng, count):
    for _ in range(count):
        d = sample_nef_divisor(rng)
        e = sample_nef_divisor(rng)
        de = adeg_product(d, e)
        gap = de * de - adeg_product(d, d) * adeg_product(e, e)
        ok = scalar_sign(gap) >= 0
        yield ok, gap, None if ok else {
            "D": d.to_payload(), "E": e.to_payload()}


@_suite
def _suite_continuity(rng, count):
    for _ in range(count):
        pair = sample_big_pair(rng)
        places = list(pair.divisor.places) or [ARCH]
        place = rng.choice(places + [ARCH])
        phi = _nonconvex_bump(rng).scale(_q(rng.choice([-1, 1]), 1))
        perturbed = pair.perturb(place, phi)
        delta = abs_scalar(avol(perturbed) - avol(pair))
        window = pair.shifted_polytope()
        # The roof moves by at most sup|phi| / 2 (times log p at a finite
        # place), and the volume is twice an integral over the window.
        bound = _place_sum([(place, (window.hi - window.lo) * phi.sup_norm())])
        slack = bound - delta
        ok = scalar_sign(slack) >= 0
        yield ok, slack, None if ok else {
            "pair": pair.to_payload(), "place": str(place)}


@_suite
def _suite_min_valuation(rng, count):
    for _ in range(count):
        ds = []
        for _ in range(rng.randint(2, 4)):
            d = sample_divisor(rng)
            if scalar_sign(d.cinf) < 0:
                d = d + ToricAdelicDivisor(0, _qsub(_ZERO, d.cinf))
            lifts = {}
            for v in d.places:
                low = d.potential(v).lower_bound()
                if low is not None and scalar_sign(low) < 0:
                    lifts[v] = d.potential(v) + ConvexPA.constant(_qsub(_ZERO, low))
                else:
                    lifts[v] = d.potential(v)
            d = ToricAdelicDivisor(d.c0, d.cinf, lifts)
            ds.append(d)
        m = min_adelic(ds)
        ok = (scalar_cmp(m.c0, reduce(_min_scalar, (x.c0 for x in ds))) == 0
              and scalar_cmp(m.cinf, reduce(_min_scalar, (x.cinf for x in ds))) == 0)
        ok = ok and m.is_effective
        places = {v for x in ds for v in x.places}
        for v in places:
            pots = [x.potential(v) for x in ds]
            grid = _grid([_q(-9, 1), _q(9, 1)], *([u for u, _ in p.points] for p in pots))
            cols = [_values_on_grid(p, grid) for p in pots]
            for got, *want in zip(_values_on_grid(m.potential(v), grid), *cols):
                ok = ok and scalar_cmp(got, reduce(_min_scalar, want)) == 0
        ok = ok and min_adelic([ds[0], ds[0]]) == ds[0]
        yield ok, None, None if ok else {"divisors": [x.to_payload() for x in ds]}


@_suite
def _suite_legendre_involution(rng, count):
    for _ in range(count):
        while True:
            c0 = _frac(rng, 0, 10, 8)
            cinf = _frac(rng, -3, 10, 8)
            if _sum_sign(c0, cinf) > 0:
                break
        pot = sample_convex_potential(rng, c0, cinf)
        roof = legendre_roof(pot)
        ok = legendre_potential(roof) == pot
        ok = ok and legendre_roof(legendre_potential(roof)) == roof
        bumpy = pot + _nonconvex_bump(rng).scale(-1)
        env = convex_envelope(bumpy)
        grid = [u for u, _ in bumpy.points]  # sorted and distinct
        ok = ok and all(scalar_sign(bumpy.eval(u) - env.eval(u)) >= 0 for u in grid)
        ok = ok and legendre_roof(env) == legendre_roof(convex_envelope(bumpy))
        yield ok, None, None if ok else {"potential": pot.to_payload()}


@_suite
def _suite_openness(rng, count):
    for _ in range(count):
        pair = sample_big_pair(rng)
        window = pair.shifted_polytope()
        margin_f = scalar_float(avol(pair)) / (
            8 * (scalar_float(window.hi - window.lo) + 1))
        delta = Fraction(margin_f).limit_denominator(1 << 20)
        if delta <= 0:
            delta = _q(1, 1 << 30)
        worst = pair.perturb(ARCH, PAGeneral.constant(-2 * delta))
        ok = delta > 0 and is_big(worst)
        yield ok, avol(worst), None if ok else {
            "pair": pair.to_payload(), "delta": str(delta)}


@_suite
def _suite_oracle_convergence(rng, count):
    del rng, count  # fixed-instance suite
    from .sections import volume_estimate

    e1 = Pair(slant_divisor())
    log15, tiny = log_unit(3) + log_unit(5), _q(1, 1 << 40)
    yield abs(volume_estimate(e1, 1) - 2 * log15) < tiny, None, None
    yield abs(volume_estimate(e1, 2) - log15) < tiny, None, None
    prev = None
    for m in (4, 16, 64, 256):
        est = volume_estimate(e1, m)
        err = abs(float(est) - 1)
        ok = err <= 4 / m
        if prev is not None:
            ok = ok and float(est) < prev
        prev = float(est)
        yield bool(ok), 4 / m - err, None if ok else {"m": m}


@_suite
def _suite_okounkov_match(rng, count):
    del rng, count  # fixed-instance suite
    from .sections import analytic_okounkov, okounkov_sample

    m = 64
    # the last pair's roof at 2 is not integral on the grid, so its floors
    # leave strict gaps
    pairs = (Pair(slant_divisor()), Pair(tent_divisor()), half_zero_pair(),
             Pair(slant_divisor() + p_slant_divisor(2).scale(_q(1, 3))))
    for pair in pairs:
        data = analytic_okounkov(pair)
        ok = bool(data.avol == avol(pair))
        # the floor at place p takes less than log p / m off the transform,
        # and nothing when there is no finite place
        bound = _place_sum([(p, _q(1, m)) for p in pair.divisor.places if p != ARCH])
        slack = bound
        for w, t in okounkov_sample(pair, m).entries:
            gap = data.transform.eval(w) - t
            ok = ok and (not gap or 0 < gap < bound)
            slack = min(slack, bound - gap)
        yield ok, slack, None if ok else {"pair": pair.to_payload()}


@_suite
def _suite_diskant_random(rng, count):
    for _ in range(count):
        p1 = sample_big_pair(rng, allow_finite=False)
        p2 = sample_big_pair(rng, allow_finite=False)
        rep = diskant_report(p1, p2)
        ok = rep.all_pass
        yield ok, reduce(_min_scalar, (c.slack for c in rep.cases)), None if ok else {
            "pair1": p1.to_payload(), "pair2": p2.to_payload(),
            "cases": [(c.name, scalar_float(c.slack)) for c in rep.cases]}


@_suite
def _suite_bonnesen_random(rng, count):
    for i in range(count):
        p1 = sample_big_pair(rng, allow_finite=False)
        if i % 2 == 0:
            a = _q(rng.randint(1, 6), rng.randint(1, 3))
            p2 = p1.scale(a)
        else:
            p2 = sample_big_pair(rng, allow_finite=False)
        rep = diskant_report(p1, p2)
        bon = rep.case("bonnesen")
        nonneg = rep.case("mixed_discriminant_nonneg")
        ok = bon.passed and nonneg.passed
        yield ok, bon.slack, None if ok else {
            "pair1": p1.to_payload(), "pair2": p2.to_payload()}


@_suite
def _suite_superadditivity(rng, count):
    for _ in range(count):
        p1 = sample_big_pair(rng)
        p2 = sample_big_pair(rng)
        n = sample_nef_divisor(rng)
        e12 = positive_intersection(p1 + p2, n)
        e1 = positive_intersection(p1, n)
        e2 = positive_intersection(p2, n)
        slack = e12 - e1 - e2
        ok = scalar_sign(slack) >= 0
        yield ok, slack, None if ok else {
            "pair1": p1.to_payload(), "pair2": p2.to_payload(),
            "N": n.to_payload()}
