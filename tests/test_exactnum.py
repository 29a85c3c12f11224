"""Field arithmetic in Q(log 2, log 3, ...) and the rational helpers."""

import json
import operator
import sys
import time
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, lcm
from pathlib import Path

import pytest
from mpmath import mp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from adelic_volumes import exactnum
from adelic_volumes.divisors import as_place
from adelic_volumes.errors import PrecisionExhausted
from adelic_volumes.exactnum import (
    ExactNumber,
    default_precision_bits,
    exact,
    floor_fraction,
    log_unit,
    scalar_float,
    scalar_cmp,
    scalar_fraction,
    scalar_sign,
)

L2 = log_unit(2)
L3 = log_unit(3)
L5 = log_unit(5)


def test_rational_embedding_round_trip():
    x = exact(Fraction(7, 3))
    assert x.is_rational
    assert x.as_fraction() == Fraction(7, 3)
    assert x == Fraction(7, 3)
    assert Fraction(7, 3) == x


# psi_12 = 399165290221 * 798330580441 and psi_13 = 1287836182261 *
# 2575672364521 are the least strong pseudoprimes to the first twelve and
# thirteen prime bases
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_log_unit_rejects_composites():
    # 561 is a Carmichael number, 2047 a strong pseudoprime to base 2
    for n in (6, 1, 561, 2047, PSI_12, PSI_13):
        with pytest.raises(ValueError):
            ExactNumber.log_unit(n)


@pytest.mark.parametrize("n", [PSI_12, PSI_13, 2**4423 - 1, str(2**4423 - 1)])
def test_places_are_proven_primes(n):
    # 2^4423 - 1 is prime, but past the bound below which the test proves it
    t0 = time.perf_counter()
    with pytest.raises(ValueError):
        as_place(n)
    assert time.perf_counter() - t0 < 0.1


def test_largest_place():
    p = 3317044064679887385961813  # the largest prime below PSI_13
    assert as_place(p) == as_place(str(p)) == p
    assert scalar_sign(log_unit(p) - 56) > 0  # log(3.3e24) = 56.46...


def test_log_unit_large_prime_is_fast():
    t0 = time.perf_counter()
    x = log_unit(10**18 + 3)
    assert time.perf_counter() - t0 < 0.1
    assert scalar_sign(x - 41) > 0  # log(1e18) = 41.4...


def test_basic_signs():
    assert scalar_sign(L2) == 1
    assert scalar_sign(-L3) == -1
    assert scalar_sign(L3 - L2) == 1
    assert scalar_sign(L2 - L3) == -1
    # log 8 = 3 log 2 exactly, coefficient-wise
    assert 3 * L2 - L2 - L2 - L2 == 0
    assert scalar_sign(exact(0)) == 0


def test_close_call_sign():
    # log 3 / log 2 = 1.58496...; 1.585 is barely above it
    assert scalar_sign(Fraction(1585, 1000) * L2 - L3) == 1
    assert scalar_sign(Fraction(1584, 1000) * L2 - L3) == -1


def _log2_truncated(bits):
    """log 2 rounded down to a multiple of 2^-bits."""
    from mpmath import mp

    with mp.workprec(bits + 64):
        return Fraction(int(mp.floor(mp.log(2) * mp.mpf(2) ** bits)), 2**bits)


def test_sign_needs_more_than_1024_bits():
    # log 2 log 3 - q log 3 = (log 2 - q) log 3 is about 2^-5000: only the
    # 8192-bit rung of the ladder separates it from zero
    q = _log2_truncated(5000)
    x = L2 * L3 - q * L3
    assert scalar_sign(x) == 1
    assert scalar_sign(-x) == -1
    assert x > 0 and q * L3 < L2 * L3


def test_precision_exhausted_at_the_cap(monkeypatch):
    monkeypatch.setattr(exactnum, "_PRECISION_CAP", 1024)
    x = L2 * L3 - _log2_truncated(5000) * L3
    with pytest.raises(PrecisionExhausted, match="1024 bits"):
        scalar_sign(x)
    with pytest.raises(PrecisionExhausted):
        bool(x == 0)


def _fraction_ladder(poly):
    """The enclosure rungs of the sign ladder as they were before integer
    sums: Fraction products of each integer coefficient and the rational
    bounds of its monomial, summed per rung."""
    bits = exactnum._SIGN_BITS
    while bits <= exactnum._PRECISION_CAP:
        lo = hi = Fraction(0)
        for mono, c in poly.items():
            mlo = mhi = Fraction(1)
            for p in mono:
                plo, phi = exactnum._log_bounds(p, bits)
                mlo *= Fraction(plo, 1 << bits)
                mhi *= Fraction(phi, 1 << bits)
            if c > 0:
                lo += c * mlo
                hi += c * mhi
            else:
                lo += c * mhi
                hi += c * mlo
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        bits *= 2
    raise PrecisionExhausted(f"below {exactnum._PRECISION_CAP} bits")


_MONOS = [(), (2,), (3,), (5,), (2, 2), (2, 3), (3, 5), (2, 3, 5)]


def _times_log2_minus(poly, q):
    """poly * (log 2 - q) times the denominator of q: an integer
    polynomial."""
    return exactnum._mul(poly, {(2,): q.denominator, (): -q.numerator})


@st.composite
def _mixed_polys(draw):
    """Integer polynomials in log 2, log 3, log 5 with coefficients of both
    signs, optionally times log 2 - q (cleared of its denominator) for
    q = log 2 cut at 60-3000 bits, so that the value is that much smaller
    than its coefficients and only a high rung separates it."""
    monos = draw(st.lists(st.sampled_from(_MONOS), min_size=2, max_size=5,
                          unique=True))
    coeffs = st.integers(min_value=-1200, max_value=1200)
    poly = {m: draw(coeffs.filter(bool)) for m in monos}
    if draw(st.booleans()):
        poly = _times_log2_minus(poly, _log2_truncated(draw(st.integers(60, 3000))))
    return poly


def _sign_or_exhausted(sign, poly):
    try:
        return sign(poly)
    except PrecisionExhausted:
        return "exhausted"


@given(_mixed_polys())
@example(_times_log2_minus({(3,): 1}, _log2_truncated(5000)))
@example({(2,): 35, (3,): -30, (): 21})
@settings(max_examples=150, deadline=None)
def test_integer_rungs_match_the_fraction_ladder(poly):
    want = _sign_or_exhausted(_fraction_ladder, poly)
    assert _sign_or_exhausted(exactnum._poly_sign, poly) == want


def test_quotient_arithmetic_cancels():
    x = (L2 * L2 - L3 * L3) / (L2 - L3)
    assert x == L2 + L3
    y = (L2 + 1) * L3 / (L2 + 1)
    assert y == L3
    z = (L2 * L3) / L3
    assert z == L2


def test_division_and_reciprocal():
    q = L2 / L3
    assert q * L3 == L2
    assert (1 / q) * L2 == L3
    assert scalar_sign(q - 1) == -1  # log2 < log3


def test_float_value():
    assert abs(float(L2) - 0.6931471805599453) < 1e-15
    assert abs(scalar_float(L3 / L2) - 1.584962500721156) < 1e-12
    assert scalar_float(Fraction(1, 4)) == 0.25


def test_is_rational_checks():
    assert scalar_fraction(exact(Fraction(3, 7))) == Fraction(3, 7)
    with pytest.raises(ValueError):
        scalar_fraction(L2)


def test_floor_fraction():
    assert floor_fraction(Fraction(7, 2)) == 3
    assert floor_fraction(Fraction(-7, 2)) == -4
    assert floor_fraction(Fraction(4)) == 4


def test_default_precision_env():
    assert default_precision_bits() == 64


# the largest prime below the proven-prime bound
_PRIME_BELOW_BOUND = 3317044064679887385961813


@pytest.mark.parametrize("p", [2, 3, 5, 7, 65537, _PRIME_BELOW_BOUND])
def test_log_bounds_enclose_mpmath(p):
    """Every rung of the sign ladder against mpmath at 200 more bits.  The
    width relies on the count in ``_atanh``: n terms fall short by less
    than 2n + 2, and k + 1 such sums stay below the guard bits."""
    assert exactnum.is_prime(_PRIME_BELOW_BOUND)
    assert _PRIME_BELOW_BOUND < exactnum._PRIME_BOUND
    bits = exactnum._SIGN_BITS
    while bits <= exactnum._PRECISION_CAP:
        lo, hi = exactnum._log_bounds(p, bits)
        with mp.workprec(bits + 200):
            assert lo <= mp.log(p) * mp.mpf(2) ** bits <= hi, bits
        assert 0 <= hi - lo <= 2, bits
        bits *= 2


def test_zero_is_not_a_place():
    with pytest.raises(ValueError):
        log_unit(0)
    with pytest.raises(ValueError):
        as_place(0)


_small = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=8
)


def _en(a, b, c):
    return a + b * L2 + c * L3


@given(_small, _small, _small, _small, _small, _small)
@settings(max_examples=60, deadline=None)
def test_field_axioms(a, b, c, d, e, f):
    x = _en(a, b, c)
    y = _en(d, e, f)
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + 1) == x * y + x
    assert x - x == 0
    if scalar_sign(y) != 0:
        assert (x / y) * y == x


def _assert_one_type(r):
    """type(r) is Fraction exactly when r is rational."""
    rational = not isinstance(r, ExactNumber) or r.is_rational
    assert (type(r) is Fraction) == rational, repr(r)


def test_rational_results_are_fractions():
    cases = [((L2 + 1) - L2, 1), (L2 * 0, 0), (0 * L2, 0), (L2 - L2, 0),
             (L2 / L2, 1), ((L2 * L3) / (L3 * L2), 1),
             ((L2 / L3) / (L2 / L3), 1), (exact(3) * exact(3), 9), (-exact(3), -3),
             (abs(exact(-3)), 3), (exact(2) * L2 / L2, 2)]
    for r, want in cases:
        _assert_one_type(r)
        assert r == want
    _assert_one_type(L2 * L2)
    _assert_one_type(1 / L2)


@given(_small, _small, _small, _small, _small, _small, _small)
@settings(max_examples=80, deadline=None)
def test_arithmetic_keeps_one_type(a, b, c, d, e, f, q):
    # with zero log coefficients the operands and results are rational
    x, y = _en(a, b, c), _en(d, e, f)
    results = [x, y, x + y, x - y, y - x, x * y, -x, x + q, q - x, x * q,
               (x + y) - y, x * y - y * x]
    if q:
        results += [x / q, q / x if x else q]
    if y:
        results += [x / y, (x * y) / y, (x / y) * y, x / y - x / y]
    for r in results:
        _assert_one_type(r)


# numerators and denominators up to 200 bits, and zero; ints too
_big_scalars = st.one_of(
    st.builds(Fraction, st.integers(-2**200, 2**200), st.integers(1, 2**200)),
    _small, st.just(Fraction(0)), st.integers(-3, 3))


@given(st.one_of(_big_scalars, st.builds(_en, _small, _small, _small)))
@settings(max_examples=200, deadline=None)
def test_scalar_sign_agrees_with_the_operators(x):
    # a Fraction's sign is read off its numerator
    assert scalar_sign(x) == (x > 0) - (x < 0)


@given(st.one_of(_big_scalars, st.builds(_en, _small, _small, _small)),
       st.one_of(_big_scalars, st.builds(_en, _small, _small, _small)),
       st.booleans())
@settings(max_examples=200, deadline=None)
def test_scalar_cmp_agrees_with_the_operators(a, b, equal):
    if equal:
        b = a + 0
    assert scalar_cmp(a, b) == (a > b) - (a < b)


@given(_small, _small, _small)
@settings(max_examples=60, deadline=None)
def test_sign_matches_float(a, b, c):
    x = _en(a, b, c)
    s = scalar_sign(x)
    approx = float(a) + float(b) * 0.6931471805599453 + float(c) * 1.0986122886681098
    if abs(approx) > 1e-9:
        assert s == (1 if approx > 0 else -1)


# -- the rational kernel -----------------------------------------------------


def test_fraction_has_the_slots_the_kernel_sets():
    # exactnum._q sets these two slots and hot code reads them; CPython
    # has kept this layout from 3.6 on, and rewrote the constructor around
    # it in 3.12, so every supported version runs this test
    assert Fraction.__slots__ == ("_numerator", "_denominator")


# ints of every sign, zero, and past 2^200
_kernel_ints = st.one_of(
    st.integers(-40, 40), st.integers(-2**260, 2**260),
    st.integers(2**200, 2**230), st.integers(-2**230, -2**200))


@given(_kernel_ints, _kernel_ints.filter(bool))
@example(0, 7)
@example(0, -7)
@example(6, -4)
@example(-6, -4)
@example(3 * 2**201, -(2**201))
@example(2**200 + 1, 2**200)
@settings(max_examples=300, deadline=None)
def test_q_builds_what_the_constructor_builds(n, d):
    got, want = exactnum._q(n, d), Fraction(n, d)
    assert type(got) is Fraction
    assert got == want
    assert repr(got) == repr(want)
    assert hash(got) == hash(want)
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert type(got.numerator) is int and type(got.denominator) is int


@pytest.mark.parametrize("n", [0, 1, -5, 2**201])
def test_q_by_zero_raises(n):
    with pytest.raises(ZeroDivisionError):
        exactnum._q(n, 0)


@given(st.one_of(_big_scalars, st.builds(_en, _small, _small, _small)),
       st.one_of(_big_scalars, st.builds(_en, _small, _small, _small)))
@example(Fraction(1, 3), Fraction(-1, 3))
@example(Fraction(2**201, 3), Fraction(5, 2**201))
@settings(max_examples=200, deadline=None)
def test_kernel_operators_are_the_operators(a, b):
    # the same value, type and repr as the operator, for Fractions on the
    # integers and for any other operand through the operator
    pairs = [(exactnum._qadd(a, b), a + b), (exactnum._qsub(a, b), a - b),
             (exactnum._qmul(a, b), a * b)]
    if b:
        pairs.append((exactnum._qdiv(a, b), a / b))
    else:
        with pytest.raises(ZeroDivisionError):
            exactnum._qdiv(a, b)
    for got, want in pairs:
        assert type(got) is type(want)
        assert repr(got) == repr(want)
    assert exactnum._qsub(exactnum._ZERO, b) == -b
    total = a + b
    assert exactnum._sum_sign(a, b) == (total > 0) - (total < 0)


# -- the native gcd in _cancel ---------------------------------------------

# every monomial of degree at most 3 in log 2, log 3 and log 5
_MONOS = [m for k in range(4) for m in combinations_with_replacement((2, 3, 5), k)]
_coeff = st.fractions(min_value=Fraction(-9), max_value=Fraction(9),
                      max_denominator=6).filter(bool)
_polys = st.dictionaries(st.sampled_from(_MONOS), _coeff,
                         min_size=1, max_size=5)
_zpolys = st.dictionaries(st.sampled_from(_MONOS),
                          st.integers(min_value=-60, max_value=60).filter(bool),
                          min_size=1, max_size=5)


def _normalize(num, den):
    """The canonical parts (n, s, d) that _make gives the cancelled quotient
    num / den, for integer or rational coefficients: d primitive with a
    positive value (the unit when constant), n an integer polynomial and
    s > 0 coprime to its content."""
    num = {m: Fraction(c) for m, c in num.items()}
    den = {m: Fraction(c) for m, c in den.items()}
    k = Fraction(gcd(*(c.numerator for c in den.values())),
                 lcm(*(c.denominator for c in den.values())))
    d = {m: int(c / k) for m, c in den.items()}
    if exactnum._poly_sign(d) < 0:
        k, d = -k, {m: -c for m, c in d.items()}
    q = {m: c / k for m, c in num.items()}  # num / den = q / d
    s = lcm(*(c.denominator for c in q.values()))
    n = {m: int(c * s) for m, c in q.items()}
    return n, s, exactnum._UNIT if d == {(): 1} else d


def _parts(x):
    return x._num, x._scale, x._den


def _sympy_cancel(num, den):
    """Reference quotient by sympy's gcd over QQ (a test oracle only)."""
    import sympy

    primes = sorted({p for m in list(num) + list(den) for p in m})
    if not primes:
        return num, den
    gens = sympy.symbols(f"x0:{len(primes)}")
    sym = dict(zip(primes, gens))

    def to_sympy(poly):
        return sympy.Poly(sympy.Add(*[
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*[sym[p] for p in m]) for m, c in poly.items()]),
            *gens, domain="QQ")

    def back(spoly):
        return {tuple(p for p, e in zip(primes, exps) for _ in range(e)):
                Fraction(int(c.numerator), int(c.denominator))
                for exps, c in spoly.terms()}

    a, b = to_sympy(num), to_sympy(den)
    g = sympy.gcd(a, b)
    return back(a.quo(g)), back(b.quo(g))


def _p(*terms):
    return dict(terms)


@given(_zpolys, _zpolys, _zpolys)
# an affine denominator that divides the numerator
@example(_p(((3,), 1), ((2, 2), 2)), _p(((), 1)), _p(((2,), 1), ((3,), -1), ((), 3)))
# an affine denominator that does not
@example(_p(((2, 3), 1), ((5,), 1)), _p(((2,), 1), ((3,), 1)), _p(((), 1)))
# an affine numerator that divides the denominator
@example(_p(((), 1)), _p(((3, 5), 2), ((2,), -1)), _p(((2,), 1), ((5,), 6)))
# only a common monomial: log 2 log 3 over log 2 log 5
@example(_p(((3,), 1)), _p(((5,), 1)), _p(((2,), 1)))
# an affine denominator in a further log: log 2 + log 7
@example(_p(((3,), 1), ((7,), 1)), _p(((), 1)), _p(((2,), 1), ((7,), 1)))
# 6 log 5 - 3 log 2 - 3 log 3 has a zero image: with log 2 and log 3 set
# to 31 it is 6 (log 5 - 31), and the next point is 31 again
@example(_p(((2,), -3), ((3,), -3), ((5,), 6)), _p(((), 1)), _p(((2, 2), 1)))
@example(_p(((), 1)), _p(((2,), -3), ((3,), -3), ((5,), 6)), _p(((2, 2), 1)))
@settings(max_examples=60, deadline=None)
def test_cancel_matches_sympy_gcd(a, b, g):
    num, den = exactnum._mul(a, g), exactnum._mul(b, g)
    assert _normalize(*exactnum._cancel(num, den)) == \
        _normalize(*_sympy_cancel(num, den))


def test_zero_image_is_an_unlucky_xi():
    # an evaluation point of the heuristic gcd is a root of the image of
    # x log(2)^2; both quotients crashed inside _heu_gcd
    x = 6 * L5 - 3 * L2 - 3 * L3
    sq = (L2 * L2)._num
    up = x * L2 * L2 / (L2 * L2)
    assert _parts(up) == _normalize(
        *_sympy_cancel(exactnum._mul(x._num, sq), sq))
    assert up == x
    down = (L2 * L2) / (x * L2 * L2) + 1
    xsq = exactnum._mul(x._num, sq)
    assert _parts(down) == _normalize(
        *_sympy_cancel(exactnum._lin(sq, 1, xsq, 1), xsq))
    assert down == (1 + x) / x


def _load_terms(terms):
    return {tuple(m): Fraction(c) for m, c in terms}


def test_cancel_three_variables_degree_five():
    # a quotient from a superadditivity instance: 52 and 25 terms in
    # log 2, log 3 and log 5, total degree 5, with gcd 3 log 2 + 8 log 3 + 2
    data = json.loads((Path(__file__).parent / "data" /
                       "gcd_3var_deg5.json").read_text())
    num, den = _load_terms(data["num"]), _load_terms(data["den"])
    # one common factor clears the denominators of both sides
    common = lcm(*(c.denominator for c in (*num.values(), *den.values())))
    num = {m: int(c * common) for m, c in num.items()}
    den = {m: int(c * common) for m, c in den.items()}
    t0 = time.perf_counter()
    out = exactnum._cancel(num, den)
    assert time.perf_counter() - t0 < 1.0
    assert _normalize(*out) == _normalize(_load_terms(data["reduced_num"]),
                                          _load_terms(data["reduced_den"]))


def test_cancel_does_not_need_sympy(monkeypatch):
    monkeypatch.setitem(sys.modules, "sympy", None)  # import sympy now fails
    g = L2 * L2 + L3 * L2 + 1
    x = (g * (L2 * L3 - 2)) / (g * (L3 * L3 + L2))
    assert x._den == {(3, 3): 1, (2,): 1}
    assert x == (L2 * L3 - 2) / (L3 * L3 + L2)


def test_give_up_keeps_the_value(monkeypatch):
    g = L2 * L3 + L5 + 1
    p, q = L2 * L2 - L3, L2 * L5 + L3 * L3 + 2
    monkeypatch.setattr(exactnum, "_zdivide", lambda f, h: None)
    x = (g * p) / (g * q)
    assert len(x._den) > len(q._num)  # uncancelled
    monkeypatch.undo()
    assert x == p / q
    assert float(x) == pytest.approx(float(p / q), rel=1e-14)


def _mp_float(x):
    """float(x) through a 1,000-bit mpmath value of its numerator and
    denominator polynomials."""
    def value(poly):
        out = mp.mpf(0)
        for mono, c in poly.items():
            term = mp.mpf(c)
            for p in mono:
                term *= mp.log(p)
            out += term
        return out

    with mp.workprec(1000):
        return float(value(x._num) / (x._scale * value(x._den)))


def _from_poly(poly):
    out = Fraction(0)
    for mono, c in poly.items():
        term = c
        for p in mono:
            term = term * log_unit(p)
        out = out + term
    return out


@given(_polys, st.one_of(st.just({(): Fraction(1)}), _polys),
       st.sampled_from([8, 16, 128]))
@example({(2,): Fraction(1)}, {(): Fraction(1)}, 8)
@example({(2,): Fraction(1), (3,): Fraction(-1)}, {(2, 5): Fraction(3)}, 16)
@settings(max_examples=200, deadline=None)
def test_float_is_correctly_rounded(num, den, rung):
    # a first rung below 53 bits makes every value refine its enclosure
    x = _from_poly(num)
    d = _from_poly(den)
    assume(isinstance(x, ExactNumber) and d != 0)
    x = x / d
    assume(isinstance(x, ExactNumber))
    want = _mp_float(x)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exactnum, "_SIGN_BITS", rung)
        assert float(x) == want
    assert float(x) == want


def test_float_refines_and_gives_up(monkeypatch):
    # the rational 157/88 held as an ExactNumber: the nearest float, which
    # the mean of the two truncated ends of an enclosure was not
    assert float(exact(Fraction(157, 88))) == 1.7840909090909092
    calls = []
    original = exactnum._poly_bounds

    def recording(poly, bits):
        calls.append(bits)
        return original(poly, bits)

    monkeypatch.setattr(exactnum, "_poly_bounds", recording)
    monkeypatch.setattr(exactnum, "_SIGN_BITS", 8)
    assert float(L3 / L2) == _mp_float(L3 / L2)
    # each rung bounds the numerator and the denominator once
    precisions = calls[::2]
    assert calls == [b for b in precisions for _ in "nd"]
    assert precisions[0] == 8 and len(precisions) >= 4
    assert precisions == [8 * 2 ** i for i in range(len(precisions))]
    monkeypatch.setattr(exactnum, "_PRECISION_CAP", 32)
    with pytest.raises(PrecisionExhausted, match="32 bits"):
        float(L3 / L2)


# -- arithmetic against sympy's rational functions -------------------------

_PRIMES = (2, 3, 5)


def _field():
    """Q(l2, l3, l5) in sympy, whose elements are cancelled quotients, and
    the generators of its polynomial ring."""
    import sympy

    field = sympy.field("l2,l3,l5", sympy.QQ)[0]
    return field, dict(zip(_PRIMES, field.ring.gens))


def _to_field(poly):
    import sympy

    field, gens = _field()
    ring = field.ring
    out = ring(0)
    for m, c in poly.items():
        term = ring(sympy.QQ(c.numerator, c.denominator))
        for p in m:
            term *= gens[p]
        out += term
    return field(out)


def _from_ring(poly):
    """A sympy polynomial in l2, l3, l5 as a dict monomial -> Fraction."""
    return {tuple(p for p, e in zip(_PRIMES, exps) for _ in range(e)):
            Fraction(int(c.numerator), int(c.denominator))
            for exps, c in poly.terms()}


def _from_repr(text):
    """The element of the field that an ExactNumber's repr writes out:
    (num)/(den) or num, terms joined by " + " and " - ", factors by "*"."""
    import re

    import sympy

    field, gens = _field()

    ring = field.ring

    def poly(part):
        total = ring(0)
        for term in part.replace(" - ", " + -").split(" + "):
            value = ring(-1 if term.startswith("-") else 1)
            for factor in term.lstrip("-").split("*"):
                log = re.fullmatch(r"log\((\d+)\)(?:\^(\d+))?", factor)
                if log:
                    value *= gens[int(log[1])] ** int(log[2] or 1)
                else:
                    q = Fraction(factor)
                    value *= ring(sympy.QQ(q.numerator, q.denominator))
            total += value
        return total

    sides = re.fullmatch(r"\((.*)\)/\((.*)\)", text)
    return field.new(*(map(poly, sides.groups()) if sides else (poly(text), ring(1))))


def _below_zero(q) -> bool:
    """q < 0 at l_p = log p, for a nonzero element q of the field."""
    def value(poly):
        out = mp.mpf(0)
        for m, c in _from_ring(poly).items():
            term = mp.mpf(c.numerator) / c.denominator
            for p in m:
                term *= mp.log(p)
            out += term
        return out

    with mp.workprec(400):
        return value(q.numer) / value(q.denom) < 0


def _check_result(r, want):
    """r is the field element want: a Fraction exactly when want is
    constant, else the canonical parts of sympy's cancelled quotient, with
    a repr that reads back as want."""
    num, den = _from_ring(want.numer), _from_ring(want.denom)
    if set(num) <= {()} and set(den) == {()}:
        assert type(r) is Fraction
        assert r == num.get((), 0) / den[()]
        return
    assert type(r) is ExactNumber
    assert _parts(r) == _normalize(num, den)
    assert _from_repr(repr(r)) == want


# polynomials of degree at most 2
_small_polys = st.dictionaries(st.sampled_from([m for m in _MONOS if len(m) < 3]),
                               _coeff, min_size=1, max_size=4)


@given(_small_polys, _small_polys, _small_polys, _small_polys,
       st.sampled_from(["quotient", "rational", "same"]))
@example({(2,): Fraction(1)}, {(3,): Fraction(1)}, {(): Fraction(-1, 2)},
         {(): Fraction(1)}, "rational")
@example({(2, 2): Fraction(1), (3, 3): Fraction(-1)}, {(2,): Fraction(1), (3,): Fraction(-1)},
         {(5,): Fraction(2, 3), (): Fraction(1)}, {(): Fraction(1)}, "same")
@settings(max_examples=60, deadline=None)
def test_arithmetic_matches_sympy(pn, pd, qn, qd, kind):
    x = _from_poly(pn) / _from_poly(pd)
    assume(isinstance(x, ExactNumber))
    big_x = _to_field(pn) / _to_field(pd)
    if kind == "quotient":
        y, big_y = _from_poly(qn) / _from_poly(qd), _to_field(qn) / _to_field(qd)
    elif kind == "rational":
        y = sum(qn.values(), Fraction(0))
        big_y = _to_field({(): y})
    else:  # x again, through a common factor
        g = _from_poly(qn)
        y, big_y = (_from_poly(pn) * g) / (_from_poly(pd) * g), big_x
    _check_result(x, big_x)
    _check_result(y, big_y)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for a, b, big_a, big_b in ((x, y, big_x, big_y), (y, x, big_y, big_x)):
            if op is not operator.truediv or big_b != 0:
                _check_result(op(a, b), op(big_a, big_b))
    diff = big_x - big_y
    assert (x == y) == (y == x) == (diff == 0)
    below = diff != 0 and _below_zero(diff)
    assert (x < y) == (y > x) == below
    assert (x >= y) == (not below)


# -- the coefficient-vector constructor and reader -------------------------
#
# The reference is the operator route the constructor replaces: each
# coefficient times its monomial, summed through the field, divided by s.
# Results must agree in type, repr and stored parts (a repr alone does not
# show whether s and the content of n were reduced).

# monomials of the roof values: 1, logs, and products of two
_LINEAR_MONOS = [(), (2,), (3,), (7,), (7, 7), (2, 7), (2, 3)]
_zint = st.one_of(st.integers(-3, 3), st.integers(-2**200, 2**200), st.just(0))


def _ref_from_coeffs(coeffs, s):
    total = Fraction(0)
    for mono, c in coeffs.items():
        term = Fraction(c)
        for p in mono:
            term = term * log_unit(p)
        total = total + term
    return total / s


def _same_parts(got, want):
    assert type(got) is type(want) and repr(got) == repr(want)
    if isinstance(want, ExactNumber):
        assert _parts(got) == _parts(want)
        assert got._den is exactnum._UNIT


@given(st.dictionaries(st.sampled_from(_LINEAR_MONOS), _zint, max_size=7),
       st.one_of(st.integers(1, 12), st.integers(1, 2**200)),
       st.integers(1, 30), st.booleans())
@example({(): 6, (2,): 0, (3,): 0}, 4, 1, False)      # zero columns: a Fraction
@example({(2,): 0}, 1, 1, False)                       # every column zero
@example({(): 3, (2,): 6, (2, 7): 9}, 12, 5, False)    # content against s
@example({(2,): 2**200, (3,): -(2**199)}, 2**201, 1, False)
@example({(): 1, (2,): 1}, 3, 7, True)                 # only the constant left
@settings(max_examples=300, deadline=None)
def test_from_coeffs_matches_the_field_sum(coeffs, s, k, constant_only):
    if constant_only:
        coeffs = {m: (c if m == () else 0) for m, c in coeffs.items()}
    # a common factor k of every coefficient and of s must come out
    coeffs = {m: c * k for m, c in coeffs.items()}
    got = exactnum._from_coeffs(coeffs, s * k)
    _same_parts(got, _ref_from_coeffs(coeffs, s * k))


def _field_place_sum(terms):
    total = Fraction(0)
    for v, q in terms:
        total = total + (q if v == exactnum.ARCH else log_unit(v) * q)
    return total


def _same_value(got, want):
    assert type(got) is type(want) and repr(got) == repr(want)
    if isinstance(want, ExactNumber):
        assert _parts(got) == _parts(want) and got._factors == want._factors


_PLACES = st.sampled_from([exactnum.ARCH, 2, 3, 5])
_RATIONALS = st.one_of(st.fractions(max_denominator=12),
                       st.fractions(max_denominator=2**80).map(lambda q: q * 2**40))
# region ends of Zariski positive parts: quotients of affine forms in the logs
_ENDS = st.sampled_from([(2 + L3 / 2 + 9 * L5) / (2 + 5 * L3 + 8 * L5),
                         (1 + L3) / (1 + L5), (3 - L2) / (1 + L5), 7 * L5 / 4 - 1])


@given(st.lists(st.tuples(_PLACES, _RATIONALS), min_size=1, max_size=5))
@example([(exactnum.ARCH, Fraction(-7, 3))])                     # ARCH alone
@example([(2, Fraction(1, 2)), (2, Fraction(-1, 2))])            # a zero sum
@example([(exactnum.ARCH, Fraction(3, 4)), (5, Fraction(5, 6)), (3, Fraction(0))])
@settings(max_examples=200, deadline=None)
def test_place_sum_of_fractions_is_the_field_sum(terms):
    _same_value(exactnum._place_sum(terms), _field_place_sum(terms))
    # the same sum handed over as int numerators over one denominator
    den = lcm(*(q.denominator for _, q in terms))
    ints = [(v, q.numerator * (den // q.denominator)) for v, q in terms]
    _same_value(exactnum._place_sum(ints, den), _field_place_sum(terms))


@given(st.lists(st.tuples(_PLACES, st.one_of(_RATIONALS, _ENDS)), min_size=1, max_size=3)
       .filter(lambda terms: any(isinstance(q, ExactNumber) for _, q in terms)))
@example([(exactnum.ARCH, (2 + L3 / 2 + 9 * L5) / (2 + 5 * L3 + 8 * L5))])
@example([(exactnum.ARCH, Fraction(1, 3)), (3, (1 + L3) / (1 + L5)),
          (5, Fraction(-2))])
@settings(max_examples=100, deadline=None)
def test_place_sum_of_mixed_values_is_the_field_sum(terms):
    # the route of positivity._roof_ends on a positive part with tails in
    # Q(log p)
    _same_value(exactnum._place_sum(terms), _field_place_sum(terms))


def test_affine_quotient_sum_takes_zero_entries():
    # a zero entry of a term's numerator for a monomial that the sum so far
    # lacks (a layer of a jet's clipped end) adds nothing
    got = exactnum._affine_quotient_sum({(): 1}, 1, [({(2,): 0, (): 1}, 1, [{(): 1}])])
    assert type(got) is Fraction and got == 2
    got = exactnum._affine_quotient_sum({}, 2, [({(3,): 0, (2,): 3}, 1, [{(): 1, (5,): 0}])])
    assert got == 3 * L2


def _field_poly(poly):
    """An integer polynomial in the logs as a value, by the field operators."""
    total = Fraction(0)
    for mono, c in poly.items():
        term = Fraction(c)
        for p in mono:
            term = term * log_unit(p)
        total = total + term
    return total


_A3 = {(): 1, (3,): 1}  # 1 + log 3
_A5 = {(): 2, (5,): 3}  # 2 + 3 log 5
_Q23 = {(): 1, (2, 3): 1}  # 1 + log 2 log 3, of degree 2


@pytest.mark.parametrize("num, s, terms", [
    # two distinct affine factors in one term
    ({(): 1, (2,): 1}, 3, [({(3,): 2}, 5, [_A3, _A5])]),
    # a repeated factor, and a term that shares it
    ({(): 1}, 2, [({(): 1}, 2, [_A3, _A3]), ({(2,): 1}, 1, [_A3])]),
    # a factor that divides its numerator, and one with content 2
    ({}, 1, [({(2,): 1, (2, 3): 1}, 1, [_A3, _A5]), ({(): 3}, 1, [{(): 2, (3,): 4}])]),
    # a factor of degree 2 beside an affine one
    ({(): 1}, 1, [({(): 1}, 1, [_Q23]), ({(5,): 1}, 2, [_A3])]),
    # a factor of degree 2 that divides its numerator
    ({(2,): 1}, 4, [({(): 1, (5,): 1, (2, 3): 1, (2, 3, 5): 1}, 3, [_Q23])]),
], ids=["two-affine", "repeated", "cancelled", "degree-2", "degree-2-cancelled"])
def test_affine_quotient_sum_is_the_field_sum(num, s, terms):
    got = exactnum._affine_quotient_sum(num, s, terms)
    want = _field_poly(num) / s
    for a, b, ls in terms:
        den = Fraction(b)
        for l in ls:
            den = den * _field_poly(l)
        want = want + _field_poly(a) / den
    assert type(got) is type(want) and repr(got) == repr(want)
    if isinstance(want, ExactNumber):
        assert _parts(got) == _parts(want)


def test_poly_parts_reads_polynomials_only():
    assert exactnum._poly_parts(Fraction(-3, 4)) == ({(): -3}, 4)
    assert exactnum._poly_parts(Fraction(0)) == ({}, 1)
    x = Fraction(1, 6) * L2 - log_unit(7) / 4
    n, s = exactnum._poly_parts(x)
    assert (n, s) == (x._num, 12) and n == {(2,): 2, (7,): -3}
    assert exactnum._poly_parts(L2 / (1 + L3)) is None
    assert exactnum._poly_parts(3) is None


# -- the screened exact division --------------------------------------------
#
# _zdivide first compares f and g at the integer point X where each log p is
# floor(2^32 log p): g | f forces g(X) | f(X).  The reference is the long
# division alone.

_X2, _X3 = (exactnum._at_screen({(p,): 1}) for p in (2, 3))


def _long_division(f, g):
    """The exact quotient f / g by long division, with no screen."""
    lead_g = max(g, key=exactnum._order)
    c_g = g[lead_g]
    tail_g = [(m, c) for m, c in g.items() if m != lead_g]
    deg_g = exactnum._degrees(g)
    caps = {p: k - deg_g.get(p, 0) for p, k in exactnum._degrees(f).items()}
    rem = dict(f)
    quo = {}
    while rem:
        lead = max(rem, key=exactnum._order)
        e = exactnum._mono_quo(lead, lead_g)
        if e is None or any(e.count(p) > caps.get(p, 0) for p in set(e)):
            return None
        c, r = divmod(rem.pop(lead), c_g)
        if r:
            return None
        quo[e] = c
        for mg, cg in tail_g:
            m = exactnum._mono_mul(e, mg)
            v = rem.get(m, 0) - c * cg
            if v:
                rem[m] = v
            else:
                del rem[m]
    return quo


# affine forms in log 2, log 3, log 5 and log 7, and polynomials of degree
# up to 3 in them
_AFFINE_MONOS = [(), (2,), (3,), (5,), (7,)]
_MONOS = [m for k in range(4) for m in combinations_with_replacement((2, 3, 5, 7), k)]
_nonzero = st.one_of(st.integers(-9, 9), st.integers(-2**80, 2**80)).filter(bool)
_affine = st.dictionaries(st.sampled_from(_AFFINE_MONOS), _nonzero, min_size=1, max_size=4)
_polys = st.dictionaries(st.sampled_from(_MONOS), _nonzero, min_size=1, max_size=6)


@given(_affine, _polys)
# g(X) = 0: the screen is skipped
@example(_p(((2,), _X3 // gcd(_X2, _X3)), ((3,), -_X2 // gcd(_X2, _X3))),
         _p(((2,), 5), ((3, 7), 1)))
# g(X) = +-1: every f(X) passes the screen
@example(_p(((2,), 1), ((), 1 - _X2)), _p(((5, 5), 2)))
# forms that vanish, or are 1, where each log p is p
@example(_p(((3,), 1), ((), -3)), _p(((2,), 5), ((3, 7), 1)))
@example(_p(((2,), 1), ((), -1)), _p(((5, 5), 2)))
@settings(max_examples=300, deadline=None)
def test_zdivide_recovers_the_quotient(g, q):
    assert exactnum._zdivide(exactnum._mul(g, q), g) == q


@given(_polys, st.one_of(_affine, _polys), _polys,
       st.one_of(st.just({}), _polys))
@example(_p(((2,), 1), ((), 1)), _p(((3,), 1), ((), 1)), _p(((), 1)), {})
@settings(max_examples=300, deadline=None)
def test_screened_zdivide_is_long_division(f, g, q, r):
    # f itself, or g q + r: divisible when r is 0, and mostly not otherwise
    for num in (f, exactnum._lin(exactnum._mul(g, q), 1, r, 1)):
        assert exactnum._zdivide(num, g) == _long_division(num, g)


def test_screen_rejects_without_division(monkeypatch):
    # log 2 + 1 and log 3 + 1 are X2 + 1 < X3 + 1 at the point: no quotient,
    # and no leading term is divided to find that out
    def no_division(*args):
        raise AssertionError("long division ran")

    monkeypatch.setattr(exactnum, "_mono_quo", no_division)
    assert exactnum._zdivide(_p(((2,), 1), ((), 1)), _p(((3,), 1), ((), 1))) is None


# -- quotients over known affine factors -------------------------------------
#
# A value whose denominator is a product of affine forms in the logs carries
# those forms, and its sums, products and quotients are cancelled by trial
# division by them.  The references are sympy's cancelled quotient and the
# same arithmetic with the factors dropped, which cancels by the heuristic
# gcd; all three must give the same parts.

# 2 + 3 log 2 + 8 log 3 is the clip factor two Brunn-Minkowski volumes share;
# 2 log 3 - 3 log 2 and log 5 - 2 log 2 + 1 vanish at log p := p; 1 - log 5
# and log 2 - 1 have negative values
_FORMS = (
    _p(((), 2), ((2,), 3), ((3,), 8)),
    _p(((3,), 2), ((2,), -3)),
    _p(((5,), 1), ((2,), -2), ((), 1)),
    _p(((), 1), ((5,), -1)),
    _p(((2,), 1), ((), -1)),
    _p(((), 7), ((3,), 5), ((5,), 3)),
)
_form = st.one_of(
    st.sampled_from(_FORMS),
    st.dictionaries(st.sampled_from([(), (2,), (3,), (5,)]),
                    st.integers(-9, 9).filter(bool), min_size=1, max_size=4)
    .filter(lambda f: set(f) != {()}))
_value_spec = st.tuples(_small_polys, st.lists(_form, min_size=0, max_size=3),
                        st.integers(0, 3))


def _quotient(spec):
    """(x, big_x) for a spec (num, forms, k): num times the first k forms
    over the product of the forms, built through the field, and the same
    element of sympy's field."""
    num, forms, k = spec
    x, big_x = _from_poly(num), _to_field(num)
    for f in forms[:k]:
        x, big_x = x * _from_poly(f), big_x * _to_field(f)
    for f in forms:
        x, big_x = x / _from_poly(f), big_x / _to_field(f)
    return x, big_x


def _without_factors(x):
    """x with its factor list dropped: its arithmetic takes the gcd route."""
    if type(x) is not ExactNumber:
        return x
    out = object.__new__(ExactNumber)
    out._num, out._scale, out._den, out._factors = x._num, x._scale, x._den, None
    return out


def _check_factors(x):
    """A known factor list is primitive affine forms of positive value whose
    product is the denominator."""
    if type(x) is not ExactNumber or x._factors is None:
        return
    for f in x._factors:
        assert exactnum._pdegree(f) == 1 and exactnum._zcontent(f) == 1
        assert exactnum._poly_sign(f) > 0
    den = exactnum._product(x._factors)
    assert den == x._den and (den is exactnum._UNIT) == (x._den is exactnum._UNIT)


def _no_gcd(*args):
    raise AssertionError("the heuristic gcd ran on a factored quotient")


@given(_value_spec, _value_spec)
# a repeated factor on both sides, and one that divides the numerator
@example((_p(((2,), Fraction(1))), [_FORMS[0], _FORMS[0]], 0),
         (_p(((), Fraction(1))), [_FORMS[0], _FORMS[1]], 1))
# forms that vanish at log p := p, shared by both sides
@example((_p(((3,), Fraction(1, 2))), [_FORMS[1], _FORMS[2]], 0),
         (_p(((2, 5), Fraction(3))), [_FORMS[2], _FORMS[1], _FORMS[1]], 0))
# a sum whose shared factor divides its numerator: 1 / ((log 2 - 1)(1 + log 5))
# - 1 / ((log 2 - 1)(log 2 + log 5)) = 1 / ((1 + log 5)(log 2 + log 5))
@example((_p(((), Fraction(1))), [_FORMS[4], _p(((), 1), ((5,), 1))], 0),
         (_p(((), Fraction(-1))), [_FORMS[4], _p(((2,), 1), ((5,), 1))], 0))
# forms of negative value, and a quotient that is rational
@example((_p(((), Fraction(1))), [_FORMS[3], _FORMS[4]], 2),
         (_p(((5,), Fraction(-2))), [_FORMS[3]], 1))
@settings(max_examples=60, deadline=None)
def test_factored_arithmetic_matches_sympy_and_the_gcd(a, b):
    (x, big_x), (y, big_y) = _quotient(a), _quotient(b)
    for v, big_v in ((x, big_x), (y, big_y)):
        _check_result(v, big_v)
        _check_factors(v)
        assert type(v) is not ExactNumber or v._factors is not None
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for u, v, big_u, big_v in ((x, y, big_x, big_y), (y, x, big_y, big_x)):
            if op is operator.truediv and big_v == 0:
                continue
            with pytest.MonkeyPatch.context() as patch:
                if op is not operator.truediv:
                    patch.setattr(exactnum, "_heu_gcd", _no_gcd)
                got = op(u, v)
            _check_result(got, op(big_u, big_v))
            _check_factors(got)
            if op is not operator.truediv and type(got) is ExactNumber:
                assert got._factors is not None
            gcd_route = op(_without_factors(u), _without_factors(v))
            assert type(gcd_route) is type(got) and repr(gcd_route) == repr(got)
            if type(got) is ExactNumber:
                assert _parts(gcd_route) == _parts(got)
    diff = big_x - big_y
    assert (x == y) == (diff == 0)
    assert (x < y) == (diff != 0 and _below_zero(diff))


def test_division_by_an_affine_numerator_adds_its_factor():
    x = (L2 + 1) / (2 * L3 - 3 * L2)  # the form vanishes at log p := p
    assert x._factors == ({(2,): -3, (3,): 2},)
    y = x / (1 - L5)  # a negative value: the factor is log 5 - 1
    assert y._factors == ({(2,): -3, (3,): 2}, {(): -1, (5,): 1})
    assert repr(-y) == \
        "(1 + log(2))/(3*log(2) - 2*log(3) - 3*log(2)*log(5) + 2*log(3)*log(5))"
    # the factor divides the numerator: it leaves the denominator again
    z = y * (2 * L3 - 3 * L2)
    assert z._factors == ({(): -1, (5,): 1},) and z == (L2 + 1) / (1 - L5)
    assert abs(-z)._factors == z._factors


def test_a_quadratic_numerator_falls_back_to_the_gcd(monkeypatch):
    # dividing by a value whose numerator has degree 2 and does not divide
    # the dividend's numerator: the factors are unknown, and the heuristic
    # gcd cancels as before
    calls = []
    original = exactnum._heu_gcd

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(exactnum, "_heu_gcd", spy)
    x = (L2 * L3 + L5 + 1) / (L2 + 1)
    y = (L2 * L2 - L3) / (1 + L5)
    got = x / y
    assert calls and got._factors is None
    monkeypatch.undo()
    want = _to_field({(2, 3): Fraction(1), (5,): Fraction(1), (): Fraction(1)}) \
        * _to_field({(5,): Fraction(1), (): Fraction(1)}) \
        / (_to_field({(2,): Fraction(1), (): Fraction(1)})
           * _to_field({(2, 2): Fraction(1), (3,): Fraction(-1)}))
    _check_result(got, want)
    assert _parts(got) == _parts(_without_factors(x) / _without_factors(y))
    # a quadratic numerator that divides the dividend's numerator needs no gcd
    monkeypatch.setattr(exactnum, "_heu_gcd", _no_gcd)
    q = (L2 * L2 - L3) * (L5 + 3) / (L2 + 1) / y
    assert q._factors is not None and q == (L5 + 3) * (1 + L5) / (L2 + 1)


def test_screen_point_separates_forms_that_vanish_at_p():
    # at log p := p the form 2 log 3 - 3 log 2 is 0 and 2 + 3 log 2 + 8 log 3
    # is 32; at the screen point both are large
    for f in (_FORMS[0], _FORMS[1], _FORMS[2]):
        assert abs(exactnum._at_screen(f)) > 2 ** 28
