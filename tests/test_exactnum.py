"""Field arithmetic in Q(log 2, log 3, ...) and the rational helpers."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adelic_volumes.exactnum import (
    ExactNumber,
    default_precision_bits,
    exact,
    floor_fraction,
    log_unit,
    scalar_float,
    scalar_fraction,
    scalar_is_rational,
    scalar_sign,
)

L2 = log_unit(2)
L3 = log_unit(3)


def test_rational_embedding_round_trip():
    x = exact(Fraction(7, 3))
    assert x.is_rational
    assert x.as_fraction() == Fraction(7, 3)
    assert x == Fraction(7, 3)
    assert Fraction(7, 3) == x


def test_log_unit_rejects_composites():
    # 561 is a Carmichael number, 2047 a strong pseudoprime to base 2
    for n in (6, 1, 561, 2047):
        with pytest.raises(ValueError):
            ExactNumber.log_unit(n)


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


def test_pow():
    assert L2 ** 2 == L2 * L2
    assert (L2 ** 0) == 1
    assert (L2 ** -1) * L2 == 1


def test_float_value():
    assert abs(float(L2) - 0.6931471805599453) < 1e-15
    assert abs(scalar_float(L3 / L2) - 1.584962500721156) < 1e-12
    assert scalar_float(Fraction(1, 4)) == 0.25


def test_is_rational_checks():
    assert scalar_is_rational(Fraction(2, 5))
    assert scalar_is_rational(exact(4))
    assert not scalar_is_rational(L2)
    assert scalar_fraction(exact(Fraction(3, 7))) == Fraction(3, 7)
    with pytest.raises(ValueError):
        scalar_fraction(L2)


def test_floor_fraction():
    assert floor_fraction(Fraction(7, 2)) == 3
    assert floor_fraction(Fraction(-7, 2)) == -4
    assert floor_fraction(Fraction(4)) == 4


def test_default_precision_env(monkeypatch):
    monkeypatch.delenv("ADELIC_PRECISION_BITS", raising=False)
    assert default_precision_bits() == 64
    monkeypatch.setenv("ADELIC_PRECISION_BITS", "256")
    assert default_precision_bits() == 256
    monkeypatch.setenv("ADELIC_PRECISION_BITS", "16")
    assert default_precision_bits() == 64  # the floor wins


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


@given(_small, _small, _small)
@settings(max_examples=60, deadline=None)
def test_sign_matches_float(a, b, c):
    x = _en(a, b, c)
    s = scalar_sign(x)
    approx = float(a) + float(b) * 0.6931471805599453 + float(c) * 1.0986122886681098
    if abs(approx) > 1e-9:
        assert s == (1 if approx > 0 else -1)
