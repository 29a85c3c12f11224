"""Brute-force section-counting oracles for toric adelic pairs.

The analytic machinery elsewhere predicts volumes from the global roof; this
module counts actual small sections, so the two routes can be compared.  A
section of the m-th multiple is a Laurent monomial coefficient vector; for
invariant metrics the sup-norm unit ball is a product of coefficient boxes,
one per admissible exponent.  The box at exponent k collects the rationals
with denominator d_k = prod p^floor(m psi_p(k/m) / log p) and absolute value
at most exp(m psi_inf(k/m)).  Counting boxes instead of the true ball costs
at most a factor (m+1) per place, invisible in the m -> infinity limit.

All per-exponent counts are exact integers.  The floor of d * e^q is decided
by an interval enclosure whose precision starts at the bit size of the value
(plus a margin) and doubles until both ends share a floor; e^q is irrational
for rational q != 0, so the floor is well defined.  Only the final logarithm
is floating point: the sum of the per-entry logs at the working precision,
without forming the product of the counts.

Two budgets keep hostile input from hanging: a box has at most
``_MAX_BOX_ENTRIES`` exponents, and no count or denominator may need more
than ``_MAX_FLOOR_BITS`` bits.  Past either, the call fails at once, before
the work is done.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import iv, mp

from .divisors import ARCH, Pair, as_pair
from .errors import EmptyPolytope, NotBig, OutOfDomain, PrecisionExhausted
from .exactnum import default_precision_bits, floor_fraction, scalar_fraction
from .pa import (
    ConcavePA,
    Interval,
    _eval_on_grid,
    integrate_positive_part,
    unit_roof,
)

_MAX_FLOOR_BITS = 1 << 16
# exponents per box (or per Okounkov sample); the range is checked before
# anything is built, so a huge polytope or multiple fails at once
_MAX_BOX_ENTRIES = 1 << 16


def _floor_scaled_exp(d: Fraction, q: Fraction) -> int:
    """floor(d * e^q) for positive rational d and rational q, exactly.

    The value is enclosed by ``iv.exp`` and the floor is accepted only when
    both ends of the enclosure have the same floor.  The first attempt runs
    at B + 32 bits, B an upper bound on the bit size of the integer part of
    d * e^q (never below the working precision), so one attempt nearly
    always decides; undecided enclosures double the precision up to
    ``_MAX_FLOOR_BITS``, past which ``PrecisionExhausted`` is raised.  An
    integer part provably wider than that cap can never be decided, so it
    raises at once.
    """
    if q == 0:
        return floor_fraction(d)
    # d < 2^(len(num) - len(den) + 1) and e^q < 2^ceil(1.443 q) for q > 0
    size = d.numerator.bit_length() - d.denominator.bit_length() + 1
    if q > 0:
        size += -((-q * 1443) // 1000)
    # d e^q > 2^(len(num) - len(den) - 1 + floor(1.442 q)): an integer part
    # that wide has an ulp of 2 or more at every precision up to the cap
    if size > _MAX_FLOOR_BITS and q > 0 and (
            d.numerator.bit_length() - d.denominator.bit_length() - 1
            + (q * 1442) // 1000 > _MAX_FLOOR_BITS):
        raise PrecisionExhausted(f"a box count has more than {_MAX_FLOOR_BITS} bits")
    bits = min(_MAX_FLOOR_BITS, max(default_precision_bits(), size + 32))
    while bits <= _MAX_FLOOR_BITS:
        with mp.workprec(bits):
            old = iv.prec
            iv.prec = bits
            try:
                val = (
                    iv.exp(iv.mpf(q.numerator) / q.denominator)
                    * d.numerator
                    / d.denominator
                )
                lo = int(mpmath.floor(val.a))
                hi = int(mpmath.floor(val.b))
            finally:
                iv.prec = old
        if lo == hi:
            return lo
        bits *= 2
    raise PrecisionExhausted(
        f"floor of {d} * exp({q}) undecided at {_MAX_FLOOR_BITS} bits"
    )


def place_roofs(pair) -> tuple:
    """The archimedean roof and the finite-place roofs (in log p units),
    each on the full polytope of the divisor."""
    pair = as_pair(pair)
    divisor = pair.divisor
    if divisor.polytope().is_empty:
        raise EmptyPolytope(f"{divisor!r} has negative degree; no sections")
    psi_inf = unit_roof(divisor.potential(ARCH))
    finite = {}
    for place in divisor.places:
        if place == ARCH:
            continue
        finite[place] = unit_roof(divisor.potential(place))
    return psi_inf, finite


@dataclass(frozen=True)
class BoxEntry:
    """One admissible exponent: its coefficient denominator, the log of the
    archimedean bound (exact rational), and the resulting box count."""

    k: int
    denominator: Fraction
    log_bound: Fraction
    count: int


@dataclass(frozen=True)
class SectionBox:
    m: int
    entries: tuple

    @property
    def count_product(self) -> int:
        out = 1
        for e in self.entries:
            out *= e.count
        return out

    def log_count(self):
        """log of ``count_product``, as the sum of the per-entry logs at the
        working precision; the product itself is never formed."""
        with mp.workprec(default_precision_bits() + 32):
            return mp.fsum(mp.log(e.count) for e in self.entries)


def _check_multiple(m) -> int:
    if m < 1 or m != int(m):
        raise ValueError(f"multiple m must be a positive integer, got {m!r}")
    return int(m)


def _check_entries(lo: int, hi: int, m: int) -> None:
    n = hi - lo + 1
    if n > _MAX_BOX_ENTRIES:
        raise ValueError(
            f"the multiple m = {m} has more than 2^{n.bit_length() - 1} "
            f"exponents; at most 2^{_MAX_BOX_ENTRIES.bit_length() - 1} are counted"
        )


def section_box(pair, m: int) -> SectionBox:
    """Enumerate the coefficient boxes of the m-th multiple of a pair.

    Raises ValueError when the window holds more than ``_MAX_BOX_ENTRIES``
    exponents."""
    pair = as_pair(pair)
    m = _check_multiple(m)
    window = pair.shifted_polytope()
    if window.is_empty:
        raise EmptyPolytope(f"{pair!r} has an empty shifted polytope")
    k_lo = -floor_fraction(scalar_fraction(-Fraction(m) * window.lo))
    k_hi = floor_fraction(scalar_fraction(Fraction(m) * window.hi))
    _check_entries(k_lo, k_hi, m)
    psi_inf, finite = place_roofs(pair)
    # the grid scan extrapolates silently, so the domains are checked here
    lo, hi = Fraction(k_lo, m), Fraction(k_hi, m)
    for roof in (psi_inf, *finite.values()):
        if not (roof.domain.lo <= lo and hi <= roof.domain.hi):
            raise OutOfDomain(f"[{lo}, {hi}] is not inside {roof.domain}")
    xs = [Fraction(k, m) for k in range(k_lo, k_hi + 1)]
    qs = _eval_on_grid(psi_inf.points, xs)
    # |e| log2 p past the bit cap: p^e is refused rather than built
    finite_ys = [(Fraction(p), _eval_on_grid(roof.points, xs),
                  _MAX_FLOOR_BITS // (p.bit_length() - 1))
                 for p, roof in finite.items()]
    entries = []
    for i, k in enumerate(range(k_lo, k_hi + 1)):
        d = Fraction(1)
        for p, ys, top in finite_ys:
            e = floor_fraction(scalar_fraction(m * ys[i]))
            if abs(e) > top:
                raise PrecisionExhausted(
                    f"the denominator at k = {k} has more than "
                    f"{_MAX_FLOOR_BITS} bits"
                )
            d *= p ** e
        q = scalar_fraction(m * qs[i])
        n = 2 * _floor_scaled_exp(d, q) + 1
        entries.append(BoxEntry(k=k, denominator=d, log_bound=q, count=n))
    return SectionBox(m=m, entries=tuple(entries))


def box_log_count(pair, m: int):
    """log of the number of strictly small sections of the m-th multiple,
    in the coefficient-box model."""
    return section_box(pair, m).log_count()


def _estimate(log_count, m: int):
    return 2 * log_count / mp.mpf(m * m)


def volume_estimate(pair, m: int):
    """Finite-level volume estimate 2 log #sections / m^2."""
    return _estimate(box_log_count(pair, m), m)


def empirical_transform(pair, m: int, w):
    """Largest filtration parameter t at which the exponent identified with
    w still carries a nonzero admissible coefficient, or None when the
    exponent lies outside the shifted polytope (no sections at w at all).

    The filtration twists the divisor by -(0, 2t[infinity]); the potential
    dictionary turns that into psi_inf - t, and the box at exponent k goes
    empty as soon as t exceeds psi_inf(k/m) + log(d_k)/m.
    """
    pair = as_pair(pair)
    m = _check_multiple(m)
    w = Fraction(w)
    x = -w
    window = pair.shifted_polytope()
    if window.is_empty:
        raise EmptyPolytope(f"{pair!r} has an empty shifted polytope")
    if not (window.lo <= x <= window.hi):
        return None
    if (w * m).denominator != 1:
        raise ValueError(f"w = {w} is not a multiple of 1/{m}")
    return _transform_at(place_roofs(pair), m, x)


def _transform_at(roofs, m: int, x: Fraction):
    psi_inf, finite = roofs
    t = scalar_fraction(psi_inf.eval(x))
    with mp.workprec(default_precision_bits() + 32):
        out = mp.mpf(t.numerator) / t.denominator
        for p, roof in finite.items():
            f_p = floor_fraction(scalar_fraction(m * roof.eval(x)))
            out += mp.mpf(f_p) * mp.log(p) / m
        return +out


@dataclass(frozen=True)
class OkounkovSample:
    """Empirical concave-transform samples at level m: pairs (w, t_max)."""

    m: int
    entries: tuple


def okounkov_sample(pair, m: int) -> OkounkovSample:
    pair = as_pair(pair)
    m = _check_multiple(m)
    window = pair.shifted_polytope()
    if window.is_empty:
        raise EmptyPolytope(f"{pair!r} has an empty shifted polytope")
    lo = -floor_fraction(scalar_fraction(Fraction(m) * window.hi))
    hi = floor_fraction(scalar_fraction(-Fraction(m) * window.lo))
    _check_entries(lo, hi, m)
    roofs = place_roofs(pair)
    entries = []
    for j in range(lo, hi + 1):
        w = Fraction(j, m)
        entries.append((w, _transform_at(roofs, m, -w)))
    return OkounkovSample(m=m, entries=tuple(entries))


@dataclass(frozen=True)
class OkounkovData:
    """The arithmetic Okounkov body data of a big pair: the projected
    interval, the concave transform on it, and the induced volumes."""

    domain: Interval
    transform: ConcavePA
    body_volume: object
    avol: object


def analytic_okounkov(pair) -> OkounkovData:
    """Okounkov body for the flag valuation 'order of vanishing at Zero'.

    The valuation of the section at x is w = -x, so the body's shadow is the
    reflected shifted polytope and the concave transform is the reflected
    roof; the volume above zero halves the arithmetic volume.
    """
    from .positivity import is_big

    pair = as_pair(pair)
    if not is_big(pair):
        raise NotBig(f"{pair!r} is not big; the Okounkov body is degenerate")
    roof = pair.global_roof()
    transform = roof.reflect()
    body_volume = integrate_positive_part(roof)
    return OkounkovData(
        domain=transform.domain,
        transform=transform,
        body_volume=body_volume,
        avol=2 * body_volume,
    )
