"""Brute-force section-counting oracles for toric adelic pairs.

The analytic machinery elsewhere predicts volumes from the global roof; this
module counts actual small sections, so the two routes can be compared.  A
section of the m-th multiple is a Laurent monomial coefficient vector; for
invariant metrics the sup-norm unit ball is a product of coefficient boxes,
one per admissible exponent.  The box at exponent k collects the rationals
with denominator d_k = prod p^e_p(k), e_p(k) = floor(m psi_p(k/m)) with
psi_p in log p units, and absolute value at most exp(m psi_inf(k/m)).
Counting boxes instead of the true ball costs at most a factor (m+1) per
place, invisible in the m -> infinity limit.

All per-exponent counts are exact integers.  On a maximal run of exponents
whose grid points lie on one affine piece of the archimedean roof, q_k =
m psi_inf(k/m) = (A + B k) / D steps by the slope s = B / D of the piece.
So e^q is enclosed once per run, at its start, and stepped by one enclosure
of e^s in integer arithmetic.  The enclosure is carried as its lower end,
rounded down, plus an integer error bound, rounded up: a step makes one
full-width product, of the two lower ends, and the error grows by two
narrow ones.  floor(d_k e^q_k) is read off both ends, the upper one
reusing the product of d_k's numerator with the lower end.  An entry whose
two ends give different floors is decided on its own by an enclosure whose
precision starts at the bit size of the value (plus a margin) and doubles
until both ends share a floor; e^q is irrational for rational q != 0, so
the floor is well defined.  A floor proven 0 takes no enclosure: for
q < 0, d e^q < 2^(len(num) - len(den) + 1 + ceil(1.442 q)), and such
entries gather at a run's ends (nearly all of a steep run).

A box keeps only the integer columns its counts come from (the floors
e_p(k) and the runs' A, B and D): the denominators are built and the
counts floored the first time ``count_product`` or the per-exponent
``BoxEntry`` records read them.  The log floors only the counts it cannot
read in closed form, and takes no float.  A count whose x = d_k e^q_k an
integer bit bound proves wider than about a hundred bits has log(2
floor(x) + 1) = log 2 + q_k + sum_p e_p(k) log p up to less than 1/x, exact
in Q(log 2, log 3, ...) and summed on integers.  The bound is taken on
blocks of a run, from the least floors and q of the block (or the greatest,
to prove a block narrow), and a block it decides neither way is halved; so
a wide block costs a few column sums, whatever its length, and no d_k is
built for it.  The narrow counts, which gather where q is small, at a run's
ends, are floored; two mantissas of about a hundred bits enclose their
product, and one atanh series gives its log.  The sum is a dyadic Fraction
within 2^-96 relative of log N_m.

Both oracles read one exponent table (``_lattice``): the exponents k of
the level-m window, the archimedean runs and the floors e_p(k).  The
Okounkov sample, which takes no float, reads t_k = (A + B k + D sum_p
e_p(k) log p) / (D m) off it, exact in Q(log 2, log 3, ...).

Budgets keep hostile input from hanging: a box has at most
``_MAX_BOX_ENTRIES`` exponents, its counts may need at most
``_MAX_BOX_BITS`` bits in all, and no count or denominator may need more
than ``_MAX_FLOOR_BITS`` bits.  Past any of them the call fails at once,
before any exp is taken or any denominator built.
"""

from __future__ import annotations

import math
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple

from .divisors import ARCH, as_pair
from .errors import EmptyPolytope, NotBig, OutOfDomain, PrecisionExhausted
from .exactnum import (_atanh, _log_bounds, _place_sum, _q, default_precision_bits,
                       floor_fraction, scalar_cmp, scalar_fraction)
from .pa import ConcavePA, Interval, _on_line, _slope, unit_roof

_MAX_FLOOR_BITS = 1 << 16
# bits past a value's integer part at which its first enclosure is taken
_MARGIN_BITS = 32
# bits of all counts of one box together, bounded from the roofs'
# breakpoints before any exp is taken.  It bounds the readers of
# ``count_product`` and ``entries``, which floor every count with one
# product of the count's bits: the costliest admitted box holds 1025
# counts of about 65,000 bits each (a roof of height 44 at m = 1024), and
# a tent box at m = 4821 is just under the budget.  The product tree of
# ``count_product`` costs a few times its last (Karatsuba) product of two
# halves of the box's bits; ``log_count`` never builds the box's product.
_MAX_BOX_BITS = 1 << 26
# exponents per box (or per Okounkov sample); the range is checked before
# anything is built, so a huge polytope or multiple fails at once
_MAX_BOX_ENTRIES = 1 << 16


def _size_bits(num: int, den: int, a: int, b: int) -> int:
    """An upper bound on the bit size of the integer part of num/den * e^q,
    q = a/b with b > 0, reduced or not: num/den < 2^(len(num) - len(den) +
    1) and e^q < 2^ceil(1.443 q) for q > 0."""
    size = num.bit_length() - den.bit_length() + 1
    if a > 0:
        size += -((-a * 1443) // (1000 * b))
    return size


def _low_bits(num: int, den: int, a: int, b: int) -> int:
    """A lower bound on log2 of num/den * e^q, q = a/b with b > 0:
    num/den > 2^(len(num) - len(den) - 1), and e^q >= 2^floor(1.442 q) for
    q >= 0, 2^floor(1.443 q) for q < 0."""
    return (num.bit_length() - den.bit_length() - 1
            + (a * (1442 if a >= 0 else 1443)) // (1000 * b))


def _zero_floor(num: int, den: int, a: int, b: int) -> bool:
    """Whether floor(num/den * e^q) = 0 is proven for q = a/b, b > 0, in
    integers: for q < 0, num/den * e^q < 2^(len(num) - len(den) + 1 +
    ceil(1.442 q)), and an exponent of 0 or less leaves no integer part."""
    return a < 0 and (num.bit_length() - den.bit_length() + 1
                      - (-a * 1442) // (1000 * b)) <= 0


def _start_bits(size: int) -> int:
    """The first enclosure precision for a value of at most ``size`` integer
    bits: ``_MARGIN_BITS`` past it, never below the working precision."""
    return max(default_precision_bits(), size + _MARGIN_BITS)


def _floor_scaled_exp(d: Fraction, q: Fraction) -> int:
    """floor(d * e^q) for positive rational d and rational q, exactly: the
    per-entry decider for the entries whose run enclosure straddles an
    integer.  A floor ``_zero_floor`` proves 0 takes no enclosure; any other
    is accepted when both ends of an ``_exp_mantissas`` enclosure, times d,
    share it.  The first attempt runs at B + 32 bits, B
    an upper bound on the bit size of the integer part of d e^q (never below
    the working precision), so it nearly always decides; undecided ones
    double the precision up to ``_MAX_FLOOR_BITS``, past which, or at once
    for an integer part provably wider, ``PrecisionExhausted`` is raised."""
    num, den, qn, qd = d._numerator, d._denominator, q._numerator, q._denominator
    if not qn:
        return floor_fraction(d)
    if _zero_floor(num, den, qn, qd):
        return 0
    size = _size_bits(num, den, qn, qd)
    # an integer part that wide has an ulp of 2 or more at every precision
    # up to the cap
    if size > _MAX_FLOOR_BITS and qn > 0 and _low_bits(num, den, qn, qd) > _MAX_FLOOR_BITS:
        raise PrecisionExhausted(f"a box count has more than {_MAX_FLOOR_BITS} bits")
    bits = min(_MAX_FLOOR_BITS, _start_bits(size))
    while bits <= _MAX_FLOOR_BITS:
        lo, hi, e = _exp_mantissas(q, bits)
        n = _floor_times(num, den, lo, e)
        if n == _floor_times(num, den, hi, e):
            return n
        bits *= 2
    raise PrecisionExhausted(
        f"floor of {d} * exp({q}) undecided at {_MAX_FLOOR_BITS} bits"
    )


def _exp_mantissas(x: Fraction, bits: int) -> tuple:
    """(lo, hi, e), lo * 2^e <= e^x <= hi * 2^e with lo and hi of ``bits``
    bits at most 2 apart: e^x = (e^y)^(2^s), |y| = |x| / 2^s < 2^-7.  The
    Taylor series of e^y, summed by binary splitting to a term below
    2^-(w+1), w = bits + s + 6, is squared s times as a lower end plus an
    error, rounded to w + 1 bits each time: a square doubles the log of the
    ends' ratio and a rounding adds under 2^(2-w), so it ends under 2^-bits/4."""
    c, d = x._numerator, x._denominator
    s = max(0, abs(c).bit_length() - d.bit_length() + 8)
    w = bits + s + 6
    low, err, e = 1 << w, 0, -w
    if c:
        # |y| < 2^-tau, so |y|^j / j! < 2^-drop
        tau = d.bit_length() + s - abs(c).bit_length() - 1
        j, drop = 2, 2 * tau + 1
        while drop <= w:
            j += 1
            drop += tau + j.bit_length() - 1
        # 2^w e^y lies from 1 below the floor of the sum to 2 above it
        _, q, t = _exp_series(c, d, s, 1, j)
        low, err = low - 1 + _floor_times(t, q, 1, w - s * (j - 1)), 3
    for _ in range(s):
        # (low + err)^2 = low^2 + err (2 low + err)
        err *= 2 * low + err
        low *= low
        shift = (low + err).bit_length() - w - 1
        mask = (1 << shift) - 1
        low, err, e = low >> shift, ((low & mask) + err + mask) >> shift, 2 * e + shift
    shift = (low + err).bit_length() - bits
    return low >> shift, -(-(low + err) >> shift), e + shift


def _exp_series(c: int, d: int, s: int, i: int, j: int) -> tuple:
    """(P, Q, T) with sum_{k=i}^{j-1} prod_{l=i}^{k} c / (d l 2^s) = T / (Q
    2^(s (j-i))), the last product P / (Q 2^(s (j-i))): binary splitting."""
    if j - i == 1:
        return c, d * i, c
    mid = (i + j) // 2
    p1, q1, t1 = _exp_series(c, d, s, i, mid)
    p2, q2, t2 = _exp_series(c, d, s, mid, j)
    return p1 * p2, q1 * q2, (t1 * q2 << s * (j - mid)) + p1 * t2


def _floor_times(num: int, den: int, man: int, e: int) -> int:
    """floor(num * man * 2^e / den) for integers, den > 0; floor(floor(x /
    2^j) / den) = floor(x / (2^j den)), so a shift comes first."""
    x = num * man
    return (x << e if e >= 0 else x >> -e) // den


def _affine_runs(roof: ConcavePA, m: int, k_lo: int, k_hi: int) -> list:
    """(first k, last k, A, B, D) for each maximal run of exponents k in
    [k_lo, k_hi] whose grid points k/m lie on one affine piece of the roof,
    with m * roof(k/m) = (A + B k) / D on the run, D > 0.  A grid point on
    a breakpoint opens the piece to its right."""
    pts = [(scalar_fraction(x), scalar_fraction(y)) for x, y in roof.points]
    if len(pts) == 1:
        # a point window off the grid holds no exponent
        y = _q(m * pts[0][1]._numerator, pts[0][1]._denominator)
        return [(k_lo, k_hi, y._numerator, 0, y._denominator)] if k_lo <= k_hi else []
    runs = []
    start = k_lo
    last = len(pts) - 2
    for i, (p0, p1) in enumerate(zip(pts, pts[1:])):
        # k / m < x1, except that the last piece is closed on the right;
        # -floor(-m x1) - 1 is the last k below m x1
        x1 = p1[0]
        end = k_hi if i == last else min(k_hi, -(-m * x1._numerator // x1._denominator) - 1)
        if start > end:
            continue
        s = _slope(p0, p1)
        c = _on_line(*p0, s)  # the piece's value at 0
        c = _q(m * c._numerator, c._denominator)
        cn, cd = c._numerator, c._denominator
        den = math.lcm(cd, s._denominator)
        runs.append((start, end, cn * (den // cd), s._numerator * (den // s._denominator), den))
        start = end + 1
    return runs


def place_roofs(pair) -> tuple:
    """The archimedean roof and the finite-place roofs (in log p units),
    each on the full polytope of the divisor."""
    pair = as_pair(pair)
    divisor = pair.divisor
    if divisor.polytope().is_empty:
        raise EmptyPolytope(f"{divisor!r} has negative degree; no sections")
    psi_inf = unit_roof(divisor.potential(ARCH))
    return psi_inf, {p: unit_roof(divisor.potential(p)) for p in divisor.places if p != ARCH}


class BoxEntry(NamedTuple):
    """One admissible exponent: its coefficient denominator, the log of the
    archimedean bound (exact rational), and the resulting box count."""

    k: int
    denominator: Fraction
    log_bound: Fraction
    count: int


class SectionBox:
    """The coefficient boxes of the m-th multiple, as ``section_box`` lays
    them out: the integer columns of its n exponents k from k_lo up, that is
    the runs (first k, last k, A, B, D), which cover the exponents in order
    and on which the log bound q_k is (A + B k) / D, and per finite place p
    the floors e_p(k), d_k = prod_p p^e_p(k), and where they peak (``_corner``).

    The denominators d_k, as integer pairs (num, den), are built and the
    counts 2 floor(d_k e^q_k) + 1 floored by ``_run_floors`` the first time
    ``count_product`` or ``entries``, one ``BoxEntry`` per exponent, reads
    them; ``log_count`` builds d_k and floors only for the counts it cannot
    read in closed form.  A box is immutable (setting an attribute raises
    AttributeError), and two boxes are equal when their m and entries are."""

    def __init__(self, m: int, k_lo: int, n: int, runs: list, floors: dict):
        peaks = {p: column.index(max(column)) for p, column in floors.items() if column}
        self.__dict__.update(m=m, _k_lo=k_lo, _n=n, _runs=runs, _floors=floors, _peaks=peaks)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"SectionBox is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    @cached_property
    def _denominators(self) -> list:
        return _denominator_pairs(self._floors, 0, self._n)

    @cached_property
    def _counts(self) -> tuple:
        counts, ds, k_lo = [], self._denominators, self._k_lo
        for run in self._runs:
            start, end, a, b, den = run
            i, j = start - k_lo, end + 1 - k_lo
            size = _size_bound(self._floors, self._peaks, k_lo, run, i, j)
            counts += [2 * n + 1 for n in _run_floors(ds[i:j], start, a, b, den, size)]
        return tuple(counts)

    @cached_property
    def entries(self) -> tuple:
        bounds = ((k, a + b * k, den) for start, end, a, b, den in self._runs
                  for k in range(start, end + 1))
        return tuple(
            BoxEntry(k=k, denominator=_q(num, dn), log_bound=_q(q, den), count=n)
            for (k, q, den), (num, dn), n in zip(
                bounds, self._denominators, self._counts))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.m, self.entries) == (other.m, other.entries)

    def __hash__(self):
        return hash((self.m, self.entries))

    def __repr__(self):
        return f"SectionBox(m={self.m!r}, entries={self.entries!r})"

    @property
    def count_product(self) -> int:
        # a balanced product tree: each level multiplies numbers of about
        # equal size, so the cost is a few times that of the last product,
        # not quadratic in the box's bits as a running product is
        xs = list(self._counts) or [1]
        while len(xs) > 1:
            xs = [x * y for x, y in zip(xs[::2], xs[1::2])] + xs[len(xs) & ~1:]
        return xs[0]

    def log_count(self) -> Fraction:
        """log of ``count_product``, a dyadic Fraction within 2^-96 relative,
        the sum of a closed form for the wide counts and the log of the
        product of the narrow ones, with w = 96 + bitlen(number of counts).

        A count is wide when ``_low_bits`` proves x = d_k e^q_k >= 2^W, W =
        w - 3; ``_classify`` finds the wide and narrow segments of each run
        from bounds on blocks of it, with no d_k built.  As 2x - 1 < 2
        floor(x) + 1 <= 2x + 1, a wide count's log is log(2x) = log 2 + q_k +
        sum_p e_p(k) log p up to less than 1/x <= 2^-W.  The wide terms sum
        to R + sum_p C_p log p, exactly: R rational, summed on ints over one
        lcm of the runs' D, and C_p integers, column sums over the wide
        segments, C_2 counting one log 2 per wide count.  At P = w + 16 +
        bitlen(S) bits, S = sum_p |C_p|, R is floored to 2^-(P+1) and each
        log p read as the middle of its ``_log_bounds``, at most 2^-P off,
        so the closed form strays from the logs' sum A by at most n 2^-W +
        (S + 1/2) 2^-P <= 2^(1-W) n over n wide counts, while A >= n (W + 1)
        log 2: under 2^-99 A.

        The narrow counts gather at a run's ends, where q is small; the d_k
        of each maximal segment of them are built, and the segment floored
        by ``_run_floors``.  A lower and an upper mantissa of w + 1 bits
        carry their product: each count is multiplied in exactly and both
        ends are rounded back outward, which widens the log of their ratio
        by under 2^(3-w), so by under 2^-93 in all, and only once the
        product is past 2^w, its log B above w log 2 > 64.  Their mean M
        2^E, M of t + 1 bits, has log (E + t) log 2 + 2 atanh((M - 2^t) / (M
        + 2^t)), the atanh summed at P bits with a counted error err < P
        and log 2 read as above; the middle of that enclosure strays from B
        by under 2^-94 + (|E + t| + err) 2^-P, under 2^-99 B, and is 0 for a
        product of 1.  So the sum of both parts strays from log N by under
        2^-99 (A + B)."""
        floors, peaks, k_lo = self._floors, self._peaks, self._k_lo
        w = default_precision_bits() + 32 + self._n.bit_length()
        narrow = []  # the narrow floors, in increasing k
        coeffs = dict.fromkeys(floors, 0)
        rn, rd, n_wide = 0, 1, 0  # R = rn / rd
        for run in self._runs:
            a, b, den = run[2:]
            total = 0  # the sum of the wide A + B k
            for i, j, wide in _classify(floors, peaks, k_lo, run, w - 3):
                if wide:
                    # k runs over k_lo + i, ..., k_lo + j - 1
                    total += a * (j - i) + b * (2 * k_lo + i + j - 1) * (j - i) // 2
                    for p, column in floors.items():
                        coeffs[p] += sum(column[i:j])
                    n_wide += j - i
                else:
                    narrow += _run_floors(_denominator_pairs(floors, i, j), k_lo + i,
                                          a, b, den, _size_bound(floors, peaks, k_lo, run, i, j))
            if total:
                lcm = math.lcm(rd, den)
                rn, rd = rn * (lcm // rd) + total * (lcm // den), lcm
        coeffs[2] = coeffs.get(2, 0) + n_wide
        bits = w + 16 + sum(map(abs, coeffs.values())).bit_length()
        lo, hi, e = 1, 1, 0
        for n in narrow:
            lo, hi = lo * (2 * n + 1), hi * (2 * n + 1)
            shift = hi.bit_length() - w - 1
            if shift > 0:
                lo, hi, e = lo >> shift, -(-hi >> shift), e + shift
        m = lo + hi  # twice the mean, under 2^(e - 1)
        t = m.bit_length() - 1
        s, err = _atanh(m - (1 << t), m + (1 << t), bits)
        coeffs[2] += e - 1 + t
        # over 2^(bits + 1): 2 atanh, R, and each C_p log p
        out = 4 * s + 2 * err + (rn << (bits + 1)) // rd
        for p, c in coeffs.items():
            if c:
                plo, phi = _log_bounds(p, bits)
                out += c * (plo + phi)
        return _q(out, 1 << (bits + 1))


def _corner(floors: dict, peaks: dict, i: int, j: int, top: bool) -> tuple:
    """(prod_p p^max(0, e_p), prod_p p^max(0, -e_p)) with e_p the least
    floor of place p at indices i..j-1, a lower bound on those exponents'
    d_k as the pair ``_low_bits`` reads, or with ``top`` the greatest, an
    upper one; at one exponent, d_k itself.  A column, the floors of m
    psi_p(k/m) with psi_p concave, does not fall up to its first greatest
    floor, at ``peaks[p]``, nor rise after it: so the least is at an end,
    the greatest at the peak or, off it, at the end nearer to it."""
    num = den = 1
    for p, column in floors.items():
        e = column[min(max(peaks[p], i), j - 1)] if top else min(column[i], column[j - 1])
        if e > 0:
            num *= p ** e
        elif e < 0:
            den *= p ** -e
    return num, den


def _classify(floors: dict, peaks: dict, k_lo: int, run: tuple, cut: int) -> list:
    """The exponents of ``run`` = (first k, last k, A, B, D) as maximal
    segments (i, j, wide) of indices i..j-1, k = k_lo + index, in increasing
    order: a count is wide when ``_low_bits`` of d_k e^q_k, q_k = (A + B k)
    / D, is at least ``cut``.

    ``_low_bits`` grows with the numerator of d_k and with q, and falls
    with the denominator, so over a block its least value is at least
    ``_low_bits`` of the ``_corner`` of the least floors and the least q,
    which is at an end of the block, and its greatest at most that of the
    greatest.  A block is wide when the first bound reaches ``cut``, narrow
    when the second stays below it, and halved otherwise; at one exponent
    both bounds are the count's own, so every count is classified as it
    would be on its own."""
    start, end, a, b, den = run
    out, todo = [], [(start - k_lo, end + 1 - k_lo)]
    while todo:
        i, j = todo.pop()
        q0, q1 = a + b * (k_lo + i), a + b * (k_lo + j - 1)
        if _low_bits(*_corner(floors, peaks, i, j, False), min(q0, q1), den) >= cut:
            wide = True
        elif _low_bits(*_corner(floors, peaks, i, j, True), max(q0, q1), den) < cut:
            wide = False
        else:
            mid = (i + j) // 2
            todo += ((mid, j), (i, mid))
            continue
        if out and out[-1][2] == wide:
            out[-1] = (out[-1][0], j, wide)
        else:
            out.append((i, j, wide))
    return out


def _size_bound(floors: dict, peaks: dict, k_lo: int, run: tuple, i: int, j: int) -> int:
    """An upper bound on the ``_size_bits`` of the counts at indices i..j-1
    of ``run``, k = k_lo + index: that of their greatest floors and q."""
    a, b, den = run[2:]
    q = max(a + b * (k_lo + i), a + b * (k_lo + j - 1))
    return _size_bits(*_corner(floors, peaks, i, j, True), q, den)


def _check_cost(psi_inf: ConcavePA, finite: dict, entries: int, m: int) -> None:
    """Refuse a box before any exp is taken when its counts may need more
    than ``_MAX_BOX_BITS`` bits in all, or one count more bits than a ladder
    run can carry under ``_MAX_FLOOR_BITS``.

    Each count needs at most 1.443 m max psi_inf^+ plus sum_p m max|psi_p|
    log2 p bits, and the maxima of the roofs sit at their breakpoints.

    So it refuses first every box whose denominators ``section_box``
    refuses, those with a floor e_p, |e_p| (bitlen(p) - 1) >
    ``_MAX_FLOOR_BITS``: as |e_p| <= m max|psi_p| + 1, and ceil(log2 p) is 1
    for p = 2 and bitlen(p) for odd p, the bound per count then passes
    ``_MAX_FLOOR_BITS`` for every place below the bound of
    ``exactnum._proven_prime``.  That refusal is reached only with this
    check switched off."""
    top = max(scalar_fraction(y) for _, y in psi_inf.points)
    # the bound num / den, summed on integers
    num, den = 1443 * m * max(top._numerator, 0), 1000 * top._denominator
    for p, roof in finite.items():
        y = max(abs(scalar_fraction(y)) for _, y in roof.points)
        # (p - 1).bit_length() = ceil(log2 p)
        num = num * y._denominator + m * y._numerator * (p - 1).bit_length() * den
        den *= y._denominator
    # at least _size_bits of every entry
    per_entry = num // den + 3
    room = _MAX_FLOOR_BITS - _MARGIN_BITS - 2 * entries.bit_length()
    if per_entry > room:
        raise ValueError(
            f"a count at m = {m} may need {per_entry} bits; at most {room} "
            f"are counted"
        )
    if entries * per_entry > _MAX_BOX_BITS:
        raise ValueError(
            f"the counts at m = {m} may need {entries} x {per_entry} bits; "
            f"at most {_MAX_BOX_BITS} are counted"
        )


def _lattice(pair, m) -> tuple:
    """The exponent table of the m-th multiple that both oracles read, (m,
    k_lo, n, psi_inf, finite, runs, floors): the n exponents of the window
    from k_lo up, the ``_affine_runs`` of psi_inf, and per finite place p
    the floors e_p(k) = (A + B k) // D off the runs of its roof, in
    increasing k.  The multiple, the window's size and the roofs' domains
    are checked first."""
    pair = as_pair(pair)
    if m < 1 or m != int(m):
        raise ValueError(f"multiple m must be a positive integer, got {m!r}")
    m = int(m)
    window = pair.shifted_polytope()
    if window.is_empty:
        raise EmptyPolytope(f"{pair!r} has an empty shifted polytope")
    k_lo = -floor_fraction(scalar_fraction(-m * window.lo))
    k_hi = floor_fraction(scalar_fraction(m * window.hi))
    n = k_hi - k_lo + 1
    if n > _MAX_BOX_ENTRIES:
        raise ValueError(
            f"the multiple m = {m} has more than 2^{n.bit_length() - 1} "
            f"exponents; at most 2^{_MAX_BOX_ENTRIES.bit_length() - 1} are counted"
        )
    psi_inf, finite = place_roofs(pair)
    # the runs extrapolate silently, so the domains are checked here
    lo, hi = _q(k_lo, m), _q(k_hi, m)
    for roof in (psi_inf, *finite.values()):
        if scalar_cmp(roof.points[0][0], lo) > 0 or scalar_cmp(hi, roof.points[-1][0]) > 0:
            raise OutOfDomain(f"[{lo}, {hi}] is not inside {roof.domain}")
    floors = {p: _floor_column(_affine_runs(roof, m, k_lo, k_hi))
              for p, roof in finite.items()}
    return m, k_lo, n, psi_inf, finite, _affine_runs(psi_inf, m, k_lo, k_hi), floors


def _floor_column(runs: list) -> list:
    """(A + B k) // D for the exponents k of each run (first k, last k, A,
    B, D), in order: a run of integer values is a range of step B."""
    column = []
    for start, end, a, b, den in runs:
        if not b:
            column += [a // den] * (end + 1 - start)
        else:
            values = range(a + b * start, a + b * (end + 1), b)
            column += values if den == 1 else [v // den for v in values]
    return column


def section_box(pair, m: int) -> SectionBox:
    """The coefficient boxes of the m-th multiple of a pair, laid out from
    the exponent table ``_lattice`` shares with ``okounkov_sample``: its
    runs and floor columns.  No denominator is built and no count floored
    here; ``SectionBox`` does both when they are read.

    Raises ValueError when the window holds more than ``_MAX_BOX_ENTRIES``
    exponents or the counts may need more than ``_MAX_BOX_BITS`` bits, or
    one count more than ``_MAX_FLOOR_BITS`` allows, and PrecisionExhausted
    when a denominator needs more than ``_MAX_FLOOR_BITS`` bits, which the
    least and greatest floor of each column decide."""
    m, k_lo, size, psi_inf, finite, runs, floors = _lattice(pair, m)
    _check_cost(psi_inf, finite, size, m)
    for p, column in floors.items():
        # |e| log2 p past the bit cap: p^e would be refused rather than built
        cap = _MAX_FLOOR_BITS // (p.bit_length() - 1)
        if column and (max(column) > cap or -min(column) > cap):
            i = next(i for i, e in enumerate(column) if e > cap or -e > cap)
            raise PrecisionExhausted(
                f"the denominator at k = {k_lo + i} has more than "
                f"{_MAX_FLOOR_BITS} bits"
            )
    return SectionBox(m, k_lo, size, runs, floors)


def _denominator_pairs(floors: dict, i: int, j: int) -> list:
    """d_k = num / den for the exponents at indices i..j-1 of the floor
    columns as integer pairs (num, den): p^e with e the floor of place p at
    k goes above when e > 0 and below when e < 0."""
    nums, dens = [1] * (j - i), [1] * (j - i)
    for p, column in floors.items():
        for t, e in enumerate(column[i:j]):
            if e > 0:
                nums[t] *= p ** e
            elif e < 0:
                dens[t] *= p ** -e
    return list(zip(nums, dens))


def _run_floors(ds: list, start: int, a: int, b: int, den: int, size: int) -> list:
    """floor(num/d * e^q_k) for each (num, d) of ``ds`` and k = start,
    start + 1, ..., where q_k = (a + b k) / den, den > 0, and ``size`` is an
    upper bound on the ``_size_bits`` of every entry.

    e^q is enclosed once at the first q and stepped by an enclosure of
    e^(b/den), at P bits: the start precision of ``size`` plus 2
    bitlen(run length) guard bits, which cover the rounding of the steps.
    The enclosure is carried as its lower end ``low`` and an integer error
    ``err``, the upper end being low + err.  A step multiplies the lower
    ends, the one full-width product, and (low + err)(step_low + step_err)
    - low step_low = low step_err + err (step_low + step_err) gives the new
    error from two products with a narrow factor; both ends are then
    rounded back to about P bits, down and up, as a pair of explicit ends
    would be, so the ends are the same integers.  The floor of the upper
    end reuses num * low.  Entries whose ends give different floors, and
    every entry of a run whose P would pass ``_MAX_FLOOR_BITS``, are decided
    by ``_floor_scaled_exp``.

    q is monotone along the run, so the entries whose floor ``_zero_floor``
    proves 0 (nearly all of a steep run) gather at its ends: those are
    answered 0 with no enclosure, and the entries between them stepped.
    """
    n, head, end = len(ds), 0, len(ds)
    while head < end and _zero_floor(*ds[head], a + b * (start + head), den):
        head += 1
    while head < end and _zero_floor(*ds[end - 1], a + b * (start + end - 1), den):
        end -= 1
    if head == end:
        return [0] * n
    ds, start, out, tail = ds[head:end], start + head, [0] * head, [0] * (n - end)
    ks = range(start, start + len(ds))
    bits = _start_bits(size) + 2 * len(ds).bit_length()
    if bits > _MAX_FLOOR_BITS:
        return out + [_floor_scaled_exp(_q(num, d), _q(a + b * k, den))
                      for k, (num, d) in zip(ks, ds)] + tail
    low, high, e = _exp_mantissas(_q(a + b * start, den), bits)
    err = high - low
    if len(ds) > 1:
        step_low, step_high, step_e = _exp_mantissas(_q(b, den), bits)
        step_err = step_high - step_low
    for k, (num, d) in zip(ks, ds):
        if k != start:
            # one step of e^(b/den), then back to about P bits
            err = low * step_err + err * step_high
            low *= step_low
            e += step_e
            shift = (low + err).bit_length() - bits
            if shift > 0:
                # ceil((low + err) / 2^shift) - floor(low / 2^shift)
                mask = (1 << shift) - 1
                err = ((low & mask) + err + mask) >> shift
                low >>= shift
                e += shift
        x = num * low
        y = x + num * err
        if e >= 0:
            x, y = x << e, y << e
        else:
            x, y = x >> -e, y >> -e
        n = x // d
        if y != x and y // d != n:
            n = _floor_scaled_exp(_q(num, d), _q(a + b * k, den))
        out.append(n)
    return out + tail


def box_log_count(pair, m: int) -> Fraction:
    """log of the number of strictly small sections of the m-th multiple,
    in the coefficient-box model, as ``SectionBox.log_count`` gives it."""
    return section_box(pair, m).log_count()


def _estimate(log_count: Fraction, m: int) -> Fraction:
    return 2 * log_count / (m * m)


def volume_estimate(pair, m: int) -> Fraction:
    """Finite-level volume estimate 2 log #sections / m^2, a Fraction."""
    return _estimate(box_log_count(pair, m), m)


class OkounkovSample(NamedTuple):
    """Empirical concave-transform samples at level m: pairs (w, t_max),
    t_max exact, a Fraction or a Q-linear form in 1, log 2, log 3, ..."""

    m: int
    entries: tuple


def okounkov_sample(pair, m: int) -> OkounkovSample:
    """The empirical concave transform at each exponent w = j/m of the
    reflected shifted polytope: the largest filtration parameter t at which
    the exponent's box still holds a nonzero coefficient.

    The filtration twists the divisor by -(0, 2t[infinity]); the potential
    dictionary turns that into psi_inf - t, and the box at the exponent's
    point x = k/m = -w goes empty as soon as t exceeds psi_inf(x) +
    log(d_k)/m, with log d_k = sum_p e_p(k) log p.  So t is read off the
    exponent table ``section_box`` reads, (A + B k) / D = m psi_inf(x) and
    the floors e_p(k): t = (A + B k + D sum_p e_p(k) log p) / (D m), built
    exactly from its integer coefficients.
    """
    m, k_lo, _, _, _, runs, floors = _lattice(pair, m)
    entries = []
    for start, end, a, b, den in reversed(runs):
        for k in range(end, start - 1, -1):
            terms = [(ARCH, a + b * k)] + [(p, den * column[k - k_lo])
                                          for p, column in floors.items()]
            entries.append((_q(-k, m), _place_sum(terms, den * m)))
    return OkounkovSample(m=m, entries=tuple(entries))


class OkounkovData(NamedTuple):
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
    from .positivity import avol, is_big

    pair = as_pair(pair)
    if not is_big(pair):
        raise NotBig(f"{pair!r} is not big; the Okounkov body is degenerate")
    transform = pair.global_roof().reflect()
    twice = avol(pair)  # kept on the pair by is_big
    return OkounkovData(domain=transform.domain, transform=transform,
                        body_volume=twice / 2, avol=twice)
