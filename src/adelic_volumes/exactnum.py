"""Exact scalars in the field Q(log 2, log 3, ...).

Quantities produced by toric arithmetic on the projective line are rational
linear combinations of 1 and logarithms of primes, together with the products
and quotients that convex geometry makes from them (cut points of roofs, areas
of clipped triangles).  All of it lives in the fraction field of the polynomial
ring Q[log 2, log 3, ...], which this module implements directly, over Z:

* a monomial is a sorted tuple of primes with multiplicity, ``()`` meaning 1;
* a polynomial is a dict monomial -> nonzero int;
* a number is n / (s * d): n and d polynomials, s a positive int with
  gcd(content(n), s) = 1, and d primitive with a positive value, or the
  shared unit ``_UNIT`` whenever it would be the constant 1;
* with it, d's factors when they are known: a tuple of primitive affine
  forms of positive value, with multiplicity, whose product is d (``()``
  for d = 1), or None when d may have a factor not known to be affine.

Quotients are kept small by cancelling the polynomial gcd of n and d.
Every denominator that toric geometry makes at finite places is a product
of affine forms in the logs: the clip denominators of roof integrals, the
zeros of roofs.  They come factored out of ``_affine_quotient_sum`` and out
of a division by a value whose numerator has degree at most 1; a sum then
goes over the least common multiple of the two factor lists, a product or
quotient over the joined lists.  Z[log 2, log 3, ...] is a UFD and a
primitive affine form is irreducible, so gcd(n, d) is a product of some of
d's factors, and trial division of n by each of them removes exactly it:
no gcd is computed.  A sum of two cancelled quotients need only try the
factors its denominators share (Knuth, TAOCP vol. 2, 4.5.1); the others
cannot divide its numerator.  ``_zdivide`` screens every trial at an
integer point X where each log p is 2^32 log p rounded down: a quotient
q(X) of integers must come out, and an affine form with small coefficients
is large there, so a non-divisor is nearly always rejected before any long
division.

A denominator whose factors are not known goes to ``_cancel``: disjoint
variables need no gcd, an affine side either divides the other side
exactly or shares nothing with it, and the rest goes to the heuristic gcd
of Char, Geddes and Gonnet (1989): evaluate one log variable at a large
integer xi, recurse down to integer gcds, rebuild a candidate from its
symmetric xi-adic digits and keep it only if it divides both polynomials
exactly.  If a few values of xi all fail, the quotient stays uncancelled.
That is safe: the canonical form only controls size, and no result depends
on it.  Each cancelled quotient has one canonical form, so both routes
return the same parts whenever the heuristic succeeds.

Equality is decided exactly, by cross-multiplied coefficient comparison.  The
sign of a coefficient-wise nonzero value is decided by one ladder: the signs
of the coefficients when they agree (every log p is positive), then a sum of
cached dyadic enclosures of the monomials at 128 bits, doubled until the
enclosure separates from zero; each rung sums integers over one power of two.
A real zero invisible to the coefficients would be a rational dependence
between products of prime logarithms; the ladder is capped and raises
:class:`~adelic_volumes.errors.PrecisionExhausted` rather than loop forever on
such a miracle.  ``float`` reads the same rungs.

A rational value has one type, ``fractions.Fraction``: every arithmetic
result is a Fraction exactly when it is rational (log terms that cancel,
``x * 0``, ``x / x`` included), and an ExactNumber otherwise.  ``exact(q)``
is the only way to hold a rational as an ExactNumber.  Fractions and ints
mix freely with ExactNumbers in arithmetic and comparisons, and the
``scalar_*`` helpers at the bottom give call sites one vocabulary for
"Fraction or ExactNumber".

This module is also the rational kernel, the only door into Fraction
internals.  CPython's Fraction is pure Python, and on rational data its
protocol was the toolkit's largest single cost: the constructor's
dispatch, ``as_integer_ratio``, the ``numerator`` and ``denominator``
properties and a ``numbers.Rational`` check in every ``==`` and ``<``.
So ``_q(n, d)`` builds the reduced Fraction of two ints by setting the two
slots of ``object.__new__(Fraction)``, and code that knows an operand is a
Fraction reads it as ``x._numerator``, ``x._denominator``; ``_qadd``,
``_qsub``, ``_qmul``, ``_qdiv``, ``_sum_sign``, ``scalar_sign`` and
``scalar_cmp`` cross-multiply those integers and keep the operator for
any other operand.  The values are the canonical Fractions the
constructor builds, equal in value, type, repr and hash.  That relies on
one CPython fact:
``Fraction.__slots__ == ("_numerator", "_denominator")``, true from
Python 3.6 to 3.13, and ``tests/test_exactnum.py`` pins it together with
``_q`` against the constructor.  ``tests/leaf_share.py`` measures the
share of ``fractions.py`` that is left; the Diskant report's own formulas
keep the Fraction operators.

Only this module knows how a monomial and an ExactNumber are stored
(``tests/test_kernel_sites.py`` holds the other modules to it).  A value
whose d is 1, such as every global-roof value (a Q-linear form in 1,
log 2, log 3, ...), has exactly one canonical n / s.  So a sum of many
such values is read as integer coefficients per monomial
(``_poly_parts``, ``_poly_columns``), added with ``_lin`` and built once
with ``_from_coeffs``: the value every chain of field operations would
return, without the chain.  So is the place-weighted sum
sum_v c_v q_v (``_place_sum``), c_v = 1 at ``ARCH`` and log p at p
(``_weight_mono``).  A sum of such values and quotients over products of
factors (the clipped ends of an integral, products with a Zariski
region's ends) is built once the same way by ``_affine_quotient_sum``,
whose only cancellation is trial division by the primitive affine
parts; a factor of degree above 1, which only library input builds,
takes ``_make``'s general cancel.  ``positivity``'s line kernel reads
them as ring elements of Z[log 2, log 3, ...] (``_split``, ``_cleared``).
"""

from __future__ import annotations

from fractions import Fraction
from math import copysign, gcd, inf, isqrt, lcm, prod
from typing import Union

from .errors import PrecisionExhausted

Mono = tuple  # tuple[int, ...], sorted primes with multiplicity
Poly = dict  # dict[Mono, int]

_MONO_ONE: Mono = ()  # the monomial 1, of a value's rational part
_UNIT = {_MONO_ONE: 1}  # the denominator of every value whose d is 1

_PRECISION_BITS = 64
_SIGN_BITS = 128  # the first rung of the sign ladder
_PRECISION_CAP = 1 << 13


def default_precision_bits() -> int:
    """The starting precision, 64 bits, of the e^x enclosures in ``sections``."""
    return _PRECISION_BITS


def _atanh(num: int, den: int, bits: int) -> tuple:
    """(s, err) with s <= 2^bits atanh(num / den) <= s + err for 0 <= num /
    den <= 1/3, err counted (0 for num = 0): each power x^(2j+1), floored
    from the last, falls short by less than 9/8 and its term by less than
    2, and the terms after the first power that floors to 0 sum to less
    than 2."""
    x2n, x2d = num * num, den * den
    power = (num << bits) // den
    s = n = 0
    while power:
        s += power // (2 * n + 1)
        power = power * x2n // x2d
        n += 1
    return s, 2 * n + 2 if num else 0


_LOG_BOUNDS: dict = {}  # (p, bits) -> (lo, hi)


def _log_bounds(p: int, bits: int) -> tuple:
    """Cached integers lo <= 2^bits log p <= hi, at most 2 apart: log p =
    2 (k atanh(1/3) + atanh((p - 2^k) / (p + 2^k))) for 2^k <= p < 2^(k+1),
    summed g bits past ``bits``, where the k + 1 counted errors, each at
    most 2 (bits + g) / 3 + 4, stay below 2^(g-1)."""
    key = (p, bits)
    b = _LOG_BOUNDS.get(key)
    if b is None:
        k, g = p.bit_length() - 1, p.bit_length().bit_length() + bits.bit_length() + 4
        s, err = _atanh(p - (1 << k), p + (1 << k), bits + g)
        s2, err2 = _atanh(1, 3, bits + g) if k else (0, 0)
        s, err = s + k * s2, err + k * err2
        _LOG_BOUNDS[key] = b = (s >> (g - 1), -(-(s + err) >> (g - 1)))
    return b


_MONO_BOUNDS: dict = {}  # (mono, bits) -> (lo, hi, k) dyadic enclosure


def _mono_bounds(mono: Mono, bits: int) -> tuple:
    """A cached dyadic enclosure lo / 2^k <= value <= hi / 2^k of the
    monomial, lo, hi and k integers: the product of the ``bits``-bit
    enclosures of its logarithms, k = bits times its degree.

    Comparisons between roof breakpoints land here constantly; integer
    bounds over one power of two let every rung of the sign ladder sum
    integers."""
    key = (mono, bits)
    b = _MONO_BOUNDS.get(key)
    if b is None:
        lo = hi = 1
        for p in mono:
            # every log p is positive
            plo, phi = _log_bounds(p, bits)
            lo *= plo
            hi *= phi
        _MONO_BOUNDS[key] = b = (lo, hi, bits * len(mono))
    return b


def _poly_bounds(poly: Poly, bits: int) -> tuple:
    """(lo, hi, top) with lo / 2^top <= poly <= hi / 2^top, all integers:
    one rung of the ladder, from the ``bits``-bit monomial bounds."""
    bounds = [(c, _mono_bounds(mono, bits)) for mono, c in poly.items()]
    top = max((k for _, (_, _, k) in bounds), default=0)
    lo = hi = 0
    for n, (mlo, mhi, k) in bounds:
        if n > 0:
            lo += (n * mlo) << (top - k)
            hi += (n * mhi) << (top - k)
        else:
            lo += (n * mhi) << (top - k)
            hi += (n * mlo) << (top - k)
    return lo, hi, top


def _poly_sign(poly: Poly) -> int:
    """The sign of a polynomial, by the ladder: uniform coefficient signs,
    then the rungs of ``_poly_bounds`` from ``_SIGN_BITS`` bits, doubled up
    to ``_PRECISION_CAP``, past which PrecisionExhausted is raised."""
    if not poly:
        return 0
    # every monomial is a product of log p > 0, so uniform coefficient signs
    # settle the sign without an enclosure
    it = iter(poly.values())
    positive = next(it) > 0
    for c in it:
        if (c > 0) is not positive:
            break
    else:
        return 1 if positive else -1
    bits = _SIGN_BITS
    while bits <= _PRECISION_CAP:
        lo, hi, _ = _poly_bounds(poly, bits)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        bits *= 2
    raise PrecisionExhausted(
        f"could not separate sign of {_poly_str(poly)} below {_PRECISION_CAP} bits"
    )


# -- integer polynomials ---------------------------------------------------


def _lin(a: Poly, x: int, b: Poly, y: int) -> Poly:
    """x * a + y * b."""
    out = {m: c * x for m, c in a.items()} if x != 1 else dict(a)
    for m, c in b.items():
        v = out.get(m, 0) + c * y
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def _mono_mul(a: Mono, b: Mono) -> Mono:
    if not a or not b or a[-1] <= b[0]:
        return a + b
    return tuple(sorted(a + b))


def _mul(a: Poly, b: Poly) -> Poly:
    if b is _UNIT:
        return a
    if a is _UNIT:
        return b
    out: Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = _mono_mul(ma, mb)
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def _pdegree(a: Poly) -> int:
    return max((len(m) for m in a), default=0)


# -- polynomial gcd over Z ------------------------------------------------
#
# A known affine factor is divided out by _zdivide; the general case goes to
# the heuristic gcd of Char, Geddes and Gonnet (1989), which evaluates the
# variables of both sides in increasing order.

_HEU_GCD_TRIES = 6
_SCREEN_BITS = 32  # log p is floor(2^32 log p) at the screen point
_SCREEN: dict = {}  # monomial -> its value at the screen point


def _at_screen(f: dict) -> int:
    """f at the integer screen point X of ``_zdivide``."""
    total = 0
    for mono, c in f.items():
        v = _SCREEN.get(mono)
        if v is None:
            v = _SCREEN[mono] = prod(_log_bounds(p, _SCREEN_BITS)[0] for p in mono)
        total += c * v
    return total


def _zcontent(f: dict) -> int:
    c = 0
    for v in f.values():
        c = gcd(c, v)
        if c == 1:
            break
    return c


def _primitive(f: dict) -> tuple:
    """(c, f / c) for c the content of f."""
    c = _zcontent(f)
    return c, {e: v // c for e, v in f.items()}


def _zeval(f: dict, var: int, xi: int) -> dict:
    """f with var, a variable below every other one in f, set to xi."""
    powers = [1]
    out: dict = {}
    for mono, c in f.items():
        e = mono.count(var)
        while len(powers) <= e:
            powers.append(powers[-1] * xi)
        rest = mono[e:]
        out[rest] = out.get(rest, 0) + c * powers[e]
    return {m: c for m, c in out.items() if c}


def _zinterpolate(h: dict, var: int, xi: int) -> dict:
    """The polynomial whose coefficients of var^i are the symmetric base-xi
    digits of weight xi^i of h's coefficients, var below h's variables."""
    out: dict = {}
    half = xi // 2
    i = 0
    while h:
        higher = {}
        for mono, c in h.items():
            d = c % xi
            if d > half:
                d -= xi
            if d:
                out[(var,) * i + mono] = d
            c = (c - d) // xi
            if c:
                higher[mono] = c
        h = higher
        i += 1
    return out


def _mono_quo(m: Mono, n: Mono):
    """m / n, or None when n does not divide m."""
    out = []
    i = 0
    for p in n:
        while i < len(m) and m[i] < p:
            out.append(m[i])
            i += 1
        if i == len(m) or m[i] != p:
            return None
        i += 1
    out.extend(m[i:])
    return tuple(out)


def _degrees(f: dict) -> dict:
    """The degree of f in each of its variables."""
    out: dict = {}
    for mono in f:
        for p in set(mono):
            out[p] = max(out.get(p, 0), mono.count(p))
    return out


def _order(mono: Mono) -> tuple:
    # total degree first; among equal degrees a sorted tuple is smaller when
    # its first differing variable has the larger exponent, and that order
    # is kept by multiplication
    return len(mono), mono


def _zdivide(f: dict, g: dict):
    """The exact quotient f / g in Z[log 2, ...], or None when g does not
    divide f.

    A screen runs first: with X the integer point where each log p is
    floor(2^32 log p), f = g q in Z[log 2, ...] gives f(X) = g(X) q(X) with
    q(X) an integer, so a nonzero g(X) that does not divide f(X) proves
    that g does not divide f, and None comes back with no division.  The
    point is generic: an affine g with small coefficients is of the order
    of 2^32 there, not 0 or a small integer as at log p := p (where
    2 log 3 - 3 log 2 vanishes and 2 + 3 log 2 + 8 log 3 is 32), so a
    non-divisor nearly never passes.  Otherwise long division by leading
    terms in ``_order``; every quotient exponent is capped by the degrees
    of f minus those of g, so it ends either way."""
    gx = _at_screen(g)
    if gx and _at_screen(f) % gx:
        return None
    lead_g = max(g, key=_order)
    c_g = g[lead_g]
    tail_g = [(m, c) for m, c in g.items() if m != lead_g]
    deg_g = _degrees(g)
    caps = {p: k - deg_g.get(p, 0) for p, k in _degrees(f).items()}
    rem = dict(f)
    quo: dict = {}
    while rem:
        lead = max(rem, key=_order)
        e = _mono_quo(lead, lead_g)
        if e is None or any(e.count(p) > caps.get(p, 0) for p in set(e)):
            return None
        c, r = divmod(rem.pop(lead), c_g)
        if r:
            return None
        quo[e] = c
        for mg, cg in tail_g:
            m = _mono_mul(e, mg)
            v = rem.get(m, 0) - c * cg
            if v:
                rem[m] = v
            else:
                del rem[m]
    return quo


def _heu_gcd(f: dict, g: dict, variables: tuple):
    """(h, f/h, g/h) for h the gcd of two nonzero integer polynomials in
    the given variables, increasing, or None when the heuristic gives up.

    Evaluate the first variable at an integer xi, take the gcd of the images
    recursively (math.gcd once no variable is left), rebuild a candidate
    from its symmetric xi-adic digits and accept its primitive part only if
    it divides both f and g exactly.  With xi above twice the smaller
    max-norm plus 2, an accepted candidate is the gcd (Char, Geddes and
    Gonnet, 1989); a rejected one, or a zero image, means xi was unlucky,
    and a larger xi is tried, a fixed number of times."""
    cf, cg = _zcontent(f), _zcontent(g)
    c = gcd(cf, cg)
    if not variables:  # f and g are integers
        return {(): c}, {(): f[()] // c}, {(): g[()] // c}
    var, rest = variables[0], variables[1:]
    f = {e: v // cf for e, v in f.items()}
    g = {e: v // cg for e, v in g.items()}
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 29
    for _ in range(_HEU_GCD_TRIES):
        fx, gx = _zeval(f, var, xi), _zeval(g, var, xi)
        # xi is sized by the smaller norm, so it can be a root of the other
        # polynomial; a zero image is an unlucky xi like a rejected candidate
        if fx and gx:
            image = _heu_gcd(fx, gx, rest)
            if image is None:
                return None
            _, h = _primitive(_zinterpolate(image[0], var, xi))
            qf = _zdivide(f, h)
            if qf is not None:
                qg = _zdivide(g, h)
                if qg is not None:
                    return ({e: v * c for e, v in h.items()},
                            {e: v * (cf // c) for e, v in qf.items()},
                            {e: v * (cg // c) for e, v in qg.items()})
        xi = xi * 73794 * isqrt(isqrt(xi)) // 27011
    return None


def _divide_out(num: Poly, factors: tuple, trial) -> tuple:
    """(n, kept) with num / prod(factors) = n / prod(kept), each factor of
    trial (a part of the multiset factors) removed from both as often as it
    divides num.  When factors holds all of den's primitive affine factors
    and trial every one that can divide num, n / prod(kept) is cancelled:
    Z[log 2, log 3, ...] is a UFD and a primitive affine form is
    irreducible, so gcd(num, den) is the product of the factors that
    divide, and no gcd is computed.  The screen of ``_zdivide`` reads
    num's value once for every factor, and a factor rejected once is not
    tried again."""
    if not trial:
        return num, factors
    nx = _at_screen(num)
    failed: list = []
    for f in trial:
        if any(f is g or f == g for g in failed):
            continue
        fx = _at_screen(f)
        q = None if fx and nx % fx else _zdivide(num, f)
        if q is None:
            failed.append(f)
            continue
        num = q
        nx = nx // fx if fx else _at_screen(q)
        i = next(i for i, g in enumerate(factors) if g is f or g == f)
        factors = factors[:i] + factors[i + 1:]
    return num, factors


def _unshared(f1: tuple, f2: tuple) -> tuple:
    """(e1, e2, shared): f1 less f2, f2 less f1 and what they share, as
    multisets.  d1 e2 = d2 e1 is the least common multiple of the
    denominators, and shared is their gcd."""
    e2 = list(f2)
    e1, shared = [], []
    for f in f1:
        for i, g in enumerate(e2):
            if f is g or f == g:
                del e2[i]
                shared.append(f)
                break
        else:
            e1.append(f)
    return e1, e2, shared


def _cancel(num: Poly, den: Poly) -> tuple:
    """(a, b) with num / den = a / b and the polynomial gcd of num and den
    removed, the log monomials acting as independent variables, for a den
    whose factors are not known (``_divide_out`` cancels the rest).
    Without this, iterated arithmetic on quotients compounds the
    denominators and the term count explodes.

    Disjoint variables share no factor.  An affine side is irreducible: its
    primitive part either divides the other side or shares nothing with it.
    Everything else goes to the heuristic gcd over Z.  When the heuristic
    gives up, num and den come back uncancelled: equality and signs are
    decided by cross-multiplication, so the canonical form only controls
    size, never a result.  A rational value cannot be left uncancelled: when
    den divides num, the image gcd is den's own image and the first xi
    rebuilds den."""
    num_vars = {p for mono in num for p in mono}
    den_vars = {p for mono in den for p in mono}
    if not (num_vars & den_vars):
        return num, den
    if _pdegree(den) == 1:
        c, prim = _primitive(den)
        q = _zdivide(num, prim)
        return (num, den) if q is None else (q, {(): c})
    if _pdegree(num) == 1:
        c, prim = _primitive(num)
        q = _zdivide(den, prim)
        return (num, den) if q is None else ({(): c}, q)
    found = _heu_gcd(num, den, tuple(sorted(num_vars | den_vars)))
    if found is None:
        return num, den
    h, qa, qb = found
    if len(h) == 1 and () in h:  # the gcd is a constant
        return num, den
    return qa, qb


def _mono_str(mono: Mono) -> str:
    return "*".join(f"log({p})" + (f"^{mono.count(p)}" if mono.count(p) > 1 else "")
                    for p in sorted(set(mono)))


def _poly_str(poly: Poly, scale: int = 1) -> str:
    """poly / scale, written out."""
    if not poly:
        return "0"
    terms = []
    for mono in sorted(poly, key=lambda m: (len(m), m)):
        coeff = _q(poly[mono], scale)
        if mono == ():
            terms.append(str(coeff))
        elif coeff == 1:
            terms.append(_mono_str(mono))
        elif coeff == -1:
            terms.append(f"-{_mono_str(mono)}")
        else:
            terms.append(f"{coeff}*{_mono_str(mono)}")
    out = terms[0]
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13: no composite below it passes all thirteen bases
_PRIME_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Miller-Rabin to the first thirteen prime bases: deterministic below
    psi_13 = 3317044064679887385961981 (Sorenson and Webster 2015), a strong
    probable-prime test above.  ``_proven_prime`` refuses n from there up."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _proven_prime(n: int) -> bool:
    """is_prime(n) where the test is a proof; ValueError from psi_13 up."""
    if n >= _PRIME_BOUND:
        raise ValueError(f"a {n.bit_length()}-bit integer is not a place: "
                         f"primes are accepted below {_PRIME_BOUND}")
    return is_prime(n)


ScalarLike = Union[int, Fraction, "ExactNumber"]


# -- the rational kernel ---------------------------------------------------
#
# The only code that builds a Fraction from its two slots.  Elsewhere, an
# operand known to be a Fraction is read as x._numerator, x._denominator.

_object_new = object.__new__


def _q(n: int, d: int) -> Fraction:
    """The reduced Fraction n / d of two ints, as ``Fraction(n, d)`` builds
    it, without its constructor: the sign normalized, the gcd divided out,
    and the two slots set.  ZeroDivisionError when d = 0."""
    if d <= 0:
        if not d:
            raise ZeroDivisionError(f"Fraction({n}, 0)")
        n, d = -n, -d
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    obj = _object_new(Fraction)
    obj._numerator = n
    obj._denominator = d
    return obj


_ZERO = _q(0, 1)


def _qadd(a, b):
    """a + b: one Fraction from the integers of two Fractions, the
    operator otherwise."""
    if type(a) is Fraction and type(b) is Fraction:
        ad, bd = a._denominator, b._denominator
        return _q(a._numerator * bd + b._numerator * ad, ad * bd)
    return a + b


def _qsub(a, b):
    """a - b, as ``_qadd`` forms a + b; ``_qsub(_ZERO, b)`` is -b."""
    if type(a) is Fraction and type(b) is Fraction:
        ad, bd = a._denominator, b._denominator
        return _q(a._numerator * bd - b._numerator * ad, ad * bd)
    return a - b


def _qmul(a, b):
    """a * b, as ``_qadd`` forms a + b."""
    if type(a) is Fraction and type(b) is Fraction:
        return _q(a._numerator * b._numerator, a._denominator * b._denominator)
    return a * b


def _qdiv(a, b):
    """a / b, as ``_qadd`` forms a + b; ZeroDivisionError when b = 0."""
    if type(a) is Fraction and type(b) is Fraction:
        return _q(a._numerator * b._denominator, a._denominator * b._numerator)
    return a / b


def _is_constant(num: Poly, den: Poly) -> bool:
    return den is _UNIT and (not num or len(num) == 1 and () in num)


def _value(num: Poly, scale: int, den: Poly, factors=None):
    """The normalized num / (scale * den) as a value: the Fraction when den
    is 1 and num is constant (0 included), else an ExactNumber, with den's
    affine factors when they are known (always for den = 1)."""
    if _is_constant(num, den):
        return _q(num.get((), 0), scale)
    obj = object.__new__(ExactNumber)
    obj._num = num
    obj._scale = scale
    obj._den = den
    obj._factors = () if den is _UNIT else factors
    return obj


def _scaled(num: Poly, p: int, q: int, den: Poly, factors=None):
    """p * num / (q * den) for ints p and q > 0 and a normalized den with
    the given factors, through ``_value``: the common factors of p and q,
    and of num's content and q, come out."""
    g = gcd(p, q)
    if g != 1:
        p //= g
        q //= g
    if q != 1 and num:
        g = q
        for c in num.values():
            g = gcd(g, c)
            if g == 1:
                break
        if g != 1:
            q //= g
            return _value({m: c // g * p for m, c in num.items()}, q, den, factors)
    if p != 1:
        num = {m: c * p for m, c in num.items()}
    return _value(num, q, den, factors)


def _from_coeffs(coeffs: Poly, s: int):
    """The canonical value coeffs / s, for an integer polynomial given as
    monomial -> int (zero entries allowed) and an int s > 0: the Fraction
    when no non-constant coefficient is left, else the ExactNumber n / s
    with d = 1 and the common factor of s and n's content taken out.  That
    form is unique, so it is the one every chain of field operations with
    this value returns: a sum of k log-weighted terms costs one call
    instead of k multiplications and k additions."""
    return _scaled({m: c for m, c in coeffs.items() if c}, 1, s, _UNIT)


def _affine_quotient_sum(num: Poly, s: int, terms):
    """The canonical value of num / s plus the sum of a / (b prod ls) over
    the terms (a, b, ls), built once: num, a and each l of the sequence ls
    integer polynomials (zero entries allowed), s and b positive ints, and
    each l of positive value.

    The denominator is s times the product of the primitive parts of the
    nonconstant l.  When each is affine they are its factors:
    ``_divide_out`` cancels them by trial division, and no heuristic gcd
    runs.  What is left is the form ``_make`` gives: the product of
    primitive parts of positive value is primitive (Gauss) and positive,
    and ``_scaled`` takes out the common factor of s and the numerator's
    content.  A part of degree above 1 sends the sum to ``_make``'s
    general cancel."""
    num = {m: c for m, c in num.items() if c}
    parts: list = []  # the nonconstant primitive parts in the denominator
    den = _UNIT  # their product
    for a, b, ls in terms:
        prims = []
        for l in ls:
            c, prim = _primitive({m: v for m, v in l.items() if v})
            b *= c
            if len(prim) > 1 or () not in prim:
                prims.append(prim)
        d = _product(prims)  # the term's denominator over b
        num = _lin(_mul(num, d), b, _mul(a, den), s)
        parts += prims
        den = _mul(den, d)
        s *= b
    factors = tuple(parts) if all(_pdegree(f) == 1 for f in parts) else None
    return _make(num, 1, s, den, factors, factors)


def _linear_combination(base, pairs):
    """base + sum t c over the pairs (t, c), built once by
    ``_affine_quotient_sum``: base and every c a Fraction or a value whose
    d is 1, every t a Fraction or an ExactNumber, whose denominator goes
    in as its factors, or as itself when they are not known."""
    n0, s0 = _poly_parts(base)
    terms = []
    for t, c in pairs:
        if c:
            n, s, d, f = _parts(t)
            nc, sc = _poly_parts(c)
            terms.append((_mul(n, nc), s * sc, (d,) if f is None else f))
    return _affine_quotient_sum(n0, s0, terms)


def _product(polys) -> Poly:
    out = _UNIT
    for f in polys:
        out = _mul(out, f)
    return out


def _poly_parts(x):
    """(n, s) with x = n / s, n an integer polynomial read in place (not to
    be mutated), for a Fraction or an ExactNumber whose d is 1 (a
    polynomial in the logs); None for any other value."""
    if type(x) is Fraction:
        a = x._numerator
        return ({(): a} if a else {}), x._denominator
    if type(x) is ExactNumber and x._den is _UNIT:
        return x._num, x._scale
    return None


def _poly_columns(values):
    """(cols, monos, s) with values[i] = sum_j cols[j][i] monos[j] / s, one
    int column per monomial over the lcm s of the values' scales; None
    unless every d is 1."""
    parts = [_poly_parts(y) for y in values]
    if not all(parts):
        return None
    s = lcm(*[b for _, b in parts])
    monos = list(dict.fromkeys([m for n, _ in parts for m in n]))
    return [[n.get(m, 0) * (s // b) for n, b in parts] for m in monos], monos, s


ARCH = "inf"  # the archimedean place, of weight 1; a prime p weighs log p


def _weight_mono(place) -> Mono:
    """The monomial of a place's weight: 1 at ARCH, log p at p."""
    return _MONO_ONE if place == ARCH else (place,)


def _place_sum(terms, den=None):
    """sum_v c_v q_v over the pairs (v, q_v), c_v the weight of the place
    v, built once from integer coefficients when the q_v are ints over den
    or Fractions; q_v itself for ARCH alone, else the sum in the field."""
    if den is None:
        if len(terms) == 1 and terms[0][0] == ARCH:
            return terms[0][1]
        if not all(type(q) is Fraction for _, q in terms):
            return sum((q if v == ARCH else log_unit(v) * q for v, q in terms), _ZERO)
        den = lcm(*[q._denominator for _, q in terms])
        terms = [(v, q._numerator * (den // q._denominator)) for v, q in terms]
    coeffs: Poly = {}
    for v, n in terms:
        mono = _weight_mono(v)
        coeffs[mono] = coeffs.get(mono, 0) + n
    return _from_coeffs(coeffs, den)


def _ring(x):
    """A value n / 1 as a ring element of Z[log 2, ...]: an int if rational."""
    return x._numerator if type(x) is Fraction else x


def _split(v) -> tuple:
    """(n, m), ring elements with v = n / m and m > 0: the two ints of a
    Fraction, or n and s d of an ExactNumber n / (s d)."""
    if type(v) is Fraction:
        return v._numerator, v._denominator
    return _ring(_from_coeffs(v._num, 1)), _ring(_from_coeffs(v._den, 1)) * v._scale


def _cleared(*values) -> tuple:
    """(s, s v_1, s v_2, ...): s the product of the distinct denominator
    polynomials of the values that are not Fractions, a ring element (1
    when there is none), and each value times s, a value whose d is 1,
    formed on its integer polynomials with no quotient."""
    parts = [_parts(v) for v in values]
    dens: list = []
    for _, _, den, _ in parts:
        if den is not _UNIT and all(den != f for f in dens):
            dens.append(den)
    return (_ring(_from_coeffs(_product(dens), 1)),) + tuple(
        _from_coeffs(_mul(num, _product([f for f in dens if f != den])), s)
        for num, s, den, _ in parts)


def _make(num: Poly, p: int, q: int, den: Poly, factors=None, trial=()):
    """p * num / (q * den) cancelled and normalized, for ints p and
    q > 0.  With den's factors known, den is their product, already
    normalized, and cancelling is trial division by the factors of trial
    (``_divide_out``); else ``_cancel`` cancels, and a den left affine is
    its own factor."""
    if not num:
        return _ZERO
    if factors is not None:
        num, kept = _divide_out(num, factors, trial)
        if kept is not factors:
            factors, den = kept, _product(kept)
        return _scaled(num, p, q, den, factors)
    if den is not _UNIT and (len(den) > 1 or () not in den):
        num, den = _cancel(num, den)
    if len(den) == 1 and () in den:
        c = den[()]
        return _scaled(num, p if c > 0 else -p, q * abs(c), _UNIT)
    c = _zcontent(den)
    if _poly_sign(den) < 0:
        c = -c
    if c != 1:
        den = {m: v // c for m, v in den.items()}
        if c < 0:
            p, c = -p, -c
        q *= c
    return _scaled(num, p, q, den, (den,) if _pdegree(den) == 1 else None)


def _parts(x):
    """(num, scale, den, factors) of an int, a Fraction or an ExactNumber;
    None for anything else."""
    if type(x) is Fraction:
        a = x._numerator
        return ({(): a} if a else {}), x._denominator, _UNIT, ()
    if isinstance(x, ExactNumber):
        return x._num, x._scale, x._den, x._factors
    if isinstance(x, (int, Fraction)):
        a = x.numerator
        return ({(): a} if a else {}), x.denominator, _UNIT, ()
    return None


def _sum(n1, s1, d1, f1, n2, s2, d2, f2, sign: int):
    """n1 / (s1 d1) + sign * n2 / (s2 d2), for cancelled operands with
    den factors f1 and f2.  With both known, the sum goes over the least
    common multiple of the denominators and only their shared factors are
    tried: a factor in one denominator more often than in the other
    divides one term of the numerator and not the other."""
    if d1 is d2 or d1 == d2:
        g = gcd(s1, s2)
        num = _lin(n1, s2 // g, n2, sign * (s1 // g))
        if d1 is _UNIT:
            # polynomial + polynomial keeps d = 1: no cancel
            return _scaled(num, 1, s1 // g * s2, _UNIT)
        # equal denominators have the same factors, in some order
        factors = f1 if f1 is not None else f2
        return _make(num, 1, s1 // g * s2, d1, factors, factors)
    if f1 is not None and f2 is not None:
        e1, e2, shared = _unshared(f1, f2)
        m1, m2 = _product(e1), _product(e2)
        g = gcd(s1, s2)
        num = _lin(_mul(n1, m2), s2 // g, _mul(n2, m1), sign * (s1 // g))
        return _make(num, 1, s1 // g * s2, _mul(d1, m2), f1 + tuple(e2), shared)
    num = _lin(_mul(n1, d2), s2, _mul(n2, d1), sign * s1)
    return _make(num, 1, s1 * s2, _mul(d1, d2))


def _diff_sign(n1, s1, d1, f1, n2, s2, d2, f2) -> int:
    """The sign of n1 / (s1 d1) - n2 / (s2 d2).  Denominators are
    normalized positive, so the sign survives cross-multiplication, over
    their least common multiple when both factor lists are known; this
    skips quotient normalization entirely."""
    if d1 is d2 or d1 == d2:
        g = gcd(s1, s2)
        return _poly_sign(_lin(n1, s2 // g, n2, -(s1 // g)))
    if f1 is not None and f2 is not None:
        e1, e2, _ = _unshared(f1, f2)
        return _poly_sign(_lin(_mul(n1, _product(e2)), s2, _mul(n2, _product(e1)), -s1))
    return _poly_sign(_lin(_mul(n1, d2), s2, _mul(n2, d1), -s1))


class ExactNumber:
    """An element of Q(log 2, log 3, ...), stored as n / (s * d) for
    integer polynomials n and d and a positive int s, with d's primitive
    affine factors when they are known."""

    __slots__ = ("_num", "_scale", "_den", "_factors")

    def __init__(self, value: ScalarLike = 0):
        parts = _parts(value)
        if parts is None:
            raise TypeError(f"cannot build ExactNumber from {type(value).__name__}")
        self._num, self._scale, self._den, self._factors = parts

    @classmethod
    def log_unit(cls, prime: int) -> "ExactNumber":
        """The symbolic value log(prime)."""
        if not _proven_prime(prime):
            raise ValueError(f"{prime} is not prime")
        return _value({(prime,): 1}, 1, _UNIT)

    # -- structure ---------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return _is_constant(self._num, self._den)

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self!r} is not rational")
        return _q(self._num.get((), 0), self._scale)

    def sign(self) -> int:
        return _poly_sign(self._num)  # s and the value of d are positive

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _sum(self._num, self._scale, self._den, self._factors, *o, 1)

    __radd__ = __add__

    def __neg__(self):
        return _value({m: -c for m, c in self._num.items()}, self._scale, self._den,
                      self._factors)

    def __sub__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _sum(self._num, self._scale, self._den, self._factors, *o, -1)

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return _sum(*_parts(other), self._num, self._scale, self._den, self._factors, -1)

    def __mul__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        n2, s2, d2, f2 = o
        if _is_constant(n2, d2):
            if not n2:
                return _ZERO
            # scaling by a nonzero rational preserves every normalization
            # invariant but the content of n against s
            return _scaled(self._num, n2[()], self._scale * s2, self._den, self._factors)
        f1 = self._factors
        factors = None if f1 is None or f2 is None else f1 + f2
        return _make(_mul(self._num, n2), 1, self._scale * s2,
                     _mul(self._den, d2), factors, factors)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        n2, s2, d2, _ = o
        if _is_constant(n2, d2):
            if not n2:
                raise ZeroDivisionError("ExactNumber division by zero")
            a = n2[()]
            return _scaled(self._num, s2 if a > 0 else -s2, self._scale * abs(a),
                           self._den, self._factors)
        f1 = self._factors
        if f1 is not None:
            c, prim = _primitive(n2)  # n2 = c * prim
            degree = _pdegree(prim)
            if degree > 1:
                # prim's factors are not known: when it divides self's
                # numerator, the quotient's denominator is self's
                q = _zdivide(self._num, prim)
                if q is not None:
                    return _make(_mul(q, d2), s2, self._scale * c, self._den, f1, f1)
            else:
                # prim, made positive, joins the factors (none for a constant)
                if _poly_sign(prim) < 0:
                    c, prim = -c, {m: -v for m, v in prim.items()}
                factors, den = ((f1 + (prim,), _mul(self._den, prim)) if degree
                                else (f1, self._den))
                return _make(_mul(self._num, d2), s2 if c > 0 else -s2,
                             self._scale * abs(c), den, factors, factors)
        return _make(_mul(self._num, d2), s2, self._scale, _mul(self._den, n2))

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return ExactNumber(other) / self

    def __abs__(self):
        return -self if self.sign() < 0 else _value(self._num, self._scale, self._den,
                                                    self._factors)

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        # a nonzero difference separates (False) or raises
        return _diff_sign(self._num, self._scale, self._den, self._factors, *o) == 0

    def __lt__(self, other):
        o = _parts(other)
        return NotImplemented if o is None else \
            _diff_sign(self._num, self._scale, self._den, self._factors, *o) < 0

    def __le__(self, other):
        o = _parts(other)
        return NotImplemented if o is None else \
            _diff_sign(self._num, self._scale, self._den, self._factors, *o) <= 0

    def __gt__(self, other):
        o = _parts(other)
        return NotImplemented if o is None else \
            _diff_sign(self._num, self._scale, self._den, self._factors, *o) > 0

    def __ge__(self, other):
        o = _parts(other)
        return NotImplemented if o is None else \
            _diff_sign(self._num, self._scale, self._den, self._factors, *o) >= 0

    __hash__ = None  # mutable-free but deliberately unhashable

    def __bool__(self):
        return bool(self._num)

    def __float__(self):
        """The nearest float, ties to even.  The enclosures of n and d on
        the rungs of the sign ladder are refined until both ends of their
        quotient round to one float, which is then the rounding of the
        value; an irrational value is never a tie, so this ends, and past
        ``_PRECISION_CAP`` bits PrecisionExhausted is raised, as for a
        sign."""
        num, den = self._num, self._den
        bits = _SIGN_BITS
        while bits <= _PRECISION_CAP:
            nlo, nhi, kn = _poly_bounds(num, bits)
            dlo, dhi, kd = _poly_bounds(den, bits)
            if dlo > 0:
                # n / d with d > 0, over the scale and the powers of two
                lo = _nearest(nlo << kd, (dhi if nlo >= 0 else dlo) * self._scale << kn)
                hi = _nearest(nhi << kd, (dlo if nhi >= 0 else dhi) * self._scale << kn)
                if lo == hi:
                    return lo
            bits *= 2
        raise PrecisionExhausted(
            f"could not round {self!r} to a float below {_PRECISION_CAP} bits"
        )

    def __repr__(self):
        num = _poly_str(self._num, self._scale)
        if self._den is _UNIT:
            return num
        return f"({num})/({_poly_str(self._den)})"


def _nearest(a: int, b: int) -> float:
    """The float nearest a / b for b > 0, ties to even; +-inf past the
    float range."""
    try:
        return a / b
    except OverflowError:
        return copysign(inf, a)


# -- helpers over "Fraction or ExactNumber" -------------------------------

Scalar = Union[Fraction, ExactNumber]


def exact(value: ScalarLike) -> ExactNumber:
    return ExactNumber(value)


def log_unit(prime: int) -> ExactNumber:
    return ExactNumber.log_unit(prime)


def scalar_sign(x: Scalar) -> int:
    if type(x) is Fraction:  # read off the numerator, in place
        n = x._numerator
        return (n > 0) - (n < 0)
    if isinstance(x, ExactNumber):
        return x.sign()
    return (x > 0) - (x < 0)


def scalar_cmp(a: Scalar, b: Scalar) -> int:
    """The sign of a - b, without forming a - b: cross-multiplied integers
    for two Fractions, one exact sign of the difference otherwise, as
    ``a < b`` decides it."""
    if type(a) is Fraction and type(b) is Fraction:
        t = a._numerator * b._denominator - b._numerator * a._denominator
        return (t > 0) - (t < 0)
    return _diff_sign(*_parts(a), *_parts(b))


def _sum_sign(a: Scalar, b: Scalar) -> int:
    """The sign of a + b: cross-multiplied integers for two Fractions, the
    sign of the sum otherwise."""
    if type(a) is Fraction and type(b) is Fraction:
        t = a._numerator * b._denominator + b._numerator * a._denominator
        return (t > 0) - (t < 0)
    return scalar_sign(a + b)


def scalar_float(x) -> float:
    """The nearest float; values beyond the float range give +-inf, as
    ``float`` does for an ExactNumber (a Fraction would raise)."""
    try:
        return float(x)
    except OverflowError:
        return copysign(inf, scalar_sign(x))


def scalar_fraction(x: Scalar) -> Fraction:
    """The value as a Fraction; raises ValueError for genuinely irrational input."""
    if type(x) is Fraction:
        return x
    if isinstance(x, ExactNumber):
        return x.as_fraction()
    return Fraction(x)


def floor_fraction(q: Fraction) -> int:
    return q._numerator // q._denominator
