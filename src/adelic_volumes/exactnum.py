"""Exact scalars in the field Q(log 2, log 3, ...)(eps).

Quantities produced by toric arithmetic on the projective line are rational
linear combinations of 1 and logarithms of primes, together with the products
and quotients that convex geometry makes from them (cut points of roofs, areas
of clipped triangles).  All of it lives in the fraction field of the polynomial
ring Q[log 2, log 3, ...], which this module implements directly:

* a monomial is a sorted tuple of primes with multiplicity, ``()`` meaning 1;
  the key ``0`` stands for eps (see below) and sorts before every prime;
* a polynomial is a dict monomial -> Fraction;
* a number is a quotient num/den of two polynomials, with the denominator
  folded into the numerator whenever it is purely rational.

Quotients are kept small by cancelling the polynomial gcd of num and den,
computed over Z.  Disjoint variables need no gcd, and an affine side is
irreducible, so it either divides the other side exactly or shares nothing
with it; the rest goes to the heuristic gcd of Char, Geddes and Gonnet
(1989): evaluate one log variable at a large integer xi, recurse down to
integer gcds, rebuild a candidate from its symmetric xi-adic digits and keep
it only if it divides both polynomials exactly.  If a few values of xi all
fail, the quotient stays uncancelled.  That is safe: the canonical form only
controls size, and no result depends on it.

Equality is decided exactly, by cross-multiplied coefficient comparison.  The
sign of a coefficient-wise nonzero value is decided by one ladder: the signs
of the coefficients when they agree (every log p is positive), then a sum of
cached dyadic enclosures of the monomials at 128 bits, doubled until the
enclosure separates from zero; each rung sums integer numerators over one
common denominator.  A real zero invisible to the coefficients
would be a rational dependence between products of prime logarithms; the
ladder is capped and raises :class:`~adelic_volumes.errors.PrecisionExhausted`
rather than loop forever on such a miracle.

:data:`EPS` is a positive infinitesimal, as in simulation of simplicity
(Edelsbrunner and Muecke, ACM TOG 1990).  Its key 0 is not prime, so no
scene, place or :func:`log_unit` call can make it.  A polynomial with eps
and coefficients of both signs takes the sign of its lowest eps-degree
coefficient, decided by the ladder above.  So a computation at D + eps*E
takes every branch it takes at D + t*E for all small t > 0, and returns the
exact piece beside 0 (:func:`eps_coefficients`).  eps has no interval.

A rational value has one type, ``fractions.Fraction``: every arithmetic
result, and every coefficient from :func:`eps_coefficients`, is a Fraction
exactly when it is rational (log terms that cancel, ``x * 0``, ``x ** 0``
included), and an ExactNumber otherwise.  ``exact(q)`` is the only way to
hold a rational as an ExactNumber.  Fractions mix freely with ExactNumbers
in arithmetic and comparisons, and the ``scalar_*`` helpers at the bottom
give call sites one vocabulary for "Fraction or ExactNumber".
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from math import copysign, gcd, inf, isqrt, lcm
from typing import Iterator, Mapping, Union

from mpmath import iv
from mpmath.libmp import round_nearest, to_float, to_rational

from .errors import PrecisionExhausted

Mono = tuple  # tuple[int, ...], sorted primes with multiplicity
Poly = dict  # dict[Mono, Fraction]

_ONE_POLY = {(): Fraction(1)}

_EPS = 0  # the monomial key of eps
_PRECISION_BITS = 64
_SIGN_BITS = 128  # the first rung of the sign ladder
_PRECISION_CAP = 1 << 13


def default_precision_bits() -> int:
    """The working precision of ``interval()``, 64 bits.
    ``sections`` starts its enclosures there and widens them until its
    result is decided."""
    return _PRECISION_BITS


@contextmanager
def _iv_precision(bits: int) -> Iterator[None]:
    old = iv.prec
    iv.prec = bits
    try:
        yield
    finally:
        iv.prec = old


_LOG_CACHE: dict = {}  # (prime, bits) -> interval enclosure of log(prime)


def _log_interval(prime: int, bits: int):
    key = (prime, bits)
    if key not in _LOG_CACHE:
        with _iv_precision(bits):
            _LOG_CACHE[key] = iv.log(prime)
    return _LOG_CACHE[key]


_MONO_BOUNDS: dict = {}  # (mono, bits) -> (lo, hi, k) dyadic enclosure


def _mono_bounds(mono: Mono, bits: int) -> tuple:
    """A cached dyadic enclosure lo / 2^k <= value <= hi / 2^k of the
    monomial, lo, hi and k integers, from the ``bits``-bit enclosures of its
    logarithms.

    Comparisons between roof breakpoints land here constantly; integer
    bounds over one power of two let every rung of the sign ladder sum
    integers."""
    key = (mono, bits)
    b = _MONO_BOUNDS.get(key)
    if b is None:
        lo = hi = Fraction(1)
        for p in mono:
            plo, phi = _log_interval(p, bits)._mpi_
            # every log p is positive
            lo *= Fraction(*to_rational(plo))
            hi *= Fraction(*to_rational(phi))
        # both denominators are powers of two
        k = max(lo.denominator, hi.denominator).bit_length() - 1
        _MONO_BOUNDS[key] = b = (lo.numerator * ((1 << k) // lo.denominator),
                                 hi.numerator * ((1 << k) // hi.denominator), k)
    return b


def _poly_interval(poly: Poly, bits: int):
    with _iv_precision(bits):
        acc = iv.mpf(0)
        for mono, coeff in poly.items():
            term = iv.mpf(coeff.numerator) / coeff.denominator
            for p in mono:
                term = term * _log_interval(p, bits)
            acc = acc + term
        return acc


def _has_eps(poly: Poly) -> bool:
    return any(mono and mono[0] == _EPS for mono in poly)


def _poly_sign(poly: Poly) -> int:
    """The sign of a polynomial, by the ladder: uniform coefficient signs,
    then the lowest eps layer, then rational enclosures at ``_SIGN_BITS``
    bits, doubled up to ``_PRECISION_CAP``, past which PrecisionExhausted
    is raised."""
    if not poly:
        return 0
    if len(poly) == 1 and () in poly:
        c = poly[()]
        return (c > 0) - (c < 0)
    # every monomial is a product of log p > 0, so uniform coefficient signs
    # settle the sign without an enclosure
    signs = {c.numerator > 0 for c in poly.values()}
    if len(signs) == 1:
        return 1 if True in signs else -1
    if _has_eps(poly):
        low = min(m.count(_EPS) for m in poly)
        return _poly_sign({m[low:]: c for m, c in poly.items()
                           if m.count(_EPS) == low})
    # each rung sums integers: the coefficients over their common
    # denominator, times the bounds over the rung's largest power of two
    common = lcm(*(c.denominator for c in poly.values()))
    terms = [(mono, c.numerator * (common // c.denominator))
             for mono, c in poly.items()]
    bits = _SIGN_BITS
    while bits <= _PRECISION_CAP:
        bounds = [_mono_bounds(mono, bits) for mono, _ in terms]
        top = max(k for _, _, k in bounds)
        lo = hi = 0
        for (_, n), (mlo, mhi, k) in zip(terms, bounds):
            if n > 0:
                lo += (n * mlo) << (top - k)
                hi += (n * mhi) << (top - k)
            else:
                lo += (n * mhi) << (top - k)
                hi += (n * mlo) << (top - k)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        bits *= 2
    raise PrecisionExhausted(
        f"could not separate sign of {_poly_str(poly)} below {_PRECISION_CAP} bits"
    )


def _padd(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for mono, coeff in b.items():
        c = out.get(mono, 0) + coeff
        if c:
            out[mono] = c
        else:
            out.pop(mono, None)
    return out


def _pneg(a: Poly) -> Poly:
    return {mono: -coeff for mono, coeff in a.items()}


def _pmul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(sorted(ma + mb))
            c = out.get(mono, 0) + ca * cb
            if c:
                out[mono] = c
            else:
                out.pop(mono, None)
    return out


def _pscale(a: Poly, q: Fraction) -> Poly:
    if not q:
        return {}
    return {mono: coeff * q for mono, coeff in a.items()}


def _pcontent(a: Poly) -> Fraction:
    """gcd of the coefficients, as a positive rational; 1 for the empty poly."""
    num = 0
    den = 1
    for coeff in a.values():
        num = gcd(num, abs(coeff.numerator))
        den = den * coeff.denominator // gcd(den, coeff.denominator)
    if num == 0:
        return Fraction(1)
    return Fraction(num, den)


def _pdegree(a: Poly) -> int:
    return max((len(m) for m in a), default=0)


# -- polynomial gcd over Z ------------------------------------------------
#
# _cancel works on integer polynomials in dense exponent form: a dict from
# exponent tuples (one entry per log variable) to nonzero ints.  An affine
# side is divided out by _zdivide; the general case goes to the heuristic
# gcd of Char, Geddes and Gonnet (1989).

_HEU_GCD_TRIES = 6


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


def _zeval(f: dict, xi: int) -> dict:
    """f with its first variable set to xi."""
    powers = [1]
    out: dict = {}
    for exps, c in f.items():
        e = exps[0]
        while len(powers) <= e:
            powers.append(powers[-1] * xi)
        rest = exps[1:]
        out[rest] = out.get(rest, 0) + c * powers[e]
    return {e: c for e, c in out.items() if c}


def _zinterpolate(h: dict, xi: int) -> dict:
    """The polynomial whose coefficients of x^i are the symmetric base-xi
    digits of weight xi^i of h's coefficients, x a new first variable."""
    out: dict = {}
    half = xi // 2
    i = 0
    while h:
        higher = {}
        for exps, c in h.items():
            d = c % xi
            if d > half:
                d -= xi
            if d:
                out[(i,) + exps] = d
            c = (c - d) // xi
            if c:
                higher[exps] = c
        h = higher
        i += 1
    return out


def _zdivide(f: dict, g: dict):
    """The exact quotient f / g in Z[x, ...], or None when g does not
    divide f.  Long division by lex-leading terms; every quotient exponent
    is capped by the degrees of f minus those of g, so it ends either way."""
    lead_g = max(g)
    c_g = g[lead_g]
    tail_g = [(e, c) for e, c in g.items() if e != lead_g]
    caps = [max(fcol) - max(gcol) for fcol, gcol in zip(zip(*f), zip(*g))]
    rem = dict(f)
    quo: dict = {}
    while rem:
        lead = max(rem)
        e = tuple(a - b for a, b in zip(lead, lead_g))
        if any(k < 0 or k > cap for k, cap in zip(e, caps)):
            return None
        c, r = divmod(rem.pop(lead), c_g)
        if r:
            return None
        quo[e] = c
        for eg, cg in tail_g:
            m = tuple(a + b for a, b in zip(e, eg))
            v = rem.get(m, 0) - c * cg
            if v:
                rem[m] = v
            else:
                del rem[m]
    return quo


def _heu_gcd(f: dict, g: dict):
    """(h, f/h, g/h) for h the gcd of two nonzero integer polynomials, or
    None when the heuristic gives up.

    Evaluate the first variable at an integer xi, take the gcd of the images
    recursively (math.gcd once no variable is left), rebuild a candidate
    from its symmetric xi-adic digits and accept its primitive part only if
    it divides both f and g exactly.  With xi above twice the smaller
    max-norm plus 2, an accepted candidate is the gcd (Char, Geddes and
    Gonnet, 1989); a rejected one, or a zero image, means xi was unlucky,
    and a larger xi is tried, a fixed number of times."""
    cf, cg = _zcontent(f), _zcontent(g)
    c = gcd(cf, cg)
    if not next(iter(f)):  # no variable left: f and g are integers
        return {(): c}, {(): f[()] // c}, {(): g[()] // c}
    f = {e: v // cf for e, v in f.items()}
    g = {e: v // cg for e, v in g.items()}
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 29
    for _ in range(_HEU_GCD_TRIES):
        fx, gx = _zeval(f, xi), _zeval(g, xi)
        # xi is sized by the smaller norm, so it can be a root of the other
        # polynomial; a zero image is an unlucky xi like a rejected candidate
        if fx and gx:
            image = _heu_gcd(fx, gx)
            if image is None:
                return None
            _, h = _primitive(_zinterpolate(image[0], xi))
            qf = _zdivide(f, h)
            if qf is not None:
                qg = _zdivide(g, h)
                if qg is not None:
                    return ({e: v * c for e, v in h.items()},
                            {e: v * (cf // c) for e, v in qf.items()},
                            {e: v * (cg // c) for e, v in qg.items()})
        xi = xi * 73794 * isqrt(isqrt(xi)) // 27011
    return None


def _to_zpoly(poly: Poly, index: dict) -> tuple:
    """(f, s) with f = s * poly in dense exponent form, s the lcm of the
    coefficient denominators."""
    s = 1
    for c in poly.values():
        s = s * c.denominator // gcd(s, c.denominator)
    out = {}
    for mono, c in poly.items():
        exps = [0] * len(index)
        for p in mono:
            exps[index[p]] += 1
        out[tuple(exps)] = c.numerator * (s // c.denominator)
    return out, s


def _from_zpoly(f: dict, primes: list, scale) -> Poly:
    """scale * f back in sparse form; scale is an int or a Fraction."""
    return {tuple(p for p, e in zip(primes, exps) for _ in range(e)):
            Fraction(c * scale) for exps, c in f.items()}


def _cancel(num: Poly, den: Poly) -> tuple:
    """Remove the polynomial gcd of num and den, the log monomials acting as
    independent variables.  Without this, iterated arithmetic on quotients
    (cut points of roofs are ratios of log combinations) compounds the
    denominators and the term count explodes.

    Both sides go to integer form once.  Disjoint variables share no
    factor.  An affine side is irreducible: its primitive part either
    divides the other side or shares nothing with it.  Everything else goes
    to the heuristic gcd over Z.  When the heuristic gives up, num and den
    come back uncancelled: equality and signs are decided by
    cross-multiplication, so the canonical form only controls size, never a
    result.  A rational value cannot be left uncancelled: when den divides
    num, the image gcd is den's own image and the first xi rebuilds den."""
    num_vars = {p for mono in num for p in mono}
    den_vars = {p for mono in den for p in mono}
    if not (num_vars & den_vars):
        return num, den
    primes = sorted(num_vars | den_vars)
    index = {p: i for i, p in enumerate(primes)}
    # num / den = (a / sa) / (b / sb)
    a, sa = _to_zpoly(num, index)
    b, sb = _to_zpoly(den, index)
    if _pdegree(den) == 1:
        cb, pb = _primitive(b)
        q = _zdivide(a, pb)
        if q is None:
            return num, den
        return _from_zpoly(q, primes, Fraction(sb, sa * cb)), _ONE_POLY
    if _pdegree(num) == 1:
        ca, pa = _primitive(a)
        q = _zdivide(b, pa)
        if q is None:
            return num, den
        return {(): Fraction(ca * sb, sa)}, _from_zpoly(q, primes, 1)
    found = _heu_gcd(a, b)
    if found is None:
        return num, den
    h, qa, qb = found
    if len(h) == 1 and not any(next(iter(h))):  # the gcd is a constant
        return num, den
    return _from_zpoly(qa, primes, sb), _from_zpoly(qb, primes, sa)


def _mono_str(mono: Mono) -> str:
    parts = []
    seen: dict = {}
    for p in mono:
        seen[p] = seen.get(p, 0) + 1
    for p in sorted(seen):
        e = seen[p]
        name = "eps" if p == _EPS else f"log({p})"
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def _poly_str(poly: Poly) -> str:
    if not poly:
        return "0"
    terms = []
    for mono in sorted(poly, key=lambda m: (len(m), m)):
        coeff = poly[mono]
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


def _value(num: Poly, den: Poly):
    """The normalized quotient num / den as a value: the Fraction when den
    is 1 and num is constant (0 included), else an ExactNumber."""
    if den is _ONE_POLY and (not num or len(num) == 1 and () in num):
        return num.get((), Fraction(0))
    obj = object.__new__(ExactNumber)
    obj._num = num
    obj._den = den
    return obj


class ExactNumber:
    """An element of Q(log 2, log 3, ...)(eps), stored as a polynomial
    quotient."""

    __slots__ = ("_num", "_den")

    def __init__(self, value: ScalarLike = 0):
        if isinstance(value, ExactNumber):
            self._num = value._num
            self._den = value._den
        elif isinstance(value, (int, Fraction)):
            q = Fraction(value)
            self._num = {(): q} if q else {}
            self._den = _ONE_POLY
        else:
            raise TypeError(f"cannot build ExactNumber from {type(value).__name__}")

    @staticmethod
    def _make(num: Poly, den: Poly):
        """num / den cancelled and normalized, through ``_value``."""
        num = {m: c for m, c in num.items() if c}
        den = {m: c for m, c in den.items() if c}
        if not den:
            raise ZeroDivisionError("ExactNumber with zero denominator")
        if not num:
            return Fraction(0)
        if len(den) > 1 or () not in den:
            num, den = _cancel(num, den)
        if len(den) == 1 and () in den:
            q = den[()]
            if q != 1:
                num = {m: c / q for m, c in num.items()}
            return _value(num, _ONE_POLY)
        if _poly_sign(den) < 0:
            num, den = _pneg(num), _pneg(den)
        content = _pcontent(den)
        if content != 1:
            num = _pscale(num, 1 / content)
            den = _pscale(den, 1 / content)
        return _value(num, den)

    @classmethod
    def log_unit(cls, prime: int) -> "ExactNumber":
        """The symbolic value log(prime)."""
        if not _proven_prime(prime):
            raise ValueError(f"{prime} is not prime")
        return cls._make({(prime,): Fraction(1)}, _ONE_POLY)

    # -- structure ---------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self._den == _ONE_POLY and set(self._num) <= {()}

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self!r} is not rational")
        return self._num.get((), Fraction(0))

    def sign(self) -> int:
        return _poly_sign(self._num)  # denominator is normalized positive

    def interval(self, bits: int | None = None):
        """A rigorous mpmath interval enclosure at the given precision;
        ValueError for a value that contains eps."""
        if _has_eps(self._num) or _has_eps(self._den):
            raise ValueError(f"{self!r} contains eps; it has no interval")
        bits = bits or default_precision_bits()
        num = _poly_interval(self._num, bits)
        if self._den == _ONE_POLY:
            return num
        with _iv_precision(bits):
            return num / _poly_interval(self._den, bits)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "ExactNumber | None":
        if isinstance(other, ExactNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return ExactNumber(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._den
        if d is o._den or d == o._den:
            if d is _ONE_POLY or d == _ONE_POLY:
                # polynomial + polynomial stays normalized: skip _make
                return _value(_padd(self._num, o._num), _ONE_POLY)
            return self._make(_padd(self._num, o._num), d)
        return self._make(
            _padd(_pmul(self._num, o._den), _pmul(o._num, self._den)),
            _pmul(self._den, o._den),
        )

    __radd__ = __add__

    def __neg__(self):
        return _value(_pneg(self._num), self._den)

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, ExactNumber)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return -self + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_rational:
            q = o._num.get(())
            if q is None:
                return Fraction(0)
            # scaling by a nonzero rational preserves every normalization
            # invariant
            return _value(_pscale(self._num, q), self._den)
        return self._make(_pmul(self._num, o._num), _pmul(self._den, o._den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_rational:
            q = o._num.get(())
            if q is None:
                raise ZeroDivisionError("ExactNumber division by zero")
            return _value(_pscale(self._num, 1 / q), self._den)
        return self._make(_pmul(self._num, o._den), _pmul(self._den, o._num))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return 1 / (self ** (-exponent))
        out = Fraction(1)
        for _ in range(exponent):
            out = self * out
        return out

    def __abs__(self):
        return -self if self.sign() < 0 else _value(self._num, self._den)

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self._den == o._den:
            diff = _padd(self._num, _pneg(o._num))
        else:
            diff = _padd(_pmul(self._num, o._den), _pneg(_pmul(o._num, self._den)))
        if not diff:
            return True
        return _poly_sign(diff) == 0  # separates (False) or raises

    def _cmp_sign(self, other) -> int:
        # denominators are normalized positive, so the sign survives
        # cross-multiplication; this skips quotient normalization entirely
        if self._den == other._den:
            return _poly_sign(_padd(self._num, _pneg(other._num)))
        return _poly_sign(_padd(
            _pmul(self._num, other._den), _pneg(_pmul(other._num, self._den))
        ))

    def __lt__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._cmp_sign(o) < 0

    def __le__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._cmp_sign(o) <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._cmp_sign(o) > 0

    def __ge__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._cmp_sign(o) >= 0

    __hash__ = None  # mutable-free but deliberately unhashable

    def __bool__(self):
        return bool(self._num)

    def __float__(self):
        """The nearest float, ties to even.  The enclosure is refined on the
        rungs of the sign ladder until both of its ends round to one float,
        which is then the rounding of the value; an irrational value is
        never a tie, so this ends, and past ``_PRECISION_CAP`` bits
        PrecisionExhausted is raised, as for a sign."""
        bits = _SIGN_BITS
        while bits <= _PRECISION_CAP:
            lo, hi = self.interval(bits)._mpi_
            lo = to_float(lo, rnd=round_nearest)
            if lo == to_float(hi, rnd=round_nearest):
                return lo
            bits *= 2
        raise PrecisionExhausted(
            f"could not round {self!r} to a float below {_PRECISION_CAP} bits"
        )

    def __repr__(self):
        num = _poly_str(self._num)
        if self._den == _ONE_POLY:
            return num
        return f"({num})/({_poly_str(self._den)})"


# -- helpers over "Fraction or ExactNumber" -------------------------------

Scalar = Union[Fraction, ExactNumber]


def exact(value: ScalarLike) -> ExactNumber:
    return ExactNumber(value)


def log_unit(prime: int) -> ExactNumber:
    return ExactNumber.log_unit(prime)


EPS = ExactNumber._make({(_EPS,): Fraction(1)}, _ONE_POLY)


def _eps_layers(poly: Poly) -> list:
    """The coefficients of poly in eps, lowest degree first, free of eps."""
    layers: dict = {}
    for mono, c in poly.items():
        k = mono.count(_EPS)
        layers.setdefault(k, {})[mono[k:]] = c
    return [_value(layers.get(k, {}), _ONE_POLY)
            for k in range(max(layers, default=0) + 1)]


def eps_coefficients(x: ScalarLike, count: int) -> list:
    """[c_0, ..., c_{count-1}], free of eps, with x = sum c_k eps^k.

    ValueError unless x is a polynomial in eps of degree below count.  The
    quotient x need not be cancelled: its numerator is divided by its
    denominator as polynomials in eps, and a nonzero remainder raises.  A
    rational coefficient is a Fraction, as every arithmetic result is."""
    x = ExactNumber(x)
    rem, den = _eps_layers(x._num), _eps_layers(x._den)
    m = len(den) - 1
    quo = [Fraction(0)] * max(count, len(rem) - m)
    for i in range(len(rem) - 1 - m, -1, -1):
        quo[i] = q = rem[i + m] / den[m]
        for j, d in enumerate(den):
            rem[i + j] = rem[i + j] - q * d
    if len(quo) > count or any(rem):
        raise ValueError(f"{x!r} is not a polynomial in eps of degree below {count}")
    return quo


def scalar_sign(x: Scalar) -> int:
    if isinstance(x, ExactNumber):
        return x.sign()
    return (x > 0) - (x < 0)


def scalar_float(x) -> float:
    """The nearest float; values beyond the float range give +-inf, as
    ``float`` does for an ExactNumber (a Fraction would raise)."""
    try:
        return float(x)
    except OverflowError:
        return copysign(inf, scalar_sign(x))


def scalar_fraction(x: Scalar) -> Fraction:
    """The value as a Fraction; raises ValueError for genuinely irrational input."""
    if isinstance(x, ExactNumber):
        return x.as_fraction()
    return Fraction(x)


def floor_fraction(q: Fraction) -> int:
    return q.numerator // q.denominator

