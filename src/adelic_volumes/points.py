"""Closed points of the rational projective line, and base conditions.

A closed point is the zero of the coordinate, the point at infinity, or the
vanishing locus of a monic irreducible polynomial in the coordinate (read by a
small grammar that evaluates nothing, and validated by exact factorization
over Q, with a configurable degree cap; from degree 2 that test needs the
optional sympy).  A base condition is a finitely supported map from closed
points to rationals: the prescribed vanishing orders for sections.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping

from .errors import InvalidPoint

MAX_POINT_DEGREE = 8

# a number (integer or a/b), the variable t, or an operator
_TOKEN = re.compile(r"\s*(?:(\d+/\d+|\d+)|(t)|(\*\*|[-+*^]))")


def _tokens(spec: str) -> list:
    out = []
    pos = 0
    spec = spec.rstrip()
    while pos < len(spec):
        m = _TOKEN.match(spec, pos)
        if m is None:
            raise InvalidPoint(f"cannot parse polynomial {spec!r}")
        out.append(m.group(m.lastindex))
        pos = m.end()
    return out


def _parse_poly(spec: str, max_degree: int) -> list:
    """Ascending rational coefficients of a polynomial in t.

    The grammar is a signed sum of terms, each a product of rational
    literals (integers or a/b) and powers t, t^k or t**k with an integer k.
    Nothing is evaluated, so a scene file cannot run code through a label.
    """
    tokens = _tokens(spec)
    if not tokens:
        raise InvalidPoint(f"cannot parse polynomial {spec!r}")
    coeffs = [Fraction(0)] * (max_degree + 1)
    i = 0

    def take():
        nonlocal i
        if i >= len(tokens):
            raise InvalidPoint(f"{spec!r} ends early")
        i += 1
        return tokens[i - 1]

    while i < len(tokens):
        coeff, power = Fraction(1), 0
        if tokens[i] in ("+", "-"):
            coeff = Fraction(1 if take() == "+" else -1)
        elif i > 0:
            raise InvalidPoint(f"expected + or - in {spec!r}, got {tokens[i]!r}")
        while True:
            tok = take()
            if tok == "t":
                k = 1
                if i < len(tokens) and tokens[i] in ("^", "**"):
                    take()
                    exponent = take()
                    if not exponent.isdigit() or len(exponent) > 4:
                        raise InvalidPoint(f"exponent {exponent!r} in {spec!r} "
                                           "is not a small integer")
                    k = int(exponent)
                power += k
            elif tok[0].isdigit():
                try:
                    coeff *= Fraction(tok)
                except (ValueError, ZeroDivisionError) as err:
                    raise InvalidPoint(f"bad number {tok!r} in {spec!r}") from err
            else:
                raise InvalidPoint(f"unexpected {tok!r} in {spec!r}")
            if power > max_degree:
                raise InvalidPoint(
                    f"degree {power} exceeds the configured cap {max_degree}")
            if i < len(tokens) and tokens[i] == "*":
                take()
            else:
                break
        coeffs[power] += coeff
    return coeffs


def _coeffs_from_spec(spec, max_degree: int) -> tuple:
    """Monic ascending coefficient tuple from a polynomial description: a
    string in t, or a sequence of ascending coefficients."""
    if isinstance(spec, str):
        coeffs = _parse_poly(spec, max_degree)
    elif isinstance(spec, (list, tuple)):
        try:
            coeffs = [Fraction(c) for c in spec]
        except (TypeError, ValueError, ZeroDivisionError) as err:
            raise InvalidPoint(f"bad coefficients {spec!r}") from err
    else:
        raise InvalidPoint(f"cannot interpret {spec!r} as a polynomial in t")
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    degree = len(coeffs) - 1
    if degree < 1:
        raise InvalidPoint(f"constant polynomial {spec!r} defines no closed point")
    if degree > max_degree:
        raise InvalidPoint(
            f"degree {degree} exceeds the configured cap {max_degree}"
        )
    if coeffs[-1] != 1:
        raise InvalidPoint(f"{spec!r} is not monic")
    if degree >= 2:
        try:
            import sympy  # only the irreducibility test needs it
        except ImportError as err:
            raise InvalidPoint(
                f"{spec!r} has degree {degree}: its irreducibility test needs "
                "sympy (pip install 'adelic-volumes[points]')") from err

        poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                           for c in reversed(coeffs)], sympy.Symbol("t"),
                          domain="QQ")
        if not poly.is_irreducible:
            raise InvalidPoint(f"{spec!r} is reducible over Q")
    return tuple(coeffs)


def _poly_label(coeffs: tuple) -> str:
    terms = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if c == 0:
            continue
        if power == 0:
            terms.append((str(abs(c)), c < 0))
        else:
            tpow = "t" if power == 1 else f"t^{power}"
            mag = tpow if abs(c) == 1 else f"{abs(c)}*{tpow}"
            terms.append((mag, c < 0))
    out = ""
    for i, (mag, negative) in enumerate(terms):
        if i == 0:
            out = ("-" if negative else "") + mag
        else:
            out += ("-" if negative else "+") + mag
    return out


class ClosedPoint:
    """A closed point: Zero, Infinity, or the locus of a monic irreducible."""

    __slots__ = ("kind", "coeffs")

    _ZERO = None
    _INFINITY = None

    def __init__(self, kind: str, coeffs: tuple | None = None):
        if kind not in ("zero", "infinity", "finite"):
            raise InvalidPoint(f"unknown point kind {kind!r}")
        if kind == "finite" and not coeffs:
            raise InvalidPoint("finite points need polynomial coefficients")
        self.kind = kind
        self.coeffs = coeffs

    @classmethod
    def zero(cls) -> "ClosedPoint":
        if cls._ZERO is None:
            cls._ZERO = cls("zero")
        return cls._ZERO

    @classmethod
    def infinity(cls) -> "ClosedPoint":
        if cls._INFINITY is None:
            cls._INFINITY = cls("infinity")
        return cls._INFINITY

    @classmethod
    def finite(cls, spec, max_degree: int | None = None) -> "ClosedPoint":
        coeffs = _coeffs_from_spec(spec, max_degree or MAX_POINT_DEGREE)
        if coeffs == (Fraction(0), Fraction(1)):
            raise InvalidPoint("the factor t is the point Zero; use ClosedPoint.zero()")
        return cls("finite", coeffs)

    @classmethod
    def parse(cls, label: str) -> "ClosedPoint":
        label = label.strip()
        if label == "0":
            return cls.zero()
        if label in ("inf", "infinity", "oo"):
            return cls.infinity()
        return cls.finite(label)

    @property
    def degree(self) -> int:
        """Residue degree over Q (1 for the two rational toric points)."""
        if self.kind == "finite":
            return len(self.coeffs) - 1
        return 1

    @property
    def is_toric(self) -> bool:
        return self.kind in ("zero", "infinity")

    def label(self) -> str:
        if self.kind == "zero":
            return "0"
        if self.kind == "infinity":
            return "inf"
        return _poly_label(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, ClosedPoint):
            return NotImplemented
        return self.kind == other.kind and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.kind, self.coeffs))

    def __repr__(self):
        return f"ClosedPoint({self.label()!r})"


def _point_of(key) -> ClosedPoint:
    if isinstance(key, ClosedPoint):
        return key
    if isinstance(key, str):
        return ClosedPoint.parse(key)
    raise InvalidPoint(f"cannot interpret {key!r} as a closed point")


def _normalize(entries: Mapping) -> dict:
    out: dict = {}
    for key, value in entries.items():
        point = _point_of(key)
        q = Fraction(value)
        if q:
            out[point] = out.get(point, Fraction(0)) + q
            if not out[point]:
                del out[point]
    return out


class BaseCondition:
    """Prescribed vanishing orders for sections, a finitely supported map
    from closed points to rationals; may be ineffective."""

    __slots__ = ("entries",)

    def __init__(self, entries: Mapping | None = None):
        self.entries = _normalize(entries or {})

    def order(self, point) -> Fraction:
        return self.entries.get(_point_of(point), Fraction(0))

    @property
    def support(self) -> tuple:
        return tuple(sorted(self.entries, key=lambda p: p.label()))

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def nontoric_positive_support(self) -> tuple:
        return tuple(
            p for p in self.support if not p.is_toric and self.entries[p] > 0
        )

    def _combine(self, other, sign: int):
        out = dict(self.entries)
        for point, value in other.entries.items():
            c = out.get(point, Fraction(0)) + sign * value
            if c:
                out[point] = c
            else:
                out.pop(point, None)
        return BaseCondition(out)

    def __add__(self, other):
        if not isinstance(other, BaseCondition):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other):
        if not isinstance(other, BaseCondition):
            return NotImplemented
        return self._combine(other, -1)

    def scale(self, a) -> "BaseCondition":
        a = Fraction(a)
        return BaseCondition({p: a * v for p, v in self.entries.items()})

    def __neg__(self):
        return self.scale(-1)

    def __eq__(self, other):
        if not isinstance(other, BaseCondition):
            return NotImplemented
        return self.entries == other.entries

    __hash__ = None

    def __repr__(self):
        if not self.entries:
            return "BaseCondition(0)"
        body = " + ".join(f"{v}[{p.label()}]" for p, v in sorted(
            self.entries.items(), key=lambda kv: kv[0].label()))
        return f"BaseCondition({body})"
