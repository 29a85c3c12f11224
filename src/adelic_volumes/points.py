"""Base conditions on the projective line over Q.

A base condition prescribes vanishing orders for sections.  In the toric
model it acts only through its orders at the two torus-fixed points, Zero
and Infinity, so it is stored as those two rationals.  It is built from a
mapping keyed by "0" or by "inf" (or "infinity", "oo"); the orders of one
point's aliases add up.  Any other key raises InvalidPoint: a base condition
at a non-toric closed point is outside the toric model.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .errors import InvalidPoint

_LABELS = {"0": "0", "inf": "inf", "infinity": "inf", "oo": "inf"}

# echoed labels are cut to this many characters of their repr
_SHOWN_CHARS = 40


def _label(key) -> str:
    """The canonical label, "0" or "inf", of a base-condition key."""
    if not isinstance(key, str):
        raise InvalidPoint(f"a base-condition key is a label such as '0' or "
                           f"'inf', got {type(key).__name__}")
    label = _LABELS.get(key.strip())
    if label is None:
        shown = repr(key[:_SHOWN_CHARS + 1])
        if len(shown) > _SHOWN_CHARS:
            shown = shown[:_SHOWN_CHARS] + "..."
        raise InvalidPoint(f"base-condition key {shown} is neither 0 nor inf: "
                           "non-toric base conditions are outside the toric model")
    return label


class BaseCondition:
    """Prescribed vanishing orders v0 at Zero and vinf at Infinity, rational
    and possibly negative (ineffective)."""

    __slots__ = ("v0", "vinf")

    def __init__(self, entries: Mapping | None = None):
        orders = {"0": Fraction(0), "inf": Fraction(0)}
        for key, value in (entries or {}).items():
            orders[_label(key)] += Fraction(value)
        self.v0, self.vinf = orders["0"], orders["inf"]

    @property
    def is_zero(self) -> bool:
        return not (self.v0 or self.vinf)

    def __add__(self, other):
        if not isinstance(other, BaseCondition):
            return NotImplemented
        return BaseCondition({"0": self.v0 + other.v0,
                              "inf": self.vinf + other.vinf})

    def __sub__(self, other):
        if not isinstance(other, BaseCondition):
            return NotImplemented
        return self + other.scale(-1)

    def scale(self, a) -> "BaseCondition":
        a = Fraction(a)
        return BaseCondition({"0": a * self.v0, "inf": a * self.vinf})

    def __neg__(self):
        return self.scale(-1)

    def __eq__(self, other):
        if not isinstance(other, BaseCondition):
            return NotImplemented
        return (self.v0, self.vinf) == (other.v0, other.vinf)

    __hash__ = None

    def __repr__(self):
        if self.is_zero:
            return "BaseCondition(0)"
        body = " + ".join(f"{v}[{label}]" for label, v in
                          (("0", self.v0), ("inf", self.vinf)) if v)
        return f"BaseCondition({body})"
