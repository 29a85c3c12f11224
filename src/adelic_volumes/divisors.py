"""Toric adelic divisors on the projective line over Q, and pairs with a
base condition.

A divisor here is the data (c0, cInf) of coefficients at the two torus-fixed
points together with one invariant potential per place: a real function of
u = -log|t|_v recording half the Green function.  Only finitely many places
carry a non-canonical potential; the canonical potential of (c0, cInf) is
c0*u for u >= 0 and -cInf*u for u <= 0.  Finite-place potentials are stored
in log p units, so all stored data is rational; the symbolic log p factor is
attached only when the places are combined into the global roof.

The global roof of a pair is the place-by-place Legendre transform of the
(convexified) potentials, summed over places with the log p weights on the
divisor's polytope and restricted to the polytope cut down by the base
condition.  It is the integrand of every volume-type quantity downstream.
On rational data ``positivity`` reads the volume and the Zariski part off
an integer pass over the potentials and builds no roof; ``global_roof``
builds it for ``is_pseff``, the Okounkov data and pairs with symbolic
tails.  The sum is built once per pair, which keeps it.

A base condition prescribes vanishing orders for sections.  In the toric
model it acts only through its orders at the two torus-fixed points, Zero
and Infinity, so it is stored as those two rationals.  It is built from a
mapping keyed by "0" or by "inf" (or "infinity", "oo"); the orders of one
point's aliases add up.  Any other key raises InvalidPoint: a base condition
at a non-toric closed point is outside the toric model.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from typing import Mapping, Sequence, Union

from .errors import (
    EmptyPolytope,
    InvalidPoint,
    NotEffectiveInput,
    UnboundedPerturbation,
)
from .exactnum import (_ZERO, ARCH, ExactNumber, _place_sum, _proven_prime, _q, _qadd, _qmul,
                       _qsub, _sum_sign, scalar_cmp, scalar_sign)
from .pa import (
    ConcavePA,
    ConvexPA,
    Interval,
    PAGeneral,
    _eval_on_grid,
    _grid,
    _min_scalar,
    pa_from_payload,
    pointwise_min,
    unit_roof,
)

Place = Union[str, int]


def as_place(v) -> Place:
    """Normalize a place description: 'inf' or a prime integer."""
    if v in (ARCH, "oo", "infinity", "archimedean"):
        return ARCH
    if isinstance(v, str) and v.isdigit():
        v = int(v)
    if isinstance(v, int) and _proven_prime(v):
        return v
    raise ValueError(f"{v!r} is not a place of Q (expected 'inf' or a prime)")


def place_label(v: Place) -> str:
    return ARCH if v == ARCH else str(v)


def _place_sort_key(v: Place):
    return (0, 0) if v == ARCH else (1, v)


def _coeff(x):
    """Divisor coefficients are rationals, except that operations such as the
    Zariski positive part may cut the polytope at a symbolic-log point; exact
    scalars are passed through unchanged."""
    if type(x) is Fraction:
        return x
    if type(x) is int:
        return _q(x, 1)
    if isinstance(x, ExactNumber):
        return x.as_fraction() if x.is_rational else x
    return Fraction(x)


def canonical_potential(c0, cinf):
    """The invariant potential carried by every unlisted place."""
    # one breakpoint at 0 with slopes -cinf, c0: canonical, and convex
    # exactly when -cinf <= c0
    pts = [(_ZERO, _ZERO)]
    ls = _qsub(_ZERO, cinf)
    if _sum_sign(c0, cinf) >= 0:
        return ConvexPA._raw(pts, ls, c0)
    return PAGeneral._raw(pts, ls, c0)


def _coerce_potential(place, pot, c0: Fraction, cinf: Fraction):
    if type(pot) is not ConvexPA and type(pot) is not PAGeneral \
            and isinstance(pot, Mapping):
        pot = pa_from_payload(pot)
    if not isinstance(pot, (ConvexPA, PAGeneral)):
        raise TypeError(
            f"potential at {place_label(place)} must be piecewise affine on R"
        )
    if _sum_sign(pot.left_slope, cinf) or scalar_cmp(pot.right_slope, c0):
        raise ValueError(
            f"potential at {place_label(place)} has asymptotic slopes "
            f"({pot.left_slope}, {pot.right_slope}); the divisor requires "
            f"({-cinf}, {c0})"
        )
    if isinstance(pot, PAGeneral) and pot.is_convex():
        # canonical PAGeneral data that passes is_convex is ConvexPA data
        pot = ConvexPA._raw(pot.points, pot.left_slope, pot.right_slope)
    return pot


def _roof_sum(arch_roof: ConcavePA, finite: Sequence) -> ConcavePA:
    """The global roof from the archimedean unit roof and the pairs
    (p, unit roof) of the finite places, all on one polytope: the sum of
    the archimedean values and the values at p weighted by log p on the
    union of their breakpoints.  Each interior grid point is a strict kink
    of a summand and the weights are positive, so the sum is canonical as
    built.

    Each roof is read on the grid by ``_eval_on_grid`` (the integer scan
    on a rational grid), and each value is a place-weighted sum
    (``exactnum._place_sum``), built once from integer coefficients when
    the values are Fractions."""
    if not finite:
        return arch_roof
    roofs = [arch_roof.points] + [r.points for _, r in finite]
    places = [ARCH] + [p for p, _ in finite]
    xs = _grid(*([x for x, _ in pts] for pts in roofs))
    ys = [_place_sum(list(zip(places, vals)))
          for vals in zip(*(_eval_on_grid(pts, xs) for pts in roofs))]
    return ConcavePA._raw(list(zip(xs, ys)))


class ToricAdelicDivisor:
    """A toric adelic R-divisor: coefficients plus one potential per place."""

    __slots__ = ("c0", "cinf", "_potentials", "_canonical")

    def __init__(self, c0, cinf, potentials: Mapping | None = None):
        self.c0 = _coeff(c0)
        self.cinf = _coeff(cinf)
        stored = {}
        for key, pot in (potentials or {}).items():
            place = as_place(key)
            pot = _coerce_potential(place, pot, self.c0, self.cinf)
            # with the divisor's slopes, pot is canonical exactly when its
            # only breakpoint is (0, 0)
            pts = pot.points
            if len(pts) == 1 and not pts[0][0] and not pts[0][1]:
                continue
            if place in stored:
                raise ValueError(f"duplicate potential for {place_label(place)}")
            stored[place] = pot
        self._potentials = stored
        # one object for every unlisted place, built on first use
        self._canonical = None

    @property
    def degree(self):
        return _qadd(self.c0, self.cinf)

    @property
    def places(self) -> tuple:
        """Places carrying a non-canonical potential, archimedean first."""
        return tuple(sorted(self._potentials, key=_place_sort_key))

    def potential(self, place):
        pot = self._potentials.get(as_place(place))
        if pot is not None:
            return pot
        if self._canonical is None:
            self._canonical = canonical_potential(self.c0, self.cinf)
        return self._canonical

    def polytope(self) -> Interval:
        lo = _qsub(_ZERO, self.cinf)
        if scalar_cmp(lo, self.c0) > 0:
            return Interval.EMPTY
        return Interval(lo, self.c0)

    def add(self, other: "ToricAdelicDivisor") -> "ToricAdelicDivisor":
        c0 = _qadd(self.c0, other.c0)
        cinf = _qadd(self.cinf, other.cinf)
        pots = {}
        for place in set(self._potentials) | set(other._potentials):
            pots[place] = self.potential(place) + other.potential(place)
        return ToricAdelicDivisor(c0, cinf, pots)

    __add__ = add

    def scale(self, a) -> "ToricAdelicDivisor":
        a = _coeff(a)
        if scalar_sign(a) == 0:
            return ToricAdelicDivisor(0, 0)
        pots = {place: pot.scale(a) for place, pot in self._potentials.items()}
        return ToricAdelicDivisor(_qmul(a, self.c0), _qmul(a, self.cinf), pots)

    def __sub__(self, other: "ToricAdelicDivisor") -> "ToricAdelicDivisor":
        return self.add(other.scale(-1))

    @property
    def is_effective(self) -> bool:
        if scalar_sign(self.c0) < 0 or scalar_sign(self.cinf) < 0:
            return False
        for pot in self._potentials.values():
            bound = pot.lower_bound()
            if bound is None or scalar_sign(bound) < 0:
                return False
        return True

    def to_payload(self) -> dict:
        return {
            "c0": str(self.c0),
            "cinf": str(self.cinf),
            "potentials": {
                place_label(v): self._potentials[v].to_payload()
                for v in self.places
            },
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "ToricAdelicDivisor":
        return cls(
            Fraction(payload["c0"]),
            Fraction(payload.get("cinf", 0)),
            payload.get("potentials") or {},
        )

    def __eq__(self, other):
        if not isinstance(other, ToricAdelicDivisor):
            return NotImplemented
        return (
            self.c0 == other.c0
            and self.cinf == other.cinf
            and self._potentials == other._potentials
        )

    __hash__ = None

    def __repr__(self):
        extra = ", ".join(place_label(v) for v in self.places)
        tail = f"; potentials at {extra}" if extra else ""
        return f"ToricAdelicDivisor(c0={self.c0}, cinf={self.cinf}{tail})"


def min_adelic(divisors: Sequence[ToricAdelicDivisor]) -> ToricAdelicDivisor:
    """Componentwise minimum of finitely many effective adelic divisors:
    coefficients take the min, potentials take the pointwise min place by
    place.  Mirrors the valuation identity ord(min D_i, p) = min ord(D_i, p).
    """
    if not divisors:
        raise NotEffectiveInput("minimum of an empty family")
    for d in divisors:
        if not d.is_effective:
            raise NotEffectiveInput(f"{d!r} is not effective")
    c0 = reduce(_min_scalar, (d.c0 for d in divisors))
    cinf = reduce(_min_scalar, (d.cinf for d in divisors))
    places = set()
    for d in divisors:
        places.update(d._potentials)
    pots = {}
    for place in places:
        pots[place] = pointwise_min([d.potential(place) for d in divisors])
    return ToricAdelicDivisor(c0, cinf, pots)


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
        orders = {"0": _ZERO, "inf": _ZERO}
        for key, value in (entries or {}).items():
            label = _label(key)
            orders[label] = _qadd(orders[label], value if type(value) is Fraction
                                  else Fraction(value))
        self.v0, self.vinf = orders["0"], orders["inf"]

    @property
    def is_zero(self) -> bool:
        return not (self.v0 or self.vinf)

    @classmethod
    def _of(cls, v0: Fraction, vinf: Fraction) -> "BaseCondition":
        """The base condition with the Fraction orders v0 and vinf, built
        with no label to read or value to convert."""
        obj = object.__new__(cls)
        obj.v0, obj.vinf = v0, vinf
        return obj

    def __add__(self, other):
        if not isinstance(other, BaseCondition):
            return NotImplemented
        return BaseCondition._of(_qadd(self.v0, other.v0), _qadd(self.vinf, other.vinf))

    def scale(self, a) -> "BaseCondition":
        a = Fraction(a)
        return BaseCondition._of(_qmul(a, self.v0), _qmul(a, self.vinf))

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


class Pair:
    """An adelic divisor together with a base condition on sections.

    A pair is immutable, like its divisor.  It keeps its shifted window, its
    global roof, its volume and the integer pass it was read off (both set
    by ``positivity.avol``; the pass is None where the roof was integrated)
    the first time each is computed, so ``zariski_positive_part`` reads the
    pass again.  They are not part of the value (``==``, ``repr``,
    ``to_payload``).  An error is not kept: it is raised again on every
    call.
    """

    __slots__ = ("divisor", "base", "_window", "_roof", "_avol", "_pass")

    def __init__(self, divisor: ToricAdelicDivisor, base: BaseCondition | None = None):
        if not isinstance(divisor, ToricAdelicDivisor):
            raise TypeError("Pair needs a ToricAdelicDivisor")
        self.divisor = divisor
        self.base = base if base is not None else BaseCondition()
        self._window = self._roof = self._avol = self._pass = None

    def _toric_orders(self) -> tuple:
        v0, vinf = self.base.v0, self.base.vinf
        return ((v0 if scalar_sign(v0) > 0 else _ZERO),
                (vinf if scalar_sign(vinf) > 0 else _ZERO))

    def shifted_polytope(self) -> Interval:
        """The polytope cut down by the base condition.

        A section sitting at x in the polytope vanishes to order
        x + cInf at Zero and c0 - x at Infinity, so prescribing orders
        (v0, vInf) trims the interval to [-cInf + v0, c0 - vInf].
        Negative prescribed orders are vacuous for genuine sections and
        are clamped to zero here; effectivity comparisons elsewhere use
        the raw values.
        """
        if self._window is None:
            v0, vinf = self._toric_orders()
            lo = _qsub(v0, self.divisor.cinf)
            hi = _qsub(self.divisor.c0, vinf)
            self._window = Interval.EMPTY if scalar_cmp(lo, hi) > 0 else Interval(lo, hi)
        return self._window

    def global_roof(self) -> ConcavePA:
        """Sum over places of the Legendre roofs of the convexified
        potentials, restricted to the shifted polytope.  Finite places
        contribute with a symbolic log p factor, so values are exact.

        Every unit roof lives on the divisor's polytope, so the sum is one
        weighted sum of values on the union of their breakpoints
        (``_roof_sum``), restricted to the window and kept on the pair."""
        if self._roof is None:
            window = self.shifted_polytope()
            if window.is_empty:
                raise EmptyPolytope(
                    f"{self!r} has an empty shifted polytope; no sections to count"
                )
            d = self.divisor
            self._roof = _roof_sum(
                unit_roof(d.potential(ARCH)),
                [(place, unit_roof(d._potentials[place]))
                 for place in d.places if place != ARCH]).restrict(window)
        return self._roof

    def add(self, other: "Pair") -> "Pair":
        return Pair(self.divisor + other.divisor, self.base + other.base)

    __add__ = add

    def scale(self, a) -> "Pair":
        if self.base.is_zero:
            return Pair(self.divisor.scale(a))
        a = Fraction(a)
        return Pair(self.divisor.scale(a), self.base.scale(a))

    def perturb(self, place, phi) -> "Pair":
        """Add half of a bounded perturbation to the potential at one place.

        The factor one half is the Green-to-potential dictionary: perturbing
        the Green function by a constant 2r moves the roof by r.  At a finite
        place the perturbation is given in log p units, like the potential.
        """
        place = as_place(place)
        if isinstance(phi, ConvexPA):
            phi = phi.as_general()
        if not isinstance(phi, PAGeneral):
            raise TypeError("perturbation must be piecewise affine on R")
        if not phi.is_bounded():
            raise UnboundedPerturbation(
                f"perturbation has asymptotic slopes "
                f"({phi.left_slope}, {phi.right_slope}); they must vanish"
            )
        new_pot = self.divisor.potential(place) + phi.scale(_q(1, 2))
        pots = {v: self.divisor._potentials[v] for v in self.divisor.places}
        pots[place] = new_pot
        divisor = ToricAdelicDivisor(self.divisor.c0, self.divisor.cinf, pots)
        return Pair(divisor, self.base)

    def to_payload(self) -> dict:
        payload = self.divisor.to_payload()
        if not self.base.is_zero:
            orders = (("0", self.base.v0), ("inf", self.base.vinf))
            payload["base"] = {label: str(v) for label, v in orders if v}
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping) -> "Pair":
        divisor = ToricAdelicDivisor.from_payload(payload)
        return cls(divisor, BaseCondition(payload.get("base") or {}))

    def __eq__(self, other):
        if not isinstance(other, Pair):
            return NotImplemented
        return self.divisor == other.divisor and self.base == other.base

    __hash__ = None

    def __repr__(self):
        if self.base.is_zero:
            return f"Pair({self.divisor!r})"
        return f"Pair({self.divisor!r}; {self.base!r})"


def as_pair(obj) -> Pair:
    if isinstance(obj, Pair):
        return obj
    if isinstance(obj, ToricAdelicDivisor):
        return Pair(obj)
    raise TypeError(f"cannot interpret {type(obj).__name__} as a pair")
