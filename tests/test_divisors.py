"""Toric adelic divisors, pairs with base conditions, and their roofs.

Frozen values come from the slant / tent / p-slant gallery shapes, whose
roofs are computable by hand: slant has roof 1 - x on [0, 1], tent has
1 - |x| on [-1, 1], and the p-slant carries the slant shape in log p units.
"""

import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import adelic_volumes.divisors as divisors
import adelic_volumes.positivity as positivity
from adelic_volumes.divisors import (
    ARCH,
    BaseCondition,
    Pair,
    ToricAdelicDivisor,
    _roof_sum,
    as_pair,
    as_place,
    canonical_potential,
    min_adelic,
)
from adelic_volumes.errors import (
    EmptyPolytope,
    InvalidPoint,
    NotEffectiveInput,
    UnboundedPerturbation,
)
from adelic_volumes.exactnum import ExactNumber, exact, log_unit
from adelic_volumes.gallery import (
    half_zero_pair,
    height_shift,
    p_slant_divisor,
    slant_divisor,
    tent_divisor,
)
from adelic_volumes.harness import sample_big_pair, sample_divisor
from adelic_volumes.pa import (ConcavePA, ConvexPA, PAGeneral, convex_envelope,
                               legendre_roof)
from adelic_volumes.positivity import (
    avol,
    is_big,
    is_pseff,
    zariski_positive_part,
)

F = Fraction


class TestPlaces:
    def test_as_place(self):
        assert as_place("inf") == ARCH
        assert as_place("oo") == ARCH
        assert as_place("infinity") == ARCH
        assert as_place("2") == 2
        assert as_place(13) == 13

    def test_as_place_rejects(self):
        with pytest.raises(ValueError):
            as_place(4)
        with pytest.raises(ValueError):
            as_place("x")


class TestConstruction:
    def test_canonical_potential_shape(self):
        pot = canonical_potential(F(1), F(0))
        assert isinstance(pot, ConvexPA)
        assert pot.left_slope == 0 and pot.right_slope == 1

    def test_canonical_potential_negative_degree(self):
        # c0 + cinf < 0 means the slopes are out of convex order
        pot = canonical_potential(F(-1), F(0))
        assert isinstance(pot, PAGeneral)

    def test_slope_invariant_enforced(self):
        wrong = ConvexPA([(F(0), F(0))], 0, 2)  # right slope 2, divisor wants 1
        with pytest.raises(ValueError):
            ToricAdelicDivisor(1, 0, {ARCH: wrong})

    @pytest.mark.parametrize("c0, cinf, ls, rs", [
        (1, 0, -1, 1),             # left slope -1, the divisor wants 0
        (1, 2, 2, 1),              # left slope cinf, the divisor wants -cinf
        (F(1, 2), F(1, 3), F(-1, 2), F(1, 2)),
        (1, log_unit(2), log_unit(2), 1)])
    def test_each_tail_slope_is_checked(self, c0, cinf, ls, rs):
        wrong = PAGeneral([(F(0), F(1))], ls, rs)
        with pytest.raises(ValueError, match="asymptotic slopes"):
            ToricAdelicDivisor(c0, cinf, {ARCH: wrong})
        # the slopes (-cinf, c0) pass
        ToricAdelicDivisor(c0, cinf, {ARCH: PAGeneral([(F(0), F(1))], -cinf, c0)})

    def test_explicit_canonical_potential_is_dropped(self):
        d = ToricAdelicDivisor(1, 0, {ARCH: canonical_potential(F(1), F(0))})
        assert d.places == ()
        assert ARCH not in d.places
        assert d == ToricAdelicDivisor(1, 0)

    def test_convex_general_upgraded(self):
        pot = PAGeneral([(F(1), F(1))], 0, 1)  # convex data in general clothes
        d = ToricAdelicDivisor(1, 0, {ARCH: pot})
        assert isinstance(d.potential(ARCH), ConvexPA)
        assert d == slant_divisor()

    @pytest.mark.parametrize("c0, cinf", [
        (F(1), F(0)), (F(0), F(0)), (F(-1), F(1)), (F(2), F(-3)),
        (F(1, 3), F(5, 7)), (log_unit(2), F(-1, 2))])
    def test_canonical_potential_is_canonical(self, c0, cinf):
        pot = canonical_potential(c0, cinf)
        again = type(pot)(pot.points, pot.left_slope, pot.right_slope)
        assert pot == again and repr(pot) == repr(again)

    def test_sampled_upgrades_are_canonical(self):
        # a convex potential handed over as PAGeneral is stored as the
        # ConvexPA that the checking constructor builds from the same data
        rng = random.Random(12)
        for _ in range(100):
            d = sample_divisor(rng)
            for place in d.places:
                pot = d.potential(place)
                if not isinstance(pot, ConvexPA):
                    continue
                general = PAGeneral(pot.points, pot.left_slope, pot.right_slope)
                stored = ToricAdelicDivisor(d.c0, d.cinf, {place: general}).potential(place)
                want = ConvexPA(pot.points, pot.left_slope, pot.right_slope)
                assert type(stored) is ConvexPA
                assert stored == want and repr(stored) == repr(want)

    def test_duplicate_place_rejected(self):
        pot = ConvexPA([(F(1), F(1))], 0, 1)
        with pytest.raises(ValueError):
            ToricAdelicDivisor(1, 0, {"2": pot, 2: pot})

    def test_degree_and_ord(self):
        d = tent_divisor()
        assert d.degree == 2
        assert (d.c0, d.cinf) == (1, 1)


class TestAlgebra:
    def test_add_degrees_and_polytope(self):
        s = slant_divisor() + tent_divisor()
        assert s.degree == 3
        assert (s.c0, s.cinf) == (2, 1)
        assert (s.polytope().lo, s.polytope().hi) == (-1, 2)

    def test_scale(self):
        d = slant_divisor().scale(F(3, 2))
        assert (d.c0, d.cinf) == (F(3, 2), 0)
        # the potential scales in value only: pot_a(u) = a * pot(u)
        assert d.potential(ARCH) == ConvexPA([(F(1), F(3, 2))], 0, F(3, 2))

    def test_scale_zero_is_zero_divisor(self):
        assert slant_divisor().scale(0) == ToricAdelicDivisor(0, 0)

    def test_difference_has_flat_potential(self):
        # D - D is numerically trivial; the leftover stored potential is the
        # constant zero function (its breakpoint abscissa is representation
        # detail, so equality with the canonical zero divisor is not asserted)
        d = slant_divisor() - slant_divisor()
        assert d.degree == 0
        assert d.potential(ARCH).sup_norm() == 0

    def test_polytope_empty_for_negative(self):
        assert ToricAdelicDivisor(-1, 0).polytope().is_empty


class TestEffectivity:
    def test_gallery_shapes(self):
        assert slant_divisor().is_effective
        assert not height_shift(-1).is_effective
        assert not ToricAdelicDivisor(-1, 2).is_effective

    def test_canonical_boundary_case(self):
        # canonical potential of (1, 0) touches zero, so effective
        d = ToricAdelicDivisor(1, 0)
        assert d.is_effective


class TestMinAdelic:
    def test_min_with_canonical(self):
        # min(max(1, u), max(0, u)) = max(0, u): the slant's potential
        # dominates the canonical one everywhere
        got = min_adelic([slant_divisor(), ToricAdelicDivisor(1, 0)])
        assert got == ToricAdelicDivisor(1, 0)

    def test_min_idempotent(self):
        d = slant_divisor()
        assert min_adelic([d, d]) == d

    def test_min_requires_effective(self):
        with pytest.raises(NotEffectiveInput):
            min_adelic([])
        with pytest.raises(NotEffectiveInput):
            min_adelic([slant_divisor(), slant_divisor().scale(-1)])


def test_import_does_not_load_sympy():
    code = "import sys, adelic_volumes; assert 'sympy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                   env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})


class TestBaseCondition:
    def test_aliases_of_infinity_add_up(self):
        v = BaseCondition({"inf": F(1, 2), " oo": F(1, 4), "infinity ": F(1, 8)})
        assert v == BaseCondition({"inf": F(7, 8)})
        assert repr(v) == "BaseCondition(7/8[inf])"

    def test_zero_weights_dropped(self):
        v = BaseCondition({"0": F(0), "inf": F(1), "oo": F(-1)})
        assert v.is_zero and repr(v) == "BaseCondition(0)"

    def test_order_lookup(self):
        v = BaseCondition({"0": F(1, 2)})
        assert (v.v0, v.vinf) == (F(1, 2), 0)
        v = BaseCondition({"0": "-1/3", "inf": 2})
        assert (v.v0, v.vinf) == (F(-1, 3), 2)
        assert BaseCondition({" oo": 2}).vinf == 2

    def test_toric_detection(self):
        with pytest.raises(InvalidPoint, match="non-toric"):
            BaseCondition({"t^2+1": F(1, 3)})

    def test_negative_nontoric_weight_is_refused(self):
        # a negative order constrains nothing, but the toric model has no
        # point t^2+1 to carry it, so it is refused like a positive one
        with pytest.raises(InvalidPoint, match="non-toric"):
            BaseCondition({"t^2+1": F(-1)})

    def test_long_label_message_is_bounded(self):
        with pytest.raises(InvalidPoint) as info:
            BaseCondition({"x" * 100000: 1})
        assert len(str(info.value)) < 200
        assert "'xxxx" in str(info.value)


class TestPairWindows:
    def test_shifted_polytope_plain(self):
        assert (Pair(tent_divisor()).shifted_polytope().lo,
                Pair(tent_divisor()).shifted_polytope().hi) == (-1, 1)

    def test_shifted_polytope_with_base(self):
        w = half_zero_pair().shifted_polytope()
        assert (w.lo, w.hi) == (F(1, 2), 1)

    def test_negative_orders_clamped_in_window(self):
        p = Pair(slant_divisor(), BaseCondition({"0": F(-3)}))
        assert (p.shifted_polytope().lo, p.shifted_polytope().hi) == (0, 1)

    def test_overconstrained_window_is_empty(self):
        p = Pair(slant_divisor(), BaseCondition({"0": F(2)}))
        assert p.shifted_polytope().is_empty
        with pytest.raises(EmptyPolytope):
            p.global_roof()

    def test_nontoric_base_rejected(self):
        with pytest.raises(InvalidPoint):
            BaseCondition({"t^2+1": F(1)})


class TestGlobalRoof:
    def test_slant_roof(self):
        r = Pair(slant_divisor()).global_roof()
        assert (r.domain.lo, r.domain.hi) == (0, 1)
        assert r.eval(0) == 1
        assert r.eval(F(1, 2)) == F(1, 2)
        assert r.eval(1) == 0

    def test_tent_roof(self):
        r = Pair(tent_divisor()).global_roof()
        assert (r.domain.lo, r.domain.hi) == (-1, 1)
        assert r.eval(-1) == 0 and r.eval(0) == 1 and r.eval(1) == 0

    def test_base_condition_restricts_roof(self):
        r = half_zero_pair().global_roof()
        assert (r.domain.lo, r.domain.hi) == (F(1, 2), 1)
        assert r.eval(F(1, 2)) == F(1, 2)

    def test_finite_place_carries_log_factor(self):
        r = Pair(p_slant_divisor(2)).global_roof()
        assert r.eval(0) == log_unit(2)
        assert r.eval(1) == 0
        assert r.eval(F(1, 2)) == log_unit(2) / 2

    def test_roofs_add_over_places(self):
        d = slant_divisor() + p_slant_divisor(3)
        r = Pair(d).global_roof()
        assert r.eval(0) == 1 + log_unit(3)

    @staticmethod
    def _restrict_then_sum(pair):
        """The route that sums after cutting: each unit roof restricted
        to the window, scaled by log p and added place by place."""
        window = pair.shifted_polytope()
        divisor = pair.divisor
        roof = legendre_roof(convex_envelope(divisor.potential(ARCH)))
        roof = roof.restrict(window)
        for place in divisor.places:
            if place != ARCH:
                unit = legendre_roof(convex_envelope(divisor.potential(place)))
                weight = log_unit(place)
                roof = roof + ConcavePA(
                    [(x, weight * y) for x, y in unit.restrict(window).points])
        return roof

    def test_sampled_pairs_match_restrict_then_sum(self):
        rng = random.Random(5)
        finite = based = 0
        for _ in range(120):
            d = sample_divisor(rng, convex=rng.random() < 0.7)
            orders = {}
            if rng.random() < 0.5:
                orders["0"] = d.degree * F(rng.randint(-2, 5), 8)
            if rng.random() < 0.3:
                orders["inf"] = d.degree * F(rng.randint(-2, 4), 8)
            pair = Pair(d, BaseCondition(orders))
            if pair.shifted_polytope().is_empty:
                continue
            finite += any(v != ARCH for v in d.places)
            based += bool(orders)
            expected = self._restrict_then_sum(pair)
            assert pair.global_roof() == expected
            assert repr(pair.global_roof()) == repr(expected)
        assert finite >= 20 and based >= 20

    def test_canonical_potential_is_one_object(self):
        d = p_slant_divisor(2)
        assert ARCH not in d.places
        assert d.potential(ARCH) is d.potential(ARCH)
        assert d.potential(5) is d.potential(ARCH)

    def test_roof_is_kept_on_the_pair(self, monkeypatch):
        calls = []
        original = divisors._roof_sum

        def counting(arch_roof, finite):
            calls.append(finite)
            return original(arch_roof, finite)

        monkeypatch.setattr(divisors, "_roof_sum", counting)
        d = slant_divisor() + p_slant_divisor(2)
        pair = Pair(d)
        assert pair.global_roof() is pair.global_roof()
        assert len(calls) == 1
        # the window is the whole polytope: the sum is not cut
        assert pair.global_roof().domain == d.polytope()
        assert pair == Pair(slant_divisor() + p_slant_divisor(2))
        assert repr(d) == repr(slant_divisor() + p_slant_divisor(2))

    def test_roof_of_empty_polytope(self):
        with pytest.raises(EmptyPolytope):
            Pair(ToricAdelicDivisor(-1, 0)).global_roof()


class TestPairMemo:
    """A pair keeps its window, roof and volume; they are not its value."""

    @staticmethod
    def _pairs():
        return [
            Pair(slant_divisor()),
            half_zero_pair(),
            Pair(tent_divisor() + p_slant_divisor(2),
                 BaseCondition({"inf": F(1, 3)})),
        ]

    def test_memo_is_invisible(self):
        for pair, twin in zip(self._pairs(), self._pairs()):
            before = (repr(pair), pair.to_payload())
            assert avol(pair) > 0 and is_pseff(pair)
            assert pair == twin and twin == pair
            assert (repr(pair), pair.to_payload()) == before
            assert (repr(twin), twin.to_payload()) == before

    def test_avol_integrates_once(self, monkeypatch):
        # rational data: one integer pass per pair, kept for the Zariski part
        calls = []
        original = positivity._pair_pass

        def counting(pair):
            calls.append(pair)
            return original(pair)

        monkeypatch.setattr(positivity, "_pair_pass", counting)
        pair = self._pairs()[2]
        first = avol(pair)
        assert avol(pair) is first and is_big(pair)
        assert len(calls) == 1 and pair._pass is not None
        assert pair.shifted_polytope() is pair.shifted_polytope()
        zariski_positive_part(pair)
        assert len(calls) == 1 and pair._roof is None
        # an equal pair is another object, with its own memo
        assert avol(self._pairs()[2]) == first
        assert len(calls) == 2

    def test_avol_integrates_the_roof_once_off_q(self, monkeypatch):
        # tails in Q(log 2), a Zariski positive part's: the roof route
        calls = []
        original = positivity._twice_integral

        def counting(roof):
            calls.append(roof)
            return original(roof)

        d = slant_divisor() + p_slant_divisor(2) + height_shift(F(-3, 2))
        positive = zariski_positive_part(Pair(d)).positive
        assert not isinstance(positive.c0, F)
        monkeypatch.setattr(positivity, "_twice_integral", counting)
        pair = Pair(positive)
        first = avol(pair)
        assert avol(pair) is first and is_big(pair)
        assert len(calls) == 1 and pair._pass is None
        assert pair.global_roof() is pair.global_roof() is calls[0]
        assert avol(Pair(positive)) == first
        assert len(calls) == 2

    def test_errors_are_raised_on_every_call(self):
        empty = Pair(slant_divisor(), BaseCondition({"0": F(2)}))
        for _ in range(2):
            with pytest.raises(InvalidPoint):
                BaseCondition({"t^2+1": F(1)})
            with pytest.raises(EmptyPolytope):
                empty.global_roof()
            assert avol(empty) == 0


class TestPerturb:
    def test_constant_perturbation_halved(self):
        # Green-function shift 2r moves the potential (and roof) by r
        p = Pair(slant_divisor()).perturb(ARCH, PAGeneral.constant(2))
        assert p.divisor.potential(ARCH) == ConvexPA([(F(1), F(2))], 0, 1)

    def test_finite_place_perturbation(self):
        p = Pair(p_slant_divisor(2)).perturb(2, PAGeneral.constant(1))
        assert p.divisor.potential(2) == ConvexPA([(F(1), F(3, 2))], 0, 1)

    def test_unbounded_perturbation_rejected(self):
        with pytest.raises(UnboundedPerturbation):
            Pair(slant_divisor()).perturb(ARCH, PAGeneral([(F(0), F(0))], -1, 1))


class TestScaleAndBase:
    def test_pair_scale_scales_base(self):
        p = half_zero_pair().scale(2)
        assert p.divisor.c0 == 2
        assert p.base.v0 == 1

    def test_pair_algebra(self):
        p = Pair(slant_divisor()) + half_zero_pair()
        assert p.divisor.c0 == 2
        assert p.base.v0 == F(1, 2)
        q = p + half_zero_pair().scale(-1)
        assert q.base.v0 == 0


class TestPayloads:
    @pytest.mark.parametrize("pair", [
        Pair(slant_divisor()),
        Pair(tent_divisor()),
        Pair(p_slant_divisor(2)),
        half_zero_pair(),
        Pair(slant_divisor() + p_slant_divisor(5),
             BaseCondition({"0": F(1, 4), "inf": F(1, 8)})),
    ])
    def test_round_trip(self, pair):
        assert Pair.from_payload(pair.to_payload()) == pair

    def test_payload_shape(self):
        payload = half_zero_pair().to_payload()
        assert payload["c0"] == "1"
        assert payload["base"] == {"0": "1/2"}

    def test_as_pair(self):
        d = slant_divisor()
        assert as_pair(d) == Pair(d)
        assert as_pair(Pair(d)) == Pair(d)
        with pytest.raises(TypeError):
            as_pair("slant")


# -- the constructor reads "canonical" off the data; the roof sum ----------

_SLANT_PAYLOAD = {"kind": "convex", "points": [["1", "1"]],
                  "left_slope": "0", "right_slope": "1"}


class TestConstructorShortcuts:
    def test_a_sum_that_comes_out_canonical_is_dropped(self):
        slant = ConvexPA([(F(1), F(1))], 0, 1)
        # max(0, u) - max(1, u): the canonical potential of (1, 0) minus slant
        dent = PAGeneral([(F(0), F(-1)), (F(1), F(0))], 0, 0)
        d = ToricAdelicDivisor(1, 0, {2: slant}) + ToricAdelicDivisor(0, 0, {2: dent})
        assert d.places == ()
        assert d == ToricAdelicDivisor(1, 0)
        pair = Pair(slant_divisor()).perturb(3, PAGeneral([(F(0), F(2))], 0, 0))
        assert pair.divisor.places == (ARCH, 3)
        back = pair.perturb(3, PAGeneral([(F(0), F(-2))], 0, 0))
        assert back.divisor.places == (ARCH,)
        assert back == Pair(slant_divisor())

    def test_an_affine_potential_of_value_zero_is_dropped(self):
        # c0 = -cinf: the canonical potential is the line u -> c0 u
        zero = ConvexPA([(F(0), 0)], F(1, 2), F(1, 2))
        d = ToricAdelicDivisor(F(1, 2), F(-1, 2), {ARCH: zero, 5: zero + ConvexPA.constant(1)})
        assert d.places == (5,)

    def test_unlisted_places_share_one_canonical_object(self, monkeypatch):
        calls = []
        original = divisors.canonical_potential

        def counting(c0, cinf):
            calls.append((c0, cinf))
            return original(c0, cinf)

        d = slant_divisor() + p_slant_divisor(2)
        monkeypatch.setattr(divisors, "canonical_potential", counting)
        Pair(d).global_roof()
        # every place read by the roof is listed: nothing canonical is built
        assert calls == []
        e = p_slant_divisor(3)
        assert e.potential(ARCH) is e.potential(2) is e.potential(ARCH)
        assert e.potential(2) == canonical_potential(F(1), F(0))
        assert calls == [(F(1), F(0))]

    def test_payload_mappings_are_still_coerced(self):
        assert ToricAdelicDivisor(1, 0, {"inf": _SLANT_PAYLOAD}) == slant_divisor()
        general = dict(_SLANT_PAYLOAD, kind="general")
        d = ToricAdelicDivisor(1, 0, {"2": general})
        assert type(d.potential(2)) is ConvexPA and d == p_slant_divisor(2)
        canonical = {"kind": "general", "points": [["0", "0"]],
                     "left_slope": "0", "right_slope": "1"}
        assert ToricAdelicDivisor(1, 0, {"3": canonical}).places == ()
        with pytest.raises(TypeError, match="must be piecewise affine"):
            ToricAdelicDivisor(1, 0, {"inf": [["1", "1"]]})

    def test_wrong_slopes_raise_the_same_text(self):
        want = ("potential at 2 has asymptotic slopes (0, 2); "
                "the divisor requires (0, 1)")
        for pot in (ConvexPA([(F(0), F(0))], 0, 2),
                    dict(_SLANT_PAYLOAD, right_slope="2", points=[["0", "0"]])):
            with pytest.raises(ValueError, match=re.escape(want)):
                ToricAdelicDivisor(1, 0, {2: pot})

    def test_coefficients_keep_their_type(self):
        third = F(1, 3)
        assert ToricAdelicDivisor(third, 0).c0 is third
        assert type(ToricAdelicDivisor(exact(F(1, 2)), 1).c0) is Fraction
        assert ToricAdelicDivisor(2, 0).c0 == 2 and type(ToricAdelicDivisor(2, 0).c0) is Fraction

    @pytest.mark.parametrize("seed", [3, 10, 29, 30])
    def test_zariski_exact_coefficients_round_trip(self, seed):
        # these seeds cut the polytope at a log point: c0 or cinf is an
        # ExactNumber
        pos = zariski_positive_part(sample_big_pair(random.Random(seed))).positive
        assert isinstance(pos.c0, ExactNumber) or isinstance(pos.cinf, ExactNumber)
        again = ToricAdelicDivisor(pos.c0, pos.cinf,
                                   {v: pos.potential(v) for v in pos.places})
        assert again == pos and repr(again) == repr(pos)
        assert (type(again.c0), type(again.cinf)) == (type(pos.c0), type(pos.cinf))
        assert repr(Pair(again).global_roof()) == repr(Pair(pos).global_roof())


def _ref_roof_sum(arch_roof, finite):
    """The operator route: every value at each point of the sorted union
    of the breakpoints, summed place by place through the field."""
    xs = []
    for x in sorted(x for r in (arch_roof, *(r for _, r in finite)) for x, _ in r.points):
        if not xs or not x == xs[-1]:
            xs.append(x)

    def value(pts, x):
        for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
            if x1 < x < x2:
                return y1 + (y2 - y1) * (x - x1) / (x2 - x1)
        return next(y for u, y in pts if u == x)

    ys = [value(arch_roof.points, x) for x in xs]
    for p, r in finite:
        ys = [y + log_unit(p) * value(r.points, x) for x, y in zip(xs, ys)]
    return list(zip(xs, ys))


_tiny = st.fractions(min_value=F(-2), max_value=F(2), max_denominator=3)
_big = st.builds(F, st.integers(-2**200, 2**200), st.integers(1, 2**200))
_q = st.one_of(_tiny, _tiny, _big)


@st.composite
def _roofs_on(draw, lo, hi, values):
    """A concave PA on [lo, hi]: interior breakpoints, rational concave
    values, plus an affine term alpha x + beta drawn from ``values``."""
    inner = draw(st.sets(st.fractions(min_value=0, max_value=1, max_denominator=7),
                         max_size=3))
    xs = sorted({lo, hi} | {lo + (hi - lo) * t for t in inner})
    slopes = sorted(draw(st.sets(_q, min_size=len(xs) - 1, max_size=len(xs) - 1)),
                    reverse=True)
    ys = [draw(_q)]
    for s, x1, x2 in zip(slopes, xs, xs[1:]):
        ys.append(ys[-1] + s * (x2 - x1))
    alpha, beta = draw(values), draw(values)
    return ConcavePA([(x, y + alpha * x + beta) for x, y in zip(xs, ys)])


_arch_values = st.one_of(st.just(F(0)), _q,
                         st.builds(lambda q, c: q + c * log_unit(11), _q, _tiny),
                         st.builds(lambda q, c: q + c * log_unit(2), _q, _tiny))
# a quotient makes a place's values leave the polynomials: the field route
_finite_values = st.one_of(st.just(F(0)), _q, _q, _q,
                           st.builds(lambda q: q / (1 + log_unit(3)), _tiny))


@st.composite
def _roof_sums(draw):
    lo = draw(st.fractions(min_value=-3, max_value=2, max_denominator=5))
    hi = lo + draw(st.fractions(min_value=F(1, 5), max_value=4, max_denominator=5))
    arch = draw(_roofs_on(lo, hi, _arch_values))
    primes = draw(st.lists(st.sampled_from([2, 3, 5, 7]), max_size=3, unique=True))
    return arch, [(p, draw(_roofs_on(lo, hi, _finite_values))) for p in sorted(primes)]


@given(_roof_sums())
@example((ConcavePA([(F(0), F(1)), (F(1), F(0))]),
          [(2, ConcavePA([(F(0), F(0)), (F(1), F(0))]))]))  # a zero column
@settings(max_examples=200, deadline=None)
def test_roof_sum_matches_the_field_sum(case):
    arch, finite = case
    got = _roof_sum(arch, finite).points
    want = _ref_roof_sum(arch, finite)
    assert len(got) == len(want)
    for (x, y), (u, v) in zip(got, want):
        assert type(x) is type(u) and repr(x) == repr(u)
        assert type(y) is type(v) and repr(y) == repr(v)
        if isinstance(v, ExactNumber):
            assert (y._num, y._scale, y._den) == (v._num, v._scale, v._den)
