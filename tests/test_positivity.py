"""Positivity layer: nef tests, exact volumes, Zariski positive parts,
intersection numbers, positive intersections, and threshold brackets.

Hand-checked fixtures: the slant divisor has roof 1 - x on [0, 1] (volume 1),
the tent divisor has roof 1 - |x| on [-1, 1] (volume 2), their sum has
volume 7, and the base-conditioned slant (order 1/2 at Zero) has volume 1/4.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adelic_volumes.divisors as divisors
import adelic_volumes.pa as pa
import adelic_volumes.positivity as positivity
from adelic_volumes.divisors import ARCH, BaseCondition, Pair, ToricAdelicDivisor
from adelic_volumes.errors import NotBig, NotNef
from adelic_volumes.exactnum import exact, log_unit, scalar_cmp, scalar_sign
from adelic_volumes.gallery import (
    half_zero_pair,
    height_shift,
    p_slant_divisor,
    slant_divisor,
    tent_divisor,
)
from adelic_volumes.harness import (
    diskant_report,
    sample_big_pair,
    sample_direction,
    sample_divisor,
    sample_nef_divisor,
)
from adelic_volumes.pa import (
    ConcavePA,
    ConvexPA,
    Interval,
    PAGeneral,
    _grid,
    _slope,
    convex_envelope,
    legendre_potential,
    legendre_roof,
    unit_roof,
)
from adelic_volumes.positivity import (
    Bracket,
    _Eps,
    adeg_product,
    avol,
    is_big,
    is_nef,
    is_pseff,
    is_relatively_nef,
    positive_intersection,
    pseff_threshold,
    zariski_positive_part,
)

import reference
from operator_chain import ref_argmax, ref_integrate_positive_part

F = Fraction


def lowered_slant() -> ToricAdelicDivisor:
    """Slant coefficients with the potential plateau lowered to 1/2, so the
    roof 1/2 - x dips below zero on half the polytope."""
    return ToricAdelicDivisor(1, 0, {ARCH: ConvexPA([(F(1), F(1, 2))], 0, 1)})


def ample_reference() -> ToricAdelicDivisor:
    """An ample divisor: coefficients (1, 1), archimedean potential
    |u| + 1.  Its roof is constant 1 on [-1, 1], so its volume is 4."""
    return ToricAdelicDivisor(1, 1, {ARCH: ConvexPA([(F(0), F(1))], -1, 1)})


def roof_minimum(divisor):
    # a concave roof is least at one of its ends
    pts = Pair(divisor).global_roof().points
    return min(pts[0][1], pts[-1][1])


def _smaller(x, y):
    return x if scalar_cmp(x, y) <= 0 else y


def kinked_slant() -> ToricAdelicDivisor:
    """Slant coefficients with a non-convex (kinked) potential."""
    pot = PAGeneral([(F(0), F(0)), (F(1), F(-1))], 0, 1)
    return ToricAdelicDivisor(1, 0, {ARCH: pot})


class TestNefAmple:
    def test_gallery(self):
        assert is_nef(slant_divisor())
        assert is_nef(tent_divisor())
        assert is_nef(height_shift(1))
        assert not is_nef(height_shift(-1))
        assert is_nef(ToricAdelicDivisor(1, 0))  # canonical slant, roof 0

    def test_certificate_records_minimum(self):
        # a nonnegative roof minimum is what makes these nef
        assert is_nef(slant_divisor()) and roof_minimum(slant_divisor()) == 0
        assert is_nef(ample_reference()) and roof_minimum(ample_reference()) == 1

    def test_certificate_rejections(self):
        # relatively nef, but the roof dips below zero
        assert is_relatively_nef(height_shift(-1))
        assert roof_minimum(height_shift(-1)) == -1
        assert not is_nef(height_shift(-1))
        # a non-convex potential is not nef, even when the roof of its
        # convex envelope stays positive: here |u| + 1 with a bump
        assert not is_nef(kinked_slant())
        bump = PAGeneral([(F(-1), F(2)), (F(0), F(1)), (F(1, 2), F(2)),
                          (F(1), F(2))], -1, 1)
        bumped = ToricAdelicDivisor(1, 1, {ARCH: bump})
        assert roof_minimum(bumped) == 1
        assert not is_nef(bumped)

    def test_relatively_nef(self):
        assert is_relatively_nef(slant_divisor())
        assert not is_relatively_nef(kinked_slant())
        assert not is_relatively_nef(ToricAdelicDivisor(-1, 0))


def _guard_cases() -> list:
    """Over 1000 divisors for the nef and zero-volume guards: sampled
    divisors, finite places on odd draws, each also shifted so that the
    minimum of its roof is exactly 0, or reduced to its canonical part;
    sampled nef divisors; Zariski positive parts, with symbolic tails at
    finite places; and the zero-volume nef divisors height_shift(c),
    ToricAdelicDivisor(c0, cinf) and affine degree-zero divisors."""
    rng = random.Random("nef-guards")
    cases = [height_shift(1), height_shift(0), height_shift(-1),
             ToricAdelicDivisor(1, 0), ToricAdelicDivisor(0, 0), slant_divisor(),
             tent_divisor(), kinked_slant(), ToricAdelicDivisor(-1, 0)]
    for i in range(300):
        finite = i % 2 == 1
        d = sample_divisor(rng, allow_finite=finite, convex=i % 10 != 9)
        cases += [d, ToricAdelicDivisor(d.c0, d.cinf), sample_nef_divisor(rng, allow_finite=finite)]
        if is_relatively_nef(d):
            low = roof_minimum(d)
            if isinstance(low, F):
                cases.append(d - height_shift(low))
        cases.append(height_shift(F(rng.randint(-4, 4), rng.randint(1, 4))))
        slope = F(rng.randint(-4, 4), rng.randint(1, 4))
        cases.append(ToricAdelicDivisor(slope, -slope, {ARCH: ConvexPA(
            [(F(0), F(rng.randint(-2, 2), rng.randint(1, 3)))], slope, slope)}))
        if finite or i % 6 == 0:
            pair = sample_big_pair(rng, allow_finite=finite)
            while finite and pair.divisor.places in ((), (ARCH,)):
                pair = sample_big_pair(rng, allow_finite=finite)
            cases.append(zariski_positive_part(pair).positive)
    return cases


def _guard(divisor):
    """None when pseff_threshold's divisor guard passes, else its message."""
    try:
        positivity._require_nef_volume(divisor)
    except NotNef as exc:
        return str(exc).split(" is ")[-1]
    return None


class TestNefGuards:
    """is_nef and the zero-volume guard read the two ends of the roof and
    its slope at the lower end; checked against their definitions, the
    roof's minimum and the volume."""

    @pytest.fixture(scope="class")
    def cases(self):
        cases = _guard_cases()
        want = []
        for d in cases:
            nef = is_relatively_nef(d) and roof_minimum(d) >= 0
            zero = nef and scalar_sign(avol(Pair(d))) <= 0
            want.append((nef, "nef but has volume zero" if zero else
                         None if nef else "not nef"))
        return cases, want

    def test_against_the_roof_and_the_volume(self, cases):
        cases, want = cases
        assert len(cases) >= 1000
        assert [(is_nef(d), _guard(d)) for d in cases] == want
        zero = sum(w[1] == "nef but has volume zero" for w in want)
        positive = sum(w == (True, None) for w in want)
        assert zero >= 100 and positive >= 300 and len(cases) - zero - positive >= 300
        # symbolic tails at finite places among the nef ones
        assert sum(not isinstance(d.c0, F) or not isinstance(d.cinf, F)
                   for d, w in zip(cases, want) if w[0]) >= 30

    def test_no_roof_is_built(self, cases, monkeypatch):
        cases, want = cases
        fresh = [ToricAdelicDivisor(d.c0, d.cinf, {v: d.potential(v) for v in d.places})
                 for d in cases]

        def refuse(*args):
            raise AssertionError("a guard built a roof")

        monkeypatch.setattr(Pair, "global_roof", refuse)
        monkeypatch.setattr(divisors, "_roof_sum", refuse)
        assert [(is_nef(d), _guard(d)) for d in fresh] == want

    def test_ends_and_slope_match_the_roof(self, cases):
        for d in cases[0]:
            if is_relatively_nef(d):
                roof = Pair(d).global_roof()
                at_lo, at_hi, slope = positivity._roof_ends(d)
                pts = roof.points
                assert (at_lo, at_hi) == (pts[0][1], pts[-1][1])
                if len(pts) > 1:
                    assert slope == (pts[1][1] - pts[0][1]) / (pts[1][0] - pts[0][0])


class TestVolume:
    def test_exact_values(self):
        assert avol(slant_divisor()) == 1
        assert avol(tent_divisor()) == 2
        assert avol(slant_divisor() + tent_divisor()) == 7
        assert avol(half_zero_pair()) == F(1, 4)
        assert avol(ample_reference()) == 4

    def test_degenerate_window(self):
        assert avol(height_shift(1)) == 0
        assert avol(Pair(slant_divisor(), BaseCondition({"0": F(2)}))) == 0

    def test_symbolic_value(self):
        assert avol(p_slant_divisor(2)) == log_unit(2)
        assert avol(p_slant_divisor(3)) == log_unit(3)

    def test_clip_on_values_of_degree_two(self):
        # a potential at 2 with a breakpoint at u = log 3 and rational
        # slopes: the unit roof min(0, log(3) (1/2 - x)) has rational
        # breakpoints, and weighted by log 2 the roof ends at
        # -log(2) log(3) / 2, so its clip denominator has degree 2
        L3 = log_unit(3)
        pot = ConvexPA([(F(0), F(0)), (L3, L3 / 2)], -1, 1)
        pair = Pair(ToricAdelicDivisor(1, 1, {ARCH: tent_divisor().potential(ARCH), 2: pot}))
        pts = pair.global_roof().points
        assert [x for x, _ in pts] == [-1, 0, F(1, 2), 1]
        # the field-operator integral: trapezoids, then the clipped end
        want = F(0)
        for (x1, y1), (x2, y2) in zip(pts, pts[1:-1]):
            want = want + (x2 - x1) * (y1 + y2)
        (x1, y_in), (x2, y_out) = pts[-2:]
        assert scalar_sign(y_out) < 0
        want = want + (x2 - x1) * y_in * y_in / (y_in - y_out)
        got = avol(pair)
        assert type(got) is type(want) and repr(got) == repr(want)
        assert repr(got) == "(2 + 7/4*log(2)*log(3))/(1 + log(2)*log(3))"

    def test_big_and_pseff(self):
        assert is_big(slant_divisor())
        assert not is_big(height_shift(1))
        assert is_pseff(height_shift(1))  # flat roof at 1 over a point
        assert not is_pseff(height_shift(-1))
        assert is_pseff(lowered_slant())  # big, in fact
        assert is_big(lowered_slant())


class TestZariski:
    def test_nef_input_is_its_own_positive_part(self):
        z = zariski_positive_part(tent_divisor())
        assert z.positive == tent_divisor()
        assert (z.region.lo, z.region.hi) == (-1, 1)

    def test_base_condition_slant(self):
        z = zariski_positive_part(half_zero_pair())
        assert (z.region.lo, z.region.hi) == (F(1, 2), 1)
        assert z.positive == ToricAdelicDivisor(
            1, F(-1, 2), {ARCH: ConvexPA([(F(1), F(1))], F(1, 2), 1)}
        )
        assert avol(Pair(z.positive)) == F(1, 4) == avol(half_zero_pair())
        assert is_nef(z.positive)

    def test_lowered_slant(self):
        z = zariski_positive_part(lowered_slant())
        assert (z.region.lo, z.region.hi) == (0, F(1, 2))
        assert z.positive == ToricAdelicDivisor(
            F(1, 2), 0, {ARCH: ConvexPA([(F(1), F(1, 2))], 0, F(1, 2))}
        )
        assert avol(Pair(z.positive)) == avol(lowered_slant()) == F(1, 4)

    def test_difference_is_effective(self):
        for pair in (half_zero_pair(), Pair(lowered_slant())):
            z = zariski_positive_part(pair)
            assert (pair.divisor - z.positive).is_effective

    def test_matches_the_restricted_roof_route(self):
        # the old route, written out: restrict each unit roof to the region,
        # then take its Legendre dual
        rng = random.Random(2024)
        seen = {"finite": 0, "base": 0, "log_region": 0}
        for _ in range(240):
            pair = sample_big_pair(rng)
            zar = zariski_positive_part(pair)
            region = pair.global_roof().nonneg_region()
            d = pair.divisor
            pots = {place: legendre_potential(
                unit_roof(d.potential(place)).restrict(region))
                for place in dict.fromkeys((ARCH,) + d.places)}
            want = ToricAdelicDivisor(region.hi, -region.lo, pots)
            assert zar.region == region and repr(zar.region) == repr(region)
            assert zar.positive == want
            assert zar.positive.to_payload() == want.to_payload()
            for place in pots:
                got = zar.positive.potential(place)
                assert repr(got) == repr(want.potential(place))
            seen["finite"] += any(place != ARCH for place in d.places)
            seen["base"] += not pair.base.is_zero
            seen["log_region"] += not all(
                isinstance(x, Fraction) for x in (region.lo, region.hi))
        assert min(seen.values()) >= 20, seen

    def test_positive_parts_with_tails_in_q_log_p(self):
        # the positive parts of 200 sampled pairs, kept where a region end,
        # a tail of the part, lies in Q(log p): they reach the operator
        # formulas of pa (_slope, the kernel's operators in _crossing and
        # _tail_crossing, and the clipped ends of integrate_positive_part's
        # field loop).  Each is its own
        # positive part, of the pair's volume; two effective ones meet
        # (min_adelic) at the smaller of the two at every breakpoint; and
        # each lowered by 1 has twice the operator-chain integral of its
        # roof as its volume
        pairs = [sample_big_pair(random.Random(seed)) for seed in range(200)]
        parts = [(pair, zariski_positive_part(pair).positive) for pair in pairs]
        parts = [(pair, p) for pair, p in parts
                 if type(p.c0) is not Fraction or type(p.cinf) is not Fraction]
        assert len(parts) == 35
        for pair, p in parts:
            z = zariski_positive_part(p)
            assert z.positive == p and avol(z.positive) == avol(p) == avol(pair)
        parts = [p for _, p in parts]
        effective = [p for p in parts if p.is_effective]
        assert len(effective) >= 5
        for a, b in itertools.combinations(effective, 2):
            low = divisors.min_adelic([a, b])
            for get in (lambda d: d.c0, lambda d: d.cinf):
                assert get(low) == _smaller(get(a), get(b))
            for place in dict.fromkeys((ARCH,) + low.places):
                fs = [d.potential(place) for d in (low, a, b)]
                for u in pa._grid(*([x for x, _ in f.points] for f in fs)):
                    m, x, y = (f.eval(u) for f in fs)
                    assert m == _smaller(x, y), (a, b, place, u)
        clipped = 0
        for p in parts:
            lowered = Pair(p + height_shift(-1))
            roof = lowered.global_roof()
            chain = 2 * ref_integrate_positive_part(roof)
            got = avol(lowered)
            assert type(got) is type(chain) and repr(got) == repr(chain), p
            clipped += sum(scalar_sign(y) < 0 for y in (roof.points[0][1], roof.points[-1][1]))
        assert clipped >= 20, clipped

    def test_requires_big(self):
        with pytest.raises(NotBig):
            zariski_positive_part(height_shift(1))


class TestReference:
    """avol, the kept roof route and the Zariski part against the
    definitions of ``tests/reference.py``, which shares no roof code with
    the package, and the Zariski part against the roof route's
    ``legendre_potential``."""

    @staticmethod
    def _check(pair):
        """Compare one pair; its region, None when it is not big."""
        want, region = reference.volume_and_region(pair)
        got = avol(pair)
        assert got == want, pair
        twin = Pair(pair.divisor, pair.base)
        window = twin.shifted_polytope()
        if not (window.is_empty or window.is_point):
            kept = pa._twice_integral(twin.global_roof())
            assert type(kept) is type(got) and repr(kept) == repr(got), pair
        if not is_big(pair):
            assert scalar_sign(want) == 0, pair
            return None
        zar = zariski_positive_part(pair)
        assert (zar.region.lo, zar.region.hi) == region, pair
        roof_region = twin.global_roof().nonneg_region()
        assert repr(zar.region) == repr(roof_region)
        assert all(type(a) is type(b) for a, b in ((zar.region.lo, roof_region.lo),
                                                   (zar.region.hi, roof_region.hi)))
        d = pair.divisor
        for v in dict.fromkeys((ARCH,) + d.places):
            roof_pot = legendre_potential(unit_roof(d.potential(v)), roof_region)
            pot = zar.positive.potential(v)
            assert type(pot) is type(roof_pot) and repr(pot) == repr(roof_pot), (pair, v)
        return region

    def test_sampled_pairs_with_base_conditions(self):
        rng = random.Random(2012)
        seen = {"pairs": 0, "finite": 0, "big": 0, "general": 0, "log_region": 0,
                "end_on_a_kink": 0}
        while seen["pairs"] < 300 or seen["finite"] < 100:
            d = sample_divisor(rng, convex=rng.random() < 0.75)
            orders = {"0": d.degree * F(rng.randint(-2, 4), 8)}
            if rng.random() < 0.5:
                orders["inf"] = d.degree * F(rng.randint(-2, 3), 8)
            pair = Pair(d, BaseCondition(orders))
            seen["pairs"] += 1
            seen["finite"] += any(v != ARCH for v in d.places)
            seen["general"] += any(type(d.potential(v)) is PAGeneral for v in d.places)
            region = self._check(pair)
            if region is None:
                continue
            seen["big"] += 1
            seen["log_region"] += not all(type(x) is Fraction for x in region)
            # lowered by the value at an interior kink below the top, the
            # roof is 0 there: a region end on a key
            pts = pair.global_roof().points
            top = max(y for _, y in pts)
            kinks = [(x, y) for x, y in pts[1:-1] if type(y) is Fraction and y < top]
            if kinks:
                x, y = rng.choice(kinks)
                lowered = Pair(d + height_shift(-y), pair.base)
                assert x in self._check(lowered), lowered
                seen["end_on_a_kink"] += 1
        assert seen["finite"] >= 100 and seen["big"] >= 150, seen
        assert seen["general"] >= 50 and seen["log_region"] >= 20, seen
        assert seen["end_on_a_kink"] >= 50, seen


class TestIntersection:
    def test_frozen_products(self):
        E1, E2, O = slant_divisor(), tent_divisor(), height_shift(1)
        H = ample_reference()
        assert adeg_product(E1, O) == 1
        assert adeg_product(H, H) == 4
        assert adeg_product(E1, E1) == 1 == avol(E1)
        assert adeg_product(E1, E2) == 2
        assert adeg_product(E2, E2) == 2 == avol(E2)
        assert adeg_product(O, O) == 0

    def test_symmetry_and_bilinearity(self):
        E1, E2, O = slant_divisor(), tent_divisor(), height_shift(1)
        assert adeg_product(E1, E2) == adeg_product(E2, E1)
        assert adeg_product(E1 + E2, O) == adeg_product(E1, O) + adeg_product(E2, O)
        assert adeg_product(E1.scale(2), E2) == 2 * adeg_product(E1, E2)

    def test_non_nef_extends_bilinearly(self):
        E1, O = slant_divisor(), height_shift(1)
        assert not is_nef(E1 - O)
        assert adeg_product(E1 - O, O) == 1  # = adeg(E1, O) - adeg(O, O)
        assert adeg_product(kinked_slant(), ample_reference()) == 1

    @given(st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_nef_pairs_match_polarization(self, seed):
        rng = random.Random(seed)
        a, b = sample_nef_divisor(rng), sample_nef_divisor(rng)
        polarized = (avol(Pair(a + b)) - avol(Pair(a)) - avol(Pair(b))) / 2
        assert adeg_product(a, b) == polarized

    def test_bilinear_on_non_convex_divisors(self):
        rng = random.Random(17)
        finite = 0
        for _ in range(40):
            a, a2, b = (sample_divisor(rng, convex=False) for _ in range(3))
            assert not all(is_relatively_nef(d) for d in (a, a2, b))
            finite += any(v != ARCH for d in (a, a2, b) for v in d.places)
            ab = adeg_product(a, b)
            assert ab == adeg_product(b, a)
            assert adeg_product(a + a2, b) == ab + adeg_product(a2, b)
            assert adeg_product(b, a - a2) == ab - adeg_product(b, a2)
            q = F(rng.randint(-7, 7), rng.randint(1, 5))
            assert adeg_product(a.scale(q), b) == q * ab
            assert adeg_product(a, b.scale(q)) == q * ab
        assert finite >= 10


def _jets_on_grid(pts, xs, left_slope, right_slope) -> list:
    """(value, left slope, right slope) at each x of a sorted grid of the
    function finite on R with breakpoints pts and the given asymptotic
    slopes, in one joint scan; beyond the breakpoints it follows the tails.
    The field formula that ``adeg_product``'s field route replaced."""
    slopes = ([left_slope] + [_slope(p, q) for p, q in zip(pts, pts[1:])]
              + [right_slope])
    out = []
    j = 0  # the first breakpoint at or right of x
    n = len(pts)
    for x in xs:
        c = 1  # the sign of pts[j].x - x
        while j < n and (c := scalar_cmp(pts[j][0], x)) < 0:
            j += 1
        if j < n and c == 0:
            out.append((pts[j][1], slopes[j], slopes[j + 1]))
        else:
            s = slopes[j]
            x0, y0 = pts[min(j, n - 1)]
            out.append((y0 + s * (x - x0), s, s))
    return out


def _operator_adeg_product(a, b):
    """adeg_product place by place through the field operators: the local
    sum over the jets on the union grid, times log p, added into the total
    one place at a time, as the intersection number was formed before its
    jets were split along the symbolic tails."""
    total = F(0)
    for place in dict.fromkeys((ARCH,) + a.places + b.places):
        pot_a, pot_b = a.potential(place), b.potential(place)
        us = _grid((u for u, _ in pot_a.points), (u for u, _ in pot_b.points))
        jets = [_jets_on_grid(f.points, us, f.left_slope, f.right_slope)
                for f in (pot_a, pot_b)]
        local = F(0)
        for u, (ya, la, ra), (yb, lb, rb) in zip(us, *jets):
            local = local + ya * (rb - lb) + yb * (ra - la) - u * (ra * rb - la * lb)
        total = total + (local if place == ARCH else log_unit(place) * local)
    return total


def _symbolic_tails(d) -> int:
    return sum(type(t) is not F for t in (d.c0, d.cinf))


class TestIntersectionRoutes:
    """adeg_product against the operator formula it replaced, byte for byte
    by typed repr, on sampled instances with finite places on odd seeds:
    the positive part of a big pair against a nef divisor, against a
    sampled direction (non-convex ones included) and against another
    positive part, and rational pairs."""

    COUNT = 80

    @staticmethod
    def _instance(seed):
        rng = random.Random(f"adeg-routes:{seed}")
        finite = seed % 2 == 1

        def positive_part():
            while True:
                pair = sample_big_pair(rng, allow_finite=finite)
                if not finite or set(pair.divisor.places) - {ARCH}:
                    break
            roof = pair.global_roof()
            end = max(roof.points[0][1], roof.points[-1][1])
            c = F((float(end) + float(roof.max_over_domain())) / 2).limit_denominator(64)
            if finite and end < c < roof.max_over_domain():
                # lowered halfway from its higher end to its top: the
                # region ends are zeros of a roof with log p terms
                pair = Pair(pair.divisor + height_shift(-c), pair.base)
            return zariski_positive_part(pair).positive

        p1, p2 = positive_part(), positive_part()
        n = sample_nef_divisor(rng, allow_finite=finite)
        e = sample_direction(rng, allow_finite=finite)
        return [(p1, n), (p1, e), (p1, p2), (n, e)]

    def test_matches_the_operator_formula(self):
        kinds = {"symbolic_x_rational": 0, "four_symbolic": 0, "non_convex": 0,
                 "log_weighted_rational": 0}
        for seed in range(self.COUNT):
            for a, b in self._instance(seed):
                got, want = adeg_product(a, b), _operator_adeg_product(a, b)
                assert [type(got), repr(got)] == [type(want), repr(want)], seed
                sa, sb = _symbolic_tails(a), _symbolic_tails(b)
                kinds["symbolic_x_rational"] += bool(sa) and not sb
                kinds["four_symbolic"] += sa == sb == 2
                kinds["non_convex"] += not is_relatively_nef(b)
                kinds["log_weighted_rational"] += not (sa or sb) and any(
                    v != ARCH for v in a.places + b.places)
        assert all(k >= 8 for k in kinds.values()), kinds


class TestIntegerJets:
    """adeg_product reads rational breakpoints as integer jets, so it forms
    no Fraction slope, no chord and no value of the field route
    (``_values_on_grid`` and the chord slopes ``_slope``), and refuses
    breakpoints outside Q."""

    def test_rational_breakpoints_form_no_field_jet(self, monkeypatch):
        cases = [(slant_divisor(), tent_divisor()), (kinked_slant(), ample_reference()),
                 (slant_divisor() + p_slant_divisor(2), height_shift(1))]
        for seed in range(20):
            cases += TestIntersectionRoutes._instance(seed)
        assert sum(_symbolic_tails(a) + _symbolic_tails(b) > 0 for a, b in cases) >= 10
        want = [_operator_adeg_product(a, b) for a, b in cases]

        def refuse(*args):
            raise AssertionError("a field jet was formed")

        monkeypatch.setattr(pa, "_slope", refuse)
        monkeypatch.setattr(pa, "_on_line", refuse)
        monkeypatch.setattr(pa, "_values_on_grid", refuse)
        got = [adeg_product(a, b) for a, b in cases]
        assert [[type(x), repr(x)] for x in got] == [[type(x), repr(x)] for x in want]

    def test_breakpoints_outside_q_raise(self):
        # a nef divisor with a breakpoint at log 2, which only a library
        # caller can build: its volume takes the object route, and its
        # intersection numbers and thresholds have no integer pass
        pot = ConvexPA([(F(0), F(1)), (log_unit(2), 1 + log_unit(2) / 2)], -1, 1)
        a = ToricAdelicDivisor(1, 1, {ARCH: pot})
        assert is_nef(a) and avol(Pair(a)) == 4 - log_unit(2) / 4
        for b in (a, slant_divisor(), tent_divisor(), p_slant_divisor(3)):
            for x, y in ((a, b), (b, a)):
                with pytest.raises(ValueError, match="outside Q") as info:
                    adeg_product(x, y)
                assert "\n" not in str(info.value)
        for pair, n in ((Pair(a), slant_divisor()), (Pair(slant_divisor()), a)):
            with pytest.raises(ValueError, match="outside Q"):
                pseff_threshold(pair, n)


class TestSumVolume:
    """avol(p1 + p2) read off the line kernel at t = 1, with the summed
    base orders."""

    def test_matches_the_sum_pair(self):
        rng = random.Random(33)
        for i in range(40):
            p1, p2 = (sample_big_pair(rng, allow_finite=i % 2 == 1) for _ in range(2))
            got, want = positivity._sum_volume(p1, p2), avol(p1 + p2)
            assert [type(got), repr(got)] == [type(want), repr(want)], i

    def test_symbolic_tails_fall_back_to_the_sum_pair(self, monkeypatch):
        # a Zariski positive part whose region ends involve log p has no
        # volume pass along any line; its sum volume is avol(p1 + p2)
        for seed in range(1, 40, 2):
            positive = TestIntersectionRoutes._instance(seed)[0][0]
            if _symbolic_tails(positive):
                break
        p1, p2 = Pair(positive), Pair(tent_divisor(), BaseCondition({"0": F(1, 2)}))
        with pytest.raises(ValueError, match="outside Q"):
            positivity._Line(Pair(positive, p2.base), tent_divisor()).volume(F(1))
        got, want = positivity._sum_volume(p1, p2), avol(p1 + p2)
        assert "log(" in repr(got)
        assert [type(got), repr(got)] == [type(want), repr(want)]

        # the four tails are read first, so in either position the positive
        # part goes to avol(p1 + p2) without building a line
        def refuse(*args):
            raise AssertionError("a line was built")

        monkeypatch.setattr(positivity, "_Line", refuse)
        for a, b in ((p1, p2), (p2, p1)):
            got, want = positivity._sum_volume(a, b), avol(a + b)
            assert [type(got), repr(got)] == [type(want), repr(want)]


class TestPositiveIntersection:
    def test_exact_values(self):
        O = height_shift(1)
        assert positive_intersection(slant_divisor(), O) == 1
        assert positive_intersection(half_zero_pair(), O) == F(1, 2)
        assert positive_intersection(Pair(lowered_slant()), O) == F(1, 2)


class TestBracket:
    def test_exact(self):
        b = Bracket(F(1, 2), F(1, 2))
        assert b.exact and b.value == F(1, 2)
        assert float(b) == 0.5
        assert repr(b) == "Bracket(1/2)"

    def test_interval(self):
        b = Bracket(F(1, 4), F(1, 2))
        assert not b.exact
        assert b.value == F(3, 8)
        assert "1/4" in repr(b) and "1/2" in repr(b)

    def test_reciprocal(self):
        b = Bracket(F(1, 4), F(1, 2))
        r = b.reciprocal()
        assert (r.lo, r.hi) == (2, 4)
        with pytest.raises(ValueError):
            Bracket(F(0), F(1)).reciprocal()


def _inradius(pair1, pair2):
    """DiskantReport.r: the threshold of pair1 against the positive part of
    pair2 (the circumradius R is the reciprocal with the roles swapped)."""
    return pseff_threshold(pair1, zariski_positive_part(pair2).positive)


class TestThresholds:
    def test_inradius_circumradius_frozen(self):
        E1, E2 = Pair(slant_divisor()), Pair(tent_divisor())
        r = _inradius(E1, E2)
        assert r.exact and r.value == F(1, 2)
        r = _inradius(E2, E1)
        assert r.exact and r.value == 1
        R = _inradius(E2, E1).reciprocal()
        assert R.exact and R.value == 1

    def test_threshold_direct(self):
        t = pseff_threshold(Pair(slant_divisor()), tent_divisor())
        assert t.exact and t.value == F(1, 2)

    def test_proportional(self):
        E1 = Pair(slant_divisor())
        assert _inradius(E1, E1.scale(2)).value == F(1, 2)
        assert _inradius(E1.scale(2), E1).reciprocal().value == F(1, 2)

    def test_diskant_of_one_pair_object(self):
        # the CLI passes one object for two equal scene paths; what that
        # pair keeps from the first threshold must not change the second
        pair = Pair(tent_divisor() + p_slant_divisor(2) + p_slant_divisor(3),
                    BaseCondition({"0": F(1, 4)}))
        payload = pair.to_payload()
        one = Pair.from_payload(payload)
        same = diskant_report(one, one)
        apart = diskant_report(Pair.from_payload(payload),
                               Pair.from_payload(payload))
        assert repr(same) == repr(apart)
        assert same.all_pass and same.r.value == 1

    def test_finite_place_fixtures(self):
        L2, L3 = log_unit(2), log_unit(3)
        pair = Pair(slant_divisor() + p_slant_divisor(2) + p_slant_divisor(3))
        t = pseff_threshold(pair, tent_divisor())
        assert t.exact and t.value == (1 + 3 * L2 + 3 * L3) / (1 + 2 * L2 + 2 * L3)
        # inside the rational bracket of width < 2^-40 that a bisection
        # search returns for this threshold
        assert F(2015761234894429860481416320686468104421849,
                 1449235500744553246072113739326038177506560) <= t.value
        assert t.value <= F(1892036, 1360283)

        pos = zariski_positive_part(Pair(slant_divisor() + p_slant_divisor(2))).positive
        t = pseff_threshold(Pair(tent_divisor()), pos)
        assert t.exact and t.value == 2 / (3 + 2 * L2)
        assert F(395983, 868449) <= t.value
        assert t.value <= F(65146745384926309, 142876400963484840)

    @pytest.mark.parametrize("finite", [False, True])
    def test_sampled_thresholds_are_certified(self, finite):
        # at the threshold the twisted pair is pseudo-effective on the edge:
        # its roof maximum is zero, or its window has shrunk to a point
        rng = random.Random(f"threshold:{finite}")
        for _ in range(12):
            pair = sample_big_pair(rng, allow_finite=finite)
            n = sample_nef_divisor(rng, allow_finite=finite)
            if not is_big(Pair(n)):
                continue
            t = pseff_threshold(pair, n)
            assert t.exact
            twisted = Pair(pair.divisor + n.scale(-t.value), pair.base)
            window = twisted.shifted_polytope()
            assert not window.is_empty
            top = twisted.global_roof().max_over_domain()
            assert top >= 0
            assert window.is_point or top == 0

    def test_guards(self):
        E1 = Pair(slant_divisor())
        with pytest.raises(NotBig):
            pseff_threshold(Pair(height_shift(1)), tent_divisor())
        with pytest.raises(NotNef):
            pseff_threshold(E1, slant_divisor() - height_shift(1))
        with pytest.raises(NotNef):
            # nef but volume zero: scaling it changes nothing, so no finite sup
            pseff_threshold(E1, height_shift(1))


def _line_by_line_threshold(pair, n):
    """The threshold with each line's roof built as a PA function: the span
    as the nonnegative region of two affine functions on [0, top], the roof
    along the line as a weighted sum of Legendre roofs of convex envelopes,
    and the line's value as the top of that sum's nonnegative region.  The
    best line is the first one listed with the largest value."""
    d = pair.divisor
    v0, vinf = pair._toric_orders()
    lo0, hi0 = -d.cinf + v0, d.c0 - vinf
    top = (hi0 - lo0) / n.degree
    data = []
    for place in dict.fromkeys((ARCH,) + d.places + n.places):
        pd, pn = d.potential(place), n.potential(place)
        us = _grid((u for u, _ in pd.points), (u for u, _ in pn.points))
        weight = F(1) if place == ARCH else log_unit(place)
        data.append((weight, [(u, pd.eval(u), pn.eval(u)) for u in us]))
    lines = [(lo0, n.cinf), (hi0, -n.c0)]
    for _, rows in data:
        for i, (u, a, b) in enumerate(rows):
            for u2, a2, b2 in rows[i + 1:]:
                lines.append(((a2 - a) / (u2 - u), (b - b2) / (u2 - u)))
    best = None
    for A, B in lines:
        span = Interval(0, top)
        for slope, at0 in ((B - n.cinf, A - lo0), (-B - n.c0, hi0 - A)):
            edge = ConcavePA([(0, at0), (top, at0 + slope * top)])
            span = span.intersect(edge.nonneg_region())
        if span.is_empty:
            continue
        roof = None
        for weight, rows in data:
            # t -> min over rows of a - t * w: the Legendre roof of the
            # convex envelope of the points (w, a), lowest a per w
            pieces = sorted(((b + B * u, a - A * u) for u, a, b in rows),
                            key=lambda p: p[0])
            pts = [pieces[0]]
            for w, a in pieces[1:]:
                if w != pts[-1][0]:
                    pts.append((w, a))
                elif a < pts[-1][1]:
                    pts[-1] = (w, a)
            envelope = convex_envelope(PAGeneral(pts, span.lo, span.hi))
            part = ConcavePA([(u, weight * y)
                              for u, y in legendre_roof(envelope).points])
            roof = part if roof is None else roof + part
        region = roof.nonneg_region()
        if not region.is_empty and (best is None or region.hi > best):
            best = region.hi
    return best


def _assert_matches_line_by_line(pair, n):
    got = pseff_threshold(pair, n)
    want = _line_by_line_threshold(pair, n)
    assert got.lo == got.hi == want
    assert type(got.lo) is type(want)
    if isinstance(want, F):
        assert repr(got.lo) == repr(want)
    return got.value


def _spy_steps(mp, pair, n) -> list:
    """Spy on every Newton step of thresholds of this pair against n: the
    top that the line kernel reads at -t must be that of the twisted pair
    D - t n built as objects, its maximum and argmax in value, repr and
    type, and so must where the argmax lies: "point" (the window is a
    point), "lower" or "upper" (a window edge), "interior" (a kink inside
    the window) or "flat" (the midpoint of a flat top).  Returns the steps
    as (maximum as an ExactNumber, where), filled as the steps run."""
    original = positivity._Line.top
    steps = []

    def spy(line, t):
        x, g, where = original(line, t)
        roof = Pair(pair.divisor + n.scale(t), pair.base).global_roof()
        want_x, want_g = ref_argmax(roof)
        pts = roof.points
        want = ("point" if len(pts) == 1 else "lower" if want_x == pts[0][0]
                else "upper" if want_x == pts[-1][0]
                else "interior" if any(want_x == u for u, _ in pts) else "flat")
        assert (x, g, where) == (want_x, want_g, want)
        assert [type(x), type(g), repr(x), repr(g)] == [
            type(want_x), type(want_g), repr(want_x), repr(want_g)]
        steps.append((exact(g), where))
        return x, g, where

    mp.setattr(positivity._Line, "top", spy)
    return steps


def _two_kink_pair() -> Pair:
    """Potential through (-1, 0) and (1, 1) with slopes -1, 1/2, 1: against
    tent the threshold 1/2 lies on a window edge, one Newton step from the
    top, where the window is a point."""
    pot = ConvexPA([(F(-1), F(0)), (F(1), F(1))], -1, 1)
    return Pair(ToricAdelicDivisor(1, 1, {ARCH: pot}))


def _plateau_pair() -> Pair:
    """Potential through (-1, 1), (0, 1) and (1, 2): against slant + 1 the
    threshold 1/2 takes two Newton steps, the second from a flat top of the
    twisted roof."""
    pot = ConvexPA([(F(-1), F(1)), (F(0), F(1)), (F(1), F(2))], -1, 1)
    return Pair(ToricAdelicDivisor(1, 1, {ARCH: pot}))


def _lower_edge_case():
    """A pair whose twisted roof falls across the window, against a nef
    divisor whose polytope [1/4, 5/6] moves the window's lower edge up as t
    falls: the second step starts from the lower edge."""
    pot = ConvexPA([(F(2), F(3)), (F(4), F(2))], -7, 1)
    pot_n = ConvexPA([(F(5, 4), F(13, 5))], F(1, 4), F(5, 6))
    return (Pair(ToricAdelicDivisor(1, 7, {ARCH: pot})),
            ToricAdelicDivisor(F(5, 6), F(-1, 4), {ARCH: pot_n}))


def _upper_edge_case():
    """A pair whose twisted roof rises across the window: the second step
    starts from the window's upper edge."""
    pot = ConvexPA([(F(-7, 3), F(3, 8)), (F(-2), F(-49, 240))], -2, F(4, 5))
    pot_n = ConvexPA([(F(-7, 4), F(0))], 0, F(6, 5))
    return (Pair(ToricAdelicDivisor(F(4, 5), 2, {ARCH: pot})),
            ToricAdelicDivisor(F(6, 5), 0, {ARCH: pot_n}))


def _crossing_case():
    """A pair whose slope rate peaks where two active rows of the
    archimedean place cross, not at delta = 0 or at a window bound."""
    pot = ConvexPA([(F(-3, 4), F(16)), (F(1), F(1789, 96))], F(-3, 7), F(8, 3))
    pot_n = ConvexPA([(F(-4), F(13))], F(1, 3), F(1, 2))
    return (Pair(ToricAdelicDivisor(F(8, 3), F(3, 7), {ARCH: pot})),
            ToricAdelicDivisor(F(1, 2), F(-1, 3), {ARCH: pot_n}))


def _newton_starts(monkeypatch, pair, n):
    """pseff_threshold(pair, n) and, for each Newton step it takes, where
    the argmax of the twisted roof lies (``_spy_steps``)."""
    steps = _spy_steps(monkeypatch, pair, n)
    t = pseff_threshold(pair, n)
    return t, [where for top, where in steps if top < 0]


def _cap_divisor(digits=None, seed=0, k=48) -> ToricAdelicDivisor:
    """The scene that CI runs at the breakpoint cap: degree 2, a convex
    archimedean potential with k breakpoints at u = i/3 and slopes spread
    over (-1, 1).  With digits, each coordinate moves by a random rational
    with a denominator of that many digits, too little to break convexity."""
    rng = random.Random(seed)
    y, pts = F(1 + k), []
    for i in range(k):
        if i:
            y += (F(-1) + F(2 * i, k + 1)) / 3
        pts.append([F(i, 3), y])
    if digits:
        for pt in pts:
            for j in (0, 1):
                den = rng.randrange(10 ** (digits - 1), 10 ** digits)
                pt[j] += F(rng.randrange(1, 10 ** (digits - 5)), den)
    return ToricAdelicDivisor(1, 1, {ARCH: ConvexPA(pts, -1, 1)})


class TestThresholdNewton:
    """pseff_threshold against the line-by-line PA construction, and the
    Newton steps on the maximum of the twisted roof."""

    @given(st.integers(0, 2**32), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_matches_line_by_line(self, seed, finite):
        rng = random.Random(seed)
        pair = sample_big_pair(rng, allow_finite=finite)
        n = sample_nef_divisor(rng, allow_finite=finite)
        other = sample_big_pair(rng, allow_finite=finite)
        d = sample_divisor(rng, allow_finite=finite, convex=False)
        # a sampled nef divisor, the positive part that inradius uses, and
        # a pair with a non-convex potential
        cases = [(pair, n), (pair, zariski_positive_part(other).positive)]
        if is_big(Pair(d)):
            cases.append((Pair(d), n))
        for p, m in cases:
            if is_big(Pair(m)):
                with pytest.MonkeyPatch.context() as mp:
                    steps = _spy_steps(mp, p, m)
                    _assert_matches_line_by_line(p, m)
                assert steps

    def test_kernel_roofs_at_finite_places(self, monkeypatch):
        # steps whose rows carry log p weights: with a base condition and a
        # direction canonical at 2; against the pair's own positive part,
        # where t = 1 makes the finite places canonical; and with both
        # archimedean potentials canonical, where the twisted one is too
        pair = Pair(tent_divisor() + p_slant_divisor(2) + p_slant_divisor(3),
                    BaseCondition({"0": F(1, 4)}))
        finite = Pair(p_slant_divisor(2) + p_slant_divisor(3))
        cases = [(pair, slant_divisor() + height_shift(1)),
                 (pair, tent_divisor() + p_slant_divisor(3)),
                 (pair, zariski_positive_part(pair).positive),
                 (finite, p_slant_divisor(2) + p_slant_divisor(3).scale(2))]
        tops = []
        for p, n in cases:
            with monkeypatch.context() as mp:
                steps = _spy_steps(mp, p, n)
                _assert_matches_line_by_line(p, n)
            assert steps
            tops += [top for top, _ in steps]
        assert sum(not top.is_rational for top in tops) >= 3

    def test_window_shrinks_to_a_point(self):
        pair, n = Pair(slant_divisor()), slant_divisor().scale(2)
        t = _assert_matches_line_by_line(pair, n)
        assert t == F(1, 2)
        twisted = Pair(pair.divisor + n.scale(-t), pair.base)
        assert twisted.shifted_polytope().is_point

    @pytest.mark.parametrize("pair, n", [
        (_two_kink_pair(), tent_divisor()),
        (_plateau_pair(), slant_divisor() + height_shift(1)),
    ])
    def test_top_on_a_window_edge(self, pair, n):
        t = _assert_matches_line_by_line(pair, n)
        assert t == F(1, 2)
        twisted = Pair(pair.divisor + n.scale(-t), pair.base)
        window = twisted.shifted_polytope()
        roof = twisted.global_roof()
        assert not window.is_point and roof.max_over_domain() == 0
        assert 0 in (roof.eval(window.lo), roof.eval(window.hi))

    def test_kink_line_with_log_weights(self):
        # the top lies on a kink line of F, two Newton steps from the top,
        # the second from a kink inside the window
        pair = Pair(tent_divisor() + p_slant_divisor(2))
        t = _assert_matches_line_by_line(pair, slant_divisor() + height_shift(1))
        assert t == (1 + log_unit(2)) / 2

    def test_newton_takes_two_steps(self, monkeypatch):
        # g(2) = -4 where the window is a point; the step lands at 2/3,
        # where g = -1/3 on a flat top, and the next one at the zero 1/2
        t, starts = _newton_starts(monkeypatch, _plateau_pair(),
                                   slant_divisor() + height_shift(1))
        assert t == Bracket(F(1, 2), F(1, 2))
        assert starts == ["point", "flat"]

    def test_newton_stops_at_once(self, monkeypatch):
        # the window shrinks to a point at t = 1/2, where the twisted roof
        # is 0: the top is the threshold, and no step is taken
        t, starts = _newton_starts(monkeypatch, Pair(slant_divisor()),
                                   slant_divisor().scale(2))
        assert t.value == F(1, 2) and starts == []

    @pytest.mark.parametrize("case, starts", [
        ((_two_kink_pair(), tent_divisor()), ["point"]),
        (_lower_edge_case(), ["point", "lower"]),
        (_upper_edge_case(), ["point", "upper"]),
        ((Pair(tent_divisor() + p_slant_divisor(2)),
          slant_divisor() + height_shift(1)), ["point", "interior"]),
        (_crossing_case(), ["point", "interior"]),
        ((_plateau_pair(), slant_divisor() + height_shift(1)),
         ["point", "flat"]),
    ])
    def test_each_branch_of_the_slope_rule(self, monkeypatch, case, starts):
        # the slope is read off the active rows at the argmax, with the
        # moves that keep it in the window: free inside, bounded at an edge
        # and at both ends of a point window
        pair, n = case
        t, got = _newton_starts(monkeypatch, pair, n)
        assert got == starts
        assert t.lo == _line_by_line_threshold(pair, n)

    def test_newton_steps_build_no_roof(self, monkeypatch):
        # every Newton step reads the top and its slope off one pass, on
        # integers or on integer polynomials in the logs (a t in Q(log p),
        # tails in Q(log p)), and the guards read the ends of the divisor's
        # roof: no roof, envelope, Legendre roof, roof sum or
        # restriction is built once the pair's volume is known
        cases = [(Pair(slant_divisor()), tent_divisor()),
                 (Pair(tent_divisor()), slant_divisor()),
                 (Pair(slant_divisor()), slant_divisor().scale(2)),
                 (_two_kink_pair(), tent_divisor()),
                 (_plateau_pair(), slant_divisor() + height_shift(1)),
                 _lower_edge_case(), _upper_edge_case(), _crossing_case(),
                 (Pair(slant_divisor() + p_slant_divisor(2)), tent_divisor()),
                 (Pair(_cap_divisor()),
                  zariski_positive_part(Pair(_cap_divisor(digits=6, seed=1))).positive)]
        rng = random.Random("rational-steps")
        for _ in range(20):
            pair = sample_big_pair(rng, allow_finite=False)
            cases.append((pair, zariski_positive_part(sample_big_pair(rng, allow_finite=False))
                          .positive))
        # both thresholds of the 60 Diskant reports with finite places
        # allowed, seeds 0-59, and of the positive-part records of
        # tests/test_exact_reprs.py, a positive part with tails in Q(log p)
        # as the first pair and as the second
        pairs = []
        for seed in range(60):
            rng = random.Random(seed)
            pairs.append((sample_big_pair(rng), sample_big_pair(rng)))
        for seed in range(20):
            rng = random.Random(f"positive-part-reprs:{seed}")
            while True:
                positive = zariski_positive_part(sample_big_pair(rng)).positive
                if _symbolic_tails(positive):
                    break
            q = sample_big_pair(rng)
            pairs += [(Pair(positive), q), (q, Pair(positive))]
        for p1, p2 in pairs:
            z1, z2 = (zariski_positive_part(p).positive for p in (p1, p2))
            cases += [(p1, z2), (p2, z1)]
        for pair, _ in cases:
            avol(pair)
        want = [repr(pseff_threshold(pair, n)) for pair, n in cases]
        assert sum("log(" in w for w in want) >= 120

        def refuse(*args):
            raise AssertionError("a Newton step or a guard built a roof")

        for owner, name in ((ConcavePA, "restrict"),
                            (Pair, "global_roof"), (divisors, "_roof_sum"),
                            (pa, "convex_envelope"), (pa, "legendre_roof")):
            monkeypatch.setattr(owner, name, refuse)
        assert [repr(pseff_threshold(pair, n)) for pair, n in cases] == want

    # recorded with the kink-line search that this Newton search replaced
    _CAP_FROZEN = [
        ("ci", "r6", F(34075546555264000652635, 34075596792198509085509)),
        ("r6", "ci", F(60217641943540, 60217648397767)),
    ]

    @pytest.mark.parametrize("first, second, want", _CAP_FROZEN)
    def test_cap_size_pairs_frozen(self, first, second, want):
        # the CI scene and a 6-digit random potential, 48 breakpoints each
        scenes = {"ci": _cap_divisor(), "r6": _cap_divisor(digits=6, seed=1)}
        got = _inradius(Pair(scenes[first]), Pair(scenes[second]))
        assert got.lo == got.hi == want
        assert repr(got.lo) == repr(want)

    def test_cap_size_pair_with_a_finite_place_frozen(self):
        pair = Pair(_cap_divisor() + p_slant_divisor(2))
        got = _inradius(pair, Pair(_cap_divisor(digits=6, seed=1))).value
        L2 = log_unit(2)
        assert got == ((4337360732481 + 265552697907 * L2)
                       / (4337361949181 + 177035131938 * L2))
        assert repr(got) == ("(4337360732481 + 265552697907*log(2))/"
                             "(4337361949181 + 177035131938*log(2))")


def _e(a, b=0, c=0) -> _Eps:
    return _Eps((a, b, c))


class TestEps:
    """The integers a + b eps of the line kernel's jets: eps is a positive
    infinitesimal, so the order is lexicographic, and a value at finite
    places, a form in the logs over them, takes the sign of its layer 0,
    read by the ladder of ``exactnum._poly_sign``, and of its layer 1 only
    when layer 0 vanishes."""

    def test_order(self):
        eps = _e(0, 1)
        assert eps > 0 and -eps < 0 and eps < 1 and 0 < eps and not eps - eps
        # below every positive integer, however large its eps layer
        assert _e(-1, 2**1000) < 0 and _e(1, -2**1000) > 0
        assert 0 < eps * eps < eps and eps * eps == (0, 0, 1)
        assert _e(2, 10**9) < _e(3, -1) < _e(3) < _e(3, 1) <= _e(3, 1)
        assert _e(3, 1) >= _e(3) >= 3 and _e(3, -1) <= 3
        assert sorted([_e(3, 1), _e(2, 5), _e(3, -1)]) == [(2, 5, 0), (3, -1, 0), (3, 1, 0)]
        assert len({_e(2, 5), _e(2, 5), _e(2, 4)}) == 2
        assert 3 - 2 * eps + _e(1, 1) == (4, -1, 0)
        assert (1 + eps) * (1 - eps) == (1, 0, -1)

    @pytest.mark.parametrize("poly, want", [
        # L2 - eps: layer 0 decides
        ({(): _e(0, -1), (2,): _e(1)}, 1),
        # (L3 - L2) - 5 eps
        ({(): _e(0, -5), (2,): _e(-1), (3,): _e(1)}, 1),
        # 1585 L2 - 1000 L3 > 0 by 0.026: the ladder reads layer 0, and
        # layer 1, 1000 (L2 - L3) < 0, is never read
        ({(2,): _e(1585, 1000), (3,): _e(-1000, -1000)}, 1),
        # 3 (L2 - L3) < 0, though layer 1, 1000 - L2, is positive
        ({(): _e(0, 1000), (2,): _e(3, -1), (3,): _e(-3)}, -1),
        # layer 0 vanishes: (L2 - L3) eps < 0
        ({(2,): _e(0, 1), (3,): _e(0, -1)}, -1),
        ({(): _e(0, -2), (3,): _e(0, 2)}, 1),
        ({}, 0),
    ])
    def test_layered_sign_at_finite_places(self, poly, want):
        assert pa._layered_sign(poly) == want
