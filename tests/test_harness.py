"""Verification harness: finite-difference derivative reports, the Diskant
inequality chain, the random samplers, and the named property suites.

The central fixture is the volume of slant + r * shift, which equals
1 + 2r for r >= 0 and (1 + r)^2 for r < 0: differentiable at 0 with
derivative 2, but with a curvature jump.  The central difference at step h
is 2 - h/2, so the reported relative deviation at the reference step 2^-10
is exactly (2^-11) / 3 = 1/6144.
"""

import hashlib
import json
import linecache
import math
import random
import sys
from fractions import Fraction

import pytest

from adelic_volumes import divisors, exactnum, harness, pa, positivity
from adelic_volumes.divisors import ARCH, BaseCondition, Pair, ToricAdelicDivisor
from adelic_volumes.errors import NotBig, UnknownSuite
from adelic_volumes.exactnum import log_unit, scalar_float, scalar_sign
from adelic_volumes.gallery import (
    half_zero_pair,
    height_shift,
    p_slant_divisor,
    slant_divisor,
    tent_divisor,
)
from adelic_volumes.harness import (
    DEFAULT_HS,
    check_differentiability,
    diskant_report,
    run_suite,
    sample_big_pair,
    sample_derivative_instance,
    sample_direction,
    sample_divisor,
    sample_nef_divisor,
    suite_names,
)
from adelic_volumes.pa import ConvexPA
from adelic_volumes.positivity import _Line, avol, is_big, is_nef, zariski_positive_part

from operator_chain import ref_argmax, ref_integrate_positive_part

F = Fraction
L3 = log_unit(3)


class TestDerivativeReport:
    def test_slant_along_shift(self):
        rep = check_differentiability(Pair(slant_divisor()), height_shift(1))
        assert rep.analytic == 2
        assert rep.exact_right == 2 and rep.exact_left == 2
        assert rep.derivative == 2
        assert rep.deviation == F(1, 6144)
        # 1 + 2r on the right, (1 + r)^2 on the left: C^1 but not C^2
        assert rep.curvature_jump
        assert rep.quad_right == 0 and rep.quad_left == 1

    def test_table_rows(self):
        rep = check_differentiability(Pair(slant_divisor()), height_shift(1))
        assert len(rep.table) == len(DEFAULT_HS)
        row = rep.table[0]
        assert row.h == F(1, 16)
        assert row.forward == 2
        assert row.backward == 2 - row.h
        assert row.central == 2 - row.h / 2

    def test_base_condition_fixture(self):
        rep = check_differentiability(half_zero_pair(), height_shift(1))
        assert rep.derivative == 1 and rep.analytic == 1
        assert rep.deviation == F(1, 4096)
        assert rep.curvature_jump

    def test_smooth_direction(self):
        # along the pair itself the volume is (1 + r)^2 * avol: analytic on
        # both sides, central differences exact
        rep = check_differentiability(Pair(slant_divisor()), slant_divisor())
        assert rep.derivative == 2 and rep.analytic == 2
        assert rep.deviation == 0
        assert not rep.curvature_jump
        assert rep.quad_right == 1 == rep.quad_left

    def test_rejections(self):
        with pytest.raises(NotBig):
            check_differentiability(Pair(height_shift(1)), slant_divisor())

    def test_near_wall(self):
        # 2^-50 below the wall of the slant fixture: the volume is
        # (1 - 2^-50 + r)^2 for r < 2^-50, so both sides have derivative
        # 2 (1 - 2^-50) and t^2 coefficient 1; the old fit loop never
        # stabilised on the right within its 40 halvings
        pair = Pair(slant_divisor() - height_shift(F(1, 2**50)))
        rep = check_differentiability(pair, height_shift(1))
        assert rep.exact_right == rep.exact_left == 2 * (1 - F(1, 2**50))
        assert rep.quad_right == rep.quad_left == 1
        assert rep.derivative == rep.analytic
        assert not rep.curvature_jump

    def test_finite_places_without_gcd(self, monkeypatch):
        # the jets read the same coefficients when every gcd candidate is
        # rejected and the volumes stay uncancelled quotients
        def jets():
            pair = Pair(slant_divisor() + p_slant_divisor(2))
            direction = p_slant_divisor(3)
            line = _Line(pair, direction)
            return [line.jet(sign) for sign in (1, -1)]

        want = jets()
        monkeypatch.setattr(exactnum, "_zdivide", lambda f, h: None)
        got = jets()
        assert all(bool(a == b) for u, v in zip(want, got) for a, b in zip(u, v))
        assert want[0][2] == L3 and want[1][1] == -want[0][1]

    def test_clip_of_zero_width_at_zero(self):
        # along p_slant(3) - 1 the place at 3 breaks at x = 1 and the window
        # ends at 1 + t, where the roof is -t: at t = +eps the roof crosses
        # zero on [1, 1 + eps], a clipped segment of width 0 at t = 0, whose
        # end is read at the eps layer of its width
        pair, direction = Pair(slant_divisor()), p_slant_divisor(3) + height_shift(-1)
        line = _Line(pair, direction)
        (a1, b1, _), (a2, b2, _) = line._merged(positivity._Eps((0, 1, 0)), 1)[0][-2:]
        assert a1 == a2 and b1 < b2
        right, left = line.jet(1), line.jet(-1)
        assert right == [1, 2 * L3, (L3 * L3 - L3 - 1) / (1 + L3)]
        assert left == [1, -2 * L3, L3 * L3]
        for sign, jet in ((1, right), (-1, left)):
            fit = _fit_oracle(pair, direction, sign)
            assert all(bool(a == b) for a, b in zip(fit[1:], (sign * jet[1], jet[2])))
        rep = check_differentiability(pair, direction)
        assert rep.derivative == rep.analytic == 2 * L3 and rep.curvature_jump

    def test_refuses_a_line_outside_q(self):
        # the positive part's window ends at (1 + 2 log 2) / (1 + log 2)
        pair = Pair(slant_divisor() + p_slant_divisor(2) + height_shift(-1))
        positive = Pair(zariski_positive_part(pair).positive)
        with pytest.raises(ValueError, match="outside Q") as info:
            check_differentiability(positive, height_shift(1))
        assert "\n" not in str(info.value)


def _fit_oracle(pair, direction, sign):
    """The fit loop the jets replaced: quadratic interpolation on halved
    steps until two fits agree exactly, or None after 40 halvings."""
    def vol_at(r):
        return avol(Pair(pair.divisor + direction.scale(r), pair.base))

    v0 = vol_at(F(0))
    h, prev = F(1, 64), None
    for _ in range(40):
        y1, y2 = vol_at(sign * h / 2), vol_at(sign * h)
        b = (4 * y1 - y2 - 3 * v0) / (sign * h)
        a = 2 * (y2 - 2 * y1 + v0) / (h * h)
        if prev is not None and bool(b == prev[0]) and bool(a == prev[1]):
            return v0, b, a
        prev = (b, a)
        h = h / 2
    return None


def test_jets_match_the_fit_oracle():
    """150 seeded instances, no general-position filter: finite places, base
    conditions and non-convex directions included."""
    rng = random.Random(2024)
    compared = 0
    for _ in range(150):
        pair = sample_big_pair(rng)
        direction = sample_direction(rng)
        rep = check_differentiability(pair, direction)
        for sign, b, a in ((1, rep.exact_right, rep.quad_right),
                           (-1, rep.exact_left, rep.quad_left)):
            assert b is not None and a is not None
            fit = _fit_oracle(pair, direction, sign)
            if fit is None:
                continue
            assert bool(fit[0] == avol(pair)) and bool(fit[1] == b) and bool(fit[2] == a)
            compared += 1
    assert compared >= 290


def _outcome(f):
    """(type name, repr, the type names of its coordinates) of f(), a
    scalar or a roof, or the type of the exception it raises."""
    try:
        x = f()
    except Exception as exc:  # compared, not swallowed
        return type(exc)
    return (type(x).__name__, repr(x),
            [type(c).__name__ for pt in getattr(x, "points", ()) for c in pt])


def _three_place_pair() -> Pair:
    """The three-place scene of CI: degree 128 and 64 integer breakpoints
    (i, i^2 + s), i = -32 ... 31, at infinity (s = 2000), 2 and 3."""
    def parabola(s):
        return ConvexPA([(F(i), F(i * i + s)) for i in range(-32, 32)], -64, 64)

    return Pair(ToricAdelicDivisor(64, 64, {ARCH: parabola(2000), 2: parabola(0),
                                            3: parabola(0)}))


def _tents(lift, shared=False) -> ToricAdelicDivisor:
    """The tent 1 + max(|u| - 1, 0) at infinity and at 3, lifted by the
    constant lift at infinity: the tent divisor plus the tent carried at 3
    (coefficients (2, 2)), or, with shared, one divisor with the tent at
    both places (coefficients (1, 1)), whose roofs both break at 0."""
    tent = tent_divisor().potential(ARCH)
    if shared:
        return ToricAdelicDivisor(1, 1, {ARCH: tent, 3: tent}) + height_shift(lift)
    return tent_divisor() + ToricAdelicDivisor(1, 1, {3: tent}) + height_shift(lift)


def _steep400() -> ToricAdelicDivisor:
    """The steep scene of CI: coefficients (1, 0), potential
    1 + max(0, u - 10^400) at infinity."""
    return ToricAdelicDivisor(1, 0, {ARCH: ConvexPA([(F(10**400), F(1))], 0, 1)})


def _top(f):
    """The typed reprs of x and g of f(), an argmax (x, g) or the first two
    entries of ``_Line.top``, or the type of the exception it raises."""
    try:
        return [[type(v).__name__, repr(v)] for v in f()[:2]]
    except Exception as exc:  # compared, not swallowed
        return type(exc)


class TestLineKernel:
    """The line kernel against the pair built as objects: volume(t) is
    avol(Pair(D + tE, base)) and top(t)[:2] the argmax of its global roof,
    in value, type and repr, and each raises what the pair raises."""

    @staticmethod
    def _steps(pair, direction, rng) -> list:
        """The table's steps, six random rationals and, when E has a
        nonzero degree, the t where the window is a point and one past it,
        where it is empty; the window's width does not move with t
        otherwise."""
        ts = [s * h for h in DEFAULT_HS for s in (1, -1)]
        ts += [F(rng.randint(-64, 64), rng.randint(1, 64)) for _ in range(6)]
        deg = direction.degree
        if deg:
            window = pair.shifted_polytope()
            point = -(window.hi - window.lo) / deg
            ts += [point, point - 1 / deg]
        return ts

    @staticmethod
    def _check(pair, direction, ts) -> int:
        """Compare at every t; returns how many volumes were zero.  avol and
        the volume pass share their integral (``pa._twice_area``), so the
        volume is also checked against twice the operator-chain integral of
        the built roof, which shares no code with it."""
        line = _Line(pair, direction)
        zeros = 0
        for t in ts:
            built = Pair(pair.divisor + direction.scale(t), pair.base)
            want = _outcome(lambda: avol(built))
            assert _outcome(lambda: line.volume(t)) == want, (pair, direction, t)
            window = built.shifted_polytope()
            if not (window.is_empty or window.is_point):
                chain = _outcome(lambda: 2 * ref_integrate_positive_part(built.global_roof()))
                assert want == chain, (pair, direction, t)
            assert (_top(lambda: line.top(t))
                    == _top(lambda: ref_argmax(built.global_roof()))), (pair, direction, t)
            zeros += want == ("Fraction", repr(F(0)), [])
        return zeros

    @pytest.mark.parametrize("block", range(3))
    def test_sampled_lines(self, block):
        # 3 x 100 sampled lines, finite places on odd seeds
        finite = zeros = empty = 0
        for seed in range(100 * block, 100 * (block + 1)):
            rng = random.Random(f"line-kernel:{seed}")
            pair = sample_big_pair(rng, allow_finite=seed % 2 == 1)
            direction = sample_direction(rng, allow_finite=seed % 2 == 1)
            finite += bool(set(pair.divisor.places + direction.places) - {ARCH})
            ts = self._steps(pair, direction, rng)
            empty += len(ts) > 24
            zeros += self._check(pair, direction, ts)
        assert finite >= 20 and empty >= 40 and zeros >= 2 * empty

    @pytest.mark.parametrize("pair, direction, extra", [
        (Pair(slant_divisor() + p_slant_divisor(2)), p_slant_divisor(3), ()),
        (_three_place_pair(), _three_place_pair().divisor, ()),
        # at t = 0 the window [-1, 1] ends on the roof breakpoints -1 and 1
        # of two places
        (Pair(_tents(0), BaseCondition({"0": 1, "inf": 1})),
         p_slant_divisor(2), (F(0),)),
        # at t = 0 the places at infinity and 3 break at x = 1, inside the
        # window [-1, 2]
        (Pair(_tents(0), BaseCondition({"0": 1})), p_slant_divisor(2), (F(0),)),
        # at t = 0 the roof (1/2 - |x|) + log 3 (1 - |x|) is nonnegative at
        # its one breakpoint 0 alone: both ends clipped, no whole segment
        (Pair(_tents(F(-1, 2), shared=True)), p_slant_divisor(2), (F(0),)),
        # at t = 0 every value on the window [-2, 2] is negative
        (Pair(_tents(-5)), p_slant_divisor(2), (F(0),)),
        # the base orders make the window the point 0 at t = 0
        (Pair(_tents(0), BaseCondition({"0": 2, "inf": 2})),
         p_slant_divisor(2), ()),
        # 400-digit rows at two places, either way round
        (Pair(_steep400()), slant_divisor() + p_slant_divisor(2), ()),
        (Pair(slant_divisor() + p_slant_divisor(2)), _steep400(), ()),
    ], ids=["slant_p2_along_p3", "three_places_along_itself", "window_ends_on_breakpoints",
            "shared_breakpoint", "both_ends_clipped", "all_negative", "point_window",
            "steep400_along_slant_p2", "slant_p2_along_steep400"])
    def test_finite_place_lines(self, pair, direction, extra):
        ts = self._steps(pair, direction, random.Random(0))
        assert len(ts) == 26
        assert self._check(pair, direction, ts + list(extra)) >= 2

    def test_tops_off_q(self):
        # the pass on integer polynomials in the logs: a Zariski positive
        # part with tails in Q(log p) as the pair, as the direction and as
        # both, and a rational line, each at rational t and at t in Q(log p)
        rng = random.Random("line-kernel-ring")
        L2, L3 = log_unit(2), log_unit(3)
        ts = [Fraction(0), Fraction(1, 3), Fraction(-1, 5), L2 / 7, -(1 + L3) / (3 + L2),
              (L2 - L3) / 2]
        lines = tops = 0
        while lines < 24:
            positive = zariski_positive_part(sample_big_pair(rng)).positive
            if all(type(c) is Fraction for c in (positive.c0, positive.cinf)):
                continue
            other = sample_big_pair(rng)
            for pair, direction in ((Pair(positive, other.base), other.divisor),
                                    (other, positive), (Pair(positive), positive),
                                    (other, sample_direction(rng))):
                line = _Line(pair, direction)
                for t in ts:
                    built = Pair(pair.divisor + direction.scale(t), pair.base)
                    want = _top(lambda: ref_argmax(built.global_roof()))
                    assert _top(lambda: line.top(t)) == want, (pair, direction, t)
                    tops += isinstance(want, list)
                lines += 1
            # volumes keep to rational data
            with pytest.raises(ValueError, match="outside Q"):
                _Line(other, positive).volume(Fraction(1))
        assert tops >= 100

    def test_rational_volume_builds_no_roof(self, monkeypatch):
        # a Fraction t on rational rows is one integer pass: the volume
        # builds no roof, summed, restricted or integrated, and the top of
        # the roof builds no place's roof and neither sums nor restricts
        # one; both jets are the same pass at t = +-eps and build no roof
        # either
        cases = [(half_zero_pair(), height_shift(1)),
                 (Pair(slant_divisor() + p_slant_divisor(2)), p_slant_divisor(3)),
                 (_three_place_pair(), _three_place_pair().divisor)]
        lines = [_Line(pair, direction) for pair, direction in cases]
        ts = [s * h for h in DEFAULT_HS for s in (1, -1)] + [F(0), F(-7, 3)]
        want = [repr(line.volume(t)) for line in lines for t in ts]
        jets = [repr(c) for line in lines for sign in (1, -1) for c in line.jet(sign)]
        built = [_outcome(lambda: ref_argmax(Pair(pair.divisor + direction.scale(t),
                                                  pair.base).global_roof()))
                 for pair, direction in cases for t in ts]

        def refuse(*args):
            raise AssertionError("the integer pass built a roof")

        with monkeypatch.context() as mp:
            for owner, name in ((divisors, "_roof_sum"), (pa.ConcavePA, "restrict"),
                                (pa, "convex_envelope"), (pa, "legendre_roof")):
                mp.setattr(owner, name, refuse)
            assert [_outcome(lambda: line.top(t)[:2]) for line in lines for t in ts] == built
        for owner, name in ((pa.ConcavePA, "_raw"), (pa.ConcavePA, "restrict"),
                            (divisors, "_roof_sum"), (positivity, "_twice_integral"),
                            (pa, "integrate_positive_part"), (pa, "_twice_integral"),
                            (pa, "convex_envelope"),
                            (pa, "legendre_roof")):
            monkeypatch.setattr(owner, name, refuse)
        assert [repr(line.volume(t)) for line in lines for t in ts] == want
        assert [repr(c) for line in lines for sign in (1, -1) for c in line.jet(sign)] == jets


class TestDiskantReport:
    def test_slant_vs_tent(self):
        rep = diskant_report(Pair(slant_divisor()), Pair(tent_divisor()))
        assert (rep.s0, rep.s1, rep.s2) == (2, 2, 1)
        assert rep.r.exact and rep.r.value == F(1, 2)
        assert rep.R.exact and rep.R.value == 1
        assert rep.all_pass
        assert all(c.slack >= 0 for c in rep.cases)
        assert rep.case("bonnesen").slack == F(7, 4)
        # the sqrt(disc) ends as signed squares: a |a| = 1 <= disc = 2 and
        # b |b| = 1 <= R^2 disc = 2
        assert rep.case("chain_lower_vs_r").slack == F(1)
        assert rep.case("chain_R_vs_upper").slack == F(1)
        assert all(type(c.slack) is F for c in rep.cases)
        # generic pair: no equality diagnostics
        names = [c.name for c in rep.cases]
        assert "equality_mixed_product" not in names
        with pytest.raises(KeyError):
            rep.case("nonesuch")

    def test_proportional_pair(self):
        E1 = Pair(slant_divisor())
        rep = diskant_report(E1, E1.scale(2))
        assert (rep.s0, rep.s1, rep.s2) == (4, 2, 1)
        assert rep.r.exact and rep.r.value == F(1, 2)
        assert rep.R.exact and rep.R.value == F(1, 2)
        assert rep.s1 / rep.s0 == rep.s2 / rep.s1 == F(1, 2)
        assert rep.s1 * rep.s1 == rep.s0 * rep.s2
        names = [c.name for c in rep.cases]
        assert "equality_mixed_product" in names and "equality_r_vs_R" in names
        assert rep.case("chain_lower_vs_r").slack == F(0)
        assert rep.case("chain_R_vs_upper").slack == F(0)
        assert all(type(c.slack) is F for c in rep.cases)
        assert rep.all_pass

    def test_identical_nef_pair(self):
        rep = diskant_report(Pair(tent_divisor()), Pair(tent_divisor()))
        assert (rep.s0, rep.s1, rep.s2) == (2, 2, 2)
        assert rep.r.value == 1 == rep.R.value
        assert rep.all_pass

    def test_negative_discriminant_fails_the_report(self, monkeypatch):
        # a mixed product of 1 for slant vs tent makes disc = 1 - 2 = -1: a
        # counterexample the report must fail, not crash on
        monkeypatch.setattr(harness, "adeg_product", lambda d1, d2: F(1))
        rep = diskant_report(Pair(slant_divisor()), Pair(tent_divisor()))
        assert rep.s1 * rep.s1 - rep.s0 * rep.s2 == -1
        failed = {c.name for c in rep.cases if not c.passed}
        assert {"mixed_discriminant_nonneg", "diskant", "chain_lower_vs_r",
                "chain_R_vs_upper"} <= failed
        assert not rep.all_pass

    @pytest.mark.parametrize("block", range(3))
    def test_signed_squares_keep_the_sqrt_decisions(self, block):
        # 3 x 60 sampled pairs, finite places on odd seeds, every 7th pair
        # proportional.  The reference is the rule the sqrt(disc) ends were
        # decided by before they became signed squares, and the sign of their
        # float slacks sqrt(v) - (u - r) and sqrt(v) - (R - u), v = disc / s0^2
        for seed in range(60 * block, 60 * (block + 1)):
            rng = random.Random(f"signed-squares:{seed}")
            finite = seed % 2 == 1
            p1 = sample_big_pair(rng, allow_finite=finite)
            if seed % 7 == 0:
                p2 = p1.scale(F(rng.randint(1, 6), rng.randint(1, 3)))
            else:
                p2 = sample_big_pair(rng, allow_finite=finite)
            rep = diskant_report(p1, p2)
            s0, s1, s2 = rep.s0, rep.s1, rep.s2
            r, big_r = rep.r.value, rep.R.value
            disc = s1 * s1 - s0 * s2
            a, b, u = s1 - r * s0, big_r * s1 - s2, s1 / s0
            sq = math.sqrt(scalar_float(disc / (s0 * s0)))
            for name, x, bound2, ref in (
                    ("chain_lower_vs_r", a, disc,
                     sq - scalar_float(u - r)),
                    ("chain_R_vs_upper", b, big_r * big_r * disc,
                     sq - scalar_float(big_r - u))):
                case = rep.case(name)
                assert case.passed == (scalar_sign(x) <= 0
                                       or scalar_sign(bound2 - x * x) >= 0)
                if math.isfinite(ref) and abs(ref) > 1e-9:
                    assert scalar_sign(case.slack) == (1 if ref > 0 else -1)


class TestDiskantReportBuildsNoSum:
    """The Brunn-Minkowski equality test of ``diskant_report`` reads
    avol(p1 + p2) off the line kernel: with every sum of pairs, divisors
    and convex potentials refused, the reports come out the same."""

    def test_reports_without_a_sum(self, monkeypatch):
        slant, tent = Pair(slant_divisor()), Pair(tent_divisor())
        pairs = [(slant, tent), (slant, slant.scale(2))]
        rng = random.Random("diskant-no-sum")
        pairs += [tuple(sample_big_pair(rng, allow_finite=False) for _ in range(2))
                  for _ in range(20)]

        def typed(rep):
            return [repr(x) for x in (rep.s0, rep.s1, rep.s2, rep.r, rep.R)] + [
                [c.name, type(c.slack), repr(c.slack)] for c in rep.cases]

        want = [typed(diskant_report(p1, p2)) for p1, p2 in pairs]

        def refuse(*args):
            raise AssertionError("a sum was built")

        for cls in (Pair, ToricAdelicDivisor, ConvexPA):
            monkeypatch.setattr(cls, "add", refuse)
            monkeypatch.setattr(cls, "__add__", refuse)
        got = [typed(diskant_report(Pair(p1.divisor, p1.base), Pair(p2.divisor, p2.base)))
               for p1, p2 in pairs]
        assert got == want
        assert ["equality_r_vs_R" in str(rep) for rep in got[:2]] == [False, True]


def _typed(x):
    return [type(x).__name__, repr(x)]


def _no_gcd(*args):
    raise AssertionError("the heuristic gcd ran")


def _gcd_sites(monkeypatch) -> list:
    """Patch ``exactnum._heu_gcd`` to record, for each top-level call, the
    function and source line outside ``exactnum`` that reached it."""
    sites, depth = [], [0]
    original = exactnum._heu_gcd

    def spy(*args):
        if not depth[0]:  # _heu_gcd recurses through the patched name
            frame = sys._getframe(1)
            while frame.f_code.co_filename == exactnum.__file__:
                frame = frame.f_back
            sites.append((frame.f_code.co_name,
                          linecache.getline(frame.f_code.co_filename, frame.f_lineno).strip()))
        depth[0] += 1
        try:
            return original(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(exactnum, "_heu_gcd", spy)
    return sites


class TestFactoredQuotients:
    """At finite places the suites' quotients have denominators that are
    products of affine forms in the logs, and ``exactnum`` cancels them by
    trial division: with the heuristic gcd patched to raise, the suites
    whose operands carry their factors run clean and give the results of an
    unpatched run, by typed repr."""

    @pytest.mark.parametrize("name, count, seed", [
        ("brunn_minkowski", 1, 10),  # pairs at 5 and at 2, 3 and infinity
        ("brunn_minkowski", 40, 1),
        ("superadditivity", 40, 1),
        ("zariski", 40, 1),  # the positive parts' roofs, through pa._chord
    ])
    def test_suites_without_the_gcd(self, monkeypatch, name, count, seed):
        want = run_suite(name, count=count, seed=seed)
        trials = []
        divide_out = exactnum._divide_out

        def counting(*args):
            trials.append(args)
            return divide_out(*args)

        monkeypatch.setattr(exactnum, "_heu_gcd", _no_gcd)
        monkeypatch.setattr(exactnum, "_divide_out", counting)
        got = run_suite(name, count=count, seed=seed)
        assert trials  # factored quotients were cancelled by trial division
        assert got.to_payload() == want.to_payload()
        assert _typed(got.worst_slack) == _typed(want.worst_slack)

    def test_derivative_differences_without_the_gcd(self, monkeypatch):
        # the sampler's second differences and the table's finite
        # differences of volumes over affine clip denominators
        def reports():
            rng = random.Random("factored-quotients")
            out = []
            for _ in range(30):
                pair, direction, central = sample_derivative_instance(rng)
                rep = check_differentiability(pair, direction)
                out.append([_typed(central), _typed(rep.analytic), _typed(rep.deviation)]
                           + [_typed(x) for row in rep.table
                              for x in (row.forward, row.backward, row.central)])
            return out

        want = reports()
        assert sum(")/(" in str(rec) for rec in want) >= 3
        monkeypatch.setattr(exactnum, "_heu_gcd", _no_gcd)
        assert reports() == want

    def test_sites_left_on_the_gcd(self, monkeypatch):
        # a divisor whose numerator is not affine and does not divide the
        # dividend's numerator brings factors that are not known: off general
        # position the deviation divides by 1 + |analytic|, and the Diskant
        # chain's u = s1 / s0 divides by s0, both of degree 2 or more over
        # affine forms
        sites = _gcd_sites(monkeypatch)
        rng = random.Random(0)
        for _ in range(60):
            pair, direction = sample_big_pair(rng), sample_direction(rng)
            rep = check_differentiability(pair, direction)
            if sites:
                break
        assert set(sites) == {("check_differentiability", "deviation = abs_scalar("
                               "central_ref - analytic) / (1 + abs_scalar(analytic))")}
        assert exactnum._pdegree((1 + abs(rep.analytic))._num) >= 2
        sites.clear()
        rng = random.Random("factored-quotients-diskant")
        for _ in range(20):
            p1, p2 = sample_big_pair(rng), sample_big_pair(rng)
            rep = diskant_report(p1, p2)
            if ("_field_cases", "u = s1 / s0") in sites:
                break
        assert ("_field_cases", "u = s1 / s0") in sites
        assert exactnum._pdegree(rep.s0._num) >= 2 and rep.s0._factors is not None


def _derivative_payload(rng):
    pair, direction, central = sample_derivative_instance(rng)
    return [pair.to_payload(), direction.to_payload(), str(central)]


def _fraction_sampler(rng, c0, cinf):
    """The potential sampler on Fractions, as it was before it drew its
    values as integers: every slope, breakpoint and value a Fraction,
    and each value through the field operators."""
    lo_s, hi_s = -cinf, c0
    cuts = sorted({F(rng.randint(1, 31), 32) for _ in range(rng.randint(0, 4))})
    slopes = [lo_s] + [lo_s + (hi_s - lo_s) * c for c in cuts] + [hi_s]
    us = set()
    while len(us) < len(slopes) - 1:
        us.add(F(rng.randint(-8, 8), rng.randint(1, 4)))
    us = sorted(us)
    pts = [(us[0], F(rng.randint(0, 16), rng.randint(1, 8)))]
    for u, s in zip(us[1:], slopes[1:]):
        x, y = pts[-1]
        pts.append((u, y + s * (u - x)))
    return ConvexPA._raw(pts, lo_s, hi_s)


class TestSamplers:
    def test_potential_sampler_matches_fraction_draws(self):
        # 3,000 draws of both samplers from one seed: equal potentials, in
        # the type and repr of every coordinate, and the same random state
        # after each draw
        rng, ref = random.Random("potential-sampler"), random.Random("potential-sampler")
        tails = random.Random("potential-sampler-tails")
        kinks = set()
        for _ in range(3000):
            c0 = cinf = F(0)
            while c0 + cinf <= 0:
                c0 = F(tails.randint(0, 12), tails.randint(1, 8))
                cinf = F(tails.randint(-4, 12), tails.randint(1, 8))
            got = harness.sample_convex_potential(rng, c0, cinf)
            want = _fraction_sampler(ref, c0, cinf)
            assert rng.getstate() == ref.getstate()
            assert [[type(z), repr(z)] for p in got.points for z in p] == \
                [[type(z), repr(z)] for p in want.points for z in p]
            assert (repr(got.left_slope), repr(got.right_slope)) == \
                (repr(want.left_slope), repr(want.right_slope))
            kinks.add(len(got.points))
        assert kinks == {1, 2, 3, 4, 5}

    def test_deterministic(self):
        a = sample_divisor(random.Random(7))
        b = sample_divisor(random.Random(7))
        assert a == b

    def test_big_pair_is_big(self):
        rng = random.Random(3)
        for _ in range(10):
            assert is_big(sample_big_pair(rng))

    def test_nef_sampler(self):
        rng = random.Random(5)
        for _ in range(10):
            assert is_nef(sample_nef_divisor(rng))

    def test_general_position_instance(self):
        pair, direction, central = sample_derivative_instance(random.Random(11))
        rep = check_differentiability(pair, direction)
        # general position means the volume is one quadratic piece across the
        # reference step, so the central difference hits the analytic value
        assert rep.deviation == 0
        assert rep.derivative is not None
        assert rep.derivative == rep.analytic
        assert central == rep.analytic

    def test_sampled_pair_keeps_its_volume(self, monkeypatch):
        # the volume at t = 0 is the sampled pair's own, measured by is_big;
        # an attempt reads the line kernel only at the other four steps
        volumes, marks = [], []
        real_volume, real_sampler = _Line.volume, harness.sample_big_pair

        def counting_volume(line, t):
            volumes.append(t)
            return real_volume(line, t)

        def marking_sampler(*args, **kwargs):
            marks.append(len(volumes))  # the previous attempt ends here
            pair = real_sampler(*args, **kwargs)
            marks.append(len(volumes))
            return pair

        monkeypatch.setattr(_Line, "volume", counting_volume)
        monkeypatch.setattr(harness, "sample_big_pair", marking_sampler)
        for seed in (11, 12, 13):
            volumes.clear()
            marks.clear()
            sample_derivative_instance(random.Random(seed))
            marks.append(len(volumes))
            per_attempt = [b - a for a, b in zip(marks[1::2], marks[2::2])]
            # the last attempt succeeded: volumes at -h/2, h/2, -h and h
            assert per_attempt[-1] == 4
            assert all(n <= 4 for n in per_attempt)

    # sha256 of the JSON payloads of the first 200 draws of each sampler
    # from random.Random(f"sampler-digest:{name}"), recorded before the
    # derivative sampler read its volumes off the line kernel and the
    # potential sampler skipped the checking constructor
    _DIGESTS = {
        "derivative": "fd93b5800a386ff4f7c2aecbcc900482babe8d2400663ffd6133253285ca9042",
        "big_pair": "4866ccc897205fb483e061263c397fbe2812fa8ccb48ef61a48175129a96b497",
        "nef": "315721e1046f88ec03b4627a5c72b26b155e6f4ba93370979973cb643ec8d79c",
    }

    @pytest.mark.parametrize("name, draw", [
        ("derivative", _derivative_payload),
        ("big_pair", lambda rng: sample_big_pair(rng).to_payload()),
        ("nef", lambda rng: sample_nef_divisor(rng).to_payload()),
    ], ids=["derivative", "big_pair", "nef"])
    def test_instance_streams_are_pinned(self, name, draw):
        rng = random.Random(f"sampler-digest:{name}")
        digest = hashlib.sha256()
        for _ in range(200):
            digest.update(json.dumps(draw(rng), sort_keys=True).encode() + b"\n")
        assert digest.hexdigest() == self._DIGESTS[name]


class TestSuites:
    def test_known_names(self):
        names = suite_names()
        for expected in (
            "brunn_minkowski", "homogeneity", "zariski", "siu", "hodge",
            "kt", "continuity", "min_valuation", "legendre_involution",
            "openness", "oracle_convergence", "okounkov_match",
            "diskant_random", "bonnesen_random", "superadditivity",
        ):
            assert expected in names
        assert len(names) == 15

    def test_unknown_suite(self):
        with pytest.raises(UnknownSuite):
            run_suite("isoperimetric_disco")

    @pytest.mark.parametrize("count", [0, -3])
    def test_nonpositive_count(self, count):
        with pytest.raises(ValueError, match="positive integer"):
            run_suite("homogeneity", count=count)

    @pytest.mark.parametrize("name", sorted(
        n for n in (
            "brunn_minkowski", "homogeneity", "zariski", "siu", "hodge",
            "kt", "continuity", "min_valuation", "legendre_involution",
            "openness", "diskant_random", "bonnesen_random", "superadditivity",
        )
    ))
    def test_small_random_run(self, name):
        res = run_suite(name, count=4, seed=1)
        assert res.ok
        assert res.performed == 4
        assert res.passes == 4 and res.failures == 0

    @pytest.mark.parametrize("name", ["oracle_convergence", "okounkov_match"])
    def test_fixed_instance_suites(self, name):
        res = run_suite(name, count=1)
        assert res.ok and res.failures == 0

    def test_okounkov_match_is_exact(self):
        # the gallery pairs have no finite place, so every sample equals
        # the transform and the bound is 0
        assert run_suite("okounkov_match", count=1).worst_slack == 0

    def test_run_suite_deterministic(self):
        a = run_suite("brunn_minkowski", count=3, seed=9).to_payload()
        b = run_suite("brunn_minkowski", count=3, seed=9).to_payload()
        assert a == b

    def test_payload_shape(self):
        res = run_suite("homogeneity", count=2, seed=0)
        payload = res.to_payload()
        assert payload["name"] == "homogeneity"
        assert payload["ok"] is True
        assert payload["performed"] == 2
        assert set(payload) == {
            "name", "requested", "performed", "passes", "failures",
            "worst_slack", "ok", "failing",
        }
