"""End-to-end acceptance gates.

Each test pins one headline behavior of the package on the gallery fixtures:
exact volumes, differentiability of the volume with exact derivative values,
the isoperimetric (Diskant/Bonnesen) chain with its equality case, oracle
convergence of brute-force section counts, Okounkov body consistency, and
ten exact-or-bounded property suites at 200 random instances each.  Runtime
bounds are part of the contract: everything here is desk scale.
"""

import time
from fractions import Fraction

import mpmath
import pytest

from adelic_volumes.divisors import Pair
from adelic_volumes.exactnum import default_precision_bits
from adelic_volumes.gallery import (
    half_zero_pair,
    height_shift,
    slant_divisor,
    tent_divisor,
)
from adelic_volumes.harness import (
    check_differentiability,
    diskant_report,
    run_suite,
    sample_derivative_instance,
)
from adelic_volumes.positivity import avol, positive_intersection
from adelic_volumes.sections import analytic_okounkov, okounkov_sample, volume_estimate

F = Fraction

E1 = slant_divisor
E2 = tent_divisor


def timed(fn, *args):
    best = None
    out = None
    for _ in range(5):
        t0 = time.perf_counter()
        out = fn(*args)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return out, best


class TestExactVolumes:
    def test_values_and_speed(self):
        avol(E1())  # warm caches before timing
        cases = [
            (Pair(E1()), F(1)),
            (Pair(E2()), F(2)),
            (Pair(E1() + E2()), F(7)),
            (half_zero_pair(), F(1, 4)),
        ]
        for pair, expected in cases:
            got, best = timed(avol, pair)
            assert got == expected
            assert isinstance(got, Fraction)
            assert best < 1e-3, f"avol took {best * 1e3:.3f} ms"


class TestVolumeDifferentiability:
    def test_fixture_slant(self):
        rep = check_differentiability(Pair(E1()), height_shift(1))
        assert rep.derivative == 2
        assert rep.analytic == 2
        assert rep.derivative == rep.analytic

    def test_fixture_base_condition(self):
        rep = check_differentiability(half_zero_pair(), height_shift(1))
        assert rep.derivative == 1
        assert rep.analytic == 1

    def test_randomized_deviation_bound(self):
        import random

        rng = random.Random(20)
        tol = F(1, 2**20)
        worst = F(0)
        t0 = time.perf_counter()
        for _ in range(200):
            pair, direction, central = sample_derivative_instance(rng)
            analytic = 2 * positive_intersection(pair, direction)
            dev = abs(central - analytic) / (1 + abs(analytic))
            worst = max(worst, dev)
            assert dev <= tol
        elapsed = time.perf_counter() - t0
        assert worst <= tol
        assert elapsed < 10, f"200 derivative checks took {elapsed:.1f} s"


class TestIsoperimetricChain:
    def test_fixture(self):
        rep = diskant_report(Pair(E1()), Pair(E2()))
        assert (rep.s0, rep.s1, rep.s2) == (2, 2, 1)
        assert abs(rep.r.value - F(1, 2)) <= F(1, 2**40)
        assert abs(rep.R.value - 1) <= F(1, 2**40)
        assert rep.all_pass
        for case in rep.cases:
            assert float(case.slack) >= -1e-9, case
        assert rep.case("bonnesen").slack == F(7, 4)

    def test_randomized(self):
        t0 = time.perf_counter()
        res = run_suite("diskant_random", count=200, seed=0)
        elapsed = time.perf_counter() - t0
        assert res.failures == 0
        assert res.performed == 200
        assert res.worst_slack is None or float(res.worst_slack) >= -1e-9
        assert elapsed < 30, f"200 random reports took {elapsed:.1f} s"


class TestOracleConvergence:
    def test_exact_small_levels_bounds_and_monotonicity(self):
        t0 = time.perf_counter()
        with mpmath.mp.workprec(default_precision_bits() + 32):
            # the estimates are Fractions, read into mpmath first
            est1 = volume_estimate(E1(), 1)
            target1 = 2 * mpmath.mp.log(15)
            est1 = mpmath.mpf(est1.numerator) / est1.denominator
            assert abs(est1 - target1) <= mpmath.mpf(2) ** -40
            est2 = volume_estimate(E1(), 2)
            target2 = 2 * mpmath.mp.log(225) / 4
            est2 = mpmath.mpf(est2.numerator) / est2.denominator
            assert abs(est2 - target2) <= mpmath.mpf(2) ** -40
        errors = {}
        for m in (4, 16, 64, 256):
            errors[m] = abs(float(volume_estimate(E1(), m)) - 1.0)
        assert errors[64] <= 4 / 64
        assert errors[256] <= 4 / 256
        assert errors[4] > errors[16] > errors[64] > errors[256]
        elapsed = time.perf_counter() - t0
        assert elapsed < 5, f"oracle run took {elapsed:.1f} s"


class TestOkounkovConsistency:
    def test_body_and_empirical_match(self):
        data = analytic_okounkov(E1())
        assert data.body_volume == F(1, 2)
        assert data.avol == 2 * data.body_volume == 1
        sample = okounkov_sample(E1(), 64)
        # no finite place: the empirical transform is exact on the grid
        for w, t in sample.entries:
            assert t == data.transform.eval(w)


class TestPropertySuites:
    SUITES = (
        "brunn_minkowski",
        "homogeneity",
        "zariski",
        "siu",
        "hodge",
        "kt",
        "min_valuation",
        "legendre_involution",
        "openness",
        "superadditivity",
    )

    def test_two_hundred_each(self):
        t0 = time.perf_counter()
        for name in self.SUITES:
            res = run_suite(name, count=200, seed=0)
            assert res.failures == 0, f"{name}: {res.failing}"
            assert res.performed == 200
        elapsed = time.perf_counter() - t0
        assert elapsed < 120, f"ten suites took {elapsed:.1f} s"


class TestProportionalEqualityCase:
    def test_ratios_collapse(self):
        rep = diskant_report(Pair(E1()), Pair(E1()).scale(2))
        assert rep.r.exact and rep.r.value == F(1, 2)
        assert rep.R.exact and rep.R.value == F(1, 2)
        assert rep.s1 / rep.s0 == F(1, 2)
        assert rep.s2 / rep.s1 == F(1, 2)
        assert rep.s1 * rep.s1 == rep.s0 * rep.s2
        assert rep.all_pass
