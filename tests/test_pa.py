"""Piecewise-affine calculus: intervals, concave/convex shapes, Legendre
duality, sup-convolution, envelopes, integration."""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adelic_volumes.divisors import ARCH
from adelic_volumes.errors import (
    EmptyDomain,
    NotConcave,
    NotConvex,
    OutOfDomain,
    UnboundedBelow,
)
from adelic_volumes.exactnum import ExactNumber, exact, log_unit, scalar_cmp, scalar_sign
from adelic_volumes.harness import sample_big_pair
from adelic_volumes.pa import (
    ConcavePA,
    ConvexPA,
    Interval,
    PAGeneral,
    _chord,
    _eval_on_grid,
    _grid,
    _grid_jets,
    _grid_values,
    _jet_pairing,
    _on_line,
    _slope,
    _sum_on_grid,
    _tail_turn,
    _turn,
    convex_envelope,
    integrate_positive_part,
    legendre_potential,
    legendre_roof,
    pa_from_payload,
    pointwise_min,
    unit_roof,
)

from operator_chain import ref_integrate_positive_part

L2 = log_unit(2)
L3 = log_unit(3)
L5 = log_unit(5)
F = Fraction


def sup_convolution(f: ConcavePA, g: ConcavePA) -> ConcavePA:
    """The sup-convolution (f [] g)(x) = sup {f(x1) + g(x2) : x1 + x2 = x},
    an independent oracle for the roof of a sum of potentials.

    For concave piecewise-affine summands this is the classic greedy merge:
    concatenate the segments of both functions in decreasing slope order,
    starting from the sum of the left endpoints.  The domain is the
    Minkowski sum of the domains.
    """
    segs = sorted(((_slope(p, q), q[0] - p[0]) for h in (f, g)
                   for p, q in zip(h.points, h.points[1:])),
                  key=lambda s: s[0], reverse=True)
    x = f.points[0][0] + g.points[0][0]
    y = f.points[0][1] + g.points[0][1]
    pts = [(x, y)]
    for slope, dx in segs:
        x, y = x + dx, y + slope * dx
        pts.append((x, y))
    return ConcavePA(pts)


class TestInterval:
    def test_basics(self):
        i = Interval(F(-1), F(2))
        assert not i.is_empty and not i.is_point
        assert (i.lo, i.hi) == (-1, 2)

    def test_empty_and_point(self):
        assert Interval.EMPTY.is_empty and not Interval.EMPTY.is_point
        p = Interval(F(1, 2), F(1, 2))
        assert p.is_point and not p.is_empty

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            Interval(F(1), F(0))

    def test_intersect(self):
        a, b = Interval(0, 2), Interval(1, 3)
        assert a.intersect(b) == Interval(1, 2)
        assert a.intersect(Interval(5, 6)) == Interval.EMPTY
        assert a.intersect(Interval.EMPTY).is_empty

    def test_scale(self):
        assert Interval(1, 2).scale(F(-1)) == Interval(-2, -1)
        assert Interval(1, 2).scale(3) == Interval(3, 6)


class TestConcavePA:
    def test_concavity_enforced(self):
        with pytest.raises(NotConcave):
            ConcavePA([(0, 0), (1, -1), (2, 1)])  # convex kink

    def test_collinear_merge(self):
        f = ConcavePA([(0, 0), (1, 1), (2, 2), (3, 1)])
        assert f.points == ((F(0), F(0)), (F(2), F(2)), (F(3), F(1)))

    def test_eval_and_domain(self):
        f = ConcavePA([(0, 1), (2, -1)])
        assert f.domain == Interval(0, 2)
        assert f(F(1, 2)) == F(1, 2)
        with pytest.raises(OutOfDomain):
            f(F(3))
        # breakpoints, both ends of the domain, and just outside each end
        g = ConcavePA([(0, 0), (1, 2), (3, 3)])
        assert [g(x) for x in (0, 1, 2, 3)] == [0, 2, F(5, 2), 3]
        for x in (F(-1, 8), F(25, 8)):
            with pytest.raises(OutOfDomain):
                g(x)

    def test_point_domain(self):
        f = ConcavePA([(F(1, 2), F(7))])
        assert f.domain.is_point
        assert f(F(1, 2)) == 7

    def test_add_restricts_to_common_domain(self):
        f = ConcavePA([(0, 0), (2, 2)])
        g = ConcavePA([(1, 1), (3, -1)])
        h = f + g  # x + (2 - x) = 2 on the overlap
        assert h.domain == Interval(1, 2)
        assert h(1) == 2 and h(2) == 2 and h(F(3, 2)) == 2
        with pytest.raises(EmptyDomain):
            ConcavePA([(0, 0)]) + ConcavePA([(1, 0)])

    def test_reflect(self):
        f = ConcavePA([(0, 1), (1, 0)])
        r = f.reflect()
        assert r.domain == Interval(-1, 0)
        assert r(-1) == 0 and r(0) == 1

    def test_restrict(self):
        f = ConcavePA([(0, 0), (1, 1), (3, -1)])
        g = f.restrict(Interval(F(1, 2), 2))
        assert g.domain == Interval(F(1, 2), 2)
        assert g(F(1, 2)) == F(1, 2) and g(2) == 0
        with pytest.raises(OutOfDomain):
            f.restrict(Interval(-1, 1))

    def test_extrema(self):
        f = ConcavePA([(0, -1), (1, 2), (4, -4)])
        assert f.max_over_domain() == 2
        assert f.argmax() == (F(1), F(2))
        # a flat top gives its midpoint; a peak at an end gives that end
        assert ConcavePA([(0, 0), (1, 2), (3, 2), (4, 0)]).argmax() == (2, 2)
        assert ConcavePA([(0, 1), (2, 1)]).argmax() == (1, 1)
        assert ConcavePA([(0, 3), (1, 2), (4, -4)]).argmax() == (0, 3)
        assert ConcavePA([(0, -1), (1, 2)]).argmax() == (1, 2)
        assert ConcavePA([(3, 5)]).argmax() == (3, 5)

    def test_nonneg_region_rational(self):
        f = ConcavePA([(0, -1), (1, 2), (4, -4)])
        assert f.nonneg_region() == Interval(F(1, 3), F(2))
        assert ConcavePA([(0, -1), (1, -2)]).nonneg_region().is_empty
        assert ConcavePA([(0, 0), (1, -2)]).nonneg_region() == Interval(0, 0)

    def test_nonneg_region_symbolic_root(self):
        f = ConcavePA([(0, L2), (1, L2 - L3)])
        region = f.nonneg_region()
        assert region.lo == 0
        assert region.hi == L2 / L3


class TestSupConvolution:
    def test_slant_tent_example(self):
        f = ConcavePA([(0, 1), (1, 0)])
        g = ConcavePA([(-1, 0), (0, 1), (1, 0)])
        h = sup_convolution(f, g)
        assert h.points == ((F(-1), F(1)), (F(0), F(2)), (F(2), F(0)))
        assert h.domain == Interval(-1, 2)  # [0, 1] + [-1, 1]

    def test_with_point_domain(self):
        f = ConcavePA([(2, 3)])
        g = ConcavePA([(0, 1), (1, 0)])
        h = sup_convolution(f, g)
        assert h.points == ((F(2), F(4)), (F(3), F(3)))

    def test_commutes(self):
        f = ConcavePA([(0, 0), (1, 1), (3, 0)])
        g = ConcavePA([(-2, 1), (0, 2)])
        assert sup_convolution(f, g) == sup_convolution(g, f)


class TestConvexPA:
    def test_slope_validation(self):
        with pytest.raises(NotConvex):
            ConvexPA([(0, 0), (1, 1)], 2, 3)  # interior slope 1 below left 2
        ConvexPA([(0, 0)], 1, 1)  # globally affine is fine
        # ... and stored the same way wherever it is anchored
        assert ConvexPA([(0, 0)], 1, 1) == ConvexPA([(1, 1)], 1, 1)

    def test_eval_with_tails(self):
        f = ConvexPA([(0, 0), (1, 1)], -1, 2)
        assert f(-2) == 2 and f(F(1, 2)) == F(1, 2) and f(2) == 3
        # at the breakpoints, and on the tails just past them
        assert [f(x) for x in (0, 1, F(-1, 8), F(9, 8))] == [0, 1, F(1, 8), F(5, 4)]

    def test_add_mixed(self):
        f = ConvexPA([(0, 0)], 0, 1)
        g = ConvexPA.constant(F(1, 2))
        assert (f + g)(0) == F(1, 2)
        bump = PAGeneral([(0, 1)], 0, 0)
        h = f + bump
        assert isinstance(h, PAGeneral)
        assert h(0) == 1

    def test_scale_negative_goes_general(self):
        f = ConvexPA([(0, 0)], 0, 1)
        g = f.scale(-2)
        assert isinstance(g, PAGeneral)
        assert g(1) == -2 and not g.is_convex()
        assert f.scale(0) == ConvexPA.constant(0)

    def test_lower_bound_and_sup_norm(self):
        assert ConvexPA([(0, -3)], -1, 1).lower_bound() == -3
        assert ConvexPA([(0, 0)], 1, 2).lower_bound() is None
        assert PAGeneral([(0, -2), (1, 3)], 0, 0).sup_norm() == 3
        with pytest.raises(UnboundedBelow):
            ConvexPA([(0, 0)], 0, 1).sup_norm()

    def test_payload_round_trip(self):
        f = ConvexPA([(0, 0), (1, 1)], -1, 2)
        assert pa_from_payload(f.to_payload()) == f
        g = PAGeneral([(0, 1), (1, 0), (2, 1)], 0, 0)
        assert pa_from_payload(g.to_payload()) == g
        # the kind defaults to convex; a roof is no potential
        assert pa_from_payload({"points": [["0", "0"]], "left_slope": "-1",
                                "right_slope": "1"}) == ConvexPA([(0, 0)], -1, 1)
        for bad in ({"kind": "concave", "points": [["0", "0"]]},
                    {"domain": ["0", "0"], "points": [["0", "0"]]},
                    dict(f.to_payload(), kind="convx")):
            with pytest.raises(ValueError, match="potential kind"):
                pa_from_payload(bad)


class TestEnvelopeAndMin:
    def test_convex_input_is_fixed(self):
        f = ConvexPA([(0, 0), (1, 1)], -1, 2)
        assert convex_envelope(f) == f

    def test_w_shape(self):
        g = PAGeneral([(0, 0), (1, -1), (2, -3), (3, 0)], -3, 3)
        env = convex_envelope(g)
        assert env == ConvexPA([(0, 0), (2, -3), (3, 0)], -3, 3)

    def test_bounded_dip_flattens(self):
        g = PAGeneral([(0, 0), (1, -1), (2, 0)], 0, 0)
        assert convex_envelope(g) == ConvexPA.constant(-1)

    def test_unbounded_raises(self):
        with pytest.raises(UnboundedBelow):
            convex_envelope(PAGeneral([(0, 0)], 1, -1))

    def test_pointwise_min(self):
        f = ConvexPA([(0, 0)], -1, 1)  # |u|
        g = ConvexPA.constant(F(1, 2))
        m = pointwise_min([f, g])
        assert m(0) == 0 and m(1) == F(1, 2) and m(F(-1, 4)) == F(1, 4)
        assert m(F(1, 2)) == F(1, 2)


class TestLegendre:
    def test_slant_roof(self):
        pot = ConvexPA([(1, 1)], 0, 1)
        roof = legendre_roof(pot)
        assert roof == ConcavePA([(0, 1), (1, 0)])
        assert legendre_potential(roof) == pot

    def test_affine_potential_point_roof(self):
        pot = ConvexPA([(F(0), F(3))], F(1, 2), F(1, 2))
        roof = legendre_roof(pot)
        assert roof.domain == Interval(F(1, 2), F(1, 2))
        assert roof(F(1, 2)) == 3

    def test_constant_roof_canonical_potential(self):
        roof = ConcavePA([(-1, 0), (2, 0)])
        pot = legendre_potential(roof)
        assert pot == ConvexPA([(0, 0)], -1, 2)

    def test_roof_is_pointwise_inf(self):
        pot = ConvexPA([(-1, 1), (1, 1)], -1, 1)  # tent potential
        roof = legendre_roof(pot)
        for x in (F(-1), F(-1, 2), F(0), F(3, 4), F(1)):
            # inf over a grid of u values can only overestimate
            grid_inf = min(pot(u) - x * u for u in
                           [F(k, 4) for k in range(-12, 13)])
            assert roof(x) <= grid_inf
        assert roof == ConcavePA([(-1, 0), (0, 1), (1, 0)])

    def test_envelope_before_roof(self):
        # the roof of a non-convex potential sees only its envelope
        g = PAGeneral([(0, 0), (1, -1), (2, -3), (3, 0)], -3, 3)
        assert legendre_roof(convex_envelope(g)) == legendre_roof(
            convex_envelope(PAGeneral([(0, 0), (2, -3), (3, 0)], -3, 3)))

    def test_value_scaling_gives_dilation(self):
        pot = ConvexPA([(1, 1)], 0, 1)
        a = F(3)
        roof = legendre_roof(pot)
        scaled_roof = legendre_roof(pot.scale(a))
        assert scaled_roof.domain == roof.domain.scale(a)
        for x in (F(0), F(1), F(3, 2), F(3)):
            assert scaled_roof(x) == a * roof(x / a)


class TestIntegratePositivePart:
    def test_truncates_at_zero(self):
        roof = ConcavePA([(0, 1), (2, -1)])
        assert integrate_positive_part(roof) == F(1, 2)

    def test_window(self):
        roof = ConcavePA([(0, 1), (2, -1)])
        assert integrate_positive_part(roof.restrict(Interval(0, F(1, 2)))) == F(3, 8)

    def test_all_negative(self):
        roof = ConcavePA([(0, -1), (1, -2)])
        assert integrate_positive_part(roof) == 0

    def test_symbolic_values(self):
        roof = ConcavePA([(0, L2), (1, 0)])
        assert integrate_positive_part(roof) == L2 / 2

    def test_two_clipped_ends(self):
        # tent 1 - |x| on [-2, 2]: positive part is the triangle of area 1
        roof = ConcavePA([(-2, -1), (0, 1), (2, -1)])
        assert integrate_positive_part(roof) == 1

    def test_symbolic_clipped_end(self):
        # L2 - x on [0, 1]: zero at L2 (about 0.69), area L2^2 / 2
        roof = ConcavePA([(0, L2), (1, L2 - 1)])
        assert integrate_positive_part(roof) == L2 * L2 / 2


class TestUnitRoof:
    def test_equals_roof_of_envelope(self):
        pot = PAGeneral([(F(-1), F(0)), (F(0), F(1)), (F(1), F(0))], -1, 1)
        assert unit_roof(pot) == legendre_roof(convex_envelope(pot))

    def test_memo_is_invisible(self):
        pot = ConvexPA([(F(0), F(1)), (F(1), F(1))], -1, 2)
        twin = ConvexPA([(F(0), F(1)), (F(1), F(1))], -1, 2)
        payload, text = pot.to_payload(), repr(pot)
        first = unit_roof(pot)
        assert unit_roof(pot) is first
        assert pot == twin and twin == pot
        assert pot.to_payload() == payload == twin.to_payload()
        assert repr(pot) == text
        assert unit_roof(twin) == first


_coords = st.fractions(min_value=F(-5), max_value=F(5), max_denominator=6)


@st.composite
def convex_potentials(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    xs = sorted(draw(st.sets(_coords, min_size=n, max_size=n)))
    slopes = sorted(draw(st.sets(_coords, min_size=len(xs) + 1,
                                 max_size=len(xs) + 1)))
    y = draw(_coords)
    pts = [(xs[0], y)]
    for i in range(1, len(xs)):
        y = y + slopes[i] * (xs[i] - xs[i - 1])
        pts.append((xs[i], y))
    return ConvexPA(pts, slopes[0], slopes[-1])


@given(convex_potentials())
@settings(max_examples=80, deadline=None)
def test_legendre_involution_property(pot):
    roof = legendre_roof(pot)
    assert roof.domain == Interval(pot.left_slope, pot.right_slope)
    assert legendre_potential(roof) == pot


@given(convex_potentials(), _coords)
@settings(max_examples=60, deadline=None)
def test_roof_inequality_property(pot, x):
    roof = legendre_roof(pot)
    if not roof.domain.lo <= x <= roof.domain.hi:
        return
    for u in (F(-3), F(0), F(1, 3), F(2)):
        assert roof(x) <= pot(u) - x * u


@given(convex_potentials(), convex_potentials())
@settings(max_examples=50, deadline=None)
def test_roof_of_sum_is_sup_convolution(f, g):
    assert legendre_roof(f + g) == sup_convolution(
        legendre_roof(f), legendre_roof(g))


@st.composite
def general_potentials(draw):
    xs = sorted(draw(st.sets(_coords, min_size=1, max_size=6)))
    ys = [draw(_coords) for _ in xs]
    left, right = sorted([draw(_coords), draw(_coords)])
    return PAGeneral(list(zip(xs, ys)), left, right)


@given(general_potentials())
@settings(max_examples=80, deadline=None)
def test_envelope_is_greatest_convex_minorant(f):
    env = convex_envelope(f)
    assert (env.left_slope, env.right_slope) == (f.left_slope, f.right_slope)
    assert all(env(u) <= y for u, y in f.points)
    # touching f at each of its own breakpoints (somewhere, when env is
    # affine) makes it the greatest one: any convex minorant lies below
    # every chord and tail of env
    if env.left_slope == env.right_slope:
        assert any(env(u) == y for u, y in f.points)
    else:
        assert all(env(u) == f(u) for u, _ in env.points)


@given(general_potentials(), general_potentials(), st.lists(_coords, max_size=4),
       st.booleans())
@example(PAGeneral([(F(0), F(0)), (F(2), F(2))], 0, 0),
         PAGeneral([(F(0), F(2)), (F(2), F(0))], 0, 0), [], False)  # crossing at 1
@example(PAGeneral([(F(0), F(0))], -1, 1), PAGeneral([(F(0), F(1, 2))], 0, 0),
         [], False)                                                # tails cross at +-1/2
@settings(max_examples=100, deadline=None)
def test_pointwise_min_is_the_minimum(f, g, us, symbolic):
    # the crossings of interior pieces and of tails, on the integers of
    # Fractions, or through the field when g's values leave Q
    if symbolic:
        g = g + PAGeneral.constant(L2 - F(2, 3))
    m = pointwise_min([f, g])
    grid = [*us, *(u for h in (f, g, m) for u, _ in h.points)]
    for u in grid + [min(grid) - 1, max(grid) + 1]:  # the tails too
        assert m(u) == min(f(u), g(u))


def _old_integrate_positive_part(f):
    """The route before the one-pass integral: restrict to {f >= 0}, then
    integrate the trapezoids."""
    region = f.nonneg_region()
    if region.is_empty or region.is_point:
        return F(0)
    total = F(0)
    pts = f.restrict(region).points
    for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
        total = total + (x2 - x1) * (y1 + y2) / 2
    return total


_small = st.fractions(min_value=F(-3), max_value=F(3), max_denominator=4)


@st.composite
def concave_pas(draw):
    """A concave PA with 1-6 breakpoints, values in Q or in Q + Q log 2 +
    Q log 3, shifted by a random amount, or so that a breakpoint or the
    midpoint of a segment sits exactly at 0."""
    n = draw(st.integers(1, 6))
    xs = sorted(draw(st.sets(_coords, min_size=n, max_size=n)))
    slopes = sorted(draw(st.sets(_small, min_size=len(xs) - 1,
                                 max_size=len(xs) - 1)), reverse=True)
    ys = [F(0)]
    for s, x1, x2 in zip(slopes, xs, xs[1:]):
        ys.append(ys[-1] + s * (x2 - x1))
    if draw(st.booleans()):
        # plus log 2 times a concave function: slopes only need to weakly
        # decrease, the sum stays strictly concave
        slopes2 = sorted((draw(_small) for _ in slopes), reverse=True)
        zs = [F(0)]
        for s, x1, x2 in zip(slopes2, xs, xs[1:]):
            zs.append(zs[-1] + s * (x2 - x1))
        ys = [y + L2 * z for y, z in zip(ys, zs)]
        shift = draw(_small) + draw(_small) * L3
    else:
        shift = draw(_small)
    how = draw(st.sampled_from(["random", "breakpoint", "midpoint"]))
    i = draw(st.integers(0, len(ys) - 1))
    if how == "breakpoint":
        shift = -ys[i]
    elif how == "midpoint" and i + 1 < len(ys):
        shift = -(ys[i] + ys[i + 1]) / 2
    return ConcavePA([(x, y + shift) for x, y in zip(xs, ys)])


@given(concave_pas())
@example(ConcavePA([(0, 1), (1, 2), (2, 1)]))          # no clipped end
@example(ConcavePA([(0, 1), (2, -1)]))                 # one clipped end
@example(ConcavePA([(-1, L2 - 1), (0, L2), (1, -1)]))  # one, symbolic
@example(ConcavePA([(-2, -1), (0, 1), (2, -1)]))       # two clipped ends
@example(ConcavePA([(-1, -1), (0, 0), (1, -1)]))       # zero at a breakpoint
@example(ConcavePA([(0, 0), (1, -1)]))                 # zero at the end
@example(ConcavePA([(0, -1), (1, -2)]))                # all negative
@example(ConcavePA([(F(1, 2), 3)]))                    # point domain
@example(ConcavePA([(F(1, 2), -3)]))                   # negative point
@settings(max_examples=200, deadline=None)
def test_integrate_positive_part_matches_restrict_route(f):
    assert integrate_positive_part(f) == _old_integrate_positive_part(f)


# -- canonical by construction: the checking constructors agree with _raw --


def _assert_canonical(f):
    """f equals, with an identical repr, the checking constructor of its
    type applied to its own data."""
    if isinstance(f, ConcavePA):
        g = ConcavePA(f.points)
    else:
        g = type(f)(f.points, f.left_slope, f.right_slope)
    assert type(g) is type(f)
    assert g == f and repr(g) == repr(f)


# fractions of a domain's length: rational, or log-valued in [0, 0.97]
_window_fracs = st.one_of(
    st.fractions(min_value=F(0), max_value=F(1), max_denominator=5),
    st.fractions(min_value=F(0), max_value=F(1), max_denominator=5).map(
        lambda t: t * 5 * (L2 - F(1, 2))))


@given(convex_potentials(), convex_potentials(), general_potentials(),
       _coords, _window_fracs, _window_fracs)
@example(ConvexPA([(F(0), 2)], 1, 1), ConvexPA([(F(1), F(1))], -1, 1),
         PAGeneral([(F(0), F(1)), (F(1), F(2))], 1, 1), F(2), F(0), F(1))
@example(ConvexPA([(F(0), 2)], 1, 1), ConvexPA([(F(0), -1)], F(1, 2), F(1, 2)),
         PAGeneral([(F(0), F(0))], 0, 1), F(-1), F(1, 2), F(1, 2))
@settings(max_examples=150, deadline=None)
def test_raw_call_sites_are_canonical(f, g, h, a, t1, t2):
    roof = legendre_roof(f)
    _assert_canonical(roof)
    _assert_canonical(legendre_potential(roof))
    _assert_canonical(convex_envelope(h))
    _assert_canonical(f + g)
    _assert_canonical(f + ConvexPA([(F(0), a)], a, a))
    _assert_canonical(f.as_general())
    _assert_canonical(h + f.as_general())
    _assert_canonical(pointwise_min([h, f]))
    if a:
        _assert_canonical(f.scale(a))
        _assert_canonical(h.scale(a))
    # the windowed transform is the transform of the restricted roof
    dom = roof.domain
    lo, hi = (dom.lo + (dom.hi - dom.lo) * t for t in (t1, t2))
    if hi < lo:
        lo, hi = hi, lo
    window = Interval(lo, hi)
    got = legendre_potential(roof, window)
    _assert_canonical(got)
    want = legendre_potential(roof.restrict(window))
    assert got == want and repr(got) == repr(want)


@pytest.mark.parametrize("f", [
    # a chord on the left tail, two collinear chords, a chord on the right tail
    PAGeneral([(F(0), F(0)), (F(1), F(3)), (F(2), F(-2))], -1, 1),
    PAGeneral([(F(0), F(0)), (F(1), F(5)), (F(2), F(1)), (F(3), F(5)),
               (F(4), F(2))], -1, 1),
    PAGeneral([(F(0), F(0)), (F(1), F(5)), (F(2), F(1))], -1, F(1, 2)),
])
def test_envelope_drops_ties(f):
    _assert_canonical(convex_envelope(f))


def test_windowed_transform_checks_the_window():
    roof = legendre_roof(ConvexPA([(F(1), F(1))], 0, 1))  # on [0, 1]
    with pytest.raises(OutOfDomain):
        legendre_potential(roof, Interval(F(-1), F(1, 2)))
    with pytest.raises(OutOfDomain):
        legendre_potential(roof, Interval(F(1, 2), L2 + 1))
    with pytest.raises(EmptyDomain):
        legendre_potential(roof, Interval.EMPTY)
    # a point window gives the affine potential of slope the point
    assert legendre_potential(roof, Interval(L2, L2)) == ConvexPA(
        [(F(0), roof(L2))], L2, L2)


def test_checking_constructors_still_check():
    from adelic_volumes.scenes import scene_from_dict

    with pytest.raises(NotConvex):
        ConvexPA([(F(0), F(0)), (F(1), F(1)), (F(2), F(0))], -1, 1)
    with pytest.raises(NotConvex):
        ConvexPA([(F(0), F(0))], 1, -1)
    with pytest.raises(NotConvex):
        ConvexPA.from_payload({"points": [["0", "0"], ["1", "1"]],
                               "left_slope": "2", "right_slope": "3"})
    with pytest.raises(NotConcave):
        ConcavePA([(F(0), F(0)), (F(1), F(-1)), (F(2), F(0))])
    unsorted = [(F(1), F(0)), (F(0), F(1))]
    for build in (lambda: ConvexPA(unsorted, -5, 5),
                  lambda: PAGeneral(unsorted, 0, 0),
                  lambda: ConcavePA(unsorted)):
        with pytest.raises(ValueError, match="strictly increasing"):
            build()

    def scene(kind, points):
        return {"c0": "1", "cinf": "1", "potentials": {"inf": {
            "kind": kind, "points": points,
            "left_slope": "-1", "right_slope": "1"}}}

    with pytest.raises(NotConvex):
        scene_from_dict(scene("convex", [["0", "0"], ["1", "1"], ["2", "0"]]))
    with pytest.raises(ValueError, match="strictly increasing"):
        scene_from_dict(scene("general", [["1", "0"], ["0", "1"]]))


# -- the exact primitives agree with the operator formulas they replace ----
#
# Each reference below is the formula a primitive replaced, written with the
# scalar operators.  Results must agree in type and repr, and a zero
# denominator must raise the same ZeroDivisionError.

# numerators and denominators up to 200 bits, small values (so that x
# coordinates and values coincide often), and zero
_big = st.builds(F, st.integers(-2**200, 2**200), st.integers(1, 2**200))
_tiny = st.fractions(min_value=F(-2), max_value=F(2), max_denominator=3)
_q = st.one_of(_tiny, _big, st.just(F(0)))
# an ExactNumber, a rational plus a multiple of log 2 or a rational held as
# an ExactNumber, takes the field formula
_field = st.one_of(st.builds(lambda q, c: q + c * L2, _q, _tiny), _q.map(exact))
_mixed = st.one_of(_q, _q, _q, _q, _q, _q, _field)


def _ref_slope(p, q):
    return (q[1] - p[1]) / (q[0] - p[0])


def _ref_turn(p, q, r):
    a, b = (q[1] - p[1]) * (r[0] - q[0]), (r[1] - q[1]) * (q[0] - p[0])
    return (a > b) - (a < b)


def _ref_tail_turn(s, p, q):
    a, b = s * (q[0] - p[0]), q[1] - p[1]
    return (a > b) - (a < b)


def _ref_on_line(x0, y0, s):
    return y0 - s * x0


def _ref_eval(pts, x, left_slope, right_slope):
    (x0, y0), (xn, yn) = pts[0], pts[-1]
    if x < x0:
        return y0 + left_slope * (x - x0)
    if x > xn:
        return yn + right_slope * (x - xn)
    for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
        if x1 < x < x2:
            return y1 + (y2 - y1) * (x - x1) / (x2 - x1)
    return next(y for u, y in pts if u == x)


def _outcome(fn, *args):
    """The result, or the type and message of a ZeroDivisionError."""
    try:
        return fn(*args)
    except ZeroDivisionError as exc:
        return ZeroDivisionError, str(exc)


def _same(got, want):
    assert type(got) is type(want) and repr(got) == repr(want)


_points = st.tuples(_mixed, _mixed)


@given(_points, _points, st.booleans())
@example((F(1), F(2)), (F(1), F(5)), False)            # coincident x
@example((F(1), F(2)), (F(1), F(2) + L2), False)       # coincident, field
@settings(max_examples=300, deadline=None)
def test_slope_primitive(p, q, same_x):
    if same_x:
        q = (p[0], q[1])
    _same(_outcome(_slope, p, q), _outcome(_ref_slope, p, q))


@given(_points, _points, _points, st.sampled_from(["any", "collinear", "x"]))
@example((F(0), F(0)), (F(1), F(1)), (F(2), F(2)), "any")
@settings(max_examples=300, deadline=None)
def test_turn_primitive(p, q, r, how):
    if how == "collinear" and bool(p[0] != q[0]):
        # r on the line through p and q
        r = (r[0], p[1] + (q[1] - p[1]) * (r[0] - p[0]) / (q[0] - p[0]))
    elif how == "x":
        q = (p[0], q[1])
    _same(_turn(p, q, r), _ref_turn(p, q, r))


@given(_mixed, _points, _points, st.booleans())
@settings(max_examples=300, deadline=None)
def test_tail_turn_primitive(s, p, q, on_tail):
    if on_tail:
        q = (q[0], p[1] + s * (q[0] - p[0]))
    _same(_tail_turn(s, p, q), _ref_tail_turn(s, p, q))


@given(_mixed, _mixed, _mixed)
@settings(max_examples=300, deadline=None)
def test_on_line_primitive(x0, y0, s):
    _same(_on_line(x0, y0, s), _ref_on_line(x0, y0, s))


@given(st.lists(_q, min_size=1, max_size=6, unique=True),
       st.lists(_q, min_size=6, max_size=6), _mixed, _mixed,
       st.lists(_q, max_size=8), st.booleans(),
       st.one_of(st.none(), st.tuples(st.integers(0, 11), _field)))
@example([F(0), F(1)], [F(0), F(1)] + [F(0)] * 4, F(0), F(0),
         [F(-1), F(0), F(1, 2), F(1), F(2)], False, None)
# a grid that skips every breakpoint, each tail reached
@example([F(0), F(1), F(2)], [F(0), F(1), F(3, 2)] + [F(0)] * 3, F(-1), F(1, 3),
         [F(-2), F(1, 2), F(3, 2), F(5)], False, None)
# an ExactNumber tail slope that a grid point beyond the breakpoints
# reaches: the integer scan declines and the field scan answers
@example([F(0), F(1)], [F(0), F(1)] + [F(0)] * 4, F(0), 1 + L2,
         [F(1, 2), F(3)], True, None)
@settings(max_examples=300, deadline=None)
def test_eval_on_grid_primitive(xs, ys, left, right, extra, with_breakpoints,
                                field):
    if field is not None:
        # one ExactNumber value, or one ExactNumber x in the grid
        i, v = field
        if i < 6:
            ys[i] = v
        else:
            extra.append(v)
    pts = list(zip(sorted(xs), ys))
    grid = sorted(extra + ([x for x, _ in pts] if with_breakpoints else []))
    got = _eval_on_grid(pts, grid, left, right)
    assert len(got) == len(grid)
    for x, y in zip(grid, got):
        _same(y, _ref_eval(pts, x, left, right))


def _jets_on_grid(pts, xs, left_slope, right_slope) -> list:
    """(value, left slope, right slope) at each x of a sorted grid of the
    function finite on R with breakpoints pts and the given asymptotic
    slopes, in one joint scan; beyond the breakpoints it follows the tails.
    The field formula that ``_grid_jets`` and the field route of
    ``positivity.adeg_product`` replaced."""
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


def _ref_jet_pairing(us, jets_a, jets_b):
    local = F(0)
    for u, (ya, la, ra), (yb, lb, rb) in zip(us, jets_a, jets_b):
        local = local + ya * (rb - lb) + yb * (ra - la) - u * (ra * rb - la * lb)
    return local


def _integer_jets(jets):
    """Fraction jets (value, left slope, right slope) in the form of
    ``_grid_jets``: numerators over the least common denominators."""
    v = lcm(*(y.denominator for y, _, _ in jets))
    s = lcm(*(z.denominator for _, l, r in jets for z in (l, r)))
    return ([y.numerator * (v // y.denominator) for y, _, _ in jets], v,
            [l.numerator * (s // l.denominator) for _, l, _ in jets],
            [r.numerator * (s // r.denominator) for _, _, r in jets], s)


@given(st.lists(st.tuples(_q, st.tuples(_q, _q, _q), st.tuples(_q, _q, _q)),
                min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_jet_pairing_primitive(rows):
    us = [u for u, _, _ in rows]
    big_u = lcm(*(u.denominator for u in us))
    keys = [u.numerator * (big_u // u.denominator) for u in us]
    jets_a = [ja for _, ja, _ in rows]
    jets_b = [jb for _, _, jb in rows]
    _same(_jet_pairing(keys, big_u, _integer_jets(jets_a), _integer_jets(jets_b)),
          _ref_jet_pairing(us, jets_a, jets_b))


@given(st.lists(_q, min_size=1, max_size=6, unique=True),
       st.lists(_q, min_size=6, max_size=6), _q, _q, st.lists(_q, max_size=8))
@settings(max_examples=300, deadline=None)
def test_grid_jets_primitive(xs, ys, left, right, extra):
    # the integer jets and values on the union of the breakpoints and extra
    # points are the jets of _jets_on_grid and the values of _eval_on_grid
    pts = list(zip(sorted(xs), ys))
    grid = _grid([x for x, _ in pts], extra)
    big_u = lcm(*(x.denominator for x in grid))
    keys = [x.numerator * (big_u // x.denominator) for x in grid]
    xk = [x.numerator * (big_u // x.denominator) for x, _ in pts]
    yr = [y.as_integer_ratio() for _, y in pts]
    got = _grid_jets(xk, yr, keys, big_u, left, right)
    want = _jets_on_grid(pts, grid, left, right)
    assert [F(y, got[1]) for y in got[0]] == [y for y, _, _ in want]
    assert [F(l, got[4]) for l in got[2]] == [l for _, l, _ in want]
    assert [F(r, got[4]) for r in got[3]] == [r for _, _, r in want]
    values = _grid_values(xk, yr, keys, big_u, left, right)
    assert [F(*v) for v in values] == _eval_on_grid(pts, grid, left, right)


@st.composite
def big_concave_pas(draw):
    """Concave PAs with 200-bit coordinates, values shifted so that a
    breakpoint or a random level sits at 0, and sometimes a log 2 term."""
    xs = sorted(draw(st.sets(_q, min_size=1, max_size=6)))
    slopes = sorted(draw(st.sets(_q, min_size=len(xs) - 1,
                                 max_size=len(xs) - 1)), reverse=True)
    ys = [draw(_q)]
    for s, x1, x2 in zip(slopes, xs, xs[1:]):
        ys.append(ys[-1] + s * (x2 - x1))
    shift = draw(st.one_of(_q, st.sampled_from([-y for y in ys]),
                           _q.map(lambda q: q + L2)))
    return ConcavePA([(x, y + shift) for x, y in zip(xs, ys)])


@given(big_concave_pas())
@example(ConcavePA([(F(-2), F(-1)), (F(0), F(1)), (F(2), F(-1))]))
@settings(max_examples=300, deadline=None)
def test_integrate_positive_part_primitive(f):
    _same(integrate_positive_part(f), ref_integrate_positive_part(f))


def test_integral_stays_reduced(monkeypatch):
    # 200 segments whose values all have denominator 9 at x = i / 3: the
    # points go on one integer grid, so the one Fraction the kernel builds
    # has a numerator and a denominator that never grow with the number of
    # segments, not the product of every term's denominator
    import adelic_volumes.pa as pa

    sizes, pa_q = [], pa._q

    def recording_q(n, d):
        sizes.append(max(abs(n), abs(d)).bit_length())
        return pa_q(n, d)

    f = ConcavePA([(F(i, 3), 10**6 - F(i, 3) ** 2) for i in range(201)])
    monkeypatch.setattr(pa, "_q", recording_q)
    _same(integrate_positive_part(f), ref_integrate_positive_part(f))
    assert len(sizes) == 1 and max(sizes) < 100


# -- per-monomial routes for log-linear values ------------------------------
#
# Roof values are Q-linear forms in the logs: ExactNumbers n / s
# whose denominator polynomial is 1.  The routes below sum them per
# monomial over Z; each reference is the operator formula it replaced.
# Results must agree in type, repr and, for an ExactNumber, stored parts.

# a coefficient of a form: small, 200-bit or zero
_form_coeff = st.one_of(_tiny, _tiny, _big, st.just(F(0)))
# a form in 1, log 2, log 3 and log 5, with a log 5 * log 2 term
_form = st.builds(lambda a, b, c, e, f: a + b * L2 + c * L3 + e * L5 + f * L5 * L2,
                  _form_coeff, _tiny, _tiny, _tiny, _tiny)
# a further log, small enough not to move a sign that the data decide
_NUDGE = L5 / 2**40
# not a polynomial: the operator route
_quotient = st.builds(lambda q: (q + L2) / (1 + L3), _tiny)


def _same_parts(got, want):
    _same(got, want)
    if isinstance(want, ExactNumber):
        assert (got._num, got._scale, got._den) == (want._num, want._scale, want._den)


@st.composite
def log_linear_pas(draw):
    """A concave PA with rational breakpoints (200-bit ones included) and
    values rational + alpha x + beta, alpha and beta forms (or, rarely, a
    quotient), shifted so that a breakpoint sits at 0 or the ends clip."""
    xs = sorted(draw(st.sets(_q, min_size=1, max_size=6)))
    slopes = sorted(draw(st.sets(_q, min_size=len(xs) - 1,
                                 max_size=len(xs) - 1)), reverse=True)
    ys = [draw(_q)]
    for s, x1, x2 in zip(slopes, xs, xs[1:]):
        ys.append(ys[-1] + s * (x2 - x1))
    alpha = draw(st.one_of(_form, _form, _form, st.just(F(0)), _quotient))
    ys = [y + alpha * x for x, y in zip(xs, ys)]
    i = draw(st.integers(0, len(ys) - 1))
    beta = draw(st.one_of(_form, st.just(-ys[i]), st.just(-ys[i] + _NUDGE),
                          st.just(-ys[i] - _NUDGE)))
    return ConcavePA([(x, y + beta) for x, y in zip(xs, ys)])


@given(log_linear_pas())
@example(ConcavePA([(F(-2), -1 + _NUDGE), (F(0), 1 + L2), (F(2), -1 - _NUDGE)]))
@example(ConcavePA([(F(0), L2), (F(1), L2 - 1 + _NUDGE * L2)]))  # clipped high end
@example(ConcavePA([(F(1, 3), L3 + _NUDGE)]))                    # point domain
# clip denominators that divide the numerator: one end, both ends alike,
# and both ends over different affine forms
@example(ConcavePA([(F(0), -L2), (F(1), L2), (F(2), L2)]))
@example(ConcavePA([(F(-1), -L2), (F(0), L2), (F(1), -L2)]))
@example(ConcavePA([(F(-1), -L2), (F(0), L2), (F(1), L2 - 3 * L3)]))
@settings(max_examples=200, deadline=None)
def test_integrate_positive_part_log_linear(f):
    _same_parts(integrate_positive_part(f), ref_integrate_positive_part(f))


def _clipped_roofs(seed):
    """(roof, shift) for a sampled pair's global roof with a finite place
    (log-linear values), lowered to cross 0 once and twice, each as it is
    ("none"), with a small multiple of log 5 added at every value
    ("log 5") and one of log 2 log 5 x added along it ("log 2 log 5 x",
    so that the clip denominators have degree 2)."""
    rng = random.Random(f"clipped-roofs:{seed}")
    while True:
        pair = sample_big_pair(rng)
        if set(pair.divisor.places) - {ARCH}:
            break
    roof = pair.global_roof()
    pts = roof.points
    low, high = sorted([pts[0][1], pts[-1][1]], key=float)
    top = roof.max_over_domain()
    for a, b in ((low, high), (high, top)):
        c = F((float(a) + float(b)) / 2).limit_denominator(64)
        if a < c < b:
            for shift, nudge in (("none", F(0)), ("log 5", _NUDGE),
                                 ("log 2 log 5 x", None)):
                yield ConcavePA._raw([(x, y - c + (_NUDGE * L2 * x if nudge is None else nudge))
                                      for x, y in pts]), shift


def test_integrate_positive_part_on_clipped_roofs():
    # one quotient over the clip denominators against the operator chain,
    # in type, repr and stored parts; a clip denominator of degree 2
    # keeps the operator route
    kinds = {}
    for seed in range(60):
        for f, shift in _clipped_roofs(seed):
            _same_parts(integrate_positive_part(f), ref_integrate_positive_part(f))
            ends = (scalar_sign(f.points[0][1]) < 0) + (scalar_sign(f.points[-1][1]) < 0)
            kinds[ends, shift] = kinds.get((ends, shift), 0) + 1
    assert len(kinds) == 6 and min(kinds.values()) >= 20, kinds


@given(_q, _q, st.one_of(_form, _quotient, _q), st.one_of(_form, _quotient, _q),
       st.one_of(_q, _window_fracs))
@example(F(0), F(1), L2, L2, F(1, 2))        # constant: the log term stays
@example(F(0), F(1), L2, -L2 + 1, F(1, 2))   # the log term cancels
@example(F(1), F(1), L2, L3, F(1))           # coincident x
@settings(max_examples=300, deadline=None)
def test_chord_primitive(x0, x1, y0, y1, x):
    def ref(p, q, x):
        return p[1] + (q[1] - p[1]) * (x - p[0]) / (q[0] - p[0])

    got = _outcome(_chord, (x0, y0), (x1, y1), x)
    want = _outcome(ref, (x0, y0), (x1, y1), x)
    if isinstance(want, tuple):
        assert got == want
    else:
        _same_parts(got, want)


def _ref_grid(*groups):
    xs = [x for group in groups for x in group]
    xs.sort()
    out = [xs[0]]
    for x in xs[1:]:
        if not x == out[-1]:
            out.append(x)
    return out


# few distinct values, so that groups share some
_pool = st.sampled_from([F(-1), F(0), F(1, 3), F(2, 6), F(1, 2), F(7, 5), F(3)])
_grid_value = st.one_of(_pool, _pool, _q)


@given(st.lists(st.lists(_grid_value, min_size=1, max_size=6), min_size=1, max_size=4),
       st.one_of(st.none(), st.tuples(st.integers(0, 3), _field)))
@example([[F(1), F(0)], [F(0), F(1, 2)], [F(1, 2), F(1)]], None)   # duplicates
@example([[F(1, 3), F(2, 5)], [F(1, 2), F(1, 3)]], None)  # coprime denominators
@example([[F(1), F(2)], [F(1)]], (1, exact(F(1))))       # rational ExactNumber
@settings(max_examples=300, deadline=None)
def test_grid_primitive(groups, field):
    if field is not None:
        i, v = field
        groups[i % len(groups)].append(v)
    got, want = _grid(*groups), _ref_grid(*groups)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        _same(a, b)


def _ref_restrict(f, window):
    pts, lo, hi = f.points, window.lo, window.hi
    if lo == hi:
        return [(lo, _ref_eval(pts, lo, None, None))]
    if lo == pts[0][0] and hi == pts[-1][0]:
        return list(pts)
    return [(lo, _ref_eval(pts, lo, None, None)),
            *((x, y) for x, y in pts if lo < x < hi),
            (hi, _ref_eval(pts, hi, None, None))]


@given(log_linear_pas(), _window_fracs, _window_fracs,
       st.sampled_from(["fractions", "breakpoints", "whole"]), st.integers(0, 5),
       st.integers(0, 5))
@settings(max_examples=150, deadline=None)
def test_restrict_primitive(f, t1, t2, how, i, j):
    pts = f.points
    dom = f.domain
    if how == "breakpoints":
        lo, hi = pts[i % len(pts)][0], pts[j % len(pts)][0]
    elif how == "whole":
        lo, hi = dom.lo, dom.hi
    else:
        lo, hi = (dom.lo + (dom.hi - dom.lo) * t for t in (t1, t2))
    if hi < lo:
        lo, hi = hi, lo
    window = Interval(lo, hi)
    got = f.restrict(window)
    if how == "whole" and not window.is_point:
        assert got is f
    want = _ref_restrict(f, window)
    assert len(got.points) == len(want)
    for (x, y), (u, v) in zip(got.points, want):
        _same(x, u)
        _same_parts(y, v)


@st.composite
def line_pas(draw, kind):
    """A convex or general PA with rational breakpoints (200-bit ones
    included) and, rarely, an ExactNumber value or slope."""
    if kind is ConvexPA:
        xs = sorted(draw(st.sets(_q, min_size=1, max_size=5)))
        slopes = sorted(draw(st.sets(_q, min_size=len(xs) + 1, max_size=len(xs) + 1)))
        ys = [draw(_q)]
        for s, x1, x2 in zip(slopes[1:], xs, xs[1:]):
            ys.append(ys[-1] + s * (x2 - x1))
        shift = draw(st.one_of(_q, _q, _q, _field))
        return ConvexPA([(x, y + shift) for x, y in zip(xs, ys)], slopes[0], slopes[-1])
    xs = sorted(draw(st.sets(_q, min_size=1, max_size=5)))
    ys = [draw(_mixed) for _ in xs]
    return PAGeneral(list(zip(xs, ys)), draw(_mixed), draw(_mixed))


@given(st.one_of(line_pas(ConvexPA), line_pas(PAGeneral)),
       st.one_of(line_pas(ConvexPA), line_pas(PAGeneral)),
       st.lists(_q, max_size=4))
@settings(max_examples=150, deadline=None)
def test_sum_on_grid_primitive(f, g, extra):
    # the grid of both summands' breakpoints and points beyond them
    xs = _ref_grid([x for x, _ in f.points], [x for x, _ in g.points], extra)
    got = _sum_on_grid(f, g, xs)
    assert [x for x, _ in got] == xs
    for x, y in got:
        want = (_ref_eval(f.points, x, f.left_slope, f.right_slope)
                + _ref_eval(g.points, x, g.left_slope, g.right_slope))
        _same_parts(y, want)


@given(line_pas(ConvexPA), line_pas(ConvexPA))
@example(ConvexPA([(F(0), 2)], 1, 1), ConvexPA([(F(1), F(1))], -1, 1))
@settings(max_examples=100, deadline=None)
def test_convex_add_pass(f, g):
    # the operator route: the kinked summands' breakpoint grid, each point
    # the sum of both values through the field
    kinked = [h for h in (f, g) if h.left_slope != h.right_slope] or [f]
    xs = _ref_grid(*([x for x, _ in h.points] for h in kinked))
    got = f + g
    _assert_canonical(got)
    assert (got.left_slope, got.right_slope) == (
        f.left_slope + g.left_slope, f.right_slope + g.right_slope)
    want = ConvexPA._raw(
        [(x, _ref_eval(f.points, x, f.left_slope, f.right_slope)
          + _ref_eval(g.points, x, g.left_slope, g.right_slope)) for x in xs],
        got.left_slope, got.right_slope)
    assert len(got.points) == len(want.points)
    for (x, y), (u, v) in zip(got.points, want.points):
        _same(x, u)
        _same_parts(y, v)
