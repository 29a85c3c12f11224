"""Section-counting oracles: coefficient boxes, empirical transforms, and
analytic Okounkov data.

Box counts below are hand checks.  For the slant divisor the roof is 1 - x
on [0, 1], so the box at exponent k of the m-th multiple holds the odd count
2 floor(e^(m - k)) + 1.  With floor(e) = 2, floor(e^2) = 7, floor(e^3) = 20,
floor(e^4) = 54 this gives products 15, 225 and 1005525 at m = 1, 2, 4.
"""

import functools
import math
import os
import random
import subprocess
import sys
import types
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

import adelic_volumes.cli as cli
import adelic_volumes.exactnum as exactnum
import adelic_volumes.pa as pa
import adelic_volumes.sections as sections
from adelic_volumes.errors import EmptyPolytope, NotBig, OutOfDomain, PrecisionExhausted
from adelic_volumes.gallery import (
    half_zero_pair,
    height_shift,
    p_slant_divisor,
    slant_divisor,
    tent_divisor,
)
from adelic_volumes.divisors import BaseCondition, Pair, ToricAdelicDivisor
from adelic_volumes.exactnum import floor_fraction, log_unit, scalar_fraction
from adelic_volumes.harness import sample_big_pair
from adelic_volumes.pa import ConvexPA, Interval, _eval_on_grid
from adelic_volumes.scenes import save_scene, scene_from_dict
from adelic_volumes.sections import (
    BoxEntry,
    analytic_okounkov,
    box_log_count,
    okounkov_sample,
    section_box,
    volume_estimate,
)

F = Fraction


def _slant_p2_p3():
    return Pair(slant_divisor() + p_slant_divisor(2) + p_slant_divisor(3))


def _floor_with_precisions(d, q):
    """sections._floor_scaled_exp(d, q) and the precision of every
    _exp_mantissas call it made."""
    original = sections._exp_mantissas
    precisions = []

    def counting_exp(x, bits):
        precisions.append(bits)
        return original(x, bits)

    sections._exp_mantissas = counting_exp
    try:
        n = sections._floor_scaled_exp(d, q)
    finally:
        sections._exp_mantissas = original
    return n, precisions


def _proven_zero(d, q):
    """Whether d e^q < 2^(len(num) - len(den) + 1 + ceil(1.442 q)) <= 1 for
    q < 0: the bound under which a floor is 0 with no enclosure."""
    return q < 0 and (d.numerator.bit_length() - d.denominator.bit_length() + 1
                      + math.ceil(F(1442, 1000) * q)) <= 0


def _assert_floor(n, d, q, bits):
    with mp.workprec(4 * bits):
        value = mp.mpf(d.numerator) / d.denominator * mp.exp(
            mp.mpf(q.numerator) / q.denominator)
        assert n <= value < n + 1


class TestSectionBox:
    def test_counts_never_build_entries(self, monkeypatch, tmp_path):
        # the oracle reads only the counts: no BoxEntry is built for it
        scene = tmp_path / "slant_p2_p3.json"
        save_scene(_slant_p2_p3(), scene)
        box = section_box(_slant_p2_p3(), 64)

        def refuse(**fields):
            raise AssertionError("a BoxEntry was built")

        monkeypatch.setattr(sections, "BoxEntry", refuse)
        assert cli.main(["oracle", str(scene), "--m", "64"]) == 0
        fresh = section_box(_slant_p2_p3(), 64)
        assert fresh.count_product == box.count_product
        assert float(fresh.log_count()) == float(box.log_count())
        with pytest.raises(AssertionError, match="BoxEntry"):
            fresh.entries

    def test_entries_match_per_entry_floors(self):
        pair = _slant_p2_p3()
        box = section_box(pair, 64)
        assert box.entries == _per_entry_box(pair, 64)
        assert box.count_product == math.prod(e.count for e in box.entries)
        # built once, and the box stays a value
        assert box.entries is box.entries
        assert box == section_box(pair, 64)
        assert hash(box) == hash(section_box(pair, 64))
        assert box != section_box(pair, 63)
        assert repr(box) == f"SectionBox(m=64, entries={box.entries!r})"
        with pytest.raises(AttributeError):
            box.entries = ()
        with pytest.raises(AttributeError):
            box.m = 3
        with pytest.raises(AttributeError):
            del box.m

    def test_slant_product_m1(self):
        box = section_box(slant_divisor(), 1)
        assert [e.count for e in box.entries] == [5, 3]
        assert box.count_product == 15

    def test_slant_product_m2(self):
        box = section_box(slant_divisor(), 2)
        assert [(e.k, e.denominator, e.log_bound, e.count) for e in box.entries] == [
            (0, 1, 2, 15),
            (1, 1, 1, 5),
            (2, 1, 0, 3),
        ]
        assert box.count_product == 225

    def test_slant_product_m4(self):
        assert section_box(slant_divisor(), 4).count_product == 1005525

    def test_base_condition_trims_exponents(self):
        # vanishing order 1/2 at Zero removes the low exponents
        box = section_box(half_zero_pair(), 2)
        assert [e.k for e in box.entries] == [1, 2]
        assert box.count_product == 15
        assert section_box(half_zero_pair(), 4).count_product == 225

    def test_finite_place_denominators(self):
        # the 2-adic slant allows denominators 2^floor(m (1 - k/m))
        box = section_box(p_slant_divisor(2), 1)
        assert [(e.denominator, e.count) for e in box.entries] == [(2, 5), (1, 3)]
        assert box.count_product == 15
        box = section_box(p_slant_divisor(2), 2)
        assert [e.denominator for e in box.entries] == [4, 2, 1]
        assert [e.count for e in box.entries] == [9, 5, 3]
        assert box.count_product == 135

    def test_log_count(self):
        got = box_log_count(slant_divisor(), 1)
        assert abs(float(got) - math.log(15)) < 1e-12

    def test_log_count_matches_log_of_product(self):
        box = section_box(_slant_p2_p3(), 64)
        got = float(box.log_count())
        want = float(mp.log(box.count_product))
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_log_count_is_a_dyadic_fraction(self):
        got = section_box(_slant_p2_p3(), 64).log_count()
        assert type(got) is Fraction
        assert got.denominator & (got.denominator - 1) == 0

    def test_roof_domain_checked_once_per_box(self, monkeypatch):
        # a roof narrower than the exponent window must still be refused,
        # although the grid evaluation itself does not check domains
        psi_inf, finite = sections.place_roofs(slant_divisor())
        narrow = psi_inf.restrict(Interval(F(0), F(1, 2)))
        monkeypatch.setattr(sections, "place_roofs",
                            lambda pair: (narrow, finite))
        with pytest.raises(OutOfDomain):
            section_box(slant_divisor(), 4)

    def test_rejects_bad_multiple(self):
        with pytest.raises(ValueError):
            section_box(slant_divisor(), 0)
        with pytest.raises(ValueError):
            section_box(slant_divisor(), -3)

    def test_point_window_off_the_grid(self):
        # the window [1/3, 1/3] holds no exponent at m = 1 and one at m = 3
        pair = scene_from_dict({"c0": "1/3", "cinf": "-1/3", "potentials": {}})
        box = section_box(pair, 1)
        assert box.entries == () and box.count_product == 1
        assert box.log_count() == 0
        assert [(e.k, e.count) for e in section_box(pair, 3).entries] == [(1, 3)]

    def test_empty_window(self):
        starved = Pair(slant_divisor(), BaseCondition({"0": F(2)}))
        with pytest.raises(EmptyPolytope):
            section_box(starved, 4)

    @pytest.mark.parametrize("shift, k", [(65536, 0), (-65537, 2)])
    def test_denominator_refusal(self, monkeypatch, shift, k):
        # slant + p_slant(2) shifted by a constant at 2 has the floors
        # shift + 1, shift + 1, shift at m = 1: one column end passes the
        # 2^16 bits of a denominator 2^e, above or below.  _check_cost
        # refuses such a box first, so it is switched off to reach the
        # refusal that section_box takes off each column's least and
        # greatest floor, naming the first exponent past the cap
        pair = Pair(slant_divisor() + p_slant_divisor(2)
                    + ToricAdelicDivisor(0, 0, {2: ConvexPA.constant(F(shift))}))
        with pytest.raises(ValueError, match="may need"):
            section_box(pair, 1)
        built = []
        monkeypatch.setattr(sections, "_check_cost", lambda *args: None)
        monkeypatch.setattr(sections, "_denominator_pairs",
                            lambda *args: built.append(args))
        with pytest.raises(PrecisionExhausted,
                           match=f"^the denominator at k = {k} has more than 65536 bits$"):
            section_box(pair, 1)
        assert not built


_LOG_COUNT_BOXES = {
    # 65 counts under 2^93 each: every count is narrow, floored, and the
    # product passes the mantissas and is rounded at nearly every count
    "many_narrow": (Pair(slant_divisor()), 64),
    # 513 counts of up to 740 bits: 440 are wide and read in closed form,
    # and the 73 narrow ones by the run's zero are floored
    "many_small": (half_zero_pair(), 1024),
    # nine counts of 4,618 bits or more: every count is wide, no floor is
    # taken and the narrow product is 1
    "each_wider": (Pair(slant_divisor() + height_shift(400)), 8),
    # two runs of wide counts, the second ending in narrow ones, with
    # coefficients of log 2 and log 3 off the floors at both places
    "finite_places": (_slant_p2_p3(), 64),
    # the window [1/3, 2/3] holds no exponent at m = 1
    "empty": (Pair(slant_divisor(),
                   BaseCondition({"0": F(1, 3), "inf": F(1, 3)})), 1),
}


def _per_count_wide(box, cut):
    """Whether each count of the box is wide, exponent by exponent:
    _low_bits(num, den, A + B k, D) >= cut off its own d_k = num / den."""
    ds = box._denominators
    return [sections._low_bits(*ds[k - box._k_lo], a + b * k, den) >= cut
            for start, end, a, b, den in box._runs for k in range(start, end + 1)]


@functools.cache
def _sampled_boxes():
    """(seed, m, box) for sampled pairs, finite places on odd seeds, m in
    {16, 64, 256}, each box the oracle admits."""
    out = []
    for seed in range(64):
        pair = sample_big_pair(random.Random(seed), allow_finite=seed % 2 == 1)
        for m in (16, 64, 256):
            try:
                out.append((seed, m, section_box(pair, m)))
            except ValueError:
                continue
    return tuple(out)


def _slice_corner(floors, i, j, pick):
    """_corner of the floors' pick (min or max) over indices i..j-1, read
    off the slices."""
    num = den = 1
    for p, column in floors.items():
        e = pick(column[i:j])
        num, den = (num * p ** e, den) if e >= 0 else (num, den * p ** -e)
    return num, den


def _classified_wide(box, cut):
    """The same flags read off the segments of _classify, which must be
    maximal and cover each run in order."""
    flags = []
    for run in box._runs:
        segments = sections._classify(box._floors, box._peaks, box._k_lo, run, cut)
        assert segments[0][0] == run[0] - box._k_lo
        assert segments[-1][1] == run[1] + 1 - box._k_lo
        for (_, j, wide), (i, _, next_wide) in zip(segments, segments[1:]):
            assert j == i and wide != next_wide
        for i, j, wide in segments:
            assert i < j
            flags += [wide] * (j - i)
    return flags


def _cut(box):
    """W - 3, the width past which log_count reads a count in closed form."""
    return exactnum.default_precision_bits() + 32 + box._n.bit_length() - 3


def _assert_log_count(box):
    """log_count within 2^-96 relative of the log of the exact product, at
    400 bits."""
    got = box.log_count()
    with mp.workprec(400):
        want = mp.log(box.count_product)
        got = mp.mpf(got.numerator) / got.denominator
        assert abs(got - want) <= abs(want) * mp.mpf(2) ** -96


class TestLogCount:
    @pytest.mark.parametrize("case", sorted(_LOG_COUNT_BOXES))
    def test_matches_the_log_of_the_product(self, case):
        box = section_box(*_LOG_COUNT_BOXES[case])
        if case == "each_wider":
            assert min(e.count.bit_length() for e in box.entries) > 1 << 12
        if case == "empty":
            assert box.entries == () and box.log_count() == 0
        else:
            _assert_log_count(box)

    @pytest.mark.parametrize("case", sorted(_LOG_COUNT_BOXES))
    def test_one_log_per_box(self, monkeypatch, case):
        # the narrow product is carried as two mantissas, and one atanh
        # series takes its log at the end
        box = section_box(*_LOG_COUNT_BOXES[case])
        calls = []
        original = sections._atanh
        monkeypatch.setattr(sections, "_atanh",
                            lambda *args: calls.append(args) or original(*args))
        box.log_count()
        assert len(calls) == 1

    def test_sampled_pairs(self, monkeypatch):
        # sampled pairs, finite places on odd seeds, m in {16, 64, 256}: the
        # reference is the exact product, a product tree over the floored
        # counts, so the boxes whose counts may need more than 2^21 bits in
        # all (20 of the 192) are left out by a lowered box budget
        monkeypatch.setattr(sections, "_MAX_BOX_BITS", 1 << 21)
        checked = with_places = 0
        for seed in range(64):
            pair = sample_big_pair(random.Random(seed), allow_finite=seed % 2 == 1)
            for m in (16, 64, 256):
                try:
                    box = section_box(pair, m)
                except ValueError:
                    continue
                _assert_log_count(box)
                checked += 1
                with_places += bool(sections.place_roofs(pair)[1])
        assert checked >= 165 and with_places >= 15

    def test_costliest_box_takes_no_exponential(self, monkeypatch):
        # every count of the costliest admitted box, slant + height_shift(43)
        # at m = 1024 (1,025 counts of about 65,000 bits), is wide: neither
        # the box nor its log floors a count or builds a denominator, so no
        # e^q is enclosed
        def refuse(*args):
            raise AssertionError("an exponential or a denominator was built")

        monkeypatch.setattr(sections, "_exp_mantissas", refuse)
        monkeypatch.setattr(sections, "_denominator_pairs", refuse)
        box = section_box(Pair(slant_divisor() + height_shift(43)), 1024)
        got = box.log_count()
        assert "_counts" not in vars(box) and "_denominators" not in vars(box)
        assert float(got) == 45658310.475860074

    @pytest.mark.parametrize("case", sorted(_LOG_COUNT_BOXES))
    def test_classify_matches_the_per_count_predicate(self, case):
        # the block bounds classify every count as its own _low_bits does,
        # at log_count's cut and at cuts that make all or none wide
        box = section_box(*_LOG_COUNT_BOXES[case])
        for cut in (_cut(box), 0, 500, 10 ** 4):
            assert _classified_wide(box, cut) == _per_count_wide(box, cut)

    def test_classify_on_sampled_boxes(self):
        checked = mixed = with_places = 0
        for seed, m, box in _sampled_boxes():
            want = _per_count_wide(box, _cut(box))
            assert _classified_wide(box, _cut(box)) == want, (seed, m)
            checked += 1
            mixed += len(set(want)) == 2
            with_places += bool(box._floors)
        assert checked >= 190 and mixed >= 70 and with_places >= 30

    def test_corners_match_the_slice_min_and_max(self):
        # _corner reads the least and greatest floor of a block off its ends
        # and the column's first peak; on blocks between sampled indices of
        # each run, the peaks and their neighbours, they equal the slices'
        blocks = 0
        for seed, m, box in _sampled_boxes():
            floors = box._floors
            near_peaks = {i + d for i in box._peaks.values() for d in (-1, 0, 1, 2)}
            for start, end, *_ in box._runs:
                lo, hi = start - box._k_lo, end + 1 - box._k_lo
                cuts = sorted({*range(lo, hi, max(1, (hi - lo) // 6)), hi}
                              | {i for i in near_peaks if lo <= i <= hi})
                for a, i in enumerate(cuts):
                    for j in cuts[a + 1:]:
                        for top, pick in ((False, min), (True, max)):
                            assert (sections._corner(floors, box._peaks, i, j, top)
                                    == _slice_corner(floors, i, j, pick)), (seed, m, i, j)
                        blocks += bool(floors)
        assert blocks >= 3000

    def test_log_builds_only_narrow_denominators(self, monkeypatch):
        # finite_places: the denominators are built for the narrow counts,
        # each once, in increasing k, and for no wide one
        pair, m = _LOG_COUNT_BOXES["finite_places"]
        wide = _per_count_wide(section_box(pair, m), _cut(section_box(pair, m)))
        built = []
        original = sections._denominator_pairs
        monkeypatch.setattr(sections, "_denominator_pairs",
                            lambda floors, i, j: built.extend(range(i, j))
                            or original(floors, i, j))
        box = section_box(pair, m)
        assert not built
        box.log_count()
        assert built == [i for i, is_wide in enumerate(wide) if not is_wide]
        assert built and any(wide)
        assert "_denominators" not in vars(box)

    def test_box_floors_no_count(self, monkeypatch):
        # section_box keeps its refusals but floors nothing and builds no
        # d_k: the denominators are built, all at once, and the counts
        # floored the first time count_product or entries reads them
        calls, built = [], []
        original = sections._run_floors
        monkeypatch.setattr(sections, "_run_floors",
                            lambda *args: calls.append(args) or original(*args))
        pairs = sections._denominator_pairs
        monkeypatch.setattr(sections, "_denominator_pairs",
                            lambda *args: built.append(args[1:]) or pairs(*args))
        box = section_box(_slant_p2_p3(), 64)
        assert not calls and not built
        box.count_product
        assert len(calls) == 2 and built == [(0, 193)]
        box.entries
        assert len(calls) == 2 and built == [(0, 193)]


def _per_entry_box(pair, m):
    """The box entries with every roof value read off the grid and every
    floor decided on its own by _floor_scaled_exp."""
    window = pair.shifted_polytope()
    ks = range(-floor_fraction(-m * window.lo), floor_fraction(m * window.hi) + 1)
    xs = [F(k, m) for k in ks]
    psi_inf, finite = sections.place_roofs(pair)
    qs = _eval_on_grid(psi_inf.points, xs)
    ys = {p: _eval_on_grid(roof.points, xs) for p, roof in finite.items()}
    entries = []
    for i, k in enumerate(ks):
        d = F(1)
        for p in finite:
            d *= F(p) ** floor_fraction(scalar_fraction(m * ys[p][i]))
        q = scalar_fraction(m * qs[i])
        n = sections._floor_scaled_exp(d, q)
        entries.append(BoxEntry(k=k, denominator=d, log_bound=q, count=2 * n + 1))
    return tuple(entries)


def _fine_roof():
    """A roof on [0, 1] with breakpoints at every j/8: at m = 8 each
    exponent below 7 is a run of its own."""
    points, y = [], F(0)
    for j in range(8):
        points.append([str(j), str(y)])
        y += F(j + 1, 8)
    return scene_from_dict({"c0": "1", "cinf": "0", "potentials": {"inf": {
        "kind": "convex", "points": points, "left_slope": "0",
        "right_slope": "1"}}})


def _counting_fallbacks(monkeypatch):
    calls = []
    original = sections._floor_scaled_exp

    def counting(d, q):
        calls.append((d, q))
        return original(d, q)

    monkeypatch.setattr(sections, "_floor_scaled_exp", counting)
    return calls


@st.composite
def _runs(draw):
    """(ds, start, a, b, den) for _run_floors: denominators as a finite
    place makes them, 2^i 3^j above or below, and q_k = (a + b k) / den
    from about -400 to 700 on the run."""
    den = draw(st.integers(1, 300))
    start = draw(st.integers(-64, 64))
    b = draw(st.integers(-8 * den, 8 * den))
    a = draw(st.integers(-60 * den, 300 * den)) - b * start
    exps = draw(st.lists(st.tuples(st.integers(-40, 40), st.integers(-25, 25)),
                         min_size=1, max_size=40))
    ds = [(2 ** max(i, 0) * 3 ** max(j, 0), 2 ** max(-i, 0) * 3 ** max(-j, 0))
          for i, j in exps]
    return ds, start, a, b, den


def _two_ended_floors(ds, start, a, b, den, bits):
    """The run ladder with both ends of the enclosure stepped by full
    products, at ``bits`` bits: the floors, and the k whose ends straddle
    an integer and go to the per-entry decider."""
    low, high, e = sections._exp_mantissas(F(a + b * start, den), bits)
    step_low, step_high, step_e = sections._exp_mantissas(F(b, den), bits)
    floors, fallbacks = [], []
    for k, (num, d) in zip(range(start, start + len(ds)), ds):
        if k != start:
            low *= step_low
            high *= step_high
            e += step_e
            shift = high.bit_length() - bits
            if shift > 0:
                low >>= shift
                high = -(-high >> shift)
                e += shift
        n = sections._floor_times(num, d, low, e)
        if n != sections._floor_times(num, d, high, e):
            fallbacks.append(k)
            n = sections._floor_scaled_exp(F(num, d), F(a + b * k, den))
        floors.append(n)
    return floors, fallbacks


def _long_run(length):
    return [(1, 1)] * length, 0, 7 * length, -5, 3


_LADDER_CASES = {
    "tent_128": (Pair(tent_divisor()), 128),
    "slant_p2_p3_64": (_slant_p2_p3(), 64),
    "slant_64": (Pair(slant_divisor()), 64),
}


class TestLadder:
    """section_box encloses e^q once per affine run of the roof and steps it
    in integer arithmetic; _floor_scaled_exp decides the entries whose
    enclosure straddles an integer."""

    @given(st.integers(0, 10 ** 6).map(
               lambda seed: sample_big_pair(random.Random(seed))),
           st.integers(1, 64))
    # a breakpoint on the grid (x = 2), a zero-slope run and q = 0 at k = 3m
    @example(_slant_p2_p3(), 4)
    @example(_slant_p2_p3(), 5)
    # every exponent a run of length 1
    @example(_fine_roof(), 8)
    # q = 0 at the end of a falling run
    @example(Pair(slant_divisor()), 16)
    # negative q past x = 1/2
    @example(Pair(slant_divisor() + height_shift(F(-1, 2))), 12)
    @example(Pair(tent_divisor()), 64)
    @example(half_zero_pair(), 64)
    @settings(max_examples=40, deadline=None)
    def test_matches_per_entry_floors(self, pair, m):
        assert section_box(pair, m).entries == _per_entry_box(pair, m)

    @pytest.mark.parametrize("margin", [-40, -24, -16])
    @pytest.mark.parametrize("case", sorted(_LADDER_CASES))
    def test_straddling_enclosures_fall_back(self, monkeypatch, margin, case):
        # a margin below the working precision leaves enclosures wider than
        # an integer, so the per-entry decider settles many entries
        pair, m = _LADDER_CASES[case]
        want = section_box(pair, m).entries
        monkeypatch.setattr(sections, "_MARGIN_BITS", margin)
        calls = _counting_fallbacks(monkeypatch)
        assert section_box(pair, m).entries == want
        assert len(calls) >= 5

    @pytest.mark.parametrize("case", sorted(_LADDER_CASES))
    def test_guard_bits_cover_the_run(self, monkeypatch, case):
        # with the margin cut to -8 bits the 2 bitlen(run length) guard bits
        # alone keep the stepped enclosures narrow: only the q = 0 entry (or
        # none) is left to the per-entry decider
        pair, m = _LADDER_CASES[case]
        monkeypatch.setattr(sections, "_MARGIN_BITS", -8)
        calls = _counting_fallbacks(monkeypatch)
        section_box(pair, m).entries
        assert len(calls) <= 2

    def test_run_past_the_floor_cap_goes_per_entry(self, monkeypatch):
        # _check_cost keeps every run under the cap; without it, a run whose
        # precision would pass the cap is decided entry by entry
        pair, m = _LADDER_CASES["tent_128"]
        want = section_box(pair, m).entries
        monkeypatch.setattr(sections, "_check_cost", lambda *args: None)
        monkeypatch.setattr(sections, "_MAX_FLOOR_BITS", 200)
        calls = _counting_fallbacks(monkeypatch)
        assert section_box(pair, m).entries == want
        assert len(calls) == len(want)

    @given(_runs(), st.sampled_from([32, -16, -40, None]))
    # long enough that the error carried through the steps needs its guard
    # bits
    @example(_long_run(300), 32)
    @example(_long_run(300), -40)
    @example(([(3 ** 20, 2 ** 9)] * 64, 5, 1000, 7, 1), -16)
    @example(([(1, 1)], 0, 0, 1, 1), 32)
    @example(([(1, 1)] * 3, 0, 0, 0, 1), None)
    # every floor proven 0, and 0 proven at both ends only
    @example(([(1, 1)] * 4, 0, -100, 0, 1), 32)
    @example(([(1, 1), (2 ** 200, 1), (1, 1)], 0, -100, 0, 1), -16)
    @settings(max_examples=80, deadline=None)
    def test_run_matches_per_entry_floors(self, run, margin):
        # A margin below the working precision leaves enclosures wider than
        # an integer: the carried error must send the same entries to the
        # per-entry decider as two stepped ends do.  margin None keeps the
        # default and lowers _MAX_FLOOR_BITS just under the run's precision,
        # so the whole run goes to the per-entry decider, whose first
        # attempt still fits under the lowered cap.  The entries proven 0
        # at either end of the run are answered with no enclosure, so
        # neither route sees them; the size bound passed to the run is the
        # largest _size_bits of the entries between them.
        ds, start, a, b, den = run
        ks = range(start, start + len(ds))
        want = [sections._floor_scaled_exp(F(num, d), F(a + b * k, den))
                for k, (num, d) in zip(ks, ds)]
        inner = [i for i, (k, (num, d)) in enumerate(zip(ks, ds))
                 if not _proven_zero(F(num, d), F(a + b * k, den))]
        lo, hi = (inner[0], inner[-1] + 1) if inner else (0, 0)
        assert not any(want[:lo] + want[hi:])
        ds_in, ks_in = ds[lo:hi], ks[lo:hi]
        size = max((sections._size_bits(num, d, a + b * k, den)
                    for k, (num, d) in zip(ks_in, ds_in)), default=0)
        with pytest.MonkeyPatch.context() as patch:
            if margin is not None:
                patch.setattr(sections, "_MARGIN_BITS", margin)
            fallbacks = []
            if ds_in:
                bits = sections._start_bits(size) + 2 * len(ds_in).bit_length()
                if margin is None:
                    patch.setattr(sections, "_MAX_FLOOR_BITS", bits - 1)
                    fallbacks = ks_in
                else:
                    floors, fallbacks = _two_ended_floors(
                        ds_in, ks_in.start, a, b, den, bits)
                    assert floors == want[lo:hi]
            calls = []
            original = sections._floor_scaled_exp
            patch.setattr(sections, "_floor_scaled_exp",
                          lambda d, q: calls.append(q) or original(d, q))
            assert sections._run_floors(ds, start, a, b, den, size) == want
        assert calls == [F(a + b * k, den) for k in fallbacks]

    def test_one_enclosure_pair_per_run(self):
        pair = _slant_p2_p3()
        psi_inf, _ = sections.place_roofs(pair)
        runs = sections._affine_runs(psi_inf, 256, 0, 768)
        original = sections._exp_mantissas
        calls = []

        def counting_exp(x, bits):
            calls.append(bits)
            return original(x, bits)

        sections._exp_mantissas = counting_exp
        try:
            box = section_box(pair, 256)
        finally:
            sections._exp_mantissas = original
        assert len(box.entries) == 769
        # the per-entry path made one call per entry, 769 in all
        assert len(runs) == 2
        assert len(calls) <= 3 * len(runs)

    @pytest.mark.parametrize("m, counts", [
        (4, [109] + [1] * 4), (16, [17772221] + [1] * 16)])
    def test_steep_roof_takes_no_huge_exponential(self, monkeypatch, m, counts):
        # the roof 1 - 10^2400 x gives q_k = m - 10^2400 k: past k = 0 every
        # floor is proven 0, so neither e^q_1 nor the step e^(-10^2400) is
        # enclosed; k = 0 holds 2 floor(e^m) + 1
        pair = scene_from_dict({"c0": "1", "cinf": "0", "potentials": {"inf": {
            "kind": "convex", "points": [["1e2400", "1"]], "left_slope": "0",
            "right_slope": "1"}}})
        original = sections._exp_mantissas
        calls = []
        monkeypatch.setattr(sections, "_exp_mantissas",
                            lambda x, bits: calls.append(x) or original(x, bits))
        assert [e.count for e in section_box(pair, m).entries] == counts
        assert calls and all(abs(x) <= 2 ** 20 for x in calls)

    def test_runs_split_at_breakpoints(self):
        # the roof of slant + p2 + p3 is 1 on [0, 2] and 3 - x on [2, 3]:
        # the grid point on the breakpoint opens the second run
        psi_inf, _ = sections.place_roofs(_slant_p2_p3())
        assert sections._affine_runs(psi_inf, 4, 0, 12) == [
            (0, 7, 4, 0, 1), (8, 12, 12, -1, 1)]


_powers = st.builds(lambda a, b: 2 ** a * 3 ** b,
                    st.integers(0, 40), st.integers(0, 25))


@st.composite
def _exponents(draw):
    den = draw(st.integers(1, 300))
    return F(draw(st.integers(-60 * den, 400 * den)), den)


def _mp_encloses(lo, hi, e, value):
    return lo * mp.mpf(2) ** e <= value <= hi * mp.mpf(2) ** e


def _sampled_exponents():
    """Zero, tiny and extreme exponents, and 300 seeded rationals with
    |numerator| <= 10^6 and denominator <= 10^4."""
    rng = random.Random(0)
    return [F(0), F(1, 10 ** 9), F(-1, 10 ** 9), F(10 ** 6), F(-10 ** 6)] + [
        F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4))
        for _ in range(300)]


class TestExpMantissas:
    """_exp_mantissas against mpmath at four times the precision.  The
    width relies on the count in its docstring: the Taylor tail and the
    floor of the sum put 2^w e^y within 3 units, each of the s squares
    doubles the log of the ends' ratio and each rounding adds less than
    2^(2-w), so at w = bits + s + 6 the ends round to at most 2 apart."""

    @pytest.mark.parametrize("bits", [64, 128, 512, 2048])
    def test_encloses_mpmath(self, bits):
        with mp.workprec(4 * bits):
            for x in _sampled_exponents():
                lo, hi, e = sections._exp_mantissas(x, bits)
                assert hi.bit_length() == bits and 0 <= hi - lo <= 2, x
                if x == 0:
                    assert lo == hi == 1 << -e
                value = mp.exp(mp.mpf(x.numerator) / x.denominator)
                assert _mp_encloses(lo, hi, e, value), x

    def test_at_the_floor_cap(self):
        # the exponent of the costliest admitted box, a roof of height 44 at
        # m = 1024, at the widest precision a floor may take
        bits = sections._MAX_FLOOR_BITS
        lo, hi, e = sections._exp_mantissas(F(45056), bits)
        assert hi.bit_length() == bits and 0 <= hi - lo <= 2
        with mp.workprec(4 * bits):
            assert _mp_encloses(lo, hi, e, mp.exp(45056))


def test_import_does_not_load_mpmath():
    code = "import sys, adelic_volumes; assert 'mpmath' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                   env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})


class TestFloorScaledExp:
    @given(_powers, _powers, _exponents())
    @settings(max_examples=120, deadline=None)
    def test_one_enclosure_decides(self, num, den, q):
        d = F(num, den)
        n, precisions = _floor_with_precisions(d, q)
        if q == 0:
            assert (n, precisions) == (math.floor(d), [])
        elif _proven_zero(d, q):
            assert (n, precisions) == (0, [])
            _assert_floor(n, d, q, 64)
        else:
            assert len(precisions) == 1
            _assert_floor(n, d, q, precisions[0])

    @given(st.integers(1, 2 ** 200), st.integers(1, 2 ** 200),
           st.one_of(st.fractions(), st.builds(
               F, st.integers(-2 ** 1000, 2 ** 1000), st.integers(1, 2 ** 1000))),
           st.integers(1, 2 ** 70))
    @example(1, 1, F(0), 1)
    @example(3, 5, F(-7, 2), 6)
    @example(2 ** 100, 3, F(2 ** 1000 + 1, 3 ** 600), 1)
    @example(1, 1, F(1000, 1443), 7)
    @example(1, 1, F(1001, 1443), 2 ** 70)
    @settings(max_examples=200, deadline=None)
    def test_size_bits_matches_the_fraction_formula(self, num, den, q, scale):
        # q = a/b reaches _size_bits as integers, reduced or, as a run's
        # (A + B k) / D, not
        want = num.bit_length() - den.bit_length() + 1
        if q > 0:
            want += -((-q * 1443) // 1000)
        a, b = q.numerator, q.denominator
        assert sections._size_bits(num, den, a, b) == want
        assert sections._size_bits(num, den, a * scale, b * scale) == want

    def test_zero_exponent_is_exact(self):
        assert _floor_with_precisions(F(7, 2), F(0)) == (3, [])
        assert _floor_with_precisions(F(2 ** 200, 3), F(0)) == (2 ** 200 // 3, [])

    @pytest.mark.parametrize("d, q, want", [
        (F(1), F(-1), 0),
        (F(100), F(-1), 36),
        (F(3 ** 20, 2 ** 5), F(-60), 0),
        (F(2 ** 40), F(-7, 3), 106621806235),
    ])
    def test_negative_exponent(self, d, q, want):
        # e^-1 and 3^20 / 2^5 e^-60 are below 2^0 by the bit bound, so their
        # floors take no enclosure
        n, precisions = _floor_with_precisions(d, q)
        assert n == want
        assert len(precisions) == (0 if _proven_zero(d, q) else 1)
        _assert_floor(n, d, q, (precisions or [64])[0])

    @pytest.mark.parametrize("q", [F(-4 * 10 ** 100), F(-4 * 10 ** 400, 3)])
    def test_huge_negative_exponent(self, q):
        # a steep roof steps its exponent by -m psi'; 2^64 e^q < 1 by the
        # bit bound, so its floor takes no enclosure.  The ends of the
        # enclosure of e^q share one binary exponent by construction, so a
        # precision below the bits of q's integer part encloses it
        n, precisions = _floor_with_precisions(F(2 ** 64), q)
        assert (n, precisions) == (0, [])
        bits = q.numerator.bit_length() - q.denominator.bit_length()
        lo, hi, e = sections._exp_mantissas(q, 64)
        assert 0 <= lo <= hi < 2 ** (bits + 128) and e < -abs(q)
        assert hi - lo <= 2 and hi.bit_length() == 64

    def test_large_value_starts_at_its_bit_size(self):
        # e^400 has 578 integer bits; one enclosure of about that size
        n, precisions = _floor_with_precisions(F(1), F(400))
        assert precisions and 578 <= precisions[0] <= 578 + 64
        assert len(precisions) == 1
        _assert_floor(n, F(1), F(400), precisions[0])


class TestVolumeEstimate:
    def test_exact_small_levels(self):
        est1 = float(volume_estimate(slant_divisor(), 1))
        assert abs(est1 - 2 * math.log(15)) < 1e-12
        est2 = float(volume_estimate(slant_divisor(), 2))
        assert abs(est2 - math.log(225) / 2) < 1e-12

    def test_matches_roof_quadrature(self):
        # independent check at m = 32: the estimate approaches
        # 2 int max(roof, 0) = 1 from above for the slant divisor
        est = float(volume_estimate(slant_divisor(), 32))
        assert 1.0 < est < 1.0 + 4 / 32


def _valuation(d, p):
    """The exponent of the prime p in the Fraction d."""
    v = 0
    for n, sign in ((d.numerator, 1), (d.denominator, -1)):
        while n % p == 0:
            n, v = n // p, v + sign
    return v


class TestEmpiricalTransform:
    """The empirical concave transform, sampled by okounkov_sample at each
    exponent w of the level-m grid in the reflected shifted polytope."""

    def test_values_on_grid(self):
        # tent: the window [-1, 1] on both sides of 0, roof 1 - |x|
        sample = okounkov_sample(tent_divisor(), 2)
        assert [w for w, _ in sample.entries] == [F(k, 2) for k in range(-2, 3)]
        assert [t for _, t in sample.entries] == [0, F(1, 2), 1, F(1, 2), 0]

    def test_finite_place_contribution(self):
        values = dict(okounkov_sample(p_slant_divisor(2), 1).entries)
        assert values[F(0)] == log_unit(2)
        assert values[F(-1)] == 0

    @pytest.mark.parametrize("m", [0, -2])
    def test_rejects_bad_multiple(self, m):
        with pytest.raises(ValueError, match="positive integer"):
            okounkov_sample(slant_divisor(), m)

    @staticmethod
    def _per_exponent(pair, m):
        """The sample read exponent by exponent through ConcavePA.eval and
        the field operators, psi_inf(x) + sum_p floor(m psi_p(x)) log p / m:
        the route before the sample read the exponent table of
        ``sections._lattice`` and built its values from integer
        coefficients."""
        psi_inf, finite = sections.place_roofs(pair)
        window = pair.shifted_polytope()
        lo = -floor_fraction(scalar_fraction(m * window.hi))
        hi = floor_fraction(scalar_fraction(-m * window.lo))
        out = []
        for j in range(lo, hi + 1):
            x = F(-j, m)
            value = psi_inf.eval(x)
            for p, roof in finite.items():
                e = floor_fraction(scalar_fraction(m * roof.eval(x)))
                value = value + e * log_unit(p) / m
            out.append((F(j, m), value))
        return tuple(out)

    @pytest.mark.parametrize("pair", [
        Pair(slant_divisor()), Pair(tent_divisor()), half_zero_pair(),
        Pair(p_slant_divisor(2)), _slant_p2_p3(),
        Pair(tent_divisor() + p_slant_divisor(3),
             BaseCondition({"inf": F(1, 2)}))])
    @pytest.mark.parametrize("m", [1, 7, 64])
    def test_sample_reads_the_lattice_exponent_table(self, monkeypatch, pair, m):
        # the sample reads the exponent table of ``sections._lattice``: no
        # roof is evaluated per point, and the values are those of the
        # per-exponent route byte for byte
        want = self._per_exponent(pair, m)

        def per_point_eval(*args):
            raise AssertionError("okounkov_sample evaluated a roof per point")

        for cls in (pa.ConcavePA, pa._LinePA):
            for name in ("eval", "__call__"):
                monkeypatch.setattr(cls, name, per_point_eval)
        got = okounkov_sample(pair, m).entries
        assert got == want
        assert [repr(t) for _, t in got] == [repr(t) for _, t in want]

    def test_no_mpmath(self):
        # neither the sample nor the enclosures under it can reach mpmath:
        # the modules bind no name that comes from it
        for module in (sections, exactnum):
            for name, value in vars(module).items():
                origin = (value.__name__ if isinstance(value, types.ModuleType)
                          else getattr(value, "__module__", None) or "")
                assert not origin.startswith("mpmath"), (module.__name__, name)

    @pytest.mark.parametrize("m", [1, 7, 64])
    def test_sampled_pairs_within_the_floor_bound(self, m):
        # the floor at place p takes at least 0 and less than log p / m off
        # the transform, so 0 <= transform(w) - t < sum_p log p / m
        strict = 0
        for seed in range(60):
            pair = sample_big_pair(random.Random(seed), allow_finite=seed % 2 == 1)
            transform = analytic_okounkov(pair).transform
            bound = sum((log_unit(p) for p in sections.place_roofs(pair)[1]),
                        F(0)) / m
            for w, t in okounkov_sample(pair, m).entries:
                gap = transform.eval(w) - t
                assert gap >= 0, (seed, w)
                assert not gap or gap < bound, (seed, w)
                strict += gap > 0
        assert strict > 0

    def test_the_oracles_read_one_lattice(self):
        # the sample's exponents are the box's, and m t_k - log bound_k is
        # the log of the box's denominator d_k, exactly
        checked = skipped = with_primes = 0
        for seed in range(40):
            pair = sample_big_pair(random.Random(seed), allow_finite=seed % 2 == 1)
            primes = sections.place_roofs(pair)[1]
            for m in (1, 7, 64):
                try:
                    box = section_box(pair, m)
                except ValueError as exc:
                    assert "may need" in str(exc)  # refused by _check_cost
                    skipped += 1
                    continue
                sample = okounkov_sample(pair, m)
                assert sorted(-w * m for w, _ in sample.entries) == [
                    e.k for e in box.entries]
                ts = {-w * m: t for w, t in sample.entries}
                for e in box.entries:
                    log_d = sum((_valuation(e.denominator, p) * log_unit(p)
                                 for p in primes), F(0))
                    assert m * ts[e.k] - e.log_bound == log_d, (seed, m, e.k)
                checked += 1
                with_primes += any(e.denominator != 1 for e in box.entries)
        assert checked > 3 * skipped and with_primes, (checked, skipped, with_primes)

    def test_okounkov_sample_grid(self):
        sample = okounkov_sample(slant_divisor(), 2)
        ws = [w for w, _ in sample.entries]
        assert ws == [F(-1), F(-1, 2), F(0)]
        assert [t for _, t in sample.entries] == [0, F(1, 2), 1]


class TestAnalyticOkounkov:
    def test_slant(self):
        data = analytic_okounkov(slant_divisor())
        assert (data.domain.lo, data.domain.hi) == (-1, 0)
        assert data.body_volume == F(1, 2)
        assert data.avol == 1
        # transform is the reflected roof: t(w) = 1 + w on [-1, 0]
        assert data.transform.eval(F(-1, 2)) == F(1, 2)

    def test_tent(self):
        data = analytic_okounkov(tent_divisor())
        assert (data.domain.lo, data.domain.hi) == (-1, 1)
        assert data.body_volume == 1
        assert data.avol == 2

    def test_base_condition(self):
        data = analytic_okounkov(half_zero_pair())
        assert (data.domain.lo, data.domain.hi) == (-1, F(-1, 2))
        assert data.body_volume == F(1, 8)
        assert data.avol == F(1, 4)

    def test_p_slant_symbolic(self):
        data = analytic_okounkov(p_slant_divisor(2))
        assert data.avol == log_unit(2)

    def test_not_big_rejected(self):
        with pytest.raises(NotBig):
            analytic_okounkov(height_shift(1))

    def test_transform_matches_empirical(self):
        # with no finite place nothing is floored, so the empirical value
        # is the transform at every grid point
        data = analytic_okounkov(slant_divisor())
        sample = okounkov_sample(slant_divisor(), 8)
        for w, t in sample.entries:
            assert t == data.transform.eval(w)
