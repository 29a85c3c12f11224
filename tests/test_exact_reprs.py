"""Exact results are byte-identical to a recorded run.

For 60 sampled pairs and directions (finite places on odd seeds) the file
``tests/data/exact_reprs.json`` holds the type and ``repr`` of the volume,
the global roof, the Zariski positive part with its region and potentials,
the positive intersection and both derivative jets.  A change to the exact
field must reproduce them byte for byte: the canonical form of a quotient is
part of every printed result.

``tests/data/jet_reprs.json`` holds the typed reprs of both jets
(``_Line.jet``) on 300 more sampled lines, finite places on odd seeds, as
recorded when each jet was one volume over the field Q(log p)(eps).

``tests/data/threshold_reprs.json`` holds the typed repr of
``pseff_threshold(pair, P)`` on 300 sampled cases, P the Zariski positive
part of a second sampled pair (finite places on odd seeds), as recorded
when every Newton step read the twisted roof built as a ``ConcavePA``.

``tests/data/diskant_reprs.json`` holds, for 300 sampled pairs of rational
big pairs (every 7th pair proportional, so that the equality cases occur),
the typed reprs of s0, s1, s2, r and R of ``diskant_report`` and each case's
name and slack; and for 300 sampled pairs with a finite place, the typed
reprs of ``adeg_product`` of their Zariski positive parts and of
avol(p1 + p2), as recorded when both were formed on Fractions per jet and
on the built sum pair.

``tests/data/field_reprs.json`` holds, for 200 sampled pairs of pairs with
a finite place (drawn as the finite Diskant records are), the typed reprs
of d = avol(p1 + p2) - avol(p1) - avol(p2) and d^2 - 4 avol(p1) avol(p2) of
the Brunn-Minkowski suite; for 200 more, with a sampled nef divisor N, the
typed repr of the superadditivity slack <(p1 + p2) N> - <p1 N> - <p2 N>;
and for 60 more, r, R and every slack of ``diskant_report``: the quotients
whose denominators are products of affine forms in the logs, as recorded
when every field quotient was cancelled by the heuristic gcd.

``tests/data/positive_part_reprs.json`` holds, for 20 sampled big pairs
whose Zariski positive part P has a tail in Q(log p), drawn until it does,
and a second sampled big pair q, r, R and every slack of
``diskant_report(P, q)`` and ``diskant_report(q, P)``: thresholds whose
pair or direction has tails outside Q, as recorded when those lines took
the field route (``_Line.roof``).

Regenerate the files, only for an intended change of results, with

    PYTHONPATH=src python3 tests/test_exact_reprs.py
"""

import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from adelic_volumes.divisors import ARCH, Pair, place_label
from adelic_volumes.harness import (diskant_report, sample_big_pair, sample_direction,
                                    sample_nef_divisor)
from adelic_volumes.positivity import (_Line, _sum_volume, adeg_product, avol,
                                       positive_intersection, pseff_threshold,
                                       zariski_positive_part)

DATA = Path(__file__).parent / "data" / "exact_reprs.json"
COUNT = 60
JETS = Path(__file__).parent / "data" / "jet_reprs.json"
JET_COUNT = 300
THRESHOLDS = Path(__file__).parent / "data" / "threshold_reprs.json"
THRESHOLD_COUNT = 300
DISKANT = Path(__file__).parent / "data" / "diskant_reprs.json"
DISKANT_COUNT = 300
FIELD = Path(__file__).parent / "data" / "field_reprs.json"
FIELD_COUNT = 200
FIELD_DISKANT_COUNT = 60
POSITIVE = Path(__file__).parent / "data" / "positive_part_reprs.json"
POSITIVE_COUNT = 20


def _typed(x):
    return [type(x).__name__, repr(x)]


def _draw(rng, finite: bool) -> tuple:
    """A sampled pair and direction; with finite, drawn until one of them
    has a finite place."""
    while True:
        pair = sample_big_pair(rng, allow_finite=finite)
        direction = sample_direction(rng, allow_finite=finite)
        if not finite or set(pair.divisor.places + direction.places) - {ARCH}:
            return pair, direction


def record(seed: int) -> dict:
    """The typed reprs of one sampled instance.  Odd seeds draw until the
    pair or the direction has a finite place."""
    pair, direction = _draw(random.Random(f"exact-reprs:{seed}"), seed % 2 == 1)
    zar = zariski_positive_part(pair)
    positive = zar.positive
    line = _Line(pair, direction)
    return {
        "pair": repr(pair),
        "avol": _typed(avol(pair)),
        "global_roof": _typed(pair.global_roof()),
        "zariski_region": _typed(zar.region),
        "zariski_positive": _typed(positive),
        "zariski_potentials": [[place_label(v)] + _typed(positive.potential(v))
                               for v in (ARCH,) + positive.places],
        "positive_intersection": _typed(positive_intersection(pair, direction)),
        "jet_right": [_typed(c) for c in line.jet(+1)],
        "jet_left": [_typed(c) for c in line.jet(-1)],
    }


def record_jets(seed: int) -> dict:
    """The pair, the direction and the typed reprs of both jets of one
    sampled line; odd seeds draw until one of them has a finite place."""
    pair, direction = _draw(random.Random(f"jet-reprs:{seed}"), seed % 2 == 1)
    line = _Line(pair, direction)
    return {
        "pair": repr(pair),
        "direction": repr(direction),
        "jet_right": [_typed(c) for c in line.jet(+1)],
        "jet_left": [_typed(c) for c in line.jet(-1)],
    }


def _jet_text() -> str:
    return json.dumps({str(s): record_jets(s) for s in range(JET_COUNT)}, indent=1) + "\n"


def record_threshold(seed: int) -> dict:
    """The pair, the positive part and the typed repr of the threshold of
    one sampled case; odd seeds draw until one of the two pairs has a
    finite place."""
    rng = random.Random(f"threshold-reprs:{seed}")
    while True:
        pair = sample_big_pair(rng, allow_finite=seed % 2 == 1)
        other = sample_big_pair(rng, allow_finite=seed % 2 == 1)
        if seed % 2 == 0 or set(pair.divisor.places + other.divisor.places) - {ARCH}:
            break
    positive = zariski_positive_part(other).positive
    t = pseff_threshold(pair, positive)
    return {"pair": repr(pair), "positive": repr(positive),
            "threshold": [type(t.lo).__name__, repr(t)]}


def _threshold_text() -> str:
    return json.dumps({str(s): record_threshold(s) for s in range(THRESHOLD_COUNT)},
                      indent=1) + "\n"


def _bracket(b) -> list:
    return [type(b.lo).__name__, repr(b)]


def record_diskant(seed: int) -> dict:
    """The pairs and the typed reprs of one rational Diskant report; every
    7th second pair is a multiple of the first."""
    rng = random.Random(f"diskant-reprs:{seed}")
    p1 = sample_big_pair(rng, allow_finite=False)
    if seed % 7 == 0:
        p2 = p1.scale(Fraction(rng.randint(1, 6), rng.randint(1, 3)))
    else:
        p2 = sample_big_pair(rng, allow_finite=False)
    rep = diskant_report(p1, p2)
    return {"pair1": repr(p1), "pair2": repr(p2),
            "s": [_typed(rep.s0), _typed(rep.s1), _typed(rep.s2)],
            "r": _bracket(rep.r), "R": _bracket(rep.R),
            "cases": [[c.name] + _typed(c.slack) for c in rep.cases]}


def record_finite_sum(seed: int) -> dict:
    """The pairs, the typed repr of the intersection number of their
    Zariski positive parts and that of avol(p1 + p2), drawn until one of
    the pairs has a finite place."""
    rng = random.Random(f"finite-sum-reprs:{seed}")
    while True:
        p1 = sample_big_pair(rng)
        p2 = sample_big_pair(rng)
        if set(p1.divisor.places + p2.divisor.places) - {ARCH}:
            break
    z1, z2 = (zariski_positive_part(p).positive for p in (p1, p2))
    return {"pair1": repr(p1), "pair2": repr(p2),
            "adeg_product": _typed(adeg_product(z1, z2)),
            "sum_volume": _typed(avol(p1 + p2))}


def _diskant_text() -> str:
    return json.dumps({"rational": {str(s): record_diskant(s) for s in range(DISKANT_COUNT)},
                       "finite": {str(s): record_finite_sum(s) for s in range(DISKANT_COUNT)}},
                      indent=1) + "\n"


def _finite_pairs(rng) -> tuple:
    """Two sampled big pairs, drawn until one of them has a finite place."""
    while True:
        p1 = sample_big_pair(rng)
        p2 = sample_big_pair(rng)
        if set(p1.divisor.places + p2.divisor.places) - {ARCH}:
            return p1, p2


def record_brunn_minkowski(seed: int) -> dict:
    """The pairs and the typed reprs of the Brunn-Minkowski suite's d and
    gap on one sampled pair of pairs with a finite place."""
    p1, p2 = _finite_pairs(random.Random(f"field-reprs-bm:{seed}"))
    v1, v2 = avol(p1), avol(p2)
    d = _sum_volume(p1, p2) - v1 - v2
    return {"pair1": repr(p1), "pair2": repr(p2),
            "d": _typed(d), "gap": _typed(d * d - 4 * v1 * v2)}


def record_superadditivity(seed: int) -> dict:
    """The pairs, N and the typed repr of the superadditivity suite's
    slack on one sampled pair of pairs with a finite place."""
    rng = random.Random(f"field-reprs-super:{seed}")
    p1, p2 = _finite_pairs(rng)
    n = sample_nef_divisor(rng)
    slack = (positive_intersection(p1 + p2, n) - positive_intersection(p1, n)
             - positive_intersection(p2, n))
    return {"pair1": repr(p1), "pair2": repr(p2), "N": repr(n),
            "slack": _typed(slack)}


def record_finite_diskant(seed: int) -> dict:
    """The pairs and the typed reprs of r, R and every slack of one
    Diskant report on a sampled pair of pairs with a finite place."""
    p1, p2 = _finite_pairs(random.Random(f"field-reprs-diskant:{seed}"))
    rep = diskant_report(p1, p2)
    return {"pair1": repr(p1), "pair2": repr(p2),
            "r": _bracket(rep.r), "R": _bracket(rep.R),
            "cases": [[c.name] + _typed(c.slack) for c in rep.cases]}


def _field_text() -> str:
    return json.dumps({
        "brunn_minkowski": {str(s): record_brunn_minkowski(s) for s in range(FIELD_COUNT)},
        "superadditivity": {str(s): record_superadditivity(s) for s in range(FIELD_COUNT)},
        "diskant": {str(s): record_finite_diskant(s) for s in range(FIELD_DISKANT_COUNT)},
    }, indent=1) + "\n"


def _symbolic_tails(d) -> bool:
    return any(type(t) is not Fraction for t in (d.c0, d.cinf))


def record_positive_diskant(seed: int) -> dict:
    """The pairs and the typed reprs of r, R and every slack of the Diskant
    reports of a positive part P with a tail outside Q, as a pair, against
    a second sampled pair q, in both orders."""
    rng = random.Random(f"positive-part-reprs:{seed}")
    while True:
        positive = zariski_positive_part(sample_big_pair(rng)).positive
        if _symbolic_tails(positive):
            break
    p, q = Pair(positive), sample_big_pair(rng)
    out = {"positive": repr(p), "other": repr(q)}
    for key, (p1, p2) in (("first", (p, q)), ("second", (q, p))):
        rep = diskant_report(p1, p2)
        out[key] = {"r": _bracket(rep.r), "R": _bracket(rep.R),
                    "cases": [[c.name] + _typed(c.slack) for c in rep.cases]}
    return out


def _positive_text() -> str:
    return json.dumps({str(s): record_positive_diskant(s) for s in range(POSITIVE_COUNT)},
                      indent=1) + "\n"


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DATA.read_text())


def test_the_record_covers_finite_places(recorded):
    assert len(recorded) == COUNT
    assert all("log(" in json.dumps(recorded[str(seed)])
               for seed in range(1, COUNT, 2))


@pytest.mark.parametrize("seed", range(COUNT))
def test_reprs_are_byte_identical(recorded, seed):
    assert record(seed) == recorded[str(seed)]


def test_jet_reprs_are_byte_identical():
    want = JETS.read_text()
    recorded_jets = json.loads(want)
    assert len(recorded_jets) == JET_COUNT
    assert all("log(" in json.dumps(recorded_jets[str(seed)])
               for seed in range(1, JET_COUNT, 2))
    assert _jet_text() == want


def test_threshold_reprs_are_byte_identical():
    want = THRESHOLDS.read_text()
    recorded_thresholds = json.loads(want)
    assert len(recorded_thresholds) == THRESHOLD_COUNT
    odd = [recorded_thresholds[str(seed)] for seed in range(1, THRESHOLD_COUNT, 2)]
    assert all(re.search(r"potentials at [^)]*\d", rec["pair"] + rec["positive"])
               for rec in odd)
    assert sum("log(" in rec["threshold"][1] for rec in odd) >= 100
    assert _threshold_text() == want


def test_diskant_reprs_are_byte_identical():
    want = DISKANT.read_text()
    recorded_diskant = json.loads(want)
    rational, finite = recorded_diskant["rational"], recorded_diskant["finite"]
    assert len(rational) == len(finite) == DISKANT_COUNT
    assert sum(any(c[0] == "equality_r_vs_R" for c in rec["cases"])
               for rec in rational.values()) >= DISKANT_COUNT // 7
    assert all("log(" not in json.dumps(rec) for rec in rational.values())
    assert sum("log(" in rec["adeg_product"][1] for rec in finite.values()) >= 100
    assert sum("log(" in rec["sum_volume"][1] for rec in finite.values()) >= 100
    assert _diskant_text() == want


def test_field_reprs_are_byte_identical():
    want = FIELD.read_text()
    recorded_field = json.loads(want)
    bm, sup, disk = (recorded_field[k] for k in ("brunn_minkowski", "superadditivity",
                                                 "diskant"))
    assert len(bm) == len(sup) == FIELD_COUNT and len(disk) == FIELD_DISKANT_COUNT
    # quotients over products of affine forms, not only log polynomials
    assert sum(")/(" in rec["gap"][1] for rec in bm.values()) >= 50
    assert sum(")/(" in rec["slack"][1] for rec in sup.values()) >= 50
    assert sum(")/(" in json.dumps(rec["cases"]) for rec in disk.values()) >= 20
    assert _field_text() == want


def test_positive_part_reprs_are_byte_identical():
    want = POSITIVE.read_text()
    recorded_positive = json.loads(want)
    assert len(recorded_positive) == POSITIVE_COUNT
    assert all("log(" in rec[key]["r"][1] + rec[key]["R"][1]
               for rec in recorded_positive.values() for key in ("first", "second"))
    assert _positive_text() == want


if __name__ == "__main__":
    DATA.write_text(json.dumps({str(s): record(s) for s in range(COUNT)},
                               indent=1) + "\n")
    JETS.write_text(_jet_text())
    THRESHOLDS.write_text(_threshold_text())
    DISKANT.write_text(_diskant_text())
    FIELD.write_text(_field_text())
    POSITIVE.write_text(_positive_text())
