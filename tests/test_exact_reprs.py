"""Exact results are byte-identical to a recorded run.

For 60 sampled pairs and directions (finite places on odd seeds) the file
``tests/data/exact_reprs.json`` holds the type and ``repr`` of the volume,
the global roof, the Zariski positive part with its region and potentials,
the positive intersection and both derivative jets.  A change to the exact
field must reproduce them byte for byte: the canonical form of a quotient is
part of every printed result.

Regenerate the file, only for an intended change of results, with

    PYTHONPATH=src python3 tests/test_exact_reprs.py
"""

import json
import random
from pathlib import Path

import pytest

from adelic_volumes.divisors import ARCH, place_label
from adelic_volumes.harness import _jet, sample_big_pair, sample_direction
from adelic_volumes.positivity import (_Line, avol, positive_intersection,
                                       zariski_positive_part)

DATA = Path(__file__).parent / "data" / "exact_reprs.json"
COUNT = 60


def _typed(x):
    return [type(x).__name__, repr(x)]


def record(seed: int) -> dict:
    """The typed reprs of one sampled instance.  Odd seeds draw until the
    pair or the direction has a finite place."""
    rng = random.Random(f"exact-reprs:{seed}")
    finite = seed % 2 == 1
    while True:
        pair = sample_big_pair(rng, allow_finite=finite)
        direction = sample_direction(rng, allow_finite=finite)
        if not finite or set(pair.divisor.places + direction.places) - {ARCH}:
            break
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
        "jet_right": [_typed(c) for c in _jet(line, +1)],
        "jet_left": [_typed(c) for c in _jet(line, -1)],
    }


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


if __name__ == "__main__":
    DATA.write_text(json.dumps({str(s): record(s) for s in range(COUNT)},
                               indent=1) + "\n")
