"""Write the scene files of the golden CLI corpus into tests/data/scenes.

    PYTHONPATH=src python tests/write_cli_scenes.py [OUT_DIR]

The six gallery scenes of the benchmark (slant, tent, the half-zero pair,
tent with order 1/2 at Infinity, slant + p_slant(2) and slant + p_slant(2)
+ p_slant(3)) are written from ``adelic_volumes.gallery`` through
``save_scene``.  The hand-built scenes, which the CI workflow also runs
through the console script, are slant twice (slant2), the height shift, the
cap-size scenes (exactly the cap of breakpoints, one over it, and as many
six- and twelve-digit random breakpoints as the breakpoint and bit caps
admit), two sampled finite-place pairs (s10, s29), the three-place
parabola, slant + height_shift(43) (the costliest admitted box at m =
1024), three steep roofs 1 - 10^e x (e = 100, 400 and 2400), and three
scenes the CLI refuses: a non-toric base label (quadratic), an unknown
potential kind (foo) and a place past the proven-prime bound (mersenne).
The files are committed, and ``tests/test_cli_golden.py`` checks that this
script still writes them byte for byte (into a temporary OUT_DIR); rerun it
only to regenerate them, then rerun ``tests/record_cli_golden.py``.
"""

import argparse
import json
import random
from fractions import Fraction as F
from pathlib import Path

from adelic_volumes.divisors import BaseCondition, Pair
from adelic_volumes.gallery import (half_zero_pair, height_shift, p_slant_divisor,
                                    slant_divisor, tent_divisor)
from adelic_volumes.harness import sample_big_pair
from adelic_volumes.scenes import MAX_BREAKPOINTS, save_scene, scene_from_dict

OUT = Path(__file__).resolve().parent / "data" / "scenes"


def _cap_scene(k, digits=None):
    # k breakpoints (i/3, y) on slopes rising from -1 to 1; with digits,
    # each coordinate moves by a random rational with a denominator of that
    # many digits
    rng = random.Random(1)
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
    pot = {"kind": "convex", "points": [[str(u), str(v)] for u, v in pts],
           "left_slope": "-1", "right_slope": "1"}
    return {"c0": "1", "cinf": "1", "potentials": {"inf": pot}}


def _parabola(s):
    # 64 integer breakpoints (i, i^2 + s), i = -32 ... 31
    return {"kind": "convex", "left_slope": "-64", "right_slope": "64",
            "points": [[str(i), str(i * i + s)] for i in range(-32, 32)]}


# the one-breakpoint potential of the hand-written scenes: the roof 1 - x
_SLANT_INF = {"kind": "convex", "points": [["1", "1"]], "left_slope": "0", "right_slope": "1"}


def _one_potential(place, potential, **rest):
    return {"c0": "1", "cinf": "0", "potentials": {place: potential}, **rest}


def write_scenes(out: Path) -> None:
    """Write every scene of the corpus into the directory ``out``."""
    out.mkdir(parents=True, exist_ok=True)

    def dump(payload, name):
        (out / f"{name}.json").write_text(json.dumps(payload))

    slant = slant_divisor()
    pairs = {
        "slant": Pair(slant),
        "tent": Pair(tent_divisor()),
        "half_zero_pair": half_zero_pair(),
        "tent_order_inf": Pair(tent_divisor(), BaseCondition({"inf": F(1, 2)})),
        "slant_p2": Pair(slant + p_slant_divisor(2)),
        "slant_p2_p3": Pair(slant + p_slant_divisor(2) + p_slant_divisor(3)),
        "shift": Pair(height_shift(1)),
        "slant2": Pair(slant).scale(2),
        "s10": sample_big_pair(random.Random(10)),
        "s29": sample_big_pair(random.Random(29)),
        "slant_h43": Pair(slant + height_shift(43)),
    }
    for name, pair in pairs.items():
        save_scene(pair, out / f"{name}.json")
    dump(_cap_scene(MAX_BREAKPOINTS), "big")
    dump(_cap_scene(MAX_BREAKPOINTS + 1), "over")
    for digits, name in ((6, "random"), (12, "random12")):
        k = MAX_BREAKPOINTS
        while True:
            try:
                scene_from_dict(_cap_scene(k, digits))
                break
            except ValueError:
                k -= 1
        dump(_cap_scene(k, digits), name)
    dump({"c0": "64", "cinf": "64", "potentials": {
        "inf": _parabola(2000), "2": _parabola(0), "3": _parabola(0)}}, "three")
    # the steep roofs 1 - 10^e x, their point written as "1e<e>"
    for e, name in ((100, "steep"), (400, "steep400"), (2400, "steep2400")):
        dump(_one_potential("inf", _SLANT_INF | {"points": [[f"1e{e}", "1"]]}), name)
    dump(_one_potential("inf", _SLANT_INF, base={"t^2+1": "-1/3"}), "quadratic")
    dump(_one_potential("inf", _SLANT_INF | {"kind": "foo"}), "foo")
    # 2^4423 - 1 is prime, but past the bound where the scene reader proves it
    dump(_one_potential(str(2**4423 - 1), _SLANT_INF), "mersenne")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", nargs="?", type=Path, default=OUT,
                    help="directory to write the scenes into (default: tests/data/scenes)")
    write_scenes(ap.parse_args(argv).out)


if __name__ == "__main__":
    main()
