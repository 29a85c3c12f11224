"""Scene files: one JSON object describing a divisor pair.

A scene holds the toric coefficients, the non-canonical potentials keyed by
place label ("inf" or a prime), and optionally a base condition: its orders
at the torus-fixed points, keyed by "0" and "inf" (or "infinity", "oo").
Any other base key raises InvalidPoint, since a base condition at a
non-toric point is outside the toric model.  All numbers are strings parsed
as exact rationals, e.g.

    {
      "c0": "1", "cinf": "0",
      "potentials": {
        "inf": {"kind": "convex", "points": [["1", "1"]],
               "left_slope": "0", "right_slope": "1"}
      },
      "base": {"0": "1/2"}
    }

A potential's "kind" is "convex" (the default) or "general"; any other kind
is refused.  Potentials at finite places are in log p units.  A "comment"
key is ignored.  Decimal exponents ("1e400") are read exactly and limited to
+-4300.  The potentials of a scene carry at most MAX_BREAKPOINTS breakpoints
in all, and their breakpoint coordinates and slopes at most MAX_SCENE_BITS
bits in all (numerator plus denominator): each Newton step of the thresholds
behind `diskant` builds a roof from every breakpoint, and each exact
`derivative` jet a volume, at a cost that grows with the count and with the
size of the numbers.  Scene files are untrusted input: a malformed one
raises ValueError (or an AdelicVolumesError) with a one-line message, never
another exception.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

from .divisors import Pair
from .errors import AdelicVolumesError

_TOP_KEYS = {"c0", "cinf", "potentials", "base", "comment"}

# "1e400" is read exactly, as 10^400; decimal exponents get the bound that
# int() puts on the length of a digit string, so no number in a scene is
# much longer than that
_MAX_EXPONENT = 4300
_DECIMAL_EXPONENT = re.compile(r"\s*[-+]?[\d_.]*[eE]([-+]?\d+(?:_\d+)*)\s*")

# Cold command-line runs at this cap, five each (min-max), 2-vCPU host,
# Python 3.11.7.  `diskant` of the CI scene (192 breakpoints) against itself
# takes 0.26-0.32 s, and against six-digit random breakpoints (87, just
# under MAX_SCENE_BITS) or twelve-digit ones (47) 0.32-0.48 s in either
# order, as do those two against each other.  The slowest pair found splits
# 64 integer breakpoints over each of inf, 2 and 3 against the CI scene:
# 0.57-0.87 s in either order, the log weights making every step exact in
# Q(log 2, log 3).  On the CI scene `avol` takes 0.22-0.27 s, `derivative`
# along itself 0.42-0.52 s, `okounkov` 0.20-0.21 s and `oracle --m 16`
# 0.27-0.37 s.  On the three-place scene `avol` takes 0.21-0.27 s,
# `derivative` along itself 0.37-0.57 s and along the CI scene 0.73-0.97 s;
# `okounkov` builds its 8,193 exact samples (window [-64, 64] at m = 64),
# and `oracle --m 16` refuses it for its count bits in 0.2 s.
MAX_BREAKPOINTS = 192
# 48 breakpoints of twelve-digit rationals come to about 8000 bits, and
# `diskant` of that scene against itself takes about 0.15 s (40 digits: 25,800
# bits and 0.2 s; 2-vCPU host, Python 3.11)
MAX_SCENE_BITS = 1 << 13


def _check_strings(value, where: str) -> None:
    """Every leaf of a scene is a string: JSON numbers would arrive as binary
    floats, and null or a boolean is no number at all."""
    if isinstance(value, dict):
        for key, item in value.items():
            _check_strings(item, f"{where}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _check_strings(item, f"{where}[{i}]")
    elif not isinstance(value, str):
        raise ValueError(
            f"{where} is {json.dumps(value)}; numbers are strings, e.g. \"1/2\""
        )
    else:
        exp = _DECIMAL_EXPONENT.fullmatch(value)
        if exp and (len(exp[1]) > 8 or abs(int(exp[1])) > _MAX_EXPONENT):
            raise ValueError(
                f"{where} has a decimal exponent beyond +-{_MAX_EXPONENT}"
            )


def scene_from_dict(payload: dict) -> Pair:
    if not isinstance(payload, dict):
        raise ValueError(f"scene must be a JSON object, got {type(payload).__name__}")
    unknown = set(payload) - _TOP_KEYS
    if unknown:
        raise ValueError(
            f"unknown scene keys {sorted(unknown)}; expected a subset of "
            f"{sorted(_TOP_KEYS)}"
        )
    if "c0" not in payload:
        raise ValueError("scene is missing the required key 'c0'")
    for key, value in payload.items():
        if key != "comment":
            _check_strings(value, key)
    for key in ("c0", "cinf"):
        if not isinstance(payload.get(key, ""), str):
            raise ValueError(f"{key} must be a string, e.g. \"1/2\"")
    for key in ("potentials", "base"):
        if not isinstance(payload.get(key, {}), dict):
            raise ValueError(f"{key} must be an object keyed by label, "
                             f"got {type(payload[key]).__name__}")
    breakpoints = sum(
        len(pot["points"]) for pot in payload.get("potentials", {}).values()
        if isinstance(pot, dict) and isinstance(pot.get("points"), list))
    if breakpoints > MAX_BREAKPOINTS:
        raise ValueError(f"potentials carry {breakpoints} breakpoints; a scene "
                         f"may carry at most {MAX_BREAKPOINTS}")
    try:
        pair = Pair.from_payload(payload)
    except (KeyError, ZeroDivisionError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed scene: {exc!r}") from exc
    bits = 0
    for place in pair.divisor.places:
        pot = pair.divisor.potential(place)
        bits += _bits(pot.left_slope) + _bits(pot.right_slope)
        bits += sum(_bits(x) + _bits(y) for x, y in pot.points)
    if bits > MAX_SCENE_BITS:
        raise ValueError(f"breakpoints and slopes carry {bits} bits; a scene "
                         f"may carry at most {MAX_SCENE_BITS}")
    return pair


def _bits(x) -> int:
    x = Fraction(x)
    return x.numerator.bit_length() + x.denominator.bit_length()


def scene_to_dict(pair: Pair) -> dict:
    return pair.to_payload()


def load_scene(path) -> Pair:
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError as exc:
        raise ValueError(f"{path}: JSON nested too deeply") from exc
    try:
        return scene_from_dict(payload)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    except AdelicVolumesError as exc:
        # InvalidPoint, NotConvex, ...: keep the type, name the scene
        raise type(exc)(f"{path}: {exc}") from exc


def save_scene(pair: Pair, path, comment: str = None) -> None:
    payload = scene_to_dict(pair)
    if comment is not None:
        payload["comment"] = comment
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
