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
behind `diskant` is one pass of the line kernel over every breakpoint, on
integers or, with finite places, on integer polynomials in the logs, and
each exact `derivative` jet is one more pass, at a cost that grows with the
count, with the size of the numbers and with the number of places.  Scene
files are untrusted input: a malformed one raises ValueError (or an
AdelicVolumesError) with a one-line message, never another exception.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from .divisors import Pair
from .errors import AdelicVolumesError

_TOP_KEYS = {"c0", "cinf", "potentials", "base", "comment"}

# "1e400" is read exactly, as 10^400; decimal exponents get the bound that
# int() puts on the length of a digit string, so no number in a scene is
# much longer than that
_MAX_EXPONENT = 4300
_DECIMAL_EXPONENT = re.compile(r"\s*[-+]?[\d_.]*[eE]([-+]?\d+(?:_\d+)*)\s*")

# Each Newton step of `diskant` and each `derivative` jet is one pass of
# the line kernel over every breakpoint (see above), so the two caps bound
# a pass's work at each place: a scene at the cap against itself, against
# six-digit random breakpoints (87, just under MAX_SCENE_BITS) or
# twelve-digit ones (47), and the CI three-place scene (64 integer
# breakpoints at each of inf, 2 and 3) all pass in bounded time.  No cap
# bounds the number of places, which costs far more (ROADMAP item 23);
# CHANGES.md keeps the cold timings of these runs.
MAX_BREAKPOINTS = 192
# bits of the breakpoints and slopes in all: 48 breakpoints of
# twelve-digit rationals come to about 8000 bits
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
    """The bits of a Fraction's numerator and denominator; a parsed scene
    holds every breakpoint and slope as a Fraction."""
    return x._numerator.bit_length() + x._denominator.bit_length()


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
    """Write the pair as a scene file; ValueError, writing nothing, if
    ``load_scene`` would refuse the file (data outside Q or over budget)."""
    payload = scene_to_dict(pair)
    try:
        scene_from_dict(payload)
    except ValueError as exc:
        raise ValueError(f"the pair cannot be saved as a scene: {exc}") from None
    if comment is not None:
        payload["comment"] = comment
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
