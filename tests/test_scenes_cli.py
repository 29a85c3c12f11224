"""Scene JSON files and the command-line front end."""

import contextlib
import copy
import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import adelic_volumes.cli as cli
import adelic_volumes.harness as harness
import adelic_volumes.scenes as scenes_mod
import adelic_volumes.sections as sections
from adelic_volumes.cli import main
from adelic_volumes.divisors import BaseCondition, Pair
from adelic_volumes.errors import InvalidPoint
from adelic_volumes.gallery import (
    half_zero_pair,
    height_shift,
    p_slant_divisor,
    slant_divisor,
    tent_divisor,
)
from adelic_volumes.scenes import load_scene, save_scene, scene_from_dict, scene_to_dict
from adelic_volumes.sections import volume_estimate

SCENE_DIR = Path(__file__).resolve().parent / "data" / "scenes"

F = Fraction


def _strict_loads(text):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    def refuse(name):
        raise AssertionError(f"{name} is not strict JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.fixture
def scenes(tmp_path):
    paths = {}
    for name, pair in [
        ("slant", Pair(slant_divisor())),
        ("tent", Pair(tent_divisor())),
        ("half_zero", half_zero_pair()),
        ("shift", Pair(height_shift(1))),
    ]:
        paths[name] = str(tmp_path / f"{name}.json")
        save_scene(pair, paths[name])
    return paths


class TestScenes:
    @pytest.mark.parametrize("pair", [
        Pair(slant_divisor()),
        Pair(tent_divisor()),
        half_zero_pair(),
        Pair(height_shift(1)),
        Pair(p_slant_divisor(2)),
    ])
    def test_round_trip(self, tmp_path, pair):
        path = tmp_path / "scene.json"
        save_scene(pair, path, comment="round trip fixture")
        assert load_scene(path) == pair

    def test_pair_outside_q_is_not_saved(self, tmp_path):
        # a positive part whose tails, its region's ends, lie in Q(log p):
        # a file of it would not load, so none is written
        from adelic_volumes.positivity import zariski_positive_part

        positive = zariski_positive_part(harness.sample_big_pair(random.Random(3))).positive
        assert str(positive.cinf) == "(2 + 1/2*log(3) + 9*log(5))/(2 + 5*log(3) + 8*log(5))"
        path = tmp_path / "positive.json"
        with pytest.raises(ValueError, match="cannot be saved") as info:
            save_scene(Pair(positive), path)
        assert "\n" not in str(info.value)
        assert not path.exists()

    def test_comment_is_ignored(self):
        payload = scene_to_dict(Pair(slant_divisor()))
        payload["comment"] = "anything"
        assert scene_from_dict(payload) == Pair(slant_divisor())

    def test_unknown_key_rejected(self):
        payload = scene_to_dict(Pair(slant_divisor()))
        payload["degree"] = "1"
        with pytest.raises(ValueError, match="degree"):
            scene_from_dict(payload)

    def test_missing_c0(self):
        with pytest.raises(ValueError, match="c0"):
            scene_from_dict({"cinf": "0"})

    def test_non_object(self):
        with pytest.raises(ValueError):
            scene_from_dict(["c0", "1"])

    def test_bad_json_names_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="broken.json"):
            load_scene(path)

    @pytest.mark.parametrize("c0", ["1e4300", "2.5E-4300", "1e4_300"])
    def test_decimal_exponent_at_the_limit(self, c0):
        assert scene_from_dict({"c0": c0}).divisor.c0 == Fraction(c0)

    @pytest.mark.parametrize("c0", ["1e4301", "1e-4301", "1E+99999999999"])
    def test_decimal_exponent_beyond_the_limit(self, c0):
        with pytest.raises(ValueError, match="exponent"):
            scene_from_dict({"c0": c0})

    def test_malformed_potential(self):
        with pytest.raises(ValueError, match="malformed"):
            scene_from_dict({"c0": "1", "cinf": "0",
                             "potentials": {"inf": {"kind": "convex"}}})


class TestCliAvol:
    def test_json(self, scenes, capsys):
        assert main(["avol", scenes["slant"]]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["avol"]["exact"] == "1"
        assert payload["avol"]["float"] == 1.0

    def test_base_condition(self, scenes, capsys):
        assert main(["avol", scenes["half_zero"]]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["avol"]["exact"] == "1/4"

    def test_missing_file(self, tmp_path, capsys):
        assert main(["avol", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_scene(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"c0": "1", "volume": "7"}))
        assert main(["avol", str(path)]) == 2
        assert "volume" in capsys.readouterr().err


class TestHostileScenes:
    _SLANT_INF = {"kind": "convex", "points": [["1", "1"]],
                  "left_slope": "0", "right_slope": "1"}

    @pytest.mark.parametrize("payload, needle", [
        ({"c0": {}}, "c0"),
        ({"c0": None}, "c0"),
        ({"c0": "1", "base": ["0"]}, "base"),
        ({"c0": "1", "potentials": ["inf"]}, "potentials"),
        ({"c0": 1.5, "cinf": "0"}, "numbers are strings"),
        ({"c0": "1", "cinf": 0}, "numbers are strings"),
        ({"c0": "1", "base": {"0": 0.5}}, "numbers are strings"),
        ({"c0": "1", "potentials": {"inf": {**_SLANT_INF, "points": 5}}},
         "numbers are strings"),
        ({"c0": "1", "potentials": {"inf": {**_SLANT_INF, "points": [["1", 1]]}}},
         "numbers are strings"),
        ({"c0": "1", "potentials": {"inf": "convex"}}, "malformed"),
        # a potential is convex or general; a typo or a roof is refused
        ({"c0": "1", "potentials": {"inf": {**_SLANT_INF, "kind": "foo"}}},
         "potential kind 'foo'"),
        ({"c0": "1", "potentials": {"inf": {**_SLANT_INF, "kind": "concave"}}},
         "potential kind 'concave'"),
    ])
    def test_malformed_exit_2(self, tmp_path, capsys, payload, needle):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        assert main(["avol", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert err.startswith("error:") and needle in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("depth", [900, 100_000])
    def test_deep_nesting_exit_2(self, tmp_path, capsys, depth):
        path = tmp_path / "deep.json"
        path.write_text('{"c0": "1", "base": {"0": ' + "[" * depth
                        + "]" * depth + "}}")
        assert main(["avol", str(path)]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_base_key_is_not_evaluated(self, tmp_path, capsys):
        marker = tmp_path / "created"
        key = f"t + 0*len(open({str(marker)!r}, 'w').name)"
        path = tmp_path / "hostile.json"
        path.write_text(json.dumps({
            "c0": "1", "cinf": "0", "potentials": {"inf": self._SLANT_INF},
            "base": {key: "1/2"}}))
        assert main(["avol", str(path)]) == 2
        assert "non-toric" in capsys.readouterr().err
        assert not marker.exists()


class TestHugeScenes:
    """Numbers like 1e400 are exact, so a scene can ask for far more work
    than can be done: a polytope of 10^400 at m = 4 has about 4 * 10^400
    exponents.  Such requests exit 2 at once; values past the float range
    print their float as null."""

    _HUGE = {"c0": "1e400", "cinf": "0"}
    _HUGE_BIG = {"c0": "1e400", "cinf": "0", "potentials": {"inf": {
        "kind": "convex", "points": [["0", "1"]],
        "left_slope": "0", "right_slope": "1e400"}}}
    # the roof 1 - 10^400 x: a volume of 10^-400 and a run whose exponent
    # steps by -4 * 10^400 at m = 4
    _STEEP = {"c0": "1", "cinf": "0", "potentials": {"inf": {
        "kind": "convex", "points": [["1e400", "1"]],
        "left_slope": "0", "right_slope": "1"}}}

    @pytest.mark.parametrize("command, payload, needle", [
        ("oracle", _HUGE, "exponents"),
        ("oracle", _HUGE_BIG, "exponents"),
        ("okounkov", _HUGE_BIG, "exponents"),
        ("okounkov", _HUGE, "not big"),
    ])
    def test_exit_2_at_once(self, tmp_path, capsys, command, payload, needle):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(payload))
        start = time.perf_counter()
        assert main([command, str(path), "--m", "4"]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert err.startswith("error:") and needle in err
        assert len(err.splitlines()) == 1

    def test_cap_is_checked_before_the_roofs(self, monkeypatch):
        def no_roofs(pair):
            raise AssertionError("roofs built for a refused box")

        monkeypatch.setattr(sections, "place_roofs", no_roofs)
        pair = scene_from_dict(self._HUGE_BIG)
        with pytest.raises(ValueError, match="exponents"):
            sections.section_box(pair, 4)
        with pytest.raises(ValueError, match="exponents"):
            sections.okounkov_sample(pair, 4)

    def test_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(sections, "_MAX_BOX_ENTRIES", 5)
        pair = Pair(slant_divisor())  # polytope [0, 1]
        assert len(sections.section_box(pair, 4).entries) == 5
        with pytest.raises(ValueError, match="exponents"):
            sections.section_box(pair, 5)

    @pytest.mark.parametrize("payload, needle", [
        # a huge archimedean roof value: the count would need 4 * 10^400 bits
        ({"c0": "1", "cinf": "0", "potentials": {"inf": {
            "kind": "convex", "points": [["1", "1e400"]],
            "left_slope": "0", "right_slope": "1"}}}, "bits"),
        # a huge finite-place roof value: 2^(4 * 10^400) as a denominator
        ({"c0": "1", "cinf": "0", "potentials": {"2": {
            "kind": "convex", "points": [["1", "1e400"]],
            "left_slope": "0", "right_slope": "1"}}}, "bits"),
        ({"c0": "1e99999999", "cinf": "0"}, "exponent"),
    ])
    def test_huge_values_exit_2(self, tmp_path, capsys, payload, needle):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(payload))
        start = time.perf_counter()
        assert main(["oracle", str(path), "--m", "4"]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and needle in err
        assert len(err.splitlines()) == 1

    def test_volume_beyond_float_range(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(self._HUGE_BIG))
        assert main(["avol", str(path)]) == 0
        payload = _strict_loads(capsys.readouterr().out)
        assert payload["avol"]["exact"] == "2" + "0" * 400
        assert payload["avol"]["float"] is None

    @pytest.mark.parametrize("point", ["1e20", "1e100", "1e400"])
    def test_steep_roof_oracle(self, tmp_path, capsys, point):
        path = tmp_path / "steep.json"
        steep = copy.deepcopy(self._STEEP)
        steep["potentials"]["inf"]["points"][0][0] = point
        path.write_text(json.dumps(steep))
        assert main(["oracle", str(path), "--m", "4,16", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        # the box at exponent 0 holds 2 floor(e^m) + 1 values, every
        # other box a single one
        assert [row["log_count"] for row in rows] == pytest.approx(
            [math.log(2 * math.floor(math.exp(m)) + 1) for m in (4, 16)])

    @pytest.mark.parametrize("first, second", [
        (_STEEP, "tent"), ("tent", _STEEP), (_STEEP, "slant"), ("slant", _STEEP)])
    def test_steep_roof_diskant(self, tmp_path, capsys, scenes, first, second):
        paths = []
        for name in (first, second):
            if isinstance(name, dict):
                paths.append(str(tmp_path / "steep.json"))
                with open(paths[-1], "w") as fh:
                    json.dump(name, fh)
            else:
                paths.append(scenes[name])
        assert main(["diskant", *paths]) == 0
        payload = _strict_loads(capsys.readouterr().out)
        assert payload["pass"] is True
        # every slack is exact; a display float past the float range is null
        slacks = payload["slacks"]
        assert all(v["float"] is None or isinstance(v["float"], float)
                   for v in slacks.values())
        assert slacks["chain_lower_vs_r"]["float"] >= 0
        # the exact string keeps the sign that a 0.0 display float hides
        assert Fraction(slacks["chain_lower_vs_r"]["exact"]) > 0

    def test_diskant_beyond_float_range(self, tmp_path, capsys):
        tent = {"kind": "convex", "points": [["0", "1"]],
                "left_slope": "-1", "right_slope": "1"}
        paths = []
        for name, top in (("huge", "1e400"), ("tent", "1")):
            paths.append(str(tmp_path / f"{name}.json"))
            with open(paths[-1], "w") as fh:
                json.dump({"c0": "1", "cinf": "1", "potentials": {
                    "inf": {**tent, "points": [["0", top]]}}}, fh)
        assert main(["diskant", *paths]) == 0
        payload = _strict_loads(capsys.readouterr().out)
        assert payload["pass"] is True
        assert payload["R"] == "1" + "0" * 400


class TestBoxBudget:
    """The counts of one box may need at most sections._MAX_BOX_BITS bits in
    all (entries x a per-entry bound read off the roofs' breakpoints).  The
    tent box has 2m + 1 entries of at most floor(1.443 m) + 3 bits, so the
    budget admits m = 4821 (1.2-1.4 s on a 2-vCPU host) and refuses
    m = 4822 before any exp is taken."""

    def test_just_over_exits_2_at_once(self, scenes, capsys):
        start = time.perf_counter()
        assert main(["oracle", scenes["tent"], "--m", "4822"]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert err.startswith("error:") and "bits" in err
        assert len(err.splitlines()) == 1

    def test_just_under_runs(self, scenes, capsys):
        assert main(["oracle", scenes["tent"], "--m", "4821", "--format",
                     "json"]) == 0
        row, = json.loads(capsys.readouterr().out)["rows"]
        assert abs(row["estimate"] - row["analytic_avol"]) < 4 / 4821

    def test_one_count_past_the_floor_cap(self, tmp_path, capsys):
        # a roof of height 64 at m = 1024 asks for counts of about 94,500
        # bits, past what one enclosure under _MAX_FLOOR_BITS can decide,
        # although the box as a whole is under the budget
        path = tmp_path / "tall.json"
        path.write_text(json.dumps({"c0": "1", "cinf": "0", "potentials": {
            "inf": {"kind": "convex", "points": [["1", "64"]],
                    "left_slope": "0", "right_slope": "1"}}}))
        start = time.perf_counter()
        assert main(["oracle", str(path), "--m", "1024"]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "a count" in err
        assert len(err.splitlines()) == 1


def _convex_scene(counts: dict) -> dict:
    """A big scene of degree 2 whose convex potential at each place carries
    the given number of breakpoints, at u = i/3 with slopes spread over
    (-1, 1)."""
    potentials = {}
    for place, k in counts.items():
        y, pts = F(1 + k), []
        for i in range(k):
            if i:
                y += (F(-1) + F(2 * i, k + 1)) / 3
            pts.append([str(F(i, 3)), str(y)])
        potentials[place] = {"kind": "convex", "points": pts,
                             "left_slope": "-1", "right_slope": "1"}
    return {"c0": "1", "cinf": "1", "potentials": potentials}


class TestBreakpointCap:
    def _save(self, tmp_path, counts):
        path = str(tmp_path / "many.json")
        with open(path, "w") as fh:
            json.dump(_convex_scene(counts), fh)
        return path

    def test_largest_admitted_scene(self, tmp_path, capsys):
        path = self._save(tmp_path, {"inf": scenes_mod.MAX_BREAKPOINTS})
        start = time.perf_counter()
        assert main(["diskant", path, path]) == 0
        assert time.perf_counter() - start < 5.0
        assert json.loads(capsys.readouterr().out)["pass"] is True

    def test_two_different_largest_scenes(self, tmp_path, capsys):
        # the scene at the breakpoint cap against the one just under the
        # bit cap (48 breakpoints of twelve-digit rationals), both orders
        big = self._save(tmp_path, {"inf": scenes_mod.MAX_BREAKPOINTS})
        digits = str(tmp_path / "digits.json")
        with open(digits, "w") as fh:
            json.dump(_digits_scene(12), fh)
        for argv in ([big, digits], [digits, big]):
            start = time.perf_counter()
            assert main(["diskant", *argv]) == 0
            assert time.perf_counter() - start < 5.0
            assert _strict_loads(capsys.readouterr().out)["pass"] is True

    @pytest.mark.parametrize("counts", [
        {"inf": scenes_mod.MAX_BREAKPOINTS + 1},
        {"inf": scenes_mod.MAX_BREAKPOINTS // 2 + 1,
         "2": scenes_mod.MAX_BREAKPOINTS // 2},
    ])
    @pytest.mark.parametrize("command", ["avol", "derivative", "diskant", "oracle"])
    def test_one_over_exit_2(self, tmp_path, capsys, counts, command):
        path = self._save(tmp_path, counts)
        argv = {"avol": [path], "oracle": [path],
                "diskant": [path, path],
                "derivative": [path, "--direction", path]}[command]
        start = time.perf_counter()
        assert main([command, *argv]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert err.startswith("error:") and "breakpoints" in err
        assert len(err.splitlines()) == 1


def _digits_scene(digits: int) -> dict:
    """_convex_scene with 48 breakpoints, each coordinate moved by a rational
    whose numerator and denominator have about ``digits`` digits."""
    payload = _convex_scene({"inf": 48})
    den = 10 ** (digits - 1) + 7
    for i, pt in enumerate(payload["potentials"]["inf"]["points"]):
        pt[0] = str(F(pt[0]) + F(10 ** (digits - 6) + i, den))
        pt[1] = str(F(pt[1]) + F(10 ** (digits - 6) + 2 * i, den + 2))
    return payload


class TestSceneBitCap:
    """Breakpoint coordinates and slopes carry at most MAX_SCENE_BITS bits
    (numerator plus denominator) in all."""

    @staticmethod
    def _one_breakpoint(j: int) -> dict:
        # slopes 0 and 1 (1 + 2 bits), the point (1, 2^j) (2 + j + 2 bits)
        return {"c0": "1", "cinf": "0", "potentials": {"inf": {
            "kind": "convex", "points": [["1", str(2 ** j)]],
            "left_slope": "0", "right_slope": "1"}}}

    def test_cap_is_inclusive(self):
        cap = scenes_mod.MAX_SCENE_BITS
        scene_from_dict(self._one_breakpoint(cap - 7))
        with pytest.raises(ValueError, match=f"{cap + 1} bits"):
            scene_from_dict(self._one_breakpoint(cap - 6))

    def test_largest_admitted_scene(self, tmp_path, capsys):
        # twelve digits: 48 breakpoints just under the cap
        path = tmp_path / "digits.json"
        path.write_text(json.dumps(_digits_scene(12)))
        start = time.perf_counter()
        assert main(["diskant", str(path), str(path)]) == 0
        assert time.perf_counter() - start < 5.0
        assert json.loads(capsys.readouterr().out)["pass"] is True

    @pytest.mark.parametrize("command", ["avol", "derivative", "diskant", "oracle"])
    def test_forty_digits_exit_2(self, tmp_path, capsys, command):
        path = str(tmp_path / "digits.json")
        with open(path, "w") as fh:
            json.dump(_digits_scene(40), fh)
        argv = {"avol": [path], "oracle": [path],
                "diskant": [path, path],
                "derivative": [path, "--direction", path]}[command]
        start = time.perf_counter()
        assert main([command, *argv]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "bits" in err
        assert len(err.splitlines()) == 1

    def test_committed_scenes_count_fractions(self, monkeypatch):
        # every breakpoint and slope of a parsed scene reaches _bits as a
        # Fraction (Pair.from_payload builds them so), and _bits reads its
        # slots with no conversion
        seen = []
        original = scenes_mod._bits

        def spy(x):
            seen.append(type(x))
            return original(x)

        monkeypatch.setattr(scenes_mod, "_bits", spy)
        loaded = 0
        for path in sorted(SCENE_DIR.glob("*.json")):
            try:
                load_scene(path)
            except (ValueError, InvalidPoint):
                continue
            loaded += 1
        scene_from_dict({"c0": "1", "cinf": "0"})
        assert loaded == 18 and len(seen) == 1162 and set(seen) == {Fraction}

    @pytest.mark.parametrize("pair", [
        Pair(slant_divisor()), Pair(tent_divisor()), half_zero_pair(),
        Pair(height_shift(1)), Pair(p_slant_divisor(2)),
        Pair(slant_divisor() + p_slant_divisor(2) + p_slant_divisor(3)),
        Pair(tent_divisor(), BaseCondition({"inf": F(1, 2)})),
    ])
    def test_gallery_scenes_load(self, pair):
        assert scene_from_dict(scene_to_dict(pair)) == pair


_SYMPY_FREE = """
import contextlib, io, json, sys
sys.modules["sympy"] = None  # import sympy now fails
from adelic_volumes.cli import main
out = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    out.append([code, buf.getvalue()])
print(json.dumps(out))
"""


def test_gallery_commands_run_without_sympy(tmp_path):
    """No computation needs sympy: every command on the gallery scenes,
    based ones included, prints the same JSON with sympy blocked."""
    pairs = [Pair(slant_divisor()), Pair(tent_divisor()), half_zero_pair(),
             Pair(p_slant_divisor(2)),
             Pair(slant_divisor() + p_slant_divisor(2) + p_slant_divisor(3)),
             Pair(tent_divisor(), BaseCondition({"inf": F(1, 2)}))]
    shift = str(tmp_path / "shift.json")
    save_scene(Pair(height_shift(1)), shift)
    argvs = []
    for i, pair in enumerate(pairs):
        path = str(tmp_path / f"scene{i}.json")
        save_scene(pair, path)
        argvs += [["avol", path], ["diskant", path, path],
                  ["derivative", path, "--direction", shift],
                  ["oracle", path, "--m", "16", "--format", "json"],
                  ["okounkov", path]]
    run = subprocess.run(
        [sys.executable, "-c", _SYMPY_FREE, json.dumps(argvs)],
        capture_output=True, text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    got = json.loads(run.stdout)
    for argv, (code, out) in zip(argvs, got, strict=True):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0
        assert (code, out) == (0, buf.getvalue()), argv


_IMPORT_GRAPH = """
import contextlib, io, json, sys, types
from importlib import import_module
before = set(sys.modules)
loaded = {}
for name in ("adelic_volumes", "adelic_volumes.harness", "adelic_volumes.cli"):
    import_module(name)
    loaded[name] = sorted(set(sys.modules) - before)
import adelic_volumes as av
try:
    av.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
star = {}
exec("from adelic_volumes import *", star)
home = {name: "adelic_volumes." + av._HOME[name] for name in av.__all__}
# every subcommand, the suites that count sections among them; the star
# import has loaded every module of the package already
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert av.cli.main(argv) == 0, argv
subcommands = sorted(sys.modules)
print(json.dumps({
    "loaded": loaded,
    "unknown": unknown,
    "all": av.__all__,
    "dir": dir(av),
    "star": sorted(set(star) - {"__builtins__"}),
    "not_home": [name for name in av.__all__
                 if not star[name] is getattr(av, name)
                 is getattr(import_module(home[name]), name)],
    "defined_elsewhere": [name for name in av.__all__
                          if isinstance(star[name], (type, types.FunctionType))
                          and star[name].__module__ != home[name]],
    "avol_is_positivity_avol": av.avol is import_module("adelic_volumes.positivity").avol,
    "subcommands": subcommands,
}))
"""


def test_import_graph():
    """The package resolves its public names on first use, and the
    library's entry points for the harness and the CLI import neither the
    counting oracle, the scene files nor dataclasses: the diskant and suite
    subcommands run none of them.  No module of the package, and no
    subcommand, imports dataclasses or inspect (with its ast, dis and
    tokenize)."""
    scenes = os.path.join(os.path.dirname(__file__), "data", "scenes")
    slant, shift = os.path.join(scenes, "slant.json"), os.path.join(scenes, "shift.json")
    argvs = [["avol", slant], ["derivative", slant, "--direction", shift],
             ["diskant", slant, slant], ["oracle", slant, "--m", "4"],
             ["okounkov", slant, "--m", "4"]]
    argvs += [["suite", name, "--count", "1"] for name in ("okounkov_match", "zariski")]
    run = subprocess.run(
        [sys.executable, "-c", _IMPORT_GRAPH, json.dumps(argvs)], capture_output=True,
        text=True, timeout=60, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    assert not [m for m in got["loaded"]["adelic_volumes"] if m.startswith("adelic_volumes.")]
    for name in ("adelic_volumes.harness", "adelic_volumes.cli"):
        unwanted = {"adelic_volumes.sections", "adelic_volumes.scenes", "dataclasses", "inspect"}
        assert not unwanted & set(got["loaded"][name]), name
    assert got["unknown"] == "module 'adelic_volumes' has no attribute 'no_such_name'"
    assert len(got["all"]) == 54 and set(got["all"]) <= set(got["dir"])
    assert got["star"] == sorted(got["all"])
    assert got["not_home"] == [] and got["defined_elsewhere"] == []
    assert got["avol_is_positivity_avol"]
    assert not {"dataclasses", "inspect"} & set(got["subcommands"])


class TestSceneKeys:
    """Keys are checked like values.  A place is a prime below psi_13, where
    Miller-Rabin to thirteen bases proves it prime, and a base label is 0 or
    inf; any other label is refused with a message of bounded length."""

    @pytest.mark.parametrize("command", ["avol", "diskant"])
    def test_huge_place_exit_2_at_once(self, tmp_path, capsys, command):
        # 2^4423 - 1 is prime, but past the bound where the test proves it
        path = str(tmp_path / "mersenne.json")
        with open(path, "w") as fh:
            json.dump({"c0": "1", "cinf": "0", "potentials": {
                str(2**4423 - 1): TestHostileScenes._SLANT_INF}}, fh)
        argv = [path] if command == "avol" else [path, path]
        start = time.perf_counter()
        assert main([command, *argv]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "3317044064679887385961981" in err
        assert len(err.splitlines()) == 1

    def test_long_base_label_exits_2_at_once(self, tmp_path, capsys):
        path = tmp_path / "label.json"
        path.write_text(json.dumps({
            "c0": "1", "cinf": "0", "base": {"t" * 10**6: "-1"},
            "potentials": {"inf": TestHostileScenes._SLANT_INF}}))
        start = time.perf_counter()
        assert main(["avol", str(path)]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"error: {path}: ") and "non-toric" in err
        # bounded whatever the label's length; the scene path comes on top
        assert len(err.splitlines()) == 1 and len(err) - len(str(path)) < 200

    def test_base_key_error_names_the_scene(self, scenes, tmp_path, capsys):
        # the InvalidPoint of the second scene says which file it came from
        path = tmp_path / "quadratic.json"
        path.write_text(json.dumps({
            "c0": "1", "cinf": "0", "base": {"t^2+1": "1"},
            "potentials": {"inf": TestHostileScenes._SLANT_INF}}))
        assert main(["diskant", scenes["slant"], str(path)]) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {path}: ") and "t^2+1" in err
        with pytest.raises(InvalidPoint, match="quadratic.json"):
            load_scene(path)


# Scene fuzzing: gallery scenes with 1-4 random edits, run in-process through
# avol, oracle --m 4, diskant against the tent scene and against a second
# edited scene, derivative of the slant scene with the edited scene as
# --direction, and derivative of the edited scene along the height shift.
# The bound is well above the slowest example seen on a 2-vCPU host (avol
# and oracle: 0.24 s over 11,000 examples; diskant and derivative: 0.1 s over
# 3,000); a hang or a traceback fails the test.
_FUZZ_SECONDS = 10.0
_FUZZ_BASES = [
    scene_to_dict(Pair(slant_divisor())),
    scene_to_dict(Pair(tent_divisor())),
    scene_to_dict(half_zero_pair()),
    scene_to_dict(Pair(slant_divisor() + p_slant_divisor(2))),
    scene_to_dict(Pair(height_shift(1))),
]
_FUZZ_WORDS = [
    "0", "1", "-1", "1/2", "-3/4", "7/3", "2", "3", "5", "12", "64", "1/0",
    "1e400", "-1e400", "1e-400", "1e4300", "1e4301", "1_0", " 1 ", "", "x",
    "inf", "nan", "convex", "general", "concave", "1000000007", "4", "t^2+1",
    "t-1", "0.5", "1e5",
]
_FUZZ_KEYS = [
    "inf", "2", "3", "4", "1000000007", "0", "t^2+1", "t - 1", "x", "c0",
    "cinf", "base", "potentials", "comment", "points", "kind", "left_slope",
    "right_slope", "domain",
]
_FUZZ_VALUES = st.one_of(
    st.sampled_from(_FUZZ_WORDS),
    st.text(max_size=5),
    st.integers(-3, 3),
    st.floats(),
    st.none(),
    st.booleans(),
    st.lists(st.sampled_from(_FUZZ_WORDS), max_size=3),
    st.lists(st.lists(st.sampled_from(_FUZZ_WORDS), min_size=2, max_size=2),
             max_size=3),
    st.dictionaries(st.sampled_from(_FUZZ_KEYS), st.sampled_from(_FUZZ_WORDS),
                    max_size=3),
)


def _fuzz_paths(node, path=()):
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _fuzz_paths(child, path + (key,))


@st.composite
def mutated_scenes(draw):
    payload = copy.deepcopy(draw(st.sampled_from(_FUZZ_BASES)))
    for _ in range(draw(st.integers(1, 4))):
        path = draw(st.sampled_from(list(_fuzz_paths(payload))))
        if not path:
            continue
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        node = parent[path[-1]]
        op = draw(st.sampled_from(["set", "set", "delete", "add"]))
        if op == "set":
            parent[path[-1]] = draw(_FUZZ_VALUES)
        elif op == "delete":
            del parent[path[-1]]
        elif isinstance(node, dict):
            node[draw(st.sampled_from(_FUZZ_KEYS))] = draw(_FUZZ_VALUES)
        elif isinstance(node, list):
            node.append(draw(_FUZZ_VALUES))
    return payload


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@given(mutated_scenes(), mutated_scenes())
@example(TestHugeScenes._HUGE, TestHugeScenes._HUGE_BIG)
@example(TestHugeScenes._HUGE_BIG, scene_to_dict(Pair(slant_divisor())))
@example(TestHugeScenes._STEEP, scene_to_dict(Pair(slant_divisor())))
@example(scene_to_dict(Pair(slant_divisor())), TestHugeScenes._STEEP)
@settings(max_examples=150, deadline=None)
def test_scene_fuzz(payload, other):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scene.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        other_path = os.path.join(tmp, "other.json")
        with open(other_path, "w") as fh:
            json.dump(other, fh)
        slant = os.path.join(tmp, "slant.json")
        save_scene(Pair(slant_divisor()), slant)
        tent = os.path.join(tmp, "tent.json")
        save_scene(Pair(tent_divisor()), tent)
        shift = os.path.join(tmp, "shift.json")
        save_scene(Pair(height_shift(1)), shift)
        for argv in (["avol", path], ["oracle", path, "--m", "4"],
                     ["diskant", path, tent], ["diskant", path, other_path],
                     ["derivative", slant, "--direction", path],
                     ["derivative", path, "--direction", shift]):
            start = time.perf_counter()
            code, out, err = _run_cli(argv)
            elapsed = time.perf_counter() - start
            assert code in (0, 1, 2), (argv[0], code)
            assert len(err.splitlines()) <= 1, err
            assert (code == 2) == bool(err), (code, err)
            assert elapsed < _FUZZ_SECONDS, (argv[0], elapsed, payload)
            if code != 2 and argv[0] != "oracle":  # the oracle prints CSV
                _strict_loads(out)


class TestCliDerivative:
    def test_fixture(self, scenes, capsys):
        assert main(["derivative", scenes["slant"],
                     "--direction", scenes["shift"]]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["analytic"]["exact"] == "2"
        assert payload["derivative"]["exact"] == "2"
        assert payload["exact_right"]["exact"] == "2"
        assert payload["exact_left"]["exact"] == "2"
        assert payload["curvature_jump"] is True
        assert payload["deviation"]["float"] == pytest.approx(1 / 6144)
        assert len(payload["table"]) == 9

    def test_near_wall(self, tmp_path, capsys, scenes):
        path = str(tmp_path / "near_wall.json")
        save_scene(Pair(slant_divisor() - height_shift(F(1, 2**50))), path)
        assert main(["derivative", path, "--direction", scenes["shift"]]) == 0
        payload = json.loads(capsys.readouterr().out)
        want = str(2 * (1 - F(1, 2**50)))
        assert payload["exact_right"]["exact"] == want
        assert payload["exact_left"]["exact"] == want
        assert payload["derivative"]["exact"] == want
        assert payload["analytic"]["exact"] == want

    def test_no_step_option(self, scenes, capsys):
        # "--h" is no option, and no longer matches "--help" as a prefix
        with pytest.raises(SystemExit) as exc:
            main(["derivative", scenes["slant"],
                  "--direction", scenes["shift"], "--h", "1/8"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--h" in captured.err

    def test_option_prefix_exit_2(self, scenes, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["derivative", scenes["slant"], "--dir", scenes["shift"]])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_based_direction_exit_2(self, tmp_path, capsys, scenes):
        path = str(tmp_path / "based_shift.json")
        save_scene(Pair(height_shift(1), BaseCondition({"0": F(1, 2)})), path)
        assert main(["derivative", scenes["slant"], "--direction", path]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and "base" in err


def test_exact_values_past_the_digit_limit(capsys):
    # Python converts at most 4,300 digits of an int to str by default; an
    # exact value past that prints whole, and the limit is back afterwards
    limit = sys.get_int_max_str_digits()
    x = F(10 ** 5000 + 1, 3)
    cli._emit({"value": cli._scalar_json(x), "pair": [x, x]})
    payload = _strict_loads(capsys.readouterr().out)
    want = "1" + "0" * 4999 + "1/3"
    assert payload == {"value": {"exact": want, "float": None}, "pair": [want, want]}
    assert sys.get_int_max_str_digits() == limit


class TestCliDiskant:
    def test_fixture(self, scenes, capsys):
        assert main(["diskant", scenes["slant"], scenes["tent"]]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["s"] == ["2", "2", "1"]
        assert payload["r"] == "1/2"
        assert payload["R"] == "1"
        assert payload["pass"] is True
        assert payload["slacks"]["bonnesen"]["float"] == pytest.approx(1.75)
        assert payload["slacks"]["bonnesen"]["exact"] == "7/4"

    def test_negative_discriminant_exits_1(self, scenes, capsys, monkeypatch):
        # a counterexample (disc = 1 - 2 = -1) is reported as failed cases
        monkeypatch.setattr(harness, "adeg_product", lambda d1, d2: F(1))
        assert main(["diskant", scenes["slant"], scenes["tent"]]) == 1
        payload = _strict_loads(capsys.readouterr().out)
        assert payload["pass"] is False
        assert payload["slacks"]["mixed_discriminant_nonneg"] == {
            "exact": "-1", "float": -1.0}
        assert payload["slacks"]["chain_lower_vs_r"] == {"exact": "-1", "float": -1.0}

    def test_not_big_exit_2(self, scenes, capsys):
        assert main(["diskant", scenes["slant"], scenes["shift"]]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, loads", [
        (["diskant", "slant", "slant"], 1),
        (["diskant", "slant", "tent"], 2),
        (["derivative", "slant", "--direction", "slant"], 1),
        (["derivative", "slant", "--direction", "shift"], 2),
    ])
    def test_each_distinct_path_loads_once(self, scenes, capsys, monkeypatch,
                                           argv, loads):
        calls = []

        def counting_load(path):
            calls.append(path)
            return load_scene(path)

        # the CLI reads the scenes module's binding at call time
        monkeypatch.setattr(scenes_mod, "load_scene", counting_load)
        argv = [scenes.get(arg, arg) for arg in argv]
        assert main(argv) == 0
        assert len(calls) == loads == len(set(calls))
        _strict_loads(capsys.readouterr().out)


class TestCliOracle:
    def test_csv_default(self, scenes, capsys):
        assert main(["oracle", scenes["slant"], "--m", "1,2"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
        assert rows[0] == ["m", "log_count", "estimate", "analytic_avol", "error"]
        assert [r[0] for r in rows[1:]] == ["1", "2"]
        # 15 boxes at m = 1, 225 at m = 2
        assert float(rows[1][1]) == pytest.approx(2.70805, abs=1e-4)
        assert float(rows[2][1]) == pytest.approx(5.41610, abs=1e-4)

    def test_json(self, scenes, capsys):
        assert main(["oracle", scenes["slant"], "--m", "4", "--format",
                     "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"][0]["m"] == 4
        assert payload["rows"][0]["analytic_avol"] == 1.0

    def test_estimate_is_correctly_rounded(self, scenes, capsys):
        # 2 log N_7 / 49 for the slant divisor lies nearer 1.3837184451685065
        # than its neighbour ...063, which a division at 53 bits gave
        assert main(["oracle", scenes["slant"], "--m", "7", "--format",
                     "json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert row["estimate"] == 1.3837184451685065

    def test_one_box_per_row(self, scenes, capsys, monkeypatch):
        calls = []
        original = sections.section_box

        def counting_box(pair, m):
            calls.append(m)
            return original(pair, m)

        # the oracle reads the sections module's binding at call time, as
        # volume_estimate does
        monkeypatch.setattr(sections, "section_box", counting_box)
        assert main(["oracle", scenes["slant"], "--m", "16,32"]) == 0
        assert calls == [16, 32]

    def test_estimate_matches_volume_estimate(self, tmp_path, capsys):
        pair = Pair(slant_divisor() + p_slant_divisor(2) + p_slant_divisor(3))
        path = str(tmp_path / "slant_p2_p3.json")
        save_scene(pair, path)
        assert main(["oracle", path, "--m", "64", "--format", "json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert row["estimate"] == float(volume_estimate(pair, 64))

    @pytest.mark.parametrize("m", ["4,", "", "1e3"])
    def test_bad_multiples_exit_2(self, scenes, capsys, m):
        assert main(["oracle", scenes["slant"], "--m", m]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert err.startswith("error:") and "--m" in err
        assert len(err.splitlines()) == 1


def _run_main(argv, capsys):
    """(exit code, stdout, stderr) of one main call; argparse's own exits
    count as the code they exit with."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("command", ["avol", "derivative", "diskant", "okounkov",
                                     "suite"])
def test_format_is_oracle_only(scenes, capsys, command):
    args = {"avol": [scenes["slant"]],
            "derivative": [scenes["slant"], "--direction", scenes["shift"]],
            "diskant": [scenes["slant"], scenes["slant"]],
            "okounkov": [scenes["slant"]],
            "suite": ["homogeneity"]}[command]
    code, out, err = _run_main([command, *args, "--format", "csv"], capsys)
    assert (code, out) == (2, "")
    assert "--format" in err


class TestParserReuse:
    def test_built_once_per_process(self, scenes, capsys, monkeypatch):
        calls = []
        original = cli.build_parser

        def counting_build():
            calls.append(1)
            return original()

        monkeypatch.setattr(cli, "_PARSER", None)
        monkeypatch.setattr(cli, "build_parser", counting_build)
        assert main(["avol", scenes["slant"]]) == 0
        assert main(["oracle", scenes["slant"], "--m", "1"]) == 0
        assert len(calls) == 1

    def test_calls_do_not_leak_into_each_other(self, scenes, capsys,
                                               monkeypatch):
        commands = [
            ["oracle", scenes["slant"], "--m", "1,2"],
            ["avol", scenes["tent"]],
            ["avol", scenes["slant"], "--bogus"],
            ["oracle", scenes["half_zero"], "--m", "4", "--format", "json"],
        ]
        alone = []
        for argv in commands:
            monkeypatch.setattr(cli, "_PARSER", None)
            alone.append(_run_main(argv, capsys))
        codes = [code for code, _, _ in alone]
        assert codes == [0, 0, 2, 0]
        assert alone[0][1].startswith("m,log_count")  # CSV by default
        json.loads(alone[1][1])  # JSON by default
        json.loads(alone[3][1])
        monkeypatch.setattr(cli, "_PARSER", None)
        for _ in range(2):
            assert [_run_main(argv, capsys) for argv in commands] == alone


class TestCliOkounkov:
    def test_fixture(self, scenes, capsys):
        assert main(["okounkov", scenes["slant"], "--m", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["domain"] == ["-1", "0"]
        assert payload["body_volume"]["exact"] == "1/2"
        assert payload["avol"]["exact"] == "1"
        assert [e["w"] for e in payload["samples"]] == ["-1", "-1/2", "0"]
        assert [e["empirical"] for e in payload["samples"]] == [0.0, 0.5, 1.0]
        assert payload["max_gap"] == 0.0

    def test_not_big_exit_2(self, scenes, capsys):
        assert main(["okounkov", scenes["shift"]]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("m", ["0", "-2"])
    def test_bad_multiple_exit_2(self, scenes, capsys, m):
        assert main(["okounkov", scenes["slant"], "--m", m]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert err.startswith("error:") and "positive integer" in err
        assert len(err.splitlines()) == 1


class TestCliSuite:
    def test_pass(self, capsys):
        assert main(["suite", "min_valuation", "--count", "5", "--seed", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["performed"] == 5

    def test_unknown_name_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["suite", "isoperimetric_disco"])

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_nonpositive_count_exit_2(self, capsys, count):
        assert main(["suite", "homogeneity", "--count", count]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert err.startswith("error:") and "positive integer" in err
        assert len(err.splitlines()) == 1

    def test_count_one(self, capsys):
        assert main(["suite", "homogeneity", "--count", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["performed"] == 1
