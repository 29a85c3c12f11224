"""The golden CLI corpus: each recorded command prints what it printed.

``tests/data/cli_golden.json`` holds, per command, its argv (scene paths
relative to the repository root), its exit code, and the sha256 and first
200 characters of its stdout and of its stderr.  Each command reruns
in-process through ``cli.main`` from the repository root.  A change that
moves output reruns ``tests/record_cli_golden.py``, which rewrites the
file and names each command whose output changed.

The relations the paper's claims and the CLI's contract state are checked
on the same outputs: strict JSON, Euler's identity for the derivative,
the Okounkov samples' bound and the one-line refusals.  The scene files
are checked against the script that writes them.
"""

import functools
import json
import math

import pytest

from adelic_volumes.positivity import avol
from adelic_volumes.scenes import load_scene
from record_cli_golden import GOLDEN, ROOT, capture, record
from write_cli_scenes import write_scenes

RECORDS = json.loads(GOLDEN.read_text())["commands"]
SCENES = ROOT / "tests" / "data" / "scenes"


def _label(rec):
    return " ".join(a.removeprefix("tests/data/scenes/").removesuffix(".json")
                    for a in rec["argv"])


@functools.cache
def _output(argv: tuple) -> tuple:
    """(exit code, stdout, stderr) of a command, run once per session."""
    return capture(list(argv))


def _strict(text):
    def refuse(name):
        raise ValueError(f"{name} is not strict JSON")
    return json.loads(text, parse_constant=refuse)


def _scene(name):
    return f"tests/data/scenes/{name}.json"


@pytest.mark.parametrize("rec", RECORDS, ids=_label)
def test_cli_output_is_golden(rec):
    assert record(rec["argv"], *_output(tuple(rec["argv"]))) == rec


def test_every_scene_is_read():
    used = {a for rec in RECORDS for a in rec["argv"] if a.endswith(".json")}
    assert used == {_scene(p.stem) for p in SCENES.glob("*.json")}


def test_scene_files_are_written_byte_for_byte(tmp_path):
    write_scenes(tmp_path)
    written = sorted(p.name for p in tmp_path.glob("*.json"))
    assert written == sorted(p.name for p in SCENES.glob("*.json"))
    assert [name for name in written
            if (tmp_path / name).read_bytes() != (SCENES / name).read_bytes()] == []


def test_every_json_stdout_is_strict():
    # every subcommand prints JSON, except the oracle's default CSV table;
    # NaN and Infinity are refused
    for rec in RECORDS:
        argv = rec["argv"]
        if rec["exit_code"] == 0 and (argv[0] != "oracle" or "json" in argv):
            _strict(_output(tuple(argv))[1])


def test_derivative_along_itself_is_twice_the_volume():
    # Euler's identity through the eps jets at finite places: along D at D
    # the derivative of avol is 2 avol(D), and the analytic value agrees
    argv = ("derivative", _scene("three"), "--direction", _scene("three"))
    payload = _strict(_output(argv)[1])
    want = str(2 * avol(load_scene(ROOT / _scene("three"))))
    assert payload["derivative"]["exact"] == payload["analytic"]["exact"] == want


def test_okounkov_samples_of_three_places_lie_within_the_bound():
    # 8,193 exact samples at m = 64, each below the transform by less than
    # (log 2 + log 3) / 64
    payload = _strict(_output(("okounkov", _scene("three")))[1])
    samples = payload["samples"]
    assert payload["m"] == 64 and len(samples) == 8193
    assert all(isinstance(e["empirical"], float) for e in samples)
    assert 0 <= payload["max_gap"] < math.log(6) / 64


def test_each_refusal_prints_one_error_line():
    refusals = [rec["argv"] for rec in RECORDS if rec["exit_code"] != 0]
    assert len(refusals) == 8
    for argv in refusals:
        code, out, err = _output(tuple(argv))
        lines = err.splitlines()
        if lines[0].startswith("usage:"):  # argparse prints its usage first
            lines = lines[1:]
        assert (code, out, len(lines)) == (2, "", 1), argv
        assert "error: " in lines[0], argv
