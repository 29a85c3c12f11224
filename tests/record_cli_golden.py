"""Record the golden CLI corpus: rewrite tests/data/cli_golden.json.

    PYTHONPATH=src python tests/record_cli_golden.py

Each command runs in-process through ``cli.main`` from the repository
root, on the scene files under tests/data/scenes (written by
``tests/write_cli_scenes.py``).  For each command the file keeps its argv,
its exit code, and the sha256 and first 200 characters of its stdout and
of its stderr; ``tests/test_cli_golden.py`` reruns every argv against
them.  The script prints each command whose record changed, so a change
that is meant to move output names what it moved.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path
from unittest import mock

from adelic_volumes import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "cli_golden.json"
PREVIEW = 200

_GALLERY = ("slant", "tent", "half_zero_pair", "tent_order_inf", "slant_p2", "slant_p2_p3")


def _scene(name):
    return f"tests/data/scenes/{name}.json"


def commands():
    """The argv of each command of the corpus: every subcommand on each
    gallery scene, then the runs on the hand-built scenes (the cap-size,
    finite-place, three-place and steep ones) and the suites, then the
    refusals.  The CI workflow runs the costly ones again through the
    console script, under a timeout."""
    out = []
    for name in _GALLERY:
        scene = _scene(name)
        out += [["avol", scene],
                ["derivative", scene, "--direction", _scene("shift")],
                ["diskant", scene, scene]]
        if name != "slant":
            out.append(["diskant", scene, _scene("slant")])
        out += [["oracle", scene],
                ["oracle", scene, "--m", "16", "--format", "json"],
                ["okounkov", scene, "--m", "8"]]
    out += [["suite", name, "--count", "40", "--seed", "1"]
            for name in ("superadditivity", "zariski", "brunn_minkowski")]
    out += [
        ["oracle", _scene("slant"), "--m", "16,64", "--format", "json"],
        ["okounkov", _scene("slant")],
        ["diskant", _scene("slant"), _scene("slant2")],
        ["diskant", _scene("big"), _scene("big")],
        ["diskant", _scene("big"), _scene("random")],
        ["diskant", _scene("random"), _scene("big")],
        ["diskant", _scene("random"), _scene("random12")],
        ["diskant", _scene("random12"), _scene("random")],
        ["diskant", _scene("s10"), _scene("s29")],
        ["diskant", _scene("s29"), _scene("s10")],
        ["diskant", _scene("three"), _scene("big")],
        ["diskant", _scene("big"), _scene("three")],
        ["diskant", _scene("three"), _scene("slant")],
        ["diskant", _scene("slant"), _scene("three")],
        ["derivative", _scene("three"), "--direction", _scene("three")],
        ["derivative", _scene("big"), "--direction", _scene("three")],
        ["okounkov", _scene("three")],
        ["okounkov", _scene("three"), "--m", "8"],
    ]
    out += [["avol", _scene(name)]
            for name in ("big", "random", "s10", "s29", "three", "steep400")]
    out += [
        ["diskant", _scene("steep400"), _scene("slant")],
        ["diskant", _scene("slant"), _scene("steep400")],
        ["derivative", _scene("steep400"), "--direction", _scene("slant_p2")],
        ["derivative", _scene("slant_p2"), "--direction", _scene("steep400")],
        ["oracle", _scene("steep"), "--m", "4"],
        ["oracle", _scene("steep2400"), "--m", "4,16"],
        ["oracle", _scene("slant_p2_p3"), "--m", "512,1024", "--format", "json"],
        ["oracle", _scene("slant_h43"), "--m", "1024", "--format", "json"],
    ]
    # refusals: exit 2 with a one-line message (argparse's after its usage)
    out += [
        ["diskant", _scene("over"), _scene("over")],
        ["oracle", _scene("tent"), "--m", "4822"],
        ["oracle", _scene("three"), "--m", "16"],
        ["avol", _scene("slant"), "--format", "csv"],
        ["derivative", _scene("slant"), "--direction", _scene("half_zero_pair")],
        ["avol", _scene("quadratic")],
        ["avol", _scene("foo")],
        ["avol", _scene("mersenne")],
    ]
    return out


def capture(argv) -> tuple:
    """(exit code, stdout, stderr) of one command, run from the repository
    root.  argparse wraps its usage to the terminal's width, so the width is
    fixed at 80 columns."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with (mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stdout(out),
              contextlib.redirect_stderr(err)):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse refusals
                code = exc.code
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def record(argv, code, stdout, stderr) -> dict:
    """The record of one command from what it printed."""
    out = {"argv": argv, "exit_code": code}
    for name, text in (("stdout", stdout), ("stderr", stderr)):
        out[name] = {"sha256": hashlib.sha256(text.encode()).hexdigest(),
                     "head": text[:PREVIEW]}
    return out


def main():
    old = {}
    if GOLDEN.exists():
        old = {tuple(r["argv"]): r for r in json.loads(GOLDEN.read_text())["commands"]}
    records = [record(argv, *capture(argv)) for argv in commands()]
    for new in records:
        if old.get(tuple(new["argv"])) != new:
            print("changed:" if tuple(new["argv"]) in old else "new:", " ".join(new["argv"]))
    GOLDEN.write_text(json.dumps({"commands": records}, indent=1) + "\n")


if __name__ == "__main__":
    main()
