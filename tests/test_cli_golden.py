"""The golden CLI corpus: each recorded command prints what it printed.

``tests/data/cli_golden.json`` holds, per command, its argv (scene paths
relative to the repository root), its exit code, and the sha256 and first
200 characters of its stdout and of its stderr.  Each command reruns
in-process through ``cli.main`` from the repository root.  A change that
moves output reruns ``tests/record_cli_golden.py``, which rewrites the
file and names each command whose output changed.
"""

import json

import pytest

from record_cli_golden import GOLDEN, ROOT, run

RECORDS = json.loads(GOLDEN.read_text())["commands"]


def _label(record):
    return " ".join(a.removeprefix("tests/data/scenes/").removesuffix(".json")
                    for a in record["argv"])


@pytest.mark.parametrize("record", RECORDS, ids=_label)
def test_cli_output_is_golden(record):
    assert run(record["argv"]) == record


def test_every_scene_is_read():
    used = {a for record in RECORDS for a in record["argv"] if a.endswith(".json")}
    scenes = {f"tests/data/scenes/{p.name}" for p in (ROOT / "tests/data/scenes").glob("*.json")}
    assert used == scenes
