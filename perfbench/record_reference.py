"""Record the oracle workload's reference rows.

    python3 perfbench/record_reference.py

Runs every (scene, m) row of the oracle workload through the CLI once and
writes its log_count, estimate and analytic_avol to
perfbench/reference/oracle.json, which the benchmark checks every row
against.  Rerun it only when a change
is meant to alter the oracle's results, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import mpmath  # noqa: E402

import workloads  # noqa: E402


def record() -> dict:
    rows = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        paths = workloads.write_scenes(tmp)
        for scene, m in workloads.ROWS:
            rc, out = workloads.oracle_row(paths[scene], m)
            if rc != 0:
                raise SystemExit(f"oracle failed on {scene} at m = {m}: {out}")
            (row,) = out
            rows.setdefault(scene, {})[str(m)] = {
                key: row[key] for key in workloads.REFERENCE_KEYS}
            print(f"{scene} m={m} log_count={row['log_count']!r}", file=sys.stderr)
    return {
        "comment": "oracle rows recorded by perfbench/record_reference.py; "
                   f"mpmath backend {mpmath.libmp.BACKEND}",
        "rows": rows,
    }


if __name__ == "__main__":
    workloads.REFERENCE.parent.mkdir(exist_ok=True)
    workloads.REFERENCE.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
