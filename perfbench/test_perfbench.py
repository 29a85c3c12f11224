"""Self-tests of the benchmark.  Run with `python3 -m pytest -q perfbench`
from the repository root; each test runs the benchmark on a tiny budget."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY_SECONDS = "1"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def _run(workload, trace=0, root=ROOT):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", TINY_SECONDS, "--trace", str(trace)]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=root, timeout=170)


def _copy(dst, with_program=True):
    """A checkout in dst: BENCHMARK.json, perfbench/ and, with_program, src/."""
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    shutil.copy(ROOT / "BENCHMARK.json", dst)
    shutil.copytree(HERE, dst / "perfbench", ignore=skip)
    if with_program:
        shutil.copytree(ROOT / "src", dst / "src", ignore=skip)
    return dst


def _result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_names_are_well_formed_and_unique():
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    names += [w["name"] for w in BENCH["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_emits_every_end_to_end_metric(workload):
    proc = _run(workload)
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_emits_every_per_layer_metric():
    proc = _run("oracle", trace=1)
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    # 2.0 at the commit that added the benchmark; a change that reuses the
    # box may bring it down to 1.
    assert result["metrics"]["sections.boxes_per_row"]["value"] >= 1
    assert result["metrics"]["positivity.pseff_threshold.calls"]["value"] == 0


@pytest.mark.parametrize("key", ["log_count", "estimate"])
def test_wrong_reference_fails_the_run(tmp_path, key):
    from workloads import REFERENCE_KEYS, Oracle

    assert key in REFERENCE_KEYS
    root = _copy(tmp_path)
    path = root / "perfbench" / "reference" / "oracle.json"
    ref = json.loads(path.read_text())
    warm_scene, warm_m = Oracle.warmup  # a failed warm-up stops the run before any op
    for scene, rows in ref["rows"].items():
        for m, row in rows.items():
            if (scene, int(m)) != (warm_scene, warm_m):
                row[key] *= 1.001
    path.write_text(json.dumps(ref))
    proc = _run("oracle", root=root)
    assert proc.returncode == 1
    result = _result(proc)
    assert not result["correct"] and result["failed"] >= 1
    assert "first failure" in proc.stdout and f'"{key}"' in proc.stdout


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    proc = _run("suites", root=_copy(tmp_path, with_program=False))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_uninstall_restores_every_original():
    import mpmath
    import tracing

    import adelic_volumes
    from adelic_volumes import cli, pa, positivity
    from adelic_volumes.exactnum import ExactNumber

    before = tracing.namespace_snapshot(adelic_volumes, mpmath.iv)
    originals = (positivity.avol, cli.avol, pa.ConcavePA.__add__, ExactNumber.__add__,
                 vars(mpmath.iv)["exp"])
    tracer = tracing.Tracer(adelic_volumes, mpmath.iv)
    tracer.install()
    try:
        assert positivity.avol is not originals[0] and cli.avol is not originals[1]
        assert pa.ConcavePA.__add__ is not originals[2]
        assert ExactNumber.__add__ is not originals[3]
        assert vars(mpmath.iv)["exp"] is not originals[4]
    finally:
        tracer.uninstall()
    assert tracing.namespace_snapshot(adelic_volumes, mpmath.iv) == before
    assert (positivity.avol, cli.avol, pa.ConcavePA.__add__, ExactNumber.__add__,
            vars(mpmath.iv)["exp"]) == originals
