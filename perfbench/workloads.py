"""The three workloads: which ops a run makes, how one op runs, and how its
output is checked.  See NOTES.md for why each workload exists.

Every workload turns ``--seconds`` into a fixed multiset of ops, using the
nominal costs below, and the seed only draws the order.  Per-instance cost
varies by more than 30x inside one suite, so runs on independently drawn
instances would not repeat within the bounds in BENCHMARK.json; a fixed
multiset makes runs with different seeds do the same work.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import adelic_volumes.cli as cli
import adelic_volumes.harness as harness

# Nominal cost of one unit of work at the reference speed of speed.py,
# measured at the commit that introduced the benchmark (Python 3.11, mpmath
# on its pure-Python backend).  They fix the amount of work per run; they
# are not expected to track later speed-ups.
SUITES_ROUND_S = 0.30   # one instance of each suite plus one derivative op
DISKANT_OP_S = 0.13     # one diskant_random instance
ORACLE_PASS_S = 3.2     # every (scene, m) row once

# The ten suites of tests/test_acceptance.py::TestPropertySuites.
SUITES = (
    "brunn_minkowski",
    "homogeneity",
    "zariski",
    "siu",
    "hodge",
    "kt",
    "min_valuation",
    "legendre_involution",
    "openness",
    "superadditivity",
)
DERIVATIVE = "derivative"

# Instance ids outside every corpus, for the untimed warm-up op.
WARMUP_ID = 1_000_000

# Gallery-derived scenes, as scene-file payloads: slant, tent, the half-zero
# pair, tent with order 1/2 at Infinity, slant + p_slant(2), and
# slant + p_slant(2) + p_slant(3).
_SLANT_INF = {"kind": "convex", "points": [["1", "1"]],
              "left_slope": "0", "right_slope": "1"}
_TENT_INF = {"kind": "convex", "points": [["-1", "1"], ["1", "1"]],
             "left_slope": "-1", "right_slope": "1"}


def _stacked(n):
    return {"kind": "convex", "points": [["0", "1"], ["1", str(n)]],
            "left_slope": "0", "right_slope": str(n)}


SCENES = {
    "slant": {"c0": "1", "cinf": "0", "potentials": {"inf": _SLANT_INF}},
    "tent": {"c0": "1", "cinf": "1", "potentials": {"inf": _TENT_INF}},
    "half_zero_pair": {"c0": "1", "cinf": "0", "potentials": {"inf": _SLANT_INF},
                       "base": {"0": "1/2"}},
    "tent_order_inf": {"c0": "1", "cinf": "1", "potentials": {"inf": _TENT_INF},
                       "base": {"inf": "1/2"}},
    "slant_p2": {"c0": "2", "cinf": "0",
                 "potentials": {"inf": _stacked(2), "2": _stacked(2)}},
    "slant_p2_p3": {"c0": "3", "cinf": "0",
                    "potentials": {"inf": _stacked(3), "2": _stacked(3),
                                   "3": _stacked(3)}},
}

# Cost grows with roof height x m, and the finite-place rows grow fastest
# (slant_p2_p3 takes 1.4 s at m = 256 and 12 s at m = 512), so m is capped
# at 256, where slant_p2_p3's log_count is 40% of its row, and the tent
# scenes stop at 128; half_zero_pair, the cheapest scene, keeps the ladder
# up to m = 1024.  Rows of 0.5 s or more are few, so that no single row
# decides a run's throughput.
LADDER = (16, 32, 64, 128, 256, 512, 1024)
M_CAP = {
    "slant": 256,
    "tent": 128,
    "half_zero_pair": 1024,
    "tent_order_inf": 128,
    "slant_p2": 256,
    "slant_p2_p3": 256,
}
ROWS = tuple((scene, m) for scene in SCENES for m in LADDER if m <= M_CAP[scene])

REFERENCE = Path(__file__).resolve().parent / "reference" / "oracle.json"
# The row fields recorded in REFERENCE.  estimate comes from
# volume_estimate, which builds its own section box, so it is checked apart
# from log_count.
REFERENCE_KEYS = ("log_count", "estimate", "analytic_avol")

# Same tolerance as the tier-1 Diskant gate.
_DISKANT_SLACK_TOL = -1e-9
# The oracle's log_count and volume are floats computed at a fixed working
# precision; a relative gap above this is a changed result, not rounding.
_ORACLE_REL_TOL = 1e-12


def _orders(rng, units):
    """A seed-drawn permutation of range(units)."""
    return rng.sample(range(units), units)


def _derivative_op(key):
    rng = random.Random(f"{DERIVATIVE}:{key}")
    pair, direction, central = harness.sample_derivative_instance(rng)
    report = harness.check_differentiability(pair, direction)
    d = report.derivative
    if d is not None and bool(d == report.analytic) and bool(report.analytic == central):
        return None
    return {"derivative": str(d), "analytic": str(report.analytic),
            "central": str(central), "pair": pair.to_payload(),
            "direction": report.direction.to_payload()}


class Suites:
    """Round-robin over the ten property suites plus a derivative op; each
    op is one instance."""

    kinds = SUITES + (DERIVATIVE,)
    warmup = ("superadditivity", WARMUP_ID)

    def ops(self, seed, seconds):
        rounds = max(1, round(seconds / SUITES_ROUND_S))
        rng = random.Random(f"suites:{seed}")
        ids = {kind: _orders(rng, rounds) for kind in self.kinds}
        return [(kind, ids[kind][r]) for r in range(rounds) for kind in self.kinds]

    def run(self, op):
        kind, key = op
        if kind == DERIVATIVE:
            return _derivative_op(key)
        res = harness.run_suite(kind, count=1, seed=key)
        if res.ok and res.performed == 1:
            return None
        return {"failing": res.failing}


class Diskant:
    """One diskant_random instance (two rational big pairs) per op."""

    warmup = ("diskant_random", WARMUP_ID)

    def ops(self, seed, seconds):
        count = max(1, round(seconds / DISKANT_OP_S))
        rng = random.Random(f"diskant:{seed}")
        return [("diskant_random", key) for key in _orders(rng, count)]

    def run(self, op):
        kind, key = op
        res = harness.run_suite(kind, count=1, seed=key)
        slack_ok = res.worst_slack is None or float(res.worst_slack) >= _DISKANT_SLACK_TOL
        if res.ok and res.performed == 1 and slack_ok:
            return None
        return {"worst_slack": None if res.worst_slack is None else float(res.worst_slack),
                "failing": res.failing}


def write_scenes(workdir):
    """Write the scene files into workdir; returns {scene: path}."""
    paths = {}
    for scene, payload in SCENES.items():
        path = Path(workdir) / f"{scene}.json"
        path.write_text(json.dumps(payload, indent=2) + "\n")
        paths[scene] = str(path)
    return paths


def oracle_row(path, m):
    """One oracle row through the CLI: (0, parsed rows) or (exit code,
    stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["oracle", path, "--m", str(m), "--format", "json"])
    if rc != 0:
        return rc, err.getvalue().strip()
    return 0, json.loads(out.getvalue())["rows"]


def _close(got, ref):
    return abs(got - ref) <= _ORACLE_REL_TOL * max(1.0, abs(ref))


class Oracle:
    """One `adelic-volumes oracle SCENE --m M --format json` row per op, run
    in-process.  Its log_count, estimate and analytic_avol must match
    reference/oracle.json, and its error must be |estimate - analytic_avol|."""

    warmup = ("slant_p2", 16)

    def __init__(self, workdir):
        self.reference = json.loads(REFERENCE.read_text())["rows"]
        self.paths = write_scenes(workdir)

    def ops(self, seed, seconds):
        rng = random.Random(f"oracle:{seed}")
        passes = seconds / ORACLE_PASS_S
        if passes < 0.5:  # a short smoke run: part of one pass
            count = max(1, round(passes * len(ROWS)))
            return [ROWS[i] for i in _orders(rng, len(ROWS))[:count]]
        out = []
        for _ in range(round(passes)):
            out += [ROWS[i] for i in _orders(rng, len(ROWS))]
        return out

    def run(self, op):
        scene, m = op
        rc, rows = oracle_row(self.paths[scene], m)
        if rc != 0:
            return {"exit_code": rc, "stderr": rows}
        if len(rows) != 1 or rows[0]["m"] != m:
            return {"rows": rows}
        (row,), want = rows, self.reference[scene][str(m)]
        bad = {key: {"got": row[key], "reference": want[key]}
               for key in REFERENCE_KEYS if not _close(row[key], want[key])}
        if not _close(row["error"], abs(row["estimate"] - row["analytic_avol"])):
            bad["error"] = {"got": row["error"], "estimate": row["estimate"],
                            "analytic_avol": row["analytic_avol"]}
        return bad or None


def make(name, workdir):
    if name == "suites":
        return Suites()
    if name == "diskant":
        return Diskant()
    if name == "oracle":
        return Oracle(workdir)
    raise ValueError(f"unknown workload {name!r}")


def op_label(op):
    kind, key = op
    return f"{kind}:{key}"
