"""How often each integer route runs: call counts on the benchmark's op lists.

    PYTHONPATH=src:perfbench:tests python tests/call_counts.py \
        [--seed 9001] [--function pa:_crossing ...] [--fraction-operators]

Runs the op list that each worker of a 16 s ``perfbench/run.py`` run runs
(``ops(seed, 16 / 3)`` of ``perfbench/workloads.py``) once per workload,
under a profile hook that counts the calls of every function listed in
``SLOT_READERS`` of ``tests/test_kernel_sites.py`` and of each
``--function module:qualname``, and how many of them returned a value
other than None.  Prints one row per function: calls on suites / diskant /
oracle, then the non-None returns.  These are the counts ``SLOT_READERS``
records.  With ``--fraction-operators`` it counts instead the Fraction
arithmetic and ordering operators that the package's own functions call
(``FRACTION_OPERATORS`` of ``tests/test_kernel_sites.py``): the total per
workload, then one row per calling function.  Not collected by pytest.
"""

from __future__ import annotations

import argparse
import collections
import importlib
import sys
import tempfile

import workloads
from test_kernel_sites import SLOT_READERS, fraction_operator_hook

WORKLOADS = ("suites", "diskant", "oracle")


def _code(module: str, qualname: str):
    obj = importlib.import_module(f"adelic_volumes.{module}")
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj.__code__


def _run(name: str, seed: int, hook) -> int:
    """Run the workload's op list under the profile hook; returns its length."""
    with tempfile.TemporaryDirectory() as workdir:
        wl = workloads.make(name, workdir)
        ops = wl.ops(seed, 16 / 3)
        sys.setprofile(hook)
        try:
            for op in ops:
                wl.run(op)
        finally:
            sys.setprofile(None)
    return len(ops)


def _count(name: str, seed: int, codes: dict) -> tuple:
    calls, values = collections.Counter(), collections.Counter()

    def hook(frame, event, arg):
        key = codes.get(frame.f_code)
        if key is None:
            return
        if event == "call":
            calls[key] += 1
        elif event == "return" and arg is not None:
            values[key] += 1

    return _run(name, seed, hook), calls, values


def _print_operators(seed: int) -> None:
    counts = {name: collections.Counter() for name in WORKLOADS}
    ops = {name: _run(name, seed, fraction_operator_hook(counts[name])) for name in WORKLOADS}
    print("ops", " / ".join(f"{name} {ops[name]}" for name in WORKLOADS))
    total = " / ".join(f"{sum(counts[name].values()):,}" for name in WORKLOADS)
    print(f"{'Fraction operator calls':54s} {total}")
    callers = sorted(set().union(*counts.values()),
                     key=lambda key: (-sum(c[key] for c in counts.values()), key))
    for key in callers:
        row = " / ".join(f"{counts[name][key]:,}" for name in WORKLOADS)
        print(f"{key[0] + '.' + key[1]:54s} {row}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=9001)
    ap.add_argument("--function", action="append", default=[],
                    help="module:qualname of a further function to count")
    ap.add_argument("--fraction-operators", action="store_true",
                    help="count the Fraction operators that the package calls instead")
    args = ap.parse_args(argv)
    if args.fraction_operators:
        _print_operators(args.seed)
        return 0
    keys = list(SLOT_READERS) + [tuple(f.split(":", 1)) for f in args.function]
    codes = {_code(*key): key for key in keys}
    runs = {name: _count(name, args.seed, codes) for name in WORKLOADS}
    print("ops", " / ".join(f"{name} {runs[name][0]}" for name in WORKLOADS))
    for key in keys:
        calls = " / ".join(f"{runs[name][1][key]:,}" for name in WORKLOADS)
        values = " / ".join(f"{runs[name][2][key]:,}" for name in WORKLOADS)
        print(f"{key[0] + '.' + key[1]:34s} calls {calls:24s} non-None {values}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
