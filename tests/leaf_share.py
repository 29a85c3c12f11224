"""Where an op list's CPU time goes, by the leaf frame: a SIGPROF sampler.

    PYTHONPATH=src:perfbench python tests/leaf_share.py \
        [--workload suites|diskant] [--seed 9001] [--passes 40] [--top 15]

Runs the op list that each worker of a 16 s ``perfbench/run.py`` run runs
(``ops(seed, 16 / 3)`` of ``perfbench/workloads.py``) once untimed, then
``--passes`` times under a profiling timer set to fire every millisecond
of CPU time (the kernel may round that up to its tick).  Each signal
records the innermost Python frame, so the time of a builtin is charged to
its Python caller.  Prints each file's share of the samples, then the
``--top`` functions.  Unlike cProfile it adds no cost per call, so the
shares of small, hot functions (``Fraction.__new__``, the ``numerator``
property) are not inflated.  Not collected by pytest.
"""

from __future__ import annotations

import argparse
import collections
import os
import signal
import sys

import workloads

INTERVAL_S = 0.001


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("suites", "diskant"), default="suites")
    ap.add_argument("--seed", type=int, default=9001)
    ap.add_argument("--passes", type=int, default=40)
    ap.add_argument("--top", type=int, default=15)
    args = ap.parse_args(argv)
    wl = workloads.make(args.workload, None)
    ops = wl.ops(args.seed, 16 / 3)
    for op in ops:  # caches and imports, untimed
        wl.run(op)
    files: collections.Counter = collections.Counter()
    funcs: collections.Counter = collections.Counter()

    def sample(_signum, frame):
        code = frame.f_code
        name = os.path.basename(code.co_filename)
        files[name] += 1
        funcs[f"{name}:{code.co_name}"] += 1

    signal.signal(signal.SIGPROF, sample)
    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
    try:
        for _ in range(args.passes):
            for op in ops:
                wl.run(op)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
    total = sum(files.values())
    print(f"{args.workload} seed {args.seed}: {len(ops)} ops x {args.passes} passes, "
          f"{total} samples")
    for name, n in files.most_common():
        print(f"  {100 * n / total:5.1f}%  {name}")
    print("top functions:")
    for name, n in funcs.most_common(args.top):
        print(f"  {100 * n / total:5.1f}%  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
