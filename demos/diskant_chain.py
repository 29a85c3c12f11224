"""The isoperimetric chain for pairs: Diskant and Bonnesen inequalities.

For two big pairs with mixed quantities s0 = avol of the second,
s2 = avol of the first, and s1 their mixed product, the chain bounds the
discriminant s1^2 - s0 s2 from below by inradius and circumradius
expressions and sandwiches the Bonnesen quantity between them.  For
proportional pairs every inequality collapses to equality, which the
exact arithmetic exhibits with zero slack.  Every slack is exact: the two
ends with sqrt(disc) are stated as signed squares, a |a| <= disc and
b |b| <= R^2 disc, so their slacks have squared units.

Run with:  python3 demos/diskant_chain.py
"""

from __future__ import annotations

import random

from adelic_volumes import diskant_report, slant_divisor, tent_divisor
from adelic_volumes.harness import run_suite


def show_report(label: str, p1, p2) -> None:
    rep = diskant_report(p1, p2)
    print(f"--- {label} ---")
    print(f"s0, s1, s2     : {rep.s0}, {rep.s1}, {rep.s2}")
    print(f"discriminant   : {rep.s1 * rep.s1 - rep.s0 * rep.s2}")
    print(f"inradius r     : {rep.r.value}  (~{float(rep.r):.6f})")
    print(f"circumradius R : {rep.R.value}  (~{float(rep.R):.6f})")
    for case in rep.cases:
        tag = "ok" if case.passed else "FAIL"
        print(f"  [{tag}] {case.name}: slack {case.slack}")
    print(f"all pass: {rep.all_pass}\n")


def main() -> None:
    print("=== the isoperimetric chain ===\n")

    slant, tent = slant_divisor(), tent_divisor()
    show_report("slant vs tent", slant, tent)
    show_report("slant vs 2 * slant (proportional: equalities throughout)",
                slant, slant.scale(2))

    # a seed-fixed randomized scan; zero failures expected
    result = run_suite("diskant_random", count=60, seed=random.Random(3).randint(0, 10**6))
    print(f"randomized scan: {result.performed} instances, "
          f"{result.failures} failures, worst slack {result.worst_slack}")


if __name__ == "__main__":
    main()
