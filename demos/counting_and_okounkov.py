"""Brute-force section counting against the exact volume.

The coefficient-box oracle enumerates, for the m-th multiple of a pair,
the lattice of admissible integer points and the exact count of small
sections over each.  The normalized log-count 2 log N_m / m^2 converges
to avol at rate O(1/m), from above (every box contributes at least the
zero section); the empirical Okounkov samples converge to the reflected
roof the same way.

Run with:  python3 demos/counting_and_okounkov.py
"""

from __future__ import annotations

from adelic_volumes import (
    analytic_okounkov,
    avol,
    box_log_count,
    half_zero_pair,
    okounkov_sample,
    scalar_float,
    section_box,
    slant_divisor,
)


def counting_table(pair, label: str, levels=(1, 2, 4, 8, 16, 32, 64)) -> None:
    exact = avol(pair)
    print(f"--- {label}:  avol = {exact} ---")
    print(f"{'m':>4}  {'log N_m':>12}  {'2 log N_m / m^2':>16}  {'gap':>10}")
    for m in levels:
        log_n = box_log_count(pair, m)
        est = 2 * log_n / m**2
        gap = scalar_float(exact) - float(est)
        print(f"{m:>4}  {float(log_n):>12.8g}  {float(est):>16.8g}"
              f"  {gap:>10.6f}")
    print()


def main() -> None:
    print("=== section counting vs exact volume ===\n")

    slant = slant_divisor()
    counting_table(slant, "slant divisor")

    # the smallest levels are exactly computable by hand; show the boxes
    box = section_box(slant, 2)
    print("coefficient boxes of the 2nd multiple of the slant divisor:")
    for e in box.entries:
        print(f"  k = {e.k:>2}: denominator {e.denominator}, "
              f"log bound {e.log_bound}, {e.count} sections")
    print(f"  product of counts: {box.count_product}\n")

    counting_table(half_zero_pair(), "slant with ord >= 1/2 at Zero")

    print("=== Okounkov body (vanishing order at Zero) ===\n")
    pair = half_zero_pair()
    data = analytic_okounkov(pair)
    print(f"domain          : {data.domain}")
    print(f"transform       : {data.transform}")
    print(f"body volume     : {data.body_volume}")
    print(f"2 * body volume : {data.avol}  == avol: {data.avol == avol(pair)}")
    print()

    m = 64
    sample = okounkov_sample(pair, m)
    worst = max(abs(float(t) - scalar_float(data.transform.eval(w)))
                for w, t in sample.entries)
    print(f"empirical transform at m = {m}: {len(sample.entries)} supported "
          f"points, max deviation from the exact transform {worst:.5f}")


if __name__ == "__main__":
    main()
