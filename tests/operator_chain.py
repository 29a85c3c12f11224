"""References that the tests share, each the formula it checks written
with the field operators alone: no integer kernel of the package runs in
them, so a fault there cannot hide in both sides of a comparison.
Imported by the test modules; not collected by pytest."""

from fractions import Fraction

from adelic_volumes.exactnum import scalar_sign


def ref_integrate_positive_part(f):
    """The integral of max(f, 0) over the domain of the concave PA f, by
    the operator chain: the trapezoids (x2 - x1)(y1 + y2) over the
    segments where f >= 0 at both ends, plus the clipped triangles
    (x2 - x1) y_in^2 / (y_in - y_out), the total halved."""
    pts = f.points
    signs = [scalar_sign(y) for _, y in pts]
    keep = [i for i, s in enumerate(signs) if s >= 0]
    if not keep:
        return Fraction(0)
    first, last = keep[0], keep[-1]
    total = Fraction(0)
    for (x1, y1), (x2, y2) in zip(pts[first:last], pts[first + 1:last + 1]):
        total = total + (x2 - x1) * (y1 + y2)
    if first > 0 and signs[first] > 0:
        (x1, y_out), (x2, y_in) = pts[first - 1], pts[first]
        total = total + (x2 - x1) * y_in * y_in / (y_in - y_out)
    if last < len(pts) - 1 and signs[last] > 0:
        (x1, y_in), (x2, y_out) = pts[last], pts[last + 1]
        total = total + (x2 - x1) * y_in * y_in / (y_in - y_out)
    return total / 2


def ref_argmax(f):
    """(x, max f) for the concave PA f, x the midpoint of the top when f is
    flat there: by concavity the values rise up to the top and fall after
    it."""
    pts = f.points
    i = 0
    while i + 1 < len(pts) and pts[i + 1][1] > pts[i][1]:
        i += 1
    x, y = pts[i]
    if i + 1 < len(pts) and pts[i + 1][1] == y:
        x = (x + pts[i + 1][0]) / 2
    return x, y


def ref_diskant_cases(s0, s1, s2, r, R, sum_volume):
    """The cases of the Diskant chain as ``harness.diskant_report`` forms
    them from s0, s1, s2, the values r and R of the inradius and
    circumradius, and avol(p1 + p2), by the operators: one
    (name, lhs, rhs, slack, passed) per case, slack = rhs - lhs and passed
    its sign."""

    def case(name, lhs, rhs):
        slack = rhs - lhs
        return name, lhs, rhs, slack, scalar_sign(slack) >= 0

    zero = Fraction(0)
    disc = s1 * s1 - s0 * s2
    a = s1 - r * s0
    b = R * s1 - s2
    u = s1 / s0
    ratio = s2 / s1
    cases = [
        case("mixed_discriminant_nonneg", zero, disc),
        case("diskant", a * a, disc),
        case("chain_lower_vs_r", a * abs(a), disc),
        case("chain_r_vs_ratio", r, ratio),
        case("chain_ratio_mono", ratio, u),
        case("chain_ratio_vs_R", u, R),
        case("chain_R_vs_upper", b * abs(b), R * R * disc),
    ]
    bl = s0 * (R - r) / 2
    cases.append(case("bonnesen", bl * bl, disc))
    d = sum_volume - s2 - s0
    if scalar_sign(d) >= 0 and scalar_sign(d * d - 4 * s0 * s2) == 0:
        cases.append(case("equality_mixed_product", abs(disc), zero))
        cases.append(case("equality_r_vs_R", abs(R - r), zero))
    return cases
