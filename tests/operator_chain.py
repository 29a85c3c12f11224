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
