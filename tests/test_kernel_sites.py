"""Every Fraction built or read outside ``exactnum`` goes through its
rational kernel.

``pa``, ``positivity``, ``divisors``, ``harness``, ``sections``, ``scenes``
and ``cli`` build a Fraction from two ints with ``exactnum._q`` and read a
Fraction's integers at slot level.
A two-argument ``Fraction(a, b)``, an ``as_integer_ratio()`` call or a read
of the ``numerator`` or ``denominator`` property would take the slow
protocol of CPython's pure-Python Fraction again, so none may appear.  A
one-argument ``Fraction(x)`` converts public input (strings of payloads and
scene files, ints, floats); each one left is named below with its reason,
and any other one fails.

On rational data the Diskant chain and the big-pair sampler call no
Fraction arithmetic or ordering operator either: a profile hook watches a
run of rational reports, and ``tests/call_counts.py --fraction-operators``
counts the operators left on the benchmark's op lists with the same hook.

They know no more of ``exactnum``'s field than its values: a monomial
literal, a read of an ``ExactNumber`` slot or an import of the polynomial
helpers would build on the encoding that only ``exactnum`` may change.
"""

import ast
import collections
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import adelic_volumes
from adelic_volumes.harness import diskant_report, sample_big_pair

SRC = Path(__file__).resolve().parent.parent / "src" / "adelic_volumes"
MODULES = ("pa", "positivity", "divisors", "harness", "sections", "scenes", "cli")

# (module, qualified function name) -> why it converts with Fraction(x)
PUBLIC_CONVERSIONS = {
    ("pa", "as_scalar"): "'p/q' strings and int subclasses from callers",
    ("pa", "_LinePA.from_payload"): "the strings of a potential's payload",
    ("divisors", "_coeff"): "divisor coefficients from callers: strings, bools, Rationals",
    ("divisors", "ToricAdelicDivisor.from_payload"): "the strings of a divisor's payload",
    ("divisors", "BaseCondition.__init__"): "base-condition orders from a mapping",
    ("divisors", "BaseCondition.scale"): "a scale factor from callers",
    ("divisors", "Pair.scale"): "a scale factor from callers",
    ("harness", "_suite_openness"): "a float margin, then limit_denominator",
}


def _sites(source: str):
    """(qualified name of the enclosing function, kind, line) for each
    Fraction call, as_integer_ratio call and numerator or denominator
    read in the source."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            name = ".".join(scope)
            if isinstance(child, ast.Call):
                f = child.func
                if isinstance(f, ast.Name) and f.id == "Fraction":
                    n = len(child.args) + len(child.keywords)
                    out.append((name, f"Fraction/{n}", child.lineno))
                elif isinstance(f, ast.Attribute) and f.attr == "as_integer_ratio":
                    out.append((name, "as_integer_ratio", child.lineno))
            elif isinstance(child, ast.Attribute) and child.attr in ("numerator",
                                                                      "denominator"):
                out.append((name, child.attr, child.lineno))
            visit(child, scope)

    visit(ast.parse(source), ())
    return out


def _module_sites(module: str):
    return _sites((SRC / f"{module}.py").read_text())


@pytest.mark.parametrize("module", MODULES)
def test_fractions_go_through_the_kernel(module):
    bad = [(name, kind, line) for name, kind, line in _module_sites(module)
           if kind != "Fraction/1" or (module, name) not in PUBLIC_CONVERSIONS]
    assert not bad, f"{module}.py outside the rational kernel: {bad}"


def test_every_listed_conversion_is_still_there():
    used = {(module, name) for module in MODULES
            for name, kind, _ in _module_sites(module) if kind == "Fraction/1"}
    assert set(PUBLIC_CONVERSIONS) <= used, set(PUBLIC_CONVERSIONS) - used


def test_the_guard_sees_each_kind():
    source = ("X = Fraction(1, 2)\n"
              "class A:\n"
              "    def f(self, x):\n"
              "        return Fraction(x), x.as_integer_ratio(), x.numerator\n"
              "    def g(self, x):\n"
              "        return Fraction(x, denominator=2), x.denominator\n")
    assert _sites(source) == [
        ("", "Fraction/2", 1), ("A.f", "Fraction/1", 4), ("A.f", "as_integer_ratio", 4),
        ("A.f", "numerator", 4), ("A.g", "Fraction/2", 6), ("A.g", "denominator", 6)]


# ExactNumber n / (s d) keeps n, d, s and d's factors in these slots
SLOTS = ("_num", "_den", "_scale", "_factors")
POLY_HELPERS = ("_UNIT", "_parts", "_product", "_mono_mul")


def _encoding_sites(source: str):
    """(kind, line) for each monomial literal, ``ExactNumber`` slot read and
    import of a polynomial helper in the source, in source order.  A
    monomial literal is a tuple of fewer than two elements: ``()`` or
    ``(p,)``; ``(ARCH,)`` and the value of ``__slots__`` are no monomial."""
    tree = ast.parse(source)
    slots = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets)}
    out = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Tuple) and isinstance(node.ctx, ast.Load)
                and len(node.elts) < 2 and id(node) not in slots
                and not (node.elts and isinstance(node.elts[0], ast.Name)
                         and node.elts[0].id == "ARCH")):
            out.append(("monomial", node.lineno, node.col_offset))
        elif isinstance(node, ast.Attribute) and node.attr in SLOTS:
            out.append((node.attr, node.lineno, node.col_offset))
        elif isinstance(node, ast.ImportFrom):
            out += [(f"import {a.name}", node.lineno, node.col_offset) for a in node.names
                    if a.name in POLY_HELPERS]
    return [(kind, line) for kind, line, _ in sorted(out, key=lambda site: site[1:])]


@pytest.mark.parametrize("module", MODULES)
def test_only_exactnum_knows_the_encoding(module):
    bad = _encoding_sites((SRC / f"{module}.py").read_text())
    assert not bad, f"{module}.py builds on exactnum's encoding: {bad}"


def test_the_encoding_guard_sees_each_kind():
    source = ("from .exactnum import ARCH, _UNIT, _lin, _parts\n"
              "from .exactnum import _product, _mono_mul\n"
              "class A:\n"
              "    __slots__ = ('_x',)\n"
              "    def f(self, x, p):\n"
              "        y, = (ARCH,) + (p,)\n"
              "        return {(): 1}, x._num, x._den, x._scale, x._factors, x._numerator\n")
    assert _encoding_sites(source) == [
        ("import _UNIT", 1), ("import _parts", 1), ("import _product", 2),
        ("import _mono_mul", 2), ("monomial", 6), ("monomial", 7), ("_num", 7),
        ("_den", 7), ("_scale", 7), ("_factors", 7)]


# (module, qualified function name) -> the integer route that reads a
# Fraction's slots, with its calls on the seed-9001 op lists of one
# benchmark worker (``ops(9001, 16 / 3)`` of ``perfbench/workloads.py``),
# suites / diskant / oracle, as ``tests/call_counts.py`` prints them.  Any
# other function takes the kernel's ``_q``, ``_qadd``, ``_qsub``,
# ``_qmul``, ``_qdiv`` and ``scalar_cmp``.
SLOT_READERS = {
    ("pa", "_slope"): "the slope of two Fraction points: 315 / 0 / 222",
    ("pa", "_turn"): "the orientation sign of three Fraction points: 1,020 / 0 / 0",
    ("pa", "_tail_turn"): "the side of a tail of a Fraction point: 1,034 / 0 / 264",
    ("pa", "_on_line"): "y0 - s x0 on Fractions: 1,067 / 164 / 402",
    ("pa", "_ratios"): "the ints of Fraction grids and points: 1,648 / 281 / 60",
    ("pa", "_chord"): "a chord at a Fraction x, on Fractions or per monomial: 40 / 0 / 0",
    ("pa", "_integer_grid"): "points on integer keys over one denominator: 1,263 / 164 / 0",
    ("pa", "_grid_values"): "values on integer keys in one scan: 2,012 / 328 / 0",
    ("pa", "_grid_jets"): "jets on integer keys in one scan: 619 / 82 / 0",
    ("positivity", "_rows"): "a pair's potentials as integers, for its pass: 524 / 117 / 90",
    ("positivity", "_Line.volume"): "a line's volume at a Fraction t: 507 / 41 / 0",
    ("harness", "sample_convex_potential"): "the slopes of a sampled potential: 633 / 97 / 0",
    ("harness", "_rational_cases"): "the Diskant chain over integer numerators: 0 / 41 / 0",
    ("sections", "_floor_scaled_exp"): "floor(d e^q) on ints: 0 / 0 / 52",
    ("sections", "_exp_mantissas"): "an enclosure of e^x on ints: 0 / 0 / 164",
    ("sections", "_affine_runs"): "a roof's runs of grid points on ints: 0 / 0 / 90",
    ("sections", "_check_cost"): "a box's bit bound on ints: 0 / 0 / 60",
    ("scenes", "_bits"): "the bits of a scene's breakpoints and slopes: 0 / 0 / 492",
}
FRACTION_SLOTS = ("_numerator", "_denominator")


def _slot_readers(source: str) -> set:
    """The qualified name of each function that reads a Fraction slot."""
    out = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Attribute) and child.attr in FRACTION_SLOTS:
                out.add(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), ())
    return out


def _module_slot_readers(module: str) -> set:
    return _slot_readers((SRC / f"{module}.py").read_text())


@pytest.mark.parametrize("module", MODULES)
def test_only_listed_routes_read_fraction_slots(module):
    listed = {name for m, name in SLOT_READERS if m == module}
    bad = _module_slot_readers(module) - listed
    assert not bad, f"{module}.py reads Fraction slots outside SLOT_READERS: {sorted(bad)}"


def test_every_listed_slot_reader_is_still_there():
    used = {(module, name) for module in MODULES for name in _module_slot_readers(module)}
    assert set(SLOT_READERS) <= used, set(SLOT_READERS) - used


def test_the_slot_guard_sees_each_read():
    source = ("X = y._numerator\n"
              "class A:\n"
              "    def f(self, x):\n"
              "        def g():\n"
              "            return x._denominator\n"
              "        return g, x._denominators\n")
    assert _slot_readers(source) == {"", "A.f.g"}


# Fraction's arithmetic and ordering operators: the forward and reverse
# operators of ``_operator_fallbacks``, the comparisons that call
# ``_richcmp``, negation and abs.  A call from the package's own source
# runs CPython's pure-Python operator protocol and a gcd per result.
FRACTION_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                      "__truediv__", "__rtruediv__", "__lt__", "__le__", "__gt__", "__ge__",
                      "__neg__", "__abs__")
PACKAGE = str(Path(adelic_volumes.__file__).resolve().parent)


def fraction_operator_hook(counts: collections.Counter):
    """A profile hook that adds one to ``counts[(module, function)]`` for
    each Fraction operator that a function of the package calls directly."""
    codes = {getattr(Fraction, name).__code__ for name in FRACTION_OPERATORS}
    inside = {}

    def hook(frame, event, arg):
        if event != "call" or frame.f_code not in codes:
            return
        caller = frame.f_back.f_code
        path = caller.co_filename
        if path not in inside:
            inside[path] = str(Path(path).resolve().parent) == PACKAGE
        if inside[path]:
            counts[(Path(path).stem, getattr(caller, "co_qualname", caller.co_name))] += 1

    return hook


def test_rational_diskant_reports_call_no_fraction_operator():
    # sampled rational pairs, every third second pair a multiple of the
    # first: the chain, the samplers and the passes beneath them stay on
    # the kernel's integers
    counts = collections.Counter()
    rng = random.Random("fraction-operators")
    sys.setprofile(fraction_operator_hook(counts))
    try:
        for i in range(30):
            p1 = sample_big_pair(rng, allow_finite=False)
            p2 = (p1.scale(Fraction(rng.randint(1, 6), rng.randint(1, 3))) if i % 3 == 0
                  else sample_big_pair(rng, allow_finite=False))
            assert diskant_report(p1, p2).all_pass
    finally:
        sys.setprofile(None)
    assert not counts, f"Fraction operators called from the package: {dict(counts)}"


def test_the_operator_hook_sees_each_kind():
    counts = collections.Counter()
    half = Fraction(1, 2)
    code = compile("x = -abs(h + 1 - h * 2 / h); y = 1 - h < h", str(Path(PACKAGE) / "m.py"),
                   "exec")
    sys.setprofile(fraction_operator_hook(counts))
    try:
        exec(code, {"h": half})
        _ = half + half  # called from the tests: not counted
    finally:
        sys.setprofile(None)
    assert counts == {("m", "<module>"): 8}
