"""Exact arithmetic volumes of adelic divisor pairs on the projective line
over Q: Legendre-dual roofs, Zariski positive parts, positive intersection
numbers, isoperimetric inequalities, and brute-force section-count oracles.

Public names load on first use (PEP 562): ``import adelic_volumes`` imports
no submodule, and reading ``adelic_volumes.avol`` imports ``positivity``,
with what it needs, and returns its ``avol``.
"""

from importlib import import_module

__version__ = "0.1.0"

# the submodule that defines each public name
_HOME = {
    name: module
    for module, names in {
        "divisors": ("ARCH", "BaseCondition", "Pair", "ToricAdelicDivisor", "as_pair",
                     "canonical_potential", "min_adelic"),
        "errors": ("AdelicVolumesError", "EmptyPolytope", "NotBig", "NotNef",
                   "PrecisionExhausted", "UnknownSuite"),
        "exactnum": ("ExactNumber", "exact", "log_unit", "scalar_float", "scalar_sign"),
        "gallery": ("half_zero_pair", "height_shift", "p_slant_divisor", "slant_divisor",
                    "tent_divisor"),
        "harness": ("DerivativeReport", "SuiteResult", "check_differentiability",
                    "diskant_report", "run_suite", "suite_names"),
        "pa": ("ConcavePA", "ConvexPA", "Interval", "PAGeneral"),
        "positivity": ("Bracket", "DiskantReport", "adeg_product", "avol", "is_big", "is_nef",
                       "is_pseff", "is_relatively_nef", "positive_intersection",
                       "pseff_threshold", "zariski_positive_part"),
        "scenes": ("load_scene", "save_scene", "scene_from_dict", "scene_to_dict"),
        "sections": ("OkounkovData", "analytic_okounkov", "box_log_count", "okounkov_sample",
                     "section_box", "volume_estimate"),
    }.items()
    for name in names
}

__all__ = sorted(_HOME)


def __getattr__(name):
    # not cached in the package's namespace: each read returns the
    # submodule's current binding
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
