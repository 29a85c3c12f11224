"""Exact arithmetic volumes of adelic divisor pairs on the projective line
over Q: Legendre-dual roofs, Zariski positive parts, positive intersection
numbers, isoperimetric inequalities, and brute-force section-count oracles.
"""

from .divisors import (
    ARCH,
    BaseCondition,
    Pair,
    ToricAdelicDivisor,
    as_pair,
    canonical_potential,
    min_adelic,
)
from .errors import (
    AdelicVolumesError,
    EmptyPolytope,
    NotBig,
    NotNef,
    PrecisionExhausted,
    UnknownSuite,
)
from .exactnum import ExactNumber, exact, log_unit, scalar_float, scalar_sign
from .gallery import (
    half_zero_pair,
    height_shift,
    p_slant_divisor,
    slant_divisor,
    tent_divisor,
)
from .harness import (
    DerivativeReport,
    SuiteResult,
    check_differentiability,
    diskant_report,
    run_suite,
    suite_names,
)
from .pa import ConcavePA, ConvexPA, Interval, PAGeneral
from .positivity import (
    Bracket,
    DiskantReport,
    adeg_product,
    avol,
    is_big,
    is_nef,
    is_pseff,
    is_relatively_nef,
    positive_intersection,
    pseff_threshold,
    zariski_positive_part,
)
from .scenes import load_scene, save_scene, scene_from_dict, scene_to_dict
from .sections import (
    OkounkovData,
    analytic_okounkov,
    box_log_count,
    okounkov_sample,
    section_box,
    volume_estimate,
)

__version__ = "0.1.0"

__all__ = [
    "ARCH",
    "AdelicVolumesError",
    "BaseCondition",
    "Bracket",
    "ConcavePA",
    "ConvexPA",
    "DerivativeReport",
    "DiskantReport",
    "EmptyPolytope",
    "ExactNumber",
    "Interval",
    "NotBig",
    "NotNef",
    "OkounkovData",
    "PAGeneral",
    "Pair",
    "PrecisionExhausted",
    "SuiteResult",
    "ToricAdelicDivisor",
    "UnknownSuite",
    "adeg_product",
    "analytic_okounkov",
    "as_pair",
    "avol",
    "box_log_count",
    "canonical_potential",
    "check_differentiability",
    "diskant_report",
    "exact",
    "half_zero_pair",
    "height_shift",
    "is_big",
    "is_nef",
    "is_pseff",
    "is_relatively_nef",
    "load_scene",
    "log_unit",
    "min_adelic",
    "okounkov_sample",
    "p_slant_divisor",
    "positive_intersection",
    "pseff_threshold",
    "run_suite",
    "save_scene",
    "scalar_float",
    "scalar_sign",
    "scene_from_dict",
    "scene_to_dict",
    "section_box",
    "slant_divisor",
    "suite_names",
    "tent_divisor",
    "volume_estimate",
    "zariski_positive_part",
]
