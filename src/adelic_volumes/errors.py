"""Exception types shared across the package.

Everything raised on purpose derives from :class:`AdelicVolumesError`, so callers
can catch one base class at CLI or test boundaries.
"""


class AdelicVolumesError(Exception):
    """Base class for all errors raised deliberately by this package."""


class OutOfDomain(AdelicVolumesError):
    """Evaluation point lies outside the domain of a piecewise-affine function."""


class EmptyDomain(AdelicVolumesError):
    """An operation produced or required an empty domain (disjoint intervals)."""


class UnboundedBelow(AdelicVolumesError):
    """A convex envelope or minimum does not exist because the function has no
    affine minorant (asymptotic slopes out of order)."""


class NotConcave(AdelicVolumesError):
    """Breakpoint data fed to a concave constructor is not concave."""


class NotConvex(AdelicVolumesError):
    """Breakpoint data fed to a convex constructor is not convex."""


class InvalidPoint(AdelicVolumesError):
    """A base condition names a point other than the torus-fixed 0 and inf,
    which the toric model cannot express."""


class EmptyPolytope(AdelicVolumesError):
    """A roof or body was requested for a pair whose constrained polytope is empty."""


class NotEffectiveInput(AdelicVolumesError):
    """An operation defined only for effective inputs received a non-effective one."""


class UnboundedPerturbation(AdelicVolumesError):
    """A perturbation function must be bounded (zero asymptotic slopes)."""


class NotBig(AdelicVolumesError):
    """An operation defined only for big pairs received a non-big one."""


class NotNef(AdelicVolumesError):
    """An operation defined only for nef divisors received a non-nef one."""


class UnknownSuite(AdelicVolumesError):
    """run_suite received a suite name it does not know."""


class PrecisionExhausted(AdelicVolumesError):
    """Interval arithmetic could not separate a comparison at the precision cap."""
