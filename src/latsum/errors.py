"""Exception hierarchy shared across the package."""


class LatSumError(Exception):
    """Base class for all latsum errors."""


class NonPositiveY(LatSumError):
    """Second lattice parameter must be strictly positive."""


class NotUpperHalfPlane(LatSumError):
    """tau must have positive imaginary part."""


class NoConvergence(LatSumError):
    """An iteration exceeded its application budget."""


class NonPositiveT(LatSumError):
    """Theta parameter t must be strictly positive."""


class NonPositiveAlpha(LatSumError):
    """Gaussian scale alpha must be strictly positive."""


class TailNotMet(LatSumError):
    """A certified value did not reach the requested tolerance.

    Summation routines do not raise this: they return a value flagged with
    ``converged=False`` together with the honest tail bound.  Only
    ``CertifiedValue.require()`` raises it, for callers that insist on the
    tolerance.  The CLI does not: its exit code 3 follows ``converged``.
    """


class UnsupportedDensity(LatSumError):
    """Frame bounds are only computed for densities in 2, 4, 6, ..."""


class EmptyQuadrature(LatSumError):
    """A completely monotone potential needs at least one quadrature node."""


class PoleAtLatticePoint(LatSumError):
    """Shifted Epstein zeta is singular when the shift hits a lattice point."""


class ConstraintViolated(LatSumError):
    """A charge distribution violates neutrality or normalization."""


class NotMultipleOfThree(LatSumError):
    """The honeycomb charge pattern needs a period divisible by 3."""
