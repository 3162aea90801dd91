"""Exception hierarchy shared across the package.

Each error is an invalid input or an exhausted iteration budget.  A sum
that does not reach its tolerance raises nothing: it returns its value
with the honest tail bound and ``converged=False``, and the CLI's exit
code 3 follows that flag.
"""


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
