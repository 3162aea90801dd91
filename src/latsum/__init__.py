"""Two-dimensional lattice Gaussian sums with certified truncation error.

Core objects: two-parameter lattices on the upper half plane, one 2D
Gaussian sum with rigorous tail bounds (the shifted and charged theta
families are that sum on the unit-covolume lattice of a shape), global torus
minimization, lemma verifiers for the hexagonal variational results, and
the application stack (frame bounds, heat kernels, completely monotone
energies, periodic charges, disc-covering constants).
"""

from .errors import (
    ConstraintViolated,
    EmptyQuadrature,
    LatSumError,
    NoConvergence,
    NonPositiveAlpha,
    NonPositiveT,
    NonPositiveY,
    NotMultipleOfThree,
    NotUpperHalfPlane,
    PoleAtLatticePoint,
    UnsupportedDensity,
)
from .lattice import (
    Lattice,
    PhasePoint,
    ReductionTrace,
    hexagonal_lattice,
    lattice_from_generator,
    lattice_from_tau,
    reduce_to_fundamental,
    special_point_a,
    special_point_b,
    square_lattice,
)
from .theta import (
    CertifiedValue,
    TruncationPolicy,
    functional_equation_residual,
    lattice_gaussian_sum,
    montgomery_A,
    montgomery_B,
    montgomery_Q,
    theta1d_hat,
    theta_charged,
    theta_shifted,
)
from .optimize import (
    MinResult,
    minimize_over_cell,
    sweep_fundamental_domain,
)
from .applications import (
    ChargeDistribution,
    CMPotential,
    FrameBounds,
    LandauConstants,
    born_energy,
    cm_lattice_energy,
    epsilon_opt_hexagonal,
    epstein_zeta_shifted,
    gabor_frame_bounds,
    heat_kernel_torus,
    landau_constants,
    temperature_extremes,
)
from .proofcheck import LemmaReport, QuadFormLedger, run_default_suite

__version__ = "0.1.0"
