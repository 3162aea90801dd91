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
    TailNotMet,
    UnsupportedDensity,
)
from .lattice import (
    Frame,
    Lattice,
    PhasePoint,
    ReductionTrace,
    dual_lattice,
    hexagonal_lattice,
    lattice_from_generator,
    lattice_from_tau,
    reduce_to_fundamental,
    special_point_a,
    special_point_b,
    square_lattice,
    symplectic_dual,
)
from .theta import (
    CertifiedValue,
    TruncationPolicy,
    functional_equation_residual,
    lattice_gaussian_sum,
    montgomery_A,
    montgomery_B,
    montgomery_Q,
    product_rep_theta1d_hat,
    theta1d,
    theta1d_hat,
    theta_charged,
    theta_shifted,
)
from .optimize import (
    CriticalRule,
    MinResult,
    RidgeFamily,
    SweepRecord,
    gradient_at_point,
    minimize_over_cell,
    ridge_profile,
    sweep_fundamental_domain,
    x_derivative_sign_scan,
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
    strohmer_beaver_sweep,
    temperature_extremes,
)
from .proofcheck import LemmaReport, QuadFormLedger, run_default_suite

__version__ = "0.1.0"
