"""The public surface of latsum, pinned name by name.

A public name is one the package, its CLI, the benchmark or an acceptance
test calls; a name kept only to check another route lives beside the test
oracles in ``conftest.py``.  A name added to or removed from a module must
be added to or removed from the literal sets below.
"""

import ast
import inspect

import latsum
from latsum import applications, lattice, optimize, proofcheck, theta

EXPORTS = {
    # errors
    "ConstraintViolated", "EmptyQuadrature", "LatSumError", "NoConvergence",
    "NonPositiveAlpha", "NonPositiveT", "NonPositiveY", "NotMultipleOfThree",
    "NotUpperHalfPlane", "PoleAtLatticePoint", "UnsupportedDensity",
    # lattice
    "Lattice", "PhasePoint", "ReductionTrace", "hexagonal_lattice", "lattice_from_generator",
    "lattice_from_tau", "reduce_to_fundamental", "special_point_a", "special_point_b",
    "square_lattice",
    # theta
    "CertifiedValue", "TruncationPolicy", "functional_equation_residual",
    "lattice_gaussian_sum", "montgomery_A", "montgomery_B", "montgomery_Q", "theta1d_hat",
    "theta_charged", "theta_shifted",
    # optimize
    "MinResult", "minimize_over_cell", "sweep_fundamental_domain",
    # applications
    "CMPotential", "ChargeDistribution", "FrameBounds", "LandauConstants", "born_energy",
    "cm_lattice_energy", "epsilon_opt_hexagonal", "epstein_zeta_shifted",
    "gabor_frame_bounds", "heat_kernel_torus", "landau_constants", "temperature_extremes",
    # proofcheck
    "LemmaReport", "QuadFormLedger", "run_default_suite",
}

SURFACES = {
    lattice: {
        "Lattice", "Lattice.covolume", "PhasePoint", "PhasePoint.canonical", "ReductionTrace",
        "det2", "hexagonal_lattice", "lattice_from_generator", "lattice_from_tau",
        "reduce_to_fundamental", "special_point_a", "special_point_b", "square_lattice",
    },
    theta: {
        "CertifiedValue", "DEFAULT_POLICY", "ShiftedSumEvaluator",
        "ShiftedSumEvaluator.certified", "ShiftedSumEvaluator.certified_at",
        "ShiftedSumEvaluator.derivatives_centered",
        "TWO_PI", "TruncationPolicy", "functional_equation_residual", "lattice_gaussian_sum",
        "montgomery_A", "montgomery_B", "montgomery_Q", "theta1d_hat", "theta_charged",
        "theta_shifted",
    },
    optimize: {
        "MinResult", "minimize_over_cell", "minimize_torus", "sweep_fundamental_domain",
    },
    applications: {
        "CMPotential", "CMPotential.at_zero", "CMPotential.gaussian", "CMPotential.riesz",
        "ChargeDistribution", "ChargeDistribution.validate", "FrameBounds", "FrameBounds.ratio",
        "LandauConstants", "TWO_PI", "born_energy", "born_energy_from_table",
        "born_interaction_table", "cm_lattice_energy", "epsilon_opt_hexagonal",
        "epstein_min_sweep", "epstein_zeta_shifted", "gabor_frame_bounds", "heat_kernel_torus",
        "heat_route", "landau_constants", "minimize_cm_energy", "temperature_extremes",
    },
    proofcheck: {
        "LemmaReport", "LemmaReport.passed", "PRINTED_CONSTANTS", "Q1_UNIT", "QuadFormLedger",
        "SQRT3", "TWO_PI", "Y_HEX", "charged_sum_d2", "charged_term_d2", "check_G_monotone",
        "check_alpha_thresholds", "check_charged_concavity_small_alpha",
        "check_charged_nine_term", "check_derivative_bounds", "check_dominant_concavity",
        "check_growth11_composite", "check_growth_lemma_1", "check_growth_lemma_2",
        "check_heat_inflection", "check_montgomery_sandwich", "check_nine_term_concavity",
        "check_q1_growth", "check_q1_ledger", "check_q2_ledger", "check_tail_constants",
        "dominant_concavity_extreme", "enumerate_form", "g_profile", "growth1_min_ratio",
        "min_phi_f", "min_phi_g", "phi_f", "phi_f_d1", "phi_f_d2", "phi_g", "q1", "q2",
        "run_default_suite", "shifted_term_d2", "tail_constant",
    },
}


def defined_names(module) -> set[str]:
    """Public names bound at the top level of the module's source, with the
    public methods and properties of its classes as ``Class.name``."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, ast.Assign):
            bound = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in bound:
            if name.startswith("_"):
                continue
            names.add(name)
            if isinstance(node, ast.ClassDef):
                names |= {
                    f"{name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                }
    return names


def test_public_surface_is_pinned():
    exports = {
        name for name, obj in vars(latsum).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert exports == EXPORTS
    for module, pinned in SURFACES.items():
        assert defined_names(module) == pinned, module.__name__
