import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latsum import theta
from latsum.applications import CMPotential, heat_kernel_torus
from latsum.errors import NonPositiveAlpha, NonPositiveT
from latsum.lattice import (
    PhasePoint,
    lattice_from_generator,
    lattice_from_tau,
    special_point_b,
)
from latsum.theta import (
    _EXP_FLOOR,
    _MAX_BOX_CELLS,
    _TILE_CROSS,
    DEFAULT_POLICY,
    TWO_PI,
    ShiftedSumEvaluator,
    TruncationPolicy,
    _ball,
    _box,
    _box_radius,
    _dual_side,
    _gaussian_tail,
    _nearest_sq,
    _node_arrays,
    _plan,
    _rounding_bound,
    _select_radius,
    _side,
    _sum_at,
    _tau_plan,
    functional_equation_residual,
    lattice_gaussian_sum,
    montgomery_A,
    montgomery_B,
    montgomery_Q,
    theta1d_hat,
    theta_charged,
    theta_shifted,
)

from conftest import (
    THETA1D_MAX_INDEX,
    Y_HEX,
    assert_derivatives_match_differences,
    assert_derivatives_match_oracle,
    direct_series_derivatives,
    product_rep_theta1d_hat,
    random_domain_lattice,
    run_under_memory_limit,
    theta1d,
    values_centered,
)


def brute_theta1d(beta: float, t: float, radius: int = 10) -> float:
    """Independent partial-sum oracle."""
    return math.fsum(
        math.exp(-math.pi * t * (k + beta) ** 2) for k in range(-radius, radius + 1)
    )


class TestTheta1D:
    def test_against_partial_sum_oracle(self):
        assert abs(theta1d(0.0, 1.0).value - brute_theta1d(0.0, 1.0)) < 1e-12
        assert abs(theta1d(0.5, 1.0).value - brute_theta1d(0.5, 1.0)) < 1e-12

    def test_frozen_values(self):
        # oracle values frozen from the partial sum at radius 10
        assert abs(theta1d(0.0, 1.0).value - 1.0864348112133080) < 1e-12
        assert abs(theta1d(0.5, 1.0).value - 0.9135791381561168) < 1e-12

    def test_against_product_representation(self):
        for beta, t in ((0.0, 1.0), (0.3, 0.7), (0.5, 2.0)):
            series = theta1d(beta, t).value
            via_product = product_rep_theta1d_hat(beta, 1.0 / t, 30) / math.sqrt(t)
            assert abs(series - via_product) < 1e-12

    def test_evenness_randomized(self, rng):
        for _ in range(100):
            beta = rng.uniform(-2, 2)
            t = rng.uniform(0.2, 5.0)
            assert abs(theta1d(beta, t).value - theta1d(-beta, t).value) < 1e-13

    def test_exact_periodicity_after_canonicalization(self):
        for beta in (0.25, 0.625, 0.0078125):
            assert theta1d(beta + 1.0, 1.3).value == theta1d(beta, 1.3).value

    def test_monotone_decreasing_on_half_interval(self):
        for t in (0.25, 1.0, 4.0):
            betas = np.linspace(0.01, 0.49, 40)
            vals = [theta1d(float(b), t).value for b in betas]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_nonpositive_t(self):
        with pytest.raises(NonPositiveT):
            theta1d(0.2, 0.0)

    def test_tail_flag(self):
        # at t = 1e-9 the tail falls below 1e-12 only past k ~ 1.5e5
        cv = theta1d(0.0, 1e-9)
        assert cv.terms_used == 2 * THETA1D_MAX_INDEX + 1
        assert not cv.converged
        # the hat series sums its short side, t^(-1/2) sum_n e^(-pi n^2 / t), in
        # a few terms; the rounding of a value of 3.2e4 exceeds the tolerance 1e-12
        hat = theta1d_hat(0.0, 1e-9)
        assert hat.terms_used <= 12
        assert abs(hat.value - 1e-9**-0.5) <= hat.tail_bound
        assert not hat.converged


class TestTheta1DHat:
    def test_self_dual_point(self):
        assert abs(theta1d_hat(0.0, 1.0).value - theta1d(0.0, 1.0).value) < 1e-13

    def test_functional_equation(self, rng):
        for _ in range(50):
            beta = rng.uniform(0, 1)
            t = rng.uniform(0.3, 4.0)
            lhs = math.sqrt(1.0 / t) * theta1d(beta, 1.0 / t).value
            rhs = theta1d_hat(beta, t).value
            assert abs(lhs - rhs) < 1e-12

    def test_alternating_value(self):
        # hat series at the half point: sum of (-1)^k exp(-pi k^2)
        direct = math.fsum((-1) ** k * math.exp(-math.pi * k * k) for k in range(-10, 11))
        assert abs(theta1d_hat(0.5, 1.0).value - direct) < 1e-13
        assert abs(theta1d_hat(0.5, 1.0).value - theta1d(0.5, 1.0).value) < 1e-13

    def test_max_at_zero_charge(self, rng):
        for _ in range(50):
            beta = rng.uniform(0, 1)
            t = rng.uniform(0.3, 4.0)
            assert theta1d_hat(beta, t).value <= theta1d_hat(0.0, t).value + 1e-13


class TestKernel1D:
    """The 1D kernel ``theta._theta1d`` and its one-point case ``theta1d_hat``."""

    BETAS = [0.0, 0.1, 0.25, 0.4, 0.5, 0.7, -1.3, 1e6 + 0.3]
    TS = [1e-200, 1e-9, 1e-4, 0.05, 0.5, 1.0 - 1e-16, 1.0, 2.0, 100.0, 1e300]

    def test_scalar_call_is_the_batch_element(self):
        # bit for bit, value and tail, on a grid that mixes both sides
        beta, t = np.meshgrid(self.BETAS, self.TS)
        values, tails = theta._theta1d(beta, t)
        for b, tt, value, tail in zip(beta.flat, t.flat, values.flat, tails.flat):
            hat = theta1d_hat(float(b), float(tt))
            assert (hat.value, hat.tail_bound) == (value, tail)
            assert hat.terms_used == (9 if tt < 1.0 else 6)
        for order in (0, 1, 2):
            values, tails = theta._theta1d(beta[2:], t[2:], order)
            for b, tt, value, tail in zip(beta[2:].flat, t[2:].flat, values.flat, tails.flat):
                assert theta._theta1d(b, tt, order) == (value, tail)

    def test_row_blocks_keep_each_element(self):
        # a batch past one row block, both sides interleaved
        n = 3 * theta._ROWS_1D + 5
        beta = np.linspace(-0.5, 1.5, n)
        t = np.where(np.arange(n) % 3 == 0, 0.3, 3.0)
        for order in (0, 1, 2):
            values, tails = theta._theta1d(beta, t, order)
            for i in (0, 1, theta._ROWS_1D, n - 1):
                assert theta._theta1d(beta[i], t[i], order) == (values[i], tails[i])

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_extreme_t_works_or_fails_loudly(self, order):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, tail = theta._theta1d(0.3, 1e300, order)
            assert abs(value - (1.0 if order == 0 else 0.0)) <= tail < 1e-14
            value, tail = theta._theta1d(0.0, 1e-200, order)
            assert math.isfinite(value) and 0.0 <= tail < math.inf
            for t in (1e-300, math.inf, math.nan):
                with pytest.raises(ValueError):
                    theta._theta1d(np.array([0.3, 0.3]), np.array([0.5, t]), order)
        assert theta1d_hat(0.3, 1e300).value == 1.0
        with pytest.raises(ValueError):
            theta1d_hat(0.3, 1e-300)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_nonfinite_beta_raises(self, beta):
        # once per call, before any row block: no NaN value and no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (theta1d_hat, montgomery_Q):
                with pytest.raises(ValueError, match="finite beta"):
                    call(beta, 0.5)
            n = 2 * theta._ROWS_1D + 3
            betas = np.linspace(0.0, 1.0, n)
            betas[n - 2] = beta
            for order in (0, 1, 2):
                for t in (0.5, 2.0, np.where(np.arange(n) % 2, 0.5, 2.0)):
                    with pytest.raises(ValueError, match="finite beta"):
                        theta._theta1d(betas, t, order)

    def test_short_side_is_never_negative(self):
        # the cosine series at (0.5, 1e-4) read -8.5e-14 for a true value of
        # 2e-3409; the Jacobi side sums positive terms
        hat = theta1d_hat(0.5, 1e-4)
        assert 0.0 <= hat.value <= hat.tail_bound < 1e-290
        assert hat.converged


class TestProductRep:
    def test_agreement_with_series(self):
        assert abs(product_rep_theta1d_hat(0.0, 1.0, 20) - theta1d_hat(0.0, 1.0).value) < 1e-12
        assert abs(product_rep_theta1d_hat(0.5, 2.0, 20) - theta1d_hat(0.5, 2.0).value) < 1e-14

    def test_factor_positivity_bound(self, rng):
        # each factor dominates (1 - q^(2k-1))^2 (1 - q^(2k)) > 0
        for _ in range(100):
            beta = rng.uniform(0, 1)
            t = rng.uniform(0.1, 3.0)
            k = int(rng.integers(1, 10))
            e_odd = math.exp(-(2 * k - 1) * math.pi * t)
            e_even = math.exp(-2 * math.pi * k * t)
            factor = (1 - e_even) * (1 + 2 * math.cos(2 * math.pi * beta) * e_odd + e_odd**2)
            lower = (1 - e_odd) ** 2 * (1 - e_even)
            assert factor >= lower > 0.0


class TestMontgomeryQ:
    def test_finite_difference_oracle(self):
        # at t = 1 the two theta families coincide, so the plain theta
        # derivative ratio equals Q directly
        h = 1e-5
        beta = 0.25
        d = (theta1d(beta + h, 1.0).value - theta1d(beta - h, 1.0).value) / (2 * h)
        fd = -d / math.sin(2 * math.pi * beta)
        assert abs(fd - montgomery_Q(beta, 1.0).value) < 1e-6

    def test_scaled_relation_to_theta_derivative(self, rng):
        # -theta1d'(beta; s) = sin(2 pi beta) s^(-1/2) Q(beta; 1/s)
        h = 1e-6
        for _ in range(20):
            beta = rng.uniform(0.05, 0.45)
            s = rng.uniform(0.4, 3.0)
            d = (theta1d(beta + h, s).value - theta1d(beta - h, s).value) / (2 * h)
            rhs = math.sin(2 * math.pi * beta) * s**-0.5 * montgomery_Q(beta, 1.0 / s).value
            assert abs(-d - rhs) < 1e-5 * max(1.0, abs(rhs))

    def test_symmetry_and_periodicity(self, rng):
        for _ in range(50):
            beta = rng.uniform(0, 1)
            t = rng.uniform(0.3, 3.0)
            q = montgomery_Q(beta, t).value
            assert abs(q - montgomery_Q(1.0 - beta, t).value) < 1e-12
            assert abs(q - montgomery_Q(beta + 1.0, t).value) < 1e-12

    def test_positive_and_decreasing(self):
        for t in (0.3, 1.0, 2.0):
            betas = np.linspace(0.0, 0.5, 20)
            vals = [montgomery_Q(float(b), t).value for b in betas]
            assert all(v > 0 for v in vals)
            assert all(a >= b - 1e-13 for a, b in zip(vals, vals[1:]))

    def test_envelope_sandwich_spec_grid(self):
        for t in (0.25, 1.0, 4.0):
            lo, hi = montgomery_A(t), montgomery_B(t)
            for beta in (0.1, 0.25, 0.4):
                q = montgomery_Q(beta, t).value
                assert lo <= q <= hi

    def test_half_integer_limits(self):
        # removable singularities evaluate smoothly
        q0 = montgomery_Q(0.0, 1.0).value
        qh = montgomery_Q(0.5, 1.0).value
        assert q0 > qh > 0
        assert abs(montgomery_Q(1e-9, 1.0).value - q0) < 1e-8

    def test_converged_means_tail_within_tol(self):
        # a tail of 5.3e-12 on a value near 1000 misses the default tol 1e-12
        q = montgomery_Q(0.0, 0.01)
        assert q.value == pytest.approx(1000.0, abs=0.01)
        assert q.tail_bound > DEFAULT_POLICY.target_tol
        assert not q.converged
        for t in np.logspace(math.log10(0.05), math.log10(4.0), 20):
            for beta in np.linspace(0.0, 0.5, 21):
                q = montgomery_Q(float(beta), float(t))
                assert q.converged == (q.tail_bound <= DEFAULT_POLICY.target_tol)

    @pytest.mark.parametrize("t", [1e-5, 1e-4])
    def test_small_t_is_within_its_tail(self, t):
        # Q(0; t) = -theta_hat''(0; t) / (2 pi): the kernel's order 2 sums the
        # unpaired Jacobi terms (2 x - 1) e^(-x); Q is ~ t^(-3/2) there
        q = montgomery_Q(0.0, t)
        hat2, tail2 = (float(v) for v in theta._theta1d(0.0, t, 2))
        assert q.value == pytest.approx(t**-1.5, rel=1e-12)
        assert abs(q.value + hat2 / TWO_PI) <= q.tail_bound + tail2 / TWO_PI
        assert 0.0 < q.tail_bound <= 1e-12 * q.value
        assert q.terms_used == 10 and not q.converged

    def test_scalar_call_is_the_batch_element(self):
        # bit for bit, value and tail, on the lemma suite's sandwich grid and
        # small t in one batch that mixes both sides
        ts = [1e-5, 1e-3, 0.1] + np.logspace(math.log10(0.25), math.log10(4.0), 9).tolist()
        beta, t = np.meshgrid(np.append(np.linspace(0.0, 0.5, 50), [0.25 + 1e-12, -1.3]), ts)
        values, tails = theta._theta1d(beta, t, 1)
        for b, tt, value, tail in zip(beta.flat, t.flat, values.flat, tails.flat):
            q = montgomery_Q(float(b), float(tt))
            assert (q.value, q.tail_bound) == (value, tail)
            assert q.terms_used == (10 if tt < 1.0 else 5)


class TestEnvelopes:
    def test_ratio_at_one(self):
        assert montgomery_A(1.0) / montgomery_B(1.0) == pytest.approx(2999.0 / 3001.0, abs=1e-15)

    def test_ratio_below_one(self, rng):
        for _ in range(30):
            t = rng.uniform(0.05, 0.999)
            assert montgomery_A(t) / montgomery_B(t) == pytest.approx(
                math.exp(-math.pi / (4.0 * t)), rel=1e-13
            )

    def test_value_at_half(self):
        expected = 0.5**-1.5 * math.exp(-math.pi / 2.0)
        assert montgomery_A(0.5) == pytest.approx(expected, rel=1e-15)

    def test_nonpositive_t(self):
        with pytest.raises(NonPositiveT):
            montgomery_A(0.0)
        with pytest.raises(NonPositiveT):
            montgomery_B(-1.0)


class TestGaussianSum:
    def test_square_separability_origin(self, sq):
        expected = theta1d(0.0, 1.0).value ** 2
        got = lattice_gaussian_sum(sq, PhasePoint(0.0, 0.0), 1.0)
        assert abs(got.value - expected) < 1e-12

    def test_square_separability_center(self, sq):
        expected = theta1d(0.5, 1.0).value ** 2
        got = lattice_gaussian_sum(sq, PhasePoint(0.5, 0.5), 1.0)
        assert abs(got.value - expected) < 1e-12

    def test_hexagonal_headline_value(self, hexl):
        b = special_point_b(0.5, Y_HEX)
        got = lattice_gaussian_sum(hexl, b, 1.0)
        assert got.value == pytest.approx(0.920371, abs=5e-6)

    def test_positivity_and_max_at_origin(self, rng):
        for _ in range(20):
            lat = random_domain_lattice(rng)
            alpha = rng.uniform(0.3, 4.0)
            z = PhasePoint(rng.uniform(0, 1), rng.uniform(0, 1))
            ez = lattice_gaussian_sum(lat, z, alpha)
            e0 = lattice_gaussian_sum(lat, PhasePoint(0, 0), alpha)
            assert ez.value > 0
            assert ez.value <= e0.value + ez.tail_bound + e0.tail_bound

    def test_nonpositive_alpha(self, sq):
        with pytest.raises(NonPositiveAlpha):
            lattice_gaussian_sum(sq, PhasePoint(0, 0), 0.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_nonfinite_inputs_raise(self, hexl, bad):
        with pytest.raises(NonPositiveAlpha):
            lattice_gaussian_sum(hexl, PhasePoint(0, 0), bad)
        with pytest.raises(NonPositiveT):
            heat_kernel_torus(hexl, PhasePoint(0, 0), bad)
        with pytest.raises(NonPositiveT):
            theta1d_hat(0.25, bad)
        with pytest.raises(ValueError):
            TruncationPolicy(target_tol=bad)
        # the tolerance is the policy's one setting
        with pytest.raises(TypeError):
            TruncationPolicy(max_radius=bad)

    def test_poisson_identity_direct_vs_frequency(self, rng):
        # the two summation routes are the planar Poisson identity
        for _ in range(25):
            lat = random_domain_lattice(rng)
            alpha = rng.uniform(0.25, 4.0)
            z = PhasePoint(rng.uniform(0, 1), rng.uniform(0, 1))
            d = lattice_gaussian_sum(lat, z, alpha, use_functional_equation=False)
            f = lattice_gaussian_sum(lat, z, alpha, use_functional_equation=True)
            assert abs(d.value - f.value) <= d.tail_bound + f.tail_bound + 1e-12


class TestShiftedCharged:
    def test_zero_shift_matches_plain_sum(self, rng):
        for _ in range(20):
            lat = random_domain_lattice(rng)
            alpha = rng.uniform(0.5, 3.0)
            a = theta_shifted(lat, PhasePoint(0.0, 0.0), alpha)
            b = lattice_gaussian_sum(lat, PhasePoint(0.0, 0.0), alpha)
            assert abs(a.value - b.value) <= a.tail_bound + b.tail_bound + 1e-14

    def test_hexagonal_shift_value(self, hexl):
        got = theta_shifted(hexl, PhasePoint(1 / 3, 1 / 3), 1.0)
        assert got.value == pytest.approx(0.920371, abs=5e-6)

    def test_two_route_consistency_randomized(self, rng):
        for _ in range(100):
            lat = random_domain_lattice(rng)
            alpha = rng.uniform(0.3, 4.0)
            b = PhasePoint(rng.uniform(0, 1), rng.uniform(0, 1))
            v1 = theta_shifted(lat, b, alpha)
            v2 = lattice_gaussian_sum(lat, b, alpha)
            assert abs(v1.value - v2.value) <= v1.tail_bound + v2.tail_bound + 1e-13

    def test_zero_charge_is_plain_sum(self, rng):
        for _ in range(20):
            lat = random_domain_lattice(rng)
            alpha = rng.uniform(0.5, 3.0)
            a = theta_charged(lat, PhasePoint(0.0, 0.0), alpha)
            b = lattice_gaussian_sum(lat, PhasePoint(0.0, 0.0), alpha)
            assert abs(a.value - b.value) <= a.tail_bound + b.tail_bound + 1e-14

    def test_square_charged_separability(self, sq):
        expected = theta1d_hat(0.5, 1.0).value ** 2
        got = theta_charged(sq, PhasePoint(0.5, 0.5), 1.0)
        assert abs(got.value - expected) < 1e-12

    def test_charge_bounded_by_zero_charge(self, rng):
        for _ in range(50):
            lat = random_domain_lattice(rng)
            alpha = rng.uniform(0.5, 4.0)
            b = PhasePoint(rng.uniform(0, 1), rng.uniform(0, 1))
            hat_b = theta_charged(lat, b, alpha)
            hat_0 = theta_charged(lat, PhasePoint(0, 0), alpha)
            assert abs(hat_b.value) <= hat_0.value + hat_b.tail_bound + hat_0.tail_bound

    def test_charged_equals_rotated_dual_phase_sum(self, rng):
        # skew-form phases match Euclidean phases on the dual lattice
        for _ in range(10):
            lat = random_domain_lattice(rng, y_max=1.8)
            alpha = rng.uniform(0.8, 2.0)
            b = PhasePoint(rng.uniform(0, 1), rng.uniform(0, 1))
            z = lat.gen @ np.array([b.u, b.v])
            dual_gen = np.linalg.inv(lat.gen).T
            ks = np.arange(-12, 13)
            kk, ll = np.meshgrid(ks, ks, indexing="ij")
            idx = np.column_stack([kk.ravel(), ll.ravel()])
            pts = idx @ dual_gen.T
            norms = np.einsum("ij,ij->i", pts, pts)
            dual_sum = float(
                np.sum(np.exp(-math.pi * alpha * norms) * np.cos(2 * math.pi * pts @ z))
            )
            got = theta_charged(lat, b, alpha).value
            assert abs(got - dual_sum) < 1e-10


def charged_series(lat, b, alpha):
    """``theta_charged`` summed as the charged series, whatever the side rule
    picks: the dual side of its node (1/alpha, 1/alpha) on
    lattice_from_tau(x, y)."""
    return _sum_at(_tau_plan(lat), b, ((1.0 / alpha, 1.0 / alpha),), DEFAULT_POLICY, True)


class TestFunctionalEquation:
    def test_square_fixed_point(self, sq):
        assert functional_equation_residual(sq, PhasePoint(0, 0), 1.0) < 1e-12

    def test_hexagonal_example(self, hexl):
        assert functional_equation_residual(hexl, PhasePoint(1 / 3, 1 / 3), 2.0) < 1e-10

    def test_randomized_suite(self, rng):
        worst = 0.0
        for _ in range(100):
            lat = random_domain_lattice(rng)
            b = PhasePoint(rng.uniform(0, 1), rng.uniform(0, 1))
            alpha = rng.uniform(0.2, 5.0)
            worst = max(worst, functional_equation_residual(lat, b, alpha))
        assert worst < 1e-9

    def test_residual_sums_both_series(self, rng):
        # the charged series at 1/alpha summed directly is alpha times the dual
        # cosine series of E at alpha, asked for tol / alpha
        for _ in range(10):
            lat = random_domain_lattice(rng)
            b = PhasePoint(rng.uniform(0, 1), rng.uniform(0, 1))
            alpha = rng.uniform(0.2, 5.0)
            charged = charged_series(lat, b, 1.0 / alpha)
            pol = TruncationPolicy(1e-12 / alpha)
            dual = lattice_gaussian_sum(lat, b, alpha, pol, use_functional_equation=True)
            assert charged.terms_used == dual.terms_used
            assert charged.value == pytest.approx(alpha * dual.value, rel=1e-13, abs=1e-15)

    def test_residual_below_combined_tails(self, rng):
        for _ in range(20):
            lat = random_domain_lattice(rng)
            b = PhasePoint(rng.uniform(0, 1), rng.uniform(0, 1))
            alpha = rng.uniform(0.3, 3.0)
            res = functional_equation_residual(lat, b, alpha)
            lhs = lattice_gaussian_sum(lat, b, alpha, use_functional_equation=False)
            rhs = charged_series(lat, b, 1.0 / alpha)
            assert res <= lhs.tail_bound + rhs.tail_bound / alpha + 1e-12


class TestCertifiedTails:
    def test_refinement_changes_less_than_tail(self, rng, hexl):
        loose = TruncationPolicy(target_tol=1e-6)
        tight = TruncationPolicy(target_tol=1e-8)
        cases = [
            lambda pol: theta1d(0.21, 0.8, pol),
            lambda pol: lattice_gaussian_sum(hexl, PhasePoint(0.2, 0.7), 0.6, pol),
            lambda pol: theta_shifted(hexl, PhasePoint(0.1, 0.4), 1.7, pol),
            lambda pol: theta_charged(hexl, PhasePoint(0.3, 0.9), 1.1, pol),
        ]
        for fn in cases:
            a = fn(loose)
            b = fn(tight)
            assert abs(a.value - b.value) <= a.tail_bound

    def test_rounding_counts_against_tol(self, hexl):
        """A tolerance below the rounding of the sum is not met, whatever the
        truncation tail."""
        cv = theta_shifted(hexl, PhasePoint(1 / 3, 1 / 3), 1.0, TruncationPolicy(1e-30))
        assert not cv.converged
        assert cv.tail_bound > 8 * np.finfo(float).eps * cv.value

    def test_tail_fields_sane(self, hexl):
        cv = lattice_gaussian_sum(hexl, PhasePoint(0.4, 0.1), 2.0)
        assert cv.tail_bound >= 0
        assert cv.terms_used >= 1
        assert cv.converged

    @pytest.mark.parametrize("alpha", [6e-309, 1e-308, 1e-250])
    @pytest.mark.parametrize("shape", [(0.5, Y_HEX), (0.1, 0.05)])
    def test_tiny_alpha_keeps_a_finite_tail(self, shape, alpha):
        """Where 1/alpha is finite but pi / alpha overflows, or the weights
        times the dual exponents do, the sum is its constant term 1/alpha (on
        covolume 1) with a finite rounding bound, and no overflow warning
        escapes (the suite turns it into an error)."""
        cv = lattice_gaussian_sum(lattice_from_tau(*shape), PhasePoint(0.2, 0.3), alpha)
        assert cv.value == pytest.approx(1.0 / alpha, rel=1e-15)
        assert 0.0 < cv.tail_bound <= 1e-14 * cv.value
        assert not cv.converged


def brute_mass_beyond(gen, center, nodes, radius):
    """sum_j w_j sum exp(-pi alpha_j |p + center|^2) over the points p = gen @ (k, l)
    with |p + center| > radius, added one by one out to the reach where every
    node's Gaussian has fallen by e^-60 more; what lies beyond is left out."""
    alpha_min = min(alpha for alpha, _ in nodes)
    reach = math.sqrt(radius * radius + 60.0 / (math.pi * alpha_min))
    inv = np.linalg.inv(gen)
    mid = -inv @ center
    span = reach * np.linalg.norm(inv, axis=1) + 1.0
    kk, ll = np.meshgrid(
        np.arange(math.floor(mid[0] - span[0]), math.ceil(mid[0] + span[0]) + 1),
        np.arange(math.floor(mid[1] - span[1]), math.ceil(mid[1] + span[1]) + 1),
        indexing="ij",
    )
    pts = np.column_stack([kk.ravel(), ll.ravel()]) @ gen.T + center
    q = np.einsum("ij,ij->i", pts, pts)
    q = q[q > radius * radius]
    return math.fsum(w * math.fsum(np.exp(-math.pi * alpha * q).tolist()) for alpha, w in nodes)


# skinny shapes up to y = 1e3, where the cell half-diameter exceeds the radius
TAIL_SHAPES = [(0.5, Y_HEX), (0.2, 2.5), (0.3, 50.0), (0.1, 1e3)]


class TestGaussianTail:
    @pytest.mark.parametrize("x, y", TAIL_SHAPES)
    def test_tail_bounds_the_discarded_mass(self, rng, x, y):
        """The mass beyond R is at most sum_j w_j T(alpha_j, R), at the solved
        radius and at the cap 1, on covolumes 1, 9 and 1/9, for single nodes with
        alpha in [1e-2, 1e2], the lattice-side Riesz nodes (alpha_j >= 1/covol)
        and the dual-side ones as the evaluator maps them; centres at random and
        within 1e-6 of a lattice point.  The solved radius is near-minimal: its
        tail is above tol / 2 unless it is 1."""
        riesz = CMPotential.riesz(3.0, tol=1e-9).nodes
        for covol in (1.0, 9.0, 1.0 / 9.0):
            gen = math.sqrt(covol) * lattice_from_tau(x, y).gen
            dual_gen = np.linalg.inv(gen).T
            alphas = [1e-2, 1e2, *np.exp(rng.uniform(math.log(1e-2), math.log(1e2), 2))]
            cases = [(gen, covol, ((float(alpha), 1.0),)) for alpha in alphas]
            cases.append((gen, covol, [n for n in riesz if n[0] >= 1.0 / covol]))
            far = [(1.0 / a, w / (a * covol)) for a, w in riesz if a < 1.0 / covol]
            cases.append((dual_gen, 1.0 / covol, far))
            for g, c, nodes in cases:
                h = _side(*g.ravel(), (x, y)).h
                tol = 10.0 ** rng.uniform(-14.0, -4.0)
                r, tail, ok = _select_radius(nodes, c, h, tol, 10_000)
                assert ok and tail <= tol
                assert r == 1.0 or tail > tol / 2.0
                for center in (g @ rng.random(2), rng.uniform(-7e-7, 7e-7, 2)):
                    for radius, bound in ((r, tail), (1.0, _gaussian_tail(nodes, c, h, 1.0)[0])):
                        assert brute_mass_beyond(g, center, nodes, radius) <= bound

    @pytest.mark.parametrize("x, y", TAIL_SHAPES)
    def test_box_radius_keeps_the_index_box_under_its_cap(self, x, y):
        """The index box at ``_box_radius``, widened by the pad, spans at most
        ceil(m + e) - floor(m - e) + 3 indices per axis (e = radius times a row
        length of inv(gen)); that many cells are at most ``_MAX_BOX_CELLS``, and
        1.01 times that radius would exceed them."""
        def cells(side, radius, mid=0.37):
            rows = (math.sqrt(side.g11) / side.covol, math.sqrt(side.g00) / side.covol)
            return math.prod(
                math.ceil(mid + radius * a) - math.floor(mid - radius * a) + 3 for a in rows
            )

        for covol in (1.0, 1.0 / 9.0):
            side = _plan(lattice_from_generator(math.sqrt(covol) * lattice_from_tau(x, y).gen)).near
            for pad in (0.0, side.h):
                r = _box_radius(side, pad)
                assert cells(side, r + pad) <= _MAX_BOX_CELLS < cells(side, 1.01 * (r + pad))

    def test_ball_cut_at_the_box_cap_is_not_converged(self, hexl):
        # alpha = 1e-300 never meets the tolerance: before the cap the ball
        # grew to the 10 000 radius, a box of 20 003^2 cells
        side = _plan(hexl).near
        _, _, inside, _, r, tail, ok = _ball(side, (0.0, 0.0), ((1e-300, 1.0),), 1e-12)
        assert r == pytest.approx(_box_radius(side, 0.0), rel=1e-12)
        assert not ok and tail > 1e-12
        assert inside.size <= _MAX_BOX_CELLS

    @pytest.mark.parametrize("x, y", [*TAIL_SHAPES, (0.45, 1e-2), (0.0, 0.3)])
    def test_nearest_sq_is_the_least_below_one(self, rng, x, y):
        """The nearest squared length, bit for bit, where it is below 1, and 1
        elsewhere: the box at the cell half-diameter holds a lattice point."""
        side = _plan(lattice_from_tau(x, y)).near
        for _ in range(20):
            mid = tuple(rng.uniform(-3.0, 3.0, 2) * 10.0 ** rng.uniform(-7.0, 0.0))
            box = _box(side, mid, side.h * (1.0 + 1e-12))[3]
            assert _nearest_sq(side, mid) == min(box.min(), 1.0)

    def test_tail_decreases_in_radius(self):
        gen = lattice_from_tau(0.1, 1e3).gen
        h = _side(*gen.ravel(), (0.1, 1e3)).h
        radii = np.linspace(0.05, 3.0 * h, 400)
        for alpha in (1e-2, 1.0, 1e2):
            tails = [_gaussian_tail(((alpha, 1.0),), 1.0, h, r)[0] for r in radii]
            positive = [t for t in tails if t > 0.0]
            assert all(a > b for a, b in zip(positive, positive[1:]))


def one_node(alpha):
    return ((alpha, 1.0),)


def charged_node(alpha):
    """theta_charged(b; alpha) = E(b; 1/alpha) / alpha on the tau lattice."""
    return ((1.0 / alpha, 1.0 / alpha),)


NODE_SETS = {"shifted": one_node, "charged": charged_node}
# lattice scales that put every node of the tests below on one side of
# lam = 1/covol: covolume 9 (lam = 1/9) the lattice side, 1/9 (lam = 9) the dual
SIDE_SCALES = {"lattice": 3.0, "dual": 1.0 / 3.0}


def scaled(lat, scale):
    return lattice_from_generator(scale * lat.gen)


# on (0.3, 1.1), covolume 1: one node on the lattice side, one on the dual
# side, one on each, and the Riesz s = 4 mixture's nodes on both
EVALUATOR_NODES = {
    "lattice": ((1.5, 1.0),),
    "dual": ((0.4, 1.0),),
    "two-sided": ((0.4, 1.0), (1.5, 0.5)),
    "riesz": CMPotential.riesz(4.0).nodes,
}


class TestBatchEvaluators:
    def test_shifted_matches_pointwise(self, rng):
        # on unit covolume 0.4 is on the dual side, 1 and 3 on the lattice
        # side; the 3-scaled lattice puts 0.4 on the lattice side too
        for alpha in (0.4, 1.0, 3.0):
            base = random_domain_lattice(rng)
            for lat in (base, scaled(base, 3.0)):
                ev = ShiftedSumEvaluator(lat, one_node(alpha))
                zs = rng.random((20, 2))
                batch = ev.value_offset + values_centered(ev, zs)
                for z, val in zip(zs, batch):
                    ref = lattice_gaussian_sum(lat, PhasePoint(z[0], z[1]), alpha)
                    assert abs(val - ref.value) <= ev.tail_bound + ref.tail_bound + 1e-11

    def test_charged_matches_pointwise(self, rng):
        # the nodes 2 and 1 are on the lattice side, 0.5 on the dual side
        for alpha in (0.5, 1.0, 2.0):
            lat = random_domain_lattice(rng)
            ev = ShiftedSumEvaluator(lat, charged_node(alpha))
            bs = rng.random((20, 2))
            batch = ev.value_offset + values_centered(ev, bs)
            for b, val in zip(bs, batch):
                ref = theta_charged(lat, PhasePoint(b[0], b[1]), alpha)
                assert abs(val - ref.value) <= ev.tail_bound + ref.tail_bound + 1e-11

    def test_certified_reduces_shifts_mod_one(self):
        """The cell-wide ball serves shifts in [0, 1]^2 only; summed unreduced,
        the shift (0, -v) below is 1.8e-12 off against a bound of 9.1e-13.
        The three shifts are exact translates of one point, v being dyadic."""
        lat = lattice_from_tau(0.0, 10.0)
        v = 91764 / 2**20
        values, bounds = ShiftedSumEvaluator(lat, one_node(1.0)).certified(
            np.array([[0.0, -v], [0.0, 1.0 - v], [3.0, 2.0 - v]])
        )
        assert values.tolist() == [values[1]] * 3 and bounds.tolist() == [bounds[1]] * 3
        ref = lattice_gaussian_sum(lat, PhasePoint(0.0, v), 1.0)
        assert abs(values[0] - ref.value) <= bounds[0] + ref.tail_bound

    @pytest.mark.parametrize("nodes", EVALUATOR_NODES.values(), ids=EVALUATOR_NODES)
    def test_certified_at_is_certified_at_one_point(self, rng, nodes):
        """Bit for bit, value and bound, on the lattice side, the dual side and
        mixtures: at 0, at 1 - 2^-53, at random shifts and within 1e-6 of a
        lattice point, so the one-point row cannot move a certificate."""
        lat = lattice_from_tau(0.3, 1.1)
        ev = ShiftedSumEvaluator(lat, nodes)
        edge = 1.0 - 2.0**-53
        near = rng.uniform(-1e-6, 1e-6, (4, 2)) + rng.integers(-2, 3, (4, 2))
        for u, v in [(0.0, 0.0), (edge, 0.0), (edge, edge), *rng.random((6, 2)), *near]:
            z = PhasePoint(u, v).canonical()
            one = ev.certified_at(PhasePoint(u, v))
            values, bounds = ev.certified(np.array([[z.u, z.v]]))
            assert (one.value, one.tail_bound) == (values[0], bounds[0])
            assert one.converged == (ev.converged and bounds[0] <= ev.tol)

    def test_certified_at_is_its_row_of_a_batch(self, rng, hexl):
        """A mixture's bound sums each term's rounding over the nodes, then over
        the terms, in an order that does not depend on the batch: each shift
        gets, bit for bit, what it gets as one row of a 23-row batch."""
        ev = ShiftedSumEvaluator(hexl, CMPotential.riesz(4.0).nodes)
        zs = rng.random((23, 2))
        values, bounds = ev.certified(zs)
        for z, value, bound in zip(zs, values, bounds):
            one = ev.certified_at(PhasePoint(*z))
            assert (one.value, one.tail_bound) == (value, bound)

    @pytest.mark.parametrize("shift", [(math.nan, 0.2), (0.2, math.inf), (-math.inf, 0.2)])
    @pytest.mark.parametrize("nodes", EVALUATOR_NODES.values(), ids=EVALUATOR_NODES)
    def test_nonfinite_shift_raises(self, nodes, shift):
        """A NaN or infinite shift raises one ValueError naming it, on either
        side, at one point and in a batch, in one block or in row blocks."""
        ev = ShiftedSumEvaluator(lattice_from_tau(0.3, 1.1), nodes)
        batch = np.array([[0.1, 0.2], shift, [0.3, 0.4]])
        with pytest.raises(ValueError, match="shift must be finite"):
            ev.certified_at(PhasePoint(*shift))
        for method in (ev.certified, ev.derivatives_centered):
            with pytest.raises(ValueError, match="shift must be finite"):
                method(batch)
            ev._rows = 1  # in row blocks too
            with pytest.raises(ValueError, match="shift must be finite"):
                method(batch)

    def test_row_blocks_match_one_block(self, rng, hexl):
        """A batch cut into row blocks gives, bit for bit, what it gives in one
        block, on both sides of the split."""
        ev = ShiftedSumEvaluator(hexl, ((0.3, 1.0), (2.0, 0.5)))
        zs = rng.random((23, 2))
        whole = (values_centered(ev, zs), *ev.derivatives_centered(zs), *ev.certified(zs))
        ev._rows = 4
        blocks = (values_centered(ev, zs), *ev.derivatives_centered(zs), *ev.certified(zs))
        for a, b in zip(whole, blocks):
            assert np.array_equal(a, b)

    def test_large_batch_stays_under_the_cell_cap(self):
        """On (0.5, 3e5) the cell-wide ball holds 82 708 terms from an index box
        inside the cap; the 2 176-point scan at grid 64, in one block, would
        build (points x terms) arrays of 1.8e8 cells, 1.44 GB each."""
        proc = run_under_memory_limit(
            "from latsum.lattice import lattice_from_tau\n"
            "from latsum.optimize import minimize_over_cell\n"
            "res = minimize_over_cell(lattice_from_tau(0.5, 3e5), 2.0, 64)\n"
            "print(res.value.terms_used, res.value.converged)\n",
            limit=2 << 30,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["82708", "True"]


def scan_axes(grid_n):
    """The axes of ``minimize_torus``'s half-cell scan grid."""
    us = np.arange(grid_n) / grid_n
    return us, us[us <= 0.5 + 1.5 / grid_n]


def assert_grid_matches_oracle(ev, us, vs):
    """``_grid_centered`` on us x vs against the pointwise ``values_centered``
    oracle: within 1e-12 of the oracle's value wherever that exceeds 1e-250,
    without warnings."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = ev._grid_centered(us, vs)
    uu, vv = np.meshgrid(us, vs, indexing="ij")
    oracle = values_centered(ev, np.column_stack([uu.ravel(), vv.ravel()])).reshape(grid.shape)
    value = oracle + ev.value_offset
    seen = value > 1e-250
    assert np.all(np.abs(grid - oracle)[seen] <= 1e-12 * value[seen])


SCAN_SHAPES = [(0.5, Y_HEX), (0.45, 0.9), (0.2, 1.3), (0.5, 2.5), (0.3, 50.0)]


class TestGridScan:
    """The torus scan's product-grid values against the pointwise oracle."""

    @pytest.mark.parametrize("alpha", [0.25, 1.0, 8.0, 32.0, 100.0, 300.0])
    @pytest.mark.parametrize("shape", SCAN_SHAPES)
    def test_matches_pointwise_oracle(self, shape, alpha):
        ev = ShiftedSumEvaluator(lattice_from_tau(*shape), one_node(alpha))
        assert_grid_matches_oracle(ev, *scan_axes(64))

    def test_matches_pointwise_oracle_on_a_long_cell(self):
        # 7632 terms, whose rows of the cell-wide ball lie far apart
        ev = ShiftedSumEvaluator(lattice_from_tau(0.0, 1e4), one_node(1.0))
        assert_grid_matches_oracle(ev, *scan_axes(64))

    @pytest.mark.parametrize("s", [3.0, 4.0, 6.0])
    @pytest.mark.parametrize("shape", [(0.5, Y_HEX), (0.2, 1.3)])
    def test_matches_pointwise_oracle_on_riesz_mixtures(self, shape, s):
        # nodes on both sides of lam = 1/covol, up to r_max = pi alpha_max ~ 730
        ev = ShiftedSumEvaluator(lattice_from_tau(*shape), CMPotential.riesz(s).nodes)
        for grid_n in (20, 64):
            assert_grid_matches_oracle(ev, *scan_axes(grid_n))

    def test_large_alpha_keeps_the_dropped_term_bound(self):
        """At alpha = 1000 most values underflow.  The scan stays finite and
        warning-free, never exceeds the oracle beyond rounding (a flushed
        factor drops its term rather than overstate it), and is within 1e-12
        of it wherever terms times the bound on a dropped term,
        e^(_EXP_FLOOR + 2 _TILE_CROSS), is below 1e-12 of the oracle's value."""
        for shape in SCAN_SHAPES:
            ev = ShiftedSumEvaluator(lattice_from_tau(*shape), one_node(1000.0))
            us, vs = scan_axes(64)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                grid = ev._grid_centered(us, vs)
            uu, vv = np.meshgrid(us, vs, indexing="ij")
            oracle = values_centered(ev, np.column_stack([uu.ravel(), vv.ravel()]))
            oracle = oracle.reshape(grid.shape)
            assert np.all(np.isfinite(grid)) and np.all(grid >= 0.0)
            assert np.all(grid <= oracle * (1.0 + 1e-12))
            dropped = ev.terms * math.exp(_EXP_FLOOR + 2.0 * _TILE_CROSS)
            seen = oracle > 1e12 * dropped
            assert seen.any()
            assert np.all(np.abs(grid - oracle)[seen] <= 1e-12 * oracle[seen])

    def test_blocks_and_tiles_under_a_small_cell_cap(self, monkeypatch):
        """With the cell cap at 40 the grid is cut into tiles of at most 40
        points, and terms and nodes into blocks of one or a few; the values
        hold against the oracle."""
        ev = ShiftedSumEvaluator(lattice_from_tau(0.2, 1.3), CMPotential.riesz(4.0).nodes)
        monkeypatch.setattr(theta, "_MAX_BOX_CELLS", 40)
        assert_grid_matches_oracle(ev, *scan_axes(16))

    def test_unit_cell_tie_takes_the_lattice_side(self):
        """The float covolume of tau = (0, 10^1.5) is 1 - eps, so alpha = 1 is
        a tie; on the lattice side the value 1.8e-10 at v = 1/2, far below the
        cosine series' size, keeps its relative precision."""
        lat = lattice_from_tau(0.0, 10.0**1.5)
        assert lat.covolume < 1.0 and not _dual_side(1.0, lat.covolume)
        ev = ShiftedSumEvaluator(lat, one_node(1.0))
        assert not ev._far
        assert_grid_matches_oracle(ev, np.array([0.0, 0.0]), np.array([0.0, 0.5]))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        st.floats(0.0, 0.5),
        st.floats(0.0, math.log10(50.0)),
        st.floats(-1.0, math.log10(400.0)),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
    )
    def test_any_axes_match_pointwise_oracle(self, x, log_y, log_alpha, us, vs):
        """Axes in any order, repeats included, on sheared and long shapes at
        alpha from 0.1 to 400; the large ones are cut into several tiles."""
        y = max(10.0**log_y, math.sqrt(1.0 - x * x))
        ev = ShiftedSumEvaluator(lattice_from_tau(x, y), one_node(10.0**log_alpha))
        assert_grid_matches_oracle(ev, np.array(us), np.array(vs))


@pytest.mark.parametrize("node_set", ["split pair", "riesz"])
def test_rounding_bound_covers_every_shift(rng, hexl, node_set):
    """The closed-form ``_rounding_bound`` the budget is split by holds the
    rounding ``certified`` adds at every shift, lattice points included, on
    both sides of lam = 1/covol."""
    riesz = CMPotential.riesz(3.0, tol=1e-9).nodes
    nodes = riesz if node_set == "riesz" else ((0.3, 1.0), (2.0, 0.5))
    for lat in (hexl, *(scaled(lattice_from_tau(0.2, 1.3), s) for s in SIDE_SCALES.values())):
        covol = lat.covolume
        near = _node_arrays([(a, w) for a, w in nodes if not _dual_side(a, covol)])
        far = _node_arrays([(1.0 / a, w / (a * covol)) for a, w in nodes if _dual_side(a, covol)])
        bound = _rounding_bound(_plan(lat), near, far)
        ev = ShiftedSumEvaluator(lat, nodes)
        zs = np.vstack([np.zeros((1, 2)), rng.random((200, 2))])
        _, bounds = ev.certified(zs)
        assert (bounds - ev.tail_bound).max() <= bound


@pytest.mark.parametrize("alpha", [100.0, 1000.0])
def test_large_alpha_certified_matches_pointwise(hexl, alpha):
    """Where most exponents of the cell-wide ball pass the clipping floor, the
    certified values still agree with the pointwise sums within both bounds."""
    rng = np.random.default_rng(5)
    for lat in (hexl, lattice_from_tau(0.2, 1.3)):
        ev = ShiftedSumEvaluator(lat, one_node(alpha))
        zs = rng.random((50, 2))
        values, bounds = ev.certified(zs)
        for z, val, bound in zip(zs, values, bounds):
            ref = lattice_gaussian_sum(lat, PhasePoint(z[0], z[1]), alpha)
            assert abs(val - ref.value) <= bound + ref.tail_bound


@pytest.mark.parametrize("alpha", [0.25, 1.0, 8.0])
@pytest.mark.parametrize("side", ["lattice", "dual"])
@pytest.mark.parametrize("node_set", ["shifted", "charged"])
def test_evaluator_derivatives_match_differences(rng, node_set, side, alpha):
    nodes = NODE_SETS[node_set](alpha)
    for _ in range(4):
        lat = scaled(random_domain_lattice(rng), SIDE_SCALES[side])
        ev = ShiftedSumEvaluator(lat, nodes)
        # the dual side keeps its constant term apart
        assert (ev.value_offset > 0.0) == (side == "dual")
        # inside the cell, where the lattice-side index set is built for
        assert_derivatives_match_differences(ev, rng.uniform(0.01, 0.99, (5, 2)))


@pytest.mark.parametrize("scale", [1.0, *SIDE_SCALES.values()])
@pytest.mark.parametrize("shape", [(0.5, Y_HEX), (0.2, 1.3), (0.3, 40.0)])
@pytest.mark.parametrize(
    "nodes",
    [one_node(0.25), one_node(1.0), one_node(8.0), CMPotential.riesz(4.0).nodes],
    ids=["alpha 0.25", "alpha 1", "alpha 8", "riesz 4"],
)
def test_evaluator_derivatives_match_oracle(rng, nodes, shape, scale):
    """The batched derivatives against the term-by-term oracle within 1e-13 of
    each one's term scale, on the hexagon, a sheared cell and a long one, at
    covolume 1 and scaled to either side of lam = 1/covol; in one block, row
    by row and in blocks of ``_rows`` = 3."""
    ev = ShiftedSumEvaluator(scaled(lattice_from_tau(*shape), scale), nodes)
    zs = rng.random((7, 2))
    assert_derivatives_match_oracle(ev, zs)
    for z in zs:
        assert_derivatives_match_oracle(ev, z[None])
    ev._rows = 3
    assert_derivatives_match_oracle(ev, zs)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.floats(0.0, 0.5),
    st.floats(0.0, math.log10(50.0)),
    st.floats(-1.0, math.log10(400.0)),
    st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=8),
)
def test_any_points_match_derivatives_oracle(x, log_y, log_alpha, points):
    """Any batch of points, on sheared and long shapes at alpha from 0.1 to
    400, on whichever side alpha falls."""
    y = max(10.0**log_y, math.sqrt(1.0 - x * x))
    ev = ShiftedSumEvaluator(lattice_from_tau(x, y), one_node(10.0**log_alpha))
    assert_derivatives_match_oracle(ev, np.array(points))


@pytest.mark.parametrize("alpha", [0.25, 1.0, 8.0])
def test_shifted_derivatives_agree_across_routes(rng, alpha):
    """The evaluator's derivatives of E agree with the direct series within
    the tails, on whichever side lam = 1/covol puts alpha: alpha = 0.25 on
    unit covolume and every alpha at covolume 1/9 reach the dual side, every
    alpha at covolume 9 the lattice side.  At tol 1e-14 the tails are below
    rounding, so each difference is allowed the tails plus 1e-13 of the
    largest value or derivative it is made of."""
    pol = TruncationPolicy(1e-14)
    for scale in (1.0, 1.0, 3.0, 1.0 / 3.0):
        lat = scaled(random_domain_lattice(rng), scale)
        ev = ShiftedSumEvaluator(lat, one_node(alpha), pol)
        zs = rng.random((6, 2))
        (vd, gd, hd), direct_tail = direct_series_derivatives(lat, alpha, zs, pol)
        vf, gf, hf = ev.derivatives_centered(zs)
        tails = direct_tail + ev.tail_bound
        (v0, _, _), _ = direct_series_derivatives(lat, alpha, np.zeros((1, 2)), pol)
        scale_value = float(v0[0])
        assert np.abs(vd - vf - ev.value_offset).max() <= tails + 1e-13 * scale_value
        for d, f in ((gd, gf), (hd, hf)):
            assert np.abs(d - f).max() <= tails + 1e-13 * max(np.abs(d).max(), scale_value)


@pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-12])
@pytest.mark.parametrize("alpha", [0.05, 0.2, 0.5, 0.9, 2.0, 5.0])
def test_converged_tail_meets_tolerance(hexl, alpha, tol):
    """converged => tail_bound <= target_tol, on every route, including
    the functional-equation reroutes that divide the inner tail by alpha."""
    pol = TruncationPolicy(tol)
    b = PhasePoint(0.3, 0.1)
    t = 1.0 / (4.0 * math.pi * alpha)
    results = [heat_kernel_torus(hexl, b, t, pol, route) for route in ("gaussian", "spectral")]
    for lat in (hexl, lattice_from_tau(0.2, 1.3)):
        results += [theta_shifted(lat, b, alpha, pol), theta_charged(lat, b, alpha, pol)]
        for dual in (None, True, False):
            results.append(lattice_gaussian_sum(lat, b, alpha, pol, dual))
            # the charged family's node, on each side
            nodes = ((1.0 / alpha, 1.0 / alpha),)
            results.append(_sum_at(_tau_plan(lat), b, nodes, pol, dual))
        # the evaluator on both sides of lam = 1/covol
        for scale in (1.0, *SIDE_SCALES.values()):
            results += [
                ShiftedSumEvaluator(scaled(lat, scale), make(alpha), pol)
                for make in NODE_SETS.values()
            ]
    for res in results:
        assert res.converged
        assert res.tail_bound <= tol


@pytest.mark.parametrize(
    "scale, alpha, shift, terms",
    [(3.0, 0.4, (0.3, 0.1), 9), (1.0 / 3.0, 3.0, (0.5, 0.5), 11)],
)
def test_default_route_is_the_shorter_series(scale, alpha, shift, terms):
    """On covolume 9 alpha = 0.4 < 1 is on the lattice side (alpha covol = 3.6),
    on covolume 1/9 alpha = 3 > 1 on the dual side (alpha covol = 1/3); the
    other series is an order of magnitude longer.  The evaluator splits by the
    same rule."""
    lat = scaled(lattice_from_tau(0.2, 1.3), scale)
    z = PhasePoint(*shift)
    default = lattice_gaussian_sum(lat, z, alpha)
    dual = lattice_gaussian_sum(lat, z, alpha, use_functional_equation=True)
    direct = lattice_gaussian_sum(lat, z, alpha, use_functional_equation=False)
    on_dual = dual.terms_used < direct.terms_used
    assert default.terms_used == min(dual.terms_used, direct.terms_used) == terms
    assert max(dual.terms_used, direct.terms_used) > 8 * terms
    assert default == (dual if on_dual else direct)
    assert (ShiftedSumEvaluator(lat, one_node(alpha)).value_offset > 0.0) == on_dual


@pytest.mark.parametrize("dual", [None, True, False])
@pytest.mark.parametrize("family", [theta_shifted, theta_charged])
def test_families_live_on_the_tau_lattice(rng, family, dual):
    """The families depend on the lattice only through its shape (x, y):
    on a rotated and scaled generator they equal their values on
    lattice_from_tau(x, y), at the lattice coordinates of the point, as
    summed and on each side of their node.  As summed, each also agrees
    within the two tails with an independent sum on the generator itself,
    whose covolume scale^2 rescales alpha: the shifted family is
    E(b; alpha / scale^2) there, the charged one E(b; 1/(alpha scale^2)) / alpha."""
    for scale in (0.5, 1.0, 3.0):
        base = random_domain_lattice(rng)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        lat = lattice_from_generator(scale * rot @ base.gen)
        tau = lattice_from_tau(lat.x, lat.y)
        alpha = rng.uniform(0.3, 4.0)
        b = PhasePoint(rng.uniform(0, 1), rng.uniform(0, 1))
        if dual is None:
            got = family(lat, b, alpha)
            assert got == family(tau, b, alpha)
            if family is theta_shifted:
                ref = lattice_gaussian_sum(lat, b, alpha / scale**2)
                want, want_tail = ref.value, ref.tail_bound
            else:
                ref = lattice_gaussian_sum(lat, b, 1.0 / (alpha * scale**2))
                want, want_tail = ref.value / alpha, ref.tail_bound / alpha
            assert abs(got.value - want) <= got.tail_bound + want_tail
            continue
        nodes = ((alpha, 1.0),) if family is theta_shifted else ((1.0 / alpha, 1.0 / alpha),)
        expected = _sum_at(_tau_plan(tau), b, nodes, DEFAULT_POLICY, dual)
        assert _sum_at(_tau_plan(lat), b, nodes, DEFAULT_POLICY, dual) == expected
