import math

import numpy as np
import pytest

from latsum.errors import NonPositiveAlpha
from latsum.lattice import PhasePoint, lattice_from_tau, special_point_a, special_point_b
from latsum.optimize import (
    _EIG_FLOOR,
    _N_STARTS,
    _newton_polish,
    _saddle_free_step,
    minimize_over_cell,
    minimize_torus,
    sweep_fundamental_domain,
)
from latsum.theta import (
    ShiftedSumEvaluator,
    TruncationPolicy,
    lattice_gaussian_sum,
    theta_charged,
    theta_shifted,
)

from conftest import (
    Y_HEX,
    eigh_saddle_free_step,
    in_fundamental_domain_plus,
    random_domain_lattice,
    theta1d,
)


class TestMinimize:
    def test_square_argmin_and_value(self, sq):
        res = minimize_over_cell(sq, 1.0, 64)
        # separability forces the cell center; value is the 1D square
        expected = theta1d(0.5, 1.0).value ** 2
        assert abs(res.argmin.u - 0.5) < 1e-7
        assert abs(res.argmin.v - 0.5) < 1e-7
        assert abs(res.value.value - expected) < 1e-11

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
    def test_hexagonal_argmin_is_circumcenter(self, hexl, alpha):
        res = minimize_over_cell(hexl, alpha, 64)
        assert abs(res.argmin.u - 1 / 3) < 1e-6
        assert abs(res.argmin.v - 1 / 3) < 1e-6

    def test_hexagonal_headline_minimum(self, hexl):
        res = minimize_over_cell(hexl, 1.0, 64)
        assert res.value.value == pytest.approx(0.920371, abs=5e-6)

    def test_grid_refinement_convergence(self, rng):
        lat = random_domain_lattice(rng)
        v1 = minimize_over_cell(lat, 1.0, 32).value.value
        v2 = minimize_over_cell(lat, 1.0, 64).value.value
        assert abs(v1 - v2) < 1e-8

    def test_minimizer_below_all_grid_probes(self, rng):
        lat = random_domain_lattice(rng)
        alpha = 1.4
        res = minimize_over_cell(lat, alpha, 24)
        ev = ShiftedSumEvaluator(lat, ((alpha, 1.0),))
        us = np.arange(24) / 24
        uu, vv = np.meshgrid(us, us, indexing="ij")
        grid_vals = ev.value_offset + ev.values_centered(np.column_stack([uu.ravel(), vv.ravel()]))
        assert res.value.value <= grid_vals.min() + 2 * (res.value.tail_bound + ev.tail_bound)

    def test_argmin_canonical(self, rng):
        for _ in range(12):
            lat = random_domain_lattice(rng)
            for alpha in (0.25, 2.0, 8.0):
                res = minimize_over_cell(lat, alpha, 16)
                assert 0 <= res.argmin.u < 1 and 0 <= res.argmin.v < 1

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0, 4.0, 8.0])
    def test_hexagonal_argmin_to_rounding(self, hexl, alpha):
        res = minimize_over_cell(hexl, alpha, 48)
        assert abs(res.argmin.u - 1 / 3) < 1e-9
        assert abs(res.argmin.v - 1 / 3) < 1e-9

    @pytest.mark.parametrize("alpha", [32.0, 40.0, 100.0])
    def test_deep_hexagonal_minimum_is_polished(self, hexl, alpha):
        """At large alpha the scan's largest value (at the origin) exceeds the
        minimum by about e^(2 pi alpha / (3 sqrt 3)) / 3, 1e52 at alpha = 100;
        the polish must still run each start to the deep hole (1/3, 1/3) or its
        mirror.  Grid 64 does not hold 1/3, so no start begins there."""
        res = minimize_over_cell(hexl, alpha, 64)
        u, v = res.argmin.u, res.argmin.v
        assert min(math.hypot(u - c, v - c) for c in (1 / 3, 2 / 3)) < 1e-9
        exact = lattice_gaussian_sum(hexl, PhasePoint(1 / 3, 1 / 3), alpha)
        assert abs(res.value.value - exact.value) <= res.value.tail_bound + exact.tail_bound

    @pytest.mark.parametrize("alpha", [0.25, 1.0, 8.0])
    @pytest.mark.parametrize("y", [1.27, 2.09, 2.5])
    def test_elongated_shapes_below_dense_scan(self, y, alpha):
        # x = 1/2 and large y: the Hessian is indefinite and nearly singular
        # across much of the cell
        lat = lattice_from_tau(0.5, y)
        res = minimize_over_cell(lat, alpha, 32)
        assert res.refinement_steps <= 30
        ev = ShiftedSumEvaluator(lat, ((alpha, 1.0),))
        us = np.arange(256) / 256
        uu, vv = np.meshgrid(us, us, indexing="ij")
        grid = np.column_stack([uu.ravel(), vv.ravel()])
        dense = ev.value_offset + min(
            float(ev.values_centered(chunk).min()) for chunk in np.array_split(grid, 64)
        )
        assert res.value.value <= dense + res.value.tail_bound + ev.tail_bound

    def test_half_cell_matches_full_cell(self, rng):
        """The scan covers v <= 1/2 + 1.5/grid_n only, since E is even; the
        full-cell minimum joins that scan of E and of E shifted by (0, 1/2)."""
        for alpha in (0.25, 1.0, 8.0):
            for _ in range(3):
                lat = random_domain_lattice(rng)
                res = minimize_over_cell(lat, alpha, 32)
                ev = ShiftedSumEvaluator(lat, ((alpha, 1.0),))
                halves = []
                for shift in (np.zeros(2), np.array([0.0, 0.5])):
                    point, _, _ = minimize_torus(
                        lambda zs: ev.values_centered((zs + shift) % 1.0),
                        32,
                        lambda zs: ev.derivatives_centered((zs + shift) % 1.0),
                    )
                    u, v = (point + shift) % 1.0
                    halves.append(lattice_gaussian_sum(lat, PhasePoint(u, v), alpha))
                best = min(halves, key=lambda cv: cv.value)
                tails = res.value.tail_bound + best.tail_bound
                assert abs(res.value.value - best.value) <= tails + 1e-15 * best.value

    def test_nonpositive_alpha(self, hexl):
        with pytest.raises(NonPositiveAlpha):
            minimize_over_cell(hexl, -1.0)


def _hessians(rng, kind, n):
    """n seeded symmetric 2x2 matrices of one kind, as (n, 2, 2)."""
    if kind == "a = c, b = 0":
        return rng.uniform(-5.0, 5.0, n)[:, None, None] * np.eye(2)
    if kind == "singular":
        # b^2 = a c exactly: small nonzero integers t, s give [[t^2, t s], [t s, s^2]]
        t, s = rng.integers(1, 10, (2, n)) * rng.choice([-1.0, 1.0], (2, n))
        return np.stack([t * t, t * s, t * s, s * s], axis=-1).reshape(n, 2, 2)
    big = rng.uniform(0.1, 10.0, n)
    small = {
        "definite": rng.uniform(0.1, 10.0, n),
        "indefinite": -rng.uniform(0.1, 10.0, n),
        "below the floor": 1e-14 * big * rng.choice([-1.0, 1.0], n),
    }[kind]
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    c, s = np.cos(phi), np.sin(phi)
    sign = rng.choice([-1.0, 1.0], n)
    a = sign * (big * c * c + small * s * s)
    b = sign * (big - small) * c * s
    d = sign * (big * s * s + small * c * c)
    return np.stack([a, b, b, d], axis=-1).reshape(n, 2, 2)


class TestNewtonPolish:
    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
    @pytest.mark.parametrize(
        "kind", ["definite", "indefinite", "a = c, b = 0", "singular", "below the floor"]
    )
    def test_closed_form_step_matches_eigh(self, kind, scale):
        rng = np.random.default_rng(20261018)
        h = scale * _hessians(rng, kind, 40)
        g = rng.normal(size=(40, 2))
        step, decrement = eigh_saddle_free_step(g, h, _EIG_FLOOR)
        for gi, hi, si, di in zip(g.tolist(), h.tolist(), step.tolist(), decrement.tolist()):
            s0, s1, dec = _saddle_free_step(*gi, hi[0][0], hi[0][1], hi[1][1])
            length = math.hypot(*si)
            assert math.hypot(s0 - si[0], s1 - si[1]) <= 1e-12 * length
            assert abs(math.hypot(s0, s1) - length) <= 1e-12 * length
            assert abs(dec - di) <= 1e-12 * di

    def test_call_structure(self):
        """``batch`` is called twice, for the scan and for the final pick;
        ``derivatives`` once per iteration at most, plus once for the starts,
        and never on more rows than there are starts."""
        for x, y, alpha in [(0.5, Y_HEX, 1.0), (0.2, 1.3, 0.25), (0.5, 2.5, 8.0), (0.0, 1.0, 4.0)]:
            ev = ShiftedSumEvaluator(lattice_from_tau(x, y), ((alpha, 1.0),))
            batch_rows, derivative_rows = [], []

            def batch(zs):
                batch_rows.append(len(zs))
                return ev.values_centered(zs)

            def derivatives(zs):
                derivative_rows.append(len(zs))
                return ev.derivatives_centered(zs)

            _, _, iterations = minimize_torus(batch, 32, derivatives)
            assert len(batch_rows) == 2 and batch_rows[1] == _N_STARTS < batch_rows[0]
            assert 1 <= len(derivative_rows) <= iterations + 1
            assert derivative_rows[0] == _N_STARTS
            assert max(derivative_rows) <= _N_STARTS

    def test_trial_points_wrap_into_unit_square(self):
        """A step to -1e-17 wraps to 0.0: the float -1e-17 % 1.0 is 1.0."""

        def derivatives(zs):
            # the torus offset from the minimum at (-1e-17, 0.3), without rounding it away
            d = np.where(zs > 0.5, zs - 1.0, zs) + [1e-17, -0.3]
            return 0.5 * (d * d).sum(axis=1), d, np.tile(np.eye(2), (len(zs), 1, 1))

        points, _ = _newton_polish(derivatives, np.array([[2.0**-60, 0.3]]), 0.5, 0.0)
        assert np.all((0.0 <= points) & (points < 1.0))


class TestMaxAtOrigin:
    @pytest.mark.parametrize(
        "shape, alpha",
        [((0.0, 1.0), 1.0), ((0.5, Y_HEX), 0.3), (None, 2.0)],
        ids=["square", "hexagonal_small_alpha", "random_lattice"],
    )
    def test_no_shift_above_origin(self, shape, alpha, rng):
        """E(z) <= E(0), the dual coefficients being positive: at 1000 seeded
        shifts no certified value exceeds the origin's by more than the two
        bounds."""
        lat = random_domain_lattice(rng) if shape is None else lattice_from_tau(*shape)
        ev = ShiftedSumEvaluator(lat, ((alpha, 1.0),))
        values, bounds = ev.certified(np.vstack([np.zeros((1, 2)), rng.random((1000, 2))]))
        assert np.all(values[1:] - values[0] <= bounds[1:] + bounds[0])


class TestSweep:
    def test_spec_grid_maximum_at_hexagon(self):
        xs = np.linspace(0.0, 0.5, 11)
        ys = np.linspace(Y_HEX, 2.0, 11)
        records = []
        for x in xs:
            inside = [y for y in ys if in_fundamental_domain_plus(complex(x, y))]
            records += sweep_fundamental_domain([1.0], [x], inside, grid_n=24)
        (x, y, _), best = max(records, key=lambda r: r[1].value.value)
        assert abs(x - 0.5) < 1e-12
        assert abs(y - Y_HEX) < 1e-12
        assert best.value.value == pytest.approx(0.920371, abs=5e-6)

    def test_square_below_hexagon(self, sq, hexl):
        v_sq = minimize_over_cell(sq, 1.0, 48).value.value
        v_hex = minimize_over_cell(hexl, 1.0, 48).value.value
        assert v_sq == pytest.approx(0.834627, abs=5e-6)
        assert v_sq < v_hex

    def test_row_ordering(self):
        # x, then y, then alpha, each sorted; the repeated x = 0.2 keeps its cells
        records = sweep_fundamental_domain([2.0, 1.0], [0.2, 0.0, 0.2], [1.2, 1.1], grid_n=16)
        keys = [key for key, _ in records]
        assert keys == [(x, y, a) for x in (0.0, 0.2, 0.2) for y in (1.1, 1.2) for a in (1.0, 2.0)]
        for (x, y, alpha), res in records:
            assert res == minimize_over_cell(lattice_from_tau(x, y), alpha, 16)

    def test_converged_follows_the_policy(self):
        # no rounding meets tol 1e-30
        capped = sweep_fundamental_domain(
            [1.0], [0.5], [Y_HEX], grid_n=16, pol=TruncationPolicy(1e-30)
        )
        assert [r.value.converged for _, r in capped] == [False]
        assert capped[0][1].value.tail_bound > 1e-30
        default = sweep_fundamental_domain([1.0], [0.5], [Y_HEX], grid_n=16)
        assert [r.value.converged for _, r in default] == [True]

    def test_dominance_with_montgomery_dual(self, rng, hexl):
        # smaller-scale version of the main sweep: the hexagon dominates
        # the minimum while being dominated at the origin
        for alpha in (0.5, 2.0):
            hex_min = minimize_over_cell(hexl, alpha, 48).value
            hex_origin = lattice_gaussian_sum(hexl, PhasePoint(0, 0), alpha)
            for _ in range(15):
                lat = random_domain_lattice(rng, min_dist_from_hex=0.05)
                mn = minimize_over_cell(lat, alpha, 32).value
                assert mn.value < hex_min.value - 1e-9
                e0 = lattice_gaussian_sum(lat, PhasePoint(0, 0), alpha)
                assert e0.value > hex_origin.value + e0.tail_bound + hex_origin.tail_bound


def shape_gradient(family, point, x, y, alpha, h=1e-5):
    """Central differences of family(lattice_from_tau(x, y), point(x, y), alpha)
    in the shape (x, y), the shift point moving with the lattice."""

    def f(xx, yy):
        return family(lattice_from_tau(xx, yy), point(xx, yy), alpha).value

    return (f(x + h, y) - f(x - h, y)) / (2 * h), (f(x, y + h) - f(x, y - h)) / (2 * h)


def x_derivatives(alpha, y, x):
    """d/dx of the shifted and charged families at the moving point b."""
    families = (theta_shifted, theta_charged)
    return tuple(shape_gradient(f, special_point_b, x, y, alpha)[0] for f in families)


class TestShapeDerivatives:
    def test_hexagon_critical_for_point_b(self):
        g = shape_gradient(theta_shifted, special_point_b, 0.5, Y_HEX, 1.0)
        assert math.hypot(*g) < 1e-6

    def test_hexagon_critical_for_point_a(self):
        g = shape_gradient(theta_shifted, special_point_a, 0.5, Y_HEX, 3.0)
        assert math.hypot(*g) < 1e-6

    def test_interior_x_derivative_positive(self):
        g = shape_gradient(theta_shifted, special_point_b, 0.3, 1.0, 1.0)
        assert g[0] > 0

    def test_sign_scan_interior(self):
        xs = [0.05, 0.15, 0.25, 0.35, 0.45]
        for d_shift, d_charge in (x_derivatives(1.0, 1.0, x) for x in xs):
            assert d_shift > 1e-12
            assert d_charge > 1e-12

    def test_sign_scan_low_y(self):
        xs = [0.1, 0.25, 0.4]
        for d_shift, d_charge in (x_derivatives(4.0, 0.75, x) for x in xs):
            assert d_shift > 1e-12
            assert d_charge > 1e-12

    def test_derivative_vanishes_at_critical_lines(self):
        interior = x_derivatives(1.0, 1.0, 0.25)
        near_zero = x_derivatives(1.0, 1.0, 1e-4)
        near_half = x_derivatives(1.0, 1.0, 0.5 - 1e-4)
        for d_near in (*near_zero, *near_half):
            assert abs(d_near) < 0.02 * max(interior)


def ridge_profile(family, alpha, ys):
    """The family along the boundary line x = 1/2, at the circumcenter."""
    return [family(lattice_from_tau(0.5, y), special_point_a(0.5, y), alpha).value for y in ys]


class TestRidgeProfiles:
    def test_shifted_profile_peaks_at_hexagon(self):
        ys = np.linspace(Y_HEX, 3.0, 60)
        prof = ridge_profile(theta_shifted, 2.0, ys)
        assert int(np.argmax(prof)) == 0

    def test_charged_profile_peaks_at_hexagon(self):
        ys = np.linspace(Y_HEX, 3.0, 60)
        prof = ridge_profile(theta_charged, 5.0, ys)
        assert int(np.argmax(prof)) == 0

    def test_families_coincide_at_unit_scale(self):
        ys = np.linspace(Y_HEX, 3.0, 25)
        f1 = ridge_profile(theta_shifted, 1.0, ys)
        g1 = ridge_profile(theta_charged, 1.0, ys)
        assert max(abs(a - b) for a, b in zip(f1, g1)) < 1e-10

    def test_small_alpha_via_functional_equation(self):
        # g at alpha < 1 equals (1/alpha) times f at 1/alpha
        ys = np.linspace(Y_HEX, 2.0, 10)
        g = ridge_profile(theta_charged, 0.5, ys)
        f = ridge_profile(theta_shifted, 2.0, ys)
        assert max(abs(gv - 2.0 * fv) for gv, fv in zip(g, f)) < 1e-10
