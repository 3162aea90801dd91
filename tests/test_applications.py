import itertools
import math

import numpy as np
import pytest

from latsum import applications as app
from latsum.errors import (
    ConstraintViolated,
    EmptyQuadrature,
    NotMultipleOfThree,
    PoleAtLatticePoint,
    UnsupportedDensity,
)
from latsum.lattice import PhasePoint, lattice_from_generator, lattice_from_tau
from latsum.optimize import minimize_over_cell
from latsum.theta import (
    ShiftedSumEvaluator,
    TruncationPolicy,
    _nearest_sq,
    _plan,
    lattice_gaussian_sum,
)

from conftest import (
    Y_HEX,
    assert_derivatives_match_differences,
    brute_force_zeta,
    per_node_cm_energy,
    random_domain_lattice,
    run_under_memory_limit,
)


class TestFrameBounds:
    def test_square_ratio_is_sqrt2(self):
        fb = app.gabor_frame_bounds(0.0, 1.0, 2)
        assert fb.ratio == pytest.approx(math.sqrt(2.0), abs=1e-9)

    def test_hexagonal_ratio_is_cbrt2(self):
        fb = app.gabor_frame_bounds(0.5, Y_HEX, 2)
        assert fb.ratio == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-6)
        assert fb.ratio == pytest.approx(1.2599, abs=1e-4)

    def test_upper_bound_is_zero_charge_value(self, rng):
        from latsum.theta import theta_charged

        for _ in range(5):
            lat = random_domain_lattice(rng, y_max=1.6)
            for density in (2, 4):
                fb = app.gabor_frame_bounds(lat.x, lat.y, density, grid_n=24)
                n = density // 2
                expected = density * theta_charged(lat, PhasePoint(0.0, 0.0), float(n)).value
                assert fb.upper_B == pytest.approx(expected, abs=1e-12)
                assert 0 < fb.lower_A <= fb.upper_B

    def test_consistency_with_shifted_route(self, rng):
        # charged extremes match the 1/alpha-scaled shifted extremes
        for _ in range(3):
            lat = random_domain_lattice(rng, y_max=1.6)
            fb = app.gabor_frame_bounds(lat.x, lat.y, 2)
            shifted_min = minimize_over_cell(lat, 1.0, 48).value.value
            assert fb.lower_A == pytest.approx(2.0 * shifted_min, abs=1e-9)

    def test_density_four_runs(self):
        fb = app.gabor_frame_bounds(0.5, Y_HEX, 4, grid_n=24)
        assert 1.0 <= fb.ratio

    def test_unsupported_density(self):
        for bad in (1, 3, 0, -2):
            with pytest.raises(UnsupportedDensity):
                app.gabor_frame_bounds(0.0, 1.0, bad)

    def test_sweep_minimized_by_hexagon(self):
        grid = [(x, y) for x in np.linspace(0.0, 0.5, 5) for y in np.linspace(Y_HEX, 1.4, 5)
                if x * x + y * y >= 1.0] + [(0.5, Y_HEX), (0.0, 1.0)]
        records = [app.gabor_frame_bounds(x, y, 2, grid_n=24) for x, y in grid]
        ratios = {(r.x, r.y): r.ratio for r in records}
        best = min(records, key=lambda r: r.ratio)
        assert (best.x, best.y) == (0.5, Y_HEX)
        assert all(r.ratio >= 1.0 for r in records)
        assert ratios[(0.5, Y_HEX)] < ratios[(0.0, 1.0)]


class TestHeatKernel:
    def test_two_route_agreement_randomized(self, rng, hexl):
        """Both forced routes agree within their tails, and the default call is
        the call forced to ``heat_route``'s pick, bit for bit, on both sides of
        t = covol / (4 pi), where the pick changes."""

        def check(lat, z, t):
            g = app.heat_kernel_torus(lat, z, t, route="gaussian")
            s = app.heat_kernel_torus(lat, z, t, route="spectral")
            assert abs(g.value - s.value) <= g.tail_bound + s.tail_bound + 1e-12
            route = app.heat_route(lat, t)
            assert app.heat_kernel_torus(lat, z, t) == {"gaussian": g, "spectral": s}[route]
            return route

        for _ in range(100):
            lat = random_domain_lattice(rng)
            z = PhasePoint(rng.uniform(0, 1), rng.uniform(0, 1))
            check(lat, z, rng.uniform(0.02, 2.0))
        t_switch = hexl.covolume / (4.0 * math.pi)
        routes = [check(hexl, PhasePoint(0.3, 0.1), t_switch * f) for f in (0.999, 1.001)]
        assert routes == ["gaussian", "spectral"]

    def test_huge_t_is_cut_to_a_bounded_ball(self):
        # on the Gaussian route at t = 1e300 the tail never falls, so the ball
        # grows to its cap; the radius cap alone (10 000) allowed an index box
        # of 20 003^2 cells
        proc = run_under_memory_limit(
            "from latsum.applications import heat_kernel_torus\n"
            "from latsum.lattice import PhasePoint, hexagonal_lattice\n"
            "cv = heat_kernel_torus(hexagonal_lattice(), PhasePoint(0.0, 0.0), 1e300,\n"
            "                       route='gaussian')\n"
            "print(cv.converged, cv.tail_bound)\n"
        )
        assert proc.returncode == 0, proc.stderr
        converged, tail = proc.stdout.split()
        assert converged == "False"
        assert float(tail) > 1e-12

    def test_equilibration(self, hexl):
        # both forced routes: the Gaussian one sums thousands of translates
        # at alpha = 1/(200 pi), the spectral one a single term
        z = PhasePoint(0.4, 0.1)
        for route in ("gaussian", "spectral"):
            assert abs(app.heat_kernel_torus(hexl, z, 50.0, route=route).value - 1.0) < 1e-12
        a_t, b_t = app.temperature_extremes(hexl, 5.0, grid_n=16)
        assert abs(b_t.value - a_t.value.value) < 1e-8
        assert a_t.value.value == pytest.approx(1.0, abs=1e-6)

    def test_unit_cell_mass(self, rng):
        # the zero mode carries all the mass: the cell average is 1
        lat = random_domain_lattice(rng)
        t = 0.07
        alpha = 1.0 / (4.0 * math.pi * t)
        ev = ShiftedSumEvaluator(lat, ((alpha, 1.0),))
        n = 64
        us = np.arange(n) / n
        uu, vv = np.meshgrid(us, us, indexing="ij")
        zs = np.column_stack([uu.ravel(), vv.ravel()])
        mean = ev.value_offset + ev.values_centered(zs).mean()
        assert mean / (4.0 * math.pi * t) == pytest.approx(1.0, abs=1e-9)

    def test_hexagonal_beats_square_at_unit_scale(self, hexl, sq):
        t = 1.0 / (4.0 * math.pi)
        a_hex, b_hex = app.temperature_extremes(hexl, t)
        a_sq, b_sq = app.temperature_extremes(sq, t)
        assert a_hex.value.value == pytest.approx(0.920371, abs=5e-6)
        assert a_sq.value.value == pytest.approx(0.834627, abs=5e-6)
        assert a_hex.value.value > a_sq.value.value
        assert b_hex.value < b_sq.value
        # the minimum of the hexagonal torus sits at the deep hole
        assert a_hex.argmin.u == pytest.approx(1.0 / 3.0, abs=1e-6)
        assert a_hex.argmin.v == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_extremal_on_small_grid(self, hexl):
        shapes = [(0.0, 1.0), (0.25, 1.1), (0.5, 1.2), (0.5, Y_HEX)]
        for t in (0.05, 0.2):
            rows = [app.temperature_extremes(lattice_from_tau(x, y), t, grid_n=24)
                    for x, y in shapes]
            a_vals = [r[0].value.value for r in rows]
            b_vals = [r[1].value for r in rows]
            assert int(np.argmax(a_vals)) == 3
            assert int(np.argmin(b_vals)) == 3


class TestCMPotential:
    def test_evaluator_derivatives_match_differences(self, rng):
        # nodes on both sides: at covolume 1, alpha = 0.05 and 0.25 on the dual
        # side, 1 and 8 on the lattice side; at covolume 9, lam = 1/9 falls
        # between 0.05 and 0.25
        p = app.CMPotential(((0.05, 0.2), (0.25, 0.3), (1.0, 0.5), (8.0, 2.0)))
        lattices = [random_domain_lattice(rng) for _ in range(6)]
        lattices += [lattice_from_generator(3.0 * random_domain_lattice(rng).gen) for _ in range(2)]
        for lat in lattices:
            ev = ShiftedSumEvaluator(lat, p.nodes)
            assert_derivatives_match_differences(ev, rng.uniform(0.01, 0.99, (5, 2)))

    def test_single_node_is_plain_sum(self, hexl, rng):
        p = app.CMPotential.gaussian(1.0)
        z = PhasePoint(rng.uniform(0, 1), rng.uniform(0, 1))
        got = app.cm_lattice_energy(p, hexl, z)
        ref = lattice_gaussian_sum(hexl, z, 1.0)
        assert abs(got.value - ref.value) < 1e-12

    def test_two_node_linearity(self, hexl):
        p = app.CMPotential(((1.0, 0.5), (2.0, 0.5)))
        z = PhasePoint(0.2, 0.6)
        got = app.cm_lattice_energy(p, hexl, z)
        ref = 0.5 * lattice_gaussian_sum(hexl, z, 1.0).value + 0.5 * lattice_gaussian_sum(
            hexl, z, 2.0
        ).value
        assert abs(got.value - ref) < 1e-12

    def test_monotone_in_measure(self, hexl, rng):
        base = app.CMPotential(((1.0, 0.7),))
        more = app.CMPotential(((1.0, 0.7), (3.0, 0.4)))
        for _ in range(10):
            z = PhasePoint(rng.uniform(0, 1), rng.uniform(0, 1))
            assert (
                app.cm_lattice_energy(more, hexl, z).value
                > app.cm_lattice_energy(base, hexl, z).value
            )

    def test_empty_quadrature(self, hexl):
        with pytest.raises(EmptyQuadrature):
            app.cm_lattice_energy(app.CMPotential(()), hexl, PhasePoint(0.1, 0.1))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            app.CMPotential(((1.0, -0.1),))

    @pytest.mark.parametrize(
        "node", [(math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0, math.nan)]
    )
    def test_nonfinite_node_rejected(self, node):
        with pytest.raises(ValueError):
            app.CMPotential((node,))

    def test_riesz_kernel_accuracy(self):
        p = app.CMPotential.riesz(3.0, tol=1e-10)
        rho = np.logspace(math.log10(0.05), 6.0, 300)
        kernel = sum(w * np.exp(-math.pi * alpha * rho) for alpha, w in p.nodes)
        rel = np.abs(kernel * rho**1.5 - 1.0)
        assert float(rel.max()) < 1e-9

    def test_riesz_vs_direct_sum_oracle(self, hexl):
        # inverse-cube distance sum at the circumcenter
        p = app.CMPotential.riesz(3.0)
        z = PhasePoint(1 / 3, 1 / 3)
        quad = app.cm_lattice_energy(p, hexl, z).value
        direct = app.epstein_zeta_shifted(hexl, z, 1.5, method="direct").value
        assert abs(quad - direct) < 1e-6


def shift_near_origin(rng, lattice, rho):
    """A shift at squared distance rho from the origin with both lattice
    coordinates positive, so that the reference's Cartesian offsets do not
    cancel."""
    while True:
        theta = rng.uniform(0.0, 2.0 * math.pi)
        offset = math.sqrt(rho) * np.array([math.cos(theta), math.sin(theta)])
        u, v = np.linalg.solve(lattice.gen, offset)
        if u > 0.0 and v > 0.0:
            return PhasePoint(u, v)


class TestMixtureSplit:
    """The mixture split at lam = 1/covol against the per-node loop it replaced."""

    def assert_matches_reference(self, p, lat, z, pol=TruncationPolicy(1e-9)):
        split = app.cm_lattice_energy(p, lat, z, pol)
        value, tail, rounding = per_node_cm_energy(p, lat, z, pol)
        assert abs(split.value - value) <= split.tail_bound + tail + rounding

    @pytest.mark.parametrize("s", [1.5, 2.0, 3.0])
    def test_riesz_on_domain_shapes(self, s, rng):
        for _ in range(3):
            lat = random_domain_lattice(rng)
            shifts = [PhasePoint(*rng.uniform(0.0, 1.0, 2))]
            shifts += [shift_near_origin(rng, lat, rho) for rho in (1e-2, 1e-4)]
            for z in shifts:
                rho = _nearest_sq(_plan(lat).near, (-z.u, -z.v))
                p = app.CMPotential.riesz(2.0 * s, tol=1e-9, rho_min=min(0.05, rho))
                self.assert_matches_reference(p, lat, z)

    @pytest.mark.parametrize("scale", [3.0, 0.5, 4.0])
    def test_non_unit_covolume(self, scale, rng):
        for s in (1.5, 3.0):
            p = app.CMPotential.riesz(2.0 * s, tol=1e-9)
            for _ in range(2):
                lat = lattice_from_generator(scale * random_domain_lattice(rng).gen)
                self.assert_matches_reference(p, lat, PhasePoint(*rng.uniform(0.15, 0.85, 2)))

    def test_node_sets_straddling_lambda(self, rng):
        for scale in (1.0, 3.0, 0.5):
            lat = lattice_from_generator(scale * random_domain_lattice(rng).gen)
            lam = 1.0 / lat.covolume
            alphas = lam * np.array([1e-3, 0.3, 0.9, 1.0, 1.1, 4.0, 50.0])
            weights = rng.uniform(0.1, 2.0, len(alphas))
            p = app.CMPotential(tuple((float(a), float(w)) for a, w in zip(alphas, weights)))
            for _ in range(3):
                self.assert_matches_reference(p, lat, PhasePoint(*rng.uniform(0.0, 1.0, 2)))

    def test_one_side_only(self, hexl):
        # every node on one side: the other side is empty
        z = PhasePoint(0.3, 0.2)
        for nodes in (((2.0, 1.0), (5.0, 0.5)), ((0.2, 1.0), (0.5, 0.5))):
            p = app.CMPotential(nodes)
            self.assert_matches_reference(p, hexl, z)


class TestEpsteinZeta:
    def test_square_corner_two_routes(self, sq):
        z = PhasePoint(0.5, 0.5)
        d = app.epstein_zeta_shifted(sq, z, 2.0, method="direct")
        q = app.epstein_zeta_shifted(sq, z, 2.0, method="quadrature")
        assert abs(d.value - q.value) < 1e-8

    def test_scaling_homogeneity(self, rng):
        lat = random_domain_lattice(rng)
        z = PhasePoint(0.37, 0.21)
        scale = 1.7
        big = lattice_from_generator(scale * lat.gen)
        for s in (1.5, 2.5):
            v1 = app.epstein_zeta_shifted(lat, z, s, method="direct", radius_cap=400).value
            v2 = app.epstein_zeta_shifted(big, z, s, method="direct", radius_cap=400 * scale).value
            assert v2 == pytest.approx(scale ** (-2 * s) * v1, rel=1e-8)

    def test_pole_detection(self, sq):
        with pytest.raises(PoleAtLatticePoint):
            app.epstein_zeta_shifted(sq, PhasePoint(0.0, 0.0), 2.0)
        with pytest.raises(PoleAtLatticePoint):
            app.epstein_zeta_shifted(sq, PhasePoint(1.0, 1.0), 2.0)

    def test_convergence_precondition(self, sq):
        with pytest.raises(ValueError):
            app.epstein_zeta_shifted(sq, PhasePoint(0.5, 0.5), 1.0)
        for cap in (0.5, math.nan):
            with pytest.raises(ValueError):
                app.epstein_zeta_shifted(sq, PhasePoint(0.5, 0.5), 2.0, radius_cap=cap)

    @pytest.mark.parametrize("s", [1.1, 1.5, 2.0, 2.5, 3.0, 5.0, 7.0, 10.0, 10.5, 20.0, 40.0])
    def test_upper_gamma_matches_mpmath(self, s):
        # a = 1 - s reaches the poles -1, -2, -4, -6, -9, -19 and -39 of the
        # integral's series, and -9.5; x < 2 on the dual side is what elongated shapes
        # (y = 10: x >= pi / 10) reach; x = max(2, a + 1) is the split
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        for a in (s, 1.0 - s):
            xs = np.append(np.geomspace(1e-4, 80.0, 240), max(2.0, a + 1.0))
            got = app._upper_gamma(a, xs)
            for x, g in zip(xs, got):
                ref = mpmath.gammainc(mpmath.mpf(a), mpmath.mpf(float(x)))
                assert abs((mpmath.mpf(float(g)) - ref) / ref) <= app._UPPER_GAMMA_REL
        # a capped ball can hold no lattice point: Gamma(s, x) of no x
        far = app.epstein_zeta_shifted(lattice_from_tau(0.0, 1e4), PhasePoint(0.5, 0.5), s,
                                       radius_cap=1.0)
        assert math.isfinite(far.value) and not far.converged

    def test_radius_cap_of_one_keeps_the_nearest_terms(self, sq):
        cv = app.epstein_zeta_shifted(
            sq, PhasePoint(0.5, 0.5), 2.0, TruncationPolicy(1e-8), radius_cap=1.0
        )
        assert not cv.converged
        # the radius-1 balls: the four nearest lattice points and the four
        # shortest nonzero dual vectors
        assert cv.terms_used == 4 + 4
        assert cv.tail_bound > 1e-8

    @pytest.mark.parametrize("a", [1.5, -0.5, -2.0, 3.0, -9.5, 10.5])
    def test_upper_gamma_batch_matches_single(self, a):
        # one depth serves a batch, set at its smallest x: the fraction's
        # truncation error falls as x grows, so every larger element gets at
        # least the levels it would get alone
        rng = np.random.default_rng(0)
        split = max(2.0, a + 1.0)
        for xs in (rng.uniform(2.5, 30.0, 10_000), np.append(split, rng.uniform(split, 80.0, 999))):
            got = app._upper_gamma(a, xs)
            for x, g in zip(xs[::25], got[::25]):
                alone = app._upper_gamma(a, np.array([x]))[0]
                assert abs(g - alone) <= app._UPPER_GAMMA_REL * abs(alone)
            mpmath = pytest.importorskip("mpmath")
            mpmath.mp.dps = 40
            for x, g in zip(xs[::100], got[::100]):
                ref = mpmath.gammainc(mpmath.mpf(a), mpmath.mpf(float(x)))
                assert abs((mpmath.mpf(float(g)) - ref) / ref) <= app._UPPER_GAMMA_REL
        assert app._upper_gamma(a, np.array([])).shape == (0,)

    @pytest.mark.parametrize("s", [1.1, 1.5, 2.0, 3.0])
    def test_ewald_matches_brute_force_oracle(self, s, rng):
        shapes = [random_domain_lattice(rng, y_max=4.0) for _ in range(3)]
        shapes.append(lattice_from_tau(0.1, 10.0))
        for lat in shapes:
            shifts = [PhasePoint(*rng.uniform(0.0, 1.0, 2))]
            # Cartesian offsets at squared distance 1e-2, 1e-4 and 1e-6 from a lattice point
            for d in (1e-1, 1e-2, 1e-3):
                theta = rng.uniform(0.0, 2.0 * math.pi)
                u, v = np.linalg.solve(lat.gen, d * np.array([math.cos(theta), math.sin(theta)]))
                shifts.append(PhasePoint(u % 1.0, v % 1.0))
            for z in shifts:
                ewald = app.epstein_zeta_shifted(lat, z, s)
                value, bound = brute_force_zeta(lat, z, s, 40.0)
                assert abs(ewald.value - value) <= ewald.tail_bound + bound
                # truncation at tol 1e-12; the rest is the rounding of the value
                assert ewald.tail_bound <= 1e-12 + 1e-13 * ewald.value

    @pytest.mark.parametrize("s, cap", [(3.0, 1.0), (5.0, 1.0), (5.0, 1.5), (2.0, 2.0)])
    def test_capped_ball_keeps_an_honest_tail(self, s, cap, rng):
        # a cap below X = 2(s - 1) switches the lattice side to the power-law tail
        lat = random_domain_lattice(rng)
        z = PhasePoint(0.37, 0.21)
        capped = app.epstein_zeta_shifted(lat, z, s, radius_cap=cap)
        value, bound = brute_force_zeta(lat, z, s, 40.0)
        assert abs(capped.value - value) <= capped.tail_bound + bound
        assert not capped.converged

    @pytest.mark.parametrize("s", [1.5, 2.0, 3.0])
    def test_periodic_and_even_in_the_shift(self, s, rng):
        for _ in range(4):
            lat = random_domain_lattice(rng)
            u, v = rng.uniform(0.05, 0.95, 2)
            base = app.epstein_zeta_shifted(lat, PhasePoint(u, v), s)
            for zz in (PhasePoint(u + 1.0, v), PhasePoint(u, v + 1.0), PhasePoint(-u, -v)):
                other = app.epstein_zeta_shifted(lat, zz, s)
                assert abs(other.value - base.value) <= base.tail_bound + other.tail_bound

    def test_hexagon_meets_tight_tolerance(self, hexl):
        cv = app.epstein_zeta_shifted(hexl, PhasePoint(1 / 3, 1 / 3), 1.5, TruncationPolicy(1e-12))
        assert cv.converged and cv.tail_bound <= 1e-12
        assert cv.terms_used < 200

    def test_quadrature_near_a_lattice_point(self):
        # the Riesz mixture must resolve the squared distance 0.0036 from z to
        # the origin; built for 0.05, it returned 9.97e6 here
        lat = lattice_from_tau(0.2, 1.3)
        z = PhasePoint(0.05, 0.03)
        quad = app.epstein_zeta_shifted(lat, z, 3.0, method="quadrature")
        ewald = app.epstein_zeta_shifted(lat, z, 3.0)
        assert ewald.value == pytest.approx(2.1753e7, rel=1e-4)
        assert abs(quad.value - ewald.value) <= 1e-9 * ewald.value

    def test_hexagon_maximizes_minimum_small_grid(self):
        shapes = [(0.5, Y_HEX), (0.0, 1.0), (0.3, 1.05), (0.5, 1.3), (0.15, 1.6)]
        for s in (1.5, 2.0, 3.0):
            minima = app.epstein_min_sweep(shapes, s, grid_n=20)
            assert [shape for shape, _ in minima] == shapes
            best, _ = max(minima, key=lambda m: m[1].value.value)
            assert best == (0.5, Y_HEX)

    def test_hexagonal_minimizer_is_circumcenter(self, hexl):
        p = app.CMPotential.riesz(4.0)
        argmin, _ = app.minimize_cm_energy(p, hexl, grid_n=24)
        assert abs(argmin.u - 1 / 3) < 1e-5
        assert abs(argmin.v - 1 / 3) < 1e-5


def brute_born_energy(lattice, eps, alpha, radius=8):
    """Direct double-sum oracle for the periodic charge energy."""
    n = eps.period_N
    total = 0.0
    for y1, y2 in itertools.product(range(n), repeat=2):
        wy = eps.weights[y1, y2]
        ry = lattice.gen @ np.array([y1, y2])
        for m1 in range(-radius, radius + 1):
            for m2 in range(-radius, radius + 1):
                wx = eps.weights[m1 % n, m2 % n]
                rx = lattice.gen @ np.array([m1, m2])
                d2 = float(np.sum((rx - ry) ** 2))
                total += wx * wy * math.exp(-math.pi * alpha * d2)
    return total / n**2


class TestBorn:
    def test_constraint_validation(self):
        with pytest.raises(ConstraintViolated):
            app.ChargeDistribution(2, np.ones((2, 2))).validate()
        with pytest.raises(ConstraintViolated):
            app.ChargeDistribution(2, np.array([[0.5, -0.5], [0.5, -0.5]])).validate()

    def test_born_energy_requires_valid_charges(self, sq):
        p = app.CMPotential.gaussian(1.0)
        with pytest.raises(ConstraintViolated):
            app.born_energy(sq, app.ChargeDistribution(2, np.ones((2, 2))), p)

    def test_square_alternating_against_double_sum_oracle(self, sq):
        eps = app.ChargeDistribution(2, np.array([[1.0, -1.0], [-1.0, 1.0]]))
        eps.validate()
        p = app.CMPotential.gaussian(1.0)
        got = app.born_energy(sq, eps, p)
        oracle = brute_born_energy(sq, eps, 1.0)
        assert abs(got - oracle) < 1e-9
        # the interaction part (self-term removed) is negative
        assert got - p.at_zero() < 0

    def test_epsilon_opt_invariants(self):
        eps = app.epsilon_opt_hexagonal(3)
        assert float(np.sum(eps.weights)) == pytest.approx(0.0, abs=1e-12)
        assert float(np.sum(eps.weights**2)) == pytest.approx(9.0, abs=1e-12)
        assert int(np.sum(eps.weights > 0)) == 3
        assert int(np.sum(eps.weights < 0)) == 6
        eps6 = app.epsilon_opt_hexagonal(6)
        assert float(np.sum(eps6.weights**2)) == pytest.approx(36.0, abs=1e-12)

    def test_epsilon_opt_period_validation(self):
        for bad in (2, 4, 0, -3):
            with pytest.raises(NotMultipleOfThree):
                app.epsilon_opt_hexagonal(bad)

    def test_hexagonal_normalization_constant(self, hexl):
        # the canonical generator scale equals 2^(1/2) 3^(-1/4)
        c = 2.0**0.5 * 3.0**-0.25
        assert hexl.gen[0, 0] == pytest.approx(c, abs=1e-14)

    def test_global_sign_flip_invariance(self, hexl):
        p = app.CMPotential.gaussian(1.0)
        eps = app.epsilon_opt_hexagonal(3)
        flipped = app.ChargeDistribution(3, -eps.weights)
        assert app.born_energy(hexl, eps, p) == pytest.approx(
            app.born_energy(hexl, flipped, p), abs=1e-13
        )

    def test_translation_invariance(self, hexl):
        p = app.CMPotential.gaussian(1.0)
        eps = app.epsilon_opt_hexagonal(3)
        rolled = app.ChargeDistribution(3, np.roll(eps.weights, (1, 2), axis=(0, 1)))
        assert app.born_energy(hexl, eps, p) == pytest.approx(
            app.born_energy(hexl, rolled, p), abs=1e-13
        )

    def test_honeycomb_beats_competitors(self, hexl, rng):
        p = app.CMPotential.gaussian(1.0)
        table, converged = app.born_interaction_table(hexl, 3, p)
        assert converged
        eps = app.epsilon_opt_hexagonal(3)
        e_opt = app.born_energy_from_table(table, eps)

        def two_level(pattern):
            n_pos = int(pattern.sum())
            n_neg = 9 - n_pos
            w = np.where(pattern, n_neg, -n_pos) / math.sqrt(n_pos * n_neg)
            return app.ChargeDistribution(3, w * 1.0)

        m1, m2 = np.meshgrid(np.arange(3), np.arange(3), indexing="ij")
        masks = [(m2 - m1) % 3 == c for c in range(3)]
        beaten = 0
        for bits in itertools.product((0, 1), repeat=9):
            pattern = np.array(bits, dtype=bool).reshape(3, 3)
            if pattern.all() or not pattern.any():
                continue
            eps_c = two_level(pattern)
            eps_c.validate()
            e_c = app.born_energy_from_table(table, eps_c)
            # honeycomb translates and their global sign flips tie exactly
            is_equivalent = any(
                np.array_equal(pattern, m) or np.array_equal(pattern, ~m) for m in masks
            )
            if is_equivalent:
                assert e_c == pytest.approx(e_opt, abs=1e-12)
            else:
                assert e_c > e_opt + 1e-9
                beaten += 1
        assert beaten == 504
        for _ in range(200):
            w = rng.normal(size=(3, 3))
            w -= w.mean()
            norm = math.sqrt(float(np.sum(w * w)))
            if norm < 1e-9:
                continue
            w *= 3.0 / norm
            eps_c = app.ChargeDistribution(3, w)
            eps_c.validate()
            assert app.born_energy_from_table(table, eps_c) >= e_opt - 1e-12


class TestLandau:
    def test_gamma_quotient(self):
        lc = app.landau_constants()
        assert lc.l_hex == pytest.approx(0.543259, abs=1e-6)

    def test_product_identity(self):
        lc = app.landau_constants()
        assert abs(lc.product - 0.5) < 1e-6

    def test_square_constant(self):
        lc = app.landau_constants()
        assert lc.l_square == pytest.approx(1.0 / (2.0 * 0.834627), abs=1e-5)
        assert lc.l_square == pytest.approx(0.59907, abs=1e-4)
        assert lc.l_square >= lc.l_hex

    def test_gamma_identities(self):
        # reflection and duplication checks on the gamma evaluations used
        for z in (1.0 / 3.0, 1.0 / 6.0, 5.0 / 6.0):
            lhs = math.gamma(z) * math.gamma(1.0 - z)
            assert lhs == pytest.approx(math.pi / math.sin(math.pi * z), rel=1e-13)
        z = 1.0 / 6.0
        dup = math.gamma(z) * math.gamma(z + 0.5)
        rhs = 2.0 ** (1.0 - 2.0 * z) * math.sqrt(math.pi) * math.gamma(2.0 * z)
        assert dup == pytest.approx(rhs, rel=1e-13)


class TestOneEvaluatorPerMinimum:
    """Each torus minimum, and the maximum beside it, comes from one evaluator."""

    @pytest.fixture
    def builds(self, monkeypatch):
        count = [0]
        build = ShiftedSumEvaluator._build

        def counted(self, *args, **kwargs):
            count[0] += 1
            return build(self, *args, **kwargs)

        monkeypatch.setattr(ShiftedSumEvaluator, "_build", counted)
        return count

    def test_one_build_per_call(self, builds, hexl):
        p = app.CMPotential.riesz(4.0, tol=1e-9)
        calls = {
            "minimize_over_cell": lambda: minimize_over_cell(hexl, 1.0, 16),
            "minimize_cm_energy": lambda: app.minimize_cm_energy(p, hexl, 16),
            "gabor_frame_bounds": lambda: app.gabor_frame_bounds(0.5, Y_HEX, 2, grid_n=16),
            "temperature_extremes": lambda: app.temperature_extremes(hexl, 0.08, grid_n=16),
        }
        for name, call in calls.items():
            builds[0] = 0
            call()
            assert builds[0] == 1, name

    def test_sweeps_build_one_per_shape_and_keep_certificates(self, builds):
        shapes = [(0.5, Y_HEX), (0.0, 1.0), (0.3, 1.2)]
        zeta = app.epstein_min_sweep(shapes, 2.0, grid_n=16)
        assert builds[0] == len(shapes)
        builds[0] = 0
        frames = [app.gabor_frame_bounds(x, y, 2, grid_n=16) for x, y in shapes]
        assert builds[0] == len(shapes)

        p = app.CMPotential.riesz(4.0, tol=1e-9)
        for (x, y), ((xz, yz), r), fb in zip(shapes, zeta, frames):
            lat = lattice_from_tau(x, y)
            assert (xz, yz) == (x, y)
            assert r.value == ShiftedSumEvaluator(lat, p.nodes).certified_at(r.argmin)
            ev = ShiftedSumEvaluator(lat, ((1.0, 1.0),))
            low, high = ev.certified_at(fb.argmin_z), ev.certified_at(PhasePoint(0.0, 0.0))
            assert (fb.x, fb.y) == (x, y)
            assert (fb.lower_A, fb.upper_B) == (2.0 * low.value, 2.0 * high.value)
            assert fb.converged == (low.converged and high.converged)
