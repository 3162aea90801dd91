import math

import numpy as np
import pytest

from latsum.errors import NonPositiveAlpha
from latsum.lattice import PhasePoint, lattice_from_tau, special_point_a, special_point_b
from latsum.optimize import (
    _EIG_FLOOR,
    _N_STARTS,
    _ROUNDING,
    _newton_polish,
    _lowest,
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
    all_starts_minimum_oracle,
    eigh_saddle_free_step,
    in_fundamental_domain_plus,
    random_domain_lattice,
    theta1d,
    values_centered,
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
        grid_vals = ev.value_offset + values_centered(ev, np.column_stack([uu.ravel(), vv.ravel()]))
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
            float(values_centered(ev, chunk).min()) for chunk in np.array_split(grid, 64)
        )
        assert res.value.value <= dense + res.value.tail_bound + ev.tail_bound

    def test_half_cell_matches_full_cell(self, rng):
        """The scan covers v <= 1/2 + 1.5/grid_n only, since E is even; the
        full-cell minimum joins that scan of E and the scan on the axes
        shifted by (0, 1/2)."""
        for alpha in (0.25, 1.0, 8.0):
            for _ in range(3):
                lat = random_domain_lattice(rng)
                res = minimize_over_cell(lat, alpha, 32)
                ev = ShiftedSumEvaluator(lat, ((alpha, 1.0),))
                halves = []
                for shift in (0.0, 0.5):
                    point, _, _ = minimize_torus(
                        lambda axes: ev._grid_centered(axes[0], (axes[1] + shift) % 1.0),
                        32,
                        lambda zs: ev.derivatives_centered((zs + [0.0, shift]) % 1.0),
                    )
                    u, v = point[0], (point[1] + shift) % 1.0
                    halves.append(lattice_gaussian_sum(lat, PhasePoint(u, v), alpha))
                best = min(halves, key=lambda cv: cv.value)
                tails = res.value.tail_bound + best.tail_bound
                assert abs(res.value.value - best.value) <= tails + 1e-15 * best.value

    def test_no_higher_than_polishing_every_start(self):
        """Against the rule that polishes all ``_N_STARTS`` lowest grid points,
        without merging neighbours or stepping off saddles: on 24 seeded
        domain shapes and six on the x = 1/2 valleys, at every alpha of
        criterion 4, the minimum is no higher than that one beyond both tails."""
        rng = np.random.default_rng(20261021)
        lattices = [random_domain_lattice(rng) for _ in range(24)]
        lattices += [lattice_from_tau(0.5, y) for y in np.linspace(1.0, 2.5, 6)]
        for lat in lattices:
            for alpha in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
                got = minimize_over_cell(lat, alpha, 32).value
                ref = all_starts_minimum_oracle(ShiftedSumEvaluator(lat, ((alpha, 1.0),)), 32)
                assert got.value <= ref.value + got.tail_bound + ref.tail_bound

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


def _basin_cells(scan, n_starts):
    """The grid cells (i, j) of the ``n_starts`` lowest values of the (n, m)
    ``scan`` of an even function, grid step 1/n, that none of the lower ones
    among them is an 8-neighbour of on the torus, itself or mirrored,
    (p, q) -> (-p, -q) mod n, in value order."""
    n, m = scan.shape

    def torus_neighbours(i, j, p, q):
        return min((i - p) % n, (p - i) % n) <= 1 and min((j - q) % n, (q - j) % n) <= 1

    lowest = [divmod(c, m) for c in np.argsort(scan.ravel(), kind="stable")[:n_starts].tolist()]
    return [
        (i, j)
        for rank, (i, j) in enumerate(lowest)
        if not any(
            torus_neighbours(i, j, p, q) or torus_neighbours(i, j, -p, -q)
            for p, q in lowest[:rank]
        )
    ]


def _even_wells(wells):
    """``batch`` and ``derivatives`` of the even function with a well
    -w exp(-30 (2 - cos 2 pi (u - p0) - cos 2 pi (v - p1))) of depth w at
    each (p0, p1, w) of ``wells`` and at its mirror (-p0, -p1)."""
    wells = wells + [(-u, -v, w) for u, v, w in wells]

    def derivatives(zs):
        f, g, h = np.zeros(len(zs)), np.zeros((len(zs), 2)), np.zeros((len(zs), 2, 2))
        for u, v, w in wells:
            phase = 2 * math.pi * (zs - [u, v])
            t = -w * np.exp(-30.0 * (2.0 - np.cos(phase).sum(axis=1)))
            d = -30.0 * 2 * math.pi * np.sin(phase)
            f += t
            g += t[:, None] * d
            h += t[:, None, None] * (d[:, :, None] * d[:, None, :])
            h[:, [0, 1], [0, 1]] += t[:, None] * (-30.0 * 4 * math.pi**2 * np.cos(phase))
        return f, g, h

    def batch(axes):
        uu, vv = np.meshgrid(*axes, indexing="ij")
        return derivatives(np.column_stack([uu.ravel(), vv.ravel()]))[0].reshape(uu.shape)

    return batch, derivatives


class TestStartSelection:
    """``_lowest`` picks the scan's ``_N_STARTS`` lowest cells by one partition;
    they must be ``np.argsort(vals, kind="stable")[:_N_STARTS]`` in order."""

    @pytest.mark.parametrize("seed", range(40))
    def test_ties_and_signed_zeros(self, seed):
        """Small integers, so values tie exactly; zeros of either sign; sizes
        on both sides of ``_N_STARTS``.  Scan values are never NaN."""
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 80))
        vals = rng.integers(-2, 3, size).astype(float)
        zeros = vals == 0.0
        vals[zeros] = rng.choice([0.0, -0.0], int(zeros.sum()))
        stable = np.argsort(vals, kind="stable")[:_N_STARTS]
        assert _lowest(vals, _N_STARTS).tolist() == stable.tolist()

    @pytest.mark.parametrize("x, y, alpha", [(0.5, Y_HEX, 1.0), (0.5, 2.5, 8.0), (0.5, Y_HEX, 1000.0)])
    def test_real_scan(self, x, y, alpha):
        """Half-cell scans: the hexagon's six-fold ties, the two valleys of
        (1/2, 5/2) and the hexagon at alpha = 1000, where most cells are 0."""
        ev = ShiftedSumEvaluator(lattice_from_tau(x, y), ((alpha, 1.0),))
        us = np.arange(32) / 32
        vals = ev._grid_centered(us, us[us <= 0.5 + 1.5 / 32]).ravel()
        stable = np.argsort(vals, kind="stable")[:_N_STARTS]
        assert _lowest(vals, _N_STARTS).tolist() == stable.tolist()


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
        """``batch`` is called once, on the axes of the half-cell scan grid;
        ``derivatives`` once per iteration at most, plus once for the starts.
        The starts are those of the ``_N_STARTS`` lowest grid points that are
        no 8-neighbour on the torus of a lower one or of its mirror image,
        counted here from the scan, and no later batch has more rows.  The value returned is one
        ``derivatives`` gave: no batch re-evaluates the polished points."""
        counts = []
        for x, y, alpha in [(0.5, Y_HEX, 1.0), (0.2, 1.3, 0.25), (0.5, 2.5, 8.0), (0.0, 1.0, 4.0)]:
            ev = ShiftedSumEvaluator(lattice_from_tau(x, y), ((alpha, 1.0),))
            batch_axes, derivative_points, derivative_values = [], [], []

            def batch(axes):
                batch_axes.append(axes)
                return ev._grid_centered(*axes)

            def derivatives(zs):
                derivative_points.append(zs)
                out = ev.derivatives_centered(zs)
                derivative_values.extend(out[0].tolist())
                return out

            _, value, iterations = minimize_torus(batch, 32, derivatives)
            grid = np.arange(32) / 32
            assert len(batch_axes) == 1
            us, vs = batch_axes[0]
            assert np.array_equal(us, grid) and np.array_equal(vs, grid[grid <= 0.5 + 1.5 / 32])
            starts = _basin_cells(ev._grid_centered(us, vs), _N_STARTS)
            counts.append(len(starts))
            assert 1 <= len(derivative_points) <= iterations + 1
            assert np.array_equal(derivative_points[0], [[us[i], vs[j]] for i, j in starts])
            assert max(map(len, derivative_points)) <= len(starts)
            assert value in derivative_values
        # one basin each, but two on x = 1/2, y = 2.5: u = 0 and u = 1/2
        assert counts == [1, 1, 2, 1]

    def test_one_start_per_cluster_across_the_u_wrap(self):
        """An even function with one well between the grid columns u = 0 and
        u = 31/32 and a shallower one on the grid point (1/2, 3/16): its five
        lowest grid points are three of the first well (two of them across
        the wrap) and the second well's centre, so two starts are polished,
        and the deeper well's centre is found."""
        n = 32
        batch, derivatives = _even_wells([(-0.5 / n, 0.25, 1.0), (0.5, 6 / n, 0.5)])
        grid = np.arange(n) / n
        scan = batch((grid, grid[grid <= 0.5 + 1.5 / n]))
        lowest = np.argsort(scan.ravel(), kind="stable")[:_N_STARTS]
        assert {0, n - 1} <= set((lowest // scan.shape[1]).tolist())
        assert _basin_cells(scan, _N_STARTS) == [(0, 8), (n // 2, 6)]
        rows = []
        point, value, _ = minimize_torus(
            batch, n, lambda zs: rows.append(len(zs)) or derivatives(zs)
        )
        assert rows[0] == 2
        assert math.hypot(point[0] - (1 - 0.5 / n), point[1] - 0.25) < 1e-9
        assert value == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("row", [0, 16])
    def test_one_start_per_mirror_pair(self, row):
        """An even function with one well beside the grid point (1/4, row/32),
        on v = 0 or v = 1/2: its two lowest grid points are that point and
        its mirror (3/4, -row/32 mod 1), which no u-wrapped neighbour test
        joins.  One start is polished, and it reaches the well or its
        mirror."""
        n = 32
        well = ((8 + 0.3) / n, (row + 0.3) / n)
        batch, derivatives = _even_wells([(*well, 1.0)])
        grid = np.arange(n) / n
        scan = batch((grid, grid[grid <= 0.5 + 1.5 / n]))
        lowest = np.argsort(scan.ravel(), kind="stable")[:2]
        assert sorted(divmod(c, scan.shape[1]) for c in lowest.tolist()) == [(8, row), (24, row)]
        assert len(_basin_cells(scan, _N_STARTS)) == 1
        rows = []
        point, value, _ = minimize_torus(
            batch, n, lambda zs: rows.append(len(zs)) or derivatives(zs)
        )
        assert rows[0] == 1
        offsets = [(point - s * np.array(well) + 0.5) % 1.0 - 0.5 for s in (1, -1)]
        assert min(math.hypot(*d) for d in offsets) < 1e-9
        assert value == pytest.approx(-1.0, abs=1e-12)

    @staticmethod
    def _cosines(p, a0, a1, calls):
        """Derivatives of f(z) = -(a0 cos 2 pi (u - p0) + a1 cos 2 pi (v - p1)) / (4 pi^2),
        whose gradient at p is 0 and Hessian diag(a0, a1); each call's row
        count is appended to ``calls``."""
        a = np.array([a0, a1]) / (4 * math.pi**2)

        def derivatives(zs):
            calls.append(len(zs))
            phase = 2 * math.pi * (zs - p)
            hess = np.zeros((len(zs), 2, 2))
            hess[:, [0, 1], [0, 1]] = 4 * math.pi**2 * a * np.cos(phase)
            return -(a * np.cos(phase)).sum(axis=1), 2 * math.pi * a * np.sin(phase), hess

        return derivatives

    def test_saddle_start_steps_off_it(self):
        """g = 0 and H = diag(1, -1): the start steps along v, downhill on
        both sides, and the polish runs on to the minimum at p + (0, 1/2)."""
        p = np.array([0.3, 0.2])
        calls = []
        saddle = self._cosines(p, 1.0, -1.0, calls)
        points, values, _ = _newton_polish(saddle, p[None], 1 / 32, 1e-12)
        assert len(calls) > 1
        assert math.hypot(*(points[0] - [0.3, 0.7])) < 1e-9
        assert values[0] < -1.99 / (4 * math.pi**2)

    def test_definite_start_stops_at_once(self):
        """g = 0 and H positive definite: one ``derivatives`` call, on the
        starts, and the start is returned where it was."""
        p = np.array([0.3, 0.2])
        calls = []
        well = self._cosines(p, 1.0, 2.0, calls)
        points, _, iterations = _newton_polish(well, p[None], 1 / 32, 1e-12)
        assert calls == [1] and iterations == 1
        assert np.array_equal(points, p[None])

    def test_shallow_saddle_stops(self):
        """g = 0 and H = diag(1, -1e-6) at trust radius 1e-3: |lambda| r^2 is
        1e-12, so the start stops at tol 1e-11 and steps off at tol 1e-13."""
        p = np.array([0.3, 0.2])
        for tol, stops in ((1e-11, True), (1e-13, False)):
            calls = []
            points, _, _ = _newton_polish(self._cosines(p, 1.0, -1e-6, calls), p[None], 1e-3, tol)
            assert (calls == [1]) == stops
            assert np.array_equal(points, p[None]) == stops

    def test_hexagon_from_its_torsion_saddle(self, hexl):
        """The hexagon at alpha = 1 has the gradient 0 at the 2-torsion point
        (1/2, 0), a saddle: a lone start there reaches a deep hole."""
        ev = ShiftedSumEvaluator(hexl, ((1.0, 1.0),))
        start = np.array([[0.5, 0.0]])
        tol = _ROUNDING * abs(float(ev.derivatives_centered(start)[0][0]))
        points, _, _ = _newton_polish(ev.derivatives_centered, start, 1 / 48, tol)
        u, v = points[0]
        assert min(math.hypot(u - c, v - c) for c in (1 / 3, 2 / 3)) < 1e-9

    def test_trial_points_wrap_into_unit_square(self):
        """A step to -1e-17 wraps to 0.0: the float -1e-17 % 1.0 is 1.0.  The
        values returned are those ``derivatives`` last gave for each start."""

        def derivatives(zs):
            # the torus offset from the minimum at (-1e-17, 0.3), without rounding it away
            d = np.where(zs > 0.5, zs - 1.0, zs) + [1e-17, -0.3]
            return 0.5 * (d * d).sum(axis=1), d, np.tile(np.eye(2), (len(zs), 1, 1))

        points, values, _ = _newton_polish(derivatives, np.array([[2.0**-60, 0.3]]), 0.5, 0.0)
        assert np.all((0.0 <= points) & (points < 1.0))
        assert len(values) == 1 and 0.0 <= values[0] <= 0.5 * (2.0**-60 + 1e-17) ** 2


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
