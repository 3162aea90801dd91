import math

import numpy as np
import pytest

from latsum.errors import NoConvergence, NonPositiveY, NotUpperHalfPlane
from latsum.lattice import (
    Lattice,
    PhasePoint,
    _point_b,
    lattice_from_generator,
    lattice_from_tau,
    reduce_to_fundamental,
    special_point_a,
    special_point_b,
)
from latsum.theta import TruncationPolicy, lattice_gaussian_sum

from conftest import apply_generator, in_fundamental_domain_plus, replay

Y_HEX = math.sqrt(3.0) / 2.0


class TestConstructor:
    def test_square_is_identity(self):
        lat = lattice_from_tau(0.0, 1.0)
        assert np.allclose(lat.gen, np.eye(2), atol=0)

    def test_hexagonal_generator(self):
        lat = lattice_from_tau(0.5, Y_HEX)
        scale = Y_HEX ** -0.5
        expected = scale * np.array([[1.0, 0.5], [0.0, Y_HEX]])
        assert np.allclose(lat.gen, expected, atol=1e-15)
        assert abs(lat.covolume - 1.0) < 1e-12

    def test_generic_generator_by_hand(self):
        # constructor formula at (0.3, 2.0): scale 1/sqrt(2)
        lat = lattice_from_tau(0.3, 2.0)
        s = 1.0 / math.sqrt(2.0)
        expected = np.array([[s, 0.3 * s], [0.0, 2.0 * s]])
        assert np.allclose(lat.gen, expected, atol=1e-15)
        assert abs(lat.covolume - 1.0) < 1e-12

    def test_nonpositive_y_rejected(self):
        with pytest.raises(NonPositiveY):
            lattice_from_tau(0.1, 0.0)
        with pytest.raises(NonPositiveY):
            lattice_from_tau(0.1, -2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("slot", [0, 1], ids=["x", "y"])
    @pytest.mark.parametrize(
        "build", [lattice_from_tau, special_point_a, special_point_b, Lattice],
        ids=lambda f: f.__name__,
    )
    def test_nonfinite_shape_fails_where_it_enters(self, build, slot, bad):
        # a NaN or infinite shape built a Lattice, whose first sum then blamed
        # an elongated shape, and gave point b = (nan, nan); y = -inf is y <= 0
        shape = [0.3, 1.1]
        shape[slot] = bad
        args = (*shape, np.eye(2)) if build is Lattice else shape
        if slot == 1 and bad < 0:
            with pytest.raises(NonPositiveY):
                build(*args)
        else:
            with pytest.raises(ValueError, match=r"lattice shape \(.*\) must be finite"):
                build(*args)

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0), (1, 1)])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_generator_rejected(self, entry, bad):
        gen = np.eye(2)
        gen[entry] = bad
        for build in (lattice_from_generator, lambda g: Lattice(0.0, 1.0, g)):
            with pytest.raises(ValueError, match="generator must be finite"):
                build(gen)

    def test_unit_determinant_randomized(self, rng):
        for _ in range(200):
            x = rng.uniform(-3, 3)
            y = rng.uniform(0.05, 20.0)
            assert abs(lattice_from_tau(x, y).covolume - 1.0) <= 1e-12


class TestReduction:
    def test_translation_example(self):
        trace = reduce_to_fundamental(2.5 + 0.9j)
        assert trace.word == ("Tinv", "Tinv")
        assert abs(trace.tau_out - (0.5 + 0.9j)) < 1e-14

    def test_fixed_point(self):
        trace = reduce_to_fundamental(1j)
        assert trace.word == ()
        assert trace.tau_out == 1j

    def test_brute_force_word_oracle(self):
        # every word of length <= 6 landing in the half-domain must reach
        # the same representative as the reduction
        tau0 = 0.1 + 0.5j
        target = reduce_to_fundamental(tau0).tau_out
        endpoints = []
        labels = ("J", "T", "Tinv")
        stack = [(tau0, 0)]
        while stack:
            tau, depth = stack.pop()
            rep = complex(abs(tau.real), tau.imag)
            if in_fundamental_domain_plus(rep, tol=1e-9):
                endpoints.append(rep)
            if depth < 6:
                for lab in labels:
                    stack.append((apply_generator(tau, lab), depth + 1))
        assert endpoints, "no word reached the fundamental domain"
        for rep in endpoints:
            assert abs(rep - target) < 1e-9

    def test_replay_invariant_randomized(self, rng):
        for _ in range(100):
            tau = complex(rng.uniform(-8, 8), rng.uniform(0.05, 5.0))
            trace = reduce_to_fundamental(tau)
            assert in_fundamental_domain_plus(trace.tau_out)
            assert abs(replay(trace) - trace.tau_out) < 1e-10

    def test_idempotence(self, rng):
        for _ in range(50):
            tau = complex(rng.uniform(-5, 5), rng.uniform(0.1, 4.0))
            out = reduce_to_fundamental(tau).tau_out
            again = reduce_to_fundamental(out)
            assert abs(again.tau_out - out) < 1e-12

    def test_hexagonal_corner_ties(self):
        # both hexagonal corners reduce to the right-hand representative
        out = reduce_to_fundamental(complex(-0.5, Y_HEX)).tau_out
        assert abs(out - complex(0.5, Y_HEX)) < 1e-12

    def test_lower_half_plane_rejected(self):
        with pytest.raises(NotUpperHalfPlane):
            reduce_to_fundamental(1.0 - 0.5j)

    def test_generator_budget(self):
        with pytest.raises(NoConvergence):
            reduce_to_fundamental(1e9 + 1j)


class TestDuals:
    """The dual lattice is generated by inv(gen)^T; ``lattice_from_generator``
    reads its shape from that generator's QR form."""

    def test_hexagonal_dual_is_rotated_copy(self, hexl):
        dual = lattice_from_generator(np.linalg.inv(hexl.gen).T)
        # same Gram spectrum: sorted norms of the six shortest vectors agree
        def shortest(gen):
            ks = np.arange(-3, 4)
            kk, ll = np.meshgrid(ks, ks, indexing="ij")
            idx = np.column_stack([kk.ravel(), ll.ravel()])
            idx = idx[np.any(idx != 0, axis=1)]
            norms = np.sort(np.linalg.norm(idx @ gen.T, axis=1))
            return norms[:6]

        assert np.allclose(shortest(dual.gen), shortest(hexl.gen), atol=1e-10)
        assert abs(dual.covolume - 1.0) < 1e-12

    def test_rectangular_dual_shape(self):
        lat = lattice_from_tau(0.0, 2.0)
        dual = lattice_from_generator(np.linalg.inv(lat.gen).T)
        assert abs(dual.x) < 1e-12
        assert abs(dual.y - 0.5) < 1e-12


class TestSpecialPoints:
    def test_hexagonal_circumcenter(self):
        a = special_point_a(0.5, Y_HEX)
        assert abs(a.u - 1.0 / 3.0) < 1e-14
        assert abs(a.v - 1.0 / 3.0) < 1e-14

    def test_square_center(self):
        a = special_point_a(0.0, 1.0)
        assert (a.u, a.v) == (0.5, 0.5)

    def test_equidistance_oracle(self):
        # gen @ a is equidistant from the triangle corners 0, v1, v2
        x, y = 0.3, 1.1
        lat = lattice_from_tau(x, y)
        a = special_point_a(x, y)
        c = lat.gen @ np.array([a.u, a.v])
        v1, v2 = lat.gen.T
        d = [np.linalg.norm(c - p) for p in (np.zeros(2), v1, v2)]
        assert max(d) - min(d) < 1e-10

    def test_b_matches_a_on_hexagonal_line(self):
        b = special_point_b(0.5, Y_HEX)
        assert abs(b.u - 1.0 / 3.0) < 1e-14
        assert abs(b.v - 1.0 / 3.0) < 1e-14

    def test_b_square_value(self):
        b = special_point_b(0.0, 1.0)
        assert (b.u, b.v) == (0.5, 3.0 / 8.0)

    def test_b_of_a_y_array_is_the_scalar_point_at_each_y(self):
        # the charged family evaluates the moving point b(y) on y grids
        ys = np.linspace(Y_HEX, 3.0, 7)
        b1, b2 = _point_b(0.5, ys)
        assert [(u, v) for u, v in zip(b1.tolist(), b2.tolist())] == [
            (b.u, b.v) for b in (special_point_b(0.5, y) for y in ys.tolist())
        ]

    def test_b2_independent_of_x(self):
        b = special_point_b(0.25, Y_HEX)
        assert abs(b.v - 1.0 / 3.0) < 1e-15

    def test_algebraic_identities_randomized(self, rng):
        for _ in range(10_000):
            x = rng.uniform(1e-9, 0.5)
            y = rng.uniform(1.0 / math.sqrt(2.0), 10.0)
            a = special_point_a(x, y)
            b = special_point_b(x, y)
            assert abs(a.u + x * a.v - 0.5) < 1e-14
            assert abs(b.u + x * b.v - 0.5) < 1e-14
            assert abs(b.v - special_point_b(0.5, y).v) < 1e-14
        for _ in range(100):
            y = rng.uniform(Y_HEX, 10.0)
            a = special_point_a(0.5, y)
            b = special_point_b(0.5, y)
            assert abs(a.u - b.u) < 1e-14 and abs(a.v - b.v) < 1e-14

    def test_nonpositive_y(self):
        with pytest.raises(NonPositiveY):
            special_point_a(0.1, 0.0)
        with pytest.raises(NonPositiveY):
            special_point_b(0.1, -1.0)


class TestPhasePoint:
    def test_canonical(self):
        p = PhasePoint(1.25, -0.5).canonical()
        assert (p.u, p.v) == (0.25, 0.5)

    @pytest.mark.parametrize("t", [-1e-17, -0.0, 1.0 - 1e-17, -1.0, 1e16])
    def test_canonical_is_idempotent_in_unit_interval(self, t):
        # -1e-17 % 1.0 rounds to 1.0, which canonical takes as 0.0
        p = PhasePoint(t, 0.3).canonical()
        assert 0.0 <= p.u < 1.0
        assert p.canonical() == p


def test_sum_invariant_under_reduction(rng):
    # the Gaussian sum at the origin is a lattice invariant
    pol = TruncationPolicy(target_tol=1e-13)
    origin = PhasePoint(0.0, 0.0)
    for _ in range(10):
        tau = complex(rng.uniform(-3, 3), rng.uniform(0.3, 3.0))
        red = reduce_to_fundamental(tau).tau_out
        e1 = lattice_gaussian_sum(lattice_from_tau(tau.real, tau.imag), origin, 1.3, pol)
        e2 = lattice_gaussian_sum(lattice_from_tau(red.real, red.imag), origin, 1.3, pol)
        assert abs(e1.value - e2.value) <= e1.tail_bound + e2.tail_bound + 1e-13
