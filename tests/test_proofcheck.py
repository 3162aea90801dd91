import ast
import inspect
import math
import platform
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import (
    THRESHOLD_LHS_ORACLES,
    composed_charged_term_d2,
    derivative_bounds_oracle,
    growth11_oracle,
    phi_g_d1,
    psi_arg,
    psi_g,
    psi_g_d1,
    psi_g_d2,
    q1_outside_minima_oracle,
    run_under_memory_limit,
    threshold_scan_oracle,
)
from latsum import proofcheck as pc
from latsum.errors import NonPositiveT
from latsum.lattice import special_point_b
from latsum.theta import theta1d_hat

SQRT3 = math.sqrt(3.0)
U = 2.0 / (3.0 * SQRT3)
Y_HEX = SQRT3 / 2.0


def _box_loop(fn, radius=40):
    """Scalar double loop over |k|, |l| <= radius: the reference for the
    broadcast box sums."""
    total = 0.0
    for k in range(-radius, radius + 1):
        for l in range(-radius, radius + 1):
            total += fn(k, l)
    return total


def golden_section_min(f, lo, hi, ytol=1e-8):
    """The least value of a unimodal f on [lo, hi] that golden-section search
    finds, from f's values only, once the bracket is narrower than ytol."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > ytol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - inv_phi * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + inv_phi * (hi - lo)
            fd = f(d)
    return min(fc, fd)


def _ref_threshold_lhs(name, a):
    pi = math.pi
    q1, q2 = pc.q1, pc.q2
    if name == "square_tail":
        return _box_loop(
            lambda k, l: math.exp(-pi * a * (k * k + l * l)) if k * k + l * l >= 2 else 0.0
        )
    if name == "far_q1":
        return _box_loop(
            lambda k, l: math.exp(-0.5 * pi * a * math.sqrt(q1(k, l)))
            if max(abs(k), abs(l)) > 5
            else 0.0
        )
    if name == "nondominant_q1":
        return _box_loop(
            lambda k, l: math.exp(-0.5 * pi * a * math.sqrt(q1(k, l)))
            if q1(k, l) >= 8.0 / (3.0 * SQRT3) - 1e-9
            else 0.0
        )
    if name == "composite_q1":
        return 5.0 * pi**2 * a**2 * _box_loop(
            lambda k, l: q1(k, l) ** 2 * math.exp(-0.5 * pi * a * math.sqrt(q1(k, l)))
            if max(abs(k), abs(l)) > 1
            else 0.0
        )
    if name == "charged_far":
        return _box_loop(
            lambda k, l: math.exp(-pi * a * math.sqrt(q2(k, l)))
            if l != 0 and q2(k, l) > 1
            else 0.0
        )
    assert name == "charged_composite"
    lhs = 40.0 * math.fsum(a * a * k**4 * math.exp(-pi * a * k * k) for k in range(2, 40))
    return lhs + 3.0 * pi**2 * a**2 * _box_loop(
        lambda k, l: q2(k, l) ** 2 * math.exp(-pi * a * math.sqrt(q2(k, l)))
        if l != 0 and max(abs(k), abs(l)) > 1
        else 0.0
    )


def _box_threshold_lhs(name, alphas):
    """``_ref_threshold_lhs`` at each of a 1-D array of alphas: every term of
    the box, one column per pair, summed by numpy along each alpha's row."""
    pi = math.pi
    a = np.asarray(alphas, dtype=float)[:, None]
    k, l = pc._box(40)
    cheb = np.maximum(np.abs(k), np.abs(l))
    q1, q2 = pc.q1(k, l), pc.q2(k, l)
    if name == "square_tail":
        n2 = k * k + l * l
        return np.exp(-pi * a * n2[n2 >= 2]).sum(axis=1)
    if name == "far_q1":
        return np.exp(-0.5 * pi * a * np.sqrt(q1[cheb > 5])).sum(axis=1)
    if name == "nondominant_q1":
        return np.exp(-0.5 * pi * a * np.sqrt(q1[q1 >= 8.0 / (3.0 * SQRT3) - 1e-9])).sum(axis=1)
    if name == "composite_q1":
        qq = q1[cheb > 1]
        return 5.0 * pi**2 * a[:, 0] ** 2 * (qq**2 * np.exp(-0.5 * pi * a * np.sqrt(qq))).sum(axis=1)
    if name == "charged_far":
        return np.exp(-pi * a * np.sqrt(q2[(l != 0) & (q2 > 1)])).sum(axis=1)
    assert name == "charged_composite"
    ks = np.arange(2, 40)
    qq = q2[(l != 0) & (cheb > 1)]
    quartic = (a * a * ks**4 * np.exp(-pi * a * ks * ks)).sum(axis=1)
    charged = (qq**2 * np.exp(-pi * a * np.sqrt(qq))).sum(axis=1)
    return 40.0 * quartic + 3.0 * pi**2 * a[:, 0] ** 2 * charged


THRESHOLD_IDS = [
    "square_tail", "far_q1", "nondominant_q1", "composite_q1", "charged_far", "charged_composite",
]


# every default report: id, params_tested and worst_margin as computed over
# the full |k|, |l| <= 25 box for the charged window, before its ball
PINNED_SUITE = [
    ("q1_ledger", "box radius 8, first three levels", 1.0),
    ("q2_ledger", "box radius 8, levels 1/3/4, gap at 2", 1.0),
    ("q1_growth", "box radius 30; outside-box minima 7u and 73u", 1e-09),
    (
        "growth1",
        "|k|,|l| <= 20; minimal ratio 0.6204 at [(-1, 0), (0, -1), (0, 0)]",
        0.12040323940139974,
    ),
    ("derivative_bounds", "|k|,|l| <= 20, y in [sqrt3/2, 10]", 0.3849001794597502),
    (
        "growth11",
        "alphas (5.0, 10.0), |k|,|l| <= 15, y in [sqrt3/2, 8], relative slack",
        0.9538444801173526,
    ),
    ("growth2", "|k|,|l| <= 20, l != 0", 0.15470053837925146),
    ("dominant_concavity", "alphas (6.0, 10.0, 50.0), normalized slack", 0.04895373033832029),
    (
        "nine_term_concavity",
        "alphas (6.0, 10.0); extra-term contribution < 1e-5 at alpha 6",
        9.488514039612288e-06,
    ),
    ("charged_nine_term", "alphas (5.0, 8.0), y in [sqrt3/2, 1]", 0.8642733774423138),
    (
        "charged_concavity_small_alpha",
        "alphas (2.0, 3.5, 5.0), y in [sqrt3/2, 1.5], bound -1e-5 (x1e5)",
        0.11420481826061714,
    ),
    # the 100 eps grace at t = 0.00147, 7.474486535702851e-13, plus the sampled
    # -u_xx (scaled) at x = 1/2 there, whose true value is 1.82262788801329e-15
    ("heat_inflection", "25 log-spaced t in [0.001, 10]", 7.492712814582985e-13),
    (
        "g_monotone",
        "alphas (0.5, 1.0, 4.0), 120-point grid; decrement at 1 and 4",
        0.007188570223760381,
    ),
    ("tail_constants", "six printed constants to all printed places", 0.6007647614648661),
    # B(1) - Q(0; 1) - tail, over B(1): the 40-digit B - Q is 1.0531643050460733e-05
    # of B, and Q's tail is 9.5e-15 of Q
    ("montgomery_sandwich", "50 beta x 9 t grid, relative", 1.0531643041035436e-05),
    (
        "alpha_thresholds",
        "square_tail: stated 0.5, empirical 0.50, checked 0.5; "
        "far_q1: stated 1.0, empirical 1.15, checked 1.2; "
        "nondominant_q1: stated 0.7, empirical 3.45, checked 6.0; "
        "composite_q1: stated 6.0, empirical 6.00, checked 6.0; "
        "charged_far: stated 1.3, empirical 1.30, checked 1.5; "
        "charged_composite: stated 1.1, empirical 2.85, checked 5.0",
        0.05052558257090366,
    ),
]


class TestQuadraticForms:
    def test_q1_point_values(self):
        assert pc.q1(0, 0) == pytest.approx(U, abs=1e-15)
        assert pc.q1(-1, -1) == pytest.approx(4 * U, abs=1e-14)

    # check_q1_growth reads both outside-box minima off its |k|, |l| <= 30
    # box, and its margin is at most 1e-9 minus each one's distance from its
    # stated value; a brute-force search of the 60 box finds them at those
    # values
    def test_q1_min_outside_unit_box(self):
        (outside,) = q1_outside_minima_oracle((1,))
        assert outside == pytest.approx(14.0 / (3 * SQRT3), abs=1e-12)
        assert outside == pytest.approx(2.694, abs=1e-3)
        assert pc.check_q1_growth().worst_margin >= 1e-9 - 1e-15

    def test_q1_min_outside_five_box(self):
        (outside,) = q1_outside_minima_oracle((5,))
        assert outside == pytest.approx(146.0 / (3 * SQRT3), abs=1e-12)
        assert outside == pytest.approx(28.09, abs=1e-2)
        assert pc.check_q1_growth().worst_margin >= 1e-9 - 1e-15

    def test_q2_values(self):
        assert pc.q2(3, -3) == 9.0
        ones = {(0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1)}
        assert all(pc.q2(*kl) == 1.0 for kl in ones)

    def test_q2_lower_bound(self, rng):
        for _ in range(500):
            k, l = rng.integers(-50, 51, size=2)
            assert pc.q2(k, l) >= 0.5 * (k * k + l * l)

    def test_ledger_q1(self):
        ledger = pc.enumerate_form("Q1")
        v0, idx0 = ledger.entries[0]
        assert v0 == pytest.approx(U, abs=1e-14)
        assert set(idx0) == {(0, -1), (-1, 0), (0, 0)}
        v1, idx1 = ledger.entries[1]
        assert v1 == pytest.approx(4 * U, abs=1e-14)
        assert set(idx1) == {(-1, -1), (1, -1), (-1, 1)}

    def test_ledger_q2_gap_at_two(self):
        ledger = pc.enumerate_form("Q2")
        values = {int(round(v)) for v, _ in ledger.entries}
        assert {1, 3, 4, 7, 9} <= values
        assert 2 not in values

    def test_families_take_index_arrays(self):
        k, l = pc._box(6)
        pairs = list(zip(k.tolist(), l.tolist()))
        assert pairs == [(a, b) for a in range(-6, 7) for b in range(-6, 7)]
        assert np.array_equal(pc.q1(k, l), [pc.q1(a, b) for a, b in pairs])
        assert np.array_equal(pc.q2(k, l), [pc.q2(a, b) for a, b in pairs])
        assert np.array_equal(pc.min_phi_f(k, l), [pc.min_phi_f(a, b) for a, b in pairs])
        k, l = k[l != 0], l[l != 0]
        assert np.array_equal(
            pc.min_phi_g(k, l), [pc.min_phi_g(a, b) for a, b in zip(k.tolist(), l.tolist())]
        )
        for value in (pc.q1(2, -1), pc.q2(2, -1), pc.min_phi_f(2, -1), pc.min_phi_g(2, -1)):
            assert isinstance(value, float)
        with pytest.raises(ValueError):
            pc.min_phi_g(k, np.where(l == 1, 0, l))


class TestExponentFamilies:
    def test_phi_f_at_hexagon_equals_q1(self, rng):
        for _ in range(200):
            k, l = rng.integers(-20, 21, size=2)
            assert pc.phi_f(k, l, Y_HEX) == pytest.approx(pc.q1(k, l), abs=1e-12)

    def test_dominant_term_closed_form(self):
        ys = np.linspace(Y_HEX, 5.0, 50)
        expected = (4 * ys**2 + 1) ** 2 / (64 * ys**3)
        assert np.allclose(pc.phi_f(0, 0, ys), expected, atol=1e-14)

    def test_phi_f_derivative_oracles(self, rng):
        h = 1e-5
        for _ in range(1000):
            k, l = rng.integers(-15, 16, size=2)
            y = rng.uniform(Y_HEX, 8.0)
            d1 = (pc.phi_f(k, l, y + h) - pc.phi_f(k, l, y - h)) / (2 * h)
            d2 = (pc.phi_f(k, l, y + h) - 2 * pc.phi_f(k, l, y) + pc.phi_f(k, l, y - h)) / h**2
            scale = max(1.0, abs(pc.q1(k, l)))
            assert abs(d1 - pc.phi_f_d1(k, l, y)) < 1e-7 * scale
            assert abs(d2 - pc.phi_f_d2(k, l, y)) < 1e-4 * scale

    def test_phi_g_and_psi_derivative_oracles(self, rng):
        # the closed forms the charged kernel is compared with, against
        # difference quotients; those of cos(arg) carry roundoff of size
        # ulp(arg)/h resp. ulp(arg)/h^2, so the tolerances track |arg|
        eps = np.finfo(float).eps
        for _ in range(1000):
            k, l = rng.integers(-15, 16, size=2)
            y = rng.uniform(Y_HEX, 8.0)
            h = 1e-5
            d1 = (pc.phi_g(k, l, y + h) - pc.phi_g(k, l, y - h)) / (2 * h)
            assert abs(d1 - phi_g_d1(k, l, y)) < 1e-6 * max(1.0, abs(d1))
            arg_scale = max(1.0, abs(float(psi_arg(k, l, y))))
            p1 = (psi_g(k, l, y + h) - psi_g(k, l, y - h)) / (2 * h)
            noise1 = 4.0 * arg_scale * eps / h
            assert abs(p1 - psi_g_d1(k, l, y)) < 1e-7 * max(1.0, abs(p1)) + noise1
            p2 = (psi_g(k, l, y + h) - 2 * psi_g(k, l, y) + psi_g(k, l, y - h)) / h**2
            noise2 = 8.0 * arg_scale * eps / h**2
            assert abs(p2 - psi_g_d2(k, l, y)) < 1e-4 * max(1.0, abs(p2)) + noise2

    def test_term_second_derivative_oracles(self, rng):
        h = 1e-4
        for _ in range(100):
            k, l = rng.integers(-4, 5, size=2)
            y = rng.uniform(Y_HEX, 2.0)
            alpha = rng.uniform(1.0, 4.0)

            def f_shift(t):
                return math.exp(-math.pi * alpha * float(pc.phi_f(k, l, t)))

            def f_charge(t):
                b = special_point_b(0.5, t)
                return math.exp(-math.pi * alpha * float(pc.phi_g(k, l, t))) * math.cos(
                    2 * math.pi * (k * b.v - l * b.u)
                )

            fd = (f_shift(y + h) - 2 * f_shift(y) + f_shift(y - h)) / h**2
            assert abs(fd - float(pc.shifted_term_d2(k, l, y, alpha))) < 1e-4 * max(1.0, abs(fd))
            fd = (f_charge(y + h) - 2 * f_charge(y) + f_charge(y - h)) / h**2
            assert abs(fd - float(pc.charged_term_d2(k, l, y, alpha))) < 1e-4 * max(1.0, abs(fd))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        k=st.integers(-20, 20),
        l=st.integers(-20, 20),
        y=st.floats(Y_HEX, 10.0),
        alpha=st.floats(0.5, 20.0),
    )
    def test_shifted_family_is_equal_at_the_class_partner(self, k, l, y, alpha):
        # (k, l) and (-k-l-1, l) share m^2 = (2k+l+1)^2 and l, and every float
        # step sees the same operands: the values agree bit for bit, the fact
        # the checkers' column classes rest on
        partner = -k - l - 1

        def bits(x):
            return np.asarray(x, dtype=float).tobytes()

        assert bits(pc.q1(k, l)) == bits(pc.q1(partner, l))
        for fn in (pc.phi_f, pc.phi_f_d1, pc.phi_f_d2):
            assert bits(fn(k, l, y)) == bits(fn(partner, l, y)), fn.__name__
        assert bits(pc.shifted_term_d2(k, l, y, alpha)) == bits(
            pc.shifted_term_d2(partner, l, y, alpha)
        )

    @pytest.mark.parametrize(
        "alphas, y_top", [((5.0, 8.0), 1.0), ((2.0, 3.5, 5.0), 1.5)], ids=["nine", "ball"]
    )
    def test_charged_kernel_matches_composed_closed_forms(self, alphas, y_top):
        # on the two charged windows; where the cos and sin parts cancel, the
        # two groupings differ by far more than eps of the term itself, so the
        # comparison is scaled by the largest |term| of each y row
        k, l = pc._box(6)
        ys = np.linspace(Y_HEX, y_top, 160)[:, None]
        for alpha in alphas:
            kernel = pc.charged_term_d2(k, l, ys, alpha)
            composed = composed_charged_term_d2(k, l, ys, alpha)
            row = np.abs(composed).max(axis=1, keepdims=True)
            assert np.all(np.abs(kernel - composed) <= 1e-13 * row)


class TestGrowthLemmas:
    def test_growth1_passes_with_expected_ratio(self):
        rep = pc.check_growth_lemma_1()
        assert rep.passed
        ratio, attaining = pc.growth1_min_ratio()
        assert ratio == pytest.approx(0.62, abs=5e-3)
        assert attaining == [(-1, 0), (0, -1), (0, 0)]

    def test_min_phi_f_against_bounded_search(self, rng):
        for _ in range(50):
            k, l = rng.integers(-12, 13, size=2)
            found = golden_section_min(lambda y: float(pc.phi_f(k, l, y)), Y_HEX, 60.0)
            direct = min(found, float(pc.phi_f(k, l, Y_HEX)))
            assert pc.min_phi_f(k, l) == pytest.approx(direct, rel=1e-8)

    def test_growth1_dominant_pair_margin(self):
        m = pc.min_phi_f(0, 0)
        assert m - 0.5 * math.sqrt(pc.q1(0, 0)) > 0

    def test_growth2_passes(self):
        assert pc.check_growth_lemma_2().passed

    def test_growth2_examples(self):
        # (0, 1): minimum sits on the boundary
        assert pc.min_phi_g(0, 1) == pytest.approx(2.0 / SQRT3, abs=1e-14)
        assert pc.min_phi_g(0, 1) >= 1.0
        # (5, -3): interior stationary point at |1/2 + k/l| = 7/6
        y0 = abs(0.5 + 5.0 / -3.0)
        assert y0 == pytest.approx(7.0 / 6.0, abs=1e-15)
        assert pc.min_phi_g(5, -3) == pytest.approx(float(pc.phi_g(5, -3, y0)), rel=1e-12)
        # (10, -5): stationary value |l (2k + l)|
        assert pc.min_phi_g(10, -5) == pytest.approx(75.0, abs=1e-10)

    def test_growth2_requires_nonzero_l(self):
        with pytest.raises(ValueError):
            pc.min_phi_g(3, 0)

    def test_derivative_bounds_pass(self):
        assert pc.check_derivative_bounds().passed

    def test_derivative_bounds_margin_is_the_window_minimum(self, rng):
        # the checker reads each derivative at its extremes only: a dense
        # random y-grid over the window finds no smaller margin
        ys = rng.uniform(Y_HEX, 10.0, 20_000)
        k, l = pc._column_classes(20)
        qq = pc.q1(k, l)
        grid = math.inf
        for i in range(0, ys.size, 500):
            y = ys[i : i + 500, None]
            first = np.min(2.0 * qq - np.abs(pc.phi_f_d1(k, l, y)))
            grid = min(grid, first, np.min(3.0 * qq - np.abs(pc.phi_f_d2(k, l, y))))
        assert grid >= pc.check_derivative_bounds().worst_margin

    @pytest.mark.parametrize(
        "name, public, stated",
        [("_phi_f_d1", pc.phi_f_d1, 2.0), ("_phi_f_d2", pc.phi_f_d2, 3.0)],
        ids=["2Q1", "3Q1"],
    )
    def test_derivative_bound_below_its_true_extreme_fails(self, monkeypatch, name, public, stated):
        # the largest |derivative| / Q1 over the box and a grid holding the
        # window's ends, where it peaks; the derivative scaled so that its
        # stated constant sits just above, then just below that extreme
        k, l = pc._column_classes(20)
        ys = np.linspace(Y_HEX, 10.0, 2001)[:, None]
        extreme = float(np.max(np.abs(public(k, l, ys)) / pc.q1(k, l)))
        derivative = getattr(pc, name)
        for factor, passes in ((1.0 + 1e-6, True), (1.0 - 1e-6, False)):
            scale = stated / (extreme * factor)
            monkeypatch.setattr(pc, name, lambda *args, s=scale: s * derivative(*args))
            assert pc.check_derivative_bounds().passed is passes

    def test_second_derivative_ratio_approaches_eight_thirds(self):
        ys = np.linspace(Y_HEX, 10.0, 400)
        k = 10_000
        ratio = float(np.max(np.abs(pc.phi_f_d2(k, 0, ys)))) / pc.q1(k, 0)
        assert 2.6 < ratio < 3.0
        assert ratio == pytest.approx(8.0 / 3.0, abs=2e-2)

    def test_growth11_composite_pass(self):
        assert pc.check_growth11_composite().passed

    @pytest.mark.parametrize("lo, hi", [(Y_HEX, 8.0), (Y_HEX, 10.0), (math.sqrt(5 / 12), 8.0)])
    def test_phi_f_peaks_bound_a_dense_grid(self, lo, hi):
        # the window ends hold each |derivative|'s largest value on the window;
        # both sides carry their own rounding.  The window from sqrt(5/12)
        # starts at the highest critical point of an integer pair (c = -3)
        k, l = pc._column_classes(20)
        peak1, peak2 = pc._phi_f_peaks(k, l, lo, hi)
        ys = np.linspace(lo, hi, 4000)
        for i in range(0, ys.size, 500):
            y = ys[i : i + 500, None]
            assert np.all(peak1 * (1.0 + 1e-12) >= np.abs(pc.phi_f_d1(k, l, y)).max(axis=0))
            assert np.all(peak2 * (1.0 + 1e-12) >= np.abs(pc.phi_f_d2(k, l, y)).max(axis=0))

    def test_phi_f_c_is_odd_and_never_minus_one(self):
        # so c >= 1 or c <= -3, which puts every critical point of phi_f' and
        # phi_f'' at y <= sqrt(5/12)
        k, l = pc._box(200)
        c = pc._phi_f_c(k, l)
        assert np.all(c % 2 == 1) and not np.any(c == -1)
        assert c[c < 0].max() == -3

    def test_phi_f_peaks_reject_a_window_below_sqrt_5_12(self):
        k, l = pc._column_classes(5)
        pc._phi_f_peaks(k, l, math.sqrt(5 / 12), 8.0)
        for lo in (0.3, np.nextafter(math.sqrt(5 / 12), 0.0)):
            with pytest.raises(ValueError, match="sqrt"):
                pc._phi_f_peaks(k, l, lo, 8.0)

    @pytest.mark.parametrize("k_max, hi", [(20, 10.0), (15, 8.0)])
    def test_phi_f_peaks_match_the_three_point_peaks(self, k_max, hi):
        # both callers' boxes and windows: the two ends give the peaks that the
        # ends and each derivative's clipped critical point gave, bit for bit
        k, l = pc._column_classes(k_max)
        c = pc._phi_f_c(k, l)
        ends = np.full((2, c.size), [[Y_HEX], [hi]])
        d1_y, d2_y = np.clip(
            1.0 / np.sqrt(np.maximum(-4.0 * c / [[3.0], [5.0]], hi**-2)), Y_HEX, hi
        )
        want1 = np.abs(pc.phi_f_d1(k, l, np.vstack([ends, d1_y]))).max(axis=0)
        want2 = np.abs(pc.phi_f_d2(k, l, np.vstack([ends, d2_y]))).max(axis=0)
        peak1, peak2 = pc._phi_f_peaks(k, l, Y_HEX, hi)
        assert peak1.tobytes() == want1.tobytes()
        assert peak2.tobytes() == want2.tobytes()

    @pytest.mark.parametrize("alpha", [5.0, 10.0])
    def test_growth11_enclosure_bounds_a_dense_grid(self, alpha):
        # the checker's left side (p^2 M1^2 + p M2) exp(-p min_phi_f) is at
        # least the unclipped |d^2/dy^2 exp(-p phi_f)| at every y of the
        # window where that is a normal float
        k, l = pc._column_classes(15)
        peak1, peak2 = pc._phi_f_peaks(k, l, Y_HEX, 8.0)
        p = math.pi * alpha
        enclosure = (p * p * peak1 * peak1 + p * peak2) * np.exp(-p * pc.min_phi_f(k, l))
        ys = np.linspace(Y_HEX, 8.0, 4000)
        normal = 0
        for i in range(0, ys.size, 500):
            y = ys[i : i + 500, None]
            d1 = pc.phi_f_d1(k, l, y)
            exact = np.abs(p * p * d1 * d1 - p * pc.phi_f_d2(k, l, y)) * np.exp(
                -p * pc.phi_f(k, l, y)
            )
            keep = exact >= np.finfo(float).tiny
            normal += int(keep.sum())
            assert np.all(enclosure >= (1.0 - 1e-12) * np.where(keep, exact, 0.0))
        assert normal > 100_000

    @pytest.mark.parametrize("radius, size", [(20, 1061), (15, 609)])
    def test_column_classes_cover_the_box_once(self, radius, size):
        k, l = pc._column_classes(radius)
        kept = list(zip(((2 * k + l + 1) ** 2).tolist(), l.tolist()))
        assert len(kept) == len(set(kept)) == size
        bk, bl = pc._box(radius)
        assert set(zip(((2 * bk + bl + 1) ** 2).tolist(), bl.tolist())) == set(kept)

    @pytest.mark.parametrize(
        "checker, oracle, exact",
        [
            (pc.check_derivative_bounds, derivative_bounds_oracle, True),
            (pc.check_growth11_composite, growth11_oracle, False),
        ],
        ids=["derivative_bounds", "growth11"],
    )
    def test_column_classes_report_the_full_box(self, checker, oracle, exact):
        # derivative_bounds reads the peaks its full-box oracle reads; growth11
        # encloses the whole window, so its margin is at most the one its
        # oracle reads off 160 samples of y
        got, want = checker(), oracle()
        assert (got.lemma_id, got.params_tested) == (want.lemma_id, want.params_tested)
        if exact:
            assert repr(got.worst_margin) == repr(want.worst_margin)
        else:
            assert 0.0 < got.worst_margin <= want.worst_margin


class TestConcavity:
    def test_dominant_concavity_at_spec_alphas(self):
        assert pc.check_dominant_concavity().passed

    def test_sharper_constant_near_six(self):
        extreme = pc.dominant_concavity_extreme()
        assert extreme <= -0.84
        assert extreme == pytest.approx(-0.88, abs=0.01)

    def test_nine_term_concavity(self):
        assert pc.check_nine_term_concavity().passed

    def test_charged_nine_term(self):
        assert pc.check_charged_nine_term().passed

    def test_charged_small_alpha_window(self):
        assert pc.check_charged_concavity_small_alpha().passed

    @pytest.mark.parametrize("alpha", [2.0, 3.5, 5.0])
    def test_charged_sum_d2_matches_scalar_loop(self, alpha):
        ys = np.linspace(Y_HEX, 1.5, 120)
        total = np.zeros_like(ys)
        size = np.zeros_like(ys)
        for k in range(-25, 26):
            for l in range(-25, 26):
                if k == 0 and l == 0:
                    continue
                term = pc.charged_term_d2(k, l, ys, alpha)
                total += term
                size += np.abs(term)
        # two summation orders of 2600 terms differ by at most 2600 eps sum|term|
        bound = 2600 * np.finfo(float).eps * size
        assert np.all(np.abs(pc.charged_sum_d2(ys, alpha)[0] - total) <= bound)

    @pytest.mark.parametrize("alpha", [2.0, 3.5, 5.0])
    def test_charged_ball_within_its_tail_of_the_40_box(self, alpha):
        ys = np.linspace(Y_HEX, 1.5, 120)
        total = np.zeros_like(ys)
        size = np.zeros_like(ys)
        ls = np.arange(-40, 41)
        for k in range(-40, 41):
            # row by row, so the reference shares no code with the ball; the
            # (0, 0) term is exactly 0
            terms = pc.charged_term_d2(k, ls[None, :], ys[:, None], alpha)
            total += terms.sum(axis=1)
            size += np.abs(terms).sum(axis=1)
        k, l, tail = pc._charged_ball(ys, alpha)
        assert 0 < tail <= 1e-16
        assert 0 < len(k) < 100
        assert not np.any((k == 0) & (l == 0))
        sums, sum_tail = pc.charged_sum_d2(ys, alpha)
        assert sum_tail == tail
        bound = tail + 2600 * np.finfo(float).eps * size
        assert np.all(np.abs(sums - total) <= bound)

    def test_charged_window_rests_on_max_plus_tail(self):
        # the true extreme at alpha 5 is -1.114e-5: a constant moved past it
        # fails; alpha 5 sets the checker's maximum (2 and 3.5 give -0.122 and
        # -1.37e-3)
        ys = np.linspace(Y_HEX, 1.5, 120)
        sums, tail = pc.charged_sum_d2(ys, 5.0)
        top = float(np.max(sums)) + tail
        assert -1.2e-5 < top < -1e-5
        assert pc.check_charged_concavity_small_alpha().worst_margin == (-1e-5 - top) * 1e5
        assert pc.charged_sum_d2(np.full((2, 3), Y_HEX), 5.0)[0].shape == (2, 3)


def heat_kernel_1d(t, x):
    """u(t, x) = 1 + 2 sum_k exp(-4 pi^2 k^2 t) cos(2 pi k x) on the circle: the
    hat series at parameter 4 pi t."""
    return theta1d_hat(x, 4.0 * math.pi * t)


class TestHeatKernel:
    def test_short_time_gaussian_value(self):
        u = heat_kernel_1d(0.01, 0.0)
        assert u.value == pytest.approx(1.0 / math.sqrt(4 * math.pi * 0.01), rel=1e-6)
        assert u.value == pytest.approx(2.8209, abs=1e-3)

    def test_long_time_uniform(self):
        for x in (0.0, 0.2, 0.5):
            assert abs(heat_kernel_1d(10.0, x).value - 1.0) < 1e-10

    def test_unit_mass(self):
        xs = np.linspace(0.0, 1.0, 257)
        vals = np.array([heat_kernel_1d(0.02, float(x)).value for x in xs])
        mass = np.trapezoid(vals, xs)
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_nonpositive_t(self):
        with pytest.raises(NonPositiveT):
            heat_kernel_1d(0.0, 0.1)

    def test_inflection_short_time_asymptotic(self):
        (root,) = pc._heat_inflection_points(np.array([0.001]))
        assert root == pytest.approx(math.sqrt(2 * 0.001), rel=0.01)

    def test_inflection_long_time_quarter(self):
        (root,) = pc._heat_inflection_points(np.array([10.0]))
        assert root == pytest.approx(0.25, abs=1e-6)

    def test_inflection_intermediate_and_monotone(self):
        r_small, r_mid, r_large = pc._heat_inflection_points(np.array([0.001, 0.1, 10.0]))
        assert r_small < r_mid < 0.3
        assert r_mid < r_large + 1e-9

    def test_inflection_suite(self):
        assert pc.check_heat_inflection().passed

    def test_scalar_inflection_is_the_batch_element(self):
        ts = np.logspace(-3, 1, 25)
        roots = pc._heat_inflection_points(ts)
        assert [pc._heat_inflection_points(np.array([t]))[0] for t in ts] == roots.tolist()
        with pytest.raises(ValueError, match="no sign change"):
            pc._heat_inflection_points(np.array([1e-20]))

    @pytest.mark.parametrize("x, expected", [(0.45, -6.1e-19), (0.5 - 1e-12, -1.05e-23)])
    def test_scaled_uxx_matches_50_digits(self, x, expected):
        """At t = 1e-3 near x = 1/2 the cosine series of u_xx cancels far below
        its rounding; the Jacobi side keeps the value within its tail.  The
        reference sums the cosine series sum_k k^2 e^(-pi T (k^2 - 1)) cos(2 pi k x)
        at 60 digits, at the float T = 4 pi t the kernel is given."""
        big_t = 4.0 * math.pi * 1e-3
        with mpmath.workdps(60):
            tt, xx = mpmath.mpf(big_t), mpmath.mpf(x)
            ref = mpmath.fsum(
                k * k * mpmath.exp(-mpmath.pi * tt * (k * k - 1))
                * mpmath.cos(2 * mpmath.pi * k * xx)
                for k in range(1, 80)
            )
        value, tail = (float(v) for v in pc._heat_uxx_scaled(1e-3, x))
        assert float(ref) == pytest.approx(expected, rel=0.02)
        assert abs(value - ref) <= tail < 1e-13 * abs(value)


class TestGProfile:
    def test_monotone_decreasing(self):
        ys = np.linspace(Y_HEX, 3.0, 50)
        vals = [pc.g_profile(1.0, float(y)) for y in ys]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_decrement_bound_at_four(self):
        alpha = 4.0
        drop = pc.g_profile(alpha, Y_HEX) - pc.g_profile(alpha, Y_HEX + 0.25 / math.sqrt(alpha))
        required = (2 * math.sqrt(alpha) / 3) * math.exp(-2 * math.pi * alpha / SQRT3)
        assert drop >= required

    def test_matches_hat_series(self, rng):
        for _ in range(20):
            alpha = rng.uniform(0.5, 4.0)
            y = rng.uniform(Y_HEX, 3.0)
            direct = theta1d_hat(0.5 - 1.0 / (8 * y * y), alpha / y).value
            assert abs(pc.g_profile(alpha, y) - direct) < 1e-12

    def test_large_y_stabilization(self):
        assert abs(pc.g_profile(1.0, 50.0)) < 1e-10

    def test_suite(self):
        assert pc.check_G_monotone().passed

    def test_non_finite_alpha_fails_loudly(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                pc.g_profile(math.inf, 1.0)

    def test_scalar_call_is_the_batch_element(self):
        ys = np.linspace(Y_HEX, 3.0, 120)
        for alpha in (0.5, 1.0, 4.0):
            values = pc.g_profile(alpha, ys)
            assert [pc.g_profile(alpha, float(y)) for y in ys] == values.tolist()


class TestTailConstants:
    @pytest.mark.parametrize(
        "cid,printed",
        [
            ("A1", 0.0359475),
            ("A2", 0.0000671031),
            ("B1", 0.380714),
            ("B2", 0.00746983),
            ("P2A", 0.180383),
            ("P2B", 1.20646),
        ],
    )
    def test_printed_digits(self, cid, printed):
        decimals = len(str(printed).split(".")[1])
        assert abs(pc.tail_constant(cid) - printed) < 10.0 ** (-decimals)

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            pc.tail_constant("nope")

    def test_suite(self):
        assert pc.check_tail_constants().passed


class TestSuite:
    def test_ledger_checks(self):
        assert pc.check_q1_ledger().passed
        assert pc.check_q2_ledger().passed
        assert pc.check_q1_growth().passed

    def test_sandwich(self):
        assert pc.check_montgomery_sandwich().passed

    def test_thresholds(self):
        rep = pc.check_alpha_thresholds()
        assert rep.passed
        assert rep.params_tested == (
            "square_tail: stated 0.5, empirical 0.50, checked 0.5; "
            "far_q1: stated 1.0, empirical 1.15, checked 1.2; "
            "nondominant_q1: stated 0.7, empirical 3.45, checked 6.0; "
            "composite_q1: stated 6.0, empirical 6.00, checked 6.0; "
            "charged_far: stated 1.3, empirical 1.30, checked 1.5; "
            "charged_composite: stated 1.1, empirical 2.85, checked 5.0"
        )

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.85, 6.0])
    @pytest.mark.parametrize("name", THRESHOLD_IDS)
    def test_threshold_lhs_matches_scalar_loop(self, name, a):
        lhs = pc._THRESHOLDS[name][2]
        assert lhs(a) == pytest.approx(_ref_threshold_lhs(name, a), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("name", THRESHOLD_IDS)
    def test_threshold_scan_matches_scalar_calls(self, name):
        # the scan's blocks against one scalar call a grid point: the same sums
        # to rounding, and lhs < rhs at the same points, so that the empirical
        # thresholds in params_tested do not rest on which path ran
        _, _, lhs, rhs = pc._THRESHOLDS[name]
        scan_lhs, scan_rhs = pc._scan_values()[name]
        grid = pc._ALPHA_SCAN.tolist()
        point_lhs = [lhs(a) for a in grid]
        point_rhs = [rhs(a) for a in grid]
        assert all(isinstance(v, float) for v in point_lhs + point_rhs)
        np.testing.assert_allclose(scan_lhs, point_lhs, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(scan_rhs, point_rhs, rtol=1e-13, atol=0.0)
        np.testing.assert_array_equal(scan_lhs < scan_rhs, np.less(point_lhs, point_rhs))

    @pytest.mark.parametrize("name", THRESHOLD_IDS)
    def test_shared_family_tables_match_own_tables(self, name):
        # the scan shares one exp table per level family and block; each sum
        # with a table of its own gives the same values bit for bit, in the
        # scan and at single alphas
        want_lhs, want_rhs = threshold_scan_oracle(name)
        got_lhs, got_rhs = pc._scan_values()[name]
        assert got_lhs.tobytes() == want_lhs.tobytes()
        assert got_rhs.tobytes() == want_rhs.tobytes()
        lhs = pc._THRESHOLDS[name][2]
        for a in (0.05, 1.2, 6.0, 12.0):
            assert repr(lhs(a)) == repr(THRESHOLD_LHS_ORACLES[name](a))

    def test_family_table_is_kept_by_the_alphas_values(self):
        # equal alphas share the one read-only table; alphas changed in place
        # get a table of their own
        family = pc._LevelFamily(-math.pi, np.arange(10))
        a = np.array([0.5, 1.0])
        table = family.table(a)
        assert family.table(a.copy()) is table and not table.flags.writeable
        a[0] = 0.25
        assert not np.array_equal(family.table(a), table)

    def test_scan_tables_fit_a_block(self, monkeypatch):
        # every table a scan builds or reuses holds at most _BLOCK_ITEMS
        # exponentials, 96 KiB, on any platform
        table, sizes = pc._LevelFamily.table, []

        def recorded(family, a):
            sizes.append(table(family, a).size)
            return table(family, a)

        monkeypatch.setattr(pc._LevelFamily, "table", recorded)
        pc._scan_values()
        assert sizes and max(sizes) <= pc._BLOCK_ITEMS

    @pytest.mark.parametrize("cut", ["default", "shallow"])
    def test_cut_lhs_bounds_the_box_sum(self, monkeypatch, cut):
        # on the scan's blocks and at single alphas, lhs is at least the box
        # sum and above it by no more than its bound on the dropped levels.
        # At the default depth that bound lies below half an ulp of each lhs,
        # so a shallow cut (depth 0 + the log weight ratio) shows that it
        # carries the dropped levels: without it lhs falls below the box sum
        if cut == "shallow":
            monkeypatch.setattr(pc, "_CUT_DEPTH", 0)
            thresholds, families = pc._threshold_table()
            monkeypatch.setattr(pc, "_THRESHOLDS", thresholds)
            monkeypatch.setattr(pc, "_FAMILIES", families)
        singles = (0.05, 1.2, 6.0, 12.0)
        dropped = pc._LevelFamily._dropped

        def lhs_with_bound_times(scale):
            monkeypatch.setattr(
                pc._LevelFamily, "_dropped", lambda *args: scale * dropped(*args)
            )
            scans = pc._scan_values()
            return {
                name: np.append(scans[name][0], [pc._THRESHOLDS[name][2](a) for a in singles])
                for name in THRESHOLD_IDS
            }

        # each id's bound, a positive combination of its sums' bounds, is read
        # off exactly scaled by 2^200 above the bare sum
        lhs, bare, scaled = (lhs_with_bound_times(x) for x in (1.0, 0.0, 2.0**200))
        alphas = np.append(pc._ALPHA_SCAN, singles)
        uncovered = 0
        for name in THRESHOLD_IDS:
            box = _box_threshold_lhs(name, alphas)
            for a, want in zip(singles, box[-len(singles) :]):
                assert want == pytest.approx(_ref_threshold_lhs(name, a), rel=1e-13, abs=0.0)
            bound = (scaled[name] - bare[name]) / 2.0**200
            assert np.all(lhs[name] >= box * (1.0 - 1e-13)), name
            assert np.all(lhs[name] - box <= bound + 1e-13 * box), name
            uncovered += np.count_nonzero(bare[name] < box * (1.0 - 1e-13))
            if cut == "default":
                assert np.all(bound <= 1e-17 * bare[name]), name
                assert np.count_nonzero(bound) > 0, name
        assert (uncovered > 0) == (cut == "shallow")

    def test_first_holding(self):
        scan = pc._ALPHA_SCAN
        rhs = np.ones_like(scan)
        assert pc._first_holding(np.zeros_like(scan), rhs) == scan[0]
        last_fails = np.zeros_like(scan)
        last_fails[-1] = 2.0
        assert pc._first_holding(last_fails, rhs) == math.inf
        mid_fails = np.zeros_like(scan)
        mid_fails[[3, 57]] = 2.0
        assert pc._first_holding(mid_fails, rhs) == scan[58]
        # equality fails: lhs < rhs is strict
        assert pc._first_holding(np.where(scan < 1.0, 1.0, 0.0), rhs) == scan[scan >= 1.0][0]

    def test_threshold_table_ids(self):
        assert list(pc._THRESHOLDS) == THRESHOLD_IDS

    def test_default_suite_is_pinned(self):
        reports = pc.run_default_suite()
        assert [(r.lemma_id, r.params_tested) for r in reports] == [
            (lemma_id, params) for lemma_id, params, _ in PINNED_SUITE
        ]
        for rep, (_, _, margin) in zip(reports, PINNED_SUITE):
            if rep.lemma_id == "charged_concavity_small_alpha":
                # this margin rests on max + tail of the alpha = 5 ball; the
                # sums on either side carry their own summation rounding
                ys = np.linspace(Y_HEX, 1.5, 120)
                k, l, tail = pc._charged_ball(ys, 5.0)
                terms = pc.charged_term_d2(k, l, ys[:, None], 5.0)
                size = np.abs(terms[np.argmax(terms.sum(axis=1))]).sum()
                slack = 1e5 * (tail + 2700 * np.finfo(float).eps * size)
            else:
                slack = 1e-9 * abs(margin)
            assert abs(rep.worst_margin - margin) <= slack, rep.lemma_id

    @pytest.mark.skipif(
        not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
        reason="the page-fault count rests on glibc's malloc thresholds",
    )
    def test_repeated_suite_rounds_fault_no_pages(self):
        # every temporary of the checkers stays below glibc's 128 KiB mmap and
        # trim thresholds, so the rounds after the first reuse the heap's pages
        # instead of faulting in thousands of fresh ones
        proc = run_under_memory_limit(
            "import resource\n"
            "from latsum.proofcheck import run_default_suite\n"
            "run_default_suite()\n"
            "for _ in range(5):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    run_default_suite()\n"
            "    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        assert proc.returncode == 0, proc.stderr
        faults = [int(line) for line in proc.stdout.split()]
        assert len(faults) == 5 and max(faults) <= 64, faults

    def test_checkers_take_no_arguments(self):
        # each lemma is stated inside its checker, and the suite calls every
        # checker once as a plain f(), the form the benchmark parses and calls
        checkers = sorted(
            name for name, fn in inspect.getmembers(pc, inspect.isfunction)
            if name.startswith("check_") and fn.__module__ == pc.__name__
        )
        assert len(checkers) == 16
        for name in checkers:
            assert not inspect.signature(getattr(pc, name)).parameters, name
        tree = ast.parse(inspect.getsource(pc.run_default_suite))
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
        for call in calls:
            assert isinstance(call.func, ast.Name), ast.dump(call)
            assert not call.args and not call.keywords, call.func.id
        assert sorted(call.func.id for call in calls) == checkers

    def test_default_suite_all_pass(self):
        reports = pc.run_default_suite()
        assert len(reports) >= 12
        for rep in reports:
            assert rep.passed, f"{rep.lemma_id}: {rep.worst_margin}"
            assert rep.passed == (rep.worst_margin > 0)
