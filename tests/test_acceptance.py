"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them) and asserts the stated tolerance and runtime budget.
"""

import itertools
import math
import time

import numpy as np

from latsum import applications as app
from latsum import proofcheck as pc
from latsum.lattice import PhasePoint, hexagonal_lattice, lattice_from_tau
from latsum.optimize import minimize_over_cell
from latsum.theta import (
    TruncationPolicy,
    functional_equation_residual,
    lattice_gaussian_sum,
)

from conftest import Y_HEX, random_domain_lattice

ALPHAS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)


def _report(number: int, label: str, ok: bool, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{status}] {label} ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {number} failed: {label}"
    assert elapsed < budget, f"criterion {number} exceeded budget: {elapsed:.2f}s"


def _domain_grid(n: int, y_hi: float) -> list[tuple[float, float]]:
    xs = np.linspace(0.0, 0.5, n)
    ys = np.linspace(Y_HEX, y_hi, n)
    return [
        (float(x), float(y))
        for x in xs
        for y in ys
        if x * x + y * y >= 1.0 - 1e-12
    ]


def _is_hex(x: float, y: float) -> bool:
    return abs(x - 0.5) < 1e-12 and abs(y - Y_HEX) < 1e-12


def test_criterion_01_headline_constant():
    t0 = time.time()
    res = minimize_over_cell(hexagonal_lattice(), 1.0, 64)
    ok = abs(res.value.value - 0.920371) <= 5e-6
    _report(1, "hexagonal minimum at unit scale = 0.920371 +/- 5e-6", ok, time.time() - t0, 1.0)


def test_criterion_02_landau_identities():
    t0 = time.time()
    lc = app.landau_constants()
    ok = abs(lc.l_hex - 0.543259) <= 1e-6 and abs(lc.product - 0.5) < 1e-6
    _report(2, "gamma quotient 0.543259 +/- 1e-6 and product 1/2 +/- 1e-6", ok, time.time() - t0, 1.0)


def test_criterion_03_frame_bound_ratios():
    t0 = time.time()
    square = app.gabor_frame_bounds(0.0, 1.0, 2, grid_n=64)
    hexa = app.gabor_frame_bounds(0.5, Y_HEX, 2, grid_n=64)
    ok = abs(square.ratio - math.sqrt(2.0)) <= 1e-9
    ok &= abs(hexa.ratio - 2.0 ** (1.0 / 3.0)) <= 1e-6
    _report(3, "density-2 ratios: square sqrt(2) +/- 1e-9, hexagonal 2^(1/3) +/- 1e-6",
            ok, time.time() - t0, 10.0)


def test_criterion_04_main_sweep_dominance():
    t0 = time.time()
    rng = np.random.default_rng(42)
    hexl = hexagonal_lattice()
    cells = [c for c in _domain_grid(21, 2.5) if not _is_hex(*c)]
    lattices = [lattice_from_tau(x, y) for x, y in cells]
    lattices += [random_domain_lattice(rng, min_dist_from_hex=0.05) for _ in range(50)]
    origin = PhasePoint(0.0, 0.0)
    tight = TruncationPolicy(target_tol=1e-15)
    ok = True
    for alpha in ALPHAS:
        hex_min = minimize_over_cell(hexl, alpha, 48).value
        hex_origin = lattice_gaussian_sum(hexl, origin, alpha, tight)
        for lat in lattices:
            mn = minimize_over_cell(lat, alpha, 32).value
            margin = hex_min.value - mn.value
            ok &= margin > hex_min.tail_bound + mn.tail_bound
            e0 = lattice_gaussian_sum(lat, origin, alpha, tight)
            dual_margin = e0.value - hex_origin.value
            ok &= dual_margin > e0.tail_bound + hex_origin.tail_bound
            if not ok:
                print(f"  first failure at ({lat.x}, {lat.y}), alpha={alpha}")
                break
        if not ok:
            break
    _report(4, "hexagonal max-min and min-max dominance on 21x21 grid + 50 random x 6 alphas",
            ok, time.time() - t0, 600.0)


def test_criterion_05_baernstein_argmin():
    t0 = time.time()
    hexl = hexagonal_lattice()
    ok = True
    for alpha in ALPHAS:
        res = minimize_over_cell(hexl, alpha, 64)
        ok &= abs(res.argmin.u - 1.0 / 3.0) < 1e-6
        ok &= abs(res.argmin.v - 1.0 / 3.0) < 1e-6
    _report(5, "hexagonal argmin within 1e-6 of (1/3, 1/3) for all six alphas",
            ok, time.time() - t0, 30.0)


def test_criterion_06_functional_equation_suite():
    t0 = time.time()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        lat = random_domain_lattice(rng)
        b = PhasePoint(rng.uniform(0, 1), rng.uniform(0, 1))
        alpha = rng.uniform(0.2, 5.0)
        worst = max(worst, functional_equation_residual(lat, b, alpha))
    _report(6, f"1000 random functional-equation residuals, max {worst:.2e} < 1e-9",
            worst < 1e-9, time.time() - t0, 60.0)


def test_criterion_07_lemma_suite():
    t0 = time.time()
    reports = pc.run_default_suite()
    ok = len(reports) >= 12 and all(r.passed for r in reports)
    ratio, attaining = pc.growth1_min_ratio()
    ok &= abs(ratio - 0.62) < 5e-3 and attaining == [(-1, 0), (0, -1), (0, 0)]
    extreme = pc.dominant_concavity_extreme()
    ok &= -0.895 < extreme <= -0.84
    _report(7, f"all {len(reports)} lemma reports pass (growth ratio {ratio:.4f})",
            ok, time.time() - t0, 120.0)


def test_criterion_08_printed_constants():
    t0 = time.time()
    ok = True
    for cid, printed in pc.PRINTED_CONSTANTS.items():
        decimals = len(str(printed).split(".")[1])
        ok &= abs(pc.tail_constant(cid) - printed) < 10.0 ** (-decimals)
    _report(8, "six printed series constants reproduced to all printed places",
            ok, time.time() - t0, 5.0)


def test_criterion_09_heat_kernel_extremality():
    t0 = time.time()
    rng = np.random.default_rng(11)
    cells = _domain_grid(11, 2.5)
    assert any(_is_hex(*c) for c in cells)
    ok = True
    for t in (0.05, 0.08, 0.2):
        rows = {}
        for x, y in cells:
            low, high = app.temperature_extremes(lattice_from_tau(x, y), t, grid_n=32)
            rows[(x, y)] = low.value, high
        a_hex, b_hex = rows[(0.5, Y_HEX)]
        for cell, (a, b) in rows.items():
            if _is_hex(*cell):
                continue
            ok &= a_hex.value - a_hex.tail_bound > a.value + a.tail_bound
            ok &= b.value - b.tail_bound > b_hex.value + b_hex.tail_bound
    for _ in range(100):
        lat = random_domain_lattice(rng)
        z = PhasePoint(rng.uniform(0, 1), rng.uniform(0, 1))
        t = rng.uniform(0.02, 1.0)
        g = app.heat_kernel_torus(lat, z, t, route="gaussian")
        s = app.heat_kernel_torus(lat, z, t, route="spectral")
        ok &= abs(g.value - s.value) <= g.tail_bound + s.tail_bound + 1e-13
    _report(9, "hexagonal torus extremal at t in {0.05, 0.08, 0.2}; 100 two-route probes",
            ok, time.time() - t0, 120.0)


def test_criterion_10_epstein_cm():
    t0 = time.time()
    rng = np.random.default_rng(13)
    ok = True
    probes = [(1.5, 2500.0)] * 4 + [(2.0, 800.0)] * 8 + [(3.0, 250.0)] * 8
    pol = TruncationPolicy(target_tol=1e-9)
    for s, cap in probes:
        lat = random_domain_lattice(rng, y_max=1.8)
        z = PhasePoint(rng.uniform(0.15, 0.85), rng.uniform(0.15, 0.85))
        direct = app.epstein_zeta_shifted(lat, z, s, pol, method="direct", radius_cap=cap)
        quad = app.epstein_zeta_shifted(lat, z, s, pol, method="quadrature")
        ok &= abs(direct.value - quad.value) < 1e-6
    cells = _domain_grid(11, 2.5)
    for s in (1.5, 2.0, 3.0):
        minima = dict(app.epstein_min_sweep(cells, s, grid_n=20))
        hex_min = minima.pop((0.5, Y_HEX)).value
        for r in minima.values():
            ok &= hex_min.value - hex_min.tail_bound > r.value.value + r.value.tail_bound
    _report(10, "zeta two-route agreement at 20 probes; hexagonal max-min at s in {1.5, 2, 3}",
            ok, time.time() - t0, 300.0)


def test_criterion_11_born_charges():
    t0 = time.time()
    rng = np.random.default_rng(17)
    hexl = hexagonal_lattice()
    eps = app.epsilon_opt_hexagonal(3)
    ok = abs(float(np.sum(eps.weights))) < 1e-12
    ok &= abs(float(np.sum(eps.weights**2)) - 9.0) < 1e-12
    p = app.CMPotential.gaussian(1.0)
    table, converged = app.born_interaction_table(hexl, 3, p)
    ok &= converged
    e_opt = app.born_energy_from_table(table, eps)

    m1, m2 = np.meshgrid(np.arange(3), np.arange(3), indexing="ij")
    masks = [(m2 - m1) % 3 == c for c in range(3)]
    for bits in itertools.product((0, 1), repeat=9):
        pattern = np.array(bits, dtype=bool).reshape(3, 3)
        if pattern.all() or not pattern.any():
            continue
        n_pos = int(pattern.sum())
        n_neg = 9 - n_pos
        w = np.where(pattern, n_neg, -n_pos) / math.sqrt(n_pos * n_neg)
        e_c = app.born_energy_from_table(table, app.ChargeDistribution(3, w * 1.0))
        if any(np.array_equal(pattern, m) or np.array_equal(pattern, ~m) for m in masks):
            ok &= abs(e_c - e_opt) < 1e-12
        else:
            ok &= e_c > e_opt + 1e-9
    for _ in range(200):
        w = rng.normal(size=(3, 3))
        w -= w.mean()
        norm = math.sqrt(float(np.sum(w * w)))
        if norm < 1e-9:
            continue
        w *= 3.0 / norm
        ok &= app.born_energy_from_table(table, app.ChargeDistribution(3, w)) >= e_opt - 1e-12
    _report(11, "honeycomb charges: exact constraints, beat sign patterns and 200 random",
            ok, time.time() - t0, 120.0)
