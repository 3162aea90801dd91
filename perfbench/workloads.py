"""The four benchmark workloads: seeded inputs, one library call sequence
per item, and the correctness gate for every item.

A workload's job for seed ``s`` is a fixed list of items generated from
``numpy.random.default_rng(s)`` before it is timed, so the library only
ever sees the generated inputs.  ``run``
executes one item; ``check`` returns one pass flag per item of a job;
``mutants`` yields deliberately wrong outputs that ``check`` must catch.

Library functions are looked up on their modules at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import math
from typing import NamedTuple

import numpy as np

from latsum import applications, lattice, optimize, proofcheck, theta

Y_HEX = math.sqrt(3.0) / 2.0
ALPHAS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
ORIGIN = lattice.PhasePoint(0.0, 0.0)
# float-rounding slack for comparing two independently summed routes:
# 1e-13 of the larger magnitude (at least 1), as acceptance criterion 9
ROUNDING = 1e-13


def domain_grid(n: int, y_hi: float) -> list[tuple[float, float]]:
    """The n x n shape grid of the acceptance tests, cut to the domain."""
    xs = np.linspace(0.0, 0.5, n)
    ys = np.linspace(Y_HEX, y_hi, n)
    return [
        (float(x), float(y))
        for x in xs
        for y in ys
        if x * x + y * y >= 1.0 - 1e-12
    ]


def is_hex(x: float, y: float) -> bool:
    return abs(x - 0.5) < 1e-12 and abs(y - Y_HEX) < 1e-12


def random_domain_shape(rng, y_max=2.5, min_dist_from_hex=0.0) -> tuple[float, float]:
    """Uniform (x, y) in the right half fundamental domain below y_max."""
    while True:
        x = rng.uniform(0.0, 0.5)
        y = rng.uniform(Y_HEX, y_max)
        if x * x + y * y < 1.0:
            continue
        if math.hypot(x - 0.5, y - Y_HEX) < min_dist_from_hex:
            continue
        return float(x), float(y)


def stratified_domain_shapes(rng, n, y_max, min_dist_from_hex=0.0) -> list[tuple[float, float]]:
    """n shapes in the right half fundamental domain below y_max, the k-th
    with y uniform in the k-th of n equal strata of [sqrt(3)/2, y_max] and
    x uniform where (x, y) lies in the domain.  The cost of a sum grows
    with y, so stratifying y keeps a job's total cost nearly the same from
    seed to seed while every shape still comes from the seed."""
    shapes = []
    step = (y_max - Y_HEX) / n
    for k in range(n):
        while True:
            y = rng.uniform(Y_HEX + k * step, Y_HEX + (k + 1) * step)
            x = rng.uniform(math.sqrt(max(0.0, 1.0 - y * y)), 0.5)
            if math.hypot(x - 0.5, y - Y_HEX) >= min_dist_from_hex:
                shapes.append((float(x), float(y)))
                break
    return shapes


def _agree(a, b) -> bool:
    """Two certified values agree within their tails plus rounding slack."""
    slack = ROUNDING * max(1.0, abs(a.value), abs(b.value))
    return abs(a.value - b.value) <= a.tail_bound + b.tail_bound + slack


def _bumped(cv, delta):
    return dataclasses.replace(cv, value=cv.value + delta)


class Workload:
    name = ""
    why = ""
    # untraced runs repeat an item within a round until it has taken this
    # long; 0 runs every item once per round
    min_item_s = 0.0

    def __init__(self, tiny: bool = False) -> None:
        self.tiny = tiny

    def job(self, seed: int) -> list:
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def check(self, items: list, outputs: list) -> list[bool]:
        raise NotImplementedError

    def final_check(self, items: list, outputs: list) -> list[bool]:
        """Checks made once after timing, on job 0; all pass by default."""
        return [True] * len(items)

    def mutants(self, items: list, outputs: list):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# domain_sweep: torus minimization across fundamental-domain shapes
# ---------------------------------------------------------------------------

class DomainItem(NamedTuple):
    x: float
    y: float
    alpha: float


class DomainSweep(Workload):
    """Acceptance criterion 4: for each alpha, the hexagonal minimum at grid
    48 dominates every other shape's minimum at grid 32 (max-min), and
    every other shape's E(0) at tol 1e-15 dominates the hexagonal one
    (min-max).  The grid is fixed; the random shapes come from the seed."""

    name = "domain_sweep"
    why = "torus minimization over domain shapes x six alphas; grid scan, polish and batch evaluators"

    tight = theta.TruncationPolicy(target_tol=1e-15)

    def job(self, seed):
        rng = np.random.default_rng(seed)
        grid_n, n_random = (3, 2) if self.tiny else (5, 10)
        shapes = [c for c in domain_grid(grid_n, 2.5) if not is_hex(*c)]
        shapes += stratified_domain_shapes(rng, n_random, 2.5, min_dist_from_hex=0.05)
        alphas = (1.0, 4.0) if self.tiny else ALPHAS
        items = []
        for alpha in alphas:
            items.append(DomainItem(0.5, Y_HEX, alpha))
            items += [DomainItem(x, y, alpha) for x, y in shapes]
        return items

    def run(self, item):
        if is_hex(item.x, item.y):
            lat = lattice.hexagonal_lattice()
            grid = 48
        else:
            lat = lattice.lattice_from_tau(item.x, item.y)
            grid = 32
        res = optimize.minimize_over_cell(lat, item.alpha, grid)
        e0 = theta.lattice_gaussian_sum(lat, ORIGIN, item.alpha, self.tight)
        return res, e0

    def check(self, items, outputs):
        hex_out = {
            it.alpha: out for it, out in zip(items, outputs) if is_hex(it.x, it.y)
        }
        ok = []
        for it, out in zip(items, outputs):
            ref = hex_out.get(it.alpha)
            if out is None or ref is None:
                ok.append(False)
                continue
            res, e0 = out
            if is_hex(it.x, it.y):
                ok.append(
                    abs(res.argmin.u - 1.0 / 3.0) < 1e-6
                    and abs(res.argmin.v - 1.0 / 3.0) < 1e-6
                )
                continue
            hex_min, hex_e0 = ref[0].value, ref[1]
            margin = hex_min.value - res.value.value
            dual_margin = e0.value - hex_e0.value
            ok.append(
                margin > hex_min.tail_bound + res.value.tail_bound
                and dual_margin > e0.tail_bound + hex_e0.tail_bound
            )
        return ok

    def mutants(self, items, outputs):
        i_hex = next(i for i, it in enumerate(items) if is_hex(it.x, it.y))
        i_shape = i_hex + 1
        res, e0 = outputs[i_hex]
        moved = dataclasses.replace(
            res, argmin=lattice.PhasePoint(res.argmin.u + 1e-5, res.argmin.v)
        )
        yield "hexagonal argmin off (1/3, 1/3)", {i_hex: (moved, e0)}, i_hex
        res, e0 = outputs[i_shape]
        hex_min = outputs[i_hex][0].value.value
        raised = dataclasses.replace(res, value=_bumped(res.value, hex_min - res.value.value))
        yield "shape minimum reaching the hexagonal one", {i_shape: (raised, e0)}, i_shape
        hex_e0 = outputs[i_hex][1].value
        yield "shape E(0) below the hexagonal one", {
            i_shape: (res, _bumped(e0, hex_e0 - e0.value))
        }, i_shape


# ---------------------------------------------------------------------------
# pointwise_mix: one-shot certified evaluations
# ---------------------------------------------------------------------------

class Probe(NamedTuple):
    tau: complex  # a random modular image of the domain point (x0, y0)
    x0: float
    y0: float
    u: float
    v: float
    alpha: float
    t: float


class PointwiseMix(Workload):
    """Acceptance criteria 6 and 9 as one-shot calls.  Each item reduces a
    random tau into D+ and evaluates every pointwise sum at one shift:
    both routes of the Gaussian sum and of the heat kernel, the shifted
    and charged families, and the functional-equation residual."""

    name = "pointwise_mix"
    why = "one-shot certified pointwise sums on both routes; fixed per-call overhead, no batch evaluator"
    sample = 10  # probes of job 0 checked against 40-digit sums

    def job(self, seed):
        rng = np.random.default_rng(seed)
        probes = []
        for _ in range(12 if self.tiny else 150):
            x0, y0 = random_domain_shape(rng)
            tau = complex(x0, y0)
            for _ in range(int(rng.integers(1, 4))):
                tau = -1.0 / tau + int(rng.integers(-2, 3))
            probes.append(Probe(
                tau, x0, y0,
                float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 1.0)),
                float(math.exp(rng.uniform(math.log(0.2), math.log(5.0)))),
                float(rng.uniform(0.02, 1.0)),
            ))
        return probes

    def run(self, p):
        red = lattice.reduce_to_fundamental(p.tau)
        lat = lattice.lattice_from_tau(red.tau_out.real, red.tau_out.imag)
        b = lattice.PhasePoint(p.u, p.v)
        return (
            red.tau_out,
            theta.theta_shifted(lat, b, p.alpha),
            theta.theta_charged(lat, b, p.alpha),
            theta.lattice_gaussian_sum(lat, b, p.alpha, use_functional_equation=False),
            theta.lattice_gaussian_sum(lat, b, p.alpha, use_functional_equation=True),
            applications.heat_kernel_torus(lat, b, p.t, route="gaussian"),
            applications.heat_kernel_torus(lat, b, p.t, route="spectral"),
            theta.functional_equation_residual(lat, b, p.alpha),
        )

    def check(self, items, outputs):
        ok = []
        for p, out in zip(items, outputs):
            if out is None:
                ok.append(False)
                continue
            tau, shifted, _, direct, dual, heat_g, heat_s, residual = out
            ok.append(
                abs(tau.real - p.x0) <= 1e-9
                and abs(tau.imag - p.y0) <= 1e-9
                and _agree(shifted, direct)
                and _agree(direct, dual)
                and _agree(heat_g, heat_s)
                and residual < 1e-9
            )
        return ok

    def final_check(self, items, outputs):
        ok = [True] * len(items)
        for i in range(min(self.sample, len(items))):
            out = outputs[i]
            if out is None:
                ok[i] = False
                continue
            p = items[i]
            tau, shifted, charged, direct = out[:4]
            ref_s = _mp_sum(tau.real, tau.imag, p.alpha, shift=(p.u, p.v))
            ref_c = _mp_sum(tau.real, tau.imag, p.alpha, charge=(p.u, p.v))
            ok[i] = all(
                abs(cv.value - ref) <= cv.tail_bound + ROUNDING * max(1.0, abs(ref))
                for cv, ref in ((shifted, ref_s), (direct, ref_s), (charged, ref_c))
            )
        return ok

    def mutants(self, items, outputs):
        out = outputs[0]
        tau = out[0]

        def swap(i, value):
            return {0: out[:i] + (value,) + out[i + 1:]}

        yield "reduced tau off the domain point", swap(0, tau + 1e-6), 0
        yield "shifted family off the Gaussian sum", swap(1, _bumped(out[1], 1e-9)), 0
        yield "dual route off the direct route", swap(4, _bumped(out[4], 1e-9)), 0
        yield "spectral heat kernel off the Gaussian one", swap(6, _bumped(out[6], 1e-9)), 0
        yield "functional-equation residual too large", swap(7, 1e-6), 0
        yield "charged family off the 40-digit sum", swap(2, _bumped(out[2], 1e-9)), 0


def _mp_sum(x, y, alpha, shift=(0.0, 0.0), charge=(0.0, 0.0)):
    """40-digit sum of exp(-pi alpha Q) cos(2 pi (k c2 - l c1)) over the
    lattice of shape (x, y), Q = |gen (k + s1, l + s2)|^2.  Terms with
    Q > R^2, exp(-pi alpha R^2) = 1e-34, are left out; for shapes with
    y <= 2.5 they sum to far below 1e-25.  mpmath is imported here, after
    timing, so that it stays out of the timed process state."""
    import mpmath

    mp = mpmath.mp
    with mpmath.workdps(40):
        x, y, alpha = mp.mpf(x), mp.mpf(y), mp.mpf(alpha)
        s1, s2 = mp.mpf(shift[0]), mp.mpf(shift[1])
        c1, c2 = mp.mpf(charge[0]), mp.mpf(charge[1])
        r = mp.sqrt(34 * mp.log(10) / (mp.pi * alpha))
        sy = mp.sqrt(y)
        l_max = int(mp.ceil(r / sy)) + 1
        total = mp.mpf(0)
        for l in range(-l_max, l_max + 1):
            w = l + s2
            mid = -(x * w) - s1
            half = r * sy
            for k in range(int(mp.floor(mid - half)) - 1, int(mp.ceil(mid + half)) + 2):
                q = (k + s1 + x * w) ** 2 / y + y * w * w
                term = mp.exp(-mp.pi * alpha * q)
                if c1 or c2:
                    term *= mp.cos(2 * mp.pi * (k * c2 - l * c1))
                total += term
        return float(total)


# ---------------------------------------------------------------------------
# energy_apps: shifted Epstein zeta, CM energies, frame bounds, Born energies
# ---------------------------------------------------------------------------

class ZetaItem(NamedTuple):
    method: str
    s: float
    cap: float
    x: float
    y: float
    u: float
    v: float


class CMItem(NamedTuple):
    x: float
    y: float


class FrameItem(NamedTuple):
    x: float
    y: float


class BornItem(NamedTuple):
    weights: tuple | None  # None: the honeycomb pattern


class EnergyApps(Workload):
    """Acceptance criteria 3, 10 and 11.  Zeta probes on both routes at
    criterion 10's radius caps and tol 1e-9; Riesz CM energy minima on
    the hexagon and two grid shapes; density-2 frame bounds of the square
    and hexagon; honeycomb and random charge energies."""

    name = "energy_apps"
    why = "shifted Epstein zeta on both routes, CM minimization, frame bounds, Born energies"

    pol = theta.TruncationPolicy(target_tol=1e-9)
    # (s, radius cap, probes per job): criterion 10's caps and 8 + 8 probes
    # at s = 3 and 2; six at s = 1.5 rather than four, so that the direct
    # route at s = 1.5 is more than a tenth of the items and sets p90
    zeta_probes = ((3.0, 250.0, 8), (2.0, 800.0, 8), (1.5, 2500.0, 6))
    riesz_s = 2.0

    def job(self, seed):
        rng = np.random.default_rng(seed)
        items = []
        for s, cap, count in self.zeta_probes:
            for x, y in stratified_domain_shapes(rng, 1 if self.tiny else count, 1.8):
                u, v = (float(c) for c in rng.uniform(0.15, 0.85, 2))
                items.append(ZetaItem("direct", s, cap, x, y, u, v))
                items.append(ZetaItem("quadrature", s, cap, x, y, u, v))
        cells = [c for c in domain_grid(11, 2.5) if not is_hex(*c)]
        picks = rng.choice(len(cells), size=1 if self.tiny else 2, replace=False)
        items.append(CMItem(0.5, Y_HEX))
        items += [CMItem(*cells[int(j)]) for j in picks]
        items += [FrameItem(0.0, 1.0), FrameItem(0.5, Y_HEX)]
        items.append(BornItem(None))
        for _ in range(1 if self.tiny else 2):
            w = rng.normal(size=(3, 3))
            w -= w.mean()
            w *= 3.0 / math.sqrt(float(np.sum(w * w)))
            items.append(BornItem(tuple(map(tuple, w))))
        return items

    def run(self, item):
        if isinstance(item, ZetaItem):
            lat = lattice.lattice_from_tau(item.x, item.y)
            z = lattice.PhasePoint(item.u, item.v)
            if item.method == "direct":
                return applications.epstein_zeta_shifted(
                    lat, z, item.s, self.pol, method="direct", radius_cap=item.cap
                )
            return applications.epstein_zeta_shifted(lat, z, item.s, self.pol, method="quadrature")
        if isinstance(item, CMItem):
            p = applications.CMPotential.riesz(2.0 * self.riesz_s, tol=1e-9)
            return applications.minimize_cm_energy(p, lattice.lattice_from_tau(item.x, item.y), 20)
        if isinstance(item, FrameItem):
            return applications.gabor_frame_bounds(item.x, item.y, 2, grid_n=64)
        if item.weights is None:
            eps = applications.epsilon_opt_hexagonal(3)
        else:
            eps = applications.ChargeDistribution(3, np.array(item.weights))
        return applications.born_energy(
            lattice.hexagonal_lattice(), eps, applications.CMPotential.gaussian(1.0)
        )

    def check(self, items, outputs):
        ok = [out is not None for out in outputs]
        cm_hex = born_opt = None
        for it, out in zip(items, outputs):
            if out is None:
                continue
            if isinstance(it, CMItem) and is_hex(it.x, it.y):
                cm_hex = out[1]
            elif isinstance(it, BornItem) and it.weights is None:
                born_opt = out
        for i, (it, out) in enumerate(zip(items, outputs)):
            if out is None:
                continue
            if isinstance(it, ZetaItem) and it.method == "direct":
                other = outputs[i + 1]
                ok[i] = other is not None and abs(out.value - other.value) < 1e-6
                ok[i + 1] = ok[i + 1] and ok[i]
            elif isinstance(it, CMItem) and not is_hex(it.x, it.y):
                ok[i] = cm_hex is not None and out[1] < cm_hex
            elif isinstance(it, FrameItem):
                want, tol = (math.sqrt(2.0), 1e-9) if it.x == 0.0 else (2.0 ** (1.0 / 3.0), 1e-6)
                ok[i] = abs(out.ratio - want) <= tol
            elif isinstance(it, BornItem) and it.weights is not None:
                ok[i] = born_opt is not None and out >= born_opt - 1e-12
        return ok

    def mutants(self, items, outputs):
        i_zeta = next(i for i, it in enumerate(items) if isinstance(it, ZetaItem))
        yield "zeta routes 2e-6 apart", {i_zeta: _bumped(outputs[i_zeta], 2e-6)}, i_zeta
        i_cm = next(i for i, it in enumerate(items) if isinstance(it, CMItem) and not is_hex(it.x, it.y))
        i_hex = next(i for i, it in enumerate(items) if isinstance(it, CMItem) and is_hex(it.x, it.y))
        argmin, _ = outputs[i_cm]
        yield "shape CM minimum above the hexagon's", {
            i_cm: (argmin, outputs[i_hex][1] + 1e-9)
        }, i_cm
        i_frame = next(i for i, it in enumerate(items) if isinstance(it, FrameItem))
        fb = outputs[i_frame]
        yield "square frame ratio off sqrt(2)", {
            i_frame: dataclasses.replace(fb, upper_B=fb.upper_B * (1.0 + 1e-8))
        }, i_frame
        i_born = next(i for i, it in enumerate(items) if isinstance(it, BornItem) and it.weights)
        i_opt = next(i for i, it in enumerate(items) if isinstance(it, BornItem) and not it.weights)
        yield "random charges beating the honeycomb", {i_born: outputs[i_opt] - 1e-9}, i_born


# ---------------------------------------------------------------------------
# lemma_suite: the proofcheck checkers
# ---------------------------------------------------------------------------

def suite_checkers() -> list[str]:
    """Names of the checkers ``run_default_suite`` calls, in its order."""
    tree = ast.parse(inspect.getsource(proofcheck.run_default_suite))
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    ]
    calls.sort(key=lambda node: (node.lineno, node.col_offset))
    return [node.func.id for node in calls]


class LemmaSuite(Workload):
    """Acceptance criterion 7: every default lemma checker, one item each."""

    name = "lemma_suite"
    why = "the 16 proofcheck lemma checkers in suite order; check_alpha_thresholds dominates"
    # check_alpha_thresholds is ~90 % of a ~6 s round, so a run has only a
    # few rounds; the fast checkers are repeated within a round so that
    # their latencies rest on enough samples
    min_item_s = 0.05

    def __init__(self, tiny: bool = False) -> None:
        super().__init__(tiny)
        self.checkers = suite_checkers()

    def job(self, seed):
        # the suite has no random inputs; the tiny job skips the two
        # slowest checkers
        if self.tiny:
            return [c for c in self.checkers if c not in (
                "check_alpha_thresholds", "check_charged_concavity_small_alpha")]
        return list(self.checkers)

    def run(self, name):
        return getattr(proofcheck, name)()

    def check(self, items, outputs):
        return [out is not None and out.passed for out in outputs]

    def mutants(self, items, outputs):
        failed = dataclasses.replace(outputs[0], worst_margin=-1e-12)
        yield "a lemma report with negative margin", {0: failed}, 0


WORKLOADS = {w.name: w for w in (DomainSweep, PointwiseMix, EnergyApps, LemmaSuite)}
