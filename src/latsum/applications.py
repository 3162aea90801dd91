"""Downstream computations on top of the Gaussian lattice sums:
Gabor frame bounds, heat kernels on flat tori, completely monotone
lattice energies (shifted Epstein zeta), periodic charge energies, and
the disc-covering constants tied to the hexagonal minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConstraintViolated,
    EmptyQuadrature,
    NonPositiveT,
    NotMultipleOfThree,
    PoleAtLatticePoint,
    UnsupportedDensity,
)
from .lattice import (
    Frame,
    Lattice,
    PhasePoint,
    hexagonal_lattice,
    lattice_from_generator,
    lattice_from_tau,
    reduce_to_fundamental,
    square_lattice,
)
from .optimize import minimize_over_cell, minimize_torus
from .theta import (
    DEFAULT_POLICY,
    CertifiedValue,
    ChargedSumEvaluator,
    ShiftedSumEvaluator,
    TruncationPolicy,
    _box_ranges,
    _cell_half_diameter,
    lattice_gaussian_sum,
    theta_charged,
)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Gabor frame bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrameBounds:
    lower_A: float
    upper_B: float
    density: int
    argmin_z: PhasePoint

    @property
    def ratio(self) -> float:
        return self.upper_B / self.lower_A


def gabor_frame_bounds(
    x: float,
    y: float,
    density: int,
    pol: TruncationPolicy = DEFAULT_POLICY,
    grid_n: int = 48,
) -> FrameBounds:
    """Sharp frame bounds of the Gaussian system on the (x, y)-shaped
    lattice of the given even density.

    The bounds are the extremes of the charged sum over the adjoint
    lattice: with density 2n, that sum reduces to the unit-covolume
    charged family at scale n, so A = density * min_b and
    B = density * value at b = 0 (the maximum sits at zero charge).
    """
    if density < 2 or density % 2 != 0:
        raise UnsupportedDensity(
            f"density must be a positive even integer, got {density}"
        )
    n = density // 2
    lat = lattice_from_tau(x, y)
    ev = ChargedSumEvaluator(lat, float(n), pol)
    point, _, _ = minimize_torus(ev.values_centered, grid_n, ev.derivatives_centered)
    argmin = PhasePoint(float(point[0]), float(point[1]), Frame.LATTICE)
    min_val = theta_charged(lat, argmin, float(n), pol).value
    max_val = theta_charged(lat, PhasePoint(0.0, 0.0), float(n), pol).value
    return FrameBounds(
        lower_A=density * min_val,
        upper_B=density * max_val,
        density=density,
        argmin_z=argmin,
    )


@dataclass(frozen=True)
class FrameSweepRecord:
    x: float
    y: float
    lower_A: float
    upper_B: float
    ratio: float


def strohmer_beaver_sweep(
    density: int,
    lattice_grid: list[tuple[float, float]],
    pol: TruncationPolicy = DEFAULT_POLICY,
    grid_n: int = 32,
) -> list[FrameSweepRecord]:
    """Frame-bound ratio per lattice shape; the hexagon minimizes it."""
    records = []
    for x, y in lattice_grid:
        fb = gabor_frame_bounds(x, y, density, pol, grid_n)
        records.append(FrameSweepRecord(x, y, fb.lower_A, fb.upper_B, fb.ratio))
    return records


# ---------------------------------------------------------------------------
# Heat kernel on a flat torus
# ---------------------------------------------------------------------------

def heat_kernel_torus(
    lattice: Lattice,
    z: PhasePoint,
    t: float,
    pol: TruncationPolicy = DEFAULT_POLICY,
    route: str = "gaussian",
) -> CertifiedValue:
    """Heat kernel k(z; t) on the torus defined by the lattice.

    The Gaussian route sums translates directly,
    k = E(z; 1/(4 pi t)) / (4 pi t); the spectral route sums the dual
    cosine series.  Both carry certified tails and must agree.
    """
    if t <= 0:
        raise NonPositiveT(f"t must be positive, got {t}")
    if route not in ("gaussian", "spectral"):
        raise ValueError(f"unknown route {route!r}")
    alpha = 1.0 / (4.0 * math.pi * t)
    # k = alpha * E, so E is asked for tol / alpha
    pol = replace(pol, target_tol=pol.target_tol / alpha)
    inner = lattice_gaussian_sum(lattice, z, alpha, pol, route == "spectral")
    return CertifiedValue(
        inner.value * alpha, inner.tail_bound * alpha, inner.terms_used, inner.converged
    )


def temperature_extremes(
    lattice: Lattice,
    t: float,
    pol: TruncationPolicy = DEFAULT_POLICY,
    grid_n: int = 48,
) -> tuple[float, float]:
    """(min, max) torus temperature at time t; the max sits at the origin."""
    if t <= 0:
        raise NonPositiveT(f"t must be positive, got {t}")
    alpha = 1.0 / (4.0 * math.pi * t)
    res = minimize_over_cell(lattice, alpha, grid_n, pol)
    at_origin = lattice_gaussian_sum(lattice, PhasePoint(0.0, 0.0), alpha, pol)
    return res.value.value * alpha, at_origin.value * alpha


# ---------------------------------------------------------------------------
# Completely monotone potentials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CMPotential:
    """Nonnegative mixture of Gaussians in squared distance.

    ``p(rho) = sum_j weight_j * exp(-pi alpha_j rho)``; nonnegative
    weights keep the potential completely monotone.
    """

    nodes: tuple[tuple[float, float], ...]
    label: str = ""

    def __post_init__(self) -> None:
        for alpha, weight in self.nodes:
            if alpha <= 0:
                raise ValueError("quadrature nodes need alpha > 0")
            if weight < 0:
                raise ValueError("quadrature weights must be nonnegative")

    def kernel(self, rho) -> np.ndarray:
        """Evaluate p on an array of squared distances."""
        rho = np.asarray(rho, dtype=float)
        out = np.zeros_like(rho)
        for alpha, weight in self.nodes:
            out += weight * np.exp(-math.pi * alpha * rho)
        return out

    def at_zero(self) -> float:
        return math.fsum(w for _, w in self.nodes)

    @staticmethod
    def gaussian(alpha: float, weight: float = 1.0, label: str = "") -> "CMPotential":
        return CMPotential(((alpha, weight),), label or f"gaussian(alpha={alpha})")

    @staticmethod
    def riesz(s: float, tol: float = 1e-10, rho_min: float = 0.05) -> "CMPotential":
        """Inverse power of the distance: p(rho) = rho**(-s/2).

        Discretizes the Gaussian mixture representation of the Riesz
        kernel by the trapezoid rule in log scale, which converges
        doubly exponentially.  Accurate to about ``tol`` relatively for
        squared distances above ``rho_min``.
        """
        if s <= 2.0:
            raise ValueError("need s > 2 for a summable planar Riesz potential")
        se = s / 2.0  # exponent on the squared distance
        c = math.pi**se / math.gamma(se)
        log_tol = math.log(1.0 / tol)
        u_hi = math.log((log_tol + 8.0) / (math.pi * rho_min))
        u_lo = (math.log(tol * 0.1 * (se - 1.0) / c)) / (se - 1.0)
        h = math.pi**2 / (log_tol + 12.0)
        count = int(math.ceil((u_hi - u_lo) / h)) + 1
        us = u_lo + h * np.arange(count)
        nodes = tuple(
            (float(math.exp(u)), float(h * c * math.exp(se * u))) for u in us
        )
        return CMPotential(nodes, label=f"riesz(s={s})")


def _node_policy(pol: TruncationPolicy, n: int, weight: float) -> TruncationPolicy:
    """Policy for one of n nodes, so that the weighted node tails sum to at most pol's."""
    return TruncationPolicy(pol.target_tol / (n * max(weight, 1e-300)), pol.max_radius)


def cm_lattice_energy(
    p: CMPotential,
    lattice: Lattice,
    z: PhasePoint,
    pol: TruncationPolicy = DEFAULT_POLICY,
) -> CertifiedValue:
    """Lattice energy sum_points p(|point + z|^2) via the node mixture."""
    if not p.nodes:
        raise EmptyQuadrature("potential has no quadrature nodes")
    n = len(p.nodes)
    value = 0.0
    tail = 0.0
    terms = 0
    converged = True
    for alpha, weight in p.nodes:
        e = lattice_gaussian_sum(lattice, z, alpha, _node_policy(pol, n, weight))
        value += weight * e.value
        tail += weight * e.tail_bound
        terms += e.terms_used
        converged &= e.converged
    return CertifiedValue(value, tail, terms, converged)


def _shortest_dual_sq(lattice: Lattice) -> float:
    """Squared length of the shortest nonzero dual vector: 1/(y covol) for
    the reduced shape y, which the dual shares, at dual covolume 1/covol."""
    return 1.0 / (reduce_to_fundamental(lattice.tau).tau_out.imag * lattice.covolume)


class CMEnergyEvaluator:
    """Batch evaluator for a completely monotone lattice energy.

    Nodes whose Gaussians are flat across the torus at working
    precision only shift the energy by a constant and are folded into
    ``value_offset``.
    """

    def __init__(
        self,
        p: CMPotential,
        lattice: Lattice,
        pol: TruncationPolicy = DEFAULT_POLICY,
    ) -> None:
        if not p.nodes:
            raise EmptyQuadrature("potential has no quadrature nodes")
        shortest_dual_sq = _shortest_dual_sq(lattice)
        covol = lattice.covolume
        self.value_offset = 0.0
        self._parts: list[tuple[float, ShiftedSumEvaluator]] = []
        self.tail_bound = 0.0
        n = len(p.nodes)
        for alpha, weight in p.nodes:
            if alpha < 1.0 and math.pi * shortest_dual_sq / alpha > 45.0:
                # frequency side is a single constant at working precision
                self.value_offset += weight / (alpha * covol)
                continue
            ev = ShiftedSumEvaluator(lattice, alpha, _node_policy(pol, n, weight))
            self.value_offset += weight * ev.value_offset
            self.tail_bound += weight * ev.tail_bound
            self._parts.append((weight, ev))

    def values_centered(self, zs: np.ndarray) -> np.ndarray:
        zs = np.atleast_2d(np.asarray(zs, dtype=float))
        out = np.zeros(len(zs))
        for weight, ev in self._parts:
            out += weight * ev.values_centered(zs)
        return out

    def derivatives_centered(self, zs: np.ndarray) -> tuple[np.ndarray, ...]:
        """Centered values, gradients and Hessians: the weighted node sums."""
        zs = np.atleast_2d(np.asarray(zs, dtype=float))
        out = [np.zeros(len(zs)), np.zeros((len(zs), 2)), np.zeros((len(zs), 2, 2))]
        for weight, ev in self._parts:
            for acc, d in zip(out, ev.derivatives_centered(zs)):
                acc += weight * d
        return tuple(out)

    def values(self, zs: np.ndarray) -> np.ndarray:
        return self.value_offset + self.values_centered(zs)


def minimize_cm_energy(
    p: CMPotential,
    lattice: Lattice,
    grid_n: int = 24,
    pol: TruncationPolicy = DEFAULT_POLICY,
) -> tuple[PhasePoint, float]:
    """Argmin and minimum of the CM lattice energy over one torus cell."""
    ev = CMEnergyEvaluator(p, lattice, pol)
    point, _, _ = minimize_torus(ev.values_centered, grid_n, ev.derivatives_centered)
    argmin = PhasePoint(float(point[0]), float(point[1]), Frame.LATTICE)
    return argmin, cm_lattice_energy(p, lattice, argmin, pol).value


# ---------------------------------------------------------------------------
# Shifted Epstein zeta
# ---------------------------------------------------------------------------

def _nearest_lattice_distance_sq(lattice: Lattice, u: float, v: float) -> float:
    cands = []
    for du in (0.0, 1.0):
        for dv in (0.0, 1.0):
            vec = lattice.gen @ np.array([u - du, v - dv])
            cands.append(float(vec @ vec))
    return min(cands)


def epstein_zeta_shifted(
    lattice: Lattice,
    z: PhasePoint,
    s: float,
    pol: TruncationPolicy = DEFAULT_POLICY,
    method: str = "direct",
    radius_cap: float = 2500.0,
) -> CertifiedValue:
    """sum over the lattice of |point + z|^(-2s), for s > 1 and z off-lattice.

    ``direct`` sums a ball and adds the integral estimate of the tail;
    its certified bound comes from a rigorous perimeter-type count of
    lattice points in annuli; the ball's radius is capped at
    ``min(radius_cap, pol.max_radius)``, and a capped ball reports its
    honest tail.  ``quadrature`` routes the power kernel through its
    Gaussian mixture.
    """
    if s <= 1.0:
        raise ValueError("absolute convergence requires s > 1")
    zl = z.to_lattice(lattice).canonical()
    if _nearest_lattice_distance_sq(lattice, zl.u, zl.v) < 1e-24:
        raise PoleAtLatticePoint("shift point coincides with a lattice point")
    if method == "quadrature":
        p = CMPotential.riesz(2.0 * s, tol=min(pol.target_tol * 1e2, 1e-9))
        return cm_lattice_energy(p, lattice, zl, pol)
    if method != "direct":
        raise ValueError(f"unknown method {method!r}")

    gen = lattice.gen
    covol = lattice.covolume
    h = _cell_half_diameter(gen)
    coef = (4.0 * math.pi * h / covol) * (1.0 + 2.0 * s / (2.0 * s - 1.0))
    # the bound below is (coef + 2/R) R^(1-2s), and R >= 10 makes 2/R <= 0.2
    radius = ((coef + 0.2) / pol.target_tol) ** (1.0 / (2.0 * s - 1.0))
    radius = float(min(max(radius, 10.0 * h + 10.0), radius_cap, pol.max_radius))
    center = gen @ np.array([zl.u, zl.v])

    all_ks, ls = _box_ranges(gen, center, radius)
    base = ls * gen[0, 1] + center[0], ls * gen[1, 1] + center[1]
    total = 0.0
    count = 0
    r2 = radius * radius
    for k0 in range(0, len(all_ks), 256):
        ks = all_ks[k0 : k0 + 256]
        px = ks[:, None] * gen[0, 0] + base[0][None, :]
        py = ks[:, None] * gen[1, 0] + base[1][None, :]
        q = px * px + py * py
        mask = q <= r2
        total += float(np.sum(q[mask] ** (-s)))
        count += int(np.sum(mask))
    tail_estimate = (TWO_PI / covol) * radius ** (2.0 - 2.0 * s) / (2.0 * s - 2.0)
    certified = coef * radius ** (1.0 - 2.0 * s) + 2.0 * radius ** (-2.0 * s)
    value = total + tail_estimate
    return CertifiedValue(value, certified, count, certified <= pol.target_tol)


@dataclass(frozen=True)
class ZetaSweepRecord:
    x: float
    y: float
    s: float
    min_value: float
    argmin_u: float
    argmin_v: float


def epstein_min_sweep(
    lattice_grid: list[tuple[float, float]],
    s: float,
    grid_n: int = 24,
    pol: TruncationPolicy = DEFAULT_POLICY,
) -> list[ZetaSweepRecord]:
    """min_z of the shifted zeta across lattice shapes, via the mixture route."""
    p = CMPotential.riesz(2.0 * s, tol=1e-9)
    records = []
    for x, y in lattice_grid:
        lat = lattice_from_tau(x, y)
        argmin, value = minimize_cm_energy(p, lat, grid_n, pol)
        records.append(ZetaSweepRecord(x, y, s, value, argmin.u, argmin.v))
    return records


# ---------------------------------------------------------------------------
# Periodic charge energies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChargeDistribution:
    """N-periodic charge weights on the residue classes of a lattice."""

    period_N: int
    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.period_N, self.period_N):
            raise ConstraintViolated("weights must be an N x N array")
        object.__setattr__(self, "weights", w)

    def validate(self) -> None:
        w = self.weights
        if abs(float(np.sum(w))) > 1e-12:
            raise ConstraintViolated("charges must sum to zero (neutrality)")
        if abs(float(np.sum(w * w)) - self.period_N**2) > 1e-9:
            raise ConstraintViolated("squared charges must sum to N^2")


def epsilon_opt_hexagonal(n: int) -> ChargeDistribution:
    """Honeycomb charge pattern on the hexagonal lattice: sqrt(2) on the
    residues with m2 - m1 divisible by 3, -1/sqrt(2) elsewhere."""
    if n % 3 != 0 or n <= 0:
        raise NotMultipleOfThree(f"period must be a positive multiple of 3, got {n}")
    m1, m2 = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    pos = (m2 - m1) % 3 == 0
    weights = np.where(pos, math.sqrt(2.0), -1.0 / math.sqrt(2.0))
    return ChargeDistribution(period_N=n, weights=weights)


def born_interaction_table(
    lattice: Lattice,
    n: int,
    p: CMPotential,
    pol: TruncationPolicy = DEFAULT_POLICY,
) -> np.ndarray:
    """S[d1, d2] = sum over the n-scaled lattice of p(|gen (d1, d2) + point|^2).

    The pair interaction between residues a and b is S[(a - b) mod n].
    """
    if not p.nodes:
        raise EmptyQuadrature("potential has no quadrature nodes")
    big = lattice_from_generator(n * lattice.gen)
    table = np.zeros((n, n))
    for d1 in range(n):
        for d2 in range(n):
            z = PhasePoint(d1 / n, d2 / n, Frame.LATTICE)
            table[d1, d2] = cm_lattice_energy(p, big, z, pol).value
    return table


def born_energy_from_table(table: np.ndarray, eps: ChargeDistribution) -> float:
    """Charge energy per point given a precomputed interaction table."""
    n = eps.period_N
    w = eps.weights
    total = 0.0
    for a1 in range(n):
        for a2 in range(n):
            d1 = (a1 - np.arange(n)[:, None]) % n
            d2 = (a2 - np.arange(n)[None, :]) % n
            total += w[a1, a2] * float(np.sum(w * table[d1, d2]))
    return total / n**2


def born_energy(
    lattice: Lattice,
    eps: ChargeDistribution,
    p: CMPotential,
    pol: TruncationPolicy = DEFAULT_POLICY,
) -> float:
    """Charge energy per point of an N-periodic neutral distribution."""
    eps.validate()
    table = born_interaction_table(lattice, eps.period_N, p, pol)
    return born_energy_from_table(table, eps)


# ---------------------------------------------------------------------------
# Disc-covering constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LandauConstants:
    l_hex: float
    a_hex: float
    product: float
    l_square: float


def landau_constants(pol: TruncationPolicy = DEFAULT_POLICY) -> LandauConstants:
    """Gamma-quotient constant for the hexagon, the computed hexagonal
    minimum at scale 1, their product (1/2), and the square value."""
    l_hex = math.gamma(1.0 / 3.0) * math.gamma(5.0 / 6.0) / math.gamma(1.0 / 6.0)
    a_hex = minimize_over_cell(hexagonal_lattice(), 1.0, 64, pol).value.value
    a_square = minimize_over_cell(square_lattice(), 1.0, 64, pol).value.value
    return LandauConstants(
        l_hex=l_hex,
        a_hex=a_hex,
        product=l_hex * a_hex,
        l_square=1.0 / (2.0 * a_square),
    )
