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
    square_lattice,
)
from .optimize import minimize_over_cell, minimize_torus
from .theta import (
    _EPS,
    DEFAULT_POLICY,
    CertifiedValue,
    ShiftedSumEvaluator,
    TruncationPolicy,
    _ball,
    _check_t,
    _dual_ball,
    _nearest_sq,
    _power_tail,
    lattice_gaussian_sum,
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
    converged: bool = True

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
    B = density * value at b = 0 (the maximum sits at zero charge).  That
    family at n is E(b; 1/n) / n on the same lattice, the one-node mixture
    (1/n, 1/n); both values are certified by the evaluator that found the
    minimum, and ``converged`` holds when both met the tolerance.
    """
    if density < 2 or density % 2 != 0:
        raise UnsupportedDensity(
            f"density must be a positive even integer, got {density}"
        )
    n = density // 2
    lat = lattice_from_tau(x, y)
    ev = ShiftedSumEvaluator(lat, ((1.0 / n, 1.0 / n),), pol)
    point, _, _ = minimize_torus(ev.values_centered, grid_n, ev.derivatives_centered)
    values, bounds = ev.certified(np.array([point, [0.0, 0.0]]))
    return FrameBounds(
        lower_A=density * float(values[0]),
        upper_B=density * float(values[1]),
        density=density,
        argmin_z=PhasePoint(float(point[0]), float(point[1]), Frame.LATTICE),
        converged=ev.converged and bool(bounds.max() <= pol.target_tol),
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
    _check_t(t)
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
    _check_t(t)
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
            if not 0.0 < alpha < math.inf:
                raise ValueError("quadrature nodes need a finite alpha > 0")
            if not 0.0 <= weight < math.inf:
                raise ValueError("quadrature weights must be finite and nonnegative")

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


def cm_lattice_energy(
    p: CMPotential,
    lattice: Lattice,
    z: PhasePoint,
    pol: TruncationPolicy = DEFAULT_POLICY,
) -> CertifiedValue:
    """Lattice energy sum_points p(|point + z|^2), split at lam = 1/covol by
    ``ShiftedSumEvaluator``; ``terms_used`` counts the lattice-side and the
    nonzero dual-side terms."""
    return ShiftedSumEvaluator(lattice, p.nodes, pol).certified_at(z)


def minimize_cm_energy(
    p: CMPotential,
    lattice: Lattice,
    grid_n: int = 24,
    pol: TruncationPolicy = DEFAULT_POLICY,
) -> tuple[PhasePoint, float]:
    """Argmin and minimum of the CM lattice energy over one torus cell."""
    ev = ShiftedSumEvaluator(lattice, p.nodes, pol)
    point, _, _ = minimize_torus(ev.values_centered, grid_n, ev.derivatives_centered)
    argmin = PhasePoint(float(point[0]), float(point[1]), Frame.LATTICE)
    return argmin, ev.certified_at(argmin).value


# ---------------------------------------------------------------------------
# Shifted Epstein zeta
# ---------------------------------------------------------------------------

# Relative error bound of _upper_gamma, about 90 eps; the 40-digit oracle
# test over a in {s, 1 - s : 1.1 <= s <= 5} and 1e-4 <= x <= 60 holds it
# to this bound (worst seen: 22 eps).
_UPPER_GAMMA_REL = 2e-14


def _gamma_cf(a: float, x: np.ndarray) -> np.ndarray:
    """Gamma(a, x) = e^-x x^a / (x + 1 - a - 1 (1 - a) / (x + 3 - a - ...)),
    evaluated by the modified Lentz method; for x >= max(2, a + 1) it
    converges within ~60 steps.  Each element is frozen at the first step
    with |delta - 1| <= eps, as it would be alone: some elements then sit a
    few ulp off 1 for good, so a common stopping step may never come."""
    b = x + 1.0 - a
    c = np.full_like(x, 1e300)
    d = 1.0 / b
    h = d
    live = np.arange(len(x))
    out = np.empty_like(x)
    for i in range(1, 1000):
        an = -i * (i - a)
        b = b + 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = d * c
        h = h * delta
        done = np.abs(delta - 1.0) <= _EPS
        if done.any():
            out[live[done]] = h[done]
            keep = ~done
            live, b, c, d, h = live[keep], b[keep], c[keep], d[keep], h[keep]
            if not len(live):
                return np.exp(-x) * x**a * out
    raise ArithmeticError(f"incomplete gamma continued fraction stalled at a = {a}")


def _lower_gamma_series(a: float, x: np.ndarray) -> np.ndarray:
    """gamma(a, x) = e^-x x^a sum_n x^n / (a (a + 1) ... (a + n)), a > 0; the
    terms are positive, and their number is set by the largest x."""
    xm = float(x.max())
    n, term, total = 1, 1.0 / a, 1.0 / a
    while term > 0.25 * _EPS * total:
        term *= xm / (a + n)
        total += term
        n += 1
    ratios = x[:, None] / (a + np.arange(1, n))[None, :]
    return np.exp(-x) * x**a * (1.0 + np.cumprod(ratios, axis=1).sum(axis=1)) / a


def _gamma_integral(a: float, x: np.ndarray, x0: float) -> np.ndarray:
    """int_x^x0 t^(a-1) e^-t dt for 0 < x < x0 <= 2, any real a: the series
    sum_n (-1)^n / n! (x0^(a+n) - x^(a+n)) / (a + n), with ln(x0 / x) for
    a + n = 0 and expm1 where the difference cancels."""
    lx = np.log(x / x0)
    total = np.zeros_like(x)
    n, inv_fact = 0, 1.0
    while n <= -a or x0**n * inv_fact > 1e-22:
        c = a + n
        if c == 0:
            diff = -lx
        else:
            near = np.abs(c * lx) < 1.0
            diff = np.where(near, -np.expm1(c * lx) * x0**c, x0**c - x**c) / c
        total += (-1) ** n * inv_fact * diff
        n += 1
        inv_fact /= n
    return total


def _upper_gamma(a: float, x: np.ndarray) -> np.ndarray:
    """Upper incomplete gamma Gamma(a, x) for real a (zero and negative
    integers included) and an array of x > 0, within a relative error of
    _UPPER_GAMMA_REL.

    x >= max(2, a + 1): the continued fraction.  Below that, for a > 1,
    Gamma(a) minus the positive lower series (which is at most ~0.9 of
    Gamma(a) there); for a <= 1, Gamma(a, 2) from the continued fraction
    plus the integral from x to 2, which holds E1 as the case a = 0.
    """
    x = np.asarray(x, dtype=float)
    split = max(2.0, a + 1.0)
    big = x >= split
    out = np.empty_like(x)
    if a > 1.0:
        if big.any():
            out[big] = _gamma_cf(a, x[big])
        if not big.all():
            out[~big] = math.gamma(a) - _lower_gamma_series(a, x[~big])
        return out
    cf = _gamma_cf(a, np.append(x[big], split))
    out[big] = cf[:-1]
    if not big.all():
        out[~big] = cf[-1] + _gamma_integral(a, x[~big], split)
    return out


def epstein_zeta_shifted(
    lattice: Lattice,
    z: PhasePoint,
    s: float,
    pol: TruncationPolicy = DEFAULT_POLICY,
    method: str = "direct",
    radius_cap: float = 2500.0,
) -> CertifiedValue:
    """sum over the lattice of |point + z|^(-2s), for s > 1 and z off-lattice.

    ``direct`` splits |x|^(-2s) = pi^s / Gamma(s) int t^(s-1) e^(-pi t |x|^2) dt
    at t = lam = 1/covol (Ewald).  With X = pi lam |x|^2 on the lattice side,
    X = pi |k|^2 / lam on the dual side and c = (pi lam)^s / Gamma(s), the sum is

        c [ sum_p X^-s Gamma(s, X) + sum_(k != 0) X^(s-1) Gamma(1-s, X) cos(2 pi k.z)
            + 1/(s-1) ],

    and both series decay like Gaussians.  Each is truncated to a Gaussian
    ball (``theta._ball`` of the node (lam, 1), ``theta._dual_ball`` of the
    dual node (1/lam, 1)) capped at
    ``min(radius_cap, pol.max_radius)``; its tail is a constant times the
    ball's ``_gaussian_tail``, since Gamma(s, X) <= 2 X^(s-1) e^-X once
    X >= 2(s-1) and Gamma(1-s, X) <= X^-s e^-X.  A capped lattice ball that
    stops short of X = 2(s-1) falls back to the power-law tail
    (Gamma(s, X) <= Gamma(s)).  ``tail_bound`` adds the incomplete gamma's
    relative error and the rounding, (terms + 8 (s + 2)) eps sum |term|;
    ``terms_used`` counts the lattice and the nonzero dual terms.

    ``quadrature`` routes the power kernel through its Gaussian mixture,
    built accurate down to the squared distance min(0.05, rho) of z from
    the nearest lattice point, and split at lam by ``ShiftedSumEvaluator``.
    """
    if not 1.0 < s < math.inf:
        raise ValueError("absolute convergence requires a finite s > 1")
    if radius_cap < 1.0:
        raise ValueError("radius_cap must be at least 1")
    zl = z.to_lattice(lattice).canonical()
    uv = np.array([zl.u, zl.v])
    rho = _nearest_sq(lattice.gen, lattice.gen @ uv)
    if rho < 1e-24:
        raise PoleAtLatticePoint("shift point coincides with a lattice point")
    if method == "quadrature":
        tol = min(pol.target_tol * 1e2, 1e-9)
        p = CMPotential.riesz(2.0 * s, tol=tol, rho_min=min(0.05, rho))
        return cm_lattice_energy(p, lattice, zl, pol)
    if method != "direct":
        raise ValueError(f"unknown method {method!r}")

    gen = lattice.gen
    lam = 1.0 / lattice.covolume
    c = (math.pi * lam) ** s / math.gamma(s)
    cap = min(radius_cap, pol.max_radius)
    # a Gaussian tail G below tol_g keeps 2 c G / X_R <= tol / 16 on each
    # side once X_R >= x_min, and G <= e^-x_min makes an uncapped ball reach
    # that far: at lam = 1/covol the ball's tail T(lam, R) is at least
    # exp(-pi lam R^2) = e^-X_R, and its dual tail at least exp(-pi R^2 / lam).
    # The rest of tol is left to rounding and the gamma error
    x_min = max(2.0 * (s - 1.0), 1.0)
    tol_g = min(pol.target_tol / 16.0 * x_min / (2.0 * c), math.exp(-x_min))

    idx, r, g_tail, _ = _ball(gen, gen @ uv, ((lam, 1.0),), tol_g, cap)
    w = idx + uv
    xd = math.pi * lam * np.einsum("ij,jk,ik->i", w, lattice.gram, w)
    direct = c * xd**-s * _upper_gamma(s, xd)
    x_r = math.pi * lam * r * r
    if x_r >= 2.0 * (s - 1.0):
        tail = 2.0 * c * g_tail / x_r
    else:
        tail = _power_tail(gen, r, s)

    kidx, kq, rk, k_tail, _ = _dual_ball(lattice, ((1.0 / lam, 1.0),), tol_g, cap)
    nonzero = kq > 0.0
    xk = math.pi / lam * kq[nonzero]
    dual = c * xk ** (s - 1.0) * _upper_gamma(1.0 - s, xk) * np.cos(TWO_PI * (kidx[nonzero] @ uv))
    tail += c * k_tail / (math.pi / lam * rk * rk)

    terms = np.concatenate([direct, dual, [c / (s - 1.0)]])
    sum_abs = float(np.abs(terms).sum())
    tail += _UPPER_GAMMA_REL * (sum_abs - terms[-1])
    tail += (len(terms) + 8.0 * (s + 2.0)) * _EPS * sum_abs
    value = math.fsum(terms.tolist())
    return CertifiedValue(value, float(tail), len(terms) - 1, bool(tail <= pol.target_tol))


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


def _born_table(
    lattice: Lattice,
    n: int,
    p: CMPotential,
    pol: TruncationPolicy = DEFAULT_POLICY,
) -> tuple[np.ndarray, bool]:
    """``born_interaction_table`` and whether every entry met the tolerance:
    the n^2 shifts are one batch of one mixture evaluator on the n-scaled
    lattice."""
    big = lattice_from_generator(n * lattice.gen)
    ev = ShiftedSumEvaluator(big, p.nodes, pol)
    d1, d2 = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    values, tails = ev.certified(np.column_stack([d1.ravel(), d2.ravel()]) / n)
    return values.reshape(n, n), bool(ev.converged and tails.max() <= pol.target_tol)


def born_interaction_table(
    lattice: Lattice,
    n: int,
    p: CMPotential,
    pol: TruncationPolicy = DEFAULT_POLICY,
) -> np.ndarray:
    """S[d1, d2] = sum over the n-scaled lattice of p(|gen (d1, d2) + point|^2).

    The pair interaction between residues a and b is S[(a - b) mod n].
    """
    return _born_table(lattice, n, p, pol)[0]


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
    converged: bool = True


def landau_constants(pol: TruncationPolicy = DEFAULT_POLICY) -> LandauConstants:
    """Gamma-quotient constant for the hexagon, the computed hexagonal
    minimum at scale 1, their product (1/2), and the square value;
    ``converged`` holds when both minima met their tolerance."""
    l_hex = math.gamma(1.0 / 3.0) * math.gamma(5.0 / 6.0) / math.gamma(1.0 / 6.0)
    a_hex = minimize_over_cell(hexagonal_lattice(), 1.0, 64, pol).value
    a_square = minimize_over_cell(square_lattice(), 1.0, 64, pol).value
    return LandauConstants(
        l_hex=l_hex,
        a_hex=a_hex.value,
        product=l_hex * a_hex.value,
        l_square=1.0 / (2.0 * a_square.value),
        converged=a_hex.converged and a_square.converged,
    )
