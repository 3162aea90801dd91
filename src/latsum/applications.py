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
    square_lattice,
)
from .optimize import minimize_over_cell, minimize_torus
from .theta import (
    DEFAULT_POLICY,
    CertifiedValue,
    ChargedSumEvaluator,
    TruncationPolicy,
    _ball,
    _cell_ball,
    _cosine_derivatives,
    _dual_ball,
    _nearest_sq,
    _power_tail,
    lattice_gaussian_sum,
    theta_charged,
)

TWO_PI = 2.0 * math.pi
_EPS = float(np.finfo(float).eps)
# exponents below this are clipped: exp is ~16 times slower where it underflows
_EXP_FLOOR = -700.0


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
    B = density * value at b = 0 (the maximum sits at zero charge).
    ``converged`` holds when the evaluator and both pointwise sums met
    their tolerance.
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
    min_val = theta_charged(lat, argmin, float(n), pol)
    max_val = theta_charged(lat, PhasePoint(0.0, 0.0), float(n), pol)
    return FrameBounds(
        lower_A=density * min_val.value,
        upper_B=density * max_val.value,
        density=density,
        argmin_z=argmin,
        converged=ev.converged and min_val.converged and max_val.converged,
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


def _exponent_rounding(lattice: Lattice) -> float:
    """kappa such that every exponent X = c |x|^2 the mixture evaluator computes
    carries a relative error of at most kappa eps, on either side.  A squared
    length taken from the Gram form of w = idx + z (lattice side) or from the
    Cartesian dual points (dual side) is within 12 cond(G) eps of its value,
    since the absolute parts of either form are at most 2 cond(G) times the
    form; the product with c adds at most 8 eps."""
    lo, hi = np.linalg.eigvalsh(lattice.gram)
    return 12.0 * hi / lo + 8.0


class CMEnergyEvaluator:
    """A completely monotone lattice energy sum_p p(|p + z|^2), with
    p(rho) = sum_j w_j exp(-pi alpha_j rho), split at lam = 1/covol (Ewald).

    Lattice side, the nodes with alpha_j >= lam: one radial kernel
    K(rho) = sum_j w_j exp(-pi alpha_j rho), summed over one cell-wide
    ``theta._ball``, that of the smallest such alpha_j.  Beyond the ball's
    radius R every such node is at most exp(-pi (alpha_j - alpha_min) R^2)
    times that ball's Gaussian, so the tail is the ball's ring-count tail
    times sum_j w_j exp(-pi (alpha_j - alpha_min) R^2), at most sum_j w_j;
    the radius is chosen with that factor.

    Dual side, the nodes with alpha_j < lam: by Poisson summation, one
    cosine series sum_k g(k) cos(2 pi k.z) whose weights
    g(k) = sum_j w_j exp(-pi |k|^2 / alpha_j) / (alpha_j covol) do not depend
    on z.  They are built once over one ``theta._dual_ball``, that of the
    largest such alpha_j, with the ring-count tail times
    sum_j w_j / (alpha_j covol).  Flat nodes underflow off k != 0 and land in
    g(0), which is kept apart as ``value_offset``.

    Each side is asked for a quarter of the tolerance; ``tail_bound`` is the
    sum of both truncation tails, uniform over the cell, and ``converged``
    says both balls met their share.  ``certified`` adds each value's
    rounding.  Only (points x terms) arrays are built: the kernel and its
    derivatives are accumulated node by node.  Exponents below ``_EXP_FLOOR``
    are clipped, and the term they overstate goes into the rounding.
    """

    def __init__(
        self,
        p: CMPotential,
        lattice: Lattice,
        pol: TruncationPolicy = DEFAULT_POLICY,
    ) -> None:
        if not p.nodes:
            raise EmptyQuadrature("potential has no quadrature nodes")
        covol = lattice.covolume
        alphas, weights = np.array(p.nodes).T
        near = alphas >= 1.0 / covol
        self.tol = pol.target_tol
        self._kappa = _exponent_rounding(lattice)
        g = lattice.gram
        self._g00, self._g01, self._g11 = g[0, 0], g[0, 1], g[1, 1]

        self._rates = math.pi * alphas[near]
        self._weights = weights[near]
        self.tail_bound = 0.0
        self.converged = True
        self._idx = np.zeros((0, 2))
        self._fixed_rounding = 0.0
        if near.any():
            # beyond radius r, node j decays faster than the slowest by
            # exp(-(rate_j - rate_min) r^2), which weights its share of the tail
            excess = self._rates - self._rates.min()

            def tail_weight(r: float) -> float:
                return float(self._weights @ np.exp(-excess * (r * r)))

            idx, g_tail, ok = _cell_ball(
                lattice.gen, alphas[near].min(), pol.target_tol / 4.0, pol.max_radius, tail_weight
            )
            self._idx = idx.astype(float)
            self.tail_bound += g_tail
            self.converged &= ok
            # a clipped exponent overstates its term by less than w_j e^_EXP_FLOOR
            self._fixed_rounding = len(idx) * float(self._weights.sum()) * math.exp(_EXP_FLOOR)

        self.value_offset = 0.0
        self._kidx = np.zeros((0, 2))
        self._ghat = np.zeros(0)
        if not near.all():
            far_alphas = alphas[~near]
            scales = weights[~near] / (far_alphas * covol)
            s_sum = float(scales.sum())
            top = float(far_alphas.max())
            top_scale = 1.0 / (top * covol)
            tol_g = pol.target_tol / 4.0 / max(s_sum, 1e-300)
            kidx, kq, _, _, k_tail, ok = _dual_ball(
                lattice, top, replace(pol, target_tol=tol_g * top_scale)
            )
            self.tail_bound += s_sum * k_tail / top_scale
            self.converged &= ok
            # (nodes x dual terms), independent of z
            x = np.outer(math.pi / far_alphas, kq)
            e = np.exp(np.maximum(-x, _EXP_FLOOR))
            ghat = scales @ e
            x_err = scales @ (x * e)  # sum_j scale_j X_jk exp(-X_jk)
            nonzero = np.any(kidx != 0, axis=1)
            self._kidx = kidx[nonzero].astype(float)
            self._ghat = ghat[nonzero]
            self.value_offset = s_sum
            # g(k): the nodes' sum and the scales, (nodes + 5) eps g, and the
            # exponents, kappa eps X e^-X; cos(2 pi k.z): its phase, computed from
            # z in [0, 1)^2, is off by at most 8 pi (|k1| + |k2|) eps
            n_far = len(far_alphas)
            phase = 8.0 * math.pi * np.abs(self._kidx).sum(axis=1)
            self._fixed_rounding += _EPS * (
                (n_far + 5.0) * s_sum
                + float(((n_far + 6.0 + phase) * self._ghat).sum())
                + self._kappa * float(x_err.sum())
            ) + len(kq) * s_sum * math.exp(_EXP_FLOOR)
        self.terms = len(self._idx) + len(self._kidx)

    def _radial(self, zs: np.ndarray, order: int):
        """Offsets w = idx + z, their images Gw and squared lengths rho, each
        (points x terms), and the sums sum_j w_j (pi alpha_j)^m exp(-pi alpha_j rho)
        for m = 0 .. order: K, -K' and K''."""
        w1 = self._idx[:, 0][None, :] + zs[:, 0][:, None]
        w2 = self._idx[:, 1][None, :] + zs[:, 1][:, None]
        a = self._g00 * w1 + self._g01 * w2
        b = self._g01 * w1 + self._g11 * w2
        rho = w1 * a + w2 * b
        sums = [np.zeros_like(rho) for _ in range(order + 1)]
        e = np.empty_like(rho)
        for rate, weight in zip(self._rates, self._weights):
            np.multiply(rho, -rate, out=e)
            np.maximum(e, _EXP_FLOOR, out=e)
            np.exp(e, out=e)
            e *= weight
            sums[0] += e
            for m in range(1, order + 1):
                e *= rate
                sums[m] += e
        return a, b, rho, sums

    def values_centered(self, zs: np.ndarray) -> np.ndarray:
        """Values minus ``value_offset`` at an (n, 2) batch of lattice-coordinate shifts."""
        zs = np.atleast_2d(np.asarray(zs, dtype=float))
        _, _, _, (k,) = self._radial(zs, 0)
        return k.sum(axis=1) + np.cos(TWO_PI * (zs @ self._kidx.T)) @ self._ghat

    def derivatives_centered(self, zs: np.ndarray) -> tuple[np.ndarray, ...]:
        """Centered values (n,), gradients (n, 2) and Hessians (n, 2, 2) in
        lattice coordinates.  Lattice side: grad rho = 2 Gw and
        Hess rho = 2 G give grad = K'(rho) 2 Gw and
        Hess = K''(rho) 4 Gw (Gw)^T + K'(rho) 2 G, term by term; dual side:
        the cosine series differentiated term by term."""
        zs = np.atleast_2d(np.asarray(zs, dtype=float))
        a, b, _, (k0, k1, k2) = self._radial(zs, 2)
        k1_sum = k1.sum(axis=1)
        k2a, k2b = k2 * a, k2 * b
        values, grad, hess = _cosine_derivatives(zs, self._kidx, self._ghat)
        values = values + k0.sum(axis=1)
        grad = grad - 2.0 * np.column_stack([(k1 * a).sum(axis=1), (k1 * b).sum(axis=1)])
        h11 = 4.0 * (k2a * a).sum(axis=1) - 2.0 * self._g00 * k1_sum
        h12 = 4.0 * (k2a * b).sum(axis=1) - 2.0 * self._g01 * k1_sum
        h22 = 4.0 * (k2b * b).sum(axis=1) - 2.0 * self._g11 * k1_sum
        hess = hess + np.stack([h11, h12, h12, h22], axis=-1).reshape(-1, 2, 2)
        return values, grad, hess

    def values(self, zs: np.ndarray) -> np.ndarray:
        return self.value_offset + self.values_centered(zs)

    def certified(self, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values at an (n, 2) batch of shifts in [0, 1)^2 and a bound on each
        one's error: both truncation tails plus the rounding.  A lattice-side
        term sum_j w_j e^(-X_j) is off by at most (nodes + 2) eps times itself
        plus kappa eps sum_j w_j X_j e^(-X_j) = kappa eps rho (-K'(rho)); adding
        the terms and the two sides costs (terms + 4) eps sum |term|."""
        zs = np.atleast_2d(np.asarray(zs, dtype=float))
        _, _, rho, (k0, k1) = self._radial(zs, 1)
        values = self.value_offset + (
            k0.sum(axis=1) + np.cos(TWO_PI * (zs @ self._kidx.T)) @ self._ghat
        )
        size = self.value_offset + k0.sum(axis=1) + self._ghat.sum()
        rounding = _EPS * (
            (len(self._rates) + self.terms + 6.0) * size + self._kappa * (rho * k1).sum(axis=1)
        )
        return values, self.tail_bound + self._fixed_rounding + rounding


def _certified_at(ev: CMEnergyEvaluator, z: PhasePoint, lattice: Lattice) -> CertifiedValue:
    zl = z.to_lattice(lattice).canonical()
    values, tails = ev.certified(np.array([[zl.u, zl.v]]))
    tail = float(tails[0])
    return CertifiedValue(float(values[0]), tail, ev.terms, ev.converged and tail <= ev.tol)


def cm_lattice_energy(
    p: CMPotential,
    lattice: Lattice,
    z: PhasePoint,
    pol: TruncationPolicy = DEFAULT_POLICY,
) -> CertifiedValue:
    """Lattice energy sum_points p(|point + z|^2), split at lam = 1/covol by
    ``CMEnergyEvaluator``; ``terms_used`` counts the lattice-side and the
    nonzero dual-side terms."""
    return _certified_at(CMEnergyEvaluator(p, lattice, pol), z, lattice)


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
    return argmin, _certified_at(ev, argmin, lattice).value


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
    ball (``theta._ball``, ``theta._dual_ball``) capped at
    ``min(radius_cap, pol.max_radius)``; its tail is a constant times the
    ball's ring-count tail, since Gamma(s, X) <= 2 X^(s-1) e^-X once
    X >= 2(s-1) and Gamma(1-s, X) <= X^-s e^-X.  A capped lattice ball that
    stops short of X = 2(s-1) falls back to the power-law tail
    (Gamma(s, X) <= Gamma(s)).  ``tail_bound`` adds the incomplete gamma's
    relative error and the rounding, (terms + 8 (s + 2)) eps sum |term|;
    ``terms_used`` counts the lattice and the nonzero dual terms.

    ``quadrature`` routes the power kernel through its Gaussian mixture,
    built accurate down to the squared distance min(0.05, rho) of z from
    the nearest lattice point, and split at lam by ``CMEnergyEvaluator``.
    """
    if s <= 1.0:
        raise ValueError("absolute convergence requires s > 1")
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
    # that far; the rest of tol is left to rounding and the gamma error
    x_min = max(2.0 * (s - 1.0), 1.0)
    tol_g = min(pol.target_tol / 16.0 * x_min / (2.0 * c), math.exp(-x_min))

    idx, r, g_tail, _ = _ball(gen, gen @ uv, lam, tol_g, cap)
    w = idx + uv
    xd = math.pi * lam * np.einsum("ij,jk,ik->i", w, lattice.gram, w)
    direct = c * xd**-s * _upper_gamma(s, xd)
    x_r = math.pi * lam * r * r
    if x_r >= 2.0 * (s - 1.0):
        tail = 2.0 * c * g_tail / x_r
    else:
        tail = _power_tail(gen, r, s)

    kidx, kq, scale, rk, k_tail, _ = _dual_ball(
        lattice, lam, replace(pol, target_tol=tol_g, max_radius=cap)
    )
    nonzero = kq > 0.0
    xk = math.pi / lam * kq[nonzero]
    dual = c * xk ** (s - 1.0) * _upper_gamma(1.0 - s, xk) * np.cos(TWO_PI * (kidx[nonzero] @ uv))
    tail += c * (k_tail / scale) / (math.pi / lam * rk * rk)

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
    ev = CMEnergyEvaluator(p, big, pol)
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
