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
    Lattice,
    PhasePoint,
    hexagonal_lattice,
    lattice_from_tau,
    square_lattice,
)
from .optimize import MinResult, _minimize, minimize_over_cell
from .theta import (
    _EPS,
    DEFAULT_POLICY,
    CertifiedValue,
    ShiftedSumEvaluator,
    TruncationPolicy,
    _ball,
    _check_shift,
    _check_t,
    _dual_side,
    _nearest_sq,
    _plan,
    _power_tail,
    _sum_at,
)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Gabor frame bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrameBounds:
    """Frame bounds A <= B of the (x, y)-shaped lattice at ``density``, the
    argmin of A and whether both bounds met the tolerance."""

    x: float
    y: float
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
    B = density * value at b = 0 (the maximum sits at zero charge, see
    ``minimize_over_cell``).  That family at n is E(b; 1/n) / n on the same
    lattice, the one-node mixture (1/n, 1/n); both values are certified by
    the evaluator that found the minimum, and ``converged`` holds when both
    met the tolerance.
    """
    if density < 2 or density % 2 != 0:
        raise UnsupportedDensity(
            f"density must be a positive even integer, got {density}"
        )
    n = density // 2
    ev = ShiftedSumEvaluator(lattice_from_tau(x, y), ((1.0 / n, 1.0 / n),), pol)
    low = _minimize(ev, grid_n)
    high = ev.certified_at(PhasePoint(0.0, 0.0))
    return FrameBounds(
        x=x,
        y=y,
        lower_A=density * low.value.value,
        upper_B=density * high.value,
        density=density,
        argmin_z=low.argmin,
        converged=low.value.converged and high.converged,
    )


# ---------------------------------------------------------------------------
# Heat kernel on a flat torus
# ---------------------------------------------------------------------------

def heat_route(lattice: Lattice, t: float) -> str:
    """The series ``heat_kernel_torus`` sums at time t by default, as
    ``lattice_gaussian_sum`` picks its side at alpha = 1/(4 pi t): "spectral"
    iff covol < 4 pi t, where the dual series is the shorter one."""
    _check_t(t)
    return "spectral" if _dual_side(1.0 / (4.0 * math.pi * t), lattice.covolume) else "gaussian"


def heat_kernel_torus(
    lattice: Lattice,
    z: PhasePoint,
    t: float,
    pol: TruncationPolicy = DEFAULT_POLICY,
    route: str | None = None,
) -> CertifiedValue:
    """Heat kernel k(z; t) on the torus defined by the lattice.

    The Gaussian route sums translates directly,
    k = E(z; 1/(4 pi t)) / (4 pi t); the spectral route sums the dual
    cosine series.  Both carry certified tails and must agree.  By default
    the series ``heat_route`` names is summed; ``route`` forces one of them.
    """
    _check_t(t)
    if route is None:
        route = heat_route(lattice, t)
    elif route not in ("gaussian", "spectral"):
        raise ValueError(f"unknown route {route!r}")
    alpha = 1.0 / (4.0 * math.pi * t)
    # k = alpha * E, the node (alpha, alpha)
    return _sum_at(_plan(lattice), z, ((alpha, alpha),), pol, route == "spectral")


def temperature_extremes(
    lattice: Lattice, t: float, grid_n: int = 48
) -> tuple[MinResult, CertifiedValue]:
    """The torus minimum and the certified maximum of the temperature at
    time t: k = alpha E(z; alpha), alpha = 1/(4 pi t), is the node
    (alpha, alpha), and one evaluator gives its minimum and its maximum,
    which sits at the origin (see ``minimize_over_cell``)."""
    _check_t(t)
    alpha = 1.0 / (4.0 * math.pi * t)
    ev = ShiftedSumEvaluator(lattice, ((alpha, alpha),))
    return _minimize(ev, grid_n), ev.certified_at(PhasePoint(0.0, 0.0))


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

    def __post_init__(self) -> None:
        for alpha, weight in self.nodes:
            if not 0.0 < alpha < math.inf:
                raise ValueError("quadrature nodes need a finite alpha > 0")
            if not 0.0 <= weight < math.inf:
                raise ValueError("quadrature weights must be finite and nonnegative")

    def at_zero(self) -> float:
        return math.fsum(w for _, w in self.nodes)

    @staticmethod
    def gaussian(alpha: float) -> "CMPotential":
        """The unit-weight Gaussian exp(-pi alpha rho)."""
        return CMPotential(((alpha, 1.0),))

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
        return CMPotential(nodes)


def cm_lattice_energy(
    p: CMPotential,
    lattice: Lattice,
    z: PhasePoint,
    pol: TruncationPolicy = DEFAULT_POLICY,
) -> CertifiedValue:
    """Lattice energy sum_points p(|point + z|^2), split at lam = 1/covol by
    ``ShiftedSumEvaluator`` on the one-point path of the pointwise sums, its
    lattice ball centred on z; ``terms_used`` counts the lattice-side and the
    dual-side terms, k = 0 included."""
    return _sum_at(_plan(lattice), z, p.nodes, pol, None)


def minimize_cm_energy(
    p: CMPotential, lattice: Lattice, grid_n: int = 24
) -> tuple[PhasePoint, float]:
    """Argmin and minimum of the CM lattice energy over one torus cell."""
    res = _minimize(ShiftedSumEvaluator(lattice, p.nodes), grid_n)
    return res.argmin, res.value.value


# ---------------------------------------------------------------------------
# Shifted Epstein zeta
# ---------------------------------------------------------------------------

# Relative error bound of _upper_gamma, about 90 eps; the 40-digit oracle
# test over a in {s, 1 - s : 1.1 <= s <= 10.5} and 1e-4 <= x <= 80 holds it
# to this bound (worst seen: 19 eps, from the integral below x = 2; 2.3 eps
# on the continued fraction), and s in {12, 15, 20, 30, 40} to 9 eps.  Past
# s = 40 it is unmeasured (s = 60 read 26 eps).
_UPPER_GAMMA_REL = 2e-14

# levels _gamma_cf evaluates past the forward stop at its smallest x; they
# take the truncation error there below one ulp for -9.5 <= a <= 10.5, and
# batches from the split to x = 80 stay within 2 eps of 40-digit values for
# -39.5 <= a <= 40.5
_CF_MARGIN = 4


def _cf_depth(a: float, x: float) -> int:
    """The step at which the forward modified-Lentz recurrence of
    ``_gamma_cf``'s fraction at x stops, |delta - 1| <= eps."""
    b = x + 1.0 - a
    c, d = 1e300, 1.0 / b
    for i in range(1, 1000):
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        if abs(d * c - 1.0) <= _EPS:
            return i
    raise ArithmeticError(f"incomplete gamma continued fraction stalled at a = {a}")


def _gamma_cf(a: float, x: np.ndarray) -> np.ndarray:
    """Gamma(a, x) = e^-x x^a / (b_0 + a_1 / (b_1 + a_2 / (b_2 + ...))) with
    b_i = x + 1 - a + 2 i and a_i = -i (i - a), for x >= max(2, a + 1),
    evaluated backward, t <- a_i / (b_i + t) from level N down to 1, with
    the b_i of all levels built as one (levels x elements) array.

    N is ``_cf_depth`` at the smallest x plus ``_CF_MARGIN``.  A larger x
    needs no more levels: the fraction's truncation error after n levels
    falls like exp(-4 sqrt(n x)), so at every n it is smallest at the
    largest x, and the level count that takes it below eps/4 never grows
    with x (checked in 40 digits for -9.5 <= a <= 10.5 and x up to 80;
    batches from the split to x = 80 match 40-digit values within 2 eps for
    -39.5 <= a <= 40.5).
    The forward stop itself wobbles by up to 4 steps between neighbouring
    x, as delta is read in rounding; ``_CF_MARGIN`` covers that.
    """
    if not len(x):
        return np.empty_like(x)
    i = np.arange(_cf_depth(a, float(x.min())) + _CF_MARGIN, 0, -1.0)
    t = np.zeros_like(x)
    for an, b in zip((-i * (i - a)).tolist(), x + (1.0 - a + 2.0 * i)[:, None]):
        t = an / (b + t)
    return np.exp(-x) * x**a / (x + (1.0 - a) + t)


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
    a + n = 0 and expm1 where the difference cancels.  The terms form one
    (terms x elements) array whose rows a cumulative sum adds in order of n
    (a plain sum would add a lone element's terms pairwise)."""
    rows, pole, n, inv_fact = [], None, 0, 1.0
    while n <= -a or x0**n * inv_fact > 1e-22:
        c = a + n
        if c == 0.0:
            # no division by zero, even one np.where discards: the row at
            # c = 1 is replaced by ln(x0 / x) below
            pole, c = n, 1.0
        rows.append((c, x0**c, (-1) ** n * inv_fact))
        n += 1
        inv_fact /= n
    c, p0, coef = (np.array(col)[:, None] for col in zip(*rows))
    lx = np.log(x / x0)
    cl = c * lx
    diff = np.where(np.abs(cl) < 1.0, -np.expm1(cl) * p0, p0 - x**c) / c
    if pole is not None:
        diff[pole] = -lx
    return np.cumsum(coef * diff, axis=0)[-1]


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
    if big.all():
        return _gamma_cf(a, x)
    out = np.empty_like(x)
    if a > 1.0:
        out[big] = _gamma_cf(a, x[big])
        out[~big] = math.gamma(a) - _lower_gamma_series(a, x[~big])
    else:
        cf = _gamma_cf(a, np.append(x[big], split))
        out[big] = cf[:-1]
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
    ball (``theta._ball`` of the node (lam, 1) on the lattice and of the
    dual node (1/lam, 1) on the dual lattice) capped at ``radius_cap``; its
    tail is a constant times the ball's ``_gaussian_tail``, since
    Gamma(s, X) <= 2 X^(s-1) e^-X once X >= 2(s-1) and
    Gamma(1-s, X) <= X^-s e^-X.  A capped lattice ball that
    stops short of X = 2(s-1) falls back to the power-law tail
    (Gamma(s, X) <= Gamma(s)).  ``tail_bound`` adds the incomplete gamma's
    relative error and the rounding, (terms + 8 (s + 2)) eps sum |term|;
    ``terms_used`` counts the lattice and the nonzero dual terms.

    ``quadrature`` routes the power kernel through its Gaussian mixture,
    built accurate down to the squared distance min(0.05, rho) of z from
    the nearest lattice point, and split at lam by ``cm_lattice_energy``.
    Its ``tail_bound`` leaves out the mixture's own error, so it never
    reports ``converged``: it is a cross-check of the direct route, not a
    certificate.
    """
    if not 1.0 < s < math.inf:
        raise ValueError("absolute convergence requires a finite s > 1")
    if not radius_cap >= 1.0:
        raise ValueError("radius_cap must be at least 1")
    _check_shift(z)
    zl = z.canonical()
    plan = _plan(lattice)
    mid = (-zl.u, -zl.v)
    rho = _nearest_sq(plan.near, mid)
    if rho < 1e-24:
        raise PoleAtLatticePoint("shift point coincides with a lattice point")
    if method == "quadrature":
        tol = min(pol.target_tol * 1e2, 1e-9)
        p = CMPotential.riesz(2.0 * s, tol=tol, rho_min=min(0.05, rho))
        return replace(cm_lattice_energy(p, lattice, zl, pol), converged=False)
    if method != "direct":
        raise ValueError(f"unknown method {method!r}")

    lam = 1.0 / lattice.covolume
    c = (math.pi * lam) ** s / math.gamma(s)
    # a Gaussian tail G below tol_g keeps 2 c G / X_R <= tol / 16 on each
    # side once X_R >= x_min, and G <= e^-x_min makes an uncapped ball reach
    # that far: at lam = 1/covol the ball's tail T(lam, R) is at least
    # exp(-pi lam R^2) = e^-X_R, and its dual tail at least exp(-pi R^2 / lam).
    # The rest of tol is left to rounding and the gamma error
    x_min = max(2.0 * (s - 1.0), 1.0)
    tol_g = min(pol.target_tol / 16.0 * x_min / (2.0 * c), math.exp(-x_min))

    *_, rho_p, r, g_tail, _ = _ball(plan.near, mid, ((lam, 1.0),), tol_g, radius_cap)
    dual_ball = _ball(plan.far, (0.0, 0.0), ((1.0 / lam, 1.0),), tol_g, radius_cap)
    k, l, inside, kq, rk, k_tail, _ = dual_ball
    i, j = inside.nonzero()
    k, l = k[i], l[j]
    nonzero = kq > 0.0
    # at large s the powers X^(s-1) and X^-s pass the float range (inf times
    # an underflowed gamma is nan); such a sum is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        xd = math.pi * lam * rho_p
        direct = c * xd**-s * _upper_gamma(s, xd)
        x_r = math.pi * lam * r * r
        if x_r >= 2.0 * (s - 1.0):
            tail = 2.0 * c * g_tail / x_r
        else:
            tail = _power_tail(plan.near, r, s)

        xk = math.pi / lam * kq[nonzero]
        phases = TWO_PI * (k[nonzero] * zl.u + l[nonzero] * zl.v)
        dual = c * xk ** (s - 1.0) * _upper_gamma(1.0 - s, xk) * np.cos(phases)
        tail += c * k_tail / (math.pi / lam * rk * rk)

        terms = np.concatenate([direct, dual, [c / (s - 1.0)]])
        sum_abs = float(np.abs(terms).sum())
        tail += _UPPER_GAMMA_REL * (sum_abs - terms[-1])
        tail += (len(terms) + 8.0 * (s + 2.0)) * _EPS * sum_abs
    if not (math.isfinite(sum_abs) and math.isfinite(tail)):
        raise ValueError(f"the direct Epstein zeta overflows the float range at s = {s}")
    value = math.fsum(terms.tolist())
    return CertifiedValue(value, float(tail), len(terms) - 1, bool(tail <= pol.target_tol))


def epstein_min_sweep(
    lattice_grid: list[tuple[float, float]], s: float, grid_n: int = 24
) -> list[tuple[tuple[float, float], MinResult]]:
    """min_z of the shifted zeta across lattice shapes, via the mixture route:
    the torus minimum of each shape (x, y), keyed by it, in input order."""
    p = CMPotential.riesz(2.0 * s, tol=1e-9)
    return [
        ((x, y), _minimize(ShiftedSumEvaluator(lattice_from_tau(x, y), p.nodes), grid_n))
        for x, y in lattice_grid
    ]


# ---------------------------------------------------------------------------
# Periodic charge energies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChargeDistribution:
    """N-periodic charge weights on the residue classes of a lattice."""

    period_N: int
    weights: np.ndarray

    def __post_init__(self) -> None:
        if self.period_N < 1:
            raise ConstraintViolated(f"the period must be at least 1, got {self.period_N}")
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
) -> tuple[np.ndarray, bool]:
    """S[d1, d2] = sum over the n-scaled lattice of p(|gen (d1, d2) + point|^2),
    and whether every entry met the tolerance.  Those points, n gen m + gen d =
    n gen (m + d/n), make S one batch of one evaluator on ``lattice`` itself:
    the nodes (alpha_j n^2, w_j) at the n^2 shifts d/n.  The pair interaction
    between residues a and b is S[(a - b) mod n].
    """
    if n < 1:
        raise ValueError(f"the Born period must be at least 1, got {n}")
    ev = ShiftedSumEvaluator(lattice, tuple((a * n * n, w) for a, w in p.nodes), pol)
    values, tails = ev.certified(np.indices((n, n)).reshape(2, -1).T / n)
    return values.reshape(n, n), bool(ev.converged and tails.max() <= pol.target_tol)


def born_energy_from_table(table: np.ndarray, eps: ChargeDistribution) -> float:
    """Charge energy per point from the interaction table: (1/n^2) sum_(a, b)
    eps_a eps_b S[(a - b) mod n] = (1/n^2) sum_d S[d] R[d], where the circular
    autocorrelation R[d] = sum_b eps_(b + d) eps_b is ifft2(F conj(F)).real
    with F = fft2(eps)."""
    f = np.fft.fft2(eps.weights)
    return float(np.sum(table * np.fft.ifft2(f * f.conj()).real)) / eps.period_N**2


def born_energy(lattice: Lattice, eps: ChargeDistribution, p: CMPotential) -> float:
    """Charge energy per point of an N-periodic neutral distribution."""
    eps.validate()
    table, _ = born_interaction_table(lattice, eps.period_N, p)
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
