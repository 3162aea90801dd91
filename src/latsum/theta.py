"""One- and two-dimensional Gaussian lattice sums with certified tails.

All series are truncated inside Euclidean balls; the discarded tail is
bounded rigorously through ring counts (2D) or geometric majorants (1D),
and every certified result carries that bound.  Accumulation is done with
compensated summation over terms sorted by increasing radius, so results
are deterministic across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NonPositiveAlpha, NonPositiveT, TailNotMet
from .lattice import Lattice, PhasePoint, lattice_from_tau

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class TruncationPolicy:
    """Target absolute tolerance and a cap on the number of index shells."""

    target_tol: float = 1e-12
    max_radius: int = 10_000

    def __post_init__(self) -> None:
        if self.target_tol <= 0:
            raise ValueError("target_tol must be positive")
        if self.max_radius < 1:
            raise ValueError("max_radius must be at least 1")


DEFAULT_POLICY = TruncationPolicy()


@dataclass(frozen=True)
class CertifiedValue:
    """A computed sum with a rigorous bound on the truncation error."""

    value: float
    tail_bound: float
    terms_used: int
    converged: bool = True

    def require(self) -> "CertifiedValue":
        if not self.converged:
            raise TailNotMet(
                f"tail bound {self.tail_bound:.3e} above requested tolerance"
            )
        return self


# ---------------------------------------------------------------------------
# One-dimensional theta functions
# ---------------------------------------------------------------------------

def _gauss_tail(k0: int, t: float) -> float:
    """Upper bound for sum_{k >= k0} exp(-pi t k^2), k0 >= 1."""
    q = math.exp(-math.pi * t * (2 * k0 + 1))
    if q >= 1.0:
        return math.inf
    return math.exp(-math.pi * t * k0 * k0) / (1.0 - q)


def theta1d(beta: float, t: float, pol: TruncationPolicy = DEFAULT_POLICY) -> CertifiedValue:
    """theta(beta; t) = sum_k exp(-pi t (k + beta)^2).

    beta is canonicalized mod 1 before summation, making the result
    1-periodic in beta by construction.
    """
    if t <= 0:
        raise NonPositiveT(f"t must be positive, got {t}")
    b = beta - math.floor(beta)
    terms = [math.exp(-math.pi * t * b * b)]
    m = 0
    tail = math.inf
    while m < pol.max_radius:
        m += 1
        terms.append(math.exp(-math.pi * t * (m + b) ** 2))
        terms.append(math.exp(-math.pi * t * (-m + b) ** 2))
        # (k+b)^2 >= k^2 for k >= 1 and >= (|k|-1)^2 for k <= -1
        tail = _gauss_tail(m + 1, t) + _gauss_tail(m, t)
        if tail <= pol.target_tol:
            break
    value = math.fsum(sorted(terms))
    return CertifiedValue(value, tail, len(terms), tail <= pol.target_tol)


def theta1d_hat(beta: float, t: float, pol: TruncationPolicy = DEFAULT_POLICY) -> CertifiedValue:
    """theta_hat(beta; t) = sum_k exp(-pi t k^2) exp(2 pi i k beta), real form.

    Imaginary parts cancel pairwise, so the cosine series is summed.
    """
    if t <= 0:
        raise NonPositiveT(f"t must be positive, got {t}")
    terms = [1.0]
    m = 0
    tail = math.inf
    while m < pol.max_radius:
        m += 1
        terms.append(2.0 * math.exp(-math.pi * t * m * m) * math.cos(TWO_PI * m * beta))
        tail = 2.0 * _gauss_tail(m + 1, t)
        if tail <= pol.target_tol:
            break
    value = math.fsum(sorted(terms))
    return CertifiedValue(value, tail, len(terms), tail <= pol.target_tol)


def product_rep_theta1d_hat(beta: float, t: float, n_factors: int) -> float:
    """Partial product representation of theta_hat(beta; t).

    Each factor is (1 - q^(2k)) (1 + 2 cos(2 pi beta) q^(2k-1) + q^(4k-2))
    with q = exp(-pi t); every factor is positive.
    """
    if t <= 0:
        raise NonPositiveT(f"t must be positive, got {t}")
    if n_factors < 1:
        raise ValueError("n_factors must be at least 1")
    c = 2.0 * math.cos(TWO_PI * beta)
    prod = 1.0
    for k in range(1, n_factors + 1):
        e_even = math.exp(-TWO_PI * k * t)
        e_odd = math.exp(-(2 * k - 1) * math.pi * t)
        prod *= (1.0 - e_even) * (1.0 + c * e_odd + e_odd * e_odd)
    return prod


def montgomery_A(t: float) -> float:
    """Lower envelope for the theta-derivative ratio; piecewise in t."""
    if t <= 0:
        raise NonPositiveT(f"t must be positive, got {t}")
    if t < 1.0:
        return t ** -1.5 * math.exp(-math.pi / (4.0 * t))
    return (1.0 - 1.0 / 3000.0) * 4.0 * math.pi * math.exp(-math.pi * t)


def montgomery_B(t: float) -> float:
    """Upper envelope for the theta-derivative ratio; piecewise in t."""
    if t <= 0:
        raise NonPositiveT(f"t must be positive, got {t}")
    if t < 1.0:
        return t ** -1.5
    return (1.0 + 1.0 / 3000.0) * 4.0 * math.pi * math.exp(-math.pi * t)


def montgomery_Q(beta: float, t: float, pol: TruncationPolicy = DEFAULT_POLICY) -> CertifiedValue:
    """The ratio -theta_hat'(beta; t) / sin(2 pi beta), extended to all beta.

    Evaluated through the term-by-term differentiated product
    representation, which is a sum of positive terms and carries the
    removable singularities at beta in Z/2 exactly.  The quantity is
    positive, even, 1-periodic, decreasing on (0, 1/2), and sandwiched
    between montgomery_A(t) and montgomery_B(t).  The plain theta
    derivative satisfies
    -theta1d'(beta; s) = sin(2 pi beta) * s**-0.5 * Q(beta; 1/s).
    """
    if t <= 0:
        raise NonPositiveT(f"t must be positive, got {t}")
    c = 2.0 * math.cos(TWO_PI * beta)
    rel_tol = min(0.1, pol.target_tol)

    # number of product factors: omitted ones multiply the result by
    # 1 + delta with |delta| <= sum_{m>M} 3 exp(-(2m-1) pi t), kept small
    pi_t = math.pi * t
    m_factors = 1
    while 3.0 * math.exp(-(2 * m_factors + 1) * pi_t) / (1.0 - math.exp(-2.0 * pi_t)) > rel_tol * 0.05:
        m_factors += 1
        if m_factors > pol.max_radius:
            break
    m_factors = max(m_factors, 4)

    g = np.empty(m_factors)
    coeff = np.empty(m_factors)
    for m in range(1, m_factors + 1):
        e_even = math.exp(-2.0 * math.pi * m * t)
        e_odd = math.exp(-(2 * m - 1) * math.pi * t)
        g[m - 1] = (1.0 - e_even) * (1.0 + c * e_odd + e_odd * e_odd)
        coeff[m - 1] = (1.0 - e_even) * e_odd
    full_product = float(np.prod(g))
    partial = 4.0 * math.pi * float(np.sum(coeff * (full_product / g)))

    # remaining l-terms plus multiplicative band of the omitted factors
    upper_product = full_product * (1.0 + rel_tol * 0.1)
    l_tail = 4.0 * math.pi * upper_product * math.exp(-(2 * m_factors + 1) * pi_t) / max(
        1.0 - math.exp(-2.0 * pi_t), 1e-300
    )
    delta = 3.0 * math.exp(-(2 * m_factors + 1) * pi_t) / max(1.0 - math.exp(-2.0 * pi_t), 1e-300)
    tail = abs(partial) * 1.2 * delta + l_tail
    converged = tail <= max(pol.target_tol, abs(partial) * 1e-14)
    return CertifiedValue(partial, tail, m_factors, converged)


# ---------------------------------------------------------------------------
# Two-dimensional machinery
# ---------------------------------------------------------------------------

def _cell_half_diameter(gen: np.ndarray) -> float:
    v1 = gen[:, 0]
    v2 = gen[:, 1]
    return float(0.5 * max(np.linalg.norm(v1 + v2), np.linalg.norm(v1 - v2)))


def _ring_count_bound(r: float, covol: float, h: float) -> float:
    """Upper bound on lattice points with |point| in [r, r+1)."""
    outer = (r + 1.0 + h) ** 2
    inner = max(r - h, 0.0) ** 2
    return math.pi * (outer - inner) / covol


def _ball_tail(radius: float, alpha: float, covol: float, h: float) -> float:
    """Rigorous bound on sum of exp(-pi alpha |p|^2) over |p| > radius."""
    total = 0.0
    r = radius
    for _ in range(4000):
        term = _ring_count_bound(r, covol, h) * math.exp(-math.pi * alpha * r * r)
        total += term
        r += 1.0
        ratio = 2.0 * math.exp(-math.pi * alpha * (2.0 * r + 1.0))
        if ratio < 0.5:
            last = _ring_count_bound(r, covol, h) * math.exp(-math.pi * alpha * r * r)
            return total + last / (1.0 - ratio)
    return math.inf


def _select_radius(
    alpha: float, covol: float, h: float, tol: float, max_radius: float = math.inf, weight=None
) -> tuple[float, float, bool]:
    """Smallest ball radius whose certified tail is below tol.

    ``max_radius`` caps the ball (in units of length, one unit per ring);
    hitting the cap returns the honest tail with a failure flag.  ``weight``,
    if given, maps a radius r to a factor on the tail beyond r.
    """

    def tail_at(r: float) -> float:
        tail = _ball_tail(r, alpha, covol, h)
        return tail if weight is None else tail * weight(r)

    r = math.sqrt(max(math.log(max(4.0 / tol, 4.0)), 1.0) / (math.pi * alpha))
    r = max(r, 1.0)
    for _ in range(400):
        if r > max_radius:
            r = max_radius
            return r, tail_at(r), False
        tail = tail_at(r)
        if tail <= tol:
            return r, tail, True
        r *= 1.12
    return r, tail_at(r), False


def _index_box(gen: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """Integer pairs (k, l) with |gen @ (k, l) + center| <= radius."""
    inv = np.linalg.inv(gen)
    mid = -inv @ center
    half = radius * np.linalg.norm(inv, axis=1)
    ks = np.arange(math.floor(mid[0] - half[0]) - 1, math.ceil(mid[0] + half[0]) + 2)
    ls = np.arange(math.floor(mid[1] - half[1]) - 1, math.ceil(mid[1] + half[1]) + 2)
    kk, ll = np.meshgrid(ks, ls, indexing="ij")
    idx = np.column_stack([kk.ravel(), ll.ravel()])
    pts = idx @ gen.T + center
    mask = np.einsum("ij,ij->i", pts, pts) <= radius * radius
    return idx[mask]


def _ball(
    gen: np.ndarray,
    center: np.ndarray,
    alpha: float,
    tol: float,
    max_radius: float,
    pad=0.0,
    weight=None,
) -> tuple[np.ndarray, float, float, bool]:
    """Truncate sum exp(-pi alpha |gen @ (k, l) + center|^2) to the smallest ball,
    capped at max_radius, whose certified tail (times ``weight``, see
    ``_select_radius``) is below tol.  Returns the index pairs in that ball
    widened by ``pad``, its radius (every discarded point lies beyond it), the
    tail and whether it meets tol."""
    covol = float(gen[0, 0] * gen[1, 1] - gen[0, 1] * gen[1, 0])
    h = _cell_half_diameter(gen)
    r, tail, ok = _select_radius(alpha, covol, h, tol, max_radius, weight)
    return _index_box(gen, center, r + pad), r, tail, ok


def _cell_ball(
    gen: np.ndarray, alpha: float, tol: float, max_radius: float, weight=None
) -> tuple[np.ndarray, float, bool]:
    """The ``_ball`` of one index set that serves every shift z in [0, 1]^2: centred
    on the cell and widened by the cell half-diameter, the farthest a corner lies
    from the centre.  Returns the index pairs, the tail (uniform over the cell) and ok."""
    pad = _cell_half_diameter(gen)
    idx, _, tail, ok = _ball(gen, gen @ np.array([0.5, 0.5]), alpha, tol, max_radius, pad, weight)
    return idx, tail, ok


def _dual_ball(lattice: Lattice, alpha: float, pol: TruncationPolicy):
    """Frequency side E(z; alpha) = scale * sum exp(-pi |k|^2 / alpha) cos(2 pi k.z):
    dual index pairs, |k|^2, scale = 1/(alpha covol), the ball radius, the tail
    times scale, ok."""
    dual_gen = np.linalg.inv(lattice.gen).T
    scale = 1.0 / (alpha * lattice.covolume)
    tol = pol.target_tol / scale
    idx, r, tail, ok = _ball(dual_gen, np.zeros(2), 1.0 / alpha, tol, pol.max_radius)
    pts = idx @ dual_gen.T
    return idx, np.einsum("ij,ij->i", pts, pts), scale, r, tail * scale, ok


def _nearest_sq(gen: np.ndarray, center: np.ndarray) -> float:
    """Squared distance from -center to the nearest point gen @ (k, l): the cells
    gen @ ([k, l] + [-1/2, 1/2]^2) tile the plane, so one point lies within
    the cell half-diameter."""
    idx = _index_box(gen, center, _cell_half_diameter(gen) * (1.0 + 1e-12))
    pts = idx @ gen.T + center
    return float(np.einsum("ij,ij->i", pts, pts).min())


def _power_tail(gen: np.ndarray, radius: float, s: float) -> float:
    """Upper bound on sum |gen @ (k, l) + center|^(-2s) over the points beyond
    ``radius``, any center, s > 1.

    With N(r) the number of points within r and h the cell half-diameter,
    |N(r) - pi r^2 / covol| <= pi (2 r h + h^2) / covol.  Summation by parts
    against f(r) = r^(-2s) puts the sum within
    pi/covol ((4 R h + 2 h^2) f(R) + 2 h R^(1-2s) / (2s - 1)) of the integral
    2 pi/covol R^(2-2s) / (2s - 2); the bound is their sum."""
    covol = float(gen[0, 0] * gen[1, 1] - gen[0, 1] * gen[1, 0])
    h = _cell_half_diameter(gen)
    r = radius
    f = r ** (-2.0 * s)
    spread = (4.0 * r * h + 2.0 * h * h) * f + 2.0 * h * r * f / (2.0 * s - 1.0)
    return math.pi / covol * (r * r * f / (s - 1.0) + spread)


def _use_fe(alpha: float, use_functional_equation: bool | None) -> bool:
    """Reject alpha <= 0; by default route alpha < 1 through the functional
    equation, whose other side decays faster there."""
    if alpha <= 0:
        raise NonPositiveAlpha(f"alpha must be positive, got {alpha}")
    return alpha < 1.0 if use_functional_equation is None else use_functional_equation


def _sorted_fsum(values: np.ndarray, radii: np.ndarray, idx: np.ndarray) -> float:
    """Compensated sum over terms ordered by (radius, k, l)."""
    order = np.lexsort((idx[:, 1], idx[:, 0], radii))
    return math.fsum(values[order].tolist())


def lattice_gaussian_sum(
    lattice: Lattice,
    z: PhasePoint,
    alpha: float,
    pol: TruncationPolicy = DEFAULT_POLICY,
    use_functional_equation: bool | None = None,
) -> CertifiedValue:
    """E(z; alpha) = sum over the lattice of exp(-pi alpha |point + z|^2).

    For alpha < 1 the sum is evaluated through its frequency-side form
    (faster decay) unless ``use_functional_equation`` is set to False.
    """
    use_fe = _use_fe(alpha, use_functional_equation)
    zl = z.to_lattice(lattice).canonical()
    if use_fe:
        idx, q, scale, _, tail, ok = _dual_ball(lattice, alpha, pol)
        terms = np.exp(-math.pi / alpha * q) * np.cos(TWO_PI * (idx @ np.array([zl.u, zl.v])))
        return CertifiedValue(_sorted_fsum(terms, q, idx) * scale, tail, len(terms), ok)

    gen = lattice.gen
    center = gen @ np.array([zl.u, zl.v])
    idx, _, tail, ok = _ball(gen, center, alpha, pol.target_tol, pol.max_radius)
    pts = idx @ gen.T + center
    q = np.einsum("ij,ij->i", pts, pts)
    terms = np.exp(-math.pi * alpha * q)
    return CertifiedValue(_sorted_fsum(terms, q, idx), tail, len(terms), ok)


def _as_lattice_coords(lattice: Lattice, b: PhasePoint) -> tuple[float, float]:
    bl = b.to_lattice(lattice).canonical()
    return bl.u, bl.v


def _other_side(family, lattice, b, alpha, pol) -> CertifiedValue:
    """family(b; 1/alpha) / alpha summed directly, as the functional equation
    gives it; asked for tol * alpha, its tail meets tol after the division."""
    pol = replace(pol, target_tol=pol.target_tol * alpha)
    inner = family(lattice, b, 1.0 / alpha, pol, use_functional_equation=False)
    return CertifiedValue(
        inner.value / alpha, inner.tail_bound / alpha, inner.terms_used, inner.converged
    )


def theta_shifted(
    lattice: Lattice,
    b: PhasePoint,
    alpha: float,
    pol: TruncationPolicy = DEFAULT_POLICY,
    use_functional_equation: bool | None = None,
) -> CertifiedValue:
    """Shifted family through the explicit (x, y) quadratic form.

    Equals the Gaussian sum at the Cartesian shift gen @ b; implemented
    on the shape parameters directly, which gives an independent route.
    """
    if _use_fe(alpha, use_functional_equation):
        return _other_side(theta_charged, lattice, b, alpha, pol)
    x, y = lattice.x, lattice.y
    b1, b2 = _as_lattice_coords(lattice, b)
    gen = lattice_from_tau(x, y).gen
    center = gen @ np.array([b1, b2])
    idx, _, tail, ok = _ball(gen, center, alpha, pol.target_tol, pol.max_radius)
    u = idx[:, 0] + b1
    v = idx[:, 1] + b2
    q = (u * u + 2.0 * x * u * v + (x * x + y * y) * v * v) / y
    terms = np.exp(-math.pi * alpha * q)
    return CertifiedValue(_sorted_fsum(terms, q, idx), tail, len(terms), ok)


def theta_charged(
    lattice: Lattice,
    b: PhasePoint,
    alpha: float,
    pol: TruncationPolicy = DEFAULT_POLICY,
    use_functional_equation: bool | None = None,
) -> CertifiedValue:
    """Charged family: Gaussian weights with skew-form phase factors."""
    if _use_fe(alpha, use_functional_equation):
        return _other_side(theta_shifted, lattice, b, alpha, pol)
    x, y = lattice.x, lattice.y
    b1, b2 = _as_lattice_coords(lattice, b)
    gen = lattice_from_tau(x, y).gen
    idx, _, tail, ok = _ball(gen, np.zeros(2), alpha, pol.target_tol, pol.max_radius)
    k = idx[:, 0].astype(float)
    l = idx[:, 1].astype(float)
    q = (k * k + 2.0 * x * k * l + (x * x + y * y) * l * l) / y
    terms = np.exp(-math.pi * alpha * q) * np.cos(TWO_PI * (k * b2 - l * b1))
    return CertifiedValue(_sorted_fsum(terms, q, idx), tail, len(terms), ok)


def functional_equation_residual(
    lattice: Lattice,
    b: PhasePoint,
    alpha: float,
    pol: TruncationPolicy = DEFAULT_POLICY,
) -> float:
    """|shifted(b; alpha) - charged(b; 1/alpha)/alpha| with both sides direct.

    The two series are summed without rerouting through the functional
    equation, so the residual genuinely tests the identity.
    """
    lhs = theta_shifted(lattice, b, alpha, pol, use_functional_equation=False)
    rhs = theta_charged(lattice, b, 1.0 / alpha, pol, use_functional_equation=False)
    return abs(lhs.value - rhs.value / alpha)


def combined_functional_tails(
    lattice: Lattice,
    b: PhasePoint,
    alpha: float,
    pol: TruncationPolicy = DEFAULT_POLICY,
) -> float:
    """Sum of the two (appropriately scaled) tail bounds for the residual."""
    lhs = theta_shifted(lattice, b, alpha, pol, use_functional_equation=False)
    rhs = theta_charged(lattice, b, 1.0 / alpha, pol, use_functional_equation=False)
    return lhs.tail_bound + rhs.tail_bound / alpha


# ---------------------------------------------------------------------------
# Batch evaluators (shared by the torus minimizers)
# ---------------------------------------------------------------------------

def _cosine_derivatives(
    zs: np.ndarray, idx: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Values (n,), gradients (n, 2) and Hessians (n, 2, 2) of the cosine series
    sum_k weights_k cos(2 pi k.z) at an (n, 2) batch of z, term by term:
    d/dz cos(2 pi k.z) = -2 pi k sin(.), d2/dz2 = -4 pi^2 k k^T cos(.)."""
    phases = TWO_PI * (zs @ idx.T)
    wc = np.cos(phases) * weights
    ws = np.sin(phases) * weights
    k1, k2 = idx[:, 0], idx[:, 1]
    values = wc.sum(axis=1)
    grad = -TWO_PI * (ws @ idx)
    h11, h12, h22 = -(TWO_PI**2) * (wc @ np.column_stack([k1 * k1, k1 * k2, k2 * k2])).T
    hess = np.stack([h11, h12, h12, h22], axis=-1).reshape(-1, 2, 2)
    return values, grad, hess


class ShiftedSumEvaluator:
    """Vectorized E(z; alpha) over batches of lattice-coordinate shifts.

    The displacement set covers every z in [0, 1]^2, so one index set
    serves a whole minimization; the certified tail bound is uniform
    over the cell.
    """

    def __init__(
        self,
        lattice: Lattice,
        alpha: float,
        pol: TruncationPolicy = DEFAULT_POLICY,
        use_functional_equation: bool | None = None,
    ) -> None:
        self.use_fe = _use_fe(alpha, use_functional_equation)
        self.lattice = lattice
        self.alpha = alpha
        if self.use_fe:
            idx, q, scale, _, tail, ok = _dual_ball(lattice, alpha, pol)
            keep = np.any(idx != 0, axis=1)
            self._idx = idx[keep].astype(float)
            self._weights = np.exp(-math.pi / alpha * q[keep]) * scale
            # constant zero-frequency term, kept apart so that the
            # oscillating remainder retains full relative precision
            self.value_offset = scale
        else:
            idx, tail, ok = _cell_ball(lattice.gen, alpha, pol.target_tol, pol.max_radius)
            self._idx = idx.astype(float)
            g = lattice.gram
            self._g00, self._g01, self._g11 = g[0, 0], g[0, 1], g[1, 1]
            self.value_offset = 0.0
        self.tail_bound = tail
        self.converged = ok
        self.terms = len(self._idx)

    def values_centered(self, zs: np.ndarray) -> np.ndarray:
        """Values minus the constant offset (same argmin, better resolution)."""
        zs = np.atleast_2d(np.asarray(zs, dtype=float))
        if self.use_fe:
            phases = TWO_PI * (zs @ self._idx.T)
            return np.cos(phases) @ self._weights
        w1 = self._idx[:, 0][None, :] + zs[:, 0][:, None]
        w2 = self._idx[:, 1][None, :] + zs[:, 1][:, None]
        q = self._g00 * w1 * w1 + 2.0 * self._g01 * w1 * w2 + self._g11 * w2 * w2
        return np.exp(-math.pi * self.alpha * q).sum(axis=1)

    def derivatives_centered(self, zs: np.ndarray) -> tuple[np.ndarray, ...]:
        """Centered values (n,), gradients (n, 2) and Hessians (n, 2, 2) in
        lattice coordinates, each series differentiated term by term."""
        zs = np.atleast_2d(np.asarray(zs, dtype=float))
        if self.use_fe:
            return _cosine_derivatives(zs, self._idx, self._weights)
        # exp(-pi alpha w^T G w) has gradient -c e Gw and Hessian
        # e (c^2 Gw (Gw)^T - c G), with c = 2 pi alpha and w = idx + z
        w1 = self._idx[:, 0][None, :] + zs[:, 0][:, None]
        w2 = self._idx[:, 1][None, :] + zs[:, 1][:, None]
        a = self._g00 * w1 + self._g01 * w2
        b = self._g01 * w1 + self._g11 * w2
        e = np.exp(-math.pi * self.alpha * (w1 * a + w2 * b))
        c = TWO_PI * self.alpha
        ea, eb = e * a, e * b
        values = e.sum(axis=1)
        grad = -c * np.column_stack([ea.sum(axis=1), eb.sum(axis=1)])
        h11 = c * c * (ea * a).sum(axis=1) - c * self._g00 * values
        h12 = c * c * (ea * b).sum(axis=1) - c * self._g01 * values
        h22 = c * c * (eb * b).sum(axis=1) - c * self._g11 * values
        hess = np.stack([h11, h12, h12, h22], axis=-1).reshape(-1, 2, 2)
        return values, grad, hess

    def values(self, zs: np.ndarray) -> np.ndarray:
        """Evaluate at an (n, 2) array of lattice-coordinate shifts."""
        return self.value_offset + self.values_centered(zs)


class ChargedSumEvaluator:
    """Vectorized charged sums over batches of charges b in [0, 1)^2.

    By the functional equation: the shifted evaluator of the tau lattice at
    1/alpha on the other route, divided by alpha.  The charged direct series
    is the shifted frequency-side series with (k, l) -> (-l, k)."""

    def __init__(
        self,
        lattice: Lattice,
        alpha: float,
        pol: TruncationPolicy = DEFAULT_POLICY,
        use_functional_equation: bool | None = None,
    ) -> None:
        use_fe = _use_fe(alpha, use_functional_equation)
        self.alpha = alpha
        self._shifted = ShiftedSumEvaluator(
            lattice_from_tau(lattice.x, lattice.y),
            1.0 / alpha,
            replace(pol, target_tol=pol.target_tol * alpha),
            use_functional_equation=not use_fe,
        )
        self.value_offset = self._shifted.value_offset / alpha
        self.tail_bound = self._shifted.tail_bound / alpha
        self.converged = self._shifted.converged
        self.terms = self._shifted.terms

    def values_centered(self, bs: np.ndarray) -> np.ndarray:
        return self._shifted.values_centered(bs) / self.alpha

    def derivatives_centered(self, bs: np.ndarray) -> tuple[np.ndarray, ...]:
        """Centered values, gradients and Hessians in the charge b."""
        return tuple(d / self.alpha for d in self._shifted.derivatives_centered(bs))

    def values(self, bs: np.ndarray) -> np.ndarray:
        return self.value_offset + self.values_centered(bs)
