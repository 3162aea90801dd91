"""One- and two-dimensional Gaussian lattice sums with certified tails.

All series are truncated inside Euclidean balls; the discarded tail is
bounded rigorously, in 2D by one closed form from the lattice-point count
(``_gaussian_tail``), in 1D by geometric majorants, and every certified
result carries that bound.  Pointwise sums are
accumulated with ``math.fsum``, which rounds the exact sum of its terms
correctly, so the result does not depend on their order.

The 2D Gaussian sum is ``lattice_gaussian_sum``, the lattice series or its
dual cosine series; the shifted and charged families are that sum on the
unit-covolume lattice of their shape parameters (x, y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptyQuadrature, NonPositiveAlpha, NonPositiveT, TailNotMet
from .lattice import Lattice, PhasePoint, det2, lattice_from_tau

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class TruncationPolicy:
    """Target absolute tolerance and a cap on the radius of every truncation
    ball (in units of length)."""

    target_tol: float = 1e-12
    max_radius: int = 10_000

    def __post_init__(self) -> None:
        if not 0.0 < self.target_tol < math.inf:
            raise ValueError("target_tol must be finite and positive")
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


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < math.inf:
        raise NonPositiveAlpha(f"alpha must be finite and positive, got {alpha}")


def _check_t(t: float) -> None:
    if not 0.0 < t < math.inf:
        raise NonPositiveT(f"t must be finite and positive, got {t}")


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
    _check_t(t)
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
    return CertifiedValue(math.fsum(terms), tail, len(terms), tail <= pol.target_tol)


def theta1d_hat(beta: float, t: float, pol: TruncationPolicy = DEFAULT_POLICY) -> CertifiedValue:
    """theta_hat(beta; t) = sum_k exp(-pi t k^2) exp(2 pi i k beta), real form.

    Imaginary parts cancel pairwise, so the cosine series is summed.
    """
    _check_t(t)
    terms = [1.0]
    m = 0
    tail = math.inf
    while m < pol.max_radius:
        m += 1
        terms.append(2.0 * math.exp(-math.pi * t * m * m) * math.cos(TWO_PI * m * beta))
        tail = 2.0 * _gauss_tail(m + 1, t)
        if tail <= pol.target_tol:
            break
    return CertifiedValue(math.fsum(terms), tail, len(terms), tail <= pol.target_tol)


def product_rep_theta1d_hat(beta: float, t: float, n_factors: int) -> float:
    """Partial product representation of theta_hat(beta; t).

    Each factor is (1 - q^(2k)) (1 + 2 cos(2 pi beta) q^(2k-1) + q^(4k-2))
    with q = exp(-pi t); every factor is positive.
    """
    _check_t(t)
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
    _check_t(t)
    if t < 1.0:
        return t ** -1.5 * math.exp(-math.pi / (4.0 * t))
    return (1.0 - 1.0 / 3000.0) * 4.0 * math.pi * math.exp(-math.pi * t)


def montgomery_B(t: float) -> float:
    """Upper envelope for the theta-derivative ratio; piecewise in t."""
    _check_t(t)
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
    _check_t(t)
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


def _gaussian_tail(nodes, covol: float, h: float, radius: float) -> tuple[float, float]:
    """Upper bound on sum_j w_j sum_(|p + c| > R) exp(-pi alpha_j |p + c|^2) over the
    points p of a lattice with covolume ``covol`` and cell half-diameter ``h``, for
    any centre c, R = ``radius`` > 0 and the nodes (alpha_j, w_j), w_j >= 0: it is
    sum_j w_j T(alpha_j, R) with

        T(alpha, R) = pi/covol exp(-pi alpha R^2)
                      [(R + h)^2 - max(R - h, 0)^2 + (1 + h/R) / (pi alpha)].

    The cells p + gen [-1/2, 1/2]^2 tile the plane and lie within h of their
    points, so the number N(r) of points within r of c has
    pi max(r - h, 0)^2 <= covol N(r) <= pi (r + h)^2.  For f(r) = exp(-pi alpha r^2),
    summation by parts gives sum_(|p + c| > R) f = -f(R) N(R) + int_R^oo N(r) (-f'(r)) dr,
    at most pi/covol [-f(R) max(R - h, 0)^2 + int_R^oo (r + h)^2 (-f'(r)) dr].  By parts
    again the integral is f(R) (R + h)^2 + int_R^oo 2 (r + h) f(r) dr, where
    int_R^oo 2 r f = f(R) / (pi alpha) and int_R^oo 2 h f = h erfc(x) / sqrt(alpha),
    x = R sqrt(pi alpha), at most h f(R) / (pi alpha R) by erfc(x) <= e^(-x^2) / (x sqrt(pi)).

    T is strictly decreasing in R: with T = pi/covol f(R) B(R), B'(R) <= 2 (R + h)
    < 2 pi alpha R B(R), so (log T)' = -2 pi alpha R + B'/B < 0.

    Returns the tail and its moment sum_j alpha_j w_j T(alpha_j, R).
    """
    r = radius
    span = (r + h) ** 2 - max(r - h, 0.0) ** 2
    edge = 1.0 + h / r
    tail = moment = 0.0
    for alpha, w in nodes:
        rate = math.pi * alpha
        t = w * math.exp(-rate * r * r) * (span + edge / rate)
        tail += t
        moment += alpha * t
    scale = math.pi / covol
    return scale * tail, scale * moment


def _select_radius(
    nodes, covol: float, h: float, tol: float, max_radius: float
) -> tuple[float, float, bool]:
    """The ball radius R >= 1 just past the root of ``_gaussian_tail`` = tol.

    With t_j the nodes' tails at u = R^2, the Gaussian factors of the tail a
    step du further, sum_j t_j exp(-pi alpha_j du), are log-convex in du, so
    they stay above their tangent, which falls at the rate pi moment / tail.
    Each step du = log(1.05 tail / tol) tail / (pi moment) takes that tangent
    to tol / 1.05, so a step overshoots the root by no more than the
    polynomial factors of T move, and the last one lands just past it.  A
    radius beyond ``max_radius`` is cut to it; the tail there is returned as
    it is, with the flag tail <= tol."""
    cap = max_radius * max_radius
    r2 = 1.0
    tail, moment = _gaussian_tail(nodes, covol, h, 1.0)
    while tail > tol and r2 < cap:
        r2 = min(r2 + math.log(1.05 * tail / tol) * tail / (math.pi * moment), cap)
        tail, moment = _gaussian_tail(nodes, covol, h, math.sqrt(r2))
    return math.sqrt(r2), tail, tail <= tol


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
    nodes,
    tol: float,
    max_radius: float,
    pad=0.0,
) -> tuple[np.ndarray, float, float, bool]:
    """Truncate sum_j w_j sum exp(-pi alpha_j |gen @ (k, l) + center|^2) over the
    nodes (alpha_j, w_j) to the ball, capped at max_radius, whose
    ``_gaussian_tail`` falls to tol.  Returns the index pairs in that ball
    widened by ``pad``, its radius (every discarded point lies beyond it), the
    tail and whether it meets tol."""
    r, tail, ok = _select_radius(nodes, det2(gen), _cell_half_diameter(gen), tol, max_radius)
    return _index_box(gen, center, r + pad), r, tail, ok


def _cell_ball(
    gen: np.ndarray, nodes, tol: float, max_radius: float
) -> tuple[np.ndarray, float, bool]:
    """The ``_ball`` of one index set that serves every shift z in [0, 1]^2: centred
    on the cell and widened by the cell half-diameter, the farthest a corner lies
    from the centre.  Returns the index pairs, the tail (uniform over the cell) and ok."""
    pad = _cell_half_diameter(gen)
    idx, _, tail, ok = _ball(gen, gen @ np.array([0.5, 0.5]), nodes, tol, max_radius, pad)
    return idx, tail, ok


def _dual_ball(lattice: Lattice, dual_nodes, tol: float, max_radius: float):
    """Frequency side of sum_j w_j E(z; alpha_j): by Poisson summation the cosine
    series sum_k g(k) cos(2 pi k.z) over the dual lattice with
    g(k) = sum_j w_j exp(-pi |k|^2 / alpha_j) / (alpha_j covol), the Gaussian
    nodes (1/alpha_j, w_j / (alpha_j covol)) there, which the caller passes.
    Returns the dual index pairs of their ``_ball``, |k|^2, the radius, the
    tail and ok."""
    dual_gen = np.linalg.inv(lattice.gen).T
    idx, r, tail, ok = _ball(dual_gen, np.zeros(2), dual_nodes, tol, max_radius)
    pts = idx @ dual_gen.T
    return idx, np.einsum("ij,ij->i", pts, pts), r, tail, ok


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
    h = _cell_half_diameter(gen)
    r = radius
    f = r ** (-2.0 * s)
    spread = (4.0 * r * h + 2.0 * h * h) * f + 2.0 * h * r * f / (2.0 * s - 1.0)
    return math.pi / det2(gen) * (r * r * f / (s - 1.0) + spread)


def _dual_side(alpha: float, covol: float) -> bool:
    """The side E(z; alpha) is summed on: the dual cosine series iff
    alpha covol < 1.  Its Gaussian exp(-pi |k|^2 / alpha) on the dual lattice
    (covolume 1/covol) decays faster there, so it is the shorter series."""
    return alpha * covol < 1.0


def lattice_gaussian_sum(
    lattice: Lattice,
    z: PhasePoint,
    alpha: float,
    pol: TruncationPolicy = DEFAULT_POLICY,
    use_functional_equation: bool | None = None,
) -> CertifiedValue:
    """E(z; alpha) = sum over the lattice of exp(-pi alpha |point + z|^2).

    Summed over the lattice ball, or through the functional equation over
    the dual cosine ball; ``use_functional_equation`` picks the side and
    defaults to the shorter series, ``_dual_side``.
    """
    _check_alpha(alpha)
    if use_functional_equation is None:
        use_functional_equation = _dual_side(alpha, lattice.covolume)
    zl = z.to_lattice(lattice).canonical()
    if use_functional_equation:
        scale = 1.0 / (alpha * lattice.covolume)
        node = ((1.0 / alpha, scale),)
        idx, q, _, tail, ok = _dual_ball(lattice, node, pol.target_tol, pol.max_radius)
        terms = np.exp(-math.pi / alpha * q) * np.cos(TWO_PI * (idx @ np.array([zl.u, zl.v])))
        return CertifiedValue(math.fsum(terms.tolist()) * scale, tail, len(terms), ok)

    gen = lattice.gen
    center = gen @ np.array([zl.u, zl.v])
    idx, _, tail, ok = _ball(gen, center, ((alpha, 1.0),), pol.target_tol, pol.max_radius)
    pts = idx @ gen.T + center
    terms = np.exp(-math.pi * alpha * np.einsum("ij,ij->i", pts, pts))
    return CertifiedValue(math.fsum(terms.tolist()), tail, len(terms), ok)


def theta_shifted(
    lattice: Lattice,
    b: PhasePoint,
    alpha: float,
    pol: TruncationPolicy = DEFAULT_POLICY,
    use_functional_equation: bool | None = None,
) -> CertifiedValue:
    """Shifted family: sum over (k, l) of exp(-pi alpha Q(k + b1, l + b2)), with
    Q(u, v) = (u^2 + 2 x u v + (x^2 + y^2) v^2) / y for the shape (x, y) of
    ``lattice`` and (b1, b2) the lattice coordinates of b.  That is
    ``lattice_gaussian_sum`` at (b1, b2) on ``lattice_from_tau(x, y)``.
    """
    tau = lattice_from_tau(lattice.x, lattice.y)
    return lattice_gaussian_sum(tau, b.to_lattice(lattice), alpha, pol, use_functional_equation)


def theta_charged(
    lattice: Lattice,
    b: PhasePoint,
    alpha: float,
    pol: TruncationPolicy = DEFAULT_POLICY,
    use_functional_equation: bool | None = None,
) -> CertifiedValue:
    """Charged family: sum over (k, l) of exp(-pi alpha Q(k, l))
    cos(2 pi (k b2 - l b1)), with Q and (b1, b2) as in ``theta_shifted``.

    By the functional equation it is theta_shifted(b; 1/alpha) / alpha, and is
    computed so, asked for tol * alpha.  The charged series is that shifted
    sum's dual cosine series, so ``use_functional_equation`` maps to the other
    side: False sums the charged series, True the shifted one.
    """
    _check_alpha(alpha)
    fe = None if use_functional_equation is None else not use_functional_equation
    inner = theta_shifted(
        lattice, b, 1.0 / alpha, replace(pol, target_tol=pol.target_tol * alpha), fe
    )
    return CertifiedValue(
        inner.value / alpha, inner.tail_bound / alpha, inner.terms_used, inner.converged
    )


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


# ---------------------------------------------------------------------------
# Batch evaluator (shared by the torus minimizers and the applications)
# ---------------------------------------------------------------------------

_EPS = float(np.finfo(float).eps)
# exponents below this are clipped: exp is ~16 times slower where it underflows
_EXP_FLOOR = -700.0


def _clipped_exp(x: np.ndarray) -> np.ndarray:
    """exp(-x), with -x clipped at ``_EXP_FLOOR``."""
    return np.exp(np.maximum(-x, _EXP_FLOOR))


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


def _exponent_rounding(lattice: Lattice) -> float:
    """kappa such that every exponent X = c |x|^2 the evaluator computes
    carries a relative error of at most kappa eps, on either side.  A squared
    length taken from the Gram form of w = idx + z (lattice side) or from the
    Cartesian dual points (dual side) is within 12 cond(G) eps of its value,
    since the absolute parts of either form are at most 2 cond(G) times the
    form; the product with c adds at most 8 eps."""
    lo, hi = np.linalg.eigvalsh(lattice.gram)
    return 12.0 * hi / lo + 8.0


class ShiftedSumEvaluator:
    """A positive Gaussian mixture sum_j w_j E(z; alpha_j) = sum_p K(|p + z|^2),
    K(rho) = sum_j w_j exp(-pi alpha_j rho), over batches of lattice-coordinate
    shifts z, split at lam = 1/covol (Ewald) by ``_dual_side``.  ``nodes`` are
    the (alpha_j, w_j) pairs, alpha_j > 0 and w_j >= 0.  E(z; alpha) is the one
    node (alpha, 1); the charged sum theta_charged(b; n) = E(b; 1/n) / n on the
    tau lattice is the one node (1/n, 1/n); a completely monotone energy is the
    mixture of its Bernstein measure.

    Lattice side, the nodes with alpha_j >= lam: K summed over one cell-wide
    ``_cell_ball`` of those nodes, so one index set serves every z in [0, 1]^2,
    with their ``_gaussian_tail``.

    Dual side, the nodes with alpha_j < lam: by Poisson summation, one cosine
    series sum_k g(k) cos(2 pi k.z) whose weights
    g(k) = sum_j w_j exp(-pi |k|^2 / alpha_j) / (alpha_j covol) do not depend
    on z.  They are built once over the ``_dual_ball`` of the dual nodes
    (1/alpha_j, w_j / (alpha_j covol)), with its ``_gaussian_tail``.  Flat nodes underflow off k != 0 and land in g(0),
    which is kept apart as ``value_offset`` so that the oscillating remainder
    keeps full relative precision.

    Half the tolerance goes to truncation, shared by the sides present (a
    quarter each when both are), the rest is left to rounding; ``tail_bound``
    is the sum of the truncation tails, uniform over the cell, and
    ``converged`` says every ball met its share.  ``certified`` adds each value's
    rounding.  An empty side costs nothing.  Exponents below ``_EXP_FLOOR``
    are clipped, and the term they overstate goes into the rounding.
    """

    def __init__(
        self,
        lattice: Lattice,
        nodes: tuple[tuple[float, float], ...],
        pol: TruncationPolicy = DEFAULT_POLICY,
    ) -> None:
        if not nodes:
            raise EmptyQuadrature("no quadrature nodes")
        for alpha, _ in nodes:
            _check_alpha(alpha)
        self.lattice = lattice
        self.tol = pol.target_tol
        self.tail_bound = 0.0
        self.converged = True
        self.value_offset = 0.0
        covol = lattice.covolume
        self._far = [node for node in nodes if _dual_side(node[0], covol)]
        self._near = [node for node in nodes if not _dual_side(node[0], covol)]
        # half the tolerance for truncation, shared by the sides present
        budget = self.tol / (2.0 * (bool(self._near) + bool(self._far)))
        near_terms = far_terms = 0

        if self._near:
            idx, tail, ok = _cell_ball(lattice.gen, self._near, budget, pol.max_radius)
            self.tail_bound += tail
            self.converged &= ok
            near_terms = len(idx)
            self._i1, self._i2 = idx[:, 0].astype(float), idx[:, 1].astype(float)
            alphas, weights = np.array(self._near).T
            self._rates = rates = math.pi * alphas
            # w_j rate_j^m for m = 0, 1, 2: the weights of K, -K' and K''
            wr = weights * rates
            self._moments = np.array([weights, wr, wr * rates])
            g = lattice.gram
            self._g00, self._g01, self._g11 = float(g[0, 0]), float(g[0, 1]), float(g[1, 1])

        if self._far:
            alphas, weights = np.array(self._far).T
            self._scales = weights / (alphas * covol)
            dual_nodes = list(zip((1.0 / alphas).tolist(), self._scales.tolist()))
            kidx, kq, _, tail, ok = _dual_ball(lattice, dual_nodes, budget, pol.max_radius)
            self.tail_bound += tail
            self.converged &= ok
            nonzero = kq > 0.0
            self._kidx = kidx[nonzero].astype(float)
            far_terms = len(self._kidx)
            self._dual_terms = len(kq)
            # (nodes x nonzero dual terms) exponents, independent of z
            self._x = np.outer(math.pi / alphas, kq[nonzero])
            self._ghat = self._scales @ _clipped_exp(self._x)
            self.value_offset = float(self._scales.sum())
        self.terms = near_terms + far_terms

    def _rho(self, zs: np.ndarray) -> np.ndarray:
        """Squared lengths |gen (idx + z)|^2, (points x lattice-side terms)."""
        w1 = self._i1 + zs[:, :1]
        w2 = self._i2 + zs[:, 1:]
        # in place: three (points x terms) arrays at most
        rho = w1 * w1
        rho *= self._g00
        w1 *= w2
        w1 *= 2.0 * self._g01
        rho += w1
        w2 *= w2
        w2 *= self._g11
        rho += w2
        return rho

    def _cosines(self, zs: np.ndarray) -> np.ndarray:
        return np.cos(TWO_PI * (zs @ self._kidx.T)) @ self._ghat

    def values_centered(self, zs: np.ndarray) -> np.ndarray:
        """Values minus ``value_offset`` at an (n, 2) batch of lattice-coordinate shifts."""
        zs = np.atleast_2d(np.asarray(zs, dtype=float))
        out = self._cosines(zs) if self._far else np.zeros(len(zs))
        if self._near:
            rho = self._rho(zs)
            e = np.empty_like(rho)
            for alpha, weight in self._near:
                np.multiply(rho, -math.pi * alpha, out=e)
                np.maximum(e, _EXP_FLOOR, out=e)
                np.exp(e, out=e)
                out += weight * e.sum(axis=1)
        return out

    def _lattice_derivatives(self, zs: np.ndarray) -> tuple[np.ndarray, ...]:
        """Lattice-side values, gradients and Hessians.  With w = idx + z,
        grad rho = 2 Gw and Hess rho = 2 G give grad = K'(rho) 2 Gw and
        Hess = K''(rho) 4 Gw (Gw)^T + K'(rho) 2 G, term by term.  Each node's
        Gaussian is reduced against the monomials 1, a, b, a^2, ab, b^2 of
        Gw = (a, b) in one batched product, then weighted by w_j rate_j^m."""
        w1 = self._i1 + zs[:, :1]
        w2 = self._i2 + zs[:, 1:]
        a = self._g00 * w1 + self._g01 * w2
        b = self._g01 * w1 + self._g11 * w2
        e = _clipped_exp(np.multiply.outer(self._rates, w1 * a + w2 * b))  # (nodes, n, terms)
        mono = np.stack([np.ones_like(a), a, b, a * a, a * b, b * b], axis=-1)
        k = self._moments @ np.matmul(e.transpose(1, 0, 2), mono)  # (n, m, monomial)
        values = k[:, 0, 0]
        grad = -2.0 * k[:, 1, 1:3]
        h = 4.0 * k[:, 2, 3:] - 2.0 * k[:, 1, :1] * np.array([self._g00, self._g01, self._g11])
        return values, grad, h[:, [0, 1, 1, 2]].reshape(-1, 2, 2)

    def derivatives_centered(self, zs: np.ndarray) -> tuple[np.ndarray, ...]:
        """Centered values (n,), gradients (n, 2) and Hessians (n, 2, 2) in
        lattice coordinates, each side differentiated term by term."""
        zs = np.atleast_2d(np.asarray(zs, dtype=float))
        sides = []
        if self._near:
            sides.append(self._lattice_derivatives(zs))
        if self._far:
            sides.append(_cosine_derivatives(zs, self._kidx, self._ghat))
        if len(sides) == 1:
            return sides[0]
        return tuple(x + y for x, y in zip(*sides))

    def values(self, zs: np.ndarray) -> np.ndarray:
        """Evaluate at an (n, 2) array of lattice-coordinate shifts."""
        return self.value_offset + self.values_centered(zs)

    def certified(self, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values at an (n, 2) batch of shifts in [0, 1)^2 and a bound on each
        one's error: both truncation tails plus the rounding.  A lattice-side
        term sum_j w_j e^(-X_j) is off by at most (nodes + 2) eps times itself
        plus kappa eps sum_j w_j X_j e^(-X_j); adding the terms and the two
        sides costs (terms + 4) eps sum |term|.  A clipped exponent overstates
        its term by less than w_j e^_EXP_FLOOR."""
        zs = np.atleast_2d(np.asarray(zs, dtype=float))
        kappa = _exponent_rounding(self.lattice)
        values = np.full(len(zs), self.value_offset)
        size = np.full(len(zs), self.value_offset)
        slope = np.zeros(len(zs))  # sum over terms and nodes of w_j X_j e^(-X_j)
        fixed = 0.0
        if self._far:
            values += self._cosines(zs)
            size += float(self._ghat.sum())
            # g(k): the nodes' sum and the scales, (nodes + 5) eps g, and the
            # exponents, kappa eps X e^-X; cos(2 pi k.z): its phase, computed from
            # z in [0, 1)^2, is off by at most 8 pi (|k1| + |k2|) eps
            n_far = len(self._far)
            s_sum = self.value_offset
            phase = 8.0 * math.pi * np.abs(self._kidx).sum(axis=1)
            x_err = self._scales @ (self._x * _clipped_exp(self._x))
            fixed += _EPS * (
                (n_far + 5.0) * s_sum
                + float(((n_far + 6.0 + phase) * self._ghat).sum())
                + kappa * float(x_err.sum())
            ) + self._dual_terms * s_sum * math.exp(_EXP_FLOOR)
        if self._near:
            x = np.multiply.outer(self._rates, self._rho(zs))  # (nodes, n, terms)
            e = _clipped_exp(x)
            weights = self._moments[0]
            s = weights @ e.sum(axis=2)
            values += s
            size += s
            slope += weights @ np.einsum("jnt,jnt->jn", x, e)
            fixed += len(self._i1) * float(weights.sum()) * math.exp(_EXP_FLOOR)
        rounding = _EPS * ((len(self._near) + self.terms + 6.0) * size + kappa * slope)
        return values, self.tail_bound + fixed + rounding

    def certified_at(self, z: PhasePoint) -> CertifiedValue:
        """``certified`` at one shift; ``terms_used`` counts the lattice-side and
        the nonzero dual-side terms, and ``converged`` needs both balls and the
        whole bound to meet the tolerance."""
        zl = z.to_lattice(self.lattice).canonical()
        values, bounds = self.certified(np.array([[zl.u, zl.v]]))
        tail = float(bounds[0])
        return CertifiedValue(
            float(values[0]), tail, self.terms, self.converged and tail <= self.tol
        )
