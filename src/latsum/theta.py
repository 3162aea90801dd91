"""One- and two-dimensional Gaussian lattice sums with certified tails.

All series are truncated inside Euclidean balls; the discarded tail is
bounded rigorously, in 2D by one closed form from the lattice-point count
(``_gaussian_tail``), in 1D by geometric majorants, and every certified
result carries that bound, in 2D with the rounding.  Sums are accumulated
with ``math.fsum``, which rounds the exact sum of the terms correctly.

Every 2D Gaussian sum is one ``ShiftedSumEvaluator``: ``lattice_gaussian_sum``
is its one-point case, and the shifted and charged families are that sum on
the unit-covolume lattice of their shape parameters (x, y).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EmptyQuadrature, NonPositiveAlpha, NonPositiveT
from .lattice import Lattice, PhasePoint, lattice_from_tau

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class TruncationPolicy:
    """The target absolute tolerance of every truncated sum."""

    target_tol: float = 1e-12

    def __post_init__(self) -> None:
        if not 0.0 < self.target_tol < math.inf:
            raise ValueError("target_tol must be finite and positive")


DEFAULT_POLICY = TruncationPolicy()


@dataclass(frozen=True)
class CertifiedValue:
    """A computed sum and ``tail_bound``, a rigorous bound on its error: the
    truncation tail, in 2D plus the float rounding of the terms and their
    sum, and on the direct zeta route also the incomplete gamma's error."""

    value: float
    tail_bound: float
    terms_used: int
    converged: bool = True


def _check_alpha(alpha: float) -> None:
    # the dual side weighs by 1/alpha, which overflows for a subnormal alpha
    if not (0.0 < alpha < math.inf and 1.0 / alpha < math.inf):
        raise NonPositiveAlpha(f"alpha and 1/alpha must be finite and positive, got {alpha}")


def _check_t(t: float) -> None:
    if not 0.0 < t < math.inf:
        raise NonPositiveT(f"t must be finite and positive, got {t}")


# ---------------------------------------------------------------------------
# One-dimensional theta functions
# ---------------------------------------------------------------------------

# the last index of a 1D series: one summed that far without meeting its
# tolerance returns the tail there, with converged=False
_MAX_INDEX_1D = 10_000


def _gauss_tail(k0: int, t: float) -> float:
    """Upper bound for sum_{k >= k0} exp(-pi t k^2), k0 >= 1."""
    q = math.exp(-math.pi * t * (2 * k0 + 1))
    if q >= 1.0:
        return math.inf
    return math.exp(-math.pi * t * k0 * k0) / (1.0 - q)


def theta1d_hat(beta: float, t: float) -> CertifiedValue:
    """theta_hat(beta; t) = sum_k exp(-pi t k^2) exp(2 pi i k beta), real form,
    to ``DEFAULT_POLICY``'s tolerance and at most ``_MAX_INDEX_1D``.

    Imaginary parts cancel pairwise, so the cosine series is summed.
    """
    _check_t(t)
    tol = DEFAULT_POLICY.target_tol
    terms = [1.0]
    for m in range(1, _MAX_INDEX_1D + 1):
        terms.append(2.0 * math.exp(-math.pi * t * m * m) * math.cos(TWO_PI * m * beta))
        tail = 2.0 * _gauss_tail(m + 1, t)
        if tail <= tol:
            break
    return CertifiedValue(math.fsum(terms), tail, len(terms), tail <= tol)


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


def montgomery_Q(beta: float, t: float) -> CertifiedValue:
    """The ratio -theta_hat'(beta; t) / sin(2 pi beta), extended to all beta.

    Evaluated through the term-by-term differentiated product
    representation, which is a sum of positive terms and carries the
    removable singularities at beta in Z/2 exactly.  The quantity is
    positive, even, 1-periodic, decreasing on (0, 1/2), and sandwiched
    between montgomery_A(t) and montgomery_B(t).  The derivative in beta of
    theta(beta; s) = sum_k exp(-pi s (k + beta)^2) satisfies
    -theta'(beta; s) = sin(2 pi beta) * s**-0.5 * Q(beta; 1/s).
    The tolerance is ``DEFAULT_POLICY``'s, the factors at most ``_MAX_INDEX_1D``.
    """
    _check_t(t)
    tol = DEFAULT_POLICY.target_tol
    c = 2.0 * math.cos(TWO_PI * beta)
    rel_tol = min(0.1, tol)

    # number of product factors: omitted ones multiply the result by
    # 1 + delta with |delta| <= sum_{m>M} 3 exp(-(2m-1) pi t), kept small
    pi_t = math.pi * t
    m_factors = 1
    while m_factors <= _MAX_INDEX_1D and (
        3.0 * math.exp(-(2 * m_factors + 1) * pi_t) / (1.0 - math.exp(-2.0 * pi_t)) > rel_tol * 0.05
    ):
        m_factors += 1
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
    omitted, gap = math.exp(-(2 * m_factors + 1) * pi_t), max(1.0 - math.exp(-2.0 * pi_t), 1e-300)
    l_tail = 4.0 * math.pi * (full_product * (1.0 + rel_tol * 0.1)) * omitted / gap
    tail = abs(partial) * 1.2 * (3.0 * omitted / gap) + l_tail
    return CertifiedValue(partial, tail, m_factors, tail <= tol)


# ---------------------------------------------------------------------------
# Two-dimensional machinery
# ---------------------------------------------------------------------------

def _cell_half_diameter(gen) -> float:
    """Half the longer diagonal of the cell of a 2x2 generator given by rows."""
    (a, b), (c, d) = gen
    return 0.5 * max(math.hypot(a + b, c + d), math.hypot(a - b, c - d))


class _Side(NamedTuple):
    """A lattice gen Z^2 as floats: Gram form, covolume, cell half-diameter, the plan's (x, y)."""

    g00: float
    g01: float
    g11: float
    covol: float
    h: float
    shape: tuple[float, float]


def _side(a: float, b: float, c: float, d: float, shape: tuple[float, float]) -> _Side:
    h = _cell_half_diameter(((a, b), (c, d)))
    return _Side(a * a + c * c, a * b + c * d, b * b + d * d, a * d - b * c, h, shape)


class _Plan(NamedTuple):
    """One lattice's fixed geometry, built once per public call or evaluator:
    the lattice side, the dual side (generator inv(gen)^T) and ``kappa``.  An
    exponent c |x|^2 from either side's Gram form is within kappa eps of
    itself: its rounding is at most 6 eps times the form's absolute parts
    |w|^T |G| |w|, which are at most mu times the form, and the product with c
    adds 8 eps; so kappa = 6 mu + 8, with the sharp constant

        mu = max_w |w|^T |G| |w| / w^T G w
           = (sqrt(g00 g11) + |g01|) / (sqrt(g00 g11) - |g01|)
           = ((sqrt(g00 g11) + |g01|) / covol)^2.

    Proof: with s = sqrt(g00) |w1|, t = sqrt(g11) |w2|, rho = |g01| / sqrt(g00 g11)
    < 1 and q = 2 s t / (s^2 + t^2) in [0, 1], the absolute parts are
    s^2 + t^2 + 2 rho s t and the form at least s^2 + t^2 - 2 rho s t, a ratio
    of at most (1 + rho q) / (1 - rho q) <= (1 + rho) / (1 - rho), with
    equality at s = t and w1 w2 g01 < 0; the last form uses
    g00 g11 - g01^2 = det G = covol^2.  The dual Gram G^-1 = adj(G) / det G
    has the same rho, so the same mu.  mu is the condition number of the
    unit-diagonal scaling [[1, rho], [rho, 1]] of G, and never exceeds
    cond(G) = (m + e) / (m - e), m = (g00 + g11)/2, e = hypot((g00 - g11)/2, g01):
    both are increasing in the ratio rho, resp. e / m, and
    e^2 g00 g11 - g01^2 m^2 = ((g00 - g11)/2)^2 (g00 g11 - g01^2) >= 0 as m^2 =
    ((g00 - g11)/2)^2 + g00 g11, so rho <= e / m."""

    near: _Side
    far: _Side
    kappa: float


def _plan(lattice: Lattice) -> _Plan:
    (a, b), (c, d) = lattice.gen.tolist()
    det = a * d - b * c
    shape = (lattice.x, lattice.y)
    near = _side(a, b, c, d, shape)
    mu = ((math.sqrt(near.g00 * near.g11) + abs(near.g01)) / det) ** 2
    return _Plan(near, _side(d / det, -c / det, -b / det, a / det, shape), 6.0 * mu + 8.0)


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
    nodes, covol: float, h: float, tol: float, cap: float
) -> tuple[float, float, bool]:
    """The ball radius R >= 1 just past the root of ``_gaussian_tail`` = tol.

    With t_j the nodes' tails at u = R^2, the Gaussian factors of the tail a
    step du further, sum_j t_j exp(-pi alpha_j du), are log-convex in du, so
    they stay above their tangent, which falls at the rate pi moment / tail.
    Each step du = log(1.05 tail / tol) tail / (pi moment) takes that tangent
    to tol / 1.05, so a step overshoots the root by no more than the
    polynomial factors of T move, and the last one lands just past it.  A
    radius beyond ``cap`` (at least 1) is cut to it; the tail there is
    returned as it is, with the flag tail <= tol."""
    cap2 = cap * cap
    r2 = 1.0
    tail, moment = _gaussian_tail(nodes, covol, h, 1.0)
    while tail > tol and r2 < cap2:
        r2 = min(r2 + math.log(1.05 * tail / tol) * tail / (math.pi * moment), cap2)
        tail, moment = _gaussian_tail(nodes, covol, h, math.sqrt(r2))
    return math.sqrt(r2), tail, tail <= tol


def _index_box(side: _Side, mid, radius: float):
    """Index pairs (k, l) with |gen ((k, l) - mid)| <= radius, as two integer
    arrays, and those squared lengths, from the Gram form.  The rows of
    inv(gen) have lengths sqrt(g11) / covol and sqrt(g00) / covol, which bound
    |k - m1| and |l - m2| on the ball by that times the radius."""
    m1, m2 = mid
    e1, e2 = radius * math.sqrt(side.g11) / side.covol, radius * math.sqrt(side.g00) / side.covol
    k = np.arange(math.floor(m1 - e1) - 1, math.ceil(m1 + e1) + 2)
    l = np.arange(math.floor(m2 - e2) - 1, math.ceil(m2 + e2) + 2)
    a = (k - m1)[:, None]
    b = l - m2
    rho = (side.g00 * a + 2.0 * side.g01 * b) * a + side.g11 * (b * b)
    i, j = np.nonzero(rho <= radius * radius)
    return k[i], l[j], rho[i, j]


# cells of the largest index box or batch temporary, 16 MiB per float array: a
# ball that never meets its tolerance (the heat kernel at t = 1e300) stops there
_MAX_BOX_CELLS = 1 << 21


def _box_radius(side: _Side, pad: float) -> float:
    """The largest radius R whose ``_index_box``, widened by ``pad``, has at
    most ``_MAX_BOX_CELLS`` cells; a ValueError naming the lattice's shape
    where that R is below 1.  The box at radius R spans at most 2 e + 5
    indices per axis, e = R times a row length of inv(gen), so at most
    (2 a R + 5)(2 b R + 5) cells; R + pad is that quadratic's root at
    ``_MAX_BOX_CELLS``, in the form free of cancellation."""
    a, b = math.sqrt(side.g11) / side.covol, math.sqrt(side.g00) / side.covol
    lin, const = 10.0 * (a + b), _MAX_BOX_CELLS - 25.0
    root = 2.0 * const / (lin + math.sqrt(lin * lin + 16.0 * a * b * const))
    if not root - pad >= 1.0:
        raise ValueError(f"lattice shape {side.shape} is too elongated for any truncation ball")
    return root - pad


def _ball(side: _Side, mid, nodes, tol: float, cap: float = math.inf, pad: float = 0.0):
    """Truncate sum_j w_j sum exp(-pi alpha_j |gen ((k, l) - mid)|^2) to the ball,
    capped at ``_box_radius`` and at ``cap``, whose ``_gaussian_tail`` falls to
    tol.  Returns the ``_index_box`` of that ball widened by ``pad``, its radius
    (every discarded point lies beyond it), the tail and whether it meets tol."""
    r, tail, ok = _select_radius(nodes, side.covol, side.h, tol, min(cap, _box_radius(side, pad)))
    return (*_index_box(side, mid, r + pad), r, tail, ok)


def _nearest_sq(side: _Side, mid) -> float:
    """The squared distance from gen mid to the nearest point gen (k, l) if it
    is below 1, else 1: the index box of radius 1, which ``_box_radius`` checks
    against the cap, holds every point nearer than that."""
    _box_radius(side, 0.0)
    return float(_index_box(side, mid, 1.0)[2].min(initial=1.0))


def _power_tail(side: _Side, radius: float, s: float) -> float:
    """Upper bound on sum |gen @ (k, l) + center|^(-2s) over the points beyond
    ``radius``, any center, s > 1.

    With N(r) the number of points within r and h the cell half-diameter,
    |N(r) - pi r^2 / covol| <= pi (2 r h + h^2) / covol.  Summation by parts
    against f(r) = r^(-2s) puts the sum within
    pi/covol ((4 R h + 2 h^2) f(R) + 2 h R^(1-2s) / (2s - 1)) of the integral
    2 pi/covol R^(2-2s) / (2s - 2); the bound is their sum."""
    h = side.h
    r = radius
    f = r ** (-2.0 * s)
    spread = (4.0 * r * h + 2.0 * h * h) * f + 2.0 * h * r * f / (2.0 * s - 1.0)
    return math.pi / side.covol * (r * r * f / (s - 1.0) + spread)


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
    """E(z; alpha) = sum over the lattice of exp(-pi alpha |point + z|^2): the
    evaluator's node (alpha, 1) certified at z, over the lattice ball about z
    or through the functional equation over the dual cosine ball, as
    ``use_functional_equation`` forces; by default ``_dual_side`` picks the
    shorter series.  ``tail_bound`` carries the truncation tail and the rounding."""
    return _sum_at(lattice, z, ((alpha, 1.0),), pol, use_functional_equation)


def _sum_at(lattice: Lattice, z: PhasePoint, nodes, pol: TruncationPolicy, dual) -> CertifiedValue:
    """``ShiftedSumEvaluator.certified_at(z)``, its lattice ball centred on z."""
    ev = ShiftedSumEvaluator.__new__(ShiftedSumEvaluator)
    # certified_at canonicalizes z as here, so the ball is centred on its point
    ev._build(lattice, nodes, pol, z.canonical(), dual)
    return ev.certified_at(z)


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
    return lattice_gaussian_sum(tau, b, alpha, pol, use_functional_equation)


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
    computed so, as the node (1/alpha, 1/alpha) on ``lattice_from_tau(x, y)``.
    The charged series is that shifted sum's dual cosine series, so
    ``use_functional_equation`` maps to the other side: False sums the
    charged series, True the shifted one.
    """
    _check_alpha(alpha)
    fe = None if use_functional_equation is None else not use_functional_equation
    tau = lattice_from_tau(lattice.x, lattice.y)
    return _sum_at(tau, b, ((1.0 / alpha, 1.0 / alpha),), pol, fe)


def functional_equation_residual(lattice: Lattice, b: PhasePoint, alpha: float) -> float:
    """|shifted(b; alpha) - charged(b; 1/alpha)/alpha| with both sides direct,
    each to ``DEFAULT_POLICY``'s tolerance.

    The two series are summed without rerouting through the functional
    equation, so the residual genuinely tests the identity.
    """
    lhs = theta_shifted(lattice, b, alpha, use_functional_equation=False)
    rhs = theta_charged(lattice, b, 1.0 / alpha, use_functional_equation=False)
    return abs(lhs.value - rhs.value / alpha)


# ---------------------------------------------------------------------------
# The evaluator: every 2D Gaussian sum, at one point or over batches
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


def _rounding_bound(plan: _Plan, near, far) -> float:
    """A bound, uniform over the cell, on the rounding ``certified`` adds, bar
    clipping, from the (rates, weights) arrays of each side's nodes.  Each part
    is at most a mass sum_j w_j sum_p exp(-pi a_j |p + c|^2 / 2) over a side, any c,
    which ``_gaussian_tail``'s point count, summed by parts from r = 0, bounds by
    sum_j w_j pi/covol (h^2 + h sqrt(2 / a_j) + 2 / (pi a_j)): the sizes, the slopes
    by x e^-x <= (2/e) e^(-x/2), and the dual phases by |k1| + |k2| <= (|v1| + |v2|) |k|
    for gen's columns v and |k| e^(-pi a |k|^2) <= e^(-pi a |k|^2 / 2) / sqrt(pi e a)."""

    def half_mass(side, rates, weights):
        m1, mh, m0 = (weights @ np.power.outer(rates, (-1.0, -0.5, 0.0))).tolist()
        h = side.h
        return math.pi / side.covol * (h * h * m0 + math.sqrt(2.0) * h * mh + 2.0 / math.pi * m1)

    grow = 2.0 / math.e * plan.kappa
    count = 8.0 + (0 if near is None else len(near[0]))
    bound = 0.0
    if near is not None:
        bound += (count + grow) * half_mass(plan.near, *near)
    if far is not None:
        columns = math.sqrt(plan.near.g00) + math.sqrt(plan.near.g11)
        phase = 8.0 * math.pi * columns / math.sqrt(math.pi * math.e * float(far[0].min()))
        bound += (count + len(far[0]) + 6.0 + grow + phase) * half_mass(plan.far, *far)
    return _EPS * bound


def _in_row_blocks(batch):
    """An evaluator's ``batch`` method on an (n, 2) array of shifts, over row
    blocks of at most ``_rows`` shifts, with the arrays it returns joined."""

    @functools.wraps(batch)
    def in_blocks(self, zs):
        zs = np.atleast_2d(np.asarray(zs, dtype=float))
        if len(zs) <= self._rows:
            return batch(self, zs)
        parts = [batch(self, zs[i : i + self._rows]) for i in range(0, len(zs), self._rows)]
        if isinstance(parts[0], tuple):
            return tuple(map(np.concatenate, zip(*parts)))
        return np.concatenate(parts)

    return in_blocks


class ShiftedSumEvaluator:
    """A positive Gaussian mixture sum_j w_j E(z; alpha_j) = sum_p K(|p + z|^2),
    K(rho) = sum_j w_j exp(-pi alpha_j rho), over batches of lattice-coordinate
    shifts z, split at lam = 1/covol (Ewald) by ``_dual_side``.  ``nodes`` are
    the (alpha_j, w_j) pairs, alpha_j > 0 and w_j >= 0.  E(z; alpha) is the one
    node (alpha, 1); the charged sum theta_charged(b; n) = E(b; 1/n) / n on the
    tau lattice is the one node (1/n, 1/n); a completely monotone energy is the
    mixture of its Bernstein measure.

    Lattice side, alpha_j >= lam: K over one ball centred on the cell and
    widened by the cell half-diameter, which serves every z in [0, 1]^2.  Dual
    side, alpha_j < lam: by Poisson summation, sum_k g(k) cos(2 pi k.z) with
    g(k) = sum_j w_j exp(-pi |k|^2 / alpha_j) / (alpha_j covol), independent of z,
    over the ball of the dual nodes (1/alpha_j, w_j / (alpha_j covol)); g(0),
    where flat nodes land, is kept apart as ``value_offset`` so that the
    oscillating rest keeps full relative precision.

    Truncation gets what ``_rounding_bound`` leaves of the tolerance, at least
    an eighth of it, shared by the sides present; ``tail_bound`` sums the
    balls' ``_gaussian_tail``s, uniform over the cell, ``converged`` says each
    met its share, and ``certified`` adds the rounding.  ``terms`` counts both
    balls' terms, k = 0 included.  Exponents below ``_EXP_FLOOR`` are clipped;
    the term they overstate goes into the rounding.  Batches run in row blocks
    that keep every temporary within ``_MAX_BOX_CELLS`` cells.
    """

    def __init__(
        self,
        lattice: Lattice,
        nodes: tuple[tuple[float, float], ...],
        pol: TruncationPolicy = DEFAULT_POLICY,
    ) -> None:
        self._build(lattice, nodes, pol)

    def _build(self, lattice, nodes, pol, point=None, dual=None) -> None:
        """A canonical ``point`` centres the lattice ball on it; ``dual`` forces the side."""
        if not nodes:
            raise EmptyQuadrature("no quadrature nodes")
        for alpha, _ in nodes:
            _check_alpha(alpha)
        self.tol = pol.target_tol
        self._plan = plan = _plan(lattice)
        covol = plan.near.covol
        on_far = [_dual_side(alpha, covol) if dual is None else dual for alpha, _ in nodes]
        self._far = [node for node, f in zip(nodes, on_far) if f]
        self._near = [node for node, f in zip(nodes, on_far) if not f]
        near = far = None
        if self._near:
            alphas, self._weights = near = np.array(self._near).T
            self._rates = math.pi * alphas
        if self._far:
            alphas, weights = np.array(self._far).T
            self._scales = weights / (alphas * covol)
            far = (1.0 / alphas, self._scales)
        budget = max(self.tol - _rounding_bound(plan, near, far), self.tol / 8.0)
        budget /= (near is not None) + (far is not None)
        self.tail_bound = self.value_offset = 0.0
        self.converged, self.terms = True, 0
        # certified's rounding and sum |term| parts that do not depend on z
        self._fixed = self._size = 0.0

        if near is not None:
            mid, pad = ((-0.5, -0.5), plan.near.h) if point is None else ((-point.u, -point.v), 0.0)
            k, l, rho, _, tail, ok = _ball(plan.near, mid, self._near, budget, pad=pad)
            self._i1, self._i2 = k.astype(float), l.astype(float)
            self.tail_bound += tail
            self.converged &= ok
            self.terms += len(rho)
            self._g00, self._g01, self._g11 = plan.near[:3]
            # a clipped exponent overstates its term by less than w_j e^_EXP_FLOOR
            self._fixed += len(rho) * math.fsum(w for _, w in self._near) * math.exp(_EXP_FLOOR)

        if far is not None:
            dual_nodes = list(zip(far[0].tolist(), far[1].tolist()))
            k, l, kq, _, tail, ok = _ball(plan.far, (0.0, 0.0), dual_nodes, budget)
            self.tail_bound += tail
            self.converged &= ok
            self.terms += len(kq)
            nonzero = kq > 0.0
            self._kidx = np.array([k[nonzero], l[nonzero]], dtype=float).T
            # (nodes x nonzero dual terms) exponents, independent of z
            self._x = np.multiply.outer(math.pi * far[0], kq[nonzero])
            ex = _clipped_exp(self._x)
            self._ghat = self._scales @ ex
            self.value_offset = s_sum = float(self._scales.sum())
            self._size = s_sum + float(self._ghat.sum())
            # a term g(k) cos(2 pi k.z) is off by (nodes + 6) eps g(k) plus kappa eps
            # X e^-X for its exponents and 8 pi (|k1| + |k2|) eps g(k) for its phase,
            # z in [0, 1)^2, g(0) by (nodes + 5) eps; clipping adds s_sum e^_EXP_FLOOR
            n_far = len(self._far)
            phase = 8.0 * math.pi * np.abs(self._kidx).sum(axis=1)
            per_term = float((n_far + 6.0 + phase) @ self._ghat)
            x_err = plan.kappa * float(np.einsum("j,jk,jk->", self._scales, self._x, ex))
            self._fixed += _EPS * ((n_far + 5.0) * s_sum + per_term + x_err)
            self._fixed += len(self._kidx) * s_sum * math.exp(_EXP_FLOOR)

        # no batch temporary holds more than max(nodes, 6) x terms cells per point
        self._rows = max(1, _MAX_BOX_CELLS // (max(len(self._near), 6) * max(self.terms, 1)))

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

    @_in_row_blocks
    def values_centered(self, zs: np.ndarray) -> np.ndarray:
        """Values minus ``value_offset`` at an (n, 2) batch of lattice-coordinate shifts."""
        out = np.cos(TWO_PI * (zs @ self._kidx.T)) @ self._ghat if self._far else np.zeros(len(zs))
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
        wr = self._weights * self._rates
        moments = np.array([self._weights, wr, wr * self._rates])
        k = moments @ np.matmul(e.transpose(1, 0, 2), mono)  # (n, m, monomial)
        values = k[:, 0, 0]
        grad = -2.0 * k[:, 1, 1:3]
        h = 4.0 * k[:, 2, 3:] - 2.0 * k[:, 1, :1] * np.array([self._g00, self._g01, self._g11])
        return values, grad, h[:, [0, 1, 1, 2]].reshape(-1, 2, 2)

    @_in_row_blocks
    def derivatives_centered(self, zs: np.ndarray) -> tuple[np.ndarray, ...]:
        """Centered values (n,), gradients (n, 2) and Hessians (n, 2, 2) in
        lattice coordinates, each side differentiated term by term."""
        sides = []
        if self._near:
            sides.append(self._lattice_derivatives(zs))
        if self._far:
            sides.append(_cosine_derivatives(zs, self._kidx, self._ghat))
        if len(sides) == 1:
            return sides[0]
        return tuple(x + y for x, y in zip(*sides))

    @_in_row_blocks
    def certified(self, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values at an (n, 2) batch of shifts, each the ``math.fsum`` of its
        terms plus ``value_offset``, and a bound on each one's error: the tails
        plus the rounding.  The shifts are reduced mod 1 into [0, 1]^2, the cell
        whose every point the balls and the phase rounding serve.  A
        lattice-side term sum_j w_j e^(-X_j) is off by at most (nodes + 2) eps
        times itself plus kappa eps sum_j w_j X_j e^(-X_j); (nodes + 8) eps of
        the sum of |term| covers that and the two roundings of the sum."""
        zs = np.mod(zs, 1.0)
        per_size = _EPS * (len(self._near) + 8.0)
        bound = np.full(len(zs), self.tail_bound + self._fixed + per_size * self._size)
        blocks = [np.cos(TWO_PI * (zs @ self._kidx.T)) * self._ghat] if self._far else []
        if self._near:
            x = np.multiply.outer(self._rates, self._rho(zs))  # (nodes, n, terms)
            we = self._weights[:, None, None] * _clipped_exp(x)
            blocks.append(we.sum(axis=0))
            # each term's rounding, w_j e^(-X_j) ((nodes + 8) eps + kappa eps X_j)
            bound += ((per_size + _EPS * self._plan.kappa * x) * we).sum(axis=(0, 2))
        rows = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)
        return np.array([math.fsum(row) + self.value_offset for row in rows.tolist()]), bound

    def certified_at(self, z: PhasePoint) -> CertifiedValue:
        """``certified`` at one shift; ``converged`` needs every ball and the
        whole bound to meet the tolerance."""
        zl = z.canonical()
        values, bounds = self.certified(np.array([[zl.u, zl.v]]))
        tail = float(bounds[0])
        return CertifiedValue(
            float(values[0]), tail, self.terms, self.converged and tail <= self.tol
        )
