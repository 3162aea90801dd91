"""One- and two-dimensional Gaussian lattice sums with certified tails.

All series are truncated inside Euclidean balls; the discarded tail is
bounded rigorously, in 2D by one closed form from the lattice-point count
(``_gaussian_tail``), in 1D by geometric majorants, and every certified
result carries that bound with the rounding.  2D sums are accumulated
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
from .lattice import Lattice, PhasePoint, _tau_rows, _wrap_unit

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
    truncation tail plus the float rounding of the terms and their sum, and
    on the direct zeta route also the incomplete gamma's error."""

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

# float64 items per array a 1D batch builds: at 8 bytes an item, below glibc's
# default 128 KiB mmap and trim thresholds, so repeated calls reuse heap pages
_BLOCK_ITEMS = 12 * 1024
_ROWS_1D = _BLOCK_ITEMS // 10  # kernel elements per row block of 10 columns
_MIN_T_1D = 1e-200  # t^(-3/2) stays finite
_JACOBI_N = np.arange(-4.0, 5.0)
_COSINE_K = np.arange(6.0)
# by order: the cosine side's c_k and the bound |c_6| max |T_6|
_COSINE_C = {
    0: (np.array([1.0, 2, 2, 2, 2, 2]), 2.0),
    1: (4 * math.pi * _COSINE_K, 144 * math.pi),
    2: (8 * math.pi**2 * _COSINE_K**2, 288 * math.pi**2),
}


def _theta1d(beta, t, order: int = 0, bound: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """theta_hat(beta; t) (order 0), Q = -theta_hat'(beta; t) / sin(2 pi beta)
    (order 1) or theta_hat'' (order 2) at arrays of finite beta and finite
    t >= ``_MIN_T_1D`` broadcast together, and a bound on each one's error.
    With b = beta - round(beta) (exact), an element takes the shorter side of
    the Jacobi identity, switching at t = 1 as ``heat_route`` does: for t < 1
    the Jacobi side, whose terms do not cancel (order 1: ``_jacobi_ratio``),

        t^(-1/2) sum_n e^(-x_n), t^(-1/2) (2 pi/t) sum_n (2 x_n - 1) e^(-x_n),

    x_n = pi (n + b)^2 / t, n in [-4, 4]; for t >= 1 the cosine side
    sum_k c_k e^(-x_k) T_k, x_k = pi t k^2, k in [0, 5], T_k = cos(2 pi k b),
    c_k = 1, 2, 2, ... resp. -8 pi^2 k^2, or T_k = U_(k-1)(cos 2 pi b), c_k =
    4 pi k for order 1, U the Chebyshev polynomials of the second kind by
    their recurrence.  Fixed ranges and rows summed one by one, in row blocks
    of ``_ROWS_1D``, make a scalar call its batch element bit for bit.
    ``bound=False`` skips the bounds and returns None for them.

    Truncation: with u = |n + b| resp. k and a = pi/t resp. pi t >= pi, a
    term's size is p e^(-a u^2), p = 1 or 2 x + 1 resp. |c_k| max |T_k|, and
    the first u left out is at least r = 4.5 resp. 6.  Past r successive sizes
    fall by q <= ((r + 1)/r)^2 e^(-a (2 r + 1)) < 4e-14, as (2 a (u + 1)^2 +
    1) / (2 a u^2 + 1) <= ((u + 1)/u)^2: those left out sum to (1 + 1e-13)
    p(r) e^(-a r^2) at most, on each side of -b (c_k counts both), times the
    prefactor.  p e^(-x) falls past x = 1/2, so x clipped at 700 bounds it too.

    Rounding: x is within 3 eps x, so e^(-x) within eps (3 x + 1); 2 x - 1
    within 3.5 eps p; the phase 2 pi b k within 4.8 k eps; cos(2 pi b) within
    3 eps, so U_(k-1), by |U'_(k-1)| <= k (k^2 - 1) / 3 and the recurrence's
    steps, within (k^3 + k^2) eps.  A term is within eps p e^(-x) (3 x + 6 k +
    5), and the sum and the prefactor add 11 eps of the sizes: the bound eps
    pref sum p e^(-x) (4 x + 6 k + 24), k = 0 on the Jacobi side, leaves slack
    for second-order terms and for taking the computed x and e.  An exponent
    clipped at ``_EXP_FLOOR`` moves its term by below max(p(700), 200 pi^2)
    e^-700 < 2e3 e^-700.  A t above 1e300 is summed at 1e300, where each term
    but k = 0 is clipped either way.
    """
    beta, t = np.asarray(beta, dtype=float), np.asarray(t, dtype=float)
    if beta.shape != t.shape:
        beta, t = np.broadcast_arrays(beta, t)
    shape, t, b = t.shape, t.reshape(-1), beta.reshape(-1)
    lo, hi = np.minimum.reduce(t, initial=math.inf), np.maximum.reduce(t, initial=1.0)
    if not (lo >= _MIN_T_1D and hi < math.inf):
        raise ValueError(f"the 1D kernel takes finite t >= {_MIN_T_1D}, got {lo} to {hi}")
    if not np.isfinite(b).all():
        raise ValueError(f"the 1D kernel takes finite beta, got {b[~np.isfinite(b)][0]}")
    b = b - np.rint(b)
    near = t < 1.0
    values, tails = np.empty(b.size), np.empty(b.size) if bound else None
    for side, sel in ((_jacobi_side, near), (_cosine_side, ~near)):
        idx = np.flatnonzero(sel)
        for i in range(0, len(idx), _ROWS_1D):
            j = idx[i : i + _ROWS_1D]
            values[j], tail = side(b[j], t[j], order, bound)
            if bound:
                tails[j] = tail
    return values.reshape(shape), None if tails is None else tails.reshape(shape)


def _jacobi_side(b: np.ndarray, t: np.ndarray, order: int, bound: bool):
    if order == 1:
        return _jacobi_ratio(b, t, bound)
    neg_a = -math.pi / t
    nx = np.add.outer(b, _JACOBI_N)
    nx *= nx
    nx *= neg_a[:, None]
    np.maximum(nx, _EXP_FLOOR, out=nx)  # -x, clipped
    size = np.exp(nx)
    pref = 1.0 / np.sqrt(t)
    if order:
        pref *= TWO_PI / t
        weight = nx * -2.0
        terms = weight - 1.0
        terms *= size
    else:
        terms = size
    values = np.add.reduce(terms, axis=1) * pref
    if not bound:
        return values, None
    reach = np.maximum(20.25 * neg_a, _EXP_FLOOR)  # -x at r
    cut = np.exp(reach)
    if order:
        weight += 1.0
        size *= weight
        cut *= 1.0 - 2.0 * reach
    return values, _bound_1d(nx, size, 24.0, cut * 2.0) * pref


def _jacobi_ratio(b: np.ndarray, t: np.ndarray, bound: bool):
    """Q = 2 pi t^(-3/2) sum_n g(n + b) / sin(2 pi b), g(u) = u e^(-pi u^2 / t),
    in 5 pairs about centres c that share the sine: c = 0, ..., 4 (c = 0 once)
    if d = |b| <= 1/4, else c = 1/2, ..., 9/2, sign -1, d = 1/2 - |b| (exact).
    With E+- = e^(-pi (c +- d)^2 / t), x = 4 pi c d / t, phi(x) = -expm1(-x)/x,
    a pair (g(c + d) - g(c - d)) / sin(2 pi d) is ((E+ + E-) / (2 pi) -
    (2 c^2 / t) E- phi(x)) / sinc(2 d), sinc(2 d) = sin(2 pi d) / (2 pi d) >=
    2/pi: nothing divides by 0.  A pair left out has c - d >= r = 4.75 and, as
    sin(2 pi d) >= 4 d, is at most max |g'| / 2 on [c - d, c + d], |g'| = |1 -
    2 x| e^(-x) at x = pi u^2 / t, falling past x = 3/2: those left out sum to
    (1 + 1e-13) (2 x_r + 1) e^(-x_r) / 2 at most.  E+- / (2 pi) is within eps
    (3 x + 2.5), and the phi piece within eps (3 x + 7), as phi(x) is within
    3.5 eps (|x phi'| <= phi); the pair, the sum, sinc and the prefactor add 9
    eps of the sizes.  Exponents past -700 are flushed to 0: a piece dropped is
    below (8/pi) x e^-x <= 1800 e^-700 (2 c^2 / t <= 8 x / pi for c >= 1/2),
    and all of them and the subnormal steps below 1e4 e^-700."""
    half = np.abs(b) > 0.25
    d = np.abs(0.5 * half - np.abs(b))  # exact
    c = np.add.outer(0.5 * half, _JACOBI_N[4:])
    a = math.pi / t
    u = np.concatenate((c + d[:, None], c - d[:, None]), axis=1)
    nx = u * u * -a[:, None]  # -x of c + d and c - d
    e = _flushed_exp(nx.copy(), _EXP_FLOOR)
    x = np.maximum(c * (4.0 * a * d)[:, None], 1e-300)  # phi(0) = 1
    pull = np.expm1(-x) / x * (c * c) * (-2.0 / t)[:, None] * e[:, 5:]
    e *= 1.0 / TWO_PI
    e[:, ::5] *= (0.5 + 0.5 * half)[:, None]  # c = 0 counts once
    y = TWO_PI * np.maximum(d, 1e-300)  # y / sin(y) = 1 / sinc(2 d)
    scale = np.where(half, -TWO_PI, TWO_PI) / (t * np.sqrt(t)) * (y / np.sin(y))
    values = np.add.reduce(e[:, :5] + e[:, 5:] - pull, axis=1) * scale
    if not bound:
        return values, None
    e[:, 5:] += pull
    reach = np.maximum(-22.5625 * a, _EXP_FLOOR)  # -x at r
    return values, _bound_1d(nx, e, 24.0, np.exp(reach) * (0.5 - reach)) * np.abs(scale)


def _cosine_side(b: np.ndarray, t: np.ndarray, order: int, bound: bool):
    neg_a = -math.pi * np.minimum(t, 1e300)
    nx = np.multiply.outer(neg_a, _COSINE_K**2)
    np.maximum(nx, _EXP_FLOOR, out=nx)  # -x, clipped
    c, c6 = _COSINE_C[order]
    size = np.exp(nx)
    size *= c
    if order == 1:
        terms = np.zeros_like(size)  # U_(k-1)(cos 2 pi b), U_(-1) = 0
        terms[:, 1] = 1.0
        two_cos = 2.0 * np.cos(TWO_PI * b)
        for k in range(2, 6):
            terms[:, k] = two_cos * terms[:, k - 1] - terms[:, k - 2]
        terms *= size
        size *= _COSINE_K
    else:
        terms = np.cos(np.multiply.outer(TWO_PI * b, _COSINE_K))
        terms *= -size if order else size
    values = np.add.reduce(terms, axis=1)
    if not bound:
        return values, None
    cut = c6 * np.exp(np.maximum(36.0 * neg_a, _EXP_FLOOR))
    return values, _bound_1d(nx, size, 6.0 * _COSINE_K + 24.0, cut)


def _bound_1d(nx, size, spread, cut):
    """eps sum p e^(-x) (4 x + spread) over a row, from -x and the sizes, plus
    the truncation, its q, and the clipped or flushed terms."""
    rounding = np.add.reduce(size * (spread - 4.0 * nx), axis=1)
    rounding *= _EPS
    rounding += cut * (1.0 + 1e-13)
    return rounding + 2e4 * math.exp(_EXP_FLOOR)


def theta1d_hat(beta: float, t: float) -> CertifiedValue:
    """theta_hat(beta; t) = sum_k exp(-pi t k^2) exp(2 pi i k beta), real form:
    ``_theta1d`` at one point, 9 terms for t < 1 and 6 past it.  The tail
    carries truncation and rounding; converged means DEFAULT_POLICY's tol."""
    _check_t(t)
    value, tail = (float(v) for v in _theta1d(beta, t))
    return CertifiedValue(value, tail, 9 if t < 1.0 else 6, tail <= DEFAULT_POLICY.target_tol)


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
    """The ratio -theta_hat'(beta; t) / sin(2 pi beta), extended to all beta:
    ``_theta1d``'s order 1 at one point, 10 terms in pairs sharing the sine
    for t < 1 and 5 past it.  Q is positive, even, 1-periodic, decreasing on
    (0, 1/2) and between montgomery_A(t) and montgomery_B(t); theta(beta; s)
    = sum_k exp(-pi s (k + beta)^2) has -theta'(beta; s) = sin(2 pi beta)
    s^(-1/2) Q(beta; 1/s).  The tail carries truncation and rounding;
    converged means DEFAULT_POLICY's tol."""
    _check_t(t)
    value, tail = (float(v) for v in _theta1d(beta, t, 1))
    return CertifiedValue(value, tail, 10 if t < 1.0 else 5, tail <= DEFAULT_POLICY.target_tol)


# ---------------------------------------------------------------------------
# Two-dimensional machinery
# ---------------------------------------------------------------------------

class _Side(NamedTuple):
    """A lattice gen Z^2 as floats: Gram form, covolume, cell half-diameter, the plan's (x, y)."""

    g00: float
    g01: float
    g11: float
    covol: float
    h: float
    shape: tuple[float, float]


def _side(a: float, b: float, c: float, d: float, shape: tuple[float, float]) -> _Side:
    h = 0.5 * max(math.hypot(a + b, c + d), math.hypot(a - b, c - d))
    return _new(_Side, (a * a + c * c, a * b + c * d, b * b + d * d, a * d - b * c, h, shape))


# NamedTuple.__new__ without the Python call the named form makes
_new = tuple.__new__


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
    return _plan_of(lattice.gen.tolist(), (lattice.x, lattice.y))


def _plan_of(rows, shape: tuple[float, float]) -> _Plan:
    """The plan of the lattice whose generator has the float ``rows`` and
    whose shape is (x, y)."""
    (a, b), (c, d) = rows
    det = a * d - b * c
    near = _side(a, b, c, d, shape)
    mu = ((math.sqrt(near.g00 * near.g11) + abs(near.g01)) / det) ** 2
    return _new(_Plan, (near, _side(d / det, -c / det, -b / det, a / det, shape), 6.0 * mu + 8.0))


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


def _box(side: _Side, mid, radius: float):
    """The index box about mid of the ball of ``radius`` R: its axes k and l, the
    mask of the cells in the ball and their |gen ((k, l) - mid)|^2, in the
    operation order of ``ShiftedSumEvaluator._rho`` (at mid = -z they are its
    values).  Row k's least squared length is ((k - m1) R / e1)^2, e1 =
    R sqrt(g11) / covol, so k runs from floor(m1 - e1) to ceil(m1 + e1), and l
    likewise: a row further out exceeds R^2 by over 2 R^2 / e1, more than its
    rounding while 3 mu eps e1 < 1 (``_Plan``), and in any case lies beyond R."""
    m1, m2 = mid
    e1, e2 = radius * math.sqrt(side.g11) / side.covol, radius * math.sqrt(side.g00) / side.covol
    k = np.arange(math.floor(m1 - e1), math.ceil(m1 + e1) + 1, dtype=float)
    l = np.arange(math.floor(m2 - e2), math.ceil(m2 + e2) + 1, dtype=float)
    # k - 0 is k: the dual balls are centred at the origin
    a = k - m1 if m1 else k
    b = l - m2 if m2 else l
    rho = a[:, None] * b
    rho *= 2.0 * side.g01
    rho += (a * a * side.g00)[:, None]
    rho += b * b * side.g11
    inside = rho <= radius * radius
    return k, l, inside, rho[inside]


# cells of the largest index box or batch temporary, 16 MiB per float array: a
# ball that never meets its tolerance (the heat kernel at t = 1e300) stops there
_MAX_BOX_CELLS = 1 << 21


def _box_radius(side: _Side, pad: float) -> float:
    """The largest radius R whose ``_box``, widened by ``pad``, has at
    most ``_MAX_BOX_CELLS`` cells; a ValueError naming the lattice's shape
    where that R is below 1.  The box at radius R spans at most 2 e + 3
    indices per axis, e = R times a row length of inv(gen), so fewer than
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
    tol.  Returns the ``_box`` of that ball widened by ``pad``, its radius
    (every discarded point lies beyond it), the tail and whether it meets tol."""
    r, tail, ok = _select_radius(nodes, side.covol, side.h, tol, min(cap, _box_radius(side, pad)))
    return (*_box(side, mid, r + pad), r, tail, ok)


def _nearest_sq(side: _Side, mid) -> float:
    """The squared distance from gen mid to the nearest point gen (k, l) if it
    is below 1, else 1: the index box of radius 1, which ``_box_radius`` checks
    against the cap, holds every point nearer than that."""
    _box_radius(side, 0.0)
    return float(_box(side, mid, 1.0)[3].min(initial=1.0))


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
    (covolume 1/covol) decays faster there, so it is the shorter series.  A
    tie within the rounding of covol, as a unit cell's 1 - eps, goes to the
    lattice side, whose positive terms keep their relative precision where
    the cosine series cancels."""
    return alpha * covol < 1.0 - 4.0 * _EPS


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
    return _sum_at(_plan(lattice), z, ((alpha, 1.0),), pol, use_functional_equation)


def _check_shift(z: PhasePoint) -> None:
    if not (math.isfinite(z.u) and math.isfinite(z.v)):
        raise ValueError(f"the shift must be finite, got {z}")


def _sum_at(plan: _Plan, z: PhasePoint, nodes, pol: TruncationPolicy, dual) -> CertifiedValue:
    """``ShiftedSumEvaluator.certified_at(z)`` on ``plan``'s lattice, its lattice
    ball centred on z, without ``_for_batches``'s state."""
    _check_shift(z)
    ev = ShiftedSumEvaluator.__new__(ShiftedSumEvaluator)
    point = (_wrap_unit(z.u), _wrap_unit(z.v))
    box = ev._build(plan, nodes, pol, point, dual)
    return ev._result(*ev._certify(point, None if box is None else box[3]))


def theta_shifted(
    lattice: Lattice,
    b: PhasePoint,
    alpha: float,
    pol: TruncationPolicy = DEFAULT_POLICY,
) -> CertifiedValue:
    """Shifted family: sum over (k, l) of exp(-pi alpha Q(k + b1, l + b2)), with
    Q(u, v) = (u^2 + 2 x u v + (x^2 + y^2) v^2) / y for the shape (x, y) of
    ``lattice`` and (b1, b2) the lattice coordinates of b.  That is
    ``lattice_gaussian_sum`` at (b1, b2) on ``lattice_from_tau(x, y)``.
    """
    return _sum_at(_tau_plan(lattice), b, ((alpha, 1.0),), pol, None)


def theta_charged(
    lattice: Lattice,
    b: PhasePoint,
    alpha: float,
    pol: TruncationPolicy = DEFAULT_POLICY,
) -> CertifiedValue:
    """Charged family: sum over (k, l) of exp(-pi alpha Q(k, l))
    cos(2 pi (k b2 - l b1)), with Q and (b1, b2) as in ``theta_shifted``.

    By the functional equation it is theta_shifted(b; 1/alpha) / alpha, and is
    computed so, as the node (1/alpha, 1/alpha) on ``lattice_from_tau(x, y)``,
    whose dual cosine series is the charged series.
    """
    _check_alpha(alpha)
    return _sum_at(_tau_plan(lattice), b, ((1.0 / alpha, 1.0 / alpha),), pol, None)


def _tau_plan(lattice: Lattice) -> _Plan:
    """The plan of ``lattice_from_tau`` of the lattice's shape, where both
    families are summed."""
    shape = (lattice.x, lattice.y)
    return _plan_of(_tau_rows(*shape), shape)


def functional_equation_residual(lattice: Lattice, b: PhasePoint, alpha: float) -> float:
    """|shifted(b; alpha) - charged(b; 1/alpha)/alpha| with both series summed
    as they are written, each to ``DEFAULT_POLICY``'s tolerance: the lattice
    side of the node (alpha, 1) and the dual side of ``theta_charged``'s node
    (a, a), a = 1/(1/alpha), on ``lattice_from_tau(x, y)``.  Neither is
    rerouted through the functional equation, so the residual genuinely tests
    the identity.
    """
    plan = _tau_plan(lattice)
    a = 1.0 / (1.0 / alpha)
    lhs = _sum_at(plan, b, ((alpha, 1.0),), DEFAULT_POLICY, False)
    rhs = _sum_at(plan, b, ((a, a),), DEFAULT_POLICY, True)
    return abs(lhs.value - rhs.value / alpha)


# ---------------------------------------------------------------------------
# The evaluator: every 2D Gaussian sum, at one point or over batches
# ---------------------------------------------------------------------------

_EPS = float(np.finfo(float).eps)
# the largest dual rate 1/alpha summed: pi times it is finite, and past it
# every nonzero dual term exp(-pi |k|^2 / alpha) is below the clipping floor
_MAX_DUAL_RATE = 1e300
# exponents below this are clipped: exp is ~16 times slower where it underflows
_EXP_FLOOR = -700.0
# the largest L = 2 r_max |g01| w1 w2 of a tile of ``_grid_centered``
_TILE_CROSS = 128.0
_LOG_TINY = math.log(float(np.finfo(float).tiny))  # -708.4, the smallest normal's


def _clipped_exp(x: np.ndarray) -> np.ndarray:
    """exp(-x), with -x clipped at ``_EXP_FLOOR``."""
    return np.exp(np.maximum(-x, _EXP_FLOOR))


def _flushed_exp(x: np.ndarray, floor: float) -> np.ndarray:
    """exp(x) in place, flushed to 0 where x < floor, with no exp that underflows."""
    keep = x >= floor
    np.maximum(x, floor, out=x)
    np.exp(x, out=x)
    x *= keep
    return x


def _node_arrays(nodes, cap: float = math.inf):
    """Rates a_j cut to ``cap``, weights w_j and sum_j w_j of nodes (a_j, w_j), or
    None: floats for one node, whose terms have no node axis, else arrays."""
    if len(nodes) == 1:
        (a, w), = nodes
        return min(a, cap), w, w
    if not nodes:
        return None
    a, w = np.array(nodes, dtype=float).T
    np.minimum(a, cap, out=a)
    return a, w, float(np.add.reduce(w))


def _rounding_bound(plan: _Plan, near, far) -> float:
    """A bound, uniform over the cell, on the rounding ``certified`` adds, bar
    clipping, from each side's ``_node_arrays``, the far side's dual nodes.  Each
    part is at most a mass sum_j w_j sum_p exp(-pi a_j |p + c|^2 / 2) over a side,
    any c, which ``_gaussian_tail``'s point count, summed by parts from r = 0, bounds by
    sum_j w_j pi/covol (h^2 + h sqrt(2 / a_j) + 2 / (pi a_j)): the sizes, the slopes
    by x e^-x <= (2/e) e^(-x/2), and the dual phases by |k1| + |k2| <= (|v1| + |v2|) |k|
    for gen's columns v and |k| e^(-pi a |k|^2) <= e^(-pi a |k|^2 / 2) / sqrt(pi e a)."""

    def half_mass(side, rates, weights, m0):
        inv = 1.0 / rates
        if isinstance(inv, np.ndarray):
            m1, mh = float(weights @ inv), float(weights @ np.sqrt(inv))
        else:
            m1, mh = weights * inv, weights * math.sqrt(inv)
        h = side.h
        return math.pi / side.covol * (h * h * m0 + math.sqrt(2.0) * h * mh + 2.0 / math.pi * m1)

    grow = 2.0 / math.e * plan.kappa
    count = 8.0 + (0 if near is None else getattr(near[0], "size", 1))
    bound = 0.0
    if near is not None:
        bound += (count + grow) * half_mass(plan.near, *near)
    if far is not None:
        columns = math.sqrt(plan.near.g00) + math.sqrt(plan.near.g11)
        rates = far[0]
        least = float(np.minimum.reduce(rates)) if isinstance(rates, np.ndarray) else rates
        phase = 8.0 * math.pi * columns / math.sqrt(math.pi * math.e * least)
        count += getattr(rates, "size", 1) + 6.0
        bound += (count + grow + phase) * half_mass(plan.far, *far)
    return _EPS * bound


def _in_row_blocks(batch):
    """An evaluator's ``batch`` method on an (n, 2) array of finite shifts, over
    row blocks of at most ``_rows`` shifts, with the arrays it returns joined."""

    @functools.wraps(batch)
    def in_blocks(self, zs):
        zs = np.atleast_2d(np.asarray(zs, dtype=float))
        if not np.isfinite(zs).all():
            raise ValueError(f"the shift must be finite, got {zs[~np.isfinite(zs).all(1)][0]}")
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
    that keep every temporary within ``_MAX_BOX_CELLS`` cells: matrix
    products over tables ``_for_batches`` builds once, or for a product
    grid over ``_grid_centered``'s per-axis factors.
    """

    def __init__(
        self,
        lattice: Lattice,
        nodes: tuple[tuple[float, float], ...],
        pol: TruncationPolicy = DEFAULT_POLICY,
    ) -> None:
        self._for_batches(self._build(_plan(lattice), nodes, pol))

    def _build(self, plan, nodes, pol, point=None, dual=None):
        """The balls and z-independent sums certifying needs: a ``point`` (u, v)
        in [0, 1)^2 centres the lattice ball, else it serves the cell.  Returns
        its ``_box``, None without lattice-side nodes; ``dual`` forces the side."""
        if not nodes:
            raise EmptyQuadrature("no quadrature nodes")
        self.tol = tol = pol.target_tol
        self._plan = plan
        covol = plan.near.covol
        # each node on its side, the far ones also as dual nodes (1/alpha_j, w_j / (alpha_j covol))
        self._near, self._far = near, far = [], []
        dual_nodes = []
        for node in nodes:
            alpha, w = node
            _check_alpha(alpha)
            if _dual_side(alpha, covol) if dual is None else dual:
                far.append(node)
                dual_nodes.append((1.0 / alpha, w / (alpha * covol)))
            else:
                near.append(node)
        near_nodes = _node_arrays(near)
        # a dual rate past _MAX_DUAL_RATE (alpha_j near the smallest normal float)
        # is summed at it: its terms stay clipped and its bounds only grow
        far_nodes = _node_arrays(dual_nodes, _MAX_DUAL_RATE)
        budget = max(tol - _rounding_bound(plan, near_nodes, far_nodes), tol / 8.0)
        if near and far:
            budget /= 2.0
        # the tails, and certified's rounding and sum |term| parts independent of z
        tail_bound = fixed = 0.0
        converged, terms, box = True, 0, None

        if near:
            alphas, self._weights, w_sum = near_nodes
            self._neg_rates = -math.pi * alphas
            u, v = (0.5, 0.5) if point is None else point
            pad = plan.near.h if point is None else 0.0
            *box, _, tail_bound, converged = _ball(plan.near, (-u, -v), near, budget, pad=pad)
            terms = len(box[3])
            # a clipped exponent overstates its term by less than w_j e^_EXP_FLOOR
            fixed = terms * w_sum * math.exp(_EXP_FLOOR)

        self.value_offset = self._size = 0.0
        if far:
            k, l, inside, kq, _, tail, ok = _ball(plan.far, (0.0, 0.0), dual_nodes, budget)
            tail_bound += tail
            converged &= ok
            terms += len(kq)
            nonzero = kq > 0.0
            i, j = inside.nonzero()
            self._kl = kl = np.array((k[i[nonzero]], l[j[nonzero]]))
            rates, scales, s_sum = far_nodes
            # -X_j(k), clipped; a mixture's in a row per node, summed by matrix products
            mixture = isinstance(rates, np.ndarray)
            kq = kq[nonzero]
            neg_x = np.multiply.outer(-math.pi * rates, kq) if mixture else (-math.pi * rates) * kq
            np.maximum(neg_x, _EXP_FLOOR, out=neg_x)
            ex = np.exp(neg_x)
            self._ghat = scales @ ex if mixture else scales * ex
            self.value_offset = s_sum
            ghat_sum = float(np.add.reduce(self._ghat))
            self._size = s_sum + ghat_sum
            # a term g(k) cos(2 pi k.z) is off by (nodes + 6) eps g(k) plus kappa
            # eps X e^-X for its exponents and 8 pi (|k1| + |k2|) eps g(k) for its
            # phase, z in [0, 1)^2, g(0) by (nodes + 5) eps; clipping adds
            # s_sum e^_EXP_FLOOR.  X e^-X falls past X = 1, so the clipped X bounds
            # it too; eps and the floor scale first, so that no weight overflows
            k1, k2 = np.dot(np.abs(kl), self._ghat).tolist()
            neg_x *= ex
            x_sum = np.add.reduce(neg_x, axis=-1)
            x_err = -plan.kappa * float(scales @ x_sum if mixture else scales * x_sum)
            phase = 8.0 * math.pi * (k1 + k2)
            n_far = len(far)
            fixed += _EPS * (n_far + 5.0) * s_sum
            fixed += _EPS * ((n_far + 6.0) * ghat_sum + phase + x_err)
            fixed += kl.shape[1] * (s_sum * math.exp(_EXP_FLOOR))
        self.tail_bound, self._fixed = tail_bound, fixed
        self.converged, self.terms = converged, terms
        return box

    def _for_batches(self, box) -> None:
        """Batch state: ``box``'s (2, T) index pairs, the Gram matrix, rates r_j =
        pi alpha_j, moments w_j (-2 r_j)^m, m < 3; dual phases 2 pi k, tables
        [g, -4 pi^2 g (k1^2, k1 k2, k2^2)] and -2 pi g k; ``_rows``."""
        if box is not None:
            k, l, inside = box[:3]
            i, j = inside.nonzero()
            self._idx = np.array((k[i], l[j]))
            self._rates = rates = -np.reshape(self._neg_rates, -1)
            self._weights = w = np.reshape(self._weights, -1)
            g00, g01, g11 = self._plan.near[:3]
            self._gram = np.array(((g00, g01), (g01, g11)))
            self._moments = w * (-2.0 * rates) ** np.arange(3.0)[:, None]
        if self._far:
            kl, g = self._kl, self._ghat
            self._phase = TWO_PI * kl
            t = np.empty((6, len(g)))
            t[0] = g
            np.multiply(kl[0], kl, out=t[1:3])
            np.multiply(kl[1], kl[1], out=t[3])
            t[1:4] *= -TWO_PI**2 * g
            np.multiply(kl, -TWO_PI * g, out=t[4:])
            self._table4, self._table2 = t[:4].T, t[4:].T
        # no batch temporary holds more than max(nodes, 6) x terms cells per point
        self._rows = max(1, _MAX_BOX_CELLS // (max(len(self._near), 6) * max(self.terms, 1)))

    def _rho(self, zs):
        """Squared lengths |gen (idx + z)|^2: (points, terms) at an (n, 2)
        array, the same (terms,) row at a (u, v) tuple."""
        u, v = zs if type(zs) is tuple else (zs[:, :1], zs[:, 1:])
        g00, g01, g11 = self._plan.near[:3]
        w1 = self._idx[0] + u
        w2 = self._idx[1] + v
        # in place: three (points x terms) arrays at most
        rho = w1 * w1
        rho *= g00
        w1 *= w2
        w1 *= 2.0 * g01
        rho += w1
        w2 *= w2
        w2 *= g11
        rho += w2
        return rho

    def _grid_centered(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Values minus ``value_offset`` on the product grid ``us`` x ``vs`` of
        lattice coordinates in [0, 1], an (n, m) array, from O((n + m) terms)
        exponentials and matrix products instead of one exponential per grid
        point and term.

        The grid is cut into tiles: a tile is halved along its longer axis
        while it has more than ``_MAX_BOX_CELLS`` points or, with lattice-side
        nodes, while L = 2 r_max |g01| w1 w2 exceeds ``_TILE_CROSS``, where
        r_j = pi alpha_j and w1, w2 are the tile's half-widths about its centre
        c.  Terms run in blocks that keep every temporary within
        ``_MAX_BOX_CELLS`` cells.

        Dual side: cos 2 pi (k1 u + k2 v) = cos 2 pi k1 u cos 2 pi k2 v -
        sin 2 pi k1 u sin 2 pi k2 v, two (n x K)(K x m) products weighted by g.

        Lattice side: with d = z - c, q = idx + c and (a, b) = G q,
        Q(q + d) = C + g00 s1^2 + g11 s2^2 + 2 g01 d1 d2, where s1 = d1 + a / g00
        = u + i1 + (g01 / g00) q2, s2 likewise, and
        C = Q(q) - a^2 / g00 - b^2 / g11 = -g01 (2 q1 q2 + g01 (q2^2 / g00 + q1^2 / g11)).
        Summed about the vertices so, each bracket rounds to eps times itself.
        With phi_1 the least g00 s1^2 over the tile's points (at d1*), per node
        and term the factor e1 = exp(-r_j (g00 s1^2 - phi_1)) is <= 1 and
        e2 = exp(-r_j (g11 s2^2 + phi_1 + C)) is <= e^L, as its exponent is at
        most r_j times 2 g01 d1* d2* - Q(q + d*) for the least point d2*; the
        cross factor exp(-2 r_j g01 d1 d2), one (n x m) array per node and 1 on
        the square lattice, lies in [e^-L, e^L].  The sum over terms is one
        batched matmul of e1 and e2.

        e1 is flushed to 0 below e^``_EXP_FLOOR`` and e2 below
        e^(``_EXP_FLOOR`` + L), so every nonzero product of the two is at least
        e^(2 ``_EXP_FLOOR`` + L), which a power of two lifts to a normal float:
        a subnormal product slows the matmul a hundredfold.  A block of at most
        2^21 terms then sums to below 2^22 e^691.6 < e^709, and the cross
        factor over that power of two, in [e^-692.3, e^(2L - 691.6)], brings
        it back without a subnormal step: each term is at most 1.  A flushed
        factor drops its term and never overstates it; the term dropped is below
        w_j e^(``_EXP_FLOOR`` + 2L) <= 1.5e-193 w_j, and below w_j e^``_EXP_FLOOR``,
        the pointwise clip, where g01 = 0.  For e1 flushed at d1, e2 times the
        cross factor is exp(-r_j (Q(q + (d1*, d2)) + 2 g01 d2 (d1 - d1*))) <= e^(2L),
        as |d2 (d1 - d1*)| <= 2 w1 w2; for e2 flushed, e1 times it is <= e^L.
        Every term kept keeps its relative precision, which a spectral (FFT)
        scan, accurate only to eps times the value at the origin, would not.
        """
        us, vs = np.asarray(us, dtype=float), np.asarray(vs, dtype=float)
        out = np.zeros((len(us), len(vs)))
        g00, g01, g11 = self._plan.near[:3]
        spread = 2.0 * abs(g01) * float(self._rates.max()) if self._near else 0.0
        tiles = [(slice(0, len(us)), slice(0, len(vs)))]
        while tiles:
            su, sv = tiles.pop()
            tu, tv = us[su], vs[sv]
            c1, c2 = 0.5 * (tu.max() + tu.min()), 0.5 * (tv.max() + tv.min())
            d1, d2 = tu - c1, tv - c2
            n, m = len(tu), len(tv)
            cross = spread * float(np.abs(d1).max() * np.abs(d2).max())  # the tile's L
            if n * m > _MAX_BOX_CELLS or cross > _TILE_CROSS:
                # n = 1 leaves w1 = 0, so this halves an axis of at least 2 points
                s, half = (su, n // 2) if n >= m else (sv, m // 2)
                parts = slice(s.start, s.start + half), slice(s.start + half, s.stop)
                tiles += [(p, sv) if s is su else (su, p) for p in parts]
                continue
            block = out[su, sv]
            if self._far:
                step = max(1, _MAX_BOX_CELLS // max(n, m))
                for t in range(0, len(self._ghat), step):
                    k1, k2 = self._kl[:, t : t + step]
                    pu = TWO_PI * np.multiply.outer(tu, k1)
                    pv = TWO_PI * np.multiply.outer(tv, k2)
                    g = self._ghat[t : t + step]
                    block += (np.cos(pu) * g) @ np.cos(pv).T
                    block -= (np.sin(pu) * g) @ np.sin(pv).T
            if not self._near:
                continue
            nodes = max(1, min(len(self._rates), _MAX_BOX_CELLS // (n * m)))
            step = max(1, _MAX_BOX_CELLS // (nodes * max(n, m)))
            mixed = np.multiply.outer(-2.0 * g01 * d1, d2) if g01 else None  # cross exponent / r_j
            # a power of two lifting every nonzero e1 e2 >= e^(2 _EXP_FLOOR + L) to a normal float
            scale = 2.0 ** math.ceil((_LOG_TINY - 2.0 * _EXP_FLOOR - cross) / math.log(2.0))
            for t in range(0, self._idx.shape[1], step):
                i1, i2 = self._idx[0, t : t + step], self._idx[1, t : t + step]
                q1, q2 = i1 + c1, i2 + c2
                # g00 s1^2 and g11 s2^2, s1 = u + i1 + (g01 / g00) q2 and s2 likewise
                f1 = np.add.outer(i1 + g01 / g00 * q2, tu)
                f1 *= f1
                f1 *= g00
                f2 = np.add.outer(i2 + g01 / g11 * q1, tv)
                f2 *= f2
                f2 *= g11
                phi1 = f1.min(axis=1)
                f1 -= phi1[:, None]
                # e2's exponent over -r_j: g11 s2^2 + phi_1 + C
                c = -g01 * (2.0 * q1 * q2 + g01 * (q2 * q2 / g00 + q1 * q1 / g11))
                f2 += (phi1 + c)[:, None]
                for j in range(0, len(self._rates), nodes):
                    rates = self._rates[j : j + nodes]
                    e1 = _flushed_exp(np.multiply.outer(-rates, f1), _EXP_FLOOR)
                    e2 = _flushed_exp(np.multiply.outer(-rates, f2), _EXP_FLOOR + cross)
                    e2 *= scale
                    s = np.matmul(e1.transpose(0, 2, 1), e2)  # (nodes, n, m)
                    # the cross factor over scale is a normal float, so a value
                    # passes through no subnormal unless it is one
                    back = 1.0 if mixed is None else np.exp(np.multiply.outer(rates, mixed))
                    s *= back / scale
                    s *= self._weights[j : j + nodes, None, None]
                    block += np.add.reduce(s)
        return out

    def _lattice_derivatives(self, zs: np.ndarray) -> tuple[np.ndarray, ...]:
        """Lattice-side derivatives, term by term: with w = idx + z, grad rho =
        2 Gw and Hess rho = 2 G, the moments weigh the node Gaussians into
        e = (K, 2 K', 4 K'') of rho, so grad = Gw e_1 and Hess = (Gw e_2) (Gw)^T
        + (sum e_1) G."""
        w = self._idx + zs[:, :, None]
        gw = self._gram @ w  # (n, 2, terms)
        neg_x = np.add.reduce(w * gw, axis=1)[:, None] * -self._rates[:, None]
        np.maximum(neg_x, _EXP_FLOOR, out=neg_x)
        e = self._moments @ np.exp(neg_x, out=neg_x)  # (n, 3, terms)
        sums = np.add.reduce(e, axis=2)
        grad = (gw @ e[:, 1, :, None])[..., 0]
        hess = (gw * e[:, 2, None]) @ gw.transpose(0, 2, 1)
        hess += sums[:, 1, None, None] * self._gram
        hess[:, 1, 0] = hess[:, 0, 1]  # symmetric to the bit
        return sums[:, 0], grad, hess

    def _cosine_derivatives(self, zs: np.ndarray) -> tuple[np.ndarray, ...]:
        """Dual-side derivatives of sum_k g(k) cos(2 pi k.z), term by term:
        d/dz cos(2 pi k.z) = -2 pi k sin(.), d2/dz2 = -4 pi^2 k k^T cos(.)."""
        phases = zs @ self._phase
        vh = np.cos(phases) @ self._table4  # value, h11, h12, h22
        return vh[:, 0], np.sin(phases) @ self._table2, vh[:, [1, 2, 2, 3]].reshape(-1, 2, 2)

    @_in_row_blocks
    def derivatives_centered(self, zs: np.ndarray) -> tuple[np.ndarray, ...]:
        """Centered values (n,), gradients (n, 2) and Hessians (n, 2, 2) in
        lattice coordinates, each side differentiated term by term."""
        if not self._far:
            return self._lattice_derivatives(zs)
        if not self._near:
            return self._cosine_derivatives(zs)
        return tuple(map(np.add, self._lattice_derivatives(zs), self._cosine_derivatives(zs)))

    @_in_row_blocks
    def certified(self, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values at an (n, 2) batch of shifts, each the ``math.fsum`` of its
        terms plus ``value_offset``, and a bound on each one's error: the tails
        plus the rounding.  The shifts are reduced mod 1 into [0, 1]^2, the cell
        whose every point the balls and the phase rounding serve."""
        zs = np.mod(zs, 1.0)
        values, bounds = self._certify(zs, self._rho(zs) if self._near else None)
        return np.array(values), np.full(len(zs), bounds)

    def _certify(self, zs, rho):
        """``certified`` at shifts in [0, 1]^2 with lattice-side squared lengths
        ``rho``: values as a list at an (n, 2) array, both floats at one (u, v).
        A lattice-side term sum_j w_j e^(-X_j) is off by at most (nodes + 2) eps
        times itself plus kappa eps sum_j w_j X_j e^(-X_j); (nodes + 8) eps of
        the sum of |term| covers that and the two roundings of the sum."""
        per_size = _EPS * (len(self._near) + 8.0)
        bound = self.tail_bound + self._fixed + per_size * self._size
        one = type(zs) is tuple
        parts = [np.cos(TWO_PI * np.dot(zs, self._kl)) * self._ghat] if self._far else []
        if rho is not None:
            rates = self._neg_rates
            mixture = isinstance(rates, np.ndarray)
            # -X, with a mixture's nodes along a first axis
            neg_x = np.multiply.outer(rates, rho) if mixture else rates * rho
            # each term's rounding, w_j e^(-X_j) ((nodes + 8) eps + kappa eps X_j)
            per_term = per_size - _EPS * self._plan.kappa * neg_x
            we = np.maximum(neg_x, _EXP_FLOOR, out=neg_x)
            np.exp(we, out=we)
            weighted = we.T if mixture else we  # a mixture's nodes last, for its weights
            weighted *= self._weights
            per_term *= we
            parts.append(np.add.reduce(we) if mixture else we)
            if mixture:
                # over the nodes, then over the terms: numpy's order for one
                # reduction over both axes changes with the batch length
                per_term = np.add.reduce(per_term)
            bound = bound + np.add.reduce(per_term, axis=None if one else -1)
        rows = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)
        if one:
            return math.fsum(rows.tolist()) + self.value_offset, float(bound)
        return [math.fsum(row) + self.value_offset for row in rows.tolist()], bound

    def _result(self, value: float, bound: float) -> CertifiedValue:
        """One shift's value and bound; ``converged`` needs every ball and the
        whole bound to meet the tolerance."""
        return CertifiedValue(value, bound, self.terms, self.converged and bound <= self.tol)

    def certified_at(self, z: PhasePoint) -> CertifiedValue:
        """``certified`` at one shift, bit for bit."""
        _check_shift(z)
        point = (_wrap_unit(z.u), _wrap_unit(z.v))
        return self._result(*self._certify(point, self._rho(point) if self._near else None))
