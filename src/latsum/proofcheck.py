"""Numerical re-derivation of the quantitative ingredients behind the
hexagonal optimality proofs: quadratic-form ledgers, growth and
derivative bounds for the exponent families on the boundary line,
concavity windows, heat-kernel facts, and the printed series constants.

Each checker returns a :class:`LemmaReport`.  ``worst_margin`` is the
smallest slack of the verified inequalities (normalized where the raw
scales are exponentially small); structural checks (exact ledgers)
report +/-1.  A small tolerance grace is added where an inequality is
tight by construction, so ``passed == (worst_margin > 0)`` throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .theta import (
    _select_radius,
    montgomery_A,
    montgomery_B,
    montgomery_Q,
    theta1d_hat,
)

SQRT3 = math.sqrt(3.0)
Y_HEX = SQRT3 / 2.0
Q1_UNIT = 2.0 / (3.0 * SQRT3)
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class LemmaReport:
    lemma_id: str
    params_tested: str
    worst_margin: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "worst_margin", float(self.worst_margin))

    @property
    def passed(self) -> bool:
        return self.worst_margin > 0


@dataclass(frozen=True)
class QuadFormLedger:
    form_id: str
    entries: tuple[tuple[float, tuple[tuple[int, int], ...]], ...]


# ---------------------------------------------------------------------------
# Quadratic forms and exponent families on the line x = 1/2
# ---------------------------------------------------------------------------

def _box(radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat index arrays (k, l) over |k|, |l| <= radius, in k-major order.

    The families below take such arrays as well as scalars, and broadcast
    them against a column of y values.  Checkers that sweep a y grid over a
    large box walk it in ``_row_blocks``, so no array outgrows a few rows.
    """
    side = np.arange(-radius, radius + 1)
    return np.repeat(side, side.size), np.tile(side, side.size)


def _row_blocks(ys: np.ndarray):
    """The y grid as (16, 1) columns, so that a family evaluated on a block
    against a flat index box makes one (16, box) array: 16 rows of a
    41 x 41 box stay within 215 KB per temporary."""
    column = np.asarray(ys, dtype=float).reshape(-1, 1)
    return [column[i:i + 16] for i in range(0, len(column), 16)]


def q1(k: int, l: int) -> float:
    """Ellipse form collecting shifted-family exponents at the hexagonal point."""
    return (2.0 / SQRT3) * (k + (l + 1.0) / 2.0) ** 2 + (SQRT3 / 2.0) * (l + 1.0 / 3.0) ** 2


def q2(k: int, l: int) -> float:
    """Hexagonal norm form k^2 + k*l + l^2, as a float."""
    return 1.0 * (k * k + k * l + l * l)


def phi_f(k, l, y):
    """Shifted-family exponent: (2k+l+1)^2/(4y) + y (l + 1/2 - 1/(8 y^2))^2."""
    y = np.asarray(y, dtype=float)
    return (2 * k + l + 1) ** 2 / (4.0 * y) + y * (l + 0.5 - 1.0 / (8.0 * y * y)) ** 2


def phi_f_d1(k, l, y):
    """First y-derivative of phi_f, in closed form."""
    y = np.asarray(y, dtype=float)
    y2 = y * y
    c = 8 * k * k + 8 * k * (l + 1) + 2 * l * (l + 1) + 1
    return (16 * y2 * y2 * (2 * l + 1) ** 2 - 8 * y2 * c - 3) / (64.0 * y2 * y2)


def phi_f_d2(k, l, y):
    """Second y-derivative of phi_f, in closed form."""
    y = np.asarray(y, dtype=float)
    c = 8 * k * k + 8 * k * (l + 1) + 2 * l * (l + 1) + 1
    return (4 * y * y * c + 3) / (16.0 * y ** 5)


def phi_g(k, l, y):
    """Charged-family exponent: (k^2 + k l + (1/4 + y^2) l^2) / y."""
    y = np.asarray(y, dtype=float)
    return (k * k + k * l + (0.25 + y * y) * l * l) / y


def phi_g_d1(k, l, y):
    y = np.asarray(y, dtype=float)
    return l * l - (2 * k + l) ** 2 / (4.0 * y * y)


def phi_g_d2(k, l, y):
    y = np.asarray(y, dtype=float)
    return (2 * k + l) ** 2 / (2.0 * y ** 3)


def _psi_arg(k, l, y):
    # charge phases at the circumcenter on the line x = 1/2
    a1 = 0.25 + 1.0 / (16.0 * y * y)
    a2 = 0.5 - 1.0 / (8.0 * y * y)
    return TWO_PI * (k * a2 - l * a1)


def psi_g(k, l, y):
    """Oscillating factor of the charged family on the line x = 1/2."""
    y = np.asarray(y, dtype=float)
    return np.cos(_psi_arg(k, l, y))


def psi_g_d1(k, l, y):
    y = np.asarray(y, dtype=float)
    darg = math.pi * (2 * k + l) / 4.0 / y ** 3
    return -np.sin(_psi_arg(k, l, y)) * darg


def psi_g_d2(k, l, y):
    y = np.asarray(y, dtype=float)
    arg = _psi_arg(k, l, y)
    darg = math.pi * (2 * k + l) / 4.0 / y ** 3
    ddarg = -3.0 * math.pi * (2 * k + l) / 4.0 / y ** 4
    return -np.cos(arg) * darg * darg - np.sin(arg) * ddarg


def shifted_term_d2(k, l, y, alpha):
    """d^2/dy^2 of exp(-pi alpha phi_f)."""
    y = np.asarray(y, dtype=float)
    pa = math.pi * alpha
    d1 = phi_f_d1(k, l, y)
    d2 = phi_f_d2(k, l, y)
    return (pa * pa * d1 * d1 - pa * d2) * np.exp(-pa * phi_f(k, l, y))


def charged_term_d2(k, l, y, alpha):
    """d^2/dy^2 of exp(-pi alpha phi_g) * psi_g."""
    y = np.asarray(y, dtype=float)
    pa = math.pi * alpha
    f1 = phi_g_d1(k, l, y)
    f2 = phi_g_d2(k, l, y)
    p0 = psi_g(k, l, y)
    p1 = psi_g_d1(k, l, y)
    p2 = psi_g_d2(k, l, y)
    return np.exp(-pa * phi_g(k, l, y)) * (
        (pa * pa * f1 * f1 - pa * f2) * p0 - 2.0 * pa * f1 * p1 + p2
    )


# ---------------------------------------------------------------------------
# Form ledgers
# ---------------------------------------------------------------------------

def enumerate_form(form_id: str) -> QuadFormLedger:
    """Ledger of form values over |k|, |l| <= 8, grouped by level.

    For Q1 the grouping unit is 2/(3 sqrt 3); for Q2 the values are
    integers.  Basic growth facts are validated during enumeration.
    """
    form_id = form_id.upper()
    if form_id not in ("Q1", "Q2"):
        raise ValueError("form_id must be 'Q1' or 'Q2'")
    k, l = _box(8)
    n2 = k * k + l * l
    if form_id == "Q1":
        unit, v = Q1_UNIT, q1(k, l)
        off_unit = np.abs(v / unit - np.rint(v / unit)) > 1e-9
        bad = off_unit | (v < unit - 1e-12) | (v < unit * n2 - 1e-9)
    else:
        unit, v = 1.0, q2(k, l)
        bad = v < 0.5 * n2 - 1e-12
    if bad.any():
        i = np.argmax(bad)
        raise ValueError(f"{form_id}({k[i]},{l[i]}) breaks its unit or growth bound")
    groups: dict[float, list[tuple[int, int]]] = {}
    for key, pair in zip(np.rint(v / unit).tolist(), zip(k.tolist(), l.tolist())):
        groups.setdefault(key, []).append(pair)
    entries = tuple((key * unit, tuple(groups[key])) for key in sorted(groups))
    return QuadFormLedger(form_id=form_id, entries=entries)


def _q1_outside_minima(box_limits) -> list[float]:
    """min Q1(k, l) over max(|k|, |l|) > limit for each limit, on one search
    box |k|, |l| <= 60."""
    k, l = _box(60)
    v = q1(k, l)
    reach = np.maximum(np.abs(k), np.abs(l))
    return [float(np.min(v[reach > limit], initial=math.inf)) for limit in box_limits]


def check_q1_ledger() -> LemmaReport:
    """First three Q1 levels and their index sets match the tabulated ones."""
    ledger = enumerate_form("Q1")
    expected = [
        (1, {(0, -1), (-1, 0), (0, 0)}),
        (4, {(-1, -1), (1, -1), (-1, 1)}),
        (7, {(0, -2), (1, -2), (-2, 0), (1, 0), (-2, 1), (0, 1)}),
    ]
    ok = True
    for (mult, idx_set), (value, indices) in zip(expected, ledger.entries[:3]):
        ok &= abs(value - mult * Q1_UNIT) < 1e-12
        ok &= set(indices) == idx_set
    return LemmaReport("q1_ledger", "box radius 8, first three levels", 1.0 if ok else -1.0)


def check_q2_ledger() -> LemmaReport:
    """Q2 level sets match the table; the value 2 is skipped."""
    ledger = enumerate_form("Q2")
    levels = {int(round(v)): set(idx) for v, idx in ledger.entries}
    ok = levels[1] == {(0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1)}
    ok &= levels[3] == {(1, -2), (-1, -1), (2, -1), (-2, 1), (1, 1), (-1, 2)}
    ok &= levels[4] == {(0, -2), (2, -2), (-2, 0), (2, 0), (-2, 2), (0, 2)}
    ok &= 2 not in levels
    ok &= q2(3, -3) == 9.0
    return LemmaReport("q2_ledger", "box radius 8, levels 1/3/4, gap at 2", 1.0 if ok else -1.0)


def check_q1_growth() -> LemmaReport:
    """Q1 >= u and Q1 >= u (k^2+l^2), plus the outside-box thresholds."""
    box_radius = 30
    k, l = _box(box_radius)
    v = q1(k, l)
    margin = min(np.min(v - Q1_UNIT + 1e-9), np.min(v - Q1_UNIT * (k * k + l * l) + 1e-9))
    for observed, mult in zip(_q1_outside_minima((1, 5)), (14, 146)):
        margin = min(margin, 1e-9 - abs(observed - mult / (3.0 * SQRT3)))
    return LemmaReport(
        "q1_growth",
        f"box radius {box_radius}; outside-box minima 14u and 146u",
        margin,
    )


# ---------------------------------------------------------------------------
# Growth and derivative lemmas
# ---------------------------------------------------------------------------

def min_phi_f(k: int, l: int) -> float:
    """min of phi_f(k, l, .) over y >= sqrt(3)/2.

    The numerator of phi_f_d1 is a quadratic in y^2 with constant term -3
    and leading coefficient 16 (2l+1)^2 > 0, so it has exactly one positive
    root y*^2, given in closed form below.  phi_f decreases before y* and
    increases after it: y* is the only critical point on y > 0 and the
    global minimum there, and the minimum over y >= sqrt(3)/2 sits at
    max(y*, sqrt(3)/2).
    """
    c = 8 * k * k + 8 * k * (l + 1) + 2 * l * (l + 1) + 1
    s = 2 * l + 1.0
    y_star = np.sqrt((c + np.hypot(c, SQRT3 * s)) / (4.0 * s * s))
    return phi_f(k, l, np.maximum(y_star, Y_HEX))


_GROWTH1_BOX = 20  # the index box |k|, |l| <= 20 of the first growth lemma


def growth1_min_ratio() -> tuple[float, list[tuple[int, int]]]:
    """Smallest min_phi_f / sqrt(Q1) over the index box and the pairs within 1e-9 of it."""
    k, l = _box(_GROWTH1_BOX)
    ratio = min_phi_f(k, l) / np.sqrt(q1(k, l))
    best = float(np.min(ratio))
    near = ratio < best + 1e-9
    return best, list(zip(k[near].tolist(), l[near].tolist()))


def check_growth_lemma_1() -> LemmaReport:
    """min_y phi_f >= sqrt(Q1)/2 on the index box."""
    ratio, attaining = growth1_min_ratio()
    return LemmaReport(
        "growth1",
        f"|k|,|l| <= {_GROWTH1_BOX}; minimal ratio {ratio:.4f} at {attaining}",
        ratio - 0.5,
    )


def check_derivative_bounds() -> LemmaReport:
    """|phi_f'| <= 2 Q1 and |phi_f''| <= 3 Q1 on a y-grid."""
    ys, k_max = np.linspace(Y_HEX, 10.0, 200), 20
    k, l = _box(k_max)
    qq = q1(k, l)
    first = second = math.inf
    for rows in _row_blocks(ys):
        first = min(first, np.min(2.0 * qq - np.abs(phi_f_d1(k, l, rows))))
        second = min(second, np.min(3.0 * qq - np.abs(phi_f_d2(k, l, rows))))
    return LemmaReport(
        "derivative_bounds", f"|k|,|l| <= {k_max}, {len(ys)}-point y-grid", min(first, second)
    )


def check_growth11_composite() -> LemmaReport:
    """|d^2/dy^2 exp(-pi a phi_f)| <= 5 pi^2 a^2 Q1^2 exp(-pi a sqrt(Q1)/2)."""
    alphas, k_max = (5.0, 10.0), 15
    ys = np.linspace(Y_HEX, 8.0, 160)
    k, l = _box(k_max)
    qq = q1(k, l)
    margin = math.inf
    for alpha in alphas:
        bound = 5.0 * math.pi**2 * alpha**2 * qq * qq * np.exp(
            -0.5 * math.pi * alpha * np.sqrt(qq)
        )
        worst = np.zeros_like(qq)
        for rows in _row_blocks(ys):
            np.maximum(worst, np.abs(shifted_term_d2(k, l, rows, alpha)).max(axis=0), out=worst)
        margin = min(margin, np.min((bound - worst) / bound))
    return LemmaReport(
        "growth11", f"alphas {alphas}, |k|,|l| <= {k_max}, relative slack", margin
    )


def min_phi_g(k: int, l: int) -> float:
    """min over y >= sqrt(3)/2 of phi_g(k, l, .), for l != 0."""
    if np.any(np.asarray(l) == 0):
        raise ValueError("the charged growth bound needs l != 0")
    a = (2 * k + l) ** 2 / 4.0
    b = l * l
    y0 = np.sqrt(a / b)
    # [()] turns the 0-d result of scalar input back into a scalar
    return np.where(y0 <= Y_HEX, phi_g(k, l, Y_HEX), 2.0 * np.sqrt(a * b))[()]


def check_growth_lemma_2() -> LemmaReport:
    """min_y phi_g >= sqrt(Q2) for l != 0."""
    k_max = 20
    k, l = _box(k_max)
    k, l = k[l != 0], l[l != 0]
    margin = np.min(min_phi_g(k, l) - np.sqrt(q2(k, l)))
    return LemmaReport("growth2", f"|k|,|l| <= {k_max}, l != 0", margin)


# ---------------------------------------------------------------------------
# Concavity windows
# ---------------------------------------------------------------------------

def _concavity_window(alpha: float) -> np.ndarray:
    return np.linspace(Y_HEX, Y_HEX + 1.0 / (3.0 * math.sqrt(alpha)), 160)


def check_dominant_concavity() -> LemmaReport:
    """Dominant-term concavity: d^2 term <= -0.84 a exp(-2 pi a / (3 sqrt 3)).

    Margins are normalized by a exp(-2 pi a /(3 sqrt 3)).
    """
    alphas = (6.0, 10.0, 50.0)
    margin = min(-0.84 - dominant_concavity_extreme(alpha) for alpha in alphas)
    return LemmaReport("dominant_concavity", f"alphas {alphas}, normalized slack", margin)


def dominant_concavity_extreme(alpha: float = 6.0) -> float:
    """max of d^2 term / (a exp(-2 pi a/(3 sqrt3))) over the window (about -0.88 at 6)."""
    ys = _concavity_window(alpha)
    scale = alpha * math.exp(-TWO_PI * alpha / (3.0 * SQRT3))
    return float(np.max(shifted_term_d2(0, 0, ys, alpha))) / scale


def _nine_term_d2(term_d2, ys: np.ndarray, alpha: float) -> np.ndarray:
    """Sum of a term family over |k|, |l| <= 1 on a y-grid; the sum over the
    leading axis adds the nine rows one after another in k-major order."""
    k, l = _box(1)
    return term_d2(k[:, None], l[:, None], ys, alpha).sum(axis=0)


def check_nine_term_concavity() -> LemmaReport:
    """Nine-term concavity with constant -2.5; the six extra terms are tiny."""
    alphas = (6.0, 10.0)
    margin = math.inf
    for alpha in alphas:
        ys = _concavity_window(alpha)
        scale = alpha * math.exp(-TWO_PI * alpha / (3.0 * SQRT3))
        nine = _nine_term_d2(shifted_term_d2, ys, alpha)
        margin = min(margin, -2.5 - float(np.max(nine / scale)))
        if alpha == alphas[0]:
            # extra-term contribution at the smallest alpha stays near 1e-6
            extra = np.abs(nine - 3.0 * shifted_term_d2(0, 0, ys, alpha)) / scale
            margin = min(margin, 1e-5 - float(np.max(extra)))
    return LemmaReport(
        "nine_term_concavity",
        f"alphas {alphas}; extra-term contribution < 1e-5 at alpha {alphas[0]:g}",
        margin,
    )


def check_charged_nine_term() -> LemmaReport:
    """Charged nine-term bound: d^2 sum <= -0.6 pi^2 a^2 exp(pi a (y - 2))."""
    alphas = (5.0, 8.0)
    ys = np.linspace(Y_HEX, 1.0, 160)
    margin = math.inf
    for alpha in alphas:
        scale = math.pi**2 * alpha**2 * np.exp(math.pi * alpha * (ys - 2.0))
        ratio = _nine_term_d2(charged_term_d2, ys, alpha) / scale
        margin = min(margin, -0.6 - float(np.max(ratio)))
    return LemmaReport(
        "charged_nine_term", f"alphas {alphas}, y in [sqrt3/2, 1]", margin
    )


def _charged_ball(ys: np.ndarray, alpha: float):
    """Index pairs (k, l) != 0 of the ball that ``charged_sum_d2`` sums on the
    window [min ys, max ys], and a bound on the sum of |charged_term_d2| over
    the pairs left out, at every y of the window.

    phi_g(k, l, y) = ((k + l/2)^2 + y^2 l^2) / y is rho = |p|^2 for the point
    p of (k, l) on lattice_from_tau(1/2, y), of covolume 1.  Both parts of
    phi_g_d1 lie in [0, rho/y] and phi_g_d2 = 2 (k + l/2)^2 / y^3, so
    |f1| <= rho/y, f2 <= 2 rho/y^2 and |2k + l| <= 2 sqrt(y rho).  The phase
    derivatives are then |psi_g_d1| <= pi sqrt(rho) / (2 y^(5/2)) and
    |psi_g_d2| <= pi^2 rho / (4 y^5) + 3 pi sqrt(rho) / (2 y^(7/2)).  With
    rho^(1/2), rho, rho^(3/2), rho^2 <= (1 + rho)^2 each term is at most
    A (1 + rho)^2 exp(-pi alpha rho), where

        A = pi^2 alpha^2 / y^2 + 2 pi alpha / y^2 + pi^2 alpha / y^(7/2)
            + pi^2 / (4 y^5) + 3 pi / (2 y^(7/2))

    falls in y.  (1 + rho)^2 exp(-c rho), c = pi alpha / 2, peaks at
    1 + rho = 2/c, so it is at most M = (2/c)^2 exp(c - 2) for c < 2 and
    M = 1 for c >= 2 (alpha >= 4/pi).  Each term is thus at most
    A M exp(-pi (alpha/2) |p|^2), and the terms with |p| > R sum to at most
    ``_gaussian_tail(((alpha/2, A M),), 1, h, R)``, which grows with A and
    with the cell half-diameter h.  The cell's longer diagonal is
    (3/2, y) / sqrt(y), so h^2 = (9/4 + y^2) / (4 y), convex in y.  Taking A
    at the smallest y and h at the larger endpoint value makes the bound
    hold on the whole window.  R is the ball radius for tol 1e-16, and the
    pairs kept are those with phi_g <= R^2 somewhere on the window: phi_g is
    convex in y, so its minimum there is at |k + l/2| / |l| (at the top end
    for l = 0) clipped to the window.
    """
    y0, y1 = float(np.min(ys)), float(np.max(ys))
    pa = math.pi * alpha
    amp = (pa * pa + 2.0 * pa) / y0**2 + (math.pi * pa + 1.5 * math.pi) / y0**3.5 + (
        math.pi**2 / (4.0 * y0**5)
    )
    c = 0.5 * pa
    peak = 1.0 if c >= 2.0 else (2.0 / c) ** 2 * math.exp(c - 2.0)
    h = max(0.5 * math.sqrt((2.25 + y * y) / y) for y in (y0, y1))
    radius, tail, _ = _select_radius(((0.5 * alpha, amp * peak),), 1.0, h, 1e-16, math.inf)
    r2 = radius * radius
    # |l| <= R / sqrt(y0) and |k + l/2| <= R sqrt(y1) on the ball
    k, l = _box(math.ceil(radius * (math.sqrt(y1) + 0.5 / math.sqrt(y0))))
    centre = np.abs(k + 0.5 * l)
    y_min = np.clip(np.where(l == 0, y1, centre / np.maximum(np.abs(l), 1)), y0, y1)
    keep = (phi_g(k, l, y_min) <= r2) & ((k != 0) | (l != 0))
    return k[keep], l[keep], tail


def charged_sum_d2(y: np.ndarray, alpha: float) -> np.ndarray:
    """Closed-form second y-derivative of the full charged profile g_alpha,
    summed over the ball of ``_charged_ball``: the terms left out add up to
    less than its tail, below 1e-16."""
    ys = np.asarray(y, dtype=float)
    k, l, _ = _charged_ball(ys, alpha)
    return charged_term_d2(k, l, ys.reshape(-1, 1), alpha).sum(axis=1).reshape(ys.shape)


def check_charged_concavity_small_alpha() -> LemmaReport:
    """g_alpha'' stays below -1e-5 for moderate alpha near the hexagonal point:
    the sampled maximum of the ball sum plus the ball's tail."""
    alphas = (2.0, 3.5, 5.0)
    ys = np.linspace(Y_HEX, 1.5, 120)
    worst = -math.inf
    for alpha in alphas:
        tail = _charged_ball(ys, alpha)[2]
        worst = max(worst, float(np.max(charged_sum_d2(ys, alpha))) + tail)
    margin = (-1e-5 - worst) * 1e5
    return LemmaReport(
        "charged_concavity_small_alpha",
        f"alphas {alphas}, y in [sqrt3/2, 1.5], bound -1e-5 (x1e5)",
        margin,
    )


# ---------------------------------------------------------------------------
# Heat kernel on the circle and the l = 0 subsum
# ---------------------------------------------------------------------------

def _heat_uxx_weights(t: float) -> np.ndarray:
    k_max = int(math.ceil(math.sqrt(1.0 + 45.0 / (4.0 * math.pi**2 * t)))) + 4
    ks = np.arange(1, k_max + 1)
    return ks**2 * np.exp(-4.0 * math.pi**2 * (ks**2 - 1) * t)


def _heat_uxx_scaled(t: float):
    """x -> u_xx / (-8 pi^2 exp(-4 pi^2 t)) at this t: positive where u is
    concave.  The weights are built once, for every x asked after."""
    weights = _heat_uxx_weights(t)
    ks = np.arange(1, len(weights) + 1)

    def scaled(x) -> np.ndarray:
        return np.cos(TWO_PI * np.outer(np.asarray(x, dtype=float), ks)) @ weights

    return scaled


def heat_inflection_point(t: float) -> float:
    """The zero of u_xx in (0, 1/2), located by bisection to width 1e-10."""
    scaled = _heat_uxx_scaled(t)
    lo, hi = 1e-9, 0.5 - 1e-12
    s_lo = float(scaled([lo])[0])
    s_hi = float(scaled([hi])[0])
    if not (s_lo > 0 > s_hi):
        raise ValueError(f"no sign change bracket at t={t}")
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if float(scaled([mid])[0]) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def check_heat_inflection() -> LemmaReport:
    """All inflection points lie below 0.3; convexity holds on [0.3, 0.7].

    The convexity part is sampled on a cancelling cosine sum, and its margin
    at small t is the noise grace below, not a proven slack: at t = 0.00147
    the sampled -u_xx (scaled) on [0.3, 0.5] reads -0.0, so the reported
    7.47e-13 is exactly the 100 eps grace, and at t = 0.001 it reads -2.7e-14
    and only the grace keeps it positive.
    """
    ts = np.logspace(-3, 1, 25)
    roots = [heat_inflection_point(float(t)) for t in ts]
    margin = 0.3 - max(roots)
    xs = np.linspace(0.3, 0.5, 60)
    for t in ts:
        # near x = 1/2 at small t the series is an alternating sum whose
        # true value sits far below roundoff; allow that noise floor
        noise = 100.0 * np.finfo(float).eps * float(np.sum(_heat_uxx_weights(float(t))))
        margin = min(margin, float(np.min(-_heat_uxx_scaled(float(t))(xs))) + noise)
    # the root wanders monotonically from ~sqrt(2t) toward 1/4; at large t
    # the increments fall below the bisection resolution, hence the grace
    diffs = np.diff(roots)
    margin = min(margin, float(np.min(diffs)) + 1e-8)
    return LemmaReport(
        "heat_inflection", f"{len(ts)} log-spaced t in [{ts[0]:.3g}, {ts[-1]:.3g}]", margin
    )


def g_profile(alpha: float, y: float) -> float:
    """The l = 0 subsum of the charged profile: a circle heat kernel."""
    return theta1d_hat(0.5 - 1.0 / (8.0 * y * y), alpha / y).value


def check_G_monotone() -> LemmaReport:
    """The l = 0 subsum decreases in y; quantified decrement for alpha >= 1."""
    alphas = (0.5, 1.0, 4.0)
    ys = np.linspace(Y_HEX, 3.0, 120)
    margin = math.inf
    for alpha in alphas:
        vals = np.array([g_profile(alpha, float(y)) for y in ys])
        scale = math.exp(-TWO_PI * alpha / SQRT3)
        margin = min(margin, float(np.min(-np.diff(vals))) / scale)
    for alpha in (1.0, 4.0):
        drop = g_profile(alpha, Y_HEX) - g_profile(alpha, Y_HEX + 0.25 / math.sqrt(alpha))
        required = (2.0 * math.sqrt(alpha) / 3.0) * math.exp(-TWO_PI * alpha / SQRT3)
        margin = min(margin, (drop - required) / required)
    if abs(g_profile(1.0, 50.0)) > 1e-10:
        margin = min(margin, -1.0)
    return LemmaReport(
        "g_monotone",
        f"alphas {alphas}, {len(ys)}-point grid; decrement at 1 and 4",
        margin,
    )


# ---------------------------------------------------------------------------
# Printed tail constants
# ---------------------------------------------------------------------------

def _series(fn, start: int) -> float:
    return math.fsum(fn(n) for n in range(start, 80))


def tail_constant(constant_id: str) -> float:
    """Recompute one of the printed series constants by direct summation."""
    cid = constant_id.upper()
    pi = math.pi
    if cid == "A1":
        return _series(lambda l: l * l * math.exp(-(pi / 2) * (l * l + (l - 4) / 2)), 2)
    if cid == "A2":
        return _series(lambda l: l * l * math.exp(-pi * (l * l + (l - 3) / 2)), 2)
    if cid == "B1":
        return _series(lambda l: l * l * math.exp(-(pi / 2) * (l * l - l - 0.5)), 2)
    if cid == "B2":
        return _series(lambda l: l * l * math.exp(-pi * (l * l - l)), 2)
    if cid == "P2A":
        first = _series(lambda k: k * k * math.exp(-pi * (k * k - k - 1)), 2)
        outer = _series(lambda l: l * l * math.exp(-pi * (l * l - 1)), 2)
        inner = _series(lambda k: k * k * math.exp(-pi * (k * k - k - 1)), 1)
        return first + outer * inner
    if cid == "P2B":
        c = 1.0 / (2.0 * pi) + 0.25
        first = c * _series(lambda l: l * l * math.exp(-(pi / 2) * (l * l - 1.5)), 1)
        outer = _series(lambda l: l * l * math.exp(-(pi / 2) * (l * l - 1)), 1)
        inner = _series(lambda k: math.exp(-pi * (k * k - 0.25)) * (k * k + c), 1)
        return first + 2.0 * outer * inner
    raise ValueError(f"unknown constant id {constant_id!r}")


PRINTED_CONSTANTS = {
    "A1": 0.0359475,
    "A2": 0.0000671031,
    "B1": 0.380714,
    "B2": 0.00746983,
    "P2A": 0.180383,
    "P2B": 1.20646,
}


def check_tail_constants() -> LemmaReport:
    """All six series constants agree with their printed digits."""
    margin = math.inf
    for cid, printed in PRINTED_CONSTANTS.items():
        decimals = len(str(printed).split(".")[1])
        tol = 10.0 ** (-decimals)
        rel = (tol - abs(tail_constant(cid) - printed)) / tol
        margin = min(margin, rel)
    return LemmaReport(
        "tail_constants", "six printed constants to all printed places", margin
    )


# ---------------------------------------------------------------------------
# Envelope sandwich and threshold inequalities
# ---------------------------------------------------------------------------

def check_montgomery_sandwich() -> LemmaReport:
    """A(t) <= Q(beta; t) <= B(t) on a (beta, t) grid."""
    betas = np.linspace(0.0, 0.5, 50)
    tvals = np.logspace(math.log10(0.25), math.log10(4.0), 9)
    margin = math.inf
    for t in tvals:
        lo, hi = montgomery_A(float(t)), montgomery_B(float(t))
        for beta in betas:
            qv = montgomery_Q(float(beta), float(t)).value
            margin = min(margin, (qv - lo) / hi, (hi - qv) / hi)
    return LemmaReport(
        "montgomery_sandwich", f"{len(betas)} beta x {len(tvals)} t grid, relative", margin
    )


def _threshold_table() -> dict:
    """Tail-sum threshold inequalities: id -> (stated alpha0, usage floor,
    lhs(a), rhs(a)).  Each lhs is a masked sum over |k|, |l| <= 40 whose terms
    depend on an integer level only: n2 = k^2 + l^2, q2 = k^2 + k l + l^2, or
    n = q2 + k + l, for which Q1 = (2/sqrt 3)(n + 1/3).  The sum is kept as
    one term per distinct level, weighted by the level's count."""
    pi = math.pi
    k, l = _box(40)
    cheb = np.maximum(np.abs(k), np.abs(l))
    n2 = k * k + l * l
    q2_level = k * k + k * l + l * l
    q1_level = q2_level + k + l
    ks = np.arange(2, 40)

    def q1_of(n):
        return (2.0 / SQRT3) * (n + 1.0 / 3.0)

    def level_sum(c, level, mask, q_of=np.float64, s_of=np.sqrt, power=0):
        # sum over the mask of Q^power exp(c a s(Q)), Q = q_of(level): one exp
        # per distinct level, weighted by its count
        count = np.bincount(level[mask])
        lev = np.flatnonzero(count > 0)
        q = q_of(lev)
        w, s = count[lev] * q**power, s_of(q)
        return lambda a: float(np.sum(w * np.exp(c * a * s)))

    def dominant(a):
        return math.exp(-TWO_PI * a / (3 * SQRT3))

    composite = level_sum(-0.5 * pi, q1_level, cheb > 1, q1_of, power=2)
    charged = level_sum(-pi, q2_level, (l != 0) & (cheb > 1), power=2)
    return {
        "square_tail": (
            0.5, 0.5, level_sum(-pi, n2, n2 >= 2, s_of=np.positive), lambda a: math.exp(-pi * a)
        ),
        "far_q1": (
            1.0, 1.0, level_sum(-0.5 * pi, q1_level, cheb > 5, q1_of),
            lambda a: dominant(a) / 200.0,
        ),
        # Q1 >= 4u, i.e. n >= 1
        "nondominant_q1": (
            0.7, 6.0, level_sum(-0.5 * pi, q1_level, q1_level >= 1, q1_of),
            lambda a: 0.3 * dominant(a),
        ),
        "composite_q1": (
            6.0, 6.0, lambda a: 5.0 * pi**2 * a**2 * composite(a), lambda a: 2.5 * a * dominant(a)
        ),
        "charged_far": (
            1.3, 1.5, level_sum(-pi, q2_level, (l != 0) & (q2_level > 1)),
            lambda a: (2.0 * math.sqrt(a) / 3.0) * math.exp(-TWO_PI * a / SQRT3),
        ),
        "charged_composite": (
            1.1, 5.0,
            lambda a: 40.0 * math.fsum(a * a * ks**4 * np.exp(-pi * a * ks * ks))
            + 3.0 * pi**2 * a**2 * charged(a),
            lambda a: 0.6 * pi**2 * a**2 * math.exp(pi * a * (Y_HEX - 2.0)),
        ),
    }


_THRESHOLDS = _threshold_table()


def empirical_threshold(name: str) -> float:
    """Smallest alpha on the grid 0.05, 0.10, ..., 10 from which lhs < rhs
    holds onward."""
    if name not in _THRESHOLDS:
        raise ValueError(f"unknown threshold id {name!r}")
    _, _, lhs, rhs = _THRESHOLDS[name]
    grid = np.arange(0.05, 10.0 + 0.05, 0.05)
    holds = np.array([lhs(a) < rhs(a) for a in grid.tolist()])
    if not holds[-1]:
        return math.inf
    last_fail = np.where(~holds)[0]
    if len(last_fail) == 0:
        return float(grid[0])
    return float(grid[last_fail[-1] + 1])


def check_alpha_thresholds() -> LemmaReport:
    """Tail-sum threshold inequalities verified above their thresholds.

    Each inequality is checked at the larger of its quoted approximate
    threshold (rounded up to one decimal) and the scanned empirical one,
    and again at twice that value; the scan results are reported.
    """
    margin = math.inf
    notes = []
    for name, (stated, usage, lhs, rhs) in _THRESHOLDS.items():
        emp = empirical_threshold(name)
        a_check = max(stated, usage, math.ceil(emp * 10.0) / 10.0)
        for a in (a_check, 2.0 * a_check):
            margin = min(margin, (rhs(a) - lhs(a)) / abs(rhs(a)))
        notes.append(f"{name}: stated {stated}, empirical {emp:.2f}, checked {a_check}")
    return LemmaReport("alpha_thresholds", "; ".join(notes), margin)


# ---------------------------------------------------------------------------
# Suite
# ---------------------------------------------------------------------------

def run_default_suite() -> list[LemmaReport]:
    """Every lemma checker at its default parameters, in a fixed order."""
    return [
        check_q1_ledger(),
        check_q2_ledger(),
        check_q1_growth(),
        check_growth_lemma_1(),
        check_derivative_bounds(),
        check_growth11_composite(),
        check_growth_lemma_2(),
        check_dominant_concavity(),
        check_nine_term_concavity(),
        check_charged_nine_term(),
        check_charged_concavity_small_alpha(),
        check_heat_inflection(),
        check_G_monotone(),
        check_tail_constants(),
        check_montgomery_sandwich(),
        check_alpha_thresholds(),
    ]
