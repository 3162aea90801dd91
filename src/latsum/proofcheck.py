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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .lattice import _point_b
from .theta import (
    _EPS,
    _EXP_FLOOR,
    _ball,
    _clipped_exp,
    _side,
    _theta1d,
    montgomery_A,
    montgomery_B,
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
    them against a column of y values.
    """
    side = np.arange(-radius, radius + 1)
    return np.repeat(side, side.size), np.tile(side, side.size)


def q1(k: int, l: int) -> float:
    """Ellipse form collecting shifted-family exponents at the hexagonal point."""
    return (2.0 / SQRT3) * (k + (l + 1.0) / 2.0) ** 2 + (SQRT3 / 2.0) * (l + 1.0 / 3.0) ** 2


def q2(k: int, l: int) -> float:
    """Hexagonal norm form k^2 + k*l + l^2, as a float."""
    return 1.0 * (k * k + k * l + l * l)


def _phi_f_c(k, l):
    """c = 8k^2 + 8k(l+1) + 2l(l+1) + 1 = 2m^2 - 2l - 1, with m = 2k + l + 1.

    With k + (l+1)/2 = m/2, exact in floats, and this integer c, q1, phi_f,
    its derivatives and shifted_term_d2 are functions of m^2 and l: every
    float step sees the same operands at (k, l) and (-k-l-1, l), where m
    changes sign, so the values there are equal bit for bit."""
    return 8 * k * k + 8 * k * (l + 1) + 2 * l * (l + 1) + 1


def _column_classes(radius: int) -> tuple[np.ndarray, np.ndarray]:
    """One (k, l) of each class {(k, l), (-k-l-1, l)} of the box |k|, |l| <= radius:
    the pairs with m = 2k + l + 1 <= 0 and those whose partner lies outside.
    A maximum or minimum over the box of a function of m^2 and l is the same
    over these columns (1061 of 1681 at radius 20, 609 of 961 at 15)."""
    k, l = _box(radius)
    keep = (2 * k + l + 1 <= 0) | (np.abs(k + l + 1) > radius)
    return k[keep], l[keep]


def phi_f(k, l, y):
    """Shifted-family exponent: (2k+l+1)^2/(4y) + y (l + b2(y))^2, with
    b2(y) = 1/2 - 1/(8 y^2) the second coordinate of the moving point."""
    y = np.asarray(y, dtype=float)
    return (2 * k + l + 1) ** 2 / (4.0 * y) + y * (l + _point_b(0.5, y)[1]) ** 2


def phi_f_d1(k, l, y):
    """First y-derivative of phi_f, in closed form."""
    return _phi_f_d1((2 * l + 1) ** 2, _phi_f_c(k, l), np.asarray(y, dtype=float))


def _phi_f_d1(s2, c, y):
    y2 = y * y
    return (16 * y2 * y2 * s2 - 8 * y2 * c - 3) / (64.0 * y2 * y2)


def phi_f_d2(k, l, y):
    """Second y-derivative of phi_f, in closed form."""
    return _phi_f_d2(_phi_f_c(k, l), np.asarray(y, dtype=float))


def _phi_f_d2(c, y):
    return (4 * y * y * c + 3) / (16.0 * y ** 5)


def phi_g(k, l, y):
    """Charged-family exponent: (k^2 + k l + (1/4 + y^2) l^2) / y."""
    y = np.asarray(y, dtype=float)
    return (k * k + k * l + (0.25 + y * y) * l * l) / y


def shifted_term_d2(k, l, y, alpha):
    """d^2/dy^2 of exp(-pi alpha phi_f).  exp(-pi alpha phi_f) is clipped at
    e^``_EXP_FLOOR``, which overstates a term by less than its prefactor
    times e^-700 and spares an exp near underflow its slow path."""
    y = np.asarray(y, dtype=float)
    pa = math.pi * alpha
    d1 = phi_f_d1(k, l, y)
    return (pa * pa * d1 * d1 - pa * phi_f_d2(k, l, y)) * _clipped_exp(pa * phi_f(k, l, y))


def charged_term_d2(k, l, y, alpha):
    """d^2/dy^2 of exp(-a phi_g) cos(theta), a = pi alpha, in one pass.

    theta = 2 pi (k b2 - l b1) is the charge phase at the moving point
    b(y) = (1/4 + 1/(16 y^2), 1/2 - 1/(8 y^2)), ``lattice.special_point_b(1/2, y)``.
    With m = 2k + l, phi_g' = l^2 - m^2/(4 y^2), phi_g'' = m^2/(2 y^3),
    theta' = pi m/(4 y^3) and theta'' = -3 theta'/y, so the derivative is

        exp(-a phi_g) [(a^2 phi_g'^2 - a phi_g'' - theta'^2) cos theta
                       + (2 a phi_g' + 3/y) theta' sin theta].
    """
    y = np.asarray(y, dtype=float)
    a = math.pi * alpha
    m = 2 * k + l
    y2 = y * y
    f1 = l * l - m * m / (4.0 * y2)
    f2 = m * m / (2.0 * y ** 3)
    t1 = math.pi * m / 4.0 / y ** 3
    b1, b2 = _point_b(0.5, y)
    theta = TWO_PI * (k * b2 - l * b1)
    return np.exp(-a * phi_g(k, l, y)) * (
        (a * a * f1 * f1 - a * f2 - t1 * t1) * np.cos(theta)
        + (2.0 * a * f1 + 3.0 / y) * t1 * np.sin(theta)
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
    """Q1 >= u and Q1 >= u (k^2+l^2), plus the outside-box thresholds, on the
    box |k|, |l| <= 30.  It holds every pair that could break either
    inequality or undercut either minimum: with r^2 = k^2 + l^2,
    Q1 = (2/sqrt 3)(k^2 + k l + l^2 + k + l + 1/3) >= (2/sqrt 3)(r^2/2 -
    sqrt(2) r + 1/3), which exceeds u r^2 for r > 8.25 and 146/(3 sqrt 3)
    for r > 8.5.  The minima 14/(3 sqrt 3) and 146/(3 sqrt 3) are 7u and 73u."""
    box_radius = 30
    k, l = _box(box_radius)
    v = q1(k, l)
    margin = min(np.min(v - Q1_UNIT + 1e-9), np.min(v - Q1_UNIT * (k * k + l * l) + 1e-9))
    cheb = np.maximum(np.abs(k), np.abs(l))
    for limit, mult in ((1, 14), (5, 146)):
        margin = min(margin, 1e-9 - abs(v[cheb > limit].min() - mult / (3.0 * SQRT3)))
    return LemmaReport(
        "q1_growth",
        f"box radius {box_radius}; outside-box minima 7u and 73u",
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
    c = _phi_f_c(k, l)
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


def _phi_f_peaks(k, l, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """max |phi_f'| and max |phi_f''| over y in [lo, hi], 0 < lo <= hi, at
    each pair of the flat index arrays k, l.  With w = 1/y^2, 64 phi_f' =
    16 (2l+1)^2 - 8 c w - 3 w^2 is concave in w, so |phi_f'| peaks at an end of
    the window or at w = -4c/3.  With v = 1/y, 16 phi_f'' = 4 c v^3 + 3 v^5
    has v-derivative 3 v^2 (4c + 5 v^2), so |phi_f''| peaks at an end or at
    v^2 = -4c/5.  A critical point outside the window, or none (c >= 0), is
    clipped onto an end."""
    c = _phi_f_c(k, l)
    ends = np.full((2, c.size), [[lo], [hi]])
    # the critical 1/y^2 of phi_f' and of phi_f'' as y, floored at 1/hi^2
    d1_y, d2_y = np.clip(1.0 / np.sqrt(np.maximum(-4.0 * c / [[3.0], [5.0]], hi**-2)), lo, hi)
    return (
        np.abs(phi_f_d1(k, l, np.vstack([ends, d1_y]))).max(axis=0),
        np.abs(phi_f_d2(k, l, np.vstack([ends, d2_y]))).max(axis=0),
    )


def check_derivative_bounds() -> LemmaReport:
    """|phi_f'| <= 2 Q1 and |phi_f''| <= 3 Q1 for y in [sqrt3/2, 10], at the
    points where each side's |derivative| peaks (``_phi_f_peaks``).  Both
    sides depend on (k, l) through m^2 and l only, so one column of each
    class of ``_column_classes`` gives the box's minimum."""
    lo, hi, k_max = Y_HEX, 10.0, 20
    k, l = _column_classes(k_max)
    qq = q1(k, l)
    first, second = _phi_f_peaks(k, l, lo, hi)
    margin = min(np.min(2.0 * qq - first), np.min(3.0 * qq - second))
    return LemmaReport("derivative_bounds", f"|k|,|l| <= {k_max}, y in [sqrt3/2, 10]", margin)


def check_growth11_composite() -> LemmaReport:
    """|d^2/dy^2 exp(-pi a phi_f)| <= 5 pi^2 a^2 Q1^2 exp(-pi a sqrt(Q1)/2)
    for y in [sqrt3/2, 8], on the whole window.  With p = pi a the left side
    is |p^2 phi_f'^2 - p phi_f''| exp(-p phi_f), at most
    (p^2 M1^2 + p M2) exp(-p m), where M1 and M2 are the peaks of |phi_f'|
    and |phi_f''| on the window (``_phi_f_peaks``) and m = ``min_phi_f``,
    the minimum over y >= sqrt3/2, which is at most the window's; this
    holds up to float rounding.  exp(-p m) is clipped at e^``_EXP_FLOOR``, which can only raise the
    bound.  Both sides depend on (k, l) through m^2 and l only, so one
    column of each class of ``_column_classes`` gives the box's minimum."""
    alphas, k_max = (5.0, 10.0), 15
    k, l = _column_classes(k_max)
    qq = q1(k, l)
    peak1, peak2 = _phi_f_peaks(k, l, Y_HEX, 8.0)
    low = min_phi_f(k, l)
    margin = math.inf
    for alpha in alphas:
        p = math.pi * alpha
        lhs = (p * p * peak1 * peak1 + p * peak2) * _clipped_exp(p * low)
        bound = 5.0 * math.pi**2 * alpha**2 * qq * qq * np.exp(-0.5 * p * np.sqrt(qq))
        margin = min(margin, np.min((bound - lhs) / bound))
    return LemmaReport(
        "growth11",
        f"alphas {alphas}, |k|,|l| <= {k_max}, y in [sqrt3/2, 8], relative slack",
        margin,
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


def check_nine_term_concavity() -> LemmaReport:
    """Nine-term concavity with constant -2.5; the six extra terms are tiny."""
    alphas = (6.0, 10.0)
    # the nine terms |k|, |l| <= 1 as rows, added one after another in k-major order
    k, l = _box(1)
    margin = math.inf
    for alpha in alphas:
        ys = _concavity_window(alpha)
        scale = alpha * math.exp(-TWO_PI * alpha / (3.0 * SQRT3))
        nine = shifted_term_d2(k[:, None], l[:, None], ys, alpha).sum(axis=0)
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
    k, l = _box(1)
    margin = math.inf
    for alpha in alphas:
        scale = math.pi**2 * alpha**2 * np.exp(math.pi * alpha * (ys - 2.0))
        ratio = charged_term_d2(k[:, None], l[:, None], ys, alpha).sum(axis=0) / scale
        margin = min(margin, -0.6 - float(np.max(ratio)))
    return LemmaReport(
        "charged_nine_term", f"alphas {alphas}, y in [sqrt3/2, 1]", margin
    )


def _charged_ball(ys: np.ndarray, alpha: float):
    """Index pairs (k, l) != 0 of the ball that ``charged_sum_d2`` sums on the
    window [min ys, max ys], and a bound on the sum of |charged_term_d2| over
    the pairs left out, at every y of the window.

    phi_g(k, l, y) = ((k + l/2)^2 + y^2 l^2) / y is rho = |p|^2 for the point
    p of (k, l) on lattice_from_tau(1/2, y), of covolume 1.  In the terms of
    ``charged_term_d2``, the bracket is at most a^2 phi_g'^2 + a phi_g''
    + 2 a |phi_g'| |theta'| + theta'^2 + |theta''|.  Both parts of phi_g' lie
    in [0, rho/y] and phi_g'' = 2 (k + l/2)^2 / y^3, so |phi_g'| <= rho/y,
    phi_g'' <= 2 rho/y^2 and |m| <= 2 sqrt(y rho).  Then
    |theta'| <= pi sqrt(rho) / (2 y^(5/2)), so theta'^2 <= pi^2 rho / (4 y^5)
    and |theta''| = 3 |theta'| / y <= 3 pi sqrt(rho) / (2 y^(7/2)).  With
    rho^(1/2), rho, rho^(3/2), rho^2 <= (1 + rho)^2 each term is at most
    A (1 + rho)^2 exp(-pi alpha rho), where

        A = pi^2 alpha^2 / y^2 + 2 pi alpha / y^2 + pi^2 alpha / y^(7/2)
            + pi^2 / (4 y^5) + 3 pi / (2 y^(7/2))

    falls in y, so it is taken at the smallest y.  (1 + rho)^2 exp(-c rho),
    c = pi alpha / 2, peaks at 1 + rho = 2/c, so it is at most
    M = (2/c)^2 exp(c - 2) for c < 2 and M = 1 for c >= 2 (alpha >= 4/pi).
    Each term is thus at most A M exp(-pi (alpha/2) rho).  On the window
    [y0, y1], rho >= psi(k, l) = (k + l/2)^2 / y1 + y0 l^2, the squared
    length of (k, l) on the generator [[y1^(-1/2), y1^(-1/2)/2], [0, y0^(1/2)]],
    so ``theta._ball`` of the node (alpha/2, A M) on that generator keeps
    the pairs with psi <= R^2 and bounds the others by its tail, at every y
    of the window.  The (0, 0) term is exactly 0 and is dropped.
    """
    y0, y1 = float(np.min(ys)), float(np.max(ys))
    pa = math.pi * alpha
    amp = (pa * pa + 2.0 * pa) / y0**2 + (math.pi * pa + 1.5 * math.pi) / y0**3.5 + (
        math.pi**2 / (4.0 * y0**5)
    )
    c = 0.5 * pa
    peak = 1.0 if c >= 2.0 else (2.0 / c) ** 2 * math.exp(c - 2.0)
    a = 1.0 / math.sqrt(y1)
    side = _side(a, 0.5 * a, 0.0, math.sqrt(y0), (0.5, y0))
    k, l, inside, _, _, tail, _ = _ball(side, (0.0, 0.0), ((0.5 * alpha, amp * peak),), 1e-16)
    k, l = np.meshgrid(k, l, indexing="ij")
    keep = inside & ((k != 0) | (l != 0))
    return k[keep], l[keep], tail


def charged_sum_d2(y: np.ndarray, alpha: float) -> tuple[np.ndarray, float]:
    """Closed-form second y-derivative of the full charged profile g_alpha,
    summed over the ball of ``_charged_ball``, and that ball's tail: the
    terms left out add up to less than it, below 1e-16."""
    ys = np.asarray(y, dtype=float)
    k, l, tail = _charged_ball(ys, alpha)
    sums = charged_term_d2(k, l, ys.reshape(-1, 1), alpha).sum(axis=1).reshape(ys.shape)
    return sums, tail


def check_charged_concavity_small_alpha() -> LemmaReport:
    """g_alpha'' stays below -1e-5 for moderate alpha near the hexagonal point:
    the sampled maximum of the ball sum plus the ball's tail."""
    alphas = (2.0, 3.5, 5.0)
    ys = np.linspace(Y_HEX, 1.5, 120)
    worst = -math.inf
    for alpha in alphas:
        sums, tail = charged_sum_d2(ys, alpha)
        worst = max(worst, float(np.max(sums)) + tail)
    margin = (-1e-5 - worst) * 1e5
    return LemmaReport(
        "charged_concavity_small_alpha",
        f"alphas {alphas}, y in [sqrt3/2, 1.5], bound -1e-5 (x1e5)",
        margin,
    )


# ---------------------------------------------------------------------------
# Heat kernel on the circle and the l = 0 subsum
# ---------------------------------------------------------------------------

def _heat_uxx_scaled(t, x) -> tuple[np.ndarray, np.ndarray]:
    """u_xx / (-8 pi^2 e^(-4 pi^2 t)), positive where u is concave, at t and x
    broadcast together, and its error bound: u(t, x) = theta_hat(x; 4 pi t)."""
    big_t = 4.0 * math.pi * np.asarray(t, dtype=float)
    uxx, tail = _theta1d(x, big_t, 2)
    scale = 8.0 * math.pi**2 * np.exp(-math.pi * big_t)
    scaled = uxx / -scale
    return scaled, tail / scale + 4.0 * _EPS * np.abs(scaled)


def _heat_inflection_points(ts: np.ndarray) -> np.ndarray:
    """The zero of u_xx in (0, 1/2), located by bisection to width 1e-10, at
    each t of a 1-D array: u_xx has the sign of theta_hat''(x; 4 pi t).  Each
    kernel call takes two bisection steps: it evaluates the midpoint and both
    midpoints the next step may take, 0.5 (lo + mid) and 0.5 (mid + hi), the
    same floats that step computes.  Each t keeps its own bracket, whose
    width differs from the others' by rounding only, far from the stop at
    1e-10: every t takes the steps of its one-element bisection."""
    big_t = 4.0 * math.pi * ts
    lo, hi = np.full(ts.shape, 1e-9), np.full(ts.shape, 0.5 - 1e-12)
    ends = _theta1d(np.stack([lo, hi]), big_t, 2)[0]
    bad = (ends[0] >= 0.0) | (ends[1] <= 0.0)
    if bad.any():
        raise ValueError(f"no sign change bracket at t={ts[bad][0]}")
    big_t3 = np.concatenate([big_t] * 3)
    while (hi - lo > 1e-10).any():
        mid = 0.5 * (lo + hi)
        xs = np.concatenate([mid, 0.5 * (lo + mid), 0.5 * (mid + hi)])
        concave = (_theta1d(xs, big_t3, 2, bound=False)[0] < 0.0).reshape(3, -1)
        for c in (concave[0], np.where(concave[0], concave[2], concave[1])):
            if not (hi - lo > 1e-10).any():
                break
            mid = 0.5 * (lo + hi)
            lo, hi = np.where(c, mid, lo), np.where(c, hi, mid)
    return 0.5 * (lo + hi)


def check_heat_inflection() -> LemmaReport:
    """All inflection points lie below 0.3; convexity holds on [0.3, 0.7].

    The convexity samples sum u_xx on the Jacobi side, whose terms do not
    cancel: the sampled -u_xx is positive at every t, least (1.05e-23,
    scaled) at t = 0.001, x = 1/2 - 1e-12.  Until the window is enclosed, the
    margin keeps a noise grace of 100 eps of the cosine series' size: at
    t = 0.00147 it is that grace plus -u_xx at x = 1/2, 1.8226e-15.
    """
    ts = np.logspace(-3, 1, 25)
    roots = _heat_inflection_points(ts)
    margin = 0.3 - float(roots.max())
    # column 0, x = 0, is the cosine series' size sum_k k^2 e^(-4 pi^2 (k^2 - 1) t)
    scaled = _heat_uxx_scaled(ts[:, None], np.append(0.0, np.linspace(0.3, 0.5, 60)))[0]
    noise = 100.0 * _EPS * scaled[:, 0]
    margin = min(margin, float(np.min(noise - scaled[:, 1:].max(axis=1))))
    # the root wanders monotonically from ~sqrt(2t) toward 1/4; at large t
    # the increments fall below the bisection resolution, hence the grace
    diffs = np.diff(roots)
    margin = min(margin, float(np.min(diffs)) + 1e-8)
    return LemmaReport(
        "heat_inflection", f"{len(ts)} log-spaced t in [{ts[0]:.3g}, {ts[-1]:.3g}]", margin
    )


def g_profile(alpha: float, y: float) -> float:
    """The l = 0 subsum of the charged profile, a circle heat kernel: the hat
    series at (b2(y), alpha / y), also on arrays broadcast together, in one
    kernel call."""
    y = np.asarray(y, dtype=float)
    return _theta1d(_point_b(0.5, y)[1], alpha / y)[0][()]


def check_G_monotone() -> LemmaReport:
    """The l = 0 subsum decreases in y; quantified decrement for alpha >= 1."""
    alphas = (0.5, 1.0, 4.0)
    ys = np.linspace(Y_HEX, 3.0, 120)
    grid = g_profile(np.array(alphas)[:, None], ys)
    # the decrements' far ends y_hex + 1/(4 sqrt(alpha)) at 1 and 4, and y = 50 at 1
    far = g_profile(np.array([1.0, 4.0, 1.0]), np.array([Y_HEX + 0.25, Y_HEX + 0.125, 50.0]))
    margin = math.inf
    for alpha, vals in zip(alphas, grid):
        scale = math.exp(-TWO_PI * alpha / SQRT3)
        margin = min(margin, float(np.min(-np.diff(vals))) / scale)
    for alpha, start, end in zip((1.0, 4.0), grid[1:, 0], far):
        required = (2.0 * math.sqrt(alpha) / 3.0) * math.exp(-TWO_PI * alpha / SQRT3)
        margin = min(margin, (start - end - required) / required)
    if abs(far[2]) > 1e-10:
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
    """A(t) <= Q(beta; t) <= B(t) on a (beta, t) grid in one kernel call, each
    side's margin net of Q's certified tail."""
    betas = np.linspace(0.0, 0.5, 50)
    tvals = np.logspace(math.log10(0.25), math.log10(4.0), 9)
    q, tail = _theta1d(betas, tvals[:, None], 1)
    lo, hi = (np.array([[f(t)] for t in tvals.tolist()]) for f in (montgomery_A, montgomery_B))
    margin = min(float(np.min((q - tail - lo) / hi)), float(np.min((hi - q - tail) / hi)))
    return LemmaReport(
        "montgomery_sandwich", f"{len(betas)} beta x {len(tvals)} t grid, relative", margin
    )


class _LevelFamily:
    """exp(c a s(Q)), Q = q_of(level), at the distinct values of a
    non-negative integer level array, sorted so that s rises.  A table holds
    the levels whose exponent is not below ``_EXP_FLOOR`` at the smallest
    alpha asked; one that falls below it at a larger alpha is clipped there,
    which overstates its term by less than its weight times e^-700, and no
    exp takes its slow path near underflow.  Every sum of the family gathers
    its own columns of one table, and the family keeps its last table: the
    sums called in turn on one block of alphas build it once."""

    def __init__(self, c, level, q_of=np.float64, s_of=np.sqrt):
        self.c, self.q_of = c, q_of
        self.levels = np.flatnonzero(np.bincount(level))
        self.s = s_of(q_of(self.levels))
        self._last_table = functools.lru_cache(maxsize=1)(self._exp)

    def table(self, a):
        """The read-only table at a float or a 1-D array of alphas, kept by
        their bytes, so that equal alphas share it and no other can."""
        a = np.asarray(a, dtype=float)
        return self._last_table(a.tobytes(), a.shape)

    def _exp(self, key, shape):
        a = np.frombuffer(key).reshape(shape)
        n = np.searchsorted(self.s, _EXP_FLOOR / (self.c * np.min(a)), side="right")
        x = np.multiply.outer(self.c * a, self.s[:n])
        np.exp(np.maximum(x, _EXP_FLOOR, out=x), out=x)
        x.flags.writeable = False
        return x

    def sum(self, level, power=0):
        """a -> the sum of Q^power exp(c a s(Q)) over the terms of the given
        levels, as one column per distinct level weighted by its count."""
        count = np.bincount(level)
        lev = np.flatnonzero(count > 0)
        cols = np.searchsorted(self.levels, lev)
        w = count[lev] * self.q_of(lev) ** power
        # consecutive columns are read as a view of the table, not copied
        run = cols[-1] - cols[0] + 1 == len(cols)

        def total(a):
            table = self.table(a)
            n = np.searchsorted(cols, table.shape[-1])
            if run:
                return table[..., cols[0] : cols[0] + n] @ w[:n]
            return np.take(table, cols[:n], axis=-1) @ w[:n]

        return total


def _threshold_table() -> dict:
    """Tail-sum threshold inequalities: id -> (stated alpha0, usage floor,
    lhs(a), rhs(a)), where lhs and rhs take a float or a 1-D array of alphas.
    Each lhs is a masked sum over |k|, |l| <= 40 whose terms depend on an
    integer level only: n2 = k^2 + l^2, q2 = k^2 + k l + l^2, or
    n = q2 + k + l, for which Q1 = (2/sqrt 3)(n + 1/3).  The sum is kept as
    one term per distinct level, weighted by the level's count.  far_q1,
    nondominant_q1 and composite_q1 take their exponentials from one Q1
    family, charged_far and charged_composite's charged part from one q2
    family: see ``_LevelFamily``."""
    pi = math.pi
    k, l = _box(40)
    cheb = np.maximum(np.abs(k), np.abs(l))
    n2 = k * k + l * l
    q2_level = k * k + k * l + l * l
    q1_level = q2_level + k + l
    ks = np.arange(40)

    def q1_of(n):
        return (2.0 / SQRT3) * (n + 1.0 / 3.0)

    def dominant(a):
        return np.exp(-TWO_PI * a / (3 * SQRT3))

    q1_family = _LevelFamily(-0.5 * pi, q1_level, q1_of)
    q2_family = _LevelFamily(-pi, q2_level)
    composite = q1_family.sum(q1_level[cheb > 1], power=2)
    charged = q2_family.sum(q2_level[(l != 0) & (cheb > 1)], power=2)
    # sum over 2 <= k < 40 of k^4 exp(-pi a k^2)
    quartic = _LevelFamily(-pi, ks, s_of=np.square).sum(ks[ks >= 2], power=4)
    return {
        "square_tail": (
            0.5, 0.5, _LevelFamily(-pi, n2, s_of=np.positive).sum(n2[n2 >= 2]),
            lambda a: np.exp(-pi * a),
        ),
        "far_q1": (1.0, 1.0, q1_family.sum(q1_level[cheb > 5]), lambda a: dominant(a) / 200.0),
        # Q1 >= 4u, i.e. n >= 1
        "nondominant_q1": (
            0.7, 6.0, q1_family.sum(q1_level[q1_level >= 1]), lambda a: 0.3 * dominant(a)
        ),
        "composite_q1": (
            6.0, 6.0, lambda a: 5.0 * pi**2 * a**2 * composite(a), lambda a: 2.5 * a * dominant(a)
        ),
        "charged_far": (
            1.3, 1.5, q2_family.sum(q2_level[(l != 0) & (q2_level > 1)]),
            lambda a: (2.0 * np.sqrt(a) / 3.0) * np.exp(-TWO_PI * a / SQRT3),
        ),
        "charged_composite": (
            1.1, 5.0,
            lambda a: 40.0 * a * a * quartic(a) + 3.0 * pi**2 * a**2 * charged(a),
            lambda a: 0.6 * pi**2 * a**2 * np.exp(pi * a * (Y_HEX - 2.0)),
        ),
    }


_THRESHOLDS = _threshold_table()

# the alpha grid 0.05, 0.10, ..., 10 of the threshold scan
_ALPHA_SCAN = np.arange(0.05, 10.0 + 0.05, 0.05)


def _scan_values() -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """id -> lhs and rhs on ``_ALPHA_SCAN`` of every threshold inequality,
    evaluated in blocks of 8 alphas: a table of the 1331 distinct Q1 levels
    is then an (8, 1331) array of 83 KiB, below glibc's default 128 KiB mmap
    and trim thresholds, so repeated scans reuse heap pages instead of
    faulting in fresh ones.  Each block runs every id before the next block, so
    each level family builds its table once per block and its sums share it.
    A sum takes from it the elements its own table would hold, the same
    products of the same floats, in an array of the same shape for the same
    product with its weights: the values equal those of one id's own scan
    bit for bit."""
    scans = {name: ([], []) for name in _THRESHOLDS}
    for i in range(0, len(_ALPHA_SCAN), 8):
        a = _ALPHA_SCAN[i : i + 8]
        for name, (lhs_blocks, rhs_blocks) in scans.items():
            _, _, lhs, rhs = _THRESHOLDS[name]
            lhs_blocks.append(lhs(a))
            rhs_blocks.append(rhs(a))
    return {name: (np.concatenate(lhs), np.concatenate(rhs)) for name, (lhs, rhs) in scans.items()}


def _first_holding(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """Smallest alpha of the scan from which lhs < rhs holds onward, inf if it
    fails at the scan's end."""
    holds = lhs < rhs
    if not holds[-1]:
        return math.inf
    last_fail = np.flatnonzero(~holds)
    if len(last_fail) == 0:
        return float(_ALPHA_SCAN[0])
    return float(_ALPHA_SCAN[last_fail[-1] + 1])


def check_alpha_thresholds() -> LemmaReport:
    """Tail-sum threshold inequalities verified above their thresholds.

    Each inequality is checked at the larger of its quoted approximate
    threshold (rounded up to one decimal) and the scanned empirical one,
    and again at twice that value; the scan results are reported.  One that
    still fails at the scan's end, empirical inf, is checked at alpha 10,
    where it fails.
    """
    margin = math.inf
    notes = []
    scans = _scan_values()
    for name, (stated, usage, lhs, rhs) in _THRESHOLDS.items():
        emp = _first_holding(*scans[name])
        emp_up = math.ceil(emp * 10.0) / 10.0 if emp < math.inf else 10.0
        a_check = max(stated, usage, emp_up)
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
