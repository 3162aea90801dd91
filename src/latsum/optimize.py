"""Global minimization of lattice Gaussian sums over the torus, and sweeps.

The minimizer runs a coarse grid scan of the half cell in lattice
coordinates (every function minimized here is even), one evaluation on
the product grid's two axes, then polishes one of the lowest cells per
basin of the scan, up to z -> -z, by saddle-free Newton steps on the
series' own gradient and Hessian, term by term differentiated.  Between
the scan and the polish the few numbers that pick and scale the starts
are Python floats and ints: one partition finds the lowest cells, and
numpy runs only on the scan's and the batches' arrays.  The 2x2
saddle-free step has a closed form (eigenvalues m +- hypot(d, b),
eigenvector angle atan2(b, d)/2), so the polish works on Python floats
per start and its only numpy work is one derivative batch per iteration:
a few matrix products over the index pairs and tables the evaluator
builds once, 8-12 us on the dual side and 17-22 us on the lattice side for
1-5 rows of 7-52 terms (2-core x86-64 VM).  The best start is picked by
the values that batch last gave.  The sweep evaluates the minimum across
a family of lattice shapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .lattice import Lattice, PhasePoint, _wrap_unit, lattice_from_tau
from .theta import DEFAULT_POLICY, CertifiedValue, ShiftedSumEvaluator, TruncationPolicy

_NEWTON_ITERATIONS = 60  # cap on the Newton loop
_N_STARTS = 5  # lowest grid points each torus minimization picks its starts from
_EIG_FLOOR = 1e-12  # smallest |Hessian eigenvalue| kept, relative to the largest
_TINY = float(np.finfo(float).tiny)  # added to that floor, keeping it positive at H = 0
_ROUNDING = 64.0 * float(np.finfo(float).eps)  # decrement at which a start stops, per unit value


@dataclass(frozen=True)
class MinResult:
    """A torus minimum: its argmin in lattice coordinates, the certified
    value there, the scan grid size and the number of Newton iterations
    (``refinement_steps``) of the polish that located it."""

    argmin: PhasePoint
    value: CertifiedValue
    grid_resolution: int
    refinement_steps: int


def _saddle_free_step(
    g0: float, g1: float, a: float, b: float, c: float
) -> tuple[float, float, float]:
    """The saddle-free Newton step -|H|^-1 g for the gradient (g0, g1) and the
    symmetric Hessian H = [[a, b], [b, c]], and its Newton decrement g^T |H|^-1 g.

    |H| has H's eigenvectors and the absolute values of its eigenvalues,
    floored at ``_EIG_FLOOR`` times the largest (plus ``tiny``).  In closed
    form: with m = (a + c)/2, d = (a - c)/2, r = hypot(d, b) and
    theta = atan2(b, d)/2, so that d = r cos 2 theta and b = r sin 2 theta,
    H = m I + r [[cos 2 theta, sin 2 theta], [sin 2 theta, -cos 2 theta]]
    has the eigenvalues m + r and m - r on the eigenvectors
    (cos theta, sin theta) and (-sin theta, cos theta).
    """
    m, d = 0.5 * (a + c), 0.5 * (a - c)
    r = math.hypot(d, b)
    theta = 0.5 * math.atan2(b, d)
    cs, sn = math.cos(theta), math.sin(theta)
    lam1, lam2 = abs(m + r), abs(m - r)
    floor = _EIG_FLOOR * max(lam1, lam2) + _TINY
    lam1, lam2 = max(lam1, floor), max(lam2, floor)
    # g in the eigenbasis, and its coordinates divided by |lambda|
    q1, q2 = cs * g0 + sn * g1, cs * g1 - sn * g0
    p1, p2 = q1 / lam1, q2 / lam2
    return sn * p2 - cs * p1, -sn * p1 - cs * p2, q1 * p1 + q2 * p2


def _least_curvature(a: float, b: float, c: float) -> tuple[float, float, float]:
    """The least eigenvalue m - hypot(d, b) of [[a, b], [b, c]] and its unit
    eigenvector (-sin theta, cos theta), in ``_saddle_free_step``'s notation."""
    m, d = 0.5 * (a + c), 0.5 * (a - c)
    theta = 0.5 * math.atan2(b, d)
    return m - math.hypot(d, b), -math.sin(theta), math.cos(theta)


def _newton_polish(
    derivatives: Callable[[np.ndarray], tuple[np.ndarray, ...]],
    points: np.ndarray,
    radius: float,
    tol: float,
) -> tuple[np.ndarray, list[float], int]:
    """Saddle-free Newton on the unit torus from every row of ``points``.

    Each step is ``_saddle_free_step``: it solves with the Hessian whose
    eigenvalues are replaced by their absolute values, floored, so that it
    descends at saddles and along near-flat valleys.  The step is cut to a
    per-start trust radius, which starts at ``radius``, doubles (up to 1/2)
    after an accepted cut step and drops to half a rejected step; a step is
    accepted when it lowers the value.  A start stops after the step whose
    Newton decrement g^T |H|^-1 g is at most ``tol``, taken without a further
    evaluation, unless it sits on a saddle: where the least Hessian
    eigenvalue lambda is negative and |lambda| r^2 > ``tol`` at the trust
    radius r, it steps r along lambda's eigenvector instead, a cut step like
    any other.  Evenness zeroes the gradient at the four 2-torsion points, so
    a start on one of those saddles has nothing else to leave it by.  Each
    start keeps its own state in Python floats, so the numpy work is one
    ``derivatives`` batch per iteration over the starts still moving.
    Returns the points, the value ``derivatives`` last gave for each (at the
    point before that untested last step, which lowers it by about its
    decrement) and the number of iterations.
    """
    points = np.asarray(points, dtype=float)
    f, g, h = (x.tolist() for x in derivatives(points))
    points = points.tolist()
    radii = [radius] * len(points)
    live = list(range(len(points)))
    iterations = 0
    while live and iterations < _NEWTON_ITERATIONS:
        iterations += 1
        moves = []
        for i in live:
            (g0, g1), ((a, b), (_, c)) = g[i], h[i]
            s0, s1, decrement = _saddle_free_step(g0, g1, a, b, c)
            length = math.hypot(s0, s1)
            cut = length > radii[i]
            if cut:
                s0, s1 = s0 * (radii[i] / length), s1 * (radii[i] / length)
            if decrement <= tol:
                lam, e0, e1 = _least_curvature(a, b, c)
                if -lam * radii[i] ** 2 <= tol:  # no saddle, or too flat to leave
                    points[i] = [_wrap_unit(points[i][0] + s0), _wrap_unit(points[i][1] + s1)]
                    continue
                s0, s1, length, cut = radii[i] * e0, radii[i] * e1, radii[i], True
            trial = [_wrap_unit(points[i][0] + s0), _wrap_unit(points[i][1] + s1)]
            moves.append((i, trial, length, cut))
        if not moves:
            break
        ft, gt, ht = (x.tolist() for x in derivatives(np.array([m[1] for m in moves])))
        for (i, trial, length, cut), fi, gi, hi in zip(moves, ft, gt, ht):
            if fi < f[i]:
                points[i], f[i], g[i], h[i] = trial, fi, gi, hi
                if cut:
                    radii[i] = min(2.0 * radii[i], 0.5)
            else:
                radii[i] = 0.5 * min(length, radii[i])
        live = [m[0] for m in moves]
    return np.array(points), f, iterations


def _lowest(vals: np.ndarray, k: int) -> np.ndarray:
    """``np.argsort(vals, kind="stable")[:k]`` for NaN-free ``vals`` without
    sorting all of them: the cells not above the k-th lowest value, found by
    one partition, and only those sorted."""
    k = min(k, len(vals))
    kth = np.partition(vals, k - 1)[k - 1]
    candidates = (vals <= kth).nonzero()[0]
    return candidates[vals[candidates].argsort(kind="stable")[:k]]


def _basin_starts(cells: Sequence[int], grid_n: int, m: int) -> list[int]:
    """The cells, flat indices i m + j of an (grid_n, m) scan of an even
    function in value order, that no earlier cell is an 8-neighbour of on the
    torus, itself or mirrored, (i, j) -> (-i, -j) mod ``grid_n``: one per
    basin of the scan up to z -> -z, which maps a basin to one of equal
    depth.  Both indices wrap mod ``grid_n``; two columns j < m of one scan
    lie less than grid_n - 1 apart, so the wrap never joins them directly."""
    near = (0, 1, grid_n - 1)
    walked, starts = [], []
    for cell in cells:
        i, j = divmod(cell, m)
        if not any(
            (i - iw) % grid_n in near and (j - jw) % grid_n in near
            or (i + iw) % grid_n in near and (j + jw) % grid_n in near
            for iw, jw in walked
        ):
            starts.append(cell)
        walked.append((i, j))
    return starts


def minimize_torus(
    batch: Callable[[tuple[np.ndarray, np.ndarray]], np.ndarray],
    grid_n: int,
    derivatives: Callable[[np.ndarray], tuple[np.ndarray, ...]],
) -> tuple[np.ndarray, float, int]:
    """Minimize an even function on the unit torus: grid scan, then Newton polish.

    ``batch`` maps the axes (us, vs) of a product grid of lattice coordinates
    to the (n, m) array of values at (us[i], vs[j]), none of them NaN (an
    evaluator's scan sums finite node weights times factors its tiling keeps
    finite; a mixture's values can reach 1e5 and its dual terms are
    negative), and ``derivatives`` maps
    an (n, 2) array of points to (values, gradients (n, 2), Hessians (n, 2, 2)).
    The function must be even, f(-z) = f(z), so the scan is the one ``batch``
    call on the half cell, us = i / grid_n and vs = us up to 1/2 + 1.5/grid_n.
    Of the ``_N_STARTS`` lowest grid points (``_lowest``: the cells of a
    stable sort, by one partition), walked in value order, each one that is
    an 8-neighbour on the torus of a point already walked or of its mirror
    image -z is dropped (``_basin_starts``), since the polish would take it
    to its neighbour's minimum or that minimum's mirror; the rest are
    polished together by ``_newton_polish``, which stops each at a Newton
    decrement of rounding level, ``_ROUNDING`` times the largest |value| at
    the ``_N_STARTS`` points.  That scale is the starts' own: the largest
    value of the whole scan can exceed a deep minimum by many orders of
    magnitude (1e52 on the hexagon at alpha = 100), and a decrement relative
    to it would stop the polish at its first step.  Returns the polished
    point whose last evaluated value is lowest, that value and the Newton
    iteration count.
    """
    if grid_n < 8:
        raise ValueError("grid_n must be at least 8")
    us = np.arange(grid_n) / grid_n
    vs = us[us <= 0.5 + 1.5 / grid_n]
    m = len(vs)
    vals = batch((us, vs)).ravel()
    lowest = _lowest(vals, _N_STARTS)
    tol = _ROUNDING * max(map(abs, vals[lowest].tolist()))
    cells = _basin_starts(lowest.tolist(), grid_n, m)
    # (i, j) / grid_n is (us[i], vs[j]) bit for bit, the same rounded quotients
    starts = np.array([divmod(c, m) for c in cells]) / grid_n
    points, values, iterations = _newton_polish(derivatives, starts, 1.0 / grid_n, tol)
    # the first lowest, as np.argmin on values without NaN
    j = min(range(len(values)), key=values.__getitem__)
    return points[j], values[j], iterations


def _minimize(ev: ShiftedSumEvaluator, grid_n: int) -> MinResult:
    """The torus minimum of ``ev``'s mixture: ``minimize_torus`` on its
    centred grid values and derivatives, the argmin canonicalized and
    certified by ``ev``, its tail bound counting truncation and rounding."""
    point, _, iters = minimize_torus(
        lambda axes: ev._grid_centered(*axes), grid_n, ev.derivatives_centered
    )
    argmin = PhasePoint(float(point[0]), float(point[1])).canonical()
    return MinResult(argmin, ev.certified_at(argmin), grid_n, iters)


def minimize_over_cell(
    lattice: Lattice,
    alpha: float,
    grid_n: int = 64,
    pol: TruncationPolicy = DEFAULT_POLICY,
) -> MinResult:
    """Global minimum of E(.; alpha) over one torus cell.

    The search runs in lattice coordinates on [0, 1)^2 through
    ``minimize_torus``; the central symmetry E(-z) = E(z) halves the
    scanned cell for every shape.  The minimum is certified by the
    evaluator that found it; its tail bound counts truncation and rounding.
    Where the minimum lies in a flat valley, only its value is reproducible,
    not its argmin: rounding-level changes of the polish moved it 1.4e-5 on
    (0.5, 2.2549) at alpha 0.5 and 4.3e-4 on (0.275, 2.4183) at alpha 8 and
    grid 32, each time at values within their tails of each other.  On
    x = 1/2 the line v = 1/2 is such a valley at alpha 0.25 for y in
    [1.36, 1.68] and at alpha 0.5 for y in [2.01, 2.5]: polishing one start
    per scan basin instead of five moved the argmin along it by up to 0.13
    in u ((0.5, 1.6830) at alpha 0.25), the value by at most one unit in
    its last digit.

    The maximum needs no search.  By Poisson summation every positive
    mixture sum_j w_j E(z; alpha_j) is sum_k g(k) cos(2 pi k.z) over the
    dual lattice with every g(k) > 0, so it is at most sum_k g(k), its value
    at z = 0 (Montgomery, 1988): the maximum is the same evaluator's
    ``certified_at(PhasePoint(0, 0))``.
    """
    return _minimize(ShiftedSumEvaluator(lattice, ((alpha, 1.0),), pol), grid_n)


def sweep_fundamental_domain(
    alphas: Sequence[float],
    xs: Sequence[float],
    ys: Sequence[float],
    grid_n: int = 32,
    pol: TruncationPolicy = DEFAULT_POLICY,
) -> list[tuple[tuple[float, float, float], MinResult]]:
    """The torus minimum of every (x, y, alpha), keyed by that triple and
    ordered x, then y, then alpha; repeated values give repeated entries.

    Every (x, y) with y > 0 is swept, inside the fundamental domain or not;
    y <= 0 raises ``NonPositiveY``.
    """
    records = []
    for x in sorted(xs):
        for y in sorted(ys):
            lattice = lattice_from_tau(x, y)
            for alpha in sorted(alphas):
                records.append(((x, y, alpha), minimize_over_cell(lattice, alpha, grid_n, pol)))
    return records
