"""Pointwise Gaussian sums against 40-digit mpmath references.

Each reference is summed term by term over the tau lattice of the shape
(x, y), independently of the balls and routes of ``latsum.theta``; the
charged family's is the shifted one through the functional equation.  A
computed value must lie within its certified ``tail_bound`` of the
reference, which carries truncation and rounding.  The 1D kernel's
theta_hat and theta_hat'' and the ratio ``montgomery_Q`` are held to
40-digit sums of the side of the Jacobi identity that does not cancel,
within their tails, which also carry the rounding.
Hypothesis properties then hold E(z; alpha) to its own symmetries,
periodicity and evenness, and to the batch evaluator, on shapes with y up
to 1e3 and alpha in [1e-3, 1e3], each comparison within the summed tails.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latsum.applications import heat_kernel_torus
from latsum.lattice import PhasePoint, lattice_from_generator, lattice_from_tau
from latsum.theta import (
    DEFAULT_POLICY,
    ShiftedSumEvaluator,
    TruncationPolicy,
    _plan,
    _sum_at,
    _tau_plan,
    _theta1d,
    lattice_gaussian_sum,
    montgomery_Q,
    theta1d_hat,
    theta_charged,
    theta_shifted,
)

Y_HEX = math.sqrt(3.0) / 2.0
# terms with pi alpha Q above this are left out of a reference; together they
# are below 1e-44 for every shape and alpha here
CUTOFF = 110


def reference(x, y, alpha, shift=(0.0, 0.0)):
    """E((u, v); alpha) = sum over (k, l) of exp(-pi alpha Q(k + u, l + v)) to
    40 digits, with Q(s, w) = ((s + x w)^2 + y^2 w^2) / y the squared length of
    gen (s, w) on ``lattice_from_tau(x, y)`` and (u, v) the shift.  Its terms
    are positive, so it has no cancellation floor."""
    with mpmath.workdps(40):
        x, y, alpha = mpmath.mpf(x), mpmath.mpf(y), mpmath.mpf(alpha)
        u, v = (mpmath.mpf(c) for c in shift)
        r2 = CUTOFF / (mpmath.pi * alpha)  # Q <= r2 on every kept term
        rate = mpmath.pi * alpha / y
        total = mpmath.mpf(0)
        reach = mpmath.sqrt(r2 / y)
        for l in range(int(mpmath.floor(-v - reach)), int(mpmath.ceil(-v + reach)) + 1):
            w = l + v
            room = y * r2 - (y * w) ** 2
            if room < 0:
                continue
            mid, half = -u - x * w, mpmath.sqrt(room)
            # exp(-pi alpha Q) = exp(-rate (y w)^2) exp(-rate s^2), s = k + u + x w
            row, offset = mpmath.exp(-rate * (y * w) ** 2), u + x * w
            part = mpmath.mpf(0)
            for k in range(int(mpmath.floor(mid - half)), int(mpmath.ceil(mid + half)) + 1):
                s = k + offset
                part += mpmath.exp(-rate * s * s)
            total += row * part
        return float(total)


def _cases():
    """Seeded (x, y, alpha, point, tol, scale) cases: y up to 50, alpha in
    [0.05, 20] with both ends, a third of the points within 1e-6 of a lattice
    point, and one lattice of covolume 9 (scale 3); then fixed ones with y up
    to 1e3 and alpha 1e-2 and 1e2."""
    rng = np.random.default_rng(20261018)
    cases = []
    for i in range(12):
        x = float(rng.uniform(0.0, 0.5))
        y = float(math.exp(rng.uniform(math.log(Y_HEX), math.log(50.0))))
        alpha = float(math.exp(rng.uniform(math.log(0.05), math.log(20.0))))
        if i % 3 == 0:
            point = rng.integers(0, 2, 2) + rng.uniform(-1e-6, 1e-6, 2)
        else:
            point = rng.random(2)
        tol = float(10.0 ** rng.uniform(-14, -6))
        cases.append((x, y, alpha, tuple(float(c) for c in point), tol, 1.0))
    cases += [
        (0.31, 50.0, 0.05, (0.4, 0.7), 1e-12, 1.0),
        (0.07, 50.0, 20.0, (1.0 - 3e-7, 2e-7), 1e-12, 1.0),
        (0.5, Y_HEX, 20.0, (1 / 3, 1 / 3), 1e-13, 1.0),
        (0.5, Y_HEX, 0.05, (5e-7, -8e-7), 1e-12, 1.0),
        (0.2, 1.3, 0.4, (0.3, 0.1), 1e-12, 3.0),
        # y up to 1e3 at alpha 1e-2 and 1e2; the first four points sit near
        # the line v = 0, where the shifted sum at alpha 1e2 stays in the
        # float range.  The last one does not: its charged sum at 1e-2,
        # E(b; 1/alpha) / alpha, is below the float range, while the terms
        # of the charged series are of order 1 and cancel, so a 40-digit sum
        # of that series would return its own rounding, ~1e-38
        (0.27, 200.0, 1e-2, (0.4, 0.02), 1e-10, 1.0),
        (0.13, 1e3, 1e-2, (0.62, 0.995), 1e-10, 1.0),
        (0.45, 200.0, 1e2, (0.3, 0.01), 1e-12, 1.0),
        (0.09, 1e3, 1e2, (0.85, 0.996), 1e-12, 1.0),
        (0.27, 200.0, 1e-2, (0.4, 0.7), 1e-10, 1.0),
    ]
    return cases


CASES = _cases()


def _assert_within(cv, ref):
    assert abs(cv.value - ref) <= cv.tail_bound


@pytest.mark.parametrize("x, y, alpha, point, tol, scale", CASES)
def test_pointwise_sums_match_reference(x, y, alpha, point, tol, scale):
    pol = TruncationPolicy(tol)
    lattice = lattice_from_generator(scale * lattice_from_tau(x, y).gen)
    p = PhasePoint(*point)
    # on the scaled lattice |scale gen w|^2 = scale^2 |gen w|^2
    gaussian = reference(x, y, alpha * scale**2, shift=point)
    for fe in (None, True, False):
        _assert_within(lattice_gaussian_sum(lattice, p, alpha, pol, fe), gaussian)
    # the two families live on the unit-covolume lattice of the shape
    shifted = gaussian if scale == 1.0 else reference(x, y, alpha, shift=point)
    _assert_within(theta_shifted(lattice, p, alpha, pol), shifted)
    # the charged sum through the functional equation, charged(b; alpha) =
    # shifted(b; 1/alpha) / alpha; on the dual side of its node the charged
    # series itself is summed, so that comparison is with an independent
    # 40-digit sum
    charged = reference(x, y, 1.0 / alpha, shift=point) / alpha
    _assert_within(theta_charged(lattice, p, alpha, pol), charged)
    nodes = ((1.0 / alpha, 1.0 / alpha),)
    for dual in (True, False):
        _assert_within(_sum_at(_tau_plan(lattice), p, nodes, pol, dual), charged)
    t = 1.0 / (4.0 * math.pi * alpha)
    for route in ("gaussian", "spectral"):
        _assert_within(heat_kernel_torus(lattice, p, t, pol, route), alpha * gaussian)


@pytest.mark.parametrize("y", [20.0, 50.0])
def test_elongated_shapes_converge_at_tight_tolerance(y):
    """On (0.1, y) the Gram form's condition number is ~ y^2, but its
    absolute parts stay within (1 + 0.1/y) / (1 - 0.1/y) times it, so the
    rounding of the exponents leaves room for tol 1e-12."""
    cv = lattice_gaussian_sum(lattice_from_tau(0.1, y), PhasePoint(0.0, 0.0), 1.0,
                              TruncationPolicy(1e-12))
    assert cv.converged
    _assert_within(cv, reference(0.1, y, 1.0))


def montgomery_reference(beta, t):
    """Q(beta; t) = -theta_hat'(beta; t) / sin(2 pi beta) to 40 digits.  For
    t >= 1/4 it is 4 pi sum_{k >= 1} k e^(-pi t k^2) sin(2 pi k beta) / sin(2 pi beta),
    with the ratio's limits k at beta = 0 and (-1)^(k+1) k at beta = 1/2; terms
    with pi t k^2 above ``CUTOFF`` are left out, together below 1e-44.  Below
    1/4 that series cancels, and its Jacobi transform is summed instead,
    t^(-1/2) sum_k 2 pi (k + beta) / t e^(-pi (k + beta)^2 / t) / sin(2 pi beta),
    whose limits at beta = 0 and 1/2 are -theta_hat''/(2 pi) and
    theta_hat''/(2 pi), over the k with pi (k + beta)^2 / t <= ``CUTOFF``."""
    with mpmath.workdps(40):
        b, t = mpmath.mpf(beta), mpmath.mpf(t)
        if t < 0.25:
            total, reach = mpmath.mpf(0), int(mpmath.sqrt(CUTOFF * t / mpmath.pi)) + 2
            for k in range(-reach, reach + 1):
                u = k + b
                x = mpmath.pi * u * u / t
                if beta in (0.0, 0.5):
                    weight = (1 - 2 * x) / t * (1 if beta == 0.0 else -1)
                else:
                    weight = 2 * mpmath.pi * u / t / mpmath.sin(2 * mpmath.pi * b)
                total += weight * mpmath.exp(-x)
            return total / mpmath.sqrt(t)
        total, k = mpmath.mpf(0), 1
        while mpmath.pi * t * k * k <= CUTOFF:
            if beta == 0.0:
                ratio = k
            elif beta == 0.5:
                ratio = (-1) ** (k + 1) * k
            else:
                ratio = mpmath.sin(2 * mpmath.pi * k * b) / mpmath.sin(2 * mpmath.pi * b)
            total += k * mpmath.exp(-mpmath.pi * t * k * k) * ratio
            k += 1
        return 4 * mpmath.pi * total


# the t grid of the lemma suite's Montgomery sandwich, and small t down to 1e-5
MONTGOMERY_TS = [1e-5, 1e-4, 1e-3, 1e-2, 0.1] + np.logspace(
    math.log10(0.25), math.log10(4.0), 9
).tolist()
# 0.25 +- 1e-12 straddle the switch between the kernel's two pairings
MONTGOMERY_BETAS = [0.0, 1e-9, 0.1, 0.25 - 1e-12, 0.25, 0.25 + 1e-12, 0.4, 0.5 - 1e-9, 0.5]


@pytest.mark.parametrize(
    "beta,t",
    [(beta, t) for t in MONTGOMERY_TS for beta in MONTGOMERY_BETAS]
    # Q is 8e-334 there, below the floats
    + [(0.5 - 1e-6, 1e-3)],
)
def test_montgomery_Q_matches_theta_series(beta, t):
    """Within the tail, which bounds the truncation and the rounding, and is
    finite, and at most 1e-12 of a value in the normal range."""
    q = montgomery_Q(beta, t)
    assert abs(q.value - montgomery_reference(beta, t)) <= q.tail_bound < math.inf
    if abs(q.value) >= 1e-300:
        assert q.tail_bound <= 1e-12 * abs(q.value)


def theta1d_reference(beta, t, order, side):
    """theta_hat(beta; t) (order 0) or its second beta-derivative (order 2) to
    40 digits on one side of the Jacobi identity: "jacobi",
    t^(-1/2) sum_n e^(-x_n), x_n = pi (n + beta)^2 / t, differentiated term by
    term, or "cosine", sum_k e^(-pi t k^2) cos(2 pi k beta) over all integers k;
    terms with an exponent above ``CUTOFF`` + 20 are left out, below 1e-50 in all."""
    with mpmath.workdps(40):
        b, t = mpmath.mpf(beta), mpmath.mpf(t)
        total = mpmath.mpf(0)
        if side == "jacobi":
            reach = int(mpmath.sqrt((CUTOFF + 20) * t / mpmath.pi)) + 2
            for n in range(-reach, reach + 1):
                x = mpmath.pi * (n + b) ** 2 / t
                total += (1 if order == 0 else 2 * mpmath.pi / t * (2 * x - 1)) * mpmath.exp(-x)
            return total / mpmath.sqrt(t)
        reach = int(mpmath.sqrt((CUTOFF + 20) / (mpmath.pi * t))) + 2
        for k in range(-reach, reach + 1):
            weight = 1 if order == 0 else -4 * mpmath.pi**2 * k * k
            total += weight * mpmath.exp(-mpmath.pi * t * k * k) * mpmath.cos(2 * mpmath.pi * k * b)
        return total


THETA1D_TS = [1e-4, 1e-3, 0.05, 0.5, 1.0, 2.0, 100.0, 1e4]


@pytest.mark.parametrize("order", [0, 2])
@pytest.mark.parametrize("t", THETA1D_TS)
@pytest.mark.parametrize("beta", [0.0, 0.1, 0.25, 0.4, 0.5])
def test_theta1d_matches_both_sides(beta, t, order):
    """The kernel within its tail of the 40-digit sum of the side that does
    not cancel, the Jacobi side below t = 1; near t = 1, where both converge
    fast, the two sides agree to 35 digits."""
    value, tail = (float(v) for v in _theta1d(beta, t, order))
    ref = theta1d_reference(beta, t, order, "jacobi" if t < 1.0 else "cosine")
    assert abs(value - ref) <= tail
    if 0.5 <= t <= 2.0:
        other = theta1d_reference(beta, t, order, "cosine" if t < 1.0 else "jacobi")
        assert abs(other - ref) <= 1e-35 * (1 + abs(ref))
    if order == 0:
        assert theta1d_hat(beta, t).value == value


# Shifts are dyadic, k / 2^20, so that z + m and -z are exact translates of z:
# PhasePoint(1.1, 1.1) and PhasePoint(4.1, 4.1) are different float points.
DYADIC = st.integers(-(2**20), 2**20).map(lambda k: k / 2**20)
SHAPES = st.tuples(
    st.floats(-0.5, 0.5), st.floats(math.log10(0.5), 3.0).map(lambda e: 10.0**e)
)
ALPHAS = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def _within_tails(a, b):
    assert abs(a.value - b.value) <= a.tail_bound + b.tail_bound


@PROPERTY
@given(SHAPES, ALPHAS, DYADIC, DYADIC, st.integers(-3, 3), st.integers(-3, 3))
def test_gaussian_sum_is_periodic(shape, alpha, u, v, m, n):
    lattice = lattice_from_tau(*shape)
    _within_tails(
        lattice_gaussian_sum(lattice, PhasePoint(u, v), alpha),
        lattice_gaussian_sum(lattice, PhasePoint(u + m, v + n), alpha),
    )


@PROPERTY
@given(SHAPES, ALPHAS, DYADIC, DYADIC)
def test_gaussian_sum_is_even(shape, alpha, u, v):
    lattice = lattice_from_tau(*shape)
    _within_tails(
        lattice_gaussian_sum(lattice, PhasePoint(u, v), alpha),
        lattice_gaussian_sum(lattice, PhasePoint(-u, -v), alpha),
    )


@PROPERTY
@given(SHAPES, ALPHAS, DYADIC, DYADIC)
def test_evaluator_matches_pointwise_sum(shape, alpha, u, v):
    """One batch of the evaluator's node (alpha, 1) at z and -z, each within
    the summed tails of the pointwise sum at z."""
    lattice = lattice_from_tau(*shape)
    pointwise = lattice_gaussian_sum(lattice, PhasePoint(u, v), alpha)
    values, bounds = ShiftedSumEvaluator(lattice, ((alpha, 1.0),)).certified(
        np.array([[u, v], [-u, -v]])
    )
    for value, bound in zip(values.tolist(), bounds.tolist()):
        assert abs(value - pointwise.value) <= bound + pointwise.tail_bound


# a coordinate at the cell's edges, within 1e-6 of a lattice line, or inside
EDGES = st.one_of(
    st.sampled_from([0.0, 1.0 - 2.0**-53]),
    st.tuples(st.integers(-2, 2), st.floats(-1e-6, 1e-6)).map(sum),
    st.floats(0.0, 1.0, exclude_max=True),
)
WEIGHTS = st.floats(0.1, 10.0)
# one node on either side of lam = 1/covol = 1, or two straddling it
NODE_SETS = st.one_of(
    st.tuples(st.tuples(ALPHAS, WEIGHTS)),
    st.tuples(
        st.tuples(st.floats(-3.0, -0.01).map(lambda e: 10.0**e), WEIGHTS),
        st.tuples(st.floats(0.0, 3.0).map(lambda e: 10.0**e), WEIGHTS),
    ),
)


@PROPERTY
@given(SHAPES, NODE_SETS, EDGES, EDGES, st.sampled_from([None, True, False]))
def test_pointwise_sum_is_the_evaluators_certified_value(shape, nodes, u, v, dual):
    """The one-point case certifies on its ball's own squared lengths.  Bit
    for bit, they and so the (value, tail) are those ``certified`` computes
    on the same build at the point the ball is centred on, on either side
    or the one ``dual`` forces."""
    lattice = lattice_from_tau(*shape)
    z = PhasePoint(u, v)
    plan = _plan(lattice)
    one = _sum_at(plan, z, nodes, DEFAULT_POLICY, dual)
    point = z.canonical()
    ev = ShiftedSumEvaluator.__new__(ShiftedSumEvaluator)
    ev._for_batches(ev._build(plan, nodes, DEFAULT_POLICY, (point.u, point.v), dual))
    values, bounds = ev.certified(np.array([[point.u, point.v]]))
    assert (one.value, one.tail_bound, one.terms_used) == (values[0], bounds[0], ev.terms)


@PROPERTY
@given(st.floats(-1e6, 1e6), st.floats(-200.0, 300.0).map(lambda e: 10.0**e))
def test_theta1d_hat_is_never_negative(beta, t):
    """theta_hat is positive; its tail is finite and nonnegative on the whole
    range of t the kernel takes."""
    hat = theta1d_hat(beta, t)
    assert hat.value >= 0.0
    assert 0.0 <= hat.tail_bound < math.inf


@PROPERTY
@given(st.floats(-1e6, 1e6), st.floats(-200.0, 300.0).map(lambda e: 10.0**e))
def test_montgomery_Q_is_never_negative(beta, t):
    """Q is positive; its tail is finite and nonnegative and covers a value
    rounded below 0, on the whole range of t the kernel takes."""
    q = montgomery_Q(beta, t)
    assert 0.0 <= q.tail_bound < math.inf
    assert q.value + q.tail_bound >= 0.0
