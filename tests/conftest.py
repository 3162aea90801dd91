import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from latsum import proofcheck as pc
from latsum.lattice import (
    PhasePoint,
    ReductionTrace,
    hexagonal_lattice,
    lattice_from_generator,
    lattice_from_tau,
    square_lattice,
)
from latsum.proofcheck import phi_g
from latsum.theta import (
    _EXP_FLOOR,
    DEFAULT_POLICY,
    TWO_PI,
    CertifiedValue,
    ShiftedSumEvaluator,
    TruncationPolicy,
    _ball,
    _check_t,
    _in_row_blocks,
    _plan,
    lattice_gaussian_sum,
)

Y_HEX = math.sqrt(3.0) / 2.0
SRC = Path(__file__).resolve().parents[1] / "src"
# address space of the test process: the suite runs in under 2 GiB, so a test
# that allocates far more fails with a MemoryError instead of getting the
# whole run killed
TEST_ADDRESS_SPACE = 4 << 30


def pytest_configure(config):
    """Lower the soft RLIMIT_AS of this process to ``TEST_ADDRESS_SPACE``;
    a lower limit already in place is kept."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if soft == resource.RLIM_INFINITY or soft > TEST_ADDRESS_SPACE:
        resource.setrlimit(resource.RLIMIT_AS, (TEST_ADDRESS_SPACE, hard))


@pytest.fixture
def hexl():
    return hexagonal_lattice()


@pytest.fixture
def sq():
    return square_lattice()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_domain_lattice(rng, y_max=2.5, min_dist_from_hex=0.0):
    """Random lattice parameters inside the right fundamental half-domain."""
    while True:
        x = rng.uniform(0.0, 0.5)
        y = rng.uniform(Y_HEX, y_max)
        if x * x + y * y < 1.0:
            continue
        if math.hypot(x - 0.5, y - Y_HEX) < min_dist_from_hex:
            continue
        return lattice_from_tau(x, y)


def run_under_memory_limit(code: str, limit: int = 1 << 30) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter, importing latsum from this checkout,
    whose address space is capped at ``limit`` bytes: an allocation beyond it
    raises MemoryError there instead of exhausting the machine."""
    cap = f"import resource\nresource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-c", cap + code], env=env, capture_output=True, text=True, timeout=120
    )


def _gauss_tail(k0: int, t: float) -> float:
    """Upper bound for sum_{k >= k0} exp(-pi t k^2), k0 >= 1."""
    q = math.exp(-math.pi * t * (2 * k0 + 1))
    if q >= 1.0:
        return math.inf
    return math.exp(-math.pi * t * k0 * k0) / (1.0 - q)


# the most terms on each side of k = 0 that ``theta1d`` sums
THETA1D_MAX_INDEX = 10_000


def theta1d(beta: float, t: float, pol: TruncationPolicy = DEFAULT_POLICY) -> CertifiedValue:
    """Oracle for the other side of ``theta1d_hat``'s functional equation:
    theta(beta; t) = sum_k exp(-pi t (k + beta)^2), beta taken mod 1 first, so
    the result is 1-periodic in beta by construction, summed at most to
    ``THETA1D_MAX_INDEX``."""
    _check_t(t)
    b = beta - math.floor(beta)
    terms = [math.exp(-math.pi * t * b * b)]
    for m in range(1, THETA1D_MAX_INDEX + 1):
        terms.append(math.exp(-math.pi * t * (m + b) ** 2))
        terms.append(math.exp(-math.pi * t * (-m + b) ** 2))
        # (k+b)^2 >= k^2 for k >= 1 and >= (|k|-1)^2 for k <= -1
        tail = _gauss_tail(m + 1, t) + _gauss_tail(m, t)
        if tail <= pol.target_tol:
            break
    return CertifiedValue(math.fsum(terms), tail, len(terms), tail <= pol.target_tol)


def product_rep_theta1d_hat(beta: float, t: float, n_factors: int) -> float:
    """Oracle for ``theta1d_hat``: its partial product representation, factors
    (1 - q^(2k)) (1 + 2 cos(2 pi beta) q^(2k-1) + q^(4k-2)) with q = exp(-pi t)."""
    c = 2.0 * math.cos(TWO_PI * beta)
    prod = 1.0
    for k in range(1, n_factors + 1):
        e_even = math.exp(-TWO_PI * k * t)
        e_odd = math.exp(-(2 * k - 1) * math.pi * t)
        prod *= (1.0 - e_even) * (1.0 + c * e_odd + e_odd * e_odd)
    return prod


def apply_generator(tau: complex, label: str) -> complex:
    """One generator of a ``ReductionTrace`` word applied to tau."""
    if label == "J":
        return -1.0 / tau
    if label == "Mirror":
        return complex(-tau.real, tau.imag)
    return tau + {"T": 1.0, "Tinv": -1.0}[label]


def replay(trace: ReductionTrace) -> complex:
    """Oracle for ``reduce_to_fundamental``: its word applied to ``tau_in``."""
    tau = trace.tau_in
    for label in trace.word:
        tau = apply_generator(tau, label)
    return tau


def in_fundamental_domain_plus(tau: complex, tol: float = 1e-12) -> bool:
    """Membership in {0 <= Re <= 1/2, |tau| >= 1} up to tol on the boundary."""
    return tau.imag > 0 and -tol <= tau.real <= 0.5 + tol and abs(tau) >= 1.0 - tol


def central_differences(f, zs, h):
    """Central-difference gradients (n, 2) and Hessians (n, 2, 2) of a
    batch function f mapping (n, 2) points to (n,) values."""
    e = h * np.eye(2)
    grad = np.stack([(f(zs + e[i]) - f(zs - e[i])) / (2.0 * h) for i in range(2)], axis=-1)
    hess = np.stack(
        [
            np.stack(
                [
                    (f(zs + e[i] + e[j]) - f(zs + e[i] - e[j]) - f(zs - e[i] + e[j])
                     + f(zs - e[i] - e[j])) / (4.0 * h * h)
                    for j in range(2)
                ],
                axis=-1,
            )
            for i in range(2)
        ],
        axis=-2,
    )
    return grad, hess


@_in_row_blocks
def values_centered(ev, zs: np.ndarray) -> np.ndarray:
    """Oracle for ``ShiftedSumEvaluator._grid_centered``: the evaluator's values
    minus ``value_offset`` at an (n, 2) batch of lattice-coordinate shifts,
    one exponential per point and term."""
    out = np.cos(TWO_PI * (zs @ ev._kl)) @ ev._ghat if ev._far else np.zeros(len(zs))
    if ev._near:
        rho = ev._rho(zs)
        e = np.empty_like(rho)
        for alpha, weight in ev._near:
            np.multiply(rho, -math.pi * alpha, out=e)
            np.maximum(e, _EXP_FLOOR, out=e)
            np.exp(e, out=e)
            out += weight * e.sum(axis=1)
    return out


def derivatives_oracle(ev, zs):
    """Reference for ``ShiftedSumEvaluator.derivatives_centered``: centered
    values (n,), gradients (n, 2) and Hessians (n, 2, 2) at an (n, 2) batch,
    each side differentiated term by term from its own formulas, and the
    term scale of each: the largest sum, over the rows, of its terms'
    absolute values, each lattice-side term times 1 + X for its exponent X,
    which rounds to within a few eps X and so moves e^-X by that much.

    Dual side: d/dz cos(2 pi k.z) = -2 pi k sin(.), d2/dz2 = -4 pi^2 k k^T cos(.),
    weighted by g(k).  Lattice side: with Gw = (a, b), each node's Gaussians
    are reduced against the monomials 1, a, b, a^2, ab, b^2 in one batched
    product and weighted by w_j r_j^m, m = 0, 1, 2: grad = -2 sum w r e Gw and
    Hess = 4 sum w r^2 e Gw (Gw)^T - 2 sum w r e G."""
    zs = np.atleast_2d(np.asarray(zs, dtype=float))
    out = [np.zeros(len(zs)), np.zeros((len(zs), 2)), np.zeros((len(zs), 2, 2))]
    scales = [0.0, 0.0, 0.0]

    def add(values, grad, h, size):
        for i, x in enumerate((values, grad, h[:, [0, 1, 1, 2]].reshape(-1, 2, 2))):
            out[i] = out[i] + x
        for i, s in enumerate(size):
            scales[i] += float(s.max())

    if ev._far:
        idx = ev._kl.T
        phases = TWO_PI * (zs @ idx.T)
        wc = np.cos(phases) * ev._ghat
        ws = np.sin(phases) * ev._ghat
        k1, k2 = idx[:, 0], idx[:, 1]
        quad = np.column_stack([k1 * k1, k1 * k2, k2 * k2])
        g = ev._ghat
        size = (g.sum(), TWO_PI * (g @ np.abs(idx)), TWO_PI**2 * (g @ np.abs(quad)))
        add(wc.sum(axis=1), -TWO_PI * (ws @ idx), -(TWO_PI**2) * (wc @ quad), size)
    if ev._near:
        g00, g01, g11 = ev._plan.near[:3]
        w1 = ev._idx[0] + zs[:, :1]
        w2 = ev._idx[1] + zs[:, 1:]
        a = g00 * w1 + g01 * w2
        b = g01 * w1 + g11 * w2
        neg_x = np.maximum(np.multiply.outer(-ev._rates, w1 * a + w2 * b), _EXP_FLOOR)
        e = np.exp(neg_x)
        mono = np.stack([np.ones_like(a), a, b, a * a, a * b, b * b], axis=-1)
        wr = ev._weights * ev._rates
        moments = np.array([ev._weights, wr, wr * ev._rates])
        k = moments @ np.matmul(e.transpose(1, 0, 2), mono)  # (n, moment, monomial)
        gram = np.array([g00, g01, g11])
        h = 4.0 * k[:, 2, 3:] - 2.0 * k[:, 1, :1] * gram
        m = moments @ np.matmul((e * (1.0 - neg_x)).transpose(1, 0, 2), np.abs(mono))
        curv = 4.0 * m[:, 2, 3:] + 2.0 * m[:, 1, :1] * np.abs(gram)
        size = (m[:, 0, 0], 2.0 * m[:, 1, 1:3], curv)
        add(k[:, 0, 0], -2.0 * k[:, 1, 1:3], h, size)
    return tuple(out), tuple(scales)


def assert_derivatives_match_oracle(ev, zs, rel=1e-13):
    """``derivatives_centered`` against ``derivatives_oracle``: each of the
    values, gradients and Hessians within ``rel`` of its largest term scale,
    and the Hessians symmetric to the bit."""
    got = ev.derivatives_centered(zs)
    want, scales = derivatives_oracle(ev, zs)
    for g, w, scale in zip(got, want, scales):
        assert g.shape == w.shape
        assert np.abs(g - w).max() <= rel * scale
    assert np.array_equal(got[2], got[2].transpose(0, 2, 1))


def assert_derivatives_match_differences(ev, zs):
    """ev.derivatives_centered against central differences of the
    ``values_centered`` oracle; errors are measured against the largest
    derivative or the value at the origin (the maximum), whichever is larger.
    The steps balance the h^2 truncation error and the rounding error eps/h^k
    (observed worst cases: 4e-9 for gradients, 2e-6 for Hessians)."""
    values, grad, hess = ev.derivatives_centered(zs)
    scale = abs(float(values_centered(ev, np.zeros((1, 2)))[0]))
    assert np.abs(values - values_centered(ev, zs)).max() <= 1e-14 * scale
    grad_fd, _ = central_differences(lambda z: values_centered(ev, z), zs, 1e-5)
    _, hess_fd = central_differences(lambda z: values_centered(ev, z), zs, 1e-4)
    assert np.abs(grad - grad_fd).max() <= 1e-7 * max(np.abs(grad).max(), scale)
    assert np.abs(hess - hess_fd).max() <= 2e-5 * max(np.abs(hess).max(), scale)
    assert np.array_equal(hess, hess.transpose(0, 2, 1))


def eigh_saddle_free_step(g, h, floor):
    """Oracle for the polish's closed-form step: the saddle-free Newton steps
    -|H|^-1 g (n, 2) and decrements g^T |H|^-1 g (n,) of gradients g (n, 2) and
    symmetric Hessians h (n, 2, 2) from ``np.linalg.eigh``, with each |lambda|
    floored at ``floor`` times the largest plus ``tiny``."""
    lam, vec = np.linalg.eigh(h)
    lam = np.abs(lam)
    lam = np.maximum(lam, floor * lam.max(axis=1, keepdims=True) + np.finfo(float).tiny)
    gv = np.einsum("nij,ni->nj", vec, g)
    step = -np.einsum("nij,nj->ni", vec, gv / lam)
    return step, np.einsum("nj,nj->n", gv, gv / lam)


def all_starts_minimum_oracle(ev, grid_n, n_starts=5, iterations=60):
    """Reference torus minimum of ``ev``'s mixture, certified at its argmin:
    the ``n_starts`` lowest points of the half-cell grid scan, every one of
    them polished, with no merging of neighbouring starts and no step off a
    saddle.  Each start takes the eigh saddle-free step cut to its trust
    radius (1/grid_n at first, doubled up to 1/2 after an accepted cut step,
    half a rejected step after it) and stops on a decrement of at most 64 eps
    times the largest |value| at the starts; the argmin is the start whose
    last evaluated value is lowest."""
    us = np.arange(grid_n) / grid_n
    vs = us[us <= 0.5 + 1.5 / grid_n]
    vals = ev._grid_centered(us, vs).ravel()
    best = np.argsort(vals, kind="stable")[:n_starts]
    tol = 64.0 * np.finfo(float).eps * np.abs(vals[best]).max()
    points = np.column_stack([us[best // len(vs)], vs[best % len(vs)]])
    f, g, h = ev.derivatives_centered(points)
    radii = np.full(len(points), 1.0 / grid_n)
    live = np.arange(len(points))
    for _ in range(iterations):
        step, decrement = eigh_saddle_free_step(g[live], h[live], 1e-12)
        length = np.hypot(step[:, 0], step[:, 1])
        cut = length > radii[live]
        step[cut] *= (radii[live][cut] / length[cut])[:, None]
        trial = np.mod(points[live] + step, 1.0)
        trial[trial == 1.0] = 0.0
        done = decrement <= tol
        points[live[done]] = trial[done]
        live, trial, length, cut = live[~done], trial[~done], length[~done], cut[~done]
        if not len(live):
            break
        ft, gt, ht = ev.derivatives_centered(trial)
        lower = ft < f[live]
        kept = live[lower]
        points[kept], f[kept], g[kept], h[kept] = trial[lower], ft[lower], gt[lower], ht[lower]
        radii[live[lower & cut]] = np.minimum(2.0 * radii[live[lower & cut]], 0.5)
        radii[live[~lower]] = 0.5 * np.minimum(length[~lower], radii[live[~lower]])
    u, v = points[int(np.argmin(f))]
    return ev.certified_at(PhasePoint(float(u), float(v)).canonical())


def brute_force_zeta(lattice, z, s, radius):
    """Oracle for the shifted Epstein zeta sum |p + z|^(-2s): the points within
    ``radius`` summed one by one, plus the integral estimate
    2 pi / covol R^(2-2s) / (2s - 2) of the rest.  Returns the value and a
    bound on its error.  The number N(r) of points within r differs from
    pi r^2 / covol by at most pi (2 r h + h^2) / covol (h the cell
    half-diameter), and summation by parts turns that into
    pi / covol ((4 R h + 2 h^2) R^(-2s) + 2 h R^(1-2s) / (2s - 1)); the bound
    adds (terms + 8 (s + 2)) eps sum |term| for rounding.  Squared distances
    come from lattice coordinates, so the terms near a lattice point keep
    full relative precision."""
    zl = z.canonical()
    gen = lattice.gen
    covol = lattice.covolume
    h = 0.5 * max(np.linalg.norm(gen[:, 0] + gen[:, 1]), np.linalg.norm(gen[:, 0] - gen[:, 1]))
    reach = np.ceil(radius * np.linalg.norm(np.linalg.inv(gen), axis=1)) + 1
    kk, ll = np.meshgrid(
        np.arange(-reach[0], reach[0] + 1), np.arange(-reach[1], reach[1] + 1), indexing="ij"
    )
    w = np.column_stack([kk.ravel() + zl.u, ll.ravel() + zl.v])
    q = np.einsum("ij,jk,ik->i", w, gen.T @ gen, w)
    terms = q[q <= radius * radius] ** -s
    r = radius
    value = math.fsum(terms.tolist()) + 2.0 * math.pi / covol * r ** (2 - 2 * s) / (2 * s - 2)
    bound = math.pi / covol * (
        (4 * r * h + 2 * h * h) * r ** (-2 * s) + 2 * h * r ** (1 - 2 * s) / (2 * s - 1)
    )
    bound += (len(terms) + 8 * (s + 2)) * np.finfo(float).eps * float(terms.sum())
    return value, bound


def per_node_cm_energy(p, lattice, z, pol):
    """Reference for the mixture split: the per-node loop it replaced.  Each
    node is its own certified Gaussian sum, on the route ``lattice_gaussian_sum``
    picks by alpha covol < 1, asked for tol / (n w_j) so that the weighted tails sum
    to at most tol.  Returns the value, that truncation bound and the rounding
    of the accumulation, (nodes + 16) eps sum_j w_j |E_j|."""
    n = len(p.nodes)
    value = tail = size = 0.0
    for alpha, weight in p.nodes:
        node_pol = TruncationPolicy(pol.target_tol / (n * max(weight, 1e-300)))
        e = lattice_gaussian_sum(lattice, z, alpha, node_pol)
        value += weight * e.value
        tail += weight * e.tail_bound
        size += weight * abs(e.value)
    return value, tail, (n + 16) * np.finfo(float).eps * size


def direct_series_derivatives(lattice, alpha, zs, pol):
    """Reference for the evaluator: E(z; alpha) summed directly, as
    exp(-pi alpha w^T G w) over w = idx + z with one cell-wide index set, and
    its values (n,), gradients (n, 2) and Hessians (n, 2, 2) in lattice
    coordinates differentiated term by term: the term has gradient -c e Gw and
    Hessian e (c^2 Gw (Gw)^T - c G), with c = 2 pi alpha.  Returns them and the
    truncation tail, uniform over the cell."""
    side = _plan(lattice).near
    ball = _ball(side, (-0.5, -0.5), ((alpha, 1.0),), pol.target_tol, pad=side.h)
    k, l, inside, _, _, tail, _ = ball
    i, j = inside.nonzero()
    k, l = k[i], l[j]
    g = lattice.gen.T @ lattice.gen
    w1 = k[None, :] + zs[:, 0][:, None]
    w2 = l[None, :] + zs[:, 1][:, None]
    a = g[0, 0] * w1 + g[0, 1] * w2
    b = g[0, 1] * w1 + g[1, 1] * w2
    e = np.exp(-math.pi * alpha * (w1 * a + w2 * b))
    c = 2.0 * math.pi * alpha
    ea, eb = e * a, e * b
    values = e.sum(axis=1)
    grad = -c * np.column_stack([ea.sum(axis=1), eb.sum(axis=1)])
    h11 = c * c * (ea * a).sum(axis=1) - c * g[0, 0] * values
    h12 = c * c * (ea * b).sum(axis=1) - c * g[0, 1] * values
    h22 = c * c * (eb * b).sum(axis=1) - c * g[1, 1] * values
    hess = np.stack([h11, h12, h12, h22], axis=-1).reshape(-1, 2, 2)
    return (values, grad, hess), tail


def scaled_lattice_born_table(lattice, n, p, pol=DEFAULT_POLICY):
    """Oracle for ``born_interaction_table``: the mixture's own nodes summed on
    the n-scaled lattice ``lattice_from_generator(n * gen)`` at the shifts d/n of
    its lattice coordinates.  Returns the (n, n) values, their certified bounds
    and whether every entry met the tolerance."""
    ev = ShiftedSumEvaluator(lattice_from_generator(n * lattice.gen), p.nodes, pol)
    d1, d2 = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    values, tails = ev.certified(np.column_stack([d1.ravel(), d2.ravel()]) / n)
    converged = bool(ev.converged and tails.max() <= pol.target_tol)
    return values.reshape(n, n), tails.reshape(n, n), converged


def pairwise_born_energy(table, eps):
    """Oracle for ``born_energy_from_table``: the pair sum
    (1/n^2) sum_(a, b) eps_a eps_b S[(a - b) mod n], one residue a at a time."""
    n = eps.period_N
    w = eps.weights
    total = 0.0
    for a1 in range(n):
        for a2 in range(n):
            d1 = (a1 - np.arange(n)[:, None]) % n
            d2 = (a2 - np.arange(n)[None, :]) % n
            total += w[a1, a2] * float(np.sum(w * table[d1, d2]))
    return total / n**2


# The charged term's factors on the line x = 1/2 in closed form, each on its
# own: the oracles for ``proofcheck.charged_term_d2``, which takes them in
# one pass.

def phi_g_d1(k, l, y):
    y = np.asarray(y, dtype=float)
    return l * l - (2 * k + l) ** 2 / (4.0 * y * y)


def phi_g_d2(k, l, y):
    y = np.asarray(y, dtype=float)
    return (2 * k + l) ** 2 / (2.0 * y ** 3)


def psi_arg(k, l, y):
    """The charge phase at the circumcenter on the line x = 1/2."""
    a1 = 0.25 + 1.0 / (16.0 * y * y)
    a2 = 0.5 - 1.0 / (8.0 * y * y)
    return TWO_PI * (k * a2 - l * a1)


def psi_g(k, l, y):
    """Oscillating factor of the charged family on the line x = 1/2."""
    y = np.asarray(y, dtype=float)
    return np.cos(psi_arg(k, l, y))


def psi_g_d1(k, l, y):
    y = np.asarray(y, dtype=float)
    darg = math.pi * (2 * k + l) / 4.0 / y ** 3
    return -np.sin(psi_arg(k, l, y)) * darg


def psi_g_d2(k, l, y):
    y = np.asarray(y, dtype=float)
    arg = psi_arg(k, l, y)
    darg = math.pi * (2 * k + l) / 4.0 / y ** 3
    ddarg = -3.0 * math.pi * (2 * k + l) / 4.0 / y ** 4
    return -np.cos(arg) * darg * darg - np.sin(arg) * ddarg


def composed_charged_term_d2(k, l, y, alpha):
    """d^2/dy^2 of exp(-pi alpha phi_g) * psi_g by the product rule over the
    closed forms above."""
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


# Full-box references for the lemma checkers that evaluate one column of each
# (m^2, l) class or share one exp table per level family: every pair of the
# box, every sum with an exp table of its own.

def derivative_bounds_oracle() -> pc.LemmaReport:
    """``check_derivative_bounds`` over every pair of |k|, |l| <= 20, each at
    the window's ends and at its own critical points of phi_f' and phi_f''."""
    k_max, lo, hi = 20, Y_HEX, 10.0
    k, l = pc._box(k_max)
    qq = pc.q1(k, l)
    crit = 1.0 / np.sqrt(np.maximum(-4.0 * pc._phi_f_c(k, l) / np.array([[3.0], [5.0]]), 0.01))
    ends = np.full((2, qq.size), [[lo], [hi]])
    d1_y, d2_y = np.clip(crit, lo, hi)
    first = np.min(2.0 * qq - np.abs(pc.phi_f_d1(k, l, np.vstack([ends, d1_y]))))
    second = np.min(3.0 * qq - np.abs(pc.phi_f_d2(k, l, np.vstack([ends, d2_y]))))
    return pc.LemmaReport(
        "derivative_bounds", f"|k|,|l| <= {k_max}, y in [sqrt3/2, 10]", min(first, second)
    )


def q1_outside_minima_oracle(limits) -> list[float]:
    """min Q1(k, l) over max(|k|, |l|) > limit for each limit, by brute force
    over |k|, |l| <= 60, one pair at a time."""
    best = [math.inf] * len(limits)
    for k in range(-60, 61):
        for l in range(-60, 61):
            v = pc.q1(k, l)
            for i, limit in enumerate(limits):
                if max(abs(k), abs(l)) > limit:
                    best[i] = min(best[i], v)
    return best


def growth11_oracle() -> pc.LemmaReport:
    """``check_growth11_composite`` read off 160 samples of y in [sqrt3/2, 8]
    at every pair of |k|, |l| <= 15: a margin at least the checker's, which
    encloses the whole window."""
    alphas, k_max = (5.0, 10.0), 15
    ys = np.linspace(Y_HEX, 8.0, 160)[:, None]
    k, l = pc._box(k_max)
    qq = pc.q1(k, l)
    margin = math.inf
    for alpha in alphas:
        worst = np.abs(pc.shifted_term_d2(k, l, ys, alpha)).max(axis=0)
        bound = 5.0 * math.pi**2 * alpha**2 * qq * qq * np.exp(
            -0.5 * math.pi * alpha * np.sqrt(qq)
        )
        margin = min(margin, np.min((bound - worst) / bound))
    return pc.LemmaReport(
        "growth11",
        f"alphas {alphas}, |k|,|l| <= {k_max}, y in [sqrt3/2, 8], relative slack",
        margin,
    )


def _level_sum_oracle(c, level, mask, q_of=np.float64, s_of=np.sqrt, power=0):
    """a -> sum over the mask of Q^power exp(c a s(Q)), Q = q_of(level), one
    term per distinct level weighted by its count, from an exp table of its
    own over its levels, clipped as ``proofcheck._LevelFamily`` clips."""
    count = np.bincount(level[mask])
    lev = np.flatnonzero(count > 0)
    q = q_of(lev)
    w, s = count[lev] * q**power, s_of(q)

    def total(a):
        n = np.searchsorted(s, _EXP_FLOOR / (c * np.min(a)), side="right")
        x = np.multiply.outer(c * a, s[:n])
        return np.exp(np.maximum(x, _EXP_FLOOR, out=x), out=x) @ w[:n]

    return total


def _threshold_lhs_oracles() -> dict:
    """id -> lhs of ``proofcheck._THRESHOLDS``, each sum on its own."""
    pi, sqrt3 = math.pi, math.sqrt(3.0)
    k, l = pc._box(40)
    cheb = np.maximum(np.abs(k), np.abs(l))
    n2 = k * k + l * l
    q2_level = k * k + k * l + l * l
    q1_level = q2_level + k + l
    ks = np.arange(40)

    def q1_of(n):
        return (2.0 / sqrt3) * (n + 1.0 / 3.0)

    composite = _level_sum_oracle(-0.5 * pi, q1_level, cheb > 1, q1_of, power=2)
    charged = _level_sum_oracle(-pi, q2_level, (l != 0) & (cheb > 1), power=2)
    quartic = _level_sum_oracle(-pi, ks, ks >= 2, s_of=np.square, power=4)
    return {
        "square_tail": _level_sum_oracle(-pi, n2, n2 >= 2, s_of=np.positive),
        "far_q1": _level_sum_oracle(-0.5 * pi, q1_level, cheb > 5, q1_of),
        "nondominant_q1": _level_sum_oracle(-0.5 * pi, q1_level, q1_level >= 1, q1_of),
        "composite_q1": lambda a: 5.0 * pi**2 * a**2 * composite(a),
        "charged_far": _level_sum_oracle(-pi, q2_level, (l != 0) & (q2_level > 1)),
        "charged_composite": lambda a: 40.0 * a * a * quartic(a) + 3.0 * pi**2 * a**2 * charged(a),
    }


THRESHOLD_LHS_ORACLES = _threshold_lhs_oracles()


def threshold_scan_oracle(name: str) -> tuple[np.ndarray, np.ndarray]:
    """lhs and rhs of one threshold id on ``proofcheck._ALPHA_SCAN``, block by
    block of 8 alphas, the lhs from ``THRESHOLD_LHS_ORACLES``."""
    lhs, rhs = THRESHOLD_LHS_ORACLES[name], pc._THRESHOLDS[name][3]
    scan = pc._ALPHA_SCAN
    blocks = [scan[i : i + 8] for i in range(0, len(scan), 8)]
    return np.concatenate([lhs(a) for a in blocks]), np.concatenate([rhs(a) for a in blocks])
