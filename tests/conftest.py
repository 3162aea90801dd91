import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from latsum.lattice import ReductionTrace, hexagonal_lattice, lattice_from_tau, square_lattice
from latsum.theta import (
    _MAX_INDEX_1D,
    DEFAULT_POLICY,
    TWO_PI,
    CertifiedValue,
    TruncationPolicy,
    _ball,
    _check_t,
    _gauss_tail,
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


def theta1d(beta: float, t: float, pol: TruncationPolicy = DEFAULT_POLICY) -> CertifiedValue:
    """Oracle for the other side of ``theta1d_hat``'s functional equation:
    theta(beta; t) = sum_k exp(-pi t (k + beta)^2), beta taken mod 1 first, so
    the result is 1-periodic in beta by construction, summed at most to
    ``_MAX_INDEX_1D`` as that series is."""
    _check_t(t)
    b = beta - math.floor(beta)
    terms = [math.exp(-math.pi * t * b * b)]
    for m in range(1, _MAX_INDEX_1D + 1):
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


def assert_derivatives_match_differences(ev, zs):
    """ev.derivatives_centered against central differences of
    ev.values_centered; errors are measured against the largest derivative
    or the value at the origin (the maximum), whichever is larger.  The
    steps balance the h^2 truncation error and the rounding error eps/h^k
    (observed worst cases: 4e-9 for gradients, 2e-6 for Hessians)."""
    values, grad, hess = ev.derivatives_centered(zs)
    scale = abs(float(ev.values_centered(np.zeros((1, 2)))[0]))
    assert np.abs(values - ev.values_centered(zs)).max() <= 1e-14 * scale
    grad_fd, _ = central_differences(ev.values_centered, zs, 1e-5)
    _, hess_fd = central_differences(ev.values_centered, zs, 1e-4)
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
    k, l, _, _, tail, _ = ball
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
