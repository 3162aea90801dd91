import math

import numpy as np
import pytest

from latsum.lattice import hexagonal_lattice, lattice_from_tau, square_lattice

Y_HEX = math.sqrt(3.0) / 2.0


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
