"""Two-parameter lattices, fundamental-domain reduction, special shift points.

A unit-covolume planar lattice is parametrized by (x, y) with y > 0, the
point tau = x + iy of the upper half plane.  The canonical generator is

    gen = y**-0.5 * [[1, x], [0, y]]

whose columns span the lattice.  A lattice built from any other generator
keeps that generator exactly and carries the shape parameters of its
rotated upper-triangular form.  Shift and charge points are given in
lattice coordinates: (u, v) is the point gen @ (u, v).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonPositiveY, NoConvergence, NotUpperHalfPlane

_REDUCE_TOL = 1e-12
_MAX_GENERATOR_APPLICATIONS = 10_000


def _check_shape(x: float, y: float) -> None:
    """``NonPositiveY`` unless y > 0, a ValueError naming the shape unless
    both are finite."""
    if y <= 0:
        raise NonPositiveY(f"y must be positive, got {y}")
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"lattice shape ({x}, {y}) must be finite")


def _generator(gen) -> np.ndarray:
    """gen as a float array; a ValueError unless it is a finite 2x2 matrix."""
    g = np.asarray(gen, dtype=float)
    if g.shape != (2, 2):
        raise ValueError("generator must be a 2x2 matrix")
    if not np.isfinite(g).all():
        raise ValueError(f"generator must be finite, got {g.tolist()}")
    return g


def det2(m: np.ndarray) -> float:
    """Determinant of a 2x2 matrix, from its entries."""
    (a, b), (c, d) = m.tolist()
    return a * d - b * c


@dataclass(frozen=True, eq=False)
class Lattice:
    """A planar lattice gen @ Z^2 with shape parameters (x, y).

    ``gen`` equals a rotation of ``y**-0.5 * [[1, x], [0, y]]``; the
    canonical constructor :func:`lattice_from_tau` stores that matrix
    exactly (determinant 1).  Any other generator, a scaled one
    (covolume != 1) or a dual one, is allowed through
    :func:`lattice_from_generator`.
    """

    x: float
    y: float
    gen: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        _check_shape(self.x, self.y)
        g = _generator(self.gen)
        if det2(g) <= 0:
            raise ValueError("generator must have positive determinant")
        g = g.copy()
        g.flags.writeable = False
        object.__setattr__(self, "gen", g)

    @property
    def covolume(self) -> float:
        return det2(self.gen)


@dataclass(frozen=True)
class PhasePoint:
    """A shift or charge point in lattice coordinates: gen @ (u, v)."""

    u: float
    v: float

    def canonical(self) -> "PhasePoint":
        """Reduce lattice coordinates mod 1 into [0, 1) by ``_wrap_unit``."""
        return PhasePoint(_wrap_unit(self.u), _wrap_unit(self.v))


def _wrap_unit(t: float) -> float:
    """t mod 1 in [0, 1).  The float t % 1.0 rounds to 1.0 for a tiny negative
    t (-1e-17 % 1.0 == 1.0); that result is taken as 0.0, its equal mod 1."""
    r = t % 1.0
    return 0.0 if r == 1.0 else r


def lattice_from_tau(x: float, y: float) -> Lattice:
    """Unit-covolume lattice with the canonical generator for (x, y)."""
    _check_shape(x, y)
    return Lattice(x, y, np.array(_tau_rows(x, y)))


def _tau_rows(x: float, y: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """The rows of ``lattice_from_tau(x, y)``'s generator, for y > 0."""
    s = 1.0 / math.sqrt(y)
    return (s, s * x), (0.0, s * y)


def lattice_from_generator(gen: np.ndarray) -> Lattice:
    """Lattice with the given generator; shape parameters from its QR form.

    Any generator with positive determinant factors as Q @ R with Q a
    rotation and R upper triangular with positive diagonal; then
    x = R[0,1]/R[0,0] and y = R[1,1]/R[0,0].
    """
    g = _generator(gen)
    q, r = np.linalg.qr(g)
    # enforce positive diagonal of R (QR is unique only up to signs)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    r = np.diag(signs) @ r
    x = r[0, 1] / r[0, 0]
    y = r[1, 1] / r[0, 0]
    return Lattice(float(x), float(y), g)


def hexagonal_lattice() -> Lattice:
    return lattice_from_tau(0.5, math.sqrt(3) / 2)


def square_lattice() -> Lattice:
    return lattice_from_tau(0.0, 1.0)


# ---------------------------------------------------------------------------
# Modular reduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReductionTrace:
    """Result of reducing tau into the right half fundamental domain.

    ``word`` lists the generators applied, in order: ``T`` (tau + 1),
    ``Tinv`` (tau - 1), ``J`` (-1/tau) and ``Mirror`` (-conj(tau)).
    Applied to ``tau_in`` in that order they give ``tau_out``.
    """

    tau_in: complex
    tau_out: complex
    word: tuple[str, ...]


def reduce_to_fundamental(tau: complex) -> ReductionTrace:
    """Reduce tau into D_+ by translations and inversions, mirror last.

    Classical Gauss reduction: translate the real part into [-1/2, 1/2],
    invert while |tau| < 1, finally mirror x -> |x|.  Boundary ties land
    on the representative with nonnegative real part.  A tau with Im(tau) <= 0
    raises ``NotUpperHalfPlane``, any other non-finite one a ValueError.
    """
    tau = complex(tau)
    if tau.imag <= 0:
        raise NotUpperHalfPlane(f"Im(tau) must be positive, got {tau.imag}")
    if not (math.isfinite(tau.real) and math.isfinite(tau.imag)):
        raise ValueError(f"tau must be finite, got {tau}")
    word: list[str] = []
    z = tau
    applications = 0
    while True:
        k = round(z.real)
        if k != 0:
            if applications + abs(k) > _MAX_GENERATOR_APPLICATIONS:
                raise NoConvergence("generator application budget exhausted")
            label = "Tinv" if k > 0 else "T"
            word.extend([label] * abs(k))
            applications += abs(k)
            z = complex(z.real - k, z.imag)
        if abs(z) >= 1.0 - _REDUCE_TOL:
            break
        z = -1.0 / z
        word.append("J")
        applications += 1
        if applications > _MAX_GENERATOR_APPLICATIONS:
            raise NoConvergence("generator application budget exhausted")
    if z.real < 0:
        z = complex(-z.real, z.imag)
        word.append("Mirror")
    return ReductionTrace(tau_in=tau, tau_out=z, word=tuple(word))


# ---------------------------------------------------------------------------
# Special shift points
# ---------------------------------------------------------------------------

def special_point_a(x: float, y: float) -> PhasePoint:
    """Circumcenter of the fundamental triangle, in lattice coordinates.

    Satisfies a1 + x*a2 = 1/2; the Cartesian image gen @ a is equidistant
    from 0 and the two basis vectors.
    """
    _check_shape(x, y)
    y2 = y * y
    a1 = (1.0 - x) * (x * x + y2) / (2.0 * y2)
    a2 = (-x + x * x + y2) / (2.0 * y2)
    return PhasePoint(a1, a2)


def special_point_b(x: float, y: float) -> PhasePoint:
    """The designed shift point with b1 + x*b2 = 1/2 and b2 independent of x.

    Exposed as a formula only: it agrees with the circumcenter on the
    line x = 1/2 but carries no geometric interpretation elsewhere.
    """
    _check_shape(x, y)
    return PhasePoint(*_point_b(x, y))


def _point_b(x, y):
    """The coordinates (b1, b2) of ``special_point_b`` for a float or an
    array y > 0, unchecked; on the line x = 1/2 this is the moving point
    b(y) = (1/4 + 1/(16 y^2), 1/2 - 1/(8 y^2)) of the charged family."""
    y2 = y * y
    return (x + (1.0 - x) * 4.0 * y2) / (8.0 * y2), (4.0 * y2 - 1.0) / (8.0 * y2)
