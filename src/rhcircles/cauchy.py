"""Discrete Cauchy boundary projections on circle systems.

The boundary values C+ and C- of the Cauchy transform are realized on the
collocation grid in two pieces:

* same circle: split the samples into Fourier modes ((z-a)/r)^k.  On a
  circle whose plus side is the interior, the plus boundary value keeps the
  modes k >= 0 and the minus boundary value is -(modes k < 0); when the
  plus side is the exterior the roles of the mode sets swap.  This is exact
  for band-limited data.  In the circle's Fourier basis, where the solver
  builds its operator, the projection is diagonal; build_projectors gives
  its node-to-node form, a circulant whose first column is one inverse FFT
  of the kept-mode mask, as a reference.

* different circle: the kernel 1/(w-z) is smooth there, so plain trapezoid
  quadrature in dw is spectrally accurate and the limit needs no side.
  Its block Q_ij, circle j's nodes acting at circle i's, is _cross_block
  of that one circle pair; the solver and build_projectors assemble the
  coupling pair by pair.

The identity C+ - C- = Id holds exactly by constructing the minus matrix as
plus_matrix - Id.  All operators act entrywise on matrix-valued grid
functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .contour import Circle, ContourSystem
from .errors import (
    AlignmentError,
    SingularJumpError,
    TooCloseToContourError,
    WindingAmbiguityError,
)

_I2PI = 1.0 / (2.0j * np.pi)

# Off-contour points closer than this many node spacings to a circle are
# rejected: the trapezoid rule for the Cauchy transform degrades there.
MARGIN_FACTOR = 0.5

# Off-contour points per kernel block in cauchy_offcontour: a block's kernel
# holds EVAL_BLOCK x total_nodes complex entries.
EVAL_BLOCK = 128


def fourier_modes(node_count: int) -> np.ndarray:
    """Signed integer mode numbers in FFT storage order (Nyquist negative)."""
    k = np.arange(node_count)
    k[k >= node_count // 2] -= node_count
    return k


def circle_coefficients(
    circle: Circle, samples: np.ndarray, axis: int = 0
) -> np.ndarray:
    """Fourier coefficients a_k with f(theta) = sum a_k exp(1j*k*theta).

    samples holds values at the circle's nodes along axis, in traversal
    order; the transform accounts for the traversal direction.
    """
    if circle.sign == 1:
        return np.fft.fft(samples, axis=axis) / circle.node_count
    return np.fft.ifft(samples, axis=axis)


def circle_values(circle: Circle, coeffs: np.ndarray, axis: int = 0) -> np.ndarray:
    """Values sum_k a_k exp(1j*k*theta) at the nodes, in traversal order:
    the inverse of circle_coefficients."""
    if circle.sign == 1:
        return np.fft.ifft(coeffs, axis=axis) * circle.node_count
    return np.fft.fft(coeffs, axis=axis)


def synthesize(circle: Circle, coeffs: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Evaluate sum_k a_k exp(1j*k*angle) at off-node angles."""
    k = fourier_modes(circle.node_count)
    basis = np.exp(1j * np.outer(np.asarray(angles), k))
    return np.tensordot(basis, coeffs, axes=(1, 0))


def plus_mode_mask(circle: Circle, plus_inside: bool) -> np.ndarray:
    """Modes whose basis function is analytic on the plus side."""
    k = fourier_modes(circle.node_count)
    return k >= 0 if plus_inside else k < 0


def _winding(samples: np.ndarray, delta_inv: float, circle_index: int = 0) -> int:
    """Degree around 0 of scalar samples taken at one circle's nodes, in
    traversal order; circle_index names the circle in the errors.

    Sums principal-branch phase increments between consecutive nodes
    (cyclically); the sum is 2*pi times an integer for any continuous
    nonvanishing loop, and a result farther than 0.1 from an integer, or
    one that is not finite, means the sampling is too coarse to track the
    phase.
    """
    if np.min(np.abs(samples)) < delta_inv:
        raise SingularJumpError(
            f"|v| < {delta_inv} on circle {circle_index}; winding undefined"
        )
    with np.errstate(all="ignore"):
        ratios = np.roll(samples, -1) / samples
    total = float(np.sum(np.angle(ratios))) / (2.0 * np.pi)
    nearest = round(total) if np.isfinite(total) else 0
    if not abs(total - nearest) <= 0.1:
        raise WindingAmbiguityError(
            f"phase increments sum to {total:.4f} turns, not close to an "
            "integer; sample the circle more finely"
        )
    return int(nearest)


def _nodewise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[l] @ b[l] at every node l, for stacks (L, p, q) and (L, q, r); a
    constant left factor goes in as a[None].

    Summed over q as broadcast products, which outrun einsum's loops over
    a short, strided axis several times at n = 2, with floating-point
    warnings off, as einsum runs: an entry that overflows is inf, for the
    caller to refuse.
    """
    with np.errstate(all="ignore"):
        out = a[:, :, 0, None] * b[:, None, 0, :]
        for k in range(1, a.shape[2]):
            out += a[:, :, k, None] * b[:, None, k, :]
    return out


def _matrix_values(fn: Callable, points: np.ndarray) -> np.ndarray:
    """An evaluator's values at P points, as a (P, n, n) array.

    fn is called once, on the 1-D array of points, and returns (P, n, n),
    a constant (n, n), (P,) for a 1x1 matrix, or a scalar, with
    floating-point warnings off: a value that is not finite is the
    caller's to refuse (JumpData does).
    """
    pts = np.atleast_1d(np.asarray(points, dtype=np.complex128))
    with np.errstate(all="ignore"):
        vals = np.asarray(fn(pts), dtype=np.complex128)
    if vals.ndim < 2:
        vals = vals.reshape(vals.shape + (1, 1))
    n = vals.shape[-1]
    if vals.ndim > 3 or vals.shape[-2] != n:
        raise ValueError(f"evaluator gave shape {vals.shape} at {pts.size} points")
    return np.broadcast_to(vals, (pts.size, n, n)).copy()


@dataclass(eq=False)
class GridFunction:
    """Matrix-valued samples on the nodes of a contour system.

    values has shape (total_nodes, n, n); scalars are stored as 1x1
    matrices.  Instances are cheap containers; arithmetic is pointwise in
    the node index, with * acting as the nodewise matrix product.
    """

    system: ContourSystem
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.ndim == 1:
            v = v[:, None, None]
        if v.ndim != 3 or v.shape[1] != v.shape[2]:
            raise ValueError(f"values must have shape (N, n, n), got {v.shape}")
        if v.shape[0] != self.system.total_nodes:
            raise AlignmentError(
                f"{v.shape[0]} samples for a system with "
                f"{self.system.total_nodes} nodes"
            )
        self.values = v

    @classmethod
    def sample(cls, system: ContourSystem, fn: Callable) -> "GridFunction":
        """Sample an evaluator at all nodes with one call (see _matrix_values)."""
        return cls(system, _matrix_values(fn, system.all_points()))

    @classmethod
    def constant(cls, system: ContourSystem, mat) -> "GridFunction":
        m = np.atleast_2d(np.asarray(mat, dtype=np.complex128))
        return cls(system, np.broadcast_to(m, (system.total_nodes, *m.shape)).copy())

    @classmethod
    def identity(cls, system: ContourSystem, dim: int) -> "GridFunction":
        return cls.constant(system, np.eye(dim))

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def scalar(self) -> np.ndarray:
        if self.dim != 1:
            raise ValueError("not a scalar grid function")
        return self.values[:, 0, 0]

    def restrict(self, circle_index: int) -> np.ndarray:
        return self.values[self.system.node_slices()[circle_index]]

    def _check(self, other: "GridFunction"):
        if self.system != other.system:
            raise AlignmentError("grid functions live on different systems")

    def __add__(self, other):
        self._check(other)
        return GridFunction(self.system, self.values + other.values)

    def __sub__(self, other):
        self._check(other)
        return GridFunction(self.system, self.values - other.values)

    def __mul__(self, other):
        """Nodewise matrix product, or scaling by a constant."""
        if isinstance(other, GridFunction):
            self._check(other)
            return GridFunction(self.system, _nodewise(self.values, other.values))
        return GridFunction(self.system, self.values * other)

    def inv(self) -> "GridFunction":
        return GridFunction(self.system, np.linalg.inv(self.values))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


@dataclass(eq=False)
class CauchyProjectors:
    """Dense node-to-node realizations of the boundary projections;
    minus_matrix is plus_matrix - Id (see the module docstring).  The
    solver never builds them: they are the node-space reference for
    checks of its Fourier-basis operator."""

    system: ContourSystem
    plus_matrix: np.ndarray

    @property
    def minus_matrix(self) -> np.ndarray:
        n = self.plus_matrix.shape[0]
        return self.plus_matrix - np.eye(n, dtype=np.complex128)


def _cross_block(targets: np.ndarray, source: Circle) -> np.ndarray:
    return _I2PI * source.weights()[None, :] / (
        source.points()[None, :] - targets[:, None]
    )


def build_projectors(system: ContourSystem) -> CauchyProjectors:
    """plus_matrix filled one circle pair at a time: _cross_block off the
    diagonal, the same-circle circulant on it."""
    slices = system.node_slices()
    plus = np.empty((system.total_nodes,) * 2, dtype=np.complex128)
    for i, (circle, rows, inside) in enumerate(
        zip(system.circles, slices, system.plus_inside)
    ):
        for j, (source, nodes) in enumerate(zip(system.circles, slices)):
            if j != i:
                plus[rows, nodes] = _cross_block(circle.points(), source)
        # a circulant: column l holds the kept modes of the unit sample at node l
        mask = plus_mode_mask(circle, inside) / circle.node_count
        plus[rows, rows] = scipy.linalg.circulant(circle_values(circle, mask))
    return CauchyProjectors(system, plus)


def _apply(matrix: np.ndarray, f: GridFunction) -> GridFunction:
    return GridFunction(
        f.system, np.tensordot(matrix, f.values, axes=(1, 0))
    )


def apply_plus(proj: CauchyProjectors, f: GridFunction) -> GridFunction:
    if proj.system != f.system:
        raise AlignmentError("projector and grid function systems differ")
    return _apply(proj.plus_matrix, f)


def apply_minus(proj: CauchyProjectors, f: GridFunction) -> GridFunction:
    if proj.system != f.system:
        raise AlignmentError("projector and grid function systems differ")
    return _apply(proj.minus_matrix, f)


def too_close(system: ContourSystem, z) -> np.ndarray:
    """Mask of the points within MARGIN_FACTOR node spacings of a circle."""
    z = np.asarray(z)
    out = np.zeros(z.shape, dtype=bool)
    for c in system.circles:
        out |= c.distance(z) < MARGIN_FACTOR * c.spacing()
    return out


def check_margin(system: ContourSystem, z) -> None:
    """Enforce the quadrature safety margin around every circle.

    z is a point or an array of points; the error names the first point
    that violates the margin and the first circle it is too close to.
    """
    bad = too_close(system, z).reshape(-1)
    if not np.any(bad):
        return
    point = np.asarray(z).reshape(-1)[np.argmax(bad)]
    for c in system.circles:
        if c.distance(point) < MARGIN_FACTOR * c.spacing():
            raise TooCloseToContourError(
                f"point {point} is within {MARGIN_FACTOR} node spacings of "
                f"the circle centered at {c.center} (radius {c.radius})"
            )


def cauchy_offcontour(f: GridFunction, z) -> np.ndarray:
    """Off-contour Cauchy transform (1/2*pi*1j) * integral f(w)/(w-z) dw.

    z is a point or an array of P points; the result is (n, n) for a point
    and (P, n, n) for an array.  The kernel is the trapezoid rule of
    _cross_block, applied to EVAL_BLOCK points at a time so that memory
    stays bounded on large grids.  The density is laid out entries-major
    once, (n n, total_nodes), so that each entry's sum over the nodes runs
    along contiguous memory.  The sum is einsum's, not BLAS's: a BLAS
    product may round a row differently by the size of its block, and
    then a point's value would depend on the points evaluated with it.
    A point closer than MARGIN_FACTOR node spacings to a circle, where
    the quadrature degrades, raises TooCloseToContourError (check_margin).
    """
    check_margin(f.system, z)
    pts = np.asarray(z, dtype=np.complex128)
    flat = pts.reshape(-1)
    density = np.ascontiguousarray(f.values.reshape(len(f.values), -1).T)
    out = np.empty((flat.size, density.shape[0]), dtype=np.complex128)
    for start in range(0, flat.size, EVAL_BLOCK):
        block = flat[start : start + EVAL_BLOCK]
        kern = np.concatenate(
            [_cross_block(block, c) for c in f.system.circles], axis=1
        )
        out[start : start + block.size] = np.einsum("pl,kl->pk", kern, density)
    return out.reshape(pts.shape + f.values.shape[1:])


def _boundary_values(system, values, circle_index, angles, same_circle):
    """(C+(g), C-(g)) at angles of one circle: same_circle maps the split
    coefficients (kept modes, minus the others) to values there, and each
    other circle's quadrature is added to both."""
    circle = system.circles[circle_index]
    slices = system.node_slices()
    coeffs = circle_coefficients(circle, values[slices[circle_index]])
    keep = plus_mode_mask(circle, system.plus_inside[circle_index])[:, None, None]
    out = same_circle(np.stack([coeffs * keep, -coeffs * ~keep], axis=1))
    pts = circle.point_at(angles)
    for j, cj in enumerate(system.circles):
        if j != circle_index:
            block = _cross_block(pts, cj)
            out += np.tensordot(block, values[slices[j]], axes=(1, 0))[:, None]
    return out[:, 0], out[:, 1]


def boundary_values_on_circle(
    system: ContourSystem,
    values: np.ndarray,
    circle_index: int,
    angles: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(C+(g), C-(g)) at arbitrary angles of one circle (such as mirrored
    nodes), the same-circle part from one dense basis (synthesize)."""
    circle = system.circles[circle_index]
    angles = np.asarray(angles, dtype=float)
    return _boundary_values(
        system, values, circle_index, angles,
        lambda split: synthesize(circle, split, angles),
    )


def boundary_values_at_midpoints(
    system: ContourSystem, values: np.ndarray, circle_index: int
) -> tuple[np.ndarray, np.ndarray]:
    """(C+(g), C-(g)) at one circle's node angles shifted by sign*pi/m,
    the midpoints: mode k times exp(1j*k*shift), then one circle_values."""
    circle = system.circles[circle_index]
    shift = circle.sign * np.pi / circle.node_count
    phase = np.exp(1j * shift * fourier_modes(circle.node_count))[:, None, None, None]
    return _boundary_values(
        system, values, circle_index, circle.angles() + shift,
        lambda split: circle_values(circle, split * phase),
    )
