"""Matrix Riemann-Hilbert problems on circle systems.

A problem asks for a sectionally holomorphic m with boundary values
m_plus = m_minus * v on the contour and m = h at infinity.  With a
splitting v = (I - w_minus)^(-1) (I + w_plus) it reduces to the singular
integral equation

    mu - C+(mu w_minus) - C-(mu w_plus) = h,

after which m_plus = mu (I + w_plus), m_minus = mu (I - w_minus), and the
off-contour extension is h plus the Cauchy transform of
mu (w_plus + w_minus).  Right multiplication never couples the rows of
mu, so one (N*n) x (N*n) operator T serves all n rows.  T is taken in
the per-circle unitary Fourier basis, where each circle's own Cauchy
projections are diagonal; its block Q_ij between circles i and j is the
trapezoid kernel of that one circle pair (_cross_block), so T is
assembled circle pair by circle pair.  On one circle with at most one
nonzero splitting half, T is block-triangular there, and a solve with T
is one with the finite Toeplitz section of the jump's symbol, of order
N*n/2.
On any other problem, a component whose row of w_plus and of w_minus is
zero on a whole circle never meets a cross block, so its columns of T
are unit vectors, and a solve with T is one with T less them (the pole
circles' unipotent triangular jumps of the IDNLS pipeline give such
columns).  So T takes one of two block-triangular forms, identity rows
or identity columns; a T with neither is the identity-columns form with
no unit columns.

How the smallest singular value of T is obtained is part of the
answer (RHSolution.sigma_source), and it decides how T is solved.  On
that one-circle path a symbol whose Hermitian part is positive definite
at every node (the source paper's hypothesis Re v > 0) bounds
sigma_min(T) from below by its node samples alone (_positivity_bound).
Where that certifies T, the section is applied matrix-free by FFTs and
solved by preconditioned GMRES (_KrylovSection), whose answer is final;
nothing is built, factored or estimated.  Every other problem builds T,
or the section, less its identity rows or columns, and factors the rest
once per solve (_ToeplitzLU): one step of
inverse iteration bounds sigma_min from above, and a Lanczos run on the
LU gives it when that bound does not already certify the operator as
near singular.  The LU solves only by trsv pairs, and its solve is the
answer: T is assembled in one place (_operator_rows) and never applied.

A square section of a symbol that winds loses modes at the Nyquist seam
of its mode set, so where det v winds on several circles and the
windings sum to zero, T has an alias kernel although the problem is
uniquely solvable.
The equation rows and unknown columns of those modes are left out of T
before its LU (_left_out, from the windings of a triangular jump's
diagonal, or else from T's null vectors), and the unknowns left out are
0; the plain LU flow then runs on the reduced operator.

Jump data carries closed-form evaluators alongside node samples.  That is
what makes the reported jump residual meaningful: at the collocation nodes
the identity m_plus = m_minus v holds to rounding by construction, so the
residual is instead measured at inter-node midpoints where discretization
error actually shows up, with v re-evaluated from its closed form.  The
midpoints are each circle's nodes shifted by half a spacing, so the
boundary values there take one phase-shifted inverse FFT per circle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse.linalg
from numpy.lib.stride_tricks import sliding_window_view

from .cauchy import (
    GridFunction,
    _cross_block,
    _winding,
    _matrix_values,
    _nodewise,
    boundary_values_at_midpoints,
    boundary_values_on_circle,
    cauchy_offcontour,
    circle_coefficients,
    circle_values,
)
from .contour import ContourSystem, invert_circle
from .errors import (
    AlignmentError,
    EvalError,
    NearSingularOperatorError,
    NotInversionInvariantContourError,
    RankAmbiguityError,
    SingularJumpError,
    WindingAmbiguityError,
)

DELTA_INV = 1e-10
SIGMA_MIN = 1e-8
TAU_RANK = 1e-7
CONST_TOL = 1e-6
SYM_TOL = 1e-10
PAIR_TOL = 1e-8
# Largest band-limited content |E^H r| of a null vector that still counts
# as a discretization alias.  Genuine kernels of analytic problems score
# about 1, Nyquist aliases below 1e-6.
ALIAS_BAND_CONTENT = 1e-3
# Rounding margin of the positivity certificate, in ulps of S m for S the
# symbol's largest norm over its m nodes: the FFT that builds the section
# errs by about log2(m) ulps of S per coefficient, and a section's norm
# adds up m coefficients.
POSITIVITY_MARGIN_ULPS = 16


def _check_tolerance(name: str, value: float):
    """Refuse a tolerance that is not finite and > 0 with ValueError."""
    if not (np.isfinite(value) and value > 0.0):
        raise ValueError(f"tolerance {name} must be finite and > 0, got {value}")


def matrix_at(z, rows) -> np.ndarray:
    """The matrix of entries rows[a][b] at a point z, giving (n, n), or at
    each of P points, giving (P, n, n).

    Each entry is a scalar or an array of the shape of z.
    """
    n = len(rows)
    out = np.empty(np.shape(z) + (n, n), dtype=np.complex128)
    for a, row in enumerate(rows):
        for b, entry in enumerate(row):
            out[..., a, b] = entry
    return out


@dataclass(eq=False)
class JumpData:
    """Jump matrix v: node samples plus per-circle closed-form evaluators.

    An evaluator is called once per circle on points on or near it (see
    _matrix_values).  The midpoint residual and the inversion-symmetry
    check re-evaluate them instead of interpolating samples.  Samples
    that are not finite are refused (EvalError, naming the circle)
    before |det v| is checked, which a NaN would pass; it is checked as
    log|det v| (slogdet), which entries near 1e200 do not overflow,
    against the log of delta_inv, which must be finite and > 0.
    """

    v: GridFunction
    evaluators: tuple
    delta_inv: float = DELTA_INV

    def __post_init__(self):
        for circle, nodes in zip(self.system.circles, self.system.node_slices()):
            if not np.all(np.isfinite(self.v.values[nodes])):
                raise EvalError(f"jump samples are not finite on {circle}")
        _check_tolerance("delta_inv", self.delta_inv)
        bad = np.linalg.slogdet(self.v.values)[1] < np.log(self.delta_inv)
        if np.any(bad):
            raise SingularJumpError(
                f"|det v| < {self.delta_inv} at {int(bad.sum())} node(s)"
            )
        if len(self.evaluators) != len(self.system.circles):
            raise ValueError("need one evaluator per circle")

    @property
    def system(self) -> ContourSystem:
        return self.v.system

    @classmethod
    def from_evaluator(
        cls, system: ContourSystem, fn: Callable, delta_inv: float = DELTA_INV
    ) -> "JumpData":
        return cls.from_evaluators(system, (fn,) * len(system.circles), delta_inv)

    @classmethod
    def from_evaluators(
        cls,
        system: ContourSystem,
        fns: Sequence[Callable],
        delta_inv: float = DELTA_INV,
    ) -> "JumpData":
        fns = tuple(fns)
        if len(fns) != len(system.circles):
            raise ValueError("need one evaluator per circle")
        values = [_matrix_values(f, c.points()) for f, c in zip(fns, system.circles)]
        return cls(GridFunction(system, np.concatenate(values)), fns, delta_inv)

    def at(self, circle_index: int, points) -> np.ndarray:
        """Circle circle_index's evaluator at P points, as (P, n, n)."""
        return _matrix_values(self.evaluators[circle_index], points)


@dataclass(eq=False)
class FactorizationData:
    """Splitting v = b_minus^(-1) b_plus with b_pm = I +- w_pm.

    det b_pm is not checked again: trivial_splitting makes each of them
    v, v^(-1) or I, and JumpData has checked det v against its delta_inv.
    """

    w_plus: GridFunction
    w_minus: GridFunction
    jump: JumpData

    def __post_init__(self):
        if self.w_plus.system != self.w_minus.system:
            raise AlignmentError("w_plus and w_minus on different systems")

    @property
    def system(self) -> ContourSystem:
        return self.w_plus.system

    @property
    def dim(self) -> int:
        return self.w_plus.dim

    def b_plus(self) -> GridFunction:
        return GridFunction.identity(self.system, self.dim) + self.w_plus

    def b_minus(self) -> GridFunction:
        return GridFunction.identity(self.system, self.dim) - self.w_minus


def trivial_splitting(v: JumpData, side: str = "plus") -> FactorizationData:
    """Put the whole jump on one side: b+ = v (plus) or b- = v^(-1) (minus)."""
    system, n = v.system, v.v.dim
    zero = GridFunction.constant(system, np.zeros((n, n)))
    eye = GridFunction.identity(system, n)
    if side == "plus":
        return FactorizationData(v.v - eye, zero, v)
    if side == "minus":
        return FactorizationData(zero, eye - v.v.inv(), v)
    raise ValueError("side must be 'plus' or 'minus'")


@dataclass(eq=False)
class RHProblem:
    """Splitting data, on its contour, and the constant normalization at
    infinity.

    band_sigma_lower_bound is None until a solve returns; it is then a
    lower bound on the singular values of the band slices of T that
    index_diagnostics would count, which it reads instead: the positivity
    certificate of a one-circle section, or else the Lanczos value of T,
    or of T less the rows and columns the solve left out.  Those lie
    outside the band (|k| <= m/4 on each circle), so by interlacing the
    band slices' values are at least that value too.  A one-step
    inverse-iteration bound, a failed Lanczos run or a refused solve
    never sets it.
    """

    data: FactorizationData
    h: np.ndarray | None = None
    band_sigma_lower_bound: float | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        n = self.data.dim
        if self.h is None:
            self.h = np.eye(n, dtype=np.complex128)
        else:
            self.h = np.atleast_2d(np.asarray(self.h, dtype=np.complex128))
            if self.h.shape != (n, n):
                raise ValueError(f"h must be {n}x{n}")
            if not np.all(np.isfinite(self.h)):
                raise ValueError("h must be finite")

    @property
    def system(self) -> ContourSystem:
        return self.data.system

    @classmethod
    def from_jump(
        cls, v: JumpData, h=None, side: str = "plus"
    ) -> "RHProblem":
        return cls(trivial_splitting(v, side), h)


@dataclass(eq=False)
class RHSolution:
    """Solved singular integral equation plus derived boundary values.

    residual_jump is the maximum of |m_plus - m_minus v| over inter-node
    midpoints, with v in closed form (see the module docstring).
    solver_path is "krylov" for a solve by GMRES on a positivity-certified
    one-circle section (_KrylovSection), whose answer is final, and "lu"
    for a solve by the LU of T in the Fourier basis (_ToeplitzLU), less
    the Nyquist-seam rows and columns of an alias kernel where the solve
    left them out.
    smallest_singular_value is a bound on or value of sigma_min of the
    operator solved, and sigma_source says which:
      "positivity": on one circle with one zero splitting half, the
        lower bound _positivity_bound takes from the section symbol's
        node samples, used whenever it is at least sigma_min, and then
        always with solver_path "krylov";
      "lanczos": the Lanczos value on the LU, with solver_path "lu".  Where
        rows and columns were left out it is sigma_min of T less them,
        which is T's second smallest singular value for an alias kernel
        of one direction.
    operator_order is T's own order, N n for N nodes in all and n x n
    jumps, on either path.  factored_order is the order of the matrix
    LU-factored: T's order less its identity rows or columns
    (_operator_rows) on the LU path, and 0 on the Krylov path, where
    nothing is factored.
    m_plus = mu b_plus and m_minus = mu b_minus, the boundary values at
    the nodes, are computed on first read and kept.
    """

    problem: RHProblem
    mu: GridFunction
    residual_jump: float
    smallest_singular_value: float
    sigma_source: str
    solver_path: str
    operator_order: int
    factored_order: int
    cauchy_density: GridFunction = field(repr=False)

    @cached_property
    def m_plus(self) -> GridFunction:
        return self.mu * self.problem.data.b_plus()

    @cached_property
    def m_minus(self) -> GridFunction:
        return self.mu * self.problem.data.b_minus()

    @property
    def system(self) -> ContourSystem:
        return self.problem.system

    @property
    def h(self) -> np.ndarray:
        return self.problem.h

    def boundary_values(
        self, circle_index: int, angles
    ) -> tuple[np.ndarray, np.ndarray]:
        """(m_plus, m_minus) at arbitrary angles of one circle, each
        (P, n, n); at the circle's node angles they reproduce the node
        samples m_plus and m_minus."""
        plus, minus = boundary_values_on_circle(
            self.system, self.cauchy_density.values, circle_index, angles
        )
        return plus + self.h, minus + self.h

    def evaluate(self, z) -> np.ndarray:
        return evaluate_m(self, z)


def evaluate_m(sol: RHSolution, z) -> np.ndarray:
    """m(z) = h + Cauchy transform of mu (w_plus + w_minus) off the contour.

    z is a point, giving (n, n), or an array of P points, giving
    (P, n, n).  Points within MARGIN_FACTOR node spacings of a circle
    (distance < MARGIN_FACTOR * spacing) raise TooCloseToContourError.
    """
    return sol.h + cauchy_offcontour(sol.cauchy_density, z)


def _midpoint_residual(p: RHProblem, sol: RHSolution) -> float:
    worst = 0.0
    for i, c in enumerate(p.system.circles):
        pts = c.point_at(c.angles() + c.sign * np.pi / c.node_count)
        plus, minus = boundary_values_at_midpoints(
            p.system, sol.cauchy_density.values, i
        )
        v_mid = p.data.jump.at(i, pts)
        gap = plus + sol.h - _nodewise(minus + sol.h, v_mid)
        # np.maximum, not max: a NaN gap must not read as a zero residual
        worst = float(np.maximum(worst, np.max(np.abs(gap))))
    return worst


def _start_vector(order: int) -> np.ndarray:
    # Seeded, so reports are deterministic.  Random, because a constant
    # vector has no Nyquist content and misses the alias null vector.
    rng = np.random.default_rng(0)
    return rng.standard_normal(order) + 1j * rng.standard_normal(order)


def _lanczos_sigma_min(apply, start: np.ndarray) -> float | None:
    """sigma_min of an operator A by Lanczos on (A^H A)^(-1).

    apply(y) returns (A^H A)^(-1) y.  ARPACK finds the largest eigenvalue
    theta = 1/sigma_min**2 of that inverse Gram operator from the start
    vector start, whose size is A's order, restarting a
    Krylov space of at most 12 vectors, and stops once the Ritz residual
    r has |r| <= 1e-8 theta.  The operator is Hermitian, so the Ritz
    value is then off by at most |r|**2 / gap, for gap its distance to
    the rest of the spectrum: rounding level unless the largest
    eigenvalues cluster.  Returns sigma_min, or None
    when the run fails (no convergence, or an ARPACK error such as the
    one an inverse Gram operator that underflows to zero gives) or gives
    an eigenvalue that is not finite and positive.
    """
    order = start.size
    gram_inverse = scipy.sparse.linalg.LinearOperator(
        (order, order), matvec=apply, dtype=np.complex128
    )
    try:
        found = scipy.sparse.linalg.eigsh(
            gram_inverse,
            k=1,
            which="LM",
            v0=start,
            ncv=min(12, order),
            tol=1e-8,
            return_eigenvectors=False,
        )
    except scipy.sparse.linalg.ArpackError:
        return None
    (lam,) = found
    if not (np.isfinite(lam) and lam > 0.0):
        return None
    return float(1.0 / np.sqrt(lam))


def _lu_vector_solver(lu) -> Callable:
    """apply(y, adjoint=False): T^(-1) y, or T^(-H) y, for one vector y
    by two BLAS trsv calls on the factors of scipy.linalg.lu_factor.

    lu_solve sends a single column through getrs and so through trsm,
    which is slower than trsv on the same factors.  The row permutation
    of piv and its inverse are built once here, not per call, and the
    factors are Fortran-ordered, so no call copies them.  y is never
    overwritten.  A zero pivot gives non-finite output, not an error.
    """
    factors, piv = lu
    trsv = scipy.linalg.get_blas_funcs("trsv", (factors,))
    perm = np.arange(factors.shape[0])
    for i, j in enumerate(piv):
        perm[i], perm[j] = perm[j], perm[i]
    inverse = np.argsort(perm)

    def apply(y, adjoint=False):
        if adjoint:
            w = trsv(factors, y, trans=2)
            w = trsv(factors, w, trans=2, lower=1, diag=1, overwrite_x=1)
            return w[inverse]
        w = trsv(factors, y[perm], lower=1, diag=1, overwrite_x=1)
        return trsv(factors, w, overwrite_x=1)

    return apply


def _by_circle(system: ContourSystem, y, transform, per_node: int) -> np.ndarray:
    """transform(circle, part) on each circle's rows of y, per_node rows to
    a node, where part holds the circle's nodes along axis 0."""
    out = np.empty(y.shape, dtype=np.complex128)
    for circle, nodes in zip(system.circles, system.node_slices()):
        rows = slice(nodes.start * per_node, nodes.stop * per_node)
        part = y[rows].reshape(circle.node_count, per_node, *y.shape[1:])
        out[rows] = transform(circle, part).reshape(-1, *y.shape[1:])
    return out


def _to_unitary(circle, part):
    return circle_coefficients(circle, part) * np.sqrt(circle.node_count)


def _from_unitary(circle, part):
    return circle_values(circle, part / np.sqrt(circle.node_count))


def _half_rows(coeffs: np.ndarray, k0: int, n: int) -> np.ndarray:
    """T's rows at the modes k0, ..., k0 + m/2 - 1 of one circle (one half
    of its modes in storage order), within that circle's columns, as the
    transposed (m, n, m/2 * n) view [j, c, (k, b)] = s_(k-j)[c, b]: s_k
    are the circle_coefficients coeffs of the symbol, mode indices modulo
    m.

    That entry is ext[c, m - 1 - j + k - k0, b], with ext the coefficients
    from mode k0 - m + 1 on, laid out (c, k, b), so each (j, c) row is one
    contiguous slice of ext[c].
    """
    m = coeffs.shape[0]
    r = m // 2
    ext = coeffs[(k0 - m + 1 + np.arange(m + r - 1)) % m].transpose(1, 0, 2)
    ext = ext.reshape(n, (m + r - 1) * n)
    window = sliding_window_view(ext, r * n, axis=1)[:, ::n][:, ::-1]
    return window.transpose(1, 0, 2)


def _one_circle_section(p: RHProblem) -> tuple[slice, slice, Callable] | None:
    """(rows, fixed, symbol) on one circle with at most one nonzero
    splitting half, None for every other problem.

    There the other half's symbol is I, so in the circle's Fourier basis
    T = [[I, 0], [B, A]] on the basis slices (fixed, rows), with A the
    finite section of the Toeplitz operator of symbol(), b_minus on the
    kept modes K when w_minus is nonzero, else b_plus on the others O.
    """
    data, circles = p.data, p.system.circles
    minus_half = np.any(data.w_minus.values)
    if len(circles) > 1 or (minus_half and np.any(data.w_plus.values)):
        return None
    order = p.system.total_nodes * data.dim
    halves = slice(0, order // 2), slice(order // 2, order)
    # C+ keeps the first half of the modes exactly where the plus side is inside
    rows, fixed = halves if minus_half == p.system.plus_inside[0] else halves[::-1]
    return rows, fixed, data.b_minus if minus_half else data.b_plus


def _kept_components(p: RHProblem) -> list[np.ndarray]:
    """Per circle, the components c whose row of w_plus or of w_minus is
    nonzero at some node of the circle, in increasing order.

    In every other component x b_plus = x b_minus = x and x (w_plus +
    w_minus) = 0 for x on the circle alone, so T's columns there are unit
    vectors of the basis.  The rule reads exact zeros: a row with one
    entry of 1e-300 is kept.
    """
    return [
        np.flatnonzero(
            np.any(p.data.w_plus.values[nodes], axis=(0, 2))
            | np.any(p.data.w_minus.values[nodes], axis=(0, 2))
        )
        for nodes in p.system.node_slices()
    ]


@np.errstate(all="ignore")
def _operator_rows(p: RHProblem) -> tuple:
    """T in the per-circle Fourier basis as its pieces: A, T at the basis
    indices kept, and its coupling block b, with T's identity block, at
    the basis indices unit, left out.

    The basis is each circle's unitary Fourier basis (circle_coefficients
    times sqrt(m), modes in storage order, n components per mode), circle
    after circle.  For K the modes C+ keeps on circle i and O the others,
    C+ there is P_K and C- = C+ - I is -P_O, while another circle j's C+
    and C- are both the trapezoid quadrature Q_ij, _cross_block of that
    one circle pair:

        (T x)_i = P_K(x_i b_minus) + P_O(x_i b_plus)
                  - sum_(j != i) Q_ij(x_j (w_plus + w_minus)).

    T takes one of two forms on (unit, kept):
    - where _one_circle_section finds T = [[I, 0], [B, A]], kept and unit
      are the two halves of the modes, and b is B: T's rows at kept,
      split by the half of their source mode;
    - otherwise, on the columns of the components _kept_components
      leaves out, which are unit vectors, T = [[I, C], [0, A]], the
      mirror image, and b is C: T's columns at kept, split by (target
      circle, component), so that each target (circle, component) is one
      strided run of rows of A or of C.
    A problem with neither keeps all of T in A, the second form with
    unit empty and C of no rows.

    A and b are written in place, one source circle j's columns at a
    time, and nothing else of T is built.  K and O are each one half of
    the modes, and a half's rows of the self block are gathered from one
    FFT of its symbol on circle j (_half_rows).  A cross block is Q_ij
    with its target rows through one FFT of circle i and its source
    columns through one FFT of circle j per entry (c, b) of w_plus +
    w_minus that is nonzero somewhere on circle j; an entry that is zero
    on the whole circle gives an exact zero block and is skipped.

    Returns (a, b, kept, unit): A and b as F-ordered arrays, A the one
    lu_factor(overwrite_a=True) factors in place, and kept and unit each
    a slice or an increasing index array.  Transforms run with
    floating-point warnings off: a value that overflows reaches
    lu_factor, which refuses it, or _ToeplitzLU's check on b.
    """
    system, n = p.system, p.data.dim
    circles, slices = system.circles, system.node_slices()
    order = system.total_nodes * n
    section = _one_circle_section(p)
    if section is not None:
        rows, fixed, symbol = section
        circle = circles[0]
        r = circle.node_count // 2
        coeffs = circle_coefficients(circle, symbol().values)
        half = _half_rows(coeffs, rows.start // n, n)
        # A^T and B^T, C-ordered: the rows of the source modes in rows and
        # in fixed, [column (j, c), row (k, b)]
        a, b = (np.empty((r * n, r * n), dtype=np.complex128) for _ in range(2))
        for out, modes in ((a, rows), (b, fixed)):
            out.reshape(r, n, r * n)[...] = half[modes.start // n : modes.stop // n]
        return a.T, b.T, rows, fixed

    components = _kept_components(p)
    others = [np.setdiff1d(np.arange(n), k) for k in components]
    kept, unit = slice(0, order), slice(0, 0)
    if any(map(len, others)):
        kept, unit = (
            np.concatenate(
                [(np.arange(nodes.start, nodes.stop)[:, None] * n + k).ravel()
                 for nodes, k in zip(slices, parts)]
            )
            for parts in (components, others)
        )
    # each circle's first row in A (its kept components) and in C (the others)
    starts = [
        np.cumsum([0] + [c.node_count * len(k) for c, k in zip(circles, parts)])
        for parts in (components, others)
    ]
    # A^T and C^T, C-ordered: [column (j, c), row (i, k, b)]; the self
    # blocks fill one circle's rows, and only skipped cross blocks need
    # the zeros
    alloc = np.zeros if len(circles) > 1 else np.empty
    at, ct = (alloc((starts[0][-1], s[-1]), dtype=np.complex128) for s in starts)
    w = (p.data.w_plus + p.data.w_minus).values
    symbols = [g().values for g in (p.data.b_minus, p.data.b_plus)]
    for j, (circle, nodes, inside, k) in enumerate(
        zip(circles, slices, system.plus_inside, components)
    ):
        m = circle.node_count
        # circle j's kept columns of A and of C, (m, components, rows)
        cols = [
            x[starts[0][j] : starts[0][j + 1]].reshape(m, len(k), x.shape[1])
            for x in (at, ct)
        ]

        def target(i, b):
            # circle i's rows of component b: (m, components, circle i's m)
            part = int(b not in components[i])
            parts, first = (components, others)[part][i], starts[part][i]
            row = first + np.searchsorted(parts, b)
            return cols[part][:, :, row : starts[part][i + 1] : len(parts)]

        # the self block: C+ keeps the first half of the modes where the
        # plus side is inside
        for k0, symbol in zip((0, m // 2), symbols[:: 1 if inside else -1]):
            half = _half_rows(circle_coefficients(circle, symbol[nodes]), k0, n)
            half = half.reshape(m, n, m // 2, n)
            half = half if len(k) == n else half[:, k]
            for b in range(n):
                target(j, b)[:, :, k0 : k0 + m // 2] = half[..., b]
        # the cross blocks; T's minus sign and the 1/sqrt(m) of F^H folded into w
        wj = w[nodes] / -np.sqrt(m)
        entries = list(zip(*np.nonzero(np.any(wj, axis=0))))
        for i, other in enumerate(circles):
            if i == j or not entries:
                continue
            q = _to_unitary(other, _cross_block(other.points(), circle))
            # c is kept: its row of w_plus + w_minus is nonzero
            for c, b in entries:
                # times F^H from the right: circle_values along the source
                # axis, since F, a DFT, is symmetric
                source = circle_values(circle, (q * wj[:, c, b]).T)
                target(i, b)[:, np.searchsorted(k, c)] = source
    return at.T, ct.T, kept, unit


def _operator(p: RHProblem) -> np.ndarray:
    """All of T in the basis of _operator_rows: the identity, with A and
    the coupling block b written in at their basis indices."""
    a, b, kept, unit = _operator_rows(p)
    full = np.eye(p.system.total_nodes * p.data.dim, dtype=np.complex128)
    kept, unit = (np.arange(full.shape[0])[i] for i in (kept, unit))
    full[np.ix_(kept, kept)] = a
    if _one_circle_section(p) is not None:
        full[np.ix_(kept, unit)] = b
    else:
        full[np.ix_(unit, kept)] = b
    return full


def _hermitian_extremes(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The least and the largest eigenvalue of each Hermitian h, (m, n,
    n): in closed form for n <= 2, which takes a twentieth of the time of
    numpy's batched eigensolver at 512 nodes and none of the memory its
    first call maps in, and by that eigensolver otherwise."""
    if h.shape[1] > 2:
        lam = np.linalg.eigvalsh(h)
        return lam[:, 0], lam[:, -1]
    a, d = h[:, 0, 0].real, h[:, -1, -1].real
    mean, radius = 0.5 * a + 0.5 * d, 0.0
    if h.shape[1] == 2:
        radius = np.hypot(0.5 * a - 0.5 * d, np.abs(h[:, 0, 1]))
    return mean - radius, mean + radius


def _positivity_bound(s: np.ndarray) -> float | None:
    """A lower bound on sigma_min(T) for T = [[I, 0], [B, A]] from the
    node samples s, (m, n, n), of the symbol of A's section, or None when
    they certify nothing.

    In the circle's Fourier basis [B, A] are rows of the block circulant
    that the samples make, which the unitary Fourier map takes to the
    block diagonal of the s_l^T; A is a principal block of it.  So if
    (s_l + s_l^H)/2 >= delta I at every node, Re A >= delta I and
    sigma_min(A) >= delta, and ||B|| <= S, the largest ||s_l||_2.  Then
    |T^(-1) (u, y)|^2 = |u|^2 + |A^(-1) (y - B u)|^2 gives

        sigma_min(T) >= (1 + (1 + S^2) / delta^2)^(-1/2)
                      = delta / sqrt(delta^2 + 1 + S^2).

    delta is taken less POSITIVITY_MARGIN_ULPS ulps of S m, for the
    rounding of the FFTs that build A from s or apply it.  A delta that
    is not positive (the symbol is not positive: Re v takes both signs
    where v winds), or samples that are not finite, give None.  delta and
    S are taken in numpy from s over its largest modulus, and the bound
    by hypot, so that nothing overflows for samples near the edge of the
    double range.
    """
    with np.errstate(all="ignore"):
        scale = np.max(np.abs(s))
        if not (np.isfinite(scale) and scale > 0.0):
            return None
        u = s / scale
        re_u = 0.5 * u + 0.5 * np.conj(np.swapaxes(u, 1, 2))
        delta = scale * np.min(_hermitian_extremes(re_u)[0])
        gram = _nodewise(np.conj(np.swapaxes(u, 1, 2)), u)  # u^H u
        big = scale * np.sqrt(np.max(_hermitian_extremes(gram)[1]))
        delta -= POSITIVITY_MARGIN_ULPS * np.finfo(float).eps * big * s.shape[0]
        if not delta > 0.0:
            return None
        return float(delta / np.hypot(np.hypot(delta, 1.0), big))


def _left_out(p: RHProblem) -> tuple[list, list]:
    """The equation rows and the unknown columns of T, as basis indices,
    that balance its mode sets where det v winds; none where nothing is
    to be left out.

    A square section of a symbol that winds by kappa loses |kappa| modes
    at the Nyquist seam of its mode set, since its Fredholm index is
    nonzero (Boettcher & Silbermann 1999).  Where det v winds on several
    circles and the windings sum to zero, only another circle's coupling
    at that seam, below rounding, makes up for those modes, so T has an
    alias kernel although the problem is uniquely solvable.  On a circle
    whose jump samples are triangular and whose splitting has one nonzero
    half, and whose diagonal windings do not cancel there, a diagonal
    entry b that winds by kappa (in traversal order) leaves out |kappa|
    modes of component b: the modes of that half's projection (P_O for
    b_plus, P_K for b_minus) nearest the seam, as equation rows where
    kappa > 0 and as unknown columns where kappa < 0.  They are left out
    only where each component's windings sum to zero over the circles,
    so that T stays square and each mode lost has a partner in its own
    component.  Windings that cancel on one circle, or between two
    components, meet through the jump's off-diagonal entries, as a
    genuine index pair (diag(z, 1/z)) or as an alias, and a circle whose
    windings cannot be read (it is not triangular, is split on both
    sides, or has an entry that vanishes or is sampled too coarsely) is
    left as it is: there T's null vectors tell the two apart
    (_certified_lu).
    """
    n, data = p.data.dim, p.data
    left_out, balance = ([], []), np.zeros(n, dtype=int)  # equations, unknowns
    for nodes, inside in zip(p.system.node_slices(), p.system.plus_inside):
        s = data.jump.v.values[nodes]
        minus_half = np.any(data.w_minus.values[nodes])
        two_sided = minus_half and np.any(data.w_plus.values[nodes])
        if two_sided or (np.any(np.triu(s, 1)) and np.any(np.tril(s, -1))):
            continue
        try:
            windings = [_winding(s[:, b, b], data.jump.delta_inv) for b in range(n)]
        except (SingularJumpError, WindingAmbiguityError):
            continue
        if not sum(windings):
            continue
        m = nodes.stop - nodes.start
        # the half's storage-order modes start at mode 0, or end at -1:
        # C+ keeps k >= 0 exactly where the plus side is inside
        from_zero = inside == minus_half
        for b, kappa in enumerate(windings):
            k = np.arange(abs(kappa))
            modes = m // 2 - 1 - k if from_zero else m // 2 + k
            left_out[kappa < 0].extend((nodes.start + modes) * n + b)
        balance += windings
    return ([], []) if np.any(balance) else left_out


def _circulant(circle, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The block circulant of the node samples u, (m, n, n), times x in
    the circle's unitary Fourier basis (m n rows, modes in storage
    order, n components per mode, a vector or columns): x's node values
    times u at each node, one inverse FFT and one FFT; its sqrt(m)
    factors cancel."""
    values = circle_values(circle, x.reshape(*u.shape[:2], -1))
    values = _nodewise(np.swapaxes(u, 1, 2), values)
    return circle_coefficients(circle, values).reshape(x.shape)


class _ToeplitzLU:
    """The operator T in the per-circle Fourier basis of _operator_rows,
    factored by one LU of its block outside the identity rows or
    columns, for the problems no positivity certificate covers
    (_certified_section).

    to_basis maps vectors or columns of operator rows (node-major, n
    components per node) into the basis, one FFT per circle, and
    from_basis maps them back; both are unitary.  In the basis it offers
    what solve needs: solve(y, adjoint) for T^(-1) y or T^(-H) y, one
    vector or column at a time by the trsv pairs of _lu_vector_solver,
    its order, and singular, true when the LU met an exact zero pivot.
    solve does not check y: a value that is not finite, or a zero pivot,
    gives output that is not finite, which the module's solve refuses
    and the Lanczos run and the null vectors read as singular.

    A is T at the basis indices kept, the only matrix LU-factored, and
    the identity block is at unit.  T takes one of two forms on (unit,
    kept): identity rows, T = [[I, 0], [B, A]], or identity columns, T =
    [[I, C], [0, A]], and b holds B or C; identity_rows tells the two
    apart.  A T without an identity block is the identity-columns form
    with unit empty: A is T and C has no rows.  T and T^H are then each
    block-triangular, lower or upper, and solve is one substitution for
    both: a lower one subtracts the coupling through b from the kept
    inputs before the solve with A (or A^H), an upper one from the unit
    outputs after it.  An exact zero pivot of A is one of T.  Where
    equation rows and unknown columns are left out (_factor, left_out),
    T above is T less them.

    Only A's LU and b are kept, one assembly per factorization (_build):
    _operator_rows writes A where lu_factor overwrites it, and no other
    copy of T exists but T's rows at the equations left out
    (equation_rows, _factor), which _check_left_out reads.  T is never
    applied.  Subtractions and transforms run with floating-point
    warnings off, as the BLAS and LAPACK calls do.
    """

    def __init__(self, p: RHProblem, left_out=((), ())):
        self.problem, self.system, self.n = p, p.system, p.data.dim
        self.order = p.system.total_nodes * self.n
        self.identity_rows = _one_circle_section(p) is not None
        self._build(*left_out)

    def _build(self, equations=(), unknowns=()):
        """Assemble A and b and factor A less the equations and unknowns
        given (_factor), having dropped any LU and b held before, so that
        a factorization after the first peaks no higher than the first."""
        self.lu = self.b = self._section_vector = self.equation_rows = None
        a, self.b, self.kept, self.unit = _operator_rows(self.problem)
        # lu_factor refuses an A that is not finite; b is refused the same
        # way, since with identity columns a value that overflows can land
        # in C alone
        np.asarray_chkfinite(self.b)
        self._factor(a, equations, unknowns)

    def _factor(self, a, equations=(), unknowns=()):
        """Factor A, given as a, in place, less the equation rows and the
        unknown columns at the basis indices equations and unknowns (as
        many of each, pairwise, all within kept).

        T's rows at the equations are copied first, as equation_rows:
        A's rows, and with identity rows B's (T's rows at kept are [B, A]
        there, and [0, A] with identity columns, which gives None).
        Then each such row and column of a is zeroed but for s where they
        cross, so that the factored A is the reduced one and, decoupled
        from it, s times the identity.  s is the norm of A's first column
        not left out, at least sigma_min of the reduced T, which no
        column's norm undercuts, so that the LU, its Lanczos run and its
        null vectors are those of the reduced T.  b is left as T has it:
        solve zeroes A's inputs at left_out, after any coupling into
        them, so the unknowns left out come back 0 and no B row or C
        column there is read.  a is F-ordered, as _operator_rows writes
        it, so lu_factor makes no copy of it.
        """
        self.left_out = tuple(np.array(i, dtype=int) for i in (equations, unknowns))
        indices = np.arange(self.order)[self.kept]
        eq, unknown = (np.searchsorted(indices, i) for i in self.left_out)
        self.equation_rows = a[eq], self.b[eq] if self.identity_rows else None
        if len(eq):
            first = np.setdiff1d(np.arange(a.shape[1]), unknown)[0]
            scale = scipy.linalg.norm(a[:, first])
            a[eq], a[:, unknown] = 0.0, 0.0
            a[eq, unknown] = scale
        self.lu = scipy.linalg.lu_factor(a, overwrite_a=True)
        self._section_vector = _lu_vector_solver(self.lu)

    @property
    def singular(self) -> bool:
        return not np.all(np.diag(self.lu[0]))

    @np.errstate(all="ignore")
    def to_basis(self, y):
        return _by_circle(self.system, y, _to_unitary, self.n)

    @np.errstate(all="ignore")
    def from_basis(self, x):
        return _by_circle(self.system, x, _from_unitary, self.n)

    def _section_solve(self, y, adjoint):
        """A^(-1) y, or A^(-H) y, a vector or column at a time; y itself
        where A has order 0, all of T being the identity."""
        if not len(y):
            return y
        if y.ndim == 1:
            return self._section_vector(y, adjoint)
        return np.stack([self._section_vector(c, adjoint) for c in y.T], axis=1)

    def _coupled(self, x, adjoint):
        """b x, or b^H x as (x^H b)^H, so that b is read in place."""
        if adjoint:
            return np.conj(np.conj(x).T @ self.b).T
        return self.b @ x

    def solve(self, y, adjoint=False):
        x = np.array(y, dtype=np.complex128)
        kept, unit = self.kept, self.unit
        # [[I, 0], [B, A]] or T^H = [[I, 0], [C^H, A^H]] is lower triangular,
        # [[I, C], [0, A]] or T^H = [[I, B^H], [0, A^H]] upper
        lower = self.identity_rows != adjoint
        with np.errstate(all="ignore"):
            if lower:
                x[kept] -= self._coupled(x[unit], adjoint)
            x[self.left_out[adjoint]] = 0.0  # the equations, or for T^H unknowns
            x[kept] = self._section_solve(x[kept], adjoint)
            if not lower:
                x[unit] -= self._coupled(x[kept], adjoint)
        return x


@np.errstate(all="ignore")
def _gmres(apply, b: np.ndarray, tol: float) -> np.ndarray | None:
    """y with apply(y) = b, for an invertible linear map apply, by GMRES
    from y = 0, or None where a value is not finite.

    The Arnoldi basis is orthogonalized by classical Gram-Schmidt run
    twice (CGS2), two BLAS products per pass, and Givens rotations keep
    the Hessenberg matrix triangular; the last entry of the rotated
    |b| e_1 is the residual norm of the current iterate.  The run stops
    once that is at most tol |b|, at an exact breakdown (the Krylov
    space is then invariant and holds y), or after b.size applies, and
    returns the least-squares iterate of its Krylov space.  After b.size
    applies that space is the whole space, where an invertible map
    leaves no residual, and CGS2 keeps the basis orthogonal to working
    precision, so GMRES is backward stable there (Paige, Rozloznik &
    Strakos 2006) and needs no restart.  A residual or basis norm that
    is not finite ends the run with None, without a floating-point
    warning.  Norms are BLAS nrm2, which scales as it sums.
    """
    beta = scipy.linalg.norm(b, check_finite=False)
    if beta == 0.0:
        return np.zeros_like(b)
    basis = np.empty((min(b.size, 15) + 1, b.size), dtype=np.complex128)
    basis[0] = b / beta
    columns, rotations, g = [], [], [beta]
    for k in range(b.size):
        w = apply(basis[k])
        known = basis[: k + 1]
        h = np.conj(known) @ w
        w -= h @ known
        again = np.conj(known) @ w
        w -= again @ known
        h = list(h + again)
        below = scipy.linalg.norm(w, check_finite=False)
        for i, (c, s) in enumerate(rotations):
            h[i], h[i + 1] = c * h[i] + s * h[i + 1], c * h[i + 1] - np.conj(s) * h[i]
        # the rotation that zeroes h_(k+1,k) = below under h[k]
        c, s = 0.0, 1.0
        if h[k] != 0.0:
            rho = np.hypot(abs(h[k]), below)
            c, s = abs(h[k]) / rho, h[k] / abs(h[k]) * below / rho
        h[k] = c * h[k] + s * below
        rotations.append((c, s))
        columns.append(h)
        g.append(-np.conj(s) * g[k])
        g[k] *= c
        if not np.isfinite(below * abs(g[k + 1])):
            return None
        if abs(g[k + 1]) <= tol * beta or below == 0.0 or k + 1 == b.size:
            break
        if k + 1 == len(basis):  # grown by doubling, as it is needed
            basis = np.concatenate((basis, np.empty_like(basis)))
        basis[k + 1] = w / below
    r = np.zeros((len(columns),) * 2, dtype=np.complex128)
    for j, h in enumerate(columns):
        r[: j + 1, j] = h
    coef = scipy.linalg.solve_triangular(r, np.array(g[:-1]), check_finite=False)
    return coef @ basis[: len(columns)]


def _node_inverses(u: np.ndarray) -> np.ndarray:
    """The inverse of each u_l, (m, n, n): for n = 2 the adjugate over the
    determinant, a sixth of the time of numpy's batched inverse at 512
    nodes, and that inverse otherwise.  The closed form is safe for a
    certified section's u only: it is scaled to max |u| = 1, so nothing
    overflows, and Re u_l > 0 keeps the determinant away from 0."""
    if u.shape[1] != 2:
        return np.linalg.inv(u)
    inv = np.empty_like(u)
    inv[:, 0, 0], inv[:, 1, 1] = u[:, 1, 1], u[:, 0, 0]
    inv[:, 0, 1], inv[:, 1, 0] = -u[:, 0, 1], -u[:, 1, 0]
    inv /= (u[:, 0, 0] * u[:, 1, 1] - u[:, 0, 1] * u[:, 1, 0])[:, None, None]
    return inv


class _KrylovSection:
    """T = [[I, 0], [B, A]] of _one_circle_section on (fixed, rows),
    applied matrix-free and solved by GMRES, for a section whose symbol
    certifies sigma_min(T) >= sigma_lower_bound (_positivity_bound).

    [B, A] are rows of the block circulant of the symbol's node samples
    s, which the unitary Fourier map takes to the block diagonal of the
    s_l^T, so one apply is one inverse FFT, m products of n x n matrices
    and one FFT; T is never built and nothing is factored.  A is solved
    by _gmres preconditioned from the right with the section of the
    circulant of s^(-1), so GMRES minimizes A's true residual.  Re s > 0
    makes both sections invertible, with A times the other one the
    identity up to Hankel products H(s)H(s~^(-1)).  How many steps GMRES
    takes depends on their size as well as their rank: a few per column
    for small jumps of any Fourier degree, but growing with the degree
    of the z^(2n) twist of an IDNLS jump as |r| nears 1 (tens per column
    for r = 0.6 z + 0.35/z at n >= 20), and at most A's order.  s is
    taken over its largest modulus, as _positivity_bound takes it, so
    that no norm or product overflows for samples near 1e300.

    solve(y) is T^(-1) y for columns y.  It refuses y that is not finite
    with the ValueError of np.asarray_chkfinite, and raises ValueError
    where GMRES meets a value that is not finite.  Its answer is final:
    GMRES on a twice-orthogonalized basis is backward stable.  It runs
    with floating-point warnings off, as _ToeplitzLU's solves do.
    """

    def __init__(self, p, rows, fixed, s, bound):
        self.system, self.n = p.system, p.data.dim
        self.circle = p.system.circles[0]
        self.rows, self.fixed, self.sigma_lower_bound = rows, fixed, bound
        self.order = s.shape[0] * self.n
        with np.errstate(all="ignore"):
            self.scale = np.max(np.abs(s))
            self.u = s / self.scale
            self.u_inv = _node_inverses(self.u)

    to_basis, from_basis = _ToeplitzLU.to_basis, _ToeplitzLU.from_basis

    def _section(self, x, u):
        """The section of that circulant on the rows, on x there."""
        full = np.zeros((self.order,) + x.shape[1:], dtype=np.complex128)
        full[self.rows] = x
        return _circulant(self.circle, full, u)[self.rows]

    @np.errstate(all="ignore")
    def solve(self, y):
        x = np.array(np.asarray_chkfinite(y), dtype=np.complex128)
        # A x_rows = y_rows - B y_fixed, over the symbol's scale
        given = np.zeros_like(x)
        given[self.fixed] = x[self.fixed]
        rhs = x[self.rows] / self.scale
        rhs -= _circulant(self.circle, given, self.u)[self.rows]

        def preconditioned(v):
            return self._section(self._section(v, self.u_inv), self.u)

        # one apply, two FFT pairs over m nodes, errs by about 2 log2(m)
        # ulps of its input: a smaller residual estimate is rounding
        tol = 2.0 * np.log2(self.u.shape[0]) * np.finfo(float).eps
        y = np.empty_like(rhs)
        for j in range(x.shape[1]):
            y_j = _gmres(preconditioned, rhs[:, j], tol)
            if y_j is None:
                raise ValueError("GMRES met a value that is not finite")
            y[:, j] = y_j
        x[self.rows] = self._section(y, self.u_inv)
        return x


def _certified_section(p: RHProblem, sigma_min: float) -> _KrylovSection | None:
    """p's one-circle section as a _KrylovSection where the positivity
    bound of its symbol is at least sigma_min, and None otherwise."""
    section = _one_circle_section(p)
    if section is None:
        return None
    rows, fixed, symbol = section
    s = symbol().values
    bound = _positivity_bound(s)
    if bound is None or bound < sigma_min:
        return None
    return _KrylovSection(p, rows, fixed, s, bound)


def _smallest_singular_value(op) -> float:
    """sigma_min of a factored operator T by Lanczos on (T^H T)^(-1).

    Each step applies T^(-H) and then T^(-1) by op.solve, two trsv
    pairs on the existing factors, in op's basis, from the seeded start
    vector mapped into it.  The applies do not check finiteness: on a
    broken-down LU the run ends in an ARPACK error instead.  An exact
    zero pivot or a failed Lanczos run counts as sigma_min = 0, which
    sends the solve to the null-vector check of _certified_lu instead of
    trusting the LU.
    """
    if op.singular:
        return 0.0

    def apply(y):
        return op.solve(op.solve(y, adjoint=True))

    return _lanczos_sigma_min(apply, op.to_basis(_start_vector(op.order))) or 0.0


def _null_vectors(op) -> tuple[np.ndarray, np.ndarray, float]:
    """Right and left null vectors of a near-singular factored operator T,
    and the upper bound on its smallest singular value that they give.

    One step of inverse iteration from the random start s, with T and
    with T^H.  The step is not repeated: on an exactly singular operator
    further steps drift away from the kernel instead of converging.  For
    any x, sigma_min(T) <= |T x| / |x|, so x = T^(-1) s and x = T^(-H) s
    bound it by |s| / max(|T^(-1) s|, |T^(-H) s|), the inverse-iteration
    bound of LAPACK's condition estimators.  The norms are BLAS nrm2,
    which scales as it sums and so stays finite for entries up to about
    1e308 / sqrt(order).  Non-finite vectors (a zero pivot or a
    broken-down LU), or a norm that is still not finite and positive,
    give the bound inf, which certifies nothing, and r and l that are not
    finite.  s is the seeded start vector mapped into op's basis, and r
    and l are returned in that basis.
    """
    s = op.to_basis(_start_vector(op.order))
    # a zero pivot gives non-finite vectors; _certified_lu reports them
    with np.errstate(all="ignore"):
        r = op.solve(s)
        l = op.solve(s, adjoint=True)
        norms = np.array([scipy.linalg.norm(v, check_finite=False) for v in (r, l)])
        bound = np.inf
        if np.all(np.isfinite(norms)) and norms.min() > 0.0:
            bound = float(scipy.linalg.norm(s) / norms.max())
        else:
            norms[:] = np.nan
        r, l = r / norms[0], l / norms[1]
    return r, l, bound


def _certified_lu(op: _ToeplitzLU, band: np.ndarray, sigma_min: float) -> float:
    """sigma_min of the factored operator op, once it is at least
    sigma_min; otherwise a NearSingularOperatorError, unless the kernel
    is an alias that op has not left out yet.

    One inverse-iteration step (_null_vectors) gives the null vectors r
    and l and an upper bound on sigma_min.  Where r or l is not finite
    the LU broke down, which is refused with sigma_min 0; at or above
    sigma_min, Lanczos on the LU gives the value.  Below it, r or l with
    band-limited content (r[band], l[band]) above ALIAS_BAND_CONTENT is a
    genuine kernel (nonzero partial indices land here), and a kernel left
    once op has left out rows and columns has more than one alias
    direction.  Otherwise op leaves out the equation row where l peaks
    and the unknown column where r peaks, within kept, builds A and b
    again (_build: the LU overwrote A, and the old LU and b are dropped
    first), and is measured once more.
    """
    while True:
        r, l, smallest = _null_vectors(op)
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(l))):
            # no Lanczos run: on a broken-down LU it ends in an ARPACK
            # error, and LAPACK prints to stdout on the way there
            raise NearSingularOperatorError(
                0.0, message="LU of the singular operator broke down"
            )
        if smallest >= sigma_min:
            smallest = _smallest_singular_value(op)
        if smallest >= sigma_min:
            return smallest
        # genuine kernel or cokernel elements of analytic problems
        # concentrate in low Fourier modes, a Nyquist alias does not
        ker, coker = (float(np.linalg.norm(v[band])) for v in (r, l))
        if ker > ALIAS_BAND_CONTENT or coker > ALIAS_BAND_CONTENT:
            raise NearSingularOperatorError(
                smallest,
                message=(
                    "operator near singular: smallest singular value "
                    f"{smallest:.3e}; band-limited null-vector content "
                    f"{ker:.2e} (right), {coker:.2e} (left)"
                ),
            )
        if op.left_out[0].size:
            raise NearSingularOperatorError(
                smallest, message="operator kernel has more than one alias direction"
            )
        kept = np.arange(op.order)[op.kept]
        peaks = ([kept[np.argmax(np.abs(v[kept]))]] for v in (l, r))
        op._build(*peaks)


def _check_left_out(
    op: _ToeplitzLU, x: np.ndarray, rhs: np.ndarray, smallest: float
):
    """Refuse op's solution x of T x = rhs unless the equations op left out
    hold to ALIAS_BAND_CONTENT max(|rhs|, 1), their residual taken from
    T's own rows there (op.equation_rows).  A residual that is not finite
    raises ValueError, as an answer that is not finite does.

    The unknowns left out are 0, so an equation left out holds only as
    far as rhs has no component along T's left null vector l: its
    residual is l^H rhs over l's entry there.  rhs is constant along the
    contour, so for an alias, whose l has band-limited content below
    ALIAS_BAND_CONTENT, that is a discretization error, which the jump
    residual reports too.  Above it the equations left out carried
    band-limited content, and the system is inconsistent.
    """
    rows_a, rows_b = op.equation_rows
    with np.errstate(all="ignore"):
        residual = rhs[op.left_out[0]] - rows_a @ x[op.kept]
        if rows_b is not None:
            residual -= rows_b @ x[op.unit]
    gap = float(np.max(np.abs(np.asarray_chkfinite(residual)), initial=0.0))
    if not gap <= ALIAS_BAND_CONTENT * max(float(np.max(np.abs(rhs))), 1.0):
        raise NearSingularOperatorError(
            smallest,
            message=(
                "operator is singular and the system is inconsistent "
                f"(residual {gap:.2e} on the equations left out)"
            ),
        )


def solve(p: RHProblem, *, sigma_min: float = SIGMA_MIN) -> RHSolution:
    """Solve the discrete equation one way: by GMRES, or by the LU.

    Everything runs in the per-circle unitary Fourier basis, so
    sigma_min, the null vectors and x are those of T itself.  Where a
    one-circle section's symbol certifies sigma_min(T) >= sigma_min
    (_positivity_bound), that bound is reported as
    smallest_singular_value and the section is solved by preconditioned
    GMRES on its matrix-free applies ("krylov", _certified_section);
    nothing is built or factored, and GMRES's answer is final.  GMRES
    that meets a value that is not finite raises ValueError, as an
    overflow on the LU path does.  Otherwise the operator, less its
    identity rows or columns, is built once and factored (_ToeplitzLU),
    less the equation rows and unknown columns that the windings of a
    triangular jump's diagonal leave out at the Nyquist seams
    (_left_out), and _certified_lu gives its sigma_min: an
    inverse-iteration bound and a Lanczos run on the LU.  Below
    sigma_min, null vectors with band-limited content above
    ALIAS_BAND_CONTENT are a genuine kernel (nonzero partial indices land
    here) and are refused rather than returning a polluted solution; an
    alias kernel no winding accounted for has the row and column where
    the null vectors peak left out, once, and one that is left after that
    is refused too.  The LU solve is then the answer ("lu"), with the
    unknowns left out 0, once it is finite (a right-hand side or an
    answer that is not raises the ValueError of np.asarray_chkfinite) and
    the equations left out hold (_check_left_out).
    Each path leaves on p the lower bound on the band values that
    index_diagnostics reads (RHProblem.band_sigma_lower_bound).  A jump
    residual that is not finite (boundary values that overflow at the
    midpoints) raises ValueError: no solution is returned unverified, and
    so does a sigma_min that is not finite and > 0.
    """
    _check_tolerance("sigma_min", sigma_min)
    n = p.data.dim
    big_n = p.system.total_nodes
    op = _certified_section(p, sigma_min)
    if op is not None:
        smallest, source = op.sigma_lower_bound, "positivity"
    else:
        op, source = _ToeplitzLU(p, _left_out(p)), "lanczos"
        smallest = _certified_lu(op, _band_rows(p.system, n), sigma_min)

    # one right-hand side per row of h, constant along the contour
    rhs = np.repeat(p.h[:, None, :], big_n, axis=1).reshape(n, big_n * n).T
    rhs = op.to_basis(rhs)  # x comes back in the same basis
    path = "krylov" if source == "positivity" else "lu"
    if path == "krylov":
        x = op.solve(rhs)
    else:
        x = np.asarray_chkfinite(op.solve(np.asarray_chkfinite(rhs)))
        _check_left_out(op, x, rhs, smallest)
    # smallest is the positivity certificate or the Lanczos value of the
    # factored operator; a failed run reads 0.0
    if smallest > 0.0:
        p.band_sigma_lower_bound = smallest

    x = op.from_basis(x)
    mu = GridFunction(p.system, x.T.reshape(n, big_n, n).transpose(1, 0, 2))
    sol = RHSolution(
        problem=p,
        mu=mu,
        residual_jump=0.0,
        smallest_singular_value=smallest,
        sigma_source=source,
        solver_path=path,
        operator_order=big_n * n,
        factored_order=op.lu[0].shape[0] if path == "lu" else 0,
        cauchy_density=mu * (p.data.w_plus + p.data.w_minus),
    )
    sol.residual_jump = _midpoint_residual(p, sol)
    if not np.isfinite(sol.residual_jump):
        # m_minus v at the midpoints left the double range (a jump near
        # 1e300 does it with finite mu): nothing certifies the solution
        raise ValueError(
            f"jump residual is not finite ({sol.residual_jump}); "
            "the boundary values overflow"
        )
    return sol


@dataclass(frozen=True)
class InversionReport:
    """Outcome of the inversion-symmetry hypothesis check.

    On the unit circle itself the symmetry v(z) = v(1/conj(z))^* reduces to
    v being Hermitian; that deviation is reported separately because only
    the Hermitian factorization requires it, not the solvability theorem.
    partners[i] is the index of the circle that is the inversion image of
    circle i, matched within the check's pair_tol.
    """

    symmetric_off_circle: bool
    min_re_eig_on_circle: float
    max_symmetry_deviation: float
    hermitian_deviation_on_circle: float
    unit_circle_index: int
    partners: tuple


def check_inversion_hypotheses(
    v: JumpData,
    *,
    pair_tol: float = PAIR_TOL,
    sym_tol: float = SYM_TOL,
) -> InversionReport:
    """Verify the structure needed for unique solvability.

    The circle set must contain the unit circle and be closed under
    inversion z -> 1/conj(z) (matching orientations included).  Off the
    unit circle the jump must satisfy v(z) = v(1/conj(z))^* , checked by
    re-evaluating the closed forms at the geometrically inverted nodes.  On
    the unit circle the report carries the smallest eigenvalue of the
    Hermitian part, whose strict positivity is the solvability hypothesis.
    """
    system = v.system
    iu = system.unit_circle_index(pair_tol)
    if iu is None:
        raise NotInversionInvariantContourError(
            "contour does not contain the unit circle"
        )
    partners, dev = [], 0.0
    for i, c in enumerate(system.circles):
        img = invert_circle(c)
        j = system.find_circle(img.center, img.radius, pair_tol)
        if j is None or system.circles[j].orientation != img.orientation:
            raise NotInversionInvariantContourError(
                f"no correctly oriented partner for circle {i} "
                f"(expected center {img.center}, radius {img.radius}, "
                f"{img.orientation})"
            )
        partners.append(j)
        if i != iu:
            # the node samples are the closed form at the nodes
            through = v.at(j, 1.0 / np.conj(c.points()))
            gap = v.v.restrict(i) - np.conj(np.swapaxes(through, 1, 2))
            # np.maximum, not max: a NaN gap must not read as symmetric
            dev = float(np.maximum(dev, np.max(np.abs(gap))))

    unit_vals = v.v.restrict(iu)
    herm = 0.5 * (unit_vals + np.conj(np.swapaxes(unit_vals, 1, 2)))
    min_eig = float(np.min(np.linalg.eigvalsh(herm)))
    herm_dev = float(np.max(np.abs(unit_vals - herm)))
    return InversionReport(
        symmetric_off_circle=dev <= sym_tol,
        min_re_eig_on_circle=min_eig,
        max_symmetry_deviation=dev,
        hermitian_deviation_on_circle=herm_dev,
        unit_circle_index=iu,
        partners=tuple(partners),
    )


@dataclass(frozen=True)
class IndexReport:
    """Kernel and cokernel dimensions of the discrete operator.

    ker_gap and coker_gap are (largest value below tau_rank, smallest
    value at or above it) of the band slices' singular values, 0.0 and
    inf where there is none.  For a solved problem whose
    band_sigma_lower_bound is >= 10 tau_rank, the counts are 0 and the
    second entry is that bound, not the band value itself.
    """

    dim_ker: int
    dim_coker: int
    ker_gap: tuple[float, float]
    coker_gap: tuple[float, float]


def _band_rows(system: ContourSystem, n: int) -> np.ndarray:
    """Indices into the basis of _ToeplitzLU of each circle's low modes
    |k| <= m/4, n components per mode: y[band] is E^H y for y in operator
    rows mapped into the basis, with E the orthonormal synthesis basis of
    those modes.

    Restricting rank tests to this resolvable subspace is what separates
    kernel from cokernel: the square collocation matrix always has equal
    left and right nullities, but the spurious partner of a genuine
    one-sided null vector is concentrated at the Nyquist mode and dies
    under the restriction, while true (co)kernel elements of analytic
    problems are themselves spectrally concentrated in low modes.
    """
    modes = []
    for circle, nodes in zip(system.circles, system.node_slices()):
        m = circle.node_count
        modes.append(nodes.start + np.arange(-(m // 4), m // 4 + 1) % m)
    return (np.concatenate(modes)[:, None] * n + np.arange(n)).reshape(-1)


def _count_small(svals: np.ndarray, tau: float) -> tuple[int, tuple[float, float]]:
    below = svals[svals < tau]
    above = svals[svals >= tau]
    lo = float(below.max()) if below.size else 0.0
    hi = float(above.min()) if above.size else np.inf
    window = (svals > tau / 10.0) & (svals < tau * 10.0)
    if np.any(window):
        raise RankAmbiguityError(
            f"at least {int(window.sum())} singular value(s) within a "
            f"decade of the rank threshold {tau:.1e}; counts would be guesses"
        )
    return int(below.size), (lo, hi)


def index_diagnostics(p: RHProblem, *, tau_rank: float = TAU_RANK) -> IndexReport:
    """Count near-null directions of the operator and of its adjoint.

    For a jump with partial indices k_1 >= ... >= k_n the expected counts
    are dim_ker = n * sum(max(k_j, 0)) and dim_coker = n * sum(max(-k_j, 0)).
    The counts are small singular values of T's columns and of T's rows
    at the low modes of _band_rows, with T in the per-circle Fourier basis
    of _operator_rows: each side is one svdvals of an N x K or K x N slice
    of T (K about N/2).

    A returned solve sets band_sigma_lower_bound (RHProblem), a lower
    bound on the singular values of both band slices; on the LU path by
    interlacing.  When that bound is at least 10 tau_rank, both counts
    are 0 with no value near tau_rank, and they are returned without a
    count; each gap is then (0.0, bound).  A tau_rank that is not finite
    and > 0 raises ValueError.
    """
    _check_tolerance("tau_rank", tau_rank)
    n = p.data.dim
    bound = p.band_sigma_lower_bound
    if bound is not None and bound >= 10.0 * tau_rank:
        return IndexReport(0, 0, (0.0, bound), (0.0, bound))
    t = _operator(p)
    band = _band_rows(p.system, n)
    svals = scipy.linalg.svdvals
    k_count, k_gap = _count_small(svals(t[:, band]), tau_rank)
    c_count, c_gap = _count_small(svals(t[band]), tau_rank)
    return IndexReport(
        dim_ker=n * k_count,
        dim_coker=n * c_count,
        ker_gap=k_gap,
        coker_gap=c_gap,
    )
