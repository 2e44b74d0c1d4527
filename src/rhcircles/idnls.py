"""Riemann-Hilbert problems modeled on the integrable discrete NLS lattice.

The inverse problem data are a reflection coefficient r on the unit
circle, a lattice site n, and pole pairs (z_j, 1/conj(z_j)) outside/inside
the unit circle with norming constants c_j.  Residue conditions at the
poles are traded for jump conditions on small circles (pole removal), and
a further region-wise conjugation produces a jump that is
inversion-symmetric off the unit circle and positive Hermitian on it, so
the solver applies with zero partial indices.  Each transformation carries
an undo map; composing solve with undo recovers the original unknown with
its poles.

Conventions: the unit circle is oriented clockwise (plus side outside),
pole circles clockwise, their inverted images counterclockwise, and the
auxiliary circles at radii R and 1/R counterclockwise.

The geometry follows from the poles alone.  Pole circle j has radius
default_pole_radii(spec)[j], and R = 2 max|z_j| (R = 2 without poles).
Inversion z -> 1/conj(z) maps the pole circles onto the inverted pole
circles and the circle of radius R onto the one of radius 1/R, so the
contour is closed under inversion and its circles are pairwise disjoint.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .contour import (
    CCW,
    CW,
    Circle,
    ContourSystem,
    build_contour,
    invert_circle,
    unit_circle,
)
from .errors import DegenerateSolitonSystemError, ReflectionTooLargeError
from .rhp import (
    SIGMA_MIN,
    JumpData,
    RHProblem,
    RHSolution,
    matrix_at,
    solve,
)

FOCUSING = "focusing"
DEFOCUSING = "defocusing"

_SAMPLE_COUNT = 256
_RING_POINTS = 48


def _zero_reflection(z) -> float:
    return 0.0


@dataclass(frozen=True)
class IdnlsSpec:
    """Scattering-style data: reflection coefficient, lattice site, poles.

    r is a closed-form evaluator on the unit circle that takes a point or
    an array of points, like a jump evaluator (None means zero); n is the
    lattice index entering the z^(2n) twists, an integer (a float or a
    bool is refused with ValueError); poles is a sequence
    of (z_j, c_j) with |z_j| > 1 pairwise distinct.  The defocusing sign
    requires sup |r| < 1 on the circle, which is what makes the real part
    of the jump positive definite.
    """

    r: Callable | None
    n: int
    poles: tuple = ()
    sign: str = FOCUSING

    def __post_init__(self):
        if self.sign not in (FOCUSING, DEFOCUSING):
            raise ValueError(f"sign must be focusing or defocusing: {self.sign}")
        poles = tuple((complex(z), complex(c)) for z, c in self.poles)
        object.__setattr__(self, "poles", poles)
        try:
            if isinstance(self.n, bool):
                raise TypeError
            object.__setattr__(self, "n", operator.index(self.n))
        except TypeError:
            raise ValueError(f"n must be an integer, got {self.n!r}") from None
        with np.errstate(all="ignore"):
            mirrors = self.mirror_locations()
        for (z, _), mirror in zip(poles, mirrors):
            if abs(z) <= 1.0:
                raise ValueError(f"pole {z} is not outside the unit circle")
            if not (np.isfinite(mirror) and mirror != 0.0):
                raise ValueError(
                    f"pole {z} has its mirror 1/conj(z) = {mirror} "
                    "outside the double range"
                )
        locations = [z for z, _ in poles]
        for i in range(len(locations)):
            for k in range(i + 1, len(locations)):
                if locations[i] == locations[k]:
                    raise ValueError(f"duplicate pole {locations[i]}")
        if self.sign == DEFOCUSING:
            worst = float(np.max(np.abs(self.reflection(_unit_samples()))))
            if worst >= 1.0:
                raise ReflectionTooLargeError(
                    f"defocusing data needs sup|r| < 1, sampled {worst:.4f}"
                )

    @property
    def reflection(self) -> Callable:
        return self.r if self.r is not None else _zero_reflection

    def pole_locations(self) -> np.ndarray:
        return np.array([z for z, _ in self.poles], dtype=np.complex128)

    def mirror_locations(self) -> np.ndarray:
        return 1.0 / np.conj(self.pole_locations())


def _unit_samples(count: int = _SAMPLE_COUNT) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(count) / count)


def _unit_jump_evaluator(spec: IdnlsSpec) -> Callable:
    r, n = spec.reflection, spec.n
    s = 1.0 if spec.sign == FOCUSING else -1.0

    def v(z) -> np.ndarray:
        rv = r(z)
        # |r|^2 from the real and imaginary parts, so the entry is real
        abs_r2 = np.real(rv) ** 2 + np.imag(rv) ** 2
        return matrix_at(
            z,
            [
                [1.0 + s * abs_r2, s * z ** (2 * n) * np.conj(rv)],
                [z ** (-2 * n) * rv, 1.0],
            ],
        )

    return v


def _build_unit_jump(spec: IdnlsSpec, sign: str, node_count: int) -> JumpData:
    # sup|r| < 1 for defocusing data was already checked by IdnlsSpec
    if spec.sign != sign:
        raise ValueError(f"spec.sign must be {sign}")
    system = build_contour([unit_circle(CW, node_count)])
    return JumpData.from_evaluator(system, _unit_jump_evaluator(spec))


def build_defocusing_jump(spec: IdnlsSpec, node_count: int = 64) -> JumpData:
    """Jump matrix with Re v = diag(1 - |r|^2, 1) on the clockwise circle."""
    return _build_unit_jump(spec, DEFOCUSING, node_count)


def build_focusing_jump(spec: IdnlsSpec, node_count: int = 64) -> JumpData:
    """Hermitian positive jump with det = 1 on the clockwise circle."""
    return _build_unit_jump(spec, FOCUSING, node_count)


@np.errstate(all="ignore")
def _norming_factors(spec: IdnlsSpec) -> tuple[np.ndarray, np.ndarray]:
    """Residue coefficients q_j at the poles and their mirror partners;
    one that is not finite makes a jump that JumpData refuses."""
    z = spec.pole_locations()
    c = np.array([cj for _, cj in spec.poles], dtype=np.complex128)
    q = z ** (-2 * spec.n) * c
    gamma = np.conj(z) ** (-2 * spec.n - 2) * np.conj(c)
    return q, gamma


def default_pole_radii(spec: IdnlsSpec) -> np.ndarray:
    """Radii of the pole circles: half the clearance of each pole from
    the unit circle and from the other poles (half again, so neighboring
    circles cannot meet).

    The circles are then pairwise disjoint and outside the unit circle,
    so their inversion images are too.  The mirror points need no bound
    of their own: |z_j - 1/conj(z_k)| > |z_j| - 1, since |1/conj(z_k)| < 1.
    """
    z = spec.pole_locations()
    radii = np.empty(len(z))
    for j, zj in enumerate(z):
        bounds = [abs(zj) - 1.0]
        for k, zk in enumerate(z):
            if k != j:
                bounds.append(abs(zj - zk) / 2.0)
        radii[j] = 0.5 * min(bounds)
    return radii


@dataclass(eq=False)
class AugmentedProblem:
    """Pole-free contour problem equivalent to the residue-condition one.

    roles records what each circle is (unit / pole j / inverted-pole j /
    outer / inner); undo(w, values) maps solved values m (P, 2, 2) at P
    off-contour points w back to the original unknown with its poles
    restored.
    """

    jump: JumpData
    roles: tuple
    spec: IdnlsSpec
    undo: Callable

    @property
    def system(self) -> ContourSystem:
        return self.jump.system

    def is_conjugated(self) -> bool:
        return ("outer",) in self.roles


def remove_poles(
    spec: IdnlsSpec,
    pole_nodes: int = 64,
    unit_nodes: int = 64,
) -> AugmentedProblem:
    """Trade residue conditions for jumps on small circles around poles.

    The unknown is redefined inside each small circle, of radius
    default_pole_radii(spec), so that the pole cancels; the price is a
    triangular jump on the circle.  Inverted-image circles carry the
    mirrored conditions.  The undo map multiplies the solved function
    back by the triangular factors inside those circles.
    """
    j_count = len(spec.poles)
    z = spec.pole_locations()
    mirrors = spec.mirror_locations()
    q, gamma = _norming_factors(spec)
    rho = default_pole_radii(spec)

    def lower_jump(j: int) -> Callable:
        def v(w) -> np.ndarray:
            return matrix_at(w, [[1.0, 0.0], [q[j] / (w - z[j]), 1.0]])

        return v

    def upper_jump(j: int) -> Callable:
        def v(w) -> np.ndarray:
            return matrix_at(w, [[1.0, -gamma[j] / (w - mirrors[j])], [0.0, 1.0]])

        return v

    lowers = [lower_jump(j) for j in range(j_count)]
    uppers = [upper_jump(j) for j in range(j_count)]
    pole_circles = [Circle(z[j], float(rho[j]), CW, pole_nodes) for j in range(j_count)]
    circles = [unit_circle(CW, unit_nodes), *pole_circles]
    circles += [invert_circle(c) for c in pole_circles]
    roles = [("unit",)]
    roles += [(kind, j) for kind in ("pole", "inverted-pole") for j in range(j_count)]
    system = build_contour(circles)
    jump = JumpData.from_evaluators(
        system, [_unit_jump_evaluator(spec)] + lowers + uppers
    )

    inv_radii = [c.radius for c in circles[1 + j_count :]]
    inv_centers = [c.center for c in circles[1 + j_count :]]

    def undo(w: np.ndarray, value: np.ndarray) -> np.ndarray:
        # w holds P points, value the (P, 2, 2) solved values there; the
        # disks are disjoint, since build_contour accepted their circles
        value = value.copy()
        for j in range(j_count):
            at = np.abs(w - z[j]) < rho[j]
            value[at] = value[at] @ lowers[j](w[at])
            at = np.abs(w - inv_centers[j]) < inv_radii[j]
            # times the inverse of the unipotent upper jump [[1, u], [0, 1]],
            # u = -gamma_j / (w - mirror_j): column 1 less column 0 times u
            minus_u = gamma[j] / (w[at] - mirrors[j])
            value[at, :, 1] += value[at, :, 0] * minus_u[:, None]
        return value

    return AugmentedProblem(jump=jump, roles=tuple(roles), spec=spec, undo=undo)


@np.errstate(all="ignore")
def _conjugation_factors(spec: IdnlsSpec) -> tuple[complex, list, list]:
    """prod = z_1 ... z_J, and per pole kappa_j = prod / z_j q_j, the
    entry of B_j and of pole circle j's conjugated jump, and lambda_j =
    conj(prod) gamma_j, that of inverted pole circle j's; one that is not
    finite makes a jump that JumpData refuses."""
    z = spec.pole_locations()
    q, gamma = _norming_factors(spec)
    prod = complex(np.prod(z)) if len(z) else 1.0 + 0.0j
    kappa = [prod / zj * qj for zj, qj in zip(z, q)]
    lam = [np.conj(prod) * gj for gj in gamma]
    return prod, kappa, lam


def conjugation_matrices(spec: IdnlsSpec):
    """The region-wise factors (A, B_j list, C) used by conjugate()."""
    prod, kappa, _ = _conjugation_factors(spec)

    def a_mat(w) -> np.ndarray:
        return matrix_at(w, [[prod, 0.0], [0.0, w]])

    def c_mat(w) -> np.ndarray:
        return matrix_at(w, [[1.0 / np.conj(prod), 0.0], [0.0, w]])

    def b_mat(j: int) -> Callable:
        def mat(w) -> np.ndarray:
            return matrix_at(w, [[prod, 0.0], [-kappa[j], w]])

        return mat

    return a_mat, [b_mat(j) for j in range(len(kappa))], c_mat


def conjugate(ap: AugmentedProblem, node_count: int = 64) -> AugmentedProblem:
    """Conjugate the augmented problem into the symmetric positive form.

    Two counterclockwise circles at radii R = 2 max|z_j| (R = 2 without
    poles) and 1/R are added and the unknown is multiplied region-wise by
    A, B_j or C.  R exceeds 1.5 |z_j| - 0.5 >= |z_j| + rho_j, so the outer
    circle clears every pole circle, and by inversion the inner circle
    clears every inverted pole circle.  The resulting jump equals its own
    inversion-conjugate off the unit circle and is positive Hermitian on
    it, so the solvability theorem applies directly.  The returned undo
    composes the conjugation undo with the pole-restoring undo of the
    input.
    """
    if ap.is_conjugated():
        raise ValueError("problem is already conjugated")
    spec = ap.spec
    j_count = len(spec.poles)
    z = spec.pole_locations()
    mirrors = spec.mirror_locations()
    rho = default_pole_radii(spec)
    prod, kappa, lam = _conjugation_factors(spec)
    big_r = 2.0 * max([abs(w) for w in z], default=1.0)

    a_mat, b_mats, c_mat = conjugation_matrices(spec)
    unit_v = _unit_jump_evaluator(spec)

    def inner_jump(w) -> np.ndarray:
        # A^* = A(1/conj(w))^H; np.reciprocal rounds the imaginary part of
        # 1/w once, where 1.0 / w rounds it twice
        return matrix_at(w, [[np.conj(prod), 0.0], [0.0, np.reciprocal(w)]])

    def unit_jump(w) -> np.ndarray:
        v = unit_v(w)
        out = inner_jump(w) @ v @ a_mat(w)
        # entry (1, 1) is (1/w) v_11 w, which is v_11 in exact arithmetic
        # only: taken as v_11 itself, a zero row of v - I stays exactly zero
        out[..., 1, 1] = v[..., 1, 1]
        return out

    def pole_jump(j: int) -> Callable:
        def v(w) -> np.ndarray:
            return matrix_at(w, [[1.0, 0.0], [kappa[j] / (w - z[j]), 1.0]])

        return v

    def mirror_jump(j: int) -> Callable:
        def v(w) -> np.ndarray:
            return matrix_at(w, [[1.0, -w * lam[j] / (w - mirrors[j])], [0.0, 1.0]])

        return v

    circles = list(ap.system.circles) + [
        Circle(0j, big_r, CCW, node_count),
        Circle(0j, 1.0 / big_r, CCW, node_count),
    ]
    roles = list(ap.roles) + [("outer",), ("inner",)]
    jumps = {"pole": pole_jump, "inverted-pole": mirror_jump}
    fns = [
        unit_jump if role == ("unit",) else jumps[role[0]](role[1])
        for role in ap.roles
    ]
    fns += [a_mat, inner_jump]

    system = build_contour(circles)
    jump = JumpData.from_evaluators(system, fns)

    def undo(w: np.ndarray, value: np.ndarray) -> np.ndarray:
        # between the radii 1/R and R the unknown was multiplied by B_j
        # inside pole circle j, else by A outside and C inside the unit
        # circle; beyond those radii it was left alone
        mod = np.abs(w)
        scaled = ~((mod >= big_r) | (mod <= 1.0 / big_r))
        factor = np.empty(value.shape, dtype=np.complex128)
        todo = scaled.copy()
        for j in range(j_count):
            at = todo & (np.abs(w - z[j]) < rho[j])
            factor[at] = b_mats[j](w[at])
            todo &= ~at
        outside = mod > 1.0
        factor[todo & outside] = a_mat(w[todo & outside])
        factor[todo & ~outside] = c_mat(w[todo & ~outside])
        # times the inverse of the lower-triangular factor [[a, 0], [b, d]]
        # by substitution: column 1 over d, then column 0 less b times
        # that, over a
        f, x = factor[scaled], value[scaled]
        x[:, :, 1] /= f[:, None, 1, 1]
        x[:, :, 0] -= x[:, :, 1] * f[:, None, 1, 0]
        x[:, :, 0] /= f[:, None, 0, 0]
        value = value.copy()
        value[scaled] = x
        return ap.undo(w, value)

    return AugmentedProblem(jump=jump, roles=tuple(roles), spec=spec, undo=undo)


@dataclass(eq=False)
class SolitonOracle:
    """Closed-form reflectionless solution from a finite linear system.

    The partial-fraction ansatz I + sum_j (a_j e1^T/(z - z_j)
    + b_j e2^T/(z - 1/conj(z_j))) turns the residue conditions into a
    2J x 2J linear system for the vectors a_j, b_j.
    """

    poles: np.ndarray
    mirrors: np.ndarray
    pole_residues: np.ndarray
    mirror_residues: np.ndarray

    def __call__(self, z) -> np.ndarray:
        """The solution at a point (2, 2) or at each of P points (P, 2, 2)."""
        w = np.asarray(z, dtype=np.complex128)
        out = matrix_at(w, [[1.0, 0.0], [0.0, 1.0]])
        for j in range(len(self.poles)):
            out[..., :, 0] += self.pole_residues[j] / (w[..., None] - self.poles[j])
            out[..., :, 1] += self.mirror_residues[j] / (w[..., None] - self.mirrors[j])
        return out


def soliton_oracle(spec: IdnlsSpec) -> SolitonOracle:
    """Exact reflectionless solution used to validate the solver pipeline."""
    if not spec.poles:
        raise ValueError("soliton oracle needs at least one pole")
    if spec.r is not None:
        worst = float(np.max(np.abs(spec.r(_unit_samples()))))
        if worst > 1e-14:
            raise ValueError(
                f"soliton oracle needs zero reflection, sampled sup {worst:.2e}"
            )
    j_count = len(spec.poles)
    z = spec.pole_locations()
    mirrors = spec.mirror_locations()
    q, gamma = _norming_factors(spec)

    k1 = q[:, None] / (z[:, None] - mirrors[None, :])
    k2 = gamma[:, None] / (mirrors[:, None] - z[None, :])
    mat = np.block(
        [
            [np.eye(j_count), -k1],
            [-k2, np.eye(j_count)],
        ]
    ).astype(np.complex128)
    rhs = np.zeros((2 * j_count, 2), dtype=np.complex128)
    rhs[j_count:, 0] = gamma
    rhs[:j_count, 1] = q

    svals = np.linalg.svd(mat, compute_uv=False)
    if svals[-1] < 1e-12 * svals[0]:
        raise DegenerateSolitonSystemError(
            f"residue system is singular (sigma_min/sigma_max = "
            f"{svals[-1] / svals[0]:.2e})"
        )
    x = np.linalg.solve(mat, rhs)
    return SolitonOracle(
        poles=z,
        mirrors=mirrors,
        pole_residues=x[:j_count],
        mirror_residues=x[j_count:],
    )


@dataclass(eq=False)
class IdnlsSolution:
    """Solved augmented problem together with its undo map."""

    augmented: AugmentedProblem
    solution: RHSolution

    @property
    def residual_jump(self) -> float:
        return self.solution.residual_jump

    @property
    def smallest_singular_value(self) -> float:
        return self.solution.smallest_singular_value

    def evaluate(self, z) -> np.ndarray:
        """Original unknown M(z), poles restored, at off-contour point(s).

        z is a point, giving (2, 2), or an array of P points, giving
        (P, 2, 2).  Points within MARGIN_FACTOR node spacings of a circle
        (distance < MARGIN_FACTOR * spacing) raise TooCloseToContourError.
        """
        w = np.asarray(z, dtype=np.complex128)
        flat = w.reshape(-1)
        m = self.augmented.undo(flat, self.solution.evaluate(flat))
        return m.reshape(w.shape + m.shape[1:])


def solve_augmented(
    ap: AugmentedProblem, *, sigma_min: float = SIGMA_MIN
) -> IdnlsSolution:
    problem = RHProblem.from_jump(ap.jump, h=np.eye(2))
    return IdnlsSolution(ap, solve(problem, sigma_min=sigma_min))


def residue_condition_residuals(evaluate: Callable, ap: AugmentedProblem) -> float:
    """Worst deviation from the residue conditions at all pole pairs.

    Residues and regular parts are extracted by 48-point trapezoid
    quadrature on circles of half the removal radius; the condition
    compares the residue against the limit of M times the rank-one
    coefficient matrix.
    """
    spec = ap.spec
    z = spec.pole_locations()
    mirrors = spec.mirror_locations()
    q, gamma = _norming_factors(spec)
    rho = default_pole_radii(spec)
    worst = 0.0
    for j in range(len(z)):
        inverted = invert_circle(Circle(z[j], float(rho[j]), CW))
        mirror_clearance = inverted.radius - abs(mirrors[j] - inverted.center)
        for center, coeff, col in (
            (z[j], q[j], 0),
            (mirrors[j], gamma[j], 1),
        ):
            radius = 0.5 * rho[j] if col == 0 else 0.5 * mirror_clearance
            ring = center + radius * np.exp(
                2j * np.pi * np.arange(_RING_POINTS) / _RING_POINTS
            )
            vals = evaluate(ring)
            residue = np.einsum("l,lab->ab", ring - center, vals) / _RING_POINTS
            regular = vals.mean(axis=0)
            rank_one = np.zeros((2, 2), dtype=np.complex128)
            rank_one[1 - col, col] = coeff
            gap = residue - regular @ rank_one
            # np.maximum, not max: a NaN gap must not read as a zero residual
            worst = float(np.maximum(worst, np.max(np.abs(gap))))
    return worst
