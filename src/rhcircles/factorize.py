"""Wiener-Hopf factorization of jump matrices.

Two constructive routes are implemented.  Scalar symbols factor through
the winding number: v = m_minus^(-1) * theta * m_plus with theta a Mobius
power carrying the index and m_pm obtained by Fourier-splitting a
continuous logarithm.  Matrix symbols are factored only in the
inversion-symmetric positive case, v = (w_plus)# w_plus, by solving the
Riemann-Hilbert problem once and normalizing with the constant Hermitian
matrix that relates the two boundary factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cauchy import (
    GridFunction,
    _nodewise,
    _winding,
    check_margin,
    circle_coefficients,
    circle_values,
    plus_mode_mask,
)
from .errors import (
    HypothesisViolationError,
    NonConstantCError,
    NonPositiveCError,
)
from .rhp import (
    CONST_TOL,
    DELTA_INV,
    PAIR_TOL,
    SYM_TOL,
    InversionReport,
    JumpData,
    RHProblem,
    RHSolution,
    check_inversion_hypotheses,
    matrix_at,
    solve,
)


def winding_number(
    v: GridFunction, circle_index: int = 0, delta_inv: float = DELTA_INV
) -> int:
    """Degree of a nonvanishing scalar symbol around 0 on one circle: see
    cauchy._winding, which raises SingularJumpError where |v| <
    delta_inv and WindingAmbiguityError where the sampling is too coarse
    to track the phase."""
    samples = v.scalar()[v.system.node_slices()[circle_index]]
    return _winding(samples, delta_inv, circle_index)


def mobius_power(z, exponent: int, z_plus: complex, z_minus: complex | None):
    """((z - z_plus)/(z - z_minus))^exponent, or (z - z_plus)^exponent
    when z_minus is None (the reference point pushed to infinity)."""
    z = np.asarray(z, dtype=np.complex128)
    base = z - z_plus
    if z_minus is not None:
        base = base / (z - z_minus)
    return base**exponent


def _diagonal(z, entries) -> np.ndarray:
    n = len(entries)
    return matrix_at(
        z, [[entries[a] if a == b else 0.0 for b in range(n)] for a in range(n)]
    )


def mobius_power_matrix(
    z, exponents, z_plus: complex, z_minus: complex | None
) -> np.ndarray:
    """Diagonal matrix of Mobius powers, one exponent per entry, at a point
    (n, n) or at each of P points (P, n, n)."""
    return _diagonal(
        z, [mobius_power(z, int(k), z_plus, z_minus) for k in exponents]
    )


def inversion_conjugate(fn):
    """Turn an evaluator f into z -> f(1/conj(z))^* (conjugate transpose).

    The result takes a point or an array of points, as fn does.
    """

    def mirrored(z) -> np.ndarray:
        val = np.asarray(fn(1.0 / np.conj(z)))
        return np.conj(np.swapaxes(val, -1, -2) if val.ndim >= 2 else val)

    return mirrored


def mobius_power_matrix_mirrored(
    z, exponents, z_plus: complex, z_minus: complex | None
) -> np.ndarray:
    """Closed form of inversion_conjugate(mobius_power_matrix).

    Each diagonal entry becomes a Mobius power anchored at the reflected
    points 1/conj(z_plus), 1/conj(z_minus); the prefactor keeps integer
    powers single-valued.
    """
    if z_minus is None:
        base = -np.conj(z_plus) * (z - 1.0 / np.conj(z_plus)) / z
    else:
        base = (
            np.conj(z_plus)
            / np.conj(z_minus)
            * (z - 1.0 / np.conj(z_plus))
            / (z - 1.0 / np.conj(z_minus))
        )
    return _diagonal(z, [base ** int(k) for k in exponents])


@dataclass(eq=False)
class ScalarFactorization:
    """v = m_minus^(-1) * theta * m_plus on the circle.

    m_plus extends holomorphically and nonvanishing into the plus region,
    m_minus into the minus region with value 1 at infinity; theta carries
    the whole winding.
    """

    index: int
    m_plus: GridFunction
    m_minus: GridFunction
    theta: GridFunction
    z_plus: complex
    z_minus: complex | None
    residual: float

    def reassembled(self) -> GridFunction:
        return self.m_minus.inv() * self.theta * self.m_plus


def _continuous_log(samples: np.ndarray) -> np.ndarray:
    increments = np.angle(np.roll(samples, -1) / samples)
    phase = np.angle(samples[0]) + np.concatenate(
        ([0.0], np.cumsum(increments[:-1]))
    )
    return np.log(np.abs(samples)) + 1j * phase


def scalar_factorize(
    v: GridFunction,
    z_plus: complex,
    z_minus: complex | None = None,
    delta_inv: float = DELTA_INV,
) -> ScalarFactorization:
    """Factor a scalar symbol on a single circle through its winding.

    theta = ((z - z_plus)/(z - z_minus))^kappa absorbs the winding kappa,
    so log(v/theta) closes up over the circle; splitting that logarithm
    into Fourier modes analytic on either side and exponentiating yields
    the factors.  The zeroth mode goes entirely to the plus factor, which
    pins m_minus to 1 at infinity.
    """
    system = v.system
    if len(system.circles) != 1:
        raise ValueError("scalar factorization works on a single circle")
    if v.dim != 1:
        raise ValueError("scalar factorization needs a 1x1 grid function")
    circle = system.circles[0]

    kappa = winding_number(v, 0, delta_inv)
    needed = 8 * abs(kappa) + 32
    if circle.node_count < needed:
        raise ValueError(
            f"winding {kappa} needs at least {needed} nodes for branch "
            f"tracking, got {circle.node_count}"
        )
    # theta has its zero and pole at the anchors, so its node values
    # are only finite and accurate where the anchors keep the margin
    check_margin(system, [z for z in (z_plus, z_minus) if z is not None])
    if not system.in_omega_plus(z_plus):
        raise ValueError(f"z_plus = {z_plus} is not in the plus region")
    if z_minus is None:
        if system.plus_at_infinity:
            raise ValueError(
                "z_minus = None places the reference at infinity, which "
                "lies in the plus region of this system"
            )
    elif system.in_omega_plus(z_minus):
        raise ValueError(f"z_minus = {z_minus} is not in the minus region")

    pts = circle.points()
    with np.errstate(all="ignore"):
        theta = mobius_power(pts, kappa, z_plus, z_minus)
        quotient = v.scalar() / theta
    # anchors far from the circle take theta, or v over it, out of the
    # double range at the nodes, where its logarithm means nothing
    if not np.all(np.isfinite(quotient) & (quotient != 0.0)):
        raise ValueError(
            f"anchors z_plus = {z_plus}, z_minus = {z_minus} take the Mobius "
            f"factor of winding {kappa}, or v over it, out of the double "
            "range at the nodes"
        )
    g = _continuous_log(quotient)

    coeffs = circle_coefficients(circle, g)
    keep = plus_mode_mask(circle, system.plus_inside[0])
    keep[0] = True  # mode 0, first in FFT order
    g_plus = circle_values(circle, coeffs * keep)
    g_minus = circle_values(circle, coeffs * ~keep)

    def as_grid(arr):
        return GridFunction(system, arr.reshape(-1, 1, 1))

    fac = ScalarFactorization(
        index=kappa,
        m_plus=as_grid(np.exp(g_plus)),
        m_minus=as_grid(np.exp(-g_minus)),
        theta=as_grid(theta),
        z_plus=z_plus,
        z_minus=z_minus,
        residual=0.0,
    )
    fac.residual = (fac.reassembled() - v).max_abs() / max(v.max_abs(), 1.0)
    return fac


@dataclass(eq=False)
class HermitianFactorization:
    """v = (w_plus)# w_plus with a constant positive normalization.

    constant_C is the Liouville constant relating the two solved boundary
    factors; sqrt_R is its Hermitian positive square root, and
    w_plus = sqrt_R * m_plus nodewise.  hypotheses is the inversion check
    the factorization passed before solving.
    """

    w_plus: GridFunction
    constant_C: np.ndarray
    sqrt_R: np.ndarray
    constancy_deviation: float
    constancy_stddev: float
    product_residual: float
    hypotheses: InversionReport
    solution: RHSolution = field(repr=False)


def hermitian_factorize(
    v: JumpData,
    *,
    const_tol: float = CONST_TOL,
    sym_tol: float = SYM_TOL,
    pair_tol: float = PAIR_TOL,
) -> HermitianFactorization:
    """Factor an inversion-symmetric positive jump as (w_plus)# w_plus.

    Requires v(z) = v(1/conj(z))^* on the whole contour (Hermitian on the
    unit circle itself) and positive definiteness there; those hypotheses
    force zero partial indices, so the plain solve with h = I succeeds.
    The ratio C(z) = (m_plus(1/conj(z))^*)^(-1) m_minus(z)^(-1) extends to
    a bounded entire function, hence a constant, measured here across all
    matched node pairs; its Hermitian square root rescales m_plus into the
    final factor.
    """
    report = check_inversion_hypotheses(v, pair_tol=pair_tol, sym_tol=sym_tol)
    if not report.symmetric_off_circle:
        raise HypothesisViolationError(
            "jump is not inversion-symmetric off the unit circle "
            f"(deviation {report.max_symmetry_deviation:.2e})"
        )
    if report.hermitian_deviation_on_circle > sym_tol * max(
        1.0, v.v.max_abs()
    ):
        raise HypothesisViolationError(
            "jump is not Hermitian on the unit circle "
            f"(deviation {report.hermitian_deviation_on_circle:.2e})"
        )
    if report.min_re_eig_on_circle <= 0.0:
        raise HypothesisViolationError(
            "jump is not positive definite on the unit circle "
            f"(min eigenvalue {report.min_re_eig_on_circle:.2e})"
        )

    system = v.system
    n = v.v.dim
    sol = solve(RHProblem.from_jump(v, h=np.eye(n)))

    # m_plus at the mirrored nodes, which lie off the partner circle's grid
    mirror_plus = []
    for c, j in zip(system.circles, report.partners):
        angles = np.angle(1.0 / np.conj(c.points()) - system.circles[j].center)
        mirror_plus.append(sol.boundary_values(j, angles)[0])
    sharp = np.conj(np.swapaxes(np.concatenate(mirror_plus), 1, 2))
    c_all = _nodewise(np.linalg.inv(sharp), sol.m_minus.inv().values)
    c_mean = c_all.mean(axis=0)
    deviation = float(np.max(np.abs(c_all - c_mean)))
    stddev = float(np.sqrt(np.mean(np.abs(c_all - c_mean) ** 2)))
    if not deviation <= const_tol:  # a NaN deviation fails too
        raise NonConstantCError(
            f"normalization matrix varies by {deviation:.2e} across nodes "
            f"(tolerance {const_tol:.0e}); hypotheses or resolution failed"
        )

    c_herm = 0.5 * (c_mean + c_mean.conj().T)
    eigvals, eigvecs = np.linalg.eigh(c_herm)
    if np.min(eigvals) <= 0.0:
        raise NonPositiveCError(
            f"normalization matrix has eigenvalue {np.min(eigvals):.2e} <= 0"
        )
    sqrt_r = (eigvecs * np.sqrt(eigvals)) @ eigvecs.conj().T

    w_plus = GridFunction(system, _nodewise(sqrt_r[None], sol.m_plus.values))

    product = _nodewise(_nodewise(sharp, c_herm[None]), sol.m_plus.values)
    # np.max of a NaN gap is NaN: it must not read as a zero residual
    worst = float(np.max(np.abs(v.v.values - product)))

    return HermitianFactorization(
        w_plus=w_plus,
        constant_C=c_herm,
        sqrt_R=sqrt_r,
        constancy_deviation=deviation,
        constancy_stddev=stddev,
        product_residual=worst,
        hypotheses=report,
        solution=sol,
    )
