import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import event, example, given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

import rhcircles as rc
from rhcircles import rhp

from conftest import rational_exact, two_einsum_operator


class _MatrixLU(rhp._ToeplitzLU):
    """The factored-operator class on a given matrix t, in the basis of
    t's own rows: every row and column in the LU, none an identity."""

    def __init__(self, t):
        self.t, self.order = t, t.shape[0]
        self._build()

    def _build(self, equations=(), unknowns=()):
        self.kept, self.unit = np.arange(self.order), np.arange(0)
        self.b = np.zeros((0, self.order), dtype=self.t.dtype)
        self._factor(np.array(self.t, order="F"), equations, unknowns)

    def to_basis(self, y):
        return y

    from_basis = to_basis


def test_trivial_splitting_identity(unit_ccw_64):
    v = rc.JumpData.from_evaluator(unit_ccw_64, lambda z: np.eye(1))
    data = rc.trivial_splitting(v, "plus")
    assert np.max(np.abs(data.w_plus.values)) == 0.0
    assert np.max(np.abs(data.w_minus.values)) == 0.0


def test_trivial_splitting_minus_side(unit_ccw_64):
    v = rc.JumpData.from_evaluator(unit_ccw_64, lambda z: np.diag([2.0, 1.0]))
    data = rc.trivial_splitting(v, "minus")
    assert np.allclose(data.w_minus.values[0], np.diag([0.5, 0.0]))
    assert np.max(np.abs(data.w_plus.values)) == 0.0


@given(st.sampled_from(["plus", "minus"]))
def test_splitting_reassembles_jump(rational_radius6, side):
    _, jump = rational_radius6
    data = rc.trivial_splitting(jump, side)
    v_back = data.b_minus().inv() * data.b_plus()
    assert np.max(np.abs(v_back.values - jump.v.values)) < 1e-12


def test_singular_jump_rejected(unit_ccw_64):
    with pytest.raises(rc.SingularJumpError):
        rc.JumpData.from_evaluator(unit_ccw_64, lambda z: z - 1.0)


@pytest.mark.parametrize(
    "entry",
    [
        lambda z: np.where(z.real > 10.0, np.nan, 2.0),
        lambda z: np.where(z.real > 10.0, np.inf, 2.0),
        lambda z: 1e307 * (z - 0.4) / (z - 2.5),  # overflows near z = 20
    ],
    ids=["nan", "inf", "overflow"],
)
def test_non_finite_jump_samples_are_refused_naming_the_circle(entry):
    # a NaN passes |det v| < delta_inv, so finiteness is checked first,
    # and sampling itself warns of nothing
    system = _two_circle_problem().system
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(rc.EvalError, match=r"not finite on Circle\(center=\(20\+0j\)"):
            rc.JumpData.from_evaluator(system, entry)


def test_identity_jump_solution_is_constant(unit_ccw_64):
    v = rc.JumpData.from_evaluator(unit_ccw_64, lambda z: np.eye(2))
    h = np.array([[2.0, 1.0], [0.0, 1.0]], dtype=complex)
    sol = rc.solve(rc.RHProblem.from_jump(v, h=h))
    assert sol.residual_jump < 1e-14
    for z in (0.0, 0.3 + 0.4j, 5.0):
        assert np.max(np.abs(sol.evaluate(z) - h)) < 1e-13


def test_rational_jump_matches_closed_form(rational_radius6):
    system, jump = rational_radius6
    sol = rc.solve(rc.RHProblem.from_jump(jump))
    probes = rc.off_contour_points(system, 30, rel_margin=0.35, r_min=0.5, r_max=20.0)
    for z in probes:
        assert abs(sol.evaluate(z)[0, 0] - rational_exact(z)) < 1e-10
    assert sol.residual_jump < 1e-12
    assert sol.smallest_singular_value > 0.1


def test_solution_independent_of_splitting_side(rational_radius6):
    system, jump = rational_radius6
    sol_p = rc.solve(rc.RHProblem.from_jump(jump, side="plus"))
    sol_m = rc.solve(rc.RHProblem.from_jump(jump, side="minus"))
    probes = rc.off_contour_points(system, 20, rel_margin=0.35, r_min=0.5, r_max=20.0)
    dev = max(
        float(np.max(np.abs(sol_p.evaluate(z) - sol_m.evaluate(z))))
        for z in probes
    )
    assert dev < 1e-8


@given(
    st.complex_numbers(
        min_magnitude=0.1, max_magnitude=4.0, allow_nan=False, allow_infinity=False
    )
)
def test_solution_linear_in_normalization(rational_radius6, h_scale):
    _, jump = rational_radius6
    base = rc.solve(rc.RHProblem.from_jump(jump))
    scaled = rc.solve(
        rc.RHProblem.from_jump(jump, h=np.array([[h_scale]]))
    )
    dev = np.max(np.abs(scaled.mu.values - h_scale * base.mu.values))
    assert dev < 1e-10 * max(abs(h_scale), 1.0)


def test_solution_in_range_of_projections(rational_radius6):
    # mu b_plus - h extends to the plus side, mu b_minus - h to the minus
    # side; membership is certified by the complementary projection
    system, jump = rational_radius6
    p = rc.RHProblem.from_jump(jump)
    sol = rc.solve(p)
    proj = rc.build_projectors(system)
    h = rc.GridFunction.constant(system, sol.h)
    plus_part = sol.m_plus - h
    minus_part = sol.m_minus - h
    leak_plus = rc.apply_minus(proj, plus_part)
    leak_minus = rc.apply_plus(proj, minus_part)
    assert np.max(np.abs(leak_plus.values)) < 1e-10
    assert np.max(np.abs(leak_minus.values)) < 1e-10


def test_boundary_relation_and_residual(rational_radius6):
    _, jump = rational_radius6
    sol = rc.solve(rc.RHProblem.from_jump(jump))
    # m_pm = mu b_pm holds exactly by construction
    data = sol.problem.data
    assert np.max(np.abs(sol.m_plus.values - (sol.mu * data.b_plus()).values)) == 0.0
    assert np.max(np.abs(sol.m_minus.values - (sol.mu * data.b_minus()).values)) == 0.0
    # and the recorded midpoint residual is an honest upper indicator
    assert 0.0 <= sol.residual_jump < 1e-12


def test_node_boundary_values_are_built_on_first_read(rational_radius6):
    _, jump = rational_radius6
    sol = rc.solve(rc.RHProblem.from_jump(jump))
    assert "m_plus" not in vars(sol) and "m_minus" not in vars(sol)
    m_plus = sol.m_plus
    assert "m_plus" in vars(sol) and "m_minus" not in vars(sol)
    assert sol.m_plus is m_plus
    assert sol.m_minus is vars(sol)["m_minus"]


def test_winding_one_jump_is_near_singular():
    system = rc.build_contour([rc.Circle(0j, 1.0, rc.CCW, 128)])
    v = rc.JumpData.from_evaluator(system, lambda z: z)
    with pytest.raises(rc.NearSingularOperatorError) as info:
        rc.solve(rc.RHProblem.from_jump(v))
    assert info.value.smallest_singular_value < 1e-8


def test_rational_jump_on_unit_circle_is_near_singular():
    # with only one of the two anchors enclosed the symbol winds once and
    # the operator has a genuine one-dimensional kernel
    system = rc.build_contour([rc.Circle(0j, 1.0, rc.CCW, 128)])
    v = rc.JumpData.from_evaluator(system, lambda z: (z - 0.4) / (z - 2.5))
    with pytest.raises(rc.NearSingularOperatorError):
        rc.solve(rc.RHProblem.from_jump(v))
    rep = rc.index_diagnostics(rc.RHProblem.from_jump(v))
    assert (rep.dim_ker, rep.dim_coker) == (1, 0)


@pytest.mark.parametrize("kappa", [-2, -1, 0, 1, 2])
def test_monomial_jump_index(kappa):
    system = rc.build_contour([rc.Circle(0j, 1.0, rc.CCW, 64)])
    v = rc.JumpData.from_evaluator(system, lambda z: z**kappa)
    rep = rc.index_diagnostics(rc.RHProblem.from_jump(v))
    assert rep.dim_ker == max(kappa, 0)
    assert rep.dim_coker == max(-kappa, 0)


def test_kernel_cokernel_duality_under_inversion():
    # dim Coker for the jump v equals dim Ker for z -> v(1/conj(z))^*
    system = rc.build_contour([rc.Circle(0j, 1.0, rc.CCW, 64)])
    for kappa in (-2, 1):
        v = rc.JumpData.from_evaluator(system, lambda z: z**kappa)
        v_sharp = rc.JumpData.from_evaluator(
            system, rc.inversion_conjugate(lambda z: z**kappa)
        )
        rep = rc.index_diagnostics(rc.RHProblem.from_jump(v))
        rep_sharp = rc.index_diagnostics(rc.RHProblem.from_jump(v_sharp))
        assert rep.dim_coker == rep_sharp.dim_ker
        assert rep.dim_ker == rep_sharp.dim_coker


def test_block_triangular_jump_solves():
    # one lower-triangular jump on a small circle: the solution must pick
    # up exactly the Cauchy kernel of the off-diagonal entry
    circle = rc.Circle(2.0 + 0j, 0.5, rc.CW, 32)
    system = rc.build_contour([circle])
    q = 0.7
    v = rc.JumpData.from_evaluator(
        system, lambda z: rc.matrix_at(z, [[1.0, 0.0], [q / (z - 2.0), 1.0]])
    )
    sol = rc.solve(rc.RHProblem.from_jump(v))
    # outside the circle m = I + q E21 / (z - 2), inside m = I
    far = sol.evaluate(4.0 + 0j)
    want = np.eye(2, dtype=complex)
    want[1, 0] = q / (4.0 - 2.0)
    assert np.max(np.abs(far - want)) < 1e-12
    assert np.max(np.abs(sol.evaluate(2.1 + 0j) - np.eye(2))) < 1e-12


def test_spectral_convergence_on_nontrivial_symbol():
    # zeros and poles at distance ratio 0.8 from the circle force visible
    # spectral decay before the rounding floor
    def v_fn(z):
        return ((z - 0.8) * (z - 1.25)) / ((z - 0.7) * (z - 1.4))

    residuals = []
    for m in (16, 32, 64, 128, 256):
        system = rc.build_contour([rc.Circle(0j, 1.0, rc.CCW, m)])
        sol = rc.solve(rc.RHProblem.from_jump(rc.JumpData.from_evaluator(system, v_fn)))
        residuals.append(sol.residual_jump)
    # density tails decay like 0.8^(m/2), so each doubling must win big
    for coarse, fine in zip(residuals, residuals[1:]):
        assert fine <= max(0.2 * coarse, 1e-13)
    assert residuals[-1] < 1e-11


def test_symmetry_check_requires_unit_circle():
    system = rc.build_contour([rc.Circle(0j, 2.0, rc.CCW, 32)])
    v = rc.JumpData.from_evaluator(system, lambda z: np.eye(2))
    with pytest.raises(rc.NotInversionInvariantContourError):
        rc.check_inversion_hypotheses(v)


def test_symmetry_check_requires_mirror_partners():
    system = rc.build_contour(
        [rc.Circle(0j, 1.0, rc.CW, 32), rc.Circle(3.0 + 0j, 0.5, rc.CW, 32)]
    )
    v = rc.JumpData.from_evaluator(system, lambda z: np.eye(2))
    with pytest.raises(rc.NotInversionInvariantContourError):
        rc.check_inversion_hypotheses(v)


def test_symmetry_check_flags_asymmetric_jump():
    mirror = rc.invert_circle(rc.Circle(3.0 + 0j, 0.5, rc.CW, 32))
    system = rc.build_contour(
        [
            rc.Circle(0j, 1.0, rc.CW, 32),
            rc.Circle(3.0 + 0j, 0.5, rc.CW, 32),
            mirror,
        ]
    )
    fns = [
        lambda z: np.eye(2),
        lambda z: np.array([[1.0, 0.3], [0.0, 1.0]]),
        lambda z: np.eye(2),  # should be the conjugate transpose instead
    ]
    v = rc.JumpData.from_evaluators(system, fns)
    rep = rc.check_inversion_hypotheses(v)
    assert not rep.symmetric_off_circle
    assert rep.max_symmetry_deviation > 0.2


def test_a_wrong_number_of_evaluators_is_refused_before_sampling():
    system = rc.build_contour(
        [rc.Circle(0j, 1.0, rc.CCW, 16), rc.Circle(3.0 + 0j, 0.5, rc.CCW, 16)]
    )
    calls = []

    def one(z):
        calls.append(z.size)
        return np.ones_like(z)

    for fns in ([one], [one] * 3):
        with pytest.raises(ValueError, match="need one evaluator per circle"):
            rc.JumpData.from_evaluators(system, fns)
    assert calls == []


def test_symmetry_check_keeps_a_nan_deviation():
    outer = rc.Circle(2.5 + 0j, 0.5, rc.CW, 16)
    mirror = rc.invert_circle(outer)
    system = rc.build_contour([rc.Circle(0j, 1.0, rc.CW, 16), outer, mirror])
    nodes = mirror.points()

    def nan_off_its_nodes(z):
        out = np.full((z.size, 2, 2), np.nan, dtype=np.complex128)
        out[np.isin(z, nodes)] = np.eye(2)
        return out

    v = rc.JumpData.from_evaluators(
        system, [lambda z: np.eye(2), lambda z: np.eye(2), nan_off_its_nodes]
    )
    # the outer circle's mirrored nodes are not bit-equal to the mirror's
    assert not np.all(np.isin(1.0 / np.conj(outer.points()), nodes))
    rep = rc.check_inversion_hypotheses(v)
    assert np.isnan(rep.max_symmetry_deviation)
    assert not rep.symmetric_off_circle


def test_symmetry_check_accepts_mirror_pair():
    outer = rc.Circle(3.0 + 0j, 0.5, rc.CW, 32)
    mirror = rc.invert_circle(outer)
    system = rc.build_contour([rc.Circle(0j, 1.0, rc.CW, 32), outer, mirror])
    pair = lambda z: rc.matrix_at(z, [[1.0, 0.5 / (z - 3.0)], [0.0, 1.0]])
    fns = [
        lambda z: np.diag([2.0, 1.0]),  # Hermitian, positive on S^1
        pair,
        rc.inversion_conjugate(pair),
    ]
    v = rc.JumpData.from_evaluators(system, fns)
    rep = rc.check_inversion_hypotheses(v)
    assert rep.symmetric_off_circle
    assert rep.max_symmetry_deviation < 1e-12
    assert abs(rep.min_re_eig_on_circle - 1.0) < 1e-12
    assert rep.hermitian_deviation_on_circle < 1e-12


def test_evaluate_respects_contour_margin(rational_radius6):
    _, jump = rational_radius6
    sol = rc.solve(rc.RHProblem.from_jump(jump))
    with pytest.raises(rc.TooCloseToContourError):
        sol.evaluate(6.0 + 1e-9j)


def test_near_singular_error_reports_value():
    err = rc.NearSingularOperatorError(3e-12)
    assert err.smallest_singular_value == 3e-12
    assert "3e-12" in str(err) or "3.0" in str(err) or "e-12" in str(err)


def _cli_problem(name):
    from rhcircles import cli

    path = Path(__file__).resolve().parent.parent / "problems" / name
    doc = json.loads(path.read_text())
    system = cli._build_system(doc, None)
    jump = cli._build_jump(doc, system, rc.DELTA_INV)
    return rc.RHProblem.from_jump(jump)


def _defocusing_problem(node_count=128):
    spec = rc.IdnlsSpec(r=lambda z: 0.3 * z + 0.1 / z, n=1, sign="defocusing")
    return rc.RHProblem.from_jump(
        rc.build_defocusing_jump(spec, node_count=node_count)
    )


def _turned(p):
    """p with its jump times 1j, split on the same side.  On one circle T
    becomes diag(I, 1j I) T, so T^H T, sigma_min and every Lanczos apply
    stay as they were, but Re(1j v) has no positive lower bound: the
    positivity certificate gives nothing, and Lanczos runs."""
    jump = p.data.jump
    fns = [lambda z, i=i: 1j * jump.at(i, z) for i in range(len(jump.evaluators))]
    turned = rc.JumpData.from_evaluators(jump.system, fns, jump.delta_inv)
    side = "minus" if np.any(p.data.w_minus.values) else "plus"
    return rc.RHProblem.from_jump(turned, h=p.h, side=side)


@pytest.mark.parametrize(
    "make",
    [
        lambda: _turned(_cli_problem("rational_solve.json")),
        lambda: _turned(_cli_problem("hermitian_scalar.json")),
        lambda: _turned(_defocusing_problem()),
    ],
    ids=["rational_solve", "hermitian_scalar", "defocusing_1x128"],
)
def test_smallest_singular_value_matches_svdvals(make):
    p = make()
    sol = rc.solve(p)
    exact = scipy.linalg.svdvals(two_einsum_operator(p))[-1]
    assert sol.sigma_source == "lanczos"
    assert sol.solver_path == "lu"
    assert abs(sol.smallest_singular_value - exact) <= 1e-12 * exact


def test_zero_pivot_counts_as_singular():
    # singular reads the zero pivot, so lu_factor's warning is not shown
    t = np.diag([1.0, 2.0, 3.0, 0.0, 5.0]).astype(complex)
    t[0, 3] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        op = _MatrixLU(t)
    assert rhp._smallest_singular_value(op) == 0.0
    with pytest.raises(rc.NearSingularOperatorError, match="broke down"):
        rhp._certified_lu(op, np.arange(0), rc.SIGMA_MIN)


def _diagonal_apply(calls, finite_for):
    """apply(y) of diag(1, ..., 2) on 40 entries, finite for the first
    finite_for calls and NaN after them; calls counts the calls."""
    diagonal = np.linspace(1.0, 2.0, 40)

    def apply(y):
        calls.append(1)
        return diagonal * y if len(calls) <= finite_for else np.nan * y

    return apply


def test_apply_that_stops_being_finite_ends_the_lanczos_run():
    # the run takes more than three applies when every apply is finite;
    # applies that are not finite from the third on end it there, with None
    calls, start = [], rhp._start_vector(40)
    got = rhp._lanczos_sigma_min(_diagonal_apply(calls, np.inf), start)
    assert len(calls) > 3 and abs(got - 2.0**-0.5) <= 1e-14
    calls.clear()
    assert rhp._lanczos_sigma_min(_diagonal_apply(calls, 2), start) is None
    assert len(calls) == 3


# rows of scale 1e-310 beside rows of scale 1e301: the LU has no zero
# pivot, but its solves overflow, so the null vectors are not finite
_SUBNORMAL_ROWS = (
    lambda z: rc.matrix_at(z, [[1e-310 * (z - 0.4) / (z - 2.5), 0.0], [0.0, 1e301]])
)


def _subnormal_rows_problem():
    system = rc.build_contour(
        [rc.Circle(0j, 6.0, rc.CCW, 64), rc.Circle(20.0 + 0j, 1.0, rc.CCW, 16)]
    )
    return rc.RHProblem.from_jump(rc.JumpData.from_evaluator(system, _SUBNORMAL_ROWS))


def test_non_finite_apply_on_a_broken_down_lu_counts_as_singular(monkeypatch, capfd):
    # on that broken-down LU the first apply is not finite, and the run
    # ends there with None, before any further call reads it (LAPACK
    # prints to stdout on such input): sigma_min = 0, never a
    # certificate.  solve makes no run there (next test), so the run is
    # made directly
    op = rhp._ToeplitzLU(_subnormal_rows_problem())
    runs = _applies(monkeypatch, "_lanczos_sigma_min")
    with np.errstate(all="ignore"):
        assert rhp._smallest_singular_value(op) == 0.0
    assert runs == [1]
    assert capfd.readouterr().out == ""


def test_broken_down_lu_runs_no_lanczos(monkeypatch):
    # its null vectors are not finite, so sigma_min is 0 without a run
    p = _subnormal_rows_problem()
    with np.errstate(all="ignore"):
        r, l, bound = rhp._null_vectors(rhp._ToeplitzLU(p))
    assert bound == np.inf
    assert not np.any(np.isfinite(r)) and not np.any(np.isfinite(l))
    calls = _counted(monkeypatch, rhp, "_lanczos_sigma_min")
    with np.errstate(all="ignore"), pytest.raises(
        rc.NearSingularOperatorError, match="broke down"
    ) as info:
        rc.solve(p)
    assert calls == []
    assert info.value.smallest_singular_value == 0.0


def test_null_vectors_keep_their_direction_near_the_edge_of_the_range():
    # T^(-1) s reaches 1.2e302 here, whose sum of squares overflows; the
    # scaled nrm2 keeps r and l unit vectors, and their band content
    # names the genuine kernel
    system = rc.build_contour(
        [rc.Circle(0j, 6.0, rc.CCW, 64), rc.Circle(20.0 + 0j, 1.0, rc.CCW, 16)]
    )
    jump = rc.JumpData.from_evaluator(
        system,
        lambda z: rc.matrix_at(
            z, [[1e-300 * (z - 0.4) / (z - 2.5), 0.0], [0.0, 1e300]]
        ),
    )
    p = rc.RHProblem.from_jump(jump)
    with np.errstate(all="ignore"):
        r, l, bound = rhp._null_vectors(rhp._ToeplitzLU(p))
    for v in (r, l):
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
    assert bound < rc.SIGMA_MIN
    # the contents as solve formats them; their last digit follows the
    # BLAS threads
    band = rhp._band_rows(system, 2)
    ker, coker = (float(np.linalg.norm(v[band])) for v in (r, l))
    assert ker > rhp.ALIAS_BAND_CONTENT and coker > rhp.ALIAS_BAND_CONTENT
    with pytest.raises(
        rc.NearSingularOperatorError,
        match=re.escape(f"content {ker:.2e} (right), {coker:.2e} (left)"),
    ):
        rc.solve(p)


def test_two_circle_overflowing_residual_is_refused():
    # the Fourier-basis LU solves this jump (sigma_min 0.07), but m_minus v
    # at the midpoints overflows, as on one circle
    system = rc.build_contour(
        [rc.Circle(0j, 6.0, rc.CCW, 64), rc.Circle(20.0 + 0j, 1.0, rc.CCW, 16)]
    )
    jump = rc.JumpData.from_evaluator(system, lambda z: 1e300 * (z - 0.4) / (z - 2.5))
    with pytest.raises(ValueError, match="jump residual is not finite"):
        rc.solve(rc.RHProblem.from_jump(jump))


def test_overflow_in_the_identity_columns_coupling_is_refused():
    # the first component's columns are unit vectors, and the entry near
    # 1e307, finite at every node, overflows only in C, their rows against
    # the kept columns: it is refused as lu_factor refuses a value of A
    # that is not finite
    system = _two_circle_problem().system
    with np.errstate(all="ignore"):
        jump = rc.JumpData.from_evaluator(
            system,
            lambda z: rc.matrix_at(
                z, [[1.0, 0.0], [8e306 * (z - 0.4) / (z - 2.5), 1.0]]
            ),
        )
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            rc.solve(rc.RHProblem.from_jump(jump))


def test_one_circle_overflowing_residual_is_refused():
    # the Toeplitz section solves this jump (sigma_min 0.93), but m_minus v
    # at the midpoints overflows; no solution may carry an infinite residual
    system = rc.build_contour([rc.Circle(0j, 6.0, rc.CCW, 64)])
    jump = rc.JumpData.from_evaluator(system, lambda z: 1e300 * (z - 0.4) / (z - 2.5))
    with pytest.raises(ValueError, match="jump residual is not finite"):
        rc.solve(rc.RHProblem.from_jump(jump))


def test_minus_splitting_accepts_a_large_jump():
    # b_minus = v^(-1) has |det| = 1e-12; only det v itself is checked
    system = rc.build_contour([rc.Circle(0j, 6.0, rc.CCW, 64)])

    def v(z):
        return rc.matrix_at(z, [[1e6 * (z - 0.4) / (z - 2.5), 0.0], [0.0, 1e6]])

    jump = rc.JumpData.from_evaluator(system, v)
    sol_p = rc.solve(rc.RHProblem.from_jump(jump, side="plus"))
    sol_m = rc.solve(rc.RHProblem.from_jump(jump, side="minus"))
    z = rc.off_contour_points(system, 20, rel_margin=0.35, r_min=0.5, r_max=20.0)
    m_p, m_m = sol_p.evaluate(z), sol_m.evaluate(z)
    assert np.max(np.abs(m_p - m_m)) <= 1e-9 * np.max(np.abs(m_p))


def _operator_with_kernel(order, nullity):
    rng = np.random.default_rng(7)

    def unitary():
        q, _ = np.linalg.qr(
            rng.standard_normal((order, order))
            + 1j * rng.standard_normal((order, order))
        )
        return q

    u, v = unitary(), unitary()
    s = np.linspace(2.0, 0.5, order)
    s[order - nullity :] = 0.0
    t = (u * s) @ v.conj().T
    # a right-hand side in the range of t
    rhs = t @ (rng.standard_normal((order, 2)) + 0j)
    return t, rhs


# With no band, every null vector reads as an alias, so _certified_lu
# leaves out the row and the column where they peak.
_NO_BAND = np.arange(0)


def test_one_dimensional_kernel_is_left_out_where_its_null_vectors_peak():
    t, rhs = _operator_with_kernel(40, 1)
    op = _MatrixLU(t)
    r, l, _ = rhp._null_vectors(op)
    smallest = rhp._certified_lu(op, _NO_BAND, rc.SIGMA_MIN)
    row, column = np.argmax(np.abs(l)), np.argmax(np.abs(r))
    assert [i.tolist() for i in op.left_out] == [[row], [column]]
    reduced = np.delete(np.delete(t, row, axis=0), column, axis=1)
    assert abs(smallest - scipy.linalg.svdvals(reduced)[-1]) <= 1e-10 * smallest
    x = op.solve(rhs)
    rhp._check_left_out(op, x, rhs, smallest)  # consistent: not refused
    assert np.all(x[column] == 0.0)
    assert np.max(np.abs(t @ x - rhs)) < 1e-10
    # the pseudoinverse solution, up to a multiple of the null vector
    gap = x - np.linalg.pinv(t, rcond=1e-10) @ rhs
    assert np.max(np.abs(gap - np.outer(r, np.conj(r) @ gap))) < 1e-10


def test_two_dimensional_kernel_is_never_left_out_by_one_pair():
    t, rhs = _operator_with_kernel(40, 2)
    with pytest.raises(rc.NearSingularOperatorError, match="more than one"):
        rhp._certified_lu(_MatrixLU(t), _NO_BAND, rc.SIGMA_MIN)


def test_inconsistent_system_is_refused_after_leaving_out():
    # a left null vector in the first right-hand side is outside the range
    t, rhs = _operator_with_kernel(40, 1)
    op = _MatrixLU(t)
    r, l, _ = rhp._null_vectors(op)
    rhs = rhs + l[:, None] * np.array([[1.0, 0.0]])
    smallest = rhp._certified_lu(op, _NO_BAND, rc.SIGMA_MIN)
    x = op.solve(rhs)
    with pytest.raises(rc.NearSingularOperatorError, match="inconsistent"):
        rhp._check_left_out(op, x, rhs, smallest)


def test_lanczos_refuses_a_non_positive_ritz_value():
    assert rhp._lanczos_sigma_min(lambda y: -y, rhp._start_vector(20)) is None


def _grid_off_contour(system, half_width, count):
    x = np.linspace(-half_width, half_width, count)
    z = (x[:, None] + 1j * x[None, :]).reshape(-1)
    return z[~rc.cauchy.too_close(system, z)]


def test_array_evaluate_equals_stacked_point_evaluates(rational_radius6):
    system, jump = rational_radius6
    sol = rc.solve(rc.RHProblem.from_jump(jump))
    # more points than one kernel block, inside and outside the circle
    z = _grid_off_contour(system, 9.0, 17)
    assert z.size > rc.cauchy.EVAL_BLOCK
    assert np.any(np.abs(z) < 6.0) and np.any(np.abs(z) > 6.0)
    got = sol.evaluate(z)
    assert got.shape == (z.size, 1, 1)
    assert np.array_equal(got, np.stack([sol.evaluate(complex(w)) for w in z]))


def test_array_evaluate_names_the_too_close_point(rational_radius6):
    system, jump = rational_radius6
    sol = rc.solve(rc.RHProblem.from_jump(jump))
    z = np.array([0.0, 3.0, 6.0 + 1e-9j, 9.0])
    with pytest.raises(rc.TooCloseToContourError, match=r"point \(6\+1e-09j\) "):
        sol.evaluate(z)


def _conjugated_soliton_jump():
    spec = rc.IdnlsSpec(r=None, n=1, poles=((2.0 + 0.5j, 0.7 + 0j),))
    return rc.conjugate(rc.remove_poles(spec, pole_nodes=32, unit_nodes=32)).jump


@pytest.mark.parametrize(
    "make",
    [
        lambda: _cli_problem("hermitian_scalar.json").data.jump,
        lambda: _defocusing_problem().data.jump,
        _conjugated_soliton_jump,
    ],
    ids=["hermitian_scalar", "defocusing_1x128", "conjugated_soliton"],
)
def test_reevaluated_jump_equals_node_samples(make):
    jump = make()
    for i, circle in enumerate(jump.system.circles):
        assert np.array_equal(jump.at(i, circle.points()), jump.v.restrict(i))


def test_evaluator_shapes(unit_ccw_64):
    pts = unit_ccw_64.all_points()
    want = (2.0 + pts)[:, None, None]
    for fn in (
        lambda z: 2.0 + z,  # (P,) for a 1x1 jump
        lambda z: (2.0 + z)[:, None, None],  # (P, n, n)
    ):
        assert np.array_equal(rc.GridFunction.sample(unit_ccw_64, fn).values, want)
    for fn, const in (
        (lambda z: 3.0, np.full((1, 1), 3.0)),  # a scalar
        (lambda z: np.diag([2.0, 1.0]), np.diag([2.0, 1.0])),  # a constant (n, n)
    ):
        v = rc.JumpData.from_evaluator(unit_ccw_64, fn)
        assert v.v.values.shape == (pts.size,) + const.shape
        assert np.all(v.v.values == const)
        assert v.at(0, [0.5, 2.0]).shape == (2,) + const.shape
    # per-point literals stacked the wrong way round are refused
    with pytest.raises(ValueError):
        rc.GridFunction.sample(unit_ccw_64, lambda z: np.array([[2.0 + z]]))


def test_boundary_values_at_nodes_reproduce_node_samples():
    # an annulus: the outer circle runs ccw, the inner one cw
    system = rc.build_contour(
        [rc.Circle(0j, 2.0, rc.CCW, 32), rc.Circle(0.2 + 0j, 0.5, rc.CW, 32)]
    )
    fns = [
        lambda z: rc.matrix_at(z, [[1.0, 0.0], [0.4 / (z - 2.5), 1.0]]),
        lambda z: rc.matrix_at(z, [[1.0, 0.3 / (z - 0.3)], [0.0, 1.0]]),
    ]
    sol = rc.solve(rc.RHProblem.from_jump(rc.JumpData.from_evaluators(system, fns)))
    for i, circle in enumerate(system.circles):
        m_plus, m_minus = sol.boundary_values(i, circle.angles())
        assert np.max(np.abs(m_plus - sol.m_plus.restrict(i))) <= 1e-12
        assert np.max(np.abs(m_minus - sol.m_minus.restrict(i))) <= 1e-12


def _band_basis(system, n):
    """E, column by column: node values of exp(1j*k*theta)/sqrt(m) for
    |k| <= m/4 on each circle, n components per node."""
    blocks = []
    for c in system.circles:
        m = c.node_count
        k = np.arange(-(m // 4), m // 4 + 1)
        blocks.append(rc.cauchy.circle_values(c, np.eye(m)[:, k % m]) / np.sqrt(m))
    return np.kron(scipy.linalg.block_diag(*blocks), np.eye(n))


def test_band_equals_dense_bandlimited_basis_product():
    outer = rc.Circle(3.0 + 0j, 0.5, rc.CW, 32)
    mirror = rc.invert_circle(rc.Circle(3.0 + 0j, 0.5, rc.CW, 16))
    system = rc.build_contour([rc.Circle(0j, 1.0, rc.CW, 64), outer, mirror])
    assert mirror.orientation == rc.CCW
    assert {c.sign for c in system.circles} == {-1, 1}
    basis = _band_basis(system, 1)
    assert basis.shape == (112, 33 + 17 + 9)
    gram = basis.conj().T @ basis
    assert np.max(np.abs(gram - np.eye(gram.shape[0]))) <= 1e-13
    rng = np.random.default_rng(3)
    for n in (1, 2):
        e = np.kron(basis, np.eye(n))
        jump = rc.JumpData.from_evaluator(system, lambda z: 2.0 * np.eye(n))
        op = rhp._ToeplitzLU(rc.RHProblem.from_jump(jump))
        y = rng.standard_normal((112 * n, 5)) + 1j * rng.standard_normal((112 * n, 5))
        band = op.to_basis(y)[rhp._band_rows(system, n)]
        assert np.max(np.abs(band - e.conj().T @ y)) <= 1e-13


GENUINE_KERNEL_JUMPS = {
    **{f"z^{k}": (lambda z, k=k: z**k) for k in (-2, -1, 1, 2)},
    **{
        f"diag(z^{k},1)_lower": (
            lambda z, k=k: rc.matrix_at(z, [[z**k, 0.0], [0.5 / (z - 3.0), 1.0]])
        )
        for k in (-1, 1)
    },
}


@pytest.mark.parametrize("name", list(GENUINE_KERNEL_JUMPS))
def test_genuine_kernel_is_refused_by_its_null_vector_content(name):
    system = rc.build_contour([rc.Circle(0j, 1.0, rc.CCW, 128)])
    v = rc.JumpData.from_evaluator(system, GENUINE_KERNEL_JUMPS[name])
    with pytest.raises(
        rc.NearSingularOperatorError, match="band-limited null-vector content"
    ) as info:
        rc.solve(rc.RHProblem.from_jump(v))
    assert info.value.smallest_singular_value < rc.SIGMA_MIN


def _unit_circle_problem(fn):
    system = rc.build_contour([rc.Circle(0j, 1.0, rc.CCW, 64)])
    return rc.RHProblem.from_jump(rc.JumpData.from_evaluator(system, fn))


def _lower_triangular(a, b):
    return lambda z: rc.matrix_at(z, [[z**a, 0.0], [0.3 / (z - 3.0), z**b]])


def _conjugated_soliton_problem(site=0):
    spec = rc.IdnlsSpec(r=None, n=site, poles=((2.0 + 0j, 1.0 + 0j),))
    ap = rc.conjugate(rc.remove_poles(spec))
    return rc.RHProblem.from_jump(ap.jump, h=np.eye(2))


RANK_COUNT_PROBLEMS = {
    **{
        f"z^{k}": (lambda k=k: _unit_circle_problem(lambda z: z**k))
        for k in range(-2, 3)
    },
    "diag(z,1/z)": lambda: _unit_circle_problem(
        lambda z: rc.matrix_at(z, [[z, 0.0], [0.0, 1.0 / z]])
    ),
    # kernels of three or more directions
    "z^-5": lambda: _unit_circle_problem(lambda z: z**-5),
    "lower(z^3,z)": lambda: _unit_circle_problem(_lower_triangular(3, 1)),
    "lower(z^4,z^4)": lambda: _unit_circle_problem(_lower_triangular(4, 4)),
    "defocusing_1x512": lambda: _defocusing_problem(512),
    "conjugated_soliton": _conjugated_soliton_problem,
}


def _counted(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("name", list(RANK_COUNT_PROBLEMS))
def test_rank_count_agrees_with_full_svdvals(name):
    p = RANK_COUNT_PROBLEMS[name]()
    n, t = p.data.dim, two_einsum_operator(p)
    e = _band_basis(p.system, n)
    expected = [
        rhp._count_small(scipy.linalg.svdvals(m), rc.TAU_RANK)
        for m in (t @ e, e.conj().T @ t)
    ]
    rep = rc.index_diagnostics(p)
    got = [(rep.dim_ker // n, rep.ker_gap), (rep.dim_coker // n, rep.coker_gap)]
    for (count, (lo, hi)), (ref_count, (ref_lo, ref_hi)) in zip(got, expected):
        assert count == ref_count
        assert abs(hi - ref_hi) <= 1e-12 * ref_hi
        # below the threshold only noise is left, so only its size is kept
        assert lo < rc.TAU_RANK / 10.0 and ref_lo < rc.TAU_RANK / 10.0


def test_rank_count_refuses_a_value_near_the_threshold():
    # z^1 at 64 nodes: one value at rounding level, the next about 1, so
    # at tau = 0.5 the second lands in the window
    p = _unit_circle_problem(lambda z: z)
    with pytest.raises(rc.RankAmbiguityError, match="rank threshold 5.0e-01"):
        rc.index_diagnostics(p, tau_rank=0.5)


@pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
def test_tolerances_that_are_not_finite_and_positive_are_refused(value):
    # sigma_min 0 let the near-singular solve return with sigma 8.0e-18,
    # and tau_rank nan or -1 counted (0, 0) where the index is (1, 0);
    # the words are the command line's
    def refusal(name):
        return re.escape(f"tolerance {name} must be finite and > 0, got {value}")

    p = _cli_problem("rational_near_singular.json")
    with pytest.raises(ValueError, match=refusal("sigma_min")):
        rc.solve(p, sigma_min=value)
    assert p.band_sigma_lower_bound is None
    spec = rc.IdnlsSpec(r=lambda z: 0.3 * z, n=1, sign="defocusing")
    ap = rc.conjugate(rc.remove_poles(spec, unit_nodes=32))
    with pytest.raises(ValueError, match=refusal("sigma_min")):
        rc.solve_augmented(ap, sigma_min=value)
    with pytest.raises(ValueError, match=refusal("tau_rank")):
        rc.index_diagnostics(_cli_problem("index_power.json"), tau_rank=value)
    # |det v| is checked through its log, which delta_inv 0 would warn on
    with pytest.raises(ValueError, match=refusal("delta_inv")):
        rc.JumpData.from_evaluator(p.system, lambda z: np.eye(1), delta_inv=value)


def _dense_problems(count, seed=1):
    # the first inputs of the benchmark's dense workload at this seed
    rng = np.random.default_rng(seed)
    for _ in range(count):
        site = int(rng.integers(-3, 4))
        total = rng.uniform(0.1, 0.5)
        share = rng.uniform()
        a = total * share * np.exp(2j * np.pi * rng.uniform())
        b = total * (1.0 - share) * np.exp(2j * np.pi * rng.uniform())
        spec = rc.IdnlsSpec(
            r=lambda z, a=a, b=b: a * z + b / z, n=site, sign="defocusing"
        )
        yield rc.build_defocusing_jump(spec, node_count=512)


def _index_outcome(p, **kwargs):
    try:
        rep = rc.index_diagnostics(p, **kwargs)
    except rc.RankAmbiguityError as err:
        return str(err), None
    return (rep.dim_ker, rep.dim_coker), rep


def test_solved_problem_counts_like_a_fresh_one_on_dense_inputs():
    for jump in _dense_problems(6):
        p = rc.RHProblem.from_jump(jump)
        assert rc.solve(p).solver_path == "krylov"
        assert p.band_sigma_lower_bound >= 10.0 * rc.TAU_RANK
        got, rep = _index_outcome(p)
        expected, fresh = _index_outcome(rc.RHProblem.from_jump(jump))
        assert got == expected == (0, 0)
        # interlacing: sigma_min(T) bounds each band value from below
        assert rep.ker_gap == rep.coker_gap == (0.0, p.band_sigma_lower_bound)
        assert rep.ker_gap[1] <= fresh.ker_gap[1] * (1.0 + 1e-12)
        assert rep.coker_gap[1] <= fresh.coker_gap[1] * (1.0 + 1e-12)


@pytest.mark.parametrize("sigma", [1.01e-6, 0.99e-6, 0.8e-6])
def test_solved_problem_counts_like_a_fresh_one_near_ten_tau(sigma):
    # sigma_min(T) of 1j s (2 + z) on this circle is 1.0951 s, and the band
    # values are 15-21 % above it: just above 10 tau the count is skipped,
    # just below it runs, and at 0.8e-6 it refuses
    system = rc.build_contour([rc.Circle(0j, 1.0, rc.CCW, 16)])
    s = sigma / 1.0951235
    jump = rc.JumpData.from_evaluator(system, lambda z: 1j * s * (2.0 + z))
    p = rc.RHProblem.from_jump(jump)
    sol = rc.solve(p)
    assert (sol.solver_path, sol.sigma_source) == ("lu", "lanczos")
    assert abs(p.band_sigma_lower_bound - sigma) <= 1e-3 * sigma
    got, _ = _index_outcome(p)
    expected, _ = _index_outcome(rc.RHProblem.from_jump(jump))
    assert got == expected
    if sigma < 0.9e-6:
        assert "rank threshold" in got


def _count_rank_probes(monkeypatch):
    return [
        _counted(monkeypatch, owner, name)
        for owner, name in (
            (scipy.linalg, "svdvals"),
            (scipy.linalg, "qr"),
            (rhp, "_lanczos_sigma_min"),
        )
    ]


def test_certified_solve_leaves_no_rank_count(monkeypatch):
    p = _defocusing_problem()
    rc.solve(p)
    probes = _count_rank_probes(monkeypatch)
    rep = rc.index_diagnostics(p)
    assert probes == [[], [], []]
    assert (rep.dim_ker, rep.dim_coker) == (0, 0)


def _lattice_problems(count, seed=1):
    # the first inputs of the benchmark's lattice workload at this seed
    rng = np.random.default_rng(seed)
    for _ in range(count):
        site = int(rng.integers(-3, 4))
        z = rng.uniform(1.8, 3.0) * np.exp(2j * np.pi * rng.uniform())
        c = rng.uniform(0.3, 1.0) * np.exp(2j * np.pi * rng.uniform())
        spec = rc.IdnlsSpec(r=None, n=site, poles=((complex(z), complex(c)),))

        def make(spec=spec):
            ap = rc.remove_poles(spec, pole_nodes=64, unit_nodes=64)
            conj = rc.conjugate(ap, node_count=64)
            return rc.RHProblem.from_jump(conj.jump, h=np.eye(2))

        yield make


@pytest.mark.parametrize(
    "make",
    [*_lattice_problems(8), _conjugated_soliton_problem],
    ids=[*(f"lattice_{k}" for k in range(8)), "conjugated_soliton"],
)
def test_alias_solve_certifies_the_count(make, monkeypatch):
    # sigma_min of T less the modes left out bounds both band products'
    # values from below, by interlacing, since those modes are outside
    # the band
    p = make()
    assert rc.solve(p).solver_path == "lu"
    probes = _count_rank_probes(monkeypatch)
    got, rep = _index_outcome(p)
    assert probes == [[], [], []]
    expected, fresh = _index_outcome(make())
    assert got == expected == (0, 0)
    assert rep.ker_gap[1] <= fresh.ker_gap[1] * (1.0 + 1e-12)
    assert rep.coker_gap[1] <= fresh.coker_gap[1] * (1.0 + 1e-12)


def _second_smallest_where_separated(p, sigma):
    """Assert sigma = sigma_2(T) to 1e-10 where sigma_3 > 1.1 sigma_2: T
    less the modes left out keeps every singular value of T but its alias
    one."""
    s = scipy.linalg.svdvals(two_einsum_operator(p))
    assert s[-1] < rc.SIGMA_MIN  # T itself has the alias kernel
    if s[-3] > 1.1 * s[-2]:
        assert abs(sigma - s[-2]) <= 1e-10 * s[-2]


@pytest.mark.parametrize(
    "make",
    [*(lambda n=n: _conjugated_soliton_problem(n) for n in (-3, 0, 3, 12)),
     *_lattice_problems(4)],
    ids=[*(f"soliton_n{n}" for n in (-3, 0, 3, 12)),
         *(f"lattice_{k}" for k in range(4))],
)
def test_modes_left_out_at_the_seam_leave_the_second_singular_value(make):
    p = make()
    # the outer circle's w winds +1 and the inner one's 1/w -1: one
    # equation row and one unknown column, both of component 2 at the
    # mode -m/2 (C+ keeps k >= 0 on both counterclockwise circles)
    equations, unknowns = rhp._left_out(p)
    outer, inner = p.system.node_slices()[-2:]
    assert equations == [(outer.start + 32) * 2 + 1]
    assert unknowns == [(inner.start + 32) * 2 + 1]
    sol = rc.solve(p)
    assert (sol.solver_path, sol.sigma_source) == ("lu", "lanczos")
    assert sol.smallest_singular_value >= rc.SIGMA_MIN
    _second_smallest_where_separated(p, sol.smallest_singular_value)
    # the unknown left out comes back 0, whatever the right-hand side
    op = rhp._ToeplitzLU(p, (equations, unknowns))
    y = op.to_basis(np.random.default_rng(5).standard_normal((op.order, 2)) + 0j)
    assert np.all(op.solve(y)[unknowns] == 0.0)


_POLE_SETS = {
    "one_pole": ((2.0 + 0.5j, 0.7 + 0j),),
    "two_poles": ((2.0 + 0j, 1.0 + 0j), (-1.5 + 2.0j, 0.5j)),
}


@pytest.mark.parametrize("site", range(-3, 4))
@pytest.mark.parametrize("slope", [0.0, 0.2], ids=["r_0", "r_0.2z"])
@pytest.mark.parametrize("poles", list(_POLE_SETS))
def test_identity_columns_solve_like_the_dense_lu(poles, slope, site):
    # the pole circles' jumps are unipotent triangular, so one component
    # of each is a group of unit columns; so is the unit circle's second
    # component, where r = 0 makes its jump diag(|prod z_j|^2, 1)
    spec = rc.IdnlsSpec(
        r=(lambda z: slope * z) if slope else None, n=site, poles=_POLE_SETS[poles]
    )
    ap = rc.conjugate(rc.remove_poles(spec, pole_nodes=64, unit_nodes=64), 64)
    p = rc.RHProblem.from_jump(ap.jump, h=np.eye(2))
    sol = rc.solve(p)
    big_n = p.system.total_nodes
    groups = 2 * len(spec.poles) + (slope == 0.0)
    assert sol.solver_path == "lu"
    assert sol.factored_order == 2 * big_n - 64 * groups
    # the reference: all of T from the node-space projectors, in the
    # Fourier basis, less the modes left out, by one dense LU
    def to_basis(y):
        return rhp._by_circle(p.system, y, rhp._to_unitary, 2)

    t = to_basis(to_basis(two_einsum_operator(p)).conj().T).conj().T
    equations, unknowns = rhp._left_out(p)
    rows, cols = (np.setdiff1d(np.arange(2 * big_n), i) for i in (equations, unknowns))
    reduced = t[np.ix_(rows, cols)]
    rhs = to_basis(np.repeat(p.h[:, None, :], big_n, axis=1).reshape(2, -1).T)
    x = np.zeros_like(rhs)
    x[cols] = scipy.linalg.lu_solve(scipy.linalg.lu_factor(reduced), rhs[rows])
    x = rhp._by_circle(p.system, x, rhp._from_unitary, 2)
    mu = x.T.reshape(2, big_n, 2).transpose(1, 0, 2)
    scale = np.max(np.abs(mu))
    assert np.max(np.abs(sol.mu.values - mu)) <= 1e-13 * scale
    exact = scipy.linalg.svdvals(reduced)[-1]
    assert abs(sol.smallest_singular_value - exact) <= 1e-10 * exact


def _lower_triangular_two_circle_problem():
    # the first component's row of w is zero on both circles, so its
    # columns of T are unit vectors
    system = _two_circle_problem().system
    jump = rc.JumpData.from_evaluator(
        system, lambda z: rc.matrix_at(z, [[1.0, 0.0], [0.3 / (z - 2.5), 1.0]])
    )
    return rc.RHProblem.from_jump(jump)


def test_a_tiny_entry_keeps_its_row_in_the_factored_block():
    # a lower triangular jump on two circles: the first component's
    # columns are unit vectors on both, unless one entry of 1e-300 in
    # that row of w reaches the first circle's
    p = _lower_triangular_two_circle_problem()
    system, jump = p.system, p.data.jump
    w = p.data.w_plus.values.copy()
    w[3, 0, 1] = 1e-300
    tiny = rc.RHProblem(
        rc.FactorizationData(rc.GridFunction(system, w), p.data.w_minus, jump)
    )
    sol, sol_tiny = rc.solve(p), rc.solve(tiny)
    assert (sol.factored_order, sol_tiny.factored_order) == (160 - 80, 160 - 16)
    scale = np.max(np.abs(sol.mu.values))
    assert np.max(np.abs(sol.mu.values - sol_tiny.mu.values)) <= 1e-13 * scale


def _one_circle_alias_problem(side="plus", nodes=64):
    # [[z, 0], [c, 1/z]] on a clockwise unit circle: the windings cancel
    # on the circle, so none is read, and T has an alias kernel
    return rc.RHProblem.from_jump(
        rc.JumpData.from_evaluator(
            rc.build_contour([rc.Circle(0j, 1.0, rc.CW, nodes)]),
            lambda z: rc.matrix_at(z, [[z, 0.0], [0.5 / (z - 3.0), 1.0 / z]]),
        ),
        side=side,
    )


@pytest.mark.parametrize(
    "form, wider",
    [
        ("one_circle", 0),
        ("identity_columns", -1),
        ("none", 0),
        ("one_circle_left_out", 0),
        ("identity_columns_left_out", -1),
    ],
)
def test_each_block_triangular_form_solves_t_and_its_adjoint(
    rational_radius6, form, wider
):
    # T = [[I, C], [0, A]] (wider -1: b is C, T's unit rows at kept), or
    # all of T in A (wider 0), as on one circle split on one side: the
    # solves with T and T^H against dense T.  With modes left out, as
    # solve leaves them out (the one-circle alias from its null vectors,
    # the conjugated soliton's from _left_out), the solves are those of T
    # with the rows and columns left out replaced by s at their
    # crossings, their inputs there 0, and b is T's coupling block as it
    # is
    p = {
        "one_circle": lambda: rc.RHProblem.from_jump(rational_radius6[1]),
        "identity_columns": _lower_triangular_two_circle_problem,
        "none": _two_circle_problem,
        "one_circle_left_out": _one_circle_alias_problem,
        "identity_columns_left_out": lambda: rc.RHProblem.from_jump(
            _conjugated_soliton_jump()
        ),
    }[form]()
    op, t = rhp._ToeplitzLU(p, rhp._left_out(p)), rhp._operator(p)
    rhp._certified_lu(op, rhp._band_rows(p.system, p.data.dim), rc.SIGMA_MIN)
    kept, unit = op.kept, op.unit
    assert -min(unit.size, 1) == wider
    eq, unknown = op.left_out
    assert (eq.size > 0) == form.endswith("left_out") and eq.size == unknown.size
    assert np.array_equal(op.b, t[np.ix_(unit, kept)])
    reduced = t.copy()
    if eq.size:
        first = np.setdiff1d(kept, unknown)[0]
        reduced[eq], reduced[:, unknown] = 0.0, 0.0
        reduced[eq, unknown] = np.linalg.norm(t[kept, first])
    rng = np.random.default_rng(7)
    y = rng.standard_normal(op.order) + 1j * rng.standard_normal(op.order)
    for adjoint, dense in ((False, reduced), (True, reduced.conj().T)):
        given = y.copy()
        given[op.left_out[adjoint]] = 0.0
        got, want = op.solve(y, adjoint=adjoint), np.linalg.solve(dense, given)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_three_circle_solves_from_the_pieces_match_all_of_t():
    # 64, 16 and 24 nodes; the middle circle's jump is I, so its columns
    # are unit vectors and it adds no density to the cross blocks.  The
    # solves with T and T^H, on one vector and on two columns, against
    # dense T
    p = _three_circle_problem_with_an_identity_jump()
    op, t = rhp._ToeplitzLU(p), rhp._operator(p)
    assert op.b.shape == (16, 88)
    rng = np.random.default_rng(11)
    y = rng.standard_normal((op.order, 2)) + 1j * rng.standard_normal((op.order, 2))
    for adjoint, dense in ((False, t), (True, t.conj().T)):
        for given in (y, y[:, 0]):
            got, want = op.solve(given, adjoint=adjoint), np.linalg.solve(dense, given)
            assert got.shape == want.shape
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_lu_keeps_no_copy_of_t_beside_its_pieces():
    # the conjugated one-pole problem at 128 nodes per circle, T of order
    # 1280: A and C are written where the LU factors them, so building
    # and factoring peaks at little more than the LU and C (a copy of T's
    # kept columns beside A and C read 2.05 times them)
    spec = rc.IdnlsSpec(r=None, n=1, poles=((2.2 + 0.8j, 0.6 + 0.2j),))
    ap = rc.remove_poles(spec, pole_nodes=128, unit_nodes=128)
    p = rc.RHProblem.from_jump(rc.conjugate(ap, node_count=128).jump, h=np.eye(2))
    tracemalloc.start()
    try:
        op = rhp._ToeplitzLU(p, rhp._left_out(p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert op.order == 1280
    assert peak <= 1.25 * (op.lu[0].nbytes + op.b.nbytes)


def test_alias_refactor_builds_without_the_old_lu():
    # the alias is left out where the null vectors peak, and A and C are
    # built again: the old LU and C are dropped first, so the peak stays
    # near one LU and C (holding them through the build read 2.04 times)
    p = _one_circle_alias_problem(nodes=256)
    tracemalloc.start()
    try:
        op = rhp._ToeplitzLU(p, rhp._left_out(p))
        rhp._certified_lu(op, rhp._band_rows(p.system, p.data.dim), rc.SIGMA_MIN)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one circle split on one side: A is all of T, and C has no rows
    assert op.b.shape == (0, op.order) and op.left_out[0].size == 1
    assert peak <= 1.25 * (op.lu[0].nbytes + op.b.nbytes)


def test_lu_solve_applies_t_never(monkeypatch):
    # 5 circles, with equations left out: the LU solve is the answer, and
    # the check of the equations left out reads T's own rows there, so T
    # is never applied (an apply would take two circulants per circle)
    p = _conjugated_soliton_problem()
    assert len(rhp._left_out(p)[0]) > 0
    circulants = _counted(monkeypatch, rhp, "_circulant")
    sol = rc.solve(p)
    assert len(p.system.circles) == 5 and sol.solver_path == "lu"
    assert circulants == []


def test_lu_answer_that_is_not_finite_is_invalid_input(monkeypatch):
    # the final solve, of one column per row of h, overflows while
    # equations are left out: its answer is refused as not finite
    # (ValueError, exit 1), before the check of the equations left out
    # could read the overflow as an inconsistent system (exit 3)
    p = _conjugated_soliton_problem()
    assert len(rhp._left_out(p)[0]) > 0
    solve = rhp._ToeplitzLU.solve

    def overflowing(op, y, adjoint=False):
        x = solve(op, y, adjoint)
        if y.ndim == 2:
            x[op.kept] = np.inf
        return x

    monkeypatch.setattr(rhp._ToeplitzLU, "solve", overflowing)
    with pytest.raises(ValueError, match="infs or NaNs"):
        rc.solve(p)


def test_identity_jump_on_two_circles_factors_nothing():
    # every column of T is a unit vector: A has order 0, and mu is h
    system = _two_circle_problem().system
    p = rc.RHProblem.from_jump(rc.JumpData.from_evaluator(system, lambda z: np.eye(2)))
    sol = rc.solve(p)
    assert (sol.solver_path, sol.factored_order) == ("lu", 0)
    assert abs(sol.smallest_singular_value - 1.0) <= 1e-14
    assert sol.residual_jump == 0.0
    assert np.array_equal(sol.mu.values, np.broadcast_to(p.h, sol.mu.values.shape))


def test_rotated_jump_leaves_out_where_the_null_vectors_peak(monkeypatch):
    # U v U^H on every circle: no circle is triangular, so no winding is
    # read; T is factored, and the row and column where its null vectors
    # peak are left out
    u = np.array([[0.8, 0.6j], [0.6j, 0.8]])
    p = _conjugated_soliton_problem()
    jump = p.data.jump
    fns = [
        lambda z, i=i: u @ jump.at(i, z) @ u.conj().T
        for i in range(len(jump.evaluators))
    ]
    rotated = rc.RHProblem.from_jump(
        rc.JumpData.from_evaluators(jump.system, fns), h=np.eye(2)
    )
    assert rhp._left_out(rotated) == ([], [])
    factorizations = _counted(monkeypatch, scipy.linalg, "lu_factor")
    sol = rc.solve(rotated)
    assert len(factorizations) == 2  # T, then T less those modes
    assert (sol.solver_path, sol.sigma_source) == ("lu", "lanczos")
    s = scipy.linalg.svdvals(two_einsum_operator(rotated))
    assert abs(sol.smallest_singular_value - s[-2]) <= 1e-10 * s[-2]
    # m of U v U^H is U m U^H
    z = rc.off_contour_points(p.system, 12, rel_margin=0.45)
    expected = u @ rc.solve(p).evaluate(z) @ u.conj().T
    assert np.max(np.abs(sol.evaluate(z) - expected)) <= 1e-12


def test_alias_is_left_out_beside_the_identity_columns(monkeypatch):
    # with no winding read, the conjugated soliton's alias kernel is left
    # to its null vectors; the row and column left out are A's, with C's
    # column, and the pole circles' unit columns stay out of the LU
    p = _conjugated_soliton_problem()
    reference = rc.solve(p)
    monkeypatch.setattr(rhp, "_left_out", lambda p: ([], []))
    factorizations = _counted(monkeypatch, scipy.linalg, "lu_factor")
    sol = rc.solve(p)
    assert len(factorizations) == 2  # A, then A less those modes
    assert (sol.solver_path, sol.factored_order) == ("lu", 448)
    s = scipy.linalg.svdvals(two_einsum_operator(p))
    assert s[-1] < rc.SIGMA_MIN and s[-3] > 1.1 * s[-2]
    assert abs(sol.smallest_singular_value - s[-2]) <= 1e-10 * s[-2]
    z = rc.off_contour_points(p.system, 12, rel_margin=0.45)
    assert np.max(np.abs(sol.evaluate(z) - reference.evaluate(z))) <= 1e-12


@pytest.mark.parametrize("side", ["plus", "minus"])
def test_one_circle_alias_is_left_out_beside_the_identity_rows(side):
    # the row and column left out are A's, which is all of T on one
    # circle split on one side
    p = _one_circle_alias_problem(side)
    assert rhp._left_out(p) == ([], [])
    sol = rc.solve(p)
    assert (sol.solver_path, sol.sigma_source) == ("lu", "lanczos")
    assert sol.residual_jump <= 1e-13
    s = scipy.linalg.svdvals(two_einsum_operator(p))
    assert s[-1] < rc.SIGMA_MIN and s[-3] > 1.1 * s[-2]
    assert abs(sol.smallest_singular_value - s[-2]) <= 1e-10 * s[-2]


def _annulus_problem(outer, inner):
    # 2 I on the unit circle, outer on |z| = 4 and inner on |z| = 1/4
    radii = ((1.0, rc.CW), (4.0, rc.CCW), (0.25, rc.CCW))
    system = rc.build_contour([rc.Circle(0j, r, o, 64) for r, o in radii])
    fns = [lambda z: 2.0 * np.eye(2), outer, inner]
    return rc.RHProblem.from_jump(rc.JumpData.from_evaluators(system, fns), h=np.eye(2))


def test_windings_balanced_in_one_component_leave_out_two_modes_each():
    # z^2 and z^-2 in the first component: two rows and two columns
    p = _annulus_problem(
        lambda z: rc.matrix_at(z, [[z**2, 0.0], [0.0, 1.0]]),
        lambda z: rc.matrix_at(z, [[z**-2, 0.0], [0.0, 1.0]]),
    )
    assert [len(i) for i in rhp._left_out(p)] == [2, 2]
    sol = rc.solve(p)
    assert sol.solver_path == "lu" and sol.residual_jump <= 1e-12
    # T's alias kernel has two directions; the third value is what is left
    s = scipy.linalg.svdvals(two_einsum_operator(p))
    assert s[-2] < rc.SIGMA_MIN and s[-4] > 1.1 * s[-3]
    assert abs(sol.smallest_singular_value - s[-3]) <= 1e-10 * s[-3]


def test_windings_balanced_across_components_are_left_to_the_null_vectors():
    # z in the first component, 1/z in the second: a genuine index pair,
    # which no mode left out could make solvable
    p = _annulus_problem(
        lambda z: rc.matrix_at(z, [[z, 0.0], [0.0, 1.0]]),
        lambda z: rc.matrix_at(z, [[1.0, 0.0], [0.0, 1.0 / z]]),
    )
    assert rhp._left_out(p) == ([], [])
    with pytest.raises(
        rc.NearSingularOperatorError, match="band-limited null-vector content"
    ):
        rc.solve(p)


def _inversion_symmetric_jump(seed, k, nodes=64):
    """The unit circle with B_0 + A z + A^H / z, lambda_min(B_0) = 2 |A|
    + 0.2; a counterclockwise circle c, center a with |a| in [1.6, 3.1]
    and radius r = 0.3 (|a| - 1), with [[(z - p)^k, 0], [K / (z - 2a),
    1]]; and c's inversion image with its inversion conjugate.  p is at
    most r/2 from a, so that (z - p)^k is resolved at 64 nodes (its
    modes fall off as 2^-|mode|); closer to c the problem needs more
    nodes than that."""
    rng = np.random.default_rng(seed)
    a_mat = 0.5 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    h = h + h.conj().T
    a_adj = a_mat.conj().T
    lowest = 2.0 * np.linalg.norm(a_mat, 2) + 0.2
    b0 = h + (lowest - np.linalg.eigvalsh(h)[0]) * np.eye(2)
    modulus = rng.uniform(1.6, 3.1)
    a = modulus * np.exp(2j * np.pi * rng.uniform())
    radius = 0.3 * (modulus - 1.0)
    p = a + 0.5 * radius * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
    big_k = rng.uniform(0.2, 2.0) * np.exp(2j * np.pi * rng.uniform())

    def unit(z):
        return b0 + np.multiply.outer(z, a_mat) + np.multiply.outer(1 / z, a_adj)

    def f(z):
        return rc.matrix_at(z, [[(z - p) ** k, 0.0], [big_k / (z - 2.0 * a), 1.0]])

    c = rc.Circle(a, radius, rc.CCW, nodes)
    unit_circle = rc.Circle(0j, 1.0, rc.CCW, nodes)
    system = rc.build_contour([unit_circle, c, rc.invert_circle(c)])
    return rc.JumpData.from_evaluators(system, [unit, f, rc.inversion_conjugate(f)])


@settings(derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from([-1, 0, 1]))
# draws whose projected solve on T refused them as inconsistent (exit 3)
@example(11, -1)
@example(16, -1)
@example(21, -1)
def test_inversion_symmetric_positive_jump_is_never_near_singular(seed, k):
    # the source paper's hypotheses give zero partial indices, so the
    # solve must not refuse; a winding k on c and -k on its image leaves
    # out one mode at each seam.  The jump residual measures resolution
    # (up to 7e-5 over seeds 0-199 at k = -1) and is recorded, not bounded
    jump = _inversion_symmetric_jump(seed, k)
    hyp = rc.check_inversion_hypotheses(jump)
    assert hyp.symmetric_off_circle and hyp.min_re_eig_on_circle > 0.0
    rep = rc.index_diagnostics(rc.RHProblem.from_jump(jump))
    assert (rep.dim_ker, rep.dim_coker) == (0, 0)
    p = rc.RHProblem.from_jump(jump)
    sol = rc.solve(p)
    assert sol.solver_path == "lu" and np.isfinite(sol.residual_jump)
    exponent = int(np.ceil(np.log10(sol.residual_jump + 1e-300)))
    event(f"k = {k}: residual_jump below 1e{exponent}")
    if k:
        _second_smallest_where_separated(p, sol.smallest_singular_value)


def _solve_on_the_bound(p):
    # sigma_min(T) = 1.1e-3 is far above 10 tau, but the inverse-iteration
    # bound, 2.8e-3, is below sigma_min = 1 and is only an upper bound
    with pytest.raises(rc.NearSingularOperatorError):
        rc.solve(p, sigma_min=1.0)


@pytest.mark.parametrize(
    "make, run",
    [
        (
            lambda: rc.RHProblem.from_jump(
                rc.JumpData.from_evaluator(
                    rc.build_contour([rc.Circle(0j, 1.0, rc.CCW, 16)]),
                    lambda z: 1e-3 * (2.0 + z),
                )
            ),
            _solve_on_the_bound,
        ),
    ],
    ids=["bound"],
)
def test_uncertified_solve_keeps_the_full_count(make, run, monkeypatch):
    p = make()
    run(p)
    assert p.band_sigma_lower_bound is None
    svdvals, qr, lanczos = _count_rank_probes(monkeypatch)
    rc.index_diagnostics(p)
    assert (len(svdvals), qr, lanczos) == (2, [], [])


@pytest.mark.parametrize(
    "make, path",
    [
        (_conjugated_soliton_problem, "lu"),
        (lambda: _turned(_cli_problem("rational_solve.json")), "lu"),
    ],
    ids=["conjugated_soliton", "rational_solve"],
)
def test_one_lanczos_run_per_solve(make, path, monkeypatch):
    # the soliton's T, less the modes left out at the Nyquist seam, is
    # factored once, and one run gives its sigma_min
    p = make()
    calls = _counted(monkeypatch, rhp, "_lanczos_sigma_min")
    assert rc.solve(p).solver_path == path
    assert len(calls) == 1


def _operator_with_singular_values(order, smallest, seed):
    rng = np.random.default_rng(seed)

    def unitary():
        q, _ = np.linalg.qr(
            rng.standard_normal((order, order))
            + 1j * rng.standard_normal((order, order))
        )
        return q

    u, v = unitary(), unitary()
    s = rng.uniform(0.5, 2.0, order)
    s[-1] = smallest
    return (u * s) @ v.conj().T


@pytest.mark.parametrize("order", [64, 96, 128])
def test_inverse_iteration_bound_is_a_sound_certificate(order):
    for smallest in (1e-9, 1e-11, 1e-13):
        op = _MatrixLU(_operator_with_singular_values(order, smallest, order))
        bound = rhp._null_vectors(op)[2]
        assert bound >= smallest * (1.0 - 1e-6)
        # the random start overestimates by about sqrt(order), so at 1e-9
        # the bound may land above SIGMA_MIN and leave the call to Lanczos
        if smallest < 1e-9:
            assert bound < rc.SIGMA_MIN
    op = _MatrixLU(_operator_with_singular_values(order, 1e-6, order))
    assert rhp._null_vectors(op)[2] >= rc.SIGMA_MIN
    assert abs(rhp._smallest_singular_value(op) - 1e-6) <= 1e-12


def test_zero_pivot_certifies_nothing():
    t = np.diag([1.0, 2.0, 3.0, 0.0, 5.0]).astype(complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        op = _MatrixLU(t)
    r, l, bound = rhp._null_vectors(op)
    assert bound == np.inf
    assert not (np.all(np.isfinite(r)) and np.all(np.isfinite(l)))


def test_lu_vector_solver_agrees_with_lu_solve():
    rng = np.random.default_rng(3)
    t = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    lu = scipy.linalg.lu_factor(t)
    assert np.any(lu[1] != np.arange(64))  # the rows are pivoted
    solve_with = rhp._lu_vector_solver(lu)
    storage = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    y = storage[::2]  # not contiguous
    kept = y.copy()
    for adjoint, trans in ((False, 0), (True, 2)):
        expected = scipy.linalg.lu_solve(lu, kept, trans=trans)
        got = solve_with(y, adjoint=adjoint)
        assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)
        assert np.array_equal(y, kept)


def test_lu_vector_solver_gives_non_finite_output_at_a_zero_pivot():
    t = np.diag([1.0, 2.0, 3.0, 0.0, 5.0]).astype(complex)
    with pytest.warns(scipy.linalg.LinAlgWarning):
        lu = scipy.linalg.lu_factor(t)
    solve_with = rhp._lu_vector_solver(lu)
    for adjoint in (False, True):
        assert not np.all(np.isfinite(solve_with(np.ones(5, complex), adjoint)))


@pytest.mark.parametrize(
    "make, path",
    [
        (_conjugated_soliton_problem, "lu"),
        (lambda: _turned(_cli_problem("rational_solve.json")), "lu"),
    ],
    ids=["conjugated_soliton", "rational_solve"],
)
def test_lanczos_applies_make_no_vector_lu_solve(make, path, monkeypatch):
    # every solve on the LU goes through _lu_vector_solver's trsv pairs,
    # in the Lanczos applies and in the solves that feed x alike
    p = make()
    runs, solves = [], []
    lanczos, lu_solve = rhp._lanczos_sigma_min, scipy.linalg.lu_solve

    def traced_lanczos(*args, **kwargs):
        runs.append(True)
        try:
            return lanczos(*args, **kwargs)
        finally:
            runs[-1] = False

    def traced_lu_solve(lu, b, *args, **kwargs):
        solves.append(np.ndim(b))
        return lu_solve(lu, b, *args, **kwargs)

    monkeypatch.setattr(rhp, "_lanczos_sigma_min", traced_lanczos)
    monkeypatch.setattr(scipy.linalg, "lu_solve", traced_lu_solve)
    assert rc.solve(p).solver_path == path
    assert runs == [False]
    assert solves == []


def _applies(monkeypatch, name):
    """The number of applies of each run of rhp's name(apply, ...): of
    each Lanczos run, or of each GMRES run (one per column)."""
    runs = []
    original = getattr(rhp, name)

    def counted(apply, *args, **kwargs):
        runs.append(0)

        def counted_apply(y):
            runs[-1] += 1
            return apply(y)

        return original(counted_apply, *args, **kwargs)

    monkeypatch.setattr(rhp, name, counted)
    return runs


@pytest.mark.parametrize(
    "make, path, most",
    [
        (_conjugated_soliton_problem, "lu", 13),
        (lambda: _turned(_defocusing_problem(512)), "lu", 15),
    ],
    ids=["conjugated_soliton", "defocusing_1x512"],
)
def test_lanczos_stops_once_the_ritz_value_has_converged(
    make, path, most, monkeypatch
):
    # the runs take 12 and 14 applies; ARPACK, restarting 12 vectors,
    # took 13 and 19, and a run to a residual at rounding level 21 and 31
    p = make()
    runs = _applies(monkeypatch, "_lanczos_sigma_min")
    assert rc.solve(p).solver_path == path
    assert len(runs) == 1 and runs[0] <= most


@pytest.mark.parametrize(
    "make, field, rank",
    [
        (lambda: _turned(_defocusing_problem(512)), "smallest_singular_value", 1),
        (_conjugated_soliton_problem, "smallest_singular_value", 2),
    ],
    ids=["defocusing_1x512", "conjugated_soliton"],
)
def test_converged_lanczos_values_match_svdvals(make, field, rank):
    p = make()
    exact = scipy.linalg.svdvals(two_einsum_operator(p))[-rank]
    got = getattr(rc.solve(p), field)
    assert abs(got - exact) <= 1e-13 * exact


def test_importing_the_package_loads_no_sparse_module():
    # sigma_min comes from the module's own Lanczos run, not from ARPACK
    src = str(Path(rc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = "import sys, rhcircles; print('scipy.sparse' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


@pytest.mark.parametrize("order", [3, 4, 7, 11, 12, 13])
def test_lanczos_on_an_operator_of_low_order(order):
    rng = np.random.default_rng(order)
    a = rng.standard_normal((order, order)) + 1j * rng.standard_normal((order, order))
    r = np.asfortranarray(scipy.linalg.qr(a, mode="r")[0])
    trsv = scipy.linalg.get_blas_funcs("trsv", (r,))

    def apply(y):
        return trsv(r, trsv(r, y, trans=2))

    exact = scipy.linalg.svdvals(r)[-1]
    got = rhp._lanczos_sigma_min(apply, rhp._start_vector(order))
    assert abs(got - exact) <= 1e-12 * exact


def _two_sided(jump, c):
    # w_- = c I and w_+ = (I - w_-) v - I, so b_-^(-1) b_+ is still v
    eye = rc.GridFunction.identity(jump.system, jump.v.dim)
    w_minus = eye * c
    w_plus = (eye - w_minus) * jump.v - eye
    return rc.RHProblem(rc.FactorizationData(w_plus, w_minus, jump))


def _two_circle_problem():
    # unequal node counts: 64 on one circle, 16 on the other
    system = rc.build_contour(
        [rc.Circle(0j, 6.0, rc.CCW, 64), rc.Circle(20.0 + 0j, 1.0, rc.CCW, 16)]
    )
    jump = rc.JumpData.from_evaluator(system, lambda z: (z - 0.4) / (z - 2.5))
    return rc.RHProblem.from_jump(jump)


def _three_circle_problem_with_an_identity_jump():
    # 64, 16 and 24 nodes; the middle circle's jump is I, so it is a source
    # with no cross blocks beside two that have them
    system = rc.build_contour(
        [
            rc.Circle(0j, 6.0, rc.CCW, 64),
            rc.Circle(20.0 + 0j, 1.0, rc.CCW, 16),
            rc.Circle(-20.0 + 0j, 2.0, rc.CCW, 24),
        ]
    )
    fns = (
        lambda z: (z - 0.4) / (z - 2.5),
        lambda z: np.ones_like(z),
        lambda z: (z + 19.5) / (z + 21.0),
    )
    return rc.RHProblem.from_jump(rc.JumpData.from_evaluators(system, fns))


def _fourier_basis(system, n):
    """F: each circle's unitary Fourier basis (circle_coefficients times
    sqrt(m)), n components per mode, as one dense matrix."""
    blocks = [
        rc.cauchy.circle_coefficients(c, np.eye(c.node_count)) * np.sqrt(c.node_count)
        for c in system.circles
    ]
    return np.kron(scipy.linalg.block_diag(*blocks), np.eye(n))


@pytest.mark.parametrize(
    "make",
    [
        lambda: rc.RHProblem.from_jump(_conjugated_soliton_jump(), side="plus"),
        lambda: rc.RHProblem.from_jump(_conjugated_soliton_jump(), side="minus"),
        lambda: rc.RHProblem.from_jump(_defocusing_problem().data.jump, side="minus"),
        lambda: _two_sided(_conjugated_soliton_jump(), 0.3 - 0.2j),
        _two_circle_problem,
        lambda: _one_circle_problem(2, rc.CW, False, 64, "plus"),
        lambda: _one_circle_problem(2, rc.CCW, True, 64, "minus"),
        lambda: _two_sided(
            _one_circle_problem(2, rc.CW, True, 64, "plus").data.jump, 0.3
        ),
        _three_circle_problem_with_an_identity_jump,
    ],
    ids=[
        "soliton_plus", "soliton_minus", "defocusing_minus", "soliton_two_sided",
        "two_circles_64_16",
        "one_circle_cw", "one_circle_ccw", "one_circle_two_sided",
        "three_circles_identity_middle",
    ],
)
def test_fourier_operator_equals_the_transformed_node_operator(make):
    p = make()
    _, b, kept, unit = rhp._operator_rows(p)
    t = rhp._operator(p)
    f = _fourier_basis(p.system, p.data.dim)
    reference = f @ two_einsum_operator(p) @ f.conj().T
    assert np.max(np.abs(t - reference)) <= 1e-14 * np.max(np.abs(t))
    # b is C, T's unit rows at kept, and T's columns at unit are unit
    # vectors
    assert np.array_equal(b, t[np.ix_(unit, kept)])
    assert np.array_equal(t[:, unit], np.eye(t.shape[0])[:, unit])


def test_two_sided_splitting_solves_like_the_trivial_one(rational_radius6):
    system, jump = rational_radius6
    sol = rc.solve(_two_sided(jump, 0.3 - 0.2j))
    reference = rc.solve(rc.RHProblem.from_jump(jump))
    z = rc.off_contour_points(system, 20, rel_margin=0.35, r_min=0.5, r_max=20.0)
    assert np.max(np.abs(sol.evaluate(z) - reference.evaluate(z))) <= 1e-10


def test_non_finite_h_is_rejected_at_construction(rational_radius6):
    _, jump = rational_radius6
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="h must be finite"):
            rc.RHProblem.from_jump(jump, h=np.array([[bad]]))


def test_non_finite_jump_value_is_rejected_by_the_factorization():
    system = rc.build_contour([rc.Circle(0j, 6.0, rc.CCW, 64)])
    v = rc.JumpData.from_evaluator(system, lambda z: (z - 0.4) / (z - 2.5))
    v.v.values[5] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        rc.solve(rc.RHProblem.from_jump(v))


@pytest.mark.parametrize(
    "make, h",
    [
        (lambda: _cli_problem("rational_solve.json"), [[1.7e308]]),
        (_conjugated_soliton_problem, 1.7e308 * np.eye(2)),
    ],
    ids=["lu", "left-out-modes"],
)
def test_overflowing_solution_raises_instead_of_a_zero_residual(make, h):
    # h is finite, but its coefficients, x or T x overflow, and GMRES or
    # the LU's refinement step refuses the non-finite values
    p = make()
    with pytest.raises(ValueError, match="infs or NaNs"):
        rc.solve(rc.RHProblem(p.data, h=np.asarray(h)))


def test_non_finite_h_set_after_construction_raises(rational_radius6):
    _, jump = rational_radius6
    p = rc.RHProblem.from_jump(jump)
    p.h = np.array([[np.nan]])
    with pytest.raises(ValueError, match="infs or NaNs"):
        rc.solve(p)


def test_midpoint_residual_keeps_a_nan(rational_radius6):
    _, jump = rational_radius6
    p = rc.RHProblem.from_jump(jump)
    sol = rc.solve(p)
    sol.cauchy_density.values[3] = np.nan
    assert np.isnan(rhp._midpoint_residual(p, sol))


def _one_circle_problem(n, orientation, plus_inside, nodes, side):
    circle = rc.Circle(0.3 + 0.1j, 1.7, orientation, nodes)
    # built directly, since build_contour ties the plus side to the
    # orientation
    system = rc.ContourSystem((circle,), (plus_inside,), not plus_inside)

    def v(z):
        # the symbol s of the nonzero half is the same on either side:
        # v = s for plus, v = s^(-1) for minus
        w = (z - circle.center) / circle.radius
        if n == 1:
            s = (2.5 + 0.4 * w + 0.3 / w)[:, None, None]
        else:
            s = rc.matrix_at(
                z, [[2.0 + 0.3 * w, 0.2 / w], [0.1 * w**2, 1.5 - 0.2 / w]]
            )
        return s if side == "plus" else np.linalg.inv(s)

    jump = rc.JumpData.from_evaluator(system, v)
    h = np.arange(1, n * n + 1).reshape(n, n) + 0.5j * np.eye(n)
    return rc.RHProblem.from_jump(jump, h=h, side=side)


@pytest.mark.parametrize(
    "side, turn",
    [("plus", _turned), ("minus", _turned), ("plus", None), ("minus", None)],
    ids=["plus", "minus", "plus-certified", "minus-certified"],
)
@pytest.mark.parametrize("nodes", [16, 64, 512])
@pytest.mark.parametrize(
    "orientation, plus_inside",
    [(rc.CCW, True), (rc.CW, False), (rc.CW, True), (rc.CCW, False)],
    ids=["ccw-inside", "cw-infinity", "cw-inside", "ccw-infinity"],
)
@pytest.mark.parametrize("n", [1, 2])
def test_one_circle_toeplitz_solve_matches_the_dense_lu(
    n, orientation, plus_inside, nodes, side, turn, monkeypatch
):
    # turned, Lanczos certifies the LU of T; as given, the
    # positive symbol certifies the GMRES solve of the section
    def make():
        p = _one_circle_problem(n, orientation, plus_inside, nodes, side)
        return turn(p) if turn else p

    p = make()
    op = rhp._ToeplitzLU(p)
    # no column of T is a unit vector: A is all of T, and C has no rows
    assert op.b.shape == (0, op.order)
    assert op.lu[0].shape == (op.order, op.order)
    sol = rc.solve(p)
    # the reference: the same problem through the LU of all of T in rows
    monkeypatch.setattr(
        rhp, "_ToeplitzLU", lambda p, *_: _MatrixLU(two_einsum_operator(p))
    )
    monkeypatch.setattr(rhp, "_certified_section", lambda p, sigma_min: None)
    ref = rc.solve(make())
    assert ref.solver_path == "lu" and ref.sigma_source == "lanczos"
    exact = ref.smallest_singular_value
    if turn:
        assert (sol.solver_path, sol.sigma_source) == ("lu", "lanczos")
        assert sol.factored_order == sol.operator_order
        assert abs(sol.smallest_singular_value - exact) <= 1e-13 * exact
    else:
        assert (sol.solver_path, sol.sigma_source) == ("krylov", "positivity")
        assert 0.0 < sol.smallest_singular_value <= exact
    scale = np.max(np.abs(ref.mu.values))
    assert np.max(np.abs(sol.mu.values - ref.mu.values)) <= 1e-13 * scale


def test_identity_jump_comes_back_as_the_right_hand_side():
    p = _cli_problem("identity_solve.json")
    op = rhp._ToeplitzLU(p)
    # every column of T is a unit vector: A has order 0, and C is empty
    assert op.unit.size == op.order and op.b.shape == (op.order, 0)
    sol = rc.solve(p)
    assert sol.residual_jump == 0.0
    assert np.array_equal(sol.mu.values, np.broadcast_to(p.h, sol.mu.values.shape))


def test_one_circle_genuine_kernel_still_refuses():
    p = _cli_problem("rational_near_singular.json")
    op = rhp._ToeplitzLU(p)
    assert op.b.shape == (0, op.order) and op.lu[0].shape == (op.order, op.order)
    with pytest.raises(
        rc.NearSingularOperatorError, match="band-limited null-vector content"
    ) as info:
        rc.solve(p)
    assert info.value.smallest_singular_value < rc.SIGMA_MIN


def test_zero_pivot_of_the_toeplitz_section_counts_as_singular():
    # at 4 nodes round(z) is z exactly, so the section of the symbol z on
    # the modes -2 and -1 sends mode -1 out of them: an exact zero column,
    # of T too, whose zero pivot singular reads without a LinAlgWarning
    system = rc.build_contour([rc.Circle(0j, 1.0, rc.CCW, 4)])
    p = rc.RHProblem.from_jump(rc.JumpData.from_evaluator(system, np.round))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        op = rhp._ToeplitzLU(p)
        assert op.b.shape == (0, op.order)
        assert op.singular
        assert rhp._smallest_singular_value(op) == 0.0
        assert rhp._null_vectors(op)[2] == np.inf
        with pytest.raises(rc.NearSingularOperatorError, match="broke down"):
            rc.solve(p)


def test_certified_one_circle_problem_never_builds_the_operator(monkeypatch):
    p = _defocusing_problem()
    builds = _counted(monkeypatch, rhp, "_operator_rows")
    factorizations = _counted(monkeypatch, scipy.linalg, "lu_factor")
    sol = rc.solve(p)
    rep = rc.index_diagnostics(p)
    assert sol.solver_path == "krylov"
    assert (rep.dim_ker, rep.dim_coker) == (0, 0)
    # the solve applies the section matrix-free, and the count builds
    # nothing: no operator rows and no LU
    assert len(builds) == 0
    assert factorizations == []


def _dense_midpoint_residual(p, sol):
    """The jump residual from the dense exp(ik theta) synthesis at the
    midpoint angles, and the size of the boundary values there."""
    worst = scale = 0.0
    for i, c in enumerate(p.system.circles):
        mids = c.angles() + c.sign * np.pi / c.node_count
        m_p, m_m = sol.boundary_values(i, mids)
        v_mid = p.data.jump.at(i, c.point_at(mids))
        gap = m_p - np.einsum("lab,lbc->lac", m_m, v_mid)
        worst = max(worst, float(np.max(np.abs(gap))))
        scale = max(scale, float(np.max(np.abs(m_p))), float(np.max(np.abs(m_m))))
    return worst, scale


MIDPOINT_PROBLEMS = {
    **{
        f"n{n}-{name}": (
            lambda n=n, o=o, inside=inside: _one_circle_problem(n, o, inside, 64, "plus")
        )
        for n in (1, 2)
        for name, o, inside in [
            ("ccw-inside", rc.CCW, True),
            ("cw-infinity", rc.CW, False),
            ("cw-inside", rc.CW, True),
            ("ccw-infinity", rc.CCW, False),
        ]
    },
    "conjugated_soliton": _conjugated_soliton_problem,
}


@pytest.mark.parametrize("name", list(MIDPOINT_PROBLEMS))
def test_midpoint_values_match_the_dense_synthesis(name, monkeypatch):
    p = MIDPOINT_PROBLEMS[name]()
    sol = rc.solve(p)
    if name == "conjugated_soliton":
        assert sol.solver_path == "lu"
    for i, c in enumerate(p.system.circles):
        mids = c.angles() + c.sign * np.pi / c.node_count
        dense = sol.boundary_values(i, mids)
        fft = rhp.boundary_values_at_midpoints(p.system, sol.cauchy_density.values, i)
        scale = max(float(np.max(np.abs(d))) for d in dense)
        for got, want in zip(fft, dense):
            assert np.max(np.abs(got + sol.h - want)) <= 1e-13 * scale
    worst, scale = _dense_midpoint_residual(p, sol)
    assert abs(sol.residual_jump - worst) <= 1e-13 * scale

    # and the residual builds no exp(ik theta) basis
    def no_synthesis(*args):
        raise AssertionError("synthesize called")

    monkeypatch.setattr(rc.cauchy, "synthesize", no_synthesis)
    assert rhp._midpoint_residual(p, sol) == sol.residual_jump


def _parent_t_rows(p):
    """[B, A] transposed, gathered as a reversed sliding window over the
    symbol's coefficients with a length-n inner axis: the earlier gather,
    kept as the bit-for-bit reference of the contiguous one."""
    circle = p.system.circles[0]
    m, n, r = circle.node_count, p.data.dim, circle.node_count // 2
    kept = rc.cauchy.plus_mode_mask(circle, p.system.plus_inside[0])
    if np.any(p.data.w_minus.values):
        symbol, section = p.data.b_minus().values, kept
    else:
        symbol, section = p.data.b_plus().values, ~kept
    k0 = np.flatnonzero(section)[0]
    coeffs = rhp.circle_coefficients(circle, symbol)
    ext = coeffs[(k0 - m + 1 + np.arange(m + r - 1)) % m]
    window = sliding_window_view(ext, r, axis=0)[::-1]
    t_rows = np.ascontiguousarray(window.transpose(0, 1, 3, 2))
    return t_rows.reshape(m * n, r * n).T


def _section_rows(p):
    """The basis indices of the section's rows [B, A] of T on one circle
    with one nonzero splitting half: the rows of _parent_t_rows."""
    circle, n = p.system.circles[0], p.data.dim
    kept = rc.cauchy.plus_mode_mask(circle, p.system.plus_inside[0])
    section = kept if np.any(p.data.w_minus.values) else ~kept
    return np.flatnonzero(np.repeat(section, n))


@pytest.mark.parametrize("side", ["plus", "minus"])
@pytest.mark.parametrize("nodes", [16, 64, 512])
@pytest.mark.parametrize("n", [1, 2])
def test_gathered_toeplitz_rows_are_the_operator_rows(n, nodes, side):
    # the circle-pair assembly gathers the section's rows of T from one
    # FFT of its symbol, bit for bit the earlier gather, and T's other
    # rows are the identity's; no column is a unit vector, so A is T
    p = _one_circle_problem(n, rc.CCW, True, nodes, side)
    a, c, kept, unit = rhp._operator_rows(p)
    assert a.flags.f_contiguous and c.flags.f_contiguous
    order = a.shape[0]
    assert np.array_equal(kept, np.arange(order)) and unit.size == 0
    rows = _section_rows(p)
    assert np.array_equal(a[rows], _parent_t_rows(p))
    others = np.setdiff1d(np.arange(order), rows)
    assert np.array_equal(a[others], np.eye(order)[others])
    assert np.array_equal(rhp._operator(p), a)


def test_contiguous_gather_keeps_every_bit_of_the_solve(monkeypatch):
    # uncertified, so T is assembled and factored: the section's rows
    # taken from the earlier gather give the same solve, bit for bit
    def make():
        return _turned(_one_circle_problem(2, rc.CW, False, 64, "plus"))

    sol = rc.solve(make())
    assert sol.solver_path == "lu"
    operator_rows = rhp._operator_rows

    def parent_gather(p):
        a, c, kept, unit = operator_rows(p)
        a[_section_rows(p)] = _parent_t_rows(p)
        return a, c, kept, unit

    monkeypatch.setattr(rhp, "_operator_rows", parent_gather)
    ref = rc.solve(make())
    assert sol.smallest_singular_value == ref.smallest_singular_value
    assert np.array_equal(sol.mu.values, ref.mu.values)
    assert sol.residual_jump == ref.residual_jump


def _positive_symbol_problem(nodes, side):
    # v = s = [[2 + 0.3 z, 0.2/z], [0.1 z^2, 1.5 - 0.2/z]] on the unit
    # circle: the plus side factors the section of s, the minus side that
    # of s^(-1); both symbols have a positive definite Hermitian part
    system = rc.build_contour([rc.Circle(0j, 1.0, rc.CCW, nodes)])
    jump = rc.JumpData.from_evaluator(
        system,
        lambda z: rc.matrix_at(
            z, [[2.0 + 0.3 * z, 0.2 / z], [0.1 * z**2, 1.5 - 0.2 / z]]
        ),
    )
    return rc.RHProblem.from_jump(jump, side=side)


@pytest.mark.parametrize("side", ["plus", "minus"])
@pytest.mark.parametrize("nodes", [16, 64, 512])
@pytest.mark.parametrize(
    "make",
    [
        _positive_symbol_problem,
        lambda nodes, side: _one_circle_problem(1, rc.CW, False, nodes, side),
    ],
    ids=["2x2", "1x1_cw_infinity"],
)
def test_positivity_bound_is_below_the_smallest_singular_value(make, nodes, side):
    p = make(nodes, side)
    bound = rhp._certified_section(p, 0.0).sigma_lower_bound
    exact = scipy.linalg.svdvals(two_einsum_operator(p))[-1]
    assert 0.0 < bound <= exact
    sol = rc.solve(p)
    assert (sol.solver_path, sol.sigma_source) == ("krylov", "positivity")
    assert sol.smallest_singular_value == p.band_sigma_lower_bound == bound


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hermitian_extremes_match_the_eigensolver(n):
    # closed forms for n <= 2, numpy's eigensolver beyond
    rng = np.random.default_rng(n)
    a = rng.standard_normal((64, n, n)) + 1j * rng.standard_normal((64, n, n))
    h = a + np.conj(np.swapaxes(a, 1, 2))
    lam = np.linalg.eigvalsh(h)
    low, high = rhp._hermitian_extremes(h)
    scale = np.max(np.abs(lam))
    assert np.max(np.abs(low - lam[:, 0])) <= 1e-14 * scale
    assert np.max(np.abs(high - lam[:, -1])) <= 1e-14 * scale


def test_positivity_bound_of_a_3x3_symbol():
    system = rc.build_contour([rc.Circle(0j, 1.0, rc.CCW, 32)])
    jump = rc.JumpData.from_evaluator(
        system,
        lambda z: rc.matrix_at(
            z,
            [
                [3.0 + 0.5 * z, 0.2 / z, 0.1],
                [0.1 * z, 2.0, 0.3 * z**2],
                [0.2, 0.1 / z, 2.5 - 0.4 * z],
            ],
        ),
    )
    for side in ("plus", "minus"):
        p = rc.RHProblem.from_jump(jump, side=side)
        bound = rhp._certified_section(p, 0.0).sigma_lower_bound
        assert 0.0 < bound <= scipy.linalg.svdvals(two_einsum_operator(p))[-1]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_node_inverses_match_lapack_on_a_scaled_positive_symbol(n):
    # n = 2 takes the adjugate over the determinant, the rest LAPACK
    rng = np.random.default_rng(n)
    noise = rng.standard_normal((64, n, n)) + 1j * rng.standard_normal((64, n, n))
    u = np.eye(n) + 0.2 * noise
    u /= np.max(np.abs(u))
    reference = np.linalg.inv(u)
    got = rhp._node_inverses(u)
    assert np.max(np.abs(got - reference)) <= 1e-14 * np.max(np.abs(reference))


def test_positivity_certificate_takes_its_formula_value():
    # 2 + z on a 16-node unit circle: delta = min Re(2 + z) = 1 at z = -1
    # and S = max |2 + z| = 3, so the bound is delta / sqrt(delta^2 + 10)
    # with delta less its margin, against sigma_min(T) = 0.8166
    system = rc.build_contour([rc.Circle(0j, 1.0, rc.CCW, 16)])
    p = rc.RHProblem.from_jump(rc.JumpData.from_evaluator(system, lambda z: 2.0 + z))
    sol = rc.solve(p)
    assert sol.sigma_source == "positivity"
    delta = 1.0 - rhp.POSITIVITY_MARGIN_ULPS * np.finfo(float).eps * 3.0 * 16
    assert abs(sol.smallest_singular_value - delta / np.sqrt(delta**2 + 10.0)) <= 1e-15
    lanczos = rhp._smallest_singular_value(rhp._ToeplitzLU(p))
    exact = scipy.linalg.svdvals(two_einsum_operator(p))[-1]
    assert abs(lanczos - exact) <= 1e-13 * exact
    assert abs(lanczos - 0.8166408) <= 1e-7
    assert sol.smallest_singular_value <= lanczos


def _two_sided_rational_problem(nodes, side):
    # poles at 1.05, 1.2 and 2 and at their inversions: on the unit circle
    # 1/(a - z) + 1/(a - 1/z) = 2 Re 1/(a - z) > 0 for a > 1, and the
    # off-diagonal entries are at most 0.2, so the symbol is positive
    system = rc.build_contour([rc.Circle(0j, 1.0, rc.CCW, nodes)])

    def v(z):
        def pair(a):
            return 1.0 / (a - z) + 1.0 / (a - 1.0 / z)

        return rc.matrix_at(
            z,
            [
                [1.0 + 0.05 * pair(1.05), 0.2 / (2.0 - z)],
                [0.2 / (2.0 - 1.0 / z), 1.5 + 0.3 * pair(1.2)],
            ],
        )

    return rc.RHProblem.from_jump(rc.JumpData.from_evaluator(system, v), side=side)


@pytest.mark.parametrize("side", ["plus", "minus"])
@pytest.mark.parametrize(
    "make",
    [
        lambda side: rc.RHProblem.from_jump(
            _defocusing_problem(512).data.jump, side=side
        ),
        lambda side: _two_sided_rational_problem(512, side),
    ],
    ids=["defocusing_1x512", "two_sided_rational"],
)
def test_gmres_takes_a_few_steps_per_column(make, side, monkeypatch):
    # with the section of s^(-1) from the right, the section of a rational
    # symbol is the identity up to a Hankel product of low rank: 1-4 steps
    # per column were measured on the defocusing problem and 5-6 on the
    # rational one, against A's order of 512
    p = make(side)
    runs = _applies(monkeypatch, "_gmres")
    assert rc.solve(p).solver_path == "krylov"
    # one run per column: GMRES's answer is final, with no corrective run
    assert len(runs) == p.data.dim
    assert 1 <= min(runs) and max(runs) <= 8


@pytest.mark.parametrize("order", [1, 5, 12])
def test_gmres_solves_an_unstructured_system_within_its_order(order):
    # no clustering to exploit: GMRES runs to the order, where the Krylov
    # space is the whole space, and solves to rounding; with tol 0 it
    # stops there too, with that least-squares iterate
    rng = np.random.default_rng(order)
    a = rng.standard_normal((order, order)) + 1j * rng.standard_normal((order, order))
    a += 2.0 * np.eye(order)
    b = rng.standard_normal(order) + 1j * rng.standard_normal(order)
    steps = []

    def apply(y):
        steps.append(y)
        return a @ y

    expected = np.linalg.solve(a, b)
    for tol in (1e-14, 0.0):
        steps.clear()
        y = rhp._gmres(apply, b, tol)
        assert len(steps) == order
        assert np.linalg.norm(y - expected) <= 1e-12 * np.linalg.norm(expected)
    zero = np.zeros(order, complex)
    assert np.array_equal(rhp._gmres(apply, zero, 1e-14), zero)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_gmres_gives_up_on_a_value_that_is_not_finite(value):
    steps = []

    def apply(y):
        steps.append(y)
        return np.full_like(y, value)

    assert rhp._gmres(apply, np.ones(8, complex), 1e-14) is None
    assert len(steps) == 1


def test_gmres_that_meets_a_value_that_is_not_finite_fails_the_solve(monkeypatch):
    # the certified section is solved by GMRES alone: there is no LU to
    # fall back on, so its None is a ValueError, as an overflow on the LU
    # path is
    factorizations = _counted(monkeypatch, scipy.linalg, "lu_factor")
    monkeypatch.setattr(rhp, "_gmres", lambda apply, b, tol: None)
    with pytest.raises(ValueError, match="GMRES met a value that is not finite"):
        rc.solve(_cli_problem("rational_solve.json"))
    assert factorizations == []


def _twisted_defocusing_problem(a, b, site, nodes):
    spec = rc.IdnlsSpec(r=lambda z: a * z + b / z, n=site, sign="defocusing")
    return rc.RHProblem.from_jump(rc.build_defocusing_jump(spec, node_count=nodes))


def _matches_the_dense_lu(sol, make, monkeypatch, tol=1e-13):
    """Whether sol's mu is that of the LU of the dense operator of make(),
    to tol max |mu|."""
    monkeypatch.setattr(
        rhp, "_ToeplitzLU", lambda p, *_: _MatrixLU(two_einsum_operator(p))
    )
    monkeypatch.setattr(rhp, "_certified_section", lambda p, sigma_min: None)
    ref = rc.solve(make())
    scale = np.max(np.abs(ref.mu.values))
    return np.max(np.abs(sol.mu.values - ref.mu.values)) <= tol * scale


@pytest.mark.parametrize(
    "a, b, site, nodes, steps, tol",
    [
        (0.6, 0.35, 40, 128, range(1, 64), 1e-13),
        (0.65, 0.33, 80, 512, range(65, 512), 1e-12),
    ],
    ids=["site40_128", "site80_512"],
)
def test_certified_section_is_solved_by_gmres_alone(
    a, b, site, nodes, steps, tol, monkeypatch
):
    # r = a z + b/z keeps GMRES stepping longer as the site n of the
    # z^(2n) twist grows and |r| nears 1: 50 steps over the solve for the
    # first input, 81 for the second, which has 43 at n = 40.  However
    # many it takes, GMRES alone solves the section, which the positivity
    # bound certifies: no LU and no Lanczos run.  The second answer is
    # 3.9e-13 max |mu| from the dense LU's, the bound the suite holds
    # GMRES to in test_certified_solve_makes_no_corrective_run
    def make():
        return _twisted_defocusing_problem(a, b, site, nodes)

    runs = _applies(monkeypatch, "_gmres")
    factorizations = _counted(monkeypatch, scipy.linalg, "lu_factor")
    lanczos = _counted(monkeypatch, rhp, "_lanczos_sigma_min")
    sol = rc.solve(make())
    assert (sol.solver_path, sol.sigma_source) == ("krylov", "positivity")
    assert lanczos == [] and factorizations == []
    assert sum(runs) in steps
    assert _matches_the_dense_lu(sol, make, monkeypatch, tol=tol)


@pytest.mark.parametrize("site", [20, 40])
def test_certified_solve_makes_no_corrective_run(site, monkeypatch):
    # one GMRES run per column takes 22 and 42 steps; a second,
    # corrective run would take as many again.  GMRES stops at a
    # residual of about 4e-15 of the right-hand side, which the section's
    # conditioning lifts to a gap from the dense LU of 5.5e-14 and
    # 1.4e-13 of max |mu|
    def make():
        return _twisted_defocusing_problem(0.6, 0.35, site, 512)

    runs = _applies(monkeypatch, "_gmres")
    factorizations = _counted(monkeypatch, scipy.linalg, "lu_factor")
    p = make()
    sol = rc.solve(p)
    assert (sol.solver_path, sol.sigma_source) == ("krylov", "positivity")
    assert len(runs) == p.data.dim and sum(runs) < 64
    assert factorizations == []
    assert _matches_the_dense_lu(sol, make, monkeypatch, tol=1e-12)


def test_positive_minus_side_section_solves_without_a_lanczos_run(monkeypatch):
    # this minus side took 1585 Lanczos applies (1.4 s) for sigma_min(T)
    # 0.4305; s^(-1) is positive, and its certificate replaces the run
    p = _positive_symbol_problem(512, "minus")
    calls = _counted(monkeypatch, rhp, "_lanczos_sigma_min")
    sol = rc.solve(p)
    assert calls == []
    assert (sol.solver_path, sol.sigma_source) == ("krylov", "positivity")
    assert abs(sol.smallest_singular_value - 0.3210) <= 1e-4
    exact = scipy.linalg.svdvals(two_einsum_operator(p))[-1]
    assert abs(exact - 0.4305) <= 1e-4
    assert sol.smallest_singular_value <= exact


@pytest.mark.parametrize("name", ["rational_near_singular.json", "index_power.json"])
def test_winding_symbols_get_no_certificate(name):
    # each jump winds once around the unit circle, so Re v takes both
    # signs there: the solve takes the iterative path and still refuses
    p = _cli_problem(name)
    assert rhp._certified_section(p, 0.0) is None
    with pytest.raises(rc.NearSingularOperatorError) as info:
        rc.solve(p)
    assert info.value.smallest_singular_value < rc.SIGMA_MIN


@pytest.mark.parametrize(
    "make",
    [_two_circle_problem, lambda: _two_sided(_conjugated_soliton_jump(), 0.3 - 0.2j)],
    ids=["two_circles", "two_sided"],
)
def test_only_a_one_sided_one_circle_problem_is_certified(make):
    # two circles, or two nonzero splitting halves: no section to certify
    p = make()
    assert rhp._certified_section(p, 0.0) is None


def test_edge_of_range_symbol_gives_a_finite_certificate_or_none():
    # entries near 1e300: delta and S come from numpy and the bound from
    # hypot, so nothing overflows; at 1.7e308 some samples are not finite
    # themselves, and nothing is certified
    system = rc.build_contour([rc.Circle(0j, 6.0, rc.CCW, 64)])
    for scale, certified in ((1e300, True), (1.7e308, False)):
        # samples JumpData would refuse at 1.7e308, so taken without it
        samples = rc.GridFunction.sample(
            system, lambda z, scale=scale: scale * (z - 0.4) / (z - 2.5)
        )
        bound = rhp._positivity_bound(samples.values)
        assert (bound is not None) == certified
        if certified:
            assert 0.0 < bound <= 1.0
