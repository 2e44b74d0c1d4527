import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

import rhcircles as rc
from rhcircles import rhp

from conftest import two_einsum_operator


def soliton_spec(*poles):
    return rc.IdnlsSpec(r=None, n=0, poles=poles or ((2.0 + 0j, 1.0 + 0j),))


def test_spec_validates_pole_positions():
    with pytest.raises(ValueError):
        rc.IdnlsSpec(r=None, n=0, poles=((0.5 + 0j, 1.0 + 0j),))
    with pytest.raises(ValueError):
        rc.IdnlsSpec(r=None, n=0, poles=((1.0 + 0j, 1.0 + 0j),))
    with pytest.raises(ValueError):
        rc.IdnlsSpec(
            r=None, n=0, poles=((2.0 + 0j, 1.0 + 0j), (2.0 + 0j, 0.5 + 0j))
        )
    with pytest.raises(ValueError):
        rc.IdnlsSpec(r=None, n=0, sign="dispersive")


@pytest.mark.parametrize("n", [2.7, 2.0, True, "2"], ids=repr)
def test_spec_refuses_a_site_that_is_not_an_integer(n):
    # int() made 2.7 site 2 and True site 1
    with pytest.raises(ValueError, match=re.escape(f"n must be an integer, got {n!r}")):
        rc.IdnlsSpec(r=None, n=n, poles=((2.0 + 0j, 1.0 + 0j),))


def test_spec_takes_a_numpy_integer_site():
    spec = rc.IdnlsSpec(r=None, n=np.int64(-3), poles=((2.0 + 0j, 1.0 + 0j),))
    assert spec.n == -3 and type(spec.n) is int


def test_spec_defocusing_needs_small_reflection():
    with pytest.raises(rc.ReflectionTooLargeError):
        rc.IdnlsSpec(r=lambda z: 1.1 * z, n=0, sign="defocusing")
    # focusing has no such cap
    rc.IdnlsSpec(r=lambda z: 1.1 * z, n=0, sign="focusing")


def test_spec_locations():
    spec = soliton_spec((2.0 + 0j, 1.0 + 0j), (3.0 + 1.0j, 1.0 + 0j))
    assert np.allclose(spec.pole_locations(), [2.0, 3.0 + 1.0j])
    assert np.allclose(spec.mirror_locations(), [0.5, 0.3 + 0.1j])
    assert spec.reflection(1j) == 0.0


def test_defocusing_jump_values():
    spec = rc.IdnlsSpec(r=lambda z: 0.3 * z, n=0, sign="defocusing")
    jump = rc.build_defocusing_jump(spec, node_count=32)
    circle = jump.system.circles[0]
    assert circle.orientation == rc.CW and jump.system.plus_at_infinity
    k = int(np.argmin(np.abs(circle.points() - 1.0)))
    want = np.array([[0.91, -0.3], [0.3, 1.0]])
    assert np.max(np.abs(jump.v.values[k] - want)) < 1e-14


def test_focusing_jump_values():
    spec = rc.IdnlsSpec(r=lambda z: 0.4 * z, n=0, sign="focusing")
    jump = rc.build_focusing_jump(spec, node_count=32)
    circle = jump.system.circles[0]
    k = int(np.argmin(np.abs(circle.points() - 1j)))
    want = np.array([[1.16, -0.4j], [0.4j, 1.0]])
    assert np.max(np.abs(jump.v.values[k] - want)) < 1e-14


def test_jump_builders_check_sign():
    foc = rc.IdnlsSpec(r=None, n=0, sign="focusing")
    defoc = rc.IdnlsSpec(r=None, n=0, sign="defocusing")
    with pytest.raises(ValueError):
        rc.build_defocusing_jump(foc)
    with pytest.raises(ValueError):
        rc.build_focusing_jump(defoc)


@given(st.integers(min_value=-3, max_value=3), st.sampled_from(["focusing", "defocusing"]))
def test_unit_jump_has_unit_determinant(n, sign):
    spec = rc.IdnlsSpec(r=lambda z: 0.3 * z, n=n, sign=sign)
    build = (
        rc.build_defocusing_jump if sign == "defocusing" else rc.build_focusing_jump
    )
    jump = build(spec, node_count=32)
    assert np.max(np.abs(np.linalg.det(jump.v.values) - 1.0)) < 1e-13


def test_focusing_jump_hermitian_positive():
    spec = rc.IdnlsSpec(r=lambda z: 0.4 * z, n=2, sign="focusing")
    jump = rc.build_focusing_jump(spec, node_count=64)
    vals = jump.v.values
    herm_dev = np.max(np.abs(vals - np.conj(np.swapaxes(vals, 1, 2))))
    assert herm_dev < 1e-14
    eigs = np.linalg.eigvalsh(vals)
    assert np.min(eigs) > 0.3


def test_default_pole_radii():
    spec = soliton_spec()
    assert np.allclose(rc.default_pole_radii(spec), [0.5])
    two = soliton_spec((2.0 + 0j, 1.0 + 0j), (3.0 + 1.0j, 1.0 + 0j))
    radii = rc.default_pole_radii(two)
    half_gap = abs(2.0 - (3.0 + 1.0j)) / 4.0
    assert np.allclose(radii, [half_gap, half_gap])


def test_remove_poles_layout_and_jumps():
    ap = rc.remove_poles(soliton_spec(), pole_nodes=32, unit_nodes=32)
    assert ap.roles == (("unit",), ("pole", 0), ("inverted-pole", 0))
    assert not ap.is_conjugated()
    unit, pole, mirror = ap.system.circles
    assert unit.orientation == rc.CW
    assert pole.orientation == rc.CW and pole.center == 2.0
    assert mirror.orientation == rc.CCW
    assert pole.radius == 0.5
    assert abs(mirror.center - 2.0 / 3.75) < 1e-13
    assert abs(mirror.radius - 0.5 / 3.75) < 1e-13
    # q = 1 here, so at 2.5 the pole-circle jump is [[1,0],[2,1]]
    k = ap.system.node_slices()[1].start
    pts = pole.points()
    at = int(np.argmin(np.abs(pts - 2.5)))
    got = ap.jump.v.values[k + at]
    assert np.max(np.abs(got - np.array([[1.0, 0.0], [2.0, 1.0]]))) < 1e-12


def test_soliton_oracle_frozen_values():
    oracle = rc.soliton_oracle(soliton_spec())
    assert np.allclose(oracle.pole_residues[0], [0.15, 0.9])
    assert np.allclose(oracle.mirror_residues[0], [0.225, -0.15])
    want = np.array([[0.925, -0.45], [-0.45, 1.3]])
    assert np.max(np.abs(oracle(0.0) - want)) < 1e-14
    # normalization at infinity
    assert np.max(np.abs(oracle(1e8) - np.eye(2))) < 1e-7


def test_soliton_oracle_requires_reflectionless_data():
    with pytest.raises(ValueError):
        rc.soliton_oracle(rc.IdnlsSpec(r=None, n=0, poles=()))
    with pytest.raises(ValueError):
        rc.soliton_oracle(
            rc.IdnlsSpec(r=lambda z: 0.1 * z, n=0, poles=((2.0 + 0j, 1.0 + 0j),))
        )


def test_conjugation_matrices_values():
    a_mat, b_mats, c_mat = rc.conjugation_matrices(soliton_spec())
    assert np.allclose(a_mat(3.0), np.diag([2.0, 3.0]))
    assert np.allclose(c_mat(0.3), np.diag([0.5, 0.3]))
    got = b_mats[0](2.1)
    assert np.allclose(got, np.array([[2.0, 0.0], [-1.0, 2.1]]))


def test_conjugate_layout_and_jumps():
    ap = rc.remove_poles(soliton_spec(), pole_nodes=32, unit_nodes=32)
    conj = rc.conjugate(ap, node_count=32)
    assert conj.is_conjugated()
    assert conj.roles[-2:] == (("outer",), ("inner",))
    outer = conj.system.circles[-2]
    inner = conj.system.circles[-1]
    assert outer.radius == 4.0 and outer.orientation == rc.CCW
    assert inner.radius == 0.25 and inner.orientation == rc.CCW
    slices = conj.system.node_slices()
    v_outer = conj.jump.v.values[slices[-2]]
    pts = outer.points()
    at = int(np.argmin(np.abs(pts - 4.0)))
    assert np.max(np.abs(v_outer[at] - np.diag([2.0, 4.0]))) < 1e-12
    v_inner = conj.jump.v.values[slices[-1]]
    at = int(np.argmin(np.abs(inner.points() - 0.25)))
    assert np.max(np.abs(v_inner[at] - np.diag([2.0, 4.0]))) < 1e-12
    with pytest.raises(ValueError):
        rc.conjugate(conj)


def test_conjugated_jump_is_symmetric_and_positive():
    spec = rc.IdnlsSpec(
        r=lambda z: 0.2 * z, n=0, poles=((2.0 + 0j, 1.0 + 0j),), sign="focusing"
    )
    conj = rc.conjugate(rc.remove_poles(spec))
    rep = rc.check_inversion_hypotheses(conj.jump)
    assert rep.symmetric_off_circle
    assert rep.max_symmetry_deviation < 1e-12
    assert rep.min_re_eig_on_circle > 0.5
    assert rep.hermitian_deviation_on_circle < 1e-13


def test_pipeline_reproduces_oracle_in_every_region():
    spec = soliton_spec()
    oracle = rc.soliton_oracle(spec)
    ap = rc.remove_poles(spec)
    sol = rc.solve_augmented(ap)
    assert sol.residual_jump < 1e-12
    probes = {
        "outside": 5.0 + 0j,
        "inside pole circle": 2.2 + 0j,
        "inside mirror circle": 0.51 + 0j,
        "inside unit circle": -0.4 + 0.2j,
    }
    for label, z in probes.items():
        dev = np.max(np.abs(sol.evaluate(z) - oracle(z)))
        assert dev < 1e-8, f"{label}: {dev}"


def test_conjugated_pipeline_matches_plain():
    spec = rc.IdnlsSpec(
        r=lambda z: 0.2 * z, n=1, poles=((2.0 + 0j, 1.0 + 0j),), sign="focusing"
    )
    ap = rc.remove_poles(spec)
    plain = rc.solve_augmented(ap)
    conj_sol = rc.solve_augmented(rc.conjugate(ap))
    for z in (1.5 + 1.0j, 0.6 + 0.1j, 2.2 + 0j, 0.05 + 0.05j, 9.0 + 0j):
        dev = np.max(np.abs(plain.evaluate(z) - conj_sol.evaluate(z)))
        assert dev < 1e-7, f"probe {z}: {dev}"


def test_residue_conditions_hold_for_oracle_and_solver():
    spec = soliton_spec()
    oracle = rc.soliton_oracle(spec)
    ap = rc.remove_poles(spec, pole_nodes=32, unit_nodes=32)
    assert rc.residue_condition_residuals(lambda z: oracle(z), ap) < 1e-13
    sol = rc.solve_augmented(ap)
    assert rc.residue_condition_residuals(sol.evaluate, ap) < 1e-10


def test_evaluate_guards_contour_margin():
    ap = rc.remove_poles(soliton_spec(), pole_nodes=32, unit_nodes=32)
    sol = rc.solve_augmented(ap)
    with pytest.raises(rc.TooCloseToContourError):
        sol.evaluate(2.0 + 0.5000001j)


# A conjugated lattice site whose operator makes single-threaded OpenBLAS
# gesdd report "SVD did not converge" in the alias-kernel solve.
_GESDD_SITE = """
import numpy as np
import rhcircles as rc

z = 1.176005351108657 - 1.4832681049084173j
c = 0.13651814519857414 + 0.5025568517243056j
spec = rc.IdnlsSpec(r=None, n=-1, poles=((z, c),))
conj = rc.conjugate(rc.remove_poles(spec))
sol = rc.solve_augmented(conj)
oracle = rc.soliton_oracle(spec)
probes = rc.off_contour_points(conj.system, 12, rel_margin=0.45)
print(max(float(np.max(np.abs(sol.evaluate(w) - oracle(w)))) for w in probes))
"""


def test_alias_solve_survives_gesdd_nonconvergence():
    # BLAS threads are fixed at interpreter start, hence the subprocess
    src = str(Path(rc.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _GESDD_SITE],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert float(proc.stdout.strip().splitlines()[-1]) <= 1e-7


def _conjugated_problem(spec):
    ap = rc.conjugate(rc.remove_poles(spec))
    return rc.RHProblem.from_jump(ap.jump, h=np.eye(2))


def _gesdd_site_spec():
    z = 1.176005351108657 - 1.4832681049084173j
    c = 0.13651814519857414 + 0.5025568517243056j
    return rc.IdnlsSpec(r=None, n=-1, poles=((z, c),))


def test_alias_null_vectors_take_one_step_from_a_random_start():
    p = _conjugated_problem(soliton_spec())
    op = rhp._ToeplitzLU(p)
    # all of T in the Fourier basis, where r and l live: the LU leaves
    # its identity columns out, and the helper fills them back in
    t = rhp._operator(p)
    assert t.shape == (op.order, op.order)
    r, l, _ = rhp._null_vectors(op)
    assert np.linalg.norm(t @ r) < 1e-12
    assert np.linalg.norm(t.conj().T @ l) < 1e-12
    # the pitfalls the random start and the single step avoid: a constant
    # start has no Nyquist content, and a second step on the singular LU
    # drifts away from the kernel
    ones = op.to_basis(np.ones(t.shape[0], dtype=complex))
    constant = op.solve(ones)
    assert np.linalg.norm(t @ constant) / np.linalg.norm(constant) > 1e-6
    second = op.solve(r)
    assert np.linalg.norm(t @ second) / np.linalg.norm(second) > 1e-6


@pytest.mark.parametrize(
    "spec", [soliton_spec(), _gesdd_site_spec()], ids=["soliton", "gesdd_site"]
)
def test_modes_left_out_match_the_truncated_svd(spec):
    # T has an alias kernel of one direction; the solve leaves out the
    # equation row and the unknown column at the Nyquist seam that carry it
    p = _conjugated_problem(spec)
    sol = rc.solve(p)
    assert sol.solver_path == "lu"
    assert sol.smallest_singular_value >= rc.SIGMA_MIN
    # truncated-SVD reference; gesvd, since gesdd need not converge here
    u, s, vh = scipy.linalg.svd(two_einsum_operator(p), lapack_driver="gesvd")
    assert np.sum(s < rc.SIGMA_MIN) == 1
    # what is left once the alias direction is gone
    assert abs(sol.smallest_singular_value - s[-2]) <= 1e-10 * s[-2]
    big_n = p.system.total_nodes
    rhs = np.repeat(p.h[:, None, :], big_n, axis=1).reshape(2, 2 * big_n).T
    inverted = np.where(s >= rc.SIGMA_MIN, 1.0 / s, 0.0)
    reference = vh.conj().T @ (inverted[:, None] * (u.conj().T @ rhs))
    x = sol.mu.values.transpose(1, 0, 2).reshape(2, 2 * big_n).T
    assert np.max(np.abs(x - reference)) < 1e-10


@pytest.mark.parametrize("site", [0, -3, 2])
def test_conjugated_soliton_alias_is_left_out_at_every_site(site):
    spec = rc.IdnlsSpec(r=None, n=site, poles=((2.0 + 0j, 1.0 + 0j),))
    sol = rc.solve(_conjugated_problem(spec))
    assert sol.solver_path == "lu"
    assert sol.residual_jump <= 1e-8
    assert sol.smallest_singular_value >= rc.SIGMA_MIN


def test_alias_solve_runs_no_singular_value_decomposition(monkeypatch):
    p = _conjugated_problem(soliton_spec())
    calls = []
    for name in ("svdvals", "svd"):
        original = getattr(scipy.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, name, counted)
    sol = rc.solve(p)
    assert sol.solver_path == "lu"
    assert calls == []


def test_array_evaluate_equals_stacked_point_evaluates_in_every_undo_region():
    ap = rc.conjugate(rc.remove_poles(soliton_spec()))
    sol = rc.solve_augmented(ap)
    pole = ap.system.circles[ap.roles.index(("pole", 0))]
    mirror = ap.system.circles[ap.roles.index(("inverted-pole", 0))]
    big_r = ap.system.circles[ap.roles.index(("outer",))].radius
    regions = {
        "pole disk": pole.center + 0.4 * pole.radius * np.exp(0.7j),
        "inverted-pole disk": mirror.center + 0.4 * mirror.radius * 1j,
        "1 < |z| < R": -1.5 + 1.0j,
        "1/R < |z| < 1": -0.3 - 0.4j,
        "|z| > R": 1.3 * big_r * np.exp(2.0j),
        "|z| < 1/R": 0.3 / big_r * np.exp(-1.0j),
    }
    z = np.array(list(regions.values()))
    assert not np.any(rc.cauchy.too_close(ap.system, z))
    assert abs(z[0] - pole.center) < pole.radius
    assert abs(z[1] - mirror.center) < mirror.radius
    assert 1.0 < abs(z[2]) < big_r and 1.0 / big_r < abs(z[3]) < 1.0
    assert abs(z[4]) > big_r and abs(z[5]) < 1.0 / big_r
    got = sol.evaluate(z)
    assert got.shape == (len(regions), 2, 2)
    assert np.all(np.isfinite(got))
    assert np.array_equal(got, np.stack([sol.evaluate(complex(w)) for w in z]))
    # and across kernel blocks, on a grid that crosses every circle
    x = np.linspace(-5.0, 5.0, 23)
    grid = (x[:, None] + 1j * x[None, :]).reshape(-1)
    grid = grid[~rc.cauchy.too_close(ap.system, grid)]
    assert grid.size > rc.cauchy.EVAL_BLOCK
    assert np.array_equal(
        sol.evaluate(grid), np.stack([sol.evaluate(complex(w)) for w in grid])
    )


def test_oracle_takes_arrays():
    oracle = rc.soliton_oracle(soliton_spec((2.0 + 0j, 1.0 + 0j), (3.0 + 1.0j, 0.5j)))
    z = np.array([0.0, 1.5 + 1.0j, -4.0, 0.2j])
    got = oracle(z)
    assert got.shape == (4, 2, 2)
    assert np.array_equal(got, np.stack([oracle(w) for w in z]))
    assert oracle(z[1]).shape == (2, 2)


def test_residue_check_makes_one_call_per_ring():
    spec = soliton_spec((2.0 + 0j, 1.0 + 0j), (3.0 + 1.0j, 0.5j))
    oracle = rc.soliton_oracle(spec)
    ap = rc.remove_poles(spec, pole_nodes=32, unit_nodes=32)
    calls = []

    def evaluate(z):
        calls.append(np.shape(z))
        return oracle(z)

    assert rc.residue_condition_residuals(evaluate, ap) < 1e-13
    assert calls == [(48,)] * 4


def test_residue_check_keeps_a_nan_from_a_later_ring():
    # np.maximum, not max: a NaN on the second ring must not read as the
    # first ring's residual
    spec = soliton_spec()
    oracle = rc.soliton_oracle(spec)
    ap = rc.remove_poles(spec, pole_nodes=32, unit_nodes=32)
    calls = []

    def evaluate(z):
        calls.append(z)
        values = oracle(z)
        return values if len(calls) == 1 else np.full_like(values, np.nan)

    assert np.isnan(rc.residue_condition_residuals(evaluate, ap))
    assert len(calls) == 2
