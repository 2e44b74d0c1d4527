import numpy as np
import pytest
from hypothesis import given, strategies as st

import rhcircles as rc
from rhcircles import factorize


def scalar_jump(system, fn):
    return rc.JumpData.from_evaluator(system, fn).v


@given(st.integers(min_value=-6, max_value=6))
def test_winding_of_monomials(k):
    system = rc.build_contour([rc.Circle(0j, 1.0, rc.CCW, 32)])
    v = scalar_jump(system, lambda z: z**k)
    assert rc.winding_number(v) == k


@given(
    st.integers(min_value=-4, max_value=4),
    st.complex_numbers(max_magnitude=0.6, allow_nan=False, allow_infinity=False),
    st.complex_numbers(
        min_magnitude=1.5, max_magnitude=4.0, allow_nan=False, allow_infinity=False
    ),
)
def test_winding_is_additive(k, a, b):
    system = rc.build_contour([rc.Circle(0j, 1.0, rc.CCW, 64)])
    f = scalar_jump(system, lambda z: z**k)
    g = scalar_jump(system, lambda z: (z - a) / (z - b))
    assert rc.winding_number(f * g) == rc.winding_number(f) + rc.winding_number(g)


def test_winding_rejects_vanishing_symbol():
    system = rc.build_contour([rc.Circle(0j, 1.0, rc.CCW, 32)])
    v = rc.GridFunction.sample(system, lambda z: z - 1.0)
    with pytest.raises(rc.SingularJumpError):
        rc.winding_number(v)


def test_mobius_power_basics():
    assert rc.mobius_power(2.0, 0, 0.3, 1.7) == 1.0
    assert abs(rc.mobius_power(2.0, 2, 0.0, None) - 4.0) < 1e-15
    got = rc.mobius_power(1j, -1, 0.5, 2.0)
    assert abs(got - (1j - 2.0) / (1j - 0.5)) < 1e-15
    mat = rc.mobius_power_matrix(1j, (2, -1), 0.5, 2.0)
    assert mat.shape == (2, 2) and mat[0, 1] == 0.0


@given(
    st.complex_numbers(
        min_magnitude=0.3, max_magnitude=3.0, allow_nan=False, allow_infinity=False
    )
)
def test_mirrored_mobius_matches_inversion_conjugate(z):
    k = (2, -1)
    zp = 0.3 + 0.1j
    for zm in (2.0 - 0.5j, None):
        direct = rc.mobius_power_matrix_mirrored(z, k, zp, zm)
        mirrored = rc.inversion_conjugate(
            lambda w: rc.mobius_power_matrix(w, k, zp, zm)
        )(z)
        scale = max(np.max(np.abs(direct)), 1.0)
        assert np.max(np.abs(direct - mirrored)) < 1e-12 * scale, zm


def test_scalar_factorize_monomial():
    system = rc.build_contour([rc.Circle(0j, 1.0, rc.CCW, 64)])
    fac = rc.scalar_factorize(scalar_jump(system, lambda z: z**2), z_plus=0.0)
    assert fac.index == 2
    assert np.max(np.abs(fac.m_plus.scalar() - 1.0)) < 1e-13
    assert np.max(np.abs(fac.m_minus.scalar() - 1.0)) < 1e-13
    assert fac.residual < 1e-13


def test_scalar_factorize_zero_winding_closed_form():
    system = rc.build_contour([rc.Circle(0j, 6.0, rc.CCW, 64)])
    v = scalar_jump(system, lambda z: (z - 0.4) / (z - 2.5))
    fac = rc.scalar_factorize(v, z_plus=0.0)
    assert fac.index == 0
    z = system.circles[0].points()
    assert np.max(np.abs(fac.m_plus.scalar() - 1.0)) < 1e-12
    assert np.max(np.abs(fac.m_minus.scalar() - (z - 2.5) / (z - 0.4))) < 1e-12
    assert fac.residual < 1e-13


def test_scalar_factorize_unit_circle_winding_one():
    system = rc.build_contour([rc.Circle(0j, 1.0, rc.CCW, 64)])
    v = scalar_jump(system, lambda z: (z - 0.4) / (z - 2.5))
    fac = rc.scalar_factorize(v, z_plus=0.0)
    assert fac.index == 1
    # the minus factor must carry the enclosed zero: z/(z - 0.4) up to a
    # constant absorbed by the plus factor
    z = system.circles[0].points()
    ratio = fac.m_minus.scalar() * (z - 0.4) / z
    assert np.max(np.abs(ratio - ratio[0])) < 1e-12
    assert fac.residual < 1e-12
    assert np.max(np.abs(fac.reassembled().values - v.values)) < 1e-12


def test_scalar_factorize_clockwise_circle():
    # plus region outside: the winding flips sign and the plus factor is
    # the constant absorbing the zero mode
    system = rc.build_contour([rc.Circle(0j, 1.0, rc.CW, 64)])
    fac = rc.scalar_factorize(scalar_jump(system, lambda z: z), z_plus=3.0, z_minus=0.0)
    assert fac.index == -1
    assert np.ptp(np.abs(fac.m_plus.scalar())) < 1e-13
    assert abs(fac.m_plus.scalar()[0] + 3.0) < 1e-13
    assert fac.residual < 1e-13


def test_scalar_factorize_validates_anchors():
    system = rc.build_contour([rc.Circle(0j, 1.0, rc.CCW, 64)])
    v = scalar_jump(system, lambda z: z)
    with pytest.raises(ValueError):
        rc.scalar_factorize(v, z_plus=5.0)  # not in the plus region
    with pytest.raises(ValueError):
        rc.scalar_factorize(v, z_plus=0.0, z_minus=0.5)  # not in minus region
    cw = rc.build_contour([rc.Circle(0j, 1.0, rc.CW, 64)])
    with pytest.raises(ValueError):
        # infinity lies in the plus region here, z_minus must be explicit
        rc.scalar_factorize(scalar_jump(cw, lambda z: z), z_plus=3.0)


def test_scalar_factorize_refuses_an_anchor_on_the_contour():
    # an anchor on a node puts the Mobius factor's zero or pole there
    system = rc.build_contour([rc.Circle(0j, 1.0, rc.CCW, 64)])
    v = scalar_jump(system, lambda z: z**2)
    with pytest.raises(rc.TooCloseToContourError):
        rc.scalar_factorize(v, z_plus=0.0, z_minus=1.0)
    with pytest.raises(rc.TooCloseToContourError):
        rc.scalar_factorize(v, z_plus=1.0, z_minus=3.0)


def test_scalar_factorize_demands_resolution_for_large_winding():
    system = rc.build_contour([rc.Circle(0j, 1.0, rc.CCW, 32)])
    v = scalar_jump(system, lambda z: z**5)
    with pytest.raises(ValueError):
        rc.scalar_factorize(v, z_plus=0.0)


def test_scalar_factorize_single_circle_scalar_only():
    two = rc.build_contour(
        [rc.Circle(0j, 1.0, rc.CCW, 32), rc.Circle(3.0 + 0j, 0.5, rc.CCW, 32)]
    )
    v = scalar_jump(two, lambda z: 1.0 + 0.0 * z)
    with pytest.raises(ValueError):
        rc.scalar_factorize(v, z_plus=0.0)
    system = rc.build_contour([rc.Circle(0j, 1.0, rc.CCW, 32)])
    v2 = rc.GridFunction.sample(system, lambda z: np.eye(2))
    with pytest.raises(ValueError):
        rc.scalar_factorize(v2, z_plus=0.0)


def hermitian_scalar_jump(orientation):
    system = rc.build_contour([rc.Circle(0j, 1.0, orientation, 64)])
    return rc.JumpData.from_evaluator(system, lambda z: 2.5 + z + 1.0 / z)


def test_hermitian_factorize_scalar_counterclockwise():
    fac = rc.hermitian_factorize(hermitian_scalar_jump(rc.CCW))
    z = fac.w_plus.system.circles[0].points()
    ratio = fac.w_plus.scalar() / (np.sqrt(2.0) * (1.0 + 0.5 * z))
    assert np.max(np.abs(ratio - ratio[0])) < 1e-9
    assert abs(abs(ratio[0]) - 1.0) < 1e-10
    assert abs(fac.constant_C[0, 0] - 0.5) < 1e-10
    assert fac.product_residual < 1e-9
    assert fac.constancy_deviation < 1e-6


def test_hermitian_factorize_scalar_clockwise():
    # with the plus region outside, the analytic-inside factor swaps roles
    # and the Liouville constant inverts
    fac = rc.hermitian_factorize(hermitian_scalar_jump(rc.CW))
    z = fac.w_plus.system.circles[0].points()
    ratio = fac.w_plus.scalar() / (np.sqrt(2.0) * (1.0 + 0.5 / z))
    assert np.max(np.abs(ratio - ratio[0])) < 1e-9
    assert abs(fac.constant_C[0, 0] - 2.0) < 1e-10
    assert fac.product_residual < 1e-8


def test_hermitian_factorize_matrix_case():
    spec = rc.IdnlsSpec(r=lambda z: 0.4 * z, n=0, poles=(), sign="focusing")
    v = rc.build_focusing_jump(spec, node_count=64)
    fac = rc.hermitian_factorize(v)
    assert fac.constancy_stddev < 1e-8
    assert fac.product_residual < 1e-8
    c = fac.constant_C
    assert abs(c[0, 0] - 1.16) < 1e-10
    assert abs(c[1, 1] - 1.0 / 1.16) < 1e-10
    assert abs(c[0, 1]) < 1e-10
    # reassemble v = (w_plus)# w_plus at the mirrored nodes
    z = v.system.circles[0].points()
    w = fac.w_plus.values
    sharp = np.conj(np.swapaxes(w, 1, 2))
    product = np.einsum("lab,lbc->lac", sharp, w)
    assert np.max(np.abs(product - v.v.values)) < 1e-8


def test_hermitian_factorize_rejects_non_hermitian():
    system = rc.build_contour([rc.Circle(0j, 1.0, rc.CCW, 32)])
    v = rc.JumpData.from_evaluator(
        system, lambda z: np.array([[1.0, 0.3], [0.0, 1.0]])
    )
    with pytest.raises(rc.HypothesisViolationError):
        rc.hermitian_factorize(v)


def test_hermitian_factorize_rejects_indefinite():
    system = rc.build_contour([rc.Circle(0j, 1.0, rc.CCW, 32)])
    v = rc.JumpData.from_evaluator(system, lambda z: 0.5 + z + 1.0 / z)
    with pytest.raises(rc.HypothesisViolationError):
        rc.hermitian_factorize(v)


def test_hermitian_factorize_constancy_tolerance_is_enforced():
    with pytest.raises(rc.NonConstantCError):
        rc.hermitian_factorize(hermitian_scalar_jump(rc.CCW), const_tol=1e-18)


def test_hermitian_factorize_refuses_a_nan_constancy(monkeypatch):
    # a NaN in m_minus makes the constancy deviation NaN, which must fail
    # const_tol rather than pass it
    solve = factorize.solve

    def nan_solve(p, **kwargs):
        sol = solve(p, **kwargs)
        sol.m_minus.values[3] = np.nan
        return sol

    monkeypatch.setattr(factorize, "solve", nan_solve)
    with pytest.raises(rc.NonConstantCError, match="varies by nan"):
        rc.hermitian_factorize(hermitian_scalar_jump(rc.CCW))


def test_hermitian_factorize_off_the_partner_grid():
    # five circles at 64 nodes: the mirrored nodes of the pole circle and
    # of its inverted image lie off each other's grid, so m_plus there
    # comes from boundary values at off-node angles
    spec = rc.IdnlsSpec(r=lambda z: 0.2 * z, n=1, poles=((2.5 + 0.5j, 0.7 + 0.2j),))
    ap = rc.conjugate(rc.remove_poles(spec))
    assert len(ap.system.circles) == 5
    fac = rc.hermitian_factorize(ap.jump)
    assert fac.constancy_deviation <= 1e-8
    assert fac.product_residual <= 1e-8
    c = fac.constant_C
    assert np.array_equal(c, c.conj().T)
    assert np.allclose(np.linalg.eigvalsh(c), [0.957, 1.045], atol=1e-3)


def test_hermitian_factorize_reports_a_nan_product_residual(monkeypatch):
    # a NaN in m_plus at one node must make the product residual NaN, not
    # a residual read off the other nodes
    solve = factorize.solve

    def nan_solve(p, **kwargs):
        sol = solve(p, **kwargs)
        sol.m_plus.values[3] = np.nan
        return sol

    monkeypatch.setattr(factorize, "solve", nan_solve)
    fac = rc.hermitian_factorize(hermitian_scalar_jump(rc.CCW))
    assert np.isnan(fac.product_residual)
