import re
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import rhcircles as rc
from rhcircles import cauchy


def grid_scalar(system, values):
    return rc.GridFunction(system, np.asarray(values)[:, None, None])


def test_plus_minus_difference_is_identity(proj_unit):
    n = proj_unit.plus_matrix.shape[0]
    dev = proj_unit.plus_matrix - proj_unit.minus_matrix - np.eye(n)
    assert np.max(np.abs(dev)) == 0.0  # wired in exactly by construction


def test_monomials_split_by_analyticity(unit_ccw_64, proj_unit):
    z = unit_ccw_64.circles[0].points()
    grow = grid_scalar(unit_ccw_64, z**3)
    dec = grid_scalar(unit_ccw_64, z**-2)
    # z^3 extends into the disc (the plus side here), z^-2 does not
    assert np.max(np.abs(rc.apply_plus(proj_unit, grow).values - grow.values)) < 1e-12
    assert np.max(np.abs(rc.apply_minus(proj_unit, grow).values)) < 1e-12
    assert np.max(np.abs(rc.apply_plus(proj_unit, dec).values)) < 1e-12
    assert np.max(np.abs(rc.apply_minus(proj_unit, dec).values + dec.values)) < 1e-12


def test_plus_side_follows_side_label_not_orientation():
    # clockwise unit circle puts the plus region outside, so the roles of
    # growing and decaying monomials swap
    system = rc.build_contour([rc.Circle(0j, 1.0, rc.CW, 64)])
    proj = rc.build_projectors(system)
    z = system.circles[0].points()
    dec = grid_scalar(system, z**-2)
    assert np.max(np.abs(rc.apply_plus(proj, dec).values - dec.values)) < 1e-12


def test_rational_sample_projects_to_itself(unit_ccw_64, proj_unit):
    z = unit_ccw_64.circles[0].points()
    f = grid_scalar(unit_ccw_64, 1.0 / (z - 3.0))
    plus = rc.apply_plus(proj_unit, f)
    assert np.max(np.abs(plus.values - f.values)) < 1e-12


@given(st.data())
def test_projections_idempotent_on_bandlimited_data(data):
    system = rc.build_contour([rc.Circle(0j, 1.0, rc.CCW, 32)])
    proj = rc.build_projectors(system)
    modes = np.arange(-8, 9)
    coeffs = np.array(
        [
            data.draw(
                st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)
            )
            for _ in modes
        ]
    )
    z = system.circles[0].points()
    f = grid_scalar(system, (z[:, None] ** modes[None, :]) @ coeffs)
    plus = rc.apply_plus(proj, f)
    twice = rc.apply_plus(proj, plus)
    mixed = rc.apply_minus(proj, plus)
    scale = max(float(np.max(np.abs(f.values))), 1.0)
    assert np.max(np.abs(twice.values - plus.values)) < 1e-10 * scale
    assert np.max(np.abs(mixed.values)) < 1e-10 * scale


def test_apply_rejects_misaligned_grid_function(proj_unit):
    other = rc.build_contour([rc.Circle(0j, 2.0, rc.CCW, 64)])
    f = rc.GridFunction.identity(other, 1)
    with pytest.raises(rc.AlignmentError):
        rc.apply_plus(proj_unit, f)


def test_offcontour_constant_density(unit_ccw_64):
    f = rc.GridFunction.identity(unit_ccw_64, 2)
    inside = rc.cauchy_offcontour(f, 0.0)
    outside = rc.cauchy_offcontour(f, 2.0)
    assert np.max(np.abs(inside - np.eye(2))) < 1e-12
    assert np.max(np.abs(outside)) < 1e-12


def test_offcontour_partial_fractions(unit_ccw_64):
    z = unit_ccw_64.circles[0].points()
    f = grid_scalar(unit_ccw_64, 1.0 / (z - 3.0))
    got = rc.cauchy_offcontour(f, 0.5)
    assert abs(got[0, 0] - (-0.4)) < 1e-12


def test_offcontour_margin_enforced(unit_ccw_64):
    f = rc.GridFunction.identity(unit_ccw_64, 1)
    spacing = unit_ccw_64.circles[0].spacing()
    with pytest.raises(rc.TooCloseToContourError):
        rc.cauchy_offcontour(f, 1.0 + 0.1 * spacing)
    # the margin scales with the local node spacing
    rc.cauchy_offcontour(f, 1.0 + 2.0 * spacing)


def test_cross_circle_block_reproduces_residue():
    system = rc.build_contour(
        [rc.Circle(0j, 1.0, rc.CCW, 32), rc.Circle(4.0 + 0j, 0.5, rc.CCW, 32)]
    )
    proj = rc.build_projectors(system)
    # a density supported on S^1 with its pole inside contributes the plain
    # residue integral at the far circle's nodes
    z = np.concatenate(
        [system.circles[0].points(), system.circles[1].points()]
    )
    vals = np.where(np.abs(z) < 2.0, 1.0 / (z - 0.2), 0.0)
    f = grid_scalar(system, vals)
    plus = rc.apply_plus(proj, f)
    far = plus.values[32:, 0, 0]
    exact = 1.0 / (0.2 - system.circles[1].points())
    assert np.max(np.abs(far - exact)) < 1e-12


def test_boundary_values_converge_spectrally():
    errs = []
    for m in (8, 16, 32):
        system = rc.build_contour([rc.Circle(0j, 1.0, rc.CCW, m)])
        proj = rc.build_projectors(system)
        z = system.circles[0].points()
        f = grid_scalar(system, 1.0 / (z - 1.6))  # pole just outside
        plus = rc.apply_plus(proj, f)
        errs.append(float(np.max(np.abs(plus.values - f.values))))
    assert errs[1] < 0.2 * errs[0]
    assert errs[2] < 0.2 * errs[1]


def test_offcontour_approaches_boundary_value():
    # radially approaching a node from the analytic side reproduces the
    # boundary sample; the quadrature error decays like (|z|/radius)^nodes,
    # so resolving distance 0.1*radius needs enough nodes
    system = rc.build_contour([rc.Circle(0j, 1.0, rc.CCW, 256)])
    z = system.circles[0].points()
    f = grid_scalar(system, 1.0 / (z - 1.6))
    got = rc.cauchy_offcontour(f, 0.9)
    assert abs(got[0, 0] - 1.0 / (0.9 - 1.6)) < 1e-9


def test_offcontour_array_names_first_too_close_point(unit_ccw_64):
    f = grid_scalar(unit_ccw_64, np.ones(64))
    spacing = unit_ccw_64.circles[0].spacing()
    z = np.array([0.2, 3.0, 1.0 + 0.1 * spacing, -1.0 - 0.1 * spacing, 0.3j])
    with pytest.raises(rc.TooCloseToContourError, match=re.escape(f"point {z[2]} ")):
        rc.cauchy_offcontour(f, z)
    ok = z[[0, 1, 4]]
    got = rc.cauchy_offcontour(f, ok)
    assert got.shape == (3, 1, 1)
    assert np.array_equal(got, np.stack([rc.cauchy_offcontour(f, w) for w in ok]))


def test_offcontour_block_rows_equal_their_one_point_values():
    # 300 points cross an EVAL_BLOCK boundary; each row of a block must be
    # summed as it would be alone, bit for bit
    system = rc.build_contour(
        [
            rc.Circle(0j, 1.0, rc.CCW, 48),
            rc.Circle(3.0 + 0j, 0.5, rc.CCW, 24),
            rc.Circle(-2.0 + 1.0j, 0.4, rc.CCW, 16),
        ]
    )
    rng = np.random.default_rng(5)
    f = rc.GridFunction(
        system, rng.standard_normal((88, 2, 2)) + 1j * rng.standard_normal((88, 2, 2))
    )
    z = 6.0 + 4.0j * np.exp(2j * np.pi * rng.random(300))
    assert z.size > cauchy.EVAL_BLOCK
    got = rc.cauchy_offcontour(f, z)
    assert got.shape == (300, 2, 2)
    assert np.array_equal(got, np.stack([rc.cauchy_offcontour(f, w) for w in z]))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_nodewise_matches_einsum(n):
    rng = np.random.default_rng(n)
    a, b = (
        rng.standard_normal((40, n, n)) + 1j * rng.standard_normal((40, n, n))
        for _ in range(2)
    )
    got = cauchy._nodewise(a, b)
    bound = 4.0 * np.finfo(float).eps * (
        np.linalg.norm(a, axis=(1, 2)) * np.linalg.norm(b, axis=(1, 2))
    )
    error = np.max(np.abs(got - np.einsum("lab,lbc->lac", a, b)), axis=(1, 2))
    assert got.shape == (40, n, n)
    assert np.all(error <= bound)


def test_nodewise_takes_views_and_a_constant_left_factor():
    rng = np.random.default_rng(7)
    u = rng.standard_normal((30, 2, 2)) + 1j * rng.standard_normal((30, 2, 2))
    x = rng.standard_normal((30, 2, 3)) + 1j * rng.standard_normal((30, 2, 3))
    c = rng.standard_normal((2, 2))
    transposed = cauchy._nodewise(np.swapaxes(u, 1, 2), x)
    assert np.max(np.abs(transposed - np.einsum("lcb,lcj->lbj", u, x))) <= 1e-14
    scaled = cauchy._nodewise(c[None], u)
    assert scaled.shape == (30, 2, 2)
    assert np.max(np.abs(scaled - np.einsum("ab,lbc->lac", c, u))) <= 1e-14


def test_nodewise_overflow_is_inf_without_a_warning():
    a = np.full((4, 2, 2), 1e200 + 0j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cauchy._nodewise(a, a)
    assert np.all(np.isinf(got.real))


@pytest.mark.parametrize("orientation", [rc.CCW, rc.CW])
def test_circle_values_inverts_circle_coefficients(orientation):
    circle = rc.Circle(0.3 + 0.1j, 1.7, orientation, 64)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((64, 2, 2)) + 1j * rng.standard_normal((64, 2, 2))
    coeffs = cauchy.circle_coefficients(circle, x)
    assert np.max(np.abs(cauchy.circle_values(circle, coeffs) - x)) <= 1e-14
    # and the values are the Fourier sum at the node angles
    at_nodes = cauchy.synthesize(circle, coeffs, circle.angles())
    assert np.max(np.abs(at_nodes - x)) <= 1e-13


@pytest.mark.parametrize("m", [64, 512])
@pytest.mark.parametrize("orientation", [rc.CCW, rc.CW])
@pytest.mark.parametrize("plus_inside", [True, False])
def test_self_block_matches_dense_fourier_product(m, orientation, plus_inside):
    circle = rc.Circle(0.3 + 0.1j, 1.7, orientation, m)
    # reference: synthesis of the kept modes times their analysis
    theta = circle.angles()
    mask = cauchy.plus_mode_mask(circle, plus_inside)
    k = cauchy.fourier_modes(m)[mask]
    dense = np.exp(1j * np.outer(theta, k)) @ (np.exp(-1j * np.outer(k, theta)) / m)
    # built directly, since build_contour ties the plus side to the
    # orientation; on one circle the projector is the self block
    system = rc.ContourSystem((circle,), (plus_inside,), not plus_inside)
    block = cauchy.build_projectors(system).plus_matrix
    assert np.max(np.abs(block - dense)) <= 1e-13


@pytest.mark.parametrize("m", [16, 64, 512])
@pytest.mark.parametrize("orientation", [rc.CCW, rc.CW])
@pytest.mark.parametrize("plus_inside", [True, False])
def test_midpoint_boundary_values_match_the_dense_synthesis(
    m, orientation, plus_inside, monkeypatch
):
    # random samples carry every mode, the Nyquist mode included; a second
    # circle adds the cross-circle quadrature to both halves
    circles = (
        rc.Circle(0.3 + 0.1j, 1.7, orientation, m),
        rc.Circle(4.0 + 0j, 0.5, rc.CCW, 16),
    )
    system = rc.ContourSystem(circles, (plus_inside, True), not plus_inside)
    rng = np.random.default_rng(m)
    shape = (system.total_nodes, 2, 2)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    fft = cauchy.boundary_values_at_midpoints(system, values, 0)
    # the dense basis at the midpoint angles sign*pi*(2l + 1)/m, with
    # k*(2l + 1) reduced modulo 2m in integers: at 512 nodes the rounding
    # of k*angle itself (up to 1600 rad) would swamp the comparison
    circle = circles[0]
    turns = np.outer(2 * np.arange(m) + 1, cauchy.fourier_modes(m)) % (2 * m)
    basis = np.exp(1j * circle.sign * np.pi * turns / m)
    monkeypatch.setattr(
        cauchy, "synthesize", lambda c, coeffs, angles: np.tensordot(basis, coeffs, axes=(1, 0))
    )
    mids = circle.angles() + circle.sign * np.pi / m
    dense = cauchy.boundary_values_on_circle(system, values, 0, mids)
    scale = max(np.max(np.abs(d)) for d in dense)
    for got, want in zip(fft, dense):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * scale
