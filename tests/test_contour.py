import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import rhcircles as rc


def test_circle_rejects_bad_parameters():
    with pytest.raises(ValueError):
        rc.Circle(0j, -1.0)
    with pytest.raises(ValueError):
        rc.Circle(0j, 0.0)
    with pytest.raises(ValueError):
        rc.Circle(0j, 1.0, rc.CCW, 5)
    with pytest.raises(ValueError):
        rc.Circle(0j, 1.0, rc.CCW, 2)
    with pytest.raises(ValueError):
        rc.Circle(0j, 1.0, "widdershins")


def test_circle_rejects_a_non_finite_center_and_a_non_integer_node_count():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for center in (complex(np.nan, 0.0), complex(0.0, np.inf)):
            with pytest.raises(ValueError, match="center must be finite"):
                rc.Circle(center, 1.0)
        for count in (16.0, np.float64(16.0), "16"):
            with pytest.raises(ValueError, match="node_count must be an integer"):
                rc.Circle(0j, 1.0, rc.CCW, count)
    circle = rc.Circle(0j, 1.0, rc.CCW, np.int64(16))
    assert circle.node_count == 16 and type(circle.node_count) is int
    assert circle == rc.Circle(0j, 1.0, rc.CCW, 16)


def test_nodes_are_equispaced_in_traversal_order():
    c = rc.Circle(0j, 1.0, rc.CCW, 4)
    assert np.allclose(c.points(), [1, 1j, -1, -1j])
    cw = rc.Circle(0j, 1.0, rc.CW, 4)
    assert np.allclose(cw.points(), [1, -1j, -1, 1j])


def test_weights_integrate_closed_loop_to_zero():
    c = rc.Circle(1.5 + 0.5j, 2.0, rc.CW, 32)
    assert abs(np.sum(c.weights())) < 1e-14


def test_residue_of_enclosed_pole():
    c = rc.Circle(0j, 1.0, rc.CCW, 64)
    z = c.points()
    inside = np.sum(c.weights() / (z - (0.3 + 0.2j)))
    outside = np.sum(c.weights() / (z - 2.0))
    assert abs(inside - 2j * np.pi) < 1e-12
    assert abs(outside) < 1e-12
    # clockwise orientation flips the sign
    cw = rc.Circle(0j, 1.0, rc.CW, 64)
    inside_cw = np.sum(cw.weights() / (cw.points() - (0.3 + 0.2j)))
    assert abs(inside_cw + 2j * np.pi) < 1e-12


@given(st.integers(min_value=-15, max_value=15))
def test_quadrature_exact_on_resolved_monomials(k):
    # trapezoid rule on a circle integrates z^k exactly for |k| < m/2
    c = rc.Circle(0.5 + 0j, 2.0, rc.CCW, 32)
    got = np.sum(c.weights() * (c.points() - c.center) ** k)
    want = 2j * np.pi if k == -1 else 0.0
    assert abs(got - want) < 1e-13 * max(c.radius ** (k + 1), 1.0)


def test_single_circle_side_conventions():
    ccw = rc.build_contour([rc.Circle(0j, 1.0, rc.CCW, 8)])
    assert ccw.plus_inside == (True,)
    assert not ccw.plus_at_infinity
    assert ccw.in_omega_plus(0.0)
    assert not ccw.in_omega_plus(2.0)

    cw = rc.build_contour([rc.Circle(0j, 1.0, rc.CW, 8)])
    assert cw.plus_inside == (False,)
    assert cw.plus_at_infinity
    assert cw.in_omega_plus(2.0)


def test_annulus_needs_opposed_orientations():
    outer = rc.Circle(0j, 2.0, rc.CCW, 8)
    inner_cw = rc.Circle(0j, 1.0, rc.CW, 8)
    system = rc.build_contour([outer, inner_cw])
    assert system.in_omega_plus(1.5)
    assert not system.in_omega_plus(0.5)
    with pytest.raises(rc.OrientationError):
        rc.build_contour([outer, rc.Circle(0j, 1.0, rc.CCW, 8)])


def test_overlapping_or_touching_circles_rejected():
    a = rc.Circle(0j, 1.0, rc.CCW, 8)
    with pytest.raises(rc.OverlapError):
        rc.build_contour([a, rc.Circle(1.5 + 0j, 1.0, rc.CCW, 8)])
    with pytest.raises(rc.OverlapError):
        rc.build_contour([a, rc.Circle(2.0 + 0j, 1.0, rc.CCW, 8)])


def test_invert_circle_known_values():
    img = rc.invert_circle(rc.Circle(3.0 + 0j, 0.5, rc.CCW, 16))
    assert abs(img.center - 3.0 / 8.75) < 1e-13
    assert abs(img.radius - 0.5 / 8.75) < 1e-13
    unit = rc.invert_circle(rc.Circle(0j, 1.0, rc.CCW, 16))
    assert abs(unit.center) < 1e-15 and abs(unit.radius - 1.0) < 1e-15


def test_invert_circle_through_origin_fails():
    with pytest.raises(rc.SingularInversionError):
        rc.invert_circle(rc.Circle(1.0 + 0j, 1.0, rc.CCW, 8))


def test_invert_circle_whose_image_leaves_the_double_range_fails():
    # |a|^2 overflows past |a| of about 1.3e154, and a tiny radius over a
    # large |a|^2 underflows: both are typed input errors, with no warning
    far = rc.Circle(1e160 + 0j, 1.0, rc.CW, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c in (far, rc.Circle(1e100 + 0j, 1e-300, rc.CW, 8)):
            with pytest.raises(rc.SingularInversionError, match="double range") as info:
                rc.invert_circle(c)
            assert repr(c) in str(info.value)
        # a far circle whose image is in range gets the plain double formula
        c = rc.Circle(1e150 + 1e149j, 2.0, rc.CW, 8)
        d = abs(c.center) ** 2 - c.radius**2
        img = rc.invert_circle(c)
    assert (img.center, img.radius) == (c.center / d, c.radius / d)


@given(
    st.complex_numbers(
        min_magnitude=0.0, max_magnitude=5.0, allow_nan=False, allow_infinity=False
    ),
    st.floats(min_value=0.05, max_value=2.0),
)
def test_invert_circle_is_an_involution(center, radius):
    # near |center| = radius the map is ill-conditioned, not just singular
    if abs(abs(center) - radius) < 0.05:
        return
    c = rc.Circle(center, radius, rc.CW, 16)
    back = rc.invert_circle(rc.invert_circle(c))
    scale = max(abs(c.center), c.radius)
    assert abs(back.center - c.center) <= 1e-13 * scale
    assert abs(back.radius - c.radius) <= 1e-13 * scale
    assert back.orientation == c.orientation


def test_inversion_swaps_sides_of_unit_circle():
    c = rc.Circle(3.0 + 1.0j, 0.4, rc.CCW, 16)
    img = rc.invert_circle(c)
    assert abs(img.center) + img.radius < 1.0  # image strictly inside S^1


def test_off_contour_points_respect_margins():
    system = rc.build_contour(
        [rc.Circle(0j, 1.0, rc.CCW, 32), rc.Circle(3.0 + 0j, 0.5, rc.CCW, 32)]
    )
    pts = rc.off_contour_points(system, 40, rel_margin=0.4, r_min=0.1, r_max=8.0)
    assert len(pts) == 40
    for z in pts:
        for c in system.circles:
            assert c.distance(z) >= 0.4 * c.radius
    again = rc.off_contour_points(system, 40, rel_margin=0.4, r_min=0.1, r_max=8.0)
    assert np.array_equal(pts, again)


def test_off_contour_points_take_a_count_of_zero_and_refuse_a_negative_one():
    system = rc.build_contour([rc.Circle(0j, 1.0, rc.CCW, 8)])
    none = rc.off_contour_points(system, 0)
    assert none.shape == (0,) and none.dtype == np.complex128
    with pytest.raises(ValueError, match="-3"):
        rc.off_contour_points(system, -3)


def test_off_contour_points_fail_when_no_room():
    system = rc.build_contour([rc.Circle(0j, 1.0, rc.CCW, 8)])
    with pytest.raises(ValueError):
        rc.off_contour_points(system, 50, rel_margin=0.99, r_min=0.9, r_max=1.1)


def test_geometry_arrays_are_computed_once_and_read_only():
    system = rc.build_contour(
        [rc.Circle(0j, 1.0, rc.CCW, 8), rc.Circle(3.0 + 0j, 0.5, rc.CCW, 8)]
    )
    c = system.circles[0]
    assert c.points() is c.points()
    assert system.all_points() is system.all_points()
    for arr in (c.angles(), c.points(), c.weights(), system.all_points()):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert system.node_slices() == (slice(0, 8), slice(8, 16))


def test_in_omega_plus_accepts_point_arrays():
    system = rc.build_contour(
        [rc.Circle(0j, 1.0, rc.CCW, 8), rc.Circle(3.0 + 0j, 0.5, rc.CCW, 8)]
    )
    z = np.array([0.2j, 3.1, 1.5, 10.0, -0.5])
    assert system.in_omega_plus(z).tolist() == [
        bool(system.in_omega_plus(w)) for w in z
    ]
    assert system.winding(z).tolist() == [1, 1, 0, 0, 1]
