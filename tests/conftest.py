import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import rhcircles as rc

# Operator assembly is dense, so keep example counts modest; deadlines are
# disabled because the first example pays the numpy warm-up cost.
settings.register_profile(
    "ci",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def unit_ccw_64():
    return rc.build_contour([rc.Circle(0j, 1.0, rc.CCW, 64)])


@pytest.fixture(scope="session")
def proj_unit(unit_ccw_64):
    return rc.build_projectors(unit_ccw_64)


@pytest.fixture(scope="session")
def rational_radius6():
    """Scalar jump with a known closed-form solution: m = 1 inside the
    radius-6 circle and (z - 2.5)/(z - 0.4) outside."""
    system = rc.build_contour([rc.Circle(0j, 6.0, rc.CCW, 64)])
    jump = rc.JumpData.from_evaluator(system, lambda z: (z - 0.4) / (z - 2.5))
    return system, jump


def rational_exact(z: complex) -> complex:
    return 1.0 if abs(z) < 6.0 else (z - 2.5) / (z - 0.4)


def two_einsum_operator(p):
    """T of p in operator rows (node-major, n components per node), from
    the dense node-space projectors: the reference the Fourier-basis
    operator is checked against."""
    proj = rc.build_projectors(p.system)
    k = np.einsum("LM,Mcb->LbMc", proj.plus_matrix, p.data.w_minus.values)
    k += np.einsum("LM,Mcb->LbMc", proj.minus_matrix, p.data.w_plus.values)
    order = p.system.total_nodes * p.data.dim
    return np.eye(order) - k.reshape(order, order)
