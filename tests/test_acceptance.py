"""Acceptance gate: one test per shipped guarantee, tolerances pinned.

Each test times itself against its own runtime budget, so a plain
``pytest -v tests/test_acceptance.py`` prints one pass/fail line per
guarantee.
"""

import time

import numpy as np

import rhcircles as rc


def unit_system(node_count=64, orientation=rc.CCW):
    circle = rc.Circle(0j, 1.0, orientation, node_count)
    return rc.build_contour([circle])


def scalar_jump(system, fn, **kwargs):
    return rc.JumpData.from_evaluator(system, fn, **kwargs)


def test_criterion_1_cauchy_projection_identities():
    t0 = time.perf_counter()
    system = unit_system(64)
    proj = rc.build_projectors(system)
    n = system.total_nodes
    ident = proj.plus_matrix - proj.minus_matrix - np.eye(n)
    assert np.max(np.abs(ident)) <= 1e-12

    pts = system.circles[0].points()
    worst = 0.0
    for k in range(1, 16):
        keep = rc.apply_plus(proj, rc.GridFunction(system, pts[:, None, None] ** k))
        kill = rc.apply_plus(
            proj, rc.GridFunction(system, pts[:, None, None] ** (-k))
        )
        worst = max(worst, float(np.max(np.abs(keep.values[:, 0, 0] - pts**k))))
        worst = max(worst, float(np.max(np.abs(kill.values))))
    assert worst <= 1e-12

    weights = system.circles[0].weights()
    residue = np.sum(weights / (pts - (0.3 + 0.2j)))
    assert abs(residue - 2j * np.pi) <= 1e-12
    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_rational_rhp_oracle():
    t0 = time.perf_counter()
    circle = rc.Circle(0j, 6.0, rc.CCW, 128)
    system = rc.build_contour([circle])
    jump = scalar_jump(system, lambda z: (z - 0.4) / (z - 2.5))

    def exact(z):
        return 1.0 if abs(z) < 6.0 else (z - 2.5) / (z - 0.4)

    probes = rc.off_contour_points(system, 100)
    solutions = {}
    for side in ("plus", "minus"):
        sol = rc.solve(rc.RHProblem.from_jump(jump, side=side))
        values = np.array([sol.evaluate(z)[0, 0] for z in probes])
        dev = np.max(np.abs(values - np.array([exact(z) for z in probes])))
        assert dev <= 1e-10, f"{side} splitting vs closed form: {dev}"
        solutions[side] = values
    split_dev = np.max(np.abs(solutions["plus"] - solutions["minus"]))
    assert split_dev <= 1e-8
    assert time.perf_counter() - t0 < 2.0


def test_criterion_3_index_theorem_reproduction():
    t0 = time.perf_counter()
    system = unit_system(64)
    for kappa in (-2, -1, 0, 1, 2):
        jump = scalar_jump(system, lambda z, k=kappa: z**k)
        rep = rc.index_diagnostics(rc.RHProblem.from_jump(jump), tau_rank=1e-7)
        assert rep.dim_ker == max(kappa, 0), f"kappa={kappa}"
        assert rep.dim_coker == max(-kappa, 0), f"kappa={kappa}"
        for below, above in (rep.ker_gap, rep.coker_gap):
            assert above >= 100.0 * below, f"kappa={kappa}: gap ({below}, {above})"
    assert time.perf_counter() - t0 < 5.0


def test_criterion_4_defocusing_zero_partial_indices():
    t0 = time.perf_counter()
    for n in (-2, 0, 3):
        spec = rc.IdnlsSpec(r=lambda z: 0.3 * z, n=n, sign="defocusing")
        jump = rc.build_defocusing_jump(spec, node_count=128)
        rep = rc.check_inversion_hypotheses(jump)
        assert rep.min_re_eig_on_circle >= 0.9 * (1.0 - 0.09), f"n={n}"
        problem = rc.RHProblem.from_jump(jump)
        idx = rc.index_diagnostics(problem, tau_rank=1e-7)
        assert (idx.dim_ker, idx.dim_coker) == (0, 0), f"n={n}"
        sol = rc.solve(problem)
        assert sol.residual_jump <= 1e-8, f"n={n}"
        assert sol.smallest_singular_value >= 1e-6, f"n={n}"
    assert time.perf_counter() - t0 < 10.0


def test_criterion_5_hermitian_factorization():
    t0 = time.perf_counter()
    system = unit_system(64)
    jump = scalar_jump(system, lambda z: 2.5 + z + 1.0 / z)
    fact = rc.hermitian_factorize(jump)
    assert fact.product_residual <= 1e-9
    pts = system.circles[0].points()
    ratio = fact.w_plus.values[:, 0, 0] / (np.sqrt(2.0) * (1.0 + 0.5 * pts))
    assert np.max(np.abs(np.abs(ratio) - 1.0)) <= 1e-8
    assert np.max(np.abs(ratio - ratio.mean())) <= 1e-8

    spec = rc.IdnlsSpec(r=lambda z: 0.4 * z, n=0, sign="focusing")
    matrix_jump = rc.build_focusing_jump(spec, node_count=64)
    matrix_fact = rc.hermitian_factorize(matrix_jump)
    assert matrix_fact.constancy_stddev <= 1e-8
    assert matrix_fact.product_residual <= 1e-8
    assert time.perf_counter() - t0 < 5.0


def test_criterion_6_mirrored_mobius_closed_form():
    t0 = time.perf_counter()
    exponents = (2, -1)
    z_plus, z_minus = 0.3 + 0.1j, 2.0 - 0.5j
    rng = np.random.default_rng(20260814)
    points = np.exp(2j * np.pi * rng.random(200))
    worst = 0.0
    for z in points:
        got = rc.mobius_power_matrix_mirrored(z, exponents, z_plus, z_minus)
        base = (1.0 - np.conj(z_plus) * z) / (1.0 - np.conj(z_minus) * z)
        want = np.diag([base**k for k in exponents])
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst <= 1e-12
    assert time.perf_counter() - t0 < 1.0


def test_criterion_7_idnls_pipeline():
    t0 = time.perf_counter()

    # one soliton, zero reflection: both pipelines against the closed form
    spec1 = rc.IdnlsSpec(r=None, n=0, poles=((2.0 + 0j, 1.0 + 0j),))
    oracle = rc.soliton_oracle(spec1)
    ap1 = rc.remove_poles(spec1)
    conj1 = rc.conjugate(ap1)
    plain_sol = rc.solve_augmented(ap1)
    conj_sol = rc.solve_augmented(conj1)

    probes = rc.off_contour_points(conj1.system, 50, rel_margin=0.45)
    for label, sol in (("plain", plain_sol), ("conjugated", conj_sol)):
        dev = max(
            float(np.max(np.abs(sol.evaluate(z) - oracle(z)))) for z in probes
        )
        assert dev <= 1e-7, f"{label} pipeline vs oracle: {dev}"
    for label, sol in (("plain", plain_sol), ("conjugated", conj_sol)):
        worst = rc.residue_condition_residuals(sol.evaluate, ap1)
        assert worst <= 1e-8, f"{label} residue conditions: {worst}"
    rep = rc.check_inversion_hypotheses(conj1.jump)
    assert rep.max_symmetry_deviation <= 1e-12
    assert rep.min_re_eig_on_circle > 0.0

    # two poles and nonzero reflection
    spec2 = rc.IdnlsSpec(
        r=lambda z: 0.2 * z,
        n=0,
        poles=((2.0 + 0j, 1.0 + 0j), (3.0 + 1.0j, 1.0 + 0j)),
    )
    ap2 = rc.remove_poles(spec2, pole_nodes=128, unit_nodes=128)
    conj2 = rc.conjugate(ap2, node_count=128)
    for label, ap in (("plain", ap2), ("conjugated", conj2)):
        sol = rc.solve_augmented(ap)
        assert sol.residual_jump <= 1e-7, f"{label}: {sol.residual_jump}"
        idx = rc.index_diagnostics(rc.RHProblem.from_jump(ap.jump), tau_rank=1e-7)
        assert (idx.dim_ker, idx.dim_coker) == (0, 0), label
    assert time.perf_counter() - t0 < 60.0


def test_criterion_8_spectral_convergence():
    t0 = time.perf_counter()

    def rational_residual(nodes):
        circle = rc.Circle(0j, 6.0, rc.CCW, nodes)
        system = rc.build_contour([circle])
        jump = scalar_jump(system, lambda z: (z - 0.4) / (z - 2.5))
        return rc.solve(rc.RHProblem.from_jump(jump)).residual_jump

    def defocusing_residual(nodes):
        spec = rc.IdnlsSpec(r=lambda z: 0.3 * z, n=0, sign="defocusing")
        jump = rc.build_defocusing_jump(spec, node_count=nodes)
        return rc.solve(rc.RHProblem.from_jump(jump)).residual_jump

    for label, runner in (
        ("rational", rational_residual),
        ("defocusing", defocusing_residual),
    ):
        residuals = [runner(nodes) for nodes in (32, 64, 128)]
        for coarse, fine in zip(residuals, residuals[1:]):
            assert fine <= max(coarse / 10.0, 1e-11), f"{label}: {residuals}"
        assert residuals[-1] <= 1e-11, f"{label}: {residuals}"
    assert time.perf_counter() - t0 < 10.0
