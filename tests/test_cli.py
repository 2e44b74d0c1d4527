import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import rhcircles as rc
from rhcircles import cli, rhp
from rhcircles.cauchy import EVAL_BLOCK

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

ROUND_TRIP = [
    ("identity_solve.json", "solve", 0),
    ("rational_solve.json", "solve", 0),
    ("rational_near_singular.json", "solve", 3),
    ("index_power.json", "index", 0),
    ("scalar_winding.json", "factorize-scalar", 0),
    ("hermitian_scalar.json", "factorize-hermitian", 0),
    ("symmetric_check.json", "check-symmetry", 0),
    ("idnls_soliton.json", "idnls", 0),
    ("idnls_defocusing.json", "idnls", 0),
]


def run(mode, problem, tmp_path, *extra):
    out = tmp_path / "report.json"
    code = cli.main([mode, "--problem", str(problem), "--out", str(out), *extra])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def write_problem(tmp_path, doc):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("name,mode,expected", ROUND_TRIP)
def test_shipped_problems_round_trip(name, mode, expected, tmp_path):
    code, report = run(mode, PROBLEMS / name, tmp_path)
    assert code == expected
    if expected == 0:
        assert report["mode"] == mode
        assert report["per_circle_nodes"]
        assert report["timing_seconds"] >= 0.0
        for key, value in report.items():
            if isinstance(value, float):
                assert value == value and abs(value) != float("inf"), key


@pytest.mark.parametrize(
    "problem", sorted(PROBLEMS.glob("*.json")), ids=lambda path: path.name
)
def test_shipped_problems_match_the_schema(problem):
    jsonschema = pytest.importorskip("jsonschema")
    schema_path = PROBLEMS.parent / "docs" / "problem-schema.json"
    schema = json.loads(schema_path.read_text())
    jsonschema.Draft7Validator.check_schema(schema)
    jsonschema.Draft7Validator(schema).validate(json.loads(problem.read_text()))


def test_identity_report_values(tmp_path):
    code, report = run("solve", PROBLEMS / "identity_solve.json", tmp_path)
    assert code == 0
    assert report["residual_jump"] == 0.0
    assert report["smallest_singular_value"] > 0.5


def test_index_report_values(tmp_path):
    code, report = run("index", PROBLEMS / "index_power.json", tmp_path)
    assert code == 0
    assert (report["dim_ker"], report["dim_coker"]) == (1, 0)
    below, above = report["ker_gap"]
    assert below < 1e-7 < above
    assert above > 100.0 * below


def test_scalar_report_values(tmp_path):
    code, report = run(
        "factorize-scalar", PROBLEMS / "scalar_winding.json", tmp_path
    )
    assert code == 0
    assert report["winding_index"] == 2
    assert report["residual_jump"] < 1e-12


def test_scalar_default_anchors_with_infinity_on_the_plus_side(tmp_path):
    # clockwise: the plus side is outside, so the default anchors are
    # z_plus = 2 outside and z_minus = 0 at the center
    def edit(d):
        d["contour"][0]["orientation"] = "cw"
        del d["anchors"]

    doc = _edited("scalar_winding.json", edit)
    code, report = run("factorize-scalar", write_problem(tmp_path, doc), tmp_path)
    assert code == 0
    assert report["winding_index"] == -2
    assert report["residual_jump"] < 1e-12


def test_soliton_report_values(tmp_path):
    code, report = run("idnls", PROBLEMS / "idnls_soliton.json", tmp_path)
    assert code == 0
    assert (report["dim_ker"], report["dim_coker"]) == (0, 0)
    assert report["min_re_eig"] > 0.0
    assert report["symmetric_off_circle"] is True
    assert report["residual_jump"] <= 1e-8
    assert report["residue_condition_residual"] <= 1e-8


def test_reports_are_deterministic(tmp_path):
    _, first = run("solve", PROBLEMS / "rational_solve.json", tmp_path)
    _, second = run("solve", PROBLEMS / "rational_solve.json", tmp_path)
    first.pop("timing_seconds")
    second.pop("timing_seconds")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_alias_path_reports_are_deterministic(tmp_path):
    runs = []
    for attempt in ("first", "second"):
        samples = tmp_path / f"{attempt}.csv"
        code, report = run(
            "idnls",
            PROBLEMS / "idnls_soliton.json",
            tmp_path,
            "--samples",
            str(samples),
            "--grid",
            "12x12",
        )
        assert code == 0
        # the alias kernel is gone with the modes left out
        assert report["solver_path"] == "lu"
        report.pop("timing_seconds")
        runs.append((json.dumps(report, sort_keys=True), samples.read_bytes()))
    assert runs[0] == runs[1]


def test_samples_csv(tmp_path):
    out = tmp_path / "report.json"
    samples = tmp_path / "samples.csv"
    code = cli.main(
        [
            "solve",
            "--problem",
            str(PROBLEMS / "rational_solve.json"),
            "--out",
            str(out),
            "--samples",
            str(samples),
            "--grid",
            "6x5",
            "--bbox=-8,8,-8,8",
        ]
    )
    assert code == 0
    with samples.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["region", "re_z", "im_z", "row", "col", "re_m", "im_m"]
    assert len(rows) > 10
    for region, re_z, im_z, row, col, re_m, im_m in rows[1:]:
        assert region in ("plus", "minus")
        assert (int(row), int(col)) == (0, 0)
        complex(float(re_m), float(im_m))
        assert abs(complex(float(re_z), float(im_z))) <= 8 * 2**0.5 + 1e-9


def test_samples_rejected_for_sampleless_mode(tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(
        [
            "index",
            "--problem",
            str(PROBLEMS / "index_power.json"),
            "--out",
            str(out),
            "--samples",
            str(tmp_path / "samples.csv"),
        ]
    )
    assert code == 1


def test_nodes_override(tmp_path):
    code, report = run(
        "solve", PROBLEMS / "identity_solve.json", tmp_path, "--nodes", "32"
    )
    assert code == 0
    assert report["per_circle_nodes"] == [32]


def test_tolerance_override(tmp_path, capsys):
    code, _ = run(
        "solve",
        PROBLEMS / "rational_solve.json",
        tmp_path,
        "--tol",
        "sigma_min=1e-6",
    )
    assert code == 0
    code, _ = run(
        "solve", PROBLEMS / "rational_solve.json", tmp_path, "--tol", "bogus=1"
    )
    assert code == 1
    code, _ = run(
        "solve",
        PROBLEMS / "rational_solve.json",
        tmp_path,
        "--tol",
        "sigma_min=tiny",
    )
    assert code == 1
    for name, mode, override in (
        # singular: a NaN sigma_min used to reach alias-deflation, exit 0
        ("rational_near_singular.json", "solve", "sigma_min=nan"),
        # solvable: the same NaN used to exit 3
        ("rational_solve.json", "solve", "sigma_min=nan"),
        ("rational_solve.json", "solve", "sigma_min=inf"),
        ("rational_solve.json", "solve", "sigma_min=0"),
        # a negative tau_rank used to report index (0, 0) instead of (1, 0)
        ("index_power.json", "index", "tau_rank=-1"),
    ):
        capsys.readouterr()
        code, _ = run(mode, PROBLEMS / name, tmp_path, "--tol", override)
        assert code == 1, override
        key = override.partition("=")[0]
        assert f"invalid input: tolerance {key} " in capsys.readouterr().err
    # the same rule holds for tolerances in the problem file
    for name, mode, key, value in (
        ("index_power.json", "index", "tau_rank", -1.0),
        ("rational_solve.json", "solve", "sigma_min", 0),
    ):
        doc = _edited(name, lambda d: d.update(tolerances={key: value}))
        code, _ = run(mode, write_problem(tmp_path, doc), tmp_path)
        assert code == 1, key
        assert f"invalid input: tolerance {key} " in capsys.readouterr().err


def test_mode_mismatch_is_input_error(tmp_path):
    code, _ = run("solve", PROBLEMS / "index_power.json", tmp_path)
    assert code == 1


def test_unreadable_problems_are_input_errors(tmp_path):
    code, _ = run("solve", tmp_path / "missing.json", tmp_path)
    assert code == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run("solve", bad, tmp_path)
    assert code == 1
    wrong_version = write_problem(tmp_path, {"version": 2, "mode": "solve"})
    code, _ = run("solve", wrong_version, tmp_path)
    assert code == 1


def test_bad_grid_is_input_error(tmp_path):
    code, _ = run(
        "solve", PROBLEMS / "identity_solve.json", tmp_path, "--grid", "wide"
    )
    assert code == 1


@pytest.mark.parametrize("bbox", ["nan,1,0,1", "-inf,1,0,1", "0,inf,0,1"])
def test_nonfinite_bbox_is_input_error(bbox, tmp_path, capsys):
    samples = tmp_path / "m.csv"
    code, _ = run(
        "solve",
        PROBLEMS / "identity_solve.json",
        tmp_path,
        "--samples",
        str(samples),
        f"--bbox={bbox}",
    )
    assert code == 1
    assert not samples.exists()
    assert "--bbox values must be finite" in capsys.readouterr().err


def test_unknown_mode_exits_one():
    with pytest.raises(SystemExit) as info:
        cli.main(["transmogrify", "--problem", "x", "--out", "y"])
    assert info.value.code == 1


def test_indefinite_symbol_fails_check(tmp_path, capsys):
    problem = write_problem(
        tmp_path,
        {
            "version": 1,
            "mode": "check-symmetry",
            "contour": [
                {"center": [0.0, 0.0], "radius": 1.0, "orientation": "cw", "nodes": 32}
            ],
            "jump": [["z"]],
        },
    )
    code, report = run("check-symmetry", problem, tmp_path)
    # check-symmetry's own failed check: the report is written, and
    # nothing goes to stderr
    assert code == 2
    assert report["min_re_eig"] <= 0.0
    assert capsys.readouterr().err == ""


def test_asymmetric_jump_fails_check(tmp_path):
    # unit circle plus a mirror pair; the constants 2 and 3 break the
    # v(z) = v(1/conj(z))^* relation between the paired circles
    problem = write_problem(
        tmp_path,
        {
            "version": 1,
            "mode": "check-symmetry",
            "contour": [
                {"center": [0.0, 0.0], "radius": 1.0, "orientation": "cw", "nodes": 32},
                {"center": [2.0, 0.0], "radius": 0.5, "orientation": "cw", "nodes": 32},
                {
                    "center": [0.5333333333333333, 0.0],
                    "radius": 0.13333333333333333,
                    "orientation": "ccw",
                    "nodes": 32,
                },
            ],
            "jump": [[["4"]], [["2"]], [["3"]]],
        },
    )
    code, report = run("check-symmetry", problem, tmp_path)
    assert code == 2
    assert report["symmetric_off_circle"] is False
    assert report["symmetry_deviation"] > 0.5
    assert report["min_re_eig"] > 0.0


def test_noninvariant_contour_fails_check(tmp_path, capsys):
    problem = write_problem(
        tmp_path,
        {
            "version": 1,
            "mode": "check-symmetry",
            "contour": [
                {"center": [5.0, 0.0], "radius": 1.0, "orientation": "ccw", "nodes": 32}
            ],
            "jump": [["2"]],
        },
    )
    code, report = run("check-symmetry", problem, tmp_path)
    # a contour that is not inversion invariant: one stderr line, and no
    # report is written
    assert code == 2
    assert report is None
    err = capsys.readouterr().err
    assert err.startswith("rhc: hypothesis check failed: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_indefinite_symbol_fails_hermitian_factorization(tmp_path):
    problem = write_problem(
        tmp_path,
        {
            "version": 1,
            "mode": "factorize-hermitian",
            "contour": [
                {"center": [0.0, 0.0], "radius": 1.0, "orientation": "ccw", "nodes": 64}
            ],
            "jump": [["0.5 + z + 1/z"]],
        },
    )
    code, _ = run("factorize-hermitian", problem, tmp_path)
    assert code == 2


def test_matrix_jump_rejected_for_scalar_factorization(tmp_path):
    problem = write_problem(
        tmp_path,
        {
            "version": 1,
            "mode": "factorize-scalar",
            "contour": [
                {"center": [0.0, 0.0], "radius": 1.0, "orientation": "ccw", "nodes": 32}
            ],
            "jump": [["1", "0"], ["0", "1"]],
        },
    )
    code, _ = run("factorize-scalar", problem, tmp_path)
    assert code == 1


def test_singular_expression_at_node_is_input_error(tmp_path):
    # the 32-node unit circle places a node exactly at z = 1
    problem = write_problem(
        tmp_path,
        {
            "version": 1,
            "mode": "solve",
            "contour": [
                {"center": [0.0, 0.0], "radius": 1.0, "orientation": "ccw", "nodes": 32}
            ],
            "jump": [["1/(z - 1)"]],
        },
    )
    code, _ = run("solve", problem, tmp_path)
    assert code == 1


def test_per_circle_jump_matrices(tmp_path):
    problem = write_problem(
        tmp_path,
        {
            "version": 1,
            "mode": "solve",
            "contour": [
                {"center": [0.0, 0.0], "radius": 1.0, "orientation": "ccw", "nodes": 64},
                {"center": [4.0, 0.0], "radius": 1.0, "orientation": "ccw", "nodes": 64},
            ],
            "jump": [[["1"]], [["1 + 0.3/(z - 4)"]]],
        },
    )
    code, report = run("solve", problem, tmp_path)
    assert code == 0
    assert report["per_circle_nodes"] == [64, 64]
    assert report["residual_jump"] < 1e-12
    mismatched = write_problem(
        tmp_path, json.loads(problem.read_text()) | {"jump": [[["1"]]]}
    )
    code, _ = run("solve", mismatched, tmp_path)
    assert code == 1


def test_reports_name_the_solver_path(tmp_path):
    _, soliton = run("idnls", PROBLEMS / "idnls_soliton.json", tmp_path)
    # the modes left out at the Nyquist seam leave no alias kernel, so
    # the plain LU solves it and Lanczos gives its sigma_min
    assert soliton["solver_path"] == "lu"
    assert soliton["smallest_singular_value"] >= 1e-8
    assert soliton["sigma_source"] == "lanczos"
    assert "deflated_singular_value" not in soliton
    for name, mode in (
        ("rational_solve.json", "solve"),
        ("hermitian_scalar.json", "factorize-hermitian"),
        ("idnls_defocusing.json", "idnls"),
    ):
        _, report = run(mode, PROBLEMS / name, tmp_path)
        assert report["solver_path"] == "krylov", name
        assert "deflated_singular_value" not in report, name
        # one circle, a positive symbol: certified without a Lanczos run
        assert report["sigma_source"] == "positivity", name


def _count_calls(monkeypatch, owners, name):
    calls = []
    original = getattr(owners[0], name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for owner in owners:
        monkeypatch.setattr(owner, name, counted)
    return calls


def test_idnls_factors_and_probes_its_operator_once(tmp_path, monkeypatch):
    import scipy.linalg

    svdvals = _count_calls(monkeypatch, [scipy.linalg], "svdvals")
    svd = _count_calls(monkeypatch, [scipy.linalg], "svd")
    lu = _count_calls(monkeypatch, [scipy.linalg], "lu_factor")
    code, _ = run("idnls", PROBLEMS / "idnls_soliton.json", tmp_path)
    assert code == 0
    # the solve certifies the index, so no count runs
    assert len(svdvals) == 0
    assert len(svd) == 0
    # the operator alone, less the modes left out at the Nyquist seam
    assert len(lu) == 1


def test_hermitian_factorization_checks_hypotheses_once(tmp_path, monkeypatch):
    from rhcircles import factorize

    calls = _count_calls(
        monkeypatch, [factorize, cli], "check_inversion_hypotheses"
    )
    code, _ = run(
        "factorize-hermitian", PROBLEMS / "hermitian_scalar.json", tmp_path
    )
    assert code == 0
    assert len(calls) == 1


def _samples_point_by_point(evaluate, system, grid, bbox):
    """The CSV rows of evaluate, one call per point, and the numbers of
    points skipped as too close and as non-finite."""
    lines = ["region,re_z,im_z,row,col,re_m,im_m"]
    too_close = non_finite = 0
    for x in np.linspace(bbox[0], bbox[1], grid[0]):
        for y in np.linspace(bbox[2], bbox[3], grid[1]):
            z = complex(x, y)
            try:
                with np.errstate(divide="ignore", invalid="ignore"):
                    value = evaluate(z)
            except rc.TooCloseToContourError:
                too_close += 1
                continue
            if not np.all(np.isfinite(value)):
                non_finite += 1
                continue
            region = "plus" if system.in_omega_plus(z) else "minus"
            for a in range(len(value)):
                for b in range(len(value)):
                    lines.append(
                        f"{region},{float(x)!r},{float(y)!r},{a},{b},"
                        f"{float(value[a, b].real)!r},"
                        f"{float(value[a, b].imag)!r}"
                    )
    return "\n".join(lines) + "\n", too_close, non_finite


def _assert_same_lines(got: str, expected: str) -> None:
    """got == expected, failing with the first differing line and both
    line counts rather than a diff of two multi-kilobyte texts.  Split
    on "\n" alone, so a missing final newline differs too."""
    got_lines, expected_lines = got.split("\n"), expected.split("\n")
    if got_lines == expected_lines:
        return
    k = next(
        (k for k, (a, b) in enumerate(zip(got_lines, expected_lines)) if a != b),
        min(len(got_lines), len(expected_lines)),
    )
    got_line, expected_line = (
        repr(lines[k]) if k < len(lines) else "no line"
        for lines in (got_lines, expected_lines)
    )
    pytest.fail(
        f"line {k + 1} differs: got {got_line}, expected {expected_line} "
        f"({len(got_lines)} against {len(expected_lines)} lines)",
        pytrace=False,
    )


def _soliton_samples_point_by_point(grid, bbox):
    """_samples_point_by_point for problems/idnls_soliton.json."""
    spec = rc.IdnlsSpec(r=None, n=0, poles=((2.0 + 0j, 1.0 + 0j),))
    ap = rc.conjugate(rc.remove_poles(spec))
    sol = rc.solve_augmented(ap)
    return _samples_point_by_point(sol.evaluate, ap.system, grid, bbox)


def test_samples_match_point_by_point_evaluation(tmp_path):
    # the 7x6 grid puts nodes on the unit and outer circles (skipped by the
    # margin) and one exactly on the pole z = 2 (non-finite, skipped)
    csv_path = tmp_path / "samples.csv"
    code, _ = run(
        "idnls",
        PROBLEMS / "idnls_soliton.json",
        tmp_path,
        "--samples",
        str(csv_path),
        "--grid",
        "7x6",
        "--bbox=-4,2,-1,1.5",
    )
    assert code == 0
    text, too_close, non_finite = _soliton_samples_point_by_point(
        (7, 6), (-4.0, 2.0, -1.0, 1.5)
    )
    assert too_close >= 2 and non_finite == 1
    _assert_same_lines(csv_path.read_text(), text)


def test_samples_match_point_by_point_evaluation_across_blocks(tmp_path):
    # more than two EVAL_BLOCKs of kept points, so the CSV is written in
    # at least three joined blocks, the last one partial
    csv_path = tmp_path / "samples.csv"
    code, _ = run(
        "idnls",
        PROBLEMS / "idnls_soliton.json",
        tmp_path,
        "--samples",
        str(csv_path),
        "--grid",
        "23x15",
        "--bbox=-4,2,-1,1.5",
    )
    assert code == 0
    text, too_close, _ = _soliton_samples_point_by_point(
        (23, 15), (-4.0, 2.0, -1.0, 1.5)
    )
    kept = (text.count("\n") - 1) // 4  # the header, then 4 rows per point
    assert too_close >= 1
    assert kept > 2 * EVAL_BLOCK and kept % EVAL_BLOCK
    _assert_same_lines(csv_path.read_text(), text)


def test_scalar_samples_match_point_by_point_evaluation(tmp_path):
    # problems/rational_solve.json: a 1x1 jump, so every point has one
    # row; the grid keeps more than two EVAL_BLOCKs of points and drops
    # the ones next to the circle, so rows are looked up after filtering
    csv_path = tmp_path / "samples.csv"
    code, _ = run(
        "solve",
        PROBLEMS / "rational_solve.json",
        tmp_path,
        "--samples",
        str(csv_path),
        "--grid",
        "23x15",
        "--bbox=-7,7,-7,7",
    )
    assert code == 0
    jump = rc.parse_expression("(z - 0.4)/(z - 2.5)")
    system = rc.build_contour([rc.Circle(0j, 6.0, rc.CCW, 128)])
    v = rc.JumpData.from_evaluator(system, lambda z: rc.matrix_at(z, [[jump(z)]]))
    sol = rc.solve(rc.RHProblem.from_jump(v))
    text, too_close, _ = _samples_point_by_point(
        sol.evaluate, system, (23, 15), (-7.0, 7.0, -7.0, 7.0)
    )
    kept = text.count("\n") - 1
    assert too_close >= 1
    assert kept > 2 * EVAL_BLOCK and kept % EVAL_BLOCK
    _assert_same_lines(csv_path.read_text(), text)


def test_samples_keep_the_sign_of_a_zero_coordinate(tmp_path):
    csv_path = tmp_path / "samples.csv"
    code, _ = run(
        "idnls",
        PROBLEMS / "idnls_soliton.json",
        tmp_path,
        "--samples",
        str(csv_path),
        "--grid",
        "3x2",
        "--bbox=-3,-0.0,-2,-0.0",
    )
    assert code == 0
    text, too_close, non_finite = _soliton_samples_point_by_point(
        (3, 2), (-3.0, -0.0, -2.0, -0.0)
    )
    assert too_close == non_finite == 0
    assert ",-0.0," in text
    _assert_same_lines(csv_path.read_text(), text)


def test_samples_with_no_kept_point_are_the_header_alone(tmp_path):
    # the one point, z = 1, lies on the unit circle
    csv_path = tmp_path / "samples.csv"
    code, _ = run(
        "idnls",
        PROBLEMS / "idnls_soliton.json",
        tmp_path,
        "--samples",
        str(csv_path),
        "--grid",
        "1x1",
        "--bbox=1,2,0,1",
    )
    assert code == 0
    _assert_same_lines(csv_path.read_text(), "region,re_z,im_z,row,col,re_m,im_m\n")


@pytest.mark.parametrize(
    "umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"]
)
def test_output_files_follow_the_umask(umask, mode, tmp_path):
    csv_path = tmp_path / "samples.csv"
    previous = os.umask(umask)
    try:
        code, _ = run(
            "solve",
            PROBLEMS / "identity_solve.json",
            tmp_path,
            "--samples",
            str(csv_path),
            "--grid",
            "4x4",
        )
    finally:
        os.umask(previous)
    assert code == 0
    for path in (tmp_path / "report.json", csv_path):
        assert path.stat().st_mode & 0o777 == mode, path


def test_failed_write_keeps_the_old_file_and_no_temporary(tmp_path):
    target = tmp_path / "samples.csv"
    target.write_text("old\n")

    def chunks():
        # larger than the file buffer, so some of it reaches the disk
        yield "plus,0.0,0.0,0,0,1.0,0.0\n" * 4096
        raise RuntimeError("sampler failed")

    with pytest.raises(RuntimeError, match="sampler failed"):
        cli._atomic_write(str(target), chunks())
    assert target.read_bytes() == b"old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["samples.csv"]


def test_hermitian_factorization_pairs_circles_within_pair_tol(tmp_path):
    # the inner circle is the outer one's image only to within 1e-7
    problem = write_problem(
        tmp_path,
        {
            "version": 1,
            "mode": "factorize-hermitian",
            "contour": [
                {"center": [0.0, 0.0], "radius": 1.0, "orientation": "cw"},
                {"center": [0.0, 0.0], "radius": 2.0, "orientation": "ccw"},
                {"center": [0.0, 0.0], "radius": 0.5000001, "orientation": "ccw"},
            ],
            "jump": [[["2.5 + z + 1/z"]], [["1"]], [["1"]]],
        },
    )
    code, report = run(
        "factorize-hermitian", problem, tmp_path, "--tol", "pair_tol=1e-6"
    )
    assert code == 0
    assert report["symmetric_off_circle"] is True
    code, _ = run("factorize-hermitian", problem, tmp_path)
    assert code == 2


@pytest.mark.parametrize("nodes", ["0", "5"])
def test_bad_node_override_is_a_usage_error(nodes, tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        run("solve", PROBLEMS / "identity_solve.json", tmp_path, "--nodes", nodes)
    assert info.value.code == 1
    assert "--nodes" in capsys.readouterr().err


def _edited(name, edit):
    doc = json.loads((PROBLEMS / name).read_text())
    edit(doc)
    return doc


BAD_NUMBERS = {
    "radius true": _edited(
        "rational_solve.json", lambda d: d["contour"][0].update(radius=True)
    ),
    "center string": _edited(
        "rational_solve.json", lambda d: d["contour"][0].update(center=["a", 0])
    ),
    "center null": _edited(
        "rational_solve.json", lambda d: d["contour"][0].update(center=[None, 0])
    ),
    "nodes true": _edited(
        "rational_solve.json", lambda d: d["contour"][0].update(nodes=True)
    ),
    "nodes odd": _edited(
        "rational_solve.json", lambda d: d["contour"][0].update(nodes=5)
    ),
    "h entry true": _edited(
        "identity_solve.json",
        lambda d: d.update(h=[[[True, 0], [0, 0]], [[0, 0], [1, 0]]]),
    ),
    "anchor string": _edited(
        "scalar_winding.json", lambda d: d["anchors"].update(z_plus=["0", 0])
    ),
    "tolerance string": _edited(
        "rational_solve.json", lambda d: d.update(tolerances={"sigma_min": "1e-8"})
    ),
    "tolerance NaN": _edited(
        "rational_near_singular.json",
        lambda d: d.update(tolerances={"sigma_min": float("nan")}),
    ),
    "center NaN": _edited(
        "rational_solve.json",
        lambda d: d["contour"][0].update(center=[float("nan"), 0]),
    ),
    "radius Infinity": _edited(
        "rational_solve.json",
        lambda d: d["contour"][0].update(radius=float("inf")),
    ),
    "radius too large for a float": _edited(
        "rational_solve.json", lambda d: d["contour"][0].update(radius=10**400)
    ),
    "idnls.n true": _edited("idnls_soliton.json", lambda d: d["idnls"].update(n=True)),
    "pole string": _edited(
        "idnls_soliton.json", lambda d: d["idnls"].update(poles=[["2", 0, 1, 0]])
    ),
    "pole null": _edited(
        "idnls_soliton.json", lambda d: d["idnls"].update(poles=[[2, 0, None, 0]])
    ),
}


@pytest.mark.parametrize("label", sorted(BAD_NUMBERS))
def test_problem_numbers_are_type_checked(label, tmp_path, capsys):
    doc = BAD_NUMBERS[label]
    code, _ = run(doc["mode"], write_problem(tmp_path, doc), tmp_path)
    assert code == 1
    assert "rhc: invalid input: problem file:" in capsys.readouterr().err


def _two_circles(doc):
    doc["contour"] = [
        {"center": [0.0, 0.0], "radius": 1.0, "orientation": "ccw"},
        {"center": [0.0, 0.0], "radius": 2.0, "orientation": "cw"},
    ]
    doc["jump"] = [[["2"]], [["2", "0"], ["0", "2"]]]


BAD_FIELDS = {
    "version true": _edited("rational_solve.json", lambda d: d.update(version=True)),
    "idnls.poles number": _edited(
        "idnls_soliton.json", lambda d: d["idnls"].update(poles=5)
    ),
    "idnls.conjugate string": _edited(
        "idnls_soliton.json", lambda d: d["idnls"].update(conjugate="no")
    ),
    "idnls.r number": _edited(
        "idnls_defocusing.json", lambda d: d["idnls"].update(r=0.3)
    ),
    "idnls.r number outside mode idnls": _edited(
        "rational_solve.json", lambda d: d.update(idnls={"r": 0.3})
    ),
    "jump matrices of different sizes": _edited("rational_solve.json", _two_circles),
    "h ragged": _edited(
        "identity_solve.json",
        lambda d: d.update(h=[[[1, 0], [0, 0]], [[1, 0]]]),
    ),
    "h of another size than the jump": _edited(
        "identity_solve.json", lambda d: d.update(h=[[[1, 0]]])
    ),
}


@pytest.mark.parametrize("label", sorted(BAD_FIELDS))
def test_problem_fields_are_type_checked(label, tmp_path, capsys):
    doc = BAD_FIELDS[label]
    code, report = run(doc["mode"], write_problem(tmp_path, doc), tmp_path)
    assert code == 1
    assert report is None
    assert "rhc: invalid input: problem file:" in capsys.readouterr().err


def test_scalar_anchor_on_the_contour_is_an_input_error(tmp_path, capsys):
    # the Mobius factor's pole would sit on a node and the report would
    # carry "residual_jump": NaN, which strict JSON rejects
    doc = _edited(
        "scalar_winding.json", lambda d: d["anchors"].update(z_minus=[1.0, 0.0])
    )
    code, report = run("factorize-scalar", write_problem(tmp_path, doc), tmp_path)
    assert code == 1
    assert report is None
    assert "rhc: invalid input: point (1+0j) is within" in capsys.readouterr().err


def test_overflowing_solution_is_an_input_error(tmp_path, capsys):
    # h is finite, but the solution overflows; no report may claim a
    # zero residual for a NaN solution
    doc = _edited("rational_solve.json", lambda d: d.update(h=[[[1.7e308, 0]]]))
    code, report = run("solve", write_problem(tmp_path, doc), tmp_path)
    assert code == 1
    assert report is None
    assert capsys.readouterr().err == (
        "rhc: invalid input: array must not contain infs or NaNs\n"
    )


def test_gmres_that_meets_a_value_that_is_not_finite_is_an_input_error(
    tmp_path, capsys, monkeypatch
):
    # a certified section has no LU to fall back on: rhc exits 1, as an
    # overflow on the LU path does, and writes no report
    monkeypatch.setattr(rhp, "_gmres", lambda apply, b, tol: None)
    code, report = run("solve", PROBLEMS / "rational_solve.json", tmp_path)
    assert code == 1
    assert report is None
    assert capsys.readouterr().err == (
        "rhc: invalid input: GMRES met a value that is not finite\n"
    )


def _rhc_subprocess(tmp_path, doc, mode="solve"):
    return _rhc_subprocess_on(tmp_path, write_problem(tmp_path, doc), mode)


def _rhc_subprocess_on(tmp_path, problem, mode="solve"):
    # a separate interpreter, so that stderr holds everything it printed
    src = str(Path(rc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [
            sys.executable,
            "-m",
            "rhcircles.cli",
            mode,
            "--problem",
            str(problem),
            "--out",
            str(tmp_path / "report.json"),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


_EDGE_OF_RANGE_JUMP = [["1e300*(z - 0.4)/(z - 2.5)"]]


def test_broken_down_lu_prints_only_the_rhc_line(tmp_path):
    # the LU's null vectors are not finite here; their band-limited content
    # must be taken without numpy warnings reaching stderr.  Rows of scale
    # 1e-310 beside rows of scale 1e301 leave the LU without a zero pivot,
    # but its solves overflow
    doc = {
        "version": 1,
        "mode": "solve",
        "contour": [
            {"center": [0.0, 0.0], "radius": 6.0, "nodes": 64},
            {"center": [20.0, 0.0], "radius": 1.0, "nodes": 16},
        ],
        "jump": [["1e-310*(z - 0.4)/(z - 2.5)", "0"], ["0", "1e301"]],
    }
    proc = _rhc_subprocess(tmp_path, doc)
    assert proc.returncode == 3
    assert proc.stderr == (
        "rhc: near-singular operator: LU of the singular operator broke down\n"
    )
    assert not (tmp_path / "report.json").exists()


def _band_content(doc):
    """The band-content clause of the refusal of doc's problem, formatted as
    solve formats it, from the null vectors it reads.  The subprocess runs
    with this process's BLAS threads, and the last digit follows them."""
    system = cli._build_system(doc, None)
    p = rc.RHProblem.from_jump(cli._build_jump(doc, system, rc.DELTA_INV))
    with np.errstate(all="ignore"):
        r, l, _ = rhp._null_vectors(rhp._ToeplitzLU(p, rhp._left_out(p)))
    band = rhp._band_rows(system, p.data.dim)
    ker, coker = (float(np.linalg.norm(v[band])) for v in (r, l))
    assert ker > rhp.ALIAS_BAND_CONTENT and coker > rhp.ALIAS_BAND_CONTENT
    return f"band-limited null-vector content {ker:.2e} (right), {coker:.2e} (left)"


@pytest.mark.parametrize(
    "jump, refusal",
    [
        (
            [["1e-310*(z - 0.4)/(z - 2.5)", "0"], ["0", "1e301"]],
            "LU of the singular operator broke down",
        ),
        # T^(-1) s reaches 1.2e302: the null vectors keep their direction;
        # their band content is read in this process (_band_content)
        ([["1e-300*(z - 0.4)/(z - 2.5)", "0"], ["0", "1e300"]], None),
    ],
    ids=["broken_down_lu", "overflowing_null_vector_norm"],
)
def test_edge_of_range_refusals_leave_stdout_empty(jump, refusal, tmp_path):
    # no Lanczos run on a broken-down LU, whose LAPACK calls would print
    # "** On entry to ZLASCL parameter number 4 had an illegal value"
    doc = {
        "version": 1,
        "mode": "solve",
        "contour": [
            {"center": [0.0, 0.0], "radius": 6.0, "nodes": 64},
            {"center": [20.0, 0.0], "radius": 1.0, "nodes": 16},
        ],
        "jump": jump,
    }
    refusal = refusal or _band_content(doc)
    proc = _rhc_subprocess(tmp_path, doc)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("rhc: near-singular operator: ")
    assert proc.stderr.endswith(refusal + "\n") and proc.stderr.count("\n") == 1


def test_overflowing_jump_residual_is_an_input_error(tmp_path):
    # on one circle the Toeplitz section solves this jump, but the jump
    # residual overflows: the run must fail without numpy warnings, and no
    # report may carry "residual_jump": Infinity
    doc = {
        "version": 1,
        "mode": "solve",
        "contour": [{"center": [0.0, 0.0], "radius": 6.0, "nodes": 64}],
        "jump": _EDGE_OF_RANGE_JUMP,
    }
    proc = _rhc_subprocess(tmp_path, doc)
    assert proc.returncode == 1
    assert proc.stderr == (
        "rhc: invalid input: jump residual is not finite (inf); "
        "the boundary values overflow\n"
    )
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "jump, code, stderr",
    [
        ([["1e160*(2+z)", "0"], ["0", "1e160"]], 0, ""),
        (
            [["1e200*(2+z)", "0"], ["0", "1e200"]],
            1,
            "rhc: invalid input: jump residual is not finite (inf); "
            "the boundary values overflow\n",
        ),
        (
            [["1e200", "1e200"], ["1e200", "1e200"]],
            2,
            "rhc: hypothesis check failed: |det v| < 1e-10 at 16 node(s)\n",
        ),
    ],
    ids=["det_overflows", "residual_overflows", "singular"],
)
def test_huge_jump_entries_raise_no_warning(jump, code, stderr, tmp_path, capsys):
    # det v of these samples overflows, or is inf - inf, in double: the
    # singular-jump check reads log|det v| instead, so exit 0 keeps stderr
    # empty and a refusal prints its one rhc: line alone
    doc = {
        "version": 1,
        "mode": "solve",
        "contour": [{"center": [0.0, 0.0], "radius": 1.0, "nodes": 16}],
        "jump": jump,
    }
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got, report = run("solve", write_problem(tmp_path, doc), tmp_path)
    assert [str(w.message) for w in caught] == []
    assert got == code and (report is not None) == (code == 0)
    assert capsys.readouterr().err == stderr


def test_far_anchor_is_refused_without_a_warning(tmp_path, capsys):
    # z_minus at 1e300 takes theta = (z / (z - z_minus))^2 below the
    # double range at every node: the anchors are refused where they
    # enter, with no warning from v / theta or its logarithm
    doc = {
        "version": 1,
        "mode": "factorize-scalar",
        "contour": [{"center": [0.0, 0.0], "radius": 1.0, "nodes": 64}],
        "jump": [["z^2"]],
        "anchors": {"z_plus": [0, 0], "z_minus": [1e300, 0]},
    }
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got, report = run("factorize-scalar", write_problem(tmp_path, doc), tmp_path)
    assert [str(w.message) for w in caught] == []
    assert got == 1 and report is None
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("rhc: invalid input: anchors ")


def _one_circle(center, radius, nodes, jump):
    return {
        "mode": "solve",
        "contour": [{"center": center, "radius": radius, "nodes": nodes}],
        "jump": jump,
    }


@pytest.mark.parametrize(
    "doc, code",
    [
        # Lanczos starts on an LU whose first apply is not finite: the run
        # ends there, since a LAPACK call that read it would print ZLASCL's
        # complaint to stdout (ARPACK's did)
        (
            _one_circle(
                [0.2, -1e-12],
                1.0,
                16,
                [
                    ["(1e+300)*((conj(z))*((conj(z))^2))", "conj(z)"],
                    [
                        "z^2",
                        "(((1/z)+(z))-((z^2)/(conj(z))))*(((z^2)^200)-(1/z))",
                    ],
                ],
            ),
            3,
        ),
        # an exact zero pivot, which lu_factor warns about
        (_one_circle([1e-300, 3.0], 10.0, 4, [["(((1/z)/(z))+((1/z)*(z^2)))^200"]]), 3),
        # kappa_j and lambda_j of the conjugated pole jumps overflow
        (
            {
                "mode": "idnls",
                "idnls": {
                    "n": 1,
                    "sign": "focusing",
                    "poles": [[2e12, 0, 1e-12, 2e-300], [20, 3e-12, 1e300, -1e150]],
                    "conjugate": True,
                },
            },
            1,
        ),
        # a circle whose points leave the double range
        (
            {
                "mode": "solve",
                "contour": [
                    {"center": [0.0, 0.0], "radius": 1e307, "nodes": 16},
                    {"center": [-1.7e308, 0.0], "radius": 1e307, "nodes": 16},
                ],
                "jump": [["2"]],
            },
            1,
        ),
        # the midpoint residual's FFTs overflow
        (_one_circle([3e307, 0.3], 0.2, 16, [["conj(z)"]]), 1),
        # a pole whose mirror 1/conj(z) underflows to 0 in the division
        (
            {
                "mode": "idnls",
                "idnls": {
                    "n": 0,
                    "sign": "focusing",
                    "conjugate": False,
                    "poles": [[1e308, 1e308, 0.5, 0.0]],
                },
            },
            1,
        ),
    ],
    ids=[
        "zlascl",
        "zero_pivot",
        "pole_factors",
        "far_circle_points",
        "residual_fft",
        "far_pole",
    ],
)
def test_refusal_prints_one_rhc_line_and_nothing_else(doc, code, tmp_path, capfd):
    # in-process, with every warning an error, and stdout read at the
    # file descriptor, where LAPACK writes
    problem = write_problem(tmp_path, {"version": 1, **doc})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, report = run(doc["mode"], problem, tmp_path)
    out, err = capfd.readouterr()
    assert (got, report) == (code, None)
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("rhc: ")


@pytest.mark.parametrize(
    "entry, message",
    [
        ("2" + "+z/1000" * 3000, "nested too deeply to evaluate"),
        ("(" * 400 + "2" + ")" * 400, "expression is nested too deeply"),
    ],
    ids=["deep_evaluation", "deep_parse"],
)
def test_too_deep_expressions_are_input_errors(entry, message, tmp_path):
    # past the recursion limit, in the evaluator's closures or in the parser
    doc = {
        "version": 1,
        "mode": "solve",
        "contour": [{"center": [0.0, 0.0], "radius": 6.0, "nodes": 64}],
        "jump": [[entry]],
    }
    proc = _rhc_subprocess(tmp_path, doc)
    assert proc.returncode == 1
    assert proc.stderr.startswith("rhc: invalid input: ")
    assert message in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "report.json").exists()


def test_too_deeply_nested_file_is_an_input_error(tmp_path):
    # past the recursion limit of json.load itself, before any field is read
    problem = tmp_path / "problem.json"
    problem.write_text('{"version": 1, "jump": ' + "[" * 100_000 + "]" * 100_000 + "}")
    proc = _rhc_subprocess_on(tmp_path, problem)
    assert proc.returncode == 1
    assert proc.stderr == (
        "rhc: invalid input: problem file is nested too deeply to read\n"
    )
    assert not (tmp_path / "report.json").exists()


_FAR_POLE = {"n": 0, "sign": "focusing", "poles": [[1e160, 0.0, 1.0, 0.0]]}


@pytest.mark.parametrize(
    "mode, doc, message",
    [
        (
            "check-symmetry",
            {
                "contour": [
                    {"center": [0.0, 0.0], "radius": 1.0, "orientation": "cw"},
                    {"center": [1e160, 0.0], "radius": 1.0, "orientation": "cw"},
                ],
                "jump": [["2"]],
            },
            "image leaves the double range",
        ),
        (
            "idnls",
            {"idnls": {**_FAR_POLE, "conjugate": False}},
            "image leaves the double range",
        ),
        (
            "idnls",
            {"idnls": {**_FAR_POLE, "conjugate": True}},
            "image leaves the double range",
        ),
        (
            "idnls",
            {
                "idnls": {
                    "n": 10**20,
                    "sign": "defocusing",
                    "r": "0.3*z",
                    "conjugate": False,
                }
            },
            "jump samples are not finite",
        ),
    ],
    ids=["far_circle", "far_pole", "far_pole_conjugated", "huge_n"],
)
def test_out_of_range_inputs_print_one_input_line(tmp_path, mode, doc, message):
    # a circle whose image |a|^2 overflows, or a z^(2n) that leaves the
    # double range at the nodes: no traceback and no numpy warning
    proc = _rhc_subprocess(tmp_path, {"version": 1, "mode": mode, **doc}, mode)
    assert proc.returncode == 1
    assert proc.stderr.startswith("rhc: invalid input: ")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert not (tmp_path / "report.json").exists()


def test_delta_inv_override_reaches_the_splitting(tmp_path):
    # |det v| = 1e-11 |2 + z| passes delta_inv = 1e-13 but not the default
    # 1e-10, so only the caller's bound may decide
    doc = {
        "version": 1,
        "mode": "solve",
        "contour": [{"center": [0.0, 0.0], "radius": 1.0, "nodes": 16}],
        "jump": [["1e-11*(2 + z)"]],
    }
    problem = write_problem(tmp_path, doc)
    code, report = run(
        "solve",
        problem,
        tmp_path,
        "--tol",
        "delta_inv=1e-13",
        "--tol",
        "sigma_min=1e-14",
    )
    assert code == 0
    assert report["residual_jump"] < 1e-12
    code, _ = run("solve", problem, tmp_path)
    assert code == 2


# failure taxonomy: every concrete error class has exactly one kind

KIND_EXITS = {
    rc.InputError: (1, "rhc: invalid input: "),
    rc.HypothesisError: (2, "rhc: hypothesis check failed: "),
    rc.NearSingularOperatorError: (3, "rhc: near-singular operator: "),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


CONCRETE_ERRORS = sorted(
    (
        cls
        for cls in _subclasses(rc.RHCError)
        if cls.__module__.startswith("rhcircles")
        and cls not in (rc.InputError, rc.HypothesisError)
    ),
    key=lambda cls: cls.__name__,
)


def test_every_error_class_has_exactly_one_kind():
    exported = {
        name
        for name in rc.__all__
        if name.endswith("Error")
        and name not in ("RHCError", "InputError", "HypothesisError")
    }
    assert {cls.__name__ for cls in CONCRETE_ERRORS} == exported
    for cls in CONCRETE_ERRORS:
        kinds = [kind for kind in KIND_EXITS if issubclass(cls, kind)]
        assert len(kinds) == 1, (cls.__name__, kinds)


@pytest.mark.parametrize("error", CONCRETE_ERRORS, ids=lambda cls: cls.__name__)
def test_cli_maps_each_error_to_its_kind(error, monkeypatch, tmp_path, capsys):
    def runner(doc, tol, nodes):
        if issubclass(error, rc.NearSingularOperatorError):
            raise error(0.0, "raised by the test runner")
        raise error("raised by the test runner")

    monkeypatch.setitem(cli._RUNNERS, "solve", runner)
    (kind,) = (kind for kind in KIND_EXITS if issubclass(error, kind))
    code, report = run("solve", PROBLEMS / "identity_solve.json", tmp_path)
    expected_code, prefix = KIND_EXITS[kind]
    assert code == expected_code
    assert report is None
    assert capsys.readouterr().err == f"{prefix}raised by the test runner\n"
