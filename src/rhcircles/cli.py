"""Command-line front end: JSON problems in, JSON reports and CSV out.

Usage:

    rhc <mode> --problem FILE --out FILE
        [--samples FILE] [--grid NxM] [--bbox re0,re1,im0,im1]
        [--nodes K] [--tol key=value ...]

Modes: solve, factorize-scalar, factorize-hermitian, check-symmetry,
index, idnls.  The problem file layout is documented in
docs/problem-schema.json and validated on load with messages that name
the violated precondition.  Exit codes: 0 success, 1 bad input,
2 failed hypothesis check, 3 near-singular operator.  Output files are
written atomically, and a report is byte-identical across runs except
for its timing field.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
from typing import Callable, Iterable

import numpy as np

from .cauchy import EVAL_BLOCK, too_close
from .contour import CCW, CW, Circle, ContourSystem, build_contour
from .errors import HypothesisError, InputError, NearSingularOperatorError
from .expressions import parse_expression
from .factorize import hermitian_factorize, scalar_factorize
from .idnls import (
    IdnlsSpec,
    conjugate,
    remove_poles,
    residue_condition_residuals,
    solve_augmented,
)
from .rhp import (
    CONST_TOL,
    DELTA_INV,
    PAIR_TOL,
    SIGMA_MIN,
    SYM_TOL,
    TAU_RANK,
    JumpData,
    RHProblem,
    RHSolution,
    _check_tolerance,
    check_inversion_hypotheses,
    index_diagnostics,
    matrix_at,
    solve,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_HYPOTHESIS = 2
EXIT_NEAR_SINGULAR = 3

_DEFAULT_TOLERANCES = {
    "sigma_min": SIGMA_MIN,
    "tau_rank": TAU_RANK,
    "delta_inv": DELTA_INV,
    "const_tol": CONST_TOL,
    "sym_tol": SYM_TOL,
    "pair_tol": PAIR_TOL,
}
_TOLERANCE_KEYS = tuple(_DEFAULT_TOLERANCES)

class _ArgumentParser(argparse.ArgumentParser):
    # Usage mistakes are input errors (exit 1); argparse's default exit
    # code 2 is reserved for failed hypothesis checks.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"rhc: {message}\n")


def _node_count(text: str) -> int:
    nodes = int(text) if text.isdecimal() else 0
    if nodes < 4 or nodes % 2:
        raise argparse.ArgumentTypeError(
            f"must be an even integer >= 4, got {text!r}"
        )
    return nodes


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="rhc",
        description="Solve and factorize jump problems on systems of circles.",
    )
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--problem", required=True, help="problem JSON file")
    parser.add_argument("--out", required=True, help="report JSON file")
    parser.add_argument("--samples", help="CSV of m sampled on a grid")
    parser.add_argument("--grid", default="16x16", help="sample grid, NxM")
    parser.add_argument(
        "--bbox",
        help="sample box re0,re1,im0,im1 (default: contour extent padded)",
    )
    parser.add_argument(
        "--nodes",
        type=_node_count,
        help="override every circle's node count (even, at least 4)",
    )
    parser.add_argument(
        "--tol",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help=f"tolerance override, keys: {', '.join(_TOLERANCE_KEYS)}",
    )
    return parser


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(f"problem file: {message}")


def _number(value, where: str, kind=(int, float)):
    """value, checked to be a JSON number (an integer if kind is int)
    that a float holds finitely; Python counts bool as int and reads NaN
    and Infinity, JSON has neither."""
    _require(
        isinstance(value, kind)
        and not isinstance(value, bool)
        and (kind is int or abs(value) <= sys.float_info.max),
        f"{where} must be {'an integer' if kind is int else 'a finite number'}",
    )
    return value


def _numbers(value, where: str, names: tuple) -> list:
    """value, checked to be an array of numbers, one per name."""
    _require(
        isinstance(value, list) and len(value) == len(names),
        f"{where} must be [{', '.join(names)}]",
    )
    return [_number(x, f"{where}[{i}]") for i, x in enumerate(value)]


def _point(value, where: str) -> complex:
    return complex(*_numbers(value, where, ("re", "im")))


def _load_problem(path: str, mode: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except RecursionError:
            raise InputError("problem file is nested too deeply to read") from None
    _require(isinstance(doc, dict), "top level must be a JSON object")
    _require(
        type(doc.get("version")) is int and doc["version"] == 1,
        "version must be the integer 1",
    )
    _require("mode" in doc, "mode is required")
    _require(doc["mode"] in MODES, f"mode must be one of {MODES}")
    _require(
        doc["mode"] == mode,
        f"mode {doc['mode']!r} does not match the command line ({mode!r})",
    )
    if "tolerances" in doc:
        _require(
            isinstance(doc["tolerances"], dict),
            "tolerances must be an object",
        )
        for key in doc["tolerances"]:
            _require(
                key in _TOLERANCE_KEYS,
                f"unknown tolerance {key!r}, expected one of {_TOLERANCE_KEYS}",
            )
    if mode == "idnls":
        _require("idnls" in doc, "idnls block is required for mode idnls")
    else:
        _require("contour" in doc, f"contour block is required for mode {mode}")
        _require("jump" in doc, f"jump block is required for mode {mode}")
    return doc


def _merge_tolerances(doc: dict, overrides: list) -> dict:
    tol = dict(_DEFAULT_TOLERANCES)
    for key, value in doc.get("tolerances", {}).items():
        tol[key] = float(_number(value, f"tolerances.{key}"))
    for item in overrides:
        key, _, value = item.partition("=")
        if key not in _TOLERANCE_KEYS:
            raise ValueError(
                f"unknown tolerance {key!r}, expected one of {_TOLERANCE_KEYS}"
            )
        try:
            tol[key] = float(value)
        except ValueError:
            raise ValueError(f"tolerance {key} needs a numeric value") from None
    for key, value in tol.items():
        _check_tolerance(key, value)
    return tol


def _build_system(doc: dict, nodes_override: int | None) -> ContourSystem:
    block = doc["contour"]
    _require(
        isinstance(block, list) and block, "contour must be a nonempty array"
    )
    circles = []
    for k, entry in enumerate(block):
        _require(isinstance(entry, dict), f"contour[{k}] must be an object")
        center = _point(entry.get("center"), f"contour[{k}].center")
        radius = _number(entry.get("radius"), f"contour[{k}].radius")
        _require(radius > 0, f"contour[{k}].radius must be positive")
        orientation = entry.get("orientation", "ccw")
        _require(
            orientation in ("ccw", "cw"),
            f"contour[{k}].orientation must be 'ccw' or 'cw'",
        )
        if nodes_override is not None:
            nodes = nodes_override
        else:
            nodes = _number(entry.get("nodes", 64), f"contour[{k}].nodes", int)
            _require(
                nodes >= 4 and nodes % 2 == 0,
                f"contour[{k}].nodes must be an even integer >= 4",
            )
        circles.append(
            Circle(
                center,
                float(radius),
                CCW if orientation == "ccw" else CW,
                nodes,
            )
        )
    return build_contour(circles)


def _idnls_r(doc: dict) -> Callable | None:
    """The expression idnls.r, parsed, or None where it is not set."""
    block = doc.get("idnls", {})
    _require(isinstance(block, dict), "idnls must be an object")
    text = block.get("r")
    _require(
        text is None or isinstance(text, str),
        "idnls.r must be an expression string",
    )
    return parse_expression(text) if text else None


def _matrix_evaluator(entries, table: dict, where: str) -> Callable:
    _require(
        isinstance(entries, list)
        and entries
        and all(isinstance(row, list) and len(row) == len(entries) for row in entries),
        f"{where} must be a square matrix of expression strings",
    )
    _require(
        all(isinstance(cell, str) for row in entries for cell in row),
        f"{where} entries must be expression strings",
    )
    compiled = [[parse_expression(cell, table) for cell in row] for row in entries]

    def fn(z) -> np.ndarray:
        return matrix_at(z, [[entry(z) for entry in row] for row in compiled])

    return fn


def _build_jump(doc: dict, system: ContourSystem, delta_inv: float) -> JumpData:
    block = doc["jump"]
    r_fn = _idnls_r(doc)
    table = {} if r_fn is None else {"r": r_fn}
    count = len(system.circles)
    per_circle = (
        isinstance(block, list)
        and block
        and all(
            isinstance(m, list) and m and isinstance(m[0], list) for m in block
        )
    )
    if per_circle:
        _require(
            len(block) == count,
            f"jump has {len(block)} matrices for {count} circles",
        )
        fns = [
            _matrix_evaluator(m, table, f"jump[{i}]")
            for i, m in enumerate(block)
        ]
        _require(
            len({len(m) for m in block}) == 1,
            "jump matrices must all have the same size",
        )
    else:
        fns = [_matrix_evaluator(block, table, "jump")] * count
    return JumpData.from_evaluators(system, fns, delta_inv)


def _parse_h(doc: dict, n: int):
    block = doc.get("h", "identity")
    if block == "identity":
        return None
    _require(
        isinstance(block, list) and block,
        "h must be 'identity' or a matrix of [re, im] pairs",
    )
    _require(len(block) == n, f"h must be {n}x{n}, the size of the jump")
    rows = []
    for a, row in enumerate(block):
        _require(
            isinstance(row, list) and len(row) == len(block),
            "h must be a square matrix of [re, im] pairs",
        )
        rows.append([_point(c, f"h[{a}][{b}]") for b, c in enumerate(row)])
    return np.array(rows, dtype=np.complex128)


def _base_report(mode: str, system: ContourSystem | None) -> dict:
    return {
        "mode": mode,
        "per_circle_nodes": (
            [c.node_count for c in system.circles] if system else []
        ),
        "residual_jump": None,
        "smallest_singular_value": None,
        "dim_ker": None,
        "dim_coker": None,
        "min_re_eig": None,
        "symmetric_off_circle": None,
    }


def _report_solver(report: dict, sol: RHSolution) -> None:
    report["smallest_singular_value"] = float(sol.smallest_singular_value)
    report["sigma_source"] = sol.sigma_source
    report["solver_path"] = sol.solver_path
    report["operator_order"] = int(sol.operator_order)
    report["factored_order"] = int(sol.factored_order)


def _system_and_jump(doc, tol, nodes) -> tuple[ContourSystem, JumpData]:
    system = _build_system(doc, nodes)
    return system, _build_jump(doc, system, tol["delta_inv"])


def _run_solve(doc, tol, nodes):
    system, jump = _system_and_jump(doc, tol, nodes)
    problem = RHProblem.from_jump(jump, h=_parse_h(doc, jump.v.dim))
    sol = solve(problem, sigma_min=tol["sigma_min"])
    report = _base_report("solve", system)
    report["residual_jump"] = float(sol.residual_jump)
    _report_solver(report, sol)
    return report, sol.evaluate, system, EXIT_OK


def _run_index(doc, tol, nodes):
    system, jump = _system_and_jump(doc, tol, nodes)
    problem = RHProblem.from_jump(jump)
    rep = index_diagnostics(problem, tau_rank=tol["tau_rank"])
    report = _base_report("index", system)
    report["dim_ker"] = int(rep.dim_ker)
    report["dim_coker"] = int(rep.dim_coker)
    report["ker_gap"] = [float(g) for g in rep.ker_gap]
    report["coker_gap"] = [float(g) for g in rep.coker_gap]
    return report, None, system, EXIT_OK


def _scalar_anchors(doc: dict, system: ContourSystem):
    block = doc.get("anchors", {})
    _require(isinstance(block, dict), "anchors must be an object")

    z_plus, z_minus = (
        None if block.get(key) is None else _point(block[key], f"anchors.{key}")
        for key in ("z_plus", "z_minus")
    )
    circle = system.circles[0]
    if z_plus is None:
        z_plus = (
            circle.center + 2.0 * circle.radius
            if system.plus_at_infinity
            else circle.center
        )
    if z_minus is None and system.plus_at_infinity:
        z_minus = circle.center
    return z_plus, z_minus


def _run_factorize_scalar(doc, tol, nodes):
    system, jump = _system_and_jump(doc, tol, nodes)
    _require(jump.v.dim == 1, "factorize-scalar needs a 1x1 jump")
    z_plus, z_minus = _scalar_anchors(doc, system)
    fact = scalar_factorize(jump.v, z_plus, z_minus, delta_inv=tol["delta_inv"])
    report = _base_report("factorize-scalar", system)
    report["residual_jump"] = float(fact.residual)
    report["winding_index"] = int(fact.index)
    return report, None, system, EXIT_OK


def _run_factorize_hermitian(doc, tol, nodes):
    system, jump = _system_and_jump(doc, tol, nodes)
    fact = hermitian_factorize(
        jump,
        const_tol=tol["const_tol"],
        sym_tol=tol["sym_tol"],
        pair_tol=tol["pair_tol"],
    )
    rep = fact.hypotheses
    report = _base_report("factorize-hermitian", system)
    report["residual_jump"] = float(fact.product_residual)
    _report_solver(report, fact.solution)
    report["min_re_eig"] = float(rep.min_re_eig_on_circle)
    report["symmetric_off_circle"] = bool(rep.symmetric_off_circle)
    report["constancy_stddev"] = float(fact.constancy_stddev)
    return report, fact.solution.evaluate, system, EXIT_OK


def _run_check_symmetry(doc, tol, nodes):
    system, jump = _system_and_jump(doc, tol, nodes)
    rep = check_inversion_hypotheses(
        jump, pair_tol=tol["pair_tol"], sym_tol=tol["sym_tol"]
    )
    report = _base_report("check-symmetry", system)
    report["min_re_eig"] = float(rep.min_re_eig_on_circle)
    report["symmetric_off_circle"] = bool(rep.symmetric_off_circle)
    report["symmetry_deviation"] = float(rep.max_symmetry_deviation)
    report["hermitian_deviation"] = float(rep.hermitian_deviation_on_circle)
    passed = rep.symmetric_off_circle and rep.min_re_eig_on_circle > 0.0
    return report, None, system, EXIT_OK if passed else EXIT_HYPOTHESIS


def _parse_idnls_spec(doc: dict) -> IdnlsSpec:
    block = doc["idnls"]
    _require(isinstance(block, dict), "idnls must be an object")
    _require("n" in block, "idnls.n is required")
    n = _number(block["n"], "idnls.n", int)
    sign = block.get("sign", "focusing")
    _require(
        sign in ("focusing", "defocusing"),
        "idnls.sign must be 'focusing' or 'defocusing'",
    )
    entries = block.get("poles", [])
    _require(isinstance(entries, list), "idnls.poles must be an array")
    poles = []
    for k, entry in enumerate(entries):
        re, im, c_re, c_im = _numbers(
            entry, f"idnls.poles[{k}]", ("re", "im", "c_re", "c_im")
        )
        poles.append((complex(re, im), complex(c_re, c_im)))
    return IdnlsSpec(r=_idnls_r(doc), n=n, poles=tuple(poles), sign=sign)


def _run_idnls(doc, tol, nodes):
    block = doc["idnls"]
    spec = _parse_idnls_spec(doc)
    conj = block.get("conjugate", False)
    _require(isinstance(conj, bool), "idnls.conjugate must be true or false")
    node_count = 64 if nodes is None else nodes
    ap = remove_poles(spec, pole_nodes=node_count, unit_nodes=node_count)
    if conj:
        ap = conjugate(ap, node_count=node_count)
    isol = solve_augmented(ap, sigma_min=tol["sigma_min"])
    # h does not enter the operator, so the solved problem's operator
    # serves the index count as it is; the count is the only rank probe
    rep = index_diagnostics(isol.solution.problem, tau_rank=tol["tau_rank"])
    report = _base_report("idnls", ap.system)
    if conj:
        sym = check_inversion_hypotheses(
            ap.jump, pair_tol=tol["pair_tol"], sym_tol=tol["sym_tol"]
        )
        report["min_re_eig"] = float(sym.min_re_eig_on_circle)
        report["symmetric_off_circle"] = bool(sym.symmetric_off_circle)
    if spec.poles:
        report["residue_condition_residual"] = float(
            residue_condition_residuals(isol.evaluate, ap)
        )
    report["residual_jump"] = float(isol.residual_jump)
    _report_solver(report, isol.solution)
    report["dim_ker"] = int(rep.dim_ker)
    report["dim_coker"] = int(rep.dim_coker)
    return report, isol.evaluate, ap.system, EXIT_OK


_RUNNERS = {
    "solve": _run_solve,
    "factorize-scalar": _run_factorize_scalar,
    "factorize-hermitian": _run_factorize_hermitian,
    "check-symmetry": _run_check_symmetry,
    "index": _run_index,
    "idnls": _run_idnls,
}
MODES = tuple(_RUNNERS)


def _atomic_write(path: str, chunks: Iterable[str]) -> None:
    """Write the text chunks to a temporary file beside path, then rename
    it over path: a reader sees the old file or the whole new one, and a
    failed write leaves no temporary file behind."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".rhc-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
        # mkstemp makes the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_report(path: str, report: dict) -> None:
    # allow_nan=False: a report is strict JSON or is not written
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    _atomic_write(path, (text + "\n",))


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        cols, rows = (int(part) for part in text.lower().split("x"))
    except ValueError:
        raise ValueError(f"--grid must look like 40x40, got {text!r}") from None
    if cols < 1 or rows < 1:
        raise ValueError("--grid dimensions must be positive")
    return cols, rows


def _parse_bbox(text: str | None, system: ContourSystem) -> tuple:
    if text is not None:
        try:
            re0, re1, im0, im1 = (float(p) for p in text.split(","))
        except ValueError:
            raise ValueError(
                f"--bbox must be re0,re1,im0,im1, got {text!r}"
            ) from None
        if not all(map(math.isfinite, (re0, re1, im0, im1))):
            raise ValueError(f"--bbox values must be finite, got {text!r}")
        if re0 >= re1 or im0 >= im1:
            raise ValueError("--bbox must have re0 < re1 and im0 < im1")
        return re0, re1, im0, im1
    # each circle's bounding box, corner to corner, padded by 0.5
    lo = [c.center - complex(c.radius, c.radius) for c in system.circles]
    hi = [c.center + complex(c.radius, c.radius) for c in system.circles]
    return (
        min(z.real for z in lo) - 0.5,
        max(z.real for z in hi) + 0.5,
        min(z.imag for z in lo) - 0.5,
        max(z.imag for z in hi) + 0.5,
    )


def _write_samples(
    path: str,
    sampler: Callable,
    system: ContourSystem,
    grid: tuple[int, int],
    bbox: tuple,
) -> None:
    """Write m sampled on the grid as CSV, one row per matrix entry.

    The points span bbox real part first, each exactly complex(x, y) of
    the two linspaces. Points within the quadrature margin of a circle
    and points where m is not finite have no rows. Every number is its
    shortest round-trip repr, so the rows equal a point-by-point
    evaluation byte for byte. Each coordinate is formatted once and
    looked up by grid index, and the rows are built and written
    EVAL_BLOCK points at a time, so the whole CSV is never one string.
    """
    re0, re1, im0, im1 = bbox
    cols, rows = grid
    xs = np.linspace(re0, re1, cols)
    ys = np.linspace(im0, im1, rows)
    # x-major, each point exactly complex(x, y)
    z = np.empty((cols, rows), dtype=np.complex128)
    z.real = xs[:, None]
    z.imag = ys[None, :]
    z = z.reshape(-1)
    index = np.flatnonzero(~too_close(system, z))
    z = z[index]
    with np.errstate(divide="ignore", invalid="ignore"):
        values = sampler(z)
    finite = np.all(np.isfinite(values), axis=(1, 2))
    index, z, values = index[finite], z[finite], values[finite]
    regions = np.where(system.in_omega_plus(z), "plus", "minus")
    # looked up by grid index, not by value: a dict keyed on the float
    # would print -0.0 as 0.0, since the two compare equal
    x_text = [repr(x) for x in xs.tolist()]
    y_text = [repr(y) for y in ys.tolist()]
    n = values.shape[1]
    entries = [f"{a},{b}" for a in range(n) for b in range(n)]
    values = values.reshape(len(z), n * n)

    def chunks():
        yield "region,re_z,im_z,row,col,re_m,im_m\n"
        for start in range(0, len(z), EVAL_BLOCK):
            block = slice(start, start + EVAL_BLOCK)
            wheres = [
                f"{region},{x_text[i // rows]},{y_text[i % rows]}"
                for region, i in zip(regions[block].tolist(), index[block].tolist())
            ]
            m = values[block].reshape(-1)
            lines = zip(
                [where for where in wheres for _ in entries],
                entries * len(wheres),
                map(repr, m.real.tolist()),
                map(repr, m.imag.tolist()),
            )
            yield "\n".join(map(",".join, lines))
            yield "\n"

    _atomic_write(path, chunks())


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        doc = _load_problem(args.problem, args.mode)
        tol = _merge_tolerances(doc, args.tol)
        grid = _parse_grid(args.grid)
        started = time.perf_counter()
        report, sampler, system, code = _RUNNERS[args.mode](
            doc, tol, args.nodes
        )
        report["timing_seconds"] = time.perf_counter() - started
        if args.samples:
            if sampler is None:
                raise ValueError(
                    f"mode {args.mode} does not produce samples"
                )
            _write_samples(
                args.samples,
                sampler,
                system,
                grid,
                _parse_bbox(args.bbox, system),
            )
        _write_report(args.out, report)
        return code
    except NearSingularOperatorError as exc:
        print(f"rhc: near-singular operator: {exc}", file=sys.stderr)
        return EXIT_NEAR_SINGULAR
    except HypothesisError as exc:
        print(f"rhc: hypothesis check failed: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (InputError, ValueError, OSError) as exc:
        print(f"rhc: invalid input: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
