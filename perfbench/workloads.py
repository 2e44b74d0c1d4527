"""The benchmark's workloads: seeded inputs, one op, and that op's answer check.

Each workload draws its inputs from the seed alone, hands the program only
those inputs, and checks every answer at the tolerances the acceptance
tests pin (tests/test_acceptance.py) or, for the command line, against the
exit-code table of problems/README.md.  An op returns a list of problems
(empty when every check passed) and a dict of layer figures that only the
benchmark can see, such as the size of the files the CLI wrote.

Ops are homogeneous within a workload on purpose: one op kind per
workload keeps the median an op time rather than a point between kinds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

import numpy as np

import rhcircles as rc
from rhcircles import cli

# Inputs are drawn once into a pool and cycled; a run never completes
# more ops than this, so no input repeats within a run.
POOL_SIZE = 512


class Lattice:
    """One IDNLS lattice site through pole removal and conjugation.

    Every op takes the alias-kernel path of rhp.solve (the conjugated
    operator has an exact Nyquist null vector), so dense SVDs dominate.
    """

    nodes = 64
    probe_count = 12

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.inputs = []
        for _ in range(POOL_SIZE):
            site = int(rng.integers(-3, 4))
            z = rng.uniform(1.8, 3.0) * np.exp(2j * np.pi * rng.uniform())
            c = rng.uniform(0.3, 1.0) * np.exp(2j * np.pi * rng.uniform())
            self.inputs.append((site, complex(z), complex(c)))
        self.count = 0

    def properties(self) -> dict:
        return {
            "circles": 5,
            "nodes_per_circle": self.nodes,
            "operator_order": 5 * self.nodes * 2,
            "inputs": "site n in [-3, 3], one pole |z| in [1.8, 3], "
            "|c| in [0.3, 1], no reflection",
        }

    def op(self):
        site, z, c = self.inputs[self.count % len(self.inputs)]
        self.count += 1
        spec = rc.IdnlsSpec(r=None, n=site, poles=((z, c),))
        ap = rc.remove_poles(spec, pole_nodes=self.nodes, unit_nodes=self.nodes)
        conj = rc.conjugate(ap, node_count=self.nodes)
        sol = rc.solve_augmented(conj)
        hyp = rc.check_inversion_hypotheses(conj.jump)
        oracle = rc.soliton_oracle(spec)
        probes = rc.off_contour_points(conj.system, self.probe_count, rel_margin=0.45)
        oracle_err = max(
            float(np.max(np.abs(sol.evaluate(w) - oracle(w)))) for w in probes
        )
        residue = rc.residue_condition_residuals(sol.evaluate, ap)

        label = f"site {site}, pole {z:.4f}, c {c:.4f}"
        problems = []
        if not oracle_err <= 1e-7:
            problems.append(f"{label}: oracle error {oracle_err:.3e} > 1e-7")
        if not residue <= 1e-8:
            problems.append(f"{label}: residue conditions {residue:.3e} > 1e-8")
        if not hyp.max_symmetry_deviation <= 1e-12:
            problems.append(
                f"{label}: symmetry deviation {hyp.max_symmetry_deviation:.3e}"
                " > 1e-12"
            )
        if not hyp.min_re_eig_on_circle > 0.0:
            problems.append(f"{label}: jump not positive on the unit circle")
        return problems, {}


class Dense:
    """A defocusing 2x2 problem on the unit circle at m = 512 nodes.

    The plain LU path on a well-conditioned operator, the largest one in
    the benchmark, followed by the index diagnostics; no evaluation of m.
    """

    nodes = 512

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.inputs = []
        for _ in range(POOL_SIZE):
            site = int(rng.integers(-3, 4))
            total = rng.uniform(0.1, 0.5)
            share = rng.uniform()
            a = total * share * np.exp(2j * np.pi * rng.uniform())
            b = total * (1.0 - share) * np.exp(2j * np.pi * rng.uniform())
            self.inputs.append((site, complex(a), complex(b)))
        self.count = 0

    def properties(self) -> dict:
        return {
            "circles": 1,
            "nodes_per_circle": self.nodes,
            "operator_order": self.nodes * 2,
            "inputs": "site n in [-3, 3], r(z) = a z + b/z with "
            "|a| + |b| in [0.1, 0.5]",
        }

    def op(self):
        site, a, b = self.inputs[self.count % len(self.inputs)]
        self.count += 1
        spec = rc.IdnlsSpec(
            r=lambda z: a * z + b / z, n=site, sign="defocusing"
        )
        jump = rc.build_defocusing_jump(spec, node_count=self.nodes)
        problem = rc.RHProblem.from_jump(jump)
        sol = rc.solve(problem)
        idx = rc.index_diagnostics(problem, tau_rank=1e-7)

        label = f"site {site}, a {a:.4f}, b {b:.4f}"
        problems = []
        if not sol.residual_jump <= 1e-8:
            problems.append(f"{label}: residual_jump {sol.residual_jump:.3e} > 1e-8")
        if not sol.smallest_singular_value >= 1e-6:
            problems.append(
                f"{label}: sigma_min {sol.smallest_singular_value:.3e} < 1e-6"
            )
        if (idx.dim_ker, idx.dim_coker) != (0, 0):
            problems.append(f"{label}: index ({idx.dim_ker}, {idx.dim_coker})")
        return problems, {}


# problems/README.md: expected exit code per shipped problem file.
CLI_EXIT_CODES = {
    "identity_solve.json": 0,
    "rational_solve.json": 0,
    "rational_near_singular.json": 3,
    "index_power.json": 0,
    "scalar_winding.json": 0,
    "hermitian_scalar.json": 0,
    "symmetric_check.json": 0,
    "idnls_soliton.json": 0,
    "idnls_defocusing.json": 0,
}

# Modes whose reports come with a sampled CSV.
SAMPLED_MODES = ("solve", "factorize-hermitian", "idnls")
GRID = "60x60"

_TIMING = re.compile(rb'"timing_seconds": [^,\n]*')


def _report_facts(name: str, report: dict) -> list[str]:
    """The values problems/README.md states for individual files."""
    if name == "identity_solve.json" and report["residual_jump"] != 0.0:
        return [f"{name}: residual {report['residual_jump']!r}, expected 0"]
    if name == "index_power.json" and (
        report["dim_ker"],
        report["dim_coker"],
    ) != (1, 0):
        return [f"{name}: index ({report['dim_ker']}, {report['dim_coker']})"]
    if name == "scalar_winding.json" and report["winding_index"] != 2:
        return [f"{name}: winding index {report['winding_index']}, expected 2"]
    return []


class Cli:
    """One pass of rhcircles.cli.main over every shipped problem file.

    The file order is shuffled per pass from the seed.  The first pass
    (the warm-up) fixes the reference bodies; every later pass must
    reproduce them byte for byte, the timing field aside.
    """

    def __init__(self, seed: int, out_dir: Path, problems_dir: Path,
                 exit_codes: dict | None = None):
        self.rng = np.random.default_rng(seed)
        self.out_dir = out_dir
        self.exit_codes = dict(CLI_EXIT_CODES if exit_codes is None else exit_codes)
        self.files = []
        for name in sorted(CLI_EXIT_CODES):
            path = problems_dir / name
            mode = json.loads(path.read_text())["mode"]
            self.files.append((name, mode, path))
        self.reference: dict[str, tuple] | None = None

    def properties(self) -> dict:
        return {
            "files": len(self.files),
            "sampled_modes": list(SAMPLED_MODES),
            "grid": GRID,
            "expected_exit_codes": self.exit_codes,
        }

    def _run_file(self, name: str, mode: str, path: Path):
        stem = name[: -len(".json")]
        report_path = self.out_dir / f"{stem}.report.json"
        samples_path = self.out_dir / f"{stem}.samples.csv"
        for stale in (report_path, samples_path):
            stale.unlink(missing_ok=True)
        argv = [mode, "--problem", str(path), "--out", str(report_path)]
        if mode in SAMPLED_MODES:
            argv += ["--samples", str(samples_path), "--grid", GRID]
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
        body = report_path.read_bytes() if report_path.exists() else None
        csv = samples_path.read_bytes() if samples_path.exists() else b""
        return code, body, csv, err.getvalue()

    def op(self):
        order = self.rng.permutation(len(self.files))
        problems = []
        runner_s = 0.0
        csv_bytes = 0
        bodies = {}
        for k in order:
            name, mode, path = self.files[k]
            code, body, csv, err = self._run_file(name, mode, path)
            expected = self.exit_codes[name]
            if code != expected:
                problems.append(
                    f"{name}: exit {code}, expected {expected} {err.strip()}"
                )
            if body is not None:
                report = json.loads(body)
                runner_s += float(report["timing_seconds"])
                if self.reference is None and code == 0:
                    problems += _report_facts(name, report)
                body = _TIMING.sub(b'"timing_seconds": null', body)
            csv_bytes += len(csv)
            bodies[name] = (body, hashlib.sha256(csv).hexdigest())
        if self.reference is None:
            self.reference = bodies
        else:
            for name, got in bodies.items():
                if got != self.reference[name]:
                    problems.append(f"{name}: report or samples differ from pass 1")
        return problems, {"cli.runner_s": runner_s, "cli.csv_bytes": csv_bytes}


def make(name: str, seed: int, out_dir: Path, problems_dir: Path):
    if name == "lattice":
        return Lattice(seed)
    if name == "dense":
        return Dense(seed)
    if name == "cli":
        return Cli(seed, out_dir, problems_dir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("lattice", "dense", "cli")
