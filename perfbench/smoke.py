"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs one timed op per workload untraced and two (one traced) with
--trace 1, and checks that the result line has exactly the contract's
keys and every metric BENCHMARK.json names, with its unit.  Then checks
that a wrong exit code and a raising op count as failures, that the
benchmark refuses to run without the program's sources, and prints the
traced counts of the soliton CLI run beside the figures the benchmark was
defined against.  Exits non-zero on the first broken check.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from worker import run_op  # noqa: E402  (first: it pins BLAS before numpy loads)
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# Counts of `rhc idnls problems/idnls_soliton.json --samples --grid 60x60`
# measured when the benchmark was defined (ROADMAP baseline).
SOLITON_BASELINE = {
    "contour.points_calls": 32804,
    "rhp.svdvals_calls": 5,
    "rhp.svd_calls": 1,
}


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"smoke: FAILED: {message}")
        sys.exit(1)
    print(f"smoke: ok: {message}")


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT):
    command = [
        sys.executable, str(cwd / "perfbench" / "run.py"),
        "--workload", workload, "--seed", "0", "--seconds", "1",
        "--trace", str(trace),
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def check_result_line(spec: dict, workload: str, trace: int) -> None:
    proc = run_benchmark(workload, trace)
    check(proc.returncode == 0, f"{workload} --trace {trace} exits 0 "
          f"(stderr: {proc.stderr.strip()[-300:]})")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload} --trace {trace}: result keys")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{workload} --trace {trace}: every op passed its check")
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    for metric in listed:
        got = result["metrics"].get(metric["name"])
        check(
            got is not None
            and got["unit"] == metric["unit"]
            and isinstance(got["value"], (int, float))
            and math.isfinite(got["value"]),
            f"{workload} --trace {trace}: {metric['name']} printed in {metric['unit']}",
        )


def check_failures_counted(scratch: Path) -> None:
    tampered = dict(workloads.CLI_EXIT_CODES)
    tampered["rational_near_singular.json"] = 0
    cli = workloads.Cli(0, scratch, ROOT / "problems", exit_codes=tampered)
    problems, _ = run_op(cli)
    check(any("rational_near_singular.json: exit 3" in p for p in problems),
          "a wrong exit code counts as a failed op")

    class Raising:
        def op(self):
            raise FloatingPointError("boom")

    problems, _ = run_op(Raising())
    check(problems == ["FloatingPointError: boom"], "a raising op counts as a failed op")


def check_refuses_without_sources(scratch: Path) -> None:
    bare = scratch / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run_benchmark("lattice", 0, cwd=bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without the program's sources it exits non-zero and prints no result")


def soliton_counts(scratch: Path) -> None:
    from rhcircles import cli

    tracer = Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([
                "idnls", "--problem", str(ROOT / "problems" / "idnls_soliton.json"),
                "--out", str(scratch / "soliton.json"),
                "--samples", str(scratch / "soliton.csv"), "--grid", "60x60",
            ])
    finally:
        tracer.uninstall()
    check(code == 0, "traced soliton CLI run exits 0")
    figures = tracer.summarize(0, len(tracer.name))
    for name, baseline in SOLITON_BASELINE.items():
        verdict = "matches" if figures[name] == baseline else "DIFFERS from"
        print(f"smoke: soliton {name} = {figures[name]}, {verdict} baseline {baseline}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    scratch = ROOT / ".bench_build" / "perfbench" / "smoke"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        for workload in workloads.WORKLOADS:
            for trace in (0, 1):
                check_result_line(spec, workload, trace)
        check_failures_counted(scratch)
        check_refuses_without_sources(scratch)
        soliton_counts(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
