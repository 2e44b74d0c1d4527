"""rhcircles benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload {lattice,dense,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
src/ directory.  Every op's answer is checked (see workloads.py).  The
last line of output is one JSON object with the keys correct, attempted,
failed and metrics; metric names and units come from BENCHMARK.json.

--trace 0 measures the end-to-end metrics with tracing off.  Set-up is
measured in SETUP_RUNS fresh worker processes and reported as their
median; the last of them runs the timed phase.  Times are calibrated to
the host's speed (calibration.py): each is divided by its worker's host
factor, the mean reference-kernel time measured beside it over the
kernels' nominal time.

--trace 1 alternates untraced and traced ops in one worker and reports
the per-layer metrics of the traced ops (per op, the median over traced
ops), plus the tracing overhead.  Spans are written to .bench_build/perfbench/.

The line before the result carries what is recorded beside the metrics
rather than as one: the host factors and the uncalibrated times, the op
tail, the failure rate, the inputs' properties and the worker's thread
count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import BLAS_PINS  # first: importing it pins BLAS before numpy loads

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lattice", "dense", "cli")
SETUP_RUNS = 3
RUN_LIMIT_S = 170.0


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _tail(samples: list[float]) -> dict | None:
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 20:
        return None
    percentile = math.floor(100.0 * (n - 10) / n)
    ordered = sorted(samples)
    rank = max(0, math.ceil(percentile / 100.0 * n) - 1)
    return {"value": ordered[rank], "percentile": percentile, "samples": n}


def _spawn(args, out_dir: Path, setup_only: bool, deadline: float) -> dict:
    env = dict(os.environ, **BLAS_PINS, PYTHONHASHSEED="0", TMPDIR=str(out_dir))
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--root", str(ROOT),
        "--out-dir", str(out_dir),
    ]
    if setup_only:
        command.append("--setup-only")
    command += ["--started", repr(time.monotonic())]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker ran past the time limit") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = stdout.decode().strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1])


def _host_factor(workload: str, reference_s: list[float]) -> float:
    return statistics.fmean(reference_s) / calibration.nominal_s(workload)


def _end_to_end(workload: str, workers: list[dict]) -> tuple[dict, dict]:
    """Calibrated end-to-end figures, and the raw ones.

    workers holds every worker's result; the last one ran the timed phase.
    """
    result = workers[-1]
    passed = result["attempted"] - result["failed"]
    raw = {
        "ops_per_s": passed / math.fsum(result["op_s"]),
        "op_p50_s": statistics.median(result["op_s"]),
        "cpu_per_op_s": statistics.median(result["op_cpu_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(w["setup_s"] for w in workers),
    }
    factor = _host_factor(workload, result["reference_s"])
    calibrated = dict(
        raw,
        ops_per_s=raw["ops_per_s"] * factor,
        op_p50_s=raw["op_p50_s"] / factor,
        cpu_per_op_s=raw["cpu_per_op_s"] / factor,
        setup_s=statistics.median(
            w["setup_s"] / _host_factor(workload, w["setup_reference_s"])
            for w in workers
        ),
    )
    return calibrated, raw


def _per_layer(result: dict) -> dict[str, float]:
    # median_low keeps a count an integer and a time a measured value
    layers = result["layers"]
    out = {
        name: statistics.median_low(layer[name] for layer in layers)
        for name in layers[0]
    }
    untraced = statistics.fmean(result["op_s"])
    traced = statistics.fmean(result["traced_op_s"])
    out["trace_overhead"] = traced / untraced - 1.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "rhcircles" / "__init__.py").is_file():
        return _fail(f"no rhcircles sources under {ROOT / 'src'}")
    if not (ROOT / "problems").is_dir():
        return _fail(f"no problems directory under {ROOT}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    if args.seconds < 1:
        return _fail("--seconds must be at least 1")

    base = ROOT / ".bench_build" / "perfbench"
    out_dir = base / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        runs = 1 if args.trace else SETUP_RUNS
        workers = [_spawn(args, out_dir, k < runs - 1, deadline) for k in range(runs)]
    except RuntimeError as exc:
        return _fail(str(exc))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    result = workers[-1]
    warmup_problems = [p for w in workers for p in w["warmup_problems"]]

    reference = result["reference_s"]
    third = max(1, len(reference) // 3)
    beside = {
        "workload": args.workload,
        "seed": args.seed,
        "properties": result["properties"],
        "fail_rate": result["failed"] / result["attempted"],
        "op_tail_s": _tail(result["op_s"]),
        "setup_runs_s": [w["setup_s"] for w in workers],
        "host_factor": _host_factor(args.workload, reference),
        "host_factor_first_last_third": [
            _host_factor(args.workload, reference[:third]),
            _host_factor(args.workload, reference[-third:]),
        ],
        "worker_threads": result["threads"],
    }
    if args.trace:
        figures, listed = _per_layer(result), spec["per_layer"]
    else:
        figures, beside["uncalibrated"] = _end_to_end(args.workload, workers)
        listed = spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in figures]
    if missing:
        return _fail(f"no figure for {missing}")

    for problem in warmup_problems + result["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    attempted, failed = result["attempted"], result["failed"]
    print(json.dumps({"beside": beside}))
    print(json.dumps({
        "correct": failed == 0 and not warmup_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
            for m in listed
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
