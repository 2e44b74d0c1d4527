"""One benchmark worker process: set up a workload, then run it closed-loop.

run.py starts this file and passes the monotonic time at which it started
the process, so set-up time covers interpreter start, imports, seeded
input generation and one untimed, checked warm-up op.  The worker is the
only caller: it issues the next op as soon as the previous one returns.
Before every op, and a few times right after set-up, it times the
workload's reference kernels (calibration.py), outside the op times.  It
prints one JSON object with its raw figures on its last line of output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

# One BLAS thread.  Set on import, before anything loads numpy; run.py and
# smoke.py import this module for the same pins.
BLAS_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(BLAS_PINS)

# Reference samples taken right after set-up, to calibrate set-up time.
SETUP_SAMPLES = 4


def _thread_count() -> int:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return -1


def run_op(workload):
    try:
        return workload.op()
    except Exception as exc:  # an op that raises is a failed op
        return [f"{type(exc).__name__}: {exc}"], {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    import rhcircles

    if Path(rhcircles.__file__).resolve().parent.parent != src:
        print(f"worker: rhcircles imported from {rhcircles.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    import calibration
    import workloads

    workload = workloads.make(
        args.workload, args.seed, args.out_dir, args.root / "problems"
    )
    warmup_problems, _ = run_op(workload)
    ready = time.monotonic()
    setup_s = ready - args.started
    setup_reference_s = [
        calibration.sample_s(args.workload) for _ in range(SETUP_SAMPLES)
    ]
    if args.setup_only:
        print(json.dumps({
            "setup_s": setup_s,
            "setup_reference_s": setup_reference_s,
            "warmup_problems": warmup_problems,
        }))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()

    op_s, op_cpu_s, traced_op_s, layers, problems = [], [], [], [], []
    reference_s = []
    failed = 0
    deadline = time.perf_counter() + args.seconds
    index = 0
    while True:
        reference_s.append(calibration.sample_s(args.workload))
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.current_op = index
            first_span = len(tracer.name)
            tracer.install()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            found, extras = run_op(workload)
        finally:
            t1, c1 = time.perf_counter(), time.process_time()
            if traced:
                tracer.uninstall()
        if traced:
            traced_op_s.append(t1 - t0)
        else:
            op_s.append(t1 - t0)
            op_cpu_s.append(c1 - c0)
        if found:
            failed += 1
            problems += found
        if traced:
            layer = tracer.summarize(first_span, len(tracer.name))
            layer["cli.runner_s"] = extras.get("cli.runner_s", 0.0)
            layer["cli.csv_bytes"] = extras.get("cli.csv_bytes", 0)
            layer["cli.after_runner_s"] = layer["cli.main_s"] - layer["cli.runner_s"]
            layers.append(layer)
        index += 1
        enough = index >= (2 if tracer is not None else 1)
        if enough and time.perf_counter() >= deadline:
            break

    if tracer is not None:
        tracer.write(args.out_dir.parent / f"spans-{args.workload}-seed{args.seed}.npz")

    print(json.dumps({
        "setup_s": setup_s,
        "setup_reference_s": setup_reference_s,
        "warmup_problems": warmup_problems,
        "reference_s": reference_s,
        "op_s": op_s,
        "traced_op_s": traced_op_s,
        "layers": layers,
        "attempted": index,
        "failed": failed,
        "problems": problems[:20],
        "op_cpu_s": op_cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "threads": _thread_count(),
        "properties": workload.properties(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
