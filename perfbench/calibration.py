"""The host-speed reference: fixed loops timed beside every op.

The benchmark shares a 2-core KVM guest whose speed drifts: over a few
minutes the same op can take 1.8 s and then 3.1 s, and a fixed numpy loop
in the same process slows with it.  The end-to-end times are therefore
reported as calibrated seconds, seconds on a host at which each workload's
reference kernels take their nominal time: a run's raw time divided by
its host factor, the mean of the kernel times measured in the run over
their nominal sum.  The kernels are fixed code of the benchmark, never of
the program, so a change to the program moves the op times and not the
factor.

Each workload uses the kernels that resemble where its ops spend their
time (traced: the lattice and dense ops are mostly LAPACK, a cli pass is
mostly interpreted per-point sampling), repeated before every op so that
calibration takes about 4 % of the loop.  The kernels run on one thread.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((256, 256))
_C = _rng.standard_normal((160, 160)) + 1j * _rng.standard_normal((160, 160))
_Z = _rng.standard_normal(64) + 1j * _rng.standard_normal(64)


def _blas() -> None:
    a = _A
    for _ in range(10):
        a = np.tanh(a @ a * (1.0 / 256.0))


def _svd() -> None:
    scipy.linalg.svdvals(_C)


def _python() -> None:
    total, table = 0, {}
    for i in range(60_000):
        total += i * i % 7
        table[i & 255] = total


def _small_numpy() -> None:
    z = _Z
    for _ in range(400):
        w = np.exp(1j * np.angle(z)) * 0.5 + z
        z = w / np.abs(w).max()


# kernel -> (function, nominal seconds: its mean on the guest the benchmark
# was defined on, Xeon, OpenBLAS, Python 3.11)
KERNELS = {
    "blas": (_blas, 0.0118),
    "svd": (_svd, 0.0044),
    "python": (_python, 0.0080),
    "small_numpy": (_small_numpy, 0.0047),
}

# workload -> (kernels, repetitions before each op)
PLAN = {
    "lattice": (("blas", "svd"), 2),
    "dense": (("blas", "svd"), 4),
    "cli": (("python", "small_numpy"), 8),
}


def nominal_s(workload: str) -> float:
    kernels, _ = PLAN[workload]
    return sum(KERNELS[k][1] for k in kernels)


def sample_s(workload: str) -> float:
    """Mean wall time of one pass over the workload's kernels."""
    kernels, repetitions = PLAN[workload]
    functions = [KERNELS[k][0] for k in kernels]
    t0 = time.perf_counter()
    for _ in range(repetitions):
        for function in functions:
            function()
    return (time.perf_counter() - t0) / repetitions
