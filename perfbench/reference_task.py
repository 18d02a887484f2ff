"""Fixed tasks that gauge the host's current speed; they call no lagspec code.

    python3 perfbench/reference_task.py

Run as a script, it is the reference for the CLI workloads: it starts an
interpreter and imports numpy, scipy.linalg and scipy.integrate, then draws
chi-squares in a short Python loop, the start-up every CLI command pays
first and the kind of work an mc-moments replicate does, on one thread.

``dense_task`` is the reference for measure-draws, whose operations run in
the benchmark's own process: a dense symmetric eigensolve on the default
BLAS threads, like a draw, and a Python loop of matrix-vector steps, like
an inversion. Each workload is gauged by a task like its own operations: a
host where another process holds one of the two cores slows two-thread
BLAS work far more than one-thread work, so scaling one by the other added
noise in trials instead of removing it.

The inputs are fixed, so a task's time changes only with the host, never
with the program under test.
"""

import time

import numpy as np

# Median seconds of each task on the 2-core x86-64 VM the bounds were set
# on (over 90 and 180 samples). They only fix the unit: a scaled time reads
# as seconds on a host as fast as that VM was.
STARTUP_S = 1.0
DENSE_S = 0.09

_DENSE = None


def dense_task() -> float:
    """Seconds of one in-process dense reference task."""
    global _DENSE
    if _DENSE is None:
        rng = np.random.default_rng(12345)
        a = rng.standard_normal((700, 700))
        _DENSE = a + a.T
    a = _DENSE
    start = time.perf_counter()
    x = np.linalg.eigh(a)[1][:, 0]
    for _ in range(300):
        x = a @ x
        x /= np.linalg.norm(x)
    return time.perf_counter() - start


def _startup_task() -> None:
    import scipy.integrate  # noqa: F401  (the imports are part of the task)
    import scipy.linalg  # noqa: F401

    rng = np.random.default_rng(12345)
    total = 0.0
    shapes = np.arange(1.0, 400.0)
    for _ in range(1000):
        x = rng.chisquare(shapes)
        total += float(np.dot(x, x))
    print(repr(total))


if __name__ == "__main__":
    _startup_task()
