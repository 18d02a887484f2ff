"""Shared machinery of the lagspec benchmark.

Seed derivation for generated inputs, order statistics (median and the
tail rule), outcome accounting, a child-process runner that reports wall
time and peak resident memory per process, an in-memory span tracer, the
environment block, and the one-line result schema the harness prints last.
Nothing here imports lagspec: the program under test is only reached
through the workloads and the layer probe.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import importlib.util
import json
import os
import platform
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass, field

_MASK64 = (1 << 64) - 1

# A tail percentile is only reported when at least this many samples lie
# beyond it; fewer would make the "tail" a single noisy observation.
TAIL_BEYOND = 10

def derive(master: int, index: int) -> int:
    """Child seed ``index`` of ``master`` (splitmix64 finalizer).

    The same map as the package's replicate-seed derivation, kept here so
    that the benchmark generates its inputs without calling the program.
    """
    x = (int(master) + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


# ---------------------------------------------------------------------------
# order statistics


def median(values) -> float:
    vals = sorted(values)
    if not vals:
        raise ValueError("median of no samples")
    mid = len(vals) // 2
    return float(vals[mid]) if len(vals) % 2 else (vals[mid - 1] + vals[mid]) / 2.0


def tail(values, beyond: int = TAIL_BEYOND):
    """Highest nearest-rank percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, n)``, or None when that percentile would
    not lie above the median (fewer than 2 beyond + 1 samples). The value
    is the (beyond+1)-th largest sample; its percentile is 100 (n - beyond) / n.
    """
    vals = sorted(values)
    n = len(vals)
    if n < 2 * beyond + 1:
        return None
    return float(vals[n - beyond - 1]), 100.0 * (n - beyond) / n, n


def quartile_spread(values) -> float:
    """Inter-quartile distance over the median (``statistics.quantiles``, n=4)."""
    import statistics

    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2)


def timing(values) -> dict:
    """Median, tail and sample count of a list of durations."""
    out = {"median": median(values), "n": len(values)}
    t = tail(values)
    if t is not None:
        out["tail"], out["tail_pct"], _ = t
    return out


# ---------------------------------------------------------------------------
# outcome accounting

OK = "ok"
TYPED = "typed_error"  # documented failure: exit 2, ValueError, NumericalError
CRASH = "crash"  # traceback or any other exit
WRONG = "wrong"  # a result was produced and an oracle rejected it
KINDS = (OK, TYPED, CRASH, WRONG)


@dataclass
class Tally:
    """Attempted operations, how each one ended, and which broke an oracle.

    Crashes and wrong results always break one. A documented error breaks
    one unless the caller records it with ``typed_ok``, which only the
    small-beta draws do: valid library inputs there may raise one today.
    """

    counts: dict = field(default_factory=lambda: {k: 0 for k in KINDS})
    violations: int = 0
    notes: list = field(default_factory=list)

    def record(self, kind: str, note: str = "", typed_ok: bool = False) -> None:
        if kind not in self.counts:
            raise ValueError(f"unknown outcome {kind!r}")
        self.counts[kind] += 1
        if kind in (CRASH, WRONG) or (kind == TYPED and not typed_ok):
            self.violations += 1
        if kind != OK and len(self.notes) < 20:
            self.notes.append(f"{kind}: {note}"[:300])

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())

    @property
    def failed(self) -> int:
        return self.attempted - self.counts[OK]

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def correct(self) -> bool:
        return self.violations == 0


def classify_exit(returncode: int, stderr: str) -> str:
    """Outcome kind of a CLI process from its exit status and stderr.

    Exit 0 is provisionally ok (the oracles decide), exit 1 is a failed
    statistical verdict, exit 2 without a traceback is a typed error.
    """
    if "Traceback (most recent call last)" in stderr:
        return CRASH
    if returncode == 0:
        return OK
    if returncode == 1:
        return WRONG
    if returncode == 2:
        return TYPED
    return CRASH


# ---------------------------------------------------------------------------
# child processes


@dataclass
class ProcResult:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def run_proc(argv, cwd: str, env: dict, scratch: str, timeout: float = 150.0) -> ProcResult:
    """Run one child to completion; time it and read its own peak RSS.

    The child is reaped with ``wait4`` so that the resource usage belongs
    to this process alone. Output goes through unlinked files inside
    ``scratch`` so that a chatty child can never block on a full pipe. A
    child that outlives ``timeout`` is killed and reported as a crash
    (exit -9).
    """
    with tempfile.TemporaryFile(dir=scratch) as out, tempfile.TemporaryFile(dir=scratch) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ProcResult(
            returncode=proc.returncode,
            wall_s=wall,
            peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
            stdout=out.read().decode("utf-8", "replace"),
            stderr=err.read().decode("utf-8", "replace"),
        )


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """In-memory spans: name, start, end, parent and a per-replicate/draw id.

    Spans are kept as plain lists and written out once, when the run ends.
    A span whose body raises is marked failed and the exception propagates.
    """

    enabled = True

    def __init__(self):
        self.spans = []  # [id, parent, trace_id, name, start, end, failed, attrs]
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str, trace_id=None, **attrs):
        parent = self._stack[-1] if self._stack else None
        if trace_id is None and parent is not None:
            trace_id = self.spans[parent][2]
        rec = [len(self.spans), parent, trace_id, name, 0.0, 0.0, False, attrs]
        self.spans.append(rec)
        self._stack.append(rec[0])
        rec[4] = time.perf_counter()
        try:
            yield rec
        except BaseException:
            rec[6] = True
            raise
        finally:
            rec[5] = time.perf_counter()
            self._stack.pop()

    def select(self, name: str, **attrs):
        """Spans named ``name`` whose attributes include ``attrs``."""
        return [s for s in self.spans
                if s[3] == name and all(s[7].get(k) == v for k, v in attrs.items())]

    def dump(self, path: str, header: dict) -> None:
        payload = dict(header)
        payload["span_fields"] = ["id", "parent", "trace", "name", "start_s",
                                  "end_s", "failed", "attrs"]
        payload["spans"] = self.spans
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


class NullTracer:
    """The untraced stand-in: same interface, records nothing."""

    enabled = False

    @contextlib.contextmanager
    def span(self, name: str, trace_id=None, **attrs):
        yield None


# ---------------------------------------------------------------------------
# environment and provenance


def _git_commit(root: str) -> str:
    """HEAD commit read from ``root/.git`` without leaving the checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _getconf(name: str):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(root: str, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import numpy
    import scipy

    llc = _getconf("LEVEL3_CACHE_SIZE") or _getconf("LEVEL2_CACHE_SIZE")
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": _git_commit(root),
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "llc_bytes": llc,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                "MKL_NUM_THREADS") if k in os.environ},
        "client": "closed loop, one client, one operation at a time",
    }


# ---------------------------------------------------------------------------
# the result line


def result_line(tally: Tally, metrics: dict, extra_correct: bool = True) -> str:
    """The last stdout line: correctness, attempts, failures and metrics.

    ``metrics`` maps name -> (value, unit).
    """
    payload = {
        "correct": bool(tally.correct and extra_correct),
        "attempted": int(tally.attempted),
        "failed": int(tally.failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    return json.dumps(payload)


def python_env(root: str) -> dict:
    """Environment for child interpreters: the package from ``src``, nothing else changed."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
