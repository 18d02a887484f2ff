#!/usr/bin/env python3
"""lagspec benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload mc-moments --seed 1 --seconds 20 --trace 0

Run from the repository root (the package is imported from ``src``). With
``--trace 0`` the run measures the workload untraced and prints the
end-to-end metrics; with ``--trace 1`` it runs the workload and the layer
probe with spans and prints the per-layer metrics. Every line but the last
is a human-readable report (environment, every named metric with its
unit, sample counts, output fingerprints); the last line is the result
object. A detailed JSON copy and, when traced, the spans go to
``.bench_out/``. Exit status: 0 when every correctness oracle held, 1 when
one was violated, 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

import harness
import layers
import reference_task
import workloads
from gauge import Gauge

HERE = os.path.dirname(os.path.abspath(__file__))

# Cold imports of lagspec.cli measured per run for setup_s, spread over the
# run's work and scaled like every other time (gauge.py), after one
# discarded import that fills the bytecode cache.
SETUP_SAMPLES = 3

E2E_UNITS = {"setup_s": "s", "work_per_s": "1/s", "op_p50_s": "s", "peak_rss_mb": "MB"}

_IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import lagspec.cli; "
                   "print(repr(time.perf_counter() - t))")


def cold_import_s(root: str, env: dict, scratch: str) -> float:
    """Seconds of ``import lagspec.cli`` in a fresh interpreter."""
    res = harness.run_proc([sys.executable, "-c", _IMPORT_SNIPPET], root, env, scratch)
    if res.returncode != 0:
        raise RuntimeError(f"import lagspec.cli failed:\n{res.stderr[-2000:]}")
    return float(res.stdout.strip())


# measure-draws runs its operations in this process, on the BLAS threads;
# it is gauged by an in-process task of the same kind. The CLI workloads are
# gauged by a fresh interpreter's start-up (see reference_task.py).
IN_PROCESS_REFERENCE = {"measure-draws"}


def reference_s(root: str, env: dict, scratch: str) -> float:
    """Wall seconds of the start-up reference task (``reference_task.py``)."""
    argv = [sys.executable, os.path.join(HERE, "reference_task.py")]
    res = harness.run_proc(argv, root, env, scratch)
    if res.returncode != 0:
        raise RuntimeError(f"reference task failed:\n{res.stderr[-2000:]}")
    return res.wall_s


def _print_rows(title: str, rows) -> None:
    print(title)
    for name, value, unit, note in rows:
        print(f"  {name:<44} {value:>14.6g} {unit:<6} {note}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # On SIGTERM unwind like an exception, so that run_proc kills and reaps
    # the child it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.path.dirname(HERE)
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "lagspec", "cli.py")):
        print(f"error: no lagspec package under {src}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    out_dir = os.path.join(root, ".bench_out")
    scratch = os.path.join(out_dir, "tmp")
    os.makedirs(scratch, exist_ok=True)

    traced = bool(args.trace)
    tracer = harness.Tracer() if traced else harness.NullTracer()
    env = harness.environment(root, args.workload, args.seed, args.seconds, traced)
    child_env = harness.python_env(root)

    if traced:
        gauge = Gauge()
    else:
        if args.workload in IN_PROCESS_REFERENCE:
            reference, nominal = reference_task.dense_task, reference_task.DENSE_S
            reference()  # loads LAPACK and builds the matrix; not counted
        else:
            def reference():
                return reference_s(root, child_env, scratch)
            nominal = reference_task.STARTUP_S
        gauge = Gauge(reference, nominal, lambda: cold_import_s(root, child_env, scratch),
                      SETUP_SAMPLES)
        cold_import_s(root, child_env, scratch)  # fills the bytecode cache; not counted
    ctx = workloads.Context(root=root, seed=args.seed, seconds=args.seconds, tracer=tracer,
                            scratch=scratch, env=child_env, gauge=gauge)
    tally = harness.Tally()
    print("env " + json.dumps(env, sort_keys=True))

    if traced:
        outcome = workloads.WORKLOADS[args.workload](ctx, tally)
        probe_tally = harness.Tally()
        derived = layers.probe(ctx, probe_tally)
        metrics = layers.per_layer_metrics(tracer, derived)
        extra_correct = probe_tally.correct
        rows = [(k, v, u, "") for k, (v, u) in metrics.items()]
        _print_rows(f"per-layer ({args.workload}, traced)", rows)
        trace_path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.dump(trace_path, {"schema": "perfbench.trace/1", "env": env})
        print(f"spans: {len(tracer.spans)} written to {os.path.relpath(trace_path, root)}")
    else:
        outcome = workloads.WORKLOADS[args.workload](ctx, tally)
        s = harness.timing(gauge.setup_times())
        metrics = {"setup_s": (s["median"], "s")}
        metrics.update(outcome.e2e)
        metrics = {k: metrics[k] for k in E2E_UNITS}
        extra_correct = True
        rows = [("setup_s", s["median"], "s",
                 f"cold import lagspec.cli, median of n={s['n']} spread over the run"),
                ("setup_s.raw_wall", harness.median([w for w, _ in gauge.setup_samples]), "s",
                 "unscaled"),
                ("reference_s", harness.median(gauge.refs), "s",
                 f"reference task, median of n={len(gauge.refs)}; scaled times assume "
                 f"{gauge.nominal} s")] + outcome.named
        _print_rows(f"end-to-end ({args.workload})", rows)
        print("result keys: " + ", ".join(f"{k} = {v[0]:.6g} {v[1]}" for k, v in metrics.items()))

    for note in tally.notes:
        print(f"  ! {note}")
    detail = {"env": env, "counts": tally.counts, "notes": tally.notes,
              "named": [{"name": n, "value": v, "unit": u, "note": t}
                        for n, v, u, t in outcome.named],
              "detail": outcome.detail, "reference_s": gauge.refs,
              "setup_samples_s": gauge.setup_samples,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    detail_path = os.path.join(out_dir,
                               f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(detail_path, "w") as fh:
        json.dump(detail, fh, indent=1, default=str)
    print(f"counts: {tally.counts}; detail in {os.path.relpath(detail_path, root)}")

    line = harness.result_line(tally, metrics, extra_correct)
    print(line, flush=True)
    return 0 if json.loads(line)["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
