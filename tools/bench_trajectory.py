#!/usr/bin/env python3
"""Benchmark trajectory: repeated perfbench runs, summarised into BENCH_<label>.json.

    python3 tools/bench_trajectory.py change=. [parent=../lagspec-parent]

Each ``LABEL=CHECKOUT`` names a checkout of this repository (its
``perfbench/run.py`` and ``src/`` are the ones run). Every workload that
``BENCHMARK.json`` declares runs untraced (``--trace 0``), for its
``run_seconds``, once per seed in ``SEEDS`` in every checkout, each with
a fresh, empty ``PYTHONPYCACHEPREFIX``: a working tree with old bytecode
caches and a new export then both compile from source. The runs
of different checkouts alternate, and which runs first alternates from
seed to seed, so a drift of the host's speed hits them alike.
``BENCH_<label>.json`` is written to the repository root for each label.
It holds, per workload, the median and quartiles of every end-to-end
metric, the runs' ``correct``, ``attempted`` and ``failed`` counts, each
run's wall seconds, and the per-run values; plus the env block perfbench
prints and the checkout's git sha. With two labels, each workload is then
compared on stdout: each side's failed and attempted operations over all
runs, and per end-to-end metric each side's median [q1, q3] and
interquartile range over median, and how many seed pairs each side wins
(a tie counts for neither). A metric is marked ``unresolved`` when either
side's interquartile range over median exceeds the metric's bound in
``BENCHMARK.json``, unless every run of one side beats every run of the
other: the runs then spread too widely to tell a change within the bound.
Exit status: 0 when every run held its correctness oracles, 1 otherwise,
2 when a run could not complete.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Run facts that differ between the runs of one file.
PER_RUN_ENV = ("workload", "seed")
# Ten runs per workload and checkout: enough alternating pairs to tell a
# gain from the spread of the runs.
SEEDS = range(1, 11)


def _git(checkout: str, *args: str) -> str:
    res = subprocess.run(["git", "-C", checkout, *args], capture_output=True, text=True)
    return res.stdout.strip() if res.returncode == 0 else ""


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> tuple:
    """One untraced perfbench run: ``(env block, result object)``.

    The run's PYTHONPYCACHEPREFIX is a fresh, empty directory, so that every
    checkout compiles its modules from source, whatever ``__pycache__`` it
    holds. The result also carries the run's wall seconds, as ``wall_s``.
    """
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    with tempfile.TemporaryDirectory() as cache:
        env = {**os.environ, "PYTHONPYCACHEPREFIX": cache}
        start = time.perf_counter()
        res = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, env=env)
        wall = time.perf_counter() - start
    lines = res.stdout.splitlines()
    if res.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited {res.returncode}:\n"
                           f"{res.stderr[-2000:]}")
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return env, {**json.loads(lines[-1]), "wall_s": wall}


def summarise(results: list) -> dict:
    """One workload's runs: counts and, per metric, median, quartiles and values."""
    metrics = {}
    for name, cell in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        metrics[name] = {"unit": cell["unit"], "median": median, "q1": q1, "q3": q3,
                         "values": values}
    return {
        "runs": len(results),
        "correct": all(r["correct"] for r in results),
        "attempted": [r["attempted"] for r in results],
        "failed": [r["failed"] for r in results],
        "wall_s": [r["wall_s"] for r in results],
        "metrics": metrics,
    }


def compare(workload: str, labels: tuple, summaries: tuple, metrics: dict) -> list:
    """Lines comparing two labels' summaries of one workload: failures, then each metric.

    ``metrics`` maps each metric name to its BENCHMARK.json entry, whose
    ``better`` is "lower" or "higher" and whose ``bound`` is the relative
    change it allows. Run i of one side is paired with run i of the other,
    which ran the same seed.
    """
    counts = ", ".join(f"{label} {sum(s['failed'])}/{sum(s['attempted'])}"
                       for label, s in zip(labels, summaries))
    lines = [f"{workload} failed/attempted operations: {counts}"]
    for name in summaries[0]["metrics"]:
        cells = [s["metrics"][name] for s in summaries]
        better, bound = metrics[name]["better"], metrics[name]["bound"]
        sign = -1.0 if better == "lower" else 1.0
        gains = [sign * (a - b) for a, b in zip(cells[0]["values"], cells[1]["values"])]
        wins = (sum(g > 0 for g in gains), sum(g < 0 for g in gains))
        spreads = [(c["q3"] - c["q1"]) / abs(c["median"]) if c["median"] else math.inf
                   for c in cells]
        first, second = (c["values"] for c in cells)
        separated = max(first) < min(second) or max(second) < min(first)
        sides = ", ".join(f"{label} {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}] "
                          f"IQR/median {spread:.3g}"
                          for label, c, spread in zip(labels, cells, spreads))
        line = (f"{workload} {name} ({better} is better, bound {bound:g}): {sides}; "
                f"pairs won of {len(gains)}: {labels[0]} {wins[0]}, {labels[1]} {wins[1]}")
        if max(spreads) > bound and not separated:
            line += "; unresolved: IQR/median above the bound"
        lines.append(line)
    return lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("checkouts", nargs="+", metavar="LABEL=CHECKOUT")
    args = parser.parse_args(argv)
    targets = {}
    for item in args.checkouts:
        label, sep, path = item.partition("=")
        if not sep or not label or not os.path.isfile(os.path.join(path, "perfbench", "run.py")):
            parser.error(f"{item!r} is not LABEL=CHECKOUT with a perfbench/run.py")
        targets[label] = os.path.abspath(path)
    args.targets = targets
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    workloads = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    seeds = list(SEEDS)
    envs = {}
    results = {label: {w: [] for w in workloads} for label in args.targets}
    try:
        for seed in seeds:
            order = list(args.targets.items())
            if seed % 2 == 0:
                order.reverse()
            for workload in workloads:
                for label, checkout in order:
                    env, result = run_once(checkout, workload, seed, seconds)
                    envs.setdefault(label, env)
                    results[label][workload].append(result)
                    metrics = ", ".join(f"{k} {v['value']:.6g}"
                                        for k, v in result["metrics"].items())
                    print(f"{label} {workload} seed {seed}: correct {result['correct']}, "
                          f"{metrics}", flush=True)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    all_correct = True
    summaries = {}
    for label, checkout in args.targets.items():
        env = {k: v for k, v in envs[label].items() if k not in PER_RUN_ENV}
        summaries[label] = {w: summarise(rs) for w, rs in results[label].items()}
        all_correct &= all(s["correct"] for s in summaries[label].values())
        doc = {
            "schema": "lagspec.bench_trajectory/1",
            "label": label,
            "git_sha": _git(checkout, "rev-parse", "HEAD"),
            "git_dirty": bool(_git(checkout, "status", "--porcelain", "--untracked-files=no")),
            "seeds": seeds,
            "seconds": seconds,
            "command": "perfbench/run.py --workload W --seed S --seconds T --trace 0",
            "interleaved_with": [other for other in args.targets if other != label],
            "env": env,
            "workloads": summaries[label],
        }
        path = os.path.join(ROOT, f"BENCH_{label}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(f"wrote {path}")
    if len(summaries) == 2:
        metrics = {m["name"]: m for m in benchmark["end_to_end"]}
        for workload in workloads:
            for line in compare(workload, tuple(summaries),
                                tuple(s[workload] for s in summaries.values()), metrics):
                print(line)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
