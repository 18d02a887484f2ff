#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload cli-short --seeds 1-10 --seconds 20

Runs the benchmark once per seed, one run at a time, and prints for each
metric the median and the inter-quartile distance over the median
(``statistics.quantiles(values, n=4)``) next to a third of the bound that
``BENCHMARK.json`` fixes for it. Exit status 1 if any run was not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import harness

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    results = []
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        took = time.perf_counter() - start
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            return 2
        result = json.loads(lines[-1])
        results.append({"seed": seed, "exit": proc.returncode, **result})
        print(f"seed {seed}: {took:.1f} s, exit {proc.returncode} correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)

    print(f"{'metric':<16} {'median':>12} {'iqr/median':>11} {'bound/3':>8}")
    for name, bound in bounds.items():
        vals = [r["metrics"][name]["value"] for r in results]
        spread = harness.quartile_spread(vals) if len(vals) > 1 else float("nan")
        flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
        print(f"{name:<16} {harness.median(vals):>12.6g} {spread:>11.4f} "
              f"{(bound or 0) / 3:>8.4f}{flag}")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
