"""Run every workload over several seeds, interleaved, and summarise the spread.

    python3 perfbench/suite.py --seeds 1-10

Runs `perfbench/run.py --trace 0` for BENCHMARK.json's `run_seconds` once
per (seed, workload), every workload, one run at a time, and rotates the
workload order from seed to seed so that host drift falls on every workload
alike. For each workload and end-to-end metric it prints the median over
runs, the quartiles from `statistics.quantiles(values, n=4)`, the spread
(Q3 - Q1) / median, the metric's bound and n. A spread at or above a third
of the bound is marked `!`. It also pools the per-call wall times of all
runs into a tail percentile. The summary goes to
`.perfbench/suite-<unix time>.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench_run  # noqa: E402


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def spread(values: list):
    """(q1, median, q3, (q3 - q1) / median) of the values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return q1, med, q3, (q3 - q1) / abs(med) if med else 0.0


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    names = list(bench_run.WORKLOADS)
    metrics = bench["end_to_end"]

    results = {name: [] for name in names}
    walls = {name: [] for name in names}
    for i, seed in enumerate(parse_seeds(args.seeds)):
        for name in names[i % len(names):] + names[:i % len(names)]:
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                                   "--workload", name, "--seed", str(seed),
                                   "--seconds", str(bench["run_seconds"]),
                                   "--trace", "0"],
                                  capture_output=True, text=True, timeout=900)
            took = time.perf_counter() - start
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results[name].append(dict(result, seed=seed, run_s=took))
            record = os.path.join(".perfbench", "results",
                                  f"{name}-seed{seed}-trace0.json")
            with open(record, encoding="utf-8") as fh:
                walls[name] += [c["wall_s"] for c in json.load(fh)["calls"]]
            print(f"{name} seed {seed}: {took:.1f} s, correct {result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)

    summary = {}
    for name in names:
        runs = results[name]
        print(f"\n{name}: {len(runs)} runs, longest {max(r['run_s'] for r in runs):.1f} s, "
              f"failed {sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}")
        summary[name] = {"runs": runs, "metrics": {}}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3, rel = spread(values) if len(values) > 1 else (values[0],) * 3 + (0.0,)
            bound = m["bound"]
            flag = "!" if rel >= bound / 3 else " "
            print(f" {flag}{m['name']:42s} median {med:12.6g} {m['unit']:6s} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {rel:7.2%} bound {bound:.0%} "
                  f"n={len(values)}")
            summary[name]["metrics"][m["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": rel, "n": len(values)}
        tail = bench_run.tail(walls[name])
        if tail:
            print(f"  wall_s over all calls: median {statistics.median(walls[name]):.6g} s, "
                  f"p{tail[0]} {tail[1]:.6g} s, n={len(walls[name])}")
    path = os.path.join(".perfbench", f"suite-{int(time.time())}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
