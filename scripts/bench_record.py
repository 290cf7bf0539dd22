"""Assemble a BENCH_<n>.json performance record from perfbench outputs.

Run from the repo root, after the suite and one traced run:

    python3 perfbench/suite.py --seeds 1-10
    python3 perfbench/run.py --workload wheel-load-sweep --seed 1 --seconds 28 --trace 1
    python3 scripts/bench_record.py BENCH_6.json

It reads the newest `.perfbench/suite-<ts>.json` (per workload and
end-to-end metric: median, quartiles, spread, n; failed/attempted calls),
the suite's per-call host calibration times from `.perfbench/results/`,
and the seed-1 `--trace 1` record of wheel-load-sweep (per-layer metrics,
host facts, numpy/scipy versions), and writes them into one JSON file.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

RESULTS = os.path.join(".perfbench", "results")


def main(out_path: str) -> int:
    suite_path = max(glob.glob(os.path.join(".perfbench", "suite-*.json")),
                     key=os.path.getmtime)
    with open(suite_path, encoding="utf-8") as fh:
        suite = json.load(fh)
    with open(os.path.join(RESULTS, "wheel-load-sweep-seed1-trace1.json"),
              encoding="utf-8") as fh:
        traced = json.load(fh)

    workloads, ref_s = {}, []
    for name, data in suite.items():
        runs = data["runs"]
        workloads[name] = {
            "metrics": data["metrics"],
            "seeds": [r["seed"] for r in runs],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
        }
        for seed in workloads[name]["seeds"]:
            with open(os.path.join(RESULTS, f"{name}-seed{seed}-trace0.json"),
                      encoding="utf-8") as fh:
                ref_s += [c["ref_s"] for c in json.load(fh)["calls"]]

    record = {
        "suite": {"source": os.path.basename(suite_path), "workloads": workloads,
                  "host.ref_s": {"median": statistics.median(ref_s),
                                 "min": min(ref_s), "max": max(ref_s),
                                 "n": len(ref_s)}},
        "trace": {"workload": traced["workload"], "seed": traced["seed"],
                  "failed": traced["failed"], "attempted": traced["attempted"],
                  "metrics": traced["metrics"]},
        "host": traced["host"],
        "versions": dict(traced["versions"], python=traced["host"]["python"]),
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out_path} from {suite_path}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
