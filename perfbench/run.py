"""Benchmark of the hpsusp CLI: one workload, one seed, one result line.

    python3 perfbench/run.py --workload wheel-load-sweep --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it measures that checkout's `src`.
`--trace 0` makes fresh-process CLI calls of the workload, closed loop (one
call at a time, each waiting for the previous one), for `--seconds`, the
first three of them each after a call of the workload's one-time set-up
step, and checks the output of every call. It prints every end-to-end metric of BENCHMARK.json.
`--trace 1` makes the traced run instead (see layers.py), which replays
each pipeline once whatever `--seconds` says, and prints every per-layer
metric. The last line of standard output is the JSON result; a
record of every call goes to `.perfbench/results/`.

End-to-end metrics, each the median over the run's calls:
  wall_s           wall time of one CLI call, CSV in to CSV out
  samples_per_s    trace samples processed (emitted, for simulate) per second of wall_s
  peak_rss_mb      peak RSS of the CLI child, from os.wait4
  setup_s          the one-time step before the command (median of 3): `build-table`
                   on wheel-load-sweep; on the other workloads, which need none,
                   starting the CLI (`import hpsusp.cli` in a fresh interpreter)
  output_rel_rmse  the output's error against a reference: the wheel load against
                   the `wheel` functions applied to the truth channels, as a share of
                   the mean load (wheel-load-sweep); the force against the embedded
                   truth, as a share of its range (estimate-iterative); the simulated
                   wheel load against the `wheel` functions applied to the simulated
                   strut channels (quarter-car-sim)
A call fails on a non-zero exit or a failed output check. Failed calls are
counted (error_rate = failed / attempted) and never retried.
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

import host

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("wheel-load-sweep", "estimate-iterative", "quarter-car-sim")
SETUP_REPEATS = 3
MIN_CALLS = 3


def tail(values: list):
    """(percentile, value): the highest whole percentile with >= 10 samples beyond it.

    None unless that percentile lies above the median (more than 20 values).
    """
    n = len(values)
    pct = math.floor(100 * (n - 10) / n) if n else 0
    if pct <= 50:
        return None
    return pct, sorted(values)[math.ceil(pct / 100 * n) - 1]


class Worker:
    """The helper process that makes the inputs and checks the outputs."""

    def __init__(self, env: dict, checkout: str):
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "workloads.py")],
                                     env=env, cwd=checkout, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def ask(self, **request) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the input/check helper exited")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _checked(call: dict, worker: Worker, op: str | None) -> dict:
    """Attach the output check to a finished call; a non-zero exit is a failure."""
    output = call.pop("output")
    if call["exit"] != 0:
        call.update(values={}, problems=[f"exit {call['exit']}: {output}"])
    elif op is None:
        call.update(values={}, problems=[])
    else:
        call.update(worker.ask(op=op))
    return call


def untraced_run(args, checkout: str, workdir: str) -> dict:
    env = host.child_env(checkout)
    worker = Worker(env, checkout)
    try:
        spec = worker.ask(op="inputs", workload=args.workload, seed=args.seed,
                          workdir=workdir)
        code, argv, op = (host.CLI, spec["setup_argv"], "check_setup") \
            if spec["setup_argv"] else (host.IMPORT_CLI, [], None)
        setups, calls = [], []
        start = time.perf_counter()
        while len(calls) < MIN_CALLS or time.perf_counter() - start < args.seconds:
            # set-up calls alternate with the first command calls, so that
            # setup_s samples the run's span of host speed as wall_s does
            if len(setups) < SETUP_REPEATS:
                setups.append(_checked(host.run_python(code, argv, env, checkout),
                                       worker, op))
            ref = host.ref_s()
            call = _checked(host.run_python(host.CLI, spec["argv"], env, checkout),
                            worker, "check")
            call["ref_s"] = ref
            calls.append(call)
    finally:
        worker.close()

    checked = [c["values"]["output_rel_rmse"] for c in calls
               if "output_rel_rmse" in c["values"]]
    if not checked:
        raise RuntimeError("no CLI call wrote a readable output: "
                           + "; ".join(calls[0]["problems"]))
    wall = statistics.median(c["wall_s"] for c in calls)
    metrics = {
        "wall_s": wall,
        "samples_per_s": spec["n"] / wall,
        "peak_rss_mb": statistics.median(c["rss_mb"] for c in calls),
        "setup_s": statistics.median(c["wall_s"] for c in setups),
        "output_rel_rmse": statistics.median(checked),
    }
    every = setups + calls
    return {"metrics": metrics, "setups": setups, "calls": calls,
            "attempted": len(every), "failed": sum(bool(c["problems"]) for c in every),
            "versions": {"numpy": spec["numpy"], "scipy": spec["scipy"]},
            "samples": spec["n"], "argv": spec["argv"], "setup_argv": spec["setup_argv"]}


def report(args, spec: dict, run: dict) -> None:
    """Human-readable lines: every metric by name, with its unit and n."""
    facts = dict(run["host"], **run.get("versions", {}))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}; "
          + ", ".join(f"{k} {v}" for k, v in facts.items()))
    if args.trace:
        for name, value in run["metrics"].items():
            print(f"  {name:42s} {value:14.6g} {spec[name]}")
    else:
        calls, setups = run["calls"], run["setups"]
        walls = [c["wall_s"] for c in calls]
        counts = {"setup_s": len(setups)}
        for name, value in run["metrics"].items():
            n = counts.get(name, len(calls))
            print(f"  {name:16s} {value:12.6g} {spec[name]:8s} median, n={n}")
        t = tail(walls)
        print("  wall_s tail: " + (f"p{t[0]} {t[1]:.6g} s, n={len(walls)}" if t else
                                   f"no percentile above the median has 10 calls "
                                   f"beyond it at n={len(walls)}"))
        for key in ("f_out_rel_rmse", "f_tire_rel_rmse"):
            vals = [c["values"][key] for c in calls if key in c["values"]]
            if vals:
                print(f"  {key:16s} {statistics.median(vals):12.6g} fraction median, "
                      f"n={len(vals)}")
        print(f"  host.ref_s       {statistics.median(c['ref_s'] for c in calls):12.6g} "
              f"s        median, n={len(calls)} (report-only)")
    print(f"  error_rate       {run['failed'] / run['attempted']:12.6g} fraction "
          f"n={run['attempted']}")
    for c in run.get("calls", []) + run.get("setups", []) + run.get("checks", []):
        for problem in c["problems"]:
            print(f"  FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkout = os.getcwd()
    if not os.path.isfile(os.path.join(checkout, "src", "hpsusp", "cli.py")):
        print("run from the root of an hpsusp checkout: src/hpsusp is missing",
              file=sys.stderr)
        return 2
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    kind = "per_layer" if args.trace else "end_to_end"
    spec = {m["name"]: m["unit"] for m in bench[kind]}

    out_dir = os.path.join(checkout, ".perfbench")
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace:
            sys.path.insert(0, os.path.join(checkout, "src"))
            import layers
            run = layers.traced_run(args.workload, args.seed, checkout, workdir)
        else:
            run = untraced_run(args, checkout, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(run["metrics"]) != set(spec):
        raise RuntimeError(f"metrics differ from BENCHMARK.json {kind}: "
                           f"{sorted(set(run['metrics']) ^ set(spec))}")
    run["metrics"] = {name: run["metrics"][name] for name in spec}
    run["host"] = host.facts()
    if args.trace:
        import numpy
        import scipy
        run["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}

    os.makedirs(os.path.join(out_dir, "results"), exist_ok=True)
    record = os.path.join(out_dir, "results",
                          f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump(dict(vars(args), **run), fh)
    report(args, spec, run)
    print(json.dumps({
        "correct": run["failed"] == 0, "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": spec[name]}
                    for name, value in run["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
