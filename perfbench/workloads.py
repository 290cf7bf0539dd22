"""Seeded inputs, CLI commands and output checks of the benchmark workloads.

Each workload makes its inputs from the seed through the public `oracle`
and `io` API, names the CLI call it times (and the one-time set-up call
before it), and checks every output file that call writes. The input size
never depends on the seed; the seed only jitters amplitude, phase or road
frequency a little, so accuracy figures stay comparable across seeds.

The traced run imports this module. Run as a script it serves the untraced
run: it reads one JSON request per line on stdin and answers with one JSON
line on stdout, so that numpy and the generated arrays live in this helper
process and not in the process that spawns the timed CLI calls (a child's
peak RSS from `os.wait4` includes the spawning process's own peak).
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np

from hpsusp import config, core, io, lookup, metrics, oracle, wheel

DT = 1.0 / 360.0
SWEEP_S = 300.0          # ~108 k samples: the auto-omega tracking matrix shows in RSS
SWEEP_HZ = (3.0, 8.0)
QC_S = 20.0
QC_SETTLE_S = 2.0        # quarter-car start-up transient left out of the load check

# Stated tolerances of the output checks. Measured over seeds 1-10: force
# 1.4 % (estimate) and 1.7 % (wheel-load), wheel load 1.4 % (sweep) and 3.0 %
# (quarter car), mean quarter-car tire load within 0.01 % of the weight.
TOL_F_OUT_REL_RMSE = 0.03      # of the truth's peak-to-peak range
TOL_F_TIRE_REL_RMSE = 0.05     # of the mean wheel load (criterion 8's gate)
TOL_QC_MEAN_LOAD = 0.005       # |mean tire load / ((m_s + m_u) g) - 1|


class CheckFailed(Exception):
    """A CLI output failed a check; the call counts as failed."""


def _read_csv(path, columns: int, rows: int) -> dict:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    if len(header) != columns:
        raise CheckFailed(f"{path}: {len(header)} columns, expected {columns}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (rows, columns):
        raise CheckFailed(f"{path}: shape {data.shape}, expected {(rows, columns)}")
    if not np.all(np.isfinite(data)):
        raise CheckFailed(f"{path}: non-finite values")
    return dict(zip(header, data.T))


def _within(problems: list, name: str, value: float, tol: float) -> None:
    if not value <= tol:
        problems.append(f"{name} {value:.4g} exceeds the tolerance {tol:g}")


def wheel_load_reference(f_out, h, v, link: config.WheelLinkage) -> np.ndarray:
    """Wheel load from the public `wheel` functions applied to strut channels."""
    h_sus = h - h.mean()
    a_sus = np.empty_like(v)
    a_sus[1:] = np.diff(v) / DT
    a_sus[0] = a_sus[1]
    theta, beta = wheel.lower_arm_angle(h_sus, link)
    i_sus = wheel.suspension_ratio(theta, beta, link)
    z_ddot = wheel.tire_acceleration(theta, beta, v, a_sus, link)
    return wheel.wheel_load(f_out, i_sus, z_ddot, link, warn_liftoff=False)


class WheelLoadSweep:
    """`wheel-load --omega auto` on a truck strut sweep; `build-table` is set-up."""

    name = "wheel-load-sweep"
    preset = "mining-truck"

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.rc = config.preset(self.preset)
        cfg = self.rc.suspension
        n_eff = core.effective_polytropic_index(math.pi * sum(SWEEP_HZ),
                                                cfg.charge, cfg.fluid)
        offset = oracle.static_gas_offset(cfg, self.rc.table.static_force_n, n_eff)
        exc = oracle.Excitation(kind="linear-sweep",
                                amplitudes=(3.0e-3 * rng.uniform(0.98, 1.02),),
                                frequencies=SWEEP_HZ, duration=SWEEP_S,
                                phases=(rng.uniform(0.0, 2.0 * math.pi),),
                                offset=offset)
        trace = oracle.simulate_suspension(exc, cfg, DT)
        self.trace_csv = os.path.join(workdir, "sweep.csv")
        self.table_path = os.path.join(workdir, "truck.hplt")
        self.out = os.path.join(workdir, "wheel.csv")
        io.write_trace_csv(self.trace_csv, trace)
        self.n = trace.p1.size
        self.f_out_truth = trace.f_out
        self.f_tire_ref = wheel_load_reference(trace.f_out, trace.h, trace.v,
                                               self.rc.linkage)

    def setup_argv(self) -> list:
        return ["build-table", "--preset", self.preset, "--out", self.table_path]

    def check_setup(self) -> tuple:
        table = lookup.load_table(self.table_path, self.rc.suspension)
        cov = min(g.coverage for g in table.grids)
        problems = [] if cov >= lookup.MIN_COVERAGE else [f"table coverage {cov:.3f}"]
        return {"min_coverage": cov}, problems

    def argv(self) -> list:
        return ["wheel-load", "--preset", self.preset, "--trace", self.trace_csv,
                "--table", self.table_path, "--omega", "auto", "--out", self.out]

    def check(self) -> tuple:
        cols = _read_csv(self.out, 11, self.n)
        ok = slice(2, None)  # the first two samples carry difference start-up values
        f_out = metrics.rel_rmse(cols["f_out_n"][ok], self.f_out_truth[ok])
        f_tire = metrics.rel_rmse_mean(cols["f_tire_n"][ok], self.f_tire_ref[ok])
        problems = []
        _within(problems, "f_out_rel_rmse", f_out, TOL_F_OUT_REL_RMSE)
        _within(problems, "f_tire_rel_rmse", f_tire, TOL_F_TIRE_REL_RMSE)
        return {"output_rel_rmse": f_tire, "f_out_rel_rmse": f_out,
                "f_tire_rel_rmse": f_tire}, problems


class EstimateIterative:
    """`estimate --mode iterative` on a bench-prototype sweep; no set-up step."""

    name = "estimate-iterative"
    preset = "bench-prototype"

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        cfg = config.preset(self.preset).suspension
        exc = oracle.Excitation(kind="linear-sweep",
                                amplitudes=(6.0e-3 * rng.uniform(0.98, 1.02),),
                                frequencies=SWEEP_HZ, duration=SWEEP_S,
                                phases=(rng.uniform(0.0, 2.0 * math.pi),))
        trace = oracle.simulate_suspension(exc, cfg, DT)
        self.trace_csv = os.path.join(workdir, "bench.csv")
        self.out = os.path.join(workdir, "breakdown.csv")
        io.write_trace_csv(self.trace_csv, trace)
        self.n = trace.p1.size
        self.f_out_truth = trace.f_out

    def setup_argv(self) -> None:
        return None

    def argv(self) -> list:
        return ["estimate", "--mode", "iterative", "--preset", self.preset,
                "--trace", self.trace_csv, "--out", self.out]

    def check(self) -> tuple:
        cols = _read_csv(self.out, 10, self.n)
        f_out = metrics.rel_rmse(cols["f_out_n"], self.f_out_truth)
        problems = []
        _within(problems, "f_out_rel_rmse", f_out, TOL_F_OUT_REL_RMSE)
        return {"output_rel_rmse": f_out, "f_out_rel_rmse": f_out}, problems


class QuarterCarSim:
    """`simulate --quarter-car` near the criterion-8 road; no CSV in, no set-up."""

    name = "quarter-car-sim"
    preset = "mining-truck"

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.rc = config.preset(self.preset)
        self.freq = 8.0 * rng.uniform(0.99, 1.01)
        self.amp = 2.0e-3 * rng.uniform(0.98, 1.02)
        self.n = int(round(QC_S / DT)) + 1
        self.out = os.path.join(workdir, "road.csv")

    def setup_argv(self) -> None:
        return None

    def argv(self) -> list:
        return ["simulate", "--preset", self.preset, "--quarter-car",
                "--freq", repr(self.freq), "--amp", repr(self.amp),
                "--duration", repr(QC_S), "--out", self.out]

    def check(self) -> tuple:
        cols = _read_csv(self.out, 6, self.n)
        settled = cols["t_s"] >= QC_SETTLE_S
        f_tire = cols["f_tire_truth_n"][settled]
        qc = self.rc.quarter_car
        load = (qc.m_s + qc.m_u) * qc.link.g
        problems = []
        _within(problems, "mean tire load error", abs(f_tire.mean() / load - 1.0),
                TOL_QC_MEAN_LOAD)
        ref = wheel_load_reference(cols["f_out_truth_n"], cols["h_truth_m"],
                                   cols["v_truth_mps"], self.rc.linkage)
        rel = metrics.rel_rmse_mean(f_tire, ref[settled])
        _within(problems, "f_tire_rel_rmse", rel, TOL_F_TIRE_REL_RMSE)
        return {"output_rel_rmse": rel, "f_tire_rel_rmse": rel}, problems


WORKLOADS = {w.name: w for w in (WheelLoadSweep, EstimateIterative, QuarterCarSim)}


def check(workload, setup: bool = False) -> tuple:
    """(values, problems) of the workload's last output; unreadable is a problem."""
    try:
        return workload.check_setup() if setup else workload.check()
    except (CheckFailed, OSError, ValueError) as exc:
        return {}, [f"{type(exc).__name__}: {exc}"]


def serve() -> None:
    """Answer JSON requests from the untraced run, one per line."""
    import scipy

    workload = None
    for line in sys.stdin:
        req = json.loads(line)
        if req["op"] == "inputs":
            workload = WORKLOADS[req["workload"]](req["seed"], req["workdir"])
            reply = {"n": workload.n, "setup_argv": workload.setup_argv(),
                     "argv": workload.argv(), "numpy": np.__version__,
                     "scipy": scipy.__version__}
        else:
            values, problems = check(workload, setup=req["op"] == "check_setup")
            reply = {"values": values, "problems": problems}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    serve()
