"""The traced run: every workload's CLI pipeline replayed in one process.

The per-layer metrics cover the layers of all workloads, so the traced
run replays the pipeline of every workload (the requested one first) on
inputs made from the seed. A pipeline is the workload's set-up call, if it
has one, then its command, each passed to `hpsusp.cli.main` in this
process. Each pipeline runs twice: untraced, then with a span around every
call of a public function of `cli`, `io`, `lookup`, `estimator`, `core`,
`wheel` and `oracle`. The traced time minus the untraced time is the
tracing overhead; it is a difference of two noisy wall times, so the run
also reports the number of spans times the measured cost of recording one.
Every output is checked as in the untraced benchmark.

Per-layer metrics, with the end-to-end metric and workload each should move:

  cli.import_s           `import hpsusp.cli` in a fresh interpreter (median of 3); wall_s, all
  io.*_s                 time inside each io function; wall_s where it is called
  io.bytes_in/out        CSV bytes read / written by the replayed commands
  lookup.load_table_s, lookup.estimate_series_auto_s   wall_s, peak_rss_mb on wheel-load-sweep
  lookup.estimate_series_fixed_s   the same call with a fixed omega (probe);
                         the difference to _auto_s is the frequency-tracking cost
  lookup.estimate_series_peak_mb   tracemalloc peak of the auto call (probe)
  lookup.omega_blends, queries, p_clamped, dp_clamped, extrapolated   counts of the auto call
  lookup.query_us, query_p99_us    public single-sample `query` (probe); moves no workload
  lookup.build_table_s, serialize_s, table_bytes, min_coverage   setup_s on wheel-load-sweep
  lookup.stream_*        program-reported by `lookup.benchmark()` (criterion 4's
                         call), beside the outside-timed query_us
  estimator.run_s, peak_frequency_s, cavitation_count   wall_s on estimate-iterative
  core.chain_ns_per_sample   public vectorized force chain on the
                         estimate-iterative trace (probe); wall_s on estimate-iterative
  wheel.kinematics_s, liftoff_count   wall_s on wheel-load-sweep
  oracle.quarter_car_us_per_sample   wall_s on quarter-car-sim
  oracle.simulate_suspension_us_per_sample   setup_s on wheel-load-sweep
  <layer>.self_s         span time not covered by child spans, all pipelines
  trace.overhead_s       traced minus untraced wall time of the replayed calls
  trace.spans            spans recorded by the traced pass
  trace.span_cost_s      trace.spans times the cost of one span (a traced no-op
                         minus a bare one), the part of overhead_s the tracer causes
  host.ref_s             calibration loop (median of 5); report-only
"""

from __future__ import annotations

import contextlib
import io as stdio
import math
import os
import statistics
import time
import tracemalloc
import warnings

import numpy as np

import host
import tracing
import workloads
from hpsusp import cli, config, core, estimator, io, lookup, oracle, wheel

LAYER_MODULES = (io, lookup, estimator, core, wheel, oracle)
IMPORT_REPEATS = 3
QUERY_PROBES = 2000            # p99 then has 20 samples beyond it
FIXED_OMEGA = math.pi * sum(workloads.SWEEP_HZ)   # mid-sweep blend frequency, rad/s


@contextlib.contextmanager
def _spans(tracer: tracing.Tracer):
    tracer.instrument(cli, ["main"])
    for module in LAYER_MODULES:
        tracer.instrument(module)
    try:
        yield
    finally:
        tracer.restore()


def _replay(pipelines, tracer: tracing.Tracer):
    """Run every CLI call in-process, untraced and traced, checking each output.

    Returns (untraced seconds, traced seconds, check records). The two passes
    go call by call, so that host drift falls on both alike, and take turns
    going first, because a repeated call runs faster the second time.
    """
    elapsed, checks = [0.0, 0.0], []
    calls = [(w, setup, argv) for w in pipelines
             for setup, argv in ((True, w.setup_argv()), (False, w.argv()))
             if argv is not None]
    for i, (w, setup, argv) in enumerate(calls):
        for traced in ((False, True), (True, False))[i % 2]:
            if traced:
                tracer.trace_id += 1
                tracer.calls[(w.name, setup)] = tracer.trace_id
            sink = stdio.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), \
                    (_spans(tracer) if traced else contextlib.nullcontext()):
                start = time.perf_counter()
                code = cli.main(argv)
                took = time.perf_counter() - start
            elapsed[traced] += took
            values, problems = workloads.check(w, setup) if code == 0 else \
                ({}, [f"exit {code}: {sink.getvalue()[-300:]}"])
            checks.append({"workload": w.name, "setup": setup, "traced": traced,
                           "wall_s": took, "values": values, "problems": problems})
    return elapsed[0], elapsed[1], checks


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _stream_figures() -> dict:
    """`lookup.benchmark()` as criterion 4 calls it, on the bench-prototype table."""
    cfg = config.bench_prototype()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = lookup.build_table(cfg, config.TableBuildSettings())
        rep = lookup.benchmark(table, cfg, n_samples=12000, repeats=10)
    return {"lookup.stream_lookup_us": rep["lookup_us_per_sample"],
            "lookup.stream_iterative_us": rep["iterative_us_per_sample"],
            "lookup.stream_speedup": rep["speedup"]}


def _lookup_probes(sweep: workloads.WheelLoadSweep) -> dict:
    trace, _ = io.read_trace_csv(sweep.trace_csv)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = lookup.build_table(sweep.rc.suspension, sweep.rc.table)
    fixed_s = _median_time(
        lambda: lookup.estimate_series(trace, table, omega=FIXED_OMEGA), 3)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        lookup.estimate_series(trace, table, omega="auto")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    p = trace.samples
    idx = np.linspace(1, p.size - 1, QUERY_PROBES).astype(int)
    pairs = [(float(p[i]), float(p[i] - p[i - 1])) for i in idx]
    times = []
    for pi, dpi in pairs:
        start = time.perf_counter_ns()
        lookup.query(table, pi, dpi, FIXED_OMEGA)
        times.append(time.perf_counter_ns() - start)
    times.sort()
    return {"lookup.estimate_series_fixed_s": fixed_s,
            "lookup.estimate_series_peak_mb": peak / 2**20,
            "lookup.query_us": statistics.median(times) * 1e-3,
            "lookup.query_p99_us": times[math.ceil(0.99 * len(times)) - 1] * 1e-3}


def _chain_ns_per_sample(bench: workloads.EstimateIterative) -> float:
    """Public vectorized force chain over the estimate-iterative trace."""
    trace, _ = io.read_trace_csv(bench.trace_csv)
    cfg = config.preset(bench.preset).suspension
    geom, fluid = cfg.geom, cfg.fluid
    n_eff = core.effective_polytropic_index(FIXED_OMEGA, cfg.charge, fluid)
    p1, dt = trace.samples, trace.dt

    def chain():
        v_gas = core.gas_volume(p1, cfg.charge, geom, n_eff)
        v = core.differentiate(core.gas_displacement(v_gas, geom), dt)
        q = geom.a3 * v
        flow = core.FlowState(q=q, dq_dt=core.differentiate(q, dt), v=v)
        dp = core.damping_pressure_drop(flow, geom, fluid)[0]
        return (core.gas_force(p1, p1 - dp, geom, fluid) + core.damping_force(dp, geom)
                + core.friction_force(v, cfg.friction))
    return _median_time(chain, 15) / p1.size * 1e9


def traced_run(first: str, seed: int, checkout: str, workdir: str) -> dict:
    env = host.child_env(checkout)
    ref = statistics.median(host.ref_s() for _ in range(5))
    imports = [host.run_python(host.IMPORT_CLI, [], env, checkout)
               for _ in range(IMPORT_REPEATS)]
    order = [first] + [n for n in workloads.WORKLOADS if n != first]
    pipelines = []
    for name in order:
        os.makedirs(os.path.join(workdir, name), exist_ok=True)
        pipelines.append(workloads.WORKLOADS[name](seed, os.path.join(workdir, name)))
    by_name = {w.name: w for w in pipelines}

    # The probes go first: they also warm the table-build imports and the
    # process's first large allocations, which would otherwise slow
    # whichever replay pass comes first.
    m = _stream_figures()
    m.update(_lookup_probes(by_name[workloads.WheelLoadSweep.name]))
    tracer = tracing.Tracer(
        keep=("lookup.build_table", "lookup.estimate_series", "estimator.run",
              "wheel.estimate_wheel_load_series"),
        samples={"oracle.simulate_suspension": lambda r: r.p1.size,
                 "oracle.simulate_quarter_car": lambda r: r.p1.size})
    untraced_s, traced_s, checks = _replay(pipelines, tracer)

    sweep = by_name[workloads.WheelLoadSweep.name]
    bench = by_name[workloads.EstimateIterative.name]
    wl_trace = tracer.calls[(sweep.name, False)]
    est_trace = tracer.calls[(bench.name, False)]
    kept = tracer.kept
    est = kept[(wl_trace, "lookup.estimate_series")]
    table = kept[(tracer.calls[(sweep.name, True)], "lookup.build_table")]

    t = tracer.total_s
    m.update({
        "cli.import_s": statistics.median(c["wall_s"] for c in imports),
        "io.read_trace_csv_s": t("io.read_trace_csv"),
        "io.write_wheel_load_csv_s": t("io.write_wheel_load_csv"),
        "io.write_breakdown_csv_s": t("io.write_breakdown_csv"),
        "io.write_trace_csv_s": t("io.write_trace_csv"),
        "io.bytes_in": sum(os.path.getsize(w.trace_csv) for w in (sweep, bench)),
        "io.bytes_out": sum(os.path.getsize(w.out) for w in pipelines),
        "lookup.load_table_s": t("lookup.load_table"),
        "lookup.estimate_series_auto_s": t("lookup.estimate_series"),
        "lookup.omega_blends": int(np.unique(est.omega).size),
        "lookup.queries": est.stats.n_queries,
        "lookup.p_clamped": est.stats.p_clamped,
        "lookup.dp_clamped": est.stats.dp_clamped,
        "lookup.extrapolated": est.stats.extrapolated,
        "lookup.build_table_s": t("lookup.build_table"),
        "lookup.serialize_s": t("lookup.serialize"),
        "lookup.table_bytes": os.path.getsize(sweep.table_path),
        "lookup.min_coverage": min(g.coverage for g in table.grids),
        "estimator.run_s": t("estimator.run", trace=est_trace),
        "estimator.peak_frequency_s": t("estimator.estimate_peak_frequency",
                                        trace=est_trace),
        "estimator.cavitation_count": kept[(est_trace, "estimator.run")].cavitation_count,
        "core.chain_ns_per_sample": _chain_ns_per_sample(bench),
        "wheel.kinematics_s": t("wheel.lower_arm_angle", "wheel.suspension_ratio",
                                "wheel.tire_acceleration", "wheel.wheel_load"),
        "wheel.liftoff_count":
            kept[(wl_trace, "wheel.estimate_wheel_load_series")].liftoff_count,
        "oracle.quarter_car_us_per_sample":
            t("oracle.simulate_quarter_car") * 1e6
            / tracer.samples["oracle.simulate_quarter_car"],
        "oracle.simulate_suspension_us_per_sample":
            t("oracle.simulate_suspension") * 1e6
            / tracer.samples["oracle.simulate_suspension"],
        "trace.overhead_s": traced_s - untraced_s,
        "trace.spans": len(tracer.spans),
        "trace.span_cost_s": len(tracer.spans) * tracing.span_cost_ns() * 1e-9,
        "host.ref_s": ref,
    })
    self_s = tracer.self_s()
    m.update({f"{layer}.self_s": self_s.get(layer, 0.0)
              for layer in ("cli",) + tuple(mod.__name__.rsplit(".", 1)[-1]
                                            for mod in LAYER_MODULES)})
    failed_imports = sum(c["exit"] != 0 for c in imports)
    return {"metrics": m, "checks": checks, "spans": tracer.spans,
            "attempted": len(checks) + len(imports),
            "failed": sum(bool(c["problems"]) for c in checks) + failed_imports,
            "untraced_s": untraced_s, "traced_s": traced_s}
