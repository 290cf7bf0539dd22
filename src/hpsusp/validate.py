"""Validation campaign: the twelve closed-loop acceptance checks.

Each criterion function returns a CriterionResult with the measured
numbers, so the CLI `validate` command and the test suite share one
implementation. Expensive artifacts (lookup tables, oracle runs) are
cached on the ValidationContext.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import config, core, estimator, lookup, metrics, oracle, wheel

__all__ = ["CriterionResult", "ValidationContext", "run_all", "CRITERIA"]

DT = 1.0 / 360.0
BENCH_FREQS = (3.0, 5.0, 7.0, 8.0)
BENCH_AMPS_MM = {3.0: 7.5, 5.0: 7.5, 7.0: 5.36, 8.0: 4.69}
HOLDOUT_FREQ = 7.5
QC_ROAD_FREQ = 8.0
QC_ROAD_AMP = 2.0e-3
QC_DURATION = 6.0
QC_SETTLE_S = 2.0


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.index:2d} [{status}] {self.name}: {self.detail}"


@dataclass
class ValidationContext:
    """Caches the tables and oracle runs shared between criteria."""

    _cache: dict = field(default_factory=dict)

    @cached_property
    def bench30(self) -> config.SuspensionConfig:
        return config.bench_prototype(30.0)

    @cached_property
    def bench50(self) -> config.SuspensionConfig:
        return config.bench_prototype(50.0)

    @cached_property
    def truck(self) -> config.RunConfig:
        return config.mining_truck(30.0)

    def table(self, key: str) -> lookup.LookupTable:
        if key not in self._cache:
            if key == "truck":
                cfg, settings = self.truck.suspension, self.truck.table
            else:
                cfg = {"bench30": self.bench30, "bench50": self.bench50}[key]
                settings = config.TableBuildSettings(dt=DT)
            self._cache[key] = lookup.build_table(cfg, settings)
        return self._cache[key]

    def bench_trace(self, freq_hz: float, cfg=None) -> oracle.OracleTrace:
        """The bench unit (default: bench30) on a sinusoid at freq_hz, 20 s or
        20 cycles; the amplitude is BENCH_AMPS_MM's, else 7.5 mm cut as 5/f above 5 Hz."""
        cfg = cfg or self.bench30
        key = ("trace", freq_hz, id(cfg))
        if key not in self._cache:
            amp = BENCH_AMPS_MM.get(freq_hz, 7.5 * min(1.0, 5.0 / freq_hz)) * 1e-3
            exc = oracle.Excitation(kind="sinusoid", amplitudes=(amp,),
                                    frequencies=(freq_hz,),
                                    duration=max(20.0 / freq_hz, 20.0))
            self._cache[key] = oracle.simulate_suspension(exc, cfg, DT)
        return self._cache[key]

    @cached_property
    def quarter_car_run(self) -> oracle.OracleTrace:
        road = oracle.Excitation(kind="sinusoid", amplitudes=(QC_ROAD_AMP,),
                                 frequencies=(QC_ROAD_FREQ,),
                                 duration=max(QC_DURATION, 20.0 / QC_ROAD_FREQ))
        return oracle.simulate_quarter_car(road, self.truck.quarter_car, DT)

    @cached_property
    def wheel_series(self) -> wheel.WheelLoadSeries:
        return wheel.estimate_wheel_load_series(
            self.quarter_car_run.to_pressure_trace(), self.table("truck"),
            self.truck.linkage, omega=2.0 * math.pi * QC_ROAD_FREQ)


def criterion_1(ctx: ValidationContext) -> CriterionResult:
    """Round-trip force recovery at 5 Hz / 7.5 mm on the bench unit."""
    exc = oracle.Excitation(kind="sinusoid", amplitudes=(7.5e-3,),
                            frequencies=(5.0,), duration=7199 * DT)
    trace = oracle.simulate_suspension(exc, ctx.bench30, DT)
    ptrace = trace.to_pressure_trace()
    start = time.perf_counter()
    est = estimator.run(ptrace, ctx.bench30).rows()  # every channel, as one block
    elapsed = time.perf_counter() - start
    rel = metrics.rel_rmse(est.f_out, trace.f_out)
    r2 = metrics.r_squared(est.f_out, trace.f_out)
    passed = rel < 0.02 and r2 > 0.99 and elapsed < 5.0
    return CriterionResult(1, "round-trip force recovery", passed,
                           f"rel RMSE {rel:.3%} (<2%), R2 {r2:.4f} (>0.99), "
                           f"runtime {elapsed * 1e3:.1f} ms for {ptrace.n} samples (<5 s)")


def criterion_2(ctx: ValidationContext) -> CriterionResult:
    """Hold-out frequency (7.5 Hz) through the table at 30 and 50 degC."""
    details, ok = [], True
    for label, cfg, table_key in (("30C", ctx.bench30, "bench30"),
                                  ("50C", ctx.bench50, "bench50")):
        trace = ctx.bench_trace(HOLDOUT_FREQ, cfg=cfg)
        f_out = lookup.estimate_series(trace.to_pressure_trace(), ctx.table(table_key),
                                       omega=2.0 * math.pi * HOLDOUT_FREQ).rows().f_out
        rel = metrics.rel_rmse(f_out, trace.f_out)
        r2 = metrics.r_squared(f_out, trace.f_out)
        ok = ok and rel < 0.045 and r2 > 0.94
        details.append(f"{label}: rel RMSE {rel:.3%} (<4.5%), R2 {r2:.4f} (>0.94)")
    return CriterionResult(2, "7.5 Hz hold-out through lookup table", ok,
                           "; ".join(details))


def criterion_3(ctx: ValidationContext) -> CriterionResult:
    """Lookup agrees with the iterative estimator at the build frequencies."""
    details, ok = [], True
    for f in BENCH_FREQS:
        trace = ctx.bench_trace(f)
        ptrace = trace.to_pressure_trace()
        it = estimator.run(ptrace, ctx.bench30, freq_override=f)
        lk = lookup.estimate_series(ptrace, ctx.table("bench30"),
                                    omega=2.0 * math.pi * f)
        rel = metrics.rel_rmse(lk.rows().f_out, it.rows().f_out)
        ok = ok and rel < 0.02
        details.append(f"{f:g} Hz: {rel:.3%}")
    return CriterionResult(3, "lookup vs iterative at grid frequencies", ok,
                           "rel RMSE (<2%): " + ", ".join(details))


def criterion_4(ctx: ValidationContext) -> CriterionResult:
    """Per-sample cost: lookup at least 20x cheaper and under 10 us."""
    rep = lookup.benchmark(ctx.table("bench30"), ctx.bench30,
                           n_samples=12000, repeats=10)
    ok = rep["speedup"] >= 20.0 and rep["lookup_us_per_sample"] < 10.0
    return CriterionResult(
        4, "lookup efficiency", ok,
        f"iterative {rep['iterative_us_per_sample']:.3f} us/sample, lookup "
        f"{rep['lookup_us_per_sample']:.3f} us/sample (<10), "
        f"speedup {rep['speedup']:.1f}x (>=20)")


def criterion_5(ctx: ValidationContext) -> CriterionResult:
    """Pressure-pair to velocity mapping: sign, zero, injectivity, monotonicity."""
    cfg = ctx.bench30
    n_eff = core.effective_polytropic_index(2.0 * math.pi * 5.0, cfg.charge, cfg.fluid)
    rng = np.random.default_rng(20260826)
    n = 10_000
    p = rng.uniform(0.5 * cfg.charge.p0, 3.0 * cfg.charge.p0, n)
    dp = rng.uniform(-5e4, 5e4, n)
    dp[dp == 0.0] = 1.0
    v = lookup.pressure_to_velocity(p, dp, DT, cfg, n_eff)[0]
    zero_ok = bool(np.all(lookup.pressure_to_velocity(p, 0.0, DT, cfg, n_eff)[0] == 0.0))
    sign_ok = bool(np.all(np.sign(v) == np.sign(dp)))
    # monotone in dp at fixed p
    p_fix = np.full(n, 1.2 * cfg.charge.p0)
    dp_sorted = np.sort(rng.uniform(-5e4, 5e4, n))
    v_sorted = lookup.pressure_to_velocity(p_fix, dp_sorted, DT, cfg, n_eff)[0]
    mono_ok = bool(np.all(np.diff(v_sorted) >= 0.0))
    # injectivity at fixed p: strictly increasing dp must give strictly
    # increasing v (distinct non-zero increments map to distinct velocities)
    strict = np.diff(dp_sorted) > 0.0
    inj_ok = bool(np.all(np.diff(v_sorted)[strict] > 0.0))
    ok = zero_ok and sign_ok and mono_ok and inj_ok
    return CriterionResult(5, "pressure-to-velocity mapping properties", ok,
                           f"zero@dp=0 {zero_ok}, sign {sign_ok}, "
                           f"monotone {mono_ok}, injective {inj_ok} (n={n})")


def criterion_6(ctx: ValidationContext) -> CriterionResult:
    """Polytropic-index limits and temperature factor."""
    cfg = ctx.bench30
    charge25 = core.GasChargeState(p0=cfg.charge.p0, t0=25.0,
                                   alpha_t=cfg.charge.alpha_t,
                                   omega_c=cfg.charge.omega_c)
    n0 = core.effective_polytropic_index(0.0, charge25, cfg.fluid)
    n_inf = core.effective_polytropic_index(100.0 * charge25.omega_c, charge25, cfg.fluid)
    gamma = cfg.fluid.gamma
    lo_ok = n0 == 1.0
    hi_ok = abs(n_inf - gamma) < 1e-3
    # temperature factor: n(T) / n(t_ref) = 1 + alpha_t (T - t_ref)
    t = 47.0
    charge_t = core.GasChargeState(p0=cfg.charge.p0, t0=t,
                                   alpha_t=cfg.charge.alpha_t,
                                   omega_c=cfg.charge.omega_c)
    omega = 9.3
    ratio = core.effective_polytropic_index(omega, charge_t, cfg.fluid) \
        / core.effective_polytropic_index(omega, charge25, cfg.fluid)
    temp_ok = abs(ratio - (1.0 + cfg.charge.alpha_t * (t - 25.0))) < 1e-12
    ok = lo_ok and hi_ok and temp_ok
    return CriterionResult(6, "polytropic index limits", ok,
                           f"n(0)={n0} (=1), n(100*wc)={n_inf:.6f} "
                           f"(gamma within 1e-3: {hi_ok}), temp factor exact: {temp_ok}")


def criterion_7(ctx: ValidationContext) -> CriterionResult:
    """Interpolation exactness and serialization identity."""
    table = ctx.table("bench30")
    g = table.grids[1]
    n_p, n_dp = lookup.N_P, lookup.N_DP
    p_axis = np.linspace(g.p_min, g.p_max, n_p)
    dp_axis = np.linspace(g.dp_min, g.dp_max, n_dp)

    rng = np.random.default_rng(7)
    ii = rng.integers(0, n_p, 50)
    jj = rng.integers(0, n_dp, 50)
    node_ok = True
    for i, j in zip(ii, jj):
        f_out, v, h = lookup.query(table, float(p_axis[i]), float(dp_axis[j]), g.omega)
        node_ok &= (np.float32(f_out) == g.cells[i, j, 0]
                    and np.float32(v) == g.cells[i, j, 1]
                    and np.float32(h) == g.cells[i, j, 2])

    center_ok = True
    for i, j in zip(ii.clip(0, n_p - 2), jj.clip(0, n_dp - 2)):
        p_c = 0.5 * (p_axis[i] + p_axis[i + 1])
        dp_c = 0.5 * (dp_axis[j] + dp_axis[j + 1])
        got = np.asarray(lookup.query(table, float(p_c), float(dp_c), g.omega))
        want = g.cells[i:i + 2, j:j + 2].reshape(4, 3).astype(float).mean(axis=0)
        center_ok &= bool(np.allclose(got, want, rtol=1e-6, atol=1e-12))

    # edge continuity: approaching a node column from both sides
    eps = 1e-9 * (g.p_max - g.p_min)
    cont_ok = True
    for i, j in zip(ii.clip(1, n_p - 2), jj.clip(1, n_dp - 2)):
        left = np.asarray(lookup.query(table, float(p_axis[i] - eps), float(dp_axis[j]), g.omega))
        right = np.asarray(lookup.query(table, float(p_axis[i] + eps), float(dp_axis[j]), g.omega))
        scale = np.maximum(np.abs(left), 1.0)
        cont_ok &= bool(np.all(np.abs(left - right) <= 1e-5 * scale))

    rt = lookup.deserialize(lookup.serialize(table))
    ser_ok = (rt.dt == table.dt and rt.config_digest == table.config_digest
              and len(rt.grids) == len(table.grids)
              and all(np.array_equal(a.cells, b.cells)
                      and np.array_equal(a.filled, b.filled)
                      and (a.omega, a.p_min, a.p_max, a.dp_min, a.dp_max)
                      == (b.omega, b.p_min, b.p_max, b.dp_min, b.dp_max)
                      for a, b in zip(rt.grids, table.grids)))
    ok = bool(node_ok and center_ok and cont_ok and ser_ok)
    return CriterionResult(7, "interpolation exactness and serialization", ok,
                           f"nodes {bool(node_ok)}, centers {bool(center_ok)}, "
                           f"continuity {bool(cont_ok)}, round trip {ser_ok}")


def _qc_window(ctx: ValidationContext):
    run = ctx.quarter_car_run
    return run, ctx.wheel_series.rows(), run.t >= QC_SETTLE_S


def criterion_8(ctx: ValidationContext) -> CriterionResult:
    """Closed-loop wheel load vs quarter-car truth at 8 Hz, truck preset."""
    run, rows, mask = _qc_window(ctx)
    # Wheel loads carry a large static offset, so the relative error is
    # taken against the mean load rather than the peak-to-peak range.
    rel = metrics.rel_rmse_mean(rows.f_tire[mask], run.f_tire_truth[mask])
    ok = rel < 0.05
    return CriterionResult(8, "quarter-car wheel-load closed loop", ok,
                           f"rel RMSE {rel:.3%} of mean load (<5%) over "
                           f"t>={QC_SETTLE_S:g}s, road "
                           f"{QC_ROAD_AMP * 1e3:g} mm @ {QC_ROAD_FREQ:g} Hz")


def criterion_9(ctx: ValidationContext) -> CriterionResult:
    """Tire inertia term stays a small fraction of the wheel load."""
    _, rows, mask = _qc_window(ctx)
    m_t = ctx.truck.linkage.m_t
    frac = float(np.max(np.abs(m_t * rows.z_ddot_t[mask]))
                 / np.mean(rows.f_tire[mask]))
    ok = frac < 0.03
    return CriterionResult(9, "tire-inertia fraction", ok,
                           f"max(m_t*ztt)/mean(F_tire) = {frac:.3%} (<3%)")


def criterion_10(ctx: ValidationContext) -> CriterionResult:
    """Damping loops dissipate, and less at the hotter oil temperature."""
    areas = {}
    ok = True
    for label, cfg in (("30C", ctx.bench30), ("50C", ctx.bench50)):
        for f in BENCH_FREQS:
            trace = ctx.bench_trace(f, cfg=cfg)
            area = metrics.loop_area(trace.h, trace.f_damp)
            areas[(label, f)] = area
            ok = ok and area > 0.0
    cooler_bigger = all(areas[("30C", f)] > areas[("50C", f)] for f in BENCH_FREQS)
    ok = ok and cooler_bigger
    a30 = areas[("30C", 5.0)]
    a50 = areas[("50C", 5.0)]
    return CriterionResult(10, "hysteresis loop physics", ok,
                           f"all areas positive: {all(a > 0 for a in areas.values())}, "
                           f"50C < 30C at every frequency: {cooler_bigger} "
                           f"(5 Hz: {a50:.2f} vs {a30:.2f} J, "
                           f"{(1 - a50 / a30):.1%} reduction)")


def criterion_11(ctx: ValidationContext) -> CriterionResult:
    """Serialized cell payload size matches the 0.96 MB arithmetic."""
    table = ctx.table("bench30")
    payload = sum(g.cells.nbytes for g in table.grids)
    expected = 4 * 100 * 200 * 3 * 4
    ok = payload == expected == 960_000
    return CriterionResult(11, "table storage size", ok,
                           f"cell payload {payload} bytes (= {expected})")


def criterion_12(ctx: ValidationContext) -> CriterionResult:
    """Dropping the inclination-rate term changes tire acceleration < 1% RMS."""
    link = ctx.truck.linkage
    worst = 0.0
    for f in BENCH_FREQS:
        trace = ctx.bench_trace(f)
        h_sus = trace.h - trace.h.mean()
        v = trace.v
        a_sus = core.differentiate(v, DT)
        theta, beta = wheel.lower_arm_angle(h_sus, link)
        z_full = wheel.tire_acceleration(theta, beta, v, a_sus, link,
                                         include_beta_rate=True)
        z_drop = wheel.tire_acceleration(theta, beta, v, a_sus, link,
                                         include_beta_rate=False)
        rms = math.sqrt(float(np.mean(z_full ** 2)))
        diff = math.sqrt(float(np.mean((z_full - z_drop) ** 2)))
        worst = max(worst, diff / rms if rms > 0 else 0.0)
    ok = worst < 0.01
    return CriterionResult(12, "inclination-rate term budget", ok,
                           f"worst RMS change {worst:.4%} (<1%) over 3-8 Hz")


CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
            criterion_11, criterion_12)


def run_all() -> list:
    ctx = ValidationContext()
    return [fn(ctx) for fn in CRITERIA]
