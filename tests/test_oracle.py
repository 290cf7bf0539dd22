"""Forward-simulation oracle checks (suspension and quarter car)."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from hpsusp import config, core, oracle
from hpsusp.config import GRAVITY

DT = 1.0 / 360.0


class TestExcitation:
    def test_rejects_short_duration(self):
        with pytest.raises(ValueError):
            oracle.Excitation(kind="sinusoid", amplitudes=(1e-3,),
                              frequencies=(5.0,), duration=1.0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            oracle.Excitation(kind="square", amplitudes=(1e-3,),
                              frequencies=(5.0,), duration=10.0)

    def test_sweep_needs_two_frequencies(self):
        with pytest.raises(ValueError):
            oracle.Excitation(kind="linear-sweep", amplitudes=(1e-3,),
                              frequencies=(3.0,), duration=10.0)

    def test_analytic_derivatives_consistent(self):
        exc = oracle.Excitation(kind="sum-of-sines", amplitudes=(2e-3, 1e-3),
                                frequencies=(3.0, 7.0), duration=10.0)
        t = np.linspace(0.5, 9.5, 2001)
        dt = t[1] - t[0]
        num_v = np.gradient(exc.displacement(t), dt)[2:-2]
        v = exc.velocity(t)[2:-2]
        assert np.allclose(num_v, v, atol=1e-2 * np.max(np.abs(v)))
        num_a = np.gradient(exc.velocity(t), dt)[2:-2]
        a = exc.acceleration(t)[2:-2]
        assert np.allclose(num_a, a, atol=1e-2 * np.max(np.abs(a)))


class TestSimulateSuspension:
    def test_zero_amplitude_is_static(self, bench_cfg):
        exc = oracle.Excitation(kind="sinusoid", amplitudes=(0.0,),
                                frequencies=(5.0,), duration=4.0)
        trace = oracle.simulate_suspension(exc, bench_cfg, DT)
        assert np.allclose(trace.p1, bench_cfg.charge.p0)
        assert np.allclose(trace.f_damp, 0.0)
        assert np.allclose(trace.f_out, trace.f_out[0])

    def test_force_decomposition(self, bench_cfg):
        exc = oracle.Excitation(kind="sinusoid", amplitudes=(7.5e-3,),
                                frequencies=(5.0,), duration=4.0)
        trace = oracle.simulate_suspension(exc, bench_cfg, DT)
        assert np.allclose(trace.f_out, trace.f_gas + trace.f_damp + trace.f_fric)

    def test_stroke_violation_raises(self, bench_cfg):
        exc = oracle.Excitation(kind="sinusoid", amplitudes=(0.2,),
                                frequencies=(3.0,), duration=10.0)
        with pytest.raises(oracle.StrokeError):
            oracle.simulate_suspension(exc, bench_cfg, DT)

    def test_energy_audit(self, bench_cfg):
        # over whole cycles the spring term closes on itself, so the work
        # input equals the hydraulic dissipation (full pressure drop acting
        # on the main piston area) plus the friction dissipation
        exc = oracle.Excitation(kind="sinusoid", amplitudes=(7.5e-3,),
                                frequencies=(5.0,), duration=4.0)
        trace = oracle.simulate_suspension(exc, bench_cfg, DT)
        n_cycle = int(round(1.0 / (5.0 * DT)))
        n = (trace.h.size - 1) // n_cycle * n_cycle + 1  # whole cycles
        dh = np.diff(trace.h[:n])
        geom, fluid = bench_cfg.geom, bench_cfg.fluid

        def trap(f):
            return float(np.sum(0.5 * (f[: n - 1] + f[1:n]) * dh))

        w_in = trap(trace.f_out)
        w_spring = trap((trace.p1 - fluid.p_atm) * (geom.a1 - geom.a2))
        w_hydraulic = trap((trace.p1 - trace.p2) * geom.a1)
        w_fric = trap(trace.f_fric)
        assert abs(w_spring) < 0.02 * w_in          # conservative loop closes
        assert w_in == pytest.approx(w_hydraulic + w_fric, rel=0.02)

    def test_dissipation_positive(self, bench_cfg):
        exc = oracle.Excitation(kind="sinusoid", amplitudes=(7.5e-3,),
                                frequencies=(5.0,), duration=4.0)
        trace = oracle.simulate_suspension(exc, bench_cfg, DT)
        dh = np.diff(trace.h)
        assert float(np.sum(trace.f_damp[:-1] * dh)) > 0.0


class TestStaticGasOffset:
    def test_supports_requested_force(self, bench_cfg):
        from hpsusp import core
        f_target = 5000.0
        n_eff = 1.25
        h = oracle.static_gas_offset(bench_cfg, f_target, n_eff)
        geom, fluid, charge = bench_cfg.geom, bench_cfg.fluid, bench_cfg.charge
        p = core.gas_pressure(geom.v0_gas - geom.a1 * h, charge, geom, n_eff)
        f = (p - fluid.p_atm) * (geom.a1 - geom.a2)
        assert f == pytest.approx(f_target, rel=1e-9)

    def test_rejects_subcharge_load(self, bench_cfg):
        with pytest.raises(ValueError):
            oracle.static_gas_offset(bench_cfg, -1.0e5, n_eff=1.25)


class TestQuarterCar:
    def test_flat_road_equilibrium(self, truck):
        road = oracle.Excitation(kind="sinusoid", amplitudes=(0.0,),
                                 frequencies=(8.0,), duration=4.0)
        run = oracle.simulate_quarter_car(road, truck.quarter_car, DT)
        qc = truck.quarter_car
        static = (qc.m_s + qc.m_u) * GRAVITY
        assert np.allclose(run.f_tire_truth, static, rtol=1e-6)
        assert np.max(np.abs(run.zdot_t)) < 1e-9

    def test_tire_natural_frequency_from_config(self, truck):
        qc = truck.quarter_car
        f_t = np.sqrt(qc.k_t / qc.m_u) / (2 * np.pi)
        assert f_t == pytest.approx(7.96, abs=0.02)

    def test_step_size_convergence(self, truck):
        road = oracle.Excitation(kind="sinusoid", amplitudes=(2e-3,),
                                 frequencies=(8.0,), duration=3.0)
        coarse = oracle.simulate_quarter_car(road, truck.quarter_car, DT)
        fine = oracle.simulate_quarter_car(road, truck.quarter_car, DT / 2.0)
        rms = float(np.sqrt(np.mean((coarse.f_tire_truth - fine.f_tire_truth[::2]) ** 2)))
        scale = float(np.sqrt(np.mean(fine.f_tire_truth ** 2)))
        assert rms < 1e-3 * scale

    def test_instability_detection(self, truck):
        # half-meter road input at 8 Hz drives the linkage past its geometry
        road = oracle.Excitation(kind="sinusoid", amplitudes=(0.5,),
                                 frequencies=(8.0,), duration=4.0)
        with pytest.raises(oracle.InstabilityError):
            oracle.simulate_quarter_car(road, truck.quarter_car, DT)


# Reference: the quarter-car stepping loop as first written, evaluating the
# road through 0-d numpy calls at every RK4 stage. The block-wise loop in
# oracle.simulate_quarter_car must reproduce it bit for bit.
def _reference_quarter_car(road, params, dt, duration=None):
    link, cfg = params.link, params.cfg
    geom, fluid, charge, fric = cfg.geom, cfg.fluid, cfg.charge, cfg.friction
    if duration is None:
        duration = road.duration
    n_eff = core.effective_polytropic_index(2.0 * np.pi * road.primary_frequency,
                                            charge, fluid)
    i0 = link.static_ratio()
    h_static = oracle.static_gas_offset(cfg, params.m_s * link.g / i0, n_eff)
    delta_tire0 = (params.m_s + params.m_u) * link.g / params.k_t
    m_s, m_u, k_t, c_t, g = params.m_s, params.m_u, params.k_t, params.c_t, link.g
    l_low, l_eff = link.l_lower, link.l_eff
    alpha0, beta0, k_beta = link.alpha0, link.beta0, link.k_beta
    sin_a0 = math.sin(alpha0)
    v0_gas, a1, a3 = geom.v0_gas, geom.a1, geom.a3
    c_lin = (128.0 * fluid.mu * geom.l_ch / (math.pi * geom.d_ch ** 4)
             + 12.0 * fluid.mu * geom.l_piston / (geom.h_gap ** 3 * math.pi * geom.d_piston))
    k_orif_coef = geom.k_orif * fluid.rho / 2.0
    a_comp, a_ext = geom.a_ch + geom.a_check, geom.a_ch
    fc, fs, vsb, bf, kv = fric.f_coulomb, fric.f_static, fric.v_stribeck, \
        fric.beta_fric, fric.k_v

    def suspension_axial(z_rel, zdot_rel):
        s = sin_a0 + z_rel / l_low
        if not -1.0 < s < 1.0:
            raise oracle.InstabilityError("linkage geometry inverted")
        theta = math.asin(s) - alpha0
        beta = beta0 + k_beta * theta
        cos_b = math.cos(beta)
        cos_at = math.cos(alpha0 + theta)
        h_abs = h_static + l_eff * theta / cos_b
        v_sus = zdot_rel * l_eff / (l_low * cos_at * cos_b)
        v_gas = v0_gas - a1 * h_abs
        if v_gas <= 0.0:
            raise oracle.InstabilityError("gas chamber volume exhausted")
        p1 = charge.p0 * (v0_gas / v_gas) ** n_eff
        q = a3 * v_sus
        a_eff = a_comp if q > 0.0 else a_ext
        dp = c_lin * q + k_orif_coef * q * abs(q) / (a_eff * a_eff)
        p2 = p1 - dp
        f_gas = (p1 - fluid.p_atm) * a1 - (p2 - fluid.p_atm) * geom.a2
        if cfg.use_alg1_friction:
            f_fric = (fc + (fs - fc) * math.exp(-(v_sus / vsb) ** 2)) * math.tanh(bf * v_sus)
        else:
            f_fric = (fc + (fs - fc) * math.exp(-abs(v_sus) / vsb)) * math.tanh(bf * v_sus) \
                + kv * v_sus
        i_sus = l_eff * cos_b / (l_low * cos_at)
        return f_gas + dp * a3 + f_fric, p1, p2, h_abs, v_sus, i_sus

    def deriv(t, state):
        z_s, w_s, z_t, w_t = state
        f_out, _, _, _, _, i_sus = suspension_axial(z_t - z_s, w_t - w_s)
        f_tire = (k_t * (float(road.displacement(t)) - z_t + delta_tire0)
                  + c_t * (float(road.velocity(t)) - w_t))
        return (w_s, (i_sus * f_out - m_s * g) / m_s,
                w_t, (f_tire - i_sus * f_out - m_u * g) / m_u)

    n_out = int(round(duration / dt)) + 1
    sub = 4
    h_step = dt / sub
    z_limit = 10.0 * max(delta_tire0, abs(h_static)) + 1.0
    out = np.empty((11, n_out))
    state = (0.0, 0.0, 0.0, 0.0)
    t = 0.0
    for i in range(n_out):
        z_s, w_s, z_t, w_t = state
        if not all(math.isfinite(x) for x in state) or max(abs(z_s), abs(z_t)) > z_limit:
            raise oracle.InstabilityError(
                f"quarter-car integration diverged at step {i} (t={t:.4f}s)")
        f_out, p1, p2, h_abs, v_sus, _ = suspension_axial(z_t - z_s, w_t - w_s)
        zg = float(road.displacement(t))
        f_tire = k_t * (zg - z_t + delta_tire0) + c_t * (float(road.velocity(t)) - w_t)
        out[:, i] = (z_s, w_s, z_t, w_t, zg, p1, p2, h_abs, v_sus, f_out, f_tire)
        if i == n_out - 1:
            break
        for _ in range(sub):
            k1 = deriv(t, state)
            s2 = tuple(x + 0.5 * h_step * k for x, k in zip(state, k1))
            k2 = deriv(t + 0.5 * h_step, s2)
            s3 = tuple(x + 0.5 * h_step * k for x, k in zip(state, k2))
            k3 = deriv(t + 0.5 * h_step, s3)
            s4 = tuple(x + h_step * k for x, k in zip(state, k3))
            k4 = deriv(t + h_step, s4)
            state = tuple(x + h_step / 6.0 * (a + 2 * b + 2 * c + d)
                          for x, a, b, c, d in zip(state, k1, k2, k3, k4))
            t += h_step
    return out


def _channels(run):
    return np.stack([run.z_s, run.zdot_s, run.z_t, run.zdot_t, run.z_g, run.p1,
                     run.p2, run.h, run.v, run.f_out, run.f_tire_truth])


class TestQuarterCarBlockwiseRoad:
    BLOCK = oracle._ROAD_BLOCK

    @pytest.mark.parametrize("n_out", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    def test_bit_identical_to_per_stage_loop(self, truck, n_out):
        road = oracle.Excitation(kind="sinusoid", amplitudes=(2e-3,),
                                 frequencies=(8.0,), duration=20.0)
        duration = (n_out - 1) * DT
        run = oracle.simulate_quarter_car(road, truck.quarter_car, DT, duration=duration)
        assert run.p1.size == n_out
        ref = _reference_quarter_car(road, truck.quarter_car, DT, duration=duration)
        assert np.array_equal(_channels(run), ref)

    def test_bit_identical_on_offset_sweep(self, truck):
        road = oracle.Excitation(kind="linear-sweep", amplitudes=(3e-3,),
                                 frequencies=(1.0, 8.0), duration=20.0, offset=1e-3)
        duration = 2 * self.BLOCK * DT
        run = oracle.simulate_quarter_car(road, truck.quarter_car, DT, duration=duration)
        ref = _reference_quarter_car(road, truck.quarter_car, DT, duration=duration)
        assert np.array_equal(_channels(run), ref)

    @pytest.mark.parametrize("case, message", [
        # a slow 5 m road lifts the whole car past the divergence limit
        ("diverged", "diverged at step 616 "),
        ("inverted", "linkage geometry inverted"),
        ("exhausted", "gas chamber volume exhausted"),
    ])
    def test_instability_reported_as_reference(self, truck, case, message):
        qc, dt, duration = truck.quarter_car, DT, 3.0
        if case == "diverged":
            road = oracle.Excitation(kind="sinusoid", amplitudes=(5.0,),
                                     frequencies=(0.05,), duration=400.0)
        elif case == "inverted":
            road = oracle.Excitation(kind="sinusoid", amplitudes=(0.5,),
                                     frequencies=(8.0,), duration=4.0)
        else:
            # a 100x longer linkage tolerates the stroke that an unstable
            # step size (0.5 s) builds up, until the gas chamber empties
            link = dataclasses.replace(qc.link, l_lower=100 * qc.link.l_lower,
                                       l_eff=100 * qc.link.l_eff)
            qc, dt, duration = dataclasses.replace(qc, link=link), 0.5, None
            road = oracle.Excitation(kind="sinusoid", amplitudes=(2e-3,),
                                     frequencies=(1.0,), duration=200.0)
        with pytest.raises(oracle.InstabilityError, match=message) as got:
            oracle.simulate_quarter_car(road, qc, dt, duration=duration)
        with pytest.raises(oracle.InstabilityError) as want:
            _reference_quarter_car(road, qc, dt, duration=duration)
        assert str(got.value) == str(want.value)

    def test_road_evaluated_per_block(self, truck):
        sizes = []

        class RecordingRoad(oracle.Excitation):
            def displacement(self, t):
                sizes.append(np.size(t))
                return super().displacement(t)

            def velocity(self, t):
                sizes.append(np.size(t))
                return super().velocity(t)

        road = RecordingRoad(kind="sinusoid", amplitudes=(2e-3,),
                             frequencies=(8.0,), duration=40.0)
        run = oracle.simulate_quarter_car(road, truck.quarter_car, DT)
        assert run.p1.size == 14401
        # two stage-time arrays (step ends, midpoints), each evaluated for
        # displacement and velocity, once per block of output samples
        assert len(sizes) == 4 * -(-run.p1.size // self.BLOCK)
        assert max(sizes) <= 4 * self.BLOCK + 1

    def test_memory_is_linear(self, truck):
        # tracemalloc traces every float the RK4 creates (~40x slower), so
        # this runs at four blocks; a whole-trace road measures ~890 B/sample
        road = oracle.Excitation(kind="sinusoid", amplitudes=(2e-3,),
                                 frequencies=(8.0,), duration=20.0)
        n_out = 4 * self.BLOCK + 1
        tracemalloc.start()
        try:
            oracle.simulate_quarter_car(road, truck.quarter_car, DT,
                                        duration=(n_out - 1) * DT)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / n_out < 512.0


@pytest.mark.parametrize("kind, amplitudes, frequencies, phases", [
    ("sinusoid", (1e-3, 2e-3), (5.0,), ()),
    ("sinusoid", (1e-3, 2e-3), (5.0, 6.0), ()),
    ("sinusoid", (1e-3,), (5.0,), (0.0, 1.0)),
    ("sum-of-sines", (1e-3, 2e-3), (5.0,), ()),
    ("sum-of-sines", (1e-3,), (5.0, 6.0), ()),
    ("sum-of-sines", (1e-3, 2e-3), (5.0, 6.0), (0.0,)),
    ("sum-of-sines", (), (), ()),
    ("linear-sweep", (1e-3, 2e-3), (3.0, 8.0), ()),
    ("linear-sweep", (1e-3,), (3.0, 8.0), (0.0, 1.0)),
])
def test_excitation_rejects_tones_that_do_not_line_up(kind, amplitudes,
                                                      frequencies, phases):
    with pytest.raises(ValueError, match=f"{kind} needs"):
        oracle.Excitation(kind=kind, amplitudes=amplitudes,
                          frequencies=frequencies, duration=10.0, phases=phases)


@pytest.mark.parametrize("duration", [math.nan, math.inf, -math.inf])
def test_excitation_rejects_non_finite_duration(duration):
    with pytest.raises(ValueError, match="duration must be positive and finite"):
        oracle.Excitation(kind="sinusoid", amplitudes=(1e-3,),
                          frequencies=(5.0,), duration=duration)
