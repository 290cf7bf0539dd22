"""Iterative force-estimation pipeline checks."""

from __future__ import annotations


import numpy as np
import pytest

from hpsusp import config, estimator, metrics, oracle

DT = 1.0 / 360.0


def _sine_trace(freq_hz: float, n: int = 7200, amp: float = 5e4,
                p_mean: float = 1.0e6) -> estimator.PressureTrace:
    t = np.arange(n) * DT
    p = p_mean + amp * np.sin(2 * np.pi * freq_hz * t)
    return estimator.PressureTrace(dt=DT, samples=p, t0_temperature=30.0)


class TestPeakFrequency:
    def test_5hz(self):
        f = estimator.estimate_peak_frequency(_sine_trace(5.0))
        assert f == pytest.approx(5.0, abs=0.05)

    def test_7_5hz(self):
        f = estimator.estimate_peak_frequency(_sine_trace(7.5))
        assert f == pytest.approx(7.5, abs=0.05)

    def test_constant_signal_raises(self):
        trace = estimator.PressureTrace(dt=DT, samples=np.full(256, 1e6),
                                        t0_temperature=30.0)
        with pytest.raises(estimator.NoDominantFrequencyError):
            estimator.estimate_peak_frequency(trace)


class TestRun:
    def test_static_trace_with_override(self, bench_cfg):
        p0 = bench_cfg.charge.p0
        trace = estimator.PressureTrace(dt=DT, samples=np.full(512, p0),
                                        t0_temperature=30.0)
        bd = estimator.run(trace, bench_cfg, freq_override=5.0)
        assert np.allclose(bd.v, 0.0)
        assert np.allclose(bd.f_damp, 0.0)
        assert np.allclose(bd.f_fric, 0.0)
        f_expected = (p0 - bench_cfg.fluid.p_atm) * (bench_cfg.geom.a1
                                                     - bench_cfg.geom.a2)
        assert np.allclose(bd.f_gas, f_expected)

    def test_static_trace_without_override_raises(self, bench_cfg):
        trace = estimator.PressureTrace(dt=DT,
                                        samples=np.full(512, bench_cfg.charge.p0),
                                        t0_temperature=30.0)
        with pytest.raises(estimator.NoDominantFrequencyError):
            estimator.run(trace, bench_cfg)

    def test_force_decomposition_exact(self, bench_cfg):
        trace = _sine_trace(5.0, n=2048)
        bd = estimator.run(trace, bench_cfg)
        assert np.array_equal(bd.f_out, bd.f_gas + bd.f_damp + bd.f_fric)

    def test_determinism(self, bench_cfg):
        trace = _sine_trace(5.0, n=2048)
        b1 = estimator.run(trace, bench_cfg)
        b2 = estimator.run(trace, bench_cfg)
        assert np.array_equal(b1.f_out, b2.f_out)

    def test_round_trip_against_forward_model(self, bench_cfg):
        exc = oracle.Excitation(kind="sinusoid", amplitudes=(7.5e-3,),
                                frequencies=(5.0,), duration=4.0)
        trace = oracle.simulate_suspension(exc, bench_cfg, DT)
        bd = estimator.run(trace.to_pressure_trace(), bench_cfg)
        rel = metrics.rel_rmse(bd.f_out, trace.f_out)
        assert rel < 0.02

    def test_frequency_override_equivalence(self, bench_cfg):
        exc = oracle.Excitation(kind="sinusoid", amplitudes=(7.5e-3,),
                                frequencies=(5.0,), duration=4.0)
        trace = oracle.simulate_suspension(exc, bench_cfg, DT).to_pressure_trace()
        auto = estimator.run(trace, bench_cfg)
        forced = estimator.run(trace, bench_cfg, freq_override=5.0)
        diff = metrics.rmse(auto.f_out, forced.f_out)
        scale = float(np.sqrt(np.mean(np.square(forced.f_out))))
        assert diff < 1e-3 * scale

    def test_hysteresis_shrinks_at_higher_temperature(self):
        exc = oracle.Excitation(kind="sinusoid", amplitudes=(7.5e-3,),
                                frequencies=(5.0,), duration=4.0)
        areas = {}
        for t0 in (30.0, 50.0):
            cfg = config.bench_prototype(t0=t0)
            trace = oracle.simulate_suspension(exc, cfg, DT)
            bd = estimator.run(trace.to_pressure_trace(), cfg)
            areas[t0] = metrics.loop_area(bd.h_total, bd.f_out)
        assert areas[50.0] < areas[30.0]

    def test_flow_inertia_flag_zeroes_only_inertia(self, bench_cfg):
        exc = oracle.Excitation(kind="sinusoid", amplitudes=(7.5e-3,),
                                frequencies=(5.0,), duration=4.0)
        trace = oracle.simulate_suspension(exc, bench_cfg, DT).to_pressure_trace()
        with_i = estimator.run(trace, bench_cfg, freq_override=5.0)
        without = estimator.run(trace, bench_cfg, freq_override=5.0,
                                flow_inertia=False)
        # the kinematic chain is untouched; the damping chain changes
        assert np.array_equal(with_i.v, without.v)
        assert np.array_equal(with_i.f_fric, without.f_fric)
        assert not np.array_equal(with_i.f_damp, without.f_damp)


class TestPressureTrace:
    def test_rejects_nonpositive_samples(self):
        with pytest.raises(ValueError):
            estimator.PressureTrace(dt=DT, samples=np.array([1e6] * 20 + [0.0]),
                                    t0_temperature=30.0)

    def test_rejects_short_traces(self):
        with pytest.raises(ValueError):
            estimator.PressureTrace(dt=DT, samples=np.full(8, 1e6),
                                    t0_temperature=30.0)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            estimator.PressureTrace(dt=0.0, samples=np.full(64, 1e6),
                                    t0_temperature=30.0)

    def test_rejects_nan_sample(self):
        samples = np.full(400, 1e6)
        samples[123] = np.nan
        with pytest.raises(ValueError, match="positive and finite"):
            estimator.PressureTrace(dt=DT, samples=samples, t0_temperature=30.0)

    def test_rejects_nan_dt(self):
        with pytest.raises(ValueError, match="sampling period"):
            estimator.PressureTrace(dt=float("nan"), samples=np.full(400, 1e6),
                                    t0_temperature=30.0)
