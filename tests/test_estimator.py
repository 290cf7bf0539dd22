"""Iterative force-estimation pipeline checks."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from hpsusp import config, core, estimator, metrics, oracle

DT = 1.0 / 360.0


def _sine_trace(freq_hz: float, n: int = 7200, amp: float = 5e4,
                p_mean: float = 1.0e6) -> estimator.PressureTrace:
    t = np.arange(n) * DT
    p = p_mean + amp * np.sin(2 * np.pi * freq_hz * t)
    return estimator.PressureTrace(dt=DT, samples=p)


class TestPeakFrequency:
    def test_5hz(self):
        f = estimator.estimate_peak_frequency(_sine_trace(5.0))
        assert f == pytest.approx(5.0, abs=0.05)

    def test_7_5hz(self):
        f = estimator.estimate_peak_frequency(_sine_trace(7.5))
        assert f == pytest.approx(7.5, abs=0.05)

    def test_constant_signal_raises(self):
        trace = estimator.PressureTrace(dt=DT, samples=np.full(256, 1e6))
        with pytest.raises(estimator.NoDominantFrequencyError):
            estimator.estimate_peak_frequency(trace)


def _tone_and_noise(n: int) -> np.ndarray:
    rng = np.random.default_rng(n)
    t = np.arange(n)
    return 1.0e6 + 5e4 * np.sin(2 * np.pi * 0.0123 * t + 0.4) \
        + 2e4 * rng.standard_normal(n)


_FFT_RSS_PROBE = """
import numpy as np
from hpsusp import estimator

def peak_kb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

t = np.arange(108001) / 360.0
trace = estimator.PressureTrace(dt=1 / 360.0, samples=1e6 + 5e4 * np.sin(31.0 * t))
before = peak_kb()
estimator.estimate_peak_frequency(trace)
print(peak_kb() - before)
"""


class TestSpectrumSplit:
    # (length, largest prime factor): 108 001 = 17 * 6353 (the benchmark
    # sweep), 2 * 6353, 317 * 331, a prime, 7200 and 2**16 (smooth), and
    # 46 = 2 * 23, below pocketfft's 50-sample direct cut. The split runs
    # where p * p > n and p < n.
    @pytest.mark.parametrize("n, p", [(108001, 6353), (2 * 6353, 6353),
                                      (317 * 331, 331), (108007, 108007),
                                      (7200, 5), (65536, 2), (46, 23)])
    def test_equals_single_rfft(self, n, p):
        assert estimator._largest_prime_factor(n) == p
        x = _tone_and_noise(n)
        segs = (x - x.mean())[None, :]
        ref = np.abs(np.fft.rfft(segs, axis=1))
        got = estimator._spectrum(segs.copy())
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * ref.max()
        ref[:, 0] = got[:, 0] = 0.0
        threshold = 1e-9 * x.max()
        assert np.any(got > threshold) and np.any(ref > threshold)
        k = int(np.argmax(ref))
        assert int(np.argmax(got)) == k
        trace = estimator.PressureTrace(dt=DT, samples=x)
        assert estimator.estimate_peak_frequency(trace) == k / (n * DT)

    def test_batched_windows_equal_single_rfft(self):
        # 362 = 2 * 181: each window of the batch takes the split
        x = _tone_and_noise(5000)
        starts, win, freqs = estimator.window_peak_frequencies(x, DT, 362, 181)
        assert win == 362 and starts.size > 20
        for start, f in zip(starts, freqs):
            seg = x[start:start + win] - x[start:start + win].mean()
            spectrum = np.abs(np.fft.rfft(seg))
            spectrum[0] = 0.0
            assert f == np.argmax(spectrum) / (win * DT)

    def test_constant_split_length_raises(self):
        trace = estimator.PressureTrace(dt=DT, samples=np.full(108001, 1e6))
        with pytest.raises(estimator.NoDominantFrequencyError):
            estimator.estimate_peak_frequency(trace)

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="needs Linux's VmHWM")
    def test_peak_rss_rise_at_benchmark_length(self):
        # pocketfft's own buffers are invisible to tracemalloc, so the rise
        # in peak RSS of a fresh process is measured: 16 MB with Bluestein
        # at 108 001 = 17 * 6353, ~3 MB with the split. VmHWM is the peak
        # of the process's own address space; ru_maxrss would start from
        # the spawning process's peak, which exec carries over.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", _FFT_RSS_PROBE], env=env,
                             capture_output=True, text=True, check=True)
        assert int(out.stdout) < 8 * 1024


class TestRun:
    def test_static_trace_with_override(self, bench_cfg):
        p0 = bench_cfg.charge.p0
        trace = estimator.PressureTrace(dt=DT, samples=np.full(512, p0))
        rows = estimator.run(trace, bench_cfg, freq_override=5.0).rows()
        assert np.allclose(rows.v, 0.0)
        assert np.allclose(rows.f_damp, 0.0)
        assert np.allclose(rows.f_fric, 0.0)
        f_expected = (p0 - bench_cfg.fluid.p_atm) * (bench_cfg.geom.a1
                                                     - bench_cfg.geom.a2)
        assert np.allclose(rows.f_gas, f_expected)

    def test_static_trace_without_override_raises(self, bench_cfg):
        trace = estimator.PressureTrace(dt=DT,
                                        samples=np.full(512, bench_cfg.charge.p0))
        with pytest.raises(estimator.NoDominantFrequencyError):
            estimator.run(trace, bench_cfg)

    def test_force_decomposition_exact(self, bench_cfg):
        trace = _sine_trace(5.0, n=2048)
        bd = estimator.run(trace, bench_cfg)
        rows = bd.rows()
        assert np.array_equal(rows.f_out, rows.f_gas + rows.f_damp + rows.f_fric)

    def test_determinism(self, bench_cfg):
        trace = _sine_trace(5.0, n=2048)
        b1 = estimator.run(trace, bench_cfg)
        b2 = estimator.run(trace, bench_cfg)
        assert np.array_equal(b1.rows().f_out, b2.rows().f_out)

    def test_round_trip_against_forward_model(self, bench_cfg):
        exc = oracle.Excitation(kind="sinusoid", amplitudes=(7.5e-3,),
                                frequencies=(5.0,), duration=4.0)
        trace = oracle.simulate_suspension(exc, bench_cfg, DT)
        bd = estimator.run(trace.to_pressure_trace(), bench_cfg)
        rel = metrics.rel_rmse(bd.rows().f_out, trace.f_out)
        assert rel < 0.02

    def test_frequency_override_equivalence(self, bench_cfg):
        exc = oracle.Excitation(kind="sinusoid", amplitudes=(7.5e-3,),
                                frequencies=(5.0,), duration=4.0)
        trace = oracle.simulate_suspension(exc, bench_cfg, DT).to_pressure_trace()
        auto = estimator.run(trace, bench_cfg)
        forced = estimator.run(trace, bench_cfg, freq_override=5.0)
        f_out = forced.rows().f_out
        diff = metrics.rmse(auto.rows().f_out, f_out)
        scale = float(np.sqrt(np.mean(np.square(f_out))))
        assert diff < 1e-3 * scale

    def test_hysteresis_shrinks_at_higher_temperature(self):
        exc = oracle.Excitation(kind="sinusoid", amplitudes=(7.5e-3,),
                                frequencies=(5.0,), duration=4.0)
        areas = {}
        for t0 in (30.0, 50.0):
            cfg = config.bench_prototype(t0=t0)
            trace = oracle.simulate_suspension(exc, cfg, DT)
            bd = estimator.run(trace.to_pressure_trace(), cfg)
            rows = bd.rows()
            areas[t0] = metrics.loop_area(rows.h_total, rows.f_out)
        assert areas[50.0] < areas[30.0]

    def test_config_used_as_given(self):
        cfg = config.bench_prototype(50.0)
        bd = estimator.run(_sine_trace(5.0, n=2048), cfg, freq_override=5.0)
        assert bd.cfg == cfg
        assert bd.n_eff == core.effective_polytropic_index(2.0 * np.pi * 5.0,
                                                           cfg.charge, cfg.fluid)

    def test_flow_inertia_flag_zeroes_only_inertia(self, bench_cfg):
        exc = oracle.Excitation(kind="sinusoid", amplitudes=(7.5e-3,),
                                frequencies=(5.0,), duration=4.0)
        trace = oracle.simulate_suspension(exc, bench_cfg, DT).to_pressure_trace()
        with_i = estimator.run(trace, bench_cfg, freq_override=5.0)
        without = estimator.run(trace, bench_cfg, freq_override=5.0,
                                flow_inertia=False)
        # the kinematic chain is untouched; the damping chain changes
        with_i, without = with_i.rows(), without.rows()
        assert np.array_equal(with_i.v, without.v)
        assert np.array_equal(with_i.f_fric, without.f_fric)
        assert not np.array_equal(with_i.f_damp, without.f_damp)


class TestPressureTrace:
    def test_rejects_nonpositive_samples(self):
        with pytest.raises(ValueError):
            estimator.PressureTrace(dt=DT, samples=np.array([1e6] * 20 + [0.0]))

    def test_rejects_short_traces(self):
        with pytest.raises(ValueError):
            estimator.PressureTrace(dt=DT, samples=np.full(8, 1e6))

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            estimator.PressureTrace(dt=0.0, samples=np.full(64, 1e6))

    def test_rejects_nan_sample(self):
        samples = np.full(400, 1e6)
        samples[123] = np.nan
        with pytest.raises(ValueError, match="positive and finite"):
            estimator.PressureTrace(dt=DT, samples=samples)

    def test_rejects_nan_dt(self):
        with pytest.raises(ValueError, match="sampling period"):
            estimator.PressureTrace(dt=float("nan"), samples=np.full(400, 1e6))
