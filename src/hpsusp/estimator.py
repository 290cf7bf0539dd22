"""Iterative suspension-force estimator driven by the gas-pressure signal.

Pipeline: identify the dominant excitation frequency from the pressure
spectrum, fix the effective polytropic index, then reconstruct per sample
the gas volume/displacement, piston velocity and flow, the hydraulic
pressure-drop chain, friction, and the total output force.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import core
from .config import SuspensionConfig

__all__ = [
    "PressureTrace",
    "ForceBreakdown",
    "NoDominantFrequencyError",
    "estimate_peak_frequency",
    "window_peak_frequencies",
    "run",
]

MIN_TRACE_LEN = 16
_FFT_SAMPLES = 65536     # window samples per batched FFT; bounds the window stack


class NoDominantFrequencyError(ValueError):
    """The pressure signal has no usable non-DC spectral peak."""


@dataclass(frozen=True)
class PressureTrace:
    """Uniformly sampled gas-chamber pressure signal, the sole runtime input."""

    dt: float
    samples: np.ndarray            # Pa
    t0_temperature: float = 30.0   # degC

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))
        if not 0.0 < self.dt < np.inf:
            raise ValueError("sampling period must be positive and finite")
        if self.samples.ndim != 1 or self.samples.size < MIN_TRACE_LEN:
            raise ValueError(f"need a 1-D trace of at least {MIN_TRACE_LEN} samples")
        if not np.all((self.samples > 0.0) & (self.samples < np.inf)):
            raise ValueError("pressure samples must all be positive and finite")

    @property
    def n(self) -> int:
        return self.samples.size

    @property
    def t(self) -> np.ndarray:
        return np.arange(self.n) * self.dt


@dataclass
class ForceBreakdown:
    """Per-sample estimator output plus run metadata."""

    f_gas: np.ndarray
    f_damp: np.ndarray
    f_fric: np.ndarray
    f_out: np.ndarray
    p2: np.ndarray
    v: np.ndarray
    h_total: np.ndarray
    a: np.ndarray
    n_eff: float
    f_peak: float
    cavitation_count: int = 0
    h_gas: np.ndarray | None = field(default=None, repr=False)


def window_peak_frequencies(samples: np.ndarray, dt: float, win: int,
                            hop: int) -> tuple:
    """Dominant frequency of each window of a signal, from one batched FFT.

    Windows of win samples start every hop samples; the last one is clamped
    to end at the final sample, and a signal shorter than win is one window
    of its own length. In each mean-removed window the largest non-DC DFT
    bin above a small threshold gives the frequency. A window without such
    a bin takes the previous window's frequency, or the first live
    window's when none precedes it. The windows are transformed in batches
    of about _FFT_SAMPLES samples. Returns (starts, window size, freqs_hz).
    """
    n = samples.size
    if n <= win:
        win = n
        starts = np.zeros(1, dtype=np.intp)
    else:
        starts = np.append(np.arange(0, n - win, hop), n - win)
    windows = np.lib.stride_tricks.sliding_window_view(samples, win)
    threshold = 1e-9 * max(samples.max(), 1.0)
    live = np.empty(starts.size, dtype=bool)
    k = np.empty(starts.size, dtype=np.intp)
    batch = max(_FFT_SAMPLES // win, 1)
    for a in range(0, starts.size, batch):
        segs = windows[starts[a:a + batch]]
        segs -= segs.mean(axis=1, keepdims=True)
        spectrum = np.abs(np.fft.rfft(segs, axis=1))
        spectrum[:, 0] = 0.0
        live[a:a + batch] = np.any(spectrum > threshold, axis=1)
        k[a:a + batch] = np.argmax(spectrum, axis=1)
    if not live.any():
        raise NoDominantFrequencyError("constant signal: no dominant frequency")
    source = np.maximum.accumulate(np.where(live, np.arange(live.size), -1))
    source[source < 0] = np.argmax(live)
    return starts, win, k[source] / (win * dt)


def estimate_peak_frequency(trace: PressureTrace) -> float:
    """Frequency of the largest non-DC DFT bin of the mean-removed signal."""
    _, _, freqs = window_peak_frequencies(trace.samples, trace.dt, trace.n, trace.n)
    return float(freqs[0])


def run(trace: PressureTrace, cfg: SuspensionConfig,
        freq_override: float | None = None,
        flow_inertia: bool = True) -> ForceBreakdown:
    """Full iterative reconstruction of the suspension output force.

    freq_override supplies the excitation frequency in Hz, skipping the
    spectral estimate (used when the excitation is known exactly).
    flow_inertia=False zeroes the fluid-inertia pressure drop, leaving
    only terms that are pure functions of the pressure pair; the lookup
    table is characterized this way because the inertia term depends on
    the flow acceleration and is therefore specific to the trajectory
    that produced it, not to the (P, dP) cell it lands in.
    """
    import dataclasses

    p1 = trace.samples
    f_peak = float(freq_override) if freq_override is not None \
        else estimate_peak_frequency(trace)
    omega = 2.0 * np.pi * f_peak
    charge = dataclasses.replace(cfg.charge, t0=trace.t0_temperature)
    n_eff = core.effective_polytropic_index(omega, charge, cfg.fluid)

    geom, fluid = cfg.geom, cfg.fluid
    v_gas = core.gas_volume(p1, charge, geom, n_eff)
    h_gas = core.gas_displacement(v_gas, geom)

    # Compression-positive velocity; h_gas already grows in compression.
    v = core.differentiate(h_gas, trace.dt)
    if flow_inertia:
        dq_dt = core.differentiate(geom.a3 * v, trace.dt)
        dq_dt[0] = 0.0  # no flow history at the first sample
    else:
        dq_dt = np.zeros_like(v)

    p2, dp_total, f_gas, f_damp, f_fric = core.force_chain(p1, v, dq_dt, cfg)
    cavitation_count = int(np.count_nonzero(p2 <= 0.0))
    f_out = f_gas + f_damp + f_fric

    dv_oil = core.oil_compression(dp_total, geom, fluid)
    h_total = core.total_travel(h_gas, v_gas, dv_oil, geom)
    a = core.differentiate(v, trace.dt)

    return ForceBreakdown(
        f_gas=f_gas, f_damp=f_damp, f_fric=f_fric, f_out=f_out,
        p2=p2, v=v, h_total=h_total, a=a,
        n_eff=float(n_eff), f_peak=f_peak,
        cavitation_count=cavitation_count, h_gas=h_gas)
