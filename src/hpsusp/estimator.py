"""Iterative suspension-force estimator driven by the gas-pressure signal.

Pipeline: identify the dominant excitation frequency from the pressure
spectrum, fix the effective polytropic index, then reconstruct per sample
the gas volume/displacement, piston velocity and flow, the hydraulic
pressure-drop chain, friction, and the total output force.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import core
from .config import SuspensionConfig
from .errors import InputError, NumericalError

__all__ = [
    "PressureTrace",
    "BreakdownRows",
    "ForceBreakdown",
    "NoDominantFrequencyError",
    "estimate_peak_frequency",
    "window_peak_frequencies",
    "run",
]

MIN_TRACE_LEN = 16
_FFT_SAMPLES = 65536     # window samples per batched FFT; bounds the window stack


class NoDominantFrequencyError(NumericalError):
    """The pressure signal has no usable non-DC spectral peak."""


@dataclass(frozen=True)
class PressureTrace:
    """Uniformly sampled gas-chamber pressure signal, the sole runtime input."""

    dt: float
    samples: np.ndarray    # Pa

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))
        if not 0.0 < self.dt < np.inf:
            raise InputError("sampling period must be positive and finite")
        if self.samples.ndim != 1 or self.samples.size < MIN_TRACE_LEN:
            raise InputError(f"need a 1-D trace of at least {MIN_TRACE_LEN} samples")
        if not np.all((self.samples > 0.0) & (self.samples < np.inf)):
            raise InputError("pressure samples must all be positive and finite")

    @property
    def n(self) -> int:
        return self.samples.size

    @property
    def t(self) -> np.ndarray:
        return np.arange(self.n) * self.dt


class BreakdownRows(NamedTuple):
    """The iterative chain's channels for a range of rows."""

    p2: np.ndarray
    f_gas: np.ndarray
    f_damp: np.ndarray
    f_fric: np.ndarray
    f_out: np.ndarray
    v: np.ndarray
    h_gas: np.ndarray
    h_total: np.ndarray
    a: np.ndarray


@dataclass
class ForceBreakdown:
    """Iterative estimate of a trace: its frequency and index, channels on demand.

    The chain is computed for a range of rows (`rows`), so no whole-trace
    copy of its channels need exist. `cavitation_count` is counted on
    every access, core.BLOCK_ROWS rows at a time.
    """

    trace: PressureTrace
    cfg: SuspensionConfig      # the caller's config, as given
    n_eff: float
    f_peak: float

    @property
    def cavitation_count(self) -> int:
        """Samples whose annular pressure p2 is at or below zero."""
        return sum(int(np.count_nonzero(self.rows(lo, lo + core.BLOCK_ROWS).p2 <= 0.0))
                   for lo in range(0, self.trace.n, core.BLOCK_ROWS))

    def rows(self, lo: int = 0, hi: int | None = None) -> BreakdownRows:
        """The chain for rows lo..hi-1, from p1 rows max(lo - 2, 0)..hi-1.

        v is the backward difference of h_gas, and dq/dt and a that of v,
        so a row needs the one before for v and two before for dq/dt and a.
        At row 0 of the trace, a difference equals its row 1 (read even when
        hi = 1) and dq/dt is 0 (no flow history), so every value equals the
        whole-trace result.
        """
        trace, cfg = self.trace, self.cfg
        hi = trace.n if hi is None else min(hi, trace.n)
        first = max(lo - 2, 0)
        # The rows before lo are context only: their own differences would
        # need rows before `first`.
        p1 = trace.samples[first:max(hi, 2)]
        geom, dt = cfg.geom, trace.dt
        v_gas = core.gas_volume(p1, cfg.charge, geom, self.n_eff)
        h_gas = core.gas_displacement(v_gas, geom)
        # Compression-positive velocity; h_gas already grows in compression.
        v = core.differentiate(h_gas, dt)
        dq_dt = core.differentiate(geom.a3 * v, dt)
        if first == 0:
            dq_dt[0] = 0.0  # no flow history at the first sample
        a = core.differentiate(v, dt)

        s = slice(lo - first, hi - first)
        p2, dp_total, f_gas, f_damp, f_fric = core.force_chain(
            p1[s], v[s], dq_dt[s], cfg)
        dv_oil = core.oil_compression(dp_total, geom, cfg.fluid)
        h_total = core.total_travel(h_gas[s], v_gas[s], dv_oil, geom)
        return BreakdownRows(p2=p2, f_gas=f_gas, f_damp=f_damp, f_fric=f_fric,
                             f_out=f_gas + f_damp + f_fric, v=v[s], h_gas=h_gas[s],
                             h_total=h_total, a=a[s])


def _largest_prime_factor(n: int) -> int:
    p, f = 1, 2
    while f * f <= n:
        while n % f == 0:
            p, n = f, n // f
        f += 1
    return max(p, n)


def _spectrum(segs: np.ndarray) -> np.ndarray:
    """np.abs(np.fft.rfft(segs, axis=1)): DFT magnitudes, bins 0..n//2 of each row.

    NumPy's pocketfft computes a length n whose largest prime factor p has
    p * p > n by Bluestein's algorithm, whose padded work arrays cost
    ~150 B per sample (108 001 = 17 * 6353). For such an n that is not
    prime, the same DFT is one Cooley-Tukey step n = n1 * p, n1 < sqrt(n),
    with no padded arrays: with the signal as n1 rows of p, real
    length-n1 FFTs down the columns (a real signal's rows k1 > n1/2 are
    the conjugates of rows n1 - k1), then per row k1 the twiddles and a
    length-p FFT give bins k1 + n1 * k2. Every other length keeps the
    single rfft.
    """
    m, n = segs.shape
    p = _largest_prime_factor(n)
    if p * p <= n or p == n:
        return np.abs(np.fft.rfft(segs, axis=1))
    n1 = n // p
    columns = np.fft.rfft(segs.reshape(m, n1, p), axis=1)
    spectrum = np.empty((m, n // 2 + 1))
    twiddle = (-2j * np.pi / n) * np.arange(p)
    for k1 in range(n1):
        col = columns[:, k1] if 2 * k1 <= n1 else columns[:, n1 - k1].conj()
        bins = spectrum[:, k1::n1]
        row = np.fft.fft(col * np.exp(k1 * twiddle), axis=1)
        np.abs(row[:, :bins.shape[1]], out=bins)
    return spectrum


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
        spectrum = _spectrum(segs)
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
        freq_override: float | None = None) -> ForceBreakdown:
    """Iterative reconstruction of the suspension output force.

    Finds the excitation frequency and the effective polytropic index; the
    returned ForceBreakdown computes the per-sample chain (gas volume and
    displacement, velocity and flow, the pressure-drop chain, friction,
    output force, travel) for the rows a caller asks for.

    freq_override supplies the excitation frequency in Hz, skipping the
    spectral estimate (used when the excitation is known exactly).
    """
    f_peak = float(freq_override) if freq_override is not None \
        else estimate_peak_frequency(trace)
    n_eff = core.effective_polytropic_index(2.0 * np.pi * f_peak, cfg.charge, cfg.fluid)
    return ForceBreakdown(trace=trace, cfg=cfg, n_eff=float(n_eff), f_peak=f_peak)
