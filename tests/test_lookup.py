"""Lookup-table path: explicit mapping, build, query, serialization."""

from __future__ import annotations

import os
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from hpsusp import config, core, estimator, lookup, metrics, oracle
from hpsusp.errors import ParameterError

DT = 1.0 / 360.0


def _ref_blend_cells(table, omega):
    """Whole-grid blend: the reference the corner blend must equal bit for bit."""
    grids = table.grids
    if omega <= grids[0].omega:
        return grids[0]
    if omega >= grids[-1].omega:
        return grids[-1]
    for lo, hi in zip(grids[:-1], grids[1:]):
        if lo.omega <= omega <= hi.omega:
            w = (omega - lo.omega) / (hi.omega - lo.omega)
            near = lo if omega - lo.omega <= hi.omega - omega else hi
            return lookup.LookupGrid(omega=omega, p_min=lo.p_min, p_max=lo.p_max,
                                     dp_min=lo.dp_min, dp_max=lo.dp_max,
                                     cells=(1.0 - w) * lo.cells + w * hi.cells,
                                     filled=near.filled)
    raise AssertionError("unreachable: grids are sorted")


def _ref_bilinear(blend, grid0, p, dp, stats=None):
    """Clamped bilinear interpolation in blend's cells; axes from grid0 (shared)."""
    N_P, N_DP = lookup.N_P, lookup.N_DP
    p = np.atleast_1d(np.asarray(p, dtype=float))
    dp = np.atleast_1d(np.asarray(dp, dtype=float))
    x = (p - grid0.p_min) / (grid0.p_max - grid0.p_min) * (N_P - 1)
    y = (dp - grid0.dp_min) / (grid0.dp_max - grid0.dp_min) * (N_DP - 1)
    if stats is not None:
        stats.n_queries += p.size
        stats.p_clamped += int(np.count_nonzero((x < 0.0) | (x > N_P - 1)))
        stats.dp_clamped += int(np.count_nonzero((y < 0.0) | (y > N_DP - 1)))
    x = np.clip(x, 0.0, N_P - 1)
    y = np.clip(y, 0.0, N_DP - 1)
    if stats is not None:
        # nearest node, rounding half to even as round() does
        node = np.rint(x).astype(np.intp) * N_DP + np.rint(y).astype(np.intp)
        stats.extrapolated += p.size - int(np.count_nonzero(blend.filled.ravel()[node]))
        del node  # freed before the corner products, which set the peak
    cells = blend.cells
    i0 = np.minimum(x.astype(np.intp), N_P - 2)
    j0 = np.minimum(y.astype(np.intp), N_DP - 2)
    fx = (x - i0)[:, None]
    fy = (y - j0)[:, None]
    c00 = cells[i0, j0]
    c10 = cells[i0 + 1, j0]
    c01 = cells[i0, j0 + 1]
    c11 = cells[i0 + 1, j0 + 1]
    out = (c00 * (1 - fx) * (1 - fy) + c10 * fx * (1 - fy)
           + c01 * (1 - fx) * fy + c11 * fx * fy)
    return out


class TestPressureToVelocity:
    """The exact mapping (h_gas(P) - h_gas(P - dP)) / dt that the cells hold."""

    def test_quasi_static_is_zero(self, bench_cfg):
        assert lookup.pressure_to_velocity(1.0e6, 0.0, DT, bench_cfg, 1.25)[0] == 0.0

    def test_scalar_case(self, bench_cfg):
        # h_gas(p) = (V0 - V0*(P0/p)^(1/n))/A1 with V0 = 1e-3, P0 = 0.8e6,
        # A1 = 4.418e-3, n = 1.25: v = V0*((P0/(p - dp))^0.8 - (P0/p)^0.8)/(A1 dt)
        v, h, h_prev = lookup.pressure_to_velocity(1.0e6, 1000.0, 0.002778,
                                                   bench_cfg, 1.25)
        assert v == pytest.approx(0.0545751675529123, rel=1e-9)
        assert v == (h - h_prev) / 0.002778

    def test_sign_convention_compression_positive(self, bench_cfg):
        assert lookup.pressure_to_velocity(1.0e6, 800.0, DT, bench_cfg, 1.25)[0] > 0.0

    def test_injective_over_random_pairs(self, bench_cfg):
        rng = np.random.default_rng(7)
        p = rng.uniform(0.9e6, 3.0e6, 10_000)
        dp = rng.uniform(-5e4, 5e4, 10_000)
        v = lookup.pressure_to_velocity(p, dp, DT, bench_cfg, 1.25)[0]
        # distinct (p, dp) with dp != 0 give distinct v; dp = 0 collapses to 0
        nonzero = dp != 0.0
        assert np.unique(v[nonzero]).size == np.count_nonzero(nonzero)

    def test_monotone_in_dp_and_p(self, bench_cfg):
        dp = np.linspace(-4e4, 4e4, 101)
        v = lookup.pressure_to_velocity(np.full_like(dp, 1.5e6), dp, DT,
                                        bench_cfg, 1.25)[0]
        assert np.all(np.diff(v) > 0.0)
        p = np.linspace(1.0e6, 3.0e6, 101)
        v2 = lookup.pressure_to_velocity(p, np.full_like(p, 1e4), DT,
                                         bench_cfg, 1.25)[0]
        assert np.all(np.diff(v2) < 0.0)

    def test_rejects_nonpositive_pressure(self, bench_cfg):
        with pytest.raises(ValueError):
            lookup.pressure_to_velocity(0.0, 1.0, DT, bench_cfg, 1.25)

    def test_grid_nodes_hold_the_mapping_and_the_force(self, bench_cfg, bench_table):
        charge, geom = bench_cfg.charge, bench_cfg.geom
        assert len(bench_table.grids) == 4
        for g in bench_table.grids:
            n_eff = core.effective_polytropic_index(g.omega, charge, bench_cfg.fluid)
            p = np.linspace(g.p_min, g.p_max, lookup.N_P)[:, None]
            dp = np.linspace(g.dp_min, g.dp_max, lookup.N_DP)[None, :]
            v, h, h_prev = lookup.pressure_to_velocity(p, dp, bench_table.dt,
                                                       bench_cfg, n_eff)

            def h_gas(x):
                return core.gas_displacement(core.gas_volume(x, charge, geom, n_eff), geom)

            assert np.array_equal(h, h_gas(p))
            assert np.array_equal(h_prev, h_gas(p - dp))
            assert np.array_equal(v, (h_gas(p) - h_gas(p - dp)) / bench_table.dt)
            # the float64 values at the nodes, as the cells store them; f_out
            # is the chain at (P, v) with no fluid-inertia drop
            _, _, f_gas, f_damp, f_fric = core.force_chain(p, v, 0.0, bench_cfg)
            assert np.array_equal(g.cells[..., 0],
                                  (f_gas + f_damp + f_fric).astype(np.float32))
            assert np.array_equal(g.cells[..., 1], v.astype(np.float32))
            assert np.array_equal(g.cells[..., 2],
                                  np.broadcast_to(h, v.shape).astype(np.float32))


class TestBuildTable:
    def test_structure(self, bench_table):
        assert len(bench_table.grids) == 4
        assert bench_table.frequencies_hz == pytest.approx((3.0, 5.0, 7.0, 8.0))
        for g in bench_table.grids:
            assert g.cells.shape == (lookup.N_P, lookup.N_DP, 3)
            assert g.cells.dtype == np.float32
            assert g.coverage >= lookup.MIN_COVERAGE
            assert g.dp_min == pytest.approx(-g.dp_max)
        # shared axes across grids
        g0 = bench_table.grids[0]
        for g in bench_table.grids[1:]:
            assert (g.p_min, g.p_max, g.dp_min, g.dp_max) == \
                (g0.p_min, g0.p_max, g0.dp_min, g0.dp_max)

    def test_cell_payload_size(self, bench_table):
        n = len(bench_table.grids)
        assert n * lookup.N_P * lookup.N_DP * 3 * 4 == 960_000

    def test_needs_two_frequencies(self, bench_cfg):
        with pytest.raises(ValueError):
            lookup.build_table(bench_cfg,
                               config.TableBuildSettings(frequencies_hz=(5.0,)))
        # a repeated frequency would write a table that deserialize rejects
        with pytest.raises(ValueError, match="distinct"):
            lookup.build_table(bench_cfg,
                               config.TableBuildSettings(frequencies_hz=(3.0, 5.0, 5.0)))


class TestQuery:
    def test_grid_node_exact(self, bench_table):
        g = bench_table.grids[1]  # 5 Hz
        i, j = 40, 120
        p = g.p_min + (g.p_max - g.p_min) * i / (lookup.N_P - 1)
        dp = g.dp_min + (g.dp_max - g.dp_min) * j / (lookup.N_DP - 1)
        out = lookup.query(bench_table, p, dp, g.omega)
        assert out == pytest.approx(tuple(float(x) for x in g.cells[i, j]),
                                    rel=1e-9)

    def test_cell_center_is_corner_mean(self, bench_table):
        g = bench_table.grids[0]
        i, j = 10, 50
        step_p = (g.p_max - g.p_min) / (lookup.N_P - 1)
        step_dp = (g.dp_max - g.dp_min) / (lookup.N_DP - 1)
        p = g.p_min + (i + 0.5) * step_p
        dp = g.dp_min + (j + 0.5) * step_dp
        out = np.array(lookup.query(bench_table, p, dp, g.omega))
        mean = g.cells[i:i + 2, j:j + 2].reshape(4, 3).astype(float).mean(axis=0)
        assert np.allclose(out, mean, rtol=1e-6, atol=1e-9)

    def test_midpoint_frequency_blend(self, bench_table):
        g7, g8 = bench_table.grids[2], bench_table.grids[3]
        omega = 0.5 * (g7.omega + g8.omega)  # 7.5 Hz, alpha = 0.5
        p = 0.5 * (g7.p_min + g7.p_max)
        f_mid = lookup.query(bench_table, p, 0.0, omega)[0]
        f7 = lookup.query(bench_table, p, 0.0, g7.omega)[0]
        f8 = lookup.query(bench_table, p, 0.0, g8.omega)[0]
        assert f_mid == pytest.approx(0.5 * (f7 + f8), rel=1e-6)

    def test_equals_whole_grid_reference_bit_for_bit(self, bench_table):
        # below, on, between (the middle one at a tie) and above the grid
        # frequencies, with pressure pairs inside, outside the swept region
        # and clamped on either axis
        g = bench_table.grids[0]
        oms = [gr.omega for gr in bench_table.grids]
        omegas = [0.5 * oms[0], *oms, 0.5 * (oms[1] + oms[2]),
                  oms[1] + 0.3 * (oms[2] - oms[1]), 2.0 * oms[-1]]
        rng = np.random.default_rng(5)
        p = g.p_min + (g.p_max - g.p_min) * rng.uniform(-0.2, 1.2, 300)
        dp = g.dp_max * rng.uniform(-1.3, 1.3, 300)
        stats, ref_stats = lookup.QueryStats(), lookup.QueryStats()
        for omega in omegas:
            ref = _ref_bilinear(_ref_blend_cells(bench_table, omega), g, p, dp,
                                ref_stats)
            out = [lookup.query(bench_table, float(a), float(b), omega, stats)
                   for a, b in zip(p, dp)]
            assert np.array_equal(np.array(out), ref), omega
        assert stats == ref_stats
        assert min(stats.p_clamped, stats.dp_clamped, stats.extrapolated) > 0
        assert stats.extrapolated < stats.n_queries

    def test_out_of_range_clamps_and_counts(self, bench_table):
        g = bench_table.grids[0]
        stats = lookup.QueryStats()
        lo = lookup.query(bench_table, g.p_min - 1e5, 0.0, g.omega, stats)
        edge = lookup.query(bench_table, g.p_min, 0.0, g.omega)
        assert lo == edge
        assert stats.p_clamped == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("arg", ["p", "dp", "omega"])
    def test_non_finite_input_is_parameter_error(self, bench_table, arg, bad):
        # a NaN omega would pass both end checks of the grid bracket
        g = bench_table.grids[1]
        args = {"p": 0.5 * (g.p_min + g.p_max), "dp": 0.0, "omega": g.omega}
        args[arg] = bad
        with pytest.raises(ParameterError, match="finite p, dp and omega"):
            lookup.query(bench_table, **args)


class TestEstimateSeries:
    def test_constant_trace(self, bench_table, bench_cfg):
        p_level = 0.5 * (bench_table.grids[0].p_min + bench_table.grids[0].p_max)
        trace = estimator.PressureTrace(dt=DT, samples=np.full(512, p_level))
        est = lookup.estimate_series(trace, bench_table,
                                     omega=bench_table.grids[1].omega)
        rows = est.rows()
        assert np.allclose(rows.v, 0.0, atol=1e-6)
        assert np.allclose(rows.f_out, rows.f_out[0])

    def test_dt_mismatch_raises(self, bench_table):
        trace = estimator.PressureTrace(dt=DT * 2, samples=np.full(64, 1.0e6))
        with pytest.raises(lookup.TimeBaseError):
            lookup.estimate_series(trace, bench_table, omega=30.0)

    def test_grid_frequency_matches_iterative(self, ctx, bench_table, bench_cfg):
        trace = ctx.bench_trace(5.0).to_pressure_trace()
        est = lookup.estimate_series(trace, bench_table,
                                     omega=2 * np.pi * 5.0)
        from hpsusp import estimator as est_mod
        bd = est_mod.run(trace, bench_cfg, freq_override=5.0)
        assert metrics.rel_rmse(est.rows(2).f_out, bd.rows(2).f_out) < 0.02

    def test_auto_frequency_tracking(self, ctx, bench_table):
        trace = ctx.bench_trace(5.0).to_pressure_trace()
        est = lookup.estimate_series(trace, bench_table, omega="auto")
        tracked_hz = est.omega / (2 * np.pi)
        assert np.median(tracked_hz) == pytest.approx(5.0, abs=0.3)

    @staticmethod
    def _chirp(table, n):
        """Pressure chirp 2 -> 9 Hz in the table's range, with a constant head."""
        g = table.grids[0]
        t = np.arange(n) * DT
        span = max(t[-1], DT)
        phase = 2 * np.pi * (2.0 * t + 3.5 * t ** 2 / span)
        p = 0.5 * (g.p_min + g.p_max) + 0.2 * (g.p_max - g.p_min) * np.sin(phase)
        p[:n // 4] = p[n // 4]  # leading windows without a spectral peak
        return estimator.PressureTrace(dt=DT, samples=p)

    @staticmethod
    def _reference_omega(samples, dt):
        """Window-by-window spectral peaks and an n x W nearest-centre argmin."""
        n = samples.size
        win = max(int(round(1.0 / dt)), estimator.MIN_TRACE_LEN)
        hop = max(win // 2, 1)
        centers, freqs, start = [], [], 0
        while True:
            stop = min(start + win, n)
            seg = samples[max(stop - win, 0):stop]
            spec = np.abs(np.fft.rfft(seg - seg.mean()))
            spec[0] = 0.0
            if np.any(spec > 1e-9 * max(samples.max(), 1.0)):
                freqs.append(int(np.argmax(spec)) / (seg.size * dt))
            else:
                freqs.append(freqs[-1] if freqs else 0.0)
            centers.append(0.5 * (max(stop - win, 0) + stop))
            if stop >= n:
                break
            start += hop
        first = next(f for f in freqs if f > 0.0)
        freqs = np.array([f if f > 0.0 else first for f in freqs])
        centers = np.asarray(centers)
        nearest = np.abs(np.arange(n)[:, None] - centers[None, :]).argmin(axis=1)
        return 2.0 * np.pi * freqs[nearest], centers, freqs

    def test_auto_omega_matches_nearest_window_reference(self, bench_table):
        ties_split = 0
        for n in (16, 359, 360, 361, 540, 541, 1000, 5000):
            trace = self._chirp(bench_table, n)
            est = lookup.estimate_series(trace, bench_table, omega="auto")
            ref, centers, freqs = self._reference_omega(trace.samples, DT)
            assert np.array_equal(est.omega, ref), n
            # samples exactly between two window centres go to the earlier one
            mids = 0.5 * (centers[:-1] + centers[1:])
            on_mid = (mids == np.floor(mids)) & (freqs[:-1] != freqs[1:])
            ties_split += int(np.count_nonzero(on_mid))
            for j in np.flatnonzero(on_mid):
                assert est.omega[int(mids[j])] == 2.0 * np.pi * freqs[j]
        assert ties_split > 0

    def test_blend_groups_match_per_mask_reference(self, bench_table):
        # a 3 -> 120 Hz chirp is tracked at ~100 distinct blend frequencies
        g = bench_table.grids[0]
        t = np.arange(21601) * DT
        phase = 2 * np.pi * (3.0 * t + 117.0 * t ** 2 / (2.0 * t[-1]))
        p = 0.5 * (g.p_min + g.p_max) + 0.3 * (g.p_max - g.p_min) * np.sin(phase)
        trace = estimator.PressureTrace(dt=DT, samples=p)
        est = lookup.estimate_series(trace, bench_table, omega="auto")
        assert np.unique(est.omega).size > 100

        dp = np.empty_like(p)
        dp[1:] = np.diff(p)
        dp[0] = dp[1]
        stats = lookup.QueryStats()
        ref = np.empty((p.size, 3))
        for w in np.unique(est.omega):
            mask = est.omega == w
            ref[mask] = _ref_bilinear(_ref_blend_cells(bench_table, float(w)),
                                      g, p[mask], dp[mask], stats)
        assert np.array_equal(est.rows().f_out, ref[:, 0])
        assert np.array_equal(est.rows().v, ref[:, 1])
        assert np.array_equal(est.h, ref[:, 2])
        assert est.stats == stats
        assert stats.p_clamped + stats.dp_clamped > 0

    def test_non_finite_fixed_omega_rejected(self, bench_table):
        trace = estimator.PressureTrace(dt=DT, samples=np.full(64, 1.0e6))
        with pytest.raises(ValueError, match="omega must be finite"):
            lookup.estimate_series(trace, bench_table, omega=float("nan"))

    def test_auto_omega_memory_is_linear(self, bench_table):
        n = 72001
        trace = self._chirp(bench_table, n)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            lookup.estimate_series(trace, bench_table, omega="auto")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak / n < 256

    @pytest.mark.parametrize("omega", ["auto", 2 * np.pi * 5.5])
    def test_memory_per_added_sample(self, bench_table, omega):
        # The estimate holds the runs of equal blend frequency, not its
        # rows; measured 2.0 (auto: the tracking's batches) and 0.0 (fixed)
        # per sample added between these lengths, 30.3 and 32.0 while the
        # outputs were held, 91-128 and 240 before the groups were queried
        # in row blocks. 8 fails on any whole-trace float64 array.
        peaks = {}
        for n in (36001, 108001):
            trace = self._chirp(bench_table, n)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                lookup.estimate_series(trace, bench_table, omega=omega)
                peaks[n] = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        assert (peaks[108001] - peaks[36001]) / (108001 - 36001) < 8


class TestSerialization:
    def test_round_trip_identity(self, bench_table):
        blob = lookup.serialize(bench_table)
        back = lookup.deserialize(blob)
        assert back.dt == bench_table.dt
        assert back.config_digest == bench_table.config_digest
        assert len(back.grids) == len(bench_table.grids)
        for a, b in zip(back.grids, bench_table.grids):
            assert a.omega == b.omega
            assert (a.p_min, a.p_max, a.dp_min, a.dp_max) == \
                (b.p_min, b.p_max, b.dp_min, b.dp_max)
            assert np.array_equal(a.cells, b.cells)
            assert np.array_equal(a.filled, b.filled)

    def test_bad_magic(self, bench_table):
        blob = bytearray(lookup.serialize(bench_table))
        blob[0] ^= 0xFF
        with pytest.raises(lookup.BadMagicError):
            lookup.deserialize(bytes(blob))

    def test_truncated_payload(self, bench_table):
        blob = lookup.serialize(bench_table)
        with pytest.raises(lookup.TruncatedTableError):
            lookup.deserialize(blob[: len(blob) // 2])

    def test_trailing_garbage(self, bench_table):
        blob = lookup.serialize(bench_table) + b"\x00" * 7
        with pytest.raises(lookup.TableFormatError):
            lookup.deserialize(blob)

    def test_digest_mismatch(self, bench_table):
        blob = lookup.serialize(bench_table)
        with pytest.raises(lookup.DigestMismatchError):
            lookup.deserialize(blob, expected_digest=bench_table.config_digest ^ 1)

    def test_header_layout(self, bench_table):
        blob = lookup.serialize(bench_table)
        magic, version, digest, dt, n_freq = struct.unpack_from("<4sIQdI", blob, 0)
        assert magic == b"HPLT"
        assert version == 1
        assert digest == bench_table.config_digest
        assert dt == bench_table.dt
        assert n_freq == len(bench_table.grids)

    def test_save_load_with_config_check(self, bench_table, bench_cfg, tmp_path):
        path = tmp_path / "table.hplt"
        lookup.save_table(bench_table, path)
        back = lookup.load_table(path, bench_cfg)
        assert back.config_digest == bench_table.config_digest
        other = config.mining_truck(30.0).suspension
        with pytest.raises(lookup.DigestMismatchError):
            lookup.load_table(path, other)



def _reference_sweeps(cfg, settings):
    """The amplitude sweep that the closed-form table build replaced.

    Forty amplitudes per tone are simulated and estimated. Returns the
    shared axes and, per tone, the scattered (p, dp, f_out, v, h) samples.
    """
    dt, sweeps = settings.dt, []
    for f in sorted(settings.frequencies_hz):
        n_eff = core.effective_polytropic_index(2 * np.pi * f, cfg.charge, cfg.fluid)
        offset = 0.0
        if settings.static_force_n is not None:
            offset = oracle.static_gas_offset(cfg, settings.static_force_n, n_eff)
        amp_max = lookup._amplitude_schedule(f, settings.amplitude_scale)
        skip = int(round(1.0 / (f * dt)))
        cols = []
        for amp in np.linspace(amp_max / 40, amp_max, 40):
            exc = oracle.Excitation(kind="sinusoid", amplitudes=(float(amp),),
                                    frequencies=(f,), duration=20.0 / f,
                                    offset=offset)
            trace = oracle.simulate_suspension(exc, cfg, dt)
            rows = estimator.run(trace.to_pressure_trace(), cfg,
                                 freq_override=f).rows()
            # the chain with no fluid-inertia drop, which no cell can hold
            _, _, f_gas, f_damp, f_fric = core.force_chain(trace.p1, rows.v, 0.0, cfg)
            dp = np.empty_like(trace.p1)
            dp[1:] = np.diff(trace.p1)
            dp[0] = dp[1]
            cols.append(np.column_stack([trace.p1, dp, f_gas + f_damp + f_fric,
                                         rows.v, rows.h_gas])[skip:])
        sweeps.append(np.concatenate(cols))

    all_p = np.concatenate([s[:, 0] for s in sweeps])
    p_lo, p_hi = float(all_p.min()), float(all_p.max())
    pad = lookup.AXIS_PAD * (p_hi - p_lo)
    dp_abs = (1.0 + lookup.AXIS_PAD) * max(
        max(abs(float(s[:, 1].min())), abs(float(s[:, 1].max()))) for s in sweeps)
    return (p_lo - pad, p_hi + pad, -dp_abs, dp_abs), sweeps


def _reference_grids(axes, sweeps):
    """Delaunay gridding of the sweep samples, nearest sample outside the hull.

    Returns per tone (cells, filled), filled meaning inside the hull.
    """
    from scipy.interpolate import LinearNDInterpolator
    from scipy.spatial import Delaunay, cKDTree

    gi, gj = np.meshgrid(np.arange(lookup.N_P), np.arange(lookup.N_DP),
                         indexing="ij")
    nodes = np.column_stack([gi.ravel(), gj.ravel()]).astype(float)
    out = []
    for s in sweeps:
        pts = np.column_stack([
            (s[:, 0] - axes[0]) / (axes[1] - axes[0]) * (lookup.N_P - 1),
            (s[:, 1] - axes[2]) / (axes[3] - axes[2]) * (lookup.N_DP - 1)])
        vals = LinearNDInterpolator(Delaunay(pts), s[:, 2:])(nodes)
        inside = ~np.isnan(vals[:, 0])
        vals[~inside] = s[cKDTree(pts).query(nodes[~inside], k=1)[1], 2:]
        out.append((vals.astype(np.float32).reshape(lookup.N_P, lookup.N_DP, 3),
                    inside.reshape(lookup.N_P, lookup.N_DP)))
    return out


class TestClosedFormTable:
    def test_cells_equal_estimator_at_random_nodes(self, bench_cfg, bench_table):
        rng = np.random.default_rng(11)
        for g in bench_table.grids:
            f = g.omega / (2 * np.pi)
            p_axis = np.linspace(g.p_min, g.p_max, lookup.N_P)
            dp_axis = np.linspace(g.dp_min, g.dp_max, lookup.N_DP)
            span = np.ptp(g.cells.astype(float).reshape(-1, 3), axis=0)
            for i, j in zip(rng.integers(0, lookup.N_P, 20),
                            rng.integers(0, lookup.N_DP, 20)):
                p, dp = p_axis[i], dp_axis[j]
                # row 1 after p - dP: its v is row 0's (start-up convention),
                # so its dq/dt, and with it the fluid-inertia drop, is zero
                trace = estimator.PressureTrace(
                    dt=bench_table.dt, samples=np.append(p - dp, np.full(15, p)))
                rows = estimator.run(trace, bench_cfg, freq_override=f).rows(1, 2)
                want = np.array([rows.f_out[0], rows.v[0], rows.h_gas[0]])
                # float32 storage: half an ulp of the value, plus float64
                # rounding on the scale of the column
                assert np.all(np.abs(g.cells[i, j] - want)
                              <= 2.0 ** -24 * np.abs(want) + 1e-12 * span), (f, i, j)

    @pytest.mark.parametrize("preset", ["bench-prototype", "mining-truck"])
    def test_axes_equal_sweep_reference(self, preset):
        rc = config.preset(preset)
        table = lookup.build_table(rc.suspension, rc.table)
        axes, _ = _reference_sweeps(rc.suspension, rc.table)
        for g in table.grids:
            assert (g.p_min, g.p_max, g.dp_min, g.dp_max) == axes
            assert all(type(a) is float
                       for a in (g.omega, g.p_min, g.p_max, g.dp_min, g.dp_max))

    def test_cells_and_mask_near_delaunay_reference(self, truck):
        table = lookup.build_table(truck.suspension, truck.table)
        axes, sweeps = _reference_sweeps(truck.suspension, truck.table)
        for g, (ref_cells, ref_filled) in zip(table.grids,
                                              _reference_grids(axes, sweeps)):
            force = ref_cells[..., 0][ref_filled].astype(float)
            err = np.abs(g.cells[..., 0] - ref_cells[..., 0])[ref_filled]
            assert err.max() <= 0.005 * np.ptp(force), g.omega
            assert np.mean(g.filled != ref_filled) < 0.005, g.omega

    def test_build_imports_no_scipy_gridding(self):
        code = ("import sys\n"
                "from hpsusp import config, lookup\n"
                "rc = config.preset('mining-truck')\n"
                "lookup.build_table(rc.suspension, rc.table)\n"
                "print(sorted(m for m in sys.modules\n"
                "             if m.startswith(('scipy.spatial', 'scipy.interpolate'))))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"

    def test_stroke_limit_gates_the_build(self, bench_cfg):
        with pytest.raises(oracle.StrokeError):
            lookup.build_table(bench_cfg,
                               config.TableBuildSettings(amplitude_scale=7.0))

    def test_series_counts_extrapolated_like_query(self, bench_table):
        # a 2 -> 9 Hz chirp over most of the pressure axis leaves the swept
        # ellipses near its extremes and at its fast middle
        g = bench_table.grids[0]
        n = 1500
        t = np.arange(n) * DT
        phase = 2 * np.pi * (2.0 * t + 3.5 * t ** 2 / t[-1])
        p = 0.5 * (g.p_min + g.p_max) + 0.45 * (g.p_max - g.p_min) * np.sin(phase)
        trace = estimator.PressureTrace(dt=DT, samples=p)
        est = lookup.estimate_series(trace, bench_table, omega="auto")
        dp = np.empty_like(p)
        dp[1:] = np.diff(p)
        dp[0] = dp[1]
        ref = lookup.QueryStats()
        unfilled = 0
        for pi, dpi, w in zip(p, dp, est.omega):
            lookup.query(bench_table, float(pi), float(dpi), float(w), ref)
            # the rule spelled out: the nearest grid's mask at the rounded,
            # clamped node
            near = min(bench_table.grids, key=lambda grid: abs(grid.omega - w))
            i = round((pi - g.p_min) / (g.p_max - g.p_min) * (lookup.N_P - 1))
            j = round((dpi - g.dp_min) / (g.dp_max - g.dp_min) * (lookup.N_DP - 1))
            unfilled += not near.filled[min(max(i, 0), lookup.N_P - 1),
                                        min(max(j, 0), lookup.N_DP - 1)]
        assert est.stats == ref
        assert est.stats.extrapolated == unfilled > 0


class TestCriterion4Loops:
    """The two loops criterion 4 times compute the force of their batch paths."""

    def test_stream_iterative_equals_the_estimator(self, bench_cfg, bench_table):
        trace, freq_hz, n_eff, _ = lookup._benchmark_inputs(bench_table, bench_cfg, 12000)
        got = lookup._stream_iterative(trace, bench_cfg, n_eff)
        want = estimator.run(trace, bench_cfg, freq_override=freq_hz).rows().f_out
        # rows 0-1 differ by the start-up convention: the loop takes v = 0
        # at row 0, the estimator row 1's difference
        assert np.max(np.abs(got[2:] - want[2:])) <= 1e-10 * np.ptp(want)

    def test_stream_lookup_equals_the_series_estimate(self, bench_cfg, bench_table):
        trace, freq_hz, _, cells = lookup._benchmark_inputs(bench_table, bench_cfg, 12000)
        got = lookup._stream_lookup(trace, cells, bench_table.grids[0])
        want = lookup.estimate_series(trace, bench_table, 2.0 * np.pi * freq_hz).rows().f_out
        # row 0 takes dP = 0 in the loop, row 1's increment in the series
        assert np.max(np.abs(got[1:] - want[1:])) <= 1e-10 * np.ptp(want)
