"""Scalar physics-kernel checks against independently computed values."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from hpsusp import core
from hpsusp.config import bench_prototype


@pytest.fixture(scope="module")
def cfg():
    return bench_prototype(t0=30.0)


@pytest.fixture(scope="module")
def charge_ref(cfg):
    # charge state at the reference temperature: no linear temperature factor
    return dataclasses.replace(cfg.charge, t0=cfg.charge.t_ref)


class TestPolytropicIndex:
    def test_static_limit_is_isothermal(self, cfg, charge_ref):
        assert core.effective_polytropic_index(0.0, charge_ref, cfg.fluid) == 1.0

    def test_corner_frequency_value(self, cfg, charge_ref):
        # 1 + (gamma-1)*(1 - e^-1) at the reference temperature
        n = core.effective_polytropic_index(12.6, charge_ref, cfg.fluid)
        assert n == pytest.approx(1.2528482235314230, rel=1e-12)

    def test_high_frequency_limit_is_adiabatic(self, cfg, charge_ref):
        n = core.effective_polytropic_index(100 * 12.6, charge_ref, cfg.fluid)
        assert n == pytest.approx(1.4, abs=1e-3)

    def test_temperature_factor(self, cfg, charge_ref):
        n_hot = core.effective_polytropic_index(12.6, cfg.charge, cfg.fluid)
        n_ref = core.effective_polytropic_index(12.6, charge_ref, cfg.fluid)
        factor = 1.0 + cfg.charge.alpha_t * (cfg.charge.t0 - cfg.charge.t_ref)
        assert n_hot == pytest.approx(n_ref * factor, rel=1e-12)

    def test_monotone_in_omega(self, cfg):
        w = np.linspace(0.0, 200.0, 400)
        n = core.effective_polytropic_index(w, cfg.charge, cfg.fluid)
        assert np.all(np.diff(n) > 0.0)


class TestGasChain:
    def test_volume_identity_at_charge_pressure(self, cfg):
        v = core.gas_volume(cfg.charge.p0, cfg.charge, cfg.geom, 1.4)
        assert v == pytest.approx(cfg.geom.v0_gas, rel=1e-14)

    def test_volume_scalar_case(self, cfg):
        # 1.0e-3 * (0.8/1.6)^(1/1.4)
        v = core.gas_volume(1.6e6, cfg.charge, cfg.geom, 1.4)
        assert v == pytest.approx(6.095068271022377e-4, rel=1e-12)

    def test_pressure_volume_round_trip(self, cfg):
        p0 = cfg.charge.p0
        for p1 in np.linspace(0.5 * p0, 5.0 * p0, 23):
            v = core.gas_volume(p1, cfg.charge, cfg.geom, 1.3)
            back = core.gas_pressure(v, cfg.charge, cfg.geom, 1.3)
            assert back == pytest.approx(p1, rel=1e-9)

    def test_displacement_scalar_case(self, cfg):
        h = core.gas_displacement(6.0957e-4, cfg.geom)
        assert h == pytest.approx((1.0e-3 - 6.0957e-4) / 4.418e-3, rel=1e-12)

    def test_gas_force_scalar_case(self, cfg):
        f = core.gas_force(2.0e6, 1.9e6, cfg.geom, cfg.fluid)
        expected = (2.0e6 - 1.013e5) * 4.418e-3 - (1.9e6 - 1.013e5) * 1.885e-3
        assert f == pytest.approx(expected, rel=1e-12)
        assert f == pytest.approx(4997.9, abs=0.1)

    def test_gas_force_gauge_linearity(self, cfg):
        pa = cfg.fluid.p_atm
        f1 = core.gas_force(pa + 1e5, pa + 5e4, cfg.geom, cfg.fluid)
        f2 = core.gas_force(pa + 2e5, pa + 1e5, cfg.geom, cfg.fluid)
        assert f2 == pytest.approx(2.0 * f1, rel=1e-12)

    def test_gas_spring_loop_is_conservative(self, cfg):
        # closed pressure cycle -> closed (force, displacement) loop
        n_eff = 1.25
        p = cfg.charge.p0 * (1.0 + 0.4 * np.sin(np.linspace(0, 2 * np.pi, 2001)))
        v = core.gas_volume(p, cfg.charge, cfg.geom, n_eff)
        h = core.gas_displacement(v, cfg.geom)
        p_mid = 0.5 * (p[:-1] + p[1:])
        w = np.sum((p_mid - cfg.fluid.p_atm) * cfg.geom.a1 * np.diff(h))
        peak = np.max(np.abs((p - cfg.fluid.p_atm) * cfg.geom.a1 * h))
        assert abs(w) < 1e-6 * peak + 1e-9


class TestFlowChain:
    def test_effective_area_branches(self, cfg):
        a_ext = core.effective_flow_area(0.0, cfg.geom)
        assert a_ext == cfg.geom.a_ch
        assert a_ext == pytest.approx(math.pi * 0.003 ** 2, rel=1e-9)
        a_comp = core.effective_flow_area(1e-5, cfg.geom)
        assert a_comp == pytest.approx(a_ext + cfg.geom.a_check, rel=1e-12)
        assert a_comp == pytest.approx(a_ext + math.pi * 0.0015 ** 2, rel=1e-9)
        assert core.effective_flow_area(-1e-5, cfg.geom) == a_ext

    def test_viscous_drop_scalar_case(self, cfg):
        flow = core.FlowState(q=1e-4, dq_dt=0.0, v=0.0)
        _, dp_visc, dp_inert, _, _ = core.damping_pressure_drop(
            flow, cfg.geom, cfg.fluid)
        expected = 128 * 0.065 * 0.01 * 1e-4 / (math.pi * 0.006 ** 4)
        assert dp_visc == pytest.approx(expected, rel=1e-9)
        assert dp_inert == 0.0

    def test_zero_flow_gives_zero_drop(self, cfg):
        parts = core.damping_pressure_drop(core.FlowState(0.0, 0.0, 0.0),
                                           cfg.geom, cfg.fluid)
        assert all(p == 0.0 for p in parts)

    def test_check_valve_asymmetry(self, cfg):
        for q in np.linspace(1e-6, 5e-4, 40):
            ext = core.damping_pressure_drop(core.FlowState(-q, 0.0, 0.0),
                                             cfg.geom, cfg.fluid)[0]
            comp = core.damping_pressure_drop(core.FlowState(q, 0.0, 0.0),
                                              cfg.geom, cfg.fluid)[0]
            assert abs(ext) >= abs(comp)

    def test_damping_force(self, cfg):
        assert core.damping_force(1e5, cfg.geom) == pytest.approx(
            1e5 * cfg.geom.a3, rel=1e-12)
        assert core.damping_force(-3.0, cfg.geom) < 0.0


class TestFriction:
    def test_zero_velocity(self, cfg):
        assert core.friction_force(0.0, cfg.friction) == 0.0

    def test_scalar_case(self, cfg):
        f = core.friction_force(0.05, cfg.friction)
        expected = (200 + 100 * math.exp(-1.0)) * math.tanh(5.0) + 500 * 0.05
        assert f == pytest.approx(expected, rel=1e-12)
        assert f == pytest.approx(261.77, abs=0.05)

    def test_odd_symmetry(self, cfg):
        v = np.linspace(-1.0, 1.0, 201)
        f = core.friction_force(v, cfg.friction)
        assert np.allclose(f, -f[::-1], atol=1e-12)

    def test_bounded(self, cfg):
        v = np.linspace(-2.0, 2.0, 401)
        f = core.friction_force(v, cfg.friction)
        bound = cfg.friction.f_static + cfg.friction.k_v * np.abs(v)
        assert np.all(np.abs(f) <= bound + 1e-9)

    def test_algorithm_variant_squared_exponent(self, cfg):
        fp = cfg.friction
        v = 0.07
        f_sq = core.friction_force(v, fp, squared_exponent=True)
        expected = ((fp.f_coulomb + (fp.f_static - fp.f_coulomb)
                     * math.exp(-((v / fp.v_stribeck) ** 2)))
                    * math.tanh(fp.beta_fric * v))
        assert f_sq == pytest.approx(expected, rel=1e-12)


class TestTravelAndOil:
    def test_oil_compression_scalar_case(self, cfg):
        dv = core.oil_compression(1e6, cfg.geom, cfg.fluid)
        assert dv == pytest.approx(5e-4 / 1.7e9 * 1e6, rel=1e-12)

    def test_total_travel_scalar_case(self, cfg):
        h = core.total_travel(0.01, cfg.geom.v0_gas - 4.418e-5, 0.0, cfg.geom)
        assert h == pytest.approx(0.01 + 4.418e-5 / 2.533e-3, rel=1e-9)
        assert h == pytest.approx(0.027442, abs=1e-6)

    def test_total_travel_zero(self, cfg):
        assert core.total_travel(0.0, cfg.geom.v0_gas, 0.0, cfg.geom) == 0.0


class TestDifferentiate:
    def test_constant_series(self):
        out = core.differentiate(np.full(32, 3.7), 0.01)
        assert np.all(out == 0.0)

    def test_ramp(self):
        dt = 1.0 / 360.0
        x = 2.5 * np.arange(64) * dt
        out = core.differentiate(x, dt)
        assert np.allclose(out[1:], 2.5, rtol=1e-12)
        assert out[0] == out[1]

    @pytest.mark.parametrize("n", [2, 3, 17])
    def test_row_range_equals_whole_series(self, n):
        x = np.random.default_rng(n).normal(size=n)
        dt = 1.0 / 360.0
        whole = core.differentiate(x, dt)
        for lo in sorted({0, 1, 2, n - 1}):
            for hi in (lo + 1, lo + 2, n, n + 1):
                part = core.differentiate(x, dt, lo, hi)
                assert part.tobytes() == whole[lo:hi].tobytes(), (lo, hi)

    def test_sinusoid_truncation_bound(self):
        dt = 1.0 / 360.0
        w = 2 * math.pi * 5.0
        amp = 7.5e-3
        t = np.arange(7200) * dt
        x = amp * np.sin(w * t)
        d = core.differentiate(x, dt)
        true = amp * w * np.cos(w * t)
        err = np.max(np.abs(d[1:] - true[1:]))
        assert err < (w * dt / 2.0) * amp * w * 1.05

    def test_too_short(self):
        with pytest.raises(ValueError):
            core.differentiate(np.array([1.0]), 0.01)
