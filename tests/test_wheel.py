"""Double-wishbone kinematics and wheel-load chain."""

from __future__ import annotations

import math

import numpy as np
import pytest

from hpsusp import config, validate, wheel


@pytest.fixture(scope="module")
def link():
    return config.mining_truck(30.0).linkage


class TestInclination:
    def test_static(self, link):
        assert wheel.inclination(0.0, link) == link.beta0

    def test_scalar_case(self, link):
        # beta0 = 20 deg, k_beta = 0.12: 0.34907 + 0.012
        assert wheel.inclination(0.1, link) == pytest.approx(0.3610658503988659,
                                                             rel=1e-12)

    def test_linear(self, link):
        t = np.linspace(-0.2, 0.2, 41)
        b = wheel.inclination(t, link)
        assert np.allclose(np.diff(b, 2), 0.0, atol=1e-15)


class TestLowerArmAngle:
    def test_zero_travel(self, link):
        theta, beta = wheel.lower_arm_angle(0.0, link)
        assert theta == 0.0
        assert beta == link.beta0

    def test_two_pass_scalar_case(self, link):
        # prelim theta = 0.048/0.48 = 0.1, beta = beta0 + 0.012,
        # corrected theta = 0.1*cos(beta)
        theta, beta = wheel.lower_arm_angle(0.048, link)
        assert beta == pytest.approx(0.3610658503988659, rel=1e-12)
        assert theta == pytest.approx(0.1 * math.cos(0.3610658503988659),
                                      rel=1e-12)
        assert theta == pytest.approx(0.0936, abs=5e-4)

    def test_monotone_over_stroke(self, link):
        h = np.linspace(-0.15, 0.15, 301)
        theta, _ = wheel.lower_arm_angle(h, link)
        assert np.all(np.diff(theta) > 0.0)


class TestSuspensionRatio:
    def test_static_scalar_case(self, link):
        i0 = wheel.suspension_ratio(0.0, link.beta0, link)
        assert i0 == pytest.approx(0.7007464749503204, rel=1e-12)
        assert i0 == pytest.approx(link.static_ratio(), rel=1e-12)

    def test_increasing_in_theta(self, link):
        t = np.linspace(0.0, 0.4, 81)
        i = wheel.suspension_ratio(t, np.full_like(t, link.beta0), link)
        assert np.all(np.diff(i) > 0.0)

    def test_stroke_average_near_declared_value(self, link):
        h = np.linspace(-0.05, 0.05, 501)
        theta, beta = wheel.lower_arm_angle(h, link)
        i_mean = float(np.mean(wheel.suspension_ratio(theta, beta, link)))
        assert i_mean == pytest.approx(0.755, rel=0.10)

    def test_singularity_error(self, link):
        with pytest.raises(wheel.GeometrySingularityError):
            wheel.suspension_ratio(math.pi / 2 - link.alpha0, link.beta0, link)


class TestTireAcceleration:
    def test_rest(self, link):
        assert wheel.tire_acceleration(0.0, link.beta0, 0.0, 0.0, link) == 0.0

    def test_scalar_case(self, link):
        # L_lower*cos(alpha0)*cos(beta0)/L_eff with unit suspension accel
        z = wheel.tire_acceleration(0.0, link.beta0, 0.0, 1.0, link)
        expected = 0.65 * math.cos(math.radians(8.0)) \
            * math.cos(math.radians(20.0)) / 0.48
        assert z == pytest.approx(expected, rel=1e-12)
        assert z == pytest.approx(1.2601, abs=2e-4)

    def test_centripetal_term_sign(self, link):
        for theta in (0.05, 0.2):
            with_v = wheel.tire_acceleration(theta, link.beta0, 0.5, 0.0, link)
            assert with_v < 0.0  # opposed to sin(alpha0 + theta) > 0

    def test_beta_rate_term_is_small(self, link):
        z0 = wheel.tire_acceleration(0.05, link.beta0, 0.3, 2.0, link)
        z1 = wheel.tire_acceleration(0.05, link.beta0, 0.3, 2.0, link,
                                     include_beta_rate=True)
        assert abs(z1 - z0) < 0.01 * abs(z0)


class TestWheelLoad:
    def test_pure_unsprung_weight(self, link):
        assert wheel.wheel_load(0.0, 0.7, 0.0, link) == pytest.approx(7848.0)

    def test_transmission_scalar_case(self, link):
        f = wheel.wheel_load(140e3, 0.755, 0.0, link)
        assert f == pytest.approx(105700.0 + 7848.0)

    def test_inertia_term_magnitude(self, link):
        with_i = wheel.wheel_load(140e3, 0.755, 2.8, link)
        without = wheel.wheel_load(140e3, 0.755, 0.0, link)
        assert with_i - without == pytest.approx(link.m_t * 2.8)
        assert link.m_t * 2.8 < 0.03 * without

    def test_liftoff_warning(self, link):
        with pytest.warns(wheel.WheelLiftoffWarning):
            f = wheel.wheel_load(-50e3, 0.7, 0.0, link)
        assert f < 0.0  # returned as computed, not clamped

    def test_decomposition_identity(self, link):
        rng = np.random.default_rng(3)
        f_out = rng.uniform(5e4, 1.5e5, 256)
        i_sus = rng.uniform(0.6, 0.9, 256)
        ztt = rng.uniform(-4.0, 4.0, 256)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", wheel.WheelLiftoffWarning)
            f = wheel.wheel_load(f_out, i_sus, ztt, link)
        assert np.allclose(f - link.m_u * link.g,
                           i_sus * f_out + link.m_t * ztt,
                           rtol=1e-12, atol=1e-8)


def _tire_vertical_displacement(theta, link):
    """Tire center height z_t from the lower-arm angle, above the inner hinge.

    The hinge's own height is a constant datum; it cancels in a difference.
    """
    return link.l_lower * math.sin(link.alpha0 + theta)


class TestVirtualWorkConsistency:
    def test_ratio_matches_finite_difference(self, link):
        # i_sus * dz_w = cos(beta) * dh_sus for small arm increments
        # (theta perturbed by dh/L_eff, the arm-angle convention)
        for h in np.linspace(-0.1, 0.1, 21):
            theta, beta = wheel.lower_arm_angle(h, link)
            eps = 1e-6
            dz = _tire_vertical_displacement(theta + eps / link.l_eff, link) \
                - _tire_vertical_displacement(theta, link)
            i_sus = wheel.suspension_ratio(theta, beta, link)
            assert i_sus * dz == pytest.approx(math.cos(beta) * eps, rel=0.01)


class TestSeriesEstimation:
    def test_static_trace_constant_load(self, ctx):
        import numpy as np
        from hpsusp import estimator, lookup
        table = ctx.table("truck")
        truck = ctx.truck
        g = table.grids[0]
        p_level = 0.5 * (g.p_min + g.p_max)
        trace = estimator.PressureTrace(dt=validate.DT,
                                        samples=np.full(512, p_level))
        series = wheel.estimate_wheel_load_series(trace, table, truck.linkage,
                                                  omega=g.omega)
        k = 2  # earlier samples carry difference start-up values
        f = series.rows(k).f_tire
        assert np.allclose(f, f[0], rtol=1e-9)
        i0 = truck.linkage.static_ratio()
        f_static = lookup.query(table, p_level, 0.0, g.omega)[0]
        # constant trace: no motion, load = transmission + unsprung weight
        expected = wheel.suspension_ratio(*wheel.lower_arm_angle(0.0, truck.linkage),
                                          truck.linkage) * f_static \
            + truck.linkage.m_u * truck.linkage.g
        assert f[0] == pytest.approx(expected, rel=1e-6)
        assert i0 > 0.0

    def test_chain_on_oracle_strut_channels_tracks_the_dynamic_load(self, ctx):
        # The wheel chain applied to the quarter car's own strut channels
        # (f_out, h, v) against its tire load, over criterion 8's window.
        # Measured: 18.0 % of the truth's std (+ m_t*ztt); - m_t*ztt reads
        # 73 %, no inertia term 45 %, and the whole unsprung mass 6.2 %.
        from hpsusp import core
        run, link = ctx.quarter_car_run, ctx.truck.linkage
        theta, beta = wheel.lower_arm_angle(run.h - run.h.mean(), link)
        a_sus = core.differentiate(run.v, validate.DT)
        z_ddot = wheel.tire_acceleration(theta, beta, run.v, a_sus, link)
        f_tire = wheel.wheel_load(run.f_out, wheel.suspension_ratio(theta, beta, link),
                                  z_ddot, link)
        mask = run.t >= validate.QC_SETTLE_S
        truth = run.f_tire_truth[mask]
        err = math.sqrt(float(np.mean((f_tire[mask] - truth) ** 2)))
        assert err < 0.20 * float(np.std(truth))

    def test_closed_loop_series_quality(self, ctx):
        from hpsusp import metrics
        run = ctx.quarter_car_run
        series = ctx.wheel_series
        mask = run.t >= 2.0
        rel = metrics.rel_rmse_mean(series.rows().f_tire[mask], run.f_tire_truth[mask])
        assert rel < 0.05
