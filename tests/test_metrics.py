"""Error metrics used throughout the validation campaign."""

from __future__ import annotations

import math

import numpy as np
import pytest

from hpsusp import metrics
from hpsusp.errors import NumericalError


def test_rmse_known_value():
    est = np.array([1.0, 2.0, 3.0])
    truth = np.array([1.0, 1.0, 1.0])
    assert metrics.rmse(est, truth) == pytest.approx(math.sqrt(5.0 / 3.0))


def test_rmse_zero_for_identical():
    x = np.linspace(-3.0, 7.0, 41)
    assert metrics.rmse(x, x) == 0.0


def test_rel_rmse_normalizes_by_range():
    truth = np.array([0.0, 10.0])
    est = truth + 1.0
    assert metrics.rel_rmse(est, truth) == pytest.approx(0.1)


def test_rel_rmse_zero_range_raises():
    flat = np.full(8, 3.0)
    with pytest.raises(ValueError):
        metrics.rel_rmse(flat + 1.0, flat)


def test_rel_rmse_mean_normalizes_by_mean():
    truth = np.full(16, 100.0)
    est = truth + 5.0
    assert metrics.rel_rmse_mean(est, truth) == pytest.approx(0.05)


def test_rel_rmse_mean_uses_absolute_mean():
    truth = np.full(16, -100.0)
    est = truth + 5.0
    assert metrics.rel_rmse_mean(est, truth) == pytest.approx(0.05)


def test_rel_rmse_mean_zero_mean_raises():
    truth = np.array([-1.0, 1.0] * 8)
    with pytest.raises(ValueError):
        metrics.rel_rmse_mean(truth + 0.1, truth)


@pytest.mark.parametrize("form", [metrics.rel_rmse_sse, metrics.rel_rmse_mean_sse,
                                  metrics.r_squared_sse])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_sse_forms_refuse_a_non_finite_reference(form, bad):
    truth = 100.0 + np.sin(np.linspace(0.0, 6.0, 100))
    truth[40] = bad
    with pytest.raises(NumericalError, match="reference signal is not finite"):
        form(1.0, truth)


def test_r_squared_perfect_fit():
    truth = np.sin(np.linspace(0.0, 6.0, 100))
    assert metrics.r_squared(truth, truth) == pytest.approx(1.0)


def test_r_squared_mean_predictor_is_zero():
    truth = np.sin(np.linspace(0.0, 6.0, 100))
    est = np.full_like(truth, truth.mean())
    assert metrics.r_squared(est, truth) == pytest.approx(0.0, abs=1e-12)


def test_r_squared_scales_with_noise():
    rng = np.random.default_rng(7)
    truth = np.sin(np.linspace(0.0, 20.0, 2000))
    small = metrics.r_squared(truth + 0.01 * rng.standard_normal(truth.size), truth)
    large = metrics.r_squared(truth + 0.30 * rng.standard_normal(truth.size), truth)
    assert large < small < 1.0


def test_loop_area_unit_circle():
    # The contour integral of y dx over a counter-clockwise unit circle
    # is -pi; a clockwise traversal (dissipative loop) gives +pi.
    t = np.linspace(0.0, 2.0 * math.pi, 5001)
    x, y = np.cos(-t), np.sin(-t)
    assert metrics.loop_area(x, y) == pytest.approx(math.pi, rel=1e-5)


def test_loop_area_orientation_sign():
    t = np.linspace(0.0, 2.0 * math.pi, 5001)
    ccw = metrics.loop_area(np.cos(t), np.sin(t))
    cw = metrics.loop_area(np.cos(-t), np.sin(-t))
    assert ccw == pytest.approx(-cw, rel=1e-9)


def test_loop_area_degenerate_line_is_zero():
    x = np.linspace(0.0, 1.0, 50)
    assert metrics.loop_area(x, 2.0 * x) == pytest.approx(0.0, abs=1e-12)
