"""Error metrics and cycle-loop utilities shared by validation and the CLI.

Each error metric has a `*_sse` form, from a sum of squared errors (`sse`)."""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError

__all__ = ["sse", "rmse", "rel_rmse", "rel_rmse_sse", "rel_rmse_mean",
           "rel_rmse_mean_sse", "r_squared", "r_squared_sse", "loop_area"]


def sse(estimate, truth) -> float:
    e = np.asarray(estimate, dtype=float) - np.asarray(truth, dtype=float)
    return float(np.sum(e * e))


def rmse(estimate, truth) -> float:
    return math.sqrt(sse(estimate, truth) / np.size(truth))


def rel_rmse(estimate, truth) -> float:
    return rel_rmse_sse(sse(estimate, truth), truth)


def _reference(truth) -> np.ndarray:
    """`truth` as a float array; NumericalError unless every value is finite."""
    truth = np.asarray(truth, dtype=float)
    if not np.isfinite(truth).all():
        raise NumericalError("reference signal is not finite")
    return truth


def rel_rmse_sse(total: float, truth) -> float:
    """RMSE normalized by the reference signal's peak-to-peak range."""
    truth = _reference(truth)
    span = float(truth.max() - truth.min())
    if span == 0.0:
        raise NumericalError("reference signal has zero range")
    return math.sqrt(total / truth.size) / span


def rel_rmse_mean(estimate, truth) -> float:
    return rel_rmse_mean_sse(sse(estimate, truth), truth)


def rel_rmse_mean_sse(total: float, truth) -> float:
    """RMSE normalized by the mean of the reference signal.

    Appropriate for signals with a large static offset, such as wheel
    loads, where the peak-to-peak range understates the working scale.
    """
    truth = _reference(truth)
    scale = abs(float(truth.mean()))
    if scale == 0.0:
        raise NumericalError("reference signal has zero mean")
    return math.sqrt(total / truth.size) / scale


def r_squared(estimate, truth) -> float:
    return r_squared_sse(sse(estimate, truth), truth)


def r_squared_sse(total: float, truth) -> float:
    """Coefficient of determination, 1 - SS_res/SS_tot, with SS_res = total."""
    truth = _reference(truth)
    ss_tot = float(np.sum((truth - truth.mean()) ** 2))
    if ss_tot == 0.0:
        raise NumericalError("reference signal is constant")
    return 1.0 - total / ss_tot


def loop_area(x, y) -> float:
    """Signed area enclosed by the closed (x, y) trajectory (shoelace).

    Computed as the contour integral of y dx over the sample polygon,
    closing the curve back to the first point. Positive for a dissipative
    force-displacement loop traversed in the physical direction.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = np.diff(np.append(x, x[0]))
    y_mid = 0.5 * (y + np.roll(y, -1))
    return float(np.sum(y_mid * dx))
