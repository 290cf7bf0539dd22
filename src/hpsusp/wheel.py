"""Wheel dynamic load estimation through double-wishbone kinematics.

Maps the suspension axial state (output force, travel, velocity) to the
vertical wheel load: transmission ratio from virtual work, tire vertical
acceleration from the linkage kinematics, and the end-to-end per-sample
pipeline that starts from the raw pressure trace and the lookup table.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import core, lookup
from .config import WheelLinkage
from .errors import NumericalError
from .estimator import PressureTrace

__all__ = [
    "GeometrySingularityError",
    "WheelLiftoffWarning",
    "WheelLoadRows",
    "WheelLoadSeries",
    "inclination",
    "lower_arm_angle",
    "suspension_ratio",
    "tire_acceleration",
    "wheel_load",
    "estimate_wheel_load_series",
]

COS_SINGULARITY = 0.1


class GeometrySingularityError(NumericalError):
    """Lower arm rotated into the transmission-ratio singularity."""


class WheelLiftoffWarning(UserWarning):
    """Estimated wheel load went negative (tire leaving the ground)."""


def inclination(theta, link: WheelLinkage):
    """Suspension axis inclination, linear in the lower-arm angle."""
    b = link.beta0 + link.k_beta * np.asarray(theta, dtype=float)
    return float(b) if b.ndim == 0 else b


def lower_arm_angle(h_sus, link: WheelLinkage):
    """Lower-arm rotation angle from suspension travel, two-pass corrected.

    Pass 1 ignores the inclination projection (theta = h/L_eff) to place
    beta; pass 2 applies the cos(beta) correction.
    """
    h_sus = np.asarray(h_sus, dtype=float)
    theta_prelim = h_sus / link.l_eff
    beta = inclination(theta_prelim, link)
    theta = h_sus * np.cos(beta) / link.l_eff
    return (float(theta), float(np.asarray(beta))) if theta.ndim == 0 \
        else (theta, beta)


def suspension_ratio(theta, beta, link: WheelLinkage):
    """Transmission ratio i_sus = L_eff cos(beta) / (L_lower cos(alpha0+theta))."""
    cos_at = np.cos(link.alpha0 + np.asarray(theta, dtype=float))
    if np.any(cos_at <= COS_SINGULARITY):
        raise GeometrySingularityError(
            "lower arm near vertical: transmission ratio singular")
    i_sus = link.l_eff * np.cos(np.asarray(beta, dtype=float)) / (link.l_lower * cos_at)
    return float(i_sus) if i_sus.ndim == 0 else i_sus


def tire_acceleration(theta, beta, v, a_sus, link: WheelLinkage,
                      include_beta_rate: bool = False):
    """Tire vertical acceleration from the linkage kinematic chain.

    The centripetal term is quadratic in v; the second term converts the
    suspension axial acceleration. include_beta_rate restores the
    inclination-rate coupling term normally dropped as second-order small.
    """
    theta = np.asarray(theta, dtype=float)
    beta = np.asarray(beta, dtype=float)
    v = np.asarray(v, dtype=float)
    a_sus = np.asarray(a_sus, dtype=float)
    at = link.alpha0 + theta
    theta_dot = v * np.cos(beta) / link.l_eff
    z = -link.l_lower * np.sin(at) * theta_dot ** 2 \
        + link.l_lower * np.cos(at) * (a_sus * np.cos(beta) / link.l_eff)
    if include_beta_rate:
        beta_dot = link.k_beta * theta_dot
        z = z - link.l_lower * np.cos(at) * v * np.sin(beta) * beta_dot / link.l_eff
    return float(z) if z.ndim == 0 else z


def wheel_load(f_out, i_sus, z_ddot_t, link: WheelLinkage, warn_liftoff: bool = True):
    """Vertical wheel load F_tire = i_sus*f_out + m_u*g + m_t*z_ddot_t.

    The unsprung mass m_u (wheel, hub and tire: the quarter car's one
    unsprung body) has height z_t, up positive. The strut force f_out is
    compression-positive and pushes it down through the ratio i_sus, so
    its balance, as `oracle.simulate_quarter_car` integrates it, is
    m_u*z_t'' = F_tire - i_sus*f_out - m_u*g. The inertia term therefore
    enters with a plus sign. Its mass is the tire's, m_t, the term whose
    size criterion 9 bounds; the rest of the unsprung body's inertia,
    (m_u - m_t)*z_t'', is left out. z_ddot_t is `tire_acceleration`'s:
    the wheel's vertical acceleration relative to the body, up positive
    (theta, and with it z_t - z_s, grows in compression). The body's own
    acceleration is left out; on a vehicle it comes from every strut,
    not from this one.

    Negative loads (wheel liftoff) are returned as computed and flagged
    with a warning; downstream controllers need the raw signal.
    """
    f = np.asarray(i_sus, dtype=float) * np.asarray(f_out, dtype=float) \
        + link.m_u * link.g + link.m_t * np.asarray(z_ddot_t, dtype=float)
    n_neg = int(np.count_nonzero(np.asarray(f) < 0.0))
    if n_neg and warn_liftoff:
        warnings.warn(f"wheel load negative at {n_neg} sample(s): liftoff",
                      WheelLiftoffWarning, stacklevel=2)
    return float(f) if f.ndim == 0 else f


class WheelLoadRows(NamedTuple):
    """The wheel-load chain's channels for a range of rows."""

    f_tire: np.ndarray
    f_out: np.ndarray
    v: np.ndarray
    h_sus: np.ndarray        # suspension travel about the run mean, m
    a_sus: np.ndarray
    theta: np.ndarray
    beta: np.ndarray
    i_sus: np.ndarray
    z_ddot_t: np.ndarray


@dataclass
class WheelLoadSeries:
    """Per-sample wheel-load estimate: the lookup estimate and its travel reference.

    The kinematic chain is computed on demand for a range of rows
    (`rows`), so no whole-trace copy of its channels need exist.
    """

    est: lookup.SeriesEstimate
    h_ref: float             # travel reference: run mean of the looked-up h, m
    dt: float
    link: WheelLinkage
    liftoff_count: int = 0   # rows with f_tire < 0, once the rows are written

    @property
    def n(self) -> int:
        return self.est.n

    def rows(self, lo: int = 0, hi: int | None = None) -> WheelLoadRows:
        """The chain for rows lo..hi-1, from the lookup rows max(lo - 1, 0)..hi-1.

        a_sus is the backward difference of v, so a row needs the one
        before; a_sus[0] = a_sus[1] (read even when hi = 1), so each value
        equals what a whole-trace evaluation gives.
        """
        hi = self.n if hi is None else min(hi, self.n)
        link = self.link
        first = max(lo - 1, 0)
        est = self.est.rows(first, max(hi, 2))
        # the row before lo is context only: its own difference needs an earlier row
        a_sus = core.differentiate(est.v, self.dt)
        s = slice(lo - first, hi - first)
        a_sus, v, f_out = a_sus[s], est.v[s], est.f_out[s]
        h_sus = est.h[s] - self.h_ref
        theta, beta = lower_arm_angle(h_sus, link)
        i_sus = suspension_ratio(theta, beta, link)
        z_ddot = tire_acceleration(theta, beta, v, a_sus, link)
        f_tire = wheel_load(f_out, i_sus, z_ddot, link, warn_liftoff=False)
        return WheelLoadRows(f_tire=f_tire, f_out=f_out, v=v, h_sus=h_sus,
                             a_sus=a_sus, theta=theta, beta=beta, i_sus=i_sus,
                             z_ddot_t=z_ddot)


def estimate_wheel_load_series(trace: PressureTrace, table: lookup.LookupTable,
                               link: WheelLinkage,
                               omega: float | str = "auto") -> WheelLoadSeries:
    """Pressure trace -> wheel load, the full per-sample estimation chain.

    Steps per sample: pressure increment, table lookup for
    (f_out, v, h_sus), suspension acceleration by first-order difference
    of v, two-pass lower-arm angle/inclination, transmission ratio, tire
    acceleration, wheel load. The travel reference is the run mean of the
    looked-up h (static operating point), so theta measures deviation from
    static equilibrium.

    The whole-trace h is built only for its mean; the chain, and so any
    GeometrySingularityError, comes from `rows` as the rows are written.
    """
    est = lookup.estimate_series(trace, table, omega=omega)
    return WheelLoadSeries(est=est, h_ref=est.h.mean(), dt=trace.dt, link=link)
