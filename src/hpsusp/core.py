"""Stateless physics kernel for a single hydro-pneumatic suspension unit.

Gas spring thermodynamics (polytropic process with a frequency/temperature
dependent effective index), the four-component hydraulic pressure-drop
chain, Stribeck friction, oil compressibility and the numerical
differentiation used by the estimators. All functions are pure and accept
scalars or numpy arrays.

Sign convention used throughout the package: piston velocity v, flow rate
Q and displacements are positive in compression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FluidProperties",
    "SuspensionGeometry",
    "GasChargeState",
    "FrictionParams",
    "FlowState",
    "effective_polytropic_index",
    "gas_volume",
    "gas_pressure",
    "gas_displacement",
    "gas_force",
    "effective_flow_area",
    "damping_pressure_drop",
    "damping_force",
    "friction_force",
    "oil_compression",
    "total_travel",
    "force_chain",
    "differentiate",
]


@dataclass(frozen=True)
class FluidProperties:
    """Hydraulic oil and gas charge physical properties."""

    rho: float        # oil density, kg/m^3
    mu: float         # dynamic viscosity at the operating temperature, Pa*s
    k_bulk: float     # oil bulk modulus, Pa
    gamma: float      # gas adiabatic index
    p_atm: float      # atmospheric pressure, Pa

    def __post_init__(self):
        if self.rho <= 0.0 or self.mu <= 0.0 or self.k_bulk <= 0.0:
            raise ValueError("fluid density, viscosity and bulk modulus must be positive")
        if self.gamma <= 1.0:
            raise ValueError("gas adiabatic index must exceed 1")
        if self.p_atm <= 0.0:
            raise ValueError("atmospheric pressure must be positive")


@dataclass(frozen=True)
class SuspensionGeometry:
    """Cylinder, valve and volume geometry of one suspension unit."""

    a1: float         # main piston effective area, m^2
    a2: float         # piston-rod cross-section area, m^2
    a3: float         # annular chamber effective area (= a1 - a2), m^2
    a_ch: float       # throttle orifice area, m^2
    a_check: float    # check valve area, m^2
    h_gap: float      # piston-cylinder radial clearance, m
    d_piston: float   # piston outer diameter, m
    l_piston: float   # piston (gap) length, m
    l_ch: float       # throttle channel effective length, m
    k_orif: float     # orifice resistance coefficient
    v0_gas: float     # initial (charge) gas volume, m^3
    v0_oil: float     # initial oil volume, m^3
    n_valve: int = 1  # parallel valve-set multiplicity

    def __post_init__(self):
        positive = (self.a1, self.a2, self.a3, self.a_ch, self.a_check,
                    self.h_gap, self.d_piston, self.l_piston, self.l_ch,
                    self.k_orif, self.v0_gas, self.v0_oil)
        if any(x <= 0.0 for x in positive):
            raise ValueError("all areas, lengths, volumes and coefficients must be positive")
        if self.n_valve < 1:
            raise ValueError("need at least one valve set (n_valve >= 1)")
        if abs(self.a3 - (self.a1 - self.a2)) > 1e-9:
            raise ValueError("annular area a3 must equal a1 - a2 (within 1e-9 m^2)")
        if self.h_gap >= self.d_piston:
            raise ValueError("radial clearance must be small compared with the piston diameter")

    @property
    def d_ch(self) -> float:
        """Throttle orifice diameter implied by a circular orifice area."""
        return 2.0 * math.sqrt(self.a_ch / (self.n_valve * math.pi))


@dataclass(frozen=True)
class GasChargeState:
    """Gas pre-charge condition and polytropic-index model constants."""

    p0: float             # initial charge pressure, Pa (absolute)
    t0: float             # operating temperature, degC
    alpha_t: float        # temperature correction coefficient, 1/degC
    omega_c: float        # corner angular frequency of the index model, rad/s
    t_ref: float = 25.0   # reference temperature, degC

    def __post_init__(self):
        if self.p0 <= 0.0:
            raise ValueError("charge pressure must be positive")
        if not -273.15 < self.t0 < math.inf:
            raise ValueError("operating temperature must be finite and above -273.15 degC")
        if self.omega_c <= 0.0:
            raise ValueError("corner frequency must be positive")


@dataclass(frozen=True)
class FrictionParams:
    """Stribeck friction model parameters."""

    f_coulomb: float   # Coulomb friction, N
    f_static: float    # static (breakaway) friction, N
    v_stribeck: float  # Stribeck velocity, m/s
    beta_fric: float   # tanh sharpness, s/m
    k_v: float         # viscous friction coefficient, N*s/m

    def __post_init__(self):
        if not (self.f_static >= self.f_coulomb >= 0.0):
            raise ValueError("need f_static >= f_coulomb >= 0")
        if self.v_stribeck <= 0.0 or self.beta_fric <= 0.0 or self.k_v < 0.0:
            raise ValueError("v_stribeck and beta_fric must be positive, k_v non-negative")


@dataclass(frozen=True)
class FlowState:
    """Volumetric flow through the damping path, compression-positive."""

    q: float | np.ndarray        # m^3/s
    dq_dt: float | np.ndarray    # m^3/s^2
    v: float | np.ndarray        # piston velocity, m/s


def effective_polytropic_index(omega, charge: GasChargeState, fluid: FluidProperties):
    """Frequency- and temperature-corrected polytropic index.

    Tends to 1 (isothermal) for omega -> 0 and to gamma (adiabatic) for
    omega >> omega_c; a linear temperature factor about t_ref is applied
    on top.
    """
    base = 1.0 + (fluid.gamma - 1.0) * (1.0 - np.exp(-np.asarray(omega, dtype=float) / charge.omega_c))
    n = base * (1.0 + charge.alpha_t * (charge.t0 - charge.t_ref))
    return float(n) if np.ndim(omega) == 0 else n


def gas_volume(p1, charge: GasChargeState, geom: SuspensionGeometry, n_eff: float):
    """Instantaneous gas volume from chamber pressure, V0*(P0/p1)^(1/n)."""
    p1 = np.asarray(p1, dtype=float)
    if np.any(p1 <= 0.0):
        raise ValueError("gas pressure must be positive")
    v = geom.v0_gas * (charge.p0 / p1) ** (1.0 / n_eff)
    return float(v) if v.ndim == 0 else v


def gas_pressure(v_gas, charge: GasChargeState, geom: SuspensionGeometry, n_eff: float):
    """Inverse of gas_volume: chamber pressure from gas volume."""
    v_gas = np.asarray(v_gas, dtype=float)
    if np.any(v_gas <= 0.0):
        raise ValueError("gas volume must be positive")
    p = charge.p0 * (geom.v0_gas / v_gas) ** n_eff
    return float(p) if p.ndim == 0 else p


def gas_displacement(v_gas, geom: SuspensionGeometry):
    """Piston gas-column displacement, zero at charge volume, positive in compression."""
    h = (geom.v0_gas - np.asarray(v_gas, dtype=float)) / geom.a1
    return float(h) if h.ndim == 0 else h


def gas_force(p1, p2, geom: SuspensionGeometry, fluid: FluidProperties):
    """Gas pressure force on the piston (gauge pressures on both faces)."""
    f = (np.asarray(p1, dtype=float) - fluid.p_atm) * geom.a1 \
        - (np.asarray(p2, dtype=float) - fluid.p_atm) * geom.a2
    return float(f) if f.ndim == 0 else f


def effective_flow_area(q, geom: SuspensionGeometry):
    """Flow area through the valve block.

    The check valve opens in compression (q > 0), adding its area; q <= 0
    (extension, including the q = 0 boundary) leaves only the orifice.
    """
    a = np.where(np.asarray(q, dtype=float) > 0.0, geom.a_ch + geom.a_check, geom.a_ch)
    return float(a) if a.ndim == 0 else a


def damping_pressure_drop(flow: FlowState, geom: SuspensionGeometry, fluid: FluidProperties):
    """Chamber I -> II pressure drop split into its four contributions.

    Returns (dp_total, dp_visc, dp_inert, dp_orif, dp_gap). Laminar channel
    loss and clearance leakage are linear in q, the fluid-inertia term is
    linear in dq/dt, and the orifice term is quadratic with the sign of q
    and the check-valve branch area.
    """
    q = np.asarray(flow.q, dtype=float)
    dq_dt = np.asarray(flow.dq_dt, dtype=float)
    d_ch = geom.d_ch
    dp_visc = 128.0 * fluid.mu * geom.l_ch * q / (math.pi * d_ch ** 4)
    dp_inert = fluid.rho * geom.l_ch * dq_dt / geom.a_ch
    a_eff = effective_flow_area(q, geom)
    dp_orif = geom.k_orif * fluid.rho * q * np.abs(q) / (2.0 * np.asarray(a_eff) ** 2)
    dp_gap = 12.0 * fluid.mu * geom.l_piston * q / (geom.h_gap ** 3 * math.pi * geom.d_piston)
    dp_total = dp_visc + dp_inert + dp_orif + dp_gap
    if np.ndim(dp_total) == 0:
        return (float(dp_total), float(dp_visc), float(dp_inert), float(dp_orif), float(dp_gap))
    return dp_total, dp_visc, dp_inert, dp_orif, dp_gap


def damping_force(dp_total, geom: SuspensionGeometry):
    """Hydraulic damping force, dp_total acting on the annular area."""
    f = np.asarray(dp_total, dtype=float) * geom.a3
    return float(f) if f.ndim == 0 else f


def friction_force(v, fp: FrictionParams, squared_exponent: bool = False):
    """Stribeck piston-seal friction, odd and continuous in v.

    squared_exponent=True switches to the variant with exp(-(v/v_s)^2)
    and no viscous term, kept for reproduction studies.
    """
    v = np.asarray(v, dtype=float)
    if squared_exponent:
        decay = np.exp(-((v / fp.v_stribeck) ** 2))
        f = (fp.f_coulomb + (fp.f_static - fp.f_coulomb) * decay) * np.tanh(fp.beta_fric * v)
    else:
        decay = np.exp(-np.abs(v) / fp.v_stribeck)
        f = (fp.f_coulomb + (fp.f_static - fp.f_coulomb) * decay) * np.tanh(fp.beta_fric * v) \
            + fp.k_v * v
    return float(f) if f.ndim == 0 else f


def oil_compression(dp_total, geom: SuspensionGeometry, fluid: FluidProperties):
    """Oil volume change from its slight compressibility."""
    dv = geom.v0_oil / fluid.k_bulk * np.asarray(dp_total, dtype=float)
    return float(dv) if dv.ndim == 0 else dv


def total_travel(h_gas, v_gas, dv_oil, geom: SuspensionGeometry):
    """Total suspension travel: gas displacement plus liquid displacement."""
    dv_gas = geom.v0_gas - np.asarray(v_gas, dtype=float)
    h = np.asarray(h_gas, dtype=float) + (dv_gas + np.asarray(dv_oil, dtype=float)) / geom.a3
    return float(h) if h.ndim == 0 else h


def force_chain(p1, v, dq_dt, cfg) -> tuple:
    """Hydraulic and friction chain at gas pressure p1 and piston velocity v.

    cfg is a SuspensionConfig; dq_dt is the flow acceleration of the
    fluid-inertia term. Arrays broadcast against each other. Returns (p2,
    dp_total, f_gas, f_damp, f_fric); the output force is f_gas + f_damp +
    f_fric.
    """
    geom, fluid = cfg.geom, cfg.fluid
    flow = FlowState(q=geom.a3 * v, dq_dt=dq_dt, v=v)
    dp_total, _, _, _, _ = damping_pressure_drop(flow, geom, fluid)
    p2 = p1 - dp_total
    f_gas = gas_force(p1, p2, geom, fluid)
    f_damp = damping_force(dp_total, geom)
    f_fric = friction_force(v, cfg.friction, squared_exponent=cfg.use_alg1_friction)
    return p2, dp_total, f_gas, f_damp, f_fric


def differentiate(series, dt: float, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Backward difference (x[i] - x[i-1])/dt for rows lo..hi-1 of a series.

    Reads only those rows and the one before; row 0 equals row 1 (startup
    convention), so any row range matches the whole-series result bit for
    bit. Applied once for velocity and twice for acceleration.
    """
    x = np.asarray(series, dtype=float)
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if x.size < 2:
        raise ValueError("need at least two samples to differentiate")
    hi = x.size if hi is None else min(hi, x.size)
    if lo > 0:
        return np.diff(x[lo - 1:hi]) / dt
    d = np.diff(x[:max(hi, 2)]) / dt
    return np.concatenate((d[:1], d))[:hi]
