"""Forward simulation oracle.

Two directions of use:

* ``simulate_suspension`` -- piston displacement prescribed, pressure and
  forces derived. Produces synthetic pressure traces with ground-truth
  forces for closed-loop validation and lookup-table generation.
* ``simulate_quarter_car`` -- two-mass vertical dynamics with the full
  spring-damper tire, propagated by a fixed-step RK4 integrator. Emits the
  gas pressure implied by the suspension stroke plus the true wheel load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import core
from .config import QuarterCarParams, SuspensionConfig
from .errors import NumericalError, ParameterError

__all__ = [
    "Excitation",
    "OracleTrace",
    "StrokeError",
    "InstabilityError",
    "simulate_suspension",
    "simulate_quarter_car",
    "static_gas_offset",
]


# output samples per block of road evaluations in simulate_quarter_car
_ROAD_BLOCK = 256


class StrokeError(NumericalError):
    """Prescribed excitation exceeds the stroke or empties the gas chamber."""


class InstabilityError(NumericalError, RuntimeError):
    """Quarter-car integration diverged."""


@dataclass(frozen=True)
class Excitation:
    """Deterministic displacement (or road) excitation.

    kinds: "sinusoid" (single tone), "sum-of-sines", "linear-sweep"
    (frequency ramped linearly from frequencies[0] to frequencies[1]).
    """

    kind: str
    amplitudes: tuple
    frequencies: tuple
    duration: float
    phases: tuple = ()
    offset: float = 0.0

    def __post_init__(self):
        if self.kind not in ("sinusoid", "sum-of-sines", "linear-sweep"):
            raise ParameterError(f"unknown excitation kind {self.kind!r}")
        if not 0.0 < self.duration < math.inf:
            raise ParameterError("duration must be positive and finite")
        if not self.phases:
            object.__setattr__(self, "phases", tuple(0.0 for _ in self.amplitudes))
        # The (amplitudes, frequencies, phases) each kind reads; a tone left
        # over would otherwise be dropped without a word.
        counts = (len(self.amplitudes), len(self.frequencies), len(self.phases))
        need = {"sinusoid": (1, 1, 1), "linear-sweep": (1, 2, 1)}.get(
            self.kind, (max(counts[0], 1),) * 3)
        if counts != need:
            raise ParameterError(f"{self.kind} needs {need} amplitudes, frequencies "
                                 f"and phases, got {counts}")
        n_cycles = self.duration * min(self.frequencies)
        if n_cycles < 20.0 - 1e-9:
            raise ParameterError("duration must cover at least 20 cycles of the lowest frequency")

    @property
    def primary_frequency(self) -> float:
        """Frequency used to fix the polytropic index (Hz)."""
        if self.kind == "linear-sweep":
            return 0.5 * (self.frequencies[0] + self.frequencies[1])
        amps = np.asarray(self.amplitudes)
        return float(self.frequencies[int(np.argmax(amps))])

    def _phase(self, t):
        if self.kind == "linear-sweep":
            f0, f1 = self.frequencies
            return 2.0 * np.pi * (f0 * t + (f1 - f0) * t ** 2 / (2.0 * self.duration))
        return None

    def displacement(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "linear-sweep":
            return self.offset + self.amplitudes[0] * np.sin(self._phase(t) + self.phases[0])
        out = np.full_like(t, self.offset)
        for a, f, ph in zip(self.amplitudes, self.frequencies, self.phases):
            out = out + a * np.sin(2.0 * np.pi * f * t + ph)
        return out

    def velocity(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "linear-sweep":
            f0, f1 = self.frequencies
            f_inst = f0 + (f1 - f0) * t / self.duration
            return self.amplitudes[0] * 2.0 * np.pi * f_inst * np.cos(self._phase(t) + self.phases[0])
        out = np.zeros_like(t)
        for a, f, ph in zip(self.amplitudes, self.frequencies, self.phases):
            w = 2.0 * np.pi * f
            out = out + a * w * np.cos(w * t + ph)
        return out

    def acceleration(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "linear-sweep":
            f0, f1 = self.frequencies
            df_dt = (f1 - f0) / self.duration
            f_inst = f0 + df_dt * t
            ph = self._phase(t) + self.phases[0]
            a0 = self.amplitudes[0]
            return a0 * (2.0 * np.pi * df_dt * np.cos(ph)
                         - (2.0 * np.pi * f_inst) ** 2 * np.sin(ph))
        out = np.zeros_like(t)
        for a, f, ph in zip(self.amplitudes, self.frequencies, self.phases):
            w = 2.0 * np.pi * f
            out = out - a * w * w * np.sin(w * t + ph)
        return out


@dataclass
class OracleTrace:
    """Forward-simulation output with ground-truth channels."""

    dt: float
    h: np.ndarray            # piston displacement from the charge point, m
    p1: np.ndarray           # gas chamber pressure, Pa
    p2: np.ndarray           # annular chamber pressure, Pa
    f_out: np.ndarray        # total output force, N
    v: np.ndarray            # piston velocity, m/s
    f_gas: np.ndarray | None = field(default=None, repr=False)
    f_damp: np.ndarray | None = field(default=None, repr=False)
    f_fric: np.ndarray | None = field(default=None, repr=False)
    # quarter-car channels (None for prescribed-displacement runs)
    z_s: np.ndarray | None = None
    z_t: np.ndarray | None = None
    zdot_s: np.ndarray | None = None
    zdot_t: np.ndarray | None = None
    z_g: np.ndarray | None = None
    f_tire_truth: np.ndarray | None = None

    @property
    def t(self) -> np.ndarray:
        return np.arange(self.p1.size) * self.dt

    def to_pressure_trace(self):
        from .estimator import PressureTrace
        return PressureTrace(dt=self.dt, samples=self.p1.copy())


def _sample_count(duration: float, dt: float) -> int:
    """Samples of a run of `duration` s at step dt, both ends included."""
    if not duration / dt < np.iinfo(np.intp).max // 8:  # a float64 array's limit
        raise NumericalError(f"a {duration:g} s run at dt={dt:g} s has too many samples")
    return int(round(duration / dt)) + 1


def simulate_suspension(excitation: Excitation, cfg: SuspensionConfig,
                        dt: float, freq_for_n_eff: float | None = None) -> OracleTrace:
    """Prescribed-displacement forward run of one suspension unit.

    The polytropic index is evaluated at the known excitation frequency
    (no spectral estimate), eliminating that error source from closed-loop
    comparisons.
    """
    t = np.arange(_sample_count(excitation.duration, dt)) * dt
    h = excitation.displacement(t)
    v = excitation.velocity(t)
    a = excitation.acceleration(t)
    if np.max(np.abs(h)) > cfg.stroke_limit:
        raise StrokeError(
            f"excitation peak {np.max(np.abs(h)):.4g} m exceeds the stroke limit "
            f"{cfg.stroke_limit:.4g} m")

    f_hz = excitation.primary_frequency if freq_for_n_eff is None else freq_for_n_eff
    n_eff = core.effective_polytropic_index(2.0 * np.pi * f_hz, cfg.charge, cfg.fluid)

    # Oil compressibility is neglected in the forward displacement-to-
    # pressure mapping (relative volume effect ~ dP/K_bulk); the inverse
    # estimator keeps it.
    v_gas = cfg.geom.v0_gas - cfg.geom.a1 * h
    if np.any(v_gas <= 0.0):
        raise StrokeError("gas chamber volume exhausted by the prescribed stroke")
    p1 = core.gas_pressure(v_gas, cfg.charge, cfg.geom, n_eff)
    p2, _, f_gas, f_damp, f_fric = core.force_chain(p1, v, cfg.geom.a3 * a, cfg)
    return OracleTrace(dt=dt, h=h, p1=p1, p2=p2,
                       f_out=f_gas + f_damp + f_fric, v=v,
                       f_gas=f_gas, f_damp=f_damp, f_fric=f_fric)


def static_gas_offset(cfg: SuspensionConfig, static_force: float, n_eff: float) -> float:
    """Piston displacement from the charge point carrying a static axial load."""
    geom, fluid, charge = cfg.geom, cfg.fluid, cfg.charge
    p_static = fluid.p_atm + static_force / (geom.a1 - geom.a2)
    if p_static <= charge.p0:
        raise NumericalError("static load must raise the pressure above the charge value")
    v_static = core.gas_volume(p_static, charge, geom, n_eff)
    return core.gas_displacement(v_static, geom)


def simulate_quarter_car(road: Excitation, params: QuarterCarParams,
                         dt: float, duration: float | None = None) -> OracleTrace:
    """Quarter-car forward run with the spring-damper tire.

    States: sprung and unsprung vertical displacement/velocity about the
    static equilibrium. Fixed-step classical RK4 at dt/4, subsampled to dt.
    The fluid-inertia pressure drop is omitted inside the state derivative
    (no algebraic acceleration available); its force contribution is well
    under 0.5% at truck scale.
    """
    link, cfg = params.link, params.cfg
    geom, fluid, charge, fric = cfg.geom, cfg.fluid, cfg.charge, cfg.friction
    if duration is None:
        duration = road.duration

    f_hz = road.primary_frequency
    n_eff = core.effective_polytropic_index(2.0 * np.pi * f_hz, charge, fluid)

    # static equilibrium
    i0 = link.static_ratio()
    f_out0 = params.m_s * link.g / i0
    h_static = static_gas_offset(cfg, f_out0, n_eff)
    f_tire0 = (params.m_s + params.m_u) * link.g
    delta_tire0 = f_tire0 / params.k_t

    m_s, m_u = params.m_s, params.m_u
    k_t, c_t = params.k_t, params.c_t
    g = link.g
    l_low, l_eff = link.l_lower, link.l_eff
    alpha0, beta0, k_beta = link.alpha0, link.beta0, link.k_beta
    sin_a0 = math.sin(alpha0)
    v0_gas, a1, a3 = geom.v0_gas, geom.a1, geom.a3
    p0 = charge.p0

    # linear damping coefficients dP/Q (viscous channel + clearance)
    c_lin = (128.0 * fluid.mu * geom.l_ch / (math.pi * geom.d_ch ** 4)
             + 12.0 * fluid.mu * geom.l_piston / (geom.h_gap ** 3 * math.pi * geom.d_piston))
    k_orif_coef = geom.k_orif * fluid.rho / 2.0
    a_comp = geom.a_ch + geom.a_check
    a_ext = geom.a_ch
    fc, fs, vsb, bf, kv = fric.f_coulomb, fric.f_static, fric.v_stribeck, \
        fric.beta_fric, fric.k_v
    alg1 = cfg.use_alg1_friction

    def suspension_axial(z_rel, zdot_rel):
        """(f_out, p1, p2, h_abs, v_sus, i_sus) at relative wheel motion."""
        s = sin_a0 + z_rel / l_low
        if not -1.0 < s < 1.0:
            raise InstabilityError("linkage geometry inverted")
        theta = math.asin(s) - alpha0
        beta = beta0 + k_beta * theta
        cos_b = math.cos(beta)
        cos_at = math.cos(alpha0 + theta)
        h_sus = l_eff * theta / cos_b
        v_sus = zdot_rel * l_eff / (l_low * cos_at * cos_b)
        h_abs = h_static + h_sus
        v_gas = v0_gas - a1 * h_abs
        if v_gas <= 0.0:
            raise InstabilityError("gas chamber volume exhausted")
        p1 = p0 * (v0_gas / v_gas) ** n_eff
        q = a3 * v_sus
        a_eff = a_comp if q > 0.0 else a_ext
        dp = c_lin * q + k_orif_coef * q * abs(q) / (a_eff * a_eff)
        p2 = p1 - dp
        f_gas = (p1 - fluid.p_atm) * a1 - (p2 - fluid.p_atm) * geom.a2
        f_damp = dp * a3
        if alg1:
            f_fric = (fc + (fs - fc) * math.exp(-(v_sus / vsb) ** 2)) * math.tanh(bf * v_sus)
        else:
            f_fric = (fc + (fs - fc) * math.exp(-abs(v_sus) / vsb)) * math.tanh(bf * v_sus) \
                + kv * v_sus
        i_sus = l_eff * cos_b / (l_low * cos_at)
        return f_gas + f_damp + f_fric, p1, p2, h_abs, v_sus, i_sus

    def accel(z_s, w_s, z_t, w_t, zg, zg_dot):
        """Sprung and unsprung accelerations at one state and road value."""
        f_out, _, _, _, _, i_sus = suspension_axial(z_t - z_s, w_t - w_s)
        f_tire = k_t * (zg - z_t + delta_tire0) + c_t * (zg_dot - w_t)
        return ((i_sus * f_out - m_s * g) / m_s,
                (f_tire - i_sus * f_out - m_u * g) / m_u)

    n_out = _sample_count(duration, dt)
    sub = 4
    h_step = dt / sub
    half = 0.5 * h_step
    sixth = h_step / 6.0
    z_limit = 10.0 * max(delta_tire0, abs(h_static)) + 1.0

    out = {name: np.empty(n_out) for name in
           ("z_s", "w_s", "z_t", "w_t", "z_g", "p1", "p2", "h", "v",
            "f_out", "f_tire")}
    z_s = w_s = z_t = w_t = 0.0
    t = 0.0
    for i0 in range(0, n_out, _ROAD_BLOCK):
        # Stage times of the block's steps, accumulated step by step so they
        # carry the same rounding as a running clock; ts[-1] starts the next
        # block. The road is then evaluated once per block on arrays.
        n_steps = (min(i0 + _ROAD_BLOCK, n_out - 1) - i0) * sub
        ts = [t]
        for _ in range(n_steps):
            t += h_step
            ts.append(t)
        tm = [x + half for x in ts[:-1]]
        zg_at, zv_at = road.displacement(ts).tolist(), road.velocity(ts).tolist()
        zg_mid, zv_mid = road.displacement(tm).tolist(), road.velocity(tm).tolist()

        for i in range(i0, min(i0 + _ROAD_BLOCK, n_out)):
            j0 = (i - i0) * sub
            if not (math.isfinite(z_s) and math.isfinite(w_s) and math.isfinite(z_t)
                    and math.isfinite(w_t)) or max(abs(z_s), abs(z_t)) > z_limit:
                raise InstabilityError(
                    f"quarter-car integration diverged at step {i} (t={ts[j0]:.4f}s)")
            f_out, p1, p2, h_abs, v_sus, i_sus = suspension_axial(z_t - z_s, w_t - w_s)
            zg = zg_at[j0]
            f_tire = k_t * (zg - z_t + delta_tire0) + c_t * (zv_at[j0] - w_t)
            out["z_s"][i], out["w_s"][i] = z_s, w_s
            out["z_t"][i], out["w_t"][i] = z_t, w_t
            out["z_g"][i] = zg
            out["p1"][i], out["p2"][i] = p1, p2
            out["h"][i], out["v"][i] = h_abs, v_sus
            out["f_out"][i], out["f_tire"][i] = f_out, f_tire
            if i == n_out - 1:
                break
            for j in range(j0, j0 + sub):
                # classical RK4; the position slopes are the velocities
                a1s, a1t = accel(z_s, w_s, z_t, w_t, zg_at[j], zv_at[j])
                v2s, v2t = w_s + half * a1s, w_t + half * a1t
                a2s, a2t = accel(z_s + half * w_s, v2s, z_t + half * w_t, v2t,
                                 zg_mid[j], zv_mid[j])
                v3s, v3t = w_s + half * a2s, w_t + half * a2t
                a3s, a3t = accel(z_s + half * v2s, v3s, z_t + half * v2t, v3t,
                                 zg_mid[j], zv_mid[j])
                v4s, v4t = w_s + h_step * a3s, w_t + h_step * a3t
                a4s, a4t = accel(z_s + h_step * v3s, v4s, z_t + h_step * v3t, v4t,
                                 zg_at[j + 1], zv_at[j + 1])
                z_s += sixth * (w_s + 2 * v2s + 2 * v3s + v4s)
                w_s += sixth * (a1s + 2 * a2s + 2 * a3s + a4s)
                z_t += sixth * (w_t + 2 * v2t + 2 * v3t + v4t)
                w_t += sixth * (a1t + 2 * a2t + 2 * a3t + a4t)

    return OracleTrace(dt=dt, h=out["h"], p1=out["p1"], p2=out["p2"],
                       f_out=out["f_out"], v=out["v"],
                       z_s=out["z_s"], z_t=out["z_t"],
                       zdot_s=out["w_s"], zdot_t=out["w_t"],
                       z_g=out["z_g"], f_tire_truth=out["f_tire"])
