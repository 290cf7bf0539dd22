"""Configuration bundles, named presets and the flat key-value config format.

Two presets ship with the package:

* ``bench-prototype`` -- the small test-rig suspension (areas from a 75 mm
  cylinder, 0.8 MPa charge) used for the closed-loop estimator validation.
* ``mining-truck`` -- the heavy-truck scale unit with its double-wishbone
  linkage and quarter-car masses, used for wheel-load estimation runs.

Config files are flat ``key = value`` text with unit-bearing key names so
that runs are bit-exactly reproducible and diff-friendly. Unknown keys,
and a key given twice, are rejected.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

from .core import FluidProperties, FrictionParams, GasChargeState, SuspensionGeometry

__all__ = [
    "SuspensionConfig",
    "WheelLinkage",
    "QuarterCarParams",
    "TableBuildSettings",
    "RunConfig",
    "ConfigError",
    "oil_viscosity",
    "bench_prototype",
    "mining_truck",
    "preset",
    "PRESET_NAMES",
    "load_run_config",
    "save_run_config",
]

GRAVITY = 9.81

# Oil viscosity anchor points from the two-temperature characterization.
_MU_30 = 0.065
_MU_50 = 0.032


class ConfigError(ValueError):
    """Bad or unknown configuration key/value."""


def oil_viscosity(t_celsius: float) -> float:
    """Dynamic viscosity of the hydraulic oil, log-linear between 30/50 degC."""
    slope = math.log(_MU_50 / _MU_30) / 20.0
    return _MU_30 * math.exp(slope * (t_celsius - 30.0))


@dataclass(frozen=True)
class SuspensionConfig:
    """Everything needed to evaluate one suspension unit's physics."""

    fluid: FluidProperties
    geom: SuspensionGeometry
    charge: GasChargeState
    friction: FrictionParams
    use_alg1_friction: bool = False   # squared-exponent friction variant
    # Max |piston displacement| from the charge point, m. It gates the
    # oracle and the table build but shapes no cell, so the digest omits it.
    stroke_limit: float = 0.05

    def digest(self) -> int:
        """Stable 64-bit digest of all physical parameters."""
        # CPython's own SHA-256, as `random` takes its SHA-512: hashlib maps
        # OpenSSL's libcrypto (~3.5 MB RSS) to hash this one short string.
        try:
            from _sha2 import sha256  # CPython 3.12+
        except ImportError:
            try:
                from _sha256 import sha256  # CPython 3.10-3.11
            except ImportError:
                from hashlib import sha256

        parts = []
        for obj in (self.fluid, self.geom, self.charge, self.friction):
            for f in dataclasses.fields(obj):
                parts.append(f"{f.name}={getattr(obj, f.name)!r}")
        parts.append(f"use_alg1_friction={self.use_alg1_friction!r}")
        blob = ";".join(parts).encode()
        return int.from_bytes(sha256(blob).digest()[:8], "little")


@dataclass(frozen=True)
class WheelLinkage:
    """Double-wishbone geometry and masses of one wheel station."""

    l_lower: float          # lower arm effective length, m
    l_eff: float            # suspension force arm, m
    alpha0: float           # lower-arm static installation angle, rad
    beta0: float            # static suspension axis inclination, rad
    k_beta: float           # inclination sensitivity d(beta)/d(theta), rad/rad
    m_u: float              # unsprung mass (includes the tire), kg
    m_t: float              # tire mass, kg
    g: float = GRAVITY      # m/s^2

    def __post_init__(self):
        if not (self.l_lower > self.l_eff > 0.0):
            raise ValueError("need l_lower > l_eff > 0")
        if abs(self.alpha0) >= math.pi / 4:
            raise ValueError("lower-arm installation angle out of range")
        if self.m_u <= 0.0 or self.m_t <= 0.0:
            raise ValueError("masses must be positive")
        if self.m_t > self.m_u:
            raise ValueError("tire mass cannot exceed the unsprung mass")

    def static_ratio(self) -> float:
        """Suspension transmission ratio at the static position (theta = 0)."""
        return self.l_eff * math.cos(self.beta0) / (self.l_lower * math.cos(self.alpha0))


@dataclass(frozen=True)
class QuarterCarParams:
    """Two-mass quarter-car parameters for the forward oracle.

    The unsprung and tire masses are the linkage's, so the oracle and the
    wheel-load estimator cannot disagree on them.
    """

    m_s: float              # sprung mass per wheel, kg
    k_t: float              # tire vertical stiffness, N/m
    c_t: float              # tire damping, N*s/m
    link: WheelLinkage
    cfg: SuspensionConfig

    def __post_init__(self):
        if min(self.m_s, self.k_t) <= 0.0 or self.c_t < 0.0:
            raise ValueError("sprung mass and tire stiffness must be positive")

    @property
    def m_u(self) -> float:
        """Unsprung mass per wheel (includes the tire), kg."""
        return self.link.m_u

    @property
    def m_t(self) -> float:
        """Tire mass, kg."""
        return self.link.m_t


@dataclass(frozen=True)
class TableBuildSettings:
    """Offline lookup-table generation settings."""

    frequencies_hz: tuple = (3.0, 5.0, 7.0, 8.0)
    dt: float = 1.0 / 360.0
    amplitude_scale: float = 1.0      # scales the bench amplitude schedule
    static_force_n: float | None = None  # static axial preload centering the sweep

    def __post_init__(self):
        if not all(0.0 < f < math.inf for f in self.frequencies_hz):
            raise ValueError("table frequencies must be positive and finite")
        if not (0.0 < self.dt < math.inf and 0.0 < self.amplitude_scale < math.inf):
            raise ValueError("table dt and amplitude scale must be positive and finite")


@dataclass(frozen=True)
class RunConfig:
    """Full operator-facing configuration for one vehicle corner."""

    suspension: SuspensionConfig
    linkage: WheelLinkage
    quarter_car: QuarterCarParams
    table: TableBuildSettings = field(default_factory=TableBuildSettings)


def _fluid(t0: float) -> FluidProperties:
    return FluidProperties(rho=850.0, mu=oil_viscosity(t0), k_bulk=1.7e9,
                           gamma=1.4, p_atm=1.013e5)


_FRICTION = FrictionParams(f_coulomb=200.0, f_static=300.0,
                           v_stribeck=0.05, beta_fric=100.0, k_v=500.0)


def bench_prototype(t0: float = 30.0) -> SuspensionConfig:
    """Bench test prototype suspension (75 mm cylinder, 0.8 MPa charge)."""
    geom = SuspensionGeometry(
        a1=4.418e-3, a2=1.885e-3, a3=2.533e-3,
        a_ch=math.pi * 0.003 ** 2,        # 6.0 mm orifice
        a_check=math.pi * 0.0015 ** 2,    # 3.0 mm check valve
        h_gap=0.5e-3, d_piston=0.049,
        l_piston=0.05, l_ch=0.01, k_orif=1.5,
        v0_gas=1.0e-3, v0_oil=5.0e-4, n_valve=1)
    charge = GasChargeState(p0=0.8e6, t0=t0, alpha_t=0.002, omega_c=12.6)
    return SuspensionConfig(fluid=_fluid(t0), geom=geom, charge=charge,
                            friction=_FRICTION, stroke_limit=0.05)


def _corner(sus: SuspensionConfig) -> RunConfig:
    """`sus` on the truck's double-wishbone linkage and quarter car."""
    link = WheelLinkage(l_lower=0.65, l_eff=0.48,
                        alpha0=math.radians(8.0), beta0=math.radians(20.0),
                        k_beta=0.12, m_u=800.0, m_t=500.0)
    qc = QuarterCarParams(m_s=7500.0, k_t=2.0e6, c_t=4.0e3, link=link, cfg=sus)
    return RunConfig(suspension=sus, linkage=link, quarter_car=qc)


def mining_truck(t0: float = 30.0) -> RunConfig:
    """Heavy mining truck corner: suspension, linkage and quarter-car masses."""
    a1 = math.pi / 4.0 * 0.2495 ** 2
    a2 = math.pi / 4.0 * 0.210 ** 2
    geom = SuspensionGeometry(
        a1=a1, a2=a2, a3=a1 - a2,
        a_ch=math.pi / 4.0 * 0.008 ** 2,      # 8.0 mm orifice
        a_check=math.pi / 4.0 * 0.008 ** 2,   # 8.0 mm check valve
        h_gap=0.785e-3, d_piston=0.2495,
        l_piston=0.05, l_ch=0.01, k_orif=1.5,
        v0_gas=0.060, v0_oil=0.020, n_valve=1)
    charge = GasChargeState(p0=6.5e6, t0=t0, alpha_t=0.002, omega_c=12.6)
    rc = _corner(SuspensionConfig(fluid=_fluid(t0), geom=geom, charge=charge,
                                  friction=_FRICTION, stroke_limit=0.30))
    # Center the table amplitude sweep on the loaded operating point.
    static_force = rc.quarter_car.m_s * rc.linkage.g / rc.linkage.static_ratio()
    table = TableBuildSettings(amplitude_scale=4.0, static_force_n=static_force)
    return dataclasses.replace(rc, table=table)


def bench_run_config(t0: float = 30.0) -> RunConfig:
    """Bench prototype wrapped in a RunConfig (linkage/masses are nominal)."""
    return _corner(bench_prototype(t0))


_PRESETS = {"bench-prototype": bench_run_config, "mining-truck": mining_truck}
PRESET_NAMES = tuple(_PRESETS)


def preset(name: str, t0: float = 30.0) -> RunConfig:
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    try:
        return _PRESETS[name](t0)
    except ValueError as exc:  # a part's range check, e.g. a t0 whose mu is 0
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# Flat key-value config file format.
# ---------------------------------------------------------------------------

# key -> (section, attribute): the one map from a config key to a field, read
# by both load and save. `_sections` names the object behind each section.
_KEY_MAP = {
    "suspension.rho_kgpm3": ("fluid", "rho"),
    "suspension.mu_pas": ("fluid", "mu"),
    "suspension.k_bulk_pa": ("fluid", "k_bulk"),
    "suspension.gamma": ("fluid", "gamma"),
    "suspension.p_atm_pa": ("fluid", "p_atm"),
    "suspension.a1_m2": ("geom", "a1"),
    "suspension.a2_m2": ("geom", "a2"),
    "suspension.a3_m2": ("geom", "a3"),
    "suspension.a_ch_m2": ("geom", "a_ch"),
    "suspension.a_check_m2": ("geom", "a_check"),
    "suspension.n_valve": ("geom", "n_valve"),
    "suspension.h_gap_m": ("geom", "h_gap"),
    "suspension.d_piston_m": ("geom", "d_piston"),
    "suspension.l_piston_m": ("geom", "l_piston"),
    "suspension.l_ch_m": ("geom", "l_ch"),
    "suspension.k_orif": ("geom", "k_orif"),
    "suspension.v0_gas_m3": ("geom", "v0_gas"),
    "suspension.v0_oil_m3": ("geom", "v0_oil"),
    "suspension.p0_pa": ("charge", "p0"),
    "suspension.t0_c": ("charge", "t0"),
    "suspension.t_ref_c": ("charge", "t_ref"),
    "suspension.alpha_t_perc": ("charge", "alpha_t"),
    "suspension.omega_c_radps": ("charge", "omega_c"),
    "suspension.f_coulomb_n": ("friction", "f_coulomb"),
    "suspension.f_static_n": ("friction", "f_static"),
    "suspension.v_stribeck_mps": ("friction", "v_stribeck"),
    "suspension.beta_fric_spm": ("friction", "beta_fric"),
    "suspension.k_v_nspm": ("friction", "k_v"),
    "suspension.use_alg1_friction": ("suspension", "use_alg1_friction"),
    "suspension.stroke_limit_m": ("suspension", "stroke_limit"),
    "linkage.l_lower_m": ("linkage", "l_lower"),
    "linkage.l_eff_m": ("linkage", "l_eff"),
    "linkage.alpha0_rad": ("linkage", "alpha0"),
    "linkage.beta0_rad": ("linkage", "beta0"),
    "linkage.k_beta": ("linkage", "k_beta"),
    "linkage.m_u_kg": ("linkage", "m_u"),
    "linkage.m_t_kg": ("linkage", "m_t"),
    "linkage.g_mps2": ("linkage", "g"),
    "quarter_car.m_s_kg": ("quarter_car", "m_s"),
    "quarter_car.k_t_npm": ("quarter_car", "k_t"),
    "quarter_car.c_t_nspm": ("quarter_car", "c_t"),
    "table.frequencies_hz": ("table", "frequencies_hz"),
    "table.dt_s": ("table", "dt"),
    "table.amplitude_scale": ("table", "amplitude_scale"),
    "table.static_force_n": ("table", "static_force_n"),
}


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key == "suspension.use_alg1_friction":
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    if key == "table.static_force_n" and raw.lower() == "none":
        return None
    is_list = key == "table.frequencies_hz"
    try:
        if key == "suspension.n_valve":
            return int(raw)
        numbers = tuple(float(x) for x in (raw.split(",") if is_list else [raw]))
    except ValueError:
        raise ConfigError(f"{key}: bad numeric value {raw!r}") from None
    if not all(map(math.isfinite, numbers)):
        raise ConfigError(f"{key}: value must be finite, got {raw!r}")
    return numbers if is_list else numbers[0]


def _sections(rc: RunConfig) -> dict:
    """The object behind each section name of _KEY_MAP."""
    sus = rc.suspension
    return {"fluid": sus.fluid, "geom": sus.geom, "charge": sus.charge,
            "friction": sus.friction, "suspension": sus, "linkage": rc.linkage,
            "quarter_car": rc.quarter_car, "table": rc.table}


def load_run_config(path) -> RunConfig:
    """Load a RunConfig from a flat key-value file.

    A ``preset`` key selects the base configuration; all other keys
    override individual fields. Unknown keys, and a key given twice,
    raise ConfigError.
    """
    overrides = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (s.strip() for s in line.split("=", 1))
            if key != "preset" and key not in _KEY_MAP:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in overrides:
                raise ConfigError(f"{path}:{lineno}: key {key!r} given twice")
            try:
                overrides[key] = raw if key == "preset" else _parse_value(key, raw)
            except ConfigError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
    base_name = overrides.pop("preset", "bench-prototype")
    try:
        return _build_run_config(base_name, overrides)
    except ValueError as exc:  # a field's range check, or an unknown preset
        raise ConfigError(f"{path}: {exc}") from exc


def _build_run_config(base_name: str, overrides: dict) -> RunConfig:
    """The preset with `overrides` applied; `replace` re-runs each range check."""
    changes = {}
    for key, value in overrides.items():
        section, attr = _KEY_MAP[key]
        changes.setdefault(section, {})[attr] = value
    # Built at the file's own t0, so mu follows it unless mu_pas is set too.
    t0 = overrides.get("suspension.t0_c")
    base = _sections(preset(base_name) if t0 is None else preset(base_name, t0))

    def new(section, **parts):
        return dataclasses.replace(base[section], **parts, **changes.get(section, {}))

    sus = new("suspension", fluid=new("fluid"), geom=new("geom"),
              charge=new("charge"), friction=new("friction"))
    link = new("linkage")
    return RunConfig(suspension=sus, linkage=link,
                     quarter_car=new("quarter_car", link=link, cfg=sus),
                     table=new("table"))


def save_run_config(cfg: RunConfig, path) -> None:
    """Write a RunConfig as a flat key-value file (full precision)."""
    sections = _sections(cfg)
    lines = []
    for key, (section, attr) in _KEY_MAP.items():
        value = getattr(sections[section], attr)
        if key == "table.frequencies_hz":
            text = ",".join(repr(float(x)) for x in value)
        elif value is None:
            text = "none"
        else:
            text = repr(value)
        lines.append(f"{key} = {text}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
