"""Hydro-pneumatic suspension force and wheel dynamic load estimation.

Single-pressure-sensor pipeline: a physics model of the suspension unit
(gas spring + hydraulic damping + friction), an iterative estimator that
reconstructs the output force from the gas-pressure signal, an
embedded-friendly lookup-table equivalent, double-wishbone kinematics
mapping the axial force to vertical wheel load, and a forward simulation
oracle used for table generation and closed-loop validation.
"""

from . import config, core, estimator, io, lookup, metrics, oracle, validate, wheel
from .config import (RunConfig, SuspensionConfig, WheelLinkage, QuarterCarParams,
                     bench_prototype, mining_truck, preset)
from .estimator import ForceBreakdown, PressureTrace
from .lookup import LookupTable, build_table, load_table, save_table
from .oracle import Excitation, OracleTrace, simulate_quarter_car, simulate_suspension
from .wheel import WheelLoadSeries, estimate_wheel_load_series

__version__ = "1.0.0"

__all__ = [
    "config", "core", "estimator", "io", "lookup", "metrics",
    "oracle", "validate", "wheel",
    "RunConfig", "SuspensionConfig", "WheelLinkage", "QuarterCarParams",
    "bench_prototype", "mining_truck", "preset",
    "ForceBreakdown", "PressureTrace",
    "LookupTable", "build_table", "load_table", "save_table",
    "Excitation", "OracleTrace", "simulate_quarter_car", "simulate_suspension",
    "WheelLoadSeries", "estimate_wheel_load_series",
    "__version__",
]
