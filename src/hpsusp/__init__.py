"""Hydro-pneumatic suspension force and wheel dynamic load estimation.

Single-pressure-sensor pipeline: a physics model of the suspension unit
(gas spring + hydraulic damping + friction), an iterative estimator that
reconstructs the output force from the gas-pressure signal, an
embedded-friendly lookup-table equivalent, double-wishbone kinematics
mapping the axial force to vertical wheel load, and a forward simulation
oracle used for table generation and closed-loop validation.

The modules and names of `__all__` are imported on first use (PEP 562),
so a command of the CLI loads only the modules it runs.
"""

__version__ = "1.0.0"

_MODULES = ("config", "core", "estimator", "io", "lookup", "metrics",
            "oracle", "validate", "wheel")
_NAMES = {  # module -> the names of __all__ it defines
    "config": ("RunConfig", "SuspensionConfig", "WheelLinkage", "QuarterCarParams",
               "bench_prototype", "mining_truck", "preset"),
    "estimator": ("ForceBreakdown", "PressureTrace"),
    "lookup": ("LookupTable", "build_table", "load_table", "save_table"),
    "oracle": ("Excitation", "OracleTrace", "simulate_quarter_car", "simulate_suspension"),
    "wheel": ("WheelLoadSeries", "estimate_wheel_load_series"),
}
_ORIGIN = {name: module for module, names in _NAMES.items() for name in names}

__all__ = [*_MODULES, *_ORIGIN, "__version__"]


def __getattr__(name: str):
    if name in _MODULES:
        # importing a submodule binds it here; __import__ takes the
        # interpreter's own import path, the one `-X importtime` reports
        __import__(f"{__name__}.{name}")
        return globals()[name]
    if name in _ORIGIN:
        value = getattr(__getattr__(_ORIGIN[name]), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
