"""Command-line interface.

Subcommands: simulate, estimate, build-table, wheel-load, bench, validate.
Exit codes: 0 success, 2 usage error, 3 input-format error, 4 numerical
failure, 5 validation-suite failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import warnings

from . import config, estimator, io, lookup, metrics, oracle, validate, wheel

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4
EXIT_VALIDATION = 5


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse's exit code at 2
        self.print_usage(sys.stderr)
        raise UsageError(message)


class UsageError(ValueError):
    pass


def _load_config(args) -> config.RunConfig:
    """The --config file, or the --preset at --t0; the file sets both itself."""
    if args.config:
        if args.preset is not None or args.t0 is not None:
            raise UsageError("--preset and --t0 cannot be combined with --config; "
                             "set 'preset' and 'suspension.t0_c' in the file")
        return config.load_run_config(args.config)
    return config.preset(args.preset or "bench-prototype",
                         t0=30.0 if args.t0 is None else args.t0)


def _add_config_flags(p):
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--preset", choices=config.PRESET_NAMES,
                   help="named base configuration (default: bench-prototype)")
    p.add_argument("--t0", type=_temperature_arg,
                   help="oil/gas operating temperature, degC (default: 30)")


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise ValueError(text)
    return value


def _temperature_arg(text: str) -> float:
    """--t0: a finite temperature above absolute zero, degC."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not -273.15 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a finite temperature above -273.15 degC, got {text!r}")
    return value


def _omega_arg(text: str):
    """--omega: 'auto' or a positive finite blend frequency in rad/s."""
    if text == "auto":
        return text
    try:
        return _positive_float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be 'auto' or a positive finite number, got {text!r}") from None


def _frequencies_arg(text: str) -> tuple:
    """--frequencies: comma-separated positive finite Hz values."""
    try:
        return tuple(_positive_float(f) for f in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated positive finite numbers, got {text!r}") from None


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    for name in ("dt", "freq", "freq_end", "duration"):
        value = getattr(args, name)
        if value is not None and not 0.0 < value < math.inf:
            raise UsageError(f"--{name.replace('_', '-')} must be positive and finite")
    for name in ("amp", "offset"):
        if not math.isfinite(getattr(args, name)):
            raise UsageError(f"--{name} must be finite")
    if args.kind == "linear-sweep" and args.freq_end is None:
        raise UsageError("--kind linear-sweep requires --freq-end")
    if args.kind != "linear-sweep" and args.freq_end is not None:
        raise UsageError("--freq-end applies only to --kind linear-sweep")
    freqs = (args.freq,) if args.freq_end is None else (args.freq, args.freq_end)
    duration = args.duration if args.duration is not None else 20.0 / min(freqs)
    try:
        exc = oracle.Excitation(kind=args.kind, amplitudes=(args.amp,),
                                frequencies=freqs, duration=duration,
                                offset=args.offset)
    except ValueError as err:  # the flags describe no valid excitation
        raise UsageError(str(err)) from None
    if args.quarter_car:
        trace = oracle.simulate_quarter_car(exc, cfg.quarter_car, args.dt)
    else:
        trace = oracle.simulate_suspension(exc, cfg.suspension, args.dt)
    io.write_trace_csv(args.out, trace)
    print(f"wrote {trace.p1.size} samples at dt={trace.dt:g} s to {args.out}")
    return EXIT_OK


def cmd_estimate(args) -> int:
    if args.mode == "lookup" and not args.table:
        raise UsageError("lookup mode requires --table")
    if args.mode == "iterative" and (args.table or args.omega):
        raise UsageError("--table and --omega apply to --mode lookup only")
    cfg = _load_config(args)
    trace, truth = io.read_trace_csv(args.trace, truth_columns=("f_out_truth_n",))
    truth = truth.get("f_out_truth_n")  # the one column compared below
    if args.mode == "lookup":
        table = lookup.load_table(args.table, cfg.suspension)
        est = lookup.estimate_series(trace, table, omega=args.omega or "auto")
        sse = io.write_lookup_csv(args.out, trace, est, truth)
    else:
        est = estimator.run(trace, cfg.suspension)
        sse = io.write_breakdown_csv(args.out, trace, est, truth)
    print(f"wrote {args.out}")
    if truth is not None:
        rel = metrics.rel_rmse_sse(sse, truth)
        r2 = metrics.r_squared_sse(sse, truth)
        print(f"vs embedded truth: rel RMSE {rel:.3%}, R2 {r2:.4f}")
    return EXIT_OK


def cmd_build_table(args) -> int:
    cfg = _load_config(args)
    settings = cfg.table
    if args.frequencies:
        settings = dataclasses.replace(settings, frequencies_hz=args.frequencies)
    table = lookup.build_table(cfg.suspension, settings)
    lookup.save_table(table, args.out)
    cov = ", ".join(f"{f:g} Hz {g.coverage:.0%}"
                    for f, g in zip(table.frequencies_hz, table.grids))
    print(f"wrote {args.out}: {len(table.grids)} grids, coverage {cov}")
    return EXIT_OK


def cmd_wheel_load(args) -> int:
    cfg = _load_config(args)
    trace, truth = io.read_trace_csv(args.trace, truth_columns=("f_tire_truth_n",))
    truth = truth.get("f_tire_truth_n")  # the one column compared below
    table = lookup.load_table(args.table, cfg.suspension)
    series = wheel.estimate_wheel_load_series(trace, table, cfg.linkage,
                                              omega=args.omega)
    count, sse = io.write_wheel_load_csv(args.out, trace.dt, series, truth)
    series.liftoff_count = count
    if count:
        warnings.warn(f"wheel load negative at {count} sample(s): liftoff", wheel.WheelLiftoffWarning)
    print(f"wrote {args.out}: {series.n} samples, {count} liftoff sample(s)")
    if truth is not None:
        rel = metrics.rel_rmse_mean_sse(sse, truth)
        print(f"vs embedded truth: rel RMSE {rel:.3%} of mean load")
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.samples < 10000:
        raise UsageError("benchmark needs at least 10000 samples")
    if args.repeats < 10:
        raise UsageError("benchmark needs at least 10 repetitions")
    cfg = _load_config(args)
    table = lookup.load_table(args.table, cfg.suspension)
    rep = lookup.benchmark(table, cfg.suspension,
                           n_samples=args.samples, repeats=args.repeats)
    print(f"iterative: {rep['iterative_us_per_sample']:.3f} us/sample")
    print(f"lookup:    {rep['lookup_us_per_sample']:.3f} us/sample")
    print(f"speedup:   {rep['speedup']:.1f}x "
          f"({rep['n_samples']} samples, median of {rep['repeats']})")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(rep, fh, indent=2)
        print(f"wrote {args.json}")
    return EXIT_OK


def cmd_validate(args) -> int:
    results = validate.run_all()
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return EXIT_OK if not failed else EXIT_VALIDATION


def build_parser() -> _Parser:
    parser = _Parser(prog="hpsusp",
                     description="Hydro-pneumatic suspension force and "
                                 "wheel-load estimation from gas pressure")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="forward oracle run -> trace CSV")
    _add_config_flags(p)
    p.add_argument("--kind", default="sinusoid",
                   choices=("sinusoid", "sum-of-sines", "linear-sweep"))
    p.add_argument("--freq", type=float, required=True,
                   help="Hz (start frequency of a linear sweep)")
    p.add_argument("--freq-end", type=float, metavar="HZ",
                   help="end frequency; required with --kind linear-sweep")
    p.add_argument("--amp", type=float, required=True, help="m")
    p.add_argument("--duration", type=float, help="s (default: 20 cycles)")
    p.add_argument("--offset", type=float, default=0.0, help="m")
    p.add_argument("--dt", type=float, default=1.0 / 360.0, help="s")
    p.add_argument("--quarter-car", action="store_true",
                   help="treat the excitation as road input to the quarter car")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="trace CSV -> force estimate CSV")
    _add_config_flags(p)
    p.add_argument("--trace", required=True)
    p.add_argument("--mode", default="iterative", choices=("iterative", "lookup"))
    p.add_argument("--table", help="table file (lookup mode)")
    p.add_argument("--omega", type=_omega_arg,
                   help="blend frequency in rad/s, or 'auto' (lookup mode; "
                        "default: auto)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("build-table", help="offline lookup-table generation")
    _add_config_flags(p)
    p.add_argument("--frequencies", type=_frequencies_arg,
                   help="comma-separated Hz list override")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_table)

    p = sub.add_parser("wheel-load", help="trace CSV + table -> wheel-load CSV")
    _add_config_flags(p)
    p.add_argument("--trace", required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--omega", default="auto", type=_omega_arg,
                   help="blend frequency in rad/s, or 'auto'")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_wheel_load)

    p = sub.add_parser("bench", help="iterative vs lookup timing report")
    _add_config_flags(p)
    p.add_argument("--table", required=True)
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--repeats", type=int, default=11)
    p.add_argument("--json", help="also write the report as JSON")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("validate", help="run the full validation campaign")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except config.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (io.CsvFormatError, lookup.TableFormatError, FileNotFoundError,
            IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (oracle.StrokeError, oracle.InstabilityError,
            estimator.NoDominantFrequencyError, lookup.TableCoverageError,
            lookup.TimeBaseError, wheel.GeometrySingularityError,
            ValueError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
