"""Command-line interface.

Subcommands: simulate, estimate, build-table, wheel-load, bench, validate.
Exit codes: 0 success, 2 parameter, 3 input and 4 numerical error (the
classes of `hpsusp.errors`; an OSError is an input error), 5 validation-suite
failure. Any other exception is a bug and ends in a traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import math
import sys
import warnings

from . import config, errors

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4
EXIT_VALIDATION = 5


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse's exit code at 2
        self.print_usage(sys.stderr)
        raise UsageError(message)


class UsageError(errors.ParameterError):
    """A flag the command cannot run with."""


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


def _number(text: str, low: float = 0.0) -> float:
    """float(text) if it lies above `low` and is finite; else ValueError."""
    value = float(text)
    if not low < value < math.inf:
        raise ValueError(text)
    return value


def _flag_type(convert, message: str):
    """An argparse type: convert(text), or the error `message` where that raises ValueError."""
    def parse(text: str):
        try:
            return convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{message}, got {text!r}") from None
    return parse


_temperature_arg = _flag_type(lambda text: _number(text, -273.15),  # --t0, degC
                              "must be a finite temperature above -273.15 degC")
_positive_arg = _flag_type(_number, "must be a positive finite number")
_finite_arg = _flag_type(lambda text: _number(text, -math.inf), "must be a finite number")
_omega_arg = _flag_type(lambda text: text if text == "auto" else _number(text),  # rad/s
                        "must be 'auto' or a positive finite number")
_frequencies_arg = _flag_type(lambda text: tuple(_number(f) for f in text.split(",")),  # Hz
                              "must be comma-separated positive finite numbers")


def cmd_simulate(args) -> int:
    from . import estimator, io, oracle
    gc.freeze()  # see main
    cfg = _load_config(args)
    if args.kind == "linear-sweep" and args.freq_end is None:
        raise UsageError("--kind linear-sweep requires --freq-end")
    if args.kind != "linear-sweep" and args.freq_end is not None:
        raise UsageError("--freq-end applies only to --kind linear-sweep")
    freqs = (args.freq,) if args.freq_end is None else (args.freq, args.freq_end)
    duration = args.duration if args.duration is not None else 20.0 / min(freqs)
    exc = oracle.Excitation(kind=args.kind, amplitudes=(args.amp,), frequencies=freqs,
                            duration=duration, offset=args.offset)
    n = oracle._sample_count(duration, args.dt)
    if n < estimator.MIN_TRACE_LEN:
        raise UsageError(f"a {duration:g} s run at --dt {args.dt:g} has {n} samples; "
                         f"a trace needs at least {estimator.MIN_TRACE_LEN}")
    if args.quarter_car:
        trace = oracle.simulate_quarter_car(exc, cfg.quarter_car, args.dt)
    else:
        trace = oracle.simulate_suspension(exc, cfg.suspension, args.dt)
    io.write_trace_csv(args.out, trace)
    print(f"wrote {trace.p1.size} samples at dt={trace.dt:g} s to {args.out}")
    return EXIT_OK


def cmd_estimate(args) -> int:
    from . import estimator, io, metrics
    if args.mode == "lookup":
        from . import lookup
    gc.freeze()  # see main
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
    if args.mode == "iterative":
        print(f"frequency {est.f_peak:g} Hz, n_eff {est.n_eff:.4f}")
    if truth is not None:
        _print_truth_comparison(lambda: f"rel RMSE {metrics.rel_rmse_sse(sse, truth):.3%}, "
                                        f"R2 {metrics.r_squared_sse(sse, truth):.4f}")
    return EXIT_OK


def cmd_build_table(args) -> int:
    from . import lookup
    gc.freeze()  # see main
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
    from . import io, lookup, metrics, wheel
    gc.freeze()  # see main
    cfg = _load_config(args)
    trace, truth = io.read_trace_csv(args.trace, truth_columns=("f_tire_truth_n",))
    truth = truth.get("f_tire_truth_n")  # the one column compared below
    table = lookup.load_table(args.table, cfg.suspension)
    series = wheel.estimate_wheel_load_series(trace, table, cfg.linkage,
                                              omega=args.omega)
    count, sse = io.write_wheel_load_csv(args.out, series, truth)
    series.liftoff_count = count
    if count:
        warnings.warn(f"wheel load negative at {count} sample(s): liftoff", wheel.WheelLiftoffWarning)
    print(f"wrote {args.out}: {series.n} samples, {count} liftoff sample(s)")
    if truth is not None:
        _print_truth_comparison(
            lambda: f"rel RMSE {metrics.rel_rmse_mean_sse(sse, truth):.3%} of mean load")
    return EXIT_OK


def _print_truth_comparison(describe) -> None:
    """Print describe()'s comparison, or why a truth column leaves it undefined."""
    try:
        text = describe()
    except errors.NumericalError as exc:  # a constant or zero-mean truth column
        text = f"undefined ({exc})"
    print(f"vs embedded truth: {text}")


def cmd_bench(args) -> int:
    from . import lookup
    gc.freeze()  # see main
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
    print(f"batch iterative: {rep['batch_iterative_us_per_sample']:.3f} us/sample")
    print(f"batch lookup:    {rep['batch_lookup_us_per_sample']:.3f} us/sample")
    print(f"batch speedup:   {rep['batch_speedup']:.2f}x (whole trace at once)")
    if args.json:
        import json
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(rep, fh, indent=2)
        print(f"wrote {args.json}")
    return EXIT_OK


def cmd_validate(args) -> int:
    from . import validate
    gc.freeze()  # see main
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
    p.add_argument("--freq", type=_positive_arg, required=True,
                   help="Hz (start frequency of a linear sweep)")
    p.add_argument("--freq-end", type=_positive_arg, metavar="HZ",
                   help="end frequency; required with --kind linear-sweep")
    p.add_argument("--amp", type=_finite_arg, required=True, help="m")
    p.add_argument("--duration", type=_positive_arg, help="s (default: 20 cycles)")
    p.add_argument("--offset", type=_finite_arg, default=0.0, help="m")
    p.add_argument("--dt", type=_positive_arg, default=1.0 / 360.0, help="s")
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
    """Run the command `argv` names (default: sys.argv[1:]); return its exit code.

    Each command imports only the modules it runs, then calls gc.freeze():
    the objects alive at that point, ~22 000 of them from the imports,
    move to the collector's permanent generation, so neither its full
    passes during the run nor the one at interpreter exit walk them, and
    forked CSV workers do not write to their pages. The heap is left
    frozen: gc.unfreeze() on return would hand them back to the pass at
    exit. So an in-process caller's heap stays frozen after a call: cyclic
    garbage it held at the freeze is collected only after gc.unfreeze().
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except errors.ParameterError as exc:
        print(f"{exc.label} error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (errors.InputError, OSError) as exc:  # OSError: a path, or a full disk
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except errors.NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
