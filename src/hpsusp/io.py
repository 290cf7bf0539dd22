"""CSV ingestion/emission for traces, force breakdowns and wheel loads.

All files carry a header row, SI units in the column names, and full
double precision (%.17g) so that emit-then-ingest round trips are exact
to parsing precision.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .estimator import ForceBreakdown, PressureTrace
from .lookup import SeriesEstimate
from .oracle import OracleTrace
from .wheel import WheelLoadSeries

__all__ = [
    "CsvFormatError",
    "write_trace_csv",
    "read_trace_csv",
    "write_breakdown_csv",
    "write_wheel_load_csv",
    "write_lookup_csv",
]

_FMT = "%.17g"
_CHUNK_ROWS = 8192

TRACE_BASE_COLUMNS = ("t_s", "p1_pa")
TRACE_TRUTH_COLUMNS = ("f_out_truth_n", "v_truth_mps", "h_truth_m")
TRACE_TIRE_COLUMN = "f_tire_truth_n"


class CsvFormatError(ValueError):
    """Malformed or non-uniform CSV input."""


def _write_rows(path, header, columns):
    """Header as csv.writer writes it, then %.17g rows ending in CRLF.

    Formatted numbers never need quoting, so each chunk of rows is
    formatted from native floats with one format string per row.
    """
    row_fmt = ",".join([_FMT] * len(columns)) + "\r\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(header)
        for lo in range(0, len(columns[0]), _CHUNK_ROWS):
            chunk = [c[lo:lo + _CHUNK_ROWS].tolist() for c in columns]
            fh.writelines(row_fmt % row for row in zip(*chunk))


def write_trace_csv(path, trace: OracleTrace) -> None:
    """Emit a pressure trace; truth columns included when available."""
    header = list(TRACE_BASE_COLUMNS)
    cols = [trace.t, trace.p1]
    if trace.f_out is not None:
        header += list(TRACE_TRUTH_COLUMNS)
        cols += [trace.f_out, trace.v, trace.h]
    if trace.f_tire_truth is not None:
        header.append(TRACE_TIRE_COLUMN)
        cols.append(trace.f_tire_truth)
    _write_rows(path, header, cols)


def read_trace_csv(path, t0_temperature: float = 30.0):
    """Read a trace CSV; returns (PressureTrace, truth-column dict).

    The sampling period is inferred from the time column and must be
    uniform to 1 ppm; every pressure sample must be positive and finite.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path}: empty file") from None
        if header[:2] != list(TRACE_BASE_COLUMNS):
            raise CsvFormatError(
                f"{path}: expected leading columns {TRACE_BASE_COLUMNS}, "
                f"got {tuple(header[:2])}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise CsvFormatError(f"{path}:{lineno}: expected {len(header)} fields")
            try:
                values = [float(x) for x in row]
            except ValueError as exc:
                raise CsvFormatError(f"{path}:{lineno}: non-numeric field") from exc
            if not 0.0 < values[1] < math.inf:
                raise CsvFormatError(
                    f"{path}:{lineno}: pressure must be positive and finite, "
                    f"got {row[1]!r}")
            rows.append(values)
    if len(rows) < 2:
        raise CsvFormatError(f"{path}: need at least two data rows")
    data = np.asarray(rows)
    t = data[:, 0]
    steps = np.diff(t)
    dt = float(np.median(steps))
    if not dt > 0.0 or not np.all(np.abs(steps - dt) <= 1e-6 * dt):
        raise CsvFormatError(f"{path}: time column is not uniformly sampled")
    trace = PressureTrace(dt=dt, samples=data[:, 1], t0_temperature=t0_temperature)
    truth = {name: data[:, i] for i, name in enumerate(header) if i >= 2}
    return trace, truth


def write_breakdown_csv(path, trace: PressureTrace, bd: ForceBreakdown) -> None:
    header = ["t_s", "p1_pa", "p2_pa", "f_gas_n", "f_damp_n", "f_fric_n",
              "f_out_n", "v_mps", "h_m", "a_mps2"]
    cols = [trace.t, trace.samples, bd.p2, bd.f_gas, bd.f_damp, bd.f_fric,
            bd.f_out, bd.v, bd.h_total, bd.a]
    _write_rows(path, header, cols)


def write_wheel_load_csv(path, dt: float, series: WheelLoadSeries) -> None:
    header = ["t_s", "f_out_n", "h_sus_m", "v_mps", "a_sus_mps2", "theta_rad",
              "beta_rad", "i_sus", "ztt_acc_mps2", "f_tire_n", "liftoff_flag"]
    t = np.arange(series.f_tire.size) * dt
    liftoff = (series.f_tire < 0.0).astype(float)
    cols = [t, series.f_out, series.h_sus, series.v, series.a_sus,
            series.theta, series.beta, series.i_sus, series.z_ddot_t,
            series.f_tire, liftoff]
    _write_rows(path, header, cols)


def write_lookup_csv(path, trace: PressureTrace, est: SeriesEstimate) -> None:
    """Lookup-path output: the (f_out, v, h) triplet per trace sample."""
    _write_rows(path, ["t_s", "f_out_n", "v_mps", "h_m"],
                [trace.t, est.f_out, est.v, est.h])
