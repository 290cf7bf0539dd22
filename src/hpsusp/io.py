"""CSV ingestion/emission for traces, force breakdowns and wheel loads.

All files carry a header row, SI units in the column names, and full
double precision (%.17g) so that emit-then-ingest round trips are exact
to parsing precision.
"""

from __future__ import annotations

import csv
import math
import os
import warnings

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
_CHUNK_ROWS = 8192      # rows worth a writer process of their own
_FORMAT_ROWS = 256      # rows per %-format call; bounds the text held at once

TRACE_BASE_COLUMNS = ("t_s", "p1_pa")
TRACE_TRUTH_COLUMNS = ("f_out_truth_n", "v_truth_mps", "h_truth_m")
TRACE_TIRE_COLUMN = "f_tire_truth_n"


class CsvFormatError(ValueError):
    """Malformed or non-uniform CSV input."""


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _format_rows(fh, row_fmt, columns, lo, hi):
    """Write rows lo..hi-1, one %-format call per _FORMAT_ROWS rows.

    Formatted numbers never need quoting, so each block is formatted from
    native floats with the row format repeated once per row.
    """
    for a in range(lo, hi, _FORMAT_ROWS):
        b = min(a + _FORMAT_ROWS, hi)
        values = np.column_stack([c[a:b] for c in columns]).ravel().tolist()
        fh.write((row_fmt * (b - a)) % tuple(values))


def _write_rows(path, header, columns):
    """Header as csv.writer writes it, then %.17g rows ending in CRLF.

    The rows are formatted on every CPU the process may use, one
    contiguous range per worker, up to one worker per chunk of rows;
    the file's bytes do not depend on the number of workers.
    """
    row_fmt = ",".join([_FMT] * len(columns)) + "\r\n"
    n = len(columns[0])
    workers = min(_cpu_count(), -(-n // _CHUNK_ROWS))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(header)
        if workers < 2 or not hasattr(os, "fork"):
            _format_rows(fh, row_fmt, columns, 0, n)
        else:
            _write_rows_forked(fh, row_fmt, columns, workers)


def _write_rows_forked(fh, row_fmt, columns, workers):
    """Format rows in `workers` processes: the parent and forked children.

    Each range after the first is formatted by a child into its own
    temporary file; the parent formats the first range into `fh`, waits
    for every child and appends their files in order. The header is
    flushed before forking so no child holds buffered text, and a child
    only formats floats into its file and leaves through os._exit, which
    runs no cleanup or buffer flush inherited from the parent.
    """
    import contextlib
    import shutil
    import tempfile

    n = len(columns[0])
    bounds = [n * k // workers for k in range(workers + 1)]
    fh.flush()
    with contextlib.ExitStack() as files:
        children = []  # (pid, temporary file, first row, end row)
        try:
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                tmp = files.enter_context(tempfile.TemporaryFile())
                pid = os.fork()
                if pid == 0:
                    _format_in_child(tmp, row_fmt, columns, lo, hi)
                children.append((pid, tmp, lo, hi))
            _format_rows(fh, row_fmt, columns, 0, bounds[1])
        finally:
            codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                     for pid, *_ in children]
        fh.flush()
        for (_, tmp, lo, hi), code in zip(children, codes):
            if code != 0:
                raise OSError(f"CSV writer process for rows {lo}..{hi - 1} "
                              f"exited with status {code}")
            tmp.seek(0)
            shutil.copyfileobj(tmp, fh.buffer)


def _format_in_child(tmp, row_fmt, columns, lo, hi):
    """Forked child: format rows lo..hi-1 into `tmp`, then exit; never returns."""
    code = 1
    try:
        with open(tmp.fileno(), "w", encoding="utf-8", newline="",
                  closefd=False) as out:
            _format_rows(out, row_fmt, columns, lo, hi)
        code = 0
    except BaseException:  # reported here; the parent raises on the status
        import traceback
        traceback.print_exc()
    finally:
        os._exit(code)


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
    Numbers are parsed by numpy's tokenizer, so Python-only spellings
    such as ``1_000`` are rejected.
    """
    try:
        return _read_trace_csv(path, t0_temperature)
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _read_trace_csv(path, t0_temperature: float):
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
        try:
            with warnings.catch_warnings():
                # a header-only file is reported below, not as a warning
                warnings.filterwarnings(
                    "ignore", message="loadtxt: input contained no data",
                    category=UserWarning)
                data = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None,
                                  quotechar='"')
        except ValueError as exc:
            _raise_row_error(path, len(header), exc)
    if len(data) and data.shape[1] != len(header):  # loadtxt only checks rows agree
        _raise_row_error(path, len(header))
    if len(data) < 2:
        raise CsvFormatError(f"{path}: need at least two data rows")
    p = data[:, 1]
    if not np.all((p > 0.0) & (p < math.inf)):
        _raise_row_error(path, len(header))
    t = data[:, 0]
    steps = np.diff(t)
    dt = float(np.median(steps))
    if not dt > 0.0 or not np.all(np.abs(steps - dt) <= 1e-6 * dt):
        raise CsvFormatError(f"{path}: time column is not uniformly sampled")
    trace = PressureTrace(dt=dt, samples=p, t0_temperature=t0_temperature)
    truth = {name: data[:, i] for i, name in enumerate(header) if i >= 2}
    return trace, truth


def _is_number(field: str) -> bool:
    """Whether numpy's tokenizer reads `field` as a float.

    That is float() syntax, ASCII only, without digit-group underscores.
    """
    if not field.isascii() or "_" in field:
        return False
    try:
        float(field)
    except ValueError:
        return False
    return True


def _raise_row_error(path, n_fields: int, cause=None):
    """Raise a CsvFormatError naming the first bad data row of `path`.

    Called only once the fast parse has failed or found a bad value, so
    only the error path rescans the file to count its physical lines
    (blank ones included) and check each row in order.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if not row:
                continue
            where = f"{path}:{reader.line_num}"
            if len(row) != n_fields:
                raise CsvFormatError(f"{where}: expected {n_fields} fields") from cause
            if not all(map(_is_number, row)):
                raise CsvFormatError(f"{where}: non-numeric field") from cause
            if not 0.0 < float(row[1]) < math.inf:
                raise CsvFormatError(
                    f"{where}: pressure must be positive and finite, "
                    f"got {row[1]!r}") from cause
    # every row passed: the file changed after the first parse
    raise CsvFormatError(f"{path}: malformed data rows"
                         + (f" ({cause})" if cause else "")) from cause


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
