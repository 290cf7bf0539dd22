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

from . import metrics
from .estimator import MIN_TRACE_LEN, ForceBreakdown, PressureTrace
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
_CHUNK_ROWS = 8192      # rows computed at once, and worth a writer process of their own
_FORMAT_ROWS = 256      # rows per %-format call; bounds the text held at once
_READ_ROWS = 8192       # data rows per np.loadtxt call; bounds the parse buffer

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


def _format_rows(fh, row_fmt, rows, lo, hi):
    """Write rows lo..hi-1 of the row-block source `rows`; return their tally.

    rows(a, b) returns the columns of rows a..b-1 and their tally, a tuple
    of sums over them; it is called for _CHUNK_ROWS rows at a time, so a
    source that computes its rows holds one block of them. Formatted numbers
    never need quoting, so each _FORMAT_ROWS rows are formatted from native
    floats with the row format repeated once per row.
    """
    total = 0.0
    for a in range(lo, hi, _CHUNK_ROWS):
        columns, tally = rows(a, min(a + _CHUNK_ROWS, hi))
        total = total + np.array(tally, dtype=float)
        m = len(columns[0])
        for b in range(0, m, _FORMAT_ROWS):
            c = min(b + _FORMAT_ROWS, m)
            values = np.column_stack([col[b:c] for col in columns]).ravel().tolist()
            fh.write((row_fmt * (c - b)) % tuple(values))
    return total


def _write_rows(path, header, columns):
    """Header as csv.writer writes it, then %.17g rows ending in CRLF."""
    _write_row_blocks(path, header, len(columns[0]),
                      lambda lo, hi: ([c[lo:hi] for c in columns], ()))


def _write_row_blocks(path, header, n, rows):
    """_write_rows for the n rows of a row-block source; returns their tally.

    The rows are computed and formatted on every CPU the process may use,
    one contiguous range per worker, up to one worker per chunk of rows;
    the file's bytes do not depend on the number of workers (see _format_rows).
    """
    row_fmt = ",".join([_FMT] * len(header)) + "\r\n"
    workers = min(_cpu_count(), -(-n // _CHUNK_ROWS))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(header)
        if workers < 2 or not hasattr(os, "fork"):
            return _format_rows(fh, row_fmt, rows, 0, n)
        return _write_rows_forked(fh, row_fmt, rows, n, workers)


def _write_rows_forked(fh, row_fmt, rows, n, workers):
    """Format rows in `workers` processes: the parent and forked children.

    Each range after the first is computed and formatted by a child into
    its own temporary file, and its tally sent through a pipe; the parent
    does the first range into `fh`, waits for every child and appends their
    files and tallies in order. The header is flushed before forking so no
    child holds buffered text, and a child leaves through os._exit, which
    runs no cleanup or buffer flush inherited from the parent.
    """
    import contextlib
    import shutil
    import tempfile

    bounds = [n * k // workers for k in range(workers + 1)]
    fh.flush()
    with contextlib.ExitStack() as files:
        children = []  # (pid, temporary file, tally pipe, first row, end row)
        try:
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                tmp = files.enter_context(tempfile.TemporaryFile())
                r, w = os.pipe()
                tally = files.enter_context(open(r, "rb"))
                with open(w, "wb") as sink:  # closed in the parent: EOF once the child exits
                    pid = os.fork()
                    if pid == 0:
                        _format_in_child(tmp, sink, row_fmt, rows, lo, hi)
                children.append((pid, tmp, tally, lo, hi))
            total = _format_rows(fh, row_fmt, rows, 0, bounds[1])
        finally:
            codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                     for pid, *_ in children]
        fh.flush()
        for (_, tmp, tally, lo, hi), code in zip(children, codes):
            if code != 0:
                raise OSError(f"CSV writer process for rows {lo}..{hi - 1} "
                              f"exited with status {code}")
            total = total + np.frombuffer(tally.read())
            tmp.seek(0)
            shutil.copyfileobj(tmp, fh.buffer)
    return total


def _format_in_child(tmp, sink, row_fmt, rows, lo, hi):
    """Forked child: rows lo..hi-1 into `tmp`, their tally into `sink`; never returns."""
    code = 1
    try:
        with open(tmp.fileno(), "w", encoding="utf-8", newline="",
                  closefd=False) as out:
            total = _format_rows(out, row_fmt, rows, lo, hi)
        os.write(sink.fileno(), np.asarray(total, dtype=float).tobytes())
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


def read_trace_csv(path, truth_columns=None):
    """Read a trace CSV; returns (PressureTrace, truth-column dict).

    The sampling period is inferred from the time column and must be
    uniform to 1 ppm; every pressure sample must be positive and finite.
    Numbers are parsed by numpy's tokenizer, so Python-only spellings
    such as ``1_000`` are rejected. Every field of every row is parsed and
    checked, but of the truth columns only those named in `truth_columns`
    (default: all) are kept, each its own contiguous array.
    """
    try:
        return _read_trace_csv(path, truth_columns)
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _read_trace_csv(path, truth_columns):
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
        keep = [0, 1] + [k for k in range(2, len(header))
                         if truth_columns is None or header[k] in truth_columns]
        columns = _read_columns(path, fh, len(header), keep)
    t, p = columns[:2]
    if not np.all((p > 0.0) & (p < math.inf)):
        _raise_row_error(path, len(header))
    if t.size < MIN_TRACE_LEN:
        raise CsvFormatError(f"{path}: need at least {MIN_TRACE_LEN} data rows")
    # The check is order-free, so the median may partition the steps in place.
    steps = np.diff(t)
    dt = _median(steps)
    steps -= dt
    if not dt > 0.0 or not np.all(np.abs(steps, out=steps) <= 1e-6 * dt):
        raise CsvFormatError(f"{path}: time column is not uniformly sampled")
    del steps
    trace = PressureTrace(dt=dt, samples=p)
    return trace, {header[k]: column for k, column in zip(keep[2:], columns[2:])}


def _median(x: np.ndarray) -> float:
    """np.median of a 1-D float array, partitioning it in place.

    The same arithmetic: the middle element, or (a + b) / 2.0 of the two
    middle ones. np.median imports numpy.ma on its first call (~1.7 MB RSS).
    """
    k = x.size // 2
    if x.size % 2:
        x.partition(k)
        return float(x[k])
    x.partition((k - 1, k))
    return float((x[k - 1] + x[k]) / 2.0)


def _read_columns(path, fh, n_fields: int, keep: list) -> list:
    """The data rows left in `fh`: fields `keep`, one contiguous float array each.

    Every field is parsed, _READ_ROWS rows per np.loadtxt call. Each kept
    column is allocated once, for an upper bound on the rows (one per
    line ending); its pages past the last row are never written, so they
    stay out of the resident set.
    """
    with open(path, "rb") as raw:  # lines end in \n, \r\n or \r
        bound = 1 + sum(buf.count(b"\n") + buf.count(b"\r")
                        for buf in iter(lambda: raw.read(1 << 20), b""))
    columns = [np.empty(bound) for _ in keep]
    n = 0
    with warnings.catch_warnings():
        # blank lines are skipped and an empty read ends the data; the
        # header-only case is reported by the caller, not as a warning
        warnings.filterwarnings("ignore", message="loadtxt: input contained no data",
                                category=UserWarning)
        warnings.filterwarnings("ignore", message="Input line .* contained no data",
                                category=UserWarning)
        while True:
            try:
                block = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None,
                                   quotechar='"', max_rows=_READ_ROWS)
            except ValueError as exc:
                _raise_row_error(path, n_fields, exc)
            m = len(block)
            if m and block.shape[1] != n_fields:  # loadtxt only checks rows agree
                _raise_row_error(path, n_fields)
            if n + m > bound:
                raise CsvFormatError(f"{path}: file grew while it was read")
            if m:
                for column, k in zip(columns, keep):
                    column[n:n + m] = block[:, k]
            n += m
            if m < _READ_ROWS:
                return [column[:n] for column in columns]


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


def _times(dt: float, lo: int, hi: int) -> np.ndarray:
    """Sample times of rows lo..hi-1, as PressureTrace.t has them."""
    return np.arange(lo, hi) * dt


def _sse(estimate, truth, lo, hi) -> tuple:
    """Tally of Σ(estimate - truth)² over rows lo..hi-1; empty (None returned) without truth."""
    return () if truth is None else (metrics.sse(estimate, truth[lo:hi]),)


def write_breakdown_csv(path, trace: PressureTrace, bd: ForceBreakdown, truth):
    """Iterative-path output, the chain per row block; returns Σ(f_out - truth)² or None."""
    header = ["t_s", "p1_pa", "p2_pa", "f_gas_n", "f_damp_n", "f_fric_n",
              "f_out_n", "v_mps", "h_m", "a_mps2"]

    def rows(lo, hi):
        r = bd.rows(lo, hi)
        return [_times(trace.dt, lo, hi), trace.samples[lo:hi], r.p2, r.f_gas, r.f_damp,
                r.f_fric, r.f_out, r.v, r.h_total, r.a], _sse(r.f_out, truth, lo, hi)
    total = _write_row_blocks(path, header, trace.n, rows)
    return None if truth is None else float(total[0])


def write_wheel_load_csv(path, dt: float, series: WheelLoadSeries, truth):
    """Wheel-load output, the chain per row block; returns (liftoff count, Σ(f_tire - truth)²)."""
    header = ["t_s", "f_out_n", "h_sus_m", "v_mps", "a_sus_mps2", "theta_rad",
              "beta_rad", "i_sus", "ztt_acc_mps2", "f_tire_n", "liftoff_flag"]

    def rows(lo, hi):
        r = series.rows(lo, hi)
        liftoff = r.f_tire < 0.0
        return ([_times(dt, lo, hi), r.f_out, r.h_sus, r.v, r.a_sus, r.theta, r.beta,
                 r.i_sus, r.z_ddot_t, r.f_tire, liftoff.astype(float)],
                (np.count_nonzero(liftoff),) + _sse(r.f_tire, truth, lo, hi))
    count, *total = _write_row_blocks(path, header, series.n, rows)
    return int(count), (None if truth is None else float(total[0]))


def write_lookup_csv(path, trace: PressureTrace, est: SeriesEstimate, truth):
    """Lookup-path output, queried per row block; returns Σ(f_out - truth)² or None."""
    def rows(lo, hi):
        r = est.rows(lo, hi)
        return [_times(trace.dt, lo, hi), r.f_out, r.v, r.h], _sse(r.f_out, truth, lo, hi)
    total = _write_row_blocks(path, ["t_s", "f_out_n", "v_mps", "h_m"], trace.n, rows)
    return None if truth is None else float(total[0])
