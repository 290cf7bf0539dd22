"""CSV ingestion/emission for traces, force breakdowns and wheel loads.

All files carry a header row, SI units in the column names, and full
double precision (%.17g) so that emit-then-ingest round trips are exact
to parsing precision.
"""

from __future__ import annotations

import contextlib
import csv
import errno
import functools
import itertools
import math
import os
import stat
import warnings
from io import TextIOWrapper
from typing import TYPE_CHECKING

import numpy as np

from . import metrics
from .errors import InputError
from .estimator import MIN_TRACE_LEN, ForceBreakdown, PressureTrace
from . import core  # loaded by estimator; last, so the module load order is unchanged

if TYPE_CHECKING:  # type names only: a command loads just the modules it runs
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
_FORMAT_ROWS = 256      # rows per _csv_text call; bounds its temporaries (~300 B a value)
_SCAN_BYTES = 1 << 20   # bytes per read of the line-counting pass

TRACE_BASE_COLUMNS = ("t_s", "p1_pa")
TRACE_TRUTH_COLUMNS = ("f_out_truth_n", "v_truth_mps", "h_truth_m")
TRACE_TIRE_COLUMN = "f_tire_truth_n"


class CsvFormatError(InputError):
    """Malformed or non-uniform CSV input."""


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


# %.17g in NumPy: see _csv_text
_POW10 = np.array([float(10 ** s) for s in range(23)])  # each exact in binary64
_SPLITTER = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into two halves
_POW10_HI = _SPLITTER * _POW10 - (_SPLITTER * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_SLOT = 32  # text bytes per value: at most 25 with its separator
_KERNEL_VALUES = 224  # values per block below which '%.17g' beats the kernel's fixed ~85 us


@functools.cache
def _text_tables():
    """Digit groups and the per-exponent slot layout of _csv_text, read-only.

    Built on the first write, not at import, where they raised the
    peak RSS of `estimate` by ~0.2 MB more (NumPy maps more of its code
    on each operation's first use).
    """
    chars = np.frombuffer(("%04d" * 10000 % tuple(range(10000))).encode(), np.uint8)
    chars = chars.reshape(10000, 4)
    trailing = np.empty((10000, 4), bool)
    zero = np.ones(10000, bool)
    for i in (3, 2, 1, 0):
        zero &= chars[:, i] == 48
        trailing[:, i] = zero
    # g's four digits at [g], and at [10000 + g] without its trailing zeros
    groups = np.concatenate([chars, chars * ~trailing]).view(np.uint32).ravel()
    kept = 4 - np.concatenate([np.zeros(10000, np.int8), trailing.sum(1, dtype=np.int8)])
    # Rows 2 * (k + 4) + sign for exponents k = -4..15. The 17 digits sit
    # at bytes 8..24: `stay` keeps those that stay there, `moved` those
    # shifted one byte right behind the point, and `fill` adds the sign,
    # the point and the zeros of "0.000" (k < 0) or of the integer part.
    stay, moved, fill = (np.zeros((40, _SLOT), np.uint8) for _ in range(3))
    for k in range(-4, 16):
        rows = slice(2 * (k + 4), 2 * (k + 5))
        if k >= 0:
            stay[rows, 8:9 + k] = 255
            moved[rows, 10 + k:26] = 255
            fill[rows, 8:9 + k] = 48
            fill[rows, 9 + k] = 46
        else:  # "0.", "0.0", ... ending at byte 7
            stay[rows, 8:25] = 255
            fill[rows, 7 + k:8] = 48
            fill[rows, 8 + k] = 46
        fill[rows.stop - 1, 7 if k >= 0 else 6 + k] = 45
    tables = groups, kept, stay.view(np.uint64), moved.view(np.uint64), fill.view(np.uint64)
    for table in tables:
        table.flags.writeable = False
    return tables


def _scaled(a, k):
    """(p, e) with p + e = a * 10**(16 - k) exactly: Dekker's TwoProduct."""
    s = 16 - k
    b, b_hi, b_lo = _POW10[s], _POW10_HI[s], _POW10_LO[s]
    p = a * b
    c = _SPLITTER * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    return p, a_lo * b_lo - (((p - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)


def _digits(x):
    """(D, k, fast): |x| rounded to 17 digits, D * 10**(k - 16), where `fast`."""
    a = np.abs(x)
    fast = (a >= 9e-5) & (a < 1e16)
    a[~fast] = 1.0
    k = np.floor(np.log10(a)).astype(np.intp)
    p, e = _scaled(a, k)
    step = ((p - 1e17) + e >= 0.0).view(np.int8) - ((p - 1e16) + e < 0.0).view(np.int8)
    if step.any():  # log10 misjudged a value next to a power of ten
        k += step
        p, e = _scaled(a, k)
        fast &= ((p - 1e17) + e < 0.0) & ((p - 1e16) + e >= 0.0)
    d = p.astype(np.int64)
    d += np.rint(e).astype(np.int64)
    up = d == 10 ** 17  # rounded up to the next power of ten
    if up.any():
        d[up] = 10 ** 16
        k += up
    fast &= (k >= -4) & (k <= 15)
    k[~fast] = 0
    return d, k, fast


def _fill_slots(x, d, k):
    """(slots, end): each value's fixed-notation text in _SLOT bytes, and where it ends."""
    n = x.size
    g = np.empty((5, n), np.int64)  # d's digits in groups of 4, 4, 4, 4 and 1
    np.floor_divide(d, 10 ** 13, out=g[0])
    q = d // 10 ** 9
    np.subtract(q, g[0] * 10 ** 4, out=g[1])
    r = d // 10 ** 5
    np.subtract(r, q * 10 ** 4, out=g[2])
    q = d // 10
    np.subtract(q, r * 10 ** 4, out=g[3])
    np.subtract(d, q * 10, out=g[4])
    g[4] *= 1000
    zero = g[4] == 0  # every later group is zero: drop this one's trailing zeros
    g[4] += 10000
    for j in (3, 2, 1, 0):
        g[j] += zero * 10000
        zero &= g[j] == 10000
    groups, kept, stay, move, fill = _text_tables()
    shown = np.maximum(kept.take(g).sum(axis=0, dtype=np.intp), k + 1)
    slots = np.zeros((n, _SLOT), np.uint8)
    for j in range(5):
        groups.take(g[j], out=slots.view(np.uint32)[:, 2 + j], mode="clip")
    words = slots.view(np.uint64)
    moved = np.empty_like(words)
    moved.view(np.uint8).ravel()[1:] = slots.ravel()[:-1]
    moved.view(np.uint8).ravel()[:1] = 0
    row = 2 * k + 8 + np.signbit(x)
    words &= stay.take(row, axis=0)
    moved &= move.take(row, axis=0)
    words |= moved
    words |= fill.take(row, axis=0)
    return slots, 8 + shown + (shown > k + 1) - (k < 0)


def _csv_text(block) -> np.ndarray:
    """The CSV rows of a 2-D block of floats, each value as '%.17g' % value writes it.

    Returns the text's bytes (uint8), each row ending in CRLF. A block of
    fewer than _KERNEL_VALUES values is written by Python's '%.17g', which
    is faster there (about 0.5 us a value). In larger blocks the values
    with 1e-4 <= |x| < 1e16, which '%.17g' prints in fixed notation with
    exponent k = -4..15, are formatted in NumPy; zeros are written '0' and
    '-0', and every other value (inf, nan, |x| < 1e-4 and |x| >= 1e16,
    under 0.4 % of those the commands write) by Python's '%.17g'.

    Why the digits are exact. '%.17g' is correctly rounded: it writes
    D * 10**(k - 16), where k = floor(log10|x|) and D is |x| * 10**(16 - k)
    rounded half to even, unless that rounds to 10**17, when it writes
    10**16 * 10**(k + 1 - 16). With s = 16 - k in 0..22, 10**s is a
    binary64 number, and Dekker's TwoProduct (Numer. Math. 18, 1971),
    over Veltkamp's split by 2**27 + 1, gives doubles p + e = |x| * 10**s
    exactly: the products stay far from overflow and underflow. The k
    from log10 can be one off next to a power of ten; p + e decides
    exactly whether |x| * 10**s lies in [10**16, 10**17), because
    p - 10**16 is exact near 10**16 (Sterbenz) and elsewhere outweighs
    |e|; k is moved and p, e recomputed. In [10**16, 10**17] doubles are
    2 or more apart, so p is an even integer and |e| <= 8; D = p + rint(e)
    then rounds half to even as '%.17g' does: '%.17g' % (1 + 2**-17) is
    '1.0000076293945312'.

    Text. D's digits come from a table of 4-digit groups, a group's
    trailing zeros dropped when every later group is zero. Each value
    gets a _SLOT-byte slot: its digits at bytes 8..24, masks per (k, sign)
    that keep them or move the fraction one byte right, and the sign,
    point and leading "0.000" or integer zeros. The separator goes at the
    end of the text, and the zero bytes around it are dropped at once.
    """
    x = np.asarray(block, dtype=np.float64)
    rows, cols = x.shape
    if x.size < _KERNEL_VALUES:
        row = ",".join([_FMT] * cols) + "\r\n"
        return np.frombuffer(((row * rows) % tuple(x.ravel().tolist())).encode(), np.uint8)
    x = x.ravel()
    d, k, fast = _digits(x)
    slots, end = _fill_slots(x, d, k)
    del d, k
    flat = slots.ravel()
    zero = x == 0.0
    flat[np.flatnonzero(zero) * _SLOT + 8] = 48
    for i in np.flatnonzero(~fast & ~zero):
        text = (_FMT % x[i]).encode()
        slots[i] = 0
        slots[i, :len(text)] = np.frombuffer(text, np.uint8)
        end[i] = len(text)
    end += np.arange(0, x.size * _SLOT, _SLOT)
    flat[end] = 44
    row_end = end[cols - 1::cols]
    flat[row_end] = 13
    flat[row_end + 1] = 10
    return flat[flat != 0]


def _format_rows(fh, rows, lo, hi):
    """Write rows lo..hi-1 of the row-block source `rows` to binary `fh`; return their tally.

    rows(a, b) returns the columns of rows a..b-1 and their tally, a tuple
    of sums over them; it is called for core.BLOCK_ROWS rows at a time, so a
    source that computes its rows holds one block of them. Each
    _FORMAT_ROWS rows are formatted at once by _csv_text.
    """
    total = 0.0
    for a in range(lo, hi, core.BLOCK_ROWS):
        columns, tally = rows(a, min(a + core.BLOCK_ROWS, hi))
        total = total + np.array(tally, dtype=float)
        m = len(columns[0])
        for b in range(0, m, _FORMAT_ROWS):
            fh.write(_csv_text(np.column_stack([col[b:b + _FORMAT_ROWS] for col in columns])))
    return total


def _write_rows(path, header, columns):
    """Header, then %.17g rows, as csv.writer writes them: commas, CRLF, nothing quoted."""
    _write_row_blocks(path, header, len(columns[0]),
                      lambda lo, hi: ([c[lo:hi] for c in columns], ()))


def _write_row_blocks(path, header, n, rows):
    """_write_rows for the n rows of a row-block source; returns their tally.

    They are computed and formatted on every CPU the process may use (see
    _format_ranges) into `<file>.<pid>.tmp` beside the file `path` names
    (through any symlink), renamed over it once complete with its mode:
    on any failure the temporary file is removed and the file left as it
    was. A file this process may not write is refused; a path that exists
    but is no regular file (/dev/null, a pipe) is written in place.
    """
    out = os.path.realpath(path)
    tmp = out if os.path.exists(out) and not os.path.isfile(out) else f"{out}.{os.getpid()}.tmp"
    mode = stat.S_IMODE(os.stat(out).st_mode) if os.path.isfile(out) else None
    if mode is not None and not os.access(out, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
    try:
        with open(tmp, "wb") as fh:
            fh.write((",".join(header) + "\r\n").encode())  # names csv.writer never quotes
            total = _format_ranges(fh, rows, n)
        if tmp != out:
            if mode is not None:
                os.chmod(tmp, mode)
            os.replace(tmp, out)
    except BaseException:
        if tmp != out:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        raise
    return total


def _format_ranges(fh, rows, n):
    """_format_rows of rows 0..n-1 into `fh`, one range per worker (_workers).

    This process formats the first range, and a forked child each later
    one: its text, then its tally's doubles, appended here in order. A
    range no child delivered is formatted here, so the bytes, the tally
    and any error are those of a serial run.
    """
    workers = _workers(n)
    if workers < 2:
        return _format_rows(fh, rows, 0, n)
    import shutil
    bounds = [n * k // workers for k in range(workers + 1)]
    _text_tables()  # built once, here, for every child to inherit
    fh.flush()

    def format_range(lo, hi, part):
        part.write(np.asarray(_format_rows(part, rows, lo, hi), dtype=float).tobytes())
    joins, parts = [], []
    try:
        try:
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                joins.append(_forked(format_range, lo, hi))
            total = _format_rows(fh, rows, 0, bounds[1])
        finally:
            parts = [join() for join in joins]
        for part, lo, hi in zip(parts, bounds[1:-1], bounds[2:]):
            if part is None:
                total = total + _format_rows(fh, rows, lo, hi)
            else:  # a tally is as long as this process's own
                end = part.seek(-total.nbytes, os.SEEK_END)
                total = total + np.frombuffer(part.read())
                part.truncate(end)
                part.seek(0)
                shutil.copyfileobj(part, fh)
    finally:
        for part in filter(None, parts):
            part.close()
    return total


def _workers(rows: int) -> int:
    """Processes for a CSV stage of `rows` rows: one per CPU and core.BLOCK_ROWS block at most."""
    return min(_cpu_count() if hasattr(os, "fork") else 1, -(-rows // core.BLOCK_ROWS))


def _forked(work, *args):
    """Run work(*args, fh) in a forked child, fh an unnamed temporary file; return join.

    join() waits for the child and returns fh at offset 0, or None if the
    file or the process could not be made or the child did not exit with
    status 0. The child leaves by os._exit: flush files before the fork.
    """
    import tempfile
    fh = pid = None
    with contextlib.suppress(OSError):  # no file, or no process (EAGAIN under a process limit)
        fh = tempfile.TemporaryFile()
        pid = os.fork()
    if pid == 0:
        try:
            work(*args, fh)
            fh.flush()
            os._exit(0)
        finally:  # reached on an exception only
            os._exit(1)

    def join():
        if pid is not None and os.waitpid(pid, 0)[1] == 0:  # exited with status 0
            fh.seek(0)
            return fh
        if fh is not None:
            fh.close()
        return None
    return join


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
    except csv.Error as exc:  # a field longer than the csv module's limit
        raise CsvFormatError(f"{path}: {exc}") from None


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
        t, p, *truth = _read_columns(path, fh, reader.line_num, len(header), keep)
    if not np.all((p > 0.0) & (p < math.inf)):
        _raise_row_error(path, len(header))
    if p.size < MIN_TRACE_LEN:
        raise CsvFormatError(f"{path}: need at least {MIN_TRACE_LEN} data rows")
    steps = t[:-1]  # t[i + 1] - t[i], written over t a block at a time: the operands overlap
    for lo in range(0, steps.size, core.BLOCK_ROWS):
        hi = min(lo + core.BLOCK_ROWS, steps.size)
        np.subtract(t[lo + 1:hi + 1], t[lo:hi], out=steps[lo:hi])
    # The check is order-free, so the median may partition the steps in place.
    dt = _median(steps)
    steps -= dt
    if not dt > 0.0 or not np.all(np.abs(steps, out=steps) <= 1e-6 * dt):
        raise CsvFormatError(f"{path}: time column is not uniformly sampled")
    del t, steps
    trace = PressureTrace(dt=dt, samples=p)
    return trace, {header[k]: column for k, column in zip(keep[2:], truth)}


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


def _read_columns(path, fh, header_lines: int, n_fields: int, keep: list) -> list:
    """The fields `keep` of the data rows left in `fh`, one column each.

    Every field is parsed, core.BLOCK_ROWS rows per np.loadtxt call. Each
    column is allocated once, for an upper bound on the rows (one per
    line); its pages past the last row are never written, so they stay out
    of the resident set.

    Given two workers for its lines (_workers), a forked child parses the
    second half (_parse_halves); a fault reads as in the serial parse.
    """
    bound, split, lines = _scan_lines(path)
    lines -= header_lines  # data lines before the split; none without a split
    columns = [np.empty(bound) for _ in keep]
    try:
        if lines > 0 and _workers(bound - header_lines) >= 2:
            n = _parse_halves(path, fh, split, lines, n_fields, keep, columns)
        else:
            n = _parse(path, fh, n_fields, keep, columns)
    except CsvFormatError:
        raise
    except ValueError as exc:  # a row np.loadtxt rejects, a ragged row, or not UTF-8
        _raise_row_error(path, n_fields, exc)
    return [column[:n] for column in columns]


def _scan_lines(path) -> tuple:
    """(bound, split, lines) from one binary pass over `path`.

    bound is one more than its line ends, each of \\n, \\r\\n and \\r
    counted once, as the text reader splits lines; split is the offset
    just past the first line end at or after the middle of the file (None
    if there is none), and `lines` the number of line ends before it.
    """
    ends, split, lines = 0, None, 0
    pos, cr = 0, False  # cr: the bytes before `buf` end in \r
    with open(path, "rb") as raw:
        middle = os.fstat(raw.fileno()).st_size // 2
        for buf in iter(lambda: raw.read(_SCAN_BYTES), b""):
            joined = cr and buf[:1] == b"\n"  # a \r\n across buffers, its \r counted
            if split is None and pos + len(buf) > middle:
                i = _past_line_end(buf, max(middle - pos, 0), raw.peek(1)[:1])
                if i is not None:
                    split, lines = pos + i, ends + _line_ends(buf[:i]) - joined
            ends += _line_ends(buf) - joined
            pos += len(buf)
            cr = buf[-1:] == b"\r"
    return ends + 1, split, lines


def _line_ends(buf: bytes) -> int:
    return buf.count(b"\n") + buf.count(b"\r") - buf.count(b"\r\n")


def _past_line_end(buf: bytes, start: int, following: bytes):
    """The offset just past the first line end in `buf` at or after `start`, or None.

    `following` is the byte after `buf`, which may complete a \r\n.
    """
    ends = [i for i in (buf.find(b"\n", start), buf.find(b"\r", start)) if i >= 0]
    if not ends:
        return None
    i = min(ends)
    return i + 1 + ((buf[i + 1:i + 2] or following) == b"\n" and buf[i:i + 1] == b"\r")


def _parse(path, lines, n_fields: int, keep: list, columns: list) -> int:
    """Parse the rows of `lines` into `columns` from row 0; return their number.

    Raises ValueError for a row np.loadtxt rejects or one without n_fields
    fields.
    """
    n, bound = 0, len(columns[0])
    with warnings.catch_warnings():
        # blank lines are skipped and an empty read ends the data; the
        # header-only case is reported by the caller, not as a warning
        warnings.filterwarnings("ignore", message="loadtxt: input contained no data",
                                category=UserWarning)
        warnings.filterwarnings("ignore", message="Input line .* contained no data",
                                category=UserWarning)
        while True:
            block = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None,
                               quotechar='"', max_rows=core.BLOCK_ROWS)
            m = len(block)
            if m and block.shape[1] != n_fields:  # loadtxt only checks rows agree
                raise ValueError(f"rows of {block.shape[1]} fields, not {n_fields}")
            if n + m > bound:
                raise CsvFormatError(f"{path}: file grew while it was read")
            if m:
                for column, k in zip(columns, keep):
                    column[n:n + m] = block[:, k]
            n += m
            if m < core.BLOCK_ROWS:
                return n


def _parse_from(path, offset: int, n_fields: int, keep: list, columns: list) -> int:
    """_parse of the lines of `path` from byte `offset`, a line start, to its end."""
    with open(path, "rb") as raw:
        raw.seek(offset)
        lines = TextIOWrapper(raw, encoding="utf-8", newline="")
        return _parse(path, lines, n_fields, keep, columns)


def _parse_halves(path, fh, split: int, lines: int, n_fields: int, keep: list,
                  columns: list) -> int:
    """Parse the next `lines` lines of `fh` here, those from byte `split` in a child.

    The forked child (_parse_tail) parses into its copy of `columns`; its
    rows are read in after this process's. A half the child did not
    deliver is parsed here, for its rows or its fault. Returns the number
    of rows.
    """
    join = _forked(_parse_tail, path, split, n_fields, keep, columns)
    try:
        n = _parse(path, itertools.islice(fh, lines), n_fields, keep, columns)
    except BaseException:
        if part := join():
            part.close()
        raise
    part = join()
    if part is None:
        return n + _parse_from(path, split, n_fields, keep, [c[n:] for c in columns])
    with part:
        m = int.from_bytes(part.read(8), "little")
        if n + m > len(columns[0]):
            raise CsvFormatError(f"{path}: file grew while it was read")
        for column in columns:
            part.readinto(column[n:n + m])
    return n + m


def _parse_tail(path, split: int, n_fields: int, keep: list, columns: list, fh):
    """A forked reader's work: rows from byte `split`, their count and then columns to `fh`."""
    m = _parse_from(path, split, n_fields, keep, columns)
    fh.write(m.to_bytes(8, "little"))
    for column in columns:
        fh.write(column[:m])


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


def write_wheel_load_csv(path, series: WheelLoadSeries, truth):
    """Wheel-load output, the chain per row block; returns (liftoff count, Σ(f_tire - truth)²)."""
    header = ["t_s", "f_out_n", "h_sus_m", "v_mps", "a_sus_mps2", "theta_rad",
              "beta_rad", "i_sus", "ztt_acc_mps2", "f_tire_n", "liftoff_flag"]

    def rows(lo, hi):
        r = series.rows(lo, hi)
        liftoff = r.f_tire < 0.0
        return ([_times(series.dt, lo, hi), r.f_out, r.h_sus, r.v, r.a_sus, r.theta, r.beta,
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
