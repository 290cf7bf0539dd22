"""ECU lookup-table path: offline table generation, queries and serialization.

The table maps a pressure sample pair -- current gas pressure P and its
one-sample backward increment dP -- to (piston velocity, output force,
piston displacement). One grid is stored per characterization frequency;
queries at intermediate frequencies blend the two bracketing grids
linearly. All grids share the same (P, dP) axes so blending reduces to a
weighted sum of cell arrays.

The mapping is injective because the velocity implied by a pressure pair,

    v = (h_gas(P) - h_gas(P - dP)) / dt  ~  V_gas(P) * dP / (n_eff * P * A1 * dt),

is strictly monotone in dP at fixed P, and the force chain is a function
of (P, v) only once the sampling period and gas state are fixed. Each
cell is therefore evaluated directly at its grid node.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import core, estimator, oracle
from .config import SuspensionConfig, TableBuildSettings

__all__ = [
    "LookupGrid",
    "LookupTable",
    "LookupRows",
    "QueryStats",
    "SeriesEstimate",
    "TableFormatError",
    "BadMagicError",
    "TruncatedTableError",
    "DigestMismatchError",
    "TableCoverageError",
    "TimeBaseError",
    "pressure_to_velocity",
    "build_table",
    "query",
    "estimate_series",
    "serialize",
    "deserialize",
    "save_table",
    "load_table",
    "benchmark",
]

MAGIC = b"HPLT"
VERSION = 1
N_P = 100      # pressure axis cells
N_DP = 200     # pressure-increment axis cells
AXIS_PAD = 0.05
MIN_COVERAGE = 0.30
_BLOCK_ROWS = 4096   # samples per bilinear evaluation; bounds its temporaries


class TableFormatError(ValueError):
    """Malformed serialized lookup table."""


class BadMagicError(TableFormatError):
    """Serialized blob does not start with the table magic."""


class TruncatedTableError(TableFormatError):
    """Serialized blob ends before the declared payload."""


class DigestMismatchError(TableFormatError):
    """Table was built for a different suspension configuration."""


class TableCoverageError(RuntimeError):
    """Characterization sweep covered too little of the grid."""


class TimeBaseError(ValueError):
    """Query trace sampling period differs from the table's."""


def pressure_to_velocity(p, dp, dt: float, cfg: SuspensionConfig, n_eff: float):
    """Piston velocity implied by a pressure sample pair.

    dp is the backward pressure increment P[i] - P[i-1] over one sampling
    period dt; positive dp (rising pressure) means compression sensing,
    hence positive velocity.
    """
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0):
        raise ValueError("gas pressure must be positive")
    if dt <= 0.0:
        raise ValueError("sampling period must be positive")
    v_gas = core.gas_volume(p, cfg.charge, cfg.geom, n_eff)
    v = v_gas * np.asarray(dp, dtype=float) / (n_eff * p * cfg.geom.a1 * dt)
    return float(v) if v.ndim == 0 else v


@dataclass
class LookupGrid:
    """One frequency slice: cells[i_p, i_dp, :] = (f_out, v, h)."""

    omega: float                     # rad/s
    p_min: float
    p_max: float
    dp_min: float
    dp_max: float
    cells: np.ndarray                # float32, shape (N_P, N_DP, 3)
    filled: np.ndarray               # bool, shape (N_P, N_DP): swept region

    @property
    def coverage(self) -> float:
        return float(np.count_nonzero(self.filled)) / self.filled.size


@dataclass
class LookupTable:
    """Full multi-frequency table plus the sampling period it encodes."""

    dt: float
    config_digest: int
    grids: tuple                     # LookupGrid, ascending omega
    version: int = VERSION

    @property
    def frequencies_hz(self) -> tuple:
        return tuple(g.omega / (2.0 * np.pi) for g in self.grids)


@dataclass
class QueryStats:
    """Clamping bookkeeping for a batch of queries."""

    n_queries: int = 0
    p_clamped: int = 0
    dp_clamped: int = 0
    extrapolated: int = 0            # queries landing outside the swept region


class LookupRows(NamedTuple):
    """The lookup estimate's channels for a range of rows."""

    f_out: np.ndarray
    v: np.ndarray
    h: np.ndarray


@dataclass
class SeriesEstimate:
    """Lookup-path reconstruction of a pressure trace, its rows on demand.

    Each sample is queried at the blend frequency of its run; the runs are
    held as their first rows and frequencies. (f_out, v, h) are computed
    for a range of rows (`rows`), so no whole-trace copy of them need
    exist; `h` (_BLOCK_ROWS rows at a time) and the per-sample `omega` are
    built on every access.
    """

    p1: np.ndarray
    table: LookupTable
    run_starts: np.ndarray           # first row of each run of equal blend frequency
    run_omegas: np.ndarray           # its blend frequency, rad/s
    stats: QueryStats = field(default_factory=QueryStats)

    @property
    def n(self) -> int:
        return self.p1.size

    @property
    def omega(self) -> np.ndarray:
        """Per-sample blend frequency, rad/s."""
        return np.repeat(self.run_omegas, np.diff(self.run_starts, append=self.n))

    @property
    def h(self) -> np.ndarray:
        out = np.empty(self.n)
        for lo in range(0, self.n, _BLOCK_ROWS):
            out[lo:lo + _BLOCK_ROWS] = self.rows(lo, lo + _BLOCK_ROWS).h
        return out

    def _blocks(self, lo: int, hi: int):
        """(a, b, omega) covering rows lo..hi-1: cut at run starts, _BLOCK_ROWS at most."""
        starts = self.run_starts
        first = max(int(np.searchsorted(starts, lo, side="right")) - 1, 0)
        stop = int(np.searchsorted(starts, hi))     # runs first..stop-1 meet the rows
        ends = starts[first + 1:stop + 1].tolist() + [self.n]
        for start, end, omega in zip(starts[first:stop].tolist(), ends,
                                     self.run_omegas[first:stop].tolist()):
            for a in range(max(start, lo), min(end, hi), _BLOCK_ROWS):
                yield a, min(a + _BLOCK_ROWS, end, hi), omega

    def rows(self, lo: int = 0, hi: int | None = None) -> LookupRows:
        """(f_out, v, h) of rows lo..hi-1; dP is read from the row before lo.

        Every query is elementwise, so each value equals what a whole-trace
        evaluation gives.
        """
        hi = self.n if hi is None else min(hi, self.n)
        out = np.empty((max(hi - lo, 0), 3))
        for a, b, omega in self._blocks(lo, hi):
            dp = core.differentiate(self.p1, 1.0, a, b)
            out[a - lo:b - lo] = _interpolate(self.table, omega, self.p1[a:b], dp)
        return LookupRows(f_out=out[:, 0], v=out[:, 1], h=out[:, 2])


def _amplitude_schedule(freq_hz: float, scale: float) -> float:
    """Peak sweep amplitude (m). Constant below 5 Hz, velocity-limited above."""
    base_mm = 7.5 if freq_hz <= 5.0 else 37.5 / freq_hz
    return base_mm * 1e-3 * scale


def _outer_sweep(cfg: SuspensionConfig, freq_hz: float,
                 settings: TableBuildSettings):
    """Forward run around the outer sweep loop at one tone.

    The schedule's amplitude, centred on the static offset, for 20 cycles
    with the first dropped. Smaller amplitudes trace loops inside this
    one, so it alone bounds the axes; the run raises StrokeError where the
    sweep would overstroke. Returns (p1, dp, offset, amplitude, n_eff).
    """
    n_eff = core.effective_polytropic_index(2.0 * np.pi * freq_hz,
                                            cfg.charge, cfg.fluid)
    offset = 0.0
    if settings.static_force_n is not None:
        offset = oracle.static_gas_offset(cfg, settings.static_force_n, n_eff)
    amp = _amplitude_schedule(freq_hz, settings.amplitude_scale)
    exc = oracle.Excitation(kind="sinusoid", amplitudes=(amp,),
                            frequencies=(freq_hz,), duration=20.0 / freq_hz,
                            offset=offset)
    p1 = oracle.simulate_suspension(exc, cfg, settings.dt, freq_for_n_eff=freq_hz).p1
    skip = int(round(1.0 / (freq_hz * settings.dt)))
    return p1[skip:], core.differentiate(p1, 1.0)[skip:], offset, amp, n_eff


def _grid(cfg: SuspensionConfig, freq_hz: float, dt: float, axes: tuple,
          offset: float, amp: float, n_eff: float) -> LookupGrid:
    """One frequency slice, evaluated at its nodes in closed form.

    A sample at pressure P after one at P - dP has h = h_gas(P) and
    v = (h_gas(P) - h_gas(P - dP)) / dt, and f_out is the force chain at
    (P, v): what the iterative estimator returns with flow_inertia=False.
    The fluid-inertia drop depends on a trajectory's flow acceleration,
    not on (P, dP), so no cell can hold it.
    A node is filled when it lies inside the outer sweep loop, which the
    pairs (x, y) = (A sin phi, A sin(phi - theta)) about the offset trace,
    theta = 2 pi f dt: x^2 - 2 x y cos(theta) + y^2 <= (A sin(theta))^2.
    """
    p_min, p_max, dp_min, dp_max = axes
    p = np.linspace(p_min, p_max, N_P)[:, None]
    dp = np.linspace(dp_min, dp_max, N_DP)[None, :]

    def h_gas(pressure):
        v_gas = core.gas_volume(pressure, cfg.charge, cfg.geom, n_eff)
        return core.gas_displacement(v_gas, cfg.geom)

    h, h_prev = h_gas(p), h_gas(p - dp)
    v = (h - h_prev) / dt
    _, _, f_gas, f_damp, f_fric = core.force_chain(p, v, 0.0, cfg)
    cells = np.stack(np.broadcast_arrays(f_gas + f_damp + f_fric, v, h), axis=-1)
    theta = 2.0 * np.pi * freq_hz * dt
    x, y = h - offset, h_prev - offset
    filled = x * x - 2.0 * np.cos(theta) * x * y + y * y <= (amp * np.sin(theta)) ** 2
    return LookupGrid(omega=2.0 * np.pi * freq_hz, p_min=p_min, p_max=p_max,
                      dp_min=dp_min, dp_max=dp_max,
                      cells=cells.astype(np.float32), filled=filled)


def build_table(cfg: SuspensionConfig,
                settings: TableBuildSettings | None = None,
                min_coverage: float = MIN_COVERAGE) -> LookupTable:
    """Offline table generation, each grid node evaluated in closed form.

    The grids share (P, dP) axes that span every tone's outer sweep loop
    with 5 % padding, dp symmetric about 0. The cells depend on the
    config digest's settings, dt and the sweep schedule only;
    stroke_limit only gates the build.
    """
    settings = settings or TableBuildSettings()
    freqs = sorted(float(f) for f in settings.frequencies_hz)
    if len(set(freqs)) < max(len(freqs), 2):
        raise ValueError("need at least two distinct characterization frequencies")

    sweeps = [_outer_sweep(cfg, f, settings) for f in freqs]
    p_lo = min(float(p1.min()) for p1, *_ in sweeps)
    p_hi = max(float(p1.max()) for p1, *_ in sweeps)
    pad = AXIS_PAD * (p_hi - p_lo)
    dp_abs = (1.0 + AXIS_PAD) * max(float(np.abs(dp).max()) for _, dp, *_ in sweeps)
    axes = (p_lo - pad, p_hi + pad, -dp_abs, dp_abs)

    grids = []
    for f, (_, _, offset, amp, n_eff) in zip(freqs, sweeps):
        grid = _grid(cfg, f, settings.dt, axes, offset, amp, n_eff)
        if grid.coverage < min_coverage:
            raise TableCoverageError(
                f"{f:g} Hz grid coverage {grid.coverage:.1%} below the "
                f"{min_coverage:.0%} minimum; widen the amplitude sweep")
        grids.append(grid)

    return LookupTable(dt=settings.dt, config_digest=cfg.digest(), grids=tuple(grids))


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

def _bracket(table: LookupTable, omega: float) -> tuple:
    """(lo, hi, w, nearest): the grids bracketing omega and hi's blend weight.

    Beyond either end both grids are the end grid (clamped). The nearest
    grid, the lower one on a tie, decides whether a query counts as
    extrapolated.
    """
    grids = table.grids
    if omega <= grids[0].omega:
        return grids[0], grids[0], 0.0, grids[0]
    if omega >= grids[-1].omega:
        return grids[-1], grids[-1], 0.0, grids[-1]
    for lo, hi in zip(grids[:-1], grids[1:]):
        if lo.omega <= omega <= hi.omega:
            w = (omega - lo.omega) / (hi.omega - lo.omega)
            return lo, hi, w, (lo if omega - lo.omega <= hi.omega - omega else hi)
    raise AssertionError("unreachable: grids are sorted")


def _blend(bracket: tuple, nodes):
    """Cells at flat node indices i * N_DP + j, blended between the bracket.

    The blend is elementwise in float32, so any set of nodes reads the
    same values as the blend of the whole grids.
    """
    lo, hi, w, _ = bracket
    cells = lo.cells.reshape(-1, 3).take(nodes, axis=0)
    if lo is hi:
        return cells
    return (1.0 - w) * cells + w * hi.cells.reshape(-1, 3).take(nodes, axis=0)


def _coords(table: LookupTable, near: LookupGrid, p, dp,
            stats: QueryStats | None = None) -> tuple:
    """Clamped fractional grid coordinates (x, y) of queries at (p, dp).

    The axes are grid 0's, which every grid shares. With stats given,
    clamped queries are counted, and so are queries whose nearest node
    (after clamping) lies outside the swept region of `near`, the grid
    nearest their blend frequency.
    """
    grid0 = table.grids[0]
    p = np.atleast_1d(np.asarray(p, dtype=float))
    dp = np.atleast_1d(np.asarray(dp, dtype=float))
    x = (p - grid0.p_min) / (grid0.p_max - grid0.p_min) * (N_P - 1)
    y = (dp - grid0.dp_min) / (grid0.dp_max - grid0.dp_min) * (N_DP - 1)
    if stats is not None:
        stats.n_queries += p.size
        stats.p_clamped += int(np.count_nonzero((x < 0.0) | (x > N_P - 1)))
        stats.dp_clamped += int(np.count_nonzero((y < 0.0) | (y > N_DP - 1)))
    x = np.clip(x, 0.0, N_P - 1)
    y = np.clip(y, 0.0, N_DP - 1)
    if stats is not None:
        # nearest node, rounding half to even as round() does
        node = np.rint(x).astype(np.intp) * N_DP + np.rint(y).astype(np.intp)
        stats.extrapolated += p.size - int(np.count_nonzero(near.filled.ravel()[node]))
    return x, y


def _interpolate(table: LookupTable, omega: float, p, dp,
                 stats: QueryStats | None = None):
    """Clamped bilinear interpolation at blend frequency omega.

    Only the four corner cells of each query are blended between the
    bracketing grids. With stats given, the queries are counted (see
    _coords).
    """
    bracket = _bracket(table, omega)
    x, y = _coords(table, bracket[3], p, dp, stats)
    i0 = np.minimum(x.astype(np.intp), N_P - 2)
    j0 = np.minimum(y.astype(np.intp), N_DP - 2)
    fx = (x - i0)[:, None]
    fy = (y - j0)[:, None]
    n00 = i0 * N_DP + j0
    return (_blend(bracket, n00) * (1 - fx) * (1 - fy)
            + _blend(bracket, n00 + N_DP) * fx * (1 - fy)
            + _blend(bracket, n00 + 1) * (1 - fx) * fy
            + _blend(bracket, n00 + N_DP + 1) * fx * fy)


def query(table: LookupTable, p: float, dp: float, omega: float,
          stats: QueryStats | None = None):
    """Single lookup: (f_out, v, h) at one pressure pair and blend frequency."""
    f_out, v, h = (float(x) for x in _interpolate(table, omega, p, dp, stats)[0])
    return f_out, v, h


def _tracked_runs(samples: np.ndarray, dt: float) -> tuple:
    """Runs of equal blend frequency from 1 s windows hopped every 0.5 s.

    Each sample takes the estimate (rad/s) of the window whose centre is
    nearest, the earlier window on a tie. Window j spans [s_j, s_j + win),
    so sample i belongs to window j rather than j + 1 iff
    2 i <= s_j + s_{j+1} + win. Returns (first rows, blend frequencies).
    """
    win = max(int(round(1.0 / dt)), estimator.MIN_TRACE_LEN)
    starts, win, freqs = estimator.window_peak_frequencies(
        samples, dt, win, max(win // 2, 1))
    first = np.concatenate(([0], (starts[:-1] + starts[1:] + win) // 2 + 1))
    omegas = 2.0 * np.pi * freqs
    new = np.concatenate(([True], omegas[1:] != omegas[:-1]))
    return first[new], omegas[new]


def estimate_series(trace: estimator.PressureTrace, table: LookupTable,
                    omega: float | str = "auto") -> SeriesEstimate:
    """Lookup estimate of a whole trace, its (f_out, v, h) rows on demand.

    omega may be a fixed blend frequency in rad/s or "auto", which tracks
    the dominant frequency over one-second windows hopped every half
    second and assigns each sample the nearest window's estimate. One pass
    over the runs of equal blend frequency, in trace order and
    _BLOCK_ROWS samples at a time, counts the queries' clamping into
    `stats`; beyond the trace only the run boundaries grow with it.
    """
    if abs(trace.dt - table.dt) > 1e-9:
        raise TimeBaseError(
            f"trace dt {trace.dt!r} does not match table dt {table.dt!r}")
    p1 = trace.samples
    if isinstance(omega, str):
        if omega != "auto":
            raise ValueError("omega must be a float or 'auto'")
        starts, omegas = _tracked_runs(p1, trace.dt)
    else:
        if not np.isfinite(omega):
            raise ValueError("omega must be finite")
        starts, omegas = np.zeros(1, dtype=np.intp), np.array([float(omega)])

    est = SeriesEstimate(p1=p1, table=table, run_starts=starts, run_omegas=omegas)
    for a, b, omega_run in est._blocks(0, est.n):
        dp = core.differentiate(p1, 1.0, a, b)
        _coords(table, _bracket(table, omega_run)[3], p1[a:b], dp, est.stats)
    return est


# ---------------------------------------------------------------------------
# Binary serialization
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<4sIQdI")
_GRID_HEADER = struct.Struct("<dII4d")


def serialize(table: LookupTable) -> bytes:
    """Little-endian binary encoding of the full table."""
    parts = [_HEADER.pack(MAGIC, table.version, table.config_digest,
                          table.dt, len(table.grids))]
    for g in table.grids:
        parts.append(_GRID_HEADER.pack(g.omega, g.cells.shape[0], g.cells.shape[1],
                                       g.p_min, g.p_max, g.dp_min, g.dp_max))
        parts.append(np.ascontiguousarray(g.cells, dtype="<f4").tobytes())
        parts.append(g.filled.astype(np.uint8).tobytes())
    return b"".join(parts)


def deserialize(blob: bytes, expected_digest: int | None = None) -> LookupTable:
    """Decode a serialized table, validating structure and (optionally) digest."""
    if len(blob) < _HEADER.size:
        if blob[:4] != MAGIC[:len(blob)]:
            raise BadMagicError("not a lookup table: bad magic")
        raise TruncatedTableError("table header truncated")
    magic, version, digest, dt, n_freq = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise BadMagicError(f"not a lookup table: bad magic {magic!r}")
    if version != VERSION:
        raise TableFormatError(f"unsupported table version {version}")
    if expected_digest is not None and digest != expected_digest:
        raise DigestMismatchError(
            "table was built for a different suspension configuration "
            f"(digest {digest:#018x}, expected {expected_digest:#018x})")
    if not 0.0 < dt < np.inf:
        raise TableFormatError(f"table sampling period {dt!r} is not positive and finite")
    if n_freq == 0:
        raise TableFormatError("table holds no grids")
    off = _HEADER.size
    grids = []
    for k in range(n_freq):
        if len(blob) < off + _GRID_HEADER.size:
            raise TruncatedTableError("grid header truncated")
        omega, n_p, n_dp, p_min, p_max, dp_min, dp_max = \
            _GRID_HEADER.unpack_from(blob, off)
        off += _GRID_HEADER.size
        # queries bracket omega in grid order and read grid 0's axes for all
        if (n_p, n_dp) != (N_P, N_DP):
            raise TableFormatError(
                f"grid {k} has {n_p} x {n_dp} cells, expected {N_P} x {N_DP}")
        if not (grids[-1].omega if grids else 0.0) < omega < np.inf:
            raise TableFormatError(
                f"grid {k} frequency {omega!r} rad/s is not finite and above "
                "the previous grid's (or 0)")
        axes = (p_min, p_max, dp_min, dp_max)
        if grids and axes != (grids[0].p_min, grids[0].p_max,
                              grids[0].dp_min, grids[0].dp_max):
            raise TableFormatError(f"grid {k} axes differ from grid 0's")
        if not (-np.inf < p_min < p_max < np.inf and -np.inf < dp_min < dp_max < np.inf):
            raise TableFormatError(f"grid {k} axes are not finite and ascending")
        n_cells = n_p * n_dp
        cells_bytes = n_cells * 3 * 4
        if len(blob) < off + cells_bytes + n_cells:
            raise TruncatedTableError("grid payload truncated")
        cells = np.frombuffer(blob, dtype="<f4", count=n_cells * 3,
                              offset=off).reshape(n_p, n_dp, 3).copy()
        off += cells_bytes
        filled = np.frombuffer(blob, dtype=np.uint8, count=n_cells,
                               offset=off).reshape(n_p, n_dp).astype(bool)
        off += n_cells
        grids.append(LookupGrid(omega=omega, p_min=p_min, p_max=p_max,
                                dp_min=dp_min, dp_max=dp_max,
                                cells=cells, filled=filled))
    if off != len(blob):
        raise TableFormatError(f"{len(blob) - off} trailing byte(s) after the table")
    return LookupTable(dt=dt, config_digest=digest, grids=tuple(grids),
                       version=version)


def save_table(table: LookupTable, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize(table))


def load_table(path, cfg: SuspensionConfig | None = None) -> LookupTable:
    """Read a table file; with cfg given, reject digest mismatches."""
    with open(path, "rb") as fh:
        blob = fh.read()
    expected = cfg.digest() if cfg is not None else None
    return deserialize(blob, expected_digest=expected)


# ---------------------------------------------------------------------------
# Benchmark
# ---------------------------------------------------------------------------

def _stream_iterative(trace, cfg: SuspensionConfig, n_eff: float) -> np.ndarray:
    """Per-sample (streaming) evaluation of the full iterative force chain.

    This is the online deployment form: each arriving pressure sample runs
    the complete physics chain before the next sample exists, so nothing
    can be batched.
    """
    geom, fluid, fric, charge = cfg.geom, cfg.fluid, cfg.friction, cfg.charge
    dt = trace.dt
    out = np.empty(trace.n)
    h_prev = q_prev = None
    for i, p in enumerate(trace.samples):
        v_gas = core.gas_volume(p, charge, geom, n_eff)
        h = core.gas_displacement(v_gas, geom)
        v = 0.0 if h_prev is None else (h - h_prev) / dt
        q = geom.a3 * v
        dq_dt = 0.0 if q_prev is None else (q - q_prev) / dt
        h_prev, q_prev = h, q
        dp, _, _, _, _ = core.damping_pressure_drop(
            core.FlowState(q=q, dq_dt=dq_dt, v=v), geom, fluid)
        p2 = p - dp
        out[i] = (core.gas_force(p, p2, geom, fluid)
                  + core.damping_force(dp, geom)
                  + core.friction_force(v, fric,
                                        squared_exponent=cfg.use_alg1_friction))
    return out


def _stream_lookup(trace, cells: np.ndarray, grid0: LookupGrid) -> np.ndarray:
    """Per-sample (streaming) bilinear queries on a pre-blended grid.

    The grid blend only changes when the tracked frequency changes, so it
    stays outside the per-sample loop; each sample costs two index
    computations and a four-corner weighted sum.
    """
    scale_x = (N_P - 1) / (grid0.p_max - grid0.p_min)
    scale_y = (N_DP - 1) / (grid0.dp_max - grid0.dp_min)
    p_min, dp_min = grid0.p_min, grid0.dp_min
    x_hi, y_hi = float(N_P - 1), float(N_DP - 1)
    c = cells.tolist()  # native floats: fastest scalar access form
    out = np.empty(trace.n)
    p_prev = float(trace.samples[0])
    samples = trace.samples.tolist()
    for i, p in enumerate(samples):
        dp = p - p_prev
        p_prev = p
        x = (p - p_min) * scale_x
        y = (dp - dp_min) * scale_y
        if x < 0.0:
            x = 0.0
        elif x > x_hi:
            x = x_hi
        if y < 0.0:
            y = 0.0
        elif y > y_hi:
            y = y_hi
        i0 = min(int(x), N_P - 2)
        j0 = min(int(y), N_DP - 2)
        fx = x - i0
        fy = y - j0
        r0 = c[i0]
        r1 = c[i0 + 1]
        out[i] = ((1 - fx) * ((1 - fy) * r0[j0] + fy * r0[j0 + 1])
                  + fx * ((1 - fy) * r1[j0] + fy * r1[j0 + 1]))
    return out


def benchmark(table: LookupTable, cfg: SuspensionConfig,
              n_samples: int = 12000, repeats: int = 10,
              freq_hz: float = 5.0) -> dict:
    """Median per-sample runtime of the iterative vs lookup path.

    The headline numbers are streaming (one sample in, one force out, the
    controller deployment mode); batch numbers for offline whole-trace
    processing, where vectorization hides the arithmetic gap, are reported
    alongside. Both paths process the same synthetic pressure trace.
    """
    if n_samples < 10000:
        raise ValueError("benchmark needs at least 10000 samples")
    if repeats < 10:
        raise ValueError("benchmark needs at least 10 repetitions")
    dt = table.dt
    duration = max((n_samples - 1) * dt, 20.0 / freq_hz)
    amp = _amplitude_schedule(freq_hz, 0.8)
    exc = oracle.Excitation(kind="sinusoid", amplitudes=(amp,),
                            frequencies=(freq_hz,), duration=duration)
    trace = oracle.simulate_suspension(exc, cfg, dt).to_pressure_trace()
    n = trace.n
    omega = 2.0 * np.pi * freq_hz
    n_eff = core.effective_polytropic_index(omega, cfg.charge, cfg.fluid)
    f_cells = _blend(_bracket(table, omega), np.arange(N_P * N_DP))[:, 0]
    cells_f = np.ascontiguousarray(f_cells.reshape(N_P, N_DP), dtype=float)
    grid0 = table.grids[0]

    t_iter, t_look, t_iter_batch, t_look_batch = [], [], [], []
    for _ in range(repeats):
        start = time.perf_counter()
        _stream_iterative(trace, cfg, n_eff)
        t_iter.append(time.perf_counter() - start)
        start = time.perf_counter()
        _stream_lookup(trace, cells_f, grid0)
        t_look.append(time.perf_counter() - start)
        start = time.perf_counter()
        estimator.run(trace, cfg, freq_override=freq_hz).rows()
        t_iter_batch.append(time.perf_counter() - start)
        start = time.perf_counter()
        estimate_series(trace, table, omega=omega).rows()
        t_look_batch.append(time.perf_counter() - start)
    us = lambda t: float(np.median(t)) / n * 1e6
    return {
        "n_samples": n,
        "repeats": repeats,
        "iterative_us_per_sample": us(t_iter),
        "lookup_us_per_sample": us(t_look),
        "speedup": us(t_iter) / us(t_look),
        "batch_iterative_us_per_sample": us(t_iter_batch),
        "batch_lookup_us_per_sample": us(t_look_batch),
        "batch_speedup": us(t_iter_batch) / us(t_look_batch),
    }
