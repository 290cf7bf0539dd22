"""Row blocks: no output depends on the block, batch or read-chunk sizes.

The wheel-load path reads its trace in chunks, batches its window FFTs,
and queries the table and computes the kinematic chain per row block
inside the CSV writers; the iterative path computes its force chain
per row block, inside the CSV writers too. Each size is patched, all at
once, to sizes around the trace length and the blend groups, and every
output is compared with the unpatched run, where the trace is one block.
"""

from __future__ import annotations

import dataclasses
import errno
import math
import os
import signal
import tracemalloc
import warnings

import numpy as np
import pytest

from hpsusp import cli, config, core, estimator, io, lookup, metrics, oracle, wheel

DT = 1.0 / 360.0
SIZES = ["1", "2", "3", "7", "n-1", "n", "n+1", "split"]


@pytest.fixture(scope="module")
def case(tmp_path_factory, truck):
    """A truck sweep trace and table on disk, and the unpatched CLI outputs."""
    d = tmp_path_factory.mktemp("blocks")
    cfg = truck.suspension
    n_eff = core.effective_polytropic_index(2 * math.pi * 5.5, cfg.charge, cfg.fluid)
    offset = oracle.static_gas_offset(cfg, truck.table.static_force_n, n_eff)
    exc = oracle.Excitation(kind="linear-sweep", amplitudes=(3.0e-3,),
                            frequencies=(3.0, 8.0), duration=7.0, offset=offset)
    io.write_trace_csv(d / "trace.csv", oracle.simulate_suspension(exc, cfg, DT))
    table = lookup.build_table(cfg, truck.table)
    lookup.save_table(table, d / "truck.hplt")
    trace, _ = io.read_trace_csv(d / "trace.csv")
    # the iterative path's trace: the bench unit cavitates on part of it
    bench = oracle.Excitation(kind="linear-sweep", amplitudes=(6.0e-3,),
                              frequencies=(3.0, 8.0), duration=(trace.n - 1) * DT)
    io.write_trace_csv(d / "bench.csv",
                       oracle.simulate_suspension(bench, config.bench_prototype(), DT))
    est = lookup.estimate_series(trace, table, omega="auto")
    # a block size that ends a block inside the largest blend group
    _, groups = np.unique(est.omega, return_counts=True)
    split = int(groups.max()) // 2 + 1
    assert 7 < split < groups.max() < trace.n
    c = {"dir": d, "table": table, "trace": trace, "split": split}
    c["ref"] = _cli_outputs(d, "ref")
    return c


def _size(case, name: str) -> int:
    n = case["trace"].n
    return {"n-1": n - 1, "n": n, "n+1": n + 1, "split": case["split"]}.get(
        name) or int(name)


def _patch(monkeypatch, rows: int) -> None:
    monkeypatch.setattr(io, "_BLOCK_ROWS", rows)
    monkeypatch.setattr(lookup, "_BLOCK_ROWS", rows)
    monkeypatch.setattr(estimator, "_FFT_SAMPLES", rows)
    monkeypatch.setattr(estimator, "_BLOCK_ROWS", rows)


def _cli_outputs(d, tag: str) -> dict:
    """Bytes written by wheel-load and estimate --mode lookup, with their exit codes."""
    calls = {
        "wheel-auto": ["wheel-load", "--omega", "auto"],
        "wheel-fixed": ["wheel-load", "--omega", "40"],
        "lookup": ["estimate", "--mode", "lookup", "--omega", "auto"],
        "lookup-fixed": ["estimate", "--mode", "lookup", "--omega", "40"],
    }
    out = {}
    for name, argv in calls.items():
        path = d / f"{tag}-{name}.csv"
        code = cli.main(argv + ["--preset", "mining-truck", "--trace",
                                str(d / "trace.csv"), "--table",
                                str(d / "truck.hplt"), "--out", str(path)])
        out[name] = (code, path.read_bytes())
    path = d / f"{tag}-iterative.csv"
    code = cli.main(["estimate", "--mode", "iterative", "--preset", "bench-prototype",
                     "--trace", str(d / "bench.csv"), "--out", str(path)])
    out["iterative"] = (code, path.read_bytes())
    return out


@pytest.mark.parametrize("size", SIZES)
def test_cli_files_equal_unpatched_bytes(case, monkeypatch, capsys, size):
    _patch(monkeypatch, _size(case, size))
    got = _cli_outputs(case["dir"], f"s{size}")
    capsys.readouterr()
    for name, (code, data) in case["ref"].items():
        assert got[name][0] == code == 0, name
        assert got[name][1] == data, name


@pytest.mark.parametrize("failure", ["no-fork", "reader-killed", "writer-killed"])
def test_cli_files_equal_unpatched_bytes_when_workers_fail(case, monkeypatch, capsys,
                                                           failure):
    # At 500-row blocks each call forks once to read and once to write; the
    # parent does every range a child did not deliver.
    _patch(monkeypatch, 500)
    monkeypatch.setattr(io, "_cpu_count", lambda: 2)
    parent, real_fork, forks = os.getpid(), os.fork, []

    def fork():
        forks.append(1)
        if failure == "no-fork":  # what a process limit returns
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real_fork()
    monkeypatch.setattr(io.os, "fork", fork)
    if failure != "no-fork":
        name = "_parse" if failure == "reader-killed" else "_format_rows"
        real = getattr(io, name)

        def killed(*args):
            if os.getpid() != parent:  # the child dies; the parent's redo does not
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args)
        monkeypatch.setattr(io, name, killed)
    got = _cli_outputs(case["dir"], failure)
    capsys.readouterr()
    assert len(forks) == 2 * len(case["ref"])
    for name, (code, data) in case["ref"].items():
        assert got[name][0] == code == 0, name
        assert got[name][1] == data, name
    with pytest.raises(ChildProcessError):  # every child waited for
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("omega", ["auto", 2 * math.pi * 5.5])
def test_series_estimate_and_stats_equal(case, monkeypatch, size, omega):
    trace, table = case["trace"], case["table"]
    ref = lookup.estimate_series(trace, table, omega=omega)
    ref_stats = ref.stats  # counted on first access: here, unpatched
    _patch(monkeypatch, _size(case, size))
    est = lookup.estimate_series(trace, table, omega=omega)
    assert np.array_equal(est.h, ref.h) and np.array_equal(est.omega, ref.omega)
    for name in ("v", "f_out", "h"):
        assert np.array_equal(getattr(est.rows(), name), getattr(ref.rows(), name)), name
    assert est.stats == ref_stats
    assert est.stats.n_queries == trace.n


def _row_ranges(est, block: int) -> list:
    """Row ranges that start, end or cross a run start or a block boundary."""
    n = est.n
    ranges = [(0, 1), (0, 2), (n - 1, n), (0, n)]
    for edge in est.run_starts[1:4].tolist() + [block, 2 * block]:
        for lo, hi in ((edge - 1, edge + 1), (edge, edge + 1), (edge - 3, edge + block + 2)):
            if 0 <= lo < hi <= n:
                ranges.append((lo, hi))
    return ranges


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("omega", ["auto", 2 * math.pi * 5.5])
def test_row_ranges_equal_whole_trace(case, monkeypatch, truck, size, omega):
    trace, table = case["trace"], case["table"]
    ref = wheel.estimate_wheel_load_series(trace, table, truck.linkage, omega=omega)
    ref_est, ref_rows = ref.est.rows(), ref.rows()
    block = _size(case, size)
    _patch(monkeypatch, block)
    series = wheel.estimate_wheel_load_series(trace, table, truck.linkage, omega=omega)
    ranges = _row_ranges(series.est, block)
    starts = series.est.run_starts[1:]
    assert (omega == "auto") == any(lo < s < hi for lo, hi in ranges for s in starts)
    for lo, hi in ranges:
        got = series.est.rows(lo, hi)
        for name in ("f_out", "v", "h"):
            assert np.array_equal(getattr(got, name),
                                  getattr(ref_est, name)[lo:hi]), (lo, hi, name)
        got = series.rows(lo, hi)
        for name in got._fields:
            assert np.array_equal(getattr(got, name),
                                  getattr(ref_rows, name)[lo:hi]), (lo, hi, name)


def _heavy_link(truck):
    """A heavy tire without gravity: it lifts off wherever it accelerates upward."""
    return dataclasses.replace(truck.linkage, m_u=1.0e5, m_t=1.0e5, g=0.0)


@pytest.mark.parametrize("size", SIZES)
def test_wheel_load_and_liftoff_count_equal(case, monkeypatch, truck, tmp_path, size):
    args = (case["trace"], case["table"], _heavy_link(truck))
    ref = wheel.estimate_wheel_load_series(*args).rows()
    truth = ref.f_tire * 1.01 + 3.0e3  # an error on every row
    ref_count = np.count_nonzero(ref.f_tire < 0.0)
    _patch(monkeypatch, _size(case, size))
    with warnings.catch_warnings():
        warnings.simplefilter("error", wheel.WheelLiftoffWarning)  # warned after the write
        series = wheel.estimate_wheel_load_series(*args)
    path = tmp_path / "wheel.csv"
    for cpus in (1, 2, 3, 4):
        monkeypatch.setattr(io, "_cpu_count", lambda cpus=cpus: cpus)
        count, sse = io.write_wheel_load_csv(path, series, truth)
        assert count == ref_count > 0, cpus
        assert sse == pytest.approx(metrics.sse(ref.f_tire, truth), rel=1e-12, abs=0.0), cpus
        assert io.write_wheel_load_csv(path, series, None) == (count, None), cpus


def test_wheel_load_command_counts_liftoff_after_the_write(case, monkeypatch, capsys,
                                                           tmp_path):
    kept, estimate = [], wheel.estimate_wheel_load_series
    monkeypatch.setattr(wheel, "estimate_wheel_load_series",
                        lambda *a, **kw: kept.append(estimate(*a, **kw)) or kept[-1])
    cfg = tmp_path / "heavy.cfg"  # the linkage of _heavy_link
    cfg.write_text("preset = mining-truck\nlinkage.m_u_kg = 1e5\n"
                   "linkage.m_t_kg = 1e5\nlinkage.g_mps2 = 0\n")
    out = tmp_path / "wheel.csv"
    with pytest.warns(wheel.WheelLiftoffWarning) as warned:
        assert cli.main(["wheel-load", "--config", str(cfg), "--trace",
                         str(case["dir"] / "trace.csv"), "--table",
                         str(case["dir"] / "truck.hplt"), "--out", str(out)]) == 0
    count = int(np.loadtxt(out, delimiter=",", skiprows=1, usecols=10).sum())
    assert kept[0].liftoff_count == count > 0
    assert [str(w.message) for w in warned] == [
        f"wheel load negative at {count} sample(s): liftoff"]
    assert f"{count} liftoff sample(s)" in capsys.readouterr().out


@pytest.mark.parametrize("size", SIZES)
def test_truth_sums_of_squares_equal(case, monkeypatch, tmp_path, size):
    trace, table = case["trace"], case["table"]
    bench, _ = io.read_trace_csv(case["dir"] / "bench.csv")
    bd = estimator.run(bench, config.bench_prototype())
    ref = {"lookup": lookup.estimate_series(trace, table).rows().f_out,
           "iterative": bd.rows().f_out}
    truth = {k: np.sin(np.arange(f.size)) * 1e3 + f for k, f in ref.items()}
    _patch(monkeypatch, _size(case, size))
    est = lookup.estimate_series(trace, table)
    for cpus in (1, 2, 3, 4):
        monkeypatch.setattr(io, "_cpu_count", lambda cpus=cpus: cpus)
        got = {"lookup": io.write_lookup_csv(tmp_path / "l.csv", trace, est,
                                             truth["lookup"]),
               "iterative": io.write_breakdown_csv(tmp_path / "i.csv", bench, bd,
                                                   truth["iterative"])}
        for k, f in ref.items():
            assert got[k] == pytest.approx(metrics.sse(f, truth[k]), rel=1e-12,
                                           abs=0.0), (k, cpus)
        assert io.write_lookup_csv(tmp_path / "l.csv", trace, est, None) is None
        assert io.write_breakdown_csv(tmp_path / "i.csv", bench, bd, None) is None


@pytest.mark.parametrize("size", SIZES)
def test_iterative_channels_and_cavitation_count_equal(case, monkeypatch, size):
    trace, _ = io.read_trace_csv(case["dir"] / "bench.csv")
    cfg = config.bench_prototype()
    ref = estimator.run(trace, cfg)
    ref_f_out, ref_count = ref.rows().f_out, ref.cavitation_count
    block = _size(case, size)
    _patch(monkeypatch, block)
    bd = estimator.run(trace, cfg)
    f_out = np.concatenate([bd.rows(lo, lo + block).f_out
                            for lo in range(0, trace.n, block)])
    assert np.array_equal(f_out, ref_f_out)
    assert bd.cavitation_count == ref_count > 0


def _count_rows(monkeypatch, module, name: str, arg: int) -> list:
    """Patch module.name to record (address, length) of its argument `arg`."""
    calls, real = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append((args[arg].ctypes.data, args[arg].size))
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


def _per_row(calls, n: int) -> np.ndarray:
    """How often each row was passed, for calls on slices of one float array from row 0."""
    base = min(address for address, _ in calls)
    counts = np.zeros(n, dtype=int)
    for address, size in calls:
        lo = (address - base) // 8
        counts[lo:lo + size] += 1
    return counts


@pytest.mark.parametrize("chunk", [None, 1000])
def test_each_command_computes_each_row_once_per_pass(case, monkeypatch, capsys,
                                                      tmp_path, chunk):
    n = case["trace"].n
    monkeypatch.setattr(io, "_cpu_count", lambda: 1)  # every row in this process
    if chunk:
        monkeypatch.setattr(io, "_BLOCK_ROWS", chunk)
    common = ["--trace", str(case["dir"] / "trace.csv"), "--table",
              str(case["dir"] / "truck.hplt"), "--preset", "mining-truck",
              "--out", str(tmp_path / "out.csv")]

    queries = _count_rows(monkeypatch, lookup, "_interpolate", 2)
    loads = _count_rows(monkeypatch, wheel, "wheel_load", 0)
    assert cli.main(["wheel-load"] + common) == 0
    # the h pass and the write; a written block after the first also
    # queries the row before it, for its first a_sus difference
    want = np.full(n, 2)
    if chunk:
        want[chunk - 1::chunk] += 1
    assert np.array_equal(_per_row(queries, n), want)
    assert sum(size for _, size in loads) == n

    queries.clear()
    assert cli.main(["estimate", "--mode", "lookup"] + common) == 0
    assert np.array_equal(_per_row(queries, n), np.ones(n))

    chains = _count_rows(monkeypatch, core, "force_chain", 0)
    bench, _ = io.read_trace_csv(case["dir"] / "bench.csv")
    assert cli.main(["estimate", "--preset", "bench-prototype", "--trace",
                     str(case["dir"] / "bench.csv"), "--out",
                     str(tmp_path / "bd.csv")]) == 0
    assert np.array_equal(_per_row(chains, bench.n), np.ones(bench.n))
    capsys.readouterr()


def test_iterative_memory_per_added_sample(tmp_path):
    # The chain runs in row blocks, so the peak grows only with the peak
    # search's working arrays, ~20.5 B per sample: the mean-removed copy
    # (8), the column transform (8.5 at 108 001 = 17 * 6353) and the
    # magnitudes (4). Measured 12.7 per sample added between these
    # lengths (at 36 001 the writer's blocks set the peak); 110 when the
    # whole-trace channels were held. 24 leaves 15 % over those arrays.
    cfg = config.bench_prototype()
    peaks = {}
    for n in (36001, 108001):
        exc = oracle.Excitation(kind="linear-sweep", amplitudes=(6.0e-3,),
                                frequencies=(3.0, 8.0), duration=(n - 1) * DT)
        trace = oracle.simulate_suspension(exc, cfg, DT).to_pressure_trace()
        assert trace.n == n
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            bd = estimator.run(trace, cfg)
            io.write_breakdown_csv(tmp_path / "bd.csv", trace, bd, None)
            peaks[n] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert (peaks[108001] - peaks[36001]) / (108001 - 36001) < 24


def test_wheel_load_memory_per_added_sample(case, truck, tmp_path):
    # The lookup rows and the kinematic chain are computed per row block,
    # so the one whole-trace array built is h, for the travel reference's
    # mean: 8 B per sample. At these lengths the writer's blocks (~1.8 MB)
    # set the peak at both, and the growth measured is ~0 (-1.7 B per added
    # sample); 5.3 between 36 001 and 360 001 samples, where h shows. 30-32
    # when the lookup estimate held its whole-trace outputs. 12 leaves 50 %
    # over h.
    cfg = truck.suspension
    n_eff = core.effective_polytropic_index(2 * math.pi * 5.5, cfg.charge, cfg.fluid)
    offset = oracle.static_gas_offset(cfg, truck.table.static_force_n, n_eff)
    peaks = {}
    for n in (36001, 108001):
        exc = oracle.Excitation(kind="linear-sweep", amplitudes=(3.0e-3,),
                                frequencies=(3.0, 8.0), duration=(n - 1) * DT,
                                offset=offset)
        trace = oracle.simulate_suspension(exc, cfg, DT).to_pressure_trace()
        assert trace.n == n
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            series = wheel.estimate_wheel_load_series(trace, case["table"],
                                                      truck.linkage)
            io.write_wheel_load_csv(tmp_path / "wheel.csv", series, None)
            peaks[n] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert (peaks[108001] - peaks[36001]) / (108001 - 36001) < 12


def _read_error(path) -> str:
    with pytest.raises(io.CsvFormatError) as info:
        io.read_trace_csv(path)
    return str(info.value)


@pytest.mark.parametrize("size", ["1", "2", "7"])
@pytest.mark.parametrize("bad, expected", [(b"oops", "bad.csv:41: non-numeric field"),
                                           (b"1\xff", "bad.csv: not UTF-8 text")])
def test_bad_field_in_later_chunk_reports_as_unpatched(case, monkeypatch, capsys,
                                                       tmp_path, size, bad, expected):
    lines = (case["dir"] / "trace.csv").read_bytes().split(b"\r\n")
    fields = lines[40].split(b",")
    lines[40] = b",".join(fields[:1] + [bad] + fields[2:])
    path = tmp_path / "bad.csv"
    path.write_bytes(b"\r\n".join(lines))
    argv = ["estimate", "--trace", str(path), "--out", str(tmp_path / "o.csv")]
    message, code = _read_error(path), cli.main(argv)
    ref_err = capsys.readouterr().err
    assert code == 3 and expected in message
    _patch(monkeypatch, _size(case, size))
    assert _read_error(path) == message
    assert cli.main(argv) == code
    assert capsys.readouterr().err == ref_err


def test_wheel_load_series_runs_no_chain_before_its_rows(case, monkeypatch, truck):
    # the series builds h for its mean only: arm angle and ratio wait for rows()
    calls = []
    for name in ("lower_arm_angle", "suspension_ratio"):
        real = getattr(wheel, name)
        monkeypatch.setattr(wheel, name, lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    series = wheel.estimate_wheel_load_series(case["trace"], case["table"], truck.linkage)
    assert calls == []
    series.rows(0, 10)
    assert calls == ["lower_arm_angle", "suspension_ratio"]


def test_singular_sample_in_last_block_raises_before_output(case, monkeypatch,
                                                            capsys, truck, tmp_path):
    # A level trace whose last sample jumps: only that sample's travel is
    # large, and a short force arm turns it past the ratio singularity.
    table = case["table"]
    g = table.grids[0]
    p = np.full(200, 0.5 * (g.p_min + g.p_max))
    p[-1] += 0.2 * (g.p_max - g.p_min)
    trace = estimator.PressureTrace(dt=DT, samples=p)
    series = wheel.estimate_wheel_load_series(trace, table, truck.linkage,
                                              omega=g.omega)
    h_sus = series.rows().h_sus
    assert np.all(np.abs(h_sus[:-1]) < 0.01 * h_sus[-1])
    l_eff = float(h_sus[-1]) / 2.0   # theta ~ 1.7 rad at the last sample only
    link = dataclasses.replace(truck.linkage, l_eff=l_eff)
    trace_path = tmp_path / "jump.csv"
    io._write_rows(trace_path, ["t_s", "p1_pa"], [trace.t, p])
    cfg_path = tmp_path / "short-arm.cfg"
    cfg_path.write_text(f"preset = mining-truck\nlinkage.l_eff_m = {l_eff!r}\n")
    out = tmp_path / "wheel.csv"
    _patch(monkeypatch, trace.n - 1)  # the last block holds the last sample alone

    series = wheel.estimate_wheel_load_series(trace, table, link, omega=g.omega)
    series.rows(0, trace.n - 1)  # every row but the last is regular
    with pytest.raises(wheel.GeometrySingularityError):
        series.rows()
    for cpus in (1, 2):  # the write in this process alone, or its last block forked
        monkeypatch.setattr(io, "_cpu_count", lambda cpus=cpus: cpus)
        code = cli.main(["wheel-load", "--config", str(cfg_path), "--trace",
                         str(trace_path), "--table", str(case["dir"] / "truck.hplt"),
                         "--omega", repr(g.omega), "--out", str(out)])
        assert code == 4 and "transmission ratio singular" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["jump.csv", "short-arm.cfg"]  # no out, no tmp
