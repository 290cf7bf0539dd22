"""CSV emit/ingest round trips and format validation."""

from __future__ import annotations

import csv
import os
import re
import signal
import stat
import threading
import warnings

import numpy as np
import pytest

from hpsusp import cli, core, estimator, io, lookup, metrics, oracle, wheel


@pytest.fixture(scope="module")
def trace(bench_cfg):
    exc = oracle.Excitation(kind="sinusoid", amplitudes=(5e-3,),
                            frequencies=(5.0,), duration=4.0)
    return oracle.simulate_suspension(exc, bench_cfg, dt=1.0 / 360.0)


class TestTraceRoundTrip:
    def test_pressure_and_truth_preserved(self, tmp_path, trace):
        path = tmp_path / "trace.csv"
        io.write_trace_csv(path, trace)
        back, truth = io.read_trace_csv(path)
        assert back.dt == pytest.approx(trace.dt, rel=1e-9)
        np.testing.assert_allclose(back.samples, trace.p1, rtol=1e-15)
        np.testing.assert_allclose(truth["f_out_truth_n"], trace.f_out, rtol=1e-15)
        np.testing.assert_allclose(truth["v_truth_mps"], trace.v, rtol=1e-15)
        np.testing.assert_allclose(truth["h_truth_m"], trace.h, rtol=1e-15)

    def test_header_layout(self, tmp_path, trace):
        path = tmp_path / "trace.csv"
        io.write_trace_csv(path, trace)
        with open(path, newline="") as fh:
            header = next(csv.reader(fh))
        assert header[:2] == ["t_s", "p1_pa"]
        assert "f_out_truth_n" in header


class TestTraceValidation:
    def _write(self, path, text):
        path.write_text(text)
        return path

    def test_empty_file(self, tmp_path):
        path = self._write(tmp_path / "x.csv", "")
        with pytest.raises(io.CsvFormatError):
            io.read_trace_csv(path)

    def test_wrong_leading_columns(self, tmp_path):
        path = self._write(tmp_path / "x.csv",
                           "time,pressure\n0,800000\n0.01,800100\n")
        with pytest.raises(io.CsvFormatError):
            io.read_trace_csv(path)

    def test_non_numeric_field(self, tmp_path):
        path = self._write(tmp_path / "x.csv",
                           "t_s,p1_pa\n0,800000\n0.01,oops\n")
        with pytest.raises(io.CsvFormatError):
            io.read_trace_csv(path)

    def test_ragged_row(self, tmp_path):
        path = self._write(tmp_path / "x.csv",
                           "t_s,p1_pa\n0,800000\n0.01\n")
        with pytest.raises(io.CsvFormatError):
            io.read_trace_csv(path)

    def test_single_data_row(self, tmp_path):
        path = self._write(tmp_path / "x.csv", "t_s,p1_pa\n0,800000\n")
        with pytest.raises(io.CsvFormatError):
            io.read_trace_csv(path)

    @pytest.mark.parametrize("p_bad", ["0", "-5.0", "nan", "inf"])
    def test_bad_pressure_sample(self, tmp_path, p_bad):
        path = self._write(
            tmp_path / "x.csv",
            f"t_s,p1_pa\n0,800000\n0.01,800100\n\n0.02,{p_bad}\n")
        with pytest.raises(io.CsvFormatError, match=r"x\.csv:5: pressure"):
            io.read_trace_csv(path)

    def test_non_uniform_time_base(self, tmp_path):
        path = self._write(
            tmp_path / "x.csv",
            "t_s,p1_pa\n0,800000\n0.01,800100\n0.025,800200\n0.03,800300\n")
        with pytest.raises(io.CsvFormatError):
            io.read_trace_csv(path)

    def test_non_finite_time_base(self, tmp_path):
        path = self._write(
            tmp_path / "x.csv",
            "t_s,p1_pa\n0,800000\nnan,800100\n"
            + "".join(f"{k / 100},800200\n" for k in range(2, 16)))
        with pytest.raises(io.CsvFormatError, match="not uniformly sampled"):
            io.read_trace_csv(path)


class TestOutputWriters:
    def test_rows_match_csv_writer_bytes(self, tmp_path):
        special = [0.0, -0.0, 5e-324, -2.2250738585072009e-308, 1e308,
                   -1.7976931348623157e308, 1.0 / 3.0, 1e-300, 123456789.0,
                   float("nan"), float("-inf")]
        rng = np.random.default_rng(7)
        n = 2 * core.BLOCK_ROWS + 5  # spans block boundaries
        cols = [np.resize(special, n),
                rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
                np.arange(n) / 360.0]
        header = ["a_x", "b_y", "t_s"]
        path = tmp_path / "rows.csv"
        io._write_rows(path, header, cols)
        ref = tmp_path / "ref.csv"
        with open(ref, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in zip(*cols):
                writer.writerow(["%.17g" % x for x in row])
        assert path.read_bytes() == ref.read_bytes()

    def test_lookup_csv_matches_csv_writer_bytes(self, tmp_path, trace, bench_table):
        pt = estimator.PressureTrace(dt=trace.dt, samples=trace.p1)
        est = lookup.estimate_series(pt, bench_table, omega="auto")
        path = tmp_path / "lookup.csv"
        io.write_lookup_csv(path, pt, est, None)
        rows = est.rows()
        ref = tmp_path / "ref.csv"
        with open(ref, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t_s", "f_out_n", "v_mps", "h_m"])
            for row in zip(pt.t, rows.f_out, rows.v, rows.h):
                writer.writerow(["%.17g" % x for x in row])
        assert path.read_bytes() == ref.read_bytes()
        assert path.read_bytes().count(b"\r\n") == pt.n + 1

    def test_breakdown_csv_columns(self, tmp_path, trace, bench_cfg):
        pt = estimator.PressureTrace(dt=trace.dt, samples=trace.p1)
        bd = estimator.run(pt, bench_cfg)
        path = tmp_path / "bd.csv"
        sse = io.write_breakdown_csv(path, pt, bd, trace.f_out)
        data = np.genfromtxt(path, delimiter=",", names=True)
        assert data.size == trace.p1.size
        f_out = bd.rows().f_out
        np.testing.assert_allclose(data["f_out_n"], f_out, rtol=1e-15)
        np.testing.assert_allclose(
            data["f_gas_n"] + data["f_damp_n"] + data["f_fric_n"],
            f_out, rtol=1e-12)
        assert sse == pytest.approx(metrics.sse(f_out, trace.f_out), rel=1e-12)

    def test_wheel_load_csv(self, tmp_path, ctx, truck):
        series = ctx.wheel_series
        path = tmp_path / "wheel.csv"
        count, sse = io.write_wheel_load_csv(path, series, None)
        data = np.genfromtxt(path, delimiter=",", names=True)
        f_tire = series.rows().f_tire
        assert data.size == f_tire.size
        np.testing.assert_allclose(data["f_tire_n"], f_tire, rtol=1e-15)
        assert set(np.unique(data["liftoff_flag"])) <= {0.0, 1.0}
        assert count == np.count_nonzero(data["liftoff_flag"]) and sse is None


def _reference_rows(path):
    """The csv.reader + float() parser read_trace_csv used before np.loadtxt."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(x) for x in row] for row in reader if row]
    return header, np.asarray(rows)


class TestLoadtxtIngest:
    @pytest.fixture()
    def lines(self, tmp_path, trace):
        path = tmp_path / "trace.csv"
        io.write_trace_csv(path, trace)
        return path.read_bytes().split(b"\r\n")[:-1]

    @pytest.mark.parametrize("variant", ["lf", "crlf", "blank-lines", "quoted"])
    def test_matches_reference_parser(self, tmp_path, trace, lines, variant):
        if variant == "lf":
            text = b"\n".join(lines) + b"\n"
        elif variant == "crlf":
            text = b"\r\n".join(lines) + b"\r\n"
        elif variant == "blank-lines":
            text = b"\n\n".join(lines[:50]) + b"\n\r\n" + b"\n".join(lines[50:])
        else:
            text = b"\n".join([lines[0]] + [
                b",".join(b'"' + f + b'"' for f in line.split(b","))
                for line in lines[1:]])
        path = tmp_path / f"{variant}.csv"
        path.write_bytes(text)
        header, ref = _reference_rows(path)
        back, truth = io.read_trace_csv(path)
        assert ref.shape == (trace.p1.size, len(header))
        assert np.array_equal(back.samples, ref[:, 1])
        assert back.dt == float(np.median(np.diff(ref[:, 0])))
        for i, name in enumerate(header[2:], start=2):
            assert np.array_equal(truth[name], ref[:, i])

    def _write(self, path, text):
        path.write_text(text)
        return path

    def test_hash_line_is_not_a_comment(self, tmp_path):
        path = self._write(tmp_path / "x.csv",
                           "t_s,p1_pa\n0,800000\n# note\n0.01,800100\n")
        with pytest.raises(io.CsvFormatError, match=r"x\.csv:3: expected 2 fields"):
            io.read_trace_csv(path)
        path = self._write(tmp_path / "x.csv",
                           "t_s,p1_pa\n0,800000\n#0.01,800100\n")
        with pytest.raises(io.CsvFormatError, match=r"x\.csv:3: non-numeric field"):
            io.read_trace_csv(path)

    @pytest.mark.parametrize("bad, message", [
        ("0.02", "expected 3 fields"),
        ("0.02,800200,1,2", "expected 3 fields"),
        ("0.02,oops,1", "non-numeric field"),
        ("0.02,800200,1_000", "non-numeric field"),
        ("0.02,800200,", "non-numeric field"),
    ])
    def test_bad_row_names_physical_line(self, tmp_path, bad, message):
        path = self._write(
            tmp_path / "x.csv",
            f"t_s,p1_pa,h_truth_m\n0,800000,1\n\n0.01,800100,1\r\n\n{bad}\n"
            "0.03,800300,1\n")
        with pytest.raises(io.CsvFormatError, match=rf"x\.csv:6: {message}"):
            io.read_trace_csv(path)

    def test_first_row_with_wrong_width_is_ragged(self, tmp_path):
        # loadtxt only checks that rows agree with each other
        path = self._write(tmp_path / "x.csv",
                           "t_s,p1_pa,h_truth_m\n0,800000\n0.01,800100\n")
        with pytest.raises(io.CsvFormatError, match=r"x\.csv:2: expected 3 fields"):
            io.read_trace_csv(path)

    @pytest.mark.parametrize("bad, message", [("oops", "non-numeric field"),
                                              ("1_000", "non-numeric field"),
                                              (None, "expected 5 fields")])
    def test_dropped_column_is_still_checked(self, tmp_path, capsys, lines, bad,
                                             message):
        # row 40 is bad in v_truth_mps, a column neither command keeps
        fields = lines[40].split(b",")
        assert len(fields) == 5
        fields[3:4] = [] if bad is None else [bad.encode()]
        lines[40] = b",".join(fields)
        path = tmp_path / "x.csv"
        path.write_bytes(b"\r\n".join(lines) + b"\r\n")
        expected = rf"x\.csv:41: {message}"
        for keep in (None, ("f_out_truth_n",), ("f_tire_truth_n",), ()):
            with pytest.raises(io.CsvFormatError, match=expected):
                io.read_trace_csv(path, truth_columns=keep)
        for argv in (["estimate"], ["wheel-load", "--table", "unread.hplt"]):
            code = cli.main(argv + ["--trace", str(path),
                                    "--out", str(tmp_path / "out.csv")])
            assert code == 3
            assert re.search(expected, capsys.readouterr().err)

    def test_keeps_only_the_named_truth_columns(self, tmp_path, lines):
        path = tmp_path / "x.csv"
        path.write_bytes(b"\r\n".join(lines))
        ref, truth = io.read_trace_csv(path)
        for keep in (("v_truth_mps",), ("h_truth_m", "f_tire_truth_n"), ()):
            back, kept = io.read_trace_csv(path, truth_columns=keep)
            assert sorted(kept) == sorted(set(keep) & set(truth))
            for name in kept:
                assert np.array_equal(kept[name], truth[name])
            assert back.dt == ref.dt
            assert np.array_equal(back.samples, ref.samples)

    @pytest.mark.parametrize("n_steps", [30, 31, 1000, 1001])
    def test_time_step_is_median_of_steps(self, tmp_path, n_steps):
        # jittered steps: for an even count dt is the mean of the two middle ones
        rng = np.random.default_rng(n_steps)
        steps = (1.0 + 1e-7 * rng.standard_normal(n_steps)) / 360.0
        t = np.concatenate(([0.0], np.cumsum(steps)))
        path = tmp_path / "x.csv"
        io._write_rows(path, ["t_s", "p1_pa"], [t, np.full(t.size, 8.0e5)])
        dt = float(np.median(np.diff(t)))
        assert io.read_trace_csv(path)[0].dt == dt
        assert (dt in np.diff(t)) == (n_steps % 2 == 1)

    @pytest.mark.parametrize("rows", [1, 2, 15, 16])
    def test_fewer_rows_than_a_trace_holds_is_format_error(self, tmp_path, rows):
        t = np.arange(rows) / 360.0
        path = tmp_path / "x.csv"
        io._write_rows(path, ["t_s", "p1_pa"], [t, np.full(rows, 8.0e5)])
        if rows < estimator.MIN_TRACE_LEN:
            with pytest.raises(io.CsvFormatError,
                               match=f"{re.escape(str(path))}: need at least 16 data rows"):
                io.read_trace_csv(path)
        else:
            assert io.read_trace_csv(path)[0].n == rows

    @pytest.mark.parametrize("text", ["t_s,p1_pa\n", "t_s,p1_pa\n\n\n"])
    def test_header_only_raises_without_warning(self, tmp_path, text):
        path = self._write(tmp_path / "x.csv", text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(io.CsvFormatError,
                               match="need at least 16 data rows"):
                io.read_trace_csv(path)


def _reference_bytes(path, header, cols):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*cols):
            writer.writerow(["%.17g" % x for x in row])
    return path.read_bytes()


class TestParallelEmit:
    CHUNK = 5

    @pytest.fixture()
    def forks(self, monkeypatch):
        calls = []
        real_fork = os.fork

        def fork():
            calls.append(1)
            return real_fork()

        monkeypatch.setattr(core, "BLOCK_ROWS", self.CHUNK)
        monkeypatch.setattr(io, "_FORMAT_ROWS", 2)
        monkeypatch.setattr(io.os, "fork", fork)
        return calls

    @pytest.mark.parametrize("n", [0, 1, 4, 5, 6, 9, 10, 11, 14, 15, 16, 23])
    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    def test_bytes_match_serial_reference(self, tmp_path, monkeypatch, forks,
                                          n, cpus):
        monkeypatch.setattr(io, "_cpu_count", lambda: cpus)
        rng = np.random.default_rng(n)
        cols = [rng.standard_normal(n) * 1e3, -np.arange(n) / 7.0,
                np.full(n, np.nan)]
        header = ["a_x", "b_y", "c_z"]
        path = tmp_path / "rows.csv"
        io._write_rows(path, header, cols)
        ref = _reference_bytes(tmp_path / "ref.csv", header, cols)
        assert path.read_bytes() == ref
        assert len(forks) == max(min(cpus, -(-n // self.CHUNK)) - 1, 0)

    @pytest.mark.parametrize("n", [1, 5, 6, 14, 23])
    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    def test_tally_sums_over_every_worker(self, tmp_path, monkeypatch, forks, n, cpus):
        monkeypatch.setattr(io, "_cpu_count", lambda: cpus)
        x = np.arange(n) - 7.5

        def rows(lo, hi):
            return [x[lo:hi]], (np.count_nonzero(x[lo:hi] < 0.0), float(np.sum(x[lo:hi] ** 2)))
        total = io._write_row_blocks(tmp_path / "rows.csv", ["a_x"], n, rows)
        assert total.tolist() == [np.count_nonzero(x < 0.0), float(np.sum(x ** 2))]
        assert len(forks) == min(cpus, -(-n // self.CHUNK)) - 1

    @pytest.mark.parametrize("cpus", [2, 4])
    def test_tally_free_rows_return_from_forked_children(self, tmp_path, monkeypatch,
                                                         forks, cpus):
        # a child with nothing to report must still end the parent's read
        monkeypatch.setattr(io, "_cpu_count", lambda: cpus)

        def hang(signum, frame):
            raise TimeoutError("the writer did not return")
        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(30)
        cols = [np.arange(23) / 3.0]
        try:
            io._write_rows(tmp_path / "rows.csv", ["a_x"], cols)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert len(forks) == cpus - 1
        assert (tmp_path / "rows.csv").read_bytes() == _reference_bytes(
            tmp_path / "ref.csv", ["a_x"], cols)

    def test_serial_without_fork(self, tmp_path, monkeypatch):
        monkeypatch.setattr(core, "BLOCK_ROWS", self.CHUNK)
        monkeypatch.setattr(io, "_cpu_count", lambda: 4)
        monkeypatch.delattr(io.os, "fork")
        cols = [np.arange(23) / 3.0, np.arange(23) * -1e-300]
        path = tmp_path / "rows.csv"
        io._write_rows(path, ["a_x", "b_y"], cols)
        assert path.read_bytes() == _reference_bytes(tmp_path / "ref.csv",
                                                     ["a_x", "b_y"], cols)

    def _fail_in_children(self, monkeypatch):
        monkeypatch.setattr(io, "_cpu_count", lambda: 3)
        real_format = io._format_rows

        def format_rows(fh, columns, lo, hi):
            if lo > 0:  # the later ranges: each child's, then this process's redo
                raise RuntimeError("formatter failed")
            return real_format(fh, columns, lo, hi)

        monkeypatch.setattr(io, "_format_rows", format_rows)

    def test_failing_child_raises(self, tmp_path, monkeypatch, forks):
        # the parent formats rows 10..19 again and meets the serial run's error
        self._fail_in_children(monkeypatch)
        cols = [np.arange(30) / 3.0]
        with pytest.raises(RuntimeError, match="formatter failed"):
            io._write_rows(tmp_path / "rows.csv", ["a_x"], cols)
        assert len(forks) == 2
        assert os.listdir(tmp_path) == []  # no partial output, no temporary file

    def test_failing_child_leaves_existing_output(self, tmp_path, monkeypatch, forks):
        self._fail_in_children(monkeypatch)
        out = tmp_path / "rows.csv"
        out.write_bytes(b"kept\r\n")
        with pytest.raises(RuntimeError, match="formatter failed"):
            io._write_rows(out, ["a_x"], [np.arange(30) / 3.0])
        assert os.listdir(tmp_path) == ["rows.csv"] and out.read_bytes() == b"kept\r\n"

    def test_symlink_and_pipe_are_written_through(self, tmp_path):
        target = tmp_path / "target.csv"
        target.write_bytes(b"old\r\n")
        (tmp_path / "link.csv").symlink_to(target)
        io._write_rows(tmp_path / "link.csv", ["a_x"], [np.arange(3.0)])
        assert (tmp_path / "link.csv").is_symlink()
        assert target.read_bytes() == b"a_x\r\n0\r\n1\r\n2\r\n"
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        io._write_rows(fifo, ["a_x"], [np.arange(3.0)])
        reader.join(timeout=30)
        assert got == [b"a_x\r\n0\r\n1\r\n2\r\n"] and stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert sorted(os.listdir(tmp_path)) == ["link.csv", "pipe", "target.csv"]

    def test_existing_output_keeps_its_mode(self, tmp_path):
        out = tmp_path / "rows.csv"
        for mode in (0o600, 0o640, 0o755):
            out.write_bytes(b"old\r\n")
            os.chmod(out, mode)
            io._write_rows(out, ["a_x"], [np.arange(3.0)])
            assert stat.S_IMODE(os.stat(out).st_mode) == mode
            assert out.read_bytes() == b"a_x\r\n0\r\n1\r\n2\r\n"

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_failing_row_source_leaves_no_output(self, tmp_path, monkeypatch, forks, cpus):
        monkeypatch.setattr(io, "_cpu_count", lambda: cpus)

        def rows(lo, hi):
            if lo >= self.CHUNK:  # the second block and later
                raise RuntimeError("row source failed")
            return [np.arange(lo, hi) / 3.0], ()
        out = tmp_path / "rows.csv"
        with pytest.raises((RuntimeError, OSError)):
            io._write_row_blocks(out, ["a_x"], 30, rows)
        assert os.listdir(tmp_path) == []
        out.write_bytes(b"kept\r\n")
        with pytest.raises((RuntimeError, OSError)):
            io._write_row_blocks(out, ["a_x"], 30, rows)
        assert os.listdir(tmp_path) == ["rows.csv"] and out.read_bytes() == b"kept\r\n"


@pytest.mark.parametrize("blob", [
    b"t_s,p1_\xffpa\n0,1e6\n0.1,1e6\n",             # in the header
    b"t_s,p1_pa\n0,1e6\n0.1,1e6\n0.2,1\xff\n",       # in a data row
])
def test_non_utf8_trace_raises_format_error(tmp_path, blob):
    path = tmp_path / "bytes.csv"
    path.write_bytes(blob)
    with pytest.raises(io.CsvFormatError, match=re.escape(f"{path}: not UTF-8 text")):
        io.read_trace_csv(path)


def _g17_rows(block) -> bytes:
    """The reference CSV text: each value as '%.17g' % value, rows ending in CRLF."""
    rows, cols = np.shape(block)
    row = ",".join(["%.17g"] * cols) + "\r\n"
    return ((row * rows) % tuple(np.ravel(block).tolist())).encode()


def _assert_text_equal(values, cols=1, rows=256):
    """_csv_text of `values` laid out in blocks of rows x cols equals the reference."""
    values = np.asarray(values)
    values = values[:values.size - values.size % cols].reshape(-1, cols)
    for lo in range(0, len(values), rows):
        block = values[lo:lo + rows]
        got, want = io._csv_text(block).tobytes(), _g17_rows(block)
        if got != want:
            for g, w, v in zip(got.split(b"\r\n"), want.split(b"\r\n"), block.tolist()):
                assert g == w, v


class TestCsvText:
    """The vectorised %.17g against Python's, byte for byte (~1.0 million values)."""

    def test_random_bit_patterns(self):
        # every exponent, subnormals, both zeros, infinities and NaNs
        rng = np.random.default_rng(17)
        bits = rng.integers(0, 2 ** 64, 2 ** 17, dtype=np.uint64, endpoint=False)
        bits[:64] = [0, 1 << 63, 0x7FF << 52, 0xFFF << 52, (0x7FF << 52) | 1, 1, 2 ** 52 - 1,
                     (1 << 63) | 1] * 8
        _assert_text_equal(bits.view(np.float64), cols=8)

    def test_fixed_notation_range(self):
        # random 53-bit mantissas at every exponent %.17g writes without "e"
        rng = np.random.default_rng(18)
        n = 650_000
        x = rng.uniform(1.0, 10.0, n) * 10.0 ** rng.integers(-6, 18, n)
        x[rng.random(n) < 0.5] *= -1.0
        _assert_text_equal(x, cols=11)

    def test_ties_and_near_ties(self):
        # 1 + j * 2**-17 has 18 significant digits: odd j is a tie at 17
        j = np.arange(1, 2 ** 17, 13)
        x = (1.0 + j * 2.0 ** -17)[:, None] * 10.0 ** np.arange(-5, 17)
        assert "%.17g" % (1 + 2 ** -17) == "1.0000076293945312"
        _assert_text_equal(x.ravel(), cols=10)

    def test_powers_of_ten_and_edges(self):
        p = 10.0 ** np.arange(-6, 19)
        edges = np.array([1e-4, 9.9999999999999991e-05, 9.9999999999999995e-05, 1e16,
                          9999999999999998.0, 1e16 + 2.0, 99999999999999984.0, 1e17,
                          0.5, 1.0, 100.0, 3600.0, 1e15, 123456789012345678.0])
        x = np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf), edges])
        _assert_text_equal(np.concatenate([x, -x]), cols=3)

    def test_float32_and_small_blocks(self):
        rng = np.random.default_rng(19)
        x = (rng.standard_normal(3000) * 10.0 ** rng.integers(-5, 12, 3000)).astype(np.float32)
        _assert_text_equal(x, cols=6)
        for shape in [(1, 1), (1, 11), (7, 1)]:
            block = rng.standard_normal(shape) * 1e3
            assert io._csv_text(block).tobytes() == _g17_rows(block)
        assert io._csv_text(np.empty((0, 3))).tobytes() == b""

    def test_every_block_size_to_twice_the_kernel_threshold(self):
        # blocks under io._KERNEL_VALUES values are written by '%.17g', the rest
        # by the kernel; one column gives every size, 11 a row of the wheel-load CSV
        rng = np.random.default_rng(20)
        pool = np.concatenate([
            rng.uniform(1.0, 10.0, 4096) * 10.0 ** rng.integers(-6, 18, 4096),
            rng.integers(0, 2 ** 64, 512, dtype=np.uint64, endpoint=False).view(np.float64),
            [0.0, -0.0, np.inf, -np.inf, np.nan]])
        for cols in (1, 11):
            for rows in range(1, 2 * io._KERNEL_VALUES // cols + 1):
                block = rng.choice(pool, (rows, cols)) * rng.choice([-1.0, 1.0], (rows, cols))
                assert io._csv_text(block).tobytes() == _g17_rows(block), (rows, cols)


def _line_spans(data: bytes) -> list:
    """(offset just past each line end, line ends before it), as the text reader splits."""
    return [(m.end(), k + 1) for k, m in enumerate(re.finditer(rb"\r\n|\r|\n", data))]


class TestSplitIngest:
    """The two-process trace read returns the serial read's columns and errors."""

    @pytest.fixture()
    def lines(self, trace):
        t = trace.t[:40]
        rows = [b"%r,%r,%r" % (float(t[i]), float(trace.p1[i]), float(trace.h[i]))
                for i in range(t.size)]
        return [b"t_s,p1_pa,h_truth_m"] + rows

    @staticmethod
    def _variants(lines):
        return {"lf": b"\n".join(lines) + b"\n",
                "crlf": b"\r\n".join(lines),
                "cr": b"\r".join(lines) + b"\r",
                "blank-lines": b"\r\n\r\n".join(lines[:9]) + b"\n\n" + b"\r".join(lines[9:])}

    @pytest.mark.parametrize("variant", ["lf", "crlf", "cr", "blank-lines"])
    def test_every_split_gives_the_serial_columns(self, tmp_path, monkeypatch, lines,
                                                  variant):
        data = self._variants(lines)[variant]
        path = tmp_path / f"{variant}.csv"
        path.write_bytes(data)
        monkeypatch.setattr(core, "BLOCK_ROWS", 4)
        monkeypatch.setattr(io, "_cpu_count", lambda: 1)
        ref, ref_truth = io.read_trace_csv(path)
        monkeypatch.setattr(io, "_cpu_count", lambda: 2)
        bound = io._scan_lines(path)[0]
        assert bound == len(_line_spans(data)) + 1  # a CRLF is one line end
        spans = _line_spans(data)[1:-1]
        assert len(spans) > 35
        for split, ends in spans:
            monkeypatch.setattr(io, "_scan_lines", lambda p, s=split, e=ends: (bound, s, e))
            back, truth = io.read_trace_csv(path)
            assert back.dt == ref.dt and back.n == ref.n == 40, split
            assert np.array_equal(back.samples, ref.samples), split
            assert np.array_equal(truth["h_truth_m"], ref_truth["h_truth_m"]), split

    @pytest.mark.parametrize("variant", ["lf", "crlf", "cr"])
    def test_bad_step_at_every_split_reports_as_serial(self, tmp_path, monkeypatch, trace,
                                                       lines, variant):
        k = 20  # every time from row k on is late by 1e-3 dt: only the step k-1 -> k is off
        for i in range(k, 40):
            fields = lines[i + 1].split(b",")
            lines[i + 1] = b",".join([b"%r" % float(trace.t[i] + 1e-3 * trace.dt)] + fields[1:])
        data = self._variants(lines)[variant]
        path = tmp_path / f"{variant}.csv"
        path.write_bytes(data)
        monkeypatch.setattr(core, "BLOCK_ROWS", 4)
        monkeypatch.setattr(io, "_cpu_count", lambda: 1)
        with pytest.raises(io.CsvFormatError, match="time column is not uniformly sampled") as serial:
            io.read_trace_csv(path)
        monkeypatch.setattr(io, "_cpu_count", lambda: 2)
        bound = io._scan_lines(path)[0]
        for split, ends in _line_spans(data)[1:-1]:
            monkeypatch.setattr(io, "_scan_lines", lambda p, s=split, e=ends: (bound, s, e))
            with pytest.raises(io.CsvFormatError) as info:
                io.read_trace_csv(path)
            assert str(info.value) == str(serial.value), split

    @pytest.mark.parametrize("scan_bytes", [1, 2, 3, 5, 64, 1 << 20])
    @pytest.mark.parametrize("variant", ["lf", "crlf", "cr", "blank-lines"])
    def test_scan_finds_the_first_line_end_past_the_middle(self, tmp_path, monkeypatch,
                                                           lines, variant, scan_bytes):
        data = self._variants(lines)[variant]
        path = tmp_path / "x.csv"
        path.write_bytes(data)
        monkeypatch.setattr(io, "_SCAN_BYTES", scan_bytes)
        spans = _line_spans(data)
        split, ends = next((s, e) for s, e in spans if s - 1 >= len(data) // 2)
        assert io._scan_lines(path) == (len(spans) + 1, split, ends)

    @pytest.mark.parametrize("where", [5, 30, 38])
    @pytest.mark.parametrize("bad, message", [(b"oops", "non-numeric field"),
                                              (b"1,2", "expected 3 fields"),
                                              (b"-1", "pressure must be positive"),
                                              (b"1\xff", "not UTF-8 text")])
    def test_bad_row_in_either_half_reports_as_serial(self, tmp_path, monkeypatch, lines,
                                                      where, bad, message):
        fields = lines[where].split(b",")
        lines[where] = b",".join([fields[0], bad, fields[2]])
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\r\n".join(lines))
        monkeypatch.setattr(core, "BLOCK_ROWS", 4)
        errors = []
        for cpus in (1, 2):
            monkeypatch.setattr(io, "_cpu_count", lambda cpus=cpus: cpus)
            with pytest.raises(io.CsvFormatError) as info:
                io.read_trace_csv(path)
            errors.append(str(info.value))
        assert errors[0] == errors[1] and message in errors[0]
        if message != "not UTF-8 text":
            assert f"bad.csv:{where + 1}:" in errors[0]

    def test_one_cpu_reads_without_forking(self, tmp_path, monkeypatch, lines):
        path = tmp_path / "x.csv"
        path.write_bytes(b"\n".join(lines))
        monkeypatch.setattr(core, "BLOCK_ROWS", 4)
        forks, real_fork = [], os.fork
        monkeypatch.setattr(io.os, "fork", lambda: forks.append(1) or real_fork())
        monkeypatch.setattr(io, "_cpu_count", lambda: 2)  # forks whatever the host's CPUs
        split = io.read_trace_csv(path)
        assert len(forks) == 1
        monkeypatch.setattr(io, "_cpu_count", lambda: 1)
        serial = io.read_trace_csv(path)
        assert len(forks) == 1
        assert np.array_equal(serial[0].samples, split[0].samples)
        assert serial[0].dt == split[0].dt

    def test_failed_child_half_is_parsed_again(self, tmp_path, monkeypatch, lines):
        path = tmp_path / "x.csv"
        path.write_bytes(b"\n".join(lines))
        monkeypatch.setattr(core, "BLOCK_ROWS", 4)
        monkeypatch.setattr(io, "_cpu_count", lambda: 1)
        ref, ref_truth = io.read_trace_csv(path)
        monkeypatch.setattr(io, "_cpu_count", lambda: 2)
        monkeypatch.setattr(io, "_parse_tail", lambda *args: os._exit(1))
        back, truth = io.read_trace_csv(path)
        assert np.array_equal(back.samples, ref.samples) and back.dt == ref.dt
        assert np.array_equal(truth["h_truth_m"], ref_truth["h_truth_m"])


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_no_child_outlives_a_forked_stage(tmp_path, monkeypatch, trace):
    forks, real_fork = [], os.fork
    monkeypatch.setattr(io.os, "fork", lambda: forks.append(1) or real_fork())
    monkeypatch.setattr(io, "_cpu_count", lambda: 3)
    monkeypatch.setattr(core, "BLOCK_ROWS", 64)
    path = tmp_path / "trace.csv"
    io.write_trace_csv(path, trace)  # 1 441 rows: two children
    _no_child_left()
    back, _ = io.read_trace_csv(path)  # one child
    assert np.array_equal(back.samples, trace.p1)
    _no_child_left()

    def rows(lo, hi):
        if lo < 64:  # the first block of this process's own range
            raise RuntimeError("row source failed")
        return [np.arange(lo, hi) / 3.0], ()
    with pytest.raises(RuntimeError, match="row source failed"):
        io._write_row_blocks(tmp_path / "rows.csv", ["a_x"], 300, rows)  # two children
    _no_child_left()
    assert len(forks) == 5
