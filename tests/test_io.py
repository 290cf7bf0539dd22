"""CSV emit/ingest round trips and format validation."""

from __future__ import annotations

import csv

import numpy as np
import pytest

from hpsusp import estimator, io, lookup, oracle, wheel


@pytest.fixture(scope="module")
def trace(bench_cfg):
    exc = oracle.Excitation(kind="sinusoid", amplitudes=(5e-3,),
                            frequencies=(5.0,), duration=4.0)
    return oracle.simulate_suspension(exc, bench_cfg, dt=1.0 / 360.0)


class TestTraceRoundTrip:
    def test_pressure_and_truth_preserved(self, tmp_path, trace):
        path = tmp_path / "trace.csv"
        io.write_trace_csv(path, trace)
        back, truth = io.read_trace_csv(path, t0_temperature=30.0)
        assert back.dt == pytest.approx(trace.dt, rel=1e-9)
        np.testing.assert_allclose(back.samples, trace.p1, rtol=1e-15)
        np.testing.assert_allclose(truth["f_out_truth_n"], trace.f_out, rtol=1e-15)
        np.testing.assert_allclose(truth["v_truth_mps"], trace.v, rtol=1e-15)
        np.testing.assert_allclose(truth["h_truth_m"], trace.h, rtol=1e-15)

    def test_temperature_carried_to_trace(self, tmp_path, trace):
        path = tmp_path / "trace.csv"
        io.write_trace_csv(path, trace)
        back, _ = io.read_trace_csv(path, t0_temperature=50.0)
        assert back.t0_temperature == 50.0

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
            "t_s,p1_pa\n0,800000\nnan,800100\n0.02,800200\n0.03,800300\n")
        with pytest.raises(io.CsvFormatError, match="not uniformly sampled"):
            io.read_trace_csv(path)


class TestOutputWriters:
    def test_rows_match_csv_writer_bytes(self, tmp_path):
        special = [0.0, -0.0, 5e-324, -2.2250738585072009e-308, 1e308,
                   -1.7976931348623157e308, 1.0 / 3.0, 1e-300, 123456789.0,
                   float("nan"), float("-inf")]
        rng = np.random.default_rng(7)
        n = 2 * io._CHUNK_ROWS + 5  # spans chunk boundaries
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
        pt = estimator.PressureTrace(dt=trace.dt, samples=trace.p1,
                                     t0_temperature=30.0)
        est = lookup.estimate_series(pt, bench_table, omega="auto")
        path = tmp_path / "lookup.csv"
        io.write_lookup_csv(path, pt, est)
        ref = tmp_path / "ref.csv"
        with open(ref, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t_s", "f_out_n", "v_mps", "h_m"])
            for row in zip(pt.t, est.f_out, est.v, est.h):
                writer.writerow(["%.17g" % x for x in row])
        assert path.read_bytes() == ref.read_bytes()
        assert path.read_bytes().count(b"\r\n") == pt.n + 1

    def test_breakdown_csv_columns(self, tmp_path, trace, bench_cfg):
        pt = estimator.PressureTrace(dt=trace.dt, samples=trace.p1,
                                     t0_temperature=30.0)
        bd = estimator.run(pt, bench_cfg)
        path = tmp_path / "bd.csv"
        io.write_breakdown_csv(path, pt, bd)
        data = np.genfromtxt(path, delimiter=",", names=True)
        assert data.size == trace.p1.size
        np.testing.assert_allclose(data["f_out_n"], bd.f_out, rtol=1e-15)
        np.testing.assert_allclose(
            data["f_gas_n"] + data["f_damp_n"] + data["f_fric_n"],
            bd.f_out, rtol=1e-12)

    def test_wheel_load_csv(self, tmp_path, ctx, truck):
        series = ctx.wheel_series
        path = tmp_path / "wheel.csv"
        io.write_wheel_load_csv(path, 1.0 / 360.0, series)
        data = np.genfromtxt(path, delimiter=",", names=True)
        assert data.size == series.f_tire.size
        np.testing.assert_allclose(data["f_tire_n"], series.f_tire, rtol=1e-15)
        assert set(np.unique(data["liftoff_flag"])) <= {0.0, 1.0}
