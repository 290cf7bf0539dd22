"""End-to-end command-line workflows and exit-code contract."""

from __future__ import annotations

import ast
import dataclasses
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import hpsusp
from hpsusp import cli, config, lookup


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def table_file(tmp_path_factory, bench_table):
    path = tmp_path_factory.mktemp("tables") / "bench.hplt"
    lookup.save_table(bench_table, path)
    return str(path)


@pytest.fixture()
def trace_file(tmp_path, capsys):
    path = tmp_path / "trace.csv"
    code, out, _ = run_cli(capsys, "simulate", "--freq", "5", "--amp", "0.005",
                           "--out", str(path))
    assert code == 0 and "wrote" in out
    return str(path)


class TestExitCodes:
    def test_missing_subcommand_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--freq", "5", "--amp",
                             "0.005", "--out", "x.csv", "--bogus")
        assert code == 2

    def test_lookup_mode_without_table(self, capsys, trace_file, tmp_path):
        code, _, err = run_cli(capsys, "estimate", "--trace", trace_file,
                               "--mode", "lookup", "--out",
                               str(tmp_path / "o.csv"))
        assert code == 2 and "requires --table" in err

    def test_missing_trace_file_is_input_error(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "estimate", "--trace",
                             str(tmp_path / "nope.csv"),
                             "--out", str(tmp_path / "o.csv"))
        assert code == 3

    @pytest.mark.parametrize("rows", [0, 1, 2, 15])
    def test_short_trace_is_input_error(self, capsys, table_file, tmp_path, rows):
        short = tmp_path / "short.csv"
        short.write_text("t_s,p1_pa\n" + "".join(f"{i / 360.0!r},800000.0\n"
                                                 for i in range(rows)))
        for argv in (("estimate",), ("estimate", "--mode", "lookup", "--table", table_file),
                     ("wheel-load", "--table", table_file)):
            code, _, err = run_cli(capsys, *argv, "--trace", str(short),
                                   "--out", str(tmp_path / "o.csv"))
            assert code == 3 and "need at least 16 data rows" in err, argv

    @pytest.mark.parametrize("command", [("estimate", "--mode", "lookup"), ("wheel-load",)])
    @pytest.mark.parametrize("flag, error", [("--trace", "Is a directory"),
                                             ("--table", "Is a directory"),
                                             ("--out", "Is a directory"),
                                             ("--out", "Not a directory")])
    def test_path_that_is_no_file_is_input_error(self, capsys, trace_file, table_file,
                                                 tmp_path, command, flag, error):
        paths = {"--trace": trace_file, "--table": table_file,
                 "--out": str(tmp_path / "o.csv")}
        paths[flag] = str(tmp_path) if error == "Is a directory" \
            else os.path.join(trace_file, "o.csv")
        code, _, err = run_cli(capsys, *command, *(x for kv in paths.items() for x in kv))
        assert code == 3 and err.startswith("input error: ") and error in err

    def test_malformed_trace_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t_s,p1_pa\n0,800000\n0.01,not-a-number\n")
        code, _, _ = run_cli(capsys, "estimate", "--trace", str(bad),
                             "--out", str(tmp_path / "o.csv"))
        assert code == 3

    @pytest.mark.parametrize("p_bad", ["-5.0", "nan"])
    def test_bad_pressure_sample_is_input_error(self, capsys, tmp_path, p_bad):
        bad = tmp_path / "bad.csv"
        rows = [f"{i / 360.0!r},{800000.0 + 100.0 * (i % 7)!r}" for i in range(64)]
        rows[40] = f"{40 / 360.0!r},{p_bad}"
        bad.write_text("t_s,p1_pa\n" + "\n".join(rows) + "\n")
        code, _, err = run_cli(capsys, "estimate", "--trace", str(bad),
                               "--out", str(tmp_path / "o.csv"))
        assert code == 3 and "input error" in err and ":42:" in err

    def test_corrupt_table_is_input_error(self, capsys, trace_file, tmp_path,
                                          bench_table):
        replace, grids = dataclasses.replace, bench_table.grids
        tables = {
            "no grids": replace(bench_table, grids=()),
            "dt": replace(bench_table, dt=float("nan")),
            "50 x 200": replace(bench_table, grids=tuple(
                replace(g, cells=g.cells[:50], filled=g.filled[:50]) for g in grids)),
            "descending": replace(bench_table, grids=grids[::-1]),
            "axes": replace(bench_table, grids=(
                grids[0], replace(grids[1], p_min=grids[1].p_min + 1.0), *grids[2:])),
            "flat axis": replace(bench_table, grids=tuple(
                replace(g, p_max=g.p_min) for g in grids)),
        }
        blobs = {"junk": b"NOPE" + b"\x00" * 64,
                 **{name: lookup.serialize(t) for name, t in tables.items()}}
        for name, data in blobs.items():
            blob = tmp_path / "junk.hplt"
            blob.write_bytes(data)
            for argv in (("estimate", "--mode", "lookup"), ("wheel-load",)):
                code, _, err = run_cli(capsys, *argv, "--trace", trace_file,
                                       "--table", str(blob),
                                       "--out", str(tmp_path / "o.csv"))
                assert code == 3 and "input error" in err, (name, argv)

    @pytest.mark.parametrize("flag, value", [
        ("--dt", "0"), ("--dt", "-1"), ("--dt", "nan"), ("--dt", "inf"),
        ("--freq", "0"), ("--freq", "nan"), ("--duration", "nan"),
        ("--amp", "nan"), ("--amp", "inf"), ("--offset", "nan"),
    ])
    def test_bad_simulate_number_is_usage_error(self, capsys, tmp_path,
                                                 flag, value):
        argv = {"--freq": "5", "--amp": "0.005"}
        argv[flag] = value
        out = tmp_path / "x.csv"
        code, _, err = run_cli(capsys, "simulate", "--out", str(out),
                               *(x for kv in argv.items() for x in kv))
        assert code == 2 and f"usage error: {flag} must be" in err
        assert not out.exists()

    def test_overstroke_is_numerical_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", "--freq", "5", "--amp",
                               "0.2", "--out", str(tmp_path / "x.csv"))
        assert code == 4 and "numerical error" in err


class TestWorkflows:
    def test_simulate_then_estimate_iterative(self, capsys, trace_file,
                                              tmp_path):
        out = tmp_path / "breakdown.csv"
        code, text, _ = run_cli(capsys, "estimate", "--trace", trace_file,
                                "--out", str(out))
        assert code == 0
        assert "rel RMSE" in text and "R2" in text
        data = np.genfromtxt(out, delimiter=",", names=True)
        np.testing.assert_allclose(
            data["f_gas_n"] + data["f_damp_n"] + data["f_fric_n"],
            data["f_out_n"], rtol=1e-12)

    def test_simulate_then_estimate_lookup(self, capsys, trace_file,
                                           table_file, tmp_path):
        out = tmp_path / "lookup.csv"
        code, text, _ = run_cli(capsys, "estimate", "--trace", trace_file,
                                "--mode", "lookup", "--table", table_file,
                                "--omega", "auto", "--out", str(out))
        assert code == 0
        data = np.genfromtxt(out, delimiter=",", names=True)
        assert {"t_s", "f_out_n", "v_mps", "h_m"} <= set(data.dtype.names)

    def test_build_table_and_bench(self, capsys, tmp_path):
        out = tmp_path / "small.hplt"
        code, text, _ = run_cli(capsys, "build-table", "--frequencies", "3,5",
                                "--out", str(out))
        assert code == 0 and "2 grids" in text
        table = lookup.load_table(out, config.bench_prototype())
        assert table.frequencies_hz == (3.0, 5.0)

        report = tmp_path / "bench.json"
        code, text, _ = run_cli(capsys, "bench", "--table", str(out),
                                "--samples", "12000", "--repeats", "11",
                                "--json", str(report))
        assert code == 0 and "speedup" in text
        rep = json.loads(report.read_text())
        assert rep["speedup"] > 1.0

    def test_wheel_load_pipeline(self, capsys, tmp_path):
        trace = tmp_path / "truck.csv"
        code, _, _ = run_cli(capsys, "simulate", "--preset", "mining-truck",
                             "--quarter-car", "--freq", "8", "--amp", "0.002",
                             "--duration", "4", "--out", str(trace))
        assert code == 0

        table = tmp_path / "truck.hplt"
        code, _, _ = run_cli(capsys, "build-table", "--preset", "mining-truck",
                             "--frequencies", "7,8", "--out", str(table))
        assert code == 0

        out = tmp_path / "wheel.csv"
        code, text, _ = run_cli(capsys, "wheel-load", "--preset",
                                "mining-truck", "--trace", str(trace),
                                "--table", str(table), "--out", str(out))
        assert code == 0 and "rel RMSE" in text
        data = np.genfromtxt(out, delimiter=",", names=True)
        assert np.all(np.isfinite(data["f_tire_n"]))

    def test_config_file_flag(self, capsys, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        config.save_run_config(config.bench_run_config(), cfg_path)
        code, _, _ = run_cli(capsys, "simulate", "--config", str(cfg_path),
                             "--freq", "5", "--amp", "0.005",
                             "--out", str(tmp_path / "t.csv"))
        assert code == 0


def test_cli_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, hpsusp.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


_MODULE_PROBE = """
import sys
from hpsusp import cli, config
out = sys.argv[1]

def loaded():
    return ["_hashlib" in sys.modules, "numpy.ma" in sys.modules]

seen = [loaded()]
for argv in (["simulate", "--quarter-car", "--preset", "mining-truck",
              "--freq", "8", "--amp", "0.002", "--out", out + "/road.csv"],
             ["simulate", "--freq", "5", "--amp", "0.005",
              "--out", out + "/trace.csv"],
             ["estimate", "--mode", "iterative", "--trace", out + "/trace.csv",
              "--out", out + "/breakdown.csv"],
             ["build-table", "--out", out + "/bench.hplt"],
             ["wheel-load", "--trace", out + "/trace.csv",
              "--table", out + "/bench.hplt", "--out", out + "/wheel.csv"],
             ["estimate", "--mode", "lookup", "--trace", out + "/trace.csv",
              "--table", out + "/bench.hplt", "--out", out + "/lookup.csv"]):
    assert cli.main(argv) == 0, argv
    seen.append(loaded())
config.preset("bench-prototype").suspension.digest()
seen.append(loaded())
print(seen)
"""


@pytest.fixture(scope="module")
def modules_loaded(tmp_path_factory):
    """[_hashlib loaded, numpy.ma loaded] after import, each command, then digest()."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", _MODULE_PROBE,
                          str(tmp_path_factory.mktemp("probe"))],
                         env=env, capture_output=True, text=True, check=True)
    return ast.literal_eval(out.stdout.splitlines()[-1])


def test_commands_without_a_digest_load_no_openssl(modules_loaded):
    # hashlib maps OpenSSL's libcrypto (~3.5 MB RSS); the digest uses
    # CPython's own SHA-256, so no command loads it.
    # import, quarter-car simulate, simulate, iterative estimate,
    # build-table, wheel-load, lookup estimate; then digest
    assert [openssl for openssl, _ in modules_loaded] == [False] * 8


def test_trace_commands_load_no_numpy_ma(modules_loaded):
    # np.median imports numpy.ma (~1.7 MB RSS) on its first call
    assert [ma for _, ma in modules_loaded] == [False] * 8


def test_package_imports_no_scipy():
    src = os.path.dirname(hpsusp.__file__)
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] == "scipy" for m in modules), \
                (name, node.lineno)


def test_module_entry_point_warns_nothing():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-W", "default", "-m", "hpsusp.cli",
                           "--help"], env=env, capture_output=True, text=True)
    assert proc.returncode == 0 and "usage: hpsusp" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr


_WARNING_PROBE = """
import sys, warnings
from hpsusp import cli, wheel
estimate = wheel.estimate_wheel_load_series

def probe(*args, **kwargs):
    warnings.warn("probe warning", RuntimeWarning)
    return estimate(*args, **kwargs)

if sys.argv[1] == "probe":
    wheel.estimate_wheel_load_series = probe
sys.exit(cli.main(sys.argv[2:]))
"""


def test_wheel_load_warnings_reach_stderr(capsys, tmp_path):
    trace, table = tmp_path / "truck.csv", tmp_path / "truck.hplt"
    assert run_cli(capsys, "simulate", "--preset", "mining-truck", "--quarter-car",
                   "--freq", "8", "--amp", "0.002", "--duration", "4",
                   "--out", str(trace))[0] == 0
    assert run_cli(capsys, "build-table", "--preset", "mining-truck",
                   "--frequencies", "7,8", "--out", str(table))[0] == 0
    # a heavy tire without gravity lifts off wherever it accelerates upward
    cfg = tmp_path / "heavy.cfg"
    cfg.write_text("preset = mining-truck\nlinkage.m_u_kg = 1e5\n"
                   "linkage.m_t_kg = 1e5\nlinkage.g_mps2 = 0\n")
    argv = ["wheel-load", "--config", str(cfg), "--trace", str(trace),
            "--table", str(table), "--out", str(tmp_path / "wheel.csv")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    plain, probed = (subprocess.run([sys.executable, "-c", _WARNING_PROBE, mode] + argv,
                                    env=env, capture_output=True, text=True)
                     for mode in ("plain", "probe"))
    assert plain.returncode == probed.returncode == 0
    assert "RuntimeWarning: probe warning" in probed.stderr
    assert "probe warning" not in plain.stderr
    assert probed.stdout == plain.stdout
    liftoff = [line for line in plain.stdout.splitlines() if "liftoff" in line]
    assert liftoff == ["wrote " + argv[-1] + ": 1441 samples, 577 liftoff sample(s)"]
    # warned once, after the write
    assert plain.stderr.count("WheelLiftoffWarning: wheel load negative at 577 sample(s): "
                              "liftoff") == 1


class TestFlagValues:
    @pytest.mark.parametrize("argv", [
        ("estimate", "--omega", "abc"),
        ("estimate", "--omega", "nan"),
        ("estimate", "--omega", "-3"),
        ("wheel-load", "--table", "t.hplt", "--omega", "abc"),
        ("wheel-load", "--table", "t.hplt", "--omega", "0"),
    ])
    def test_bad_omega_is_usage_error(self, capsys, tmp_path, argv):
        code, _, err = run_cli(capsys, *argv, "--trace", "x.csv",
                               "--out", str(tmp_path / "o.csv"))
        assert code == 2 and "argument --omega: must be 'auto'" in err

    @pytest.mark.parametrize("freqs", ["3,x", "3,-1", "3,inf", "3,,5"])
    def test_bad_frequencies_is_usage_error(self, capsys, tmp_path, freqs):
        out = tmp_path / "t.hplt"
        code, _, err = run_cli(capsys, "build-table", "--frequencies", freqs,
                               "--out", str(out))
        assert code == 2 and "argument --frequencies: must be" in err
        assert not out.exists()

    def test_linear_sweep_writes_trace(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, text, _ = run_cli(capsys, "simulate", "--kind", "linear-sweep",
                                "--freq", "3", "--freq-end", "8", "--amp",
                                "0.005", "--out", str(out))
        assert code == 0 and "wrote 2401 samples" in text
        data = np.genfromtxt(out, delimiter=",", names=True)
        assert data.size == 2401 and np.all(data["p1_pa"] > 0.0)

    @pytest.mark.parametrize("argv, message", [
        (("--kind", "linear-sweep"), "--kind linear-sweep requires --freq-end"),
        (("--freq-end", "8"), "--freq-end applies only to --kind linear-sweep"),
        (("--kind", "sum-of-sines", "--freq-end", "8"),
         "--freq-end applies only to --kind linear-sweep"),
        (("--kind", "linear-sweep", "--freq-end", "nan"),
         "--freq-end must be positive and finite"),
        (("--kind", "linear-sweep", "--freq-end", "0"),
         "--freq-end must be positive and finite"),
    ])
    def test_freq_end_misuse_is_usage_error(self, capsys, tmp_path, argv,
                                            message):
        out = tmp_path / "x.csv"
        code, _, err = run_cli(capsys, "simulate", "--freq", "3", "--amp",
                               "0.005", *argv, "--out", str(out))
        assert code == 2 and f"usage error: {message}" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--config", "run.cfg"), ("--preset", "mining-truck"), ("--t0", "50"),
    ])
    def test_validate_takes_no_config_flags(self, capsys, flag, value):
        code, _, err = run_cli(capsys, "validate", flag, value)
        assert code == 2 and "unrecognized arguments" in err


def test_non_utf8_trace_is_input_error(capsys, tmp_path):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"t_s,p1_pa\r\n0,1000000\r\n0.002777,1000\xff00\r\n")
    code, _, err = run_cli(capsys, "estimate", "--trace", str(path),
                           "--out", str(tmp_path / "o.csv"))
    assert code == 3 and f"input error: {path}: not UTF-8 text" in err


def test_bench_raises_no_warning(capsys, table_file):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text, _ = run_cli(capsys, "bench", "--table", table_file,
                                "--samples", "10000", "--repeats", "10")
    assert code == 0 and "speedup" in text


@pytest.mark.parametrize("preset", ["bench-prototype", "mining-truck"])
def test_build_table_raises_no_warning(capsys, tmp_path, preset):
    out = tmp_path / "t.hplt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text, _ = run_cli(capsys, "build-table", "--preset", preset,
                                "--out", str(out))
    assert code == 0 and "4 grids" in text
    assert lookup.load_table(out, config.preset(preset).suspension).grids


class TestConfigFlag:
    @pytest.fixture()
    def cfg_50(self, tmp_path):
        path = tmp_path / "run50.cfg"
        config.save_run_config(config.bench_run_config(50.0), path)
        return str(path)

    def test_trace_temperature_comes_from_the_file(self, capsys, cfg_50,
                                                   trace_file, tmp_path):
        minimal = tmp_path / "minimal50.cfg"
        minimal.write_text("preset = bench-prototype\nsuspension.t0_c = 50\n")
        by_flag = tmp_path / "flag.csv"
        code, _, _ = run_cli(capsys, "estimate", "--t0", "50",
                             "--trace", trace_file, "--out", str(by_flag))
        assert code == 0
        for cfg_file in (cfg_50, str(minimal)):
            by_file = tmp_path / "file.csv"
            code, _, _ = run_cli(capsys, "estimate", "--config", cfg_file,
                                 "--trace", trace_file, "--out", str(by_file))
            assert code == 0
            assert by_file.read_bytes() == by_flag.read_bytes()

    @pytest.mark.parametrize("command", ["simulate", "estimate", "build-table",
                                         "wheel-load", "bench"])
    @pytest.mark.parametrize("flags", [("--preset", "mining-truck"),
                                       ("--t0", "10"),
                                       ("--preset", "mining-truck", "--t0", "10")])
    def test_preset_or_t0_with_config_is_usage_error(self, capsys, cfg_50,
                                                     tmp_path, command, flags):
        rest = {"simulate": ("--freq", "5", "--amp", "0.005"),
                "estimate": ("--trace", "x.csv"),
                "build-table": (),
                "wheel-load": ("--trace", "x.csv", "--table", "t.hplt"),
                "bench": ("--table", "t.hplt")}[command]
        out = tmp_path / "o.out"
        argv = (command, "--config", cfg_50, *flags, *rest)
        if command != "bench":
            argv += ("--out", str(out))
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and "cannot be combined with --config" in err
        assert not out.exists()

    def test_removed_lowpass_key_is_config_error(self, capsys, trace_file,
                                                 tmp_path):
        path = tmp_path / "lowpass.cfg"
        path.write_text("preset = bench-prototype\nsuspension.lowpass_hz = 20\n")
        out = tmp_path / "o.csv"
        code, _, err = run_cli(capsys, "estimate", "--config", str(path),
                               "--trace", trace_file, "--out", str(out))
        assert code == 2
        assert "config error" in err and "'suspension.lowpass_hz'" in err
        assert not out.exists()

    def test_key_given_twice_is_config_error(self, capsys, trace_file, tmp_path):
        path = tmp_path / "twice.cfg"
        path.write_text("preset = bench-prototype\npreset = mining-truck\n")
        out = tmp_path / "o.csv"
        code, _, err = run_cli(capsys, "estimate", "--config", str(path),
                               "--trace", trace_file, "--out", str(out))
        assert code == 2
        assert f"{path}:2: key 'preset' given twice" in err
        assert not out.exists()


@pytest.mark.parametrize("flags", [("--omega", "31"),
                                   ("--table", "/nonexistent.hplt"),
                                   ("--omega", "auto", "--table", "t.hplt")])
def test_lookup_flags_in_iterative_mode_are_usage_errors(capsys, trace_file,
                                                         tmp_path, flags):
    out = tmp_path / "o.csv"
    code, _, err = run_cli(capsys, "estimate", "--mode", "iterative",
                           "--trace", trace_file, *flags, "--out", str(out))
    assert code == 2 and "apply to --mode lookup only" in err
    assert not out.exists()


def test_lookup_mode_omega_defaults_to_auto(capsys, trace_file, table_file,
                                            tmp_path):
    default, auto = tmp_path / "default.csv", tmp_path / "auto.csv"
    for out, omega in ((default, ()), (auto, ("--omega", "auto"))):
        code, _, _ = run_cli(capsys, "estimate", "--mode", "lookup", "--table",
                             table_file, "--trace", trace_file, *omega,
                             "--out", str(out))
        assert code == 0
    assert default.read_bytes() == auto.read_bytes()


@pytest.mark.parametrize("argv, cfg_line, message", [
    (("estimate", "--t0", "nan"), None, "argument --t0: must be a finite"),
    (("estimate", "--t0", "inf"), None, "argument --t0: must be a finite"),
    (("estimate", "--t0", "-300"), None, "above -273.15 degC"),
    (("estimate", "--t0", "-273.15"), None, "above -273.15 degC"),
    (("simulate", "--t0", "nan"), None, "argument --t0: must be a finite"),
    (("estimate",), "suspension.t0_c = nan", "suspension.t0_c: value must be finite"),
    (("simulate",), "suspension.t0_c = nan", "suspension.t0_c: value must be finite"),
    (("estimate",), "suspension.rho_kgpm3 = inf",
     "suspension.rho_kgpm3: value must be finite"),
    (("estimate",), "suspension.rho_kgpm3 = -1", "density"),
    (("estimate",), "suspension.t0_c = -300", "above -273.15 degC"),
    (("estimate", "--t0", "1e6"), None, "viscosity"),
])
def test_non_finite_or_unphysical_number_is_usage_error(capsys, trace_file,
                                                         tmp_path, argv,
                                                         cfg_line, message):
    rest = {"estimate": ("--trace", trace_file),
            "simulate": ("--freq", "5", "--amp", "0.005")}[argv[0]]
    if cfg_line is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(cfg_line + "\n")
        rest += ("--config", str(cfg))
    out = tmp_path / "o.csv"
    code, _, err = run_cli(capsys, *argv, *rest, "--out", str(out))
    assert code == 2 and message in err
    if cfg_line is not None:
        assert f"config error: {cfg}" in err
    assert not out.exists()


# A missing table would exit 3: exit 2 shows the check runs before any work.
@pytest.mark.parametrize("flags, message", [
    (("--samples", "100"), "benchmark needs at least 10000 samples"),
    (("--repeats", "5"), "benchmark needs at least 10 repetitions"),
])
def test_bench_size_below_minimum_is_usage_error(capsys, tmp_path, flags,
                                                 message):
    code, _, err = run_cli(capsys, "bench", "--table",
                           str(tmp_path / "missing.hplt"), *flags)
    assert code == 2 and f"usage error: {message}" in err


def test_simulate_duration_below_20_cycles_is_usage_error(capsys, tmp_path):
    out = tmp_path / "x.csv"
    code, _, err = run_cli(capsys, "simulate", "--freq", "5", "--amp", "0.005",
                           "--duration", "0.001", "--out", str(out))
    assert code == 2
    assert "usage error: duration must cover at least 20 cycles" in err
    assert not out.exists()
