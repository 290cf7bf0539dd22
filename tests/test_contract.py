"""The exit-code contract of `hpsusp`, driven by a seeded mutator of bad inputs.

Each case feeds `cli.main` a mutated trace CSV, config file or flag set
and checks that the command exits with the code of its error class,
prints one `<class> error:` line and no traceback, and leaves no output
file (no `--out`, no `<out>.<pid>.tmp`) behind.
"""

from __future__ import annotations

import errno
import math
import os
import random
import re

import pytest

from hpsusp import cli, config, io, lookup

DT = 1.0 / 360.0
_ERROR_LINE = re.compile(r"^[a-z]+ error: ", re.MULTILINE)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, bench_table):
    """A directory holding a valid trace (5 Hz, 4 s) and the bench table."""
    root = tmp_path_factory.mktemp("contract")
    lookup.save_table(bench_table, root / "bench.hplt")
    _write_trace(root / "trace.csv", ["t_s", "p1_pa"], _rows(1441, 2))
    return root


def _rows(n, columns, dt=DT, amplitude=5e4):
    """n rows of a valid trace: time, a 5 Hz pressure about 0.8 MPa, truth columns."""
    return [[repr(i * dt), repr(8e5 + amplitude * math.sin(2 * math.pi * 5 * i * dt))]
            + [repr(1e3 * math.cos(i * dt))] * (columns - 2) for i in range(n)]


def _write_trace(path, header, rows, newline="\r\n"):
    path.write_bytes(newline.join(",".join(r) for r in [header] + rows).encode() + b"\r\n")


def _run(capsys, tmp_path, argv):
    """(exit code, `<class> error: ` prefixes, stderr) of cli.main; asserts no
    traceback and no file left in `tmp_path`."""
    before = sorted(os.listdir(tmp_path))
    code = cli.main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert "Traceback" not in err, (argv, err)
    assert sorted(os.listdir(tmp_path)) == before, argv
    return code, _ERROR_LINE.findall(err), err


# Fields no trace column accepts, and more that the time or pressure column refuses.
_NOT_NUMBERS = ["", "abc", "1_000", "١٢", "--1", "1e", "0x10", "1.0.0",
                '"', "5 5", "+-1", "nan%"]
_BAD_TIME = ["nan", "inf", "-inf"]
_BAD_PRESSURE = ["0", "-5", "-1e-300", "nan", "inf", "-inf", "-0"]
_NOT_UTF8 = [b"\xff", b"\xfe", b"\xc3(", b"\x80", b"\xed\xa0\x80"]


def _mutated_trace(rng, path):
    """Write a trace of 0-40 rows with one to three faults; return their names."""
    columns = rng.choice([2, 3, 4])
    header = ["t_s", "p1_pa", "f_out_truth_n", "f_tire_truth_n"][:columns]
    rows = _rows(rng.randint(0, 40), columns)
    faults = rng.sample(["substitute", "drop", "jitter", "not-utf8"], rng.randint(1, 3))
    if "jitter" in faults and rows:
        row = rng.choice(rows)
        row[0] = repr(float(row[0]) + rng.choice([-1, 1]) * rng.uniform(0.05, 0.45) * DT)
    if "substitute" in faults and rows:
        row, k = rng.choice(rows), rng.randrange(columns)
        row[k] = rng.choice(_NOT_NUMBERS + [_BAD_TIME, _BAD_PRESSURE, []][min(k, 2)])
    if "drop" in faults:
        line = rng.choice([header] + rows)
        del line[rng.randrange(len(line))]
    _write_trace(path, header, rows, rng.choice(["\n", "\r\n"]))
    if "not-utf8" in faults:
        blob = path.read_bytes()
        at = rng.randrange(len(blob) + 1)
        path.write_bytes(blob[:at] + rng.choice(_NOT_UTF8) + blob[at:])
    return faults


@pytest.mark.parametrize("seed", range(40))
def test_bad_trace_is_input_error(capsys, tmp_path, inputs, seed):
    rng = random.Random(seed)
    trace = tmp_path / "bad.csv"
    faults = _mutated_trace(rng, trace)
    table = inputs / "bench.hplt"
    for command in (["estimate"], ["estimate", "--mode", "lookup", "--table", table],
                    ["wheel-load", "--table", table]):
        code, lines, err = _run(capsys, tmp_path, command + ["--trace", trace,
                                                             "--out", tmp_path / "o.csv"])
        assert (code, lines) == (3, ["input error: "]), (faults, command, err)


# (key, values outside its field's range)
_OUT_OF_RANGE = [
    ("suspension.rho_kgpm3", "0"), ("suspension.mu_pas", "-0.065"),
    ("suspension.k_bulk_pa", "-1.7e9"), ("suspension.gamma", "1"),
    ("suspension.gamma", "0.5"), ("suspension.p_atm_pa", "0"),
    ("suspension.a1_m2", "-1e-3"), ("suspension.a3_m2", "1"),
    ("suspension.a_ch_m2", "0"), ("suspension.h_gap_m", "1"),
    ("suspension.n_valve", "0"), ("suspension.v0_gas_m3", "-1"),
    ("suspension.p0_pa", "0"), ("suspension.t0_c", "-273.15"),
    ("suspension.t0_c", "-1e6"), ("suspension.t0_c", "1e6"),
    ("suspension.omega_c_radps", "0"), ("suspension.f_coulomb_n", "-1"),
    ("suspension.f_static_n", "1"), ("suspension.v_stribeck_mps", "0"),
    ("suspension.beta_fric_spm", "-100"), ("suspension.k_v_nspm", "-1"),
    ("linkage.l_eff_m", "100"), ("linkage.l_lower_m", "0.1"),
    ("linkage.alpha0_rad", "0.8"), ("linkage.alpha0_rad", "-3"),
    ("linkage.m_u_kg", "0"), ("linkage.m_t_kg", "1e9"),
    ("quarter_car.m_s_kg", "-7500"), ("quarter_car.k_t_npm", "0"),
    ("quarter_car.c_t_nspm", "-1"), ("table.dt_s", "0"),
    ("table.amplitude_scale", "-1"), ("table.frequencies_hz", "3,-5"),
    ("table.frequencies_hz", "0"), ("preset", "no-such-preset"),
]
_NOT_VALUES = ["abc", "nan", "inf", "-inf", "1e999", "", "0x10", "1..2", "1e", "none"]
_UNKNOWN_KEYS = ["table.n_amplitudes", "suspension.lowpass_hz", "linkage.l_upper_m",
                 "linkage.z_li_m", "suspension.t0", "Preset", "suspension.rho"]


def _mutated_config(rng, path):
    """Write a config file with one fault; return its kind."""
    name = rng.choice(config.PRESET_NAMES)
    base = config._sections(config.preset(name))
    lines = [f"preset = {name}"]
    for key in rng.sample(sorted(config._KEY_MAP), 3):  # its preset's values
        section, attr = config._KEY_MAP[key]
        if key not in ("table.frequencies_hz", "table.static_force_n"):
            lines.append(f"{key} = {getattr(base[section], attr)!r}")
    fault = rng.choice(["unknown", "duplicate", "out-of-range", "not-a-value",
                        "no-equals", "not-utf8"])
    at = rng.randint(0, len(lines))
    if fault == "unknown":
        lines.insert(at, f"{rng.choice(_UNKNOWN_KEYS)} = {rng.uniform(-1, 1)!r}")
    elif fault == "duplicate":
        line = rng.choice(lines)
        lines.insert(at, line if rng.random() < 0.5 else line.split("=")[0] + "= 1")
    elif fault == "out-of-range":
        lines = [line for line in lines if not line.startswith("suspension.")]
        lines.insert(rng.randint(0, len(lines)), "%s = %s" % rng.choice(_OUT_OF_RANGE))
    elif fault == "not-a-value":
        key = rng.choice([k for k in config._KEY_MAP if k != "table.static_force_n"])
        lines.insert(at, f"{key} = {rng.choice(_NOT_VALUES)}")
    elif fault == "no-equals":
        lines.insert(at, rng.choice(["suspension.rho_kgpm3 850", "preset", "[suspension]"]))
    text = "\n".join(lines).encode() + b"\n"
    if fault == "not-utf8":
        at = rng.randrange(len(text) + 1)
        text = text[:at] + rng.choice(_NOT_UTF8) + text[at:]
    path.write_bytes(text)
    return fault


@pytest.mark.parametrize("seed", range(40))
def test_bad_config_is_config_error(capsys, tmp_path, inputs, seed):
    rng = random.Random(seed)
    cfg = tmp_path / "run.cfg"
    fault = _mutated_config(rng, cfg)
    table, trace = inputs / "bench.hplt", inputs / "trace.csv"
    command = rng.choice([
        ["simulate", "--freq", "5", "--amp", "0.005", "--out", tmp_path / "o.csv"],
        ["estimate", "--trace", trace, "--out", tmp_path / "o.csv"],
        ["build-table", "--out", tmp_path / "o.hplt"],
        ["wheel-load", "--trace", trace, "--table", table, "--out", tmp_path / "o.csv"],
        ["bench", "--table", table, "--json", tmp_path / "o.json"],
    ])
    code, lines, err = _run(capsys, tmp_path, command + ["--config", cfg])
    assert (code, lines) == (2, ["config error: "]), (fault, command, cfg.read_bytes(), err)


def _number(rng):
    return rng.choice(["0", "-1", "nan", "inf", "-inf", "abc", "", "1e999",
                       repr(-rng.uniform(0, 1e3))])


def _mutated_flags(rng, out, trace, table):
    """A command line with one flag fault."""
    simulate = ["simulate", "--freq", "5", "--amp", "0.005", "--out", out]
    estimate = ["estimate", "--trace", trace, "--out", out]
    lookup_ = estimate + ["--mode", "lookup", "--table", table]
    wheel = ["wheel-load", "--trace", trace, "--table", table, "--out", out]
    build = ["build-table", "--out", out]
    bench = ["bench", "--table", table]
    base = rng.choice([simulate, estimate, lookup_, wheel, build, bench])
    faults = [
        lambda: base + ["--bogus"],
        lambda: base[:1] + base[3:],  # a required flag or its value missing
        lambda: base + ["--preset", rng.choice(["", "truck", "bench"])],
        lambda: base + ["--t0", rng.choice(["nan", "inf", "-273.15", "-300", "abc"])],
        lambda: base + ["--config", trace, "--preset", "mining-truck"],
        lambda: [rng.choice(["simulat", "", "--out", "run"])],
        lambda: ["validate", rng.choice(["--t0", "--preset", "--config"]), "5"],
        lambda: [],
        lambda: simulate + [rng.choice(["--dt", "--freq", "--duration"]), _number(rng)],
        lambda: simulate + [rng.choice(["--amp", "--offset"]), rng.choice(["nan", "inf", "x"])],
        lambda: simulate + ["--kind", rng.choice(["linear-sweep", "square"])],
        lambda: simulate + ["--freq-end", "8"],
        lambda: simulate + ["--duration", repr(rng.uniform(1e-6, 3.99))],
        lambda: estimate + ["--mode", rng.choice(["lookup", "fast"])],
        lambda: estimate + rng.choice([["--table", table], ["--omega", "auto"]]),
        lambda: rng.choice([lookup_, wheel]) + ["--omega", _number(rng)],
        lambda: build + ["--frequencies", rng.choice(["3,x", "3,-1", "3,,5", "inf", ""])],
        lambda: bench + [rng.choice(["--samples", "--repeats"]),
                         rng.choice(["5", "9", "-1", "1.5", "x"])],
    ]
    return rng.choice(faults)()


@pytest.mark.parametrize("seed", range(40))
def test_bad_flags_are_usage_errors(capsys, tmp_path, inputs, seed):
    rng = random.Random(seed)
    argv = _mutated_flags(rng, tmp_path / "o.csv", inputs / "trace.csv",
                          inputs / "bench.hplt")
    code, lines, err = _run(capsys, tmp_path, argv)
    assert (code, lines) == (2, ["usage error: "]), (argv, err)


def test_numerical_failures_exit_4(capsys, tmp_path, inputs):
    flat = tmp_path / "flat.csv"
    _write_trace(flat, ["t_s", "p1_pa"], _rows(400, 2, amplitude=0.0))
    slow = tmp_path / "slow.csv"  # 100 Hz against the table's 360 Hz
    _write_trace(slow, ["t_s", "p1_pa"], _rows(400, 2, dt=0.01))
    table, out = inputs / "bench.hplt", tmp_path / "o.csv"
    for argv in (["estimate", "--trace", flat, "--out", out],
                 ["estimate", "--mode", "lookup", "--table", table, "--trace", flat,
                  "--out", out],
                 ["estimate", "--mode", "lookup", "--table", table, "--trace", slow,
                  "--out", out],
                 ["wheel-load", "--table", table, "--trace", slow, "--out", out],
                 ["simulate", "--freq", "5", "--amp", "0.2", "--out", out],
                 ["build-table", "--frequencies", "5,5", "--out", out]):
        code, lines, err = _run(capsys, tmp_path, argv)
        assert (code, lines) == (4, ["numerical error: "]), (argv, err)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
def test_write_to_a_full_device_is_input_error(capsys, tmp_path, inputs):
    code, lines, err = _run(capsys, tmp_path, ["estimate", "--trace", inputs / "trace.csv",
                                               "--out", "/dev/full"])
    assert (code, lines) == (3, ["input error: "]) and "No space left" in err


def test_disk_full_mid_write_is_input_error(capsys, tmp_path, inputs, monkeypatch):
    def full(fh, rows, n):
        fh.write(b"1,2\r\n")
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    monkeypatch.setattr(io, "_format_ranges", full)
    out = tmp_path / "o.csv"
    for argv in (["simulate", "--freq", "5", "--amp", "0.005", "--out", out],
                 ["estimate", "--trace", inputs / "trace.csv", "--out", out]):
        code, lines, err = _run(capsys, tmp_path, argv)
        assert (code, lines) == (3, ["input error: "]) and "No space left" in err
