"""Configuration presets, digesting, and the flat config-file format."""

from __future__ import annotations

import dataclasses
import hashlib
import re
import sys

import pytest

from hpsusp import config, core


class TestPresets:
    def test_preset_names(self):
        for name in config.PRESET_NAMES:
            rc = config.preset(name)
            assert rc.suspension.geom.a1 > 0.0

    def test_unknown_preset(self):
        with pytest.raises(config.ConfigError):
            config.preset("hovercraft")

    def test_bench_geometry_areas(self):
        cfg = config.bench_prototype()
        g = cfg.geom
        assert g.a1 == pytest.approx(4.418e-3)
        assert g.a2 == pytest.approx(1.885e-3)
        assert g.a3 == pytest.approx(g.a1 - g.a2, abs=1e-12)
        assert g.d_ch == pytest.approx(6.0e-3, rel=1e-9)

    def test_truck_masses_and_tire(self):
        rc = config.mining_truck()
        qc = rc.quarter_car
        assert (qc.m_s, qc.m_u, qc.m_t) == (7500.0, 800.0, 500.0)
        assert qc.k_t == 2.0e6
        assert rc.linkage.m_t <= rc.linkage.m_u

    def test_truck_static_ratio(self):
        link = config.mining_truck().linkage
        assert link.static_ratio() == pytest.approx(0.7007464749503204, rel=1e-12)

    def test_oil_viscosity_anchors(self):
        assert config.oil_viscosity(30.0) == pytest.approx(0.065, rel=1e-9)
        assert config.oil_viscosity(50.0) == pytest.approx(0.032, rel=1e-9)
        mid = config.oil_viscosity(40.0)
        assert 0.032 < mid < 0.065


class TestDigest:
    def test_stable(self):
        a = config.bench_prototype(30.0).digest()
        b = config.bench_prototype(30.0).digest()
        assert a == b

    def test_sensitive_to_parameters(self):
        a = config.bench_prototype(30.0).digest()
        b = config.bench_prototype(50.0).digest()
        c = config.mining_truck(30.0).suspension.digest()
        assert len({a, b, c}) == 3

    def test_fits_in_u64(self):
        d = config.bench_prototype().digest()
        assert 0 <= d < 2 ** 64

    # Every .hplt file stores this digest: a changed value would make every
    # existing table fail to load.
    @pytest.mark.parametrize("name, expected", [
        ("bench-prototype", 0x1876fd7e02486d53),
        ("mining-truck", 0x769be9d004a825c5),
    ])
    def test_known_answer(self, name, expected):
        assert config.preset(name).suspension.digest() == expected

    @pytest.mark.parametrize("name", config.PRESET_NAMES)
    def test_equals_hashlib_sha256(self, monkeypatch, name):
        # With CPython's own SHA-256 modules hidden, digest() falls back to
        # hashlib; both hash the same blob to the same value.
        cfg = config.preset(name).suspension
        lean = cfg.digest()
        sha256, blobs = hashlib.sha256, []

        def spy(blob):
            blobs.append(blob)
            return sha256(blob)
        monkeypatch.setitem(sys.modules, "_sha2", None)
        monkeypatch.setitem(sys.modules, "_sha256", None)
        monkeypatch.setattr(hashlib, "sha256", spy)
        assert cfg.digest() == lean
        assert len(blobs) == 1
        assert int.from_bytes(sha256(blobs[0]).digest()[:8], "little") == lean


class TestConfigFile:
    def test_save_load_round_trip(self, tmp_path):
        for name in config.PRESET_NAMES:
            rc = config.preset(name)
            path = tmp_path / f"{name}.cfg"
            config.save_run_config(rc, path)
            back = config.load_run_config(path)
            assert back == rc
            assert back.suspension.digest() == rc.suspension.digest()

    @pytest.mark.parametrize("key, first, second", [
        ("preset", "mining-truck", "bench-prototype"),
        ("suspension.t0_c", "30", "30"),
    ])
    def test_key_given_twice_rejected(self, tmp_path, key, first, second):
        path = tmp_path / "cfg.cfg"
        path.write_text(f"{key} = {first}\n# the repeat is an error\n{key} = {second}\n")
        with pytest.raises(config.ConfigError, match=(
                f"^{re.escape(str(path))}:3: key '{re.escape(key)}' given twice")):
            config.load_run_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("suspension.warp_factor = 9\n")
        with pytest.raises(config.ConfigError):
            config.load_run_config(path)

    def test_invalid_value_rejected(self, tmp_path):
        rc = config.bench_run_config()
        path = tmp_path / "cfg.cfg"
        config.save_run_config(rc, path)
        text = path.read_text().replace(
            "suspension.gamma = 1.4", "suspension.gamma = 0.9")
        path.write_text(text)
        with pytest.raises((config.ConfigError, ValueError)):
            config.load_run_config(path)

    @pytest.mark.parametrize("line", [
        "suspension.t0_c = nan", "suspension.rho_kgpm3 = inf",
        "suspension.p0_pa = -inf", "table.frequencies_hz = 3,nan,8",
        "suspension.n_valve = nan",
    ])
    def test_non_finite_value_rejected(self, tmp_path, line):
        path = tmp_path / "cfg.cfg"
        path.write_text("preset = mining-truck\n" + line + "\n")
        with pytest.raises(config.ConfigError, match=f"^{re.escape(str(path))}:2: "):
            config.load_run_config(path)

    @pytest.mark.parametrize("line, message", [
        ("suspension.rho_kgpm3 = -1", "density"),
        ("suspension.t0_c = -300", "above -273.15 degC"),
        ("linkage.m_t_kg = 900", "tire mass"),
        ("preset = hovercraft", "unknown preset"),
        ("suspension.n_valve = 0", "valve set"),
        ("table.frequencies_hz = -3,5", "table frequencies"),
        ("table.dt_s = 0", "table dt"),
    ])
    def test_range_check_is_config_error_naming_the_file(self, tmp_path, line,
                                                          message):
        path = tmp_path / "cfg.cfg"
        path.write_text(line + "\n")
        with pytest.raises(config.ConfigError, match=f"^{re.escape(str(path))}: .*{message}"):
            config.load_run_config(path)

    @pytest.mark.parametrize("name", config.PRESET_NAMES)
    def test_file_temperature_builds_the_preset(self, tmp_path, name):
        path = tmp_path / "cfg.cfg"
        path.write_text(f"preset = {name}\nsuspension.t0_c = 50\n")
        rc, expected = config.load_run_config(path), config.preset(name, 50.0)
        assert rc == expected
        assert rc.suspension.digest() == expected.suspension.digest()

    def test_explicit_viscosity_wins_over_file_temperature(self, tmp_path):
        path = tmp_path / "cfg.cfg"
        path.write_text("suspension.t0_c = 50\nsuspension.mu_pas = 0.07\n")
        rc = config.load_run_config(path)
        assert (rc.suspension.charge.t0, rc.suspension.fluid.mu) == (50.0, 0.07)

    def test_none_only_for_the_optional_preload(self, tmp_path):
        path = tmp_path / "cfg.cfg"
        path.write_text("table.static_force_n = none\n")
        assert config.load_run_config(path).table.static_force_n is None
        path.write_text("suspension.rho_kgpm3 = none\n")
        with pytest.raises(config.ConfigError, match="bad numeric value"):
            config.load_run_config(path)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        rc = config.bench_run_config()
        path = tmp_path / "cfg.cfg"
        config.save_run_config(rc, path)
        text = "# leading comment\n\n" + path.read_text() + "\n# trailing\n"
        path.write_text(text)
        back = config.load_run_config(path)
        assert back.suspension == rc.suspension


def test_sweep_size_key_is_gone(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("preset = bench-prototype\ntable.n_amplitudes = 40\n")
    with pytest.raises(config.ConfigError, match="unknown key 'table.n_amplitudes'"):
        config.load_run_config(path)


@pytest.mark.parametrize("key", ["linkage.l_upper_m", "linkage.z_li_m"])
def test_unread_linkage_keys_are_gone(tmp_path, key):
    path = tmp_path / "run.cfg"
    path.write_text(f"preset = mining-truck\n{key} = 0.5\n")
    with pytest.raises(config.ConfigError,
                       match=f"^{re.escape(str(path))}:2: unknown key '{re.escape(key)}'"):
        config.load_run_config(path)


def test_key_map_covers_every_scalar_field_once():
    sections = config._sections(config.mining_truck())
    assert {type(obj) for obj in sections.values()} == {
        core.FluidProperties, core.SuspensionGeometry, core.GasChargeState,
        core.FrictionParams, config.SuspensionConfig, config.WheelLinkage,
        config.QuarterCarParams, config.TableBuildSettings}
    scalar_fields = [(name, f.name) for name, obj in sections.items()
                     for f in dataclasses.fields(obj)
                     if not dataclasses.is_dataclass(getattr(obj, f.name))]
    assert sorted(config._KEY_MAP.values()) == sorted(scalar_fields)


def _key_values(rc) -> dict:
    sections = config._sections(rc)
    return {key: getattr(sections[section], attr)
            for key, (section, attr) in config._KEY_MAP.items()}


def _changed(value):
    """A different value that passes every range check of the truck preset."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, tuple):
        return tuple(1.25 * x for x in value)
    return 1.25 * value


def _text(value) -> str:
    return ",".join(map(repr, value)) if isinstance(value, tuple) else repr(value)


@pytest.mark.parametrize("key", list(config._KEY_MAP))
def test_each_key_lands_on_its_field(tmp_path, key):
    base = config.mining_truck()
    before = _key_values(base)
    written = {key: _changed(before[key])}
    # a3 = a1 - a2 must keep holding: a second line restores it.
    g = base.suspension.geom
    tied = {"suspension.a1_m2": ("suspension.a3_m2", lambda a1: a1 - g.a2),
            "suspension.a2_m2": ("suspension.a3_m2", lambda a2: g.a1 - a2),
            "suspension.a3_m2": ("suspension.a1_m2", lambda a3: g.a2 + a3)}
    if key in tied:
        other, rule = tied[key]
        written[other] = rule(written[key])
    path = tmp_path / "run.cfg"
    path.write_text("preset = mining-truck\n"
                    + "".join(f"{k} = {_text(v)}\n" for k, v in written.items()))
    rc = config.load_run_config(path)
    after = _key_values(rc)
    expected = dict(written)
    if key == "suspension.t0_c":  # the preset is built at the file's t0
        expected["suspension.mu_pas"] = config.oil_viscosity(written[key])
    assert {k: v for k, v in after.items() if v != before[k]} == expected
    qc = rc.quarter_car
    assert qc.link is rc.linkage and qc.cfg is rc.suspension
    assert (qc.m_u, qc.m_t) == (rc.linkage.m_u, rc.linkage.m_t)
