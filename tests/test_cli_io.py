from __future__ import annotations

import dataclasses
import hashlib
import pickle
import re
import warnings

import numpy as np
import pytest

import chemowave.cauchy_sim as cauchy_sim_mod
import chemowave.cli_io as cli_io_mod
from chemowave.cli_io import (
    emit_speeds_summary,
    emit_upsilon_csv,
    format_config,
    load_config,
    main,
    parse_config,
)
from chemowave.cauchy_sim import SimConfig
from chemowave.errors import (
    ConfigError,
    MissingKey,
    NegativeDensity,
    ParseError,
    SensitivityOutOfRange,
    UnknownKey,
)
from chemowave.velocity_model import SensitivityBoundaryWarning, build_model

TWO_VELOCITY_SCAN = """
[model]
velocities = 1
weights = 0.5
chi_s = 0.3
chi_n = 0.15

[chem]
d_s = 0.5
d_n = 1
alpha = 0.5
beta = 1
gamma = 1

[run]
mode = upsilon-scan
samples_per_interval = 8
"""

TWO_VELOCITY_SIM = TWO_VELOCITY_SCAN.replace(
    "[run]", "[sim]\ndomain_length = 20\ncells = 128\ncfl = 0.45\nt_end = 1\n\n[run]"
)


def test_shipped_configs_parse_and_roundtrip(configs_dir):
    for name in ("sec4_1.ini", "sec4_2.ini", "sec4_3.ini"):
        cfg, _h = load_config(configs_dir / name)
        assert parse_config(format_config(cfg)) == cfg


def test_case_study_parameters(configs_dir):
    cfg, _h = load_config(configs_dir / "sec4_1.ini")
    assert cfg.chi_s == 0.3 and cfg.chi_n == 0.15
    assert cfg.chem.alpha == 0.5 and cfg.chem.d_s == 0.5 and cfg.chem.d_n == 1.0
    assert cfg.chem.beta == 1.0 and cfg.chem.gamma == 1.0
    assert len(cfg.velocities) == 10 and cfg.velocities[0] == 0.0
    model = cfg.build_model()
    assert model.n_active == 18


def test_missing_key_detected():
    text = TWO_VELOCITY_SCAN.replace("chi_s = 0.3\n", "")
    with pytest.raises(MissingKey, match="chi_s"):
        parse_config(text)


def test_unknown_key_and_section():
    with pytest.raises(UnknownKey, match="wobble"):
        parse_config(TWO_VELOCITY_SCAN + "\n[model]\nwobble = 1\n".replace("[model]\n", ""))
    with pytest.raises(UnknownKey, match="extras"):
        parse_config(TWO_VELOCITY_SCAN + "\n[extras]\nx = 1\n")


def test_out_of_range_sensitivity_has_key_context():
    text = TWO_VELOCITY_SCAN.replace("chi_s = 0.3", "chi_s = 0.7")
    with pytest.raises(SensitivityOutOfRange, match=r"\[model\]"):
        parse_config(text)


def test_parse_error_carries_line_number():
    text = "[model]\nvelocities = 1\nweights = abc\nchi_s = 0.3\nchi_n = 0.1\n[run]\nmode = validate\n"
    with pytest.raises(ParseError, match="line 3"):
        parse_config(text)
    with pytest.raises(ParseError, match="line 2"):
        parse_config("[model]\nvelocities 1\n")
    with pytest.raises(ParseError, match="before any"):
        parse_config("velocities = 1\n")
    with pytest.raises(ParseError, match="duplicate key"):
        parse_config("[model]\nchi_s = 0.1\nchi_s = 0.2\n")
    with pytest.raises(ParseError, match="mode must be"):
        parse_config(TWO_VELOCITY_SCAN.replace("mode = upsilon-scan", "mode = dance"))


def test_mode_requirements():
    with pytest.raises(MissingKey, match=r"\[chem\]"):
        parse_config(
            "[model]\nvelocities = 1\nweights = 0.5\nchi_s = 0.3\nchi_n = 0.15\n"
            "[run]\nmode = upsilon-scan\n"
        )
    with pytest.raises(MissingKey, match="profile_speed"):
        parse_config(TWO_VELOCITY_SCAN.replace("mode = upsilon-scan", "mode = profile"))
    with pytest.raises(MissingKey, match=r"\[sim\]"):
        parse_config(TWO_VELOCITY_SCAN.replace("mode = upsilon-scan", "mode = simulate"))


def test_emitted_floats_roundtrip(tmp_path):
    cfg = parse_config(TWO_VELOCITY_SCAN)
    model = cfg.build_model()
    from chemowave import refine_roots, scan

    curve = scan(model, cfg.chem, 8)
    refine_roots(curve, model, cfg.chem)
    path = tmp_path / "upsilon.csv"
    emit_upsilon_csv(curve, path, config_hash="deadbeef")
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# chemowave ")
    assert lines[1] == "# config_sha256=deadbeef"
    assert lines[2] == "c,upsilon,interval_id"
    cs, ys = [], []
    for row in lines[3:]:
        c_str, y_str, interval_id = row.split(",")
        cs.append(float(c_str))
        ys.append(float(y_str))
        assert interval_id == "0"
    assert cs == sorted(cs)
    expected = dict(curve.samples)
    for c, y in zip(cs, ys):
        assert y == expected[c]  # 17-digit serialization is exact


def test_speeds_summary_no_wave_footer(tmp_path):
    path = tmp_path / "speeds.csv"
    emit_speeds_summary([], path, [])
    content = path.read_text().splitlines()
    assert content[-1] == "# status=no_wave"
    assert "c,upsilon_residual" in content

    emit_speeds_summary([0.15], path, residuals=[1e-12])
    row = path.read_text().splitlines()[-1].split(",")
    assert float(row[0]) == 0.15 and float(row[1]) == 1e-12


def test_cli_validate_and_scan(tmp_path, capsys):
    cfg_path = tmp_path / "two.ini"
    cfg_path.write_text(TWO_VELOCITY_SCAN)
    assert main(["validate", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "speed window" in out

    assert main(["upsilon-scan", "--config", str(cfg_path), "--out", str(tmp_path / "scan")]) == 0
    assert (tmp_path / "scan" / "upsilon.csv").exists()
    assert (tmp_path / "scan" / "speeds.csv").exists()


def test_cli_profile_mode(tmp_path):
    text = TWO_VELOCITY_SCAN.replace(
        "mode = upsilon-scan", "mode = profile\nprofile_speed = 0.25"
    )
    cfg_path = tmp_path / "prof.ini"
    cfg_path.write_text(text)
    assert main(["profile", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    header = (tmp_path / "profile.csv").read_text().splitlines()
    cols = [line for line in header if not line.startswith("#")][0]
    assert cols == "z,rho,I,s,n,f_0,f_1"


def test_cli_simulate_mode(tmp_path):
    text = TWO_VELOCITY_SCAN.replace("mode = upsilon-scan", "mode = simulate") + (
        "\n[sim]\ndomain_length = 10\ncells = 64\ncfl = 0.5\nt_end = 2\nsnapshot_interval = 1\n"
    )
    cfg_path = tmp_path / "sim.ini"
    cfg_path.write_text(text)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "sim")]) == 0
    assert (tmp_path / "sim" / "diagnostics.csv").exists()
    assert (tmp_path / "sim" / "snapshot_0000.csv").exists()
    assert (tmp_path / "sim" / "snapshot_0002.csv").exists()


def _step_per_snapshot_config(tmp_path):
    """A short two-velocity simulation that takes one snapshot after every step."""
    text = TWO_VELOCITY_SCAN.replace("mode = upsilon-scan", "mode = simulate") + (
        "\n[sim]\ndomain_length = 10\ncells = 64\ncfl = 0.5\nt_end = 2\nsnapshot_interval = 1e-9\n"
    )
    cfg_path = tmp_path / "sim.ini"
    cfg_path.write_text(text)
    return cfg_path


def _step_spy(monkeypatch, fail_from=None):
    """Count the calls of cauchy_sim.step; from call ``fail_from`` on, raise NegativeDensity."""
    real_step = cauchy_sim_mod.step
    calls = []

    def spy(state, config, dt=None):
        calls.append(dt)
        if fail_from is not None and len(calls) >= fail_from:
            raise NegativeDensity(f"negative cell density after the exchange at t={state.t!r}")
        return real_step(state, config, dt)

    monkeypatch.setattr(cauchy_sim_mod, "step", spy)
    return calls


def test_simulate_stops_at_the_snapshot_it_cannot_spool(tmp_path, monkeypatch, capsys):
    # each snapshot goes to disk as it is taken, so a failed write ends the run
    # there (the third snapshot follows the second step), and the snapshots
    # taken before it still become CSVs
    cfg_path = _step_per_snapshot_config(tmp_path)
    real_dump = pickle.dump
    spooled = []

    def dump_failing_third(obj, file, protocol=None):
        if len(spooled) == 2:
            raise OSError(28, "No space left on device")
        spooled.append(obj.t)
        real_dump(obj, file, protocol=protocol)

    steps = _step_spy(monkeypatch)
    monkeypatch.setattr(pickle, "dump", dump_failing_third)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "sim")]) == 4
    assert "i/o error: [Errno 28] No space left on device" in capsys.readouterr().err
    assert len(steps) == 2
    assert sorted(p.name for p in (tmp_path / "sim").iterdir()) == ["snapshot_0000.csv", "snapshot_0001.csv"]


def test_simulate_snapshot_write_failure_is_an_io_error(tmp_path, monkeypatch, capsys):
    # the CSVs are written once run() returns: a failed one is exit 4, after
    # the snapshots before it, and no diagnostics.csv follows
    cfg_path = _step_per_snapshot_config(tmp_path)
    real_emit = cli_io_mod.emit_snapshot_csv
    written = []

    def emit_failing_third(snapshot, path, config_hash=None):
        if len(written) == 2:
            raise OSError(28, "No space left on device", str(path))
        written.append(path.name)
        real_emit(snapshot, path, config_hash)

    monkeypatch.setattr(cli_io_mod, "emit_snapshot_csv", emit_failing_third)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "sim")]) == 4
    assert "i/o error: [Errno 28] No space left on device" in capsys.readouterr().err
    assert sorted(p.name for p in (tmp_path / "sim").iterdir()) == written == ["snapshot_0000.csv", "snapshot_0001.csv"]


def test_simulate_keeps_the_snapshots_written_before_a_numerical_failure(tmp_path, monkeypatch, capsys):
    # steps 1-5 succeed; the sixth fails, run() halves dt once, and the retry fails too
    cfg_path = _step_per_snapshot_config(tmp_path)
    steps = _step_spy(monkeypatch, fail_from=6)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "sim")]) == 3
    assert "numerical failure: negative cell density" in capsys.readouterr().err
    assert len(steps) == 7 and steps[6] == 0.5 * steps[5]
    assert sorted(p.name for p in (tmp_path / "sim").iterdir()) == [f"snapshot_{i:04d}.csv" for i in range(6)]


def test_cli_exit_codes(tmp_path, capsys):
    # 4: unreadable config
    assert main(["validate", "--config", str(tmp_path / "nope.ini")]) == 4
    # 2: validation failures (bad sensitivity; requested speed outside window)
    bad = tmp_path / "bad.ini"
    bad.write_text(TWO_VELOCITY_SCAN.replace("chi_s = 0.3", "chi_s = 0.7"))
    assert main(["validate", "--config", str(bad)]) == 2
    fast = tmp_path / "fast.ini"
    fast.write_text(
        TWO_VELOCITY_SCAN.replace("mode = upsilon-scan", "mode = profile\nprofile_speed = 0.9")
    )
    assert main(["profile", "--config", str(fast)]) == 2
    # 3: numerical failure (numerically coincident velocity nodes)
    knot = tmp_path / "knot.ini"
    knot.write_text(
        TWO_VELOCITY_SCAN.replace(
            "velocities = 1\nweights = 0.5",
            "velocities = 0.5 0.50000000000000011\nweights = 0.25 0.25",
        ).replace("mode = upsilon-scan", "mode = profile\nprofile_speed = 0.1")
    )
    assert main(["profile", "--config", str(knot)]) == 3
    capsys.readouterr()


def test_cli_validates_equal_sensitivities(tmp_path, configs_dir, capsys):
    text = (configs_dir / "sec4_1.ini").read_text().replace("chi_s = 0.3", "chi_s = 0.4")
    cfg_path = tmp_path / "equal.ini"
    cfg_path.write_text(text.replace("chi_n = 0.15", "chi_n = 0.4"))
    assert main(["validate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    assert "c_lower=0 " in capsys.readouterr().out


@pytest.mark.parametrize("interval", ["-1", "0", "nan"])
def test_nonpositive_snapshot_interval_is_a_config_error(interval, tmp_path, capsys):
    text = TWO_VELOCITY_SIM.replace("t_end = 1\n", f"t_end = 1\nsnapshot_interval = {interval}\n")
    with pytest.raises(ConfigError, match=r"in \[sim\]: snapshot_interval"):
        parse_config(text, mode="simulate")
    cfg_path = tmp_path / "sim.ini"
    cfg_path.write_text(text)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "in [sim]: snapshot_interval must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", ["domain_length", "t_end", "initial_n", "initial_mass"])
def test_non_finite_sim_value_is_a_config_error(key, value, tmp_path, capsys):
    # t_end = inf used to run forever; the others ran on or ended in a traceback
    if f"\n{key} = " in TWO_VELOCITY_SIM:
        text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", TWO_VELOCITY_SIM)
    else:
        text = TWO_VELOCITY_SIM.replace("t_end = 1\n", f"t_end = 1\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=r"in \[sim\]: .*must be finite and positive"):
        parse_config(text, mode="simulate")
    cfg_path = tmp_path / "sim.ini"
    cfg_path.write_text(text)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "must be finite and positive" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("initial_center", "nan", "initial center must be finite"),
        ("initial_width", "-1", "initial width must be finite and positive"),
        ("initial_center", "-50", "initial density has no support"),
    ],
)
def test_bad_initial_density_is_a_config_error(key, value, message, tmp_path, capsys):
    # these used to pass validation and end in a ValueError traceback from initial_state
    text = TWO_VELOCITY_SIM.replace("t_end = 1\n", f"t_end = 1\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=rf"in \[sim\]: {message}"):
        parse_config(text, mode="simulate")
    cfg_path = tmp_path / "sim.ini"
    cfg_path.write_text(text)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert f"in [sim]: {message}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_cli_mode_override(tmp_path):
    # the CLI positional mode wins over the config's [run] mode
    cfg_path = tmp_path / "two.ini"
    cfg_path.write_text(TWO_VELOCITY_SCAN)
    assert main(["validate", "--config", str(cfg_path)]) == 0


def test_cli_mode_is_checked_once_for_the_mode_that_runs(tmp_path, capsys):
    # the file asks for profile without profile_speed: validate needs neither
    profile_only = tmp_path / "profile.ini"
    profile_only.write_text(TWO_VELOCITY_SCAN.replace("mode = upsilon-scan", "mode = profile"))
    assert main(["validate", "--config", str(profile_only)]) == 0
    assert parse_config(profile_only.read_text(), mode="validate").mode == "validate"
    # the file is a scan config: the CLI's profile mode still needs profile_speed
    scan_only = tmp_path / "scan.ini"
    scan_only.write_text(TWO_VELOCITY_SCAN)
    assert main(["profile", "--config", str(scan_only)]) == 2
    assert "profile_speed" in capsys.readouterr().err
    with pytest.raises(MissingKey, match="profile_speed"):
        load_config(scan_only, mode="profile")


def test_too_few_samples_per_interval_is_a_config_error(tmp_path, capsys):
    text = TWO_VELOCITY_SCAN.replace("samples_per_interval = 8", "samples_per_interval = 4")
    with pytest.raises(ConfigError, match=r"\[run\].*samples_per_interval"):
        parse_config(text)
    cfg_path = tmp_path / "few.ini"
    cfg_path.write_text(text)
    assert main(["upsilon-scan", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "samples_per_interval" in capsys.readouterr().err
    # the floor is RunConfig's own check, so a replaced config is checked too
    with pytest.raises(ValueError, match="samples_per_interval must be at least"):
        dataclasses.replace(parse_config(TWO_VELOCITY_SCAN), samples_per_interval=4)


@pytest.mark.parametrize("speed", ["-0.05", "0", "nan", "inf"])
def test_nonpositive_profile_speed_is_a_config_error(speed, tmp_path, capsys):
    # -0.05 and 0 lie inside the speed window (c_lower = -0.15) and used to exit 3 from
    # the nutrient solve; nan used to exit 2 with an unrelated dispersion message
    text = TWO_VELOCITY_SCAN.replace("mode = upsilon-scan", f"mode = profile\nprofile_speed = {speed}")
    with pytest.raises(ConfigError, match=r"in \[run\]: profile_speed must be finite and positive"):
        parse_config(text)
    cfg_path = tmp_path / "prof.ini"
    cfg_path.write_text(text)
    assert main(["profile", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "in [run]: profile_speed must be finite and positive" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_non_utf8_config_is_a_parse_error(tmp_path, capsys):
    # a byte that is not UTF-8 used to end in a UnicodeDecodeError traceback (exit 1)
    cfg_path = tmp_path / "bad.ini"
    cfg_path.write_bytes(TWO_VELOCITY_SCAN.replace("chi_n = 0.15", "chi_n = 0.15\xff").encode("latin-1"))
    with pytest.raises(ParseError, match=r"not valid UTF-8.*\(line 6\)"):
        load_config(cfg_path)
    assert main(["validate", "--config", str(cfg_path)]) == 2
    assert "invalid config: not valid UTF-8" in capsys.readouterr().err
    # the hash is of the text with its newlines read as \n, as before: CRLF and LF agree
    lf, crlf = tmp_path / "lf.ini", tmp_path / "crlf.ini"
    lf.write_bytes(TWO_VELOCITY_SCAN.encode())
    crlf.write_bytes(TWO_VELOCITY_SCAN.replace("\n", "\r\n").encode())
    assert load_config(crlf) == load_config(lf)


def test_byte_order_mark_is_dropped(tmp_path, configs_dir, capsys):
    # a UTF-8 byte-order mark in front of a config, as some editors write it, was a
    # parse error at line 1, column 1; it is dropped before parsing and hashing
    original = configs_dir / "sec4_2.ini"
    marked = tmp_path / "bom.ini"
    marked.write_bytes(b"\xef\xbb\xbf" + original.read_bytes())
    assert load_config(marked) == load_config(original)
    assert load_config(original)[1] == hashlib.sha256(original.read_bytes()).hexdigest()[:16]
    assert main(["validate", "--config", str(marked)]) == 0
    # only one mark is dropped: a second one is text in front of the first line
    twice = tmp_path / "twice.ini"
    twice.write_bytes(b"\xef\xbb\xbf" * 2 + original.read_bytes())
    with pytest.raises(ParseError, match=r"\(line 1, column 1\)"):
        load_config(twice)


REMOVED_KEYS = [
    ("run", "seed"),
    ("run", "threads"),
    ("sim", "sign_deadzone"),
    ("sim", "fit_window_fraction"),
    ("sim", "peak_prominence"),
]


@pytest.mark.parametrize("section,key", REMOVED_KEYS, ids=[key for _section, key in REMOVED_KEYS])
def test_removed_run_key_is_unknown(section, key, tmp_path, capsys):
    # neither the config key nor the command-line flag of a [run] key exists any more
    text = (TWO_VELOCITY_SIM if section == "sim" else TWO_VELOCITY_SCAN).replace(
        f"[{section}]\n", f"[{section}]\n{key} = 2\n"
    )
    with pytest.raises(UnknownKey, match=key):
        parse_config(text)
    cfg_path = tmp_path / "removed.ini"
    cfg_path.write_text(text)
    mode = "simulate" if section == "sim" else "upsilon-scan"
    assert main([mode, "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert key in capsys.readouterr().err
    if section == "sim":  # nor the library field behind it (peak_prominence_fraction)
        assert not any(f.name.startswith(key) for f in dataclasses.fields(SimConfig))
    else:
        cfg_path.write_text(TWO_VELOCITY_SCAN)
        with pytest.raises(SystemExit) as exc:
            main(["upsilon-scan", "--config", str(cfg_path), f"--{key}", "2"])
        assert exc.value.code == 2  # argparse's usage error
        assert f"--{key}" in capsys.readouterr().err


def test_cli_scan_on_shipped_config(tmp_path, configs_dir, capsys):
    out = tmp_path / "case1"
    code = main(
        ["upsilon-scan", "--config", str(configs_dir / "sec4_1.ini"), "--out", str(out)]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "admissible wave speeds: 1" in stdout
    speeds_rows = [
        line
        for line in (out / "speeds.csv").read_text().splitlines()
        if line and not line.startswith("#") and not line.startswith("c,")
    ]
    assert len(speeds_rows) == 1
    assert 0.0 < float(speeds_rows[0].split(",")[0]) < 0.23714


def test_format_config_includes_all_blocks(configs_dir):
    cfg, _h = load_config(configs_dir / "sec4_2.ini")
    text = format_config(cfg)
    for token in ("[model]", "[chem]", "[sim]", "[run]", "snapshot_interval"):
        assert token in text
    assert parse_config(text) == cfg


def test_sim_block_defaults_are_the_library_defaults():
    # a [sim] block with only its required keys builds the library's default run
    # (initial_rho included, so every InitialDensity default is checked too)
    sim_config = parse_config(TWO_VELOCITY_SIM).build_sim_config()
    for f in dataclasses.fields(SimConfig):
        if f.default is not dataclasses.MISSING:
            assert getattr(sim_config, f.name) == f.default, f.name
        elif f.default_factory is not dataclasses.MISSING:
            assert getattr(sim_config, f.name) == f.default_factory(), f.name


def test_one_model_build_per_loaded_config(configs_dir, monkeypatch):
    # sec4_2 has chi_s = 0.5, so every build of its model issues one boundary warning
    builds = []
    sim_configs = []

    def counting_build(*args):
        builds.append(args)
        return build_model(*args)

    def counting_sim_config(**kwargs):
        sim_configs.append(kwargs)
        return SimConfig(**kwargs)

    monkeypatch.setattr(cli_io_mod, "build_model", counting_build)
    monkeypatch.setattr(cli_io_mod, "SimConfig", counting_sim_config)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cfg, _h = load_config(configs_dir / "sec4_2.ini")
        sim_config = cfg.build_sim_config()
        assert sim_config.model is cfg.build_model()
        assert cfg.build_sim_config() is sim_config
    assert len(builds) == 1
    assert len(sim_configs) == 1  # the one parse_config validated is the one simulate runs
    assert sum(issubclass(w.category, SensitivityBoundaryWarning) for w in caught) == 1
    # a replaced config builds its own model; the kept model takes no part in equality
    other = dataclasses.replace(cfg, chi_n=0.4)
    assert other.build_model().chi_n == 0.4 and cfg.build_model().chi_n == 0.45
    assert len(builds) == 2
    assert parse_config(format_config(cfg)) == cfg


def test_sim_block_without_chem_is_a_missing_key(tmp_path, configs_dir, capsys):
    # a SimConfig needs ChemParams, so a [sim] block without [chem] cannot be checked
    text = (configs_dir / "sec4_2.ini").read_text()
    text = re.sub(r"(?s)\[chem\].*?\n\n", "", text)
    text = re.sub(r"(?m)^cells = .*$", "cells = 3", re.sub(r"(?m)^cfl = .*$", "cfl = 7", text))
    assert "[chem]" not in text and "[sim]" in text
    with pytest.raises(MissingKey, match=r"\[sim\] section requires a \[chem\] section"):
        parse_config(text)
    cfg_path = tmp_path / "no_chem.ini"
    cfg_path.write_text(text)
    assert main(["validate", "--config", str(cfg_path)]) == 2
    assert "[sim] section requires a [chem] section" in capsys.readouterr().err


@pytest.mark.parametrize("cells,t_end,interval", [("64", "0.02", "1e-300"), ("256", "1", "1e-9")])
def test_snapshot_interval_far_below_the_step_takes_one_snapshot_per_step(
    cells, t_end, interval, tmp_path, configs_dir, capsys
):
    # stepping the schedule one interval at a time, 1e-300 never gets past t = 0.02
    # and 1e-9 takes a billion steps to reach t = 1
    text = (configs_dir / "sec4_2.ini").read_text()
    for key, value in (("cells", cells), ("t_end", t_end), ("snapshot_interval", interval)):
        text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
    cfg_path = tmp_path / "fine.ini"
    cfg_path.write_text(text)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "sim")]) == 0
    capsys.readouterr()
    dt = parse_config(text).build_sim_config().default_dt()
    steps = int(np.ceil(float(t_end) / dt))
    snapshots = sorted((tmp_path / "sim").glob("snapshot_*.csv"))
    assert len(snapshots) == steps + 1
    times = [float(p.read_text().split("# t=")[1].split("\n")[0]) for p in snapshots]
    assert times[0] == 0.0 and np.all(np.diff(times) > 0.0)
    assert times[-1] == pytest.approx(float(t_end), rel=1e-12)
