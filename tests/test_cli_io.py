from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import chemowave.cauchy_sim as cauchy_sim_mod
import chemowave.cli_io as cli_io_mod
import chemowave.wave_speed as wave_speed_mod
from chemowave.cli_io import (
    SimBlock,
    emit_speeds_summary,
    emit_upsilon_csv,
    format_config,
    load_config,
    main,
    parse_config,
)
from chemowave.cauchy_sim import SimConfig
from chemowave.errors import (
    AsymmetricSet,
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
samples_per_interval = 8
"""

TWO_VELOCITY_SIM = TWO_VELOCITY_SCAN.replace(
    "[run]", "[sim]\ndomain_length = 20\ncells = 128\nt_end = 1\n\n[run]"
)


def _with_profile_speed(speed) -> str:
    return TWO_VELOCITY_SCAN.replace("[run]\n", f"[run]\nprofile_speed = {speed}\n")


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
    text = "[model]\nvelocities = 1\nweights = abc\nchi_s = 0.3\nchi_n = 0.1\n"
    with pytest.raises(ParseError, match="line 3"):
        parse_config(text)
    with pytest.raises(ParseError, match="line 2"):
        parse_config("[model]\nvelocities 1\n")
    with pytest.raises(ParseError, match="before any"):
        parse_config("velocities = 1\n")
    with pytest.raises(ParseError, match="duplicate key"):
        parse_config("[model]\nchi_s = 0.1\nchi_s = 0.2\n")
    with pytest.raises(ParseError, match="mode must be"):
        parse_config(TWO_VELOCITY_SCAN, mode="dance")


def test_mode_requirements():
    model_only = "[model]\nvelocities = 1\nweights = 0.5\nchi_s = 0.3\nchi_n = 0.15\n"
    with pytest.raises(MissingKey, match=r"^mode 'upsilon-scan' requires a \[chem\] section$"):
        parse_config(model_only, mode="upsilon-scan")
    with pytest.raises(MissingKey, match=r"^mode 'profile' requires 'profile_speed' in \[run\]$"):
        parse_config(TWO_VELOCITY_SCAN, mode="profile")
    with pytest.raises(MissingKey, match=r"^mode 'simulate' requires a \[sim\] section$"):
        parse_config(TWO_VELOCITY_SCAN, mode="simulate")
    # without a mode no mode's needs are checked: [model] alone is a config
    cfg = parse_config(model_only)
    assert cfg.mode is None and cfg.chem is None and cfg.profile_speed is None
    assert parse_config(TWO_VELOCITY_SCAN, mode="upsilon-scan").mode == "upsilon-scan"


def _assert_refused(text, mode, message, tmp_path, capsys):
    """``mode`` on a config of ``text`` exits 2 with ``message`` and writes nothing."""
    cfg_path = tmp_path / "refused.ini"
    cfg_path.write_text(text)
    assert main([mode, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"invalid config: {message}\n"
    assert not (tmp_path / "out").exists()


MODEL_INPUT_CHECKS = {  # name -> ([model] keys replaced, the AsymmetricSet message)
    "half_lists_of_different_lengths": ({"velocities": "0.5 1"}, "velocity and weight half-lists have different lengths"),
    "nan_velocity": ({"velocities": "nan"}, "velocities and weights must be finite"),
    "inf_velocity": ({"velocities": "inf"}, "velocities and weights must be finite"),
    "nan_weight": ({"weights": "nan"}, "velocities and weights must be finite"),
    "inf_weight": ({"weights": "inf"}, "velocities and weights must be finite"),
    "repeated_velocity": ({"velocities": "1 1", "weights": "0.25 0.25"}, "velocities must be distinct"),
    "all_weight_on_v_0": (
        {"velocities": "0 1", "weights": "1 0"}, "active set must contain at least one +/- velocity pair"
    ),
}


@pytest.mark.parametrize("case", MODEL_INPUT_CHECKS)
def test_model_input_checks_are_config_errors(case, tmp_path, capsys):
    keys, message = MODEL_INPUT_CHECKS[case]
    text = TWO_VELOCITY_SCAN
    for key, value in keys.items():
        text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
    with pytest.raises(AsymmetricSet) as exc:
        parse_config(text)
    assert str(exc.value) == f"in [model]: {message}"
    _assert_refused(text, "validate", str(exc.value), tmp_path, capsys)


@pytest.mark.parametrize("raw", ["false", "no", "0"])
def test_snapshot_f_parses_false(raw):
    text = TWO_VELOCITY_SIM.replace("t_end = 1\n", f"t_end = 1\nsnapshot_f = {raw}\n")
    assert parse_config(text, mode="simulate").sim.snapshot_f is False


def test_structural_config_errors_name_their_place(tmp_path, capsys):
    # a bad value's column is that of its first character, after any spaces
    maybe = TWO_VELOCITY_SIM.replace("t_end = 1\n", "t_end = 1\nsnapshot_f = maybe\n")
    tight = TWO_VELOCITY_SIM.replace("t_end = 1\n", "t_end = 1\nsnapshot_f=maybe\n")
    repeated = TWO_VELOCITY_SIM + "\n[sim]\ncells = 64\n"
    no_model = TWO_VELOCITY_SCAN.replace("[model]\nvelocities = 1\nweights = 0.5\nchi_s = 0.3\nchi_n = 0.15\n", "")
    for text, error, message in (
        (maybe, ParseError, "bad value 'maybe' for 'snapshot_f': not a boolean: 'maybe' (line 19, column 14)"),
        (tight, ParseError, "bad value 'maybe' for 'snapshot_f': not a boolean: 'maybe' (line 19, column 12)"),
        (repeated, ParseError, "duplicate section [sim] (line 23, column 1)"),
        (no_model, MissingKey, "missing required section [model]"),
    ):
        with pytest.raises(error) as exc:
            parse_config(text)
        assert str(exc.value) == message
        _assert_refused(text, "simulate", message, tmp_path, capsys)


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


def test_validate_creates_no_output_directory(tmp_path, configs_dir, capsys):
    # validate writes no file, so a new --out stays absent
    out = tmp_path / "v"
    assert main(["validate", "--config", str(configs_dir / "sec4_1.ini"), "--out", str(out)]) == 0
    assert "speed window" in capsys.readouterr().out
    assert not out.exists()


def test_cli_profile_mode(tmp_path, configs_dir, capsys):
    text = _with_profile_speed(0.25)
    cfg_path = tmp_path / "prof.ini"
    cfg_path.write_text(text)
    assert main(["profile", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    header = (tmp_path / "profile.csv").read_text().splitlines()
    cols = [line for line in header if not line.startswith("#")][0]
    assert cols == "z,rho,I,s,n,f_0,f_1"
    # sec4_1 at its root: the nutrient lies in (0, 1] and never decreases along z
    sec4_1 = (configs_dir / "sec4_1.ini").read_text()
    cfg_path.write_text(sec4_1.replace("[run]\n", "[run]\nprofile_speed = 0.05246996633768716\n"))
    assert main(["profile", "--config", str(cfg_path), "--out", str(tmp_path / "root")]) == 0
    names, table = _read_table(tmp_path / "root" / "profile.csv")
    n = table[:, names.split(",").index("n")]
    assert np.all((n > 0.0) & (n <= 1.0)) and np.all(np.diff(n) >= 0.0)
    capsys.readouterr()
    # and at its velocity node 0.0848: exit 2, the speed named once in the one stderr line
    cfg_path.write_text(sec4_1.replace("[run]\n", "[run]\nprofile_speed = 0.0848\n"))
    assert main(["profile", "--config", str(cfg_path), "--out", str(tmp_path / "node")]) == 2
    assert capsys.readouterr().err == "validation error: at c=0.0848: speed collides with a velocity node\n"


def test_cli_simulate_mode(tmp_path):
    text = TWO_VELOCITY_SCAN + (
        "\n[sim]\ndomain_length = 10\ncells = 64\nt_end = 2\nsnapshot_interval = 1\n"
    )
    cfg_path = tmp_path / "sim.ini"
    cfg_path.write_text(text)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "sim")]) == 0
    assert (tmp_path / "sim" / "diagnostics.csv").exists()
    assert (tmp_path / "sim" / "snapshot_0000.csv").exists()
    assert (tmp_path / "sim" / "snapshot_0002.csv").exists()


def _step_per_snapshot_config(tmp_path):
    """A short two-velocity simulation that takes one snapshot after every step."""
    text = TWO_VELOCITY_SCAN + (
        "\n[sim]\ndomain_length = 10\ncells = 64\nt_end = 2\nsnapshot_interval = 1e-9\n"
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


def test_simulate_refuses_a_directory_that_holds_another_run(tmp_path, monkeypatch, capsys):
    # a second run into one --out used to overwrite the first run's snapshots up to
    # its own count and leave the rest beside its diagnostics.csv
    text = TWO_VELOCITY_SCAN + "\n[sim]\ndomain_length = 10\ncells = 64\nt_end = 2\nsnapshot_interval = 0.5\n"
    cfg_path = tmp_path / "sim.ini"
    cfg_path.write_text(text)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(first) == ["diagnostics.csv"] + [f"snapshot_{i:04d}.csv" for i in range(5)]
    capsys.readouterr()
    cfg_path.write_text(text.replace("t_end = 2\n", "t_end = 1\n"))
    steps = _step_spy(monkeypatch)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 4
    message = f"i/o error: {out} already holds a simulation's output; give --out a directory without one\n"
    assert capsys.readouterr().err == message
    assert not steps
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first
    # a failed run leaves snapshots without diagnostics.csv: they are a run's output too
    (out / "diagnostics.csv").unlink()
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 4
    assert capsys.readouterr().err == message
    assert not steps
    assert sorted(p.name for p in out.iterdir()) == sorted(first)[1:]


def _read_table(path) -> tuple[str, np.ndarray]:
    """The column names and the parsed rows of an emitted CSV."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return lines[0], np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


def test_snapshot_velocity_columns_are_the_run_s_f(tmp_path, configs_dir):
    text = (configs_dir / "sec4_2.ini").read_text()
    for key, value in (("cells", "128"), ("t_end", "2")):
        text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
    for flag in ("true", "false"):
        (tmp_path / f"{flag}.ini").write_text(text.replace("[sim]\n", f"[sim]\nsnapshot_f = {flag}\n"))
        assert main(["simulate", "--config", str(tmp_path / f"{flag}.ini"), "--out", str(tmp_path / flag)]) == 0
    snaps = []
    cauchy_sim_mod.run(load_config(tmp_path / "true.ini", mode="simulate")[0].build_sim_config(), snaps.append)
    written = sorted((tmp_path / "true").glob("snapshot_*.csv"))
    assert len(written) == len(snaps) == 3  # t = 0, 1 and 2
    # diagnostics.csv reports the component count and has one peak-track row per snapshot
    diagnostics = (tmp_path / "true" / "diagnostics.csv").read_text().splitlines()
    assert any(line.startswith("# n_components=") for line in diagnostics)
    assert _read_table(tmp_path / "true" / "diagnostics.csv")[1].shape == (len(written), 2)
    for path, snap in ((written[0], snaps[0]), (written[-1], snaps[-1])):
        names, table = _read_table(path)
        assert names == "x,rho,s,n," + ",".join(f"f_{k}" for k in range(18))
        assert snap.f.shape == (18, 128)
        assert table[:, 4:].T.tobytes() == snap.f.tobytes()  # bit for bit, the sign of a zero included
    for path in (tmp_path / "false").glob("snapshot_*.csv"):
        names, table = _read_table(path)
        assert names == "x,rho,s,n" and table.shape == (128, 4)


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


def test_simulate_with_a_non_finite_field_is_a_numerical_failure(configs_dir, tmp_path, capsys):
    # beta = 1e308 overflows S; its NaN fails every comparison of the negativity
    # check, and such a run used to write NaN fields and exit 0
    text = (configs_dir / "sec4_2.ini").read_text()
    for old, new in (
        ("beta = 1\n", "beta = 1e308\n"),
        ("alpha = 10\n", "alpha = 1e-3\n"),
        ("cells = 2048\n", "cells = 256\n"),
        ("t_end = 100\n", "t_end = 10\n"),
        ("snapshot_interval = 1\n", "snapshot_interval = 0.5\n"),
    ):
        assert old in text
        text = text.replace(old, new)
    cfg_path = tmp_path / "overflow.ini"
    cfg_path.write_text(text)
    out = tmp_path / "sim"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy's overflow warnings precede the check
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 3
    assert re.search(r"numerical failure: non-finite chemical field s at t=\d", capsys.readouterr().err)
    assert not (out / "diagnostics.csv").exists()
    for snapshot in out.glob("snapshot_*.csv"):
        assert "nan" not in snapshot.read_text()


@pytest.mark.parametrize(
    "mode,key,value,module,callee",
    [
        ("simulate", "cells", "10000000000000", cauchy_sim_mod, "cell_centers"),
        ("upsilon-scan", "samples_per_interval", "100000000000", wave_speed_mod, "_chebyshev_points"),
    ],
    ids=["simulate", "upsilon-scan"],
)
def test_an_allocation_too_large_is_a_numerical_failure(
    mode, key, value, module, callee, tmp_path, monkeypatch, capsys
):
    # these values used to end in numpy's _ArrayMemoryError traceback (exit 1); the callee
    # that allocated first raises the error here, so that no host tries to touch 73 TiB
    message = f"Unable to allocate an array for {key} = {value}"

    def too_large(*args):
        raise MemoryError(message)

    monkeypatch.setattr(module, callee, too_large)
    cfg_path = tmp_path / "large.ini"
    cfg_path.write_text(re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", TWO_VELOCITY_SIM))
    assert main([mode, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"numerical failure: not enough memory: {message}\n"


def test_cli_exit_codes(tmp_path, capsys):
    # 4: unreadable config
    assert main(["validate", "--config", str(tmp_path / "nope.ini")]) == 4
    # 2: validation failures (bad sensitivity; requested speed outside window)
    bad = tmp_path / "bad.ini"
    bad.write_text(TWO_VELOCITY_SCAN.replace("chi_s = 0.3", "chi_s = 0.7"))
    assert main(["validate", "--config", str(bad)]) == 2
    fast = tmp_path / "fast.ini"
    fast.write_text(_with_profile_speed(0.9))
    assert main(["profile", "--config", str(fast)]) == 2
    # 3: numerical failure (numerically coincident velocity nodes)
    knot = tmp_path / "knot.ini"
    knot.write_text(
        _with_profile_speed(0.1).replace(
            "velocities = 1\nweights = 0.5",
            "velocities = 0.5 0.50000000000000011\nweights = 0.25 0.25",
        )
    )
    assert main(["profile", "--config", str(knot)]) == 3
    capsys.readouterr()


def test_cli_validates_equal_sensitivities(tmp_path, configs_dir, capsys):
    text = (configs_dir / "sec4_1.ini").read_text().replace("chi_s = 0.3", "chi_s = 0.4")
    cfg_path = tmp_path / "equal.ini"
    cfg_path.write_text(text.replace("chi_n = 0.15", "chi_n = 0.4"))
    assert main(["validate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    assert "c_lower=0 " in capsys.readouterr().out


def test_smallest_normal_beta_keeps_the_two_waves_and_a_subnormal_one_is_refused(tmp_path, configs_dir, capsys):
    # S is linear in beta: at a subnormal beta, sec4_2 found no admissible speed and sec4_1 a wrong one
    text = (configs_dir / "sec4_2.ini").read_text()
    cfg_path = tmp_path / "beta.ini"
    cfg_path.write_text(re.sub(r"(?m)^beta = .*$", "beta = 1e-320", text))
    assert main(["upsilon-scan", "--config", str(cfg_path), "--out", str(tmp_path / "subnormal")]) == 2
    err = capsys.readouterr().err
    assert err == "invalid config: in [chem]: beta must be 0 or at least 2.2250738585072014e-308, got 1e-320\n"
    cfg_path.write_text(re.sub(r"(?m)^beta = .*$", "beta = 2.2250738585072014e-308", text))
    assert main(["upsilon-scan", "--config", str(cfg_path), "--out", str(tmp_path / "tiny")]) == 0
    rows = (tmp_path / "tiny" / "speeds.csv").read_text().splitlines()[3:]
    assert [float(row.split(",")[0]) for row in rows] == [0.024592930214359474, 0.14153597953274014]


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
@pytest.mark.parametrize("key", ["domain_length", "t_end"])
def test_non_finite_sim_value_is_a_config_error(key, value, tmp_path, capsys):
    # t_end = inf used to run forever; domain_length = nan ran on
    text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", TWO_VELOCITY_SIM)
    with pytest.raises(ConfigError, match=r"in \[sim\]: .*must be finite and positive"):
        parse_config(text, mode="simulate")
    cfg_path = tmp_path / "sim.ini"
    cfg_path.write_text(text)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "must be finite and positive" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "length,message",
    [
        ("1e-160", "cell width domain_length / cells = 7.8125e-163 lies outside"),  # dx**2 underflows to 0
        ("1e-150", "makes the implicit diffusion matrix singular"),  # 1 + 2r == 2r at r = 5.76e151
        ("1e300", "cell width domain_length / cells = 7.8125e+297 lies outside"),  # dx**2 overflows
    ],
)
def test_mesh_without_a_diffusion_solve_is_a_config_error(length, message, tmp_path, capsys):
    # these used to end in a ZeroDivisionError, LinAlgError or OverflowError traceback (exit 1)
    text = TWO_VELOCITY_SIM.replace("domain_length = 20\n", f"domain_length = {length}\n")
    with pytest.raises(ConfigError, match=rf"in \[sim\]: .*{re.escape(message)}"):
        parse_config(text, mode="simulate")
    cfg_path = tmp_path / "sim.ini"
    cfg_path.write_text(text)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_run_mode_is_an_unknown_key(tmp_path, capsys):
    # the command line names the mode; a config that names one too is refused
    cfg_path = tmp_path / "two.ini"
    for mode in ("simulate", "dance"):
        cfg_path.write_text(TWO_VELOCITY_SCAN.replace("[run]\n", f"[run]\nmode = {mode}\n"))
        with pytest.raises(UnknownKey, match=r"^unknown key 'mode' in section \[run\] \(line 16\)$"):
            load_config(cfg_path)
        assert main(["validate", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == "invalid config: unknown key 'mode' in section [run] (line 16)\n"
    assert "\nmode = " not in format_config(parse_config(TWO_VELOCITY_SCAN, mode="upsilon-scan"))
    # a config of [model] alone validates: [run] is optional
    cfg_path.write_text(TWO_VELOCITY_SCAN.partition("[chem]")[0])
    assert main(["validate", "--config", str(cfg_path)]) == 0
    assert "speed window" in capsys.readouterr().out


def test_cli_mode_is_checked_once_for_the_mode_that_runs(tmp_path, capsys):
    # validate needs neither [chem] nor profile_speed, profile needs both
    cfg_path = tmp_path / "scan.ini"
    cfg_path.write_text(TWO_VELOCITY_SCAN)
    assert main(["validate", "--config", str(cfg_path)]) == 0
    assert load_config(cfg_path, mode="validate")[0].mode == "validate"
    assert main(["profile", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == "invalid config: mode 'profile' requires 'profile_speed' in [run]\n"
    with pytest.raises(MissingKey, match="profile_speed"):
        load_config(cfg_path, mode="profile")
    cfg_path.write_text(TWO_VELOCITY_SCAN.partition("[chem]")[0])
    assert main(["upsilon-scan", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "invalid config: mode 'upsilon-scan' requires a [chem] section\n"
    assert not list(tmp_path.glob("*.csv"))


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
    text = _with_profile_speed(speed)
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
    ("run", "out_dir"),  # --out is the one way to name the output directory
    ("sim", "sign_deadzone"),
    ("sim", "fit_window_fraction"),
    ("sim", "peak_prominence"),
    ("sim", "initial_center"),  # every run starts from the default block against the left wall
    ("sim", "initial_width"),
    ("sim", "initial_shape"),  # every run starts from a block
    ("sim", "initial_n"),  # and in N = 1, the construction's N_+
    ("sim", "initial_mass"),  # and of unit mass; a run of mass M is the unit-mass run at gamma * M
    ("sim", "cfl"),  # the Courant number is the scheme constant cauchy_sim.CFL
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


def test_unknown_log_level_is_a_validation_error(configs_dir):
    src = Path(cli_io_mod.__file__).resolve().parents[1]
    env = {
        **os.environ,
        "CHEMOWAVE_LOG": "verbose",
        "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]),
    }
    proc = subprocess.run(
        [sys.executable, "-m", "chemowave.cli_io", "validate", "--config", str(configs_dir / "sec4_1.ini")],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "invalid environment: CHEMOWAVE_LOG='verbose' is not a logging level name\n"


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
    c, residual = (float(x) for x in speeds_rows[0].split(","))
    assert 0.0 < c < 0.23714
    # the printed |Upsilon| is the residual written to speeds.csv
    assert f"|Upsilon|={abs(residual):.3e}  " in stdout
    # sec4_3 has no admissible root: a success whose speeds.csv says so in its last line
    out = tmp_path / "case3"
    assert main(["upsilon-scan", "--config", str(configs_dir / "sec4_3.ini"), "--out", str(out)]) == 0
    assert "admissible wave speeds: 0" in capsys.readouterr().out
    assert (out / "speeds.csv").read_text().splitlines()[-1] == "# status=no_wave"


def test_format_config_includes_all_blocks(configs_dir):
    cfg, _h = load_config(configs_dir / "sec4_2.ini")
    text = format_config(cfg)
    for token in ("[model]", "[chem]", "[sim]", "[run]", "snapshot_interval"):
        assert token in text
    assert parse_config(text) == cfg


def test_sim_block_defaults_are_the_library_defaults():
    # a [sim] block with only its required keys builds the library's default run
    cfg = parse_config(TWO_VELOCITY_SIM)
    sim_config = cfg.build_sim_config()
    # the [sim] keys are SimConfig's fields after model and params, under the same names
    assert [f.name for f in dataclasses.fields(SimBlock)] == [f.name for f in dataclasses.fields(SimConfig)][2:]
    # the start's mass is no key, but stays readable where it always was
    assert cfg.sim.initial_mass == sim_config.initial_rho.mass == 1.0
    for f in dataclasses.fields(SimConfig):
        if f.default is not dataclasses.MISSING:
            assert getattr(sim_config, f.name) == f.default, f.name


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
    text = re.sub(r"(?m)^cells = .*$", "cells = 3", re.sub(r"(?m)^t_end = .*$", "t_end = -1", text))
    assert "[chem]" not in text and "[sim]" in text
    with pytest.raises(MissingKey, match=r"in \[sim\]: a simulation requires both \[chem\] and \[sim\] sections"):
        parse_config(text, mode="validate")
    cfg_path = tmp_path / "no_chem.ini"
    cfg_path.write_text(text)
    assert main(["validate", "--config", str(cfg_path)]) == 2
    assert "a simulation requires both [chem] and [sim] sections" in capsys.readouterr().err


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
