"""Configuration parsing, CSV emission and the ``chemowave`` command line.

Configuration files are flat INI-style text with sections [model], [chem],
[sim] and [run].  A section's keys are the fields of the dataclass that holds
them (ChemParams, SimBlock, RunConfig): a field's annotation gives the value's
type and a field without a default is a required key.  Unknown keys are
errors, not warnings, and every numeric output is serialized with 17
significant digits so files re-parse to the exact in-memory doubles.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import logging
import os
import pickle
import re
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .cauchy_sim import InitialDensity, SimConfig, run
from .chemo_fields import ChemParams, s_slope_at_zero, solve_N, solve_S
from .errors import (
    ChemowaveError,
    ConfigError,
    MissingKey,
    ModelError,
    NumericalError,
    ParseError,
    UnknownKey,
)
from .velocity_model import (
    VelocityModel,
    admissible_speed_interval,
    build_model,
    expand_half_set,
)
from .wave_profile import (
    WaveProfile,
    evaluate_f_matrix,
    evaluate_I,
    solve_modes,
    verification_grid,
)
from .wave_speed import (
    MIN_SAMPLES_PER_INTERVAL,
    SAMPLES_PER_INTERVAL,
    UpsilonCurve,
    refine_roots,
    scan,
    verify_root,
)

logger = logging.getLogger(__name__)

_SECTION_RE = re.compile(r"^\[([A-Za-z_][A-Za-z0-9_]*)\]$")


@dataclass(frozen=True)
class SimBlock:
    domain_length: float
    cells: int
    cfl: float
    t_end: float
    initial_shape: str = InitialDensity.kind
    initial_center: float | None = InitialDensity.center
    initial_width: float | None = InitialDensity.width
    initial_mass: float = InitialDensity.mass
    initial_n: float = SimConfig.initial_n
    snapshot_interval: float | None = SimConfig.snapshot_interval
    snapshot_f: bool = SimConfig.keep_velocity_snapshots


def _kept(build):
    """Method decorator: the value ``build(self)`` gives on first use, kept in the instance dict.

    The value sits outside the dataclass fields, so eq, repr and replace ignore it.
    """
    name = "_" + build.__name__

    @functools.wraps(build)
    def kept(self):
        value = self.__dict__.get(name)
        if value is None:
            value = build(self)
            object.__setattr__(self, name, value)
        return value

    return kept


@dataclass(frozen=True)
class RunConfig:
    """Parsed and validated run description; its model and SimConfig are built once, on first use."""

    mode: str
    velocities: tuple[float, ...]       # nonnegative half of the symmetric set
    weights: tuple[float, ...]
    chi_s: float
    chi_n: float
    chem: ChemParams | None = None
    sim: SimBlock | None = None
    samples_per_interval: int = SAMPLES_PER_INTERVAL
    profile_speed: float | None = None

    def __post_init__(self):
        if self.samples_per_interval < MIN_SAMPLES_PER_INTERVAL:
            raise ValueError(
                f"samples_per_interval must be at least {MIN_SAMPLES_PER_INTERVAL}, "
                f"got {self.samples_per_interval}"
            )
        if self.profile_speed is not None and not 0.0 < self.profile_speed < float("inf"):
            raise ValueError(f"profile_speed must be finite and positive, got {self.profile_speed!r}")

    @_kept
    def build_model(self) -> VelocityModel:
        v, w = expand_half_set(list(self.velocities), list(self.weights))
        return build_model(v, w, self.chi_s, self.chi_n)

    @_kept
    def build_sim_config(self) -> SimConfig:
        if self.chem is None or self.sim is None:
            raise MissingKey("a simulation requires both [chem] and [sim] sections")
        s = self.sim
        return SimConfig(
            model=self.build_model(),
            params=self.chem,
            domain_length=s.domain_length,
            cells=s.cells,
            cfl=s.cfl,
            t_end=s.t_end,
            initial_rho=InitialDensity(
                kind=s.initial_shape, center=s.initial_center, width=s.initial_width, mass=s.initial_mass
            ),
            initial_n=s.initial_n,
            snapshot_interval=s.snapshot_interval,
            keep_velocity_snapshots=s.snapshot_f,
        )


def _g17(x: float) -> str:
    return f"{float(x):.17g}"


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


# field annotation, "| None" dropped -> (parse, format) of the config value
_VALUE_TYPES = {
    "float": (float, _g17),
    "int": (int, str),
    "bool": (_parse_bool, lambda value: "true" if value else "false"),
    "str": (str, str),
    "tuple[float, ...]": (
        lambda raw: tuple(float(p) for p in re.split(r"[,\s]+", raw.strip()) if p),
        lambda value: " ".join(_g17(v) for v in value),
    ),
}
_MODEL_KEYS = ("velocities", "weights", "chi_s", "chi_n")  # RunConfig's other own fields are [run]


def _keys(holder: type, skip: tuple[str, ...] = ()) -> dict[str, tuple[tuple, bool]]:
    """key -> ((parse, format), required) for the fields of a dataclass; no default means required."""
    return {
        f.name: (_VALUE_TYPES[f.type.removesuffix(" | None")], f.default is MISSING and f.default_factory is MISSING)
        for f in fields(holder)
        if f.name not in skip
    }


_RUN_FIELDS = _keys(RunConfig, skip=("chem", "sim"))
# section -> key -> ((parse, format), required), in the order format_config writes them
_SCHEMA: dict[str, dict[str, tuple[tuple, bool]]] = {
    "model": {key: _RUN_FIELDS[key] for key in _MODEL_KEYS},
    "chem": _keys(ChemParams),
    "sim": _keys(SimBlock),
    "run": {key: spec for key, spec in _RUN_FIELDS.items() if key not in _MODEL_KEYS},
}


def _convert(raw: str, section: str, key: str, line: int, column: int):
    (parse, _format), _required = _SCHEMA[section][key]
    try:
        return parse(raw)
    except ValueError as exc:
        raise ParseError(f"bad value {raw!r} for {key!r}: {exc}", line=line, column=column) from exc


@contextmanager
def _section(name: str):
    """Prefix a ValueError raised in the block with its section; a package error keeps its class."""
    try:
        yield
    except ValueError as exc:
        cls = type(exc) if isinstance(exc, ChemowaveError) else ConfigError
        raise cls(f"in [{name}]: {exc}") from exc


def _parse_sections(text: str) -> dict[str, dict[str, object]]:
    sections: dict[str, dict[str, object]] = {}
    current: str | None = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        m = _SECTION_RE.match(line)
        if m:
            name = m.group(1)
            if name not in _SCHEMA:
                raise UnknownKey(f"unknown section [{name}] (line {lineno})")
            if name in sections:
                raise ParseError(f"duplicate section [{name}]", line=lineno, column=1)
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ParseError("expected 'key = value' or a [section] header", line=lineno, column=1)
        if current is None:
            raise ParseError("key/value pair before any [section] header", line=lineno, column=1)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA[current]:
            raise UnknownKey(f"unknown key {key!r} in section [{current}] (line {lineno})")
        if key in sections[current]:
            raise ParseError(f"duplicate key {key!r} in section [{current}]", line=lineno, column=1)
        sections[current][key] = _convert(value, current, key, lineno, rawline.index("=") + 2)
    return sections


def parse_config(text: str, mode: str | None = None) -> RunConfig:
    """Parse and fully validate a configuration file.

    ``mode``, when given, replaces the file's ``[run] mode`` before the
    mode's requirements are checked (the command line's mode wins).
    Raises :class:`ParseError` / :class:`UnknownKey` / :class:`MissingKey`
    for structural problems and the specific model errors (with key context)
    for semantic ones.
    """
    sections = _parse_sections(text)

    for section, keys in _SCHEMA.items():
        if section in sections:
            for key, (_row, required) in keys.items():
                if required and key not in sections[section]:
                    raise MissingKey(f"missing required key {key!r} in section [{section}]")
    if "model" not in sections:
        raise MissingKey("missing required section [model]")
    if "run" not in sections:
        raise MissingKey("missing required section [run]")
    if "sim" in sections and "chem" not in sections:  # a SimConfig needs ChemParams
        raise MissingKey("a [sim] section requires a [chem] section")

    run_sec = sections["run"]
    mode = run_sec["mode"] if mode is None else mode
    if mode not in _MODES:
        raise ParseError(f"mode must be one of {tuple(_MODES)}, got {mode!r}")
    for need in _MODES[mode][1]:
        if need in _SCHEMA and need not in sections:
            raise MissingKey(f"mode {mode!r} requires a [{need}] section")
        if need in _SCHEMA["run"] and need not in run_sec:
            raise MissingKey(f"mode {mode!r} requires {need!r} in [run]")

    with _section("chem"):
        chem = ChemParams(**sections["chem"]) if "chem" in sections else None
    sim = SimBlock(**sections["sim"]) if "sim" in sections else None
    with _section("run"):
        cfg = RunConfig(**sections["model"], **{**run_sec, "mode": mode}, chem=chem, sim=sim)
    with _section("model"):
        cfg.build_model()
    if cfg.sim is not None:
        with _section("sim"):
            cfg.build_sim_config()
    return cfg


def format_config(cfg: RunConfig) -> str:
    """Serialize a RunConfig in schema order (17-digit floats); None values are omitted."""
    holders = {"model": cfg, "chem": cfg.chem, "sim": cfg.sim, "run": cfg}
    blocks = []
    for section, keys in _SCHEMA.items():
        holder = holders[section]
        if holder is None:
            continue
        lines = [f"[{section}]"]
        for key, ((_parse, format_value), _required) in keys.items():
            value = getattr(holder, key)
            if value is not None:
                lines.append(f"{key} = {format_value(value)}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def load_config(path: str | Path, mode: str | None = None) -> tuple[RunConfig, str]:
    """Read a config file; returns (config, provenance hash of the raw text).

    One leading UTF-8 byte-order mark, as some editors write it, is dropped
    before parsing and hashing, so it changes neither the config nor its hash.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8: {exc.reason}", line=data.count(b"\n", 0, exc.start) + 1) from exc
    # the newlines Path.read_text gives, so config_sha256 hashes the same text as ever
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    return parse_config(text, mode), hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def _header_lines(config_hash: str | None) -> list[str]:
    lines = [f"# chemowave {__version__}"]
    if config_hash:
        lines.append(f"# config_sha256={config_hash}")
    return lines


def _write_csv(
    path: str | Path, head: list[str], columns: str, table: np.ndarray, foot: tuple[str, ...] = ()
) -> None:
    """Write comment lines, the column names, one 17-digit row per table row and trailing comments."""
    template = ",".join(["%.17g"] * table.shape[1])
    rows = [template % tuple(row.tolist()) for row in table]
    Path(path).write_text("\n".join([*head, columns, *rows, *foot]) + "\n", encoding="utf-8")


def emit_upsilon_csv(curve: UpsilonCurve, path: str | Path, config_hash: str | None = None) -> None:
    """Write the sampled curve: columns c, upsilon, interval_id (ascending c)."""
    table = np.array(
        [(c, y, seg.interval_id) for seg in curve.intervals for c, y in zip(seg.c, seg.upsilon)],
        dtype=float,
    ).reshape(-1, 3)
    _write_csv(path, _header_lines(config_hash), "c,upsilon,interval_id", table)


def emit_speeds_summary(
    roots: list[float],
    path: str | Path,
    residuals: list[float],
    config_hash: str | None = None,
) -> None:
    """Write refined wave speeds with their Upsilon residuals; an empty list gets a status=no_wave footer."""
    table = np.array(list(zip(roots, residuals)), dtype=float).reshape(-1, 2)
    foot = () if roots else ("# status=no_wave",)
    _write_csv(path, _header_lines(config_hash), "c,upsilon_residual", table, foot)


def emit_profile_csv(
    profile: WaveProfile,
    sfield,
    nfield,
    path: str | Path,
    config_hash: str | None = None,
) -> None:
    """Write z, rho, I, s, n and every f_k on the verification grid."""
    z = verification_grid(profile)
    fields = [profile.rho_modes()(z), evaluate_I(profile, z), sfield(z), nfield(z)]
    table = np.column_stack([z, *fields, evaluate_f_matrix(profile, z)])
    head = _header_lines(config_hash)
    head.append("# velocities=" + " ".join(_g17(v) for v in profile.velocities))
    cols = "z,rho,I,s,n," + ",".join(f"f_{k}" for k in range(profile.model.n_active))
    _write_csv(path, head, cols, table)


def emit_snapshot_csv(snapshot, path: str | Path, config_hash: str | None = None) -> None:
    """Write one simulation snapshot: x, rho, s, n (and f_k when recorded)."""
    head = _header_lines(config_hash) + [f"# t={_g17(snapshot.t)}"]
    cols = "x,rho,s,n"
    columns = [snapshot.x, snapshot.rho, snapshot.s, snapshot.n]
    if snapshot.f is not None:
        cols += "," + ",".join(f"f_{k}" for k in range(snapshot.f.shape[0]))
        columns.append(snapshot.f.T)
    _write_csv(path, head, cols, np.column_stack(columns))


def emit_diagnostics_csv(diagnostics, path: str | Path, config_hash: str | None = None) -> None:
    """Write the peak track (t, peak_x) plus fitted-speed metadata comments."""
    head = _header_lines(config_hash)
    head.append(f"# fitted_speed={_g17(diagnostics.fitted_speed)}")
    head.append(f"# fit_residual={_g17(diagnostics.fit_residual)}")
    head.append(f"# n_components={diagnostics.n_components}")
    _write_csv(path, head, "t,peak_x", np.array(diagnostics.peak_track, dtype=float).reshape(-1, 2))


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _mode_validate(cfg: RunConfig, out: Path, config_hash: str) -> None:
    model = cfg.build_model()
    window = admissible_speed_interval(model)
    r = model.rates
    print(f"model: {model.n_active} active velocities, v_max={_g17(model.v_max)}")
    print(
        "rates: t_mm=%s t_mp=%s t_pm=%s t_pp=%s"
        % (_g17(r.t_mm), _g17(r.t_mp), _g17(r.t_pm), _g17(r.t_pp))
    )
    print(f"speed window: c_lower={_g17(window.c_lower)} c_upper={_g17(window.c_upper)}")
    print(f"continuity intervals: {len(window.admissible_intervals)}")


def _mode_scan(cfg: RunConfig, out: Path, config_hash: str) -> None:
    model = cfg.build_model()
    curve = scan(model, cfg.chem, cfg.samples_per_interval)
    roots = refine_roots(curve, model, cfg.chem)
    emit_upsilon_csv(curve, out / "upsilon.csv", config_hash)
    emit_speeds_summary(roots, out / "speeds.csv", curve.root_residuals, config_hash)
    print(f"sampled {len(curve.samples)} speeds in {len(curve.intervals)} intervals")
    print(f"admissible wave speeds: {len(roots)}")
    for c, residual in zip(roots, curve.root_residuals):
        check = verify_root(model, cfg.chem, c)
        print(
            f"  c={_g17(c)}  |Upsilon|={abs(residual):.3e}  "
            f"S-max at z={check.maximum_location:.3e}  unimodal={check.slope_sign_changes == 1}"
        )
    if not roots:
        print("no admissible root: travelling wave construction fails for this configuration")


def _mode_profile(cfg: RunConfig, out: Path, config_hash: str) -> None:
    model = cfg.build_model()
    c = cfg.profile_speed
    profile = solve_modes(model, c)
    rho = profile.rho_modes()
    sfield = solve_S(rho, cfg.chem, c)
    nfield = solve_N(rho, cfg.chem, c, profile.halfwidth)
    emit_profile_csv(profile, sfield, nfield, out / "profile.csv", config_hash)
    print(
        f"profile at c={_g17(c)}: left/right mass {_g17(profile.left_mass)}/"
        f"{_g17(profile.right_mass)}, slowest rates "
        f"{_g17(profile.roots.slowest_negative)}/{_g17(profile.roots.slowest_positive)}"
    )
    print(f"S slope at origin: {_g17(s_slope_at_zero(rho, cfg.chem, c))}; N far-field {_g17(nfield.n_minus)}")


def _mode_simulate(cfg: RunConfig, out: Path, config_hash: str) -> None:
    # Each snapshot is pickled to an unnamed spool file in ``out`` as run()
    # hands it over, and becomes its CSV once run() returns or fails: memory
    # holds one snapshot at a time, and a disk that cannot take the spool
    # stops the run at once.  The CSVs are written after run() because
    # perfbench's tracer reads every traced call made inside run() as one of
    # its steps (ROADMAP, loose ends).
    taken = 0
    with tempfile.TemporaryFile(dir=out) as spool:

        def keep(snapshot) -> None:
            nonlocal taken
            pickle.dump(snapshot, spool, protocol=pickle.HIGHEST_PROTOCOL)
            taken += 1

        try:
            state, diagnostics = run(cfg.build_sim_config(), keep)
        finally:
            spool.seek(0)
            for i in range(taken):
                emit_snapshot_csv(pickle.load(spool), out / f"snapshot_{i:04d}.csv", config_hash)
    emit_diagnostics_csv(diagnostics, out / "diagnostics.csv", config_hash)
    print(f"integrated to t={_g17(state.t)} with {len(diagnostics.peak_track)} snapshots")
    print(
        f"front speed {_g17(diagnostics.fitted_speed)} "
        f"(rms residual {diagnostics.fit_residual:.3e}), "
        f"{diagnostics.n_components} density component(s) at final time"
    )


# mode -> (runner, the sections and [run] keys it needs beyond [model] and [run])
_MODES = {
    "validate": (_mode_validate, ()),
    "upsilon-scan": (_mode_scan, ("chem",)),
    "profile": (_mode_profile, ("chem", "profile_speed")),
    "simulate": (_mode_simulate, ("chem", "sim")),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="chemowave",
        description="Travelling-wave construction and simulation for a discrete-velocity "
        "kinetic chemotaxis model.",
    )
    parser.add_argument("mode", choices=_MODES)
    parser.add_argument("--config", required=True, help="path to the configuration file")
    parser.add_argument("--out", default=".", help="output directory (default: '.')")
    args = parser.parse_args(argv)

    level = os.environ.get("CHEMOWAVE_LOG", "WARNING")
    if not isinstance(logging.getLevelName(level.upper()), int):  # text for a name that is no level
        print(f"invalid environment: CHEMOWAVE_LOG={level!r} is not a logging level name", file=sys.stderr)
        return 2
    logging.basicConfig(level=level.upper())

    try:
        cfg, config_hash = load_config(args.config, mode=args.mode)
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 4
    except ChemowaveError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        runner, _needs = _MODES[cfg.mode]
        runner(cfg, out, config_hash)
    except (ConfigError, ModelError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
