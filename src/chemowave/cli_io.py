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
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .cauchy_sim import SimConfig, run
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
    """The [sim] keys: SimConfig's fields after model and params, under the same names."""

    domain_length: float
    cells: int
    t_end: float
    snapshot_interval: float | None = SimConfig.snapshot_interval

    initial_mass = SimConfig.initial_rho.mass  # the start's mass; no key


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

    velocities: tuple[float, ...]       # nonnegative half of the symmetric set
    weights: tuple[float, ...]
    chi_s: float
    chi_n: float
    chem: ChemParams | None = None
    sim: SimBlock | None = None
    samples_per_interval: int = SAMPLES_PER_INTERVAL
    profile_speed: float | None = None
    mode: str | None = None  # the mode whose needs parse_config checked; not a config key

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
        return SimConfig(model=self.build_model(), params=self.chem, **asdict(self.sim))


def _g17(x: float) -> str:
    return f"{float(x):.17g}"


# field annotation, "| None" dropped -> (parse, format) of the config value
_VALUE_TYPES = {
    "float": (float, _g17),
    "int": (int, str),
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


_RUN_FIELDS = _keys(RunConfig, skip=("chem", "sim", "mode"))
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
        column = len(rawline) - len(rawline.partition("=")[2].lstrip()) + 1  # the value's first character
        sections[current][key] = _convert(value, current, key, lineno, column)
    return sections


def parse_config(text: str, mode: str | None = None) -> RunConfig:
    """Parse and fully validate a configuration file.

    ``mode``, when given, is the mode the config is checked for: the sections
    and [run] keys it needs must be present.  Without one no mode's needs are
    checked.  Raises :class:`ParseError` / :class:`UnknownKey` / :class:`MissingKey`
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

    run_sec = sections.get("run", {})
    if mode is not None and mode not in _MODES:
        raise ParseError(f"mode must be one of {tuple(_MODES)}, got {mode!r}")
    for need in _MODES[mode][1] if mode else ():
        if need in _SCHEMA and need not in sections:
            raise MissingKey(f"mode {mode!r} requires a [{need}] section")
        if need in _SCHEMA["run"] and need not in run_sec:
            raise MissingKey(f"mode {mode!r} requires {need!r} in [run]")

    with _section("chem"):
        chem = ChemParams(**sections["chem"]) if "chem" in sections else None
    sim = SimBlock(**sections["sim"]) if "sim" in sections else None
    with _section("run"):
        cfg = RunConfig(**sections["model"], **run_sec, chem=chem, sim=sim, mode=mode)
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


# Tables are formatted as arrays with the bytes of Python's '%.17g'.  A value
# |x| in [_FAST_MIN, _FAST_MAX] gets its 17-digit significand from
# double-double arithmetic (_significands); zeros are written directly; inf,
# NaN, other magnitudes and the values the rounding bound cannot certify go
# through '%.17g' itself.
_CSV_BLOCK = (2048, 16384)  # values formatted together: an eighth of the table within these (temporaries to 3.2 MB)
_DEKKER_SPLIT = 134217729.0  # 2**27 + 1
_TIE_MARGIN = 2.0**-46
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_K_MIN, _K_MAX = -282, 282  # decimal exponents of the powers-of-ten table
_X_MIN, _X_MAX = -324, 308  # decimal exponents of the nonzero finite doubles
_E16, _E17 = 10**16, 10**17


@functools.cache
def _powers_of_ten() -> np.ndarray:
    """Rows P, P's high and low halves, and P_lo, with P + P_lo = 10**(16 - k) for k = _K_MIN .. _K_MAX.

    P is 10**(16 - k) rounded to the nearest double and P_lo the remainder
    rounded to the nearest double, both from exact integer arithmetic (an
    int / int true division is correctly rounded).  The halves are Dekker's
    split of P into two doubles of at most 26 significant bits each.
    """
    p, p_lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        q = 16 - k
        if q >= 0:
            exact = 10**q
            p.append(float(exact))
            p_lo.append(float(exact - int(p[-1])))
        else:
            den = 10**-q
            p.append(1 / den)
            num, den_p = p[-1].as_integer_ratio()
            p_lo.append((den_p - num * den) / (den_p * den))
    p = np.array(p)
    c = _DEKKER_SPLIT * p
    high = c - (c - p)
    table = np.stack([p, high, p - high, np.array(p_lo)])
    table.setflags(write=False)  # shared by every caller
    return table


def _significands(ax: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """17-digit significands D, decimal exponents k and certificates of positive doubles in the fast range.

    ``k`` is an estimate of floor(log10(ax)) that may be off by one.  The
    exact y = ax * 10**(16 - k) is found as h + t, D = rint(y) and
    ax ~= D * 10**(k - 16) to 17 significant digits.  With u = 2**-53 and
    P + P_lo + e = 10**(16 - k), |P_lo| <= u P and |e| <= u |P_lo| <= u^2 P
    (both are nearest-double roundings):

    - Dekker's product gives ax P = h + l exactly: no split or partial
      product overflows or underflows for ax in [_FAST_MIN, _FAST_MAX];
    - c = fl(ax P_lo) is within u ax |P_lo| <= u^2 ax P of ax P_lo;
    - t = fl(l + c) is within u (|l| + |c|) <= 2.01 u^2 ax P of l + c;
    - ax e, the part of 10**(16 - k) the table drops, is at most u^2 ax P.

    So |y - (h + t)| <= 4.01 u^2 ax P <= 4.02 u^2 y, which is below 2**-47
    for every kept y (below 1.01e17 < 2**56.5).  h is an integer once
    y >= 2**53 (smaller y are redone below), and f = t - rint(t) is exact, so
    y = h + rint(t) + f + err with |err| < 2**-47.  If |f| < 1/2 - 2**-46,
    h + rint(t) is y rounded to the nearest integer and y is no tie; ``sure``
    is False for every other value, which '%.17g' must then format.

    A y below 10**16 (D < 10**16, or D = 10**16 with f < 0) means k was too
    large, and a y of 10**17 + 1/2 or more (D > 10**17) that it was too
    small: those values are redone with k - 1 or k + 1, which the table holds
    for every k of the fast range.  A y within err of 10**16 gives D = 10**16
    at k from either decade, and D = 10**17 is the carry of a y in
    [10**17 - 1/2, 10**17 + 1/2], which gives D = 10**16 at k + 1 from either.
    """
    p, p_high, p_low, p_lo = _powers_of_ten().take(k - _K_MIN, axis=1)
    h = ax * p
    c = _DEKKER_SPLIT * ax
    x_high = c - (c - ax)
    x_low = ax - x_high
    t = (((x_high * p_high - h) + x_high * p_low) + x_low * p_high) + x_low * p_low
    t += ax * p_lo
    r = np.rint(t)
    f = t - r
    d = h.astype(np.int64) + r.astype(np.int64)
    sure = np.abs(f) < 0.5 - _TIE_MARGIN
    edge = np.flatnonzero((d <= _E16) | (d >= _E17))
    if edge.size:
        de, fe, ke = d[edge], f[edge], k[edge]
        low = (de < _E16) | ((de == _E16) & (fe < 0.0))
        high = de > _E17
        redo = low | high
        if redo.any():
            de[redo], ke[redo], sure[edge[redo]] = _significands(ax[edge[redo]], ke[redo] - low[redo] + high[redo])
        carry = de == _E17
        de[carry] = _E16
        d[edge] = de
        k = k.copy()
        k[edge] = ke + carry
    return d, k, sure


def _word(text: bytes) -> int:
    return int.from_bytes(text, "little")


@functools.cache
def _layout_tables() -> dict[str, np.ndarray]:
    """Lookup tables of the '%.17g' layout, with text held as little-endian uint64 words of ASCII.

    A value's text takes 32 bytes: word 0 holds its sign and "0.000" prefix,
    right-aligned; words 1-3 hold its digits and decimal point, then its
    exponent and separator (the tail), then NUL bytes.  The byte masks that
    lay out words 1-3 are indexed by a code, point * 19 + length, where point
    is the number of digits before the decimal point (18 when the prefix
    holds it) and length is the number of bytes before the tail.  ``quad``
    holds the ASCII of "%04d" % i and ``quad_zeros`` its trailing zeros.
    """
    pairs = [b"%02d" % i for i in range(100)]
    pair = np.array([_word(text) for text in pairs], np.uint64)
    pair_zeros = np.array([2 - len(text.rstrip(b"0")) for text in pairs], np.uint8)
    layouts = []  # (point, integer digits kept, zeros after "0.", exponent text) by exponent
    for e in range(_X_MIN, _X_MAX + 1):
        if -4 <= e < 17:
            layouts.append((e + 1, e + 1, 0, b"") if e >= 0 else (18, 1, -e, b""))
        else:
            layouts.append((1, 1, 0, b"e%+03d" % e))
    masks = []  # by code
    for point, length in (divmod(code, 19) for code in range(19 * 19)):
        masks.append(b"\xff" * min(point, length))  # digit j at byte j, before the point
        masks.append(b"\0" * (point + 1) + b"\xff" * (length - point - 1))  # digit j - 1 at byte j, after it
        masks.append(b"\0" * point + b"." if point < length else b"")
        masks.append(b"\0" * (length // 8 * 8) + b"\xff" * 8)  # the word that takes the tail's first byte
    tables = {
        "quad": (pair[:, None] | pair << np.uint64(16)).ravel(),  # i = 100 * high pair + low pair
        "quad_zeros": (pair_zeros + (pair_zeros == 2) * pair_zeros[:, None]).ravel(),
        "code": np.array(  # by exponent and significant digits
            [point * 19 + max(s, kept) + (s > point) for point, kept, _, _ in layouts for s in range(18)], np.int64
        ),
        "head": np.array(  # by exponent and sign bit
            [_word((sign + (b"0." + b"0" * (z - 1) if z else b"")).rjust(8, b"\0")) for _, _, z, _ in layouts for sign in (b"", b"-")],
            np.uint64,
        ),
        "tail": np.array([_word(e + sep) for _, _, _, e in layouts for sep in (b",", b"\n")], np.uint64),
        "masks": np.frombuffer(b"".join(m.ljust(24, b"\0") for m in masks), np.uint64).reshape(-1, 4, 3).transpose(1, 2, 0).copy(),
        "shift": np.array([8 * (code % 19 % 8) for code in range(19 * 19)], np.uint64),
    }
    for table in tables.values():
        table.setflags(write=False)  # shared by every caller
    return tables


def _digit_words(d: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """D's 17 digits as ASCII bytes 0-16 of three uint64 words, and D's number of significant digits."""
    tab = _layout_tables()
    upper = d // 100000000
    lower = d - upper * 100000000
    lead = upper // 100000000
    upper -= lead * 100000000
    groups = np.empty((4, d.size), np.int64)  # four groups of four digits after the lead digit
    np.floor_divide(upper, 10000, out=groups[0])
    np.subtract(upper, groups[0] * 10000, out=groups[1])
    np.floor_divide(lower, 10000, out=groups[2])
    np.subtract(lower, groups[2] * 10000, out=groups[3])
    z1, z2, z3, z4 = tab["quad_zeros"].take(groups)
    g1, g2, g3, g4 = tab["quad"].take(groups)
    u8, u24, u40 = np.uint64(8), np.uint64(24), np.uint64(40)
    words = [
        (lead.view(np.uint64) + np.uint64(48)) | (g1 << u8) | (g2 << u40),
        (g2 >> u24) | (g3 << u8) | (g4 << u40),
        g4 >> u24,
    ]
    return words, 17 - (z4 + (z4 == 4) * (z3 + (z3 == 4) * (z2 + (z2 == 4) * z1)))


def _text_words(values: np.ndarray, columns: int) -> tuple[np.ndarray, np.ndarray]:
    """Each value's '%.17g' text as the four words of ``_layout_tables``, and the values it leaves to '%.17g'."""
    tab = _layout_tables()
    ax = np.abs(values)
    fast = (ax >= _FAST_MIN) & (ax <= _FAST_MAX)
    ax = np.where(fast, ax, 1.0)
    d, x, sure = _significands(ax, np.floor(np.log10(ax)).astype(np.int64))
    d[~fast] = 0  # a zero is written as its sign and "0"; the others go through '%.17g'
    x[~fast] = 0
    digits, significant = _digit_words(d)
    del ax, d  # the block's peak memory is reached below

    x -= _X_MIN
    code = tab["code"].take(x * 18 + significant)
    x *= 2
    text = np.empty((values.size, 4), np.uint64)
    text[:, 0] = tab["head"].take(x - (values.view(np.int64) >> 63))
    tail = tab["tail"].take((x.reshape(-1, columns) + (np.arange(columns) == columns - 1)).ravel())
    shift = tab["shift"].take(code)
    tail_low = tail << shift
    tail_high = (tail >> np.uint64(1)) >> (np.uint64(63) - shift)  # the tail bytes past the word
    del tail, shift
    u8, u56 = np.uint64(8), np.uint64(56)
    for w in range(3):
        before, after, dot, word = tab["masks"][:, w].take(code, axis=1)
        shifted = digits[w] << u8  # digit j - 1 at byte j
        t = (digits[w] & before) | dot | (tail_low & word)
        if w:
            shifted |= digits[w - 1] >> u56
            t |= tail_high & previous
        text[:, w + 1] = t | (shifted & after)
        previous = word
    return text, ~(fast & sure) & (values != 0)


def _format_rows(block: np.ndarray) -> bytes:
    """The '%.17g' text of a float64 block: ',' between the values of a row and '\\n' after each row."""
    columns = block.shape[1]
    values = block.ravel()
    text, slow = _text_words(values, columns)
    text_bytes = text.view(np.uint8)
    for i in np.flatnonzero(slow).tolist():
        value = b"%.17g" % values[i] + (b"\n" if i % columns == columns - 1 else b",")
        text_bytes[i] = 0
        text_bytes[i, : len(value)] = np.frombuffer(value, np.uint8)
    out = text_bytes.ravel()
    return out[out != 0].tobytes()


def _write_csv(
    path: str | Path, head: list[str], columns: str, table: np.ndarray, foot: tuple[str, ...] = ()
) -> None:
    """Write comment lines, the column names, one 17-digit row per table row and trailing comments."""
    table = np.asarray(table, dtype=np.float64)
    per_block = max(1, int(np.clip(table.size // 8, *_CSV_BLOCK)) // table.shape[1])
    with open(path, "wb") as out:
        out.write("\n".join([*head, columns, ""]).encode("utf-8"))
        for start in range(0, table.shape[0], per_block):
            out.write(_format_rows(table[start : start + per_block]))
        out.write("".join(line + "\n" for line in foot).encode("utf-8"))


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
    """Write one simulation snapshot: x, rho, s, n."""
    head = _header_lines(config_hash) + [f"# t={_g17(snapshot.t)}"]
    _write_csv(path, head, "x,rho,s,n", np.column_stack([snapshot.x, snapshot.rho, snapshot.s, snapshot.n]))


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
    # its steps (ROADMAP item 19).  Another run's output in ``out`` is refused: the runs would mix.
    if (out / "diagnostics.csv").exists() or next(out.glob("snapshot_*.csv"), None):
        raise FileExistsError(f"{out} already holds a simulation's output; give --out a directory without one")
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
        if cfg.mode != "validate":  # the one mode that writes no file
            out.mkdir(parents=True, exist_ok=True)
        runner, _needs = _MODES[cfg.mode]
        runner(cfg, out, config_hash)
    except (ConfigError, ModelError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # an array too large for this host, e.g. from cells or samples_per_interval
        print("numerical failure: not enough memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
