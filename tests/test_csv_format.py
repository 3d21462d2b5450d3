"""The CSV writer's array formatter against Python's own '%.17g', byte for byte.

The reference is the per-row writer the array formatter replaced.  The inputs
are every float64 bit pattern (hypothesis and a seeded sample), the values
where a binary-to-decimal conversion goes wrong first (powers of ten and two
and their neighbours, integers near 2**53 .. 2**63, exact and near 18-digit
ties, the ends of the fast path's magnitude range) and whole tables written
through ``_write_csv``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemowave import cli_io


def per_row_write_csv(path, head, columns, table, foot=()) -> None:
    """The writer before the array formatter: one '%.17g' template per row."""
    template = ",".join(["%.17g"] * table.shape[1])
    rows = [template % tuple(row.tolist()) for row in table]
    Path(path).write_text("\n".join([*head, columns, *rows, *foot]) + "\n", encoding="utf-8")


def per_row_text(table: np.ndarray) -> bytes:
    template = ",".join(["%.17g"] * table.shape[1])
    return "".join(template % tuple(row.tolist()) + "\n" for row in table).encode()


def assert_formats_like_reference(values) -> None:
    table = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    got = cli_io._format_rows(table).split(b"\n")
    want = per_row_text(table).split(b"\n")
    wrong = [(v, g, w) for v, g, w in zip(table.ravel().tolist(), got, want) if g != w]
    assert not wrong, wrong[:5]
    assert len(got) == len(want)


def neighbours(x: np.ndarray, ulps: int = 2) -> np.ndarray:
    """x and the doubles up to ``ulps`` steps below and above it, both signs."""
    out = [x]
    up = down = x
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    out = np.concatenate(out)
    return np.concatenate([out, -out])


def rounded_fraction(x: float) -> Fraction:
    """The part of |x| * 10**(16 - floor(log10 |x|)) after the point: 1/2 is a 17-digit tie."""
    y = abs(Fraction(x))
    k = math.floor(math.log10(abs(x)))
    k += (y >= Fraction(10) ** (k + 1)) - (y < Fraction(10) ** k)
    y *= Fraction(10) ** (16 - k)
    return y - math.floor(y)


def exact_ties() -> list[float]:
    """Doubles m / 2**j whose 18 significant digits end in 5."""
    ties = []
    for j in range(1, 26):
        lo = -(-(10**17) // 5**j)
        hi = min((10**18 - 1) // 5**j, 2**53 - 1)
        odd = [m for m in (lo, lo + 1, lo + 2, (lo + hi) // 2, (lo + hi) // 2 + 1, hi - 1, hi) if lo <= m <= hi and m % 2]
        ties += [m / 2**j for m in odd]
    return ties


NEAR = Fraction(1, 2**47)  # the fast path's error bound: it may certify no value this close to a tie


def near_ties() -> list[float]:
    """Doubles whose 17-digit rounding is within NEAR of a tie but not on one, where 10**(16 - k) is no double.

    Large x = m 2**e at k = 16 + n: x / 10**n has the fraction
    (m 2**e mod 10**n) / 10**n, which is 1/2 + s / (2 * 5**n) for
    m = ((5**n + s) / 2) 2**(n - e) mod 5**n.  Small x = m / 2**j at
    q = 16 - k >= 23: m 10**q / 2**j has the fraction 1/2 + s / 2**(j - q)
    for m = (2**(j - q - 1) + s) 5**-q mod 2**(j - q).
    """
    found = []
    for n in range(20, 23):
        for e in range(40, 80):
            for s in (-3, -1, 1, 3):
                m = (5**n + s) // 2 * pow(2, n - e, 5**n) % 5**n
                m += -(-(2**52 - m) // 5**n) * 5**n
                if m < 2**53 and 10 ** (16 + n) <= m * 2**e < 10 ** (17 + n):
                    found.append(float(m * 2**e))
    for q in range(23, 27):
        for j in range(q + 40, q + 70):
            mod = 2 ** (j - q)
            for s in (-3, -1, 1, 3):
                m = (mod // 2 + s) * pow(5**q, -1, mod) % mod
                m += max(0, -(-(2**52 - m) // mod)) * mod
                if 2**52 <= m < 2**53 and 10**16 * 2**j <= m * 10**q < 10**17 * 2**j:
                    found.append(m / 2**j)
    return [x for x in found if 0 < abs(rounded_fraction(x) - Fraction(1, 2)) < NEAR]


def test_the_deterministic_sets_are_what_they_claim():
    ties, near = exact_ties(), near_ties()
    assert len(ties) >= 50 and all(rounded_fraction(x) == Fraction(1, 2) for x in ties)
    assert len(near) >= 40


def test_no_value_within_the_error_bound_of_a_tie_is_certified():
    # |y - (h + t)| < 2**-47, so a certified |f| < 1/2 - 2**-46 keeps these out
    ax = np.array(exact_ties() + near_ties())
    _d, _k, sure = cli_io._significands(ax, np.floor(np.log10(ax)).astype(np.int64))
    assert not sure.any()


@pytest.mark.parametrize(
    "values",
    [
        pytest.param(neighbours(np.array([float(f"1e{k}") for k in range(-323, 309)])), id="powers-of-ten"),
        pytest.param(neighbours(np.ldexp(1.0, np.arange(-1074, 1024)), ulps=1), id="powers-of-two"),
        pytest.param(neighbours(np.ldexp(1.0, np.arange(52, 65)), ulps=3), id="integers-2^53-2^63"),
        pytest.param(neighbours(np.array(exact_ties()), ulps=1), id="exact-ties"),
        pytest.param(neighbours(np.array(near_ties()), ulps=0), id="near-ties"),
        pytest.param(neighbours(np.array([cli_io._FAST_MIN, cli_io._FAST_MAX]), ulps=3), id="fast-range-ends"),
        pytest.param(
            np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, 2.2250738585072009e-308,
                      2.2250738585072014e-308, 1.7976931348623157e308, 1.0, 0.1, 1e16, 1e17, 1e-4, 1e-5]),
            id="specials",
        ),
    ],
)
def test_deterministic_values_match_percent_g(values):
    assert_formats_like_reference(values)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=32))
def test_every_bit_pattern_matches_percent_g(bits):
    assert_formats_like_reference(np.array(bits, dtype=np.uint64).view(np.float64))


def test_seeded_bit_patterns_and_wide_normals_match_percent_g():
    rng = np.random.default_rng(20260530)
    assert_formats_like_reference(rng.integers(0, 2**64, size=20000, dtype=np.uint64).view(np.float64))
    assert_formats_like_reference(rng.standard_normal(20000) * 10.0 ** rng.uniform(-30, 30, 20000))


def mixed_table(shape: tuple[int, int], seed: int) -> np.ndarray:
    """Profile-like magnitudes with zeros of both signs, small integers and arbitrary bit patterns."""
    rng = np.random.default_rng(seed)
    size = shape[0] * shape[1]
    values = rng.standard_normal(size) * 10.0 ** rng.uniform(-20, 3, size)
    kind = rng.integers(0, 10, size)
    values[kind == 0] = np.copysign(0.0, rng.standard_normal(size))[kind == 0]
    values[kind == 1] = rng.integers(-50, 50, size)[kind == 1]
    values[kind == 2] = rng.integers(0, 2**64, size=size, dtype=np.uint64).view(np.float64)[kind == 2]
    return values.reshape(shape)


# shapes: a snapshot without and with its 18 f_k, a profile's 23 columns,
# and a GL-128 profile's 133 columns, whose eighth is above the cap
@pytest.mark.parametrize("shape", [(0, 2), (1, 1), (101, 2), (2048, 4), (4096, 23), (2048, 22), (1024, 133)])
def test_tables_are_written_as_the_per_row_writer_wrote_them(tmp_path, shape):
    table = mixed_table(shape, seed=shape[0] * 100 + shape[1])
    head, columns, foot = ["# chemowave test", "# t=0.5"], ",".join(f"c{i}" for i in range(shape[1])), ("# end",)
    cli_io._write_csv(tmp_path / "new.csv", head, columns, table, foot)
    per_row_write_csv(tmp_path / "old.csv", head, columns, table, foot)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize(
    "shape,blocks",
    [((2048, 4), [2048] * 4), ((4096, 23), [512 * 23] * 8), ((1024, 133), [123 * 133] * 8 + [40 * 133])],
)
def test_a_table_is_formatted_in_blocks_of_an_eighth_within_the_bounds(tmp_path, monkeypatch, shape, blocks):
    sizes = []

    def counted(block, format_rows=cli_io._format_rows):
        sizes.append(block.size)
        return format_rows(block)

    monkeypatch.setattr(cli_io, "_format_rows", counted)
    cli_io._write_csv(tmp_path / "table.csv", [], "c", np.ones(shape))
    assert sizes == blocks
    assert max(sizes) <= 16384
