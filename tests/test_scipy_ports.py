"""The in-package ports of scipy's brentq, LAPACK dgtsv and find_peaks, checked against scipy.

The construction modes run on numpy alone: ``wave_speed.brentq`` refines the
wave speeds and ``chemo_fields.solve_tridiagonal`` solves the nutrient
profile.  Each must give the bits that ``scipy.optimize.brentq`` and
``scipy.linalg.lapack.dgtsv`` give; the tridiagonal solve also matches
``scipy.linalg.solve_banded((1, 1), ...)``, which runs ``dgtsv``.  The simulation counts the
components of its final density with ``cauchy_sim.prominent_peaks``, which
must return the indices of ``scipy.signal.find_peaks(x, prominence=p)``.
Brent's method must match scipy also where its interpolation divides by an
underflowed zero, which C turns into inf or NaN and a bisection step.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgtsv
from scipy.optimize import brentq as scipy_brentq
from scipy.signal import find_peaks

import chemowave.wave_speed as wave_speed_mod
from chemowave import refine_roots, scan, solve_modes
from chemowave.cauchy_sim import prominent_peaks
from chemowave.chemo_fields import _n_system, solve_tridiagonal
from chemowave.wave_speed import ROOT_C_REL_TOL, brentq

TINY = np.finfo(float).tiny


def _both(f, lo, hi, xtol):
    """(root, evaluated points) of scipy's brentq and of the port, at the port's rtol."""
    results = []
    for solver, kwargs in ((scipy_brentq, {"rtol": ROOT_C_REL_TOL}), (brentq, {})):
        seen = []
        root = solver(lambda x: (seen.append(x), f(x))[1], lo, hi, xtol=xtol, **kwargs)
        results.append((root, seen))
    return results


def test_brent_matches_scipy_on_random_brackets():
    rng = np.random.default_rng(11)
    compared = 0
    while compared < 500:
        roots = np.sort(rng.uniform(-1.0, 1.0, 3))
        scale = 10.0 ** rng.uniform(-3.0, 1.0)
        wiggle = rng.uniform(0.0, 0.05)

        def f(x, roots=roots, scale=scale, wiggle=wiggle):
            return float(scale * np.prod(x - roots) + wiggle * np.sin(7.0 * x))

        lo, hi = np.sort(rng.uniform(-2.0, 2.0, 2)).tolist()
        if (f(lo) < 0.0) == (f(hi) < 0.0):
            continue
        xtol = float(rng.choice([1e-12 * max(abs(lo), abs(hi)), 2e-12, 1e-4]))
        (root_ref, seen_ref), (root, seen) = _both(f, lo, hi, xtol)
        assert root == root_ref and seen == seen_ref
        compared += 1


@pytest.mark.parametrize(
    "case,alpha",
    [
        pytest.param("case_one", None, id="case_one"),
        pytest.param("case_two", None, id="case_two"),
        # Upsilon's values are so small here that on 3 of the 13 brackets at
        # 1e200 (0.0045273 to 0.0055083 among them) and 4 of the 12 at 1e300
        # an extrapolation's denominator dblk * dpre * (fblk - fpre)
        # underflows to 0: C divides to inf or NaN and bisects, where
        # Python raises ZeroDivisionError
        pytest.param("case_one", 1e200, id="case_one-alpha1e200"),
        pytest.param("case_one", 1e300, id="case_one-alpha1e300"),
    ],
)
def test_brent_matches_scipy_on_the_scan_brackets(case, alpha, request):
    model, cfg = request.getfixturevalue(case)
    chem = cfg.chem if alpha is None else dataclasses.replace(cfg.chem, alpha=alpha)
    curve = scan(model, chem)
    assert curve.brackets
    reference_roots = []
    for _interval_id, lo, hi, _y_lo, _y_hi in curve.brackets:
        f = lambda c: wave_speed_mod.upsilon(model, chem, c)  # noqa: E731
        (root_ref, seen_ref), (root, seen) = _both(f, lo, hi, ROOT_C_REL_TOL * max(abs(lo), abs(hi)))
        assert root == root_ref and seen == seen_ref
        reference_roots.append(root_ref)
    assert refine_roots(curve, model, chem) == reference_roots


def test_c_divide_gives_the_ieee_quotient():
    values = [0.0, -0.0, 1.0, -1.0, 5e-324, -3.5, np.inf, -np.inf, np.nan]
    for a in values:
        for b in values:
            with np.errstate(all="ignore"):
                expected = np.float64(a) / np.float64(b)
            got = wave_speed_mod._c_divide(a, b)
            same = got == expected and np.signbit(got) == np.signbit(expected)
            assert same or (np.isnan(got) and np.isnan(expected)), (a, b)


def test_brent_raises_as_scipy_does():
    for f, error in (
        (lambda x: x - 3.0, ValueError),  # no sign change
        (lambda x: float("nan"), ValueError),  # NaN value
    ):
        with pytest.raises(error) as reference:
            scipy_brentq(f, 0.0, 1.0, xtol=2e-12, rtol=ROOT_C_REL_TOL)
        with pytest.raises(error) as ported:
            brentq(f, 0.0, 1.0, xtol=2e-12)
        assert str(ported.value) == str(reference.value)


def test_brent_raises_when_it_does_not_converge(monkeypatch):
    cube = lambda x: x**3 - 0.3  # noqa: E731
    monkeypatch.setattr(wave_speed_mod, "_BRENT_MAXITER", 2)
    with pytest.raises(RuntimeError) as reference:
        scipy_brentq(cube, 0.0, 1.0, xtol=2e-12, rtol=ROOT_C_REL_TOL, maxiter=2)
    with pytest.raises(RuntimeError) as ported:
        brentq(cube, 0.0, 1.0, xtol=2e-12)
    assert str(ported.value) == str(reference.value)


def test_brent_returns_a_bracket_end_with_a_zero_value():
    assert brentq(lambda x: x, 0.0, 1.0, xtol=1e-12) == 0.0
    assert brentq(lambda x: x - 1.0, 0.0, 1.0, xtol=1e-12) == 1.0


def _three_solves(dl, d, du, b) -> tuple[bytes, bytes, bytes]:
    """The bytes of the port's, LAPACK dgtsv's and solve_banded's solution of one system."""
    *_factors, x, info = dgtsv(dl, d, du, b)
    assert info == 0
    ab = np.zeros((3, d.size))
    ab[0, 1:], ab[1], ab[2, :-1] = du, d, dl
    return solve_tridiagonal(dl, d, du, b).tobytes(), x.tobytes(), solve_banded((1, 1), ab, b).tobytes()


@pytest.mark.parametrize("nodes", [4097, 8193, 16385, 32769])
def test_tridiagonal_matches_solve_banded_on_the_nutrient_systems(case_one, case_two, nodes):
    for (model, cfg), c in ((case_one, 0.0525), (case_two, 0.1415)):
        profile = solve_modes(model, c)
        grid = np.linspace(-profile.halfwidth, profile.halfwidth, nodes)
        port, lapack, banded = _three_solves(
            *_n_system(np.asarray(profile.rho_modes()(grid)), cfg.chem, c, grid[1] - grid[0])
        )
        assert port == lapack == banded


def test_tridiagonal_matches_solve_banded_with_row_interchanges():
    rng = np.random.default_rng(5)
    interchanges = 0
    for n in list(range(2, 12)) * 20 + [257, 1000]:
        dl, du = rng.normal(size=n - 1), rng.normal(size=n - 1)
        d = rng.normal(size=n) * rng.choice([0.05, 1.0, 20.0])  # weak, even and dominant diagonals
        rhs = rng.normal(size=n)
        interchanges += int(np.sum(np.abs(d[:-1]) < np.abs(dl)))
        port, lapack, banded = _three_solves(dl, d, du, rhs)
        assert port == lapack == banded
    assert interchanges > 100  # the pivoting branch ran (counted on the input diagonal)


def test_tridiagonal_refuses_what_solve_banded_refuses():
    # rows 0 and 1 of this matrix are equal
    dl, d, du, rhs = np.array([1.0, 1.0]), np.array([1.0, 1.0, 1.0]), np.array([1.0, 0.0]), np.ones(3)
    assert dgtsv(dl, d, du, rhs)[-1] > 0  # LAPACK reports a zero pivot
    with pytest.raises(np.linalg.LinAlgError):
        solve_banded((1, 1), np.array([[0.0, *du], d, [*dl, 0.0]]), rhs)
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        solve_tridiagonal(dl, d, du, rhs)
    with pytest.raises(ValueError, match="infs or NaNs"):
        solve_tridiagonal(dl, d, du, np.array([1.0, np.nan, 1.0]))


def _same_peaks(x, prominence) -> None:
    x = np.asarray(x, dtype=float)
    reference, _properties = find_peaks(x, prominence=prominence)
    assert prominent_peaks(x, prominence).tolist() == reference.tolist()


# few levels, so that plateaus, equal peaks and ties with a peak's bases are common
LEVELS = [0.0, 1.0, 1.0 + 2**-52, 2.0, 3.0, -np.inf, np.inf, np.nan]


@settings(max_examples=400, deadline=None)
@given(
    x=st.lists(st.sampled_from(LEVELS), max_size=30),
    prominence=st.sampled_from([TINY, 2**-52, 0.5, 1.0, 2.0, 3.0, np.inf]),
)
@example(x=[], prominence=TINY)
@example(x=[1.0], prominence=TINY)
@example(x=[0.0, 1.0], prominence=TINY)
@example(x=[0.0, 1.0, 0.0], prominence=TINY)
@example(x=[0.0, 1.0, 1.0], prominence=TINY)  # a plateau that runs into the last sample
@example(x=[0.0, 2.0, 2.0, 2.0, 2.0, 0.0], prominence=TINY)  # an even plateau: its left middle
@example(x=[0.0, 2.0, 1.0, 2.0, 0.0], prominence=1.0)  # equal peaks, each with a base on the other side
@example(x=[0.0, np.nan, 2.0, 3.0, 0.0], prominence=2.0)  # NaN stops the left walk
@example(x=[0.0, 3.0, 2.0, np.nan, 0.0], prominence=2.0)  # and the right one
@example(x=[0.0, 2.0, np.nan, 2.0, 0.0], prominence=TINY)  # a sample before NaN is no peak
@example(x=[1.0, 2.0, 1.0, 3.0, 0.0], prominence=1.0)  # the higher base decides
def test_prominent_peaks_match_find_peaks(x, prominence):
    _same_peaks(x, prominence)


def test_prominent_peaks_match_find_peaks_on_wiggly_densities():
    rng = np.random.default_rng(3)
    grid = np.linspace(0.0, 1.0, 2048)
    for _ in range(200):
        modes = rng.uniform(1.0, 60.0, 4)
        x = np.exp(-((grid - rng.uniform()) ** 2) / rng.uniform(1e-4, 0.1)) + rng.uniform(0.0, 0.3) * np.sin(
            np.outer(modes, grid)
        ).sum(axis=0)
        x = np.round(x, int(rng.integers(2, 17)))  # coarse rounding makes plateaus
        _same_peaks(x, max(0.05 * (x.max() - x.min()), TINY))
