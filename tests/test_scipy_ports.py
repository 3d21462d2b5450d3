"""Contract tests of the private scipy entry points, and the nutrient solve checked against scipy.

``wave_speed.brentq`` refines the wave speeds through scipy's compiled
``_brentq``, loaded without the ``scipy.optimize`` package: it must evaluate
the same points, return the same bits and raise the same errors as
``scipy.optimize.brentq`` at ``rtol = ROOT_C_REL_TOL``.  The simulation
counts the components of its final density with
``cauchy_sim.prominent_peaks``, which calls the compiled routines of
``find_peaks`` and must return the indices of
``scipy.signal.find_peaks(x, prominence=p)``.  These run on every scipy the
package supports, so they catch a change of those private signatures.
``chemo_fields.solve_N`` solves the nutrient's difference rows by their
increment recurrence; it must agree with ``scipy.linalg.solve_banded`` on the
same rows, and with a 50-digit elimination of them.
"""

from __future__ import annotations

import dataclasses

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded
from scipy.optimize import brentq as scipy_brentq
from scipy.signal import find_peaks

import chemowave.wave_speed as wave_speed_mod
from chemowave import ChemParams, refine_roots, scan, solve_modes, solve_N
from chemowave.cauchy_sim import prominent_peaks
from chemowave.wave_speed import ROOT_C_REL_TOL, brentq

TINY = np.finfo(float).tiny


def _both(f, lo, hi, xtol):
    """(root, evaluated points) of scipy's brentq and of ``wave_speed.brentq``, at the latter's rtol."""
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
        # underflows to 0, and scipy's C loop divides to inf or NaN and bisects
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


def test_brent_raises_as_scipy_does():
    for f, error in (
        (lambda x: x - 3.0, ValueError),  # no sign change
        (lambda x: float("nan"), ValueError),  # NaN value
    ):
        with pytest.raises(error) as reference:
            scipy_brentq(f, 0.0, 1.0, xtol=2e-12, rtol=ROOT_C_REL_TOL)
        with pytest.raises(error) as ours:
            brentq(f, 0.0, 1.0, xtol=2e-12)
        assert str(ours.value) == str(reference.value)


def test_brent_raises_when_it_does_not_converge(monkeypatch):
    cube = lambda x: x**3 - 0.3  # noqa: E731
    monkeypatch.setattr(wave_speed_mod, "_BRENT_MAXITER", 2)
    with pytest.raises(RuntimeError) as reference:
        scipy_brentq(cube, 0.0, 1.0, xtol=2e-12, rtol=ROOT_C_REL_TOL, maxiter=2)
    with pytest.raises(RuntimeError) as ours:
        brentq(cube, 0.0, 1.0, xtol=2e-12)
    assert str(ours.value) == str(reference.value)


def test_brent_returns_a_bracket_end_with_a_zero_value():
    assert brentq(lambda x: x, 0.0, 1.0, xtol=1e-12) == 0.0
    assert brentq(lambda x: x - 1.0, 0.0, 1.0, xtol=1e-12) == 1.0


def _nutrient_rows(rho_vals: np.ndarray, params: ChemParams, c: float, h: float, num=float) -> tuple[list, ...]:
    """The nutrient's difference rows A N = b, formed in ``num``: lists (lower, diag, upper, b).

    ``lower[i]`` and ``upper[i]`` couple row i to N_{i-1} and N_{i+1}.  The
    interior rows are those of D N'' + c N' - gamma rho N = 0, central up to
    cell Peclet number 2 and forward above it; row 0 is the ghost row of
    N'(-L) = 0, and the last row folds in D N' + c N = c with N_+ = 1.
    """
    upwind = c * h / params.d_n > 2.0
    d, c, h, gamma = num(params.d_n), num(c), num(h), num(params.gamma)
    consumption = [gamma * num(x) for x in rho_vals.tolist()]
    edge, far = 2 * d / h**2, 2 * c / h + c * c / d
    sub, sup = (d / h**2, d / h**2 + c / h) if upwind else (d / h**2 - c / (2 * h), d / h**2 + c / (2 * h))
    n = len(consumption)
    lower = [num(0)] + [sub] * (n - 2) + [edge]
    upper = [edge] + [sup] * (n - 2) + [num(0)]
    diag = [-(lower[i] + upper[i]) - consumption[i] for i in range(n)]
    diag[-1] -= far
    return lower, diag, upper, [num(0)] * (n - 1) + [-far]


def banded_solve(rho_vals: np.ndarray, params: ChemParams, c: float, h: float) -> np.ndarray:
    """The nutrient's rows solved by ``scipy.linalg.solve_banded``."""
    lower, diag, upper, b = _nutrient_rows(rho_vals, params, c, h)
    return solve_banded((1, 1), np.array([[0.0, *upper[:-1]], diag, [*lower[1:], 0.0]]), np.array(b))


def exact_solve(rho_vals: np.ndarray, params: ChemParams, c: float, h: float) -> list:
    """The nutrient's rows formed and eliminated at 50 digits from the same doubles, as ``mpmath.mpf``.

    No pivoting: every row is diagonally dominant.
    """
    with mpmath.workdps(50):
        lower, diag, upper, b = _nutrient_rows(rho_vals, params, c, h, num=mpmath.mpf)
        for i in range(1, len(b)):
            factor = lower[i] / diag[i - 1]
            diag[i] -= factor * upper[i - 1]
            b[i] -= factor * b[i - 1]
        exact = [b[-1] / diag[-1]]
        for i in range(len(b) - 2, -1, -1):
            exact.append((b[i] - upper[i] * exact[-1]) / diag[i])
    return exact[::-1]


def resolvable_rises(nfield, rho, params: ChemParams, c: float) -> np.ndarray:
    """Where the exact rise N_{i+1} - N_i of ``nfield``'s rows is at least two spacings of its N_{i+1}.

    Below one spacing even a correctly rounded profile may be flat.  From two
    on, the relative rise is at least 2**-52, so the recurrence's factor
    N_i / N_{i+1} = 1 / (1 + g_i) rounds to at most 1 - 2**-52, which puts
    the computed N_i strictly below N_{i+1}.
    """
    exact = exact_solve(np.asarray(rho(nfield.grid), dtype=float), params, c, nfield.grid[1] - nfield.grid[0])
    rises = np.array([float(right - left) for left, right in zip(exact, exact[1:])])
    return rises >= 2.0 * np.spacing(nfield.values[1:])


def _nutrient_at(
    model, params: ChemParams, c: float, cells: int, halfwidth: float | None = None
) -> tuple[np.ndarray, np.ndarray, float]:
    """(solve_N's values, the rho samples and the h it solved with), by default on the profile's own window."""
    profile = solve_modes(model, c)
    nfield = solve_N(profile.rho_modes(), params, c, halfwidth or profile.halfwidth, cells=cells)
    return nfield.values, np.asarray(profile.rho_modes()(nfield.grid), dtype=float), nfield.grid[1] - nfield.grid[0]


# sec4_1's root and sec4_2's two roots
ROOTS = (("case_one", 0.05246996633767849), ("case_two", 0.024592930214375405), ("case_two", 0.14153597953281605))


@pytest.mark.parametrize("nodes", [4097, 8193, 16385, 32769])
def test_nutrient_recurrence_matches_solve_banded(nodes, request):
    # solve_banded forms each diagonal entry -(sub + sup) - gamma rho, of size
    # 2 D / h^2, so its own error grows as 1 / h^2: measured 1.6e-12, 7.6e-12,
    # 3.9e-11 and 1.03e-10 of max|N| at these node counts
    for case, c in ROOTS:
        model, cfg = request.getfixturevalue(case)
        values, rho_vals, h = _nutrient_at(model, cfg.chem, c, nodes - 1)
        reference = banded_solve(rho_vals, cfg.chem, c, h)
        assert np.max(np.abs(values - reference)) < 5e-12 * (nodes / 4097) ** 2 * np.max(np.abs(reference))


@pytest.mark.parametrize("halfwidth", [pytest.param(None, id="profile_window"), pytest.param(3.0, id="halfwidth_3")])
def test_nutrient_recurrence_matches_a_50_digit_solve(request, halfwidth):
    # Measured at most 8.3e-15 relative at any node on the profile's own
    # window, and 4.3e-14 on |z| <= 3, where rho at the ends is 1-37% of its
    # peak, so that the end rows' gamma rho terms count; solve_banded's error
    # is 1.0-2.9e-13 and 3.0-10e-13
    for case, c in ROOTS:
        model, cfg = request.getfixturevalue(case)
        values, rho_vals, h = _nutrient_at(model, cfg.chem, c, 1024, halfwidth)
        exact = np.array([float(x) for x in exact_solve(rho_vals, cfg.chem, c, h)])
        assert np.max(np.abs(values - exact) / exact) < 1e-13


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
