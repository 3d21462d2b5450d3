"""Property test of the positivity certificate against the verification grid.

Descartes' rule of signs proves a row positive for every z; the grid only
samples it.  Whatever the certificate accepts, the grid must accept too:
on random exponential sums, and on the profiles of random Gauss-Legendre
velocity models drawn as the velocity-sweep benchmark draws them.  The
certificate takes its rates ascending; on the solver's stacks it must agree
with the version that sorted them itself.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemowave import (
    PiecewiseExponential,
    admissible_speed_interval,
    build_model,
    evaluate_f_matrix,
    solve_modes,
    verification_grid,
)
from chemowave.errors import ChemowaveError
from chemowave.wave_profile import GRID_DECADES, GRID_INNER, certified_rows, descartes_positive


@st.composite
def exponential_sums(draw):
    """Coefficients and distinct rates; the slowest terms positive, the rest negative, unless flipped."""
    terms = draw(st.integers(min_value=1, max_value=8))
    rates = np.array(draw(st.lists(st.floats(0.01, 100.0), min_size=terms, max_size=terms, unique=True)))
    magnitudes = np.array(draw(st.lists(st.floats(1e-6, 1e6), min_size=terms, max_size=terms)))
    positives = draw(st.integers(min_value=0, max_value=terms))
    signs = np.where(np.argsort(np.argsort(rates)) < positives, 1.0, -1.0)
    flips = np.array(draw(st.lists(st.booleans(), min_size=terms, max_size=terms)))
    order = np.argsort(rates)  # the certificate takes its terms in ascending rate
    return (magnitudes * np.where(flips, -signs, signs))[order], rates[order]


@settings(max_examples=300, deadline=None)
@given(exponential_sums())
def test_certified_sums_are_positive_on_the_grid(drawn):
    coefficients, rates = drawn
    if not descartes_positive(coefficients[None, :], rates)[0]:
        return
    z = np.geomspace(GRID_INNER, GRID_DECADES / rates.min(), 2048)
    values = PiecewiseExponential(coefficients, rates, coefficients, rates)(z)
    assert np.all(np.isfinite(values)) and np.min(values) > 0.0


@st.composite
def gauss_legendre_speeds(draw):
    """A model on the n-point Gauss-Legendre set and a speed inside one of its continuity intervals."""
    n = draw(st.sampled_from([8, 32, 128]))
    nodes, weights = np.polynomial.legendre.leggauss(n)
    chi_s = draw(st.floats(0.1, 0.45))
    chi_n = draw(st.floats(0.0, chi_s))
    model = build_model(nodes, weights / weights.sum(), chi_s, chi_n)
    guard = 2.0 * model.node_guard
    intervals = [
        (lo, hi) for lo, hi in admissible_speed_interval(model).admissible_intervals if hi - lo > 4.0 * guard
    ]
    lo, hi = draw(st.sampled_from(intervals))
    return model, lo + guard + draw(st.floats(0.0, 1.0)) * (hi - lo - 2.0 * guard)


@settings(max_examples=40, deadline=None)
@given(gauss_legendre_speeds())
def test_certified_profile_rows_are_positive_on_the_grid(drawn):
    model, c = drawn
    try:
        profile = solve_modes(model, c)
    except ChemowaveError:
        return  # a typed failure is an allowed outcome
    values = evaluate_f_matrix(profile, verification_grid(profile))[:, certified_rows(profile)]
    assert np.all(np.isfinite(values)) and np.all(values > 0.0)


def sorting_descartes_positive(coefficients: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """The certificate as it was when it sorted the terms by rate itself: the reference."""
    order = np.argsort(rates, axis=-1)
    if order.ndim == 1:  # one order for every row
        coef, ordered = coefficients[..., order], rates[order]
    else:
        coef = np.take_along_axis(coefficients, order[..., None, :], axis=-1)
        ordered = np.take_along_axis(rates, order, axis=-1)
    terms = coef.shape[-1]
    if terms == 0:
        return np.zeros(coef.shape[:-1], dtype=bool)
    distinct = ~(ordered[..., 1:] - ordered[..., :-1] <= 0.0).any(axis=-1)
    sign = np.sign(coef)
    sign_changes = (sign[..., 1:] != sign[..., :-1]).sum(axis=-1)
    with np.errstate(invalid="ignore"):
        margin = (terms + GRID_DECADES) * np.finfo(float).eps * np.abs(coef).sum(axis=-1)
        return (
            distinct[..., None]
            & (np.isfinite(coef) & (coef != 0.0)).all(axis=-1)
            & (sign_changes <= 1)
            & (coef[..., 0] > margin)
            & (coef.sum(axis=-1) > margin)
        )


def seeded_stacks(n: int, seed: int, count: int, speeds: int = 8):
    """Profiles of ``count`` stacks on the n-point Gauss-Legendre set, each inside one continuity interval."""
    rng = np.random.default_rng([seed, n])
    nodes, weights = np.polynomial.legendre.leggauss(n)
    profiles = []
    while len(profiles) < count:
        chi_s = rng.uniform(0.1, 0.45)
        model = build_model(nodes, weights / weights.sum(), chi_s, rng.uniform(0.0, chi_s))
        guard = 2.0 * model.node_guard
        window = admissible_speed_interval(model)
        intervals = [(lo, hi) for lo, hi in window.admissible_intervals if hi - lo > 4.0 * guard]
        lo, hi = intervals[rng.integers(len(intervals))]
        try:
            profiles.append(solve_modes(model, np.sort(rng.uniform(lo + guard, hi - guard, speeds))))
        except ChemowaveError:
            continue  # a typed failure is an allowed outcome; draw another stack
    return profiles


@pytest.mark.parametrize("n", [8, 32, 128])
def test_ascending_certificate_matches_the_sorting_one_on_solver_stacks(n):
    rng = np.random.default_rng([34, n])
    outcomes = []
    for stack in seeded_stacks(n, seed=34, count=6):
        for profile in (stack, stack.speed(0)):
            roots = profile.roots
            left = (profile.a[..., None, :] / profile.denom_left, -roots.negative_roots)
            right = (profile.b[..., None, :] / profile.denom_right, roots.positive_roots)
            want = sorting_descartes_positive(*left) & sorting_descartes_positive(*right)
            assert np.array_equal(certified_rows(profile), want)
            # the solver's order: the left side's rates descend, the right side's ascend
            assert (np.diff(left[1]) < 0.0).all() and (np.diff(right[1]) > 0.0).all()
            for coefficients, rates, step in ((*left, -1), (*right, 1)):
                # the solver's rows, and the same rows with about 1.5 coefficients a row negated
                flip = np.where(rng.random(coefficients.shape) < 1.5 / coefficients.shape[-1], -1.0, 1.0)
                for coef in (coefficients, coefficients * flip):
                    want = sorting_descartes_positive(coef, rates)
                    assert np.array_equal(descartes_positive(coef[..., ::step], rates[..., ::step]), want)
                    outcomes.append(want.ravel())
    outcomes = np.concatenate(outcomes)
    assert outcomes.any() and not outcomes.all()  # rows certified and rows refused were compared


def test_rates_out_of_ascending_order_are_refused():
    coefficients = np.array([[2.0, 1.0, 0.5], [1.0, 3.0, -2.0]])
    rates = np.array([1.0, 2.0, 3.0])
    assert descartes_positive(coefficients, rates).all()
    for unordered in ([2.0, 1.0, 3.0], [1.0, 3.0, 2.0], [3.0, 2.0, 1.0], [1.0, 2.0, 2.0], [1.0, np.nan, 3.0]):
        assert not descartes_positive(coefficients, np.array(unordered)).any()
    stack = np.stack([rates, rates[::-1]])  # a stack refuses the speed whose rates descend
    assert descartes_positive(np.stack([coefficients] * 2), stack).tolist() == [[True, True], [False, False]]
