"""Property test of the positivity certificate against the verification grid.

Descartes' rule of signs proves a row positive for every z; the grid only
samples it.  Whatever the certificate accepts, the grid must accept too:
on random exponential sums, and on the profiles of random Gauss-Legendre
velocity models drawn as the velocity-sweep benchmark draws them.
"""

from __future__ import annotations

import numpy as np
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
    return magnitudes * np.where(flips, -signs, signs), rates


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
