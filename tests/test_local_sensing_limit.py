"""The local-sensing limit: the wave speeds at large ``alpha`` against the zeros of ``rho'(0-) + rho'(0+)``.

As ``alpha`` grows, the decaying exponents of the S equation tend to
theta_+/- = +/- sqrt(alpha / d_s), and the two sums of ``s_slope_at_zero``
tend to sum_j s_j r_j / theta_+ and sum_j s_j mu_j / |theta_-|, so

    Upsilon(c) = beta g(c) / (2 alpha) (1 + O(alpha^-1/2)),   g(c) = rho'(0-) + rho'(0+).

S is then beta rho / alpha to leading order: the cells sense the
attractant where they are.  The zeros of g depend on the velocity model
alone, and the wave speeds approach them, their relative distance falling
by about sqrt(10) per decade of ``alpha``.  g reads the same modes as the
construction, so this checks the chemistry half of the scan (theta_+/-,
the two sums and ``beta``) and the scan and refinement where Upsilon is
tiny, not the dispersion and matching solves.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from chemowave import refine_roots, solve_modes, verify_root
from chemowave.wave_speed import ROOT_C_REL_TOL, brentq, scan_chemistry, scan_modes

ALPHAS = (1e6, 1e7, 1e8)
BETA = 3.0  # not 1, so that a beta applied to one of the two sums shows
DECADE_RATIO = (3.0, 3.3)  # the distance to the zero falls by about sqrt(10) = 3.162 per decade


def g(rho) -> np.ndarray:
    """rho'(0-) + rho'(0+) of a stack of density modes."""
    return np.vecdot(rho.left_coefficients, rho.left_rates) - np.vecdot(rho.right_coefficients, rho.right_rates)


def g_zeros(model, modes) -> list[float]:
    """The downward zeros of g, bracketed on the mode stage's samples and refined by Brent's method."""
    zeros = []
    for m in modes:
        y = g(m.rho)
        for j in np.nonzero((y[:-1] > 0.0) & (y[1:] < 0.0))[0]:
            lo, hi = float(m.c[j]), float(m.c[j + 1])
            zeros.append(brentq(lambda c: float(g(solve_modes(model, c).rho_modes())), lo, hi, ROOT_C_REL_TOL * hi))
    return zeros


@pytest.mark.parametrize("case,count", [("case_one", 2), ("case_two", 5), ("case_three", 8)])
def test_wave_speeds_approach_the_local_sensing_zeros(case, count, request):
    model, cfg = request.getfixturevalue(case)
    modes = scan_modes(model)  # one mode stage for every alpha
    zeros = np.array(g_zeros(model, modes))
    assert zeros.size == count, zeros
    distances = []
    for alpha in ALPHAS:
        params = replace(cfg.chem, alpha=alpha, beta=BETA)
        roots = refine_roots(scan_chemistry(modes, params), model, params)
        assert len(roots) == count, (alpha, roots, zeros)
        for c in roots:
            check = verify_root(model, params, c)
            assert check.slope_sign_changes == 1 and abs(check.maximum_location) < 1e-10, (alpha, c, check)
        distances.append(np.abs(np.array(roots) - zeros) / zeros)
    for coarse, fine in zip(distances, distances[1:]):
        ratios = coarse / fine
        assert np.all((DECADE_RATIO[0] <= ratios) & (ratios <= DECADE_RATIO[1])), (distances, ratios)
