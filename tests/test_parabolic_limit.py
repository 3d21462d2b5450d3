"""The parabolic limit: the kinetic wave speed against a closed-form speed that shares no code with it.

Scale the sensitivities by eps and ``alpha`` by eps^2, keeping the velocity
set, ``d_s``, ``d_n``, ``beta`` and ``gamma``.  As eps -> 0 the tumbling
bias becomes the drift A (chi_s sign S' + chi_n sign N') with A = sum w |v|,
the density diffuses with D = sum w v^2, and the wave of that drift-diffusion
model has rho = exp(lambda z) for z < 0 and exp(-r z) for z > 0, with
lambda = (A (chi_s + chi_n) - c) / D and r = (c - A (chi_n - chi_s)) / D.
S'(0) = 0 for such a rho holds exactly when theta_+ lambda + theta_- r = 0,
and D cancels: the limit speed c0 solves

    sqrt(c^2 + 4 alpha d_s) (A chi_n - c) = c A chi_s,   0 < c < A chi_n,

at the eps = 1 values of chi and alpha.  The kinetic root divided by eps
tends to c0 at second order in eps.  With two velocities the kinetic root
depends only on lambda / r, and the two-velocity rates are the parabolic
ones times a common factor, so there it is c0 at every eps.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from chemowave import ChemParams, build_model, expand_half_set, refine_roots, scan
from chemowave.wave_speed import brentq

EPS_LADDER = (1 / 16, 1 / 32, 1 / 64)
HALVING_RATIO = (3.5, 4.5)  # second order: the error shrinks about 4x per halving of eps
TWO_VELOCITY_REL_TOL = 1e-12  # the kinetic root's own tolerance (refine_roots stops at 1e-12 relative)


def parabolic_speed(v, w, chi_s: float, chi_n: float, params: ChemParams) -> float:
    """The root c0 in (0, A chi_n) of sqrt(c^2 + 4 alpha d_s) (A chi_n - c) - c A chi_s.

    Brent's bracket stops at 1e-12 relative; two Newton steps take the root
    to the rounding of the equation itself.
    """
    a = float(np.sum(np.asarray(w) * np.abs(v)))

    def f(c: float) -> float:
        return math.sqrt(c * c + 4.0 * params.alpha * params.d_s) * (a * chi_n - c) - c * a * chi_s

    c = brentq(f, 0.0, a * chi_n, 0.0)
    for _ in range(2):
        root = math.sqrt(c * c + 4.0 * params.alpha * params.d_s)
        c -= f(c) / (c * (a * chi_n - c) / root - root - a * chi_s)
    return c


def kinetic_speeds(v, w, chi_s: float, chi_n: float, params: ChemParams, eps: float) -> list[float]:
    """The construction's roots at sensitivities x eps and alpha x eps^2, divided by eps."""
    model = build_model(v, w, eps * chi_s, eps * chi_n)
    scaled = replace(params, alpha=eps * eps * params.alpha)
    return [c / eps for c in refine_roots(scan(model, scaled), model, scaled)]


@pytest.mark.parametrize(
    "case,limit",
    [("case_one", 0.0653720), ("case_two", 0.2135863), ("case_three", 0.1073114)],
)
def test_shipped_cases_approach_the_parabolic_speed_at_second_order(case, limit, request):
    _model, cfg = request.getfixturevalue(case)
    v, w = expand_half_set(list(cfg.velocities), list(cfg.weights))
    c0 = parabolic_speed(v, w, cfg.chi_s, cfg.chi_n, cfg.chem)
    assert c0 == pytest.approx(limit, abs=5e-8)
    errors = []
    for eps in EPS_LADDER:
        [speed] = kinetic_speeds(v, w, cfg.chi_s, cfg.chi_n, cfg.chem, eps)  # exactly one wave
        errors.append(speed - c0)
    for coarse, fine in zip(errors, errors[1:]):
        assert HALVING_RATIO[0] <= coarse / fine <= HALVING_RATIO[1], errors


@pytest.mark.parametrize(
    "chi_s,chi_n,alpha,d_s",
    [(0.3, 0.15, 0.5, 0.5), (0.45, 0.4, 10.0, 0.5), (0.2, 0.05, 2.0, 1.5)],
)
def test_two_velocities_give_the_parabolic_speed_at_every_eps(chi_s, chi_n, alpha, d_s):
    params = ChemParams(d_s=d_s, d_n=1.0, alpha=alpha, beta=1.0, gamma=1.0)
    v, w = [-0.7, 0.7], [0.5, 0.5]
    c0 = parabolic_speed(v, w, chi_s, chi_n, params)
    for eps in (1.0, 0.5, 0.25):
        [speed] = kinetic_speeds(v, w, chi_s, chi_n, params, eps)
        assert abs(speed - c0) <= TWO_VELOCITY_REL_TOL * c0, (eps, speed, c0)
