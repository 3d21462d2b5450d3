"""The dispersion residual gate against 50-digit roots.

``dispersion._verify_side`` accepts a root when
|r(lambda)| <= 1e-12 max_k |w_k / (p_k - lambda)| + eps |lambda| r'(lambda).
The second term is the residual that rounding lambda to a double can leave.
These tests check, on the poles the solve used, that every root the gate
accepts lies within ``KAPPA_ULPS * max(kappa, 1)`` ulps of the root the
50-digit arithmetic gives, where kappa = sum_k |w_k / (p_k - lambda)| /
(|lambda| r'(lambda)) is the root's condition number, and that the added
term does not let through a root moved by twice what it allows.
"""

from __future__ import annotations

import re

import mpmath
import numpy as np
import pytest

from chemowave import admissible_speed_interval, build_model, expand_half_set, singular_values, solve_roots
from chemowave.dispersion import RESIDUAL_REL_TOL, _verify_side
from chemowave.errors import BracketFailure

DIGITS = 50
KAPPA_ULPS = 2.0      # accepted roots lie within this many max(kappa, 1) ulps of the 50-digit root
EPS = np.finfo(float).eps


def _gauss_legendre(n: int, chi_s: float, chi_n: float):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return build_model(nodes, weights / weights.sum(), chi_s, chi_n)


def _inputs() -> list[tuple[str, object, float]]:
    """(label, model, speed): Gauss-Legendre sets of 8, 32 and 128 velocities and random models."""
    rng = np.random.default_rng(2024)
    cases = [
        # sec4_1's sensitivities on 128 velocities: the first scan sample, whose
        # right roots a gate without the rounding term refused
        ("gl128-sec4_1", _gauss_legendre(128, 0.3, 0.15), 0.00022139619705014487),
    ]
    for n in (8, 32, 128):
        chi_s = rng.uniform(0.1, 0.45)
        model = _gauss_legendre(n, chi_s, rng.uniform(0.0, chi_s))
        cases += [(f"gl{n}", model, c) for c in _speeds(model, rng)]
    for k in (3, 12):
        half_v = np.sort(rng.uniform(0.01, 1.0, k))
        half_w = rng.uniform(0.01, 1.0, k)
        chi_s = rng.uniform(0.1, 0.45)
        v, w = expand_half_set(list(half_v), list(half_w / (2.0 * half_w.sum())))
        model = build_model(v, w, chi_s, rng.uniform(0.0, chi_s))
        cases += [(f"random{2 * k}", model, c) for c in _speeds(model, rng)]
    return cases


def _speeds(model, rng) -> list[float]:
    guard = 2.0 * model.node_guard
    intervals = [(lo, hi) for lo, hi in admissible_speed_interval(model).admissible_intervals if hi - lo > 4 * guard]
    speeds = []
    for _ in range(2):
        lo, hi = intervals[rng.integers(len(intervals))]
        speeds.append(float(rng.uniform(lo + guard, hi - guard)))
    return speeds


INPUTS = _inputs()


def _gate_terms(w, poles, lam: float):
    """residual, largest term, slope r'(lambda) and condition number kappa, in doubles."""
    terms = w / (poles - lam)
    slope = float((terms / (poles - lam)).sum())
    return float(terms.sum()), float(np.abs(terms).max()), slope, float(np.abs(terms).sum()) / (abs(lam) * slope)


def _root_50_digits(w, poles, lam: float) -> mpmath.mpf:
    """Newton's method at 50 digits from the double root, on the same double poles and weights."""
    with mpmath.workdps(DIGITS):
        wm = [mpmath.mpf(float(x)) for x in w]
        pm = [mpmath.mpf(float(p)) for p in poles]
        x = mpmath.mpf(lam)
        for _ in range(8):
            inv = [1 / (p - x) for p in pm]
            step = mpmath.fsum(a * b for a, b in zip(wm, inv)) / mpmath.fsum(a * b * b for a, b in zip(wm, inv))
            x -= step
            if abs(step) <= mpmath.mpf(10) ** (-DIGITS + 10) * abs(x):
                return x
    raise AssertionError(f"50-digit Newton from {lam!r} did not settle")


@pytest.fixture(scope="module")
def solved():
    """(label, model, c, side, poles, roots, 50-digit roots) for both sides of every input.

    solve_roots raises if the gate refuses any of its roots.
    """
    rows = []
    for label, model, c in INPUTS:
        roots = solve_roots(model, c)
        for side, lams in (("left", roots.negative_roots), ("right", roots.positive_roots)):
            poles = singular_values(model, np.array([c]), side)[0]
            exact = [_root_50_digits(model.weights, poles, float(lam)) for lam in lams]
            rows.append((label, model, c, side, poles, lams, exact))
    return rows


def test_accepted_roots_lie_within_kappa_ulps_of_the_50_digit_root(solved):
    worst = 0.0
    for label, model, c, side, poles, lams, exact in solved:
        for lam, x in zip(lams.tolist(), exact):
            kappa = _gate_terms(model.weights, poles, lam)[3]
            with mpmath.workdps(DIGITS):
                ulps = float(abs(mpmath.mpf(lam) - x)) / float(np.spacing(abs(lam)))
            assert ulps <= KAPPA_ULPS * max(kappa, 1.0), (label, c, side, lam, ulps, kappa)
            worst = max(worst, ulps / max(kappa, 1.0))
    assert worst > 0.0  # the oracle is not comparing the roots with themselves


def test_the_rounding_term_admits_roots_the_relative_term_alone_refuses(solved):
    # the first input reaches the new term: some accepted root has a residual
    # above 1e-12 times its largest term
    excused = []
    for label, model, _c, _side, poles, lams, _exact in solved:
        if label == INPUTS[0][0]:
            for lam in lams.tolist():
                res, scale, _slope, _kappa = _gate_terms(model.weights, poles, lam)
                excused += [lam] if abs(res) > RESIDUAL_REL_TOL * scale else []
    assert excused


def test_a_root_moved_by_twice_the_allowance_is_refused(solved):
    # The gate allows a root about eps |lambda| + 1e-12 scale / r'(lambda) of
    # error.  Moved by twice that from the correctly rounded 50-digit root,
    # every root must fail it on either side.  Where the rounding term
    # dominates, the move is 2 eps |lambda|, two to four ulps.
    moved = 0
    for _label, model, c, side, poles, lams, exact in solved:
        for k, x in enumerate(exact):
            rounded = float(x)
            _res, scale, slope, _kappa = _gate_terms(model.weights, poles, rounded)
            allowance = EPS * abs(rounded) + RESIDUAL_REL_TOL * scale / slope
            for sign in (1.0, -1.0):
                shifted = lams.copy()
                shifted[k] = rounded + sign * 2.0 * allowance
                with np.errstate(divide="ignore", invalid="ignore"):
                    with pytest.raises(BracketFailure, match=re.escape(f"root {float(shifted[k])!r} on side {side!r}")):
                        _verify_side(model, np.array([c]), side, poles[None, :], shifted[None, :])
                moved += 1
    assert moved > 1000
