"""Property test of the dispersion solver over random symmetric velocity models.

The eigenvalue solve with its Newton polish is checked against plain
bisection inside the same exact pole brackets, at the midpoint of every
continuity interval and at 1e-6 (relative width) from each of its edges.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chemowave import (
    admissible_speed_interval,
    build_model,
    evaluate_f_matrix,
    expand_half_set,
    singular_values,
    solve_modes,
    solve_roots,
)
from chemowave.errors import ChemowaveError
from test_dispersion import vectorised_bisection

EDGE_OFFSET = 1e-6       # probe distance from an interval edge, relative to its width
AGREEMENT_REL = 1e-12    # root agreement with bisection, relative
ROUNDING_FACTOR = 16.0   # multiple of the root's rounding-error bound also allowed


def distinct_half_velocities(draw, k: int) -> list[float]:
    """k distinct floats in [0.01, 1.0], ascending, drawn without a rejection filter.

    The k floats are drawn as before but without the uniqueness filter, and a
    float drawn twice is moved: in about one set in ten to the next free float
    above it, so that near-coincident velocities stay common, otherwise to the
    midpoint of the widest gap in [0.01, 1.0].  k distinct draws are kept as
    they are, so every set the filtered draw gave can still be drawn.
    """
    adjacent = draw(st.sampled_from([False] * 9 + [True]))
    taken: list[float] = []
    for v in draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)):
        if v in taken:
            up = np.nextafter(v, 2.0)
            while up in taken:
                up = np.nextafter(up, 2.0)
            if adjacent and up <= 1.0:
                v = float(up)
            else:
                ends = sorted([0.01, 1.0, *taken])
                i = int(np.argmax(np.diff(ends)))
                v = 0.5 * (ends[i] + ends[i + 1])
        taken.append(v)
    return sorted(taken)


@st.composite
def symmetric_models(draw):
    k = draw(st.integers(min_value=2, max_value=40))
    half_v = distinct_half_velocities(draw, k)
    half_w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
    chi_s = draw(st.floats(0.05, 0.45, exclude_min=True, exclude_max=True))
    chi_n = draw(st.floats(0.0, chi_s))
    v, w = expand_half_set(half_v, list(half_w / (2.0 * half_w.sum())))
    return v, w, chi_s, chi_n


def _probe_speeds(model) -> list[float]:
    speeds = []
    for lo, hi in admissible_speed_interval(model).admissible_intervals:
        width = hi - lo
        speeds += [0.5 * (lo + hi), lo + EDGE_OFFSET * width, hi - EDGE_OFFSET * width]
    return speeds


def _rounding_bound(w: np.ndarray, poles: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """How far rounding of the residual alone can move each root.

    The residual's rounding error, eps * sum |w_k / (p_k - lam)|, divided by
    its slope sum w_k / (p_k - lam)^2.  It dominates 1e-12 |lam| only for
    roots much closer to 0 than to their nearest pole (speeds near c_upper),
    where bisection is no more accurate than the polish.
    """
    inv = 1.0 / (poles[None, :] - lam[:, None])
    return np.finfo(float).eps * (np.abs(inv) @ w) / ((inv * inv) @ w)


def _brackets(poles: np.ndarray, m: int, side: str) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) of each root's exact bracket: consecutive sorted poles of the side, and 0."""
    if side == "left":
        neg = np.sort(poles[:m])
        return neg, np.append(neg[1:], 0.0)
    pos = np.sort(poles[m:])
    return np.insert(pos[:-1], 0, 0.0), pos


def _check_roots(model, c: float) -> None:
    roots = solve_roots(model, c)
    w = model.weights
    m = int(np.sum(model.velocities < c))
    for side, lams in (("left", roots.negative_roots), ("right", roots.positive_roots)):
        poles = singular_values(model, c, side)
        lo, hi = _brackets(poles, m, side)
        assert np.all((lo < lams) & (lams < hi))
        reference = vectorised_bisection(w, poles, lo, hi, np.full(lo.size, c))
        tol = AGREEMENT_REL * np.abs(reference) + ROUNDING_FACTOR * _rounding_bound(w, poles, reference)
        assert np.all(np.abs(lams - reference) <= tol)


def _check_profile(model, c: float) -> None:
    profile = solve_modes(model, c)
    rho = profile.rho_modes()
    mass = np.sum(rho.left_coefficients / rho.left_rates) + np.sum(
        rho.right_coefficients / rho.right_rates
    )
    assert abs(mass - 1.0) < 1e-10
    w_dv = model.weights * (model.velocities - c)
    z = np.array([-1.0 / profile.roots.slowest_negative, 0.0, 1.0 / profile.roots.slowest_positive])
    f = evaluate_f_matrix(profile, z)
    flux = f @ w_dv
    assert np.all(np.abs(flux) <= 1e-10 * (np.abs(f) @ np.abs(w_dv)))


@settings(max_examples=25, deadline=None)
@given(symmetric_models())
def test_solver_matches_bisection_and_keeps_invariants(drawn):
    v, w, chi_s, chi_n = drawn
    try:
        model = build_model(v, w, chi_s, chi_n)
        speeds = _probe_speeds(model)
    except ChemowaveError:
        return
    for c in speeds:
        try:
            _check_roots(model, c)
            _check_profile(model, c)
        except ChemowaveError:
            continue  # a typed failure is an allowed outcome; anything else is not
