from __future__ import annotations

import logging

import numpy as np
import pytest

from chemowave import (
    build_model,
    cutting_index,
    dispersion_residual,
    mean_run_length,
    singular_values,
    solve_roots,
)
from chemowave.dispersion import (
    RESIDUAL_REL_TOL,
    _bisect_brackets,
    _polish,
    _verify_side,
)
from chemowave.errors import (
    BracketFailure,
    SingularLambda,
    SpeedNotAdmissible,
    SpeedOnVelocityNode,
)

SPEEDS = {"one": (0.05, 0.1, 0.2), "two": (0.05, 0.15, 0.3, 0.5), "three": (0.02, 0.1, 0.4)}


def residual_scale(model, c: float, lam: float, side: str) -> float:
    """Largest term magnitude of the dispersion sum, the natural residual scale."""
    poles = singular_values(model, c, side)
    return float(np.max(np.abs(model.weights / (poles - lam))))


def _cases(case_one, case_two, case_three):
    return {
        "one": case_one[0],
        "two": case_two[0],
        "three": case_three[0],
    }


def _brackets(model, c, side):
    """(lo, hi) of each root's exact bracket, from the sorted poles of its side and 0."""
    m = int(np.sum(model.velocities < c))
    poles = singular_values(model, c, side)
    if side == "left":
        neg = np.sort(poles[:m])
        return neg, np.append(neg[1:], 0.0)
    pos = np.sort(poles[m:])
    return np.insert(pos[:-1], 0, 0.0), pos


def test_two_velocity_closed_form(two_velocity_model):
    # With a single velocity pair the right-side dispersion sum has two equal
    # weights, so the root is the midpoint of the two poles.
    c = 0.25
    r = two_velocity_model.rates
    expected = 0.5 * (r.t_pp / (1.0 - c) + r.t_pm / (-1.0 - c))
    roots = solve_roots(two_velocity_model, c)
    assert roots.positive_roots.size == 1 and roots.negative_roots.size == 1
    assert roots.positive_roots[0] == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.4266666666666667, abs=1e-12)


def test_counts_match_relative_velocity_split(case_one, case_two, case_three):
    for name, model in _cases(case_one, case_two, case_three).items():
        for c in SPEEDS[name]:
            roots = solve_roots(model, c)
            below = int(np.sum(model.velocities < c))
            assert roots.negative_roots.size == below
            assert roots.positive_roots.size == model.n_active - below
            assert cutting_index(model, c) == below - 1


def test_root_residuals_below_tolerance(case_one, case_two, case_three):
    for name, model in _cases(case_one, case_two, case_three).items():
        for c in SPEEDS[name]:
            roots = solve_roots(model, c)
            for side, lams in (("left", roots.negative_roots), ("right", roots.positive_roots)):
                for lam in lams:
                    res = dispersion_residual(model, c, float(lam), side)
                    assert abs(res) < 1e-12 * residual_scale(model, c, float(lam), side)


def test_interlacing_is_strict(case_one):
    model, _cfg = case_one
    eps_margin = 1e3 * np.finfo(float).eps
    for c in SPEEDS["one"]:
        roots = solve_roots(model, c)
        m = roots.negative_roots.size
        neg_poles = np.sort(singular_values(model, c, "left")[:m])
        seq = np.empty(2 * m + 1)
        seq[0::2] = np.concatenate([neg_poles, [0.0]])
        seq[1::2] = roots.negative_roots
        gaps = np.diff(seq)
        assert np.all(gaps > eps_margin * np.maximum(np.abs(seq[:-1]), np.abs(seq[1:])))

        pos_poles = np.sort(singular_values(model, c, "right")[m:])
        p = pos_poles.size
        seq = np.empty(2 * p + 1)
        seq[0::2] = np.concatenate([[0.0], pos_poles])
        seq[1::2] = roots.positive_roots
        gaps = np.diff(seq)
        assert np.all(gaps > eps_margin * np.maximum(np.abs(seq[:-1]), np.abs(seq[1:])))


def test_monotone_residual_orientation(case_one):
    model, _cfg = case_one
    c = 0.1
    for side in ("left", "right"):
        for lo, hi in zip(*_brackets(model, c, side)):
            width = hi - lo
            assert dispersion_residual(model, c, lo + 1e-9 * width, side) < 0.0
            assert dispersion_residual(model, c, hi - 1e-9 * width, side) > 0.0


def test_residual_value_at_zero_matches_run_length(case_one):
    # At lambda = 0 the dispersion sum reduces to the mean algebraic run
    # length, positive on the left side and negative on the right side for
    # any speed inside the confinement window.
    model, _cfg = case_one
    for c in SPEEDS["one"]:
        left = dispersion_residual(model, c, 0.0, "left")
        right = dispersion_residual(model, c, 0.0, "right")
        assert left == pytest.approx(mean_run_length(model, c, "left"), rel=1e-13)
        assert right == pytest.approx(mean_run_length(model, c, "right"), rel=1e-13)
        assert left > 0.0 > right


def test_singular_lambda_rejected(case_one):
    model, _cfg = case_one
    c = 0.1
    pole = float(singular_values(model, c, "right")[-1])
    with pytest.raises(SingularLambda):
        dispersion_residual(model, c, pole, "right")


def test_spectral_gap_bound(case_one, case_two, case_three):
    # The slowest right mode stays below its pole by at least the extremal
    # weight: t_pp - lambda_K (v_max - c) >= w_max * t_pp.
    for name, model in _cases(case_one, case_two, case_three).items():
        t_pp = model.rates.t_pp
        w_max = float(model.weights[-1])
        for c in SPEEDS[name]:
            lam_k = solve_roots(model, c).positive_roots[0]
            assert t_pp - lam_k * (model.v_max - c) >= w_max * t_pp - 1e-14


def test_roots_vary_continuously_in_speed(case_one):
    model, _cfg = case_one
    h = 1e-7
    for c in (0.05, 0.12, 0.2):
        r0 = solve_roots(model, c)
        r1 = solve_roots(model, c + h)
        # empirical slope bound: |dlambda/dc| stays modest mid-interval
        for a, b in ((r0.negative_roots, r1.negative_roots), (r0.positive_roots, r1.positive_roots)):
            assert a.size == b.size
            assert np.max(np.abs(b - a)) < 1e3 * h * np.maximum(1.0, np.max(np.abs(a)))


def test_inadmissible_speeds_rejected(case_one):
    # The unique-wave configuration confines only below c ~ 0.2371; faster
    # speeds lose the left-side root and must be refused.
    model, _cfg = case_one
    for c in (0.25, 0.4):
        with pytest.raises(SpeedNotAdmissible):
            solve_roots(model, c)
    with pytest.raises(SpeedOnVelocityNode):
        solve_roots(model, 0.0848)


def test_nan_speed_is_not_admissible(case_one):
    # NaN fails neither confinement check and sorts above every node, so it
    # reaches the "all relative velocities share one sign" refusal.
    model, _cfg = case_one
    with pytest.raises(SpeedNotAdmissible, match="c=nan: all relative velocities share one sign"):
        solve_roots(model, float("nan"))


def test_coincident_singular_values_raise():
    v = 0.5 * (1.0 + 4e-16)
    model = build_model([-v, -0.5, 0.5, v], [0.25, 0.25, 0.25, 0.25], 0.3, 0.15)
    with pytest.raises(BracketFailure):
        solve_roots(model, 0.1)


def _loop_gate(model, c, side, lams):
    """Per-root reference for the vectorised residual gate."""
    poles = singular_values(model, c, side)
    for lam in lams:
        res = dispersion_residual(model, c, float(lam), side)
        rounding = np.finfo(float).eps * abs(lam) * float(np.sum(model.weights / (poles - lam) ** 2))
        if abs(res) > RESIDUAL_REL_TOL * residual_scale(model, c, float(lam), side) + rounding:
            raise BracketFailure(f"root {lam!r} on side {side!r}")


def _gate(model, c, side, lams):
    """The vectorised residual gate of solve_roots, on one speed's roots of one side."""
    with np.errstate(divide="ignore", invalid="ignore"):
        _verify_side(model, np.array([c]), side, singular_values(model, np.array([c]), side), lams[None, :])


def test_vectorised_gate_matches_loop(case_one):
    model, _cfg = case_one
    c = 0.1
    roots = solve_roots(model, c)
    for side, lams in (("left", roots.negative_roots), ("right", roots.positive_roots)):
        _loop_gate(model, c, side, lams)
        _gate(model, c, side, lams)
    # nudge one right root off its zero: both gates must refuse it
    shifted = roots.positive_roots.copy()
    shifted[2] *= 1.0 + 1e-9
    with pytest.raises(BracketFailure):
        _loop_gate(model, c, "right", shifted)
    with pytest.raises(BracketFailure, match="side 'right'"):
        _gate(model, c, "right", shifted)


def test_vectorised_gate_raises_singular_lambda(case_one):
    model, _cfg = case_one
    c = 0.1
    on_pole = solve_roots(model, c).negative_roots.copy()
    on_pole[0] = float(singular_values(model, c, "left")[0])
    with pytest.raises(SingularLambda):
        _gate(model, c, "left", on_pole)


def test_polish_bisects_entries_outside_their_brackets(case_one, caplog):
    model, _cfg = case_one
    c = 0.1
    speeds = np.array([c])
    roots = solve_roots(model, c)
    poles = singular_values(model, speeds, "right")
    lo, hi = _brackets(model, c, "right")
    guess = roots.positive_roots.copy()
    guess[1] = hi[1]  # on a pole: the Newton step is undefined there
    with caplog.at_level(logging.DEBUG, logger="chemowave.dispersion"):
        polished = _polish(model.weights, poles, guess[None, :], lo[None, :], hi[None, :], speeds)[0]
    assert "1 of %d dispersion roots" % guess.size in caplog.text
    assert polished[1] == _bisect_brackets(model.weights, poles, lo[1:2], hi[1:2], speeds)[0]
    keep = np.arange(guess.size) != 1
    np.testing.assert_allclose(polished[keep], roots.positive_roots[keep], rtol=1e-14)
