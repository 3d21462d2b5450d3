from __future__ import annotations

import logging
import re

import numpy as np
import pytest

from chemowave import (
    admissible_speed_interval,
    build_model,
    cutting_index,
    dispersion_residual,
    expand_half_set,
    mean_run_length,
    singular_values,
    solve_roots,
)
from chemowave import dispersion
from chemowave.dispersion import (
    RESIDUAL_REL_TOL,
    _polish,
    _verify_side,
)
from chemowave.errors import (
    BracketFailure,
    SingularLambda,
    SpeedNotAdmissible,
    SpeedOnVelocityNode,
    at_speed,
)

SPEEDS = {"one": (0.05, 0.1, 0.2), "two": (0.05, 0.15, 0.3, 0.5), "three": (0.02, 0.1, 0.4)}
FALLBACK_GAUSS_LEGENDRE = (2, 3, 4, 6, 8, 12, 18, 32, 64, 128)
FALLBACK_SYMMETRIC_DRAWS = 8


def vectorised_bisection(
    w: np.ndarray, poles: np.ndarray, lo: np.ndarray, hi: np.ndarray, speeds: np.ndarray
) -> np.ndarray:
    """Bisect every bracket simultaneously down to machine width: the reference for the polish's fallback.

    Every step halves each bracket that still has a representable midpoint
    (200 steps at most), moving ``lo`` up where the dispersion sum is
    negative: the midpoints and stopping test of ``bisect_decreasing``, run
    on all brackets at once.  ``poles`` is one row for every
    bracket or one row per bracket; ``speeds``, one per bracket, names the
    speed of a NaN sum.
    """
    lo = lo.copy()
    hi = hi.copy()
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        active = (mid > lo) & (mid < hi)
        if not np.any(active):
            break
        with np.errstate(divide="ignore"):
            res = np.sum(w / (poles - mid[:, None]), axis=1)
        nan = active & np.isnan(res)
        if nan.any():
            raise at_speed(
                BracketFailure("dispersion residual evaluated to NaN inside a bracket"), speeds[nan.argmax()]
            )
        go_up = active & (res < 0.0)
        go_dn = active & ~go_up
        lo[go_up] = mid[go_up]
        hi[go_dn] = mid[go_dn]
    return 0.5 * (lo + hi)


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
    assert polished[1] == vectorised_bisection(model.weights, poles, lo[1:2], hi[1:2], speeds)[0]
    keep = np.arange(guess.size) != 1
    np.testing.assert_allclose(polished[keep], roots.positive_roots[keep], rtol=1e-14)


def test_polish_names_the_speed_of_a_nan_residual(case_one):
    model, _cfg = case_one
    c = 0.1
    speeds = np.array([c])
    w = model.weights.copy()
    w[0] = np.nan  # every Newton step is NaN and is refused, so only the misplaced root is bisected
    poles = singular_values(model, speeds, "right")
    lo, hi = _brackets(model, c, "right")
    guess = solve_roots(model, c).positive_roots.copy()
    guess[1] = hi[1]
    message = f"at c={c!r}: dispersion residual evaluated to NaN inside a bracket"
    with pytest.raises(BracketFailure, match=re.escape(message)) as caught:
        _polish(w, poles, guess[None, :], lo[None, :], hi[None, :], speeds)
    assert caught.value.c == c


def _fallback_models():
    """Seeded models: Gauss-Legendre sets, then symmetric sets, every other one with a zero velocity.

    One model in five has chi_s == chi_n.
    """
    rng = np.random.default_rng(28)
    for i in range(len(FALLBACK_GAUSS_LEGENDRE) + FALLBACK_SYMMETRIC_DRAWS):
        chi_s = rng.uniform(0.05, 0.45)
        chi_n = chi_s if i % 5 == 0 else rng.uniform(0.0, chi_s)
        if i < len(FALLBACK_GAUSS_LEGENDRE):
            nodes, weights = np.polynomial.legendre.leggauss(FALLBACK_GAUSS_LEGENDRE[i])
            yield build_model(nodes, weights / weights.sum(), chi_s, chi_n)
            continue
        k = int(rng.integers(2, 41))
        half_v = np.sort(rng.uniform(0.01, 1.0, k))
        if i % 2:
            half_v[0] = 0.0
        v, w = expand_half_set(half_v, rng.uniform(0.01, 1.0, k))
        yield build_model(v, np.array(w) / np.sum(w), chi_s, chi_n)


def test_fallback_is_the_vectorised_bisection_bit_for_bit(monkeypatch):
    # Without Newton steps every guess on or past a bracket end goes to the
    # fallback, which must return the reference loop's doubles exactly.
    monkeypatch.setattr(dispersion, "_NEWTON_STEPS", 0)
    rng = np.random.default_rng(28)
    forced = 0
    for model in _fallback_models():
        intervals = admissible_speed_interval(model).admissible_intervals
        a, b = intervals[rng.integers(len(intervals))]
        speeds = a + (b - a) * rng.uniform(0.05, 0.95, int(rng.integers(1, 5)))
        m = int(cutting_index(model, speeds)[0]) + 1
        zeros = np.zeros((speeds.size, 1))
        neg = np.sort(singular_values(model, speeds, "left")[:, :m], axis=1)
        pos = np.sort(singular_values(model, speeds, "right")[:, m:], axis=1)
        brackets = {
            "left": (neg, np.concatenate([neg[:, 1:], zeros], axis=1)),
            "right": (np.concatenate([zeros, pos[:, :-1]], axis=1), pos),
        }
        for side, (lo, hi) in brackets.items():
            poles = singular_values(model, speeds, side)
            past = hi + rng.uniform(0.0, 1.0, lo.shape) * (hi - lo)
            guess = np.choose(rng.integers(0, 4, lo.shape), [lo, hi, 0.5 * (lo + hi), past])
            outside = ~((guess > lo) & (guess < hi))
            expected = guess.copy()
            rows = np.broadcast_to(poles[:, None, :], outside.shape + poles.shape[-1:])[outside]
            per_root = np.broadcast_to(speeds[:, None], outside.shape)[outside]
            expected[outside] = vectorised_bisection(model.weights, rows, lo[outside], hi[outside], per_root)
            polished = _polish(model.weights, poles, guess, lo, hi, speeds)
            assert np.array_equal(polished.view(np.int64), expected.view(np.int64)), (model.n_active, side)
            forced += int(np.count_nonzero(outside))
    assert forced >= 1000
