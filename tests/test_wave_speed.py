from __future__ import annotations

import logging
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from chemowave import (
    ChemParams,
    admissible_speed_interval,
    build_model,
    expand_half_set,
    refine_roots,
    scan,
    solve_modes,
    solve_S,
    upsilon,
    verify_root,
)
from chemowave.errors import LostBracket, NullSpaceDimensionError, ResonantMode
import chemowave.wave_speed as wave_speed_mod
from chemowave.wave_speed import scan_chemistry, scan_modes


@pytest.fixture(scope="module")
def chem_strong() -> ChemParams:
    return ChemParams(d_s=0.5, d_n=1.0, alpha=10.0, beta=1.0, gamma=1.0)


def test_no_wave_configuration_is_negative(case_three, chem_strong):
    model, _cfg = case_three
    for c in (0.01, 0.1, 0.3, 0.6):
        assert upsilon(model, chem_strong, c) < 0.0


def test_symmetric_probe_is_flat():
    # With the nutrient coupling disabled the stationary problem at c = 0 is
    # mirror symmetric, so the attractant slope at the origin vanishes.
    half_v = [0.0, 0.0848, 0.2519, 0.4118, 0.5598, 0.6917, 0.8037, 0.8926, 0.9558, 0.9916]
    half_w = [0.0, 0.0846, 0.0822, 0.0774, 0.0703, 0.0613, 0.0505, 0.0382, 0.0249, 0.0108]
    from chemowave import expand_half_set

    scale = 2.0 * sum(half_w)
    v, w = expand_half_set(half_v, [x / scale for x in half_w])
    model = build_model(v, w, 0.3, 0.0)
    params = ChemParams(d_s=0.5, d_n=1.0, alpha=0.5, beta=1.0, gamma=1.0)
    assert abs(upsilon(model, params, 0.0)) < 1e-12


def test_sign_change_near_fast_root(case_two, chem_strong):
    model, _cfg = case_two
    assert upsilon(model, chem_strong, 0.12) > 0.0
    assert upsilon(model, chem_strong, 0.16) < 0.0


def test_scan_is_deterministic(case_one, chem_default):
    model, _cfg = case_one
    c1 = scan(model, chem_default, 8)
    c2 = scan(model, chem_default, 8)
    assert [s for s in c1.samples] == [s for s in c2.samples]
    assert len(c1.intervals) == 2  # one interior node below the speed ceiling



@pytest.mark.parametrize("case", ["case_one", "case_two", "case_three"])
def test_one_mode_stage_serves_every_parameter_value(case, request):
    # scan is scan_chemistry after scan_modes: one mode stage, then the chemistry stage at
    # each (alpha, d_s, beta), gives a fresh scan's curve bit for bit, and each interval's
    # samples are one stacked upsilon call's
    model, cfg = request.getfixturevalue(case)
    modes = scan_modes(model)
    for alpha, d_s, beta in [(0.5, 0.5, 1.0), (10.0, 0.1, 2.5), (1e4, 2.0, 0.3), (1e7, 0.5, 3.0)]:
        params = replace(cfg.chem, alpha=alpha, d_s=d_s, beta=beta)
        staged, whole = scan_chemistry(modes, params), scan(model, params)
        assert [(seg.interval_id, seg.lo, seg.hi) for seg in staged.intervals] == [
            (seg.interval_id, seg.lo, seg.hi) for seg in whole.intervals
        ]
        for ours, theirs in zip(staged.intervals, whole.intervals):
            assert ours.c.tobytes() == theirs.c.tobytes()
            assert ours.upsilon.tobytes() == theirs.upsilon.tobytes()
            assert theirs.upsilon.tobytes() == upsilon(model, params, theirs.c).tobytes()
        assert repr(staged.brackets) == repr(whole.brackets)
        assert repr(staged.upward_crossings) == repr(whole.upward_crossings)


def _equal_sensitivities(cfg, chi: float):
    """sec4_1's velocity set with chi_s = chi_n = chi, whose speed window starts at c_lower = 0."""
    model = build_model(*expand_half_set(list(cfg.velocities), list(cfg.weights)), chi, chi)
    assert admissible_speed_interval(model).c_lower == 0.0
    return model


@pytest.mark.parametrize("chi", [0.1, 0.15, 0.2, 0.25])
def test_equal_sensitivities_scan_at_the_default_sample_count(case_one, chi):
    _model, cfg = case_one
    curve = scan(_equal_sensitivities(cfg, chi), cfg.chem)
    assert curve.intervals[0].lo == 0.0 and curve.brackets


@pytest.mark.xfail(
    raises=NullSpaceDimensionError,
    strict=True,
    reason="with chi_s == chi_n, solve_modes raises NullSpaceDimensionError at c = 7.99e-07, the first of 256 "
    "Chebyshev samples, 9.4e-6 of the interval's width above c_lower = 0: rounding of an ill-conditioned "
    "near-zero root decides it (CHANGES.md FOUND), so upsilon-scan exits 3 at samples_per_interval = 256",
)
@pytest.mark.parametrize("chi", [0.1, 0.15, 0.2])
def test_equal_sensitivities_scan_at_256_samples(case_one, chi):
    _model, cfg = case_one
    curve = scan(_equal_sensitivities(cfg, chi), cfg.chem, 256)
    assert curve.intervals[0].lo == 0.0 and curve.brackets


def test_samples_keep_clear_of_nodes_and_endpoints(case_two, chem_strong):
    model, _cfg = case_two
    window = admissible_speed_interval(model)
    curve = scan(model, chem_strong, 8)
    guard = model.node_guard
    forbidden = np.concatenate([[0.0, window.c_upper], model.velocities])
    for c, _y in curve.samples:
        assert np.min(np.abs(forbidden - c)) >= guard * 0.999


def test_sample_count_contract(case_one, chem_default):
    model, _cfg = case_one
    with pytest.raises(ValueError):
        scan(model, chem_default, 4)
    curve = scan(model, chem_default, 8)
    assert all(seg.c.size == 8 for seg in curve.intervals)


def _fake_upsilon(monkeypatch, fake):
    """Replace Upsilon by ``fake(_, params, c)`` in both its callers: the scan's chemistry stage and Brent's method."""
    monkeypatch.setattr(wave_speed_mod, "s_slope_at_zero", fake)
    monkeypatch.setattr(wave_speed_mod, "upsilon", fake)


def test_refine_bisection_on_synthetic_curve(case_one, chem_default, monkeypatch):
    # Bisection correctness in isolation: replace the matching function by a
    # linear one and check the refined root hits its zero.
    model, _cfg = case_one
    root_true = 0.1234567
    _fake_upsilon(monkeypatch, lambda _m, _p, c: root_true - c)
    curve = wave_speed_mod.scan(model, chem_default, 16)
    roots = wave_speed_mod.refine_roots(curve, model, chem_default)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(root_true, rel=1e-11)
    assert curve.root_residuals[0] == pytest.approx(0.0, abs=1e-12)


def test_upward_crossing_reported_not_rooted(case_one, chem_default, monkeypatch, caplog):
    model, _cfg = case_one
    _fake_upsilon(monkeypatch, lambda _m, _p, c: c - 0.1234567)
    with caplog.at_level(logging.WARNING, logger="chemowave"):
        curve = wave_speed_mod.scan(model, chem_default, 16)
    assert curve.brackets == []
    assert len(curve.upward_crossings) == 1
    [(_i, lo, hi)] = curve.upward_crossings
    assert [r.getMessage() for r in caplog.records] == [
        f"upward in-interval crossing of Upsilon between c={lo!r} and c={hi!r}; not counted as a wave speed"
    ]
    assert wave_speed_mod.refine_roots(curve, model, chem_default) == []


def test_narrow_intervals_are_logged(caplog):
    # nodes 2 and 5 guards apart: the first interval gets no sample and leaves a line in the log,
    # the second gets the full Chebyshev set on its guarded inside, as every wider interval does
    half = [0.0, 0.02, 0.02 + 2e-9, 0.05, 0.05 + 5e-9, 0.2, 0.5, 1.0]
    model = build_model(*expand_half_set(half, [0.0] + [1.0 / 14.0] * 7), 0.3, 0.1)
    params = ChemParams(d_s=0.5, d_n=1.0, alpha=0.5, beta=1.0, gamma=1.0)
    with caplog.at_level(logging.INFO, logger="chemowave"):
        curve = scan(model, params, samples_per_interval=8)
    assert all(seg.c.size == 8 for seg in curve.intervals)
    (narrow,) = [seg for seg in curve.intervals if seg.lo == 0.05]
    assert narrow.hi == 0.05 + 5e-9
    assert narrow.lo + model.node_guard < narrow.c[0] and narrow.c[-1] < narrow.hi - model.node_guard
    assert 0.02 not in [seg.lo for seg in curve.intervals]
    assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
        (
            logging.WARNING,
            f"continuity interval (0.02, {0.02 + 2e-9!r}) is no wider than 3 node guards; "
            "skipped, no root there is found",
        ),
    ]


def test_lost_bracket_rejects_bad_signs(case_one, chem_default):
    model, _cfg = case_one
    curve = scan(model, chem_default, 8)
    curve.brackets = [(0, 0.01, 0.02, -1.0, 1.0)]
    with pytest.raises(LostBracket):
        refine_roots(curve, model, chem_default)


def test_solver_error_inside_a_bracket_becomes_lost_bracket(case_one, chem_default, monkeypatch):
    # the error leaves Upsilon inside Brent's loop, which runs in scipy's C
    # code, and must reach refine_roots as itself
    model, _cfg = case_one
    curved = lambda _m, _p, c: np.tanh(40.0 * (0.0246 - c))  # noqa: E731
    _fake_upsilon(monkeypatch, curved)
    curve = scan(model, chem_default, 16)
    [(_i, lo, hi, _y_lo, _y_hi)] = curve.brackets
    error = NullSpaceDimensionError("matching matrix has a 2-dimensional null space")
    calls = []

    def failing(_m, _p, c):
        calls.append(c)
        if len(calls) == 2:
            raise error
        return curved(_m, _p, c)

    monkeypatch.setattr(wave_speed_mod, "upsilon", failing)
    with pytest.raises(LostBracket) as lost:
        refine_roots(curve, model, chem_default)
    assert str(lost.value) == f"could not refine bracket ({lo!r}, {hi!r}): {error}"
    assert lost.value.__cause__ is error
    assert len(calls) == 2


def test_node_jump_is_recorded_not_rooted(case_one, chem_default):
    model, _cfg = case_one
    curve = scan(model, chem_default, 16)
    roots = refine_roots(curve, model, chem_default)
    # the end samples of two intervals that meet at a node straddle its jump
    jumps = [
        (left.hi, left.upsilon[-1], right.upsilon[0])
        for left, right in zip(curve.intervals, curve.intervals[1:])
        if left.hi == right.lo
    ]
    assert len(jumps) == 1
    node, left_limit, right_limit = jumps[0]
    assert node == pytest.approx(0.0848)
    assert np.isfinite(left_limit) and np.isfinite(right_limit)
    # the jump at the node changes sign upward; it must not appear as a root
    for c in roots:
        assert abs(c - node) > 100 * model.node_guard


def test_roots_satisfy_curve_invariants(case_two, chem_strong):
    model, _cfg = case_two
    curve = scan(model, chem_strong, 16)
    roots = refine_roots(curve, model, chem_strong)
    scale = max(abs(y) for _c, y in curve.samples)
    window = admissible_speed_interval(model)
    for c, res in zip(roots, curve.root_residuals):
        assert abs(res) < 1e-10 * scale
        assert any(lo < c < hi for lo, hi in window.admissible_intervals)
    # downward crossings only
    for _i, lo, hi, y_lo, y_hi in curve.brackets:
        assert y_lo > 0.0 > y_hi


def test_verify_root_confirms_unimodality(case_two, chem_strong):
    model, _cfg = case_two
    curve = scan(model, chem_strong, 16)
    roots = refine_roots(curve, model, chem_strong)
    assert roots, "expected at least one admissible root"
    check = verify_root(model, chem_strong, roots[-1])
    assert check.slope_sign_changes == 1
    assert abs(check.maximum_location) < 1e-6


def test_refine_brent_on_curved_synthetic_curve(case_one, chem_default, monkeypatch):
    # A nonlinear matching function with a small root, where an absolute
    # tolerance of order 1e-12 would be far looser than 1e-12 relative.
    model, _cfg = case_one
    root_true = 0.0246
    calls = []

    def curved(_m, _p, c):
        calls.append(c)
        return np.tanh(40.0 * (root_true - c)) + 0.3 * (root_true - c) ** 2

    _fake_upsilon(monkeypatch, curved)
    curve = wave_speed_mod.scan(model, chem_default, 16)
    calls.clear()
    roots = wave_speed_mod.refine_roots(curve, model, chem_default)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(root_true, rel=2e-12)
    assert len(calls) < 20
    # the bracket ends' values come from the scan, not from new calls
    [(_i, lo, hi, _y_lo, _y_hi)] = curve.brackets
    assert lo not in calls and hi not in calls
    # nor is any point evaluated twice: the residual is Brent's own value at the root
    assert len(calls) == len(set(calls))
    assert curve.root_residuals == [curved(model, chem_default, roots[0])]


def _slope_50_digits(rho, params, c) -> mpmath.mpf:
    """S'(0) through the particular coefficients A_j, the route of ``solve_S``, in 50 digits.

    At an exact resonance in double precision the 50-digit denominator
    alpha - c mu - d_s mu^2 is still nonzero, and about 30 digits survive.
    """
    with mpmath.workdps(50):
        c, d_s, alpha, beta = (mpmath.mpf(x) for x in (c, params.d_s, params.alpha, params.beta))
        disc = mpmath.sqrt(c * c + 4 * alpha * d_s)
        theta_plus, theta_minus = (-c + disc) / (2 * d_s), (-c - disc) / (2 * d_s)
        sides = []
        for coefficients, exponents in (
            (rho.left_coefficients, rho.left_rates),
            (rho.right_coefficients, -rho.right_rates),
        ):
            mu = [mpmath.mpf(x) for x in exponents]
            a = [beta * mpmath.mpf(s) / (alpha - c * m - d_s * m * m) for s, m in zip(coefficients, mu)]
            sides.append((sum(a), sum(x * m for x, m in zip(a, mu))))
        (sum_left, slope_left), (sum_right, slope_right) = sides
        d0, d1 = sum_left - sum_right, slope_left - slope_right
        coef_plus = (d1 - theta_minus * d0) / (theta_minus - theta_plus) + d0
        return slope_right + coef_plus * theta_minus


def test_exact_resonance_is_not_a_singular_speed(case_one, caplog):
    # alpha = c mu + d_s mu^2 puts left mode 2 exactly on theta_+ at c = 0.1:
    # solve_S refuses its particular coefficients, while Upsilon, whose
    # resonant factors cancel, is as accurate there as anywhere
    model, cfg = case_one
    c = 0.1
    rho = solve_modes(model, c).rho_modes()
    mu = float(rho.left_rates[2])
    params = replace(cfg.chem, alpha=c * mu + cfg.chem.d_s * mu * mu)
    with pytest.raises(ResonantMode):
        solve_S(rho, params, c)
    with caplog.at_level(logging.DEBUG, logger="chemowave"):
        value = upsilon(model, params, c)
    assert caplog.records == []
    reference = _slope_50_digits(rho, params, c)
    assert abs((value - reference) / reference) < 1e-13


@pytest.mark.parametrize("c", [0.02, 0.05, 0.1, 0.2])
def test_sfield_slope_is_upsilon(case_one, chem_default, c):
    model, _cfg = case_one
    value = upsilon(model, chem_default, c)
    assert abs((value - _slope_50_digits(solve_modes(model, c).rho_modes(), chem_default, c)) / value) < 1e-13


@pytest.mark.parametrize("alpha", [1e30, 1e100, 1e200])
def test_a_large_alpha_keeps_the_two_waves_of_sec4_1(case_one, alpha):
    # Upsilon shrinks like 1 / alpha while rho(0) does not; the slope's closed form once
    # summed rho(0-) - rho(0+), exactly zero, from terms of the size of rho(0), and the
    # rounding of that difference gave 4, 16 and 13 roots here instead of 2
    model, cfg = case_one
    params = replace(cfg.chem, alpha=alpha)
    roots = refine_roots(scan(model, params), model, params)
    assert roots == pytest.approx([0.01203199095998, 0.14460570186855], rel=1e-11)
    for c in roots:
        check = verify_root(model, params, c)
        assert check.slope_sign_changes == 1 and abs(check.maximum_location) < 1e-6
