from __future__ import annotations

import dataclasses
import logging

import numpy as np
import pytest

import chemowave.wave_profile as wave_profile_mod
from chemowave import (
    PiecewiseExponential,
    b_via_orthogonality,
    duhamel_f,
    evaluate_I,
    evaluate_I_derivative,
    evaluate_f_matrix,
    per_mode_mass,
    solve_modes,
    verification_grid,
)
from chemowave.errors import NonPositiveProfile, NullSpaceDimensionError
from chemowave.velocity_model import side_rates
from chemowave.wave_profile import GRID_DECADES, check_positivity, certified_rows, descartes_positive


@pytest.fixture(scope="module")
def profile_two(two_velocity_model):
    return solve_modes(two_velocity_model, 0.25)


@pytest.fixture(scope="module")
def profile_one(case_one):
    return solve_modes(case_one[0], 0.1)


def test_two_velocity_matching_ratio(profile_two):
    # Zero flux at the origin forces f(0, v)/f(0, -v) = (v + c)/(v - c) for a
    # single pair with equal weights.
    c = profile_two.c
    assert profile_two.a.size == 1 and profile_two.b.size == 1
    ratio = profile_two.f_at_zero[1] / profile_two.f_at_zero[0]
    assert ratio == pytest.approx((1.0 + c) / (1.0 - c), rel=1e-12)


def test_left_null_vector_annihilates_matching(profile_one):
    model = profile_one.model
    u = model.weights * (model.velocities - profile_one.c)
    matching = np.hstack([1.0 / profile_one.denom_left, -1.0 / profile_one.denom_right])
    residual = u @ matching
    scale = np.abs(u) @ np.abs(matching)
    assert np.max(np.abs(residual)) < 1e-13 * np.max(scale)


def test_unit_mass_and_side_split(profile_one, profile_two):
    for p in (profile_one, profile_two):
        assert p.left_mass + p.right_mass == pytest.approx(1.0, abs=1e-12)
        assert p.left_mass > 0 and p.right_mass > 0


def test_per_mode_mass_against_quadrature(profile_two):
    # Single right mode: the analytic mass must match trapezoid quadrature of
    # rho over [0, 40/lambda].
    model = profile_two.model
    lam = float(profile_two.roots.positive_roots[0])
    z = np.linspace(0.0, 40.0 / lam, 400001)
    rho = np.asarray(profile_two.rho_modes()(z))
    quad_mass = np.trapezoid(rho, z)
    analytic = profile_two.b[0] * per_mode_mass(model, profile_two.c, lam, "right")
    assert analytic == pytest.approx(profile_two.right_mass, abs=1e-15)
    assert quad_mass == pytest.approx(analytic, abs=1e-8)


def test_per_mode_mass_scalar_identity(profile_one):
    # For each mode the mass formula is (integral of exp(-lam z)) times the
    # velocity sum of the mode shape; check against the explicit factors.
    model = profile_one.model
    c = profile_one.c
    lam = float(profile_one.roots.positive_roots[0])
    shape = float(np.sum(model.weights / (side_rates(model, c, "right") - lam * (model.velocities - c))))
    assert per_mode_mass(model, c, lam, "right") == pytest.approx(shape / lam, rel=1e-14)
    with pytest.raises(ValueError):
        per_mode_mass(model, c, 0.0, "right")


def test_total_mass_quadrature(profile_one):
    z_max = 40.0 / min(profile_one.roots.slowest_positive, profile_one.roots.slowest_negative)
    z = np.linspace(-z_max, z_max, 2**20 + 1)
    rho = np.asarray(profile_one.rho_modes()(z))
    assert np.trapezoid(rho, z) == pytest.approx(1.0, abs=1e-6)


def test_matching_continuity_at_origin(profile_one):
    left = (1.0 / profile_one.denom_left) @ profile_one.a
    right = (1.0 / profile_one.denom_right) @ profile_one.b
    assert np.max(np.abs(left - right)) < 1e-10 * np.max(np.abs(right))


def test_zero_flux_identity(profile_one):
    model = profile_one.model
    grid = verification_grid(profile_one)
    f = evaluate_f_matrix(profile_one, grid)
    flux = f @ (model.weights * (model.velocities - profile_one.c))
    assert np.max(np.abs(flux)) < 1e-10 * np.max(f)


def test_positivity_on_grid(profile_one):
    f = evaluate_f_matrix(profile_one, verification_grid(profile_one))
    assert np.min(f) > 0.0


def test_density_monotone_both_sides(profile_one):
    grid = verification_grid(profile_one)
    rho = np.asarray(profile_one.rho_modes()(grid))
    neg = grid < 0
    assert np.all(np.diff(rho[neg]) > 0)
    assert np.all(np.diff(rho[~neg]) < 0)


def test_partial_densities_monotone(profile_one):
    grid = verification_grid(profile_one)
    neg = grid < 0
    for sign in (-1, +1):
        part = np.asarray(profile_one.partial_rho_modes(sign)(grid))
        assert np.all(np.diff(part[neg]) > 0)
        assert np.all(np.diff(part[~neg]) < 0)


def test_partial_densities_are_cached_and_sum_to_rho(profile_one):
    minus, plus = profile_one.partial_rho_modes(-1), profile_one.partial_rho_modes(+1)
    assert profile_one.partial_rho_modes(-1) is minus
    assert profile_one.partial_rho_modes(+1) is plus
    grid = verification_grid(profile_one)
    rho = np.asarray(profile_one.rho_modes()(grid))
    assert np.allclose(np.asarray(minus(grid)) + np.asarray(plus(grid)), rho, rtol=1e-13, atol=0.0)


def test_halfwidth_spans_the_slowest_tail(profile_one):
    slowest = min(profile_one.roots.slowest_positive, profile_one.roots.slowest_negative)
    assert profile_one.halfwidth == GRID_DECADES / slowest


def test_event_density_reconstruction(profile_one):
    # I(z) from the side-split densities equals the direct sum over
    # velocities with the pointwise rates.
    model = profile_one.model
    r = model.rates
    for z in (-3.0, -0.4, 0.2, 1.5, 12.0):
        f = evaluate_f_matrix(profile_one, z)[0]
        T = np.where(
            model.velocities < profile_one.c,
            r.t_mm if z < 0 else r.t_pm,
            r.t_mp if z < 0 else r.t_pp,
        )
        direct = float(np.sum(model.weights * T * f))
        assert evaluate_I(profile_one, z) == pytest.approx(direct, rel=1e-12)


def test_event_density_is_pure_mode_sum(profile_one):
    # Each dispersion root makes the velocity sum of T times the mode shape
    # collapse to 1, so I is the bare exponential sum of the coefficients.
    z = np.array([-2.0, -0.5, 0.3, 4.0])
    expected = np.where(
        z < 0,
        np.exp(-np.outer(z, profile_one.roots.negative_roots)) @ profile_one.a,
        np.exp(-np.outer(z, profile_one.roots.positive_roots)) @ profile_one.b,
    )
    assert np.allclose(np.asarray(evaluate_I(profile_one, z)), expected, rtol=1e-12)


@pytest.mark.parametrize("z", [0.3, 1.0, 5.0])
def test_duhamel_matches_mode_sum(profile_one, z):
    model = profile_one.model
    for k in (0, 5, 9, 10, 14, 17):
        direct = evaluate_f_matrix(profile_one, z)[0, k]
        oracle = duhamel_f(profile_one, z, k, quadrature_step=1e-10)
        assert oracle == pytest.approx(direct, abs=1e-8)


def test_duhamel_mirror_side(profile_one):
    for z in (-0.7, -2.5):
        for k in (0, 9, 13, 17):
            direct = evaluate_f_matrix(profile_one, z)[0, k]
            oracle = duhamel_f(profile_one, z, k, quadrature_step=1e-10)
            assert oracle == pytest.approx(direct, abs=1e-8)


def test_duhamel_origin_limit(profile_one):
    # For outgoing velocities the integral term vanishes as z -> 0+.
    k = profile_one.model.n_active - 1
    val = duhamel_f(profile_one, 1e-12, k)
    assert val == pytest.approx(float(profile_one.f_at_zero[k]), rel=1e-9)
    assert duhamel_f(profile_one, 0.0, k) == float(profile_one.f_at_zero[k])


def test_uniform_bound_for_incoming_velocities(profile_one):
    # f(z, v_k) <= maxT / (c - v_k) for v_k < c and z > 0.
    model = profile_one.model
    max_t = model.rates.max_rate
    grid = np.geomspace(1e-6, 30.0, 200)
    for k in range(profile_one.roots.negative_roots.size - 1 + 1):
        bound = max_t / (profile_one.c - model.velocities[k])
        assert np.max(evaluate_f_matrix(profile_one, grid)[:, k]) <= bound


def test_orthogonality_recovers_coefficients(profile_one, profile_two):
    for p in (profile_one, profile_two):
        for i in range(p.b.size):
            assert b_via_orthogonality(p, i) == pytest.approx(float(p.b[i]), rel=1e-9)


def test_coefficient_weighted_bound(profile_one):
    # |b_i| |v_k - c| / |T_+ - lambda_i (v_k - c)| <= maxT / sqrt(w_k)
    model = profile_one.model
    max_t = model.rates.max_rate
    dv = np.abs(model.velocities - profile_one.c)
    for i in range(profile_one.b.size):
        lhs = np.abs(profile_one.b[i]) * dv / np.abs(profile_one.denom_right[:, i])
        assert np.all(lhs <= max_t / np.sqrt(model.weights) + 1e-12)


def test_asymptotic_slowest_mode(profile_one):
    # At z = 30/lambda_K the slowest mode carries f and dI/dz to within the
    # stated margins.
    lam_k = profile_one.roots.slowest_positive
    b_k = float(profile_one.b[0])
    z = 30.0 / lam_k
    for k in (0, 8, 17):
        predicted = b_k * np.exp(-lam_k * z) / profile_one.denom_right[k, 0]
        assert evaluate_f_matrix(profile_one, z)[0, k] == pytest.approx(predicted, rel=0.01)
    di = evaluate_I_derivative(profile_one, z)
    assert di == pytest.approx(-lam_k * b_k * np.exp(-lam_k * z), rel=0.02)
    assert di < 0.0


def test_velocity_ordering_on_half_lines(profile_one):
    # Right side: f increases with velocity among incoming characteristics
    # and stays below I/t_pm; mirrored statement on the left side.
    model = profile_one.model
    r = model.rates
    j = profile_one.roots.negative_roots.size - 1
    for z in (0.2, 1.0, 6.0):
        f = evaluate_f_matrix(profile_one, z)[0]
        inc = f[: j + 1]
        assert np.all(np.diff(inc) > 0)
        assert np.all(inc < evaluate_I(profile_one, z) / r.t_pm)
    for z in (-0.2, -1.0, -6.0):
        f = evaluate_f_matrix(profile_one, z)[0]
        out = f[j + 1 :]
        assert np.all(np.diff(out) < 0)
        assert np.all(out < evaluate_I(profile_one, z) / r.t_mp)


def test_outgoing_alternative(profile_one):
    # Where t_pp * f(z, v_i) < I(z), the density decreases along increasing
    # outgoing velocities.
    model = profile_one.model
    t_pp = model.rates.t_pp
    j = profile_one.roots.negative_roots.size - 1
    for z in (0.5, 2.0, 10.0):
        I_val = evaluate_I(profile_one, z)
        f = evaluate_f_matrix(profile_one, z)[0]
        for i in range(j + 1, model.n_active - 1):
            if t_pp * f[i] < I_val:
                assert np.all(f[i + 1 :] < f[i])


def test_overshoot_configuration(overshoot_model):
    # Strong attractant sensitivity: some leftward velocities peak strictly
    # inside z < 0 even though rho peaks at the origin.
    profile = solve_modes(overshoot_model, 0.25)
    grid = verification_grid(profile)
    peaked_left = []
    for k in range(overshoot_model.n_active):
        if overshoot_model.velocities[k] >= 0:
            continue
        vals = evaluate_f_matrix(profile, grid)[:, k]
        peaked_left.append(grid[int(np.argmax(vals))])
    assert any(z < -1e-3 for z in peaked_left)
    rho = np.asarray(profile.rho_modes()(grid))
    assert abs(grid[int(np.argmax(rho))]) < 1e-3


def test_piecewise_exponential_validation():
    # the constructor is the one check that every exponential sum decays
    for rate in (-0.5, 0.0):
        with pytest.raises(ValueError):
            PiecewiseExponential(np.array([1.0]), np.array([rate]), np.array([]), np.array([]))
        with pytest.raises(ValueError):
            PiecewiseExponential(np.array([]), np.array([]), np.array([1.0]), np.array([rate]))
    pe = PiecewiseExponential(np.array([2.0]), np.array([1.0]), np.array([3.0]), np.array([0.5]))
    assert pe(0.0) == 3.0
    assert pe(-1.0) == pytest.approx(2.0 * np.exp(-1.0))
    assert pe(2.0) == pytest.approx(3.0 * np.exp(-1.0))
    assert pe(-1e6) == 0.0 and pe(1e6) == 0.0
    assert pe.derivative(-1.0) == pytest.approx(2.0 * np.exp(-1.0))
    assert pe.derivative(2.0) == pytest.approx(-1.5 * np.exp(-1.0))
    assert pe.second_derivative(-1.0) == pytest.approx(2.0 * np.exp(-1.0))
    assert pe.second_derivative(2.0) == pytest.approx(0.75 * np.exp(-1.0))
    z = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
    assert np.array_equal(pe(z), [pe(x) for x in z])


def test_mass_row_matches_per_mode_mass(profile_one, profile_two):
    for p in (profile_one, profile_two):
        left = [per_mode_mass(p.model, p.c, float(lam), "left") for lam in p.roots.negative_roots]
        right = [per_mode_mass(p.model, p.c, float(lam), "right") for lam in p.roots.positive_roots]
        assert p.left_mass == pytest.approx(float(p.a @ np.array(left)), rel=1e-13)
        assert p.right_mass == pytest.approx(float(p.b @ np.array(right)), rel=1e-13)


@pytest.mark.parametrize("bad", [0.0, np.nan], ids=["zero", "nan"])
def test_nonpositive_grid_value_raises(case_one, monkeypatch, bad):
    def spoiled_f_matrix(profile, z, evaluate=wave_profile_mod.evaluate_f_matrix):
        values = evaluate(profile, z)
        values[z.size // 2, 0] = bad
        return values

    monkeypatch.setattr(wave_profile_mod, "evaluate_f_matrix", spoiled_f_matrix)
    # every row of this profile is certified, so refuse them all to reach the grid
    monkeypatch.setattr(wave_profile_mod, "certified_rows", lambda p: np.zeros(p.f_at_zero.size, dtype=bool))
    with pytest.raises(NonPositiveProfile):
        solve_modes(case_one[0], 0.05)


@pytest.mark.parametrize(
    "coefficients,rates,certified",
    [
        ([2.0, 1.0, 0.5], [1.0, 2.0, 3.0], True),       # no sign change
        ([1.0, 3.0, -2.0], [1.0, 2.0, 3.0], True),      # one change, positive at t = 0
        ([2.0, -1.0], [1.0, 2.0], True),                # one change, the slowest term positive
        ([1.0, -2.0, 1.5], [1.0, 2.0, 3.0], False),     # two changes, though positive for t >= 0
        ([-1.0, 3.0], [1.0, 2.0], False),               # negative slowest coefficient
        ([1.0, -2.0], [1.0, 2.0], False),               # negative at t = 0
        ([1.0, -1.0], [1.0, 2.0], False),               # zero at t = 0
        ([1.0, 0.0, 1.0], [1.0, 2.0, 3.0], False),      # a zero coefficient
        ([1.0, np.inf], [1.0, 2.0], False),
        ([1.0, np.nan], [1.0, 2.0], False),
        ([np.inf, -np.inf], [1.0, 2.0], False),         # inf - inf at t = 0, no warning
        ([1.0, 1.0], [1.0, 1.0], False),                # equal rates
        ([1e-300, 1.0], [1.0, 2.0], False),             # slowest coefficient lost in rounding
        ([-1.0, 2.0], [2.0, 1.0], False),               # the terms of case 2, rates not ascending
    ],
)
def test_descartes_certificate_on_single_sums(coefficients, rates, certified):
    got = descartes_positive(np.array([coefficients]), np.array(rates))
    assert got.tolist() == [certified]


def _with_right_row(profile, k, coefficients):
    """The profile with row k's right-side coefficients b_j / denom_right[k, j] replaced."""
    denom = profile.denom_right.copy()
    denom[k] = profile.b / coefficients
    return dataclasses.replace(profile, denom_right=denom)


def test_every_row_of_a_shipped_profile_is_certified(profile_one, caplog):
    assert certified_rows(profile_one).all()
    with caplog.at_level(logging.DEBUG, logger="chemowave.wave_profile"):
        check_positivity(profile_one)
    assert not caplog.records


def test_refused_row_goes_to_the_grid(profile_one, caplog):
    # Row 3 gets coefficients C_slowest, ..., -C_slowest / 2, C_fastest: two sign
    # changes, so the certificate refuses it, yet it stays positive (the
    # negative term never outweighs the slowest one), so the grid accepts it.
    k = 3
    coefficients = np.abs(profile_one.b / profile_one.denom_right[k])
    assert coefficients.size >= 3
    coefficients[-2] = -0.5 * coefficients[0]
    spoiled = _with_right_row(profile_one, k, coefficients)
    assert np.flatnonzero(~certified_rows(spoiled)).tolist() == [k]
    with caplog.at_level(logging.DEBUG, logger="chemowave.wave_profile"):
        check_positivity(spoiled)
    assert [r.getMessage() for r in caplog.records] == [
        f"positivity grid checks 1 of {profile_one.f_at_zero.size} rows at c={profile_one.c!r}"
    ]


def test_refused_row_that_the_grid_rejects_raises(profile_one, caplog):
    # A negative slowest coefficient makes the row negative far out on the right.
    k = 3
    coefficients = np.abs(profile_one.b / profile_one.denom_right[k])
    coefficients[0] = -coefficients[0]
    spoiled = _with_right_row(profile_one, k, coefficients)
    assert np.flatnonzero(~certified_rows(spoiled)).tolist() == [k]
    with caplog.at_level(logging.DEBUG, logger="chemowave.wave_profile"):
        with pytest.raises(NonPositiveProfile):
            check_positivity(spoiled)
    assert "positivity grid checks 1 of" in caplog.text


def test_refused_row_must_be_positive_at_the_origin(profile_one, monkeypatch):
    # The grid starts at |z| = GRID_INNER, so z = 0 is checked through the
    # stored f_at_zero: negated, it fails although every grid value is positive.
    monkeypatch.setattr(wave_profile_mod, "certified_rows", lambda p: np.zeros(p.f_at_zero.size, dtype=bool))
    check_positivity(profile_one)
    negated = dataclasses.replace(profile_one, f_at_zero=-profile_one.f_at_zero)
    with pytest.raises(NonPositiveProfile):
        check_positivity(negated)


def _singular(x):
    raise np.linalg.LinAlgError("Singular matrix")


@pytest.mark.parametrize(
    "spoil,message",
    [
        (_singular, "singular"),
        (
            lambda x: x * np.r_[1.0 + 1e-6, np.ones(x.size - 1)].reshape(x.shape),
            "replaced matching equation violated",
        ),
        (lambda x: x * (1.0 + 1e-9), "normalized masses sum to"),
    ],
    ids=["singular", "one-coefficient", "whole-solution"],
)
def test_spoiled_matching_solve_raises(case_one, monkeypatch, spoil, message):
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: spoil(solve(a, b)))
    with pytest.raises(NullSpaceDimensionError, match=message):
        solve_modes(case_one[0], 0.05)
