from __future__ import annotations

import logging
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solve_banded

from chemowave import (
    ChemParams,
    PiecewiseExponential,
    admissible_speed_interval,
    build_model,
    locate_maximum,
    s_slope_at_zero,
    solve_modes,
    solve_N,
    solve_S,
)
import chemowave.chemo_fields as chemo_fields_mod
from chemowave.errors import NonMonotoneN, NonPositiveSpeed, ResonantMode
from chemowave.wave_profile import two_sided_grid
from test_scipy_ports import banded_solve, resolvable_rises

NUTRIENT_RECURRENCE = chemo_fields_mod._nutrient_recurrence  # the solve the spoiled solves wrap


def _one_sided_mode(rate: float) -> PiecewiseExponential:
    return PiecewiseExponential(
        np.array([]), np.array([]), np.array([1.0]), np.array([rate])
    )


def _symmetric_mode(lam: float) -> PiecewiseExponential:
    return PiecewiseExponential(
        np.array([0.5 * lam]), np.array([lam]), np.array([0.5 * lam]), np.array([lam])
    )


def _fd_oracle(rho_fn, params: ChemParams, c: float, halfwidth: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Second-order finite-difference solve of -c S' - D S'' + alpha S = beta rho."""
    z = np.linspace(-halfwidth, halfwidth, n + 1)
    h = z[1] - z[0]
    d, al = params.d_s, params.alpha
    main = np.full(n + 1, 2.0 * d / h**2 + al)
    sup = np.full(n, -d / h**2 - c / (2.0 * h))
    sub = np.full(n, -d / h**2 + c / (2.0 * h))
    rhs = params.beta * np.asarray(rho_fn(z), dtype=float)
    # source jumps sit on the z = 0 node; second order needs the half-sum there
    mid = n // 2
    rhs[mid] = 0.5 * params.beta * (float(rho_fn(-1e-9 * h)) + float(rho_fn(1e-9 * h)))
    ab = np.zeros((3, n + 1))
    ab[1] = main
    ab[0, 1:] = sup
    ab[2, :-1] = sub
    # decayed Dirichlet ends
    ab[1, 0] = 1.0
    ab[0, 1] = 0.0
    rhs[0] = 0.0
    ab[1, -1] = 1.0
    ab[2, -2] = 0.0
    rhs[-1] = 0.0
    return z, solve_banded((1, 1), ab, rhs)


def test_chem_params_validation():
    with pytest.raises(ValueError):
        ChemParams(d_s=0.0, d_n=1.0, alpha=0.5, beta=1.0, gamma=1.0)
    with pytest.raises(ValueError):
        ChemParams(d_s=0.5, d_n=1.0, alpha=-0.1, beta=1.0, gamma=1.0)
    with pytest.raises(ValueError):
        ChemParams(d_s=0.5, d_n=1.0, alpha=0.5, beta=-1.0, gamma=1.0)
    # zero production/consumption are legitimate degenerate limits
    ChemParams(d_s=0.5, d_n=1.0, alpha=0.5, beta=0.0, gamma=0.0)


def test_nonzero_beta_must_be_a_normal_double():
    # S is linear in beta: a subnormal beta rounds every Upsilon sample to a few bits
    tiny = np.finfo(float).tiny
    for beta in (5e-324, 1e-320, float(np.nextafter(tiny, 0.0))):
        with pytest.raises(ValueError, match="beta must be 0 or at least 2.2250738585072014e-308"):
            ChemParams(d_s=0.5, d_n=1.0, alpha=0.5, beta=beta, gamma=1.0)
    for beta in (0.0, tiny):
        assert ChemParams(d_s=0.5, d_n=1.0, alpha=0.5, beta=beta, gamma=1.0).beta == beta


def test_even_source_has_flat_slope_at_origin():
    params = ChemParams(d_s=0.5, d_n=1.0, alpha=0.5, beta=1.0, gamma=1.0)
    sfield = solve_S(_symmetric_mode(1.3), params, 0.0)
    assert s_slope_at_zero(_symmetric_mode(1.3), params, 0.0) == pytest.approx(0.0, abs=1e-15)
    z = np.linspace(-10, 10, 1001)
    assert np.allclose(sfield(z), sfield(-z), rtol=1e-13, atol=1e-300)


def test_closed_form_matches_fd_oracle():
    # One-sided single mode exp(-2z) with (d_s, alpha, c) = (0.5, 0.5, 0);
    # the mesh is fine enough for the 1e-6 sup-norm budget.
    params = ChemParams(d_s=0.5, d_n=1.0, alpha=0.5, beta=1.0, gamma=1.0)
    sfield = solve_S(_one_sided_mode(2.0), params, 0.0)
    rho_fn = lambda z: np.where(z > 0, np.exp(-2.0 * np.clip(z, 0.0, None)), 0.0)
    z, oracle = _fd_oracle(rho_fn, params, 0.0, 40.0, 2**18)
    assert np.max(np.abs(oracle - sfield(z))) < 1e-6
    assert np.all(sfield(z[1:-1]) > 0.0)


def test_moving_frame_fd_oracle():
    params = ChemParams(d_s=0.5, d_n=1.0, alpha=10.0, beta=1.0, gamma=1.0)
    rho = PiecewiseExponential(
        np.array([0.7, 0.1]), np.array([0.9, 3.0]), np.array([0.5]), np.array([1.4])
    )
    sfield = solve_S(rho, params, 0.15)
    z, oracle = _fd_oracle(lambda zz: np.asarray(rho(zz)), params, 0.15, 60.0, 2**18)
    assert np.max(np.abs(oracle - sfield(z))) < 1e-6


def test_sfield_is_an_exponential_sum_with_homogeneous_terms_last():
    params = ChemParams(d_s=0.5, d_n=1.0, alpha=10.0, beta=1.0, gamma=1.0)
    # continuous at the origin, as every rho of solve_modes is: the slope's closed form assumes it
    rho = PiecewiseExponential(
        np.array([0.7, 0.1]), np.array([0.9, 3.0]), np.array([0.8]), np.array([1.4])
    )
    c = 0.15
    sfield = solve_S(rho, params, c)
    assert isinstance(sfield, PiecewiseExponential)
    # the decaying roots theta of alpha - c theta - d_s theta^2 = 0
    disc = np.sqrt(c * c + 4.0 * params.alpha * params.d_s)
    theta_plus, theta_minus = (-c + disc) / (2.0 * params.d_s), (-c - disc) / (2.0 * params.d_s)
    assert theta_plus > 0.0 > theta_minus
    for theta in (theta_plus, theta_minus):
        assert abs(params.alpha - c * theta - params.d_s * theta * theta) < 1e-14 * params.alpha
    assert np.array_equal(sfield.left_rates, [0.9, 3.0, theta_plus])
    assert np.array_equal(sfield.right_rates, [1.4, -theta_minus])
    # C^1 matching at the origin, and the slope there is the closed-form one
    slope = s_slope_at_zero(rho, params, c)
    assert sfield(-1e-300) == pytest.approx(sfield(0.0), rel=1e-14)
    assert sfield.derivative(-1e-300) == pytest.approx(slope, rel=1e-12)
    assert sfield.derivative(0.0) == pytest.approx(slope, rel=1e-12)


def test_literal_resonant_constants_raise():
    # exp(-z) with (d_s, alpha, c) = (0.5, 0.5, 0) makes the source exponent
    # coincide with the decaying homogeneous exponent exactly.
    params = ChemParams(d_s=0.5, d_n=1.0, alpha=0.5, beta=1.0, gamma=1.0)
    with pytest.raises(ResonantMode):
        solve_S(_one_sided_mode(1.0), params, 0.0)


def test_ode_residual_on_grid(case_one, chem_default):
    model, _cfg = case_one
    profile = solve_modes(model, 0.1)
    rho = profile.rho_modes()
    sfield = solve_S(rho, chem_default, 0.1)
    z = np.concatenate([-np.geomspace(1e-6, 80.0, 2048)[::-1], np.geomspace(1e-6, 80.0, 2048)])
    residual = (
        -0.1 * np.asarray(sfield.derivative(z))
        - chem_default.d_s * np.asarray(sfield.second_derivative(z))
        + chem_default.alpha * np.asarray(sfield(z))
        - chem_default.beta * np.asarray(rho(z))
    )
    scale = max(
        np.max(np.abs(chem_default.alpha * np.asarray(sfield(z)))),
        np.max(np.abs(chem_default.beta * np.asarray(rho(z)))),
    )
    assert np.max(np.abs(residual)) < 1e-9 * scale


def test_unimodality_of_solved_profiles(case_one, chem_default):
    model, _cfg = case_one
    for c in (0.05, 0.1, 0.2):
        profile = solve_modes(model, c)
        sfield = solve_S(profile.rho_modes(), chem_default, c)
        s = np.sign(sfield.derivative(two_sided_grid(1e-8, 120.0, 120.0, 4096)))
        s = s[s != 0.0]
        assert np.count_nonzero(s[1:] != s[:-1]) == 1


def test_linearity_and_scaling():
    params = ChemParams(d_s=0.5, d_n=1.0, alpha=2.0, beta=1.0, gamma=1.0)
    r1 = _one_sided_mode(2.0)
    r2 = _symmetric_mode(0.8)
    combined = PiecewiseExponential(
        np.concatenate([r1.left_coefficients, r2.left_coefficients]),
        np.concatenate([r1.left_rates, r2.left_rates]),
        np.concatenate([r1.right_coefficients, r2.right_coefficients]),
        np.concatenate([r1.right_rates, r2.right_rates]),
    )
    c = 0.3
    z = np.linspace(-15, 15, 2001)
    s_sum = np.asarray(solve_S(r1, params, c)(z)) + np.asarray(solve_S(r2, params, c)(z))
    s_combined = np.asarray(solve_S(combined, params, c)(z))
    assert np.max(np.abs(s_combined - s_sum)) < 1e-12 * np.max(np.abs(s_combined))

    doubled = ChemParams(d_s=0.5, d_n=1.0, alpha=2.0, beta=2.0, gamma=1.0)
    s1 = solve_S(r1, params, c)
    s2 = solve_S(r1, doubled, c)
    assert s_slope_at_zero(r1, doubled, c) == 2.0 * s_slope_at_zero(r1, params, c)
    assert np.array_equal(np.asarray(s2(z)), 2.0 * np.asarray(s1(z)))


def test_locate_maximum_tracks_slope_zero():
    params = ChemParams(d_s=0.5, d_n=1.0, alpha=0.5, beta=1.0, gamma=1.0)
    sfield = solve_S(_symmetric_mode(1.3), params, 0.0)
    assert abs(locate_maximum(sfield, 20.0)) < 1e-12


# ---------------------------------------------------------------------------
# nutrient profile
# ---------------------------------------------------------------------------

def test_nutrient_constant_without_consumption():
    params = ChemParams(d_s=0.5, d_n=1.0, alpha=0.5, beta=1.0, gamma=0.0)
    nfield = solve_N(_symmetric_mode(1.3), params, 0.2, 50.0)
    assert np.all(nfield.values == 1.0)
    assert nfield.n_minus == 1.0


def test_nutrient_monotone_increasing(case_one, chem_default):
    model, _cfg = case_one
    for c in (0.05, 0.1, 0.2):
        profile = solve_modes(model, c)
        halfwidth = 40.0 / min(profile.roots.slowest_positive, profile.roots.slowest_negative)
        nfield = solve_N(profile.rho_modes(), chem_default, c, halfwidth)
        d = np.diff(nfield.values)
        assert np.all(d >= 0.0)
        # strictly increasing wherever the exact rise (a 50-digit solve of
        # the same rows) is at least two spacings of N; measured, the profile
        # is flat only where it is below 0.97 spacing
        assert np.all(d[resolvable_rises(nfield, profile.rho_modes(), chem_default, c)] > 0)
        assert 0.0 < nfield.n_minus < 1.0


def test_nutrient_solve_is_monotone_on_every_mesh(monkeypatch):
    # The Peclet switch makes one solve monotone whatever D_N, gamma and h
    # (solve_N's docstring): certified profiles of three Gauss-Legendre models,
    # at cell Peclet numbers from 6e-5 to 4e5, each take exactly one solve.
    # solve_banded on the same rows agrees within 8.3e-12 of max|N| (measured)
    solves = []

    def spy(*args):
        solves.append((args, NUTRIENT_RECURRENCE(*args)))
        return solves[-1][1]

    monkeypatch.setattr(chemo_fields_mod, "_nutrient_recurrence", spy)
    for n, chi_s, chi_n in ((4, 0.3, 0.1), (18, 0.45, 0.2), (32, 0.15, 0.15)):
        nodes, weights = np.polynomial.legendre.leggauss(n)
        model = build_model(nodes, weights / weights.sum(), chi_s, chi_n)
        lo, hi = admissible_speed_interval(model).admissible_intervals[-1]
        c = 0.5 * (lo + hi)
        profile = solve_modes(model, c)
        rho = profile.rho_modes()
        for d_n in (1e-5, 1e-3, 1.0, 100.0):
            for gamma in (0.0, 1.0, 1e3):
                params = ChemParams(d_s=0.5, d_n=d_n, alpha=0.5, beta=1.0, gamma=gamma)
                for cells in (256, 4096):
                    del solves[:]
                    # N(-L) ~ exp(-gamma mass / c) can underflow to +0.0, which is accepted
                    solve_N(rho, params, c, profile.halfwidth, cells=cells)
                    assert len(solves) == 1
                    args, values = solves[0]
                    assert values.size == cells + 1
                    assert np.all(np.diff(values) >= 0.0)
                    reference = banded_solve(*args)
                    assert np.max(np.abs(values - reference)) < 2e-11 * np.max(np.abs(reference))


def test_consumption_free_nutrient_is_accepted():
    # With gamma = 0 the exact profile is N = 1: every growth g_i of the
    # recurrence is 0 and N_n = a / a, so N = 1 bit for bit
    nodes, weights = np.polynomial.legendre.leggauss(4)
    model = build_model(nodes, weights / weights.sum(), 0.3, 0.1)
    c = 0.10425348572615269
    profile = solve_modes(model, c)
    params = ChemParams(d_s=0.5, d_n=100.0, alpha=0.5, beta=1.0, gamma=0.0)
    nfield = solve_N(profile.rho_modes(), params, c, profile.halfwidth, cells=4096)
    assert np.all(nfield.values == 1.0)
    assert nfield.n_minus == 1.0


def test_underflowed_far_field_nutrient_is_accepted():
    # N(-L) ~ exp(-gamma mass / c) underflows: on 256 cells the solve returns
    # N(-L) = 9.5e-65 (1.3e-64 at d_n = 1e-3), on 4096 cells +0.0, since the
    # recurrence's levels are products of nonnegative factors
    nodes, weights = np.polynomial.legendre.leggauss(4)
    model = build_model(nodes, weights / weights.sum(), 0.3, 0.1)
    c = 0.104
    profile = solve_modes(model, c)
    params = ChemParams(d_s=0.5, d_n=1e-5, alpha=0.5, beta=1.0, gamma=1e3)
    nfield = solve_N(profile.rho_modes(), params, c, profile.halfwidth, cells=4096)
    assert nfield.n_minus == 0.0 and not np.signbit(nfield.n_minus)
    assert 0.0 < solve_N(profile.rho_modes(), params, c, profile.halfwidth, cells=256).n_minus < 1e-60


def test_nutrient_at_any_finite_consumption_rate():
    # A factor 1 / (1 + g_i) of the recurrence underflows, but nothing
    # overflows: N stays monotone, N(-L) is +0.0, and at the right end, where
    # gamma rho_n dwarfs the row's other terms, N_n is proportional to 1 / gamma
    nodes, weights = np.polynomial.legendre.leggauss(4)
    model = build_model(nodes, weights / weights.sum(), 0.3, 0.1)
    c = 0.104
    profile = solve_modes(model, c)
    right_ends = []
    for gamma in (1e100, 1e300):
        params = ChemParams(d_s=0.5, d_n=1.0, alpha=0.5, beta=1.0, gamma=gamma)
        nfield = solve_N(profile.rho_modes(), params, c, profile.halfwidth)
        assert nfield.n_minus == 0.0 and not np.signbit(nfield.n_minus)
        right_ends.append(nfield.values[-1])
    assert 0.0 < right_ends[1] == pytest.approx(1e-200 * right_ends[0], rel=1e-14)


def test_nutrient_mesh_convergence(case_one, chem_default):
    # Second-order scheme: halving h divides the far-field error by ~4, and
    # from the 8192-cell mesh a further halving moves N(-L) by under 1e-6.
    model, _cfg = case_one
    c = 0.05246996633768716  # the refined admissible root of this configuration
    profile = solve_modes(model, c)
    halfwidth = 40.0 / min(profile.roots.slowest_positive, profile.roots.slowest_negative)
    rho = profile.rho_modes()
    n1 = solve_N(rho, chem_default, c, halfwidth, cells=4096).n_minus
    n2 = solve_N(rho, chem_default, c, halfwidth, cells=8192).n_minus
    n3 = solve_N(rho, chem_default, c, halfwidth, cells=16384).n_minus
    assert abs(n3 - n2) < 1e-6
    assert 2.5 < abs(n2 - n1) / abs(n3 - n2) < 6.0


def test_truncation_robustness(case_one, chem_default):
    # Once the domain covers 40 decay lengths, doubling it (at fixed h)
    # leaves the far-field level essentially unchanged; the closed-form S
    # does not depend on any truncation at all.
    model, _cfg = case_one
    profile = solve_modes(model, 0.1)
    rho = profile.rho_modes()
    halfwidth = 40.0 / min(profile.roots.slowest_positive, profile.roots.slowest_negative)
    base = solve_N(rho, chem_default, 0.1, halfwidth, cells=4096)
    wide = solve_N(rho, chem_default, 0.1, 2.0 * halfwidth, cells=8192)
    assert abs(wide.n_minus - base.n_minus) < 1e-8
    s1 = solve_S(rho, chem_default, 0.1)
    assert s1.derivative(0.0) == pytest.approx(s_slope_at_zero(rho, chem_default, 0.1), rel=1e-12)


def test_nutrient_upwind_rows_converge_at_first_order(case_one):
    # At d_n = 1e-4 the cell Peclet number c h / d_n is 26.7, 13.4 and 6.7 on
    # 4096, 8192 and 16384 cells, so every interior row is upwind.  The
    # 65536-cell solve (Peclet 1.7) is central and lies within 5e-8 of a
    # 262144-cell one.  Upwinding is first order: the error halves with h.
    model, cfg = case_one
    c = 0.05246996633768716  # the refined admissible root of this configuration
    profile = solve_modes(model, c)
    rho = profile.rho_modes()
    params = replace(cfg.chem, d_n=1e-4)
    reference = solve_N(rho, params, c, profile.halfwidth, cells=65536)
    errors = []
    for cells in (4096, 8192, 16384):
        nfield = solve_N(rho, params, c, profile.halfwidth, cells=cells)
        assert nfield.grid.size == cells + 1
        assert c * (nfield.grid[1] - nfield.grid[0]) / params.d_n > 2.0
        assert 0.0 < nfield.n_minus <= 1.0
        errors.append(np.max(np.abs(nfield.values - reference.values[:: 65536 // cells])))
    assert errors[0] < 2.5e-3  # 2.24e-3 measured
    for coarse, fine in zip(errors, errors[1:]):
        assert 1.6 <= coarse / fine <= 2.4


def test_nutrient_requires_positive_speed(chem_default):
    with pytest.raises(NonPositiveSpeed):
        solve_N(_symmetric_mode(1.3), chem_default, 0.0, 40.0)
    with pytest.raises(NonPositiveSpeed):
        solve_N(_symmetric_mode(1.3), chem_default, -0.2, 40.0)


@pytest.mark.parametrize("cells", [0, -3])
def test_nutrient_refuses_a_mesh_without_cells(chem_default, cells):
    with pytest.raises(ValueError, match="cells must be at least 1"):
        solve_N(_symmetric_mode(1.3), chem_default, 0.2, 40.0, cells=cells)


def test_nutrient_interpolation():
    params = ChemParams(d_s=0.5, d_n=1.0, alpha=0.5, beta=1.0, gamma=1.0)
    nfield = solve_N(_symmetric_mode(1.3), params, 0.2, 50.0)
    assert nfield(-1e9) == nfield.values[0]
    assert nfield(1e9) == nfield.values[-1]
    mid = 0.5 * (nfield.grid[10] + nfield.grid[11])
    assert nfield(mid) == pytest.approx(0.5 * (nfield.values[10] + nfield.values[11]))


def test_nutrient_dip_on_every_mesh_raises(case_one, chem_default, monkeypatch, caplog):
    # a dip in the solve raises at once: no second mesh, no warning
    model, _cfg = case_one
    profile = solve_modes(model, 0.05)
    calls = []

    def solve_with_dip(*args):
        values = NUTRIENT_RECURRENCE(*args)
        calls.append(values.size)
        values[values.size // 2] -= 0.5
        return values

    monkeypatch.setattr(chemo_fields_mod, "_nutrient_recurrence", solve_with_dip)
    with caplog.at_level(logging.WARNING, logger="chemowave"):
        with pytest.raises(NonMonotoneN, match="not monotone on 256 cells"):
            solve_N(profile.rho_modes(), chem_default, 0.05, profile.halfwidth, cells=256)
    assert calls == [257]
    assert caplog.records == []


def test_nutrient_far_field_level_below_zero_raises(case_one, chem_default, monkeypatch):
    # a shifted solve stays monotone, but its far-field level N(-L) is negative; so is
    # the start of the second profile, which accepting an underflowed 0.0 must still refuse
    model, _cfg = case_one
    profile = solve_modes(model, 0.05)
    for solve in (
        lambda *args: NUTRIENT_RECURRENCE(*args) - 2.0,
        lambda rho_vals, *_rest: np.linspace(-0.1, 1.0, rho_vals.size),
    ):
        monkeypatch.setattr(chemo_fields_mod, "_nutrient_recurrence", solve)
        with pytest.raises(NonMonotoneN, match=r"far-field level -\S+ outside \[0, 1\.0\]"):
            solve_N(profile.rho_modes(), chem_default, 0.05, profile.halfwidth, cells=256)
