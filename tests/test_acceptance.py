"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Criterion 3 lists two nominal speeds (0.25, 0.4) that exceed the
confinement ceiling c_upper ~ 0.23714 of the unique-wave configuration; no
confined profile exists there (the left dispersion root crosses zero), so
those two speeds must be refused with ``SpeedNotAdmissible``, and the oracle
equivalence is additionally exercised across admissible speeds.
"""

from __future__ import annotations

import multiprocessing
import re
import time
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from chemowave import (
    ChemParams,
    SimConfig,
    admissible_speed_interval,
    build_model,
    duhamel_f,
    evaluate_f_matrix,
    evaluate_I,
    refine_roots,
    run,
    scan,
    solve_modes,
    solve_N,
    solve_roots,
    solve_S,
    total_mass,
    verification_grid,
    verify_root,
)
from chemowave.chemo_fields import slope_sign_changes
from chemowave.dispersion import dispersion_residual
from chemowave.errors import ResonantMode, SpeedNotAdmissible
from test_scipy_ports import resolvable_rises

CHEM_SLOW = ChemParams(d_s=0.5, d_n=1.0, alpha=0.5, beta=1.0, gamma=1.0)
CHEM_FAST = ChemParams(d_s=0.5, d_n=1.0, alpha=10.0, beta=1.0, gamma=1.0)

ADMISSIBLE_SPEEDS = {
    "one": (0.02, 0.05, 0.12, 0.17, 0.22),
    "two": (0.05, 0.15, 0.3, 0.5, 0.65),
    "three": (0.02, 0.1, 0.2, 0.35, 0.6),
}


def _report(number: int, name: str, started: float, note: str = "") -> None:
    elapsed = time.perf_counter() - started
    suffix = f" ({note})" if note else ""
    print(f"[acceptance] criterion {number} ({name}): PASS in {elapsed:.2f}s{suffix}")


# ---------------------------------------------------------------------------
# criterion 1: dispersion correctness
# ---------------------------------------------------------------------------

def test_criterion_1_dispersion(two_velocity_model, case_one, case_two, case_three):
    started = time.perf_counter()
    c = 0.25
    r = two_velocity_model.rates
    lam_expected = 0.5 * (r.t_pp / (1.0 - c) + r.t_pm / (-1.0 - c))
    roots = solve_roots(two_velocity_model, c)
    assert roots.positive_roots[0] == pytest.approx(lam_expected, abs=1e-12)

    tested = [(two_velocity_model, (0.25,))]
    for (model, _cfg), key in ((case_one, "one"), (case_two, "two"), (case_three, "three")):
        tested.append((model, ADMISSIBLE_SPEEDS[key]))
    for model, speeds in tested:
        for speed in speeds:
            rr = solve_roots(model, speed)
            for side, lams in (("left", rr.negative_roots), ("right", rr.positive_roots)):
                for lam in lams:
                    assert abs(dispersion_residual(model, speed, float(lam), side)) < 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(1, "dispersion correctness", started)


# ---------------------------------------------------------------------------
# criterion 2: speed interval
# ---------------------------------------------------------------------------

def test_criterion_2_speed_interval(case_one, case_two):
    started = time.perf_counter()
    for v, chi_s, chi_n in ((1.0, 0.3, 0.15), (2.5, 0.4, 0.2)):
        model = build_model([-v, v], [0.5, 0.5], chi_s, chi_n)
        window = admissible_speed_interval(model)
        assert window.c_upper == pytest.approx(v * (chi_s + chi_n), abs=1e-12)
    for model, _cfg in (case_one, case_two):
        assert admissible_speed_interval(model).c_lower <= 0.0
    _report(2, "speed interval", started)


# ---------------------------------------------------------------------------
# criterion 3: profile oracle equivalence
# ---------------------------------------------------------------------------

def _check_oracle_equivalence(model, c: float) -> None:
    profile = solve_modes(model, c)
    z_samples = np.geomspace(0.05, 25.0 / profile.roots.slowest_positive, 50)
    w_dv = model.weights * (model.velocities - c)
    f_scale = float(np.max(profile.f_at_zero))
    for z in z_samples:
        f_here = evaluate_f_matrix(profile, float(z))[0]
        assert abs(float(f_here @ w_dv)) < 1e-10 * f_scale
    for k in range(model.n_active):
        for z in z_samples[:: max(1, model.n_active // 4)]:
            oracle = duhamel_f(profile, float(z), k, quadrature_step=1e-10)
            assert oracle == pytest.approx(evaluate_f_matrix(profile, float(z))[0, k], abs=1e-8)


@pytest.mark.parametrize("c", [0.1])
def test_criterion_3_profile_oracle_nominal(case_one, c):
    started = time.perf_counter()
    model, _cfg = case_one
    _check_oracle_equivalence(model, c)
    _report(3, f"profile oracle equivalence at c={c}", started)


@pytest.mark.parametrize("c", [0.25, 0.4])
def test_criterion_3_nominal_speed_above_the_ceiling_is_refused(case_one, c):
    # the left-side mean run length is negative above c_upper: no confined profile exists
    started = time.perf_counter()
    model, _cfg = case_one
    c_upper = admissible_speed_interval(model).c_upper
    assert c_upper == pytest.approx(0.23714, abs=1e-5) and c > c_upper
    with pytest.raises(SpeedNotAdmissible, match=re.escape(f"at c={c}: no confinement on the left side (c >= c_upper)")):
        _check_oracle_equivalence(model, c)
    _report(3, f"c={c} refused above c_upper={c_upper:.5f}", started)


def test_criterion_3_profile_oracle_admissible(case_one):
    started = time.perf_counter()
    model, _cfg = case_one
    for c in (0.05, 0.1, 0.2):
        _check_oracle_equivalence(model, c)
    _report(3, "profile oracle equivalence across admissible speeds", started)


# ---------------------------------------------------------------------------
# criterion 4: density monotonicity suite and overshoot
# ---------------------------------------------------------------------------

def test_criterion_4_monotonicity_suite(case_one, case_two, case_three, overshoot_model):
    started = time.perf_counter()
    for (model, _cfg), key in ((case_one, "one"), (case_two, "two"), (case_three, "three")):
        for c in ADMISSIBLE_SPEEDS[key]:
            profile = solve_modes(model, c)
            grid = verification_grid(profile)  # 2048 points per side
            neg = grid < 0
            rho = np.asarray(profile.rho_modes()(grid))
            assert np.all(np.diff(rho[neg]) > 0)
            assert np.all(np.diff(rho[~neg]) < 0)
            for sign in (-1, +1):
                part = np.asarray(profile.partial_rho_modes(sign)(grid))
                assert np.all(np.diff(part[neg]) > 0)
                assert np.all(np.diff(part[~neg]) < 0)

    profile = solve_modes(overshoot_model, 0.25)
    grid = verification_grid(profile)
    f = evaluate_f_matrix(profile, grid)
    peaks = []
    for k in range(overshoot_model.n_active):
        if overshoot_model.velocities[k] < 0:
            vals = f[:, k]
            peaks.append(float(grid[int(np.argmax(vals))]))
    assert any(z < -1e-3 for z in peaks)

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(4, "density monotonicity and overshoot", started)


# ---------------------------------------------------------------------------
# criterion 5: event-density asymptotics
# ---------------------------------------------------------------------------

def test_criterion_5_asymptotics(case_one, case_two, case_three):
    started = time.perf_counter()
    for (model, _cfg), c in ((case_one, 0.1), (case_two, 0.15), (case_three, 0.1)):
        profile = solve_modes(model, c)
        lam_k = profile.roots.slowest_positive
        z = np.linspace(20.0 / lam_k, 40.0 / lam_k, 200)
        slope = np.polyfit(z, np.log(np.asarray(evaluate_I(profile, z))), 1)[0]
        assert slope == pytest.approx(-lam_k, rel=0.02)
    _report(5, "event-density asymptotics", started)


# ---------------------------------------------------------------------------
# criterion 6: case-study reproduction
# ---------------------------------------------------------------------------

def _scan_case(model, params, expected_roots: int):
    started = time.perf_counter()
    curve = scan(model, params, 64)
    roots = refine_roots(curve, model, params)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    assert len(roots) == expected_roots
    for c in roots:
        check = verify_root(model, params, c)
        assert check.slope_sign_changes == 1
        assert abs(check.maximum_location) < 1e-6
    return curve, roots


def test_criterion_6_unique_wave(case_one):
    started = time.perf_counter()
    model, _cfg = case_one
    _curve, roots = _scan_case(model, CHEM_SLOW, expected_roots=1)
    _report(6, "unique wave speed", started, note=f"root at c={roots[0]:.6f}")


def test_criterion_6_two_waves(case_two):
    started = time.perf_counter()
    model, _cfg = case_two
    _curve, roots = _scan_case(model, CHEM_FAST, expected_roots=2)
    assert 0.12 <= max(roots) <= 0.18
    _report(6, "two co-existing wave speeds", started, note=f"fastest c={max(roots):.6f}")


def test_criterion_6_no_wave(case_three):
    started = time.perf_counter()
    model, _cfg = case_three
    curve, _roots = _scan_case(model, CHEM_FAST, expected_roots=0)
    assert all(y < 0.0 for _c, y in curve.samples)
    _report(6, "no admissible wave speed", started)


# ---------------------------------------------------------------------------
# criterion 7: attractant unimodality and nutrient monotonicity
# ---------------------------------------------------------------------------

def test_criterion_7_chemical_fields(case_one, case_two, case_three):
    started = time.perf_counter()
    for (model, _cfg), params, speeds in (
        (case_one, CHEM_SLOW, (0.05, 0.1, 0.2)),
        (case_two, CHEM_FAST, (0.1, 0.3)),
        (case_three, CHEM_FAST, (0.1, 0.3)),
    ):
        for c in speeds:
            profile = solve_modes(model, c)
            rho = profile.rho_modes()
            sfield = solve_S(rho, params, c)
            halfwidth = profile.halfwidth
            assert slope_sign_changes(sfield, halfwidth) == 1  # 2048 points per side
            nfield = solve_N(rho, params, c, halfwidth)
            d = np.diff(nfield.values)
            assert np.all(d >= 0.0)
            # strictly increasing wherever the exact rise (a 50-digit solve
            # of the same rows) is at least two spacings of N, i.e. above
            # roundoff; measured, N is flat only where it is below 0.97 spacing
            assert np.all(d[resolvable_rises(nfield, rho, params, c)] > 0)
            assert 0.0 < nfield.n_minus < 1.0  # N is normalized to N_+ = 1

    # closed-form S against the finite-difference oracle on a one-sided
    # single-mode source.  The nominal constants (d_s, alpha, c) = (0.5, 0.5, 0)
    # with unit decay rate are exactly resonant (the source exponent equals a
    # homogeneous exponent) and are rejected by design; rate 2 is the adjacent
    # non-resonant probe.
    from chemowave import PiecewiseExponential
    from test_chemo_fields import _fd_oracle

    one_sided = PiecewiseExponential(np.array([]), np.array([]), np.array([1.0]), np.array([2.0]))
    sfield = solve_S(one_sided, CHEM_SLOW, 0.0)
    rho_fn = lambda z: np.where(z > 0, np.exp(-2.0 * np.clip(z, 0.0, None)), 0.0)
    z, oracle = _fd_oracle(rho_fn, CHEM_SLOW, 0.0, 40.0, 2**18)
    assert np.max(np.abs(oracle - sfield(z))) < 1e-6
    with pytest.raises(ResonantMode):
        solve_S(
            PiecewiseExponential(np.array([]), np.array([]), np.array([1.0]), np.array([1.0])),
            CHEM_SLOW,
            0.0,
        )
    _report(7, "attractant unimodality and nutrient monotonicity", started)


# ---------------------------------------------------------------------------
# criterion 8: Cauchy simulations
# ---------------------------------------------------------------------------

def _cauchy_run(config, filters):
    """One criterion-8 simulation: final mass, each snapshot's (min rho, min n), diagnostics.

    Runs in a worker process under the calling process's warning filters.
    """
    warnings.filters[:] = filters
    snapshots = []
    state, diagnostics = run(config, snapshots.append)
    mins = [(np.min(s.rho), np.min(s.n)) for s in snapshots]
    return total_mass(config, state), mins, diagnostics


def test_criterion_8_cauchy_runs(case_two, case_three):
    started = time.perf_counter()
    model_two, _ = case_two
    model_three, _ = case_three
    config_two, config_three = (
        SimConfig(model=model, params=CHEM_FAST, domain_length=30.0, cells=2048, t_end=100.0)
        for model in (model_two, model_three)
    )
    # the two simulations are independent: each runs in its own process, spawned
    # rather than forked so that no thread of this one is copied into it
    with ProcessPoolExecutor(max_workers=2, mp_context=multiprocessing.get_context("spawn")) as pool:
        runs = [pool.submit(_cauchy_run, config, warnings.filters) for config in (config_two, config_three)]
        curve = scan(model_two, CHEM_FAST, 16)
        fastest = max(refine_roots(curve, model_two, CHEM_FAST))
        (mass, mins, diagnostics), (mass3, mins3, diagnostics3) = (r.result() for r in runs)

    assert abs(mass - 1.0) < 1e-8
    assert all(rho_min >= 0.0 and n_min >= 0.0 for rho_min, n_min in mins)
    assert diagnostics.n_components == 1
    assert 0.85 * fastest <= diagnostics.fitted_speed <= 1.15 * fastest

    assert abs(mass3 - 1.0) < 1e-8
    assert all(rho_min >= 0.0 and n_min >= 0.0 for rho_min, n_min in mins3)
    assert diagnostics3.n_components > 1

    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    _report(
        8,
        "time-dependent wave formation",
        started,
        note=f"fitted speed {diagnostics.fitted_speed:.4f} vs root {fastest:.4f}; "
        f"{diagnostics3.n_components} components in the no-wave run",
    )
