from __future__ import annotations

import dataclasses
import logging
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_banded

from chemowave import (
    ChemParams,
    InitialDensity,
    SimConfig,
    build_model,
    initial_state,
    measure_front_speed,
    run,
    step,
    total_mass,
)
import chemowave.cauchy_sim as cauchy_sim_mod
from chemowave.cauchy_sim import (
    FIT_WINDOW_FRACTION,
    PEAK_PROMINENCE_FRACTION,
    SIGN_DEADZONE,
    SimState,
    cell_centers,
)
from chemowave.errors import CFLViolation, InsufficientSamples, NegativeDensity


def _pair_model(chi_s=0.0, chi_n=0.0, v=1.0):
    return build_model([-v, v], [0.5, 0.5], chi_s, chi_n)


def _free_params(beta=0.0, gamma=0.0):
    return ChemParams(d_s=0.5, d_n=1.0, alpha=0.5, beta=beta, gamma=gamma)


def test_config_validation():
    model = _pair_model()
    params = _free_params()
    with pytest.raises(ValueError):
        SimConfig(model=model, params=params, domain_length=10.0, cells=32, cfl=0.5, t_end=1.0)
    with pytest.raises(ValueError):
        SimConfig(model=model, params=params, domain_length=10.0, cells=64, cfl=1.5, t_end=1.0)
    with pytest.raises(ValueError):
        SimConfig(model=model, params=params, domain_length=10.0, cells=64, cfl=0.5, t_end=-1.0)
    with pytest.raises(ValueError):
        InitialDensity(kind="triangle")
    # run() would step its next snapshot time by this interval forever
    for interval in (-1.0, 0.0, float("nan")):
        with pytest.raises(ValueError, match="snapshot_interval"):
            SimConfig(
                model=model, params=params, domain_length=10.0, cells=64, cfl=0.5, t_end=1.0,
                snapshot_interval=interval,
            )


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("key", ["domain_length", "t_end", "initial_n", "mass"])
def test_non_finite_values_are_rejected(key, value):
    # NaN passed the old "x <= 0" checks; t_end = inf never ends; domain_length
    # or initial_n = inf would turn every field into NaN without an error
    kwargs = dict(
        model=_pair_model(), params=_free_params(), domain_length=10.0, cells=64, cfl=0.5, t_end=1.0
    )
    with pytest.raises(ValueError, match=f"{key} must be finite and positive"):
        if key == "mass":
            InitialDensity(mass=value)
        else:
            SimConfig(**{**kwargs, key: value})


@pytest.mark.parametrize(
    "kwargs,message",
    [
        (dict(center=float("nan")), "initial center must be finite"),
        (dict(center=float("inf")), "initial center must be finite"),
        (dict(width=-1.0), "initial width must be finite and positive"),
        (dict(width=0.0), "initial width must be finite and positive"),
        (dict(width=float("nan")), "initial width must be finite and positive"),
        (dict(width=float("inf")), "initial width must be finite and positive"),
    ],
)
def test_initial_center_and_width_are_checked(kwargs, message):
    with pytest.raises(ValueError, match=message):
        InitialDensity(**kwargs)


@pytest.mark.parametrize(
    "initial_rho",
    [
        InitialDensity(kind="block", center=-5.0, width=2.0),
        InitialDensity(kind="block", center=25.0, width=2.0),
        InitialDensity(kind="block", center=10.0, width=1e-3),   # narrower than a cell, between centres
        InitialDensity(kind="gaussian", center=-1e3, width=1.0),  # underflows to 0 on every cell
        InitialDensity(kind="gaussian", center=1e200),  # its square overflows, without a warning
    ],
)
def test_initial_density_without_support_is_refused_by_the_config(initial_rho):
    with pytest.raises(ValueError, match="no support inside"):
        SimConfig(
            model=_pair_model(), params=_free_params(), domain_length=20.0, cells=64, cfl=0.5, t_end=1.0,
            initial_rho=initial_rho,
        )


def test_initial_mass_is_unit():
    model = _pair_model()
    for kind in ("block", "gaussian"):
        config = SimConfig(
            model=model,
            params=_free_params(),
            domain_length=20.0,
            cells=128,
            cfl=0.5,
            t_end=1.0,
            initial_rho=InitialDensity(kind=kind),
        )
        state = initial_state(config)
        assert total_mass(config, state) == pytest.approx(1.0, abs=1e-12)
        assert np.all(state.f >= 0.0)
        assert np.all(state.n == config.initial_n)
        assert np.all(state.s == 0.0)


def test_unbiased_advection_limit_conserves_and_stays_symmetric():
    # No sensing, no chemistry: a centred block just spreads symmetrically
    # under transport plus isotropic exchange; mass is conserved to roundoff.
    model = _pair_model()
    config = SimConfig(
        model=model,
        params=_free_params(),
        domain_length=20.0,
        cells=256,
        cfl=0.5,
        t_end=3.0,
        initial_rho=InitialDensity(kind="block", center=10.0, width=2.0),
    )
    state = initial_state(config)
    m0 = total_mass(config, state)
    for _ in range(100):
        state = step(state, config)
    assert total_mass(config, state) == pytest.approx(m0, abs=1e-12)
    rho = model.weights @ state.f
    assert np.allclose(rho, rho[::-1], atol=1e-13)
    assert np.all(state.f >= 0.0)


def test_per_step_mass_conservation_with_full_coupling(case_two):
    model, _cfg = case_two
    config = SimConfig(
        model=model,
        params=ChemParams(d_s=0.5, d_n=1.0, alpha=10.0, beta=1.0, gamma=1.0),
        domain_length=20.0,
        cells=256,
        cfl=0.45,
        t_end=1.0,
    )
    state = initial_state(config)
    prev = total_mass(config, state)
    for _ in range(50):
        state = step(state, config)
        mass = total_mass(config, state)
        assert mass == pytest.approx(prev, rel=1e-10)
        prev = mass


def test_no_consumption_keeps_nutrient_flat():
    model = _pair_model(chi_s=0.3, chi_n=0.15)
    config = SimConfig(
        model=model,
        params=_free_params(beta=1.0, gamma=0.0),
        domain_length=20.0,
        cells=128,
        cfl=0.5,
        t_end=2.0,
        initial_n=0.7,
    )
    state = initial_state(config)
    for _ in range(60):
        state = step(state, config)
    assert np.allclose(state.n, 0.7, rtol=0.0, atol=1e-12)


def test_pure_decay_of_attractant():
    # beta = 0 with a hand-placed attractant bump: the sup norm decays.
    model = _pair_model()
    config = SimConfig(
        model=model,
        params=_free_params(beta=0.0, gamma=0.0),
        domain_length=20.0,
        cells=128,
        cfl=0.5,
        t_end=2.0,
    )
    base = initial_state(config)
    x = cell_centers(config)
    state = SimState(
        t=0.0,
        f=base.f,
        s=np.exp(-((x - 10.0) ** 2)),
        n=base.n,
        ds_dt=base.ds_dt,
        dn_dt=base.dn_dt,
    )
    sups = [np.max(state.s)]
    for _ in range(50):
        state = step(state, config)
        sups.append(np.max(state.s))
    assert np.all(np.diff(sups) < 0.0)
    assert sups[-1] < sups[0] * np.exp(-0.5 * state.t) * 1.05


def test_nutrient_maximum_principle(case_three):
    model, _cfg = case_three
    config = SimConfig(
        model=model,
        params=ChemParams(d_s=0.5, d_n=1.0, alpha=10.0, beta=1.0, gamma=1.0),
        domain_length=20.0,
        cells=256,
        cfl=0.45,
        t_end=2.0,
    )
    state = initial_state(config)
    tops = [np.max(state.n)]
    for _ in range(80):
        state = step(state, config)
        tops.append(np.max(state.n))
        assert np.min(state.n) >= 0.0
        assert np.min(state.f) >= 0.0
    assert np.all(np.diff(tops) <= 1e-12)


def test_cfl_violation_raised():
    model = _pair_model()
    config = SimConfig(
        model=model, params=_free_params(), domain_length=10.0, cells=128, cfl=0.5, t_end=1.0
    )
    state = initial_state(config)
    with pytest.raises(CFLViolation):
        step(state, config, dt=10.0 * config.default_dt())


def test_transport_matches_the_per_velocity_loop():
    # reference: each row upwinded on its own, inflow at a wall from the mirrored row
    model = build_model([-1.0, -0.5, 0.0, 0.5, 1.0], [0.2, 0.2, 0.2, 0.2, 0.2], 0.3, 0.15)
    v = model.velocities
    rng = np.random.default_rng(3)
    f = rng.uniform(0.0, 2.0, (v.size, 64))
    nu = np.abs(v) * 0.9
    expected = np.empty_like(f)
    for k in range(v.size):
        mirror = v.size - 1 - k
        if v[k] > 0.0:
            upstream = np.concatenate([[f[mirror, 0]], f[k, :-1]])
        elif v[k] < 0.0:
            upstream = np.concatenate([f[k, 1:], [f[mirror, -1]]])
        else:
            upstream = f[k]
        expected[k] = f[k] - nu[k] * (f[k] - upstream)
    out = cauchy_sim_mod._transport(f, v, nu)
    assert np.array_equal(out, expected)
    assert np.array_equal(out[2], f[2])  # the zero velocity does not move


def test_step_leaves_its_input_state_unchanged(case_two):
    # run() steps the same state again after a NegativeDensity, with dt halved
    model, _cfg = case_two
    config = SimConfig(
        model=model,
        params=ChemParams(d_s=0.5, d_n=1.0, alpha=10.0, beta=1.0, gamma=1.0),
        domain_length=20.0,
        cells=128,
        cfl=0.45,
        t_end=1.0,
    )
    state = step(initial_state(config), config)  # nonzero fields and time differences
    f_negative = state.f.copy()
    f_negative[0, 5] = -1.0
    negative = dataclasses.replace(state, f=f_negative)
    before = [_arrays(state), _arrays(negative)]
    step(state, config)
    with pytest.raises(NegativeDensity):
        step(negative, config)
    for st, saved in zip((state, negative), before):
        assert all(np.array_equal(a, b) for a, b in zip(_arrays(st), saved))


def _arrays(state: SimState) -> list[np.ndarray]:
    return [a.copy() for a in (state.f, state.s, state.n, state.ds_dt, state.dn_dt)]


def test_measure_front_speed_linear_fit():
    rng = np.random.default_rng(7)
    t = np.linspace(0.0, 50.0, 120)
    dx2 = 0.05
    track = np.column_stack([t, 0.15 * t + rng.normal(0.0, dx2, t.size)])
    assert FIT_WINDOW_FRACTION == 0.5  # the fit uses the trailing half of the track
    speed, residual = measure_front_speed(track)
    assert speed == pytest.approx(0.15, abs=2.0 * dx2 / 25.0)
    assert residual < 3.0 * dx2

    flat = np.column_stack([t, np.full(t.size, 3.0)])
    speed, residual = measure_front_speed(flat)
    assert speed == pytest.approx(0.0, abs=1e-14)
    assert residual == pytest.approx(0.0, abs=1e-14)

    # half of 18 samples is 9, one short of the 10 a fit needs; half of 19 rounds up to 10
    with pytest.raises(InsufficientSamples):
        measure_front_speed(track[:18])
    for n in (19, 20):
        assert np.isfinite(measure_front_speed(track[:n])[0])


def test_run_produces_snapshots_and_diagnostics(case_two):
    model, _cfg = case_two
    config = SimConfig(
        model=model,
        params=ChemParams(d_s=0.5, d_n=1.0, alpha=10.0, beta=1.0, gamma=1.0),
        domain_length=20.0,
        cells=128,
        cfl=0.45,
        t_end=40.0,
        snapshot_interval=2.0,
        keep_velocity_snapshots=True,
    )
    snapshots = []
    state, diagnostics = run(config, snapshots.append)
    assert state.t == pytest.approx(40.0, rel=1e-12)
    assert len(snapshots) == 21
    assert snapshots[0].t == 0.0 and snapshots[-1].t == pytest.approx(40.0, rel=1e-12)
    assert snapshots[-1].f is not None and snapshots[-1].f.shape == (model.n_active, 128)
    assert diagnostics.peak_track.shape[0] == len(snapshots)
    assert np.array_equal(diagnostics.peak_track[:, 0], [snap.t for snap in snapshots])
    assert np.array_equal(diagnostics.peak_track[:, 1], [snap.x[np.argmax(snap.rho)] for snap in snapshots])
    assert diagnostics.peak_track[-1, 1] > 2.0  # the peak detached and moved right
    assert diagnostics.n_components >= 1
    assert abs(total_mass(config, state) - 1.0) < 1e-8


def test_run_memory_does_not_grow_with_the_snapshot_count(case_two):
    # a caller that drops each snapshot leaves run() holding only the peak
    # track; with the velocity rows each snapshot has 3 + 18 rows of cells
    _model, cfg = case_two
    config = dataclasses.replace(cfg.build_sim_config(), cells=128, t_end=20.0, keep_velocity_snapshots=True)
    snapshot_bytes = (3 + config.model.n_active) * config.cells * 8
    run(config, lambda snapshot: None)  # caches the diffusion factors of each dt, the cut last step's too
    peaks = {}
    tracemalloc.start()
    try:
        for count in (20, 200):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run(dataclasses.replace(config, snapshot_interval=config.t_end / count), lambda snapshot: None)
            peaks[count] = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peaks[200] - peaks[20] < 2 * snapshot_bytes


def test_front_speed_grid_self_consistency(case_two):
    # First-order scheme: the fitted speed moves by a small amount when the
    # mesh is doubled, well inside the acceptance band width.
    model, _cfg = case_two
    params = ChemParams(d_s=0.5, d_n=1.0, alpha=10.0, beta=1.0, gamma=1.0)
    speeds = {}
    for cells in (256, 512):
        config = SimConfig(
            model=model,
            params=params,
            domain_length=30.0,
            cells=cells,
            cfl=0.45,
            t_end=80.0,
        )
        _state, diagnostics = run(config, lambda snapshot: None)
        speeds[cells] = diagnostics.fitted_speed
    assert abs(speeds[512] - speeds[256]) < 0.02


def test_dt_halving_is_logged(monkeypatch, caplog):
    config = SimConfig(
        model=_pair_model(0.2, 0.1),
        params=_free_params(beta=1.0, gamma=1.0),
        domain_length=10.0,
        cells=64,
        cfl=0.5,
        t_end=1.0,
        snapshot_interval=0.1,
    )
    real_step = cauchy_sim_mod.step
    dts: list[float] = []

    def step_failing_once(state, cfg, dt=None):
        dts.append(dt)
        if len(dts) == 1:
            raise NegativeDensity("negative cell density after the exchange at t=0.0")
        return real_step(state, cfg, dt)

    monkeypatch.setattr(cauchy_sim_mod, "step", step_failing_once)
    with caplog.at_level(logging.WARNING, logger="chemowave.cauchy_sim"):
        state, _diagnostics = run(config, lambda snapshot: None)
    assert dts[1] == pytest.approx(0.5 * dts[0], rel=1e-15)
    assert state.t == pytest.approx(1.0, rel=1e-12)
    halvings = [r for r in caplog.records if "halving dt" in r.getMessage()]
    assert len(halvings) == 1 and halvings[0].levelno == logging.WARNING


# The step as it was before it worked in place: every stage a fresh array,
# np.gradient, np.sign with a boolean-mask deadzone, and one banded solve per
# field and step.  The in-place step must reproduce it bit for bit.


def _reference_sign_with_deadzone(x):
    scale = float(np.max(np.abs(x))) if x.size else 0.0
    if scale == 0.0:
        return np.zeros_like(x)
    out = np.sign(x)
    out[np.abs(x) <= SIGN_DEADZONE * scale] = 0.0
    return out


def _reference_transport(f, v, nu):
    upwind = f.copy()
    right = v > 0.0
    left = v < 0.0
    upwind[right, 1:] = f[right, :-1]
    upwind[right, 0] = f[::-1, 0][right]
    upwind[left, :-1] = f[left, 1:]
    upwind[left, -1] = f[::-1, -1][left]
    return f - nu[:, None] * (f - upwind)


def _reference_diffusion_matrix(n_cells, r):
    ab = np.zeros((3, n_cells))
    ab[1, :] = 1.0 + 2.0 * r
    ab[1, 0] = ab[1, -1] = 1.0 + r
    ab[0, 1:] = -r
    ab[2, :-1] = -r
    return ab


def _reference_step(state, config, dt):
    model = config.model
    dx = config.dx
    v = model.velocities
    f = _reference_transport(state.f, v, np.abs(v) * dt / dx)
    grad_s = np.gradient(state.s, dx)
    grad_n = np.gradient(state.n, dx)
    arg_s = state.ds_dt[None, :] + v[:, None] * grad_s[None, :]
    arg_n = state.dn_dt[None, :] + v[:, None] * grad_n[None, :]
    rates = (
        1.0
        - model.chi_s * _reference_sign_with_deadzone(arg_s)
        - model.chi_n * _reference_sign_with_deadzone(arg_n)
    )
    event_density = (model.weights[:, None] * rates * f).sum(axis=0)
    f = f + dt * (event_density[None, :] - rates * f)
    assert np.min(f) >= -cauchy_sim_mod._NEGATIVE_TOL * max(float(np.max(f)), 1.0)
    np.maximum(f, 0.0, out=f)
    rho = model.weights @ f
    p = config.params
    rhs_s = state.s + dt * (-p.alpha * state.s + p.beta * rho)
    s_new = solve_banded((1, 1), _reference_diffusion_matrix(config.cells, dt * p.d_s / dx**2), rhs_s)
    rhs_n = state.n * (1.0 - dt * p.gamma * rho)
    n_new = solve_banded((1, 1), _reference_diffusion_matrix(config.cells, dt * p.d_n / dx**2), rhs_n)
    return SimState(
        t=state.t + dt,
        f=f,
        s=s_new,
        n=n_new,
        ds_dt=(s_new - state.s) / dt,
        dn_dt=(n_new - state.n) / dt,
    )


def _sec4_2_config(case_two):
    model, _cfg = case_two
    return SimConfig(
        model=model,
        params=ChemParams(d_s=0.5, d_n=1.0, alpha=10.0, beta=1.0, gamma=1.0),
        domain_length=30.0,
        cells=2048,
        cfl=0.45,
        t_end=100.0,
    )


def _zero_velocity_config():
    # the zero velocity carries weight, so it is an active row that transport leaves alone
    return SimConfig(
        model=build_model([-1.0, -0.6, 0.0, 0.6, 1.0], [0.15, 0.2, 0.3, 0.2, 0.15], 0.4, 0.3),
        params=ChemParams(d_s=0.5, d_n=1.0, alpha=10.0, beta=1.0, gamma=1.0),
        domain_length=20.0,
        cells=256,
        cfl=0.45,
        t_end=100.0,
    )


def _assert_same_state(state, expected):
    assert state.t == expected.t
    for name in ("f", "s", "n", "ds_dt", "dn_dt"):
        assert np.array_equal(getattr(state, name), getattr(expected, name)), name


@pytest.mark.parametrize("which", ["sec4_2", "zero-velocity"])
def test_step_matches_the_reference_step_bitwise(which, case_two):
    config = _sec4_2_config(case_two) if which == "sec4_2" else _zero_velocity_config()
    assert config.model.n_active == (18 if which == "sec4_2" else 5)
    dt = config.default_dt()
    state = initial_state(config)
    for _ in range(200):
        expected = _reference_step(state, config, dt)
        state = step(state, config)
        _assert_same_state(state, expected)
    assert np.max(np.abs(state.ds_dt)) > 0.0 and np.max(np.abs(state.dn_dt)) > 0.0  # sensing was on


def test_step_matches_the_reference_step_when_dt_changes(case_two):
    # run() cuts its last step short and halves dt after a NegativeDensity;
    # each dt has its own cached diffusion factors
    config = _sec4_2_config(case_two)
    dt = config.default_dt()
    state = initial_state(config)
    for scale in [1.0] * 20 + [0.5, 0.5, 1.0, 0.5, 1.0, 0.3, 1.0, 0.3, 0.5, 1.0]:
        expected = _reference_step(state, config, scale * dt)
        state = step(state, config, scale * dt)
        _assert_same_state(state, expected)


@pytest.mark.parametrize("r", [1e-9, 0.01, 0.37, 2.5, 1e4])
def test_factored_diffusion_solve_matches_solve_banded(r):
    rhs = np.random.default_rng(5).uniform(0.0, 2.0, 512)
    expected = solve_banded((1, 1), _reference_diffusion_matrix(rhs.size, r), rhs)
    for _ in range(2):  # the second solve reuses the cached factors
        assert np.array_equal(cauchy_sim_mod._solve_diffusion(r, rhs.copy()), expected)


def test_explicit_attractant_decay_caps_dt(case_two, caplog):
    # at 64 cells the transport bound alone gives dt = 0.213, and with alpha = 10
    # s + dt (beta rho - alpha s) went negative even after one halving
    _model, cfg = case_two
    config = dataclasses.replace(cfg.build_sim_config(), cells=64, t_end=2.0)
    assert config.default_dt() == 1.0 / config.params.alpha
    with caplog.at_level(logging.WARNING, logger="chemowave.cauchy_sim"):
        state, _diagnostics = run(config, lambda snapshot: None)
    assert not [r for r in caplog.records if "halving dt" in r.getMessage()]
    assert state.t == pytest.approx(2.0, rel=1e-12)
    assert abs(total_mass(config, state) - 1.0) < 1e-12


@pytest.mark.parametrize("case", ["case_two", "case_three"])
def test_a_density_against_a_wall_is_one_component(case, request):
    # early on the block still rests on the left wall: its maximum, a bump at
    # its right edge, stands above the plateau by less than 5% of the range,
    # and only the wall side makes it prominent
    _model, cfg = request.getfixturevalue(case)
    config = dataclasses.replace(cfg.build_sim_config(), t_end=0.5)
    snapshots = []
    _state, diagnostics = run(config, snapshots.append)
    rho = snapshots[-1].rho
    assert rho.max() - rho[0] < PEAK_PROMINENCE_FRACTION * (rho.max() - rho.min())
    assert diagnostics.n_components == 1
