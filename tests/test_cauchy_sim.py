from __future__ import annotations

import dataclasses
import logging
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.linalg import solve_banded

from chemowave import (
    ChemParams,
    InitialDensity,
    SimConfig,
    build_model,
    expand_half_set,
    initial_state,
    measure_front_speed,
    run,
    step,
    total_mass,
)
import chemowave.cauchy_sim as cauchy_sim_mod
from chemowave.cauchy_sim import (
    CFL,
    FIT_WINDOW_FRACTION,
    PEAK_PROMINENCE_FRACTION,
    SIGN_DEADZONE,
    SimState,
    cell_centers,
)
from chemowave.errors import CFLViolation, InsufficientSamples, NegativeDensity, NumericalError


def _pair_model(chi_s=0.0, chi_n=0.0, v=1.0):
    return build_model([-v, v], [0.5, 0.5], chi_s, chi_n)


def _free_params(beta=0.0, gamma=0.0):
    return ChemParams(d_s=0.5, d_n=1.0, alpha=0.5, beta=beta, gamma=gamma)


def test_config_validation():
    model = _pair_model()
    params = _free_params()
    with pytest.raises(ValueError):
        SimConfig(model=model, params=params, domain_length=10.0, cells=32, t_end=1.0)
    with pytest.raises(ValueError):
        SimConfig(model=model, params=params, domain_length=10.0, cells=64, t_end=-1.0)
    # run() would step its next snapshot time by this interval forever
    for interval in (-1.0, 0.0, float("nan")):
        with pytest.raises(ValueError, match="snapshot_interval"):
            SimConfig(
                model=model, params=params, domain_length=10.0, cells=64, t_end=1.0,
                snapshot_interval=interval,
            )


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("key", ["domain_length", "t_end"])
def test_non_finite_values_are_rejected(key, value):
    # NaN passed the old "x <= 0" checks; t_end = inf never ends; domain_length = inf
    # would turn every field into NaN without an error
    kwargs = dict(
        model=_pair_model(), params=_free_params(), domain_length=10.0, cells=64, t_end=1.0
    )
    with pytest.raises(ValueError, match=f"{key} must be finite and positive"):
        SimConfig(**{**kwargs, key: value})


def test_initial_mass_is_unit():
    config = SimConfig(
        model=_pair_model(), params=_free_params(), domain_length=20.0, cells=128, t_end=1.0
    )
    # the start's mass is a constant of the class, not a setting
    assert config.initial_rho.mass == InitialDensity.mass == 1.0
    assert dataclasses.fields(InitialDensity) == ()
    assert "initial_rho" not in {f.name for f in dataclasses.fields(SimConfig)}
    state = initial_state(config)
    assert total_mass(config, state) == pytest.approx(1.0, abs=1e-12)
    assert np.all(state.f >= 0.0)
    assert np.all(state.n == 1.0)
    assert np.all(state.s == 0.0)


@pytest.mark.parametrize("domain_length", [1e-3, 0.7, 1.0, 3.0, 20.0, 30.0, 123.456, 1e6])
def test_the_coarsest_mesh_puts_unit_mass_on_six_cells(domain_length):
    # the cells with centres in [0, 0.1 L) hold the block: 6 of the fewest cells a
    # config allows, so SimConfig need not check that the start has support
    config = SimConfig(
        model=_pair_model(), params=_free_params(), domain_length=domain_length, cells=64, t_end=1.0
    )
    state = initial_state(config)
    rho = config.model.weights @ state.f
    assert np.count_nonzero(rho) == 6 and np.all(rho[:6] > 0.0)
    assert total_mass(config, state) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("domain_length", [3.0, 30.0])
def test_the_block_is_the_cells_of_the_integer_rule(domain_length):
    # centres (k + 1/2) dx in [0, 0.1 L) is 10 k + 5 < cells; a float comparison of the
    # centres put the cell at exactly 0.1 L into the block on some meshes (L = 3, 75 cells)
    for cells in range(64, 400):
        config = SimConfig(
            model=_pair_model(), params=_free_params(), domain_length=domain_length, cells=cells, t_end=1.0
        )
        state = initial_state(config)
        expected = np.flatnonzero(10 * np.arange(cells) + 5 < cells)
        assert np.array_equal(np.flatnonzero(state.f[0]), expected), cells
        assert np.all(state.f[:, : expected.size] == 1.0 / (expected.size * config.dx)), cells


def test_unbiased_advection_limit_conserves_and_stays_symmetric():
    # No sensing, no chemistry: a centred block just spreads symmetrically
    # under transport plus isotropic exchange; mass is conserved to roundoff.
    model = _pair_model()
    config = SimConfig(model=model, params=_free_params(), domain_length=20.0, cells=256, t_end=3.0)
    centred = ((cell_centers(config) >= 9.0) & (cell_centers(config) < 11.0)).astype(float)
    rho0 = centred / (centred.sum() * config.dx)
    state = dataclasses.replace(initial_state(config), f=np.tile(rho0, (model.n_active, 1)))
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
        t_end=2.0,
    )
    state = initial_state(config)
    for _ in range(60):
        state = step(state, config)
    assert np.allclose(state.n, 1.0, rtol=0.0, atol=1e-12)


def test_pure_decay_of_attractant():
    # beta = 0 with a hand-placed attractant bump: the sup norm decays.
    model = _pair_model()
    config = SimConfig(
        model=model,
        params=_free_params(beta=0.0, gamma=0.0),
        domain_length=20.0,
        cells=128,
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
        model=model, params=_free_params(), domain_length=10.0, cells=128, t_end=1.0
    )
    state = initial_state(config)
    with pytest.raises(CFLViolation):
        step(state, config, dt=10.0 * config.default_dt())


def test_step_accepts_the_courant_bound_and_nothing_above_it(case_two):
    # on the shipped sec4_2 mesh the Courant cap binds: CFL dx / max|v| = 0.00665,
    # against 1 / alpha = 0.1 and 0.5 / max T = 0.256
    _model, cfg = case_two
    config = cfg.build_sim_config()
    dt = config.default_dt()
    assert dt == CFL * config.dx / float(np.max(np.abs(config.model.velocities)))
    assert dt == pytest.approx(0.00665, abs=5e-6)
    assert dt < min(1.0 / config.params.alpha, 0.5 / config.model.rates.max_rate)
    state = initial_state(config)
    assert step(state, config, dt).t == dt
    with pytest.raises(CFLViolation, match="transport CFL bound 0.45"):
        step(state, config, dt * (1.0 + 1e-9))


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
    out = cauchy_sim_mod._transport(f, v, nu, np.empty_like(f))
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


@pytest.mark.parametrize("name", ["s", "n"])
def test_a_non_finite_chemical_field_stops_the_step(case_two, name):
    # NaN fails every comparison of the negativity check, which used to let the
    # step return it; a smaller dt cannot mend it, so it must not be the
    # NegativeDensity that run() retries
    _model, cfg = case_two
    config = dataclasses.replace(cfg.build_sim_config(), cells=128)
    state = step(initial_state(config), config)
    spoiled = getattr(state, name).copy()
    spoiled[5] = np.nan
    with pytest.raises(NumericalError) as exc:
        step(dataclasses.replace(state, **{name: spoiled}), config)
    assert str(exc.value) == f"non-finite chemical field {name} at t={state.t!r}"
    assert not isinstance(exc.value, NegativeDensity)


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
        t_end=40.0,
        snapshot_interval=2.0,
        snapshot_f=True,
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
    config = dataclasses.replace(cfg.build_sim_config(), cells=128, t_end=20.0, snapshot_f=True)
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
        t_end=100.0,
    )


def _zero_velocity_config():
    # the zero velocity carries weight, so it is an active row that transport leaves alone
    return SimConfig(
        model=build_model([-1.0, -0.6, 0.0, 0.6, 1.0], [0.15, 0.2, 0.3, 0.2, 0.15], 0.4, 0.3),
        params=ChemParams(d_s=0.5, d_n=1.0, alpha=10.0, beta=1.0, gamma=1.0),
        domain_length=20.0,
        cells=256,
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


def test_alternating_steps_of_two_meshes_match_the_reference_step(case_two):
    # the work arrays are kept for the latest shape only: each switch of
    # mesh replaces them, and no step may read another mesh's intermediates
    fine = _sec4_2_config(case_two)
    coarse = dataclasses.replace(fine, cells=512)
    states = {config.cells: initial_state(config) for config in (fine, coarse)}
    for _ in range(30):
        for config in (fine, coarse, coarse, fine):
            state = states[config.cells]
            expected = _reference_step(state, config, config.default_dt())
            states[config.cells] = step(state, config)
            _assert_same_state(states[config.cells], expected)


def test_threads_stepping_at_once_match_the_reference_step(case_two):
    # each thread has its own work arrays; four threads on two cores, with a
    # short switch interval, corrupt one another's steps if they share them
    configs = [dataclasses.replace(_sec4_2_config(case_two), cells=cells) for cells in (256, 256, 256, 384)]
    expected = []
    for config in configs:
        states = [initial_state(config)]
        for _ in range(60):
            states.append(_reference_step(states[-1], config, config.default_dt()))
        expected.append(states)

    def march(config, reference):
        """The indices of the steps whose fields differ from the reference's."""
        state, wrong = reference[0], []
        for k in range(1, len(reference)):
            state = step(state, config)
            if not all(np.array_equal(getattr(state, name), getattr(reference[k], name)) for name in ("f", "s", "n")):
                wrong.append(k)
        return wrong

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(configs)) as pool:
            futures = [pool.submit(march, *pair) for pair in zip(configs, expected)]
            wrong = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert wrong == [[]] * len(configs)


def test_a_step_allocates_little_beyond_its_new_density(case_two):
    # a step's three intermediates of f's shape are this thread's reused work
    # arrays; it allocates the new f, two int8 sign arrays and vectors of
    # cells, 1.64 f.nbytes, where fresh intermediates would take 3.65
    config = _sec4_2_config(case_two)
    state = step(initial_state(config), config)  # warm-up: work arrays and diffusion factors
    tracemalloc.start()
    try:
        state = step(state, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * state.f.nbytes


def test_a_singular_diffusion_factorization_is_a_numerical_error():
    # SimConfig refuses the meshes that lead here; r = 2.9e151 is what a
    # 128-cell sec4_2 mesh on domain_length = 1e-150 would give: 1 + 2r == 2r
    with pytest.raises(NumericalError, match=r"dgttrf\) failed with info=128"):
        cauchy_sim_mod._diffusion_solver(128, 2.9043969342476805e151)


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


# Metamorphic relations between two runs.  Space scaling: with the velocities
# and the length times s, d_s and d_n times s^2 and gamma times s, dt, the
# Courant numbers |v| dt / dx and the diffusion numbers dt D / dx^2 keep their
# bits, and for s a power of 2 every other product picks up an exact power of
# 2, so f and S scale by 1/s and N is unchanged bit for bit.  Mirror: the start
# reversed in space and velocity gives the mirror image, up to rounding in the
# sum over velocities and the diffusion solves; the bounds below are 3 to 5
# times the largest relative deviation over sec4_2's snapshots (5.8e-16 for f,
# rho and S, 1.9e-14 for N).
MIRROR_TOL = 2e-15
MIRROR_N_TOL = 1e-13


def _short_sec4_2(case_two):
    # 21 snapshots with velocities, in about 0.05 s
    _model, cfg = case_two
    return dataclasses.replace(cfg.build_sim_config(), cells=128, t_end=20.0, snapshot_f=True)


def _space_scaled(config, s):
    m, p = config.model, config.params
    return dataclasses.replace(
        config,
        model=build_model(m.velocities * s, m.weights, m.chi_s, m.chi_n),
        params=dataclasses.replace(p, d_s=p.d_s * s * s, d_n=p.d_n * s * s, gamma=p.gamma * s),
        domain_length=config.domain_length * s,
    )


def _snapshots(config):
    snapshots = []
    _state, diagnostics = run(config, snapshots.append)
    return snapshots, diagnostics


def _assert_space_scaling(config, s):
    base, base_diagnostics = _snapshots(config)
    scaled, diagnostics = _snapshots(_space_scaled(config, s))
    assert len(scaled) == len(base)
    for snap, ref in zip(scaled, base):
        assert snap.t == ref.t
        assert np.array_equal(snap.x, s * ref.x)
        assert np.array_equal(s * snap.f, ref.f) and np.array_equal(s * snap.rho, ref.rho)
        assert np.array_equal(s * snap.s, ref.s) and np.array_equal(snap.n, ref.n)
    assert np.array_equal(diagnostics.peak_track, base_diagnostics.peak_track * [1.0, s])
    assert diagnostics.fitted_speed == s * base_diagnostics.fitted_speed
    assert diagnostics.n_components == base_diagnostics.n_components


@pytest.mark.parametrize("s", [2.0, 0.5])
def test_space_scaling_is_bit_for_bit(case_two, s):
    _assert_space_scaling(_short_sec4_2(case_two), s)


@pytest.mark.parametrize("seed", range(3))
def test_space_scaling_holds_for_random_symmetric_models(seed):
    # drawn as test_pipeline_property draws symmetric sets, with fewer velocities
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 8))
    half_w = rng.uniform(0.01, 1.0, k)
    v, w = expand_half_set(np.sort(rng.uniform(0.01, 1.0, k)), half_w / (2.0 * half_w.sum()))
    chi_s = rng.uniform(0.05, 0.45)
    config = SimConfig(
        model=build_model(v, w, chi_s, rng.uniform(0.0, chi_s)),
        params=ChemParams(d_s=0.5, d_n=1.0, alpha=float(rng.choice([0.5, 10.0])), beta=1.0, gamma=1.0),
        domain_length=30.0,
        cells=128,
        t_end=20.0,
        snapshot_interval=1.0,
        snapshot_f=True,
    )
    for s in (2.0, 0.5):
        _assert_space_scaling(config, s)


def test_mirror_start_gives_the_mirror_image(case_two, monkeypatch):
    config = _short_sec4_2(case_two)
    base, base_diagnostics = _snapshots(config)
    start = initial_state(config)
    mirrored = dataclasses.replace(start, f=start.f[::-1, ::-1])  # the block against the right wall
    monkeypatch.setattr(cauchy_sim_mod, "initial_state", lambda _config: mirrored)  # run() starts from it
    image, diagnostics = _snapshots(config)
    assert len(image) == len(base)
    for snap, ref in zip(image, base):
        assert snap.t == ref.t
        for got, want, tol in (
            (snap.f[::-1, ::-1], ref.f, MIRROR_TOL),
            (snap.rho[::-1], ref.rho, MIRROR_TOL),
            (snap.s[::-1], ref.s, MIRROR_TOL),
            (snap.n[::-1], ref.n, MIRROR_N_TOL),
        ):
            assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))
    assert diagnostics.n_components == base_diagnostics.n_components
