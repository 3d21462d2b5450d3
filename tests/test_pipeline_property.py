"""End-to-end property test: from a random velocity model to checked waves.

Each drawn model runs the chain that produces a reported wave: ``scan``,
``refine_roots``, ``verify_root``, ``solve_modes`` and ``solve_N`` at every
root.  Models are drawn as the velocity-sweep benchmark draws them
(Gauss-Legendre sets, here of up to 32 velocities) and as
``test_dispersion_property`` draws symmetric sets.  A typed failure of the
scan or the refinement is an allowed outcome and is counted with
``hypothesis.event``; every reported root must pass every check, and no
exception may be untyped.  The symmetric models also approach the
closed-form parabolic-limit speed of ``test_parabolic_limit`` at second order.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from chemowave import (
    ChemParams,
    build_model,
    cutting_index,
    evaluate_f_matrix,
    expand_half_set,
    refine_roots,
    scan,
    solve_modes,
    solve_N,
    verification_grid,
    verify_root,
)
from chemowave.chemo_fields import N_MONOTONE_TOL
from chemowave.errors import ChemowaveError
from chemowave.wave_speed import ROOT_C_REL_TOL
from test_dispersion_property import distinct_half_velocities, symmetric_models as symmetric_velocity_sets
from test_parabolic_limit import HALVING_RATIO, kinetic_speeds, parabolic_speed

MAX_LOCATION_TOL = 1e-6   # |argmax S| at a verified root, as in the case-study acceptance test
MASS_REL_TOL = 1e-10      # unit mass of rho, recomputed from its modes
RELATION_SAMPLES = 16     # scan samples per interval for the metamorphic relations
SCALES = (0.5, 2.0)       # space-time scaling factors, powers of 2 so that the scaled inputs are exact
SCALED_UPSILON_TOL = 1e-12  # |s^2 Upsilon(s c) - Upsilon(c)| / max |Upsilon| of the interval
# Brent stops on a bracket narrower than 2 ROOT_C_REL_TOL relative, so two
# refinements of one root may differ by twice that
SCALED_ROOT_TOL = 4.0 * ROOT_C_REL_TOL
PARABOLIC_EPS_LADDER = (0.02, 0.01, 0.005)  # sensitivities x eps, alpha x eps^2


def _params(alpha: float) -> ChemParams:
    return ChemParams(d_s=0.5, d_n=1.0, alpha=alpha, beta=1.0, gamma=1.0)


# A drawn symmetric model whose scaled Upsilon once missed SCALED_UPSILON_TOL:
# the slope's closed form summed rho(0-) - rho(0+), exactly zero, as a
# difference of terms of the size of rho(0), and at s = 2 on the interval
# (0.04641361991949968, 0.046875) the rounding of that difference gave a
# gap of 9.93e-17 against a bound of 8.19e-17.
CANCELLING_MODEL = (
    (
        *expand_half_set(
            [
                0.03125, 0.0390625, 0.04641361991949968, 0.046875, 0.0625, 0.085625, 0.16125, 0.1875,
                0.236875, 0.3125, 0.375, 0.390625, 0.40625, 0.4375, 0.5, 0.505, 0.565, 0.625, 0.65625,
                0.6875, 0.75, 0.7525, 0.78125, 0.8125, 0.84375, 0.875, 0.90625, 0.9375, 0.96875, 1.0,
            ],
            [
                k / 490
                for k in (16, 8, 8, 8, 12, 12, 12, 12, 8, 16, 16, 8, 16, 8, 8)
                + (8, 8, 8, 12, 4, 4, 4, 4, 4, 4, 4, 6, 4, 2, 1)
            ],
        ),
        0.375,
        0.1328125,
    ),
    _params(10.0),
)


@st.composite
def gauss_legendre_models(draw):
    """A Gauss-Legendre model and parameters, drawn as the velocity-sweep benchmark draws them."""
    n = draw(st.integers(min_value=2, max_value=32))
    nodes, weights = np.polynomial.legendre.leggauss(n)
    chi_s = draw(st.floats(0.1, 0.45))
    chi_n = draw(st.floats(0.0, chi_s))
    alpha = draw(st.sampled_from([0.5, 10.0]))
    return (nodes, weights / weights.sum(), chi_s, chi_n), _params(alpha)


@st.composite
def symmetric_models(draw):
    """A symmetric velocity set drawn by ``test_dispersion_property``, and parameters."""
    model = draw(symmetric_velocity_sets())
    return model, _params(draw(st.sampled_from([0.5, 10.0])))


def _check_root(model, params, c: float) -> None:
    check = verify_root(model, params, c)
    assert check.slope_sign_changes == 1
    assert abs(check.maximum_location) < MAX_LOCATION_TOL

    profile = solve_modes(model, c)  # runs the unit-mass and positivity checks itself
    rho = profile.rho_modes()
    mass = np.sum(rho.left_coefficients / rho.left_rates) + np.sum(rho.right_coefficients / rho.right_rates)
    assert abs(mass - 1.0) < MASS_REL_TOL
    assert np.all(evaluate_f_matrix(profile, verification_grid(profile)) > 0.0)

    nfield = solve_N(rho, params, c, profile.halfwidth)
    assert np.all(np.diff(nfield.values) >= -N_MONOTONE_TOL * np.max(nfield.values))
    assert 0.0 < nfield.n_minus <= 1.0


def _check_chain(drawn) -> None:
    (v, w, chi_s, chi_n), params = drawn
    try:
        model = build_model(v, w, chi_s, chi_n)
        curve = scan(model, params)
        roots = refine_roots(curve, model, params)
    except ChemowaveError as exc:  # allowed, and counted; anything else fails the test
        event(f"typed failure: {type(exc).__name__}")
        return
    event(f"roots: {len(roots)}")

    intervals = {seg.interval_id: seg for seg in curve.intervals}
    assert len(roots) == len(curve.brackets)
    for (interval_id, lo, hi, y_lo, y_hi), c in zip(curve.brackets, roots):
        seg = intervals[interval_id]
        assert seg.lo < lo < hi < seg.hi
        assert cutting_index(model, lo) == cutting_index(model, hi)  # no velocity node in between
        assert y_lo > 0.0 > y_hi
        assert lo <= c <= hi
        _check_root(model, params, c)


@settings(max_examples=60, deadline=None)
@given(gauss_legendre_models())
def test_gauss_legendre_models_give_checked_waves(drawn):
    _check_chain(drawn)


@settings(max_examples=30, deadline=None)
@given(symmetric_models())
def test_symmetric_models_give_checked_waves(drawn):
    _check_chain(drawn)


def _scan_bytes(curve, factor: float = 1.0) -> list[tuple[bytes, bytes]]:
    return [(seg.c.tobytes(), (factor * seg.upsilon).tobytes()) for seg in curve.intervals]


def _check_relations(drawn) -> None:
    """ROADMAP item 17, relations 1 and 2, on one drawn model.

    1. Upsilon is linear in ``beta``: ``beta`` x 2 doubles every scan sample
       bit for bit (a power of 2 scales without rounding).
    2. The nutrient does not set the speed: ``d_n`` x 2 with ``gamma`` x 3
       leaves every scan sample and every refined root bit-identical.
    """
    (v, w, chi_s, chi_n), params = drawn
    try:
        model = build_model(v, w, chi_s, chi_n)
        curve = scan(model, params, RELATION_SAMPLES)
        roots = refine_roots(curve, model, params)
    except ChemowaveError as exc:
        event(f"typed failure: {type(exc).__name__}")
        return
    event(f"roots: {len(roots)}")

    doubled = scan(model, replace(params, beta=2.0 * params.beta), RELATION_SAMPLES)
    assert _scan_bytes(doubled) == _scan_bytes(curve, 2.0)

    nutrient = replace(params, d_n=2.0 * params.d_n, gamma=3.0 * params.gamma)
    moved = scan(model, nutrient, RELATION_SAMPLES)
    assert _scan_bytes(moved) == _scan_bytes(curve)
    assert np.array(refine_roots(moved, model, nutrient)).tobytes() == np.array(roots).tobytes()


@settings(max_examples=40, deadline=None)
@given(gauss_legendre_models())
def test_gauss_legendre_models_keep_the_beta_and_nutrient_relations(drawn):
    _check_relations(drawn)


@settings(max_examples=20, deadline=None)
@given(symmetric_models())
def test_symmetric_models_keep_the_beta_and_nutrient_relations(drawn):
    _check_relations(drawn)


def _check_scaling(drawn) -> None:
    """ROADMAP item 17, relation 3, the space-time scaling, on one drawn model.

    Velocities x s with ``d_s`` and ``d_n`` x s^2, and ``alpha``, ``beta``
    and the sensitivities kept, map the profile at c onto the profile at
    s c stretched by s, so that s^2 Upsilon(s c) = Upsilon(c).  The scan
    samples scale bit for bit; Upsilon and the refined roots scale within
    ``SCALED_UPSILON_TOL`` and ``SCALED_ROOT_TOL``.
    """
    (v, w, chi_s, chi_n), params = drawn
    try:
        model = build_model(v, w, chi_s, chi_n)
        curve = scan(model, params, RELATION_SAMPLES)
        roots = np.array(refine_roots(curve, model, params))
    except ChemowaveError as exc:
        event(f"typed failure: {type(exc).__name__}")
        return
    event(f"roots: {roots.size}")

    for s in SCALES:
        scaled_model = build_model(s * np.asarray(v), w, chi_s, chi_n)
        scaled_params = replace(params, d_s=s * s * params.d_s, d_n=s * s * params.d_n)
        scaled = scan(scaled_model, scaled_params, RELATION_SAMPLES)
        assert [(seg.interval_id, seg.c.tobytes()) for seg in scaled.intervals] == [
            (seg.interval_id, (s * seg.c).tobytes()) for seg in curve.intervals
        ]
        for seg, scaled_seg in zip(curve.intervals, scaled.intervals):
            gap = np.max(np.abs(s * s * scaled_seg.upsilon - seg.upsilon))
            assert gap <= SCALED_UPSILON_TOL * np.max(np.abs(seg.upsilon))
        scaled_roots = np.array(refine_roots(scaled, scaled_model, scaled_params))
        assert scaled_roots.size == roots.size
        assert np.all(np.abs(scaled_roots - s * roots) <= SCALED_ROOT_TOL * s * roots)


@settings(max_examples=40, deadline=None)
@given(gauss_legendre_models())
def test_gauss_legendre_models_keep_the_space_time_scaling(drawn):
    _check_scaling(drawn)


@settings(max_examples=20, deadline=None)
@given(symmetric_models())
@example(CANCELLING_MODEL)
def test_symmetric_models_keep_the_space_time_scaling(drawn):
    _check_scaling(drawn)


@st.composite
def parabolic_models(draw):
    """A symmetric set of 4 to 40 velocities, from 2 to 20 half velocities, and its chemistry.

    ``chi_n`` is 0.1 to 0.9 times ``chi_s``: at ``chi_n = 0`` the limit root's
    interval (0, A chi_n) is empty and there is no wave, and ``chi_n = chi_s``
    drew ``BracketFailure`` at speeds near 0.  Two-velocity sets, whose
    kinetic root is the limit speed at every eps, have their own test.
    """
    k = draw(st.integers(min_value=2, max_value=20))
    half_v = distinct_half_velocities(draw, k)
    half_w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
    v, w = expand_half_set(half_v, list(half_w / (2.0 * half_w.sum())))
    chi_s = draw(st.floats(0.05, 0.45))
    chi_n = chi_s * draw(st.floats(0.1, 0.9))
    params = ChemParams(
        d_s=draw(st.floats(0.1, 2.0)), d_n=1.0, alpha=draw(st.floats(0.1, 10.0)), beta=1.0, gamma=1.0
    )
    return (v, w, chi_s, chi_n), params


@settings(max_examples=30, deadline=None)
@given(parabolic_models())
def test_symmetric_models_approach_the_parabolic_speed_at_second_order(drawn):
    (v, w, chi_s, chi_n), params = drawn
    try:
        ladder = [kinetic_speeds(v, w, chi_s, chi_n, params, eps) for eps in PARABOLIC_EPS_LADDER]
    except ChemowaveError as exc:
        event(f"typed failure: {type(exc).__name__}")
        return
    assert [len(speeds) for speeds in ladder] == [1, 1, 1], ladder  # exactly one wave at every eps
    c0 = parabolic_speed(v, w, chi_s, chi_n, params)
    errors = [speed - c0 for [speed] in ladder]
    for coarse, fine in zip(errors, errors[1:]):
        assert HALVING_RATIO[0] <= coarse / fine <= HALVING_RATIO[1], errors
