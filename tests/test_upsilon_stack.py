"""The stacked Upsilon: one pass over the speeds of a continuity interval.

Every value must be bit-identical to one call per speed, and every failure
must be one the one-speed path raises.
"""

from __future__ import annotations

import gc
import logging
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chemowave.dispersion as dispersion_mod
import chemowave.velocity_model as velocity_model_mod
import chemowave.wave_profile as wave_profile_mod
import chemowave.wave_speed as wave_speed_mod
from chemowave import (
    ChemParams,
    admissible_speed_interval,
    build_model,
    refine_roots,
    scan,
    solve_modes,
    solve_S,
    upsilon,
    verify_root,
)
from chemowave.errors import (
    BracketFailure,
    ChemowaveError,
    NonPositiveProfile,
    ResonantMode,
    SpeedNotAdmissible,
    SpeedOnVelocityNode,
    raise_first,
)

CASES = ["case_one", "case_two", "case_three"]


def _one_at_a_time(model, params, speeds) -> np.ndarray:
    return np.array([upsilon(model, params, float(c)) for c in speeds])


@pytest.mark.parametrize("case", CASES)
def test_stack_equals_one_speed_at_every_scan_sample(case, request):
    model, cfg = request.getfixturevalue(case)
    curve = scan(model, cfg.chem)
    assert sum(seg.c.size for seg in curve.intervals) > 100
    for seg in curve.intervals:
        one = _one_at_a_time(model, cfg.chem, seg.c)
        assert upsilon(model, cfg.chem, seg.c).tobytes() == one.tobytes()
        assert seg.upsilon.tobytes() == one.tobytes()


def test_stack_must_lie_in_one_interval(case_one):
    model, cfg = case_one
    node = 0.0848  # the one node below c_upper
    with pytest.raises(ValueError, match="one continuity interval"):
        upsilon(model, cfg.chem, np.array([0.5 * node, 1.5 * node]))


def test_empty_stack_raises_value_error(case_one):
    model, cfg = case_one
    with pytest.raises(ValueError, match="nonempty"):
        upsilon(model, cfg.chem, np.array([]))
    with pytest.raises(ValueError, match="nonempty"):
        solve_modes(model, np.array([]))


def test_numpy_scalar_speed_is_named_as_a_float(case_one):
    model, cfg = case_one
    with pytest.raises(SpeedOnVelocityNode) as info:
        upsilon(model, cfg.chem, np.float64(0.0848))
    assert str(info.value) == "at c=0.0848: speed collides with a velocity node"


def test_upsilon_error_carries_the_failing_speed(case_one):
    model, cfg = case_one
    with pytest.raises(SpeedOnVelocityNode) as info:
        upsilon(model, cfg.chem, 0.0848)
    assert info.value.c == 0.0848 and str(info.value).count("c=") == 1


SPEED_RULE_CASES = {  # failing speed, a stack of one interval that holds it, error
    "node": (0.0848, [0.05, 0.0848], SpeedOnVelocityNode),
    "above_c_upper": (0.24, [0.2, 0.24], SpeedNotAdmissible),
    "below_c_lower": (-0.08, [-0.05, -0.08], SpeedNotAdmissible),
    "nan": (float("nan"), [float("nan")], SpeedNotAdmissible),
    "refused_positivity_row": (0.15, [0.1, 0.15], NonPositiveProfile),
}
SPEED_RULE_ROUTES = {
    "upsilon": lambda model, params, c, stack: upsilon(model, params, c),
    "stacked_upsilon": lambda model, params, c, stack: upsilon(model, params, np.array(stack)),
    "solve_modes": lambda model, params, c, stack: solve_modes(model, c),
}


@pytest.mark.parametrize("route", SPEED_RULE_ROUTES)
@pytest.mark.parametrize("case", SPEED_RULE_CASES)
def test_a_failed_check_names_its_speed_once(case_one, monkeypatch, case, route):
    model, cfg = case_one
    c, stack, error = SPEED_RULE_CASES[case]
    if error is NonPositiveProfile:  # the certificate refuses every row at c, and the grid rejects them
        real_certified_rows = wave_profile_mod.certified_rows
        monkeypatch.setattr(
            wave_profile_mod,
            "certified_rows",
            lambda profile: real_certified_rows(profile) & (np.asarray(profile.c) != c)[..., None],
        )
        monkeypatch.setattr(
            wave_profile_mod, "evaluate_f_matrix", lambda profile, z: -np.ones((z.size, model.n_active))
        )
    with pytest.raises(error) as info:
        SPEED_RULE_ROUTES[route](model, cfg.chem, c, stack)
    message = str(info.value)
    assert repr(info.value.c) == repr(c)
    assert message.startswith(f"at c={info.value.c!r}: ") and message.count("c=") == 1


def test_stacked_upsilon_error_carries_its_first_failing_speed(case_one, monkeypatch):
    model, cfg = case_one
    speeds = np.array([0.02, 0.03, 0.04])

    def negative_from_second(model, c):
        raise_first(np.asarray(c) >= 0.03, np.asarray(c), lambda i: NonPositiveProfile("negative density"))

    monkeypatch.setattr(wave_speed_mod, "solve_modes", negative_from_second)
    with pytest.raises(NonPositiveProfile, match=r"^at c=0\.03: negative density$") as info:
        upsilon(model, cfg.chem, speeds)
    assert info.value.c == 0.03


def test_one_speed_upsilon_builds_each_sides_poles_once(case_one, monkeypatch):
    """The residual gate reads the poles the dispersion solve built, and solve_modes solves one stack."""
    calls = Counter()

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    singular_values = dispersion_mod.singular_values
    side_rates = velocity_model_mod.side_rates
    monkeypatch.setattr(dispersion_mod, "singular_values", counted("singular_values", singular_values))
    for module in (dispersion_mod, wave_profile_mod, velocity_model_mod):
        monkeypatch.setattr(module, "side_rates", counted("side_rates", side_rates))
    model, cfg = case_one
    upsilon(model, cfg.chem, 0.05)
    # one set of poles per side; side rates for the confinement checks, the poles and the matching system
    assert calls["singular_values"] == 2
    assert calls["side_rates"] <= 6


@st.composite
def gauss_legendre_stacks(draw):
    """A model and parameters drawn as the velocity-sweep benchmark draws them, and speeds of one interval."""
    n = draw(st.sampled_from([8, 32, 128]))
    nodes, weights = np.polynomial.legendre.leggauss(n)
    chi_s = draw(st.floats(0.1, 0.45))
    chi_n = draw(st.floats(0.0, chi_s))
    alpha = draw(st.sampled_from([0.5, 10.0]))
    model = build_model(nodes, weights / weights.sum(), chi_s, chi_n)
    params = ChemParams(d_s=0.5, d_n=1.0, alpha=alpha, beta=1.0, gamma=1.0)
    guard = 2.0 * model.node_guard
    intervals = [
        (lo, hi) for lo, hi in admissible_speed_interval(model).admissible_intervals if hi - lo > 4.0 * guard
    ]
    lo, hi = draw(st.sampled_from(intervals))
    fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8, unique=True))
    speeds = np.unique(lo + guard + np.array(fractions) * (hi - lo - 2.0 * guard))
    return model, params, speeds


def _outcome(model, params, c):
    try:
        return upsilon(model, params, c)
    except ChemowaveError as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(gauss_legendre_stacks())
def test_stack_raises_what_the_one_speed_path_raises(drawn):
    model, params, speeds = drawn
    one = [_outcome(model, params, float(c)) for c in speeds]
    failures = [o for o in one if isinstance(o, tuple)]
    stacked = _outcome(model, params, speeds)
    if not failures:
        assert stacked.tobytes() == np.array(one).tobytes()
        return
    # a stack runs its checks stage by stage, so it names a failing speed, with its own message
    assert stacked in failures
    for c, o in zip(speeds, one):
        if isinstance(o, tuple):
            assert _outcome(model, params, np.array([c])) == o


def _gauss_legendre_128(cfg):
    nodes, weights = np.polynomial.legendre.leggauss(128)
    return build_model(nodes, weights / weights.sum(), cfg.chi_s, cfg.chi_n)


def test_gauss_legendre_128_scan_finds_two_verified_roots(case_one, monkeypatch):
    # The residual gate's rounding term admits the near-pole roots of the
    # first sample, c = 2.2e-4, that a gate on the largest term alone
    # refused: every stack now passes every check, so the scan solves each
    # interval's whole stack once, and both roots pass the S-shape check.
    _model, cfg = case_one
    model = _gauss_legendre_128(cfg)
    stacks = []

    def recorded(model, c, solve=wave_speed_mod.solve_modes):
        stacks.append(np.array(c, copy=True))
        return solve(model, c)

    monkeypatch.setattr(wave_speed_mod, "solve_modes", recorded)
    curve = scan(model, cfg.chem)
    assert len(stacks) == len(curve.intervals)
    for stack, seg in zip(stacks, curve.intervals):
        assert stack.shape == seg.c.shape and stack.tobytes() == seg.c.tobytes()
    roots = refine_roots(curve, model, cfg.chem)
    assert roots == pytest.approx([0.0585224, 0.0615894], rel=1e-6)
    for c in roots:
        check = verify_root(model, cfg.chem, c)
        assert check.slope_sign_changes == 1 and abs(check.maximum_location) < 1e-10


def test_a_failed_check_leaves_no_reference_cycle(case_one, monkeypatch):
    # an error bound to a local name of the frame that raises it makes a cycle
    # through its traceback, which keeps that frame's arrays alive until the
    # cyclic collector runs (about 5 MB of n = 128 temporaries in a sweep)
    _model, cfg = case_one
    model = _gauss_legendre_128(cfg)
    lo, hi = admissible_speed_interval(model).admissible_intervals[0]
    speeds = wave_speed_mod._chebyshev_points(lo + model.node_guard, hi - model.node_guard, 64)
    real_polish = dispersion_mod._polish
    # every root moved by 1e-9 relative, far past the residual gate
    monkeypatch.setattr(dispersion_mod, "_polish", lambda *args: real_polish(*args) * (1.0 + 1e-9))
    gc.collect()
    gc.disable()
    try:
        for c in (speeds, float(speeds[0])):  # the stack, and its first failing speed
            try:
                upsilon(model, cfg.chem, c)
            except BracketFailure:
                pass
            else:
                pytest.fail("expected a BracketFailure")
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_stack_with_an_exactly_resonant_sample_logs_nothing(case_one, caplog):
    model, cfg = case_one
    target = float(scan(model, cfg.chem, 16).intervals[1].c[5])
    rho = solve_modes(model, target).rho_modes()
    mu = float(rho.left_rates[2])
    params = replace(cfg.chem, alpha=target * mu + cfg.chem.d_s * mu * mu)
    with pytest.raises(ResonantMode):  # left mode 2 sits exactly on theta_+ at the target
        solve_S(rho, params, target)
    with caplog.at_level(logging.DEBUG, logger="chemowave"):
        curve = scan(model, params, 16)
    assert caplog.records == []
    assert float(curve.intervals[1].c[5]) == target
    for seg in curve.intervals:
        assert seg.upsilon.tobytes() == _one_at_a_time(model, params, seg.c).tobytes()


def test_refused_row_of_a_stacked_speed_goes_to_the_grid_for_that_speed_only(case_two, monkeypatch, caplog):
    model, cfg = case_two
    speeds = scan(model, cfg.chem, 8).intervals[-1].c
    i, k = 3, 5
    real_certified_rows = wave_profile_mod.certified_rows

    def refuse_one_row(profile):
        rows = real_certified_rows(profile)
        if np.ndim(profile.c):
            assert rows.all()
            rows[i, k] = False
        return rows

    graded = []

    def spy(profile, z, evaluate=wave_profile_mod.evaluate_f_matrix):
        graded.append(profile.c)
        return evaluate(profile, z)

    monkeypatch.setattr(wave_profile_mod, "certified_rows", refuse_one_row)
    monkeypatch.setattr(wave_profile_mod, "evaluate_f_matrix", spy)
    with caplog.at_level(logging.DEBUG, logger="chemowave.wave_profile"):
        stack = solve_modes(model, speeds)
    assert graded == [float(speeds[i])]
    assert [r.getMessage() for r in caplog.records] == [
        f"positivity grid checks 1 of {model.n_active} rows at c={float(speeds[i])!r}"
    ]
    assert stack.speed(i).a.tobytes() == solve_modes(model, float(speeds[i])).a.tobytes()

    # a grid that rejects the row fails that speed, and names it
    monkeypatch.setattr(
        wave_profile_mod, "evaluate_f_matrix", lambda profile, z: -np.ones((z.size, model.n_active))
    )
    with pytest.raises(NonPositiveProfile) as info:
        upsilon(model, cfg.chem, speeds)
    c = float(speeds[i])
    assert str(info.value) == f"at c={c!r}: profile not strictly positive on the verification grid"
