from __future__ import annotations

import warnings
from fractions import Fraction
from itertools import accumulate
from operator import add

import numpy as np
import pytest

from chemowave import (
    admissible_speed_interval,
    build_model,
    cutting_index,
    expand_half_set,
    mean_run_length,
    refine_roots,
    scan,
)
from chemowave.cli_io import parse_config
from chemowave.errors import (
    AsymmetricSet,
    NegativeWeight,
    NoConfinementWindow,
    SensitivityOutOfRange,
    SpeedOnVelocityNode,
    WeightSumNotOne,
)
from chemowave import velocity_model
from chemowave.velocity_model import (
    SensitivityBoundaryWarning,
    TumblingRates,
    VelocityModel,
    side_rates,
)

GAUSS_LEGENDRE_SIZES = (2, 4, 8, 18, 32, 64, 128)
WINDOW_DRAWS = {"gauss-legendre": 8, "symmetric": 40, "two-velocity": 120}  # seeded draws per family


def test_published_quadrature_set_builds(case_one):
    model, _cfg = case_one
    assert model.n_active == 18
    assert model.velocities[-1] == pytest.approx(0.9916)
    assert np.all(model.weights > 0)
    assert np.sum(model.weights) == pytest.approx(1.0, abs=1e-12)


def test_two_velocity_model_builds(two_velocity_model):
    assert two_velocity_model.n_active == 2
    assert two_velocity_model.v_max == 1.0


def test_weight_sum_rejected():
    with pytest.raises(WeightSumNotOne):
        build_model([-1.0, 1.0], [0.45, 0.45], 0.3, 0.15)


def test_structural_rejections():
    with pytest.raises(AsymmetricSet):
        build_model([-1.0, 0.9], [0.5, 0.5], 0.3, 0.15)
    with pytest.raises(AsymmetricSet):
        build_model([-1.0, 1.0], [0.4, 0.6], 0.3, 0.15)
    with pytest.raises(NegativeWeight):
        build_model([-1.0, 0.0, 1.0], [0.6, -0.2, 0.6], 0.3, 0.15)
    with pytest.raises(AsymmetricSet):
        build_model([], [], 0.3, 0.15)


@pytest.mark.parametrize(
    "velocities,weights,message",
    [
        ([-1.0, 1.0], [0.25, 0.5, 0.25], "velocity and weight lists have different lengths"),
        ([-1.0, np.nan, 1.0], [0.25, 0.5, 0.25], "velocities and weights must be finite"),
        ([-np.inf, 0.0, np.inf], [0.25, 0.5, 0.25], "velocities and weights must be finite"),
        ([-1.0, 0.0, 1.0], [0.25, np.nan, 0.25], "velocities and weights must be finite"),
        ([-1.0, 0.0, 1.0], [0.25, np.inf, 0.25], "velocities and weights must be finite"),
        ([-1.0, -1.0, 1.0, 1.0], [0.25] * 4, "velocities must be distinct"),
        ([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0], "active set must contain at least one +/- velocity pair"),
    ],
    ids=["lengths", "nan_velocity", "inf_velocity", "nan_weight", "inf_weight", "repeated", "no_active_pair"],
)
def test_input_checks_name_their_fault(velocities, weights, message):
    with pytest.raises(AsymmetricSet) as exc:
        build_model(velocities, weights, 0.3, 0.15)
    assert str(exc.value) == message


@pytest.mark.parametrize("chi_s,chi_n", [(0.7, 0.1), (-0.1, 0.0), (0.2, 0.3), (0.5, 0.5)])
def test_sensitivity_rejections(chi_s, chi_n):
    with pytest.raises(SensitivityOutOfRange):
        with np.errstate(all="ignore"):
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore", SensitivityBoundaryWarning)
                build_model([-1.0, 1.0], [0.5, 0.5], chi_s, chi_n)


def test_boundary_sensitivity_warns():
    with pytest.warns(SensitivityBoundaryWarning):
        build_model([-1.0, 1.0], [0.5, 0.5], 0.5, 0.45)


def test_boundary_warning_names_the_caller_outside_the_package():
    # parse_config reaches build_model through RunConfig.build_model; the
    # warning must still point at this file, not at chemowave's own lines
    text = "[model]\nvelocities = 1\nweights = 0.5\nchi_s = 0.5\nchi_n = 0.1\n"
    for build in (
        lambda: build_model([-1.0, 1.0], [0.5, 0.5], 0.5, 0.1),
        lambda: parse_config(text, mode="validate"),
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            build()
        boundary = [w for w in caught if issubclass(w.category, SensitivityBoundaryWarning)]
        assert boundary and all(w.filename == __file__ for w in boundary)


def test_zero_weight_pruning():
    model = build_model([-1.0, 0.0, 1.0], [0.5, 0.0, 0.5], 0.3, 0.15)
    assert model.n_active == 2
    kept = build_model([-1.0, 0.0, 1.0], [0.4, 0.2, 0.4], 0.3, 0.15)
    assert kept.n_active == 3


def test_expand_half_set_roundtrip():
    v, w = expand_half_set([0.0, 0.5, 1.0], [0.2, 0.2, 0.2])
    assert v == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert w == [0.2, 0.2, 0.2, 0.2, 0.2]
    with pytest.raises(AsymmetricSet):
        expand_half_set([-0.5, 1.0], [0.5, 0.5])
    with pytest.raises(AsymmetricSet, match="^velocity and weight half-lists have different lengths$"):
        expand_half_set([0.5, 1.0], [0.5])


def test_tumbling_rate_values(two_velocity_model):
    r = two_velocity_model.rates
    assert (r.t_mm, r.t_mp, r.t_pm, r.t_pp) == pytest.approx((1.45, 0.55, 0.85, 1.15))
    # unbiased limit
    r0 = TumblingRates.from_sensitivities(0.0, 0.0)
    assert (r0.t_mm, r0.t_mp, r0.t_pm, r0.t_pp) == (1.0, 1.0, 1.0, 1.0)
    # strong-sensitivity case: the doubly favourable rate collapses to 0.05
    r2 = TumblingRates.from_sensitivities(0.5, 0.45)
    assert r2.t_mp == pytest.approx(0.05)


def test_rate_at_sign_map(two_velocity_model):
    # velocities -1 < c < +1: index 0 has v < c, index 1 has v > c
    r = two_velocity_model.rates
    left = side_rates(two_velocity_model, 0.1, "left")
    right = side_rates(two_velocity_model, 0.1, "right")
    assert right[1] == r.t_pp
    assert left[1] == r.t_mp
    assert right[0] == r.t_pm
    assert left[0] == r.t_mm


@pytest.mark.parametrize("chi_s", [0.05, 0.2, 0.45])
@pytest.mark.parametrize("chi_n", [0.0, 0.05, 0.2])
def test_rate_ordering_and_positivity(chi_s, chi_n):
    r = TumblingRates.from_sensitivities(chi_s, chi_n)
    assert min(r.t_mm, r.t_mp, r.t_pm, r.t_pp) > 0
    if chi_n <= chi_s:  # the ordering needs it; build_model refuses chi_n > chi_s
        assert r.t_mp <= r.t_pm <= r.t_pp <= r.t_mm


def test_two_velocity_speed_window_closed_form():
    # With velocities {-v, v} and equal weights the window's edges are the
    # rational roots v (t_mm - t_mp) / (t_mm + t_mp) and
    # v (t_pm - t_pp) / (t_pm + t_pp) of the model's rates, which are
    # v (chi_s + chi_n) and -v (chi_s - chi_n) up to the rates' rounding.
    for v, chi_s, chi_n in [(1.0, 0.3, 0.15), (2.0, 0.3, 0.15), (1.0, 0.4, 0.1)]:
        model = build_model([-v, v], [0.5, 0.5], chi_s, chi_n)
        window = admissible_speed_interval(model)
        r = model.rates
        upper = Fraction(v) * (Fraction(r.t_mm) - Fraction(r.t_mp)) / (Fraction(r.t_mm) + Fraction(r.t_mp))
        lower = Fraction(v) * (Fraction(r.t_pm) - Fraction(r.t_pp)) / (Fraction(r.t_pm) + Fraction(r.t_pp))
        assert abs(Fraction(window.c_upper) - upper) <= np.spacing(float(upper))
        assert abs(Fraction(window.c_lower) - lower) <= 2 * np.spacing(abs(float(lower)))
        assert window.c_upper == pytest.approx(v * (chi_s + chi_n), abs=1e-12)
        assert window.c_lower == pytest.approx(-v * (chi_s - chi_n), abs=1e-12)
        # cross-check by an independent coarse bisection on the run length
        lo, hi = 0.0, v
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if mean_run_length(model, mid, "left") > 0:
                lo = mid
            else:
                hi = mid
        assert window.c_upper == pytest.approx(0.5 * (lo + hi), abs=1e-9)


def test_window_root_residuals(case_one, case_two):
    for model, _cfg in (case_one, case_two):
        window = admissible_speed_interval(model)
        assert abs(mean_run_length(model, window.c_upper, "left")) < 1e-12
        assert abs(mean_run_length(model, window.c_lower, "right")) < 1e-12
        assert window.c_lower <= 0.0  # consequence of chi_n <= chi_s
        assert window.c_lower < window.c_upper


def test_components_partition_scan_range(case_two):
    model, _cfg = case_two
    window = admissible_speed_interval(model)
    comps = window.admissible_intervals
    assert comps[0][0] == max(0.0, window.c_lower)
    assert comps[-1][1] == window.c_upper
    for (a, b), (c, d) in zip(comps[:-1], comps[1:]):
        assert a < b == c < d
        assert b in model.velocities  # interior breakpoints are nodes


def test_run_length_monotone_in_speed(case_one):
    model, _cfg = case_one
    cs = np.linspace(0.01, 0.95, 200)
    for side in ("left", "right"):
        vals = [mean_run_length(model, c, side) for c in cs]
        assert np.all(np.diff(vals) < 0)


def test_negated_input_gives_identical_window(case_one):
    model, cfg = case_one
    v, w = expand_half_set(list(cfg.velocities), list(cfg.weights))
    flipped = build_model([-x for x in v][::-1], w[::-1], cfg.chi_s, cfg.chi_n)
    w1 = admissible_speed_interval(model)
    w2 = admissible_speed_interval(flipped)
    assert w1.c_upper == w2.c_upper and w1.c_lower == w2.c_lower


def test_mirror_identity_of_run_lengths(case_one):
    # Negating all velocities maps the right-side run length at c onto minus
    # the length computed with the sign-swapped rate table at -c.
    model, _cfg = case_one
    r = model.rates
    for c in (0.05, 0.1, 0.2):
        tau = np.where(model.velocities + c > 0, r.t_pm, r.t_pp)
        mirrored = -float(np.sum(model.weights * (model.velocities + c) / tau))
        assert mean_run_length(model, c, "right") == pytest.approx(mirrored, rel=1e-14)


@pytest.mark.parametrize("chi, root", [(0.15, None), (0.4, 0.149956475110169)])
def test_equal_sensitivities_put_the_lower_window_edge_at_zero(case_one, chem_default, chi, root):
    # with chi_s == chi_n the right-side run length at c=0 is 0 only up to the
    # rounding of t_pm = 1 - chi + chi against t_pp = 1 + chi - chi
    _model, cfg = case_one
    v, w = expand_half_set(list(cfg.velocities), list(cfg.weights))
    model = build_model(v, w, chi, chi)
    assert admissible_speed_interval(model).c_lower == 0.0
    roots = refine_roots(scan(model, chem_default), model, chem_default)
    assert len(roots) == 1
    if root is not None:
        assert roots == [root]


def _sensitivities(rng, i: int) -> tuple[float, float]:
    """One draw in four each: chi_s == chi_n; chi_s + chi_n close to 1 (T_max / T_min up to 2e4);
    weak sensitivities, whose window edges lie where the run length's rounding matters most."""
    if i % 4 == 0:
        chi = rng.uniform(0.05, 0.45)
        return chi, chi
    if i % 4 == 1:
        chi_s = rng.uniform(0.49, 0.49995)
        return chi_s, rng.uniform(0.49, chi_s)
    chi_s = 10.0 ** rng.uniform(-4.0, -1.0) if i % 4 == 2 else rng.uniform(0.05, 0.45)
    return chi_s, rng.uniform(0.0, chi_s)


def _window_models(family: str):
    rng = np.random.default_rng(27)
    for i in range(WINDOW_DRAWS[family]):
        if family == "gauss-legendre":
            for n in GAUSS_LEGENDRE_SIZES:
                nodes, weights = np.polynomial.legendre.leggauss(n)
                yield build_model(nodes, weights / weights.sum(), *_sensitivities(rng, i))
        elif family == "symmetric":
            # drawn as test_dispersion_property draws symmetric sets
            k = int(rng.integers(2, 41))
            half_w = rng.uniform(0.01, 1.0, k)
            v, w = expand_half_set(np.sort(rng.uniform(0.01, 1.0, k)), half_w / (2.0 * half_w.sum()))
            yield build_model(v, w, *_sensitivities(rng, i))
        else:
            speed = rng.uniform(0.1, 2.0)
            yield build_model([-speed, speed], [0.5, 0.5], *_sensitivities(rng, i))


def _exact_edge(model, side: str, lo: float, hi: float) -> tuple[Fraction, float]:
    """The exact root in (lo, hi) of the run length formed from the model's doubles, and its edge's bound.

    The piece is the one after the last node where the exact run length is
    > 0 (after lo if there is none).  On the piece above the first k
    velocities the run length times t_below t_above is ``num - c den``, with
    ``num = sum(w v t_other)`` and ``den = sum(w t_other)``, t_other being
    the rate a velocity does not take.  The bound is the one derived in
    ``velocity_model._window_edge``'s docstring.
    """
    r = model.rates
    t_below, t_above = map(Fraction, (r.t_mm, r.t_mp) if side == "left" else (r.t_pm, r.t_pp))
    v = [Fraction(x) for x in model.velocities.tolist()]
    terms = [(wk * vk, wk, wk * abs(vk)) for vk, wk in zip(v, map(Fraction, model.weights.tolist()))]
    cum = list(accumulate(terms, lambda p, q: tuple(map(add, p, q)), initial=(Fraction(0),) * 3))

    def piece(k: int) -> tuple[Fraction, ...]:
        """num, den and sum(w |v| t_other) above the first k velocities."""
        return tuple(t_above * b + t_below * (t - b) for b, t in zip(cum[k], cum[-1]))

    k = sum(x <= lo for x in v)
    for j, x in enumerate(v):
        if lo < x < hi:
            num, den, _spread = piece(j + 1)
            if num > x * den:
                k = j + 1
    num, den, spread = piece(k)
    root = num / den
    eps = np.finfo(float).eps
    n = model.n_active
    bound = (n + 2) * eps * (float(spread / den) + abs(float(root)))
    near = (n + 2) * eps * model.v_max * float(max(t_below, t_above) / min(t_below, t_above))
    if any(abs(float(x - root)) <= near for x in [Fraction(lo), *(x for x in v if lo < x < hi), Fraction(hi)]):
        bound += near
    return root, bound


@pytest.mark.parametrize("family", WINDOW_DRAWS)
def test_window_edges_lie_within_their_bound_of_the_exact_roots(family, two_velocity_model):
    beyond = []
    for model in [two_velocity_model, *_window_models(family)]:
        window = admissible_speed_interval(model)
        v_max, guard = model.v_max, model.node_guard
        # c_lower = 0 from the rounding test at chi_s == chi_n lies within the bound too
        edges = [
            (window.c_upper, _exact_edge(model, "left", 0.0, v_max - guard)),
            (window.c_lower, _exact_edge(model, "right", -v_max + guard, 0.0)),
        ]
        for edge, (root, bound) in edges:
            if not abs(Fraction(edge) - root) <= bound:
                beyond.append((model.n_active, model.chi_s, model.chi_n, edge, float(root), bound))
        assert window.c_lower < window.c_upper
    assert beyond == []


def test_window_evaluates_the_run_length_five_times(monkeypatch):
    # at 0 and v_max - guard on the left, at 0 on the right, and once per
    # edge over the nodes inside its bracket
    calls = []

    def spy(model, c, side):
        calls.append(c)
        return mean_run_length(model, c, side)

    monkeypatch.setattr(velocity_model, "mean_run_length", spy)
    nodes, weights = np.polynomial.legendre.leggauss(128)
    admissible_speed_interval(build_model(nodes, weights / weights.sum(), 0.3, 0.1))
    assert len(calls) == 5


def test_right_run_length_positive_at_zero_has_no_window():
    # chi_n > chi_s is refused by build_model; built directly it has no window
    model = VelocityModel(np.array([-1.0, 1.0]), np.array([0.5, 0.5]), chi_s=0.1, chi_n=0.3)
    with pytest.raises(NoConfinementWindow, match="right-side"):
        admissible_speed_interval(model)


def test_no_confinement_for_unbiased_model():
    model = build_model([-1.0, 1.0], [0.5, 0.5], 0.0, 0.0)
    with pytest.raises(NoConfinementWindow):
        admissible_speed_interval(model)


def test_no_confinement_when_the_edge_lies_inside_the_node_guard():
    # the exact edge chi_s + chi_n = 1 - 3e-13 lies above v_max - guard = 1 - 1e-9
    model = build_model([-1.0, 1.0], [0.5, 0.5], 0.5 - 1e-13, 0.5 - 2e-13)
    with pytest.raises(NoConfinementWindow, match="no sign change of the left-side run length"):
        admissible_speed_interval(model)


def test_cutting_index(case_one, two_velocity_model):
    model, _cfg = case_one
    j = cutting_index(model, 0.3)
    assert model.velocities[j] == pytest.approx(0.2519)
    assert model.velocities[j + 1] > 0.3
    assert cutting_index(two_velocity_model, 0.25) == 0  # only -1 lies below
    with pytest.raises(SpeedOnVelocityNode):
        cutting_index(model, 0.9916)
    with pytest.raises(SpeedOnVelocityNode):
        cutting_index(model, 0.2519 + 1e-12)
    assert cutting_index(model, -2.0) == -1
