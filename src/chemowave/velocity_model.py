"""Discrete velocity set, tumbling rates and the admissible speed window.

The kinetic substrate is a finite, symmetric set of velocities v_k with
probability weights w_k, plus the two sensitivities chi_s (chemoattractant)
and chi_n (nutrient).  In the moving frame the tumbling rate is piecewise
constant and takes one of four values depending on sign(z) and sign(v - c);
those four constants bound everything downstream.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    AsymmetricSet,
    NegativeWeight,
    NoConfinementWindow,
    SensitivityOutOfRange,
    SpeedOnVelocityNode,
    WeightSumNotOne,
    raise_first,
)

SYMMETRY_TOL = 1e-12      # absolute, for velocity/weight mirror pairing
WEIGHT_SUM_TOL = 1e-12    # absolute, for sum(w) == 1
NODE_GUARD_REL = 1e-9     # delta_v = NODE_GUARD_REL * v_max


class SensitivityBoundaryWarning(UserWarning):
    """chi value sits on the closed boundary 1/2 of its nominal range."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class TumblingRates:
    """The four tumbling-rate constants, indexed (sign z, sign(v - c)).

    t_mm: z<0, v<c (doubly unfavourable);  t_mp: z<0, v>c (doubly favourable);
    t_pm: z>0, v<c;  t_pp: z>0, v>c.
    """

    t_mm: float
    t_mp: float
    t_pm: float
    t_pp: float

    @classmethod
    def from_sensitivities(cls, chi_s: float, chi_n: float) -> "TumblingRates":
        return cls(
            t_mm=1.0 + chi_s + chi_n,
            t_mp=1.0 - chi_s - chi_n,
            t_pm=1.0 - chi_s + chi_n,
            t_pp=1.0 + chi_s - chi_n,
        )

    @property
    def max_rate(self) -> float:
        return max(self.t_mm, self.t_mp, self.t_pm, self.t_pp)


@dataclass(frozen=True)
class VelocityModel:
    """Validated, pruned (active weights only) symmetric velocity set."""

    velocities: np.ndarray   # strictly increasing, symmetric about 0
    weights: np.ndarray      # strictly positive, sum to 1
    chi_s: float
    chi_n: float

    @property
    def n_active(self) -> int:
        return self.velocities.size

    @property
    def v_max(self) -> float:
        return float(self.velocities[-1])

    @property
    def node_guard(self) -> float:
        """Minimum allowed distance between a wave speed and any node."""
        return NODE_GUARD_REL * self.v_max

    @cached_property
    def rates(self) -> TumblingRates:
        return TumblingRates.from_sensitivities(self.chi_s, self.chi_n)


@dataclass(frozen=True)
class SpeedInterval:
    """Confinement window (c_lower, c_upper) and its continuity components.

    ``admissible_intervals`` are the connected components of
    (max(0, c_lower), c_upper) after removing the active velocity nodes;
    each entry is an open interval (lo, hi).
    """

    c_lower: float
    c_upper: float
    admissible_intervals: tuple[tuple[float, float], ...]


def expand_half_set(
    velocities_half: list[float] | np.ndarray,
    weights_half: list[float] | np.ndarray,
) -> tuple[list[float], list[float]]:
    """Expand the nonnegative half of a symmetric set into the full set.

    Entries with v > 0 are mirrored with equal weight; a v = 0 entry (at most
    one) is kept unmirrored.
    """
    v = [float(x) for x in velocities_half]
    w = [float(x) for x in weights_half]
    if len(v) != len(w):
        raise AsymmetricSet("velocity and weight half-lists have different lengths")
    if any(x < 0 for x in v):
        raise AsymmetricSet("half-list must contain only nonnegative velocities")
    full_v: list[float] = []
    full_w: list[float] = []
    for vi, wi in zip(v, w):
        if vi == 0.0:
            full_v.append(0.0)
            full_w.append(wi)
        else:
            full_v.extend([-vi, vi])
            full_w.extend([wi, wi])
    order = np.argsort(full_v, kind="stable")
    return [full_v[i] for i in order], [full_w[i] for i in order]


def build_model(
    velocities: list[float] | np.ndarray,
    weights: list[float] | np.ndarray,
    chi_s: float,
    chi_n: float,
) -> VelocityModel:
    """Validate and construct a :class:`VelocityModel`.

    The full (both-sided) lists are expected.  Zero-weight velocities are
    accepted on input but removed from the active set: they contribute
    nothing to the dispersion relation or the macroscopic fields, and keeping
    them would miscount mode multiplicities.
    """
    v = np.asarray(velocities, dtype=float)
    w = np.asarray(weights, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise AsymmetricSet("velocity list must be a nonempty 1-d sequence")
    if w.shape != v.shape:
        raise AsymmetricSet("velocity and weight lists have different lengths")
    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(w))):
        raise AsymmetricSet("velocities and weights must be finite")
    if np.any(w < 0):
        raise NegativeWeight("weights must be nonnegative")

    order = np.argsort(v, kind="stable")
    v = v[order]
    w = w[order]
    if np.any(np.diff(v) <= 0):
        raise AsymmetricSet("velocities must be distinct")
    if not (np.abs(v + v[::-1]) <= SYMMETRY_TOL).all():
        raise AsymmetricSet("velocity set is not symmetric about the origin")
    if not (np.abs(w - w[::-1]) <= SYMMETRY_TOL).all():
        raise AsymmetricSet("weights are not symmetric about the origin")

    total = float(np.sum(w))
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise WeightSumNotOne(f"weights sum to {total!r}, expected 1 within {WEIGHT_SUM_TOL}")

    chi_s = float(chi_s)
    chi_n = float(chi_n)
    for name, chi in (("chi_s", chi_s), ("chi_n", chi_n)):
        # The nominal range is the open interval (0, 1/2).  The closed endpoint
        # 1/2 is accepted with a warning; the value 0 is accepted silently as
        # the unbiased degenerate limit (useful for decoupled sanity checks).
        if not (0.0 <= chi <= 0.5):
            raise SensitivityOutOfRange(f"{name}={chi!r} outside [0, 1/2]")
        if chi == 0.5:
            # attribute the warning to the first caller outside this package
            frame, level = sys._getframe(1), 2
            while frame is not None and frame.f_globals.get("__name__", "").partition(".")[0] == __package__:
                frame, level = frame.f_back, level + 1
            warnings.warn(
                f"{name}=0.5 sits on the boundary of the nominal open range (0, 1/2)",
                SensitivityBoundaryWarning,
                stacklevel=level,
            )
    if chi_n > chi_s:
        raise SensitivityOutOfRange(f"chi_n={chi_n!r} must not exceed chi_s={chi_s!r}")
    if chi_s + chi_n >= 1.0:
        raise SensitivityOutOfRange("chi_s + chi_n must stay below 1 for positive rates")

    active = w > 0.0
    v = v[active]
    w = w[active]
    if v.size < 2 or v[-1] <= 0.0:
        raise AsymmetricSet("active set must contain at least one +/- velocity pair")
    return VelocityModel(velocities=_readonly(v), weights=_readonly(w), chi_s=chi_s, chi_n=chi_n)


def side_rates(model: VelocityModel, c: float | np.ndarray, side: str) -> np.ndarray:
    """Tumbling rate per active velocity on one side of the origin.

    ``side`` is "left" (z < 0) or "right" (z > 0).  Velocities equal to c are
    not resolved here; callers must keep c away from nodes.  An array of
    speeds gives one row of rates per speed.
    """
    r = model.rates
    below = model.velocities < np.asarray(c)[..., None]
    if side == "left":
        return np.where(below, r.t_mm, r.t_mp)
    if side == "right":
        return np.where(below, r.t_pm, r.t_pp)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def mean_run_length(model: VelocityModel, c: float | np.ndarray, side: str) -> float | np.ndarray:
    """Mean algebraic run length sum_k w_k (v_k - c) / T(v_k - c) on a side.

    Positive on the left side and negative on the right side exactly when the
    speed c is inside the confinement window.  Each term vanishes continuously
    as c crosses a node, so the function is continuous and strictly decreasing
    in c.  An array of speeds gives one run length per speed.
    """
    T = side_rates(model, c, side)
    total = (model.weights * (model.velocities - np.asarray(c)[..., None]) / T).sum(axis=-1)
    return float(total) if np.ndim(c) == 0 else total


def bisect_decreasing(f, lo: float, hi: float) -> float:
    """Root of a continuous strictly decreasing f with f(lo) > 0 > f(hi), halved to the last bit."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _window_edge(model: VelocityModel, side: str, lo: float, hi: float) -> float:
    """Root of ``mean_run_length(model, ., side)`` in (lo, hi), in closed form.

    Between two nodes every rate T_k is constant, so the run length f is
    affine there, and on the piece that holds the sign change its root is
    ``sum(s v) / sum(s)`` with s = w / T at that piece's rates.  The piece
    starts at the last node in (lo, hi) where the computed f is > 0 (at lo if
    there is none).

    Rounding bound.  Let r be the exact root of f formed from the model's
    doubles, eps the machine epsilon, and T_min, T_max the side's two rates.

    - On r's piece, each s_k v_k is rounded n + 1 times (quotient, product,
      n-term sum), each s_k n times, and their ratio once: to first order the
      edge is within (n + 1) eps / 2 (sum|s v| / sum(s) + |r|) of r.
    - Each computed f at a node is within E = (n + 2) eps v_max sum(w) / T_min
      of the exact one (3 roundings per term, n - 1 in the sum, terms summing
      to at most 2 v_max sum(w) / T_min in magnitude).  f falls with slope at
      least sum(w) / T_max, so a node's sign can be wrong only within
      D = (n + 2) eps v_max T_max / T_min of r (lo and hi count as nodes, with
      f(lo) > 0 > f(hi)).  The piece taken is then a neighbour of r's: its
      affine extension meets f at their shared node, and both roots lie
      within D of that node on the same side.

    So the edge is within (n + 2) eps (sum|s v| / sum(s) + |r|) of r (twice
    the first-order bound), plus D if a node lies within D of r.
    """
    v = model.velocities
    nodes = v[(v > lo) & (v < hi)]
    ahead = nodes[mean_run_length(model, nodes, side) > 0.0]
    a = float(ahead[-1]) if ahead.size else lo
    # the rates just above a are the piece's: v_k < c exactly for the nodes v_k <= a
    s = model.weights / side_rates(model, np.nextafter(a, hi), side)
    return float(np.sum(s * v) / np.sum(s))


def admissible_speed_interval(model: VelocityModel) -> SpeedInterval:
    """Confinement window (c_lower, c_upper) of the model.

    c_upper is the root of the left-side mean run length in (0, v_max - guard)
    and c_lower that of the right-side one in (-v_max + guard, 0], each the
    closed-form root of the affine piece that holds the sign change
    (``_window_edge``, which states its rounding bound).  A left run length
    that is not positive at 0 or not negative at v_max - guard, or a right one
    positive at 0, leaves no window.
    """
    v_max = model.v_max
    guard = model.node_guard

    g_left_0 = mean_run_length(model, 0.0, "left")
    if g_left_0 <= 0.0:
        raise NoConfinementWindow(
            "left-side mean run length is not positive at c=0 (degenerate sensitivities)"
        )
    if mean_run_length(model, v_max - guard, "left") >= 0.0:
        raise NoConfinementWindow("no sign change of the left-side run length in (0, v_max)")
    c_upper = _window_edge(model, "left", 0.0, v_max - guard)

    # chi_n <= chi_s makes the right-side run length nonpositive at c=0, and
    # chi_n == chi_s makes it 0; that 0 is only exact up to the rounding of the
    # rates (1 - chi_s + chi_n != 1 + chi_s - chi_n) and of the n-term sum.
    g_right_0 = mean_run_length(model, 0.0, "right")
    terms = model.weights * np.abs(model.velocities) / side_rates(model, 0.0, "right")
    if abs(g_right_0) <= model.n_active * np.finfo(float).eps * float(np.sum(terms)):
        c_lower = 0.0
    elif g_right_0 < 0.0:
        c_lower = _window_edge(model, "right", -v_max + guard, 0.0)
    else:
        raise NoConfinementWindow("right-side mean run length positive at c=0")

    lo = max(0.0, c_lower)
    nodes = [float(x) for x in model.velocities if lo < x < c_upper]
    bounds = [lo, *nodes, c_upper]
    components = tuple((bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1))
    return SpeedInterval(c_lower=c_lower, c_upper=c_upper, admissible_intervals=components)


def cutting_index(model: VelocityModel, c: float | np.ndarray) -> int | np.ndarray:
    """Index (into the active, sorted set) of the largest velocity below c.

    Returns -1 if every active velocity exceeds c.  Speeds closer than the
    node guard to any active velocity are rejected.  An array of speeds gives
    one index per speed, and its first speed on a node raises.
    """
    speeds = np.atleast_1d(c)
    v = model.velocities
    raise_first(
        np.abs(v - speeds[:, None]).min(axis=1) <= model.node_guard,
        speeds,
        lambda i: SpeedOnVelocityNode("speed collides with a velocity node"),
    )
    j = np.searchsorted(v, speeds) - 1
    return int(j[0]) if np.ndim(c) == 0 else j
