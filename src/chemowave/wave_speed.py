"""The matching function Upsilon(c) = dS/dz(0) and its admissible roots.

A speed c is an admissible wave speed when the chemoattractant built from
the confined density at that speed has its maximum exactly at the origin,
i.e. Upsilon(c) = 0 with a continuous downward crossing.  Upsilon jumps at
the velocity nodes, so the scan works per continuity interval; sign changes
across a node are jumps, never roots.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from ._scipy_ext import scipy_extension
from .chemo_fields import ChemParams, locate_maximum, s_slope_at_zero, slope_sign_changes, solve_S
from .errors import ChemowaveError, LostBracket
from .velocity_model import VelocityModel, admissible_speed_interval
from .wave_profile import PiecewiseExponential, solve_modes

logger = logging.getLogger(__name__)

ROOT_C_REL_TOL = 1e-12
_BRENT_MAXITER = 100
SAMPLES_PER_INTERVAL = 64
MIN_SAMPLES_PER_INTERVAL = 8


@dataclass(frozen=True)
class IntervalSamples:
    """Upsilon samples inside one continuity interval."""

    interval_id: int
    lo: float
    hi: float
    c: np.ndarray
    upsilon: np.ndarray


@dataclass
class UpsilonCurve:
    """Sampled Upsilon over the admissible speed range."""

    intervals: list[IntervalSamples]
    brackets: list[tuple[int, float, float, float, float]]  # (interval_id, c_lo, c_hi, y_lo, y_hi)
    upward_crossings: list[tuple[int, float, float]]
    root_residuals: list[float] = field(default_factory=list)

    @property
    def samples(self) -> list[tuple[float, float]]:
        return [(float(c), float(y)) for seg in self.intervals for c, y in zip(seg.c, seg.upsilon)]


def upsilon(model: VelocityModel, params: ChemParams, c: float | np.ndarray) -> float | np.ndarray:
    """Slope of the chemoattractant at the origin for the profile at speed c.

    Composes the dispersion solve, the matching solve and the closed-form
    slope ``s_slope_at_zero``, which has no resonant speed.

    ``c`` may also be a 1-d array of speeds inside one continuity interval.
    Each stage then runs once over the whole stack, every check runs on every
    speed, and the values are bit-identical to one call per speed.  A failed
    check raises for the first speed that fails it at the earliest failing
    stage, with the message the one-speed call gives there.
    """
    return s_slope_at_zero(solve_modes(model, c).rho_modes(), params, c)


def _chebyshev_points(lo: float, hi: float, n: int) -> np.ndarray:
    k = np.arange(1, n + 1)
    return np.sort(0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos((2.0 * k - 1.0) * np.pi / (2.0 * n)))


@dataclass(frozen=True)
class IntervalModes:
    """The stacked density modes ``rho`` at one continuity interval's samples ``c``."""

    interval_id: int
    lo: float
    hi: float
    c: np.ndarray
    rho: PiecewiseExponential


def scan_modes(model: VelocityModel, samples_per_interval: int = SAMPLES_PER_INTERVAL) -> list[IntervalModes]:
    """The mode stage of ``scan``, which no chemistry parameter enters.

    Samples are Chebyshev-spaced inside each continuity interval, inset by the node guard, and solved
    by one stacked ``solve_modes`` call per interval; an error it raises is one a sample raises by itself.
    """
    if samples_per_interval < MIN_SAMPLES_PER_INTERVAL:
        raise ValueError(f"samples_per_interval must be at least {MIN_SAMPLES_PER_INTERVAL}")
    guard = model.node_guard
    modes: list[IntervalModes] = []
    for i, (lo, hi) in enumerate(admissible_speed_interval(model).admissible_intervals):
        if hi - lo <= 3.0 * guard:
            logger.warning(
                "continuity interval (%r, %r) is no wider than 3 node guards; skipped, no root there is found", lo, hi
            )
            continue
        cs = _chebyshev_points(lo + guard, hi - guard, samples_per_interval)
        modes.append(IntervalModes(i, lo, hi, cs, solve_modes(model, cs).rho_modes()))
    return modes


def scan_chemistry(modes: list[IntervalModes], params: ChemParams) -> UpsilonCurve:
    """The chemistry stage of ``scan``: Upsilon by ``s_slope_at_zero`` on the modes, and its sign changes.

    A downward change between two samples of an interval is a bracket; an upward one is logged, never rooted.
    """
    intervals = [IntervalSamples(m.interval_id, m.lo, m.hi, m.c, s_slope_at_zero(m.rho, params, m.c)) for m in modes]
    brackets: list[tuple[int, float, float, float, float]] = []
    upward: list[tuple[int, float, float]] = []
    for seg in intervals:
        c, y = seg.c.tolist(), seg.upsilon.tolist()
        for j in range(len(y) - 1):
            if y[j] > 0.0 and y[j + 1] < 0.0:
                brackets.append((seg.interval_id, c[j], c[j + 1], y[j], y[j + 1]))
            elif y[j] < 0.0 and y[j + 1] > 0.0:
                msg = "upward in-interval crossing of Upsilon between c=%r and c=%r; not counted as a wave speed"
                logger.warning(msg, c[j], c[j + 1])
                upward.append((seg.interval_id, c[j], c[j + 1]))
    return UpsilonCurve(intervals=intervals, brackets=brackets, upward_crossings=upward)


def scan(model: VelocityModel, params: ChemParams, samples_per_interval: int = SAMPLES_PER_INTERVAL) -> UpsilonCurve:
    """Upsilon sampled and bracketed on every continuity interval: ``scan_modes``, then ``scan_chemistry``."""
    return scan_chemistry(scan_modes(model, samples_per_interval), params)


def refine_roots(curve: UpsilonCurve, model: VelocityModel, params: ChemParams) -> list[float]:
    """Refine every bracketed downward crossing with Brent's method.

    Stops at relative tolerance ``ROOT_C_REL_TOL`` (1e-12): the absolute
    tolerance is set to the same fraction of the bracket's magnitude, since
    the default of ``brentq`` is too loose for speeds of order 1e-2.  No point
    is evaluated twice: the bracket ends come from the scan, and the residual
    is the value ``brentq`` already computed at the root it returns.
    Fills ``curve.root_residuals`` and returns the speeds.
    A bracket whose refinement fails raises :class:`LostBracket` rather than
    being dropped silently.
    """
    roots: list[float] = []
    residuals: list[float] = []
    for _interval_id, lo, hi, y_lo, y_hi in curve.brackets:
        if not (y_lo > 0.0 > y_hi):
            raise LostBracket(f"bracket ({lo!r}, {hi!r}) does not straddle a downward crossing")
        memo = {lo: y_lo, hi: y_hi}  # every value brentq asks for, starting with the scan's
        try:
            root = brentq(
                lambda c: memo[c] if c in memo else memo.setdefault(c, upsilon(model, params, c)),
                lo,
                hi,
                xtol=ROOT_C_REL_TOL * max(abs(lo), abs(hi)),
            )
        except ChemowaveError as exc:
            raise LostBracket(f"could not refine bracket ({lo!r}, {hi!r}): {exc}") from exc
        roots.append(float(root))
        residuals.append(float(memo[root]))  # brentq returns a point it has evaluated
    curve.root_residuals = residuals
    return roots


def brentq(f: Callable[[float], float], xa: float, xb: float, xtol: float) -> float:
    """A root of ``f`` in ``[xa, xb]`` by Brent's method: ``scipy.optimize.brentq`` with ``rtol = ROOT_C_REL_TOL``.

    Calls scipy's compiled ``_brentq`` (``scipy.optimize._zeros``, a 21 KB
    extension, without its package) for at most ``_BRENT_MAXITER``
    iterations, scipy's default 100, and adds the NaN check of scipy's
    wrapper, so it raises what ``scipy.optimize.brentq`` raises.
    """

    def value(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    zeros = scipy_extension("scipy.optimize._zeros")
    return zeros._brentq(value, xa, xb, xtol, ROOT_C_REL_TOL, _BRENT_MAXITER, (), False, True)


@dataclass(frozen=True)
class RootVerification:
    """Consistency data for a refined wave speed."""

    maximum_location: float
    slope_sign_changes: int


def verify_root(model: VelocityModel, params: ChemParams, c: float) -> RootVerification:
    """Re-run the pipeline at a reported root and check the S-shape conditions.

    The recomputed S must be unimodal (exactly one sign change of its slope)
    with the maximum at the origin.
    """
    profile = solve_modes(model, c)
    sfield = solve_S(profile.rho_modes(), params, c)
    changes = slope_sign_changes(sfield, profile.halfwidth)
    z_max = locate_maximum(sfield, profile.halfwidth)
    return RootVerification(
        maximum_location=float(z_max),
        slope_sign_changes=changes,
    )
