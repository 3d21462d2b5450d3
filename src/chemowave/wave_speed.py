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

from .chemo_fields import ChemParams, locate_maximum, s_slope_at_zero, slope_sign_changes, solve_S
from .errors import ChemowaveError, LostBracket
from .velocity_model import VelocityModel, admissible_speed_interval
from .wave_profile import solve_modes

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


def scan(
    model: VelocityModel, params: ChemParams, samples_per_interval: int = SAMPLES_PER_INTERVAL
) -> UpsilonCurve:
    """Sample Upsilon over every continuity interval and bracket sign changes.

    Samples are Chebyshev-spaced inside each component of the admissible
    range (endpoints inset by the node guard).  Each interval's samples are
    evaluated by one stacked ``upsilon`` call, bit-identical to one call per
    sample; an error it raises is one that a sample raises by itself.
    """
    if samples_per_interval < MIN_SAMPLES_PER_INTERVAL:
        raise ValueError(f"samples_per_interval must be at least {MIN_SAMPLES_PER_INTERVAL}")
    window = admissible_speed_interval(model)
    guard = model.node_guard

    intervals: list[IntervalSamples] = []
    for i, (lo, hi) in enumerate(window.admissible_intervals):
        if hi - lo <= 3.0 * guard:
            logger.warning(
                "continuity interval (%r, %r) is no wider than 3 node guards; skipped, no root there is found",
                lo,
                hi,
            )
            continue
        cs = _chebyshev_points(lo + guard, hi - guard, samples_per_interval)
        ys = upsilon(model, params, cs)
        intervals.append(IntervalSamples(interval_id=i, lo=lo, hi=hi, c=cs, upsilon=ys))

    brackets: list[tuple[int, float, float, float, float]] = []
    upward: list[tuple[int, float, float]] = []
    for seg in intervals:
        y = seg.upsilon
        for j in range(y.size - 1):
            if y[j] > 0.0 and y[j + 1] < 0.0:
                brackets.append(
                    (seg.interval_id, float(seg.c[j]), float(seg.c[j + 1]), float(y[j]), float(y[j + 1]))
                )
            elif y[j] < 0.0 and y[j + 1] > 0.0:
                logger.warning(
                    "upward in-interval crossing of Upsilon between c=%r and c=%r; "
                    "not counted as a wave speed",
                    seg.c[j],
                    seg.c[j + 1],
                )
                upward.append((seg.interval_id, float(seg.c[j]), float(seg.c[j + 1])))

    return UpsilonCurve(intervals=intervals, brackets=brackets, upward_crossings=upward)


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


def _c_divide(a: float, b: float) -> float:
    """``a / b`` as C computes it in IEEE 754 doubles: a zero ``b`` gives +-inf, or NaN for 0 / 0 and NaN / 0.

    Python raises ZeroDivisionError there instead.
    """
    if b != 0.0:
        return a / b
    if a == 0.0 or math.isnan(a):
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


def brentq(f: Callable[[float], float], xa: float, xb: float, xtol: float) -> float:
    """A root of ``f`` in ``[xa, xb]`` by Brent's method, as ``scipy.optimize.brentq``.

    A line-for-line port of scipy's ``brentq.c``: the same operations in the
    same order and the same stopping test ``|xblk - xcur| / 2 < (xtol + rtol
    |xcur|) / 2`` with ``rtol = ROOT_C_REL_TOL``, so it evaluates ``f`` at the
    same points and returns the same bits as scipy with that ``rtol``.  As
    scipy's wrapper does, it raises ValueError when ``f`` returns NaN or
    ``f(xa)`` and ``f(xb)`` share a sign, and RuntimeError after
    ``_BRENT_MAXITER`` (scipy's default 100) iterations without convergence.
    Each division that can meet a zero divisor (an interpolation step whose
    denominator underflows) gives C's IEEE result through ``_c_divide``, so
    the step test fails on the inf or NaN and the method bisects, as in C.
    Kept in the package so that the construction runs on numpy alone.
    """

    def value(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    # f is never NaN and a zero value returns at once, so the C code's
    # signbit(a) != signbit(b) is (a < 0) != (b < 0) below
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + ROOT_C_REL_TOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = _c_divide(-fcur * (xcur - xpre), fcur - fpre)
            else:  # extrapolate
                dpre = _c_divide(fpre - fcur, xpre - xcur)
                dblk = _c_divide(fblk - fcur, xblk - xcur)
                stry = _c_divide(-fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre))
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):  # C's MIN
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {_BRENT_MAXITER} iterations.")


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
