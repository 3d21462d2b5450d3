"""Case-mode exponents of the stationary kinetic equation.

Each exponential mode exp(-lambda z) / (T(v_k - c) - lambda (v_k - c)) solves
the moving-frame kinetic equation iff lambda is a root of

    sum_k w_k * (T(v_k - c)/(v_k - c) - lambda)^(-1) = 0.

This is the secular equation of a rank-one modification: its n - 1 roots are
the eigenvalues of B^T diag(p) B, where p are the summand poles ("singular
values") and B is an orthonormal basis of the complement of sqrt(w) (Golub
1973; Bunch, Nielsen & Sorensen 1978).  The roots are therefore computed as
eigenvalues, then refined by a bracket-safeguarded Newton polish.

The poles interlace the roots, which gives every root an exact bracket: on
the left side (rates T_-) there is one root in each gap between consecutive
negative poles plus one in (largest negative pole, 0); on the right side
(rates T_+) one root in (0, smallest positive pole) plus one per gap between
consecutive positive poles.  A root the polish cannot place strictly inside
its bracket is bisected there instead.  The outermost roots exist exactly
when the mean algebraic run length has the confinement sign, i.e. when c
lies inside the speed window.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BracketFailure, SingularLambda, SpeedNotAdmissible, at_speed, raise_first
from .velocity_model import (
    VelocityModel,
    bisect_decreasing,
    cutting_index,
    mean_run_length,
    side_rates,
)

logger = logging.getLogger(__name__)

RESIDUAL_REL_TOL = 1e-12          # |residual| < tol * max-term-magnitude at a root
_COINCIDENT_POLE_FACTOR = 1e3     # bracket width guard, in units of machine epsilon
_NEWTON_STEPS = 2                 # polish steps after the eigenvalue solve
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class DispersionRoots:
    """Dispersion roots of one model at one wave speed, or at a stack of speeds.

    ``negative_roots`` (left side, rates T_-) and ``positive_roots`` (right
    side, rates T_+) are sorted ascending, so ``negative_roots[-1]`` and
    ``positive_roots[0]`` are the slowest decay rates toward -inf and +inf.
    Counts equal the number of active velocities below/above c.  For a stack
    (``solve_roots`` on an array of speeds of one continuity interval) every
    array field has a leading axis of speeds; :meth:`speed` takes one speed
    out.
    """

    negative_roots: np.ndarray
    positive_roots: np.ndarray

    @property
    def slowest_negative(self) -> float:
        """Decay rate of the slowest left mode, |lambda_{-K}| > 0."""
        return float(-self.negative_roots[-1])

    @property
    def slowest_positive(self) -> float:
        """Decay rate of the slowest right mode, lambda_K > 0."""
        return float(self.positive_roots[0])

    def speed(self, i: int) -> DispersionRoots:
        """The roots at the ``i``-th speed of a stack."""
        return DispersionRoots(negative_roots=self.negative_roots[i], positive_roots=self.positive_roots[i])


def singular_values(model: VelocityModel, c: float | np.ndarray, side: str) -> np.ndarray:
    """Poles T(v_k - c)/(v_k - c) of the dispersion sum, in velocity order.

    An array of speeds gives one row of poles per speed.
    """
    return side_rates(model, c, side) / (model.velocities - np.asarray(c)[..., None])


def dispersion_residual(model: VelocityModel, c: float, lam: float, side: str) -> float:
    """Evaluate sum_k w_k (T_k/(v_k - c) - lambda)^(-1).

    Strictly increasing in lambda between consecutive poles.  Raises
    :class:`SingularLambda` when lambda coincides with a pole to machine
    precision.
    """
    poles = singular_values(model, c, side)
    gap = poles - lam
    if np.any(np.abs(gap) <= 4.0 * _EPS * np.abs(poles)):
        raise SingularLambda(f"lambda={lam!r} coincides with a singular value on side {side!r}")
    return float(np.sum(model.weights / gap))


@lru_cache(maxsize=8)
def _complement_basis(weights: bytes) -> np.ndarray:
    """Orthonormal basis, shape (n, n - 1), of the complement of sqrt(w).

    The trailing columns of the Householder reflector that maps sqrt(w) to
    -e_0.  Depends only on the (positive, unit-sum) weights, given as their
    bytes, so the read-only bases of the last few weight sets are kept
    instead of being rebuilt for every call.
    """
    u = np.sqrt(np.frombuffer(weights))
    u = u / np.linalg.norm(u)
    h = u.copy()
    h[0] += 1.0  # u[0] > 0, so no cancellation
    basis = (np.eye(u.size) - np.outer(h, h) / h[0])[:, 1:]
    basis.setflags(write=False)
    return basis


def _secular_eigenvalues(basis: np.ndarray, poles: np.ndarray) -> np.ndarray:
    """All n - 1 roots of sum_k w_k / (p_k - lambda) as eigenvalues, ascending, per row of ``poles``."""
    return np.linalg.eigvalsh(basis.T @ (poles[..., :, None] * basis))


def _falling(w: np.ndarray, poles: np.ndarray, c: float):
    """Minus the dispersion sum at one row of ``poles``, for ``bisect_decreasing`` in a root's bracket.

    The sum rises from -inf just above the bracket's lower end to +inf just
    below its upper one (the ends are poles, or 0 with the known confinement
    sign), so the bisection needs no end evaluated.  A NaN sum raises
    :class:`BracketFailure` at speed ``c``.
    """

    def falling(lam: float) -> float:
        res = np.sum(w / (poles - lam))
        if np.isnan(res):
            raise at_speed(BracketFailure("dispersion residual evaluated to NaN inside a bracket"), c)
        return -res

    return falling


def _polish(
    w: np.ndarray,
    poles: np.ndarray,
    lam: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    speeds: np.ndarray,
) -> np.ndarray:
    """Safeguarded Newton steps on every root, then bisection where needed.

    A Newton step is kept only if it lands strictly inside the root's
    bracket (lo, hi); the residual is strictly increasing there, so that
    bracket holds exactly one root.  Entries still outside their bracket
    after the polish are bisected inside it by ``bisect_decreasing``, one at
    a time in row-major order.  ``lam``, ``lo`` and ``hi`` are
    (speeds, roots), with ``poles`` (speeds, n) at the stack's ``speeds``.
    """
    lam = lam.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_STEPS):
            inv = 1.0 / (poles[..., None, :] - lam[..., :, None])
            new = lam - (inv @ w) / ((inv * inv) @ w)
            keep = (new > lo) & (new < hi)
            lam[keep] = new[keep]
    outside = ~((lam > lo) & (lam < hi))
    if outside.any():
        logger.debug(
            "%d of %d dispersion roots outside their brackets after the Newton polish; "
            "bisecting them",
            int(np.count_nonzero(outside)),
            lam.size,
        )
        for i, j in zip(*np.nonzero(outside)):
            lam[i, j] = bisect_decreasing(_falling(w, poles[i], speeds[i]), lo[i, j], hi[i, j])
    return lam


def _check_pole_separation(poles_sorted: np.ndarray, speeds: np.ndarray) -> None:
    """Refuse numerically coincident poles; ``poles_sorted`` has one sorted row per speed."""
    gaps = poles_sorted[:, 1:] - poles_sorted[:, :-1]
    scale = np.maximum(np.abs(poles_sorted[:, :-1]), np.abs(poles_sorted[:, 1:]))
    bad = gaps <= _COINCIDENT_POLE_FACTOR * _EPS * scale

    def coincident(i: int) -> BracketFailure:
        j = int(np.argmax(bad[i]))
        return BracketFailure(
            f"singular values {poles_sorted[i, j]!r} and {poles_sorted[i, j + 1]!r} are "
            "numerically coincident; mode counts would be unreliable"
        )

    raise_first(bad.any(axis=1), speeds, coincident)


def solve_roots(model: VelocityModel, c: float | np.ndarray) -> DispersionRoots:
    """All decaying Case-mode exponents of the model at speed c.

    Requires c strictly inside the confinement window and away from velocity
    nodes.  The trivial root lambda = 0 is excluded throughout: only
    integrable (decaying) modes are kept.

    ``c`` may also be a 1-d array of speeds inside one continuity interval
    (one cutting index).  Every step then runs once over the stack, every
    check runs on every speed, and the result carries a leading axis of
    speeds.  Each root is bit-identical to its one-speed value.  A failed
    check raises for the first speed that fails it (see ``raise_first``).
    An empty stack, or one that spans two intervals, raises ValueError.

    Every root passes the residual gate of :func:`_verify_side`, left side
    then right side: :class:`SingularLambda` on a pole collision, else
    :class:`BracketFailure`.
    """
    speeds = np.atleast_1d(np.asarray(c, dtype=float))
    j = cutting_index(model, speeds)  # raises on node collision
    if j.size == 0 or (j != j[0]).any():
        raise ValueError("a stack of speeds must be nonempty and lie in one continuity interval")
    j_cut = int(j[0])
    raise_first(
        mean_run_length(model, speeds, "left") <= 0.0,
        speeds,
        lambda i: SpeedNotAdmissible("no confinement on the left side (c >= c_upper)"),
    )
    raise_first(
        mean_run_length(model, speeds, "right") >= 0.0,
        speeds,
        lambda i: SpeedNotAdmissible("no confinement on the right side (c <= c_lower)"),
    )

    w = model.weights
    m = j_cut + 1                 # velocities below c
    if m == 0 or m == model.n_active:  # also reached by a NaN speed, which fails no check above
        raise_first(
            np.ones(speeds.shape, dtype=bool),
            speeds,
            lambda i: SpeedNotAdmissible("all relative velocities share one sign"),
        )

    # Left side: poles from v<c are negative; the m smallest of the n - 1 roots
    # are the negative ones.  Right side: poles from v>c are positive; the n - m
    # largest roots are the positive ones.  One eigenvalue call serves both.  T is
    # one constant per side, so T/(v - c) falls as v rises: reversed, rows ascend.
    poles_left = singular_values(model, speeds, "left")
    poles_right = singular_values(model, speeds, "right")
    neg_poles = poles_left[:, :m][:, ::-1]
    pos_poles = poles_right[:, m:][:, ::-1]
    _check_pole_separation(neg_poles, speeds)
    _check_pole_separation(pos_poles, speeds)
    basis = _complement_basis(w.tobytes())
    eig_left, eig_right = _secular_eigenvalues(basis, np.stack([poles_left, poles_right]))
    zeros = np.zeros((speeds.size, 1))

    lo = neg_poles
    hi = np.concatenate([neg_poles[:, 1:], zeros], axis=1)
    negative_roots = _polish(w, poles_left, eig_left[:, :m], lo, hi, speeds)

    lo = np.concatenate([zeros, pos_poles[:, :-1]], axis=1)
    hi = pos_poles
    positive_roots = _polish(w, poles_right, eig_right[:, m - 1 :], lo, hi, speeds)

    with np.errstate(divide="ignore", invalid="ignore"):
        _verify_side(model, speeds, "left", poles_left, negative_roots)
        _verify_side(model, speeds, "right", poles_right, positive_roots)
    roots = DispersionRoots(negative_roots=negative_roots, positive_roots=positive_roots)
    return roots if np.ndim(c) else roots.speed(0)


def _verify_side(
    model: VelocityModel, speeds: np.ndarray, side: str, poles: np.ndarray, lams: np.ndarray
) -> None:
    """Residual gate on every root of one side, at the poles the solve used.

    ``poles`` (speeds, n) is the side's ``singular_values`` at ``speeds`` and
    ``lams`` (speeds, roots) its roots.  Raises for the first speed with a
    failing root, and names its first failing root in ascending order:
    :class:`SingularLambda` on a pole collision, else :class:`BracketFailure`
    when |r(lambda)| exceeds ``RESIDUAL_REL_TOL`` times the largest term plus
    eps |lambda| r'(lambda).  The second term is what rounding lambda to a
    double can leave (the ``|tau| (psi' + phi')`` of LAPACK dlaed4's stopping
    test): near a pole it exceeds the first, and a correctly rounded root
    would fail without it.
    """
    poles = poles[:, None, :]
    gap = poles - lams[:, :, None]
    singular = (np.abs(gap) <= 4.0 * _EPS * np.abs(poles)).any(axis=2)
    terms = model.weights / gap
    res = terms.sum(axis=2)
    scale = np.abs(terms).max(axis=2)
    slope = (terms / gap).sum(axis=2)  # r'(lambda) = sum_k w_k / (p_k - lambda)^2
    bound = RESIDUAL_REL_TOL * scale + _EPS * np.abs(lams) * slope
    failed = singular | (np.abs(res) > bound)

    def refused(i: int):
        k = int(np.argmax(failed[i]))
        lam = float(lams[i, k])
        if singular[i, k]:
            return SingularLambda(f"lambda={lam!r} coincides with a singular value on side {side!r}")
        return BracketFailure(
            f"root {lam!r} on side {side!r} has residual {float(res[i, k])!r} "
            f"above {RESIDUAL_REL_TOL} * {float(scale[i, k])!r} + eps * |lambda| * "
            f"{float(slope[i, k])!r}"
        )

    raise_first(failed.any(axis=1), speeds, refused)
