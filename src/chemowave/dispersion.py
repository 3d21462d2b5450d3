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

import numpy as np

from .errors import BracketFailure, SingularLambda, SpeedNotAdmissible
from .velocity_model import (
    VelocityModel,
    cutting_index,
    mean_run_length,
    side_rates,
)

logger = logging.getLogger(__name__)

RESIDUAL_REL_TOL = 1e-12          # |residual| < tol * max-term-magnitude at a root
_COINCIDENT_POLE_FACTOR = 1e3     # bracket width guard, in units of machine epsilon
_NEWTON_STEPS = 2                 # polish steps after the eigenvalue solve


@dataclass(frozen=True)
class DispersionRoots:
    """Dispersion roots of one model at one wave speed.

    ``negative_roots`` (left side, rates T_-) and ``positive_roots`` (right
    side, rates T_+) are sorted ascending, so ``negative_roots[-1]`` and
    ``positive_roots[0]`` are the slowest decay rates toward -inf and +inf.
    Counts equal the number of active velocities below/above c.
    """

    c: float
    cutting_index: int
    negative_roots: np.ndarray
    positive_roots: np.ndarray
    negative_brackets: np.ndarray  # (m, 2) pole/zero bracket per root
    positive_brackets: np.ndarray  # (p, 2)

    @property
    def slowest_negative(self) -> float:
        """Decay rate of the slowest left mode, |lambda_{-K}| > 0."""
        return float(-self.negative_roots[-1])

    @property
    def slowest_positive(self) -> float:
        """Decay rate of the slowest right mode, lambda_K > 0."""
        return float(self.positive_roots[0])


def singular_values(model: VelocityModel, c: float, side: str) -> np.ndarray:
    """Poles T(v_k - c)/(v_k - c) of the dispersion sum, in velocity order."""
    return side_rates(model, c, side) / (model.velocities - c)


def dispersion_residual(model: VelocityModel, c: float, lam: float, side: str) -> float:
    """Evaluate sum_k w_k (T_k/(v_k - c) - lambda)^(-1).

    Strictly increasing in lambda between consecutive poles.  Raises
    :class:`SingularLambda` when lambda coincides with a pole to machine
    precision.
    """
    poles = singular_values(model, c, side)
    gap = poles - lam
    if np.any(np.abs(gap) <= 4.0 * np.finfo(float).eps * np.abs(poles)):
        raise SingularLambda(f"lambda={lam!r} coincides with a singular value on side {side!r}")
    return float(np.sum(model.weights / gap))


def _residual_vector(w: np.ndarray, poles: np.ndarray, lam: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.sum(w[None, :] / (poles[None, :] - lam[:, None]), axis=1)


def _bisect_brackets(w: np.ndarray, poles: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Bisect every bracket simultaneously down to machine width.

    The residual is -inf just above the lower endpoint and +inf just below
    the upper one (endpoints are poles, or 0 with the known confinement
    sign), so no endpoint evaluation is needed and every step halves the
    bracket.  Stops when no representable midpoint remains, 200 iterations
    at most.  Used for the roots the Newton polish cannot place.
    """
    lo = lo.copy()
    hi = hi.copy()
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        active = (mid > lo) & (mid < hi)
        if not np.any(active):
            break
        res = _residual_vector(w, poles, mid)
        if np.any(np.isnan(res[active])):
            raise BracketFailure("dispersion residual evaluated to NaN inside a bracket")
        go_up = active & (res < 0.0)
        go_dn = active & ~go_up
        lo[go_up] = mid[go_up]
        hi[go_dn] = mid[go_dn]
    return 0.5 * (lo + hi)


def _complement_basis(w: np.ndarray) -> np.ndarray:
    """Orthonormal basis, shape (n, n - 1), of the complement of sqrt(w).

    The trailing columns of the Householder reflector that maps sqrt(w) to
    -e_0.  Depends only on the (positive, unit-sum) weights.
    """
    u = np.sqrt(w)
    u = u / np.linalg.norm(u)
    h = u.copy()
    h[0] += 1.0  # u[0] > 0, so no cancellation
    reflector = np.eye(u.size) - np.outer(h, h) / h[0]
    return reflector[:, 1:]


def _secular_eigenvalues(basis: np.ndarray, poles: np.ndarray) -> np.ndarray:
    """All n - 1 roots of sum_k w_k / (p_k - lambda) as eigenvalues, ascending."""
    return np.linalg.eigvalsh(basis.T @ (poles[:, None] * basis))


def _polish(
    w: np.ndarray, poles: np.ndarray, lam: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Safeguarded Newton steps on every root, then bisection where needed.

    A Newton step is kept only if it lands strictly inside the root's
    bracket (lo, hi); the residual is strictly increasing there, so that
    bracket holds exactly one root.  Entries still outside their bracket
    after the polish are bisected inside it.
    """
    lam = lam.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_STEPS):
            inv = 1.0 / (poles[None, :] - lam[:, None])
            new = lam - (inv @ w) / ((inv * inv) @ w)
            keep = (new > lo) & (new < hi)
            lam[keep] = new[keep]
    outside = ~((lam > lo) & (lam < hi))
    if np.any(outside):
        logger.debug(
            "%d of %d dispersion roots outside their brackets after the Newton polish; "
            "bisecting them",
            int(np.count_nonzero(outside)),
            lam.size,
        )
        lam[outside] = _bisect_brackets(w, poles, lo[outside], hi[outside])
    return lam


def _check_pole_separation(poles_sorted: np.ndarray) -> None:
    if poles_sorted.size < 2:
        return
    gaps = np.diff(poles_sorted)
    scale = np.maximum(np.abs(poles_sorted[:-1]), np.abs(poles_sorted[1:]))
    bad = gaps <= _COINCIDENT_POLE_FACTOR * np.finfo(float).eps * scale
    if np.any(bad):
        i = int(np.argmax(bad))
        raise BracketFailure(
            f"singular values {poles_sorted[i]!r} and {poles_sorted[i + 1]!r} are "
            "numerically coincident; mode counts would be unreliable"
        )


def solve_roots(model: VelocityModel, c: float) -> DispersionRoots:
    """All decaying Case-mode exponents of the model at speed c.

    Requires c strictly inside the confinement window and away from velocity
    nodes.  The trivial root lambda = 0 is excluded throughout: only
    integrable (decaying) modes are kept.
    """
    j_cut = cutting_index(model, c)  # raises on node collision
    if mean_run_length(model, c, "left") <= 0.0:
        raise SpeedNotAdmissible(f"c={c!r}: no confinement on the left side (c >= c_upper)")
    if mean_run_length(model, c, "right") >= 0.0:
        raise SpeedNotAdmissible(f"c={c!r}: no confinement on the right side (c <= c_lower)")

    w = model.weights
    m = j_cut + 1                 # velocities below c
    if m == 0 or m == model.n_active:
        raise SpeedNotAdmissible(f"c={c!r}: all relative velocities share one sign")
    basis = _complement_basis(w)

    # Left side: poles from v<c are negative, ordered like the velocities.
    # The m smallest of the n - 1 roots are the negative ones.
    poles_left = singular_values(model, c, "left")
    neg_poles = np.sort(poles_left[:m])
    _check_pole_separation(neg_poles)
    lo = neg_poles
    hi = np.concatenate([neg_poles[1:], [0.0]])
    guess = _secular_eigenvalues(basis, poles_left)[:m]
    negative_roots = _polish(w, poles_left, guess, lo, hi)
    negative_brackets = np.column_stack([lo, hi])

    # Right side: poles from v>c are positive; smaller for larger velocities.
    # The n - m largest roots are the positive ones.
    poles_right = singular_values(model, c, "right")
    pos_poles = np.sort(poles_right[m:])
    _check_pole_separation(pos_poles)
    lo = np.concatenate([[0.0], pos_poles[:-1]])
    hi = pos_poles
    guess = _secular_eigenvalues(basis, poles_right)[m - 1 :]
    positive_roots = _polish(w, poles_right, guess, lo, hi)
    positive_brackets = np.column_stack([lo, hi])

    roots = DispersionRoots(
        c=float(c),
        cutting_index=j_cut,
        negative_roots=negative_roots,
        positive_roots=positive_roots,
        negative_brackets=negative_brackets,
        positive_brackets=positive_brackets,
    )
    _verify_residuals(model, roots)
    return roots


def residual_scale(model: VelocityModel, c: float, lam: float, side: str) -> float:
    """Largest term magnitude of the dispersion sum, the natural residual scale."""
    poles = singular_values(model, c, side)
    return float(np.max(np.abs(model.weights / (poles - lam))))


def _verify_residuals(model: VelocityModel, roots: DispersionRoots) -> None:
    """Residual gate on every root, all roots of a side at once.

    Raises for the first failing root in the order left then right,
    ascending: :class:`SingularLambda` on a pole collision, else
    :class:`BracketFailure` when |residual| exceeds ``RESIDUAL_REL_TOL``
    times the largest term (the checks of :func:`dispersion_residual` and
    :func:`residual_scale`).
    """
    for side, lams in (("left", roots.negative_roots), ("right", roots.positive_roots)):
        poles = singular_values(model, roots.c, side)
        gap = poles[None, :] - lams[:, None]
        singular = np.any(np.abs(gap) <= 4.0 * np.finfo(float).eps * np.abs(poles), axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = model.weights / gap
            res = np.sum(terms, axis=1)
            scale = np.max(np.abs(terms), axis=1)
            failed = singular | (np.abs(res) > RESIDUAL_REL_TOL * scale)
        if not np.any(failed):
            continue
        i = int(np.argmax(failed))
        lam = float(lams[i])
        if singular[i]:
            raise SingularLambda(f"lambda={lam!r} coincides with a singular value on side {side!r}")
        raise BracketFailure(
            f"root {lam!r} on side {side!r} has residual {float(res[i])!r} "
            f"above {RESIDUAL_REL_TOL} * {float(scale[i])!r}"
        )
