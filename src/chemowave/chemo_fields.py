"""Chemoattractant and nutrient profiles driven by the cell density.

The chemoattractant S solves -c S' - D_S S'' + alpha S = beta rho.  Because
rho is a finite exponential sum, S is assembled in closed form: one explicit
particular term per rho mode plus the two decaying homogeneous exponentials,
fixed by C^1 matching at z = 0; its slope at the origin has a closed form of
its own.  The nutrient N solves the linear equation
-c N' - D_N N'' + gamma rho N = 0 on a truncated domain with N'(-L) = 0 and
N(+L) = 1 by finite differences: central (second order), or first-order
upwind in every interior row when the cell Peclet number c h / D_N exceeds 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonMonotoneN, NonPositiveSpeed, ResonantMode, at_speed
from .velocity_model import bisect_decreasing
from .wave_profile import GRID_POINTS_PER_SIDE, PiecewiseExponential, two_sided_grid

RESONANCE_GUARD_REL = 1e-10
N_MONOTONE_TOL = 1e-12      # relative slack for roundoff-flat tails
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class ChemParams:
    """Reaction-diffusion constants.

    Diffusivities and the degradation rate must be strictly positive; the
    production and consumption rates may be zero, which switches the
    corresponding coupling off (useful for decoupled sanity runs).  A
    nonzero production rate beta must be a normal double.
    """

    d_s: float
    d_n: float
    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        for name in ("d_s", "d_n", "alpha"):
            val = getattr(self, name)
            if not (np.isfinite(val) and val > 0):
                raise ValueError(f"{name} must be a positive finite number, got {val!r}")
        for name in ("beta", "gamma"):
            val = getattr(self, name)
            if not (np.isfinite(val) and val >= 0):
                raise ValueError(f"{name} must be a nonnegative finite number, got {val!r}")
        if 0.0 < self.beta < _TINY:  # S is linear in beta: a subnormal one rounds Upsilon's samples to a few bits
            raise ValueError(f"beta must be 0 or at least {_TINY!r}, got {self.beta!r}")


@dataclass(frozen=True)
class NField:
    """Nutrient profile on a uniform grid, normalized to the far-field limit N_+ = 1.

    ``n_minus`` is the left far-field level N(-L), in (0, 1].
    """

    grid: np.ndarray
    values: np.ndarray
    n_minus: float

    def __call__(self, z: float | np.ndarray) -> float | np.ndarray:
        return np.interp(z, self.grid, self.values)


def _particular_coefficients(
    params: ChemParams, c: float, mu: np.ndarray, source_coef: np.ndarray
) -> np.ndarray:
    """Coefficients A of the particular terms A exp(mu z) for sources coef exp(mu z)."""
    c_mu = c * mu
    denom = params.alpha - c_mu - params.d_s * mu * mu
    scale = np.maximum(np.maximum(params.alpha, np.abs(c_mu)), params.d_s * mu * mu)
    resonant = np.abs(denom) < RESONANCE_GUARD_REL * scale
    if resonant.any():
        k = int(np.argmax(resonant))
        raise at_speed(
            ResonantMode(
                f"source exponent {mu[k]!r} resonates with the homogeneous operator "
                f"(alpha - c*mu - d_s*mu^2 = {denom[k]!r})"
            ),
            c,
        )
    return params.beta * source_coef / denom


def _homogeneous_exponents(params: ChemParams, c: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The decaying exponents theta_+ > 0 > theta_- = (-c +/- sqrt(c^2 + 4 alpha D_S)) / (2 D_S)."""
    disc = np.sqrt(c * c + 4.0 * params.alpha * params.d_s)
    return (-c + disc) / (2.0 * params.d_s), (-c - disc) / (2.0 * params.d_s)


def s_slope_at_zero(
    rho: PiecewiseExponential, params: ChemParams, c: float | np.ndarray
) -> float | np.ndarray:
    """S'(0) of the solution of -c S' - D_S S'' + alpha S = beta rho, by its Green's function.

    With rho = sum_j s_j exp(mu_j z) for z < 0 and sum_j s_j exp(-r_j z) for z > 0,
    S'(0) = beta (theta_+ R - theta_- L) / (D_S (theta_- - theta_+)), where
    R = sum_j s_j / (-r_j - theta_+) and L = sum_j s_j / (mu_j - theta_-).
    Splitting each term, theta_+ R - theta_- L is

        rho(0-) - rho(0+) + sum_j s_j r_j / (r_j + theta_+) - sum_j s_j mu_j / (mu_j - theta_-),

    and the bracket is exactly zero for the continuous rho that ``solve_modes``
    gives, so it is dropped: summed in doubles, it cancels terms of the size
    of rho(0) against each other and leaves their rounding in a slope that
    may be many orders smaller (near a root, or at a large ``alpha``).  The
    closed form is therefore that of a continuous rho.  No denominator can
    vanish, so unlike ``solve_S`` this has no resonant speed.  ``beta`` is the
    last factor, so that doubling it doubles the slope bit for bit.  A stack
    of speeds gives the one-speed values' bits.
    """
    c = np.asarray(c, dtype=float)
    theta_plus, theta_minus = _homogeneous_exponents(params, c)
    right = rho.right_coefficients * rho.right_rates / (rho.right_rates + theta_plus[..., None])
    left = rho.left_coefficients * rho.left_rates / (rho.left_rates - theta_minus[..., None])
    slope = (right.sum(axis=-1) - left.sum(axis=-1)) / (params.d_s * (theta_minus - theta_plus))
    slope = slope * params.beta
    return float(slope) if c.ndim == 0 else slope


def solve_S(rho: PiecewiseExponential, params: ChemParams, c: float) -> PiecewiseExponential:
    """Closed-form solution of -c S' - D_S S'' + alpha S = beta rho at one speed.

    z < 0: sum_j A_j exp(mu_j z) (mu_j > 0)  +  coef_minus * exp(theta_plus  z)
    z > 0: sum_j A_j exp(mu_j z) (mu_j < 0)  +  coef_plus  * exp(theta_minus z)

    The homogeneous term is the last entry of each side's coefficients and
    rates, so ``theta_plus`` is ``left_rates[-1]`` and ``theta_minus`` is
    ``-right_rates[-1]``; its coefficients come from matching S and S' at
    z = 0.  A source exponent on a homogeneous one raises ``ResonantMode``;
    the slope S'(0) is ``s_slope_at_zero``, which cannot.
    """
    c = float(c)
    theta_plus, theta_minus = _homogeneous_exponents(params, c)

    mu_left = rho.left_rates          # exp(mu z), mu > 0, z < 0
    mu_right = -rho.right_rates       # exp(mu z), mu < 0, z > 0
    A_left = _particular_coefficients(params, c, mu_left, rho.left_coefficients)
    A_right = _particular_coefficients(params, c, mu_right, rho.right_coefficients)

    d0 = A_left.sum() - A_right.sum()                                   # C_+ - C_-
    d1 = np.vecdot(A_left, mu_left) - np.vecdot(A_right, mu_right)      # theta_- C_+ - theta_+ C_-
    coef_minus = (d1 - theta_minus * d0) / (theta_minus - theta_plus)
    coef_plus = coef_minus + d0

    return PiecewiseExponential(
        left_coefficients=np.append(A_left, coef_minus),
        left_rates=np.append(mu_left, theta_plus),
        right_coefficients=np.append(A_right, coef_plus),
        right_rates=np.append(rho.right_rates, -theta_minus),
    )


def slope_sign_changes(sfield: PiecewiseExponential, halfwidth: float) -> int:
    """Count sign changes of S' on a two-sided logarithmic grid."""
    s = np.sign(sfield.derivative(two_sided_grid(1e-8, halfwidth, halfwidth, GRID_POINTS_PER_SIDE)))
    s = s[s != 0.0]
    return int(np.sum(s[1:] != s[:-1]))


def locate_maximum(sfield: PiecewiseExponential, halfwidth: float) -> float:
    """Position of the (unique) maximum of S, by bisection on S'."""
    z = np.insert(two_sided_grid(1e-12, halfwidth, halfwidth, 512), 512, 0.0)
    d = sfield.derivative(z)
    idx = np.nonzero((d[:-1] > 0.0) & (d[1:] <= 0.0))[0]
    if idx.size == 0:
        raise ValueError("no descending zero of dS/dz inside the window")
    return bisect_decreasing(sfield.derivative, float(z[idx[0]]), float(z[idx[0] + 1]), rtol=0.0)


def _n_system(
    rho_vals: np.ndarray, params: ChemParams, c: float, h: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The nutrient two-point problem as ``solve_tridiagonal``'s arguments (dl, d, du, b)."""
    n = rho_vals.size
    d = params.d_n
    main = np.zeros(n)
    sub = np.zeros(n)    # entry i couples row i to i-1
    sup = np.zeros(n)    # entry i couples row i to i+1
    rhs = np.zeros(n)

    # Written as D N'' + c N' - gamma rho N = 0.  Central first derivative is
    # second order; if the cell Peclet number exceeds 2 the forward difference
    # keeps the off-diagonals nonnegative (discrete maximum principle).
    upwind = c * h / d > 2.0
    inv_h2 = 1.0 / (h * h)
    if upwind:
        sub[1:-1] = d * inv_h2
        sup[1:-1] = d * inv_h2 + c / h
        main[1:-1] = -2.0 * d * inv_h2 - c / h - params.gamma * rho_vals[1:-1]
    else:
        sub[1:-1] = d * inv_h2 - c / (2.0 * h)
        sup[1:-1] = d * inv_h2 + c / (2.0 * h)
        main[1:-1] = -2.0 * d * inv_h2 - params.gamma * rho_vals[1:-1]

    # z = -L: zero-derivative condition through a ghost node (N_{-1} = N_1).
    main[0] = -2.0 * d * inv_h2 - params.gamma * rho_vals[0]
    sup[0] = 2.0 * d * inv_h2
    # z = +L: the limit N_+ enters through the integrated far-field relation
    # D N' + c N = c N_+ (the density tail beyond L is negligible), folded
    # into the PDE row via a ghost node.  A plain Dirichlet value here would
    # carry an O(exp(-c L / D)) truncation error, far above the tail scale.
    sub[-1] = 2.0 * d * inv_h2
    main[-1] = -2.0 * d * inv_h2 - 2.0 * c / h - c * c / d - params.gamma * rho_vals[-1]
    rhs[-1] = -(2.0 * c / h + c * c / d)  # N_+ = 1

    return sub[1:], main, sup[:-1], rhs


def solve_tridiagonal(dl: np.ndarray, d: np.ndarray, du: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = ``b`` for the tridiagonal A with sub-, main and superdiagonal ``dl``, ``d``, ``du``.

    The arguments of LAPACK ``dgtsv`` for one right-hand side, and a
    line-for-line port of reference ``dgtsv``: Gaussian elimination with
    partial pivoting, the same operations in the same order, so x has the
    bits of ``scipy.linalg.lapack.dgtsv``.  A Python loop costs about 3 ms
    at 4097 nodes, which one nutrient solve per profile can pay; the
    simulation, which solves twice per step for thousands of steps, keeps
    LAPACK (``cauchy_sim._diffusion_solver``).
    """
    if not all(np.isfinite(x).all() for x in (dl, d, du, b)):
        raise ValueError("array must not contain infs or NaNs")
    dl, d, du, b = dl.tolist(), d.tolist(), du.tolist(), b.tolist()
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):  # no row interchange
            if d[i] == 0.0:
                raise np.linalg.LinAlgError("singular matrix")
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            b[i + 1] = b[i + 1] - fact * b[i]
            dl[i] = 0.0
        else:  # interchange rows i and i + 1
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            temp = b[i]
            b[i] = b[i + 1]
            b[i + 1] = temp - fact * b[i + 1]
    if d[n - 1] == 0.0:
        raise np.linalg.LinAlgError("singular matrix")

    # back substitution with the upper factor (diagonal d, superdiagonals du, dl)
    b[n - 1] = b[n - 1] / d[n - 1]
    if n > 1:
        b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return np.array(b)


def solve_N(
    rho: PiecewiseExponential,
    params: ChemParams,
    c: float,
    domain_halfwidth: float,
    cells: int = 4096,
) -> NField:
    """Finite-difference solve of -c N' - D_N N'' + gamma rho N = 0 on ``cells + 1`` nodes.

    Boundary conditions: N'(-L) = 0 (flat left tail) and the far-field limit
    N(+inf) = N_+ = 1 through the integrated relation D N' + c N = c N_+ at
    +L.  The equation is linear in N, so N_+ = 1 is a pure normalization.
    The profile must come out nondecreasing with N(-L) in [0, 1]; either
    failure raises ``NonMonotoneN``.

    For rho >= 0 one solve suffices: the profile is nondecreasing on every
    mesh.  An interior row of ``_n_system`` gives sup_i (N_{i+1} - N_i) =
    sub_i (N_i - N_{i-1}) + gamma rho_i N_i, and the ghost row at -L gives
    (2 D / h^2) (N_1 - N_0) = gamma rho_0 N_0.  The Peclet switch keeps
    sub_i >= 0, so -A is an M-matrix with a right-hand side <= 0: N >= 0,
    and by induction every increment is >= 0 in exact arithmetic.  The
    exact N(-L) is > 0: N_0 = 0 would make every increment, and so all of
    N, vanish by the same rows, against the nonzero right-hand side at +L;
    so a computed N(-L) of 0.0 or -0.0 is the underflow of a positive level.
    """
    if not c > 0.0:
        raise at_speed(NonPositiveSpeed("nutrient solve requires c > 0"), c)

    grid = np.linspace(-domain_halfwidth, domain_halfwidth, cells + 1)
    rho_vals = np.asarray(rho(grid), dtype=float)
    values = solve_tridiagonal(*_n_system(rho_vals, params, c, grid[1] - grid[0]))
    if not np.all(np.diff(values) >= -N_MONOTONE_TOL * np.max(np.abs(values))):
        raise NonMonotoneN(f"nutrient profile not monotone on {cells} cells")
    n_minus = float(values[0])
    # n_minus == 1 only in the consumption-free limit
    if not (0.0 <= n_minus <= 1.0 + N_MONOTONE_TOL):
        raise NonMonotoneN(f"far-field level {n_minus!r} outside [0, 1.0]")
    return NField(grid=grid, values=values, n_minus=n_minus)
