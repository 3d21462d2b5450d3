"""Chemoattractant and nutrient profiles driven by the cell density.

The chemoattractant S solves -c S' - D_S S'' + alpha S = beta rho.  Because
rho is a finite exponential sum, S is assembled in closed form: one explicit
particular term per rho mode plus the two decaying homogeneous exponentials,
fixed by C^1 matching at z = 0; its slope at the origin has a closed form of
its own.  The nutrient N solves the linear equation
-c N' - D_N N'' + gamma rho N = 0 on a truncated domain with N'(-L) = 0 and
N(+L) = 1 by finite differences: central (second order), or first-order
upwind in every interior row when the cell Peclet number c h / D_N exceeds 2.
The difference equations are solved by their own increment recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonMonotoneN, NonPositiveSpeed, ResonantMode, at_speed
from .velocity_model import bisect_decreasing
from .wave_profile import GRID_POINTS_PER_SIDE, PiecewiseExponential, two_sided_grid

RESONANCE_GUARD_REL = 1e-10
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

    ``n_minus`` is the left far-field level N(-L), in [0, 1]: 0.0 only where
    the level underflows, 1.0 only without consumption.
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
    return bisect_decreasing(sfield.derivative, float(z[idx[0]]), float(z[idx[0] + 1]))


def _nutrient_recurrence(rho_vals: np.ndarray, params: ChemParams, c: float, h: float) -> np.ndarray:
    """N on the grid from the rows' increment recurrence (``solve_N``'s docstring)."""
    d = params.d_n
    inv_h2 = 1.0 / (h * h)
    # Written as D N'' + c N' - gamma rho N = 0.  Central first derivative is
    # second order; if the cell Peclet number exceeds 2 the forward difference
    # keeps sub >= 0 (discrete maximum principle).
    if c * h / d > 2.0:
        sub, sup = d * inv_h2, d * inv_h2 + c / h
    else:
        sub, sup = d * inv_h2 - c / (2.0 * h), d * inv_h2 + c / (2.0 * h)
    consumption = params.gamma * rho_vals
    ratio = sub / sup
    ghost = 2.0 * d * inv_h2  # an end row's coupling, doubled by its ghost node
    # z = -L: zero-derivative condition through a ghost node (N_{-1} = N_1)
    growth = float(consumption[0]) / ghost
    factors = []  # N_i / N_{i+1} = 1 / (1 + g_i)
    for q in (consumption[1:-1] / sup).tolist():
        factor = 1.0 / (1.0 + growth)
        factors.append(factor)
        growth = ratio * (growth * factor) + q
    factor = 1.0 / (1.0 + growth)
    factors.append(factor)
    # z = +L: the limit N_+ = 1 enters through the integrated far-field
    # relation D N' + c N = c N_+ (the density tail beyond L is negligible),
    # folded into the PDE row via a ghost node.  A plain Dirichlet value here
    # would carry an O(exp(-c L / D)) truncation error, far above the tail scale.
    far = 2.0 * c / h + c * c / d
    factors.append(far / (ghost * (growth * factor) + (far + float(consumption[-1]))))
    return np.cumprod(factors[::-1])[::-1].copy()


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

    The rows are solved by their own recurrence, left to right.  An interior
    row gives sup_i (N_{i+1} - N_i) = sub_i (N_i - N_{i-1}) + gamma rho_i N_i,
    and the ghost row at -L gives (2 D / h^2) (N_1 - N_0) = gamma rho_0 N_0.
    So the growth g_i = (N_{i+1} - N_i) / N_i starts at
    g_0 = gamma rho_0 / (2 D / h^2) and obeys
    g_i = (sub_i / sup_i) g_{i-1} / (1 + g_{i-1}) + gamma rho_i / sup_i, and
    N_i = N_{i+1} / (1 + g_i).  The Peclet switch keeps sub_i >= 0 (and
    sup_i > 0).  The row at +L fixes the scale:
    N_n = a / ((2 D / h^2) g_{n-1} / (1 + g_{n-1}) + a + gamma rho_n) with
    a = 2 c / h + c^2 / D.  Where rho >= 0 on the grid, every g_i is built
    from nonnegative numbers, so in floating point each factor 1 / (1 + g_i)
    and N_n are at most 1: N is nondecreasing with 0 <= N(-L) <= 1 on every
    mesh and at any gamma, and gamma = 0 gives N = 1 exactly.  A level below
    the smallest double underflows to +0.0.  The checks are therefore exact:
    only a negative rho value can fail them.
    """
    if not c > 0.0:
        raise at_speed(NonPositiveSpeed("nutrient solve requires c > 0"), c)
    if cells < 1:
        raise ValueError(f"cells must be at least 1, got {cells!r}")

    grid = np.linspace(-domain_halfwidth, domain_halfwidth, cells + 1)
    rho_vals = np.asarray(rho(grid), dtype=float)
    values = _nutrient_recurrence(rho_vals, params, c, grid[1] - grid[0])
    if not np.all(np.diff(values) >= 0.0):
        raise NonMonotoneN(f"nutrient profile not monotone on {cells} cells")
    n_minus = float(values[0])
    if not (0.0 <= n_minus <= 1.0):
        raise NonMonotoneN(f"far-field level {n_minus!r} outside [0, 1.0]")
    return NField(grid=grid, values=values, n_minus=n_minus)
