"""Stationary kinetic density as a Case-mode superposition.

On each side of the origin the density is an exponential sum

    f(z, v_k) = sum_j  x_j * exp(-lambda_j z) / (T(v_k - c) - lambda_j (v_k - c)),

with the left sum over the negative exponents (coefficients a_j) and the
right sum over the positive ones (coefficients b_j).  Identifying the two
expansions at z = 0 gives a square homogeneous system whose transpose is
annihilated by the row vector (w_k (v_k - c)); the one remaining degree of
freedom is fixed by normalizing the total mass of rho to one.

On each half-line a row of f is an exponential sum in |z| with positive
rates, so Descartes' rule of signs for exponential sums (Polya & Szego,
Problems and Theorems in Analysis II, Part V, problem 77) bounds its zeros
by the sign changes of its coefficients ordered by rate; that proves most
rows positive without evaluating them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dispersion import DispersionRoots, solve_roots
from .errors import NonPositiveProfile, NullSpaceDimensionError, at_speed, raise_first
from .velocity_model import VelocityModel, side_rates

logger = logging.getLogger(__name__)

MATCHING_REL_TOL = 1e-10
MASS_TOL = 1e-12
GRID_INNER = 1e-6        # delta_z of the verification grid
GRID_DECADES = 40.0      # grid spans [delta_z, GRID_DECADES / slowest rate]
GRID_POINTS_PER_SIDE = 2048  # verification grid and S' sign-change count, per half-line
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _exp_sum(z: np.ndarray, left_coef, left_rates, right_coef, right_rates) -> np.ndarray:
    """sum_j coef_j exp(rate_j z) for z < 0 and sum_j coef_j exp(-rate_j z) for z >= 0.

    ``z`` is 1-d and the rates positive; a trailing axis of the coefficients
    is kept in the result, whose shape is ``z.shape + left_coef.shape[1:]``.
    Far in the tails ``np.exp`` underflows to 0; numpy ignores underflow by default.
    """
    out = np.zeros(z.shape + left_coef.shape[1:])
    neg = z < 0.0
    for side, coef, exponents in ((neg, left_coef, left_rates), (~neg, right_coef, -right_rates)):
        out[side] = np.exp(z[side, None] * exponents[None, :]) @ coef
    return out


@dataclass(frozen=True)
class PiecewiseExponential:
    """Exponential sum decaying on both half-lines.

    Left terms evaluate as coef * exp(+rate * z) for z <= 0 and right terms
    as coef * exp(-rate * z) for z >= 0; all rates are strictly positive so
    the value tends to 0 as |z| grows.
    """

    left_coefficients: np.ndarray
    left_rates: np.ndarray
    right_coefficients: np.ndarray
    right_rates: np.ndarray

    def __post_init__(self):
        for name in ("left_coefficients", "left_rates", "right_coefficients", "right_rates"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if (self.left_rates <= 0.0).any() or (self.right_rates <= 0.0).any():
            raise ValueError("piecewise-exponential rates must be strictly positive")
        if self.left_coefficients.shape != self.left_rates.shape:
            raise ValueError("left coefficient/rate arrays must have equal shapes")
        if self.right_coefficients.shape != self.right_rates.shape:
            raise ValueError("right coefficient/rate arrays must have equal shapes")

    def _eval(self, z: float | np.ndarray, order: int) -> float | np.ndarray:
        """The order-th derivative in z (order 0 is the value itself)."""
        left = self.left_coefficients * self.left_rates**order
        right = (-1.0) ** order * (self.right_coefficients * self.right_rates**order)
        z_arr = np.atleast_1d(np.asarray(z, dtype=float))
        out = _exp_sum(z_arr, left, self.left_rates, right, self.right_rates)
        return out if np.ndim(z) else float(out[0])

    def __call__(self, z: float | np.ndarray) -> float | np.ndarray:
        return self._eval(z, 0)

    def derivative(self, z: float | np.ndarray) -> float | np.ndarray:
        return self._eval(z, 1)

    def second_derivative(self, z: float | np.ndarray) -> float | np.ndarray:
        return self._eval(z, 2)


@dataclass(frozen=True)
class WaveProfile:
    """Solved stationary density at one admissible wave speed, or at a stack of speeds.

    A stack (``solve_modes`` on an array of speeds) has ``c`` that array, a
    stacked ``roots`` and a leading axis of speeds on every array and mass;
    :meth:`speed` takes one speed out.  The evaluators take one speed.
    """

    model: VelocityModel
    c: float | np.ndarray
    roots: DispersionRoots
    a: np.ndarray                 # left-mode coefficients, one per negative root
    b: np.ndarray                 # right-mode coefficients, one per positive root
    left_mass: float
    right_mass: float
    # cached kinematics (derived, kept for fast evaluation)
    denom_left: np.ndarray = field(repr=False)    # (n, m)
    denom_right: np.ndarray = field(repr=False)   # (n, p)
    f_at_zero: np.ndarray = field(repr=False)     # (n,)

    @property
    def velocities(self) -> np.ndarray:
        return self.model.velocities

    def speed(self, i: int) -> WaveProfile:
        """The profile at speed ``c[i]`` of a stack; a one-speed profile is its own speed 0."""
        if np.ndim(self.c) == 0:
            return self
        return WaveProfile(
            model=self.model,
            c=float(self.c[i]),
            roots=self.roots.speed(i),
            a=self.a[i],
            b=self.b[i],
            left_mass=float(self.left_mass[i]),
            right_mass=float(self.right_mass[i]),
            denom_left=self.denom_left[i],
            denom_right=self.denom_right[i],
            f_at_zero=self.f_at_zero[i],
        )

    @property
    def halfwidth(self) -> float:
        """Half-width of a window holding both tails down to exp(-GRID_DECADES)."""
        return GRID_DECADES / min(self.roots.slowest_positive, self.roots.slowest_negative)

    def _weighted_modes(self, w: np.ndarray) -> PiecewiseExponential:
        """sum_k w_k f(z, v_k) as a piecewise-exponential sum."""
        return PiecewiseExponential(
            left_coefficients=self.a * (w @ (1.0 / self.denom_left)),
            left_rates=-self.roots.negative_roots,
            right_coefficients=self.b * (w @ (1.0 / self.denom_right)),
            right_rates=self.roots.positive_roots,
        )

    def rho_modes(self) -> PiecewiseExponential:
        """Spatial density rho(z) as a piecewise-exponential sum."""
        return self._weighted_modes(self.model.weights)

    @cached_property
    def _partial_rho(self) -> tuple[PiecewiseExponential, PiecewiseExponential]:
        w, v = self.model.weights, self.velocities
        return self._weighted_modes(w * (v < self.c)), self._weighted_modes(w * (v > self.c))

    def partial_rho_modes(self, relative_sign: int) -> PiecewiseExponential:
        """rho restricted to velocities with sign(v - c) = relative_sign."""
        return self._partial_rho[relative_sign > 0]


def per_mode_mass(model: VelocityModel, c: float, lam: float, side: str) -> float:
    """Integral over its half-line of the rho contribution of one mode.

    For a left mode (lam < 0) this is (-1/lam) * sum_k w_k / (T_-(v_k-c) - lam (v_k-c));
    for a right mode (1/lam) * sum_k w_k / (T_+(v_k-c) - lam (v_k-c)).
    """
    if lam == 0.0:
        raise ValueError("per-mode mass undefined for the trivial exponent 0")
    T = side_rates(model, c, side)
    s = float(np.sum(model.weights / (T - lam * (model.velocities - c))))
    return -s / lam if side == "left" else s / lam


def solve_modes(model: VelocityModel, c: float | np.ndarray) -> WaveProfile:
    """Solve the matching problem at z = 0 and return the unit-mass profile.

    The matching matrix has a known left null vector (w_k (v_k - c)); its row
    with the largest such component is replaced by the unit-mass equation and
    the square system solved directly.  The replaced equation and the full
    matching identity are verified afterwards, and the profile is checked to
    be strictly positive by ``check_positivity``.  A row certified by
    Descartes' rule of signs is proved positive for every z, which is
    stricter than the verification grid's samples on [1e-6, GRID_DECADES /
    slowest rate]; a row the certificate refuses is still checked on that
    grid, unchanged.

    ``c`` may also be a 1-d array of speeds inside one continuity interval.
    A scalar is solved as a stack of one speed, with the one matching solve:
    every step and check runs once over the stack (see ``solve_roots``), and
    a stack's values match their one-speed calls bit for bit.
    """
    speeds = np.atleast_1d(np.asarray(c, dtype=float))
    roots = solve_roots(model, speeds)
    negative = roots.negative_roots
    positive = roots.positive_roots
    v = model.velocities
    w = model.weights
    dv = v - speeds[:, None]
    m = negative.shape[1]
    stack = np.arange(speeds.size)

    # one cutting index per stack, so one set of side rates
    denom_left = side_rates(model, speeds[0], "left")[:, None] - negative[:, None, :] * dv[:, :, None]
    denom_right = side_rates(model, speeds[0], "right")[:, None] - positive[:, None, :] * dv[:, :, None]
    inv_left = 1.0 / denom_left
    inv_right = 1.0 / denom_right
    matching = np.concatenate([inv_left, -inv_right], axis=2)

    # per_mode_mass of every root at once
    mass_row = np.concatenate([-(w @ inv_left) / negative, (w @ inv_right) / positive], axis=1)
    k_star = np.argmax(np.abs(w * dv), axis=1)
    system = matching.copy()
    system[stack, k_star, :] = mass_row
    rhs = np.zeros((speeds.size, model.n_active))
    rhs[stack, k_star] = 1.0
    try:  # numpy reads a 2-d right-hand side as a matrix, so each speed's is a column
        x = np.linalg.solve(system, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError as exc:
        # slogdet runs the same LU, so it finds the speed whose zero pivot stopped the solve
        singular = np.linalg.slogdet(system)[1] == -np.inf
        raise_first(
            singular if singular.any() else stack == 0,
            speeds,
            lambda i: NullSpaceDimensionError(f"matching system singular: {exc}"),
        )

    a = x[:, :m]
    b = x[:, m:]
    f0 = (inv_right @ b[:, :, None])[:, :, 0]

    # Replaced-equation residual: the solution must still satisfy the row we
    # dropped, otherwise the null space was not one-dimensional.
    replaced = matching[stack, k_star, :]
    dropped = np.vecdot(replaced, x)
    dropped_scale = np.abs(replaced * x).sum(axis=1)
    raise_first(
        np.abs(dropped) > MATCHING_REL_TOL * np.maximum(dropped_scale, _TINY),
        speeds,
        lambda i: NullSpaceDimensionError(f"replaced matching equation violated: residual {float(dropped[i])!r}"),
    )
    mismatch = np.abs((matching @ x[:, :, None])[:, :, 0]).max(axis=1)
    raise_first(
        mismatch > MATCHING_REL_TOL * np.abs(f0).max(axis=1),
        speeds,
        lambda i: NullSpaceDimensionError(f"left/right expansions disagree at z=0: max mismatch {float(mismatch[i])!r}"),
    )

    left_mass = np.vecdot(a, mass_row[:, :m])
    right_mass = np.vecdot(b, mass_row[:, m:])
    raise_first(
        np.abs(left_mass + right_mass - 1.0) > MASS_TOL,
        speeds,
        lambda i: NullSpaceDimensionError(
            f"normalized masses sum to {float(left_mass[i]) + float(right_mass[i])!r} instead of 1"
        ),
    )

    profile = WaveProfile(
        model=model,
        c=speeds,
        roots=roots,
        a=a,
        b=b,
        left_mass=left_mass,
        right_mass=right_mass,
        denom_left=denom_left,
        denom_right=denom_right,
        f_at_zero=f0,
    )
    if np.ndim(c) == 0:
        profile = profile.speed(0)
    check_positivity(profile)
    return profile


def descartes_positive(coefficients: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Rows proved positive on t >= 0 by Descartes' rule of signs for exponential sums.

    Row k is ``sum_j coefficients[k, j] * exp(-rates[j] t)`` with positive
    rates in ascending order.  Such a sum has at most as many real zeros
    (with multiplicity) as its coefficients have sign changes.  A row is
    certified when its rates are strictly ascending, its coefficients finite
    and nonzero with at most one sign change, and both the slowest
    coefficient and the value at t = 0 are positive: its one possible zero
    then lies at t < 0, and the sum stays above
    ``min(value at 0, slowest coefficient) * exp(-slowest rate * t)``.  Both
    must also clear the rounding error of an evaluated sum, about
    (terms + GRID_DECADES) ulps of sum |coefficient| wherever the slowest
    rate times t stays within GRID_DECADES, so that the grid's floating-point
    values are positive too.  Returns one bool per row.  Leading axes of
    speeds, (speeds, rows, terms) with rates (speeds, terms), give one bool
    per speed and row.
    """
    terms = coefficients.shape[-1]
    if terms == 0:
        return np.zeros(coefficients.shape[:-1], dtype=bool)
    ascending = (rates[..., 1:] > rates[..., :-1]).all(axis=-1)
    negative = coefficients < 0.0  # slowest one positive: one sign change at most is no positive after a negative
    with np.errstate(invalid="ignore"):  # inf - inf in a row already refused as non-finite
        margin = (terms + GRID_DECADES) * _EPS * np.abs(coefficients).sum(axis=-1)
        return (
            ascending[..., None]
            & (np.isfinite(coefficients) & (coefficients != 0.0)).all(axis=-1)
            & (negative[..., :-1] <= negative[..., 1:]).all(axis=-1)
            & (coefficients[..., 0] > margin)
            & (coefficients.sum(axis=-1) > margin)
        )


def certified_rows(profile: WaveProfile) -> np.ndarray:
    """Velocities k whose f(z, v_k) ``descartes_positive`` proves positive on both half-lines.

    The solve returns each side's roots ascending, so the left side's rates
    -negative_roots are taken reversed.  On a stack, one row of bools per speed.
    """
    roots = profile.roots
    return descartes_positive(
        profile.a[..., None, ::-1] / profile.denom_left[..., ::-1], -roots.negative_roots[..., ::-1]
    ) & descartes_positive(profile.b[..., None, :] / profile.denom_right, roots.positive_roots)


def check_positivity(profile: WaveProfile) -> None:
    """Raise NonPositiveProfile unless every f(z, v_k) is strictly positive.

    Rows that ``certified_rows`` proves positive hold for every z, including
    z = 0 and the far tails, which is stricter than any sample.  The other
    rows must be finite and positive at z = 0 (``f_at_zero``) and on the
    verification grid, which starts at |z| = GRID_INNER.  On a stack the
    grid runs only for the speeds with a refused row, one speed at a time.
    """
    certified = certified_rows(profile)
    if certified.all():
        return
    certified = np.atleast_2d(certified)
    for i in np.flatnonzero(~certified.all(axis=1)):
        one = profile.speed(i)
        refused = ~certified[i]
        logger.debug(
            "positivity grid checks %d of %d rows at c=%r",
            np.count_nonzero(refused), refused.size, one.c,
        )
        values = np.vstack([one.f_at_zero, evaluate_f_matrix(one, verification_grid(one))])[:, refused]
        if not np.all(np.isfinite(values)) or np.min(values) <= 0.0:
            raise at_speed(NonPositiveProfile("profile not strictly positive on the verification grid"), one.c)


def two_sided_grid(inner: float, left: float, right: float, points_per_side: int) -> np.ndarray:
    """Ascending logarithmic grid on [-left, -inner] and [inner, right]."""
    return np.concatenate(
        [-np.geomspace(inner, left, points_per_side)[::-1], np.geomspace(inner, right, points_per_side)]
    )


def verification_grid(profile: WaveProfile) -> np.ndarray:
    """Logarithmic two-sided grid spanning the matching layer and the tails."""
    roots = profile.roots
    return two_sided_grid(
        GRID_INNER, GRID_DECADES / roots.slowest_negative, GRID_DECADES / roots.slowest_positive, GRID_POINTS_PER_SIDE
    )


def evaluate_f_matrix(profile: WaveProfile, z: np.ndarray) -> np.ndarray:
    """f(z_i, v_k) for an array of z; returns shape (len(z), n_active)."""
    return _exp_sum(
        np.ravel(np.asarray(z, dtype=float)),
        profile.a[:, None] / profile.denom_left.T,
        -profile.roots.negative_roots,
        profile.b[:, None] / profile.denom_right.T,
        profile.roots.positive_roots,
    )


def evaluate_I(profile: WaveProfile, z: float | np.ndarray) -> float | np.ndarray:
    """Density of tumbling events I(z) = sum_k w_k T(z, v_k - c) f(z, v_k).

    Reconstructed from the side-split densities with the side-dependent
    rates; at z = 0 the right-side limit is returned (I jumps there).
    """
    r = profile.model.rates
    rho_minus = profile.partial_rho_modes(-1)
    rho_plus = profile.partial_rho_modes(+1)
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    out = np.empty_like(z_arr)
    neg = z_arr < 0.0
    out[neg] = r.t_mm * rho_minus(z_arr[neg]) + r.t_mp * rho_plus(z_arr[neg])
    pos = ~neg
    out[pos] = r.t_pm * rho_minus(z_arr[pos]) + r.t_pp * rho_plus(z_arr[pos])
    return out if np.ndim(z) else float(out[0])


def evaluate_I_derivative(profile: WaveProfile, z: float | np.ndarray) -> float | np.ndarray:
    """dI/dz away from the origin, from the mode expansion of I.

    Its mode coefficients are a and b: at every root the dispersion relation
    gives sum_k w_k T_k / (T_k - lambda_j (v_k - c)) = 1.
    """
    modes = PiecewiseExponential(
        profile.a, -profile.roots.negative_roots, profile.b, profile.roots.positive_roots
    )
    return modes.derivative(z)


def duhamel_f(profile: WaveProfile, z: float, k: int, quadrature_step: float = 1e-12) -> float:
    """Reconstruct f(z, v_k) by integrating I along the characteristic line.

    Independent numerical route (adaptive quadrature driven to the absolute
    and relative target ``quadrature_step``) used as an oracle for the mode
    expansion.  Works on either side of the origin.
    """
    from scipy.integrate import quad  # imported here: only this oracle integrates numerically

    z = float(z)
    if z == 0.0:
        return float(profile.f_at_zero[k])
    r = profile.model.rates
    dv = float(profile.velocities[k] - profile.c)

    def integral(rate: float, s_max: float) -> float:
        val, _err = quad(
            lambda s: evaluate_I(profile, z - s * dv) * np.exp(-s * rate),
            0.0,
            s_max,
            epsabs=quadrature_step,
            epsrel=quadrature_step,
            limit=400,
        )
        return val

    def from_origin(rate: float) -> float:
        s_max = z / dv
        return float(profile.f_at_zero[k]) * np.exp(-s_max * rate) + integral(rate, s_max)

    if z > 0.0:
        return integral(r.t_pm, np.inf) if dv < 0.0 else from_origin(r.t_pp)
    return integral(r.t_mp, np.inf) if dv > 0.0 else from_origin(r.t_mm)


def b_via_orthogonality(profile: WaveProfile, i: int) -> float:
    """Recover the right coefficient b_i from f(0, .) by orthogonality.

    Uses the positive-weight quotient obtained by combining the dual-mode
    pairing with the zero-flux identity; must reproduce the stored b_i.
    """
    w = profile.model.weights
    dv = profile.velocities - profile.c
    d = profile.denom_right[:, i]
    num = float(np.sum(w * profile.f_at_zero * dv**2 / d))
    den = float(np.sum(w * dv**2 / d**2))
    return num / den
