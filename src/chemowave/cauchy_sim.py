"""Finite-volume simulation of the full coupled kinetic/reaction-diffusion system.

Baseline splitting scheme on a closed interval: first-order upwind transport
of every velocity component with specular wall reflection, explicit tumbling
exchange with signed temporal-sensing rates, then semi-implicit updates of
the two chemical fields (diffusion implicit, reaction explicit, homogeneous
Neumann walls).  The transport step is conservative in flux form and the
exchange conserves mass cell by cell, so the total cell mass is constant up
to roundoff accumulation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded
from scipy.signal import find_peaks

from .chemo_fields import ChemParams
from .errors import CFLViolation, InsufficientSamples, NegativeDensity
from .velocity_model import VelocityModel

logger = logging.getLogger(__name__)

_NEGATIVE_TOL = 1e-12  # relative slack before declaring a density negative
SIGN_DEADZONE = 1e-12  # sign arguments this small relative to their largest |value| count as 0
FIT_WINDOW_FRACTION = 0.5  # trailing share of the peak track fitted for the front speed
PEAK_PROMINENCE_FRACTION = 0.05  # peak prominence, as a fraction of the final rho range


@dataclass(frozen=True)
class InitialDensity:
    """Shape descriptor for the initial cell density.

    kind "block": uniform on [center - width/2, center + width/2];
    kind "gaussian": exp(-(x - center)^2 / (2 width^2)).  Either way the
    discrete mass is normalized to ``mass`` exactly.
    """

    kind: str = "block"
    center: float | None = None
    width: float | None = None
    mass: float = 1.0

    def __post_init__(self):
        if self.kind not in ("block", "gaussian"):
            raise ValueError(f"initial density kind must be 'block' or 'gaussian', got {self.kind!r}")
        if self.mass <= 0.0:
            raise ValueError("initial mass must be positive")


@dataclass(frozen=True)
class SimConfig:
    """Complete description of one Cauchy run."""

    model: VelocityModel
    params: ChemParams
    domain_length: float
    cells: int
    cfl: float
    t_end: float
    initial_rho: InitialDensity = field(default_factory=InitialDensity)
    initial_n: float = 1.0
    snapshot_interval: float | None = None
    keep_velocity_snapshots: bool = False

    def __post_init__(self):
        if self.domain_length <= 0.0:
            raise ValueError("domain_length must be positive")
        if self.cells < 64:
            raise ValueError("cells must be at least 64")
        if not (0.0 < self.cfl < 1.0):
            raise ValueError("cfl must lie strictly inside (0, 1)")
        if self.t_end <= 0.0:
            raise ValueError("t_end must be positive")
        if self.initial_n <= 0.0:
            raise ValueError("initial_n must be positive")
        if self.snapshot_interval is not None and not self.snapshot_interval > 0.0:
            raise ValueError("snapshot_interval must be positive")

    @property
    def dx(self) -> float:
        return self.domain_length / self.cells

    def default_dt(self) -> float:
        """cfl * dx / max|v|, additionally capped for the tumbling exchange."""
        v_max = float(np.max(np.abs(self.model.velocities)))
        return min(self.cfl * self.dx / v_max, 0.5 / self.model.rates.max_rate)


@dataclass(frozen=True)
class SimState:
    """Fields at one time level.

    ``ds_dt`` / ``dn_dt`` hold the previous step's field differences, used by
    the temporal-sensing tumbling rates of the next step.
    """

    t: float
    f: np.ndarray        # (n_velocities, cells)
    s: np.ndarray        # (cells,)
    n: np.ndarray        # (cells,)
    ds_dt: np.ndarray
    dn_dt: np.ndarray


@dataclass(frozen=True)
class Snapshot:
    t: float
    x: np.ndarray
    rho: np.ndarray
    s: np.ndarray
    n: np.ndarray
    f: np.ndarray | None = None


@dataclass(frozen=True)
class FrontDiagnostics:
    """Peak trajectory and its late-time linear fit."""

    peak_track: np.ndarray     # (n_samples, 2) columns (t, x_peak)
    fitted_speed: float
    fit_residual: float
    n_components: int


def cell_centers(config: SimConfig) -> np.ndarray:
    return (np.arange(config.cells) + 0.5) * config.dx


def initial_state(config: SimConfig) -> SimState:
    """Build the t = 0 state: density block/bump on the left, S = 0, N uniform."""
    x = cell_centers(config)
    init = config.initial_rho
    center = init.center if init.center is not None else 0.05 * config.domain_length
    width = init.width if init.width is not None else 0.1 * config.domain_length
    if init.kind == "block":
        shape = ((x >= center - 0.5 * width) & (x < center + 0.5 * width)).astype(float)
    else:
        shape = np.exp(-0.5 * ((x - center) / width) ** 2)
    total = float(np.sum(shape) * config.dx)
    if total <= 0.0:
        raise ValueError("initial density has no support inside the domain")
    rho0 = shape * (init.mass / total)
    # Isotropic split: every velocity starts at the local spatial density.
    f = np.tile(rho0, (config.model.n_active, 1))
    zeros = np.zeros_like(x)
    return SimState(
        t=0.0,
        f=f,
        s=zeros.copy(),
        n=np.full_like(x, config.initial_n),
        ds_dt=zeros.copy(),
        dn_dt=zeros.copy(),
    )


def total_mass(config: SimConfig, state: SimState) -> float:
    return float(np.sum(config.model.weights @ state.f) * config.dx)


def _sign_with_deadzone(x: np.ndarray) -> np.ndarray:
    scale = float(np.max(np.abs(x))) if x.size else 0.0
    if scale == 0.0:
        return np.zeros_like(x)
    out = np.sign(x)
    out[np.abs(x) <= SIGN_DEADZONE * scale] = 0.0
    return out


def _transport(f: np.ndarray, v: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """One upwind transport step of every velocity row; nu = |v| * dt / dx.

    Walls reflect specularly: the inflow value for +v at the left wall is the
    cell-0 value of the mirrored velocity -v (row ``f[::-1]``, since the set
    is sorted and symmetric), and symmetrically on the right.  Zero-velocity
    rows have nu = 0 and keep their values.
    """
    upwind = f.copy()
    right = v > 0.0
    left = v < 0.0
    upwind[right, 1:] = f[right, :-1]
    upwind[right, 0] = f[::-1, 0][right]
    upwind[left, :-1] = f[left, 1:]
    upwind[left, -1] = f[::-1, -1][left]
    return f - nu[:, None] * (f - upwind)


def _implicit_diffusion_matrix(n_cells: int, r: float) -> np.ndarray:
    """Banded (I - r * Laplacian) with no-flux walls, for solve_banded."""
    ab = np.zeros((3, n_cells))
    ab[1, :] = 1.0 + 2.0 * r
    ab[1, 0] = ab[1, -1] = 1.0 + r
    ab[0, 1:] = -r
    ab[2, :-1] = -r
    return ab


def step(state: SimState, config: SimConfig, dt: float | None = None) -> SimState:
    """Advance the coupled system by one split step.

    Order: (1) upwind transport, (2) explicit tumbling exchange with rates
    1 - chi_s sign(dS/dt + v dS/dx) - chi_n sign(dN/dt + v dN/dx) using the
    previous step's temporal differences, (3) semi-implicit chemical updates
    driven by the new density.
    """
    model = config.model
    dx = config.dx
    if dt is None:
        dt = config.default_dt()
    v = model.velocities
    v_max = float(np.max(np.abs(v)))
    if v_max * dt / dx > config.cfl * (1.0 + 1e-12):
        raise CFLViolation(f"dt={dt!r} violates the transport CFL bound {config.cfl!r}")
    if dt * model.rates.max_rate > 1.0:
        raise CFLViolation(f"dt={dt!r} violates the tumbling bound dt*maxT <= 1")

    f = _transport(state.f, v, np.abs(v) * dt / dx)

    grad_s = np.gradient(state.s, dx)
    grad_n = np.gradient(state.n, dx)
    arg_s = state.ds_dt[None, :] + v[:, None] * grad_s[None, :]
    arg_n = state.dn_dt[None, :] + v[:, None] * grad_n[None, :]
    rates = (
        1.0
        - model.chi_s * _sign_with_deadzone(arg_s)
        - model.chi_n * _sign_with_deadzone(arg_n)
    )
    event_density = (model.weights[:, None] * rates * f).sum(axis=0)
    f = f + dt * (event_density[None, :] - rates * f)

    if np.min(f) < -_NEGATIVE_TOL * max(float(np.max(f)), 1.0):
        raise NegativeDensity(f"negative cell density after the exchange at t={state.t!r}")
    np.maximum(f, 0.0, out=f)

    rho = model.weights @ f
    p = config.params
    rhs_s = state.s + dt * (-p.alpha * state.s + p.beta * rho)
    s_new = solve_banded((1, 1), _implicit_diffusion_matrix(config.cells, dt * p.d_s / dx**2), rhs_s)
    rhs_n = state.n * (1.0 - dt * p.gamma * rho)
    n_new = solve_banded((1, 1), _implicit_diffusion_matrix(config.cells, dt * p.d_n / dx**2), rhs_n)
    if np.min(n_new) < -_NEGATIVE_TOL * config.initial_n or np.min(s_new) < -_NEGATIVE_TOL * max(
        float(np.max(s_new)), 1.0
    ):
        raise NegativeDensity(f"negative chemical field at t={state.t!r}")

    return SimState(
        t=state.t + dt,
        f=f,
        s=s_new,
        n=n_new,
        ds_dt=(s_new - state.s) / dt,
        dn_dt=(n_new - state.n) / dt,
    )


def run(config: SimConfig) -> tuple[SimState, FrontDiagnostics, list[Snapshot]]:
    """Integrate to t_end, recording snapshots and the density-peak track.

    If the exchange ever produces a negative density the step size is halved
    once and the run continues; a second occurrence propagates the error.
    """
    x = cell_centers(config)
    state = initial_state(config)
    dt = config.default_dt()
    snap_dt = config.snapshot_interval or config.t_end / 100.0
    halved = False

    def snap(st: SimState) -> Snapshot:
        rho = config.model.weights @ st.f
        return Snapshot(
            t=st.t,
            x=x,
            rho=rho,
            s=st.s.copy(),
            n=st.n.copy(),
            f=st.f.copy() if config.keep_velocity_snapshots else None,
        )

    snapshots = [snap(state)]
    next_snap = snap_dt

    while state.t < config.t_end * (1.0 - 1e-12):
        dt_step = min(dt, config.t_end - state.t)
        try:
            state = step(state, config, dt_step)
        except NegativeDensity as exc:
            if halved:
                raise
            halved = True
            logger.warning("%s; halving dt from %r to %r for the rest of the run", exc, dt, 0.5 * dt)
            dt *= 0.5
            continue
        if state.t >= next_snap * (1.0 - 1e-12) or state.t >= config.t_end * (1.0 - 1e-12):
            snapshots.append(snap(state))
            while next_snap <= state.t * (1.0 + 1e-12):
                next_snap += snap_dt

    rho_final = snapshots[-1].rho
    prominence = PEAK_PROMINENCE_FRACTION * (float(np.max(rho_final)) - float(np.min(rho_final)))
    peaks, _props = find_peaks(rho_final, prominence=max(prominence, np.finfo(float).tiny))
    peak_track = np.array([(s.t, float(x[int(np.argmax(s.rho))])) for s in snapshots])
    try:
        speed, residual = measure_front_speed(peak_track, FIT_WINDOW_FRACTION)
    except InsufficientSamples:
        logger.warning("too few snapshots for a front-speed fit; diagnostics carry NaN")
        speed, residual = float("nan"), float("nan")
    diagnostics = FrontDiagnostics(
        peak_track=peak_track,
        fitted_speed=speed,
        fit_residual=residual,
        n_components=int(peaks.size),
    )
    return state, diagnostics, snapshots


def measure_front_speed(
    peak_track: np.ndarray, window_fraction: float
) -> tuple[float, float]:
    """Least-squares speed of the peak over the trailing window of samples.

    Returns (speed, rms residual of the linear fit).
    """
    track = np.asarray(peak_track, dtype=float)
    if track.ndim != 2 or track.shape[1] != 2:
        raise ValueError("peak_track must be an (n, 2) array of (t, x) pairs")
    if not (0.0 < window_fraction <= 1.0):
        raise ValueError("window_fraction must lie in (0, 1]")
    n_window = int(np.ceil(window_fraction * track.shape[0]))
    if n_window < 10:
        raise InsufficientSamples(
            f"need at least 10 samples in the fitting window, have {n_window}"
        )
    t = track[-n_window:, 0]
    xp = track[-n_window:, 1]
    slope, intercept = np.polyfit(t, xp, 1)
    rms = float(np.sqrt(np.mean((xp - (slope * t + intercept)) ** 2)))
    return float(slope), rms
