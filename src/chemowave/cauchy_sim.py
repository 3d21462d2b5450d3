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

import importlib.machinery
import importlib.util
import logging
import math
import sys
import threading
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

from .chemo_fields import ChemParams
from .errors import CFLViolation, InsufficientSamples, NegativeDensity, NumericalError
from .velocity_model import VelocityModel

logger = logging.getLogger(__name__)

_NEGATIVE_TOL = 1e-12  # relative slack before declaring a density negative
SIGN_DEADZONE = 1e-12  # sign arguments this small relative to their largest |value| count as 0
FIT_WINDOW_FRACTION = 0.5  # trailing share of the peak track fitted for the front speed
PEAK_PROMINENCE_FRACTION = 0.05  # peak prominence, as a fraction of the final rho range
CFL = 0.45  # Courant number of the default step, and the bound step enforces on any dt


def _finite_positive(x: float) -> bool:
    return math.isfinite(x) and x > 0.0


@dataclass(frozen=True)
class InitialDensity:
    """The initial cell density: uniform on the cells whose centres lie in [0, 0.1 domain_length).

    The discrete mass is normalized to ``mass``, the unit mass of the
    construction's waves.  It is no setting: the step is linear in f and S
    and reads S and N only through signs with a relative deadzone, so a start
    of mass M is the unit-mass run with ``gamma * M``, rho and S scaled by M.
    """

    mass = 1.0


@dataclass(frozen=True)
class SimConfig:
    """Complete description of one Cauchy run."""

    model: VelocityModel
    params: ChemParams
    domain_length: float
    cells: int
    t_end: float
    snapshot_interval: float | None = None
    snapshot_f: bool = False  # keep each snapshot's velocity components

    initial_rho = InitialDensity()  # the one start; a class constant, not a field

    def __post_init__(self):
        # NaN fails every comparison and t_end = inf never ends, so "finite and > 0"
        for name in ("domain_length", "t_end"):
            if not _finite_positive(getattr(self, name)):
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)!r}")
        if self.cells < 64:
            raise ValueError("cells must be at least 64")
        if self.snapshot_interval is not None and not self.snapshot_interval > 0.0:
            raise ValueError("snapshot_interval must be positive")
        # each step's diffusion solves divide by dx**2, which must be a normal double, and
        # factor I - r * Laplacian at r = dt * d / dx**2, singular in doubles once 1 + 2r == 2r
        if not 2.0**-511 <= self.dx < 2.0**511:
            raise ValueError(
                f"cell width domain_length / cells = {self.dx!r} lies outside [2**-511, 2**511), "
                "where its square is a normal double"
            )
        r = self.default_dt() * max(self.params.d_s, self.params.d_n) / self.dx**2
        if 1.0 + 2.0 * r == 2.0 * r:
            raise ValueError(
                f"diffusion number dt * d / dx**2 = {r!r} makes the implicit diffusion matrix "
                "singular in double precision (1 + 2r rounds to 2r); use a coarser mesh"
            )

    @property
    def dx(self) -> float:
        return self.domain_length / self.cells

    def default_dt(self) -> float:
        """CFL * dx / max|v|, capped for the tumbling exchange and for S's explicit decay.

        ``s + dt (beta rho - alpha s)`` stays nonnegative only while dt alpha <= 1.
        """
        v_max = float(np.max(np.abs(self.model.velocities)))
        return min(CFL * self.dx / v_max, 0.5 / self.model.rates.max_rate, 1.0 / self.params.alpha)


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
    """Build the t = 0 state: density block on the left, S = 0, N = 1 (the construction's N_+).

    The block holds the cells whose centres (k + 1/2) dx lie in [0, 0.1 L),
    taken in integers, free of rounding: 10 k + 5 < cells.  That is the first
    (cells + 4) // 10 cells, at least 6 of the 64 or more that ``SimConfig``
    allows, so every start has mass to normalize.
    """
    block = (config.cells + 4) // 10
    rho0 = np.zeros(config.cells)
    rho0[:block] = config.initial_rho.mass / (block * config.dx)
    # Isotropic split: every velocity starts at the local spatial density.
    f = np.tile(rho0, (config.model.n_active, 1))
    zeros = np.zeros_like(rho0)
    return SimState(
        t=0.0,
        f=f,
        s=zeros.copy(),
        n=np.ones_like(rho0),
        ds_dt=zeros.copy(),
        dn_dt=zeros.copy(),
    )


def total_mass(config: SimConfig, state: SimState) -> float:
    return float(np.sum(config.model.weights @ state.f) * config.dx)


def _sign_with_deadzone(x: np.ndarray) -> np.ndarray:
    """sign(x) as int8, with |x| <= SIGN_DEADZONE * max|x| counted as 0."""
    thr = SIGN_DEADZONE * max(float(x.max()), -float(x.min()))
    return np.subtract((x > thr).view(np.int8), (x < -thr).view(np.int8))


def _transport(f: np.ndarray, v: np.ndarray, nu: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """One upwind transport step of every velocity row, in a new array; nu = |v| * dt / dx.

    ``diff``, an array of f's shape, receives f minus its upwind values.

    Walls reflect specularly: the inflow value for +v at the left wall is the
    cell-0 value of the mirrored velocity -v (row ``f[::-1]``, since the set
    is sorted and symmetric), and symmetrically on the right.  Zero-velocity
    rows have nu = 0 and keep their values.  Being sorted, the rows with
    v < 0, v == 0 and v > 0 are the slices [:neg], [neg:pos] and [pos:].
    """
    neg = int(np.searchsorted(v, 0.0, side="left"))
    pos = int(np.searchsorted(v, 0.0, side="right"))
    cells = f.shape[1]
    # the interior differences of a block of rows as one flat pass (numpy's
    # loop over a 2-d slice is about 4x slower); each row's wall cell is
    # overwritten with its mirrored inflow right after
    flat, dflat = f.reshape(-1), diff.reshape(-1)
    np.subtract(flat[: neg * cells - 1], flat[1 : neg * cells], out=dflat[: neg * cells - 1])
    np.subtract(f[:neg, -1], f[::-1, -1][:neg], out=diff[:neg, -1])
    diff[neg:pos] = 0.0
    np.subtract(flat[pos * cells + 1 :], flat[pos * cells : -1], out=dflat[pos * cells + 1 :])
    np.subtract(f[pos:, 0], f[::-1, 0][pos:], out=diff[pos:, 0])
    out = _scale_rows(nu, diff)
    return np.subtract(f, out, out=out)


def _gradient(u: np.ndarray, dx: float) -> np.ndarray:
    """np.gradient(u, dx) with its default first-order ends, without its set-up cost."""
    grad = np.empty_like(u)
    np.subtract(u[2:], u[:-2], out=grad[1:-1])
    grad[1:-1] /= 2.0 * dx
    grad[0] = (u[1] - u[0]) / dx
    grad[-1] = (u[-1] - u[-2]) / dx
    return grad


def _scale_rows(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a[:, None] * b (b of shape (cells,) or (len(a), cells)), one product per element.

    The same values as the broadcast product, at about half its cost on
    (18, 2048) arrays: numpy's broadcast loop over a column is slow.
    """
    return np.einsum("i,j->ij" if b.ndim == 1 else "i,ij->ij", a, b, out=out)


_FLAPACK = "scipy.linalg._flapack"
_flapack_lock = threading.Lock()


def _flapack():
    """scipy's compiled LAPACK wrapper ``scipy.linalg._flapack``, loaded without the ``scipy.linalg`` package.

    Importing a submodule runs its package first, and ``scipy.linalg``'s
    ``__init__`` loads some 330 modules (about 29 MB of resident memory) that
    the simulation never calls.  So this imports ``scipy`` alone (on Windows
    its start-up makes its DLLs findable), then loads the extension file from
    scipy's ``linalg`` directory under its own name.  A module already in
    ``sys.modules`` is reused, and a later ``import scipy.linalg`` finds and
    reuses this one: its ``from scipy.linalg import _flapack`` reads
    ``sys.modules``, though the package gets no ``_flapack`` attribute.
    """
    with _flapack_lock:
        module = sys.modules.get(_FLAPACK)
        if module is None:
            import scipy

            linalg = Path(scipy.__file__).parent / "linalg"
            paths = [linalg / f"_flapack{suffix}" for suffix in importlib.machinery.EXTENSION_SUFFIXES]
            path = next((p for p in paths if p.is_file()), None)
            if path is None:
                raise ImportError(f"no {_FLAPACK} extension in {linalg}", name=_FLAPACK)
            spec = importlib.util.spec_from_file_location(_FLAPACK, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[_FLAPACK] = module
        return module


@lru_cache(maxsize=8)
def _diffusion_solver(n_cells: int, r: float) -> partial:
    """LAPACK dgttrs bound to the LU factors (dgttrf) of I - r * Laplacian with no-flux walls.

    Called as ``solver(rhs, overwrite_b=True)``.  The nutrient profile's one
    solve per run uses ``chemo_fields.solve_tridiagonal``, a Python port of
    dgtsv, so that the construction needs no scipy; the simulation solves
    twice per step for thousands of steps, where that loop would double the
    step, so it keeps LAPACK and loads scipy's LAPACK extension (``_flapack``)
    on its first factorization.  A factorization that fails raises
    ``NumericalError``; ``SimConfig`` refuses the meshes known to cause one.
    """
    lapack = _flapack()
    diag = np.full(n_cells, 1.0 + 2.0 * r)
    diag[0] = diag[-1] = 1.0 + r
    dl, d, du, du2, ipiv, info = lapack.dgttrf(np.full(n_cells - 1, -r), diag, np.full(n_cells - 1, -r))
    if info != 0:
        raise NumericalError(f"diffusion matrix factorization (dgttrf) failed with info={info} for r={r!r}")
    for factor in (dl, d, du, du2, ipiv):
        factor.flags.writeable = False  # shared by every step with this dt
    return partial(lapack.dgttrs, dl, d, du, du2, ipiv)


def _solve_diffusion(r: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - r * Laplacian) x = rhs, overwriting rhs.

    The factors are computed once per (cells, r), that is once per distinct
    dt: the bits of x are those of solve_banded's gtsv, which factors and
    solves in one call.
    """
    return _diffusion_solver(rhs.size, r)(rhs, overwrite_b=True)[0]


_work = threading.local()  # each thread's step work arrays, so that two threads' runs never share them


def _work_arrays(shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three float arrays of ``shape`` for one step's intermediates, reused by this thread's next steps.

    With a fresh (18, 2048) array per intermediate and step, a step's memory
    depends on the allocator: when glibc hands the freed pages back to the
    system, the next step faults them in again.  Only the latest shape is
    kept; no step returns these arrays.
    """
    arrays = getattr(_work, "arrays", None)
    if arrays is None or arrays[0].shape != shape:
        arrays = _work.arrays = (np.empty(shape), np.empty(shape), np.empty(shape))
    return arrays


def step(state: SimState, config: SimConfig, dt: float | None = None) -> SimState:
    """Advance the coupled system by one split step.

    Order: (1) upwind transport, (2) explicit tumbling exchange with rates
    1 - chi_s sign(dS/dt + v dS/dx) - chi_n sign(dN/dt + v dN/dx) using the
    previous step's temporal differences, (3) semi-implicit chemical updates
    driven by the new density.  Stages (1) and (2) run in place on the new f
    and on three work arrays of its shape that this thread's steps reuse
    (``_work_arrays``); the input state is never written, and no returned
    array is a work array.
    """
    model = config.model
    dx = config.dx
    if dt is None:
        dt = config.default_dt()
    v = model.velocities
    v_max = float(np.max(np.abs(v)))
    if v_max * dt / dx > CFL * (1.0 + 1e-12):
        raise CFLViolation(f"dt={dt!r} violates the transport CFL bound {CFL!r}")
    if dt * model.rates.max_rate > 1.0:
        raise CFLViolation(f"dt={dt!r} violates the tumbling bound dt*maxT <= 1")

    diff, arg, rates = _work_arrays(state.f.shape)
    f = _transport(state.f, v, np.abs(v) * dt / dx, diff)

    # rates = 1 - chi_s * sign(dS/dt + v dS/dx) - chi_n * sign(dN/dt + v dN/dx)
    _scale_rows(v, _gradient(state.s, dx), out=arg)
    arg += state.ds_dt
    sign_s = _sign_with_deadzone(arg)
    _scale_rows(v, _gradient(state.n, dx), out=arg)
    arg += state.dn_dt
    sign_n = _sign_with_deadzone(arg)
    np.multiply(sign_s, model.chi_s, out=rates)
    np.subtract(1.0, rates, out=rates)
    np.multiply(sign_n, model.chi_n, out=arg)
    rates -= arg
    # f += dt * (event_density - rates * f), event_density = sum_k (w_k * rates_k) * f_k
    event_density = np.einsum("k,kj,kj->j", model.weights, rates, f)
    rates *= f
    np.subtract(event_density, rates, out=rates)
    rates *= dt
    f += rates

    f_min = float(f.min())
    if f_min < 0.0 and f_min < -_NEGATIVE_TOL * max(float(f.max()), 1.0):
        raise NegativeDensity(f"negative cell density after the exchange at t={state.t!r}")
    np.maximum(f, 0.0, out=f)

    rho = model.weights @ f
    p = config.params
    s_new = _solve_diffusion(dt * p.d_s / dx**2, state.s + dt * (-p.alpha * state.s + p.beta * rho))
    n_new = _solve_diffusion(dt * p.d_n / dx**2, state.n * (1.0 - dt * p.gamma * rho))
    # NaN fails every comparison and an overflowed S makes its slack -inf: refuse a non-finite
    # field first, for good.  rho >= 0 keeps N at or below its last maximum, so its min shows it.
    n_min = float(np.min(n_new))
    s_min, s_max = float(np.min(s_new)), float(np.max(s_new))
    if not (math.isfinite(s_min) and math.isfinite(s_max)):
        raise NumericalError(f"non-finite chemical field s at t={state.t!r}")
    if not math.isfinite(n_min):
        raise NumericalError(f"non-finite chemical field n at t={state.t!r}")
    if n_min < -_NEGATIVE_TOL or s_min < -_NEGATIVE_TOL * max(s_max, 1.0):
        raise NegativeDensity(f"negative chemical field at t={state.t!r}")

    return SimState(
        t=state.t + dt,
        f=f,
        s=s_new,
        n=n_new,
        ds_dt=(s_new - state.s) / dt,
        dn_dt=(n_new - state.n) / dt,
    )


def _next_snapshot_time(next_snap: float, snap_dt: float, t: float) -> float:
    """The first point of the schedule ``next_snap + k * snap_dt`` (k = 0, 1, ...) past ``t``, in O(1).

    When ``t`` lies less than one ``snap_dt`` past ``next_snap`` this is
    ``next_snap + snap_dt``.  A jump over many points is clamped to
    ``(t, t + snap_dt]``, so rounding cannot leave it at or before ``t``; a
    ``snap_dt`` below the spacing of doubles near ``t`` gives the next double,
    and every step then takes a snapshot.
    """
    past = t * (1.0 + 1e-12)
    if next_snap > past:
        return next_snap
    k = (past - next_snap) // snap_dt + 1.0  # inf if the ratio overflows
    return max(min(next_snap + k * snap_dt, past + snap_dt), math.nextafter(past, math.inf))


def _local_maxima(x: np.ndarray) -> np.ndarray:
    """Indices of the local maxima of ``x``, as scipy.signal's ``_local_maxima_1d`` finds them.

    The first and last samples are never maxima.  A run of equal samples
    entered from a lower one is a maximum if the sample after the run is
    lower too; its index is the run's middle, rounded down.  NaN compares
    false, so it neither rises nor falls.
    """
    if x.size < 3:
        return np.empty(0, dtype=np.intp)
    rises = np.flatnonzero(x[:-2] < x[1:-1]) + 1  # i in [1, n - 2] with x[i - 1] < x[i]
    # a run that starts at i ends before the first k > i with x[k] != x[k - 1], or at the last sample
    breaks = np.append(np.flatnonzero(x[1:] != x[:-1]) + 1, x.size - 1)
    ahead = breaks[np.searchsorted(breaks, rises + 1)]
    falls = x[ahead] < x[rises]
    return (rises[falls] + ahead[falls] - 1) // 2


def prominent_peaks(x: np.ndarray, prominence: float) -> np.ndarray:
    """The indices that ``scipy.signal.find_peaks(x, prominence=prominence)`` returns.

    A local maximum's prominence is its height over the higher of its two
    bases, the lowest sample on each side before the first one above it or
    the end of ``x`` (no window).  The walks test ``~(x <= height)``, so NaN
    stops them as it stops scipy's.  A maximum is kept if its prominence is
    at least ``prominence``.
    """
    peaks = _local_maxima(x)
    keep = np.zeros(peaks.size, dtype=bool)
    for j, peak in enumerate(peaks):
        height = x[peak]
        above = np.flatnonzero(~(x[:peak] <= height))
        left = above[-1] + 1 if above.size else 0
        above = np.flatnonzero(~(x[peak + 1 :] <= height))
        right = peak + 1 + above[0] if above.size else x.size
        base = max(x[left : peak + 1].min(), x[peak:right].min())
        keep[j] = prominence <= height - base
    return peaks[keep]


def run(config: SimConfig, on_snapshot: Callable[[Snapshot], object]) -> tuple[SimState, FrontDiagnostics]:
    """Integrate to t_end, handing each snapshot to ``on_snapshot`` as it is taken.

    A snapshot is taken at t = 0, then every ``snapshot_interval`` (default
    ``t_end / 100``) and at t_end; each owns its arrays, so a caller may keep
    it (``run(config, snaps.append)``).  ``run`` itself keeps only the
    density-peak track, so its memory does not grow with the number of
    snapshots.  An exception from ``on_snapshot`` stops the run.

    If a step raises ``NegativeDensity`` the step size is halved once and the
    run continues; a second occurrence propagates the error.  Under the
    step's bound dt * max_rate <= 1 the exchange gives f + dt (e - r f) >=
    (1 - dt r) f >= 0 up to rounding (e >= 0 is the event density), so the
    halving is reached through the nutrient update n (1 - dt gamma rho) where
    dt gamma rho > 1, or in ``step`` through a caller-built negative f.  A
    non-finite S or N raises ``NumericalError`` at once, with no retry.
    The diagnostics' ``n_components`` counts the peaks of the final density
    whose prominence is at least ``PEAK_PROMINENCE_FRACTION`` of its range,
    with the walls as low ground, so that a maximum in the first or last
    cell counts (``prominent_peaks``, which loads no scipy module, on rho
    padded with -inf).  The only scipy modules a run loads are ``scipy`` and
    its compiled LAPACK wrapper ``scipy.linalg._flapack``, for the diffusion
    solves (``_flapack``); the ``scipy.linalg`` package never runs.
    """
    x = cell_centers(config)
    state = initial_state(config)
    dt = config.default_dt()
    snap_dt = config.snapshot_interval or config.t_end / 100.0
    halved = False
    peak_track = []

    def snap(st: SimState) -> None:
        rho = config.model.weights @ st.f
        peak_track.append((st.t, float(x[int(np.argmax(rho))])))
        on_snapshot(Snapshot(
            t=st.t,
            x=x,
            rho=rho,
            s=st.s.copy(),
            n=st.n.copy(),
            f=st.f.copy() if config.snapshot_f else None,
        ))

    snap(state)
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
            snap(state)
            next_snap = _next_snapshot_time(next_snap, snap_dt, state.t)

    rho_final = config.model.weights @ state.f  # the last snapshot's rho: t_end always takes one
    prominence = PEAK_PROMINENCE_FRACTION * (float(np.max(rho_final)) - float(np.min(rho_final)))
    padded = np.concatenate(([-np.inf], rho_final, [-np.inf]))
    peaks = prominent_peaks(padded, max(prominence, np.finfo(float).tiny))
    peak_track = np.array(peak_track)
    try:
        speed, residual = measure_front_speed(peak_track)
    except InsufficientSamples:
        logger.warning("too few snapshots for a front-speed fit; diagnostics carry NaN")
        speed, residual = float("nan"), float("nan")
    diagnostics = FrontDiagnostics(
        peak_track=peak_track,
        fitted_speed=speed,
        fit_residual=residual,
        n_components=int(peaks.size),
    )
    return state, diagnostics


def measure_front_speed(peak_track: np.ndarray) -> tuple[float, float]:
    """Least-squares speed of the peak over the trailing ``FIT_WINDOW_FRACTION`` of samples.

    Returns (speed, rms residual of the linear fit).
    """
    track = np.asarray(peak_track, dtype=float)
    if track.ndim != 2 or track.shape[1] != 2:
        raise ValueError("peak_track must be an (n, 2) array of (t, x) pairs")
    n_window = int(np.ceil(FIT_WINDOW_FRACTION * track.shape[0]))
    if n_window < 10:
        raise InsufficientSamples(
            f"need at least 10 samples in the fitting window, have {n_window}"
        )
    t = track[-n_window:, 0]
    xp = track[-n_window:, 1]
    slope, intercept = np.polyfit(t, xp, 1)
    rms = float(np.sqrt(np.mean((xp - (slope * t + intercept)) ** 2)))
    return float(slope), rms
