"""The benchmark's workloads: their inputs, one measured pass each, and the output checks.

Every call into chemowave goes through a module attribute
(``cli_io.main``, ``wave_speed.upsilon``, ...) so that tracing, which patches
those attributes, sees it.
"""

from __future__ import annotations

import hashlib
import io
import math
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from chemowave import cli_io, velocity_model, wave_speed
from chemowave.chemo_fields import ChemParams
from chemowave.errors import ChemowaveError

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

# Roots of the shipped case studies (found by upsilon-scan at 64 samples per interval).
REFERENCE_ROOTS = {
    "sec4_1": [0.05246996633768716],
    "sec4_2": [0.02459293021436879, 0.14153597953274194],
    "sec4_3": [],
}
ROOT_REL_TOL = 1e-10
FASTEST_ROOT = 0.14153597953274194      # sec4_2, the speed the simulation should approach
FRONT_SPEED_TOL = 0.15                  # the +-15% acceptance bound of the simulation
MASS_TOL = 1e-8                         # simulation mass conservation
# Trapezoid over the profile CSV's logarithmic grid (about 0.9% spacing) is
# good to about 1e-5; the unit-mass identity itself holds to 1e-12.
PROFILE_MASS_TOL = 1e-4
MAX_LOCATION_TOL = 1e-6                 # |argmax S| at a verified root

# velocity-sweep: evaluations per pass of each size class, sized so that the
# three classes take about the same time, about 14 s together on a 2-core x86 VM
# (Python 3.11, numpy 2.4, one BLAS thread).
SWEEP_SIZES = {8: 900, 32: 480, 128: 420}
SPEEDS_PER_MODEL = 4
# A sweep pass runs the classes in this many rounds, a share of each class per round.
SWEEP_ROUNDS = 50


@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    errors: Counter = field(default_factory=Counter)
    problems: list[str] = field(default_factory=list)   # failed correctness checks
    csv_sha256: dict[str, str] = field(default_factory=dict)
    front_speed_rel_gap: float | None = None
    raw_s: float = 0.0          # wall time of the pass, calibration slices taken out
    reference_s: float = 0.0    # the same at the reference host speed (hostspeed.py)

    def fail(self, error: str) -> None:
        self.failed += 1
        self.errors[error] += 1


def _data_rows(path: Path) -> list[str]:
    """Data lines of an emitted CSV: comment lines and the column header dropped."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
    return lines[1:]


def _roots(speeds: Path) -> list[float]:
    return [float(row.split(",")[0]) for row in _data_rows(speeds)]


def _comment_value(path: Path, key: str) -> str:
    prefix = f"# {key}="
    for ln in path.read_text(encoding="utf-8").splitlines():
        if ln.startswith(prefix):
            return ln[len(prefix):]
    raise KeyError(f"{path.name} has no '{key}' comment")


def hash_csvs(outdir: Path) -> dict[str, str]:
    return {
        p.relative_to(outdir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.rglob("*.csv"))
    }


def _run_cli(result: PassResult, argv: list[str]) -> None:
    result.attempted += 1
    with redirect_stdout(io.StringIO()):
        code = cli_io.main(argv)
    if code != 0:  # main maps every ChemowaveError and OSError to a nonzero exit code
        result.fail(f"exit{code}")


class CasesConstruct:
    """upsilon-scan on the three shipped case studies, then profile at every root found."""

    name = "cases-construct"

    def setup(self, seed: int):
        state = {}
        for case in REFERENCE_ROOTS:
            cfg, _hash = cli_io.load_config(CONFIGS / f"{case}.ini")
            velocity_model.admissible_speed_interval(cfg.build_model())
            state[case] = cfg
        return state

    def warmup_state(self, state):
        return {"sec4_1": state["sec4_1"]}

    def run_pass(self, state, outdir: Path) -> PassResult:
        result = PassResult()
        for case, cfg in state.items():
            scan_dir = outdir / case
            _run_cli(result, ["upsilon-scan", "--config", str(CONFIGS / f"{case}.ini"), "--out", str(scan_dir)])
            speeds = scan_dir / "speeds.csv"
            roots = _roots(speeds) if speeds.exists() else []
            for i, c in enumerate(roots):
                derived = outdir / f"{case}_root{i}.ini"
                derived.write_text(
                    cli_io.format_config(replace(cfg, mode="profile", profile_speed=c)), encoding="utf-8"
                )
                _run_cli(result, ["profile", "--config", str(derived), "--out", str(outdir / f"{case}_root{i}")])
        return result

    def check(self, state, outdir: Path, result: PassResult) -> None:
        problems = result.problems
        for case, expected in REFERENCE_ROOTS.items():
            speeds = outdir / case / "speeds.csv"
            if not speeds.exists():
                problems.append(f"{case}: no speeds.csv")
                continue
            roots = _roots(speeds)
            if len(roots) != len(expected):
                problems.append(f"{case}: {len(roots)} roots, expected {len(expected)}")
                continue
            model = state[case].build_model()
            for i, (c, ref) in enumerate(zip(roots, expected)):
                if abs(c - ref) > ROOT_REL_TOL * abs(ref):
                    problems.append(f"{case}: root {c!r} differs from {ref!r}")
                check = wave_speed.verify_root(model, state[case].chem, c)
                if check.slope_sign_changes != 1 or abs(check.maximum_location) >= MAX_LOCATION_TOL:
                    problems.append(f"{case}: root {c!r} fails verify_root ({check})")
                profile = outdir / f"{case}_root{i}" / "profile.csv"
                if not profile.exists():
                    problems.append(f"{case}: no profile at root {c!r}")
                    continue
                table = np.loadtxt(_data_rows(profile), delimiter=",", usecols=(0, 1))
                mass = float(np.trapezoid(table[:, 1], table[:, 0]))
                if not abs(mass - 1.0) <= PROFILE_MASS_TOL:
                    problems.append(f"{case}: profile at {c!r} has mass {mass!r}")


@dataclass(frozen=True)
class SweepInput:
    model: velocity_model.VelocityModel
    params: ChemParams
    c: float


def sweep_inputs(n: int, seed: int) -> list[SweepInput]:
    """Seeded models on the n-point Gauss-Legendre set, and speeds inside their continuity intervals."""
    rng = np.random.default_rng([seed, n])
    nodes, weights = np.polynomial.legendre.leggauss(n)
    weights = weights / weights.sum()
    inputs: list[SweepInput] = []
    while len(inputs) < SWEEP_SIZES[n]:
        chi_s = rng.uniform(0.1, 0.45)
        chi_n = rng.uniform(0.0, chi_s)
        alpha = float(rng.choice([0.5, 10.0]))
        model = velocity_model.build_model(nodes, weights, chi_s, chi_n)
        params = ChemParams(d_s=0.5, d_n=1.0, alpha=alpha, beta=1.0, gamma=1.0)
        window = velocity_model.admissible_speed_interval(model)
        guard = 2.0 * model.node_guard
        intervals = [(lo, hi) for lo, hi in window.admissible_intervals if hi - lo > 4.0 * guard]
        for _ in range(SPEEDS_PER_MODEL):
            lo, hi = intervals[rng.integers(len(intervals))]
            inputs.append(SweepInput(model, params, float(rng.uniform(lo + guard, hi - guard))))
    return inputs[: SWEEP_SIZES[n]]


def _call_upsilon(item: SweepInput, result: PassResult) -> None:
    result.attempted += 1
    try:
        value = wave_speed.upsilon(item.model, item.params, item.c)
    except ChemowaveError as exc:
        result.fail(type(exc).__name__)
        return
    except Exception as exc:  # an untyped failure is a defect the benchmark reports
        result.fail(type(exc).__name__)
        result.problems.append(f"untyped {exc!r} at c={item.c!r}")
        return
    if not math.isfinite(value):
        result.problems.append(f"non-finite Upsilon {value!r} at c={item.c!r}")


class VelocitySweep:
    """One wave_speed.upsilon call per seeded (model, speed), on 8, 32 and 128 velocities.

    A pass runs the three size classes in SWEEP_ROUNDS rounds, a share of each
    class per round, so that every class meets the same host conditions.
    """

    name = "velocity-sweep"

    def setup(self, seed: int) -> dict[int, list[SweepInput]]:
        return {n: sweep_inputs(n, seed) for n in SWEEP_SIZES}

    def warmup_state(self, inputs: dict[int, list[SweepInput]]) -> dict[int, list[SweepInput]]:
        return {n: items[:SWEEP_ROUNDS // 2] for n, items in inputs.items()}

    def run_pass(self, inputs: dict[int, list[SweepInput]], outdir: Path) -> PassResult:
        result = PassResult()
        shares = {n: np.array_split(np.arange(len(items)), SWEEP_ROUNDS) for n, items in inputs.items()}
        for r in range(SWEEP_ROUNDS):
            for n, items in inputs.items():
                for i in shares[n][r]:
                    _call_upsilon(items[i], result)
        return result

    def check(self, state, outdir: Path, result: PassResult) -> None:
        """Values and error types are checked as the pass runs."""


class WaveFormation:
    """The shipped sec4_2 simulation through the CLI, with its 101 snapshot CSVs."""

    name = "wave-formation"
    case = "sec4_2"

    def setup(self, seed: int):
        cfg, _hash = cli_io.load_config(CONFIGS / f"{self.case}.ini")
        velocity_model.admissible_speed_interval(cfg.build_model())
        return cfg

    def warmup_state(self, cfg):
        return None  # one pass is 15 000 steps; first-call costs are lost in it

    def run_pass(self, cfg, outdir: Path) -> PassResult:
        result = PassResult()
        _run_cli(result, ["simulate", "--config", str(CONFIGS / f"{self.case}.ini"), "--out", str(outdir)])
        return result

    def check(self, cfg, outdir: Path, result: PassResult) -> None:
        problems = result.problems
        diagnostics = outdir / "diagnostics.csv"
        snapshots = sorted(outdir.glob("snapshot_*.csv"))
        if not diagnostics.exists() or not snapshots:
            problems.append("simulate wrote no diagnostics or snapshots")
            return
        dx = cfg.sim.domain_length / cfg.sim.cells
        for path in snapshots:
            table = np.loadtxt(_data_rows(path), delimiter=",", usecols=(1, 3))
            mass = float(np.sum(table[:, 0]) * dx)
            if not abs(mass - cfg.sim.initial_mass) <= MASS_TOL:
                problems.append(f"{path.name}: mass {mass!r}")
            if np.min(table) < 0.0:
                problems.append(f"{path.name}: negative rho or n")
        components = int(_comment_value(diagnostics, "n_components"))
        if components != 1:
            problems.append(f"{components} density components, expected 1")
        speed = float(_comment_value(diagnostics, "fitted_speed"))
        result.front_speed_rel_gap = abs(speed - FASTEST_ROOT) / FASTEST_ROOT
        if not result.front_speed_rel_gap <= FRONT_SPEED_TOL:
            problems.append(f"fitted front speed {speed!r} is not within 15% of {FASTEST_ROOT!r}")


WORKLOADS = {
    w.name: w
    for w in (CasesConstruct(), VelocitySweep(), WaveFormation())
}
