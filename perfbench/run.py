"""chemowave benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; chemowave is imported from ``src/``.
With ``--trace 0`` the last stdout line is a JSON object with every
end-to-end metric of BENCHMARK.json; with ``--trace 1`` it has every
per-layer metric.  Times are in reference seconds, calibrated against the
host's speed (hostspeed.py).  Earlier lines print each metric with its unit
and sample count, the measured seconds, and the provenance.  A failed output check sets ``"correct": false``
and the exit code to 1.  Scratch outputs and the run record go to
``.perfbench_work/`` in the checkout.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import os

# One BLAS thread: the library's matrices are small, and a second thread on a
# 2-core machine adds noise, not speed.  Set before numpy is imported.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import INTERVAL_S, REFERENCE_SLICE_S, PassClock, calibration_slice  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 120


def _source_tree_ok() -> bool:
    return (ROOT / "src" / "chemowave" / "__init__.py").is_file() and (ROOT / "configs" / "sec4_2.ini").is_file()


def _metric_specs() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]}, {m["name"]: m["unit"] for m in spec["per_layer"]})


def _provenance(seed: int) -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "seed": seed,
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
    }


def _setup_samples(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """(measured, reference) seconds of SETUP_SAMPLES fresh interpreters that each run the workload's set-up.

    Each interpreter times calibration slices after its set-up; their time is
    left out of its wall time, and their median scales the rest to the
    reference host speed.
    """
    measured, reference = [], []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, check=True, timeout=PROBE_TIMEOUT_S, stdout=subprocess.PIPE, text=True,
        )
        wall = time.perf_counter() - t0
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        measured.append(wall - probe["slice_total_s"])
        reference.append(measured[-1] * REFERENCE_SLICE_S / statistics.median(probe["slices_s"]))
    return measured, reference


def _one_pass(workload, state, passdir: Path, tracer=None):
    """Run one timed pass (traced if a tracer is given), then check and hash its outputs and delete them.

    An untraced pass is interleaved with calibration slices; a traced one has
    slices only at its ends, so that no slice falls inside a span.
    """
    from workloads import hash_csvs

    passdir.mkdir(parents=True)
    clock = PassClock(interval_s=0.0 if tracer else INTERVAL_S)
    with tracer.installed() if tracer else contextlib.nullcontext(), clock:
        result = workload.run_pass(state, passdir)
    result.raw_s, result.reference_s = clock.raw_s(), clock.reference_s()
    workload.check(state, passdir, result)
    result.csv_sha256 = hash_csvs(passdir)
    shutil.rmtree(passdir)
    return result


def _digest(hashes: dict[str, str]) -> str:
    return hashlib.sha256("".join(f"{k}:{v}\n" for k, v in sorted(hashes.items())).encode()).hexdigest()


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from tracing import Tracer, layer_metrics
    from workloads import FASTEST_ROOT, WORKLOADS

    workload = WORKLOADS[name]
    e2e_units, layer_units = _metric_specs()
    work = ROOT / ".perfbench_work"
    rundir = work / f"run-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    records = work / "records"
    records.mkdir(parents=True, exist_ok=True)
    provenance = _provenance(seed)

    for _ in range(2):  # the first slices pay for numpy's lazy set-up
        calibration_slice()
    setup_samples, setup_ref = ([], []) if trace else _setup_samples(name, seed)
    state = workload.setup(seed)
    warm = workload.warmup_state(state)
    if warm is not None:  # first calls pay for lazy imports and allocations; not timed
        (rundir / "warmup").mkdir(parents=True)
        workload.run_pass(warm, rundir / "warmup")

    # Passes repeat while another one of the mean length still fits in `seconds` of wall time.
    results, elapsed = [], []
    while True:
        t0 = time.perf_counter()
        results.append(_one_pass(workload, state, rundir / f"pass{len(results)}"))
        elapsed.append(time.perf_counter() - t0)
        if trace or sum(elapsed) + statistics.fmean(elapsed) > seconds:
            break
    times = [r.reference_s for r in results]

    spans_file = None
    if trace:
        tracer = Tracer()
        with tracer.installed():
            state = workload.setup(seed)
        traced = _one_pass(workload, state, rundir / "traced", tracer)
        results.append(traced)
        metrics = layer_metrics(tracer)
        metrics["trace.overhead_share"] = traced.reference_s / times[0] - 1.0
        metrics["cauchy_sim.front_speed_rel_gap"] = traced.front_speed_rel_gap or 0.0
        samples = {k: "1 traced pass" for k in metrics}
        spans_file = records / f"{name}-seed{seed}.spans.jsonl"
        tracer.write(spans_file)
        units = layer_units
    else:
        attempted = sum(r.attempted for r in results)
        ok = attempted - sum(r.failed for r in results)
        metrics = {
            "setup_s": statistics.median(setup_ref),
            "wall_s": statistics.median(times),
            "ok_per_s": ok / sum(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        samples = {
            "setup_s": f"samples={len(setup_samples)}",
            "wall_s": f"samples={len(times)}",
            "ok_per_s": f"samples={attempted}",
            "peak_rss_mb": "samples=1",
        }
        units = e2e_units
    shutil.rmtree(rundir, ignore_errors=True)

    problems = [p for r in results for p in r.problems]
    if set(metrics) != set(units):
        problems.append(f"emitted metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    hashes = results[0].csv_sha256
    if any(r.csv_sha256 != hashes for r in results):
        problems.append("passes emitted different CSV bytes")
    reference = json.loads((HERE / "reference_csv_sha256.json").read_text(encoding="utf-8")).get(name, {})
    errors = sum((r.errors for r in results), Counter())
    gap = results[0].front_speed_rel_gap

    print("provenance " + json.dumps(provenance, sort_keys=True))
    raw = [r.raw_s for r in results]
    print(f"workload {name}: {len(times)} pass(es) of {[round(t, 3) for t in times]} reference s"
          f" ({[round(t, 3) for t in raw[:len(times)]]} s measured)" + (", 1 traced" if trace else ""))
    if setup_samples:
        print(f"setup: {[round(t, 3) for t in setup_ref]} reference s"
              f" ({[round(t, 3) for t in setup_samples]} s measured)")
    for key in sorted(metrics):
        print(f"metric {key} = {metrics[key]!r} {units.get(key, '?')} ({samples[key]})")
    if errors:
        print("typed failures " + json.dumps(errors, sort_keys=True))
    if gap is not None:
        print(f"front_speed_rel_gap = {gap!r} (fitted speed vs root {FASTEST_ROOT!r})")
    if hashes:
        match = "n/a" if not reference else ("yes" if reference == hashes else "no")
        print(f"csv_sha256 {_digest(hashes)} over {len(hashes)} files; matches reference: {match}")
    for p in problems:
        print(f"CHECK FAILED: {p}")

    record = {
        "workload": name, "trace": trace, "seconds": seconds, "provenance": provenance,
        "pass_reference_s": times, "pass_measured_s": [r.raw_s for r in results],
        "setup_measured_s": setup_samples, "setup_reference_s": setup_ref, "metrics": metrics, "samples": samples,
        "attempted": sum(r.attempted for r in results), "failed": sum(r.failed for r in results),
        "errors": errors, "problems": problems, "front_speed_rel_gap": gap, "csv_sha256": hashes,
        "spans_file": spans_file.name if spans_file else None,
    }
    (records / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units.get(k, "?")} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, one after another; one combined JSON line at the end."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if proc.returncode not in (0, 1) or not lines:
            print(f"[{name}] exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main() -> int:
    if not _source_tree_ok():
        print(f"no chemowave source tree (src/chemowave, configs/) under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
