"""Tests of the benchmark itself.  Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from chemowave import cli_io, wave_speed  # noqa: E402
from chemowave.errors import ChemowaveError  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _key(inputs):
    return [(i.model.chi_s, i.model.chi_n, i.params.alpha, i.c) for i in inputs]


@pytest.mark.parametrize("n", sorted(workloads.SWEEP_SIZES))
def test_sweep_inputs_follow_the_seed(n):
    first = _key(workloads.sweep_inputs(n, 7))
    assert first == _key(workloads.sweep_inputs(n, 7))
    assert first != _key(workloads.sweep_inputs(n, 8))
    assert len(first) == workloads.SWEEP_SIZES[n]


def test_sweep_classes_have_their_metrics():
    assert tracing.SWEEP_CLASSES == tuple(sorted(workloads.SWEEP_SIZES))


def test_reference_seconds_scale_each_piece_by_the_host_speed():
    clock = hostspeed.PassClock()
    clock.pieces_s = [1.0, 1.0]
    clock.slices_s = [2 * hostspeed.REFERENCE_SLICE_S] * 3
    assert clock.raw_s() == 2.0
    assert clock.reference_s() == pytest.approx(1.0)


def test_pass_clock_takes_its_slices_out_and_disarms():
    handler = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    with hostspeed.PassClock(interval_s=0.05) as clock:
        while time.perf_counter() - t0 < 0.4:
            pass
    wall = time.perf_counter() - t0
    assert len(clock.pieces_s) >= 3
    assert len(clock.slices_s) == len(clock.pieces_s) + 1
    assert clock.raw_s() + sum(clock.slices_s) == pytest.approx(wall, rel=0.05)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler


def test_covered_counts_overlapping_children_once():
    spans = [
        ["p", 0.0, 10.0, -1, 1, None, None],
        ["a", 1.0, 4.0, 0, 1, None, None],
        ["b", 3.0, 6.0, 0, 1, None, None],
        ["c", 9.0, 12.0, 0, 1, None, None],
    ]
    assert tracing.covered(spans, 0, [1, 2, 3]) == pytest.approx(6.0)


def test_children_lie_inside_their_parent(tmp_path):
    cfg, _hash = cli_io.load_config(ROOT / "configs" / "sec4_1.ini")
    model = cfg.build_model()
    tracer = tracing.Tracer()
    with tracer.installed():
        for c in (0.03, 0.06, 0.5):  # 0.5 lies above c_upper and fails
            try:
                wave_speed.upsilon(model, cfg.chem, c)
            except ChemowaveError:
                pass
        derived = tmp_path / "profile.ini"
        derived.write_text(cli_io.format_config(replace(cfg, mode="profile", profile_speed=0.05)))
        assert cli_io.main(["profile", "--config", str(derived), "--out", str(tmp_path)]) == 0
    spans = tracer.spans
    kids = tracing.children_of(spans)
    assert any(s[tracing.ERROR] == "SpeedNotAdmissible" for s in spans)
    for i, s in enumerate(spans):
        duration = s[tracing.END] - s[tracing.START]
        assert tracing.covered(spans, i, kids[i]) <= duration
        for k in kids[i]:
            assert s[tracing.START] <= spans[k][tracing.START] <= spans[k][tracing.END] <= s[tracing.END]
            assert spans[k][tracing.OP] == s[tracing.OP]
    assert len({s[tracing.OP] for s in spans}) == 4


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_benchmark_metric_is_emitted(trace, section):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cases-construct", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert {m["name"] for m in BENCHMARK[section]} == set(result["metrics"])


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cases-construct", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
