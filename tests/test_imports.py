"""Which scipy modules importing chemowave and running its construction modes load.

scipy.signal (with scipy.stats behind it), scipy.integrate and scipy.optimize
are imported by the one function that calls each, so a fresh interpreter that
only constructs waves never pays for them.  Each check runs in a subprocess:
this test process has long since loaded them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import chemowave

SRC = Path(chemowave.__file__).resolve().parents[1]
DEFERRED = ("scipy.optimize", "scipy.integrate", "scipy.signal", "scipy.stats")

PROBE = """
import io, json, sys
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

deferred, config, out = json.loads(sys.argv[1]), Path(sys.argv[2]), Path(sys.argv[3])
import chemowave
from chemowave import cli_io
loaded = {"import": [m for m in deferred if m in sys.modules]}
cfg, _hash = cli_io.load_config(config)
profile = out / "profile.ini"
profile.write_text(cli_io.format_config(replace(cfg, mode="profile", profile_speed=0.05246996633768716)))
with redirect_stdout(io.StringIO()):
    for argv in (["validate", "--config", str(config)],
                 ["upsilon-scan", "--config", str(config), "--out", str(out / "scan")],
                 ["profile", "--config", str(profile), "--out", str(out / "profile")]):
        assert cli_io.main(argv) == 0, argv
loaded["modes"] = [m for m in deferred if m in sys.modules]
print(json.dumps(loaded))
"""


def test_construction_loads_no_deferred_scipy_module(tmp_path, configs_dir):
    argv = [json.dumps(DEFERRED), str(configs_dir / "sec4_1.ini"), str(tmp_path)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], env=env, capture_output=True, text=True, timeout=300, check=True
    )
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert loaded["import"] == []
    # refine_roots imports scipy.optimize for brentq; nothing in these modes integrates or simulates
    assert set(loaded["modes"]) <= {"scipy.optimize"}
