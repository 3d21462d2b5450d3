"""Which scipy modules importing chemowave and running its modes load.

The construction runs on numpy alone: Brent's method is an in-package port,
and the nutrient profile is one pass of its own recurrence.  Only the
simulation loads scipy, when it first factors its diffusion matrix, and then
only ``scipy`` itself and its compiled LAPACK wrapper
``scipy.linalg._flapack`` (dgttrf/dgttrs), without the ``scipy.linalg``
package: a whole run, its component count
included (``cauchy_sim.prominent_peaks``, a port of ``find_peaks``), loads
none of ``scipy.linalg``, ``scipy.signal`` and ``scipy.stats``.  A later
``import scipy.linalg`` reuses the loaded extension.  Each check runs in a
subprocess: this test process has long since loaded scipy.  The package's
``__all__`` must list exactly its public names.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import chemowave

SRC = Path(chemowave.__file__).resolve().parents[1]

PROBE = """
import io, json, sys
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

config, out = Path(sys.argv[1]), Path(sys.argv[2])
scipy_modules = lambda: sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import chemowave
from chemowave import cauchy_sim, cli_io
loaded = {"import": scipy_modules()}
cfg, _hash = cli_io.load_config(config)
profile = out / "profile.ini"
profile.write_text(cli_io.format_config(replace(cfg, mode="profile", profile_speed=0.05246996633768716)))
with redirect_stdout(io.StringIO()):
    for argv in (["validate", "--config", str(config)],
                 ["upsilon-scan", "--config", str(config), "--out", str(out / "scan")],
                 ["profile", "--config", str(profile), "--out", str(out / "profile")]):
        assert cli_io.main(argv) == 0, argv
loaded["modes"] = scipy_modules()
sim = cli_io.load_config(Path(sys.argv[3]))[0].build_sim_config()
sim = replace(sim, cells=128, t_end=2.0)
cauchy_sim.initial_state(sim)
loaded["sim_setup"] = scipy_modules()
_state, diagnostics = cauchy_sim.run(sim, lambda snapshot: None)
loaded["sim_run"] = [m for m in ("scipy.linalg", "scipy.signal", "scipy.stats") if m in sys.modules]
loaded["sim_linalg"] = [m for m in scipy_modules() if m.startswith("scipy.linalg.")]
loaded["sim_components"] = diagnostics.n_components
flapack = sys.modules["scipy.linalg._flapack"]
from scipy.linalg.lapack import dgttrf, dgttrs
loaded["lapack_reused"] = dgttrf is flapack.dgttrf and dgttrs is flapack.dgttrs
print(json.dumps(loaded))
"""


def test_construction_loads_no_deferred_scipy_module(tmp_path, configs_dir):
    argv = [str(configs_dir / "sec4_1.ini"), str(tmp_path), str(configs_dir / "sec4_2.ini")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], env=env, capture_output=True, text=True, timeout=300, check=True
    )
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert loaded["import"] == []
    assert loaded["modes"] == []  # validate, upsilon-scan and profile
    assert loaded["sim_setup"] == []  # a simulation's config and initial state
    # a whole short run: its first step factors the diffusion matrix with the
    # LAPACK extension alone, and its component count loads nothing more
    assert loaded["sim_run"] == []
    assert loaded["sim_linalg"] == ["scipy.linalg._flapack"]
    assert loaded["sim_components"] == 1
    assert loaded["lapack_reused"]  # scipy.linalg, imported later, takes the loaded extension


def test_all_lists_every_public_name_and_nothing_else():
    namespace: dict = {}
    exec("from chemowave import *", namespace)  # raises on a listed name that does not resolve
    assert set(namespace) - {"__builtins__"} == set(chemowave.__all__)
    public = {
        name
        for name, value in vars(chemowave).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(chemowave.__all__) - {"__version__"}
