"""Which scipy modules importing chemowave and running its modes load, and the loader that keeps it so.

chemowave takes three compiled routines from scipy, and loads each one's
extension file without the package that holds it
(``_scipy_ext.scipy_extension``).  ``validate`` and ``profile`` load no scipy
module, and ``upsilon-scan`` loads only ``scipy.optimize._zeros`` (Brent's
method), not even ``scipy``.  A simulation imports ``scipy`` when it first
factors its diffusion matrix, and loads only the LAPACK wrapper
``scipy.linalg._flapack`` (dgttrf/dgttrs) and, for its component count, the
peak finder ``scipy.signal._peak_finding_utils``.  No mode loads the
``scipy.optimize``, ``scipy.signal``, ``scipy.linalg`` or ``scipy.stats``
package, and a later import of one reuses the loaded extension.  The module
lists are checked in a subprocess: this test process has long since loaded
scipy.  The package's ``__all__`` must list exactly its public names.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import chemowave
from chemowave._scipy_ext import scipy_extension
from chemowave.wave_speed import ROOT_C_REL_TOL

SRC = Path(chemowave.__file__).resolve().parents[1]
PACKAGES = ("scipy.optimize", "scipy.signal", "scipy.linalg", "scipy.stats")

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
    for name, argv in (("validate", ["validate", "--config", str(config)]),
                       ("profile", ["profile", "--config", str(profile), "--out", str(out / "profile")]),
                       ("upsilon-scan", ["upsilon-scan", "--config", str(config), "--out", str(out / "scan")])):
        assert cli_io.main(argv) == 0, argv
        loaded[name] = scipy_modules()
sim = cli_io.load_config(Path(sys.argv[3]))[0].build_sim_config()
sim = replace(sim, cells=128, t_end=2.0)
cauchy_sim.initial_state(sim)
loaded["sim_setup"] = scipy_modules()
_state, diagnostics = cauchy_sim.run(sim, lambda snapshot: None)
loaded["sim_run"] = scipy_modules()
loaded["sim_components"] = diagnostics.n_components
flapack = sys.modules["scipy.linalg._flapack"]
zeros = sys.modules["scipy.optimize._zeros"]
peak_utils = sys.modules["scipy.signal._peak_finding_utils"]
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.optimize import brentq
from scipy.signal import find_peaks
loaded["reused"] = {
    "lapack": dgttrf is flapack.dgttrf and dgttrs is flapack.dgttrs,
    "brentq": brentq.__globals__["_zeros"] is zeros,
    "find_peaks": find_peaks.__globals__["_local_maxima_1d"] is peak_utils._local_maxima_1d
    and find_peaks.__globals__["_peak_prominences"] is peak_utils._peak_prominences,
}
print(json.dumps(loaded))
"""

SCIPY_ITSELF = (
    "import json, sys, scipy\n"
    "print(json.dumps(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))"
)


def test_modes_load_only_their_scipy_extensions(tmp_path, configs_dir):
    argv = [str(configs_dir / "sec4_1.ini"), str(tmp_path), str(configs_dir / "sec4_2.ini")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], env=env, capture_output=True, text=True, timeout=300, check=True
    )
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    # what ``import scipy`` alone loads depends on scipy's version
    proc = subprocess.run([sys.executable, "-c", SCIPY_ITSELF], capture_output=True, text=True, timeout=300, check=True)
    scipy_itself = json.loads(proc.stdout)
    assert loaded["import"] == []
    assert loaded["validate"] == []
    assert loaded["profile"] == []
    assert loaded["upsilon-scan"] == ["scipy.optimize._zeros"]  # Brent's method, without scipy itself
    assert loaded["sim_setup"] == ["scipy.optimize._zeros"]  # a simulation's config and initial state load nothing
    # a whole short run: its first step imports scipy and factors the
    # diffusion matrix with the LAPACK extension, and its component count
    # loads the peak finder's
    assert loaded["sim_run"] == sorted(
        [*scipy_itself, "scipy.linalg._flapack", "scipy.optimize._zeros", "scipy.signal._peak_finding_utils"]
    )
    assert not set(PACKAGES) & set(loaded["sim_run"])
    assert loaded["sim_components"] == 1
    # the packages, imported later, take the loaded extensions
    assert loaded["reused"] == {"lapack": True, "brentq": True, "find_peaks": True}


def test_loader_refuses_a_missing_extension():
    with pytest.raises(ImportError, match="scipy.optimize._no_such_module") as missing:
        scipy_extension("scipy.optimize._no_such_module")
    assert missing.value.name == "scipy.optimize._no_such_module"


def test_loader_refuses_a_missing_scipy(monkeypatch):
    monkeypatch.setitem(sys.modules, "scipy", None)  # find_spec then reports no scipy
    with pytest.raises(ImportError, match="scipy.optimize._no_such_module needs scipy, which is not installed"):
        scipy_extension("scipy.optimize._no_such_module")


def test_loader_loads_an_extension_from_its_file_once(monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.optimize._zeros", raising=False)
    zeros = scipy_extension("scipy.optimize._zeros")
    assert sys.modules["scipy.optimize._zeros"] is zeros
    assert zeros._brentq(lambda x: x - 0.5, 0.0, 1.0, 1e-12, ROOT_C_REL_TOL, 100, (), False, True) == 0.5
    assert scipy_extension("scipy.optimize._zeros") is zeros


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
