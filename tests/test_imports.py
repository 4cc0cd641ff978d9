"""The algebraic side and fd2 flows run on numpy alone and load no scipy module.

numpy and scipy each ship their own OpenBLAS, and each starts its own thread
pool.  When tiny linear-algebra calls alternate between the two pools they
wait on each other's spinning threads, so the certifier and the lemma suites
keep every call on numpy's LAPACK.  scipy serves only spectral flows, through
``scipy.fft``, imported on their first derivative.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import kricci

SCRIPT = """
import json, sys, tempfile
from pathlib import Path

import kricci.cli
import kricci.suites
from kricci.suites import SUITES, SuiteConfig, run_suite

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

out = {"import": scipy_modules()}
with tempfile.TemporaryDirectory() as tmp:
    forms = Path(tmp) / "forms"
    codes = [
        kricci.cli.main(["gen", "--n", "3", "--count", "1", "--k", "2", "--bound", "-1",
                         "--out", str(forms)]),
        kricci.cli.main(["certify", str(forms / "form-000.json"), "--k", "2"]),
    ]
out["cli_codes"] = codes
out["suites_ok"] = [
    run_suite(SuiteConfig(suite=s, n_values=(2, 3), count=1, samples=2000)).ok for s in SUITES
]
out["algebra"] = scipy_modules()

with tempfile.TemporaryDirectory() as tmp:
    config = Path(tmp) / "flow.json"
    config.write_text(json.dumps({
        "grid": {"n": 1, "N": 8, "discretization": "fd2"},
        "background": {"modes": [{"k": [1, 0], "amp": 0.01}]},
        "dt": 1e-3, "t_end": 0.01, "cadence": 2,
    }))
    out["flow_code"] = kricci.cli.main(["flow", str(config), "--out", str(Path(tmp) / "out")])
out["after_fd2_flow"] = scipy_modules()

import numpy as np
from kricci.grid import PeriodicGrid, dbar_hessian

dbar_hessian(PeriodicGrid(1, 8, "spectral"), np.zeros((8, 8)))
out["after_spectral_hessian"] = scipy_modules()
print(json.dumps(out))
"""


def test_algebraic_side_loads_no_scipy():
    src = str(Path(kricci.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["import"] == []
    assert out["cli_codes"] == [0, 0]
    assert out["suites_ok"] == [True] * 6
    assert out["algebra"] == [], "scipy loaded by certify, gen or a lemma suite"
    assert out["flow_code"] == 0
    assert out["after_fd2_flow"] == [], "scipy loaded by an fd2 flow"
    # The probe itself sees a module when one is loaded: a spectral
    # derivative pulls in scipy.fft on first use, by design.
    assert "scipy.fft" in out["after_spectral_hessian"]


MODULES = ["kricci"] + [
    f"kricci.{m.name}" for m in pkgutil.iter_modules(kricci.__path__) if m.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # A name left in __all__ after its definition is gone breaks
    # ``from kricci.<module> import *`` and documents an API that is not there.
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == [], f"{name}.__all__ names undefined {missing}"
