"""The algebraic side runs on numpy alone and loads no scipy module.

numpy and scipy each ship their own OpenBLAS, and each starts its own thread
pool.  When tiny linear-algebra calls alternate between the two pools they
wait on each other's spinning threads, so the certifier and the lemma suites
keep every call on numpy's LAPACK.  scipy serves only the flow side, through
``scipy.fft`` and ``scipy.special.xlogy``, both imported on first use.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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

import numpy as np
from kricci.grid import clib_log

clib_log(np.ones(2))
out["after_flow_kernel"] = scipy_modules()
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
    # The probe itself sees a module when one is loaded: the flow's log
    # kernel pulls in scipy.special on first use, by design.
    assert "scipy.special" in out["after_flow_kernel"]
