"""Smoke runs of the command-line scripts at their smallest settings.

Each script is loaded from ``scripts/`` as it is and its ``main(argv)`` must
return 0; the flow scripts go through the same flow APIs as ``kricci flow``.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script, argv",
    [
        ("refinement_study.py", ["--levels", "1", "--base-resolution", "16", "--base-dt", "1e-3"]),
        ("run_flow_demo.py", ["--resolution", "8", "--dt", "2e-3"]),
        ("run_lemma_suites.py", ["--count", "1", "--n", "2"]),
        ("step_timing.py", ["--n", "1", "--resolution", "8", "--discretization", "fd2",
                            "--steps", "1"]),
    ],
)
def test_script_main_exits_zero(script, argv, capsys):
    spec = importlib.util.spec_from_file_location(f"script_{Path(script).stem}", SCRIPTS / script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(argv) == 0
    assert capsys.readouterr().out
