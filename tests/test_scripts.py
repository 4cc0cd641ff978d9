"""Smoke runs of the command-line scripts at their smallest settings.

Each script is loaded from ``scripts/`` as it is and its ``main(argv)`` must
return 0; the flow scripts go through the same flow APIs as ``kricci flow``.
"""

import importlib.util
from pathlib import Path

import pytest

import kricci.flow
import kricci.grid

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# (id, script, argv): at least one smoke case per script in scripts/.  The ids
# are fixed, so that a case keeps its name when another is removed.
SMOKE_CASES = [
    ("refinement_study.py-argv0", "refinement_study.py",
     ["--levels", "1", "--base-resolution", "16", "--base-dt", "1e-3"]),
    ("step_timing.py-argv3", "step_timing.py",
     ["--n", "1", "--resolution", "8", "--discretization", "fd2", "--steps", "1"]),
    ("step_timing.py-argv4", "step_timing.py",
     ["--n", "2", "--resolution", "8", "--discretization", "spectral", "--steps", "1"]),
]


def test_every_script_has_a_smoke_case():
    assert {script for _, script, _ in SMOKE_CASES} == {p.name for p in SCRIPTS.glob("*.py")}


@pytest.mark.parametrize("script, argv", [case[1:] for case in SMOKE_CASES],
                         ids=[case[0] for case in SMOKE_CASES])
def test_script_main_exits_zero(script, argv, capsys):
    assert load_script(script).main(argv) == 0
    assert capsys.readouterr().out


def test_step_timing_prints_the_hessian_layer(capsys):
    argv = ["--n", "1", "--resolution", "8", "--discretization", "fd2", "--steps", "1"]
    assert load_script("step_timing.py").main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    hessian = [line for line in lines if line.startswith("dbar_hessian: median ")]
    assert len(hessian) == 1
    assert hessian[0].endswith(" ms over 200 calls on the background potential")
    assert float(hessian[0].split()[2]) > 0.0


@pytest.mark.parametrize("n", [1, 2])
def test_step_timing_prints_the_positivity_and_trace_layers(n, capsys):
    # At n=2 also on the spectral grid, the path the 2x2 kernels serve.
    for disc in ("fd2",) if n == 1 else ("fd2", "spectral"):
        argv = ["--n", str(n), "--resolution", "8", "--discretization", disc, "--steps", "1"]
        assert load_script("step_timing.py").main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(f"n={n} N=8 {disc} ")
        positivity = [line for line in lines if line.startswith("positivity+log det: ")]
        trace = [line for line in lines if line.startswith("g_trace: ")]
        assert len(positivity) == len(trace) == 1
        assert positivity[0].split()[3:6] == ["µs", "per", "metric,"]
        assert trace[0].split()[2] == "µs,"
        assert float(positivity[0].split()[2]) > 0.0 and float(trace[0].split()[1]) > 0.0


@pytest.mark.parametrize("n, disc", [(1, "fd2"), (2, "spectral")])
def test_step_timing_prints_the_schwarz_layer(n, disc, capsys):
    argv = ["--n", str(n), "--resolution", "8", "--discretization", disc, "--steps", "1"]
    assert load_script("step_timing.py").main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    schwarz = [line for line in lines if line.startswith("schwarz_margins: median ")]
    assert len(schwarz) == 1
    assert schwarz[0].endswith(" ms over 20 calls at one middle snapshot")
    assert float(schwarz[0].split()[2]) > 0.0


def test_step_timing_times_one_run_flow(monkeypatch, capsys):
    # The steps, snapshots, diagnostics and Schwarz margins it times are
    # run_flow's own, and its timers are gone afterwards; the curvature and
    # model-form kernels the model builds with are never patched.
    run_flow, step, runs = kricci.flow.run_flow, kricci.flow._rk2_step, []

    def counting_run_flow(config):
        runs.append(config)
        return run_flow(config)

    monkeypatch.setattr(kricci.flow, "run_flow", counting_run_flow)
    argv = ["--n", "1", "--resolution", "8", "--discretization", "fd2", "--steps", "2"]
    assert load_script("step_timing.py").main(argv) == 0
    assert len(runs) == 1 and runs[0].diagnostics_every == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("rk2 step: median ") and " over 2 steps," in line for line in lines)
    diagnostics = [line for line in lines if line.startswith("diagnostics: ")]
    assert len(diagnostics) == 1 and diagnostics[0].endswith(" ms over 4 snapshots")
    assert float(diagnostics[0].split()[1]) > 0.0
    assert kricci.flow._rk2_step is step
    assert kricci.flow.curvature_field is kricci.grid.curvature_field
    assert kricci.flow.model_form is kricci.grid.model_form


def load_script(script):
    spec = importlib.util.spec_from_file_location(f"script_{Path(script).stem}", SCRIPTS / script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
