"""The benchmark's tracer wraps kricci functions by name from outside.

``bench/tracing.py`` lists every (module or class, attribute) it replaces in
``INSTRUMENTS``, and its hooks read some arguments by position.  These tests
load that module as it is and check that every entry still resolves and that
a small traced flow, certify and suite run fills the counters the hooks feed.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import kricci.cli
import kricci.suites
from kricci.forms import random_bihermitian
from kricci.io import save_json, save_tensor

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_instrument_resolves(tracing):
    for name, owner, attr, _ in tracing.INSTRUMENTS:
        target = tracing._resolve(owner)
        assert callable(getattr(target, attr, None)), f"{name}: {owner}.{attr} is missing"


def test_traced_run_feeds_every_hook(tracing, tmp_path):
    config = tmp_path / "flow.json"
    save_json(
        config,
        {
            "grid": {"n": 1, "N": 8},
            "background": {"modes": [{"k": [1, 0], "amp": 0.01}]},
            "dt": 1e-3,
            "t_end": 0.01,
            "cadence": 2,
            "checks": {"schwarz": 1e-2, "potential_identities": 1e-2},
        },
    )
    form = tmp_path / "form.json"
    save_tensor(form, random_bihermitian(2, np.random.default_rng(0)))
    originals = [getattr(tracing._resolve(owner), attr) for _, owner, attr, _ in tracing.INSTRUMENTS]
    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        assert kricci.cli.main(["flow", str(config), "--out", str(tmp_path / "out")]) == 0
        cert = str(tmp_path / "cert.json")
        argv = ["certify", str(form), "--k", "2", "--bound", "100", "--out", cert]
        assert kricci.cli.main(argv) == 0
        # Looked up at call time: the tracer replaces module attributes.
        kricci.suites.run_suite(kricci.suites.SuiteConfig(suite="royden", n_values=(2,), count=1))
        kricci.suites.run_suite(
            kricci.suites.SuiteConfig(suite="berger", n_values=(2,), count=1, samples=1000)
        )
    finally:
        tracer.uninstall()
    restored = [getattr(tracing._resolve(owner), attr) for _, owner, attr, _ in tracing.INSTRUMENTS]
    assert all(a is b for a, b in zip(originals, restored))
    names = {span[1] for span in tracer.spans}
    for expected in ("flow.step", "flow.rhs", "flow.diagnostics", "flow.schwarz_margins",
                     "grid.dbar_hessian", "grid.smallest_eigenvalues", "suites.case"):
        assert expected in names
    # kricci flow looks every check up in kricci.flow when it runs.
    for check in ("scalar_bound", "schwarz", "potential_identities"):
        assert f"flow.check_{check}" in names, check
    for counter in (
        "grid.points_processed",
        "flow.steps",
        "flow.snapshots",
        "flow.snapshot_bytes",
        "extremes.batch_eval.rows",
        "extremes.batch_eval_grad.calls",
        "extremes.starts",
        "forms.quartic_values.rows",
        "royden.enumerated_terms",
        "suites.cases",
        "io.write_flow_csv.bytes",
    ):
        assert tracer.counts[counter] > 0, counter
