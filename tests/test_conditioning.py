"""The algebra kernels return on valid but ill-conditioned metrics.

A form is checked for its symmetries once, when it is built, so no kernel
re-checks the reality of its own output or compares two routes that differ
only by roundoff.  On n = 3 metrics with condition number 1e6 and 1e8 every
kernel below returns finite values, and the certifier's witness frame passes
the h-orthonormality check of ``SubspaceBasis``.  The scalar curvature and
the sphere quadrature are read in the same Cholesky frame, so Berger's
identity holds at roundoff at any condition number.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kricci.cli import main
from kricci.extremes import certify_k_ricci, k_ricci_on
from kricci.forms import HermitianForm, random_bihermitian, ricci_trace, scalar
from kricci.io import save_tensor
from kricci.royden import berger_check, interpolation_check, ric_scalar_matrix

N = 3
CONDS = [1e6, 1e8]
SEEDS = range(3)


def ill_conditioned(cond, seed, n=N):
    """A random form and a metric with eigenvalues 1 .. 1/cond in a random
    unitary frame."""
    r = np.random.default_rng(seed)
    A = r.standard_normal((n, n)) + 1j * r.standard_normal((n, n))
    U = np.linalg.qr(A)[0]
    h = HermitianForm((U * np.geomspace(1.0, 1.0 / cond, n)) @ U.conj().T)
    return random_bihermitian(n, r), h


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("cond", CONDS)
def test_trace_kernels_return(cond, seed):
    S, h = ill_conditioned(cond, seed)
    ric = ricci_trace(S, h)
    assert np.isfinite(ric.entries).all()
    assert np.isfinite(scalar(S, h))
    berger = berger_check(S, h)
    assert np.isfinite([berger.scalar, berger.quadrature]).all()
    X = np.random.default_rng(seed).standard_normal((4, N)) + 0j
    assert np.isfinite(interpolation_check(S, h, 2, 0.1, X).margins).all()
    assert np.isfinite(ric_scalar_matrix(S, h, 2, 0.1).eigenvalues).all()


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("cond", CONDS)
def test_berger_identity_holds(cond, n):
    for seed in range(20):
        S, h = ill_conditioned(cond, seed, n)
        report = berger_check(S, h)
        assert report.ok, (seed, report.scalar, report.quadrature)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("cond", CONDS)
def test_certifier_returns_a_valid_witness(cond, seed, k):
    S, h = ill_conditioned(cond, seed)
    cert = certify_k_ricci(S, h, k, bound=np.inf, rng=np.random.default_rng(seed))
    assert cert.status in ("satisfied", "inconclusive")
    assert np.isfinite(cert.value)
    assert cert.witness.k == k
    assert_allclose(k_ricci_on(S, h, cert.witness), cert.value, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("cond", CONDS)
def test_cli_certify_on_an_ill_conditioned_metric_prints_a_status(cond, tmp_path, capsys):
    S, h = ill_conditioned(cond, 0)
    save_tensor(tmp_path / "form.json", S)
    save_tensor(tmp_path / "metric.json", h)
    code = main(
        ["certify", str(tmp_path / "form.json"), "--metric", str(tmp_path / "metric.json"),
         "--k", "2", "--bound", "0"]
    )
    captured = capsys.readouterr()
    assert code in (0, 1)
    assert captured.out.startswith("status=")
    assert captured.err == ""
