import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import kricci.forms
from kricci.errors import ResourceLimitError
from kricci.extremes import certify_k_ricci
import kricci.royden
from kricci.forms import (
    BihermitianForm,
    CurvatureParams,
    HermitianForm,
    congruence,
    pair_products,
    quartic_values,
    random_bihermitian,
    random_hermitian,
    ricci_trace,
    scalar,
    shift_sigma,
    symmetrize,
)
from kricci.royden import (
    BruteSums,
    berger_check,
    g_unitary_h_diagonal_frame,
    interpolation_check,
    mixed_trace_bounds,
    ric_scalar_matrix,
    royden_identity_check,
    royden_sum_bruteforce,
    sphere_quadrature,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def full_enumeration(S, g, h, rho):
    """Reference for royden_sum_bruteforce: all 4^n phase rows from itertools
    at once, their quartic values from one quartic_values call in one block,
    and h(Z,Z̄), rho(Z,Z̄) from one product of their pair_products rows."""
    _, E = g_unitary_h_diagonal_frame(g, h)
    Z = np.array(list(itertools.product([1, 1j, -1, -1j], repeat=S.n)), dtype=complex) @ E.T
    vecs = np.stack([h.entries.ravel(), rho.entries.ravel()], axis=1)
    hz, rz = (pair_products(Z) @ vecs).real.T
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kricci.forms, "QUARTIC_CHUNK", len(Z))
        quartic = quartic_values(S, Z)
    return BruteSums(
        quartic=float(quartic.sum()),
        metric_quartic=float((hz**2).sum()),
        rho_weighted=float((hz * rz).sum()),
        n_terms=len(Z),
    )


def model_form(h, sigma):
    """-sigma times the model form: every k-Ricci value is -(k+1)*sigma."""
    zero = BihermitianForm(np.zeros((h.n,) * 4, dtype=complex))
    return shift_sigma(zero, h, -sigma)


class TestFrame:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_simultaneous_normalisation(self, n):
        g = random_hermitian(n, rng(n), positive=True)
        h = random_hermitian(n, rng(10 + n), positive=True)
        tau, E = g_unitary_h_diagonal_frame(g, h)
        g_frame = np.einsum("pi,pq,qj->ij", E, g.entries, np.conj(E))
        h_frame = np.einsum("pi,pq,qj->ij", E, h.entries, np.conj(E))
        assert_allclose(g_frame, np.eye(n), atol=1e-12)
        assert_allclose(h_frame, np.diag(tau), atol=1e-12)
        assert np.all(tau > 0)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_h_is_diag_tau_in_the_frame(self, n):
        # mixed_trace_bounds reads tr_g h, |h|_g^2 and <omega_h, rho>_g from tau.
        g = random_hermitian(n, rng(200 + n), positive=True)
        h = random_hermitian(n, rng(210 + n), positive=True)
        tau, E = g_unitary_h_diagonal_frame(g, h)
        h_frame = congruence(E, h.entries)
        off = h_frame - np.diag(np.diagonal(h_frame))
        assert np.max(np.abs(off)) <= 1e-13 * tau.max()
        assert_allclose(np.diagonal(h_frame).real, tau, rtol=0, atol=1e-13 * tau.max())

    def test_rejects_indefinite(self):
        g = HermitianForm(np.diag([1.0, -1.0]))
        h = HermitianForm.identity(2)
        with pytest.raises(ValueError):
            g_unitary_h_diagonal_frame(g, h)

    def test_positivity_is_proved_with_no_eigvalsh(self, monkeypatch):
        # g by its Cholesky frame, h by its spectrum tau in that frame.
        def forbidden(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        g = random_hermitian(3, rng(220), positive=True)
        h = random_hermitian(3, rng(221), positive=True)
        tau, E = g_unitary_h_diagonal_frame(g, h)
        assert_allclose(tau, scipy.linalg.eigh(h.entries, g.entries, eigvals_only=True),
                        rtol=1e-12)
        indefinite = HermitianForm(np.diag([2.0, -1e-3, 1.0]))
        with pytest.raises(ValueError, match="^h must be positive definite$"):
            g_unitary_h_diagonal_frame(g, indefinite)
        with pytest.raises(ValueError, match="^metric must be positive definite$"):
            g_unitary_h_diagonal_frame(indefinite, h)


class TestRoydenIdentity:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_random_forms_close_residual(self, n):
        g = random_hermitian(n, rng(20 + n), positive=True)
        h = random_hermitian(n, rng(30 + n), positive=True)
        S = random_bihermitian(n, rng(40 + n))
        rho = random_hermitian(n, rng(50 + n))
        report = royden_identity_check(S, g, h, rho=rho)
        assert report.ok
        assert report.quartic_residual <= 1e-12
        assert report.metric_residual <= 1e-12
        assert report.rho_residual <= 1e-12
        assert report.n_terms == 4**n

    def test_dimension_guard(self):
        n = 9
        g = HermitianForm.identity(n)
        S = BihermitianForm(np.zeros((n,) * 4, dtype=complex))
        with pytest.raises(ResourceLimitError):
            royden_sum_bruteforce(S, g, g, g)

    @pytest.mark.parametrize("n,chunk", [(n, chunk) for n in range(1, 7) for chunk in (None, 2, 4)])
    def test_streamed_sums_equal_the_full_enumeration(self, monkeypatch, n, chunk):
        # Blocks of 2 or 4 rows split even n = 1 into several blocks.
        if chunk is not None:
            monkeypatch.setattr(kricci.forms, "QUARTIC_CHUNK", chunk)
        for seed in range(3):
            r = rng([300 + n, seed])
            g = random_hermitian(n, r, positive=True)
            h = random_hermitian(n, r, positive=True)
            S = random_bihermitian(n, r)
            rho = random_hermitian(n, r)
            assert royden_sum_bruteforce(S, g, h, rho) == full_enumeration(S, g, h, rho)

    def test_one_frame_per_check(self, monkeypatch):
        calls = []
        frame = kricci.royden.g_unitary_h_diagonal_frame
        monkeypatch.setattr(kricci.royden, "g_unitary_h_diagonal_frame",
                            lambda g, h: calls.append(1) or frame(g, h))
        g = random_hermitian(3, rng(320), positive=True)
        h = random_hermitian(3, rng(321), positive=True)
        royden_identity_check(random_bihermitian(3, rng(322)), g, h, random_hermitian(3, rng(323)))
        assert len(calls) == 1

    @pytest.mark.parametrize("n,limit_mib", [(6, 1.5), (8, 4.0)])
    def test_memory_stays_at_a_few_blocks(self, n, limit_mib):
        # Holding all 4^n rows of Z and their pair products at once peaks at
        # 5.3 MiB at n = 6 and 28 MiB at n = 8.
        g = random_hermitian(n, rng(330), positive=True)
        h = random_hermitian(n, rng(331), positive=True)
        S = random_bihermitian(n, rng(332))
        rho = random_hermitian(n, rng(333))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            royden_identity_check(S, g, h, rho)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= limit_mib * 2**20

    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=5000))
    @settings(max_examples=10, deadline=None)
    def test_identity_property(self, n, seed):
        r = np.random.default_rng(seed)
        g = random_hermitian(n, r, positive=True)
        h = random_hermitian(n, r, positive=True)
        S = symmetrize(r.standard_normal((n,) * 4) + 1j * r.standard_normal((n,) * 4))
        assert royden_identity_check(S, g, h, rho=random_hermitian(n, r)).ok


class TestMixedTrace:
    def test_model_equalities_frozen_value(self):
        # n = 2, sigma = 1, g = h, rho = Ric: all three quantities equal -12.
        n, sigma = 2, 1.0
        h = random_hermitian(n, rng(70), positive=True)
        S = model_form(h, sigma)
        rho = ricci_trace(S, h)
        params = CurvatureParams(alpha=1.0, beta=1.0, lam=-(n + 3) * sigma)
        report = mixed_trace_bounds(S, h, h, rho, params)
        assert_allclose(report.lhs, -12.0, rtol=1e-10)
        assert_allclose(report.rhs_coarse, -12.0, rtol=1e-10)
        assert_allclose(report.rhs_refined, -12.0, rtol=1e-10)
        assert report.ok

    @pytest.mark.parametrize("n,sigma", [(2, 0.5), (3, 2.0), (4, 1.0)])
    def test_model_equalities_general(self, n, sigma):
        h = random_hermitian(n, rng(80 + n), positive=True)
        S = model_form(h, sigma)
        rho = ricci_trace(S, h)
        params = CurvatureParams(alpha=1.0, beta=1.0, lam=-(n + 3) * sigma)
        report = mixed_trace_bounds(S, h, h, rho, params)
        expected = -2.0 * sigma * n * (n + 1)
        assert_allclose(report.lhs, expected, rtol=1e-10)
        assert_allclose(report.slack_coarse, 0.0, atol=1e-8)
        assert_allclose(report.slack_refined, 0.0, atol=1e-8)

    def test_random_form_with_certified_level(self):
        # Certify the pointwise level of alpha*h*rho + beta*S, then both
        # averaged bounds must hold with nonnegative slack.
        n = 3
        alpha, beta = 0.7, 1.3
        h = random_hermitian(n, rng(90), positive=True)
        g = random_hermitian(n, rng(91), positive=True)
        S = random_bihermitian(n, rng(92))
        rho = random_hermitian(n, rng(93))
        combined = symmetrize(
            beta * S.entries
            + alpha * np.einsum("ij,kl->ijkl", h.entries, rho.entries)
        )
        lam = certify_k_ricci(combined, h, 1, bound=np.inf, rng=rng(94)).value
        params = CurvatureParams(alpha=alpha, beta=beta, lam=lam + 1e-9)
        report = mixed_trace_bounds(S, g, h, rho, params)
        assert report.ok
        assert report.slack_coarse >= -1e-8
        assert report.slack_refined >= -1e-8

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_right_sides_match_full_frame_matrices(self, n):
        # Reference: tr_g h, |h|_g^2 and <omega_h, rho>_g from the full
        # matrices of h and rho in the frame, not from tau.
        g = random_hermitian(n, rng(230 + n), positive=True)
        h = random_hermitian(n, rng(240 + n), positive=True)
        S = random_bihermitian(n, rng(250 + n))
        rho = random_hermitian(n, rng(260 + n))
        params = CurvatureParams(alpha=0.7, beta=1.3, lam=0.4)
        report = mixed_trace_bounds(S, g, h, rho, params)
        _, E = g_unitary_h_diagonal_frame(g, h)
        hf = np.einsum("pi,pq,qj->ij", E, h.entries, np.conj(E))
        rf = np.einsum("pi,pq,qj->ij", E, rho.entries, np.conj(E))
        tr_h, tr_rho = np.trace(hf).real, np.trace(rf).real
        norm2, pairing = np.sum(np.abs(hf) ** 2), np.trace(hf @ rf).real
        refined = (0.4 * (tr_h**2 + norm2) - 0.7 * (tr_h * tr_rho + pairing)) / 1.3
        coarse = (0.4 * tr_h**2 - 0.7 * tr_h * tr_rho) / 1.3 + quartic_values(S, E.T).sum()
        scale = 1.0 + abs(refined) + abs(coarse) + abs(report.lhs)
        assert abs(report.rhs_refined - refined) <= 1e-13 * scale
        assert abs(report.rhs_coarse - coarse) <= 1e-13 * scale


class TestInterpolation:
    def test_model_equality(self):
        n, k, sigma = 3, 2, 0.9
        h = random_hermitian(n, rng(100), positive=True)
        S = model_form(h, sigma)
        X = rng(101).standard_normal((20, n)) + 1j * rng(102).standard_normal((20, n))
        report = interpolation_check(S, h, k, sigma, X)
        assert report.ok
        assert_allclose(report.margins, 0.0, atol=1e-8)

    def test_detects_violation(self):
        n, k = 3, 2
        h = random_hermitian(n, rng(103), positive=True)
        S = model_form(h, -1.0)  # positive curvature model
        X = rng(104).standard_normal((5, n)) + 1j * rng(105).standard_normal((5, n))
        report = interpolation_check(S, h, k, sigma=1.0, directions=X)
        assert not report.ok
        assert report.worst_margin < 0

    def test_rejects_zero_direction(self):
        h = HermitianForm.identity(2)
        S = model_form(h, 1.0)
        with pytest.raises(ValueError):
            interpolation_check(S, h, 1, 1.0, np.zeros((1, 2)))


class TestRicScalar:
    def test_model_matrix_vanishes(self):
        for n, k, sigma in [(2, 2, 1.0), (3, 2, 0.5), (4, 3, 2.0)]:
            h = random_hermitian(n, rng(110 + n), positive=True)
            S = model_form(h, sigma)
            report = ric_scalar_matrix(S, h, k, sigma)
            assert_allclose(report.matrix, 0.0, atol=1e-8)
            assert report.ok

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_eigenvalues_against_generalized_eigh(self, n):
        # scipy's generalized solver is the independent reference for the
        # reduction to Eᵀ D conj(E) in the h-unitary frame.
        for k in range(2, n + 1):
            r = rng(170 + 10 * n + k)
            h = random_hermitian(n, r, positive=True)
            S = random_bihermitian(n, r)
            report = ric_scalar_matrix(S, h, k, sigma=r.standard_normal())
            ref = scipy.linalg.eigh(report.matrix, h.entries, eigvals_only=True)
            scale = 1.0 + np.max(np.abs(ref))
            assert_allclose(report.eigenvalues, ref, rtol=0, atol=1e-12 * scale)

    def test_rejects_k_one(self):
        h = HermitianForm.identity(2)
        with pytest.raises(ValueError):
            ric_scalar_matrix(model_form(h, 1.0), h, 1, 1.0)

    def test_detects_positive_direction(self):
        n, k = 3, 2
        h = HermitianForm.identity(n)
        S = model_form(h, -1.0)
        report = ric_scalar_matrix(S, h, k, sigma=1.0)
        assert not report.ok
        assert report.max_eigenvalue > 0


class TestBerger:
    def test_constant_curvature_is_exact(self):
        n, sigma = 3, 1.2
        h = random_hermitian(n, rng(120), positive=True)
        S = model_form(h, sigma)
        report = berger_check(S, h, samples=500, rng=rng(121))
        assert report.ok
        assert_allclose(report.estimate, report.scalar, rtol=1e-10)
        assert report.std_error <= 1e-12

    def test_random_form_within_three_sigma(self):
        n = 3
        h = random_hermitian(n, rng(122), positive=True)
        S = random_bihermitian(n, rng(123))
        report = berger_check(S, h, samples=200_000, rng=rng(124))
        assert report.ok
        assert report.std_error > 0
        assert abs(report.estimate - report.scalar) <= 3.0 * report.std_error + 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_quadrature_is_exact(self, n):
        h = random_hermitian(n, rng(125 + n), positive=True)
        S = random_bihermitian(n, rng(130 + n))
        points, weights = sphere_quadrature(h)
        assert points.shape == (n + 2 * n * (n - 1), n)
        assert weights.sum() == pytest.approx(1.0, abs=1e-15)
        quadrature = n * (n + 1) / 2 * float(weights @ quartic_values(S, points))
        assert quadrature == pytest.approx(scalar(S, h), rel=1e-12, abs=1e-12)

    def test_gate_is_exact_where_three_sigma_failed(self):
        # Suite seed 14 draws a correct n=3 instance whose Monte Carlo
        # estimate lies outside 3 standard errors.
        from kricci.suites import SuiteConfig, run_suite

        config = SuiteConfig(suite="berger", n_values=(2, 3), count=1, seed=14, samples=100_000)
        report = run_suite(config)
        assert report.ok and report.pass_count == 2
        assert [case.within_z for case in report.cases] == [True, False]

    def test_monte_carlo_is_opt_in(self):
        h = random_hermitian(3, rng(143), positive=True)
        S = random_bihermitian(3, rng(144))
        generator = rng(145)
        state = generator.bit_generator.state
        exact = berger_check(S, h, rng=generator)
        assert generator.bit_generator.state == state
        sampled = berger_check(S, h, samples=1000, rng=generator)
        assert (exact.ok, exact.scalar, exact.quadrature) == (
            sampled.ok, sampled.scalar, sampled.quadrature
        )
        assert exact.ok and exact.n_samples == 0 and sampled.n_samples == 1000
        assert (exact.estimate, exact.std_error, exact.within_z) == (None, None, None)
        assert sampled.within_z

    @pytest.mark.parametrize("samples", [1, -1])
    def test_rejects_a_sample_count_without_a_standard_error(self, samples):
        h = HermitianForm.identity(2)
        with pytest.raises(ValueError, match="samples"):
            berger_check(model_form(h, 1.0), h, samples=samples)

    def test_perturbed_scalar_fails(self, monkeypatch):
        h = random_hermitian(3, rng(140), positive=True)
        S = random_bihermitian(3, rng(141))
        exact = scalar(S, h)
        monkeypatch.setattr(kricci.royden, "scalar", lambda S, h: exact + 1e-9)
        report = berger_check(S, h, samples=1000, rng=rng(142))
        assert report.within_z
        assert not report.ok
