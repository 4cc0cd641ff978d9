import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

import kricci.extremes
from kricci.extremes import (
    CertifyOptions,
    _batch_eval,
    _chart_gradient,
    _newton_steps,
    _normalize_rows,
    _orthocomplement_batch,
    certify_k_ricci,
    h_orthocomplement,
    k_ricci_extreme_at,
    k_ricci_on,
)
from kricci.forms import (
    BihermitianForm,
    HermitianForm,
    b_form,
    cholesky_frame,
    frame_traces,
    hsc,
    quartic_values,
    random_bihermitian,
    random_hermitian,
    ricci_trace,
    shift_sigma,
    symmetrize,
    unit_sphere_samples,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def random_unit(h, seed):
    return unit_sphere_samples(h, 1, rng(seed))[0]


class TestOrthocomplement:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_frame_properties(self, n):
        h = random_hermitian(n, rng(n), positive=True)
        X = random_unit(h, 100 + n)
        Q = h_orthocomplement(h, X)
        assert Q.shape == (n, n - 1)
        gram = np.einsum("pi,pq,qj->ij", Q, h.entries, np.conj(Q))
        assert_allclose(gram, np.eye(n - 1), atol=1e-12)
        overlap = np.einsum("p,pq,qj->j", X, h.entries, np.conj(Q))
        assert_allclose(overlap, 0.0, atol=1e-12)

    def test_first_coordinate_zero_direction(self):
        # Exercises the branch where the flat first coordinate vanishes.
        h = HermitianForm.identity(3)
        X = np.array([0.0, 1.0, 0.0], dtype=complex)
        Q = h_orthocomplement(h, X)
        overlap = np.einsum("p,pj->j", X, np.conj(Q))
        assert_allclose(overlap, 0.0, atol=1e-14)


class TestKRicciValues:
    def test_model_value_is_minus_kplus1_sigma(self):
        # S = -sigma * B(h) has every k-Ricci value equal to -(k+1)*sigma.
        for n, sigma in [(2, 0.7), (4, 1.5)]:
            h = random_hermitian(n, rng(200 + n), positive=True)
            S = shift_sigma(
                type(b_form(h))(np.zeros((n,) * 4, dtype=complex)), h, -sigma
            )
            X = random_unit(h, 300 + n)
            for k in range(1, n + 1):
                val, basis = k_ricci_extreme_at(S, h, X, k)
                assert_allclose(val, -(k + 1) * sigma, rtol=1e-10)
                assert_allclose(k_ricci_on(S, h, basis), val, rtol=1e-10)

    def test_k1_is_hsc(self):
        h = random_hermitian(3, rng(1), positive=True)
        S = random_bihermitian(3, rng(2))
        X = random_unit(h, 3)
        val, _ = k_ricci_extreme_at(S, h, X, 1)
        assert_allclose(val, hsc(S, h, X), rtol=1e-10)

    def test_kn_is_ricci(self):
        # Over the full space the value is the Ricci form at the direction.
        n = 4
        h = random_hermitian(n, rng(4), positive=True)
        S = random_bihermitian(n, rng(5))
        X = random_unit(h, 6)
        val, _ = k_ricci_extreme_at(S, h, X, n)
        ric_x = ricci_trace(S, h)(X)
        assert abs(ric_x.imag) <= 1e-12 * abs(ric_x)
        assert_allclose(val, ric_x.real, rtol=1e-9)

    def test_max_dominates_min_and_any_frame(self):
        n, k = 4, 2
        h = random_hermitian(n, rng(7), positive=True)
        S = random_bihermitian(n, rng(8))
        X = random_unit(h, 9)
        hi, _ = k_ricci_extreme_at(S, h, X, k, "max")
        lo, _ = k_ricci_extreme_at(S, h, X, k, "min")
        assert hi >= lo
        # A frame completed with arbitrary orthocomplement vectors sits between.
        Q = h_orthocomplement(h, X)
        from kricci.forms import SubspaceBasis

        basis = SubspaceBasis(np.column_stack([X, Q[:, 0]]), h)
        mid = k_ricci_on(S, h, basis)
        assert lo - 1e-10 <= mid <= hi + 1e-10

    def test_witness_attains_value(self):
        h = random_hermitian(5, rng(10), positive=True)
        S = random_bihermitian(5, rng(11))
        X = random_unit(h, 12)
        val, basis = k_ricci_extreme_at(S, h, X, 3)
        assert_allclose(k_ricci_on(S, h, basis), val, rtol=1e-9, atol=1e-12)

    def test_scale_invariance_in_direction(self):
        h = random_hermitian(3, rng(13), positive=True)
        S = random_bihermitian(3, rng(14))
        X = random_unit(h, 15)
        v1, _ = k_ricci_extreme_at(S, h, X, 2)
        v2, _ = k_ricci_extreme_at(S, h, 3.7j * X, 2)
        assert_allclose(v2, v1, rtol=1e-10)

    def test_rejects_bad_k(self):
        h = random_hermitian(2, rng(16), positive=True)
        S = random_bihermitian(2, rng(17))
        with pytest.raises(ValueError):
            k_ricci_extreme_at(S, h, np.array([1.0, 0.0]), 3)
        with pytest.raises(ValueError):
            k_ricci_extreme_at(S, h, np.array([1.0, 0.0]), 0)


# Every (n, k) with n in {2, 3, 4} and 1 <= k <= n.
BATCH_CASES = [(n, k) for n in (2, 3, 4) for k in range(1, n + 1)]


class TestBatchEval:
    def test_matches_single_point_route(self):
        for n, k in BATCH_CASES:
            h = random_hermitian(n, rng(20 + n), positive=True)
            S = random_bihermitian(n, rng(21 + n))
            X = unit_sphere_samples(h, 9, rng(22 + n))
            L, E = cholesky_frame(h)
            (fb,) = _batch_eval(S.entries, h.entries, L, E, X, k)
            singles = [k_ricci_extreme_at(S, h, x, k)[0] for x in X]
            assert_allclose(fb, singles, rtol=1e-10, err_msg=f"n={n} k={k}")

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_gradient_against_finite_differences(self, k):
        for n in range(max(k, 2), 5):
            h = random_hermitian(n, rng(30 + k + 10 * n), positive=True)
            S = random_bihermitian(n, rng(40 + k + 10 * n))
            H = h.entries
            L, E = cholesky_frame(h)
            X = unit_sphere_samples(h, 1, rng(50 + k + 10 * n))

            def value(x):
                return _batch_eval(S.entries, H, L, E, x[None, :], k)[0][0]

            f0, G = _batch_eval(S.entries, H, L, E, X, k, with_grad=True)
            G = G[0]
            x0 = X[0]
            r = rng(60 + k + 10 * n)
            for _ in range(4):
                d = r.standard_normal(n) + 1j * r.standard_normal(n)
                # Tangent of the normalised curve t -> (x0 + t d)/|x0 + t d|_h.
                proj = np.einsum("i,ij,j->", d, H, np.conj(x0)).real
                d_tan = d - proj * x0
                t = 1e-6
                xp = x0 + t * d
                xm = x0 - t * d
                xp = xp / np.sqrt(np.einsum("i,ij,j->", xp, H, np.conj(xp)).real)
                xm = xm / np.sqrt(np.einsum("i,ij,j->", xm, H, np.conj(xm)).real)
                fd = (value(xp) - value(xm)) / (2 * t)
                predicted = 2.0 * np.einsum("j,j->", np.conj(G), d_tan).real
                assert_allclose(fd, predicted, rtol=5e-5, atol=5e-7, err_msg=f"n={n}")


class TestNewtonSteps:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_chart_gradient_against_finite_differences(self, k):
        n = 3
        h = random_hermitian(n, rng(190 + k), positive=True)
        S = random_bihermitian(n, rng(193 + k))
        H = h.entries
        L, E = cholesky_frame(h)
        X = unit_sphere_samples(h, 1, rng(196 + k))
        Q = _orthocomplement_batch(L, E, X)
        B = np.concatenate([Q, 1j * Q], axis=2)
        c0 = rng(199 + k).standard_normal(2 * n - 2) * 0.1
        Y = X + B @ c0
        norm = np.sqrt(np.einsum("bi,ij,bj->b", Y, H, np.conj(Y)).real)
        f, G = _batch_eval(S.entries, H, L, E, Y / norm[:, None], k, with_grad=True)
        g = _chart_gradient(G, Y / norm[:, None], B, H, norm)[0]

        def value(c):
            return _batch_eval(S.entries, H, L, E, _normalize_rows(X + B @ c, H), k)[0][0]

        t = 1e-6
        for i in range(2 * n - 2):
            e = np.zeros(2 * n - 2)
            e[i] = t
            fd = (value(c0 + e) - value(c0 - e)) / (2 * t)
            assert_allclose(g[i], fd, rtol=1e-5, atol=1e-7, err_msg=f"k={k} i={i}")

    @pytest.mark.parametrize("k", [1, 2])
    def test_steps_converge_quadratically_to_a_maximum(self, k):
        n = 3
        h = random_hermitian(n, rng(200 + k), positive=True)
        S = random_bihermitian(n, rng(203 + k))
        H = h.entries
        L, E = cholesky_frame(h)
        cert = certify_k_ricci(S, h, k, bound=np.inf, rng=rng(k))
        top = cert.witness.columns[:, 0]
        X = _normalize_rows(unit_sphere_samples(h, 1, rng(206 + k)) * 1e-2 + top, H)
        gaps = []
        for _ in range(3):
            f, G = _batch_eval(S.entries, H, L, E, X, k, with_grad=True)
            gaps.append(cert.value - f[0])
            took, X, f = _newton_steps(S.entries, H, L, E, X, f, G, k)
            assert took.tolist() == [0]
        assert gaps[0] > 1e-7
        assert gaps[1] < 1e-3 * gaps[0]
        assert abs(cert.value - f[0]) <= 1e-13 * (1 + abs(cert.value))

    @pytest.mark.parametrize("k", [1, 2])
    def test_newton_frames_built_once(self, k, monkeypatch):
        # At k >= 2 the objective's orthocomplement frames are the Newton
        # tangent bases; at k = 1 the objective builds none, so Newton does.
        callers = []
        build = kricci.extremes._orthocomplement_batch

        def counted(L, E, X):
            callers.append(sys._getframe(1).f_code.co_name)
            return build(L, E, X)

        monkeypatch.setattr(kricci.extremes, "_orthocomplement_batch", counted)
        n = 3
        h = random_hermitian(n, rng(210 + k), positive=True)
        S = random_bihermitian(n, rng(213 + k))
        cert = certify_k_ricci(S, h, k, bound=np.inf, rng=rng(k))
        assert cert.n_small_gradient == CertifyOptions().starts
        assert ("_newton_steps" in callers) == (k == 1)

    @pytest.mark.parametrize("k", [1, 2])
    def test_starts_are_scored_once(self, k, monkeypatch):
        # The starts keep their presweep scores: with no iterations the
        # presweep is the only batch evaluation.
        rows = []
        evaluate = kricci.extremes._batch_eval

        def counted(T, H, L, E, X, k, **kwargs):
            rows.append(X.shape[0])
            return evaluate(T, H, L, E, X, k, **kwargs)

        monkeypatch.setattr(kricci.extremes, "_batch_eval", counted)
        n = 3
        h = random_hermitian(n, rng(230 + k), positive=True)
        S = random_bihermitian(n, rng(233 + k))
        options = CertifyOptions(max_iter=0)
        cert = certify_k_ricci(S, h, k, bound=np.inf, options=options, rng=rng(k))
        assert rows == [options.presweep]
        assert (cert.iterations, cert.n_converged, cert.status) == (0, 0, "inconclusive")

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_passed_frames_give_the_same_steps(self, k):
        n = 3
        h = random_hermitian(n, rng(220 + k), positive=True)
        S = random_bihermitian(n, rng(223 + k))
        H = h.entries
        L, E = cholesky_frame(h)
        cert = certify_k_ricci(S, h, k, bound=np.inf, rng=rng(k))
        X = _normalize_rows(unit_sphere_samples(h, 5, rng(226 + k)) * 1e-2
                            + cert.witness.columns[:, 0], H)
        f, G = _batch_eval(S.entries, H, L, E, X, k, with_grad=True)
        Q = _orthocomplement_batch(L, E, X)
        built = _newton_steps(S.entries, H, L, E, X, f, G, k)
        passed = _newton_steps(S.entries, H, L, E, X, f, G, k, Q)
        assert built[0].size > 0
        for a, b in zip(built, passed):
            np.testing.assert_array_equal(a, b)


@pytest.mark.usefixtures("forbid_einsum_path")
class TestNoEinsumPathPlanning:
    """The certifier's and the quartic sweep's kernels are plain matmuls."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("with_grad", [False, True])
    def test_batch_eval(self, k, with_grad):
        n = 3
        h = random_hermitian(n, rng(120 + k), positive=True)
        S = random_bihermitian(n, rng(130 + k))
        L, E = cholesky_frame(h)
        X = unit_sphere_samples(h, 11, rng(140 + k))
        out = _batch_eval(S.entries, h.entries, L, E, X, k, with_grad=with_grad)
        assert len(out) == (2 if with_grad else 1)
        assert np.all(np.isfinite(out[0]))

    def test_quartic_values_and_frame_components(self):
        n = 3
        h = random_hermitian(n, rng(150), positive=True)
        S = random_bihermitian(n, rng(151))
        X = unit_sphere_samples(h, 11, rng(152))
        assert np.all(np.isfinite(quartic_values(S, X)))
        # The diagonal trace sums S(E_i, Ē_i, E_i, Ē_i) over the frame columns.
        E = cholesky_frame(h)[1]
        mixed, diag = frame_traces(S, E)
        assert type(mixed) is float and type(diag) is float
        assert_allclose(diag, quartic_values(S, E.T).sum(), rtol=1e-12)


class TestCertify:
    def test_model_form_certificate_is_tight(self):
        n, k, sigma = 3, 2, 0.8
        h = random_hermitian(n, rng(70), positive=True)
        zero = random_bihermitian(n, rng(71), scale=0.0)
        S = shift_sigma(zero, h, -sigma)
        cert = certify_k_ricci(S, h, k, bound=-(k + 1) * sigma, rng=rng(72))
        assert cert.status == "satisfied"
        assert_allclose(cert.value, -(k + 1) * sigma, rtol=1e-9)
        assert abs(cert.margin) <= 1e-8

    def test_detects_violation(self):
        n, k = 3, 2
        h = random_hermitian(n, rng(73), positive=True)
        S = random_bihermitian(n, rng(74))
        # Certified max against an impossible bound far below the true sup.
        probe = certify_k_ricci(S, h, k, bound=np.inf, rng=rng(75))
        cert = certify_k_ricci(S, h, k, bound=probe.value - 1.0, rng=rng(76))
        assert cert.status == "violated"
        assert cert.margin < -0.5
        assert_allclose(k_ricci_on(S, h, cert.witness), cert.value, rtol=1e-8)

    def test_optimum_beats_dense_sampling(self):
        n, k = 3, 2
        opts = CertifyOptions(starts=32, presweep=256, max_iter=150)
        for seed in range(3):
            h = random_hermitian(n, rng(80 + seed), positive=True)
            S = random_bihermitian(n, rng(90 + seed))
            cert = certify_k_ricci(S, h, k, bound=np.inf, options=opts, rng=rng(seed))
            L, E = cholesky_frame(h)
            sample = unit_sphere_samples(h, 20_000, rng(100 + seed))
            vals = _batch_eval(S.entries, h.entries, L, E, sample, k)[0]
            assert cert.value >= vals.max() - 1e-7

    def test_deterministic_under_seed(self):
        n, k = 3, 2
        h = random_hermitian(n, rng(110), positive=True)
        S = random_bihermitian(n, rng(111))
        a = certify_k_ricci(S, h, k, bound=0.0, rng=rng(7))
        b = certify_k_ricci(S, h, k, bound=0.0, rng=rng(7))
        assert a.value == b.value
        assert a.status == b.status
        assert_allclose(a.witness.columns, b.witness.columns, atol=0)

    def test_k1_certify_matches_hsc_sampling(self):
        n = 2
        h = random_hermitian(n, rng(112), positive=True)
        S = random_bihermitian(n, rng(113))
        cert = certify_k_ricci(S, h, 1, bound=np.inf, rng=rng(114))
        sample = unit_sphere_samples(h, 5000, rng(115))
        best = max(hsc(S, h, x) for x in sample)
        assert cert.value >= best - 1e-7

    def test_model_form_exits_by_small_gradient_from_every_start(self):
        # The objective is constant on a model form, so every start stops at
        # its first gradient evaluation.
        n, k, sigma = 3, 2, 0.6
        h = random_hermitian(n, rng(160), positive=True)
        S = shift_sigma(random_bihermitian(n, rng(161), scale=0.0), h, -sigma)
        opts = CertifyOptions()
        cert = certify_k_ricci(S, h, k, bound=-(k + 1) * sigma, options=opts, rng=rng(162))
        assert cert.n_small_gradient == opts.starts
        assert cert.n_stalled == 0
        assert cert.n_converged == opts.starts
        assert cert.iterations == 1

    def test_random_form_reports_both_exit_reasons(self):
        # S = -sigma B(h) + (eps/2)(a ⊗ h + h ⊗ a) with a = |<·, u>_h|^2 has the
        # value -2 sigma + eps |<X, u>_h|^2 at k=1, so its maximum is attained
        # on the whole projective line orthogonal to u.  The tangent Hessian is
        # singular there, no Newton step is taken near it, and Armijo steps end
        # up comparing values that differ only by roundoff: some starts stall.
        # Which starts stall turns on roundoff; at seed 7 three of them do.
        n, k, sigma, eps, seed = 3, 1, 0.5, -1.0, 7
        r = rng(seed)
        h = random_hermitian(n, r, positive=True)
        u = unit_sphere_samples(h, 1, r)[0]
        w = h.entries @ np.conj(u)
        a = np.outer(w, np.conj(w))
        T = 0.5 * eps * (
            np.einsum("ij,kl->ijkl", a, h.entries) + np.einsum("ij,kl->ijkl", h.entries, a)
        )
        S = shift_sigma(symmetrize(T), h, -sigma)
        cert = certify_k_ricci(S, h, k, bound=np.inf, rng=rng(seed))
        assert_allclose(cert.value, -2 * sigma, rtol=1e-12)
        assert cert.n_small_gradient > 0
        assert cert.n_stalled > 0
        assert cert.n_small_gradient + cert.n_stalled == cert.n_converged
        assert cert.n_converged <= CertifyOptions().starts

    @pytest.mark.parametrize("k", [1, 2])
    def test_random_forms_exit_by_small_gradient_within_budget(self, k):
        n = 3
        opts = CertifyOptions()
        for seed in range(3):
            r = rng(170 + seed)
            h = random_hermitian(n, r, positive=True)
            S = random_bihermitian(n, r)
            cert = certify_k_ricci(S, h, k, bound=np.inf, options=opts, rng=rng(seed))
            assert cert.n_small_gradient == opts.starts, f"seed {seed}"
            assert cert.n_stalled == 0
            assert cert.iterations < opts.max_iter

    @pytest.mark.parametrize("k", [1, 2])
    def test_certificate_does_not_depend_on_units(self, k):
        # Under S -> λS, h -> μh the values scale by λ/μ²; the ascent runs on
        # S/max|S| and h/max|h|, so it takes the same path in any units.
        r = rng(300)
        S, h = random_bihermitian(3, r), random_hermitian(3, r, positive=True)
        base = certify_k_ricci(S, h, k, bound=np.inf, rng=rng(0))
        for lam in (1e-4, 1.0, 1e4):
            for mu in (1e-4, 1e-2, 1.0, 1e2, 1e4):
                scaled = (BihermitianForm(lam * S.entries), HermitianForm(mu * h.entries))
                cert = certify_k_ricci(*scaled, k, bound=np.inf, rng=rng(0))
                assert (cert.status, cert.iterations) == (base.status, base.iterations)
                assert (cert.n_small_gradient, cert.n_stalled) == (
                    base.n_small_gradient, base.n_stalled)
                assert_allclose(cert.value * mu**2 / lam, base.value, rtol=1e-12)

    def test_satisfied_needs_the_reported_start_to_converge(self):
        # After 4 iterations one start has converged, but the best value comes
        # from a start that has not.
        r = rng(2)
        S, h = random_bihermitian(3, r), random_hermitian(3, r, positive=True)
        opts = CertifyOptions(max_iter=4)
        short = certify_k_ricci(S, h, 1, bound=np.inf, options=opts, rng=rng(2))
        assert short.n_converged == 1
        assert short.status == "inconclusive"
        assert certify_k_ricci(S, h, 1, bound=np.inf, rng=rng(2)).status == "satisfied"

    def test_flat_ridge_form_certifies(self):
        # A form whose k=1 maximum plain gradient ascent approaches too slowly
        # to certify within the default budget (2.669103710474, reached after
        # thousands of iterations).
        raw_rng = np.random.default_rng([2020, 10])
        raw = raw_rng.standard_normal((3,) * 4) + 1j * raw_rng.standard_normal((3,) * 4)
        S = symmetrize(raw)
        h = HermitianForm.identity(3)
        cert = certify_k_ricci(S, h, 1, bound=2.669103710474, rng=rng(0))
        assert cert.status == "satisfied"
        assert abs(cert.value - 2.669103710474) <= 1e-9
        assert cert.n_small_gradient == CertifyOptions().starts


class TestCertifyInputs:
    @pytest.mark.parametrize("tol", [np.nan, np.inf, -5.0])
    def test_options_reject_bad_value_tol(self, tol):
        with pytest.raises(ValueError, match="value_tol"):
            CertifyOptions(value_tol=tol)

    @pytest.mark.parametrize("bound", [0.0, np.inf])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_is_inconclusive(self, value, bound, monkeypatch):
        # A NaN fails every comparison, so the verdict must not rest on
        # value > bound + value_tol alone.
        extreme_at = kricci.extremes.k_ricci_extreme_at

        def non_finite(*args):
            return value, extreme_at(*args)[1]

        monkeypatch.setattr(kricci.extremes, "k_ricci_extreme_at", non_finite)
        S = random_bihermitian(3, rng(181))
        cert = certify_k_ricci(S, HermitianForm.identity(3), 1, bound=bound, rng=rng(0))
        assert cert.n_converged > 0
        assert cert.status == "inconclusive"

    def test_zero_form_certifies_zero(self):
        # The ascent divides S by max|S|, which is 0 for a zero form.
        S = BihermitianForm(np.zeros((3,) * 4))
        cert = certify_k_ricci(S, HermitianForm.identity(3), 2, bound=0.0, rng=rng(0))
        assert (cert.status, cert.value) == ("satisfied", 0.0)

    def test_rejects_nan_bound_accepts_inf(self):
        h = HermitianForm.identity(2)
        S = random_bihermitian(2, rng(180))
        with pytest.raises(ValueError, match="bound"):
            certify_k_ricci(S, h, 1, bound=np.nan, rng=rng(0))
        cert = certify_k_ricci(S, h, 1, bound=np.inf, rng=rng(0))
        assert cert.status == "satisfied"
