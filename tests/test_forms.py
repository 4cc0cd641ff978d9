import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import kricci.forms
from kricci.forms import (
    BihermitianForm,
    CurvatureParams,
    HermitianForm,
    SubspaceBasis,
    b_form,
    cholesky_frame,
    congruence,
    frame_traces,
    hermitian_eval,
    hsc,
    norm_h,
    pair_products,
    pairing_matrix,
    quartic_values,
    random_bihermitian,
    random_hermitian,
    ricci_trace,
    row_blocks,
    scalar,
    shift_sigma,
    symmetrize,
    unit_sphere_samples,
    validate_symmetries,
)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestHermitianForm:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            HermitianForm(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_evaluation_convention(self):
        # h = diag(1, 2): h(e1, ē2) = 0, h(e2, ē2) = 2, and the first slot is
        # the linear one.
        h = HermitianForm(np.diag([1.0, 2.0]))
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        assert h(e1, e2) == 0.0
        assert h(e2, e2) == 2.0
        assert h(2j * e2, e2) == 4j
        assert h(e2, 2j * e2) == -4j

    def test_positive_definite_check(self):
        h = HermitianForm(np.diag([1.0, 2.0]))
        assert h.require_positive() is h
        with pytest.raises(ValueError, match="^h must be positive definite$"):
            HermitianForm(np.diag([1.0, -2.0])).require_positive("h")

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite_entries(self, value):
        # A NaN passes the Hermiticity test and numpy's Cholesky factorization.
        A = np.eye(3, dtype=complex)
        A[1, 2] = A[2, 1] = value
        with pytest.raises(ValueError, match="NaN or infinite"):
            HermitianForm(A)


class TestPositivityByCholesky:
    """A single form has one positivity proof, the Cholesky factorization of
    its frame: no eigenvalue routine runs."""

    @pytest.fixture(autouse=True)
    def forbid_eigvalsh(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)

    INDEFINITE = np.diag([1.0, -1e-3, 2.0])

    def test_require_positive(self):
        h = random_hermitian(3, rng(400), positive=True)
        assert h.require_positive("h") is h
        with pytest.raises(ValueError, match="^h must be positive definite$"):
            HermitianForm(self.INDEFINITE).require_positive("h")

    def test_ricci_trace_and_scalar(self):
        h = random_hermitian(3, rng(401), positive=True)
        S = random_bihermitian(3, rng(402))
        ric = ricci_trace(S, h)
        ref = np.einsum("abkl,lk->ab", S.entries, np.linalg.inv(h.entries))
        assert_allclose(ric.entries, ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))
        # 𝒮 is the mixed trace in the Cholesky frame, the frame that proves h
        # positive; the LU route tr(Ric h⁻¹) agrees to roundoff.
        assert scalar(S, h) == frame_traces(S, cholesky_frame(h)[1])[0]
        lu = np.trace(ric.entries @ np.linalg.inv(h.entries)).real
        assert_allclose(scalar(S, h), lu, rtol=1e-13)
        for kernel in (ricci_trace, scalar):
            with pytest.raises(ValueError, match="^metric must be positive definite$"):
                kernel(S, HermitianForm(self.INDEFINITE))


class TestSymmetrize:
    def test_n1_mixed_entry(self):
        # In one dimension both relations force a real value, so 2+3i
        # symmetrizes to 2.
        raw = np.array([[[[2.0 + 3.0j]]]])
        S = symmetrize(raw)
        assert_allclose(S.entries, [[[[2.0]]]], atol=1e-15)

    def test_output_satisfies_both_relations(self):
        raw = rng(1).standard_normal((3,) * 4) + 1j * rng(2).standard_normal((3,) * 4)
        S = symmetrize(raw)
        report = validate_symmetries(S)
        assert report.ok
        assert report.max_violation <= 1e-13

    def test_idempotent(self):
        S = random_bihermitian(3, rng(3))
        twice = symmetrize(S)
        assert_allclose(twice.entries, S.entries, atol=1e-13)

    def test_detects_broken_symmetry(self):
        S = random_bihermitian(3, rng(4)).entries.copy()
        S[0, 1, 2, 0] += 0.5
        report = validate_symmetries(S)
        assert not report.ok
        assert report.max_violation >= 0.25

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite_entries(self, value):
        # symmetrize would spread a NaN over its symmetry orbit, not repair it.
        T = random_bihermitian(3, rng(5)).entries.copy()
        T[0, 1, 2, 0] = value
        with pytest.raises(ValueError, match="NaN or infinite"):
            BihermitianForm(T)

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_projection_property(self, n, seed):
        raw = np.random.default_rng(seed).standard_normal((n,) * 4) + 1j * (
            np.random.default_rng(seed + 1).standard_normal((n,) * 4)
        )
        S = symmetrize(raw)
        assert validate_symmetries(S, tol=1e-12).ok
        assert_allclose(symmetrize(S).entries, S.entries, atol=1e-12)


class TestBihermitianBoundary:
    """Both symmetries are checked once, when a form is built, to
    1e-12 max(1, max|T|), and the entries are kept as given."""

    def test_rejects_an_asymmetric_tensor_naming_its_deviation(self):
        T = random_bihermitian(3, rng(410)).entries.copy()
        T[0, 1, 2, 0] += 0.5
        with pytest.raises(ValueError, match=r"not bihermitian .* violation 5\.000e-01$"):
            BihermitianForm(T)

    def test_rejects_a_tensor_without_the_unbarred_swap(self):
        # a ⊗ h is Hermitian in each slot pair but not symmetric under i <-> k.
        h = random_hermitian(3, rng(411), positive=True).entries
        a = random_hermitian(3, rng(412)).entries
        T = np.einsum("ij,kl->ijkl", a, h)
        with pytest.raises(ValueError, match="not bihermitian"):
            BihermitianForm(T)
        assert validate_symmetries(symmetrize(T)).ok

    def test_keeps_entries_as_given(self):
        T = random_bihermitian(3, rng(413)).entries.copy()
        T[0, 1, 2, 0] += 1e-14
        assert_array_equal(BihermitianForm(T).entries, T)

    def test_tolerance_scales_with_the_largest_entry(self):
        S = random_bihermitian(3, rng(414)).entries
        T = S.copy()
        T[0, 1, 2, 0] += 1e-9
        with pytest.raises(ValueError, match="not bihermitian"):
            BihermitianForm(T)
        T = 1e6 * S
        T[0, 1, 2, 0] += 1e-9
        BihermitianForm(T)


class TestBForm:
    def test_identity_entries(self):
        B = b_form(HermitianForm.identity(2))
        # B[i,j,k,l] = δ_ij δ_kl + δ_il δ_kj
        assert B.entries[0, 0, 0, 0] == 2.0
        assert B.entries[0, 0, 1, 1] == 1.0
        assert B.entries[0, 1, 1, 0] == 1.0
        assert B.entries[0, 1, 0, 1] == 0.0

    def test_is_symmetric(self):
        h = random_hermitian(3, rng(5), positive=True)
        assert validate_symmetries(b_form(h)).ok

    def test_diagonal_value(self):
        # B(X,X̄,X,X̄) = 2 |X|_h^4 for any X.
        h = random_hermitian(3, rng(6), positive=True)
        B = b_form(h)
        X = rng(7).standard_normal(3) + 1j * rng(8).standard_normal(3)
        val = B(X, X, X, X)
        assert abs(val.imag) <= 1e-12 * abs(val.real)
        assert_allclose(val.real, 2.0 * norm_h(X, h) ** 4, rtol=1e-12)

    def test_hsc_of_model_is_two(self):
        h = random_hermitian(4, rng(9), positive=True)
        X = rng(10).standard_normal(4) + 1j * rng(11).standard_normal(4)
        assert_allclose(hsc(b_form(h), h, X), 2.0, rtol=1e-12)


class TestRicciAndScalar:
    def test_model_ricci_is_n_plus_one(self):
        for n in (1, 2, 4):
            h = random_hermitian(n, rng(20 + n), positive=True)
            ric = ricci_trace(b_form(h), h)
            assert_allclose(ric.entries, (n + 1) * h.entries, rtol=1e-12, atol=1e-12)

    def test_model_scalar_is_n_times_n_plus_one(self):
        for n in (1, 2, 4):
            h = random_hermitian(n, rng(30 + n), positive=True)
            assert_allclose(scalar(b_form(h), h), n * (n + 1), rtol=1e-12)

    def test_ricci_is_hermitian(self):
        h = random_hermitian(3, rng(40), positive=True)
        S = random_bihermitian(3, rng(41))
        ric = ricci_trace(S, h).entries
        assert_allclose(ric, ric.conj().T, atol=1e-13)


class TestShiftSigma:
    def test_shifts_hsc_by_two_sigma(self):
        h = random_hermitian(3, rng(50), positive=True)
        S = random_bihermitian(3, rng(51))
        X = rng(52).standard_normal(3) + 1j * rng(53).standard_normal(3)
        sigma = 0.37
        shifted = shift_sigma(S, h, sigma)
        assert_allclose(hsc(shifted, h, X), hsc(S, h, X) + 2.0 * sigma, rtol=1e-10)

    def test_round_trip(self):
        h = random_hermitian(2, rng(54), positive=True)
        S = random_bihermitian(2, rng(55))
        back = shift_sigma(shift_sigma(S, h, 1.3), h, -1.3)
        assert_allclose(back.entries, S.entries, atol=1e-12)


class TestFrames:
    def test_unitary_frame_diagonalises_h(self):
        h = random_hermitian(4, rng(60), positive=True)
        E = cholesky_frame(h)[1]
        gram = np.einsum("pi,pq,qj->ij", E, h.entries, np.conj(E))
        assert_allclose(gram, np.eye(4), atol=1e-12)

    def test_unit_sphere_samples_have_unit_norm(self):
        h = random_hermitian(3, rng(61), positive=True)
        X = unit_sphere_samples(h, 100, rng(62))
        norms = np.einsum("ai,ij,aj->a", X, h.entries, np.conj(X)).real
        assert_allclose(norms, 1.0, atol=1e-12)

    @staticmethod
    def metrics(n, seed):
        """A random well-conditioned metric and one with condition number 1e8."""
        r = rng(seed)
        U, _ = np.linalg.qr(r.standard_normal((n, n)) + 1j * r.standard_normal((n, n)))
        spectrum = np.geomspace(1.0, 1e-8, n) if n > 1 else np.ones(1)
        return [random_hermitian(n, r, positive=True), HermitianForm((U * spectrum) @ U.conj().T)]

    # scipy's triangular solve is the independent reference for the numpy
    # routes of the frame and of the sphere samples.
    @pytest.mark.parametrize("n", range(1, 7))
    def test_cholesky_frame_against_triangular_solve(self, n):
        for h in self.metrics(n, 70 + n):
            L, E = cholesky_frame(h)
            ref = scipy.linalg.solve_triangular(L, np.eye(n, dtype=complex), trans="T", lower=True)
            assert_allclose(E, ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))
            # Roundoff in H alone moves Eᵀ H conj(E) by about eps cond(H), so
            # the identity is held to 1e-13 relative to the condition number.
            gram = E.T @ h.entries @ np.conj(E)
            assert_allclose(gram, np.eye(n), rtol=0, atol=1e-13 * np.linalg.cond(h.entries))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_unit_sphere_samples_against_triangular_solve(self, n):
        for h in self.metrics(n, 80 + n):
            X = unit_sphere_samples(h, 257, rng(90 + n))
            r = rng(90 + n)
            W = r.standard_normal((257, n)) + 1j * r.standard_normal((257, n))
            L = np.linalg.cholesky(h.entries)
            ref = scipy.linalg.solve_triangular(L, W.T, trans="T", lower=True).T
            ref /= np.linalg.norm(W, axis=1)[:, None]
            assert_allclose(X, ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))
            norms = np.einsum("ai,ij,aj->a", X, h.entries, np.conj(X)).real
            assert_allclose(norms, 1.0, rtol=0, atol=1e-13 * np.linalg.cond(h.entries))

    def test_subspace_basis_validates_gram(self):
        h = random_hermitian(3, rng(63), positive=True)
        E = cholesky_frame(h)[1]
        SubspaceBasis(E[:, :2], h)
        with pytest.raises(ValueError):
            SubspaceBasis(2.0 * E[:, :2], h)

    def test_subspace_basis_rejects_a_slightly_perturbed_frame(self):
        # The tolerance scales with the frame's roundoff, sum|cols|² max|H|,
        # which is of order one here: a 1e-6 perturbation still fails.
        h = random_hermitian(3, rng(64), positive=True)
        E = cholesky_frame(h)[1][:, :2]
        P = rng(65).standard_normal(E.shape) + 1j * rng(66).standard_normal(E.shape)
        with pytest.raises(ValueError, match="not h-orthonormal"):
            SubspaceBasis(E + 1e-6 * P, h)


class TestCongruence:
    @pytest.mark.parametrize("k", [2, 3])
    def test_stack_matches_einsum_and_is_exactly_hermitian(self, k):
        # (4, 5) leading axes, n = 3, and frames of k columns; A broadcasts
        # over the first leading axis.
        r = rng(300 + k)
        E = r.standard_normal((4, 5, 3, k)) + 1j * r.standard_normal((4, 5, 3, k))
        raw = r.standard_normal((5, 3, 3)) + 1j * r.standard_normal((5, 3, 3))
        A = raw + np.conj(np.swapaxes(raw, -1, -2))
        M = congruence(E, A)
        assert M.shape == (4, 5, k, k)
        np.testing.assert_array_equal(M, np.conj(np.swapaxes(M, -1, -2)))
        ref = np.einsum("...pa,...pq,...qb->...ab", E, A, np.conj(E))
        assert np.max(np.abs(M - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_unitary_frame_takes_h_to_identity(self):
        h = random_hermitian(4, rng(310), positive=True)
        assert_allclose(congruence(cholesky_frame(h)[1], h.entries), np.eye(4), atol=1e-12)


class TestHermitianEvalRows:
    def test_rows_equal_single_calls_bitwise(self):
        r = rng(320)
        A = random_hermitian(3, r).entries
        X = r.standard_normal((2, 7, 3)) + 1j * r.standard_normal((2, 7, 3))
        Y = r.standard_normal((2, 7, 3)) + 1j * r.standard_normal((2, 7, 3))
        for out, Yarg in ((hermitian_eval(A, X), X), (hermitian_eval(A, X, Y), Y)):
            assert out.shape == (2, 7)
            singles = [[hermitian_eval(A, x, y) for x, y in zip(xs, ys)] for xs, ys in zip(X, Yarg)]
            np.testing.assert_array_equal(out, np.array(singles))

    def test_single_vector_gives_a_complex_scalar(self):
        A = random_hermitian(3, rng(321)).entries
        val = hermitian_eval(A, np.array([1.0, 2.0j, -1.0]))
        assert type(val) is np.complex128


class TestQuarticValues:
    def test_matches_pointwise_evaluation(self):
        S = random_bihermitian(3, rng(70))
        X = rng(71).standard_normal((17, 3)) + 1j * rng(72).standard_normal((17, 3))
        vals = quartic_values(S, X)
        expected = np.array([S(x, x, x, x) for x in X])
        assert np.all(np.abs(expected.imag) <= 1e-12 * np.abs(expected))
        assert_allclose(vals, expected.real, rtol=1e-12)

    def test_pairing_matrix_contracts_like_the_form(self):
        S = random_bihermitian(3, rng(76))
        X = rng(77).standard_normal((4, 3)) + 1j * rng(78).standard_normal((4, 3))
        Z = rng(79).standard_normal((5, 3)) + 1j * rng(80).standard_normal((5, 3))
        paired = pair_products(X) @ pairing_matrix(S.entries) @ pair_products(Z).T
        expected = [[S(x, x, z, z) for z in Z] for x in X]
        assert_allclose(paired, expected, rtol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_pointwise_on_nonunit_rows(self, n):
        S = random_bihermitian(n, rng(76 + n))
        X = 2.5 * (rng(81 + n).standard_normal((13, n)) + 1j * rng(86 + n).standard_normal((13, n)))
        expected = [S(x, x, x, x) for x in X]
        assert_allclose(quartic_values(S, X), np.real(expected), rtol=1e-12)
        assert_allclose(np.imag(expected), 0.0, atol=1e-12 * np.max(np.abs(expected)))

    def test_chunking_is_invisible(self, monkeypatch):
        # 50 rows leave a one-row remainder at chunks 7 and 49, two rows at 8.
        for n in (2, 3, 5):
            S = random_bihermitian(n, rng(73))
            X = rng(74).standard_normal((50, n)) + 1j * rng(75).standard_normal((50, n))
            whole = quartic_values(S, X)
            for chunk in (7, 8, 49):
                monkeypatch.setattr(kricci.forms, "QUARTIC_CHUNK", chunk)
                assert_array_equal(quartic_values(S, X), whole)
            monkeypatch.undo()

    def test_a_one_row_remainder_joins_the_block_before_it(self, monkeypatch):
        monkeypatch.setattr(kricci.forms, "QUARTIC_CHUNK", 7)
        assert row_blocks(50) == [(0, 7), (7, 14), (14, 21), (21, 28), (28, 35), (35, 42), (42, 50)]
        assert row_blocks(51)[-2:] == [(42, 49), (49, 51)]
        assert row_blocks(1) == [(0, 1)]
        assert row_blocks(0) == []


class TestCurvatureParams:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            CurvatureParams(alpha=0.0)
        with pytest.raises(ValueError):
            CurvatureParams(beta=-1.0)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_hermitian_eval_conjugate_symmetry(seed):
    r = np.random.default_rng(seed)
    h = random_hermitian(3, r, positive=True)
    X = r.standard_normal(3) + 1j * r.standard_normal(3)
    Y = r.standard_normal(3) + 1j * r.standard_normal(3)
    a = hermitian_eval(h.entries, X, Y)
    b = hermitian_eval(h.entries, Y, X)
    assert_allclose(a, np.conj(b), rtol=1e-12, atol=1e-12)
