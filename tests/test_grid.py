import numpy as np
import pytest
from numpy.testing import assert_allclose

from kricci.errors import DegeneracyError
from kricci.grid import (
    MetricField,
    PeriodicGrid,
    curvature_field,
    dbar_hessian,
    dbar_hessian_field,
    flat_metric,
    g_pair_trace,
    g_trace,
    grid_mean,
    holomorphic_derivative,
    laplacian,
    metric_from_potential,
    ricci_field,
    ricci_potential,
    scalar_from_modes,
)


def mode_factor(N):
    """Discrete complex-Hessian eigenvalue of cos(2 pi x) on the fd2 grid."""
    return np.sin(np.pi / N) ** 2 * N**2


class TestGridValidation:
    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            PeriodicGrid(n=3, N=16)

    def test_rejects_small_or_odd_N(self):
        with pytest.raises(ValueError):
            PeriodicGrid(n=1, N=6)
        with pytest.raises(ValueError):
            PeriodicGrid(n=1, N=9)

    def test_rejects_unknown_discretization(self):
        with pytest.raises(ValueError):
            PeriodicGrid(n=1, N=16, discretization="fd4")

    def test_coordinates_shape_and_range(self):
        grid = PeriodicGrid(n=2, N=8)
        coords = grid.coordinates()
        assert len(coords) == 4
        assert all(c.shape == grid.shape for c in coords)
        assert coords[0][1, 0, 0, 0] == pytest.approx(1 / 8)
        assert coords[3][0, 0, 0, 1] == pytest.approx(1 / 8)


class TestDbarHessian:
    def test_fd2_single_mode_factor(self):
        grid = PeriodicGrid(n=1, N=16, discretization="fd2")
        x = grid.coordinates()[0]
        f = 0.02 * np.cos(2 * np.pi * x)
        hess = dbar_hessian(grid, f)
        assert_allclose(hess[..., 0, 0], -mode_factor(16) * f, atol=1e-12)
        assert_allclose(hess.imag, 0.0, atol=1e-12)

    def test_spectral_single_mode_exact(self):
        grid = PeriodicGrid(n=1, N=16, discretization="spectral")
        x = grid.coordinates()[0]
        f = 0.02 * np.cos(2 * np.pi * x)
        hess = dbar_hessian(grid, f)
        assert_allclose(hess[..., 0, 0], -np.pi**2 * f, atol=1e-12)

    @pytest.mark.parametrize("disc", ["fd2", "spectral"])
    def test_hermitian_exactly_on_rough_data(self, disc):
        grid = PeriodicGrid(n=2, N=8, discretization=disc)
        f = np.random.default_rng(0).standard_normal(grid.shape)
        hess = dbar_hessian(grid, f)
        hessH = np.conj(np.swapaxes(hess, -1, -2))
        assert_allclose(hess, hessH, atol=1e-9)

    @pytest.mark.parametrize("disc", ["fd2", "spectral"])
    def test_zero_mean_exactly(self, disc):
        grid = PeriodicGrid(n=2, N=8, discretization=disc)
        f = np.random.default_rng(1).standard_normal(grid.shape)
        hess = dbar_hessian(grid, f)
        assert_allclose(grid_mean(hess, grid), 0.0, atol=1e-10)

    def test_cross_term_n2_spectral(self):
        # f = cos(2 pi (x1 - x2)) has d_1 dbar_2 f = (pi^2/2) * f... computed
        # from (1/4)[(dx1 dx2) + i(dx1 dy2 - dy1 dx2)] with dy terms zero.
        grid = PeriodicGrid(n=2, N=16, discretization="spectral")
        x1 = grid.coordinates()[0]
        x2 = grid.coordinates()[2]
        f = np.cos(2 * np.pi * (x1 - x2))
        hess = dbar_hessian(grid, f)
        assert_allclose(hess[..., 0, 1], np.pi**2 * f / 4 * 4, atol=1e-10)

    def test_rides_over_component_axes(self):
        grid = PeriodicGrid(n=1, N=8)
        f = np.random.default_rng(2).standard_normal(grid.shape + (2,))
        hess = dbar_hessian(grid, f)
        assert hess.shape == grid.shape + (2, 1, 1)
        assert_allclose(hess[..., 0, 0, 0], dbar_hessian(grid, f[..., 0])[..., 0, 0])


def per_axis_hessian(grid, f):
    """All n^2 entries of d_i dbar_j f from one-axis derivatives, as reference."""
    n = grid.n
    k = np.fft.fftfreq(grid.N, d=1.0 / grid.N)
    k_odd = np.where(np.abs(k) == grid.N // 2, 0.0, k)

    def spectral(g, axis, symbol):
        shape = [1] * f.ndim
        shape[axis] = grid.N
        return np.fft.ifft(np.fft.fft(g, axis=axis) * symbol.reshape(shape), axis=axis)

    def d1(g, axis):
        if grid.discretization == "fd2":
            return (np.roll(g, -1, axis) - np.roll(g, 1, axis)) * (grid.N / 2)
        return spectral(g, axis, 2j * np.pi * k_odd)

    def d2(g, axis):
        if grid.discretization == "fd2":
            return (np.roll(g, -1, axis) + np.roll(g, 1, axis) - 2.0 * g) * grid.N**2
        return spectral(g, axis, -((2.0 * np.pi * k) ** 2))

    def dd(a, b):
        return d2(f, a) if a == b else d1(d1(f, b), a)

    out = np.empty(f.shape + (n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            even = dd(2 * i, 2 * j) + dd(2 * i + 1, 2 * j + 1)
            odd = dd(2 * i, 2 * j + 1) - dd(2 * i + 1, 2 * j)
            out[..., i, j] = 0.25 * (even + 1j * odd)
    return out


class TestHessianAgainstPerAxis:
    """The one-transform spectral Hessian and the Hermitian-half fd2 Hessian
    against the composition of one-axis derivatives."""

    @staticmethod
    def inputs(grid):
        rng = np.random.default_rng([grid.n, grid.N])
        real = rng.standard_normal(grid.shape)
        complex_ = real + 1j * rng.standard_normal(grid.shape)
        trailing = rng.standard_normal(grid.shape + (2, 2)) + 1j * rng.standard_normal(
            grid.shape + (2, 2)
        )
        return {"real": real, "complex": complex_, "trailing": trailing,
                "real-trailing": trailing.real.copy()}

    @pytest.mark.parametrize("disc", ["fd2", "spectral"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_per_axis_composition(self, n, disc):
        grid = PeriodicGrid(n=n, N=8, discretization=disc)
        for kind, f in self.inputs(grid).items():
            hess = dbar_hessian(grid, f)
            ref = per_axis_hessian(grid, f)
            assert hess.shape == ref.shape, kind
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(hess - ref)) <= 1e-12 * scale, kind

    @pytest.mark.parametrize("disc", ["fd2", "spectral"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_real_input_is_bitwise_hermitian(self, n, disc):
        grid = PeriodicGrid(n=n, N=8, discretization=disc)
        f = self.inputs(grid)["real"]
        hess = dbar_hessian(grid, f)
        assert np.array_equal(hess, np.conj(np.swapaxes(hess, -1, -2)))

    def test_fd2_hermitian_half_equals_full_computation(self):
        # The lower triangle is the conjugate of the upper one instead of
        # its own difference chain; both agree to roundoff.
        grid = PeriodicGrid(n=2, N=8)
        f = self.inputs(grid)["real"]
        hess = dbar_hessian(grid, f)
        ref = per_axis_hessian(grid, f)
        assert np.array_equal(hess[..., 0, 1], ref[..., 0, 1])
        assert np.array_equal(hess.real[..., 0, 0], ref.real[..., 0, 0])
        assert np.max(np.abs(hess - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestHolomorphicDerivative:
    def test_spectral_cosine(self):
        grid = PeriodicGrid(n=1, N=16, discretization="spectral")
        x = grid.coordinates()[0]
        df = holomorphic_derivative(grid, np.cos(2 * np.pi * x), 0)
        assert_allclose(df, -np.pi * np.sin(2 * np.pi * x), atol=1e-12)

    def test_of_y_dependence_is_imaginary(self):
        grid = PeriodicGrid(n=1, N=16, discretization="spectral")
        y = grid.coordinates()[1]
        df = holomorphic_derivative(grid, np.cos(2 * np.pi * y), 0)
        assert_allclose(df.real, 0.0, atol=1e-12)
        assert_allclose(df.imag, np.pi * np.sin(2 * np.pi * y), atol=1e-12)


class TestMetricField:
    def test_flat_metric_margin(self):
        grid = PeriodicGrid(n=2, N=8)
        g = flat_metric(grid)
        assert g.require_positive() == pytest.approx(1.0)

    def test_rejects_non_hermitian(self):
        grid = PeriodicGrid(n=2, N=8)
        values = np.zeros(grid.shape + (2, 2), dtype=complex)
        values[..., 0, 1] = 1.0
        with pytest.raises(ValueError):
            MetricField(grid, values)

    @pytest.mark.parametrize("n", [1, 2])
    def test_rejects_complex_diagonal(self, n):
        grid = PeriodicGrid(n=n, N=8)
        values = np.zeros(grid.shape + (n, n), dtype=complex)
        values[...] = np.eye(n)
        values[1, 2, ..., n - 1, n - 1] += 1e-6j
        with pytest.raises(ValueError, match="not Hermitian"):
            MetricField(grid, values)

    @pytest.mark.parametrize("n", [1, 2])
    def test_symmetrizes_like_half_sum_with_adjoint(self, n):
        grid = PeriodicGrid(n=n, N=8)
        rng = np.random.default_rng(7)
        shape = grid.shape + (n, n)
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        values = 0.5 * (values + np.conj(np.swapaxes(values, -1, -2)))
        values += 1e-12 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        expected = 0.5 * (values + np.conj(np.swapaxes(values, -1, -2)))
        assert MetricField(grid, values).values.tobytes() == expected.tobytes()

    def test_metric_from_potential_mode(self):
        grid = PeriodicGrid(n=2, N=16)
        x = grid.coordinates()[0]
        eps = 0.01
        g = metric_from_potential(grid, eps * np.cos(2 * np.pi * x))
        assert_allclose(
            g.values[..., 0, 0], 1.0 - mode_factor(16) * eps * np.cos(2 * np.pi * x)
        )
        assert_allclose(g.values[..., 0, 1], 0.0, atol=1e-14)
        assert_allclose(g.values[..., 1, 1], 1.0, atol=1e-14)

    def test_degeneracy_error_carries_location(self):
        grid = PeriodicGrid(n=1, N=16)
        x = grid.coordinates()[0]
        eps = 2.0 / mode_factor(16)
        g = metric_from_potential(grid, eps * np.cos(2 * np.pi * x))
        with pytest.raises(DegeneracyError) as err:
            g.require_positive()
        assert err.value.margin == pytest.approx(-1.0, abs=1e-12)
        assert err.value.worst_point == (0, 0)


def random_metric_values(n, shape, rng, near_singular_every=0):
    """Hermitian (n x n) fields with random eigenvalues and frames; every
    ``near_singular_every``-th point gets lambda_min = 1e-10 tr g."""
    count = int(np.prod(shape))
    lam = rng.uniform(0.3, 3.0, size=(count, n))
    if near_singular_every:
        lam[::near_singular_every, 0] = 1e-10 * lam[::near_singular_every].sum(axis=1)
    z = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    U, _ = np.linalg.qr(z)
    values = np.einsum("pij,pj,pkj->pik", U, lam, np.conj(U))
    values = 0.5 * (values + np.conj(np.swapaxes(values, -1, -2)))
    return values.reshape(tuple(shape) + (n, n))


class TestClosedFormKernels:
    """lambda_min, log det, g^-1 and the unitary frame against LAPACK.  Where g is nearly
    singular every double-precision method carries an error of order
    eps * cond(g), so the tolerance is 1e-12 relative plus that."""

    EPS = np.finfo(float).eps

    @pytest.fixture(params=[1, 2])
    def field(self, request):
        n = request.param
        grid = PeriodicGrid(n=n, N=8)
        rng = np.random.default_rng(n)
        g = MetricField(grid, random_metric_values(n, grid.shape, rng, near_singular_every=7))
        eig = np.linalg.eigvalsh(g.values)
        cond = eig[..., -1] / eig[..., 0]
        return g, eig, cond

    def test_offdiagonal_is_complex_and_some_points_near_singular(self, field):
        g, eig, cond = field
        if g.n == 2:
            assert np.max(np.abs(g.values[..., 0, 1].imag)) > 0.1
            assert np.max(cond) > 1e9
        else:
            assert np.min(eig) < 1e-9

    def test_smallest_eigenvalue(self, field):
        g, eig, cond = field
        diff = np.abs(g.smallest_eigenvalues() - eig[..., 0])
        assert np.all(diff <= 1e-12 * eig[..., 0] + 16 * self.EPS * eig[..., -1])

    def test_log_determinant(self, field):
        g, eig, cond = field
        _, ref = np.linalg.slogdet(g.values)
        diff = np.abs(g.log_determinant() - ref)
        assert np.all(diff <= 1e-12 * np.maximum(1.0, np.abs(ref)) + 16 * self.EPS * cond)

    def test_inverse(self, field):
        g, eig, cond = field
        ref = np.linalg.inv(g.values)
        inv = g.inverse()
        assert np.array_equal(inv, np.conj(np.swapaxes(inv, -1, -2)))
        diff = np.max(np.abs(inv - ref), axis=(-2, -1))
        scale = np.max(np.abs(ref), axis=(-2, -1))
        assert np.all(diff <= (1e-12 + 16 * self.EPS * cond) * scale)

    def test_unitary_frame(self, field):
        g, eig, cond = field
        L = np.linalg.cholesky(g.values)
        ref = np.linalg.inv(np.swapaxes(L, -1, -2))
        E = g.unitary_frame()
        assert np.all(np.triu(E) == E)
        diagonal = np.diagonal(E, axis1=-2, axis2=-1)
        assert np.all(diagonal.imag == 0) and np.all(diagonal.real > 0)
        diff = np.max(np.abs(E - ref), axis=(-2, -1))
        scale = np.max(np.abs(ref), axis=(-2, -1))
        assert np.all(diff <= (1e-12 + 16 * self.EPS * cond) * scale)

    def test_smallest_eigenvalue_has_no_cancellation(self):
        # Exact entries with det = 2^-30: lambda_min = 2^-31 (1 - 2^-32) + O(2^-95),
        # which mean - radius would get wrong in the tenth digit.
        grid = PeriodicGrid(n=2, N=8)
        values = np.zeros(grid.shape + (2, 2), dtype=complex)
        values[...] = [[1.0, 1j], [-1j, 1.0 + 2.0**-30]]
        lam = MetricField(grid, values).smallest_eigenvalues()
        assert_allclose(lam, 2.0**-31 * (1.0 - 2.0**-32), rtol=1e-15, atol=0)

    @pytest.mark.parametrize("n", [1, 2])
    def test_indefinite_field_is_rejected_at_worst_point(self, n):
        grid = PeriodicGrid(n=n, N=8)
        rng = np.random.default_rng(10 + n)
        values = random_metric_values(n, grid.shape, rng)
        worst = (3, 5) if n == 1 else (1, 6, 2, 7)
        other = (6, 0) if n == 1 else (4, 4, 0, 1)
        values[worst] = np.diag([-0.5] + [2.0] * (n - 1))
        values[other] = np.diag([-0.25] + [1.0] * (n - 1))
        if n == 2:
            # A negative definite point has det > 0 but is not the worst.
            values[0, 0, 0, 0] = np.diag([-0.1, -0.2])
        g = MetricField(grid, values)
        with pytest.raises(DegeneracyError):
            g.log_determinant()
        with pytest.raises(DegeneracyError) as err:
            g.require_positive()
        assert err.value.worst_point == worst
        assert err.value.margin == pytest.approx(-0.5, abs=1e-15)

    @pytest.mark.parametrize(
        "matrix",
        [[[-1.0, 0.5j], [-0.5j, -2.0]], [[0.0, 0.0], [0.0, -1.0]]],
        ids=["negative-definite", "largest-eigenvalue-zero"],
    )
    def test_nonpositive_mean_eigenvalue_point(self, matrix):
        # det > 0 or det = lambda_max = 0 here: lambda_min must not come from
        # det / lambda_max.
        grid = PeriodicGrid(n=2, N=8)
        values = random_metric_values(2, grid.shape, np.random.default_rng(3))
        values[2, 3, 4, 5] = matrix
        g = MetricField(grid, values)
        with pytest.raises(DegeneracyError) as err:
            g.require_positive()
        assert err.value.worst_point == (2, 3, 4, 5)
        expected = np.linalg.eigvalsh(values[2, 3, 4, 5])[0]
        assert err.value.margin == pytest.approx(expected, rel=1e-12)


class TestRicci:
    def test_flat_metric_has_zero_ricci(self):
        grid = PeriodicGrid(n=2, N=8)
        ric = ricci_field(grid, flat_metric(grid))
        assert_allclose(ric.values, 0.0, atol=1e-12)

    @pytest.mark.parametrize("disc", ["fd2", "spectral"])
    def test_ricci_mean_is_exactly_zero(self, disc):
        grid = PeriodicGrid(n=1, N=16, discretization=disc)
        x = grid.coordinates()[0]
        g = metric_from_potential(grid, 0.05 * np.cos(2 * np.pi * x))
        ric = ricci_field(grid, g)
        assert_allclose(grid_mean(ric.values, grid), 0.0, atol=1e-12)

    def test_small_amplitude_linearisation(self):
        # For g = 1 + u with small u, Ric ~ -ddbar(u) at leading order.
        grid = PeriodicGrid(n=1, N=32)
        x = grid.coordinates()[0]
        eps = 1e-6
        phi = eps * np.cos(2 * np.pi * x)
        g = metric_from_potential(grid, phi)
        ric = ricci_field(grid, g)
        u = g.values[..., 0, 0].real - 1.0
        expected = -dbar_hessian(grid, u)[..., 0, 0]
        assert_allclose(ric.values[..., 0, 0], expected, atol=1e-8)


class TestCurvatureTensor:
    def test_trace_matches_ricci_to_discretization_error(self):
        # n=1 on fd2 (second order), and n=2 spectral with a complex g_12,
        # where the order of the traced index pair matters.
        for n, coarse, fine in ((1, 16, 32), (2, 8, 16)):
            gap = {}
            for N in (coarse, fine):
                if n == 1:
                    grid = PeriodicGrid(n=1, N=N)
                    x = grid.coordinates()[0]
                    g = metric_from_potential(grid, 0.02 * np.cos(2 * np.pi * x))
                else:
                    grid, g = self._n2_complex_offdiagonal_metric(N)
                traced = g_trace(g.inverse(), curvature_field(grid, g))
                ric = ricci_field(grid, g).values
                gap[N] = np.max(np.abs(traced - ric))
            assert 0 < gap[fine] <= gap[coarse] / 3.0

    @staticmethod
    def _n2_complex_offdiagonal_metric(N):
        """Spectral n=2 metric from mixed wavevectors (1,0,0,1), (0,1,1,0):
        each pairs x of one complex coordinate with y of the other, so g_12
        is complex and g^{lk} differs from g^{kl}."""
        grid = PeriodicGrid(n=2, N=N, discretization="spectral")
        x1, y1, x2, y2 = grid.coordinates()
        phi = 0.01 * (np.cos(2 * np.pi * (x1 + y2)) + np.sin(2 * np.pi * (y1 + x2)))
        return grid, metric_from_potential(grid, phi)

    @staticmethod
    def _n2_potential_metric(N, disc):
        grid = PeriodicGrid(n=2, N=N, discretization=disc)
        coords = grid.coordinates()
        phi = 0.01 * (
            np.cos(2 * np.pi * coords[0]) * np.cos(2 * np.pi * coords[2])
            + np.sin(2 * np.pi * coords[1])
        )
        return grid, metric_from_potential(grid, phi)

    @pytest.mark.parametrize("disc", ["fd2", "spectral"])
    def test_conjugation_symmetry_exact(self, disc):
        grid, g = self._n2_potential_metric(8, disc)
        R = curvature_field(grid, g)
        assert_allclose(np.conj(R), R.transpose(0, 1, 2, 3, 5, 4, 7, 6), atol=1e-10)

    def test_pair_symmetry_second_order_fd2(self):
        # The 3-point diagonal Hessian does not factor into first differences,
        # so the unbarred-slot swap only holds to discretization error.
        asym = {}
        for N in (8, 16):
            grid, g = self._n2_potential_metric(N, "fd2")
            R = curvature_field(grid, g)
            asym[N] = np.max(np.abs(R - R.transpose(0, 1, 2, 3, 6, 5, 4, 7)))
        assert asym[16] <= asym[8] / 3.0

    def test_pair_symmetry_exact_spectral_bandlimited(self):
        grid, g = self._n2_potential_metric(8, "spectral")
        R = curvature_field(grid, g)
        assert_allclose(R, R.transpose(0, 1, 2, 3, 6, 5, 4, 7), atol=1e-9)

    def test_ricci_potential_residual_shrinks_second_order(self):
        residuals = {}
        for N in (16, 32):
            grid = PeriodicGrid(n=1, N=N)
            x = grid.coordinates()[0]
            values = np.zeros(grid.shape + (1, 1), dtype=complex)
            values[..., 0, 0] = 1.0 - 0.3 * np.cos(2 * np.pi * x)
            g = MetricField(grid, values)
            report = ricci_potential(grid, g)
            assert report.residual_vs_direct <= 1e-12
            residuals[N] = report.residual_vs_trace
        order = np.log2(residuals[16] / residuals[32])
        assert order >= 1.8

    def test_ricci_potential_trace_converges_n2_complex_offdiagonal(self):
        residuals = {}
        for N in (8, 16):
            grid, g = self._n2_complex_offdiagonal_metric(N)
            assert np.max(np.abs(g.values[..., 0, 1].imag)) > 0.1
            report = ricci_potential(grid, g)
            assert report.residual_vs_direct <= 1e-12
            residuals[N] = report.residual_vs_trace
        # Spectral accuracy: the gap falls by orders of magnitude.
        assert residuals[16] <= 1e-5
        assert residuals[16] <= residuals[8] / 100.0


def reference_curvature(grid, g):
    """The curvature tensor by its earlier formula: the n^2-entry complex
    Hessian of the whole metric field plus one contraction of the
    holomorphic derivatives with g^-1."""
    dg = np.stack([holomorphic_derivative(grid, g.values, k) for k in range(grid.n)])
    term2 = np.einsum(
        "...qp,k...iq,l...jp->...ijkl", g.inverse(), dg, np.conj(dg), optimize=True
    )
    return -per_axis_hessian(grid, g.values) + term2


class TestCurvatureKernel:
    """The per-component, closed-form curvature kernel against the earlier
    formula, on metrics whose g_12 has real and imaginary parts."""

    @staticmethod
    def metric(n, disc):
        grid = PeriodicGrid(n=n, N=8, discretization=disc)
        coords = grid.coordinates()
        if n == 1:
            phi = 0.02 * np.cos(2 * np.pi * coords[0]) + 0.01 * np.sin(2 * np.pi * (coords[0] + coords[1]))
        else:
            x1, y1, x2, y2 = coords
            phi = 0.01 * (
                np.cos(2 * np.pi * (x1 + y2))
                + np.sin(2 * np.pi * (y1 + x2))
                + np.cos(2 * np.pi * (x1 + y1 + x2))
            )
        return grid, metric_from_potential(grid, phi)

    @pytest.mark.parametrize("disc", ["fd2", "spectral"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_earlier_formula(self, n, disc):
        grid, g = self.metric(n, disc)
        if n == 2:
            g12 = g.values[..., 0, 1]
            assert np.abs(g12.real).max() > 1e-2 and np.abs(g12.imag).max() > 1e-2
        R = curvature_field(grid, g)
        ref = reference_curvature(grid, g)
        assert np.max(np.abs(R - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [1, 2])
    def test_conjugation_symmetry_is_bitwise(self, n):
        grid, g = self.metric(n, "spectral")
        R = curvature_field(grid, g)
        k = 2 * n
        swapped = R.transpose(tuple(range(k)) + (k + 1, k, k + 3, k + 2))
        assert np.array_equal(np.conj(R), swapped)


class TestPairTrace:
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_four_operand_contraction(self, n):
        grid = PeriodicGrid(n=n, N=8)
        rng = np.random.default_rng(20 + n)
        ginv = MetricField(grid, random_metric_values(n, grid.shape, rng)).inverse()
        A = random_metric_values(n, grid.shape, rng)
        B = random_metric_values(n, grid.shape, rng)
        ref = np.einsum("...li,...jk,...ij,...kl->...", ginv, ginv, A, B, optimize=True)
        out = g_pair_trace(ginv, A, B)
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestHermitianHalf:
    """Metric fields keep (a, d, b); entry-form kernels match the full layout."""

    def field(self, n, seed=0):
        grid = PeriodicGrid(n=n, N=8)
        return MetricField(grid, random_metric_values(n, grid.shape, np.random.default_rng(seed)))

    @pytest.mark.parametrize("n", [1, 2])
    def test_keeps_only_the_triangle(self, n):
        g = self.field(n)
        arrays = [v for v in vars(g).values() if isinstance(v, np.ndarray)]
        assert all(v.shape == g.grid.shape for v in arrays)
        assert len(arrays) == (1 if n == 1 else 3)
        assert g.values is not g.values
        assert g.values.shape == g.grid.shape + (n, n)

    @pytest.mark.parametrize("n", [1, 2])
    def test_determinant_is_computed_once(self, n):
        g = self.field(n)
        g.smallest_eigenvalues()
        det = g.det
        g.log_determinant()
        g.inverse()
        g.unitary_frame()
        assert g.det is det
        assert_allclose(det, np.linalg.det(g.values).real, rtol=1e-12)

    @pytest.mark.parametrize("disc", ["fd2", "spectral"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_hessian_entries_are_the_full_hessian(self, n, disc):
        grid = PeriodicGrid(n=n, N=8, discretization=disc)
        f = np.random.default_rng(3).standard_normal(grid.shape)
        field = dbar_hessian_field(grid, f)
        assert all(e is None or e.shape == grid.shape for e in field.entries)
        full = dbar_hessian(grid, f)
        assert full.tobytes() == field.values.tobytes()
        assert np.array_equal(field.a, full[..., 0, 0].real)
        if n == 2:
            assert np.array_equal(field.d, full[..., 1, 1].real)
            assert np.array_equal(field.b, full[..., 0, 1])

    @pytest.mark.parametrize("n", [1, 2])
    def test_entry_arithmetic_matches_full_fields(self, n):
        g, h = self.field(n, 1), self.field(n, 2)
        combined = 0.3 * g - h + (-g)
        assert_allclose(combined.values, 0.3 * g.values - h.values - g.values, rtol=0, atol=1e-15)
        assert np.array_equal((g + h).values, g.values + h.values)

    @pytest.mark.parametrize("n", [1, 2])
    def test_traces_of_entry_fields_match_full_fields(self, n):
        g, A, B = self.field(n, 4), self.field(n, 5), self.field(n, 6)
        ginv = g.inverse()
        assert np.array_equal(g_trace(ginv, A), g_trace(ginv, A.values))
        assert np.array_equal(g_pair_trace(ginv, A, B), g_pair_trace(ginv, A.values, B.values))
        ref = np.einsum("...lk,...kl->...", ginv, A.values)
        assert np.max(np.abs(g_trace(ginv, A) - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_trace_rides_over_component_axes(self):
        grid = PeriodicGrid(n=2, N=8)
        rng = np.random.default_rng(8)
        ginv = self.field(2, 7).inverse()
        shape = grid.shape + (2, 2, 2, 2)
        R = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ref = np.einsum("...lk,...ijkl->...ij", ginv, R)
        out = g_trace(ginv, R)
        assert out.shape == grid.shape + (2, 2)
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestLaplacian:
    def test_flat_metric_single_mode(self):
        grid = PeriodicGrid(n=1, N=16)
        x = grid.coordinates()[0]
        f = np.cos(2 * np.pi * x)
        assert_allclose(
            laplacian(grid, flat_metric(grid).inverse(), f), -mode_factor(16) * f, atol=1e-12
        )

    def test_n2_flat_sums_over_directions(self):
        grid = PeriodicGrid(n=2, N=8)
        coords = grid.coordinates()
        f = np.cos(2 * np.pi * coords[0]) + np.cos(2 * np.pi * coords[2])
        assert_allclose(
            laplacian(grid, flat_metric(grid).inverse(), f), -mode_factor(8) * f, atol=1e-12
        )


class TestScalarFromModes:
    def test_cosine_and_sine_parts(self):
        grid = PeriodicGrid(n=1, N=16)
        x = grid.coordinates()[0]
        f = scalar_from_modes(grid, [((1, 0), 0.02)])
        assert_allclose(f, 0.02 * np.cos(2 * np.pi * x), atol=1e-14)
        f = scalar_from_modes(grid, [((1, 0), 0.02j)])
        assert_allclose(f, -0.02 * np.sin(2 * np.pi * x), atol=1e-14)

    def test_rejects_bad_wavevector(self):
        grid = PeriodicGrid(n=2, N=8)
        with pytest.raises(ValueError):
            scalar_from_modes(grid, [((1, 0), 1.0)])
