import numpy as np
import pytest
from numpy.testing import assert_allclose

from kricci.errors import DegeneracyError
from kricci.grid import (
    MetricField,
    PeriodicGrid,
    curvature_field,
    dbar_hessian,
    flat_metric,
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


class TestLaplacian:
    def test_flat_metric_single_mode(self):
        grid = PeriodicGrid(n=1, N=16)
        x = grid.coordinates()[0]
        f = np.cos(2 * np.pi * x)
        assert_allclose(
            laplacian(grid, flat_metric(grid), f), -mode_factor(16) * f, atol=1e-12
        )

    def test_n2_flat_sums_over_directions(self):
        grid = PeriodicGrid(n=2, N=8)
        coords = grid.coordinates()
        f = np.cos(2 * np.pi * coords[0]) + np.cos(2 * np.pi * coords[2])
        assert_allclose(
            laplacian(grid, flat_metric(grid), f), -mode_factor(8) * f, atol=1e-12
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
