import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import kricci.grid
from kricci.errors import DegeneracyError
from kricci.flow import FlowConfig, FlowModel, TwistSpec, _mixed_level_estimate
from kricci.forms import HermitianForm, sym2_index
from kricci.forms import b_form as forms_b_form
from kricci.grid import (
    MetricField,
    PeriodicGrid,
    ScalarField,
    _derivatives,
    _fourier_symbols,
    curvature_field,
    dbar_hessian,
    flat_metric,
    g_curvature_trace,
    g_double_trace,
    g_trace,
    laplacian,
    metric_from_potential,
    model_form,
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

    @pytest.mark.parametrize("n, N", [(1, 8.0), (1.0, 8), (2, np.float64(16)), (1, "8")])
    def test_rejects_non_integer_size(self, n, N):
        bad = next(value for value in (n, N) if not isinstance(value, int))
        with pytest.raises(ValueError, match=re.escape(f"must be an integer, got {bad!r}")):
            PeriodicGrid(n=n, N=N)

    def test_accepts_numpy_integers(self):
        grid = PeriodicGrid(n=np.int64(1), N=np.int32(8))
        assert flat_metric(grid).values.shape == (8, 8, 1, 1)

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
        hess = dbar_hessian(grid, f).values
        assert_allclose(hess[..., 0, 0], -mode_factor(16) * f, atol=1e-12)
        assert_allclose(hess.imag, 0.0, atol=1e-12)

    def test_spectral_single_mode_exact(self):
        grid = PeriodicGrid(n=1, N=16, discretization="spectral")
        x = grid.coordinates()[0]
        f = 0.02 * np.cos(2 * np.pi * x)
        hess = dbar_hessian(grid, f).values
        assert_allclose(hess[..., 0, 0], -np.pi**2 * f, atol=1e-12)

    @pytest.mark.parametrize("disc", ["fd2", "spectral"])
    def test_hermitian_exactly_on_rough_data(self, disc):
        grid = PeriodicGrid(n=2, N=8, discretization=disc)
        f = np.random.default_rng(0).standard_normal(grid.shape)
        hess = dbar_hessian(grid, f).values
        hessH = np.conj(np.swapaxes(hess, -1, -2))
        assert_allclose(hess, hessH, atol=1e-9)

    @pytest.mark.parametrize("disc", ["fd2", "spectral"])
    def test_zero_mean_exactly(self, disc):
        grid = PeriodicGrid(n=2, N=8, discretization=disc)
        f = np.random.default_rng(1).standard_normal(grid.shape)
        hess = dbar_hessian(grid, f).values
        assert_allclose(hess.mean(axis=(0, 1, 2, 3)), 0.0, atol=1e-10)

    def test_cross_term_n2_spectral(self):
        # f = cos(2 pi (x1 - x2)) has d_1 dbar_2 f = (pi^2/2) * f... computed
        # from (1/4)[(dx1 dx2) + i(dx1 dy2 - dy1 dx2)] with dy terms zero.
        grid = PeriodicGrid(n=2, N=16, discretization="spectral")
        x1 = grid.coordinates()[0]
        x2 = grid.coordinates()[2]
        f = np.cos(2 * np.pi * (x1 - x2))
        hess = dbar_hessian(grid, f).values
        assert_allclose(hess[..., 0, 1], np.pi**2 * f / 4 * 4, atol=1e-10)

    def test_rejects_complex_and_misshaped_input(self):
        grid = PeriodicGrid(n=1, N=8)
        f = np.random.default_rng(2).standard_normal(grid.shape)
        with pytest.raises(ValueError, match="real field"):
            dbar_hessian(grid, f + 0j)
        for shape in (grid.shape + (2,), (8,), (16, 16)):
            with pytest.raises(ValueError, match="expected shape"):
                dbar_hessian(grid, np.zeros(shape))


def per_axis_d1(grid, f, axis):
    """First derivative along one real axis, as reference: the centered
    difference on fd2, numpy's FFT with the Nyquist mode zeroed on the
    spectral grid."""
    if grid.discretization == "fd2":
        return (np.roll(f, -1, axis) - np.roll(f, 1, axis)) * (grid.N / 2)
    k = np.fft.fftfreq(grid.N, d=1.0 / grid.N)
    k[grid.N // 2] = 0.0
    shape = [1] * f.ndim
    shape[axis] = grid.N
    return np.fft.ifft(np.fft.fft(f, axis=axis) * (2j * np.pi * k).reshape(shape), axis=axis)


def per_axis_hessian(grid, f):
    """All n^2 entries of d_i dbar_j f from one-axis derivatives, as reference."""
    n = grid.n
    k = np.fft.fftfreq(grid.N, d=1.0 / grid.N)

    def d2(g, axis):
        if grid.discretization == "fd2":
            return (np.roll(g, -1, axis) + np.roll(g, 1, axis) - 2.0 * g) * grid.N**2
        shape = [1] * f.ndim
        shape[axis] = grid.N
        symbol = -((2.0 * np.pi * k) ** 2)
        return np.fft.ifft(np.fft.fft(g, axis=axis) * symbol.reshape(shape), axis=axis)

    def dd(a, b):
        return d2(f, a) if a == b else per_axis_d1(grid, per_axis_d1(grid, f, b), a)

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
    def real_input(grid):
        return np.random.default_rng([grid.n, grid.N]).standard_normal(grid.shape)

    @pytest.mark.parametrize("disc", ["fd2", "spectral"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_per_axis_composition(self, n, disc):
        grid = PeriodicGrid(n=n, N=8, discretization=disc)
        f = self.real_input(grid)
        hess = dbar_hessian(grid, f).values
        ref = per_axis_hessian(grid, f)
        assert hess.shape == ref.shape
        assert np.max(np.abs(hess - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("disc", ["fd2", "spectral"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_real_input_is_bitwise_hermitian(self, n, disc):
        grid = PeriodicGrid(n=n, N=8, discretization=disc)
        hess = dbar_hessian(grid, self.real_input(grid)).values
        assert np.array_equal(hess, np.conj(np.swapaxes(hess, -1, -2)))

    def test_fd2_hermitian_half_equals_full_computation(self):
        # The computed entries (the diagonal, real, and (0, 1)) are bitwise
        # the np.roll reference; N=12 also pins the order of the scalings,
        # which are exact at N=8.  The lower triangle is the conjugate of the
        # upper one instead of its own difference chain; both agree to
        # roundoff.
        for n, N in itertools.product((1, 2), (8, 12)):
            grid = PeriodicGrid(n=n, N=N)
            f = self.real_input(grid)
            hess = dbar_hessian(grid, f).values
            ref = per_axis_hessian(grid, f)
            label = (n, N)
            for i in range(n):
                assert np.array_equal(hess.real[..., i, i], ref.real[..., i, i]), label
                assert not hess.imag[..., i, i].any(), label
            if n == 2:
                assert np.array_equal(hess[..., 0, 1], ref[..., 0, 1]), label
            assert np.max(np.abs(hess - ref)) <= 1e-12 * np.max(np.abs(ref)), label

    @pytest.mark.parametrize("n", [1, 2])
    def test_fd2_gradient_is_bitwise_per_axis(self, n):
        # The first derivatives curvature_field reads, (dx_k f / 2, dy_k f / 2).
        for N in (8, 12):
            grid = PeriodicGrid(n=n, N=N)
            f = self.real_input(grid)
            gradient = _derivatives(grid, f)[1]
            for i in range(n):
                dx, dy = gradient(i)
                assert np.array_equal(dx, 0.5 * per_axis_d1(grid, f, 2 * i)), (N, i)
                assert np.array_equal(dy, 0.5 * per_axis_d1(grid, f, 2 * i + 1)), (N, i)


def per_call_derivatives(grid, f):
    """The spectral ``_derivatives`` with every symbol built from the
    per-axis frequencies on each call, in the operation order of the cached
    table, as reference."""
    from scipy import fft

    spectrum = fft.rfftn(f)

    def factors(axis):
        # (2 pi k with the Nyquist mode zeroed, -(2 pi k)^2) along one axis.
        last = axis == f.ndim - 1
        freq = (np.fft.rfftfreq if last else np.fft.fftfreq)(grid.N, d=1.0 / grid.N)
        k = 2.0 * np.pi * freq
        shape = [-1 if a == axis else 1 for a in range(f.ndim)]
        return np.where(np.abs(freq) == grid.N // 2, 0.0, k).reshape(shape), (-k * k).reshape(shape)

    def dd(a, b):
        return factors(a)[1] if a == b else -(factors(a)[0] * factors(b)[0])

    def finish(symbol):
        return fft.irfftn(spectrum * symbol, s=grid.shape)

    def hessian(k, l):
        xk, yk, xl, yl = 2 * k, 2 * k + 1, 2 * l, 2 * l + 1
        even = finish(0.25 * (dd(xk, xl) + dd(yk, yl)))
        return even, (0.0 if k == l else finish(0.25 * (dd(xk, yl) - dd(yk, xl))))

    def gradient(k):
        return tuple(finish(0.5 * (1j * factors(axis)[0])) for axis in (2 * k, 2 * k + 1))

    return hessian, gradient


class TestFourierSymbols:
    """The spectral symbols come from one read-only table per (N, ndim)."""

    def test_table_is_read_only_and_the_same_on_every_call(self):
        for N, ndim in itertools.product((8, 12), (2, 4)):
            hessian, gradient = table = _fourier_symbols(N, ndim)
            assert _fourier_symbols(N, ndim) is table
            assert sorted(hessian) == list(itertools.combinations_with_replacement(
                range(ndim // 2), 2))
            assert len(gradient) == ndim // 2
            symbols = [s for pair in (*hessian.values(), *gradient) for s in pair if s is not None]
            for symbol in symbols:
                assert not symbol.flags.writeable
                with pytest.raises(ValueError):
                    symbol[(0,) * ndim] = 1.0

    @pytest.mark.parametrize("n", [1, 2])
    def test_kernels_are_bitwise_the_per_call_symbols(self, n, monkeypatch):
        for N in (8, 12):
            grid = PeriodicGrid(n=n, N=N, discretization="spectral")
            f = 1e-4 * np.random.default_rng([n, N, 7]).standard_normal(grid.shape)
            g = metric_from_potential(grid, f)
            hessian, curvature = dbar_hessian(grid, f), curvature_field(grid, g)
            with monkeypatch.context() as patch:
                patch.setattr(kricci.grid, "_derivatives", per_call_derivatives)
                ref_hessian = dbar_hessian(grid, f)
                ref_curvature = curvature_field(grid, metric_from_potential(grid, f))
            for entry, ref in zip(hessian.entries, ref_hessian.entries):
                assert (entry is None and ref is None) or np.array_equal(entry, ref), (n, N)
            assert curvature.keys() == ref_curvature.keys()
            for key, entry in curvature.items():
                assert np.array_equal(entry, ref_curvature[key]), (n, N, key)


class TestScalarField:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)])
    def test_rejects_non_finite_value(self, value):
        # A NaN imaginary part is not dropped with the imaginary part.
        grid = PeriodicGrid(n=1, N=8)
        values = np.zeros(grid.shape, dtype=np.asarray(value).dtype)
        values[2, 5] = value
        with pytest.raises(ValueError, match="NaN or infinite value"):
            ScalarField(grid, values)


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

    @pytest.mark.parametrize(
        "entry, value",
        [((0, 1), complex(np.nan, 0.0)), ((1, 1), np.inf), ((0, 0), complex(1.0, -np.inf))],
        ids=["nan-offdiagonal", "inf-diagonal", "inf-imaginary"],
    )
    def test_rejects_non_finite_entry(self, entry, value):
        # The Hermiticity test is False for NaN and inf, so it cannot stop them.
        grid = PeriodicGrid(n=2, N=8)
        values = np.zeros(grid.shape + (2, 2), dtype=complex)
        values[...] = np.eye(2)
        values[(3, 1, 4, 1) + entry] = value
        with pytest.raises(ValueError, match="NaN or infinite entry"):
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

    def test_log_determinant_is_within_one_ulp_of_the_c_library_log(self, field):
        # numpy's log of det, no further than 1 ulp from math.log of it.
        g = field[0]
        ref = np.array([math.log(x) for x in g.det.ravel()]).reshape(g.det.shape)
        assert np.all(np.abs(g.log_determinant() - ref) <= np.spacing(np.abs(ref)))

    def test_inverse(self, field):
        g, eig, cond = field
        ref = np.linalg.inv(g.values)
        inv = g.inverse().values
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

    def test_smallest_eigenvalue_is_bitwise_the_scalar_formula(self):
        # Every step is a correctly rounded +, -, *, / or sqrt, so a per-point
        # math.sqrt reference in the same order gives the same bits.  Two
        # points have a nonpositive mean eigenvalue, which takes mean - radius.
        grid = PeriodicGrid(n=2, N=8)
        values = random_metric_values(2, grid.shape, np.random.default_rng(50), 7)
        values[1, 2, 3, 4] = [[-1.0, 0.5j], [-0.5j, -2.0]]
        values[5, 6, 7, 0] = [[-0.5, 2.0 + 1.0j], [2.0 - 1.0j, 0.25]]
        g = MetricField(grid, values)
        assert np.min(np.abs(g.b.imag)) > 0.0 and np.max(np.abs(g.b.imag)) > 0.1
        ref = []
        for a, d, b in zip(g.a.ravel().tolist(), g.d.ravel().tolist(), g.b.ravel().tolist()):
            b_squared = b.real * b.real + b.imag * b.imag
            half_difference = 0.5 * (a - d)
            radius = math.sqrt(half_difference * half_difference + b_squared)
            half_trace = 0.5 * (a + d)
            if half_trace > 0.0:
                ref.append((a * d - b_squared) / (half_trace + radius))
            else:
                ref.append(half_trace - radius)
        assert np.array_equal(g.smallest_eigenvalues(), np.reshape(ref, grid.shape))

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
        assert all(type(i) is int for i in err.value.worst_point)
        assert f"at grid point {worst})" in str(err.value)
        assert err.value.margin == pytest.approx(-0.5, abs=1e-15)

    def test_log_determinant_rejects_a_negative_definite_point(self):
        # det = 2 > 0 there, so only the lambda_min proof can reject the field.
        grid = PeriodicGrid(n=2, N=8)
        values = np.zeros(grid.shape + (2, 2), dtype=complex)
        values[...] = np.eye(2)
        values[1, 2, 3, 4] = np.diag([-1.0, -2.0])
        g = MetricField(grid, values)
        assert np.all(g.det > 0.0)
        with pytest.raises(DegeneracyError, match=r"at grid point \(1, 2, 3, 4\)") as err:
            g.log_determinant()
        assert err.value.worst_point == (1, 2, 3, 4)
        assert err.value.margin == -2.0

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

    @pytest.mark.parametrize("n", [1, 2])
    def test_nan_entry_is_rejected_at_first_nan(self, n):
        grid = PeriodicGrid(n=n, N=8)
        g = MetricField(grid, random_metric_values(n, grid.shape, np.random.default_rng(30 + n)))
        first = (2, 1) if n == 1 else (0, 3, 1, 2)
        later = (5, 6) if n == 1 else (4, 0, 2, 6)
        g.a[later] = np.nan
        if n == 1:
            g.a[first] = np.nan
        else:
            g.b[first] = complex(np.nan, 0.0)
        for _ in range(2):
            # No NaN margin is recorded, so a second check fails the same way.
            with pytest.raises(DegeneracyError) as err:
                g.require_positive()
            assert err.value.worst_point == first
            assert np.isnan(err.value.margin)

    @pytest.mark.parametrize("n", [1, 2])
    def test_positivity_is_proved_once_per_field(self, n, monkeypatch):
        grid = PeriodicGrid(n=n, N=8)
        values = random_metric_values(n, grid.shape, np.random.default_rng(40 + n), 7)
        g = MetricField(grid, values)
        smallest, passes = MetricField.smallest_eigenvalues, []

        def counting_smallest(self):
            passes.append(self)
            return smallest(self)

        monkeypatch.setattr(MetricField, "smallest_eigenvalues", counting_smallest)
        margin = g.require_positive()
        assert margin == float(smallest(g).min()) > 0.0
        assert g.require_positive("again") == margin
        assert passes == [g]
        # A proved margin implies det > 0, so log det needs no scan of its own.
        assert np.all(g.det > 0.0)
        unchecked = MetricField._from_entries(grid, *g.entries)
        assert np.array_equal(g.log_determinant(), unchecked.log_determinant())
        assert unchecked.require_positive() == margin
        assert passes == [g, unchecked]


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
        assert_allclose(ric.values.mean(axis=(0, 1)), 0.0, atol=1e-12)

    def test_small_amplitude_linearisation(self):
        # For g = 1 + u with small u, Ric ~ -ddbar(u) at leading order.
        grid = PeriodicGrid(n=1, N=32)
        x = grid.coordinates()[0]
        eps = 1e-6
        phi = eps * np.cos(2 * np.pi * x)
        g = metric_from_potential(grid, phi)
        ric = ricci_field(grid, g)
        u = g.values[..., 0, 0].real - 1.0
        expected = -dbar_hessian(grid, u).values[..., 0, 0]
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
                traced = g_curvature_trace(g.inverse(), curvature_field(grid, g)).values
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

    # The symmetry tests below run on the full reference tensor: the kernel
    # stores only the Sym² entries, which assume both symmetries.

    @pytest.mark.parametrize("disc", ["fd2", "spectral"])
    def test_conjugation_symmetry_exact(self, disc):
        grid, g = self._n2_potential_metric(8, disc)
        R = reference_curvature(grid, g)
        assert_allclose(np.conj(R), R.transpose(0, 1, 2, 3, 5, 4, 7, 6), atol=1e-10)

    def test_pair_symmetry_second_order_fd2(self):
        # The 3-point diagonal Hessian does not factor into first differences,
        # so the unbarred-slot swap only holds to discretization error: the
        # Λ² part of the fd2 tensor is O(h^2).
        asym = {}
        for N in (8, 16):
            grid, g = self._n2_potential_metric(N, "fd2")
            asym[N] = np.max(np.abs(lambda2_part(reference_curvature(grid, g))))
        assert asym[16] <= asym[8] / 3.0

    def test_pair_symmetry_exact_spectral_bandlimited(self):
        grid, g = self._n2_potential_metric(8, "spectral")
        assert np.max(np.abs(lambda2_part(reference_curvature(grid, g)))) <= 1e-10

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
    """The full rank-4 curvature tensor R[..., i, j, k, l] by its earlier
    formula: the n^2-entry complex Hessian of the whole metric field plus one
    contraction of its holomorphic derivatives with g^-1, all from the
    per-axis reference derivatives."""
    G = g.values
    dg = np.stack([0.5 * (per_axis_d1(grid, G, 2 * k) - 1j * per_axis_d1(grid, G, 2 * k + 1))
                   for k in range(grid.n)])
    term2 = np.einsum(
        "...qp,k...iq,l...jp->...ijkl", g.inverse().values, dg, np.conj(dg), optimize=True
    )
    return -per_axis_hessian(grid, g.values) + term2


def lambda2_part(R):
    """The part of a rank-4 tensor field antisymmetric in its unbarred slots."""
    return 0.5 * (R - R.transpose(tuple(range(R.ndim - 4)) + tuple(R.ndim + np.array([-2, -3, -4, -1]))))


def full_tensor(S, n):
    """The rank-4 tensor R[..., i, j, k, l] that a Sym² curvature field stores."""
    first = next(iter(S.values()))
    R = np.empty(first.shape + (n,) * 4, dtype=complex)
    for i, j, k, l in itertools.product(range(n), repeat=4):
        P, Q = tuple(sorted((i, k))), tuple(sorted((j, l)))
        R[..., i, j, k, l] = S[P, Q] if P <= Q else np.conj(S[Q, P])
    return R


class TestCurvatureKernel:
    """The Sym² curvature kernel against the full reference formula, on
    metrics whose g_12 has real and imaginary parts."""

    @staticmethod
    def metric(n, disc, N=8):
        grid = PeriodicGrid(n=n, N=N, discretization=disc)
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
        # Each stored entry S[P, Q] = R_{i jbar k lbar}, P = (i, k), Q = (j, l),
        # P <= Q, is the reference entry in that index order, also on fd2.
        grid, g = self.metric(n, disc)
        if n == 2:
            g12 = g.values[..., 0, 1]
            assert np.abs(g12.real).max() > 1e-2 and np.abs(g12.imag).max() > 1e-2
        S = curvature_field(grid, g)
        ref = reference_curvature(grid, g)
        pairs = sym2_index(n)[0]
        assert list(S) == [(P, Q) for p, P in enumerate(pairs) for Q in pairs[p:]]
        for (P, Q), entry in S.items():
            assert entry.shape == grid.shape
            assert (entry.dtype == float) == (P == Q)
            (i, k), (j, l) = P, Q
            assert np.max(np.abs(entry - ref[..., i, j, k, l])) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [1, 2])
    def test_conjugation_symmetry_is_bitwise(self, n):
        # Diagonal entries are real and S[Q, P] is read as conj(S[P, Q]), so
        # the tensor the field stores is conjugation symmetric bit for bit.
        grid, g = self.metric(n, "spectral")
        R = full_tensor(curvature_field(grid, g), n)
        k = 2 * n
        swapped = R.transpose(tuple(range(k)) + (k + 1, k, k + 3, k + 2))
        assert np.array_equal(np.conj(R), swapped)

    def test_memory_guard(self):
        # n=2 N=16 spectral: the Sym² field is 3 real and 3 complex 16^4
        # fields, 4.5 MiB, and the gradient rows it needs on the way fit in 24.
        grid = PeriodicGrid(2, 16, "spectral")
        background = scalar_from_modes(grid, [((1, 1, 1, 0), 0.01), ((1, 0, 0, 0), 0.005)])
        g = metric_from_potential(grid, background)
        curvature_field(grid, g)  # loads scipy.fft and fills the factor cache
        g = metric_from_potential(grid, background)
        tracemalloc.start()
        try:
            S = curvature_field(grid, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(entry.nbytes for entry in S.values()) <= 4.5 * 2**20
        assert peak <= 24 * 2**20


class TestSym2Oracle:
    """The readers of the Sym² field against the full reference tensor on
    n=2 spectral metrics with complex g_12."""

    def test_double_and_ricci_traces_match_einsum(self):
        for N in (8, 16):
            grid, g = TestCurvatureTensor._n2_complex_offdiagonal_metric(N)
            ginv = g.inverse()
            S, R, G = curvature_field(grid, g), reference_curvature(grid, g), ginv.values
            ref = np.einsum("...ji,...lk,...ijkl->...", G, G, R)
            double = g_double_trace(ginv, S)
            assert double.dtype == float
            assert np.max(np.abs(double - ref)) <= 1e-12 * np.max(np.abs(ref))
            ref = np.einsum("...lk,...ijkl->...ij", G, R)
            traced = g_curvature_trace(ginv, S).values
            assert np.max(np.abs(traced - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [1, 2])
    def test_model_form_polarizes_b_form(self, n):
        # B(h, eta) is the polarization of the model form of forms.b_form:
        # the (i, j)-(k, l) symmetric mean of h_ij eta_kl + h_il eta_kj, with
        # B(h, h) = B(h), on fields whose off-diagonal entries are complex.
        grid = PeriodicGrid(n=n, N=8)
        rng = np.random.default_rng(40 + n)
        h, eta = (MetricField(grid, random_metric_values(n, grid.shape, rng)) for _ in range(2))
        H, E = h.values, eta.values

        def b_form(X, Y):
            return (np.einsum("...ij,...kl->...ijkl", X, Y)
                    + np.einsum("...il,...kj->...ijkl", X, Y))

        B = full_tensor(model_form(h, eta), n)
        ref = 0.5 * (b_form(H, E) + b_form(E, H))
        assert np.max(np.abs(B - ref)) <= 1e-14 * np.max(np.abs(ref))
        B = full_tensor(model_form(h, h), n)
        assert np.max(np.abs(B - b_form(H, H))) <= 1e-14 * np.max(np.abs(B))
        point = (3,) * (2 * n)
        assert_allclose(B[point], forms_b_form(HermitianForm(H[point])).entries, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2])
    def test_model_form_double_trace(self, n):
        # tr_g tr_g B(h, eta) = tr_g h tr_g eta + tr(g^-1 h g^-1 eta).
        grid = PeriodicGrid(n=n, N=8)
        rng = np.random.default_rng(50 + n)
        g, h, eta = (MetricField(grid, random_metric_values(n, grid.shape, rng)) for _ in range(3))
        ginv = g.inverse()
        G, H, E = ginv.values, h.values, eta.values
        ref = (np.einsum("...ji,...ij->...", G, H) * np.einsum("...ji,...ij->...", G, E)
               + np.einsum("...ij,...jk,...kl,...li->...", G, H, G, E)).real
        double = g_double_trace(ginv, model_form(h, eta))
        assert double.dtype == float
        assert np.max(np.abs(double - ref)) <= 1e-13 * np.max(np.abs(ref))

    @staticmethod
    def pairing_route(model, rho, alpha, beta):
        """The mixed-level estimate through the top eigenvalue of the full
        n^2 x n^2 pairing matrix of the reference tensor, which vanishes on Λ²
        only as far as the tensor is symmetric."""
        grid, n = model.grid, model.grid.n
        axes = 2 * n
        E = model.h.unitary_frame()
        rho_flat = np.swapaxes(E, -1, -2) @ rho.values @ np.conj(E)
        rho_flat = 0.5 * (rho_flat + np.conj(np.swapaxes(rho_flat, -1, -2)))
        rho_top = np.linalg.eigvalsh(rho_flat)[..., -1]
        R = reference_curvature(grid, model.h)
        # A[(i, k), (j, l)] = R[i, j, k, l] at every point.
        A = R.transpose(tuple(range(axes)) + (axes, axes + 2, axes + 1, axes + 3))
        A = A.reshape(grid.shape + (n * n, n * n))
        F = (E[..., :, None, :, None] * E[..., None, :, None, :]).reshape(grid.shape + (n * n,) * 2)
        paired = np.swapaxes(F, -1, -2) @ A @ np.conj(F)
        paired = 0.5 * (paired + np.conj(np.swapaxes(paired, -1, -2)))
        return float((alpha * rho_top + beta * np.linalg.eigvalsh(paired)[..., -1]).max())

    @pytest.mark.parametrize("amplitude", [0.0, 0.01, 0.02])
    @pytest.mark.parametrize("n", [1, 2])
    def test_mixed_level_estimate_matches_pairing_route(self, n, amplitude):
        # The backgrounds of the flow tests: a mode touching every complex
        # coordinate (complex g_12 at n=2) and a one-mode twist.
        grid = PeriodicGrid(n, 8, "spectral")
        mixed = (1, 1) if n == 1 else (1, 1, 1, 0)
        config = FlowConfig(
            grid=grid,
            background=scalar_from_modes(grid, [(mixed, amplitude)]),
            twist=TwistSpec(c=0.0, potential=scalar_from_modes(grid, [(mixed, 0.01)])),
        )
        model = FlowModel(config)
        rho = model.ric_h + dbar_hessian(grid, model.u)
        for alpha, beta in ((1.0, 1.0), (0.05, 20.0)):
            ref = self.pairing_route(model, rho, alpha, beta)
            est = _mixed_level_estimate(model, rho, alpha, beta)
            assert abs(est - ref) <= 1e-12 * (1.0 + abs(ref))


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
        field = dbar_hessian(grid, f)
        assert all(e is None or e.shape == grid.shape for e in field.entries)
        assert field.a.dtype == float and (n == 1 or field.d.dtype == float)
        full = field.values
        ref = per_axis_hessian(grid, f)
        assert np.max(np.abs(full - ref)) <= 1e-12 * np.max(np.abs(ref))
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
        g, A = self.field(n, 4), self.field(n, 5)
        ginv = g.inverse()
        G = ginv.values
        ref = np.einsum("...lk,...kl->...", G, A.values)
        assert np.max(np.abs(g_trace(ginv, A) - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [1, 2])
    def test_real_trace_rejects_non_hermitian_full_field(self, n):
        ginv = self.field(n, 9).inverse()
        A = self.field(n, 10)
        assert g_trace(ginv, A).dtype == float
        # An imaginary diagonal entry adds i g^{00}, and g^{00} > 0, to the trace.
        A.a = A.a + 1j
        with pytest.raises(ValueError, match="g-trace must be real"):
            g_trace(ginv, A)


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

    @pytest.mark.parametrize("k", [(0.5, 0), (1, 0.0), np.array([1.0, 0.0])])
    def test_rejects_non_integer_wavevector(self, k):
        # k = (0.5, 0) is not periodic on the torus: at N=8 the field jumps
        # by 1.92 between the last grid point and the first.
        grid = PeriodicGrid(n=1, N=8)
        with pytest.raises(ValueError, match="mode wavevector entries must be integers, got"):
            scalar_from_modes(grid, [(k, 1.0)])

    def test_accepts_numpy_integer_wavevector(self):
        grid = PeriodicGrid(n=1, N=8)
        expected = scalar_from_modes(grid, [((1, 2), 0.5)])
        assert np.array_equal(scalar_from_modes(grid, [(np.array([1, 2]), 0.5)]), expected)

    @pytest.mark.parametrize("n, N", list(itertools.product((1, 2), (8, 12, 16))))
    def test_matches_the_full_grid_formula_bitwise(self, n, N):
        grid = PeriodicGrid(n=n, N=N)
        rng = np.random.default_rng([751, n, N])
        modes = [
            (tuple(int(c) for c in rng.integers(-3, 4, size=2 * n)),
             complex(rng.standard_normal(), rng.standard_normal()))
            for _ in range(3)
        ] + [((0,) * (2 * n), 0.5), ((1,) + (0,) * (2 * n - 1), -0.25)]
        # The phase summed over full meshgrid coordinates and one complex
        # exponential per grid point.
        coords = grid.coordinates()
        expected = np.zeros(grid.shape)
        for k, amp in modes:
            phase = sum(ki * ci for ki, ci in zip(np.asarray(k, dtype=float), coords))
            expected += (complex(amp) * np.exp(2j * np.pi * phase)).real
        assert np.array_equal(scalar_from_modes(grid, modes), expected)
