"""Flat-torus grids and discrete complex differential operators.

The torus has complex dimension n in {1, 2} with complex coordinates
z_i = x_i + i y_i, each real coordinate running over [0, 1) on N uniformly
spaced points (N even, at least 8).  Grid axes are ordered
(x_1, y_1[, x_2, y_2]).  Mixed complex derivatives follow

    d_i dbar_j f = (1/4) [ (dx_i dx_j + dy_i dy_j)
                           + i (dx_i dy_j - dy_i dx_j) ] f.

Two discretizations are supported.  ``fd2`` uses the 3-point second
difference on a repeated axis and compositions of centered first differences
across axes; all shifts commute, so Hermiticity of the complex Hessian and
the curvature tensor symmetries hold exactly, not just to truncation order.
``spectral`` differentiates in Fourier space with the Nyquist mode zeroed for
odd derivatives; its complex Hessian transforms each field once over the
grid axes and applies every entry's symbol before one inverse transform.
On the fd2 grid a single cosine mode eps*cos(2 pi x) has discrete complex
Hessian -s_N * eps * cos(2 pi x) with s_N = sin(pi/N)^2 N^2; the spectral
operator reproduces the continuum factor pi^2 exactly.

Because n <= 2, the metric kernels (smallest eigenvalue, log determinant,
inverse) are closed forms in the entries of the 1x1 or 2x2 matrix at each
point rather than batched LAPACK calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneracyError

__all__ = [
    "MetricField",
    "PeriodicGrid",
    "RicciPotentialReport",
    "ScalarField",
    "curvature_field",
    "dbar_hessian",
    "flat_metric",
    "g_trace",
    "grid_mean",
    "holomorphic_derivative",
    "laplacian",
    "metric_from_potential",
    "ricci_field",
    "ricci_potential",
    "scalar_from_modes",
]

DISCRETIZATIONS = ("fd2", "spectral")


@dataclass(frozen=True)
class PeriodicGrid:
    """A uniform grid on the real 2n-torus with unit periods."""

    n: int
    N: int
    discretization: str = "fd2"

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError(f"complex dimension must be 1 or 2, got {self.n}")
        if self.N < 8 or self.N % 2 != 0:
            raise ValueError(f"N must be an even integer >= 8, got {self.N}")
        if self.discretization not in DISCRETIZATIONS:
            raise ValueError(
                f"discretization must be one of {DISCRETIZATIONS}, got {self.discretization!r}"
            )

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * (2 * self.n)

    @property
    def spacing(self) -> float:
        return 1.0 / self.N

    def coordinates(self) -> list[np.ndarray]:
        """Arrays (x_1, y_1[, x_2, y_2]), each of the full grid shape."""
        ticks = np.arange(self.N) / self.N
        return list(np.meshgrid(*([ticks] * 2 * self.n), indexing="ij"))


def _spectral_factor(N: int, order: int) -> np.ndarray:
    """Fourier symbol of d/dx (Nyquist zeroed) or d^2/dx^2 along one axis."""
    k = np.fft.fftfreq(N, d=1.0 / N)
    if order == 2:
        return -((2.0 * np.pi * k) ** 2)
    k[N // 2] = 0.0
    return 2j * np.pi * k


def _along(factor: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    """A per-axis factor shaped to broadcast along ``axis`` of an ndim array."""
    shape = [1] * ndim
    shape[axis] = factor.size
    return factor.reshape(shape)


def _d1(grid: PeriodicGrid, f: np.ndarray, axis: int) -> np.ndarray:
    """Centered (or spectral) first derivative along a real axis."""
    if grid.discretization == "fd2":
        return (np.roll(f, -1, axis=axis) - np.roll(f, 1, axis=axis)) * (grid.N / 2.0)
    factor = _along(_spectral_factor(grid.N, 1), axis, f.ndim)
    out = np.fft.ifft(np.fft.fft(f, axis=axis) * factor, axis=axis)
    return out if np.iscomplexobj(f) else out.real


def _dd(grid: PeriodicGrid, f: np.ndarray, a: int, b: int) -> np.ndarray:
    """fd2 mixed second derivative along real axes a, b."""
    if a == b:
        return (np.roll(f, -1, axis=a) + np.roll(f, 1, axis=a) - 2.0 * f) * float(grid.N) ** 2
    return _d1(grid, _d1(grid, f, b), a)


def _spectral_symbol(N: int, ndim: int, a: int, b: int) -> np.ndarray:
    """Fourier symbol of the mixed second derivative along real axes a, b."""
    if a == b:
        return _along(_spectral_factor(N, 2), a, ndim)
    d1 = _spectral_factor(N, 1)
    return _along(d1, a, ndim) * _along(d1, b, ndim)


def dbar_hessian(grid: PeriodicGrid, f: np.ndarray) -> np.ndarray:
    """The complex Hessian d_i dbar_j f, appended as two trailing axes.

    ``f`` may carry trailing component axes beyond the grid axes (they ride
    along), and may be complex.  Entry (i, j) is (even + i odd) / 4 with
    even = dx_i dx_j + dy_i dy_j and odd = dx_i dy_j - dy_i dx_j; odd is
    identically zero on the diagonal.  For real input only i <= j is computed
    and (j, i) is its conjugate, so the output is exactly Hermitian.
    """
    n = grid.n
    real = not np.iscomplexobj(f)
    if grid.discretization == "spectral":
        axes = tuple(range(2 * n))
        spectrum = np.fft.fftn(f, axes=axes)

        def dd(a, b):
            return _spectral_symbol(grid.N, f.ndim, a, b)

        def finish(symbol):
            return np.fft.ifftn(spectrum * symbol, axes=axes)

    else:

        def dd(a, b):
            return _dd(grid, f, a, b)

        def finish(value):
            return value

    out = np.empty(f.shape + (n, n), dtype=complex)
    for i in range(n):
        xi, yi = 2 * i, 2 * i + 1
        diagonal = finish(0.25 * (dd(xi, xi) + dd(yi, yi)))
        out[..., i, i] = diagonal.real if real else diagonal
        for j in range(n):
            if j == i or (real and j < i):
                continue
            xj, yj = 2 * j, 2 * j + 1
            even = dd(xi, xj) + dd(yi, yj)
            odd = dd(xi, yj) - dd(yi, xj)
            out[..., i, j] = finish(0.25 * (even + 1j * odd))
            if real:
                out[..., j, i] = np.conj(out[..., i, j])
    return out


def holomorphic_derivative(grid: PeriodicGrid, f: np.ndarray, i: int) -> np.ndarray:
    """d/dz_i = (dx_i - i dy_i)/2 applied along the grid axes."""
    if not 0 <= i < grid.n:
        raise ValueError(f"index {i} out of range for n={grid.n}")
    return 0.5 * (_d1(grid, f, 2 * i) - 1j * _d1(grid, f, 2 * i + 1))


def grid_mean(f: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """Average over the grid axes, keeping any trailing component axes."""
    return f.mean(axis=tuple(range(2 * grid.n)))


@dataclass
class ScalarField:
    """A real scalar sampled on the grid."""

    grid: PeriodicGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != self.grid.shape:
            raise ValueError(f"expected shape {self.grid.shape}, got {v.shape}")
        if np.iscomplexobj(v):
            worst = float(np.max(np.abs(v.imag)))
            if worst > 1e-10 * (1.0 + float(np.max(np.abs(v.real)))):
                raise ValueError(f"scalar field has imaginary part up to {worst:.3e}")
            v = v.real
        self.values = v.astype(float)


@dataclass
class MetricField:
    """A Hermitian (n x n)-matrix field g[..., i, j] = g(e_i, conj(e_j))."""

    grid: PeriodicGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        n = self.grid.n
        expected = self.grid.shape + (n, n)
        if v.shape != expected:
            raise ValueError(f"expected shape {expected}, got {v.shape}")
        # max |v - v^H| and 0.5 (v + v^H) entry by entry: a diagonal entry
        # deviates by 2 |Im v_ii| and keeps its real part.
        out = np.empty(expected, dtype=complex)
        worst = 0.0
        for i in range(n):
            worst = max(worst, 2.0 * float(np.max(np.abs(v[..., i, i].imag))))
            out[..., i, i] = v[..., i, i].real
            for j in range(i + 1, n):
                vij, vji = v[..., i, j], v[..., j, i]
                worst = max(worst, float(np.max(np.abs(vij - np.conj(vji)))))
                out[..., i, j] = 0.5 * (vij + np.conj(vji))
                out[..., j, i] = 0.5 * (vji + np.conj(vij))
        if worst > 1e-10 * (1.0 + float(np.max(np.abs(v)))):
            raise ValueError(f"metric field is not Hermitian; deviation {worst:.3e}")
        self.values = out

    @property
    def n(self) -> int:
        return self.grid.n

    def _entries(self):
        """(a, d, b, det) with g = [[a, b], [conj(b), d]] at every point.

        At n=1, d and b are None and det = a = g_00.
        """
        v = self.values
        a = v[..., 0, 0].real
        if self.n == 1:
            return a, None, None, a
        d = v[..., 1, 1].real
        b = v[..., 0, 1]
        return a, d, b, a * d - (b.real**2 + b.imag**2)

    def inverse(self) -> np.ndarray:
        """g^{-1} = adj(g) / det g (no positivity check)."""
        a, d, b, det = self._entries()
        out = np.empty_like(self.values)
        inv_det = 1.0 / det
        if self.n == 1:
            out[..., 0, 0] = inv_det
            return out
        out[..., 0, 0] = d * inv_det
        out[..., 1, 1] = a * inv_det
        out[..., 0, 1] = -b * inv_det
        out[..., 1, 0] = np.conj(out[..., 0, 1])
        return out

    def log_determinant(self) -> np.ndarray:
        det = self._entries()[3]
        if not np.all(det > 0.0):
            raise DegeneracyError("metric determinant is not positive everywhere")
        # xlogy(1, x) is the C library's log, the one LAPACK's slogdet used:
        # numpy's vectorised log differs from it in the last bit on some
        # inputs, which the flow's Schwarz margins turn into relative changes
        # near 1e-6.  Imported here so that runs without grid metrics (the
        # certifier, the suites) do not load scipy.special.
        from scipy.special import xlogy

        return xlogy(1.0, det)

    def smallest_eigenvalues(self) -> np.ndarray:
        """lambda_min, as det / lambda_max where the mean eigenvalue is
        positive: this avoids cancellation and keeps the sign of det."""
        a, d, b, det = self._entries()
        if self.n == 1:
            return a.copy()
        half_trace = 0.5 * (a + d)
        radius = np.hypot(0.5 * (a - d), np.abs(b))
        # Elsewhere lambda_min = mean - radius has no cancellation.
        out = half_trace - radius
        np.divide(det, half_trace + radius, out=out, where=half_trace > 0.0)
        return out

    def require_positive(self, what: str = "metric") -> float:
        """The smallest eigenvalue over the grid; raises unless it is positive."""
        eig = self.smallest_eigenvalues()
        margin = float(eig.min())
        if margin <= 0.0:
            worst = np.unravel_index(int(np.argmin(eig)), eig.shape)
            raise DegeneracyError(
                f"{what} lost positive definiteness (min eigenvalue {margin:.3e} "
                f"at grid point {worst})",
                worst_point=worst,
                margin=margin,
            )
        return margin


def g_trace(ginv: np.ndarray, A: np.ndarray, real_tol: float | None = None) -> np.ndarray:
    """The g-trace sum_{k,l} g^{l k} A[..., k, l] over the last two axes of A.

    ``ginv`` is the inverse metric field; axes of ``A`` between the grid axes
    and the traced pair ride along.  With ``real_tol`` the trace is checked
    real to that relative tolerance and returned as a real field.
    """
    extra = A.ndim - ginv.ndim
    if extra:
        ginv = ginv.reshape(ginv.shape[:-2] + (1,) * extra + ginv.shape[-2:])
    out = np.einsum("...lk,...kl->...", ginv, A)
    if real_tol is None:
        return out
    worst = float(np.max(np.abs(out.imag)))
    if worst > real_tol * (1.0 + float(np.max(np.abs(out.real)))):
        raise ValueError(f"g-trace must be real; got imaginary part {worst:.3e}")
    return out.real


def flat_metric(grid: PeriodicGrid) -> MetricField:
    values = np.zeros(grid.shape + (grid.n, grid.n), dtype=complex)
    values[...] = np.eye(grid.n)
    return MetricField(grid, values)


def metric_from_potential(grid: PeriodicGrid, potential: np.ndarray) -> MetricField:
    """The metric delta_ij + d_i dbar_j potential (positivity is not checked)."""
    potential = np.asarray(potential, dtype=float)
    if potential.shape != grid.shape:
        raise ValueError(f"expected shape {grid.shape}, got {potential.shape}")
    values = dbar_hessian(grid, potential)
    values[...] += np.eye(grid.n)
    return MetricField(grid, values)


def scalar_from_modes(grid: PeriodicGrid, modes) -> np.ndarray:
    """Real field sum_m Re(amp_m exp(2 pi i k_m . x)) from (k, amp) pairs.

    Each ``k`` is an integer vector over the 2n real axes (x_1, y_1, ...).
    """
    coords = grid.coordinates()
    out = np.zeros(grid.shape)
    for k, amp in modes:
        k = np.asarray(k, dtype=float)
        if k.shape != (2 * grid.n,):
            raise ValueError(f"mode wavevector must have length {2 * grid.n}")
        phase = sum(ki * ci for ki, ci in zip(k, coords))
        out += (complex(amp) * np.exp(2j * np.pi * phase)).real
    return out


def ricci_field(grid: PeriodicGrid, g: MetricField) -> MetricField:
    """Ricci form -d_i dbar_j log det g of a positive metric field.

    Every component has exact zero grid mean (summation by parts), so the
    discrete total Ricci class vanishes identically, matching the torus.
    """
    g.require_positive("metric")
    return MetricField(grid, -dbar_hessian(grid, g.log_determinant()))


def curvature_field(grid: PeriodicGrid, g: MetricField) -> np.ndarray:
    """Full curvature tensor field R[..., i, j, k, l] of the metric field.

        R_{i jbar k lbar} = -d_k dbar_l g_{i jbar}
                            + g^{p qbar} (d_k g_{i qbar}) (dbar_l g_{p jbar})

    with dbar_l g_{p jbar} = conj(d_l g_{j pbar}).  Its :func:`g_trace` over
    (k, l) reproduces :func:`ricci_field` up to discretization error.
    """
    g.require_positive("metric")
    n = grid.n
    term1 = -dbar_hessian(grid, g.values)
    dg = np.stack([holomorphic_derivative(grid, g.values, k) for k in range(n)])
    ginv = g.inverse()
    term2 = np.einsum(
        "...qp,k...iq,l...jp->...ijkl", ginv, dg, np.conj(dg), optimize=True
    )
    return term1 + term2


def laplacian(grid: PeriodicGrid, ginv: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The metric Laplacian g^{i jbar} d_i dbar_j f of a real field; ``ginv`` is g^-1."""
    hess = dbar_hessian(grid, np.asarray(f, dtype=float))
    return g_trace(ginv, hess, real_tol=1e-10)


@dataclass
class RicciPotentialReport:
    """A potential for the Ricci form together with consistency residuals."""

    potential: np.ndarray
    residual_vs_trace: float
    residual_vs_direct: float


def ricci_potential(grid: PeriodicGrid, g: MetricField) -> RicciPotentialReport:
    """Mean-zero potential f with d dbar f equal to the Ricci form.

    On the torus the discrete Ricci form is exactly a complex Hessian, of
    f = -(log det g - mean log det g), so ``residual_vs_direct`` is zero to
    roundoff.  ``residual_vs_trace`` compares against the g-trace of the full
    curvature tensor instead, which differs by discretization error and
    decays at second order under grid refinement.
    """
    direct = ricci_field(grid, g).values
    logdet = g.log_determinant()
    potential = -(logdet - logdet.mean())
    hess = dbar_hessian(grid, potential)
    traced = g_trace(g.inverse(), curvature_field(grid, g))
    scale = 1.0 + float(np.max(np.abs(traced)))
    return RicciPotentialReport(
        potential=potential,
        residual_vs_trace=float(np.max(np.abs(hess - traced))) / scale,
        residual_vs_direct=float(np.max(np.abs(hess - direct))) / scale,
    )
