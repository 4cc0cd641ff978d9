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
odd derivatives.  On the fd2 grid a single cosine mode eps*cos(2 pi x) has
discrete complex Hessian -s_N * eps * cos(2 pi x) with
s_N = sin(pi/N)^2 N^2; the spectral operator reproduces the continuum
factor pi^2 exactly.
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


def _spectral_wavenumbers(N: int, zero_nyquist: bool) -> np.ndarray:
    k = np.fft.fftfreq(N, d=1.0 / N)
    if zero_nyquist:
        k = k.copy()
        k[N // 2] = 0.0
    return k


def _spectral_apply(f: np.ndarray, axis: int, N: int, factor: np.ndarray) -> np.ndarray:
    shape = [1] * f.ndim
    shape[axis] = N
    out = np.fft.ifft(np.fft.fft(f, axis=axis) * factor.reshape(shape), axis=axis)
    return out if np.iscomplexobj(f) else out.real


def _d1(grid: PeriodicGrid, f: np.ndarray, axis: int) -> np.ndarray:
    """Centered (or spectral) first derivative along a real axis."""
    if grid.discretization == "fd2":
        return (np.roll(f, -1, axis=axis) - np.roll(f, 1, axis=axis)) * (grid.N / 2.0)
    k = _spectral_wavenumbers(grid.N, zero_nyquist=True)
    return _spectral_apply(f, axis, grid.N, 2j * np.pi * k)


def _d2(grid: PeriodicGrid, f: np.ndarray, axis: int) -> np.ndarray:
    """Second derivative along a single real axis."""
    if grid.discretization == "fd2":
        return (
            np.roll(f, -1, axis=axis) + np.roll(f, 1, axis=axis) - 2.0 * f
        ) * float(grid.N) ** 2
    k = _spectral_wavenumbers(grid.N, zero_nyquist=False)
    return _spectral_apply(f, axis, grid.N, -((2.0 * np.pi * k) ** 2))


def _dd(grid: PeriodicGrid, f: np.ndarray, a: int, b: int) -> np.ndarray:
    """Mixed second derivative along real axes a, b."""
    if a == b:
        return _d2(grid, f, a)
    return _d1(grid, _d1(grid, f, b), a)


def dbar_hessian(grid: PeriodicGrid, f: np.ndarray) -> np.ndarray:
    """The complex Hessian d_i dbar_j f, appended as two trailing axes.

    ``f`` may carry trailing component axes beyond the grid axes (they ride
    along), and may be complex.  For real input the output is Hermitian in
    its two new axes exactly, by commutativity of the shift operators.
    """
    n = grid.n
    out = np.empty(f.shape + (n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            xi, yi = 2 * i, 2 * i + 1
            xj, yj = 2 * j, 2 * j + 1
            even = _dd(grid, f, xi, xj) + _dd(grid, f, yi, yj)
            odd = _dd(grid, f, xi, yj) - _dd(grid, f, yi, xj)
            out[..., i, j] = 0.25 * (even + 1j * odd)
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
        expected = self.grid.shape + (self.grid.n, self.grid.n)
        if v.shape != expected:
            raise ValueError(f"expected shape {expected}, got {v.shape}")
        vH = np.conj(np.swapaxes(v, -1, -2))
        scale = 1.0 + float(np.max(np.abs(v)))
        worst = float(np.max(np.abs(v - vH)))
        if worst > 1e-10 * scale:
            raise ValueError(f"metric field is not Hermitian; deviation {worst:.3e}")
        self.values = 0.5 * (v + vH)

    @property
    def n(self) -> int:
        return self.grid.n

    def inverse(self) -> np.ndarray:
        return np.linalg.inv(self.values)

    def log_determinant(self) -> np.ndarray:
        sign, logabs = np.linalg.slogdet(self.values)
        if np.max(np.abs(sign - 1.0)) > 1e-8:
            raise DegeneracyError("metric determinant is not positive everywhere")
        return logabs

    def smallest_eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.values)[..., 0]

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


def laplacian(grid: PeriodicGrid, g: MetricField, f: np.ndarray) -> np.ndarray:
    """The metric Laplacian g^{i jbar} d_i dbar_j f of a real field."""
    hess = dbar_hessian(grid, np.asarray(f, dtype=float))
    return g_trace(g.inverse(), hess, real_tol=1e-10)


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
