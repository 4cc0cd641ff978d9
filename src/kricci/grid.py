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
odd derivatives.  Its derivatives of a real field take one real forward
transform (``scipy.fft.rfftn``) over the grid axes; every derivative field
is a real-symbol combination, finished by one real inverse transform, so the
complex Hessian of a real field costs n^2 of them (the even and the odd part
of each off-diagonal entry separately).  Complex input is differentiated as
its real and imaginary parts.  On the fd2 grid a single cosine mode
eps*cos(2 pi x) has discrete complex Hessian -s_N * eps * cos(2 pi x) with
s_N = sin(pi/N)^2 N^2; the spectral operator reproduces the continuum
factor pi^2 exactly.

A metric field is stored as its Hermitian upper triangle: the real field a
at n=1, and at n=2 the real fields a, d and the complex field b with
g = [[a, b], [conj(b), d]].  Fields are validated (shape, Hermiticity to
1e-10) and symmetrized only where they enter from outside, by the public
``MetricField(grid, values)``; fields that are Hermitian by construction
(complex Hessians of real fields and real combinations of Hermitian fields)
are assembled from their entries with no check, so the flow's step path
never builds or re-validates a full (..., n, n) field.  The full field
``values`` is built on demand.

Because n <= 2, the metric kernels (smallest eigenvalue, log determinant,
inverse, unitary frame) are closed forms in the entries a, d, b rather than
batched LAPACK calls; they share one determinant per field.  The g-traces,
the contractions in the curvature tensor and the twist trace are written out
entry by entry.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError

__all__ = [
    "MetricField",
    "PeriodicGrid",
    "RicciPotentialReport",
    "ScalarField",
    "clib_log",
    "curvature_field",
    "dbar_hessian",
    "dbar_hessian_field",
    "flat_metric",
    "g_pair_trace",
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


def _spectral_factor(N: int) -> np.ndarray:
    """Fourier symbol of d/dx along one axis, Nyquist mode zeroed."""
    k = np.fft.fftfreq(N, d=1.0 / N)
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
    factor = _along(_spectral_factor(grid.N), axis, f.ndim)
    out = np.fft.ifft(np.fft.fft(f, axis=axis) * factor, axis=axis)
    return out if np.iscomplexobj(f) else out.real


def _dd(grid: PeriodicGrid, f: np.ndarray, a: int, b: int) -> np.ndarray:
    """fd2 mixed second derivative along real axes a, b."""
    if a == b:
        return (np.roll(f, -1, axis=a) + np.roll(f, 1, axis=a) - 2.0 * f) * float(grid.N) ** 2
    return _d1(grid, _d1(grid, f, b), a)


@functools.lru_cache(maxsize=16)
def _rfft_factors(N: int, axes: int, ndim: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """Per-axis factors over the ``rfftn`` spectrum of an ndim array whose
    first ``axes`` axes are grid axes, each shaped to broadcast along its axis.

    Returns (wave, second): wave[a] is 2 pi k along axis a with the Nyquist
    mode zeroed (odd derivatives), second[a] = -(2 pi k)^2.  The last grid
    axis carries the halved rfft frequencies.  Read-only, as the cache hands
    the same arrays to every caller.
    """
    full, half = np.fft.fftfreq(N, d=1.0 / N), np.fft.rfftfreq(N, d=1.0 / N)
    wave, second = [], []
    for axis in range(axes):
        freq = half if axis == axes - 1 else full
        k = 2.0 * np.pi * freq
        for factor, values in ((wave, np.where(np.abs(freq) == N // 2, 0.0, k)), (second, -k * k)):
            values = _along(values, axis, ndim)
            values.flags.writeable = False
            factor.append(values)
    return tuple(wave), tuple(second)


def _real_derivatives(grid: PeriodicGrid, f: np.ndarray, gradient: bool = False):
    """Derivative fields of one real field, all from one transform.

    Returns (hess, grad).  ``hess`` maps (k, l) with k <= l to the real and
    imaginary parts of d_k dbar_l f: (dx_k^2 + dy_k^2) f / 4 and 0 on the
    diagonal, (dx_k dx_l + dy_k dy_l) f / 4 and (dx_k dy_l - dy_k dx_l) f / 4
    off it.  With ``gradient``, grad[k] is (dx_k f / 2, dy_k f / 2).

    Each field is a linear combination of the terms ``d1(a)`` and ``dd(a, b)``
    (first and mixed second derivatives along real axes) turned into a field
    by ``finish``.  On the spectral grid the terms are real-valued Fourier
    symbols (i times one for ``d1``) on one shared ``rfftn`` of f, so each
    field costs one ``irfftn``; on fd2 they are the differenced fields.
    """
    if grid.discretization == "fd2":

        def d1(a):
            return _d1(grid, f, a)

        def dd(a, b):
            return _dd(grid, f, a, b)

        def finish(value):
            return value

    else:
        # Imported here so that runs without a spectral grid do not load scipy.fft.
        from scipy import fft

        axes = tuple(range(2 * grid.n))
        spectrum = fft.rfftn(f, axes=axes)
        wave, second = _rfft_factors(grid.N, len(axes), f.ndim)

        def d1(a):
            return 1j * wave[a]

        def dd(a, b):
            return second[a] if a == b else -(wave[a] * wave[b])

        def finish(symbol):
            return fft.irfftn(spectrum * symbol, s=grid.shape, axes=axes)

    hess, grad = {}, []
    for k in range(grid.n):
        xk, yk = 2 * k, 2 * k + 1
        hess[k, k] = (finish(0.25 * (dd(xk, xk) + dd(yk, yk))), 0.0)
        for l in range(k + 1, grid.n):
            xl, yl = 2 * l, 2 * l + 1
            hess[k, l] = (
                finish(0.25 * (dd(xk, xl) + dd(yk, yl))),
                finish(0.25 * (dd(xk, yl) - dd(yk, xl))),
            )
        if gradient:
            grad.append((finish(0.5 * d1(xk)), finish(0.5 * d1(yk))))
    return hess, grad


def _hessian_parts(re: dict, im: dict | None = None) -> dict:
    """(real, imaginary) parts of d_k dbar_l f for every (k, l), where
    f = re + i im and ``re``, ``im`` are the Hessians of
    :func:`_real_derivatives`.  For real f entry (l, k) is exactly the
    conjugate of (k, l)."""
    out = {}
    for (k, l), (even, odd) in re.items():
        if im is None:
            out[k, l] = (even, odd)
            if k != l:
                out[l, k] = (even, -odd)
        elif k == l:
            out[k, k] = (even, im[k, k][0])
        else:
            im_even, im_odd = im[k, l]
            out[k, l] = (even - im_odd, odd + im_even)
            out[l, k] = (even + im_odd, im_even - odd)
    return out


def _gradient_part(re, im=None, sign: float = 1.0):
    """(real, imaginary) parts of d_k f for f = re + sign i im, from one
    entry of the gradients of :func:`_real_derivatives`."""
    dx, dy = re
    if im is None:
        return dx, -dy
    im_dx, im_dy = im
    return dx + sign * im_dy, sign * im_dx - dy


def _complex(real, imag) -> np.ndarray:
    """A complex field from its real and imaginary parts."""
    out = np.empty(np.shape(real), dtype=complex)
    out.real = real
    out.imag = imag
    return out


def dbar_hessian_field(grid: PeriodicGrid, f: np.ndarray) -> MetricField:
    """The complex Hessian d_i dbar_j f of a real field f in entry form.

    Its entries with i <= j come out as separate fields, a = d_1 dbar_1 f,
    and at n=2 d = d_2 dbar_2 f and b = d_1 dbar_2 f, with no interleaving
    into the (..., n, n) layout; the field is Hermitian by construction and
    is not checked.  ``f`` may carry trailing component axes beyond the grid
    axes (they ride along).
    """
    hess = _real_derivatives(grid, np.asarray(f).astype(float, copy=False))[0]
    if grid.n == 1:
        return MetricField._from_entries(grid, hess[0, 0][0])
    return MetricField._from_entries(grid, hess[0, 0][0], hess[1, 1][0], _complex(*hess[0, 1]))


def dbar_hessian(grid: PeriodicGrid, f: np.ndarray) -> np.ndarray:
    """The complex Hessian d_i dbar_j f, appended as two trailing axes.

    ``f`` may carry trailing component axes beyond the grid axes (they ride
    along), and may be complex.  Entry (i, j) is (even + i odd) / 4 with
    even = dx_i dx_j + dy_i dy_j and odd = dx_i dy_j - dy_i dx_j; odd is
    identically zero on the diagonal.  For real input this is
    :func:`dbar_hessian_field` assembled into the full layout: only i <= j is
    computed and (j, i) is its conjugate, so the output is exactly Hermitian.
    Complex input is H(Re f) + i H(Im f), from one transform of each part.
    """
    f = np.asarray(f)
    if np.iscomplexobj(f):
        real, imag = dbar_hessian_field(grid, f.real), dbar_hessian_field(grid, f.imag)
        return real.values + 1j * imag.values
    return dbar_hessian_field(grid, f).values


def holomorphic_derivative(grid: PeriodicGrid, f: np.ndarray, i: int) -> np.ndarray:
    """d/dz_i = (dx_i - i dy_i)/2 applied along the grid axes."""
    if not 0 <= i < grid.n:
        raise ValueError(f"index {i} out of range for n={grid.n}")
    return 0.5 * (_d1(grid, f, 2 * i) - 1j * _d1(grid, f, 2 * i + 1))


def grid_mean(f: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """Average over the grid axes, keeping any trailing component axes."""
    return f.mean(axis=tuple(range(2 * grid.n)))


def clib_log(x: np.ndarray) -> np.ndarray:
    """Natural log through the C library, as ``scipy.special.xlogy(1, x)``.

    This is the log LAPACK's slogdet used.  numpy's vectorised log differs
    from it in the last bit on some inputs and CPUs, which the flow's Schwarz
    margins turn into relative changes near 1e-6, so flow outputs would
    depend on the host.
    """
    # Imported here so that runs without grid metrics (the certifier, the
    # suites) do not load scipy.special.
    from scipy.special import xlogy

    return xlogy(1.0, x)


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


class MetricField:
    """A Hermitian (n x n)-matrix field g[..., i, j] = g(e_i, conj(e_j)),
    stored as its upper triangle.

    At n=1 that is the real field ``a`` = g_00 (``d`` and ``b`` are None); at
    n=2 the real fields ``a`` = g_00, ``d`` = g_11 and the complex field
    ``b`` = g_01, so g = [[a, b], [conj(b), d]].

    ``MetricField(grid, values)`` takes a full (..., n, n) field from outside
    (files, configs, callers): it checks the shape and Hermiticity to 1e-10,
    symmetrizes to 0.5 (v + v^H) and keeps the triangle.  Fields that are
    Hermitian by construction come from :meth:`_from_entries` with no check:
    complex Hessians of real fields (:func:`dbar_hessian_field`) and sums,
    differences and real multiples of fields, which the arithmetic operators
    form entry by entry.  ``values`` builds the full field on each access and
    does not keep it.  ``det`` is computed once per field and shared by the
    kernels.  The field may be indefinite (a Ricci form, a twist); the
    kernels that need positivity say so.
    """

    # Leaves "scalar * field" to __rmul__ when the scalar is a numpy float.
    __array_ufunc__ = None

    def __init__(self, grid: PeriodicGrid, values: np.ndarray):
        self.grid = grid
        self.__post_init__(values)

    def __post_init__(self, values: np.ndarray) -> None:
        """Check the full field ``values`` and keep the triangle of 0.5 (v + v^H).

        The validation keeps the name it had when this class was a dataclass:
        ``bench/tracing.py`` counts validated fields by wrapping it.
        """
        v = np.asarray(values, dtype=complex)
        n = self.grid.n
        expected = self.grid.shape + (n, n)
        if v.shape != expected:
            raise ValueError(f"expected shape {expected}, got {v.shape}")
        # max |v - v^H| entry by entry: a diagonal entry deviates by 2 |Im v_ii|.
        worst = max(2.0 * float(np.max(np.abs(v[..., i, i].imag))) for i in range(n))
        if n == 2:
            worst = max(worst, float(np.max(np.abs(v[..., 0, 1] - np.conj(v[..., 1, 0])))))
        if worst > 1e-10 * (1.0 + float(np.max(np.abs(v)))):
            raise ValueError(f"metric field is not Hermitian; deviation {worst:.3e}")
        self.a = np.ascontiguousarray(v[..., 0, 0].real)
        self.d = self.b = None
        if n == 2:
            self.d = np.ascontiguousarray(v[..., 1, 1].real)
            self.b = 0.5 * (v[..., 0, 1] + np.conj(v[..., 1, 0]))

    @classmethod
    def _from_entries(cls, grid: PeriodicGrid, a, d=None, b=None) -> MetricField:
        """The field with triangle (a, d, b), unchecked: only for entries that
        are Hermitian by construction (a, d real)."""
        g = cls.__new__(cls)
        g.grid, g.a, g.d, g.b = grid, a, d, b
        return g

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def entries(self) -> tuple:
        """(a, d, b); d and b are None at n=1."""
        return self.a, self.d, self.b

    @property
    def values(self) -> np.ndarray:
        """The full (..., n, n) field, built on each access."""
        out = np.zeros(self.a.shape + (self.n, self.n), dtype=complex)
        out[..., 0, 0] = self.a
        if self.n == 2:
            out[..., 1, 1] = self.d
            out[..., 0, 1] = self.b
            out[..., 1, 0] = np.conj(self.b)
        return out

    def _entrywise(self, op, *others: MetricField) -> MetricField:
        """op of the entries of this field (and of ``others``): a real
        combination of Hermitian fields, so it is not checked."""
        columns = zip(self.entries, *(other.entries for other in others))
        entries = [None if column[0] is None else op(*column) for column in columns]
        return MetricField._from_entries(self.grid, *entries)

    def __add__(self, other: MetricField) -> MetricField:
        return self._entrywise(operator.add, other)

    def __sub__(self, other: MetricField) -> MetricField:
        return self._entrywise(operator.sub, other)

    def __neg__(self) -> MetricField:
        return self._entrywise(operator.neg)

    def __rmul__(self, scale: float) -> MetricField:
        return self._entrywise(lambda entry: scale * entry)

    @functools.cached_property
    def det(self) -> np.ndarray:
        """det g = a d - |b|^2 (a at n=1), computed once."""
        if self.n == 1:
            return self.a
        b = self.b
        return self.a * self.d - (b.real**2 + b.imag**2)

    def inverse(self) -> np.ndarray:
        """g^{-1} = adj(g) / det g as a full field (no positivity check)."""
        inv_det = 1.0 / self.det
        if self.n == 1:
            entries = (inv_det,)
        else:
            entries = self.d * inv_det, self.a * inv_det, -self.b * inv_det
        return MetricField._from_entries(self.grid, *entries).values

    def unitary_frame(self) -> np.ndarray:
        """The g-unitary frame E = L^{-T} at every point, g = L L^H the
        Cholesky factorization, so that E^T g conj(E) = 1 (no positivity
        check).  Both L and its inverse are triangular closed forms."""
        a, b = self.a, self.b
        out = np.zeros(a.shape + (self.n, self.n), dtype=complex)
        l00 = np.sqrt(a)
        out[..., 0, 0] = 1.0 / l00
        if self.n == 1:
            return out
        # L = [[l00, 0], [conj(b) / l00, l11]] with l11 = sqrt(det / a).
        l11 = np.sqrt(self.det / a)
        out[..., 1, 1] = 1.0 / l11
        out[..., 0, 1] = -np.conj(b) / (a * l11)
        return out

    def log_determinant(self) -> np.ndarray:
        det = self.det
        if not np.all(det > 0.0):
            raise DegeneracyError("metric determinant is not positive everywhere")
        return clib_log(det)

    def smallest_eigenvalues(self) -> np.ndarray:
        """lambda_min, as det / lambda_max where the mean eigenvalue is
        positive: this avoids cancellation and keeps the sign of det."""
        a, d = self.a, self.d
        if self.n == 1:
            return a.copy()
        half_trace = 0.5 * (a + d)
        radius = np.hypot(0.5 * (a - d), np.abs(self.b))
        # Elsewhere lambda_min = mean - radius has no cancellation.
        out = half_trace - radius
        np.divide(self.det, half_trace + radius, out=out, where=half_trace > 0.0)
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


def _entry_rows(M) -> list[list[np.ndarray]]:
    """The entry fields M[i][j] of an (n x n)-matrix field: views into a full
    (..., n, n) array, or the entries of a :class:`MetricField`."""
    if isinstance(M, MetricField):
        if M.n == 1:
            return [[M.a]]
        return [[M.a, M.b], [np.conj(M.b), M.d]]
    rows = range(M.shape[-1])
    return [[M[..., i, j] for j in rows] for i in rows]


def g_trace(ginv: np.ndarray, A, real_tol: float | None = None) -> np.ndarray:
    """The g-trace sum_{k,l} g^{l k} A[..., k, l] over the last two axes of A.

    ``ginv`` is the inverse metric field; ``A`` is a full matrix field, whose
    axes between the grid axes and the traced pair ride along, or a
    :class:`MetricField`.  The sum is written out entry by entry.  With
    ``real_tol`` the trace is checked real to that relative tolerance and
    returned as a real field.
    """
    if not isinstance(A, MetricField) and A.ndim > ginv.ndim:
        extra = A.ndim - ginv.ndim
        ginv = ginv.reshape(ginv.shape[:-2] + (1,) * extra + ginv.shape[-2:])
    G, A = _entry_rows(ginv), _entry_rows(A)
    rows = range(len(G))
    out = _dot([G[l][k] for l in rows for k in rows], [A[k][l] for l in rows for k in rows])
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
    hess = dbar_hessian_field(grid, potential)
    diagonal = (None if entry is None else entry + 1.0 for entry in (hess.a, hess.d))
    return MetricField._from_entries(grid, *diagonal, hess.b)


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
    return -dbar_hessian_field(grid, g.log_determinant())


def _dot(xs, ys):
    """sum_p xs[p] ys[p] over per-point entry arrays of one dtype: one entry
    of a matrix product written out for n <= 2, in place of a batched
    contraction."""
    total = xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        total += x * y
    return total


def g_pair_trace(ginv: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """tr(g^-1 A g^-1 B) = sum g^{li} A_ij g^{jk} B_kl at every point.

    ``ginv``, ``A`` and ``B`` are (n x n)-matrix fields over the same grid,
    full arrays or :class:`MetricField`; the products g^-1 A and g^-1 B are
    formed entry by entry.
    """
    ginv_rows = _entry_rows(ginv)
    rows = range(len(ginv_rows))

    def times_ginv(M):
        M = _entry_rows(M)
        return [[_dot(ginv_rows[i], [M[p][j] for p in rows]) for j in rows] for i in rows]

    GA, GB = times_ginv(A), times_ginv(B)
    return _dot([GA[i][j] for i in rows for j in rows], [GB[j][i] for i in rows for j in rows])


def curvature_field(grid: PeriodicGrid, g: MetricField) -> np.ndarray:
    """Full curvature tensor field R[..., i, j, k, l] of the metric field.

        R_{i jbar k lbar} = -d_k dbar_l g_{i jbar}
                            + g^{p qbar} (d_k g_{i qbar}) (dbar_l g_{p jbar})

    with dbar_l g_{p jbar} = conj(d_l g_{j pbar}).  Its :func:`g_trace` over
    (k, l) reproduces :func:`ricci_field` up to discretization error.

    Each real component of g = [[a, b], [conj b, d]] (a, d, Re b, Im b) is
    transformed once, which serves both its Hessian and its gradient.  The
    second term is (d_k g) W_l with W_l = g^-1 conj(d_l g)^T, from
    closed-form entry products.  Only entries with i < j, or i = j and
    k <= l, are computed; R_{j i l k} is their conjugate, so the field is
    exactly conjugation symmetric.
    """
    g.require_positive("metric")
    n = grid.n
    rows = range(n)
    ginv_rows = _entry_rows(g.inverse())
    a, d, b = g.entries
    components = [(0, 0, a, None)]
    if n == 2:
        components += [(1, 1, d, None), (0, 1, b.real, b.imag)]
    # Each (i, j, k, l) entry is one contiguous block, first holding
    # d_k dbar_l g_{i jbar}; the returned field is a view with the tensor
    # axes last.
    blocks = np.empty((n,) * 4 + grid.shape, dtype=complex)
    dg = {}  # dg[k, i, q] = d_k g_{i qbar}
    for i, j, re, im in components:
        re_hess, re_grad = _real_derivatives(grid, re, gradient=True)
        im_hess, im_grad = None, [None] * n
        if im is not None:
            im_hess, im_grad = _real_derivatives(grid, im, gradient=True)
        for (k, l), (real, imag) in _hessian_parts(re_hess, im_hess).items():
            blocks[i, j, k, l].real = real
            blocks[i, j, k, l].imag = imag
        for k in rows:
            dg[k, i, j] = _complex(*_gradient_part(re_grad[k], im_grad[k]))
            if i != j:
                dg[k, j, i] = _complex(*_gradient_part(re_grad[k], im_grad[k], -1.0))
    for l in rows:
        conj_dl = {jp: np.conj(dg[(l,) + jp]) for jp in itertools.product(rows, rows)}
        # W[q, j] = g^{-1}_{qp} conj(d_l g_{j pbar})
        W = {
            (q, j): _dot(ginv_rows[q], [conj_dl[j, p] for p in rows])
            for q, j in itertools.product(rows, rows)
        }
        for i, j, k in itertools.product(rows, rows, rows):
            if j < i or (i == j and k > l):
                continue
            block = blocks[i, j, k, l]
            np.subtract(_dot([dg[k, i, q] for q in rows], [W[q, j] for q in rows]), block, out=block)
            if (i, k) == (j, l):
                block.imag = 0.0  # self-conjugate, so real
            else:
                np.conjugate(block, out=blocks[j, i, l, k])
    return np.moveaxis(blocks, (0, 1, 2, 3), (-4, -3, -2, -1))


def laplacian(grid: PeriodicGrid, ginv: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The metric Laplacian g^{i jbar} d_i dbar_j f of a real field; ``ginv`` is g^-1."""
    return g_trace(ginv, dbar_hessian_field(grid, f), real_tol=1e-10)


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
