"""Flat-torus grids and discrete complex differential operators.

The torus has complex dimension n in {1, 2} with complex coordinates
z_i = x_i + i y_i, each real coordinate running over [0, 1) on N uniformly
spaced points (N even, at least 8).  Grid axes are ordered
(x_1, y_1[, x_2, y_2]).  Mixed complex derivatives follow

    d_i dbar_j f = (1/4) [ (dx_i dx_j + dy_i dy_j)
                           + i (dx_i dy_j - dy_i dx_j) ] f.

Two discretizations are supported.  ``fd2`` uses the 3-point second
difference on a repeated axis and compositions of centered first differences
across axes; all shifts commute, so the complex Hessian is exactly
Hermitian, but the curvature tensor meets the swap of its unbarred slots
only to second order (see :func:`curvature_field`).  Both stencils are
periodic neighbour sums and differences, f[i+1] +- f[i-1], written into one
fresh array per derivative by three sliced ufunc calls (the interior and the
two wrap faces) with no shifted copies; they are bitwise equal to the
``np.roll`` formulas the tests keep as reference.
``spectral`` differentiates in Fourier space with the Nyquist mode zeroed for
odd derivatives.  Its derivatives of a real field take one real forward
transform (``scipy.fft.rfftn``); every derivative field is a real-symbol
combination, finished by one real inverse transform, so the complex Hessian
costs n^2 of them (the even and the odd part of each off-diagonal entry
separately).  The symbols are built once per grid size and kept read-only.  On the fd2 grid a single cosine mode eps*cos(2 pi x) has
discrete complex Hessian -s_N * eps * cos(2 pi x) with s_N = sin(pi/N)^2 N^2;
the spectral operator reproduces the continuum factor pi^2 exactly.

One complex Hessian, :func:`dbar_hessian`, serves every caller: it takes a
real, grid-shaped field, checks it once and returns the entry form below.

A metric field is stored as its Hermitian upper triangle: the real field a
at n=1, and at n=2 the real fields a, d and the complex field b with
g = [[a, b], [conj(b), d]].  Fields are validated (shape, finite entries,
Hermiticity to 1e-10) and symmetrized only where they enter from outside,
by the public ``MetricField(grid, values)``; fields that are Hermitian by construction
(complex Hessians of real fields and real combinations of Hermitian fields)
are assembled from their entries with no check, so the flow's step path
never builds or re-validates a full (..., n, n) field.  The inverse g^-1 is
one of these too, so every g-trace reads g^-1 as its entries.  The full field
``values`` is built on demand.

Because n <= 2, the metric kernels (smallest eigenvalue, log determinant,
inverse, unitary frame) are closed forms in the entries a, d, b rather than
batched LAPACK calls; they share one determinant per field.  Positivity has
one proof, :meth:`MetricField.require_positive`, made once per field: it
records the margin lambda_min it proved, and a second call returns it.  The
log determinant asks for that proof, so on a field already checked it costs
no pass over the grid.  It is numpy's log, whose SIMD loop numpy picks per
CPU: outputs repeat bitwise on one host and numpy build, not across them.
The smallest eigenvalue takes only correctly rounded +, -, *, / and sqrt,
so the margins it proves are the same bits on every host.

The g-traces of Hermitian fields are real, and one pairing computes every
one of them: Re tr(XY) of two Hermitian fields given as their upper
triangles, in real arithmetic from the real and imaginary parts of the
entries, with no complex temporary and no conjugate copy of b.  Its callers'
only check is an O(1) one, that the diagonal entries are real arrays.

The curvature of a metric field is stored the same way, as the upper
triangle of a Hermitian form on Sym²(C^n) (:func:`curvature_field`): 3 real
and 3 complex entry fields at n=2, where the rank-4 tensor has 16 complex
blocks.  Its traces read those entries, and no rank-4 field is built: the
Ricci-type trace pairs g^-1 with each diagonal block, and the double trace
is the g-trace of that.  The polarized model form B(h, eta)
(:func:`model_form`) is a Sym² field too; the flow adds it to R_h, so that
the twist term of its Schwarz inequality is part of one double trace.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import DegeneracyError
from .forms import sym2_index

__all__ = [
    "MetricField",
    "PeriodicGrid",
    "RicciPotentialReport",
    "ScalarField",
    "curvature_field",
    "dbar_hessian",
    "flat_metric",
    "g_curvature_trace",
    "g_double_trace",
    "g_trace",
    "laplacian",
    "metric_from_potential",
    "model_form",
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
        for name, value in (("n", self.n), ("N", self.N)):
            if not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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


# (f[i+1], f[i-1], out[i]) slices along a periodic axis: the interior, then
# the two wrap faces i = 0 and i = N-1.
_PERIODIC_FACES = (
    (slice(2, None), slice(None, -2), slice(1, -1)),
    (slice(1, 2), slice(-1, None), slice(None, 1)),
    (slice(None, 1), slice(-2, -1), slice(-1, None)),
)

# The index tuples of _PERIODIC_FACES along each of the at most 4 grid axes,
# built once: _PERIODIC_INDEX[axis] = ((after, before, at), ...).
_PERIODIC_INDEX = tuple(
    tuple(tuple((slice(None),) * axis + (part,) for part in face) for face in _PERIODIC_FACES)
    for axis in range(4)
)


def _periodic(op, f: np.ndarray, axis: int) -> np.ndarray:
    """op(f[i+1], f[i-1]) along a periodic grid axis, into one fresh array,
    one ufunc call per entry of _PERIODIC_FACES."""
    out = np.empty_like(f)
    for after, before, at in _PERIODIC_INDEX[axis]:
        op(f[after], f[before], out=out[at])
    return out


def _d1(grid: PeriodicGrid, f: np.ndarray, axis: int) -> np.ndarray:
    """fd2 centered first derivative along a real axis: the periodic
    neighbour difference (f[i+1] - f[i-1]) scaled by N/2, bitwise the
    ``np.roll`` formula (roll(f, -1) - roll(f, 1)) * (N/2)."""
    out = _periodic(np.subtract, f, axis)
    out *= grid.N / 2.0
    return out


def _d2(grid: PeriodicGrid, f: np.ndarray, a: int, twice: np.ndarray) -> np.ndarray:
    """fd2 second derivative along real axis a, given ``twice`` = 2f: the
    periodic neighbour sum, minus 2f, scaled by N^2, bitwise
    (roll(f, -1) + roll(f, 1) - 2f) * N^2."""
    out = _periodic(np.add, f, a)
    out -= twice
    out *= float(grid.N) ** 2
    return out


def _dd(grid: PeriodicGrid, f: np.ndarray, a: int, b: int) -> np.ndarray:
    """fd2 mixed second derivative along distinct real axes a, b: the
    composition of centered first differences."""
    return _d1(grid, _d1(grid, f, b), a)


def _fd2_hessian(grid: PeriodicGrid, f: np.ndarray, k: int, l: int):
    """The fd2 ``hessian(k, l)`` of :func:`_derivatives`, combined in place
    in the fresh differenced fields; on the diagonal both share one 2f."""
    xk, yk, xl, yl = 2 * k, 2 * k + 1, 2 * l, 2 * l + 1
    if k == l:
        twice = 2.0 * f
        even = _d2(grid, f, xk, twice)
        even += _d2(grid, f, yk, twice)
        even *= 0.25
        return even, 0.0
    even = _dd(grid, f, xk, xl)
    even += _dd(grid, f, yk, yl)
    even *= 0.25
    odd = _dd(grid, f, xk, yl)
    odd -= _dd(grid, f, yk, xl)
    odd *= 0.25
    return even, odd


@functools.lru_cache(maxsize=16)
def _fourier_symbols(N: int, ndim: int) -> tuple[dict, tuple]:
    """The real Fourier symbols of the spectral derivatives over the
    ``rfftn`` spectrum of an ndim grid array, built once per (N, ndim).

    Returns (hessian, gradient).  hessian[k, l], k <= l, is the pair (even,
    odd) of the ``hessian(k, l)`` of :func:`_derivatives`, with odd None for
    k = l; gradient[k] is the pair (dx_k / 2, dy_k / 2).  They combine the
    per-axis factors 2 pi k (Nyquist mode zeroed, as for every odd
    derivative) and -(2 pi k)^2; the last axis carries the halved rfft
    frequencies.  Read-only, as the cache hands the same arrays to every
    caller.
    """
    full, half = np.fft.fftfreq(N, d=1.0 / N), np.fft.rfftfreq(N, d=1.0 / N)
    wave, second = [], []
    for axis in range(ndim):
        freq = half if axis == ndim - 1 else full
        k = 2.0 * np.pi * freq
        shape = [-1 if a == axis else 1 for a in range(ndim)]
        wave.append(np.where(np.abs(freq) == N // 2, 0.0, k).reshape(shape))
        second.append((-k * k).reshape(shape))

    def dd(a, b):
        return second[a] if a == b else -(wave[a] * wave[b])

    hessian, gradient = {}, []
    for k, l in itertools.combinations_with_replacement(range(ndim // 2), 2):
        xk, yk, xl, yl = 2 * k, 2 * k + 1, 2 * l, 2 * l + 1
        hessian[k, l] = (0.25 * (dd(xk, xl) + dd(yk, yl)),
                         None if k == l else 0.25 * (dd(xk, yl) - dd(yk, xl)))
    for k in range(ndim // 2):
        gradient.append((0.5 * (1j * wave[2 * k]), 0.5 * (1j * wave[2 * k + 1])))
    for pair in (*hessian.values(), *gradient):
        for symbol in pair:
            if symbol is not None:
                symbol.flags.writeable = False
    return hessian, tuple(gradient)


def _derivatives(grid: PeriodicGrid, f: np.ndarray):
    """(hessian, gradient): functions giving the derivative fields of one real
    field f when asked for.  ``hessian(k, l)``, k <= l, is the real and the
    imaginary part of d_k dbar_l f, (dx_k dx_l + dy_k dy_l) f / 4 and
    (dx_k dy_l - dy_k dx_l) f / 4 (0 for k = l); ``gradient(k)`` is
    (dx_k f / 2, dy_k f / 2).  On fd2 they are differenced fields
    (:func:`_fd2_hessian`); on the spectral grid the cached symbols of
    :func:`_fourier_symbols` on one ``rfftn`` of f, each made a field by one
    ``irfftn``.
    """
    if grid.discretization == "fd2":

        def gradient(k):
            return 0.5 * _d1(grid, f, 2 * k), 0.5 * _d1(grid, f, 2 * k + 1)

        return functools.partial(_fd2_hessian, grid, f), gradient
    # Imported on first use: scipy serves only spectral derivatives, so the
    # algebraic side (certify, verify, gen) and fd2 flows run on numpy alone
    # and load no scipy module.
    from scipy import fft

    spectrum = fft.rfftn(f)
    hessian_symbols, gradient_symbols = _fourier_symbols(grid.N, f.ndim)

    def finish(symbol):
        return fft.irfftn(spectrum * symbol, s=grid.shape)

    def hessian(k, l):
        even, odd = hessian_symbols[k, l]
        return finish(even), (0.0 if odd is None else finish(odd))

    def gradient(k):
        dx, dy = gradient_symbols[k]
        return finish(dx), finish(dy)

    return hessian, gradient


def _complex(real, imag) -> np.ndarray:
    """A complex field from its real and imaginary parts."""
    out = np.empty(np.shape(real), dtype=complex)
    out.real = real
    out.imag = imag
    return out


def dbar_hessian(grid: PeriodicGrid, f: np.ndarray) -> MetricField:
    """The complex Hessian d_i dbar_j f of a real, grid-shaped field f.

    Returns the entry form: a = d_1 dbar_1 f, and at n=2 d = d_2 dbar_2 f and
    b = d_1 dbar_2 f, Hermitian by construction and not checked.  Complex
    input, or a shape other than ``grid.shape``, raises ``ValueError``.
    """
    f = np.asarray(f)
    if np.iscomplexobj(f):
        raise ValueError("dbar_hessian takes a real field, got a complex array")
    if f.shape != grid.shape:
        raise ValueError(f"expected shape {grid.shape}, got {f.shape}")
    hessian = _derivatives(grid, f.astype(float, copy=False))[0]
    entries = [hessian(i, i)[0] for i in range(grid.n)]
    if grid.n == 2:
        entries.append(_complex(*hessian(0, 1)))
    return MetricField._from_entries(grid, *entries)


@dataclass
class ScalarField:
    """A real scalar sampled on the grid."""

    grid: PeriodicGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != self.grid.shape:
            raise ValueError(f"expected shape {self.grid.shape}, got {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("scalar field has a NaN or infinite value")
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
    (files, configs, callers): it checks the shape, finiteness and
    Hermiticity to 1e-10, symmetrizes to 0.5 (v + v^H) and keeps the
    triangle.  Fields that are Hermitian by construction come from
    :meth:`_from_entries` with no check: complex Hessians of real fields
    (:func:`dbar_hessian`) and sums, differences and real multiples of
    fields, which the arithmetic operators form entry by entry.  ``values``
    builds the full field on each access and does not keep it.  ``det`` is computed once per field and shared by the
    kernels, and the positivity margin is proved once per field
    (:meth:`require_positive`); both are kept beside the entries, which must
    not change after either is taken.  The field may be indefinite (a Ricci
    form, a twist); the kernels that need positivity say so.
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
        if not np.isfinite(v).all():
            raise ValueError("metric field has a NaN or infinite entry")
        # max |v - v^H| entry by entry: a diagonal entry deviates by 2 |Im v_ii|.
        worst = max(2.0 * float(np.max(np.abs(v[..., i, i].imag))) for i in range(n))
        if n == 2:
            worst = max(worst, float(np.max(np.abs(v[..., 0, 1] - np.conj(v[..., 1, 0])))))
        if worst > 1e-10 * (1.0 + float(np.max(np.abs(v)))):
            raise ValueError(f"metric field is not Hermitian; deviation {worst:.3e}")
        self.a = np.ascontiguousarray(v[..., 0, 0].real)
        self.d = self.b = self._det = self._margin = None
        if n == 2:
            self.d = np.ascontiguousarray(v[..., 1, 1].real)
            self.b = 0.5 * (v[..., 0, 1] + np.conj(v[..., 1, 0]))

    @classmethod
    def _from_entries(cls, grid: PeriodicGrid, a, d=None, b=None) -> MetricField:
        """The field with triangle (a, d, b), unchecked: only for entries that
        are Hermitian by construction (a, d real)."""
        g = cls.__new__(cls)
        g.grid, g.a, g.d, g.b, g._det, g._margin = grid, a, d, b, None, None
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

    def _b_squared(self) -> np.ndarray:
        """|b|^2 = Re b Re b + Im b Im b at n=2, in real arithmetic, as a
        fresh array; det = a d - |b|^2 is kept from it if it is not yet."""
        b = self.b
        out = b.real * b.real
        out += b.imag * b.imag
        if self._det is None:
            self._det = self.a * self.d
            self._det -= out
        return out

    @property
    def det(self) -> np.ndarray:
        """det g = a d - |b|^2 (a at n=1), computed on first access and kept
        in ``_det``, which the constructors set to None."""
        if self._det is None:
            if self.n == 1:
                self._det = self.a
            else:
                self._b_squared()
        return self._det

    def inverse(self) -> MetricField:
        """g^{-1} = adj(g) / det g, Hermitian by construction (no positivity check)."""
        inv_det = 1.0 / self.det
        if self.n == 1:
            return MetricField._from_entries(self.grid, inv_det)
        entries = self.d * inv_det, self.a * inv_det, -self.b * inv_det
        return MetricField._from_entries(self.grid, *entries)

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
        """log det g, as a fresh array, of a field :meth:`require_positive`
        proves positive; raises its ``DegeneracyError`` otherwise."""
        self.require_positive()
        return np.log(self.det)

    def smallest_eigenvalues(self) -> np.ndarray:
        """lambda_min, as det / lambda_max where the mean eigenvalue is
        positive: this avoids cancellation and keeps the sign of det.  At
        n=1 it is a read-only view of a.

        At n=2, lambda_max = (a + d)/2 + sqrt(((a - d)/2)^2 + |b|^2), with
        the one |b|^2 that ``det`` subtracts when det is not yet kept.  Every
        operation is a correctly rounded +, -, *, / or sqrt, so the bits do
        not depend on the host's vectorised loops.
        """
        a, d = self.a, self.d
        if self.n == 1:
            view = a.view()
            view.flags.writeable = False
            return view
        # Besides det and the result, |b|^2 and radius are the only fresh
        # fields: each costs its page faults, so every later step writes
        # into one of them.
        b_squared = self._b_squared()
        radius = np.subtract(a, d)
        radius *= 0.5
        radius *= radius
        radius += b_squared
        np.sqrt(radius, out=radius)
        half_trace = np.add(a, d, out=b_squared)
        half_trace *= 0.5
        # Elsewhere lambda_min = mean - radius has no cancellation.
        out = half_trace - radius
        lambda_max = np.add(half_trace, radius, out=radius)
        np.divide(self._det, lambda_max, out=out, where=half_trace > 0.0)
        return out

    def require_positive(self, what: str = "metric") -> float:
        """The smallest eigenvalue over the grid; raises ``DegeneracyError``
        unless it is positive.

        The one positivity proof of a field, which :meth:`log_determinant`
        asks for too.  The margin proved is recorded on the field, and a
        second call returns it with no pass over the grid.  A NaN eigenvalue
        fails: the error names the first NaN point (a tuple of ints, as every
        ``worst_point``) and carries a NaN margin, and nothing is recorded.
        """
        if self._margin is not None:
            return self._margin
        eig = self.smallest_eigenvalues()
        margin = float(eig.min())
        if not margin > 0.0:
            # argmin takes the first NaN, as min propagates it.
            worst = tuple(int(i) for i in np.unravel_index(int(np.argmin(eig)), eig.shape))
            raise DegeneracyError(
                f"{what} lost positive definiteness (min eigenvalue {margin:.3e} "
                f"at grid point {worst})",
                worst_point=worst,
                margin=margin,
            )
        self._margin = margin
        return margin


def _entry_rows(M: MetricField) -> list[list[np.ndarray]]:
    """The entry fields M[i][j] of a :class:`MetricField`."""
    if M.n == 1:
        return [[M.a]]
    return [[M.a, M.b], [np.conj(M.b), M.d]]


def _require_real_diagonal(*fields: MetricField) -> None:
    """The one check of the real traces, O(1): entry fields are Hermitian by
    construction once their diagonal entries are real arrays."""
    for M in fields:
        if np.iscomplexobj(M.a) or np.iscomplexobj(M.d):
            raise ValueError("g-trace must be real; got a complex diagonal entry")


def _triangle(M: MetricField) -> dict:
    """The upper triangle {(i, j): M_ij}, i <= j, of a :class:`MetricField`,
    in the key order (0, 0), (0, 1), (1, 1)."""
    if M.n == 1:
        return {(0, 0): M.a}
    return {(0, 0): M.a, (0, 1): M.b, (1, 1): M.d}


def _pairing(X: dict, Y: dict) -> np.ndarray:
    """Re tr(XY) = sum_{i,j} X_ij Y_ji of two Hermitian fields given as their
    upper triangles {(i, j): X_ij}, i <= j, with real diagonal entries.

    Taken in real arithmetic, term by term in the key order of X: a diagonal
    key adds x y, an off-diagonal key the two conjugate terms together,
    2 Re(x conj(y)) = 2 (Re x Re y + Im x Im y).
    """
    total = None
    for key, x in X.items():
        y = Y[key]
        if key[0] == key[1]:
            term = x * y
        else:
            term = x.real * y.real
            term += np.multiply(x.imag, y.imag)
            term *= 2.0
        if total is None:
            total = term
        else:
            total += term
    return total


def g_trace(ginv: MetricField, A: MetricField) -> np.ndarray:
    """The g-trace sum_{k,l} g^{l k} A_{k l} of a Hermitian field in entry
    form, a real field; ``ginv`` is g^-1 (:meth:`MetricField.inverse`).

    The two off-diagonal terms are complex conjugates, so the trace is
    g^{00} a + 2 Re(g^{01} conj(b)) + g^{11} d, the pairing Re tr(g^-1 A) of
    :func:`_pairing`.  A complex diagonal entry (a field that is not
    Hermitian) raises ``ValueError``.
    """
    _require_real_diagonal(ginv, A)
    return _pairing(_triangle(ginv), _triangle(A))


def flat_metric(grid: PeriodicGrid) -> MetricField:
    values = np.zeros(grid.shape + (grid.n, grid.n), dtype=complex)
    values[...] = np.eye(grid.n)
    return MetricField(grid, values)


def metric_from_potential(grid: PeriodicGrid, potential: np.ndarray) -> MetricField:
    """The metric delta_ij + d_i dbar_j potential (positivity is not checked)."""
    hess = dbar_hessian(grid, potential)
    diagonal = (None if entry is None else entry + 1.0 for entry in (hess.a, hess.d))
    return MetricField._from_entries(grid, *diagonal, hess.b)


def scalar_from_modes(grid: PeriodicGrid, modes) -> np.ndarray:
    """Real field sum_m Re(amp_m exp(2 pi i k_m . x)) from (k, amp) pairs.

    Each ``k`` is an integer vector over the 2n real axes (x_1, y_1, ...);
    a non-integer entry, which would break periodicity, raises ValueError.
    The phase k . x is summed over broadcast tick arrays of the axes where k
    is nonzero (a zero term adds +0.0, which changes no exponential), and
    the exponential is taken once per distinct phase value.
    """
    ndim = 2 * grid.n
    ticks = np.arange(grid.N) / grid.N
    axes = [ticks.reshape((-1,) + (1,) * (ndim - 1 - a)) for a in range(ndim)]
    out = np.zeros(grid.shape)
    for k, amp in modes:
        if np.shape(k) != (ndim,):
            raise ValueError(f"mode wavevector must have length {ndim}")
        for entry in k:
            if not isinstance(entry, Integral):
                raise ValueError(
                    f"mode wavevector entries must be integers, got {entry!r} in {k!r}"
                )
        k = np.asarray(k, dtype=float)
        phase = np.asarray(sum(ki * ci for ki, ci in zip(k, axes) if ki))
        values, index = np.unique(phase, return_inverse=True)
        wave = (complex(amp) * np.exp(2j * np.pi * values)).real
        out += wave[index.reshape(phase.shape)]
    return out


def ricci_field(grid: PeriodicGrid, g: MetricField) -> MetricField:
    """Ricci form -d_i dbar_j log det g of a positive metric field.

    Every component has exact zero grid mean (summation by parts), so the
    discrete total Ricci class vanishes identically, matching the torus.
    """
    return -dbar_hessian(grid, g.log_determinant())


def _dot(xs, ys):
    """sum_p xs[p] ys[p] over per-point entry arrays, summed in order and in
    place, in complex when any factor is: one entry of a matrix product
    written out for n <= 2, in place of a batched contraction."""
    total = (xs[0] * ys[0]).astype(np.result_type(*xs, *ys), copy=False)
    for x, y in zip(xs[1:], ys[1:]):
        total += x * y
    return total


def curvature_field(grid: PeriodicGrid, g: MetricField) -> dict:
    """The curvature of a metric field as a Hermitian form on Sym²(C^n),

        R_{i jbar k lbar} = -d_k dbar_l g_{i jbar}
                            + g^{p qbar} (d_k g_{i qbar}) conj(d_l g_{j pbar}).

    g is Kähler (d_k g_{i jbar} = d_i g_{k jbar}), so R is symmetric in its
    unbarred and in its barred slots.  The result is {(P, Q): R_{i jbar k lbar}}
    over the pairs P = (i, k) <= Q = (j, l) of :func:`kricci.forms.sym2_index`,
    real on the diagonal; S[Q, P] = conj(S[P, Q]) is not stored.  Each entry
    is computed in this index order only, from the derivative fields it reads,
    with the gradient term X_P g^-1 X_Q^H over rows X_P[q] = d_k g_{i qbar}.
    On fd2 at n=2 the unbarred swap holds only to second order (the 3-point
    second difference is not a product of centered differences) and the field
    keeps this fixed representative, not the average over the swap; on the
    spectral grid the swap holds to roundoff.
    """
    g.require_positive("metric")
    n = grid.n
    pairs = sym2_index(n)[0]
    ginv_rows = _entry_rows(g.inverse())
    a, d, b = g.entries
    # (hessian, gradient) of the real components of each g_{i jbar}, i <= j.
    parts = {(0, 0): (_derivatives(grid, a), None)}
    if n == 2:
        parts[1, 1] = (_derivatives(grid, d), None)
        parts[0, 1] = (_derivatives(grid, b.real), _derivatives(grid, b.imag))
    S = {}
    for (i, k), (j, l) in itertools.combinations_with_replacement(pairs, 2):
        re, im = parts[i, j]
        real, imag = re[0](k, l)
        if im is not None:
            im_even, im_odd = im[0](k, l)
            real, imag = real - im_odd, imag + im_even
            del im_even, im_odd
        # -d_k dbar_l g_{i jbar}, real on the diagonal P = Q.
        S[(i, k), (j, l)] = -real if (i, k) == (j, l) else -_complex(real, imag)
        del real, imag
    # Rows X[P][q] = d_k g_{i qbar}, one gradient per component and k.
    X = {P: [None] * n for P in pairs}
    for (u, v), (re, im) in parts.items():
        for k in range(n):
            targets = [(i, q) for i, q in dict.fromkeys([(u, v), (v, u)]) if i <= k]
            if targets:
                (dx, dy), im_grad = re[1](k), None if im is None else im[1](k)
                for i, q in targets:
                    # d_k of re + sign i im; g_{i qbar} = conj(g_{q ibar}) for i > q.
                    sign = 1.0 if i <= q else -1.0
                    X[i, k][q] = (_complex(dx, -dy) if im is None else
                                  _complex(dx + sign * im_grad[1], sign * im_grad[0] - dy))
                del dx, dy, im_grad
    del parts
    # Column by column from the last, so each row X_Q is dropped after its
    # own column: S[P, Q] += X_P W with W[r] = g^-1_{rp} conj(X_Q[p]),
    # formed as conj(g^-1_{pr} X_Q[p]) since g^-1 is Hermitian.
    for q in reversed(range(len(pairs))):
        Q = pairs[q]
        W = [np.conjugate(_dot([row[r] for row in ginv_rows], X[Q])) for r in range(n)]
        for P in pairs[: q + 1]:
            term = _dot(X[P], W)
            S[P, Q] += term.real if P == Q else term
            del term
        del X[Q], W
    return S


def _sym2_entry(S: dict, P: tuple, Q: tuple) -> np.ndarray:
    """R_{i jbar k lbar} of a Sym² field (:func:`curvature_field`) at the
    index pairs P = (i, k), Q = (j, l), each in either order: sorted, it is
    the stored S[P, Q] when P <= Q and conj(S[Q, P]) when P > Q."""
    P, Q = tuple(sorted(P)), tuple(sorted(Q))
    return S[P, Q] if P <= Q else np.conj(S[Q, P])


def g_curvature_trace(ginv: MetricField, S: dict) -> MetricField:
    """The Ricci-type trace sum_{k,l} g^{l k} R_{i jbar k lbar} of a Sym²
    curvature field (:func:`curvature_field`), in entry form.

    A diagonal entry is the real pairing (:func:`_pairing`) of g^-1 with the
    Hermitian block R_{i ibar k lbar}; the off-diagonal entry at n=2 is
    complex.
    """
    _require_real_diagonal(ginv)
    n, rows = ginv.n, range(ginv.n)
    G = _triangle(ginv)
    # The upper triangle of the block R_{i ibar k lbar} over (k, l).
    diagonal = [_pairing(G, {(k, l): _sym2_entry(S, (i, k), (i, l)) for k, l in G})
                for i in rows]
    off_diagonal = []
    if n == 2:
        rows_inv = _entry_rows(ginv)
        off_diagonal = [_dot([rows_inv[l][k] for k in rows for l in rows],
                             [_sym2_entry(S, (0, k), (1, l)) for k in rows for l in rows])]
    return MetricField._from_entries(ginv.grid, *diagonal, *off_diagonal)


def g_double_trace(ginv: MetricField, S: dict) -> np.ndarray:
    """tr_g tr_g R = sum g^{j i} g^{l k} R_{i jbar k lbar} of a Sym² field
    (:func:`curvature_field`), a real field: the g-trace of its Ricci-type
    trace (:func:`g_curvature_trace`)."""
    return g_trace(ginv, g_curvature_trace(ginv, S))


def model_form(h: MetricField, eta: MetricField) -> dict:
    """The polarized model form B(h, eta) of :func:`kricci.forms.b_form` as a
    Sym² field (:func:`curvature_field`),

        B_{i jbar k lbar} = (h_ij eta_kl + h_kl eta_ij + h_il eta_kj + h_kj eta_il) / 2,

    for Hermitian fields h, eta in entry form.  B is bihermitian, B(h, h) is
    the model form B(h), and its double trace is

        tr_g tr_g B(h, eta) = tr_g h tr_g eta + tr(g^-1 h g^-1 eta).
    """
    H, E = _triangle(h), _triangle(eta)
    B = {}
    for (i, k), (j, l) in itertools.combinations_with_replacement(sym2_index(h.n)[0], 2):
        if (i, k) != (j, l):
            # Off the diagonal every (h, eta) index pair is upper-triangular,
            # so no conjugate is read.  The four pairs repeat each distinct
            # one 4 / len times.
            pairs = dict.fromkeys([((i, j), (k, l)), ((k, l), (i, j)), ((i, l), (k, j)),
                                   ((k, j), (i, l))])
            term = _dot([H[p] for p, _ in pairs], [E[q] for _, q in pairs])
            term *= 2.0 / len(pairs)
        elif i == k:
            term = H[i, i] * E[i, i]
            term *= 2.0
        else:
            # (i, k) = (0, 1), real: (h_00 eta_11 + h_11 eta_00) / 2 + Re(h_01 conj(eta_01)).
            term = _pairing(H, {(i, i): E[k, k], (i, k): E[i, k], (k, k): E[i, i]})
            term *= 0.5
        B[(i, k), (j, l)] = term
    return B


def laplacian(grid: PeriodicGrid, ginv: MetricField, f: np.ndarray) -> np.ndarray:
    """The metric Laplacian g^{i jbar} d_i dbar_j f of a real field; ``ginv`` is g^-1."""
    return g_trace(ginv, dbar_hessian(grid, f))


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
    roundoff.  ``residual_vs_trace`` compares against the g-trace of the
    curvature field instead, which differs by discretization error and
    decays at second order under grid refinement.
    """
    direct = ricci_field(grid, g)
    logdet = g.log_determinant()
    potential = -(logdet - logdet.mean())
    hess = dbar_hessian(grid, potential)
    traced = g_curvature_trace(g.inverse(), curvature_field(grid, g))

    def max_abs(field: MetricField) -> float:
        # Over the triangle: |conj(b)| = |b|, so this is the max over the full field.
        return max(float(np.max(np.abs(entry))) for entry in field.entries if entry is not None)

    scale = 1.0 + max_abs(traced)
    return RicciPotentialReport(
        potential=potential,
        residual_vs_trace=max_abs(hess - traced) / scale,
        residual_vs_direct=max_abs(hess - direct) / scale,
    )
