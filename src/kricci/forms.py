"""Pointwise algebra of symmetric bihermitian forms on a Hermitian vector space.

Conventions
-----------
A Hermitian form is stored as the matrix ``A[i, j] = A(e_i, conj(e_j))``, so
``A(X, conj(Y)) = sum_ij X[i] A[i, j] conj(Y[j])``: linear in the first slot,
conjugate-linear in the second.  A bihermitian form is stored as
``S[i, j, k, l] = S(e_i, conj(e_j), e_k, conj(e_l))`` with the analogous rule
per slot pair.  The two defining symmetries are

    S[i, j, k, l] = S[k, j, i, l]          (swap of the unbarred slots)
    conj(S[i, j, k, l]) = S[j, i, l, k]    (conjugation symmetry)

which together also force ``S[i, j, k, l] = S[i, l, k, j]``.  They are
checked once, when a :class:`BihermitianForm` is built; every quantity they
force real (quartic values, k-Ricci values, Ricci traces, scalar curvature)
is then read as the real part of its computed value.  Holomorphic
sectional curvature is ``S(X, X̄, X, X̄) / |X|_h^4``; "negative curvature"
means that this quantity is negative.  The sign convention is fixed here once
and used by every other module.  A frame E has the frame vectors E_a as its
columns; the matrix of a Hermitian form A in frame E is ``congruence(E, A)``,
with entries A(E_a, Ē_b).  Every h-trace (Ricci form, scalar curvature) is
taken in the frame E = L⁻ᵀ of :func:`cholesky_frame`, whose factorization
proves h positive, with h⁻¹ = conj(E) Eᵀ.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HermitianForm",
    "BihermitianForm",
    "CurvatureParams",
    "SubspaceBasis",
    "SymmetryReport",
    "b_form",
    "cholesky_frame",
    "congruence",
    "frame_traces",
    "hermitian_eval",
    "hsc",
    "norm_h",
    "pair_products",
    "pairing_matrix",
    "quartic_values",
    "random_bihermitian",
    "random_hermitian",
    "ricci_trace",
    "row_blocks",
    "scalar",
    "shift_sigma",
    "sym2_index",
    "symmetrize",
    "unit_sphere_samples",
    "validate_symmetries",
]

# Rows per block of quartic_values and of the 4^n phase enumeration.  A block
# holds n²-wide temporaries (at n = 6, 512 × 36 complex: 295 KB each), so the
# peak does not grow with the row count.
QUARTIC_CHUNK = 512


@dataclass
class HermitianForm:
    """A Hermitian sesquilinear form given by its coefficient matrix."""

    entries: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.entries, dtype=complex)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {A.shape}")
        # A NaN passes the Hermiticity test and numpy's Cholesky factorization.
        if not np.isfinite(A).all():
            raise ValueError("matrix has a NaN or infinite entry")
        scale = max(1.0, float(np.max(np.abs(A))) if A.size else 0.0)
        if np.max(np.abs(A - A.conj().T)) > 1e-12 * scale:
            raise ValueError("matrix is not Hermitian within 1e-12")
        self.entries = 0.5 * (A + A.conj().T)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def identity(cls, n: int) -> "HermitianForm":
        return cls(np.eye(n, dtype=complex))

    def require_positive(self, what="form") -> "HermitianForm":
        """This form, once the Cholesky factorization of :func:`cholesky_frame`
        proves it positive definite; ``ValueError`` otherwise."""
        try:
            cholesky_frame(self)
        except ValueError:
            raise ValueError(f"{what} must be positive definite") from None
        return self

    def __call__(self, X, Y=None):
        return hermitian_eval(self.entries, X, Y)


@dataclass
class BihermitianForm:
    """A symmetric bihermitian form given by its rank-4 coefficient tensor.

    Both defining symmetries are checked once, here, to 1e-12 max(1, max|T|),
    as :class:`HermitianForm` checks Hermiticity; the entries are kept as
    given.  A raw array without the symmetries is inspected by
    :func:`validate_symmetries` and repaired by :func:`symmetrize`.  A NaN or
    infinite entry is rejected: no symmetrization repairs it, and every value
    read from it would be non-finite.
    """

    entries: np.ndarray

    def __post_init__(self):
        T = np.asarray(self.entries, dtype=complex)
        if T.ndim != 4 or len(set(T.shape)) != 1:
            raise ValueError(f"expected shape (n, n, n, n), got {T.shape}")
        if not np.isfinite(T).all():
            raise ValueError("tensor has a NaN or infinite entry")
        scale = max(1.0, float(np.max(np.abs(T))) if T.size else 0.0)
        violation = validate_symmetries(T).max_violation if T.size else 0.0
        if violation > 1e-12 * scale:
            raise ValueError(
                f"tensor is not bihermitian within 1e-12: symmetry violation {violation:.3e}"
            )
        self.entries = T

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def __call__(self, X, Y, Z, W):
        """Evaluate S(X, Ȳ, Z, W̄)."""
        return np.einsum(
            "ijkl,i,j,k,l->",
            self.entries,
            np.asarray(X, dtype=complex),
            np.conj(Y),
            np.asarray(Z, dtype=complex),
            np.conj(W),
        )


@dataclass
class CurvatureParams:
    """Coefficients (alpha, beta, lam) of the mixed curvature bound

        alpha h(X,X̄) rho(X,X̄) + beta S(X,X̄,X,X̄) <= lam |X|^4.
    """

    alpha: float = 1.0
    beta: float = 1.0
    lam: float = 0.0

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if not self.beta > 0:
            raise ValueError("beta must be positive")


@dataclass
class SubspaceBasis:
    """An h-orthonormal frame spanning a k-dimensional subspace.

    ``columns[:, i]`` is the i-th frame vector; orthonormality with respect to
    ``metric`` is validated at construction, to 1e-12 times the roundoff
    scale sum|cols|² max|H| of the Gram matrix (at least 1).  On an
    ill-conditioned metric an h-unit frame has large entries, and its Gram
    matrix carries their roundoff.
    """

    columns: np.ndarray
    metric: HermitianForm

    def __post_init__(self):
        cols = np.asarray(self.columns, dtype=complex)
        if cols.ndim != 2:
            raise ValueError("columns must be a 2-d array")
        n, k = cols.shape
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        if self.metric.n != n:
            raise ValueError("metric dimension does not match the frame")
        H = self.metric.entries
        gram = congruence(cols, H)
        scale = max(1.0, float(np.sum(np.abs(cols) ** 2) * np.max(np.abs(H))))
        if np.max(np.abs(gram - np.eye(k))) > 1e-12 * scale:
            raise ValueError("columns are not h-orthonormal within 1e-12")
        self.columns = cols

    @property
    def n(self) -> int:
        return self.columns.shape[0]

    @property
    def k(self) -> int:
        return self.columns.shape[1]


@dataclass
class SymmetryReport:
    max_violation: float
    ok: bool


# The symmetry group of a bihermitian tensor has eight elements: the identity,
# the two slot swaps and their product, and the four conjugating maps.  Each is
# (transpose axes, conjugate?).  Averaging over the full group is a projection;
# averaging over a proper subset is not.
_SYMMETRY_OPS = (
    ((0, 1, 2, 3), False),
    ((2, 1, 0, 3), False),
    ((0, 3, 2, 1), False),
    ((2, 3, 0, 1), False),
    ((1, 0, 3, 2), True),
    ((3, 0, 1, 2), True),
    ((1, 2, 3, 0), True),
    ((3, 2, 1, 0), True),
)


def symmetrize(raw) -> BihermitianForm:
    """Project an arbitrary rank-4 tensor onto the bihermitian symmetry class."""
    T = raw.entries if isinstance(raw, BihermitianForm) else np.asarray(raw, dtype=complex)
    if T.ndim != 4 or len(set(T.shape)) != 1:
        raise ValueError(f"expected shape (n, n, n, n), got {T.shape}")
    acc = np.zeros_like(T)
    for axes, conjugate in _SYMMETRY_OPS:
        term = T.transpose(axes)
        acc += np.conj(term) if conjugate else term
    return BihermitianForm(acc / len(_SYMMETRY_OPS))


def validate_symmetries(S, tol: float = 1e-12) -> SymmetryReport:
    """Check both defining symmetries; reports the worst absolute violation."""
    T = S.entries if isinstance(S, BihermitianForm) else np.asarray(S, dtype=complex)
    v1 = float(np.max(np.abs(T - T.transpose(2, 1, 0, 3))))
    v2 = float(np.max(np.abs(np.conj(T) - T.transpose(1, 0, 3, 2))))
    worst = max(v1, v2)
    return SymmetryReport(max_violation=worst, ok=worst <= tol)


def b_form(h: HermitianForm) -> BihermitianForm:
    """The model form B with B(X,Ȳ,Z,W̄) = h(X,Ȳ)h(Z,W̄) + h(X,W̄)h(Z,Ȳ)."""
    H = h.entries
    B = np.einsum("ij,kl->ijkl", H, H) + np.einsum("il,kj->ijkl", H, H)
    return BihermitianForm(B)


def shift_sigma(S: BihermitianForm, h: HermitianForm, sigma: float) -> BihermitianForm:
    """Shift S by sigma times the model form of h.

    Shifts every k-Ricci value at a unit vector by (k+1)*sigma and the
    holomorphic sectional curvature by 2*sigma.
    """
    return BihermitianForm(S.entries + sigma * b_form(h).entries)


def hermitian_eval(A, X, Y=None):
    """A(X, Ȳ), with Y defaulting to X; a stack of rows X (and Y) gives one value per row."""
    X = np.asarray(X, dtype=complex)
    Y = X if Y is None else np.asarray(Y, dtype=complex)
    return np.einsum("...i,ij,...j->...", X, np.asarray(A, dtype=complex), np.conj(Y))


def congruence(E, A):
    """The Hermitian part of Eᵀ A Ē, entry (a, b) = A(E_a, Ē_b): the matrix of A in
    the frame E.  Leading axes of E and A broadcast; the last two are the matrix's."""
    M = np.swapaxes(E, -1, -2) @ A @ np.conj(E)
    return 0.5 * (M + np.conj(np.swapaxes(M, -1, -2)))


def norm_h(X, h: HermitianForm) -> float:
    """The h-norm |X|_h."""
    val = float(hermitian_eval(h.entries, X).real)
    if val < 0:
        raise ValueError("metric evaluated negatively; not positive definite")
    return float(np.sqrt(val))


def cholesky_frame(h: HermitianForm) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factor L (H = L L^H) and the h-unitary frame E = L^{-T}.  The
    factorization is the one positivity proof of a single form: it raises
    ``ValueError`` unless h is positive definite."""
    try:
        L = np.linalg.cholesky(h.entries)
    except np.linalg.LinAlgError as exc:
        raise ValueError("metric must be positive definite") from exc
    return L, np.linalg.inv(L).T


def unit_sphere_samples(h: HermitianForm, count: int, rng: np.random.Generator) -> np.ndarray:
    """Rows are uniform samples of the h-unit sphere (via the flat isometry).

    A flat Gaussian row w maps to x = w L^{-1} = w Eᵀ, so that h(x, x̄) = |w|².
    """
    if count < 1:
        raise ValueError("count must be positive")
    n = h.n
    W = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    _, E = cholesky_frame(h)
    return (W @ E.T) / np.linalg.norm(W, axis=1)[:, None]


def pairing_matrix(T: np.ndarray) -> np.ndarray:
    """The (n², n²) view A[(i, j), (k, l)] = T[..., i, j, k, l] of a rank-4 tensor.

    Row pairs are (unbarred, barred) slots 0 and 1, column pairs slots 2 and 3,
    so S(X, Ȳ, Z, W̄) = vec(X ⊗ Ȳ) A vec(Z ⊗ W̄)ᵀ with vec as in
    :func:`pair_products`.
    """
    n = T.shape[-1]
    return T.reshape(n * n, n * n)


@functools.lru_cache(maxsize=8)
def sym2_index(n: int):
    """The index map of Sym²(ℂⁿ): (pairs, orbits, weights).  ``pairs`` are the
    index pairs P = (i, k), i <= k, in lexicographic order, ``orbits[p]`` the
    ordered pairs of pairs[p], ``weights[p]`` = sqrt(len(orbits[p])) (read-only).
    A form with both slot swaps vanishes on Λ² and is fixed by S[P, Q] =
    S[i, j, k, l], P = (i, k) <= Q = (j, l); its matrix in the orthonormal
    basis e_i ⊗ e_i, (e_i ⊗ e_k + e_k ⊗ e_i)/sqrt 2 is w_P w_Q S[P, Q].
    """
    pairs = tuple((i, k) for i in range(n) for k in range(i, n))
    orbits = tuple(tuple(dict.fromkeys([(i, k), (k, i)])) for i, k in pairs)
    weights = np.sqrt([float(len(orbit)) for orbit in orbits])
    weights.flags.writeable = False
    return pairs, orbits, weights


def pair_products(X: np.ndarray) -> np.ndarray:
    """Rows vec(x ⊗ x̄), with x[i] conj(x[j]) at column i n + j, for each row x of X."""
    return (X[:, :, None] * np.conj(X)[:, None, :]).reshape(X.shape[0], -1)


def row_blocks(rows: int) -> list[tuple[int, int]]:
    """The (lo, hi) row ranges of QUARTIC_CHUNK rows that cover ``rows`` rows.

    A one-row remainder joins the block before it: numpy multiplies a single
    row by another BLAS path, which can differ from the batched value in the
    last bit, while every multi-row block gives each row the batched value.
    """
    starts = list(range(0, rows, QUARTIC_CHUNK))
    if len(starts) > 1 and rows - starts[-1] == 1:
        del starts[-1]
    return list(zip(starts, starts[1:] + [rows]))


def quartic_values(S: BihermitianForm, X: np.ndarray) -> np.ndarray:
    """S(X,X̄,X,X̄) for each row of X, batched.

    Each block of :func:`row_blocks` is sum (P A) P over the pairing matrix A
    and the rows P = vec(X ⊗ X̄), so memory stays at one block's n²-wide
    temporaries whatever the row count.  The values do not depend on the
    blocking: each is bitwise the one a single block of all rows gives.
    """
    X = np.asarray(X, dtype=complex)
    out = np.empty(X.shape[0])
    A = pairing_matrix(S.entries)
    for lo, hi in row_blocks(X.shape[0]):
        P = pair_products(X[lo:hi])
        out[lo:hi] = np.einsum("ai,ai->a", P @ A, P).real
    return out


def hsc(S: BihermitianForm, h: HermitianForm, X) -> float:
    """Holomorphic sectional curvature S(X,X̄,X,X̄)/|X|_h^4 at X != 0."""
    X = np.asarray(X, dtype=complex)
    nrm = norm_h(X, h)
    if nrm <= 1e-300:
        raise ValueError("holomorphic sectional curvature is undefined at X = 0")
    return float(S(X, X, X, X).real) / nrm**4


def frame_traces(S: BihermitianForm, E: np.ndarray) -> tuple[float, float]:
    """Mixed trace sum_ik S(E_i, Ē_i, E_k, Ē_k) and diagonal trace sum_i
    S(E_i, Ē_i, E_i, Ē_i) over the columns E_i of E: F A Fᵀ on the pairing
    matrix A, with row i of F the pair product vec(E_i ⊗ Ē_i)."""
    F = pair_products(E.T)
    mixed = F @ pairing_matrix(S.entries) @ F.T
    return float(mixed.sum().real), float(np.diagonal(mixed).sum().real)


def ricci_trace(S: BihermitianForm, h: HermitianForm) -> HermitianForm:
    """The Ricci form Ric(X, Ȳ) = tr_h S(X, Ȳ, ·, ·): S contracted with
    h⁻¹ = conj(E) Eᵀ in the frame E of :func:`cholesky_frame`."""
    _, E = cholesky_frame(h)
    ric = np.einsum("abkl,lk->ab", S.entries, np.conj(E) @ E.T)
    return HermitianForm(0.5 * (ric + ric.conj().T))


def scalar(S: BihermitianForm, h: HermitianForm) -> float:
    """Scalar curvature 𝒮 = tr_h Ric: the mixed trace of :func:`frame_traces`
    in the h-unitary frame of :func:`cholesky_frame`."""
    return frame_traces(S, cholesky_frame(h)[1])[0]


def random_bihermitian(n: int, rng: np.random.Generator, scale: float = 1.0) -> BihermitianForm:
    """A random symmetric bihermitian form with Gaussian entries."""
    raw = rng.standard_normal((n,) * 4) + 1j * rng.standard_normal((n,) * 4)
    return symmetrize(scale * raw)


def random_hermitian(n: int, rng: np.random.Generator, positive: bool = False) -> HermitianForm:
    """A random Hermitian form; ``positive=True`` returns a well-conditioned metric."""
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if positive:
        return HermitianForm(A @ A.conj().T / n + np.eye(n))
    return HermitianForm(0.5 * (A + A.conj().T))
