"""Fourth-roots-of-unity averaging identities and trace-level consequences.

Given two positive metrics g, h there is a frame that is g-unitary and
h-diagonal.  Summing a bihermitian form over the 4^n frame combinations
Z = sum_i eps_i E_i with eps_i in {1, i, -1, -i} collapses, by independence of
the phases, to the mixed traces of :func:`forms.frame_traces` in that frame.
The checks here compare that brute-force enumeration against the closed form
and evaluate the trace-level inequalities that follow from pointwise
curvature bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError
from .forms import (
    BihermitianForm,
    CurvatureParams,
    HermitianForm,
    cholesky_frame,
    congruence,
    frame_traces,
    hermitian_eval,
    pair_products,
    quartic_values,
    ricci_trace,
    row_blocks,
    scalar,
    unit_sphere_samples,
)

__all__ = [
    "BergerReport",
    "BruteSums",
    "InterpolationReport",
    "MixedTraceReport",
    "RicScalarReport",
    "RoydenReport",
    "berger_check",
    "g_unitary_h_diagonal_frame",
    "interpolation_check",
    "mixed_trace_bounds",
    "require_sample_count",
    "ric_scalar_matrix",
    "royden_identity_check",
    "royden_sum_bruteforce",
    "sphere_quadrature",
]

# A time guard: the enumeration streams its rows in blocks, so memory does
# not bound n, but 4^n rows take about 0.1 s at n = 8 and four times that per
# further dimension.
MAX_ENUMERATION_DIM = 8


def g_unitary_h_diagonal_frame(
    g: HermitianForm, h: HermitianForm
) -> tuple[np.ndarray, np.ndarray]:
    """A frame E with g(E_i, Ē_j) = δ_ij and h(E_i, Ē_j) = tau_i δ_ij.

    Returns ``(tau, E)`` with tau ascending; E's columns are the frame
    vectors.  Both forms must be positive definite.  E = E_g conj(V) with
    E_g g's unitary frame and V the eigenvectors of h in that frame.  E_g
    proves g positive, and tau proves h positive (Sylvester's law of inertia).
    """
    if g.n != h.n:
        raise ValueError("g and h must have the same dimension")
    _, Eg = cholesky_frame(g)
    tau, V = np.linalg.eigh(congruence(Eg, h.entries))
    if not tau[0] > 0.0:
        raise ValueError("h must be positive definite")
    return tau, Eg @ np.conj(V)


# The phases eps in {1, i, -1, -i}; digit d of a row picks _PHASES[d].
_PHASES = np.array([1, 1j, -1, -1j])


def _phase_rows(n: int, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1 of itertools.product(_PHASES, repeat=n), as an array.

    Row r reads its base-4 digits, most significant first, as phase indices,
    which is the order itertools.product gives.
    """
    shifts = 2 * np.arange(n - 1, -1, -1)
    return _PHASES[(np.arange(lo, hi)[:, None] >> shifts) & 3]


@dataclass
class BruteSums:
    """Enumerated sums over all 4^n phase combinations of the frame."""

    quartic: float
    metric_quartic: float
    rho_weighted: float
    n_terms: int


def royden_sum_bruteforce(
    S: BihermitianForm,
    g: HermitianForm,
    h: HermitianForm,
    rho: HermitianForm,
) -> BruteSums:
    """Sum S(Z,Z̄,Z,Z̄), h(Z,Z̄)^2 and h(Z,Z̄)rho(Z,Z̄) over all Z.

    Z ranges over the 4^n combinations sum_i eps_i E_i in the g-unitary
    h-diagonal frame.  Enumeration is explicit and guarded to n <= 8.  The
    rows are built and evaluated in the blocks of :func:`row_blocks`, so
    memory holds one block of Z and its n²-wide temporaries, plus the three
    4^n-long value arrays that are summed once at the end.
    """
    _require_same_dim(S, g, h, rho)
    return _enumerate(S, g_unitary_h_diagonal_frame(g, h)[1], h, rho)


def _require_same_dim(S, g, h, rho) -> None:
    if not S.n == g.n == h.n == rho.n:
        raise ValueError("dimension mismatch")


def _enumerate(S: BihermitianForm, E: np.ndarray, h: HermitianForm, rho: HermitianForm) -> BruteSums:
    """:func:`royden_sum_bruteforce` in the frame E."""
    n = S.n
    if n > MAX_ENUMERATION_DIM:
        raise ResourceLimitError(
            f"4^{n} phase combinations exceed the enumeration guard (n <= {MAX_ENUMERATION_DIM})"
        )
    count = 4**n
    quartic, hz, rz = np.empty(count), np.empty(count), np.empty(count)
    # h(Z,Z̄) and rho(Z,Z̄) as pair_products(Z) @ vec(.), one matrix product:
    # unlike einsum's, its rows kept their bits in every multi-row block
    # tried, so the sums do not depend on the block size.
    vecs = np.stack([h.entries.ravel(), rho.entries.ravel()], axis=1)
    for lo, hi in row_blocks(count):
        Z = _phase_rows(n, lo, hi) @ E.T
        quartic[lo:hi] = quartic_values(S, Z)
        hz[lo:hi], rz[lo:hi] = (pair_products(Z) @ vecs).real.T
    return BruteSums(
        quartic=float(quartic.sum()),
        metric_quartic=float((hz**2).sum()),
        rho_weighted=float((hz * rz).sum()),
        n_terms=count,
    )


@dataclass
class RoydenReport:
    """Brute-force enumeration against the closed mixed-trace forms."""

    quartic_bruteforce: float
    quartic_closed: float
    quartic_residual: float
    metric_bruteforce: float
    metric_closed: float
    metric_residual: float
    rho_bruteforce: float
    rho_closed: float
    rho_residual: float
    n_terms: int
    ok: bool


def _relative_residual(brute: float, closed: float) -> float:
    return abs(brute - closed) / (1.0 + abs(closed))


def royden_identity_check(
    S: BihermitianForm,
    g: HermitianForm,
    h: HermitianForm,
    rho: HermitianForm,
    tol: float = 1e-10,
) -> RoydenReport:
    """Compare the 4^n enumeration against its closed form.

    The sums collapse to

        sum_eps S(Z,Z̄,Z,Z̄)      = 4^n (2 sum_ik S̃[iikk] - sum_i S̃[iiii])
        sum_eps h(Z,Z̄)^2         = 4^n (tr_g h)^2
        sum_eps h(Z,Z̄) rho(Z,Z̄) = 4^n (tr_g h)(tr_g rho)

    in the g-unitary h-diagonal frame, because only phase-cancelling index
    patterns survive the average.
    """
    _require_same_dim(S, g, h, rho)
    tau, E = g_unitary_h_diagonal_frame(g, h)
    brute = _enumerate(S, E, h, rho)
    mixed_sum, diag_sum = frame_traces(S, E)
    scale = 4.0 ** S.n
    quartic_closed = scale * (2.0 * mixed_sum - diag_sum)
    tr_gh = float(tau.sum())
    metric_closed = scale * tr_gh**2
    tr_grho = float(np.trace(congruence(E, rho.entries)).real)
    rho_closed = scale * tr_gh * tr_grho
    q_res = _relative_residual(brute.quartic, quartic_closed)
    m_res = _relative_residual(brute.metric_quartic, metric_closed)
    rho_res = _relative_residual(brute.rho_weighted, rho_closed)
    worst = max(q_res, m_res, rho_res)
    return RoydenReport(
        quartic_bruteforce=brute.quartic,
        quartic_closed=quartic_closed,
        quartic_residual=q_res,
        metric_bruteforce=brute.metric_quartic,
        metric_closed=metric_closed,
        metric_residual=m_res,
        rho_bruteforce=brute.rho_weighted,
        rho_closed=rho_closed,
        rho_residual=rho_res,
        n_terms=brute.n_terms,
        ok=worst <= tol,
    )


@dataclass
class MixedTraceReport:
    """Trace-level consequences of the pointwise mixed curvature bound."""

    lhs: float
    rhs_coarse: float
    rhs_refined: float
    slack_coarse: float
    slack_refined: float
    ok: bool


def mixed_trace_bounds(
    S: BihermitianForm,
    g: HermitianForm,
    h: HermitianForm,
    rho: HermitianForm,
    params: CurvatureParams,
    tol: float = 1e-8,
) -> MixedTraceReport:
    """Evaluate both averaged forms of the mixed-trace inequality.

    Under the pointwise bound alpha h(Z,Z̄) rho(Z,Z̄) + beta S(Z,Z̄,Z,Z̄) <=
    lam h(Z,Z̄)^2, averaging over the 4^n phases bounds the mixed trace
    lhs = 2 sum_ik S̃[iikk] by

        rhs_coarse  = (lam (tr_g h)^2 - alpha tr_g h tr_g rho) / beta
                      + sum_i S̃[iiii]
        rhs_refined = (lam / beta) ((tr_g h)^2 + |h|_g^2)
                      - (alpha / beta) (tr_g h tr_g rho + <omega_h, rho>_g).

    Slacks are rhs - lhs; both must be nonnegative (up to tol) for ``ok``.
    """
    tau, E = g_unitary_h_diagonal_frame(g, h)
    mixed_sum, diag_sum = frame_traces(S, E)
    lhs = 2.0 * mixed_sum
    # In the frame E, h is diag(tau).
    rho_diag = np.diagonal(congruence(E, rho.entries)).real
    tr_gh, tr_grho = float(tau.sum()), float(rho_diag.sum())
    h_norm2, pairing = float(tau @ tau), float(tau @ rho_diag)
    a, b, lam = params.alpha, params.beta, params.lam
    rhs_coarse = (lam * tr_gh**2 - a * tr_gh * tr_grho) / b + diag_sum
    rhs_refined = (lam / b) * (tr_gh**2 + h_norm2) - (a / b) * (tr_gh * tr_grho + pairing)
    slack_coarse = rhs_coarse - lhs
    slack_refined = rhs_refined - lhs
    scale = 1.0 + abs(lhs)
    ok = slack_coarse >= -tol * scale and slack_refined >= -tol * scale
    return MixedTraceReport(
        lhs=lhs,
        rhs_coarse=rhs_coarse,
        rhs_refined=rhs_refined,
        slack_coarse=slack_coarse,
        slack_refined=slack_refined,
        ok=ok,
    )


@dataclass
class InterpolationReport:
    """Direction-wise Ricci/sectional interpolation inequality."""

    lhs: np.ndarray
    rhs: np.ndarray
    margins: np.ndarray
    worst_margin: float
    ok: bool


def interpolation_check(
    S: BihermitianForm,
    h: HermitianForm,
    k: int,
    sigma: float,
    directions: np.ndarray,
    tol: float = 1e-8,
) -> InterpolationReport:
    """Check (k-1)|X|^2 Ric(X,X̄) + (n-k) S(X,X̄,X,X̄) <= -(n-1)(k+1) sigma |X|^4.

    The inequality interpolates between sectional (k = 1) and Ricci (k = n)
    bounds when every k-Ricci value is at most -(k+1) sigma; equality holds
    for -sigma times the model form.  ``directions`` is an (m, n) batch.
    """
    n = S.n
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    X = np.atleast_2d(np.asarray(directions, dtype=complex))
    norms2 = hermitian_eval(h.entries, X).real
    if np.any(norms2 <= 0):
        raise ValueError("directions must be nonzero")
    ric = ricci_trace(S, h)
    ric_vals = hermitian_eval(ric.entries, X).real
    quart = quartic_values(S, X)
    lhs = (k - 1) * norms2 * ric_vals + (n - k) * quart
    rhs = -(n - 1) * (k + 1) * sigma * norms2**2
    margins = rhs - lhs
    scale = 1.0 + float(np.max(np.abs(rhs)))
    worst = float(margins.min())
    return InterpolationReport(
        lhs=lhs,
        rhs=rhs,
        margins=margins,
        worst_margin=worst,
        ok=bool(worst >= -tol * scale),
    )


@dataclass
class RicScalarReport:
    """Matrix form of the scalar/Ricci comparison under a k-Ricci bound."""

    matrix: np.ndarray
    eigenvalues: np.ndarray
    max_eigenvalue: float
    ok: bool


def ric_scalar_matrix(
    S: BihermitianForm,
    h: HermitianForm,
    k: int,
    sigma: float,
    tol: float = 1e-10,
) -> RicScalarReport:
    """Check that (nk+n-k-2) 𝒮 h + n Ric + n(n+1)(n-1)(k+1) sigma h ⪯ 0.

    Negativity is measured through the eigenvalues of the matrix relative to
    h (generalized Hermitian eigenproblem, solved in an h-unitary frame).  The
    combination vanishes identically for -sigma times the model form.  Requires k >= 2; the k = 1
    case carries no content beyond the sectional bound itself.
    """
    n = S.n
    if k < 2:
        raise ValueError("k must be at least 2")
    if k > n:
        raise ValueError(f"need k <= n, got k={k}, n={n}")
    sc = scalar(S, h)
    ric = ricci_trace(S, h)
    D = (
        (n * k + n - k - 2) * sc * h.entries
        + n * ric.entries
        + n * (n + 1) * (n - 1) * (k + 1) * sigma * h.entries
    )
    # D v = λ H v with H = L L^H is the standard problem for L^{-1} D L^{-H},
    # which is congruence(E, D) in the h-unitary frame E = L^{-T}.
    _, E = cholesky_frame(h)
    eig = np.linalg.eigvalsh(congruence(E, D))
    scale = 1.0 + float(np.max(np.abs(eig)))
    max_eig = float(eig.max())
    return RicScalarReport(
        matrix=D,
        eigenvalues=eig,
        max_eigenvalue=max_eig,
        ok=bool(max_eig <= tol * scale),
    )


# Roundoff tolerance of the exact sphere quadrature against scalar curvature,
# relative to 1 + |scal|.
BERGER_TOL = 1e-12


@dataclass
class BergerReport:
    """The sphere-average identity for scalar curvature.

    ``ok`` compares the exact quadrature with the scalar curvature.  When a
    Monte Carlo estimate was asked for (``n_samples`` > 0), its value, its
    standard error and whether it lies within ``z`` standard errors
    (``within_z``) are kept as evidence; otherwise the three are None.
    """

    scalar: float
    quadrature: float
    estimate: float | None
    std_error: float | None
    n_samples: int
    z: float
    within_z: bool | None
    ok: bool


def sphere_quadrature(h: HermitianForm) -> tuple[np.ndarray, np.ndarray]:
    """Rows Z and weights w with sum_a w_a S(Z_a, Z̄_a, Z_a, Z̄_a) equal to the
    average of S(Z, Z̄, Z, Z̄) over the h-unit sphere, for every bihermitian S.

    In the h-unitary frame (e_i) of :func:`cholesky_frame`, the frame of
    :func:`scalar`, the rows are e_i with weight (3-n)/(n(n+1)) and
    (e_i + eps e_j)/sqrt(2) for i < j and eps in {1, i, -1, -i} with weight
    1/(n(n+1)).
    """
    n = h.n
    frame = cholesky_frame(h)[1].T
    upper, lower = np.triu_indices(n, 1)
    phases = np.array([1.0, 1j, -1.0, -1j])
    mixed = (frame[upper, None, :] + phases[None, :, None] * frame[lower, None, :]) / np.sqrt(2.0)
    mixed = mixed.reshape(-1, n)
    weights = np.concatenate(
        [np.full(n, (3.0 - n) / (n * (n + 1))), np.full(len(mixed), 1.0 / (n * (n + 1)))]
    )
    return np.concatenate([frame, mixed]), weights


def require_sample_count(samples: int) -> None:
    """Reject a Monte Carlo sample count that is neither 0 (no estimate) nor
    large enough for a standard error."""
    if samples < 0 or samples == 1:
        raise ValueError("samples must be 0 (no Monte Carlo estimate) or at least 2")


def berger_check(
    S: BihermitianForm,
    h: HermitianForm,
    samples: int = 0,
    rng: np.random.Generator | None = None,
    z: float = 3.0,
    tol: float = BERGER_TOL,
) -> BergerReport:
    """Check 𝒮 = (n(n+1)/2) E[S(Z,Z̄,Z,Z̄)] over the h-unit sphere.

    The average is taken exactly by :func:`sphere_quadrature` and must match
    the scalar curvature to ``tol`` (1 + |𝒮|).  Both sides are read in the
    same Cholesky frame of h, so the check compares Berger's identity, not
    two factorizations of h, and holds at roundoff at any condition number.
    With ``samples`` > 0 a Monte Carlo estimate from that many points and its
    standard error are reported alongside, with ``within_z`` saying whether
    the exact value sits within z standard errors (plus the same roundoff
    floor, for constant integrands).
    The default, 0, draws nothing from ``rng``.
    """
    require_sample_count(samples)
    n = S.n
    factor = n * (n + 1) / 2.0
    exact = scalar(S, h)
    floor = tol * (1.0 + abs(exact))
    points, weights = sphere_quadrature(h)
    quadrature = factor * float(weights @ quartic_values(S, points))
    estimate = se = within_z = None
    if samples:
        rng = rng if rng is not None else np.random.default_rng(0)
        vals = quartic_values(S, unit_sphere_samples(h, samples, rng))
        estimate = factor * float(vals.mean())
        se = factor * float(vals.std(ddof=1)) / np.sqrt(samples)
        within_z = bool(abs(exact - estimate) <= z * se + floor)
    return BergerReport(
        scalar=exact,
        quadrature=quadrature,
        estimate=estimate,
        std_error=se,
        n_samples=samples,
        z=z,
        within_z=within_z,
        ok=bool(abs(exact - quadrature) <= floor),
    )
