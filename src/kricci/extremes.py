"""Extremal k-Ricci values and a multistart upper-bound certifier.

For an h-unit direction X and a k-dimensional subspace containing X, spanned
by an h-orthonormal frame (E_1 = X, E_2, ..., E_k), the k-Ricci value is

    sum_i S(X, X̄, E_i, Ē_i).

Its extreme over all such subspaces splits into the diagonal quartic term
S(X, X̄, X, X̄) plus the sum of the (k-1) largest (or smallest) eigenvalues of
the Hermitian matrix M[p, q] = S(X, X̄, Q_p, Q̄_q) built on any h-orthonormal
frame Q of the h-orthocomplement of X.  ``certify_k_ricci`` maximises that
extreme over the unit sphere from many starts, by projected gradient ascent
and, near a maximum, Newton steps on the sphere modulo phase.  It reports
whether a requested upper bound survives an independent re-evaluation at the
best point found.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forms import (
    BihermitianForm,
    HermitianForm,
    SubspaceBasis,
    cholesky_frame,
    congruence,
    hermitian_eval,
    norm_h,
    pair_products,
    pairing_matrix,
    unit_sphere_samples,
)

__all__ = [
    "Certificate",
    "CertifyOptions",
    "certify_k_ricci",
    "h_orthocomplement",
    "k_ricci_extreme_at",
    "k_ricci_on",
]


def k_ricci_on(S: BihermitianForm, h: HermitianForm, basis: SubspaceBasis) -> float:
    """The k-Ricci value of S in the direction of the frame's first column.

    ``basis`` must be an h-orthonormal frame whose column 0 is the
    distinguished direction X; the value is sum_i S(X, X̄, E_i, Ē_i).
    """
    if basis.n != S.n or basis.metric.n != h.n or h.n != S.n:
        raise ValueError("dimension mismatch between form, metric, and frame")
    cols = basis.columns
    X = cols[:, 0]
    val = np.einsum("ijkl,i,j,kI,lI->", S.entries, X, np.conj(X), cols, np.conj(cols))
    return float(val.real)


def _orthocomplement_batch(L: np.ndarray, E: np.ndarray, X: np.ndarray) -> np.ndarray:
    """h-orthonormal frames of the orthocomplements of the unit rows of X.

    Works in flat coordinates y = L^T x, where a Householder reflection sends
    y to a multiple of e_1; the reflected standard vectors e_2, ..., e_n pull
    back to the requested frame.  Returns shape (b, n, n-1).
    """
    b, n = X.shape
    Y = X @ L
    y0 = Y[:, 0]
    safe = np.where(np.abs(y0) > 0, np.abs(y0), 1.0)
    phase = np.where(np.abs(y0) > 0, y0 / safe, 1.0)
    u = Y.copy()
    u[:, 0] += phase
    unorm2 = np.einsum("bi,bi->b", u, np.conj(u)).real
    Qstd = np.repeat(np.eye(n, dtype=complex)[None, :, 1:], b, axis=0)
    Qstd -= 2.0 * u[:, :, None] * np.conj(u[:, None, 1:]) / unorm2[:, None, None]
    return np.einsum("ij,bjk->bik", E, Qstd)


def h_orthocomplement(h: HermitianForm, X) -> np.ndarray:
    """Columns form an h-orthonormal basis of the h-orthocomplement of X."""
    X = np.asarray(X, dtype=complex)
    nrm = norm_h(X, h)
    if nrm <= 1e-300:
        raise ValueError("orthocomplement is undefined at X = 0")
    L, E = cholesky_frame(h)
    return _orthocomplement_batch(L, E, (X / nrm)[None, :])[0]


def _normalize_rows(X: np.ndarray, H: np.ndarray) -> np.ndarray:
    return X / np.sqrt(hermitian_eval(H, X).real)[:, None]


def _batch_eval(T, H, L, E, X, k, with_grad=False, Q=None):
    """Value (and Wirtinger cogradient) of the max-k-Ricci objective.

    Rows of X must be h-unit.  Returns (f,) or (f, G) where
    G[b, j] = df/d conj(X[b, j]) by the envelope rule for the eigenvalue sum,
    with the witnesses transported so they stay h-orthogonal to X.  At k >= 2
    ``Q`` may pass in the ``_orthocomplement_batch`` frames of X.

    The contractions are matmuls of the rows P = vec(X ⊗ X̄) against the
    pairing matrix A[(p, q), (r, s)] = T[p, q, r, s], so no call plans an
    einsum path.
    """
    b, n = X.shape
    A = pairing_matrix(T)
    P = pair_products(X)
    PA = P @ A
    quart = np.einsum("bi,bi->b", PA, P).real
    T1 = PA.reshape(b, n, n)
    if k == 1:
        f = quart
        u = None
    else:
        if Q is None:
            Q = _orthocomplement_batch(L, E, X)
        w, V = np.linalg.eigh(congruence(Q, T1))
        sel = slice(w.shape[1] - (k - 1), None)
        f = quart + w[:, sel].sum(axis=1)
        u = Q @ np.conj(V[:, :, sel])
    if not with_grad:
        return (f,)
    # G[b, j] = sum_p X[b, p] sum_rs T[p, j, r, s] D[b, r, s] with
    # D = 2 X X̄ᵀ + u ūᵀ: the quartic term and the witnesses' subspace term.
    D = 2.0 * P
    if u is not None:
        D += (u @ np.conj(np.swapaxes(u, 1, 2))).reshape(b, n * n)
    G = (X[:, None, :] @ (D @ A.T).reshape(b, n, n))[:, 0, :]
    if u is not None:
        val = X[:, None, :] @ T1 @ np.conj(u)
        G -= (H.T @ u @ np.swapaxes(val, 1, 2))[:, :, 0]
    return f, G


def _canonical_phase(v: np.ndarray) -> np.ndarray:
    """Rotate v so its largest-modulus component is real and positive."""
    i = int(np.argmax(np.abs(v)))
    a = v[i]
    return v if abs(a) == 0 else v * (np.conj(a) / abs(a))


def k_ricci_extreme_at(
    S: BihermitianForm,
    h: HermitianForm,
    X,
    k: int,
    which: str = "max",
) -> tuple[float, SubspaceBasis]:
    """Extremal k-Ricci value at the direction X, with an attaining frame.

    Returns ``(value, basis)`` where ``basis`` columns are X normalised
    followed by the k-1 extremal witnesses in the orthocomplement, ordered by
    decreasing (``which="max"``) or increasing (``which="min"``) eigenvalue.
    """
    if which not in ("max", "min"):
        raise ValueError(f"which must be 'max' or 'min', got {which!r}")
    n = S.n
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if h.n != n:
        raise ValueError("metric dimension does not match the form")
    X = np.asarray(X, dtype=complex)
    nrm = norm_h(X, h)
    if nrm <= 1e-300:
        raise ValueError("k-Ricci is undefined at X = 0")
    Xh = X / nrm
    value = float(S(Xh, Xh, Xh, Xh).real)
    if k == 1:
        return value, SubspaceBasis(Xh[:, None], h)
    Q = h_orthocomplement(h, Xh)
    w, V = np.linalg.eigh(congruence(Q, np.einsum("pqrs,p,q->rs", S.entries, Xh, np.conj(Xh))))
    if which == "max":
        order = np.argsort(w)[::-1][: k - 1]
    else:
        order = np.argsort(w)[: k - 1]
    value += float(w[order].sum())
    witnesses = [_canonical_phase(Q @ np.conj(V[:, i])) for i in order]
    frame = np.column_stack([Xh, *witnesses])
    return value, SubspaceBasis(frame, h)


# Fixed settings of the projected gradient ascent: a start stops when its
# projected gradient is below GRAD_TOL (1 + |f|); steps start at, and never
# grow past, STEP_INIT; a step is admissible when it gains ARMIJO_C times the
# linear prediction, and a line search halves at most BACKTRACK_MAX times.
GRAD_TOL = 1e-9
STEP_INIT = 0.5
ARMIJO_C = 1e-4
BACKTRACK_MAX = 30
# Newton phase: at or below NEWTON_SWITCH (1 + |f|) a start tries a Newton
# step on the tangent chart, with a Hessian from forward differences of step
# NEWTON_FD_STEP of the exact gradient.  The step is taken when the Hessian is
# negative definite, the step is shorter than NEWTON_MAX_STEP, and the value
# drops by at most NEWTON_SLACK (1 + |f|); otherwise the start takes an
# Armijo step.  The switch is wide because the safeguards, not the switch,
# keep the step safe: with 1e-3 or 3e-2, starts on flat ridges crawl on Armijo
# steps for all of max_iter.
NEWTON_SWITCH = 0.3
NEWTON_FD_STEP = 1e-6
NEWTON_MAX_STEP = 0.1
NEWTON_SLACK = 64 * np.finfo(float).eps


def _chart_gradient(G, X, B, H, norm):
    """Gradient in c of f on the chart c -> normalize_h(X0 + B c).

    ``X`` are the chart points, ``G`` their cogradients from ``_batch_eval``
    and ``norm`` the h-norms of X0 + B c, so dX/dc_i = (B_i - X Re<B_i, X>_h)
    / norm and df/dc_i = 2 Re(G · conj(dX/dc_i)).
    """
    proj = (np.conj(X) @ H.T)[:, None, :] @ B
    GB = G[:, None, :] @ np.conj(B)
    GX = np.einsum("bi,bi->b", G, np.conj(X)).real
    return 2.0 * (GB[:, 0, :].real - proj[:, 0, :].real * GX[:, None]) / norm[:, None]


def _newton_steps(T, H, L, E, X, f, G, k, Q=None):
    """Newton steps for the h-unit rows X on the charts X(c) = normalize_h(X + B c).

    B = [Q, iQ] is a real basis of the tangent space modulo phase, with Q the
    ``_orthocomplement_batch`` frames of X (built here when not passed in).
    The Hessian is a forward difference of the exact chart gradient, with all
    rows perturbed in one ``_batch_eval`` call.  Returns ``(idx, X_new,
    f_new)`` for the rows that took the step (see ``NEWTON_*``).
    """
    b, n = X.shape
    if Q is None:
        Q = _orthocomplement_batch(L, E, X)
    B = np.concatenate([Q, 1j * Q], axis=2)
    d = B.shape[2]
    g = _chart_gradient(G, X, B, H, np.ones(b))
    Y = (X[:, None, :] + NEWTON_FD_STEP * np.swapaxes(B, 1, 2)).reshape(b * d, n)
    norm = np.sqrt(hermitian_eval(H, Y).real)
    Xp = Y / norm[:, None]
    _, Gp = _batch_eval(T, H, L, E, Xp, k, with_grad=True)
    gp = _chart_gradient(Gp, Xp, np.repeat(B, d, axis=0), H, norm).reshape(b, d, d)
    hess = (np.swapaxes(gp, 1, 2) - g[:, :, None]) / NEWTON_FD_STEP
    hess = 0.5 * (hess + np.swapaxes(hess, 1, 2))
    idx = np.flatnonzero(np.linalg.eigvalsh(hess)[:, -1] < 0)
    c = -np.linalg.solve(hess[idx], g[idx, :, None])
    short = np.linalg.norm(c[:, :, 0], axis=1) < NEWTON_MAX_STEP
    idx, c = idx[short], c[short]
    if idx.size == 0:
        return idx, X[idx], f[idx]
    cand = _normalize_rows(X[idx] + (B[idx] @ c)[:, :, 0], H)
    fc = _batch_eval(T, H, L, E, cand, k)[0]
    good = fc >= f[idx] - NEWTON_SLACK * (1.0 + np.abs(f[idx]))
    return idx[good], cand[good], fc[good]


@dataclass
class CertifyOptions:
    """Budget and verdict tolerance of the multistart projected gradient ascent."""

    starts: int = 64
    presweep: int = 1024
    max_iter: int = 200
    value_tol: float = 1e-8

    def __post_init__(self):
        if self.starts < 1 or self.presweep < self.starts:
            raise ValueError("need presweep >= starts >= 1")
        if not (np.isfinite(self.value_tol) and self.value_tol >= 0):
            raise ValueError(f"value_tol must be finite and >= 0, got {self.value_tol}")


@dataclass
class Certificate:
    """Outcome of an upper-bound check on the maximal k-Ricci value.

    ``status`` is ``"satisfied"``, ``"violated"``, or ``"inconclusive"``.
    ``value`` is the best maximum found (re-evaluated independently at the
    reported witness) and ``margin = bound - value``, so a violation has a
    negative margin beyond the value tolerance.  ``witness`` attains ``value``
    via :func:`k_ricci_on`.

    Each start ends in one of three ways: its projected gradient became small
    (``n_small_gradient``), its line search backtracked to exhaustion without
    an admissible increase (``n_stalled``), or the iteration budget ran out.
    ``n_converged`` is the first-order exits, ``n_small_gradient + n_stalled``.
    ``"satisfied"`` needs the start that found ``value`` to be one of them;
    the other starts' exits do not count.  Near a non-degenerate maximum the
    Newton steps take the gradient to roundoff, so starts exit by small
    gradient.  A start stalls where no Newton step is taken, for instance at
    a maximum that is not isolated, and the Armijo test then compares values
    that differ only by roundoff.
    """

    status: str
    value: float
    bound: float
    margin: float
    k: int
    witness: SubspaceBasis | None
    n_converged: int
    iterations: int
    n_small_gradient: int
    n_stalled: int


def certify_k_ricci(
    S: BihermitianForm,
    h: HermitianForm,
    k: int,
    bound: float,
    options: CertifyOptions | None = None,
    rng: np.random.Generator | None = None,
) -> Certificate:
    """Check sup over unit X of the maximal k-Ricci value against ``bound``.

    A presweep scores random sphere points, the best become starts for a
    projected gradient ascent with Armijo backtracking, and the best final
    point is re-evaluated from scratch.  Once a start's projected gradient is
    below ``NEWTON_SWITCH (1 + |f|)`` it tries a Newton step instead: on the
    chart c -> normalize_h(X + B c) with B = [Q, iQ], the Hessian is a forward
    difference of the exact gradient, and the step is taken only when that
    Hessian is negative definite, the step is short and the value does not
    drop beyond roundoff; otherwise the start takes the Armijo step.  The
    verdict is ``"violated"`` only when the re-evaluated value exceeds
    ``bound`` by more than ``value_tol``, and ``"inconclusive"`` when that
    value is not finite or when the start that found it did not reach a
    first-order point (small projected gradient, or a line search that
    backtracked to exhaustion) within the iteration budget.
    ``bound`` may be +inf but not NaN.  The ascent runs on S/max|S| and
    h/max|h| and the witness is re-evaluated on (S, h), so the status and the
    iteration count do not depend on the units of S and h.
    """
    opts = options or CertifyOptions()
    rng = rng if rng is not None else np.random.default_rng(0)
    n = S.n
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if h.n != n:
        raise ValueError("metric dimension does not match the form")
    bound = float(bound)
    if np.isnan(bound):
        raise ValueError("bound must be a number or +inf, got nan")
    T = S.entries / (np.max(np.abs(S.entries)) or 1.0)
    unit_h = HermitianForm(h.entries / (np.max(np.abs(h.entries)) or 1.0))
    H = unit_h.entries
    L, E = cholesky_frame(unit_h)

    sweep = unit_sphere_samples(unit_h, opts.presweep, rng)
    scores = _batch_eval(T, H, L, E, sweep, k)[0]
    top = np.argsort(scores)[::-1][: opts.starts]
    X, f = sweep[top], scores[top]

    b = X.shape[0]
    step = np.full(b, STEP_INIT)
    converged = np.zeros(b, dtype=bool)
    stalled = np.zeros(b, dtype=bool)
    iterations = 0
    for it in range(opts.max_iter):
        active = ~(converged | stalled)
        if not active.any():
            break
        iterations = it + 1
        rows = np.flatnonzero(active)
        Xa = X[rows]
        # At k >= 2 the objective needs the orthocomplement frames, and the
        # Newton steps reuse them as their tangent bases.
        Qa = _orthocomplement_batch(L, E, Xa) if k > 1 else None
        fa, Ga = _batch_eval(T, H, L, E, Xa, k, with_grad=True, Q=Qa)
        f[rows] = fa
        N = Xa @ H
        coef = (
            np.einsum("bi,bi->b", np.conj(N), Ga).real
            / np.einsum("bi,bi->b", np.conj(N), N).real
        )
        xi = Ga - coef[:, None] * N
        xi_norm2 = np.einsum("bi,bi->b", np.conj(xi), xi).real
        xi_norm, scale = np.sqrt(xi_norm2), 1.0 + np.abs(fa)
        done = xi_norm <= GRAD_TOL * scale
        converged[rows[done]] = True
        near = np.flatnonzero(~done & (xi_norm <= NEWTON_SWITCH * scale))
        if near.size:
            Qn = None if Qa is None else Qa[near]
            took, Xn, fn = _newton_steps(T, H, L, E, Xa[near], fa[near], Ga[near], k, Qn)
            took = near[took]
            X[rows[took]], f[rows[took]] = Xn, fn
            # Rows that took a Newton step skip the Armijo step.
            done[took] = True
        work = np.flatnonzero(~done)
        if work.size == 0:
            continue
        wrows = rows[work]
        Xw, fw, xiw, slope = Xa[work], fa[work], xi[work], 2.0 * xi_norm2[work]
        s = step[wrows].copy()
        ok = np.zeros(work.size, dtype=bool)
        for _ in range(BACKTRACK_MAX):
            todo = np.flatnonzero(~ok)
            if todo.size == 0:
                break
            cand = _normalize_rows(Xw[todo] + s[todo, None] * xiw[todo], H)
            fc = _batch_eval(T, H, L, E, cand, k)[0]
            good = fc >= fw[todo] + ARMIJO_C * s[todo] * slope[todo]
            hit = todo[good]
            Xw[hit] = cand[good]
            fw[hit] = fc[good]
            ok[hit] = True
            s[todo[~good]] *= 0.5
        stalled[wrows[~ok]] = True
        X[wrows[ok]] = Xw[ok]
        f[wrows[ok]] = fw[ok]
        step[wrows] = np.minimum(s * 2.0, STEP_INIT)

    best = int(np.argmax(f))
    value, witness = k_ricci_extreme_at(S, h, X[best], k)
    # A start whose line search backtracked to exhaustion without an
    # admissible increase sits where no Newton step was taken and the Armijo
    # test resolves only roundoff, so it counts as converged alongside the
    # small-gradient exits.
    n_small_gradient = int(converged.sum())
    n_stalled = int(stalled.sum())
    n_conv = n_small_gradient + n_stalled
    if not np.isfinite(value):
        status = "inconclusive"
    elif value > bound + opts.value_tol:
        status = "violated"
    elif converged[best] or stalled[best]:
        status = "satisfied"
    else:
        status = "inconclusive"
    return Certificate(
        status=status,
        value=value,
        bound=bound,
        margin=bound - value,
        k=k,
        witness=witness,
        n_converged=n_conv,
        iterations=iterations,
        n_small_gradient=n_small_gradient,
        n_stalled=n_stalled,
    )
