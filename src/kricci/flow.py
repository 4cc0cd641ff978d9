"""A twisted parabolic potential flow on flat torus backgrounds.

The background metric is h = I + d dbar (background potential) and the twist
is eta = c omega_h + d dbar u.  The evolving metric is reconstructed from a
scalar potential phi(t) as

    g(t) = h - t (Ric(h) + eta) + d dbar phi,      phi(0) = 0,

and the potential satisfies

    dphi/dt = log det g(t) - log det h.

Time stepping is explicit midpoint (second order), with the step bounded by
an explicit-diffusion limit proportional to the smallest metric eigenvalue.
A step starts from the dphi/dt it ended on (first same as last, as in
Dormand-Prince), so it reconstructs and checks two metrics: the midpoint and
the end.  When either loses positivity the step is retried with half the
step size a bounded number of times before the flow is declared degenerate.

The checks in this module compare the recorded trajectory against the
structural consequences of the equation: the volume-ratio and twisted scalar
bounds in terms of the initial infimum, the identities obeyed by phi and its
time derivative, the Schwarz-type inequality for log tr_g h, the telescoped
trace evolution bound, and the monotone combinations of log tr_g h with the
potentials.  Time derivatives are taken with the second-order nonuniform
3-point formula, so all residuals shrink at order dt^2.

Snapshots are analysed in one pass after the run: each snapshot metric is
reconstructed, checked and inverted once, and a sliding window of three
snapshots gives the centered derivatives the Schwarz and identity checks need.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneracyError, FlowDegenerateError, HypothesisError
from .forms import pairing_matrix
from .grid import (
    MetricField,
    PeriodicGrid,
    clib_log,
    curvature_field,
    dbar_hessian_field,
    g_pair_trace,
    g_trace,
    laplacian,
    metric_from_potential,
    ricci_field,
)

__all__ = [
    "DiagnosticsRow",
    "FlowConfig",
    "FlowModel",
    "FlowResult",
    "FlowSnapshot",
    "PotentialIdentityReport",
    "ScalarBoundReport",
    "SchwarzReport",
    "TraceEvolutionReport",
    "TwistSpec",
    "check_potential_identities",
    "check_scalar_bound",
    "check_schwarz",
    "check_trace_evolution",
    "homogeneous_phi",
    "homogeneous_phidot",
    "horizon_estimate",
    "monotone_quantities",
    "run_flow",
]

# Relative tolerance for the imaginary part of g-traces of Hermitian fields.
TRACE_REAL_TOL = 1e-9

# Snapshots a centered time difference needs, and the window the analysis
# pass keeps; the checks that take one (potential identities, Schwarz,
# differential trace evolution) have nothing to check with fewer.
CENTERED_SNAPSHOTS = 3


@dataclass
class TwistSpec:
    """Twist eta = c omega_h + d dbar potential."""

    c: float = 0.0
    potential: np.ndarray | None = None


@dataclass
class FlowConfig:
    grid: PeriodicGrid
    background: np.ndarray | None = None
    twist: TwistSpec = field(default_factory=TwistSpec)
    t_final: float = 1.0
    dt_initial: float = 1e-3
    cfl_safety: float = 0.8
    diagnostics_every: int = 10
    alpha: float = 1.0
    beta: float = 1.0
    max_halvings: int = 10
    max_steps: int = 200_000

    def __post_init__(self):
        if not self.t_final > 0:
            raise ValueError("t_final must be positive")
        if not self.dt_initial > 0:
            raise ValueError("dt_initial must be positive")
        if not 0 < self.cfl_safety <= 1:
            raise ValueError("cfl_safety must lie in (0, 1]")
        if self.diagnostics_every < 1:
            raise ValueError("diagnostics_every must be at least 1")
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError("alpha and beta must be positive")


class FlowModel:
    """Background data and metric reconstruction for one flow configuration.

    h, Ric(h), eta and Ric(h) + eta are kept in entry form only (see
    :class:`MetricField`), and :meth:`reconstruct` sums entry fields, so a
    flow step never builds or validates a full (..., n, n) field.
    """

    def __init__(self, config: FlowConfig):
        grid = config.grid
        self.grid = grid
        self.config = config
        bg = (
            np.zeros(grid.shape)
            if config.background is None
            else np.asarray(config.background, dtype=float)
        )
        if bg.shape != grid.shape:
            raise ValueError(f"background potential must have shape {grid.shape}")
        self.h = metric_from_potential(grid, bg)
        self.h_margin = self.h.require_positive("background metric")
        self.ric_h = ricci_field(grid, self.h)
        u = (
            np.zeros(grid.shape)
            if config.twist.potential is None
            else np.asarray(config.twist.potential, dtype=float)
        )
        if u.shape != grid.shape:
            raise ValueError(f"twist potential must have shape {grid.shape}")
        self.u = u
        self.c = float(config.twist.c)
        self.eta = self.c * self.h + dbar_hessian_field(grid, u)
        self._logdet_h = self.h.log_determinant()
        self._drift = self.ric_h + self.eta

    @functools.cached_property
    def curvature_h(self) -> np.ndarray:
        """The background curvature tensor R_h, computed on first use and kept."""
        return curvature_field(self.grid, self.h)

    def reconstruct(self, t: float, phi: np.ndarray) -> MetricField:
        """g(t) = h - t (Ric(h) + eta) + d dbar phi, summed entry by entry
        into the fresh entries of d dbar phi."""
        g = dbar_hessian_field(self.grid, phi)
        for entry, h, drift in zip(g.entries, self.h.entries, self._drift.entries):
            if entry is not None:
                background = t * drift
                np.subtract(h, background, out=background)
                entry += background
        return g

    def phidot_of(self, g: MetricField) -> np.ndarray:
        return g.log_determinant() - self._logdet_h

    def log_trace_h(self, ginv: np.ndarray) -> np.ndarray:
        """log tr_g h from g^-1, through the same C-library log as log det g."""
        return clib_log(g_trace(ginv, self.h, real_tol=TRACE_REAL_TOL))

    def rhs(self, t: float, phi: np.ndarray) -> np.ndarray:
        """dphi/dt at (t, phi); raises DegeneracyError if g(t) is not positive."""
        g = self.reconstruct(t, phi)
        g.require_positive("flow metric")
        return self.phidot_of(g)


@dataclass
class FlowSnapshot:
    t: float
    phi: np.ndarray
    phidot: np.ndarray


@dataclass
class DiagnosticsRow:
    t: float
    sup_phidot: float
    inf_scalar_plus_tr_eta: float
    bound_volume_upper: float
    positivity_margin: float
    sup_G: float
    schwarz_min_margin: float


@dataclass
class PotentialIdentityReport:
    times: np.ndarray
    residual_phi: float
    residual_phidot: float


@dataclass
class FlowResult:
    config: FlowConfig
    model: FlowModel
    sigma: float
    snapshots: list[FlowSnapshot]
    rows: list[DiagnosticsRow]
    steps: int
    # None when the run has fewer than CENTERED_SNAPSHOTS snapshots.
    identities: PotentialIdentityReport | None = None

    @property
    def final(self) -> FlowSnapshot:
        return self.snapshots[-1]


def _initial_sigma(model: FlowModel) -> float:
    """Barrier scale from the initial twisted scalar infimum.

    With m0 = inf(scal(g0) + tr_{g0} eta), the comparison ODE keeps
    scal + tr eta >= -n/(t + sigma) and sup dphi/dt <= n log(1 + t/sigma)
    for sigma = n / (-m0); a nonnegative infimum never forces a barrier, so
    sigma is infinite there and both bounds degenerate gracefully.
    """
    ginv = model.h.inverse()
    scal = g_trace(ginv, model.ric_h, real_tol=TRACE_REAL_TOL)
    treta = g_trace(ginv, model.eta, real_tol=TRACE_REAL_TOL)
    m0 = float((scal + treta).min())
    if m0 < 0:
        return model.grid.n / (-m0)
    return math.inf


def _rk2_step(model: FlowModel, t: float, phi: np.ndarray, dt: float, phidot: np.ndarray):
    """One explicit midpoint step from (t, phi), where dphi/dt is ``phidot``;
    returns (phi_new, phidot_new, margin_new)."""
    k2 = model.rhs(t + 0.5 * dt, phi + (0.5 * dt) * phidot)
    phi_new = phi + dt * k2
    g_new = model.reconstruct(t + dt, phi_new)
    margin = g_new.require_positive("flow metric")
    return phi_new, model.phidot_of(g_new), margin


def run_flow(config: FlowConfig) -> FlowResult:
    """Integrate the flow to t_final, recording snapshots and diagnostics.

    Raises :class:`FlowDegenerateError` when the metric cannot be kept
    positive even after halving the step ``max_halvings`` times, when the
    step collapses below dt_initial * 2^-40, or when the step budget runs
    out before t_final.  The error carries the partial result, whose last
    snapshot is the last accepted state.
    """
    model = FlowModel(config)
    grid = config.grid
    n = grid.n
    sigma = _initial_sigma(model)
    phi = np.zeros(grid.shape)
    t = 0.0
    # g(0) = h, so dphi/dt starts at log det h - log det h = 0.
    phidot = np.zeros(grid.shape)
    margin = model.h_margin
    snapshots = [FlowSnapshot(t=0.0, phi=phi.copy(), phidot=phidot.copy())]
    steps = 0

    def snapshot():
        if not np.isclose(snapshots[-1].t, t, rtol=0, atol=1e-15):
            snapshots.append(FlowSnapshot(t=t, phi=phi.copy(), phidot=phidot.copy()))

    def finish():
        result = FlowResult(
            config=config, model=model, sigma=sigma, snapshots=snapshots, rows=[], steps=steps
        )
        result.rows, result.identities = _diagnostics(result)
        return result

    def degenerate(message, stop_margin):
        snapshot()
        return FlowDegenerateError(message, t=t, margin=stop_margin, result=finish())

    dt_floor = config.dt_initial * 2.0**-40
    cfl = config.cfl_safety * grid.spacing**2 / (2.0 * n)
    while t < config.t_final * (1.0 - 1e-12):
        if steps >= config.max_steps:
            raise degenerate(f"step budget {config.max_steps} exhausted at t={t:.6g}", margin)
        dt = min(config.dt_initial, cfl * margin, config.t_final - t)
        if dt <= dt_floor:
            raise degenerate(
                f"step size collapsed at t={t:.6g} (metric margin {margin:.3e})", margin
            )
        accepted = None
        for _ in range(config.max_halvings + 1):
            try:
                accepted = _rk2_step(model, t, phi, dt, phidot)
                break
            except DegeneracyError as err:
                last_margin = err.margin
                dt *= 0.5
        if accepted is None:
            raise degenerate(
                f"flow degenerate at t={t:.6g} after {config.max_halvings} halvings",
                last_margin,
            )
        phi, phidot, margin = accepted
        t += dt
        steps += 1
        if steps % config.diagnostics_every == 0 or t >= config.t_final * (1.0 - 1e-12):
            snapshot()
    return finish()


def homogeneous_phi(n: int, c: float, t) -> np.ndarray:
    """Closed-form spatially constant potential for flat h and eta = c omega_h."""
    t = np.asarray(t, dtype=float)
    if c == 0.0:
        return np.zeros_like(t)
    return n * ((t - 1.0 / c) * np.log1p(-c * t) - t)


def homogeneous_phidot(n: int, c: float, t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    return n * np.log1p(-c * t)


def _volume_upper_bound(n: int, sigma: float, t: float) -> float:
    if math.isinf(sigma):
        return 0.0
    return n * math.log1p(t / sigma)


def monotone_quantities(
    model: FlowModel,
    t: float,
    phi: np.ndarray,
    phidot: np.ndarray,
    alpha: float = 1.0,
    beta: float = 1.0,
    twist_potential: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The fields F and G whose suprema decay along the flow.

        F = log tr_g h + (1 + alpha/beta) u - (alpha/beta)(phidot + phi_twist)
        G = F + (1 + alpha n / beta) log t

    ``twist_potential`` (phi_twist) defaults to the twist's own potential u.
    Only positive times are admissible because of the log t term.
    """
    if t <= 0:
        raise ValueError("monotone quantities are defined for t > 0 only")
    g = model.reconstruct(t, phi)
    g.require_positive("flow metric")
    log_lam = model.log_trace_h(g.inverse())
    return _monotone_fields(model, t, log_lam, phidot, alpha, beta, twist_potential)


def _monotone_fields(model, t, log_lam, phidot, alpha, beta, twist_potential=None):
    """F and G of :func:`monotone_quantities` from log tr_g h at time t."""
    phi_twist = model.u if twist_potential is None else twist_potential
    r = alpha / beta
    F = log_lam + (1.0 + r) * model.u - r * (phidot + phi_twist)
    G = F + (1.0 + r * model.grid.n) * math.log(t)
    return F, G


def _nonuniform_dt(f_prev, f_mid, f_next, a: float, b: float):
    """Second-order derivative at the middle of three unevenly spaced samples.

    ``a`` is the gap to the previous sample and ``b`` to the next.
    """
    return (f_next * a**2 - f_prev * b**2 + f_mid * (b**2 - a**2)) / (a * b * (a + b))


def _diagnostics(result: FlowResult):
    """(rows, identity report or None) from one pass over the snapshots.

    Each full window of CENTERED_SNAPSHOTS entries gives its middle row the
    Schwarz margin and adds the middle snapshot to the identity residuals;
    endpoint rows keep a NaN margin.

    The twisted scalar curvature needs no Ricci form of g: phidot is
    log det g - log det h, so Ric(g) = Ric(h) - d dbar phidot and
    scal + tr_g eta = tr_g(Ric(h) + eta) - Lap_g phidot, the same two
    fields the phidot identity compares against.
    """
    model = result.model
    grid = model.grid
    config = result.config
    n = grid.n
    snaps = result.snapshots
    R_h = model.curvature_h if len(snaps) >= CENTERED_SNAPSHOTS else None
    rows = []
    window = deque(maxlen=CENTERED_SNAPSHOTS)
    res_phi = res_phidot = 0.0
    for snap in snaps:
        g = model.reconstruct(snap.t, snap.phi)
        margin = g.require_positive("flow metric")
        ginv = g.inverse()
        drift = g_trace(ginv, model._drift, real_tol=TRACE_REAL_TOL)
        lap_phidot = laplacian(grid, ginv, snap.phidot)
        log_lam = model.log_trace_h(ginv)
        if snap.t > 0:
            _, G = _monotone_fields(
                model, snap.t, log_lam, snap.phidot, config.alpha, config.beta
            )
            sup_G = float(G.max())
        else:
            sup_G = -math.inf
        rows.append(
            DiagnosticsRow(
                t=snap.t,
                sup_phidot=float(snap.phidot.max()),
                inf_scalar_plus_tr_eta=float((drift - lap_phidot).min()),
                bound_volume_upper=_volume_upper_bound(n, result.sigma, snap.t),
                positivity_margin=margin,
                sup_G=sup_G,
                schwarz_min_margin=math.nan,
            )
        )
        window.append((snap, ginv, log_lam, drift, lap_phidot))
        if len(window) < CENTERED_SNAPSHOTS:
            continue
        (prev, _, log_prev, *_), (mid, ginv_mid, log_mid, drift_mid, lap_mid), (
            nxt, _, log_next, *_) = window
        a, b = mid.t - prev.t, nxt.t - mid.t
        dlog = _nonuniform_dt(log_prev, log_mid, log_next, a, b)
        rows[-2].schwarz_min_margin = _schwarz_margins(model, ginv_mid, dlog, log_mid, R_h)
        dphi = _nonuniform_dt(prev.phi, mid.phi, nxt.phi, a, b)
        dphidot = _nonuniform_dt(prev.phidot, mid.phidot, nxt.phidot, a, b)
        rhs = -drift_mid + lap_mid
        res_phi = max(res_phi, float(np.max(np.abs(dphi - mid.phidot))))
        res_phidot = max(res_phidot, float(np.max(np.abs(dphidot - rhs))))
    if R_h is None:
        return rows, None
    times = np.array([snap.t for snap in snaps[1:-1]])
    return rows, PotentialIdentityReport(times, res_phi, res_phidot)


def _schwarz_margins(
    model: FlowModel, ginv: np.ndarray, dlog: np.ndarray, log_lam: np.ndarray, R_h: np.ndarray
) -> float:
    """Min-over-grid margin of the Schwarz-type inequality at one snapshot.

        (d/dt - Lap_g) log tr_g h  >=  (1/Lam) tr_g tr_g R_h
                                       + (1/Lam) tr(h g^-1 eta g^-1)

    ``ginv`` is g^-1 at the snapshot, ``dlog`` the centered d/dt of
    ``log_lam`` = log tr_g h, and ``R_h`` the background curvature tensor.
    """
    lam = np.exp(log_lam)
    lhs = dlog - laplacian(model.grid, ginv, log_lam)
    double_trace = g_trace(ginv, g_trace(ginv, R_h))
    twist_trace = g_pair_trace(ginv, model.h, model.eta)
    rhs = (double_trace.real + twist_trace.real) / lam
    return float((lhs - rhs).min())


@dataclass
class ScalarBoundReport:
    times: np.ndarray
    values: np.ndarray
    bounds: np.ndarray
    min_margin: float
    ok: bool


def check_scalar_bound(result: FlowResult, tol: float = 1e-8) -> ScalarBoundReport:
    """Check inf(scal(g_t) + tr_{g_t} eta) >= -n / (t + sigma) along the flow."""
    n = result.config.grid.n
    times = np.array([row.t for row in result.rows])
    values = np.array([row.inf_scalar_plus_tr_eta for row in result.rows])
    if math.isinf(result.sigma):
        bounds = np.zeros_like(times)
    else:
        bounds = -n / (times + result.sigma)
    margins = values - bounds
    scale = 1.0 + float(np.max(np.abs(bounds)))
    min_margin = float(margins.min())
    return ScalarBoundReport(
        times=times,
        values=values,
        bounds=bounds,
        min_margin=min_margin,
        ok=bool(min_margin >= -tol * scale),
    )


def check_potential_identities(result: FlowResult) -> PotentialIdentityReport:
    """Residuals of d phi/dt = phidot and the evolution of phidot itself.

    The second identity, d phidot/dt = -tr_g(Ric(h) + eta) + Lap_g phidot,
    holds exactly for the semi-discrete system with the same discrete
    operators, so both residuals measure pure time-discretization error and
    shrink at second order in the step size.  The residuals are maxima over
    the interior snapshots, computed by the analysis pass of :func:`run_flow`.
    """
    if result.identities is None:
        raise ValueError("need at least three snapshots for centered differences")
    return result.identities


@dataclass
class SchwarzReport:
    times: np.ndarray
    margins: np.ndarray
    min_margin: float
    worst_negative: float


def check_schwarz(result: FlowResult) -> SchwarzReport:
    """Collect the per-snapshot Schwarz margins (interior snapshots only).

    ``worst_negative`` is the magnitude of the most negative margin, zero if
    none are negative; the inequality is exact for the continuum flow, so the
    negative part is pure discretization error.
    """
    rows = [row for row in result.rows if not math.isnan(row.schwarz_min_margin)]
    times = np.array([row.t for row in rows])
    margins = np.array([row.schwarz_min_margin for row in rows])
    if margins.size == 0:
        raise ValueError("no interior snapshots with Schwarz margins")
    min_margin = float(margins.min())
    return SchwarzReport(
        times=times,
        margins=margins,
        min_margin=min_margin,
        worst_negative=max(0.0, -min_margin),
    )


@dataclass
class TraceEvolutionReport:
    times: np.ndarray
    sup_values: np.ndarray
    max_increase: float
    differential_min_margin: float
    mu: float
    ok: bool


def check_trace_evolution(
    result: FlowResult,
    mu: float,
    twist_potential: np.ndarray | None = None,
    tol: float = 1e-8,
) -> TraceEvolutionReport:
    """Telescoped decay of sup(log tr_g h - Q) under the certified hypotheses.

    Requires eta to be an exact complex Hessian (c = 0), the twisted Ricci
    form rho = Ric(h) + d dbar phi_twist to sit strictly below
    mu omega_h + d dbar v with v = (2 beta / alpha) u, and the pointwise
    mixed-curvature level of the background to be certified nonpositive by
    the eigenvalue estimate.  Violations raise :class:`HypothesisError`
    naming the failing hypothesis.  With

        B = alpha mu (n - 1) / (2 n beta),   w = t phidot - phi - n t,
        Q = -B w - (alpha / (2 beta)) v + (alpha / beta)(phidot + phi_twist - u),

    the supremum of log tr_g h - Q must be non-increasing in t; the
    centered-difference margin of the differential form is reported as well.
    """
    model = result.model
    grid = model.grid
    config = result.config
    n = grid.n
    alpha, beta = config.alpha, config.beta
    if model.c != 0.0:
        raise HypothesisError(
            "eta is an exact complex Hessian",
            f"twist has c = {model.c}, so eta carries a multiple of omega_h",
        )
    phi_twist = model.u if twist_potential is None else np.asarray(twist_potential, dtype=float)
    v = (2.0 * beta / alpha) * model.u
    rho = model.ric_h + dbar_hessian_field(grid, phi_twist)
    gap = mu * model.h + dbar_hessian_field(grid, v) - rho
    gap_margin = float(gap.smallest_eigenvalues().min())
    if gap_margin <= 0:
        raise HypothesisError(
            "rho < mu omega_h + d dbar v",
            f"pointwise gap has min eigenvalue {gap_margin:.3e}",
        )
    lam_est = _mixed_level_estimate(model, rho, alpha, beta)
    if lam_est > tol:
        raise HypothesisError(
            "pointwise mixed-curvature level <= 0",
            f"eigenvalue estimate gives sup lambda = {lam_est:.3e}",
        )
    B = alpha * mu * (n - 1) / (2.0 * n * beta)
    sup_vals = []
    diff_margin = math.inf
    window = deque(maxlen=CENTERED_SNAPSHOTS)
    for snap in result.snapshots:
        ginv = model.reconstruct(snap.t, snap.phi).inverse()
        w = snap.t * snap.phidot - snap.phi - n * snap.t
        Q = (
            -B * w
            - (alpha / (2.0 * beta)) * v
            + (alpha / beta) * (snap.phidot + phi_twist - model.u)
        )
        field_val = model.log_trace_h(ginv) - Q
        sup_vals.append(float(field_val.max()))
        window.append((snap.t, ginv, field_val))
        if len(window) < CENTERED_SNAPSHOTS:
            continue
        (t_prev, _, f_prev), (t_mid, ginv_mid, f_mid), (t_next, _, f_next) = window
        dfield = _nonuniform_dt(f_prev, f_mid, f_next, t_mid - t_prev, t_next - t_mid)
        heat = dfield - laplacian(grid, ginv_mid, f_mid)
        diff_margin = min(diff_margin, float((-heat).min()))
    sup_vals = np.array(sup_vals)
    times = np.array([snap.t for snap in result.snapshots])
    increases = np.diff(sup_vals)
    max_increase = float(increases.max()) if increases.size else 0.0
    scale = 1.0 + float(np.max(np.abs(sup_vals)))
    return TraceEvolutionReport(
        times=times,
        sup_values=sup_vals,
        max_increase=max_increase,
        differential_min_margin=diff_margin,
        mu=mu,
        ok=bool(max_increase <= tol * scale),
    )


def _mixed_level_estimate(model: FlowModel, rho: MetricField, alpha: float, beta: float) -> float:
    """Upper bound for the pointwise level of alpha h rho + beta R_h.

    In an h-unitary frame the level is at most alpha lambda_max(rho relative
    to h) plus beta times the largest eigenvalue of the curvature tensor
    reshaped over its (unbarred, barred) index pairs; the estimate is exact
    for flat backgrounds.
    """
    grid = model.grid
    n = grid.n
    axes = 2 * n
    E = model.h.unitary_frame()
    E_T = np.swapaxes(E, -1, -2)
    rho_flat = E_T @ rho.values @ np.conj(E)
    rho_flat = 0.5 * (rho_flat + np.conj(np.swapaxes(rho_flat, -1, -2)))
    rho_top = np.linalg.eigvalsh(rho_flat)[..., -1]
    # Pairing matrix over (unbarred, unbarred) x (barred, barred) slots,
    # A[(i, k), (j, l)] = R[i, j, k, l], moved to the frame by F = E (x) E:
    # (F^T A conj(F))[(a, c), (b, d)] = R(E_a, conj E_b, E_c, conj E_d).
    R = model.curvature_h
    A = pairing_matrix(R.transpose(tuple(range(axes)) + (axes, axes + 2, axes + 1, axes + 3)))
    F = (E[..., :, None, :, None] * E[..., None, :, None, :]).reshape(grid.shape + (n * n,) * 2)
    paired = np.swapaxes(F, -1, -2) @ A @ np.conj(F)
    paired = 0.5 * (paired + np.conj(np.swapaxes(paired, -1, -2)))
    curv_top = np.linalg.eigvalsh(paired)[..., -1]
    return float((alpha * rho_top + beta * curv_top).max())


def horizon_estimate(result: FlowResult, window: int = 10) -> float:
    """Extrapolated degeneracy time from the last positivity margins.

    Fits a line through the final ``window`` (t, margin) samples: returns the
    root if the fit decreases, +inf if it does not, and NaN when fewer than
    ``window`` samples exist (inconclusive).
    """
    rows = result.rows
    if len(rows) < window:
        return math.nan
    tail = rows[-window:]
    times = np.array([row.t for row in tail])
    margins = np.array([row.positivity_margin for row in tail])
    slope, intercept = np.polyfit(times, margins, 1)
    if slope >= 0:
        return math.inf
    return float(-intercept / slope)
