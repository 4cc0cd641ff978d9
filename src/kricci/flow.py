"""A twisted parabolic potential flow on flat torus backgrounds.

The background metric is h = I + d dbar (background potential) and the twist
is eta = c omega_h + d dbar u.  The evolving metric is reconstructed from a
scalar potential phi(t) as

    g(t) = h - t (Ric(h) + eta) + d dbar phi,      phi(0) = 0,

and the potential satisfies

    dphi/dt = log det g(t) - log det h.

Time stepping is explicit midpoint (second order), with the step bounded by
CFL_SAFETY times an explicit-diffusion limit proportional to the smallest
metric eigenvalue.  A step starts from the dphi/dt it ended on (first same as
last, as in Dormand-Prince), so it reconstructs and checks two metrics: the
midpoint and the end.  When either loses positivity the step is retried with
half the step size, up to MAX_HALVINGS times, before the flow is declared
degenerate; a run takes at most MAX_STEPS steps.

The checks in this module compare the recorded trajectory against the
structural consequences of the equation: the volume-ratio and twisted scalar
bounds in terms of the initial infimum, the identities obeyed by phi and its
time derivative, the Schwarz-type inequality for log tr_g h, the telescoped
trace evolution bound, and the monotone combinations of log tr_g h with the
potentials.  Time derivatives are taken with the second-order nonuniform
3-point formula, so all residuals shrink at order dt^2.  Each check is
``check_<name>(result, tol)`` and decides its own ``ok``; :data:`FLOW_CHECKS`
lists them with the report fields a flow report keeps and when each runs, and
``kricci flow`` runs them from that table.  A check that needs more snapshots
than the run has (a centered window, or two for the trace evolution) raises
:class:`TooFewSnapshotsError`.

The model builds every background field before the first step, the Sym² field
R_h + B(h, eta) of the Schwarz margins among them, so the analysis treats
every snapshot the same way, whatever the run's length.  Each snapshot is
analysed as the run takes it, from the g^-1 and the positivity margin of the
step that built its metric, so no snapshot metric is reconstructed or checked
twice; the start snapshot reads h, its margin and the h^-1 the barrier scale
uses.  Rows, identity residuals and the trace-evolution suprema and margin
go straight into the run's one :class:`FlowResult`.  It keeps a row for every
snapshot but only the last three snapshots, the window every centered
derivative needs, and that deque is the analysis window: each snapshot carries
its log tr_g h (and its trace-evolution field when mu is set), and only the
newest carries its g^-1 and traces, which the next snapshot's analysis takes
off it.  Only a run that degenerates between snapshots reconstructs its last
accepted state, once.  No check reads a snapshot metric after the run.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .errors import DegeneracyError, FlowDegenerateError, HypothesisError, TooFewSnapshotsError
from .forms import congruence, sym2_index
from .grid import (
    MetricField,
    PeriodicGrid,
    _sym2_entry,
    curvature_field,
    dbar_hessian,
    g_double_trace,
    g_trace,
    laplacian,
    metric_from_potential,
    model_form,
)

__all__ = [
    "BoundReport",
    "DiagnosticsRow",
    "FlowConfig",
    "FlowModel",
    "FlowResult",
    "FlowSnapshot",
    "PotentialIdentityReport",
    "SchwarzReport",
    "TraceEvolutionReport",
    "TwistSpec",
    "check_potential_identities",
    "check_scalar_bound",
    "check_schwarz",
    "check_trace_evolution",
    "check_volume_bound",
    "homogeneous_phi",
    "homogeneous_phidot",
    "horizon_estimate",
    "run_flow",
]

# Step control (see the module docstring), and the positivity margins the
# degeneracy-time fit of horizon_estimate uses.
CFL_SAFETY = 0.8
MAX_HALVINGS = 10
MAX_STEPS = 200_000
HORIZON_WINDOW = 10

# Snapshots a centered time difference needs, and the window the analysis
# pass keeps; the checks that take one (potential identities, Schwarz,
# differential trace evolution) have nothing to check with fewer.
CENTERED_SNAPSHOTS = 3

# Relative tolerance of the scalar, volume and trace-evolution bounds, where
# a flow config gives none.
CHECK_TOL = 1e-8


@dataclass(frozen=True)
class FlowCheck:
    """``check_<name>(result, tol)`` of this module, and the ``fields`` of its
    report a flow report keeps beside ``ok``.  It runs with the tolerance a
    config gives it, else ``default_tol`` (None: not at all), and only when
    the FlowConfig field ``requires`` names is set."""

    name: str
    fields: tuple[str, ...]
    default_tol: float | None = CHECK_TOL
    requires: str | None = None

    def tolerance(self, config: FlowConfig, given: dict[str, float]) -> float | None:
        """Its tolerance under ``config`` and the ``given`` ones, or None if it does not run."""
        if self.requires is not None and getattr(config, self.requires) is None:
            return None
        return given.get(self.name, self.default_tol)


# Every check kricci flow runs, in report order; the names are the keys of a
# flow config's "checks".
FLOW_CHECKS = (
    FlowCheck("scalar_bound", ("min_margin",)),
    FlowCheck("volume_bound", ("min_margin",)),
    FlowCheck("schwarz", ("worst_negative",), default_tol=None),
    FlowCheck("potential_identities", ("residual_phi", "residual_phidot"), default_tol=None),
    FlowCheck("trace_evolution", ("max_increase",), requires="mu"),
)


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
    diagnostics_every: int = 10
    alpha: float = 1.0
    beta: float = 1.0
    # mu and phi_twist (None: u) of check_trace_evolution; the run computes
    # its field only when mu is set.
    mu: float | None = None
    twist_potential: np.ndarray | None = None

    def __post_init__(self):
        numbers = {
            "t_final": self.t_final, "dt_initial": self.dt_initial, "twist.c": self.twist.c,
            "alpha": self.alpha, "beta": self.beta, "mu": self.mu,
        }
        for name, value in numbers.items():
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not self.t_final > 0:
            raise ValueError("t_final must be positive")
        if not self.dt_initial > 0:
            raise ValueError("dt_initial must be positive")
        every = self.diagnostics_every
        if not isinstance(every, Integral) or every < 1:
            raise ValueError(f"diagnostics_every must be an integer of at least 1, got {every!r}")
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError("alpha and beta must be positive")


def _real_potential(grid: PeriodicGrid, values, what: str) -> np.ndarray:
    """A real, finite, grid-shaped potential from a config or caller (None is
    zero); complex input raises ``ValueError`` rather than losing Im."""
    if values is None:
        return np.zeros(grid.shape)
    values = np.asarray(values)
    if np.iscomplexobj(values):
        raise ValueError(f"{what} potential must be real, got a complex array")
    if values.shape != grid.shape:
        raise ValueError(f"{what} potential must have shape {grid.shape}")
    if not np.isfinite(values).all():
        raise ValueError(f"{what} potential must be finite")
    return values.astype(float, copy=False)


class FlowModel:
    """Background data and metric reconstruction for one flow configuration.

    h, Ric(h), eta and Ric(h) + eta are kept in entry form only (see
    :class:`MetricField`), and :meth:`reconstruct` sums entry fields, so a
    flow step never builds or validates a full (..., n, n) field.
    ``schwarz_form`` is R_h + B(h, eta) on Sym²(C^n): the background
    curvature of :func:`curvature_field` with the polarized model form of
    :func:`model_form` added entry by entry, the one Sym² field a run keeps
    (see :func:`_schwarz_margins`).
    """

    def __init__(self, config: FlowConfig):
        grid = config.grid
        self.grid = grid
        self.config = config
        self.h = metric_from_potential(grid, _real_potential(grid, config.background, "background"))
        self.h_margin = self.h.require_positive("background metric")
        # Ric(h) = -d dbar log det h, from the one log det h and positivity check.
        self._logdet_h = self.h.log_determinant()
        self.ric_h = -dbar_hessian(grid, self._logdet_h)
        self.u = _real_potential(grid, config.twist.potential, "twist")
        self.phi_twist = (
            self.u
            if config.twist_potential is None
            else _real_potential(grid, config.twist_potential, "twist")
        )
        self.c = float(config.twist.c)
        self.eta = self.c * self.h + dbar_hessian(grid, self.u)
        self._drift = self.ric_h + self.eta
        self.schwarz_form = curvature_field(grid, self.h)
        for key, entry in model_form(self.h, self.eta).items():
            self.schwarz_form[key] += entry

    def reconstruct(self, t: float, phi: np.ndarray) -> MetricField:
        """g(t) = h - t (Ric(h) + eta) + d dbar phi, summed entry by entry
        into the fresh entries of d dbar phi."""
        g = dbar_hessian(self.grid, phi)
        for entry, h, drift in zip(g.entries, self.h.entries, self._drift.entries):
            if entry is not None:
                background = t * drift
                np.subtract(h, background, out=background)
                entry += background
        return g

    def phidot_of(self, g: MetricField) -> np.ndarray:
        """log det g - log det h, written into the fresh array of log det g."""
        out = g.log_determinant()
        out -= self._logdet_h
        return out

    def log_trace_h(self, ginv: MetricField) -> np.ndarray:
        """log tr_g h from g^-1, with numpy's log, as log det g."""
        return np.log(g_trace(ginv, self.h))

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
    # Set by _diagnostics: log tr_g h, f of check_trace_evolution when mu is
    # set, and (g^-1, tr_g(Ric(h) + eta), Lap_g phidot) while it is the newest.
    log_lam: np.ndarray | None = None
    trace_field: np.ndarray | None = None
    pending: tuple | None = None


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
class FlowResult:
    """One run's record: :func:`run_flow` builds it before its first step and
    fills it as it runs, so a degenerating run hands over what it has.  Of its
    snapshots it keeps the last CENTERED_SNAPSHOTS, the analysis window;
    ``rows`` counts them all."""

    config: FlowConfig
    model: FlowModel
    sigma: float
    snapshots: deque[FlowSnapshot] = field(default_factory=lambda: deque(maxlen=CENTERED_SNAPSHOTS))
    rows: list[DiagnosticsRow] = field(default_factory=list)
    steps: int = 0
    # Maxima over the window middles (check_potential_identities).
    residual_phi: float = 0.0
    residual_phidot: float = 0.0
    # Of f = log tr_g h - Q when mu is set (check_trace_evolution): sup f at
    # each snapshot, and the min of -(d/dt - Lap_g) f over the window middles.
    trace_sup_values: list[float] = field(default_factory=list)
    trace_differential_margin: float = math.inf

    @property
    def final(self) -> FlowSnapshot:
        return self.snapshots[-1]


def _initial_sigma(model: FlowModel, h_inv: MetricField) -> float:
    """Barrier scale from the initial twisted scalar infimum; ``h_inv`` is h^-1.

    With m0 = inf(scal(g0) + tr_{g0} eta), the comparison ODE keeps
    scal + tr eta >= -n/(t + sigma) and sup dphi/dt <= n log(1 + t/sigma)
    for sigma = n / (-m0); a nonnegative infimum never forces a barrier, so
    sigma is infinite there and both bounds degenerate gracefully.
    """
    scal = g_trace(h_inv, model.ric_h)
    treta = g_trace(h_inv, model.eta)
    m0 = float((scal + treta).min())
    if m0 < 0:
        return model.grid.n / (-m0)
    return math.inf


def _rk2_step(model: FlowModel, t: float, phi: np.ndarray, dt: float, phidot: np.ndarray):
    """One explicit midpoint step from (t, phi), where dphi/dt is ``phidot``;
    returns (phi_new, phidot_new, margin_new, g_new), g_new the end metric."""
    k2 = model.rhs(t + 0.5 * dt, phi + (0.5 * dt) * phidot)
    phi_new = phi + dt * k2
    g_new = model.reconstruct(t + dt, phi_new)
    margin = g_new.require_positive("flow metric")
    return phi_new, model.phidot_of(g_new), margin, g_new


def run_flow(config: FlowConfig) -> FlowResult:
    """Integrate the flow to t_final, recording snapshots and diagnostics.

    Each snapshot goes through :func:`_diagnostics` as it is taken, with the
    g^-1 and margin of the metric its step built.

    Raises :class:`FlowDegenerateError` when the metric cannot be kept
    positive even after halving the step MAX_HALVINGS times, when the step
    collapses below dt_initial * 2^-40, or when the budget of MAX_STEPS steps
    runs out before t_final.  The error carries the partial result, whose
    last snapshot is the last accepted state.
    """
    model = FlowModel(config)
    grid = config.grid
    n = grid.n
    h_inv = model.h.inverse()
    result = FlowResult(config, model, _initial_sigma(model, h_inv))
    snapshots = result.snapshots
    phi = np.zeros(grid.shape)
    t = 0.0
    # g(0) = h, so dphi/dt starts at log det h - log det h = 0.
    phidot = np.zeros(grid.shape)
    margin = model.h_margin

    def snapshot(ginv=None):
        """Take (t, phi, phidot) as a snapshot unless it is one, and analyse it
        from g^-1 at t.  Steps make fresh arrays, so they are kept uncopied."""
        if snapshots and abs(snapshots[-1].t - t) <= 1e-15:
            return
        if ginv is None:
            # The last accepted state of a degenerating run: its step kept no
            # metric, so it is reconstructed; its margin is the step's.
            ginv = model.reconstruct(t, phi).inverse()
        snapshots.append(FlowSnapshot(t=t, phi=phi, phidot=phidot))
        _diagnostics(result, ginv, margin)

    def degenerate(message, stop_margin):
        snapshot()
        return FlowDegenerateError(message, t=t, margin=stop_margin, result=result)

    snapshot(h_inv)
    del h_inv  # the start snapshot keeps it while it is the newest
    dt_floor = config.dt_initial * 2.0**-40
    cfl = CFL_SAFETY * grid.spacing**2 / (2.0 * n)
    done = False
    while not done:
        if result.steps >= MAX_STEPS:
            raise degenerate(f"step budget {MAX_STEPS} exhausted at t={t:.6g}", margin)
        dt = min(config.dt_initial, cfl * margin, config.t_final - t)
        if dt <= dt_floor:
            raise degenerate(
                f"step size collapsed at t={t:.6g} (metric margin {margin:.3e})", margin
            )
        accepted = None
        for _ in range(MAX_HALVINGS + 1):
            try:
                accepted = _rk2_step(model, t, phi, dt, phidot)
                break
            except DegeneracyError as err:
                last_margin = err.margin
                dt *= 0.5
        if accepted is None:
            raise degenerate(
                f"flow degenerate at t={t:.6g} after {MAX_HALVINGS} halvings",
                last_margin,
            )
        phi, phidot, margin, g = accepted
        del accepted
        t += dt
        result.steps += 1
        done = t >= config.t_final * (1.0 - 1e-12)
        ginv = g.inverse() if result.steps % config.diagnostics_every == 0 or done else None
        # The analysis reads g^-1 only; g goes before it runs.
        del g
        if ginv is not None:
            snapshot(ginv)
    return result


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


def _monotone_G(model: FlowModel, t: float, log_lam, phidot) -> np.ndarray:
    """The field G whose supremum decays along the flow, at t > 0,

        F = log tr_g h + (1 + alpha/beta) u - (alpha/beta)(phidot + u)
        G = F + (1 + alpha n / beta) log t,

    from log tr_g h at time t.
    """
    r = model.config.alpha / model.config.beta
    F = log_lam + (1.0 + r) * model.u - r * (phidot + model.u)
    return F + (1.0 + r * model.grid.n) * math.log(t)


def _nonuniform_dt(f_prev, f_mid, f_next, a: float, b: float):
    """Second-order derivative at the middle of three unevenly spaced samples.

    ``a`` is the gap to the previous sample and ``b`` to the next.
    """
    return (f_next * a**2 - f_prev * b**2 + f_mid * (b**2 - a**2)) / (a * b * (a + b))


def _trace_evolution_field(model: FlowModel, snap: FlowSnapshot):
    """f = log tr_g h - Q at an analysed snapshot, with Q as in :func:`check_trace_evolution`."""
    alpha, beta, n = model.config.alpha, model.config.beta, model.grid.n
    B = alpha * model.config.mu * (n - 1) / (2.0 * n * beta)
    w = snap.t * snap.phidot - snap.phi - n * snap.t
    v = (2.0 * beta / alpha) * model.u
    Q = -B * w - (alpha / (2.0 * beta)) * v
    Q += (alpha / beta) * (snap.phidot + model.phi_twist - model.u)
    return snap.log_lam - Q


def _diagnostics(result: FlowResult, ginv: MetricField, margin: float) -> None:
    """Analyse the newest snapshot of ``result`` from g^-1 and its metric's margin.

    Appends the snapshot's row to ``result.rows`` and, when mu is set, its
    sup f to ``result.trace_sup_values``.  The snapshot keeps its g^-1 and
    traces as ``pending``, and the one before it gives its own up.  A
    snapshot that fills the window gives the middle row its Schwarz margin
    and folds the middle into the identity residuals and the trace-evolution
    margin; endpoint rows keep a NaN margin.  At t = 0 phidot is the zero
    field, so Lap_g phidot is not formed.  The Schwarz margin reads the
    model's R_h + B(h, eta), built with the model, so every snapshot is
    analysed the same way.

    The twisted scalar curvature needs no Ricci form of g: phidot is
    log det g - log det h, so Ric(g) = Ric(h) - d dbar phidot and
    scal + tr_g eta = tr_g(Ric(h) + eta) - Lap_g phidot, the same two
    fields the phidot identity compares against.
    """
    model, snapshots = result.model, result.snapshots
    snap = snapshots[-1]
    drift = g_trace(ginv, model._drift)
    snap.log_lam = model.log_trace_h(ginv)
    if snap.t > 0:
        lap_phidot = laplacian(model.grid, ginv, snap.phidot)
        sup_G = float(_monotone_G(model, snap.t, snap.log_lam, snap.phidot).max())
    else:
        lap_phidot, sup_G = 0.0, -math.inf
    result.rows.append(
        DiagnosticsRow(
            t=snap.t,
            sup_phidot=float(snap.phidot.max()),
            inf_scalar_plus_tr_eta=float((drift - lap_phidot).min()),
            bound_volume_upper=_volume_upper_bound(model.grid.n, result.sigma, snap.t),
            positivity_margin=margin,
            sup_G=sup_G,
            schwarz_min_margin=math.nan,
        )
    )
    mu_set = model.config.mu is not None
    if mu_set:
        snap.trace_field = _trace_evolution_field(model, snap)
        result.trace_sup_values.append(float(snap.trace_field.max()))
    snap.pending = (ginv, drift, lap_phidot)
    if len(snapshots) == 1:
        return
    middle, snapshots[-2].pending = snapshots[-2].pending, None
    if len(snapshots) < CENTERED_SNAPSHOTS:
        return
    prev, mid, nxt = snapshots
    a, b = mid.t - prev.t, nxt.t - mid.t
    dlog = _nonuniform_dt(prev.log_lam, mid.log_lam, nxt.log_lam, a, b)
    ginv_mid, drift_mid, lap_mid = middle
    result.rows[-2].schwarz_min_margin = _schwarz_margins(model, ginv_mid, dlog, mid.log_lam)
    dphi = _nonuniform_dt(prev.phi, mid.phi, nxt.phi, a, b)
    dphidot = _nonuniform_dt(prev.phidot, mid.phidot, nxt.phidot, a, b)
    rhs = -drift_mid + lap_mid
    result.residual_phi = max(result.residual_phi, float(np.max(np.abs(dphi - mid.phidot))))
    result.residual_phidot = max(result.residual_phidot, float(np.max(np.abs(dphidot - rhs))))
    if mu_set:
        heat = _nonuniform_dt(prev.trace_field, mid.trace_field, nxt.trace_field, a, b)
        heat -= laplacian(model.grid, ginv_mid, mid.trace_field)
        heat_margin = float((-heat).min())
        result.trace_differential_margin = min(result.trace_differential_margin, heat_margin)


def _schwarz_margins(
    model: FlowModel, ginv: MetricField, dlog: np.ndarray, log_lam: np.ndarray
) -> float:
    """Min-over-grid margin of the Schwarz-type inequality at one snapshot.

        (d/dt - Lap_g) log Lam  >=  (tr_g tr_g R_h + tr(g^-1 h g^-1 eta)) / Lam
                                 =  tr_g tr_g (R_h + B(h, eta)) / Lam - tr_g eta,

    with Lam = tr_g h.  The second form is what is computed: one double trace
    (:func:`g_double_trace`) of the model's Sym² field R_h + B(h, eta)
    (:attr:`FlowModel.schwarz_form`), whose twist part tr_g tr_g B(h, eta) is
    Lam tr_g eta + tr(g^-1 h g^-1 eta) (:func:`model_form`), and one g-trace
    of eta.  ``ginv`` is g^-1 at the snapshot, Lam is taken from it, and
    ``dlog`` is the centered d/dt of ``log_lam`` = log Lam.  For the continuum
    flow lhs - rhs = -s, with s >= 0 the Cauchy-Schwarz slack of the Chern-Lu
    formula for Lap_g log Lam.  s vanishes at n=1, so there the margin is zero
    up to discretization error; at n >= 2 it is not.
    """
    lam = g_trace(ginv, model.h)
    lhs = dlog - laplacian(model.grid, ginv, log_lam)
    rhs = g_double_trace(ginv, model.schwarz_form)
    rhs /= lam
    rhs -= g_trace(ginv, model.eta)
    return float((lhs - rhs).min())


def _require_window(result: FlowResult, snapshots: int) -> None:
    """Raise :class:`TooFewSnapshotsError` unless the run has ``snapshots`` snapshots."""
    if len(result.rows) < snapshots:
        raise TooFewSnapshotsError(f"needs {snapshots} snapshots, the run has {len(result.rows)}")


@dataclass
class BoundReport:
    times: np.ndarray
    values: np.ndarray
    bounds: np.ndarray
    min_margin: float
    ok: bool


def _bound_report(times, values, bounds, margins, tol: float) -> BoundReport:
    """The rule of both bound checks: the smallest of ``margins``, the signed
    distances of ``values`` inside ``bounds``, is at least -tol (1 + max|bound|)."""
    min_margin = float(margins.min())
    scale = 1.0 + float(np.max(np.abs(bounds)))
    return BoundReport(times, values, bounds, min_margin, ok=bool(min_margin >= -tol * scale))


def check_scalar_bound(result: FlowResult, tol: float = CHECK_TOL) -> BoundReport:
    """Check inf(scal(g_t) + tr_{g_t} eta) >= -n / (t + sigma) along the flow."""
    n = result.config.grid.n
    times = np.array([row.t for row in result.rows])
    values = np.array([row.inf_scalar_plus_tr_eta for row in result.rows])
    if math.isinf(result.sigma):
        bounds = np.zeros_like(times)
    else:
        bounds = -n / (times + result.sigma)
    return _bound_report(times, values, bounds, values - bounds, tol)


def check_volume_bound(result: FlowResult, tol: float = CHECK_TOL) -> BoundReport:
    """Check sup dphi/dt <= n log(1 + t / sigma), the volume-ratio bound of each
    row, along the flow."""
    times = np.array([row.t for row in result.rows])
    values = np.array([row.sup_phidot for row in result.rows])
    bounds = np.array([row.bound_volume_upper for row in result.rows])
    return _bound_report(times, values, bounds, bounds - values, tol)


@dataclass
class PotentialIdentityReport:
    times: np.ndarray
    residual_phi: float
    residual_phidot: float
    ok: bool


def check_potential_identities(result: FlowResult, tol: float = CHECK_TOL) -> PotentialIdentityReport:
    """Residuals of d phi/dt = phidot and the evolution of phidot itself;
    both must be at most ``tol``.

    The second identity, d phidot/dt = -tr_g(Ric(h) + eta) + Lap_g phidot,
    holds exactly for the semi-discrete system with the same discrete
    operators, so both residuals measure pure time-discretization error and
    shrink at second order in the step size.  The residuals are maxima over
    the interior snapshots, computed by the analysis pass of :func:`run_flow`.
    """
    _require_window(result, CENTERED_SNAPSHOTS)
    times = np.array([row.t for row in result.rows[1:-1]])
    residuals = result.residual_phi, result.residual_phidot
    return PotentialIdentityReport(times, *residuals, ok=bool(max(residuals) <= tol))


@dataclass
class SchwarzReport:
    times: np.ndarray
    margins: np.ndarray
    min_margin: float
    worst_negative: float
    ok: bool


def check_schwarz(result: FlowResult, tol: float = CHECK_TOL) -> SchwarzReport:
    """Collect the per-snapshot Schwarz margins (interior snapshots only);
    the most negative may fall at most ``tol`` below zero.

    ``worst_negative`` is the magnitude of the most negative margin, zero if
    none are negative.  The negative part is pure discretization error only at
    n=1; at n >= 2 the continuum margin is -s <= 0 (:func:`_schwarz_margins`).
    """
    _require_window(result, CENTERED_SNAPSHOTS)
    rows = [row for row in result.rows if not math.isnan(row.schwarz_min_margin)]
    times = np.array([row.t for row in rows])
    margins = np.array([row.schwarz_min_margin for row in rows])
    min_margin = float(margins.min())
    worst_negative = max(0.0, -min_margin)
    return SchwarzReport(times, margins, min_margin, worst_negative, ok=bool(worst_negative <= tol))


@dataclass
class TraceEvolutionReport:
    times: np.ndarray
    sup_values: np.ndarray
    max_increase: float
    differential_min_margin: float
    mu: float
    ok: bool


def check_trace_evolution(result: FlowResult, tol: float = CHECK_TOL) -> TraceEvolutionReport:
    """Telescoped decay of sup(log tr_g h - Q) under the certified hypotheses.

    Requires eta to be an exact complex Hessian (c = 0), the twisted Ricci
    form rho = Ric(h) + d dbar phi_twist to sit strictly below
    mu omega_h + d dbar v with v = (2 beta / alpha) u, and the pointwise
    mixed-curvature level of the background to be certified nonpositive by
    the eigenvalue estimate.  Violations raise :class:`HypothesisError`
    naming the failing hypothesis.  mu and phi_twist are the config's ``mu``
    and ``twist_potential``.  With

        B = alpha mu (n - 1) / (2 n beta),   w = t phidot - phi - n t,
        Q = -B w - (alpha / (2 beta)) v + (alpha / beta)(phidot + phi_twist - u),

    the supremum of log tr_g h - Q must be non-increasing in t; the
    centered-difference margin of the differential form is reported as well.
    Both are recorded by the run (``result.trace_sup_values`` and
    ``trace_differential_margin``), so the check builds no metric.  A run
    whose config sets no mu raises ValueError, and one with a single
    snapshot, which has no increase of the supremum, raises
    :class:`TooFewSnapshotsError`.
    """
    config = result.config
    if config.mu is None:
        raise ValueError("the run computed no trace-evolution field: its config sets no mu")
    _require_window(result, 2)
    model = result.model
    grid = model.grid
    alpha, beta, mu = config.alpha, config.beta, config.mu
    if model.c != 0.0:
        raise HypothesisError(
            "eta is an exact complex Hessian",
            f"twist has c = {model.c}, so eta carries a multiple of omega_h",
        )
    rho = model.ric_h + dbar_hessian(grid, model.phi_twist)
    gap = mu * model.h + dbar_hessian(grid, (2.0 * beta / alpha) * model.u) - rho
    try:
        gap.require_positive("pointwise gap")
    except DegeneracyError as err:
        raise HypothesisError(
            "rho < mu omega_h + d dbar v",
            f"pointwise gap has min eigenvalue {err.margin:.3e}",
        ) from err
    lam_est = _mixed_level_estimate(model, rho, alpha, beta)
    if lam_est > tol:
        raise HypothesisError(
            "pointwise mixed-curvature level <= 0",
            f"eigenvalue estimate gives sup lambda = {lam_est:.3e}",
        )
    sup_vals = np.array(result.trace_sup_values)
    max_increase = float(np.diff(sup_vals).max())
    scale = 1.0 + float(np.max(np.abs(sup_vals)))
    return TraceEvolutionReport(
        times=np.array([row.t for row in result.rows]),
        sup_values=sup_vals,
        max_increase=max_increase,
        differential_min_margin=result.trace_differential_margin,
        mu=mu,
        ok=bool(max_increase <= tol * scale),
    )


def _mixed_level_estimate(model: FlowModel, rho: MetricField, alpha: float, beta: float) -> float:
    """Upper bound for the pointwise level of alpha h rho + beta R_h.

    In an h-unitary frame E the level is at most alpha lambda_max(rho
    relative to h) plus beta lambda_max of R_h on Sym²(C^n), the matrix
    w_A w_C R(E_a, conj E_b, E_c, conj E_d) over the pairs A = (a, c),
    C = (b, d) and weights w of :func:`sym2_index`.  The pairing matrix of R_h
    on all of C^n (x) C^n also vanishes on Λ², so at n >= 2 the curvature
    part is clamped at 0.  The estimate is exact for flat backgrounds.
    """
    n = model.grid.n
    E = model.h.unitary_frame()
    rho_top = np.linalg.eigvalsh(congruence(E, rho.values))[..., -1]
    pairs, orbits, weights = sym2_index(n)
    # R_h as the run's Sym² field less B(h, eta): no second curvature pass.
    S, B = model.schwarz_form, model_form(model.h, model.eta)
    form = np.stack([np.stack([_sym2_entry(S, P, Q) - _sym2_entry(B, P, Q) for Q in pairs], -1)
                     for P in pairs], -2)
    # V[P, A] = w_A sum of E[i, a] E[k, c] over (i, k) in the orbit of P, so
    # that congruence(V, form)[A, C] = w_A w_C R(E_a, conj E_b, E_c, conj E_d).
    V = np.stack([np.stack([w * sum(E[..., i, a] * E[..., k, c] for i, k in orbit)
                            for (a, c), w in zip(pairs, weights)], -1) for orbit in orbits], -2)
    curv_top = np.linalg.eigvalsh(congruence(V, form))[..., -1]
    if n > 1:
        curv_top = np.maximum(curv_top, 0.0)
    return float((alpha * rho_top + beta * curv_top).max())


def horizon_estimate(result: FlowResult) -> float:
    """Extrapolated degeneracy time from the last positivity margins.

    Fits a line through the final HORIZON_WINDOW (t, margin) samples: returns
    the root if the fit decreases, +inf if it does not, and NaN when fewer
    samples exist (inconclusive).
    """
    rows = result.rows
    if len(rows) < HORIZON_WINDOW:
        return math.nan
    tail = rows[-HORIZON_WINDOW:]
    times = np.array([row.t for row in tail])
    margins = np.array([row.positivity_margin for row in tail])
    slope, intercept = np.polyfit(times, margins, 1)
    if slope >= 0:
        return math.inf
    return float(-intercept / slope)
