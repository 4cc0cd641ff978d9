"""Flow integrator and trajectory checks.

The spatially homogeneous twist eta = c omega_h on a flat background has the
closed-form solution phi(t) = n [(t - 1/c) log(1 - c t) - t], which exercises
the integrator, the barrier scale, the scalar and volume bounds, and the
horizon extrapolation with exact reference values.
"""

import dataclasses
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import kricci.flow
import kricci.grid
from kricci.errors import (
    DegeneracyError,
    FlowDegenerateError,
    HypothesisError,
    TooFewSnapshotsError,
)
from kricci.flow import (
    CENTERED_SNAPSHOTS,
    DiagnosticsRow,
    FlowConfig,
    FlowModel,
    FlowResult,
    TwistSpec,
    _nonuniform_dt,
    check_potential_identities,
    check_scalar_bound,
    check_schwarz,
    check_trace_evolution,
    check_volume_bound,
    homogeneous_phi,
    homogeneous_phidot,
    horizon_estimate,
    run_flow,
)
from kricci.grid import (
    MetricField,
    PeriodicGrid,
    curvature_field,
    dbar_hessian,
    g_double_trace,
    g_trace,
    laplacian,
    model_form,
    ricci_field,
    scalar_from_modes,
)


def homogeneous_config(c, n=1, N=8, t_final=0.5, dt=1e-3, every=10, **kwargs):
    grid = PeriodicGrid(n, N)
    return FlowConfig(
        grid=grid,
        twist=TwistSpec(c=c),
        t_final=t_final,
        dt_initial=dt,
        diagnostics_every=every,
        **kwargs,
    )


def perturbed_potential(grid, amplitude, wavevector):
    return scalar_from_modes(grid, [(wavevector, amplitude)])


class TestHomogeneousTwist:
    def test_matches_closed_form(self):
        result = run_flow(homogeneous_config(c=0.5, t_final=0.5, dt=1e-3))
        final = result.final
        assert final.t == pytest.approx(0.5, abs=1e-12)
        exact = homogeneous_phi(1, 0.5, final.t)
        assert np.max(np.abs(final.phi - exact)) < 1e-7

    def test_phidot_is_exact(self, snapshot_history):
        # The reconstruction g = (1 - c t) h does not involve phi, so the
        # recorded phidot is exact regardless of integration error.
        result = run_flow(homogeneous_config(c=0.5, t_final=0.5))
        for snap in snapshot_history(result):
            expected = homogeneous_phidot(1, 0.5, snap.t)
            assert np.max(np.abs(snap.phidot - expected)) < 1e-12

    def test_second_order_in_dt(self):
        errors = []
        for dt in (2e-3, 1e-3):
            result = run_flow(homogeneous_config(c=0.5, t_final=0.5, dt=dt))
            exact = homogeneous_phi(1, 0.5, result.final.t)
            errors.append(np.max(np.abs(result.final.phi - exact)))
        ratio = errors[0] / errors[1]
        assert 3.5 < ratio < 4.5

    def test_expanding_twist_hits_final_time(self):
        result = run_flow(homogeneous_config(c=-1.0, t_final=1.0))
        assert result.final.t == pytest.approx(1.0, abs=1e-12)
        assert result.final.phidot.max() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_determinism(self):
        a = run_flow(homogeneous_config(c=0.5, t_final=0.1))
        b = run_flow(homogeneous_config(c=0.5, t_final=0.1))
        assert np.array_equal(a.final.phi, b.final.phi)
        assert a.steps == b.steps


class TestBarrierScale:
    def test_contracting_twist_has_no_barrier(self):
        result = run_flow(homogeneous_config(c=0.5, t_final=0.1))
        assert math.isinf(result.sigma)

    def test_expanding_twist_barrier(self):
        # inf(scal + tr eta) = -n at t = 0, so sigma = n / n = 1.
        result = run_flow(homogeneous_config(c=-1.0, t_final=0.1))
        assert result.sigma == pytest.approx(1.0, abs=1e-10)

    def test_scalar_bound_equality_for_expanding_twist(self):
        result = run_flow(homogeneous_config(c=-1.0, t_final=1.0))
        report = check_scalar_bound(result)
        assert report.ok
        # The homogeneous solution saturates the comparison bound.
        assert_allclose(report.values, report.bounds, atol=1e-10)
        assert_allclose(report.bounds[-1], -0.5, atol=1e-12)

    def test_volume_bound_equality_for_expanding_twist(self):
        result = run_flow(homogeneous_config(c=-1.0, t_final=1.0))
        for row in result.rows:
            assert row.sup_phidot == pytest.approx(row.bound_volume_upper, abs=1e-10)


class TestFlatFlow:
    def test_flat_untwisted_is_stationary(self):
        result = run_flow(homogeneous_config(c=0.0, t_final=0.3))
        assert np.max(np.abs(result.final.phi)) == 0.0
        for row in result.rows:
            assert row.sup_phidot == 0.0
            assert row.positivity_margin == pytest.approx(1.0, abs=1e-12)
            assert row.bound_volume_upper == 0.0

    def test_flat_monotone_quantity(self):
        result = run_flow(homogeneous_config(c=0.0, t_final=0.3))
        for row in result.rows:
            if row.t == 0.0:
                assert row.sup_G == -math.inf
            else:
                assert row.sup_G == pytest.approx(2.0 * math.log(row.t), abs=1e-10)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["t_final", "dt_initial", "twist.c", "alpha", "beta", "mu"])
def test_non_finite_config_number_is_rejected(name, value):
    # inf would pass the positivity checks: t_final=inf steps until MAX_STEPS.
    numbers = {"twist": TwistSpec(c=value)} if name == "twist.c" else {name: value}
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be finite"):
        FlowConfig(grid=PeriodicGrid(1, 8), **numbers)


@pytest.mark.parametrize("every", [2.5, math.inf, math.nan, 0])
def test_diagnostics_every_must_be_a_positive_integer(every):
    # 2.5 would snapshot every 5 steps, and nan passes an "< 1" test.
    with pytest.raises(ValueError, match="^diagnostics_every must be an integer of at least 1"):
        FlowConfig(grid=PeriodicGrid(1, 8), diagnostics_every=every)


@pytest.mark.parametrize("slack, ok", [(0.999, True), (1.001, False)])
@pytest.mark.parametrize("check", [check_scalar_bound, check_volume_bound])
def test_bound_rule_flips_at_its_tolerance(check, slack, ok):
    """Both bound checks pass while the smallest margin is at least
    -tol (1 + max|bound|), and fail just below it."""
    tol, sigma, times = 1e-3, 1.0, [0.0, 0.5, 1.0]
    scalar = [-1.0 / (t + sigma) for t in times]  # -n / (t + sigma) at n=1
    volume = [math.log1p(t / sigma) for t in times]
    bounds = scalar if check is check_scalar_bound else volume
    planted = -slack * tol * (1.0 + max(abs(b) for b in bounds))
    rows = [
        DiagnosticsRow(
            t=t,
            sup_phidot=v - (planted if i == 1 else 0.0),
            inf_scalar_plus_tr_eta=s + (planted if i == 1 else 0.0),
            bound_volume_upper=v,
            positivity_margin=1.0,
            sup_G=0.0,
            schwarz_min_margin=math.nan,
        )
        for i, (t, s, v) in enumerate(zip(times, scalar, volume))
    ]
    result = FlowResult(FlowConfig(grid=PeriodicGrid(1, 8)), None, sigma, rows=rows)
    report = check(result, tol=tol)
    assert report.min_margin == pytest.approx(planted, rel=1e-9)
    assert report.ok is ok


class TestRealPotentials:
    """A complex background or twist potential is rejected, not cut to its
    real part: 0.01j cos(2 pi x) would give a flat h or a zero eta."""

    @staticmethod
    def imaginary_mode(grid):
        return 0.01j * np.cos(2 * np.pi * grid.coordinates()[0])

    def test_complex_background_is_rejected(self):
        grid = PeriodicGrid(1, 8)
        with pytest.raises(ValueError, match="background potential must be real"):
            FlowModel(FlowConfig(grid=grid, background=self.imaginary_mode(grid)))

    def test_complex_twist_is_rejected(self):
        grid = PeriodicGrid(1, 8)
        twist = TwistSpec(c=0.0, potential=self.imaginary_mode(grid))
        with pytest.raises(ValueError, match="twist potential must be real"):
            FlowModel(FlowConfig(grid=grid, twist=twist))

    def test_complex_trace_evolution_twist_is_rejected(self):
        grid = PeriodicGrid(1, 8)
        config = FlowConfig(grid=grid, mu=1.0, twist_potential=self.imaginary_mode(grid))
        with pytest.raises(ValueError, match="twist potential must be real"):
            FlowModel(config)

    @staticmethod
    def planted(grid, value):
        """A zero potential with ``value`` at one grid point."""
        values = np.zeros(grid.shape)
        values[2, 5] = value
        return values

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_background_and_twist_are_rejected(self, value):
        grid = PeriodicGrid(1, 8)
        with pytest.raises(ValueError, match="^background potential must be finite$"):
            FlowModel(FlowConfig(grid=grid, background=self.planted(grid, value)))
        twist = TwistSpec(c=0.0, potential=self.planted(grid, value))
        with pytest.raises(ValueError, match="^twist potential must be finite$"):
            FlowModel(FlowConfig(grid=grid, twist=twist))

    def test_non_finite_trace_evolution_twist_is_rejected(self):
        grid = PeriodicGrid(1, 8)
        config = FlowConfig(grid=grid, mu=1.0, twist_potential=self.planted(grid, np.nan))
        with pytest.raises(ValueError, match="^twist potential must be finite$"):
            FlowModel(config)


class TestDegeneracy:
    def test_step_collapse_near_horizon(self):
        config = homogeneous_config(c=2.0, t_final=1.0, dt=1e-2)
        with pytest.raises(FlowDegenerateError) as excinfo:
            run_flow(config)
        err = excinfo.value
        assert err.t == pytest.approx(0.5, abs=1e-2)
        assert err.margin is not None and err.margin < 1e-6

    def test_halvings_exhausted(self, monkeypatch):
        monkeypatch.setattr(kricci.flow, "MAX_HALVINGS", 3)
        config = homogeneous_config(c=0.0, t_final=0.1, dt=1e-2)

        def always_degenerate(self, t, phi):
            raise DegeneracyError("forced failure", margin=-1.0)

        monkeypatch.setattr(FlowModel, "rhs", always_degenerate)
        with pytest.raises(FlowDegenerateError) as excinfo:
            run_flow(config)
        assert excinfo.value.margin == -1.0


    def test_degenerate_error_carries_partial_result(self, snapshot_history):
        config = homogeneous_config(c=2.0, t_final=1.0, dt=1e-2)
        with pytest.raises(FlowDegenerateError) as excinfo:
            run_flow(config)
        err = excinfo.value
        result = err.result
        snaps = snapshot_history(result)
        assert result.steps > 0
        assert len(result.rows) == len(snaps) > 3
        # The last accepted state is the final snapshot and row, and the
        # result keeps the window of the last three snapshots only.
        assert [id(s) for s in result.snapshots] == [id(s) for s in snaps[-CENTERED_SNAPSHOTS:]]
        assert result.final is snaps[-1] and result.final.t == err.t
        assert result.rows[-1].t == err.t
        assert result.rows[-1].positivity_margin == pytest.approx(err.margin, rel=1e-12)
        times = [row.t for row in result.rows]
        assert times == sorted(times) and times[0] == 0.0
        assert all(row.positivity_margin > 0 for row in result.rows)
        # g(t) = (1 - 2t) h: the rows follow the closed form up to the end.
        for snap in snaps:
            assert np.max(np.abs(snap.phidot - homogeneous_phidot(1, 2.0, snap.t))) < 1e-9
        assert check_schwarz(result).times.size == len(snaps) - 2

    def test_step_budget_exhausted(self, monkeypatch):
        monkeypatch.setattr(kricci.flow, "MAX_STEPS", 3)
        config = homogeneous_config(c=0.0, t_final=0.01, dt=1e-3)
        with pytest.raises(FlowDegenerateError, match="step budget 3 exhausted") as excinfo:
            run_flow(config)
        err = excinfo.value
        assert err.result.steps == 3
        # The last snapshot is the last accepted state, three steps of dt in.
        assert err.t == pytest.approx(3e-3, abs=1e-15)
        assert err.result.final.t == err.t
        assert err.result.rows[-1].t == err.t

    def test_halvings_exhausted_keeps_initial_row(self, monkeypatch):
        monkeypatch.setattr(kricci.flow, "MAX_HALVINGS", 3)
        config = homogeneous_config(c=0.0, t_final=0.1, dt=1e-2)

        def always_degenerate(self, t, phi):
            raise DegeneracyError("forced failure", margin=-1.0)

        monkeypatch.setattr(FlowModel, "rhs", always_degenerate)
        with pytest.raises(FlowDegenerateError) as excinfo:
            run_flow(config)
        result = excinfo.value.result
        assert result.steps == 0
        assert [row.t for row in result.rows] == [0.0]
        assert result.rows[0].positivity_margin == pytest.approx(1.0)


class TestNoLapackOnFlowPath:
    """The flow's step and diagnostics use the closed-form n <= 2 kernels."""

    @pytest.fixture(autouse=True)
    def forbid_lapack(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("LAPACK call on the flow path")

        for name in ("eigvalsh", "slogdet", "inv"):
            monkeypatch.setattr(np.linalg, name, forbidden)

    @pytest.mark.parametrize(
        "n, N, disc, wavevector",
        [(1, 16, "fd2", (1, 0)), (2, 8, "spectral", (1, 0, 0, 1))],
    )
    def test_flow_and_checks_run(self, n, N, disc, wavevector):
        grid = PeriodicGrid(n, N, disc)
        config = FlowConfig(
            grid=grid,
            background=perturbed_potential(grid, 0.01, wavevector),
            twist=TwistSpec(c=0.0, potential=perturbed_potential(grid, 0.005, wavevector)),
            t_final=0.004,
            dt_initial=1e-3,
            diagnostics_every=1,
        )
        result = run_flow(config)
        assert result.steps >= 4
        assert check_scalar_bound(result).ok
        check_potential_identities(result)
        check_schwarz(result)


class TestHorizonEstimate:
    def test_contracting_twist_extrapolates_exactly(self):
        result = run_flow(homogeneous_config(c=0.5, t_final=1.0, dt=1e-3, every=20))
        estimate = horizon_estimate(result)
        assert estimate == pytest.approx(2.0, abs=1e-6)

    def test_expanding_twist_never_degenerates(self):
        result = run_flow(homogeneous_config(c=-1.0, t_final=1.0))
        assert horizon_estimate(result) == math.inf

    def test_short_run_is_inconclusive(self):
        result = run_flow(homogeneous_config(c=0.5, t_final=0.05, dt=1e-2, every=100))
        assert math.isnan(horizon_estimate(result))


class TestPotentialIdentities:
    def curved_config(self, dt, N=16, every=5):
        grid = PeriodicGrid(1, N)
        background = perturbed_potential(grid, 0.02, (1, 0))
        twist = TwistSpec(c=0.0, potential=perturbed_potential(grid, 0.01, (0, 1)))
        return FlowConfig(
            grid=grid,
            background=background,
            twist=twist,
            t_final=0.05,
            dt_initial=dt,
            diagnostics_every=every,
        )

    def test_residuals_shrink_at_second_order(self):
        reports = [
            check_potential_identities(run_flow(self.curved_config(dt)))
            for dt in (1e-3, 5e-4)
        ]
        assert reports[1].residual_phi < 5e-4
        assert reports[1].residual_phidot < 5e-2
        ratio_phi = reports[0].residual_phi / reports[1].residual_phi
        ratio_phidot = reports[0].residual_phidot / reports[1].residual_phidot
        assert 2.8 < ratio_phi < 5.2
        assert 2.8 < ratio_phidot < 5.2


class TestSchwarz:
    def test_homogeneous_equality(self):
        # For g = (1 + t) h flat both sides equal c / (1 - c t) = -1 / (1 + t).
        result = run_flow(homogeneous_config(c=-1.0, t_final=0.5, dt=1e-3, every=2))
        report = check_schwarz(result)
        # Pure 3-point truncation: spacing^2 |d^3 log tr / dt^3| / 6 ~ 1.3e-6.
        assert report.worst_negative < 5e-6
        assert np.max(np.abs(report.margins)) < 1e-5

    def test_curved_background_negative_part_is_discretization(self):
        # At n=1 the Chern-Lu Cauchy-Schwarz slack vanishes identically, so the
        # continuum margin is zero and its negative part must vanish at second
        # order under grid refinement.  At n >= 2 the continuum margin is -s
        # with slack s >= 0, and this would not hold.
        worst = []
        for N in (16, 32):
            grid = PeriodicGrid(1, N)
            config = FlowConfig(
                grid=grid,
                background=perturbed_potential(grid, 0.02, (1, 0)),
                twist=TwistSpec(c=0.25),
                t_final=0.2,
                dt_initial=1e-3,
                diagnostics_every=5,
            )
            worst.append(check_schwarz(run_flow(config)).worst_negative)
        assert worst[0] < 5e-3
        assert worst[1] < worst[0] / 3.0

    @staticmethod
    def full_tensor(S, n):
        """The rank-4 tensor R[..., i, j, k, l] a Sym² field stores."""
        R = np.empty(S[(0, 0), (0, 0)].shape + (n,) * 4, dtype=complex)
        for i, j, k, l in itertools.product(range(n), repeat=4):
            P, Q = tuple(sorted((i, k))), tuple(sorted((j, l)))
            R[..., i, j, k, l] = S[P, Q] if P <= Q else np.conj(S[Q, P])
        return R

    @pytest.mark.parametrize("n, disc", [(1, "fd2"), (2, "spectral"), (2, "fd2")])
    def test_folded_right_hand_side_matches_einsum(self, n, disc):
        # The right-hand side tr_g tr_g (R_h + B(h, eta)) / Lam - tr_g eta
        # against (tr_g tr_g R_h + tr(g^-1 h g^-1 eta)) / Lam, contracted by
        # einsum over full arrays, at a flow metric g != h.  The mixed
        # wavevectors make g_12, h_12 and eta_12 complex at n=2.
        grid = PeriodicGrid(n, 8, disc)
        mixed = (1, 1) if n == 1 else (1, 1, 1, 0)
        config = FlowConfig(
            grid=grid,
            background=scalar_from_modes(grid, [(mixed, 0.02), ((1,) + (0,) * (2 * n - 1), 0.01)]),
            twist=TwistSpec(c=0.3, potential=perturbed_potential(grid, 0.01, mixed)),
        )
        model = FlowModel(config)
        phi = perturbed_potential(grid, 0.005, (0,) * (2 * n - 1) + (1,))
        ginv = model.reconstruct(0.05, phi).inverse()
        if n == 2:
            for field in (ginv, model.h, model.eta):
                assert np.abs(field.b.real).max() > 1e-3 and np.abs(field.b.imag).max() > 1e-3
        G, H, E = ginv.values, model.h.values, model.eta.values
        R = self.full_tensor(curvature_field(grid, model.h), n)
        lam = np.einsum("...ji,...ij->...", G, H).real
        ref = (np.einsum("...ji,...lk,...ijkl->...", G, G, R)
               + np.einsum("...ij,...jk,...kl,...li->...", G, H, G, E)).real / lam
        rhs = g_double_trace(ginv, model.schwarz_form) / lam - g_trace(ginv, model.eta)
        assert rhs.dtype == float
        assert np.max(np.abs(rhs - ref)) <= 1e-12 * np.max(np.abs(ref))
        # _schwarz_margins at dlog = 0 is min(-Lap_g log Lam - rhs).
        log_lam = np.log(lam)
        expected = float((-laplacian(grid, ginv, log_lam) - ref).min())
        margin = kricci.flow._schwarz_margins(model, ginv, np.zeros(grid.shape), log_lam)
        assert abs(margin - expected) <= 1e-12 * (np.max(np.abs(ref)) + abs(expected))


class TestTraceEvolution:
    def flat_twisted_config(self, n=1, N=16, amplitude=0.01, t_final=0.2):
        grid = PeriodicGrid(n, N)
        wavevector = (1, 0) if n == 1 else (1, 0, 0, 0)
        twist = TwistSpec(c=0.0, potential=perturbed_potential(grid, amplitude, wavevector))
        return FlowConfig(
            grid=grid,
            twist=twist,
            t_final=t_final,
            dt_initial=1e-3,
            diagnostics_every=10,
            mu=1.0,
            twist_potential=np.zeros(grid.shape),
        )

    def test_needs_mu(self):
        result = run_flow(homogeneous_config(c=0.0, t_final=0.1))
        assert result.trace_sup_values == [] and result.trace_differential_margin == math.inf
        with pytest.raises(ValueError, match="sets no mu"):
            check_trace_evolution(result)

    def test_rejects_cohomology_twist(self):
        result = run_flow(homogeneous_config(c=0.5, t_final=0.1, mu=1.0))
        with pytest.raises(HypothesisError, match="Hessian"):
            check_trace_evolution(result)

    def test_rejects_unbounded_rho(self):
        result = run_flow(homogeneous_config(c=0.0, t_final=0.1, mu=-1.0))
        with pytest.raises(HypothesisError, match="rho"):
            check_trace_evolution(result)

    def test_rejects_a_nan_gap(self, monkeypatch):
        # No public input carries a NaN this far, so one is planted in the
        # twist's complex Hessian: the gap's positivity proof must fail on it.
        result = run_flow(homogeneous_config(c=0.0, t_final=0.1, mu=1.0))
        hessian = kricci.flow.dbar_hessian

        def planted(grid, f):
            out = hessian(grid, f)
            out.a[3, 4] = np.nan
            return out

        monkeypatch.setattr(kricci.flow, "dbar_hessian", planted)
        with pytest.raises(HypothesisError, match=r"^rho < mu omega_h \+ d dbar v: .* nan$"):
            check_trace_evolution(result)

    def test_rejects_positive_mixed_level(self):
        grid = PeriodicGrid(1, 16)
        config = FlowConfig(
            grid=grid,
            background=perturbed_potential(grid, 0.02, (1, 0)),
            twist=TwistSpec(c=0.0),
            t_final=0.05,
            dt_initial=1e-3,
            diagnostics_every=5,
            mu=5.0,
        )
        with pytest.raises(HypothesisError, match="level"):
            check_trace_evolution(run_flow(config))

    def test_flat_stationary_two_dimensional(self):
        grid = PeriodicGrid(2, 8)
        config = FlowConfig(grid=grid, t_final=0.1, dt_initial=5e-3, diagnostics_every=4, mu=0.5)
        report = check_trace_evolution(run_flow(config))
        assert report.ok
        # Q grows linearly through B w, so the supremum strictly decreases.
        assert report.max_increase < 0.0
        assert report.differential_min_margin == pytest.approx(0.25, abs=1e-10)

    def test_flat_twisted_supremum_decays(self):
        report = check_trace_evolution(run_flow(self.flat_twisted_config()), tol=1e-6)
        assert report.ok


def _laplacian_of_metric(grid, g, f):
    """The Laplacian as computed before it took g^-1: inverting g itself."""
    return g_trace(g.inverse(), dbar_hessian(grid, f))


def _reference_schwarz_margins(result, snaps):
    """Schwarz margins snapshot by snapshot over ``snaps``, every snapshot of
    the run, reconstructing g at every use, from a Sym² field R_h + B(h, eta)
    of their own."""
    model = result.model
    grid = model.grid

    lam_logs = [model.log_trace_h(model.reconstruct(s.t, s.phi).inverse()) for s in snaps]
    S = curvature_field(grid, model.h)
    for key, entry in model_form(model.h, model.eta).items():
        S[key] += entry
    margins = [math.nan] * len(snaps)
    for i in range(1, len(snaps) - 1):
        a, b = snaps[i].t - snaps[i - 1].t, snaps[i + 1].t - snaps[i].t
        dlog = _nonuniform_dt(lam_logs[i - 1], lam_logs[i], lam_logs[i + 1], a, b)
        g = model.reconstruct(snaps[i].t, snaps[i].phi)
        ginv = g.inverse()
        lhs = dlog - _laplacian_of_metric(grid, g, lam_logs[i])
        rhs = g_double_trace(ginv, S) / g_trace(ginv, model.h) - g_trace(ginv, model.eta)
        margins[i] = float((lhs - rhs).min())
    return margins


def _reference_rows(result, snaps):
    """Every row's fields, snapshot by snapshot over ``snaps``, from the
    reconstructed and re-checked snapshot metrics; the Schwarz column is
    :func:`_reference_schwarz_margins`."""
    model = result.model
    config = result.config
    n = model.grid.n
    rows = []
    for snap, schwarz in zip(snaps, _reference_schwarz_margins(result, snaps)):
        g = model.reconstruct(snap.t, snap.phi)
        drift = g_trace(g.inverse(), model._drift)
        scalar = drift - _laplacian_of_metric(model.grid, g, snap.phidot)
        if snap.t > 0:
            log_lam = model.log_trace_h(g.inverse())
            r = config.alpha / config.beta
            F = log_lam + (1.0 + r) * model.u - r * (snap.phidot + model.u)
            sup_G = float((F + (1.0 + r * n) * math.log(snap.t)).max())
        else:
            sup_G = -math.inf
        volume = 0.0 if math.isinf(result.sigma) else n * math.log1p(snap.t / result.sigma)
        rows.append(
            (snap.t, float(snap.phidot.max()), float(scalar.min()), volume,
             g.require_positive(), sup_G, schwarz)
        )
    return rows


def _assert_matches_reference(result, snaps):
    """Rows, Schwarz margins and identity residuals bitwise equal the
    reference over ``snaps``, every snapshot of the run."""
    np.testing.assert_array_equal(
        [dataclasses.astuple(row) for row in result.rows], _reference_rows(result, snaps)
    )
    report = check_potential_identities(result)
    times, res_phi, res_phidot = _reference_identities(result, snaps)
    np.testing.assert_array_equal(report.times, times)
    assert (report.residual_phi, report.residual_phidot) == (res_phi, res_phidot)


def _reference_identities(result, snaps):
    """(times, residual_phi, residual_phidot) snapshot by snapshot over ``snaps``."""
    model = result.model
    res_phi = res_phidot = 0.0
    for i in range(1, len(snaps) - 1):
        a, b = snaps[i].t - snaps[i - 1].t, snaps[i + 1].t - snaps[i].t
        dphi = _nonuniform_dt(snaps[i - 1].phi, snaps[i].phi, snaps[i + 1].phi, a, b)
        dphidot = _nonuniform_dt(snaps[i - 1].phidot, snaps[i].phidot, snaps[i + 1].phidot, a, b)
        g = model.reconstruct(snaps[i].t, snaps[i].phi)
        drift = g_trace(g.inverse(), model._drift)
        rhs = -drift + _laplacian_of_metric(model.grid, g, snaps[i].phidot)
        res_phi = max(res_phi, float(np.max(np.abs(dphi - snaps[i].phidot))))
        res_phidot = max(res_phidot, float(np.max(np.abs(dphidot - rhs))))
    return np.array([s.t for s in snaps[1:-1]]), res_phi, res_phidot


def _reference_trace_evolution(result, snaps, mu, twist_potential):
    """(times, sup values, max increase, differential margin) in two passes
    over ``snaps``, every snapshot of the run."""
    model = result.model
    grid = model.grid
    n = grid.n
    alpha, beta = result.config.alpha, result.config.beta
    v = (2.0 * beta / alpha) * model.u
    B = alpha * mu * (n - 1) / (2.0 * n * beta)
    fields = []
    for snap in snaps:
        log_lam = model.log_trace_h(model.reconstruct(snap.t, snap.phi).inverse())
        w = snap.t * snap.phidot - snap.phi - n * snap.t
        Q = (
            -B * w
            - (alpha / (2.0 * beta)) * v
            + (alpha / beta) * (snap.phidot + twist_potential - model.u)
        )
        fields.append(log_lam - Q)
    times = np.array([snap.t for snap in snaps])
    sup_vals = np.array([float(f.max()) for f in fields])
    diff_margin = math.inf
    for i in range(1, len(fields) - 1):
        a, b = times[i] - times[i - 1], times[i + 1] - times[i]
        dfield = _nonuniform_dt(fields[i - 1], fields[i], fields[i + 1], a, b)
        g = model.reconstruct(times[i], snaps[i].phi)
        heat = dfield - _laplacian_of_metric(grid, g, fields[i])
        diff_margin = min(diff_margin, float((-heat).min()))
    return times, sup_vals, float(np.diff(sup_vals).max()), diff_margin


class TestOnePassAnalysis:
    """Rows, Schwarz margins and identities come from the analysis the run
    makes of each snapshot as it takes it, from the metric its step built."""

    # Touches both complex coordinates, so g_12 has real and imaginary parts.
    MIXED = (1, 1, 1, 0)

    def mixed_config(self, background_amplitude):
        grid = PeriodicGrid(2, 8, "spectral")
        return FlowConfig(
            grid=grid,
            background=perturbed_potential(grid, background_amplitude, self.MIXED),
            twist=TwistSpec(c=0.0, potential=perturbed_potential(grid, 0.01, self.MIXED)),
            t_final=0.006,
            dt_initial=1e-3,
            diagnostics_every=1,
        )

    def config(self, n):
        """The n=2 mixed config, or its n=1 fd2 counterpart."""
        if n == 2:
            return self.mixed_config(0.02)
        grid = PeriodicGrid(1, 16, "fd2")
        return FlowConfig(
            grid=grid,
            background=perturbed_potential(grid, 0.02, (1, 1)),
            twist=TwistSpec(c=0.0, potential=perturbed_potential(grid, 0.01, (1, 1))),
            t_final=0.006,
            dt_initial=1e-3,
            diagnostics_every=1,
        )

    @staticmethod
    def count_calls(monkeypatch):
        """Record FlowModel.reconstruct's metrics and the _rk2_step attempts."""
        reconstruct, step = FlowModel.reconstruct, kricci.flow._rk2_step
        reconstructed, attempts = [], []

        def counting_reconstruct(self, t, phi):
            reconstructed.append(reconstruct(self, t, phi))
            return reconstructed[-1]

        def counting_step(*args):
            attempts.append(args[1])
            return step(*args)

        monkeypatch.setattr(FlowModel, "reconstruct", counting_reconstruct)
        monkeypatch.setattr(kricci.flow, "_rk2_step", counting_step)
        return reconstructed, attempts

    @staticmethod
    def count_metric_calls(monkeypatch):
        """Record the metrics MetricField inverts, proves positive, and takes
        a lambda_min pass of."""
        inverse, require_positive = MetricField.inverse, MetricField.require_positive
        smallest = MetricField.smallest_eigenvalues
        inverted, checked, passes = [], [], []

        def counting_inverse(self):
            inverted.append(self)
            return inverse(self)

        def counting_require_positive(self, what="metric"):
            checked.append(self)
            return require_positive(self, what)

        def counting_smallest(self):
            passes.append(self)
            return smallest(self)

        monkeypatch.setattr(MetricField, "inverse", counting_inverse)
        monkeypatch.setattr(MetricField, "require_positive", counting_require_positive)
        monkeypatch.setattr(MetricField, "smallest_eigenvalues", counting_smallest)
        return inverted, checked, passes

    def test_each_snapshot_metric_is_reconstructed_and_inverted_once(
        self, monkeypatch, snapshot_history
    ):
        # Each step builds and checks two metrics, the midpoint and the end,
        # with one lambda_min pass each: the step asks for the proof, and the
        # metric's log det asks again and reads the recorded margin.  A
        # snapshot's analysis inverts its step's end metric and builds none.
        reconstructed, _ = self.count_calls(monkeypatch)
        inverted, checked, passes = self.count_metric_calls(monkeypatch)
        result = run_flow(self.mixed_config(0.02))
        assert len(snapshot_history(result)) == result.steps + 1 >= 5
        assert len(reconstructed) == 2 * result.steps
        h = result.model.h
        twice = [id(g) for g in reconstructed for _ in range(2)]
        assert [id(g) for g in checked if g is not h] == twice
        assert [id(g) for g in passes if g is not h] == [id(g) for g in reconstructed]
        assert [id(g) for g in inverted if g is not h] == [id(g) for g in reconstructed[1::2]]
        # The model proves h positive, with the one lambda_min pass on h, and
        # inverts it for sigma and the start row.  log det h and
        # curvature_field ask again and read the recorded margin, and
        # curvature_field inverts h once more for R_h.
        assert sum(g is h for g in checked) == 3
        assert sum(g is h for g in inverted) == 2
        assert sum(g is h for g in passes) == 1

    def test_trace_evolution_reads_no_snapshot_metric(self, monkeypatch, snapshot_history):
        # With mu set the run analyses the trace-evolution field from the
        # g^-1 its steps built, and the check builds and inverts no metric.
        config = dataclasses.replace(
            self.mixed_config(0.0), mu=1.0, twist_potential=np.zeros((8,) * 4)
        )
        reconstructed, attempts = self.count_calls(monkeypatch)
        inverted, _, _ = self.count_metric_calls(monkeypatch)
        result = run_flow(config)
        assert check_trace_evolution(result, tol=1e-6).ok
        assert len(snapshot_history(result)) == result.steps + 1 >= 5
        assert len(reconstructed) == 2 * len(attempts)
        h = result.model.h
        assert [id(g) for g in inverted if g is not h] == [id(g) for g in reconstructed[1::2]]

    @pytest.mark.parametrize("n", [1, 2])
    def test_reconstructs_twice_per_step_attempt(self, n, monkeypatch, snapshot_history):
        reconstructed, attempts = self.count_calls(monkeypatch)
        result = run_flow(self.config(n))
        assert len(snapshot_history(result)) == result.steps + 1 >= 5
        assert len(attempts) >= result.steps
        assert len(reconstructed) == 2 * len(attempts)

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_snapshot_by_snapshot_reference(self, n, snapshot_history):
        result = run_flow(self.config(n))
        if n == 2:
            g12 = result.model.reconstruct(result.final.t, result.final.phi).b
            assert np.abs(g12.real).max() > 1e-3 and np.abs(g12.imag).max() > 1e-3
        _assert_matches_reference(result, snapshot_history(result))

    @pytest.mark.parametrize("n", [1, 2])
    def test_degenerating_run_matches_reference(self, n, monkeypatch, snapshot_history):
        # The budget ends the run one step after the snapshot at step 4, so
        # the last accepted state is reconstructed, once, for the last row.
        monkeypatch.setattr(kricci.flow, "MAX_STEPS", 5)
        config = dataclasses.replace(self.config(n), diagnostics_every=2)
        reconstructed, attempts = self.count_calls(monkeypatch)
        with pytest.raises(FlowDegenerateError, match="step budget 5") as excinfo:
            run_flow(config)
        result = excinfo.value.result
        assert len(reconstructed) == 2 * len(attempts) + 1
        snaps = snapshot_history(result)
        assert [snap.t for snap in snaps] == [row.t for row in result.rows]
        assert len(result.rows) == 4 and result.rows[-1].t == excinfo.value.t
        assert not math.isnan(result.rows[-2].schwarz_min_margin)
        _assert_matches_reference(result, snaps)

    @pytest.mark.parametrize("case", ["n1-fd2", "n2-spectral", "degenerating"])
    def test_trace_evolution_matches_reference(self, case, monkeypatch, snapshot_history):
        # The n=1 background is curved and phi_twist is u there, so the run
        # records the field though the check rejects the hypotheses.  The n=2
        # one is flat, its twist makes g_12 complex and phi_twist is zero, so
        # the hypotheses hold and the report carries the record.  The
        # degenerating run reconstructs its last snapshot once, for its row.
        if case == "n1-fd2":
            config = dataclasses.replace(self.config(1), mu=1.0)
        else:
            config = dataclasses.replace(
                self.mixed_config(0.0), mu=1.0, twist_potential=np.zeros((8,) * 4)
            )
        if case == "degenerating":
            monkeypatch.setattr(kricci.flow, "MAX_STEPS", 5)
            config = dataclasses.replace(config, diagnostics_every=2)
            reconstructed, attempts = self.count_calls(monkeypatch)
            with pytest.raises(FlowDegenerateError, match="step budget 5") as excinfo:
                run_flow(config)
            result = excinfo.value.result
            assert len(snapshot_history(result)) == 4 and result.final.t == excinfo.value.t
            assert len(reconstructed) == 2 * len(attempts) + 1
        else:
            result = run_flow(config)
        times, sup_vals, max_increase, diff_margin = _reference_trace_evolution(
            result, snapshot_history(result), 1.0, result.model.phi_twist
        )
        np.testing.assert_array_equal([row.t for row in result.rows], times)
        np.testing.assert_array_equal(result.trace_sup_values, sup_vals)
        assert result.trace_differential_margin == diff_margin
        if case == "n1-fd2":
            with pytest.raises(HypothesisError):
                check_trace_evolution(result)
        else:
            report = check_trace_evolution(result, tol=1e-6)
            assert report.ok and report.mu == 1.0
            np.testing.assert_array_equal(report.times, times)
            np.testing.assert_array_equal(report.sup_values, sup_vals)
            assert report.max_increase == max_increase
            assert report.differential_min_margin == diff_margin

    @pytest.mark.parametrize("case", ["n2-spectral-mu", "degenerating"])
    def test_only_the_final_snapshot_keeps_its_inverse(self, case, monkeypatch):
        # Each analysis takes g^-1 and its traces off the snapshot before the
        # newest, so after the run only the final snapshot holds them; the
        # identities are taken at the interior rows, as the Schwarz margins.
        config = dataclasses.replace(
            self.mixed_config(0.0), mu=1.0, twist_potential=np.zeros((8,) * 4)
        )
        if case == "degenerating":
            monkeypatch.setattr(kricci.flow, "MAX_STEPS", 5)
            with pytest.raises(FlowDegenerateError, match="step budget 5") as excinfo:
                run_flow(dataclasses.replace(config, diagnostics_every=2))
            result = excinfo.value.result
        else:
            result = run_flow(config)
        assert len(result.rows) > CENTERED_SNAPSHOTS
        assert [snap.pending is None for snap in result.snapshots] == [True, True, False]
        assert isinstance(result.final.pending[0], MetricField)
        times = check_potential_identities(result).times
        np.testing.assert_array_equal(times, [row.t for row in result.rows[1:-1]])
        np.testing.assert_array_equal(times, check_schwarz(result).times)

    def test_twisted_scalar_needs_no_ricci_pass(self, monkeypatch, snapshot_history):
        # Ric(g) = Ric(h) - d dbar phidot: the rows match the route through
        # Ric(g) = -d dbar log det g at roundoff, and no Ricci form is taken,
        # of g or of h (Ric(h) is -d dbar of the model's own log det h).
        config = self.mixed_config(0.02)
        reference = run_flow(config)
        model = reference.model
        expected = []
        for snap in snapshot_history(reference):
            g = model.reconstruct(snap.t, snap.phi)
            ginv = g.inverse()
            scal = g_trace(ginv, ricci_field(model.grid, g))
            treta = g_trace(ginv, model.eta)
            expected.append(float((scal + treta).min()))

        def forbidden(*args, **kwargs):
            raise AssertionError("Ricci form computed in the flow")

        monkeypatch.setattr(kricci.grid, "ricci_field", forbidden)
        monkeypatch.setattr(kricci.flow, "ricci_field", forbidden, raising=False)
        rows = run_flow(config).rows
        assert_allclose([row.inf_scalar_plus_tr_eta for row in rows], expected, rtol=1e-12, atol=0)

    def test_result_keeps_the_window_and_a_row_per_snapshot(self, snapshot_history):
        result = run_flow(self.mixed_config(0.02))
        snaps = snapshot_history(result)
        assert len(result.rows) == len(snaps) == result.steps + 1 >= 5
        assert [id(s) for s in result.snapshots] == [id(s) for s in snaps[-CENTERED_SNAPSHOTS:]]
        assert result.final is snaps[-1]

    def test_peak_memory_does_not_grow_with_t_final(self):
        # n=2 N=16 spectral on a mixed-wavevector background: the run keeps
        # the window, not its history, so ten times the horizon (5 -> 42
        # steps, 4 -> 22 snapshots) leaves the tracemalloc peak where it was.
        # The warm-up run builds what the first run of a process allocates once.
        # The model builds R_h + B(h, eta) before the run's first step, while
        # no snapshot is held, so the short run peaks near 29.6 MiB; built
        # during the analysis of the first snapshots it would reach 34.8 MiB.
        grid = PeriodicGrid(2, 16, "spectral")
        config = FlowConfig(
            grid=grid,
            background=scalar_from_modes(grid, [(self.MIXED, 0.01), ((1, 0, 0, 0), 0.005)]),
            twist=TwistSpec(c=0.0, potential=perturbed_potential(grid, 0.002, self.MIXED)),
            diagnostics_every=2,
        )

        def peak(t_final):
            tracemalloc.start()
            try:
                run_flow(dataclasses.replace(config, t_final=t_final))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        run_flow(dataclasses.replace(config, t_final=0.0025))
        short, long = peak(0.0025), peak(0.025)
        assert long <= 1.05 * short, (short / 2**20, long / 2**20)
        assert short <= 32 * 2**20, short / 2**20

    def test_identities_need_three_snapshots(self):
        result = run_flow(homogeneous_config(c=0.0, t_final=0.01, dt=1e-2))
        assert len(result.snapshots) == 2
        assert result.residual_phi == result.residual_phidot == 0.0
        # The start snapshot gave its g^-1 up when the end was analysed.
        assert [snap.pending is None for snap in result.snapshots] == [True, False]
        for check in (check_potential_identities, check_schwarz):
            with pytest.raises(TooFewSnapshotsError, match="^needs 3 snapshots, the run has 2$"):
                check(result)


@pytest.mark.usefixtures("forbid_einsum_path")
class TestNoEinsumPathPlanning:
    """The n=2 flow, its diagnostics and every check run without planning an
    einsum contraction path: their kernels are closed-form products."""

    def test_flow_and_every_check(self):
        config = dataclasses.replace(
            TestOnePassAnalysis().mixed_config(0.0), mu=1.0, twist_potential=np.zeros((8,) * 4)
        )
        result = run_flow(config)
        assert check_scalar_bound(result).ok
        check_potential_identities(result)
        check_schwarz(result)
        assert check_trace_evolution(result, tol=1e-6).ok

    def test_curved_background_reaches_mixed_level_estimate(self):
        config = dataclasses.replace(TestOnePassAnalysis().mixed_config(0.02), mu=20.0)
        with pytest.raises(HypothesisError, match="level"):
            check_trace_evolution(run_flow(config))


class TestHermitianHalfStepPath:
    """The step path assembles metrics from entries that are Hermitian by
    construction: it never runs the validating constructor, and its metrics
    equal the validated full-field route bit for bit."""

    # At n=2 the mixed wavevector makes g_12 complex.
    WAVEVECTORS = {1: (1, 1), 2: (1, 1, 1, 0)}

    def config(self, n, N, disc, t_final=0.004):
        grid = PeriodicGrid(n, N, disc)
        wavevector = self.WAVEVECTORS[n]
        return FlowConfig(
            grid=grid,
            background=perturbed_potential(grid, 0.01, wavevector),
            twist=TwistSpec(c=0.3, potential=perturbed_potential(grid, 0.005, wavevector)),
            t_final=t_final,
            dt_initial=1e-3,
            diagnostics_every=1,
        )

    @pytest.mark.parametrize("n, N, disc", [(1, 16, "fd2"), (2, 8, "spectral")])
    def test_flow_runs_without_validating_a_metric(self, n, N, disc, monkeypatch):
        def forbidden(self, values):
            raise AssertionError("metric field validated on the flow path")

        monkeypatch.setattr(MetricField, "__post_init__", forbidden)
        result = run_flow(self.config(n, N, disc))
        assert result.steps >= 4
        assert check_scalar_bound(result).ok
        check_potential_identities(result)
        check_schwarz(result)
        final = result.final
        if n == 2:
            g12 = result.model.reconstruct(final.t, final.phi).b
            assert np.abs(g12.real).max() > 1e-3 and np.abs(g12.imag).max() > 1e-3

    @pytest.mark.parametrize("disc", ["fd2", "spectral"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_reconstruct_matches_validated_route(self, n, disc):
        model = FlowModel(self.config(n, 8, disc))
        phi = scalar_from_modes(model.grid, [(self.WAVEVECTORS[n], 0.003 + 0.002j)])
        for t in (0.0, 0.0123):
            full = model.h.values - t * model._drift.values + dbar_hessian(model.grid, phi).values
            expected = MetricField(model.grid, full)
            g = model.reconstruct(t, phi)
            for entry, reference in zip(g.entries, expected.entries):
                assert (entry is None) == (reference is None)
                if entry is not None:
                    assert entry.dtype == reference.dtype
                    assert np.array_equal(entry, reference)

    @pytest.mark.parametrize("every", [1, 1000])
    def test_background_curvature_precedes_the_analysis(self, every, monkeypatch):
        # The model builds R_h + B(h, eta) once, before the start snapshot is
        # analysed, whether or not the run reaches a centered window.
        calls = []

        def counting(grid, g):
            calls.append("curvature_field")
            return curvature_field(grid, g)

        diagnostics = kricci.flow._diagnostics

        def recording(*args):
            calls.append("_diagnostics")
            return diagnostics(*args)

        monkeypatch.setattr(kricci.flow, "curvature_field", counting)
        monkeypatch.setattr(kricci.flow, "_diagnostics", recording)
        grid = PeriodicGrid(2, 8)
        config = FlowConfig(grid=grid, t_final=0.02, dt_initial=5e-3, diagnostics_every=every)
        snapshots = len(run_flow(config).rows)
        assert snapshots >= CENTERED_SNAPSHOTS if every == 1 else snapshots == 2
        assert calls == ["curvature_field"] + ["_diagnostics"] * snapshots

    def test_background_curvature_computed_once_per_run(self, monkeypatch):
        calls = []

        def counting(grid, g):
            calls.append(g)
            return curvature_field(grid, g)

        monkeypatch.setattr(kricci.flow, "curvature_field", counting)
        grid = PeriodicGrid(2, 8)
        config = FlowConfig(grid=grid, t_final=0.02, dt_initial=5e-3, diagnostics_every=1, mu=0.5)
        result = run_flow(config)
        assert check_trace_evolution(result).ok
        assert len(calls) == 1 and calls[0] is result.model.h
