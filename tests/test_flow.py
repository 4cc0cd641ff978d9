"""Flow integrator and trajectory checks.

The spatially homogeneous twist eta = c omega_h on a flat background has the
closed-form solution phi(t) = n [(t - 1/c) log(1 - c t) - t], which exercises
the integrator, the barrier scale, the scalar and volume bounds, and the
horizon extrapolation with exact reference values.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import kricci.flow
from kricci.errors import DegeneracyError, FlowDegenerateError, HypothesisError
from kricci.flow import (
    TRACE_REAL_TOL,
    FlowConfig,
    FlowModel,
    TwistSpec,
    _diagnostics,
    _nonuniform_dt,
    check_potential_identities,
    check_scalar_bound,
    check_schwarz,
    check_trace_evolution,
    homogeneous_phi,
    homogeneous_phidot,
    horizon_estimate,
    monotone_quantities,
    run_flow,
)
from kricci.grid import (
    MetricField,
    PeriodicGrid,
    curvature_field,
    dbar_hessian,
    g_pair_trace,
    g_trace,
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

    def test_phidot_is_exact(self):
        # The reconstruction g = (1 - c t) h does not involve phi, so the
        # recorded phidot is exact regardless of integration error.
        result = run_flow(homogeneous_config(c=0.5, t_final=0.5))
        for snap in result.snapshots:
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

    def test_monotone_rejects_nonpositive_time(self):
        config = homogeneous_config(c=0.0, t_final=0.1)
        model = FlowModel(config)
        zeros = np.zeros(config.grid.shape)
        with pytest.raises(ValueError):
            monotone_quantities(model, 0.0, zeros, zeros)


class TestDegeneracy:
    def test_step_collapse_near_horizon(self):
        config = homogeneous_config(c=2.0, t_final=1.0, dt=1e-2)
        with pytest.raises(FlowDegenerateError) as excinfo:
            run_flow(config)
        err = excinfo.value
        assert err.t == pytest.approx(0.5, abs=1e-2)
        assert err.margin is not None and err.margin < 1e-6

    def test_halvings_exhausted(self, monkeypatch):
        config = homogeneous_config(c=0.0, t_final=0.1, dt=1e-2, max_halvings=3)

        def always_degenerate(self, t, phi):
            raise DegeneracyError("forced failure", margin=-1.0)

        monkeypatch.setattr(FlowModel, "rhs", always_degenerate)
        with pytest.raises(FlowDegenerateError) as excinfo:
            run_flow(config)
        assert excinfo.value.margin == -1.0


    def test_degenerate_error_carries_partial_result(self):
        config = homogeneous_config(c=2.0, t_final=1.0, dt=1e-2)
        with pytest.raises(FlowDegenerateError) as excinfo:
            run_flow(config)
        err = excinfo.value
        result = err.result
        assert result.steps > 0
        assert len(result.rows) == len(result.snapshots) > 3
        # The last accepted state is the final snapshot and row.
        assert result.final.t == err.t
        assert result.rows[-1].t == err.t
        assert result.rows[-1].positivity_margin == pytest.approx(err.margin, rel=1e-12)
        times = [row.t for row in result.rows]
        assert times == sorted(times) and times[0] == 0.0
        assert all(row.positivity_margin > 0 for row in result.rows)
        # g(t) = (1 - 2t) h: the rows follow the closed form up to the end.
        for snap in result.snapshots:
            assert np.max(np.abs(snap.phidot - homogeneous_phidot(1, 2.0, snap.t))) < 1e-9
        assert check_schwarz(result).times.size == len(result.snapshots) - 2

    def test_halvings_exhausted_keeps_initial_row(self, monkeypatch):
        config = homogeneous_config(c=0.0, t_final=0.1, dt=1e-2, max_halvings=3)

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
        # The continuum inequality is exact; the negative part of the margin
        # must therefore vanish at second order under grid refinement.
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
        )

    def test_rejects_cohomology_twist(self):
        result = run_flow(homogeneous_config(c=0.5, t_final=0.1))
        with pytest.raises(HypothesisError, match="Hessian"):
            check_trace_evolution(result, mu=1.0)

    def test_rejects_unbounded_rho(self):
        result = run_flow(homogeneous_config(c=0.0, t_final=0.1))
        with pytest.raises(HypothesisError, match="rho"):
            check_trace_evolution(result, mu=-1.0)

    def test_rejects_positive_mixed_level(self):
        grid = PeriodicGrid(1, 16)
        config = FlowConfig(
            grid=grid,
            background=perturbed_potential(grid, 0.02, (1, 0)),
            twist=TwistSpec(c=0.0),
            t_final=0.05,
            dt_initial=1e-3,
            diagnostics_every=5,
        )
        with pytest.raises(HypothesisError, match="level"):
            check_trace_evolution(run_flow(config), mu=5.0)

    def test_flat_stationary_two_dimensional(self):
        grid = PeriodicGrid(2, 8)
        config = FlowConfig(grid=grid, t_final=0.1, dt_initial=5e-3, diagnostics_every=4)
        report = check_trace_evolution(run_flow(config), mu=0.5)
        assert report.ok
        # Q grows linearly through B w, so the supremum strictly decreases.
        assert report.max_increase < 0.0
        assert report.differential_min_margin == pytest.approx(0.25, abs=1e-10)

    def test_flat_twisted_supremum_decays(self):
        config = self.flat_twisted_config()
        report = check_trace_evolution(
            run_flow(config),
            mu=1.0,
            twist_potential=np.zeros(config.grid.shape),
            tol=1e-6,
        )
        assert report.ok


def _laplacian_of_metric(grid, g, f):
    """The Laplacian as computed before it took g^-1: inverting g itself."""
    return g_trace(g.inverse(), dbar_hessian(grid, np.asarray(f, dtype=float)), real_tol=1e-10)


def _reference_schwarz_margins(result):
    """Schwarz margins snapshot by snapshot, reconstructing g at every use."""
    model = result.model
    grid = model.grid
    snaps = result.snapshots

    lam_logs = [model.log_trace_h(model.reconstruct(s.t, s.phi).inverse()) for s in snaps]
    R_h = curvature_field(grid, model.h)
    margins = [math.nan] * len(snaps)
    for i in range(1, len(snaps) - 1):
        a, b = snaps[i].t - snaps[i - 1].t, snaps[i + 1].t - snaps[i].t
        dlog = _nonuniform_dt(lam_logs[i - 1], lam_logs[i], lam_logs[i + 1], a, b)
        g = model.reconstruct(snaps[i].t, snaps[i].phi)
        ginv = g.inverse()
        lhs = dlog - _laplacian_of_metric(grid, g, lam_logs[i])
        double_trace = g_trace(ginv, g_trace(ginv, R_h))
        twist_trace = g_pair_trace(ginv, model.h.values, model.eta)
        rhs = (double_trace.real + twist_trace.real) / np.exp(lam_logs[i])
        margins[i] = float((lhs - rhs).min())
    return margins


def _reference_identities(result):
    """(times, residual_phi, residual_phidot) snapshot by snapshot."""
    model = result.model
    snaps = result.snapshots
    res_phi = res_phidot = 0.0
    for i in range(1, len(snaps) - 1):
        a, b = snaps[i].t - snaps[i - 1].t, snaps[i + 1].t - snaps[i].t
        dphi = _nonuniform_dt(snaps[i - 1].phi, snaps[i].phi, snaps[i + 1].phi, a, b)
        dphidot = _nonuniform_dt(snaps[i - 1].phidot, snaps[i].phidot, snaps[i + 1].phidot, a, b)
        g = model.reconstruct(snaps[i].t, snaps[i].phi)
        drift = g_trace(g.inverse(), model._drift, real_tol=TRACE_REAL_TOL)
        rhs = -drift + _laplacian_of_metric(model.grid, g, snaps[i].phidot)
        res_phi = max(res_phi, float(np.max(np.abs(dphi - snaps[i].phidot))))
        res_phidot = max(res_phidot, float(np.max(np.abs(dphidot - rhs))))
    return np.array([s.t for s in snaps[1:-1]]), res_phi, res_phidot


def _reference_trace_evolution(result, mu, twist_potential):
    """(times, sup values, max increase, differential margin) in two passes."""
    model = result.model
    grid = model.grid
    n = grid.n
    alpha, beta = result.config.alpha, result.config.beta
    v = (2.0 * beta / alpha) * model.u
    B = alpha * mu * (n - 1) / (2.0 * n * beta)
    fields = []
    for snap in result.snapshots:
        log_lam = model.log_trace_h(model.reconstruct(snap.t, snap.phi).inverse())
        w = snap.t * snap.phidot - snap.phi - n * snap.t
        Q = (
            -B * w
            - (alpha / (2.0 * beta)) * v
            + (alpha / beta) * (snap.phidot + twist_potential - model.u)
        )
        fields.append(log_lam - Q)
    times = np.array([snap.t for snap in result.snapshots])
    sup_vals = np.array([float(f.max()) for f in fields])
    diff_margin = math.inf
    for i in range(1, len(fields) - 1):
        a, b = times[i] - times[i - 1], times[i + 1] - times[i]
        dfield = _nonuniform_dt(fields[i - 1], fields[i], fields[i + 1], a, b)
        g = model.reconstruct(times[i], result.snapshots[i].phi)
        heat = dfield - _laplacian_of_metric(grid, g, fields[i])
        diff_margin = min(diff_margin, float((-heat).min()))
    return times, sup_vals, float(np.diff(sup_vals).max()), diff_margin


class TestOnePassAnalysis:
    """Rows, Schwarz margins and identities come from one pass over the snapshots."""

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

    def test_each_snapshot_metric_is_reconstructed_and_inverted_once(self, monkeypatch):
        result = run_flow(self.mixed_config(0.02))
        # The run's own pass cached R_h on the model; drop it so this pass
        # computes it again.
        del result.model.curvature_h
        reconstruct, inverse = FlowModel.reconstruct, MetricField.inverse
        reconstructed, inverted = [], []

        def counting_reconstruct(self, t, phi):
            reconstructed.append(reconstruct(self, t, phi))
            return reconstructed[-1]

        def counting_inverse(self):
            inverted.append(self)
            return inverse(self)

        monkeypatch.setattr(FlowModel, "reconstruct", counting_reconstruct)
        monkeypatch.setattr(MetricField, "inverse", counting_inverse)
        _diagnostics(result)
        assert len(reconstructed) == len(result.snapshots) >= 5
        # Apart from the snapshot metrics only h is inverted, once, for R_h.
        h = result.model.h
        assert [id(g) for g in inverted if g is not h] == [id(g) for g in reconstructed]
        assert sum(g is h for g in inverted) == 1

    def test_matches_snapshot_by_snapshot_reference(self):
        result = run_flow(self.mixed_config(0.02))
        g12 = result.model.reconstruct(result.final.t, result.final.phi).values[..., 0, 1]
        assert np.abs(g12.real).max() > 1e-3 and np.abs(g12.imag).max() > 1e-3
        np.testing.assert_array_equal(
            [row.schwarz_min_margin for row in result.rows], _reference_schwarz_margins(result)
        )
        report = check_potential_identities(result)
        times, res_phi, res_phidot = _reference_identities(result)
        np.testing.assert_array_equal(report.times, times)
        assert (report.residual_phi, report.residual_phidot) == (res_phi, res_phidot)

    def test_trace_evolution_matches_reference(self):
        result = run_flow(self.mixed_config(0.0))
        zeros = np.zeros(result.config.grid.shape)
        report = check_trace_evolution(result, mu=1.0, twist_potential=zeros, tol=1e-6)
        times, sup_vals, max_increase, diff_margin = _reference_trace_evolution(
            result, 1.0, zeros
        )
        np.testing.assert_array_equal(report.times, times)
        np.testing.assert_array_equal(report.sup_values, sup_vals)
        assert report.max_increase == max_increase
        assert report.differential_min_margin == diff_margin

    def test_twisted_scalar_needs_no_ricci_pass(self, monkeypatch):
        # Ric(g) = Ric(h) - d dbar phidot: the rows match the route through
        # Ric(g) = -d dbar log det g at roundoff, without calling ricci_field.
        result = run_flow(self.mixed_config(0.02))
        model = result.model
        expected = []
        for snap in result.snapshots:
            g = model.reconstruct(snap.t, snap.phi)
            ginv = g.inverse()
            scal = g_trace(ginv, ricci_field(model.grid, g).values, real_tol=TRACE_REAL_TOL)
            treta = g_trace(ginv, model.eta, real_tol=TRACE_REAL_TOL)
            expected.append(float((scal + treta).min()))

        def forbidden(*args, **kwargs):
            raise AssertionError("Ricci form computed in the diagnostics")

        monkeypatch.setattr(kricci.flow, "ricci_field", forbidden)
        rows, _ = _diagnostics(result)
        assert_allclose([row.inf_scalar_plus_tr_eta for row in rows], expected, rtol=1e-12, atol=0)

    def test_identities_need_three_snapshots(self):
        result = run_flow(homogeneous_config(c=0.0, t_final=0.01, dt=1e-2))
        assert len(result.snapshots) == 2 and result.identities is None
        with pytest.raises(ValueError, match="three snapshots"):
            check_potential_identities(result)


class TestNoEinsumPathPlanning:
    """The n=2 flow, its diagnostics and every check run without planning an
    einsum contraction path: their kernels are closed-form products."""

    @pytest.fixture(autouse=True)
    def forbid_planner(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("einsum path planned on the flow path")

        # np.einsum plans a contraction path through its module's einsum_path
        # whenever it is called with optimize set.
        monkeypatch.setitem(np.einsum.__wrapped__.__globals__, "einsum_path", forbidden)
        with pytest.raises(AssertionError, match="path planned"):
            np.einsum("ij,jk,kl->il", *[np.eye(2)] * 3, optimize=True)

    def test_flow_and_every_check(self):
        result = run_flow(TestOnePassAnalysis().mixed_config(0.0))
        final = result.final
        assert check_scalar_bound(result).ok
        check_potential_identities(result)
        check_schwarz(result)
        monotone_quantities(result.model, final.t, final.phi, final.phidot)
        zeros = np.zeros(result.config.grid.shape)
        assert check_trace_evolution(result, mu=1.0, twist_potential=zeros, tol=1e-6).ok

    def test_curved_background_reaches_mixed_level_estimate(self):
        result = run_flow(TestOnePassAnalysis().mixed_config(0.02))
        with pytest.raises(HypothesisError, match="level"):
            check_trace_evolution(result, mu=20.0)


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
            full = model.h.values - t * model._drift.values + dbar_hessian(model.grid, phi)
            expected = MetricField(model.grid, full)
            g = model.reconstruct(t, phi)
            for entry, reference in zip(g.entries, expected.entries):
                assert (entry is None) == (reference is None)
                if entry is not None:
                    assert entry.dtype == reference.dtype
                    assert np.array_equal(entry, reference)

    def test_background_curvature_computed_once_per_run(self, monkeypatch):
        calls = []

        def counting(grid, g):
            calls.append(g)
            return curvature_field(grid, g)

        monkeypatch.setattr(kricci.flow, "curvature_field", counting)
        grid = PeriodicGrid(2, 8)
        config = FlowConfig(grid=grid, t_final=0.02, dt_initial=5e-3, diagnostics_every=1)
        result = run_flow(config)
        assert check_trace_evolution(result, mu=0.5).ok
        assert len(calls) == 1 and calls[0] is result.model.h
