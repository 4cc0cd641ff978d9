"""Acceptance gate: one numbered check per headline guarantee.

Each test prints a single ``criterion NN [PASS/FAIL]`` line with the
measured numbers so a plain ``pytest -s tests/test_acceptance.py`` reads
as a report.  Tolerances are pinned here and are not meant to be tuned;
loosening one is a behavior change, not a test fix.
"""

import math
import time

import numpy as np
import scipy.linalg

from kricci.extremes import certify_k_ricci, k_ricci_extreme_at
from kricci.flow import (
    FlowConfig,
    TwistSpec,
    check_potential_identities,
    check_schwarz,
    homogeneous_phi,
    horizon_estimate,
    run_flow,
)
from kricci.forms import (
    BihermitianForm,
    HermitianForm,
    b_form,
    quartic_values,
    random_bihermitian,
    random_hermitian,
    ricci_trace,
    scalar,
    unit_sphere_samples,
)
from kricci.grid import MetricField, PeriodicGrid, ricci_potential, scalar_from_modes
from kricci.royden import (
    berger_check,
    interpolation_check,
    ric_scalar_matrix,
    royden_identity_check,
)
from kricci.suites import RicKUpper, generate_forms


def _report(num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} [{status}] {label}: {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def _identity(n):
    return HermitianForm(np.eye(n, dtype=complex))


def _random_metric(n, rng):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return HermitianForm(m @ m.conj().T + n * np.eye(n))


def _homogeneous_run(c, dt, n=1, N=16, t_final=1.0, every=10):
    config = FlowConfig(
        grid=PeriodicGrid(n, N),
        twist=TwistSpec(c=c),
        t_final=t_final,
        dt_initial=dt,
        diagnostics_every=every,
    )
    return run_flow(config)


def test_criterion_01_quartic_sum_identity():
    worst = 0.0
    start = time.perf_counter()
    for n in (1, 2, 3, 4):
        for i in range(20):
            rng = np.random.default_rng([21, n, i])
            S = random_bihermitian(n, rng=rng)
            g = _random_metric(n, rng)
            h = _random_metric(n, rng)
            rho = random_hermitian(n, rng=rng)
            rep = royden_identity_check(S, g, h, rho=rho, tol=1e-10)
            worst = max(
                worst, rep.quartic_residual, rep.metric_residual, rep.rho_residual
            )
            assert rep.ok
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(
        1,
        "frame-sum identity",
        ok,
        f"80 instances, worst relative residual {worst:.3e}, {elapsed:.2f}s",
    )


def test_criterion_02_model_form_sharpness():
    worst = 0.0

    def gap(measured, expected):
        return abs(measured - expected) / (1.0 + abs(expected))

    for n in (2, 3, 4):
        for sigma in (0.5, 1.0, 2.0):
            rng = np.random.default_rng([22, n, int(2 * sigma)])
            h = _random_metric(n, rng)
            S = BihermitianForm(-sigma * b_form(h).entries)
            X = unit_sphere_samples(h, 32, rng)
            worst = max(worst, float(np.max(np.abs(quartic_values(S, X) + 2 * sigma))))
            ric = ricci_trace(S, h)
            worst = max(
                worst,
                float(np.max(np.abs(ric.entries + (n + 1) * sigma * h.entries)))
                / (1.0 + (n + 1) * sigma),
            )
            worst = max(worst, gap(scalar(S, h), -n * (n + 1) * sigma))
            for k in range(1, n + 1):
                for which in ("max", "min"):
                    val, _ = k_ricci_extreme_at(S, h, X[0], k, which=which)
                    worst = max(worst, gap(val, -(k + 1) * sigma))
            for k in range(2, n + 1):
                interp = interpolation_check(S, h, k, sigma, X)
                scale = 1.0 + float(np.max(np.abs(interp.rhs)))
                worst = max(worst, float(np.max(np.abs(interp.margins))) / scale)
                trace = ric_scalar_matrix(S, h, k, sigma)
                worst = max(worst, float(np.max(np.abs(trace.eigenvalues))))
            if n == 3:
                # k = 2 head-to-head: both sides of the trace combination
                # reduce to -72 sigma relative to h on the model form.
                k = 2
                ric_rel = scipy.linalg.eigh(
                    ric.entries, h.entries, eigvals_only=True
                )
                lhs_rel = (n * k + n - k - 2) * scalar(S, h) + n * ric_rel
                rhs_rel = -n * (n + 1) * (n - 1) * (k + 1) * sigma
                worst = max(
                    worst,
                    float(np.max(np.abs(lhs_rel - (-72 * sigma)))) / (1 + 72 * sigma),
                )
                worst = max(worst, gap(rhs_rel, -72 * sigma))
    ok = worst <= 1e-12
    _report(
        2,
        "model-form sharpness",
        ok,
        f"n in 2..4, sigma in {{0.5,1,2}}, worst normalized gap {worst:.3e}",
    )


def test_criterion_03_eigen_selection_vs_sampling():
    n, k, m = 3, 2, 50_000
    h = _identity(n)
    worst_gap = 0.0
    worst_exceed = 0.0

    def orthonormal_pair(X, W):
        X = X / np.linalg.norm(X, axis=1, keepdims=True)
        overlap = np.einsum("mi,mi->m", W, np.conj(X))
        W = W - overlap[:, None] * X
        return X, W / np.linalg.norm(W, axis=1, keepdims=True)

    def sample_values(S, X, W):
        quart = np.einsum(
            "ijkl,mi,mj,mk,ml->m",
            S.entries, X, np.conj(X), X, np.conj(X),
            optimize=True,
        )
        cross = np.einsum(
            "ijkl,mi,mj,mk,ml->m",
            S.entries, X, np.conj(X), W, np.conj(W),
            optimize=True,
        )
        return (quart + cross).real

    for i in range(10):
        S = random_bihermitian(n, rng=np.random.default_rng([11, i]))
        cert = certify_k_ricci(S, h, k, bound=0.0, rng=np.random.default_rng([12, i]))
        srng = np.random.default_rng([13, i])
        Xg = srng.standard_normal((m, n)) + 1j * srng.standard_normal((m, n))
        Wg = srng.standard_normal((m, n)) + 1j * srng.standard_normal((m, n))
        vals = sample_values(S, *orthonormal_pair(Xg, Wg))
        cols = cert.witness.columns
        scales = np.geomspace(1e-5, 3e-2, m)[:, None]
        Xl = cols[:, 0] + scales * (
            srng.standard_normal((m, n)) + 1j * srng.standard_normal((m, n))
        )
        Wl = cols[:, 1] + scales * (
            srng.standard_normal((m, n)) + 1j * srng.standard_normal((m, n))
        )
        vals_local = sample_values(S, *orthonormal_pair(Xl, Wl))
        sample_max = max(float(vals.max()), float(vals_local.max()))
        worst_gap = max(worst_gap, abs(cert.value - sample_max))
        worst_exceed = max(worst_exceed, sample_max - cert.value)
    ok = worst_gap <= 1e-6 and worst_exceed <= 1e-8
    _report(
        3,
        "eigen-selection vs sampling",
        ok,
        f"10 forms x 1e5 samples, worst |gap| {worst_gap:.3e}, "
        f"worst exceedance {worst_exceed:.3e}",
    )


def test_criterion_04_interpolation_under_certified_bound():
    n, k, sigma = 3, 2, 1.0
    h = _identity(n)
    forms = generate_forms(n, 50, seed=31, constraint=RicKUpper(k, -(k + 1) * sigma))
    worst = math.inf
    for i, (S, _shift) in enumerate(forms):
        rng = np.random.default_rng([32, i])
        X = unit_sphere_samples(h, 64, rng) * rng.uniform(0.5, 2.0, (64, 1))
        rep = interpolation_check(S, h, k, sigma, X, tol=1e-8)
        worst = min(worst, rep.worst_margin)
        assert rep.ok
    ok = worst >= -1e-8
    _report(
        4,
        "interpolation under certified bound",
        ok,
        f"50 forms x 64 directions, worst margin {worst:.3e}",
    )


def test_criterion_05_sphere_average_consistency():
    n = 3
    S = random_bihermitian(n, rng=np.random.default_rng([41, 0]))
    rep = berger_check(
        S, _identity(n), samples=1_000_000, rng=np.random.default_rng([41, 1]), z=3.0
    )
    deviation = abs(rep.scalar - rep.estimate)
    ok = rep.ok and rep.within_z and rep.n_samples == 1_000_000
    _report(
        5,
        "sphere-average scalar consistency",
        ok,
        f"|exact - MC| {deviation:.3e} vs 3 SE {3 * rep.std_error:.3e}",
    )


def test_criterion_06_contracting_twist_exactness():
    exact = homogeneous_phi(1, 0.5, 1.0)
    assert math.isclose(exact, math.log(2.0) - 1.0, rel_tol=0, abs_tol=1e-15)
    coarse = _homogeneous_run(0.5, 4e-4)
    fine = _homogeneous_run(0.5, 2e-4)
    err_coarse = float(np.max(np.abs(coarse.final.phi - exact)))
    err_fine = float(np.max(np.abs(fine.final.phi - exact)))
    ratio = err_coarse / err_fine
    horizon = horizon_estimate(coarse)
    ok = err_coarse <= 1e-3 and 3.4 <= ratio <= 4.6 and abs(horizon - 2.0) <= 0.05
    _report(
        6,
        "contracting-twist exactness",
        ok,
        f"|phi(1) - (log 2 - 1)| = {err_coarse:.3e}, halving ratio {ratio:.2f}, "
        f"horizon {horizon:.6f}",
    )


def test_criterion_07_expanding_twist_sharp_bounds():
    result = _homogeneous_run(-1.0, 4e-4)
    assert result.sigma == 1.0
    row = result.rows[-1]
    assert math.isclose(row.t, 1.0, rel_tol=0, abs_tol=1e-12)
    sup_margin = abs(row.sup_phidot - math.log(2.0))
    bound_margin = abs(row.sup_phidot - row.bound_volume_upper)
    scal_margin = abs(row.inf_scalar_plus_tr_eta - (-0.5))
    ok = sup_margin <= 1e-3 and bound_margin <= 1e-3 and scal_margin <= 1e-3
    _report(
        7,
        "expanding-twist sharp bounds",
        ok,
        f"at t=1: |sup dphi/dt - log 2| = {sup_margin:.3e}, "
        f"|inf(scal + tr eta) + 1/2| = {scal_margin:.3e}",
    )


def test_criterion_08_flat_stationarity(snapshot_history):
    result = _homogeneous_run(0.0, 1e-3)
    drift = max(float(np.max(np.abs(s.phi))) for s in snapshot_history(result))
    ok = drift <= 1e-12
    _report(8, "flat stationarity", ok, f"sup_t |phi| = {drift:.3e} over t <= 1")


def test_criterion_09_identities_and_schwarz_refinement():
    def perturbed(N, dt):
        grid = PeriodicGrid(1, N)
        u = scalar_from_modes(grid, [((1, 0), 0.02)])
        config = FlowConfig(
            grid=grid,
            twist=TwistSpec(c=0.0, potential=u),
            t_final=0.5,
            dt_initial=dt,
            diagnostics_every=25,
        )
        return run_flow(config)

    coarse = perturbed(32, 1.6e-4)
    fine = perturbed(64, 0.8e-4)
    ident_c = check_potential_identities(coarse)
    ident_f = check_potential_identities(fine)
    schwarz_c = check_schwarz(coarse)
    schwarz_f = check_schwarz(fine)
    ratios = (
        ident_c.residual_phi / ident_f.residual_phi,
        ident_c.residual_phidot / ident_f.residual_phidot,
        schwarz_c.worst_negative / schwarz_f.worst_negative,
    )
    ok = all(2.8 <= r <= 5.2 for r in ratios)
    _report(
        9,
        "evolution identities and trace comparison under refinement",
        ok,
        "N,1/dt doubling ratios: potential {:.2f}, trace-rate {:.2f}, "
        "comparison margin {:.2f} (target 4 +/- 30%)".format(*ratios),
    )


def test_criterion_10_ricci_potential_threshold():
    residuals = []
    exactness = 0.0
    for N in (16, 32, 64):
        grid = PeriodicGrid(1, N, discretization="fd2")
        x = grid.coordinates()[0]
        values = (1.0 - 0.3 * np.cos(2 * np.pi * x))[..., None, None].astype(complex)
        rep = ricci_potential(grid, MetricField(grid, values))
        residuals.append(rep.residual_vs_trace)
        exactness = max(exactness, rep.residual_vs_direct)
    orders = [math.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
    ok = min(orders) >= 1.8 and exactness <= 1e-12
    _report(
        10,
        "global Ricci potential at second order",
        ok,
        f"residuals {residuals[0]:.3e} -> {residuals[1]:.3e} -> {residuals[2]:.3e}, "
        f"orders {orders[0]:.2f}, {orders[1]:.2f}, exact-potential residual "
        f"{exactness:.1e}",
    )
