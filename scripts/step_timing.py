"""Time one RK2 step of the potential flow, one complex Hessian, the metric
positivity and log-det kernels, one g-trace, one background curvature call,
the per-snapshot diagnostics and the Schwarz margin of one snapshot.

Builds a flow model on a background with a mixed-wavevector mode (at n=2 the
off-diagonal g_12 is complex) and a one-mode twist potential, then prints

  * the median wall time of ``_rk2_step`` over ``--steps`` consecutive steps
    at the explicit step-size limit;
  * the tracemalloc peak of one further step;
  * the median wall time of one ``dbar_hessian`` call on the background
    potential over a fixed 200 calls (the d dbar layer of each step);
  * the median wall time of ``require_positive`` then ``log_determinant``
    on a fresh step metric over 200 metrics (the positivity and log-det
    layer, which a step runs twice); each metric is a new field over the
    entries of g(dt) reconstructed from phi = 0, so it carries no recorded
    determinant or margin;
  * the median wall time of one ``g_trace`` of Ric(h) + eta against the
    inverse of g(dt) over 200 calls (the trace layer of the analysis);
  * the wall time and the tracemalloc peak of one ``curvature_field`` call on
    the background metric;
  * the summed wall time of ``_diagnostics`` over the start and the timed
    steps taken as snapshots, each analysed from the g^-1 of the metric its
    step built, as ``run_flow`` does, with the model's Sym² field
    R_h + B(h, eta) already computed;
  * the median wall time of ``_schwarz_margins`` over 20 calls at one middle
    snapshot: the last timed step's, between the snapshot before it and the
    step whose tracemalloc peak is taken.

Example:

    python3 scripts/step_timing.py --n 2 --resolution 32 --discretization spectral
"""

import argparse
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kricci.flow import (
    CFL_SAFETY,
    FlowConfig,
    FlowModel,
    FlowSnapshot,
    TwistSpec,
    _diagnostics,
    _initial_sigma,
    _nonuniform_dt,
    _rk2_step,
    _schwarz_margins,
    _Window,
)
from kricci.grid import (
    MetricField,
    PeriodicGrid,
    curvature_field,
    dbar_hessian,
    g_trace,
    scalar_from_modes,
)

# Calls per timed kernel (median reported), and per timed Schwarz margin.
KERNEL_CALLS = 200
SCHWARZ_CALLS = 20


def model_for(n, N, discretization):
    grid = PeriodicGrid(n, N, discretization)
    # Touches every complex coordinate, so at n=2 g_12 has real and imaginary parts.
    mixed = (1, 1) if n == 1 else (1, 1, 1, 0)
    background = scalar_from_modes(grid, [(mixed, 0.01), ((1,) + (0,) * (2 * n - 1), 0.005)])
    twist = TwistSpec(c=0.0, potential=scalar_from_modes(grid, [(mixed, 0.002)]))
    return FlowModel(FlowConfig(grid=grid, background=background, twist=twist))


def median_us(fn, calls=KERNEL_CALLS):
    """Median wall time of ``fn()`` in microseconds over ``calls`` calls."""
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e6 * statistics.median(times)


def peak_mib(fn):
    """(result, tracemalloc peak in MiB) of one call of ``fn``."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=2, choices=(1, 2))
    parser.add_argument("--resolution", type=int, default=32)
    parser.add_argument("--discretization", default="spectral", choices=("fd2", "spectral"))
    parser.add_argument("--steps", type=int, default=5, help="timed steps (median reported)")
    args = parser.parse_args(argv)

    model = model_for(args.n, args.resolution, args.discretization)
    config, grid = model.config, model.grid
    # The explicit step-size limit of run_flow at the background margin.
    cfl = CFL_SAFETY * grid.spacing**2 / (2.0 * grid.n)
    dt = min(config.dt_initial, cfl * model.h_margin)
    hessian_us = median_us(lambda: dbar_hessian(grid, config.background))
    step_metric = model.reconstruct(dt, np.zeros(grid.shape))

    def positivity_and_log_det():
        fresh = MetricField._from_entries(grid, *step_metric.entries)
        fresh.require_positive("flow metric")
        fresh.log_determinant()

    positivity_us = median_us(positivity_and_log_det)
    step_inverse = step_metric.inverse()
    trace_us = median_us(lambda: g_trace(step_inverse, model._drift))
    del step_metric, step_inverse
    start = time.perf_counter()
    curvature_field(grid, model.h)
    curvature_s = time.perf_counter() - start
    curvature, curvature_peak = peak_mib(lambda: curvature_field(grid, model.h))
    # R_h is a dict of Sym² entry fields; its size is theirs together.
    curvature_mib = sum(entry.nbytes for entry in curvature.values()) / 2**20
    del curvature
    # A run computes its Sym² field once, at its second snapshot; the timed
    # analysis reuses it.
    model.schwarz_form

    h_inv = model.h.inverse()
    window = _Window(model, _initial_sigma(model, h_inv))
    t, phi, phidot = 0.0, np.zeros(grid.shape), np.zeros(grid.shape)

    def analyse(snap, ginv, margin):
        start = time.perf_counter()
        _diagnostics(window, snap, ginv, margin)
        return time.perf_counter() - start

    diagnostics_s = analyse(FlowSnapshot(t, phi, phidot), h_inv, model.h_margin)
    del h_inv
    times = []
    for _ in range(args.steps):
        start = time.perf_counter()
        phi, phidot, margin, g = _rk2_step(model, t, phi, dt, phidot)
        times.append(time.perf_counter() - start)
        t += dt
        ginv = g.inverse()
        del g
        diagnostics_s += analyse(FlowSnapshot(t, phi, phidot), ginv, margin)
    (_, _, _, g_next), step_peak = peak_mib(lambda: _rk2_step(model, t, phi, dt, phidot))

    # The last timed snapshot as a middle: log tr_g h of the snapshot before
    # it and of the step after it, from the window and from g_next.
    log_prev, log_mid = (entry[1] for entry in list(window.entries)[-2:])
    log_next = model.log_trace_h(g_next.inverse())
    del g_next
    dlog = _nonuniform_dt(log_prev, log_mid, log_next, dt, dt)
    schwarz_us = median_us(lambda: _schwarz_margins(model, ginv, dlog, log_mid), SCHWARZ_CALLS)

    print(f"n={grid.n} N={grid.N} {grid.discretization} dt={dt:.3e}")
    print(f"rk2 step: median {1e3 * statistics.median(times):.1f} ms over {args.steps} steps, "
          f"tracemalloc peak {step_peak:.1f} MiB")
    print(f"dbar_hessian: median {1e-3 * hessian_us:.3f} ms "
          f"over {KERNEL_CALLS} calls on the background potential")
    print(f"positivity+log det: {positivity_us:.1f} µs per metric, "
          f"median over {KERNEL_CALLS} fresh step metrics")
    print(f"g_trace: {trace_us:.1f} µs, median over {KERNEL_CALLS} calls")
    print(f"curvature_field: {1e3 * curvature_s:.1f} ms, tracemalloc peak {curvature_peak:.1f} MiB "
          f"for a {curvature_mib:.1f} MiB result")
    print(f"diagnostics: {1e3 * diagnostics_s:.1f} ms over {len(window.rows)} snapshots")
    print(f"schwarz_margins: median {1e-3 * schwarz_us:.3f} ms over {SCHWARZ_CALLS} calls "
          f"at one middle snapshot")
    return 0


if __name__ == "__main__":
    sys.exit(main())
