"""Time one RK2 step of the potential flow, one complex Hessian, the metric
positivity and log-det kernels, one g-trace, one background curvature call,
the per-snapshot diagnostics and the Schwarz margin of one snapshot.

Builds a flow config on a background with a mixed-wavevector mode (at n=2 the
off-diagonal g_12 is complex) and a one-mode twist potential, then times the
kernels on its model and one ``run_flow`` call to t = (steps + 1) dt, dt the
explicit step-size limit at the background margin, with a snapshot at every
step.  It prints

  * the median wall time of the run's first ``--steps`` ``_rk2_step`` calls;
  * the tracemalloc peak of the run's next step;
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
  * the summed wall time of the run's ``_diagnostics`` calls (the Sym² field
    R_h + B(h, eta) they read is built with the model, before the first);
  * the median wall time of ``_schwarz_margins`` over 20 calls on the run's
    arguments at the snapshot of the last timed step.

Example:

    python3 scripts/step_timing.py --n 2 --resolution 32 --discretization spectral
"""

import argparse
import dataclasses
import statistics
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import kricci.flow as flow
from kricci.flow import CFL_SAFETY, FlowConfig, FlowModel, TwistSpec
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


def config_for(n, N, discretization):
    grid = PeriodicGrid(n, N, discretization)
    # Touches every complex coordinate, so at n=2 g_12 has real and imaginary parts.
    mixed = (1, 1) if n == 1 else (1, 1, 1, 0)
    background = scalar_from_modes(grid, [(mixed, 0.01), ((1,) + (0,) * (2 * n - 1), 0.005)])
    twist = TwistSpec(c=0.0, potential=scalar_from_modes(grid, [(mixed, 0.002)]))
    return FlowConfig(grid=grid, background=background, twist=twist)


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


def timed(fn, seconds):
    """``fn``, appending the wall time of each call to ``seconds``."""

    def wrapper(*args):
        start = time.perf_counter()
        result = fn(*args)
        seconds.append(time.perf_counter() - start)
        return result

    return wrapper


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=2, choices=(1, 2))
    parser.add_argument("--resolution", type=int, default=32)
    parser.add_argument("--discretization", default="spectral", choices=("fd2", "spectral"))
    parser.add_argument("--steps", type=int, default=5, help="timed steps (median reported)")
    args = parser.parse_args(argv)

    config = config_for(args.n, args.resolution, args.discretization)
    model = FlowModel(config)
    grid = model.grid
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
    del curvature, model

    step, schwarz = flow._rk2_step, flow._schwarz_margins
    step_s, step_peak, diagnostics_s, schwarz_args = [], [], [], []

    def rk2_step(*step_args):
        # The timed steps, then the further ones under tracemalloc.
        if len(step_s) < args.steps:
            return timed(step, step_s)(*step_args)
        result, peak = peak_mib(lambda: step(*step_args))
        step_peak.append(peak)
        return result

    def schwarz_margins(*margin_args):
        # Call k has the snapshot of step k as its middle: keep the last
        # timed step's arguments.
        schwarz_args.append(margin_args if len(schwarz_args) == args.steps - 1 else None)
        return schwarz(*margin_args)

    # run_flow looks these up in kricci.flow at call time.
    with mock.patch.multiple(
        flow,
        _rk2_step=rk2_step,
        _diagnostics=timed(flow._diagnostics, diagnostics_s),
        _schwarz_margins=schwarz_margins,
    ):
        run = dataclasses.replace(config, t_final=(args.steps + 1) * dt, diagnostics_every=1)
        snapshots = len(flow.run_flow(run).rows)
    schwarz_us = median_us(lambda: schwarz(*schwarz_args[args.steps - 1]), SCHWARZ_CALLS)

    print(f"n={grid.n} N={grid.N} {grid.discretization} dt={dt:.3e}")
    print(f"rk2 step: median {1e3 * statistics.median(step_s):.1f} ms over {args.steps} steps, "
          f"tracemalloc peak {step_peak[0]:.1f} MiB")
    print(f"dbar_hessian: median {1e-3 * hessian_us:.3f} ms "
          f"over {KERNEL_CALLS} calls on the background potential")
    print(f"positivity+log det: {positivity_us:.1f} µs per metric, "
          f"median over {KERNEL_CALLS} fresh step metrics")
    print(f"g_trace: {trace_us:.1f} µs, median over {KERNEL_CALLS} calls")
    print(f"curvature_field: {1e3 * curvature_s:.1f} ms, tracemalloc peak {curvature_peak:.1f} MiB "
          f"for a {curvature_mib:.1f} MiB result")
    print(f"diagnostics: {1e3 * sum(diagnostics_s):.1f} ms over {snapshots} snapshots")
    print(f"schwarz_margins: median {1e-3 * schwarz_us:.3f} ms over {SCHWARZ_CALLS} calls "
          f"at one middle snapshot")
    return 0


if __name__ == "__main__":
    sys.exit(main())
