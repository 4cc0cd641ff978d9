"""Time one RK2 step of the potential flow and one background curvature call.

Builds a flow model on a background with a mixed-wavevector mode (at n=2 the
off-diagonal g_12 is complex) and a one-mode twist potential, then prints

  * the median wall time of ``_rk2_step`` over ``--steps`` consecutive steps
    at the explicit step-size limit;
  * the tracemalloc peak of one further step;
  * the wall time and the tracemalloc peak of one ``curvature_field`` call on
    the background metric.

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

from kricci.flow import FlowConfig, FlowModel, TwistSpec, _rk2_step
from kricci.grid import PeriodicGrid, curvature_field, scalar_from_modes


def model_for(n, N, discretization):
    grid = PeriodicGrid(n, N, discretization)
    # Touches every complex coordinate, so at n=2 g_12 has real and imaginary parts.
    mixed = (1, 1) if n == 1 else (1, 1, 1, 0)
    background = scalar_from_modes(grid, [(mixed, 0.01), ((1,) + (0,) * (2 * n - 1), 0.005)])
    twist = TwistSpec(c=0.0, potential=scalar_from_modes(grid, [(mixed, 0.002)]))
    return FlowModel(FlowConfig(grid=grid, background=background, twist=twist))


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
    cfl = config.cfl_safety * grid.spacing**2 / (2.0 * grid.n)
    dt = min(config.dt_initial, cfl * model.h_margin)
    t, phi, phidot = 0.0, np.zeros(grid.shape), np.zeros(grid.shape)
    times = []
    for _ in range(args.steps):
        start = time.perf_counter()
        phi, phidot, _ = _rk2_step(model, t, phi, dt, phidot)
        times.append(time.perf_counter() - start)
        t += dt
    _, step_peak = peak_mib(lambda: _rk2_step(model, t, phi, dt, phidot))
    start = time.perf_counter()
    curvature_field(grid, model.h)
    curvature_s = time.perf_counter() - start
    curvature, curvature_peak = peak_mib(lambda: curvature_field(grid, model.h))

    print(f"n={grid.n} N={grid.N} {grid.discretization} dt={dt:.3e}")
    print(f"rk2 step: median {1e3 * statistics.median(times):.1f} ms over {args.steps} steps, "
          f"tracemalloc peak {step_peak:.1f} MiB")
    print(f"curvature_field: {1e3 * curvature_s:.1f} ms, tracemalloc peak {curvature_peak:.1f} MiB "
          f"for a {curvature.nbytes / 2**20:.1f} MiB result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
