"""Spans and counters recorded from outside the program.

``Tracer.install`` replaces module attributes and methods of the ``kricci``
package with timing wrappers; a name imported into several modules (say
``dbar_hessian`` into ``kricci.flow``) is replaced in each of them.  Spans are
kept in memory as (id, name, start, end, parent, run id, thread) and written
out when the run ends.  Suite cases run on the suite's worker threads: a span
opened on a thread with no open span of its own gets the innermost open span
of the installing thread as its parent, which is the ``run_suite`` waiting on
those workers.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import kricci.extremes
import kricci.flow
import kricci.grid


def _grid_points(args, kwargs, result, count):
    """Computed from array sizes: grid points the kernel call covers."""
    grid = args[0].grid if isinstance(args[0], kricci.grid.MetricField) else args[0]
    count["grid.points_processed"] += int(np.prod(grid.shape))


def _flow_result(args, kwargs, result, count):
    count["flow.steps"] += result.steps
    count["flow.snapshots"] += len(result.snapshots)
    # Computed from array sizes: the phi and phidot arrays every snapshot holds.
    count["flow.snapshot_bytes"] += sum(s.phi.nbytes + s.phidot.nbytes for s in result.snapshots)


def _batch_eval(args, kwargs, result, count):
    count["extremes.batch_eval.rows"] += args[4].shape[0]
    if kwargs.get("with_grad", args[6] if len(args) > 6 else False):
        count["extremes.batch_eval_grad.calls"] += 1


_CERTIFY_SIGNATURE = inspect.signature(kricci.extremes.certify_k_ricci)


def _certificate(args, kwargs, result, count):
    options = _CERTIFY_SIGNATURE.bind(*args, **kwargs).arguments.get("options")
    count["extremes.iterations"] += result.iterations
    count["extremes.converged"] += result.n_converged
    count["extremes.starts"] += (options or kricci.extremes.CertifyOptions()).starts


def _rows(name):
    def hook(args, kwargs, result, count):
        count[name] += np.asarray(args[1]).shape[0]

    return hook


def _royden_terms(args, kwargs, result, count):
    count["royden.enumerated_terms"] += result.n_terms


def _suite_cases(args, kwargs, result, count):
    count["suites.cases"] += len(result.cases)


def _csv_bytes(args, kwargs, result, count):
    count["io.write_flow_csv.bytes"] += Path(args[0]).stat().st_size


# (span name, owner, attribute, hook).  The owner is a module or class path
# inside kricci; every grid kernel also counts the grid points it covers.
INSTRUMENTS = [
    ("grid.dbar_hessian", "kricci.grid", "dbar_hessian", _grid_points),
    ("grid.log_determinant", "kricci.grid.MetricField", "log_determinant", _grid_points),
    ("grid.smallest_eigenvalues", "kricci.grid.MetricField", "smallest_eigenvalues", _grid_points),
    ("grid.inverse", "kricci.grid.MetricField", "inverse", _grid_points),
    ("grid.metric_field_init", "kricci.grid.MetricField", "__post_init__", _grid_points),
    ("grid.ricci_field", "kricci.grid", "ricci_field", _grid_points),
    ("grid.curvature_field", "kricci.grid", "curvature_field", _grid_points),
    ("grid.laplacian", "kricci.grid", "laplacian", _grid_points),
    ("flow.run_flow", "kricci.flow", "run_flow", _flow_result),
    ("flow.step", "kricci.flow", "_rk2_step", None),
    ("flow.rhs", "kricci.flow.FlowModel", "rhs", None),
    ("flow.reconstruct", "kricci.flow.FlowModel", "reconstruct", None),
    ("flow.diagnostics", "kricci.flow", "_diagnostics", None),
    ("flow.schwarz_margins", "kricci.flow", "_schwarz_margins", None),
    ("flow.check_scalar_bound", "kricci.flow", "check_scalar_bound", None),
    ("flow.check_potential_identities", "kricci.flow", "check_potential_identities", None),
    ("flow.check_schwarz", "kricci.flow", "check_schwarz", None),
    ("extremes.certify_k_ricci", "kricci.extremes", "certify_k_ricci", _certificate),
    ("extremes.batch_eval", "kricci.extremes", "_batch_eval", _batch_eval),
    ("extremes.k_ricci_extreme_at", "kricci.extremes", "k_ricci_extreme_at", None),
    ("forms.quartic_values", "kricci.forms", "quartic_values", _rows("forms.quartic_values.rows")),
    ("forms.unit_sphere_samples", "kricci.forms", "unit_sphere_samples", None),
    ("royden.royden_identity_check", "kricci.royden", "royden_identity_check", _royden_terms),
    ("royden.berger_check", "kricci.royden", "berger_check", None),
    ("royden.interpolation_check", "kricci.royden", "interpolation_check", None),
    ("royden.ric_scalar_matrix", "kricci.royden", "ric_scalar_matrix", None),
    ("suites.run_suite", "kricci.suites", "run_suite", _suite_cases),
    *[
        ("suites.case", "kricci.suites", builder, None)
        for builder in ("_royden_case", "_interpolation_case", "_mixed_trace_case",
                        "_ric_scalar_case", "_berger_case", "_rigidity_case")
    ],
    ("io.load_flow_config", "kricci.io", "load_flow_config", None),
    ("io.write_flow_csv", "kricci.io", "write_flow_csv", _csv_bytes),
    ("io.append_report", "kricci.io", "append_report", None),
    ("io.load_tensor", "kricci.io", "load_tensor", None),
    ("io.save_certificate", "kricci.io", "save_certificate", None),
    ("cli.main", "kricci.cli", "main", None),
]


def _resolve(path: str):
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        name = ".".join(parts[:cut])
        if name in sys.modules:
            obj = sys.modules[name]
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
            return obj
    raise LookupError(path)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stacks: dict[int, list[int]] = defaultdict(list)
        self._lock = threading.Lock()
        self._home = threading.get_ident()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            thread = threading.get_ident()
            stack = self._stacks[thread]
            if stack:
                parent = stack[-1]
            else:
                home = self._stacks[self._home]
                parent = home[-1] if home and thread != self._home else None
            with self._lock:
                span_id = len(self.spans)
                self.spans.append(None)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans[span_id] = (span_id, name, start, end, parent, self.run_id, thread)
            if hook is not None:
                with self._lock:
                    hook(args, kwargs, result, self.counts)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "kricci" or n.startswith("kricci.")]
        for name, owner, attr, hook in INSTRUMENTS:
            target = _resolve(owner)
            original = getattr(target, attr)
            wrapper = self._wrap(name, original, hook)
            if inspect.isclass(target):
                holders = [target]
            else:
                holders = [m for m in modules if getattr(m, attr, None) is original]
            for holder in holders:
                self._patched.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "name", "start", "end", "parent", "run", "thread"), span))) + "\n")

    def layer_metrics(self, passes: int, names) -> dict[str, float]:
        """Per-pass totals: ``<span>.calls``, ``<span>.s`` (inclusive) and
        ``<span>.self_s`` (duration minus the union of its children)."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span_id, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        totals: dict[str, float] = defaultdict(float)
        step_ms = []
        for span_id, name, start, end, _, _, _ in self.spans:
            covered, reach = 0.0, start
            for lo, hi in sorted(children.get(span_id, ())):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            totals[f"{name}.calls"] += 1
            totals[f"{name}.s"] += end - start
            totals[f"{name}.self_s"] += end - start - covered
            if name == "flow.step":
                step_ms.append(1e3 * (end - start))
        totals.update(self.counts)
        out = {name: totals.get(name, 0.0) / passes for name in names}
        steps, attempts = totals["flow.steps"], totals["flow.step.calls"]
        out["flow.step_attempts"] = attempts / passes
        out["flow.step_accept_ratio"] = steps / attempts if attempts else 0.0
        out["flow.step_ms"] = float(np.median(step_ms)) if step_ms else 0.0
        starts = totals["extremes.starts"]
        out["extremes.converged_ratio"] = totals["extremes.converged"] / starts if starts else 0.0
        out["suites.case_busy_s"] = totals["suites.case.s"] / passes
        wall = totals["suites.run_suite.s"]
        out["suites.concurrency"] = totals["suites.case.s"] / wall if wall else 0.0
        return out
