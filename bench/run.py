"""kricci benchmark: time the public entry points on three seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed.  Workloads are closed loops, one operation at a
time in this process (see workloads.py and README.md).  With ``--trace 0``
the run measures the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
it first runs untraced for half the time, then runs a fixed number of passes
again, each operation once untraced and once with every layer wrapped
(tracing.py), and reports the per-layer metrics.  The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Details, the run environment and
the spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Set-up is repeated and its median reported: one import is too noisy on a
# shared VM.  Each repeat imports the package in a fresh interpreter.
SETUP_REPEATS = 7
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import kricci.cli, kricci.suites; print(time.perf_counter() - t)"
)
MIN_PASSES = 3
# Reference speed: times are reported as if the SpeedProbe took this long.
PROBE_REF_S = 0.02

# Counts that repeat exactly for a given seed, so a change may claim on them.
REPEAT_EXACT = (
    "flow.steps",
    "extremes.batch_eval.rows",
    "royden.enumerated_terms",
    "grid.points_processed",
    "flow.snapshot_bytes",
)
COMPUTED = {
    "grid.points_processed": "computed from array sizes: grid points per grid-kernel call",
    "flow.snapshot_bytes": "computed from array sizes: phi and phidot bytes per snapshot",
}


def _summary(values):
    """Median, the highest percentile with at least ten samples beyond it (the
    median itself below 20 samples), and the count."""
    p = max(50, math.floor(100 * (1 - 10 / len(values))))
    return {
        "median": statistics.median(values),
        "tail_percentile": p,
        "tail": float(np.percentile(values, p)),
        "count": len(values),
    }


class SpeedProbe:
    """Fixed numpy work of the kinds the workloads do: batched 2x2 eigvalsh and
    slogdet, and FFTs.

    This VM drifts between a fast and a slow state (about 1.6x apart, lasting
    from seconds to many minutes; see README.md), and every operation slows
    with it.  The probe runs between operations, and each timed operation is
    also reported at reference speed: ``seconds * (PROBE_REF_S / probe) **
    elasticity``, with the probe taken as the mean of the samples just before
    and just after it, and the workload's elasticity (workloads.Workload).
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4096, 2, 2)) + 1j * rng.standard_normal((4096, 2, 2))
        self.matrices = a + np.conj(np.swapaxes(a, -1, -2)) + 8 * np.eye(2)
        self.field = rng.standard_normal((64, 64, 8))

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for _ in range(4):
            np.linalg.eigvalsh(self.matrices)
            np.linalg.slogdet(self.matrices)
            np.fft.ifft(np.fft.fft(self.field, axis=0), axis=1)
        return time.perf_counter() - t0


def _timed(op, index, phase):
    record = {"pass": index, "phase": phase, "kind": op.kind, "label": op.label, "ok": False}
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            result = op.run()
        record["seconds"] = time.perf_counter() - t0
        record.update(op.verify(result))
        record["ok"] = True
    except Exception:
        record.setdefault("seconds", time.perf_counter() - t0)
        record["error"] = traceback.format_exc(limit=3)
        print(f"operation {op.label} failed:\n{record['error']}", file=sys.stderr)
    return record


def run_passes(workload, probe, stop_after, min_passes, max_passes=None, first=0, tracer=None):
    """Closed loop over passes first, first+1, ...; returns one record per operation.

    With a tracer, every operation runs twice in a row, untraced ("paired")
    and then traced, so the overhead ratio compares like with like.
    """
    records = []
    start = time.perf_counter()
    index, done = first, 0
    before = probe()
    while True:
        for op in workload.passes(index):
            runs = [("untraced" if tracer is None else "paired", None)]
            if tracer is not None:
                runs.append(("traced", tracer))
            for phase, active in runs:
                if active is not None:
                    active.install()
                try:
                    record = _timed(op, index, phase)
                finally:
                    if active is not None:
                        active.uninstall()
                after = probe()
                record["probe_s"] = 0.5 * (before + after)
                record["ref_s"] = record["seconds"] * (
                    PROBE_REF_S / record["probe_s"]
                ) ** workload.elasticity
                before = after
                records.append(record)
        index += 1
        done += 1
        if max_passes is not None and done >= max_passes:
            break
        if done >= min_passes and time.perf_counter() - start >= stop_after:
            break
    return records


def pass_times(records, key="ref_s"):
    totals: dict[int, float] = {}
    for r in records:
        totals[r["pass"]] = totals.get(r["pass"], 0.0) + r[key]
    return list(totals.values())


def workload_figures(records) -> dict:
    """End-to-end figures of an untraced phase, with their summaries.  Times are
    at reference speed except ``wall_raw_s`` and ``probe_ms``."""
    figures = {
        "wall_s": _summary(pass_times(records)),
        "wall_raw_s": _summary(pass_times(records, "seconds")),
        "probe_ms": _summary([1e3 * r["probe_s"] for r in records]),
    }
    certs = [1e3 * r["ref_s"] for r in records if r["kind"] == "certify"]
    if certs:
        figures["cert_ms"] = _summary(certs)
    suites = [r for r in records if r["kind"] == "suite"]
    if suites:
        figures["suite_cases_per_s"] = sum(r.get("suite_cases", 0) for r in suites) / sum(
            r["ref_s"] for r in suites
        )
    for key in ("flow.identity_residual", "flow.schwarz_worst_negative"):
        values = [r[key] for r in records if key in r]
        if values:
            figures[key] = max(values)
    figures["fail_ratio"] = sum(not r["ok"] for r in records) / len(records)
    return figures


def untraced_layer_values(figures) -> dict:
    """The workload-specific end-to-end figures, reported with the layers (0 where
    a workload has no such operation)."""
    cert = figures.get("cert_ms", {})
    return {
        "cert_p50_ms": cert.get("median", 0.0),
        "cert_tail_ms": cert.get("tail", 0.0),
        "suite_cases_per_s": figures.get("suite_cases_per_s", 0.0),
        "flow.identity_residual": figures.get("flow.identity_residual", 0.0),
        "flow.schwarz_worst_negative": figures.get("flow.schwarz_worst_negative", 0.0),
        "fail_ratio": figures["fail_ratio"],
    }


def measure_setup(make_workload, seed, workdir, probe):
    """Set-up samples at reference speed: fresh-interpreter import plus input
    generation, each scaled by the probes taken around it."""
    samples = []
    before = probe()
    for _ in range(SETUP_REPEATS):
        probe_run = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        t1 = time.perf_counter()
        workload = make_workload(seed, workdir)
        workload.passes(0)
        seconds = float(probe_run.stdout) + time.perf_counter() - t1
        after = probe()
        samples.append(seconds * PROBE_REF_S / (0.5 * (before + after)))
        before = after
    return samples, workload


def _blas_threads():
    with open("/proc/self/maps") as fh:
        libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def _commit():
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(seed) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    return {
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "cpu": cpu or platform.processor(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    if not (SRC / "kricci" / "__init__.py").is_file():
        print(f"error: no kricci source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads  # imports kricci.cli, which loads every module the tracer wraps

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = Path(tempfile.mkdtemp(prefix=f"{stem}-", dir=OUT))
    try:
        probe = SpeedProbe()
        setup_samples, workload = measure_setup(
            workloads.WORKLOADS[args.workload], args.seed, workdir, probe
        )
        if args.trace:
            want = spec["per_layer"]
            # The traced passes skip pass 0, which also pays first-call costs.
            traced = workload.traced_passes
            records = run_passes(workload, probe, args.seconds / 2, MIN_PASSES)
            figures = workload_figures(records)
            tracer = tracing.Tracer(run_id=stem)
            paired = run_passes(workload, probe, 0.0, traced, traced, first=1, tracer=tracer)
            tracer.write(OUT / f"{stem}-spans.jsonl")
            values = tracer.layer_metrics(traced, [m["name"] for m in want])
            values["trace.overhead_ratio"] = sum(
                pass_times([r for r in paired if r["phase"] == "traced"])
            ) / sum(pass_times([r for r in paired if r["phase"] == "paired"]))
            values.update(untraced_layer_values(figures))
            records += paired
        else:
            want = spec["end_to_end"]
            records = run_passes(workload, probe, args.seconds, MIN_PASSES)
            figures = workload_figures(records)
            figures["setup_s"] = _summary(setup_samples)
            figures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            values = {
                "setup_s": figures["setup_s"]["median"],
                "wall_s": figures["wall_s"]["median"],
                "peak_rss_mb": figures["peak_rss_mb"],
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not r["ok"] for r in records)
    env = environment(args.seed)
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": env,
        "figures": figures,
        "repeat_exact": list(REPEAT_EXACT),
        "computed": COMPUTED,
        "metrics": values,
        "operations": records,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1, default=str))
    print("environment " + json.dumps(env))
    for key, value in figures.items():
        print(f"{key}: {json.dumps(value)}")
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in want},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
