"""Seeded inputs, operations and output checks for the three workloads.

A workload is an endless, deterministic stream of passes; a pass is a short
list of operations, each one call through a public entry point
(``kricci.cli.main`` for ``flow`` and ``certify``, ``kricci.suites.run_suite``
for suites).  The seed picks the Fourier modes and the forms; the program only
sees the files and configs written here.  Every operation's output is checked
by its ``verify`` callable, which returns the quality figures of the run or
raises ``OutputError``.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import kricci.cli
import kricci.io
import kricci.suites

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# The certifier's value tolerance at the CLI default CertifyOptions.
VALUE_TOL = 1e-8

FLOW_CHECKS = ("scalar_bound", "volume_bound", "schwarz", "potential_identities")


class OutputError(AssertionError):
    """An operation returned, but its output is wrong."""


@dataclass
class Op:
    """One timed call.  ``run`` is timed; ``verify`` is not."""

    kind: str
    label: str
    run: Callable[[], object]
    verify: Callable[[object], dict]


@dataclass
class Workload:
    passes: Callable[[int], list[Op]]
    # Passes run in the traced phase; fixed so per-pass counts repeat exactly.
    traced_passes: int
    # How strongly the workload's time follows the speed probe: the log-log
    # slope of run medians against probe medians over 15 runs on the 2-core
    # VM (README.md, Noise).  Times at reference speed scale by
    # (reference / probe) ** elasticity.
    elasticity: float = 1.0


def _write_json(path: Path, payload) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1))
    return path


def _pairs(values: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(values, dtype=complex).ravel()]


# --------------------------------------------------------------------- flows


def _wavevectors(n: int, kmax: int, mixed: bool):
    """Nonzero integer wavevectors over (x1, y1[, x2, y2]), one per +-pair.

    ``mixed`` keeps only those touching every complex coordinate, so at n=2
    the Hessian of the mode has a nonzero off-diagonal g_12.
    """
    out = []
    for k in itertools.product(range(-kmax, kmax + 1), repeat=2 * n):
        if not any(k) or next(c for c in k if c) < 0:
            continue
        if mixed and not all(any(k[2 * i : 2 * i + 2]) for i in range(n)):
            continue
        out.append(k)
    return out


def _min_hessian_eigenvalue(n: int, N: int, modes) -> float:
    """Smallest eigenvalue over the grid of the continuum d dbar of the modes.

    For Re(a exp(2 pi i k.x)) the complex Hessian is -pi^2 Re(...) v v^H with
    v_i = k_x_i - i k_y_i.
    """
    ticks = np.arange(N) / N
    coords = np.meshgrid(*([ticks] * 2 * n), indexing="ij")
    hess = np.zeros((N,) * (2 * n) + (n, n), dtype=complex)
    for k, amp in modes:
        wave = (amp * np.exp(2j * np.pi * sum(ki * c for ki, c in zip(k, coords)))).real
        v = np.array([k[2 * i] - 1j * k[2 * i + 1] for i in range(n)])
        hess += -np.pi**2 * wave[..., None, None] * np.outer(v, np.conj(v))
    return float(np.linalg.eigvalsh(hess)[..., 0].min())


def _seeded_potential(rng, n: int, N: int, counts, depth: float):
    """Mode list from ``counts`` = [(how many, mixed only), ...].

    Amplitudes are scaled so that 1 + d dbar(potential) has smallest
    eigenvalue exactly 1 - depth: every seed then starts from the same
    positivity margin, hence the same CFL step and about the same step count.
    """
    modes = []
    for count, mixed in counts:
        pool = [k for k in _wavevectors(n, 1, mixed) if k not in [m[0] for m in modes]]
        for i in rng.choice(len(pool), size=count, replace=False):
            modes.append((pool[i], complex(np.exp(2j * np.pi * rng.uniform()))))
    scale = depth / -_min_hessian_eigenvalue(n, N, modes)
    return {"modes": [{"k": list(k), "amp": [scale * a.real, scale * a.imag]} for k, a in modes]}


def flow_config(n: int, N: int, discretization: str, seed: int, t_end: float, cadence: int,
                tolerance: float):
    rng = np.random.default_rng([n, N, seed])
    background_modes = [(2, True), (1, False)] if n == 2 else [(3, False)]
    return {
        "grid": {"n": n, "N": N, "discretization": discretization},
        "background": _seeded_potential(rng, n, N, background_modes, 0.15),
        "twist": {"c": 0.0, "u": _seeded_potential(rng, n, N, [(2, False)], 0.03)},
        "dt": 1e-3,
        "t_end": t_end,
        "cadence": cadence,
        "checks": {
            "scalar_bound": 1e-8,
            "volume_bound": 1e-8,
            "schwarz": tolerance,
            "potential_identities": tolerance,
        },
    }


def _expected_rows(steps: int, cadence: int) -> int:
    """Snapshots run_flow keeps: t=0, every ``cadence`` steps, and the end."""
    return 1 + steps // cadence + (1 if steps % cadence else 0)


def _flow_op(workdir: Path, label: str, config: dict) -> Op:
    cfg_path = _write_json(workdir / f"{label}.json", config)
    out = workdir / f"{label}-out"
    first_csv: list[bytes] = []

    def run():
        return kricci.cli.main(["flow", str(cfg_path), "--out", str(out)])

    def verify(rc) -> dict:
        report_path, csv_path = out / "flow_report.json", out / "flow.csv"
        try:
            if not report_path.exists():
                raise OutputError(f"kricci flow exited {rc} without a report")
            runs = json.loads(report_path.read_text())["runs"]
            record = runs[-1]
            checks = record["checks"]
            if rc != 0 or len(runs) != 1 or not record["ok"]:
                raise OutputError(f"kricci flow exited {rc}; checks: {checks}")
            if sorted(checks) != sorted(FLOW_CHECKS) or not all(c["ok"] for c in checks.values()):
                raise OutputError(f"flow checks not all enabled and ok: {checks}")
            rows = kricci.io.read_flow_csv(csv_path)
            want = _expected_rows(record["steps"], config["cadence"])
            if len(rows) != want:
                raise OutputError(f"flow.csv has {len(rows)} rows, expected {want}")
            if rows[0].t != 0.0 or not math.isclose(rows[-1].t, config["t_end"], rel_tol=1e-9):
                raise OutputError("flow.csv does not span [0, t_end]")
            raw = csv_path.read_bytes()
            kricci.io.write_flow_csv(workdir / "roundtrip.csv", rows)
            if (workdir / "roundtrip.csv").read_bytes() != raw:
                raise OutputError("flow.csv does not round-trip through read/write_flow_csv")
            if first_csv and raw != first_csv[0]:
                raise OutputError("repeated flow run gave a different flow.csv")
            first_csv[:1] = [raw]
            identities = checks["potential_identities"]
            return {
                "flow.identity_residual": max(
                    identities["residual_phi"], identities["residual_phidot"]
                ),
                "flow.schwarz_worst_negative": checks["schwarz"]["worst_negative"],
            }
        finally:
            report_path.unlink(missing_ok=True)
            csv_path.unlink(missing_ok=True)

    return Op("flow", label, run, verify)


def flow_workload(name, seed, workdir, *, n, N, discretization, t_end, cadence, tolerance,
                  traced_passes, elasticity):
    config = flow_config(n, N, discretization, seed, t_end, cadence, tolerance)
    op = _flow_op(workdir, name, config)
    return Workload(lambda index: [op], traced_passes, elasticity)


# ------------------------------------------------------------------- algebra


def pool_form(index: int, n: int = 3) -> np.ndarray:
    """Raw (unsymmetrized) entries of pool form ``index``; the loader projects."""
    rng = np.random.default_rng([2020, index])
    return rng.standard_normal((n,) * 4) + 1j * rng.standard_normal((n,) * 4)


def write_form(path: Path, entries: np.ndarray) -> Path:
    kind = "hermitian" if entries.ndim == 2 else "bihermitian"
    return _write_json(path, {"kind": kind, "n": entries.shape[0], "entries": _pairs(entries)})


def _certify_op(workdir: Path, label: str, form: Path, k: int, expect: float, seed: int,
                metric: Path | None = None) -> Op:
    """Certify ``expect`` as the k-Ricci maximum and require it to be attained."""
    cert = workdir / f"{label}.cert.json"
    argv = ["certify", str(form), "--k", str(k), "--bound", repr(expect),
            "--seed", str(seed), "--out", str(cert)]
    if metric is not None:
        argv += ["--metric", str(metric)]

    def verify(rc) -> dict:
        try:
            if rc != 0:
                raise OutputError(f"kricci certify exited {rc}")
            data = json.loads(cert.read_text())
            if data["status"] != "satisfied":
                raise OutputError(f"certificate status {data['status']}")
            if abs(data["value"] - expect) > VALUE_TOL * (1.0 + abs(expect)):
                raise OutputError(f"certified maximum {data['value']!r}, expected {expect!r}")
            return {}
        finally:
            cert.unlink(missing_ok=True)

    return Op("certify", label, lambda: kricci.cli.main(argv), verify)


def _suite_op(label: str, config: kricci.suites.SuiteConfig, cases: int) -> Op:
    def verify(report) -> dict:
        if len(report.cases) != cases:
            raise OutputError(f"suite ran {len(report.cases)} cases, expected {cases}")
        if not report.ok or report.pass_count != cases:
            raise OutputError(f"suite {report.suite} failed {cases - report.pass_count} cases")
        return {"suite_cases": cases}

    return Op("suite", label, lambda: kricci.suites.run_suite(config), verify)


def model_form(index: int, n: int = 3):
    """(h, -sigma B(h), sigma) of model ``index``: the constant-curvature model
    with max k-Ricci -(k+1) sigma."""
    rng = np.random.default_rng([2021, index])
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = a @ a.conj().T / n + 0.5 * np.eye(n)
    sigma = float(rng.uniform(0.5, 2.0))
    b = np.einsum("ij,kl->ijkl", h, h) + np.einsum("il,kj->ijkl", h, h)
    return h, -sigma * b, sigma


# Suites per pass: (suite, n values, k values, count, cases they give).
ALGEBRA_SUITES = (
    ("interpolation", (3,), (1, 2), 1, 2),
    ("ric-scalar", (3,), (2,), 1, 1),
    ("royden", (4, 5, 6), (2,), 1, 3),
    ("berger", (2, 3), (2,), 1, 2),
)
FORMS_PER_PASS = 2


def suite_ops(seeds: dict) -> list[Op]:
    """One run_suite call per ALGEBRA_SUITES entry, with ``seeds[suite]``."""
    return [
        _suite_op(suite, kricci.suites.SuiteConfig(
            suite=suite, n_values=n_values, k_values=k_values, count=count, seed=seeds[suite],
        ), cases)
        for suite, n_values, k_values, count, cases in ALGEBRA_SUITES
    ]


def model_ops(workdir: Path, index: int, n: int, seed: int) -> list[Op]:
    """Certify model ``index`` at k=1 and k=2 against its exact -(k+1) sigma."""
    h, model, sigma = model_form(index, n)
    h_path = write_form(workdir / f"model-{index}-h.json", h)
    s_path = write_form(workdir / f"model-{index}.json", model)
    return [
        _certify_op(workdir, f"model{index}-k{k}", s_path, k, -(k + 1) * sigma, seed,
                    metric=h_path)
        for k in (1, 2)
    ]


def algebra_workload(seed, workdir):
    """Passes drawn from the pools of reference.json: pool forms and models
    with certify seeds, and suite seeds, each checked to pass by
    make_reference.py (see README.md, Correctness)."""
    reference = json.loads(REFERENCE_FILE.read_text())
    n, pool, models = reference["n"], reference["forms"], reference["models"]
    order = np.random.default_rng([seed, 0]).permutation(len(pool))
    model_order = np.random.default_rng([seed, 2]).permutation(len(models))
    cache: dict[int, list[Op]] = {}

    def passes(index: int) -> list[Op]:
        if index in cache:
            return cache[index]
        rng = np.random.default_rng([seed, 1, index])
        ops = []
        for slot in range(FORMS_PER_PASS):
            entry = pool[order[(index * FORMS_PER_PASS + slot) % len(pool)]]
            path = write_form(workdir / f"form-{entry['index']}.json",
                              pool_form(entry["index"], n))
            for k in (1, 2):
                ops.append(_certify_op(workdir, f"pool{entry['index']}-k{k}", path, k,
                                       entry[f"k{k}"], int(rng.choice(reference["certify_seeds"]))))
        ops += model_ops(workdir, models[model_order[index % len(models)]], n,
                         int(rng.choice(reference["certify_seeds"])))
        ops += suite_ops({suite: int(rng.choice(values))
                          for suite, values in reference["suite_seeds"].items()})
        cache[index] = ops
        return ops

    return Workload(passes, traced_passes=2)


WORKLOADS = {
    # n=1 fd2: hundreds of CFL-limited RK2 steps per run on 1x1 matrices.
    "flow-n1-fd2": lambda seed, workdir: flow_workload(
        "flow-n1-fd2", seed, workdir, n=1, N=64, discretization="fd2",
        t_end=0.02, cadence=10, tolerance=1e-2, traced_passes=6, elasticity=1.0,
    ),
    # n=2 spectral with mixed wavevectors: complex g_12, dense diagnostics.
    # Its 4 MB arrays slow less than the probe when the VM slows (slope 0.6-0.9).
    "flow-n2-spectral": lambda seed, workdir: flow_workload(
        "flow-n2-spectral", seed, workdir, n=2, N=16, discretization="spectral",
        t_end=0.0025, cadence=2, tolerance=5e-2, traced_passes=2, elasticity=0.7,
    ),
    # n=3 certificates and lemma suites: no grid code at all.
    "algebra": algebra_workload,
}
