"""Randomized verification suites for the curvature lemmas.

Each suite draws a deterministic stream of instances from its seed, runs one
lemma check per instance, and reduces the outcomes into a report with
per-case records and a summary.  Cases run one after another in case order;
every case owns an independent generator keyed by (seed, case index), so a
case's numbers do not depend on which other cases run.

A case passes when its margin is at least minus the suite tolerance.  Margins
are oriented so that positive means "inequality satisfied with room" and are
normalized by the scale of the compared quantities.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .extremes import CertifyOptions, certify_k_ricci, k_ricci_extreme_at
from .forms import (
    BihermitianForm,
    CurvatureParams,
    HermitianForm,
    b_form,
    quartic_values,
    random_bihermitian,
    random_hermitian,
    ricci_trace,
    scalar,
    shift_sigma,
    symmetrize,
    unit_sphere_samples,
)
from .royden import (
    BERGER_TOL,
    berger_check,
    interpolation_check,
    mixed_trace_bounds,
    ric_scalar_matrix,
    royden_identity_check,
)

__all__ = [
    "CaseRecord",
    "RicKUpper",
    "SUITES",
    "SuiteConfig",
    "SuiteReport",
    "default_tolerance",
    "generate_forms",
    "run_suite",
]

SUITES = (
    "royden",
    "interpolation",
    "mixed-trace",
    "ric-scalar",
    "berger",
    "rigidity-model",
)

_DEFAULT_TOLERANCES = {
    "royden": 1e-10,
    "interpolation": 1e-8,
    "mixed-trace": 1e-8,
    "ric-scalar": 1e-10,
    "berger": 0.0,
    "rigidity-model": 1e-12,
}

_MODEL_SIGMAS = (0.5, 1.0, 2.0)


def default_tolerance(suite: str) -> float:
    return _DEFAULT_TOLERANCES[suite]


def _suite_certify_options() -> CertifyOptions:
    # Lighter than the library default: suites certify many instances and
    # only need the optimum to the tolerance of the downstream inequality.
    return CertifyOptions(starts=16, presweep=256, max_iter=120)


@dataclass
class SuiteConfig:
    suite: str
    n_values: tuple[int, ...] = (2, 3)
    k_values: tuple[int, ...] = (2,)
    count: int = 5
    seed: int = 0
    tolerance: float | None = None
    samples: int = 100_000
    directions: int = 64
    certify: CertifyOptions = field(default_factory=_suite_certify_options)

    def __post_init__(self):
        if self.suite not in SUITES:
            raise ValueError(f"unknown suite {self.suite!r}; options: {', '.join(SUITES)}")
        if self.count < 0:
            raise ValueError("count must be nonnegative")
        if any(n < 1 for n in self.n_values):
            raise ValueError("dimensions must be positive")
        if any(k < 1 for k in self.k_values):
            raise ValueError("k values must be positive")

    @property
    def resolved_tolerance(self) -> float:
        if self.tolerance is not None:
            return self.tolerance
        return default_tolerance(self.suite)


@dataclass
class CaseRecord:
    case_id: str
    lemma: str
    lhs: float
    rhs: float
    margin: float
    passed: bool
    # Berger cases only: whether the Monte Carlo sphere average from
    # ``SuiteConfig.samples`` points lies within 3 standard errors of the
    # scalar curvature.  Reported evidence; ``passed`` does not depend on it.
    within_z: bool | None = None


@dataclass
class SuiteReport:
    suite: str
    tolerance: float
    seed: int
    cases: list[CaseRecord]
    pass_count: int
    worst_margin: float
    wall_time: float
    ok: bool

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "tolerance": self.tolerance,
            "seed": self.seed,
            "cases": [asdict(case) for case in self.cases],
            "summary": {
                "pass_count": self.pass_count,
                "n_cases": len(self.cases),
                "worst_margin": self.worst_margin,
                "wall_time": self.wall_time,
                "ok": self.ok,
            },
        }


def _random_instance(n: int, rng: np.random.Generator):
    S = random_bihermitian(n, rng)
    h = random_hermitian(n, rng, positive=True)
    return S, h


def _certified_max(S, h, k, options, rng) -> float:
    return certify_k_ricci(S, h, k, bound=math.inf, options=options, rng=rng).value


def _royden_case(config: SuiteConfig, case_id: str, n: int, rng) -> CaseRecord:
    S, h = _random_instance(n, rng)
    g = random_hermitian(n, rng, positive=True)
    rho = random_hermitian(n, rng)
    tol = config.resolved_tolerance
    report = royden_identity_check(S, g, h, rho=rho, tol=tol)
    residual = max(report.quartic_residual, report.metric_residual, report.rho_residual)
    return CaseRecord(
        case_id=case_id,
        lemma="frame-enumeration-identity",
        lhs=report.quartic_bruteforce,
        rhs=report.quartic_closed,
        margin=-residual,
        passed=report.ok,
    )


def _interpolation_case(config: SuiteConfig, case_id: str, n: int, k: int, rng) -> CaseRecord:
    S, h = _random_instance(n, rng)
    tol = config.resolved_tolerance
    top = _certified_max(S, h, k, config.certify, np.random.default_rng(rng.integers(2**63)))
    sigma = -top / (k + 1)
    X = unit_sphere_samples(h, config.directions, rng)
    X = X * rng.uniform(0.5, 2.0, size=(X.shape[0], 1))
    report = interpolation_check(S, h, k, sigma, X, tol=tol)
    idx = int(np.argmin(report.margins))
    scale = 1.0 + float(np.max(np.abs(report.rhs)))
    return CaseRecord(
        case_id=case_id,
        lemma="interpolation-bound",
        lhs=float(report.lhs[idx]),
        rhs=float(report.rhs[idx]),
        margin=report.worst_margin / scale,
        passed=report.ok,
    )


def _mixed_trace_case(config: SuiteConfig, case_id: str, n: int, rng) -> CaseRecord:
    S, h = _random_instance(n, rng)
    g = random_hermitian(n, rng, positive=True)
    rho = random_hermitian(n, rng)
    alpha = beta = 1.0
    combined = symmetrize(
        beta * S.entries + alpha * np.einsum("ij,kl->ijkl", h.entries, rho.entries)
    )
    top = _certified_max(
        combined, h, 1, config.certify, np.random.default_rng(rng.integers(2**63))
    )
    lam = top + 1e-10 * (1.0 + abs(top))
    tol = config.resolved_tolerance
    report = mixed_trace_bounds(
        S, g, h, rho, CurvatureParams(alpha=alpha, beta=beta, lam=lam), tol=tol
    )
    margin = min(report.slack_coarse, report.slack_refined) / (1.0 + abs(report.lhs))
    return CaseRecord(
        case_id=case_id,
        lemma="mixed-trace-bound",
        lhs=report.lhs,
        rhs=report.rhs_refined,
        margin=margin,
        passed=report.ok,
    )


def _ric_scalar_case(config: SuiteConfig, case_id: str, n: int, k: int, rng) -> CaseRecord:
    S, h = _random_instance(n, rng)
    tol = config.resolved_tolerance
    top = _certified_max(S, h, k, config.certify, np.random.default_rng(rng.integers(2**63)))
    sigma = -top / (k + 1)
    report = ric_scalar_matrix(S, h, k, sigma, tol=tol)
    scale = 1.0 + float(np.max(np.abs(report.eigenvalues)))
    return CaseRecord(
        case_id=case_id,
        lemma="trace-combination-negativity",
        lhs=report.max_eigenvalue,
        rhs=0.0,
        margin=-report.max_eigenvalue / scale,
        passed=report.ok,
    )


def _berger_case(config: SuiteConfig, case_id: str, n: int, rng) -> CaseRecord:
    S, h = _random_instance(n, rng)
    report = berger_check(S, h, samples=config.samples, rng=rng)
    deviation = abs(report.scalar - report.quadrature) / (1.0 + abs(report.scalar))
    return CaseRecord(
        case_id=case_id,
        lemma="sphere-average-scalar",
        lhs=report.quadrature,
        rhs=report.scalar,
        margin=BERGER_TOL - deviation,
        passed=report.ok,
        within_z=report.within_z,
    )


def _rigidity_case(config: SuiteConfig, case_id: str, n: int, index: int, rng) -> CaseRecord:
    sigma = _MODEL_SIGMAS[index % len(_MODEL_SIGMAS)]
    h = random_hermitian(n, rng, positive=True)
    S = BihermitianForm(-sigma * b_form(h).entries)
    X = unit_sphere_samples(h, 32, rng)
    deviations = [float(np.max(np.abs(quartic_values(S, X) + 2.0 * sigma)))]
    ric = ricci_trace(S, h)
    deviations.append(float(np.max(np.abs(ric.entries + (n + 1) * sigma * h.entries))))
    sc = scalar(S, h)
    deviations.append(abs(sc + n * (n + 1) * sigma))
    for k in config.k_values:
        if k > n:
            continue
        for which in ("max", "min"):
            value, _ = k_ricci_extreme_at(S, h, X[0], k, which=which)
            deviations.append(abs(value + (k + 1) * sigma))
    scale = 1.0 + n * (n + 1) * sigma
    worst = max(deviations)
    margin = -worst / scale
    return CaseRecord(
        case_id=case_id,
        lemma="model-constant-curvature",
        lhs=sc,
        rhs=-n * (n + 1) * sigma,
        margin=margin,
        passed=bool(margin >= -config.resolved_tolerance),
    )


def _run_cases(config: SuiteConfig) -> list[CaseRecord]:
    """Run the suite's cases one after another in their deterministic order."""
    suite = config.suite
    records: list[CaseRecord] = []

    def rng() -> np.random.Generator:
        # The next case's own generator, keyed by (seed, case index).
        return np.random.default_rng([config.seed, len(records)])

    if suite in ("royden", "mixed-trace", "berger"):
        builder = {
            "royden": _royden_case,
            "mixed-trace": _mixed_trace_case,
            "berger": _berger_case,
        }[suite]
        for n in config.n_values:
            for i in range(config.count):
                records.append(builder(config, f"{suite}-n{n}-{i:03d}", n, rng()))
    elif suite in ("interpolation", "ric-scalar"):
        builder = {
            "interpolation": _interpolation_case,
            "ric-scalar": _ric_scalar_case,
        }[suite]
        min_k = 2 if suite == "ric-scalar" else 1
        for n in config.n_values:
            for k in config.k_values:
                if k > n or k < min_k:
                    continue
                for i in range(config.count):
                    records.append(builder(config, f"{suite}-n{n}-k{k}-{i:03d}", n, k, rng()))
    elif suite == "rigidity-model":
        for n in config.n_values:
            for i in range(config.count):
                index = len(records)
                records.append(_rigidity_case(config, f"{suite}-n{n}-{i:03d}", n, index, rng()))
    return records


def run_suite(config: SuiteConfig) -> SuiteReport:
    start = time.perf_counter()
    records = _run_cases(config)
    tolerance = config.resolved_tolerance
    pass_count = sum(record.passed for record in records)
    worst = min((record.margin for record in records), default=math.inf)
    return SuiteReport(
        suite=config.suite,
        tolerance=tolerance,
        seed=config.seed,
        cases=records,
        pass_count=pass_count,
        worst_margin=worst,
        wall_time=time.perf_counter() - start,
        ok=pass_count == len(records),
    )


@dataclass
class RicKUpper:
    """Generation constraint: certified max of the k-Ricci extreme <= bound."""

    k: int
    bound: float


def generate_forms(
    n: int,
    count: int,
    seed: int,
    constraint: RicKUpper | None = None,
    certify: CertifyOptions | None = None,
) -> list[tuple[BihermitianForm, float]]:
    """Deterministic stream of random forms, each with its recorded shift.

    Unconstrained forms are emitted as drawn (shift 0).  Under a constraint
    the form is shifted along the model direction until the certified k-Ricci
    maximum sits below the bound; the shift is exact to first order because
    the extreme moves linearly along that direction, so one correction
    normally suffices.  Raises RuntimeError after 100 failed attempts.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if constraint is not None and n > 6:
        raise ValueError("constrained generation supports n <= 6")
    options = certify or _suite_certify_options()
    h = HermitianForm(np.eye(n))
    out = []
    for i in range(count):
        rng = np.random.default_rng([seed, i])
        S = random_bihermitian(n, rng)
        shift = 0.0
        if constraint is not None:
            k, bound = constraint.k, constraint.bound
            placed = False
            for attempt in range(100):
                cert = certify_k_ricci(
                    S, h, k, bound=bound, options=options, rng=np.random.default_rng([seed, i, attempt])
                )
                if cert.status == "satisfied":
                    placed = True
                    break
                slack = 1e-6 * (1.0 + abs(bound))
                delta = (bound - slack - cert.value) / (k + 1)
                S = shift_sigma(S, h, delta)
                shift += delta
            if not placed:
                raise RuntimeError(
                    f"could not reach certified bound {bound} for instance {i} in 100 shift attempts"
                )
        out.append((S, shift))
    return out
