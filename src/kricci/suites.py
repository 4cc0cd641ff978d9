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
from dataclasses import asdict, dataclass

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
    require_sample_count,
    ric_scalar_matrix,
    royden_identity_check,
)

__all__ = [
    "CaseRecord",
    "RicKUpper",
    "SUITES",
    "SuiteConfig",
    "SuiteReport",
    "generate_forms",
    "run_suite",
]

_MODEL_SIGMAS = (0.5, 1.0, 2.0)

# Points per interpolation case at which the bound is evaluated.
INTERPOLATION_DIRECTIONS = 64

# Lighter than the library default: suites certify many instances and only
# need the optimum to the tolerance of the downstream inequality.
SUITE_CERTIFY = CertifyOptions(starts=16, presweep=256, max_iter=120)


@dataclass(frozen=True)
class _Suite:
    """A registry entry.  ``builder`` names a case builder on this module,
    looked up when the suite runs; a suite with a ``min_k`` runs one case per
    k in ``k_values`` from ``min_k`` up to n, the others take no k."""

    builder: str
    tolerance: float
    n_values: tuple[int, ...]
    min_k: int | None = None


_REGISTRY = {
    "royden": _Suite("_royden_case", 1e-10, (1, 2, 3)),
    "interpolation": _Suite("_interpolation_case", 1e-8, (2, 3), min_k=1),
    "mixed-trace": _Suite("_mixed_trace_case", 1e-8, (2, 3)),
    "ric-scalar": _Suite("_ric_scalar_case", 1e-10, (2, 3), min_k=2),
    "berger": _Suite("_berger_case", BERGER_TOL, (2, 3)),
    "rigidity-model": _Suite("_rigidity_case", 1e-12, (2, 3)),
}

SUITES = tuple(_REGISTRY)


@dataclass
class SuiteConfig:
    """One suite run; ``n_values`` and ``tolerance`` default to the suite's
    registry entry."""

    suite: str
    n_values: tuple[int, ...] | None = None
    k_values: tuple[int, ...] = (2,)
    count: int = 5
    seed: int = 0
    tolerance: float | None = None
    # Monte Carlo points per berger case: 0 draws none, otherwise at least 2.
    samples: int = 0

    def __post_init__(self):
        if self.suite not in SUITES:
            raise ValueError(f"unknown suite {self.suite!r}; options: {', '.join(SUITES)}")
        entry = _REGISTRY[self.suite]
        if self.n_values is None:
            self.n_values = entry.n_values
        if self.tolerance is None:
            self.tolerance = entry.tolerance
        if self.count < 0:
            raise ValueError("count must be nonnegative")
        if any(n < 1 for n in self.n_values):
            raise ValueError("dimensions must be positive")
        if any(k < 1 for k in self.k_values):
            raise ValueError("k values must be positive")
        require_sample_count(self.samples)


@dataclass
class CaseRecord:
    case_id: str
    lemma: str
    lhs: float
    rhs: float
    margin: float
    passed: bool
    # Berger cases with ``SuiteConfig.samples`` > 0 only: whether the Monte
    # Carlo sphere average from that many points lies within 3 standard
    # errors of the scalar curvature.  Reported evidence; ``passed`` does not
    # depend on it.  None when no estimate was drawn.
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


def _certified_max(S, h, k, rng) -> float:
    return certify_k_ricci(S, h, k, bound=math.inf, options=SUITE_CERTIFY, rng=rng).value


def _royden_case(config: SuiteConfig, case_id, n, k, index, rng) -> CaseRecord:
    S, h = _random_instance(n, rng)
    g = random_hermitian(n, rng, positive=True)
    rho = random_hermitian(n, rng)
    report = royden_identity_check(S, g, h, rho=rho, tol=config.tolerance)
    residual = max(report.quartic_residual, report.metric_residual, report.rho_residual)
    return CaseRecord(
        case_id=case_id,
        lemma="frame-enumeration-identity",
        lhs=report.quartic_bruteforce,
        rhs=report.quartic_closed,
        margin=-residual,
        passed=report.ok,
    )


def _interpolation_case(config: SuiteConfig, case_id, n, k, index, rng) -> CaseRecord:
    S, h = _random_instance(n, rng)
    top = _certified_max(S, h, k, np.random.default_rng(rng.integers(2**63)))
    sigma = -top / (k + 1)
    X = unit_sphere_samples(h, INTERPOLATION_DIRECTIONS, rng)
    X = X * rng.uniform(0.5, 2.0, size=(X.shape[0], 1))
    report = interpolation_check(S, h, k, sigma, X, tol=config.tolerance)
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


def _mixed_trace_case(config: SuiteConfig, case_id, n, k, index, rng) -> CaseRecord:
    S, h = _random_instance(n, rng)
    g = random_hermitian(n, rng, positive=True)
    rho = random_hermitian(n, rng)
    alpha = beta = 1.0
    combined = symmetrize(
        beta * S.entries + alpha * np.einsum("ij,kl->ijkl", h.entries, rho.entries)
    )
    top = _certified_max(combined, h, 1, np.random.default_rng(rng.integers(2**63)))
    lam = top + 1e-10 * (1.0 + abs(top))
    params = CurvatureParams(alpha=alpha, beta=beta, lam=lam)
    report = mixed_trace_bounds(S, g, h, rho, params, tol=config.tolerance)
    margin = min(report.slack_coarse, report.slack_refined) / (1.0 + abs(report.lhs))
    return CaseRecord(
        case_id=case_id,
        lemma="mixed-trace-bound",
        lhs=report.lhs,
        rhs=report.rhs_refined,
        margin=margin,
        passed=report.ok,
    )


def _ric_scalar_case(config: SuiteConfig, case_id, n, k, index, rng) -> CaseRecord:
    S, h = _random_instance(n, rng)
    top = _certified_max(S, h, k, np.random.default_rng(rng.integers(2**63)))
    sigma = -top / (k + 1)
    report = ric_scalar_matrix(S, h, k, sigma, tol=config.tolerance)
    scale = 1.0 + float(np.max(np.abs(report.eigenvalues)))
    return CaseRecord(
        case_id=case_id,
        lemma="trace-combination-negativity",
        lhs=report.max_eigenvalue,
        rhs=0.0,
        margin=-report.max_eigenvalue / scale,
        passed=report.ok,
    )


def _berger_case(config: SuiteConfig, case_id, n, k, index, rng) -> CaseRecord:
    S, h = _random_instance(n, rng)
    report = berger_check(S, h, samples=config.samples, rng=rng, tol=config.tolerance)
    deviation = abs(report.scalar - report.quadrature) / (1.0 + abs(report.scalar))
    return CaseRecord(
        case_id=case_id,
        lemma="sphere-average-scalar",
        lhs=report.quadrature,
        rhs=report.scalar,
        margin=-deviation,
        passed=report.ok,
        within_z=report.within_z,
    )


def _rigidity_case(config: SuiteConfig, case_id, n, k, index, rng) -> CaseRecord:
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
        passed=bool(margin >= -config.tolerance),
    )


def _run_cases(config: SuiteConfig) -> list[CaseRecord]:
    """Run the suite's cases one after another in their deterministic order.

    Every builder takes (config, case id, n, k or None, case index, the
    case's own generator keyed by (seed, case index)).
    """
    suite = config.suite
    entry = _REGISTRY[suite]
    builder = globals()[entry.builder]
    records: list[CaseRecord] = []
    for n in config.n_values:
        if entry.min_k is None:
            ks = [None]
        else:
            ks = [k for k in config.k_values if entry.min_k <= k <= n]
        for k in ks:
            tag = "" if k is None else f"-k{k}"
            for i in range(config.count):
                index = len(records)
                rng = np.random.default_rng([config.seed, index])
                records.append(builder(config, f"{suite}-n{n}{tag}-{i:03d}", n, k, index, rng))
    return records


def run_suite(config: SuiteConfig) -> SuiteReport:
    start = time.perf_counter()
    records = _run_cases(config)
    tolerance = config.tolerance
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
) -> list[tuple[BihermitianForm, float]]:
    """Deterministic stream of random forms, each with its recorded shift.

    Unconstrained forms are emitted as drawn (shift 0).  Under a constraint
    the form is shifted along the model direction until its k-Ricci maximum,
    certified with ``SUITE_CERTIFY``, sits below the bound; the shift is exact
    to first order because the extreme moves linearly along that direction, so
    one correction normally suffices.  Raises RuntimeError after 100 failed
    attempts.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if constraint is not None and n > 6:
        raise ValueError("constrained generation supports n <= 6")
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
                    S, h, k, bound=bound, options=SUITE_CERTIFY, rng=np.random.default_rng([seed, i, attempt])
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
