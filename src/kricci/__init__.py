"""Curvature workbench: bihermitian form algebra, k-Ricci certification,
diagonalisation identities, and a twisted parabolic potential flow on flat
torus models."""

from .errors import (
    DegeneracyError,
    FlowDegenerateError,
    HypothesisError,
    ResourceLimitError,
    TooFewSnapshotsError,
)
from .extremes import (
    Certificate,
    CertifyOptions,
    certify_k_ricci,
    h_orthocomplement,
    k_ricci_extreme_at,
    k_ricci_on,
)
from .flow import (
    FlowConfig,
    FlowResult,
    TwistSpec,
    check_potential_identities,
    check_scalar_bound,
    check_schwarz,
    check_trace_evolution,
    check_volume_bound,
    horizon_estimate,
    run_flow,
)
from .forms import (
    BihermitianForm,
    CurvatureParams,
    HermitianForm,
    SubspaceBasis,
    b_form,
    hsc,
    random_bihermitian,
    random_hermitian,
    ricci_trace,
    scalar,
    shift_sigma,
    symmetrize,
    validate_symmetries,
)
from .grid import (
    MetricField,
    PeriodicGrid,
    ScalarField,
    curvature_field,
    dbar_hessian,
    metric_from_potential,
    ricci_field,
    ricci_potential,
    scalar_from_modes,
)
from .royden import (
    berger_check,
    g_unitary_h_diagonal_frame,
    interpolation_check,
    mixed_trace_bounds,
    ric_scalar_matrix,
    royden_identity_check,
)
from .suites import SuiteConfig, SuiteReport, run_suite

__version__ = "0.1.0"
