"""Two-qubit Werner state toolkit.

Builds the Werner family W(q) = q |psi_minus><psi_minus| + (1-q)/4 I, decides
separability with the partial-transpose criterion, materializes two explicit
product-state decompositions for the separable range q <= 1/3, and validates
the induced local hidden variable model by seeded Monte Carlo.
"""

from .decomposition import (
    DecompositionDomainError,
    MomentReport,
    SphericalDecomposition,
    WoottersDecomposition,
    moment_check,
    phase_constraint_residual,
    reconstruct,
    schmidt_determinant,
    schmidt_rank_one_check,
    spherical_decomposition,
    sphere_direction,
    wootters_decomposition,
)
from .hiddenvar import (
    HvEstimate,
    HvEstimates,
    HvSample,
    estimate_all,
    estimate_correlation,
    estimate_local,
    outcome_a,
    outcome_b,
)
from .linalg import (
    HERMITIAN_TOL,
    IDENTITY_2,
    IDENTITY_4,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    hermitian_eigenvalues,
    is_hermitian,
    kron,
    partial_transpose_b,
)
from .separability import (
    PptVerdict,
    correlation,
    local_expectation,
    ppt_test,
    werner_pt_eigenvalues_closed_form,
)
from .states import (
    PositivityError,
    SEPARABLE_Q_MAX,
    bell_state,
    bloch_state,
    marginal,
    product_state,
    werner,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DecompositionDomainError",
    "HERMITIAN_TOL",
    "HvEstimate",
    "HvEstimates",
    "HvSample",
    "IDENTITY_2",
    "IDENTITY_4",
    "MomentReport",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "PositivityError",
    "PptVerdict",
    "SEPARABLE_Q_MAX",
    "SphericalDecomposition",
    "WoottersDecomposition",
    "bell_state",
    "bloch_state",
    "correlation",
    "estimate_all",
    "estimate_correlation",
    "estimate_local",
    "hermitian_eigenvalues",
    "is_hermitian",
    "kron",
    "local_expectation",
    "marginal",
    "moment_check",
    "outcome_a",
    "outcome_b",
    "partial_transpose_b",
    "phase_constraint_residual",
    "ppt_test",
    "product_state",
    "reconstruct",
    "schmidt_determinant",
    "schmidt_rank_one_check",
    "sphere_direction",
    "spherical_decomposition",
    "werner",
    "werner_pt_eigenvalues_closed_form",
    "wootters_decomposition",
]
