"""momprob: moment sequences, Jacobi matrices and measures at high precision.

The library converts among the three equivalent descriptions of a moment
problem (normalized moment sequence, semi-infinite Jacobi matrix, measure),
classifies determinacy through Weyl-circle radii, constructs bases of
matrix representation (Gaussian-damped vectors and weighted orthonormal
polynomials) and estimates the index of determinacy of a measure.
"""

from .errors import (
    AlphaBelowThreshold,
    CoefficientExhausted,
    DegenerateHankel,
    FiniteSupport,
    InfiniteMass,
    InsufficientMoments,
    MomentProblemError,
    NonFinite,
    PrecisionLoss,
    QuadratureFailure,
    RealPoint,
    TruncationTooSmall,
    ZeroMass,
)
from .precision import BIGFLOAT, DOUBLE, RATIONAL, PrecisionConfig
from .moments import (
    MomentSequence,
    hankel_determinants,
    jacobi_to_moments,
    moments_to_jacobi,
    validate_positive,
)
from .jacobi import (
    DETERMINATE,
    INCONCLUSIVE,
    INDETERMINATE,
    ClassifyPolicy,
    DeterminacyVerdict,
    JacobiMatrix,
    classify,
    pi_eval,
    truncation_spectrum,
    weyl_radii,
    weyl_radius,
)
from .measures import (
    Measure,
    Multiplier,
    QuadratureSpec,
    gauss_damp,
    integrate,
    measure_to_jacobi,
    moments_of,
    normalize,
    power_reweight,
)
from .bases import (
    BasisAtTruncation,
    f_basis_gram,
    f_basis_jacobi,
    gram_deviation,
    representation_diagnostic,
    stone_jacobi_measure_route,
    stone_jacobi_operator_route,
)
from .determinacy import (
    AT_LEAST,
    FINITE,
    NOT_DETERMINATE,
    IndexReport,
    index_of_determinacy,
    infinite_index_probe,
)
from . import families

__version__ = "0.1.0"

__all__ = [
    "AlphaBelowThreshold",
    "AT_LEAST",
    "BIGFLOAT",
    "BasisAtTruncation",
    "ClassifyPolicy",
    "CoefficientExhausted",
    "DETERMINATE",
    "DOUBLE",
    "DegenerateHankel",
    "DeterminacyVerdict",
    "FINITE",
    "FiniteSupport",
    "INCONCLUSIVE",
    "INDETERMINATE",
    "IndexReport",
    "InfiniteMass",
    "InsufficientMoments",
    "JacobiMatrix",
    "Measure",
    "MomentProblemError",
    "MomentSequence",
    "Multiplier",
    "NOT_DETERMINATE",
    "NonFinite",
    "PrecisionConfig",
    "PrecisionLoss",
    "QuadratureFailure",
    "QuadratureSpec",
    "RATIONAL",
    "RealPoint",
    "TruncationTooSmall",
    "ZeroMass",
    "classify",
    "f_basis_gram",
    "f_basis_jacobi",
    "families",
    "gauss_damp",
    "gram_deviation",
    "hankel_determinants",
    "index_of_determinacy",
    "infinite_index_probe",
    "integrate",
    "jacobi_to_moments",
    "measure_to_jacobi",
    "moments_of",
    "moments_to_jacobi",
    "normalize",
    "pi_eval",
    "power_reweight",
    "representation_diagnostic",
    "stone_jacobi_measure_route",
    "stone_jacobi_operator_route",
    "truncation_spectrum",
    "validate_positive",
    "weyl_radii",
    "weyl_radius",
]
