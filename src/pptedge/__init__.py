"""PPT edge states, entanglement witnesses, and product-vector range analysis.

The package provides exact constructors for two 3x3 PPT entangled edge
states of ranks (5,5) and (6,6), the separability tests that detect them
(partial transposition, realignment, range membership), a deterministic
multistart see-saw optimizer over product and Schmidt-rank-2 states, and two
entanglement witness constructions with shifted variants.
"""

__version__ = "0.1.0"

from .bipartite import (
    BipartiteOperator,
    InvalidStateError,
    ProductVector,
    partial_transpose,
    realign,
    schmidt_coefficients,
    validate_density,
)
from .catalog import CatalogEntry, ProductVectorFamily, range_families, reference_states, rho_5_5, rho_6_6
from .criteria import (
    CriterionReport,
    EdgeCertificate,
    certify_edge,
    edge_operator,
    is_ppt,
    realignment_criterion,
)
from .exceptions import MatrixFileError, NotApplicableError
from .linalg import (
    RationalMatrix,
    Spectrum,
    exact_rank,
    residual_norm,
    span_projector,
    trace_norm,
)
from .optimize import (
    OptResult,
    RankTwoFactors,
    SeeSawConfig,
    min_generic_quadratic,
    min_schmidt2_expectation,
)
from .serialize import read_matrix_file, write_matrix_file
from .witness import Witness, evaluate, kernel_witness, realignment_witness, schmidt2_evidence, shift_witness

__all__ = [
    "BipartiteOperator",
    "CatalogEntry",
    "CriterionReport",
    "EdgeCertificate",
    "InvalidStateError",
    "MatrixFileError",
    "NotApplicableError",
    "OptResult",
    "ProductVector",
    "ProductVectorFamily",
    "RankTwoFactors",
    "RationalMatrix",
    "SeeSawConfig",
    "Spectrum",
    "Witness",
    "certify_edge",
    "edge_operator",
    "evaluate",
    "exact_rank",
    "is_ppt",
    "kernel_witness",
    "min_generic_quadratic",
    "min_schmidt2_expectation",
    "partial_transpose",
    "range_families",
    "read_matrix_file",
    "realign",
    "realignment_criterion",
    "realignment_witness",
    "reference_states",
    "residual_norm",
    "rho_5_5",
    "rho_6_6",
    "schmidt2_evidence",
    "schmidt_coefficients",
    "shift_witness",
    "span_projector",
    "trace_norm",
    "validate_density",
    "write_matrix_file",
]
