"""PPT edge states, entanglement witnesses, and product-vector range analysis.

The package provides exact constructors for two 3x3 PPT entangled edge
states of ranks (5,5) and (6,6), the separability tests that detect them
(partial transposition, realignment, range membership), a deterministic
multistart see-saw optimizer over product and Schmidt-rank-2 states, and two
entanglement witness constructions with shifted variants. Every test,
optimizer and witness takes its state or operator as a
:class:`BipartiteOperator`; a catalog entry holds one as ``entry.state``.
"""

__version__ = "0.1.0"

from .bipartite import (
    BipartiteOperator,
    ProductVector,
    realign,
    schmidt_coefficients,
    validate_density,
)
from .catalog import CatalogEntry
from .criteria import (
    CriterionReport,
    EdgeCertificate,
    certify_edge,
    edge_operator,
    is_ppt,
    realignment_criterion,
)
from .exceptions import InvalidStateError, MatrixFileError, NotApplicableError
from .linalg import Spectrum, exact_rank, residual_norm
from .optimize import (
    OptResult,
    RankTwoFactors,
    SeeSawConfig,
    min_generic_quadratic,
    min_schmidt2_expectation,
    min_schmidt2_expectations,
)
from .serialize import read_matrix_file, write_matrix_file
from .witness import Witness, evaluate, kernel_witness, realignment_witness, shift_witness

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
    "RankTwoFactors",
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
    "min_schmidt2_expectations",
    "read_matrix_file",
    "realign",
    "realignment_criterion",
    "realignment_witness",
    "residual_norm",
    "schmidt_coefficients",
    "shift_witness",
    "validate_density",
    "write_matrix_file",
]
