import numpy as np
import pytest

from pptedge import catalog
from pptedge.optimize import SeeSawConfig

# Expected partial transposes of the catalog states, integer numerators over 13.
# These are independent fixtures: the library never stores them and must
# reproduce them entrywise by index permutation alone.
PT_5_5_NUM = np.array(
    [
        [0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 2, -1, 0, 0, 0, 0, 0, 0],
        [0, -1, 1, 0, 0, 0, 0, 1, -1],
        [0, 0, 0, 3, 0, -1, -1, 0, 1],
        [0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, -1, 0, 1, 0, 0, 0],
        [0, 0, 0, -1, 0, 0, 1, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 2, -2],
        [0, 0, -1, 1, 0, 0, 0, -2, 3],
    ]
)

PT_6_6_NUM = np.array(
    [
        [1, 0, 0, 0, -1, 0, 0, 0, 1],
        [0, 2, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, -1, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, 1, 0],
        [-1, 0, 0, 0, 1, 0, 0, 0, -1],
        [0, 0, 0, 0, 0, 1, 1, 0, 0],
        [0, 0, -1, 0, 0, 1, 2, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, 1, 0],
        [1, 0, 0, 0, -1, 0, 0, 0, 3],
    ]
)

# Regression constants. Trace norms were computed once with the Hermitian
# dilation oracle (helpers.dilation_trace_norm); optimizer values are the
# converged multistart minima at the default configuration, stable across
# seeds to well below the pinned tolerance.
TRACE_NORM_5_5 = 1.0127220255579656
TRACE_NORM_6_6 = 1.0117527157614901
EDGE_MIN_5_5 = 6.2954365439797785e-3
EDGE_MIN_6_6 = 2.0611481564405099e-3
EPS_5_5 = 7.8692957358340268e-4
EPS_6_6 = 3.4352469274473717e-4


@pytest.fixture(scope="session")
def rho55() -> catalog.CatalogEntry:
    return catalog.get("rho_5_5")


@pytest.fixture(scope="session")
def rho66() -> catalog.CatalogEntry:
    return catalog.get("rho_6_6")


@pytest.fixture(scope="session")
def fast_cfg() -> SeeSawConfig:
    """Reduced multistart budget for module tests; acceptance uses defaults."""
    return SeeSawConfig(restarts=60, max_iter=400, seed=11)
