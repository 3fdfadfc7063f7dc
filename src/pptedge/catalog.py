"""Built-in states: two PPT-entangled edge states plus reference states.

Every entry is an exact integer table: a numerator matrix whose trace is its
common denominator, so exact ranks and the transpose on party B never touch
floating point. The flagship entries are a rank-(5,5) and a rank-(6,6) PPT
entangled state on C^3 (x) C^3, both over 13. The reference entries are the
maximally mixed state (over 9), the maximally entangled projector (over 3)
and ``separable_sample`` (over 28): the sum of (a a^T) (x) (b b^T) over nine
fixed pairs of small real integer vectors, so it is separable by
construction, exactly, of exact ranks (9, 9), and not a product of its
marginals. The flagship entries also carry an exact integer basis of their
range and of the range of rho^T_B, derived from the linear form that
vectors in those ranges must take:

* rho_5_5 range:      (0, A, -E-F, C, 0, D, D, E, F)
* rho_5_5 PT range:   (0, A, B, C, 0, D, E, A+2B, -A-2B+C+D+E)
* rho_6_6 range:      (A, B, C, D, E, F, C+E, -F, B+2D-A)
* rho_6_6 PT range:   (A, B, C, D, -A, E, E-C, D, F)

with one basis vector per free parameter. An entry's ``state`` is the
:class:`~pptedge.bipartite.BipartiteOperator` that every test and witness
takes; the exact data serve exact checks.

A :class:`CatalogEntry` is the one record of what is known about its state:
the exact numerators, the range bases and, computed on first read, the
state and the exact ranks.
Entries are read through :func:`get` or :func:`entries` only. Each is built
once per process, on first use, from its row of one table of integer data,
and shared, so the spectra and exact ranks cached on it are also computed
once, whichever caller reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from . import linalg
from .bipartite import BipartiteOperator, transpose_b

__all__ = [
    "CATALOG_NAMES",
    "CatalogEntry",
    "entries",
    "get",
]

_RHO_5_5_NUM = (
    (0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 2, -1, 0, 0, 0, 0, 0, 1),
    (0, -1, 1, 0, 0, 0, 0, 0, -1),
    (0, 0, 0, 3, 0, -1, -1, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, -1, 0, 1, 1, 0, 0),
    (0, 0, 0, -1, 0, 1, 1, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 2, -2),
    (0, 1, -1, 0, 0, 0, 0, -2, 3),
)

_RHO_6_6_NUM = (
    (1, 0, 0, 0, 0, 0, 0, 0, -1),
    (0, 2, 0, -1, 0, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 0, 1, 0, 0),
    (0, -1, 0, 1, 0, 0, 0, 0, 1),
    (0, 0, 0, 0, 1, 0, 1, 0, 0),
    (0, 0, 0, 0, 0, 1, 0, -1, 0),
    (0, 0, 1, 0, 1, 0, 2, 0, 0),
    (0, 0, 0, 0, 0, -1, 0, 1, 0),
    (-1, 0, 0, 1, 0, 0, 0, 0, 3),
)

# one basis vector per free parameter of the range form, integer entries
_RANGE_BASIS_5_5 = (
    (0, 1, 0, 0, 0, 0, 0, 0, 0),    # A
    (0, 0, 0, 1, 0, 0, 0, 0, 0),    # C
    (0, 0, 0, 0, 0, 1, 1, 0, 0),    # D
    (0, 0, -1, 0, 0, 0, 0, 1, 0),   # E
    (0, 0, -1, 0, 0, 0, 0, 0, 1),   # F
)

_PT_RANGE_BASIS_5_5 = (
    (0, 1, 0, 0, 0, 0, 0, 1, -1),   # A
    (0, 0, 1, 0, 0, 0, 0, 2, -2),   # B
    (0, 0, 0, 1, 0, 0, 0, 0, 1),    # C
    (0, 0, 0, 0, 0, 1, 0, 0, 1),    # D
    (0, 0, 0, 0, 0, 0, 1, 0, 1),    # E
)

_RANGE_BASIS_6_6 = (
    (1, 0, 0, 0, 0, 0, 0, 0, -1),   # A
    (0, 1, 0, 0, 0, 0, 0, 0, 1),    # B
    (0, 0, 1, 0, 0, 0, 1, 0, 0),    # C
    (0, 0, 0, 1, 0, 0, 0, 0, 2),    # D
    (0, 0, 0, 0, 1, 0, 1, 0, 0),    # E
    (0, 0, 0, 0, 0, 1, 0, -1, 0),   # F
)

_PT_RANGE_BASIS_6_6 = (
    (1, 0, 0, 0, -1, 0, 0, 0, 0),   # A
    (0, 1, 0, 0, 0, 0, 0, 0, 0),    # B
    (0, 0, 1, 0, 0, 0, -1, 0, 0),   # C
    (0, 0, 0, 1, 0, 0, 0, 1, 0),    # D
    (0, 0, 0, 0, 0, 1, 1, 0, 0),    # E
    (0, 0, 0, 0, 0, 0, 0, 0, 1),    # F
)

# separable_sample's product vectors (a, b): the state is the sum of (a a^T) (x) (b b^T) over them
_SAMPLE_PAIRS = (
    ((1, 0, 0), (1, 0, 1)), ((0, 1, 0), (0, 1, 0)), ((0, 0, 1), (1, 1, 1)),
    ((1, 1, 0), (0, 0, 1)), ((0, 1, 1), (1, -1, 0)), ((1, 0, 1), (1, 1, 0)),
    ((1, 1, 1), (0, 1, -1)), ((1, -1, 0), (0, 1, 1)), ((0, 1, -1), (1, 0, 0)),
)


@dataclass(frozen=True)
class CatalogEntry:
    """A named state together with everything known about it exactly.

    ``exact`` holds the integer numerator matrix, a read-only ``int64``
    array whose trace is the common ``denominator``, and ``state`` is
    ``exact / denominator``, built on first read. ``range_basis`` and
    ``pt_range_basis`` are read-only ``int64`` (k x 9) arrays whose rows span
    the range of the state and of rho^T_B; reference entries carry ``None``
    there. They are data for exact checks only: ranks and range projectors
    come from the state's spectrum, as for any other state.
    """

    name: str
    exact: np.ndarray
    range_basis: np.ndarray | None = None
    pt_range_basis: np.ndarray | None = None

    @property
    def denominator(self) -> int:
        """The trace of ``exact``: every state has unit trace."""
        return int(self.exact.trace())

    @cached_property
    def state(self) -> BipartiteOperator:
        """The state ``exact / denominator`` on C^3 (x) C^3, built on first read."""
        return BipartiteOperator(self.exact / self.denominator, 3, 3)

    @cached_property
    def exact_ranks(self) -> tuple[int, int]:
        """Exact ranks of ``exact`` and of its transpose on party B, computed on first read."""
        return linalg.exact_rank(self.exact), linalg.exact_rank(transpose_b(self.exact, 3, 3))


def _product_sum(pairs) -> np.ndarray:
    """Sum of (a a^T) (x) (b b^T) over integer pairs (a, b): V^T V, where row t of V is a_t (x) b_t."""
    ab = np.array(pairs, dtype=np.int64)
    v = (ab[:, 0, :, None] * ab[:, 1, None, :]).reshape(len(ab), -1)
    return v.T @ v


def _integers(rows) -> np.ndarray:
    """Read-only ``int64`` array of integer rows."""
    out = np.array(rows, dtype=np.int64)
    out.setflags(write=False)
    return out


def _integer_entry(name: str, numerator, basis=None, pt_basis=None) -> CatalogEntry:
    """Entry of the integer table ``numerator``, with its range bases when given."""
    return CatalogEntry(
        name=name,
        exact=_integers(numerator),
        range_basis=None if basis is None else _integers(basis),
        pt_range_basis=None if pt_basis is None else _integers(pt_basis),
    )


# name -> (numerator, range basis, rho^T_B range basis), in catalog order;
# a reference state has only its numerator
_TABLES = {
    "rho_5_5": (_RHO_5_5_NUM, _RANGE_BASIS_5_5, _PT_RANGE_BASIS_5_5),
    "rho_6_6": (_RHO_6_6_NUM, _RANGE_BASIS_6_6, _PT_RANGE_BASIS_6_6),
    "max_mixed": (np.eye(9, dtype=np.int64),),
    # the projector onto |00> + |11> + |22>
    "max_entangled": (np.outer(*2 * [np.eye(3, dtype=np.int64).ravel()]),),
    "separable_sample": (_product_sum(_SAMPLE_PAIRS),),
}
CATALOG_NAMES = tuple(_TABLES)


@cache
def _built(name: str) -> CatalogEntry:
    return _integer_entry(name, *_TABLES[name])


def entries() -> tuple[CatalogEntry, ...]:
    return tuple(get(name) for name in CATALOG_NAMES)


def get(name: str) -> CatalogEntry:
    """The named entry; entries are frozen with read-only arrays, so each is built once and shared."""
    if name not in CATALOG_NAMES:
        raise ValueError(f"unknown catalog name {name!r}; known: {', '.join(CATALOG_NAMES)}")
    return _built(name)
