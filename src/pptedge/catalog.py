"""Built-in states: two PPT-entangled edge states plus reference states.

The flagship entries are a rank-(5,5) and a rank-(6,6) PPT entangled state
on C^3 (x) C^3. Both are stored as integer numerator tables over the common
denominator 13, so exact rank computations and bit-exact partial-transpose
comparisons never touch floating point. Each entry also carries an exact
integer basis of its range and of the range of its partial transpose,
derived from the linear form that vectors in those ranges must take:

* rho_5_5 range:      (0, A, -E-F, C, 0, D, D, E, F)
* rho_5_5 PT range:   (0, A, B, C, 0, D, E, A+2B, -A-2B+C+D+E)
* rho_6_6 range:      (A, B, C, D, E, F, C+E, -F, B+2D-A)
* rho_6_6 PT range:   (A, B, C, D, -A, E, E-C, D, F)

with one basis vector per free parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bipartite import BipartiteOperator, ProductVector, transpose_b
from .linalg import RationalMatrix

__all__ = [
    "CATALOG_NAMES",
    "CatalogEntry",
    "ProductVectorFamily",
    "entries",
    "get",
    "operator_and_name",
    "range_families",
    "reference_states",
    "rho_5_5",
    "rho_6_6",
    "separable_product_vectors",
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

_SEPARABLE_SEED = 7
_SEPARABLE_TERMS = 20


@dataclass(frozen=True)
class CatalogEntry:
    """A named state together with its exact data and expected invariants.

    ``exact`` holds the integer numerator matrix and ``denominator`` its
    common denominator, so ``state.matrix == exact / denominator`` entrywise
    whenever ``exact`` is present. Range bases are exact integer vectors
    spanning the range of the state and of its partial transpose; reference
    entries without a useful exact description carry ``None`` there.
    """

    name: str
    state: BipartiteOperator
    exact: RationalMatrix | None
    denominator: int
    expected_rank: int
    expected_pt_rank: int
    range_basis: tuple[np.ndarray, ...] | None
    pt_range_basis: tuple[np.ndarray, ...] | None

    @property
    def exact_pt(self) -> RationalMatrix | None:
        """Numerator of the partial transpose, by exact index permutation."""
        if self.exact is None:
            return None
        pt = transpose_b(np.array(self.exact.entries, dtype=object), self.state.dim_a, self.state.dim_b)
        return RationalMatrix.from_rows(pt.tolist())


def operator_and_name(
    state: BipartiteOperator | CatalogEntry, default: str = "custom"
) -> tuple[BipartiteOperator, str]:
    """The operator of a state and its catalog name, or ``default`` for a bare operator."""
    return (state.state, state.name) if isinstance(state, CatalogEntry) else (state, default)


def _basis_arrays(rows: tuple[tuple[int, ...], ...]) -> tuple[np.ndarray, ...]:
    out = []
    for row in rows:
        v = np.array(row, dtype=complex)
        v.setflags(write=False)
        out.append(v)
    return tuple(out)


def _integer_entry(name: str, numerator, rank: int, pt_rank: int, basis, pt_basis) -> CatalogEntry:
    exact = RationalMatrix.from_rows(numerator)
    state = BipartiteOperator(exact.to_complex() / 13.0, 3, 3)
    return CatalogEntry(
        name=name,
        state=state,
        exact=exact,
        denominator=13,
        expected_rank=rank,
        expected_pt_rank=pt_rank,
        range_basis=_basis_arrays(basis),
        pt_range_basis=_basis_arrays(pt_basis),
    )


def rho_5_5() -> CatalogEntry:
    """The rank-(5,5) PPT entangled edge state, exact entries over 13."""
    return _integer_entry("rho_5_5", _RHO_5_5_NUM, 5, 5, _RANGE_BASIS_5_5, _PT_RANGE_BASIS_5_5)


def rho_6_6() -> CatalogEntry:
    """The rank-(6,6) PPT entangled edge state, exact entries over 13."""
    return _integer_entry("rho_6_6", _RHO_6_6_NUM, 6, 6, _RANGE_BASIS_6_6, _PT_RANGE_BASIS_6_6)


def _max_mixed() -> CatalogEntry:
    num = [[1 if i == j else 0 for j in range(9)] for i in range(9)]
    return CatalogEntry(
        name="max_mixed",
        state=BipartiteOperator(np.eye(9, dtype=complex) / 9.0, 3, 3),
        exact=RationalMatrix.from_rows(num),
        denominator=9,
        expected_rank=9,
        expected_pt_rank=9,
        range_basis=None,
        pt_range_basis=None,
    )


def _max_entangled() -> CatalogEntry:
    # projector onto (|00> + |11> + |22>) / sqrt(3); entries are thirds
    num = [[0] * 9 for _ in range(9)]
    for i in (0, 4, 8):
        for j in (0, 4, 8):
            num[i][j] = 1
    mat = np.array(num, dtype=complex) / 3.0
    return CatalogEntry(
        name="max_entangled",
        state=BipartiteOperator(mat, 3, 3),
        exact=RationalMatrix.from_rows(num),
        denominator=3,
        expected_rank=1,
        expected_pt_rank=9,
        range_basis=None,
        pt_range_basis=None,
    )


def _separable_sample() -> CatalogEntry:
    """Fixed seeded mixture of 20 product states; PPT and full rank by construction."""
    rng = np.random.default_rng(_SEPARABLE_SEED)
    mat = np.zeros((9, 9), dtype=complex)
    for _ in range(_SEPARABLE_TERMS):
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        mat += np.outer(v, v.conj())
    mat /= _SEPARABLE_TERMS
    mat = (mat + mat.conj().T) / 2
    return CatalogEntry(
        name="separable_sample",
        state=BipartiteOperator(mat, 3, 3),
        exact=None,
        denominator=1,
        expected_rank=9,
        expected_pt_rank=9,
        range_basis=None,
        pt_range_basis=None,
    )


def separable_product_vectors() -> list[ProductVector]:
    """The constituent product vectors of ``separable_sample``, same seed and order."""
    rng = np.random.default_rng(_SEPARABLE_SEED)
    out = []
    for _ in range(_SEPARABLE_TERMS):
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        out.append(ProductVector(a, b))
    return out


def reference_states() -> tuple[CatalogEntry, ...]:
    """Sanity corpus: maximally mixed, maximally entangled, seeded separable mixture."""
    return (_max_mixed(), _max_entangled(), _separable_sample())


CATALOG_NAMES = ("rho_5_5", "rho_6_6", "max_mixed", "max_entangled", "separable_sample")


def entries() -> tuple[CatalogEntry, ...]:
    return (rho_5_5(), rho_6_6()) + reference_states()


def get(name: str) -> CatalogEntry:
    for entry in entries():
        if entry.name == name:
            return entry
    raise ValueError(f"unknown catalog name {name!r}; known: {', '.join(CATALOG_NAMES)}")


# ---------------------------------------------------------------------------
# Product-vector families inside the ranges
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProductVectorFamily:
    """Parametrized family of product vectors lying inside one fixed range.

    ``make(*params)`` builds a member from complex parameters, rejecting
    degenerate parameter choices (those that collapse to the zero vector or
    divide by zero). ``samples`` returns deterministic members: a fixed small
    grid first, then seeded complex draws.
    """

    name: str
    n_params: int
    grid: tuple[tuple[complex, ...], ...]
    _build: Callable[..., ProductVector]

    def make(self, *params: complex) -> ProductVector:
        if len(params) != self.n_params:
            raise ValueError(f"family {self.name} takes {self.n_params} parameters")
        return self._build(*params)

    def samples(self, n: int = 100, seed: int = 0) -> list[ProductVector]:
        out: list[ProductVector] = []
        for params in self.grid[: min(n, len(self.grid))]:
            out.append(self._build(*params))
        rng = np.random.default_rng(seed)
        while len(out) < n:
            params = tuple(complex(x, y) for x, y in rng.standard_normal((self.n_params, 2)))
            try:
                out.append(self._build(*params))
            except (ValueError, ZeroDivisionError):
                continue  # degenerate draw, next one
        return out


def _guard_nonzero(value: complex, what: str) -> None:
    if abs(value) < 1e-6:
        raise ValueError(f"{what} too close to a degenerate configuration")


def _f55_case_1_1(y: complex, z: complex) -> ProductVector:
    _guard_nonzero(y + z, "y + z")
    if abs(y) < 1e-9 and abs(z) < 1e-9:
        raise ValueError("y and z cannot both vanish")
    return ProductVector(np.array([1.0, 0.0, -z / (y + z)]), np.array([0.0, y, z]))


def _f55_case_2_1(v: complex, y: complex) -> ProductVector:
    _guard_nonzero(v, "v")
    _guard_nonzero(y, "y")
    return ProductVector(np.array([0.0, 0.0, v]), np.array([0.0, y, -y]))


def _f55_case_2_2_1(t: complex, x: complex) -> ProductVector:
    _guard_nonzero(t, "t")
    _guard_nonzero(x, "x")
    return ProductVector(np.array([0.0, t, 0.0]), np.array([x, 0.0, 0.0]))


def _f55pt_case_1_1(t: complex, z: complex) -> ProductVector:
    _guard_nonzero(t, "t")
    _guard_nonzero(z, "z")
    return ProductVector(np.array([0.0, t, t]), np.array([0.0, 0.0, z]))


def _f55pt_case_1_2_1(s: complex, z: complex) -> ProductVector:
    _guard_nonzero(s, "s")
    _guard_nonzero(z, "z")
    return ProductVector(np.array([s, 0.0, 0.0]), np.array([0.0, -2.0 * z, z]))


def _f55pt_case_1_2_2(s: complex, y: complex) -> ProductVector:
    _guard_nonzero(s, "s")
    _guard_nonzero(y, "y")
    return ProductVector(np.array([-s, 0.0, s]), np.array([0.0, y, -y]))


def _f55pt_case_2(t: complex, v: complex, x: complex) -> ProductVector:
    # constraint (v - t) z = (v + t) x pins z once t, v, x are chosen
    _guard_nonzero(v - t, "v - t")
    _guard_nonzero(x, "x")
    z = (v + t) * x / (v - t)
    return ProductVector(np.array([0.0, t, v]), np.array([x, 0.0, z]))


_FAMILIES: dict[str, tuple[ProductVectorFamily, ...]] = {
    "rho_5_5": (
        ProductVectorFamily("case_1_1", 2, ((1, 1), (1, 2), (2, -1), (1j, 1)), _f55_case_1_1),
        ProductVectorFamily("case_2_1", 2, ((1, 1), (1, 1j), (-2, 3)), _f55_case_2_1),
        ProductVectorFamily("case_2_2_1", 2, ((1, 1), (1j, 2), (3, -1)), _f55_case_2_2_1),
    ),
    "rho_5_5_pt": (
        ProductVectorFamily("case_1_1", 2, ((1, 1), (1, 1j), (2, -1)), _f55pt_case_1_1),
        ProductVectorFamily("case_1_2_1", 2, ((1, 1), (1, -1), (1j, 2)), _f55pt_case_1_2_1),
        ProductVectorFamily("case_1_2_2", 2, ((1, 1), (1, 1j), (-1, 2)), _f55pt_case_1_2_2),
        ProductVectorFamily("case_2", 3, ((1, 2, 1), (1, 1j, 1), (2, -1, 1j)), _f55pt_case_2),
    ),
    # no product vector in these ranges admits a conjugate partner; the ranges
    # are checked through their linear constraints instead of through families
    "rho_6_6": (),
    "rho_6_6_pt": (),
}


def range_families(name: str) -> tuple[ProductVectorFamily, ...]:
    """Product-vector families known to lie in the named range."""
    try:
        return _FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown range name {name!r}; known: {', '.join(_FAMILIES)}") from None
