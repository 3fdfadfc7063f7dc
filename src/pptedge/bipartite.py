"""Index bookkeeping on a bipartite space C^dA (x) C^dB.

The composite index convention is A-major throughout: basis vector (i, k)
maps to flat index ``i * dim_b + k`` with ``i`` on party A. Partial
transposition and realignment are pure index permutations (no arithmetic),
so applying them to exactly representable entries is bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .exceptions import InvalidStateError, NotApplicableError

__all__ = [
    "BipartiteOperator",
    "InvalidStateError",
    "ProductVector",
    "realign",
    "schmidt_coefficients",
    "transpose_b",
    "validate_density",
]


@dataclass(frozen=True)
class BipartiteOperator:
    """Dense operator on C^dA (x) C^dB with its tensor split recorded."""

    matrix: np.ndarray
    dim_a: int
    dim_b: int

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=complex)
        d = self.dim_a * self.dim_b
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} does not match dims ({self.dim_a}, {self.dim_b})")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    @property
    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def is_hermitian(self) -> bool:
        return linalg.is_hermitian(self.matrix)

    @cached_property
    def spectrum(self) -> linalg.Spectrum:
        """The one eigendecomposition of the matrix, made on first use; every rank, PSD and range decision reads it."""
        return linalg.Spectrum.of(self.matrix)

    @cached_property
    def pt(self) -> "BipartiteOperator":
        """Partial transpose on party B, computed on first use: entry ((i,k),(j,l)) of the output is ((i,l),(j,k)) of the input."""
        return BipartiteOperator(transpose_b(self.matrix, self.dim_a, self.dim_b), self.dim_a, self.dim_b)

    @cached_property
    def realigned_svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The one SVD ``(u, s, vh)`` of :func:`realign` of the matrix, made on first use and read-only; the realignment criterion and its witness read it."""
        svd = np.linalg.svd(realign(self))
        for part in svd:
            part.setflags(write=False)
        return svd


def validate_density(op: BipartiteOperator, psd_tol: float = 1e-12) -> None:
    """Check the density-matrix role: Hermitian, unit trace, PSD within ``psd_tol``.

    Hermiticity is checked once, by the cached ``op.spectrum``, which every
    later rank and PSD decision reads.
    """
    try:
        lo = float(op.spectrum.values[0])
    except np.linalg.LinAlgError:
        raise  # an eigensolver failure is not an invalid state
    except ValueError:
        raise InvalidStateError("density matrix must be Hermitian within 1e-12") from None
    tr = op.trace
    if abs(tr - 1.0) > 1e-12:
        shown = tr.real if tr.imag == 0.0 else tr
        raise InvalidStateError(f"density matrix must have unit trace, got {shown:.15g}")
    if lo < -psd_tol:
        raise InvalidStateError(f"density matrix has negative eigenvalue {lo:.3e}")


def transpose_b(m: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Partial transpose of a (d, d) array of any dtype: entry ((i,k),(j,l)) becomes ((i,l),(j,k))."""
    d = dim_a * dim_b
    return m.reshape(dim_a, dim_b, dim_a, dim_b).transpose(0, 3, 2, 1).reshape(d, d)


def realign(op: BipartiteOperator) -> np.ndarray:
    """Rearrange entries: output row (i,j), column (k,l) holds the input entry ((i,k),(j,l)).

    Only the square-block case dA == dB is supported; there the map is an
    involution, and the trace norm of the result is the realignment figure
    of merit used by the separability criterion. Unequal dimensions raise
    :class:`NotApplicableError`.
    """
    if op.dim_a != op.dim_b:
        raise NotApplicableError(f"realignment requires dim_a == dim_b, got ({op.dim_a}, {op.dim_b})")
    da = op.dim_a
    return op.matrix.reshape(da, da, da, da).transpose(0, 2, 1, 3).reshape(da * da, da * da)


@dataclass(frozen=True)
class ProductVector:
    """Pair of single-party factors, stored unit-norm and phase-normalized.

    Construction rescales each factor to unit norm and rotates its phase by
    :func:`~pptedge.linalg.phase_fix`, so the first largest-modulus component
    is real and nonnegative; zero factors are rejected. The represented
    composite state is ``tensor()``.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        for name in ("a", "b"):
            v = np.asarray(getattr(self, name), dtype=complex).ravel()
            n = float(np.linalg.norm(v))
            if n == 0.0:
                raise ValueError(f"factor {name} must be nonzero")
            v = linalg.phase_fix(v / n)
            v.setflags(write=False)
            object.__setattr__(self, name, v)

    @property
    def dim_a(self) -> int:
        return self.a.size

    @property
    def dim_b(self) -> int:
        return self.b.size

    def tensor(self) -> np.ndarray:
        """Composite vector with component (i, k) = a_i * b_k; unit norm."""
        return np.kron(self.a, self.b)

    def conjugate_partner(self) -> np.ndarray:
        """Composite vector of (a, conj(b)), the partner tested against the transposed range."""
        return np.kron(self.a, self.b.conj())


def schmidt_coefficients(vec, dim_a: int, dim_b: int) -> np.ndarray:
    """Schmidt coefficients of a composite vector, descending.

    These are the singular values of the dim_a x dim_b coefficient matrix;
    their squares sum to the squared norm of ``vec``. Exactly one is nonzero
    iff the vector is a product.
    """
    v = np.asarray(vec, dtype=complex).ravel()
    if v.size != dim_a * dim_b:
        raise ValueError(f"vector length {v.size} does not match dims ({dim_a}, {dim_b})")
    if float(np.linalg.norm(v)) == 0.0:
        raise ValueError("Schmidt coefficients of the zero vector are undefined")
    return np.linalg.svd(v.reshape(dim_a, dim_b), compute_uv=False)
