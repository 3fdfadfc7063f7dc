"""Dense complex linear algebra on small matrices, plus exact rational rank.

All numeric routines work on plain ``complex128`` numpy arrays at the scale
used in this package (at most a few dozen rows). Spectral factorizations are
made deterministic by a fixed phase convention and a lexicographic tie-break
for degenerate eigenvalue/singular-value groups, so identical inputs always
produce identical outputs.

The exact path (:class:`RationalMatrix`, :func:`exact_rank`) performs
fraction-free Bareiss elimination over Python integers and never rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

import numpy as np

from .exceptions import NotPSDError

HERMITIAN_ATOL = 1e-12
DEFAULT_RANK_RTOL = 1e-9

__all__ = [
    "DEFAULT_RANK_RTOL",
    "HERMITIAN_ATOL",
    "NotPSDError",
    "RationalMatrix",
    "SvdResult",
    "canonical_eigenbasis",
    "exact_rank",
    "is_hermitian",
    "kernel_projector",
    "numeric_rank",
    "phase_fix",
    "range_projector",
    "residual_norm",
    "span_projector",
    "svd",
    "trace_norm",
]


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={a.ndim}")
    return a


def is_hermitian(m, atol: float = HERMITIAN_ATOL) -> bool:
    """True when ``m`` is square and equals its conjugate transpose entrywise.

    The comparison tolerance is ``atol`` scaled by max(1, largest entry
    modulus), so integer-valued and order-one matrices are judged absolutely.
    """
    a = _as_matrix(m)
    if a.shape[0] != a.shape[1]:
        return False
    scale = max(1.0, float(np.abs(a).max())) if a.size else 1.0
    return float(np.abs(a - a.conj().T).max()) <= atol * scale if a.size else True


def _require_hermitian(m, what: str = "matrix") -> np.ndarray:
    a = _as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{what} must be square, got shape {a.shape}")
    if not is_hermitian(a):
        raise ValueError(f"{what} must be Hermitian within {HERMITIAN_ATOL}")
    return a


def _pivot_phases(vectors: np.ndarray) -> np.ndarray:
    """Unit phases making each vector's (last axis) first largest-modulus entry real and >= 0; 1 for zero."""
    piv = np.take_along_axis(vectors, np.argmax(np.abs(vectors), axis=-1)[..., None], axis=-1)[..., 0]
    mag = np.abs(piv)
    return np.where(mag > 0.0, piv.conjugate() / np.where(mag > 0.0, mag, 1.0), 1.0)


def phase_fix(v: np.ndarray) -> np.ndarray:
    """Rotate a global phase so the first largest-modulus component is real and >= 0.

    Stacked input is fixed vector by vector along the last axis.
    """
    v = np.asarray(v, dtype=complex)
    return v * _pivot_phases(v)[..., None]


def _tie_break_order(values: np.ndarray, vectors: np.ndarray, tol) -> np.ndarray:
    """Column order sorting each group of (numerically) equal values lexicographically by (re, im) entries.

    A group starts at a value and takes every following value within ``tol``
    of that start. Stacks (``values`` (..., k), ``vectors`` (..., m, k)) are
    ordered matrix by matrix, ``tol`` broadcasting against ``values[..., 0]``.
    """
    group = np.zeros(values.shape, dtype=int)
    start = values[..., 0]
    for j in range(1, values.shape[-1]):
        new = values[..., j] - start > tol
        group[..., j] = group[..., j - 1] + new
        start = np.where(new, values[..., j], start)
    cols = np.swapaxes(vectors, -1, -2)
    # np.lexsort takes its primary key last
    keys = [part[..., i] for i in reversed(range(cols.shape[-1])) for part in (cols.imag, cols.real)]
    return np.lexsort([*keys, group])


def canonical_eigenbasis(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Put ``np.linalg.eigh`` output into the deterministic convention, matrix by matrix for stacks.

    Each eigenvector is phase-fixed, and eigenvectors of eigenvalues equal
    within ``HERMITIAN_ATOL`` (scaled by max(1, largest |eigenvalue|)) are
    ordered lexicographically.
    """
    v = np.swapaxes(phase_fix(np.swapaxes(v, -1, -2)), -1, -2)
    scale = np.maximum(1.0, np.abs(w).max(axis=-1, initial=0.0))
    order = _tie_break_order(w, v, HERMITIAN_ATOL * scale)
    return np.take_along_axis(w, order, -1), np.take_along_axis(v, order[..., None, :], -1)


@dataclass(frozen=True)
class SvdResult:
    """Reduced singular value decomposition ``m = u @ diag(values) @ v.conj().T``.

    Singular values are descending and nonnegative; ``u`` and ``v`` have
    orthonormal columns with the same deterministic phase and tie-break
    conventions as :func:`canonical_eigenbasis`.
    """

    u: np.ndarray
    values: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.values) @ self.v.conj().T

    @property
    def trace_norm(self) -> float:
        return float(self.values.sum())


def svd(m) -> SvdResult:
    """Deterministic reduced SVD; defined for every finite matrix."""
    a = _as_matrix(m)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    v = vh.conj().T
    ph = _pivot_phases(u.T)
    u, v = u * ph, v * ph  # same phase on both factors keeps u_j v_j^dagger invariant
    scale = max(1.0, float(s.max())) if s.size else 1.0
    order = _tie_break_order(-s, u, HERMITIAN_ATOL * scale)
    return SvdResult(u=u[:, order], values=s[order], v=v[:, order])


def trace_norm(m) -> float:
    """Sum of singular values."""
    return float(np.linalg.svd(_as_matrix(m), compute_uv=False).sum())


def _psd_eigenvalues(m, rel_tol: float, what: str) -> tuple[np.ndarray, float]:
    a = _require_hermitian(m, what)
    w = np.linalg.eigvalsh(a)
    scale = float(np.abs(w).max()) if w.size else 0.0
    if scale > 0.0 and w[0] < -rel_tol * scale:
        raise NotPSDError(f"{what} has eigenvalue {w[0]:.3e} below -{rel_tol:g} * {scale:.3e}")
    return w, scale


def numeric_rank(m, rel_tol: float = DEFAULT_RANK_RTOL) -> int:
    """Number of eigenvalues above ``rel_tol`` times the largest eigenvalue.

    Input must be Hermitian and positive semidefinite within ``rel_tol``
    (relative to the spectral scale); otherwise :class:`NotPSDError` is raised.
    The zero matrix has rank 0.
    """
    w, scale = _psd_eigenvalues(m, rel_tol, "matrix")
    if scale == 0.0:
        return 0
    return int(np.sum(w > rel_tol * scale))


def range_projector(m, rel_tol: float = DEFAULT_RANK_RTOL) -> np.ndarray:
    """Hermitian idempotent projector onto the range of a Hermitian PSD matrix."""
    a = _require_hermitian(m)
    w, v = np.linalg.eigh(a)
    scale = float(np.abs(w).max()) if w.size else 0.0
    if scale == 0.0:
        return np.zeros_like(a)
    if w[0] < -rel_tol * scale:
        raise NotPSDError(f"matrix has eigenvalue {w[0]:.3e} below -{rel_tol:g} * {scale:.3e}")
    keep = v[:, w > rel_tol * scale]
    p = keep @ keep.conj().T
    return (p + p.conj().T) / 2


def kernel_projector(m, rel_tol: float = DEFAULT_RANK_RTOL) -> np.ndarray:
    """Identity minus :func:`range_projector`; trace equals dim minus rank."""
    p = range_projector(m, rel_tol)
    return np.eye(p.shape[0], dtype=complex) - p


def span_projector(vectors: Iterable) -> np.ndarray:
    """Hermitian projector onto the span of linearly independent vectors."""
    cols = [np.asarray(v, dtype=complex).ravel() for v in vectors]
    b = np.stack(cols, axis=1)
    q, r = np.linalg.qr(b)
    diag = np.abs(np.diag(r))
    if diag.min() <= 1e-12 * max(1.0, diag.max()):
        raise ValueError("span basis is numerically rank-deficient")
    p = q @ q.conj().T
    return (p + p.conj().T) / 2


def residual_norm(vec, projector: np.ndarray) -> float:
    """Relative distance of ``vec`` from the subspace fixed by ``projector``.

    Returns ``norm((I - P) v) / norm(v)``, which lies in [0, 1] for an
    orthogonal projector ``P``. A zero vector has no direction and raises.
    """
    v = np.asarray(vec, dtype=complex).ravel()
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise ValueError("residual of the zero vector is undefined")
    return float(np.linalg.norm(v - projector @ v)) / n


# ---------------------------------------------------------------------------
# Exact rational arithmetic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalMatrix:
    """Exact rational matrix; every operation on it avoids floating point."""

    entries: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RationalMatrix":
        data = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if data and any(len(row) != len(data[0]) for row in data):
            raise ValueError("rows have inconsistent lengths")
        return cls(entries=data)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def to_complex(self) -> np.ndarray:
        return np.array([[complex(x) for x in row] for row in self.entries], dtype=complex)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        return self.entries[ij[0]][ij[1]]


def exact_rank(m) -> int:
    """Rank over the rationals via fraction-free Bareiss elimination.

    Accepts a :class:`RationalMatrix` or any nested sequence of ints/Fractions.
    Each row is scaled to integers first; elimination then stays in Python
    integers, with every interior division exact by the Bareiss identity.
    """
    rows = m.entries if isinstance(m, RationalMatrix) else [[Fraction(x) for x in row] for row in m]
    if not rows:
        return 0
    work: list[list[int]] = []
    for row in rows:
        den = lcm(*(f.denominator for f in row)) if row else 1
        work.append([int(f * den) for f in row])
    n_rows, n_cols = len(work), len(work[0])
    rank = 0
    prev = 1
    for c in range(n_cols):
        piv = next((i for i in range(rank, n_rows) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        pivot_row = work[rank]
        pval = pivot_row[c]
        for i in range(rank + 1, n_rows):
            row = work[i]
            f = row[c]
            for j in range(c + 1, n_cols):
                row[j] = (pval * row[j] - f * pivot_row[j]) // prev
            row[c] = 0
        prev = pval
        rank += 1
        if rank == n_rows:
            break
    return rank
