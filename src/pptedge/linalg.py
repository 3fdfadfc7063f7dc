"""Dense complex linear algebra on small matrices, plus exact rational rank.

All numeric routines work on plain ``complex128`` numpy arrays at the scale
used in this package (at most a few dozen rows). :func:`svd` is made
deterministic by a fixed phase convention and a lexicographic tie-break for
groups of equal singular values, so identical inputs always produce identical
outputs.

Numeric rank has one rule, kept in :class:`Spectrum`, the one
eigendecomposition that every rank, positivity and range decision reads: an
eigenvalue counts when its modulus exceeds ``rel_tol`` times the largest
modulus, for any Hermitian matrix, definite or not. Positivity is decided
by the callers' own tolerances, not here.

The exact path (:class:`RationalMatrix`, :func:`exact_rank`) performs
fraction-free Bareiss elimination over Python integers and never rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

import numpy as np

HERMITIAN_ATOL = 1e-12
DEFAULT_RANK_RTOL = 1e-9

__all__ = [
    "DEFAULT_RANK_RTOL",
    "HERMITIAN_ATOL",
    "RationalMatrix",
    "Spectrum",
    "SvdResult",
    "exact_rank",
    "is_hermitian",
    "phase_fix",
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


def _pivot_phases(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectors (last axis) rotated so the first largest-modulus entry is exactly real and >= 0, and their phases.

    The pivot is set to its modulus, since times its phase it keeps a roundoff imaginary part.
    """
    idx = np.argmax(np.abs(vectors), axis=-1)[..., None]
    piv = np.take_along_axis(vectors, idx, axis=-1)
    mag = np.abs(piv)
    safe = np.where(mag > 0.0, mag, 1.0)  # zero vectors get phase 1
    # real divisions give a real positive pivot the phase exactly 1
    phases = np.where(mag > 0.0, piv.real / safe - 1j * (piv.imag / safe), 1.0)
    fixed = vectors * phases
    np.put_along_axis(fixed, idx, mag, axis=-1)
    return fixed, phases[..., 0]


def phase_fix(v: np.ndarray) -> np.ndarray:
    """Rotate a global phase so the first largest-modulus component is real and >= 0.

    Stacked input is fixed vector by vector along the last axis.
    """
    return _pivot_phases(np.asarray(v, dtype=complex))[0]


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


@dataclass(frozen=True)
class SvdResult:
    """Reduced singular value decomposition ``m = u @ diag(values) @ v.conj().T``.

    Singular values are descending and nonnegative; ``u`` and ``v`` have
    orthonormal columns. Each column of ``u`` follows the :func:`phase_fix`
    convention, with ``v`` rotated by the same phase, and columns of
    (numerically) equal singular values are ordered lexicographically by
    their ``u`` entries.
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
    ut, ph = _pivot_phases(u.T)
    u, v = ut.T, v * ph  # same phase on both factors keeps u_j v_j^dagger invariant
    scale = max(1.0, float(s.max())) if s.size else 1.0
    order = _tie_break_order(-s, u, HERMITIAN_ATOL * scale)
    return SvdResult(u=u[:, order], values=s[order], v=v[:, order])


def trace_norm(m) -> float:
    """Sum of singular values."""
    return float(np.linalg.svd(_as_matrix(m), compute_uv=False).sum())


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix: ``m = vectors @ diag(values) @ vectors.conj().T``.

    ``values`` are ascending and ``vectors`` holds the matching orthonormal
    columns; both are read-only. :meth:`rank` and :meth:`range_projector`
    apply the one rank rule to the same values, so they always agree.
    """

    values: np.ndarray
    vectors: np.ndarray

    @classmethod
    def of(cls, m) -> "Spectrum":
        """One ``eigh`` of a square Hermitian matrix; anything else raises ``ValueError``."""
        w, v = np.linalg.eigh(_require_hermitian(m))
        w.setflags(write=False)
        v.setflags(write=False)
        return cls(w, v)

    def _counted(self, rel_tol: float) -> np.ndarray:
        """Eigenvalues that count toward the rank: ``|w| > rel_tol * max|w|``; none for the zero matrix."""
        mag = np.abs(self.values)
        return mag > rel_tol * mag.max(initial=0.0)

    def rank(self, rel_tol: float = DEFAULT_RANK_RTOL) -> int:
        """Eigenvalues whose modulus exceeds ``rel_tol`` times the largest: diag(1, -1) has rank 2, zero has 0."""
        return int(np.sum(self._counted(rel_tol)))

    def range_projector(self, rel_tol: float = DEFAULT_RANK_RTOL) -> np.ndarray:
        """Hermitian idempotent projector onto the range: the eigenvectors that :meth:`rank` counts."""
        keep = self.vectors[:, self._counted(rel_tol)]
        p = keep @ keep.conj().T
        return (p + p.conj().T) / 2


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
