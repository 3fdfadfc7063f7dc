"""Dense complex linear algebra on small matrices, plus exact integer rank.

All numeric routines work on plain ``complex128`` numpy arrays at the scale
used in this package (at most a few dozen rows). The package's one phase
convention is :func:`phase_fix`.

Numeric rank has one rule, :func:`rank_mask`: a value counts when its
modulus exceeds ``rel_tol`` times the largest. :class:`Spectrum`, the one
eigendecomposition that every rank, positivity and range decision reads,
applies it to eigenvalues, definite or not, and the realignment witness to
singular values. Positivity is decided by the callers' tolerances, not here.

The exact path, :func:`exact_rank`, performs fraction-free Bareiss
elimination over Python integers and never rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITIAN_ATOL = 1e-12
DEFAULT_RANK_RTOL = 1e-9

__all__ = [
    "DEFAULT_RANK_RTOL",
    "HERMITIAN_ATOL",
    "Spectrum",
    "exact_rank",
    "is_hermitian",
    "phase_fix",
    "rank_mask",
    "residual_norm",
]


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={a.ndim}")
    return a


def is_hermitian(m) -> bool:
    """True when ``m`` is square and equals its conjugate transpose entrywise.

    The comparison tolerance is ``HERMITIAN_ATOL`` scaled by max(1, largest
    entry modulus), so integer-valued and order-one matrices are judged
    absolutely.
    """
    a = _as_matrix(m)
    if a.shape[0] != a.shape[1]:
        return False
    scale = max(1.0, float(np.abs(a).max())) if a.size else 1.0
    return float(np.abs(a - a.conj().T).max()) <= HERMITIAN_ATOL * scale if a.size else True


def phase_fix(v: np.ndarray) -> np.ndarray:
    """Rotate a global phase so the first largest-modulus component is exactly real and >= 0.

    Stacked input is fixed vector by vector along the last axis; zero
    vectors are returned unchanged. The pivot is set to its modulus, since
    times its phase it keeps a roundoff imaginary part, and a pivot that is
    already real and positive gets phase exactly 1, so the fix is idempotent
    bit for bit.
    """
    vectors = np.asarray(v, dtype=complex)
    idx = np.argmax(np.abs(vectors), axis=-1)[..., None]
    piv = np.take_along_axis(vectors, idx, axis=-1)
    mag = np.abs(piv)
    safe = np.where(mag > 0.0, mag, 1.0)
    # real divisions give a real positive pivot the phase exactly 1
    phases = np.where(mag > 0.0, piv.real / safe - 1j * (piv.imag / safe), 1.0)
    fixed = vectors * phases
    np.put_along_axis(fixed, idx, mag, axis=-1)
    return fixed


def rank_mask(values: np.ndarray, rel_tol: float) -> np.ndarray:
    """The one rank rule: which values count, ``|x| > rel_tol * max|x|``; none for all-zero ``values``."""
    mag = np.abs(values)
    return mag > rel_tol * mag.max(initial=0.0)


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
        a = _as_matrix(m)
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"matrix must be square, got shape {a.shape}")
        if not is_hermitian(a):
            raise ValueError(f"matrix must be Hermitian within {HERMITIAN_ATOL}")
        w, v = np.linalg.eigh(a)
        w.setflags(write=False)
        v.setflags(write=False)
        return cls(w, v)

    def rank(self, rel_tol: float = DEFAULT_RANK_RTOL) -> int:
        """Eigenvalues whose modulus exceeds ``rel_tol`` times the largest: diag(1, -1) has rank 2, zero has 0."""
        return int(np.sum(rank_mask(self.values, rel_tol)))

    def range_projector(self, rel_tol: float = DEFAULT_RANK_RTOL) -> np.ndarray:
        """Hermitian idempotent projector onto the range: the eigenvectors that :meth:`rank` counts."""
        keep = self.vectors[:, rank_mask(self.values, rel_tol)]
        p = keep @ keep.conj().T
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
# Exact integer arithmetic
# ---------------------------------------------------------------------------


def exact_rank(m) -> int:
    """Rank of an integer matrix over the rationals, via fraction-free Bareiss elimination.

    Accepts any nested sequence or integer array of ints; any other entry,
    such as a float, a complex number or an exact rational, and rows of
    unequal length raise ``ValueError``. Elimination stays in Python integers, with
    every interior division exact by the Bareiss identity.
    """
    # Python ints, not numpy scalars: the products below must not overflow
    work = [list(row) for row in (m.tolist() if isinstance(m, np.ndarray) else m)]
    for row in work:
        for x in row:
            if not isinstance(x, int):
                raise ValueError(f"exact rank takes int entries, got {type(x).__name__}")
    if not work:
        return 0
    if any(len(row) != len(work[0]) for row in work):
        raise ValueError("rows have inconsistent lengths")
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
