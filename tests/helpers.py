"""Independent oracles shared by the test modules.

Everything here deliberately avoids the library code paths it is used to
check: trace norms come from the eigenvalues of a Hermitian dilation rather
than an SVD, ranks from plain Gaussian elimination over Fractions rather
than Bareiss, and product-state minima from a closed-form scan rather than
see-saw alternation.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def _dilation_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of the Hermitian dilation [[0, M], [M^dag, 0]]: plus/minus the singular values of M.

    They come without squaring M, so at full precision.
    """
    n, k = m.shape
    h = np.zeros((n + k, n + k), dtype=complex)
    h[:n, n:] = m
    h[n:, :n] = m.conj().T
    return np.linalg.eigvalsh(h)


def dilation_trace_norm(m: np.ndarray) -> float:
    """Sum of singular values: the positive eigenvalues of the Hermitian dilation."""
    w = _dilation_eigenvalues(m)
    return float(np.sum(w[w > 0]))


def dilation_operator_norm(m: np.ndarray) -> float:
    """Largest singular value: the largest eigenvalue of the Hermitian dilation."""
    return float(_dilation_eigenvalues(m)[-1])


def gauss_rank(rows) -> int:
    """Rank over the rationals by textbook Gaussian elimination on Fractions."""
    work = [[Fraction(x) for x in row] for row in rows]
    if not work:
        return 0
    n_rows, n_cols = len(work), len(work[0])
    rank = 0
    for c in range(n_cols):
        piv = next((i for i in range(rank, n_rows) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = Fraction(1, 1) / work[rank][c]
        for i in range(rank + 1, n_rows):
            f = work[i][c] * inv
            if f:
                for j in range(c, n_cols):
                    work[i][j] -= f * work[rank][j]
        rank += 1
    return rank


def brute_force_product_min_2x2(h: np.ndarray, n_incl: int = 400, n_phase: int = 800) -> float:
    """Product-state minimum of a Hermitian 4x4 operator by exhaustive scan.

    Parametrizes a = (cos t, sin t e^{i p}) on a grid; for each a the optimal
    b is the closed-form minimal eigenvalue of the contracted 2x2 operator,
    so no iterative optimizer is involved.
    """
    h4 = h.reshape(2, 2, 2, 2)
    incl = np.linspace(0.0, np.pi / 2, n_incl)
    phase = np.linspace(0.0, 2 * np.pi, n_phase, endpoint=False)
    tt, pp = np.meshgrid(incl, phase, indexing="ij")
    a = np.stack([np.cos(tt).ravel(), (np.sin(tt) * np.exp(1j * pp)).ravel()], axis=1)
    contracted = np.einsum("ri,ikjl,rj->rkl", a.conj(), h4, a)
    p = np.real(contracted[:, 0, 0])
    r = np.real(contracted[:, 1, 1])
    q = contracted[:, 0, 1]
    lam_min = (p + r) / 2 - np.sqrt(((p - r) / 2) ** 2 + np.abs(q) ** 2)
    return float(lam_min.min())


def swap_operator(d: int) -> np.ndarray:
    """The SWAP operator on C^d (x) C^d."""
    s = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for k in range(d):
            s[i * d + k, k * d + i] = 1.0
    return s


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (x + x.conj().T) / 2


def max_entangled_vector(d: int = 3) -> np.ndarray:
    v = np.zeros(d * d, dtype=complex)
    for i in range(d):
        v[i * d + i] = 1.0
    return v / np.sqrt(d)


def separable_mixture(rank: int) -> np.ndarray:
    """Equal mixture of ``rank`` fixed-seed 3x3 product projectors: PPT, with rank and PT rank ``rank``."""
    rng = np.random.default_rng(2006 + rank)
    rho = np.zeros((9, 9), dtype=complex)
    for _ in range(rank):
        a, b = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        v = np.kron(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
        rho += np.outer(v, v.conj()) / rank
    return rho
