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


def fractions(m) -> np.ndarray:
    """Object array of Fractions with the entries of an integer or Fraction matrix."""
    return np.array([[Fraction(x) for x in row] for row in np.asarray(m).tolist()], dtype=object)


def exact_coordinate_map(rows) -> np.ndarray:
    """(B B^T)^-1 B for real integer independent rows B, as an object array of Fractions.

    It maps a vector in the span of the rows to its coordinates there.
    Gauss-Jordan elimination on [B B^T | B] needs no pivoting, since the Gram
    matrix of independent rows is positive definite.
    """
    b = fractions(rows)
    k = b.shape[0]
    work = np.concatenate([b @ b.T, b], axis=1)
    for c in range(k):
        work[c] = work[c] / work[c, c]
        for i in range(k):
            if i != c:
                work[i] = work[i] - work[i, c] * work[c]
    return work[:, k:]


def exact_row_space_projector(rows) -> np.ndarray:
    """Orthogonal projector B^T (B B^T)^-1 B onto the span of real integer rows B, as an object array of Fractions."""
    return fractions(rows).T @ exact_coordinate_map(rows)


def row_space_projector(rows) -> np.ndarray:
    """Float copy of :func:`exact_row_space_projector`, for residual checks against real integer rows."""
    return exact_row_space_projector(rows).astype(float)


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


_MASK64 = 2**64 - 1


def splitmix64_output(state: int, n: int) -> int:
    """Output ``n`` (from 1) of SplitMix64 seeded with ``state`` (Steele, Lea & Flood, OOPSLA 2014), in Python integers.

    The generator adds the odd constant gamma to its state once per output
    and returns the finalizer of the new state, so output n is the finalizer
    of state + n * gamma modulo 2**64.
    """
    z = (state + n * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def counter_uniform(seed: int, r: int, j: int) -> float:
    """Uniform j of restart r behind the see-saw's starts, in Python integers and floats.

    From 0, each word of seed (its 64-bit limbs, low first), then r, then j
    replaces the state by output word + 1 of SplitMix64 seeded with it; the
    uniform is the top 53 bits of the last output, plus 1/2, over 2**53.
    """
    state = 0
    for word in [seed >> shift & _MASK64 for shift in range(0, max(seed.bit_length(), 1), 64)] + [r, j]:
        state = splitmix64_output(state, word + 1)
    return ((state >> 11) + 0.5) / 2**53
