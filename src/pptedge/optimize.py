"""Deterministic multistart see-saw minimization over product and low-rank states.

Both optimizers minimize <psi|H|psi> for one Hermitian operator H on a
bipartite space, over unit product vectors or over states of Schmidt rank
at most 2, and share one multistart loop that alternates between the two
factors of the ansatz. Each half-step fixes one factor and minimizes the
quadratic objective exactly over the other, which reduces to the minimal
eigenvector of a small effective Hermitian operator. The objective value
therefore never increases from one half-step to the next, and every restart
converges to a stationary point. An objective that also involves the
conjugate partner a (x) conj(b) is one such H, built by partial transposition
(see :func:`~pptedge.criteria.edge_operator`).

Determinism contract: restart ``k`` draws its starting point from a dedicated
generator seeded with ``seed XOR k``, restarts never interact, and the merge
of restart results is a plain minimum with a first-index tie-break. Every
array operation acts on each restart at a fixed shape, so restart ``k`` gives
bit-identical results in a batch of any size; a converged restart simply
leaves the batch. Running the same inputs twice (or scheduling restarts in
any order) gives identical results. The reported best value is a heuristic
upper bound on the true infimum: multistart see-saw carries no global
optimality certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bipartite import BipartiteOperator, ProductVector
from .exceptions import NotApplicableError
from .linalg import HERMITIAN_ATOL, canonical_eigenbasis, is_hermitian, phase_fix

__all__ = [
    "OptResult",
    "RankTwoFactors",
    "SeeSawConfig",
    "min_generic_quadratic",
    "min_schmidt2_expectation",
]


@dataclass(frozen=True)
class SeeSawConfig:
    """Multistart see-saw settings.

    ``conv_tol`` is the absolute objective decrease over one full sweep below
    which a restart counts as converged; ``record_trace`` additionally stores
    the per-half-step objective values of every restart.
    """

    restarts: int = 200
    max_iter: int = 500
    conv_tol: float = 1e-12
    seed: int = 42
    record_trace: bool = False

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not self.conv_tol > 0.0:
            raise ValueError("conv_tol must be > 0")


@dataclass(frozen=True)
class RankTwoFactors:
    """Factor pair (left: dA x 2, right: 2 x dB) representing vec(left @ right)."""

    left: np.ndarray
    right: np.ndarray

    @property
    def vector(self) -> np.ndarray:
        v = (self.left @ self.right).reshape(-1)
        return v / np.linalg.norm(v)


@dataclass(frozen=True)
class OptResult:
    """Outcome of a multistart run.

    ``best_value`` is the minimum of ``restart_values``; ``best_index`` the
    first restart attaining it; ``argmin`` re-evaluates to ``best_value``.
    ``traces`` (only with ``record_trace``) holds per-restart tuples of the
    objective after every half-step, which are non-increasing by construction.
    """

    best_value: float
    argmin: ProductVector | RankTwoFactors
    restart_values: np.ndarray
    iterations_used: np.ndarray
    converged: np.ndarray
    best_index: int
    traces: tuple[tuple[float, ...], ...] | None = None

    def to_dict(self) -> dict:
        return {
            "best_value": self.best_value,
            "best_index": self.best_index,
            "restart_values": [float(x) for x in self.restart_values],
            "iterations_used": [int(x) for x in self.iterations_used],
            "converged": [bool(x) for x in self.converged],
        }


def _objective(
    operator: BipartiteOperator | np.ndarray, dims: tuple[int, int] | None
) -> tuple[np.ndarray, tuple[int, int]]:
    """The Hermitian matrix of the objective and its tensor split.

    A :class:`BipartiteOperator` brings its own split unless ``dims`` is
    given; a plain matrix of square dimension d*d is read as d x d.
    """
    if isinstance(operator, BipartiteOperator):
        if dims is None:
            dims = (operator.dim_a, operator.dim_b)
        operator = operator.matrix
    h = np.asarray(operator, dtype=complex)
    if not is_hermitian(h):
        raise ValueError("objective operator must be Hermitian within 1e-12")
    d = h.shape[0]
    if dims is None:
        root = round(d**0.5)
        if root * root != d:
            raise ValueError("cannot infer tensor dims; pass dims=(dim_a, dim_b)")
        dims = (root, root)
    if dims[0] * dims[1] != d:
        raise ValueError(f"dims {dims} do not match operator dimension {d}")
    return h, dims


def _batch_min_eigvec(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimal eigenpair for a stack of Hermitian matrices, phase-fixed.

    For (rare) degenerate minima the eigenbasis of that matrix is put into
    :func:`~pptedge.linalg.canonical_eigenbasis` order first, keeping the
    choice reproducible.
    """
    w, v = np.linalg.eigh(mats)
    vecs = phase_fix(v[..., 0])
    degenerate = w[..., 1] - w[..., 0] <= HERMITIAN_ATOL * np.maximum(1.0, np.abs(w).max(axis=-1))
    if degenerate.any():
        vecs[degenerate] = canonical_eigenbasis(w[degenerate], v[degenerate])[1][..., 0]
    return w[..., 0], vecs


def _starts(cfg: SeeSawConfig, dim: int, rank: int) -> np.ndarray:
    """Unit-norm complex Gaussian (dim x rank) factor per restart; restart r draws from seed ^ r."""
    out = np.empty((cfg.restarts, dim, rank), dtype=complex)
    for r in range(cfg.restarts):
        rng = np.random.default_rng(cfg.seed ^ r)
        z = rng.standard_normal((rank, dim)) + 1j * rng.standard_normal((rank, dim))
        out[r] = z.T / np.linalg.norm(z)
    return out


def _householder(x: np.ndarray) -> np.ndarray:
    """Unit vectors u (n, k) with (I - 2 u u^H) x a multiple of the first unit vector.

    A zero column x gets u = 0, the identity reflector, so no NaN can arise.
    """
    head = np.abs(x[:, 0])
    phase = np.where(head > 0.0, x[:, 0] / np.where(head > 0.0, head, 1.0), 1.0)
    v = x.copy()
    v[:, 0] += phase * np.sqrt((x.real**2 + x.imag**2).sum(axis=1))
    norm = np.sqrt((v.real**2 + v.imag**2).sum(axis=1))
    return v / np.where(norm > 0.0, norm, 1.0)[:, None]


def _reflect(u: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(I - 2 u u^H) rows for each u (n, k) and rows (n, k, c)."""
    return rows - 2.0 * u[:, :, None] * (u.conj()[:, :, None] * rows).sum(axis=1)[:, None, :]


def _orthonormal_columns(f: np.ndarray) -> np.ndarray:
    """Q (n, k, 2) with orthonormal columns and F = Q (Q^H F): a Householder QR of each F (n, k, 2).

    With F = H1 H2 R for reflectors H1 (all rows) and H2 (rows 1 onward), Q is the
    first two columns of H1 H2. The closed form costs a fraction of a batched
    LAPACK SVD on these tiny matrices, and guarded reflectors keep Q
    orthonormal even when F is rank-deficient.
    """
    u1 = _householder(f[:, :, 0])
    u2 = _householder(_reflect(u1, f[:, :, 1:])[:, 1:, 0])
    q = np.broadcast_to(np.eye(*f.shape[1:], dtype=complex), f.shape).copy()
    q[:, 1:] = _reflect(u2, q[:, 1:])
    return _reflect(u1, q)


def _half_step(h: np.ndarray, dims: tuple[int, int], free: int) -> Callable:
    """Exact minimization over party ``free``'s factor (0 = A, 1 = B) with the other factor fixed.

    Factors are stacks (n, dim, rank) standing for psi = sum_r A[:, r] (x) B[:, r].
    Once the fixed factor has orthonormal columns, <psi|H|psi> / <psi|psi> is the
    Rayleigh quotient of an effective operator on vec(free). That operator is
    one (rank^2 x m^2) @ (m^2 x d^2) product per restart, with m and d the fixed
    and free party dimensions: a fixed shape per restart, so every restart's
    arithmetic is the same whatever batch it runs in.
    """
    da, db = dims
    h4 = h.reshape(da, db, da, db)
    # rows (u, v): bra and ket index of the fixed party; columns (f, g): of the free party
    mat, m, d = (h4.transpose(1, 3, 0, 2), db, da) if free == 0 else (h4.transpose(0, 2, 1, 3), da, db)
    mat = mat.reshape(m * m, d * d)

    def step(fixed: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n, _, rank = fixed.shape
        if rank > 1:
            fixed = _orthonormal_columns(fixed)
        ft = fixed.transpose(0, 2, 1)
        outer = (ft.conj()[:, :, None, :, None] * ft[:, None, :, None, :]).reshape(n, rank * rank, m * m)
        eff = (outer @ mat).reshape(n, rank, rank, d, d).transpose(0, 3, 1, 4, 2).reshape(n, d * rank, d * rank)
        w, v = _batch_min_eigvec((eff + eff.conj().transpose(0, 2, 1)) / 2)
        return w, fixed, v.reshape(n, d, rank)

    return step


def _multistart(
    cfg: SeeSawConfig,
    fixed: np.ndarray,
    free: np.ndarray,
    half_steps: tuple[Callable, Callable],
    argmin: Callable[[np.ndarray, np.ndarray], ProductVector | RankTwoFactors],
) -> OptResult:
    """Alternate the two half-steps on every restart until its sweep stops improving.

    ``fixed`` holds the starting factors the first half-step keeps fixed,
    ``free`` the factors it replaces; the second half-step swaps the roles.
    A restart leaves the batch once one full sweep lowers its value by less
    than ``conv_tol``. ``argmin`` builds the reported point from the best
    restart's (fixed, free) pair.
    """
    n = cfg.restarts
    values = np.full(n, np.inf)
    iterations = np.zeros(n, dtype=int)
    converged = np.zeros(n, dtype=bool)
    traces: list[list[float]] | None = [[] for _ in range(n)] if cfg.record_trace else None
    active = np.arange(n)
    for _ in range(cfg.max_iter):
        if active.size == 0:
            break
        w_free, x, y = half_steps[0](fixed[active])
        w_fixed, y, x = half_steps[1](y)
        fixed[active], free[active] = x, y
        if traces is not None:
            for r, first, second in zip(active, w_free, w_fixed):
                traces[r].extend((float(first), float(second)))
        done = np.abs(values[active] - w_fixed) < cfg.conv_tol
        values[active] = w_fixed
        iterations[active] += 1
        converged[active[done]] = True
        active = active[~done]

    best = int(np.argmin(values))
    return OptResult(
        best_value=float(values[best]),
        argmin=argmin(fixed[best], free[best]),
        restart_values=values,
        iterations_used=iterations,
        converged=converged,
        best_index=best,
        traces=tuple(tuple(t) for t in traces) if traces is not None else None,
    )


def min_generic_quadratic(
    operator: BipartiteOperator | np.ndarray,
    cfg: SeeSawConfig = SeeSawConfig(),
    dims: tuple[int, int] | None = None,
) -> OptResult:
    """Heuristic infimum of <ab| H |ab> over unit product vectors (a, b).

    The contraction of the Hermitian H with either fixed factor is an
    effective Hermitian operator for the other, so every half-step is an
    exact eigenvector update. ``dims`` gives the tensor split of a plain
    matrix (inferred as d x d when omitted).
    """
    h, dims = _objective(operator, dims)
    a = _starts(cfg, dims[0], 1)
    b = np.zeros((cfg.restarts, dims[1], 1), dtype=complex)
    steps = (_half_step(h, dims, 1), _half_step(h, dims, 0))
    return _multistart(cfg, a, b, steps, lambda a_best, b_best: ProductVector(a_best[:, 0], b_best[:, 0]))


def min_schmidt2_expectation(
    operator: BipartiteOperator | np.ndarray,
    cfg: SeeSawConfig = SeeSawConfig(),
) -> OptResult:
    """Minimize the Rayleigh quotient of H over states of Schmidt rank at most 2.

    The 3x3 coefficient matrix of the state is kept factored as
    (3 x 2) @ (2 x 3). Fixing either factor and orthonormalizing it turns the
    quotient into an ordinary eigenproblem for a 6x6 effective Hermitian
    operator in the other factor, so the same monotone alternation applies.
    The returned state has at most two nonzero Schmidt coefficients by
    construction. An operator on another bipartite space raises
    :class:`NotApplicableError`.
    """
    # a plain matrix is read as 3x3, and one of another size then fails the dims check
    h, dims = _objective(operator, None if isinstance(operator, BipartiteOperator) else (3, 3))
    if dims != (3, 3):
        raise NotApplicableError("Schmidt-rank-2 minimization is implemented for 3x3 systems")
    right = _starts(cfg, 3, 2)
    left = np.zeros((cfg.restarts, 3, 2), dtype=complex)
    steps = (_half_step(h, dims, 0), _half_step(h, dims, 1))
    return _multistart(cfg, right, left, steps, lambda r_best, l_best: RankTwoFactors(l_best.copy(), r_best.T.copy()))
