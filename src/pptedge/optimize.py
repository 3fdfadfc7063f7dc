"""Deterministic multistart see-saw minimization over product and low-rank states.

Both optimizers minimize <psi|H|psi> for one Hermitian operator H on a
bipartite space, over unit product vectors or over states of Schmidt rank
at most 2, and share one multistart loop that alternates between the two
factors of the ansatz. Each half-step fixes one factor and minimizes the
quadratic objective exactly over the other, which reduces to the minimal
eigenvector of a small effective Hermitian operator. An objective that also
involves the conjugate partner a (x) conj(b) is one such H, built by partial
transposition (see :func:`~pptedge.criteria.edge_operator`).

Plain alternation converges linearly and often slowly, so from its second
sweep on a restart starts each sweep from an extrapolated factor, with a
safeguard (the enhanced line search of alternating least squares; Rajih,
Comon & Harshman, SIAM J. Matrix Anal. Appl. 30, 2008). Let d be the
direction of the factor the first half-step keeps fixed: the factor itself
for rank 1, and for rank 2 the unit normal of its column span in C^3. The
first half-step keeps fixed the factor whose direction is
d + beta (d - phase d_prev), normalized, where d_prev is the direction one
sweep earlier and the phase aligns it with d; beta is 1 for rank 1 and 1/2
for rank 2. Where that half-step ends above the restart's last value, it is
redone from the plain factor. Each half-step's value is therefore no higher
than the restart's value after the previous sweep, and a restart's values
never increase from one sweep to the next. A factor with no direction (a
rank-deficient rank-2 factor) is not extrapolated. A plain sweep is one
whose first half-step kept the plain factor fixed; a restart is converged
when a plain sweep lowers its value by less than ``conv_tol``, so it stops
only where the plain alternation has stalled to that tolerance.

Determinism contract: restart ``r`` draws its starting point from its own
generator, ``np.random.default_rng([seed, r])``, so different seeds draw
different starts, and restarts never interact. Every array operation acts on
each restart at a fixed shape (inner products are one matrix product per
restart), the safeguard's redo solves a sub-batch, and ``np.linalg.eigh``
and ``np.linalg.qr`` each solve every matrix of a stack on its own, so
restart ``r`` gives bit-identical results in a batch of any size; a
converged restart simply leaves the batch. No phase convention is applied
per half-step, only to the reported ``ProductVector``. How many restarts
run is decided in index order: they run in rounds of 25, and the run stops
after the first round in which at least 3 restarts lie within
``max(1e-9 * |best|, conv_tol)`` of the best value so far, or at the
``restarts`` cap. The restarts that run under a smaller cap are therefore a
prefix of those that run under a larger one, and the merge of restart
results is a plain minimum with a first-index tie-break. Running the same
inputs twice gives identical results. The reported best value is a heuristic
upper bound on the true infimum: multistart see-saw carries no global
optimality certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Callable

import numpy as np

from .bipartite import BipartiteOperator, ProductVector
from .exceptions import NotApplicableError

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

    ``restarts`` caps the number of restarts; fewer run when the best basin
    is reached early (see the module docstring). ``conv_tol`` is the absolute
    objective decrease over one plain sweep (one that starts from the
    unextrapolated factor) below which a restart counts as converged; an
    extrapolated sweep that lowers the value by less makes the next sweep
    plain. It is also the floor of the tolerance within which restarts count
    as reaching the best value. ``seed`` is a nonnegative integer.
    """

    restarts: int = 200
    max_iter: int = 500
    conv_tol: float = 1e-12
    seed: int = 42

    def __post_init__(self) -> None:
        for name, low in (("restarts", 1), ("max_iter", 1), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, Integral) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
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

    ``restart_values``, ``iterations_used`` and ``converged`` cover the
    restarts that ran, in index order. ``best_value`` is the minimum of
    ``restart_values``; ``best_index`` the first restart attaining it;
    ``argmin`` re-evaluates to ``best_value``. It is a plain record; the
    command line writes the report of a Schmidt-rank-2 search from it.
    """

    best_value: float
    argmin: ProductVector | RankTwoFactors
    restart_values: np.ndarray
    iterations_used: np.ndarray
    converged: np.ndarray
    best_index: int


def _objective(op: BipartiteOperator) -> tuple[np.ndarray, tuple[int, int]]:
    """The Hermitian matrix of the objective and its tensor split; a non-Hermitian operator raises."""
    if not op.is_hermitian():
        raise ValueError("objective operator must be Hermitian within 1e-12")
    return op.matrix, (op.dim_a, op.dim_b)


def _starts(seed: int, indices: range, dim: int, rank: int) -> np.ndarray:
    """Unit-norm complex Gaussian (dim x rank) factor per restart; restart r draws from default_rng([seed, r])."""
    out = np.empty((len(indices), dim, rank), dtype=complex)
    for i, r in enumerate(indices):
        rng = np.random.default_rng([seed, r])
        z = rng.standard_normal((rank, dim)) + 1j * rng.standard_normal((rank, dim))
        out[i] = z.T / np.linalg.norm(z)
    return out


def _half_step(h: np.ndarray, dims: tuple[int, int], free: int) -> Callable:
    """Exact minimization over party ``free``'s factor (0 = A, 1 = B) with the other factor fixed.

    Factors are stacks (n, dim, rank) standing for psi = sum_r A[:, r] (x) B[:, r].
    A rank-2 fixed factor is first given orthonormal columns by one batched QR
    of the stack. Then <psi|H|psi> / <psi|psi> is the Rayleigh quotient of an
    effective operator on vec(free). That operator is one (rank^2 x m^2) @
    (m^2 x d^2) product per restart, with m and d the fixed and free party
    dimensions: a fixed shape per restart, and ``qr`` and ``eigh`` factor each
    matrix of a stack on its own, so every restart's arithmetic is the same
    whatever batch it runs in. One ``eigh`` of the stack, which reads only the
    lower triangle, gives each restart's minimal eigenpair; its eigenvector is
    used as returned, without a phase convention.
    """
    da, db = dims
    h4 = h.reshape(da, db, da, db)
    # rows (u, v): bra and ket index of the fixed party; columns (f, g): of the free party
    mat, m, d = (h4.transpose(1, 3, 0, 2), db, da) if free == 0 else (h4.transpose(0, 2, 1, 3), da, db)
    mat = mat.reshape(m * m, d * d)

    def step(fixed: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n, _, rank = fixed.shape
        if rank > 1:
            # F = Q (Q^H F) holds for rank-deficient and zero F too, and LAPACK
            # (geqrf/ungqr) factors each matrix of the stack on its own
            fixed = np.linalg.qr(fixed)[0]
        ft = fixed.transpose(0, 2, 1)
        outer = (ft.conj()[:, :, None, :, None] * ft[:, None, :, None, :]).reshape(n, rank * rank, m * m)
        eff = (outer @ mat).reshape(n, rank, rank, d, d).transpose(0, 3, 1, 4, 2).reshape(n, d * rank, d * rank)
        w, v = np.linalg.eigh(eff)
        return w[:, 0], fixed, v[:, :, 0].reshape(n, d, rank)

    return step


# Restarts run in index order, in rounds of _ROUND, until _HITS of them lie
# within max(_BASIN_RTOL * |best|, conv_tol) of the best value so far.
_ROUND = 25
_HITS = 3
_BASIN_RTOL = 1e-9
# Extrapolation step per factor rank, and the norm below which a factor's
# direction counts as zero (a rank-deficient rank-2 factor has no normal).
_BETA = {1: 1.0, 2: 0.5}
_FLAT = 1e-8
_NEXT, _LAST = [1, 2, 0], [2, 0, 1]


def _inner(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise <u|v> of two (n, dim) stacks, one matrix product per row."""
    return (u.conj()[:, None, :] @ v[:, :, None])[:, 0, 0]


def _direction(factor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The unit direction a (n, dim, rank) factor stands for, and where it is one.

    A rank-1 factor is its own direction. A rank-2 factor on C^3 stands for
    its column span, whose unit normal is the conjugate cross product of its
    columns. A direction shorter than ``_FLAT`` is returned unnormalized and
    flagged.
    """
    if factor.shape[2] == 1:
        d = factor[:, :, 0]
    else:
        # np.cross, written out: its axis handling costs more than the arithmetic at this size
        u, v = factor[:, :, 0], factor[:, :, 1]
        d = (u[:, _NEXT] * v[:, _LAST] - u[:, _LAST] * v[:, _NEXT]).conj()
    norm = np.sqrt(_inner(d, d).real)
    ok = norm > _FLAT
    return d / np.where(ok, norm, 1.0)[:, None], ok


def _extrapolated(factor: np.ndarray, d: np.ndarray, prev: np.ndarray, beta: float) -> np.ndarray:
    """The factor whose direction is d + beta (d - phase prev), normalized, with prev phase-aligned to d.

    For rank 1 that is the factor itself; for rank 2 the current factor is
    projected off the new normal, and the half-step's QR orthonormalizes it.
    With unit d and prev, Re <d|candidate> >= 1 before normalization, so it
    never divides by a small norm.
    """
    overlap = _inner(prev, d)
    c = d + beta * (d - np.exp(1j * np.angle(overlap))[:, None] * prev)
    c = c / np.sqrt(_inner(c, c).real)[:, None]
    if factor.shape[2] == 1:
        return c[:, :, None]
    return factor - c[:, :, None] @ (c.conj()[:, None, :] @ factor)


def _see_saw(
    cfg: SeeSawConfig,
    fixed: np.ndarray,
    free: np.ndarray,
    half_steps: tuple[Callable, Callable],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Alternate the two half-steps on every restart of one round until a plain sweep stops improving.

    ``fixed`` holds the starting factors the first half-step keeps fixed,
    ``free`` the factors it replaces; the second half-step swaps the roles,
    and both arrays end holding each restart's final pair. Each sweep starts
    from an extrapolated factor with a safeguard (see the module docstring).
    A restart leaves the batch once a plain sweep lowers its value by less
    than ``conv_tol``; an extrapolated sweep that does so makes the next
    sweep plain. Returns the values, sweep counts and convergence flags.
    """
    n, dim, rank = fixed.shape
    values = np.full(n, np.inf)
    iterations = np.zeros(n, dtype=int)
    converged = np.zeros(n, dtype=bool)
    prev = np.zeros((n, dim), dtype=complex)
    extrapolate = np.zeros(n, dtype=bool)
    active = np.arange(n)
    for _ in range(cfg.max_iter):
        if active.size == 0:
            break
        plain, last = fixed[active], values[active]
        d, ok = _direction(plain)
        ex = extrapolate[active] & ok
        start = plain.copy()
        start[ex] = _extrapolated(plain[ex], d[ex], prev[active[ex]], _BETA[rank])
        w, _, y = half_steps[0](start)
        back = np.flatnonzero(ex & (w > last))
        if back.size:
            y[back] = half_steps[0](plain[back])[2]
            ex[back] = False
        w, y, x = half_steps[1](y)
        fixed[active], free[active] = x, y
        small = np.abs(last - w) < cfg.conv_tol
        done = small & ~ex
        values[active] = w
        iterations[active] += 1
        converged[active[done]] = True
        prev[active] = d
        extrapolate[active] = ~small & ok
        active = active[~done]
    return values, iterations, converged


def _multistart(
    cfg: SeeSawConfig,
    rows: tuple[int, int],
    rank: int,
    half_steps: tuple[Callable, Callable],
    argmin: Callable[[np.ndarray, np.ndarray], ProductVector | RankTwoFactors],
) -> OptResult:
    """Run see-saw rounds until the best basin has been reached ``_HITS`` times, or the cap.

    Each restart starts from a (rows[0] x rank) factor that the first
    half-step keeps fixed, and that half-step replaces a (rows[1] x rank)
    one. Only the best restart's pair is kept across rounds; ``argmin``
    builds the reported point from it.
    """
    values = np.empty(0)
    iterations = np.empty(0, dtype=int)
    converged = np.empty(0, dtype=bool)
    best_value, best_index, best_pair = np.inf, 0, None
    for lo in range(0, cfg.restarts, _ROUND):
        indices = range(lo, min(lo + _ROUND, cfg.restarts))
        fixed = _starts(cfg.seed, indices, rows[0], rank)
        free = np.zeros((len(indices), rows[1], rank), dtype=complex)
        v, it, conv = _see_saw(cfg, fixed, free, half_steps)
        k = int(np.argmin(v))
        if best_pair is None or v[k] < best_value:
            best_value, best_index, best_pair = float(v[k]), lo + k, (fixed[k], free[k])
        values = np.concatenate((values, v))
        iterations = np.concatenate((iterations, it))
        converged = np.concatenate((converged, conv))
        if np.count_nonzero(values - best_value <= max(_BASIN_RTOL * abs(best_value), cfg.conv_tol)) >= _HITS:
            break
    return OptResult(
        best_value=best_value,
        argmin=argmin(*best_pair),
        restart_values=values,
        iterations_used=iterations,
        converged=converged,
        best_index=best_index,
    )


def min_generic_quadratic(operator: BipartiteOperator, cfg: SeeSawConfig = SeeSawConfig()) -> OptResult:
    """Heuristic infimum of <ab| H |ab> over unit product vectors (a, b).

    The contraction of the Hermitian H with either fixed factor is an
    effective Hermitian operator for the other, so every half-step is an
    exact eigenvector update. The operator's tensor split is the one
    minimized over.
    """
    h, dims = _objective(operator)
    steps = (_half_step(h, dims, 1), _half_step(h, dims, 0))
    return _multistart(cfg, dims, 1, steps, lambda a_best, b_best: ProductVector(a_best[:, 0], b_best[:, 0]))


def min_schmidt2_expectation(operator: BipartiteOperator, cfg: SeeSawConfig = SeeSawConfig()) -> OptResult:
    """Minimize the Rayleigh quotient of H over states of Schmidt rank at most 2.

    The 3x3 coefficient matrix of the state is kept factored as
    (3 x 2) @ (2 x 3). Fixing either factor and orthonormalizing it, by one
    batched LAPACK QR that keeps its span even when it is rank-deficient,
    turns the quotient into an ordinary eigenproblem for a 6x6 effective
    Hermitian operator in the other factor, so the same monotone alternation
    applies.
    The returned state has at most two nonzero Schmidt coefficients by
    construction. An operator on another bipartite space than 3x3 raises
    :class:`NotApplicableError`.
    """
    h, dims = _objective(operator)
    if dims != (3, 3):
        raise NotApplicableError("Schmidt-rank-2 minimization is implemented for 3x3 systems")
    steps = (_half_step(h, dims, 0), _half_step(h, dims, 1))
    # the first half-step keeps the right factor (party B) fixed and replaces the left one
    return _multistart(cfg, dims[::-1], 2, steps, lambda r_best, l_best: RankTwoFactors(l_best.copy(), r_best.T.copy()))
