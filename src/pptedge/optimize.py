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

Determinism contract: restart ``r``'s starting point is a pure function of
seed, ``r`` and shape, computed in plain numpy from hashed counters (see
:func:`_uniforms`), so different seeds draw different starts, and restarts
never interact. :func:`min_schmidt2_expectations` runs
several objectives of one shape in lockstep, each row of a batch minimizing
its own objective. Every array operation acts on each restart at a fixed
shape (inner products are one matrix product per restart), the safeguard's
redo solves a sub-batch, and ``np.linalg.eigh`` and ``np.linalg.qr`` each
solve every matrix of a stack on its own, so restart ``r`` of objective ``k``
gives bit-identical results in a batch of any size, alongside any other
objectives; a converged restart simply leaves the batch. No phase convention
is applied per half-step, only to the reported ``ProductVector``. How many
restarts run is decided per objective, in index order: they run in rounds of
25 over product vectors and of 10 over Schmidt rank 2 (round j of every
objective not yet stopped in one batch, from one draw of the starts), and an
objective stops after the first round in which at least 3 of its restarts
lie within ``max(1e-9 * |best|, conv_tol)`` of its best value so far, or at
the ``restarts`` cap. The restarts that run under a smaller cap are therefore
a prefix of those that run under a larger one, and the merge of restart
results is a plain minimum with a first-index tie-break. Running the same
inputs twice gives identical results. The reported best value is a heuristic
upper bound on the true infimum: multistart see-saw carries no global
optimality certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real
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
    "min_schmidt2_expectations",
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
    as reaching the best value; it must be a finite real > 0. ``seed`` is a
    nonnegative integer. No field accepts a ``bool``.
    """

    restarts: int = 200
    max_iter: int = 500
    conv_tol: float = 1e-12
    seed: int = 42

    def __post_init__(self) -> None:
        for name, low in (("restarts", 1), ("max_iter", 1), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, Integral) or isinstance(value, bool) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        tol = self.conv_tol
        if not isinstance(tol, Real) or isinstance(tol, bool) or not 0.0 < tol < math.inf:
            raise ValueError(f"conv_tol must be a finite real > 0, got {tol!r}")


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


def _uniforms(seed: int, indices: range, count: int) -> np.ndarray:
    """``count`` uniforms in (0, 1) per restart r: draw j hashes the counter (seed, r, j) with SplitMix64.

    From z = 0, the words of seed (its 64-bit limbs, low first), then r, then j each take z to output word + 1 of
    SplitMix64 seeded with z, mix(z + (word + 1) * gamma) (Steele, Lea & Flood, OOPSLA 2014), in uint64; so
    restart r draws consecutive SplitMix64 outputs. The draw is ((z >> 11) + 1/2) / 2**53.
    """
    limbs = [int(seed) >> s & 0xFFFFFFFFFFFFFFFF for s in range(0, max(int(seed).bit_length(), 1), 64)]
    z = np.zeros(1, dtype=np.uint64)
    for word in limbs + [np.array(indices, dtype=np.uint64)[:, None], np.arange(count, dtype=np.uint64)]:
        z = z + ((word + 1) * 0x9E3779B97F4A7C15 & 0xFFFFFFFFFFFFFFFF)
        z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9
        z = (z ^ z >> 27) * 0x94D049BB133111EB
        z = z ^ z >> 31
    return ((z >> 11) + 0.5) * 2.0**-53


def _starts(seed: int, indices: range, dim: int, rank: int) -> np.ndarray:
    """Unit-norm complex Gaussian (dim x rank) factor per restart, by Box-Muller from its :func:`_uniforms`."""
    u = _uniforms(seed, indices, 2 * dim * rank).reshape(-1, 2, dim, rank)
    z = np.sqrt(-2.0 * np.log(u[:, 0])) * np.exp(2j * np.pi * u[:, 1])
    return z / np.linalg.norm(z, axis=(1, 2))[:, None, None]


def _half_step(hs: np.ndarray, dims: tuple[int, int], free: int) -> Callable:
    """Exact minimization over party ``free``'s factor (0 = A, 1 = B) with the other factor fixed.

    ``hs`` stacks k Hermitian objectives (k, D, D); ``step(fixed, problem)``
    minimizes row i of ``fixed`` for objective ``problem[i]``.
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
    h4 = hs.reshape(-1, da, db, da, db)
    # rows (u, v): bra and ket index of the fixed party; columns (f, g): of the free party
    mat, m, d = (h4.transpose(0, 2, 4, 1, 3), db, da) if free == 0 else (h4.transpose(0, 1, 3, 2, 4), da, db)
    mats = mat.reshape(-1, m * m, d * d)

    def step(fixed: np.ndarray, problem: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n, _, rank = fixed.shape
        if rank > 1:
            # F = Q (Q^H F) holds for rank-deficient and zero F too, and LAPACK
            # (geqrf/ungqr) factors each matrix of the stack on its own
            fixed = np.linalg.qr(fixed)[0]
        ft = fixed.transpose(0, 2, 1)
        outer = (ft.conj()[:, :, None, :, None] * ft[:, None, :, None, :]).reshape(n, rank * rank, m * m)
        eff = (outer @ mats[problem]).reshape(n, rank, rank, d, d).transpose(0, 3, 1, 4, 2).reshape(n, d * rank, d * rank)
        w, v = np.linalg.eigh(eff)
        return w[:, 0], fixed, v[:, :, 0].reshape(n, d, rank)

    return step


# Restarts run in index order, in rounds of _ROUND[rank], until _HITS of them
# lie within max(_BASIN_RTOL * |best|, conv_tol) of the best value so far. A
# product search stopped in a local basin overstates the edge minimum, and so
# W1's epsilon; a Schmidt-rank-2 stop there still reports an attained value.
_ROUND = {1: 25, 2: 10}
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
    problem: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Alternate the two half-steps on every restart of one round until a plain sweep stops improving.

    ``fixed`` holds the starting factors the first half-step keeps fixed,
    ``free`` the factors it replaces; the second half-step swaps the roles,
    and both arrays end holding each restart's final pair. Row i minimizes
    objective ``problem[i]``. Each sweep starts from an extrapolated factor
    with a safeguard (see the module docstring).
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
        plain, last, rows = fixed[active], values[active], problem[active]
        d, ok = _direction(plain)
        ex = extrapolate[active] & ok
        start = plain.copy()
        start[ex] = _extrapolated(plain[ex], d[ex], prev[active[ex]], _BETA[rank])
        w, _, y = half_steps[0](start, rows)
        back = np.flatnonzero(ex & (w > last))
        if back.size:
            y[back] = half_steps[0](plain[back], rows[back])[2]
            ex[back] = False
        w, y, x = half_steps[1](y, rows)
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
    problems: int = 1,
) -> tuple[OptResult, ...]:
    """One ``OptResult`` per objective of the half-steps, each from rounds of ``_ROUND[rank]`` restarts.

    Round j of every objective that has not stopped runs in one see-saw
    batch, from one draw of the round's starts. An objective stops after the
    round in which its best basin has been reached ``_HITS`` times, or at the
    cap. Each restart starts from a (rows[0] x rank) factor that the first
    half-step keeps fixed, and that half-step replaces a (rows[1] x rank)
    one; ``argmin`` builds the reported point from the best restart's pair.
    """
    runs: list[list] = [[] for _ in range(problems)]
    live = list(range(problems))
    for lo in range(0, cfg.restarts, _ROUND[rank]):
        if not live:
            break
        n = min(_ROUND[rank], cfg.restarts - lo)
        fixed = np.tile(_starts(cfg.seed, range(lo, lo + n), rows[0], rank), (len(live), 1, 1))
        free = np.zeros((len(fixed), rows[1], rank), dtype=complex)
        batch = _see_saw(cfg, fixed, free, half_steps, np.repeat(live, n)) + (fixed, free)
        running, live = live, []
        for j, p in enumerate(running):
            runs[p].append([column[j * n : (j + 1) * n] for column in batch])
            values = np.concatenate([run[0] for run in runs[p]])
            if np.count_nonzero(values - values.min() <= max(_BASIN_RTOL * abs(values.min()), cfg.conv_tol)) < _HITS:
                live.append(p)
    results = []
    for run in runs:
        values, iterations, converged, fixed, free = (np.concatenate(column) for column in zip(*run))
        k = int(np.argmin(values))
        results.append(OptResult(float(values[k]), argmin(fixed[k], free[k]), values, iterations, converged, k))
    return tuple(results)


def min_generic_quadratic(operator: BipartiteOperator, cfg: SeeSawConfig = SeeSawConfig()) -> OptResult:
    """Heuristic infimum of <ab| H |ab> over unit product vectors (a, b).

    The contraction of the Hermitian H with either fixed factor is an
    effective Hermitian operator for the other, so every half-step is an
    exact eigenvector update. The operator's tensor split is the one
    minimized over.
    """
    h, dims = _objective(operator)
    steps = (_half_step(h, dims, 1), _half_step(h, dims, 0))
    return _multistart(cfg, dims, 1, steps, lambda a_best, b_best: ProductVector(a_best[:, 0], b_best[:, 0]))[0]


def min_schmidt2_expectations(operators: tuple[BipartiteOperator, ...], cfg: SeeSawConfig = SeeSawConfig()) -> tuple:
    """Minimize the Rayleigh quotient of each H over states of Schmidt rank at most 2: one ``OptResult`` each.

    The 3x3 coefficient matrix of the state is kept factored as
    (3 x 2) @ (2 x 3). Fixing either factor and orthonormalizing it, by one
    batched LAPACK QR that keeps its span even when it is rank-deficient,
    turns the quotient into an ordinary eigenproblem for a 6x6 effective
    Hermitian operator in the other factor, so the same monotone alternation
    applies. The returned states have at most two nonzero Schmidt
    coefficients by construction. The operators run in lockstep, each result
    bit-identical to its operator's alone (see the module docstring), and an
    empty tuple gives an empty tuple. An operator on another bipartite space
    than 3x3 raises :class:`NotApplicableError` before any search runs.
    """
    objectives = [_objective(op) for op in operators]
    if any(dims != (3, 3) for _, dims in objectives):
        raise NotApplicableError("Schmidt-rank-2 minimization is implemented for 3x3 systems")
    hs = np.array([h for h, _ in objectives])
    steps = (_half_step(hs, (3, 3), 0), _half_step(hs, (3, 3), 1))
    # the first half-step keeps the right factor (party B) fixed and replaces the left one
    return _multistart(cfg, (3, 3), 2, steps, lambda r_best, l_best: RankTwoFactors(l_best.copy(), r_best.T.copy()), len(hs))


def min_schmidt2_expectation(operator: BipartiteOperator, cfg: SeeSawConfig = SeeSawConfig()) -> OptResult:
    """:func:`min_schmidt2_expectations` of the one operator."""
    return min_schmidt2_expectations((operator,), cfg)[0]
