"""Entanglement witness constructions for the catalog edge states.

Two constructions are provided. The kernel witness for an edge state delta
starts from W = N * (P + Q^T_B) with P, Q the kernel projectors of delta and
its partial transpose and N = 1 / Tr(P + Q^T_B); subtracting the product
infimum epsilon of W makes the result a witness that detects delta with
Tr(W1 delta) = -epsilon. That identity holds only when the eigenvalues of
delta and delta^T_B that the rank rule drops at the certificate's
``rel_tol`` (the command line's ``--tol-eig``) are zero, since
Tr(W delta) = N (Tr(P delta) + Tr(Q delta^T_B)) sums exactly those
eigenvalues. At a coarser threshold the "kernels" hold eigenvectors of
nonzero eigenvalue, Tr(W1 delta) lies above -epsilon and can be positive:
W1 then describes the truncated state, not delta, and the command line's
``analyze`` reports it as skipped. P + Q^T_B is :func:`~pptedge.criteria.edge_operator`,
whose expectation <ab|P + Q^T_B|ab> is the edge objective at (a, b), so
epsilon is N times the edge certificate's minimum by construction, exactly as
heuristic as that minimum, and no second see-saw runs. The witness is a pure
function of that :class:`~pptedge.criteria.EdgeCertificate`: it is built
only on an edge verdict, where epsilon > 0, and from the edge operator the
certificate minimized, so the PPT gate, the rank decisions and the operator
are the certificate's, made once.

The realignment witness is built exactly when the realignment criterion
says "violated". From the SVD R(rho) = U D V^dagger cached on the operator
it takes the partial isometry U_r V_r^dagger on the singular values that the
one rank rule counts; W2 = I - R(U_r V_r^dagger) has expectation
1 - sum(singular values) < 0 on rho, yet is nonnegative on every product
state: R maps product projectors to rank-one matrices of unit Frobenius
norm, and the aligner has operator norm one. Unlike U V^dagger, which pairs
the null spaces of R(rho) as the SVD happens to, the partial isometry is
unique, so W2 is a function of rho. It also inherits R(rho) = S conj(R(rho)) S
(S swaps both row and both column indices; rho is Hermitian), which makes W2
Hermitian up to roundoff.

Shifted variants subtract (Tr(W rho) + eps) * identity, leaving a witness
that detects rho by exactly -eps; with small eps these barely-detecting
witnesses are the sharpest probes for negativity on low Schmidt rank states,
which :func:`~pptedge.optimize.min_schmidt2_expectation` searches.

Both constructions return a :class:`Witness`, a plain record of the operator
and how it was built. The operations on a witness, :func:`evaluate` and
:func:`shift_witness`, take its ``BipartiteOperator``, and the report
fields a witness appears under are written by the command line alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .bipartite import BipartiteOperator, realign
from .criteria import EdgeCertificate, realignment_criterion
from .exceptions import NotApplicableError

__all__ = [
    "Witness",
    "evaluate",
    "kernel_witness",
    "realignment_witness",
    "shift_witness",
]


@dataclass(frozen=True)
class Witness:
    """Output record of a witness construction: the Hermitian operator and how it was built.

    ``epsilon`` is the heuristic product-state infimum used in the kernel
    construction, N times the minimum of the edge certificate it comes from;
    ``normalization`` is the trace normalization N. Both are ``None`` for
    the realignment construction. A witness does not name its source state,
    and it writes no report: operations on it, such as :func:`evaluate` and
    :func:`shift_witness`, take ``w.operator``.
    """

    operator: BipartiteOperator
    method: str
    epsilon: float | None = None
    normalization: float | None = None


def evaluate(w: BipartiteOperator, state: BipartiteOperator) -> float:
    """Real part of Tr(W^dagger rho); the imaginary part must be negligible.

    For Hermitian W and rho the trace is real up to roundoff; a genuinely
    complex value signals a non-Hermitian operand and raises.
    """
    wm = w.matrix
    rho = state.matrix
    if wm.shape != rho.shape:
        raise ValueError(f"dimension mismatch: witness {wm.shape} vs state {rho.shape}")
    val = complex(np.trace(wm.conj().T @ rho))
    if abs(val.imag) > 1e-12 * max(1.0, abs(val)):
        raise ValueError(f"expectation has non-negligible imaginary part {val.imag:.3e}")
    return float(val.real)


def kernel_witness(edge: EdgeCertificate) -> Witness:
    """Kernel-projector witness W1 for the PPT state certified as edge by ``edge``.

    Takes W = N (P + Q^T_B), with P and Q the kernel projectors of the state
    and of its partial transpose, from ``edge.operator``, and returns
    W1 = W - epsilon * identity, with epsilon = N * edge.minimum the product
    infimum of W. Tr(W1 rho) = -epsilon only when the eigenvalues that
    ``rel_tol`` dropped from rho and rho^T_B are zero (see the module
    docstring). Fails with :class:`NotApplicableError` unless the verdict
    is "edge (heuristic)": on any other verdict epsilon is not positive, or
    not known to be, and W1 would not be a witness. A non-PPT state has no
    certificate.
    """
    if edge.verdict != "edge (heuristic)":
        raise NotApplicableError(f"kernel witness requires an edge verdict, got {edge.verdict!r}")
    op = edge.operator
    # Tr(P + Q^T_B) is the sum of the two kernel dimensions, an integer up to roundoff
    norm = 1.0 / round(np.trace(op.matrix).real)
    # exactly Hermitian: both projectors are, and so is a partial transpose of a Hermitian matrix
    w_delta = norm * op.matrix
    eps = norm * edge.minimum
    return Witness(
        operator=BipartiteOperator(w_delta - eps * np.eye(op.dim, dtype=complex), op.dim_a, op.dim_b),
        method="kernel",
        epsilon=eps,
        normalization=norm,
    )


def realignment_witness(op: BipartiteOperator) -> Witness:
    """Witness W2 = I - R(U_r V_r^dagger) from the cached SVD R(rho) = U D V^dagger of the realigned state.

    Built exactly when :func:`~pptedge.criteria.realignment_criterion` says
    "violated", and then Tr(W2 rho) = 1 - trace norm < 0; otherwise raises
    :class:`NotApplicableError` with the criterion's evidence. U_r and V_r are
    the singular vectors counted at ``DEFAULT_RANK_RTOL`` (see the module docstring).
    """
    report = realignment_criterion(op)
    if report.verdict != "violated":
        raise NotApplicableError(f"realignment witness requires trace norm > 1, got {report.evidence:.12g}")
    u, s, vh = op.realigned_svd
    keep = linalg.rank_mask(s, linalg.DEFAULT_RANK_RTOL)
    aligner = u[:, keep] @ vh[keep]
    raw = np.eye(op.dim, dtype=complex) - realign(BipartiteOperator(aligner, op.dim_a, op.dim_b))
    herm = (raw + raw.conj().T) / 2  # removes roundoff only: raw is Hermitian up to it
    return Witness(operator=BipartiteOperator(herm, op.dim_a, op.dim_b), method="realign")


def shift_witness(w: BipartiteOperator, state: BipartiteOperator, eps_shift: float = 1e-6) -> BipartiteOperator:
    """W - (Tr(W rho) + eps_shift) * identity: the shifted operator, which detects rho by exactly -eps_shift."""
    if not eps_shift > 0.0:
        raise ValueError("eps_shift must be > 0")
    value = evaluate(w, state)
    shifted = w.matrix - (value + eps_shift) * np.eye(w.dim, dtype=complex)
    return BipartiteOperator(shifted, w.dim_a, w.dim_b)
