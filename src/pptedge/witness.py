"""Entanglement witness constructions for the catalog edge states.

Two constructions are provided. The kernel witness for an edge state delta
starts from W = N * (P + Q^T_B) with P, Q the kernel projectors of delta and
its partial transpose and N = 1 / Tr(P + Q^T_B); subtracting the product
infimum epsilon of W makes the result a witness that detects delta with
Tr(W1 delta) = -epsilon. P + Q^T_B is :func:`~pptedge.criteria.edge_operator`,
whose expectation <ab|P + Q^T_B|ab> is the edge objective at (a, b), so
epsilon is N times the edge certificate's minimum by construction, exactly as
heuristic as that minimum, and no second see-saw runs. The witness is a pure
function of that :class:`~pptedge.criteria.EdgeCertificate`: the PPT gate,
the rank decisions and the projectors are the certificate's, made once.

The realignment witness is built exactly when the realignment criterion
says "violated": with R(rho) = U D V^dagger, the Hermitian part of
(identity - R(U V^dagger)) has expectation 1 - sum(singular values) < 0 on
rho while staying nonnegative on every product state, since R maps product
projectors to rank-one matrices of unit Frobenius norm and the aligner
U V^dagger has operator norm one.

Shifted variants subtract (Tr(W rho) + eps) * identity, leaving a witness
that detects rho by exactly -eps; with small eps these barely-detecting
witnesses are the sharpest probes for negativity on low Schmidt rank states.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bipartite import BipartiteOperator, realign
from .catalog import CatalogEntry, operator_and_name
from .criteria import EdgeCertificate, edge_operator, kernel_dims, realignment_criterion
from .exceptions import NotApplicableError
from .optimize import OptResult, SeeSawConfig, min_schmidt2_expectation

__all__ = [
    "Witness",
    "evaluate",
    "kernel_witness",
    "realignment_witness",
    "schmidt2_evidence",
    "shift_witness",
]


@dataclass(frozen=True)
class Witness:
    """Hermitian witness operator plus construction metadata.

    ``epsilon`` is the heuristic product-state infimum used in the kernel
    construction, N times the minimum of the edge certificate it comes from;
    ``normalization`` is the trace normalization N. Shifted witnesses keep
    their ancestor's metadata and record ``eps_shift``.
    """

    operator: BipartiteOperator
    method: str
    source: str
    epsilon: float | None = None
    normalization: float | None = None
    eps_shift: float | None = None
    base_method: str | None = None

    def metadata(self) -> dict:
        meta: dict = {"method": self.method, "source": self.source}
        if self.epsilon is not None:
            meta["epsilon"] = self.epsilon
        if self.normalization is not None:
            meta["normalization"] = self.normalization
        if self.eps_shift is not None:
            meta["eps_shift"] = self.eps_shift
        if self.base_method is not None:
            meta["base_method"] = self.base_method
        return meta


def _witness_matrix(w: Witness | BipartiteOperator | np.ndarray) -> np.ndarray:
    if isinstance(w, Witness):
        return w.operator.matrix
    if isinstance(w, BipartiteOperator):
        return w.matrix
    return np.asarray(w, dtype=complex)


def evaluate(w: Witness | BipartiteOperator | np.ndarray, state: BipartiteOperator | CatalogEntry) -> float:
    """Real part of Tr(W^dagger rho); the imaginary part must be negligible.

    For Hermitian W and rho the trace is real up to roundoff; a genuinely
    complex value signals a non-Hermitian operand and raises.
    """
    wm = _witness_matrix(w)
    rho = operator_and_name(state)[0].matrix
    if wm.shape != rho.shape:
        raise ValueError(f"dimension mismatch: witness {wm.shape} vs state {rho.shape}")
    val = complex(np.trace(wm.conj().T @ rho))
    if abs(val.imag) > 1e-12 * max(1.0, abs(val)):
        raise ValueError(f"expectation has non-negligible imaginary part {val.imag:.3e}")
    return float(val.real)


def kernel_witness(edge: EdgeCertificate) -> Witness:
    """Kernel-projector witness W1 for the rank-deficient PPT state certified by ``edge``.

    Builds W = N (P + Q^T_B) from the kernel projectors P of the state and
    Q of its partial transpose, taken from ``edge.projectors``, and returns
    W1 = W - epsilon * identity, with epsilon = N * edge.minimum the product
    infimum of W. Fails with :class:`NotApplicableError` when either kernel
    is trivial; a non-PPT state has no certificate.
    """
    p_range, p_pt_range = edge.projectors
    kernel_dim, pt_kernel_dim = kernel_dims(p_range, p_pt_range)
    if 0 in (kernel_dim, pt_kernel_dim):
        raise NotApplicableError("kernel witness requires rank-deficient state and partial transpose")
    # the argmin factors carry the tensor split of the certified state
    dims = (edge.argmin.dim_a, edge.argmin.dim_b)
    # Tr(P + Q^T_B) is the sum of the two kernel dimensions, an exact integer
    norm = 1.0 / (kernel_dim + pt_kernel_dim)
    # exactly Hermitian: both projectors are, and so is a partial transpose of a Hermitian matrix
    w_delta = norm * edge_operator(p_range, p_pt_range, dims).matrix
    eps = norm * edge.minimum
    return Witness(
        operator=BipartiteOperator(w_delta - eps * np.eye(w_delta.shape[0], dtype=complex), *dims),
        method="kernel",
        source=edge.state,
        epsilon=eps,
        normalization=norm,
    )


def realignment_witness(state: BipartiteOperator | CatalogEntry) -> Witness:
    """Witness W2 = I - R(U V^dagger), Hermitized, from the SVD R(rho) = U D V^dagger of the realigned state.

    Built exactly when :func:`~pptedge.criteria.realignment_criterion` says
    "violated", and then Tr(W2 rho) = 1 - trace norm < 0; otherwise raises
    :class:`NotApplicableError` with the criterion's evidence. The SVD needs
    no convention: W2 depends on it only through the polar factor U V^dagger,
    which a common phase or a common rotation inside a group of equal
    singular values leaves unchanged, and inside the null space of R(rho)
    any pairing of U and V gives a unitary aligner, of operator norm one,
    which is all the witness argument uses.
    """
    op, name = operator_and_name(state)
    report = realignment_criterion(op)
    if report.verdict != "violated":
        raise NotApplicableError(f"realignment witness requires trace norm > 1, got {report.evidence:.12g}")
    # rearranging (left factors) @ (right factors)^dagger makes the pairing
    # with the state collapse onto the singular values
    u, _, vh = np.linalg.svd(realign(op))
    aligner = u @ vh
    raw = np.eye(op.dim, dtype=complex) - realign(BipartiteOperator(aligner, op.dim_a, op.dim_b))
    herm = (raw + raw.conj().T) / 2
    return Witness(
        operator=BipartiteOperator(herm, op.dim_a, op.dim_b),
        method="realign",
        source=name,
    )


def shift_witness(w: Witness, state: BipartiteOperator | CatalogEntry, eps_shift: float = 1e-6) -> Witness:
    """Subtract (Tr(W rho) + eps_shift) * identity, so the shifted witness detects rho by exactly -eps_shift."""
    if not eps_shift > 0.0:
        raise ValueError("eps_shift must be > 0")
    op = w.operator
    value = evaluate(w, state)
    shifted = op.matrix - (value + eps_shift) * np.eye(op.dim, dtype=complex)
    return replace(
        w,
        operator=BipartiteOperator(shifted, op.dim_a, op.dim_b),
        method="shifted",
        base_method=w.method if w.base_method is None else w.base_method,
        eps_shift=eps_shift,
    )


def schmidt2_evidence(w: Witness | BipartiteOperator | np.ndarray, cfg: SeeSawConfig = SeeSawConfig()) -> OptResult:
    """Minimize the witness over Schmidt-rank-2 states.

    A negative best value exhibits a Schmidt-rank-2 state the witness
    detects, the evidence relevant for low Schmidt number of the source
    state. The operator keeps its tensor split, so a witness outside 3x3
    raises :class:`NotApplicableError`.
    """
    return min_schmidt2_expectation(w.operator if isinstance(w, Witness) else w, cfg)
