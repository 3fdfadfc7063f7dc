"""Separability tests: PPT, realignment, edge certification.

The edge certification implements the strong range criterion numerically:
a PPT state is an edge state when no product vector in its range has its
conjugate partner in the range of the partial transpose. The certification
minimizes the summed squared residuals of both memberships over all product
vectors; a strictly positive minimum (found heuristically) is the edge
evidence, while any restart reaching zero exhibits a violating pair. The
objective is the expectation of one Hermitian operator,
:func:`edge_operator`, the only place the condition is encoded.

A PPT state whose range and partial-transpose range are both the whole space
is "not edge" exactly: every product vector and its conjugate partner lie in
the full space, so the objective is identically zero and no see-saw runs.

Each decision is made once, on the cached spectra ``op.spectrum`` and
``op.pt.spectrum``. Positivity of the partial transpose is decided only by
:func:`is_ppt` at its ``tol``; ranks, kernels and range projectors only by
the ``rel_tol`` rule of :class:`~pptedge.linalg.Spectrum`, which applies no
positivity check of its own. :func:`certify_edge` makes both decisions, and
its :class:`EdgeCertificate` carries the projectors to every later consumer,
such as :func:`~pptedge.witness.kernel_witness`. The realignment decision
reads the cached ``op.realigned_trace_norm``, and so does its witness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .bipartite import BipartiteOperator, ProductVector, partial_transpose
from .catalog import CatalogEntry, operator_and_name
from .exceptions import NotApplicableError
from .optimize import OptResult, SeeSawConfig, min_generic_quadratic

__all__ = [
    "CriterionReport",
    "EdgeCertificate",
    "REALIGNMENT_SLACK",
    "certify_edge",
    "edge_operator",
    "is_ppt",
    "kernel_dims",
    "realignment_criterion",
]

REALIGNMENT_SLACK = 1e-9
EDGE_POSITIVE_THRESHOLD = 1e-6
EDGE_ZERO_THRESHOLD = 1e-10


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of one separability test: verdict plus the scalar it rests on."""

    criterion: str
    verdict: str
    evidence: float
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "verdict": self.verdict,
            "evidence": self.evidence,
            "tolerance": self.tolerance,
        }


@dataclass(frozen=True)
class EdgeCertificate:
    """Edge certification record.

    ``minimum`` is the smallest edge objective found over the restarts that
    ran (see the stop rule in :mod:`~pptedge.optimize`); it equals
    ``residual_range**2 + residual_pt_range**2`` at ``argmin``.
    ``projectors`` holds the range projectors of the state and of its
    partial transpose that define the objective. ``opt`` is the see-saw run
    the minimum comes from; it is ``None`` when both ranges are the whole
    space, where the verdict is "not edge" exactly, the minimum is 0.0 at
    the first basis product vector, and no restart ran. The
    verdict carries an explicit inconclusive band between the zero threshold
    and the positive threshold so a near-zero heuristic minimum is never
    promoted to an edge claim.
    """

    state: str
    verdict: str
    minimum: float
    argmin: ProductVector
    residual_range: float
    residual_pt_range: float
    opt: OptResult | None
    projectors: tuple[np.ndarray, np.ndarray]

    def to_dict(self) -> dict:
        """Report block; the see-saw statistics, over the restarts that ran, appear only when a see-saw ran."""
        out = {
            "state": self.state,
            "verdict": self.verdict,
            "minimum": self.minimum,
            "residual_range": self.residual_range,
            "residual_pt_range": self.residual_pt_range,
        }
        if self.opt is not None:
            out.update(
                restarts_run=len(self.opt.restart_values),
                restart_min=float(np.min(self.opt.restart_values)),
                restart_median=float(np.median(self.opt.restart_values)),
                restart_max=float(np.max(self.opt.restart_values)),
                iterations_max=int(np.max(self.opt.iterations_used)),
                all_converged=bool(np.all(self.opt.converged)),
            )
        return out


def range_projectors(
    state: BipartiteOperator | CatalogEntry, rel_tol: float = linalg.DEFAULT_RANK_RTOL
) -> tuple[np.ndarray, np.ndarray]:
    """Projectors onto range(rho) and range(rho^T_B).

    Catalog entries with stored exact range bases use those (no spectral
    thresholds involved); other operators read their cached spectra.
    """
    if isinstance(state, CatalogEntry) and state.range_basis is not None:
        return linalg.span_projector(state.range_basis), linalg.span_projector(state.pt_range_basis)
    op, _ = operator_and_name(state)
    return op.spectrum.range_projector(rel_tol), op.pt.spectrum.range_projector(rel_tol)


def kernel_dims(p_range: np.ndarray, p_pt_range: np.ndarray) -> tuple[int, int]:
    """Dimensions of the kernels of rho and rho^T_B from their range projectors (dim - trace)."""
    return tuple(p.shape[0] - int(round(np.trace(p).real)) for p in (p_range, p_pt_range))


def is_ppt(state: BipartiteOperator | CatalogEntry, tol: float = 1e-12) -> CriterionReport:
    """PPT test: passes iff the partial transpose has no eigenvalue below -tol."""
    op, _ = operator_and_name(state)
    evidence = float(op.pt.spectrum.values[0])
    verdict = "pass" if evidence >= -tol else "violated"
    return CriterionReport("ppt", verdict, evidence, tol)


def realignment_criterion(state: BipartiteOperator | CatalogEntry) -> CriterionReport:
    """Realignment test: entanglement is flagged when the realigned trace norm, cached on the operator, exceeds one."""
    op, _ = operator_and_name(state)
    evidence = op.realigned_trace_norm
    verdict = "violated" if evidence > 1.0 + REALIGNMENT_SLACK else "pass"
    return CriterionReport("realignment", verdict, evidence, REALIGNMENT_SLACK)


def edge_operator(p_range: np.ndarray, p_pt_range: np.ndarray, dims: tuple[int, int]) -> BipartiteOperator:
    """(I - P) + (I - Q)^T_B for the range projectors P of rho and Q of rho^T_B.

    Its expectation in a (x) b is the edge objective at (a, b), because
    <a (x) conj(b)| X |a (x) conj(b)> = <a (x) b| X^T_B |a (x) b>. N times it
    is the kernel witness before the epsilon shift.
    """
    eye = np.eye(dims[0] * dims[1], dtype=complex)
    q_pt = partial_transpose(BipartiteOperator(eye - p_pt_range, *dims)).matrix
    return BipartiteOperator(eye - p_range + q_pt, *dims)


def certify_edge(
    state: BipartiteOperator | CatalogEntry,
    cfg: SeeSawConfig = SeeSawConfig(),
    rel_tol: float = linalg.DEFAULT_RANK_RTOL,
    ppt_tol: float = 1e-12,
) -> EdgeCertificate:
    """Minimize the edge objective over product vectors and classify the result.

    Only states that pass :func:`is_ppt` at ``ppt_tol`` are eligible (an
    edge state is PPT by definition); any other input raises
    :class:`NotApplicableError`. When both kernels are trivial the verdict
    is "not edge" exactly and no see-saw runs. Otherwise the verdict is
    "edge (heuristic)" when every restart that ran stays above the positive
    threshold, "not edge" when some restart reaches (numerical) zero, and
    "inconclusive" in between.
    """
    op, name = operator_and_name(state)
    ppt = is_ppt(state, ppt_tol)
    if ppt.verdict != "pass":
        raise NotApplicableError(f"state is not PPT: min partial-transpose eigenvalue {ppt.evidence:.3e}")
    p_range, p_pt = range_projectors(state, rel_tol)
    if kernel_dims(p_range, p_pt) == (0, 0):
        # every product vector and its partner lie in the full space, e0 (x) e0 among them
        return EdgeCertificate(
            state=name,
            verdict="not edge",
            minimum=0.0,
            argmin=ProductVector(np.eye(op.dim_a)[0], np.eye(op.dim_b)[0]),
            residual_range=0.0,
            residual_pt_range=0.0,
            opt=None,
            projectors=(p_range, p_pt),
        )
    result = min_generic_quadratic(edge_operator(p_range, p_pt, (op.dim_a, op.dim_b)), cfg)
    pv = result.argmin
    r1 = linalg.residual_norm(pv.tensor(), p_range)
    r2 = linalg.residual_norm(pv.conjugate_partner(), p_pt)
    minimum = result.best_value
    if minimum > EDGE_POSITIVE_THRESHOLD:
        verdict = "edge (heuristic)"
    elif minimum < EDGE_ZERO_THRESHOLD:
        verdict = "not edge"
    else:
        verdict = "inconclusive"
    return EdgeCertificate(
        state=name,
        verdict=verdict,
        minimum=minimum,
        argmin=pv,
        residual_range=r1,
        residual_pt_range=r2,
        opt=result,
        projectors=(p_range, p_pt),
    )
