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
positivity check of its own. Every function takes the state as a
:class:`~pptedge.bipartite.BipartiteOperator`, whatever its origin; naming
a state is left to the caller.
:func:`certify_edge` makes both decisions, and its :class:`EdgeCertificate`
carries the verdict and the edge operator it minimized to every later
consumer, such as :func:`~pptedge.witness.kernel_witness`. The realignment
decision reads the cached SVD ``op.realigned_svd``, and so does its
witness. :class:`CriterionReport` and :class:`EdgeCertificate` are plain
records; the report blocks built from them are the command line's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .bipartite import BipartiteOperator, ProductVector, transpose_b
from .exceptions import NotApplicableError
from .optimize import OptResult, SeeSawConfig, min_generic_quadratic

__all__ = [
    "CriterionReport",
    "EdgeCertificate",
    "REALIGNMENT_SLACK",
    "certify_edge",
    "edge_operator",
    "is_ppt",
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


@dataclass(frozen=True)
class EdgeCertificate:
    """Edge certification record.

    ``minimum`` is the smallest edge objective found over the restarts that
    ran (see the stop rule in :mod:`~pptedge.optimize`); it equals
    ``residual_range**2 + residual_pt_range**2`` at ``argmin``. The see-saw
    fixes the residuals and ``argmin`` far less tightly than ``minimum``: the
    objective can be flat at its minimum, and a real state's is unchanged by
    complex conjugation, so compare only ``minimum`` across versions or frames.
    ``operator`` is the :func:`edge_operator` the see-saw minimized, and
    ``opt`` is that see-saw run. Both are ``None`` when both ranges are the
    whole space, where the verdict is "not edge" exactly, the minimum is 0.0
    at the first basis product vector, and no restart ran. An inconclusive
    band between the zero and positive thresholds keeps a near-zero
    heuristic minimum from becoming an edge claim. The command line writes
    this plain record's report block, with the see-saw statistics of ``opt``.
    """

    verdict: str
    minimum: float
    argmin: ProductVector
    residual_range: float
    residual_pt_range: float
    opt: OptResult | None
    operator: BipartiteOperator | None


def is_ppt(op: BipartiteOperator, tol: float = 1e-12) -> CriterionReport:
    """PPT test: passes iff the partial transpose has no eigenvalue below -tol."""
    evidence = float(op.pt.spectrum.values[0])
    verdict = "pass" if evidence >= -tol else "violated"
    return CriterionReport("ppt", verdict, evidence, tol)


def realignment_criterion(op: BipartiteOperator) -> CriterionReport:
    """Realignment test: entanglement is flagged when the realigned trace norm, summed from the cached SVD, exceeds one."""
    evidence = float(op.realigned_svd[1].sum())
    verdict = "violated" if evidence > 1.0 + REALIGNMENT_SLACK else "pass"
    return CriterionReport("realignment", verdict, evidence, REALIGNMENT_SLACK)


def edge_operator(p_range: np.ndarray, p_pt_range: np.ndarray, dims: tuple[int, int]) -> BipartiteOperator:
    """(I - P) + (I - Q)^T_B for the range projectors P of rho and Q of rho^T_B.

    Its expectation in a (x) b is the edge objective at (a, b), because
    <a (x) conj(b)| X |a (x) conj(b)> = <a (x) b| X^T_B |a (x) b>. N times it
    is the kernel witness before the epsilon shift.
    """
    eye = np.eye(dims[0] * dims[1], dtype=complex)
    return BipartiteOperator(eye - p_range + transpose_b(eye - p_pt_range, *dims), *dims)


def certify_edge(
    op: BipartiteOperator,
    cfg: SeeSawConfig = SeeSawConfig(),
    rel_tol: float = linalg.DEFAULT_RANK_RTOL,
    ppt_tol: float = 1e-12,
) -> EdgeCertificate:
    """Minimize the edge objective over product vectors and classify the result.

    Only states that pass :func:`is_ppt` at ``ppt_tol`` are eligible (an
    edge state is PPT by definition); any other input raises
    :class:`NotApplicableError`. When both ranks at ``rel_tol`` are full
    the verdict is "not edge" exactly, and no projector is built and no
    see-saw runs. Otherwise the verdict is "edge (heuristic)" when every
    restart that ran stays above the positive threshold, "not edge" when
    some restart reaches (numerical) zero, and "inconclusive" in between.
    """
    ppt = is_ppt(op, ppt_tol)
    if ppt.verdict != "pass":
        raise NotApplicableError(f"state is not PPT: min partial-transpose eigenvalue {ppt.evidence:.3e}")
    if op.spectrum.rank(rel_tol) == op.pt.spectrum.rank(rel_tol) == op.dim:
        # every product vector and its partner lie in the full space, e0 (x) e0 among them
        return EdgeCertificate(
            verdict="not edge",
            minimum=0.0,
            argmin=ProductVector(np.eye(op.dim_a)[0], np.eye(op.dim_b)[0]),
            residual_range=0.0,
            residual_pt_range=0.0,
            opt=None,
            operator=None,
        )
    # read from the spectra the ranks come from, so they agree with the ranks at rel_tol
    p_range = op.spectrum.range_projector(rel_tol)
    p_pt = op.pt.spectrum.range_projector(rel_tol)
    operator = edge_operator(p_range, p_pt, (op.dim_a, op.dim_b))
    result = min_generic_quadratic(operator, cfg)
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
        verdict=verdict,
        minimum=minimum,
        argmin=pv,
        residual_range=r1,
        residual_pt_range=r2,
        opt=result,
        operator=operator,
    )
