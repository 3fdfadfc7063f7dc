"""Every reported number is a function of the state: local unitary frames leave it unchanged.

A frame is rho' = L rho L^dagger with L = U (x) V for seeded Haar unitaries U
and V, followed in odd frames by the swap of the two parties. Ranks, the
partial-transpose spectrum, the realigned singular values and every product
or Schmidt-rank-2 minimum are invariant under such an L, and each witness is
carried along: W(rho') = L W(rho) L^dagger.
"""

import numpy as np
import pytest

import helpers
from pptedge import catalog
from pptedge.bipartite import BipartiteOperator
from pptedge.criteria import certify_edge, is_ppt, realignment_criterion
from pptedge.optimize import SeeSawConfig, min_schmidt2_expectation
from pptedge.witness import kernel_witness, realignment_witness

CFG = SeeSawConfig(seed=42)


def _haar(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _frame(k: int) -> np.ndarray:
    rng = np.random.default_rng([2026, k])
    local = np.kron(_haar(rng, 3), _haar(rng, 3))
    return helpers.swap_operator(3) @ local if k % 2 else local


def _figures(op: BipartiteOperator) -> tuple[dict, np.ndarray]:
    edge = certify_edge(op, CFG)
    w1 = kernel_witness(edge)
    w2 = realignment_witness(op)
    figures = {
        "ranks": (op.spectrum.rank(), op.pt.spectrum.rank()),
        "ppt_evidence": is_ppt(op).evidence,
        "trace_norm": realignment_criterion(op).evidence,
        "edge_minimum": edge.minimum,
        "epsilon": w1.epsilon,
        "w1_schmidt2": min_schmidt2_expectation(w1.operator, CFG).best_value,
        "w2_schmidt2": min_schmidt2_expectation(w2.operator, CFG).best_value,
    }
    return figures, w2.operator.matrix


@pytest.mark.parametrize("name", ["rho_5_5", "rho_6_6"])
def test_reported_figures_and_the_realignment_witness_are_frame_covariant(name):
    state = catalog.get(name).state
    base, w2 = _figures(state)
    for k in range(4):
        frame = _frame(k)
        m = frame @ state.matrix @ frame.conj().T
        figures, w2_frame = _figures(BipartiteOperator((m + m.conj().T) / 2, 3, 3))
        assert figures["ranks"] == base["ranks"]
        assert abs(figures["ppt_evidence"] - base["ppt_evidence"]) < 1e-12
        assert abs(figures["trace_norm"] - base["trace_norm"]) < 1e-12
        for key in ("edge_minimum", "epsilon"):
            assert abs(figures[key] - base[key]) < 1e-6 * base[key], (k, key)
        for key in ("w1_schmidt2", "w2_schmidt2"):
            assert abs(figures[key] - base[key]) < 1e-9, (k, key, figures[key], base[key])
        # an aligner that pairs the null spaces of R(rho) as the SVD happens to moves W2 by order one
        assert np.abs(w2_frame - frame @ w2 @ frame.conj().T).max() < 1e-12, k
