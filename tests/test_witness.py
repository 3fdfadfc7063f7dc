import numpy as np
import pytest

import helpers
from conftest import EPS_5_5, EPS_6_6, TRACE_NORM_5_5, TRACE_NORM_6_6
from pptedge import catalog, linalg
from pptedge.criteria import certify_edge, edge_operator
from pptedge.bipartite import BipartiteOperator, realign
from pptedge.exceptions import NotApplicableError
from pptedge.optimize import SeeSawConfig, min_generic_quadratic
from pptedge.witness import (
    Witness,
    evaluate,
    kernel_witness,
    realignment_witness,
    schmidt2_evidence,
    shift_witness,
)


@pytest.fixture(scope="module")
def w1_55(rho55, fast_cfg):
    return kernel_witness(certify_edge(rho55, fast_cfg))


@pytest.fixture(scope="module")
def w1_66(rho66, fast_cfg):
    return kernel_witness(certify_edge(rho66, fast_cfg))


@pytest.fixture(scope="module")
def w2_55(rho55):
    return realignment_witness(rho55)


@pytest.fixture(scope="module")
def w2_66(rho66):
    return realignment_witness(rho66)


def test_kernel_witness_normalizations(w1_55, w1_66):
    assert w1_55.normalization == 1.0 / 8.0
    assert w1_66.normalization == 1.0 / 6.0


def test_kernel_witness_pre_shift_properties(rho55, w1_55):
    pre = BipartiteOperator(w1_55.operator.matrix + w1_55.epsilon * np.eye(9), 3, 3)
    assert abs(np.trace(pre.matrix).real - 1.0) < 1e-12
    assert abs(evaluate(pre, rho55)) < 1e-10
    assert pre.is_hermitian()


def test_kernel_witness_detects_source(rho55, rho66, w1_55, w1_66):
    for entry, w, pinned in ((rho55, w1_55, EPS_5_5), (rho66, w1_66, EPS_6_6)):
        assert w.epsilon > 0.0
        assert abs(w.epsilon - pinned) < 1e-6 * pinned
        assert abs(evaluate(w, entry) + w.epsilon) < 1e-10


def test_kernel_witness_nonnegative_on_products(w1_55, w1_66, fast_cfg):
    for w in (w1_55, w1_66):
        floor = min_generic_quadratic(w.operator, fast_cfg)
        assert floor.best_value >= -1e-7


def test_kernel_witness_requires_rank_deficiency(fast_cfg):
    with pytest.raises(NotApplicableError):
        kernel_witness(certify_edge(catalog.get("max_mixed"), fast_cfg))


def test_kernel_witness_is_normalized_edge_operator(rho55, fast_cfg):
    cert = certify_edge(rho55, fast_cfg)
    w = kernel_witness(cert)
    expected = w.normalization * edge_operator(*cert.projectors, (3, 3)).matrix
    assert w.operator.matrix.tobytes() == (expected - w.epsilon * np.eye(9, dtype=complex)).tobytes()
    assert w.epsilon == w.normalization * cert.minimum
    assert w.source == cert.state == "rho_5_5"


def test_kernel_witness_epsilon_seed_stability(rho55):
    values = [
        kernel_witness(certify_edge(rho55, SeeSawConfig(restarts=60, max_iter=400, seed=s))).epsilon
        for s in (1, 2, 3, 4, 5)
    ]
    med = float(np.median(values))
    assert med > 0.0
    for eps in values:
        assert abs(eps - med) <= 0.2 * med


def test_realignment_witness_detection_identity(rho55, rho66, w2_55, w2_66):
    # both sides computed independently: witness pairing vs dilation eigenvalues
    for entry, w, pinned in ((rho55, w2_55, TRACE_NORM_5_5), (rho66, w2_66, TRACE_NORM_6_6)):
        value = evaluate(w, entry)
        oracle = 1.0 - helpers.dilation_trace_norm(realign(entry.state))
        assert abs(value - oracle) < 1e-9
        assert abs(value - (1.0 - pinned)) < 1e-9
        assert value < 0.0


def test_realignment_witness_is_hermitian(w2_55, w2_66):
    for w in (w2_55, w2_66):
        assert w.operator.is_hermitian()


def test_realignment_witness_hermitization_preserves_evaluation(rho55):
    res = linalg.svd(realign(rho55.state))
    aligner = res.u @ res.v.conj().T
    raw = np.eye(9, dtype=complex) - realign(BipartiteOperator(aligner, 3, 3))
    herm = (raw + raw.conj().T) / 2
    raw_value = float(np.real(np.trace(raw.conj().T @ rho55.state.matrix)))
    herm_value = float(np.real(np.trace(herm.conj().T @ rho55.state.matrix)))
    assert abs(raw_value - herm_value) < 1e-12


def test_realignment_witness_nonnegative_on_products(w2_55, w2_66, fast_cfg):
    for w in (w2_55, w2_66):
        floor = min_generic_quadratic(w.operator, fast_cfg)
        assert floor.best_value >= -1e-7


def test_realignment_witness_requires_violation():
    with pytest.raises(NotApplicableError):
        realignment_witness(catalog.get("max_mixed"))


def test_shift_witness_algebra(rho55, w1_55):
    shifted = shift_witness(w1_55, rho55, 1e-3)
    assert abs(evaluate(shifted, rho55) + 1e-3) < 1e-12
    assert shifted.method == "shifted"
    assert shifted.base_method == "kernel"
    assert shifted.eps_shift == 1e-3
    meta = shifted.metadata()
    assert meta["base_method"] == "kernel"
    assert meta["eps_shift"] == 1e-3


def test_shift_witness_rejects_nonpositive_eps(rho55, w1_55):
    with pytest.raises(ValueError):
        shift_witness(w1_55, rho55, 0.0)
    with pytest.raises(ValueError):
        shift_witness(w1_55, rho55, -1e-3)


def test_schmidt2_evidence_negative_for_all_witnesses(rho55, rho66, w1_55, w1_66, w2_55, w2_66, fast_cfg):
    for entry, w in ((rho55, w1_55), (rho66, w1_66), (rho55, w2_55), (rho66, w2_66)):
        res = schmidt2_evidence(w, fast_cfg)
        assert res.best_value < 0.0, (entry.name, w.method)
        shifted = shift_witness(w, entry, 1e-6)
        res_shifted = schmidt2_evidence(shifted, fast_cfg)
        assert res_shifted.best_value < 0.0, (entry.name, "shifted " + w.method)


def test_schmidt2_evidence_identity_sanity(fast_cfg):
    eye_witness = Witness(operator=BipartiteOperator(np.eye(9), 3, 3), method="kernel", source="identity")
    res = schmidt2_evidence(eye_witness, fast_cfg)
    assert abs(res.best_value - 1.0) < 1e-12


def test_evaluate_contracts(rho55):
    assert abs(evaluate(np.eye(9), rho55) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        evaluate(np.eye(4), rho55)
    skew = np.zeros((9, 9), dtype=complex)
    skew[1, 2] = 1.0j  # placed on a nonzero entry of the state
    with pytest.raises(ValueError):
        evaluate(skew, rho55)


def test_witness_metadata_payload(w1_55):
    meta = w1_55.metadata()
    assert meta["method"] == "kernel"
    assert meta["source"] == "rho_5_5"
    assert meta["normalization"] == 0.125
    assert meta["epsilon"] == w1_55.epsilon
