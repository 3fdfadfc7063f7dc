import argparse
import dataclasses
from fractions import Fraction

import numpy as np
import pytest

import helpers
from conftest import EPS_5_5, EPS_6_6, TRACE_NORM_5_5, TRACE_NORM_6_6
from pptedge import catalog, cli, linalg
from pptedge.criteria import certify_edge, edge_operator, realignment_criterion
from pptedge.bipartite import BipartiteOperator, realign, transpose_b
from pptedge.exceptions import NotApplicableError
from pptedge.optimize import SeeSawConfig, min_generic_quadratic, min_schmidt2_expectation
from pptedge.witness import (
    Witness,
    evaluate,
    kernel_witness,
    realignment_witness,
    shift_witness,
)


@pytest.fixture(scope="module")
def w1_55(rho55, fast_cfg):
    return kernel_witness(certify_edge(rho55.state, fast_cfg))


@pytest.fixture(scope="module")
def w1_66(rho66, fast_cfg):
    return kernel_witness(certify_edge(rho66.state, fast_cfg))


@pytest.fixture(scope="module")
def w2_55(rho55):
    return realignment_witness(rho55.state)


@pytest.fixture(scope="module")
def w2_66(rho66):
    return realignment_witness(rho66.state)


def test_kernel_witness_normalizations(w1_55, w1_66):
    assert w1_55.normalization == 1.0 / 8.0
    assert w1_66.normalization == 1.0 / 6.0


def test_kernel_witness_pre_shift_properties(rho55, w1_55):
    pre = BipartiteOperator(w1_55.operator.matrix + w1_55.epsilon * np.eye(9), 3, 3)
    assert abs(np.trace(pre.matrix).real - 1.0) < 1e-12
    assert abs(evaluate(pre, rho55.state)) < 1e-10
    assert pre.is_hermitian()


def test_kernel_witness_detects_source(rho55, rho66, w1_55, w1_66):
    for entry, w, pinned in ((rho55, w1_55, EPS_5_5), (rho66, w1_66, EPS_6_6)):
        assert w.epsilon > 0.0
        assert abs(w.epsilon - pinned) < 1e-6 * pinned
        assert abs(evaluate(w.operator, entry.state) + w.epsilon) < 1e-10


_EXACT_EYE = np.array([[Fraction(int(i == j)) for j in range(9)] for i in range(9)], dtype=object)


def _exact_kernel_witness(entry, w: Witness) -> tuple[np.ndarray, Fraction]:
    """N (P + Q^T_B) - eps I in Fractions, with P and Q from the stored integer range bases and eps = ``w.epsilon``; and N."""
    p = helpers.exact_row_space_projector(entry.range_basis)
    q = helpers.exact_row_space_projector(entry.pt_range_basis)
    edge = (_EXACT_EYE - p) + transpose_b(_EXACT_EYE - q, 3, 3)
    norm = 1 / np.trace(edge)
    return norm * edge - Fraction(w.epsilon) * _EXACT_EYE, norm


def test_kernel_witness_detection_identity_holds_exactly(rho55, rho66, w1_55, w1_66):
    # P and Q from the stored integer range bases are rational, and Tr(W1 rho) = -eps then holds in Fractions
    for entry, w in ((rho55, w1_55), (rho66, w1_66)):
        exact_w1, norm = _exact_kernel_witness(entry, w)
        eps = Fraction(w.epsilon)
        rho = np.array([[Fraction(x, entry.denominator) for x in row] for row in entry.exact.tolist()], dtype=object)
        assert np.trace(exact_w1 @ rho) == -eps
        assert float(norm) == w.normalization
        assert np.abs(exact_w1.astype(float) - w.operator.matrix).max() < 1e-12


def test_kernel_witness_nonnegative_on_products(w1_55, w1_66, fast_cfg):
    for w in (w1_55, w1_66):
        floor = min_generic_quadratic(w.operator, fast_cfg)
        assert floor.best_value >= -1e-7


def test_kernel_witness_requires_rank_deficiency(fast_cfg):
    with pytest.raises(NotApplicableError):
        kernel_witness(certify_edge(catalog.get("max_mixed").state, fast_cfg))


def test_kernel_witness_requires_an_edge_verdict(rho55, fast_cfg):
    # a rank-deficient separable state certifies "not edge" with a minimum of about zero, so
    # its epsilon would be about zero too, of either sign: W1 would not be a witness
    separable = certify_edge(BipartiteOperator(helpers.separable_mixture(4), 3, 3), fast_cfg)
    assert separable.verdict == "not edge" and separable.operator is not None
    with pytest.raises(NotApplicableError, match="'not edge'"):
        kernel_witness(separable)
    edge = certify_edge(rho55.state, fast_cfg)
    with pytest.raises(NotApplicableError, match="'inconclusive'"):
        kernel_witness(dataclasses.replace(edge, verdict="inconclusive"))


def test_kernel_witness_is_normalized_edge_operator(rho55, fast_cfg):
    cert = certify_edge(rho55.state, fast_cfg)
    w = kernel_witness(cert)
    # the certificate carries the operator its see-saw minimized, built from the spectral projectors
    p_range, p_pt = rho55.state.spectrum.range_projector(), rho55.state.pt.spectrum.range_projector()
    assert cert.operator.matrix.tobytes() == edge_operator(p_range, p_pt, (3, 3)).matrix.tobytes()
    expected = w.normalization * cert.operator.matrix
    assert w.operator.matrix.tobytes() == (expected - w.epsilon * np.eye(9, dtype=complex)).tobytes()
    assert w.epsilon == w.normalization * cert.minimum


def test_kernel_witness_epsilon_seed_stability(rho55):
    values = [
        kernel_witness(certify_edge(rho55.state, SeeSawConfig(restarts=60, max_iter=400, seed=s))).epsilon
        for s in (1, 2, 3, 4, 5)
    ]
    med = float(np.median(values))
    assert med > 0.0
    for eps in values:
        assert abs(eps - med) <= 0.2 * med


def test_realignment_witness_detection_identity(rho55, rho66, w2_55, w2_66):
    # both sides computed independently: witness pairing vs dilation eigenvalues
    for entry, w, pinned in ((rho55, w2_55, TRACE_NORM_5_5), (rho66, w2_66, TRACE_NORM_6_6)):
        value = evaluate(w.operator, entry.state)
        oracle = 1.0 - helpers.dilation_trace_norm(realign(entry.state))
        assert abs(value - oracle) < 1e-9
        assert abs(value - (1.0 - pinned)) < 1e-9
        assert value < 0.0


def test_realignment_witness_is_hermitian(w2_55, w2_66):
    for w in (w2_55, w2_66):
        assert w.operator.is_hermitian()


def test_realignment_witness_nonnegative_on_products(w2_55, w2_66, fast_cfg):
    for w in (w2_55, w2_66):
        floor = min_generic_quadratic(w.operator, fast_cfg)
        assert floor.best_value >= -1e-7


def test_realignment_witness_requires_violation():
    with pytest.raises(NotApplicableError):
        realignment_witness(catalog.get("max_mixed").state)


@pytest.fixture(scope="module")
def realignment_detected():
    """rho_5_5, rho_6_6 and 5 seeded NPT states whose realigned trace norm, by the dilation oracle, exceeds 1."""
    rng = np.random.default_rng(2024)
    states = [catalog.get("rho_5_5").state, catalog.get("rho_6_6").state]
    while len(states) < 7:
        g = rng.standard_normal((9, 3)) + 1j * rng.standard_normal((9, 3))
        g[:, rng.integers(1, 4) :] = 0.0  # rank 1 to 3
        rho = g @ g.conj().T
        op = BipartiteOperator((rho + rho.conj().T) / (2 * np.trace(rho).real), 3, 3)
        if helpers.dilation_trace_norm(realign(op)) > 1.0 + 1e-6 and np.linalg.eigvalsh(op.pt.matrix)[0] < 0.0:
            states.append(op)
    return states


def _realigned_complement_norm(w: np.ndarray) -> float:
    """||R(I - W)||_2 by the dilation oracle.

    <ab|I - W|ab> is the Frobenius pairing of R(I - W) with R(|ab><ab|), a
    rank-one matrix of unit trace norm, so a norm of at most 1 proves W
    nonnegative on every product state without any optimizer.
    """
    return helpers.dilation_operator_norm(realign(BipartiteOperator(np.eye(9) - w, 3, 3)))


def _raw_witness(aligner: np.ndarray) -> np.ndarray:
    return np.eye(9, dtype=complex) - realign(BipartiteOperator(aligner, 3, 3))


def test_realignment_witness_is_hermitian_before_symmetrization(realignment_detected):
    # R(rho) = S conj(R(rho)) S for Hermitian rho (S swaps both row and both column indices), and the
    # unique partial isometry U_r V_r^dagger inherits it, so I - R(U_r V_r^dagger) is Hermitian as built
    for op in realignment_detected:
        u, s, vh = op.realigned_svd
        keep = s > 1e-9 * s[0]
        raw = _raw_witness(u[:, keep] @ vh[keep])
        assert np.abs(raw - raw.conj().T).max() < 1e-13
        assert np.abs(realignment_witness(op).operator.matrix - raw).max() < 1e-13
    # the full unitary U V^dagger pairs the two null vectors of R(rho_5_5) as the SVD happens to
    u, _, vh = realignment_detected[0].realigned_svd
    raw = _raw_witness(u @ vh)
    assert np.abs(raw - raw.conj().T).max() > 0.1


def test_realignment_witness_satisfies_the_product_bound_exactly(realignment_detected):
    for op in realignment_detected:
        w = realignment_witness(op).operator.matrix
        assert _realigned_complement_norm(w) <= 1.0 + 1e-12
        # an aligner scaled by 1.01 scales I - W with it, and the bound fails
        assert _realigned_complement_norm(np.eye(9) - 1.01 * (np.eye(9) - w)) > 1.0 + 1e-12


def test_realignment_witness_nonnegative_on_random_products(realignment_detected):
    rng = np.random.default_rng(11)
    a, b = rng.standard_normal((2, 10_000, 3)) + 1j * rng.standard_normal((2, 10_000, 3))
    v = (a[:, :, None] * b[:, None, :]).reshape(-1, 9)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    for op in realignment_detected:
        w = realignment_witness(op).operator.matrix
        assert np.einsum("ni,ij,nj->n", v.conj(), w, v).real.min() >= -1e-12


def test_realignment_witness_is_built_exactly_when_the_criterion_is_violated(rho55):
    # p rho_5_5 + (1 - p) I/9 passes the criterion at p = 0 and violates it at p = 1
    def state(p: float) -> BipartiteOperator:
        return BipartiteOperator(p * rho55.state.matrix + (1.0 - p) * np.eye(9) / 9.0, 3, 3)

    lo, hi = 0.0, 1.0
    while (mid := (lo + hi) / 2) not in (lo, hi):
        lo, hi = (lo, mid) if realignment_criterion(state(mid)).verdict == "violated" else (mid, hi)
    verdicts, disagreements = set(), []
    for p in hi + np.arange(-2000, 2001) * np.spacing(hi):
        op = state(p)
        verdict = realignment_criterion(op).verdict
        verdicts.add(verdict)
        try:
            realignment_witness(op)
            built = True
        except NotApplicableError:
            built = False
        if built != (verdict == "violated"):
            disagreements.append(p)
    assert verdicts == {"pass", "violated"}
    assert disagreements == []


def test_shift_witness_algebra(rho55, w1_55):
    shifted = shift_witness(w1_55.operator, rho55.state, 1e-3)
    assert abs(evaluate(shifted, rho55.state) + 1e-3) < 1e-12


def test_shift_witness_rejects_nonpositive_eps(rho55, w1_55):
    with pytest.raises(ValueError):
        shift_witness(w1_55.operator, rho55.state, 0.0)
    with pytest.raises(ValueError):
        shift_witness(w1_55.operator, rho55.state, -1e-3)


def test_schmidt2_evidence_negative_for_all_witnesses(rho55, rho66, w1_55, w1_66, w2_55, w2_66, fast_cfg):
    for entry, w in ((rho55, w1_55), (rho66, w1_66), (rho55, w2_55), (rho66, w2_66)):
        res = min_schmidt2_expectation(w.operator, fast_cfg)
        assert res.best_value < 0.0, (entry.name, w.method)
        shifted = shift_witness(w.operator, entry.state, 1e-6)
        res_shifted = min_schmidt2_expectation(shifted, fast_cfg)
        assert res_shifted.best_value < 0.0, (entry.name, "shifted " + w.method)


_SCHMIDT2_MIN = {
    ("rho_5_5", "kernel"): -0.048621664407479,
    ("rho_5_5", "realign"): -0.568992220164437,
    ("rho_6_6", "kernel"): -0.055345262362716,
    ("rho_6_6", "realign"): -0.881642634196442,
}


@pytest.mark.parametrize("name", ["rho_5_5", "rho_6_6"])
@pytest.mark.parametrize("method", ["kernel", "realign"])
def test_schmidt2_search_stops_in_the_best_basin_at_every_seed(name, method):
    # Guards the Schmidt-rank-2 stop rule at default flags, as the edge guard in test_criteria does the product one.
    # Rounds of 10 stay within 2e-13 relative of these values at every seed. Rounds of 5 fail this guard: rho_5_5's W2
    # stops in a local basin at seeds 22 and 44, 19% above the pinned value.
    state = catalog.get(name).state
    w = kernel_witness(certify_edge(state, SeeSawConfig())) if method == "kernel" else realignment_witness(state)
    pinned = _SCHMIDT2_MIN[name, method]
    values = {seed: min_schmidt2_expectation(w.operator, SeeSawConfig(seed=seed)).best_value for seed in range(50)}
    assert {seed: v for seed, v in values.items() if abs(v - pinned) > 1e-9 * abs(pinned)} == {}


def test_kernel_witness_is_negative_on_a_schmidt_rank_2_state_exactly(rho55, rho66, w1_55, w1_66, fast_cfg):
    # the search's factors L (3x2) and R (2x3), read as Gaussian rationals: vec(L R) = x + iy has Schmidt rank
    # at most 2 by construction, and for the real symmetric rational W1, <psi|W1|psi> = x W1 x + y W1 y exactly
    def rational(m):
        return np.vectorize(Fraction, otypes=[object])(m)

    for entry, w in ((rho55, w1_55), (rho66, w1_66)):
        exact_w1, _ = _exact_kernel_witness(entry, w)
        assert np.array_equal(exact_w1, exact_w1.T)
        factors = min_schmidt2_expectation(w.operator, fast_cfg).argmin
        lr, li, rr, ri = (rational(part) for m in (factors.left, factors.right) for part in (m.real, m.imag))
        re, im = lr @ rr - li @ ri, lr @ ri + li @ rr
        # the complex rank of re + i im is half the rank of its real form [[re, -im], [im, re]]
        assert linalg.exact_rank(np.block([[re, -im], [im, re]])) == 4
        x, y = re.reshape(-1), im.reshape(-1)
        assert x @ exact_w1 @ x + y @ exact_w1 @ y < 0, entry.name


def test_schmidt2_evidence_identity_sanity(fast_cfg):
    res = min_schmidt2_expectation(BipartiteOperator(np.eye(9), 3, 3), fast_cfg)
    assert abs(res.best_value - 1.0) < 1e-12


def test_evaluate_contracts(rho55):
    assert abs(evaluate(BipartiteOperator(np.eye(9), 3, 3), rho55.state) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        evaluate(BipartiteOperator(np.eye(4), 2, 2), rho55.state)
    skew = np.zeros((9, 9), dtype=complex)
    skew[1, 2] = 1.0j  # placed on a nonzero entry of the state
    with pytest.raises(ValueError):
        evaluate(BipartiteOperator(skew, 3, 3), rho55.state)


def test_witness_metadata_payload(rho55, w1_55):
    # the witness is a plain record; the command line writes its metadata and names its source
    assert "source" not in {f.name for f in dataclasses.fields(Witness)}
    value = evaluate(w1_55.operator, rho55.state)
    meta = cli._witness_metadata(w1_55, value, argparse.Namespace(input="rho_5_5"))
    assert meta["method"] == "kernel"
    assert meta["source"] == "rho_5_5"
    assert meta["trace_with_state"] == value
    assert meta["normalization"] == 0.125
    assert meta["epsilon"] == w1_55.epsilon
