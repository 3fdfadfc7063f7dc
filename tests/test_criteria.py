import json

import numpy as np
import pytest

import helpers
from conftest import EDGE_MIN_5_5, EDGE_MIN_6_6, TRACE_NORM_5_5, TRACE_NORM_6_6
from pptedge import catalog, cli, linalg
from pptedge.bipartite import BipartiteOperator, ProductVector, realign
from pptedge.criteria import (
    certify_edge,
    edge_operator,
    is_ppt,
    range_projectors,
    realignment_criterion,
)
from pptedge.exceptions import NotApplicableError
from pptedge.optimize import SeeSawConfig


def test_is_ppt_catalog_states(rho55, rho66):
    for entry in (rho55, rho66):
        report = is_ppt(entry.state)
        assert report.verdict == "pass"
        assert report.evidence >= -1e-12


def test_is_ppt_max_entangled_violated():
    report = is_ppt(catalog.get("max_entangled").state)
    assert report.verdict == "violated"
    assert abs(report.evidence + 1.0 / 3.0) < 1e-12


def test_is_ppt_max_mixed():
    report = is_ppt(catalog.get("max_mixed").state)
    assert report.verdict == "pass"
    assert abs(report.evidence - 1.0 / 9.0) < 1e-12


def test_realignment_criterion_catalog(rho55, rho66):
    for entry, pinned in ((rho55, TRACE_NORM_5_5), (rho66, TRACE_NORM_6_6)):
        report = realignment_criterion(entry.state)
        assert report.verdict == "violated"
        assert abs(report.evidence - pinned) < 1e-9


def test_realignment_evidence_matches_independent_oracle(rho55, rho66):
    for entry in (rho55, rho66):
        report = realignment_criterion(entry.state)
        oracle = helpers.dilation_trace_norm(realign(entry.state))
        assert abs(report.evidence - oracle) < 1e-9


def test_realignment_criterion_product_and_mixed_states():
    e00 = np.zeros(9)
    e00[0] = 1.0
    product = BipartiteOperator(np.outer(e00, e00), 3, 3)
    report = realignment_criterion(product)
    assert report.verdict == "pass"
    assert abs(report.evidence - 1.0) < 1e-12
    mixed = realignment_criterion(catalog.get("max_mixed").state)
    assert mixed.verdict == "pass"
    assert abs(mixed.evidence - 1.0 / 3.0) < 1e-12


def _edge_expectation(state: BipartiteOperator, a, b) -> float:
    """Expectation of the edge operator in the normalized product a (x) b: the edge objective at (a, b)."""
    v = ProductVector(a, b).tensor()
    op = edge_operator(*range_projectors(state), (3, 3))
    return float(np.real(np.vdot(v, op.matrix @ v)))


def test_edge_objective_vanishes_for_full_ranges():
    mixed = catalog.get("max_mixed").state
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert _edge_expectation(mixed, a, b) < 1e-12


def test_edge_objective_phase_invariance(rho55):
    rng = np.random.default_rng(12)
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    base = _edge_expectation(rho55.state, a, b)
    rotated = _edge_expectation(rho55.state, a * np.exp(0.7j), b * np.exp(-1.3j))
    assert abs(base - rotated) < 1e-12


def test_edge_objective_orthogonal_pair_is_two(rho55):
    # e0 (x) e0 is orthogonal to both stored ranges (their first coordinate vanishes)
    value = _edge_expectation(rho55.state, np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    assert abs(value - 2.0) < 1e-12


def test_family_vectors_are_in_range_but_partners_are_not(rho55):
    for family in catalog.range_families("rho_5_5"):
        for pv in family.samples(25, seed=8):
            in_range = linalg.residual_norm(pv.tensor(), linalg.span_projector(rho55.range_basis))
            assert in_range**2 < 1e-10
            total = _edge_expectation(rho55.state, pv.a, pv.b)
            assert total > 1e-6, family.name


def test_certify_edge_catalog(rho55, rho66, fast_cfg):
    for entry, pinned in ((rho55, EDGE_MIN_5_5), (rho66, EDGE_MIN_6_6)):
        cert = certify_edge(entry.state, fast_cfg)
        assert cert.verdict == "edge (heuristic)"
        assert abs(cert.minimum - pinned) < 1e-6 * pinned + 1e-12
        recombined = cert.residual_range**2 + cert.residual_pt_range**2
        assert abs(cert.minimum - recombined) < 1e-10
        assert float(cert.opt.restart_values.min()) == cert.minimum


@pytest.mark.parametrize("name", ["rho_5_5", "rho_6_6"])
def test_edge_search_stops_in_the_global_basin_at_every_seed(name):
    # Guards the restart stop rule. A stop in a local basin (rho_5_5: 0.01057, rho_6_6: 0.01965) reports a
    # minimum several times the pinned one, and a W1 whose epsilon is too large to be a witness.
    # Rounds of 8 (optimize._ROUND = 8) fail this guard: rho_5_5 at seeds 10 and 37, rho_6_6 at 2, 30 and 36.
    # Rounds of 10 fail it only at rho_5_5 seed 37, so it is a thin guard against _ROUND = 10.
    pinned = {"rho_5_5": EDGE_MIN_5_5, "rho_6_6": EDGE_MIN_6_6}[name]
    state = catalog.get(name).state
    minima = {seed: certify_edge(state, SeeSawConfig(seed=seed)).minimum for seed in range(50)}
    assert {seed: m for seed, m in minima.items() if abs(m - pinned) > 1e-6 * pinned} == {}


def test_certify_edge_argmin_pivots_are_exactly_real(rho55, rho66, fast_cfg):
    # ProductVector applies the phase convention once, to the reported point
    for entry in (rho55, rho66):
        argmin = certify_edge(entry.state, fast_cfg).argmin
        for factor in (argmin.a, argmin.b):
            piv = factor[np.argmax(np.abs(factor))]
            assert piv.imag == 0.0
            assert piv.real > 0.0


def test_certify_edge_separable_not_edge(fast_cfg):
    cert = certify_edge(catalog.get("separable_sample").state, fast_cfg)
    assert cert.verdict == "not edge"
    assert cert.minimum < 1e-10


def test_certify_edge_requires_ppt(fast_cfg):
    with pytest.raises(NotApplicableError):
        certify_edge(catalog.get("max_entangled").state, fast_cfg)


def test_certify_edge_seed_stability(rho55):
    minima = [certify_edge(rho55.state, SeeSawConfig(restarts=60, max_iter=400, seed=s)).minimum for s in (1, 2, 3)]
    med = float(np.median(minima))
    for m in minima:
        assert abs(m - med) <= 0.2 * med


def test_certificate_serializes(rho55, fast_cfg):
    cert = certify_edge(rho55.state, fast_cfg)
    # the certificate is a plain record; the command line writes its report block
    payload = cli._edge_block(cert)
    text = json.dumps(payload, sort_keys=True)
    assert json.loads(text)["verdict"] == "edge (heuristic)"
    assert payload["all_converged"] in (True, False)


def test_residual_norm_rejects_zero_vector_against_stored_range(rho55):
    with pytest.raises(ValueError):
        linalg.residual_norm(np.zeros(9), linalg.span_projector(rho55.range_basis))


@pytest.mark.parametrize("name", ["rho_5_5", "rho_6_6", "separable_rank4"])
def test_edge_operator_expectation_is_edge_objective(name):
    state = BipartiteOperator(helpers.separable_mixture(4), 3, 3) if name == "separable_rank4" else catalog.get(name).state
    p_range, p_pt = range_projectors(state)
    op = edge_operator(p_range, p_pt, (3, 3))
    assert op.is_hermitian()
    rng = np.random.default_rng(20)
    for _ in range(20):
        a, b = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        v = np.kron(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
        expectation = float(np.real(np.vdot(v, op.matrix @ v)))
        # independent reference: the summed squared residuals of a (x) b and its partner a (x) conj(b)
        r1 = linalg.residual_norm(np.kron(a, b), p_range)
        r2 = linalg.residual_norm(np.kron(a, b.conj()), p_pt)
        assert abs(expectation - (r1 * r1 + r2 * r2)) < 1e-12

