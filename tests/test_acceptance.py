"""Acceptance suite: one test per release criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Optimizer-dependent criteria use the default
configuration (200 restarts, seed 42) unless the criterion itself prescribes
other seeds.
"""

import pickle
import time

import numpy as np
import pytest

import helpers
from conftest import (
    EDGE_MIN_5_5,
    EDGE_MIN_6_6,
    PT_5_5_NUM,
    PT_6_6_NUM,
    TRACE_NORM_5_5,
    TRACE_NORM_6_6,
)
from pptedge import catalog, linalg
from pptedge.bipartite import BipartiteOperator, partial_transpose, realign, schmidt_coefficients
from pptedge.criteria import certify_edge, range_membership
from pptedge.optimize import SeeSawConfig, min_generic_quadratic
from pptedge.witness import evaluate, kernel_witness, realignment_witness, schmidt2_evidence, shift_witness

DEFAULT = SeeSawConfig()


def _report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {number:2d}] {status}  {description}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def entries():
    return catalog.rho_5_5(), catalog.rho_6_6()


@pytest.fixture(scope="module")
def kernel_witnesses(entries):
    return tuple(kernel_witness(entry, DEFAULT) for entry in entries)


@pytest.fixture(scope="module")
def realignment_witnesses(entries):
    return tuple(realignment_witness(entry) for entry in entries)


def test_criterion_01_exact_ranks(entries):
    start = time.perf_counter()
    r55, r66 = entries
    values = (
        linalg.exact_rank(r55.exact),
        linalg.exact_rank(r55.exact_pt),
        linalg.exact_rank(r66.exact),
        linalg.exact_rank(r66.exact_pt),
    )
    elapsed = time.perf_counter() - start
    ok = values == (5, 5, 6, 6) and elapsed < 1.0
    _report(1, "exact ranks of numerators and their partial transposes are (5,5) and (6,6)", ok, f"{elapsed:.3f}s")


def test_criterion_02_partial_transpose_fixture(entries):
    start = time.perf_counter()
    r55, r66 = entries
    ok55 = np.array_equal(13.0 * partial_transpose(r55.state).matrix, PT_5_5_NUM.astype(complex))
    ok66 = np.array_equal(13.0 * partial_transpose(r66.state).matrix, PT_6_6_NUM.astype(complex))
    elapsed = time.perf_counter() - start
    _report(2, "partial transposes equal the expected integer tables entrywise", ok55 and ok66 and elapsed < 1.0)


def test_criterion_03_ppt(entries):
    minima = []
    for entry in entries:
        minima.append(np.linalg.eigvalsh(entry.state.matrix)[0])
        minima.append(np.linalg.eigvalsh(partial_transpose(entry.state).matrix)[0])
    ok = all(m >= -1e-12 for m in minima)
    _report(3, "both states and both partial transposes are PSD within 1e-12", ok, f"min eig {min(minima):.2e}")


def test_criterion_04_realignment_violation(entries):
    start = time.perf_counter()
    ok = True
    for entry, pinned in zip(entries, (TRACE_NORM_5_5, TRACE_NORM_6_6)):
        value = linalg.trace_norm(realign(entry.state))
        oracle = helpers.dilation_trace_norm(realign(entry.state))
        ok &= value > 1.0 + 1e-6
        ok &= abs(value - pinned) < 1e-9
        ok &= abs(oracle - pinned) < 1e-9
    elapsed = time.perf_counter() - start
    _report(4, "realigned trace norms exceed 1 and match the pinned oracle values to 1e-9", ok and elapsed < 1.0)


def test_criterion_05_range_fixtures(entries):
    r55, r66 = entries
    ok = True
    for range_name, which in (("rho_5_5", "rho"), ("rho_5_5_pt", "pt")):
        for family in catalog.range_families(range_name):
            residuals = [range_membership(pv.tensor(), r55, which) for pv in family.samples(100, seed=17)]
            ok &= max(residuals) < 1e-10
    for entry in (r55, r66):
        p_basis = linalg.span_projector(entry.range_basis)
        p_eig = linalg.range_projector(entry.state.matrix)
        ok &= float(np.abs(p_basis - p_eig).max()) < 1e-10
        q_basis = linalg.span_projector(entry.pt_range_basis)
        q_eig = linalg.range_projector(partial_transpose(entry.state).matrix)
        ok &= float(np.abs(q_basis - q_eig).max()) < 1e-10
    _report(5, "family vectors stay in range (100 samples each) and exact bases span the ranges", ok)


def test_criterion_06_edge_certification(entries):
    ok = True
    details = []
    for entry, pinned in zip(entries, (EDGE_MIN_5_5, EDGE_MIN_6_6)):
        start = time.perf_counter()
        cert = certify_edge(entry, DEFAULT)
        elapsed = time.perf_counter() - start
        ok &= cert.verdict == "edge (heuristic)" and cert.minimum > 1e-6 and elapsed < 30.0
        seeded = [
            certify_edge(entry, SeeSawConfig(seed=s)).minimum for s in (1, 2, 3, 4, 5)
        ]
        med = float(np.median(seeded))
        ok &= all(abs(m - med) <= 0.2 * med for m in seeded)
        ok &= abs(cert.minimum - pinned) < 0.2 * pinned
        details.append(f"{entry.name}: min {cert.minimum:.3e} in {elapsed:.1f}s")
    separable = certify_edge(catalog.get("separable_sample"), DEFAULT)
    ok &= separable.verdict == "not edge" and separable.minimum < 1e-10
    _report(6, "edge minima positive and seed-stable; separable mixture reaches zero", ok, "; ".join(details))


def test_criterion_07_kernel_witness(entries, kernel_witnesses):
    ok = True
    details = []
    for entry, w, expected_norm in zip(entries, kernel_witnesses, (1.0 / 8.0, 1.0 / 6.0)):
        ok &= w.normalization == expected_norm
        ok &= abs(evaluate(w.pre_shift, entry)) < 1e-10
        ok &= w.epsilon > 0.0
        ok &= abs(evaluate(w, entry) + w.epsilon) < 1e-10
        floor = min_generic_quadratic(w.operator, DEFAULT)
        ok &= floor.best_value >= -1e-7
        details.append(f"{entry.name}: eps {w.epsilon:.3e}")
    _report(7, "kernel witnesses: N = 1/8 and 1/6, detection by -eps, nonnegative on products", ok, "; ".join(details))


def test_criterion_08_realignment_witness(entries, realignment_witnesses):
    ok = True
    for entry, w, pinned in zip(entries, realignment_witnesses, (TRACE_NORM_5_5, TRACE_NORM_6_6)):
        value = evaluate(w, entry)
        ok &= abs(value - (1.0 - pinned)) < 1e-9
        floor = min_generic_quadratic(w.operator, DEFAULT)
        ok &= floor.best_value >= -1e-7
    _report(8, "realignment witnesses satisfy Tr(W rho) = 1 - trace norm and stay nonnegative on products", ok)


def test_criterion_09_schmidt_rank2_evidence(entries, kernel_witnesses, realignment_witnesses):
    start = time.perf_counter()
    ok = True
    details = []
    witnesses = list(zip(entries, kernel_witnesses)) + list(zip(entries, realignment_witnesses))
    for entry, w in witnesses:
        for variant in (w, shift_witness(w, entry, 1e-6)):
            res = schmidt2_evidence(variant, DEFAULT)
            coeffs = schmidt_coefficients(res.argmin.vector, 3, 3)
            ok &= res.best_value < 0.0
            ok &= coeffs[2] < 1e-8 * coeffs[0]
            if variant is w:
                details.append(f"{entry.name}/{w.method}: {res.best_value:.3e}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    _report(9, "all witnesses and shifted variants are negative on Schmidt-rank-2 states", ok, "; ".join(details))


def test_criterion_10_optimizer_properties(entries):
    ok = True
    # monotone half-steps on the edge objective and on random Hermitian operators
    trace_cfg = SeeSawConfig(restarts=40, max_iter=300, seed=3, record_trace=True)
    r55 = entries[0]
    p_basis = linalg.span_projector(r55.range_basis)
    q_basis = linalg.span_projector(r55.pt_range_basis)
    eye = np.eye(9)
    edge_op = eye - p_basis + partial_transpose(BipartiteOperator(eye - q_basis, 3, 3)).matrix
    res = min_generic_quadratic(edge_op, trace_cfg)
    for trace in res.traces:
        ok &= float(np.diff(np.array(trace)).max(initial=-np.inf)) <= 1e-14
    rng = np.random.default_rng(77)
    for _ in range(3):
        res = min_generic_quadratic(helpers.random_hermitian(rng, 9), trace_cfg)
        for trace in res.traces:
            ok &= float(np.diff(np.array(trace)).max(initial=-np.inf)) <= 1e-14

    # byte-identical determinism
    h = helpers.random_hermitian(np.random.default_rng(78), 9)
    ok &= pickle.dumps(min_generic_quadratic(h, DEFAULT)) == pickle.dumps(min_generic_quadratic(h, DEFAULT))

    # brute-force oracle agreement on 2 (x) 2
    oracle_rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(6):
        h2 = helpers.random_hermitian(oracle_rng, 4)
        found = min_generic_quadratic(h2, SeeSawConfig(restarts=50, seed=1), dims=(2, 2)).best_value
        worst = max(worst, abs(found - helpers.brute_force_product_min_2x2(h2)))
    ok &= worst < 1e-4
    _report(10, "monotone half-steps, byte-identical determinism, brute-force agreement", ok, f"oracle gap {worst:.1e}")
