import pickle

import numpy as np
import pytest

import helpers
from pptedge.bipartite import BipartiteOperator, partial_transpose, schmidt_coefficients
from pptedge.optimize import OptResult, SeeSawConfig, min_generic_quadratic, min_schmidt2_expectation

QUICK = SeeSawConfig(restarts=30, max_iter=300, seed=5)


def _product_value(h: np.ndarray, pv) -> float:
    v = pv.tensor()
    return float(np.real(np.vdot(v, h @ v)))


def _plus_conjugate_term(h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """h1 + h2^T_B on 3x3, whose expectation in a (x) b is <ab|h1|ab> + <a conj(b)|h2|a conj(b)>."""
    return h1 + partial_transpose(BipartiteOperator(h2, 3, 3)).matrix


def test_identity_objective_is_one():
    res = min_generic_quadratic(np.eye(9), QUICK)
    assert abs(res.best_value - 1.0) < 1e-12


def test_max_entangled_projector_reaches_zero():
    v = helpers.max_entangled_vector(3)
    res = min_generic_quadratic(np.outer(v, v.conj()), QUICK)
    assert res.best_value < 1e-9


def test_swap_operator_reaches_zero():
    res = min_generic_quadratic(helpers.swap_operator(3), QUICK)
    assert -1e-12 <= res.best_value < 1e-9


def test_zero_objective():
    res = min_generic_quadratic(np.zeros((9, 9)), QUICK)
    assert abs(res.best_value) < 1e-12


def test_full_space_projector_complement_is_zero():
    # objective norm((I - P) v)^2 with P the full-space projector
    res = min_generic_quadratic(np.eye(9) - np.eye(9), QUICK)
    assert abs(res.best_value) < 1e-12


def test_best_value_is_minimum_of_restarts():
    rng = np.random.default_rng(0)
    h = helpers.random_hermitian(rng, 9)
    res = min_generic_quadratic(h, QUICK)
    assert res.best_value == float(res.restart_values.min())
    assert res.best_index == int(np.argmin(res.restart_values))


def test_argmin_reevaluates_to_best_value():
    rng = np.random.default_rng(1)
    h = helpers.random_hermitian(rng, 9)
    res = min_generic_quadratic(h, QUICK)
    assert abs(_product_value(h, res.argmin) - res.best_value) < 1e-10


def test_argmin_reevaluation_with_conjugate_term():
    rng = np.random.default_rng(2)
    h1 = helpers.random_hermitian(rng, 9)
    h2 = helpers.random_hermitian(rng, 9)
    res = min_generic_quadratic(_plus_conjugate_term(h1, h2), QUICK)
    pv = res.argmin
    direct = np.real(np.vdot(pv.tensor(), h1 @ pv.tensor()))
    partner = pv.conjugate_partner()
    direct += np.real(np.vdot(partner, h2 @ partner))
    assert abs(direct - res.best_value) < 1e-10


def test_monotone_half_steps_product():
    rng = np.random.default_rng(3)
    cfg = SeeSawConfig(restarts=20, max_iter=200, seed=9, record_trace=True)
    h1 = helpers.random_hermitian(rng, 9)
    h2 = helpers.random_hermitian(rng, 9)
    res = min_generic_quadratic(_plus_conjugate_term(h1, h2), cfg)
    assert res.traces is not None
    for trace in res.traces:
        diffs = np.diff(np.array(trace))
        assert diffs.max(initial=-np.inf) <= 1e-14


def test_monotone_half_steps_schmidt2():
    rng = np.random.default_rng(4)
    cfg = SeeSawConfig(restarts=20, max_iter=200, seed=9, record_trace=True)
    res = min_schmidt2_expectation(helpers.random_hermitian(rng, 9), cfg)
    for trace in res.traces:
        diffs = np.diff(np.array(trace))
        assert diffs.max(initial=-np.inf) <= 1e-14


def test_deterministic_results_byte_identical():
    rng = np.random.default_rng(5)
    h = helpers.random_hermitian(rng, 9)
    first = min_generic_quadratic(h, QUICK)
    second = min_generic_quadratic(h, QUICK)
    assert pickle.dumps(first) == pickle.dumps(second)
    s_first = min_schmidt2_expectation(h, QUICK)
    s_second = min_schmidt2_expectation(h, QUICK)
    assert pickle.dumps(s_first) == pickle.dumps(s_second)


def test_brute_force_oracle_agreement_2x2():
    rng = np.random.default_rng(2024)
    cfg = SeeSawConfig(restarts=50, max_iter=300, seed=1)
    for trial in range(6):
        h = helpers.random_hermitian(rng, 4)
        res = min_generic_quadratic(h, cfg, dims=(2, 2))
        oracle = helpers.brute_force_product_min_2x2(h)
        assert abs(res.best_value - oracle) < 1e-4, f"trial {trial}"


def test_schmidt2_identity_is_one():
    res = min_schmidt2_expectation(np.eye(9), QUICK)
    assert abs(res.best_value - 1.0) < 1e-12


def test_schmidt2_reaches_rank_two_ground_state():
    bell = np.zeros(9, dtype=complex)
    bell[0] = bell[4] = 1.0 / np.sqrt(2)
    h = np.eye(9) - 2.0 * np.outer(bell, bell.conj())
    res = min_schmidt2_expectation(h, QUICK)
    assert abs(res.best_value + 1.0) < 1e-9


def test_schmidt2_feasibility():
    h = helpers.random_hermitian(np.random.default_rng(6), 9)
    res = min_schmidt2_expectation(h, QUICK)
    vec = res.argmin.vector
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
    coeffs = schmidt_coefficients(vec, 3, 3)
    assert coeffs[2] < 1e-8 * coeffs[0]
    direct = float(np.real(np.vdot(vec, h @ vec)))
    assert abs(direct - res.best_value) < 1e-10


def test_restart_metadata_shapes():
    res = min_generic_quadratic(np.eye(9), SeeSawConfig(restarts=7, max_iter=50, seed=2))
    assert len(res.restart_values) == 7
    assert len(res.iterations_used) == 7
    assert len(res.converged) == 7
    assert res.converged.all()
    assert isinstance(res, OptResult)
    payload = res.to_dict()
    assert payload["best_value"] == res.best_value


def test_config_validation():
    with pytest.raises(ValueError):
        SeeSawConfig(restarts=0)
    with pytest.raises(ValueError):
        SeeSawConfig(max_iter=0)
    with pytest.raises(ValueError):
        SeeSawConfig(conv_tol=0.0)


def test_rejects_non_hermitian():
    bad = np.zeros((9, 9))
    bad[0, 1] = 1.0
    with pytest.raises(ValueError):
        min_generic_quadratic(bad, QUICK)
    with pytest.raises(ValueError):
        min_schmidt2_expectation(bad, QUICK)


def test_dims_inference_and_validation():
    op = BipartiteOperator(np.eye(6), 2, 3)
    res = min_generic_quadratic(op, SeeSawConfig(restarts=4, max_iter=30, seed=3))
    assert abs(res.best_value - 1.0) < 1e-12
    assert res.argmin.a.size == 2 and res.argmin.b.size == 3
    with pytest.raises(ValueError):
        min_generic_quadratic(np.eye(6), QUICK)  # 6 is not a perfect square, dims required
    with pytest.raises(ValueError):
        min_generic_quadratic(np.eye(9), QUICK, dims=(2, 3))
    with pytest.raises(ValueError):
        min_generic_quadratic(np.eye(9)[:3], QUICK)
    with pytest.raises(ValueError):
        min_schmidt2_expectation(np.eye(6), QUICK)


def _argmin_bits(argmin) -> tuple[bytes, ...]:
    return tuple(np.asarray(x).tobytes() for x in vars(argmin).values())


def _edge_operator_5_5() -> np.ndarray:
    from pptedge import catalog, linalg

    entry = catalog.rho_5_5()
    eye = np.eye(9)
    p_range, p_pt = (linalg.span_projector(basis) for basis in (entry.range_basis, entry.pt_range_basis))
    return _plus_conjugate_term(eye - p_range, eye - p_pt)


_BATCH_OBJECTIVES = {
    "product": lambda cfg: min_generic_quadratic(_edge_operator_5_5(), cfg),
    "schmidt2": lambda cfg: min_schmidt2_expectation(helpers.random_hermitian(np.random.default_rng(8), 9), cfg),
}
_BATCH_REFERENCE: dict[str, OptResult] = {}


@pytest.mark.parametrize("objective", sorted(_BATCH_OBJECTIVES))
@pytest.mark.parametrize("batch", [1, 3, 37, 200])
def test_restart_is_bit_identical_in_any_batch(objective, batch):
    run = _BATCH_OBJECTIVES[objective]
    if objective not in _BATCH_REFERENCE:
        _BATCH_REFERENCE[objective] = run(SeeSawConfig(restarts=200, seed=42))
    ref = _BATCH_REFERENCE[objective]
    res = run(SeeSawConfig(restarts=batch, seed=42))
    assert res.restart_values.tobytes() == ref.restart_values[:batch].tobytes()
    assert res.iterations_used.tobytes() == ref.iterations_used[:batch].tobytes()
    # restart k of seed s is restart 0 of seed s ^ k, so a batch of one reproduces the best restart alone
    alone = run(SeeSawConfig(restarts=1, seed=42 ^ res.best_index))
    assert alone.restart_values[0] == res.best_value
    assert _argmin_bits(alone.argmin) == _argmin_bits(res.argmin)


def _qr_inputs(kind: str) -> np.ndarray:
    rng = np.random.default_rng(12)
    f = rng.standard_normal((50, 3, 2)) + 1j * rng.standard_normal((50, 3, 2))
    if kind == "rank_one":
        f[:, :, 1] = (0.3 - 2.0j) * f[:, :, 0]
    elif kind == "zero_first_column":
        f[:, :, 0] = 0.0
    elif kind == "zero_second_column":
        f[:, :, 1] = 0.0
    elif kind == "all_zero":
        f[:] = 0.0
    return f


@pytest.mark.parametrize("kind", ["random", "rank_one", "zero_first_column", "zero_second_column", "all_zero"])
def test_orthonormal_columns_span_the_input(kind):
    from pptedge.optimize import _orthonormal_columns

    f = _qr_inputs(kind)
    q = _orthonormal_columns(f)
    qh = q.conj().transpose(0, 2, 1)
    assert q.shape == f.shape and np.isfinite(q).all()
    assert np.abs(qh @ q - np.eye(2)).max() < 1e-14
    assert np.abs(f - q @ (qh @ f)).max() < 1e-13
