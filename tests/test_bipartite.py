import numpy as np
import pytest

import helpers
from conftest import PT_5_5_NUM, PT_6_6_NUM
from pptedge.bipartite import (
    BipartiteOperator,
    ProductVector,
    realign,
    schmidt_coefficients,
    validate_density,
)
from pptedge.exceptions import InvalidStateError


def _random_op(rng, da=3, db=3):
    d = da * db
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return BipartiteOperator(m, da, db)


def test_partial_transpose_matches_printed_5_5(rho55):
    pt = rho55.state.pt
    assert np.array_equal(13.0 * pt.matrix, PT_5_5_NUM.astype(complex))


def test_partial_transpose_matches_printed_6_6(rho66):
    pt = rho66.state.pt
    assert np.array_equal(13.0 * pt.matrix, PT_6_6_NUM.astype(complex))


def test_partial_transpose_involution_is_exact():
    rng = np.random.default_rng(1)
    op = _random_op(rng)
    assert np.array_equal(op.pt.pt.matrix, op.matrix)


def test_partial_transpose_of_product_operator():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    op = BipartiteOperator(np.kron(a, b), 3, 3)
    assert np.abs(op.pt.matrix - np.kron(a, b.T)).max() < 1e-14


def test_partial_transpose_max_entangled_minimum_eigenvalue():
    v = helpers.max_entangled_vector(3)
    op = BipartiteOperator(np.outer(v, v.conj()), 3, 3)
    w = np.linalg.eigvalsh(op.pt.matrix)
    assert abs(w[0] + 1.0 / 3.0) < 1e-12


def test_spectrum_and_partial_transpose_are_cached_and_read_only():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    op = BipartiteOperator(m + m.conj().T, 3, 3)
    assert op.spectrum is op.spectrum
    assert op.pt is op.pt
    assert op.pt.spectrum is op.pt.spectrum
    for arr in (op.spectrum.values, op.spectrum.vectors, op.pt.matrix, op.pt.spectrum.values):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        op.spectrum.values[0] = 0.0


def test_realign_rank_one_for_product_projector():
    e00 = np.zeros(9)
    e00[0] = 1.0
    op = BipartiteOperator(np.outer(e00, e00), 3, 3)
    sv = np.linalg.svd(realign(op), compute_uv=False)
    assert abs(sv[0] - 1.0) < 1e-14
    assert np.abs(sv[1:]).max() < 1e-14


def test_realign_max_mixed_trace_norm():
    op = BipartiteOperator(np.eye(9) / 9.0, 3, 3)
    sv = np.linalg.svd(realign(op), compute_uv=False)
    assert abs(sv.sum() - 1.0 / 3.0) < 1e-12


def test_realign_preserves_hilbert_schmidt_inner_product():
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = _random_op(rng)
        y = _random_op(rng)
        lhs = np.vdot(realign(x), realign(y))
        rhs = np.vdot(x.matrix, y.matrix)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_realign_is_involution_on_square_blocks():
    rng = np.random.default_rng(4)
    op = _random_op(rng)
    back = realign(BipartiteOperator(realign(op), 3, 3))
    assert np.array_equal(back, op.matrix)


def test_realign_rejects_unequal_dims():
    op = BipartiteOperator(np.eye(6), 2, 3)
    with pytest.raises(ValueError):
        realign(op)


def test_realigned_separable_mixtures_have_small_trace_norm():
    rng = np.random.default_rng(5)
    for _ in range(20):
        mat = np.zeros((9, 9), dtype=complex)
        terms = rng.integers(2, 25)
        for _ in range(terms):
            a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            v = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
            mat += np.outer(v, v.conj())
        mat /= terms
        sv = np.linalg.svd(realign(BipartiteOperator(mat, 3, 3)), compute_uv=False)
        assert sv.sum() <= 1.0 + 1e-9


def test_operator_shape_validation():
    with pytest.raises(ValueError):
        BipartiteOperator(np.eye(8), 3, 3)


def test_validate_density(rho55):
    validate_density(rho55.state)
    with pytest.raises(InvalidStateError):
        validate_density(BipartiteOperator(np.eye(9), 3, 3))  # trace 9
    with pytest.raises(InvalidStateError):
        validate_density(BipartiteOperator(np.diag([1.5, -0.5] + [0.0] * 7), 3, 3))


def test_unit_trace_message_prints_a_real_trace_as_real():
    with pytest.raises(InvalidStateError, match=r"^density matrix must have unit trace, got 9$"):
        validate_density(BipartiteOperator(np.eye(9, dtype=complex), 3, 3))
    # Hermitian within 1e-12, so the trace check is reached with an imaginary part
    tilted = np.eye(9, dtype=complex) / 9
    tilted[0, 0] += 0.5 + 5e-13j
    with pytest.raises(InvalidStateError, match=r"^density matrix must have unit trace, got 1\.5\+5e-13j$"):
        validate_density(BipartiteOperator(tilted, 3, 3))


def test_product_vector_normalization_and_phase():
    p = ProductVector(np.array([0.0, 2j, 0.0]), np.array([3.0, 4.0, 0.0]))
    assert abs(np.linalg.norm(p.a) - 1.0) < 1e-12
    assert abs(np.linalg.norm(p.b) - 1.0) < 1e-12
    assert abs(p.a[1] - 1.0) < 1e-12  # phase rotated onto the first nonzero entry
    assert abs(p.b[0] - 0.6) < 1e-12


def test_product_vector_rejects_zero_factor():
    with pytest.raises(ValueError):
        ProductVector(np.zeros(3), np.array([1.0, 0.0, 0.0]))


def test_tensor_basis_layout():
    p = ProductVector(np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    assert np.array_equal(p.tensor(), np.eye(9)[0])
    q = ProductVector(np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]))
    assert np.array_equal(q.tensor(), np.eye(9)[5])


def test_conjugate_partner():
    real_b = ProductVector(np.array([1.0, 1.0, 0.0]), np.array([0.5, 0.5, 0.0]))
    assert np.array_equal(real_b.conjugate_partner(), real_b.tensor())
    p = ProductVector(np.array([1.0, 0.0]), np.array([0.0, 1j]))
    partner = p.conjugate_partner()
    # construction phase-normalizes b to (0, 1), so the partner equals the tensor here
    assert np.allclose(partner, p.tensor())
    q_b = np.array([1.0, 1j]) / np.sqrt(2)
    q = ProductVector(np.array([1.0, 0.0]), q_b)
    assert np.allclose(q.conjugate_partner(), np.kron(np.array([1.0, 0.0]), q_b.conj()))


def test_schmidt_coefficients_basics():
    assert np.allclose(schmidt_coefficients(np.eye(9)[0], 3, 3), [1.0, 0.0, 0.0])
    bell = np.zeros(9)
    bell[0] = bell[4] = 1.0 / np.sqrt(2)
    assert np.allclose(schmidt_coefficients(bell, 3, 3), [1 / np.sqrt(2), 1 / np.sqrt(2), 0.0])
    ghz = helpers.max_entangled_vector(3)
    assert np.allclose(schmidt_coefficients(ghz, 3, 3), np.full(3, 1 / np.sqrt(3)))


def test_schmidt_coefficients_norm_identity():
    rng = np.random.default_rng(6)
    v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    coeffs = schmidt_coefficients(v, 3, 3)
    assert abs(np.sum(coeffs**2) - np.linalg.norm(v) ** 2) < 1e-10


def test_schmidt_coefficients_of_products_have_single_term():
    rng = np.random.default_rng(8)
    for _ in range(10):
        p = ProductVector(rng.standard_normal(3) + 1j * rng.standard_normal(3), rng.standard_normal(3))
        coeffs = schmidt_coefficients(p.tensor(), 3, 3)
        assert abs(coeffs[0] - 1.0) < 1e-12
        assert np.abs(coeffs[1:]).max() < 1e-12


def test_schmidt_coefficients_rejects_zero_and_bad_shape():
    with pytest.raises(ValueError):
        schmidt_coefficients(np.zeros(9), 3, 3)
    with pytest.raises(ValueError):
        schmidt_coefficients(np.ones(8), 3, 3)
