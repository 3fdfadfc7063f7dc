from fractions import Fraction

import numpy as np
import pytest

import helpers
from pptedge import linalg


def _eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a Hermitian matrix from the library's one eigendecomposition."""
    spectrum = linalg.Spectrum.of(m)
    return spectrum.values, spectrum.vectors


def test_hermitian_eig_identity():
    values, vectors = _eig(np.eye(9))
    assert np.allclose(values, 1.0)
    assert np.abs(vectors @ vectors.conj().T - np.eye(9)).max() < 1e-12


def test_hermitian_eig_diagonal_sorted_ascending():
    values, _ = _eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(values, [1.0, 2.0, 3.0])


def test_hermitian_eig_rank5_spectrum(rho55):
    values, _ = _eig(13.0 * rho55.state.matrix)
    below = np.sum(values < 1e-9 * values[-1])
    assert below == 4


@pytest.mark.parametrize("dim", [3, 6, 9])
def test_hermitian_eig_reconstruction_and_residuals(dim):
    rng = np.random.default_rng(100 + dim)
    m = helpers.random_hermitian(rng, dim)
    values, vectors = _eig(m)
    scale = np.linalg.norm(m)
    assert np.linalg.norm((vectors * values) @ vectors.conj().T - m) <= 1e-10 * scale
    for lam, vec in zip(values, vectors.T):
        assert np.linalg.norm(m @ vec - lam * vec) <= 1e-10 * scale
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12


def test_phase_fix_pivot_is_exactly_real_and_idempotent():
    rng = np.random.default_rng(3)
    v = rng.standard_normal((10_000, 3)) + 1j * rng.standard_normal((10_000, 3))
    fixed = linalg.phase_fix(v)
    piv = np.take_along_axis(fixed, np.argmax(np.abs(v), axis=-1)[:, None], axis=-1)[:, 0]
    assert np.all(piv.imag == 0.0)
    assert np.all(piv.real > 0.0)
    assert np.allclose(np.abs(fixed), np.abs(v), rtol=1e-15, atol=0.0)
    # a pivot that is already real and positive gets phase exactly 1
    assert linalg.phase_fix(fixed).tobytes() == fixed.tobytes()


def test_hermitian_eig_deterministic_on_degenerate_input():
    first = _eig(np.eye(4))[1]
    second = _eig(np.eye(4))[1]
    assert np.array_equal(first, second)


def test_hermitian_eig_rejects_bad_input():
    # Spectrum.of is the one Hermitian gate in front of every rank and range decision
    with pytest.raises(ValueError):
        linalg.Spectrum.of(np.ones((2, 3))).range_projector()
    with pytest.raises(ValueError):
        linalg.Spectrum.of(np.array([[0.0, 1.0], [0.0, 0.0]])).range_projector()


def test_trace_norm_zero_matrix():
    assert linalg.trace_norm(np.zeros((4, 4))) == 0.0


def test_trace_norm_rank_one_outer_product():
    rng = np.random.default_rng(5)
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    # the one nonzero singular value of |a><b| is 1, so the others add no more than roundoff
    assert abs(linalg.trace_norm(np.outer(a, b.conj())) - 1.0) < 1e-12


def test_trace_norm_matches_abs_eigenvalues_on_hermitian():
    rng = np.random.default_rng(23)
    m = helpers.random_hermitian(rng, 8)
    from_svd = linalg.trace_norm(m)
    from_eig = float(np.abs(_eig(m)[0]).sum())
    assert abs(from_svd - from_eig) < 1e-10


def test_numeric_rank_catalog(rho55, rho66):
    from pptedge.bipartite import partial_transpose

    assert linalg.Spectrum.of(rho55.state.matrix).rank(1e-9) == 5
    assert linalg.Spectrum.of(partial_transpose(rho66.state).matrix).rank(1e-9) == 6


def test_numeric_rank_trivial_cases():
    assert linalg.Spectrum.of(np.eye(9) / 9.0).rank() == 9
    assert linalg.Spectrum.of(np.zeros((5, 5))).rank() == 0


def test_numeric_rank_counts_negative_eigenvalues():
    # one rule for every Hermitian matrix: |w| > rel_tol * max|w|, with no positivity check
    assert linalg.Spectrum.of(np.diag([1.0, -1.0])).rank() == 2
    assert linalg.Spectrum.of(np.diag([1.0, -1e-12, 0.0])).rank() == 1
    p = linalg.Spectrum.of(np.diag([1.0, -1.0, 0.0])).range_projector()
    assert np.abs(p - np.diag([1.0, 1.0, 0.0])).max() < 1e-14


def test_exact_rank_catalog(rho55, rho66):
    assert linalg.exact_rank(rho55.exact) == 5
    assert linalg.exact_rank(rho55.exact_pt) == 5
    assert linalg.exact_rank(rho66.exact) == 6
    assert linalg.exact_rank(rho66.exact_pt) == 6


def test_exact_matches_numeric_rank_on_catalog(rho55, rho66):
    from pptedge.bipartite import partial_transpose

    for entry in (rho55, rho66):
        assert linalg.exact_rank(entry.exact) == linalg.Spectrum.of(entry.state.matrix).rank()
        assert linalg.exact_rank(entry.exact_pt) == linalg.Spectrum.of(partial_transpose(entry.state).matrix).rank()


def test_exact_rank_trivial():
    assert linalg.exact_rank([[0, 0], [0, 0]]) == 0
    assert linalg.exact_rank([]) == 0
    assert linalg.exact_rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]]) == 1


def test_exact_rank_agrees_with_gaussian_oracle():
    rng = np.random.default_rng(99)
    for trial in range(40):
        inner = rng.integers(1, 7)
        left = rng.integers(-5, 6, size=(7, inner))
        right = rng.integers(-5, 6, size=(inner, 7))
        m = (left @ right).tolist()
        assert linalg.exact_rank(m) == helpers.gauss_rank(m), f"trial {trial}"
    for trial in range(20):
        m = rng.integers(-9, 10, size=(6, 8)).tolist()
        assert linalg.exact_rank(m) == helpers.gauss_rank(m), f"dense trial {trial}"


def test_rational_matrix_validation():
    with pytest.raises(ValueError):
        linalg.RationalMatrix.from_rows([[1, 2], [3]])
    m = linalg.RationalMatrix.from_rows([[1, 2], [3, 4]])
    assert m.rows == m.cols == 2
    assert m[1, 0] == Fraction(3)


def test_range_projector_trivial():
    assert np.abs(linalg.Spectrum.of(np.eye(4)).range_projector() - np.eye(4)).max() < 1e-14
    v = np.array([1.0, 1j, 0.0]) / np.sqrt(2)
    p = linalg.Spectrum.of(np.outer(v, v.conj())).range_projector()
    assert np.abs(p - np.outer(v, v.conj())).max() < 1e-12


def test_projectors_catalog_traces(rho55, rho66):
    p5 = linalg.Spectrum.of(rho55.state.matrix).range_projector()
    p6 = linalg.Spectrum.of(rho66.state.matrix).range_projector()
    assert abs(np.trace(p5).real - 5.0) < 1e-10
    assert abs(np.trace(p6).real - 6.0) < 1e-10


def test_projector_contracts(rho55):
    m = rho55.state.matrix
    p = linalg.Spectrum.of(m).range_projector()
    assert np.abs(p @ p - p).max() < 1e-12
    assert np.abs(p - p.conj().T).max() < 1e-12
    assert np.abs(p @ m - m).max() <= 1e-10 * np.linalg.norm(m)


def test_span_projector_matches_eigen_route(rho55, rho66):
    for entry in (rho55, rho66):
        p_basis = linalg.span_projector(entry.range_basis)
        p_eig = linalg.Spectrum.of(entry.state.matrix).range_projector()
        assert np.abs(p_basis - p_eig).max() < 1e-10


def test_span_projector_rejects_dependent_basis():
    with pytest.raises(ValueError):
        linalg.span_projector([np.array([1.0, 0.0]), np.array([2.0, 0.0])])


def test_residual_norm_contract():
    p = np.diag([1.0, 1.0, 0.0])
    assert linalg.residual_norm(np.array([1.0, 2.0, 0.0]), p) < 1e-15
    assert abs(linalg.residual_norm(np.array([0.0, 0.0, 3.0]), p) - 1.0) < 1e-15
    with pytest.raises(ValueError):
        linalg.residual_norm(np.zeros(3), p)
