import dataclasses
import functools
import inspect
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import families
import helpers
from conftest import PT_5_5_NUM, PT_6_6_NUM
from pptedge import catalog, linalg
from pptedge.bipartite import transpose_b
from pptedge.criteria import is_ppt, realignment_criterion


def test_numerator_diagonals_sum_to_denominator(rho55, rho66):
    for entry in (rho55, rho66):
        diag = sum(entry.exact[i, i] for i in range(9))
        assert diag == Fraction(13)
        assert abs(entry.state.trace - 1.0) < 1e-15


def test_state_equals_numerator_over_13(rho55, rho66):
    for entry in (rho55, rho66):
        assert np.array_equal(entry.state.matrix, entry.exact / 13.0)


def test_specific_entries(rho55, rho66):
    # composite index (i, k) -> 3 i + k
    assert rho55.exact[1, 1] == Fraction(2)    # ((0,1),(0,1)) = 2/13
    assert rho55.exact[8, 1] == Fraction(1)    # ((2,2),(0,1)) = 1/13
    assert rho66.exact[0, 8] == Fraction(-1)   # ((0,0),(2,2)) = -1/13


def test_numerators_symmetric(rho55, rho66):
    for entry in (rho55, rho66):
        for i in range(9):
            for j in range(9):
                assert entry.exact[i, j] == entry.exact[j, i]


def test_exact_pt_matches_printed_tables(rho55, rho66):
    for entry, printed in ((rho55, PT_5_5_NUM), (rho66, PT_6_6_NUM)):
        got = transpose_b(entry.exact, 3, 3)
        for i in range(9):
            for j in range(9):
                assert got[i, j] == Fraction(int(printed[i, j]))


def test_expected_ranks(rho55, rho66):
    # the paper's claim (m, n), exactly and by the spectral rule at its default tolerance
    for entry, rank in ((rho55, 5), (rho66, 6)):
        assert (linalg.exact_rank(entry.exact), linalg.exact_rank(transpose_b(entry.exact, 3, 3))) == (rank, rank)
        assert (entry.state.spectrum.rank(), entry.state.pt.spectrum.rank()) == (rank, rank)


def test_states_and_partial_transposes_are_psd(rho55, rho66):
    for entry in (rho55, rho66):
        assert np.linalg.eigvalsh(entry.state.matrix)[0] >= -1e-12
        assert np.linalg.eigvalsh(entry.state.pt.matrix)[0] >= -1e-12


def test_range_bases_span_the_ranges(rho55, rho66):
    for entry in (rho55, rho66):
        p_basis = helpers.row_space_projector(entry.range_basis)
        p_eig = linalg.Spectrum.of(entry.state.matrix).range_projector()
        assert np.abs(p_basis - p_eig).max() < 1e-10
        q_basis = helpers.row_space_projector(entry.pt_range_basis)
        q_eig = linalg.Spectrum.of(entry.state.pt.matrix).range_projector()
        assert np.abs(q_basis - q_eig).max() < 1e-10


@pytest.mark.parametrize("name,rank", [("rho_5_5", 5), ("rho_6_6", 6)])
def test_range_bases_span_the_ranges_exactly(name, rank):
    # a real symmetric N has its rows spanning its range, so an integer B spans that range
    # exactly when rank N == rank B == rank [N; B]
    entry = catalog.get(name)
    for num, basis in ((entry.exact, entry.range_basis), (transpose_b(entry.exact, 3, 3), entry.pt_range_basis)):
        assert np.array_equal(num, num.T)
        assert basis.dtype == np.int64 and basis.shape == (rank, 9) and not basis.flags.writeable
        assert linalg.exact_rank(num) == linalg.exact_rank(basis) == linalg.exact_rank(np.vstack([num, basis])) == rank


def test_linear_constraint_pattern_vectors(rho66):
    # V6 = V2 + V4, V7 = -V5, V8 = V1 + 2 V3 - V0
    v = np.array([1, 1, 1, 1, 1, 1, 2, -1, 2], dtype=complex)
    assert linalg.residual_norm(v, helpers.row_space_projector(rho66.range_basis)) < 1e-12
    # V4 = -V0, V6 = V5 - V2, V7 = V3
    w = np.array([1, 0, 0, 0, -1, 0, 0, 0, 1], dtype=complex)
    assert linalg.residual_norm(w, helpers.row_space_projector(rho66.pt_range_basis)) < 1e-12


def test_first_basis_vector_orthogonal_to_5_5_range(rho55):
    assert abs(linalg.residual_norm(np.eye(9)[0], helpers.row_space_projector(rho55.range_basis)) - 1.0) < 1e-12


@pytest.mark.parametrize(
    "range_name,which",
    [("rho_5_5", "rho"), ("rho_5_5_pt", "pt")],
)
def test_families_lie_in_their_ranges(rho55, range_name, which):
    table, basis = (families.RANGE, rho55.range_basis) if which == "rho" else (families.PT_RANGE, rho55.pt_range_basis)
    p = helpers.row_space_projector(basis)
    for name, family in table.items():
        for pv in families.members(family, 100, seed=3):
            assert linalg.residual_norm(pv.tensor(), p) < 1e-10, (range_name, name)


def test_family_case_1_1_spec_point(rho55):
    pv = families.RANGE["case_1_1"][0](1.0, 1.0)
    expect_a = np.array([1.0, 0.0, -0.5])
    expect_b = np.array([0.0, 1.0, 1.0])
    assert np.allclose(pv.a, expect_a / np.linalg.norm(expect_a))
    assert np.allclose(pv.b, expect_b / np.linalg.norm(expect_b))
    assert linalg.residual_norm(pv.tensor(), helpers.row_space_projector(rho55.range_basis)) < 1e-12


def test_family_pt_case_1_2_1_spec_point(rho55):
    pv = families.PT_RANGE["case_1_2_1"][0](1.0, 1.0)
    assert np.allclose(pv.a, [1.0, 0.0, 0.0])
    # compare up to the construction's phase normalization
    expect_b = np.array([0.0, -2.0, 1.0]) / np.sqrt(5.0)
    assert abs(abs(np.vdot(expect_b, pv.b)) - 1.0) < 1e-12
    assert linalg.residual_norm(pv.tensor(), helpers.row_space_projector(rho55.pt_range_basis)) < 1e-12


def test_family_case_2_2_1_spec_point():
    pv = families.RANGE["case_2_2_1"][0](1.0, 1.0)
    assert np.allclose(pv.a, [0.0, 1.0, 0.0])
    assert np.allclose(pv.b, [1.0, 0.0, 0.0])


def test_family_pt_case_2_constraint():
    t, v, x = 1.0 + 0.5j, -2.0 + 1.0j, 0.7 - 0.2j
    pv = families.PT_RANGE["case_2"][0](t, v, x)
    # b is normalized and phase-rotated, so compare the scale-free ratio z / x
    z_over_x = pv.b[2] / pv.b[0]
    assert abs(z_over_x - (v + t) / (v - t)) < 1e-12
    ratio_a = pv.a[2] / pv.a[1]
    assert abs(ratio_a - v / t) < 1e-12


def test_family_samples_deterministic():
    family = families.RANGE["case_1_1"]
    first = families.members(family, 20, seed=5)
    second = families.members(family, 20, seed=5)
    for p, q in zip(first, second):
        assert np.array_equal(p.a, q.a) and np.array_equal(p.b, q.b)


def test_reference_states_labels_and_ppt():
    refs = {name: catalog.get(name) for name in ("max_mixed", "max_entangled", "separable_sample")}
    assert is_ppt(refs["max_mixed"].state).verdict == "pass"
    report = is_ppt(refs["max_entangled"].state)
    assert report.verdict == "violated"
    assert abs(report.evidence + 1.0 / 3.0) < 1e-12
    # separable by construction, so no test detects it; test_cli's certify-edge case shows "not edge" without a see-saw
    assert is_ppt(refs["separable_sample"].state).verdict == "pass"
    assert realignment_criterion(refs["separable_sample"].state).verdict == "pass"
    assert linalg.Spectrum.of(refs["max_mixed"].state.matrix).rank() == 9
    assert linalg.Spectrum.of(refs["max_entangled"].state.matrix).rank() == 1
    assert linalg.Spectrum.of(refs["separable_sample"].state.matrix).rank() == 9


def test_separable_sample_is_deterministic():
    # get() returns one cached build, so compare it with a fresh, uncached one: a fixed integer table, no draw
    entry = catalog.get("separable_sample")
    fresh = catalog._built.__wrapped__("separable_sample")
    assert fresh is not entry
    assert np.array_equal(fresh.exact, entry.exact)
    assert np.array_equal(fresh.state.matrix, entry.state.matrix)


def test_separable_product_vectors_compose_the_sample():
    # (a a^T) (x) (b b^T) has entry ((i,k),(j,l)) = a_i a_j b_k b_l, summed here in Python integers
    entry = catalog.get("separable_sample")
    pairs = catalog._SAMPLE_PAIRS
    expected = [
        [sum(a[i] * a[j] * b[k] * b[l] for a, b in pairs) for j in range(3) for l in range(3)]
        for i in range(3)
        for k in range(3)
    ]
    assert entry.exact.dtype == np.int64 and entry.exact.tolist() == expected
    assert entry.denominator == 28
    assert np.array_equal(entry.state.matrix, entry.exact / 28)
    # a separable state that is not merely the product of its marginals
    blocks = entry.exact.reshape(3, 3, 3, 3)
    assert not np.array_equal(np.kron(np.einsum("ikjk->ij", blocks), np.einsum("kikj->ij", blocks)), 28 * entry.exact)


def test_a_catalog_build_draws_no_random_numbers():
    # every entry is an integer table: building the catalog does not even import numpy.random
    code = "import sys, pptedge; pptedge.catalog.entries(); print('numpy.random' in sys.modules)"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


def _entry_arrays(entry: catalog.CatalogEntry) -> list[np.ndarray]:
    fields = (getattr(entry, f.name) for f in dataclasses.fields(entry))
    return [entry.state.matrix, *(v for v in fields if isinstance(v, np.ndarray))]


def test_get_is_cached_and_every_entry_array_is_read_only():
    # the cache sits behind get, which stays a plain function that per-layer tracing can wrap
    assert inspect.isfunction(catalog.get)
    for name in catalog.CATALOG_NAMES:
        entry = catalog.get(name)
        assert catalog.get(name) is entry
        arrays = _entry_arrays(entry)
        assert arrays
        assert not any(arr.flags.writeable for arr in arrays), name
    assert all(e is catalog.get(e.name) for e in catalog.entries())


def test_every_accessor_returns_the_one_cached_build(monkeypatch):
    # a fresh, counted cache, so this test sees the builds it triggers
    builds = []
    build = catalog._built.__wrapped__
    monkeypatch.setattr(catalog, "_built", functools.cache(lambda name: builds.append(name) or build(name)))
    listed = catalog.entries()
    assert [e.name for e in listed] == list(catalog.CATALOG_NAMES)
    assert all(e is catalog.get(e.name) for e in listed)
    assert all(a is b for a, b in zip(catalog.entries(), listed))
    assert builds == list(catalog.CATALOG_NAMES)
    # so the spectra cached on a state are built once too, whichever accessor reads them
    eighs = []
    eigh = np.linalg.eigh

    def counted(m, *args, **kwargs):
        eighs.append(m.shape)
        return eigh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    assert catalog.get("rho_5_5").state.pt.spectrum is catalog.entries()[0].state.pt.spectrum
    assert eighs == [(9, 9)]


def test_exact_ranks_are_the_paper_ranks():
    expected = {
        "rho_5_5": (5, 5),
        "rho_6_6": (6, 6),
        "max_mixed": (9, 9),
        "max_entangled": (1, 9),
        "separable_sample": (9, 9),
    }
    assert {e.name: e.exact_ranks for e in catalog.entries()} == expected
    assert catalog.get("rho_5_5").exact_ranks == (5, 5)
    assert catalog.get("rho_6_6").exact_ranks == (6, 6)


def test_exact_ranks_are_computed_on_first_read_only(monkeypatch):
    calls = []
    exact_rank = linalg.exact_rank
    monkeypatch.setattr(linalg, "exact_rank", lambda m: calls.append(m.shape) or exact_rank(m))
    entry = catalog._built.__wrapped__("rho_5_5")  # a fresh build, outside the cache
    assert calls == []
    assert entry.exact_ranks == (5, 5)
    assert entry.exact_ranks is entry.exact_ranks
    assert calls == [(9, 9), (9, 9)]


def test_get_unknown_name():
    with pytest.raises(ValueError):
        catalog.get("rho_7_7")
