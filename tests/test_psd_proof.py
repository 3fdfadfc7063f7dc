"""Exact proof that rho and rho^T_B of both paper states are positive semidefinite, of ranks (m, n).

Let B be the stored integer range basis (k x 9, independent rows) and
M = (B B^T)^-1 B rho B^T (B B^T)^-1. If rho = B^T M B, then rho acts only on
the row space of B, as M does in its coordinates, so rho is positive
semidefinite of rank k exactly when M is positive definite. Sylvester's
criterion decides that from the k leading principal minors of M. All of it
runs in stdlib ``Fraction``s: no float, and no sympy. The integer numerators
stand in for rho, since a positive scale changes neither check.

With the exact ranks and the Groebner edge proof (``tests/test_edge_proof.py``),
this makes each state a PPT entangled edge state of ranks (m, n), by the range
criterion, without a float. The mutations show what the float check
``eigvalsh(rho)[0] >= -1e-12`` lets through.
"""

from fractions import Fraction

import numpy as np
import pytest

import helpers
from pptedge import catalog
from pptedge.bipartite import transpose_b


def _leading_minors(m: np.ndarray) -> list[Fraction]:
    """Leading principal minors of a square Fraction matrix, by Gaussian elimination with row pivoting."""
    minors = []
    for size in range(1, len(m) + 1):
        work, det = [list(row[:size]) for row in m[:size]], Fraction(1)
        for c in range(size):
            piv = next((i for i in range(c, size) if work[i][c] != 0), None)
            if piv is None:
                det = Fraction(0)
                break
            if piv != c:
                work[c], work[piv], det = work[piv], work[c], -det
            det *= work[c][c]
            for i in range(c + 1, size):
                f = work[i][c] / work[c][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[c])]
        minors.append(det)
    return minors


def _certificate(numerator, basis) -> tuple[bool, list[Fraction]]:
    """Whether rho = B^T M B holds exactly, and the leading principal minors of M."""
    rho, b, coords = helpers.fractions(numerator), helpers.fractions(basis), helpers.exact_coordinate_map(basis)
    m = coords @ rho @ coords.T
    return bool((b.T @ m @ b == rho).all()), _leading_minors(m)


def _tables(name: str) -> dict:
    entry = catalog.get(name)
    return {"rho": (entry.exact, entry.range_basis), "pt": (transpose_b(entry.exact, 3, 3), entry.pt_range_basis)}


@pytest.mark.parametrize("which", ["rho", "pt"])
@pytest.mark.parametrize("name,rank", [("rho_5_5", 5), ("rho_6_6", 6)])
def test_state_and_partial_transpose_are_psd_of_the_paper_rank_exactly(name, rank, which):
    identity, minors = _certificate(*_tables(name)[which])
    assert identity
    assert len(minors) == rank and all(minor > 0 for minor in minors), minors


def test_certificate_refuses_a_swapped_off_diagonal_pair():
    # swapping the numerators at (1, 8) and (2, 8), with their mirror images, moves the range off the basis;
    # the float check still passes (smallest eigenvalue -2.4e-17)
    numerator, basis = _tables("rho_5_5")["rho"]
    swapped = numerator.copy()
    swapped[[1, 2], 8] = swapped[8, [1, 2]] = numerator[[2, 1], 8]
    assert np.linalg.eigvalsh(swapped / 13)[0] >= -1e-12
    identity, _ = _certificate(swapped, basis)
    assert not identity


@pytest.mark.parametrize("weight,last_minor", [(1, 0), (2, -4)])
def test_certificate_refuses_a_basis_projector_taken_out(weight, last_minor):
    # rho - b b^T, for the first basis row b, stays in the span and is PSD, but of rank 4: its last minor is 0,
    # while the float check passes it (smallest eigenvalue -5e-17); rho - 2 b b^T has a negative minor
    numerator, basis = _tables("rho_5_5")["rho"]
    b = basis[0]
    lowered = numerator - weight * np.outer(b, b)
    identity, minors = _certificate(lowered, basis)
    assert identity
    assert minors[-1] == last_minor and not all(minor > 0 for minor in minors)
    if weight == 1:
        assert np.linalg.eigvalsh(lowered / 13)[0] >= -1e-12
