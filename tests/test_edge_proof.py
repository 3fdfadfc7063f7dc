"""Exact proof of the catalog's edge claim, independent of the see-saw.

A state is an edge state when no product vector a (x) b in its range has its
partner a (x) conj(b) in the range of its partial transpose. With integer
rows K1 spanning the kernel of the stored range basis, and K2 that of the PT
range basis, a pair is a common zero of K1 (a (x) b) and K2 (a (x) conj(b)).
Both are homogeneous in a and in b, so the 9 affine charts a_j = 1, b_k = 1
cover every nonzero pair. In a chart the real and imaginary parts of the
equations are polynomials with integer coefficients in the 8 real coordinates
of the other entries of a and b; a grevlex Groebner basis {1} means they have
no common complex zero, hence no real one. {1} in all 9 charts proves the
edge property exactly. The command line's verdict stays "edge (heuristic)":
it reads the see-saw minimum, which applies to any state, not this proof.
"""

import itertools

import numpy as np
import pytest

from pptedge import catalog, linalg
from pptedge.bipartite import transpose_b

sympy = pytest.importorskip("sympy")


def _kernel_rows(rows) -> list[list[int]]:
    """Integer rows spanning the vectors v with ``rows @ v = 0``: the equations of the span of real ``rows``."""
    out = []
    for v in sympy.Matrix(np.asarray(rows).tolist()).nullspace():
        den = sympy.ilcm(*(x.q for x in v))
        out.append([int(x * den) for x in v])
    return out


def _chart_equations(k1, k2, j: int, k: int) -> tuple[list, tuple]:
    """Real and imaginary parts of K1 (a (x) b) and K2 (a (x) conj(b)) at a_j = b_k = 1, with their 8 real variables."""
    variables = sympy.symbols("u0:8")
    free = iter(variables)

    def factor(pivot: int) -> tuple[list, list]:
        re, im = [], []
        for i in range(3):
            re.append(sympy.Integer(1) if i == pivot else next(free))
            im.append(sympy.Integer(0) if i == pivot else next(free))
        return re, im

    (ar, ai), (br, bi) = factor(j), factor(k)

    def product(b_re: list, b_im: list) -> tuple[list, list]:
        """Real and imaginary parts of a (x) b for b = b_re + i b_im."""
        re = [ar[i] * b_re[m] - ai[i] * b_im[m] for i in range(3) for m in range(3)]
        im = [ar[i] * b_im[m] + ai[i] * b_re[m] for i in range(3) for m in range(3)]
        return re, im

    equations = []
    for rows, (re, im) in ((k1, product(br, bi)), (k2, product(br, [-x for x in bi]))):
        for row in rows:
            equations.append(sympy.expand(sum(c * x for c, x in zip(row, re))))
            equations.append(sympy.expand(sum(c * x for c, x in zip(row, im))))
    return equations, variables


def _chart_refuted(k1, k2, j: int, k: int) -> bool:
    equations, variables = _chart_equations(k1, k2, j, k)
    return list(sympy.groebner(equations, *variables, order="grevlex").exprs) == [1]


def _edge_proved(k1, k2) -> bool:
    """True when no chart holds a product pair; stops at the first chart that does not refute one."""
    return all(_chart_refuted(k1, k2, j, k) for j, k in itertools.product(range(3), repeat=2))


@pytest.mark.parametrize("name,rank", [("rho_5_5", 5), ("rho_6_6", 6)])
def test_groebner_basis_is_one_in_every_chart(name, rank):
    entry = catalog.get(name)
    k1, k2 = _kernel_rows(entry.range_basis), _kernel_rows(entry.pt_range_basis)
    for kernel, basis in ((k1, entry.range_basis), (k2, entry.pt_range_basis)):
        assert len(kernel) == 9 - rank and linalg.exact_rank(kernel) == 9 - rank
        assert not (np.array(kernel) @ basis.T).any()
    for j, k in itertools.product(range(3), repeat=2):
        equations, _ = _chart_equations(k1, k2, j, k)
        assert len(equations) == 4 * (9 - rank)
        assert _chart_refuted(k1, k2, j, k), (name, j, k)


def test_groebner_proof_refuses_a_rational_separable_state():
    # four integer product vectors, real, so each is its own partner and lies in both ranges
    factors = [((1, 0, 0), (1, 0, 0)), ((0, 1, 0), (0, 1, 1)), ((1, 1, 1), (1, -1, 0)), ((1, 2, 0), (0, 1, 3))]
    vectors = np.array([np.kron(a, b) for a, b in factors])
    numerator = vectors.T @ vectors
    assert linalg.exact_rank(numerator) == linalg.exact_rank(transpose_b(numerator, 3, 3)) == 4
    assert not _edge_proved(_kernel_rows(numerator), _kernel_rows(transpose_b(numerator, 3, 3)))


def test_groebner_proof_refuses_a_product_vector_added_to_both_ranges(rho55):
    e1_e0 = np.kron(np.eye(3, dtype=np.int64)[1], np.eye(3, dtype=np.int64)[0])
    k1 = _kernel_rows(np.vstack([rho55.range_basis, e1_e0]))
    k2 = _kernel_rows(np.vstack([rho55.pt_range_basis, e1_e0]))
    assert not _edge_proved(k1, k2)


def test_groebner_proof_needs_the_pt_range_equations(rho55):
    # the range alone holds product vectors (those of tests/families.py), so without K2 the proof must fail
    assert not _edge_proved(_kernel_rows(rho55.range_basis), [])
