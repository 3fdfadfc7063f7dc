"""Parametrized product-vector families inside rho_5_5's range and inside the range of its rho^T_B.

``RANGE`` and ``PT_RANGE`` map a family name to ``(builder, grid)``: the
builder takes complex parameters and returns a
:class:`~pptedge.bipartite.ProductVector` whose tensor lies in the range for
every choice of them; ``grid`` holds a few fixed choices. Only tests read
them: the exact edge proof is ``test_edge_proof.py``.
"""

import numpy as np

from pptedge.bipartite import ProductVector

RANGE = {
    "case_1_1": (lambda y, z: ProductVector([1.0, 0.0, -z / (y + z)], [0.0, y, z]), ((1, 1), (1, 2), (2, -1), (1j, 1))),
    "case_2_1": (lambda v, y: ProductVector([0.0, 0.0, v], [0.0, y, -y]), ((1, 1), (1, 1j), (-2, 3))),
    "case_2_2_1": (lambda t, x: ProductVector([0.0, t, 0.0], [x, 0.0, 0.0]), ((1, 1), (1j, 2), (3, -1))),
}

PT_RANGE = {
    "case_1_1": (lambda t, z: ProductVector([0.0, t, t], [0.0, 0.0, z]), ((1, 1), (1, 1j), (2, -1))),
    "case_1_2_1": (lambda s, z: ProductVector([s, 0.0, 0.0], [0.0, -2.0 * z, z]), ((1, 1), (1, -1), (1j, 2))),
    "case_1_2_2": (lambda s, y: ProductVector([-s, 0.0, s], [0.0, y, -y]), ((1, 1), (1, 1j), (-1, 2))),
    # the constraint (v - t) z = (v + t) x pins z once t, v, x are chosen
    "case_2": (
        lambda t, v, x: ProductVector([0.0, t, v], [x, 0.0, (v + t) * x / (v - t)]),
        ((1, 2, 1), (1, 1j, 1), (2, -1, 1j)),
    ),
}


def members(family, n: int, seed: int) -> list:
    """``n`` members of a ``(builder, grid)`` family: its grid first, then seeded complex Gaussian draws."""
    build, grid = family
    out = [build(*params) for params in grid[:n]]
    rng = np.random.default_rng(seed)
    while len(out) < n:
        out.append(build(*(complex(x, y) for x, y in rng.standard_normal((len(grid[0]), 2)))))
    return out
