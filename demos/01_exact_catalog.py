"""Demo: the built-in states and their exact integer structure.

The two flagship states live on C^3 (x) C^3 and are stored as integer
matrices over the common denominator 13. That makes two things exact that
are usually only numerical: the rank computation (fraction-free elimination
over the integers) and the partial transpose (a pure index permutation).
A state's partial transpose is ``state.pt``, built once on first use and
cached, like every spectrum read from it. Each catalog entry, read through
``catalog.get``, is built once per process and carries everything known
about its state; its exact ranks are computed on first read and kept.
"""

import numpy as np

from pptedge import catalog

np.set_printoptions(linewidth=140, suppress=True)

for entry in (catalog.get("rho_5_5"), catalog.get("rho_6_6")):
    print("=" * 70)
    print(f"state {entry.name}   (denominator {entry.denominator})")
    print(entry.exact)

    # Exact ranks never touch floating point; the numeric path must agree.
    exact, exact_pt = entry.exact_ranks
    print(f"exact rank            : {exact}")
    print(f"exact rank of PT      : {exact_pt}")
    print(f"numeric rank          : {entry.state.spectrum.rank()}")
    pt = entry.state.pt
    print(f"numeric rank of PT    : {pt.spectrum.rank()}")

    # The partial transpose of integer entries is again integer, bit-exact.
    pt_numerator = 13.0 * pt.matrix
    assert np.array_equal(pt_numerator, np.real(pt_numerator).astype(int).astype(complex))
    print("partial transpose (numerator):")
    print(np.real(pt_numerator).astype(int))

    spectrum = np.linalg.eigvalsh(entry.state.matrix)
    print(f"spectrum              : {np.round(spectrum, 6)}")
    print(f"smallest eigenvalue   : {spectrum[0]:.2e}  (PSD)")
