"""Demo: entanglement witnesses for the two edge states.

kernel construction   W1 = N (P + Q^T_B) - eps * I, with P, Q the kernel
                      projectors of the state and its partial transpose,
                      N = 1/Tr(P + Q^T_B), and eps the product infimum of
                      the unshifted operator.
realignment           W2 = Hermitian part of (I - R(U V^dag)), built from
                      the singular vectors of the realigned state; then
                      Tr(W2 rho) = 1 - trace norm of R(rho) < 0.

Both witnesses are nonnegative on every product state (checked here
heuristically) yet negative on the PPT-entangled source state, so each one
certifies entanglement the transposition test cannot see. Finally, all of
them go negative on some state of Schmidt rank 2, including the shifted
variants that barely detect the source state.
"""

from pptedge import (
    SeeSawConfig,
    evaluate,
    kernel_witness,
    min_generic_quadratic,
    realignment_witness,
    rho_5_5,
    rho_6_6,
    schmidt2_evidence,
    schmidt_coefficients,
    shift_witness,
)

cfg = SeeSawConfig(restarts=80, seed=42)

for entry in (rho_5_5(), rho_6_6()):
    print("=" * 72)
    w1 = kernel_witness(entry, cfg)
    w2 = realignment_witness(entry)
    print(f"{entry.name}: kernel witness N = {w1.normalization:.6f}, eps = {w1.epsilon:.6e}")
    for w in (w1, w2):
        detection = evaluate(w, entry)
        floor = min_generic_quadratic(w.operator, cfg).best_value
        s2 = schmidt2_evidence(w, cfg)
        coeffs = schmidt_coefficients(s2.argmin.vector, 3, 3)
        shifted = shift_witness(w, entry, 1e-6)
        s2_shifted = schmidt2_evidence(shifted, cfg)
        print(f"  method {w.method:<8} Tr(W rho) = {detection:+.6e}   product floor = {floor:+.1e}")
        print(
            f"    Schmidt-rank-2 minimum {s2.best_value:+.6f} "
            f"(coefficients {coeffs[0]:.4f}, {coeffs[1]:.4f}, {coeffs[2]:.1e})"
        )
        print(f"    shifted variant (eps 1e-6): detection {evaluate(shifted, entry):+.1e}, "
              f"rank-2 minimum {s2_shifted.best_value:+.6f}")
