"""Demo: entanglement witnesses for the two edge states.

kernel construction   W1 = N (P + Q^T_B) - eps * I, with P, Q the kernel
                      projectors of the state and its partial transpose,
                      N = 1/Tr(P + Q^T_B), and eps the product infimum of
                      the unshifted operator.
realignment           W2 = I - R(U_r V_r^dag), with U_r V_r^dag the partial
                      isometry of R(rho) = U D V^dag on its nonzero singular
                      values; it is unique, so W2 is a function of rho, and
                      Tr(W2 rho) = 1 - trace norm of R(rho) < 0.

Both witnesses are nonnegative on every product state (checked here
heuristically) yet negative on the PPT-entangled source state, so each one
certifies entanglement the transposition test cannot see. Finally, all of
them go negative on some state of Schmidt rank 2, including the shifted
variants that barely detect the source state.
"""

from pptedge import (
    SeeSawConfig,
    catalog,
    certify_edge,
    evaluate,
    kernel_witness,
    min_generic_quadratic,
    min_schmidt2_expectation,
    realignment_witness,
    schmidt_coefficients,
    shift_witness,
)

cfg = SeeSawConfig(restarts=80, seed=42)

for entry in (catalog.get("rho_5_5"), catalog.get("rho_6_6")):
    print("=" * 72)
    rho = entry.state
    w1 = kernel_witness(certify_edge(rho, cfg))
    w2 = realignment_witness(rho)
    print(f"{entry.name}: kernel witness N = {w1.normalization:.6f}, eps = {w1.epsilon:.6e}")
    for w in (w1, w2):
        detection = evaluate(w.operator, rho)
        floor = min_generic_quadratic(w.operator, cfg).best_value
        s2 = min_schmidt2_expectation(w.operator, cfg)
        coeffs = schmidt_coefficients(s2.argmin.vector, 3, 3)
        shifted = shift_witness(w.operator, rho, 1e-6)
        s2_shifted = min_schmidt2_expectation(shifted, cfg)
        print(f"  method {w.method:<8} Tr(W rho) = {detection:+.6e}   product floor = {floor:+.1e}")
        print(
            f"    Schmidt-rank-2 minimum {s2.best_value:+.6f} "
            f"(coefficients {coeffs[0]:.4f}, {coeffs[1]:.4f}, {coeffs[2]:.1e})"
        )
        print(f"    shifted variant (eps 1e-6): detection {evaluate(shifted, rho):+.1e}, "
              f"rank-2 minimum {s2_shifted.best_value:+.6f}")
