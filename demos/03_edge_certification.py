"""Demo: range structure and edge certification.

A PPT state is an edge state when no product vector in its range has its
conjugate partner (conjugate the second factor) in the range of the partial
transpose. The first lines print one member of each of three product-vector
families inside the range of rho_5_5: each lies in the range, but its partner
misses the transposed range, which is the edge property made quantitative.
The range projectors are the ones certification reads: each comes from the
state's cached spectrum (or its partial transpose's), at the default rank
threshold.

The certification minimizes

    objective(a, b) = dist(a (x) b, range)^2 + dist(a (x) conj(b), PT range)^2

over all product vectors with a multistart see-saw. A strictly positive
minimum (heuristic, no global certificate) is the edge evidence; for a
separable state the objective reaches zero at one of its product components.
The catalog's separable_sample is the sum of nine integer product projectors
(a a^T) (x) (b b^T), with exact ranks (9, 9): both of its ranges are the
whole space, so every product vector and its partner lie in them, and the
verdict "not edge" is exact, with minimum 0 and no see-saw.
"""

from pptedge import ProductVector, SeeSawConfig, catalog, certify_edge, residual_norm

cfg = SeeSawConfig(restarts=80, seed=42)

r55 = catalog.get("rho_5_5")
p_range, p_pt_range = r55.state.spectrum.range_projector(), r55.state.pt.spectrum.range_projector()
members = {
    "case_1_1": ProductVector([1, 0, -0.5], [0, 1, 1]),
    "case_2_1": ProductVector([0, 0, 1], [0, 1, -1]),
    "case_2_2_1": ProductVector([0, 1, 0], [1, 0, 0]),
}
print("product-vector families inside range(rho_5_5):")
for name, pv in members.items():
    in_range = residual_norm(pv.tensor(), p_range)
    partner_miss = residual_norm(pv.conjugate_partner(), p_pt_range)
    total = in_range**2 + partner_miss**2
    print(
        f"  {name:<12} residual in range {in_range:.1e}   "
        f"partner residual to PT range {partner_miss:.3f}   objective {total:.3e}"
    )

print()
for entry in (r55, catalog.get("rho_6_6"), catalog.get("separable_sample")):
    cert = certify_edge(entry.state, cfg)
    print(
        f"{entry.name:<18} verdict: {cert.verdict:<16} minimum {cert.minimum:.3e}   "
        f"residuals ({cert.residual_range:.2e}, {cert.residual_pt_range:.2e})"
    )
