"""Walk through the three coherence quantifiers on a mixed qubit.

The distillable coherence is the relative entropy of coherence; the
preparation cost is the coherence of formation (a convex-roof optimization).
The gap between them is the irreversibility of the state.
"""

import numpy as np

import cohkit as ck

rho = ck.DensityMatrix([[0.5, 0.3], [0.3, 0.5]])
print("state:")
print(np.round(rho.matrix.real, 3))

c_r = ck.relative_entropy_of_coherence(rho)
print(f"\nC_r  (distillable rate)        = {c_r:.6f} bits/copy")

variational = ck.relative_entropy_of_coherence_variational(rho)
print(f"C_r  (simplex optimization)     = {variational:.6f}  "
      f"(cross-check, gap {abs(variational - c_r):.2e})")

roof = ck.coherence_of_formation(rho, restarts=16, seed=0)
print(f"C_f  (preparation cost)         in [{roof.lower_bound:.6f}, "
      f"{roof.value:.6f}] bits/copy")
print(f"     lower side by {roof.lower_by}, certified: {roof.certified} "
      f"after {roof.restarts} restart(s)")
print(f"C_f  (qubit closed form)        = "
      f"{ck.coherence_of_formation_qubit(rho):.6f}")

print("\noptimal ensemble found:")
for w, member in zip(roof.ensemble.weights, roof.ensemble.members):
    amps = np.round(member.amplitudes, 4)
    print(f"  weight {w:.4f}  amplitudes {amps}")

print(f"\nirreversibility gap C_f - C_r   = {roof.value - c_r:.6f} bits/copy")

phi2 = ck.maximally_coherent(2).to_density()
bounds = ck.conversion_rate_bounds(phi2, rho, restarts=16, seed=0)
print(f"\nconverting Phi_2 -> rho: rate in [{bounds.lower:.4f}, "
      f"{bounds.upper:.4f}] copies per unit resource")
bounds = ck.conversion_rate_bounds(rho, phi2, restarts=16, seed=0)
print(f"converting rho -> Phi_2: rate in [{bounds.lower:.4f}, "
      f"{bounds.upper:.4f}]")
