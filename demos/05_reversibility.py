"""The exact reversibility criterion: a state is reversible precisely when
it is a direct sum of pure states on disjoint basis blocks.

Block states come out reversible with a vanishing measure gap; generic mixed
states are irreversible with a strictly positive gap.
"""

import numpy as np

import cohkit as ck
from cohkit import rand

# A hand-built reversible state: pure pieces on {0,1} and {2,3}.
v0 = np.zeros(4, dtype=complex)
v0[:2] = np.sqrt([0.6, 0.4])
v1 = np.zeros(4, dtype=complex)
v1[2:] = np.sqrt([0.3, 0.7])
block_state = ck.DensityMatrix(0.5 * np.outer(v0, v0.conj())
                               + 0.5 * np.outer(v1, v1.conj()))

verdict = ck.is_reversible(block_state, restarts=16, seed=0)
print("constructed block state:")
print(f"  blocks   : {list(verdict.decomposition.partition.blocks)}")
print(f"  reversible: {verdict.reversible}")
print(f"  C_f - C_r : {verdict.gap_upper:.2e}  (zero up to optimizer slack)")

qubit = ck.DensityMatrix([[0.5, 0.3], [0.3, 0.5]])
verdict = ck.is_reversible(qubit, restarts=16, seed=0)
print("\ngeneric mixed qubit:")
print(f"  reversible: {verdict.reversible}")
print(f"  C_f - C_r : {verdict.gap_upper:.5f} bits/copy")

print("\nrandom survey (d = 4):")
rng = rand.rng_for(2024)
for kind in ("block", "generic"):
    gaps = []
    for s in range(5):
        if kind == "block":
            rho, _, _, _ = rand.random_block_state(4, rand.rng_for(31, s))
        else:
            rho = rand.random_density_matrix(4, rand.rng_for(32, s))
        gaps.append(ck.is_reversible(rho, restarts=12, seed=s).gap_upper)
    print(f"  {kind:<8} gaps: {[f'{g:.4f}' for g in gaps]}")

print("\nno bound coherence: every coherent state is distillable")
for s in range(3):
    rho = rand.random_density_matrix(3, rand.rng_for(33, s))
    print(f"  off-diagonal mass {rho.max_offdiagonal():.3f} -> "
          f"C_r = {ck.relative_entropy_of_coherence(rho):.4f} > 0, "
          f"self-test {ck.bound_coherence_check(rho)}")
