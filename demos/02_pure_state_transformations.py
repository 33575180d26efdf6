"""Single-copy pure-state conversions: majorization decides, and when it
holds an explicit strictly incoherent channel performs the transformation
deterministically."""

import numpy as np

import cohkit as ck
from cohkit.errors import TransformationImpossibleError

source = ck.maximally_coherent(2)
target = ck.PureState(np.sqrt([0.7, 0.3]).astype(complex))

witness = ck.majorization_check(target.probabilities(),
                                source.probabilities())
print("diag(target) majorizes diag(source):", witness.holds)
print("doubly stochastic matrix with q = D p:")
print(np.round(witness.bistochastic, 4))
print("diag(source) as a mixture of at most d permutations of diag(target):")
for lam, perm in witness.birkhoff:
    print(f"  weight {lam:.4f}  permutation {perm}")

channel = ck.synthesize_pure_transformation(source, target)
print(f"\nsynthesized channel: {len(channel.kraus)} Kraus operators, one per "
      f"permutation, class = {ck.classify_channel(channel)}")
for k in channel.kraus:
    print(np.round(k.entries.real, 4))

print("\nevery measurement outcome lands exactly on the target:")
for p, out in ck.apply_selective(channel, source.to_density()):
    f = ck.fidelity(out, target.to_density())
    print(f"  outcome probability {p:.4f}, fidelity with target {f:.12f}")

print("\nthe reverse direction is forbidden:")
try:
    ck.synthesize_pure_transformation(target, source)
except TransformationImpossibleError as err:
    print(f"  rejected: {err}")

# Any state is reachable from the maximally coherent one.
mixed_target = ck.DensityMatrix([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])
prep = ck.generate_from_maximally_coherent(mixed_target)
out = ck.apply_channel(prep, ck.maximally_coherent(2).to_density())
print(f"\npreparing a mixed state from Phi_2: fidelity "
      f"{ck.fidelity(out, mixed_target):.10f} "
      f"({len(prep.kraus)} Kraus operators)")
