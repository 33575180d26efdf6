"""Statistical check of the operator covering bound: random S-subsets of a
type class average out to the class mean, more tightly as S grows.

The trace norms are evaluated in the span of the class through its Gram
matrix, so nothing 2^n-dimensional is ever formed.
"""

import numpy as np

import cohkit as ck

ensemble = ck.Ensemble(np.array([0.5, 0.5]),
                       [ck.PureState([1.0, 0.0]),
                        ck.PureState(np.sqrt([0.5, 0.5]).astype(complex))])

n = 12
print(f"type class at n = {n}: balanced sequences over two letters "
      f"(|0> and |+>, overlap 2^(-1/2))\n")
print(f"{'S':>4}  {'subsets':>8}  {'median dev':>11}  {'frac < 1.25':>12}")
for subset_size in (8, 16, 32, 64):
    rep = ck.covering_check(ensemble, n, subset_size, trials=2, seed=3,
                            max_subsets_per_trial=10)
    devs = np.asarray(rep.deviations)
    print(f"{subset_size:>4}  {rep.M:>8}  {np.median(devs):>11.4f}  "
          f"{np.mean(devs < 1.25):>12.2f}")

print("\nlarger subsets concentrate harder, the engine behind mixed-state "
      "distillation achieving the relative entropy of coherence")
