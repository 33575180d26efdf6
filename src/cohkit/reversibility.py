"""Exact reversibility test for mixed states: a state is asymptotically
reversible (distillable coherence = coherence cost) exactly when it is a
direct sum of pure states over disjoint blocks of the incoherent basis.

The verdict is decided by the block structure alone; the numerical
C_f - C_r gap is attached as corroboration, not as the decision rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .measures import coherence_of_formation, relative_entropy_of_coherence
from .qstate import BasisPartition, DensityMatrix

BLOCK_THRESHOLD = 1e-10
PURITY_DEFECT_TOL = 1e-8
OFFBLOCK_TOL = 1e-10


@dataclass
class BlockDecomposition:
    """A basis partition, the weight (trace) of the state on each block, and
    the largest |rho_ij| between two blocks."""
    partition: BasisPartition
    weights: list
    residual_offblock_mass: float

    def to_dict(self) -> dict:
        return {"blocks": [{"indices": list(b), "weight": float(w)}
                           for b, w in zip(self.partition.blocks,
                                           self.weights)],
                "residual_offblock_mass": float(self.residual_offblock_mass)}


@dataclass
class ReversibilityVerdict:
    reversible: bool
    decomposition: BlockDecomposition
    gap_lower: float                      # C_f lower bound minus C_r, bits
    gap_upper: float                      # C_f upper bound minus C_r, bits
    block_purity_defects: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"reversible": self.reversible,
                "decomposition": self.decomposition.to_dict(),
                "gap_lower": float(self.gap_lower),
                "gap_upper": float(self.gap_upper),
                "block_purity_defects": [float(x)
                                         for x in self.block_purity_defects]}


def detect_blocks(rho: DensityMatrix,
                  threshold: float = BLOCK_THRESHOLD) -> BlockDecomposition:
    """Connected components of the support graph |rho_ij| > threshold.

    This is the coarsest basis partition compatible with the state's
    off-diagonal support.  Components are found by min-label propagation:
    each index takes the smallest label among its neighbours until nothing
    changes (at most d sweeps), so a component is labelled by, and ordered
    by, its smallest index.
    """
    d = rho.dim
    adj = np.abs(rho.matrix) > threshold  # symmetric: rho is Hermitian
    np.fill_diagonal(adj, True)
    labels, new = None, np.arange(d)
    while not np.array_equal(new, labels):
        labels, new = new, np.where(adj, new, d).min(axis=1)
    partition = BasisPartition(d, [np.flatnonzero(labels == root)
                                   for root in np.unique(labels)])
    weights = [float(np.real(np.trace(rho.matrix[np.ix_(b, b)])))
               for b in partition.blocks]
    residual = float(np.abs(rho.matrix)[~partition.mask()].max(initial=0.0))
    return BlockDecomposition(partition, weights, residual)


def block_purity_defects(rho: DensityMatrix,
                         decomposition: BlockDecomposition) -> list:
    """1 - lambda_max / trace per block of rho; 0 for (near-)weightless
    blocks."""
    defects = []
    for b, weight in zip(decomposition.partition.blocks,
                         decomposition.weights):
        if weight <= 1e-14 or len(b) == 1:
            defects.append(0.0)
            continue
        eigs = np.linalg.eigvalsh(rho.matrix[np.ix_(b, b)] / weight)
        defects.append(float(max(0.0, 1.0 - eigs[-1])))
    return defects


def is_reversible(rho: DensityMatrix, *, threshold: float = BLOCK_THRESHOLD,
                  restarts: int = 32, seed: int = 0) -> ReversibilityVerdict:
    """Full verdict: block structure decides, the measure gap corroborates.

    The state is reversible iff every detected block is pure (defect at most
    1e-8) and no off-block mass above 1e-10 remains.  ``gap_lower`` and
    ``gap_upper`` are the two sides of the roof's C_f bracket minus C_r:
    ``gap_lower`` > 0 proves the state irreversible (it is 0 when the lower
    side is C_r itself), while ``gap_upper`` is only an upper bound on the
    true gap.  Neither is used for the boolean.
    """
    decomposition = detect_blocks(rho, threshold)
    defects = block_purity_defects(rho, decomposition)
    reversible = (all(x <= PURITY_DEFECT_TOL for x in defects)
                  and decomposition.residual_offblock_mass <= OFFBLOCK_TOL)
    cr = relative_entropy_of_coherence(rho)
    roof = coherence_of_formation(rho, restarts=restarts, seed=seed)
    return ReversibilityVerdict(reversible=reversible,
                                decomposition=decomposition,
                                gap_lower=roof.lower_bound - cr,
                                gap_upper=roof.value - cr,
                                block_purity_defects=defects)


def bound_coherence_check(rho: DensityMatrix) -> bool:
    """Self-test of 'no bound coherence': zero distillable coherence forces
    the state to be diagonal.  True on every state for a correct
    implementation."""
    cr = relative_entropy_of_coherence(rho)
    if cr > 1e-9:
        return True
    return rho.max_offdiagonal() <= 1e-9
