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
from .qstate import DensityMatrix

BLOCK_THRESHOLD = 1e-10
PURITY_DEFECT_TOL = 1e-8
OFFBLOCK_TOL = 1e-10


@dataclass
class Block:
    """One connected block: its basis indices, weight and projected state."""
    indices: tuple
    weight: float
    state: np.ndarray  # renormalized projection onto the block (len x len)


@dataclass
class BlockDecomposition:
    blocks: list
    residual_offblock_mass: float

    def reconstruction_defect(self, rho: DensityMatrix) -> float:
        """Entrywise deviation of sum_j P_j rho P_j from rho."""
        m = np.zeros_like(rho.matrix)
        for b in self.blocks:
            idx = np.array(b.indices)
            m[np.ix_(idx, idx)] = rho.matrix[np.ix_(idx, idx)]
        return float(np.max(np.abs(m - rho.matrix)))

    def to_dict(self) -> dict:
        return {"blocks": [{"indices": list(b.indices),
                            "weight": float(b.weight)}
                           for b in self.blocks],
                "residual_offblock_mass": float(self.residual_offblock_mass)}


@dataclass
class ReversibilityVerdict:
    reversible: bool
    decomposition: BlockDecomposition
    gap_upper: float                      # C_f upper bound minus C_r, bits
    block_purity_defects: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"reversible": self.reversible,
                "decomposition": self.decomposition.to_dict(),
                "gap_upper": float(self.gap_upper),
                "block_purity_defects": [float(x)
                                         for x in self.block_purity_defects]}


def detect_blocks(rho: DensityMatrix,
                  threshold: float = BLOCK_THRESHOLD) -> BlockDecomposition:
    """Connected components of the support graph |rho_ij| > threshold.

    This is the coarsest basis partition compatible with the state's
    off-diagonal support; per-block states are the renormalized projections.
    Components are found by min-label propagation: each index takes the
    smallest label among its neighbours until nothing changes (at most d
    sweeps), so a component is labelled by, and ordered by, its smallest
    index.
    """
    d = rho.dim
    adj = np.abs(rho.matrix) > threshold  # symmetric: rho is Hermitian
    np.fill_diagonal(adj, True)
    labels = np.arange(d)
    while True:
        new = np.where(adj, labels, d).min(axis=1)
        if np.array_equal(new, labels):
            break
        labels = new
    roots, labels = np.unique(labels, return_inverse=True)
    blocks = []
    for c in range(roots.size):
        idx = np.flatnonzero(labels == c)
        sub = rho.matrix[np.ix_(idx, idx)]
        weight = float(np.real(np.trace(sub)))
        state = sub / weight if weight > 1e-14 else sub
        blocks.append(Block(indices=tuple(int(i) for i in idx),
                            weight=weight, state=state))
    off = np.abs(rho.matrix).copy()
    same = labels[:, None] == labels[None, :]
    off[same] = 0.0
    residual = float(off.max()) if d > 1 else 0.0
    return BlockDecomposition(blocks=blocks, residual_offblock_mass=residual)


def block_purity_defects(decomposition: BlockDecomposition) -> list:
    """1 - lambda_max / trace per block; 0 for (near-)weightless blocks."""
    defects = []
    for b in decomposition.blocks:
        if b.weight <= 1e-14 or len(b.indices) == 1:
            defects.append(0.0)
            continue
        eigs = np.linalg.eigvalsh(b.state)
        defects.append(float(max(0.0, 1.0 - eigs[-1])))
    return defects


def is_reversible(rho: DensityMatrix, *, threshold: float = BLOCK_THRESHOLD,
                  restarts: int = 32, seed: int = 0) -> ReversibilityVerdict:
    """Full verdict: block structure decides, the measure gap corroborates.

    The state is reversible iff every detected block is pure (defect at most
    1e-8) and no off-block mass above 1e-10 remains.  ``gap_upper`` is the
    roof-optimizer upper bound on C_f minus C_r; it is only an upper bound on
    the true gap, hence never used for the boolean.
    """
    decomposition = detect_blocks(rho, threshold)
    defects = block_purity_defects(decomposition)
    reversible = (all(x <= PURITY_DEFECT_TOL for x in defects)
                  and decomposition.residual_offblock_mass <= OFFBLOCK_TOL)
    roof = coherence_of_formation(rho, restarts=restarts, seed=seed)
    return ReversibilityVerdict(reversible=reversible,
                                decomposition=decomposition,
                                gap_upper=roof.value - roof.lower_bound,
                                block_purity_defects=defects)


def bound_coherence_check(rho: DensityMatrix) -> bool:
    """Self-test of 'no bound coherence': zero distillable coherence forces
    the state to be diagonal.  True on every state for a correct
    implementation."""
    cr = relative_entropy_of_coherence(rho)
    if cr > 1e-9:
        return True
    return rho.max_offdiagonal() <= 1e-9
