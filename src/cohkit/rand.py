"""Seeded random generators for states, partitions and incoherent channels.

Everything runs off ``numpy.random.Generator`` (PCG64).  Every ``random_*``
function takes an explicit generator, so that tests and the selftest suite
are bit-reproducible; generators are derived from a seed and counters as
``rng_for(seed, k)``.
"""

from __future__ import annotations

import numpy as np

from .incoherent import IncoherentChannel, KrausOperator
from .qstate import BasisPartition, DensityMatrix, PureState

RNG_NAME = "pcg64"


def rng_for(seed, *counters) -> np.random.Generator:
    """Generator derived from (seed, counters...); order-independent trials."""
    return np.random.default_rng([int(seed), *map(int, counters)])


def random_isometry(m: int, r: int, rng) -> np.ndarray:
    """Random m x r complex isometry (columns orthonormal), m >= r."""
    g = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
    q, rr = np.linalg.qr(g)
    phases = np.diag(rr).copy()
    phases /= np.abs(phases)
    return q * phases


def random_pure_state(d: int, rng) -> PureState:
    a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(a / np.linalg.norm(a))


def random_density_matrix(d: int, rng, rank: int | None = None) -> DensityMatrix:
    """Random mixed state: normalized G G^dag with G a d x rank Ginibre matrix."""
    rank = d if rank is None else rank
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return DensityMatrix(m / np.real(np.trace(m)))


def random_probability_vector(d: int, rng) -> np.ndarray:
    p = rng.dirichlet(np.ones(d))
    return p / p.sum()


def random_partition(d: int, rng, min_blocks: int = 2) -> BasisPartition:
    """Random partition of {0..d-1} into at least ``min_blocks`` blocks."""
    k = int(rng.integers(min_blocks, d + 1))
    idx = rng.permutation(d)
    cuts = np.sort(rng.choice(np.arange(1, d), size=k - 1, replace=False))
    return BasisPartition(d, np.split(idx, cuts))


def random_block_state(d: int, rng, min_blocks: int = 2):
    """Direct sum of pure states on a random partition of the basis.

    Returns (state, partition, weights, members), the weights in the order
    of ``partition.blocks``; block amplitudes are bounded away from zero so
    block detection sees each block as one component.
    """
    partition = random_partition(d, rng, min_blocks=min_blocks)
    weights = random_probability_vector(len(partition.blocks), rng)
    m = np.zeros((d, d), dtype=complex)
    members = []
    for w, block in zip(weights, partition.blocks):
        b = len(block)
        amp = rng.uniform(0.35, 1.0, size=b) * np.exp(
            2j * np.pi * rng.uniform(size=b))
        amp = amp / np.linalg.norm(amp)
        vec = np.zeros(d, dtype=complex)
        vec[np.array(block)] = amp
        members.append(PureState(vec))
        m += w * np.outer(vec, vec.conj())
    return DensityMatrix(m), partition, weights, members


def random_strictly_incoherent_channel(d: int, n_kraus: int,
                                       rng) -> IncoherentChannel:
    """Random channel whose Kraus operators are all permutation-shaped.

    Each operator is sum_i c_l(i) |pi_l(i)><i|; completeness holds because the
    coefficient columns are normalized across operators.
    """
    coeff = rng.standard_normal((n_kraus, d)) + 1j * rng.standard_normal(
        (n_kraus, d))
    coeff /= np.linalg.norm(coeff, axis=0, keepdims=True)
    return IncoherentChannel([
        KrausOperator.from_certificate(rng.permutation(d), c, d)
        for c in coeff])


def random_merge_channel(d: int, rng) -> IncoherentChannel:
    """Incoherent channel whose Kraus operators each collapse onto one basis
    state: K_l = |t_l> w_l^dag with the w_l the rows of an isometry.

    The j maps are constant per operator, hence not one-to-one: the channel
    is incoherent but generically not strictly incoherent.
    """
    v = random_isometry(d, d, rng)
    kraus = []
    for ell in range(d):
        t = int(rng.integers(0, d))
        kraus.append(KrausOperator.from_certificate(np.full(d, t),
                                                    v[ell].conj(), d))
    return IncoherentChannel(kraus)


def random_incoherent_channel(d: int, n_kraus: int, rng) -> IncoherentChannel:
    """Random incoherent channel with non-injective j maps: a mixture of a
    strictly incoherent channel and a merge channel."""
    lam = float(rng.uniform(0.2, 0.8))
    strict = random_strictly_incoherent_channel(d, n_kraus, rng)
    merge = random_merge_channel(d, rng)
    kraus = [k.scaled(np.sqrt(lam)) for k in strict.kraus]
    kraus += [k.scaled(np.sqrt(1 - lam)) for k in merge.kraus]
    return IncoherentChannel(kraus)


def random_majorizing_pair(d: int, rng):
    """(source, target) pure states with diag(target) majorizing diag(source).

    The source diagonal is a random mixture of permutations of the target
    diagonal, which guarantees the majorization precondition.
    """
    p = random_probability_vector(d, rng)
    n_perm = int(rng.integers(2, d + 2))
    lam = random_probability_vector(n_perm, rng)
    q = np.zeros(d)
    for w in lam:
        q += w * p[rng.permutation(d)]
    q = q / q.sum()
    phase_p = np.exp(2j * np.pi * rng.uniform(size=d))
    phase_q = np.exp(2j * np.pi * rng.uniform(size=d))
    return (PureState(np.sqrt(q) * phase_q), PureState(np.sqrt(p) * phase_p))
