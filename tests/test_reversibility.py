from collections import deque

import numpy as np
import pytest

import cohkit as ck
from cohkit import rand

from conftest import h2


def two_block_state():
    """0.5 |phi_0><phi_0| on {0,1} plus 0.5 |phi_1><phi_1| on {2,3}."""
    v0 = np.zeros(4, dtype=complex)
    v0[:2] = np.sqrt([0.6, 0.4])
    v1 = np.zeros(4, dtype=complex)
    v1[2:] = np.sqrt([0.3, 0.7])
    m = 0.5 * np.outer(v0, v0.conj()) + 0.5 * np.outer(v1, v1.conj())
    return ck.DensityMatrix(m)


# -- block detection -----------------------------------------------------------

def test_diagonal_state_gives_singletons(rng):
    rho = ck.DensityMatrix.from_diagonal(
        rand.random_probability_vector(5, rng))
    dec = ck.detect_blocks(rho)
    assert len(dec.partition.blocks) == 5
    assert all(len(b) == 1 for b in dec.partition.blocks)
    assert dec.residual_offblock_mass <= 1e-10


def test_maximally_coherent_is_one_block():
    dec = ck.detect_blocks(ck.maximally_coherent(4).to_density())
    assert len(dec.partition.blocks) == 1
    assert dec.partition.blocks[0] == (0, 1, 2, 3)


def test_constructed_two_block_state():
    rho = two_block_state()
    dec = ck.detect_blocks(rho)
    assert list(dec.partition.blocks) == [(0, 1), (2, 3)]
    assert np.isclose(dec.weights[0], 0.5, atol=1e-12)
    assert np.max(np.abs(ck.dephase(rho, dec.partition).matrix - rho.matrix)) \
        <= dec.residual_offblock_mass + 1e-12


def test_threshold_monotone_refinement(rng):
    for _ in range(10):
        d = int(rng.integers(3, 7))
        rho = rand.random_density_matrix(d, rng)
        counts = [len(ck.detect_blocks(rho, thr).partition.blocks)
                  for thr in (1e-10, 1e-3, 1e-1)]
        for a, b in zip(counts, counts[1:]):
            assert b >= a  # raising the threshold never merges blocks


def bfs_blocks(matrix, threshold):
    """Connected components of |matrix_ij| > threshold by breadth-first
    search, each sorted, ordered by smallest index."""
    d = len(matrix)
    seen, blocks = set(), []
    for start in range(d):
        if start in seen:
            continue
        seen.add(start)
        comp, queue = [], deque([start])
        while queue:
            i = queue.popleft()
            comp.append(i)
            for j in range(d):
                if j not in seen and abs(matrix[i][j]) > threshold:
                    seen.add(j)
                    queue.append(j)
        blocks.append(tuple(sorted(comp)))
    return blocks


def supported_state(d, edges, rng):
    """A diagonally dominant (hence valid) density matrix whose off-diagonal
    support is exactly ``edges``, with magnitudes spread over 1e-12..1e-1."""
    m = np.zeros((d, d), dtype=complex)
    for i, j in edges:
        m[i, j] = 10.0 ** rng.uniform(-12, -1) * np.exp(
            2j * np.pi * rng.uniform())
        m[j, i] = np.conj(m[i, j])
    m += np.diag(np.abs(m).sum(axis=1) + rng.uniform(0.1, 1.0, d))
    return ck.DensityMatrix(m / np.trace(m).real)


def support_graphs(rng):
    for d in range(1, 33):
        for density in (0.02, 0.1, 0.3):
            yield d, [(i, j) for i in range(d) for j in range(i + 1, d)
                      if rng.uniform() < density]
        # Paths need the most propagation sweeps: one per edge.
        yield d, [(i, i + 1) for i in range(d - 1)]
        perm = rng.permutation(d)
        yield d, [(int(perm[i]), int(perm[i + 1])) for i in range(d - 1)]


def test_detect_blocks_matches_bfs(rng):
    for d, edges in support_graphs(rng):
        rho = supported_state(d, edges, rng)
        for threshold in (0.0, 1e-10, 1e-6, 1e-3):
            expected = bfs_blocks(rho.matrix.tolist(), threshold)
            dec = ck.detect_blocks(rho, threshold)
            assert list(dec.partition.blocks) == expected


@pytest.mark.parametrize("counter,blocks,next_draw", [
    (17, [(0, 5, 6), (1, 2, 3, 4)], 9),
    (19, [(0, 3, 6), (1, 4, 5), (2,)], 798),
    (22, [(0, 3, 5), (1, 2), (4, 6)], 691),
    (32, [(0, 3, 4), (1,), (2, 5, 6)], 988),
])
def test_random_partition_draws_fixed_blocks(counter, blocks, next_draw):
    # The blocks, and the draws left on the generator, at fixed seeds.
    rng = rand.rng_for(7, counter)
    part = rand.random_partition(7, rng, min_blocks=1)
    assert isinstance(part, ck.BasisPartition)
    assert list(part.blocks) == blocks
    assert rng.integers(1000) == next_draw


def test_detected_partition_feeds_dephase_and_classify():
    rho = two_block_state()
    part = ck.detect_blocks(rho).partition
    assert np.array_equal(ck.dephase(rho, part).matrix, rho.matrix)
    # A swap inside each block keeps every block; one across them does not.
    within = ck.IncoherentChannel([np.eye(4)[[1, 0, 3, 2]]])
    across = ck.IncoherentChannel([np.eye(4)[[0, 2, 1, 3]]])
    assert ck.classify_channel(within, part) == "strictly_incoherent"
    assert ck.classify_channel(across, part) == "unclassified"


# -- verdicts --------------------------------------------------------------------

def test_pure_states_are_reversible(rng):
    psi = rand.random_pure_state(4, rng)
    verdict = ck.is_reversible(psi.to_density(), restarts=8)
    assert verdict.reversible
    assert abs(verdict.gap_upper) <= 5e-3


def test_two_block_state_is_reversible():
    verdict = ck.is_reversible(two_block_state(), restarts=12)
    assert verdict.reversible
    assert abs(verdict.gap_upper) <= 5e-3
    # C_r = sum_j p_j S(diag phi_j) for block states
    expected = 0.5 * h2(0.6) + 0.5 * h2(0.3)
    assert np.isclose(ck.relative_entropy_of_coherence(two_block_state()),
                      expected, atol=1e-10)


def test_random_block_states_reversible(rng):
    for s in range(10):
        d = int(rng.integers(3, 7))
        rho, _, _, _ = rand.random_block_state(d, rng)
        verdict = ck.is_reversible(rho, restarts=12, seed=s)
        assert verdict.reversible
        assert abs(verdict.gap_upper) <= 5e-3
        assert all(x <= 1e-8 for x in verdict.block_purity_defects)


def test_mixed_qubit_is_irreversible():
    rho = ck.DensityMatrix([[0.5, 0.3], [0.3, 0.5]])
    verdict = ck.is_reversible(rho, restarts=12)
    assert not verdict.reversible
    # gap = h(0.9) - (1 - h(0.8)), both previously derived
    expected_gap = h2(0.9) - (1.0 - h2(0.8))
    assert np.isclose(expected_gap, 0.19092368847664336, atol=1e-12)
    assert abs(verdict.gap_upper - expected_gap) <= 5e-3


def test_generic_mixed_states_irreversible(rng):
    for s in range(10):
        d = int(rng.integers(2, 5))
        rho = rand.random_density_matrix(d, rng)
        if rho.max_offdiagonal() < 0.05:
            continue
        verdict = ck.is_reversible(rho, restarts=10, seed=s)
        assert not verdict.reversible
        assert verdict.gap_upper > 0.01


def test_gap_lower_proves_irreversibility():
    # Criterion 8's generic pool: the closed-form bound lifts the lower side
    # of the gap above zero, exactly so on qubits where it is C_f itself.
    qubits = 0
    for s in range(40):
        rng = rand.rng_for(8002, s)
        d = int(rng.integers(2, 5))
        rho = rand.random_density_matrix(d, rng)
        if rho.max_offdiagonal() < 0.05:
            continue
        verdict = ck.is_reversible(rho, restarts=4, seed=s)
        assert 0.0 <= verdict.gap_lower <= verdict.gap_upper
        assert verdict.to_dict()["gap_lower"] == verdict.gap_lower
        if d == 2:
            qubits += 1
            assert verdict.gap_lower > 0.0
            assert verdict.gap_upper - verdict.gap_lower <= 1e-12
    assert qubits >= 5


def test_gap_lower_is_zero_on_block_pure_states(rng):
    for s in range(10):
        rho, _, _, _ = rand.random_block_state(int(rng.integers(3, 7)), rng)
        verdict = ck.is_reversible(rho, restarts=4, seed=s)
        assert verdict.reversible
        assert verdict.gap_lower == 0.0


def test_verdict_gap_never_negative_beyond_slack(rng):
    for s in range(10):
        d = int(rng.integers(2, 6))
        rho = rand.random_density_matrix(d, rng)
        verdict = ck.is_reversible(rho, restarts=8, seed=s)
        assert verdict.gap_upper >= -5e-3


# -- no bound coherence --------------------------------------------------------------

def test_bound_coherence_check_diagonal():
    assert ck.bound_coherence_check(
        ck.DensityMatrix.from_diagonal([0.25, 0.75]))


def test_bound_coherence_check_phi2():
    assert ck.bound_coherence_check(ck.maximally_coherent(2).to_density())


def test_bound_coherence_sweep(rng):
    for _ in range(200):
        d = int(rng.integers(2, 7))
        rho = rand.random_density_matrix(d, rng)
        assert ck.bound_coherence_check(rho)


def test_cd_never_exceeds_cc(rng):
    for s in range(10):
        d = int(rng.integers(2, 5))
        rho = rand.random_density_matrix(d, rng)
        cf = ck.coherence_of_formation(rho, restarts=10, seed=s).value
        assert ck.relative_entropy_of_coherence(rho) <= cf + 1e-6
