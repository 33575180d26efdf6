import math

import numpy as np
import pytest

import cohkit as ck
from cohkit import rand
from cohkit.errors import (
    DimensionMismatchError,
    InvariantViolationError,
    TransformationImpossibleError,
)
from cohkit.incoherent import (
    INCOHERENT,
    NON_COHERENCE_GENERATING,
    STRICTLY_INCOHERENT,
    UNCLASSIFIED,
    IncoherentChannel,
    KrausOperator,
)

from conftest import h2

S2 = 1.0 / math.sqrt(2.0)
H = np.array([[S2, S2], [S2, -S2]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)
# np.kron(outer, inner) acts as ``outer`` on the blocks {0, 1} and {2, 3}.
TWO_BLOCKS = ck.BasisPartition(4, [[0, 1], [2, 3]])
# |0><+| completed by |1><-|: incoherent, not strictly (both inputs to |0>).
BRA_PLUS = [np.array([[S2, S2], [0, 0]]), np.array([[0, 0], [S2, -S2]])]
TWIRLED_H = [0.5 * p @ H @ q for p in (I2, Z) for q in (I2, Z)]
RECTANGULAR = [np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])]


# -- Kraus operators and channels ------------------------------------------------

def test_certificate_accepted():
    m = np.array([[0.0, 0.6], [0.8, 0.0]], dtype=complex)
    k = KrausOperator(m, j_map=[1, 0], coefficients=[0.8, 0.6])
    assert k.j_map.tolist() == [1, 0]


def test_certificate_rejected_on_mismatch():
    m = np.array([[0.1, 0.6], [0.8, 0.0]], dtype=complex)
    with pytest.raises(InvariantViolationError):
        KrausOperator(m, j_map=[1, 0], coefficients=[0.8, 0.6])


def test_kraus_rejects_non_finite_entries():
    # NaN passes the completeness check (NaN > atol is False), so it is
    # rejected on its own before it can be classified.
    m = np.array([[1.0, math.nan], [0.0, 1.0]], dtype=complex)
    with pytest.raises(InvariantViolationError) as err:
        IncoherentChannel([m])
    assert err.value.invariant == "finite"


def test_channel_completeness_enforced():
    half = KrausOperator(0.5 * np.eye(2, dtype=complex))
    with pytest.raises(InvariantViolationError) as err:
        IncoherentChannel([half])
    assert err.value.invariant == "completeness"


def test_random_strict_channel_reports_its_class(rng):
    ch = rand.random_strictly_incoherent_channel(3, 2, rng)
    assert ch.class_label == STRICTLY_INCOHERENT
    assert ch.to_dict()["class"] == STRICTLY_INCOHERENT


def test_channel_file_class_is_computed_not_trusted():
    data = ck.dephasing_channel(2).to_dict()
    data["class"] = NON_COHERENCE_GENERATING
    assert IncoherentChannel.from_dict(data).class_label == STRICTLY_INCOHERENT


def test_channel_json_roundtrip(rng):
    ch = rand.random_strictly_incoherent_channel(3, 2, rng)
    again = IncoherentChannel.from_dict(ch.to_dict())
    for a, b in zip(ch.kraus, again.kraus):
        assert np.allclose(a.entries, b.entries)
        assert np.array_equal(a.j_map, b.j_map)


# -- classification ----------------------------------------------------------------

def test_cnot_is_strictly_incoherent():
    assert ck.classify_channel(ck.cnot_channel(2)) == STRICTLY_INCOHERENT


def test_hadamard_is_unclassified():
    h = np.array([[S2, S2], [S2, -S2]], dtype=complex)
    ch = IncoherentChannel([KrausOperator(h)])
    assert ck.classify_channel(ch) == UNCLASSIFIED


def test_zero_bra_plus_with_projector_completion():
    # |0><+| completed by |-><-|: not incoherent in this representation and
    # T(|0><0|) is not diagonal, so at most non-coherence-generating fails too.
    k1 = np.array([[S2, S2], [0, 0]], dtype=complex)
    k2 = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    ch = IncoherentChannel([KrausOperator(k1), KrausOperator(k2)])
    label = ck.classify_channel(ch)
    assert label not in (INCOHERENT, STRICTLY_INCOHERENT)
    assert label == UNCLASSIFIED


def test_zero_bra_plus_with_incoherent_completion():
    # |0><+| completed by |1><-|: every Kraus incoherent, but j maps both
    # basis states to one row, so strictness fails.
    k1 = np.array([[S2, S2], [0, 0]], dtype=complex)
    k3 = np.array([[0, 0], [S2, -S2]], dtype=complex)
    ch = IncoherentChannel([KrausOperator(k1), KrausOperator(k3)])
    assert ck.classify_channel(ch) == INCOHERENT


def test_twirled_hadamard_is_ncg():
    h = np.array([[S2, S2], [S2, -S2]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    eye = np.eye(2, dtype=complex)
    kraus = [KrausOperator(0.5 * p @ h @ q) for p in (eye, z) for q in (eye, z)]
    ch = IncoherentChannel(kraus)
    assert ck.classify_channel(ch) == NON_COHERENCE_GENERATING


def test_classification_against_block_partition():
    # A block-local unitary is free for the coarse partition but not for
    # the singleton one.
    h = np.array([[S2, S2], [S2, -S2]], dtype=complex)
    u = np.zeros((4, 4), dtype=complex)
    u[:2, :2] = h
    u[2:, 2:] = np.array([[0, 1], [1, 0]])
    ch = IncoherentChannel([KrausOperator(u)])
    part = ck.BasisPartition(4, [[0, 1], [2, 3]])
    assert ck.classify_channel(ch) == UNCLASSIFIED
    assert ck.classify_channel(ch, part) == STRICTLY_INCOHERENT


@pytest.mark.parametrize("kraus, partition, expected", [
    pytest.param([np.kron(k, H) for k in BRA_PLUS], TWO_BLOCKS, INCOHERENT,
                 id="partition-incoherent"),
    pytest.param([np.kron(k, I2) for k in TWIRLED_H], TWO_BLOCKS,
                 NON_COHERENCE_GENERATING, id="partition-ncg"),
    pytest.param([np.kron(H, I2)], TWO_BLOCKS, UNCLASSIFIED,
                 id="partition-unclassified"),
    pytest.param(RECTANGULAR, None, STRICTLY_INCOHERENT,
                 id="rectangular"),
    pytest.param(RECTANGULAR, ck.BasisPartition(2, [[0], [1]]),
                 DimensionMismatchError, id="rectangular-partition"),
])
def test_classification_cases(kraus, partition, expected):
    ch = IncoherentChannel(kraus)
    if expected is DimensionMismatchError:
        with pytest.raises(DimensionMismatchError):
            ck.classify_channel(ch, partition)
    else:
        assert ck.classify_channel(ch, partition) == expected


# -- application ---------------------------------------------------------------------

def test_identity_channel(rng):
    rho = rand.random_density_matrix(3, rng)
    ch = IncoherentChannel([KrausOperator(np.eye(3, dtype=complex))])
    assert np.allclose(ck.apply_channel(ch, rho).matrix, rho.matrix)
    outcomes = ck.apply_selective(ch, rho)
    assert len(outcomes) == 1
    assert np.isclose(outcomes[0][0], 1.0)


def test_dephasing_channel_matches_pinching(rng):
    rho = rand.random_density_matrix(4, rng)
    out = ck.apply_channel(ck.dephasing_channel(4), rho)
    assert np.allclose(out.matrix, ck.dephase(rho).matrix, atol=1e-12)


def test_dephasing_selective_on_phi2():
    outcomes = ck.apply_selective(ck.dephasing_channel(2),
                                  ck.maximally_coherent(2).to_density())
    assert len(outcomes) == 2
    for i, (p, out) in enumerate(outcomes):
        assert np.isclose(p, 0.5, atol=1e-12)
        expected = np.zeros((2, 2))
        expected[i, i] = 1.0
        assert np.allclose(out.matrix, expected, atol=1e-12)


def test_cnot_creates_maximally_correlated(rng):
    rho = rand.random_density_matrix(2, rng)
    zero = ck.DensityMatrix.from_diagonal([1.0, 0.0])
    out = ck.apply_channel(ck.cnot_channel(2), ck.tensor(rho, zero))
    assert np.allclose(out.matrix, ck.embed_maximally_correlated(rho).matrix,
                       atol=1e-12)


def test_probabilities_sum_to_one(rng):
    for _ in range(10):
        d = int(rng.integers(2, 5))
        ch = rand.random_incoherent_channel(d, int(rng.integers(1, 4)), rng)
        rho = rand.random_density_matrix(d, rng)
        total = sum(p for p, _ in ck.apply_selective(ch, rho))
        assert abs(total - 1.0) <= 1e-9


# -- majorization ----------------------------------------------------------------------

def test_majorization_simple_witness():
    w = ck.majorization_check([0.7, 0.3], [0.5, 0.5])
    assert w.holds
    assert np.allclose(w.bistochastic @ np.array([0.7, 0.3]), [0.5, 0.5],
                       atol=1e-12)
    # lambda_id = lambda_swap = 1/2 solves 0.5 = 0.7 l + 0.3 (1 - l)
    weights = sorted(lam for lam, _ in w.birkhoff)
    assert np.allclose(weights, [0.5, 0.5], atol=1e-9)


def test_majorization_uniform_dominates_nothing():
    assert not ck.majorization_check([0.5, 0.5], [0.7, 0.3]).holds


def test_majorization_identical_vectors():
    w = ck.majorization_check([0.4, 0.35, 0.25], [0.4, 0.35, 0.25])
    assert w.holds
    assert len(w.birkhoff) == 1
    lam, perm = w.birkhoff[0]
    assert np.isclose(lam, 1.0)
    assert np.array_equal(perm, np.arange(3))


def test_majorization_pads_shorter_vector():
    w = ck.majorization_check([1.0], [0.5, 0.5])
    assert w.holds
    assert w.target_spectrum.size == 2


def test_majorization_rejects_non_probability():
    with pytest.raises(InvariantViolationError):
        ck.majorization_check([0.7, 0.4], [0.5, 0.5])


@pytest.mark.parametrize("p, q", [
    ([math.nan, 0.5, 0.5], [0.5, 0.5, 0.0]),
    ([0.5, 0.5, 0.0], [0.5, 0.5, math.nan]),
    ([math.inf, 0.5], [0.5, 0.5]),
], ids=["nan-target", "nan-source", "inf"])
def test_majorization_rejects_non_finite(p, q):
    # abs(nan - 1) > atol is False, so only the finiteness check catches it.
    with pytest.raises(InvariantViolationError) as exc:
        ck.majorization_check(p, q)
    assert exc.value.invariant == "finite"


def test_birkhoff_witness_properties(rng):
    for _ in range(40):
        d = int(rng.integers(2, 8))
        source, target = rand.random_majorizing_pair(d, rng)
        p = target.probabilities()
        q = source.probabilities()
        w = ck.majorization_check(p, q)
        assert w.holds
        assert len(w.birkhoff) <= d
        assert abs(sum(lam for lam, _ in w.birkhoff) - 1.0) <= 1e-10
        recon = np.zeros(d)
        for lam, perm in w.birkhoff:
            recon += lam * p[perm]
        assert np.max(np.abs(recon - q)) <= 1e-9
        # doubly stochastic
        assert np.allclose(w.bistochastic.sum(axis=0), 1.0, atol=1e-9)
        assert np.allclose(w.bistochastic.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(w.bistochastic >= -1e-12)


def _pair_with_ties_and_zeros(d, rng):
    """(p, q) with q a mixture of permutations of p; p has repeated entries
    and zeros in some draws."""
    p = rng.dirichlet(np.full(d, rng.choice([0.2, 1.0, 5.0])))
    if rng.uniform() < 0.4:
        p = np.round(p * 4.0) / 4.0
        if not p.any():
            p[0] = 1.0
        p /= p.sum()
    q = np.zeros(d)
    for w in rng.dirichlet(np.ones(int(rng.integers(1, 2 * d + 1)))):
        q += w * p[rng.permutation(d)]
    if d > 1 and rng.uniform() < 0.2:
        # Averaging the smallest half keeps q majorized and ties it.
        q = np.sort(q)
        q[: d // 2] = q[: d // 2].mean()
        q = q[rng.permutation(d)]
    return p, q / q.sum()


def test_permutohedron_witness_property():
    rng = np.random.default_rng(20261018)
    for _ in range(1200):
        d = int(rng.integers(1, 17))
        p, q = _pair_with_ties_and_zeros(d, rng)
        # Trailing zeros dropped from one side exercise the padding.
        p_in = np.trim_zeros(p, "b") if rng.uniform() < 0.2 else p
        w = ck.majorization_check(p_in, q)
        assert w.holds
        weights = np.array([lam for lam, _ in w.birkhoff])
        assert 1 <= weights.size <= d
        assert np.all(weights > 0)
        assert abs(weights.sum() - 1.0) <= 1e-12
        recon = sum(lam * p[perm] for lam, perm in w.birkhoff)
        assert np.max(np.abs(recon - q)) <= 1e-12
        assert all(sorted(perm) == list(range(d)) for _, perm in w.birkhoff)
        assert np.max(np.abs(w.bistochastic.sum(axis=0) - 1.0)) <= 1e-12
        assert np.max(np.abs(w.bistochastic.sum(axis=1) - 1.0)) <= 1e-12
        assert np.all(w.bistochastic >= 0.0)


@pytest.mark.parametrize("source, target", [
    ([0.5, 0.5, 0.0], [1.0, 0.0, 0.0]),
    ([0.5, 0.0, 0.5, 0.0], [0.0, 0.8, 0.0, 0.2]),
    ([0.0, 0.3, 0.3, 0.4], [0.0, 0.0, 0.6, 0.4]),
], ids=["merge", "zero-amplitudes", "leading-zero"])
def test_channel_witness_in_channel_coordinates(source, target):
    # The channel's Birkhoff terms are permutations of all d basis indices,
    # and they rebuild the source diagonal from the target's.
    p, q = np.array(target), np.array(source)
    ch = ck.synthesize_pure_transformation(
        ck.PureState(np.sqrt(q).astype(complex)),
        ck.PureState(np.sqrt(p).astype(complex)))
    terms = ch.to_dict()["birkhoff"]
    assert len(terms) <= q.size
    assert all(sorted(t["perm"]) == list(range(q.size)) for t in terms)
    recon = sum(t["weight"] * p[t["perm"]] for t in terms)
    assert np.max(np.abs(recon - q)) <= 1e-12


def test_synthesis_with_tiny_and_zero_source_weights():
    # Target entries of 1e-13 .. 1e-9 and zeros, mixed only among
    # themselves, give source entries of that size and exact zeros.  Every
    # outcome still lands on the target only if the witness rebuilds those
    # entries to relative precision.
    rng = np.random.default_rng(1013)
    for _ in range(200):
        d = int(rng.integers(2, 13))
        p = rng.dirichlet(np.ones(d))
        low = rng.choice(d, size=int(rng.integers(1, d)), replace=False)
        zeros = low[: int(rng.integers(0, low.size + 1))]
        p[low] = 10.0 ** rng.uniform(-13, -9, low.size)
        p[zeros] = 0.0
        p /= p.sum()
        src_low = rng.choice(d, size=low.size, replace=False)
        src_zero = src_low[: int(rng.integers(0, zeros.size + 1))]
        src_rest = np.setdiff1d(np.arange(d), src_low)
        q = np.zeros(d)
        for w in rng.dirichlet(np.ones(int(rng.integers(1, d + 2)))):
            perm = np.empty(d, dtype=int)
            to_zero = rng.permutation(zeros)[: src_zero.size]
            perm[src_zero] = to_zero
            perm[np.setdiff1d(src_low, src_zero)] = rng.permutation(
                np.setdiff1d(low, to_zero))
            perm[src_rest] = rng.permutation(np.setdiff1d(np.arange(d), low))
            q += w * p[perm]
        q /= q.sum()
        phases = np.exp(2j * np.pi * rng.uniform(size=(2, d)))
        source = ck.PureState(np.sqrt(q) * phases[0])
        target = ck.PureState(np.sqrt(p) * phases[1])
        ch = ck.synthesize_pure_transformation(source, target)
        assert ch.completeness_defect() <= 1e-9
        assert ck.classify_channel(ch) == STRICTLY_INCOHERENT
        assert len(ch.kraus) <= d
        tgt = target.to_density()
        for _, out in ck.apply_selective(ch, source.to_density()):
            assert ck.fidelity(out, tgt) >= 1.0 - 1e-9


# -- synthesis ----------------------------------------------------------------------------

def test_synthesis_worked_example():
    source = ck.maximally_coherent(2)
    target = ck.PureState(np.sqrt([0.7, 0.3]).astype(complex))
    ch = ck.synthesize_pure_transformation(source, target)
    assert len(ch.kraus) == 2
    mats = sorted((k.entries for k in ch.kraus),
                  key=lambda m: abs(m[0, 0]), reverse=True)
    assert np.allclose(mats[0], np.diag([math.sqrt(0.7), math.sqrt(0.3)]),
                       atol=1e-12)
    anti = np.array([[0, math.sqrt(0.7)], [math.sqrt(0.3), 0]])
    assert np.allclose(mats[1], anti, atol=1e-12)


def test_synthesis_identity_transformation():
    psi = ck.PureState(np.sqrt([0.5, 0.3, 0.2]).astype(complex))
    ch = ck.synthesize_pure_transformation(psi, psi)
    assert len(ch.kraus) == 1
    assert np.allclose(ch.kraus[0].entries, np.eye(3), atol=1e-12)


def test_synthesis_from_maximally_coherent_to_any(rng):
    for _ in range(10):
        d = int(rng.integers(2, 7))
        target = rand.random_pure_state(d, rng)
        ch = ck.synthesize_pure_transformation(ck.maximally_coherent(d),
                                               target)
        tgt = target.to_density()
        for p, out in ck.apply_selective(ch, ck.maximally_coherent(d).to_density()):
            assert ck.fidelity(out, tgt) >= 1.0 - 1e-9


def test_synthesis_impossible_carries_witness():
    source = ck.PureState(np.sqrt([0.7, 0.3]).astype(complex))
    target = ck.maximally_coherent(2)
    with pytest.raises(TransformationImpossibleError) as err:
        ck.synthesize_pure_transformation(source, target)
    assert err.value.witness is not None
    assert not err.value.witness.holds


def test_synthesis_soundness_random(rng):
    for _ in range(100):
        d = int(rng.integers(2, 7))
        source, target = rand.random_majorizing_pair(d, rng)
        ch = ck.synthesize_pure_transformation(source, target)
        assert ch.completeness_defect() <= 1e-9
        assert ck.classify_channel(ch) == STRICTLY_INCOHERENT
        tgt = target.to_density()
        for p, out in ck.apply_selective(ch, source.to_density()):
            assert ck.fidelity(out, tgt) >= 1.0 - 1e-9


def test_synthesis_handles_zero_amplitudes():
    source = ck.PureState(np.array([S2, 0.0, S2, 0.0], dtype=complex))
    target = ck.PureState(np.array([0.0, math.sqrt(0.8), 0.0,
                                    math.sqrt(0.2)], dtype=complex))
    ch = ck.synthesize_pure_transformation(source, target)
    assert ch.completeness_defect() <= 1e-9
    assert ck.classify_channel(ch) == STRICTLY_INCOHERENT
    tgt = target.to_density()
    for p, out in ck.apply_selective(ch, source.to_density()):
        assert ck.fidelity(out, tgt) >= 1.0 - 1e-9


def test_synthesis_handles_phases(rng):
    for _ in range(10):
        d = int(rng.integers(2, 6))
        source, target = rand.random_majorizing_pair(d, rng)
        # both carry random phases already; verify exact state mapping
        ch = ck.synthesize_pure_transformation(source, target)
        acc = np.zeros((d, d), dtype=complex)
        for k in ch.kraus:
            vec = k.entries @ source.amplitudes
            acc += np.outer(vec, vec.conj())
        assert np.max(np.abs(acc - target.to_density().matrix)) <= 1e-9


# -- preparation from the unit resource ----------------------------------------------------

def test_generate_identity_on_maximally_coherent():
    phi4 = ck.maximally_coherent(4).to_density()
    ch = ck.generate_from_maximally_coherent(phi4)
    out = ck.apply_channel(ch, phi4)
    assert ck.fidelity(out, phi4) >= 1.0 - 1e-8


def test_generate_diagonal_target(rng):
    target = ck.DensityMatrix.from_diagonal(
        rand.random_probability_vector(3, rng))
    ch = ck.generate_from_maximally_coherent(target)
    out = ck.apply_channel(ch, ck.maximally_coherent(3).to_density())
    assert out.max_offdiagonal() <= 1e-10
    assert ck.fidelity(out, target) >= 1.0 - 1e-8


def test_generate_mixed_qubit():
    target = ck.DensityMatrix([[0.5, 0.3], [0.3, 0.5]])
    ch = ck.generate_from_maximally_coherent(target)
    out = ck.apply_channel(ch, ck.maximally_coherent(2).to_density())
    assert np.max(np.abs(out.matrix - target.matrix)) <= 1e-8


def test_generate_random_targets(rng):
    for _ in range(5):
        d = int(rng.integers(2, 5))
        target = rand.random_density_matrix(d, rng)
        ch = ck.generate_from_maximally_coherent(target)
        out = ck.apply_channel(ch, ck.maximally_coherent(d).to_density())
        assert ck.fidelity(out, target) >= 1.0 - 1e-8


# -- small utilities -------------------------------------------------------------------------

def test_maximally_coherent_amplitudes():
    assert np.allclose(ck.maximally_coherent(2).amplitudes, [S2, S2])
    assert np.allclose(ck.maximally_coherent(4).amplitudes, [0.5] * 4)
    with pytest.raises(InvariantViolationError):
        ck.maximally_coherent(1)


def test_rank_of_diagonal():
    assert ck.rank_of_diagonal(ck.maximally_coherent(5)) == 5
    assert ck.rank_of_diagonal(ck.PureState.basis_state(4, 0)) == 1
    psi = ck.PureState(np.array([math.sqrt(0.9), 0, math.sqrt(0.1), 0],
                                dtype=complex))
    assert ck.rank_of_diagonal(psi) == 2


def test_embed_plus_state_gives_bell():
    plus = ck.maximally_coherent(2).to_density()
    emb = ck.embed_maximally_correlated(plus)
    bell = np.zeros((4, 4), dtype=complex)
    for i in (0, 3):
        for j in (0, 3):
            bell[i, j] = 0.5
    assert np.allclose(emb.matrix, bell, atol=1e-12)


def test_embed_diagonal_stays_diagonal(rng):
    rho = ck.DensityMatrix.from_diagonal(
        rand.random_probability_vector(3, rng))
    emb = ck.embed_maximally_correlated(rho)
    assert emb.max_offdiagonal() <= 1e-12


def test_embed_entry_positions():
    rho = ck.DensityMatrix([[0.5, 0.3], [0.3, 0.5]])
    emb = ck.embed_maximally_correlated(rho)
    assert np.isclose(emb.matrix[0, 0].real, 0.5)
    assert np.isclose(emb.matrix[0, 3].real, 0.3)
    assert np.isclose(emb.matrix[3, 0].real, 0.3)
    assert np.isclose(emb.matrix[3, 3].real, 0.5)
    assert np.isclose(np.abs(emb.matrix).sum(), 1.6)


def test_embedding_preserves_cr(rng):
    for _ in range(10):
        d = int(rng.integers(2, 5))
        rho = rand.random_density_matrix(d, rng)
        emb = ck.embed_maximally_correlated(rho)
        assert abs(ck.relative_entropy_of_coherence(rho)
                   - ck.relative_entropy_of_coherence(emb)) <= 1e-8


# -- monotonicity laws -------------------------------------------------------------------------

def test_rank_monotone_under_strictly_incoherent(rng):
    for _ in range(200):
        d = int(rng.integers(2, 7))
        ch = rand.random_strictly_incoherent_channel(
            d, int(rng.integers(1, 4)), rng)
        amps = np.zeros(d, dtype=complex)
        support = rng.choice(d, size=int(rng.integers(1, d + 1)),
                             replace=False)
        raw = rng.standard_normal(support.size) + 1j * rng.standard_normal(
            support.size)
        raw += 0.3 * np.sign(raw.real + 1e-9)  # keep weights off the floor
        amps[support] = raw
        psi = ck.PureState(amps / np.linalg.norm(amps))
        r_in = ck.rank_of_diagonal(psi)
        for k in ch.kraus:
            vec = k.entries @ psi.amplitudes
            norm = np.linalg.norm(vec)
            if norm < 1e-9:
                continue
            assert ck.rank_of_diagonal(ck.PureState(vec / norm)) <= r_in


def test_incoherent_channels_preserve_diagonal(rng):
    for _ in range(30):
        d = int(rng.integers(2, 6))
        ch = rand.random_incoherent_channel(d, int(rng.integers(1, 4)), rng)
        diag = ck.DensityMatrix.from_diagonal(
            rand.random_probability_vector(d, rng))
        assert ck.apply_channel(ch, diag).max_offdiagonal() <= 1e-10
        for p, out in ck.apply_selective(ch, diag):
            assert out.max_offdiagonal() <= 1e-10
