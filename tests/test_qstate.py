import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cohkit as ck
from cohkit import rand
from cohkit.errors import (
    DimensionMismatchError,
    InvariantViolationError,
    ResourceLimitError,
)

from conftest import h2


def phi(d):
    return ck.maximally_coherent(d).to_density()


# -- construction and validation ----------------------------------------------

def test_density_matrix_rejects_non_hermitian():
    with pytest.raises(InvariantViolationError) as err:
        ck.DensityMatrix([[0.5, 0.1], [0.3, 0.5]])
    assert err.value.invariant == "hermitian"


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(InvariantViolationError) as err:
        ck.DensityMatrix([[0.7, 0.0], [0.0, 0.5]])
    assert err.value.invariant == "unit_trace"


def test_density_matrix_rejects_negative():
    with pytest.raises(InvariantViolationError) as err:
        ck.DensityMatrix([[1.2, 0.0], [0.0, -0.2]])
    assert err.value.invariant == "positive_semidefinite"


def test_density_matrix_symmetrizes_rounding():
    m = np.array([[0.5, 0.3 + 1e-12j], [0.3 - 2e-12j, 0.5]])
    rho = ck.DensityMatrix(m)
    assert np.allclose(rho.matrix, rho.matrix.conj().T)


def test_pure_state_norm_enforced():
    with pytest.raises(InvariantViolationError):
        ck.PureState([0.5, 0.5])
    psi = ck.PureState.normalized([1.0, 1.0])
    assert np.isclose(np.linalg.norm(psi.amplitudes), 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_states_reject_non_finite_entries(bad):
    with pytest.raises(InvariantViolationError) as err:
        ck.DensityMatrix([[0.5, bad], [bad, 0.5]])
    assert err.value.invariant == "finite"
    with pytest.raises(InvariantViolationError) as err:
        ck.PureState([1.0, bad])
    assert err.value.invariant == "finite"


def test_partition_validation():
    with pytest.raises(InvariantViolationError):
        ck.BasisPartition(4, [[0, 1], [1, 2, 3]])
    with pytest.raises(InvariantViolationError):
        ck.BasisPartition(4, [[0, 1]])
    with pytest.raises(InvariantViolationError) as err:
        ck.BasisPartition(2, [[0, 1], []])
    assert err.value.invariant == "partition_empty"
    part = ck.BasisPartition(4, [[2, 3], [0, 1]])
    assert part.blocks == ((0, 1), (2, 3))


def test_partition_labels_mask_and_indicator():
    part = ck.BasisPartition(5, [[3, 4], [0, 2], [1]])
    assert part.labels.tolist() == [0, 1, 0, 2, 2]
    with pytest.raises(ValueError):
        part.labels[0] = 1
    ind = part.indicator()
    assert ind.tolist() == [[1, 0, 0], [0, 1, 0], [1, 0, 0], [0, 0, 1],
                            [0, 0, 1]]
    assert np.array_equal(part.mask(), ind @ ind.T == 1)


def test_states_are_immutable():
    rho = phi(2)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 9.0


# -- dephase -------------------------------------------------------------------

def test_dephase_phi2_is_maximally_mixed():
    out = ck.dephase(phi(2))
    assert np.allclose(out.matrix, np.diag([0.5, 0.5]))


def test_dephase_fixes_diagonal_states():
    rho = ck.DensityMatrix.from_diagonal([0.2, 0.3, 0.5])
    assert np.allclose(ck.dephase(rho).matrix, rho.matrix)


def test_dephase_block_partition_keeps_blocks():
    rho = ck.DensityMatrix(np.full((4, 4), 0.25, dtype=complex))
    part = ck.BasisPartition(4, [[0, 1], [2, 3]])
    out = ck.dephase(rho, part)
    expected = np.zeros((4, 4))
    expected[:2, :2] = 0.25
    expected[2:, 2:] = 0.25
    assert np.allclose(out.matrix, expected)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(labels=st.lists(st.integers(0, 6), min_size=1, max_size=7),
       seed=st.integers(0, 2 ** 32 - 1))
def test_dephase_idempotent(labels, seed):
    # Index i goes to block labels[i]: every partition of up to 7 indices.
    d = len(labels)
    blocks = [[i for i, b in enumerate(labels) if b == label]
              for label in sorted(set(labels))]
    part = ck.BasisPartition(d, blocks)
    rho = rand.random_density_matrix(d, rand.rng_for(seed))
    once = ck.dephase(rho, part)
    assert np.array_equal(ck.dephase(once, part).matrix, once.matrix)


def test_dephase_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        ck.dephase(phi(2), ck.BasisPartition.singleton(3))


# -- the one eigendecomposition of a state -------------------------------------

@pytest.fixture
def eigensolver_calls(monkeypatch):
    """Names of the numpy eigensolvers called while the test runs."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(*args, _name=name, _solver=getattr(np.linalg, name),
                    **kwargs):
            calls.append(_name)
            return _solver(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_cr_of_a_new_state_makes_one_eigensolver_call(rng, eigensolver_calls):
    m = rand.random_density_matrix(4, rng).matrix
    eigensolver_calls.clear()
    ck.relative_entropy_of_coherence(ck.DensityMatrix(m))
    assert eigensolver_calls == ["eigh"]


def test_fidelity_of_built_states_makes_no_eigensolver_call(rng,
                                                            eigensolver_calls):
    rho = rand.random_density_matrix(4, rng)
    sigma = rand.random_density_matrix(4, rng, rank=2)
    eigensolver_calls.clear()
    ck.fidelity(rho, sigma)
    assert eigensolver_calls == []


def test_eigendecomposition_is_read_only(rng):
    vals, vecs = rand.random_density_matrix(3, rng).eigh()
    for a in (vals, vecs):
        with pytest.raises(ValueError):
            a[0] = 0.0


@pytest.mark.parametrize("rank", [1, 2, 4])
def test_factor_has_rank_columns_and_rebuilds_the_state(rng, rank):
    rho = rand.random_density_matrix(4, rng, rank=rank)
    b = rho.factor()
    assert b.shape == (4, rank)
    assert np.allclose(b @ b.conj().T, rho.matrix, atol=1e-12)


# -- entropies -----------------------------------------------------------------

def test_entropy_of_pure_projector_is_zero():
    assert ck.von_neumann_entropy(phi(4)) <= 1e-12


def test_entropy_of_maximally_mixed():
    for d in (2, 3, 5, 8):
        rho = ck.DensityMatrix.maximally_mixed(d)
        assert np.isclose(ck.von_neumann_entropy(rho), math.log2(d),
                          atol=1e-12)


def test_entropy_binary_example():
    rho = ck.DensityMatrix.from_diagonal([0.9, 0.1])
    assert np.isclose(ck.von_neumann_entropy(rho), h2(0.9), atol=1e-12)
    assert np.isclose(h2(0.9), 0.4689955935892811, atol=1e-15)


def test_entropy_additivity(rng):
    for _ in range(20):
        a = rand.random_density_matrix(int(rng.integers(2, 5)), rng)
        b = rand.random_density_matrix(int(rng.integers(2, 5)), rng)
        lhs = ck.von_neumann_entropy(ck.tensor(a, b))
        rhs = ck.von_neumann_entropy(a) + ck.von_neumann_entropy(b)
        assert abs(lhs - rhs) <= 1e-8


# -- relative entropy ----------------------------------------------------------

def test_relative_entropy_self_is_zero(rng):
    rho = rand.random_density_matrix(4, rng)
    assert ck.relative_entropy(rho, rho) <= 1e-10


def test_relative_entropy_phi2_vs_mixed():
    val = ck.relative_entropy(phi(2), ck.DensityMatrix.maximally_mixed(2))
    assert np.isclose(val, 1.0, atol=1e-12)


def test_relative_entropy_disjoint_supports_is_infinite():
    r0 = ck.DensityMatrix.from_diagonal([1.0, 0.0])
    r1 = ck.DensityMatrix.from_diagonal([0.0, 1.0])
    assert ck.relative_entropy(r0, r1) == math.inf


def test_relative_entropy_nonnegative(rng):
    for _ in range(20):
        d = int(rng.integers(2, 6))
        a = rand.random_density_matrix(d, rng)
        b = rand.random_density_matrix(d, rng)
        assert ck.relative_entropy(a, b) >= 0.0


def test_pinching_identity(rng):
    # S(rho || dephase(rho)) = S(dephase(rho)) - S(rho)
    for _ in range(20):
        rho = rand.random_density_matrix(int(rng.integers(2, 7)), rng)
        lhs = ck.relative_entropy(rho, ck.dephase(rho))
        rhs = (ck.von_neumann_entropy(ck.dephase(rho))
               - ck.von_neumann_entropy(rho))
        assert abs(lhs - rhs) <= 1e-8


# -- distances -----------------------------------------------------------------

def test_distances_identical_states(rng):
    rho = rand.random_density_matrix(3, rng)
    rep = ck.distances(rho, rho)
    assert np.isclose(rep.fidelity, 1.0, atol=1e-9)
    assert rep.trace_distance <= 1e-9
    assert rep.bures <= 1e-4


def test_distances_orthogonal_pure_states():
    r0 = ck.DensityMatrix.from_diagonal([1.0, 0.0])
    r1 = ck.DensityMatrix.from_diagonal([0.0, 1.0])
    rep = ck.distances(r0, r1)
    assert np.isclose(rep.fidelity, 0.0, atol=1e-9)
    assert np.isclose(rep.trace_distance, 1.0, atol=1e-12)
    assert np.isclose(rep.bures, math.sqrt(2.0), atol=1e-9)


def test_distances_zero_plus_overlap():
    r0 = ck.DensityMatrix.from_diagonal([1.0, 0.0])
    rep = ck.distances(r0, phi(2))
    assert np.isclose(rep.fidelity, 1.0 / math.sqrt(2.0), atol=1e-9)


@pytest.mark.parametrize("d", [4, 8, 16, 32, 64])
def test_fidelity_of_orthogonal_pure_states_is_zero(rng, d):
    # Rank-deficient inputs keep their null spaces: no eigenvalue dust.
    a = rand.random_pure_state(d, rng).amplitudes
    b = rand.random_pure_state(d, rng).amplitudes
    b = b - np.vdot(a, b) * a
    ra = ck.PureState(a).to_density()
    rb = ck.PureState.normalized(b).to_density()
    assert ck.fidelity(ra, rb) <= 1e-12
    assert ck.fidelity(rb, ra) <= 1e-12


@pytest.mark.parametrize("rank", [1, 2])
def test_fidelity_of_low_rank_state_with_itself_is_one(rng, rank):
    for d in (2, 4, 8, 16):
        rho = rand.random_density_matrix(d, rng, rank=rank)
        assert abs(ck.fidelity(rho, rho) - 1.0) <= 1e-12


def test_fidelity_symmetry(rng):
    for _ in range(10):
        d = int(rng.integers(2, 6))
        a = rand.random_density_matrix(d, rng)
        b = rand.random_density_matrix(d, rng)
        assert abs(ck.fidelity(a, b) - ck.fidelity(b, a)) <= 1e-9


def test_bures_trace_norm_chain(rng):
    # (1/2) B^2 <= (1/2)||rho - sigma||_1 <= B
    for _ in range(40):
        d = int(rng.integers(2, 9))
        a = rand.random_density_matrix(d, rng)
        b = rand.random_density_matrix(d, rng)
        rep = ck.distances(a, b)
        assert 0.5 * rep.bures ** 2 <= rep.trace_distance + 1e-9
        assert rep.trace_distance <= rep.bures + 1e-9


def test_trace_distance_monotone_under_dephase(rng):
    for _ in range(20):
        d = int(rng.integers(2, 7))
        a = rand.random_density_matrix(d, rng)
        b = rand.random_density_matrix(d, rng)
        before = ck.trace_distance(a, b)
        after = ck.trace_distance(ck.dephase(a), ck.dephase(b))
        assert after <= before + 1e-10


# -- tensor ---------------------------------------------------------------------

def test_tensor_with_scalar_state_is_identity(rng):
    rho = rand.random_density_matrix(3, rng)
    one = ck.DensityMatrix([[1.0]])
    assert np.allclose(ck.tensor(rho, one).matrix, rho.matrix)


def test_tensor_of_diagonals():
    a = ck.DensityMatrix.from_diagonal([0.25, 0.75])
    b = ck.DensityMatrix.from_diagonal([0.6, 0.4])
    out = ck.tensor(a, b)
    assert np.allclose(np.diag(out.matrix).real,
                       [0.15, 0.1, 0.45, 0.3])


def test_tensor_phi2_phi2_is_uniform():
    out = ck.tensor(phi(2), phi(2))
    assert np.allclose(out.matrix, np.full((4, 4), 0.25))


def test_tensor_respects_dephase_product(rng):
    a = rand.random_density_matrix(2, rng)
    b = rand.random_density_matrix(3, rng)
    lhs = ck.dephase(ck.tensor(a, b)).matrix
    rhs = np.kron(ck.dephase(a).matrix, ck.dephase(b).matrix)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_tensor_dimension_cap():
    rho = ck.DensityMatrix.maximally_mixed(70)
    with pytest.raises(ResourceLimitError):
        ck.tensor(rho, rho)


# -- JSON round trips -----------------------------------------------------------

def test_density_matrix_json_roundtrip(rng):
    rho = rand.random_density_matrix(3, rng)
    again = ck.DensityMatrix.from_dict(rho.to_dict())
    assert np.allclose(again.matrix, rho.matrix)


def test_pure_state_json_roundtrip(rng):
    psi = rand.random_pure_state(4, rng)
    again = ck.PureState.from_dict(psi.to_dict())
    assert np.allclose(again.amplitudes, psi.amplitudes)


def test_partition_json_roundtrip():
    part = ck.BasisPartition(5, [[0, 2], [1], [3, 4]])
    again = ck.BasisPartition.from_dict(part.to_dict())
    assert again.blocks == part.blocks
