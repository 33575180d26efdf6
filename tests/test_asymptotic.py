import itertools
import math

import numpy as np
import pytest

import cohkit as ck
from cohkit import rand
from cohkit.errors import ResourceLimitError

from conftest import h2, shannon

Q91 = ck.PureState(np.sqrt([0.9, 0.1]).astype(complex))


# -- type counting ----------------------------------------------------------------

def test_log2_type_class_size_small_cases():
    assert np.isclose(ck.log2_type_class_size([2, 2]), math.log2(6),
                      atol=1e-12)
    assert np.isclose(ck.log2_type_class_size([5, 0]), 0.0, atol=1e-12)
    assert np.isclose(ck.log2_type_class_size([1, 1, 1]), math.log2(6),
                      atol=1e-12)


def test_type_measurement_outcome_invariants(rng):
    probs = np.array([0.5, 0.3, 0.2])
    n = 200
    for t in range(20):
        out = ck.type_measurement(probs, n, rng)
        assert out.type_counts.sum() == n
        assert 0.0 <= out.probability <= 1.0
        emp = out.type_counts / n
        h_emp = shannon(emp)
        rate = out.achieved_rate
        assert rate <= h_emp + 1e-12
        assert rate >= h_emp - probs.size * math.log2(n + 1) / n - 1e-12


# -- concentration -----------------------------------------------------------------

def test_concentration_on_unit_states():
    trace = ck.simulate_concentration(ck.maximally_coherent(2), 2000, 20,
                                      seed=3)
    assert trace.target_rate == 1.0
    assert abs(trace.mean_rate - 1.0) <= 0.02
    assert all(f == 1.0 for f in trace.fidelity)


def test_concentration_on_basis_state():
    psi = ck.PureState.basis_state(3, 1)
    trace = ck.simulate_concentration(psi, 500, 10, seed=1)
    assert trace.mean_rate == 0.0
    assert trace.target_rate == 0.0


def test_concentration_mean_tracks_entropy():
    trace = ck.simulate_concentration(Q91, 4000, 60, seed=11)
    assert abs(trace.mean_rate - h2(0.9)) <= 0.01
    assert np.isclose(trace.mean_rate, float(np.mean(trace.rates)),
                      atol=1e-12)
    assert len(trace.rates) == trace.trials


def test_concentration_rate_nondecreasing_in_n():
    means = [ck.simulate_concentration(Q91, n, 80, seed=5).mean_rate
             for n in (100, 400, 1600, 6400)]
    for a, b in zip(means, means[1:]):
        assert b >= a - 0.01


def test_concentration_error_bound():
    # |mean - C(psi)| <= d log2(n+1)/n + 3 sigma / sqrt(trials)
    for n in (200, 2000):
        trace = ck.simulate_concentration(Q91, n, 100, seed=13)
        sigma = float(np.std(trace.rates))
        budget = 2 * math.log2(n + 1) / n + 3 * sigma / math.sqrt(100)
        assert abs(trace.mean_rate - h2(0.9)) <= budget


def test_concentration_budget():
    with pytest.raises(ResourceLimitError):
        ck.simulate_concentration(ck.maximally_coherent(4), 10 ** 8, 1)


def test_concentration_deterministic_per_seed():
    a = ck.simulate_concentration(Q91, 1000, 10, seed=9)
    b = ck.simulate_concentration(Q91, 1000, 10, seed=9)
    assert a.rates == b.rates


@pytest.mark.parametrize("amps, n, trials", [
    ([0.9, 0.1], 1000, 10),
    ([0.5, 0.3, 0.2], 777, 7),
    ([0.4, 0.0, 0.3, 0.3], 50, 3),
])
def test_concentration_trials_are_type_measurements(amps, n, trials):
    # Trial t is the type measurement drawn from rng_for(seed, t), bit for bit.
    psi = ck.PureState(np.sqrt(amps).astype(complex))
    trace = ck.simulate_concentration(psi, n, trials, seed=4)
    expected = [ck.type_measurement(psi.probabilities(), n,
                                    rand.rng_for(4, t)).achieved_rate
                for t in range(trials)]
    assert trace.rates == expected
    assert all(type(r) is float for r in trace.rates)


# -- typical sets -------------------------------------------------------------------

def brute_typical_probability(probs, n, delta):
    """Oracle: enumerate every length-n sequence."""
    probs = np.asarray(probs, dtype=float)
    keep = probs > 1e-12
    probs = probs[keep] / probs[keep].sum()
    h = shannon(probs)
    total = 0.0
    for seq in itertools.product(range(probs.size), repeat=n):
        p = float(np.prod(probs[list(seq)]))
        if abs(-math.log2(p) / n - h) <= delta + 1e-12:
            total += p
    return total


@pytest.mark.parametrize("probs,n,delta", [
    ([0.9, 0.1], 8, 0.3),
    ([0.9, 0.1], 8, 0.05),
    ([0.5, 0.5], 6, 0.0),
    ([0.6, 0.3, 0.1], 6, 0.25),
    ([0.4, 0.3, 0.2, 0.1], 5, 0.3),
    ([0.3, 0.25, 0.2, 0.15, 0.1], 5, 0.2),
    # windows reaching the edge of the box: the all-likeliest type (counts
    # n and 0), and every type (mass 1)
    ([0.9, 0.1], 8, 0.35),
    ([0.5, 0.3, 0.2], 6, 3.0),
])
def test_typical_set_probability_against_enumeration(probs, n, delta):
    exact = ck.typical_set_probability(probs, n, delta)
    brute = brute_typical_probability(probs, n, delta)
    assert np.isclose(exact, brute, atol=1e-12)


@pytest.mark.parametrize("m,n", [(1, 1), (1, 5), (2, 1), (2, 6), (3, 4),
                                 (4, 3)])
def test_sequences_are_product_rows(m, n):
    from cohkit.asymptotic import _sequences
    seqs = _sequences(m, n)
    assert seqs.shape == (m ** n, n)
    assert seqs.tolist() == [list(t) for t in
                             itertools.product(range(m), repeat=n)]


def test_typical_probability_budget():
    with pytest.raises(ResourceLimitError):
        ck.typical_set_probability([0.25] * 4, 10 ** 4, 0.01)


# -- dilution ------------------------------------------------------------------------

def test_dilution_of_unit_state_is_exact():
    trace = ck.simulate_dilution(ck.maximally_coherent(2), 100, 0.0)
    assert np.isclose(trace.fidelity[0], 1.0, atol=1e-12)
    assert np.isclose(trace.rates[0], 1.0, atol=1e-12)


def test_dilution_of_basis_state_costs_only_delta():
    trace = ck.simulate_dilution(ck.PureState.basis_state(2, 0), 100, 0.05)
    assert trace.fidelity[0] == 1.0
    assert np.isclose(trace.rates[0], 0.05, atol=1e-12)


def test_dilution_fidelity_monotone_in_n():
    fids = [ck.simulate_dilution(Q91, n, 0.05).fidelity[0]
            for n in (250, 1000, 4000, 16000)]
    for a, b in zip(fids, fids[1:]):
        assert b >= a - 1e-12
    assert fids[-1] >= 0.999


def test_dilution_meets_chernoff_prediction():
    eps = 0.02
    n = ck.dilution_blocklength(Q91.probabilities(), 0.05, eps)
    trace = ck.simulate_dilution(Q91, n, 0.05)
    assert trace.fidelity[0] >= 1.0 - eps
    assert np.isclose(trace.rates[0], h2(0.9) + 0.05, atol=1e-12)


def test_concentration_dilution_bracket():
    # Theorem-level reversibility: concentration rate <= C(psi) <= dilution
    # consumed rate, with the gap controlled by delta.
    delta = 0.02
    n = 20000
    conc = ck.simulate_concentration(Q91, n, 50, seed=2)
    dil = ck.simulate_dilution(Q91, n, delta)
    c = h2(0.9)
    assert conc.mean_rate <= c + 1e-6
    assert dil.rates[0] >= c
    assert dil.rates[0] - conc.mean_rate <= 2 * delta + 0.01


# -- formation --------------------------------------------------------------------------

def test_formation_rate_for_diagonal_state(rng):
    rho = ck.DensityMatrix.from_diagonal([0.3, 0.7])
    trace = ck.simulate_formation(rho, 2000, 0.01, 0.01, seed=4, trials=10,
                                  restarts=6)
    # all ensemble members incoherent: only the delta slack remains
    assert trace.target_rate <= 1e-9
    assert trace.mean_rate <= 0.02 * 1.2
    assert all(f == 1.0 for f in trace.fidelity)


def test_formation_of_pure_state_reduces_to_dilution():
    psi = ck.PureState(np.sqrt([0.8, 0.2]).astype(complex))
    trace = ck.simulate_formation(psi.to_density(), 3000, 0.01, 0.01,
                                  seed=6, trials=10, restarts=6)
    expected = (1.0 + 0.01) * (h2(0.8) + 0.01)
    assert abs(trace.mean_rate - expected) <= 5e-3
    assert trace.target_rate == pytest.approx(h2(0.8), abs=1e-6)


def test_formation_accounting_matches_cost(rng):
    rho = ck.DensityMatrix([[0.5, 0.3], [0.3, 0.5]])
    delta1 = delta2 = 0.01
    roof = ck.coherence_of_formation(rho, restarts=8, seed=8)
    trace = ck.simulate_formation(rho, 10 ** 4, delta1, delta2, seed=8,
                                  trials=40, ensemble=roof.ensemble)
    assert abs(trace.mean_rate - h2(0.9)) <= 0.05
    assert np.isclose(trace.mean_rate, float(np.mean(trace.rates)),
                      atol=1e-12)
    # delta-controlled accounting: |rate - C_f| within the slack budget
    coh_sum = sum(ck.entropy_of_coherence(m) for m in roof.ensemble.members)
    m = roof.ensemble.size
    sigma = float(np.std(trace.rates))
    budget = (delta1 * coh_sum + delta2 * (1 + m * delta1)
              + 3 * sigma / math.sqrt(trace.trials))
    assert abs(trace.mean_rate - roof.value) <= budget


def test_formation_reconstruction_beats_floor():
    rho = ck.DensityMatrix([[0.5, 0.3], [0.3, 0.5]])
    trace = ck.simulate_formation(rho, 8, 0.2, 0.5, seed=3, trials=5,
                                  restarts=8, reconstruct=True)
    assert trace.reconstruction_fidelity is not None
    assert trace.fidelity_floor is not None
    assert trace.reconstruction_fidelity >= trace.fidelity_floor - 1e-9
    assert trace.reconstruction_fidelity <= 1.0 + 1e-12


def _reference_reconstruction(rho, ens, n, delta1, delta2):
    """The formation output assembled group by group: for each
    frequency-typical member sequence, the kron product of each member
    group's typical truncation, its copies permuted into position order.
    Returns (F with rho^(n), floor) as the protocol reports them."""
    d, w = rho.dim, np.asarray(ens.weights, dtype=float)
    m = w.size
    lo = np.maximum(0, np.ceil(n * (w - delta1) - 1e-9).astype(int))
    hi = np.minimum(n, np.floor(n * (w + delta1) + 1e-9).astype(int))

    def truncation(psi, copies):
        p = psi.probabilities()
        with np.errstate(divide="ignore"):
            v = np.where(p > 1e-300, -np.log2(np.maximum(p, 1e-300)), 0.0)
        exact, surprisal = np.ones(1, dtype=complex), np.zeros(1)
        for _ in range(copies):
            exact = np.kron(exact, psi.amplitudes)
            surprisal = np.add.outer(surprisal, v).ravel()
        keep = np.abs(surprisal / copies - ck.shannon_entropy(p)) \
            <= delta2 + 1e-12
        vec = np.where(keep, exact, 0.0)
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            raise ResourceLimitError("typical set empty")
        vec /= norm
        return vec, abs(np.vdot(vec, exact))

    out = np.zeros((d ** n, d ** n), dtype=complex)
    total, group_fid = 0.0, 1.0
    for seq in itertools.product(range(m), repeat=n):
        seq = np.array(seq)
        counts = np.bincount(seq, minlength=m)
        if np.any(counts < lo) or np.any(counts > hi):
            continue
        vec = np.ones(1, dtype=complex)
        for j in np.flatnonzero(counts):
            trunc, gf = truncation(ens.members[j], int(counts[j]))
            vec = np.kron(vec, trunc)
            group_fid = min(group_fid, gf)
        # Axis k of the group-ordered vector is position order[k].
        order = np.argsort(seq, kind="stable")
        vec = vec.reshape((d,) * n).transpose(np.argsort(order)).ravel()
        p_seq = float(np.prod(w ** counts))
        total += p_seq
        out += p_seq * np.outer(vec, vec.conj())
    exact = rho.matrix
    for _ in range(n - 1):
        exact = np.kron(exact, rho.matrix)
    f = ck.fidelity(ck.DensityMatrix(exact), ck.DensityMatrix(out / total))
    return f, total * group_fid ** m


def _random_ensemble(d, m, seed, zero_amplitude):
    rng = np.random.default_rng(seed)
    members = []
    for j in range(m):
        a = rng.normal(size=d) + 1j * rng.normal(size=d)
        if zero_amplitude and j == 0:
            a[0] = 0.0
        members.append(ck.PureState.normalized(a))
    return ck.Ensemble(rng.dirichlet(np.ones(m)), members)


@pytest.mark.parametrize("d,m,n,zero_amplitude", [
    (2, 2, 7, False), (2, 3, 6, False), (2, 2, 5, True), (2, 3, 3, True),
    (3, 2, 5, False), (3, 3, 4, False), (3, 2, 4, True), (3, 3, 3, True),
])
def test_formation_reconstruction_matches_group_order_reference(
        d, m, n, zero_amplitude):
    ens = _random_ensemble(d, m, [d, m, n], zero_amplitude)
    rho = ens.reconstruct()
    trace = ck.simulate_formation(rho, n, 0.25, 1.0, seed=1, ensemble=ens,
                                  trials=1, reconstruct=True)
    f, floor = _reference_reconstruction(rho, ens, n, 0.25, 1.0)
    assert abs(trace.reconstruction_fidelity - f) <= 1e-12
    assert abs(trace.fidelity_floor - floor) <= 1e-12
    assert trace.reconstruction_fidelity >= trace.fidelity_floor - 1e-9


def test_formation_reconstruction_empty_typical_set_matches_reference():
    # Neither member has a typical sequence of 1..4 copies at delta2 = 0.01.
    ens = ck.Ensemble(np.array([0.5, 0.5]),
                      [ck.PureState(np.sqrt([0.7, 0.3]).astype(complex)),
                       ck.PureState(np.sqrt([0.4, 0.6]).astype(complex))])
    rho = ens.reconstruct()
    with pytest.raises(ResourceLimitError, match="typical set empty"):
        _reference_reconstruction(rho, ens, 4, 0.5, 0.01)
    with pytest.raises(ResourceLimitError, match="typical set empty"):
        ck.simulate_formation(rho, 4, 0.5, 0.01, ensemble=ens, trials=1,
                              reconstruct=True)


def test_formation_reconstruction_in_2187_dimensions_beats_floor():
    # d = 3, n = 7: the output state is held through its factor only.
    ens = _random_ensemble(3, 2, [3, 2, 7], False)
    trace = ck.simulate_formation(ens.reconstruct(), 7, 0.25, 1.5, seed=1,
                                  ensemble=ens, trials=1, reconstruct=True)
    assert trace.fidelity_floor - 1e-9 <= trace.reconstruction_fidelity \
        <= 1.0 + 1e-12


def test_formation_reconstruction_budget():
    # delta1 = 0.5 keeps all 2^12 member sequences: 4096 * (4096 + 12)
    # entries of V and the letter grid, just past the budget.
    ens = _random_ensemble(2, 2, [2, 2, 12], False)
    with pytest.raises(ResourceLimitError, match="exceeds"):
        ck.simulate_formation(ens.reconstruct(), 12, 0.5, 1.0, ensemble=ens,
                              trials=1, reconstruct=True)


@pytest.mark.parametrize("w,n,delta", [
    ([0.6, 0.4], 12, 0.15),
    ([0.9, 0.1], 10, 0.2),         # windows clipped at n and at 0
    ([0.5, 0.3, 0.2], 10, 0.1),
    ([0.7, 0.2, 0.1], 9, 0.15),    # third window clipped at 0
])
def test_frequency_typical_probability_matches_enumeration(w, n, delta):
    w = np.asarray(w)
    exact = ck.frequency_typical_probability(w, n, delta)
    brute = 0.0
    for counts in itertools.product(range(n + 1), repeat=w.size):
        counts = np.array(counts)
        if counts.sum() == n and np.all(np.abs(counts / n - w)
                                        <= delta + 1e-9):
            coeff = math.factorial(n) / np.prod(
                [math.factorial(int(c)) for c in counts])
            brute += coeff * float(np.prod(w ** counts))
    assert np.isclose(exact, brute, atol=1e-12)


def test_frequency_typical_box_budget():
    with pytest.raises(ResourceLimitError):
        ck.frequency_typical_probability([0.25] * 4, 10 ** 4, 0.4)


# -- covering ------------------------------------------------------------------------------

def cover_ensemble():
    return ck.Ensemble(np.array([0.5, 0.5]),
                       [ck.PureState([1.0, 0.0]),
                        ck.PureState(np.sqrt([0.5, 0.5]).astype(complex))])


def test_covering_identical_members_has_zero_deviation():
    ens = ck.Ensemble(np.array([0.5, 0.5]),
                      [ck.PureState([1.0, 0.0]), ck.PureState([1.0, 0.0])])
    rep = ck.covering_check(ens, 8, 8, trials=1, seed=0)
    assert max(rep.deviations) <= 1e-9


def test_covering_full_class_single_subset():
    ens = cover_ensemble()
    counts = np.array([4, 4])
    class_size = math.comb(8, 4)
    rep = ck.covering_check(ens, 8, class_size, trials=1, seed=0)
    assert rep.M == 1
    assert max(rep.deviations) <= 1e-9


def test_covering_fraction_good_monotone_in_eps():
    rep = ck.covering_check(cover_ensemble(), 10, 8, trials=2, seed=1,
                            max_subsets_per_trial=6)
    values = [rep.fraction_good[e] for e in (0.05, 0.1, 0.2, 0.4)]
    for a, b in zip(values, values[1:]):
        assert b >= a


def test_covering_deviations_shrink_with_subset_size():
    medians = []
    for s in (8, 32):
        rep = ck.covering_check(cover_ensemble(), 10, s, trials=2, seed=7,
                                max_subsets_per_trial=8)
        medians.append(float(np.median(rep.deviations)))
    assert medians[1] < medians[0]


def _explicit_deviations(ensemble, n, S, trials, seed):
    """Covering deviations from the d^n-dimensional product states of the
    type class, subsets drawn with the same permutations as covering_check
    (class in lexicographic order)."""
    m = len(ensemble.members)
    counts = [n // m] * m  # equal weights: the apportioned type
    seqs = [s for s in itertools.product(range(m), repeat=n)
            if [s.count(a) for a in range(m)] == counts]
    vecs = []
    for s in seqs:
        v = np.ones(1, dtype=complex)
        for a in s:
            v = np.kron(v, ensemble.members[a].amplitudes)
        vecs.append(v)
    vecs = np.array(vecs)
    class_avg = vecs.T @ vecs.conj() / len(seqs)
    out = []
    for t in range(trials):
        perm = rand.rng_for(seed, t).permutation(len(seqs))
        for k in range(len(seqs) // S):
            sub = vecs[perm[k * S:(k + 1) * S]]
            diff = sub.T @ sub.conj() / S - class_avg
            out.append(float(np.sum(np.abs(np.linalg.eigvalsh(diff)))))
    return out


R2 = 2 ** -0.5
PHASE = np.exp(0.7j)


@pytest.mark.parametrize("amplitudes,n,S,singular", [
    pytest.param([[1, 0], [R2, R2]], n, S, False, id=f"real-0-plus-n{n}-S{S}")
    # n = 8: a class of 70 sequences, which S = 3 does not divide.
    for n, S in [(2, 1), (4, 2), (6, 5), (8, 3)]] + [
    pytest.param([[R2, R2], [R2, 1j * R2]], n, S, False,
                 id=f"complex-plus-plusi-n{n}-S{S}")
    for n, S in [(2, 1), (4, 2), (6, 5)]] + [
    # Three members: the phase of <0|+><+|+i><+i|0> cannot be removed by
    # member phases, so this span is not a real one in disguise.  Its 90
    # sequences lie in 64 dimensions.
    pytest.param([[1, 0], [R2, R2], [R2, 1j * R2]], 6, 4, True,
                 id="complex-0-plus-plusi-n6-S4"),
    # Members equal up to a global phase: complex overlaps, a span of one
    # vector.
    pytest.param([[0.6, 0.8j], [0.6 * PHASE, 0.8j * PHASE]], 8, 3, True,
                 id="phase-only-n8-S3"),
])
def test_covering_matches_explicit_product_states(amplitudes, n, S, singular,
                                                  monkeypatch):
    m = len(amplitudes)
    ens = ck.Ensemble(np.full(m, 1.0 / m),
                      [ck.PureState(np.array(a, dtype=complex))
                       for a in amplitudes])
    eigh, solves = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a: solves.append(a.shape) or eigh(a))
    rep = ck.covering_check(ens, n, S, trials=2, seed=3)
    monkeypatch.undo()
    # A singular Gram matrix has no Cholesky factor; only then is it
    # diagonalized.
    assert bool(solves) == singular
    explicit = _explicit_deviations(ens, n, S, trials=2, seed=3)
    assert len(rep.deviations) == len(explicit)
    assert np.allclose(rep.deviations, explicit, rtol=0.0, atol=1e-10)


def test_covering_budget():
    with pytest.raises(ResourceLimitError):
        ck.covering_check(cover_ensemble(), 40, 8, trials=1, seed=0)


# -- converse bound ---------------------------------------------------------------------------

def test_converse_bound_formula():
    assert np.isclose(ck.converse_fidelity_bound(10, 1.0, 1.2), 0.5,
                      atol=1e-12)
    with pytest.raises(ValueError):
        ck.converse_fidelity_bound(10, 1.2, 1.0)
    # Rtilde -> R from above: the bound goes to 1.
    assert ck.converse_fidelity_bound(10, 1.0, 1.0 + 1e-9) >= 1.0 - 1e-6


def test_converse_bound_direct_overlap():
    # A uniform superposition limited to 2^10 of 2^12 indices has fidelity
    # exactly sqrt(2^10 / 2^12) = 1/2 with the full maximally coherent state.
    overlap = math.sqrt(2 ** 10 / 2 ** 12)
    assert np.isclose(overlap, 0.5, atol=1e-15)
    # Small-scale direct computation of the same geometry.
    small = ck.PureState(np.concatenate([np.full(4, 0.5), np.zeros(12)])
                         .astype(complex))
    phi16 = ck.maximally_coherent(16)
    fid = abs(np.vdot(small.amplitudes, phi16.amplitudes))
    assert np.isclose(fid, math.sqrt(4 / 16), atol=1e-12)
    # And the rank-limited fidelity never beats the bound at equal rates.
    assert fid <= ck.converse_fidelity_bound(2, math.log2(4) / 2,
                                             math.log2(16) / 2) + 1e-12


def test_distillable_rate_is_cr(rng):
    rho = rand.random_density_matrix(3, rng)
    assert ck.distillable_rate(rho) == ck.relative_entropy_of_coherence(rho)
