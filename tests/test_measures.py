import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cohkit as ck
from cohkit import rand
from cohkit.errors import InvariantViolationError, UndefinedRateError

from conftest import h2

QUBIT = ck.DensityMatrix([[0.5, 0.3], [0.3, 0.5]])


# -- entropy of coherence --------------------------------------------------------

def test_unit_coherence():
    assert np.isclose(ck.entropy_of_coherence(ck.maximally_coherent(2)), 1.0,
                      atol=1e-12)


def test_maximally_coherent_states():
    for d in range(2, 17):
        val = ck.entropy_of_coherence(ck.maximally_coherent(d))
        assert np.isclose(val, math.log2(d), atol=1e-12)


def test_entropy_of_coherence_binary():
    psi = ck.PureState(np.sqrt([0.9, 0.1]).astype(complex))
    assert np.isclose(ck.entropy_of_coherence(psi), h2(0.9), atol=1e-12)


# -- relative entropy of coherence ------------------------------------------------

def test_cr_of_maximally_coherent():
    for d in (2, 3, 7, 16):
        rho = ck.maximally_coherent(d).to_density()
        assert np.isclose(ck.relative_entropy_of_coherence(rho),
                          math.log2(d), atol=1e-12)


def test_cr_of_diagonal_is_zero(rng):
    rho = ck.DensityMatrix.from_diagonal(
        rand.random_probability_vector(5, rng))
    assert ck.relative_entropy_of_coherence(rho) <= 1e-12


def test_cr_qubit_example():
    # eigenvalues {0.8, 0.2}, diagonal {0.5, 0.5}: C_r = 1 - h(0.8)
    expected = 1.0 - h2(0.8)
    assert np.isclose(expected, 0.2780719051126377, atol=1e-15)
    assert np.isclose(ck.relative_entropy_of_coherence(QUBIT), expected,
                      atol=1e-12)


def test_cr_faithful(rng):
    for _ in range(50):
        d = int(rng.integers(2, 7))
        rho = rand.random_density_matrix(d, rng)
        cr = ck.relative_entropy_of_coherence(rho)
        if rho.max_offdiagonal() > 1e-6:
            assert cr > 1e-12
    diag = ck.DensityMatrix.from_diagonal([0.1, 0.2, 0.7])
    assert ck.relative_entropy_of_coherence(diag) <= 1e-12


# -- variational cross-check -------------------------------------------------------

def test_variational_on_diagonal(rng):
    p = rand.random_probability_vector(4, rng)
    rho = ck.DensityMatrix.from_diagonal(p)
    value, minimizer = ck.relative_entropy_of_coherence_variational(
        rho, return_minimizer=True)
    assert value <= 1e-8
    assert np.allclose(minimizer, p, atol=1e-5)


def test_variational_on_phi2():
    value, minimizer = ck.relative_entropy_of_coherence_variational(
        ck.maximally_coherent(2).to_density(), return_minimizer=True)
    assert np.isclose(value, 1.0, atol=1e-8)
    assert np.allclose(minimizer, [0.5, 0.5], atol=1e-5)


def test_variational_matches_closed_form(rng):
    for _ in range(30):
        d = int(rng.integers(2, 7))
        rho = rand.random_density_matrix(d, rng)
        var = ck.relative_entropy_of_coherence_variational(rho)
        assert abs(var - ck.relative_entropy_of_coherence(rho)) <= 1e-6


def test_variational_on_skewed_diagonal():
    p = np.array([0.01, 0.99])
    value, minimizer = ck.relative_entropy_of_coherence_variational(
        ck.DensityMatrix.from_diagonal(p), return_minimizer=True)
    assert value <= 1e-12
    assert np.allclose(minimizer, p, rtol=0.0, atol=1e-9)


def test_variational_on_skewed_pure_state():
    a = np.sqrt([0.01, 0.99])
    rho = ck.DensityMatrix(np.outer(a, a))
    assert abs(ck.relative_entropy_of_coherence_variational(rho)
               - ck.relative_entropy_of_coherence(rho)) <= 1e-9


def test_variational_on_sparse_diagonals():
    # Dirichlet(0.1) diagonals put most of their weight on a few entries and
    # leave others far below 1e-12; each is tried diagonal and as a rank-1
    # lift with random phases.
    for k in range(200):
        rng = np.random.default_rng([7, k])
        d = int(rng.integers(2, 9))
        p = rng.dirichlet(np.full(d, 0.1))
        psi = np.sqrt(p) * np.exp(2j * np.pi * rng.random(d))
        for rho in (ck.DensityMatrix.from_diagonal(p),
                    ck.DensityMatrix(np.outer(psi, psi.conj()))):
            gap = abs(ck.relative_entropy_of_coherence_variational(rho)
                      - ck.relative_entropy_of_coherence(rho))
            assert gap <= 1e-9, (k, gap)


# -- coherence of formation --------------------------------------------------------

def test_cf_of_pure_state(rng):
    psi = rand.random_pure_state(4, rng)
    res = ck.coherence_of_formation(psi.to_density(), restarts=6, seed=0)
    assert abs(res.value - ck.entropy_of_coherence(psi)) <= 1e-9
    assert res.ensemble.size == 1


def test_cf_of_diagonal(rng):
    rho = ck.DensityMatrix.from_diagonal(
        rand.random_probability_vector(4, rng))
    res = ck.coherence_of_formation(rho, restarts=6, seed=0)
    assert res.value <= 1e-9
    for member in res.ensemble.members:
        assert np.sum(member.probabilities() > 1e-9) == 1


def brute_force_qubit_roof(rho, samples=100_000, max_size=4, seed=5):
    """Dense random-search oracle over ensembles of size <= max_size."""
    factor = rho.factor()
    r = factor.shape[1]
    gen = np.random.default_rng(seed)
    best = math.inf
    batch = 10_000
    for size in range(r, max_size + 1):
        done = 0
        while done < samples // (max_size - r + 1):
            g = (gen.standard_normal((batch, size, r))
                 + 1j * gen.standard_normal((batch, size, r)))
            q, _ = np.linalg.qr(g)
            w = np.einsum("dk,bmk->bdm", factor, q)      # members as columns
            p_xi = np.real(w * w.conj())
            p_i = p_xi.sum(axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                t1 = np.where(p_xi > 1e-300, p_xi * np.log2(p_xi), 0.0)
                t2 = np.where(p_i > 1e-300, p_i * np.log2(p_i), 0.0)
            vals = -t1.sum(axis=(1, 2)) + t2.sum(axis=1)
            best = min(best, float(vals.min()))
            done += batch
    return best


def test_cf_qubit_example_against_both_oracles():
    # Closed form: h((1 + sqrt(1 - 4 |rho_01|^2)) / 2) = h(0.9) here.
    closed = ck.coherence_of_formation_qubit(QUBIT)
    assert np.isclose(closed, h2(0.9), atol=1e-12)
    # The dense search brackets the roof from above and agrees to sampling
    # resolution; it never undercuts the closed form.
    search = brute_force_qubit_roof(QUBIT)
    assert search >= closed - 1e-9
    assert search - closed <= 1e-2
    res = ck.coherence_of_formation(QUBIT, restarts=12, seed=0)
    assert abs(res.value - closed) <= 5e-3


def test_cf_result_invariants(rng):
    for _ in range(5):
        d = int(rng.integers(2, 5))
        rho = rand.random_density_matrix(d, rng)
        res = ck.coherence_of_formation(rho, restarts=10, seed=1)
        # value matches the reported ensemble's average coherence
        assert abs(res.value - res.ensemble.average_coherence()) <= 1e-9
        # never below the distillable coherence
        assert res.value >= ck.relative_entropy_of_coherence(rho) - 1e-7
        # the ensemble reconstructs the state
        assert np.max(np.abs(res.ensemble.reconstruct().matrix
                             - rho.matrix)) <= 1e-9
        assert res.ensemble.size <= d * d


def test_cf_converged_flag_and_determinism():
    a = ck.coherence_of_formation(QUBIT, restarts=8, seed=42)
    b = ck.coherence_of_formation(QUBIT, restarts=8, seed=42)
    assert a.converged
    assert a.value == b.value
    for ma, mb in zip(a.ensemble.members, b.ensemble.members):
        assert np.array_equal(ma.amplitudes, mb.amplitudes)


def test_cf_single_restart_leaves_eigen_ensemble():
    # The eigen-ensemble of QUBIT is a stationary point at value 1.0; a lone
    # random restart must still find the closed form h(0.9) = 0.469.
    res = ck.coherence_of_formation(QUBIT, restarts=1, seed=0)
    assert res.restarts == 1
    assert abs(res.value - ck.coherence_of_formation_qubit(QUBIT)) <= 5e-3


@pytest.mark.parametrize("restarts", [0, -1])
def test_cf_rejects_restarts_below_one(restarts):
    with pytest.raises(ValueError):
        ck.coherence_of_formation(QUBIT, restarts=restarts)


def test_cf_certified_on_reversible_states(rng):
    # C_f = C_r exactly on pure and block-pure states, so the first restart
    # certifies the optimum and the others are skipped.
    states = [rand.random_pure_state(int(rng.integers(2, 7)), rng).to_density()
              for _ in range(3)]
    states += [rand.random_block_state(int(rng.integers(3, 7)), rng)[0]
               for _ in range(5)]
    for rho in states:
        res = ck.coherence_of_formation(rho, restarts=8, seed=0)
        cr = ck.relative_entropy_of_coherence(rho)
        assert res.certified and res.converged
        assert res.restarts == 1
        assert res.lower_bound == cr
        assert cr - 1e-9 <= res.value <= cr + 1e-9
        assert res.to_dict()["certified"] is True
        assert res.to_dict()["lower_bound"] == cr


def test_cf_value_never_below_lower_bound():
    # On certified states the roof's average can round below C_r; the
    # reported value is clipped there, so the bracket is never inverted.
    for s in range(200):
        rng = rand.rng_for(99, s)
        d = int(rng.integers(3, 7))
        rho = (rand.random_pure_state(d, rng).to_density() if s % 2
               else rand.random_block_state(d, rng)[0])
        res = ck.coherence_of_formation(rho, restarts=4, seed=s)
        assert res.value >= res.lower_bound


@pytest.mark.parametrize("dip, clipped", [(1e-14, True), (1e-6, False)])
def test_cf_clips_only_a_rounding_dip(monkeypatch, dip, clipped):
    # A dip below C_r within CERTIFY_TOL is rounding and reads as C_r; a
    # larger one is a fault and must stay visible in ``value``.
    rho = ck.PureState([0.6, 0.8]).to_density()
    cr = ck.relative_entropy_of_coherence(rho)
    monkeypatch.setattr(ck.Ensemble, "average_coherence",
                        lambda ens: cr - dip)
    res = ck.coherence_of_formation(rho, restarts=1, seed=0)
    assert res.lower_bound == cr
    assert res.value == (cr if clipped else cr - dip)


def test_cf_generic_state_is_bracketed(rng):
    rho = rand.random_density_matrix(4, rng)
    res = ck.coherence_of_formation(rho, restarts=5, seed=2)
    assert not res.certified
    assert res.restarts == 5
    # The closed-form bound beats C_r here, so it is the lower side.
    assert res.lower_bound == ck.cf_lower_bound(rho)
    assert res.lower_bound > ck.relative_entropy_of_coherence(rho) + 1e-12
    assert res.lower_by == "l1_bound"
    assert res.value > res.lower_bound + 1e-6


def test_cf_lower_bound_between_cr_and_roof():
    # C_r <= max(C_r, B) <= C_f on 504 states, d = 2..8, full rank and rank
    # 2; a single restart's value is already an upper bound on C_f.
    for d in range(2, 9):
        for rank in (d, 2):
            for s in range(36):
                rng = rand.rng_for(2201, d, rank, s)
                rho = rand.random_density_matrix(d, rng, rank=rank)
                res = ck.coherence_of_formation(rho, restarts=1, seed=s)
                cr = ck.relative_entropy_of_coherence(rho)
                bound = ck.cf_lower_bound(rho)
                assert bound >= 0.0
                assert cr <= res.lower_bound <= res.value + 1e-9
                assert res.lower_bound >= bound - 1e-12


def test_cf_lower_bound_is_qubit_concurrence_formula():
    # At d = 2 the bound is the entanglement of formation of the maximally
    # correlated state through its concurrence 2|rho_01|.
    for s in range(200):
        rho = rand.random_density_matrix(2, rand.rng_for(2202, s))
        c = 2.0 * abs(rho.matrix[0, 1])
        closed = h2(0.5 * (1.0 + math.sqrt(1.0 - c * c)))
        assert abs(ck.cf_lower_bound(rho) - closed) <= 1e-14
        assert ck.coherence_of_formation_qubit(rho) == ck.cf_lower_bound(rho)


def test_cf_lower_bound_on_incoherent_and_maximally_coherent():
    assert ck.cf_lower_bound(ck.DensityMatrix.from_diagonal([0.2, 0.3, 0.5])) \
        == 0.0
    for d in (2, 3, 5, 8):
        rho = ck.maximally_coherent(d).to_density()
        assert abs(ck.cf_lower_bound(rho) - math.log2(d)) <= 1e-12


def test_cf_qubits_certify_at_the_closed_form():
    first = 0
    for s in range(100):
        rho = rand.random_density_matrix(2, rand.rng_for(2203, s))
        res = ck.coherence_of_formation(rho, restarts=32, seed=s)
        assert res.certified and res.converged
        assert res.lower_by == "l1_bound"
        assert res.restarts <= 4
        assert abs(res.value - ck.coherence_of_formation_qubit(rho)) <= 1e-12
        first += res.restarts == 1
    assert first >= 95


@pytest.mark.parametrize("d", range(3, 9))
def test_cf_isotropic_states_certify_at_the_bound(d):
    # The bound is exact on p Phi_d + (1 - p) I / d, so the roof reaches it.
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        rho = ck.DensityMatrix(p * np.full((d, d), 1.0 / d)
                               + (1.0 - p) * np.eye(d) / d)
        res = ck.coherence_of_formation(rho, restarts=3, seed=0)
        assert res.certified and res.lower_by == "l1_bound"
        assert abs(res.value - ck.cf_lower_bound(rho)) <= 1e-9


def test_cf_certifies_with_weights_below_eigenvalue_floor():
    # Diagonal weights of 1e-13 are real coherence (8.9e-12 bits here): C_r
    # counts them, so the roof, which always did, certifies at once.
    p = np.array([1.0 - 2e-13, 1e-13, 1e-13])
    rho = ck.PureState(np.sqrt(p).astype(complex)).to_density()
    cr = ck.relative_entropy_of_coherence(rho)
    assert abs(cr - float(-np.sum(p * np.log2(p)))) <= 1e-15
    res = ck.coherence_of_formation(rho, restarts=8, seed=0)
    assert res.certified and res.restarts == 1
    assert res.lower_by == "cr" and res.lower_bound == cr


def test_cr_closed_form_keeps_sub_floor_diagonal_weight():
    # Two diagonal entries (9.7e-13, 2.8e-13) of this pure state lie below
    # the eigenvalue floor; dropping them put the closed form 5e-11 bits
    # below the variational oracle.
    rng = np.random.default_rng([7, 69])
    d = int(rng.integers(2, 9))
    p = rng.dirichlet(np.full(d, 0.1))
    psi = np.sqrt(p) * np.exp(2j * np.pi * rng.random(d))
    rho = ck.DensityMatrix(np.outer(psi, psi.conj()))
    assert np.sum((p > 0) & (p < 1e-12)) == 2
    assert abs(ck.relative_entropy_of_coherence_variational(rho)
               - ck.relative_entropy_of_coherence(rho)) <= 1e-12


def test_cf_ensemble_capped_at_rank_squared(rng):
    rho = rand.random_density_matrix(6, rng, rank=2)
    a = ck.coherence_of_formation(rho, restarts=6, seed=4)
    b = ck.coherence_of_formation(rho, restarts=6, seed=4)
    assert a.ensemble.size <= 4
    assert a.value == b.value
    assert a.ensemble.size == b.ensemble.size
    for ma, mb in zip(a.ensemble.members, b.ensemble.members):
        assert np.array_equal(ma.amplitudes, mb.amplitudes)


@pytest.mark.parametrize("d", range(2, 7))
def test_roof_gradient_matches_finite_differences(d):
    # d/dt f(polar(U + tV)) at t = 0 is 2 Re<G, V> for a tangent V, with G
    # the Wirtinger gradient d f / d conj(U).
    from cohkit.measures import _polar, _roof_value_grad, _tangent
    gen = np.random.default_rng(100 + d)
    for rank in sorted({1, max(1, d // 2), d}):
        factor = rand.random_density_matrix(d, gen, rank).factor()
        r = factor.shape[1]
        for m in sorted({r, 2 * r, r * r}):
            u = rand.random_isometry(m, r, gen)
            _, grad = _roof_value_grad(u, factor)
            for _ in range(3):
                v = _tangent(u, gen.standard_normal((m, r))
                             + 1j * gen.standard_normal((m, r)))
                v /= np.linalg.norm(v)
                h = 1e-5
                plus = _roof_value_grad(_polar(u + h * v), factor)[0]
                minus = _roof_value_grad(_polar(u - h * v), factor)[0]
                numeric = (plus - minus) / (2 * h)
                analytic = 2.0 * float(np.real(np.vdot(grad, v)))
                assert abs(numeric - analytic) <= 1e-7 * max(1.0, abs(analytic))


def test_roof_preconditioner_is_positive_on_tangent_space():
    # L-BFGS directions stay descent directions only if H0 is symmetric
    # positive definite on the tangent space.
    from cohkit.measures import _spectral_preconditioner, _tangent
    gen = np.random.default_rng(31)
    for d, rank, m in [(2, 2, 4), (4, 4, 16), (6, 2, 4), (5, 3, 6)]:
        factor = rand.random_density_matrix(d, gen, rank).factor()
        precondition = _spectral_preconditioner(factor)
        u = rand.random_isometry(m, rank, gen)
        a, b = (_tangent(u, gen.standard_normal((m, rank))
                         + 1j * gen.standard_normal((m, rank)))
                for _ in range(2))
        pa, pb = precondition(u, a), precondition(u, b)
        assert np.isclose(np.vdot(a, pb).real, np.vdot(pa, b).real,
                          rtol=1e-10)
        assert np.vdot(a, pa).real > 0.0
        assert np.allclose(_tangent(u, pa), pa, atol=1e-10)


def test_two_loop_satisfies_the_secant_equation():
    # Whatever H0 is, the L-BFGS operator maps the newest y to the newest s,
    # and only when the pairs are applied in their stored order.
    from collections import deque
    from cohkit.measures import (LBFGS_MEMORY, _inner, _spectral_preconditioner,
                                 _two_loop)
    gen = np.random.default_rng(71)
    for _ in range(200):
        d = int(gen.integers(2, 7))
        factor = rand.random_density_matrix(
            d, gen, int(gen.integers(1, d + 1))).factor()
        r = factor.shape[1]
        m = int(gen.choice([r, 2 * r, r * r]))
        u = rand.random_isometry(m, r, gen)
        memory = deque(maxlen=LBFGS_MEMORY)
        for _ in range(int(gen.integers(1, 12))):
            # y = B s for a random positive diagonal B, so sy > 0.
            s = gen.standard_normal((m, r)) + 1j * gen.standard_normal((m, r))
            y = gen.uniform(0.1, 10.0, (m, r)) * s
            memory.append((s, y, 1.0 / _inner(s, y)))
        s, y, _ = memory[-1]
        hy = _two_loop(u, y, memory, _spectral_preconditioner(factor))
        assert np.linalg.norm(hy - s) <= 1e-12 * np.linalg.norm(s)


def test_ensemble_validation():
    with pytest.raises(InvariantViolationError):
        ck.Ensemble(np.array([0.5, 0.6]),
                    [ck.PureState([1, 0]), ck.PureState([0, 1])])


# -- continuity bounds ---------------------------------------------------------------

def test_cr_continuity_bound_values():
    assert ck.cr_continuity_bound(2, 0.0) == 0.0
    assert np.isclose(ck.cr_continuity_bound(4, 0.1),
                      0.1 * 2 + 2 * h2(0.05), atol=1e-15)
    assert np.isclose(ck.cr_continuity_bound(4, 0.1), 0.7727939142319125,
                      atol=1e-12)
    assert np.isclose(ck.cr_continuity_bound(2, 1.0), 3.0, atol=1e-12)


def test_cf_continuity_bound_values():
    assert ck.cf_continuity_bound(2, 0.0) == 0.0
    assert np.isclose(ck.cf_continuity_bound(2, 1.0), 3.0, atol=1e-12)
    expected = 0.05 * 3 + 1.05 * h2(0.05 / 1.05)
    assert np.isclose(expected, 0.4400051990303361, atol=1e-12)
    assert np.isclose(ck.cf_continuity_bound(8, 0.05), expected, atol=1e-12)


def test_continuity_bound_domains():
    with pytest.raises(ValueError):
        ck.cr_continuity_bound(1, 0.5)
    with pytest.raises(ValueError):
        ck.cr_continuity_bound(2, 1.5)
    with pytest.raises(ValueError):
        ck.cf_continuity_bound(2, -0.1)


def test_cr_continuity_property(rng):
    for _ in range(20):
        d = int(rng.integers(2, 7))
        rho = rand.random_density_matrix(d, rng)
        tau = rand.random_density_matrix(d, rng)
        eps = float(rng.choice([0.01, 0.05, 0.1]))
        gap = 2.0 * ck.trace_distance(rho, tau)
        t = min(1.0, 0.999 * eps / max(gap, 1e-12))
        sigma = ck.DensityMatrix((1 - t) * rho.matrix + t * tau.matrix)
        assert 2.0 * ck.trace_distance(rho, sigma) <= eps + 1e-12
        diff = abs(ck.relative_entropy_of_coherence(rho)
                   - ck.relative_entropy_of_coherence(sigma))
        assert diff <= ck.cr_continuity_bound(d, eps) + 1e-9


# -- additivity, convexity, monotonicity ----------------------------------------------

@settings(max_examples=60, derandomize=True, deadline=None)
@given(dims=st.tuples(st.integers(2, 4), st.integers(2, 4)),
       ranks=st.tuples(st.integers(1, 4), st.integers(1, 4)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_cr_additivity(dims, ranks, seed):
    rng = np.random.default_rng(seed)
    a, b = (rand.random_density_matrix(d, rng, rank=min(r, d))
            for d, r in zip(dims, ranks))
    lhs = ck.relative_entropy_of_coherence(ck.tensor(a, b))
    rhs = (ck.relative_entropy_of_coherence(a)
           + ck.relative_entropy_of_coherence(b))
    assert abs(lhs - rhs) <= 1e-9


def test_cf_additivity_one_sided(rng):
    # Optimizer yields upper bounds; acceptance tolerance 5e-3 applies.
    for s in range(6):
        a = rand.random_density_matrix(2, rng)
        b = rand.random_density_matrix(2, rng)
        oa = ck.coherence_of_formation(a, restarts=12, seed=s).value
        ob = ck.coherence_of_formation(b, restarts=12, seed=s).value
        prod = ck.tensor(a, b)
        op = ck.coherence_of_formation(prod, restarts=16, seed=s).value
        assert op <= oa + ob + 5e-3
        assert op - (oa + ob) >= -5e-3
        assert op >= ck.relative_entropy_of_coherence(prod) - 1e-7


def test_cf_convexity(rng):
    for s in range(6):
        a = rand.random_density_matrix(2, rng)
        b = rand.random_density_matrix(2, rng)
        lam = float(rng.uniform(0.2, 0.8))
        mix = ck.DensityMatrix(lam * a.matrix + (1 - lam) * b.matrix)
        om = ck.coherence_of_formation(mix, restarts=16, seed=s).value
        oa = ck.coherence_of_formation(a, restarts=16, seed=s).value
        ob = ck.coherence_of_formation(b, restarts=16, seed=s).value
        assert om <= lam * oa + (1 - lam) * ob + 1e-6


def test_cr_strong_monotonicity(rng):
    # C_r(rho) >= sum_l p_l C_r(rho_l) for incoherent instruments
    for _ in range(15):
        d = int(rng.integers(2, 5))
        rho = rand.random_density_matrix(d, rng)
        ch = rand.random_incoherent_channel(d, int(rng.integers(1, 4)), rng)
        before = ck.relative_entropy_of_coherence(rho)
        avg = sum(p * ck.relative_entropy_of_coherence(out)
                  for p, out in ck.apply_selective(ch, rho))
        assert before >= avg - 1e-8


def test_cf_monotone_under_strictly_incoherent(rng):
    for s in range(8):
        d = int(rng.integers(2, 5))
        rho = rand.random_density_matrix(d, rng)
        ch = rand.random_strictly_incoherent_channel(
            d, int(rng.integers(2, 4)), rng)
        before = ck.coherence_of_formation(rho, restarts=12, seed=s).value
        after = ck.coherence_of_formation(ck.apply_channel(ch, rho),
                                          restarts=12, seed=s).value
        assert after <= before + 5e-3


# -- conversion rate bounds ------------------------------------------------------------

def test_rate_bounds_pure_pair(rng):
    psi = ck.PureState(np.sqrt([0.6, 0.4]).astype(complex))
    phi = ck.PureState(np.sqrt([0.85, 0.15]).astype(complex))
    bounds = ck.conversion_rate_bounds(psi.to_density(), phi.to_density(),
                                       restarts=8)
    ratio = ck.entropy_of_coherence(psi) / ck.entropy_of_coherence(phi)
    assert np.isclose(bounds.lower, ratio, atol=1e-6)
    assert np.isclose(bounds.upper, ratio, atol=1e-6)


def test_rate_bounds_phi4_phi2():
    bounds = ck.conversion_rate_bounds(
        ck.maximally_coherent(4).to_density(),
        ck.maximally_coherent(2).to_density(), restarts=8)
    assert np.isclose(bounds.lower, 2.0, atol=1e-6)
    assert np.isclose(bounds.upper, 2.0, atol=1e-6)


def test_rate_bounds_qubit_examples():
    phi2 = ck.maximally_coherent(2).to_density()
    cr = ck.relative_entropy_of_coherence(QUBIT)       # 1 - h(0.8)
    cf = ck.coherence_of_formation_qubit(QUBIT)        # h(0.9)
    # Distilling the unit resource out of the mixed state: both bounds are
    # C_r(rho) because C_r = C_f = 1 on the target.
    out = ck.conversion_rate_bounds(QUBIT, phi2, restarts=12)
    assert np.isclose(out.lower, cr, atol=5e-3)
    assert np.isclose(out.upper, cr, atol=5e-3)
    # Forming the mixed state from the unit resource: the C_f/C_f term wins
    # the min, so both bounds equal 1/C_f (formation cost is tight).
    into = ck.conversion_rate_bounds(phi2, QUBIT, restarts=12)
    assert np.isclose(into.lower, 1.0 / cf, atol=5e-2)
    assert np.isclose(into.upper, 1.0 / cf, atol=5e-2)
    assert 1.0 / cf < 1.0 / cr  # the dropped ratio is strictly looser
    assert into.lower <= into.upper + 1e-9


def test_rate_bounds_upper_is_not_collapsed_by_roof_excess(rng):
    # C_f = C_r for a pure rho; dividing it by the roof value of a generic
    # sigma, an upper estimate, would put the upper bound on the lower one.
    psi = rand.random_pure_state(3, rng).to_density()
    sigma = rand.random_density_matrix(3, rng)
    bounds = ck.conversion_rate_bounds(psi, sigma, restarts=4)
    assert bounds.upper > bounds.lower + 1e-3


def test_rate_bounds_upper_divides_by_the_closed_form_bound():
    # For a pure rho, C_f(rho)/B(sigma) undercuts C_r(rho)/C_r(sigma)
    # whenever B(sigma) > C_r(sigma), so the upper bound tightens.
    rng = rand.rng_for(2204)
    psi = rand.random_pure_state(3, rng).to_density()
    sigma = rand.random_density_matrix(3, rng)
    cr_psi = ck.relative_entropy_of_coherence(psi)
    cr_sigma = ck.relative_entropy_of_coherence(sigma)
    bound = ck.cf_lower_bound(sigma)
    assert bound > cr_sigma + 0.01
    bounds = ck.conversion_rate_bounds(psi, sigma, restarts=4)
    cf_psi = ck.coherence_of_formation(psi, restarts=4).value
    assert bounds.upper == cf_psi / bound
    assert bounds.upper < cr_psi / cr_sigma - 1e-3
    assert bounds.lower <= bounds.upper


def test_rate_bounds_incoherent_target_rejected(rng):
    rho = rand.random_density_matrix(3, rng)
    diag = ck.DensityMatrix.from_diagonal([0.5, 0.5])
    with pytest.raises(UndefinedRateError):
        ck.conversion_rate_bounds(rho, diag)
