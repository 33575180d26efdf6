"""Reduced-count invariant suite, runnable standalone via ``cohkit selftest``.

Each check returns (ok, detail); the runner prints one PASS/FAIL line per
invariant together with the seed needed to reproduce it.
"""

from __future__ import annotations

import math

import numpy as np

from . import incoherent, measures, qstate, rand, reversibility
from .asymptotic import (
    converse_fidelity_bound,
    simulate_concentration,
    simulate_dilution,
)


def check_unit_measures(seed):
    """C(Phi_2) = 1 and C_r(Phi_d) = log2 d; catches a wrong log base."""
    worst = 0.0
    for d in range(2, 9):
        phi = incoherent.maximally_coherent(d)
        worst = max(worst, abs(measures.entropy_of_coherence(phi)
                               - math.log2(d)))
        worst = max(worst, abs(
            measures.relative_entropy_of_coherence(phi.to_density())
            - math.log2(d)))
    return worst <= 1e-12, f"max deviation {worst:.2e}"


def check_dephase_idempotent(seed):
    rng = rand.rng_for(seed, 0)
    worst = 0.0
    for _ in range(10):
        d = int(rng.integers(2, 7))
        rho = rand.random_density_matrix(d, rng)
        part = rand.random_partition(d, rng, min_blocks=1)
        once = qstate.dephase(rho, part)
        twice = qstate.dephase(once, part)
        worst = max(worst, float(np.max(np.abs(once.matrix - twice.matrix))))
    return worst <= 1e-12, f"max deviation {worst:.2e}"


def check_distance_chain(seed):
    rng = rand.rng_for(seed, 1)
    ok = True
    for _ in range(20):
        d = int(rng.integers(2, 9))
        a = rand.random_density_matrix(d, rng)
        b = rand.random_density_matrix(d, rng)
        rep = qstate.distances(a, b)
        ok &= 0.5 * rep.bures ** 2 <= rep.trace_distance + 1e-9
        ok &= rep.trace_distance <= rep.bures + 1e-9
    return ok, "(1/2)B^2 <= T <= B"


def check_entropy_additivity(seed):
    rng = rand.rng_for(seed, 2)
    worst = 0.0
    for _ in range(10):
        a = rand.random_density_matrix(int(rng.integers(2, 5)), rng)
        b = rand.random_density_matrix(int(rng.integers(2, 5)), rng)
        worst = max(worst, abs(
            qstate.von_neumann_entropy(qstate.tensor(a, b))
            - qstate.von_neumann_entropy(a) - qstate.von_neumann_entropy(b)))
    return worst <= 1e-8, f"max deviation {worst:.2e}"


def check_pinching_identity(seed):
    rng = rand.rng_for(seed, 3)
    worst = 0.0
    for _ in range(10):
        rho = rand.random_density_matrix(int(rng.integers(2, 7)), rng)
        lhs = qstate.relative_entropy(rho, qstate.dephase(rho))
        rhs = (qstate.von_neumann_entropy(qstate.dephase(rho))
               - qstate.von_neumann_entropy(rho))
        worst = max(worst, abs(lhs - rhs))
    return worst <= 1e-8, f"max deviation {worst:.2e}"


def check_variational_cr(seed):
    rng = rand.rng_for(seed, 4)
    worst = 0.0
    for _ in range(10):
        rho = rand.random_density_matrix(int(rng.integers(2, 7)), rng)
        worst = max(worst, abs(
            measures.relative_entropy_of_coherence_variational(rho)
            - measures.relative_entropy_of_coherence(rho)))
    return worst <= 1e-6, f"max deviation {worst:.2e}"


def check_cost_dominates_distillation(seed):
    rng = rand.rng_for(seed, 5)
    ok = True
    for k in range(8):
        rho = rand.random_density_matrix(int(rng.integers(2, 5)), rng)
        cf = measures.coherence_of_formation(rho, restarts=8, seed=seed).value
        ok &= cf >= measures.relative_entropy_of_coherence(rho) - 1e-6
    return ok, "C_f >= C_r"


def check_cr_additivity(seed):
    rng = rand.rng_for(seed, 6)
    worst = 0.0
    for _ in range(10):
        a = rand.random_density_matrix(int(rng.integers(2, 5)), rng)
        b = rand.random_density_matrix(int(rng.integers(2, 5)), rng)
        worst = max(worst, abs(
            measures.relative_entropy_of_coherence(qstate.tensor(a, b))
            - measures.relative_entropy_of_coherence(a)
            - measures.relative_entropy_of_coherence(b)))
    return worst <= 1e-8, f"max deviation {worst:.2e}"


def check_synthesis(seed):
    rng = rand.rng_for(seed, 7)
    ok = True
    for _ in range(20):
        d = int(rng.integers(2, 7))
        source, target = rand.random_majorizing_pair(d, rng)
        ch = incoherent.synthesize_pure_transformation(source, target)
        ok &= incoherent.classify_channel(ch) == incoherent.STRICTLY_INCOHERENT
        tgt = target.to_density()
        for _, out in incoherent.apply_selective(ch, source.to_density()):
            ok &= qstate.fidelity(out, tgt) >= 1.0 - 1e-9
    # Completeness is checked where the channel is built: a defect raises.
    return ok, "completeness, class, per-outcome fidelity"


def check_rank_monotonicity(seed):
    rng = rand.rng_for(seed, 8)
    ok = True
    for _ in range(50):
        d = int(rng.integers(2, 7))
        ch = rand.random_strictly_incoherent_channel(d, int(rng.integers(1, 4)),
                                                     rng)
        psi = rand.random_pure_state(d, rng)
        r_in = incoherent.rank_of_diagonal(psi)
        for k in ch.kraus:
            vec = k.entries @ psi.amplitudes
            norm = np.linalg.norm(vec)
            if norm < 1e-9:
                continue
            out = qstate.PureState(vec / norm)
            ok &= incoherent.rank_of_diagonal(out) <= r_in
    return ok, "diagonal rank never increases"


def check_incoherence_preservation(seed):
    rng = rand.rng_for(seed, 9)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 6))
        ch = rand.random_incoherent_channel(d, int(rng.integers(1, 4)), rng)
        diag = qstate.DensityMatrix.from_diagonal(
            rand.random_probability_vector(d, rng))
        out = incoherent.apply_channel(ch, diag)
        worst = max(worst, out.max_offdiagonal())
    return worst <= 1e-10, f"max off-diagonal {worst:.2e}"


def check_concentration(seed):
    phi = qstate.PureState(np.sqrt([0.9, 0.1]).astype(complex))
    trace = simulate_concentration(phi, 2000, 50, seed=seed)
    dev = abs(trace.mean_rate - trace.target_rate)
    return dev <= 0.02, f"|mean - C| = {dev:.4f}"


def check_dilution(seed):
    phi = qstate.PureState(np.sqrt([0.9, 0.1]).astype(complex))
    fids = [simulate_dilution(phi, n, 0.05, seed=seed).fidelity[0]
            for n in (500, 2000, 8000)]
    return all(b >= a - 1e-12 for a, b in zip(fids, fids[1:])) \
        and fids[-1] >= 0.99, f"fidelities {[round(f, 4) for f in fids]}"


def check_converse_bound(seed):
    ok = abs(converse_fidelity_bound(10, 1.0, 1.2) - 0.5) <= 1e-12
    # Rank-limited uniform state against a larger maximally coherent one.
    small = incoherent.maximally_coherent(2 ** 10).amplitudes
    padded = np.pad(small, (0, 2 ** 12 - small.size))
    overlap = abs(np.vdot(incoherent.maximally_coherent(2 ** 12).amplitudes,
                          padded))
    ok &= abs(overlap - 0.5) <= 1e-12
    return ok, "formula and direct small-n overlap"


def check_reversibility(seed):
    rng = rand.rng_for(seed, 11)
    ok = True
    for _ in range(5):
        d = int(rng.integers(3, 7))
        rho, _, _, _ = rand.random_block_state(d, rng)
        verdict = reversibility.is_reversible(rho, restarts=8, seed=seed)
        ok &= verdict.reversible
        ok &= abs(verdict.gap_upper) <= 5e-3
    return ok, "block states reversible with tiny gap"


def check_no_bound_coherence(seed):
    rng = rand.rng_for(seed, 12)
    ok = True
    for _ in range(100):
        d = int(rng.integers(2, 7))
        rho = rand.random_density_matrix(d, rng)
        ok &= reversibility.bound_coherence_check(rho)
    ok &= reversibility.bound_coherence_check(
        qstate.DensityMatrix.from_diagonal([0.25, 0.75]))
    return ok, "C_r = 0 implies diagonal"


CHECKS = [
    ("unit_measures", check_unit_measures),
    ("dephase_idempotent", check_dephase_idempotent),
    ("distance_chain", check_distance_chain),
    ("entropy_additivity", check_entropy_additivity),
    ("pinching_identity", check_pinching_identity),
    ("variational_cr_agreement", check_variational_cr),
    ("cost_dominates_distillation", check_cost_dominates_distillation),
    ("cr_additivity", check_cr_additivity),
    ("synthesis_soundness", check_synthesis),
    ("rank_monotonicity", check_rank_monotonicity),
    ("incoherence_preservation", check_incoherence_preservation),
    ("concentration_convergence", check_concentration),
    ("dilution_fidelity", check_dilution),
    ("converse_fidelity_bound", check_converse_bound),
    ("reversible_block_states", check_reversibility),
    ("no_bound_coherence", check_no_bound_coherence),
]


def run_selftest(seed: int = 0) -> bool:
    """Run every check; print one line per invariant; True when all pass."""
    all_ok = True
    for name, fn in CHECKS:
        try:
            ok, detail = fn(seed)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok &= ok
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name} (seed={seed}) {detail}")
    return all_ok
