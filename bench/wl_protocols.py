"""``protocols`` workload: the ``asymptotic`` layer with explicit ensembles,
so the convex roof is never called.

The type-enumeration recursions (typical-set and frequency-typical sums)
make up the fast operations and set the median latency; the covering
check, which rebuilds and diagonalizes the 924 x 924 class Gram matrix on
every call, sets the 90th percentile.
"""

from __future__ import annotations

import math
import statistics
from functools import partial

import numpy as np

from cohkit import asymptotic, measures, qstate

import inputs
import reference as ref
from harness import Op, Workload, excess_sum, mismatch
from wl_roof import PANEL_SEED

CORPUS_ROUNDS = 12
# (d, n) for the typical-set sums; delta is fixed.
TYPICAL = ((2, 20000), (3, 400), (4, 60), (5, 30))
TYPICAL_DELTA = 0.05
# Two frequency-typical sums per round.  Their cost is set by the count
# window 2 n delta + 1, not by the weights, so the median latency, which
# lands on them, does not depend on the seed's draws.
FREQ_M, FREQ_N, FREQ_DELTA = 3, 800, 0.05
CONC_D, CONC_NS, CONC_TRIALS = 3, (100, 1000, 10000), 50
DILUTE_DELTA, DILUTE_EPS = 0.1, 0.1
FORM = dict(n=200, delta1=0.05, delta2=0.05, trials=30, reconstruct=False)
FORM_RECONSTRUCT = dict(n=8, delta1=0.2, delta2=0.5, trials=5,
                        reconstruct=True)
COVER_N, COVER_SIZES, COVER_SUBSETS = 12, (8, 16, 32, 64), 2
# The criterion-11 ensemble: |0> and |+> with equal weights.
COVER_WEIGHTS = (0.5, 0.5)
COVER_MEMBERS = ((1.0, 0.0), (math.sqrt(0.5), math.sqrt(0.5)))
# Known-answer panel behind cf_excess_bits: block-pure states formed from
# their block decomposition, whose average coherence is exactly C_f.
PANEL_SIZES = ((2, 2), (2, 2, 1), (2, 2, 2))
PANEL_FORM = dict(n=1000, delta1=0.01, delta2=0.01, trials=20)


def _check_typical(probs, n, delta, value):
    return mismatch("mass", value,
                    ref.typical_set_probability(probs, n, delta), 1e-10)


def _check_frequency(weights, n, delta, value):
    return mismatch("mass", value,
                    ref.frequency_typical_probability(weights, n, delta), 1e-10)


def _check_concentration(probs, n, trace):
    h = ref.shannon_bits(probs)
    problems = mismatch("target rate", trace.target_rate, h, 1e-12)
    if max(trace.rates) > math.log2(len(probs)) + 1e-12:
        problems.append(f"rate {max(trace.rates)!r} above log2 d")
    if abs(trace.mean_rate - h) > ref.concentration_slack(probs, n,
                                                         trace.trials):
        problems.append(f"mean rate {trace.mean_rate!r} far from H {h!r}")
    return problems


def _check_dilution(probs, n, trace):
    h = ref.shannon_bits(probs)
    fid2 = trace.fidelity[0] ** 2
    problems = mismatch("rate", trace.mean_rate, h + DILUTE_DELTA, 1e-12)
    hoeffding = ref.hoeffding_blocklength(probs, DILUTE_DELTA, DILUTE_EPS)
    if n != hoeffding:
        problems.append(f"dilution_blocklength {n} != Hoeffding {hoeffding}")
    if fid2 < 1.0 - DILUTE_EPS:
        problems.append(f"fidelity^2 {fid2!r} below 1 - eps at n = {n}")
    problems += mismatch("fidelity^2", fid2, ref.typical_set_probability(
        probs, n, DILUTE_DELTA), 1e-10)
    return problems


def _check_formation(weights, members, trace):
    target = sum(w * ref.coherence_of_pure(a) for w, a in zip(weights, members))
    problems = mismatch("target rate", trace.target_rate, target, 1e-12)
    low = [r for r in trace.rates if r < trace.target_rate - 1e-12]
    if low:
        problems.append(f"{len(low)} trial rates below the target rate")
    if not all(0.0 <= f <= 1.0 + 1e-12 for f in trace.fidelity):
        problems.append("trial fidelity outside [0, 1]")
    if trace.reconstruction_fidelity is not None and not (
            trace.fidelity_floor - 1e-9 <= trace.reconstruction_fidelity
            <= 1.0 + 1e-9):
        problems.append(f"reconstruction fidelity "
                        f"{trace.reconstruction_fidelity!r} below its floor "
                        f"{trace.fidelity_floor!r}")
    return problems


def _check_covering(size, report):
    problems = []
    if report.M != math.comb(COVER_N, COVER_N // 2) // size:
        problems.append(f"M = {report.M} for S = {size}")
    if len(report.deviations) != COVER_SUBSETS:
        problems.append(f"{len(report.deviations)} deviations")
    if not all(0.0 <= x <= 2.0 + 1e-9 for x in report.deviations):
        problems.append("deviation outside [0, 2]")
    return problems


def _fingerprint(result) -> bytes:
    if isinstance(result, float):
        return np.float64(result).tobytes()
    return repr(result.to_dict()).encode()


def _ensemble(weights, members, traced_density):
    ens = measures.Ensemble(np.asarray(weights),
                            [qstate.PureState(a) for a in members])
    rho = traced_density(sum(w * inputs.projector(a)
                             for w, a in zip(weights, members)))
    return ens, rho


def prepare(seed: int, tracer) -> Workload:
    def wrap(fn):
        return tracer.wrap(fn, f"{fn.__module__.split('.')[-1]}.{fn.__name__}")

    density = tracer.wrap(qstate.DensityMatrix, "qstate.DensityMatrix")
    typical = wrap(asymptotic.typical_set_probability)
    frequency = wrap(asymptotic.frequency_typical_probability)
    concentrate = wrap(asymptotic.simulate_concentration)
    dilute = wrap(asymptotic.simulate_dilution)
    form = wrap(asymptotic.simulate_formation)
    cover = wrap(asymptotic.covering_check)
    cover_ens = measures.Ensemble(
        np.asarray(COVER_WEIGHTS),
        [qstate.PureState(np.asarray(a, dtype=complex)) for a in COVER_MEMBERS])

    rounds = []
    for r in range(CORPUS_ROUNDS):
        rng = inputs.rng_for(seed, r)
        ops = []

        def op(name, fn, check, **tags):
            ops.append(Op(name=name, layer="asymptotic", fn=fn, check=check,
                          fingerprint=_fingerprint, tags=tags))

        for d, n in TYPICAL:
            probs = inputs.probability_vector(d, rng)
            op(f"typical.d{d}", partial(typical, probs, n, TYPICAL_DELTA),
               partial(_check_typical, probs, n, TYPICAL_DELTA), d=d)
        for tag in ("a", "b"):
            weights = inputs.probability_vector(FREQ_M, rng)
            op(f"frequency_typical.{tag}",
               partial(frequency, weights, FREQ_N, FREQ_DELTA),
               partial(_check_frequency, weights, FREQ_N, FREQ_DELTA))

        amps = inputs.pure_amplitudes(CONC_D, rng, floor=0.3)
        psi, probs = qstate.PureState(amps), np.abs(amps) ** 2
        for n in CONC_NS:
            op(f"concentrate.n{n}",
               partial(concentrate, psi, n, CONC_TRIALS, seed=r),
               partial(_check_concentration, probs, n), n=n)

        amps = inputs.pure_amplitudes(2, rng, floor=0.3)
        probs = np.abs(amps) ** 2
        n = asymptotic.dilution_blocklength(probs, DILUTE_DELTA, DILUTE_EPS)
        op("dilute", partial(dilute, qstate.PureState(amps), n, DILUTE_DELTA,
                             seed=r),
           partial(_check_dilution, probs, n))

        for name, params, size in (("form", FORM, 3),
                                   ("form_reconstruct", FORM_RECONSTRUCT, 2)):
            weights = inputs.probability_vector(size, rng)
            members = [inputs.pure_amplitudes(2, rng, floor=0.2)
                       for _ in range(size)]
            ens, rho = _ensemble(weights, members, density)
            op(name, partial(form, rho, seed=r, ensemble=ens, **params),
               partial(_check_formation, weights, members),
               reconstruct=params["reconstruct"])

        cover_seed = int(rng.integers(2 ** 31))
        for size in COVER_SIZES:
            op(f"cover.S{size}",
               partial(cover, cover_ens, COVER_N, size, trials=1,
                       seed=cover_seed, max_subsets_per_trial=COVER_SUBSETS),
               partial(_check_covering, size), S=size)
        rounds.append(ops)

    # Warm-up: first calls into the type sums, the simulators and the
    # covering check.
    asymptotic.typical_set_probability([0.5, 0.3, 0.2], 10, 0.1)
    asymptotic.frequency_typical_probability([0.5, 0.3, 0.2], 10, 0.1)
    asymptotic.simulate_dilution(psi, 10, 0.1)
    asymptotic.simulate_concentration(psi, 10, 1)
    asymptotic.simulate_formation(rho, 10, 0.2, 0.5, ensemble=ens, trials=1)
    asymptotic.covering_check(cover_ens, 6, 4, trials=1)
    return Workload(rounds=rounds, quality=_quality, final_check=_final_check,
                    patches=[(asymptotic, "fidelity", "qstate.fidelity")])


def _final_check(records) -> list:
    """Properties across operations: concentration converges to H as n
    grows, and covering deviations fall as the subset size grows."""
    problems = []
    done = [rec for rec in records if rec.error is None]
    first = {}
    for rec in done:
        first.setdefault((rec.round_index % CORPUS_ROUNDS, rec.op.name), rec)
    for r in range(CORPUS_ROUNDS):
        ends = [first.get((r, f"concentrate.n{n}"))
                for n in (CONC_NS[0], CONC_NS[-1])]
        if None in ends:
            continue
        errs = [abs(e.result.mean_rate - e.result.target_rate) for e in ends]
        if not errs[1] < errs[0]:
            problems.append(f"round {r}: concentration error did not fall "
                            f"with n ({errs[0]!r} -> {errs[1]!r})")
    medians = []
    for size in COVER_SIZES:
        pool = [x for rec in done if rec.op.name == f"cover.S{size}"
                for x in rec.result.deviations]
        medians.append(statistics.median(pool) if pool else math.nan)
    if not all(b < a for a, b in zip(medians, medians[1:])):
        problems.append(f"covering medians {medians} do not fall with S")
    return problems


def _quality():
    """cf_excess_bits: formation rate consumed above the exact C_f, summed
    over the fixed block-pure panel."""
    pairs, problems = [], []
    rng = inputs.rng_for(PANEL_SEED)
    for sizes in PANEL_SIZES:
        matrix, weights, members = inputs.block_pure_state(sizes, rng)
        ens, rho = _ensemble(weights, members, qstate.DensityMatrix)
        trace = asymptotic.simulate_formation(rho, seed=PANEL_SEED,
                                              ensemble=ens, **PANEL_FORM)
        exact = ref.relative_entropy_of_coherence(matrix)
        problems += [f"panel {sizes}: {p}" for p in
                     _check_formation(weights, members, trace)]
        problems += [f"panel {sizes}: {p}" for p in
                     mismatch("C_f", trace.target_rate, exact, 1e-9)]
        pairs.append((trace.mean_rate, exact))
    return excess_sum(pairs), problems
