"""``roof`` workload: ``measures.coherence_of_formation`` at a fixed restart
count over a seeded corpus.

Each round draws one state of every corpus class from (seed, round).  The
classes vary what the optimizer depends on: dimension, rank, and whether
the optimum is known (closed form, additivity, block structure) or only
bracketed by C_r.  Early stopping on a certified optimum acts on the block
and pure states, the r^2 ensemble cap on the low-rank ones, and a better
optimizer on the products and generic states.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from cohkit import measures, qstate

import inputs
import reference as ref
from harness import Op, Workload, excess_sum

RESTARTS = 4
CORPUS_ROUNDS = 24
# The known-answer panel behind cf_excess_bits is drawn from this fixed
# seed, so the metric compares the same states on every run and commit.
PANEL_SEED = 1506_07975
KNOWN = ("qubit", "product", "block", "pure")
BRACKETED = ("lowrank", "generic")


def qubit_with_cf(rng):
    m = inputs.ginibre_state(2, rng)
    return m, ref.qubit_cf(m)


def product_with_cf(n_qubits, rng):
    m, exact = np.eye(1), 0.0
    for _ in range(n_qubits):
        q, e = qubit_with_cf(rng)
        m, exact = np.kron(m, q), exact + e
    return m, exact


def _qubit_x_block(rng):
    q, e = qubit_with_cf(rng)
    b, _, _ = inputs.block_pure_state((2, 1), rng)
    return np.kron(q, b), e + ref.relative_entropy_of_coherence(b)


def _block(rng):
    split = int(rng.integers(2, 4))
    m, _, _ = inputs.block_pure_state((split, 5 - split), rng)
    return m, ref.relative_entropy_of_coherence(m)


def _pure(rng):
    a = inputs.pure_amplitudes(4, rng)
    return inputs.projector(a), ref.coherence_of_pure(a)


# (op name, class, builder returning (matrix, exact C_f or None)).  The
# latencies run from 2 ms (pure) to about 350 ms (d = 8 products); five
# operations of about 200 ms sit above the four cheap ones, so the median
# falls inside that group rather than in the gap between cheap and costly
# calls, and two d = 8 products hold the 90th percentile.
CORPUS = (
    ("qubit", "qubit", qubit_with_cf),
    ("pure.d4", "pure", _pure),
    ("block.d5", "block", _block),
    ("lowrank.d6r2", "lowrank",
     lambda rng: (inputs.ginibre_state(6, rng, rank=2), None)),
    ("product.d4.a", "product", partial(product_with_cf, 2)),
    ("product.d4.b", "product", partial(product_with_cf, 2)),
    ("qubit_x_block.d6", "product", _qubit_x_block),
    ("generic.d4.a", "generic", lambda rng: (inputs.ginibre_state(4, rng), None)),
    ("generic.d4.b", "generic", lambda rng: (inputs.ginibre_state(4, rng), None)),
    ("product.d8.a", "product", partial(product_with_cf, 3)),
    ("product.d8.b", "product", partial(product_with_cf, 3)),
)

PANEL = (("qubit", qubit_with_cf),) * 2 \
    + (("product", partial(product_with_cf, 2)),) * 3 \
    + (("product", partial(product_with_cf, 3)),) * 3 \
    + (("product", _qubit_x_block),) * 2 + (("block", _block), ("pure", _pure))


def cf_problems(matrix, exact, value, weights, members) -> list:
    """Properties every roof answer must have, checked with numpy alone:
    C_r <= value <= S(diag rho), value >= exact C_f, the ensemble
    reconstructs rho and its average coherence is the value."""
    problems = []
    cr = ref.relative_entropy_of_coherence(matrix)
    if value < cr - 1e-9:
        problems.append(f"value {value!r} below C_r {cr!r}")
    sdiag = ref.dephased_entropy(matrix)
    if value > sdiag + 1e-9:
        problems.append(f"value {value!r} above S(diag) {sdiag!r}")
    if exact is not None and value < exact - 1e-9:
        problems.append(f"value {value!r} below exact C_f {exact!r}")
    rebuilt = sum(w * inputs.projector(a) for w, a in zip(weights, members))
    defect = float(np.max(np.abs(rebuilt - matrix)))
    if defect > 1e-9:
        problems.append(f"ensemble reconstructs rho only to {defect:.2e}")
    average = float(sum(w * ref.coherence_of_pure(a)
                        for w, a in zip(weights, members)))
    if abs(average - value) > 1e-10:
        problems.append(f"ensemble average {average!r} != value {value!r}")
    return problems


def _ensemble_arrays(result):
    ens = result.ensemble
    return ens.weights, [m.amplitudes for m in ens.members]


def _check(matrix, exact, result) -> list:
    return cf_problems(matrix, exact, result.value, *_ensemble_arrays(result))


def _fingerprint(result) -> bytes:
    weights, members = _ensemble_arrays(result)
    return b"".join([np.float64(result.value).tobytes(),
                     np.asarray(weights).tobytes(), *(a.tobytes() for a in members)])


def prepare(seed: int, tracer) -> Workload:
    density = tracer.wrap(qstate.DensityMatrix, "qstate.DensityMatrix")
    cf = tracer.wrap(measures.coherence_of_formation,
                     "measures.coherence_of_formation")
    rounds = []
    for r in range(CORPUS_ROUNDS):
        rng = inputs.rng_for(seed, r)
        ops = []
        for name, cls, build in CORPUS:
            matrix, exact = build(rng)
            rho = density(matrix)
            ops.append(Op(
                name=name, layer="measures",
                fn=partial(cf, rho, restarts=RESTARTS, seed=0),
                check=partial(_check, matrix, exact),
                fingerprint=_fingerprint,
                tags={"class": cls, "exact": exact,
                      "cr": ref.relative_entropy_of_coherence(matrix)}))
        rounds.append(ops)
    # Warm-up: first calls into the optimizer and the linear algebra.
    measures.coherence_of_formation(
        qstate.DensityMatrix([[0.5, 0.3], [0.3, 0.5]]), restarts=2)
    return Workload(rounds=rounds, quality=_quality,
                    record_metrics=_record_metrics)


def _quality():
    """cf_excess_bits over the fixed known-answer panel."""
    pairs, problems = [], []
    rng = inputs.rng_for(PANEL_SEED)
    for cls, build in PANEL:
        matrix, exact = build(rng)
        result = measures.coherence_of_formation(
            qstate.DensityMatrix(matrix), restarts=RESTARTS, seed=0)
        problems.extend(f"panel {cls}: {p}"
                        for p in _check(matrix, exact, result))
        pairs.append((result.value, exact))
    return excess_sum(pairs), problems


def _record_metrics(records) -> dict:
    """Mean answer quality per class over the distinct corpus states this
    run measured, and the share of calls whose restarts agreed."""
    seen = {}
    for rec in records:
        if rec.error is None:
            seen[(rec.round_index % CORPUS_ROUNDS, rec.op.name)] = rec
    out = {}
    for cls in KNOWN + BRACKETED:
        recs = [rec for rec in seen.values() if rec.op.tags["class"] == cls]
        if not recs:
            continue
        if cls in KNOWN:
            total = excess_sum((rec.result.value, rec.op.tags["exact"])
                               for rec in recs)
            out[f"measures.cf_excess_bits.{cls}"] = total / len(recs)
        else:
            out[f"measures.cf_bracket_bits.{cls}"] = sum(
                rec.result.value - rec.op.tags["cr"] for rec in recs) / len(recs)
    done = [rec for rec in records if rec.error is None]
    out["measures.cf_converged_frac"] = (
        sum(rec.result.converged for rec in done) / len(done) if done else 0.0)
    return out
