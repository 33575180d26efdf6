"""Finite-blocklength Monte Carlo for coherence concentration, dilution and
formation, plus a statistical check of the operator covering bound and the
rank-limited converse fidelity bound.

Everything n-copy is represented through types (letter counts) and exact
log-probabilities.  Two checks hold n-copy objects, each in factored form:
the covering check works in the span of a type class, through one Cholesky
factor of its Gram matrix (a truncated eigendecomposition when the span is
singular), and the formation reconstruction holds the d^n x K matrix whose
columns are the protocol's output vectors, never a d^n x d^n one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantViolationError, ResourceLimitError
from .measures import Ensemble, coherence_of_formation, entropy_of_coherence, \
    relative_entropy_of_coherence
from .qstate import DensityMatrix, PureState, shannon_entropy
# Looked up here by the protocols benchmark, which traces it in place.
from .qstate import fidelity  # noqa: F401
from .rand import RNG_NAME, rng_for

# Compute budgets ("budget exceeded" errors beyond these).
MAX_N_LOG_DIM = 1e7          # concentration: n * log2(dim)
MAX_TYPE_COUNT = 2e7         # typical-set probability: number of types
MAX_SEQUENCES = 1e5          # m**n member sequences enumerated at once
MAX_GRAM = 4000              # covering: Gram-matrix side length
GRAM_ALPHABET = 64           # covering: block letters per Gram gather
MAX_RECONSTRUCT_ENTRIES = 1 << 24  # formation: dim**n * (sequences + n)
MEMBERSHIP_TOL = 1e-12       # absorbs float dust at typicality boundaries
TYPE_CHUNK = 1 << 15         # types expanded at once by _type_mass
LETTER_FLOOR = 1e-12         # letters below this probability are dropped
MAX_SAMPLING_ATTEMPTS = 10000  # rejection sampling of typical counts
LN_FACTORIAL_TABLE = 4096    # ln k! is tabulated below this k


@dataclass(frozen=True)
class TypeMeasurementOutcome:
    """One outcome of the type measurement on n copies."""
    type_counts: np.ndarray
    probability: float
    log_class_size: float     # log2 |T(P)|, from log-factorials
    achieved_rate: float      # log_class_size / n, bits per copy


@dataclass
class ProtocolTrace:
    """Per-trial record of a protocol simulation."""
    n: int
    trials: int
    rates: list
    mean_rate: float
    fidelity: list
    target_rate: float
    seed: int
    rng: str = RNG_NAME
    reconstruction_fidelity: float | None = None
    fidelity_floor: float | None = None

    def to_dict(self) -> dict:
        out = {"n": self.n, "trials": self.trials,
               "rates": [float(r) for r in self.rates],
               "mean_rate": self.mean_rate,
               "fidelity": [float(f) for f in self.fidelity],
               "target_rate": self.target_rate,
               "seed": self.seed, "rng": self.rng}
        if self.reconstruction_fidelity is not None:
            out["reconstruction_fidelity"] = self.reconstruction_fidelity
            out["fidelity_floor"] = self.fidelity_floor
        return out


_LN_FACTORIALS = np.array([math.lgamma(k + 1.0)
                           for k in range(LN_FACTORIAL_TABLE)])
_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)


def _ln_factorial(k):
    """ln k! of nonnegative integers k (ints or integral floats),
    elementwise.

    Below LN_FACTORIAL_TABLE it is one gather from a table of math.lgamma.
    Above, it is Stirling's series for ln Gamma(x), x = k + 1, through its
    1/(360 x^3) term; the next term is below 1e-21 there, and the series is
    within 4 ulp of math.lgamma (checked up to k = 2e7).
    """
    k = np.asarray(k)
    if k.max(initial=0) < LN_FACTORIAL_TABLE:
        return _LN_FACTORIALS[k.astype(np.intp, copy=False)]
    x = k + 1.0
    inv = 1.0 / x
    out = (x - 0.5) * np.log(x) - x + _HALF_LN_2PI \
        + inv * (1.0 / 12.0 - inv * inv / 360.0)
    if k.min() < LN_FACTORIAL_TABLE:
        small = k < LN_FACTORIAL_TABLE
        out[small] = _LN_FACTORIALS[k[small].astype(np.intp)]
    return out


def log2_type_class_size(counts):
    """log2 of the multinomial coefficient n! / prod(counts!), taken along
    the last axis: a float for one type, an array for a stack of types."""
    c = np.asarray(counts)
    return (_ln_factorial(c.sum(axis=-1))
            - np.sum(_ln_factorial(c), axis=-1)) / math.log(2.0)


def type_measurement(probs, n: int, rng) -> TypeMeasurementOutcome:
    """Sample the type measurement: a multinomial type and its statistics."""
    p = np.asarray(probs, dtype=float)
    counts = rng.multinomial(n, p / p.sum())
    log_size = float(log2_type_class_size(counts))
    with np.errstate(divide="ignore"):
        log_q = np.where(p > 0, np.log(np.maximum(p, 1e-300)), 0.0)
    log_prob = (log_size * math.log(2.0)) + float(np.sum(counts * log_q))
    return TypeMeasurementOutcome(
        type_counts=counts, probability=math.exp(log_prob),
        log_class_size=log_size, achieved_rate=log_size / n)


def simulate_concentration(psi: PureState, n: int, trials: int,
                           seed: int = 0) -> ProtocolTrace:
    """Concentration protocol: type measurement on n copies, the surviving
    state is maximally coherent on the observed type class.

    The achieved rate of a trial is log2 |T(P)| / n; the conditional output
    fidelity is 1 by construction.
    """
    if n * math.log2(max(psi.dim, 2)) > MAX_N_LOG_DIM:
        raise ResourceLimitError(
            f"n log2(dim) = {n * math.log2(psi.dim):.3g} over budget")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p = np.asarray(psi.probabilities(), dtype=float)
    p = p / p.sum()
    target = entropy_of_coherence(psi)
    # One type per trial from its own generator, as type_measurement draws
    # it; the class sizes of all trials are then taken in one array pass.
    counts = np.array([rng_for(seed, t).multinomial(n, p)
                       for t in range(trials)])
    rates = (log2_type_class_size(counts) / n).tolist()
    return ProtocolTrace(n=n, trials=trials, rates=rates,
                         mean_rate=float(np.mean(rates)),
                         fidelity=[1.0] * trials, target_rate=target,
                         seed=seed)


def _kept_letters(probs):
    p = np.asarray(probs, dtype=float)
    p = p[p > LETTER_FLOOR]
    return p / p.sum()


def _type_mass(ln_q, n: int, lo, hi, score=None, target: float = 0.0,
               tol: float = math.inf) -> float:
    """Multinomial mass n!/prod(c_j!) prod q_j^c_j of the integer types c
    with sum(c) = n and lo <= c <= hi, and, when ``score`` is given, with
    abs(c . score / n - target) <= tol.

    Letters are fixed one per level, for a whole chunk of type prefixes at
    once.  An entry of a chunk holds the count c of its newest letter, the
    count left for the later letters, the score of its letters so far and
    the log-mass of the letters before the newest.  The letter before last
    fixes the last one, so the window is tested before the log-factorials
    of complete types are taken.  A chunk whose next level would exceed
    TYPE_CHUNK entries is halved (down to a single prefix, whose expansion
    holds at most n + 1 entries), and chunks are taken depth-first, so
    memory does not grow with the number of types.
    """
    d = ln_q.size
    lo, hi = [int(x) for x in lo], [int(x) for x in hi]
    lo_tail = [sum(lo[j + 1:]) for j in range(d)]
    hi_tail = [sum(hi[j + 1:]) for j in range(d)]
    score = np.zeros(d) if score is None else score
    c = np.arange(max(lo[0], n - hi_tail[0]), min(hi[0], n - lo_tail[0]) + 1)
    # No letter precedes the first, so its log-mass is a zero-stride view.
    stack = [(0, c, n - c, c * score[0], np.broadcast_to(0.0, c.size))]
    ln_n_factorial = float(_ln_factorial(n))
    total = 0.0
    while stack:
        j, c, rem, part, lnm = stack.pop()
        if j == d - 2:
            # In place: one temporary, not four; fresh pages fault per call.
            s = rem * score[-1]
            s += part
            s /= n
            s -= target
            keep = np.abs(s, out=s) <= tol
            c, rem = c[keep], rem[keep]
            total += float(np.exp(
                ln_n_factorial + lnm[keep] + c * ln_q[j] - _ln_factorial(c)
                + rem * ln_q[-1] - _ln_factorial(rem)).sum())
            continue
        first = np.maximum(lo[j + 1], rem - hi_tail[j + 1])
        size = np.maximum(
            np.minimum(hi[j + 1], rem - lo_tail[j + 1]) - first + 1, 0)
        ends = np.cumsum(size)
        if c.size > 1 and ends[-1] > TYPE_CHUNK:
            for a, b in ((c.size // 2, c.size), (0, c.size // 2)):
                stack.append((j, c[a:b], rem[a:b], part[a:b], lnm[a:b]))
            continue
        lnm = np.repeat(lnm + c * ln_q[j] - _ln_factorial(c), size)
        c = np.repeat(first - ends + size, size)
        c += np.arange(c.size)
        rem = np.repeat(rem, size)
        rem -= c
        part = np.repeat(part, size)
        part += c * score[j + 1]
        stack.append((j + 1, c, rem, part, lnm))
    return min(1.0, total)


def _sequences(m: int, n: int) -> np.ndarray:
    """All m**n letter sequences of length n, one per row, in lexicographic
    order: the base-m digits of 0 .. m**n - 1.  The array is the transpose
    of an (n, m**n) one, the memory layout the products over positions in
    ``_reconstruct_formation_output`` are rounded in."""
    return (np.arange(m ** n) // m ** np.arange(n - 1, -1, -1)[:, None] % m).T


def _window_rows(m: int, n: int, lo, hi):
    """The rows of ``_sequences(m, n)`` whose letter counts c satisfy
    lo <= c <= hi, still in lexicographic order, and their counts."""
    if float(m) ** n > MAX_SEQUENCES:
        raise ResourceLimitError(f"{m}^{n} sequences over budget")
    seqs = _sequences(m, n)
    counts = (seqs[:, :, None] == np.arange(m)).sum(axis=1)
    keep = np.all((counts >= lo) & (counts <= hi), axis=1)
    return seqs[keep], counts[keep]


def typical_set_probability(probs, n: int, delta: float) -> float:
    """Probability of the entropy-typical set of n-letter sequences.

    A sequence is typical when its per-symbol surprisal -log2(q)/n lies
    within delta of H(Q).  Computed by summing the multinomial law over
    integer types, with no sequence enumeration.  The log-factorials are
    tabulated below LN_FACTORIAL_TABLE and taken from Stirling's series
    above it, within 4 ulp of math.lgamma either way.  Each term's exponent
    is formed at the magnitude of ln n!, so for n in the thousands the sum
    carries about 1e-12 relative rounding (1.2e-12 at d = 3, n = 5000
    against a 40-digit sum of the same terms).
    """
    q = _kept_letters(probs)
    d = q.size
    if d == 1:
        return 1.0
    if math.comb(n + d - 1, d - 1) > MAX_TYPE_COUNT:
        raise ResourceLimitError(
            f"{math.comb(n + d - 1, d - 1)} types over budget")
    v = -np.log2(q)
    return _type_mass(np.log(q), n, [0] * d, [n] * d, score=v,
                      target=float(np.dot(q, v)), tol=delta + MEMBERSHIP_TOL)


def dilution_blocklength(probs, delta: float, eps: float) -> int:
    """Hoeffding-predicted n at which the typical set misses at most eps."""
    q = _kept_letters(probs)
    if q.size == 1:
        return 1
    v = -np.log2(q)
    spread = float(v.max() - v.min())
    if spread == 0.0:
        return 1
    return int(math.ceil(spread * spread * math.log(2.0 / eps)
                         / (2.0 * delta * delta)))


def simulate_dilution(psi: PureState, n: int, delta: float,
                      seed: int = 0) -> ProtocolTrace:
    """Dilution protocol: prepare the typical truncation of psi^(n) from
    n (H + delta) unit coherence bits.

    The preparation succeeds deterministically; the output fidelity with the
    exact n-copy state is sqrt(Pr(typical set)), from the type sum of
    :func:`typical_set_probability`.
    """
    probs = psi.probabilities()
    h = shannon_entropy(probs)
    pr = typical_set_probability(probs, n, delta)
    rate = h + delta
    return ProtocolTrace(n=n, trials=1, rates=[rate], mean_rate=rate,
                         fidelity=[math.sqrt(pr)], target_rate=h, seed=seed)


def distillable_rate(rho: DensityMatrix) -> float:
    """The asymptotically achievable distillation rate: the relative entropy
    of coherence (the distillation protocol itself is not simulated here)."""
    return relative_entropy_of_coherence(rho)


def _freq_typical_log_prob_box(weights, n: int, delta: float):
    """Integer count windows for the frequency-typical set."""
    w = np.asarray(weights, dtype=float)
    lo = np.maximum(0, np.ceil(n * (w - delta) - 1e-9).astype(int))
    hi = np.minimum(n, np.floor(n * (w + delta) + 1e-9).astype(int))
    return lo, hi


def frequency_typical_probability(weights, n: int, delta: float) -> float:
    """Multinomial mass of {counts : |counts_j/n - w_j| <= delta}, summed
    over types like :func:`typical_set_probability`, with the same rounding
    (about 1e-12 relative for n in the thousands)."""
    w = np.asarray(weights, dtype=float)
    m = w.size
    if m == 1:
        return 1.0
    lo, hi = _freq_typical_log_prob_box(w, n, delta)
    if np.any(lo > hi):
        return 0.0
    widths = hi[:-1] - lo[:-1] + 1
    if float(np.prod(widths.astype(float))) > 1e7:
        raise ResourceLimitError("frequency-typical box over budget")
    return _type_mass(np.log(np.maximum(w, 1e-300)), n, lo, hi)


def _sample_typical_counts(weights, n, delta, rng):
    lo, hi = _freq_typical_log_prob_box(weights, n, delta)
    for _ in range(MAX_SAMPLING_ATTEMPTS):
        counts = rng.multinomial(n, weights)
        if np.all(counts >= lo) and np.all(counts <= hi):
            return counts
    raise ResourceLimitError(
        "frequency-typical sampling failed; enlarge delta1 or n")


def simulate_formation(rho: DensityMatrix, n: int, delta1: float,
                       delta2: float, seed: int = 0,
                       ensemble: Ensemble | None = None, trials: int = 100,
                       reconstruct: bool = False,
                       restarts: int = 32) -> ProtocolTrace:
    """Formation protocol accounting: sample a frequency-typical member
    sequence and dilute each member group at window delta2.

    Per-trial consumed rate is sum_j (f_j + delta1)(S(diag psi_j) + delta2)
    with f_j the empirical member frequencies; it converges to the ensemble
    average coherence + O(delta).  Per-trial fidelity is the product of the
    exact per-group dilution fidelities.  With ``reconstruct`` the protocol's
    output state is assembled and its fidelity with rho^(n) is reported
    along with the provable floor (1 - eps1)(1 - eps2)^m; this requires
    dim**n * (K + n) <= MAX_RECONSTRUCT_ENTRIES, K the number of
    frequency-typical member sequences.
    """
    if ensemble is None:
        ensemble = coherence_of_formation(rho, restarts=restarts,
                                          seed=seed).ensemble
    weights = np.asarray(ensemble.weights, dtype=float)
    weights = weights / weights.sum()
    coherences = np.array([entropy_of_coherence(m) for m in ensemble.members])
    target = float(np.dot(weights, coherences))

    @functools.cache
    def group_fidelity(j: int, c: int) -> float:
        """Fidelity of c diluted copies of member j with their exact
        copies: sqrt(Pr(typical set)), 1 for a member with one letter."""
        return math.sqrt(typical_set_probability(
            ensemble.members[j].probabilities(), c, delta2))

    rates = []
    fidelities = []
    for t in range(trials):
        rng = rng_for(seed, t)
        counts = _sample_typical_counts(weights, n, delta1, rng)
        freqs = counts / n
        rates.append(float(np.dot(freqs + delta1, coherences + delta2)))
        fidelities.append(math.prod(group_fidelity(j, int(c_j))
                                    for j, c_j in enumerate(counts) if c_j))

    trace = ProtocolTrace(n=n, trials=trials, rates=rates,
                          mean_rate=float(np.mean(rates)),
                          fidelity=fidelities, target_rate=target, seed=seed)
    if reconstruct:
        trace.reconstruction_fidelity, trace.fidelity_floor = \
            _reconstruct_formation_output(rho, ensemble, n, delta1, delta2,
                                          group_fidelity)
    return trace


def _reconstruct_formation_output(rho, ensemble, n, delta1, delta2,
                                  group_fidelity):
    """Fidelity of the protocol's output with rho^(n), and its floor.

    For each frequency-typical member sequence s, the output vector v_s is
    built in position order over all d**n letter sequences x: its entry is
    prod_t a_{s_t}(x_t), kept only when every member group's mean surprisal
    lies within delta2 of its entropy, then normalized.  The output state is
    V V^dagger, where column s of V is v_s sqrt(p_s / P), so with
    rho = B B^dagger its fidelity with rho^(n) is the nuclear norm of
    (B^(x)n)^dagger V; B^dagger is applied one position at a time, and no
    d**n x d**n matrix is formed.  The floor takes the worst group
    fidelity, ``group_fidelity(j, c)``, over the groups that occur.
    """
    d = rho.dim
    weights = np.asarray(ensemble.weights, dtype=float)
    m = weights.size
    seqs, counts = _window_rows(
        m, n, *_freq_typical_log_prob_box(weights, n, delta1))
    entries = d ** n * (seqs.shape[0] + n)
    if entries > MAX_RECONSTRUCT_ENTRIES:
        raise ResourceLimitError(
            f"dim**n * (sequences + n) = {entries} exceeds "
            f"{MAX_RECONSTRUCT_ENTRIES}")

    amps = np.stack([psi.amplitudes for psi in ensemble.members])
    probs = np.stack([psi.probabilities() for psi in ensemble.members])
    with np.errstate(divide="ignore"):
        surprisal = np.where(probs > 1e-300,
                             -np.log2(np.maximum(probs, 1e-300)), 0.0)
    entropies = np.array([shannon_entropy(p) for p in probs])
    grid = _sequences(d, n)
    vecs = np.empty((seqs.shape[0], d ** n), dtype=complex)  # rows: v_s
    for vec, seq, c in zip(vecs, seqs, counts):
        occ = c > 0
        group = (surprisal[seq, grid] @ (seq[:, None] == np.arange(m)))[:, occ]
        typical = np.all(np.abs(group / c[occ] - entropies[occ])
                         <= delta2 + MEMBERSHIP_TOL, axis=1)
        vec[:] = np.where(typical, np.prod(amps[seq, grid], axis=1), 0.0)
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            raise ResourceLimitError("typical set empty at this (n, delta)")
        vec /= norm
    p_seq = np.exp(counts @ np.log(np.maximum(weights, 1e-300)))
    prob_typical = float(p_seq.sum())
    if prob_typical == 0.0:
        raise ResourceLimitError("frequency-typical set empty; enlarge delta1")
    vecs *= np.sqrt(p_seq / prob_typical)[:, None]

    factor = rho.factor().conj()
    mode = vecs.reshape((-1,) + (d,) * n)
    for _ in range(n):
        # Contract the first remaining position; its new index goes last.
        mode = np.tensordot(mode, factor, axes=(1, 0))
    svals = np.linalg.svd(mode.reshape(vecs.shape[0], -1), compute_uv=False)
    f = min(1.0, float(np.sum(svals)))
    groups = {(j, int(c_j)) for c in counts for j, c_j in enumerate(c) if c_j}
    worst = min(group_fidelity(j, c_j) for j, c_j in groups)
    return f, prob_typical * worst ** m


@dataclass
class CoveringCheckReport:
    """Empirical deviations of subset averages from the type-class average."""
    S: int
    M: int
    deviations: list
    fraction_good: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"S": self.S, "M": self.M,
                "deviations": [float(x) for x in self.deviations],
                "fraction_good": {str(k): float(v)
                                  for k, v in self.fraction_good.items()}}


def _apportion_counts(weights, n: int) -> np.ndarray:
    """Largest-remainder apportionment of n among the letters."""
    w = np.asarray(weights, dtype=float)
    raw = w * n
    counts = np.floor(raw).astype(int)
    rem = n - counts.sum()
    order = np.argsort(-(raw - counts), kind="stable")
    counts[order[:rem]] += 1
    return counts


def covering_check(ensemble: Ensemble, n: int, S: int, trials: int,
                   seed: int = 0, eps_grid=(0.05, 0.1, 0.2, 0.4),
                   max_subsets_per_trial: int | None = None) -> CoveringCheckReport:
    """Monte Carlo check of the covering concentration: random S-subsets of a
    type class have average states close to the class average.

    The type class is the apportioned type of the ensemble weights; each
    trial partitions it uniformly at random (without replacement) into
    subsets of size S and records the trace-norm deviation of each evaluated
    subset average from the class average.  Trace norms are computed in the
    span of the class, never in dimension d^n: with the Gram matrix
    G = F F^dagger (rows of F are the class sequences; a Cholesky factor, or
    a truncated eigendecomposition when G is singular), the deviation of a
    subset s is ||F_s^dagger F_s / S - F^dagger F / N||_1, a matrix with the
    nonzero eigenvalues of the subset average minus the class average.
    A subset size S outside [1, N] violates the invariant ``subset_size``.
    """
    weights = np.asarray(ensemble.weights, dtype=float)
    m = weights.size
    counts = _apportion_counts(weights, n)
    seqs, _ = _window_rows(m, n, counts, counts)  # the type class
    big_n = seqs.shape[0]
    if big_n > MAX_GRAM:
        raise ResourceLimitError(
            f"type class size {big_n} exceeds Gram budget {MAX_GRAM}")
    if S < 1 or S > big_n:
        raise InvariantViolationError(
            "subset_size", f"subset size {S} outside [1, {big_n}]")

    vecs = np.stack([psi.amplitudes for psi in ensemble.members])
    overlap = vecs.conj() @ vecs.T            # <psi_a | psi_b>
    if not overlap.imag.any():
        # Complex products of real overlaps have exactly zero imaginary
        # parts, so real arithmetic builds the same matrix, about 3x faster.
        overlap = overlap.real
    # A block of positions is one letter of an m^k-letter alphabet, whose
    # overlaps are the k-fold Kronecker power of the member overlaps.
    step = 1
    while step < n and m ** (step + 1) <= GRAM_ALPHABET:
        step += 1
    gram = np.ones((big_n, big_n), dtype=overlap.dtype)
    work = np.empty_like(gram)
    for t in range(0, n, step):
        block = seqs[:, t:t + step]
        letters = block @ m ** np.arange(block.shape[1] - 1, -1, -1)
        table = overlap
        for _ in range(block.shape[1] - 1):
            table = np.kron(table, overlap)
        # mode="clip" writes straight into ``work``; "raise" would buffer.
        gram *= np.take(table[letters], letters, axis=1, out=work,
                        mode="clip")
    del work
    if gram.dtype.kind == "c" and float(np.max(np.abs(gram.imag))) < 1e-14:
        gram = gram.real  # real spans use the faster real solvers
    try:
        # Rows of the factor F (G = F F^dagger) are the class sequences.
        basis = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        # A singular span: keep the eigenpairs above the rounding floor.
        lam, basis = np.linalg.eigh(gram)
        keep = lam > max(1e-12, 1e-12 * float(lam[-1]))
        basis = basis[:, keep]
        basis *= np.sqrt(lam[keep])
    # From here on the factor alone is used: with the class term and one
    # difference buffer, three N x N arrays are held.
    del gram
    class_term = basis.conj().T @ basis
    class_term /= big_n
    diff = np.empty_like(class_term)  # reused by every subset

    n_subsets = big_n // S
    cap = n_subsets if max_subsets_per_trial is None else min(
        n_subsets, max_subsets_per_trial)
    deviations = []
    for t in range(trials):
        rng = rng_for(seed, t)
        perm = rng.permutation(big_n)
        for s_idx in range(cap):
            sub = basis[perm[s_idx * S:(s_idx + 1) * S]]
            np.matmul(sub.conj().T, sub, out=diff)
            diff /= S
            diff -= class_term
            eigs = np.linalg.eigvalsh(diff)
            deviations.append(float(np.sum(np.abs(eigs))))
    fraction_good = {eps: float(np.mean(np.asarray(deviations) < eps))
                     for eps in eps_grid}
    return CoveringCheckReport(S=S, M=n_subsets, deviations=deviations,
                               fraction_good=fraction_good)


def converse_fidelity_bound(n: int, R: float, Rtilde: float) -> float:
    """2^(-n (Rtilde - R) / 2): ceiling on the fidelity of any rank-2^{nR}
    diagonal-support output with a maximally coherent state of rate Rtilde."""
    if Rtilde <= R:
        raise ValueError(f"Rtilde {Rtilde} must exceed R {R}")
    return 2.0 ** (-0.5 * n * (Rtilde - R))
