"""Reference values computed apart from cohkit.

Every function here uses only the standard library and numpy, and none of
them calls into ``cohkit``: the benchmark checks the program's answers
against these.  Sums over types are plain-Python enumerations (stars and
bars), and the closed forms are written out from the formulas.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Weights at or below this are dropped before entropies and type sums, as
# the package's documented eigenvalue floor does.
WEIGHT_FLOOR = 1e-12
# Slack on typical-set boundaries, matching the package's membership
# tolerance, so a type on the boundary is counted on both sides.
MEMBERSHIP_TOL = 1e-12


def shannon_bits(probs) -> float:
    """Shannon entropy in bits; weights below the floor contribute 0."""
    return float(sum(-p * math.log2(p) for p in probs if p > WEIGHT_FLOOR))


def binary_entropy(x: float) -> float:
    return shannon_bits([x, 1.0 - x])


def qubit_cf(matrix) -> float:
    """Closed-form qubit coherence of formation, h((1 + sqrt(1 - 4|rho_01|^2))/2)."""
    c = 2.0 * abs(complex(matrix[0][1]))
    return binary_entropy(0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - c * c))))


def relative_entropy_of_coherence(matrix) -> float:
    """C_r = H(diag rho) - S(rho), from numpy eigenvalues."""
    m = np.asarray(matrix, dtype=complex)
    diag = np.real(np.diag(m))
    eigs = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    return max(0.0, shannon_bits(diag) - shannon_bits(eigs))


def coherence_of_pure(amplitudes) -> float:
    """Entropy of coherence: Shannon entropy of |amplitudes|^2."""
    a = np.asarray(amplitudes, dtype=complex)
    return shannon_bits(np.abs(a) ** 2)


def dephased_entropy(matrix) -> float:
    """S(diag rho), the coherence of formation's incoherent upper bound."""
    return shannon_bits(np.real(np.diag(np.asarray(matrix, dtype=complex))))


def hoeffding_blocklength(probs, delta: float, eps: float) -> int:
    """Smallest n at which Hoeffding's inequality puts at most eps outside
    the delta-typical set: spread^2 ln(2/eps) / (2 delta^2), rounded up."""
    v = [-math.log2(p) for p in probs if p > WEIGHT_FLOOR]
    spread = max(v) - min(v)
    return math.ceil(spread * spread * math.log(2.0 / eps)
                     / (2.0 * delta * delta))


def concentration_slack(probs, n: int, trials: int) -> float:
    """Allowed |mean concentration rate - H| over ``trials`` runs at n: the
    type-class size deficit (d - 1) log2(n + 1) / n plus five standard
    errors of the mean."""
    q = [p for p in probs if p > WEIGHT_FLOOR]
    h = shannon_bits(q)
    var = sum(p * math.log2(p) ** 2 for p in q) - h * h
    return ((len(q) - 1) * math.log2(n + 1) / n
            + 5.0 * math.sqrt(max(var, 0.0) / (n * trials)))


def compositions(n: int, d: int):
    """Every tuple of d non-negative integers summing to n (stars and bars)."""
    for bars in itertools.combinations(range(n + d - 1), d - 1):
        prev = -1
        counts = []
        for b in bars:
            counts.append(b - prev - 1)
            prev = b
        counts.append(n + d - 1 - prev - 1)
        yield tuple(counts)


def _log_multinomial(n: int, counts) -> float:
    return math.lgamma(n + 1) - sum(math.lgamma(c + 1) for c in counts)


def _kept(probs):
    q = [float(p) for p in probs if p > WEIGHT_FLOOR]
    total = sum(q)
    return [p / total for p in q]


def typical_set_probability(probs, n: int, delta: float) -> float:
    """Mass of the types whose per-symbol surprisal is within delta of H."""
    q = _kept(probs)
    if len(q) == 1:
        return 1.0
    v = [-math.log2(p) for p in q]
    h = sum(p * x for p, x in zip(q, v))
    ln_q = [math.log(p) for p in q]
    total = 0.0
    for counts in compositions(n, len(q)):
        mean = sum(c * x for c, x in zip(counts, v)) / n
        if abs(mean - h) <= delta + MEMBERSHIP_TOL:
            total += math.exp(_log_multinomial(n, counts)
                              + sum(c * lq for c, lq in zip(counts, ln_q)))
    return min(1.0, total)


def _in_window(c: int, n: int, w: float, delta: float) -> bool:
    return abs(c - n * w) <= n * delta + 1e-9


def frequency_typical_probability(weights, n: int, delta: float) -> float:
    """Mass of the types with |count_j / n - w_j| <= delta for every j.

    Enumerates the counts of all letters but the last within their
    windows; the last count is what remains.
    """
    w = [float(x) for x in weights]
    if len(w) == 1:
        return 1.0
    ln_w = [math.log(max(x, 1e-300)) for x in w]
    windows = [[c for c in range(n + 1) if _in_window(c, n, x, delta)]
               for x in w[:-1]]
    total = 0.0
    for head in itertools.product(*windows):
        last = n - sum(head)
        if last < 0 or not _in_window(last, n, w[-1], delta):
            continue
        counts = (*head, last)
        total += math.exp(_log_multinomial(n, counts)
                          + sum(c * lw for c, lw in zip(counts, ln_w)))
    return min(1.0, total)


def typical_set_probability_brute(probs, n: int, delta: float) -> float:
    """The same mass summed over all d^n sequences; tiny n only."""
    q = _kept(probs)
    v = [-math.log2(p) for p in q]
    h = sum(p * x for p, x in zip(q, v))
    total = 0.0
    for seq in itertools.product(range(len(q)), repeat=n):
        if abs(sum(v[s] for s in seq) / n - h) <= delta + MEMBERSHIP_TOL:
            total += math.prod(q[s] for s in seq)
    return total


def frequency_typical_probability_brute(weights, n: int, delta: float) -> float:
    """Frequency-typical mass summed over all m^n sequences; tiny n only."""
    w = [float(x) for x in weights]
    total = 0.0
    for seq in itertools.product(range(len(w)), repeat=n):
        counts = [seq.count(j) for j in range(len(w))]
        if all(_in_window(c, n, x, delta) for c, x in zip(counts, w)):
            total += math.prod(w[s] for s in seq)
    return total
