"""Hand values for the benchmark's reference code.

Run with ``python -m pytest bench/test_reference.py``.
"""

import math

import numpy as np
import pytest

import reference as ref


def test_qubit_cf_closed_form():
    # |rho_01| = 0.3: h((1 + sqrt(1 - 0.36)) / 2) = h(0.9)
    assert ref.qubit_cf([[0.5, 0.3], [0.3, 0.5]]) == pytest.approx(
        0.468996, abs=5e-7)
    assert ref.qubit_cf([[0.5, 0.5], [0.5, 0.5]]) == pytest.approx(1.0)
    assert ref.qubit_cf([[0.3, 0.0], [0.0, 0.7]]) == 0.0


def test_cr_from_eigenvalues():
    # eigenvalues 0.8 and 0.2, flat diagonal: 1 - h(0.2)
    assert ref.relative_entropy_of_coherence([[0.5, 0.3], [0.3, 0.5]]) \
        == pytest.approx(0.278072, abs=5e-7)
    for d in (2, 3, 5, 8):
        phi = np.full((d, d), 1.0 / d)
        assert ref.relative_entropy_of_coherence(phi) == pytest.approx(
            math.log2(d), abs=1e-12)
    assert ref.relative_entropy_of_coherence(np.diag([0.2, 0.3, 0.5])) == 0.0


def test_pure_and_dephased_entropies():
    a = np.sqrt([0.5, 0.25, 0.25])
    assert ref.coherence_of_pure(a) == pytest.approx(1.5)
    assert ref.dephased_entropy(np.outer(a, a)) == pytest.approx(1.5)


def test_compositions_count_and_sum():
    for n, d in [(0, 3), (5, 1), (6, 3), (7, 4)]:
        comps = list(ref.compositions(n, d))
        assert len(comps) == math.comb(n + d - 1, d - 1)
        assert len(set(comps)) == len(comps)
        assert all(sum(c) == n and len(c) == d for c in comps)


def test_typical_set_hand_values():
    # Uniform letters: every sequence has surprisal exactly H.
    assert ref.typical_set_probability([0.5, 0.5], 7, 0.01) \
        == pytest.approx(1.0)
    # q = (3/4, 1/4), n = 2: "00" and "01"/"10" lie 0.396 bits from H.
    assert ref.typical_set_probability([0.75, 0.25], 2, 0.1) == 0.0
    assert ref.typical_set_probability([0.75, 0.25], 2, 0.4) \
        == pytest.approx(0.9375)


def test_frequency_typical_hand_values():
    assert ref.frequency_typical_probability([0.5, 0.5], 2, 0.0) \
        == pytest.approx(0.5)
    assert ref.frequency_typical_probability([0.5, 0.5], 4, 0.25) \
        == pytest.approx(0.875)


@pytest.mark.parametrize("probs,n,delta", [
    ([0.6, 0.3, 0.1], 5, 0.2),
    ([0.5, 0.2, 0.2, 0.1], 4, 0.3),
    ([0.7, 0.3], 8, 0.05),
])
def test_type_sums_match_sequence_enumeration(probs, n, delta):
    assert ref.typical_set_probability(probs, n, delta) == pytest.approx(
        ref.typical_set_probability_brute(probs, n, delta), abs=1e-14)
    assert ref.frequency_typical_probability(probs, n, delta) \
        == pytest.approx(
            ref.frequency_typical_probability_brute(probs, n, delta),
            abs=1e-14)


def test_hoeffding_blocklength_hand_value():
    # surprisals log2(1/0.8) and log2(1/0.2) are 2 bits apart:
    # ceil(4 ln(20) / (2 * 0.1^2)) = ceil(599.15)
    assert ref.hoeffding_blocklength([0.8, 0.2], 0.1, 0.1) == 600


def test_concentration_slack_hand_values():
    # uniform letters: no variance, only the type-class deficit log2(n+1)/n
    assert ref.concentration_slack([0.5, 0.5], 1, 10) == pytest.approx(1.0)
    assert ref.concentration_slack([0.25] * 4, 7, 3) == pytest.approx(
        3 * 3 / 7)
