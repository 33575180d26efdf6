"""Seeded input generators, written with numpy alone.

The workloads build their states, ensembles and channels here rather than
with ``cohkit.rand``, so that what a check expects follows from how an input
was built and not from the program under test.  Matrices are returned as
plain complex arrays; the workloads hand them to the program.
"""

from __future__ import annotations

import numpy as np


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *map(int, stream)])


def ginibre_state(d: int, rng, rank: int | None = None) -> np.ndarray:
    """Random density matrix G G^dag / tr, G a d x rank complex Ginibre."""
    rank = d if rank is None else rank
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return m / np.real(np.trace(m))


def pure_amplitudes(d: int, rng, floor: float = 0.0) -> np.ndarray:
    """Random unit vector; with ``floor`` every |amplitude|^2 >= floor / d."""
    mags = (1.0 - floor) * rng.dirichlet(np.full(d, 2.0)) + floor / d
    phases = np.exp(2j * np.pi * rng.uniform(size=d))
    return np.sqrt(mags) * phases


def projector(a: np.ndarray) -> np.ndarray:
    return np.outer(a, a.conj())


def probability_vector(d: int, rng, floor: float = 0.3) -> np.ndarray:
    """Dirichlet draw mixed with the uniform vector, so no letter is rare."""
    return (1.0 - floor) * rng.dirichlet(np.full(d, 2.0)) + floor / d


def block_pure_state(sizes, rng):
    """Direct sum of pure states on consecutive basis blocks of the given
    sizes.  Returns (matrix, weights, member amplitude vectors).

    Block amplitudes are bounded away from zero so each block is one
    connected component of the off-diagonal support.
    """
    d = int(sum(sizes))
    weights = probability_vector(len(sizes), rng)
    m = np.zeros((d, d), dtype=complex)
    members = []
    start = 0
    for w, b in zip(weights, sizes):
        amp = rng.uniform(0.35, 1.0, size=b) * np.exp(
            2j * np.pi * rng.uniform(size=b))
        vec = np.zeros(d, dtype=complex)
        vec[start:start + b] = amp / np.linalg.norm(amp)
        members.append(vec)
        m += w * projector(vec)
        start += b
    return m, weights, members


def non_psd_matrix(d: int, rng) -> np.ndarray:
    """Hermitian, unit trace, with one eigenvalue at -0.2."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d))
                        + 1j * rng.standard_normal((d, d)))
    eigs = np.full(d, 1.2 / (d - 1))
    eigs[0] = -0.2
    m = (q * eigs) @ q.conj().T
    return 0.5 * (m + m.conj().T)


def majorizing_pair(d: int, rng):
    """(source, target) amplitudes with diag(target) majorizing
    diag(source): the source diagonal mixes permutations of the target's."""
    p = probability_vector(d, rng, floor=0.05)
    lam = rng.dirichlet(np.ones(d))
    q = sum(w * p[rng.permutation(d)] for w in lam)
    q = q / q.sum()
    src = np.sqrt(q) * np.exp(2j * np.pi * rng.uniform(size=d))
    tgt = np.sqrt(p) * np.exp(2j * np.pi * rng.uniform(size=d))
    return src, tgt


def strict_kraus(d: int, n_kraus: int, rng) -> list:
    """Permutation-shaped Kraus operators (strictly incoherent channel)."""
    coeff = rng.standard_normal((n_kraus, d)) + 1j * rng.standard_normal(
        (n_kraus, d))
    coeff /= np.linalg.norm(coeff, axis=0, keepdims=True)
    ops = []
    for ell in range(n_kraus):
        m = np.zeros((d, d), dtype=complex)
        m[rng.permutation(d), np.arange(d)] = coeff[ell]
        ops.append(m)
    return ops


def merge_kraus(d: int, rng) -> list:
    """Incoherent, not strictly incoherent: each operator collapses every
    input onto one basis state, |t_l> w_l^dag with w_l rows of a unitary."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    u, _ = np.linalg.qr(g)
    targets = rng.integers(0, d, size=d)
    ops = []
    for ell in range(d):
        m = np.zeros((d, d), dtype=complex)
        m[targets[ell], :] = u[ell].conj()
        ops.append(m)
    return ops


def mixed_kraus(ops: list, rng) -> list:
    """The same channel in another Kraus representation, K'_i = sum_j
    V_ij K_j with V a random unitary; its operators are generically not
    incoherent, while the channel still maps diagonal states to diagonal
    states."""
    n = len(ops)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    v, _ = np.linalg.qr(g)
    return [sum(v[i, j] * ops[j] for j in range(n)) for i in range(n)]


def complex_json(z) -> dict:
    return {"re": float(np.real(z)), "im": float(np.imag(z))}


def density_json(m: np.ndarray) -> dict:
    return {"dim": int(m.shape[0]),
            "matrix": [[complex_json(z) for z in row] for row in m]}


def pure_json(a: np.ndarray) -> dict:
    return {"dim": int(a.size), "amplitudes": [complex_json(z) for z in a]}


def channel_json(ops: list) -> dict:
    d = int(ops[0].shape[0])
    return {"dim_in": d, "dim_out": d,
            "kraus": [[[complex_json(z) for z in row] for row in k]
                      for k in ops]}


def ensemble_json(weights, members) -> dict:
    return {"weights": [float(w) for w in weights],
            "members": [pure_json(a) for a in members]}
