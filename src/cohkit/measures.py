"""Coherence quantifiers: entropy of coherence, relative entropy of coherence
(the distillable rate), coherence of formation (the preparation cost), their
continuity bounds and mixed-state conversion-rate bounds.

The coherence of formation is a convex-roof minimization; the optimizer below
reports certified upper bounds only (with restart diagnostics), never claimed
exact values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    InvariantViolationError,
    UndefinedRateError,
)
from .qstate import (
    LN2,
    DensityMatrix,
    PureState,
    _check_finite,
    binary_entropy,
    shannon_entropy,
    von_neumann_entropy,
)
from .rand import random_isometry, rng_for

COHERENT_TOL = 1e-9
WEIGHT_PRUNE_TOL = 1e-12


def entropy_of_coherence(psi: PureState) -> float:
    """Entropy of coherence of a pure state: Shannon entropy of |amplitudes|^2.

    This is the reversible asymptotic conversion rate between pure states.
    """
    return shannon_entropy(psi.probabilities())


def relative_entropy_of_coherence(rho: DensityMatrix) -> float:
    """S(diag(rho)) - S(rho): the distillable coherence, in bits."""
    s_diag = shannon_entropy(rho.diagonal())
    return max(0.0, s_diag - von_neumann_entropy(rho))


def relative_entropy_of_coherence_variational(
        rho: DensityMatrix, *, maxiter: int = 1000,
        return_minimizer: bool = False):
    """min over diagonal sigma of S(rho||sigma), solved numerically.

    Convex problem over the probability simplex; serves as the built-in
    cross-check oracle for :func:`relative_entropy_of_coherence`.  Raises
    :class:`ConvergenceError` (carrying the best value found) if the solver
    reports failure.
    """
    d = rho.dim
    diag = rho.diagonal()
    rvals, _ = rho.eigh()
    r = rvals[rvals >= 1e-12]
    tr_rho_log_rho = float(np.sum(r * np.log2(r))) if r.size else 0.0

    def objective(q):
        q = np.clip(q, 1e-300, None)
        val = tr_rho_log_rho - float(np.sum(diag * np.log2(q)))
        grad = -diag / (q * LN2)
        return val, grad

    x0 = np.full(d, 1.0 / d)
    res = scipy.optimize.minimize(
        objective, x0, jac=True, method="SLSQP",
        bounds=[(1e-15, 1.0)] * d,
        constraints=[{"type": "eq", "fun": lambda q: np.sum(q) - 1.0,
                      "jac": lambda q: np.ones_like(q)}],
        options={"maxiter": maxiter, "ftol": 1e-14})
    value = max(0.0, float(res.fun))
    if not res.success:
        raise ConvergenceError(
            f"simplex optimizer did not converge: {res.message}",
            best_value=value)
    if return_minimizer:
        q = np.clip(res.x, 0.0, None)
        return value, q / q.sum()
    return value


@dataclass
class Ensemble:
    """Convex decomposition {(p_i, psi_i)} of a density matrix."""
    weights: np.ndarray
    members: list

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        _check_finite(w)
        if np.any(w < -1e-12):
            raise InvariantViolationError("ensemble_weights", "negative weight")
        if abs(float(w.sum()) - 1.0) > 1e-10:
            raise InvariantViolationError(
                "ensemble_weights", f"sum {float(w.sum())!r} != 1")
        if len(self.members) != w.size:
            raise InvariantViolationError(
                "ensemble_size", f"{w.size} weights, {len(self.members)} members")
        dims = {m.dim for m in self.members}
        if len(dims) > 1:
            raise DimensionMismatchError(f"mixed member dims {dims}")
        self.weights = np.clip(w, 0.0, None)

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def dim(self) -> int:
        return self.members[0].dim

    def reconstruct(self) -> DensityMatrix:
        m = np.zeros((self.dim, self.dim), dtype=complex)
        for w, psi in zip(self.weights, self.members):
            a = psi.amplitudes
            m += w * np.outer(a, a.conj())
        return DensityMatrix(m)

    def average_coherence(self) -> float:
        """sum_i p_i S(diag(psi_i)), the roof objective at this ensemble."""
        return float(sum(w * entropy_of_coherence(psi)
                         for w, psi in zip(self.weights, self.members)))

    def to_dict(self) -> dict:
        return {"weights": [float(w) for w in self.weights],
                "members": [m.to_dict() for m in self.members]}

    @classmethod
    def from_dict(cls, data: dict) -> "Ensemble":
        return cls(np.asarray(data["weights"], dtype=float),
                   [PureState.from_dict(m) for m in data["members"]])


@dataclass
class ConvexRoofResult:
    """Best ensemble found by the roof optimizer; ``value`` is an upper bound."""
    value: float
    ensemble: Ensemble
    restarts: int
    converged: bool

    def to_dict(self) -> dict:
        return {"value": self.value, "ensemble": self.ensemble.to_dict(),
                "restarts": self.restarts, "converged": self.converged,
                "bound_kind": "upper"}


def _roof_value_grad(u: np.ndarray, factor: np.ndarray):
    """Roof objective (bits) and Wirtinger gradient d f / d conj(U).

    ``factor`` is the d x r spectral square-root of rho, ``u`` an m x r
    isometry; the unnormalized ensemble members are the columns of
    factor @ u.T.
    """
    w = factor @ u.T                      # d x m
    p_xi = np.real(w * w.conj())          # joint distribution over (index, member)
    p_i = p_xi.sum(axis=0)
    mask = p_xi > 1e-300
    f_nats = -float(np.sum(p_xi[mask] * np.log(p_xi[mask])))
    mi = p_i > 1e-300
    f_nats += float(np.sum(p_i[mi] * np.log(p_i[mi])))
    log_ratio = np.zeros_like(p_xi)
    log_ratio[:, mi] = np.log(p_i[mi])[None, :]
    log_ratio[mask] -= np.log(p_xi[mask])
    log_ratio[~mask] = 0.0
    grad_w = w * log_ratio / LN2
    grad_u = grad_w.T @ factor.conj()
    return f_nats / LN2, grad_u


def _polar(m: np.ndarray) -> np.ndarray:
    u, _, vt = np.linalg.svd(m, full_matrices=False)
    return u @ vt


def _descend(u: np.ndarray, factor: np.ndarray, maxiter: int = 300):
    """Projected gradient descent on the isometry manifold with backtracking."""
    f, g = _roof_value_grad(u, factor)
    step = 1.0
    stall = 0
    for _ in range(maxiter):
        sym = u.conj().T @ g
        xi = g - u @ (0.5 * (sym + sym.conj().T))
        slope = float(np.real(np.sum(xi.conj() * xi)))
        if slope < 1e-18:
            break
        accepted = False
        t = step
        while t > 1e-14:
            u_new = _polar(u - t * xi)
            f_new, g_new = _roof_value_grad(u_new, factor)
            if f_new <= f - 1e-4 * t * slope:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        stall = stall + 1 if f - f_new < 1e-12 else 0
        u, f, g = u_new, f_new, g_new
        step = min(4.0, t * 2.0)
        if stall >= 3:
            break
    return f, u


def _spectral_factor(rho: DensityMatrix) -> np.ndarray:
    vals, vecs = rho.eigh()
    keep = vals > 1e-12
    return vecs[:, keep] * np.sqrt(vals[keep])


def _ensemble_from_isometry(u: np.ndarray, factor: np.ndarray) -> Ensemble:
    w = factor @ u.T
    weights = np.real(np.sum(w * w.conj(), axis=0))
    keep = weights > WEIGHT_PRUNE_TOL
    w = w[:, keep]
    weights = weights[keep]
    members = [PureState(w[:, i] / math.sqrt(weights[i]))
               for i in range(w.shape[1])]
    # Deterministic report: heaviest member first, global phase fixed so the
    # first non-negligible amplitude is real positive.
    order = np.argsort(-weights, kind="stable")
    weights = weights[order]
    members = [members[i] for i in order]
    fixed = []
    for psi in members:
        a = psi.amplitudes.copy()
        nz = np.flatnonzero(np.abs(a) > 1e-9)
        if nz.size:
            a = a * np.exp(-1j * np.angle(a[nz[0]]))
        fixed.append(PureState(a / np.linalg.norm(a)))
    return Ensemble(weights / weights.sum(), fixed)


def coherence_of_formation(rho: DensityMatrix, restarts: int = 32,
                           max_ensemble: int | None = None,
                           seed: int = 0) -> ConvexRoofResult:
    """Convex-roof upper bound on the coherence of formation.

    Ensembles of rho are parameterized by m x r isometries mixing the spectral
    square root (every decomposition arises this way); m is capped at d^2.
    Random-restart projected gradient descent; ``converged`` is set when the
    two best restarts agree within 1e-6.  The reported value is an upper
    bound; no global optimality is certified.
    """
    d = rho.dim
    factor = _spectral_factor(rho)
    r = factor.shape[1]
    cap = d * d if max_ensemble is None else min(int(max_ensemble), d * d)
    cap = max(cap, r)
    sizes = sorted({r, min(2 * r, cap), cap})
    restarts = max(1, int(restarts))

    results = []
    for k in range(restarts):
        m = sizes[k % len(sizes)]
        if k == 0:
            u0 = np.zeros((m, r), dtype=complex)
            u0[:r, :r] = np.eye(r)
        else:
            u0 = random_isometry(m, r, rng_for(seed, k))
        f, u = _descend(u0, factor)
        results.append((f, m, k, u))

    values = sorted(res[0] for res in results)
    best_value = values[0]
    converged = len(values) >= 2 and (values[1] - values[0]) <= 1e-6
    # Tie-break equal-value restarts toward the smallest pruned ensemble.
    candidates = [res for res in results if res[0] <= best_value + 1e-9]
    best_ens = None
    best_key = None
    for f, m, k, u in candidates:
        ens = _ensemble_from_isometry(u, factor)
        key = (ens.size, k)
        if best_key is None or key < best_key:
            best_key = key
            best_ens = ens
    value = best_ens.average_coherence()
    return ConvexRoofResult(value=value, ensemble=best_ens,
                            restarts=restarts, converged=converged)


def coherence_of_formation_qubit(rho: DensityMatrix) -> float:
    """Closed-form qubit coherence of formation (oracle, not the main path).

    Equals the entanglement of formation of the associated maximally
    correlated two-qubit state, evaluated through the concurrence formula;
    the concurrence of that state is 2|rho_01|.
    """
    if rho.dim != 2:
        raise DimensionMismatchError("closed form only available for qubits")
    c = 2.0 * abs(rho.matrix[0, 1])
    x = 0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - c * c)))
    return binary_entropy(x)


def cr_continuity_bound(d: int, eps: float) -> float:
    """eps * log2(d) + 2 h(eps/2): continuity modulus of the relative entropy
    of coherence at trace distance eps."""
    if d < 2:
        raise ValueError(f"dimension {d} < 2")
    if eps < 0.0 or eps > 1.0:
        raise ValueError(f"eps {eps} outside [0, 1]")
    return eps * math.log2(d) + 2.0 * binary_entropy(eps / 2.0)


def cf_continuity_bound(d: int, eps: float) -> float:
    """eps * log2(d) + (1+eps) h(eps/(1+eps)): continuity modulus of the
    coherence of formation at Bures distance eps."""
    if d < 2:
        raise ValueError(f"dimension {d} < 2")
    if eps < 0.0 or eps > 1.0:
        raise ValueError(f"eps {eps} outside [0, 1]")
    return eps * math.log2(d) + (1.0 + eps) * binary_entropy(eps / (1.0 + eps))


@dataclass(frozen=True)
class RateBounds:
    """Monotone bounds on the asymptotic conversion rate rho -> sigma."""
    lower: float
    upper: float


def conversion_rate_bounds(rho: DensityMatrix, sigma: DensityMatrix, *,
                           restarts: int = 32, seed: int = 0) -> RateBounds:
    """Bounds C_r(rho)/C_f(sigma) <= R <= min(C_r(rho)/C_r(sigma),
    C_f(rho)/C_f(sigma)) on the mixed-state conversion rate.

    C_f values come from the roof optimizer (upper bounds), which keeps the
    reported lower bound valid.  Raises if sigma is incoherent.
    """
    cr_rho = relative_entropy_of_coherence(rho)
    cr_sigma = relative_entropy_of_coherence(sigma)
    if cr_sigma <= COHERENT_TOL:
        raise UndefinedRateError(
            "target state is incoherent; conversion rate diverges")
    cf_rho = coherence_of_formation(rho, restarts=restarts, seed=seed).value
    cf_sigma = coherence_of_formation(sigma, restarts=restarts, seed=seed).value
    lower = cr_rho / cf_sigma
    upper = min(cr_rho / cr_sigma, cf_rho / cf_sigma)
    return RateBounds(lower=lower, upper=upper)
