"""Coherence quantifiers: entropy of coherence, relative entropy of coherence
(the distillable rate), coherence of formation (the preparation cost), their
continuity bounds and mixed-state conversion-rate bounds.

The coherence of formation is a convex-roof minimization; the optimizer below
reports an upper bound together with the lower side of the bracket, the larger
of C_r and a closed-form bound, and claims an exact value only when it reaches
that lower side.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

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
    _json_number,
    binary_entropy,
    shannon_entropy,
    von_neumann_entropy,
)
from .rand import random_isometry, rng_for

COHERENT_TOL = 1e-9
WEIGHT_PRUNE_TOL = 1e-12
# Variational C_r oracle: floor of every q_i, stop tolerance (bits and
# coordinate move), and step cap.
VARIATIONAL_FLOOR = 1e-15
VARIATIONAL_TOL = 1e-15
VARIATIONAL_MAXITER = 1000
# Roof optimizer: L-BFGS memory, eigenvalue floor of the preconditioner,
# squared-gradient stop, Armijo constant, smallest backtracking step,
# iteration cap, and the distance above C_r at which a restart's value is a
# certified optimum.
LBFGS_MEMORY = 8
PRECOND_FLOOR = 1e-4
GRAD_TOL = 1e-14
ARMIJO = 1e-4
MIN_STEP = 1e-10
MAX_ITER = 1000
CERTIFY_TOL = 1e-12


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
        rho: DensityMatrix, *, return_minimizer: bool = False):
    """min over diagonal sigma = diag(q) of S(rho||sigma), solved numerically.

    The built-in cross-check oracle for :func:`relative_entropy_of_coherence`:
    it iterates to the minimum and never reads the answer off the diagonal.
    The objective f(q) = -S(rho) - sum_i rho_ii log2 q_i is minimized over
    the probability simplex with q_i >= VARIATIONAL_FLOOR by projected
    Newton.  Coordinates with rho_ii <= VARIATIONAL_FLOOR are pinned to the
    floor; the rest start uniform.  The Hessian is diag(rho_ii / q_i^2)/ln 2,
    so the Newton step on the face sum(q) = const is closed-form in O(d).
    Each step is cut to stay above the floor and then halved until it
    passes the Armijo test.  The search stops when the Newton decrement
    (the predicted decrease, in bits) or the largest coordinate move is at
    most VARIATIONAL_TOL.  Raises :class:`ConvergenceError`, carrying the
    best value found, only if VARIATIONAL_MAXITER steps do not get there.
    """
    diag = rho.diagonal()
    free = diag > VARIATIONAL_FLOOR
    p = diag[free]
    mass = 1.0 - VARIATIONAL_FLOOR * (diag.size - p.size)
    # -S(rho) plus the pinned coordinates' share of the objective.
    offset = (-von_neumann_entropy(rho)
              - float(diag[~free].sum()) * math.log2(VARIATIONAL_FLOOR))

    def objective(x):
        return offset - float(p @ np.log2(x))

    x = np.full(p.size, mass / p.size)
    value = objective(x)
    for _ in range(VARIATIONAL_MAXITER):
        # Newton step on the face sum(x) = const: the inverse Hessian is
        # w ln 2 = x^2 ln 2 / p and the gradient -p / (x ln 2).
        w = x * x / p
        step = x - w * (x.sum() / w.sum())
        decrement = float((p / x) @ step) / LN2
        if decrement <= VARIATIONAL_TOL:
            break
        # Stop 1% short of the floor, then backtrack; a step that no longer
        # moves any coordinate by VARIATIONAL_TOL ends the search.
        shrink = step < 0
        t = min(1.0, 0.99 * float(np.min(
            (x[shrink] - VARIATIONAL_FLOOR) / -step[shrink], initial=np.inf)))
        while t * float(np.abs(step).max()) > VARIATIONAL_TOL:
            trial = objective(x + t * step)
            if trial <= value - ARMIJO * t * decrement:
                break
            t *= 0.5
        else:
            break
        x = x + t * step
        value = trial
    else:
        raise ConvergenceError(
            f"simplex Newton did not converge in {VARIATIONAL_MAXITER} steps",
            best_value=max(0.0, value))
    value = max(0.0, value)
    if return_minimizer:
        q = np.full(diag.size, VARIATIONAL_FLOOR)
        q[free] = x
        return value, q
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
    def from_dict(cls, data: dict, **kwargs) -> "Ensemble":
        """``kwargs`` (such as ``atol``) go to each member's constructor."""
        return cls(np.array([_json_number(w) for w in data["weights"]]),
                   [PureState.from_dict(m, **kwargs) for m in data["members"]])


@dataclass
class ConvexRoofResult:
    """Best ensemble found by the roof optimizer; ``value`` is an upper bound
    and ``lower_bound`` the other side of the bracket, labelled by
    ``lower_by``: ``"cr"`` (C_r) or ``"l1_bound"`` (:func:`cf_lower_bound`).
    ``certified`` means a restart reached the lower bound, so ``value`` is
    the optimum."""
    value: float
    ensemble: Ensemble
    restarts: int
    converged: bool
    lower_bound: float
    lower_by: str
    certified: bool

    def to_dict(self) -> dict:
        return {"value": self.value, "ensemble": self.ensemble.to_dict(),
                "restarts": self.restarts, "converged": self.converged,
                "bound_kind": "upper", "lower_bound": self.lower_bound,
                "lower_by": self.lower_by, "certified": self.certified}


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
    log_xi = np.log(p_xi, where=mask, out=np.zeros_like(p_xi))
    log_i = np.log(p_i, where=p_i > 1e-300, out=np.zeros_like(p_i))
    f_nats = float(np.sum(p_i * log_i)) - float(np.sum(p_xi * log_xi))
    log_ratio = np.where(mask, log_i - log_xi, 0.0)
    grad_w = w * log_ratio / LN2
    grad_u = grad_w.T @ factor.conj()
    return f_nats / LN2, grad_u


def _polar(m: np.ndarray) -> np.ndarray:
    u, _, vt = np.linalg.svd(m, full_matrices=False)
    return u @ vt


def _tangent(u: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Projection g - U sym(U^H g) onto the tangent space at the isometry u."""
    sym = u.conj().T @ g
    return g - u @ (0.5 * (sym + sym.conj().T))


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    """Real inner product Re tr(a^H b) of the ambient space."""
    return np.vdot(a, b).real


def _spectral_preconditioner(factor: np.ndarray):
    """Model of the inverse curvature of the roof on the tangent space at u.

    Moving the isometry by dU moves the ensemble ``factor @ U.T`` by
    ``factor @ dU.T``, and column j of ``factor`` has squared norm lambda_j,
    an eigenvalue of rho.  So a rotation U A (A skew-Hermitian) weighs entry
    A_jk by (lambda_j + lambda_k) / 2, and a component B outside the range
    of U weighs its column k by lambda_k.  Dividing by these weights (each
    eigenvalue floored at ``PRECOND_FLOOR``) undoes the spread of rho's
    spectrum, which otherwise slows the descent by up to a factor of
    lambda_max / lambda_min.
    """
    lam = np.sum(np.abs(factor) ** 2, axis=0) + PRECOND_FLOOR
    pair = 2.0 / (lam[:, None] + lam[None, :])

    def apply(u: np.ndarray, q: np.ndarray) -> np.ndarray:
        a = u.conj().T @ q
        return u @ (0.5 * (a - a.conj().T) * pair) + (q - u @ a) / lam

    return apply


def _two_loop(u, xi, memory, precondition) -> np.ndarray:
    """L-BFGS product H xi from the (s, y, 1/sy) pairs (oldest first), with
    H0 = gamma * precondition; without pairs the step has length <= 1."""
    q = xi.copy()
    alphas = []
    for s, y, inv_sy in reversed(memory):
        alphas.append(inv_sy * _inner(s, q))
        q -= alphas[-1] * y
    q = precondition(u, q)
    if memory:
        _, y, inv_sy = memory[-1]
        q /= inv_sy * _inner(y, precondition(u, y))
    else:
        q /= max(1.0, math.sqrt(_inner(q, q)))
    for (s, y, inv_sy), alpha in zip(memory, reversed(alphas)):
        q += (alpha - inv_sy * _inner(y, q)) * s
    return q


def _lbfgs(u: np.ndarray, factor: np.ndarray, target: float):
    """Riemannian L-BFGS on the m x r isometries, from the start ``u``.

    The memory pairs (s, y) are ambient differences of successive points and
    of their Riemannian gradients; only the search direction is projected
    onto the tangent space.  Steps are retracted by the polar factor and
    found by Armijo backtracking from t = 1.  Stops when the squared
    gradient norm falls below ``GRAD_TOL``, when the value reaches
    ``target``, when backtracking fails, or after ``MAX_ITER`` steps.
    """
    precondition = _spectral_preconditioner(factor)
    f, g = _roof_value_grad(u, factor)
    xi = _tangent(u, g)
    memory = deque(maxlen=LBFGS_MEMORY)  # appending drops the oldest pair
    for _ in range(MAX_ITER):
        if f <= target or _inner(xi, xi) < GRAD_TOL:
            break
        while True:
            direction = -_tangent(u, _two_loop(u, xi, memory, precondition))
            slope = _inner(xi, direction)
            if slope < 0.0 or not memory:
                break
            memory.clear()  # the memory lost descent: forget it
        t = 1.0
        while True:
            u_new = _polar(u + t * direction)
            f_new, g_new = _roof_value_grad(u_new, factor)
            if f_new <= f + ARMIJO * t * slope:
                break
            t *= 0.5
            if t < MIN_STEP:
                return f, u
        xi_new = _tangent(u_new, g_new)
        s, y = u_new - u, xi_new - xi
        sy = _inner(s, y)
        if sy > 0.0:
            memory.append((s, y, 1.0 / sy))
        u, f, xi = u_new, f_new, xi_new
    return f, u


def _ensemble_from_isometry(u: np.ndarray, factor: np.ndarray) -> Ensemble:
    w = factor @ u.T
    weights = np.real(np.sum(w * w.conj(), axis=0))
    # Deterministic report: heaviest member first, global phase fixed so the
    # first non-negligible amplitude is real positive.
    kept, members = [], []
    for i in np.argsort(-weights, kind="stable"):
        if weights[i] <= WEIGHT_PRUNE_TOL:
            break
        a = w[:, i] / math.sqrt(weights[i])
        nz = np.flatnonzero(np.abs(a) > 1e-9)
        a = a * np.exp(-1j * np.angle(a[nz[0]]))
        kept.append(weights[i])
        members.append(PureState(a / np.linalg.norm(a)))
    kept = np.array(kept)
    return Ensemble(kept / kept.sum(), members)


def cf_lower_bound(rho: DensityMatrix) -> float:
    """Closed-form lower bound B(rho) <= C_f(rho) in bits, exact on every
    qubit and on every isotropic state p Phi_d + (1 - p) I / d.

    C_f(rho) is the entanglement of formation of the maximally correlated
    state sum_ij rho_ij |ii><jj|, whose partial transpose has trace norm
    L = 1 + C_l1(rho).  The Chen-Albeverio-Fei bound (PRL 95, 040504
    (2005)), convexified as by Terhal and Vollbrecht (PRL 85, 2625 (2000)),
    is B = co R(min(d, L)) with R(L) = h(g) + (1 - g) log2(d - 1) and
    g = (sqrt(L) + sqrt((d - 1)(d - L)))^2 / d^2.  co R is R up to
    L = 4(d - 1)/d and above it the line
    (log2(d - 1)/(d - 2)) (L - d) + log2 d.
    """
    d = rho.dim
    m = np.abs(rho.matrix)
    lam = min(float(d), 1.0 + max(0.0, float(m.sum() - np.trace(m))))
    if lam <= 1.0:
        return 0.0
    if d > 2 and lam > 4.0 * (d - 1) / d:
        return math.log2(d - 1) / (d - 2) * (lam - d) + math.log2(d)
    g = min(1.0, (math.sqrt(lam) + math.sqrt((d - 1) * (d - lam))) ** 2 / d**2)
    return binary_entropy(g) + (1.0 - g) * math.log2(d - 1)


def coherence_of_formation(rho: DensityMatrix, restarts: int = 32,
                           seed: int = 0) -> ConvexRoofResult:
    """Convex-roof bracket [max(C_r, B), value] on the coherence of formation.

    Ensembles of rho are parameterized by m x r isometries mixing the
    spectral square root (every decomposition arises this way).  m cycles
    through r, 2r and r^2: by Caratheodory's theorem a rank-r state needs at
    most r^2 members.  Restart k starts from
    ``random_isometry(m, r, rng_for(seed, k))`` and runs Riemannian
    L-BFGS, preconditioned by the spectrum of rho (polar retraction, Armijo
    backtracking from t = 1), until the squared gradient norm falls below
    1e-14, backtracking fails, or the value comes within 1e-12 of the lower
    side of the bracket.  That side is C_r, or B = :func:`cf_lower_bound`
    where B exceeds C_r by more than 1e-12 (``lower_by`` says which); B is
    exact on qubits and isotropic states.  Since it is below C_f, reaching
    it certifies the optimum: ``certified`` is set and the remaining
    restarts are skipped, so ``restarts`` counts the restarts run.
    ``converged`` is set when the optimum is certified or the two best
    restarts agree within 1e-6.  Otherwise the value is an upper bound and
    ``lower_bound`` the other side of the bracket.
    """
    restarts = int(restarts)
    if restarts < 1:
        raise ValueError(f"restarts {restarts} < 1")
    factor = rho.factor()
    r = factor.shape[1]
    sizes = sorted({r, min(2 * r, r * r), r * r})
    lower, lower_by = relative_entropy_of_coherence(rho), "cr"
    bound = cf_lower_bound(rho)
    if bound > lower + CERTIFY_TOL:
        lower, lower_by = bound, "l1_bound"
    target = lower + CERTIFY_TOL

    results = []
    for k in range(restarts):
        m = sizes[k % len(sizes)]
        f, u = _lbfgs(random_isometry(m, r, rng_for(seed, k)), factor, target)
        results.append((f, u))
        if f <= target:
            break
    certified = results[-1][0] <= target

    values = sorted(f for f, _ in results)
    converged = certified or (
        len(values) >= 2 and (values[1] - values[0]) <= 1e-6)
    # Tie-break equal-value restarts toward the smallest pruned ensemble,
    # then the earliest restart (min keeps the first of equal sizes).
    best_ens = min((_ensemble_from_isometry(u, factor) for f, u in results
                    if f <= values[0] + 1e-9), key=lambda ens: ens.size)
    # lower <= C_f: a dip below it within CERTIFY_TOL is rounding and reads
    # as lower; a larger one is a fault and is reported as computed.
    avg = best_ens.average_coherence()
    value = lower if lower - CERTIFY_TOL <= avg < lower else avg
    return ConvexRoofResult(value=value, ensemble=best_ens,
                            restarts=len(results), converged=converged,
                            lower_bound=lower, lower_by=lower_by,
                            certified=certified)


def coherence_of_formation_qubit(rho: DensityMatrix) -> float:
    """Closed-form qubit coherence of formation: the d = 2 case of
    :func:`cf_lower_bound`, where the bound is exact (it is then the
    concurrence formula, with concurrence 2|rho_01|)."""
    if rho.dim != 2:
        raise DimensionMismatchError("closed form only available for qubits")
    return cf_lower_bound(rho)


def _check_continuity_domain(d: int, eps: float) -> None:
    if d < 2:
        raise ValueError(f"dimension {d} < 2")
    if eps < 0.0 or eps > 1.0:
        raise ValueError(f"eps {eps} outside [0, 1]")


def cr_continuity_bound(d: int, eps: float) -> float:
    """eps * log2(d) + 2 h(eps/2): continuity modulus of the relative entropy
    of coherence at trace distance eps."""
    _check_continuity_domain(d, eps)
    return eps * math.log2(d) + 2.0 * binary_entropy(eps / 2.0)


def cf_continuity_bound(d: int, eps: float) -> float:
    """eps * log2(d) + (1+eps) h(eps/(1+eps)): continuity modulus of the
    coherence of formation at Bures distance eps."""
    _check_continuity_domain(d, eps)
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
    reported lower bound valid.  The upper bound divides by the lower side
    of the roof's bracket on C_f(sigma).  Raises if sigma is incoherent.
    """
    cr_sigma = relative_entropy_of_coherence(sigma)
    if cr_sigma <= COHERENT_TOL:
        raise UndefinedRateError(
            "target state is incoherent; conversion rate diverges")
    cr_rho = relative_entropy_of_coherence(rho)
    cf_sigma = coherence_of_formation(sigma, restarts=restarts, seed=seed)
    cf_rho = coherence_of_formation(rho, restarts=restarts, seed=seed)
    lower = cr_rho / cf_sigma.value
    upper = min(cr_rho / cr_sigma, cf_rho.value / cf_sigma.lower_bound)
    return RateBounds(lower=lower, upper=upper)
