"""Core state objects, dephasing, entropies and distance measures.

All logarithms are base 2 and every entropic quantity is reported in bits.
States are validated on construction and immutable afterwards, so they are
safe to share between threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvariantViolationError,
    ResourceLimitError,
)

LN2 = math.log(2.0)

# Validation tolerances.  The Hermiticity/trace checks run on the raw input
# before symmetrization; eigenvalues in [PSD_FLOOR, 0) are treated as rounding
# dust, anything below is a genuine violation.
HERMITIAN_ATOL = 1e-10
PSD_FLOOR = -1e-9
PURE_NORM_ATOL = 1e-12

# Numerical conventions for entropic quantities.  The floor applies to
# eigenvalue spectra only: an eigensolver returns its rounding as tiny
# eigenvalues, while a probability vector's small entries are real weight.
ENTROPY_EIG_FLOOR = 1e-12
SUPPORT_TOL = 1e-10
# Probability vectors: entries >= -PROBABILITY_ATOL, sum within it of 1.
PROBABILITY_ATOL = 1e-9

# Cap on composite dimensions (tensor products, embeddings).
DIM_CAP = 4096
# The parts a JSON complex-number object may name.
_COMPLEX_KEYS = frozenset(("re", "im"))


def _check_finite(a: np.ndarray) -> None:
    if not np.all(np.isfinite(a)):
        raise InvariantViolationError("finite", "NaN or infinite entries")


def _check_probability_vector(p: np.ndarray) -> None:
    _check_finite(p)
    if np.any(p < -PROBABILITY_ATOL):
        raise InvariantViolationError("probability_vector", "negative entry")
    if abs(float(p.sum()) - 1.0) > PROBABILITY_ATOL:
        raise InvariantViolationError("probability_vector",
                                      f"sum {float(p.sum())!r} != 1")


def _as_complex_matrix(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvariantViolationError("square_matrix", f"shape {m.shape}")
    _check_finite(m)
    return m


class DensityMatrix:
    """A d x d complex, Hermitian, PSD, unit-trace matrix.

    The raw input must be Hermitian within ``atol`` per entry; it is then
    symmetrized to absorb I/O rounding before the trace and positivity checks.
    The positivity check reads the one eigendecomposition of the state, which
    is kept (read-only) for every spectral quantity computed from it.
    """

    def __init__(self, matrix, *, atol: float = HERMITIAN_ATOL):
        # Halved first (exactly), so that sums of finite entries near the
        # float maximum stay finite.
        half = 0.5 * _as_complex_matrix(matrix)
        herm_defect = 2.0 * float(np.max(np.abs(half - half.conj().T))) \
            if half.size else 0.0
        if herm_defect > atol:
            raise InvariantViolationError(
                "hermitian", f"max deviation {herm_defect:.3e} > {atol:.1e}")
        m = half + half.conj().T
        # A Python sum: past the float maximum it is inf, with no warning.
        tr = sum(m.diagonal().real.tolist())
        if abs(tr - 1.0) > atol:
            raise InvariantViolationError(
                "unit_trace", f"trace {tr!r} deviates by {abs(tr - 1.0):.3e}")
        vals, vecs = np.linalg.eigh(m)
        # Written to fail on NaN: eigh returns all-NaN eigenvalues when
        # entries near the float maximum overflow inside it.
        if not vals[0] >= PSD_FLOOR:
            raise InvariantViolationError(
                "positive_semidefinite", f"min eigenvalue {vals[0]:.3e}")
        for a in (m, vals, vecs):
            a.flags.writeable = False
        self._matrix = m
        self._eigh = (vals, vecs)

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    def diagonal(self) -> np.ndarray:
        """Diagonal entries as a real vector, negative dust clipped to 0."""
        return np.clip(np.real(np.diag(self._matrix)), 0.0, None)

    def eigh(self):
        """The eigendecomposition taken at validation (ascending eigenvalues)."""
        return self._eigh

    def factor(self) -> np.ndarray:
        """B = U sqrt(Lambda) over the eigenpairs above d * eps * lambda_max
        (the rank tolerance of ``numpy.linalg.matrix_rank``; smaller ones are
        rounding dust), so rho = B B^dagger, sqrt(rho) = B U^dagger and B has
        one column per unit of rank."""
        vals, vecs = self._eigh
        keep = vals > vals.size * np.finfo(float).eps * vals[-1]
        return vecs[:, keep] * np.sqrt(vals[keep])

    def max_offdiagonal(self) -> float:
        off = self._matrix - np.diag(np.diag(self._matrix))
        return float(np.max(np.abs(off))) if self.dim > 1 else 0.0

    @classmethod
    def from_pure(cls, psi: "PureState") -> "DensityMatrix":
        a = psi.amplitudes
        return cls(np.outer(a, a.conj()))

    @classmethod
    def from_diagonal(cls, probs) -> "DensityMatrix":
        p = np.asarray(probs, dtype=float)
        return cls(np.diag(p.astype(complex)))

    @classmethod
    def maximally_mixed(cls, d: int) -> "DensityMatrix":
        return cls(np.eye(d, dtype=complex) / d)

    def to_dict(self) -> dict:
        return {"dim": self.dim,
                "matrix": _complex_json(self._matrix)}

    @classmethod
    def from_dict(cls, data: dict, **kwargs) -> "DensityMatrix":
        d = _json_int(data["dim"])
        m = np.array([[_j2c(z) for z in row] for row in data["matrix"]],
                     dtype=complex)
        if m.shape != (d, d):
            raise InvariantViolationError(
                "json_shape", f"declared dim {d}, matrix shape {m.shape}")
        return cls(m, **kwargs)

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


class PureState:
    """A unit-norm complex amplitude vector in the fixed incoherent basis."""

    def __init__(self, amplitudes, *, atol: float = PURE_NORM_ATOL):
        a = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if a.size == 0:
            raise InvariantViolationError("dimension", "empty amplitude vector")
        _check_finite(a)
        norm2 = float(np.real(np.vdot(a, a)))
        if abs(norm2 - 1.0) > atol:
            raise InvariantViolationError(
                "unit_norm", f"|amplitudes|^2 = {norm2!r}")
        a.flags.writeable = False
        self._amplitudes = a

    @property
    def dim(self) -> int:
        return self._amplitudes.size

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amplitudes

    def probabilities(self) -> np.ndarray:
        """Diagonal of the projector: |amplitude|^2 per basis index."""
        a = self._amplitudes
        return np.real(a * a.conj())

    def to_density(self) -> DensityMatrix:
        return DensityMatrix.from_pure(self)

    @classmethod
    def normalized(cls, amplitudes) -> "PureState":
        a = np.asarray(amplitudes, dtype=complex).reshape(-1)
        n = np.linalg.norm(a)
        if n == 0:
            raise InvariantViolationError("unit_norm", "zero vector")
        return cls(a / n)

    @classmethod
    def basis_state(cls, d: int, i: int) -> "PureState":
        a = np.zeros(d, dtype=complex)
        a[i] = 1.0
        return cls(a)

    def to_dict(self) -> dict:
        return {"dim": self.dim,
                "amplitudes": _complex_json(self._amplitudes)}

    @classmethod
    def from_dict(cls, data: dict, **kwargs) -> "PureState":
        d = _json_int(data["dim"])
        a = np.array([_j2c(z) for z in data["amplitudes"]], dtype=complex)
        if a.size != d:
            raise InvariantViolationError(
                "json_shape", f"declared dim {d}, {a.size} amplitudes")
        return cls(a, **kwargs)

    def __repr__(self):
        return f"PureState(dim={self.dim})"


class BasisPartition:
    """A partition of the basis indices {0, ..., d-1} into disjoint blocks.

    The all-singletons partition recovers the ordinary basis-diagonal theory;
    coarser partitions give the block-decohering generalization.  Blocks are
    ordered by smallest index; ``labels`` holds each index's block number.
    """

    def __init__(self, dim: int, blocks):
        blocks = [tuple(sorted(int(i) for i in b)) for b in blocks]
        seen = set()
        for b in blocks:
            if not b:
                raise InvariantViolationError("partition_empty", "empty block")
            for i in b:
                if i < 0 or i >= dim:
                    raise InvariantViolationError(
                        "partition_range", f"index {i} outside [0, {dim})")
                if i in seen:
                    raise InvariantViolationError(
                        "partition_disjoint", f"index {i} in two blocks")
                seen.add(i)
        if len(seen) != dim:
            raise InvariantViolationError(
                "partition_cover", f"{dim - len(seen)} indices uncovered")
        self.dim = dim
        self.blocks = tuple(sorted(blocks, key=lambda b: b[0]))
        labels = np.empty(dim, dtype=int)
        for n, b in enumerate(self.blocks):
            labels[list(b)] = n
        labels.flags.writeable = False
        self.labels = labels

    @classmethod
    def singleton(cls, dim: int) -> "BasisPartition":
        return cls(dim, [[i] for i in range(dim)])

    def mask(self) -> np.ndarray:
        """Boolean d x d matrix marking same-block entry pairs."""
        return self.labels[:, None] == self.labels[None, :]

    def indicator(self) -> np.ndarray:
        """d x blocks 0/1 matrix; column b marks the indices of block b."""
        return np.eye(len(self.blocks))[self.labels]

    def to_dict(self) -> dict:
        return {"dim": self.dim, "blocks": [list(b) for b in self.blocks]}

    @classmethod
    def from_dict(cls, data: dict) -> "BasisPartition":
        return cls(_json_int(data["dim"]),
                   [[_json_int(i) for i in b] for b in data["blocks"]])

    def __repr__(self):
        return f"BasisPartition(dim={self.dim}, blocks={self.blocks})"


@dataclass(frozen=True)
class DistanceReport:
    """Fidelity, (normalized) trace distance and Bures distance of a pair."""
    fidelity: float
    trace_distance: float
    bures: float


def dephase(rho: DensityMatrix, partition: BasisPartition | None = None) -> DensityMatrix:
    """Pinching map: delete all off-block entries.

    With the default singleton partition this keeps only the diagonal.
    """
    if partition is None:
        return DensityMatrix(np.diag(np.diag(rho.matrix)))
    if partition.dim != rho.dim:
        raise DimensionMismatchError(
            f"partition dim {partition.dim} != state dim {rho.dim}")
    return DensityMatrix(np.where(partition.mask(), rho.matrix, 0.0))


def shannon_entropy(probs) -> float:
    """Base-2 Shannon entropy; every positive weight counts."""
    p = np.asarray(probs, dtype=float)
    p = p[p > 0.0]
    return float(max(0.0, -np.sum(p * np.log2(p))))


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2 (1-x)."""
    if x < 0.0 or x > 1.0:
        raise ValueError(f"binary entropy argument {x} outside [0, 1]")
    return shannon_entropy([x, 1.0 - x])


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -tr rho log2 rho, in bits; eigenvalues below the floor are
    rounding dust and contribute 0."""
    vals, _ = rho.eigh()
    return shannon_entropy(vals[vals >= ENTROPY_EIG_FLOOR])


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Quantum relative entropy S(rho||sigma) in bits.

    Returns +inf when the support of rho is not contained in the support of
    sigma (eigenvalues below ``SUPPORT_TOL`` count as zero).
    """
    if rho.dim != sigma.dim:
        raise DimensionMismatchError(f"dims {rho.dim} != {sigma.dim}")
    svals, svecs = sigma.eigh()
    # rho expressed in sigma's eigenbasis; only the diagonal enters the trace.
    rho_in_s = np.real(np.einsum(
        "ia,ij,ja->a", svecs.conj(), rho.matrix, svecs))
    null = svals < SUPPORT_TOL
    if np.any(null) and float(np.sum(rho_in_s[null])) > SUPPORT_TOL:
        return math.inf
    keep = ~null
    cross = float(np.sum(rho_in_s[keep] * np.log2(svals[keep])))
    return max(0.0, -von_neumann_entropy(rho) - cross)


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """F(rho, sigma) = ||sqrt(rho) sqrt(sigma)||_1, in [0, 1].

    With the factors rho = B B^dagger and sigma = C C^dagger, the nonzero
    singular values of sqrt(rho) sqrt(sigma) are those of B^dagger C, whose
    side is the rank of each state.
    """
    if rho.dim != sigma.dim:
        raise DimensionMismatchError(f"dims {rho.dim} != {sigma.dim}")
    overlap = rho.factor().conj().T @ sigma.factor()
    svals = np.linalg.svd(overlap, compute_uv=False)
    return float(np.clip(np.sum(svals), 0.0, 1.0))


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """(1/2) ||rho - sigma||_1."""
    if rho.dim != sigma.dim:
        raise DimensionMismatchError(f"dims {rho.dim} != {sigma.dim}")
    vals = np.linalg.eigvalsh(rho.matrix - sigma.matrix)
    return 0.5 * float(np.sum(np.abs(vals)))


def distances(rho: DensityMatrix, sigma: DensityMatrix) -> DistanceReport:
    """Fidelity, trace distance and Bures distance B = sqrt(2(1-F))."""
    f = fidelity(rho, sigma)
    td = trace_distance(rho, sigma)
    bures = math.sqrt(max(0.0, 2.0 * (1.0 - f)))
    return DistanceReport(fidelity=f, trace_distance=td, bures=bures)


def tensor(rho: DensityMatrix, sigma: DensityMatrix) -> DensityMatrix:
    """Kronecker product of two states; errors beyond DIM_CAP dimensions."""
    out_dim = rho.dim * sigma.dim
    if out_dim > DIM_CAP:
        raise ResourceLimitError(
            f"tensor output dim {out_dim} exceeds cap {DIM_CAP}")
    return DensityMatrix(np.kron(rho.matrix, sigma.matrix))


# -- JSON helpers -------------------------------------------------------------

def _complex_json(a) -> list:
    """Nested lists of {"re", "im"} objects with the shape of array ``a``."""
    def pair(re, im):
        if isinstance(re, list):
            return [pair(r, i) for r, i in zip(re, im)]
        return {"re": re, "im": im}
    a = np.asarray(a, dtype=complex)
    return pair(a.real.tolist(), a.imag.tolist())


def _json_number(obj) -> float:
    """A JSON number (an int or a float, not a bool) as a float."""
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise InvariantViolationError(
            "json_schema", f"expected a number, got {obj!r:.40}")
    return float(obj)


def _json_int(obj) -> int:
    """A JSON number with an integral value (2 or 2.0) as an int."""
    if not _json_number(obj).is_integer():
        raise InvariantViolationError(
            "json_schema", f"expected an integer, got {obj!r:.40}")
    return int(obj)


def _j2c(obj) -> complex:
    """A JSON number, or an object with keys among {"re", "im"} (a missing
    part is 0), as a complex number."""
    if isinstance(obj, dict):
        if not obj or not obj.keys() <= _COMPLEX_KEYS:
            raise InvariantViolationError(
                "json_schema", f"complex entry with keys {sorted(obj)}")
        return complex(_json_number(obj.get("re", 0.0)),
                       _json_number(obj.get("im", 0.0)))
    return complex(_json_number(obj))


def dumps_json(obj) -> str:
    """Compact JSON with sorted keys: the one encoding of every report and
    file.  Without ``indent`` (and through ``dumps``, not ``dump``) CPython
    uses its C encoder."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def state_from_dict(data: dict, **kwargs):
    """Dispatch a parsed state JSON object to the right constructor."""
    if "matrix" in data:
        return DensityMatrix.from_dict(data, **kwargs)
    if "amplitudes" in data:
        return PureState.from_dict(data, **kwargs)
    raise InvariantViolationError(
        "json_schema", "expected one of: matrix, amplitudes")
