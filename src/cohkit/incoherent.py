"""Incoherent Kraus machinery: validation, channel classification, selective
application, majorization testing with constructive witnesses, and explicit
synthesis of pure-state transformations.

An incoherent Kraus operator has at most one nonzero entry per column,
K = sum_i c(i) |j(i)><i|; it is strictly incoherent when its adjoint is
incoherent too, i.e. when j is one-to-one on the support.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvariantViolationError,
    ResourceLimitError,
    TransformationImpossibleError,
)
from .qstate import (
    BasisPartition,
    DensityMatrix,
    PureState,
    _check_finite,
    _check_probability_vector,
    _complex_json,
    _j2c,
    _json_int,
    _json_number,
    DIM_CAP,
)

COMPLETENESS_ATOL = 1e-9
CERTIFICATE_ATOL = 1e-12
INCOHERENT_ENTRY_TOL = 1e-12
ZERO_AMPLITUDE_TOL = 1e-12
BIRKHOFF_ATOL = 1e-9
SELECTIVE_PROB_FLOOR = 1e-12  # selective outcomes below this are dropped
NCG_TOL = 1e-10               # off-(block-)diagonal image entries

STRICTLY_INCOHERENT = "strictly_incoherent"
INCOHERENT = "incoherent"
NON_COHERENCE_GENERATING = "non_coherence_generating"
UNCLASSIFIED = "unclassified"


class KrausOperator:
    """A Kraus operator, optionally carrying an incoherence certificate.

    The certificate is the pair (j_map, coefficients) exhibiting the form
    K = sum_i c(i) |j(i)><i|; when present it is validated entrywise.
    """

    def __init__(self, entries, j_map=None, coefficients=None):
        m = np.asarray(entries, dtype=complex)
        if m.ndim != 2:
            raise InvariantViolationError("kraus_shape", f"ndim {m.ndim}")
        _check_finite(m)
        m = m.copy()
        m.flags.writeable = False
        self.entries = m
        self.j_map = None if j_map is None else np.asarray(j_map, dtype=int)
        self.coefficients = (None if coefficients is None
                             else np.asarray(coefficients, dtype=complex))
        if (self.j_map is None) != (self.coefficients is None):
            raise InvariantViolationError(
                "certificate", "j_map and coefficients must come together")
        if self.j_map is not None:
            self._validate_certificate()

    def _validate_certificate(self):
        rows, cols = self.entries.shape
        if self.j_map.size != cols or self.coefficients.size != cols:
            raise InvariantViolationError(
                "certificate", "certificate length != column count")
        if np.any((self.j_map < 0) | (self.j_map >= rows)):
            raise InvariantViolationError(
                "certificate", f"row index outside [0, {rows})")
        rebuilt = np.zeros_like(self.entries)
        rebuilt[self.j_map, np.arange(cols)] = self.coefficients
        defect = float(np.max(np.abs(rebuilt - self.entries)))
        if defect > CERTIFICATE_ATOL:
            raise InvariantViolationError(
                "certificate", f"max deviation {defect:.3e}")

    @classmethod
    def from_certificate(cls, j_map, coefficients,
                         rows: int) -> "KrausOperator":
        """The rows x len(j_map) operator sum_i c(i) |j(i)><i|."""
        j_map = np.asarray(j_map, dtype=int)
        m = np.zeros((rows, j_map.size), dtype=complex)
        m[j_map, np.arange(j_map.size)] = coefficients
        return cls(m, j_map=j_map, coefficients=coefficients)

    def scaled(self, factor) -> "KrausOperator":
        """factor * K, with its certificate scaled alike."""
        coefficients = (None if self.coefficients is None
                        else factor * self.coefficients)
        return KrausOperator(factor * self.entries, self.j_map, coefficients)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]


def _birkhoff_json(terms) -> list:
    """Birkhoff terms (weight, permutation) as JSON objects."""
    return [{"weight": float(w), "perm": [int(i) for i in p]}
            for w, p in terms]


class IncoherentChannel:
    """A cptp map given by Kraus operators, with its free class.

    Completeness sum K^dag K = 1 is enforced on construction.
    """

    def __init__(self, kraus, birkhoff=None):
        if not kraus:
            raise InvariantViolationError("channel", "no Kraus operators")
        ops = [k if isinstance(k, KrausOperator) else KrausOperator(k)
               for k in kraus]
        shapes = {(k.rows, k.cols) for k in ops}
        if len(shapes) > 1:
            raise DimensionMismatchError(f"mixed Kraus shapes {shapes}")
        self.kraus = ops
        self.birkhoff = birkhoff
        defect = self.completeness_defect()
        if defect > COMPLETENESS_ATOL:
            raise InvariantViolationError(
                "completeness", f"max deviation {defect:.3e}")

    @functools.cached_property
    def class_label(self) -> str:
        """The channel's free class, computed from its Kraus operators."""
        return classify_channel(self)

    @property
    def dim_in(self) -> int:
        return self.kraus[0].cols

    @property
    def dim_out(self) -> int:
        return self.kraus[0].rows

    def completeness_defect(self) -> float:
        acc = np.zeros((self.dim_in, self.dim_in), dtype=complex)
        for k in self.kraus:
            acc += k.entries.conj().T @ k.entries
        return float(np.max(np.abs(acc - np.eye(self.dim_in))))

    def to_dict(self) -> dict:
        out = {"dim_in": self.dim_in, "dim_out": self.dim_out,
               "kraus": _complex_json([k.entries for k in self.kraus]),
               "class": self.class_label}
        if all(k.j_map is not None for k in self.kraus):
            out["certificates"] = [
                {"j": [int(j) for j in k.j_map],
                 "c": _complex_json(k.coefficients)}
                for k in self.kraus]
        if self.birkhoff is not None:
            out["birkhoff"] = _birkhoff_json(self.birkhoff)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "IncoherentChannel":
        mats = [np.array([[_j2c(z) for z in row] for row in m], dtype=complex)
                for m in data["kraus"]]
        certs = data.get("certificates")
        if certs is None:
            ops = [KrausOperator(m) for m in mats]
        elif len(certs) != len(mats):
            raise InvariantViolationError(
                "json_schema",
                f"{len(certs)} certificates for {len(mats)} Kraus operators")
        else:
            ops = [KrausOperator(m, j_map=[_json_int(j) for j in c["j"]],
                                 coefficients=[_j2c(z) for z in c["c"]])
                   for m, c in zip(mats, certs)]
        birkhoff = None
        if "birkhoff" in data:
            birkhoff = [(_json_number(b["weight"]),
                         np.array([_json_int(i) for i in b["perm"]], dtype=int))
                        for b in data["birkhoff"]]
        channel = cls(ops, birkhoff=birkhoff)
        for key in ("dim_in", "dim_out"):
            if key in data and _json_int(data[key]) != getattr(channel, key):
                raise InvariantViolationError(
                    "json_shape", f"declared {key} {data[key]}, Kraus "
                    f"operators {channel.dim_out} x {channel.dim_in}")
        return channel


def _kraus_images(ch: IncoherentChannel, rho: DensityMatrix):
    """K_l rho K_l^dag for each Kraus operator, in order."""
    if ch.dim_in != rho.dim:
        raise DimensionMismatchError(
            f"channel dim_in {ch.dim_in} != state dim {rho.dim}")
    for k in ch.kraus:
        yield k.entries @ rho.matrix @ k.entries.conj().T


def apply_channel(ch: IncoherentChannel, rho: DensityMatrix) -> DensityMatrix:
    """sum_l K_l rho K_l^dag."""
    return DensityMatrix(sum(_kraus_images(ch, rho)))


def apply_selective(ch: IncoherentChannel, rho: DensityMatrix):
    """Measurement outcomes [(p_l, rho_l)] with p_l rho_l = K_l rho K_l^dag.

    Outcomes with probability below ``SELECTIVE_PROB_FLOOR`` are dropped.
    """
    outcomes = []
    for m in _kraus_images(ch, rho):
        p = float(np.real(np.trace(m)))
        if p >= SELECTIVE_PROB_FLOOR:
            outcomes.append((p, DensityMatrix(m / p)))
    return outcomes


def _block_support(kraus: np.ndarray,
                   partition: BasisPartition | None) -> np.ndarray:
    """Which (output block, input block) pairs each Kraus operator connects.

    ``kraus`` is the stacked (k, d_out, d_in) array; the result is a boolean
    (k, output blocks, input blocks) tensor.  Without a partition every basis
    index is a block and the test is |K_ij| > INCOHERENT_ENTRY_TOL; with one,
    a pair's mass is the Frobenius norm of its sub-matrix, sqrt(P^T |K|^2 P)
    with P the block-indicator matrix.
    """
    if partition is None:
        return np.abs(kraus) > INCOHERENT_ENTRY_TOL
    p = partition.indicator()
    return np.sqrt(p.T @ np.abs(kraus) ** 2 @ p) > INCOHERENT_ENTRY_TOL


def classify_channel(ch: IncoherentChannel,
                     partition: BasisPartition | None = None) -> str:
    """Classify the channel within the free-operation hierarchy.

    strictly_incoherent and incoherent are representation-dependent tests on
    the given Kraus set: every operator sends each input block into at most
    one output block, and (strictly) draws each output block from at most one
    input block.  non_coherence_generating is the representation-free test
    that the channel preserves the (block-)diagonal operator subspace.
    """
    if partition is not None and not (
            partition.dim == ch.dim_in == ch.dim_out):
        raise DimensionMismatchError(
            f"partition dim {partition.dim} != channel dims "
            f"{ch.dim_out} x {ch.dim_in}")
    kraus = np.stack([k.entries for k in ch.kraus])
    support = _block_support(kraus, partition)
    if np.all(support.sum(axis=1) <= 1):
        if np.all(support.sum(axis=2) <= 1):
            return STRICTLY_INCOHERENT
        return INCOHERENT
    if _preserves_diagonal_subspace(kraus, partition):
        return NON_COHERENCE_GENERATING
    return UNCLASSIFIED


def _preserves_diagonal_subspace(kraus: np.ndarray,
                                 partition: BasisPartition | None) -> bool:
    d_out, d_in = kraus.shape[1:]
    if partition is None:
        blocks = [(i,) for i in range(d_in)]
        off_block = ~np.eye(d_out, dtype=bool)
    else:
        blocks = partition.blocks
        off_block = ~partition.mask()
    conj = kraus.conj()
    for block in blocks:
        cols = conj[:, :, list(block)]
        for a in block:
            # Images of |a><b| for every b in the block:
            # sum_l K_l[:, a] K_l[:, b]^dag.
            images = np.einsum("li,ljb->bij", kraus[:, :, a], cols)
            if np.any(np.abs(images[:, off_block]) > NCG_TOL):
                return False
    return True


@dataclass
class MajorizationWitness:
    """Outcome of a majorization test p > q, with constructive certificates.

    When the relation holds, ``bistochastic`` D satisfies q = D p and
    ``birkhoff`` decomposes D into at most d permutations, so that
    q = sum_pi lambda_pi p^pi with p^pi(i) = p[pi(i)].
    """
    holds: bool
    source_spectrum: np.ndarray
    target_spectrum: np.ndarray
    bistochastic: np.ndarray | None = None
    birkhoff: list = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {"holds": self.holds,
               "source_spectrum": [float(x) for x in self.source_spectrum],
               "target_spectrum": [float(x) for x in self.target_spectrum]}
        if self.bistochastic is not None:
            out["bistochastic"] = [[float(x) for x in row]
                                   for row in self.bistochastic]
            out["birkhoff"] = _birkhoff_json(self.birkhoff)
        return out


def _permutohedron_terms(p: np.ndarray, q: np.ndarray):
    """Write q as sum_k lambda_k p[perm_k] with at most d = p.size terms.

    p and q sum to 1, and q lies in the permutohedron of p (the convex hull
    of its permutations).  Its faces are chains of tight sets: sets of j
    residual indices whose sum is s times the sum of p's j smallest entries,
    s the remaining weight.  Each step takes the vertex of p ordered like the
    residual within the blocks those sets cut, and removes the largest
    multiple of it that keeps every bottom-j sum of the residual at least s
    times p's.  Each such constraint is convex and piecewise linear in the
    step, so Newton steps from the whole weight s reach the boundary from
    above; the constraint met there is tight from then on.  A chain holds at
    most d - 1 tight sets, so after at most d - 1 steps every block is one
    index and the last vertex takes the remaining weight.  Bottom sums keep
    small entries to relative precision, which the Kraus operators built
    from the witness need.
    """
    d = p.size
    unit = d * np.finfo(float).eps      # relative rounding of a d-term sum
    order_p = np.argsort(p, kind="stable")
    low = np.cumsum(p[order_p])
    tight = np.arange(d) == d - 1       # all d indices: equal sums
    block = np.zeros(d, dtype=int)
    residual = q.copy()
    terms = []

    def deficits(alpha):
        # Bottom-j deficits of residual - alpha * vertex, summed block by
        # block (tight ones masked), and their rounding.
        x = residual - alpha * vertex
        idx = np.lexsort((x, block))
        deficit = (s - alpha) * low - np.cumsum(x[idx])
        rounding = unit * ((s - alpha) * low + np.cumsum(
            np.abs(residual[idx]) + alpha * vertex[idx]))
        return idx, np.where(tight, -np.inf, deficit), rounding

    for _ in range(d):
        s = float(residual.sum())
        order = np.lexsort((residual, block))
        perm = np.empty(d, dtype=int)
        perm[order] = order_p
        vertex = p[perm]
        _, deficit, rounding = deficits(0.0)
        tight |= deficit >= -rounding
        block[order] = np.cumsum(tight) - tight
        alpha, met = s, None
        for _ in range(d * d):
            idx, deficit, rounding = deficits(alpha)
            k = int(np.argmax(deficit - rounding))
            if deficit[k] <= rounding[k]:
                break
            # d deficit_k / d alpha: the vertex over x's bottom k + 1 minus p.
            alpha -= deficit[k] / (vertex[idx[:k + 1]].sum() - low[k])
            met = k
        terms.append((alpha, perm))
        if met is None:
            break
        tight[met] = True
        residual -= alpha * vertex
    return terms


def majorization_check(p, q) -> MajorizationWitness:
    """Test whether p majorizes q; on success produce constructive witnesses.

    ``holds`` is true when every sorted-descending partial sum of p dominates
    the corresponding partial sum of q (tolerance 1e-10 per partial sum).
    The witnesses are expressed in the original (unsorted) coordinates:
    q = D p with D doubly stochastic, and D = sum lambda_pi P_pi with at most
    d permutations (p and q taken at unit sum).
    """
    p = np.asarray(p, dtype=float).reshape(-1)
    q = np.asarray(q, dtype=float).reshape(-1)
    d = max(p.size, q.size)
    p = np.pad(p, (0, d - p.size))
    q = np.pad(q, (0, d - q.size))
    _check_probability_vector(p)
    _check_probability_vector(q)

    p_sorted = np.sort(p)[::-1]
    q_sorted = np.sort(q)[::-1]
    partial = np.cumsum(p_sorted) - np.cumsum(q_sorted)
    holds = bool(np.all(partial >= -1e-10))
    if not holds:
        return MajorizationWitness(holds=False, source_spectrum=q_sorted,
                                   target_spectrum=p_sorted)

    p_unit = p / p.sum()
    q_unit = q / q.sum()
    terms = _permutohedron_terms(p_unit, q_unit)
    ds = np.zeros((d, d))
    for lam, perm in terms:
        ds[np.arange(d), perm] += lam
    defect = float(np.max(np.abs(ds @ p_unit - q_unit)))
    if not defect <= BIRKHOFF_ATOL:
        raise InvariantViolationError(
            "birkhoff", f"reconstruction deviates by {defect:.3e}")
    return MajorizationWitness(holds=True, source_spectrum=q_sorted,
                               target_spectrum=p_sorted, bistochastic=ds,
                               birkhoff=terms)


def maximally_coherent(d: int) -> PureState:
    """The uniform-amplitude state; the d = 2 case is the unit resource."""
    if d < 2:
        raise InvariantViolationError("dimension", f"d = {d} < 2")
    return PureState(np.full(d, 1.0 / math.sqrt(d), dtype=complex))


def rank_of_diagonal(psi: PureState) -> int:
    """Number of basis indices carrying weight above 1e-12; this rank cannot
    increase under (probabilistic) incoherent operations."""
    return int(np.sum(psi.probabilities() > ZERO_AMPLITUDE_TOL))


def synthesize_pure_transformation(source: PureState,
                                   target: PureState) -> IncoherentChannel:
    """Strictly incoherent channel mapping ``source`` deterministically to
    ``target`` (up to phase), built from the Birkhoff witness.

    Requires diag(target) to majorize diag(source); raises
    :class:`TransformationImpossibleError` carrying the witness otherwise.
    The witness writes q = diag(source) as sum_pi lambda_pi p[pi] with at
    most d permutations of p = diag(target).  Every Kraus operator
    K_pi = sum_i sqrt(lambda_pi p[pi(i)] / q_i) |pi(i)><i| (dressed with the
    amplitude phases) maps the source onto the target with outcome
    probability lambda_pi.
    """
    if source.dim != target.dim:
        raise DimensionMismatchError(
            f"source dim {source.dim} != target dim {target.dim}")
    d = source.dim
    q = source.probabilities()
    p = target.probabilities()
    witness = majorization_check(p, q)
    if not witness.holds:
        raise TransformationImpossibleError(
            "target diagonal does not majorize source diagonal",
            witness=witness)

    # Column i is scaled by q_hat = D p rather than by q, so that completeness
    # sum_pi lambda_pi p[pi(i)] / q_hat_i = 1 holds by construction; a source
    # index with q_hat_i = 0 never occurs and follows each pi with weight
    # lambda_pi.
    q_hat = witness.bistochastic @ p
    src_phase = np.angle(source.amplitudes)
    tgt_phase = np.angle(target.amplitudes)
    kraus = []
    for lam, perm in witness.birkhoff:
        weight = np.divide(lam * p[perm], q_hat, out=np.full(d, lam),
                           where=q_hat > 0)
        coeff = np.sqrt(weight) * np.exp(1j * (tgt_phase[perm] - src_phase))
        kraus.append(KrausOperator.from_certificate(perm, coeff, d))
    return IncoherentChannel(kraus, birkhoff=witness.birkhoff)


def generate_from_maximally_coherent(target: DensityMatrix) -> IncoherentChannel:
    """Incoherent channel preparing ``target`` from the maximally coherent
    state of the same dimension, by mixing per-eigenvector syntheses."""
    d = target.dim
    source = maximally_coherent(d)
    vals, vecs = target.eigh()
    keep = np.flatnonzero(vals > 1e-12)
    weights = vals[keep]
    weights = weights / weights.sum()
    kraus = []
    for w, idx in zip(weights, keep):
        branch = synthesize_pure_transformation(source,
                                                PureState(vecs[:, idx]))
        kraus += [k.scaled(math.sqrt(w)) for k in branch.kraus]
    return IncoherentChannel(kraus)


def embed_maximally_correlated(rho: DensityMatrix) -> DensityMatrix:
    """The maximally correlated two-copy image: rho_ij |ii><jj|.

    This is what a CNOT produces from rho tensor |0><0|; it carries the
    coherence measures of rho over to entanglement measures.
    """
    d = rho.dim
    if d * d > DIM_CAP:
        raise ResourceLimitError(f"embedded dim {d * d} exceeds cap {DIM_CAP}")
    out = np.zeros((d * d, d * d), dtype=complex)
    diag_idx = np.arange(d) * d + np.arange(d)
    out[np.ix_(diag_idx, diag_idx)] = rho.matrix
    return DensityMatrix(out)


def cnot_channel(d: int = 2) -> IncoherentChannel:
    """The two-qudit CNOT |i>|j> -> |i>|i+j mod d>, a basis permutation."""
    dim = d * d
    perm = np.empty(dim, dtype=int)
    for i in range(d):
        for j in range(d):
            perm[i * d + j] = i * d + (i + j) % d
    return IncoherentChannel(
        [KrausOperator.from_certificate(perm, np.ones(dim), dim)])


def dephasing_channel(d: int) -> IncoherentChannel:
    """Kraus set {|i><i|}; implements the singleton pinching."""
    kraus = [KrausOperator.from_certificate(np.full(d, i), np.eye(d)[i], d)
             for i in range(d)]
    return IncoherentChannel(kraus)
