"""cohkit: operational coherence toolkit.

Coherence measures with their operational meaning (distillable coherence,
coherence cost), explicit incoherent-channel synthesis for pure-state
transformations, finite-blocklength protocol simulators, and the exact
reversibility criterion for mixed states.  All logarithms base 2.
"""

from .errors import (
    CohkitError,
    ConvergenceError,
    DimensionMismatchError,
    InvariantViolationError,
    ResourceLimitError,
    TransformationImpossibleError,
    UndefinedRateError,
)
from .qstate import (
    BasisPartition,
    DensityMatrix,
    DistanceReport,
    PureState,
    binary_entropy,
    dephase,
    distances,
    fidelity,
    relative_entropy,
    shannon_entropy,
    tensor,
    trace_distance,
    von_neumann_entropy,
)
from .measures import (
    ConvexRoofResult,
    Ensemble,
    RateBounds,
    cf_continuity_bound,
    cf_lower_bound,
    coherence_of_formation,
    coherence_of_formation_qubit,
    conversion_rate_bounds,
    cr_continuity_bound,
    entropy_of_coherence,
    relative_entropy_of_coherence,
    relative_entropy_of_coherence_variational,
)
from .incoherent import (
    IncoherentChannel,
    KrausOperator,
    MajorizationWitness,
    apply_channel,
    apply_selective,
    classify_channel,
    cnot_channel,
    dephasing_channel,
    embed_maximally_correlated,
    generate_from_maximally_coherent,
    majorization_check,
    maximally_coherent,
    rank_of_diagonal,
    synthesize_pure_transformation,
)
from .asymptotic import (
    CoveringCheckReport,
    ProtocolTrace,
    converse_fidelity_bound,
    covering_check,
    dilution_blocklength,
    frequency_typical_probability,
    log2_type_class_size,
    simulate_concentration,
    simulate_dilution,
    simulate_formation,
    typical_set_probability,
)
from .reversibility import (
    BlockDecomposition,
    ReversibilityVerdict,
    bound_coherence_check,
    detect_blocks,
    is_reversible,
)

__version__ = "0.1.0"
