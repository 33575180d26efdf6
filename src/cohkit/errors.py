"""Exception taxonomy shared across the package.

The CLI maps these onto its exit codes: input files that are missing,
unreadable (a directory, or not UTF-8) or malformed, and ``--out`` paths
that cannot be written, give exit 1; :class:`InvariantViolationError` and
the other errors here give exit 2; :class:`TransformationImpossibleError`
gives exit 3.  A failed ``selftest`` exits 4.
"""


class CohkitError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(CohkitError):
    """Operands have incompatible Hilbert-space dimensions."""


class InvariantViolationError(CohkitError):
    """An input violates one of its documented invariants.

    ``invariant`` names the violated invariant (e.g. ``"hermitian"``,
    ``"unit_trace"``, ``"completeness"``) so callers can report it precisely.
    """

    def __init__(self, invariant: str, detail: str = ""):
        self.invariant = invariant
        self.detail = detail
        msg = f"invariant violated: {invariant}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class ResourceLimitError(CohkitError):
    """A computation would exceed the configured size/compute budget."""


class TransformationImpossibleError(CohkitError):
    """The requested pure-state transformation is not majorization-allowed.

    Carries the failed majorization witness in ``witness``.
    """

    def __init__(self, message: str, witness):
        self.witness = witness
        super().__init__(message)


class UndefinedRateError(CohkitError):
    """Conversion rate bounds are undefined (target state is incoherent)."""


class ConvergenceError(CohkitError):
    """A numerical optimizer failed to converge; carries the best value found."""

    def __init__(self, message: str, best_value=None):
        self.best_value = best_value
        super().__init__(message)
