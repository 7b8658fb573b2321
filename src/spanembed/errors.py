"""Exception types shared across the package.

The CLI maps these onto exit codes; library callers can catch them
individually.
"""


class SpanembedError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(SpanembedError, ValueError):
    """An argument violates a documented precondition."""


class InfeasibleParametersError(SpanembedError):
    """Parameters violate a theorem hypothesis; the operation does not attempt."""


class UnsupportedSizeError(SpanembedError):
    """An instance exceeds what an exact routine can handle (int32 indices or capacities)."""


class GenerationFailedError(SpanembedError):
    """A synthetic instance failed verification after all resampling attempts."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class PartitionFailedError(SpanembedError):
    """Pattern partitioning could not complete its embedding step."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class EstimateUnreliableError(SpanembedError):
    """Too few conditioning successes to report a meaningful estimate."""


class InternalInvariantError(SpanembedError):
    """A guaranteed postcondition failed; indicates a bug, not bad input."""
