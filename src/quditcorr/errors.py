"""Exception types shared across the package."""


class QuditCorrError(Exception):
    """Base class for every error this package raises deliberately."""


class DomainError(QuditCorrError, ValueError):
    """A value lies outside the domain its type or operation admits."""


class UsageError(QuditCorrError, ValueError):
    """An operation was called with structurally inconsistent arguments."""


class ConditioningOnNull(DomainError):
    """The conditioning event has zero probability; the Bayes ratio is undefined."""


class ValidationError(DomainError):
    """A density-matrix invariant failed; subclasses name the invariant."""


class NotHermitian(ValidationError):
    """The matrix differs from its conjugate transpose beyond tolerance."""


class TraceNotOne(ValidationError):
    """The trace differs from one beyond tolerance."""


class NotPSD(ValidationError):
    """The negative eigenvalues sum below -PSD_ATOL."""
