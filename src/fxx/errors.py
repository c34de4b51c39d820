"""Exception hierarchy shared by all pricing modules."""


class PricingError(Exception):
    """Base class for every error raised by this library."""


class DomainError(PricingError, ValueError):
    """An input value is outside the mathematical domain of an operation."""


class PreconditionError(PricingError, ValueError):
    """A contract/market combination violates a pricing precondition,
    e.g. an already-breached barrier or a degenerate bump."""


class ClassificationError(PreconditionError):
    """A barrier configuration contradicts itself, e.g. a barrier flagged as
    lower lying above one flagged as upper, so no pricing rule applies."""


class NumericalError(PricingError, ArithmeticError):
    """A computation lost numerical validity (overflow, non-finite intermediate)."""


class IllConditionedError(NumericalError):
    """A linear system is singular or too ill-conditioned to trust."""


class TruncationWarning(UserWarning):
    """A truncated series was evaluated with a tail term above tolerance."""
