"""Exception types shared across the package."""


class RamspaceError(Exception):
    """Base class for all package-specific errors."""


class MixedSpaceError(RamspaceError, TypeError):
    """Raised when values from different spaces are combined."""


class OutOfRangeError(RamspaceError, IndexError):
    """Raised when an approximation index exceeds the truncation."""


class NotInSpaceError(RamspaceError):
    """Raised when an approximation is not below any chain element."""


class EmptyNeighborhoodError(RamspaceError):
    """Raised when an operation requires a nonempty neighborhood."""


class InvalidApproximationError(RamspaceError, ValueError):
    """Raised when a payload violates the invariants of its space."""


class ParseError(RamspaceError, ValueError):
    """Raised when a serialized value cannot be parsed back."""


class CeilingExceededError(RamspaceError):
    """Refusal to start a computation whose size estimate exceeds a ceiling.

    Carries the estimate so callers can report it ("refuse with estimate").
    """

    def __init__(self, message: str, estimate: int, ceiling: int):
        super().__init__(f"{message} (estimated {estimate} > ceiling {ceiling})")
        self.estimate = estimate
        self.ceiling = ceiling

