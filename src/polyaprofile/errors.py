"""Exception types shared across the package.

The CLI maps these onto distinct exit codes (usage -> 2, accuracy -> 3).
"""


class UsageError(ValueError):
    """Caller violated an interface contract (mismatched rings, bad sizes)."""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class AccuracyError(RuntimeError):
    """A numeric routine cannot reach the requested accuracy.

    Typically raised when a series truncation order is too small for the
    evaluation point; the fix is to recompute with a larger order.
    """
