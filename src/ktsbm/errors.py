"""Exception types shared across the package, and the one size check."""

import math
import numbers


class ValidationError(ValueError):
    """Raised when inputs violate a documented precondition or file format."""


class GraphFormatError(ValidationError):
    """Raised on malformed graph/label files; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InfeasibleSizeError(RuntimeError):
    """Raised when an exact enumeration would exceed its fixed cap."""


def require_int(name: str, value, low: int = 1, high: float = math.inf) -> int:
    """Return ``value`` as an int if it is an integer (numpy ones included,
    bool excluded) in [low, high]; raise ValidationError otherwise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not low <= value <= high:
        upper = f" and <= {high}" if high < math.inf else ""
        raise ValidationError(f"{name} must be an integer >= {low}{upper}, got {value!r}")
    return int(value)
