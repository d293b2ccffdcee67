"""Exception types shared across the package."""


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
