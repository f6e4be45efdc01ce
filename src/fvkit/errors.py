"""Exception types shared across the toolkit."""


class FvError(Exception):
    """Base class for all fvkit errors."""


class ParseError(FvError):
    """Raised on malformed formula text; carries the offending position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ValidationError(FvError):
    """Raised when an object violates its structural invariants."""


class BudgetExceeded(FvError):
    """Raised when a computation exceeds its work cap.

    Means "gave up", never "false" -- callers must treat it as inconclusive.
    """


class CapExceeded(FvError):
    """Raised when an enumeration exceeds its class cap (max_classes).

    Like BudgetExceeded this is an explicit inconclusive outcome; the
    enumeration never returns a truncated (wrong) answer.
    """
