"""Shared exception types."""


class ParseError(ValueError):
    """Raised on malformed text input; carries the byte offset of the problem."""

    def __init__(self, message, pos=None):
        self.message = message
        self.pos = pos
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)


class BudgetError(RuntimeError):
    """Raised when a computation would exceed the configured enumeration budget."""
