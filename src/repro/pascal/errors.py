"""Error types and source locations for the Mini-Pascal substrate.

Every diagnostic raised by the lexer, parser, semantic analyzer, or
interpreter carries a :class:`SourceLocation` so that tools built on top
(the debugger, the slicer, the transformation pipeline) can point back at
the original program text.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class SourceLocation:
    """A (line, column) position in a source file, 1-based."""

    line: int = 0
    column: int = 0

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"

    @classmethod
    def unknown(cls) -> "SourceLocation":
        return cls(0, 0)


class PascalError(Exception):
    """Base class for every diagnostic produced by the substrate."""

    def __init__(self, message: str, location: SourceLocation | None = None):
        self.location = location or SourceLocation.unknown()
        self.message = message
        super().__init__(f"{self.location}: {message}" if location else message)


class LexError(PascalError):
    """Raised when the scanner meets a character sequence it cannot tokenize."""


class ParseError(PascalError):
    """Raised when the token stream does not form a valid program."""


class SemanticError(PascalError):
    """Raised for name-resolution and type errors."""


class NameLookupError(PascalError, KeyError):
    """Raised when a name the user gave (a routine, a variable, a unit
    activation) does not resolve. Still a :class:`KeyError`, so lookups
    guarded by ``except KeyError`` keep working."""

    # KeyError's str() would quote the message.
    __str__ = Exception.__str__


class PascalRuntimeError(PascalError):
    """Raised when program execution fails (division by zero, bad index, ...)."""


class StepLimitExceeded(PascalRuntimeError):
    """Raised when execution exceeds the interpreter's step budget.

    The debugger runs user programs that may loop forever; a step budget
    turns runaway executions into a diagnosable failure.
    """


class UndefinedValueError(PascalRuntimeError):
    """Raised when a program reads a variable that was never assigned."""
