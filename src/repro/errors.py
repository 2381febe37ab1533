"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  Subclasses are organised by the
subsystem that raises them.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GeometryError(ReproError):
    """Raised for invalid geometric input (dimension mismatches, etc.)."""


class DimensionMismatchError(GeometryError):
    """Raised when vectors/points of incompatible dimensions are combined."""


class SingularSystemError(GeometryError):
    """Raised when a linear system expected to be regular is singular."""


class LPError(GeometryError):
    """Raised when the LP solver receives malformed input."""


class FormulaError(ReproError):
    """Raised for ill-formed constraint formulas."""


class NonLinearTermError(FormulaError):
    """Raised when a term that must stay linear would become non-linear."""


class ParseError(ReproError):
    """Raised by the constraint and query parsers on malformed input."""

    def __init__(self, message: str, position: int | None = None,
                 text: str | None = None) -> None:
        self.position = position
        self.text = text
        if position is not None and text is not None:
            context = text[max(0, position - 20):position + 20]
            message = f"{message} (at position {position}, near {context!r})"
        super().__init__(message)


class EvaluationError(ReproError):
    """Raised when a query cannot be evaluated on a given database."""


class UnboundVariableError(EvaluationError):
    """Raised when evaluation encounters a variable missing from the scope."""


class CaptureError(ReproError):
    """Raised by the Turing-machine capture toolkit."""


class WorkloadError(ReproError):
    """Raised by workload generators for invalid parameters."""


class DeltaError(ReproError):
    """Raised for invalid incremental updates (unknown relation, schema
    mismatch, retracting a disjunct the relation does not contain)."""
