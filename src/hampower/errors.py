"""Structured exceptions shared across the toolkit.

Every failure mode that callers are expected to handle gets its own class;
attributes carry the machine-readable part of the report (positions, stage
names, offending vertices) so tests and the CLI do not have to parse
messages.
"""

from __future__ import annotations


class HamPowerError(Exception):
    """Base class for all toolkit errors."""


class InvalidHostError(HamPowerError):
    """Host template parameters violate the host invariants."""


class InvalidPatternError(HamPowerError):
    """Colour pattern does not cover the host edge set exactly."""


class InvalidInstanceError(HamPowerError):
    """Graph collection or instance/pattern file fails validation."""


class VerificationInputError(HamPowerError):
    """Embedding verification called with malformed input (length mismatch,
    repeated vertices)."""


class NoPerfectMatchingError(HamPowerError):
    """The bipartite graph has no perfect matching."""


class ConnectionFailedError(HamPowerError):
    """Greedy connector/extension ran out of candidates.

    ``position`` is the host position at which the candidate set became
    empty, or ``None`` for a single-vertex extension step.
    """

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class EmbeddingFailedError(HamPowerError):
    """Degeneracy-ordered greedy embedding found no image for a vertex."""

    def __init__(self, message: str, vertex: int | None = None):
        super().__init__(message)
        self.vertex = vertex


class NoMatchingError(HamPowerError):
    """Path builder found no perfect matching in the auxiliary tiling graph
    while attaching a level: the residual parts admit no extension of the
    current tiling in the pattern's colours.  ``step`` is the round (path)
    number and ``level`` the part being attached."""

    def __init__(self, message: str, step: int, level: int):
        super().__init__(message)
        self.step = step
        self.level = level


class TemplateError(HamPowerError):
    """Robustly matchable template construction or certification failed."""


class InfeasibleConfigError(HamPowerError):
    """Instance too small for the requested pipeline configuration."""

    def __init__(self, message: str, floor: int | None = None):
        super().__init__(message)
        self.floor = floor


class StageFailedError(HamPowerError):
    """A pipeline stage failed after exhausting its retries.

    ``cause`` is the error of the last attempt and ``attempts`` the number
    of attempts the stage made."""

    def __init__(self, stage: str, cause: Exception, attempts: int, summary: str = ""):
        super().__init__(f"stage '{stage}' failed: {cause}" + (f" [{summary}]" if summary else ""))
        self.stage = stage
        self.cause = cause
        self.summary = summary
        self.attempts = attempts
