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


class SizeLimitError(HamPowerError):
    """Exact counting/sampling requested beyond the supported size cap."""


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


class AbortError(HamPowerError):
    """Path builder abort: a bipartite minimum-degree threshold was breached."""

    def __init__(self, message: str, step: int, level: int, pair: tuple[int, int]):
        super().__init__(message)
        self.step = step
        self.level = level
        self.pair = pair


class NoMatchingError(HamPowerError):
    """Path builder failed to find a perfect matching even though the degree
    thresholds held.  Flagged as anomalous, since the tiling-extension
    guarantee should preclude it."""

    def __init__(self, message: str, step: int, level: int):
        super().__init__(message)
        self.step = step
        self.level = level


class TemplateError(HamPowerError):
    """Robustly matchable template construction or certification failed."""


class ReservoirError(HamPowerError):
    """Reservoir sampling exhausted its retries.

    ``worst`` is ``(vertex, colour, observed_fraction)`` for the first
    vertex/graph pair that failed the degree test in the final attempt, in
    (colour, vertex) scan order; it need not hold the lowest fraction.
    """

    def __init__(self, message: str, worst: tuple[int, int, float] | None = None):
        super().__init__(message)
        self.worst = worst


class InfeasibleConfigError(HamPowerError):
    """Instance too small for the requested pipeline configuration."""

    def __init__(self, message: str, floor: int | None = None):
        super().__init__(message)
        self.floor = floor


class StageFailedError(HamPowerError):
    """A pipeline stage failed after exhausting its retries."""

    def __init__(self, stage: str, cause: Exception, summary: str = ""):
        super().__init__(f"stage '{stage}' failed: {cause}" + (f" [{summary}]" if summary else ""))
        self.stage = stage
        self.cause = cause
        self.summary = summary
