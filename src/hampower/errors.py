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

    ``position`` is the position at which the candidate set became empty:
    in the connector's host, or in the cycle for a greedy padding step, and
    ``None`` for a bare single-vertex extension.  A failure inside a layout
    also names its ``segment`` and the popcount of the ``pool`` its draw saw.
    """

    def __init__(self, message: str, position: int | None = None,
                 segment: str | None = None, pool: int | None = None):
        super().__init__(message)
        self.position = position
        self.segment = segment
        self.pool = pool


class EmbeddingFailedError(HamPowerError):
    """Degeneracy-ordered greedy embedding found no image for a vertex.

    Inside the absorber it also names its gadget's ``segment`` and the
    popcount of the ``pool`` its draw saw."""

    def __init__(self, message: str, vertex: int | None = None,
                 segment: str | None = None, pool: int | None = None):
        super().__init__(message)
        self.vertex = vertex
        self.segment = segment
        self.pool = pool


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
    """n is below the feasibility floor max(3k, 2k + 2), under which no
    configuration has a plan; ``floor`` is that bound."""

    def __init__(self, message: str, floor: int | None = None):
        super().__init__(message)
        self.floor = floor


class StageFailedError(HamPowerError):
    """A pipeline stage failed on every attempt of the last plan tried.

    ``cause`` is the error of that stage's last attempt, and ``events`` the
    solve's log of stage attempts over every plan tried, as a solved run's
    ``trace["events"]`` holds it (see :mod:`hampower.pipeline`)."""

    def __init__(self, stage: str, cause: Exception, events: list[dict]):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
        self.events = events
