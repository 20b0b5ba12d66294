"""Coloured powers of Hamilton cycles in graph collections.

Constructive solver (reservoir + absorber + random path builder +
connectors), exhaustive small-instance oracle, and instance generators.
"""

from .core import (
    ColourPattern,
    GraphCollection,
    HostTemplate,
    PowerCycle,
    PowerPath,
    connector,
    host_edges,
    min_degree,
    power_cycle,
    power_path,
    restrict_pattern,
    verify_coloured_embedding,
)
from .oracle import count_coloured_hamilton_powers, find_coloured_hamilton_power
from .pipeline import PipelineConfig, sample_reservoir, solve

__version__ = "0.1.0"

__all__ = [
    "ColourPattern",
    "GraphCollection",
    "HostTemplate",
    "PowerCycle",
    "PowerPath",
    "PipelineConfig",
    "connector",
    "count_coloured_hamilton_powers",
    "find_coloured_hamilton_power",
    "host_edges",
    "min_degree",
    "power_cycle",
    "power_path",
    "restrict_pattern",
    "sample_reservoir",
    "solve",
    "verify_coloured_embedding",
    "__version__",
]
