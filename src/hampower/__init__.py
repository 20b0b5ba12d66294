"""Coloured powers of Hamilton cycles in graph collections.

Constructive solver (reservoir + absorber + random path builder +
connectors), exhaustive small-instance oracle, and instance generators.

The public interface is ``__all__`` below, the generators in
``hampower.instances.__all__``, the file loaders ``core.collection_from_dict``,
``core.pattern_from_dict`` and ``core.cycle_from_dict``, and the ``hampower``
command line.  Its Python entry points raise a ``HamPowerError`` subclass
for a malformed argument; the command line prints one error line and
exits 1.  ``connectors``, ``absorber``, ``pathbuilder`` and ``matching`` are
internal: ``solve`` calls them with arguments it has checked, and only
``pathbuilder.build_path_collection`` among them checks the types of its
object arguments.
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
