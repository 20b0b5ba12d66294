"""Quick tests of the benchmark's independent output checker.

    python3 -m pytest -q perfbench/test_checker.py
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from hampower import core, instances, pipeline  # noqa: E402

from checker import CheckError, EdgeSets, check_cycle  # noqa: E402


@pytest.fixture(scope="module")
def solved():
    """A solver output on a dense random collection whose graphs miss edges."""
    rng = random.Random(7)
    n, k = 60, 2
    collection = instances.random_min_degree_collection(n, 4, 0.95, rng)
    pattern = instances.random_pattern(core.power_cycle(n, k), 4, rng)
    config = pipeline.PipelineConfig(alpha=0.2, beta=0.05, gamma=0.01, epsilon=0.1, r=7, seed=1)
    cycle, _ = pipeline.solve(collection, pattern, config)
    edges = [set(e) for e in collection.edge_lists()]
    return EdgeSets.of(collection), edges, pattern, list(cycle.vertices)


def _missing(edges, colour, u, v):
    return (min(u, v), max(u, v)) not in edges[colour - 1]


def test_accepts_solver_output(solved):
    edge_sets, _, pattern, vertices = solved
    check_cycle(edge_sets, pattern, vertices)


def test_rejects_two_swapped_vertices(solved):
    edge_sets, edges, pattern, vertices = solved
    colour = pattern.colour_of(0, 1)
    # a vertex that, moved to position 0, loses the edge to position 1
    j = next(j for j in range(2, len(vertices)) if _missing(edges, colour, vertices[j], vertices[1]))
    swapped = list(vertices)
    swapped[0], swapped[j] = swapped[j], swapped[0]
    with pytest.raises(CheckError):
        check_cycle(edge_sets, pattern, swapped)


def test_rejects_repeated_vertex(solved):
    edge_sets, _, pattern, vertices = solved
    repeated = list(vertices)
    repeated[5] = repeated[6]
    with pytest.raises(CheckError, match="permutation"):
        check_cycle(edge_sets, pattern, repeated)


def test_rejects_colour_changed_to_a_graph_without_the_edge(solved):
    edge_sets, edges, pattern, vertices = solved
    n, m = len(vertices), len(edges)
    i, colour = next(
        (i, c) for i in range(n) for c in range(1, m + 1)
        if _missing(edges, c, vertices[i], vertices[(i + 1) % n])
    )
    colours = dict(pattern.colours)
    colours[core.canonical_edge(i, (i + 1) % n)] = colour
    with pytest.raises(CheckError):
        check_cycle(edge_sets, core.ColourPattern(pattern.host, colours), vertices)
