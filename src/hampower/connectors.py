"""Greedy embedding of coloured connectors through a reservoir.

A connector joins the tail ``w`` of one k-power path to the head ``y`` of
another through k fresh internal vertices.  Each internal vertex is
constrained by at most 2k already-placed vertices (its within-k
predecessors on both sides); the candidate set is the intersection of the
corresponding colour-specific neighbourhood masks with the ``pool`` mask of
vertices still free.  End vertices are never candidates, wherever they lie.
Candidates are drawn uniformly at random so reservoir usage spreads out.
"""

from __future__ import annotations

import random
from typing import Sequence

from .bitset import mask_of, pick_bit
from .core import (
    CONNECTOR,
    ColourPattern,
    GraphCollection,
    PowerPath,
    host_edges,
    verify_coloured_embedding,
)
from .errors import ConnectionFailedError, HamPowerError, InvalidInstanceError


def embed_connector(
    collection: GraphCollection,
    w: Sequence[int],
    y: Sequence[int],
    pattern: ColourPattern,
    pool: int,
    rng: random.Random,
) -> tuple[int, ...]:
    """Pick the k internal vertices of a coloured connector, left to right.

    ``w`` holds the last <= k vertices of the path being extended and ``y``
    the first <= k vertices of the path being joined to; the pattern's host
    must be connector(|w|, |y|, k).  Internal vertices are drawn from the
    ``pool`` mask.  Returns the internal vertices in host order.  Raises
    :class:`ConnectionFailedError` naming the first internal position whose
    candidate set is empty.  Every successful output re-verifies against the
    pattern before being returned.
    """
    host = pattern.host
    if host.kind != CONNECTOR:
        raise InvalidInstanceError("connector embedding needs a connector-host pattern")
    a, b, k = host.a, host.b, host.k
    if (a, b) != (len(w), len(y)):
        raise InvalidInstanceError(
            f"connector host is ({a},{b}) but ends have ({len(w)},{len(y)}) vertices"
        )
    end_mask = mask_of(w) | mask_of(y)
    if end_mask.bit_count() != a + b:
        raise InvalidInstanceError("connector ends must be distinct and vertex-disjoint")
    placed = dict(enumerate(w))
    placed.update((a + k + i, v) for i, v in enumerate(y))
    pool &= ~end_mask

    constraints: dict[int, list[tuple[int, int]]] = {p: [] for p in range(a, a + k)}
    for (i, j) in host_edges(host):
        # attribute each edge to its later-placed internal endpoint
        if a <= j < a + k:
            constraints[j].append((i, pattern.colours[(i, j)]))
        elif a <= i < a + k:
            constraints[i].append((j, pattern.colours[(i, j)]))

    internals: list[int] = []
    for p in range(a, a + k):
        cand = pool
        for (q, colour) in constraints[p]:
            cand &= collection.neighbour_mask(colour, placed[q])
        if cand == 0:
            raise ConnectionFailedError(
                f"no candidate for connector position {p} "
                f"(internal {p - a + 1} of {k})",
                position=p,
            )
        v = pick_bit(cand, rng)
        placed[p] = v
        internals.append(v)
        pool &= ~(1 << v)

    result = verify_coloured_embedding(collection, pattern, [*w, *internals, *y])
    if not result.ok:  # greedy construction realises every edge it checked
        raise HamPowerError(f"internal error: connector failed verification at {result.violation}")
    return tuple(internals)


def extend_by_one(
    collection: GraphCollection,
    path: PowerPath,
    colours: Sequence[int],
    pool: int,
    rng: random.Random,
) -> int:
    """Append one vertex to a k-power path.

    ``colours[j]`` is the required colour of the edge from the j-th of the
    last k path vertices (farthest first) to the new vertex.  The new vertex
    is drawn uniformly from the feasible members of the ``pool`` mask that
    are not on the path.
    """
    k = path.k
    if path.order < k:
        raise InvalidInstanceError(f"path must have at least k={k} vertices")
    if len(colours) != k:
        raise InvalidInstanceError(f"need exactly k={k} edge colours, got {len(colours)}")
    cand = pool & ~mask_of(path.vertices)
    for u, colour in zip(path.vertices[-k:], colours):
        cand &= collection.neighbour_mask(colour, u)
    if cand == 0:
        raise ConnectionFailedError("no candidate vertex extends the path", position=None)
    return pick_bit(cand, rng)
