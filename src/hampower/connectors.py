"""Greedy placement of coloured connectors and absorbing gadgets.

:func:`place_in_order` places vertices one at a time: each one's candidates
are the ``pool`` mask of free vertices intersected with the colour-specific
neighbourhood masks of its few earlier neighbours' images, and it is drawn
uniformly so reservoir usage spreads out.  Connectors and absorbing gadgets
build the order it walks with one function, :func:`placement_order`.  A
connector joins the tail ``w`` of one k-power path to the head ``y`` of
another through k internal vertices, placed left to right after both ends
(an order built once per connector shape).  Colours that are not ints in
1..m are rejected before any draw.
"""

from __future__ import annotations

import functools
import random
from typing import Iterable, Mapping, Optional, Sequence

from .bitset import mask_of, pick_bit
from .core import (
    CONNECTOR,
    ColourPattern,
    Edge,
    GraphCollection,
    PowerPath,
    connector,
    host_edges,
    only_ints,
    verify_coloured_embedding,
)
from .errors import ConnectionFailedError, HamPowerError, InvalidInstanceError

Order = Sequence[tuple[int, Sequence[tuple[int, Edge]]]]


def _check_colours(collection: GraphCollection, colours: Iterable[int]) -> None:
    if not (only_ints(colours) and 1 <= min(colours, default=1)
            and max(colours, default=1) <= collection.m):
        raise InvalidInstanceError(f"edge colours must be integers in 1..{collection.m}")


def place_in_order(
    collection: GraphCollection,
    order: Order,
    colours: Mapping[Edge, int],
    placed: dict[int, int],
    pool: int,
    rng: random.Random,
) -> Optional[int]:
    """Place each id of ``order``, a list of (id, ((earlier id, key), ...)),
    on a random member of the ``pool`` mask joined in colour ``colours[key]``
    to each ``placed[earlier id]``, recording it in ``placed``.  Returns the
    first id left without a candidate, or None."""
    _check_colours(collection, colours.values())
    masks = collection.masks
    for v, back in order:
        cand = pool
        for u, key in back:
            cand &= masks[colours[key] - 1][placed[u]]
        if cand == 0:
            return v
        img = pick_bit(cand, rng)
        placed[v] = img
        pool &= ~(1 << img)
    return None


def placement_order(order: Sequence[int], edges: Iterable[Edge]) -> Order:
    """Each id of ``order`` with its earlier neighbours and the edges to
    them, as (id, ((earlier id, edge), ...)): each edge, in the order
    ``edges`` lists them, goes to its endpoint placed later in ``order``."""
    rank = {v: i for i, v in enumerate(order)}
    back: dict[int, list[tuple[int, Edge]]] = {v: [] for v in order}
    for e in edges:
        earlier, later = sorted(e, key=rank.__getitem__)
        back[later].append((earlier, e))
    return tuple((v, tuple(back[v])) for v in order)


@functools.lru_cache(maxsize=64)
def _connector_order(a: int, b: int, k: int) -> Order:
    """Connector(a, b, k)'s internal positions left to right, each with its
    earlier-placed neighbours (both end blocks come first) and host edges."""
    order = [*range(a), *range(a + k, a + k + b), *range(a, a + k)]
    return placement_order(order, host_edges(connector(a, b, k)))[a + b:]


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
    p = place_in_order(
        collection, _connector_order(a, b, k), pattern.colours, placed, pool & ~end_mask, rng
    )
    if p is not None:
        raise ConnectionFailedError(
            f"no candidate for connector position {p} (internal {p - a + 1} of {k})",
            position=p,
        )
    internals = tuple(placed[p] for p in range(a, a + k))
    result = verify_coloured_embedding(collection, pattern, [*w, *internals, *y])
    if not result.ok:  # greedy construction realises every edge it checked
        raise HamPowerError(f"internal error: connector failed verification at {result.violation}")
    return internals


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
    _check_colours(collection, colours)
    cand = pool & ~mask_of(path.vertices)
    for u, colour in zip(path.vertices[-k:], colours):
        cand &= collection.neighbour_mask(colour, u)
    if cand == 0:
        raise ConnectionFailedError("no candidate vertex extends the path", position=None)
    return pick_bit(cand, rng)
