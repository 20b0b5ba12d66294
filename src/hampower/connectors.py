"""Greedy placement of coloured connectors and absorbing gadgets.

:func:`place_in_order` places vertices one at a time: each one's candidates
are the ``pool`` mask of free vertices intersected with the colour-specific
neighbourhood masks of its few earlier neighbours' images, and it is drawn
uniformly so reservoir usage spreads out.  It is the only placement walk:
connectors and absorbing gadgets build the order it walks with one
function, :func:`placement_order`, and :func:`extend_by_one` walks a
one-id order.  Each step names the slot of its colour in one tuple: a
connector pattern's, a gadget's window pattern's, or an extension's k
colours.  A connector joins the tail ``w`` of one k-power path to the head
``y`` of another through k internal vertices, placed left to right after
both ends (an order built once per connector shape).  Colours that are not
ints in 1..m, given vertices that are not distinct ints in range(n)
(:func:`vertex_mask`) and a ``pool`` that is not a mask of them
(:func:`pool_mask`) are rejected before any draw.
"""

from __future__ import annotations

import functools
import random
import reprlib
from typing import Iterable, Optional, Sequence

from .bitset import mask_of, pick_bit
from .core import (
    CONNECTOR,
    ColourPattern,
    Edge,
    GraphCollection,
    PowerPath,
    check_ints,
    colour_slots,
    connector,
    host_edges,
    verify_coloured_embedding,
)
from .errors import ConnectionFailedError, HamPowerError, InvalidInstanceError

Order = Sequence[tuple[int, Sequence[tuple[int, int]]]]


def vertex_mask(collection: GraphCollection, vertices: Sequence[int], what: str,
                count: Optional[int] = None) -> int:
    """The mask of ``vertices``, which must be distinct ints (not ``bool``s)
    in range(n), and ``count`` of them when given; the placement entry
    points call it before any draw."""
    return mask_of(check_ints(vertices, what, 0, collection.n - 1, distinct=True, count=count))


def pool_mask(collection: GraphCollection, pool: int) -> int:
    """``pool``, which must be an ``int`` (not a ``bool``) mask of vertices
    in range(n); the placement entry points call it before any draw."""
    if type(pool) is int and 0 <= pool and pool >> collection.n == 0:
        return pool
    raise InvalidInstanceError(
        f"pool must be a mask of vertices in 0..{collection.n - 1}, got {reprlib.repr(pool)}"
    )


def place_in_order(
    collection: GraphCollection,
    order: Order,
    colours: Sequence[int],
    placed: dict[int, int],
    pool: int,
    rng: random.Random,
) -> Optional[int]:
    """Place each id of ``order``, a list of (id, ((earlier id, slot), ...)),
    on a random member of the ``pool`` mask joined in colour ``colours[slot]``
    to each ``placed[earlier id]``, recording it in ``placed``.  Returns the
    first id left without a candidate, or None."""
    check_ints(colours, "edge colour", 1, collection.m)
    masks = collection.masks
    for v, back in order:
        cand = pool
        for u, slot in back:
            cand &= masks[colours[slot] - 1][placed[u]]
        if cand == 0:
            return v
        img = pick_bit(cand, rng)
        placed[v] = img
        pool ^= 1 << img  # img is in cand, so in pool
    return None


def placement_order(order: Sequence[int], slots: Iterable[tuple[Edge, int]]) -> Order:
    """Each id of ``order`` with its earlier neighbours and the colour
    slots of the edges to them, as (id, ((earlier id, slot), ...)): each
    (edge, slot) of ``slots``, in its order, goes to the edge's endpoint
    placed later in ``order``."""
    rank = {v: i for i, v in enumerate(order)}
    back: dict[int, list[tuple[int, int]]] = {v: [] for v in order}
    for e, slot in slots:
        earlier, later = sorted(e, key=rank.__getitem__)
        back[later].append((earlier, slot))
    return tuple((v, tuple(back[v])) for v in order)


@functools.lru_cache(maxsize=64)
def _connector_order(a: int, b: int, k: int) -> Order:
    """Connector(a, b, k)'s internal positions left to right, each with its
    earlier-placed neighbours (both end blocks come first) and the slots of
    the host edges to them."""
    host = connector(a, b, k)
    edges = host_edges(host)
    order = [*range(a), *range(a + k, a + k + b), *range(a, a + k)]
    return placement_order(order, zip(edges, colour_slots(host, edges)))[a + b:]


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
    pool = pool_mask(collection, pool) & ~vertex_mask(collection, (*w, *y), "connector end")
    placed = dict(enumerate(w))
    placed.update((a + k + i, v) for i, v in enumerate(y))
    order = _connector_order(a, b, k)
    p = place_in_order(collection, order, pattern.colours.values(), placed, pool, rng)
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
    are not on the path: :func:`place_in_order` places it as id k, joined
    to ids 0..k-1, the last k path vertices, id j in colour slot j.
    """
    k = path.k
    if path.order < k:
        raise InvalidInstanceError(f"path must have at least k={k} vertices")
    if len(colours) != k:
        raise InvalidInstanceError(f"need exactly k={k} edge colours, got {len(colours)}")
    pool = pool_mask(collection, pool) & ~vertex_mask(collection, path.vertices, "path vertex")
    placed = dict(enumerate(path.vertices[-k:]))
    order = ((k, tuple((j, j) for j in range(k))),)
    if place_in_order(collection, order, colours, placed, pool, rng) is not None:
        raise ConnectionFailedError("no candidate vertex extends the path", position=None)
    return placed[k]
