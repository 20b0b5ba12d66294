"""Instance and pattern generators.

Covers the test/benchmark surface: complete collections, random collections
with a minimum-degree floor, r-partite collections with per-pair bipartite
degree floors, and the two-colour lower-bound family (a complete balanced
multipartite graph paired with its matching-thinned companion plus a short
colour-2 connector window, under which no compatible Hamilton power exists).
"""

from __future__ import annotations

import random
from itertools import count

from .bitset import select
from .core import (
    ColourPattern,
    GraphCollection,
    HostTemplate,
    canonical_edge,
    connector,
    host_edges,
    power_cycle,
    restrict_pattern,
)
from .errors import InvalidInstanceError

__all__ = [
    "complete_collection",
    "complete_rpartite_collection",
    "random_rpartite_collection",
    "random_min_degree_collection",
    "lowerbound_construction",
    "restrict_pattern",
    "random_pattern",
    "bijective_pattern",
]


def complete_collection(n: int, m: int) -> GraphCollection:
    """m copies of K_n (a single mask table shared by reference)."""
    if n < 1 or m < 1:
        raise InvalidInstanceError("complete_collection needs n >= 1 and m >= 1")
    full = (1 << n) - 1
    rows = [full ^ (1 << v) for v in range(n)]
    return GraphCollection(n, [rows] * m)


def _rpartite_parts(r: int, part_size: int) -> list[list[int]]:
    return [list(range(i * part_size, (i + 1) * part_size)) for i in range(r)]


def _part_masks(r: int, part_size: int) -> list[int]:
    block = (1 << part_size) - 1
    return [block << (i * part_size) for i in range(r)]


def complete_rpartite_collection(
    r: int, part_size: int, m: int
) -> tuple[GraphCollection, list[list[int]]]:
    """m copies of the complete r-partite graph on balanced parts."""
    parts = _rpartite_parts(r, part_size)
    n = r * part_size
    full = (1 << n) - 1
    part_masks = _part_masks(r, part_size)
    rows = [full ^ part_masks[v // part_size] for v in range(n)]
    return GraphCollection(n, [rows] * m), parts


def random_rpartite_collection(
    r: int,
    part_size: int,
    m: int,
    delta_frac: float,
    rng: random.Random,
) -> tuple[GraphCollection, list[list[int]]]:
    """r-partite collection with per-pair bipartite minimum degree at least
    ceil(delta_frac * part_size) in every graph.

    Each cross-part bipartite graph is sampled edge-independently at density
    ``delta_frac`` and then repaired upward until the floor holds.
    """
    if not (0.0 <= delta_frac <= 1.0):
        raise InvalidInstanceError("delta_frac must lie in [0, 1]")
    parts = _rpartite_parts(r, part_size)
    part_masks = _part_masks(r, part_size)
    n = r * part_size
    target = 0 if delta_frac <= 0 else min(part_size, int(delta_frac * part_size - 1e-9) + 1)
    tables = []
    for _ in range(m):
        rows = [0] * n
        for pi in range(r):
            for pj in range(pi + 1, r):
                for u in parts[pi]:
                    for v in parts[pj]:
                        if rng.random() < delta_frac:
                            rows[u] |= 1 << v
                            rows[v] |= 1 << u
                for side, other in ((pi, pj), (pj, pi)):
                    for u in parts[side]:
                        have = rows[u] & part_masks[other]
                        short = target - have.bit_count()
                        if short > 0:
                            missing = list(select(part_masks[other] ^ have, count()))
                            for v in rng.sample(missing, short):
                                rows[u] |= 1 << v
                                rows[v] |= 1 << u
        tables.append(rows)
    return GraphCollection(n, tables), parts


def random_min_degree_collection(
    n: int,
    m: int,
    delta_frac: float,
    rng: random.Random,
) -> GraphCollection:
    """Each graph: independent edge sampling at density ``delta_frac``, then
    greedy edge additions until the minimum degree reaches
    min(ceil(delta_frac * n), n-1)."""
    if not (0.0 <= delta_frac <= 1.0):
        raise InvalidInstanceError("delta_frac must lie in [0, 1]")
    target = 0 if delta_frac <= 0 else min(n - 1, int(delta_frac * n - 1e-9) + 1)
    full = (1 << n) - 1
    tables = []
    for _ in range(m):
        rows = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < delta_frac:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
        for u in range(n):
            short = target - rows[u].bit_count()
            if short > 0:
                missing = list(select(full ^ rows[u] ^ (1 << u), count()))
                for v in rng.sample(missing, short):
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
        tables.append(rows)
    return GraphCollection(n, tables)


def lowerbound_construction(
    k: int, p: int, orientation: str = "figure"
) -> tuple[GraphCollection, ColourPattern]:
    """Two-graph instance on n = p(k+1) vertices with no compatible Hamilton
    k-power.

    G1 is the complete (k+1)-multipartite graph on balanced parts of size p.
    G2 replaces the bipartite graph between each paired part (2i-1, 2i) with
    the identity perfect matching and adds a clique inside every paired part.
    The pattern puts colour 2 on one connector window at positions 0..2k
    (connector from a single vertex / k vertices, selected by
    ``orientation``) and colour 1 everywhere else.

    ``orientation="figure"`` removes the window edges inside the trailing k
    positions; ``orientation="text"`` removes those inside the leading k
    positions.  Requires p >= 3.
    """
    if p < 3:
        raise InvalidInstanceError(f"lower-bound construction needs p >= 3, got {p}")
    if k < 1:
        raise InvalidInstanceError("k must be >= 1")
    if orientation not in ("figure", "text"):
        raise InvalidInstanceError(f"unknown orientation {orientation!r}")
    n = p * (k + 1)
    full = (1 << n) - 1
    part_masks = _part_masks(k + 1, p)
    g1 = [full ^ part_masks[v // p] for v in range(n)]

    # G2: parts 0..paired-1 come in pairs (2i, 2i+1); a vertex of a paired
    # part sees its own part, only its copy in the partner part, and every
    # vertex outside the pair
    paired = 2 * ((k + 1) // 2)
    g2 = []
    for v in range(n):
        part = v // p
        if part < paired:
            partner = part ^ 1
            outside = full ^ part_masks[part] ^ part_masks[partner]
            own = part_masks[part] ^ (1 << v)
            copy = 1 << (partner * p + v % p)
            g2.append(outside | own | copy)
        else:
            g2.append(g1[v])
    collection = GraphCollection(n, [g1, g2])

    host = power_cycle(n, k)
    window = 2 * k + 1
    if orientation == "figure":
        conn = connector(1, k, k)  # drop edges inside the trailing k positions
        window_edges = {(i, j) for (i, j) in host_edges(conn)}
    else:
        conn = connector(k, 1, k)
        window_edges = {(i, j) for (i, j) in host_edges(conn)}
    colours = {}
    for (i, j) in host_edges(host):
        if i < window and j < window and (i, j) in window_edges:
            colours[(i, j)] = 2
        else:
            colours[(i, j)] = 1
    return collection, ColourPattern(host, colours)


def random_pattern(host: HostTemplate, m: int, rng: random.Random) -> ColourPattern:
    """Independent uniform colour in [m] for every canonical host edge."""
    if m < 1:
        raise InvalidInstanceError("need m >= 1 colours")
    return ColourPattern(host, {e: rng.randrange(1, m + 1) for e in host_edges(host)})


def bijective_pattern(host: HostTemplate, rng: random.Random | None = None) -> ColourPattern:
    """Distinct colour per host edge (m equals the edge count); the
    edge-to-colour bijection is shuffled when an rng is supplied."""
    edges = host_edges(host)
    ids = list(range(1, len(edges) + 1))
    if rng is not None:
        rng.shuffle(ids)
    return ColourPattern(host, dict(zip(edges, ids)))
