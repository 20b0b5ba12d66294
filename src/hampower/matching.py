"""Bipartite matching, the tiling-extension graph, and perfect-matching sampling.

A :class:`BipartiteGraph` is one neighbour bitmask per left vertex plus the
mask of its right vertices.  Right vertices keep the ids the caller gives
them, and every function here returns (left index, right vertex id) pairs.
The path builder numbers a part's vertices by their position in the part's
sorted vertex list, so its right ids are small ints below the part size.

:func:`tiling_graph` turns "attach one more level to a family of partial
cliques" into a single bipartite matching problem: the auxiliary graph has
one left vertex per tile, adjacent to a right vertex exactly when that
vertex completes the tile (is adjacent to every tile member, each in the
graph named for its position).  The caller hands it one row table per tile
position, already read into the right vertices' ids.  A perfect matching in
the auxiliary graph extends a perfect K_k-tiling to a perfect
K_{k+1}-tiling.

Augmenting paths are searched depth first with an explicit stack, so their
length is not bounded by the interpreter's recursion limit.  Perfect
matchings are sampled by augmenting search from the left vertices in random
order, each trying its neighbours in a random order: close to uniform but
not uniform, and cheap at any size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import count
from typing import Mapping, Sequence

from .bitset import pick_bit, select
from .errors import InvalidInstanceError, NoPerfectMatchingError


@dataclass(frozen=True)
class BipartiteGraph:
    """Left vertices 0..n_left-1; bit v of ``rows[u]`` is set when left
    vertex u is adjacent to right vertex v.  ``right`` is the mask of the
    right vertices, and every row is a subset of it.  Right ids are
    whatever the caller numbers them by: vertex ids, or positions within
    one part in the path builder."""

    rows: tuple[int, ...]
    right: int

    def __post_init__(self) -> None:
        if self.right < 0:
            raise InvalidInstanceError("the right vertex mask must be non-negative")
        outside = ~self.right
        for u, row in enumerate(self.rows):
            if row < 0 or row & outside:
                raise InvalidInstanceError(f"left vertex {u}: neighbour outside the right set")

    @property
    def n_left(self) -> int:
        return len(self.rows)

    @property
    def n_right(self) -> int:
        return self.right.bit_count()

    @property
    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.rows))


def augment(rows: Sequence[int], root: int, owner: dict[int, int], free: int) -> int:
    """Augmenting path from the unmatched left vertex ``root``, applied to
    ``owner`` (matched right vertex -> left vertex); returns the free right
    vertex it ends at, or -1 when there is none.

    Depth first with an explicit stack and ``seen`` kept as a mask: a left
    vertex with a free neighbour takes the lowest one, otherwise the search
    descends through its lowest unseen neighbour.
    """
    lefts = [root]
    rights: list[int] = []
    seen = 0
    x = root
    while True:
        hit = rows[x] & free
        if hit:
            rights.append((hit & -hit).bit_length() - 1)
            owner.update(zip(rights, lefts))  # each left vertex takes the next right one
            return rights[-1]
        cand = rows[x] & ~seen
        if cand:
            low = cand & -cand
            seen |= low
            v = low.bit_length() - 1
            rights.append(v)
            x = owner[v]
            lefts.append(x)
        else:
            lefts.pop()
            if not rights:
                return -1
            rights.pop()
            x = lefts[-1]


def max_matching(b: BipartiteGraph) -> list[tuple[int, int]]:
    """Maximum-cardinality matching as (left, right) pairs sorted by left.

    One augmenting search per left vertex, in index order; deterministic.
    """
    rows = b.rows
    owner: dict[int, int] = {}
    free = b.right
    for u in range(len(rows)):
        v = augment(rows, u, owner, free)
        if v >= 0:
            free ^= 1 << v
    return sorted((u, v) for v, u in owner.items())


def tiling_graph(
    tables: Sequence[Mapping[int, int]],
    tiles: Sequence[Sequence[int]],
    right: int,
) -> BipartiteGraph:
    """Auxiliary graph of one tiling-extension step.

    Tiles are the left vertices; ``right`` is the mask of the right ones.
    ``tables[j]`` maps a vertex to its neighbour mask over the right ids in
    the graph named for tile position j, so tile t is joined to right
    vertex v when bit v is set in ``tables[j][tiles[t][j]]`` for every j.
    A perfect matching attaches one right vertex to every tile.

    Tiles are checked to be pairwise disjoint.  Tiles and right vertices may
    be numbered in different id spaces, so keeping them apart is the
    caller's part: the path builder requires pairwise-disjoint parts.
    """
    if any(len(tile) != len(tables) for tile in tiles):
        raise InvalidInstanceError(f"every tile needs {len(tables)} vertices, one per colour")
    if len({v for tile in tiles for v in tile}) != len(tiles) * len(tables):
        raise InvalidInstanceError("tiles must be pairwise disjoint")
    rows = []
    for tile in tiles:
        cand = right
        for table, u in zip(tables, tile):
            cand &= table[u]
        rows.append(cand)
    return BipartiteGraph(tuple(rows), right)


def sample_perfect_matching(b: BipartiteGraph, rng: random.Random) -> list[tuple[int, int]]:
    """Sample a perfect matching as (left, right) pairs sorted by left, or
    raise :class:`NoPerfectMatchingError` when there is none.

    Augmenting search from the left vertices in uniformly random order,
    each left vertex trying its neighbours in a uniformly random order.
    The result is a valid perfect matching whose law is close to uniform,
    but not uniform.

    A left vertex's neighbour order is drawn lazily: ``drawn[u]`` is the
    prefix drawn so far and ``undrawn[u]`` the mask of the rest.  The search
    walks the prefix (skipping seen vertices) and draws the next neighbour,
    uniformly from the rest, only when the prefix runs out, so the output
    has the same law as when every row is shuffled up front.

    ``owner`` and ``seen`` are lists indexed by right id, so right ids
    should be small: the path builder passes positions within a part.
    """
    if b.n_left != b.n_right:
        raise NoPerfectMatchingError("perfect matching needs equal sides")
    rows = b.rows
    n = len(rows)
    ids = list(select(b.right, count()))
    id_bits = n.bit_length()
    order = list(range(n))
    rng.shuffle(order)
    getrandbits = rng.getrandbits
    drawn: list[list[int]] = [[] for _ in range(n)]
    undrawn = list(rows)
    owner = [-1] * b.right.bit_length()
    seen = [-1] * len(owner)  # seen[v] == root: v is on this root's search
    for root in order:
        # the path so far, and where each of its left vertices but the last
        # resumes its prefix; x is the last left vertex, i its position
        lefts, rights, resume = [root], [], []
        x, i = root, 0
        while True:
            prefix = drawn[x]
            v = -1
            while i < len(prefix):
                w = prefix[i]
                i += 1
                if seen[w] != root:
                    v = w
                    break
            else:  # prefix used up: draw further neighbours
                while rest := undrawn[x]:
                    if 2 * rest.bit_count() >= n:
                        # rejection over the positions of all right vertices:
                        # at this density at least a quarter of tries hit
                        while True:
                            j = getrandbits(id_bits)
                            if j < n and (rest >> (w := ids[j])) & 1:
                                break
                    else:
                        w = pick_bit(rest, rng)
                    undrawn[x] = rest ^ (1 << w)
                    prefix.append(w)
                    i += 1
                    if seen[w] != root:
                        v = w
                        break
            if v < 0:  # x has nothing left to try: back up
                lefts.pop()
                if not rights:
                    raise NoPerfectMatchingError("graph has no perfect matching")
                rights.pop()
                x, i = lefts[-1], resume.pop()
                continue
            seen[v] = root
            rights.append(v)
            u = owner[v]
            if u < 0:
                for w, u in zip(rights, lefts):  # each left vertex takes the next right one
                    owner[w] = u
                break
            resume.append(i)
            lefts.append(u)
            x, i = u, 0
    return sorted((u, v) for v, u in enumerate(owner) if u >= 0)
