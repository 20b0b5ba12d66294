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
graph named for its position).  The caller hands the tiles over as columns,
one per tile position, and one row table per column, already read into the
right vertices' ids; a row is intersected one column at a time, in C.  A
perfect matching in the auxiliary graph extends a perfect K_k-tiling to a
perfect K_{k+1}-tiling.

Every matching here and in the absorber's template comes from one
augmenting-path search, :func:`augment`: one loop that takes a free
neighbour where it finds one and otherwise goes depth first with an
explicit stack (no recursion limit on path length), with owners in a list
indexed by right id, so right ids must be small.  Its ``pick`` chooses the
bit to take: :func:`max_matching` takes the lowest,
:func:`sample_perfect_matching` a uniformly random one from roots in random
order, a law close to uniform but not uniform (uniform on complete
bipartite graphs).  The sampler takes a root's free neighbour inline, by
the same draws, and calls :func:`augment` only for a root with no free
neighbour: on the path builder's dense tiling graphs nearly every root has
one, and the calls cost more than the pick.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain, count
from operator import and_
from typing import Callable, Mapping, Sequence

from .bitset import lowest_bit, nth_bit, randbelow, select
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


def augment(
    rows: Sequence[int], root: int, owner: list[int], free: int, pick: Callable[[int], int]
) -> int:
    """Augmenting path from the unmatched left vertex ``root``, applied to
    ``owner`` (right id -> left vertex, -1 while free); returns the free
    right vertex it ends at, or -1 when there is none.

    A left vertex takes ``pick`` of its free neighbours when it has one;
    otherwise the search descends through ``pick`` of its unseen (so owned)
    neighbours to their owner, and backs up when none is left.  ``seen`` is
    one mask per root and owners change only when a path closes, so the
    search is complete whatever ``pick`` chooses.
    """
    lefts = [root]
    rights: list[int] = []
    seen = 0
    x = root
    while True:
        if hit := rows[x] & free:
            rights.append(pick(hit))
            for v, u in zip(rights, lefts):  # each left vertex takes the next right one
                owner[v] = u
            return rights[-1]
        if cand := rows[x] & ~seen:
            v = pick(cand)
            seen |= 1 << v
            rights.append(v)
            x = owner[v]
            lefts.append(x)
        else:  # x has nothing left to try: back up
            lefts.pop()
            if not rights:
                return -1
            rights.pop()
            x = lefts[-1]


def max_matching(b: BipartiteGraph) -> list[tuple[int, int]]:
    """Maximum-cardinality matching as (left, right) pairs sorted by left.

    One augmenting search per left vertex, in index order, taking the
    lowest bit at every pick; deterministic.
    """
    rows = b.rows
    owner = [-1] * b.right.bit_length()
    free = b.right
    for u in range(len(rows)):
        v = augment(rows, u, owner, free, lowest_bit)
        if v >= 0:
            free ^= 1 << v
    return sorted((u, v) for v, u in enumerate(owner) if u >= 0)


def tiling_graph(
    tables: Sequence[Mapping[int, int]],
    columns: Sequence[Sequence[int]],
    right: int,
) -> BipartiteGraph:
    """Auxiliary graph of one tiling-extension step.

    Tiles are the left vertices, given as columns: ``columns[j][t]`` is
    tile t's vertex at tile position j.  ``right`` is the mask of the right
    vertices.  ``tables[j]`` maps a vertex to its neighbour mask over the
    right ids in the graph named for tile position j, so tile t is joined
    to right vertex v when bit v is set in ``tables[j][columns[j][t]]`` for
    every j.  A perfect matching attaches one right vertex to every tile.

    There must be one column per table, all of one length, and the tiles
    are checked to be pairwise disjoint.  Tiles and right vertices may be
    numbered in different id spaces, so keeping them apart is the caller's
    part: the path builder requires pairwise-disjoint parts.
    """
    if len(columns) != len(tables) or len(set(map(len, columns))) > 1:
        raise InvalidInstanceError(
            f"every tile needs {len(tables)} vertices, one per colour: "
            "one column per table, all of one length"
        )
    n = len(columns[0]) if columns else 0
    if len(set(chain.from_iterable(columns))) != n * len(columns):
        raise InvalidInstanceError("tiles must be pairwise disjoint")
    rows = [right] * n
    for table, column in zip(tables, columns):
        rows = list(map(and_, rows, map(table.__getitem__, column)))
    return BipartiteGraph(tuple(rows), right)


def sample_perfect_matching(b: BipartiteGraph, rng: random.Random) -> list[tuple[int, int]]:
    """Sample a perfect matching as (left, right) pairs sorted by left, or
    raise :class:`NoPerfectMatchingError` when there is none.

    Left vertices are roots in uniformly random order.  A root with a free
    neighbour takes a uniformly random one inline, the pick :func:`augment`
    would make first; only a root with none runs :func:`augment`, with
    uniformly random picks.  It raises at the first root with no augmenting
    path, which happens exactly when there is no perfect matching.  The law
    is close to uniform but not uniform; on a complete bipartite graph it is
    uniform.  The path builder passes positions within a part as right ids.
    """
    if b.n_left != b.n_right:
        raise NoPerfectMatchingError("perfect matching needs equal sides")
    rows = b.rows
    n = len(rows)
    ids = list(select(b.right, count()))
    id_bits = n.bit_length()
    getrandbits = rng.getrandbits

    # A uniform pick draws the same way in ``pick`` and inline in the root
    # loop: while the mask holds at least half the side, by rejection over
    # the positions of all right vertices (at least a quarter of tries
    # hit), otherwise by one rank draw.  The copy in the loop saves the
    # calls, which cost more than the pick on a root with a free neighbour.
    def pick(mask: int) -> int:
        """Uniformly random set bit of a nonzero mask of right ids."""
        c = mask.bit_count()
        if 2 * c >= n:
            while True:
                j = getrandbits(id_bits)
                if j < n and (mask >> (v := ids[j])) & 1:
                    return v
        return nth_bit(mask, randbelow(c, getrandbits))

    order = list(range(n))
    for i in range(n - 1, 0, -1):  # rng.shuffle(order), the same draws
        j = randbelow(i + 1, getrandbits)
        order[i], order[j] = order[j], order[i]
    owner = [-1] * b.right.bit_length()
    free = b.right
    for root in order:
        if hit := rows[root] & free:
            c = hit.bit_count()
            if 2 * c >= n:
                while True:
                    j = getrandbits(id_bits)
                    if j < n and (hit >> (v := ids[j])) & 1:
                        break
            else:
                v = nth_bit(hit, randbelow(c, getrandbits))
            owner[v] = root
        elif (v := augment(rows, root, owner, free, pick)) < 0:
            raise NoPerfectMatchingError("graph has no perfect matching")
        free ^= 1 << v
    mate = [0] * n  # every right id is owned: invert owner into left order
    for v in ids:
        mate[owner[v]] = v
    return list(enumerate(mate))
